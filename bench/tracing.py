"""In-memory spans around the benchmark's calls into modtail's layers.

A span is recorded at each call the benchmark makes into a public
function of a modtail module and is named ``<module>.<function>``; the
module name is the layer.  Spans live in memory and are written once,
when the run ends.  The benchmark's own glue sits in ``bench.*`` spans,
so every operation has one root span and the self times of a root and
its descendants add up to the root's duration.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Records spans ``[name, op, parent, start, end]`` while ``on``.

    ``op`` is the identifier shared by the spans of one operation, a pair
    ``(kind, index)`` such as ``("op", 3)``.  With ``on`` false, ``call``
    is a plain call, so the untraced runs pay one attribute test per call.
    """

    def __init__(self, on: bool):
        self.on = on
        self.op = ("setup", 0)
        self.spans: list = []
        self._stack: list = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, self.op, self._stack[-1] if self._stack else -1,
                time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover.

        Spans are opened by one thread only, so the children of a span
        run one after another and never overlap: the covered time is the
        sum of their durations.
        """
        own = np.array([s[4] - s[3] for s in self.spans])
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[4] - s[3]
        return own

    def layer_self_per_pass(self) -> dict:
        """Self time per layer for one pass of the traced run.

        A pass is one set-up, one run of the layer probes and one
        operation: the self time of each kind of operation is averaged
        over the instances of that kind, then the kinds are added up.
        """
        own = self.self_times()
        per_instance = defaultdict(float)
        instances = defaultdict(set)
        for s, t in zip(self.spans, own):
            kind, index = s[1]
            per_instance[(s[0].split(".", 1)[0], kind)] += t
            instances[kind].add(index)
        out = defaultdict(float)
        for (layer, kind), t in per_instance.items():
            out[layer] += t / len(instances[kind])
        return dict(out)

    def write(self, path, stamp: dict) -> None:
        payload = {"stamp": stamp,
                   "fields": ["name", "op", "parent", "start_s", "end_s"],
                   "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")


class DrawCounter:
    """Counts draws and kernel calls where the harness calls the quantile
    kernel.

    ``install`` replaces the reference to ``distribution.quantile`` held
    by every other modtail module with a counting wrapper, so the counts
    are made at the harness/distribution boundary whatever module runs
    the sampling loop.  Harness worker threads call the wrapper, hence
    the lock.
    """

    def __init__(self):
        self.draws = 0
        self.calls = 0
        self._lock = threading.Lock()
        self._patched: list = []

    def install(self, modules) -> None:
        import modtail.distribution as dist

        kernel = dist.quantile

        def counted(params, q):
            with self._lock:
                self.draws += int(np.size(q))
                self.calls += 1
            return kernel(params, q)

        for mod in modules:
            if mod is not dist and getattr(mod, "quantile", None) is kernel:
                self._patched.append((mod, kernel))
                mod.quantile = counted

    def uninstall(self) -> None:
        for mod, kernel in self._patched:
            mod.quantile = kernel
        self._patched.clear()

    def snapshot(self):
        with self._lock:
            return self.draws, self.calls
