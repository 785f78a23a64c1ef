#!/usr/bin/env python3
"""modtail benchmark: one named workload, timed end to end or traced.

Run from the root of a checkout that holds ``src/modtail``:

    python3 bench/run.py --workload certify-powerlaw --seed 1 \\
        --seconds 30 --trace 0
    python3 bench/run.py --smoke

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics, taken from in-memory spans around every call into a modtail
layer plus fixed per-layer probes (see README.md).  The lines before it
stamp the machine and code and summarise the run.  Each workload is a
closed loop: one client, operations back to back, parallelism only
through modtail's ``threads`` argument, set to the number of CPUs this
process may use.  ``--smoke`` runs every workload at a tiny size and
checks the metric names and units against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("certify-powerlaw", "certify-slowvary", "coverage-field",
                  "analytic-bounds")
LAYERS = ("config", "slowvary", "distribution", "moments", "fenchel",
          "bounds", "entropy", "harness")
# set-up is repeated in every run and its median reported, so one slow
# repetition does not move setup_s
SETUP_REPEATS = 5


@functools.cache
def _load_modtail() -> float:
    """Import modtail from the checkout's src/ (never an installed copy)
    and return the seconds the import took."""
    if not (ROOT / "src" / "modtail" / "__init__.py").is_file():
        raise SystemExit(f"bench: no modtail sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (imports numpy, scipy and modtail)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Set up, measure for ``seconds`` and return the result with its
    metrics, the stamp and a fingerprint of the first operation's draws."""
    import_s = _load_modtail()
    import machine
    from modtail.errors import DomainError, NumericError
    from tracing import DrawCounter, Tracer
    from workloads import WORKLOADS

    threads = machine.nproc()
    out_dir = OUT_ROOT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    tr = Tracer(on=trace)
    counter = DrawCounter()
    counter.install([m for n, m in list(sys.modules.items())
                     if n.startswith("modtail.")])
    try:
        setups = []
        for k in range(SETUP_REPEATS):
            tr.op = ("setup", k)
            t0 = time.perf_counter()
            wl = tr.call("bench.setup", WORKLOADS[name], seed, threads, tr,
                         out_dir, tiny)
            setups.append(time.perf_counter() - t0)
        probe_metrics, problems = {}, []
        if trace:
            import layers
            tr.op = ("probe", 0)
            probes = layers.Probes(tr, counter, threads, out_dir, tiny)
            probe_metrics = tr.call("bench.probe", probes.run)
            problems += probes.problems

        ops = []
        start = time.perf_counter()
        i = 0
        while True:
            # operation 0 warms the allocator and caches and is not timed;
            # the traced run then alternates traced and untraced
            # operations, so their ratio measures the tracing overhead
            tr.on = trace and i % 2 == 1
            tr.op = ("op", i)
            d0, c0 = counter.snapshot()
            t0 = time.perf_counter()
            try:
                out = tr.call("bench.op", wl.op, i)
            except (NumericError, DomainError) as exc:
                out, errs = None, [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - t0
            d1, c1 = counter.snapshot()
            traced_op, tr.on = tr.on, False
            if out is not None:
                try:
                    errs = wl.check(out)
                except (NumericError, DomainError) as exc:
                    errs = [f"check raised {type(exc).__name__}: {exc}"]
            ops.append({"wall": wall, "traced": traced_op, "warmup": i == 0,
                        "errors": errs,
                        "draws": d1 - d0, "chunks": c1 - c0,
                        "points": out["points"] if out else 0,
                        "fingerprint": out["fingerprint"] if out else None})
            problems += [f"op {i}: {e}" for e in errs]
            i += 1
            elapsed = time.perf_counter() - start
            enough = i >= (3 if trace else 2)
            if enough and elapsed + wall > seconds:
                break
    finally:
        counter.uninstall()

    stamp = machine.stamp(ROOT, name, seed, threads)
    timed = [o for o in ops if not o["warmup"]]
    plain = [o for o in timed if not o["traced"]]
    wall_s = statistics.median(o["wall"] for o in plain)
    failed = sum(1 for o in ops if o["errors"])
    if trace:
        traced = [o for o in timed if o["traced"]]
        metrics = dict(probe_metrics)
        per_pass = tr.layer_self_per_pass()
        total = sum(per_pass.values())
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = per_pass.get(layer, 0.0)
            metrics[f"{layer}.share"] = per_pass.get(layer, 0.0) / total
        metrics["harness.draws"] = statistics.median(o["draws"] for o in timed)
        metrics["harness.chunks"] = statistics.median(o["chunks"]
                                                      for o in timed)
        metrics["trace.overhead_ratio"] = (
            statistics.median(o["wall"] for o in traced) / wall_s - 1.0)
        tr.write(out_dir / f"trace-seed{seed}.json", stamp)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": import_s + statistics.median(setups),
            "points_per_s": statistics.median(o["points"] / o["wall"]
                                              for o in plain),
            "peak_rss_mb": _peak_rss_mb(),
        }
    draws_per_s = statistics.median(o["draws"] / o["wall"] for o in plain)
    return {"correct": failed == 0 and not problems, "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in metrics.items()},
            "stamp": stamp, "problems": problems,
            "fingerprint": ops[0]["fingerprint"],
            "summary": {"ops": len(ops), "fail_ratio": failed / len(ops),
                        "draws_per_op": plain[0]["draws"],
                        "draws_per_s": draws_per_s,
                        "measured_s": round(time.perf_counter() - start, 3)}}


_E2E_UNITS = {"wall_s": "s", "setup_s": "s", "points_per_s": "1/s",
              "peak_rss_mb": "MiB"}
_LAYER_UNITS = (("_ns_per_draw", "ns"), ("_ns_per_pt", "ns"),
                ("_us_per_u", "us"), ("_us_per_y", "us"), ("_ms_per_u", "ms"),
                ("_ms_per_p", "ms"), ("_ms", "ms"), ("_bytes_per_draw", "B"),
                (".self_s", "s"), (".share", "1"), (".overhead_ratio", "1"))


def unit_of(name: str) -> str:
    if name in _E2E_UNITS:
        return _E2E_UNITS[name]
    return next((u for suffix, u in _LAYER_UNITS if name.endswith(suffix)),
                "count")


def smoke() -> int:
    """Tiny run of every workload: each metric declared in BENCHMARK.json
    is emitted with its unit, all outputs check, and another seed changes
    the draws but not the set of metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOAD_NAMES:
        runs = {(seed, trace): run_workload(name, seed, 0.0, trace, tiny=True)
                for seed, trace in ((1, False), (2, False), (1, True))}
        for (seed, trace), res in runs.items():
            tag = f"{name} seed={seed} trace={int(trace)}"
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                odd = sorted(set(got.items()) ^ set(want[trace].items()))
                problems.append(f"{tag}: metrics missing, extra or with "
                                f"another unit: {odd}")
            if not all(math.isfinite(m["value"])
                       for m in res["metrics"].values()):
                problems.append(f"{tag}: a metric is not finite")
            if not res["correct"]:
                problems.append(f"{tag}: {res['problems']}")
        fp = {k: r["fingerprint"] for k, r in runs.items()}
        if fp[(1, False)] is not None and not (
                fp[(1, False)] == fp[(1, True)] != fp[(2, False)]):
            problems.append(f"{name}: draws do not follow the seed {fp}")
        print(f"smoke {name}: ok" if not problems else
              f"smoke {name}: {problems}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, checked against "
                             "BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print("# stamp " + json.dumps(res["stamp"], sort_keys=True))
    print("# summary " + json.dumps(res["summary"], sort_keys=True))
    for problem in res["problems"]:
        print(f"# FAILED {problem}")
    for k, m in res["metrics"].items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
