"""Stamp that ties every result to the machine and code it came from.

Everything here is read-only: the CPU model and cache sizes come from
/sys and /proc/cpuinfo, the commit from the checkout's .git directory
(absent when the checkout is not a git repository).
"""

from __future__ import annotations

import os
import platform
from pathlib import Path


def nproc() -> int:
    """CPUs this process may run on, as `nproc` reports them."""
    return len(os.sched_getaffinity(0))


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Unified/data cache sizes per level of cpu0, e.g. {"L2": "2048K"}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        if _read(idx / "type") == "Instruction":
            continue
        level = _read(idx / "level")
        if level:
            out[f"L{level}"] = _read(idx / "size")
    return out


def _commit(root: Path) -> str:
    git = root / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split(" ", 1)[0]
    return "unknown"


def stamp(root: Path, workload: str, seed: int, threads: int) -> dict:
    import numpy
    import scipy

    caches = _caches()
    return {"workload": workload, "seed": seed, "nproc": nproc(),
            "threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu_model": _cpu_model(), "l2": caches.get("L2", "unknown"),
            "l3": caches.get("L3", "unknown"), "commit": _commit(root)}
