"""Monte Carlo simulation and certification of the tail bounds.

Estimates Qhat(u) = max over an n-grid of empirical tails of the
normalized sums, wraps it in a uniform DKW confidence band, and checks
every bound curve against it.  The sup over all n is truncated to the
plan's n-grid; per-n curves are kept in the report so saturation can be
judged.  All randomness flows from the plan's master seed through
fixed-size chunks with independent counter-based streams, so results do
not depend on the worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import TailCurve, q_bound_closed, theta_regime
from .distribution import MdtParams, quantile
from .entropy import FieldModel
from .errors import DomainError, NumericError
from ._version import __version__ as _version

_E = math.e
_EE = math.e ** math.e

DEFAULT_N_GRID = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
DEFAULT_BUDGET = 10 ** 9
CHUNK_REPS = 4096


def dkw_halfwidth(reps: int, delta: float) -> float:
    """Two-sided uniform DKW band half-width sqrt(ln(2/delta) / (2 reps))."""
    if not (0 < delta < 1):
        raise DomainError("DKW level must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * reps))


@dataclass(frozen=True, eq=False)
class SimulationPlan:
    params: MdtParams
    n_grid: Tuple[int, ...]
    reps: int
    u_grid: np.ndarray
    seed: int
    dkw_delta: float = 1e-3
    budget: int = DEFAULT_BUDGET
    threads: int = 1

    def __post_init__(self):
        if list(self.n_grid) != sorted(set(self.n_grid)) or min(self.n_grid) < 1:
            raise DomainError("n_grid must be strictly increasing positive ints")
        if self.reps < 1000:
            raise DomainError("reps must be >= 1000")

    def total_draws(self) -> int:
        return self.reps * sum(self.n_grid)

    def echo(self) -> Dict:
        return {"params": self.params.describe(), "n_grid": list(self.n_grid),
                "reps": self.reps, "seed": self.seed, "dkw_delta": self.dkw_delta,
                "u_grid": [float(u) for u in self.u_grid]}


def default_u_grid(params: MdtParams, points: int = 64,
                   q_top: float = 1e-4) -> np.ndarray:
    """Geometric grid from u_star to the q_top quantile of the single-draw
    envelope, so the highest cell still expects reps * q_top exceedances."""
    return np.geomspace(params.u_star, quantile(params, q_top), points)


def make_plan(params: MdtParams, seed: int,
              n_grid: Sequence[int] = DEFAULT_N_GRID, reps: int = 10 ** 5,
              u_points: int = 64, u_grid: Optional[np.ndarray] = None,
              dkw_delta: float = 1e-3, budget: int = DEFAULT_BUDGET,
              threads: int = 1) -> SimulationPlan:
    if u_grid is None:
        u_grid = default_u_grid(params, points=u_points)
    return SimulationPlan(params=params, n_grid=tuple(int(n) for n in n_grid),
                          reps=int(reps), u_grid=np.asarray(u_grid, dtype=float),
                          seed=int(seed), dkw_delta=dkw_delta, budget=int(budget),
                          threads=int(threads))


@dataclass(frozen=True, eq=False)
class EmpiricalTailReport:
    plan: SimulationPlan
    counts: np.ndarray          # (len(n_grid), len(u_grid)) exceedance counts
    statistic: str = "abs"      # "abs" scalar |S_n|, "field-sup" grid supremum

    @property
    def u_grid(self) -> np.ndarray:
        return self.plan.u_grid

    @property
    def tails(self) -> np.ndarray:
        return self.counts / self.plan.reps

    @property
    def qhat(self) -> np.ndarray:
        return self.tails.max(axis=0)

    @property
    def qhat_counts(self) -> np.ndarray:
        return self.counts.max(axis=0)

    @property
    def dkw(self) -> float:
        return dkw_halfwidth(self.plan.reps, self.plan.dkw_delta)

    def to_csv(self, path, header_extra: str = "") -> None:
        cols = ["u"] + [f"tail_n{n}" for n in self.plan.n_grid] + ["qhat", "dkw"]
        rows = np.column_stack([self.u_grid, self.tails.T, self.qhat,
                                np.full_like(self.qhat, self.dkw)])
        header = (f"# modtail simulation report v{_version}\n"
                  f"# {self.plan.params.describe()}\n"
                  f"# seed={self.plan.seed} reps={self.plan.reps} "
                  f"statistic={self.statistic}\n"
                  f"{header_extra}" + ",".join(cols))
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def _chunk_key(seed: int, n_index: int, chunk_index: int) -> np.ndarray:
    return np.random.SeedSequence([seed, n_index, chunk_index]).generate_state(2, np.uint64)


def _chunk_generator(seed: int, n_index: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_chunk_key(seed, n_index, chunk_index)))


def _draw_magnitudes(params: MdtParams, gen: np.random.Generator, shape) -> np.ndarray:
    u = gen.random(shape + (2,))
    mag = quantile(params, 1.0 - u[..., 0])
    sign = np.where(u[..., 1] < 0.5, -1.0, 1.0)
    return sign * mag


@contextmanager
def _failure_context(seed: int, n: int, chunk: int):
    """Add where a chunk failed to the diagnostics of its NumericError."""
    try:
        yield
    except NumericError as exc:
        exc.diagnostics.update(seed=seed, n=n, chunk=chunk)
        raise


def _check_budget(plan: SimulationPlan, per_rep_draws: int) -> None:
    total = plan.reps * per_rep_draws
    if total > plan.budget:
        suggested = plan.budget // max(per_rep_draws, 1)
        raise DomainError(
            f"plan needs {total} draws, over the budget {plan.budget}; "
            f"reduce reps to <= {suggested} or raise the budget")


CHUNK_DRAWS = 1 << 22


def _chunks(reps: int, per_rep: int = 1) -> List[Tuple[int, int]]:
    """Deterministic chunk layout: fixed size given (reps, per_rep), so
    results never depend on the worker count."""
    size = max(1, min(CHUNK_REPS, CHUNK_DRAWS // max(per_rep, 1)))
    out = []
    start = 0
    ci = 0
    while start < reps:
        m = min(size, reps - start)
        out.append((ci, m))
        start += m
        ci += 1
    return out


def simulate(plan: SimulationPlan) -> EmpiricalTailReport:
    """Empirical tails of |S_n| on the u-grid for every n in the plan."""
    _check_budget(plan, sum(plan.n_grid))
    u_grid = plan.u_grid
    counts = np.zeros((len(plan.n_grid), u_grid.size), dtype=np.int64)

    def run(task):
        ni, n, ci, m = task
        gen = _chunk_generator(plan.seed, ni, ci)
        with _failure_context(plan.seed, n, ci):
            draws = _draw_magnitudes(plan.params, gen, (m, n))
        s = np.abs(draws.sum(axis=1)) / math.sqrt(n)
        s.sort()
        return ni, m - np.searchsorted(s, u_grid, side="right")

    tasks = [(ni, n, ci, m) for ni, n in enumerate(plan.n_grid)
             for ci, m in _chunks(plan.reps, n)]
    if plan.threads > 1:
        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]
    for ni, cnt in results:
        counts[ni] += cnt
    return EmpiricalTailReport(plan=plan, counts=counts)


def simulate_field(model: FieldModel, plan: SimulationPlan) -> EmpiricalTailReport:
    """Same pipeline with the per-replication statistic max over the
    z-grid of |Y_n(z)|."""
    j_count = model.n_components
    _check_budget(plan, sum(plan.n_grid) * j_count)
    u_grid = plan.u_grid
    z = model.z_grid()
    jidx = np.arange(1, j_count + 1)
    cosmat = np.cos(2.0 * math.pi * np.outer(jidx, z))   # (J, M)
    sinmat = np.sin(2.0 * math.pi * np.outer(jidx, z))
    w = np.asarray(model.weights, dtype=float)
    counts = np.zeros((len(plan.n_grid), u_grid.size), dtype=np.int64)

    def run(task):
        ni, n, ci, m = task
        gen = _chunk_generator(plan.seed, ni, ci)
        u = gen.random((m, n, j_count, 2))
        with _failure_context(plan.seed, n, ci):
            xi = quantile(plan.params, 1.0 - u[..., 0])
        xi *= np.where(u[..., 1] < 0.5, -1.0, 1.0)
        phase = gen.random((m, n, j_count)) * (2.0 * math.pi)
        a = (xi * np.cos(phase)).sum(axis=1) * w   # (m, J)
        b = (xi * np.sin(phase)).sum(axis=1) * w
        y = (a @ cosmat - b @ sinmat) / math.sqrt(n)
        stat = np.abs(y).max(axis=1)
        stat.sort()
        return ni, m - np.searchsorted(stat, u_grid, side="right")

    tasks = [(ni, n, ci, m) for ni, n in enumerate(plan.n_grid)
             for ci, m in _chunks(plan.reps, n * j_count)]
    if plan.threads > 1:
        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]
    for ni, cnt in results:
        counts[ni] += cnt
    return EmpiricalTailReport(plan=plan, counts=counts, statistic="field-sup")


@dataclass(frozen=True, eq=False)
class CurveVerdict:
    provenance: str
    passed: bool
    checked_cells: int
    violations: List[float] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class CertificationResult:
    report: EmpiricalTailReport
    verdicts: List[CurveVerdict]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def summary(self) -> Dict:
        return {"passed": self.passed,
                "verdicts": [{"provenance": v.provenance, "passed": v.passed,
                              "checked_cells": v.checked_cells,
                              "violations": v.violations} for v in self.verdicts]}

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def certify(report: EmpiricalTailReport, curves: Sequence[TailCurve],
            upper_slack: float = 0.0) -> CertificationResult:
    """Check Qhat against each curve with the report's DKW envelope.

    Upper bounds must satisfy Qhat - dkw <= curve(u) + upper_slack; the
    lower witness must satisfy Qhat + dkw >= curve(u).  Cells below a
    curve's domain are skipped.
    """
    u = report.u_grid
    qhat = report.qhat
    dkw = report.dkw
    verdicts = []
    for curve in curves:
        mask = u >= curve.u_min * (1 - 1e-12)
        vals = curve.evaluate(u[mask])
        if curve.is_upper_bound():
            bad = (qhat[mask] - dkw) > vals + upper_slack
        else:
            bad = (qhat[mask] + dkw) < vals
        verdicts.append(CurveVerdict(
            provenance=curve.provenance, passed=not bool(bad.any()),
            checked_cells=int(mask.sum()),
            violations=[float(x) for x in u[mask][bad]]))
    return CertificationResult(report=report, verdicts=verdicts)


@dataclass(frozen=True)
class SlopeEstimate:
    slope: float
    cells: int
    u_window: Tuple[float, float]


def tail_slope(report: EmpiricalTailReport, u_min: Optional[float] = None,
               min_count: int = 100) -> SlopeEstimate:
    """Least-squares log-log slope of Qhat over the trusted window: cells
    with at least min_count exceedances and u >= u_min."""
    u = report.u_grid
    qhat = report.qhat
    mask = (report.qhat_counts >= min_count) & (qhat > 0)
    if u_min is not None:
        mask &= u >= u_min
    if mask.sum() < 3:
        raise DomainError("not enough trusted cells for a slope estimate")
    x = np.log(u[mask])
    y = np.log(qhat[mask])
    slope = float(np.polyfit(x, y, 1)[0])
    return SlopeEstimate(slope=slope, cells=int(mask.sum()),
                         u_window=(float(u[mask].min()), float(u[mask].max())))


@dataclass(frozen=True)
class ConfidenceRadius:
    radius: float
    delta: float
    n: int
    attained: bool
    constant: float
    search_range: Tuple[float, float]


def confidence_radius(params: MdtParams, n: int, delta: float,
                      c: Optional[float] = None,
                      search_decades: float = 8.0) -> ConfidenceRadius:
    """Smallest u with q_bound_closed(params, sqrt(n) u) <= delta.

    The sample mean a_n of n evaluations deviates from its target by
    S_n / sqrt(n), so P(|a_n - a| > u) <= Q(sqrt(n) u) and the returned
    radius certifies coverage 1 - delta.
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if not (0 < delta <= 1):
        raise DomainError("delta must lie in (0, 1]")
    from .bounds import c1_pessimistic
    c_val = c1_pessimistic(params) if c is None else float(c)
    regime = theta_regime(params.gamma)
    v_min = max(_EE if regime == "B" else _E, params.u_star)
    sqn = math.sqrt(n)
    v_grid = np.geomspace(v_min, v_min * 10.0 ** search_decades, 4096)
    bounds = q_bound_closed(params, v_grid, c=c_val)
    ok = bounds <= delta
    rng = (v_min / sqn, float(v_grid[-1] / sqn))
    if not ok.any():
        return ConfidenceRadius(radius=math.nan, delta=delta, n=n,
                                attained=False, constant=c_val, search_range=rng)
    i = int(np.argmax(ok))
    if i == 0:
        return ConfidenceRadius(radius=v_min / sqn, delta=delta, n=n,
                                attained=True, constant=c_val, search_range=rng)
    lo, hi = v_grid[i - 1], v_grid[i]
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if q_bound_closed(params, mid, c=c_val) <= delta:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1 + 1e-9:
            break
    return ConfidenceRadius(radius=hi / sqn, delta=delta, n=n, attained=True,
                            constant=c_val, search_range=rng)


def coverage_miss_rate(params: MdtParams, n: int, radius: float, trials: int,
                       seed: int) -> float:
    """Fraction of fresh sample means whose deviation from 0 exceeds the
    radius; the law is exactly centered, so the target is 0."""
    misses = 0
    for ci, m in _chunks(trials, n):
        gen = _chunk_generator(seed, 0, ci)
        with _failure_context(seed, n, ci):
            draws = _draw_magnitudes(params, gen, (m, n))
        a_n = draws.mean(axis=1)
        misses += int(np.count_nonzero(np.abs(a_n) > radius))
    return misses / trials
