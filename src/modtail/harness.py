"""Monte Carlo simulation and certification of the tail bounds.

Estimates Qhat(u) = max over an n-grid of empirical tails of the
normalized sums, wraps it in a uniform DKW confidence band, and checks
every bound curve against it.  The sup over all n is truncated to the
plan's n-grid; per-n curves are kept in the report so saturation can be
judged.  One chunked loop serves every statistic: chunk ci reads block
ci of the seed's counter-based stream, one 64-bit word per draw, so
results do not depend on the worker count.  One pipeline turns a
chunk's words into signed draws, in blocks of distribution._BLOCK words
small enough to stay in cache: the block's uniforms go to a workspace
buffer allocated once per chunk, quantile gives their magnitudes (for
the pure power law in place, the whole block accepted on its largest
log-space residual), and the sign from the same words is set as the
draws are written over those words.  So the chunk's words are its only
chunk-sized array: a second one, allocated and freed per chunk, made
the allocator hand memory back and fault it in again every chunk.  Each
replication draws one block of n_max draws and every S_n on the n-grid
is a prefix sum of it; the tails share draws, so the DKW level is split
over the n-grid.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import TailCurve, c1_pessimistic, closed_u_min, q_bound_closed
from .distribution import (_BLOCK, STREAM_BLOCK, MdtParams, quantile,
                           sign_by_words, stream_words, word_uniforms)
from .entropy import FieldModel
from .errors import DomainError, NumericError
from ._version import __version__ as _version

DEFAULT_N_GRID = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
DEFAULT_BUDGET = 10 ** 9


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
        if (not self.n_grid or list(self.n_grid) != sorted(set(self.n_grid))
                or self.n_grid[0] < 1):
            raise DomainError("n_grid must be strictly increasing positive ints")
        if self.reps < 1000:
            raise DomainError("reps must be >= 1000")

    def total_draws(self) -> int:
        return self.reps * self.n_grid[-1]

    def echo(self) -> Dict:
        return {"params": self.params.describe(), "n_grid": list(self.n_grid),
                "reps": self.reps, "seed": self.seed, "dkw_delta": self.dkw_delta,
                "u_grid": [float(u) for u in self.u_grid]}


def default_u_grid(params: MdtParams, points: int = 64) -> np.ndarray:
    """Geometric grid from u_star to the 1e-4 quantile of the single-draw
    envelope, so the highest cell still expects reps * 1e-4 exceedances."""
    return np.geomspace(params.u_star, quantile(params, 1e-4), points)


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
        """Half-width of the band that holds for every n-grid tail at once
        with probability 1 - dkw_delta: the tails share draws, so the
        level is split over the grid (Bonferroni)."""
        return dkw_halfwidth(self.plan.reps,
                             self.plan.dkw_delta / len(self.plan.n_grid))

    def to_csv(self, path, header_extra: str = "") -> None:
        cols = ["u"] + [f"tail_n{n}" for n in self.plan.n_grid] + ["qhat", "dkw"]
        rows = np.column_stack([self.u_grid, self.tails.T, self.qhat,
                                np.full_like(self.qhat, self.dkw)])
        header = (f"# modtail simulation report v{_version}\n"
                  f"# {self.plan.params.describe()}\n"
                  f"# seed={self.plan.seed} reps={self.plan.reps} "
                  f"statistic={self.statistic}\n"
                  f"# dkw joint level={1 - self.plan.dkw_delta:g} "
                  f"split over {len(self.plan.n_grid)} n: "
                  f"delta_n={self.plan.dkw_delta / len(self.plan.n_grid):g}\n"
                  f"{header_extra}" + ",".join(cols))
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def _check_budget(plan: SimulationPlan, per_rep_draws: int) -> None:
    total = plan.reps * per_rep_draws
    if total > plan.budget:
        suggested = plan.budget // max(per_rep_draws, 1)
        raise DomainError(
            f"plan needs {total} draws, over the budget {plan.budget}; "
            f"reduce reps to <= {suggested} or raise the budget")


def _chunks(reps: int, per_rep: int) -> List[Tuple[int, int]]:
    """Deterministic chunk layout: (index, replications) pairs of about
    STREAM_BLOCK words each, fixed by (reps, per_rep) alone, so results
    never depend on the worker count."""
    size = max(1, STREAM_BLOCK // per_rep)
    return [(ci, min(size, reps - start))
            for ci, start in enumerate(range(0, reps, size))]


def _run(seed: int, reps: int, per_rep: int, n: int, threads: int,
         statistic: Callable[[np.ndarray, int], np.ndarray]):
    """Sum statistic(words, m) over the chunks of reps replications.

    Chunk ci holds m replications and reads the first m * per_rep words
    of block ci of the seed's stream; a NumericError names the seed, the
    chunk and n.
    """

    def run(chunk):
        ci, m = chunk
        try:
            return statistic(stream_words(seed, ci, m * per_rep), m)
        except NumericError as exc:
            exc.diagnostics.update(seed=seed, n=n, chunk=ci)
            raise

    chunks = _chunks(reps, per_rep)
    # more workers than usable CPUs or than chunks only add contention
    workers = min(threads, len(os.sched_getaffinity(0)), len(chunks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(run, chunks))
    return sum(map(run, chunks))


def _draws(params: MdtParams, words: np.ndarray) -> np.ndarray:
    """Signed draws of the law from stream words (contiguous), one word
    each: the block pipeline the module docstring describes.  The draws
    are written over the words, which it consumes, and returned as
    float64 of their shape."""
    flat = words.reshape(-1)
    q = np.empty(min(_BLOCK, flat.size))
    for i in range(0, flat.size, _BLOCK):
        w = flat[i:i + _BLOCK]
        sign_by_words(quantile(params, word_uniforms(w, out=q[:w.size])), w,
                      out=w.view(np.float64))
    return flat.view(np.float64).reshape(words.shape)


def _prefix_sums(x: np.ndarray, n_grid: Sequence[int]) -> np.ndarray:
    """Unnormalized partial sums over axis 1 of x (replications, n_max,
    ...) at each n of the grid: the segment sums between consecutive
    grid points, accumulated."""
    starts = np.array((0,) + tuple(n_grid[:-1]))
    return np.cumsum(np.add.reduceat(x, starts, axis=1), axis=1)


def _tail_counts(stat: np.ndarray, u_grid: np.ndarray) -> np.ndarray:
    """Exceedance counts above each u of each column of stat (m, G)."""
    cols = np.sort(stat, axis=0).T
    return np.array([len(c) - np.searchsorted(c, u_grid, side="right")
                     for c in cols])


def simulate(plan: SimulationPlan) -> EmpiricalTailReport:
    """Empirical tails of |S_n| on the u-grid for every n in the plan.

    Each replication draws one block of n_max draws and every S_n is a
    prefix sum of it (common random numbers across the n-grid).
    """
    n_max = plan.n_grid[-1]
    _check_budget(plan, n_max)
    scale = 1.0 / np.sqrt(plan.n_grid)

    def statistic(words, m):
        x = _draws(plan.params, words).reshape(m, n_max)
        return _tail_counts(np.abs(_prefix_sums(x, plan.n_grid)) * scale,
                            plan.u_grid)

    counts = _run(plan.seed, plan.reps, n_max, n_max, plan.threads, statistic)
    return EmpiricalTailReport(plan=plan, counts=counts)


def simulate_field(model: FieldModel, plan: SimulationPlan) -> EmpiricalTailReport:
    """Same pipeline with the per-replication statistic max over the
    z-grid of |Y_n(z)|; each draw of a component takes a second word for
    its phase."""
    n_max, j_count = plan.n_grid[-1], model.n_components
    _check_budget(plan, n_max * j_count)
    # Y_n(z) = sum_j w_j (A_j cos(2 pi j z) - B_j sin(2 pi j z)) / sqrt(n)
    # with (A_j, B_j) the partial sums of xi cos(phase) and xi sin(phase)
    angle = 2.0 * math.pi * np.outer(np.arange(1, j_count + 1), model.z_grid())
    w = np.asarray(model.weights, dtype=float)[:, None]
    trig = np.concatenate([w * np.cos(angle), -w * np.sin(angle)])  # (2J, M)
    scale = 1.0 / np.sqrt(plan.n_grid)

    def statistic(words, m):
        words = words.reshape(2, m, n_max, j_count)
        xi = _draws(plan.params, words[0])
        phase = word_uniforms(words[1]) * (2.0 * math.pi)
        parts = np.concatenate([xi * np.cos(phase), xi * np.sin(phase)], axis=2)
        sums = _prefix_sums(parts, plan.n_grid).reshape(-1, 2 * j_count)
        # row blocks keep each product's y in cache; one product over all
        # rows gained nothing from a second thread
        stat = np.concatenate([np.abs(sums[i:i + 1024] @ trig).max(axis=1)
                               for i in range(0, len(sums), 1024)])
        return _tail_counts(stat.reshape(m, -1) * scale, plan.u_grid)

    counts = _run(plan.seed, plan.reps, 2 * n_max * j_count, n_max,
                  plan.threads, statistic)
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


def certify(report: EmpiricalTailReport,
            curves: Sequence[TailCurve]) -> CertificationResult:
    """Check Qhat against each curve with the report's DKW envelope.

    Upper bounds must satisfy Qhat - dkw <= curve(u); the lower witness
    must satisfy Qhat + dkw >= curve(u).  Cells below a curve's domain
    are skipped.
    """
    u = report.u_grid
    qhat = report.qhat
    dkw = report.dkw
    verdicts = []
    for curve in curves:
        mask = u >= curve.u_min * (1 - 1e-12)
        vals = curve.evaluate(u[mask])
        if curve.is_upper_bound():
            bad = (qhat[mask] - dkw) > vals
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
                      c: Optional[float] = None) -> ConfidenceRadius:
    """Smallest u with q_bound_closed(params, sqrt(n) u) <= delta.

    The sample mean a_n of n evaluations deviates from its target by
    S_n / sqrt(n), so P(|a_n - a| > u) <= Q(sqrt(n) u) and the returned
    radius certifies coverage 1 - delta.  The search spans eight decades
    of sqrt(n) u from the closed-form domain; past them the radius is not
    attained.
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if not (0 < delta <= 1):
        raise DomainError("delta must lie in (0, 1]")
    c_val = c1_pessimistic(params) if c is None else float(c)
    v_min = max(closed_u_min(params), params.u_star)
    sqn = math.sqrt(n)
    v_grid = np.geomspace(v_min, v_min * 1e8, 4096)
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

    def statistic(words, m):
        a_n = _draws(params, words).reshape(m, n).mean(axis=1)
        return int(np.count_nonzero(np.abs(a_n) > radius))

    return _run(seed, trials, n, n, 1, statistic) / trials
