"""Monte Carlo simulation and certification of the tail bounds.

Estimates Qhat(u) = max over an n-grid of empirical tails of the
normalized sums, wraps it in a uniform DKW confidence band, and checks
every bound curve against it.  The sup over all n is truncated to the
plan's n-grid; per-n curves are kept in the report so saturation can be
judged.  One chunked loop serves every statistic: chunk ci reads block
ci of the seed's block-keyed stream, one 64-bit word per draw, so
results do not depend on how many lanes run the chunks.  The caller is
lane 0; the others are children forked by os.fork, not multiprocessing,
for one call and reaped before it returns, min(threads, usable CPUs,
chunks) lanes in all, so no lane waits on another's GIL (see _run; Linux
only).  One pipeline turns a chunk's words into signed draws, in blocks
of distribution._BLOCK words small enough to stay in cache: the block's
uniforms go to a workspace buffer allocated once per chunk, quantile
gives their magnitudes (for every law, the whole block accepted on its
largest log-space residual; every law's stages go through one workspace
per block), and the sign from the same words is set as the draws are
written over those words.  So the chunk's words are its only chunk-sized
array: a second one, allocated and freed per chunk, made the allocator
hand memory back and fault it in again every chunk.  Each replication
draws one block of n_max draws and every S_n on the n-grid is a prefix
sum of it; the tails share draws, so the DKW level is split over the
n-grid.  A chunk of m replications lays its draws out with n outermost:
the k-th draw of replication r is word k m + r.  So each prefix sum is a
run of vector adds over contiguous rows of m; laid out by replication,
the field's short rows cost an inner loop per segment and row.

The field supremum calls no libm trig, and works in blocks in one
workspace too.  Its chunk of m replications of J components reads
2 n_max m J words: first the amplitude words, then the phase words,
each laid out (n, replication, component), so the k-th draw of
component c of replication r and its phase are words (k m + r) J + c
and n_max m J plus that.  A phase word r gives q = i 2**-12 + j 2**-53
exactly, with i = r >> 52 and j = ((r >> 11) & (2**41 - 1)) + 1: the
cos and sin of 2 pi i / 4096 come from a table, those of 2 pi j 2**-53
<= 1.54e-3 from series whose truncation error is below 1e-19, and angle
addition joins them (distribution.rotate_by_words).  The max over the z-grid
runs over half of it: the grid k / M is symmetric under z -> 1 - z, so
it is the max of |P| + |Q| over k <= M / 2 (see simulate_field).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import TailCurve, _constant, closed_u_min, q_bound_closed
from .distribution import (_BLOCK, STREAM_BLOCK, MdtParams, _bisect, quantile,
                           rotate_by_words, sign_by_words, stream_words,
                           word_uniforms)
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
    dkw_delta: float
    budget: int
    threads: int

    def __post_init__(self):
        if (not self.n_grid or list(self.n_grid) != sorted(set(self.n_grid))
                or self.n_grid[0] < 1):
            raise DomainError("n_grid must be strictly increasing positive ints")
        if self.reps < 1000:
            raise DomainError("reps must be >= 1000")
        if self.u_grid.size == 0:
            raise DomainError("u_grid must not be empty")

    def echo(self) -> Dict:
        return {"params": self.params.describe(), "n_grid": list(self.n_grid),
                "reps": self.reps, "seed": self.seed, "dkw_delta": self.dkw_delta,
                "u_grid": [float(u) for u in self.u_grid]}


def default_u_grid(params: MdtParams, points: int = 64,
                   u_min: Optional[float] = None,
                   u_max: Optional[float] = None) -> np.ndarray:
    """Geometric grid of points cells from max(u_min, u_star) to u_max,
    by default the 1e-4 quantile of the single-draw envelope, so the
    highest cell still expects reps * 1e-4 exceedances."""
    lo = params.u_star if u_min is None else max(u_min, params.u_star)
    hi = quantile(params, 1e-4) if u_max is None else u_max
    if points < 1 or not lo <= hi < math.inf:
        raise DomainError(f"u-grid needs at least one point on a finite range, "
                          f"got {points} points on [{lo:g}, {hi:g}]")
    return np.geomspace(lo, hi, points)


def write_json(path, payload: Dict) -> None:
    """payload as JSON with indent 2, sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _start_lane(fn, arg):
    """Fork a child that computes fn(arg): (its pid, the read end of the
    pipe it writes the pickled (True, fn(arg)) or (False, the exception
    raised) to).  The child inherits fn, so nothing but the result is
    pickled, and leaves by os._exit: it runs none of the caller's atexit
    handlers and flushes none of its buffered output a second time."""
    recv, send = os.pipe()
    pid = os.fork()
    if pid:
        os.close(send)
        return pid, recv
    status = 1
    try:
        try:
            result = (True, fn(arg))
        except Exception as exc:
            result = (False, exc)
        with open(send, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _run(seed: int, reps: int, per_rep: int, n: int, threads: int,
         statistic: Callable[[np.ndarray, int], np.ndarray]):
    """Sum statistic(words, m) over the chunks of reps replications.

    Chunk ci holds m replications and reads the first m * per_rep words
    of block ci of the seed's stream; a NumericError names the seed, the
    chunk and n.  The chunks run in min(threads, usable CPUs, chunks)
    lanes, lane k taking chunks k, k + lanes, ...: the caller runs lane
    0, and each other lane is a child forked for this call, which
    inherits statistic and sends back through its own pipe only its
    lane's sum or the exception it raised.  A child that sends nothing
    is an error naming how it ended; a failed call sends every child
    SIGTERM, and every child is reaped before the call returns or
    raises.  The statistic must be integer-valued (counts), so the sum
    does not depend on the lane count.  Linux only: forking and
    os.sched_getaffinity both need it.  Fork, not spawn: a spawned child
    could not receive the closure statistic and would import numpy and
    modtail again on every call.  os.fork and os.pipe, not
    multiprocessing, whose import and Process and Pipe objects cost
    every import and call time.  A fork copies the calling thread only,
    which is safe while no other thread of the caller holds a lock the
    lanes take; modtail starts no thread.  Threads in one process would
    not do: the GIL, handed back and forth around each block's short
    numpy calls, keeps the second CPU nearly idle.
    """

    def run(chunk):
        ci, m = chunk
        try:
            return statistic(stream_words(seed, ci, m * per_rep), m)
        except NumericError as exc:
            exc.diagnostics.update(seed=seed, n=n, chunk=ci)
            raise

    def lane(k):
        return sum(map(run, chunks[k::lanes]))

    chunks = _chunks(reps, per_rep)
    # more lanes than usable CPUs or than chunks only add contention
    lanes = min(threads, len(os.sched_getaffinity(0)), len(chunks))
    children = []
    try:
        for k in range(1, lanes):
            children.append(_start_lane(lane, k))
        total = lane(0)
        for pid, recv in children:
            with open(recv, "rb", closefd=False) as pipe:
                sent = pipe.read()
            if not sent:
                # left a zombie for the finally to reap, so no pid is reused
                end = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                how = "code" if end.si_code == os.CLD_EXITED else "signal"
                raise RuntimeError(f"a sampling lane ended with {how} "
                                   f"{end.si_status} and no result")
            ok, value = pickle.loads(sent)
            if not ok:
                raise value
            total = total + value
        return total
    except BaseException:
        # the call fails: what the other lanes would send is not needed
        for pid, _ in children:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid, recv in children:
            os.waitpid(pid, 0)
            os.close(recv)


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
    """Unnormalized partial sums over axis 1 of x (k, n_max, ...) at each
    n of the grid: the segment sums between consecutive grid points,
    accumulated as a running sum."""
    out = np.empty(x.shape[:1] + (len(n_grid),) + x.shape[2:])
    lo = 0
    for g, n in enumerate(n_grid):
        s = np.add.reduce(x[:, lo:n], axis=1, out=out[:, g])
        if g:
            s += out[:, g - 1]
        lo = n
    return out


def _tail_counts(stat: np.ndarray, u_grid: np.ndarray) -> np.ndarray:
    """Exceedance counts above each u of each row of stat (G, m)."""
    rows = np.sort(stat, axis=1)
    return np.array([rows.shape[1] - np.searchsorted(r, u_grid, side="right")
                     for r in rows])


def simulate(plan: SimulationPlan) -> EmpiricalTailReport:
    """Empirical tails of |S_n| on the u-grid for every n in the plan.

    Each replication draws one block of n_max draws and every S_n is a
    prefix sum of it (common random numbers across the n-grid).
    """
    n_max = plan.n_grid[-1]
    _check_budget(plan, n_max)
    scale = 1.0 / np.sqrt(plan.n_grid)[:, None]

    def statistic(words, m):
        x = _draws(plan.params, words).reshape(1, n_max, m)
        return _tail_counts(np.abs(_prefix_sums(x, plan.n_grid)[0]) * scale,
                            plan.u_grid)

    counts = _run(plan.seed, plan.reps, n_max, n_max, plan.threads, statistic)
    return EmpiricalTailReport(plan=plan, counts=counts)


def simulate_field(model: FieldModel, plan: SimulationPlan) -> EmpiricalTailReport:
    """Same pipeline with the per-replication statistic max over the
    z-grid of |Y_n(z)|; each draw of a component takes a second word for
    its phase."""
    n_max, j_count = plan.n_grid[-1], model.n_components
    _check_budget(plan, n_max * j_count)
    # Y_n(z) = P - Q and Y_n(1 - z) = P + Q, with P = sum_j w_j A_j
    # cos(2 pi j z), Q = sum_j w_j B_j sin(2 pi j z) and (A_j, B_j) the
    # partial sums of xi cos(phase) and xi sin(phase), over sqrt(n); the
    # fold needs sin exactly 0 at z = 0 and z = 1/2
    k = np.arange(model.resolution // 2 + 1)
    angle = 2.0 * math.pi * np.outer(np.arange(1, j_count + 1), model.z_grid()[k])
    w = np.asarray(model.weights, dtype=float)[:, None]
    cos, sin = w * np.cos(angle), w * np.sin(angle)
    sin[:, 2 * k % model.resolution == 0] = 0.0
    scale = 1.0 / np.sqrt(plan.n_grid)[:, None]

    def statistic(words, m):
        words = words.reshape(2, n_max, m * j_count)
        # xi sin(phase) over the amplitude words, xi cos(phase) over the
        # phase words; the sums' rows run over (n-grid point, replication)
        rotate_by_words(_draws(plan.params, words[0]), words[1])
        sums = _prefix_sums(words.view(np.float64),
                            plan.n_grid).reshape(2, -1, j_count)
        # row blocks keep each product in cache
        stat = np.concatenate([
            (np.abs(sums[1, i:i + 1024] @ cos) + np.abs(sums[0, i:i + 1024] @ sin))
            .max(axis=1) for i in range(0, sums.shape[1], 1024)])
        return _tail_counts(stat.reshape(-1, m) * scale, plan.u_grid)

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
        write_json(path, self.summary())


def certify(report: EmpiricalTailReport,
            curves: Sequence[TailCurve]) -> CertificationResult:
    """Check Qhat against each curve with the report's DKW envelope.

    Upper bounds must satisfy Qhat - dkw <= curve(u); the lower witness
    must satisfy Qhat + dkw >= curve(u).  Cells below a curve's domain
    are skipped; a curve left with no cell fails, as it checked nothing.
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
            provenance=curve.provenance, passed=bool(mask.any() and not bad.any()),
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
    c_val = _constant(params, c)
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
    v = _bisect(lambda v: q_bound_closed(params, v, c=c_val) <= delta,
                float(v_grid[i - 1]), float(v_grid[i]), 1e-9)
    return ConfidenceRadius(radius=v / sqn, delta=delta, n=n, attained=True,
                            constant=c_val, search_range=rng)


def coverage_miss_rate(params: MdtParams, n: int, radius: float, trials: int,
                       seed: int) -> float:
    """Fraction of fresh sample means whose deviation from 0 exceeds the
    radius; the law is exactly centered, so the target is 0."""

    def statistic(words, m):
        a_n = _draws(params, words).reshape(m, n).mean(axis=1)
        return int(np.count_nonzero(np.abs(a_n) > radius))

    # every usable CPU: the lane count never changes the count
    return _run(seed, trials, n, n, len(os.sched_getaffinity(0)),
                statistic) / trials
