"""The random stream, every sampler that reads it, certification, and
the two result-file writers, write_json and write_csv.

The stream: block b of seed s is the raw 64-bit words of SFC64 keyed by
SeedSequence([s, b]), read STREAM_BLOCK words at a time, so no block
needs the ones before it.  A draw takes one word r: its uniform
q = 1 - (r >> 12) 2**-52 on (0, 1], from the bits alone (word_uniforms),
goes through quantile to the magnitude, and its low bit, which q does
not read, is the sign (sign_by_words).  A field draw's second word r gives
its phase q = ((r >> 11) + 1) 2**-53 = i 2**-12 + j 2**-53 exactly, with
i = r >> 52 and j = ((r >> 11) & (2**41 - 1)) + 1: the cos and sin of
the turn 2 pi i / 4096 come from a table, those of delta = 2 pi j 2**-53
<= 1.54e-3 from series whose truncation error is below 1e-19, and angle
addition joins them (rotate_by_words), with no libm call.

One pipeline, _draws, turns words into signed draws in blocks of
distribution._BLOCK words, small enough to stay in cache, and writes
them, sign bits first, over the words, so no second array as large is
made.  sample reads draw i from word offset + i.  simulate, simulate_field
and coverage_miss_rate run one chunked loop, _run: chunk ci reads block
ci, so results do not depend on how many lanes run the chunks; lane 0 is
the caller, the others children forked for one call (Linux only).

simulate estimates Qhat(u) = max over an n-grid of empirical tails of
the normalized sums, and certify checks every bound curve against it
with a uniform DKW band.  The sup over all n is truncated to the n-grid;
per-n tails are kept so saturation can be judged.  Each replication
draws one block of n_max draws and every S_n is a prefix sum of it; the
tails share draws, so the DKW level is split over the n-grid.  A chunk
of m replications lays its draws out with n outermost, draw k of
replication r at word k m + r, so each prefix sum is a run of vector
adds over contiguous rows.  simulate_field's chunk of m replications of
J components reads 2 n_max m J words, amplitudes then phases, each laid
out (n, replication, component): draw k of component c of replication r
is word (k m + r) J + c, and its phase n_max m J words on.  Its max over
the z-grid runs over half of it, k <= M / 2 (see simulate_field).
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
from .distribution import _BLOCK, MdtParams, _first_true, quantile
from .entropy import FieldModel
from .errors import DomainError, NumericError, in_domain
from ._version import __version__ as _version

DEFAULT_N_GRID = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
DEFAULT_BUDGET = 10 ** 9
# the random stream is read in blocks of this many 64-bit words
STREAM_BLOCK = 1 << 18
# cos and sin of 2 pi i / 4096: the turn that a word's top 12 bits give
_TURN = 2.0 * math.pi / 4096 * np.arange(4096)
_TURN_COS, _TURN_SIN = np.cos(_TURN), np.sin(_TURN)


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
        if self.threads < 1:
            raise DomainError("threads must be >= 1")
        if not 0 < self.dkw_delta < 1:
            raise DomainError("dkw_delta must lie in (0, 1)")

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


def write_csv(path, header: str, columns: Dict[str, np.ndarray]) -> None:
    """The named columns as CSV: the header ("#" lines, each ending in a
    newline), the row of names, then the values in %.17g; commas between."""
    np.savetxt(path, np.column_stack(list(columns.values())), fmt="%.17g",
               delimiter=",", header=header + ",".join(columns), comments="")


def make_plan(params: MdtParams, seed: int,
              n_grid: Sequence[int] = DEFAULT_N_GRID, reps: int = 10 ** 5,
              u_grid: Optional[np.ndarray] = None,
              dkw_delta: float = 1e-3, budget: int = DEFAULT_BUDGET,
              threads: int = 1) -> SimulationPlan:
    if u_grid is None:
        u_grid = default_u_grid(params)
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
        header = (f"# modtail simulation report v{_version}\n"
                  f"# {self.plan.params.describe()}\n"
                  f"# seed={self.plan.seed} reps={self.plan.reps} "
                  f"statistic={self.statistic}\n"
                  f"# dkw joint level={1 - self.plan.dkw_delta:g} "
                  f"split over {len(self.plan.n_grid)} n: "
                  f"delta_n={self.plan.dkw_delta / len(self.plan.n_grid):g}\n"
                  f"{header_extra}")
        tails = {f"tail_n{n}": t for n, t in zip(self.plan.n_grid, self.tails)}
        write_csv(path, header, {"u": self.u_grid, **tails, "qhat": self.qhat,
                                 "dkw": np.full_like(self.qhat, self.dkw)})


def stream_words(seed: int, block: int, count: int) -> np.ndarray:
    """The first count raw uint64 words of block `block` of the seed's
    random stream: SFC64 keyed by SeedSequence([seed, block]).  Each
    block is its own generator, so any block can be read without the
    ones before it, and blocks of one seed, like those of two seeds, are
    independent streams."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.SFC64(np.random.SeedSequence([seed, block])).random_raw(count)


def word_uniforms(words: np.ndarray, out=None) -> np.ndarray:
    """q = 2 - x = 1 - (r >> 12) 2**-52, exactly, on (0, 1] for each word r,
    with x in [1, 2) the double whose mantissa is r's top 52 bits.
    Written to out (float64, shaped like words) when given."""
    if out is None:
        out = np.empty(words.shape)
    bits = np.right_shift(words, np.uint64(12), out=out.view(np.uint64))
    bits |= np.uint64(0x3FF0000000000000)
    return np.subtract(2.0, bits.view(np.float64), out=out)


def sign_by_words(x: np.ndarray, words: np.ndarray) -> np.ndarray:
    """x (nonnegative float64, shaped like the words) negated where the
    word's low bit is set, written over the words and returned as their
    float64 view: a bit word_uniforms does not read, so sign and
    magnitude are independent."""
    sign = np.left_shift(words, np.uint64(63), out=words)
    np.bitwise_or(x.view(np.uint64), sign, out=words)
    return words.view(np.float64)


def rotate_by_words(x: np.ndarray, words: np.ndarray):
    """x cos(2 pi q) and x sin(2 pi q), q the phase of each word r, for x
    (float64) and the words contiguous and of one shape: the first
    written over the words, the second over x, both returned.

    The phase-word decode of the module docstring, with cos delta =
    1 - delta**2/2 + delta**4/24 and sin delta = delta (1 - delta**2/6 +
    delta**4/120).  The words are worked through in blocks of _BLOCK in
    one workspace, so the loop makes no temporaries.
    """
    flat, xf = words.reshape(-1), x.reshape(-1)
    out = flat.view(np.float64)
    work = np.empty((4, min(_BLOCK, flat.size)))
    for s in range(0, flat.size, _BLOCK):
        r, xb, c = flat[s:s + _BLOCK], xf[s:s + _BLOCK], out[s:s + _BLOCK]
        a, t, b, cd = (w[:r.size] for w in work)
        bits = np.right_shift(r, np.uint64(11), out=a.view(np.uint64))
        bits &= np.uint64((1 << 41) - 1)
        bits += np.uint64(1)
        d = np.multiply(bits.view(np.int64), 2.0 * math.pi * 2.0 ** -53, out=a)
        i = np.right_shift(r, np.uint64(52), out=t.view(np.uint64)).view(np.intp)
        # the word is read, so its slot c takes sin delta
        d2 = np.multiply(d, d, out=b)
        np.multiply(d2, 1.0 / 24.0, out=cd)
        cd -= 0.5
        cd *= d2
        cd += 1.0
        np.multiply(d2, 1.0 / 120.0, out=c)
        c -= 1.0 / 6.0
        c *= d2
        c *= d
        c += d
        # x cos(turn) to a, x sin(turn) to b, then angle addition
        np.take(_TURN_COS, i, out=a, mode="clip")
        np.take(_TURN_SIN, i, out=b, mode="clip")
        a *= xb
        b *= xb
        np.multiply(b, cd, out=xb)
        np.multiply(a, c, out=t)
        xb += t
        c *= b
        np.multiply(a, cd, out=t)
        np.subtract(t, c, out=c)
    return out.reshape(words.shape), x


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

    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
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
        sign_by_words(quantile(params, word_uniforms(w, out=q[:w.size])), w)
    return flat.view(np.float64).reshape(words.shape)


def sample(params: MdtParams, seed: int, n: int, offset: int = 0) -> np.ndarray:
    """n i.i.d. draws of sign * quantile(q), q uniform on (0, 1].

    Draw i takes its sign and magnitude from word offset + i of the
    seed's stream, read in fixed blocks of STREAM_BLOCK words, so the
    draws for indices [offset, offset+n) are identical whether produced
    in one call or split across calls.
    """
    if n < 1:
        raise DomainError("sample requires n >= 1")
    if offset < 0:
        raise DomainError("sample requires offset >= 0")
    blocks = range(offset // STREAM_BLOCK, (offset + n - 1) // STREAM_BLOCK + 1)
    words = np.concatenate([stream_words(seed, b, STREAM_BLOCK) for b in blocks])
    # a copy: the draws are written over it, and must not pin the blocks
    words = words[offset % STREAM_BLOCK:][:n].copy()
    return _draws(params, words)


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
    its phase.  The plan's law must be the field's, model.params."""
    model.check_law(plan.params)
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
    must satisfy Qhat + dkw >= curve(u); a NaN value satisfies neither.
    Cells below a curve's domain are skipped; a curve left with no cell
    fails, as it checked nothing.
    """
    u = report.u_grid
    qhat = report.qhat
    dkw = report.dkw
    verdicts = []
    for curve in curves:
        mask = in_domain(u, curve.u_min)
        vals = curve.evaluate(u[mask])
        if curve.is_upper_bound():
            bad = ~(qhat[mask] - dkw <= vals)
        else:
            bad = ~(qhat[mask] + dkw >= vals)
        verdicts.append(CurveVerdict(
            provenance=curve.provenance, passed=bool(mask.any() and not bad.any()),
            checked_cells=int(mask.sum()),
            violations=[float(x) for x in u[mask][bad]]))
    return CertificationResult(verdicts=verdicts)


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
    radius certifies coverage 1 - delta.  v = sqrt(n) u is searched on
    [v_min, v_min 1e8], from the closed-form domain's left end, by
    _first_true in t = ln v to 1e-12 relative (at most 1e-9 in v while
    t < 1000): v_min itself, not exp(ln v_min), where the bound holds
    there, and not attained (NaN) where it exceeds delta at the right end.
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if not (0 < delta <= 1):
        raise DomainError("delta must lie in (0, 1]")
    c_val = _constant(params, c)
    v_min = max(closed_u_min(params), params.u_star)
    sqn = math.sqrt(n)
    t_min, t_max = math.log(v_min), math.log(v_min * 1e8)
    t = _first_true(lambda t: q_bound_closed(params, np.exp(t), c=c_val) <= delta,
                    t_min, t_max, 1e-12)
    v = math.nan if t is None else v_min if t == t_min else math.exp(t)
    return ConfidenceRadius(radius=v / sqn, delta=delta, n=n, attained=t is not None,
                            constant=c_val, search_range=(v_min / sqn, v_min * 1e8 / sqn))


def coverage_miss_rate(params: MdtParams, n: int, radius: float, trials: int,
                       seed: int) -> float:
    """Fraction of fresh sample means whose deviation from 0 exceeds the
    radius; the law is exactly centered, so the target is 0."""
    if not (n >= 1 and trials >= 1 and 0 <= radius < math.inf):
        raise DomainError(f"coverage needs n, trials >= 1 and a finite radius "
                          f">= 0, got n={n}, trials={trials}, radius={radius}")

    def statistic(words, m):
        a_n = _draws(params, words).reshape(m, n).mean(axis=1)
        return int(np.count_nonzero(np.abs(a_n) > radius))

    # every usable CPU: the lane count never changes the count
    return _run(seed, trials, n, n, len(os.sched_getaffinity(0)),
                statistic) / trials
