"""Samplable laws with a moderate decreasing tail.

The tail model is ``u**(-beta) * (ln u)**gamma * V(ln u)`` for u >= e.
That formula is only a tail; to simulate we complete it into a genuine
law: survival 1 on [0, u_star], then exactly proportional to the tail
formula beyond, symmetrized by an independent random sign so the law is
centered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError, NumericError
from .slowvary import (ONE, SlowlyVarying, format_num, format_sv, sv_log,
                       ufunc_into)

_E = math.e

# the random stream is read in blocks of this many 64-bit words
STREAM_BLOCK = 1 << 18

# largest |survival(quantile(q)) - q| that quantile returns
_RESIDUAL_TOL = 1e-10
_NEWTON_STEPS = 100
# quantile and the harness's sampling pipeline work through their input
# in blocks of this many draws, so the working arrays stay in cache
_BLOCK = 16384
# inverse table node k sits at g = expm1(k / scale); the last node lies
# past -ln of the smallest positive double (744.44)
_TABLE_NODES = 4096
_TABLE_G_MAX = 750.0
# cos and sin of 2 pi i / 4096: the turn that a word's top 12 bits give
_TURN = 2.0 * math.pi / 4096 * np.arange(4096)
_TURN_COS, _TURN_SIN = np.cos(_TURN), np.sin(_TURN)


@dataclass(frozen=True)
class MdtParams:
    """Tail parameters (beta, gamma, V) plus the activation point u_star.

    Do not call directly with an unchecked u_star; use :func:`make_mdt`,
    which resolves the default activation point and validates monotonicity.
    """

    beta: float
    gamma: float
    v: SlowlyVarying = ONE
    u_star: float = _E

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 2):
            raise DomainError(f"beta must be > 2, got {self.beta}")
        if not np.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite, got {self.gamma}")
        if not (np.isfinite(self.u_star) and self.u_star >= _E):
            raise DomainError(f"u_star must be >= e, got {self.u_star}")

    def describe(self) -> str:
        return (f"beta={format_num(self.beta)} gamma={format_num(self.gamma)} "
                f"V={format_sv(self.v)} u_star={self.u_star:.12g}")

    @cached_property
    def _inverse_table(self) -> "_InverseTable":
        return _InverseTable(self)


def _log_tail_y(params: MdtParams, y, slope: bool = False, work=None):
    """ln of the tail formula at y = ln u >= 1, or with slope the pair
    (ln tail, d/dy ln tail).  Unvalidated (callers check y).  work, when
    given, is laid out as sv_log's: the results are written to it, and
    nothing block-sized is allocated."""
    if work is None:
        work = (None,) * 4
    at = ufunc_into
    s = work[2] if slope else work[1]
    lv = sv_log(params.v, y, deriv=slope, work=work)
    out = at(np.subtract, lv[0] if slope else lv,
             at(np.multiply, y, params.beta, out=s), out=work[0])
    if params.gamma:
        out = at(np.add, out,
                 at(np.multiply, at(np.log, y, out=s), params.gamma, out=s),
                 out=work[0])
    if not slope:
        return out
    d = at(np.subtract, lv[1], params.beta, out=work[1])
    if params.gamma:
        d = at(np.add, d, at(np.divide, params.gamma, y, out=s), out=work[1])
    return out, d


def make_mdt(beta: float, gamma: float, v: SlowlyVarying = ONE,
             u_star: Optional[float] = None) -> MdtParams:
    """Build MdtParams, resolving the default activation point.

    The default u_star is the smallest u >= e at which the tail formula is
    <= 1 and nonincreasing from there on, located by a sign scan of the
    log-tail slope on a geometric grid followed by bisection.
    """
    probe = MdtParams(beta, gamma, v, _E)
    if u_star is None:
        y_star = _default_y_star(probe)
        u_star = float(math.exp(y_star))
    params = MdtParams(beta, gamma, v, float(u_star))
    _validate_activation(params)
    return params


def _default_y_star(probe: MdtParams) -> float:
    ys = np.geomspace(1.0, 400.0, 4096)
    slopes = _log_tail_y(probe, ys, slope=True)[1]
    pos = np.flatnonzero(slopes > 0)
    if pos.size == 0:
        y0 = 1.0
    else:
        i = pos[-1]
        if i + 1 >= ys.size:
            raise NumericError("tail formula still increasing at the scan edge",
                               {"y_max": float(ys[-1])})
        y0 = _bisect(lambda y: _log_tail_y(probe, y, slope=True)[1] <= 0,
                     float(ys[i]), float(ys[i + 1]), 1e-15)
    if _log_tail_y(probe, y0) <= 0:
        return max(1.0, y0)
    # the peak value exceeds 1: activate where the formula drops back to 1
    y_hi = y0 + 1.0
    while _log_tail_y(probe, y_hi) > 0:
        y_hi *= 2.0
        if y_hi > 1e6:
            raise NumericError("tail formula never drops below 1", {"y": y_hi})
    return _bisect(lambda y: _log_tail_y(probe, y) <= 0, y0, y_hi, 1e-15)


def _bisect(ok, lo: float, hi: float, rel: float) -> float:
    """Geometric bisection of a bracket 0 < lo <= hi with ok(lo) false
    and ok(hi) true, until hi / lo <= 1 + rel or the midpoint is an end.
    Returns hi, the side where ok holds."""
    while hi / lo > 1 + rel:
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            break
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _validate_activation(params: MdtParams) -> None:
    y_star = math.log(params.u_star)
    if _log_tail_y(params, y_star) > 1e-9:
        raise DomainError(
            f"tail formula exceeds 1 at u_star={params.u_star:g}; pick a larger u_star")
    ys = np.geomspace(y_star, max(400.0, 4 * y_star), 2048)
    if np.any(_log_tail_y(params, ys, slope=True)[1] > 1e-9):
        raise DomainError(
            f"tail formula is not nonincreasing beyond u_star={params.u_star:g}")


class _InverseTable:
    """Monotone table of (g, y) with g = -ln S(y): the start and bracket of
    quantile's Newton step for every law without a closed-form inverse.

    Node k sits at g = expm1(k / scale), so the node below a target is
    found by arithmetic instead of a search.  Each node's y is solved
    once, by the safeguarded Newton loop, and its g is then recomputed
    from that y, so every (g, y) pair is exact.
    """

    def __init__(self, params: MdtParams):
        y_star = math.log(params.u_star)
        l_star = _log_tail_y(params, y_star)
        y_max = y_star + _TABLE_G_MAX / params.beta
        while l_star - _log_tail_y(params, y_max) < _TABLE_G_MAX:
            y_max = y_star + 2.0 * (y_max - y_star)
            if y_max > 1e6:
                raise NumericError("tail formula too flat to invert",
                                   {"law": params.describe(), "y": y_max})
        self.scale = (_TABLE_NODES - 1) / math.log1p(_TABLE_G_MAX)
        g = np.expm1(np.arange(_TABLE_NODES) / self.scale)
        y = np.minimum(y_star + g / params.beta, y_max)
        target = l_star - g
        tol = 1e-13 * (1.0 + np.abs(target))
        f = _newton(params, target, y, y_star, y_max, tol)
        if not np.all(np.abs(f) <= tol):
            raise NumericError("inverse table failed to converge",
                               {"law": params.describe()})
        self.g = l_star - _log_tail_y(params, y)
        self.y = y
        self.slope = np.diff(y) / np.diff(self.g)
        # rounding moves a target at most one node off its computed index
        k = np.arange(y.size)
        self.lo = y[np.maximum(k - 1, 0)]
        self.hi = y[np.minimum(k + 2, y.size - 1)]

    def start(self, g: np.ndarray, k=None, y=None, work=(None, None)):
        """The node index k below g, and linear interpolation y at g.

        Written to k (intp) and y when given, with the two arrays in
        work as scratch, all shaped like g and apart from it."""
        t = np.log1p(g, out=work[0])
        t *= self.scale
        # the cast to intp truncates t >= 0, as astype does
        k = np.minimum(t, self.y.size - 2, out=k, dtype=np.intp,
                       casting="unsafe")
        y = np.take(self.y, k, out=y, mode="clip")
        d = np.subtract(g, np.take(self.g, k, out=work[0], mode="clip"),
                        out=work[0])
        d *= np.take(self.slope, k, out=work[1], mode="clip")
        y += d
        return k, y


def _newton(params: MdtParams, target: np.ndarray, y: np.ndarray,
            lo, hi, f_tol: np.ndarray, f=None) -> np.ndarray:
    """Safeguarded Newton on f(y) = log tail(y) - target, which decreases
    in y, until |f| <= f_tol.

    Works in place on the start y, whose residuals f are computed unless
    given; lo and hi (arrays like y, or scalars) bracket the roots, and a
    step that leaves the bracket becomes a bisection.  Returns the
    residual f of each y's last evaluation.
    """
    if f is None:
        f = _log_tail_y(params, y) - target
    idx = np.flatnonzero(np.abs(f) > f_tol)
    lo = np.broadcast_to(lo, y.shape)[idx]
    hi = np.broadcast_to(hi, y.shape)[idx]
    for _ in range(_NEWTON_STEPS):
        if idx.size == 0:
            break
        ya, fa = y[idx], f[idx]
        lo = np.where(fa > 0, ya, lo)
        hi = np.where(fa < 0, ya, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            y_new = ya - fa / _log_tail_y(params, ya, slope=True)[1]
        y_new = np.where((y_new > lo) & (y_new < hi), y_new, 0.5 * (lo + hi))
        y[idx] = y_new
        fa = _log_tail_y(params, y_new) - target[idx]
        f[idx] = fa
        keep = np.abs(fa) > f_tol[idx]
        idx, lo, hi = idx[keep], lo[keep], hi[keep]
    return f


def tail_formula(params: MdtParams, u):
    """u**(-beta) (ln u)**gamma V(ln u), defined for u >= e.  Un-clamped."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise DomainError("tail_formula requires finite u")
    if np.any(u_arr < _E * (1 - 1e-12)):
        raise DomainError("tail_formula requires u >= e")
    out = np.exp(_log_tail_y(params, np.log(np.maximum(u_arr, _E))))
    return float(out) if out.ndim == 0 else out


def survival(params: MdtParams, u):
    """P(|xi| > u): 1 on [0, u_star], proportional to the tail formula beyond."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr < 0):
        raise DomainError("survival requires finite u >= 0")
    y = np.log(np.maximum(u_arr, params.u_star))
    out = _log_tail_y(params, y) - _log_tail_y(params, math.log(params.u_star))
    out = np.exp(np.minimum(out, 0.0))
    return float(out) if out.ndim == 0 else out


def quantile(params: MdtParams, q):
    """Inverse survival: the u with survival(u) = q, for q in (0, 1].

    Solves for y = ln u against the target g = -ln q, vectorized over q.
    For the pure power law (gamma = 0, constant V) the start is the exact
    inverse y = y_star + g / beta.  Every other law in the grammar starts
    from linear interpolation in a monotone table of (-ln S(y), y), built
    once per law and cached on the params, and takes one Newton step for
    all draws at once.  Either way each stage is written into one
    workspace per block, and a block is accepted whole when its largest
    log-space residual passes the strictest per-draw test.  Otherwise the
    draws that fail their own test resume the safeguarded loop: Newton
    with bisection inside a bracket (for a tabled law, of table nodes).
    Each draw's last residual is its post-check: NumericError, with the
    law and the worst q, unless every |survival(u) - q| <= 1e-10.
    """
    q_arr = np.asarray(q, dtype=float)
    flat = q_arr.reshape(-1)
    out = np.empty_like(flat)
    worst_err, worst_q = 0.0, 1.0
    for i in range(0, flat.size, _BLOCK):
        err, q_at = _quantile_block(params, flat[i:i + _BLOCK], out[i:i + _BLOCK])
        if not err <= worst_err:
            worst_err, worst_q = err, q_at
    if not worst_err <= _RESIDUAL_TOL:
        raise NumericError("quantile failed to reach tolerance",
                           {"law": params.describe(), "q": worst_q,
                            "max_abs_err": worst_err})
    return float(out[0]) if q_arr.ndim == 0 else out.reshape(q_arr.shape)


def _f_tol(q: np.ndarray) -> np.ndarray:
    """Per-draw bound on the log-space residual f: |S - q| = q |expm1(f)|,
    so 1e-13 in probability; the clamp keeps it finite at subnormal q."""
    return 1e-13 / np.maximum(q, 1e-13 / 0.3) + 3e-15


# a bound on q |expm1(f)| over q in (0, 1] and |f| <= _f_tol(q): the
# largest value, 1.166e-13, is at q = 1e-13 / 0.3, where the clamp starts
_PASSED_ERR = 1.2e-13


def _pure_power(params: MdtParams) -> bool:
    """gamma = 0 and a constant V: the law whose quantile has a closed form."""
    return params.gamma == 0 and params.v.a == 0 and params.v.b == 0


def _quantile_block(params: MdtParams, q: np.ndarray, out: np.ndarray):
    """quantile on one block, written to out.  Returns a bound on the
    largest residual and a q; whenever the bound misses _RESIDUAL_TOL they
    are the largest residual itself and its q.

    Every stage goes through one workspace with y in out, two rows for a
    pure power law and seven for a tabled law, so the block allocates no
    other block-sized array unless its largest residual fails the test.
    """
    q_max = q.max()
    if not (q.min() > 0 and q_max <= 1):
        raise DomainError("quantile requires q in (0, 1]")
    y_star = math.log(params.u_star)
    pure = _pure_power(params)
    work = np.empty((2 if pure else 7, q.size))
    target = np.log(q, out=work[0])
    if pure:
        y = np.divide(target, -params.beta, out=out)
        y += y_star
        target += _log_tail_y(params, y_star)
        f = _log_tail_y(params, y, work=(work[1],) * 2)
        f -= target
    else:
        table = params._inverse_table
        # g = -target in the row f0 takes next
        k, y0 = table.start(np.negative(target, out=work[3]),
                            work[1].view(np.intp), work[2], work[5:7])
        target += _log_tail_y(params, y_star)
        f0, slope = _log_tail_y(params, y0, slope=True, work=work[3:7])
        f0 -= target
        # f decreases on [y_star, inf), so any y there that passes the
        # residual test is a root; a NaN from a vanishing slope fails it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y = np.divide(f0, slope, out=out)
            np.subtract(y0, y, out=y)
            np.maximum(y, y_star, out=y)
            f = _log_tail_y(params, y, work=work[4:6])
            f -= target
    err = math.inf
    f_max = max(f.max(), -f.min())
    # within f_tol at q = 1, its smallest value, every draw passes; a NaN
    # fails
    if f_max <= 1e-13 + 3e-15:
        err = math.expm1(f_max)
    elif pure:
        f = _newton(params, target, y, y_star,
                    y_star + _TABLE_G_MAX / params.beta, _f_tol(q))
    else:
        f_tol = _f_tol(q)
        bad = np.flatnonzero(~(np.abs(f) <= f_tol))
        if bad.size:
            # the safeguarded loop's first step from y0 is this step
            # whenever it lands inside the bracket that f0 narrows:
            # resume the loop there, or else from y0
            y0, f0 = y0[bad], f0[bad]
            lo = np.where(f0 > 0, y0, table.lo[k[bad]])
            hi = np.where(f0 < 0, y0, table.hi[k[bad]])
            inside = (y[bad] > lo) & (y[bad] < hi)
            y_bad = np.where(inside, y[bad], y0)
            f[bad] = _newton(params, target[bad], y_bad, lo, hi, f_tol[bad],
                             np.where(inside, f[bad], f0))
            y[bad] = y_bad
        if np.all(np.abs(f[bad]) <= f_tol[bad]):
            err = _PASSED_ERR
    # |S - q| = q |expm1(f)|: at most expm1(max |f|) for an accepted
    # block, or _PASSED_ERR when every draw passed its own test; each
    # draw's residual only where the bound misses, so an error names the
    # worst q
    q_at = float(q_max)
    if not err <= _RESIDUAL_TOL:
        errs = q * np.abs(np.expm1(f))
        worst = int(np.argmax(errs))
        err, q_at = float(errs[worst]), float(q[worst])
    np.exp(y, out=out)
    if q_max == 1.0:
        out[q == 1.0] = params.u_star
    return err, q_at


def stream_words(seed: int, block: int, count: int) -> np.ndarray:
    """The first count raw uint64 words of block `block` of the seed's
    random stream: PCG64DXSM keyed by SeedSequence([seed, block]).  Each
    block is its own generator, so any block can be read without the
    ones before it, and blocks of one seed, like those of two seeds, are
    independent streams."""
    return np.random.PCG64DXSM(np.random.SeedSequence([seed, block])).random_raw(count)


def word_uniforms(words: np.ndarray, out=None) -> np.ndarray:
    """q = ((r >> 11) + 1) * 2**-53 for each word r: the top 53 bits as a
    uniform on (0, 1], exactly the values 1 - Generator.random() takes.
    Written to out (float64, shaped like words) when given."""
    if out is None:
        out = np.empty(words.shape)
    bits = np.right_shift(words, np.uint64(11), out=out.view(np.uint64))
    bits += np.uint64(1)
    # at most 2**53, so exact as int64, which converts faster than uint64
    return np.multiply(bits.view(np.int64), 2.0 ** -53, out=out)


def sign_by_words(x: np.ndarray, words: np.ndarray, out=None) -> np.ndarray:
    """x (nonnegative, contiguous) negated where the word's low bit is
    set, in place or written to out, which may be the words themselves: a
    bit word_uniforms does not read, so sign and magnitude are
    independent."""
    out = x if out is None else out
    np.bitwise_or(x.view(np.uint64), words << np.uint64(63),
                  out=out.view(np.uint64))
    return out


def rotate_by_words(x: np.ndarray, words: np.ndarray):
    """x cos(2 pi q) and x sin(2 pi q), q = word_uniforms(words), for x
    (float64) and the words contiguous and of one shape: the first
    written over the words, the second over x, both returned.

    No libm call: q = i 2**-12 + j 2**-53 exactly, with i = r >> 52 and
    j = ((r >> 11) & (2**41 - 1)) + 1.  The cos and sin of the turn
    2 pi i / 4096 come from a table, those of delta = 2 pi j 2**-53 <=
    1.54e-3 from 1 - delta**2/2 + delta**4/24 and delta (1 - delta**2/6 +
    delta**4/120), whose truncation error is below 1e-19, and angle
    addition joins them.  The words are worked through in blocks of
    _BLOCK in one workspace, so the loop makes no temporaries.
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
    from .harness import _draws  # the harness imports this module
    return _draws(params, words)
