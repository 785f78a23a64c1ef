"""The law: a moderate decreasing tail, completed into a samplable law.

The tail model is ``u**(-beta) * (ln u)**gamma * V(ln u)`` for u >= e.
That formula is only a tail; to simulate we complete it into a genuine
law: survival 1 on [0, u_star], then exactly proportional to the tail
formula beyond, symmetrized by an independent random sign so the law is
centered.  This module is the law alone: parameters, tail, survival and
its inverse, quantile.  The random stream and the samplers are harness's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError, NumericError, in_domain
from .slowvary import ONE, SlowlyVarying, format_num, format_sv, sv_log

_E = math.e

# largest |survival(quantile(q)) - q| that quantile returns
_RESIDUAL_TOL = 1e-10
_NEWTON_STEPS = 100
# quantile and the harness's sampling pipeline work through their input
# in blocks of this many draws, so the working arrays stay in cache
_BLOCK = 16384
# inverse table node k sits at g = knee expm1(k / scale), finest near
# g = 0 where y(g) curves most; g / knee is exact for a power-of-2 knee,
# and the last node lies past -ln of the smallest positive double (744.44)
_TABLE_NODES = 5120
_TABLE_KNEE = 0.25
_TABLE_G_MAX = 750.0


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

    def describe(self, resolved: bool = True) -> str:
        u_star = f"{self.u_star:.12g}" if resolved else "unresolved"
        return (f"beta={format_num(self.beta)} gamma={format_num(self.gamma)} "
                f"V={format_sv(self.v)} u_star={u_star}")

    @cached_property
    def log_tail_star(self) -> float:
        """ln tail(u_star), the law's normalizer: S = tail / tail(u_star)."""
        return _log_tail_y(self, math.log(self.u_star))

    @cached_property
    def _inverse_table(self) -> "_InverseTable":
        return _InverseTable(self)


def _log_tail_y(params: MdtParams, y, slope: bool = False, work=(None, None)):
    """ln of the tail formula at y = ln u >= 1, or with slope the pair
    (ln tail, d/dy ln tail).  Unvalidated (callers check y).  On the
    value path each step is a ufunc written to work, two arrays laid out
    as sv_log's, when given, so nothing block-sized is allocated;
    otherwise each step makes a new result."""
    val, s = (None, None) if slope else work
    lv = sv_log(params.v, y, deriv=slope, work=work)
    out = np.subtract(lv[0] if slope else lv,
                      np.multiply(y, params.beta, out=s), out=val)
    if params.gamma:
        out = np.add(out, np.multiply(np.log(y, out=s), params.gamma, out=s),
                     out=val)
    if not slope:
        return out
    d = np.subtract(lv[1], params.beta)
    if params.gamma:
        d = np.add(d, np.divide(params.gamma, y))
    return out, d


def make_mdt(beta: float, gamma: float, v: SlowlyVarying = ONE,
             u_star: Optional[float] = None) -> MdtParams:
    """Build MdtParams, resolving the default activation point.

    The default u_star is the smallest u >= e at which the tail formula is
    <= 1 and nonincreasing from there on, located by a sign scan of the
    log-tail slope on a geometric grid, then narrowed by _first_true.
    """
    probe = MdtParams(beta, gamma, v, _E)
    if u_star is None:
        y_star = _default_y_star(probe)
        u_star = float(math.exp(y_star))
    params = MdtParams(beta, gamma, v, float(u_star))
    _validate_activation(params)
    return params


def _default_y_star(probe: MdtParams) -> float:
    law = probe.describe(resolved=False)
    ys = np.geomspace(1.0, 400.0, 4096)
    pos = np.flatnonzero(_log_tail_y(probe, ys, slope=True)[1] > 0)
    if pos.size and pos[-1] + 1 >= ys.size:
        raise NumericError("tail formula still increasing at the scan edge",
                           {"law": law, "y_max": float(ys[-1])})

    def ok(y):  # past the last rise, and the formula at most 1
        value, slope = _log_tail_y(probe, y, slope=True)
        return (slope <= 0) & (value <= 0)
    y = _first_true(ok, float(ys[pos[-1]]) if pos.size else 1.0, 1e6, 1e-15)
    if y is None:
        raise NumericError("tail formula never drops below 1",
                           {"law": law, "y": 1e6})
    return y


def _first_true(ok, lo: float, hi: float, rel: float) -> Optional[float]:
    """The point where a monotone test turns true on 0 < lo <= hi: the
    package's one threshold search.  ok maps a float, or an array of
    points, to booleans.  Returns lo itself when ok(lo) holds, and else
    None when ok(hi) fails; otherwise one vectorized call a step keeps the
    first of 64 equal cells where ok holds, until hi / lo <= 1 + rel or no
    double lies strictly inside, so any rel >= 0 ends, and returns hi."""
    if ok(lo):
        return lo
    if not ok(hi):
        return None
    while hi / lo > 1 + rel and math.nextafter(lo, hi) < hi:
        grid = np.linspace(lo, hi, 65)
        k = 1 + int(np.argmax(np.append(ok(grid[1:-1]), True)))
        lo, hi = float(grid[k - 1]), float(grid[k])
    return hi


def _validate_activation(params: MdtParams) -> None:
    if params.log_tail_star > 1e-9:
        raise DomainError(
            f"tail formula exceeds 1 at u_star={params.u_star:g}; pick a larger u_star")
    y_star = math.log(params.u_star)
    ys = np.geomspace(y_star, max(400.0, 4 * y_star), 2048)
    if np.any(_log_tail_y(params, ys, slope=True)[1] > 1e-9):
        raise DomainError(
            f"tail formula is not nonincreasing beyond u_star={params.u_star:g}")


class _InverseTable:
    """Monotone table of (g, y) with g = -ln S(y): quantile's start and
    bracket for every law without a closed-form inverse.

    Node k sits at g = knee expm1(k / scale), so the node below g is
    found by arithmetic instead of a search.  Each node's y is solved
    once, by the safeguarded Newton loop, and its g is then recomputed
    from that y, so every (g, y) pair is exact.  Interval k holds the
    cubic Hermite coefficients y, c1, c2, c3 in d = g - g_k, from the
    exact nodal slopes dy/dg = -1 / (d ln tail / dy), or the chord where
    that cubic fails the Fritsch-Carlson monotonicity test, as where the
    slope vanishes at u_star.
    """

    def __init__(self, params: MdtParams):
        y_star, l_star = math.log(params.u_star), params.log_tail_star
        y_max = y_star + _TABLE_G_MAX / params.beta
        while l_star - _log_tail_y(params, y_max) < _TABLE_G_MAX:
            y_max = y_star + 2.0 * (y_max - y_star)
            if y_max > 1e6:
                raise NumericError("tail formula too flat to invert",
                                   {"law": params.describe(), "y": y_max})
        self.scale = (_TABLE_NODES - 1) / math.log1p(_TABLE_G_MAX / _TABLE_KNEE)
        g = _TABLE_KNEE * np.expm1(np.arange(_TABLE_NODES) / self.scale)
        y = np.minimum(y_star + g / params.beta, y_max)
        target = l_star - g
        tol = 1e-13 * (1.0 + np.abs(target))
        f = _newton(params, target, y, y_star, y_max, tol)
        if not np.all(np.abs(f) <= tol):
            raise NumericError("inverse table failed to converge",
                               {"law": params.describe()})
        lt, dl = _log_tail_y(params, y, slope=True)
        self.g, self.y = l_star - lt, y
        h = np.diff(self.g)
        s = np.diff(y) / h
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            m = -1.0 / np.broadcast_to(dl, y.shape)
            a, b = m[:-1] / s, m[1:] / s
            cubic = (a >= 0) & (b >= 0) & (a * a + b * b <= 9.0)
            self.c1 = np.where(cubic, m[:-1], s)
            self.c2 = np.where(cubic, (3.0 - 2.0 * a - b) * s / h, 0.0)
            self.c3 = np.where(cubic, (a + b - 2.0) * s / (h * h), 0.0)
        # rounding moves a target at most one node off its computed index
        k = np.arange(y.size)
        self.lo = y[np.maximum(k - 1, 0)]
        self.hi = y[np.minimum(k + 2, y.size - 1)]

    def start(self, g: np.ndarray, k=None, y=None, work=(None, None)):
        """The node index k below g and interval k's cubic at g, by Horner
        on one gathered coefficient at a time (gathering a row of four per
        draw is slower); to k (intp) and y when given, with the arrays in
        work as scratch, all shaped like g and apart from it."""
        t = np.log1p(np.multiply(g, 1.0 / _TABLE_KNEE, out=work[0]), out=work[0])
        t *= self.scale
        # the cast to intp truncates t >= 0, as astype does
        k = np.minimum(t, self.y.size - 2, out=k, dtype=np.intp,
                       casting="unsafe")
        d = np.subtract(g, np.take(self.g, k, out=work[0], mode="clip"),
                        out=work[0])
        y = np.take(self.c3, k, out=y, mode="clip")
        for c in (self.c2, self.c1, self.y):
            y *= d
            y += np.take(c, k, out=work[1], mode="clip")
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
    if not np.all(in_domain(u_arr, _E)):
        raise DomainError("tail_formula requires u >= e")
    out = np.exp(_log_tail_y(params, np.log(np.maximum(u_arr, _E))))
    return float(out) if out.ndim == 0 else out


def survival(params: MdtParams, u):
    """P(|xi| > u): 1 on [0, u_star], proportional to the tail formula beyond."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr < 0):
        raise DomainError("survival requires finite u >= 0")
    y = np.log(np.maximum(u_arr, params.u_star))
    out = _log_tail_y(params, y) - params.log_tail_star
    out = np.exp(np.minimum(out, 0.0))
    return float(out) if out.ndim == 0 else out


def quantile(params: MdtParams, q):
    """Inverse survival: the u with survival(u) = q, for q in (0, 1].

    Solves for y = ln u against the target g = -ln q, vectorized over q.
    For the pure power law (gamma = 0, constant V) the start is the exact
    inverse y = y_star + g / beta.  Every other law in the grammar starts
    from the cubic Hermite interpolant of a monotone table of
    (-ln S(y), y), built once per law and cached on the params, clamped
    at y_star.  Either way each stage is written into one workspace per
    block, the start's residual is evaluated once, and a block is
    accepted whole when its largest log-space residual passes the
    strictest per-draw test; its error is then bounded by that residual.
    Otherwise the draws that fail their own test go, from their start
    and its residual, to one safeguarded loop: Newton with bisection
    inside a bracket (of table nodes for a tabled law), and the block's
    error is each draw's own |survival(u) - q|.  NumericError, with the
    law and the worst q, unless every error is <= 1e-10.
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


def _pure_power(params: MdtParams) -> bool:
    """gamma = 0 and a constant V: the law whose quantile has a closed form."""
    return params.gamma == 0 and params.v.a == 0 and params.v.b == 0


def _quantile_block(params: MdtParams, q: np.ndarray, out: np.ndarray):
    """quantile on one block, written to out.  Returns a bound on the
    largest residual and a q; whenever the bound misses _RESIDUAL_TOL they
    are the largest residual itself and its q.

    Every stage goes through one workspace with y in out, two rows for a
    pure power law and five for a tabled law, so the block allocates no
    other block-sized array unless its largest residual fails the test;
    then its failing draws, and only they, go to one _newton call.
    """
    # argmax and argmin cost less per call than a ufunc reduction, and
    # also return the first NaN, which then fails the range test
    q_max = q[q.argmax()]
    if not (q[q.argmin()] > 0 and q_max <= 1):
        raise DomainError("quantile requires q in (0, 1]")
    y_star = math.log(params.u_star)
    pure = _pure_power(params)
    work = np.empty((2 if pure else 5, q.size))
    target = np.log(q, out=work[0])
    if pure:
        # the exact inverse is both the start and the answer
        y = np.multiply(target, -1.0 / params.beta, out=out)
        y += y_star
        f_work = (work[1],) * 2
    else:
        table = params._inverse_table
        # g = -target in the row f takes next
        k, y = table.start(np.negative(target, out=work[2]),
                           work[1].view(np.intp), out, work[3:5])
        # f decreases on [y_star, inf): any y there that passes is a root
        np.maximum(y, y_star, out=y)
        f_work = work[2:4]
    target += params.log_tail_star
    f = _log_tail_y(params, y, work=f_work)
    f -= target
    err = math.inf
    f_max = max(f[f.argmax()], -f[f.argmin()])
    # within f_tol at q = 1, its smallest value, every draw passes; a NaN
    # fails
    if f_max <= 1e-13 + 3e-15:
        err = math.expm1(f_max)
    else:
        f_tol = _f_tol(q)
        bad = np.flatnonzero(~(np.abs(f) <= f_tol))
        lo, hi = ((y_star, y_star + _TABLE_G_MAX / params.beta) if pure
                  else (table.lo[k[bad]], table.hi[k[bad]]))
        y_bad = y[bad]
        f[bad] = _newton(params, target[bad], y_bad, lo, hi, f_tol[bad],
                         f[bad])
        y[bad] = y_bad
    # |S - q| = q |expm1(f)|: at most expm1(max |f|) for an accepted
    # block; each draw's residual, in the target's row, for a block that
    # fell back, or where that bound misses, so an error names the worst q
    q_at = float(q_max)
    if not err <= _RESIDUAL_TOL:
        errs = np.abs(np.expm1(f, out=work[0]), out=work[0])
        errs *= q
        worst = int(np.argmax(errs))
        err, q_at = float(errs[worst]), float(q[worst])
    np.exp(y, out=out)
    if q_max == 1.0:
        out[q == 1.0] = params.u_star
    return err, q_at
