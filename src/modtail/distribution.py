"""Samplable laws with a moderate decreasing tail.

The tail model is ``u**(-beta) * (ln u)**gamma * V(ln u)`` for u >= e.
That formula is only a tail; to simulate we complete it into a genuine
law: survival 1 on [0, u_star], then exactly proportional to the tail
formula beyond, symmetrized by an independent random sign so the law is
centered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, NumericError
from .slowvary import (ONE, Constant, SlowlyVarying, _eval, format_sv,
                       sv_log_deriv)

_E = math.e

# one Philox counter block (4 doubles) per sample index; columns 0/1 hold
# the magnitude and sign uniforms, 2/3 are reserved so the splittable
# stream stays aligned per index
_DOUBLES_PER_INDEX = 4

# largest |survival(quantile(q)) - q| that quantile returns
_RESIDUAL_TOL = 1e-10
_NEWTON_STEPS = 100
# quantile works through its input in blocks of this many draws, so the
# kernel's working arrays stay in cache
_BLOCK = 16384
# inverse table node k sits at g = expm1(k / scale); the last node lies
# past -ln of the smallest positive double (744.44)
_TABLE_NODES = 4096
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

    def describe(self) -> str:
        return (f"beta={self.beta:g} gamma={self.gamma:g} "
                f"V={format_sv(self.v)} u_star={self.u_star:.12g}")

    @cached_property
    def _inverse_table(self) -> "_InverseTable":
        return _InverseTable(self)


def _log_tail_y(params: MdtParams, y):
    """ln of the tail formula as a function of y = ln u, y >= 1.

    Unvalidated (callers check y); a zero gamma or a Constant V costs no
    pass over y.
    """
    out = -params.beta * y
    if params.gamma:
        out = out + params.gamma * np.log(y)
    if isinstance(params.v, Constant):
        return out + math.log(params.v.c)
    return out + np.log(_eval(params.v, y))


def _log_tail_slope_y(params: MdtParams, y):
    """d/dy of the log tail formula."""
    return -params.beta + params.gamma / np.asarray(y, dtype=float) + sv_log_deriv(params.v, y)


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
    slopes = _log_tail_slope_y(probe, ys)
    pos = np.nonzero(slopes > 0)[0]
    if pos.size == 0:
        y0 = 1.0
    else:
        i = pos[-1]
        if i + 1 >= ys.size:
            raise NumericError("tail formula still increasing at the scan edge",
                               {"y_max": float(ys[-1])})
        y0 = brentq(lambda y: _log_tail_slope_y(probe, y), ys[i], ys[i + 1],
                    xtol=1e-12, rtol=1e-14)
    if _log_tail_y(probe, y0) <= 0:
        return max(1.0, y0)
    # the peak value exceeds 1: activate where the formula drops back to 1
    y_hi = y0 + 1.0
    while _log_tail_y(probe, y_hi) > 0:
        y_hi *= 2.0
        if y_hi > 1e6:
            raise NumericError("tail formula never drops below 1", {"y": y_hi})
    return brentq(lambda y: _log_tail_y(probe, y), y0, y_hi, xtol=1e-12, rtol=1e-14)


def _validate_activation(params: MdtParams) -> None:
    y_star = math.log(params.u_star)
    if _log_tail_y(params, y_star) > 1e-9:
        raise DomainError(
            f"tail formula exceeds 1 at u_star={params.u_star:g}; pick a larger u_star")
    ys = np.geomspace(y_star, max(400.0, 4 * y_star), 2048)
    if np.any(_log_tail_slope_y(params, ys) > 1e-9):
        raise DomainError(
            f"tail formula is not nonincreasing beyond u_star={params.u_star:g}")


class _InverseTable:
    """Monotone table of (g, y) with g = -ln S(y): the start and bracket of
    quantile's Newton loop for every law without a closed-form inverse.

    Node k sits at g = expm1(k / scale), so the node below a target is
    found by arithmetic instead of a search.  Each node's y is solved
    once, by the Newton loop quantile uses, and its g is then recomputed
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

    def start(self, g: np.ndarray):
        """Linear interpolation in the table at g, and a bracket of nodes."""
        t = np.log1p(g)
        t *= self.scale
        k = np.minimum(t.astype(np.intp), self.y.size - 2)
        return (self.y[k] + (g - self.g[k]) * self.slope[k],
                self.lo[k], self.hi[k])


def _newton(params: MdtParams, target: np.ndarray, y: np.ndarray,
            lo, hi, f_tol: np.ndarray) -> np.ndarray:
    """Safeguarded Newton on f(y) = log tail(y) - target, which decreases
    in y, until |f| <= f_tol.

    Works in place on the start y; lo and hi (arrays like y, or scalars)
    bracket the roots, and a step that leaves the bracket becomes a
    bisection.  Returns the residual f of each y's last evaluation.
    """
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
            y_new = ya - fa / _log_tail_slope_y(params, ya)
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


def log_survival(params: MdtParams, u):
    """ln S(u) for the completed law (0 on [0, u_star])."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr < 0):
        raise DomainError("survival requires finite u >= 0")
    y_star = math.log(params.u_star)
    y = np.log(np.maximum(u_arr, params.u_star))
    out = _log_tail_y(params, y) - _log_tail_y(params, y_star)
    out = np.minimum(out, 0.0)
    return float(out) if out.ndim == 0 else out


def survival(params: MdtParams, u):
    """P(|xi| > u): 1 on [0, u_star], proportional to the tail formula beyond."""
    out = np.exp(log_survival(params, u))
    return float(out) if np.ndim(out) == 0 else out


def quantile(params: MdtParams, q):
    """Inverse survival: the u with survival(u) = q, for q in (0, 1].

    Solves for y = ln u against the target g = -ln q, vectorized over q.
    For the pure power law (gamma = 0, constant V) the start is the exact
    inverse y = y_star + g / beta, which the first check accepts.  Every
    other law in the grammar starts from linear interpolation in a
    monotone table of (-ln S(y), y), built once per law and cached on the
    params, inside a bracket of the table nodes around the target; one
    Newton step then usually converges.  The loop is safeguarded Newton
    on the exact log-tail slope, with bisection inside the bracket.  The
    residual of each draw's last convergence check is its post-check:
    NumericError, with the law and the worst q, unless every draw has
    |survival(u) - q| <= 1e-10.
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


def _quantile_block(params: MdtParams, q: np.ndarray, out: np.ndarray):
    """quantile on one block, written to out; returns the largest residual
    and its q."""
    if not (q.min() > 0 and q.max() <= 1):
        raise DomainError("quantile requires q in (0, 1]")
    y_star = math.log(params.u_star)
    g = -np.log(q)
    if params.gamma == 0 and isinstance(params.v, Constant):
        y = y_star + g / params.beta
        lo, hi = y_star, y_star + _TABLE_G_MAX / params.beta
    else:
        y, lo, hi = params._inverse_table.start(g)
    # |S - q| = q |expm1(f)| for the log-space residual f, so this
    # tolerance delivers absolute accuracy 1e-13 in probability; the clamp
    # keeps the quotient finite at subnormal q
    f_tol = 1e-13 / np.maximum(q, 1e-13 / 0.3) + 3e-15
    f = _newton(params, _log_tail_y(params, y_star) - g, y, lo, hi, f_tol)
    err = q * np.abs(np.expm1(f))
    worst = int(np.argmax(err))
    np.exp(y, out=out)
    out[q == 1.0] = params.u_star
    return float(err[worst]), float(q[worst])


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Reproducible i.i.d. draws from the completed, symmetrized law."""

    seed: int
    offset: int
    params: MdtParams
    values: np.ndarray = field(repr=False)

    def __len__(self):
        return self.values.size

    def to_csv(self, path) -> None:
        header = (f"# modtail sample batch\n# {self.params.describe()}\n"
                  f"# seed={self.seed} offset={self.offset} n={self.values.size}\nvalue")
        np.savetxt(path, self.values, fmt="%.17g", header=header, comments="")


def _uniforms(seed: int, n: int, offset: int) -> np.ndarray:
    bitgen = np.random.Philox(key=np.uint64(seed))
    if offset:
        bitgen = bitgen.advance(offset)
    return np.random.Generator(bitgen).random((n, _DOUBLES_PER_INDEX))


def sample(params: MdtParams, seed: int, n: int, offset: int = 0) -> SampleBatch:
    """n i.i.d. draws of sign * quantile(U), U uniform on (0, 1].

    The stream is counter-based: draws for indices [offset, offset+n)
    are identical whether produced in one call or split across workers.
    """
    if n < 1:
        raise DomainError("sample requires n >= 1")
    u = _uniforms(seed, n, offset)
    mag = quantile(params, 1.0 - u[:, 0])
    sign = np.where(u[:, 1] < 0.5, -1.0, 1.0)
    return SampleBatch(seed=seed, offset=offset, params=params, values=sign * mag)


def sample_values(params: MdtParams, seed: int, n: int, offset: int = 0) -> np.ndarray:
    """Bare array version of :func:`sample` for hot loops."""
    return sample(params, seed, n, offset).values
