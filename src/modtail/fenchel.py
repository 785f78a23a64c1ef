"""Grand Lebesgue norms and the regional Young-Fenchel transform.

A generating function psi(p) on [2, b) defines the norm
sup_p ||x||_p / psi(p).  Membership with norm k gives the optimized
Chebyshev tail bound

    P(|x| > z) <= inf_p (k psi(p) / z)**p = exp(-nu*(ln(z/k)))

where nu(p) = p ln psi(p) and nu* is its conjugate restricted to
[2, b - delta].  The sup is always computed on the closed working
interval [2, b - delta]; truncating the right end only lowers nu*, so
the resulting tail bound stays valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .distribution import MdtParams
from .errors import DomainError, in_domain
from .moments import DELTA_P, MomentCurve, natural_psi

_E = math.e


@dataclass(frozen=True, eq=False)
class GeneratingFunction:
    """psi(p) on [2, b), with provenance metadata."""

    b: float
    fn: Callable[[np.ndarray], np.ndarray]
    provenance: str = "custom-grid"

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 2):
            raise DomainError(f"generating function needs a finite b > 2, got b={self.b}")

    def __call__(self, p):
        return self.fn(np.asarray(p, dtype=float))

    @property
    def p_max(self) -> float:
        return self.b - DELTA_P

    @classmethod
    def from_theta(cls, params: MdtParams) -> "GeneratingFunction":
        """The analytic envelope generating function theta**(1/p)."""
        return cls(b=params.beta, fn=lambda p: natural_psi(params, p),
                   provenance="analytic-theta")

    @classmethod
    def from_constant(cls, c: float, b: float) -> "GeneratingFunction":
        if not (math.isfinite(c) and c > 0):
            raise DomainError(f"generating function needs a finite c > 0, got c={c}")
        return cls(b=b, fn=lambda p: np.full_like(np.asarray(p, float), c),
                   provenance="custom-grid")

    @classmethod
    def from_grid(cls, p_grid: Sequence[float], values: Sequence[float],
                  b: float) -> "GeneratingFunction":
        """Log-linear interpolation through (p, psi) grid points."""
        p_grid, values = np.asarray(p_grid, float), np.asarray(values, float)
        if not np.all(np.isfinite(values) & (values > 0)):
            raise DomainError("grid values must be finite and > 0")
        if not (np.all(np.isfinite(p_grid)) and np.all(np.diff(p_grid) > 0)):
            raise DomainError("grid knots must be finite and strictly increasing")
        logv = np.log(values)

        def fn(p):
            return np.exp(np.interp(p, p_grid, logv))

        return cls(b=b, fn=fn)


def _objective(psi: GeneratingFunction, p, y):
    return p * (y - np.log(psi(p)))


def _refine_grid(psi: GeneratingFunction) -> np.ndarray:
    """Grid on [2, b - delta]: geometrically refined toward b, where the
    natural envelopes steepen, plus a uniform component so interpolated
    generating functions are resolved everywhere."""
    gaps = np.geomspace(DELTA_P, psi.b - 2.0, 256)
    geo = np.clip(psi.b - gaps, 2.0, psi.p_max)
    uni = np.linspace(2.0, psi.p_max, 64)
    return np.unique(np.concatenate([geo, uni]))


@dataclass(frozen=True)
class FenchelPoint:
    """The transform and its argmax: floats for a scalar y, else arrays
    of y's shape."""

    value: Union[float, np.ndarray]
    argmax: Union[float, np.ndarray]


def _refine_brackets(psi: GeneratingFunction, y, a, b, p, g):
    """fenchel's narrowing of the brackets [a, b], each from its point p
    of value g, all updated in place: the best point seen, and its value."""
    live = np.flatnonzero(b - a > 1e-10)
    while live.size:
        # np.linspace(a, b, 9, axis=1) without its per-call overhead
        pts = a[live, None] + np.arange(9.0) * ((b[live] - a[live]) / 8)[:, None]
        pts[:, -1] = b[live]
        val = _objective(psi, pts, y[live, None])
        rows, k = np.arange(live.size), np.argmax(val, axis=1)
        up = val[rows, k] > g[live]
        p[live[up]], g[live[up]] = pts[rows, k][up], val[rows, k][up]
        a[live] = pts[rows, np.maximum(k - 1, 0)]
        b[live] = pts[rows, np.minimum(k + 1, 8)]
        live = live[b[live] - a[live] > 1e-10]
    return p, g


def fenchel(psi: GeneratingFunction, y) -> FenchelPoint:
    """sup_p [p y - p ln psi(p)] over [2, b - delta], for a scalar y or an
    array of y.

    One grid scan of every y, then every grid local maximum of every y
    (both ends included) is refined, all together: each step evaluates 9
    equal points of its two-cell bracket and keeps the two cells around
    the best, until that bracket alone is narrower than 1e-10 in p.
    Interpolated generating functions can make the objective multimodal,
    so refining only the best cell is not enough.  Per y the best point
    seen wins, the first candidate in p order on a tie.  A scalar y gives
    a FenchelPoint of floats, an array y one of arrays of its shape.
    """
    y_arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y_arr)):
        raise DomainError("fenchel requires finite y")
    ys = y_arr.reshape(-1)
    ps = _refine_grid(psi)
    vals = _objective(psi, ps, ys[:, None])
    cand = np.zeros(vals.shape, dtype=bool)
    cand[:, 1:-1] = (vals[:, 1:-1] >= vals[:, :-2]) & (vals[:, 1:-1] >= vals[:, 2:])
    cand[:, [0, -1]] = True
    r, i = np.nonzero(cand)
    p_opt, g_opt = _refine_brackets(psi, ys[r], ps[np.maximum(i - 1, 0)],
                                    ps[np.minimum(i + 1, ps.size - 1)],
                                    ps[i], vals[r, i])
    # per y (r is sorted), the best candidate; lexsort keeps p order on ties
    order = np.lexsort((-g_opt, r))
    first = order[np.searchsorted(r, np.arange(ys.size))]
    best_val, best_arg = g_opt[first], p_opt[first]
    if y_arr.ndim == 0:
        return FenchelPoint(value=float(best_val[0]), argmax=float(best_arg[0]))
    return FenchelPoint(value=best_val.reshape(y_arr.shape),
                        argmax=best_arg.reshape(y_arr.shape))


@dataclass(frozen=True, eq=False)
class FenchelCurve:
    """nu*(y) and its argmax p*(y) on a y-grid."""

    y_grid: np.ndarray
    values: np.ndarray
    p_star: np.ndarray

    @classmethod
    def compute(cls, psi: GeneratingFunction, y_grid: Sequence[float]) -> "FenchelCurve":
        y_grid = np.asarray(y_grid, dtype=float)
        pt = fenchel(psi, y_grid)
        return cls(y_grid=y_grid, values=pt.value, p_star=pt.argmax)


def tail_from_gls(psi: GeneratingFunction, norm_value: float, z: float) -> float:
    """exp(-nu*(ln(z/k))) clamped to [0, 1], for z/k >= e."""
    if not (np.isfinite(norm_value) and norm_value > 0):
        raise DomainError(f"GLS norm must be positive, got {norm_value}")
    ratio = z / norm_value
    if not in_domain(ratio, _E):
        raise DomainError("tail_from_gls requires z >= e * norm")
    val = fenchel(psi, math.log(ratio)).value
    return float(np.clip(math.exp(-val), 0.0, 1.0))


@dataclass(frozen=True)
class NormResult:
    value: float
    arg_p: float


def gls_norm_from_moments(curve: MomentCurve, psi: GeneratingFunction) -> NormResult:
    """sup over the curve's p-grid of moment**(1/p) / psi(p)."""
    if curve.p_grid.size == 0:
        raise DomainError("empty p-grid")
    keep = curve.p_grid <= psi.p_max + 1e-12
    if not np.any(keep):
        raise DomainError("no grid point inside the generating function domain")
    ps = curve.p_grid[keep]
    ratios = curve.values[keep] ** (1.0 / ps) / psi(ps)
    i = int(np.argmax(ratios))
    return NormResult(value=float(ratios[i]), arg_p=float(ps[i]))
