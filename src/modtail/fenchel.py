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
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class GeneratingFunction:
    """psi(p) on [2, b), with provenance metadata."""

    b: float
    fn: Callable[[np.ndarray], np.ndarray]
    provenance: str = "custom-grid"

    def __post_init__(self):
        if self.b <= 2:
            raise DomainError(f"generating function needs b > 2, got b={self.b}")

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
        return cls(b=b, fn=lambda p: np.full_like(np.asarray(p, float), c),
                   provenance="custom-grid")

    @classmethod
    def from_grid(cls, p_grid: Sequence[float], values: Sequence[float],
                  b: float) -> "GeneratingFunction":
        """Log-linear interpolation through (p, psi) grid points."""
        p_grid = np.asarray(p_grid, dtype=float)
        logv = np.log(np.asarray(values, dtype=float))

        def fn(p):
            return np.exp(np.interp(p, p_grid, logv))

        return cls(b=b, fn=fn)


def _objective(psi: GeneratingFunction, p, y):
    return p * (y - np.log(psi(p)))


def _refine_grid(psi: GeneratingFunction, n: int = 256) -> np.ndarray:
    """Grid on [2, b - delta]: geometrically refined toward b, where the
    natural envelopes steepen, plus a uniform component so interpolated
    generating functions are resolved everywhere."""
    gaps = np.geomspace(DELTA_P, psi.b - 2.0, n)
    geo = np.clip(psi.b - gaps, 2.0, psi.p_max)
    uni = np.linspace(2.0, psi.p_max, 64)
    return np.unique(np.concatenate([geo, uni]))


@dataclass(frozen=True)
class FenchelPoint:
    """The transform and its argmax: floats for a scalar y, else arrays
    of y's shape."""

    value: Union[float, np.ndarray]
    argmax: Union[float, np.ndarray]


def _refine_brackets(psi: GeneratingFunction, y: np.ndarray, a: np.ndarray,
                     b: np.ndarray) -> np.ndarray:
    """Golden-section maxima of the objective on the brackets [a, b], all
    at once; a bracket narrower than 1e-10 is frozen while the others
    shrink."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc, gd = _objective(psi, c, y), _objective(psi, d, y)
    live = b - a > 1e-10
    while live.any():
        left = gc >= gd          # the maximum lies in [a, d]
        a, b = np.where(live & ~left, c, a), np.where(live & left, d, b)
        c, d = (np.where(left, b - _INVPHI * (b - a), d),
                np.where(left, c, a + _INVPHI * (b - a)))
        g_new = _objective(psi, np.where(left, c, d), y)
        gc, gd = np.where(left, g_new, gd), np.where(left, gc, g_new)
        live = b - a > 1e-10
    return 0.5 * (a + b)


def fenchel(psi: GeneratingFunction, y) -> FenchelPoint:
    """sup_p [p y - p ln psi(p)] over [2, b - delta], for a scalar y or an
    array of y.

    One grid scan of every y, followed by golden-section refinement (1e-10
    in p) of the bracket around every grid local maximum of every y (both
    ends included, and so the grid argmax), all brackets together;
    interpolated generating functions can make the objective multimodal,
    so refining only the best cell is not enough.  A refined point
    replaces the grid best only when its value is larger.  A scalar y
    gives a FenchelPoint of floats, an array y one of arrays of its shape.
    """
    y_arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y_arr)):
        raise DomainError("fenchel requires finite y")
    ys = y_arr.reshape(-1)
    ps = _refine_grid(psi)
    vals = _objective(psi, ps, ys[:, None])
    rows = np.arange(ys.size)
    best = np.argmax(vals, axis=1)
    best_val, best_arg = vals[rows, best], ps[best]
    cand = np.zeros(vals.shape, dtype=bool)
    cand[:, 1:-1] = (vals[:, 1:-1] >= vals[:, :-2]) & (vals[:, 1:-1] >= vals[:, 2:])
    cand[:, [0, -1]] = True
    r, i = np.nonzero(cand)
    p_opt = _refine_brackets(psi, ys[r], ps[np.maximum(i - 1, 0)],
                             ps[np.minimum(i + 1, ps.size - 1)])
    # per y, the first candidate (in p order) with the largest value
    refined = np.full(vals.shape, -np.inf)
    refined[r, i] = _objective(psi, p_opt, ys[r])
    at = np.zeros(vals.shape)
    at[r, i] = p_opt
    j = np.argmax(refined, axis=1)
    better = refined[rows, j] > best_val
    best_val = np.where(better, refined[rows, j], best_val)
    best_arg = np.where(better, at[rows, j], best_arg)
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
