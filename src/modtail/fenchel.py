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
from typing import Callable, Optional, Sequence

import numpy as np

from .distribution import MdtParams
from .errors import DomainError
from .moments import DELTA_P, MomentCurve, natural_psi

_E = math.e
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class GeneratingFunction:
    """psi(p) on [2, b), with provenance metadata."""

    b: float
    fn: Callable[[np.ndarray], np.ndarray]
    provenance: str = "custom-grid"
    delta: float = DELTA_P

    def __post_init__(self):
        if self.b <= 2:
            raise DomainError(f"generating function needs b > 2, got b={self.b}")

    def __call__(self, p):
        return self.fn(np.asarray(p, dtype=float))

    @property
    def p_max(self) -> float:
        return self.b - self.delta

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


def _objective(psi: GeneratingFunction, y: float):
    def g(p):
        return p * (y - np.log(psi(p)))
    return g


def _refine_grid(psi: GeneratingFunction, n: int = 256) -> np.ndarray:
    """Grid on [2, b - delta]: geometrically refined toward b, where the
    natural envelopes steepen, plus a uniform component so interpolated
    generating functions are resolved everywhere."""
    gaps = np.geomspace(psi.delta, psi.b - 2.0, n)
    geo = np.clip(psi.b - gaps, 2.0, psi.p_max)
    uni = np.linspace(2.0, psi.p_max, 64)
    return np.unique(np.concatenate([geo, uni]))


@dataclass(frozen=True)
class FenchelPoint:
    value: float
    argmax: float


def _golden(g, a: float, b: float) -> float:
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc, gd = g(c), g(d)
    while b - a > 1e-10:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = g(d)
    return 0.5 * (a + b)


def fenchel(psi: GeneratingFunction, y: float,
            grid: Optional[np.ndarray] = None) -> FenchelPoint:
    """sup_p [p y - p ln psi(p)] over [2, b - delta].

    Grid scan followed by golden-section refinement (1e-10 in p) of the
    bracket around every local maximum; interpolated generating functions
    can make the objective multimodal, so refining only the best cell is
    not enough.
    """
    if not np.isfinite(y):
        raise DomainError("fenchel requires finite y")
    g = _objective(psi, y)
    ps = _refine_grid(psi) if grid is None else grid
    vals = np.asarray(g(ps), dtype=float)
    interior = np.nonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
    candidates = set(int(i) for i in interior)
    candidates.update((0, ps.size - 1, int(np.argmax(vals))))
    best_val = float(vals.max())
    best_arg = float(ps[int(np.argmax(vals))])
    for i in sorted(candidates):
        a = float(ps[max(i - 1, 0)])
        b = float(ps[min(i + 1, ps.size - 1)])
        if b <= a:
            continue
        p_opt = _golden(g, a, b)
        val = float(g(p_opt))
        if val > best_val:
            best_val, best_arg = val, float(p_opt)
    return FenchelPoint(value=best_val, argmax=best_arg)


@dataclass(frozen=True, eq=False)
class FenchelCurve:
    """nu*(y) and its argmax p*(y) on a y-grid."""

    psi: GeneratingFunction
    y_grid: np.ndarray
    values: np.ndarray
    p_star: np.ndarray

    @classmethod
    def compute(cls, psi: GeneratingFunction, y_grid: Sequence[float]) -> "FenchelCurve":
        y_grid = np.asarray(y_grid, dtype=float)
        grid = _refine_grid(psi)
        pts = [fenchel(psi, y, grid=grid) for y in y_grid]
        return cls(psi=psi, y_grid=y_grid,
                   values=np.array([pt.value for pt in pts]),
                   p_star=np.array([pt.argmax for pt in pts]))

    def to_csv(self, path, header_extra: str = "") -> None:
        rows = np.column_stack([self.y_grid, self.values, self.p_star])
        header = (f"# modtail fenchel curve ({self.psi.provenance}, b={self.psi.b:g})\n"
                  f"{header_extra}y,nu_star,p_star")
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def tail_from_gls(psi: GeneratingFunction, norm_value: float, z: float) -> float:
    """exp(-nu*(ln(z/k))) clamped to [0, 1], for z/k >= e."""
    if not (np.isfinite(norm_value) and norm_value > 0):
        raise DomainError(f"GLS norm must be positive, got {norm_value}")
    ratio = z / norm_value
    if ratio < _E * (1 - 1e-12):
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


def gls_norm_empirical(values: np.ndarray, psi: GeneratingFunction,
                       p_grid: Sequence[float]) -> NormResult:
    """Plug-in GLS norm from data: sample p-moments to the 1/p over psi."""
    values = np.abs(np.asarray(values, dtype=float))
    if values.size < 1000:
        raise DomainError("empirical GLS norm needs at least 1000 samples")
    ps = np.asarray(p_grid, dtype=float)
    ratios = np.array([np.mean(values ** p) ** (1.0 / p) for p in ps]) / psi(ps)
    i = int(np.argmax(ratios))
    return NormResult(value=float(ratios[i]), arg_p=float(ps[i]))


def empirical_p_cap(params: MdtParams, psi: GeneratingFunction) -> float:
    """Default grid cap for empirical norms: heavy-tail p-moment estimators
    blow up near beta, so stay half a unit below."""
    return min(psi.p_max, params.beta - 0.5)
