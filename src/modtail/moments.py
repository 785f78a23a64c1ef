"""Moments from tails and the three-regime theta envelope.

E|xi|**p is recovered from the survival function by one Gauss-Legendre
rule (Golub & Welsch, Math. Comp. 1969) shared by every p of a grid.  The
envelope theta(p) = h(1/(beta - p)) captures the blow-up of the p-th
moment as p approaches beta, and the closed-form shape of `bounds` is
u**(-beta) h(ln u); the regime factor h depends on the sign of gamma + 1:

    gamma > -1 : h(x) = x**(gamma+1) * V(x)
    gamma = -1 : h(x) = |ln x| * V(x)
    gamma < -1 : h(x) = V(x)

theta is floored at THETA_MIN before roots and logs: the middle regime
vanishes at beta - p = 1 although the true moment never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .distribution import MdtParams
from .errors import DomainError, NumericError
from .slowvary import sv_eval, sv_log

DELTA_P = 1e-3       # minimum gap between p and beta
THETA_MIN = 1e-8     # floor applied to theta before roots and logs
QUAD_RELTOL = 1e-8
# the tail rule: _PANELS equal panels in ln y, each with the _NODES- and
# 2 * _NODES-point Gauss-Legendre nodes; the finer sum is the value and
# its gap to the coarser one the error estimate
_PANELS, _NODES = 16, 24
_RULE = [leggauss(k) for k in (_NODES, 2 * _NODES)]
_S_SPAN = 800.0      # exp(-gap y) has underflowed past gap y_star + _S_SPAN


def theta_regime(gamma: float) -> str:
    """'A' for gamma > -1, 'B' for gamma == -1, 'C' for gamma < -1."""
    if gamma > -1:
        return "A"
    if gamma == -1:
        return "B"
    return "C"


def _envelope(params: MdtParams, x):
    """The regime factor h(x) of the module docstring, vectorized over x > 0."""
    regime = theta_regime(params.gamma)
    factor = (x ** (params.gamma + 1.0) if regime == "A"
              else np.abs(np.log(x)) if regime == "B" else 1.0)
    return factor * sv_eval(params.v, x)


def theta(params: MdtParams, p):
    """The moment envelope h(1/(beta - p)), floored at THETA_MIN.
    Vectorized over p in [2, beta)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr >= params.beta):
        raise DomainError(f"theta requires p < beta={params.beta}")
    if np.any(p_arr < 2):
        raise DomainError("theta requires p >= 2")
    out = np.maximum(_envelope(params, 1.0 / (params.beta - p_arr)), THETA_MIN)
    return float(out) if out.ndim == 0 else out


def natural_psi(params: MdtParams, p):
    """theta(p)**(1/p), the generating function induced by the envelope."""
    p_arr = np.asarray(p, dtype=float)
    out = theta(params, p_arr) ** (1.0 / p_arr)
    return float(out) if np.ndim(out) == 0 else out


def moment_from_tail(params: MdtParams, p, return_error: bool = False):
    """E|xi|**p for the completed law, vectorized over p in [0, beta - DELTA_P].

    u_star**p plus the tail integral p / S* int_{y_star}^inf exp(-gap y)
    y**gamma V(y) dy, gap = beta - p, on ln y up to gap y = gap y_star + 800.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((0 <= p) & (p <= params.beta - DELTA_P)):
        raise DomainError(
            f"moment_from_tail requires 0 <= p <= beta - {DELTA_P}, got p={p}")
    y_star = math.log(params.u_star)
    gap = params.beta - p[..., None, None]         # p's axes, then (panels, nodes)
    span = np.log1p(_S_SPAN / (gap * y_star)) / _PANELS
    sums = []
    for t, w in _RULE:   # the integrand scaled by exp(gap y_star), on ln y
        ln_y = math.log(y_star) + span * (np.arange(_PANELS)[:, None] + 0.5 * (t + 1))
        y = np.exp(ln_y)
        f = np.exp((params.gamma + 1) * ln_y - gap * (y - y_star) + sv_log(params.v, y))
        sums.append(0.5 * (span * f @ w).sum(axis=-1))
    coarse, fine = sums
    scale = p * np.exp(-(params.beta - p) * y_star - params.log_tail_star)
    moment = params.u_star ** p + scale * fine
    rel_err = scale * np.abs(fine - coarse) / moment
    if not np.all(rel_err <= 100 * QUAD_RELTOL):   # a NaN misses too
        worst = np.argmax(rel_err)
        raise NumericError("moment quadrature missed its accuracy target",
                           {"law": params.describe(), "p": float(p.flat[worst]),
                            "relative_error": float(rel_err.flat[worst])})
    if p.ndim == 0:
        moment, rel_err = float(moment), float(rel_err)
    return (moment, rel_err) if return_error else moment


@dataclass(frozen=True, eq=False)
class MomentCurve:
    """E|xi|**p on a p-grid, with quadrature error estimates."""

    p_grid: np.ndarray
    values: np.ndarray
    errors: np.ndarray

    @classmethod
    def compute(cls, params: MdtParams, p_grid: Sequence[float]) -> "MomentCurve":
        p_grid = np.asarray(p_grid, dtype=float)
        values, errors = moment_from_tail(params, p_grid, return_error=True)
        return cls(p_grid=p_grid, values=values, errors=errors)


def default_p_grid(params: MdtParams, n: int = 33, p_lo: float = 2.0) -> np.ndarray:
    """Grid on [max(2, p_lo), beta - DELTA_P], geometrically refined toward beta."""
    p_lo = max(2.0, p_lo)
    if params.beta - p_lo < DELTA_P:
        raise DomainError(f"empty p-grid interval [{p_lo:g}, {params.beta:g} - {DELTA_P:g}]")
    gaps = np.geomspace(DELTA_P, params.beta - p_lo, n)
    return np.unique(params.beta - gaps)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Ratio table r(p) = moment_from_tail(p) / theta(p) near beta."""

    params: MdtParams
    p_grid: np.ndarray
    moments: np.ndarray
    thetas: np.ndarray
    ratios: np.ndarray
    band: float
    passed: bool
    limit_constant_observed: float   # r at the grid point closest to beta
    limit_constant_predicted: Optional[float]  # the limit of r, regime A only


def verify_equivalence(params: MdtParams, band: float = 50.0) -> EquivalenceReport:
    """Check that moment and theta stay within a bounded ratio on the 25
    points of default_p_grid in [beta - 0.5, beta - DELTA_P]."""
    p_grid = default_p_grid(params, n=25, p_lo=params.beta - 0.5)
    moments = moment_from_tail(params, p_grid)
    thetas = theta(params, p_grid)
    ratios = moments / thetas
    spread = float(ratios.max() / ratios.min())
    # theta omits the moment's factor p / tail(y_star), so r -> beta Gamma(gamma+1) / tail(y_star)
    predicted = (params.beta * math.gamma(params.gamma + 1.0)
                 * math.exp(-params.log_tail_star)
                 if theta_regime(params.gamma) == "A" else None)
    return EquivalenceReport(
        params=params, p_grid=p_grid, moments=moments, thetas=thetas,
        ratios=ratios, band=band, passed=spread <= band,
        limit_constant_observed=float(ratios[-1]),
        limit_constant_predicted=predicted)
