"""Moments from tails and the three-regime theta envelope.

E|xi|**p is recovered from the survival function by quadrature.  The
envelope theta(p) captures the blow-up of the p-th moment as p
approaches beta; its regime depends on the sign of gamma + 1:

    gamma > -1 : (beta - p)**(-gamma-1) * V(1/(beta-p))
    gamma = -1 : |ln(beta - p)| * V(1/(beta-p))
    gamma < -1 : V(1/(beta-p))

theta is floored at THETA_MIN before roots and logs: the middle regime
vanishes at beta - p = 1 although the true moment never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .distribution import MdtParams, _log_tail_y
from .errors import DomainError, NumericError
from .slowvary import sv_eval

DELTA_P = 1e-3       # minimum gap between p and beta
THETA_MIN = 1e-8     # floor applied to theta before roots and logs
QUAD_RELTOL = 1e-8


def theta_regime(gamma: float) -> str:
    """'A' for gamma > -1, 'B' for gamma == -1, 'C' for gamma < -1."""
    if gamma > -1:
        return "A"
    if gamma == -1:
        return "B"
    return "C"


def theta(params: MdtParams, p, floor: bool = True):
    """The moment envelope in its regime.  Vectorized over p in [2, beta)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr >= params.beta):
        raise DomainError(f"theta requires p < beta={params.beta}")
    if np.any(p_arr < 2):
        raise DomainError("theta requires p >= 2")
    gap = params.beta - p_arr
    vfac = sv_eval(params.v, 1.0 / gap)
    regime = theta_regime(params.gamma)
    if regime == "A":
        out = gap ** (-params.gamma - 1.0) * vfac
    elif regime == "B":
        out = np.abs(np.log(gap)) * vfac
    else:
        out = vfac * np.ones_like(gap)
    if floor:
        out = np.maximum(out, THETA_MIN)
    return float(out) if out.ndim == 0 else out


def natural_psi(params: MdtParams, p):
    """theta(p)**(1/p), the generating function induced by the envelope."""
    p_arr = np.asarray(p, dtype=float)
    out = theta(params, p_arr) ** (1.0 / p_arr)
    return float(out) if np.ndim(out) == 0 else out


def moment_from_tail(params: MdtParams, p: float, return_error: bool = False):
    """E|xi|**p for the completed law, by adaptive quadrature.

    The exact part p * int_0^{u_star} x**(p-1) dx = u_star**p is added to
    the tail integral, computed on the log axis after rescaling by
    (beta - p) so the integrand decays like exp(-s).
    """
    if p == 0:
        return (1.0, 0.0) if return_error else 1.0  # diagnostic: total mass
    if not (0 < p <= params.beta - DELTA_P):
        raise DomainError(
            f"moment_from_tail requires 0 < p <= beta - {DELTA_P}, got p={p}")
    beta, gamma = params.beta, params.gamma
    y_star = math.log(params.u_star)
    gap = beta - p
    a = gap * y_star

    def integrand(s):
        return math.exp(-s) * s ** gamma * sv_eval(params.v, s / gap)

    mid = max(1.0, 10.0 * a)
    val1, err1 = quad(integrand, a, mid, epsrel=QUAD_RELTOL, epsabs=0.0, limit=200)
    val2, err2 = quad(integrand, mid, np.inf, epsrel=QUAD_RELTOL, epsabs=0.0, limit=200)
    integral = gap ** (-gamma - 1.0) * (val1 + val2)
    err = gap ** (-gamma - 1.0) * (err1 + err2)
    tail_star = math.exp(_log_tail_y(params, y_star))
    moment = params.u_star ** p + (p / tail_star) * integral
    rel_err = (p / tail_star) * err / moment
    if rel_err > 100 * QUAD_RELTOL:
        raise NumericError("moment quadrature missed its accuracy target",
                           {"p": p, "relative_error": rel_err})
    return (moment, rel_err) if return_error else moment


@dataclass(frozen=True, eq=False)
class MomentCurve:
    """E|xi|**p on a p-grid, with quadrature error estimates."""

    params: MdtParams
    p_grid: np.ndarray
    values: np.ndarray
    errors: np.ndarray

    @classmethod
    def compute(cls, params: MdtParams, p_grid: Sequence[float]) -> "MomentCurve":
        p_grid = np.asarray(p_grid, dtype=float)
        pairs = [moment_from_tail(params, p, return_error=True) for p in p_grid]
        values = np.array([v for v, _ in pairs])
        errors = np.array([e for _, e in pairs])
        return cls(params=params, p_grid=p_grid, values=values, errors=errors)

    def to_csv(self, path, header_extra: str = "") -> None:
        rows = np.column_stack([self.p_grid, self.values, self.errors])
        header = (f"# modtail moment curve\n# {self.params.describe()}\n"
                  f"{header_extra}p,moment,quad_error")
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def default_p_grid(params: MdtParams, n: int = 33, p_lo: float = 2.0) -> np.ndarray:
    """Grid on [p_lo, beta - DELTA_P], geometrically refined toward beta."""
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
    limit_constant_gamma: Optional[float]  # Gamma(gamma+1), regime A only


def verify_equivalence(params: MdtParams, p_grid: Optional[Sequence[float]] = None,
                       band: float = 50.0) -> EquivalenceReport:
    """Check that moment and theta stay within a bounded ratio near beta."""
    if p_grid is None:
        p_grid = default_p_grid(params, n=25, p_lo=params.beta - 0.5)
    p_grid = np.asarray(p_grid, dtype=float)
    moments = np.array([moment_from_tail(params, p) for p in p_grid])
    thetas = theta(params, p_grid)
    ratios = moments / thetas
    spread = float(ratios.max() / ratios.min())
    gamma_const = (math.gamma(params.gamma + 1.0)
                   if theta_regime(params.gamma) == "A" else None)
    return EquivalenceReport(
        params=params, p_grid=p_grid, moments=moments, thetas=thetas,
        ratios=ratios, band=band, passed=spread <= band,
        limit_constant_observed=float(ratios[np.argmax(p_grid)]),
        limit_constant_gamma=gamma_const)
