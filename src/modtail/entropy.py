"""Metric entropy, the entropic integral, and uniform bounds for fields.

The entropy side: a covering-number model N(eps) on (0, C5], with a
Hoelder specialization N(eps) = C10 * eps**(-d/alpha).  The entropic
integral int_0^C5 N(eps)**((gamma+1)/beta) d eps decides whether a
supremum over the index set admits the same closed-form tail shape as a
single coordinate.

The field side: a concrete reference random field on [0, 1], a finite
Fourier mix of independent heavy-tailed amplitudes with uniform phases.
It has computable Lipschitz envelopes, so a grid union bound gives a
fully certified tail bound for the grid-sampled supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import quad

from .bounds import c1_pessimistic, closed_u_min, q_bound_closed
from .distribution import MdtParams
from .errors import DomainError, NumericError
from .fenchel import GeneratingFunction, gls_norm_from_moments
from .moments import MomentCurve, default_p_grid
from .slowvary import sv_eval

_E = math.e


@dataclass(frozen=True)
class HolderParams:
    d: int
    alpha: float
    c10: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension d must be >= 1")
        if not (0 < self.alpha <= 1):
            raise DomainError("alpha must lie in (0, 1]")
        if self.c10 <= 0:
            raise DomainError("Hoelder constant c10 must be positive")


@dataclass(frozen=True, eq=False)
class MetricEntropyModel:
    """Covering numbers N(eps) for eps in (0, diameter]."""

    diameter: float                       # C5
    covering: Callable[[np.ndarray], np.ndarray]
    holder: Optional[HolderParams] = None

    def __post_init__(self):
        if self.diameter <= 0:
            raise DomainError("diameter must be positive")

    @classmethod
    def from_holder(cls, d: int, alpha: float, diameter: float = 1.0,
                    c10: float = 1.0) -> "MetricEntropyModel":
        hp = HolderParams(d=d, alpha=alpha, c10=c10)

        def covering(eps):
            return c10 * np.asarray(eps, dtype=float) ** (-d / alpha)

        return cls(diameter=diameter, covering=covering, holder=hp)


def check_entropy_condition(d: int, alpha: float, beta: float, gamma: float) -> bool:
    """True iff beta / (gamma + 1) > d / alpha (strict)."""
    if gamma <= -1:
        raise DomainError("entropy condition requires gamma > -1")
    HolderParams(d=d, alpha=alpha)
    if beta <= 2:
        raise DomainError("beta must be > 2")
    return beta / (gamma + 1.0) > d / alpha


def entropy_integral(model: MetricEntropyModel, beta: float, gamma: float) -> float:
    """int_0^C5 N(eps)**((gamma+1)/beta) d eps; math.inf when divergent."""
    if gamma <= -1:
        raise DomainError("entropic integral requires gamma > -1")
    e1 = (gamma + 1.0) / beta
    c5 = model.diameter
    if model.holder is not None:
        e0 = e1 * model.holder.d / model.holder.alpha
        if e0 >= 1.0:
            return math.inf
        if e0 > 0:
            # substitution eps = C5 * s**(1/(1-e0)) removes the endpoint
            # singularity; evaluated in log space because eps underflows
            # for e0 close to 1
            power = 1.0 / (1.0 - e0)
            hp = model.holder
            ln_c5 = math.log(c5)

            def g(s):
                if s <= 0.0:
                    return 0.0
                ln_s = math.log(s)
                ln_eps = ln_c5 + power * ln_s
                ln_n = math.log(hp.c10) - (hp.d / hp.alpha) * ln_eps
                return math.exp(e1 * ln_n + ln_c5 + math.log(power)
                                + (power - 1.0) * ln_s)

            val, err = quad(g, 0.0, 1.0, epsrel=1e-10, epsabs=0.0, limit=200)
        else:
            val, err = quad(lambda eps: float(model.covering(eps)) ** e1,
                            0.0, c5, epsrel=1e-10, epsabs=0.0, limit=200)
        if err > 1e-6 * max(val, 1.0):
            raise NumericError("entropy quadrature missed its target",
                               {"value": val, "error": err})
        return float(val)
    # generic model: probe the small-eps growth before integrating
    probes = c5 * 10.0 ** (-np.arange(2, 13, dtype=float))
    gvals = np.asarray(model.covering(probes), dtype=float) ** e1
    mass = gvals * probes
    if mass[-1] > 1.05 * mass[0]:
        return math.inf
    val, err = quad(lambda eps: float(model.covering(eps)) ** e1, 0.0, c5,
                    epsrel=1e-8, epsabs=0.0, limit=400)
    if not np.isfinite(val):
        return math.inf
    return float(val)


@dataclass(frozen=True)
class FieldModel:
    """Finite Fourier mix on [0, 1]:

        eta(z) = sum_j a_j xi_j cos(2 pi j z + U_j)

    with independent heavy-tailed amplitudes xi_j and uniform phases U_j.
    Centered by phase symmetry, pathwise Lipschitz with constant
    sum_j 2 pi j |a_j| |xi_j|.
    """

    params: MdtParams
    weights: Tuple[float, ...]
    resolution: int = 64

    def __post_init__(self):
        if len(self.weights) < 1:
            raise DomainError("field needs at least one component")
        if not all(np.isfinite(self.weights)):
            raise DomainError("weights must be finite")
        if self.resolution < 1:
            raise DomainError("grid resolution must be >= 1")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def amp_sum(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    @property
    def lip_sum(self) -> float:
        j = np.arange(1, len(self.weights) + 1)
        return float(np.sum(2.0 * math.pi * j * np.abs(self.weights)))

    def z_grid(self) -> np.ndarray:
        # left endpoints, so doubling the resolution nests the old grid
        # inside the new one and the grid supremum can only grow
        return np.arange(self.resolution) / self.resolution


@lru_cache(maxsize=32)
def _component_gls_norm(params: MdtParams) -> float:
    psi = GeneratingFunction.from_theta(params)
    curve = MomentCurve.compute(params, default_p_grid(params, n=25))
    return gls_norm_from_moments(curve, psi).value


def natural_distance_bound(model: FieldModel, z1: float, z2: float) -> float:
    """Upper bound on the GLS semi-distance between field coordinates.

    Triangle inequality over components with the deterministic envelope
    |cos increment| <= min(2, 2 pi j |z1 - z2|), weighted by the
    component GLS norm.  Symmetric, vanishes on the diagonal, and the
    concave dependence on |z1 - z2| gives the triangle inequality.
    """
    for z in (z1, z2):
        if not (0.0 <= z <= 1.0):
            raise DomainError(f"field coordinates live in [0, 1], got {z}")
    dz = abs(z1 - z2)
    k = _component_gls_norm(model.params)
    j = np.arange(1, model.n_components + 1)
    env = np.minimum(2.0, 2.0 * math.pi * j * dz)
    return float(k * np.sum(np.abs(model.weights) * env))


def uniform_tail_bound(model: MetricEntropyModel, params: MdtParams, u,
                       c6: Optional[float] = None):
    """Tail bound for the supremum of the normalized field sums.

    Shape u**(-beta) (ln u)**(gamma+1) V(ln u) with a constant that, in
    pessimistic mode, scales the scalar constant by the entropic mass
    (1 + I/C5)**beta.
    """
    if params.gamma <= -1:
        raise DomainError("uniform_tail_bound requires gamma > -1")
    integral = entropy_integral(model, params.beta, params.gamma)
    if not np.isfinite(integral):
        raise DomainError("entropy condition violated: entropic integral diverges")
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < _E * (1 - 1e-12)):
        raise DomainError("uniform_tail_bound requires u >= e")
    if c6 is None:
        c6 = c1_pessimistic(params) * (1.0 + integral / model.diameter) ** params.beta
    y = np.log(np.maximum(u_arr, _E))
    out = np.clip(c6 * u_arr ** (-params.beta) * y ** (params.gamma + 1.0)
                  * sv_eval(params.v, y), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def finite_net_union_bound(model: FieldModel, params: MdtParams, u: float,
                           net_size: Optional[int] = None,
                           c1: Optional[float] = None) -> float:
    """Certified bound for the supremum via an M-point grid union bound.

    P(sup > u) <= M * P(one coordinate > u/2) + P(Lipschitz excess), each
    probability bounded through the scalar closed-form sum bound; every
    step is a true inequality, so the output certifies the grid-sampled
    supremum as well.
    """
    m = model.resolution if net_size is None else int(net_size)
    if m < 1:
        raise DomainError("net size must be >= 1")
    if u <= 0:
        raise DomainError("u must be positive")
    if c1 is None:
        c1 = c1_pessimistic(params)
    j_count = model.n_components
    amp = model.amp_sum
    lip = model.lip_sum
    mesh = 1.0 / m

    def component_bound(threshold: float) -> float:
        # P(|normalized sum| > threshold) <= Q_closed(threshold); clamp to 1
        # below the closed-form domain
        if threshold < closed_u_min(params):
            return 1.0
        return float(q_bound_closed(params, threshold, c=c1))

    point_term = m * j_count * component_bound(u / (2.0 * amp))
    lip_term = j_count * component_bound(u / (2.0 * mesh * lip))
    return float(min(1.0, point_term + lip_term))
