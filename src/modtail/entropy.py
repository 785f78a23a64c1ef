"""Metric entropy, the entropic integral, and a grid bound for a field.

The entropy side: the Hoelder covering model N(eps) = C10 * eps**(-d/alpha)
on (0, C5].  The entropic integral int_0^C5 N(eps)**((gamma+1)/beta) d eps
decides whether a supremum over the index set admits the same
closed-form tail shape as a single coordinate; for this model it is a
power integral, in closed form.

The field side: a concrete reference random field on [0, 1], a finite
Fourier mix of independent heavy-tailed amplitudes with uniform phases.
Its natural distance has a computable bound, from which
field_entropy_model derives the field's own covering model, and its
Lipschitz envelopes feed a grid union bound for the supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .bounds import closed_u_min, q_bound_closed
from .distribution import MdtParams, _first_true
from .errors import DomainError, NumericError
from .fenchel import GeneratingFunction, gls_norm_from_moments
from .moments import MomentCurve, default_p_grid


@dataclass(frozen=True)
class MetricEntropyModel:
    """Hoelder covering numbers N(eps) = c10 * eps**(-d/alpha) for eps in
    (0, diameter]."""

    d: int
    alpha: float
    diameter: float = 1.0                 # C5
    c10: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension d must be >= 1")
        if not (0 < self.alpha <= 1):
            raise DomainError("alpha must lie in (0, 1]")
        if self.diameter <= 0:
            raise DomainError("diameter must be positive")
        if self.c10 <= 0:
            raise DomainError("Hoelder constant c10 must be positive")

    @classmethod
    def from_holder(cls, d: int, alpha: float, diameter: float = 1.0,
                    c10: float = 1.0) -> "MetricEntropyModel":
        return cls(d, alpha, diameter, c10)


def check_entropy_condition(d: int, alpha: float, beta: float, gamma: float) -> bool:
    """True iff beta / (gamma + 1) > d / alpha (strict)."""
    if gamma <= -1:
        raise DomainError("entropy condition requires gamma > -1")
    MetricEntropyModel(d, alpha)
    if beta <= 2:
        raise DomainError("beta must be > 2")
    return beta / (gamma + 1.0) > d / alpha


def entropy_integral(model: MetricEntropyModel, beta: float, gamma: float) -> float:
    """int_0^C5 N(eps)**((gamma+1)/beta) d eps; math.inf when divergent.

    With N = C10 eps**(-d/alpha) the integrand is C10**e1 eps**(-e0),
    e1 = (gamma+1)/beta and e0 = e1 d / alpha, so the integral is
    C10**e1 C5**(1-e0) / (1-e0) when e0 < 1 and diverges otherwise.
    """
    if gamma <= -1:
        raise DomainError("entropic integral requires gamma > -1")
    if beta <= 2:
        raise DomainError("entropic integral requires beta > 2")
    e1 = (gamma + 1.0) / beta
    e0 = e1 * model.d / model.alpha
    if e0 >= 1.0:
        return math.inf
    return model.c10 ** e1 * model.diameter ** (1.0 - e0) / (1.0 - e0)


@dataclass(frozen=True)
class FieldModel:
    """Finite Fourier mix on [0, 1]:

        eta(z) = sum_j a_j xi_j cos(2 pi j z + U_j)

    with independent heavy-tailed amplitudes xi_j and uniform phases U_j.
    Centered by phase symmetry, pathwise Lipschitz with constant
    sum_j 2 pi j |a_j| |xi_j|.  The grid k / M is symmetric under
    z -> 1 - z; the harness relies on that to take the grid supremum
    over the points k <= M / 2 alone, as the max of |P| + |Q| with
    eta = P - Q split into its cos and sin parts.
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

    def check_law(self, params: MdtParams) -> None:
        """DomainError unless params is the field's own law."""
        if params != self.params:
            raise DomainError(f"the field's law is {self.params.describe()}, "
                              f"not {params.describe()}")

    def z_grid(self) -> np.ndarray:
        # left endpoints, so doubling the resolution nests the old grid
        # inside the new one and the grid supremum can only grow
        return np.arange(self.resolution) / self.resolution


@lru_cache(maxsize=32)
def _component_gls_norm(params: MdtParams) -> float:
    """The GLS norm of one component's amplitude law, defined for
    gamma > -1 only, as the entropy condition is: below it the norm comes
    out of a floored theta and bounds nothing."""
    if params.gamma <= -1:
        raise DomainError("the component GLS norm requires gamma > -1")
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


def field_entropy_model(model: FieldModel) -> MetricEntropyModel:
    """The field's covering model under natural_distance_bound: d = 1,
    alpha = 1, C5 = D and C10 = L/2 + D.

    With K the component GLS norm, the bound is at most min(D, L |dz|),
    where L = K lip_sum (each envelope is at most 2 pi j |dz|) and
    D = 2 K amp_sum (each is at most 2).  A ball of radius eps holds the
    interval of half-width eps / L about its centre, so ceil(L / (2 eps))
    balls cover [0, 1], and for eps <= D that is at most
    L / (2 eps) + 1 <= (L/2 + D) / eps.  The GLS norm needs gamma > -1.
    """
    k = _component_gls_norm(model.params)
    diameter = 2.0 * k * model.amp_sum
    return MetricEntropyModel(d=1, alpha=1.0, diameter=diameter,
                              c10=k * model.lip_sum / 2.0 + diameter)


def finite_net_union_bound(model: FieldModel, params: MdtParams, u):
    """Bound for the supremum via an M-point grid union bound, at a float
    u or elementwise on an array of u (a float for a float).

    P(sup > u) <= P(grid max > u/2) + P(Lipschitz excess > u/2), each a
    union over the J components of q_bound_closed with c1_pessimistic.
    Two steps lack a justification, as both apply that scalar sum bound
    to sums whose summands are not draws of the law: the point term to a
    component's normalized sum of xi cos(2 pi j z + U), and the Lipschitz
    term to the modulus of its normalized sum of xi exp(i U), which sets
    the component's Lipschitz constant.  params must be model.params.
    """
    model.check_law(params)
    u_arr = np.asarray(u, dtype=float)
    if not np.all(u_arr > 0):
        raise DomainError("u must be positive")
    m, j_count = model.resolution, model.n_components
    mesh = 1.0 / m
    # the point and Lipschitz terms' thresholds, in the last axis
    threshold = np.divide.outer(u_arr, [2.0 * model.amp_sum,
                                        2.0 * mesh * model.lip_sum])
    # P(|normalized sum| > threshold) <= Q_closed(threshold); 1 below the
    # closed-form domain
    u_min = closed_u_min(params)
    inside = threshold >= u_min
    component = np.where(inside, q_bound_closed(
        params, np.where(inside, threshold, u_min)), 1.0)
    out = np.minimum(1.0, m * j_count * component[..., 0]
                     + j_count * component[..., 1])
    return float(out) if out.ndim == 0 else out


def net_bound_level(model: FieldModel, params: MdtParams, delta: float) -> float:
    """Smallest u with finite_net_union_bound(model, params, u) <= delta,
    to relative precision 1e-9; NumericError if u = 1e300 is not enough,
    and DomainError, from the first bound, if params is not model.params.

    The bound is nonincreasing in u: _first_true searches t = ln u from
    ln u_star (u_star itself where the bound holds there) to ln 1e300.
    """
    if not (0 < delta <= 1):
        raise DomainError("delta must lie in (0, 1]")
    t_star = math.log(params.u_star)
    t = _first_true(
        lambda t: finite_net_union_bound(model, params, np.exp(t)) <= delta,
        t_star, math.log(1e300), 1e-12)
    if t is None:
        raise NumericError("net bound never drops to delta",
                           {"law": params.describe(), "delta": delta})
    return params.u_star if t == t_star else math.exp(t)
