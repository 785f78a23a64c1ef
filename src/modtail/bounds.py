"""Uniform tail bounds for normalized sums.

Q(u) = sup_n P(|S_n| > u), S_n = n**(-1/2) * sum of n i.i.d. centered
copies.  Two upper bounds are provided: the conjugate form
exp(-tau*(ln u)) driven by the theta envelope, and closed forms per
regime.  Both carry explicit constants; the theory fixes only the shape
of the bounds, so every constant is either computed from the moments
("pessimistic" mode, c1_pessimistic, which rests on the growth order
(2p / ln p)**p of optimal Rosenthal constants and so is not proven) or
fitted to a reference simulation ("calibrated" mode).

The closed forms for the gamma = -1 and gamma < -1 regimes include the
u**(-beta) factor; without it they would not even decay in u, and the
matching lower bound decays like u**(-beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional

import numpy as np

from .distribution import MdtParams, survival
from .errors import DomainError, in_domain
from .fenchel import GeneratingFunction, fenchel
from .moments import (_envelope, default_p_grid, moment_from_tail, theta,
                      theta_regime)
from .slowvary import limit_at_infinity_is_zero

_E = math.e
_EE = math.e ** math.e


@lru_cache(maxsize=64)
def c1_pessimistic(params: MdtParams) -> float:
    """Constant for sup_n E|S_n|**p <= C1 * theta(p): the max over a
    17-point p-grid of (2p / ln p)**p max(m2**(p/2), m_p) / theta(p),
    with m_p = E|xi|**p.

    That is Rosenthal's inequality with the growth order (2p / ln p)**p of
    its optimal constants in place of a constant, so C1 is not proven.
    The raw inequality's n**(1 - p/2) factor is <= 1 for p >= 2, so C1 is
    n-free, and it is finite because p stays in [2, beta).
    """
    p = default_p_grid(params, n=17)
    return float(np.max((2.0 * p / np.log(p)) ** p
                        * np.maximum(moment_from_tail(params, 2.0) ** (p / 2.0),
                                     moment_from_tail(params, p))
                        / theta(params, p)))


def _constant(params: MdtParams, c: Optional[float]) -> float:
    """The bound constant: c, or c1_pessimistic when c is None, which rests
    on the growth order of optimal Rosenthal constants and is not proven;
    DomainError unless it is finite and positive."""
    val = c1_pessimistic(params) if c is None else float(c)
    if not 0 < val < math.inf:
        raise DomainError(f"bound constant must be finite and > 0, got {val!r}")
    return val


def closed_u_min(params: MdtParams) -> float:
    """Left end of the closed-form domain: e**e in regime B, where the
    shape carries ln ln u, else e."""
    return _EE if theta_regime(params.gamma) == "B" else _E


def closed_shape(params: MdtParams, u):
    """The constant-free closed-form shape u**(-beta) h(ln u), h the regime
    factor of the moment envelope (un-clamped)."""
    u_arr = np.asarray(u, dtype=float)
    regime = theta_regime(params.gamma)
    u_min = closed_u_min(params)
    if not np.all(in_domain(u_arr, u_min)):
        raise DomainError(f"closed-form bound requires u >= {u_min:g} in regime {regime}")
    if regime == "C" and not limit_at_infinity_is_zero(params.v):
        raise DomainError("regime gamma < -1 requires V vanishing at infinity")
    out = u_arr ** (-params.beta) * _envelope(params, np.log(np.maximum(u_arr, u_min)))
    return float(out) if out.ndim == 0 else out


def q_bound_closed(params: MdtParams, u, c: Optional[float] = None):
    """Closed-form upper bound on Q(u), clamped to [0, 1].

    c defaults to the pessimistic constant c1_pessimistic; pass a
    calibrated value to tighten.
    """
    out = np.clip(_constant(params, c) * closed_shape(params, u), 0.0, 1.0)
    return float(out) if np.ndim(out) == 0 else out


def q_bound_fenchel(params: MdtParams, u, c1: Optional[float] = None):
    """Conjugate-form upper bound exp(-tau*(ln(u / C_shift))).

    tau(p) = ln theta(p) (floored); the moment constant C1 is folded into
    the argument as C_shift = C1**(1/p*) at the active argmax p*.
    """
    c1 = _constant(params, c1)
    psi = GeneratingFunction.from_theta(params)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(in_domain(u_arr, _E)):
        raise DomainError("q_bound_fenchel requires u >= e")
    p_star = fenchel(psi, np.log(u_arr)).argmax
    y_shift = np.log(u_arr / c1 ** (1.0 / p_star))
    out = np.ones_like(u_arr)
    live = y_shift >= 1.0
    out[live] = np.clip(np.exp(-fenchel(psi, y_shift[live]).value), 0.0, 1.0)
    return float(out[0]) if np.ndim(u) == 0 else out


def lower_witness(params: MdtParams, u):
    """The n = 1 term of the sup: survival of the completed law itself,
    a rigorous lower bound on Q(u)."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all(in_domain(u_arr, params.u_star)):
        raise DomainError("lower_witness requires u >= u_star")
    return survival(params, u)


@dataclass(frozen=True, eq=False)
class TailCurve:
    """A u -> bound/estimate curve with provenance and constants; kind is
    "upper" for an upper bound on Q(u), "lower" for a lower witness."""

    fn: Callable[[np.ndarray], np.ndarray]
    provenance: str
    u_min: float
    kind: str
    constants: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("upper", "lower"):
            raise DomainError(f"curve kind must be 'upper' or 'lower', got {self.kind!r}")

    def is_upper_bound(self) -> bool:
        return self.kind == "upper"

    def evaluate(self, u_grid: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(u_grid, dtype=float)), dtype=float)


def closed_curve(params: MdtParams, c: Optional[float] = None,
                 mode: str = "pessimistic") -> TailCurve:
    c_val = _constant(params, c)
    regime = theta_regime(params.gamma)
    return TailCurve(
        fn=lambda u: q_bound_closed(params, u, c=c_val),
        provenance=f"closed-form-ex{'1' if regime == 'A' else '2' if regime == 'B' else '3'}",
        u_min=closed_u_min(params), kind="upper",
        constants={"c": c_val, "mode": mode})


def fenchel_curve_bound(params: MdtParams, c1: Optional[float] = None,
                        mode: str = "pessimistic") -> TailCurve:
    c1_val = _constant(params, c1)
    return TailCurve(fn=lambda u: q_bound_fenchel(params, u, c1=c1_val),
                     provenance="fenchel-thm21", u_min=_E, kind="upper",
                     constants={"c1": c1_val, "mode": mode})


def witness_curve(params: MdtParams) -> TailCurve:
    return TailCurve(fn=lambda u: lower_witness(params, u),
                     provenance="lower-witness", u_min=params.u_star,
                     kind="lower")


def calibrate_closed_constant(params: MdtParams, u_grid: np.ndarray,
                              qhat: np.ndarray, slack: float) -> float:
    """Smallest c for which the clamped bound min(c shape, 1) dominates
    min(qhat + slack, 1) on the reference cells in the closed-form domain,
    the cells certify checks; DomainError when there are none."""
    u_grid = np.asarray(u_grid, dtype=float)
    inside = in_domain(u_grid, closed_u_min(params))
    if not inside.any():
        raise DomainError("calibration needs a cell in the closed-form domain")
    need = np.minimum(np.asarray(qhat, dtype=float)[inside] + slack, 1.0)
    return float(np.max(need / closed_shape(params, u_grid[inside])))
