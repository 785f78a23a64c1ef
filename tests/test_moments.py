import math

import numpy as np
import pytest

from modtail.distribution import make_mdt, sample
from modtail.errors import DomainError
from modtail.moments import (MomentCurve, default_p_grid, moment_from_tail,
                             natural_psi, theta, theta_regime,
                             verify_equivalence, THETA_MIN)
from modtail.slowvary import LogPower

E = math.e


def closed_form_moment(params, p):
    """Hand integration for gamma=0, V=1: the completed law is survival 1
    up to u_star then (u/u_star)**(-beta), a shifted Pareto, so
    E|x|**p = u_star**p * beta / (beta - p)."""
    return params.u_star ** p * params.beta / (params.beta - p)


def test_pareto_closed_form():
    p = make_mdt(4.0, 0.0)
    for pp in (2.0, 2.5, 3.0, 3.5, 3.9):
        assert moment_from_tail(p, pp) == pytest.approx(
            closed_form_moment(p, pp), rel=1e-8)


def test_zero_moment_is_total_mass():
    assert moment_from_tail(make_mdt(4.0, 0.0), 0.0) == 1.0


def test_moment_domain_gap():
    p = make_mdt(4.0, 0.0)
    with pytest.raises(DomainError):
        moment_from_tail(p, 4.0)
    with pytest.raises(DomainError):
        moment_from_tail(p, 3.9999)


def test_moment_monte_carlo_oracle():
    # |xi|**3 has infinite variance at beta = 4, so its sample standard
    # error bounds nothing; compare the truncated moment
    # E min(|xi|, t)**3 = E|xi|**3 - int_t^inf 3 u**2 S(u) du instead,
    # whose estimator has finite variance.  Past u_star = e the survival
    # is S(u) = e**4 u**-4 ln u, so the tail integral is
    # 3 e**4 (1 + ln t) / t.
    params = make_mdt(4.0, 1.0)
    assert params.u_star == pytest.approx(math.e, rel=1e-15)
    t = 30.0
    x = np.minimum(np.abs(sample(params, seed=55, n=10 ** 6)), t) ** 3
    mc, se = x.mean(), x.std() / math.sqrt(x.size)
    val, err = moment_from_tail(params, 3.0, return_error=True)
    assert err < 1e-8
    truncated = val - 3.0 * math.e ** 4 * (1.0 + math.log(t)) / t
    assert abs(truncated - mc) <= 3 * se


def test_theta_regimes():
    assert theta_regime(0.0) == "A"
    assert theta_regime(-1.0) == "B"
    assert theta_regime(-1.5) == "C"


def test_theta_plugins():
    assert theta(make_mdt(3.0, 0.0), 2.0) == pytest.approx(1.0)
    assert theta(make_mdt(3.0, 2.0), 2.5) == pytest.approx(8.0)
    # the gamma = -1 formula vanishes at beta - p = 1; the floor keeps it legal
    assert theta(make_mdt(3.0, -1.0), 2.0) == THETA_MIN
    assert theta(make_mdt(3.0, -1.0), 2.0, floor=False) == 0.0


def test_theta_domain():
    with pytest.raises(DomainError):
        theta(make_mdt(3.0, 0.0), 3.0)


def test_natural_psi_plugins():
    assert natural_psi(make_mdt(3.0, 0.0), 2.0) == pytest.approx(1.0)
    assert natural_psi(make_mdt(4.0, 0.0), 2.0) == pytest.approx(math.sqrt(0.5))
    assert natural_psi(make_mdt(3.0, 2.0), 2.5) == pytest.approx(8.0 ** 0.4)


def test_theta_divergence_by_regime():
    pA = make_mdt(4.0, 0.0)
    gaps = np.geomspace(1e-6, 0.5, 30)
    tA = theta(pA, pA.beta - gaps)
    assert tA[0] > 1e5  # blows up as p -> beta
    pC = make_mdt(3.0, -2.0, LogPower(-1.0))
    tC = theta(pC, pC.beta - gaps)
    assert tC.max() < 10.0  # bounded V keeps regime C bounded


def test_moment_curve_log_convex_and_monotone():
    params = make_mdt(4.0, 0.5, LogPower(1.0))
    grid = np.linspace(2.0, params.beta - 0.05, 25)
    curve = MomentCurve.compute(params, grid)
    logm = np.log(curve.values)
    mid = 0.5 * (logm[:-2] + logm[2:])
    assert np.all(logm[1:-1] <= mid + 1e-9)          # Lyapunov convexity
    norms = curve.values ** (1.0 / grid)
    assert np.all(np.diff(norms) >= -1e-9)            # p-norm monotone


@pytest.mark.parametrize("beta,gamma,v", [
    (4.0, 0.0, None),
    (3.0, -1.0, None),
    (3.0, -2.0, LogPower(-1.0)),
])
def test_equivalence_canonical_laws(beta, gamma, v):
    params = make_mdt(beta, gamma) if v is None else make_mdt(beta, gamma, v)
    report = verify_equivalence(params)
    assert report.passed
    spread = report.ratios.max() / report.ratios.min()
    assert spread <= 50.0


def test_equivalence_reports_limit_constant():
    report = verify_equivalence(make_mdt(4.0, 0.5))
    assert report.limit_constant_gamma == pytest.approx(math.gamma(1.5))
    assert report.limit_constant_observed > 0


def test_default_p_grid_respects_gap():
    params = make_mdt(4.0, 0.0)
    grid = default_p_grid(params)
    assert grid.min() >= 2.0
    assert grid.max() <= params.beta - 1e-3 + 1e-12
