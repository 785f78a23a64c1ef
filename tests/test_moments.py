import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from modtail import moments
from modtail.distribution import _log_tail_y, make_mdt
from modtail.errors import DomainError, NumericError
from modtail.harness import sample
from modtail.moments import (DELTA_P, MomentCurve, default_p_grid,
                             moment_from_tail, natural_psi, theta,
                             theta_regime, verify_equivalence, THETA_MIN)
from modtail.slowvary import (Constant, IterLogPower, LogPower, Product,
                              parse_sv, sv_eval)

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


def test_theta_domain():
    with pytest.raises(DomainError):
        theta(make_mdt(3.0, 0.0), 3.0)
    with pytest.raises(DomainError, match="p >= 2"):
        theta(make_mdt(3.0, 0.0), 1.5)


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
    # near beta = 2 the default grid is clipped to start at p = 2
    (2.3, 0.0, None),
    (2.05, 0.0, None),
])
def test_equivalence_canonical_laws(beta, gamma, v):
    params = make_mdt(beta, gamma) if v is None else make_mdt(beta, gamma, v)
    report = verify_equivalence(params)
    assert report.passed
    spread = report.ratios.max() / report.ratios.min()
    assert spread <= 50.0


def test_equivalence_reports_limit_constant():
    # moment / theta tends to beta Gamma(gamma + 1) / tail(y_star), as
    # theta leaves out the law's normalisation
    for beta, gamma, v in ((4.0, 0.5, "c(1)"), (4.0, 0.0, "c(1)"), (3.0, 1.0, "c(2)"),
                           (2.5, 0.5, "ilp(2)"), (4.0, 0.5, "lp(1)"), (6.0, 2.0, "c(1)")):
        report = verify_equivalence(make_mdt(beta, gamma, parse_sv(v)))
        assert report.limit_constant_predicted == pytest.approx(
            report.limit_constant_observed, rel=0.01)
    assert verify_equivalence(make_mdt(3.0, -2.0)).limit_constant_predicted is None


def test_default_p_grid_respects_gap():
    params = make_mdt(4.0, 0.0)
    grid = default_p_grid(params)
    assert grid.min() >= 2.0
    assert grid.max() <= params.beta - 1e-3 + 1e-12


def test_default_p_grid_rejects_empty_interval():
    # beta - DELTA_P < 2: no p in [2, beta - DELTA_P]
    with pytest.raises(DomainError, match="empty p-grid interval"):
        default_p_grid(make_mdt(2.0005, 0.0))


def quad_moment(params, p):
    """Oracle: E|xi|**p by adaptive quadrature of the tail integral on
    s = (beta - p) ln u, split at max(1, 10 a)."""
    y_star = math.log(params.u_star)
    gap = params.beta - p
    a = gap * y_star

    def integrand(s):
        return math.exp(-s) * s ** params.gamma * sv_eval(params.v, s / gap)

    mid = max(1.0, 10.0 * a)
    total = sum(quad(integrand, lo, hi, epsrel=1e-10, epsabs=0.0, limit=400)[0]
                for lo, hi in ((a, mid), (mid, np.inf)))
    return (params.u_star ** p + p / math.exp(_log_tail_y(params, y_star))
            * gap ** (-params.gamma - 1.0) * total)


SV_FACTOR = st.one_of(st.builds(Constant, st.floats(0.2, 5.0)),
                      st.builds(LogPower, st.floats(-3.0, 3.0)),
                      st.builds(IterLogPower, st.floats(-3.0, 3.0)))
SV_TREE = st.lists(SV_FACTOR, min_size=1, max_size=3).map(
    lambda factors: functools.reduce(Product, factors))


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(2.01, 8.0),
       gamma=st.one_of(st.just(-1.0), st.floats(-6.0, 6.0)),
       v=SV_TREE,
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
@example(beta=2.01, gamma=6.0, v=LogPower(2.0), fracs=[0.0, 0.5, 1.0])
@example(beta=2.01, gamma=-6.0, v=LogPower(-1.0), fracs=[0.0, 1.0])
@example(beta=3.0, gamma=-1.0, v=Constant(1.0), fracs=[0.0, 0.9, 1.0])
@example(beta=6.0, gamma=-4.0, v=IterLogPower(-2.0), fracs=[0.1, 1.0])
@example(beta=8.0, gamma=6.0, v=Product(LogPower(3.0), IterLogPower(-3.0)),
         fracs=[0.0, 1.0])
def test_batched_moments_match_quadrature(beta, gamma, v, fracs):
    params = make_mdt(beta, gamma, v)
    p = np.array(fracs) * (beta - DELTA_P)
    got = moment_from_tail(params, p)
    assert got.shape == p.shape
    want = [quad_moment(params, pp) for pp in p]
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


def test_moment_shapes():
    params = make_mdt(3.0, -2.0, LogPower(-1.0))
    assert type(moment_from_tail(params, 2.5)) is float
    val, err = moment_from_tail(params, 2.5, return_error=True)
    assert type(val) is float and type(err) is float
    grid = np.array([[0.0, 2.0], [2.5, 2.9]])
    vals, errs = moment_from_tail(params, grid, return_error=True)
    assert vals.shape == errs.shape == grid.shape
    assert vals[0, 0] == 1.0
    assert vals[1, 0] == pytest.approx(moment_from_tail(params, 2.5), rel=1e-15)


def test_moment_accuracy_miss_names_p(monkeypatch):
    # one panel of a 2-node rule against 4 nodes cannot reach the target
    monkeypatch.setattr(moments, "_PANELS", 1)
    monkeypatch.setattr(moments, "_RULE", [leggauss(2), leggauss(4)])
    params = make_mdt(3.0, 0.5, LogPower(1.0))
    with pytest.raises(NumericError) as info:
        moment_from_tail(params, np.array([2.0, 2.5, 2.9]))
    assert info.value.diagnostics["p"] in (2.0, 2.5, 2.9)
    assert info.value.diagnostics["law"] == params.describe()
