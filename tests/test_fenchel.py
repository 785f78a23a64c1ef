import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from modtail.distribution import make_mdt, sample
from modtail.errors import DomainError
from modtail.fenchel import (FenchelCurve, GeneratingFunction, empirical_p_cap,
                             fenchel, gls_norm_empirical, gls_norm_from_moments,
                             tail_from_gls)
from modtail.moments import DELTA_P, MomentCurve, default_p_grid

E = math.e


def test_constant_psi_hits_right_edge():
    # psi = 1 makes the objective p * y, maximized at the interval edge
    psi = GeneratingFunction.from_constant(1.0, b=3.0)
    pt = fenchel(psi, 1.0)
    assert pt.value == pytest.approx(3.0 - DELTA_P, rel=1e-9)
    assert pt.argmax == pytest.approx(3.0 - DELTA_P, abs=1e-8)


def test_constant_psi_e_interior():
    # psi = e gives objective p (y - 1): edge for y > 1, left edge for y < 1
    psi = GeneratingFunction.from_constant(E, b=4.0)
    assert fenchel(psi, 0.5).value == pytest.approx(2 * (0.5 - 1.0), rel=1e-9)
    assert fenchel(psi, 3.0).value == pytest.approx((4.0 - DELTA_P) * 2.0, rel=1e-9)


def test_fenchel_rejects_nonfinite():
    psi = GeneratingFunction.from_constant(1.0, b=3.0)
    with pytest.raises(DomainError):
        fenchel(psi, math.inf)


def test_tail_from_gls_power_law():
    psi = GeneratingFunction.from_constant(1.0, b=3.0)
    for z in (E, 10.0, 100.0):
        assert tail_from_gls(psi, 1.0, z) == pytest.approx(
            z ** (-(3.0 - DELTA_P)), rel=1e-8)


def test_tail_from_gls_domain_and_clamp():
    psi = GeneratingFunction.from_constant(1.0, b=3.0)
    with pytest.raises(DomainError):
        tail_from_gls(psi, 1.0, 2.0)
    val = tail_from_gls(psi, 1.0, E)
    assert 0.0 <= val <= 1.0


def test_tail_from_gls_scale_covariance():
    # doubling the norm is the same as halving the threshold
    params = make_mdt(4.0, 1.0)
    psi = GeneratingFunction.from_theta(params)
    for z in (20.0, 200.0, 2000.0):
        assert tail_from_gls(psi, 2.0, z) == pytest.approx(
            tail_from_gls(psi, 1.0, z / 2.0), rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_fenchel_matches_scipy_oracle(seed):
    rng = np.random.default_rng(seed)
    params = make_mdt(rng.uniform(2.5, 6.0), rng.uniform(-0.9, 2.0))
    psi = GeneratingFunction.from_theta(params)
    for y in rng.uniform(0.5, 25.0, size=20):
        pt = fenchel(psi, float(y))

        def neg(p):
            return -(p * (y - math.log(float(psi(p)))))

        res = minimize_scalar(neg, bounds=(2.0, psi.p_max), method="bounded",
                              options={"xatol": 1e-12})
        best = max(-res.fun, -neg(2.0), -neg(psi.p_max))
        assert pt.value == pytest.approx(best, rel=1e-9, abs=1e-9)


def test_fenchel_curve_convex_monotone():
    params = make_mdt(4.0, 0.5)
    psi = GeneratingFunction.from_theta(params)
    y = np.linspace(1.0, 30.0, 120)
    curve = FenchelCurve.compute(psi, y)
    assert np.all(np.diff(curve.values) > 0)
    mid = 0.5 * (curve.values[:-2] + curve.values[2:])
    assert np.all(curve.values[1:-1] <= mid + 1e-8)   # convex in y
    assert np.all(np.diff(curve.p_star) >= -1e-6)     # argmax nondecreasing


def test_fenchel_saturates_at_edge():
    # once the argmax pins at p_max the transform is exactly linear in y
    params = make_mdt(3.0, 0.0)
    psi = GeneratingFunction.from_theta(params)
    p_edge = psi.p_max
    # the interior argmax approaches beta like beta - 1/y, so it pins to
    # the working edge beta - delta only once y > 1/delta
    for y in (2000.0, 5000.0):
        pt = fenchel(psi, y)
        assert pt.argmax == pytest.approx(p_edge, abs=1e-6)
        expect = p_edge * (y - math.log(float(psi(p_edge))))
        assert pt.value == pytest.approx(expect, rel=1e-10)


def test_norm_closed_form():
    # beta=4, gamma=0: moment is e**p * 4/(4-p) and theta is 1/(4-p), so
    # the ratio to the 1/p is e * 4**(1/p), largest at the left edge p=2
    params = make_mdt(4.0, 0.0)
    psi = GeneratingFunction.from_theta(params)
    curve = MomentCurve.compute(params, np.linspace(2.0, psi.p_max, 40))
    res = gls_norm_from_moments(curve, psi)
    assert res.value == pytest.approx(2.0 * E, rel=1e-7)
    assert res.arg_p == pytest.approx(2.0)


def test_chebyshev_bound_dominates_survival():
    # membership with norm k makes the optimized Chebyshev tail a true
    # upper bound on the survival function (Markov at the optimal p)
    for params in (make_mdt(4.0, 0.0), make_mdt(3.0, 1.0), make_mdt(5.0, -0.5)):
        psi = GeneratingFunction.from_theta(params)
        curve = MomentCurve.compute(params, default_p_grid(params, n=33))
        k = gls_norm_from_moments(curve, psi).value
        from modtail.distribution import survival
        for z in np.geomspace(E * k, 1e4 * k, 25):
            bound = tail_from_gls(psi, k, float(z))
            assert survival(params, float(z)) <= bound * (1 + 1e-9)


def test_norm_homogeneity():
    params = make_mdt(4.0, 0.0)
    psi = GeneratingFunction.from_theta(params)
    x = sample(params, seed=77, n=5000)
    grid = np.linspace(2.0, empirical_p_cap(params, psi), 24)
    base = gls_norm_empirical(x, psi, grid)
    doubled = gls_norm_empirical(2.0 * x, psi, grid)
    assert doubled.value == pytest.approx(2.0 * base.value, rel=1e-12)


def test_empirical_norm_near_analytic():
    params = make_mdt(4.0, 0.0)
    psi = GeneratingFunction.from_theta(params)
    x = sample(params, seed=4242, n=10 ** 6)
    grid = np.linspace(2.0, empirical_p_cap(params, psi), 24)
    emp = gls_norm_empirical(x, psi, grid)
    curve = MomentCurve.compute(params, grid)
    ana = gls_norm_from_moments(curve, psi)
    assert abs(emp.value - ana.value) / ana.value < 0.05


def test_empirical_norm_needs_data():
    psi = GeneratingFunction.from_constant(1.0, b=3.0)
    with pytest.raises(DomainError):
        gls_norm_empirical(np.ones(10), psi, [2.0])


def test_grid_psi_interpolates():
    psi = GeneratingFunction.from_grid([2.0, 3.0], [1.0, 4.0], b=3.5)
    assert float(psi(2.0)) == pytest.approx(1.0)
    assert float(psi(3.0)) == pytest.approx(4.0)
    assert float(psi(2.5)) == pytest.approx(2.0)  # log-linear midpoint


def test_bad_b_rejected():
    with pytest.raises(DomainError):
        GeneratingFunction.from_constant(1.0, b=2.0)
