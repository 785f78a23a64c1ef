import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from modtail.distribution import make_mdt
from modtail.errors import DomainError
from modtail.fenchel import (FenchelCurve, GeneratingFunction, fenchel,
                             gls_norm_from_moments, _objective, _refine_grid,
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
    with pytest.raises(DomainError):
        fenchel(psi, np.array([1.0, math.nan, 2.0]))


def test_tail_from_gls_power_law():
    psi = GeneratingFunction.from_constant(1.0, b=3.0)
    for z in (E, 10.0, 100.0):
        assert tail_from_gls(psi, 1.0, z) == pytest.approx(
            z ** (-(3.0 - DELTA_P)), rel=1e-8)


def test_tail_from_gls_domain_and_clamp():
    psi = GeneratingFunction.from_constant(1.0, b=3.0)
    with pytest.raises(DomainError):
        tail_from_gls(psi, 1.0, 2.0)
    for norm in (0.0, math.nan):
        with pytest.raises(DomainError, match="GLS norm"):
            tail_from_gls(psi, norm, 10.0)
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


@pytest.mark.parametrize("beta,gamma", [(4.0, 0.0), (3.0, -1.0), (2.5, 0.5)])
def test_fenchel_batch_matches_pointwise(beta, gamma):
    psi = GeneratingFunction.from_theta(make_mdt(beta, gamma))
    ys = np.geomspace(0.5, 200.0, 48)
    batch = fenchel(psi, ys)
    assert batch.value.shape == batch.argmax.shape == ys.shape
    single = [fenchel(psi, float(y)) for y in ys]
    assert all(isinstance(pt.value, float) for pt in single)
    # each bracket stops on its own width, so batching changes no bit
    np.testing.assert_array_equal(batch.value, [pt.value for pt in single])
    np.testing.assert_array_equal(batch.argmax, [pt.argmax for pt in single])


def _random_psi(rng):
    # criterion 2's three kinds: constant, analytic envelope, 8-knot grid
    kind, b = rng.integers(0, 3), float(rng.uniform(2.5, 8.0))
    if kind == 0:
        return GeneratingFunction.from_constant(float(rng.uniform(0.5, 4.0)), b=b)
    if kind == 1:
        return GeneratingFunction.from_theta(
            make_mdt(float(rng.uniform(2.5, 6.0)), float(rng.uniform(-0.9, 2.0))))
    return GeneratingFunction.from_grid(np.linspace(2.0, b - 1e-3, 8),
                                        np.exp(rng.uniform(-1.0, 2.0, size=8)), b=b)


def test_fenchel_never_below_its_grid():
    # the narrowing starts from the grid points, so the transform is at
    # least the objective everywhere on the grid, at an argmax in range
    rng = np.random.default_rng(34)
    for _ in range(200):
        psi = _random_psi(rng)
        ys = rng.uniform(0.5, 25.0, size=4)
        pt = fenchel(psi, ys)
        grid_vals = _objective(psi, _refine_grid(psi), ys[:, None])
        assert np.all(pt.value >= grid_vals.max(axis=1))
        assert np.all((pt.argmax >= 2.0) & (pt.argmax <= psi.p_max))


def test_fenchel_refines_every_local_maximum():
    # ln psi is linear on [2, k] and on [k, 6], so the objective is a
    # concave parabola on each piece: one hump peaks at p = 2.5, the other
    # at p = 5.5, and the two peaks tie at y = 6.  Just below the tie the
    # left hump is the global maximum while the grid, coarser there,
    # ranks the right hump first.
    k, s1 = 3.4375, 2.0
    s2 = s1 * (2.5 / 5.5) ** 2
    log_psi = [0.0, s1 * (k - 2.0), s1 * (k - 2.0) + s2 * (6.0 - k)]
    psi = GeneratingFunction.from_grid([2.0, k, 6.0], np.exp(log_psi), b=6.0)
    ys = np.concatenate([6.0 + np.linspace(-2e-4, 2e-4, 21), [5.0, 7.0]])
    pt = fenchel(psi, ys)

    def obj(p, y):
        return p * (y - np.log(psi(p)))

    grid = _refine_grid(psi)
    misranked = 0
    for y, value, argmax in zip(ys, pt.value, pt.argmax):
        best_val, best_arg = -math.inf, None
        for lo, hi in ((2.0, k), (k, psi.p_max)):
            res = minimize_scalar(lambda p: -obj(p, y), bounds=(lo, hi),
                                  method="bounded", options={"xatol": 1e-12})
            for p in (lo, hi, res.x):
                if obj(p, y) > best_val:
                    best_val, best_arg = float(obj(p, y)), p
        assert value == pytest.approx(best_val, rel=1e-12)
        assert argmax == pytest.approx(best_arg, abs=1e-6)
        misranked += abs(grid[np.argmax(obj(grid, y))] - best_arg) > 1.0
    assert misranked > 0


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


def test_norm_needs_a_grid_point_in_the_domain():
    psi = GeneratingFunction.from_theta(make_mdt(4.0, 0.0))
    empty = MomentCurve(np.array([]), np.array([]), np.array([]))
    with pytest.raises(DomainError, match="empty"):
        gls_norm_from_moments(empty, psi)
    outside = MomentCurve(np.array([psi.p_max + 0.1]), np.array([1.0]),
                          np.array([0.0]))
    with pytest.raises(DomainError, match="domain"):
        gls_norm_from_moments(outside, psi)


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


def test_grid_psi_interpolates():
    psi = GeneratingFunction.from_grid([2.0, 3.0], [1.0, 4.0], b=3.5)
    assert float(psi(2.0)) == pytest.approx(1.0)
    assert float(psi(3.0)) == pytest.approx(4.0)
    assert float(psi(2.5)) == pytest.approx(2.0)  # log-linear midpoint


def test_bad_b_rejected():
    with pytest.raises(DomainError):
        GeneratingFunction.from_constant(1.0, b=2.0)


@pytest.mark.parametrize("make,args", [
    ("constant", (1.0, math.inf)),
    ("constant", (1.0, math.nan)),
    ("constant", (0.0, 5.0)),
    ("constant", (-1.0, 5.0)),
    ("constant", (math.nan, 5.0)),
    ("grid", ([2.0, 3.0], [1.0, 0.0], 4.0)),
    ("grid", ([2.0, 3.0], [-1.0, 2.0], 4.0)),
    ("grid", ([2.0, 3.0], [1.0, math.nan], 4.0)),
    ("grid", ([2.0, 3.0], [1.0, math.inf], 4.0)),
    ("grid", ([4.0, 3.0, 2.0], [1.0, 2.0, 3.0], 5.0)),
    ("grid", ([2.0, 2.0, 3.0], [1.0, 2.0, 3.0], 5.0)),
    ("grid", ([2.0, math.nan], [1.0, 2.0], 5.0)),
], ids=["b-inf", "b-nan", "c-zero", "c-negative", "c-nan", "value-zero",
        "value-negative", "value-nan", "value-inf", "knots-decreasing",
        "knots-repeated", "knot-nan"])
def test_undefined_generating_function_rejected(make, args):
    # each would give a zero, NaN or silently misread tail bound
    with pytest.raises(DomainError):
        getattr(GeneratingFunction, f"from_{make}")(*args)
