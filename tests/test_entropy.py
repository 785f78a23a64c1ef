import math

import numpy as np
import pytest
from scipy.integrate import quad

from modtail.distribution import make_mdt
from modtail.entropy import (FieldModel, HolderParams, MetricEntropyModel,
                             check_entropy_condition, entropy_integral,
                             finite_net_union_bound, natural_distance_bound,
                             uniform_tail_bound)
from modtail.errors import DomainError
from modtail.harness import make_plan, simulate_field

E = math.e

CANONICAL_FIELD = FieldModel(params=make_mdt(4.0, 0.0),
                             weights=(1.0, 0.5, 0.25), resolution=64)


def test_holder_validation():
    with pytest.raises(DomainError):
        HolderParams(d=0, alpha=1.0)
    with pytest.raises(DomainError):
        HolderParams(d=1, alpha=1.5)
    with pytest.raises(DomainError):
        HolderParams(d=1, alpha=1.0, c10=0.0)


def test_entropy_condition_boundary():
    assert check_entropy_condition(d=1, alpha=1.0, beta=4.0, gamma=0.0)
    # equality is not enough: beta/(gamma+1) must strictly exceed d/alpha
    assert not check_entropy_condition(d=4, alpha=1.0, beta=4.0, gamma=0.0)
    assert not check_entropy_condition(d=5, alpha=1.0, beta=4.0, gamma=0.0)
    with pytest.raises(DomainError):
        check_entropy_condition(d=1, alpha=1.0, beta=4.0, gamma=-1.0)


def test_entropy_integral_closed_form():
    # N(eps) = eps**(-1), exponent (gamma+1)/beta = 1/4:
    # int_0^1 eps**(-1/4) d eps = 4/3 exactly
    model = MetricEntropyModel.from_holder(d=1, alpha=1.0)
    assert entropy_integral(model, 4.0, 0.0) == pytest.approx(4.0 / 3.0, rel=1e-8)


def test_entropy_integral_matches_direct_quadrature():
    model = MetricEntropyModel.from_holder(d=2, alpha=0.7, diameter=1.5, c10=3.0)
    beta, gamma = 5.0, 0.3
    e1 = (gamma + 1.0) / beta
    direct, _ = quad(lambda eps: (3.0 * eps ** (-2 / 0.7)) ** e1, 0.0, 1.5,
                     epsrel=1e-10, limit=400)
    assert entropy_integral(model, beta, gamma) == pytest.approx(direct, rel=1e-8)


def test_entropy_integral_singleton():
    # N = 1 everywhere, so the integral is just the diameter
    model = MetricEntropyModel(
        diameter=2.5, covering=lambda eps: np.ones_like(np.asarray(eps, float)))
    assert entropy_integral(model, 4.0, 0.0) == pytest.approx(2.5, rel=1e-8)


def test_entropy_integral_divergent():
    model = MetricEntropyModel.from_holder(d=4, alpha=1.0)
    assert entropy_integral(model, 4.0, 0.0) == math.inf


def test_condition_iff_finite_integral():
    rng = np.random.default_rng(99)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        alpha = float(rng.uniform(0.1, 1.0))
        beta = float(rng.uniform(2.1, 8.0))
        gamma = float(rng.uniform(-0.9, 3.0))
        model = MetricEntropyModel.from_holder(d=d, alpha=alpha)
        ok = check_entropy_condition(d, alpha, beta, gamma)
        finite = math.isfinite(entropy_integral(model, beta, gamma))
        assert ok == finite


def test_distance_semi_metric_axioms():
    model = CANONICAL_FIELD
    rng = np.random.default_rng(7)
    for _ in range(50):
        z1, z2, z3 = rng.uniform(0.0, 1.0, 3)
        d12 = natural_distance_bound(model, z1, z2)
        d21 = natural_distance_bound(model, z2, z1)
        assert d12 == pytest.approx(d21, rel=1e-14)
        assert d12 >= 0
        assert natural_distance_bound(model, z1, z1) == 0.0
        d13 = natural_distance_bound(model, z1, z3)
        d23 = natural_distance_bound(model, z2, z3)
        assert d12 <= d13 + d23 + 1e-12


def test_distance_linear_then_saturates():
    model = CANONICAL_FIELD
    # small increments: the envelope is linear in |dz|
    d1 = natural_distance_bound(model, 0.0, 1e-6)
    d2 = natural_distance_bound(model, 0.0, 2e-6)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-9)
    # past dz = 1/pi every component envelope is capped at 2
    assert natural_distance_bound(model, 0.0, 0.4) == pytest.approx(
        natural_distance_bound(model, 0.0, 0.9), rel=1e-14)


def test_distance_domain():
    with pytest.raises(DomainError):
        natural_distance_bound(CANONICAL_FIELD, -0.1, 0.5)


def test_uniform_tail_bound_shape():
    params = make_mdt(4.0, 0.0)
    model = MetricEntropyModel.from_holder(d=1, alpha=1.0)
    u = np.geomspace(E, 1e6, 50)
    vals = uniform_tail_bound(model, params, u)
    assert np.all((0 <= vals) & (vals <= 1))
    assert np.all(np.diff(vals) <= 1e-15)
    # far tail decays at the u**(-beta) (ln u)**(gamma+1) rate
    big = uniform_tail_bound(model, params, np.array([1e8, 1e10]))
    obs = math.log(big[1] / big[0]) / math.log(1e10 / 1e8)
    assert obs == pytest.approx(-4.0, abs=0.05)


def test_uniform_tail_bound_preconditions():
    params = make_mdt(4.0, 0.0)
    bad = MetricEntropyModel.from_holder(d=4, alpha=1.0)
    with pytest.raises(DomainError):
        uniform_tail_bound(bad, params, 10.0)
    good = MetricEntropyModel.from_holder(d=1, alpha=1.0)
    with pytest.raises(DomainError):
        uniform_tail_bound(good, params, 1.0)


def test_union_bound_single_point_reduces_to_scalar():
    params = make_mdt(4.0, 0.0)
    model = FieldModel(params=params, weights=(1.0,), resolution=1)
    from modtail.bounds import q_bound_closed
    u = 40.0
    got = finite_net_union_bound(model, params, u, net_size=1)
    # M=1, J=1, amp_sum=1: point term is the scalar bound at u/2 plus one
    # Lipschitz excess term
    point = q_bound_closed(params, u / 2.0)
    lip = q_bound_closed(params, u / (2.0 * 2.0 * math.pi))
    assert got == pytest.approx(min(1.0, point + lip), rel=1e-12)


def test_union_bound_monotone_in_u():
    params = CANONICAL_FIELD.params
    us = np.geomspace(30.0, 3e4, 40)
    vals = [finite_net_union_bound(CANONICAL_FIELD, params, float(u)) for u in us]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_union_bound_regime_b_below_closed_domain():
    # regime B's closed form starts at e**e, above the component
    # thresholds the first points of this u-grid lead to
    params = make_mdt(3.0, -1.0)
    model = FieldModel(params=params, weights=(1.0, 0.5, 0.25), resolution=64)
    us = np.concatenate([[10.0, 20.0, 50.0], np.geomspace(60.0, 1e8, 30)])
    vals = np.array([finite_net_union_bound(model, params, float(u)) for u in us])
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) <= 1e-15)
    assert vals[-1] < 1.0


def test_union_bound_certified_against_simulation():
    # the union bound must dominate the simulated grid supremum tail
    params = CANONICAL_FIELD.params
    plan = make_plan(params, seed=515, n_grid=(1, 4, 16), reps=20000,
                     u_grid=np.geomspace(8.0, 200.0, 24), threads=4)
    report = simulate_field(CANONICAL_FIELD, plan)
    for u, qhat in zip(report.u_grid, report.qhat):
        bound = finite_net_union_bound(CANONICAL_FIELD, params, float(u))
        assert qhat - report.dkw <= bound + 1e-12


def test_field_validation():
    with pytest.raises(DomainError):
        FieldModel(params=make_mdt(4.0, 0.0), weights=(), resolution=4)
    with pytest.raises(DomainError):
        FieldModel(params=make_mdt(4.0, 0.0), weights=(1.0,), resolution=0)


def test_z_grids_nest_under_doubling():
    small = FieldModel(params=make_mdt(4.0, 0.0), weights=(1.0,), resolution=8)
    big = FieldModel(params=make_mdt(4.0, 0.0), weights=(1.0,), resolution=16)
    assert set(small.z_grid()).issubset(set(big.z_grid()))
