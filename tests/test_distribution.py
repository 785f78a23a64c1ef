import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modtail.distribution import (MdtParams, make_mdt, quantile, sample,
                                  survival, tail_formula)
from modtail.errors import DomainError
from modtail.harness import dkw_halfwidth
from modtail.slowvary import (Constant, IterLogPower, LogPower, Product,
                              parse_sv)

SMALLEST_Q = 5e-324

E = math.e

CANONICAL = make_mdt(3.0, 0.0)


def test_tail_formula_plugins():
    assert tail_formula(CANONICAL, E) == pytest.approx(math.exp(-3), rel=1e-12)
    p = make_mdt(3.0, 2.0)
    assert tail_formula(p, E ** 2) == pytest.approx(math.exp(-6) * 4, rel=1e-12)
    p = make_mdt(4.0, -1.0)
    assert tail_formula(p, E ** 2) == pytest.approx(math.exp(-8) / 2, rel=1e-12)


def test_tail_formula_domain():
    with pytest.raises(DomainError):
        tail_formula(CANONICAL, 1.0)
    with pytest.raises(DomainError):
        tail_formula(CANONICAL, math.nan)


def test_params_validation():
    with pytest.raises(DomainError):
        MdtParams(beta=2.0, gamma=0.0)
    with pytest.raises(DomainError):
        MdtParams(beta=3.0, gamma=0.0, u_star=1.0)


def test_survival_values():
    assert survival(CANONICAL, 0.0) == 1.0
    assert survival(CANONICAL, E) == 1.0
    assert survival(CANONICAL, E ** 2) == pytest.approx(math.exp(-3), rel=1e-12)


def test_survival_monotone_and_limits():
    for p in (CANONICAL, make_mdt(4.0, 1.0, LogPower(1.0)),
              make_mdt(3.0, -2.0, LogPower(-1.0))):
        u = np.geomspace(1e-3 + p.u_star, p.u_star * 1e8, 400)
        s = survival(p, u)
        assert np.all(np.diff(s) <= 1e-15)
        assert survival(p, 0.0) == 1.0
        assert s[-1] < 1e-12


def test_default_u_star_keeps_tail_below_one():
    # gamma > 0 pushes the tail formula up before it decays
    p = make_mdt(3.0, 6.0)
    assert p.u_star > E
    assert tail_formula(p, p.u_star) <= 1.0 + 1e-12


def test_quantile_boundary_and_inverse():
    assert quantile(CANONICAL, 1.0) == CANONICAL.u_star
    assert quantile(CANONICAL, math.exp(-3)) == pytest.approx(E ** 2, rel=1e-10)


def test_quantile_roundtrip():
    p = make_mdt(4.0, 1.0, LogPower(1.0))
    q = np.geomspace(1e-12, 1.0, 500)
    err = np.abs(survival(p, quantile(p, q)) - q)
    assert err.max() < 1e-10


def test_quantile_pure_power_closed_form():
    p = make_mdt(4.0, 0.0)
    gen = np.random.Generator(np.random.Philox(key=3))
    q = np.concatenate([1.0 - gen.random(1 << 16), np.geomspace(1e-12, 1.0, 4001)])
    rel = np.abs(quantile(p, q) / (p.u_star * q ** -0.25) - 1.0)
    assert rel.max() <= 1e-15


def test_quantile_closed_form_matches_general_path():
    # LogPower(0) is the constant 1, but it is not a Constant node, so this
    # law goes through the inverse table and Newton
    closed, general = make_mdt(4.0, 0.0), make_mdt(4.0, 0.0, LogPower(0.0))
    q = np.concatenate([np.linspace(1e-3, 1.0, 2001), np.geomspace(SMALLEST_Q, 1.0, 2001)])
    assert np.allclose(quantile(general, q), quantile(closed, q), rtol=1e-12, atol=0)


def test_quantile_subnormal_q_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = quantile(make_mdt(4.0, 0.0), SMALLEST_Q)
    assert u == pytest.approx(E * SMALLEST_Q ** -0.25, rel=1e-13)


# V: any grammar tree, or one that vanishes at infinity
grammar_v = st.one_of(
    st.recursive(
        st.one_of(st.floats(0.1, 10.0).map(Constant),
                  st.floats(-3.0, 3.0).map(LogPower),
                  st.floats(-3.0, 3.0).map(IterLogPower)),
        lambda kids: st.tuples(kids, kids).map(lambda t: Product(*t)),
        max_leaves=3),
    st.floats(-3.0, -0.01).map(LogPower),
    st.floats(-3.0, -0.01).map(IterLogPower))


@given(beta=st.floats(2.01, 8.0, exclude_min=True),
       gamma=st.one_of(st.just(-1.0), st.floats(-6.0, 6.0)),
       v=grammar_v)
@settings(max_examples=150, deadline=None)
def test_quantile_property_over_grammar(beta, gamma, v):
    try:
        p = make_mdt(beta, gamma, v)
    except DomainError:
        assume(False)
    q = np.geomspace(SMALLEST_Q, 1.0, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = quantile(p, q)
    assert np.max(np.abs(survival(p, u) - q)) <= 1e-10
    assert np.all(np.diff(u) <= 0)
    assert quantile(p, 1.0) == p.u_star


def test_quantile_domain():
    with pytest.raises(DomainError):
        quantile(CANONICAL, 0.0)
    with pytest.raises(DomainError):
        quantile(CANONICAL, 1.5)


def test_sample_deterministic():
    p = make_mdt(4.0, 0.0)
    a = sample(p, seed=123, n=1000).values
    b = sample(p, seed=123, n=1000).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample(p, seed=124, n=1000).values)


def test_sample_splittable_stream():
    # disjoint index ranges reproduce the single-shot sequence
    p = make_mdt(4.0, 0.0)
    whole = sample(p, seed=9, n=1000).values
    parts = [sample(p, seed=9, n=250, offset=o).values for o in (0, 250, 500, 750)]
    assert np.array_equal(whole, np.concatenate(parts))


def test_sample_mean_near_zero():
    p = make_mdt(4.0, 0.0)
    x = sample(p, seed=31337, n=10 ** 5).values
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean()) <= 3 * se


def test_sample_tail_matches_survival():
    p = make_mdt(4.0, 0.0)
    x = sample(p, seed=2024, n=10 ** 5).values
    u = 2 * p.u_star
    emp = np.mean(np.abs(x) > u)
    assert abs(emp - survival(p, u)) <= dkw_halfwidth(x.size, 1e-3)


def test_sample_rejects_empty():
    with pytest.raises(DomainError):
        sample(CANONICAL, seed=1, n=0)


def test_proportionality_beyond_activation():
    p = make_mdt(4.0, 1.0, parse_sv("lp(1)*ilp(1)"))
    u = np.geomspace(p.u_star, p.u_star * 1e6, 200)
    ratio = survival(p, u) / tail_formula(p, u)
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_custom_u_star_must_be_monotone():
    # gamma=6 peak is past e, so activating at e breaks monotonicity
    with pytest.raises(DomainError):
        make_mdt(3.0, 6.0, Constant(1.0), u_star=E)
