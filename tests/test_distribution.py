import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modtail import distribution
from modtail.distribution import (STREAM_BLOCK, MdtParams, make_mdt,
                                  quantile, sample, sign_by_words,
                                  stream_words, survival, tail_formula,
                                  word_uniforms)
from modtail.errors import DomainError, NumericError
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


@pytest.mark.parametrize("beta,gamma,v", [(3.0, 6.0, "c(1)"),
                                           (2.05, 3.0, "lp(2)*ilp(-1)")])
def test_quantile_fallback_where_slope_vanishes(beta, gamma, v, monkeypatch):
    # the log-tail slope vanishes at u_star, so one dense Newton step
    # leaves some draws with q near 1 unconverged; they restart in the
    # safeguarded loop, which must give what it gives on its own
    p = make_mdt(beta, gamma, parse_sv(v))
    table = p._inverse_table
    q = word_uniforms(stream_words(7, 0, 1 << 15))
    newton, sent = distribution._newton, []

    def recording(params, target, *args):
        sent.append(target.copy())
        return newton(params, target, *args)

    monkeypatch.setattr(distribution, "_newton", recording)
    u = quantile(p, q)
    monkeypatch.undo()
    l_star = distribution._log_tail_y(p, math.log(p.u_star))
    g = -np.log(q)
    fell_back = np.isin(l_star - g, np.concatenate(sent))
    assert 0 < fell_back.sum() < q.size
    assert np.max(np.abs(survival(p, u[fell_back]) - q[fell_back])) <= 1e-10
    # every draw through the loop alone, from the table, at the kernel's
    # tolerance
    k, y = table.start(g)
    f_tol = 1e-13 / np.maximum(q, 1e-13 / 0.3) + 3e-15
    newton(p, l_star - g, y, table.lo[k], table.hi[k], f_tol)
    rel = np.abs(u / np.exp(y) - 1.0)
    assert rel[q >= 1e-4].max() <= 1e-12


def _pure_power_per_draw(p, q):
    """The pure power law's per-draw path: the closed-form start, each
    draw's own f_tol and the safeguarded loop."""
    y_star = math.log(p.u_star)
    g = -np.log(q)
    y = y_star + g / p.beta
    distribution._newton(p, distribution._log_tail_y(p, y_star) - g, y, y_star,
                         y_star + distribution._TABLE_G_MAX / p.beta,
                         distribution._f_tol(q))
    u = np.exp(y)
    u[q == 1.0] = p.u_star
    return u


def test_quantile_pure_power_block_test(monkeypatch):
    # a block whose largest log-space residual is within the smallest
    # f_tol is accepted whole; one with subnormal q (|f| = 1.1e-13 at
    # q = 5e-324 for this law) falls through to the per-draw test.  Either
    # way the draws are the per-draw path's, bit for bit, and q = 1 gives
    # u_star, which exp(ln u_star) misses here
    p = make_mdt(2.3, 0.0, Constant(0.3), u_star=10.0)
    normal = np.concatenate([[1.0], word_uniforms(stream_words(5, 0, 3000)),
                             [1.0]])
    blocks = [(normal, False),
              (np.concatenate([normal, [SMALLEST_Q, 1e-320]]), True)]
    refs = [_pure_power_per_draw(p, q) for q, _ in blocks]
    newton, calls = distribution._newton, []

    def recording(*args):
        calls.append(args[1].size)
        return newton(*args)

    monkeypatch.setattr(distribution, "_newton", recording)
    for (q, falls_through), ref in zip(blocks, refs):
        calls.clear()
        u = quantile(p, q)
        assert bool(calls) == falls_through
        assert u[0] == u[normal.size - 1] == p.u_star
        assert np.array_equal(u, ref)


def test_quantile_error_names_the_worst_residual(monkeypatch):
    # when the block bound expm1(max |f|) misses the tolerance, every
    # draw's residual q |expm1(f)| is computed, over two blocks, and the
    # error names the q with the largest
    p = make_mdt(3.0, 0.0)
    q = word_uniforms(stream_words(8, 0, 3 * distribution._BLOCK // 2))
    y_star = math.log(p.u_star)
    y = y_star - np.log(q) / p.beta
    f = distribution._log_tail_y(p, y) - (distribution._log_tail_y(p, y_star)
                                          + np.log(q))
    err = q * np.abs(np.expm1(f))
    assert 0 < err.max() <= 1e-13
    monkeypatch.setattr(distribution, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericError) as info:
        quantile(p, q)
    diag = info.value.diagnostics
    assert diag["q"] == q[np.argmax(err)]
    assert diag["max_abs_err"] == err.max()


def test_quantile_domain():
    with pytest.raises(DomainError):
        quantile(CANONICAL, 0.0)
    with pytest.raises(DomainError):
        quantile(CANONICAL, 1.5)


def test_sample_deterministic():
    p = make_mdt(4.0, 0.0)
    a = sample(p, seed=123, n=1000)
    b = sample(p, seed=123, n=1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample(p, seed=124, n=1000))


def test_sample_splittable_stream():
    # disjoint index ranges reproduce the single-shot sequence
    p = make_mdt(4.0, 0.0)
    whole = sample(p, seed=9, n=1000)
    parts = [sample(p, seed=9, n=250, offset=o) for o in (0, 250, 500, 750)]
    assert np.array_equal(whole, np.concatenate(parts))
    # a split across the boundary between two blocks of the stream
    cut = STREAM_BLOCK - 3
    whole = sample(p, seed=9, n=20, offset=cut - 7)
    parts = [sample(p, seed=9, n=7, offset=cut - 7),
             sample(p, seed=9, n=13, offset=cut)]
    assert np.array_equal(whole, np.concatenate(parts))


def test_word_decode():
    words = np.array([0, 1, 2 ** 11, 2 ** 64 - 1], dtype=np.uint64)
    q = word_uniforms(words)
    assert q.tolist() == [2.0 ** -53, 2.0 ** -53, 2.0 ** -52, 1.0]
    signed = sign_by_words(np.full(4, 2.5), words)
    assert signed.tolist() == [2.5, -2.5, 2.5, -2.5]
    # the same into a workspace, the input left as it was
    x, out = np.full(4, 2.5), np.empty(4)
    assert word_uniforms(words, out=out) is out and out.tolist() == q.tolist()
    assert sign_by_words(x, words, out=out).tolist() == signed.tolist()
    assert x.tolist() == [2.5] * 4
    # on the stream, the sign is balanced and the magnitude is uniform
    words = stream_words(3, 0, 10 ** 5)
    signs = sign_by_words(np.ones(words.size), words)
    assert abs(signs.mean()) <= 4.0 / math.sqrt(words.size)
    q = np.sort(word_uniforms(words))
    ecdf = np.arange(1, q.size + 1) / q.size
    assert np.max(np.abs(ecdf - q)) <= dkw_halfwidth(q.size, 1e-3)


def test_sample_mean_near_zero():
    p = make_mdt(4.0, 0.0)
    x = sample(p, seed=31337, n=10 ** 5)
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean()) <= 3 * se


def test_sample_tail_matches_survival():
    p = make_mdt(4.0, 0.0)
    x = sample(p, seed=2024, n=10 ** 5)
    u = 2 * p.u_star
    emp = np.mean(np.abs(x) > u)
    assert abs(emp - survival(p, u)) <= dkw_halfwidth(x.size, 1e-3)


def test_sample_rejects_empty():
    with pytest.raises(DomainError):
        sample(CANONICAL, seed=1, n=0)
    with pytest.raises(DomainError):
        sample(CANONICAL, seed=1, n=5, offset=-1)


def test_proportionality_beyond_activation():
    p = make_mdt(4.0, 1.0, parse_sv("lp(1)*ilp(1)"))
    u = np.geomspace(p.u_star, p.u_star * 1e6, 200)
    ratio = survival(p, u) / tail_formula(p, u)
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_custom_u_star_must_be_monotone():
    # gamma=6 peak is past e, so activating at e breaks monotonicity
    with pytest.raises(DomainError):
        make_mdt(3.0, 6.0, Constant(1.0), u_star=E)
