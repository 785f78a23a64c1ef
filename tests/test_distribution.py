import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import chi2

from modtail import distribution
from modtail.distribution import (MdtParams, make_mdt, quantile, survival,
                                  tail_formula)
from modtail.errors import DomainError, NumericError
from modtail.harness import (STREAM_BLOCK, dkw_halfwidth, rotate_by_words,
                             sample, sign_by_words, stream_words,
                             word_uniforms)
from modtail.slowvary import (Constant, IterLogPower, LogPower, Product,
                              SlowlyVarying, parse_sv)

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
    with pytest.raises(DomainError, match="gamma"):
        MdtParams(beta=3.0, gamma=math.nan)


def test_survival_domain():
    for u in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            survival(CANONICAL, u)


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


def test_default_u_star_is_the_slope_root():
    # the log-tail slope -3 + 6/y vanishes at y = gamma/beta = 2, where the
    # log tail -6 + 6 ln 2 is negative; u_star sits on the slope <= 0 side
    p = make_mdt(3.0, 6.0)
    assert p.u_star == pytest.approx(E ** 2, rel=1e-12)
    assert distribution._log_tail_y(p, math.log(p.u_star), slope=True)[1] <= 0


def test_default_u_star_is_the_value_root():
    # c = 100 lifts the peak above 1: u_star is where the formula drops
    # back to 1, on the side where it is <= 1
    p = make_mdt(3.0, 6.0, Constant(100.0))
    assert 1.0 - 1e-12 <= tail_formula(p, p.u_star) <= 1.0


def test_activation_error_names_the_law():
    # gamma = 2000 keeps the log-tail slope -3 + 2000/y positive up to the
    # scan edge y = 400
    with pytest.raises(NumericError, match="scan edge") as info:
        make_mdt(3.0, 2000.0)
    assert info.value.diagnostics["law"].startswith("beta=3 gamma=2000 V=c(1) ")
    # the scan's probe has no activation point yet: its placeholder e is
    # not named as the law's
    assert info.value.diagnostics["law"].endswith(" u_star=unresolved")
    assert "2.718" not in info.value.diagnostics["law"]


def test_activation_beyond_the_search_names_the_law():
    # ln V = 4e6 keeps the formula above 1 until y = 4e6 / 3, past the
    # search's right end y = 1e6
    with pytest.raises(NumericError, match="never drops below 1") as info:
        make_mdt(3.0, 0.0, SlowlyVarying(ln_c=4e6))
    assert info.value.diagnostics["law"].startswith(
        "beta=3 gamma=0 V=c(exp(4e+06)) ")


def test_inverse_table_errors_name_the_law(monkeypatch):
    # no law in the grammar reaches these: a table wider than the
    # formula's range, and a Newton loop given no steps
    monkeypatch.setattr(distribution, "_TABLE_G_MAX", 1e7)
    with pytest.raises(NumericError, match="too flat") as info:
        quantile(make_mdt(3.0, 2.0), 0.5)
    assert info.value.diagnostics["law"].startswith("beta=3 gamma=2 ")
    monkeypatch.undo()
    monkeypatch.setattr(distribution, "_NEWTON_STEPS", 0)
    with pytest.raises(NumericError, match="failed to converge") as info:
        quantile(make_mdt(3.0, 2.0), 0.5)
    assert info.value.diagnostics["law"].startswith("beta=3 gamma=2 ")


def test_bisect():
    # the threshold search, _first_true: the first y with y**2 >= 2,
    # returned from the side where ok holds
    hi = distribution._first_true(lambda y: y * y >= 2.0, 1.0, 2.0, 1e-12)
    assert hi * hi >= 2.0
    assert hi == pytest.approx(math.sqrt(2.0), rel=1e-12)
    # a bracket already narrow enough comes back as it is
    assert distribution._first_true(lambda y: y >= 3.0, 3.0, 3.0, 1e-9) == 3.0
    # rel = 0 cannot be met: the loop stops once no double lies strictly
    # inside, at the smallest double where ok holds
    assert distribution._first_true(lambda y: y >= math.pi, 3.0, 4.0,
                                    0.0) == math.pi


def test_first_true_answers_at_its_ends():
    # lo itself when ok(lo) holds, read from that one call alone; None
    # when ok(hi) fails; else the narrowed side where ok holds
    calls = []

    def ok(y):
        calls.append(np.size(y))
        return np.asarray(y) >= 1.5

    assert distribution._first_true(ok, 1.7, 9.0, 1e-12) == 1.7
    assert calls == [1]
    assert distribution._first_true(ok, 0.5, 1.2, 1e-12) is None
    hi = distribution._first_true(ok, 1.0, 2.0, 1e-12)
    assert hi >= 1.5 and hi == pytest.approx(1.5, rel=1e-12)


def test_describe_prints_numbers_that_read_back():
    assert make_mdt(4.0, 0.0).describe().startswith("beta=4 gamma=0 V=c(1) ")
    assert make_mdt(3.1234567, 0.1234567).describe().startswith(
        "beta=3.1234567 gamma=0.1234567 ")


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


def test_quantile_closed_form_matches_general_path(monkeypatch):
    # the pure power law once by its closed form, once through the inverse
    # table and Newton, with the closed form switched off
    params = make_mdt(4.0, 0.0)
    q = np.concatenate([np.linspace(1e-3, 1.0, 2001), np.geomspace(SMALLEST_Q, 1.0, 2001)])
    closed = quantile(params, q)
    assert "_inverse_table" not in vars(params)
    monkeypatch.setattr(distribution, "_pure_power", lambda params: False)
    general = quantile(params, q)
    assert "_inverse_table" in vars(params)
    assert np.allclose(general, closed, rtol=1e-12, atol=0)


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
    # every interval's cubic is finite, and the start at each node is
    # that node's y exactly, whether the node's index or the one below is
    # taken
    table = p._inverse_table
    assert all(np.all(np.isfinite(c)) for c in (table.c1, table.c2, table.c3))
    assert np.array_equal(table.start(table.g)[1], table.y)


def _bisect(ok, lo: float, hi: float, rel: float) -> float:
    """Geometric bisection of a bracket 0 < lo <= hi with ok(lo) false
    and ok(hi) true, until hi / lo <= 1 + rel or the midpoint is an end.
    Returns hi, the side where ok holds."""
    while hi / lo > 1 + rel:
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            break
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _y_star_by_bisection(probe):
    """The activation search one scalar bisection step at a time: the
    reference for make_mdt's grid narrowing."""
    log_tail = distribution._log_tail_y
    ys = np.geomspace(1.0, 400.0, 4096)
    pos = np.flatnonzero(log_tail(probe, ys, slope=True)[1] > 0)
    y0 = 1.0
    if pos.size:
        y0 = _bisect(lambda y: log_tail(probe, y, slope=True)[1] <= 0,
                     float(ys[pos[-1]]), float(ys[pos[-1] + 1]), 1e-15)
    if log_tail(probe, y0) <= 0:
        return y0
    y_hi = y0 + 1.0
    while log_tail(probe, y_hi) > 0:
        y_hi *= 2.0
    return _bisect(lambda y: log_tail(probe, y) <= 0, y0, y_hi, 1e-15)


@given(beta=st.floats(2.01, 8.0, exclude_min=True),
       gamma=st.one_of(st.just(-1.0), st.floats(-6.0, 6.0)),
       v=grammar_v)
@settings(max_examples=150, deadline=None)
def test_default_u_star_matches_bisection(beta, gamma, v):
    # the activation point found on vectorized grids is the one scalar
    # bisection finds, and where that one activates the law, so does it:
    # the formula is <= 1 there and nonincreasing beyond
    probe = MdtParams(beta, gamma, v)
    y, y_ref = distribution._default_y_star(probe), _y_star_by_bisection(probe)
    # both stop on the side where the test holds, in brackets 1e-15 wide
    # (relative), so u_star = e**y agrees to 1e-14 while y_ref <= 5
    assert y == pytest.approx(y_ref, rel=2e-15)
    assert math.exp(y) == pytest.approx(math.exp(y_ref),
                                        rel=max(1e-14, 2e-15 * y_ref))
    try:
        make_mdt(beta, gamma, v, u_star=math.exp(y_ref))
    except DomainError:
        assume(False)
    p = make_mdt(beta, gamma, v)
    assert p.log_tail_star <= 1e-9
    ys = np.geomspace(math.log(p.u_star), max(400.0, 4 * math.log(p.u_star)), 2048)
    assert np.all(distribution._log_tail_y(p, ys, slope=True)[1] <= 1e-9)


@pytest.mark.parametrize("beta,gamma,v", [(3.0, 6.0, "c(1)"),
                                           (2.05, 3.0, "lp(2)*ilp(-1)")])
def test_quantile_fallback_where_slope_vanishes(beta, gamma, v, monkeypatch):
    # the log-tail slope vanishes at u_star, so y(g) goes like sqrt(g)
    # there and the table's start misses some draws with q near 1; they
    # go on in the safeguarded loop, which must give what it gives on its
    # own
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


def test_quantile_general_block_test(monkeypatch):
    # a tabled law's block whose largest residual passes the strictest
    # per-draw test is accepted whole, with no per-draw tolerance; where
    # the slope vanishes at u_star the block takes the per-draw test
    f_tol, sizes = distribution._f_tol, []

    def recording(q):
        sizes.append(q.size)
        return f_tol(q)

    monkeypatch.setattr(distribution, "_f_tol", recording)
    q = word_uniforms(stream_words(7, 0, 1 << 12))
    quantile(make_mdt(3.0, -2.0, LogPower(-1.0)), q)
    assert sizes == []
    quantile(make_mdt(3.0, 6.0), q)
    assert sizes == [q.size]


def _pure_power_per_draw(p, q):
    """The pure power law's per-draw path: the closed-form start, each
    draw's own f_tol and the safeguarded loop."""
    y_star = math.log(p.u_star)
    g = -np.log(q)
    y = y_star + g * (1.0 / p.beta)
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
    y = y_star + np.log(q) * (-1.0 / p.beta)
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


def _kernel_input():
    """2**16 uniforms on (0, 1] that do not come from the harness stream:
    the top 53 bits, ((r >> 11) + 1) 2**-53, of PCG64DXSM words keyed by
    SeedSequence([18, 0]).  A change to the stream or its decode leaves
    them as they are, so only the kernel or make_mdt moves a digest."""
    words = np.random.PCG64DXSM(np.random.SeedSequence([18, 0])).random_raw(1 << 16)
    return ((words >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53


@pytest.mark.parametrize("beta,gamma,v,falls_back,digest", [
    (3.0, -2.0, "lp(-1)", False,
     "09405aa8115fae25c03f79be07b857f7d9177d22bea9cf0f65b8fd64a175d488"),
    (3.0, -1.0, "c(2)", False,
     "4956ec5efa9d79725376daf6f6fd0be1789700ffe93e7fe3525daea3c0f2edd9"),
    (4.0, 0.5, "ilp(2)", False,
     "0d20258badcb95a50a95394d04c010000fda1f6c56a7bc9d8c1727acd2b39b1e"),
    (2.5, 1.5, "c(0.5)*lp(1)*ilp(-1)", False,
     "a76d509c1f58fdac6a61633ff70e3de0ddcf146d4b362be6804c0eaa905f65ad"),
    # laws whose slope vanishes at u_star: some draws take the fallback
    (3.0, 6.0, "c(1)", True,
     "55c700a60c3caac9170cf16b0740a80bbc0a33199c32a894767aa3436879e5a8"),
    # re-pinned when make_mdt's activation search moved this law's u_star
    # by its last bits; its id carries no digest, so a re-pin keeps it
    pytest.param(2.05, 3.0, "lp(2)*ilp(-1)", True,
                 "2aa247f19c1a575f8358a485d97f6b70c7280f9a60bb05629b6191d86601212d",
                 id="2.05-3.0-lp(2)*ilp(-1)-True")])
def test_golden_quantile(beta, gamma, v, falls_back, digest, monkeypatch):
    # the general-law kernel on four blocks of a fixed input, pinned by
    # digest: V's a, b and ln c and gamma in regimes A, B and C, so a
    # change to the table, its cubic start, the block test or the
    # fallback must keep every draw bit for bit.  On the interior laws
    # the start alone passes every draw, so no draw reaches the
    # safeguarded loop.  Draws are counted, not calls: a block that
    # misses the block test calls the loop with none
    params = make_mdt(beta, gamma, parse_sv(v))
    # built before counting: the table's own node solve is not a draw
    params._inverse_table
    newton, sent = distribution._newton, []

    def recording(params, target, *args):
        sent.append(target.size)
        return newton(params, target, *args)

    monkeypatch.setattr(distribution, "_newton", recording)
    u = quantile(params, _kernel_input())
    assert (sum(sent) > 0) == falls_back
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest


@given(beta=st.floats(2.01, 8.0, exclude_min=True),
       gamma=st.one_of(st.just(0.0), st.just(-1.0), st.floats(-6.0, 6.0)),
       v=grammar_v, y_max=st.floats(1.0, 1e4))
@settings(max_examples=150, deadline=None)
def test_log_tail_into_a_workspace(beta, gamma, v, y_max):
    # the log tail written into workspace rows equals the allocating call
    # bit for bit, and lands in the row the layout names
    p = MdtParams(beta, gamma, v)
    y = np.geomspace(1.0, y_max, 97)
    value = distribution._log_tail_y(p, y)
    ref = distribution._log_tail_y(p, y, slope=True)
    work = np.full((2, y.size), np.nan)
    got = distribution._log_tail_y(p, y, work=work)
    assert np.shares_memory(got, work[0])
    assert got.tobytes() == np.broadcast_to(value, y.shape).tobytes()
    assert value.tobytes() == ref[0].tobytes()


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


def test_negative_seed_is_a_domain_error():
    # every sampler reads the stream through stream_words
    p = make_mdt(4.0, 0.0)
    with pytest.raises(DomainError, match="seed"):
        sample(p, seed=-1, n=10)
    with pytest.raises(DomainError, match="seed"):
        stream_words(-1, 0, 10)


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
    # q = 1 - (r >> 12) 2**-52: the low 12 bits are not read
    words = np.array([0, 1, 2 ** 12, 2 ** 64 - 1], dtype=np.uint64)
    q = word_uniforms(words)
    assert q.tolist() == [1.0, 1.0, 1.0 - 2.0 ** -52, 2.0 ** -52]
    # the signed x is written over the words, x left as it was
    x, w = np.full(4, 2.5), words.copy()
    signed = sign_by_words(x, w)
    assert signed.tolist() == [2.5, -2.5, 2.5, -2.5]
    assert signed.dtype == np.float64 and np.shares_memory(signed, w)
    assert x.tolist() == [2.5] * 4
    # the uniforms into a workspace
    out = np.empty(4)
    assert word_uniforms(words, out=out) is out and out.tolist() == q.tolist()
    # on the stream, the sign is balanced and the magnitude is uniform
    words = stream_words(3, 0, 10 ** 5)
    signs = sign_by_words(np.ones(words.size), words.copy())
    assert abs(signs.mean()) <= 4.0 / math.sqrt(words.size)
    q = np.sort(word_uniforms(words))
    ecdf = np.arange(1, q.size + 1) / q.size
    assert np.max(np.abs(ecdf - q)) <= dkw_halfwidth(q.size, 1e-3)


@pytest.mark.parametrize("seed, block", [(3, 0), (3, 1), (3, 7), (4, 0)])
def test_stream_bits_the_pipeline_reads(seed, block):
    # each word gives the magnitude its top 52 bits, the sign its low bit
    # and the field's phase turn its top 12 bits; chi-square tests at
    # level 1e-4 on one whole block of the stream
    words = stream_words(seed, block, STREAM_BLOCK)
    q = word_uniforms(words)
    decile = np.minimum((q * 10).astype(np.intp), 9)
    per_decile = np.bincount(decile, minlength=10)
    expected = words.size / 10
    assert np.sum((per_decile - expected) ** 2 / expected) <= chi2.isf(1e-4, 9)
    # the sign bit is balanced within each decile of q, so it is balanced
    # and independent of the magnitude: 10 degrees of freedom at p = 1/2
    low = (words & np.uint64(1)).astype(np.intp)
    ones = np.bincount(decile, weights=low, minlength=10)
    assert np.sum((ones - per_decile / 2) ** 2 / (per_decile / 4)) <= \
        chi2.isf(1e-4, 10)
    turns = np.bincount((words >> np.uint64(52)).astype(np.intp), minlength=4096)
    expected = words.size / 4096
    assert np.sum((turns - expected) ** 2 / expected) <= chi2.isf(1e-4, 4095)


def test_stream_blocks_and_seeds_differ():
    # two blocks of one seed, and one block of two seeds, share no word
    # (a chance collision among 2**17 words has probability about 5e-10)
    a, b, c = (stream_words(s, blk, 2 ** 16) for s, blk in ((3, 0), (3, 1), (4, 0)))
    assert np.intersect1d(a, b).size == 0
    assert np.intersect1d(a, c).size == 0


def test_rotation_by_words():
    # 2**16 stream words (four blocks) and the edges: the smallest and
    # largest word, and j = 2**41 - 1, whose + 1 carries into i
    carry = ((2 ** 41 - 1) << 11) | (5 << 52) | 1
    words = np.concatenate([stream_words(9, 0, 2 ** 16), np.array(
        [0, 2 ** 64 - 1, carry], dtype=np.uint64)])
    # the phase decode q = ((r >> 11) + 1) 2**-53
    phase = (words >> np.uint64(11)) + np.uint64(1)
    phase = phase * 2.0 ** -53 * (2.0 * math.pi)
    cos, sin = rotate_by_words(np.ones(words.size), words.copy())
    assert np.max(np.abs(cos - np.cos(phase))) <= 2e-15
    assert np.max(np.abs(sin - np.sin(phase))) <= 2e-15
    # x cos is written over the words and x sin over x
    x = sample(CANONICAL, seed=4, n=words.size)
    w, xs = words.copy(), x.copy()
    x_cos, x_sin = rotate_by_words(xs, w)
    assert np.shares_memory(x_cos, w) and x_sin is xs
    assert np.all(np.abs(x_cos - x * np.cos(phase)) <= 4e-15 * np.abs(x))
    assert np.all(np.abs(x_sin - x * np.sin(phase)) <= 4e-15 * np.abs(x))


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
    with pytest.raises(DomainError, match="not nonincreasing"):
        make_mdt(3.0, 6.0, Constant(1.0), u_star=E)
    # and with V = 100 the formula exceeds 1 there: ln tail(e) = -3 + ln 100
    with pytest.raises(DomainError, match="exceeds 1 at u_star"):
        make_mdt(3.0, 6.0, Constant(100.0), u_star=E)
