import dataclasses
import math

import numpy as np
import pytest

from modtail.bounds import (c1_pessimistic, calibrate_closed_constant,
                            closed_curve, closed_shape, fenchel_curve_bound,
                            lower_witness, q_bound_closed, q_bound_fenchel,
                            witness_curve)
from modtail.distribution import make_mdt, survival
from modtail.errors import DomainError
from modtail.fenchel import GeneratingFunction, tail_from_gls
from modtail.moments import DELTA_P, moment_from_tail, theta
from modtail.harness import (confidence_radius, default_u_grid, sample,
                             write_csv)
from modtail.slowvary import ONE, LogPower, parse_sv

E = math.e
EE = math.e ** math.e


ROSENTHAL_LAWS = [
    (4.0, 0.5, "lp(1)"), (4.0, 0.0, "c(1)"), (3.0, -1.0, "c(1)"),
    (3.0, -2.0, "lp(-1)"), (2.5, 0.5, "ilp(2)"), (4.0, -1.0, "c(1)"),
    (6.0, 1.0, "c(1)"), (2.05, 0.0, "c(1)"), (3.0, 6.0, "c(1)"),
    (5.0, -0.5, "c(3)*lp(1.5)"), (3.5, -3.0, "lp(-2)*ilp(1)"),
]


def test_rosenthal_dominates_single_draw():
    # at n = 1 the sum moment is the single moment, so the envelope
    # C1 theta(p) must sit above it for every p, not only on the 17-point
    # grid the constant is the max over
    for beta, gamma, v in ROSENTHAL_LAWS:
        params = make_mdt(beta, gamma, parse_sv(v))
        p = np.linspace(2.0, beta - DELTA_P, 200)
        env = c1_pessimistic(params) * theta(params, p)
        assert np.all(env >= moment_from_tail(params, p)), (beta, gamma, v)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: in regime B theta "
                   "vanishes at p = beta - 1 and is floored at THETA_MIN")
def test_rosenthal_dominates_single_draw_at_regime_b_zero():
    # C1 theta(3) reads 2.3e-3 against m_3 = 56.0 at (4, -1, c(1))
    params = make_mdt(4.0, -1.0)
    assert c1_pessimistic(params) * theta(params, 3.0) >= \
        moment_from_tail(params, 3.0)


@pytest.mark.parametrize("law, bits", [
    ((4.0, 0.0, "c(1)"), "0x1.d79dfc9915d85p+17"),
    ((3.0, -1.0, "c(1)"), "0x1.92000fc75b36ap+35"),
    ((3.0, -2.0, "lp(-1)"), "0x1.4bea0e1b27d15p+16"),
    ((2.5, 0.5, "ilp(2)"), "0x1.91d2efd3afcd5p+9"),
], ids=lambda x: "{:g},{:g},{}".format(*x) if isinstance(x, tuple) else None)
def test_c1_pessimistic_pinned(law, bits):
    # any change in the order of the constant's operations shows here
    beta, gamma, v = law
    assert c1_pessimistic.__wrapped__(make_mdt(beta, gamma, parse_sv(v))) == \
        float.fromhex(bits)


@pytest.mark.parametrize("c", [-5.0, math.nan, 0.0, math.inf])
def test_bound_constant_must_be_finite_positive(c):
    # a bad constant gives no bound at all, never a vacuous or NaN one
    params = make_mdt(4.0, 0.0)
    for call in (lambda: q_bound_closed(params, 10.0, c=c),
                 lambda: q_bound_fenchel(params, 10.0, c1=c),
                 lambda: closed_curve(params, c=c),
                 lambda: fenchel_curve_bound(params, c1=c),
                 lambda: confidence_radius(params, 100, 1e-3, c=c)):
        with pytest.raises(DomainError, match="finite and > 0"):
            call()


@pytest.mark.parametrize("n", [1, 4, 16, 64, 256])
def test_rosenthal_envelope_monte_carlo(n):
    # MC oracle for E|S_n|**3: the analytic envelope C1 theta(3) must
    # dominate it
    params = make_mdt(4.0, 0.0)
    bound = c1_pessimistic(params) * theta(params, 3.0)
    reps = 200000 // n + 1000
    x = sample(params, seed=300 + n, n=reps * n).reshape(reps, n)
    s3 = np.abs(x.sum(axis=1) / math.sqrt(n)) ** 3
    mc, se = s3.mean(), s3.std() / math.sqrt(reps)
    assert mc + 3 * se <= bound


def test_closed_shape_plugins():
    # constant-free shapes evaluated by hand
    pA = make_mdt(3.0, 0.0)
    assert closed_shape(pA, E) == pytest.approx(math.exp(-3), rel=1e-12)
    pA2 = make_mdt(3.0, 1.0)
    assert closed_shape(pA2, E) == pytest.approx(math.exp(-3), rel=1e-12)
    pB = make_mdt(3.0, -1.0)
    # at u = e**e: u**-3 * ln(ln(u**1)) with y = e gives e**(-3e) * 1
    assert closed_shape(pB, EE) == pytest.approx(math.exp(-3 * E), rel=1e-12)
    pC = make_mdt(3.0, -2.0, LogPower(-1.0))
    # V(y) = (1 + ln(1 + y))**(-1) evaluated at y = 1
    assert closed_shape(pC, E) == pytest.approx(
        math.exp(-3) / (1.0 + math.log(2.0)), rel=1e-12)


def test_closed_shape_domains():
    with pytest.raises(DomainError):
        closed_shape(make_mdt(3.0, 0.0), 2.0)
    with pytest.raises(DomainError):
        closed_shape(make_mdt(3.0, -1.0), E)      # regime B needs u >= e**e
    with pytest.raises(DomainError):
        closed_shape(make_mdt(3.0, -2.0), E)      # regime C needs vanishing V


def test_q_bound_closed_clamped_monotone():
    params = make_mdt(4.0, 1.0, LogPower(1.0))
    u = np.geomspace(E, 1e8, 300)
    q = q_bound_closed(params, u)
    assert np.all((0 <= q) & (q <= 1))
    assert np.all(np.diff(q) <= 1e-15)


def test_q_bound_fenchel_clamped_monotone():
    params = make_mdt(4.0, 0.0)
    u = np.geomspace(E, 1e8, 60)
    q = q_bound_fenchel(params, u)
    assert np.all((0 <= q) & (q <= 1))
    assert np.all(np.diff(q) <= 1e-15)
    with pytest.raises(DomainError):
        q_bound_fenchel(params, np.array([E, 2.0]))


@pytest.mark.parametrize("law", [(4.0, 0.0, "c(1)"), (3.0, -1.0, "c(1)"),
                                 (3.0, -2.0, "lp(-1)"), (2.5, 0.5, "ilp(2)")],
                         ids=lambda law: "{:g},{:g},{}".format(*law))
def test_q_bound_fenchel_batch_matches_pointwise(law):
    # the argmax is fixed to about 1e-8 and enters c1 ** (1/p*), so the
    # batch and the scalar calls agree to 1e-6, not to the last digit
    beta, gamma, v = law
    params = make_mdt(beta, gamma, parse_sv(v))
    u = default_u_grid(params, 64)
    u = u[u >= E * (1 - 1e-12)]
    batch = q_bound_fenchel(params, u)
    np.testing.assert_allclose(batch, [q_bound_fenchel(params, float(x)) for x in u],
                               rtol=1e-6)


@pytest.mark.parametrize("law, want", [
    ((4.0, 0.0, "c(1)"), [1.0, 1.0, 0.01466896019, 1.857140219e-05, 1.71810652e-08,
                          1.437182153e-11, 1.142110267e-14, 8.792321843e-18]),
    ((3.0, -1.0, "c(1)"), [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.395555153e-10]),
    ((3.0, -2.0, "lp(-1)"), [1.0, 1.0, 1.0, 3.759991355e-05, 1.551242098e-07,
                             6.399887181e-10, 2.640371608e-12, 1.089325801e-14]),
    ((2.5, 0.5, "ilp(2)"), [1.0, 1.0, 0.4433059445, 0.008167681848, 0.0001525868736,
                            2.384296093e-06, 3.396888128e-08, 4.571163911e-10]),
], ids=["4,0,c(1)", "3,-1,c(1)", "3,-2,lp(-1)", "2.5,0.5,ilp(2)"])
def test_q_bound_fenchel_pinned(law, want):
    # the pessimistic conjugate curve as the C1**(1/p*) fold gives it; the
    # argmax enters through that fold, hence 1e-6.  Replacing the fold by
    # the exact form min(1, C1 exp(-nu*(ln u))) moves these values, and
    # ROADMAP item 1 re-pins them when it does.
    beta, gamma, v = law
    params = make_mdt(beta, gamma, parse_sv(v))
    np.testing.assert_allclose(q_bound_fenchel(params, np.geomspace(E, 1e6, 8)),
                               want, rtol=1e-6)


def test_fenchel_tracks_closed_form():
    # both bounds decay at the u**(-beta) rate, so their log difference
    # stays bounded and nearly flat far out in the tail
    params = make_mdt(3.0, 0.0)
    u = np.exp(np.linspace(10.0, 30.0, 9))
    diff = np.log(q_bound_fenchel(params, u)) - np.log(q_bound_closed(params, u))
    assert np.all(np.abs(diff) < 20.0)
    assert diff.max() - diff.min() < 0.5


def test_lower_witness_is_survival():
    params = make_mdt(4.0, 0.0)
    u = np.geomspace(params.u_star, 1e4, 50)
    assert np.allclose(lower_witness(params, u), survival(params, u), rtol=1e-14)
    with pytest.raises(DomainError):
        lower_witness(params, 1.0)


def test_sandwich_with_calibrated_constant():
    # calibrate on the n=1 exact tail, then the closed bound must sit
    # between the witness and 1
    params = make_mdt(4.0, 0.0)
    u = np.geomspace(EE, 1e4, 80)
    truth = survival(params, u)
    c = calibrate_closed_constant(params, u, truth, slack=0.0)
    upper = q_bound_closed(params, u, c=c)
    lower = lower_witness(params, u)
    assert np.all(upper >= truth * (1 - 1e-12))
    assert np.all(upper >= lower * (1 - 1e-12))


def test_calibration_minimality():
    # halving the calibrated constant must break domination somewhere
    params = make_mdt(4.0, 0.0)
    u = np.geomspace(EE, 1e4, 80)
    truth = survival(params, u)
    c = calibrate_closed_constant(params, u, truth, slack=0.0)
    under = q_bound_closed(params, u, c=c / 2.0)
    assert np.any(under < truth)


def test_calibration_needs_a_cell_in_domain():
    # regime B's closed form starts at e**e: a grid below it calibrates
    # nothing
    params = make_mdt(3.0, -1.0)
    u = np.geomspace(params.u_star, 10.0, 8)
    with pytest.raises(DomainError):
        calibrate_closed_constant(params, u, survival(params, u), slack=0.0)


def test_ratio_upper_to_witness_grows_like_log():
    # regime A closed form carries one extra ln u factor over the witness
    params = make_mdt(4.0, 0.0)
    u = np.exp(np.linspace(3.0, 20.0, 40))
    ratio = q_bound_closed(params, u, c=1.0) / lower_witness(params, u)
    slope = np.polyfit(np.log(np.log(u)), np.log(ratio), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_scale_homogeneity_through_gls():
    # scaling the variable by 8 shifts the Chebyshev bound argument by 8
    params = make_mdt(4.0, 1.0)
    psi = GeneratingFunction.from_theta(params)
    for z in (50.0, 500.0):
        assert tail_from_gls(psi, 8.0, 8.0 * z) == pytest.approx(
            tail_from_gls(psi, 1.0, z), rel=1e-9)


def test_c1_pessimistic_cached_and_positive():
    params = make_mdt(4.0, 0.0)
    a = c1_pessimistic(params)
    b = c1_pessimistic(make_mdt(4.0, 0.0))
    assert a == b and a > 0


def test_equal_laws_are_one_law():
    # V = lp(1)*lp(-1) is V = 1: the law equals the pure power law, hashes
    # alike, shares its cache entries and its draws
    v = parse_sv("lp(1)*lp(-1)")
    assert v == ONE
    plain, written = make_mdt(4.0, 0.0), make_mdt(4.0, 0.0, v)
    assert written == plain and hash(written) == hash(plain)
    c1_pessimistic.cache_clear()
    c1_pessimistic(plain)
    c1_pessimistic(written)
    assert c1_pessimistic.cache_info().hits == 1
    assert sample(written, 5, 4096).tobytes() == sample(plain, 5, 4096).tobytes()


def test_curve_objects():
    params = make_mdt(4.0, 0.0)
    for curve, upper in ((closed_curve(params), True),
                         (fenchel_curve_bound(params), True),
                         (witness_curve(params), False)):
        assert curve.is_upper_bound() == upper
        assert curve.kind == ("upper" if upper else "lower")
        vals = curve.evaluate(np.geomspace(curve.u_min, 1e4, 10))
        assert np.all((0 <= vals) & (vals <= 1))
    # the kind decides, not the provenance string
    renamed = dataclasses.replace(witness_curve(params), provenance="witness")
    assert not renamed.is_upper_bound()
    with pytest.raises(DomainError):
        dataclasses.replace(witness_curve(params), kind="both")


def test_curve_csv_roundtrip(tmp_path):
    params = make_mdt(4.0, 0.0)
    curve = closed_curve(params)
    path = tmp_path / "curve.csv"
    u = np.geomspace(E, 1e3, 16)
    write_csv(path, f"# provenance={curve.provenance}\n# {params.describe()}\n",
              {"u": u, "bound": curve.evaluate(u)})
    data = np.loadtxt(path, delimiter=",", skiprows=3)
    assert np.allclose(data[:, 1], curve.evaluate(u), rtol=1e-15)
