import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from modtail.errors import DomainError
from modtail.slowvary import (Constant, IterLogPower, LogPower, Product,
                              SlowlyVarying, format_sv,
                              limit_at_infinity_is_zero, parse_sv, sv_eval,
                              sv_log)

ATOMS = {"c": Constant, "lp": LogPower, "ilp": IterLogPower}


def random_atoms():
    return st.lists(st.one_of(
        st.tuples(st.just("c"), st.floats(0.01, 100.0)),
        st.tuples(st.just("lp"), st.floats(-3.0, 3.0)),
        st.tuples(st.just("ilp"), st.floats(-3.0, 3.0)),
    ), min_size=1, max_size=6)


def build(atoms):
    return functools.reduce(Product, (ATOMS[kind](x) for kind, x in atoms))


def random_factor():
    return random_atoms().map(build)


def reference_eval(atoms, y):
    # independent transcription of the atom formulas
    out = 1.0
    for kind, x in atoms:
        if kind == "c":
            out *= x
        elif kind == "lp":
            out *= (1.0 + math.log(1.0 + y)) ** x
        else:
            out *= (1.0 + math.log(1.0 + math.log(1.0 + y))) ** x
    return out


def test_constant_eval():
    assert sv_eval(Constant(1.0), 100.0) == 1.0


def test_zero_exponent():
    assert sv_eval(LogPower(0.0), 7.0) == 1.0


def test_logpower_plugin():
    # at y = e - 1 the inner log is 1, so (1 + 1)**2 = 4
    assert sv_eval(LogPower(2.0), math.e - 1.0) == pytest.approx(4.0, rel=1e-14)


def test_eval_rejects_bad_input():
    with pytest.raises(DomainError):
        sv_eval(Constant(1.0), -1.0)
    with pytest.raises(DomainError):
        sv_eval(Constant(1.0), math.inf)


def test_constant_must_be_positive():
    with pytest.raises(DomainError):
        Constant(0.0)
    with pytest.raises(DomainError):
        Constant(-2.0)
    for bad in ({"ln_c": math.inf}, {"a": math.nan}, {"b": -math.inf}):
        with pytest.raises(DomainError, match="finite"):
            SlowlyVarying(**bad)


@given(random_factor(), st.floats(0.0, 1e12))
@settings(max_examples=300)
def test_positivity(v, y):
    assert sv_eval(v, y) > 0


@given(random_atoms(), st.floats(0.0, 1e8))
@settings(max_examples=200)
def test_matches_reference(atoms, y):
    assert sv_eval(build(atoms), y) == pytest.approx(reference_eval(atoms, y), rel=1e-12)


@given(random_factor())
@example(parse_sv("ilp(2)*lp(-1)*ilp(2)"))
@settings(max_examples=100)
def test_slow_variation_ratio(v):
    # ln V(lam y) - ln V(y) is the integral of the log-derivative over
    # [y, lam y], so |ln ratio| <= (lam - 1) y max |slope| there.  The
    # slope may change sign (opposite lp and ilp exponents), so neither
    # the slope at y alone nor a decrease of the ratio in y is implied.
    for lam in (2.0, 10.0):
        for y in (1e6, 1e9, 1e12):
            log_ratio = abs(math.log(sv_eval(v, lam * y) / sv_eval(v, y)))
            slopes = sv_log(v, np.geomspace(y, lam * y, 1001), deriv=True)[1]
            cap = (lam - 1.0) * y * np.max(np.abs(slopes))
            assert log_ratio <= cap * (1.0 + 1e-9) + 1e-12


@given(random_factor(), st.floats(1.0, 1e6))
@settings(max_examples=100)
def test_log_deriv_matches_finite_difference(v, y):
    h = 1e-5 * max(1.0, y)
    fd = (math.log(sv_eval(v, y + h)) - math.log(sv_eval(v, y - h))) / (2 * h)
    assert sv_log(v, y, deriv=True)[1] == pytest.approx(fd, rel=1e-4, abs=1e-10)


@given(random_factor(), st.floats(0.0, 1e12))
@settings(max_examples=300)
def test_log_space_matches_log_of_eval(v, y):
    # sv_log sums exponents times iterated logs, sv_eval multiplies powers;
    # relative to 1 where ln V is near 0, as opposite exponents may cancel
    ys = np.array([y, 0.0, 1.0, 1e3, 1e12])
    want = np.log(sv_eval(v, ys))
    got = sv_log(v, ys)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    value, _ = sv_log(v, ys, deriv=True)
    assert np.array_equal(np.broadcast_to(value, ys.shape),
                          np.broadcast_to(got, ys.shape))


def test_limit_trivial_cases():
    assert not limit_at_infinity_is_zero(Constant(1.0))
    assert limit_at_infinity_is_zero(LogPower(-2.0))


def test_limit_symbolic_vs_numeric():
    # cancelling log powers, decided by the iterated-log factor
    v = Product(Product(LogPower(1.0), LogPower(-1.0)), IterLogPower(-1.0))
    assert limit_at_infinity_is_zero(v)
    vals = [sv_eval(v, y) for y in (1e6, 1e9, 1e12)]
    assert vals[0] > vals[1] > vals[2]


def test_parse_roundtrip():
    # format_sv prints the canonical string, which leaves the unit c(1) out
    v = parse_sv("c(1)*lp(2)*ilp(-1)")
    assert format_sv(v) == "lp(2)*ilp(-1)"
    assert parse_sv(format_sv(v)) == v
    # short numbers keep their :g form; longer ones are printed in full
    assert format_sv(parse_sv("c(2)*ilp(0.5)")) == "c(2)*ilp(0.5)"
    assert format_sv(parse_sv("lp(0.1234567)")) == "lp(0.1234567)"
    # a c that is no normal double is printed by its log, and read back
    assert format_sv(SlowlyVarying(ln_c=4e6, a=1.0)) == "c(exp(4e+06))*lp(1)"
    for ln_c, text in ((-800.0, "c(exp(-800))"), (-745.0, "c(exp(-745))"),
                       (800.0, "c(exp(800))"), (4e6, "c(exp(4e+06))")):
        assert format_sv(SlowlyVarying(ln_c=ln_c)) == text
        assert parse_sv(text) == SlowlyVarying(ln_c=ln_c)
    assert sv_eval(v, 0.0) == pytest.approx(1.0)


@given(st.floats(-1e6, 1e6), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
@example(-745.0, 0.0, 0.0)
@example(-708.5, 1.0, 0.0)
@example(709.8, 0.0, 1.0)
@settings(max_examples=300, deadline=None)
def test_format_roundtrips(ln_c, a, b):
    # a, b and an exp-form ln c come back exactly; a c(x) form's ln c to
    # within the rounding of exp and log
    text = format_sv(SlowlyVarying(ln_c, a, b))
    back = parse_sv(text)
    assert (back.a, back.b) == (a, b)
    if "exp(" in text:
        assert back.ln_c == ln_c
    else:
        assert abs(back.ln_c - ln_c) <= 4e-16 * max(1.0, abs(ln_c))


def test_parse_rejects_garbage():
    for bad in ("", "foo(1)", "lp(x)", "c(1)+lp(2)"):
        with pytest.raises(DomainError):
            parse_sv(bad)
