import math

import numpy as np
import pytest

from modtail import distribution
from modtail.bounds import closed_curve, witness_curve
from modtail.distribution import make_mdt, survival
from modtail.entropy import FieldModel
from modtail.errors import DomainError, NumericError
from modtail.harness import (certify, confidence_radius, coverage_miss_rate,
                             dkw_halfwidth, make_plan, simulate,
                             simulate_field, tail_slope)

PARAMS = make_mdt(4.0, 0.0)


def small_plan(seed=11, **kw):
    kw.setdefault("n_grid", (1, 2, 4))
    kw.setdefault("reps", 20000)
    kw.setdefault("u_grid", np.geomspace(PARAMS.u_star, 30.0, 24))
    return make_plan(PARAMS, seed=seed, **kw)


def test_dkw_values():
    assert dkw_halfwidth(10000, 1e-3) == pytest.approx(
        math.sqrt(math.log(2000.0) / 20000.0))
    with pytest.raises(DomainError):
        dkw_halfwidth(100, 0.0)


def test_dkw_scales_with_reps():
    a = dkw_halfwidth(10000, 1e-3)
    b = dkw_halfwidth(40000, 1e-3)
    assert a / b == pytest.approx(2.0)


def test_plan_validation():
    with pytest.raises(DomainError):
        make_plan(PARAMS, seed=1, n_grid=(4, 2), reps=20000)
    with pytest.raises(DomainError):
        make_plan(PARAMS, seed=1, reps=10)


def test_budget_guard():
    plan = small_plan(budget=1000)
    with pytest.raises(DomainError):
        simulate(plan)


def test_single_n_matches_survival():
    # with n_grid = (1,), Qhat estimates the survival function itself
    plan = make_plan(PARAMS, seed=17, n_grid=(1,), reps=10 ** 5,
                     u_grid=np.geomspace(PARAMS.u_star, 30.0, 24))
    report = simulate(plan)
    truth = survival(PARAMS, report.u_grid)
    assert np.all(np.abs(report.qhat - truth) <= report.dkw)


def test_simulation_deterministic():
    a = simulate(small_plan())
    b = simulate(small_plan())
    assert np.array_equal(a.counts, b.counts)
    c = simulate(small_plan(seed=12))
    assert not np.array_equal(a.counts, c.counts)


def test_thread_count_invariance():
    base = simulate(small_plan(threads=1))
    threaded = simulate(small_plan(threads=8))
    assert np.array_equal(base.counts, threaded.counts)


def test_qhat_nonincreasing_in_u():
    report = simulate(small_plan())
    assert np.all(np.diff(report.qhat) <= 0 + 1e-15)
    assert np.all(report.tails <= 1.0)


def test_dkw_band_soundness():
    # over repeated seeds the uniform band should essentially never miss
    u = np.geomspace(PARAMS.u_star, 20.0, 12)
    truth = survival(PARAMS, u)
    misses = 0
    for seed in range(100):
        plan = make_plan(PARAMS, seed=seed, n_grid=(1,), reps=2000, u_grid=u,
                         dkw_delta=1e-3)
        report = simulate(plan)
        if np.any(np.abs(report.qhat - truth) > report.dkw):
            misses += 1
    assert misses <= 1


def test_certify_pass_and_fail():
    report = simulate(small_plan(reps=50000))
    good = closed_curve(PARAMS)
    wit = witness_curve(PARAMS)
    result = certify(report, [good, wit])
    assert result.passed
    assert all(v.checked_cells > 0 for v in result.verdicts)
    # shrink the constant below the witness level to force violations
    bad = closed_curve(PARAMS, c=1e-6)
    result_bad = certify(report, [bad])
    assert not result_bad.passed
    assert len(result_bad.verdicts[0].violations) > 0


def test_certify_json(tmp_path):
    report = simulate(small_plan())
    result = certify(report, [closed_curve(PARAMS)])
    path = tmp_path / "cert.json"
    result.to_json(path)
    import json
    payload = json.loads(path.read_text())
    assert payload["passed"] is True
    assert payload["verdicts"][0]["provenance"].startswith("closed-form")


def test_report_csv_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    simulate(small_plan()).to_csv(p1)
    simulate(small_plan(threads=4)).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_tail_slope_recovers_beta():
    plan = make_plan(PARAMS, seed=777, n_grid=(1,), reps=2 * 10 ** 6,
                     u_grid=np.geomspace(10.0, 200.0, 32), threads=8)
    report = simulate(plan)
    est = tail_slope(report, min_count=100)
    assert est.slope == pytest.approx(-4.0, abs=0.4)


def test_tail_slope_needs_cells():
    report = simulate(small_plan(u_grid=np.geomspace(1000.0, 2000.0, 5)))
    with pytest.raises(DomainError):
        tail_slope(report)


def test_confidence_radius_boundary():
    res = confidence_radius(PARAMS, n=100, delta=1.0)
    assert res.attained
    # delta = 1 is met immediately at the domain edge
    assert res.radius == pytest.approx(res.search_range[0])


def test_confidence_radius_scales_with_n():
    r1 = confidence_radius(PARAMS, n=100, delta=1e-3)
    r4 = confidence_radius(PARAMS, n=400, delta=1e-3)
    assert r1.attained and r4.attained
    # the bound depends on n only through sqrt(n) scaling of the argument
    assert r4.radius == pytest.approx(r1.radius / 2.0, rel=1e-9)


def test_confidence_radius_certifies_bound_level():
    from modtail.bounds import q_bound_closed
    res = confidence_radius(PARAMS, n=10000, delta=1e-3)
    assert res.attained
    assert q_bound_closed(PARAMS, math.sqrt(10000) * res.radius,
                          c=res.constant) <= 1e-3 * (1 + 1e-6)


def test_coverage_respects_radius():
    res = confidence_radius(PARAMS, n=1000, delta=1e-2)
    miss = coverage_miss_rate(PARAMS, n=1000, radius=res.radius,
                              trials=2000, seed=5)
    assert miss <= 1e-2 + 3 * math.sqrt(1e-2 / 2000)


def test_field_simulation_deterministic_and_threaded():
    model = FieldModel(params=PARAMS, weights=(1.0, 0.5, 0.25), resolution=16)
    plan = make_plan(PARAMS, seed=21, n_grid=(1, 2), reps=5000,
                     u_grid=np.geomspace(4.0, 50.0, 12))
    a = simulate_field(model, plan)
    plan8 = make_plan(PARAMS, seed=21, n_grid=(1, 2), reps=5000,
                      u_grid=np.geomspace(4.0, 50.0, 12), threads=8)
    b = simulate_field(model, plan8)
    assert a.statistic == "field-sup"
    assert np.array_equal(a.counts, b.counts)


def test_field_sup_grows_with_resolution():
    # doubling M takes the max over a superset of grid points, so every
    # exceedance count is nondecreasing at the same seed
    plan = make_plan(PARAMS, seed=33, n_grid=(1, 4), reps=5000,
                     u_grid=np.geomspace(4.0, 50.0, 12))
    weights = (1.0, 0.5, 0.25)
    m8 = simulate_field(FieldModel(PARAMS, weights, resolution=8), plan)
    m16 = simulate_field(FieldModel(PARAMS, weights, resolution=16), plan)
    assert np.all(m16.counts >= m8.counts)


def test_field_single_component_single_point():
    # J=1, M=1, z=0: the statistic is |a_1 cos(U) xi| summed, a scalar
    # heavy-tailed sum with a phase factor, bounded by the scalar sum
    model = FieldModel(params=PARAMS, weights=(1.0,), resolution=1)
    plan = make_plan(PARAMS, seed=44, n_grid=(1,), reps=20000,
                     u_grid=np.geomspace(PARAMS.u_star, 30.0, 10))
    report = simulate_field(model, plan)
    # |xi cos(U)| <= |xi|, so the field tail sits below the scalar survival
    truth = survival(PARAMS, report.u_grid)
    assert np.all(report.qhat <= truth + report.dkw)


@pytest.mark.parametrize("runner", ["simulate", "simulate_field", "coverage"])
def test_quantile_failure_names_its_chunk(runner, monkeypatch):
    monkeypatch.setattr(distribution, "_RESIDUAL_TOL", -1.0)
    plan = small_plan(seed=5, n_grid=(3,), reps=1000, threads=2)
    with pytest.raises(NumericError) as info:
        if runner == "simulate":
            simulate(plan)
        elif runner == "simulate_field":
            simulate_field(FieldModel(PARAMS, (1.0, 0.5), resolution=4), plan)
        else:
            coverage_miss_rate(PARAMS, n=3, radius=1.0, trials=100, seed=5)
    diag = info.value.diagnostics
    assert diag["law"] == PARAMS.describe()
    assert 0 < diag["q"] <= 1
    assert (diag["seed"], diag["n"], diag["chunk"]) == (5, 3, 0)
