import hashlib
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modtail import distribution, harness
from modtail.bounds import (TailCurve, calibrate_closed_constant, closed_curve,
                            q_bound_closed, witness_curve)
from modtail.distribution import make_mdt, survival
from modtail.entropy import FieldModel, net_bound_level
from modtail.errors import DomainError, NumericError
from modtail.harness import (EmpiricalTailReport, certify, confidence_radius,
                             coverage_miss_rate, default_u_grid, dkw_halfwidth,
                             make_plan, sample, simulate, simulate_field,
                             stream_words, tail_slope)
from modtail.slowvary import parse_sv

PARAMS = make_mdt(4.0, 0.0)


def small_plan(seed=11, **kw):
    kw.setdefault("n_grid", (1, 2, 4))
    kw.setdefault("reps", 20000)
    kw.setdefault("u_grid", np.geomspace(PARAMS.u_star, 30.0, 24))
    return make_plan(PARAMS, seed=seed, **kw)


def assert_no_child():
    # no child of this process is left, running or a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def started(monkeypatch):
    """The lanes _run forks a child for, in the order it starts them."""
    lanes = []
    start = harness._start_lane

    def recording(fn, k):
        lanes.append(k)
        return start(fn, k)

    monkeypatch.setattr(harness, "_start_lane", recording)
    return lanes


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
    # the guard counts the draws made: one block of n_max = 4 draws per
    # replication, times the J = 2 components for the field
    simulate(small_plan(budget=80000))
    with pytest.raises(DomainError):
        simulate(small_plan(budget=79999))
    model = FieldModel(PARAMS, (1.0, 0.5), resolution=4)
    simulate_field(model, small_plan(reps=1000, budget=8000))
    with pytest.raises(DomainError):
        simulate_field(model, small_plan(reps=1000, budget=7999))


def test_dkw_is_joint_over_the_n_grid(tmp_path):
    # the per-n tails share draws, so the band splits its level over the
    # grid (Bonferroni) and holds for all of them at once
    plan = small_plan()
    report = EmpiricalTailReport(plan=plan, counts=np.zeros((3, 24), np.int64))
    assert report.dkw == dkw_halfwidth(20000, 1e-3 / 3)
    report.to_csv(tmp_path / "r.csv")
    assert "# dkw joint level=0.999 split over 3 n: delta_n=0.000333333" in \
        (tmp_path / "r.csv").read_text()
    # a single n keeps the single-CDF band
    single = EmpiricalTailReport(plan=small_plan(n_grid=(1,)),
                                 counts=np.zeros((1, 24), np.int64))
    assert single.dkw == math.sqrt(math.log(2.0 / 1e-3) / (2.0 * 20000))


def test_single_n_matches_survival():
    # with n_grid = (1,), Qhat estimates the survival function itself
    plan = make_plan(PARAMS, seed=17, n_grid=(1,), reps=10 ** 5,
                     u_grid=np.geomspace(PARAMS.u_star, 30.0, 24))
    report = simulate(plan)
    truth = survival(PARAMS, report.u_grid)
    assert np.all(np.abs(report.qhat - truth) <= report.dkw)


def test_chunks_read_the_sample_stream():
    # with n_grid = (1,), S_1 is the draw itself, and the one chunk reads
    # the start of block 0 of the seed's stream: the counts are sample()'s
    u = np.geomspace(PARAMS.u_star, 30.0, 24)
    report = simulate(make_plan(PARAMS, seed=17, n_grid=(1,), reps=5000,
                                u_grid=u))
    x = np.abs(sample(PARAMS, seed=17, n=5000))
    assert np.array_equal(report.counts[0], (x[:, None] > u).sum(axis=0))


def test_draws_written_over_the_words():
    # the pipeline's only chunk-sized array is the words it consumes;
    # 40000 words make two full blocks and a short one
    words = stream_words(17, 0, 40000)
    x = harness._draws(PARAMS, words.reshape(40, 1000))
    assert x.shape == (40, 1000) and np.shares_memory(x, words)
    assert np.array_equal(x.reshape(-1), sample(PARAMS, seed=17, n=40000))


def test_samplers_call_quantile_with_two_positional_arguments(started,
                                                                 monkeypatch):
    # a wrapper that takes (params, q) and nothing else, as the benchmark's
    # draw counter does, sees every draw of each sampler in blocks of at
    # most _BLOCK; on one lane every chunk runs in this process
    kernel, sizes = harness.quantile, []

    def strict(params, q, /):
        sizes.append(q.size)
        return kernel(params, q)

    monkeypatch.setattr(harness, "quantile", strict)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
    simulate(small_plan(reps=5000, threads=1))
    made = [sum(sizes)]
    model = FieldModel(PARAMS, (1.0, 0.5), resolution=4)
    simulate_field(model, small_plan(n_grid=(1, 3), reps=3000, threads=1))
    made.append(sum(sizes) - sum(made))
    coverage_miss_rate(PARAMS, n=3, radius=1.0, trials=100000, seed=5)
    made.append(sum(sizes) - sum(made))
    # the field's phase words are not draws of the law
    assert made == [5000 * 4, 3000 * 3 * 2, 100000 * 3]
    assert max(sizes) <= distribution._BLOCK
    assert started == []


def test_prefix_sums_match_independent_sums():
    x = sample(PARAMS, seed=60, n=4000).reshape(500, 8)
    sums = harness._prefix_sums(x, (1, 2, 4, 8))
    assert np.allclose(sums, x.cumsum(axis=1)[:, [0, 1, 3, 7]],
                       rtol=1e-12, atol=1e-12)
    # the S_4 column, built from shared blocks, against row sums of
    # independent draws: two-sample KS statistic on the u-grid below the
    # asymptotic critical value at level 1e-3
    reps = 20000
    u = np.geomspace(0.05, 60.0, 200)
    report = simulate(make_plan(PARAMS, seed=61, n_grid=(1, 2, 4, 8),
                                reps=reps, u_grid=u))
    s4 = np.abs(sample(PARAMS, seed=62, n=4 * reps).reshape(reps, 4)
                .sum(axis=1)) / 2.0
    ks = np.max(np.abs(report.tails[2] - (s4[:, None] > u).mean(axis=0)))
    assert ks <= math.sqrt(-0.5 * math.log(1e-3 / 2)) * math.sqrt(2.0 / reps)


@settings(max_examples=60, deadline=None)
@given(grid=st.sets(st.integers(1, 64), min_size=1, max_size=12),
       lead=st.sampled_from([1, 2]), width=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_prefix_sums_select_the_running_sum(grid, lead, width, seed):
    # the chunk shapes of both statistics: (1, n_max, m) for |S_n| and
    # (2, n_max, m J) for the field; rounding is bounded by the sums of
    # magnitudes, 1e-12 relative to them
    n_grid = tuple(sorted(grid))
    x = sample(PARAMS, seed=seed, n=lead * n_grid[-1] * width).reshape(
        lead, n_grid[-1], width)
    cols = np.array(n_grid) - 1
    want = np.cumsum(x, axis=1)[:, cols]
    got = harness._prefix_sums(x, n_grid)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.cumsum(np.abs(x), axis=1)[:, cols])


def test_chunk_layout_ignores_threads():
    # each chunk reports (1, words, replications) in the row of the
    # stream block it read, so what a child lane saw reaches the caller
    firsts = [int(stream_words(3, ci, 1)[0]) for ci in (0, 1)]

    def statistic(words, m):
        seen = np.zeros((2, 3), dtype=np.int64)
        seen[firsts.index(int(words[0]))] = (1, words.size, m)
        return seen

    layouts = [harness._run(3, 5000, 100, 100, threads, statistic)
               for threads in (1, 2, 8)]
    assert layouts[0][:, 2].sum() == 5000
    assert np.array_equal(layouts[0], layouts[1])
    assert np.array_equal(layouts[0], layouts[2])
    # about 2**18 words per chunk; chunk ci reads block ci of the stream
    assert harness._chunks(5000, 100) == [(0, 2621), (1, 2379)]
    assert layouts[0].tolist() == [[1, 262100, 2621], [1, 237900, 2379]]


def test_worker_pool_capped_by_chunks(started, monkeypatch):
    # lanes = min(threads, usable CPUs, chunks); the caller runs lane 0,
    # so a child is started for each of lanes 1, 2, ...
    for cpus, threads, reps, lanes in ((2, 8, 5000, 2), (2, 8, 100, 1),
                                       (1, 8, 5000, 1), (2, 1, 5000, 1)):
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        assert harness._run(3, reps, 100, 100, threads, lambda w, m: m) == reps
        assert started == list(range(1, lanes))
        started.clear()


@pytest.mark.parametrize("beta,gamma,v,digest", [
    (4.0, 0.0, "c(1)",
     "0ad29ef20917d29202b5a26596bfd35c09cca76e3e40633335cc39ace65b0c66"),
    (3.0, -2.0, "lp(-1)",
     "6eeecb2ef23a0e6844798b26ccd989c369eb8db4f46b1e62ecd4937f307e80cd")],
    ids=["4.0-0.0-c(1)", "3.0--2.0-lp(-1)"])
def test_golden_draws(beta, gamma, v, digest):
    # the exceedance counts of a fixed plan, pinned by digest: a change to
    # the sampling pipeline must keep every draw bit for bit.  1000 reps
    # of n_max = 1024 make four chunks, the last one short, so two
    # workers share them
    params = make_mdt(beta, gamma, parse_sv(v))
    for threads in (1, 2):
        report = simulate(make_plan(params, seed=5, reps=1000,
                                    u_grid=default_u_grid(params, 16),
                                    threads=threads))
        assert report.counts.dtype == np.int64
        assert hashlib.sha256(report.counts.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("resolution,digest", [
    (1, "9faa6ea2738521a8b687a1ff4ff8decb9676693195783a73e0b3cf662460a178"),
    (7, "23129f8388355233544c3ea28631c0917ef8b88a35e41584fc9c42b707eb722f"),
    (16, "aa2724fea93588e16f965a332338beab481d7dcb5dc6d0197ce86feab5fb1fd1")],
    ids=["1", "7", "16"])
def test_golden_field(resolution, digest):
    # the field's exceedance counts, pinned by digest for the single
    # point, an odd and an even grid: a change to the field kernel must
    # keep every count
    model = FieldModel(PARAMS, (1.0, 0.5, 0.25), resolution=resolution)
    for threads in (1, 2):
        report = simulate_field(model, make_plan(
            PARAMS, seed=5, n_grid=(1, 2, 4), reps=2000,
            u_grid=np.geomspace(4.0, 50.0, 12), threads=threads))
        assert report.counts.dtype == np.int64
        assert hashlib.sha256(report.counts.tobytes()).hexdigest() == digest


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


def test_certify_fails_a_curve_checked_on_no_cell():
    # regime B's closed form starts at e**e, above this whole u-grid
    params = make_mdt(3.0, -1.0)
    plan = make_plan(params, seed=3, n_grid=(1, 2), reps=1000,
                     u_grid=np.geomspace(params.u_star, 10.0, 8))
    result = certify(simulate(plan), [closed_curve(params), witness_curve(params)])
    closed, witness = result.verdicts
    assert (closed.checked_cells, closed.passed) == (0, False)
    assert witness.checked_cells == 8 and witness.passed
    assert not result.passed


def test_certify_fails_a_nan_curve():
    # a NaN value bounds nothing: every checked cell is a violation, for
    # an upper bound and for a lower witness alike
    report = simulate(small_plan(reps=1000))
    curves = [TailCurve(fn=lambda u: np.full(u.shape, np.nan), provenance=kind,
                        u_min=PARAMS.u_star, kind=kind)
              for kind in ("upper", "lower")]
    result = certify(report, curves)
    assert not result.passed
    for verdict in result.verdicts:
        assert not verdict.passed
        assert len(verdict.violations) == verdict.checked_cells == 24


def test_calibration_on_saturated_cells_certifies():
    # qhat + slack >= 1 on every reference cell: the constant must lift
    # the clamped bound to 1 there, or a fresh run at qhat = 1 fails it
    u = PARAMS.u_star * np.array([1.0, 1.01])
    ref = simulate(make_plan(PARAMS, seed=5, n_grid=(1,), reps=1000, u_grid=u))
    slack = 2.0 * ref.dkw
    assert np.all(ref.qhat + slack >= 1.0)
    c = calibrate_closed_constant(PARAMS, ref.u_grid, ref.qhat, slack)
    fresh = simulate(make_plan(PARAMS, seed=6, n_grid=(1,), reps=1000, u_grid=u))
    assert certify(fresh, [closed_curve(PARAMS, c=c)]).passed


def test_u_grid_needs_a_point_on_a_finite_range():
    for points, u_min, u_max in ((0, None, None), (-3, None, None),
                                 (8, None, 0.0), (8, None, -2.0),
                                 (8, 50.0, 5.0), (8, None, math.inf)):
        with pytest.raises(DomainError):
            default_u_grid(PARAMS, points, u_min, u_max)
    with pytest.raises(DomainError):
        make_plan(PARAMS, seed=1, u_grid=np.array([]))
    # u_min and u_max carry the CLI's plan.u_min and plan.u_max
    assert default_u_grid(PARAMS, 1, u_min=0.5, u_max=40.0)[0] == PARAMS.u_star
    np.testing.assert_array_equal(default_u_grid(PARAMS, 5, 3.0, 40.0),
                                  np.geomspace(3.0, 40.0, 5))


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
    # delta = 1e-300 lies below the bound across all eight decades
    res = confidence_radius(PARAMS, n=1, delta=1e-300)
    assert not res.attained and math.isnan(res.radius)
    assert q_bound_closed(PARAMS, res.search_range[1], c=res.constant) > 1e-300
    with pytest.raises(DomainError, match="sample size"):
        confidence_radius(PARAMS, n=0, delta=1e-3)
    for delta in (0.0, 1.5):
        with pytest.raises(DomainError, match="delta"):
            confidence_radius(PARAMS, n=100, delta=delta)


def test_searches_return_their_left_end_exactly():
    # where the bound already holds at the left end, the radius and the
    # field level are that end itself, not exp(ln end), which is 2 ulps
    # above e**e and 3 above 100
    params = make_mdt(3.0, -1.0)  # regime B: the closed form starts at e**e
    assert confidence_radius(params, n=1, delta=1.0).radius == math.e ** math.e
    params = make_mdt(4.0, 0.0, u_star=100.0)
    field = FieldModel(params=params, weights=(1.0,))
    assert net_bound_level(field, params, 1.0) == 100.0


def test_confidence_radius_scales_with_n():
    r1 = confidence_radius(PARAMS, n=100, delta=1e-3)
    r4 = confidence_radius(PARAMS, n=400, delta=1e-3)
    assert r1.attained and r4.attained
    # the bound depends on n only through sqrt(n) scaling of the argument
    assert r4.radius == pytest.approx(r1.radius / 2.0, rel=1e-9)


def test_confidence_radius_certifies_bound_level():
    res = confidence_radius(PARAMS, n=10000, delta=1e-3)
    assert res.attained
    assert q_bound_closed(PARAMS, math.sqrt(10000) * res.radius,
                          c=res.constant) <= 1e-3 * (1 + 1e-6)


# values of the threshold searches, pinned to the bit on laws of all
# three regimes: a change to the searches must keep them
@pytest.mark.parametrize("beta,gamma,v,radius_100,radius_1000,net_level", [
    (4.0, 0.0, "c(1)", 18.859923257668974, 3.25226427019515, 2604.326388814997),
    (2.5, 0.5, "ilp(2)", 138.3400050876597, 15.620305355960248, 48130.36156738933),
    (3.0, -1.0, "c(1)", 5046.6931906358095, 732.9422455559641, 1040201.0643132583),
    (3.0, -2.0, "lp(-1)", 30.805346069044457, 4.584918660873719, 6065.261391979412)],
    ids=["4-0-c(1)", "2.5-0.5-ilp(2)", "3--1-c(1)", "3--2-lp(-1)"])
def test_level_searches_pinned(beta, gamma, v, radius_100, radius_1000, net_level):
    params = make_mdt(beta, gamma, parse_sv(v))
    assert confidence_radius(params, n=100, delta=1e-3).radius == radius_100
    assert confidence_radius(params, n=1000, delta=1e-2).radius == radius_1000
    field = FieldModel(params, (1.0, 0.5, 0.25), resolution=64)
    assert net_bound_level(field, params, 1e-3) == net_level


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


@pytest.mark.parametrize("runner", ["simulate", "simulate_field", "coverage"])
@pytest.mark.parametrize("chunk", [0, 1])
def test_lane_failure_reaches_the_caller(runner, chunk, started, monkeypatch):
    # the quantile fails on one stream block only, in a plan of two
    # chunks on two lanes: chunk 1 fails in the child, chunk 0 in the
    # caller while the child still samples
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    tol = distribution._RESIDUAL_TOL
    monkeypatch.setattr(distribution, "_RESIDUAL_TOL", tol)

    def words(seed, block, count):
        distribution._RESIDUAL_TOL = -1.0 if block == chunk else tol
        return stream_words(seed, block, count)

    monkeypatch.setattr(harness, "stream_words", words)
    with pytest.raises(NumericError) as info:
        if runner == "simulate":
            simulate(small_plan(seed=5, n_grid=(3,), reps=100000, threads=2))
        elif runner == "simulate_field":
            simulate_field(FieldModel(PARAMS, (1.0, 0.5), resolution=4),
                           small_plan(seed=5, n_grid=(3,), reps=30000, threads=2))
        else:
            coverage_miss_rate(PARAMS, n=3, radius=1.0, trials=100000, seed=5)
    diag = info.value.diagnostics
    assert diag["law"] == PARAMS.describe()
    assert 0 < diag["q"] <= 1
    assert (diag["seed"], diag["n"], diag["chunk"]) == (5, 3, chunk)
    assert started == [1]
    assert_no_child()


def test_coverage_runs_on_every_usable_cpu(started, monkeypatch):
    # 10^5 trials of n = 3 make two chunks: one lane per usable CPU,
    # and the same miss rate on either count
    rates = []
    for cpus in (2, 1):
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        rates.append(coverage_miss_rate(PARAMS, n=3, radius=1.0,
                                        trials=100000, seed=8))
        assert started == list(range(1, cpus))
        started.clear()
    assert rates[0] == rates[1]
    assert 0 < rates[0] < 1
    assert_no_child()


@pytest.mark.parametrize("end,message", [
    (lambda: os._exit(7), "code 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     f"signal {signal.SIGKILL:d}")], ids=["exit", "killed"])
def test_lane_that_dies_is_an_error(end, message, monkeypatch):
    # a child lane that ends before it sends a result, on block 1's words
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    first, caller = stream_words(3, 1, 1)[0], os.getpid()

    def statistic(words, m):
        if words[0] == first and os.getpid() != caller:
            end()
        return m

    with pytest.raises(RuntimeError, match=f"ended with {message} and no"):
        harness._run(3, 5000, 100, 100, 2, statistic)
    assert_no_child()


def test_lanes_leave_the_callers_output_alone():
    # a child lane leaves by os._exit, so the caller's unflushed output
    # is written once, by the caller
    code = ("import os, sys\n"
            "import numpy as np\n"
            "from modtail import make_mdt\n"
            "from modtail.harness import make_plan, simulate\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.stdout.write('written once')\n"
            "simulate(make_plan(make_mdt(4.0, 0.0), seed=1, reps=100000,\n"
            "                   n_grid=(1, 2, 4), u_grid=np.array([3.0]),\n"
            "                   threads=2))\n")
    src = str(Path(harness.__file__).resolve().parents[1])
    # stdout must stay buffered until exit for a second flush to show
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "written once"


def test_lane_count_invariance():
    # five and three chunks, so two lanes split them unevenly
    model = FieldModel(PARAMS, (1.0, 0.5), resolution=4)
    runs = (lambda threads: simulate(small_plan(
                n_grid=(1, 2, 4, 8, 16, 32, 64), threads=threads)),
            lambda threads: simulate_field(model, small_plan(
                reps=40000, threads=threads)))
    for run in runs:
        base = run(1)
        for threads in (2, 8):
            report = run(threads)
            assert_no_child()
            assert report.counts.tobytes() == base.counts.tobytes()
            assert report.qhat.tobytes() == base.qhat.tobytes()


@pytest.mark.parametrize("bad", [{"radius": math.nan}, {"radius": math.inf},
                                 {"radius": -1.0}, {"trials": 0}, {"n": 0},
                                 {"seed": -1}],
                         ids=["nan-radius", "inf-radius", "negative-radius",
                              "no-trial", "empty-mean", "negative-seed"])
def test_coverage_rejects_what_it_cannot_measure(bad):
    # a NaN radius, as an unattained confidence_radius gives, must not
    # read as perfect coverage
    args = {"n": 3, "radius": 1.0, "trials": 100, "seed": 5, **bad}
    with pytest.raises(DomainError):
        coverage_miss_rate(PARAMS, **args)


@pytest.mark.parametrize("runner", ["simulate", "coverage"])
def test_negative_seed_is_rejected_before_any_fork(runner, monkeypatch):
    # two chunks on two usable CPUs would fork a lane; the seed is
    # checked first, so no child is started only to be sent SIGTERM
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    fork, forks = os.fork, []

    def recording():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(harness.os, "fork", recording)
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        if runner == "simulate":
            simulate(small_plan(seed=-1, n_grid=(3,), reps=100000, threads=2))
        else:
            coverage_miss_rate(PARAMS, n=3, radius=1.0, trials=100000, seed=-1)
    assert forks == []
    assert_no_child()


def test_plan_needs_a_lane():
    with pytest.raises(DomainError):
        small_plan(threads=0)


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
def test_plan_rejects_a_dkw_level_outside_the_unit_interval(delta):
    # checked when the plan is made, not after the whole simulation
    with pytest.raises(DomainError, match="dkw_delta"):
        small_plan(dkw_delta=delta)


def test_field_samples_its_own_law():
    other = make_mdt(3.0, -2.0, parse_sv("lp(-1)"))
    with pytest.raises(DomainError):
        simulate_field(FieldModel(other, (1.0,), resolution=4),
                       small_plan(reps=1000))
    # laws compare by value: an equal law built apart is the same law
    simulate_field(FieldModel(make_mdt(4.0, 0.0), (1.0,), resolution=4),
                   small_plan(reps=1000))
