"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line with its measured numbers, so a full
run doubles as a release report.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from modtail.bounds import (calibrate_closed_constant, closed_curve,
                            lower_witness, q_bound_closed, q_bound_fenchel)
from modtail.distribution import make_mdt, quantile
from modtail.entropy import (FieldModel, MetricEntropyModel,
                             check_entropy_condition, entropy_integral,
                             finite_net_union_bound)
from modtail.fenchel import GeneratingFunction, tail_from_gls
from modtail.harness import (certify, confidence_radius, coverage_miss_rate,
                             make_plan, simulate, simulate_field, tail_slope)
from modtail.moments import verify_equivalence
from modtail.slowvary import LogPower

PARAMS_A = make_mdt(4.0, 0.0)


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({detail})"
    print(f"\n{line}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_moment_theta_equivalence():
    t0 = time.monotonic()
    laws = [make_mdt(4.0, 0.0), make_mdt(3.0, -1.0),
            make_mdt(3.0, -2.0, LogPower(-1.0))]
    spreads = []
    for params in laws:
        rep = verify_equivalence(params, band=50.0)
        spreads.append(float(rep.ratios.max() / rep.ratios.min()))
    elapsed = time.monotonic() - t0
    ok = all(s <= 50.0 for s in spreads) and elapsed < 60.0
    _report(1, "moment/theta ratio within factor 50 near beta", ok,
            f"spreads={[f'{s:.2f}' for s in spreads]}, {elapsed:.1f}s")


def _random_psi(rng):
    """Returns (psi, knots): knots of the log-linear interpolant for the
    grid kind, None for the smooth kinds."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return GeneratingFunction.from_constant(float(rng.uniform(0.5, 4.0)),
                                                b=float(rng.uniform(2.5, 8.0))), None
    if kind == 1:
        params = make_mdt(float(rng.uniform(2.5, 6.0)),
                          float(rng.uniform(-0.9, 2.0)))
        return GeneratingFunction.from_theta(params), None
    b = float(rng.uniform(2.5, 8.0))
    grid = np.linspace(2.0, b - 1e-3, 8)
    vals = np.exp(rng.uniform(-1.0, 2.0, size=8))
    return GeneratingFunction.from_grid(grid, vals, b=b), grid


def _oracle_sup(psi, knots, y):
    """Independent evaluation of sup_p p (y - ln psi(p)) on [2, p_max]."""
    if knots is not None:
        # ln psi is piecewise linear, so per segment the objective is the
        # quadratic p (y - a - s p): closed-form interior maximum
        logv = np.log(psi(knots))
        cands = list(knots)
        for i in range(len(knots) - 1):
            s = (logv[i + 1] - logv[i]) / (knots[i + 1] - knots[i])
            a = logv[i] - s * knots[i]
            if s > 0:
                p_hat = (y - a) / (2.0 * s)
                if knots[i] < p_hat < knots[i + 1]:
                    cands.append(p_hat)
        cands = np.clip(np.asarray(cands), 2.0, psi.p_max)
        return float(np.max(cands * (y - np.log(psi(cands)))))
    ps = np.linspace(2.0, psi.p_max, 4000)
    vals = ps * (y - np.log(psi(ps)))
    i = int(np.argmax(vals))

    def neg(p):
        return -(p * (y - math.log(float(psi(p)))))

    res = minimize_scalar(neg, bounds=(ps[max(i - 1, 0)], ps[min(i + 1, 3999)]),
                          method="bounded", options={"xatol": 1e-13})
    return max(-res.fun, float(vals[i]), -neg(2.0), -neg(psi.p_max))


def test_criterion_2_chebyshev_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        psi, knots = _random_psi(rng)
        k = float(rng.uniform(0.5, 5.0))
        z = k * math.exp(float(rng.uniform(1.0, 12.0)))
        got = tail_from_gls(psi, k, z)
        oracle = min(1.0, math.exp(-_oracle_sup(psi, knots, math.log(z / k))))
        denom = max(oracle, 1e-300)
        worst = max(worst, abs(got - oracle) / denom)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, "optimized-Chebyshev tail equals the p-infimum", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_sandwich_certification():
    t0 = time.monotonic()
    params = PARAMS_A
    n_grid = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
    u_grid = np.geomspace(params.u_star, quantile(params, 1e-4), 64)
    ref = simulate(make_plan(params, seed=101, n_grid=n_grid, reps=10 ** 5,
                             u_grid=u_grid, threads=8))
    c = calibrate_closed_constant(params, ref.u_grid, ref.qhat,
                                  slack=2.0 * ref.dkw)
    fresh = simulate(make_plan(params, seed=202, n_grid=n_grid, reps=10 ** 5,
                               u_grid=u_grid, threads=8))
    upper = q_bound_closed(params, u_grid, c=c)
    lower = lower_witness(params, u_grid)
    up_ok = bool(np.all(fresh.qhat <= upper))
    lo_ok = bool(np.all(fresh.qhat >= lower - fresh.dkw))
    elapsed = time.monotonic() - t0
    ok = up_ok and lo_ok
    _report(3, "calibrated closed bound sandwiches a fresh-seed run", ok,
            f"c={c:.1f}, upper_ok={up_ok}, lower_ok={lo_ok}, {elapsed:.1f}s")


def test_criterion_4_tail_exponent():
    t0 = time.monotonic()
    params = PARAMS_A
    u_grid = np.geomspace(params.u_star, quantile(params, 1e-6), 96)
    plan = make_plan(params, seed=777, n_grid=(1,), reps=2 * 10 ** 7,
                     u_grid=u_grid, threads=8)
    report = simulate(plan)
    est = tail_slope(report, u_min=10.0 * params.u_star, min_count=100)
    elapsed = time.monotonic() - t0
    ok = -4.4 <= est.slope <= -3.6
    _report(4, "log-log tail slope recovers -beta", ok,
            f"slope={est.slope:.3f} over {est.cells} cells, {elapsed:.1f}s")


def test_criterion_5_fenchel_closed_agreement():
    t0 = time.monotonic()
    u = math.exp(30.0)
    ratio = (math.log(q_bound_fenchel(PARAMS_A, u))
             / math.log(q_bound_closed(PARAMS_A, u)))
    elapsed = time.monotonic() - t0
    ok = 0.95 <= ratio <= 1.05 and elapsed < 1.0
    _report(5, "log-bound ratio fenchel/closed at u=e^30", ok,
            f"ratio={ratio:.4f}, {elapsed:.2f}s")


def test_criterion_6_entropy_criterion():
    rng = np.random.default_rng(6)
    agree = 0
    for _ in range(200):
        d = int(rng.integers(1, 6))
        alpha = float(rng.uniform(0.1, 1.0))
        beta = float(rng.uniform(2.1, 8.0))
        gamma = float(rng.uniform(-0.9, 3.0))
        model = MetricEntropyModel.from_holder(d=d, alpha=alpha)
        cond = check_entropy_condition(d, alpha, beta, gamma)
        finite = math.isfinite(entropy_integral(model, beta, gamma))
        agree += int(cond == finite)
    model = MetricEntropyModel.from_holder(d=1, alpha=1.0)
    integral = entropy_integral(model, 4.0, 0.0)
    closed_ok = abs(integral - 4.0 / 3.0) <= 1e-8 * (4.0 / 3.0)
    ok = agree == 200 and closed_ok
    _report(6, "entropy condition iff finite integral; closed form 4/3", ok,
            f"agreement {agree}/200, integral={integral:.10f}")


def test_criterion_7_field_certification():
    t0 = time.monotonic()
    params = PARAMS_A
    model = FieldModel(params=params, weights=(1.0, 0.5, 0.25), resolution=64)
    u_grid = np.geomspace(8.0, 500.0, 32)
    plan = make_plan(params, seed=909, n_grid=(1, 2, 4, 8, 16), reps=10 ** 4,
                     u_grid=u_grid, threads=8)
    report = simulate_field(model, plan)
    bounds = np.array([finite_net_union_bound(model, params, float(u))
                       for u in u_grid])
    violations = int(np.sum(report.qhat - report.dkw > bounds))
    elapsed = time.monotonic() - t0
    ok = violations == 0
    _report(7, "grid union bound certifies the field supremum", ok,
            f"violations={violations}/32, {elapsed:.1f}s")


def test_criterion_8_confidence_coverage():
    t0 = time.monotonic()
    delta, n, trials = 1e-3, 10 ** 4, 10 ** 4
    res = confidence_radius(PARAMS_A, n=n, delta=delta)
    miss = coverage_miss_rate(PARAMS_A, n=n, radius=res.radius,
                              trials=trials, seed=808)
    limit = delta + 3.0 * math.sqrt(delta / trials)
    elapsed = time.monotonic() - t0
    ok = res.attained and miss <= limit
    _report(8, "confidence radius covers at the stated level", ok,
            f"radius={res.radius:.3f}, miss={miss:.5f} <= {limit:.5f}, "
            f"{elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    params = PARAMS_A
    u_grid = np.geomspace(params.u_star, 100.0, 32)

    def run(tag, threads):
        plan = make_plan(params, seed=424, n_grid=(1, 4, 16), reps=20000,
                         u_grid=u_grid, threads=threads)
        report = simulate(plan)
        path = tmp_path / f"{tag}.csv"
        report.to_csv(path)
        result = certify(report, [closed_curve(params)])
        jpath = tmp_path / f"{tag}.json"
        result.to_json(jpath)
        return path.read_bytes() + jpath.read_bytes()

    a, b = run("a", 1), run("b", 1)
    c = run("c", 8)
    ok = a == b == c
    _report(9, "byte-identical reports across reruns and thread counts", ok,
            f"rerun match={a == b}, threads 1 vs 8 match={a == c}")
