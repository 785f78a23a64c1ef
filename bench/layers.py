"""Per-layer probes for the traced run.

Each probe calls one public function of one layer on a fixed input and
reads its self time from the tracer, so the numbers are the same kind of
span as the workload's.  Probes are identical on every workload; the
workload-specific per-layer numbers are the self times, shares and draw
counts that ``run.py`` takes from the workload's own spans.

The bytes moved per draw are computed from the sizes of the arrays each
stage kernel reads and writes, not measured: they ignore cache misses
and temporaries.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import numpy as np

from modtail.bounds import (c1_pessimistic, calibrate_closed_constant,
                            closed_curve, fenchel_curve_bound, q_bound_closed,
                            witness_curve)
from modtail.config import RunConfig
from modtail.distribution import make_mdt, quantile, survival
from modtail.entropy import (FieldModel, MetricEntropyModel, entropy_integral,
                             finite_net_union_bound)
from modtail.fenchel import FenchelCurve, GeneratingFunction
from modtail.harness import (certify, confidence_radius, coverage_miss_rate,
                             default_u_grid, make_plan, simulate,
                             simulate_field)
from modtail.moments import MomentCurve, default_p_grid
from modtail.slowvary import parse_sv, sv_eval

from workloads import (CONF_DELTA, CONF_N, CONFIGS, FIELD_M, FIELD_N_GRID,
                       FIELD_WEIGHTS, QUANTILE_TOL, traced_curve)

PROBE_SEED = 20211007


def _reduce(draws: np.ndarray, u_grid: np.ndarray) -> np.ndarray:
    """The harness's per-chunk reduction: |row sum| / sqrt(n), sorted,
    counted above each u."""
    s = np.abs(draws.sum(axis=1)) / math.sqrt(draws.shape[1])
    s.sort()
    return s.size - np.searchsorted(s, u_grid, side="right")


class Probes:
    def __init__(self, tracer, counter, threads: int, out_dir: Path,
                 tiny: bool):
        self.tr, self.counter, self.threads = tracer, counter, threads
        self.out_dir, self.tiny = out_dir, tiny
        self.metrics: dict = {}
        self.problems: list = []

    def time(self, span: str, fn, *args, repeat: int = 3, **kwargs):
        """Median self time of ``repeat`` calls, the last result and the
        draws counted per call."""
        first = len(self.tr.spans)
        d0, _ = self.counter.snapshot()
        for _ in range(repeat):
            out = self.tr.call(span, fn, *args, **kwargs)
        draws = (self.counter.snapshot()[0] - d0) / repeat
        own = self.tr.self_times()[first:]
        times = [t for s, t in zip(self.tr.spans[first:], own) if s[0] == span]
        return statistics.median(times), out, draws

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def run(self) -> dict:
        tiny = self.tiny
        law_a = make_mdt(4.0, 0.0)
        law_b = make_mdt(3.0, -1.0)
        v_c = parse_sv("lp(-1)")

        t, _, _ = self.time("config.RunConfig.load", RunConfig.load,
                            str(CONFIGS / "certify-powerlaw.yaml"), repeat=5)
        self.put("config.load_ms", t * 1e3)
        y = np.linspace(1.0, 50.0, 4096 if tiny else 65536)
        t, _, _ = self.time("slowvary.sv_eval", sv_eval, v_c, y, repeat=5)
        self.put("slowvary.sv_eval_ns_per_pt", t / y.size * 1e9)
        t, law_c, _ = self.time("distribution.make_mdt", make_mdt, 3.0, -2.0,
                                v_c, repeat=5)
        self.put("distribution.make_mdt_ms", t * 1e3)

        # one harness-sized chunk: 4096 replications of n = 32 draws
        shape = (256, 8) if tiny else (4096, 32)
        n_draws = shape[0] * shape[1]
        gen = np.random.Generator(np.random.Philox(key=PROBE_SEED))
        t, u, _ = self.time("distribution.rng", gen.random, shape + (2,))
        self.put("distribution.rng_ns_per_draw", t / n_draws * 1e9)
        self.put("distribution.rng_computed_bytes_per_draw",
                 u.nbytes / n_draws)
        q = 1.0 - u[..., 0]
        for regime, params in (("A", law_a), ("B", law_b), ("C", law_c)):
            t, mag, _ = self.time(f"distribution.quantile_{regime}", quantile,
                                  params, q)
            self.put(f"distribution.quantile_{regime}_ns_per_draw",
                     t / n_draws * 1e9)
            err = float(np.max(np.abs(survival(params, mag) - q)))
            if not err <= QUANTILE_TOL:
                self.problems.append(
                    f"quantile residual {err:.3g} in regime {regime}")
        self.put("distribution.quantile_computed_bytes_per_draw",
                 (q.nbytes + mag.nbytes) / n_draws)
        draws = np.where(u[..., 1] < 0.5, -1.0, 1.0) * mag
        u_grid_a = default_u_grid(law_a, 64)
        t, counts, _ = self.time("harness.reduce", _reduce, draws, u_grid_a)
        self.put("harness.reduce_ns_per_draw", t / n_draws * 1e9)
        # reads the draws, writes and sorts one sum per row, writes counts
        self.put("harness.reduce_computed_bytes_per_draw",
                 (draws.nbytes + 2 * 8 * shape[0] + counts.nbytes) / n_draws)

        n_grid = (1, 2, 4, 8) if tiny else (1, 2, 4, 8, 16, 32, 64, 128, 256,
                                            512, 1024)
        plans = {th: make_plan(law_a, seed=PROBE_SEED, n_grid=n_grid,
                               reps=1000, u_grid=u_grid_a, threads=th)
                 for th in (self.threads, 1)}
        t, report, d = self.time("harness.simulate", simulate,
                                 plans[self.threads], repeat=2)
        self.put("harness.simulate_ns_per_draw", t / d * 1e9)
        t, report_1t, d = self.time("harness.simulate_1t", simulate, plans[1],
                                    repeat=2)
        self.put("harness.simulate_1t_ns_per_draw", t / d * 1e9)
        if report.qhat.tobytes() != report_1t.qhat.tobytes():
            self.problems.append("probe qhat depends on the thread count")

        t, rad, _ = self.time("harness.confidence_radius", confidence_radius,
                              law_a, n=CONF_N, delta=CONF_DELTA)
        self.put("bounds.confidence_radius_ms", t * 1e3)
        t, _, d = self.time("harness.coverage_miss_rate", coverage_miss_rate,
                            law_a, n=CONF_N, radius=rad.radius,
                            trials=4 if tiny else 100, seed=PROBE_SEED,
                            repeat=2)
        self.put("harness.coverage_ns_per_draw", t / d * 1e9)
        model = FieldModel(params=law_a, weights=FIELD_WEIGHTS,
                           resolution=FIELD_M)
        field_u = np.geomspace(8.0, 500.0, 32)
        t, _, d = self.time("harness.simulate_field", simulate_field, model,
                            make_plan(law_a, seed=PROBE_SEED,
                                      n_grid=FIELD_N_GRID, reps=1000,
                                      u_grid=field_u, threads=self.threads))
        self.put("harness.field_ns_per_draw", t / d * 1e9)

        t, c, _ = self.time("bounds.calibrate_closed_constant",
                            calibrate_closed_constant, law_a, report.u_grid,
                            report.qhat, 2.0 * report.dkw, repeat=5)
        self.put("bounds.calibrate_ms", t * 1e3)
        curves = [traced_curve(self.tr, cv) for cv in (
            closed_curve(law_a, c=c, mode="calibrated"),
            fenchel_curve_bound(law_a, c1=c, mode="calibrated"),
            witness_curve(law_a))]
        first = len(self.tr.spans)
        t, result, _ = self.time("harness.certify", certify, report, curves,
                                 repeat=2)
        self.put("harness.certify_ms", t * 1e3)
        fenchel_spans = [s for s in self.tr.spans[first:]
                         if s[0] == "bounds.fenchel-thm21"]
        self.put("bounds.fenchel_ms_per_u",
                 statistics.median(s[4] - s[3] for s in fenchel_spans)
                 / u_grid_a.size * 1e3)
        u_many = np.geomspace(math.e, 1e6, 4096)
        t, _, _ = self.time("bounds.q_bound_closed", q_bound_closed, law_a,
                            u_many, c=c, repeat=5)
        self.put("bounds.closed_us_per_u", t / u_many.size * 1e6)

        def write():
            report.to_csv(self.out_dir / "probe_report.csv")
            result.to_json(self.out_dir / "probe_certification.json")

        t, _, _ = self.time("harness.write", write)
        self.put("harness.write_ms", t * 1e3)

        p_grid = default_p_grid(law_c)
        t, _, _ = self.time("moments.MomentCurve.compute", MomentCurve.compute,
                            law_c, p_grid, repeat=2)
        self.put("moments.moment_ms_per_p", t / p_grid.size * 1e3)

        # the uncached function: a cold constant without emptying the
        # cache the workload's operations rely on
        t, _, _ = self.time("bounds.c1_pessimistic",
                            c1_pessimistic.__wrapped__, law_c)
        self.put("bounds.c1_pessimistic_ms", t * 1e3)

        y_grid = np.geomspace(1.0, 40.0, 8 if tiny else 64)
        t, _, _ = self.time("fenchel.FenchelCurve.compute",
                            FenchelCurve.compute,
                            GeneratingFunction.from_theta(law_a), y_grid,
                            repeat=1 if tiny else 2)
        self.put("fenchel.curve_us_per_y", t / y_grid.size * 1e6)

        holder = MetricEntropyModel.from_holder(d=1, alpha=1.0)
        t, _, _ = self.time("entropy.entropy_integral", entropy_integral,
                            holder, 4.0, 0.0, repeat=5)
        self.put("entropy.integral_ms", t * 1e3)
        per_u = [self.time("entropy.finite_net_union_bound",
                           finite_net_union_bound, model, law_a, float(uu),
                           repeat=1)[0] for uu in field_u]
        self.put("entropy.net_bound_ms_per_u", statistics.median(per_u) * 1e3)
        return self.metrics
