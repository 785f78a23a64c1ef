"""The four benchmark workloads.

Each workload sets itself up in its constructor (everything timed as
``setup_s``), runs one operation per ``op(i)`` call (timed as ``wall_s``)
and checks that operation's outputs in ``check(out)``, outside the
timed region.  Every call into modtail goes through ``tracer.call`` with
the span name ``<module>.<function>``.  Operation ``i`` takes its inputs
from ``op_seed(seed, i)``, so a workload seed fixes every draw.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

from modtail.bounds import (c1_pessimistic, calibrate_closed_constant,
                            closed_curve, fenchel_curve_bound, witness_curve)
from modtail.config import RunConfig
from modtail.distribution import make_mdt, quantile, survival
from modtail.entropy import (FieldModel, MetricEntropyModel,
                             check_entropy_condition, entropy_integral,
                             finite_net_union_bound)
from modtail.fenchel import FenchelCurve, GeneratingFunction
from modtail.harness import (certify, confidence_radius, coverage_miss_rate,
                             default_u_grid, make_plan, simulate,
                             simulate_field)
from modtail.moments import MomentCurve, default_p_grid
from modtail.slowvary import parse_sv

CONFIGS = Path(__file__).resolve().parent / "configs"

# the quantile residual bound and the stage-chunk shape it is checked on
QUANTILE_TOL = 1e-10
CHECK_CHUNK = (4096, 16)
# small plan whose qhat must not depend on the thread count
INVARIANCE_REPS = 1000
INVARIANCE_N_GRID = (1, 4, 16)

FIELD_WEIGHTS = (1.0, 0.5, 0.25)
FIELD_M = 64
FIELD_N_GRID = (1, 2, 4, 8, 16)
CONF_N, CONF_DELTA = 10 ** 4, 1e-3


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def traced_curve(tracer, curve):
    """The same curve with a span around each evaluation, so the bounds
    layer's time inside ``certify`` is not booked to the harness."""
    if not tracer.on:
        return curve
    name = f"bounds.{curve.provenance}"
    return dataclasses.replace(
        curve, fn=lambda u: tracer.call(name, curve.fn, u))


def quantile_residual(params, seed: int, shape=CHECK_CHUNK) -> float:
    """Largest |survival(quantile(q)) - q| on one harness-shaped chunk."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    q = 1.0 - gen.random(shape)
    return float(np.max(np.abs(survival(params, quantile(params, q)) - q)))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class Workload:
    """One client, operations back to back; parallelism only through
    modtail's own ``threads`` argument."""

    name = ""

    def __init__(self, seed: int, threads: int, tracer, out_dir: Path,
                 tiny: bool):
        self.seed, self.threads, self.tr = seed, threads, tracer
        self.out_dir, self.tiny = out_dir, tiny

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list:
        raise NotImplementedError

    def _sampling_checks(self, params, seed: int, run_small) -> list:
        """Quantile residual on a stage chunk and thread invariance of a
        small plan; ``run_small(threads)`` returns that plan's qhat."""
        problems = []
        shape = (256, 4) if self.tiny else CHECK_CHUNK
        err = quantile_residual(params, seed, shape)
        if not err <= QUANTILE_TOL:
            problems.append(f"quantile residual {err:.3g} > {QUANTILE_TOL:g}")
        if run_small(1).tobytes() != run_small(self.threads).tobytes():
            problems.append(
                f"qhat differs between 1 and {self.threads} threads")
        return problems


class Certify(Workload):
    """The public calls of ``modtail certify`` on one config file."""

    config = ""

    def __init__(self, seed, threads, tracer, out_dir, tiny):
        super().__init__(seed, threads, tracer, out_dir, tiny)
        tr = tracer
        cfg = tr.call("config.RunConfig.load", RunConfig.load,
                      str(CONFIGS / self.config))
        small = dict(plan__reps=1000, plan__n_grid=[1, 2, 4, 8, 16],
                     plan__u_points=16) if tiny else {}
        self.cfg = cfg.override(plan__seed=seed, plan__threads=threads,
                                **small)
        self.params = tr.call("config.RunConfig.params", self.cfg.params)
        self.u_grid = tr.call("harness.default_u_grid", default_u_grid,
                              self.params, self.cfg.raw["plan"]["u_points"])
        self.bounds = self.cfg.raw["bounds"]
        if self.bounds["mode"] == "pessimistic" and self.bounds["c1"] is None:
            c1_pessimistic.cache_clear()
            tr.call("bounds.c1_pessimistic", c1_pessimistic, self.params)

    def _plan(self, seed: int, threads: int = 0, reps: int = 0, n_grid=None):
        p = self.cfg.raw["plan"]
        return make_plan(self.params, seed=seed, n_grid=n_grid or p["n_grid"],
                         reps=reps or p["reps"], u_grid=self.u_grid,
                         dkw_delta=p["dkw_delta"], budget=p["budget"],
                         threads=threads or self.threads)

    def op(self, i):
        tr, params, b = self.tr, self.params, self.bounds
        seed = op_seed(self.seed, i)
        plan = self._plan(seed)
        c = b["c1"]
        if b["mode"] == "calibrated" and c is None:
            # reference run at a shifted seed, as the CLI does
            ref = tr.call("harness.simulate", simulate,
                          self._plan(seed + 1000003))
            c = tr.call("bounds.calibrate_closed_constant",
                        calibrate_closed_constant, params, ref.u_grid,
                        ref.qhat, b["calibration_slack_dkw"] * ref.dkw)
        report = tr.call("harness.simulate", simulate, plan)
        curves = [tr.call("bounds.closed_curve", closed_curve, params, c=c,
                          mode=b["mode"]),
                  tr.call("bounds.fenchel_curve_bound", fenchel_curve_bound,
                          params, c1=c, mode=b["mode"]),
                  tr.call("bounds.witness_curve", witness_curve, params)]
        result = tr.call("harness.certify", certify, report,
                         [traced_curve(tr, cv) for cv in curves])
        tr.call("harness.to_csv", report.to_csv,
                self.out_dir / "certification_report.csv",
                header_extra=self.cfg.header_lines())
        tr.call("harness.to_json", result.to_json,
                self.out_dir / "certification.json")
        return {"result": result, "seed": seed,
                "points": sum(v.checked_cells for v in result.verdicts),
                "fingerprint": _digest(report.counts)}

    def check(self, out):
        problems = [f"curve {v.provenance} violated at u={v.violations[:3]}"
                    for v in out["result"].verdicts if not v.passed]

        def run_small(threads):
            plan = self._plan(out["seed"], threads=threads,
                              reps=INVARIANCE_REPS, n_grid=INVARIANCE_N_GRID)
            return simulate(plan).qhat

        return problems + self._sampling_checks(self.params, out["seed"],
                                                run_small)


class CertifyPowerlaw(Certify):
    name = "certify-powerlaw"
    config = "certify-powerlaw.yaml"


class CertifySlowvary(Certify):
    name = "certify-slowvary"
    config = "certify-slowvary.yaml"


class CoverageField(Workload):
    """Confidence radius and its coverage, then the Fourier-mix field and
    its grid union bound: long rows, a row mean and a matmul."""

    name = "coverage-field"

    def __init__(self, seed, threads, tracer, out_dir, tiny):
        super().__init__(seed, threads, tracer, out_dir, tiny)
        tr = tracer
        self.params = tr.call("distribution.make_mdt", make_mdt, 4.0, 0.0)
        self.model = FieldModel(params=self.params, weights=FIELD_WEIGHTS,
                                resolution=FIELD_M)
        self.u_grid = np.geomspace(8.0, 500.0, 8 if tiny else 32)
        self.trials = 20 if tiny else 400
        self.field_reps = 1000 if tiny else 3 * 10 ** 4
        self.n_grid = FIELD_N_GRID[:3] if tiny else FIELD_N_GRID
        c1_pessimistic.cache_clear()
        tr.call("bounds.c1_pessimistic", c1_pessimistic, self.params)

    def _field_plan(self, seed, threads, reps, n_grid):
        return make_plan(self.params, seed=seed, n_grid=n_grid, reps=reps,
                         u_grid=self.u_grid, threads=threads)

    def op(self, i):
        tr, params = self.tr, self.params
        seed = op_seed(self.seed, i)
        rad = tr.call("harness.confidence_radius", confidence_radius, params,
                      n=CONF_N, delta=CONF_DELTA)
        miss = tr.call("harness.coverage_miss_rate", coverage_miss_rate,
                       params, n=CONF_N, radius=rad.radius,
                       trials=self.trials, seed=seed)
        report = tr.call("harness.simulate_field", simulate_field, self.model,
                         self._field_plan(seed, self.threads, self.field_reps,
                                          self.n_grid))
        net = np.array([tr.call("entropy.finite_net_union_bound",
                                finite_net_union_bound, self.model, params,
                                float(u)) for u in self.u_grid])
        return {"seed": seed, "radius": rad, "miss": miss, "report": report,
                "net": net, "points": 1 + net.size,
                "fingerprint": _digest(report.counts, np.array([miss]))}

    def check(self, out):
        problems = []
        rad, miss = out["radius"], out["miss"]
        limit = CONF_DELTA + 3.0 * math.sqrt(CONF_DELTA / self.trials)
        if not (rad.attained and miss <= limit):
            problems.append(f"coverage miss rate {miss:g} > {limit:g} "
                            f"(radius attained={rad.attained})")
        report = out["report"]
        violations = int(np.sum(report.qhat - report.dkw > out["net"]))
        if violations:
            problems.append(
                f"field union bound violated in {violations} cells")

        def run_small(threads):
            plan = self._field_plan(out["seed"], threads, INVARIANCE_REPS,
                                    self.n_grid[:3])
            return simulate_field(self.model, plan).qhat

        return problems + self._sampling_checks(self.params, out["seed"],
                                                run_small)


class AnalyticBounds(Workload):
    """No sampling: every analytic layer on four laws that cover regimes
    A/B/C and the three grammar atoms."""

    name = "analytic-bounds"
    LAWS = ((4.0, 0.0, "c(1)"), (3.0, -1.0, "c(1)"), (3.0, -2.0, "lp(-1)"),
            (2.5, 0.5, "ilp(2)"))

    def __init__(self, seed, threads, tracer, out_dir, tiny):
        super().__init__(seed, threads, tracer, out_dir, tiny)
        tr = tracer
        points = 16 if tiny else 64
        self.laws = []
        for beta, gamma, v in self.LAWS:
            params = tr.call("distribution.make_mdt", make_mdt, beta, gamma,
                             tr.call("slowvary.parse_sv", parse_sv, v))
            u_grid = tr.call("harness.default_u_grid", default_u_grid, params,
                             points)
            field = FieldModel(params=params, weights=FIELD_WEIGHTS,
                               resolution=FIELD_M)
            self.laws.append((params, u_grid, field))
        self.y_grid = np.geomspace(1.0, 40.0, points)
        self.holder = MetricEntropyModel.from_holder(d=1, alpha=1.0)

    def op(self, i):
        tr = self.tr
        out, points = [], 0
        for params, u_grid, field in self.laws:
            c1_pessimistic.cache_clear()
            law = {"params": params, "curves": {}}
            for make in (closed_curve, fenchel_curve_bound, witness_curve):
                curve = tr.call(f"bounds.{make.__name__}", make, params)
                grid = u_grid[u_grid >= curve.u_min * (1 - 1e-12)]
                law["curves"][curve.provenance] = (grid, tr.call(
                    f"bounds.{curve.provenance}", curve.evaluate, grid))
                points += grid.size
            psi = tr.call("fenchel.GeneratingFunction.from_theta",
                          GeneratingFunction.from_theta, params)
            law["fenchel"] = tr.call("fenchel.FenchelCurve.compute",
                                     FenchelCurve.compute, psi, self.y_grid)
            law["moments"] = tr.call("moments.MomentCurve.compute",
                                     MomentCurve.compute, params,
                                     tr.call("moments.default_p_grid",
                                             default_p_grid, params))
            law["radius"] = tr.call("harness.confidence_radius",
                                    confidence_radius, params, n=CONF_N,
                                    delta=CONF_DELTA)
            points += self.y_grid.size + law["moments"].p_grid.size + 1
            if params.gamma > -1:
                law["integral"] = tr.call("entropy.entropy_integral",
                                          entropy_integral, self.holder,
                                          params.beta, params.gamma)
                law["net"] = np.array([tr.call(
                    "entropy.finite_net_union_bound", finite_net_union_bound,
                    field, params, float(u)) for u in u_grid[::2]])
                points += 1 + law["net"].size
            out.append(law)
        return {"laws": out, "points": points, "fingerprint": None}

    def check(self, out):
        problems = []
        for law in out["laws"]:
            params = law["params"]
            tag = params.describe()
            wit_grid, wit = law["curves"]["lower-witness"]
            for prov, (grid, vals) in law["curves"].items():
                if not np.all((vals >= 0) & (vals <= 1)):
                    problems.append(f"{tag}: {prov} leaves [0, 1]")
                # every upper bound must dominate the n = 1 witness
                w = wit[np.searchsorted(wit_grid, grid)]
                if prov != "lower-witness" and np.any(vals < w):
                    problems.append(f"{tag}: {prov} below the lower witness")
            if not np.all(np.isfinite(law["fenchel"].values)):
                problems.append(f"{tag}: Fenchel curve not finite")
            m = law["moments"].values
            # |xi| >= u_star > 1, so E|xi|**p increases with p
            if not (np.all(np.isfinite(m)) and np.all(np.diff(m) > 0)):
                problems.append(f"{tag}: moment curve not increasing")
            if not law["radius"].attained:
                problems.append(f"{tag}: confidence radius not attained")
            if "integral" in law:
                cond = check_entropy_condition(1, 1.0, params.beta,
                                               params.gamma)
                if cond != math.isfinite(law["integral"]):
                    problems.append(f"{tag}: entropy integral disagrees with "
                                    "the entropy condition")
                net = law["net"]
                if not (np.all((net >= 0) & (net <= 1))
                        and np.all(np.diff(net) <= 0)):
                    problems.append(f"{tag}: net bound not a tail in [0, 1]")
        return problems


WORKLOADS = {w.name: w for w in (CertifyPowerlaw, CertifySlowvary,
                                 CoverageField, AnalyticBounds)}
