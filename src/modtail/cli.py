"""Command line entry point.

Commands: bound | simulate | certify | confidence | entropy | moments |
fenchel.  Exit codes: 0 ok, 1 certification failure, 2 config error,
3 numeric error.  Each command builds its result files from the
library's data through harness.write_csv and write_json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .bounds import (calibrate_closed_constant, closed_curve,
                     fenchel_curve_bound, witness_curve)
from .config import RunConfig
from .entropy import (check_entropy_condition, entropy_integral,
                      field_entropy_model, finite_net_union_bound,
                      net_bound_level)
from .errors import ConfigError, DomainError, NumericError, in_domain
from .fenchel import FenchelCurve, GeneratingFunction
from .harness import (certify, confidence_radius, default_u_grid, make_plan,
                      simulate, write_csv, write_json)
from .moments import MomentCurve, default_p_grid

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _u_grid(cfg: RunConfig, params):
    plan = cfg.raw["plan"]
    return default_u_grid(params, plan["u_points"], plan["u_min"], plan["u_max"])


def _outdir(cfg: RunConfig, override) -> Path:
    out = Path(override or cfg.raw["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _header(cfg: RunConfig) -> str:
    return f"# modtail v{__version__}\n{cfg.header_lines()}"


def _write_stamped(cfg: RunConfig, path: Path, payload) -> None:
    write_json(path, {"version": __version__, "config_hash": cfg.digest(),
                      **payload})


def _curves(cfg: RunConfig, params, c_calibrated=None):
    # a given bounds.c1 wins; with neither, c1_pessimistic supplies c
    given = cfg.raw["bounds"]["c1"]
    c = given if given is not None else c_calibrated
    mode = ("given" if given is not None else
            "calibrated" if c is not None else "pessimistic")
    return [closed_curve(params, c=c, mode=mode),
            fenchel_curve_bound(params, c1=c, mode=mode),
            witness_curve(params)]


def cmd_bound(cfg: RunConfig, out: Path) -> int:
    params = cfg.params()
    u_grid = _u_grid(cfg, params)
    for curve in _curves(cfg, params):
        grid = u_grid[in_domain(u_grid, curve.u_min)]
        write_csv(out / f"bound_{curve.provenance}.csv",
                  f"# modtail tail curve provenance={curve.provenance}\n"
                  f"# constants={json.dumps(curve.constants, sort_keys=True)}\n"
                  f"{_header(cfg)}", {"u": grid, "bound": curve.evaluate(grid)})
    return EXIT_OK


def _plan(cfg: RunConfig, params, seed=None):
    p = cfg.raw["plan"]
    return make_plan(params, seed=p["seed"] if seed is None else seed,
                     n_grid=p["n_grid"], reps=p["reps"],
                     u_grid=_u_grid(cfg, params), dkw_delta=p["dkw_delta"],
                     budget=p["budget"], threads=p["threads"])


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    params = cfg.params()
    report = simulate(_plan(cfg, params))
    report.to_csv(out / "simulation.csv", header_extra=_header(cfg))
    _write_stamped(cfg, out / "simulation.json",
                   {"plan": report.plan.echo(), "dkw": report.dkw,
                    "qhat": [float(x) for x in report.qhat]})
    return EXIT_OK


def cmd_certify(cfg: RunConfig, out: Path) -> int:
    params = cfg.params()
    bounds_cfg = cfg.raw["bounds"]
    c_override = bounds_cfg["c1"]
    plan = _plan(cfg, params)
    if bounds_cfg["mode"] == "calibrated":  # the config rejects it beside c1
        # reference run with a shifted seed; the certification run below
        # stays fresh
        ref = simulate(_plan(cfg, params, seed=plan.seed + 1000003))
        slack = bounds_cfg["calibration_slack_dkw"] * ref.dkw
        c_override = calibrate_closed_constant(params, ref.u_grid, ref.qhat, slack)
    report = simulate(plan)
    curves = _curves(cfg, params, c_calibrated=c_override)
    result = certify(report, curves)
    report.to_csv(out / "certification_report.csv", header_extra=_header(cfg))
    # both upper curves use one resolved constant; the conjugate curve's
    # constants name it c1 and say where it came from
    _write_stamped(cfg, out / "certification.json",
                   {"plan": report.plan.echo(), "constants": curves[1].constants,
                    **result.summary()})
    return EXIT_OK if result.passed else EXIT_CERT_FAIL


def cmd_confidence(cfg: RunConfig, out: Path) -> int:
    params = cfg.params()
    conf = cfg.raw["confidence"]
    c = cfg.raw["bounds"]["c1"]
    res = confidence_radius(params, n=conf["n"], delta=conf["delta"], c=c)
    _write_stamped(cfg, out / "confidence.json",
                   {"n": res.n, "delta": res.delta, "attained": res.attained,
                    "radius": None if math.isnan(res.radius) else res.radius,
                    "constant": res.constant,
                    "certificate": (f"P(|a_n - a| > {res.radius:.6g}) <= {res.delta:g}"
                                    if res.attained else
                                    f"bound never drops below delta in {res.search_range}")})
    return EXIT_OK


def cmd_entropy(cfg: RunConfig, out: Path) -> int:
    params = cfg.params()
    # the field's model has d = alpha = 1; the condition rejects
    # gamma <= -1 before the model's GLS norm is computed
    ok = check_entropy_condition(1, 1.0, params.beta, params.gamma)
    field = cfg.field_model()
    integral = entropy_integral(field_entropy_model(field), params.beta,
                                params.gamma)
    u_grid = _u_grid(cfg, params)
    net = finite_net_union_bound(field, params, u_grid).tolist()
    delta = cfg.raw["confidence"]["delta"]
    _write_stamped(cfg, out / "entropy.json",
                   {"condition_satisfied": ok,
                    "entropic_integral": None if math.isinf(integral) else integral,
                    "net_bound_u": [float(u) for u in u_grid],
                    "net_bound": net, "net_bound_delta": delta,
                    "net_bound_u_at_delta": net_bound_level(field, params, delta)})
    return EXIT_OK


def cmd_moments(cfg: RunConfig, out: Path) -> int:
    params = cfg.params()
    curve = MomentCurve.compute(params, default_p_grid(params))
    write_csv(out / "moments.csv",
              f"# modtail moment curve\n# {params.describe()}\n{_header(cfg)}",
              {"p": curve.p_grid, "moment": curve.values,
               "quad_error": curve.errors})
    return EXIT_OK


def cmd_fenchel(cfg: RunConfig, out: Path) -> int:
    params = cfg.params()
    psi = GeneratingFunction.from_theta(params)
    curve = FenchelCurve.compute(psi, np.geomspace(1.0, 40.0, 64))
    write_csv(out / "fenchel.csv",
              f"# modtail fenchel curve ({psi.provenance}, b={psi.b:g})\n"
              f"{_header(cfg)}",
              {"y": curve.y_grid, "nu_star": curve.values, "p_star": curve.p_star})
    return EXIT_OK


_COMMANDS = {"bound": cmd_bound, "simulate": cmd_simulate, "certify": cmd_certify,
             "confidence": cmd_confidence, "entropy": cmd_entropy,
             "moments": cmd_moments, "fenchel": cmd_fenchel}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modtail",
        description="Tail bounds for sums of heavy-tailed variables, "
                    "with Monte Carlo certification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--out", default=None, help="output directory")
        if name not in ("simulate", "certify"):
            continue  # the other commands draw nothing
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="sampling lanes: the process itself and up to "
                            "N - 1 forked children, at most one per usable "
                            "CPU and per chunk; results do not depend on it")
        p.add_argument("--budget", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        cfg = cfg.override(**{f"plan__{name}": getattr(args, name, None)
                              for name in ("seed", "threads", "budget")})
        out = _outdir(cfg, args.out)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, DomainError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        for key, value in getattr(exc, "diagnostics", {}).items():
            print(f"  {key}: {value}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
