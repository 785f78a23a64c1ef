import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml

from modtail import distribution
from modtail.bounds import (c1_pessimistic, closed_curve, fenchel_curve_bound,
                            witness_curve)
from modtail.distribution import make_mdt
from modtail.cli import main
from modtail.config import RunConfig
from modtail.entropy import _component_gls_norm, finite_net_union_bound
from modtail.errors import in_domain
from modtail.fenchel import GeneratingFunction, fenchel
from modtail.harness import default_u_grid
from modtail.moments import MomentCurve, default_p_grid

FAST_PLAN = """
plan:
  n_grid: [1, 2, 4]
  reps: 5000
  u_points: 16
  u_max: 40.0
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(FAST_PLAN)
    return str(path)


def run(args):
    return main(args)


def test_bound_command(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["bound", "--config", cfg, "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert "bound_closed-form-ex1.csv" in names
    assert "bound_fenchel-thm21.csv" in names
    assert "bound_lower-witness.csv" in names


def test_bound_labels_chain_constant_pessimistic(tmp_path):
    # only certify calibrates: without bounds.c1, bound writes the
    # Rosenthal-chain constant and must say so whatever bounds.mode reads
    path = tmp_path / "cal.yaml"
    path.write_text(FAST_PLAN + "bounds:\n  mode: calibrated\n")
    out = tmp_path / "out"
    assert run(["bound", "--config", str(path), "--out", str(out)]) == 0
    header = (out / "bound_closed-form-ex1.csv").read_text().splitlines()[1]
    constants = json.loads(header.removeprefix("# constants="))
    assert constants == {"c": c1_pessimistic(make_mdt(4.0, 0.0)),
                         "mode": "pessimistic"}


def test_bound_labels_user_constant_given(tmp_path):
    # a user's bounds.c1 is neither the Rosenthal-chain constant nor a
    # calibrated one, whatever bounds.mode reads
    path = tmp_path / "given.yaml"
    path.write_text(FAST_PLAN + "bounds:\n  c1: 5.0\n")
    out = tmp_path / "out"
    assert run(["bound", "--config", str(path), "--out", str(out)]) == 0
    header = (out / "bound_closed-form-ex1.csv").read_text().splitlines()[1]
    constants = json.loads(header.removeprefix("# constants="))
    assert constants == {"c": 5.0, "mode": "given"}


def test_calibrated_certify_in_regime_b(tmp_path):
    # the regime B closed form starts at e**e, above this law's first
    # cells: calibration reads only the cells certify checks
    path = tmp_path / "b.yaml"
    path.write_text(FAST_PLAN + 'law: {beta: 3.0, gamma: -1.0, V: "c(1)"}\n'
                    "bounds:\n  mode: calibrated\n")
    out = tmp_path / "out"
    assert run(["certify", "--config", str(path), "--out", str(out)]) in (0, 1)
    payload = json.loads((out / "certification.json").read_text())
    assert payload["constants"]["c1"] > 0


def test_simulate_command(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "simulation.json").read_text())
    assert payload["plan"]["reps"] == 5000
    assert "config_hash" in payload
    assert (out / "simulation.csv").exists()


def test_certify_command_passes(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "certification.json").read_text())
    assert payload["passed"] is True


def test_certify_command_fails_with_tiny_constant(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(FAST_PLAN + "bounds:\n  c1: 1.0e-9\n")
    out = tmp_path / "out"
    assert run(["certify", "--config", str(path), "--out", str(out)]) == 1
    payload = json.loads((out / "certification.json").read_text())
    assert payload["passed"] is False


def test_certify_calibrated_mode(tmp_path):
    path = tmp_path / "cal.yaml"
    path.write_text(FAST_PLAN + "bounds:\n  mode: calibrated\n")
    out = tmp_path / "out"
    assert run(["certify", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "certification.json").read_text())
    assert payload["constants"]["c1"] is not None


def test_certify_reports_the_constant_it_certified(tmp_path, cfg):
    # with neither bounds.c1 nor calibration, both upper curves use
    # c1_pessimistic, and certification.json says so
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "certification.json").read_text())
    assert payload["constants"] == {"c1": c1_pessimistic(make_mdt(4.0, 0.0)),
                                    "mode": "pessimistic"}


def test_confidence_command(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["confidence", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "confidence.json").read_text())
    assert payload["attained"] is True
    assert payload["radius"] > 0
    assert "certificate" in payload
    # the bound never reaches delta = 1e-300 in the search range
    path = tmp_path / "far.yaml"
    path.write_text("confidence:\n  n: 1\n  delta: 1.0e-300\n")
    assert run(["confidence", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "confidence.json").read_text())
    assert payload["attained"] is False and payload["radius"] is None
    assert payload["certificate"].startswith("bound never drops below delta in (")


def test_entropy_command(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["entropy", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "entropy.json").read_text())
    assert payload["condition_satisfied"] is True
    # the field's own covering model: d = alpha = 1, C5 = 2 K amp_sum and
    # C10 = K lip_sum / 2 + C5, K the component GLS norm; the integral
    # of C10**(1/4) eps**(-1/4) over (0, C5]
    field = RunConfig.load(cfg).field_model()
    k = _component_gls_norm(field.params)
    c5 = 2.0 * k * field.amp_sum
    c10 = k * field.lip_sum / 2.0 + c5
    expected = c10 ** 0.25 * c5 ** 0.75 / 0.75
    assert expected == pytest.approx(34.6, abs=0.05)
    assert payload["entropic_integral"] == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("key", ["d", "alpha", "C5", "C10"])
def test_entropy_model_keys_are_gone(tmp_path, capsys, key):
    # the covering model comes from the field, so these are unknown keys
    path = tmp_path / "old.yaml"
    path.write_text(f"entropy:\n  {key}: 1\n")
    assert run(["entropy", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"'entropy.{key}'" in capsys.readouterr().err


def test_entropy_rejects_gamma_at_most_minus_one(tmp_path, capsys):
    path = tmp_path / "b.yaml"
    path.write_text("law:\n  beta: 3.0\n  gamma: -1.0\n")
    assert run(["entropy", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "entropy condition requires gamma > -1" in capsys.readouterr().err


def test_entropy_reports_where_the_net_bound_reaches_delta(tmp_path):
    # the default u-grid ends where the union bound is still clamped at 1,
    # so the output also names the u at which it drops to delta
    levels = {}
    for m in (16, 64):
        path = tmp_path / f"m{m}.yaml"
        path.write_text(f"entropy:\n  M: {m}\nconfidence:\n  delta: 0.002\n")
        assert run(["entropy", "--config", str(path),
                    "--out", str(tmp_path / f"o{m}")]) == 0
        payload = json.loads((tmp_path / f"o{m}" / "entropy.json").read_text())
        assert payload["net_bound_delta"] == 0.002
        u = payload["net_bound_u_at_delta"]
        conf = RunConfig.load(str(path))
        field, params = conf.field_model(), conf.params()
        assert finite_net_union_bound(field, params, u) <= 0.002
        assert finite_net_union_bound(field, params, u / 1.01) > 0.002
        levels[m] = u
    # a finer grid costs more points in the union bound
    assert levels[64] > levels[16]


def _read_csv(path):
    """The row of column names of a result CSV, and its data columns."""
    lines = path.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[k].split(","), np.loadtxt(lines[k + 1:], delimiter=",",
                                           ndmin=2).T


def _assert_result_files(out, expected):
    """out holds exactly the files in expected, each with the expected
    column names and values, column by column under the row of names."""
    assert {p.name for p in out.iterdir()} == set(expected)
    for name, columns in expected.items():
        names, data = _read_csv(out / name)
        assert names == list(columns), name
        for got, want in zip(data, columns.values(), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0,
                                       err_msg=name)


def test_result_files_match_the_library(tmp_path, cfg):
    # bound writes what the library computes for each curve
    out = tmp_path / "out"
    assert run(["bound", "--config", cfg, "--out", str(out)]) == 0
    params = make_mdt(4.0, 0.0)
    u_grid = default_u_grid(params, 16, u_max=40.0)
    expected = {}
    for curve in (closed_curve(params), fenchel_curve_bound(params),
                  witness_curve(params)):
        u = u_grid[in_domain(u_grid, curve.u_min)]
        expected[f"bound_{curve.provenance}.csv"] = {
            "u": u, "bound": curve.evaluate(u)}
    _assert_result_files(out, expected)


def test_moments_command(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["moments", "--config", cfg, "--out", str(out)]) == 0
    params = make_mdt(4.0, 0.0)
    moments = MomentCurve.compute(params, default_p_grid(params))
    _assert_result_files(out, {"moments.csv": {
        "p": moments.p_grid, "moment": moments.values,
        "quad_error": moments.errors}})


def test_fenchel_command(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["fenchel", "--config", cfg, "--out", str(out)]) == 0
    y = np.geomspace(1.0, 40.0, 64)
    pt = fenchel(GeneratingFunction.from_theta(make_mdt(4.0, 0.0)), y)
    _assert_result_files(out, {"fenchel.csv": {
        "y": y, "nu_star": pt.value, "p_star": pt.argmax}})


def test_malformed_v_expression(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("law:\n  V: 'frob(2)'\n")
    assert run(["bound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "frob" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("law:\n  betta: 4.0\n")
    assert run(["bound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "betta" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert run(["bound", "--config", str(tmp_path / "nope.yaml"),
                "--out", str(tmp_path / "o")]) == 2


def test_bad_law_parameters(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("law:\n  beta: 1.5\n")
    assert run(["bound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    # an activation point where the tail formula exceeds 1
    path.write_text('law: {beta: 3.0, gamma: 6.0, V: "c(100)", u_star: 2.72}\n')
    assert run(["bound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "exceeds 1 at u_star=2.72" in capsys.readouterr().err


def test_outputs_byte_identical_across_threads(tmp_path, cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", cfg, "--out", str(out1),
                "--threads", "1"]) == 0
    assert run(["simulate", "--config", cfg, "--out", str(out2),
                "--threads", "8"]) == 0
    assert (out1 / "simulation.csv").read_bytes() == \
        (out2 / "simulation.csv").read_bytes()


def test_seed_override_changes_output(tmp_path, cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["simulate", "--config", cfg, "--out", str(out1), "--seed", "5"])
    run(["simulate", "--config", cfg, "--out", str(out2), "--seed", "6"])
    a = json.loads((out1 / "simulation.json").read_text())
    b = json.loads((out2 / "simulation.json").read_text())
    assert a["qhat"] != b["qhat"]


def test_budget_override_guard(tmp_path, cfg):
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                "--budget", "100"]) == 3


def test_numeric_error_prints_diagnostics(tmp_path, cfg, capsys, monkeypatch):
    monkeypatch.setattr(distribution, "_RESIDUAL_TOL", -1.0)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                "--seed", "9"]) == 3
    err = capsys.readouterr().err
    assert "quantile failed to reach tolerance" in err
    assert "  law: beta=4 gamma=0 V=c(1)" in err
    for line in ("  seed: 9", "  n: 4", "  chunk: 0", "  q: ", "  max_abs_err: "):
        assert line in err


@pytest.mark.parametrize("command, key, value, code", [
    ("simulate", "plan.n_grid", ["a"], 2),
    ("simulate", "plan.n_grid", [1, 2.5], 2),
    ("entropy", "entropy.weights", [1.0, "a"], 2),
    ("simulate", "plan.n_grid", [], 3),
])
def test_malformed_list_values(tmp_path, capsys, command, key, value, code):
    section, name = key.split(".")
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({section: {name: value}}))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == code
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("c1", ["-5.0", ".nan", "0.0", ".inf"])
def test_bounds_c1_must_be_finite_positive(tmp_path, capsys, c1):
    # such a constant once certified a radius at the search floor or wrote
    # NaN into the JSON
    path = tmp_path / "bad.yaml"
    path.write_text(f"bounds:\n  c1: {c1}\n")
    assert run(["confidence", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "bounds.c1" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "plan.reps", 999),
    ("simulate", "plan.dkw_delta", 1.5),
    ("confidence", "confidence.delta", 0.0),
    ("confidence", "confidence.n", 0),
    ("simulate", "plan.threads", 0),
    ("certify", "plan.seed", -1),
    ("simulate", "plan.budget", 0),
    ("certify", "bounds.calibration_slack_dkw", -1.0),
    ("certify", "bounds.calibration_slack_dkw", float("nan")),
])
def test_out_of_range_values_are_config_errors(tmp_path, capsys, command, key,
                                               value):
    # checked at load, before any draw: these once exited 3 from deep in
    # the library, and threads: 0 ran
    tree = yaml.safe_load(FAST_PLAN)
    section, name = key.split(".")
    tree.setdefault(section, {})[name] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(tree))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_threads_override_is_range_checked(tmp_path, cfg, capsys):
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                "--threads", "0"]) == 2
    assert "'plan.threads'" in capsys.readouterr().err


def test_seed_override_is_range_checked(tmp_path, cfg, capsys):
    # exit 1 is a failed certification: a negative seed must not reach
    # the stream
    assert run(["certify", "--config", cfg, "--out", str(tmp_path / "o"),
                "--seed", "-1"]) == 2
    assert "'plan.seed'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("u_points", 0), ("u_points", -3),
                                        ("u_max", 0.0), ("u_max", -2.0)])
def test_empty_u_grid_is_an_error_not_a_verdict(tmp_path, capsys, key, value):
    # exit 0 would certify nothing or NaN cells, exit 1 would claim a
    # failed check
    tree = yaml.safe_load(FAST_PLAN)
    tree["plan"][key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(tree))
    assert run(["certify", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "u-grid" in capsys.readouterr().err


@pytest.mark.parametrize("bounds, key", [
    ("{c1: 5.0, mode: calibrated}", "bounds.mode"),
    ("{calibration_slack_dkw: 4.0}", "bounds.calibration_slack_dkw"),
    ("{calibration_slack_dkw: 4.0, mode: pessimistic}",
     "bounds.calibration_slack_dkw"),
])
def test_bounds_keys_no_command_reads_are_rejected(tmp_path, capsys, bounds,
                                                   key):
    # a given c1 overrides calibration, and the slack only feeds it
    path = tmp_path / "dead.yaml"
    path.write_text(FAST_PLAN + f"bounds: {bounds}\n")
    assert run(["certify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--threads", "--budget"])
@pytest.mark.parametrize("command", ["bound", "confidence", "entropy",
                                     "moments", "fenchel"])
def test_sampling_flags_only_on_sampling_commands(tmp_path, command, flag):
    # these commands draw nothing, so a sampling flag would change only the
    # config-hash line; argparse rejects it with exit 2
    with pytest.raises(SystemExit) as info:
        run([command, "--out", str(tmp_path / "o"), flag, "2"])
    assert info.value.code == 2


def test_bounds_mode_must_be_known(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(FAST_PLAN + "bounds:\n  mode: bogus\n")
    assert run(["certify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "pessimistic, calibrated" in err


@pytest.mark.parametrize("text, message", [
    ("law:\n  beta: true\n", "config key 'law.beta' has wrong type bool"),
    ("- 1\n- 2\n", "section '<root>' must be a mapping"),
    ("bogus: {}\n", "unknown config key 'bogus'"),
    ("law: 3\n", "section 'law' must be a mapping"),
    ("law: [1, 2\n", "cannot parse config"),
])
def test_malformed_config_files_are_config_errors(tmp_path, capsys, text,
                                                  message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert run(["bound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


SMALL_PLAN = {"plan": {"n_grid": [1, 2, 4], "reps": 1000, "u_points": 8,
                       "u_max": 40.0}}

# key -> (cheapest command that reads it, a non-default value, other keys
# the value needs in order to take effect)
READERS = {
    "law.beta": ("simulate", 3.5, {}),
    "law.gamma": ("simulate", 1.0, {}),
    "law.V": ("simulate", "lp(1)", {}),
    "law.u_star": ("simulate", 4.0, {}),
    "bounds.mode": ("certify", "calibrated", {}),
    "bounds.c1": ("confidence", 0.5, {}),
    "bounds.calibration_slack_dkw": ("certify", 4.0,
                                     {"bounds.mode": "calibrated"}),
    "plan.n_grid": ("simulate", [1, 2, 8], {}),
    "plan.reps": ("simulate", 1200, {}),
    "plan.seed": ("simulate", 2, {}),
    "plan.u_points": ("simulate", 9, {}),
    "plan.u_min": ("simulate", 5.0, {}),
    "plan.u_max": ("simulate", 30.0, {}),
    "plan.dkw_delta": ("simulate", 0.01, {}),
    "confidence.delta": ("confidence", 0.01, {}),
    "confidence.n": ("confidence", 500, {}),
    # the field's union bound is clamped at 1 below u ~ 1e3
    "entropy.weights": ("entropy", [1.0, 0.25], {"plan.u_max": 1e4}),
    "entropy.M": ("entropy", 32, {"plan.u_max": 1e4}),
}
EXEMPT = {
    "plan.threads": "scheduling only: results must not depend on it",
    "plan.budget": "scheduling only: a guard on the draw count",
    "output.dir": "deployment path",
}


def _outputs(tmp_path, command, settings):
    tree = json.loads(json.dumps(SMALL_PLAN))
    for name, value in settings.items():
        section, key = name.split(".")
        tree.setdefault(section, {})[key] = value
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "config.yaml").write_text(yaml.safe_dump(tree))
    run([command, "--config", str(work / "config.yaml"), "--out", str(work / "out")])
    return {p.name: [line for line in p.read_text().splitlines()
                     if "config_hash" not in line]
            for p in sorted((work / "out").iterdir())}


def test_every_config_key_is_live_or_rejected(tmp_path):
    """A key no command reads must be deleted from the table (unknown keys
    are rejected); every other key changes some output file in a line
    other than the config hash."""
    table = RunConfig.load(None).raw
    keys = {f"{section}.{key}" for section, body in table.items() for key in body}
    assert not set(EXEMPT) - keys
    dead = sorted(keys - set(READERS) - set(EXEMPT))
    for name, (command, value, context) in READERS.items():
        section, key = name.split(".")
        assert value != table[section][key], name
        if _outputs(tmp_path, command, context) == \
                _outputs(tmp_path, command, {**context, name: value}):
            dead.append(name)
    assert not dead, f"config keys that change no output: {dead}"
