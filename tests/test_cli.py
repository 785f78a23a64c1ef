import json

import pytest

from modtail import distribution
from modtail.cli import main

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


def test_confidence_command(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["confidence", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "confidence.json").read_text())
    assert payload["attained"] is True
    assert payload["radius"] > 0
    assert "certificate" in payload


def test_entropy_command(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["entropy", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "entropy.json").read_text())
    assert payload["condition_satisfied"] is True
    assert payload["entropic_integral"] == pytest.approx(4.0 / 3.0, rel=1e-8)


def test_moments_command(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["moments", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "moments.csv").exists()


def test_fenchel_command(tmp_path, cfg):
    out = tmp_path / "out"
    assert run(["fenchel", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "fenchel.csv").exists()


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


def test_bad_law_parameters(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("law:\n  beta: 1.5\n")
    assert run(["bound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


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
