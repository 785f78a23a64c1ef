"""Each demo script runs to completion against the package under test,
a bare import of the package loads no scipy or multiprocessing, and its
namespace keeps functions and submodules apart."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import modtail

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(modtail.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy():
    # nor multiprocessing: sampling lanes are forked with os.fork
    code = ("import sys, modtail; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_submodules_not_shadowed_or_exported():
    import modtail.fenchel as fenchel_module
    assert isinstance(fenchel_module, types.ModuleType)
    assert not [name for name in modtail.__all__
                if isinstance(getattr(modtail, name), types.ModuleType)]
