import ast
import sys
from pathlib import Path

import pytest

import modtail

MODULES = sorted(p for p in Path(modtail.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
# the test and demo scripts, checked for unused imports as well
SCRIPTS = sorted(p for folder in ("tests", "demos")
                 for p in (Path(__file__).parents[1] / folder).glob("*.py"))
# the modules that write result files; every other one returns data
WRITERS = {"harness.py", "cli.py"}
# the import roots of the runtime dependencies pyproject.toml declares
# (numpy, pyyaml); scipy is a test oracle only
RUNTIME_DEPS = {"numpy", "yaml"}


def unused_imports(source: str):
    """(line, name) of each name a module imports and never reads, as a
    name or as the root of an attribute."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def function_imports(source: str):
    """Lines of the imports made inside a function, nested or a method:
    a call-time import hides an import cycle."""
    tree = ast.parse(source)
    return sorted({node.lineno for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_one():
    # __future__ is exempt; an annotation and an attribute root are uses
    src = ("from __future__ import annotations\nimport os\n"
           "import numpy as np\n"
           "from .distribution import MdtParams, _log_tail_y\n"
           "def f(p: MdtParams):\n    return np.pi\n")
    assert unused_imports(src) == [(2, "os"), (4, "_log_tail_y")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_in_functions(path):
    assert function_imports(path.read_text()) == []


def test_function_import_check_sees_them():
    # module-level imports pass; one in a function, a nested function or
    # a method does not
    src = ("import os\n"
           "def f():\n    import json\n"
           "    def g():\n        from .harness import _draws\n"
           "    return g\n"
           "class C:\n    def m(self):\n        import re\n")
    assert function_imports(src) == [3, 5, 9]


def foreign_imports(source: str):
    """(line, module) of each import that is not relative, not of the
    standard library and not rooted at a runtime dependency."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | RUNTIME_DEPS]
    return found


@pytest.mark.parametrize("path", sorted(Path(modtail.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_declared_runtime_imports(path):
    assert foreign_imports(path.read_text()) == []


def test_runtime_import_check_sees_scipy():
    # relative, standard-library, numpy and yaml imports pass
    src = ("from __future__ import annotations\nimport math, json\n"
           "import numpy as np\nfrom numpy.linalg import norm\nimport yaml\n"
           "from .errors import DomainError\nfrom . import bounds\n"
           "import scipy\nfrom scipy.optimize import brentq\n"
           "import hypothesis.strategies as st\n")
    assert foreign_imports(src) == [(8, "scipy"), (9, "scipy.optimize"),
                                    (10, "hypothesis.strategies")]


def numeric_errors_without_law(source: str):
    """Lines of each raise NumericError(...) whose diagnostics are not a
    dict literal with a "law" key: an error names the law it failed on."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "NumericError"):
            continue
        diag = node.exc.args[1:2] or [kw.value for kw in node.exc.keywords
                                       if kw.arg == "diagnostics"]
        if not (diag and isinstance(diag[0], ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "law"
                for k in diag[0].keys)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numeric_errors_name_the_law(path):
    assert numeric_errors_without_law(path.read_text()) == []


def test_numeric_error_check_sees_a_missing_law():
    # a law key, positional or by keyword, passes; no diagnostics, other
    # keys only or a dict that is not a literal does not
    src = ("raise NumericError('a', {'law': d, 'y': 1})\n"
           "raise NumericError('a', diagnostics={'law': d})\n"
           "raise NumericError('a')\n"
           "raise NumericError('a', {'y': 1})\n"
           "raise NumericError('a', diag)\n"
           "raise DomainError('a')\n")
    assert numeric_errors_without_law(src) == [3, 4, 5]


def file_writes(source: str):
    """Lines of the calls that write a file: savetxt, json.dump, and open
    with a mode that writes, appends or creates (a mode that is not a
    literal counts as one)."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Attribute) and (
                fn.attr == "savetxt" or (fn.attr == "dump" and isinstance(
                    fn.value, ast.Name) and fn.value.id == "json")):
            lines.add(node.lineno)
        elif isinstance(fn, ast.Name) and fn.id == "open":
            mode = ([kw.value for kw in node.keywords if kw.arg == "mode"]
                    or node.args[1:2])
            if mode and not (isinstance(mode[0], ast.Constant)
                             and set(str(mode[0].value)).isdisjoint("wax+")):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in WRITERS],
                         ids=lambda p: p.name)
def test_only_harness_and_cli_write_files(path):
    assert file_writes(path.read_text()) == []


def test_file_write_check_sees_them():
    # reading is not writing; a write mode, positional or keyword, is
    src = ("import json\nimport numpy as np\n"
           "open('a')\nopen('a', 'rb')\nopen('a', mode='r')\n"
           "open('a', 'w')\nopen('a', mode='ab')\nopen('a', 'r+')\n"
           "open('a', m)\nnp.savetxt('a', x)\njson.dump(x, fh)\n"
           "json.dumps(x)\npickle.dump(x, fh)\n")
    assert file_writes(src) == [6, 7, 8, 9, 10, 11]
