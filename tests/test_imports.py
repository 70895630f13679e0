"""What the library imports: no scipy at run time, and no unused import."""

import ast
import json
import os
import subprocess
import sys

import ivrand

SRC = os.path.dirname(os.path.dirname(ivrand.__file__))

CHILD = """
import json, sys
import ivrand, ivrand.cli
from ivrand import PRESETS, ScenarioSpec, TestConfig, generate
from ivrand.report import build_report

for kwargs in PRESETS.values():
    dataset, _ = generate(ScenarioSpec(n_units=60, k_covariates=3, seed=1, **kwargs))
build_report(dataset, TestConfig(n_draws=20, seed=1))
small, _ = generate(ScenarioSpec(n_units=20, k_covariates=2, seed=1))
build_report(small, TestConfig(n_draws=1), exact=True)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_scipy_module_loaded():
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


def _wrapped_names() -> set:
    """(module, name) of every ``w(<module>, "<name>", ...)`` in perfbench/layers.py."""
    with open(LAYERS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        (call.args[0].id, call.args[1].value)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "w" and len(call.args) >= 2
        and isinstance(call.args[0], ast.Name) and isinstance(call.args[1], ast.Constant)
    }


def _import_problems(module: str, source: str, wrapped: set) -> list[str]:
    """Module-level imports of ``source`` that are unused and not an
    exported or wrapped name, and ``# noqa: F401`` lines that excuse nothing."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    problems = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        unused = [name for name in names if name not in used]
        where = f"{module}.py:{node.lineno}"
        if noqa and not unused:
            problems.append(f"{where}: '# noqa: F401' on an import whose names are all used")
        for name in unused:
            if not noqa:
                problems.append(f"{where}: {name} is imported but unused")
            elif (module, name) not in wrapped:
                problems.append(f"{where}: {name} is kept for perfbench/layers.py, "
                                f"which wraps no {module}.{name}")
    return problems


def test_every_import_is_used_exported_or_wrapped():
    # no linter is a dependency, so unused imports are found here: each one
    # must be used, listed in __all__, or kept with '# noqa: F401' for a wrap
    # in perfbench/layers.py
    wrapped = _wrapped_names()
    src = os.path.dirname(ivrand.__file__)
    problems = []
    for filename in sorted(os.listdir(src)):
        if filename.endswith(".py"):
            with open(os.path.join(src, filename), encoding="utf-8") as fh:
                problems += _import_problems(filename[:-3], fh.read(), wrapped)
    assert problems == []


def test_import_guard_flags_unused_and_stale_imports():
    wrapped = {("report", "exact_test")}
    source = ("import math\n"
              "from .randtest import exact_test  # noqa: F401  wrapped\n"
              "from .randtest import run_many  # noqa: F401  wrapped\n"
              "import numpy as np  # noqa: F401\n"
              "np.zeros(1)\n")
    assert _import_problems("report", source, wrapped) == [
        "report.py:1: math is imported but unused",
        "report.py:3: run_many is kept for perfbench/layers.py, which wraps no report.run_many",
        "report.py:4: '# noqa: F401' on an import whose names are all used",
    ]
