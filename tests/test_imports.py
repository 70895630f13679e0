"""A fresh process runs the library, the CLI and the generator without scipy."""

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
