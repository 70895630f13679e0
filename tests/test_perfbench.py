"""The benchmark's tracing hooks still resolve against the library."""

import os
import subprocess
import sys

import ivrand

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_layers_install_finds_every_wrapped_name():
    # perfbench/layers.py wraps library functions by module and name; a
    # renamed or dropped name must fail here, not in a traced benchmark run.
    # No bytecode is written, so the test leaves perfbench/ as it found it.
    src = os.path.dirname(os.path.dirname(ivrand.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import layers, spans; layers.install(spans.Tracer())"],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
