"""The benchmark's traced runs (`perfbench/spans.py`) wrap flucast
functions by module and name, so deleting or renaming one of them breaks
every traced run; this keeps that visible to the test suite."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_spans_install_finds_every_traced_function():
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.install(spans.Recorder())"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
