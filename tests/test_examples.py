"""The scripts in examples/ keep working against the library.

The quickstart is fast, so it runs end to end in a fresh interpreter.
The other examples run whole simulations (tens of seconds each), so
they are only loaded: a module load executes every import and
top-level definition, which catches a renamed or deleted library name.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"


def test_quickstart_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert "bpc" in proc.stdout and "bdi" in proc.stdout


@pytest.mark.parametrize("name, entry", [
    ("capacity_planning", "estimate_effective_capacity"),
    ("design_space_explorer", "main"),
    ("graph_analytics", "main"),
])
def test_example_loads(name, entry):
    namespace = runpy.run_path(str(EXAMPLES / f"{name}.py"),
                               run_name="not_main")
    assert callable(namespace[entry])
