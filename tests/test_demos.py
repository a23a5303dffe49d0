"""Every demo script runs to completion as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spreadlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # the demos write their reports to the working directory
    env = dict(os.environ, PYTHONPATH=str(Path(spreadlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
