"""The acceptance gate's PASS lines reach the terminal in a plain run."""

import os
from pathlib import Path

import spreadlab

pytest_plugins = ["pytester"]

GATE = Path(__file__).with_name("test_acceptance.py")


def test_pass_line_shown_without_dash_s(pytester, monkeypatch):
    # the inner pytest runs in a temporary directory: import spreadlab from
    # where this process found it
    src = str(Path(spreadlab.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = pytester.runpytest_subprocess(
        "-q", "-p", "no:cacheprovider", f"{GATE}::test_criterion_9f_psi_image")
    result.assert_outcomes(passed=1)
    result.stdout.fnmatch_lines(["PASS criterion 9f: *"])
