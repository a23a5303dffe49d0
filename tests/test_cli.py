"""Command-line behavior: subcommands, outputs, and the exit-code contract
(0 verified/confirmed, 1 usage or I/O error, 2 mathematical failure)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spreadlab

import spreadlab.experiments as ex
from spreadlab.cli import main


def test_tower(capsys):
    assert main(["tower", "--p", "3", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == 3 and doc["e"] == 1 and doc["n"] == 2
    assert {"defining_poly", "gamma", "beta"} <= set(doc)


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["experiment"])                # missing name
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["build", "nonsense", "--p", "3"])
    assert ei.value.code == 1


def test_build_and_verify_typec(tmp_path, capsys):
    out = str(tmp_path / "s.json")
    assert main(["build", "typec", "--p", "3", "--n", "3", "--out", out]) == 0
    msg = capsys.readouterr().out
    assert "28 components" in msg and "kernel 3" in msg
    assert main(["verify", out]) == 0
    assert "verified spread, 28 components, kernel 3" in capsys.readouterr().out


def test_build_typeh(tmp_path, capsys):
    out = str(tmp_path / "h.json")
    assert main(["build", "typeh", "--p", "3", "--n", "3", "--out", out]) == 0
    assert main(["verify", out]) == 0
    assert "28 components" in capsys.readouterr().out


def test_build_even3_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "even3", "--p", "2"]) == 0     # n defaults to 3
    msg = capsys.readouterr().out
    assert "9 components" in msg and "even3-spread.json" in msg
    assert main(["verify", "even3-spread.json"]) == 0
    assert "kernel 8" in capsys.readouterr().out


def test_build_failures_exit_1(capsys):
    assert main(["build", "typec", "--p", "2", "--n", "3"]) == 1   # even q
    assert main(["build", "typec", "--p", "3", "--n", "3", "--delta", "1"]) == 1
    assert main(["build", "even3", "--p", "2", "--n", "4"]) == 1
    assert main(["build", "typec", "--p", "3"]) == 1               # missing --n
    capsys.readouterr()


def test_verify_detects_tampering(tmp_path, capsys):
    out = str(tmp_path / "t.json")
    assert main(["build", "typec", "--p", "3", "--n", "3", "--out", out]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    doc["components"][1] = doc["components"][2]          # duplicate component
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    assert main(["verify", bad]) == 2
    assert "NOT a spread" in capsys.readouterr().out


def test_verify_detects_kernel_mismatch(tmp_path, capsys):
    out = str(tmp_path / "k.json")
    assert main(["build", "even3", "--p", "2", "--out", out]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    doc["kernel"] = 2
    with open(out, "w") as fh:
        json.dump(doc, fh)
    assert main(["verify", out]) == 2
    assert "kernel is 8" in capsys.readouterr().out


def test_verify_io_errors_exit_1(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "missing.json")]) == 1
    garbled = str(tmp_path / "garbled.json")
    with open(garbled, "w") as fh:
        fh.write("{not json")
    assert main(["verify", garbled]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("corrupt", ["basis-too-large", "basis-negative", "no-components"])
def test_verify_corrupt_file_exits_1(tmp_path, capsys, corrupt):
    out = str(tmp_path / "s.json")
    assert main(["build", "typec", "--p", "3", "--n", "3", "--out", out]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    if corrupt == "no-components":
        doc["components"] = []
    else:
        doc["components"][1][0] = 10 ** 6 if corrupt == "basis-too-large" else -3
    with open(out, "w") as fh:
        json.dump(doc, fh)
    # as a user runs it, so a traceback would reach stderr
    env = dict(os.environ, PYTHONPATH=str(Path(spreadlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spreadlab.cli", "verify", out],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_experiment_confirmed(tmp_path, capsys):
    out = str(tmp_path / "odd.json")
    code = main(["experiment", "no-typec-odd", "--q", "3", "--n", "2",
                 "--out", out])
    assert code == 0
    msg = capsys.readouterr().out
    assert "confirmed" in msg and "648 candidates" in msg
    with open(out) as fh:
        assert json.load(fh)["verdict"] == "confirmed"
    assert (tmp_path / "odd.csv").exists()


def test_experiment_counterexample_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ex, "permutes_cosets", lambda Q: True)
    out = str(tmp_path / "forced.json")
    code = main(["experiment", "no-typec-odd", "--q", "3", "--n", "2",
                 "--out", out])
    assert code == 2
    assert "counterexample" in capsys.readouterr().out


def test_experiment_errors_exit_1(tmp_path, capsys):
    assert main(["experiment", "frobnicate",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert main(["experiment", "no-typec-odd", "--q", "2", "--n", "2",
                 "--out", str(tmp_path / "y.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_experiment_rejects_jobs_below_1(tmp_path, capsys, jobs):
    out = tmp_path / "j.json"
    assert main(["experiment", "no-typec-odd", "--q", "3", "--n", "2",
                 "--jobs", jobs, "--out", str(out)]) == 1
    assert f"--jobs must be at least 1 (got {jobs})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, msg", [
    (["no-typec-odd", "--q", "3", "--n", "2", "--sample", "5", "--k", "9"],
     "unknown parameter(s) k, sample"),
    (["planar-dichotomy", "--sample", "-5"], "sample must be at least 0"),
], ids=["unused-params", "negative-sample"])
def test_experiment_rejects_params(tmp_path, capsys, argv, msg):
    out = tmp_path / "r.json"
    assert main(["experiment", *argv, "--out", str(out)]) == 1
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_experiment_refuses_corrupt_state(tmp_path, capsys):
    out = tmp_path / "h.json"
    (tmp_path / "h.json.state").write_text("{broken")
    assert main(["experiment", "hermite-coefficient", "--q", "2",
                 "--out", str(out)]) == 1
    assert "h.json.state" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_refuses_missing_report_dir(tmp_path, capsys, monkeypatch):
    # refused before the scan starts, with the path named and no traceback
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(ex, "_run_scan", no_scan)
    out = tmp_path / "missing" / "x.json"
    assert main(["experiment", "hermite-coefficient", "--q", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err
    assert not out.parent.exists()


def test_experiment_report_io_error_exits_1(tmp_path, capsys):
    # a report path that is a directory fails when the report is written
    out = tmp_path / "taken.json"
    out.mkdir()
    assert main(["experiment", "hermite-coefficient", "--q", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
