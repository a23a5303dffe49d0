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


@pytest.mark.parametrize("flag", ["false", "no", [1]])
def test_verify_refuses_a_verified_flag_that_is_no_boolean(tmp_path, flag):
    out = str(tmp_path / "s.json")
    assert main(["build", "typec", "--p", "3", "--n", "3", "--out", out]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    doc["verified"] = flag
    with open(out, "w") as fh:
        json.dump(doc, fh)
    env = dict(os.environ, PYTHONPATH=str(Path(spreadlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spreadlab.cli", "verify", out],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "verified must be a JSON boolean" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("index", [0, 5])
@pytest.mark.parametrize("edit", ["drop", "add"])
def test_verify_component_of_wrong_dimension_exits_2(tmp_path, index, edit):
    # a well-formed file whose component has dimension 2 or 4, not n = 3, is
    # no spread, wherever the component stands
    out = str(tmp_path / "s.json")
    assert main(["build", "typec", "--p", "3", "--n", "3", "--out", out]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    basis = doc["components"][index]
    if edit == "drop":
        basis.pop()
    else:
        basis.append(doc["components"][6][0])      # outside component `index`
    with open(out, "w") as fh:
        json.dump(doc, fh)
    env = dict(os.environ, PYTHONPATH=str(Path(spreadlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spreadlab.cli", "verify", out],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "NOT a spread (28 components)" in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, name", [
    (["typec", "--p", "3", "--n", "3", "--delta", "-717"], "delta"),
    (["typec", "--p", "3", "--n", "3", "--delta", "1000000"], "delta"),
    (["typeh", "--p", "3", "--n", "3", "--eta", "99999"], "eta"),
    (["even3", "--p", "2", "--delta", "5000"], "delta"),
], ids=["typec-negative", "typec-large", "typeh-eta", "even3-large"])
def test_build_refuses_non_encodings(tmp_path, argv, name):
    # -717 would wrap to a valid element under negative indexing
    env = dict(os.environ, PYTHONPATH=str(Path(spreadlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spreadlab.cli", "build", *argv,
                           "--out", str(tmp_path / "s.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"error: {name} = " in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv", [
    ["--p", "3", "--n", "2"], ["--p", "5", "--n", "2"], ["--p", "3", "--n", "4"],
    ["--p", "3", "--n", "3", "--k", "-1"], ["--p", "3", "--n", "3", "--k", "1000000000"],
], ids=["p3-n2", "p5-n2", "p3-n4", "k-negative", "k-huge"])
def test_build_typeh_refuses_bad_shape(tmp_path, argv):
    # no eta exists for even n: refused before one is looked up; a k out of
    # range is refused by build_typeH after a quick eta lookup
    env = dict(os.environ, PYTHONPATH=str(Path(spreadlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spreadlab.cli", "build", "typeh", *argv,
                           "--out", str(tmp_path / "h.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "h.json").exists()


@pytest.mark.parametrize("edit", ["p-float", "basis-float"])
def test_verify_refuses_non_integer_numbers(tmp_path, capsys, edit):
    # int() would truncate 3.5 to 3 and 190.5 to 190, and the file would verify
    out = str(tmp_path / "s.json")
    assert main(["build", "typec", "--p", "3", "--n", "3", "--out", out]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    if edit == "p-float":
        doc["ctx"]["p"] = 3.5
    else:
        doc["components"][1][0] += 0.5
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify", out]) == 1
    err = capsys.readouterr().err
    assert "must be an integer" in err and ".5" in err


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


def test_experiment_over_budget_exits_1(tmp_path, capsys):
    out = tmp_path / "e.json"
    assert main(["experiment", "even3-classification", "--q", "8",
                 "--out", str(out)]) == 1
    assert ("error: search space exceeds the desk-scale budget"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["hermite-coefficient", "--q", "16"],
    ["planar-dichotomy", "--sample", "1000000"],
    ["no-typec-even8", "--q", "8"],
    ["no-typec-even8", "--q", "16"],
], ids=["hermite-q16", "planar-sample", "even8-q8", "even8-q16"])
def test_experiment_new_budgets_exit_1(tmp_path, capsys, monkeypatch, argv):
    # refused before any tower is built
    monkeypatch.setattr(ex, "build_tower", None)
    out = tmp_path / "b.json"
    assert main(["experiment", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds the desk-scale budget" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_experiment_refuses_jobs_above_cpu_count(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(ex, "_run_scan", no_scan)
    jobs = (os.cpu_count() or 1) + 1
    out = tmp_path / "j.json"
    assert main(["experiment", "no-typec-odd", "--q", "3", "--n", "2",
                 "--jobs", str(jobs), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --jobs {jobs} exceeds os.cpu_count()")
    assert "Traceback" not in err
    assert not out.exists()


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
    (["no-typec-odd", "--q", "3", "--n", "0"], "needs even n >= 2 (got 0)"),
], ids=["unused-params", "negative-sample", "odd-n0"])
def test_experiment_rejects_params(tmp_path, capsys, argv, msg):
    out = tmp_path / "r.json"
    assert main(["experiment", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert msg in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("k", ["-1", "0"])
def test_planar_refuses_k_below_1(tmp_path, capsys, monkeypatch, k):
    # refused before the tower is built: math.gcd(-1, 3) == 1 let k = -1
    # through to a numpy TypeError in vpow, since 2 q^k was a float
    monkeypatch.setattr(ex, "build_tower", None)
    out = tmp_path / "p.json"
    assert main(["experiment", "planar-dichotomy", "--q", "3", "--m", "3", "--k", k,
                 "--sample", "5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"need k >= 1 (got {k})" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_experiment_refuses_negative_seed(tmp_path, capsys, monkeypatch):
    # refused before any scan is dispatched, with the seed named, not with
    # numpy's bare "expected non-negative integer" from the sampler
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(ex, "_run_scan", no_scan)
    out = tmp_path / "p.json"
    assert main(["experiment", "planar-dichotomy", "--q", "3", "--m", "3", "--k", "1",
                 "--sample", "10", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be at least 0 (got -1)")
    assert "Traceback" not in err
    assert not out.exists()


def test_experiment_refuses_corrupt_state(tmp_path, capsys):
    out = tmp_path / "h.json"
    (tmp_path / "h.json.state").write_text("{broken")
    assert main(["experiment", "hermite-coefficient", "--q", "2",
                 "--out", str(out)]) == 1
    assert "h.json.state" in capsys.readouterr().err
    assert not out.exists()


_BAD_ODD_STATES = {
    "pos-past-the-end": {"pos": 10 ** 6},
    "pos-negative": {"pos": -3},
    "pos-string": {"pos": "1"},
    "seconds-missing": {"seconds": None},
    "hits-above-candidates": {"hits": 6},
}


@pytest.mark.parametrize("fields", _BAD_ODD_STATES.values(), ids=_BAD_ODD_STATES)
def test_experiment_refuses_a_malformed_checkpoint(tmp_path, capsys, monkeypatch, fields):
    # a state file under the scan's own key, (3,2) in one range, whose fields
    # name no point of the scan: exit 1 before any range runs, no Traceback,
    # never a "confirmed" (pos 10^6 once gave one with 5 candidates)
    def no_range(*args):
        raise AssertionError("a range ran")

    monkeypatch.setattr(ex, "_odd_check", no_range)
    out = tmp_path / "odd.json"
    size = max(1, ex._ROW_BLOCK // (8 * 9))
    doc = {"pos": 0, "candidates": 5, "hits": 0, "seconds": 0.5, **fields}
    ex._save_state(str(out), ex._state_key("no-typec-odd", {"q": 3, "n": 2}, 81, size),
                   **{k: v for k, v in doc.items() if v is not None})
    assert main(["experiment", "no-typec-odd", "--q", "3", "--n", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot resume from {out}.state: ")
    assert "delete it" in err and "Traceback" not in err
    assert not out.exists() and (tmp_path / "odd.json.state").exists()


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


def test_experiment_refuses_report_path_that_is_a_directory(tmp_path, capsys,
                                                           monkeypatch):
    # refused before the scan starts, with the path named and no traceback
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(ex, "_run_scan", no_scan)
    out = tmp_path / "taken.json"
    out.mkdir()
    assert main(["experiment", "hermite-coefficient", "--q", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert "Traceback" not in err


def test_experiment_report_io_error_exits_1(tmp_path, capsys, monkeypatch):
    # an OSError while the report is written exits 1 with an error line
    def denied(report, path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(ex, "report_write", denied)
    out = tmp_path / "r.json"
    assert main(["experiment", "hermite-coefficient", "--q", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert "Traceback" not in err
