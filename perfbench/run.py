"""spreadlab benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--workers 1]

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads (see workload.py and BENCHMARK.json): ``even8-scan``,
``candidate-scans`` and ``constructions``.

Every repetition is a fresh interpreter pinned to its own CPU; two run at
once on two CPUs ("lanes"), since the slowdowns this benchmark sees on a
shared 2-core host hit each CPU independently, and two lanes give twice the
samples in the same time.

--trace 0 runs repetitions back to back in each lane until the next one
would end past S seconds (at least two per lane), and reports the median
of each end-to-end metric: setup_s, wall_s, candidates_per_s, peak_rss_mb,
and checks_passed_share over every check of every repetition.

--trace 1 runs one untraced and one traced repetition side by side, and
reports the per-layer metrics of the traced one plus trace.overhead_s, the
difference of their wall times.  Every span is written to
.perfbench/trace/<workload>.npz.

The last line of standard output is the result object; the line before it
holds the run metadata (cpu count, workers, Python and numpy versions, git
revision, seed, per-repetition values), which also goes to
.perfbench/results/.  Exit code 2 without a result means the checkout or
the arguments are unusable; 1 means a repetition crashed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from workload import WORKLOADS

LANES = 2             # repetitions that run at once, each on its own CPU
MIN_REPS_PER_LANE = 2
CHILD_TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent


class RepetitionFailed(Exception):
    pass


def fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def git_revision(root: Path) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(pkg.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Child:
    """Starts workload.py repetitions with the checkout's src/ on the path."""

    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.out = root / ".perfbench"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # a fixed string-hash seed keeps set and dict layouts the same in
        # every repetition
        self.env["PYTHONHASHSEED"] = "0"

    def warm_up(self) -> None:
        """Import once so that bytecode compilation is not timed as set-up."""
        code = "import spreadlab, sys; print(spreadlab.__file__)"
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        where = Path(proc.stdout.strip() or ".").resolve()
        if proc.returncode != 0 or self.root / "src" not in where.parents:
            fail(f"spreadlab does not import from {self.root / 'src'}: "
                 f"{proc.stderr.strip() or where}", 2)

    def run(self, rep: str, traced: bool, cpus: list[int]) -> dict:
        a = self.args
        tag = f"{a.workload}-{os.getpid()}-{rep}"
        workdir = self.out / "work" / tag
        workdir.mkdir(parents=True, exist_ok=True)
        result = self.out / "work" / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--trace", str(int(traced)),
               "--workers", str(a.workers), "--workdir", str(workdir),
               "--result", str(result), "--cpus", ",".join(map(str, cpus))]
        if traced:
            (self.out / "trace").mkdir(exist_ok=True)
            cmd += ["--spans", str(self.out / "trace" / f"{a.workload}.npz")]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=CHILD_TIMEOUT_S)
            doc = json.loads(result.read_text()) if proc.returncode == 0 else None
        except subprocess.TimeoutExpired:
            doc = None
        finally:
            for f in workdir.iterdir():
                f.unlink()
            workdir.rmdir()
            result.unlink(missing_ok=True)
        if doc is None:
            raise RepetitionFailed(f"repetition {rep} of {a.workload} did not complete")
        doc["process_wall_s"] = time.monotonic() - t0
        return doc

    def repeat(self, cpus: list[int], start: float, seconds: float) -> list[dict]:
        """Back-to-back repetitions on cpus until the next one would end
        more than `seconds` after start."""
        reps: list[dict] = []
        while len(reps) < MIN_REPS_PER_LANE or (time.monotonic() - start
                                                + reps[-1]["process_wall_s"] <= seconds):
            reps.append(self.run(f"{cpus[0]}-{len(reps)}", False, cpus))
        return reps


def cpu_lanes(workers: int) -> list[list[int]]:
    """Up to LANES disjoint CPU sets of `workers` CPUs each."""
    cpus = sorted(os.sched_getaffinity(0))
    lanes = [cpus[i:i + workers] for i in range(0, len(cpus) - workers + 1, workers)]
    return lanes[:LANES] or [cpus]


def end_to_end(reps: list[dict]) -> dict:
    med = statistics.median
    checks = sum(r["checks"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    return {
        "setup_s": (med([r["setup_s"] for r in reps]), "s"),
        "wall_s": (med([r["wall_s"] for r in reps]), "s"),
        "candidates_per_s": (med([r["candidates"] / r["experiment_s"] for r in reps]), "1/s"),
        "peak_rss_mb": (med([r["peak_rss_mb"] for r in reps]), "MB"),
        "checks_passed_share": ((checks - failed) / checks, "share"),
    }


UNITS = {"self_s": "s", "bytes": "B", "true_ratio": "share", "hit_ratio": "share",
         "overhead_s": "s"}


def per_layer(plain: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {k: (v, UNITS.get(k.rsplit(".", 1)[1], "count")) for k, v in layers.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="spreadlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workers", type=int, default=1,
                    help="run_experiment jobs (at most os.cpu_count())")
    args = ap.parse_args()
    root = Path.cwd().resolve()
    pkg = root / "src" / "spreadlab"
    if not (pkg / "__init__.py").is_file():
        fail(f"no spreadlab sources under {root / 'src'}; run from a source checkout", 2)
    if args.seed < 0:
        fail("--seed must be a non-negative integer", 2)
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        fail(f"--workers {args.workers} is outside 1..os.cpu_count() = {cpus}", 2)
    if args.trace and args.workers != 1:
        fail("tracing sees only the calling process; use --workers 1", 2)

    child = Child(root, args)
    child.warm_up()
    lanes = cpu_lanes(args.workers)
    start = time.monotonic()
    try:
        with ThreadPoolExecutor(len(lanes)) as pool:
            if args.trace:
                plain = pool.submit(child.run, "plain", False, lanes[0])
                traced = pool.submit(child.run, "traced", True, lanes[-1])
                reps = [plain.result(), traced.result()]
            else:
                runs = [pool.submit(child.repeat, cpus, start, args.seconds) for cpus in lanes]
                reps = [r for run in runs for r in run.result()]
    except RepetitionFailed as exc:
        fail(str(exc), 1)
    metrics = per_layer(*reps) if args.trace else end_to_end(reps)

    attempted = sum(r["checks"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": time.monotonic() - start,
        "cpu_count": cpus, "workers": args.workers, "lanes": lanes,
        "python": platform.python_version(), "numpy": reps[0]["numpy"],
        "git_revision": git_revision(root), "src_sha256": source_digest(pkg),
        "repetitions": [{k: r[k] for k in ("setup_s", "wall_s", "experiment_s",
                                           "candidates", "peak_rss_mb", "checks")}
                        for r in reps],
        "failures": failures,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = child.out / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
