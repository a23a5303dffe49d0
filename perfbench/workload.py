"""One measured repetition of one workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1 \
        --workers 1 --workdir DIR --result FILE --cpus 0

The set-up phase is ``import spreadlab`` plus ``build_tower`` for every tower
the workload uses; the timed phase then drives the library through its
public API and checks every verdict, frozen count and boolean fact.  The
result (timings, counts, failed checks and, when traced, the span summary)
is written as JSON to FILE.  run.py starts one such process per repetition,
so tower caches and trace wrappers never outlive a repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


class Run:
    """Checks and experiment accounting for one repetition."""

    def __init__(self, sl, seed: int, jobs: int, workdir: str):
        self.sl = sl
        self.seed = seed
        self.jobs = jobs
        self.workdir = workdir
        self.checks = 0
        self.failures: list[str] = []
        self.experiment_s = 0.0
        self.candidates = 0
        self.permutation_pairs = 0
        self.report_bytes = 0
        self.json_bytes = 0

    def check(self, label: str, fact) -> bool:
        """Count one check; fact() must return True, and raising fails it."""
        self.checks += 1
        try:
            ok = bool(fact())
        except Exception as exc:  # a raising check is a failed check
            ok = False
            label = f"{label} raised {type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(label)
        return ok

    def experiment(self, name: str, params: dict, **expect):
        """run_experiment with a report path; checks the verdict and each
        expected count (details keys, or "candidates")."""
        sl = self.sl
        out = os.path.join(self.workdir, f"{name}.json")
        spec = sl.ExperimentSpec(name, params, jobs=self.jobs, seed=self.seed, out=out)
        t0 = time.perf_counter()
        try:
            rep = sl.run_experiment(spec)
        except Exception as exc:
            rep = None
            err = f"{type(exc).__name__}: {exc}"
        self.experiment_s += time.perf_counter() - t0
        if rep is None:
            for label in ["verdict", *expect]:
                self.check(f"{name} {label} (run_experiment raised {err})", lambda: False)
            return None
        self.candidates += rep.candidates
        self.permutation_pairs += rep.details.get("permutation_pairs") or 0
        csv = os.path.splitext(out)[0] + ".csv"
        self.report_bytes += os.path.getsize(out) + os.path.getsize(csv)
        self.check(f"{name} verdict confirmed", lambda: rep.verdict == "confirmed"
                   and rep.counterexample is None)
        for key, want in expect.items():
            got = rep.candidates if key == "candidates" else rep.details.get(key)
            self.check(f"{name} {key} = {want} (got {got})", lambda: got == want)
        return rep


# -- workloads ---------------------------------------------------------------


def even8_scan(run: Run) -> None:
    """The characteristic-2 vectorized scan, checkpointing every 10^6."""
    run.experiment("no-typec-even8", {"q": 2},
                   candidates=15_728_640, permutation_pairs=3_840)
    state = os.path.join(run.workdir, "no-typec-even8.json.state")
    run.check("even8 checkpoint cleared after the scan",
              lambda: not os.path.exists(state))


def candidate_scans(run: Run) -> None:
    """The per-candidate Python path in odd and even characteristic."""
    run.experiment("no-typec-odd", {"q": 5, "n": 2},
                   candidates=15_000, polynomials=625, deltas=24)
    run.experiment("even3-classification", {"q": 2},
                   candidates=3_584, permutation_pairs=448)
    run.experiment("hermite-coefficient", {"q": 4}, candidates=4_032)


def _spread_ok(S, components: int) -> bool:
    return S.verified and len(S.components) == components


def constructions(run: Run) -> None:
    """Spread builds and re-verification, planarity and nuclei."""
    import numpy as np
    sl = run.sl

    # all 26 x 28 type-H spreads at (3,3)
    c313 = sl.build_tower(3, 1, 3)
    deltas, etas = c313.find_deltas(), c313.find_etas(1)
    run.check("(3,3) has 26 deltas and 28 etas",
              lambda: (len(deltas), len(etas)) == (26, 28))
    built = sum(run.check(f"typeH (3,3) delta={d} eta={h} verified, 28 components",
                          lambda: _spread_ok(sl.build_typeH(c313, 1, int(d), int(h)), 28))
                for d in deltas for h in etas)
    run.check(f"728 verified typeH spreads at (3,3) (got {built})", lambda: built == 728)

    # type C at (5,3): kernel, then a JSON round trip through a file
    c513 = sl.build_tower(5, 1, 3)
    S = None

    def typec_513():
        nonlocal S
        S = sl.build_typeC(c513, 1, c513.find_deltas()[0])
        return _spread_ok(S, 126)

    run.check("typeC (5,3) verified, 126 components", typec_513)
    run.check("kernel of typeC (5,3) is 5", lambda: sl.kernel_of_spread(S) == 5)
    path = os.path.join(run.workdir, "typec-5-3.json")

    def round_trip():
        text = json.dumps(S.to_json())
        with open(path, "w") as fh:
            fh.write(text)
        run.json_bytes += os.path.getsize(path)
        with open(path) as fh:
            T = sl.Spread.from_json(json.load(fh))
        return T.kernel == 5 and len(T) == 126 and sl.is_spread(T.components)

    run.check("typeC (5,3) JSON round trip is a spread with kernel 5", round_trip)

    # q = 9, n = 3: ambient field of 531,441 elements
    c923 = sl.build_tower(3, 2, 3)
    d9, e9 = c923.find_deltas()[0], c923.find_etas(1)[0]
    run.check("typeC (9,3) verified, 730 components",
              lambda: _spread_ok(sl.build_typeC(c923, 1, d9), 730))
    run.check("typeH (9,3) verified, 730 components",
              lambda: _spread_ok(sl.build_typeH(c923, 1, d9, e9), 730))

    # planarity dichotomy: full boundary plus 2000 seeded samples
    run.experiment("planar-dichotomy", {"q": 3, "m": 3, "k": 1, "sample": 2000},
                   candidates=2 * 729 - 1 + 2000)

    # 200 seeded DO forms: both planarity routes agree
    rng = np.random.default_rng(run.seed)
    dom = c313.subfield_elements("qn")
    for t in range(200):
        f = sl.DOPoly(c313, {(i, j): int(rng.choice(dom))
                             for i in range(3) for j in range(i, 3)})
        run.check(f"DO form {t}: planar routes agree",
                  lambda: sl.is_planar_direct(f) == sl.is_planar_2to1(f))

    # nucleus dichotomy over the 52 twisted planar instances
    for i in (1, 2):
        for d in deltas:
            def nucleus_fact():
                w = c313.inv(c313.mul(int(d), int(d)))
                Q = sl.DOPoly(c313, {(i, i): 1, (0, 0): c313.neg(w)})
                if c313.is_square(w, "qn") or not sl.is_planar_2to1(Q):
                    return False
                P = sl.normalize(sl.planar_to_presemifield(Q), 1)
                return sl.nucleus(P) in (3, 27)
            run.check(f"nucleus of instance (i={i}, delta={d}) in {{3, 27}}", nucleus_fact)

    # even q, n = 3: the 8 admissible deltas give symplectic spreads
    c213 = sl.build_tower(2, 1, 3)
    admissible = [d for d in range(1, c213.N)
                  if not c213.in_subfield(d, "qn") and sl.even3_admissible(c213, d)]
    run.check(f"8 admissible even n=3 deltas (got {len(admissible)})",
              lambda: len(admissible) == 8)
    for d in admissible:
        def even_fact():
            S2 = sl.build_even_n3(c213, d)
            return _spread_ok(S2, 9) and sl.symplectic_check(S2, d)
        run.check(f"even n=3 delta={d} spread is symplectic", even_fact)


# name -> (towers built in set-up as (p, e, n), timed phase)
WORKLOADS = {
    "even8-scan": ([(2, 1, 4)], even8_scan),
    "candidate-scans": ([(5, 1, 2), (2, 1, 3), (2, 2, 3)], candidate_scans),
    "constructions": ([(3, 1, 3), (5, 1, 3), (3, 2, 3), (2, 1, 3)], constructions),
}


# -- trace reduction -----------------------------------------------------------


def _table_bytes(sl) -> int:
    """exp, log and every Frobenius table of every tower built."""
    total = 0
    for ctx in sl.field._tower_cache.values():
        total += ctx.exp.nbytes + ctx.log.nbytes
        total += sum(t.nbytes for t in ctx._frob_cache.values())
    return total


def layer_metrics(summary: dict, run: Run, sl) -> dict:
    calls, self_ns, amounts = summary["calls"], summary["self_ns"], summary["amounts"]

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    def secs(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    def prefixed(prefix):
        return [n for n in self_ns if n.startswith(prefix)]

    F = "field.FieldCtx."
    scalar = [F + m for m in ("add", "neg", "sub", "mul", "inv", "div", "pow",
                              "frob", "in_subfield")]
    m = {}
    for kernel in ("vmul", "vadd", "vsub", "vneg"):
        m[f"field.{kernel}.calls"] = n_calls(F + kernel)
        m[f"field.{kernel}.elems"] = amounts.get(F + kernel, 0)
        m[f"field.{kernel}.self_s"] = secs(F + kernel)
    m["field.scalar.calls"] = n_calls(*scalar)
    m["field.scalar.self_s"] = secs(*scalar)
    m["field.build_tower.self_s"] = secs("field.build_tower", F + "__init__")
    m["field.frob_table.self_s"] = secs(F + "frob_table")
    m["field.tables.bytes"] = _table_bytes(sl)

    m["linpoly.values.calls"] = n_calls("linpoly.QPoly.values")
    m["linpoly.values.self_s"] = secs("linpoly.QPoly.values")
    m["linpoly.eval.calls"] = n_calls("linpoly.QPoly.__call__")

    pc = "quadform.permutes_cosets"
    m["quadform.permutes_cosets.calls"] = n_calls(pc)
    m["quadform.permutes_cosets.self_s"] = secs(pc)
    m["quadform.permutes_cosets.true_ratio"] = amounts.get(pc, 0) / max(1, n_calls(pc))
    m["quadform.eval.calls"] = n_calls("quadform.DOPoly.__call__")
    m["quadform.eval.self_s"] = secs("quadform.DOPoly.__call__")
    m["quadform.values.self_s"] = secs("quadform.DOPoly.values")
    m["quadform.is_permutation_brute.calls"] = n_calls("quadform.is_permutation_brute")

    # q_from_component builds its product through q_from_pair, so the calls
    # count products; the self time covers both
    m["semifield.q_from_pair.calls"] = n_calls("semifield.q_from_pair")
    m["semifield.q_from_pair.self_s"] = secs("semifield.q_from_pair",
                                             "semifield.q_from_component")
    m["semifield.planarity.self_s"] = secs("semifield.is_planar_direct",
                                           "semifield.is_planar_2to1",
                                           "semifield.planar_family_check")
    m["semifield.nucleus.self_s"] = secs("semifield.nucleus", "semifield.middle_nucleus",
                                         "semifield.nucleus_elements",
                                         "semifield.middle_nucleus_elements")

    m["spread.subspace.calls"] = n_calls("spread.Subspace.__init__")
    m["spread.subspace.self_s"] = secs(*prefixed("spread.Subspace."))
    m["spread.orbit.self_s"] = secs("spread.orbit")
    m["spread.is_spread.self_s"] = secs("spread.is_spread", "spread.is_partial_spread")
    m["spread.kernel_of_spread.self_s"] = secs("spread.kernel_of_spread")
    m["spread.json.self_s"] = secs("spread.Spread.to_json", "spread.Spread.from_json")
    m["spread.json.bytes"] = run.json_bytes

    report = "experiments.report_write"
    m["experiments.driver.self_s"] = secs(*[n for n in prefixed("experiments.")
                                            if n != report])
    m["experiments.candidates"] = run.candidates
    m["experiments.permutation_pairs"] = run.permutation_pairs
    m["experiments.hit_ratio"] = run.permutation_pairs / max(1, run.candidates)
    m["experiments.report.self_s"] = secs(report)
    m["experiments.report.bytes"] = run.report_bytes

    from tracing import LAYERS
    for layer in LAYERS:
        m[f"{layer}.self_s"] = secs(*prefixed(layer + "."))
    m["trace.spans"] = summary["spans"]
    return m


# -- entry point ---------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None, help="write every span here (.npz)")
    ap.add_argument("--cpus", required=True, help="comma-separated CPUs to run on")
    args = ap.parse_args()
    os.sched_setaffinity(0, [int(c) for c in args.cpus.split(",")])
    towers, body = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import spreadlab as sl
    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(sl)
    t0 = time.perf_counter()
    for p, e, n in towers:
        sl.build_tower(p, e, n)
    setup_s = import_s + time.perf_counter() - t0

    run = Run(sl, args.seed, args.workers, args.workdir)
    t0 = time.perf_counter()
    body(run)
    wall_s = time.perf_counter() - t0

    import numpy as np
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "experiment_s": run.experiment_s,
        "candidates": run.candidates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": run.checks,
        "failures": run.failures,
        "numpy": np.__version__,
    }
    if tracer is not None:
        summary = tracer.summary()
        unwrapped = tracer.unwrapped_bindings(sl)
        run.check(f"every by-name binding traced (untraced: {unwrapped})",
                  lambda: not unwrapped)
        run.check("spans nest inside their parents", lambda: summary["nested"])
        run.check("self times of each span tree add up to its root's duration",
                  lambda: summary["self_adds_up"])
        layers = layer_metrics(summary, run, sl)
        if args.workload == "candidate-scans":
            for key, want in (("quadform.permutes_cosets.calls", 15_000),
                              ("quadform.is_permutation_brute.calls", 3_584)):
                got = layers[key]
                run.check(f"traced {key} = {want} (got {got})", lambda: got == want)
        result.update(checks=run.checks, failures=run.failures, layers=layers)
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
