"""Command-line front end.

Subcommands: tower (print a field-tower description), build (construct and
verify a named spread, writing its JSON), verify (re-verify a spread file
from scratch), experiment (run one of the theorem-scale scans).

Exit codes: 0 success / theorem confirmed; 2 mathematical failure (spread
does not verify, counterexample found); 1 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import ExperimentSpec, run_experiment
from .field import build_tower
from .spread import (Spread, build_even_n3, build_typeC, build_typeH,
                     even3_admissible, is_spread, kernel_of_spread)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # mathematical failures here, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="spreadlab",
                description="spreads, planar functions and the scans "
                            "that certify them")
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("tower", help="build a field tower, print its JSON")
    t.add_argument("--p", type=int, required=True, help="characteristic")
    t.add_argument("--e", type=int, default=1, help="q = p^e")
    t.add_argument("--n", type=int, required=True,
                   help="ambient field is F_{q^{2n}}")

    b = sub.add_parser("build", help="construct and verify a named spread")
    b.add_argument("kind", choices=["typec", "typeh", "even3"])
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--e", type=int, default=1)
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--i", type=int, default=1, help="twist exponent (typec)")
    b.add_argument("--k", type=int, default=1, help="eta exponent (typeh)")
    b.add_argument("--delta", type=int, default=None,
                   help="element encoding; least admissible if omitted")
    b.add_argument("--eta", type=int, default=None,
                   help="element encoding; least admissible if omitted")
    b.add_argument("--out", default=None, help="output path (JSON)")

    v = sub.add_parser("verify", help="re-verify a spread JSON file")
    v.add_argument("path")

    x = sub.add_parser("experiment", help="run a theorem-scale scan")
    x.add_argument("name")
    x.add_argument("--q", type=int, default=None)
    x.add_argument("--n", type=int, default=None)
    x.add_argument("--m", type=int, default=None)
    x.add_argument("--k", type=int, default=None)
    x.add_argument("--sample", type=int, default=None)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--jobs", type=int, default=1)
    x.add_argument("--out", default=None, help="report path (JSON + CSV)")
    return p


def _cmd_tower(args) -> int:
    ctx = build_tower(args.p, args.e, args.n)
    print(json.dumps(ctx.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_build(args) -> int:
    kind = args.kind
    n = args.n if args.n is not None else (3 if kind == "even3" else None)
    if n is None:
        raise ValueError("--n is required for typec/typeh")
    if kind == "even3" and n != 3:
        raise ValueError("even3 spreads live in F_{q^6}; --n must be 3")
    ctx = build_tower(args.p, args.e, n)
    ne = ctx.n * ctx.e
    if kind == "typec":
        delta = args.delta if args.delta is not None else ctx.find_deltas()[0]
        S = build_typeC(ctx, args.i, delta)
    elif kind == "typeh":
        delta = args.delta if args.delta is not None else ctx.find_deltas()[0]
        eta = args.eta if args.eta is not None else ctx.find_etas(args.k)[0]
        S = build_typeH(ctx, args.k, delta, eta)
    else:
        if args.delta is not None:
            delta = args.delta
        else:
            delta = next(d for d in range(1, ctx.N)
                         if not ctx.in_subfield(d, ne)
                         and even3_admissible(ctx, d))
        S = build_even_n3(ctx, delta)
    doc = S.to_json()
    out = args.out or f"{kind}-spread.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"{kind}: {len(S)} components, kernel {doc['kernel']}, "
          f"delta {delta} -> {out}")
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.path) as fh:
            doc = json.load(fh)
        S = Spread.from_json(doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load {args.path}: {exc}", file=sys.stderr)
        return 1
    ok = is_spread(S.components)
    kern = None
    if ok:
        kern = kernel_of_spread(
            Spread(S.ctx, S.components, S.kind, verified=True))
        if doc.get("kernel") is not None and kern != doc["kernel"]:
            print(f"{args.path}: spread verifies but kernel is {kern}, "
                  f"file claims {doc['kernel']}")
            return 2
    if not ok:
        print(f"{args.path}: NOT a spread ({len(S)} components)")
        return 2
    print(f"{args.path}: verified spread, {len(S)} components, kernel {kern}")
    return 0


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1 (got {args.jobs})")
    cpus = os.cpu_count()
    if cpus is not None and args.jobs > cpus:
        print(f"warning: --jobs {args.jobs} exceeds os.cpu_count() = {cpus}; "
              "workers will share cores", file=sys.stderr)
    params = {k: getattr(args, k) for k in ("q", "n", "m", "k", "sample")
              if getattr(args, k) is not None}
    out = args.out or f"{args.name}-report.json"
    spec = ExperimentSpec(args.name, params, jobs=args.jobs,
                          seed=args.seed, out=out)
    report = run_experiment(spec)
    line = (f"{report.name}: {report.verdict} "
            f"({report.candidates} candidates, {report.seconds:.2f}s)")
    if report.counterexample:
        line += f" counterexample: {json.dumps(report.counterexample)}"
    print(line)
    print(f"report -> {out}")
    return report.exit_code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"tower": _cmd_tower, "build": _cmd_build,
                "verify": _cmd_verify, "experiment": _cmd_experiment}
    try:
        return handlers[args.cmd](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
