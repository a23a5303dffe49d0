"""Theorem-scale exhaustive verifications with deterministic, resumable reports.

Each verifier enumerates its whole parameter space (or a seeded sample plus
the full boundary), checks the claimed property through the library
primitives, and returns a VerdictReport whose counterexample payload — if one
ever appears — can be re-fed to the library in isolation.  Verdicts are
deterministic given (params, seed) and independent of the worker count.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import multiprocessing as mp
import os
import time
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .field import FieldCtx, build_tower, factor_prime_power
from .linpoly import QPoly
from .quadform import DOPoly, is_permutation_brute, permutes_cosets
from .semifield import _two_to_one, q_from_component, q_from_pair

CHECKPOINT_EVERY = 1_000_000


@dataclass
class ExperimentSpec:
    name: str
    params: dict = field(default_factory=dict)
    jobs: int = 1
    seed: int = 0
    out: str | None = None


@dataclass
class VerdictReport:
    name: str
    params: dict
    verdict: str                      # "confirmed" | "counterexample"
    counterexample: dict | None
    candidates: int
    seconds: float
    details: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict == "confirmed" else 2

    def to_json(self) -> dict:
        return asdict(self)


# -- checkpoint state ---------------------------------------------------------------

_STATE_SCHEMA = 1


def _state_path(out: str) -> str:
    return out + ".state"


def _state_key(name: str, params: dict, items: list) -> dict:
    """What a checkpoint must match to be resumed: the scan, its normalized
    params, the state layout and the exact candidate list."""
    # zlib, not hashlib: the key guards against a changed list, not an
    # adversary, and hashlib would load OpenSSL (about 4 MB of resident memory)
    digest = f"{len(items)}:{zlib.crc32(json.dumps(items).encode()):08x}"
    return {"scan": name, "params": params, "schema": _STATE_SCHEMA,
            "items": digest}


def _load_state(out: str | None, key) -> dict | None:
    """The checkpoint saved under key, or None if there is none for this key;
    a state file that cannot be read is an error, never a silent restart."""
    if not out or not os.path.exists(_state_path(out)):
        return None
    try:
        with open(_state_path(out)) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot resume from {_state_path(out)}: {exc}; "
                         "delete it to start the scan again") from None
    return doc if isinstance(doc, dict) and doc.get("key") == key else None


def _save_state(out: str | None, key, **fields) -> None:
    if not out:
        return
    doc = {"key": key, **fields}
    tmp = _state_path(out) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, _state_path(out))


def _clear_state(out: str | None) -> None:
    if out and os.path.exists(_state_path(out)):
        os.remove(_state_path(out))


# -- running a scan ---------------------------------------------------------------

# (check, state) of the scan being run; written only by _run_scan, and
# inherited by the workers it forks
_SCAN: tuple = ()


def _work(item):
    check, state = _SCAN
    return check(state, item)


def _run_scan(name: str, params: dict, items: list, setup, args: tuple, check,
              details, jobs: int, out: str | None) -> VerdictReport:
    """Run check(setup(*args), item) over items in order and stop at the
    first counterexample.

    check returns (candidates scanned, hits, counterexample or None), so the
    reported candidates are those of every earlier item plus the hit's own.
    jobs > 1 evaluates on forked workers with results kept in item order, so
    the verdict does not depend on the worker count.  With a report path the
    scan checkpoints to <out>.state every CHECKPOINT_EVERY candidates,
    resumes from a checkpoint with the same key, and removes it at the end.
    details(hits, counterexample) gives the report's details.
    """
    global _SCAN
    key = _state_key(name, params, items) if out else None
    saved = _load_state(out, key) or {"pos": 0, "candidates": 0, "hits": 0,
                                      "seconds": 0.0}
    pos, scanned, hits = saved["pos"], saved["candidates"], saved["hits"]
    t0 = time.time() - saved["seconds"]
    cex = None
    since_ckpt = 0
    _SCAN = (check, setup(*args))
    try:
        rest = items[pos:]
        pool = (mp.get_context("fork").Pool(jobs) if jobs > 1
                else contextlib.nullcontext())
        with pool:
            results = (pool.imap(_work, rest, chunksize=max(1, len(rest) // (4 * jobs)))
                       if jobs > 1 else map(_work, rest))
            for n, h, cex in results:
                scanned += n
                hits += h
                if cex is not None:
                    break
                pos += 1
                since_ckpt += n
                if since_ckpt >= CHECKPOINT_EVERY:
                    _save_state(out, key, pos=pos, candidates=scanned, hits=hits,
                                seconds=time.time() - t0)
                    since_ckpt = 0
    finally:
        _SCAN = ()
    _clear_state(out)
    return VerdictReport(name, params, "counterexample" if cex else "confirmed",
                         cex, scanned, time.time() - t0, details(hits, cex))


def _read_params(params: dict | None, **defaults) -> dict:
    """params over the scan's defaults; a key the scan does not read is refused."""
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameter(s) {', '.join(unknown)}; "
                         f"this scan reads {', '.join(defaults)}")
    return {**defaults, **params}


def _outside_deltas(ctx: FieldCtx) -> list[int]:
    """The deltas of the even-q scans: every element outside F_{q^n}."""
    ne = ctx.n * ctx.e
    return [x for x in range(1, ctx.N) if not ctx.in_subfield(x, ne)]


# -- no type C spread, odd q, n even ----------------------------------------------


def _odd_setup(p, e, n):
    ctx = build_tower(p, e, n)
    return ctx, ctx.find_deltas()


def _odd_check(state, coeffs):
    """One q-polynomial L against every admissible delta, up to the first hit."""
    ctx, deltas = state
    L = QPoly(ctx, list(coeffs))
    for di, d in enumerate(deltas):
        if permutes_cosets(q_from_component(L, int(d))):
            return di + 1, 1, {"L_coeffs": list(coeffs), "delta": int(d)}
    return len(deltas), 0, None


def verify_no_typeC_odd(params: dict | None = None, *, jobs: int = 1,
                        seed: int = 0, out: str | None = None) -> VerdictReport:
    """Exhaustively confirm that no (L, delta) at odd q, even n makes
    Q = (X + delta L)(X + delta^(q^n) L) permute F_{q^n}^* / F_q^*."""
    params = _read_params(params, q=3, n=2)
    q, n = int(params["q"]), int(params["n"])
    p, e = factor_prime_power(q)
    if p == 2:
        raise ValueError("this nonexistence statement needs odd q")
    if n % 2:
        raise ValueError("this nonexistence statement needs even n")
    ctx = build_tower(p, e, n)
    dom = [int(x) for x in ctx.subfield_elements("qn")]
    if len(dom) ** n > 10 ** 6:
        raise ValueError("search space exceeds the desk-scale budget")
    combos = list(itertools.product(dom, repeat=n))
    n_deltas = len(ctx.find_deltas())
    return _run_scan("no-typec-odd", {"q": q, "n": n}, combos, _odd_setup, (p, e, n),
                     _odd_check,
                     lambda hits, cex: {"polynomials": len(combos), "deltas": n_deltas},
                     jobs, out)


# -- no type C spread, even q, 8-dimensional ambient space --------------------------


def _even8_rows(ctx, ltab, dom, norm, delta):
    """One bool per row of the L-value table ltab: does
    Q(x) = (L(x) + delta x)^(1+q^4) permute F_{q^4}?  A row of Q-values is
    a permutation when its sorted values are distinct."""
    w = ctx.vadd(ltab, ctx.vmul(int(delta), dom)[None, :])
    qv = np.sort(norm[w], axis=1)
    return (qv[:, 1:] != qv[:, :-1]).all(axis=1)


def _even8_setup(p, e):
    """The coefficient rows and the permutation verdict of every L at the
    least delta0 outside F_{q^4}; _even8_hits reads every other delta off it."""
    ctx = build_tower(p, e, 4)
    ne = ctx.n * ctx.e
    dom = ctx.subfield_elements("qn").astype(np.int64)
    qn = len(dom)
    amb = np.arange(ctx.N, dtype=np.int64)
    # every coefficient row (a0, a1, a2, a3), in lexicographic order
    coeffs = dom[np.indices((qn,) * 4).reshape(4, -1).T]
    # L-value table in the same row order: the outer sum of the monomial
    # tables a x^(q^i) (row a, column x)
    ltab = np.zeros((1, qn), dtype=np.int64)
    for i in range(4):
        mono = ctx.vmul(dom[:, None], ctx.frob_table(ctx.e * i)[dom][None, :])
        ltab = ctx.vadd(ltab[:, None, :], mono[None, :, :]).reshape(-1, qn)
    # int32 Q-values: the row sort then moves half the bytes
    norm = ctx.vmul(amb, ctx.frob_table(ne)[amb]).astype(np.int32)
    d0 = _outside_deltas(ctx)[0]
    base = _even8_rows(ctx, ltab, dom, norm, d0).reshape((qn,) * 4)
    return {"ctx": ctx, "dom": dom, "coeffs": coeffs, "norm": norm, "d0": d0,
            "base": base}


def _even8_hits(state, delta: int) -> np.ndarray:
    """The permutation verdict of every L at delta, in coefficient-row order.

    delta = b + c delta0 with c = (delta + delta^(q^4)) / (delta0 + delta0^(q^4))
    and b = delta + c delta0 in F_{q^4}.  At x = c^-1 y, L(x) + delta x is
    L~(y) + delta0 y with a~0 = (a0 + b) c^-1 and a~i = ai c^(-q^i), and
    y -> c^-1 y permutes F_{q^4}, so L permutes at delta exactly when L~
    does at delta0.  L -> L~ is a bijection of each coefficient position."""
    ctx, dom, d0 = state["ctx"], state["dom"], state["d0"]
    ne = ctx.n * ctx.e
    c = ctx.div(ctx.add(delta, ctx.frob(delta, ne)), ctx.add(d0, ctx.frob(d0, ne)))
    b = ctx.add(delta, ctx.mul(c, d0))
    ci = ctx.inv(c)
    pos = ctx.element_index("qn")
    idx = [pos[ctx.vmul(ctx.vadd(dom, b), ci)]]
    idx += [pos[ctx.vmul(dom, ctx.frob(ci, ctx.e * i))] for i in range(1, 4)]
    return state["base"][np.ix_(*idx)].reshape(-1)


def _even8_check(state, delta: int):
    """All L against one delta, W = L(x) + delta x: every L is a candidate,
    every permutation is a hit, and the first hit whose L is not a scalar
    multiple of X (a genuine type C witness) is the counterexample."""
    coeffs = state["coeffs"]
    hit = _even8_hits(state, int(delta))
    hits = np.flatnonzero(hit)
    bad = hits[coeffs[hits, 1:].any(axis=1)]      # a1 = a2 = a3 = 0 is L = a0 X
    if not len(bad):
        return len(hit), len(hits), None
    row = int(bad[0])
    return row + 1, len(hits), {"L_coeffs": coeffs[row].tolist(), "delta": int(delta)}


def verify_no_typeC_even_8dim(params: dict | None = None, *, jobs: int = 1,
                              seed: int = 0, out: str | None = None) -> VerdictReport:
    """No type C spread of F_{q^8} with kernel F_q, q even.

    Scans every q-polynomial L on F_{q^4} and every delta outside F_{q^4},
    testing whether Q(x) = (L(x) + delta x)^(1+q^4) permutes F_{q^4}.  In
    characteristic 2 the scalar polynomials L = cX do permute — their
    component is the F_{q^4}-line (c + delta)F_{q^4}, whose orbit is the
    Desarguesian spread with kernel F_{q^4} — so the theorem is confirmed
    exactly when every permutation hit is scalar.
    """
    params = _read_params(params, q=2)
    q = int(params["q"])
    p, e = factor_prime_power(q)
    if p != 2:
        raise ValueError("this nonexistence statement needs even q")
    qn = q ** 4
    ctx = build_tower(p, e, 4)
    if qn ** 4 * (ctx.N - qn) > 10 ** 8:
        raise ValueError("search space exceeds the desk-scale budget")
    deltas = _outside_deltas(ctx)
    return _run_scan(
        "no-typec-even8", {"q": q}, deltas, _even8_setup, (p, e), _even8_check,
        lambda hits, cex: {"polynomials": qn ** 4, "deltas": len(deltas),
                           "permutation_pairs": hits,
                           "desarguesian_pairs": hits if cex is None else None},
        jobs, out)


# -- even q, n = 3: permutation classification --------------------------------------


def even3_perm_predicate(ctx: FieldCtx, d0: int, d1: int, delta: int) -> bool:
    """Does some u in F_{q^3}^* write X^(q^2) + d1 X^q + d0 X + delta X as
    u^-1 tr(u^q x) + delta' x with (delta'^-1 + delta'^-q^3) u^(q-1) in F_q^*?"""
    q = ctx.q
    ne = ctx.n * ctx.e
    for u in ctx.subfield_elements("qn")[1:]:
        u = int(u)
        if ctx.pow(u, q * q - 1) != d1:
            continue
        dprime = ctx.add(ctx.add(delta, d0), ctx.pow(u, q - 1))
        dpi = ctx.inv(dprime)
        c = ctx.mul(ctx.add(dpi, ctx.frob(dpi, ne)), ctx.pow(u, q - 1))
        if c != 0 and ctx.in_subfield(c, "q"):
            return True
    return False


def _even3_setup(p, e):
    ctx = build_tower(p, e, 3)
    return ctx, _outside_deltas(ctx)


def _even3_check(state, coeffs):
    """One monic L = X^(q^2) + d1 X^q + d0 X against every delta up to the
    first disagreement; the hits are the permutations."""
    ctx, deltas = state
    d0, d1 = coeffs
    L = QPoly(ctx, {0: d0, 1: d1, 2: 1})
    ident = QPoly.identity(ctx)
    perms = 0
    for di, delta in enumerate(deltas):
        perm = is_permutation_brute(q_from_pair(L, ident, delta))
        perms += perm
        if perm != even3_perm_predicate(ctx, d0, d1, delta):
            return di + 1, perms, {"L_coeffs": [d0, d1, 1], "delta": delta}
    return len(deltas), perms, None


def verify_even_n3_classification(params: dict | None = None, *, jobs: int = 1,
                                  seed: int = 0, out: str | None = None) -> VerdictReport:
    """For every monic reduced q-polynomial L on F_{q^3} and delta outside
    F_{q^3}: the brute permutation test of (L + delta X)(L + delta^(q^3) X)
    agrees with the coordinate classification predicate."""
    params = _read_params(params, q=2)
    q = int(params["q"])
    p, e = factor_prime_power(q)
    if p != 2:
        raise ValueError("the classification is for even q")
    ctx = build_tower(p, e, 3)
    dom = [int(x) for x in ctx.subfield_elements("qn")]
    combos = list(itertools.product(dom, repeat=2))   # (d0, d1), lex
    n_deltas = len(_outside_deltas(ctx))
    return _run_scan(
        "even3-classification", {"q": q}, combos, _even3_setup, (p, e), _even3_check,
        lambda hits, cex: {"monic_polynomials": len(combos), "deltas": n_deltas,
                           "permutation_pairs": hits},
        jobs, out)


# -- the Hermite-criterion coefficient ----------------------------------------------


def _poly_mul_cyclic(ctx: FieldCtx, f: dict, g: dict, qn: int) -> dict:
    """Product of reduced polynomials modulo X^(q^n) - X (exponents folded
    into 0..q^n-1, nonzero exponents staying nonzero)."""
    out: dict[int, int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            ex = e1 + e2
            while ex >= qn:
                ex -= qn - 1
            out[ex] = ctx.add(out.get(ex, 0), ctx.mul(c1, c2))
    return {ex: c for ex, c in out.items() if c}


def hermite_coefficient_check(ctx: FieldCtx, delta: int) -> bool:
    """Coefficient of X^(q^3-1) in ((X^q + delta X)(X^q + delta^(q^3) X))^(q^2-1)
    reduced mod X^(q^3) - X, compared against the closed form
    s^(q^2+q-1) * sum_l (t s^-2)^(2^l q); raises if the value is zero (it
    certifies Q is not a permutation, so it must not vanish)."""
    if ctx.p != 2 or ctx.n != 3:
        raise ValueError("the coefficient identity is for even q with n = 3")
    ne = ctx.n * ctx.e
    if ctx.in_subfield(delta, ne):
        raise ValueError("delta must lie outside F_{q^3}")
    q = ctx.q
    qn = q ** 3
    s = ctx.add(delta, ctx.frob(delta, ne))
    t = ctx.mul(delta, ctx.frob(delta, ne))
    Qp = {2 * q: 1, q + 1: s, 2: t}
    acc = {0: 1}
    for _ in range(q * q - 1):
        acc = _poly_mul_cyclic(ctx, acc, Qp, qn)
    brute = acc.get(qn - 1, 0)
    inv_s2 = ctx.inv(ctx.mul(s, s))
    total = 0
    for ell in range(ctx.e):
        total = ctx.add(total, ctx.pow(ctx.mul(t, inv_s2), (2 ** ell) * q))
    closed = ctx.mul(ctx.pow(s, q * q + q - 1), total)
    if brute == 0:
        raise RuntimeError("coefficient vanished; the non-permutation "
                           "certificate is broken")
    return brute == closed


def _hermite_check(ctx, delta):
    try:
        okay = hermite_coefficient_check(ctx, delta)
    except RuntimeError:
        okay = False
    return 1, 0, (None if okay else {"delta": delta})


def verify_hermite(params: dict | None = None, *, jobs: int = 1,
                   seed: int = 0, out: str | None = None) -> VerdictReport:
    """Closed form vs brute coefficient for every delta outside F_{q^3}."""
    params = _read_params(params, q=2)
    q = int(params["q"])
    p, e = factor_prime_power(q)
    if p != 2:
        raise ValueError("the coefficient identity is for even q")
    deltas = _outside_deltas(build_tower(p, e, 3))
    return _run_scan("hermite-coefficient", {"q": q}, deltas, build_tower, (p, e, 3),
                     _hermite_check, lambda hits, cex: {}, jobs, out)


# -- planarity dichotomy for the two-term family -------------------------------------


def _planar_setup(p, e, m, k):
    """Value tables of X^2, X^(1+q^m), X^(2 q^m) and w X^(2 q^k) on F_{q^2m}."""
    ctx = build_tower(p, e, m)
    amb = np.arange(ctx.N, dtype=np.int64)
    w = ctx.least_nonsquare("q2n")
    x2 = ctx.vmul(amb, amb)
    return {"ctx": ctx, "w": w, "x2": x2,
            "xqm1": ctx.vmul(amb, ctx.frob_table(ctx.e * m)[amb]),
            "x2qm": ctx.frob_table(ctx.e * m)[x2],
            "wterm": ctx.vmul(w, ctx.frob_table(ctx.e * k)[x2])}


def _planar(state, a: int, b: int) -> bool:
    """Is (a X + b X^(q^m))^2 - w X^(2 q^k) planar?  The scan's fast path;
    semifield.planar_family_check is its independent reference."""
    ctx = state["ctx"]
    vals = ctx.vsub(
        ctx.vadd(ctx.vadd(ctx.vmul(ctx.mul(a, a), state["x2"]),
                          ctx.vmul(ctx.mul(2 % ctx.p, ctx.mul(a, b)), state["xqm1"])),
                 ctx.vmul(ctx.mul(b, b), state["x2qm"])),
        state["wterm"])
    return _two_to_one(ctx, vals)


def _planar_check(state, pair):
    a, b = pair
    if _planar(state, a, b) == (a == 0 or b == 0):
        return 1, 0, None
    return 1, 0, {"a": a, "b": b, "w": state["w"]}


def verify_planar_dichotomy(params: dict | None = None, *, jobs: int = 1,
                            seed: int = 0, out: str | None = None) -> VerdictReport:
    """(a X + b X^(q^m))^2 - w X^(2 q^k) is planar exactly when ab = 0.

    Sample mode scans the full ab = 0 boundary plus N seeded random ab != 0
    pairs; full mode scans every (a, b).
    """
    params = _read_params(params, q=3, m=3, k=1, sample=None)
    q, m, k = int(params["q"]), int(params["m"]), int(params["k"])
    sample = params["sample"]
    p, e = factor_prime_power(q)
    if p == 2:
        raise ValueError("planar functions need odd q")
    if math.gcd(k, m) != 1 or m < 3:
        raise ValueError("need gcd(k, m) = 1 and m >= 3")
    if sample is not None and int(sample) < 0:
        raise ValueError(f"sample must be at least 0 (got {sample})")
    ctx = build_tower(p, e, m)
    N = ctx.N
    if sample is None:        # full scan
        if N * N > 10 ** 6:
            raise ValueError("full scan exceeds the desk-scale budget")
        pairs = list(itertools.product(range(N), range(N)))
    else:
        rng = np.random.default_rng(seed)
        pairs = ([(0, 0)] + [(a, 0) for a in range(1, N)] + [(0, b) for b in range(1, N)]
                 + [(int(rng.integers(1, N)), int(rng.integers(1, N)))
                    for _ in range(int(sample))])
    w = int(ctx.least_nonsquare("q2n"))
    return _run_scan(
        "planar-dichotomy", {"q": q, "m": m, "k": k, "sample": sample, "seed": seed},
        pairs, _planar_setup, (p, e, m, k), _planar_check,
        lambda hits, cex: {"w": w}, jobs, out)


# -- dispatcher and reporting --------------------------------------------------------


_EXPERIMENTS = {
    "no-typec-odd": verify_no_typeC_odd,
    "no-typec-even8": verify_no_typeC_even_8dim,
    "even3-classification": verify_even_n3_classification,
    "hermite-coefficient": verify_hermite,
    "planar-dichotomy": verify_planar_dichotomy,
}


def run_experiment(spec: ExperimentSpec) -> VerdictReport:
    if spec.name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {spec.name!r}; "
                         f"known: {', '.join(sorted(_EXPERIMENTS))}")
    fn = _EXPERIMENTS[spec.name]
    # refuse before the scan, not at its first checkpoint or its report
    folder = os.path.dirname(spec.out or "")
    if folder and not os.path.isdir(folder):
        raise ValueError(f"cannot write the report {spec.out}: "
                         f"no directory {folder}")
    report = fn(spec.params, jobs=spec.jobs, seed=spec.seed, out=spec.out)
    if spec.out:
        report_write(report, spec.out)
    return report


def report_write(report: VerdictReport, path: str) -> None:
    """JSON report at path plus a one-row CSV summary next to it."""
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = os.path.splitext(path)[0] + ".csv"
    detail_keys = sorted(report.details)
    with open(csv_path, "w") as fh:
        fh.write(",".join(["name", "verdict", "candidates", "seconds"]
                          + detail_keys + ["counterexample"]) + "\n")
        row = [report.name, report.verdict, str(report.candidates),
               f"{report.seconds:.3f}"]
        row += [str(report.details[k]) for k in detail_keys]
        row.append(json.dumps(report.counterexample) if report.counterexample
                   else "")
        fh.write(",".join(row) + "\n")
