"""Theorem-scale exhaustive verifications with deterministic, resumable reports.

Each verifier enumerates its whole parameter space (or a seeded sample plus
the full boundary), checks the claimed property through the library
primitives, and returns a VerdictReport whose counterexample payload — if one
ever appears — can be re-fed to the library in isolation.  Verdicts are
deterministic given (params, seed) and independent of the worker count.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import multiprocessing as mp
import numbers
import os
import time
from dataclasses import asdict, dataclass, field
from types import MappingProxyType

import numpy as np

from .field import FieldCtx, build_tower, factor_prime_power
from .linpoly import _lin_rows, _sum_rows
from .quadform import coset_representatives, is_permutation_brute, permutes_cosets
from .semifield import _check_element, _pair_rows, _two_to_one_at_reps

CHECKPOINT_EVERY = 1_000_000

# entries in the widest table of one block of the odd, even n = 3, Hermite
# and planar scans
_ROW_BLOCK = 1 << 14

# pairs per range of the planar scan, which reads each pair's verdict off a
# table: its int64 temporaries (32 KiB) stay on the heap, and a 2^14-pair
# range was no faster on the full (3,3,1) scan
_PLANAR_RANGE = 1 << 12


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

_STATE_SCHEMA = 3


def _state_path(out: str) -> str:
    return out + ".state"


def _state_key(name: str, params: dict, total: int, size: int) -> dict:
    """What a checkpoint must match to be resumed: the scan, its normalized
    params, the state layout, the item count and the block size."""
    return {"scan": name, "params": params, "schema": _STATE_SCHEMA,
            "total": total, "size": size}


def _cannot_resume(out: str, why) -> ValueError:
    return ValueError(f"cannot resume from {_state_path(out)}: {why}; "
                      "delete it to start the scan again")


def _load_state(out: str | None, key) -> dict | None:
    """The checkpoint saved under key, or None if there is none for this key;
    a state file that cannot be read is an error, never a silent restart."""
    if not out or not os.path.exists(_state_path(out)):
        return None
    try:
        with open(_state_path(out)) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _cannot_resume(out, exc) from None
    return doc if isinstance(doc, dict) and doc.get("key") == key else None


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _state_error(doc: dict, ranges: int) -> str | None:
    """Why the fields of a checkpoint of a scan of that many ranges name no
    point of it, or None: pos must be a range index, candidates and hits
    counts with hits <= candidates, and seconds a non-negative number."""
    pos, scanned, hits, seconds = (doc.get(k) for k in ("pos", "candidates", "hits",
                                                        "seconds"))
    if not (_is_count(pos) and pos < ranges):
        return f"pos {pos!r} is not a range index below {ranges}"
    if not (_is_count(scanned) and _is_count(hits) and hits <= scanned):
        return f"candidates {scanned!r} and hits {hits!r} are not counts with hits <= candidates"
    if (isinstance(seconds, bool) or not isinstance(seconds, (int, float))
            or not 0 <= seconds < math.inf):
        return f"seconds {seconds!r} is not a non-negative number"
    return None


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

# (check, state, total, size, stop) of the scan being run; written only by
# _run_scan, and inherited by the workers it forks.  stop is a shared flag
# (None without workers) that makes every range still queued return at once.
_SCAN: tuple = ()


def _work(lo: int):
    check, state, total, size, stop = _SCAN
    if stop is not None and stop.value:
        return None
    return check(state, lo, min(lo + size, total))


def _run_scan(name: str, params: dict, total: int, size: int, setup, args: tuple,
              check, details, jobs: int, out: str | None) -> VerdictReport:
    """Run check(setup(*args), lo, hi) over the ranges [lo, hi) that tile the
    item index [0, total), size items apiece, in order, and stop at the first
    counterexample.

    check returns (candidates scanned, hits, counterexample or None), so the
    reported candidates are those of every earlier range plus the hit's own.
    jobs > 1 forks min(jobs, ranges left) workers, each handed range starts
    in chunks of at most 8, so a counterexample waits for few ranges after
    its own; results keep range order, so the verdict does not depend on the
    worker count.  When the scan ends, early or on an error, the workers skip
    the ranges still queued and exit on their own: Pool.terminate() could
    kill one while it holds the result queue's lock, and then the pool's
    shutdown waits forever.  With a report path the scan checkpoints to
    <out>.state every CHECKPOINT_EVERY candidates (never after the last
    range), resumes from a checkpoint with the same key, and removes it at
    the end; a checkpoint whose fields name no point of the scan
    (_state_error) is refused before any range runs.  details(hits,
    counterexample) gives the report's details.
    """
    global _SCAN
    key = _state_key(name, params, total, size) if out else None
    saved = _load_state(out, key)
    if saved is not None and (why := _state_error(saved, len(range(0, total, size)))):
        raise _cannot_resume(out, why)
    saved = saved or {"pos": 0, "candidates": 0, "hits": 0, "seconds": 0.0}
    pos, scanned, hits = saved["pos"], saved["candidates"], saved["hits"]
    t0 = time.time() - saved["seconds"]
    cex = None
    since_ckpt = 0
    rest = range(pos * size, total, size)          # range starts; pos counts ranges
    jobs = min(jobs, len(rest))
    fork = mp.get_context("fork")
    stop = fork.RawValue("b", 0) if jobs > 1 else None
    _SCAN = (check, setup(*args), total, size, stop)
    pool = None
    try:
        pool = fork.Pool(jobs) if jobs > 1 else None       # the workers fork here
        results = (pool.imap(_work, rest, chunksize=max(1, min(8, len(rest) // (4 * jobs))))
                   if pool else map(_work, rest))
        for n, h, cex in results:
            scanned += n
            hits += h
            if cex is not None:
                break
            pos += 1
            since_ckpt += n
            if since_ckpt >= CHECKPOINT_EVERY and pos * size < total:
                _save_state(out, key, pos=pos, candidates=scanned, hits=hits,
                            seconds=time.time() - t0)
                since_ckpt = 0
    finally:
        if pool is not None:
            stop.value = 1
            pool.close()
            pool.join()
        _SCAN = ()
    _clear_state(out)
    return VerdictReport(name, params, "counterexample" if cex else "confirmed",
                         cex, scanned, time.time() - t0, details(hits, cex))


def _read_params(params: dict | None, **defaults) -> dict:
    """params over the scan's defaults, as ints; a key the scan does not
    read, or a value that is not an integer (a float, a string, a bool), is
    refused.  None stays only where it is the default."""
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameter(s) {', '.join(unknown)}; "
                         f"this scan reads {', '.join(defaults)}")
    for key, value in params.items():
        if value is None and defaults[key] is None:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"parameter {key} must be an integer (got {value!r})")
        params[key] = int(value)
    return {**defaults, **params}


def _outside_deltas(ctx: FieldCtx) -> np.ndarray:
    """The deltas of the even-q scans: every element outside F_{q^n}, ascending."""
    return np.flatnonzero(ctx.outside(np.arange(ctx.N), "qn"))


def _coeff_rows(dom: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """The coefficient rows (a_0, ..., a_(n-1)) of the q-polynomials of
    lexicographic index idx: digit i of the index in base len(dom), most
    significant first, is the position of a_i in dom."""
    qn = len(dom)
    return dom[idx[:, None] // qn ** np.arange(n - 1, -1, -1) % qn]


# -- no type C spread, odd q, n even ----------------------------------------------


def _odd_setup(p, e, n):
    """The tower, F_{q^n}, the deltas and the coefficients of X."""
    ctx = build_tower(p, e, n)
    return {"ctx": ctx, "dom": ctx.subfield_elements("qn"),
            "deltas": np.array(ctx.find_deltas(), dtype=np.int64),
            "ident": np.array([1] + [0] * (n - 1), dtype=np.int64)}


def _odd_rows(state, lo: int, hi: int):
    """The q-polynomials L of lexicographic index lo..hi-1 as coefficient
    rows, and Q = (X + d L)(X + d^(q^n) L) for each of them at every delta,
    as DOPolys in (L, delta) order, from one checked _pair_rows call (X for
    A, the rows for B)."""
    ctx, dom = state["ctx"], state["dom"]
    ne = ctx.n * ctx.e
    coeffs = _coeff_rows(dom, np.arange(lo, hi, dtype=np.int64), ctx.n)
    return coeffs, _pair_rows(ctx, ne, ctx.e, state["ident"], coeffs, dom,
                              _lin_rows(ctx, ne, ctx.e, coeffs), state["deltas"])


def _odd_check(state, lo: int, hi: int):
    """The L of index lo..hi-1 against every admissible delta, up to the
    first hit; each candidate gets its own permutes_cosets call."""
    deltas = state["deltas"]
    coeffs, polys = _odd_rows(state, lo, hi)
    for k, Q in enumerate(polys):
        if permutes_cosets(Q):
            row, di = divmod(k, len(deltas))
            return k + 1, 1, {"L_coeffs": coeffs[row].tolist(), "delta": int(deltas[di])}
    return len(polys), 0, None


def verify_no_typeC_odd(params: dict | None = None, *, jobs: int = 1,
                        seed: int = 0, out: str | None = None) -> VerdictReport:
    """Exhaustively confirm that no (L, delta) at odd q, even n makes
    Q = (X + delta L)(X + delta^(q^n) L) permute F_{q^n}^* / F_q^*.

    Each scan item is a range of the lexicographic index of L, whose value
    tables at every delta fill one table of about _ROW_BLOCK entries."""
    params = _read_params(params, q=3, n=2)
    q, n = params["q"], params["n"]
    p, e = factor_prime_power(q)
    if p == 2:
        raise ValueError("this nonexistence statement needs odd q")
    if n < 2 or n % 2:
        raise ValueError(f"this nonexistence statement needs even n >= 2 (got {n})")
    polys = q ** (n * n)                  # L: n coefficients in F_{q^n}
    if polys > 10 ** 6:
        raise ValueError("search space exceeds the desk-scale budget")
    n_deltas = q ** n - 1                 # delta^(q^n - 1) = -1
    return _run_scan("no-typec-odd", {"q": q, "n": n}, polys,
                     max(1, _ROW_BLOCK // (n_deltas * q ** n)), _odd_setup, (p, e, n),
                     _odd_check,
                     lambda hits, cex: {"polynomials": polys, "deltas": n_deltas},
                     jobs, out)


# -- no type C spread, even q, 8-dimensional ambient space --------------------------


def _even8_rows(ctx, rows, shift, norm):
    """One bool per row of the value table rows plus the one row shift:
    with W(x) = row(x) + shift(x), does Q(x) = W(x)^(1+q^4) permute
    F_{q^4}?  A row of Q-values is a permutation when its sorted values are
    distinct."""
    w = ctx.vadd(rows, shift[None, :])
    qv = np.sort(norm[w], axis=1)
    return (qv[:, 1:] != qv[:, :-1]).all(axis=1)


def _even8_setup(p, e):
    """F_{q^4}, the norm table x -> x^(1+q^4), the least delta outside
    F_{q^4}, delta0, and the lexicographic indices of the L that permute at
    delta0; _even8_check reads every other delta off them.

    The delta0 pass goes one block of L at a time.  The L-values of the
    trailing t coefficients make an inner table of q^(4t) rows, t <= 3 the
    largest whose table fits _ROW_BLOCK entries; each prefix of leading
    coefficients is one shift row, sum a_i x^(q^i) over the prefix plus
    delta0 x, added to every inner row.  Both come from _lin_rows on
    coefficient rows padded with zeros.  So L of index prefix * q^(4t) + r
    is inner row r under the shift of its prefix, and no table grows with
    the number of L."""
    ctx = build_tower(p, e, 4)
    dom = ctx.subfield_elements("qn").astype(np.int64)
    qn, ne = len(dom), 4 * e
    amb = np.arange(ctx.N, dtype=np.int64)
    # int32 Q-values: the row sort then moves half the bytes
    norm = ctx.vmul(amb, ctx.vpow(amb, ctx.q ** 4)).astype(np.int32)
    d0 = int(_outside_deltas(ctx)[0])
    t = max(t for t in range(4) if qn ** (t + 1) <= _ROW_BLOCK)
    inner = _lin_rows(ctx, ne, e, np.pad(_coeff_rows(dom, np.arange(qn ** t), t),
                                         ((0, 0), (4 - t, 0))))
    lead = np.pad(_coeff_rows(dom, np.arange(qn ** (4 - t)), 4 - t), ((0, 0), (0, t)))
    shifts = ctx.vadd(_lin_rows(ctx, ne, e, lead), ctx.vmul(d0, dom)[None, :])
    hits = [prefix * len(inner) + np.flatnonzero(_even8_rows(ctx, inner, shift, norm))
            for prefix, shift in enumerate(shifts)]
    return {"ctx": ctx, "dom": dom, "norm": norm, "d0": d0,
            "hits0": np.concatenate(hits)}


def _even8_check(state, lo: int, hi: int):
    """All L against the deltas of index lo..hi-1, W = L(x) + delta x:
    every L is a candidate, every permutation is a hit, and the first hit
    whose L is not a scalar multiple of X is a genuine type C witness.

    Each delta outside F_{q^4} is b + c delta0 with b, c in F_{q^4}, and
    x = c^-1 y turns L(x) + delta x into L~(y) + delta0 y, where a~i = 0
    exactly when ai = 0 for i = 1, 2, 3.  So every delta has as many hits
    as delta0, all scalar when those at delta0 are.  The scan is one range
    starting at delta0, so a non-scalar delta0 hit is its counterexample;
    the coefficients of the delta0 hits are decoded from their indices."""
    dom, hits0 = state["dom"], state["hits0"]
    coeffs = _coeff_rows(dom, hits0, 4)
    bad = np.flatnonzero(coeffs[:, 1:].any(axis=1))  # a1 = a2 = a3 = 0 is L = a0 X
    if not len(bad):
        return (hi - lo) * len(dom) ** 4, (hi - lo) * len(hits0), None
    k = int(bad[0])
    return int(hits0[k]) + 1, len(hits0), {"L_coeffs": coeffs[k].tolist(),
                                           "delta": state["d0"]}


def verify_no_typeC_even_8dim(params: dict | None = None, *, jobs: int = 1,
                              seed: int = 0, out: str | None = None) -> VerdictReport:
    """No type C spread of F_{q^8} with kernel F_q, q even.

    Scans every q-polynomial L on F_{q^4} and every delta outside F_{q^4},
    testing whether Q(x) = (L(x) + delta x)^(1+q^4) permutes F_{q^4}.  In
    characteristic 2 the scalar polynomials L = cX do permute — their
    component is the F_{q^4}-line (c + delta)F_{q^4}, whose orbit is the
    Desarguesian spread with kernel F_{q^4} — so the theorem is confirmed
    exactly when every permutation hit is scalar.

    The scan is one range of all the deltas, read off the delta0 verdicts,
    so it has nothing to checkpoint or fork.  The delta0 verdicts come one
    block of L at a time (_even8_setup), so its memory does not grow with
    the q^16 polynomials.
    """
    params = _read_params(params, q=2)
    q = params["q"]
    p, e = factor_prime_power(q)
    if p != 2:
        raise ValueError("this nonexistence statement needs even q")
    qn = q ** 4
    n_deltas = qn * qn - qn                      # deltas outside F_{q^4}
    if qn ** 4 * n_deltas > 10 ** 8:
        raise ValueError("search space exceeds the desk-scale budget")
    return _run_scan(
        "no-typec-even8", {"q": q}, n_deltas, n_deltas, _even8_setup, (p, e), _even8_check,
        lambda hits, cex: {"polynomials": qn ** 4, "deltas": n_deltas,
                           "permutation_pairs": hits,
                           "desarguesian_pairs": hits if cex is None else None},
        jobs, out)


# -- even q, n = 3: permutation classification --------------------------------------


@functools.lru_cache(maxsize=8)
def _even3_roots(ctx: FieldCtx) -> MappingProxyType:
    """d1 -> u^(q-1) for the u in F_{q^3}^* with u^(q^2-1) = d1, read-only
    and built once per tower.  u^(q^2-1) = w^(q+1) with w = u^(q-1), and
    w -> w^(q+1) is one-to-one on the (q-1)-th powers, a group of order
    q^2 + q + 1 prime to q + 1: so the q - 1 roots u of one d1 share one w,
    and a d1 that is not a (q-1)-th power has no root and no entry."""
    units, q = ctx.subfield_elements("qn")[1:], ctx.q
    return MappingProxyType(dict(zip(ctx.vpow(units, q * q - 1).tolist(),
                                     ctx.vpow(units, q - 1).tolist())))


def even3_perm_predicate(ctx: FieldCtx, d0: int, d1: int, delta: int) -> bool:
    """Does some u in F_{q^3}^* write X^(q^2) + d1 X^q + d0 X + delta X as
    u^-1 tr(u^q x) + delta' x with (delta'^-1 + delta'^-q^3) u^(q-1) in F_q^*?

    Needs even q, n = 3, d0 and d1 in F_{q^3} and delta outside it, so that
    delta' = delta + d0 + u^(q-1) is never 0."""
    if ctx.p != 2 or ctx.n != 3:
        raise ValueError("the classification predicate is for even q with n = 3")
    for name, x in (("d0", d0), ("d1", d1)):
        if not ctx.in_subfield(x, "qn"):
            _check_element(ctx, name, x)        # a non-encoding: its own message
            raise ValueError(f"{name} = {x} is not in F_{{q^3}}")
    _check_element(ctx, "delta", delta)
    if ctx.in_subfield(delta, "qn"):
        raise ValueError(f"delta = {delta} is not outside F_{{q^3}}")
    w = _even3_roots(ctx).get(d1)
    if w is None:
        return False
    dpi = ctx.inv(ctx.add(ctx.add(delta, d0), w))
    c = ctx.mul(ctx.add(dpi, ctx.frob(dpi, ctx.n * ctx.e)), w)
    return c != 0 and ctx.in_subfield(c, "q")


def _even3_setup(p, e):
    ctx = build_tower(p, e, 3)
    return {"ctx": ctx, "dom": ctx.subfield_elements("qn"), "deltas": _outside_deltas(ctx),
            "ident": np.array([1, 0, 0], dtype=np.int64)}


def _even3_check(state, lo: int, hi: int):
    """The monic L = X^(q^2) + d1 X^q + d0 X of index lo..hi-1, (d0, d1) in
    lexicographic order, against every delta up to the first disagreement;
    the hits are the permutations.  The products (L + delta X)(L + delta^(q^3) X)
    come from one checked _pair_rows call (the rows for A, X for B); each is
    then tested on its own."""
    ctx, dom, deltas = state["ctx"], state["dom"], state["deltas"]
    ne = ctx.n * ctx.e
    coeffs = np.pad(_coeff_rows(dom, np.arange(lo, hi), 2), ((0, 0), (0, 1)), constant_values=1)
    polys = _pair_rows(ctx, ne, ctx.e, coeffs, state["ident"],
                       _lin_rows(ctx, ne, ctx.e, coeffs), dom, deltas)
    rows, dl = coeffs.tolist(), deltas.tolist()
    perms = 0
    for k, Q in enumerate(polys):
        (d0, d1, _), delta = rows[k // len(dl)], dl[k % len(dl)]
        perm = is_permutation_brute(Q)
        perms += perm
        if perm != even3_perm_predicate(ctx, d0, d1, delta):
            return k + 1, perms, {"L_coeffs": [d0, d1, 1], "delta": delta}
    return len(polys), perms, None


def verify_even_n3_classification(params: dict | None = None, *, jobs: int = 1,
                                  seed: int = 0, out: str | None = None) -> VerdictReport:
    """For every monic reduced q-polynomial L on F_{q^3} and delta outside
    F_{q^3}: the brute permutation test of (L + delta X)(L + delta^(q^3) X)
    agrees with the coordinate classification predicate."""
    params = _read_params(params, q=2)
    q = params["q"]
    p, e = factor_prime_power(q)
    if p != 2:
        raise ValueError("the classification is for even q")
    n_deltas = q ** 6 - q ** 3                     # deltas outside F_{q^3}
    if q ** 6 * n_deltas > 10 ** 8:                # (d0, d1) pairs times deltas
        raise ValueError("search space exceeds the desk-scale budget")
    return _run_scan(
        "even3-classification", {"q": q}, q ** 6, max(1, _ROW_BLOCK // (n_deltas * q ** 3)),
        _even3_setup, (p, e), _even3_check,
        lambda hits, cex: {"monic_polynomials": q ** 6, "deltas": n_deltas,
                           "permutation_pairs": hits},
        jobs, out)


# -- the Hermite-criterion coefficient ----------------------------------------------


def _hermite_brute(ctx: FieldCtx, delta):
    """Coefficient of X^(q^3-1) in Q^(q^2-1) mod X^(q^3) - X, read off the
    values: sum_{x in F_{q^3}} x^j is -1 when j > 0 and (q^3 - 1) | j, else
    0, so sum_x g(x) = -g_{q^3-1} for every g reduced mod X^(q^3) - X (and
    -1 = 1 in characteristic 2).

    delta is an int (an int comes back) or an array of deltas: one row of
    Q-values per delta, one vpow, and the rows summed by halving."""
    X = ctx.subfield_elements("qn")
    Xq = ctx.vpow(X, ctx.q)
    d = np.asarray(delta, dtype=np.int64)[..., None]
    dconj = ctx.vpow(d, ctx.p ** (ctx.n * ctx.e))
    Q = ctx.vmul(ctx.vadd(Xq, ctx.vmul(d, X)), ctx.vadd(Xq, ctx.vmul(dconj, X)))
    g = ctx.vpow(Q, ctx.q ** 2 - 1)
    while g.shape[-1] > 1:             # q^3 is a power of 2: sum by halving
        h = g.shape[-1] // 2
        g = ctx.vadd(g[..., :h], g[..., h:])
    return int(g[..., 0]) if np.ndim(delta) == 0 else g[..., 0]


def _hermite_closed(ctx: FieldCtx, delta):
    """The closed form s^(q^2+q-1) * sum_l (t s^-2)^(2^l q), l < e, with
    s = delta + delta^(q^3) and t = delta delta^(q^3); an int or an array,
    like delta."""
    q = ctx.q
    d = np.asarray(delta, dtype=np.int64)
    dconj = ctx.vpow(d, ctx.p ** (ctx.n * ctx.e))
    s, t = ctx.vadd(d, dconj), ctx.vmul(d, dconj)
    r = ctx.vmul(t, ctx.vinv(ctx.vmul(s, s)))
    total = np.zeros_like(s)
    for ell in range(ctx.e):
        total = ctx.vadd(total, ctx.vpow(r, (2 ** ell) * q))
    closed = ctx.vmul(ctx.vpow(s, q * q + q - 1), total)
    return int(closed) if np.ndim(delta) == 0 else closed


def hermite_coefficient_check(ctx: FieldCtx, delta: int) -> bool:
    """Coefficient of X^(q^3-1) in ((X^q + delta X)(X^q + delta^(q^3) X))^(q^2-1)
    reduced mod X^(q^3) - X, compared against the closed form
    s^(q^2+q-1) * sum_l (t s^-2)^(2^l q).  The coefficient is computed
    independently of the closed form, as the sum of Q(x)^(q^2-1) over
    x in F_{q^3} (Hermite's power-sum identity); raises if it is zero (it
    certifies Q is not a permutation, so it must not vanish)."""
    if ctx.p != 2 or ctx.n != 3:
        raise ValueError("the coefficient identity is for even q with n = 3")
    _check_element(ctx, "delta", delta)
    if ctx.in_subfield(delta, ctx.n * ctx.e):
        raise ValueError("delta must lie outside F_{q^3}")
    brute = _hermite_brute(ctx, delta)
    if brute == 0:
        raise RuntimeError("coefficient vanished; the non-permutation "
                           "certificate is broken")
    return brute == _hermite_closed(ctx, delta)


def _hermite_setup(p, e):
    ctx = build_tower(p, e, 3)
    return ctx, _outside_deltas(ctx)


def _hermite_check(state, lo: int, hi: int):
    """The deltas of index lo..hi-1, up to the first whose brute
    coefficient vanishes or differs from the closed form."""
    ctx, deltas = state
    d = deltas[lo:hi]
    brute = _hermite_brute(ctx, d)
    bad = np.flatnonzero((brute == 0) | (brute != _hermite_closed(ctx, d)))
    if not len(bad):
        return len(d), 0, None
    i = int(bad[0])
    return i + 1, 0, {"delta": int(d[i])}


def verify_hermite(params: dict | None = None, *, jobs: int = 1,
                   seed: int = 0, out: str | None = None) -> VerdictReport:
    """Closed form vs brute coefficient for every delta outside F_{q^3}.

    Each scan item is a range of the delta index whose rows of Q-values
    fill one table of about _ROW_BLOCK entries."""
    params = _read_params(params, q=2)
    q = params["q"]
    p, e = factor_prime_power(q)
    if p != 2:
        raise ValueError("the coefficient identity is for even q")
    n_deltas = q ** 6 - q ** 3                     # deltas outside F_{q^3}
    if n_deltas > 10 ** 6:
        raise ValueError("search space exceeds the desk-scale budget")
    return _run_scan("hermite-coefficient", {"q": q}, n_deltas,
                     max(1, _ROW_BLOCK // q ** 3), _hermite_setup, (p, e),
                     _hermite_check, lambda hits, cex: {}, jobs, out)


# -- planarity dichotomy for the two-term family -------------------------------------


def _planar_group(ctx: FieldCtx, k: int) -> tuple[int, int, int, int]:
    """u = 1 - q^k and v = q^m - q^k modulo M = N - 1, m = ctx.n, and
    g1 = gcd(u, M), g2 = gcd(v, M)."""
    M, q = ctx.N - 1, ctx.q
    u, v = (1 - q ** k) % M, (q ** ctx.n - q ** k) % M
    return u, v, math.gcd(u, M), math.gcd(v, M)


def _planar_rep(ctx: FieldCtx, k: int, A, B):
    """The orbit representative of each pair (a, b) of the coefficient
    columns A, B, as (index, t).

    x -> c x turns f_(a,b) into c^(2 q^k) f_(a',b') with
    (a', b') = (a c^u, b c^v) (_planar_group), so planarity and ab = 0 are
    constant on the orbits of F_{q^2m}^*.  The map takes c = gamma^t, t
    solving u t = (log a mod g1) - log a when a != 0, v t = (log b mod g2)
    - log b when a = 0 != b, modulo M = N - 1, and t = 0 at (0, 0).  index
    numbers the (a', b') reached: i N + b' for a' = gamma^i, i < g1;
    g1 N + j for (0, gamma^j), j < g2; g1 N + g2 for (0, 0)."""
    N, M = ctx.N, ctx.N - 1
    u, v, g1, g2 = _planar_group(ctx, k)
    la, lb = ctx.log[A].astype(np.int64), ctx.log[B].astype(np.int64)
    t = np.zeros_like(la)
    for s, g, logs, on in ((u, g1, la, A > 0), (v, g2, lb, (A == 0) & (B > 0))):
        t = np.where(on, (logs % g - logs) // g * pow(s // g, -1, M // g) % (M // g), t)
    lb = (lb + v * t) % M
    index = np.where(A > 0, (la + u * t) % M * N + np.where(B > 0, ctx.exp[lb], 0),
                     g1 * N + np.where(B > 0, lb, g2))
    return index, t


def _planar_rep_pairs(ctx: FieldCtx, k: int, index):
    """The pairs (a', b') of representative indices of _planar_rep."""
    g1, g2 = _planar_group(ctx, k)[2:]
    i, b = np.divmod(index, ctx.N)
    j = index - g1 * ctx.N                   # 0 .. g2 off the a' != 0 rows
    return (np.where(i < g1, ctx.exp[i % g1], 0),
            np.where(i < g1, b, np.where(j < g2, ctx.exp[j % g2], 0)))


def _planar_setup(p, e, m, k, codes):
    """F_{q^2m}, its least nonsquare w, the pair codes a N + b of the scan's
    items (None: item i is pair code i), and the planarity verdict of each
    orbit representative (_planar_rep) those items read: full mode reads
    all g1 N + g2 + 1 of them.  The verdicts come from _planar_rows, one
    block of rows at a time, from three rows read at the representatives X
    of F_{q^2m}^* / F_q^*: X, X^(q^m) and -w X^(2 q^k)."""
    ctx = build_tower(p, e, m)
    w = ctx.least_nonsquare("q2n")
    X = np.array(coset_representatives(ctx, "q2n"), dtype=np.int64)
    state = {"ctx": ctx, "w": w, "k": k, "codes": codes,
             "mono": (X, ctx.vpow(X, ctx.q ** m)),
             "negw": ctx.vmul(ctx.neg(w), ctx.vpow(X, 2 * ctx.q ** k))}
    g1, g2 = _planar_group(ctx, k)[2:]
    verdict = np.zeros(g1 * ctx.N + g2 + 1, dtype=bool)
    if codes is None:
        reps = np.arange(len(verdict))
    else:
        need = np.zeros_like(verdict)
        need[_planar_rep(ctx, k, *np.divmod(codes, ctx.N))[0]] = True
        reps = np.flatnonzero(need)
    # blocks of _ROW_BLOCK // N rows of (N-1)/(q-1) values keep their
    # temporaries under glibc's 128 KiB mmap threshold: one above it is
    # mapped afresh, and its pages faulted in again, on every block
    rows = max(1, _ROW_BLOCK // ctx.N)
    for lo in range(0, len(reps), rows):
        block = reps[lo:lo + rows]
        verdict[block] = _planar_rows(state, *_planar_rep_pairs(ctx, k, block))
    state["verdict"] = verdict
    return state


def _planar_rows(state, A, B) -> np.ndarray:
    """Is (a X + b X^(q^m))^2 - w X^(2 q^k) planar, for each (a, b) of the
    coefficient columns A, B?  f is DO and L = a X + b X^(q^m) is
    F_q-linear, so f is read at the coset representatives only: one row of
    R = (N-1)/(q-1) values per pair, decided by one row sort
    (semifield._two_to_one_at_reps).  semifield.planar_family_check is the
    independent reference."""
    ctx, mono = state["ctx"], state["mono"]
    L = _sum_rows(ctx, np.stack([A, B], axis=-1), len(mono[0]), lambda i: mono[i])
    return _two_to_one_at_reps(ctx, ctx.vadd(ctx.vmul(L, L), state["negw"][None, :]))


def _planar_check(state, lo: int, hi: int):
    """The pairs of items lo..hi-1, each read off the verdict of its orbit
    representative, up to the first whose planarity is not ab = 0."""
    ctx, codes = state["ctx"], state["codes"]
    code = np.arange(lo, hi, dtype=np.int64) if codes is None else codes[lo:hi]
    A, B = np.divmod(code, ctx.N)
    planar = state["verdict"][_planar_rep(ctx, state["k"], A, B)[0]]
    bad = np.flatnonzero(planar != ((A == 0) | (B == 0)))
    if not len(bad):
        return len(A), 0, None
    i = int(bad[0])
    return i + 1, 0, {"a": int(A[i]), "b": int(B[i]), "w": state["w"]}


def verify_planar_dichotomy(params: dict | None = None, *, jobs: int = 1,
                            seed: int = 0, out: str | None = None) -> VerdictReport:
    """(a X + b X^(q^m))^2 - w X^(2 q^k) is planar exactly when ab = 0.

    Sample mode scans the full ab = 0 boundary plus `sample` seeded random
    ab != 0 pairs, listed as pair codes a N + b; full mode scans every pair
    code.  Each pair reads the verdict of its orbit representative
    (_planar_rep), computed once by the set-up, and a range stops at its
    first counterexample, so counts and counterexamples are those of a
    pair-by-pair scan.
    """
    params = _read_params(params, q=3, m=3, k=1, sample=None)
    q, m, k, sample = params["q"], params["m"], params["k"], params["sample"]
    p, e = factor_prime_power(q)
    if p == 2:
        raise ValueError("planar functions need odd q")
    if k < 1:
        raise ValueError(f"need k >= 1 (got {k})")
    if math.gcd(k, m) != 1 or m < 3:
        raise ValueError("need gcd(k, m) = 1 and m >= 3")
    if sample is not None and sample < 0:
        raise ValueError(f"sample must be at least 0 (got {sample})")
    N = q ** (2 * m)          # pairs: N^2 in full, 2N - 1 boundary + sample
    if (N * N if sample is None else 2 * N - 1 + sample) > 10 ** 6:
        raise ValueError("search space exceeds the desk-scale budget")
    codes = None
    if sample is not None:
        # (0, 0), (a, 0), (0, b), then one (sample, 2) draw: the same pairs
        # as 2 * sample scalar draws, a then b
        ab = np.random.default_rng(seed).integers(1, N, (sample, 2))
        span = np.arange(1, N, dtype=np.int64)
        codes = np.concatenate([[0], span * N, span, ab[:, 0] * N + ab[:, 1]])
    w = int(build_tower(p, e, m).least_nonsquare("q2n"))
    return _run_scan(
        "planar-dichotomy", {"q": q, "m": m, "k": k, "sample": sample, "seed": seed},
        N * N if codes is None else len(codes), _PLANAR_RANGE, _planar_setup,
        (p, e, m, k, codes), _planar_check, lambda hits, cex: {"w": w}, jobs, out)


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
    if spec.seed < 0:
        raise ValueError(f"seed must be at least 0 (got {spec.seed})")
    folder = os.path.dirname(spec.out or "")
    if folder and not os.path.isdir(folder):
        raise ValueError(f"cannot write the report {spec.out}: "
                         f"no directory {folder}")
    if spec.out and os.path.isdir(spec.out):
        raise ValueError(f"cannot write the report {spec.out}: "
                         "it is a directory")
    report = fn(spec.params, jobs=spec.jobs, seed=spec.seed, out=spec.out)
    if spec.out:
        report_write(report, spec.out)
    return report


def report_write(report: VerdictReport, path: str) -> None:
    """JSON report at path plus a one-row CSV summary next to it."""
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    detail_keys = sorted(report.details)
    with open(os.path.splitext(path)[0] + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "verdict", "candidates", "seconds"]
                        + detail_keys + ["counterexample"])
        writer.writerow([report.name, report.verdict, report.candidates,
                         f"{report.seconds:.3f}"]
                        + [str(report.details[k]) for k in detail_keys]
                        + [json.dumps(report.counterexample) if report.counterexample
                           else ""])
