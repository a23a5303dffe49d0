"""Exhaustive-verification experiments: verdicts, determinism, resume logic,
and the vectorized scanner's agreement with the brute-force route."""

import csv
import itertools
import json
import multiprocessing.pool as mp_pool
import os
import re
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

import spreadlab.experiments as ex
import spreadlab.semifield as semifield
from spreadlab import (DOPoly, ExperimentSpec, QPoly, build_tower, even3_admissible,
                       is_permutation_brute, is_planar_2to1, is_planar_direct,
                       planar_family_check, q_from_component, q_from_pair, q_from_pairs,
                       run_experiment)
from spreadlab.experiments import (VerdictReport, _clear_state, _load_state,
                                   _save_state, even3_perm_predicate, report_write,
                                   verify_even_n3_classification, verify_hermite,
                                   verify_no_typeC_even_8dim, verify_no_typeC_odd,
                                   verify_planar_dichotomy)
from spreadlab.semifield import _two_to_one


# -- odd q, even n nonexistence -----------------------------------------------------


def test_odd_confirmed():
    rep = run_experiment(ExperimentSpec("no-typec-odd", {"q": 3, "n": 2}))
    assert rep.verdict == "confirmed" and rep.exit_code == 0
    assert rep.candidates == 648
    assert rep.details == {"polynomials": 81, "deltas": 8}
    assert rep.counterexample is None


def test_odd_counterexample_payload(monkeypatch):
    # force a hit on the very first candidate and check the payload shape
    monkeypatch.setattr(ex, "permutes_cosets", lambda Q: True)
    rep = verify_no_typeC_odd({"q": 3, "n": 2})
    assert rep.verdict == "counterexample" and rep.exit_code == 2
    assert rep.candidates == 1
    ctx = build_tower(3, 1, 2)
    assert rep.counterexample == {"L_coeffs": [0, 0],
                                  "delta": int(ctx.find_deltas()[0])}


def test_odd_preconditions():
    with pytest.raises(ValueError):
        verify_no_typeC_odd({"q": 2, "n": 2})
    with pytest.raises(ValueError):
        verify_no_typeC_odd({"q": 3, "n": 3})
    for n in (0, -2):                              # even, but no L to scan
        with pytest.raises(ValueError, match=rf"needs even n >= 2 \(got {n}\)"):
            verify_no_typeC_odd({"q": 3, "n": n})
    with pytest.raises(ValueError):
        verify_no_typeC_odd({"q": 3, "n": 4})      # 81^4 polynomials: over budget
    with pytest.raises(ValueError, match=r"unknown parameter\(s\) k, sample"):
        verify_no_typeC_odd({"q": 3, "n": 2, "sample": 5, "k": 9})


_NOT_INTEGERS = [
    (verify_no_typeC_odd, {"q": 3.9, "n": 2}, "q", 3.9),
    (verify_no_typeC_odd, {"q": 3, "n": 2.0}, "n", 2.0),
    (verify_no_typeC_even_8dim, {"q": "2"}, "q", "2"),
    (verify_even_n3_classification, {"q": True}, "q", True),
    (verify_hermite, {"q": np.float64(2)}, "q", 2.0),
    (verify_planar_dichotomy, {"sample": 10.7}, "sample", 10.7),
    (verify_planar_dichotomy, {"k": "1"}, "k", "1"),
]


@pytest.mark.parametrize("verify, params, key, value", _NOT_INTEGERS,
                         ids=[f"{v.__name__}-{k}={x!r}" for v, _, k, x in _NOT_INTEGERS])
def test_non_integer_parameters_are_refused(monkeypatch, verify, params, key, value):
    # a float, a string or a bool is refused, naming the parameter, before any
    # tower is built: never truncated to an int
    monkeypatch.setattr(ex, "build_tower", None)
    with pytest.raises(ValueError, match=rf"^parameter {key} must be an integer \(got "):
        verify(params)


def test_numpy_integer_parameters_are_read_as_ints():
    rep = verify_hermite({"q": np.int64(2)})
    assert rep.params == {"q": 2} and type(rep.params["q"]) is int
    rep = verify_planar_dichotomy({"q": np.int32(3), "sample": np.uint8(10)})
    assert rep.params["sample"] == 10 and type(rep.params["sample"]) is int
    assert rep.candidates == 2 * 729 - 1 + 10
    json.dumps(rep.to_json())


def _odd_setup_per_l(p, e, n):
    ctx = build_tower(p, e, n)
    dom = [int(x) for x in ctx.subfield_elements("qn")]
    combos = list(itertools.product(dom, repeat=n))     # L, in lexicographic order
    return ctx, ctx.find_deltas(), QPoly.identity(ctx), combos


def _odd_check_per_l(state, i, hi):
    """Reference: one q-polynomial L, listed item i, against every admissible
    delta, up to the first hit.  q_from_pairs(ident, L, deltas) gives
    q_from_component(L, d) for every d from one checked table; each is then
    tested on its own."""
    ctx, deltas, ident, combos = state
    assert hi == i + 1
    coeffs = combos[i]
    L = QPoly(ctx, list(coeffs))
    for di, (d, Q) in enumerate(zip(deltas, q_from_pairs(ident, L, deltas))):
        if ex.permutes_cosets(Q):
            return di + 1, 1, {"L_coeffs": list(coeffs), "delta": int(d)}
    return len(deltas), 0, None


def _odd_per_l(q, n):
    """The odd scan with one item per L, in lexicographic order."""
    n_deltas = q ** n - 1
    return ex._run_scan("no-typec-odd", {"q": q, "n": n}, q ** (n * n), 1,
                        _odd_setup_per_l, (q, 1, n), _odd_check_per_l,
                        lambda hits, cex: {"polynomials": q ** (n * n), "deltas": n_deltas},
                        1, None)


def _same_report(a, b):
    one, two = a.to_json(), b.to_json()
    del one["seconds"], two["seconds"]
    assert one == two


def _crc_hits(Q):
    """A verdict that is True on about 1 in 50 tables, from their bytes: the
    first hit is candidate 101 at (3,2) and 686 at (5,2)."""
    return zlib.crc32(Q.values().tobytes()) % 50 == 0


@pytest.mark.parametrize("predicate", ["real", "crc"])
@pytest.mark.parametrize("q", [3, 5])
def test_odd_blocks_match_per_l_reference(monkeypatch, q, predicate):
    # the block scan and the per-L scan give the same report; under a forced
    # verdict the first hit, its payload and the count agree too
    if predicate == "crc":
        monkeypatch.setattr(ex, "permutes_cosets", _crc_hits)
    block, per_l = verify_no_typeC_odd({"q": q, "n": 2}), _odd_per_l(q, 2)
    _same_report(block, per_l)
    if predicate == "real":
        assert block.verdict == "confirmed"
    else:
        assert (block.verdict, block.candidates) == ("counterexample", {3: 101, 5: 686}[q])


def test_odd_items_are_l_index_ranges(monkeypatch):
    # (5,2): 24 deltas x 25 values per L, so 2^14 // 600 = 27 L per block
    seen = {}

    def fake_scan(name, params, total, size, *rest):
        seen.update(total=total, size=size)
        return "scanned"

    monkeypatch.setattr(ex, "_run_scan", fake_scan)
    assert verify_no_typeC_odd({"q": 5, "n": 2}) == "scanned"
    assert seen == {"total": 625, "size": 27}


def test_odd_rows_decode_the_lexicographic_order():
    # q_from_component shares its row routine with _odd_rows, so each sampled
    # table is also compared with the scalar Q(x) and the scalar product
    state = ex._odd_setup(5, 1, 2)
    ctx, deltas = state["ctx"], state["deltas"].tolist()
    dom = [int(x) for x in state["dom"]]
    combos = list(itertools.product(dom, repeat=2))
    for lo, hi in ((0, 27), (27, 54), (600, 625), (311, 312)):
        coeffs, polys = ex._odd_rows(state, lo, hi)
        assert [tuple(r) for r in coeffs.tolist()] == combos[lo:hi]
        assert len(polys) == (hi - lo) * len(deltas)
        for k, Q in enumerate(polys[::7]):
            row, di = divmod(7 * k, len(deltas))
            L, delta = QPoly(ctx, combos[lo + row]), deltas[di]
            want = q_from_component(L, delta)
            assert Q == want and np.array_equal(Q.values(), want.values())
            dconj = ctx.frob(delta, ctx.n * ctx.e)
            assert Q.values().tolist() == [Q(x) for x in dom]
            assert Q.values().tolist() == [
                ctx.mul(ctx.add(x, ctx.mul(delta, L(x))), ctx.add(x, ctx.mul(dconj, L(x))))
                for x in dom]


def test_odd_rows_check_the_expansion(monkeypatch):
    # the row routine lives in semifield: a table entry perturbed in the
    # middle of a block, or a coefficient moved outside F_{q^n}, stops it
    state = ex._odd_setup(3, 1, 2)
    real_rows, real_coeffs = semifield._key_rows, semifield._pair_coeffs

    def perturbed_table(*args):
        table = real_rows(*args)
        table[1, 2, 3] = state["ctx"].add(int(table[1, 2, 3]), 1)
        return table

    monkeypatch.setattr(semifield, "_key_rows", perturbed_table)
    with pytest.raises(RuntimeError, match="disagrees"):
        ex._odd_rows(state, 0, 5)
    monkeypatch.setattr(semifield, "_key_rows", real_rows)

    def outside_coeff(*args):
        keys, coeffs = real_coeffs(*args)
        coeffs[2, 3, 1] = int(ex._outside_deltas(state["ctx"])[0])
        return keys, coeffs

    monkeypatch.setattr(semifield, "_pair_coeffs", outside_coeff)
    with pytest.raises(ValueError, match="not in the domain field"):
        ex._odd_rows(state, 0, 5)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("row, di", [(27, 0), (53, 23), (54, 11)])
def test_odd_counterexample_on_a_block_edge(monkeypatch, jobs, row, di):
    # (5,2) blocks hold 27 L: L 27 and 53 are the first and last rows of the
    # second block, 54 the first of the third.  A hit forced on candidate
    # (L, delta) stops the scan there, with exactly index + 1 candidates.
    # Products repeat (Q_{L, d0 c} = Q_{cL, d0}), so the hit marks the
    # candidate's place in its block, not its polynomial
    ctx = build_tower(5, 1, 2)
    deltas = ctx.find_deltas()
    dom = [int(x) for x in ctx.subfield_elements("qn")]
    coeffs = list(itertools.product(dom, repeat=2))[row]
    real, marked = ex._odd_rows, DOPoly(ctx, {(0, 0): 1})

    def marking(state, lo, hi):
        rows, polys = real(state, lo, hi)
        if lo <= row < hi:
            polys[(row - lo) * 24 + di] = marked
        return rows, polys

    monkeypatch.setattr(ex, "_odd_rows", marking)
    monkeypatch.setattr(ex, "permutes_cosets", lambda Q: Q is marked)
    rep = verify_no_typeC_odd({"q": 5, "n": 2}, jobs=jobs)
    assert rep.verdict == "counterexample"
    assert rep.candidates == row * 24 + di + 1
    assert rep.counterexample == {"L_coeffs": list(coeffs), "delta": int(deltas[di])}


def test_odd_interrupted_scan_resumes(tmp_path, monkeypatch):
    # (5,2) items are ranges of 27 L (648 candidates): a checkpoint after
    # every second item; the resumed scan starts at the saved range
    full = verify_no_typeC_odd({"q": 5, "n": 2})
    out = str(tmp_path / "odd.json")
    monkeypatch.setattr(ex, "CHECKPOINT_EVERY", 1000)
    real = ex.permutes_cosets
    calls, limit = 0, 5 * 648 + 100

    def counted(Q):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise _Interrupt
        return real(Q)

    monkeypatch.setattr(ex, "permutes_cosets", counted)
    with pytest.raises(_Interrupt):             # stops in item 5; saved at item 4
        verify_no_typeC_odd({"q": 5, "n": 2}, out=out)
    assert os.path.exists(out + ".state")
    calls, limit = 0, float("inf")
    rep = verify_no_typeC_odd({"q": 5, "n": 2}, out=out)
    assert calls == 15000 - 4 * 648
    assert (rep.verdict, rep.candidates, rep.details) == \
        (full.verdict, full.candidates, full.details)
    assert not os.path.exists(out + ".state")


@pytest.mark.parametrize("verify", [verify_no_typeC_odd, verify_no_typeC_even_8dim,
                                    verify_even_n3_classification, verify_hermite,
                                    verify_planar_dichotomy], ids=lambda f: f.__name__)
def test_misspelt_keyword_is_refused(verify):
    # "job" for "jobs" must not silently run a serial scan
    with pytest.raises(TypeError, match="job"):
        verify(None, job=2)


# -- even q, n = 3 classification ------------------------------------------------------


def test_classification_confirmed():
    rep = run_experiment(ExperimentSpec("even3-classification", {"q": 2}))
    assert rep.verdict == "confirmed"
    assert rep.candidates == 64 * 56 == 3584
    assert rep.details["permutation_pairs"] == 448
    assert rep.details["monic_polynomials"] == 64
    assert rep.details["deltas"] == 56


def test_classification_predicate_at_trace(c213):
    # d0 = d1 = 1 makes L the trace; the predicate must then mark exactly
    # the deltas that admit the spread construction
    outside = [d for d in range(1, c213.N) if not c213.in_subfield(d, "qn")]
    marked = [d for d in outside if even3_perm_predicate(c213, 1, 1, d)]
    assert marked == [d for d in outside if even3_admissible(c213, d)]
    assert len(marked) == 8


def test_classification_budget(monkeypatch):
    # q = 8 is about 6.9e10 candidates: refused before any tower or list
    monkeypatch.setattr(ex, "build_tower", None)
    with pytest.raises(ValueError, match="desk-scale budget"):
        verify_even_n3_classification({"q": 8})


@pytest.mark.parametrize("jobs", [1, 2])
def test_classification_ranges_fill_one_block(tmp_path, monkeypatch, jobs):
    # at q = 2 a range holds 36 L (36 x 56 x 8 <= _ROW_BLOCK entries): two
    # ranges, which fork at two jobs
    log = tmp_path / "calls"
    check = ex._even3_check

    def logged(state, lo, hi):
        with open(log, "a") as fh:
            fh.write(f"{lo} {hi} {os.getpid()}\n")
        return check(state, lo, hi)

    monkeypatch.setattr(ex, "_even3_check", logged)
    rep = verify_even_n3_classification({"q": 2}, jobs=jobs)
    assert (rep.verdict, rep.candidates) == ("confirmed", 3584)
    lines = sorted(line.split() for line in log.read_text().splitlines())
    assert [line[:2] for line in lines] == [["0", "36"], ["36", "64"]]
    assert all((pid == str(os.getpid())) == (jobs == 1) for *_, pid in lines)


def test_classification_q4_within_budget(monkeypatch):
    # q = 4 is 16,515,072 candidates and reaches the scan
    seen = {}

    def fake_scan(name, params, total, size, *rest):
        seen.update(name=name, total=total, size=size)
        return "scanned"

    monkeypatch.setattr(ex, "_run_scan", fake_scan)
    assert verify_even_n3_classification({"q": 4}) == "scanned"
    assert seen == {"name": "even3-classification", "total": 64 ** 2, "size": 1}


def _even3_setup_per_l(p, e):
    ctx = build_tower(p, e, 3)
    dom = [int(x) for x in ctx.subfield_elements("qn")]
    combos = list(itertools.product(dom, repeat=2))     # (d0, d1), lexicographic
    return ctx, ex._outside_deltas(ctx), QPoly.identity(ctx), combos


def _even3_check_per_l(state, i, hi):
    """Reference: the monic L of listed (d0, d1) i against every delta, up
    to the first disagreement of the brute test and the predicate."""
    ctx, deltas, ident, combos = state
    assert hi == i + 1
    d0, d1 = combos[i]
    L = QPoly(ctx, {0: d0, 1: d1, 2: 1})
    perms = 0
    for di, (delta, Q) in enumerate(zip(deltas, q_from_pairs(L, ident, deltas))):
        perm = ex.is_permutation_brute(Q)
        perms += perm
        if perm != ex.even3_perm_predicate(ctx, d0, d1, delta):
            return di + 1, perms, {"L_coeffs": [d0, d1, 1], "delta": delta}
    return len(deltas), perms, None


@pytest.mark.parametrize("target", [None, (5, 3, 10), (3, 5, 40), (4, 3, 55), (4, 4, 0)])
def test_classification_index_matches_per_l_reference(monkeypatch, target):
    # the scan that decodes (d0, d1) from the L index and the scan over the
    # listed pairs give the same report; with the predicate flipped at one
    # (d0, d1, delta), given by positions, the same first disagreement
    # (d0 != d1 in the first two, so a swapped decode would meet it at
    # another index).  L 35 and 36 lie on each side of the edge of the first
    # range, which holds 36 L at q = 2
    if target is not None:
        ctx = build_tower(2, 1, 3)
        j0, j1, di = target
        dom = ctx.subfield_elements("qn").tolist()
        flip = (dom[j0], dom[j1], ex._outside_deltas(ctx)[di])
        real = ex.even3_perm_predicate
        monkeypatch.setattr(ex, "even3_perm_predicate",
                            lambda ctx, *args: real(ctx, *args) ^ (args == flip))
    index = verify_even_n3_classification({"q": 2})
    listed = ex._run_scan("even3-classification", {"q": 2}, 64, 1, _even3_setup_per_l,
                          (2, 1), _even3_check_per_l,
                          lambda hits, cex: {"monic_polynomials": 64, "deltas": 56,
                                             "permutation_pairs": hits}, 1, None)
    _same_report(index, listed)
    if target is None:
        assert (index.verdict, index.candidates) == ("confirmed", 3584)
    else:
        assert index.verdict == "counterexample"
        assert index.candidates == (8 * j0 + j1) * 56 + di + 1
        assert index.counterexample == {"L_coeffs": [*flip[:2], 1], "delta": flip[2]}


def _even3_predicate_loop(ctx, d0, d1, delta):
    """Reference: the predicate solving u^(q^2-1) = d1 by a scalar loop over
    every u in F_{q^3}^*."""
    q, ne = ctx.q, ctx.n * ctx.e
    for u in ctx.subfield_elements("qn")[1:].tolist():
        if ctx.pow(u, q * q - 1) != d1:
            continue
        dpi = ctx.inv(ctx.add(ctx.add(delta, d0), ctx.pow(u, q - 1)))
        c = ctx.mul(ctx.add(dpi, ctx.frob(dpi, ne)), ctx.pow(u, q - 1))
        if c != 0 and ctx.in_subfield(c, "q"):
            return True
    return False


def test_even3_predicate_matches_loop_reference_at_q2(c213):
    # all 3,584 (d0, d1, delta) of the q = 2 scan; the brute verdicts of
    # their tables against np.unique, and the 448 permutations
    dom = c213.subfield_elements("qn").tolist()
    deltas = ex._outside_deltas(c213).tolist()
    ident, hits = QPoly.identity(c213), 0
    for d0, d1 in itertools.product(dom, repeat=2):
        Qs = q_from_pairs(QPoly(c213, [d0, d1, 1]), ident, deltas)
        for delta, Q in zip(deltas, Qs):
            pred = even3_perm_predicate(c213, d0, d1, delta)
            assert pred == _even3_predicate_loop(c213, d0, d1, delta), (d0, d1, delta)
            vals = Q.values()
            assert is_permutation_brute(Q) == (len(np.unique(vals)) == len(vals)) == pred
            hits += pred
    assert hits == 448


def test_even3_predicate_matches_loop_reference_at_q4():
    # 2,000 seeded (d0, d1, delta) at q = 4, against the loop and against
    # the brute verdict of their tables
    ctx = build_tower(2, 2, 3)
    dom = ctx.subfield_elements("qn")
    rng = np.random.default_rng(2000)
    triples = list(zip(rng.choice(dom, 2000).tolist(), rng.choice(dom, 2000).tolist(),
                       rng.choice(ex._outside_deltas(ctx), 2000).tolist()))
    ident, hits = QPoly.identity(ctx), 0
    for d0, d1, delta in triples:
        pred = even3_perm_predicate(ctx, d0, d1, delta)
        assert pred == _even3_predicate_loop(ctx, d0, d1, delta), (d0, d1, delta)
        assert pred == is_permutation_brute(q_from_pair(QPoly(ctx, [d0, d1, 1]), ident, delta))
        hits += pred
    assert 0 < hits < len(triples)


@pytest.mark.parametrize("q", [2, 4])
def test_even3_root_table_matches_the_loop(q):
    # d1 -> u^(q-1): every root u of u^(q^2-1) = d1 has that u^(q-1), and a
    # d1 without an entry has no root
    ctx = build_tower(2, q // 2, 3)
    table = ex._even3_roots(ctx)
    roots = {}
    for u in ctx.subfield_elements("qn")[1:].tolist():
        roots.setdefault(ctx.pow(u, q * q - 1), set()).add(ctx.pow(u, q - 1))
    assert {d1: {w} for d1, w in table.items()} == roots
    assert len(table) == q * q + q + 1
    assert ex._even3_roots(ctx) is table


@pytest.mark.parametrize("args, match", [
    ((1, 1, 0), "delta = 0 is not outside F_{q^3}"),
    ((0, 1, 1), "delta = 1 is not outside F_{q^3}"),
    ((1, 1, 1), "delta = 1 is not outside F_{q^3}"),
    ((3, 1, 9), "d0 = 3 is not in F_{q^3}"),
    ((1, 3, 9), "d1 = 3 is not in F_{q^3}"),
], ids=["delta-0", "d0-0-delta-1", "delta-1", "d0-outside", "d1-outside"])
def test_even3_predicate_refuses_inputs_outside_its_domain(c213, args, match):
    # (1, 1, 0) and (0, 1, 1) raised ZeroDivisionError; d0 = 3, d1 = 3
    # (outside F_8) and delta = 1 (inside it) returned False
    with pytest.raises(ValueError, match=re.escape(match)):
        even3_perm_predicate(c213, *args)


@pytest.mark.parametrize("tower", [(3, 1, 3), (2, 1, 4)], ids=str)
def test_even3_predicate_refuses_other_towers(tower):
    with pytest.raises(ValueError, match="even q with n = 3"):
        even3_perm_predicate(build_tower(*tower), 0, 0, 0)


# -- Hermite coefficient ---------------------------------------------------------------


def test_hermite_confirmed(c213):
    rep = verify_hermite({"q": 2})
    assert rep.verdict == "confirmed"
    assert rep.candidates == 56
    # spot-check the identity directly on a few deltas
    outside = [d for d in range(1, c213.N) if not c213.in_subfield(d, "qn")]
    for d in outside[:3]:
        assert ex.hermite_coefficient_check(c213, d)


def test_hermite_budget(monkeypatch):
    # q = 16 is 16,773,120 deltas: refused before any tower or list
    monkeypatch.setattr(ex, "build_tower", None)
    with pytest.raises(ValueError, match="desk-scale budget"):
        verify_hermite({"q": 16})


def test_hermite_q8_within_budget(monkeypatch):
    # q = 8 is 261,632 deltas and reaches the scan, 2^14 // 512 = 32 a range
    seen = {}

    def fake_scan(name, params, total, size, *rest):
        seen.update(name=name, total=total, size=size)
        return "scanned"

    monkeypatch.setattr(ex, "_run_scan", fake_scan)
    assert verify_hermite({"q": 8}) == "scanned"
    assert seen == {"name": "hermite-coefficient", "total": 8 ** 6 - 8 ** 3, "size": 32}


def test_hermite_guards(c213, c313):
    with pytest.raises(ValueError):
        ex.hermite_coefficient_check(c213, 1)          # delta inside F_8
    with pytest.raises(ValueError):
        ex.hermite_coefficient_check(c313, c313.find_deltas()[0])   # odd q


def _poly_mul_cyclic(ctx, f, g, qn):
    """Product of reduced polynomials (exponent -> coefficient dicts) modulo
    X^(q^n) - X: exponents fold into 0..q^n-1, nonzero ones staying nonzero."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            ex = e1 + e2
            while ex >= qn:
                ex -= qn - 1
            out[ex] = ctx.add(out.get(ex, 0), ctx.mul(c1, c2))
    return {ex: c for ex, c in out.items() if c}


def _hermite_coefficient_sequential(ctx, delta):
    """Reference: the X^(q^3-1) coefficient of Q^(q^2-1) mod X^(q^3) - X,
    expanded as q^2 - 1 successive products with Q."""
    ne, q = ctx.n * ctx.e, ctx.q
    dconj = ctx.frob(delta, ne)
    Q = {2 * q: 1, q + 1: ctx.add(delta, dconj), 2: ctx.mul(delta, dconj)}
    acc = {0: 1}
    for _ in range(q * q - 1):
        acc = _poly_mul_cyclic(ctx, acc, Q, q ** 3)
    return acc.get(q ** 3 - 1, 0)


@pytest.mark.parametrize("e, sample", [(1, None), (2, None), (3, 200)])
def test_hermite_value_sum_matches_sequential_product(e, sample):
    ctx = build_tower(2, e, 3)
    deltas = ex._outside_deltas(ctx)
    if sample is not None:
        rng = np.random.default_rng(43)
        deltas = [int(d) for d in rng.choice(deltas, sample, replace=False)]
    for d in deltas:
        assert ex._hermite_brute(ctx, d) == _hermite_coefficient_sequential(ctx, d), d


def test_hermite_vanished_coefficient_is_a_counterexample(monkeypatch, c213):
    monkeypatch.setattr(ex, "_hermite_brute", lambda ctx, delta: 0)
    first = ex._outside_deltas(c213)[0]
    with pytest.raises(RuntimeError, match="coefficient vanished"):
        ex.hermite_coefficient_check(c213, first)
    rep = verify_hermite({"q": 2})
    assert rep.verdict == "counterexample" and rep.exit_code == 2
    assert rep.candidates == 1
    assert rep.counterexample == {"delta": first}


def test_hermite_zero_coefficient_fails_even_when_the_forms_agree(monkeypatch):
    # a vanished brute coefficient is a counterexample on its own, not only
    # through its disagreement with the closed form
    def zero(ctx, delta):
        return np.zeros(np.shape(delta), dtype=np.int64)

    monkeypatch.setattr(ex, "_hermite_brute", zero)
    monkeypatch.setattr(ex, "_hermite_closed", zero)
    rep = verify_hermite({"q": 4})
    assert (rep.verdict, rep.candidates) == ("counterexample", 1)
    assert rep.counterexample == {"delta": ex._outside_deltas(build_tower(2, 2, 3))[0]}


def _hermite_setup_per_delta(p, e):
    ctx = build_tower(p, e, 3)
    return ctx, ex._outside_deltas(ctx)


def _hermite_check_per_delta(state, i, hi):
    """Reference: the scan's former item, listed delta i through the scalar
    check."""
    ctx, deltas = state
    assert hi == i + 1
    delta = deltas[i]
    try:
        okay = ex.hermite_coefficient_check(ctx, delta)
    except RuntimeError:
        okay = False
    return 1, 0, (None if okay else {"delta": delta})


def _hermite_per_delta(q):
    return ex._run_scan("hermite-coefficient", {"q": q}, q ** 6 - q ** 3, 1,
                        _hermite_setup_per_delta, (2, q.bit_length() - 1),
                        _hermite_check_per_delta, lambda hits, cex: {}, 1, None)


@pytest.mark.parametrize("vanish", [False, True])
@pytest.mark.parametrize("q", [2, 4])
def test_hermite_blocks_match_per_delta_reference(monkeypatch, q, vanish):
    # the block scan and the per-delta scan give the same report; with the
    # brute coefficient zeroed on a few deltas, the same first counterexample
    if vanish:
        real = ex._hermite_brute

        def zeroed(ctx, delta):
            return np.where(np.asarray(delta) % 37 == 20, 0, real(ctx, delta))

        monkeypatch.setattr(ex, "_hermite_brute", zeroed)
    block, per_delta = verify_hermite({"q": q}), _hermite_per_delta(q)
    _same_report(block, per_delta)
    assert block.verdict == ("counterexample" if vanish else "confirmed")


def _closed_form_scalar(ctx, delta):
    """Reference: the closed form by scalar arithmetic, one delta."""
    q, ne = ctx.q, ctx.n * ctx.e
    s = ctx.add(delta, ctx.frob(delta, ne))
    t = ctx.mul(delta, ctx.frob(delta, ne))
    inv_s2 = ctx.inv(ctx.mul(s, s))
    total = 0
    for ell in range(ctx.e):
        total = ctx.add(total, ctx.pow(ctx.mul(t, inv_s2), (2 ** ell) * q))
    return ctx.mul(ctx.pow(s, q * q + q - 1), total)


@pytest.mark.parametrize("e, sample", [(1, None), (2, None), (3, 300)])
def test_hermite_row_wise_routines_match_scalar(e, sample):
    # one call on an array of deltas gives each delta's own int
    ctx = build_tower(2, e, 3)
    deltas = ex._outside_deltas(ctx)
    if sample is not None:
        rng = np.random.default_rng(47)
        deltas = sorted(int(d) for d in rng.choice(deltas, sample, replace=False))
    brute = ex._hermite_brute(ctx, np.array(deltas))
    closed = ex._hermite_closed(ctx, np.array(deltas))
    assert brute.shape == closed.shape == (len(deltas),)
    assert brute.tolist()[:100] == [ex._hermite_brute(ctx, d) for d in deltas[:100]]
    assert closed.tolist() == [_closed_form_scalar(ctx, d) for d in deltas]
    assert brute.tolist() == closed.tolist()
    one = ex._hermite_brute(ctx, deltas[0])
    assert type(one) is int and type(ex._hermite_closed(ctx, deltas[0])) is int
    assert ex._hermite_brute(ctx, np.array(deltas[:6]).reshape(2, 3)).tolist() == \
        brute[:6].reshape(2, 3).tolist()


def test_hermite_items_tile_the_deltas(monkeypatch):
    # q = 4: 2^14 // 64 = 256 deltas per block
    seen = {}

    def fake_scan(name, params, total, size, *rest):
        seen.update(total=total, size=size)
        return "scanned"

    monkeypatch.setattr(ex, "_run_scan", fake_scan)
    assert verify_hermite({"q": 4}) == "scanned"
    assert seen == {"total": 4032, "size": 256}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("index", [256, 511, 512])
def test_hermite_counterexample_on_a_block_edge(monkeypatch, jobs, index):
    # q = 4 blocks hold 256 deltas: 256 and 511 are the first and last of
    # the second block, 512 the first of the third
    ctx = build_tower(2, 2, 3)
    target = ex._outside_deltas(ctx)[index]
    real = ex._hermite_brute

    def zeroed(ctx, delta):
        return np.where(np.asarray(delta) == target, 0, real(ctx, delta))

    monkeypatch.setattr(ex, "_hermite_brute", zeroed)
    rep = verify_hermite({"q": 4}, jobs=jobs)
    assert rep.verdict == "counterexample"
    assert rep.candidates == index + 1
    assert rep.counterexample == {"delta": target}


def test_hermite_conjugation_and_squaring(c213):
    # B(delta^(q^3)) = B(delta) and B(delta^2) = B(delta)^2 on every delta
    # outside F_{q^3} at q = 4 (and q = 2)
    for ctx in (c213, build_tower(2, 2, 3)):
        d = np.array(ex._outside_deltas(ctx))
        B = ex._hermite_brute(ctx, d)
        assert B.all()
        assert np.array_equal(ex._hermite_brute(ctx, ctx.vpow(d, ctx.q ** 3)), B)
        assert np.array_equal(ex._hermite_brute(ctx, ctx.vmul(d, d)), ctx.vmul(B, B))


@pytest.mark.parametrize("e", [2, 3])
def test_hermite_scaling_identity(e):
    # Q_delta(cx) = c^(2q) Q_(delta c^(1-q))(x) gives
    # B(delta c^(1-q)) = c^(-2q(q^2-1)) B(delta) for c in F_{q^3}^*;
    # 200 seeded (delta, c) at q = 4 and q = 8
    ctx = build_tower(2, e, 3)
    q = ctx.q
    rng = np.random.default_rng(53 + e)
    d = rng.choice(ex._outside_deltas(ctx), 200)
    c = rng.choice(ctx.subfield_elements("qn")[1:], 200)
    lhs = ex._hermite_brute(ctx, ctx.vmul(d, ctx.vpow(c, 1 - q)))
    rhs = ctx.vmul(ctx.vpow(c, -2 * q * (q * q - 1)), ex._hermite_brute(ctx, d))
    assert np.array_equal(lhs, rhs)


def test_non_encodings_are_refused(c213):
    # a negative index used to wrap to a valid element, and one past the
    # field raised IndexError; the predicate silently said False
    for delta in (-5, 67):
        with pytest.raises(ValueError, match=f"delta = {delta} is not an element encoding"):
            ex.hermite_coefficient_check(c213, delta)
    with pytest.raises(ValueError, match="d0 = -1 is not an element encoding in 0..63"):
        even3_perm_predicate(c213, -1, 1, 9)
    with pytest.raises(ValueError, match="d1 = 64 is not an element encoding"):
        even3_perm_predicate(c213, 1, 64, 9)
    with pytest.raises(ValueError, match="delta = -9 is not an element encoding"):
        even3_perm_predicate(c213, 1, 1, -9)


def test_candidate_scans_call_the_predicate_per_candidate(monkeypatch):
    # the value tables are shared, but each candidate still gets its own
    # predicate call
    calls = {"permutes_cosets": 0, "is_permutation_brute": 0}

    def counted(fn):
        def wrapper(f):
            calls[fn.__name__] += 1
            return fn(f)
        return wrapper

    monkeypatch.setattr(ex, "permutes_cosets", counted(ex.permutes_cosets))
    monkeypatch.setattr(ex, "is_permutation_brute", counted(ex.is_permutation_brute))
    assert verify_no_typeC_odd({"q": 3, "n": 2}).candidates == 648
    assert verify_even_n3_classification({"q": 2}).candidates == 3584
    assert calls == {"permutes_cosets": 648, "is_permutation_brute": 3584}


# -- planarity dichotomy -----------------------------------------------------------------


def test_dichotomy_sample_reproducible():
    a = verify_planar_dichotomy({"q": 3, "m": 3, "k": 1, "sample": 100}, seed=5)
    b = verify_planar_dichotomy({"q": 3, "m": 3, "k": 1, "sample": 100}, seed=5)
    assert a.verdict == b.verdict == "confirmed"
    # full boundary (2N - 1 pairs) plus the sampled bulk
    assert a.candidates == b.candidates == 2 * 729 - 1 + 100
    assert a.details["w"] == b.details["w"]


def test_dichotomy_preconditions():
    with pytest.raises(ValueError):
        verify_planar_dichotomy({"q": 2, "m": 3, "k": 1, "sample": 1})
    with pytest.raises(ValueError):
        verify_planar_dichotomy({"q": 3, "m": 3, "k": 3, "sample": 1})
    with pytest.raises(ValueError):
        verify_planar_dichotomy({"q": 3, "m": 4, "k": 1})   # full scan over budget
    with pytest.raises(ValueError, match="sample must be at least 0"):
        verify_planar_dichotomy({"q": 3, "m": 3, "k": 1, "sample": -5})


def test_dichotomy_sample_budget(monkeypatch):
    # 2N - 1 boundary pairs plus the sample, refused before the tower is
    # built or a pair is drawn; the full scan is refused the same way
    monkeypatch.setattr(ex, "build_tower", None)
    with pytest.raises(ValueError, match="desk-scale budget"):
        verify_planar_dichotomy({"q": 3, "m": 3, "k": 1, "sample": 10 ** 6 - 1456})
    with pytest.raises(ValueError, match="desk-scale budget"):
        verify_planar_dichotomy({"q": 3, "m": 4, "k": 1})


def test_planar_fast_path_matches_reference():
    # the scan's row-wise checker against semifield.planar_family_check, on
    # the whole ab = 0 boundary (planar) and 200 seeded ab != 0 pairs, all
    # 1,657 pairs as one table of value rows
    state = ex._planar_setup(3, 1, 3, 1, None)
    ctx, w = state["ctx"], state["w"]
    N = ctx.N
    rng = np.random.default_rng(11)
    pairs = ([(0, 0)] + [(a, 0) for a in range(1, N)] + [(0, b) for b in range(1, N)]
             + [tuple(int(x) for x in rng.integers(1, N, 2)) for _ in range(200)])
    assert len(pairs) == 1457 + 200
    ab = np.array(pairs)
    got = ex._planar_rows(state, ab[:, 0], ab[:, 1])
    assert got.shape == (len(pairs),) and got.dtype == bool
    for (a, b), planar in zip(pairs, got.tolist()):
        assert planar == planar_family_check(ctx, a, b, w, 1)


def test_planar_fast_path_matches_reference_at_q5():
    # the same at (5,3,1), where a square class of F_q^* holds two values:
    # (0, 0), 40 seeded boundary pairs of each kind and 40 seeded ab != 0
    # pairs, as one table of value rows; the set-up, given their codes,
    # fills the verdicts of their orbit representatives only
    N = 5 ** 6
    rng = np.random.default_rng(23)
    side, bulk = rng.integers(1, N, 80).tolist(), rng.integers(1, N, (40, 2)).tolist()
    pairs = ([(0, 0)] + [(a, 0) for a in side[:40]] + [(0, b) for b in side[40:]]
             + [tuple(ab) for ab in bulk])
    ab = np.array(pairs)
    state = ex._planar_setup(5, 1, 3, 1, ab[:, 0] * N + ab[:, 1])
    ctx, w = state["ctx"], state["w"]
    got = ex._planar_rows(state, ab[:, 0], ab[:, 1]).tolist()
    assert got == [planar_family_check(ctx, a, b, w, 1) for a, b in pairs]
    assert got == [a == 0 or b == 0 for a, b in pairs]
    assert state["verdict"][ex._planar_rep(ctx, 1, ab[:, 0], ab[:, 1])[0]].tolist() == got


@pytest.mark.parametrize("seed", [0, 1, 5, 11, 2024])
def test_planar_sample_drawn_in_one_call(seed):
    # one (sample, 2) draw gives the pairs of 2 * sample scalar draws, a then b
    N = 729
    one = np.random.default_rng(seed).integers(1, N, (3000, 2)).tolist()
    rng = np.random.default_rng(seed)
    scalar = [[int(rng.integers(1, N)), int(rng.integers(1, N))] for _ in range(3000)]
    assert one == scalar


def test_two_to_one_row_wise_matches_per_row(c313):
    # 50 seeded DO tables on F_27, plus x^2 (planar): one call over the last
    # axis, in any leading shape, gives each row's own verdict
    rng = np.random.default_rng(3)
    dom = c313.subfield_elements("qn")
    polys = [DOPoly(c313, {(0, 0): 1})] + [
        DOPoly(c313, {(i, j): int(rng.choice(dom)) for i in range(3) for j in range(i, 3)})
        for _ in range(49)]
    table = np.stack([f.values() for f in polys])
    want = [bool(_two_to_one(c313, row)) for row in table]
    assert want == [is_planar_direct(f) for f in polys]
    assert 0 < sum(want) < 50
    assert _two_to_one(c313, table).tolist() == want
    assert _two_to_one(c313, table.reshape(5, 10, -1)).reshape(-1).tolist() == want
    assert isinstance(is_planar_2to1(polys[0]), bool)


def _planar_listed_pairs(N, sample, seed):
    """Reference: the sample-mode pairs as a list of (a, b) tuples, the
    ab = 0 boundary and then the seeded draw."""
    rng = np.random.default_rng(seed)
    return ([(0, 0)] + [(a, 0) for a in range(1, N)] + [(0, b) for b in range(1, N)]
            + [tuple(x) for x in rng.integers(1, N, (sample, 2)).tolist()])


def _planar_setup_per_pair(p, e, m, k, pairs):
    return ex._planar_setup(p, e, m, k, None), pairs


def _planar_check_per_pair(state, i, hi):
    """Reference: listed pair i, as a one-row table."""
    st, pairs = state
    assert hi == i + 1
    a, b = pairs[i]
    planar = bool(ex._planar_rows(st, np.array([a]), np.array([b]))[0])
    return 1, 0, (None if planar == (a == 0 or b == 0) else {"a": a, "b": b, "w": st["w"]})


def _planar_per_pair(ctx, sample, seed):
    """The sample-mode scan with one item per listed pair."""
    pairs = _planar_listed_pairs(ctx.N, sample, seed)
    w = int(ctx.least_nonsquare("q2n"))
    return ex._run_scan("planar-dichotomy",
                        {"q": 3, "m": 3, "k": 1, "sample": sample, "seed": seed},
                        len(pairs), 1, _planar_setup_per_pair, (3, 1, 3, 1, pairs),
                        _planar_check_per_pair, lambda hits, cex: {"w": w}, 1, None)


def _planar_orbit(ctx, k, a, b):
    """Reference: the pair codes a' N + b' of the orbit of (a, b), by a
    brute search over c in F_{q^2m}^*: (a', b') = (a c^(1-q^k),
    b c^(q^m-q^k)), from x -> c x."""
    c = np.arange(1, ctx.N, dtype=np.int64)
    q, m = ctx.q, ctx.n
    return np.unique(ctx.vmul(a, ctx.vpow(c, 1 - q ** k)) * ctx.N
                     + ctx.vmul(b, ctx.vpow(c, q ** m - q ** k)))


def _planar_flip_orbit(monkeypatch, ctx, a, b):
    """Flip the _planar_rows verdict of every pair in the orbit of (a, b),
    its representative included, so the scan's table and the per-pair
    reference see the same fault."""
    orbit = _planar_orbit(ctx, 1, a, b)
    real = ex._planar_rows

    def flipped(state, A, B):
        return real(state, A, B) ^ np.isin(A * ctx.N + B, orbit)

    monkeypatch.setattr(ex, "_planar_rows", flipped)
    return orbit


def _planar_values(ctx, k, w, A, B, X):
    """(a x + b x^(q^m))^2 - w x^(2 q^k), one row of values at X per
    (a, b) of the columns A, B, straight from the field operations."""
    L = ctx.vadd(ctx.vmul(A[:, None], X), ctx.vmul(B[:, None], ctx.vpow(X, ctx.q ** ctx.n)))
    return ctx.vsub(ctx.vmul(L, L), ctx.vmul(w, ctx.vpow(X, 2 * ctx.q ** k)))


@pytest.mark.parametrize("p, m, k", [(3, 3, 1), (3, 3, 2), (5, 3, 1)])
def test_planar_rep_is_the_substitution_x_to_cx(p, m, k):
    # c^(-2 q^k) f_(a,b)(c x) = f_(a',b')(x) on the whole field, with
    # c = gamma^t and (a', b') the representative the map gives, for the
    # boundary, (0, 0) and seeded ab != 0 pairs: so planarity and ab = 0
    # are the same at a pair and at its representative.  The identity does
    # not rest on the dichotomy
    ctx = build_tower(p, 1, m)
    N, w = ctx.N, ctx.least_nonsquare("q2n")
    rng = np.random.default_rng(7 * p + k)
    side = rng.integers(1, N, 20)
    bulk = rng.integers(1, N, (40, 2))
    A = np.concatenate([[0], side[:10], np.zeros(10, dtype=np.int64), bulk[:, 0]])
    B = np.concatenate([[0], np.zeros(10, dtype=np.int64), side[10:], bulk[:, 1]])
    index, t = ex._planar_rep(ctx, k, A, B)
    A2, B2 = ex._planar_rep_pairs(ctx, k, index)
    assert ((A2 == 0) == (A == 0)).all() and ((B2 == 0) == (B == 0)).all()
    c = ctx.exp[t][:, None]
    X = np.arange(N, dtype=np.int64)
    lhs = ctx.vmul(ctx.vpow(c, -2 * ctx.q ** k), _planar_values(ctx, k, w, A, B, ctx.vmul(c, X)))
    assert np.array_equal(lhs, _planar_values(ctx, k, w, A2, B2, X[None, :]))


def test_planar_rep_lies_in_the_orbit_and_names_it(c313):
    # at (3,3,1) the representative of each of 300 seeded pairs, boundary
    # included, lies in the pair's orbit (brute search over c), and two
    # pairs share a representative exactly when they share an orbit: the
    # 531,441 pairs reach 1,467 indices, the orbit count by Burnside,
    # sum over c of the pairs c fixes, divided by N - 1
    N, M = c313.N, c313.N - 1
    rng = np.random.default_rng(3)
    A = np.concatenate([[0, 0, 5], rng.integers(0, N, 297)])
    B = np.concatenate([[0, 9, 0], rng.integers(0, N, 297)])
    index = ex._planar_rep(c313, 1, A, B)[0]
    A2, B2 = ex._planar_rep_pairs(c313, 1, index)
    for a, b, rep in zip(A.tolist(), B.tolist(), (A2 * N + B2).tolist()):
        assert rep in _planar_orbit(c313, 1, a, b)
    c = np.arange(1, N, dtype=np.int64)
    fixed = [np.where(c313.vpow(c, s) == 1, N, 1) for s in (1 - 3, 27 - 3)]
    assert (fixed[0] * fixed[1]).sum() == 1467 * M
    a, b = np.divmod(np.arange(N * N, dtype=np.int64), N)
    assert np.count_nonzero(np.bincount(ex._planar_rep(c313, 1, a, b)[0])) == 1467


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("index", [21, 22, 1452, 2 * 729 - 1, 88, 89, 1513])
def test_planar_counterexample_just_after_a_block_boundary(c313, monkeypatch, jobs, index):
    # flipping the verdict of the representative of listed pair index, a
    # boundary pair (21, 22, 88, 89, 1452), the first sampled pair 2N - 1
    # or a later one (1513), stops the scan at the first listed pair of
    # that orbit, with its index + 1 candidates and the report of the
    # per-pair reference, which reads the same flipped verdicts pair by pair
    sample = 100
    pairs = _planar_listed_pairs(729, sample, 0)
    orbit = _planar_flip_orbit(monkeypatch, c313, *pairs[index])
    first = next(i for i, (a, b) in enumerate(pairs) if a * 729 + b in orbit)
    rep = verify_planar_dichotomy({"q": 3, "m": 3, "k": 1, "sample": sample}, jobs=jobs)
    assert rep.verdict == "counterexample"
    assert rep.candidates == first + 1
    a, b = pairs[first]
    assert rep.counterexample == {"a": a, "b": b, "w": rep.details["w"]}
    _same_report(rep, _planar_per_pair(c313, sample, 0))


@pytest.mark.parametrize("sample, seed", [(500, 7), (0, 0)])
def test_planar_sample_matches_listed_pairs_reference(c313, sample, seed):
    # the pair codes a N + b of sample mode give the report of the listed pairs
    rep = verify_planar_dichotomy({"q": 3, "m": 3, "k": 1, "sample": sample}, seed=seed)
    _same_report(rep, _planar_per_pair(c313, sample, seed))
    assert (rep.verdict, rep.candidates) == ("confirmed", 2 * 729 - 1 + sample)


def test_planar_full_items_are_pair_index_ranges(monkeypatch):
    # both modes scan in ranges of 4,096 pairs, whatever N: full mode the
    # 531,441 pair codes a N + b with no list of codes, sample mode a list
    # of them
    seen = []

    def fake_scan(name, params, total, size, setup, args, check, *rest):
        seen.append((total, size, args[-1], check))
        return "scanned"

    monkeypatch.setattr(ex, "_run_scan", fake_scan)
    assert verify_planar_dichotomy({"q": 3, "m": 3, "k": 1}) == "scanned"
    assert seen.pop() == (729 ** 2, 4096, None, ex._planar_check)
    assert verify_planar_dichotomy({"q": 3, "m": 3, "k": 1, "sample": 100}) == "scanned"
    total, size, codes, check = seen.pop()
    assert (total, size, len(codes), check) == (1557, 4096, 1557, ex._planar_check)
    assert verify_planar_dichotomy({"q": 5, "m": 3, "k": 1, "sample": 10}) == "scanned"
    assert seen.pop()[:2] == (2 * 5 ** 6 - 1 + 10, 4096)


def test_planar_range_decodes_the_pair_order(monkeypatch):
    # a range of the full scan's index is the same slice of
    # itertools.product(range(N), range(N)), and of sample mode's the same
    # slice of the listed pairs; a range stops at its first pair whose
    # representative's verdict is wrong
    full = ex._planar_setup(3, 1, 3, 1, None)
    ctx = full["ctx"]
    N = ctx.N
    pairs = _planar_listed_pairs(N, 100, 0)
    codes = np.array([a * N + b for a, b in pairs])
    sample = ex._planar_setup(3, 1, 3, 1, codes)
    seen = []
    real = ex._planar_rep

    def recorded(ctx, k, A, B):
        seen.append(list(zip(A.tolist(), B.tolist())))
        return real(ctx, k, A, B)

    monkeypatch.setattr(ex, "_planar_rep", recorded)
    for lo, hi in ((0, 89), (700, 789), (N * N - 40, N * N)):
        assert ex._planar_check(full, lo, hi) == (hi - lo, 0, None)
        assert seen.pop() == list(itertools.islice(
            itertools.product(range(N), range(N)), lo, hi))
    for lo, hi in ((0, 89), (1424, 1513), (1513, 1557)):
        assert ex._planar_check(sample, lo, hi) == (hi - lo, 0, None)
        assert seen.pop() == pairs[lo:hi]
    monkeypatch.setattr(ex, "_planar_rep", real)
    verdict = full["verdict"].copy()
    verdict[real(ctx, 1, np.array([3]), np.array([5]))[0]] ^= True
    orbit = _planar_orbit(ctx, 1, 3, 5)
    first = next(i for i in range(89) if 3 * N + i in orbit)
    assert first == 5                   # only c = +-1 fixes a = 3, and they fix b
    assert ex._planar_check({**full, "verdict": verdict}, 3 * N, 3 * N + 89) == \
        (first + 1, 0, {"a": 3, "b": first, "w": full["w"]})


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("index", [22, 43, 22 * 40])
def test_planar_full_counterexample_on_a_block_edge(c313, monkeypatch, jobs, index):
    # full mode: flipping the verdict of the representative of pair code
    # 22 = (0, 22), 43 = (0, 43) or 880 = (1, 151) stops the scan at the
    # least pair code of that orbit, the first pair that reads the flip
    orbit = _planar_flip_orbit(monkeypatch, c313, *divmod(index, 729))
    first = int(orbit.min())
    rep = verify_planar_dichotomy({"q": 3, "m": 3, "k": 1}, jobs=jobs)
    assert rep.verdict == "counterexample"
    assert rep.candidates == first + 1
    a, b = divmod(first, 729)
    assert rep.counterexample == {"a": a, "b": b, "w": rep.details["w"]}


# -- running scans: ordering, first hits, checkpoints ----------------------------------


@pytest.mark.parametrize("verify, params", [
    (verify_no_typeC_odd, {"q": 3, "n": 2}),
    (verify_even_n3_classification, {"q": 2}),
    (verify_hermite, {"q": 2}),
    (verify_planar_dichotomy, {"q": 3, "m": 3, "k": 1, "sample": 50}),
], ids=["no-typec-odd", "even3-classification", "hermite-coefficient",
        "planar-dichotomy"])
def test_parallel_matches_serial(verify, params):
    one = verify(params, jobs=1)
    two = verify(params, jobs=2)
    assert (one.verdict, one.candidates, one.details, one.counterexample) == \
        (two.verdict, two.candidates, two.details, two.counterexample)


def _fake_setup(size):
    return size


def _fake_check(size, item, hi):
    # items 3 and 5 hit at their fifth candidate; the others cover size each
    assert hi == item + 1
    if item in (3, 5):
        return 5, 1, {"item": item}
    return size, 0, None


def test_pool_size_is_bounded_by_items_left(monkeypatch):
    # the pool gets min(jobs, items left) workers and is skipped at one; at
    # the end it is closed and joined, never terminated (the fake has no
    # terminate).  The fake pool records its calls and runs in this process
    calls = []

    class FakePool:
        def __init__(self, workers):
            calls.append(workers)

        def imap(self, fn, items, chunksize):
            return map(fn, items)

        def close(self):
            calls.append("close")

        def join(self):
            calls.append("join")

    fork = SimpleNamespace(Pool=FakePool, RawValue=lambda typ, v: SimpleNamespace(value=v))
    monkeypatch.setattr(ex.mp, "get_context", lambda method: fork)
    for items, jobs in ((3, 8), (1, 8), (8, 2), (8, 1)):
        rep = ex._run_scan("fake", {}, items, 1, _fake_setup, (10,),
                           _fake_check, lambda hits, cex: {}, jobs, None)
        assert rep.candidates == (10 * items if items <= 3 else 35)
    assert calls == [3, "close", "join", 2, "close", "join"]


def test_queued_ranges_are_skipped_once_the_scan_stops():
    # with the stop flag set, a worker returns at once without checking
    def check(state, lo, hi):
        raise AssertionError("checked after the stop")

    stop = SimpleNamespace(value=1)
    try:
        ex._SCAN = (check, None, 10, 1, stop)
        assert ex._work(3) is None
        stop.value = 0
        with pytest.raises(AssertionError, match="after the stop"):
            ex._work(3)
    finally:
        ex._SCAN = ()


@pytest.mark.parametrize("check", ["cex", "error"])
def test_forked_pool_is_never_terminated(monkeypatch, check):
    # an early stop and a failing check both end in close() and join():
    # Pool.terminate() could kill a worker that holds the result queue's
    # lock, and the pool's shutdown would then wait forever
    terminated = []
    monkeypatch.setattr(mp_pool.Pool, "terminate", lambda self: terminated.append(self))
    if check == "cex":
        rep = ex._run_scan("fake", {}, 400, 1, _fake_setup, (10,), _fake_check,
                           lambda hits, cex: {"hits": hits}, 2, None)
        assert (rep.counterexample, rep.candidates) == ({"item": 3}, 35)
    else:
        with pytest.raises(AssertionError):
            ex._run_scan("fake", {}, 400, 2, _fake_setup, (10,), _fake_check,
                         lambda hits, cex: {}, 2, None)
    assert terminated == []
    assert ex._SCAN == ()


@pytest.mark.parametrize("jobs", [1, 2])
def test_first_hit_accounting(jobs):
    rep = ex._run_scan("fake", {}, 8, 1, _fake_setup, (10,), _fake_check,
                       lambda hits, cex: {"hits": hits}, jobs, None)
    assert rep.verdict == "counterexample"
    assert rep.counterexample == {"item": 3}
    assert rep.candidates == 3 * 10 + 4 + 1
    assert rep.details == {"hits": 1}


def _tally_check(state, lo, hi):
    # every item a candidate and a hit
    return hi - lo, hi - lo, None


def _assert_tiles(items, total):
    """items are nonempty (start, stop) ranges that tile [0, total) in order."""
    assert items[0][0] == 0 and items[-1][1] == total
    assert all(lo < hi for lo, hi in items)
    assert all(a[1] == b[0] for a, b in zip(items, items[1:]))


@pytest.mark.parametrize("total, size", [(10, 3), (10, 1), (625, 27), (4032, 256),
                                         (729 ** 2, 22)])
def test_run_scan_tiles_the_index(monkeypatch, total, size):
    # the ranges handed to check are nonempty, size apiece but the last, and
    # tile [0, total) in order
    seen = []

    def recorded(state, lo, hi):
        seen.append((lo, hi))
        return _tally_check(state, lo, hi)

    rep = ex._run_scan("fake", {}, total, size, _fake_setup, (10,), recorded,
                       lambda hits, cex: {"hits": hits}, 1, None)
    _assert_tiles(seen, total)
    assert {hi - lo for lo, hi in seen[:-1]} <= {size}
    assert (rep.verdict, rep.candidates, rep.details) == ("confirmed", total, {"hits": total})


@pytest.mark.parametrize("saved_key", ["same", "size", "total", "schema-2"])
def test_checkpoint_under_another_key_is_ignored(tmp_path, saved_key):
    # a checkpoint saved under another block size, item count or schema is
    # not resumed: the scan runs from the start and gives the full report
    out = str(tmp_path / "s.json")
    key = ex._state_key("fake", {"q": 2}, 100, 10)
    other = {"same": key, "size": ex._state_key("fake", {"q": 2}, 100, 20),
             "total": ex._state_key("fake", {"q": 2}, 99, 10),
             "schema-2": dict(key, schema=2)}[saved_key]
    _save_state(out, other, pos=5, candidates=7, hits=3, seconds=0.0)
    rep = ex._run_scan("fake", {"q": 2}, 100, 10, _fake_setup, (10,), _tally_check,
                       lambda hits, cex: {"hits": hits}, 1, out)
    want = (57, 53) if saved_key == "same" else (100, 100)     # resumed at item 50
    assert (rep.verdict, rep.candidates, rep.details["hits"]) == ("confirmed", *want)
    assert not os.path.exists(out + ".state")


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_scan_saves_no_checkpoint_after_the_last_range(tmp_path, monkeypatch, jobs):
    # 10 ranges of 10 candidates with a checkpoint due after each: saved after
    # the first nine, never after the last, which the scan would at once remove
    log = tmp_path / "calls"
    out = str(tmp_path / "s.json")
    monkeypatch.setattr(ex, "CHECKPOINT_EVERY", 10)
    monkeypatch.setattr(ex, "_save_state", _count_calls(log, "save", ex._save_state))
    rep = ex._run_scan("fake", {}, 100, 10, _fake_setup, (10,), _tally_check,
                       lambda hits, cex: {"hits": hits}, jobs, out)
    assert (rep.verdict, rep.candidates, rep.details) == ("confirmed", 100, {"hits": 100})
    assert log.read_text().splitlines() == [f"save {os.getpid()}"] * 9
    assert not os.path.exists(out + ".state")


def test_run_scan_refuses_a_corrupt_checkpoint(tmp_path):
    out = str(tmp_path / "s.json")
    with open(out + ".state", "w") as fh:
        fh.write("{broken")
    with pytest.raises(ValueError, match="s.json.state"):
        ex._run_scan("fake", {}, 100, 10, _fake_setup, (10,), _tally_check,
                     lambda hits, cex: {}, 1, out)
    assert os.path.exists(out + ".state")


def _no_range(*args):
    raise AssertionError("a range ran")


_BAD_STATES = {
    "pos-past-the-end": {"pos": 10 ** 6},
    "pos-at-the-end": {"pos": 10},
    "pos-negative": {"pos": -3},
    "pos-string": {"pos": "1"},
    "pos-bool": {"pos": True},
    "pos-float": {"pos": 1.0},
    "candidates-negative": {"candidates": -1, "hits": 0},
    "hits-negative": {"hits": -1},
    "hits-above-candidates": {"candidates": 5, "hits": 6},
    "candidates-string": {"candidates": "10"},
    "seconds-missing": {"seconds": None},
    "seconds-negative": {"seconds": -0.5},
    "seconds-string": {"seconds": "1.5"},
    "seconds-nan": {"seconds": float("nan")},
    "hits-missing": {"hits": None},
}


def _bad_state(fields) -> dict:
    """A checkpoint of one range done (pos 1, 10 candidates, 3 hits, 1.5 s)
    with fields changed; a field set to None is left out."""
    doc = {"pos": 1, "candidates": 10, "hits": 3, "seconds": 1.5, **fields}
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize("fields", _BAD_STATES.values(), ids=_BAD_STATES)
def test_run_scan_refuses_a_malformed_checkpoint(tmp_path, fields):
    # a checkpoint under the scan's own key whose fields name no point of the
    # scan (10 ranges here) is refused before any range runs, and kept
    out = str(tmp_path / "s.json")
    _save_state(out, ex._state_key("fake", {}, 100, 10), **_bad_state(fields))
    with pytest.raises(ValueError, match=r"cannot resume from .*s\.json\.state: .*delete it"):
        ex._run_scan("fake", {}, 100, 10, _fake_setup, (10,), _no_range,
                     lambda hits, cex: {}, 1, out)
    assert os.path.exists(out + ".state")


def test_run_scan_resumes_a_well_formed_checkpoint(tmp_path):
    # the same fields unchanged, and the last range index, are resumed
    out = str(tmp_path / "s.json")
    key = ex._state_key("fake", {}, 100, 10)
    for pos, want in ((1, 100), (9, 20)):
        _save_state(out, key, **_bad_state({"pos": pos}))
        rep = ex._run_scan("fake", {}, 100, 10, _fake_setup, (10,), _tally_check,
                           lambda hits, cex: {"hits": hits}, 1, out)
        assert (rep.verdict, rep.candidates, rep.details["hits"]) == ("confirmed", want, want - 7)
        assert rep.seconds >= 1.5


def test_state_round_trip(tmp_path):
    out = str(tmp_path / "r.json")
    _save_state(out, "k1", delta_pos=5, candidates=10)
    assert _load_state(out, "k1") == {"key": "k1", "delta_pos": 5, "candidates": 10}
    assert _load_state(out, "other") is None
    _clear_state(out)
    assert _load_state(out, "k1") is None
    _clear_state(out)                       # idempotent
    with open(out + ".state", "w") as fh:
        fh.write("{broken")
    with pytest.raises(ValueError, match="r.json.state"):
        _load_state(out, "k1")              # refuse, never silently restart
    os.remove(out + ".state")


class _Interrupt(Exception):
    pass


def test_interrupted_scan_resumes(tmp_path, monkeypatch):
    full = verify_even_n3_classification({"q": 2})
    out = str(tmp_path / "even3.json")
    # two ranges at q = 2, of 36 and 28 L with 56 candidates each: a
    # checkpoint after the first
    monkeypatch.setattr(ex, "CHECKPOINT_EVERY", 100)
    brute = ex.is_permutation_brute
    calls, limit = 0, 40 * 56

    def counted(Q):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise _Interrupt
        return brute(Q)

    monkeypatch.setattr(ex, "is_permutation_brute", counted)
    with pytest.raises(_Interrupt):             # stops at L 40, in the second range
        verify_even_n3_classification({"q": 2}, out=out)
    assert os.path.exists(out + ".state")
    calls, limit = 0, float("inf")
    rep = verify_even_n3_classification({"q": 2}, out=out)
    assert calls == 28 * 56                     # resumed at the second range
    assert (rep.verdict, rep.candidates, rep.details) == \
        (full.verdict, full.candidates, full.details)
    assert not os.path.exists(out + ".state")


def test_even8_resume_completes(tmp_path):
    # the scan is one range of all 240 deltas, so a checkpoint of it can only
    # sit at its start; resumed from one, totals must line up with the known
    # full-run census and the saved seconds carry over
    out = str(tmp_path / "even8.json")
    ctx = build_tower(2, 1, 4)
    deltas = [d for d in range(1, ctx.N) if not ctx.in_subfield(d, "qn")]
    assert len(deltas) == 240
    key = ex._state_key("no-typec-even8", {"q": 2}, 240, 240)
    _save_state(out, key, pos=0, candidates=0, hits=0, seconds=12.5)
    rep = verify_no_typeC_even_8dim({"q": 2}, out=out)
    assert rep.verdict == "confirmed"
    assert rep.candidates == 240 * 65536
    assert rep.details["permutation_pairs"] == 3840
    assert rep.details["desarguesian_pairs"] == 3840
    assert rep.seconds >= 12.5
    assert not os.path.exists(out + ".state")


def _even8_coeffs(state) -> np.ndarray:
    """Reference: every coefficient row (a0, a1, a2, a3) in lexicographic
    order, as one block (not decoded from the row index)."""
    dom = state["dom"]
    return dom[np.indices((len(dom),) * 4).reshape(4, -1).T]


def _even8_ltab(state):
    """The L-value table of every coefficient row, built column by column
    from the coefficient block (not as the setup builds it)."""
    ctx, dom = state["ctx"], state["dom"]
    coeffs = _even8_coeffs(state)
    ltab = np.zeros((len(coeffs), len(dom)), dtype=np.int64)
    for i in range(4):
        pw = ctx.frob_table(ctx.e * i)[dom]
        ltab = ctx.vadd(ltab, ctx.vmul(coeffs[:, i, None], pw[None, :]))
    return ltab


def _even8_rows(state, ltab, delta):
    ctx = state["ctx"]
    return ex._even8_rows(ctx, ltab, ctx.vmul(int(delta), state["dom"]), state["norm"])


def _even8_hits0(state) -> np.ndarray:
    """Reference: the delta0 hit rows from one whole L-value table, the
    outer sum of the monomial tables a x^(q^i) read off frob_table, and one
    row sort of all of it."""
    ctx, dom = state["ctx"], state["dom"]
    qn = len(dom)
    ltab = np.zeros((1, qn), dtype=np.int64)
    for i in range(4):
        mono = ctx.vmul(dom[:, None], ctx.frob_table(ctx.e * i)[dom][None, :])
        ltab = ctx.vadd(ltab[:, None, :], mono[None, :, :]).reshape(-1, qn)
    return np.flatnonzero(_even8_rows(state, ltab, state["d0"]))


def _even8_maps(state, delta: int) -> list[np.ndarray]:
    """Reference: the coordinate maps a_i -> a~_i, as positions in F_{q^4},
    that send each L at delta to the L~ at delta0 with the same verdict.

    delta = b + c delta0 with c = (delta + delta^(q^4)) / (delta0 + delta0^(q^4))
    and b = delta + c delta0 in F_{q^4}.  At x = c^-1 y, L(x) + delta x is
    L~(y) + delta0 y with a~0 = (a0 + b) c^-1 and a~i = ai c^(-q^i), and
    y -> c^-1 y permutes F_{q^4}, so L permutes at delta exactly when L~
    does at delta0."""
    ctx, dom, d0 = state["ctx"], state["dom"], state["d0"]
    ne = ctx.n * ctx.e
    c = ctx.div(ctx.add(delta, ctx.frob(delta, ne)), ctx.add(d0, ctx.frob(d0, ne)))
    b = ctx.add(delta, ctx.mul(c, d0))
    ci = ctx.inv(c)
    pos = ctx.element_index("qn")
    return ([pos[ctx.vmul(ctx.vadd(dom, b), ci)]]
            + [pos[ctx.vmul(dom, ctx.frob(ci, ctx.e * i))] for i in range(1, 4)])


def _even8_base(state) -> np.ndarray:
    """The delta0 verdicts as a (q^4,)*4 grid, one axis per coefficient,
    from the scan's delta0 hit rows."""
    qn = len(state["dom"])
    base = np.zeros(qn ** 4, dtype=bool)
    base[state["hits0"]] = True
    return base.reshape((qn,) * 4)


def _even8_hits(state, base, delta: int) -> np.ndarray:
    """Reference: the verdict of every L at delta, in coefficient-row order,
    gathered from the delta0 verdicts through _even8_maps."""
    return base[np.ix_(*_even8_maps(state, delta))].reshape(-1)


def _even8_first(state, base, delta: int):
    """Reference: all L against one delta in row order, up to the first hit
    whose L is not a scalar multiple of X; the coefficients of the hit rows
    come from the scan's decoding."""
    hit = _even8_hits(state, base, int(delta))
    hits = np.flatnonzero(hit)
    coeffs = ex._coeff_rows(state["dom"], hits, 4)
    bad = np.flatnonzero(coeffs[:, 1:].any(axis=1))
    if not len(bad):
        return len(hit), len(hits), None
    k = int(bad[0])
    return int(hits[k]) + 1, len(hits), {"L_coeffs": coeffs[k].tolist(),
                                         "delta": int(delta)}


def _even8_ordered_pass(state):
    """Reference: every delta in order through _even8_first, up to the
    first counterexample, as (candidates, hits, counterexample)."""
    base = _even8_base(state)
    scanned = hits = 0
    for delta in ex._outside_deltas(state["ctx"]):
        n, h, cex = _even8_first(state, base, delta)
        scanned, hits = scanned + n, hits + h
        if cex is not None:
            return scanned, hits, cex
    return scanned, hits, None


def test_even8_vectorized_matches_brute():
    state = ex._even8_setup(2, 1)
    ctx, dom = state["ctx"], state["dom"]
    ltab = _even8_ltab(state)
    qn = len(dom)
    ident = QPoly.identity(ctx)
    deltas = [d for d in range(1, ctx.N) if not ctx.in_subfield(d, "qn")]
    rng = np.random.default_rng(17)
    rows = [0, 3 * qn ** 3] + [int(r) for r in rng.integers(0, qn ** 4, 10)]
    for row in rows:
        delta = int(rng.choice(deltas))
        # the row sort on a one-row L table: one verdict, True if it permutes
        one = _even8_rows(state, ltab[[row]], delta)
        assert one.shape == (1,)
        coeffs = [int(dom[(row // qn ** (3 - i)) % qn]) for i in range(4)]
        Q = q_from_pair(QPoly(ctx, coeffs), ident, delta)
        assert bool(one[0]) == is_permutation_brute(Q)


def _even8_bitmask_hits(state, ltab, delta):
    """Reference: the scan's former occupancy test.  Each row ORs one bit per
    Q-value (by its position in F_{q^4}) into an int64, so it needs q^4 <= 62;
    a row permutes F_{q^4} when all q^4 bits are set."""
    ctx, dom = state["ctx"], state["dom"]
    pos = ctx.element_index("qn")
    w = ctx.vadd(ltab, ctx.vmul(int(delta), dom)[None, :])
    occ = np.bitwise_or.reduce(1 << pos[state["norm"][w]], axis=1)
    return np.nonzero(occ == (1 << len(dom)) - 1)[0]


def test_even8_row_sort_matches_bitmask(monkeypatch):
    state = ex._even8_setup(2, 1)
    ctx, dom = state["ctx"], state["dom"]
    coeffs = _even8_coeffs(state)
    ltab = _even8_ltab(state)
    qn = len(dom)
    rows = np.arange(qn ** 4)
    # the row index decodes to the lexicographic coefficient block
    assert np.array_equal(ex._coeff_rows(dom, rows, 4), coeffs)
    for i in range(4):
        assert np.array_equal(coeffs[:, i], dom[(rows // qn ** (3 - i)) % qn])
    deltas = [d for d in range(1, ctx.N) if not ctx.in_subfield(d, "qn")]
    rng = np.random.default_rng(29)
    assert deltas == ex._outside_deltas(ctx).tolist() and state["d0"] == deltas[0]
    for delta in [deltas[0], *rng.choice(deltas[1:], 4, replace=False)]:
        want = _even8_bitmask_hits(state, ltab, delta)
        assert len(want) == 16 and not coeffs[want, 1:].any()     # L = a0 X
        # every reference hit is a hit and no other row is
        hit = np.zeros(qn ** 4, dtype=bool)
        hit[want] = True
        for block, n_hits in ((hit, 16), (~hit, 0)):
            sub = _even8_rows(state, ltab[block], delta)
            assert (len(sub), int(sub.sum())) == (block.sum(), n_hits)
    # the scan's delta0 hits are the reference's, and every delta counts as many
    want = _even8_bitmask_hits(state, ltab, deltas[0])
    assert np.array_equal(state["hits0"], want)
    assert ex._even8_check(state, 0, 240) == (240 * qn ** 4, 240 * 16, None)
    # a delta0 hit whose row is marked non-scalar is reported as the counterexample
    _marked(monkeypatch)
    marked = [int(dom[want[0] // qn ** 3]), 1, 0, 0]
    assert ex._even8_check(state, 0, 240) == (
        want[0] + 1, 16, {"L_coeffs": marked, "delta": deltas[0]})


def test_even8_reparametrized_hits_match_row_sort():
    # every delta read off the delta0 table through delta = b + c delta0,
    # against the row sort at that delta itself: all 15,728,640 verdicts
    state = ex._even8_setup(2, 1)
    ltab = _even8_ltab(state)
    base = _even8_base(state)
    deltas = ex._outside_deltas(state["ctx"])
    assert len(deltas) == 240 and state["d0"] == deltas[0]
    for delta in deltas:
        assert np.array_equal(_even8_hits(state, base, delta),
                              _even8_rows(state, ltab, delta)), delta


def _count_calls(log, name, fn):
    """fn, appending "name pid" to the file log at each call (forked workers
    included)."""
    def wrapper(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{name} {os.getpid()}\n")
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("jobs", [1, 2])
def test_even8_sorts_once_per_scan(tmp_path, monkeypatch, jobs):
    # setup, and with it every row sort, runs once in the parent; forked
    # workers read the inherited hits and never sort again.  At q = 2 the
    # inner table of the two trailing coefficients has 256 rows of 16
    # entries (4,096 <= _ROW_BLOCK; three would take 65,536), so the delta0
    # pass sorts once per block, one block for each of the 256 prefixes
    # (a0, a1)
    log = tmp_path / "calls"
    monkeypatch.setattr(ex, "_even8_setup", _count_calls(log, "setup", ex._even8_setup))
    monkeypatch.setattr(ex, "_even8_rows", _count_calls(log, "rows", ex._even8_rows))
    rep = verify_no_typeC_even_8dim({"q": 2}, jobs=jobs)
    assert (rep.verdict, rep.candidates) == ("confirmed", 15728640)
    assert rep.details["permutation_pairs"] == rep.details["desarguesian_pairs"] == 3840
    assert log.read_text().splitlines() == ([f"setup {os.getpid()}"]
                                            + [f"rows {os.getpid()}"] * 256)


@pytest.mark.parametrize("row_block, prefix", [(ex._ROW_BLOCK, 2), (1 << 16, 1),
                                               (1 << 8, 3)])
def test_even8_blocked_hits_match_one_table(tmp_path, monkeypatch, row_block, prefix):
    # the delta0 hits of the blocked pass are byte for byte those of one
    # whole L-value table, whether a block holds the L of 1, 2 or 3 leading
    # coefficients (q^(4 prefix) blocks of one row sort each)
    state = ex._even8_setup(2, 1)
    want = _even8_hits0(state)
    assert len(want) == 16
    log = tmp_path / "calls"
    monkeypatch.setattr(ex, "_ROW_BLOCK", row_block)
    monkeypatch.setattr(ex, "_even8_rows", _count_calls(log, "rows", ex._even8_rows))
    got = ex._even8_setup(2, 1)["hits0"]
    assert len(log.read_text().splitlines()) == 16 ** prefix
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_even8_setup_peak_memory():
    # no table grows with the number of L: the whole L-value table of
    # 65,536 x 16 entries took a 26 MB peak
    build_tower(2, 1, 4)
    tracemalloc.start()
    try:
        ex._even8_setup(2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_even8_and_hermite_build_no_frobenius_table(monkeypatch, c213):
    # the powers x^(q^i) come from vpow on F_{q^4} (F_{q^3}), and the norm
    # x^(1+q^4) from vpow on the whole field: no whole-field frob_table is
    # built or cached; frob_table stays the reference
    state = ex._even8_setup(2, 1)
    ctx = state["ctx"]
    amb = np.arange(ctx.N)
    assert np.array_equal(state["norm"], ctx.vmul(amb, ctx.frob_table(ctx.n * ctx.e)[amb]))
    deltas = ex._outside_deltas(c213)
    want = ex._hermite_brute(c213, deltas)

    def no_table(self, k):
        raise AssertionError(f"frob_table({k}) called")

    monkeypatch.setattr(type(ctx), "frob_table", no_table)
    assert np.array_equal(ex._even8_setup(2, 1)["hits0"], state["hits0"])
    assert np.array_equal(ex._hermite_brute(c213, deltas), want)


def test_even8_preconditions():
    with pytest.raises(ValueError):
        verify_no_typeC_even_8dim({"q": 3})
    with pytest.raises(ValueError):
        verify_no_typeC_even_8dim({"q": 4})        # over the candidate budget


def test_even8_budget_refuses_before_the_tower(monkeypatch):
    # q^16 (q^8 - q^4) comes from q alone: no tower is built to refuse
    def no_tower(*args):
        raise AssertionError("tower built before the budget test")

    monkeypatch.setattr(ex, "build_tower", no_tower)
    for q in (4, 8, 16):
        with pytest.raises(ValueError, match="search space exceeds the desk-scale budget"):
            verify_no_typeC_even_8dim({"q": q})


def test_even8_maps_are_bijections_fixing_zero():
    # the two facts the delta0 shortcut rests on: every coordinate map
    # permutes the positions of F_{q^4}, and a~i = 0 exactly when ai = 0
    # for i = 1, 2, 3, so the scalar L (a1 = a2 = a3 = 0) map to themselves
    state = ex._even8_setup(2, 1)
    dom = state["dom"]
    zero = int(np.flatnonzero(dom == 0)[0])
    for delta in ex._outside_deltas(state["ctx"]):
        maps = _even8_maps(state, delta)
        assert len(maps) == 4
        for i, m in enumerate(maps):
            assert np.array_equal(np.sort(m), np.arange(len(dom))), (delta, i)
            if i:
                assert m[zero] == zero, (delta, i)


def _marked(monkeypatch, k: int = 0):
    """Patch the hit-row coefficient decoding of _even8_check (n = 4; the
    set-up decodes fewer digits): every row whose leading digit (the
    position of a0) is at least k decodes with a1 = 1, non-scalar."""
    decode = ex._coeff_rows

    def marked(dom, idx, n):
        coeffs = decode(dom, idx, n)
        if n == 4:
            coeffs[idx // len(dom) ** (n - 1) >= k, 1] = 1
        return coeffs

    monkeypatch.setattr(ex, "_coeff_rows", marked)


def test_even8_check_matches_the_ordered_pass(monkeypatch):
    # the one-range delta0 check against the per-delta gather at every delta
    # in order, with the real coefficient rows (no counterexample anywhere)
    # and with the rows of leading digit >= k marked non-scalar (one at
    # every delta, so the ordered pass stops at delta0)
    state = ex._even8_setup(2, 1)
    assert ex._even8_check(state, 0, 240) == _even8_ordered_pass(state)
    for k in (0, 9):
        with monkeypatch.context() as mp:
            _marked(mp, k)
            assert ex._even8_check(state, 0, 240) == _even8_ordered_pass(state)


@pytest.mark.parametrize("jobs", [1, 2])
def test_even8_confirmed_scan_gathers_nothing(tmp_path, monkeypatch, jobs):
    # no per-delta work: one check call over all 240 deltas, in the parent at
    # any job count, and no checkpoint written even with a report path and a
    # low interval
    log = tmp_path / "calls"
    check = ex._even8_check

    def logged(state, lo, hi):
        with open(log, "a") as fh:
            fh.write(f"check {lo} {hi} {os.getpid()}\n")
        return check(state, lo, hi)

    monkeypatch.setattr(ex, "_even8_check", logged)
    monkeypatch.setattr(ex, "CHECKPOINT_EVERY", 1)
    monkeypatch.setattr(ex, "_save_state", _count_calls(log, "save", ex._save_state))
    rep = verify_no_typeC_even_8dim({"q": 2}, jobs=jobs, out=str(tmp_path / "e.json"))
    assert (rep.verdict, rep.candidates) == ("confirmed", 15728640)
    assert rep.details["permutation_pairs"] == rep.details["desarguesian_pairs"] == 3840
    assert log.read_text().splitlines() == [f"check 0 240 {os.getpid()}"]


def test_even8_counterexample_at_the_first_delta_scanned(tmp_path, monkeypatch):
    # with every row marked non-scalar, every delta has a counterexample: the
    # scan stops at delta0, at its first row-sort hit.  A checkpoint saved
    # mid-scan under the former one-delta ranges has another key, so it is
    # not resumed, and the finished scan removes it
    state = ex._even8_setup(2, 1)
    ltab = _even8_ltab(state)
    delta = ex._outside_deltas(state["ctx"])[0]
    first = int(np.flatnonzero(_even8_rows(state, ltab, delta))[0])
    marked = _even8_coeffs(state)[first].tolist()
    marked[1] = 1
    _marked(monkeypatch)
    out = str(tmp_path / "even8.json")
    _save_state(out, ex._state_key("no-typec-even8", {"q": 2}, 240, 1),
                pos=7, candidates=7 * 65536, hits=7 * 16, seconds=0.0)
    for path in (None, out):
        rep = verify_no_typeC_even_8dim({"q": 2}, out=path)
        assert rep.verdict == "counterexample"
        assert rep.counterexample == {"L_coeffs": marked, "delta": delta}
        assert rep.candidates == first + 1
        assert rep.details["permutation_pairs"] == 16
        assert rep.details["desarguesian_pairs"] is None
    assert not os.path.exists(out + ".state")


@pytest.mark.parametrize("k", [1, 7, 15])
def test_even8_counterexample_in_a_later_block(monkeypatch, k):
    # with only the rows of leading digit >= k marked non-scalar, the first
    # marked delta0 hit is L = a0 X with a0 = dom[k], row k q^12, in block
    # 16 k of the delta0 pass
    state = ex._even8_setup(2, 1)
    _marked(monkeypatch, k)
    rep = verify_no_typeC_even_8dim({"q": 2})
    assert rep.verdict == "counterexample"
    assert rep.candidates == k * 2 ** 12 + 1
    assert rep.counterexample == {"L_coeffs": [int(state["dom"][k]), 1, 0, 0],
                                  "delta": state["d0"]}
    assert rep.details["permutation_pairs"] == 16


# -- dispatch and reports --------------------------------------------------------------------


def test_unknown_experiment():
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec("frobnicate"))


def test_run_experiment_writes_report(tmp_path):
    out = str(tmp_path / "hermite.json")
    rep = run_experiment(ExperimentSpec("hermite-coefficient", {"q": 2}, out=out))
    assert rep.verdict == "confirmed"
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["name"] == "hermite-coefficient"
    assert doc["verdict"] == "confirmed"
    assert doc["candidates"] == 56
    assert os.path.exists(str(tmp_path / "hermite.csv"))


def test_report_write_csv_shape(tmp_path):
    # a payload of more than one key holds commas: the summary still has one
    # field per column
    cex = {"L_coeffs": [1, 2], "delta": 5}
    rep = VerdictReport("demo", {"q": 3}, "counterexample", cex, 7, 0.25,
                        {"zeta": 2, "alpha": None})
    path = str(tmp_path / "demo.json")
    report_write(rep, path)
    with open(str(tmp_path / "demo.csv"), newline="") as fh:
        header, row = list(csv.reader(fh))
    assert header == ["name", "verdict", "candidates", "seconds", "alpha", "zeta",
                      "counterexample"]
    assert len(row) == len(header)
    assert row[:6] == ["demo", "counterexample", "7", "0.250", "None", "2"]
    assert json.loads(row[6]) == cex
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["counterexample"] == cex
