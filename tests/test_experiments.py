"""Exhaustive-verification experiments: verdicts, determinism, resume logic,
and the vectorized scanner's agreement with the brute-force route."""

import json
import os

import numpy as np
import pytest

import spreadlab.experiments as ex
from spreadlab import (ExperimentSpec, QPoly, build_tower, even3_admissible,
                       is_permutation_brute, planar_family_check, q_from_pair,
                       run_experiment)
from spreadlab.experiments import (VerdictReport, _clear_state, _load_state,
                                   _save_state, even3_perm_predicate, report_write,
                                   verify_even_n3_classification, verify_hermite,
                                   verify_no_typeC_even_8dim, verify_no_typeC_odd,
                                   verify_planar_dichotomy)


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
    with pytest.raises(ValueError):
        verify_no_typeC_odd({"q": 3, "n": 4})      # 81^4 polynomials: over budget
    with pytest.raises(ValueError, match=r"unknown parameter\(s\) k, sample"):
        verify_no_typeC_odd({"q": 3, "n": 2, "sample": 5, "k": 9})


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


# -- Hermite coefficient ---------------------------------------------------------------


def test_hermite_confirmed(c213):
    rep = verify_hermite({"q": 2})
    assert rep.verdict == "confirmed"
    assert rep.candidates == 56
    # spot-check the identity directly on a few deltas
    outside = [d for d in range(1, c213.N) if not c213.in_subfield(d, "qn")]
    for d in outside[:3]:
        assert ex.hermite_coefficient_check(c213, d)


def test_hermite_guards(c213, c313):
    with pytest.raises(ValueError):
        ex.hermite_coefficient_check(c213, 1)          # delta inside F_8
    with pytest.raises(ValueError):
        ex.hermite_coefficient_check(c313, c313.find_deltas()[0])   # odd q


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


def test_planar_fast_path_matches_reference():
    # the scan's precomputed checker against semifield.planar_family_check,
    # on the whole ab = 0 boundary (planar) and 200 seeded ab != 0 pairs
    state = ex._planar_setup(3, 1, 3, 1)
    ctx, w = state["ctx"], state["w"]
    N = ctx.N
    rng = np.random.default_rng(11)
    pairs = ([(0, 0)] + [(a, 0) for a in range(1, N)] + [(0, b) for b in range(1, N)]
             + [tuple(int(x) for x in rng.integers(1, N, 2)) for _ in range(200)])
    assert len(pairs) == 1457 + 200
    for a, b in pairs:
        assert ex._planar(state, a, b) == planar_family_check(ctx, a, b, w, 1)


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


def _fake_check(size, item):
    # items 3 and 5 hit at their fifth candidate; the others cover size each
    if item in (3, 5):
        return 5, 1, {"item": item}
    return size, 0, None


@pytest.mark.parametrize("jobs", [1, 2])
def test_first_hit_accounting(jobs):
    rep = ex._run_scan("fake", {}, list(range(8)), _fake_setup, (10,), _fake_check,
                       lambda hits, cex: {"hits": hits}, jobs, None)
    assert rep.verdict == "counterexample"
    assert rep.counterexample == {"item": 3}
    assert rep.candidates == 3 * 10 + 4 + 1
    assert rep.details == {"hits": 1}


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
    # 56 candidates per item: a checkpoint after every second item
    monkeypatch.setattr(ex, "CHECKPOINT_EVERY", 100)
    brute = ex.is_permutation_brute
    calls, limit = 0, 20 * 56

    def counted(Q):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise _Interrupt
        return brute(Q)

    monkeypatch.setattr(ex, "is_permutation_brute", counted)
    with pytest.raises(_Interrupt):             # stops in item 20, after 20 items
        verify_even_n3_classification({"q": 2}, out=out)
    assert os.path.exists(out + ".state")
    calls, limit = 0, float("inf")
    rep = verify_even_n3_classification({"q": 2}, out=out)
    assert calls == (64 - 20) * 56              # resumed at item 20
    assert (rep.verdict, rep.candidates, rep.details) == \
        (full.verdict, full.candidates, full.details)
    assert not os.path.exists(out + ".state")


def test_even8_resume_completes(tmp_path):
    # resume four deltas from the end of a fabricated checkpoint; totals must
    # line up with the known full-run census
    out = str(tmp_path / "even8.json")
    ctx = build_tower(2, 1, 4)
    deltas = [d for d in range(1, ctx.N) if not ctx.in_subfield(d, "qn")]
    key = ex._state_key("no-typec-even8", {"q": 2}, deltas)
    _save_state(out, key, pos=236, candidates=236 * 65536, hits=236 * 16,
                seconds=12.5)
    rep = verify_no_typeC_even_8dim({"q": 2}, out=out)
    assert rep.verdict == "confirmed"
    assert rep.candidates == 240 * 65536
    assert rep.details["permutation_pairs"] == 3840
    assert rep.details["desarguesian_pairs"] == 3840
    assert rep.seconds >= 12.5
    assert not os.path.exists(out + ".state")


def _even8_ltab(state):
    """The L-value table of the scan's coefficient rows, built column by
    column from the coefficient block (not as the setup builds it)."""
    ctx, dom, coeffs = state["ctx"], state["dom"], state["coeffs"]
    ltab = np.zeros((len(coeffs), len(dom)), dtype=np.int64)
    for i in range(4):
        pw = ctx.frob_table(ctx.e * i)[dom]
        ltab = ctx.vadd(ltab, ctx.vmul(coeffs[:, i, None], pw[None, :]))
    return ltab


def _even8_rows(state, ltab, delta):
    return ex._even8_rows(state["ctx"], ltab, state["dom"], state["norm"], delta)


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


def test_even8_row_sort_matches_bitmask():
    state = ex._even8_setup(2, 1)
    ctx, dom, coeffs = state["ctx"], state["dom"], state["coeffs"]
    ltab = _even8_ltab(state)
    qn = len(dom)
    rows = np.arange(qn ** 4)
    # the coefficient block is the lexicographic order the row index encodes
    for i in range(4):
        assert np.array_equal(coeffs[:, i], dom[(rows // qn ** (3 - i)) % qn])
    deltas = [d for d in range(1, ctx.N) if not ctx.in_subfield(d, "qn")]
    rng = np.random.default_rng(29)
    for delta in rng.choice(deltas, 4, replace=False):
        want = _even8_bitmask_hits(state, ltab, delta)
        assert len(want) == 16 and not coeffs[want, 1:].any()     # L = a0 X
        assert ex._even8_check(state, delta) == (qn ** 4, 16, None)
        # every reference hit is a hit and no other row is
        hit = np.zeros(qn ** 4, dtype=bool)
        hit[want] = True
        for block, n_hits in ((hit, 16), (~hit, 0)):
            sub = _even8_rows(state, ltab[block], delta)
            assert (len(sub), int(sub.sum())) == (block.sum(), n_hits)
        # a hit whose row is marked non-scalar is reported as the counterexample
        marked = coeffs.copy()
        marked[:, 1] = 1
        assert ex._even8_check(dict(state, coeffs=marked), delta) == (
            want[0] + 1, 16, {"L_coeffs": marked[want[0]].tolist(), "delta": int(delta)})


def test_even8_reparametrized_hits_match_row_sort():
    # every delta read off the delta0 table through delta = b + c delta0,
    # against the row sort at that delta itself: all 15,728,640 verdicts
    state = ex._even8_setup(2, 1)
    ltab = _even8_ltab(state)
    deltas = ex._outside_deltas(state["ctx"])
    assert len(deltas) == 240 and state["d0"] == deltas[0]
    for delta in deltas:
        assert np.array_equal(ex._even8_hits(state, delta),
                              _even8_rows(state, ltab, delta)), delta


def test_even8_counterexample_off_delta0():
    # with every row marked non-scalar, the first hit at delta != delta0 is
    # the row sort's first hit at that delta
    state = ex._even8_setup(2, 1)
    ltab = _even8_ltab(state)
    marked = state["coeffs"].copy()
    marked[:, 1] = 1
    deltas = ex._outside_deltas(state["ctx"])
    rng = np.random.default_rng(31)
    for delta in rng.choice(deltas[1:], 8, replace=False):
        first = int(np.flatnonzero(_even8_rows(state, ltab, delta))[0])
        assert ex._even8_check(dict(state, coeffs=marked), delta) == (
            first + 1, 16, {"L_coeffs": marked[first].tolist(), "delta": int(delta)})


@pytest.mark.parametrize("jobs", [1, 2])
def test_even8_sorts_once_per_scan(tmp_path, monkeypatch, jobs):
    # setup, and with it the only row sort, runs once in the parent; forked
    # workers read the inherited table and never sort again
    log = tmp_path / "calls"
    setup, rows = ex._even8_setup, ex._even8_rows

    def logged(name, fn):
        def wrapper(*args):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ex, "_even8_setup", logged("setup", setup))
    monkeypatch.setattr(ex, "_even8_rows", logged("rows", rows))
    rep = verify_no_typeC_even_8dim({"q": 2}, jobs=jobs)
    assert (rep.verdict, rep.candidates) == ("confirmed", 15728640)
    assert rep.details["permutation_pairs"] == rep.details["desarguesian_pairs"] == 3840
    assert log.read_text().splitlines() == [f"setup {os.getpid()}",
                                            f"rows {os.getpid()}"]


def test_even8_preconditions():
    with pytest.raises(ValueError):
        verify_no_typeC_even_8dim({"q": 3})
    with pytest.raises(ValueError):
        verify_no_typeC_even_8dim({"q": 4})        # over the candidate budget


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
    rep = VerdictReport("demo", {"q": 3}, "counterexample",
                        {"a": 1}, 7, 0.25, {"zeta": 2})
    path = str(tmp_path / "demo.json")
    report_write(rep, path)
    with open(str(tmp_path / "demo.csv")) as fh:
        header, row = fh.read().strip().split("\n")
    assert header == "name,verdict,candidates,seconds,zeta,counterexample"
    assert row.startswith("demo,counterexample,7,0.250,2,")
    assert json.loads(row.split(",", 5)[5]) == {"a": 1}
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["counterexample"] == {"a": 1}
