"""Acceptance gate: one test per headline claim, each timed against its
stated budget and reporting a PASS line with the measured runtime.

Every test here is exact — zero tolerance on counts and verdicts.  A failure
in this file means either a performance regression or, far worse, a
mathematical regression in the library.
"""

import contextlib
import sys
import time

import numpy as np
import pytest

from spreadlab import (DOPoly, QPoly, QuadSpace, RtcsSpec, build_even_n3,
                       build_typeC, build_typeH, check_key_lemma, classify_char2,
                       count_zeros, even3_admissible, is_permutation_brute,
                       is_permutation_via_rank, is_planar_2to1, is_planar_direct,
                       kernel_dim, kernel_of_spread, middle_nucleus, normalize,
                       nucleus, planar_to_presemifield, psi_image_check,
                       q_from_pair, rtcs_build, rtcs_check, symplectic_check)
from spreadlab.experiments import (verify_even_n3_classification, verify_hermite,
                                   verify_no_typeC_even_8dim, verify_no_typeC_odd,
                                   verify_planar_dichotomy)


@pytest.fixture
def passline(request):
    """Emit one PASS line per criterion straight to the terminal (outside
    pytest's capture) and enforce the runtime budget."""
    plugins = request.config.pluginmanager
    tr = plugins.get_plugin("terminalreporter")
    capman = plugins.get_plugin("capturemanager")

    def emit(label: str, dt: float, budget: float) -> None:
        line = f"PASS {label} ({dt:.2f}s, budget {budget:.0f}s)"
        if tr is not None:
            # with fd capture on, a write to the terminal would land in the
            # test's captured output and show only if the test failed
            with (capman.global_and_fixture_disabled() if capman is not None
                  else contextlib.nullcontext()):
                tr.ensure_newline()
                tr.write_line(line)
        else:
            print(line, file=sys.__stdout__, flush=True)
        assert dt < budget

    return emit


def test_criterion_1_typec_spread(c313, passline):
    t0 = time.perf_counter()
    S = build_typeC(c313, 1, c313.find_deltas()[0])
    assert S.verified and len(S.components) == 28
    assert all(len(C.elements) == 27 for C in S.components)
    assert sum(len(C.elements) - 1 for C in S.components) == 728
    assert kernel_of_spread(S) == 3
    passline("criterion 1: typec spread at (3,3), 28 components, kernel 3",
          time.perf_counter() - t0, 5.0)


def test_criterion_2_typeh_all_pairs(c313, passline):
    t0 = time.perf_counter()
    deltas = c313.find_deltas()
    etas = c313.find_etas(1)
    assert len(deltas) == 26 and len(etas) == 28
    for d in deltas:
        for h in etas:
            S = build_typeH(c313, 1, int(d), int(h))
            assert S.verified and len(S.components) == 28
    passline(f"criterion 2: typeh spreads for all {len(deltas) * len(etas)} "
          "(delta, eta) pairs", time.perf_counter() - t0, 30.0)


def test_criterion_3_even3_exact(c213, passline):
    t0 = time.perf_counter()
    outside = [d for d in range(1, c213.N) if not c213.in_subfield(d, "qn")]
    admissible = [d for d in outside if even3_admissible(c213, d)]
    assert len(admissible) == 8
    for d in admissible:
        S = build_even_n3(c213, d)
        assert S.verified and len(S.components) == 9
        assert symplectic_check(S, d)
    T, I = QPoly.trace_poly(c213), QPoly.identity(c213)
    for d in outside:
        if d in admissible:
            continue
        with pytest.raises(ValueError):
            build_even_n3(c213, d)
        assert not is_permutation_brute(q_from_pair(T, I, d))
    passline("criterion 3: even-q n=3 spreads, 8 admissible + 48 rejected deltas",
          time.perf_counter() - t0, 1.0)


def test_criterion_4_no_typec_odd(passline):
    t0 = time.perf_counter()
    rep = verify_no_typeC_odd({"q": 3, "n": 2})
    assert rep.verdict == "confirmed" and rep.counterexample is None
    assert rep.candidates == 648
    passline("criterion 4: no type C spread at odd q=3, n=2 (648 candidates)",
          time.perf_counter() - t0, 60.0)


def test_criterion_5_no_typec_even_8dim(passline):
    t0 = time.perf_counter()
    one = verify_no_typeC_even_8dim({"q": 2}, jobs=1)
    dt1 = time.perf_counter() - t0
    assert one.verdict == "confirmed" and one.counterexample is None
    assert one.candidates == 240 * 65536 == 15728640
    assert one.details["permutation_pairs"] == 3840     # all scalar rows
    t0 = time.perf_counter()
    eight = verify_no_typeC_even_8dim({"q": 2}, jobs=8)
    dt8 = time.perf_counter() - t0
    assert (eight.verdict, eight.candidates) == (one.verdict, one.candidates)
    assert eight.details["permutation_pairs"] == one.details["permutation_pairs"]
    passline("criterion 5: no type C spread of F_(2^8), single worker", dt1, 600.0)
    passline("criterion 5: no type C spread of F_(2^8), 8 workers", dt8, 120.0)


def test_criterion_6_even3_classification(passline):
    t0 = time.perf_counter()
    rep = verify_even_n3_classification({"q": 2})
    assert rep.verdict == "confirmed"
    assert rep.candidates == 3584
    assert rep.details["permutation_pairs"] == 448
    passline("criterion 6: even-q n=3 permutation classification "
          "(3584 pairs, 448 permutations)", time.perf_counter() - t0, 60.0)


def test_criterion_7_hermite(passline):
    t0 = time.perf_counter()
    rep = verify_hermite({"q": 2})
    assert rep.verdict == "confirmed" and rep.candidates == 56
    passline("criterion 7: Hermite coefficient closed form, 56/56 deltas",
          time.perf_counter() - t0, 1.0)


def test_criterion_8_planar_dichotomy(passline):
    t0 = time.perf_counter()
    rep = verify_planar_dichotomy({"q": 3, "m": 3, "k": 1, "sample": 10_000},
                                  seed=0)
    assert rep.verdict == "confirmed"
    assert rep.candidates == 2 * 729 - 1 + 10_000
    passline("criterion 8: planarity dichotomy, full boundary + 10^4 samples",
          time.perf_counter() - t0, 600.0)


def test_criterion_9a_planarity_routes_agree(c313, passline):
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    dom = c313.subfield_elements("qn")
    for _ in range(1000):
        f = DOPoly(c313, {(i, j): int(rng.choice(dom))
                          for i in range(3) for j in range(i, 3)})
        assert is_planar_direct(f) == is_planar_2to1(f)
    passline("criterion 9a: planarity via differences == via 2-to-1 counts, "
          "10^3 forms at (3,3)", time.perf_counter() - t0, 120.0)


def test_criterion_9b_permutation_routes_agree(c214, passline):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    dom = c214.subfield_elements("qn")
    for _ in range(1000):
        f = DOPoly(c214, {(i, j): int(rng.choice(dom))
                          for i in range(4) for j in range(i, 4)})
        assert is_permutation_via_rank(f) == is_permutation_brute(f)
    passline("criterion 9b: permutation via rank parity == brute, 10^3 forms "
          "at (2,4)", time.perf_counter() - t0, 120.0)


def test_criterion_9c_kernel_dim_agrees(c313, c214, passline):
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    for ctx in (c313, c214):
        dom = ctx.subfield_elements("qn")
        q = ctx.q
        for _ in range(1000):
            L = QPoly(ctx, [int(rng.choice(dom)) for _ in range(ctx.n)])
            zeros = int(np.count_nonzero(L.values() == 0))
            k = 0
            while q ** k < zeros:
                k += 1
            assert q ** k == zeros and kernel_dim(L) == k
    passline("criterion 9c: kernel dimension via matrix rank == brute zero "
          "count, 10^3 maps at (3,3) and (2,4)", time.perf_counter() - t0, 120.0)


def test_criterion_9d_zero_count_formula(c214, passline):
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    dom = c214.subfield_elements("qn")
    q = 2
    for trial in range(1000):
        if trial % 2:
            S = QuadSpace.from_coords(
                c214, {(i, j): int(rng.integers(0, 2))
                       for i in range(4) for j in range(i, 4)}, "qn")
        else:
            f = DOPoly(c214, {(i, j): int(rng.choice(dom))
                              for i in range(4) for j in range(i, 4)})
            S = QuadSpace.from_trace(c214, f, int(rng.choice(dom[1:])))
        info = classify_char2(S)
        eps = {"hyperbolic": 1, "elliptic": -1, "parabolic": 0}[info["type"]]
        n0 = q ** (S.dim - 1) + eps * (q - 1) * q ** (info["r"] + info["s"] - 1)
        assert count_zeros(S) == n0
    passline("criterion 9d: char-2 zero counts match the classification "
          "formula, 10^3 forms", time.perf_counter() - t0, 120.0)


def test_criterion_9e_key_lemma(c313, c213, passline):
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    for ctx in (c313, c213):
        dom = ctx.subfield_elements("qn")
        outside = np.array([x for x in range(1, ctx.N)
                            if not ctx.in_subfield(x, "qn")])
        for _ in range(100):
            L = QPoly(ctx, [int(rng.choice(dom)) for _ in range(ctx.n)])
            rep = check_key_lemma(ctx, L, int(rng.choice(outside)))
            assert rep.ok
    passline("criterion 9e: orbit/polynomial equivalences, 10^2 random (L, "
          "delta) at (3,3) and (2,3)", time.perf_counter() - t0, 120.0)


def test_criterion_9f_psi_image(c312, passline):
    t0 = time.perf_counter()
    assert psi_image_check(c312)
    passline("criterion 9f: pair-map image is the square-discriminant locus, "
          "exhaustive at (3,2)", time.perf_counter() - t0, 120.0)


def test_criterion_10_rtcs_and_nucleus_dichotomy(c311, c313, passline):
    t0 = time.perf_counter()
    # Dickson data at q = 3: g = 0, f = m z with m the least nonsquare
    tq = next(int(x) for x in c311.subfield_elements(2)
              if not c311.in_subfield(int(x), "q"))
    m = c311.least_nonsquare("q")
    spec = RtcsSpec(c311, tq, QPoly.zero(c311, "q", 1),
                    QPoly(c311, {0: m}, "q", 1))
    assert rtcs_check(spec)
    S = rtcs_build(spec)
    assert not S.has_zero_divisors()
    assert middle_nucleus(S) >= 3
    # nucleus dichotomy for every planar L(x)^2 - w x^2 built from a twisted
    # component: L = X^(q^i), w = delta^-2
    for i in (1, 2):
        for d in c313.find_deltas():
            w = c313.inv(c313.mul(int(d), int(d)))
            assert not c313.is_square(w, "qn")
            Q = DOPoly(c313, {(i, i): 1, (0, 0): c313.neg(w)})
            assert is_planar_2to1(Q)
            P = normalize(planar_to_presemifield(Q), 1)
            assert nucleus(P) in (3, 27)
    passline("criterion 10: Dickson semifield checks and nucleus dichotomy "
          "over 52 planar instances", time.perf_counter() - t0, 120.0)
