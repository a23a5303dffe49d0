"""Spread constructions, their verification, kernels, and the
orbit/polynomial correspondence."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spreadlab
import spreadlab.spread as spread_mod
from spreadlab import (DOPoly, FieldCtx, KeyLemmaReport, QPoly, Spread, Subspace,
                       build_even_n3, build_typeC,
                       build_typeH, check_key_lemma, component_from_pair,
                       even3_admissible, gcd_condition, is_partial_spread,
                       is_spread, is_permutation_brute, is_permutation_via_rank,
                       kernel_of_spread, orbit,
                       q_from_component, q_from_pair, q_from_pairs, symplectic_check,
                       build_tower)
from spreadlab.linpoly import nullspace, rref


@pytest.fixture(scope="session")
def even3_deltas(c213):
    return [d for d in range(c213.N) if even3_admissible(c213, d)]


@pytest.fixture(scope="session")
def spread_c313(c313):
    return build_typeC(c313, 1, c313.find_deltas()[0])


@pytest.fixture(scope="session")
def spread_even3(c213, even3_deltas):
    return build_even_n3(c213, even3_deltas[0])


# -- components -----------------------------------------------------------------


def test_component_identity_pair(c313):
    delta = c313.find_deltas()[0]
    W = component_from_pair(QPoly.identity(c313), QPoly.zero(c313), delta)
    assert np.array_equal(W.elements, c313.subfield_elements("qn"))
    assert W.dim == 3


def test_component_twisted(c313):
    delta = c313.find_deltas()[0]
    L = QPoly.monomial(c313, 1)
    W = component_from_pair(QPoly.identity(c313), L, delta)
    want = {c313.add(int(x), c313.mul(delta, L(int(x))))
            for x in c313.subfield_elements("qn")}
    assert set(map(int, W.elements)) == want
    # meets F_{q^n} only in ker L = 0
    mid = set(map(int, c313.subfield_elements("qn")))
    assert set(map(int, W.elements)) & mid == {0}


def test_component_trace_pair(c213, even3_deltas):
    delta = even3_deltas[0]
    T = QPoly.trace_poly(c213)
    W = component_from_pair(T, QPoly.identity(c213), delta)
    want = {c213.add(T(int(x)), c213.mul(delta, int(x)))
            for x in c213.subfield_elements("qn")}
    assert set(map(int, W.elements)) == want


def test_component_rejects_noninjective(c313):
    delta = c313.find_deltas()[0]
    with pytest.raises(ValueError):
        component_from_pair(QPoly.trace_poly(c313), QPoly.zero(c313), delta)


def test_component_rejects_inner_delta(c313):
    with pytest.raises(ValueError):
        component_from_pair(QPoly.identity(c313), QPoly.monomial(c313, 1), 2)


# -- orbits and spread predicates ----------------------------------------------------


def test_desarguesian_orbit(c313):
    delta = c313.find_deltas()[0]
    W = component_from_pair(QPoly.identity(c313), QPoly.zero(c313), delta)
    comps = orbit(W, "beta")
    assert len(comps) == 28
    assert is_spread(comps)
    S = Spread(c313, np.stack([C.elements for C in comps]), "custom", verified=True)
    assert kernel_of_spread(S) == 27


def test_orbit_sizes(c313):
    delta = c313.find_deltas()[0]
    W = component_from_pair(QPoly.identity(c313), QPoly.monomial(c313, 1), delta)
    assert len(orbit(W, "beta2")) == 14
    assert len(orbit(W, "beta")) == 28
    with pytest.raises(ValueError):
        orbit(W, "gamma")


@pytest.mark.parametrize("tower", [(3, 1, 3), (5, 1, 3)])
def test_orbit_is_the_power_images(tower):
    # the i-th component is g^i W, computed here with scalar arithmetic
    ctx = build_tower(*tower)
    W = component_from_pair(QPoly.identity(ctx), QPoly.monomial(ctx, 1),
                            ctx.find_deltas()[0])
    for kind, g in (("beta", ctx.beta), ("beta2", ctx.mul(ctx.beta, ctx.beta))):
        comps = orbit(W, kind)
        for i, C in enumerate(comps):
            gi = ctx.pow(g, i)
            assert C.elements.tolist() == sorted(ctx.mul(gi, int(x)) for x in W.elements)


@pytest.mark.parametrize("rows", [1, 7, 10])
def test_orbit_blocks_cross_and_close_at_the_bound(c513, monkeypatch, rows):
    # beta at (5,3): M = q^n + 1 = 126 rows close the orbit; with 7 rows per
    # block row 126 opens a block of its own, with 1 or 10 it does not
    W = component_from_pair(QPoly.identity(c513), QPoly.monomial(c513, 1),
                            c513.find_deltas()[0])
    want = [C.elements.tobytes() for C in orbit(W, "beta")]
    monkeypatch.setattr(spread_mod, "_BLOCK", rows * W.elements.size)
    assert [C.elements.tobytes() for C in orbit(W, "beta")] == want
    assert len(want) == 126


def test_orbit_closes_before_the_bound(c312):
    # F_{q^n} is fixed by the elements of order 2(q - 1) in <beta>, so at
    # (3,2) its beta-orbit has (q^2 + 1)/2 = 5 of the M = 10 rows
    W = Subspace(c312, elements=c312.subfield_elements("qn"))
    comps = orbit(W, "beta")
    assert len(comps) == 5
    for i, C in enumerate(comps):
        gi = c312.pow(c312.beta, i)
        assert C.elements.tolist() == sorted(c312.mul(gi, int(x)) for x in W.elements)


def test_orbit_that_does_not_close_is_an_error(c313, monkeypatch):
    # multiply every row's power of beta by gamma, which lies outside
    # <beta> F_q^*: no row up to M returns to W
    W = component_from_pair(QPoly.identity(c313), QPoly.monomial(c313, 1),
                            c313.find_deltas()[0])
    real = spread_mod._images
    monkeypatch.setattr(spread_mod, "_images", lambda ctx, table, g, k=0:
                        real(ctx, table, ctx.vmul(g, ctx.gamma), k))
    with pytest.raises(RuntimeError, match="did not close"):
        orbit(W, "beta")


def test_row_table_checks_like_unverified_subspace(c313):
    W = component_from_pair(QPoly.identity(c313), QPoly.monomial(c313, 1),
                            c313.find_deltas()[0])
    els = W.elements
    outside = int(np.setdiff1d(np.arange(c313.N), els)[-1])
    duplicated = np.concatenate([els[:-1], els[-2:-1]])
    shifted = np.concatenate([els[1:], [outside]])    # sorted, first column not 0
    for bad in (duplicated, shifted, els[:-1]):
        with pytest.raises(ValueError, match="not an F_q-subspace"):
            Subspace(c313, elements=bad)
    unsorted = els.copy()
    unsorted[[1, 2]] = unsorted[[2, 1]]
    for table in (np.stack([els, unsorted]), duplicated[None, :], shifted[None, :],
                  els[None, :-1]):
        with pytest.raises(ValueError, match="not an F_q-subspace"):
            Subspace._rows(c313, table)
    rows = Subspace._rows(c313, np.stack([els, els]))
    assert rows == [W, W] and all(R.dim == 3 for R in rows)
    assert not rows[0].elements.flags.writeable and rows[0].elements.base is not None


def test_is_spread_rejects_duplicates(spread_c313):
    comps = spread_c313.components
    assert not is_spread(comps[:-1] + [comps[0]])
    assert not is_spread(comps[:-1])          # wrong count
    assert is_partial_spread(comps[:5])


@pytest.mark.parametrize("block", [729, 1 << 16, 728])
def test_coverage_counts_agree_across_chunks_and_fields(spread_c313, c313, monkeypatch,
                                                        block):
    # chunks of 27 and 4 components, one chunk for all, and (N > block) one
    # in-place count per component: every route counts the same, repeats too
    comps = spread_c313.components + spread_c313.components[:3]
    want = np.zeros(c313.N, dtype=np.int64)
    for C in comps:
        want[C.elements] += 1
    want[0] = 0
    monkeypatch.setattr(spread_mod, "_BLOCK", block)
    assert spread_mod._coverage(comps).tolist() == want.tolist()
    assert not is_partial_spread(comps) and not is_spread(comps)
    assert is_spread(spread_c313.components)


def test_component_polynomials_are_built_once_per_tower(c313):
    # every build at one (tower, k) reuses one X and one X^(q^k), so their
    # value tables are computed once; every type-H build at one (tower, k,
    # delta) reads one checked table of its eta-class (one class at (3,3)),
    # and each build reads the seed row W^(q^n) for psi_eta(W)
    spread_mod._twisted_pair.cache_clear()
    spread_mod._typeH_seeds.cache_clear()
    spread_mod._typeH_class_memo.cache_clear()
    deltas, etas = c313.find_deltas(), c313.find_etas(1)
    for d in deltas[:3]:
        build_typeC(c313, 1, int(d))
        build_typeC(c313, 2, int(d))
        for h in etas[:4]:
            build_typeH(c313, 1, int(d), int(h))
    info = spread_mod._twisted_pair.cache_info()
    assert (info.misses, info.hits) == (2, 7)
    classes = spread_mod._typeH_class_memo.cache_info()
    assert (classes.misses, classes.hits) == (3, 9)
    seeds = spread_mod._typeH_seeds.cache_info()
    assert (seeds.misses, seeds.hits) == (3, 12)
    X, Xq = spread_mod._twisted_pair(c313, 1)
    assert X == QPoly.identity(c313) and Xq == QPoly.monomial(c313, 1, 1)


# -- named constructions ---------------------------------------------------------------


def test_builds_make_no_subspace(c313, c213, even3_deltas, monkeypatch):
    # a build hands over its checked table: no Subspace is made, checked or
    # not, until components is read, and then each read gives fresh
    # read-only views of the rows in order
    made = []
    real_init, real_rows = Subspace.__init__, Subspace._rows.__func__
    monkeypatch.setattr(Subspace, "__init__", lambda self, *a, **kw:
                        made.append("init") or real_init(self, *a, **kw))
    monkeypatch.setattr(Subspace, "_rows", classmethod(lambda cls, *a:
                                                       made.append("rows") or real_rows(cls, *a)))
    spread_mod._typeH_seeds.cache_clear()
    spread_mod._typeH_class_memo.cache_clear()
    d = int(c313.find_deltas()[0])
    spreads = [build_typeC(c313, 1, d), build_typeH(c313, 1, d, int(c313.find_etas(1)[0])),
               build_typeH(c313, 2, d, int(c313.find_etas(2)[0])),
               build_even_n3(c213, even3_deltas[0])]
    assert made == []
    for S in spreads:
        comps = S.components
        assert [C.elements.tobytes() for C in comps] == [r.tobytes() for r in S.rows]
        assert all(C.dim == S.dim == S.ctx.n and not C.elements.flags.writeable for C in comps)
        assert not S.rows.flags.writeable and S.rows.dtype == np.int64
        assert not {id(C) for C in comps} & {id(C) for C in S.components}
    assert made == ["rows"] * 8


def test_build_typeC(c313, spread_c313):
    S = spread_c313
    assert S.kind == "typeC" and S.verified
    assert len(S.components) == 28
    assert kernel_of_spread(S) == 3


def test_build_typeC_q5(c513):
    S = build_typeC(c513, 2, c513.find_deltas()[0])
    assert len(S.components) == 126
    assert kernel_of_spread(S) == 5


def test_build_typeC_guards(c313, c213):
    delta = c313.find_deltas()[0]
    with pytest.raises(ValueError):
        build_typeC(c313, 3, delta)            # i out of range
    with pytest.raises(ValueError):
        build_typeC(c313, 1, 1)                # delta condition fails
    with pytest.raises(ValueError):
        build_typeC(c213, 1, 7)                # even q
    c314 = build_tower(3, 1, 4)
    with pytest.raises(ValueError):
        build_typeC(c314, 2, c314.find_deltas()[0])     # gcd(i, n) != 1


def test_builders_refuse_non_encodings(c313, c213):
    delta, eta = c313.find_deltas()[0], c313.find_etas(1)[0]
    # -717 wraps to the admissible-looking element 12 under negative indexing
    for bad in (-717, c313.N, 10 ** 6):
        with pytest.raises(ValueError, match="delta = .* not an element encoding"):
            build_typeC(c313, 1, bad)
        with pytest.raises(ValueError, match="delta = .* not an element encoding"):
            build_typeH(c313, 1, bad, eta)
        with pytest.raises(ValueError, match="eta = .* not an element encoding"):
            build_typeH(c313, 1, delta, bad)
    for bad in (-3, c213.N, 5000):
        with pytest.raises(ValueError, match="delta = .* not an element encoding"):
            build_even_n3(c213, bad)
        assert not even3_admissible(c213, bad)


def test_build_typeH(c313):
    delta = c313.find_deltas()[0]
    eta = c313.find_etas(1)[0]
    S = build_typeH(c313, 1, delta, eta)
    assert S.kind == "typeH" and S.verified
    assert len(S.components) == 28
    assert is_spread(S.components)
    assert kernel_of_spread(S) == 3


def test_build_typeH_second_orbit_starts_at_psi_image(c313):
    # psi(z) = eta z^(q^n), computed here with scalar arithmetic
    delta, eta = c313.find_deltas()[0], c313.find_etas(1)[0]
    S = build_typeH(c313, 1, delta, eta)
    W, ne = S.components[0], c313.n * c313.e
    want = sorted(c313.mul(eta, c313.frob(int(x), ne)) for x in W.elements)
    assert S.components[len(S) // 2].elements.tolist() == want


def _typeH_by_two_orbits(ctx, k, delta, eta):
    """The type-H build's reference: the beta^2-orbit of W = {x + delta x^(q^k)}
    followed by the beta^2-orbit of psi(W), each closed by orbit()."""
    W = component_from_pair(QPoly.identity(ctx), QPoly.monomial(ctx, k, 1), delta)
    psi_W = np.sort(ctx.vmul(eta, ctx.frob_table(ctx.n * ctx.e)[W.elements]))
    first, second = orbit(W, "beta2"), orbit(Subspace._rows(ctx, psi_W[None, :])[0], "beta2")
    assert len(first) == len(second) == (ctx.q ** ctx.n + 1) // 2
    assert is_spread(first + second)
    return first + second


def _same_components(S, comps):
    return [C.elements.tobytes() for C in S.components] == [C.elements.tobytes() for C in comps]


def test_build_typeH_matches_the_two_orbit_build_at_3_3(c313):
    # every (delta, eta) at (3,3) with k = 1: the same components in order
    for d in c313.find_deltas():
        for h in c313.find_etas(1):
            S = build_typeH(c313, 1, int(d), int(h))
            assert _same_components(S, _typeH_by_two_orbits(c313, 1, int(d), int(h))), (d, h)


@pytest.mark.parametrize("p, e, n, k", [
    (3, 1, 3, 2), (5, 1, 3, 1), (3, 2, 3, 1), (3, 1, 5, 2), (7, 1, 3, 1),
], ids=["3-3-k2", "5-3", "9-3", "3-5-k2", "7-3"])
def test_build_typeH_matches_the_two_orbit_build_sampled(p, e, n, k):
    # (9,3) fills 9 blocks of 89 rows, the first four of the first orbit only,
    # the fifth crossing into the second; the others fit in one block
    ctx = build_tower(p, e, n)
    deltas, etas = ctx.find_deltas(), ctx.find_etas(k)
    rng = np.random.default_rng(p * 100 + e * 10 + n + k)
    for _ in range(3):
        d, h = int(rng.choice(deltas)), int(rng.choice(etas))
        assert _same_components(build_typeH(ctx, k, d, h), _typeH_by_two_orbits(ctx, k, d, h))


@pytest.mark.parametrize("rows", [1, 5, 13, 14, 15, 27])
def test_build_typeH_blocks_cross_the_halves(c313, monkeypatch, rows):
    # 28 rows in blocks of `rows`: a block may end at, straddle or start
    # after the end of the first orbit (row 14), and the last may be short.
    # Every image is taken a block at a time: the two seed rows, the table
    # filled in blocks from row 0, then beta^2 and psi on each block of the
    # second half from row 14
    d, h = int(c313.find_deltas()[3]), int(c313.find_etas(1)[5])
    want = _typeH_by_two_orbits(c313, 1, d, h)
    monkeypatch.setattr(spread_mod, "_BLOCK", rows * c313.q ** c313.n)
    spread_mod._typeH_seeds.cache_clear()
    spread_mod._typeH_class_memo.cache_clear()
    real, calls = spread_mod._images, []
    monkeypatch.setattr(spread_mod, "_images", lambda ctx, table, g, k=0:
                        calls.append((k, np.ndim(g), len(table))) or real(ctx, table, g, k))
    try:
        S = build_typeH(c313, 1, d, h)
    finally:
        spread_mod._typeH_seeds.cache_clear()
    assert _same_components(S, want)

    def blocks(lo, hi):
        return [min(rows, hi - b) for b in range(lo, hi, rows)]

    assert calls == ([(0, 0, 1), (3, 0, 1)] + [(0, 2, m) for m in blocks(0, 28)]
                     + [c for m in blocks(14, 28) for c in ((0, 0, m), (3, 0, m))])


def test_build_typeH_class_tables_match_the_two_orbit_build_reversed(c313):
    # the memo filled afresh from the last eta of each delta: every (delta,
    # eta) at (3,3), k = 1, still gives the reference's components in order
    spread_mod._typeH_class_memo.cache_clear()
    for d in c313.find_deltas():
        for h in reversed(c313.find_etas(1)):
            S = build_typeH(c313, 1, int(d), int(h))
            assert _same_components(S, _typeH_by_two_orbits(c313, 1, int(d), int(h))), (d, h)


@pytest.mark.parametrize("k", [1, 2])
def test_typeH_has_one_eta_class_per_delta_at_3_3(c313, k):
    # the reference gives one component set over all eta of a delta, and the
    # build reads one class table per delta
    deltas, etas = c313.find_deltas(), c313.find_etas(k)
    spread_mod._typeH_class_memo.cache_clear()
    for d in deltas:
        sets = {frozenset(C.elements.tobytes() for C in _typeH_by_two_orbits(c313, k, int(d), int(h)))
                for h in etas}
        assert len(sets) == 1, d
        for h in etas:
            build_typeH(c313, k, int(d), int(h))
    info = spread_mod._typeH_class_memo.cache_info()
    assert (info.misses, info.hits) == (len(deltas), len(deltas) * (len(etas) - 1))


def test_build_typeH_refuses_a_memo_entry_without_psi_W(c313, monkeypatch):
    # a forged class table whose second half repeats the first: psi_eta(W)
    # is in no second-half row, whatever eta, and the entry stays memoized
    real = spread_mod._typeH_class
    half = (c313.q ** c313.n + 1) // 2
    monkeypatch.setattr(spread_mod, "_typeH_class", lambda ctx, k, delta, rho:
                        np.concatenate([real(ctx, k, delta, rho)[:half]] * 2))
    d = int(c313.find_deltas()[0])
    spread_mod._typeH_class_memo.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="psi.W. is not a component"):
            build_typeH(c313, 1, d, int(c313.find_etas(1)[0]))
        monkeypatch.undo()
        for h in c313.find_etas(1)[1:]:
            with pytest.raises(RuntimeError, match="psi.W. is not a component"):
                build_typeH(c313, 1, d, int(h))
    finally:
        spread_mod._typeH_class_memo.cache_clear()


def test_build_typeH_memo_keeps_only_one_block_tables():
    # (9,3): 730 rows of 729 entries, past one block of _BLOCK entries
    ctx = build_tower(3, 2, 3)
    before = spread_mod._typeH_class_memo.cache_info()
    S = build_typeH(ctx, 1, ctx.find_deltas()[0], ctx.find_etas(1)[0])
    assert len(S) == 730
    assert spread_mod._typeH_class_memo.cache_info() == before


def test_build_typeH_spreads_share_no_subspace(c313):
    # the same (delta, eta) twice and another eta of its class: each spread
    # has a read-only table of its own, not the memoized class table, and
    # every read of components makes fresh read-only views of it
    d, etas = int(c313.find_deltas()[0]), c313.find_etas(1)
    spreads = [build_typeH(c313, 1, d, int(h)) for h in (etas[0], etas[0], etas[1])]
    g = math.gcd(2 * int(c313.log[c313.beta]), (c313.N - 1) // 2, c313.N - 1)
    memo = spread_mod._typeH_class_memo(c313, 1, d, int(c313.exp[int(c313.log[etas[0]]) % g]))
    tables = [S.rows for S in spreads] + [memo]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(tables) for b in tables[i + 1:])
    assert not any(T.flags.writeable for T in tables)
    first, again = spreads[0].components, spreads[0].components
    assert first == again and not {id(C) for C in first} & {id(C) for C in again}
    assert all(np.shares_memory(C.elements, spreads[0].rows) and not C.elements.flags.writeable
               for C in first)


@pytest.mark.parametrize("fake, message", [
    # the seed row W^(q^n) (the one psi-image without eta) replaced by W:
    # the second half becomes eta beta^(-2i q^n) W, the odd beta-powers of
    # W, so the union is the type-C spread, which psi does not preserve
    (lambda ctx, table, g, k, imgs:
     table if k and np.ndim(g) == 0 and g == 1 else imgs, "leaves the component set"),
    # the seed row replaced by eta^-1 W, psi as the identity: the second
    # half repeats the first
    (lambda ctx, table, g, k, imgs:
     np.sort(ctx.vmul(ctx.inv(ctx.find_etas(1)[0]), table), axis=1)
     if k and np.ndim(g) == 0 and g == 1 else imgs, "failed spread verification"),
    # the beta^2-images of the shift check, moved down by one row
    (lambda ctx, table, g, k, imgs:
     np.roll(imgs, 1, axis=0) if not k and np.ndim(g) == 0
     and g == ctx.mul(ctx.beta, ctx.beta) else imgs, "does not cycle the second orbit"),
    # the seed check's closure image beta^(q^n + 1) W, times gamma
    (lambda ctx, table, g, k, imgs:
     np.sort(ctx.vmul(ctx.gamma, imgs), axis=1) if not k and np.ndim(g) == 0
     and g == ctx.pow(ctx.beta, ctx.q ** ctx.n + 1) else imgs, "does not close with"),
])
def test_build_typeH_group_check(c313, monkeypatch, fake, message):
    # the seeds are cached per (tower, k, delta) and the class tables per
    # (tower, k, delta, class of eta): build them under the fault, and keep
    # none built that way
    real = spread_mod._images
    monkeypatch.setattr(spread_mod, "_images", lambda ctx, table, g, k=0:
                        fake(ctx, table, g, k, real(ctx, table, g, k)))
    spread_mod._typeH_seeds.cache_clear()
    spread_mod._typeH_class_memo.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=message):
            build_typeH(c313, 1, c313.find_deltas()[0], c313.find_etas(1)[0])
    finally:
        spread_mod._typeH_seeds.cache_clear()
        spread_mod._typeH_class_memo.cache_clear()


def _typeH_transitive_by_bfs(S: Spread, eta) -> bool:
    """Reference: the beta^2- and psi-image of every component, looked up
    among the components, then a walk from component 0 over those moves;
    True when it reaches every component.  Raises if an image is not a
    component."""
    ctx = S.ctx
    ne = ctx.n * ctx.e
    b2 = ctx.mul(ctx.beta, ctx.beta)
    index = {C.elements.tobytes(): i for i, C in enumerate(S.components)}
    T = np.stack([C.elements for C in S.components])
    moves = []
    # psi through the Frobenius table, independently of _images' vpow
    for b2_img, psi_img in zip(spread_mod._images(ctx, T, b2),
                               np.sort(ctx.vmul(eta, ctx.frob_table(ne)[T]), axis=1)):
        imgs = [index.get(b2_img.tobytes()), index.get(psi_img.tobytes())]
        if None in imgs:
            raise RuntimeError("group action leaves the component set")
        moves.append(imgs)
    reached, frontier = {0}, [0]
    while frontier:
        for j in moves[frontier.pop()]:
            if j not in reached:
                reached.add(j)
                frontier.append(j)
    return len(reached) == len(S.components)


def test_build_typeH_transitivity_matches_bfs(c313):
    # every (delta, eta) at (3,3): the build's psi-image check passes, and the
    # walk over all beta^2- and psi-images reaches every component
    deltas, etas = c313.find_deltas(), c313.find_etas(1)
    assert len(deltas) * len(etas) == 728
    for d in deltas:
        for h in etas:
            S = build_typeH(c313, 1, int(d), int(h))
            assert _typeH_transitive_by_bfs(S, int(h)), (d, h)


def test_build_typeH_guards(c313, c312):
    delta = c313.find_deltas()[0]
    with pytest.raises(ValueError):
        build_typeH(c313, 1, delta, 1)            # eta = 1 is a square
    with pytest.raises(ValueError):
        build_typeH(c313, 1, delta, c313.gamma)   # wrong multiplicative order
    with pytest.raises(ValueError):
        build_typeH(c312, 1, c312.find_deltas()[0], 1)   # even n


def test_build_even_n3(c213, even3_deltas, spread_even3):
    assert even3_deltas == [7, 10, 21, 27, 29, 30, 58, 59]
    S = spread_even3
    assert S.kind == "evenC" and S.verified
    assert len(S.components) == 9
    # the q = 2 instance happens to coordinatize the Desarguesian plane of
    # order 8, so the kernel is the full F_8 rather than the generic F_q
    assert kernel_of_spread(S) == 8


def test_build_even_n3_q4():
    c223 = build_tower(2, 2, 3)
    adm = [d for d in range(c223.N) if even3_admissible(c223, d)]
    assert len(adm) == 192
    S = build_even_n3(c223, adm[0])
    assert len(S.components) == 65
    assert kernel_of_spread(S) == 4           # = q: this plane is proper
    assert symplectic_check(S, adm[0])


def test_build_even_n3_rejections(c213, c313):
    inadmissible = next(d for d in range(1, c213.N)
                        if not c213.in_subfield(d, "qn")
                        and not even3_admissible(c213, d))
    with pytest.raises(ValueError):
        build_even_n3(c213, inadmissible)
    # and the attached polynomial genuinely fails to permute
    Q = q_from_pair(QPoly.trace_poly(c213), QPoly.identity(c213), inadmissible)
    assert not is_permutation_brute(Q)
    with pytest.raises(ValueError):
        build_even_n3(c213, 7 if c213.in_subfield(7, "qn") else 2)   # delta inside
    with pytest.raises(ValueError):
        build_even_n3(c313, 7)                # odd q


def _symplectic_by_table(S: Spread, delta, rows: int = 256) -> bool:
    """Reference: A(x, y) = tr((delta + delta^q^3)^-1 x y^q^3) at every pair
    of ambient elements, a block of rows at a time: zero on the diagonal and
    symmetric, bi-additive in full when N <= 128, of full rank on a basis,
    and zero on every pair of elements of each component."""
    ctx = S.ctx
    ne = ctx.n * ctx.e
    c = ctx.inv(ctx.add(delta, ctx.frob(delta, ne)))
    conj = ctx.frob_table(ne)

    def form(x, y):
        return ctx.vtrace(ctx.vmul(c, ctx.vmul(x[:, None], conj[y][None, :])), ctx.d, ctx.e)

    els = np.arange(ctx.N, dtype=np.int64)
    for lo in range(0, ctx.N, rows):
        x = els[lo:lo + rows]
        T = form(x, els)
        if np.any(T[np.arange(len(x)), x]) or not np.array_equal(T, form(els, x).T):
            return False
    if ctx.N <= 128:
        T = form(els, els)
        sums = ctx.vadd(els[:, None], els[None, :])
        if not np.array_equal(T[sums], ctx.vadd(T[:, None, :], T[None, :, :])):
            return False
    basis = np.array(ctx.subfield_basis(ctx.d, "q"), dtype=np.int64)
    if len(rref(ctx, form(basis, basis))[1]) != 2 * ctx.n:
        return False
    return not any(np.any(form(C.elements, C.elements)) for C in S.components)


def _swap_last(S: Spread, W: Subspace) -> Spread:
    return Spread(S.ctx, np.concatenate([S.rows[:-1], W.elements[None, :]]), "custom",
                  verified=True)


def test_symplectic_check(c213, even3_deltas, spread_even3):
    delta = even3_deltas[0]
    assert symplectic_check(spread_even3, delta)
    # swap in a non-isotropic 3-space: the check must notice
    W = Subspace(c213, basis=[1, 2, 4])
    assert W not in spread_even3.components
    assert not symplectic_check(_swap_last(spread_even3, W), delta)


def test_symplectic_check_matches_the_table_q2(c213, even3_deltas):
    # every admissible delta at q = 2, and a swapped non-isotropic component
    W = Subspace(c213, basis=[1, 2, 4])
    for d in even3_deltas:
        S = build_even_n3(c213, d)
        assert symplectic_check(S, d) and _symplectic_by_table(S, d), d
        bad = _swap_last(S, W)
        assert not symplectic_check(bad, d) and not _symplectic_by_table(bad, d), d


def test_symplectic_check_matches_the_table_q4():
    S = _first_spread("even3", 2, 2, 3)
    ctx = S.ctx
    adm = [d for d in range(ctx.N) if even3_admissible(ctx, d)]
    assert symplectic_check(S, adm[0]) and _symplectic_by_table(S, adm[0])
    # the first components of the spreads at the next two admissible deltas
    # are 3-spaces outside this spread, isotropic for this form or not
    seen = []
    for d in adm[1:3]:
        W = build_even_n3(ctx, d).components[0]
        assert W not in S.components
        swapped = _swap_last(S, W)
        seen.append(symplectic_check(swapped, adm[0]))
        assert seen[-1] == _symplectic_by_table(swapped, adm[0]), d
    assert seen == [True, False]


def test_symplectic_check_odd_form_is_not_alternating(c313, spread_c313):
    # in odd characteristic A(x, x) = tr(2c x^(q^3+1)) is not identically 0
    d = next(x for x in range(c313.N) if not c313.in_subfield(x, "qn")
             and c313.add(x, c313.frob(x, 3)) != 0)
    assert not symplectic_check(spread_c313, d)
    assert not _symplectic_by_table(spread_c313, d)


@pytest.mark.parametrize("case", ["typeC-delta-q3", "delta-1-q2", "delta-N", "delta-minus-1"])
def test_symplectic_check_refuses_a_bad_delta(c313, c213, spread_c313, spread_even3, case):
    # delta + delta^(q^3) = 0 (every type-C delta at odd q, any delta of
    # F_{q^3} at even q) defines no form, and an integer outside 0..N-1 is
    # no delta: each is refused by name, not met with ZeroDivisionError,
    # IndexError or a silent False
    S, delta = {"typeC-delta-q3": (spread_c313, c313.find_deltas()[0]),
                "delta-1-q2": (spread_even3, 1),
                "delta-N": (spread_even3, c213.N),
                "delta-minus-1": (spread_even3, -1)}[case]
    with pytest.raises(ValueError, match=f"^delta = {delta} "):
        symplectic_check(S, delta)


def test_symplectic_check_q8():
    # 513 components of F_{2^18}: the N x N table would hold 6.9e10 entries
    S = _first_spread("even3", 2, 3, 3)
    ctx = S.ctx
    d = next(d for d in range(ctx.N) if even3_admissible(ctx, d))
    assert len(S.components) == 513
    assert symplectic_check(S, d)


# -- orbit <-> polynomial correspondence ---------------------------------------------


def test_key_lemma_odd_good(c313):
    delta = c313.find_deltas()[0]
    rep = check_key_lemma(c313, QPoly.monomial(c313, 1), delta)
    assert rep.ok
    assert rep.sides == {"component_injective": True,
                         "beta2_partial_spread": True,
                         "beta_spread": True,
                         "planar": True,
                         "coset_permutation": True}


def test_key_lemma_odd_n2(c312):
    rng = np.random.default_rng(15)
    dom = c312.subfield_elements("qn")
    delta = c312.find_deltas()[0]
    hit_false = False
    for _ in range(20):
        L = QPoly(c312, [int(rng.choice(dom)) for _ in range(2)])
        rep = check_key_lemma(c312, L, delta)
        assert rep.ok                       # equivalences hold on both sides
        hit_false |= not rep.sides["beta_spread"]
    assert hit_false                        # n = 2 never produces one of these


def test_key_lemma_even(c213, even3_deltas):
    rep = check_key_lemma(c213, QPoly.trace_poly(c213), c213.inv(even3_deltas[0]))
    assert rep.ok
    assert rep.sides["beta_spread"] and rep.sides["permutation"]


def test_key_lemma_report_desarguesian(c313):
    # L = 0: W = F_{q^n}, its beta-orbit is the Desarguesian spread, Q = X^2
    rep = KeyLemmaReport(c313, QPoly.zero(c313), c313.find_deltas()[0])
    assert rep.ok
    assert rep.sides == dict.fromkeys(["component_injective", "beta2_partial_spread",
                                       "beta_spread", "planar", "coset_permutation"], True)
    assert repr(rep).startswith("KeyLemmaReport(ok=True")


def test_key_lemma_guards(c313):
    with pytest.raises(ValueError):
        check_key_lemma(c313, QPoly.identity(c313, "q", 1), c313.find_deltas()[0])
    with pytest.raises(ValueError):
        check_key_lemma(c313, QPoly.identity(c313), 2)


def test_delta_that_is_no_encoding_is_refused(c312):
    # unchecked, a negative delta wraps to an element (check_key_lemma at
    # -3 reports on N - 3) and one past N raises numpy's bare IndexError
    L = QPoly(c312, [1, 2])
    for delta in (-1, -3, c312.N, c312.N + 5):
        msg = f"delta = {delta} is not an element encoding"
        with pytest.raises(ValueError, match=msg):
            check_key_lemma(c312, L, delta)
        with pytest.raises(ValueError, match=msg):
            component_from_pair(QPoly.identity(c312), L, delta)
        with pytest.raises(ValueError, match=msg):
            q_from_pair(QPoly.identity(c312), L, delta)
        with pytest.raises(ValueError, match=msg):
            q_from_component(L, delta)
        with pytest.raises(ValueError, match=msg):
            q_from_pairs(QPoly.identity(c312), L, [c312.find_deltas()[0], delta])


def test_key_lemma_random_property(c313):
    # whenever the beta^2-orbit is a partial spread the full beta-orbit is a
    # spread (odd q and n, gcd condition holds at (3,3))
    rng = np.random.default_rng(16)
    dom = c313.subfield_elements("qn")
    deltas = c313.find_deltas()
    for _ in range(40):
        L = QPoly(c313, [int(rng.choice(dom)) for _ in range(3)])
        delta = int(rng.choice(deltas))
        rep = check_key_lemma(c313, L, delta)
        assert rep.ok
        if rep.sides["beta2_partial_spread"]:
            assert rep.sides["beta_spread"]


def test_gcd_condition():
    assert gcd_condition(3, 3)
    assert not gcd_condition(2, 3)
    assert gcd_condition(5, 2)
    assert gcd_condition(9, 3)               # prime-power q factors automatically


# -- structural invariants --------------------------------------------------------------


def test_spread_beta_stability(spread_c313, c313):
    comps = set(spread_c313.components)
    for C in spread_c313.components:
        moved = Subspace(c313, elements=np.sort(c313.vmul(c313.beta, C.elements)))
        assert moved in comps


def test_spread_coverage_identity(spread_c313, c313):
    total = sum(len(C.elements) - 1 for C in spread_c313.components)
    assert total == c313.N - 1


def test_kernel_divides(spread_c313, c313):
    k = kernel_of_spread(spread_c313)
    assert (c313.q ** c313.n) % k == 0


def _kernel_by_one_system(S):
    """The kernel's reference: the conditions T(W_j) <= W_j of every
    component stacked into one F_p system, eliminated once."""
    ctx = S.ctx
    p, d = ctx.p, ctx.d
    fq_over_fp = np.array(ctx.subfield_basis("q", 1), dtype=np.int64)
    rows = []
    for C in S.components:
        fp_basis = ctx.vmul(np.array(C.basis, dtype=np.int64)[:, None], fq_over_fp[None, :])
        D = ctx.to_coords(fp_basis.reshape(-1), d, "p")
        ann = nullspace(ctx, D)
        rows.append((ann[None, :, :, None] * D[:, None, None, :]).reshape(-1, d * d) % p)
    return p ** len(nullspace(ctx, np.concatenate(rows)))


def _first_spread(kind, p, e, n):
    """The spread of a kind at its least admissible parameters."""
    ctx = build_tower(p, e, n)
    if kind == "typeC":
        return build_typeC(ctx, 1, ctx.find_deltas()[0])
    if kind == "typeH":
        return build_typeH(ctx, 1, ctx.find_deltas()[0], ctx.find_etas(1)[0])
    if kind == "desarguesian":
        # the beta-orbit of F_{q^n}, whose kernel is all of F_{q^n}
        W = component_from_pair(QPoly.identity(ctx), QPoly.zero(ctx), ctx.find_deltas()[0])
        return Spread(ctx, np.stack([C.elements for C in orbit(W, "beta")]), "custom",
                      verified=True)
    return build_even_n3(ctx, next(d for d in range(ctx.N) if even3_admissible(ctx, d)))


@pytest.mark.parametrize("kind, p, e, n", [
    ("typeC", 3, 1, 3), ("typeH", 3, 1, 3), ("typeC", 5, 1, 3), ("even3", 2, 2, 3),
    ("desarguesian", 3, 1, 3),
], ids=["typeC-3-3", "typeH-3-3", "typeC-5-3", "even3-q4", "desarguesian-3-3"])
def test_kernel_matches_one_system_reference(kind, p, e, n):
    S = _first_spread(kind, p, e, n)
    assert kernel_of_spread(S) == _kernel_by_one_system(S)


@pytest.mark.parametrize("kind, p, e, n, kernel, read", [
    ("typeC", 5, 1, 3, 5, 5), ("typeH", 3, 1, 3, 3, 5), ("desarguesian", 3, 1, 3, 27, 28),
], ids=["typeC-5-3", "typeH-3-3", "desarguesian-3-3"])
def test_kernel_stops_once_it_is_F_q(monkeypatch, kind, p, e, n, kernel, read):
    # the rows whose bases the kernel reads off; a kernel larger than F_q
    # reads every row
    S = _first_spread(kind, p, e, n)
    real, rows = spread_mod._echelon_rows, []
    monkeypatch.setattr(spread_mod, "_echelon_rows", lambda ctx, table, dim:
                        rows.append(len(table)) or real(ctx, table, dim))
    assert kernel_of_spread(S) == kernel
    assert sum(rows) == read


def test_kernel_matches_one_system_reference_even3_q2(c213, even3_deltas):
    for d in even3_deltas:
        S = build_even_n3(c213, d)
        assert kernel_of_spread(S) == _kernel_by_one_system(S)


@pytest.mark.parametrize("kind, p, e, n, kernel", [
    ("typeC", 3, 2, 3, 9), ("typeH", 3, 2, 3, 9), ("even3", 2, 3, 3, 8),
], ids=["typeC-9-3", "typeH-9-3", "even3-q8"])
def test_kernel_of_large_spreads_within_budget(kind, p, e, n, kernel):
    # 730, 730 and 513 components: about 1.5 s each on a shared 2-core host,
    # where one system over all components took 23 s (type C) and 124 s (even3)
    t0 = time.perf_counter()
    S = _first_spread(kind, p, e, n)
    assert is_spread(S.components)
    assert kernel_of_spread(S) == kernel
    assert time.perf_counter() - t0 < 20.0


# -- serialization ------------------------------------------------------------------------


def test_subspace_json_round_trip(c313):
    delta = c313.find_deltas()[0]
    W = component_from_pair(QPoly.identity(c313), QPoly.monomial(c313, 1), delta)
    back = Subspace(c313, basis=W.to_json())
    assert back == W


def test_subspace_validation(c213, c321):
    with pytest.raises(ValueError):
        Subspace(c213, elements=[0, 1, 2])          # not a subspace (size 3)
    with pytest.raises(ValueError):
        Subspace(c213, elements=[0, 1], basis=[1])  # both args
    with pytest.raises(ValueError):
        Subspace(c213)                              # neither arg
    with pytest.raises(ValueError, match="not closed under addition"):
        Subspace(c213, elements=[0, 1, 2, 4])
    # the F_3-span of 1 and X in F_81: an additive group of size q = 9 that
    # F_9 does not preserve
    with pytest.raises(ValueError, match="not closed under F_q-scalars"):
        Subspace(c321, elements=list(range(9)))


def test_spread_json_round_trip(spread_c313):
    doc = spread_c313.to_json()
    assert doc["kind"] == "typeC" and doc["verified"]
    assert doc["kernel"] == 3
    back = Spread.from_json(doc)
    assert back.kind == "typeC"
    assert len(back.components) == 28
    assert set(back.components) == set(spread_c313.components)
    assert is_spread(back.components)


def test_membership_is_equality_with_an_element(spread_c313):
    W = spread_c313.components[1]
    x = int(W.elements[5])
    # an integer equal to an element, with no conversion of anything else
    assert x in W and np.int64(x) in W and 0 in W
    for other in (x + 0.5, str(x), float(x), np.float64(x + 0.9), 10 ** 30, -x, None, [x]):
        assert other not in W, other
    assert int(np.setdiff1d(np.arange(spread_c313.ctx.N), W.elements)[0]) not in W


@pytest.mark.parametrize("flag", ["false", "no", "true", [1], 1, 0, None])
def test_verified_must_be_a_json_boolean(spread_c313, flag):
    doc = dict(spread_c313.to_json(), verified=flag)
    with pytest.raises(ValueError, match="verified must be a JSON boolean"):
        Spread.from_json(doc)


def test_verified_absent_is_false(spread_c313):
    doc = spread_c313.to_json()
    del doc["verified"]
    S = Spread.from_json(doc)
    assert S.verified is False
    with pytest.raises(ValueError, match="verified spreads"):
        kernel_of_spread(S)
    assert Spread.from_json(dict(doc, verified=False)).verified is False
    assert Spread.from_json(dict(doc, verified=True)).verified is True


def test_components_of_two_dimensions_make_no_spread(spread_c313):
    # a table holds one dimension; a malformed document stays a ValueError
    doc = spread_c313.to_json()
    doc["components"][4] = doc["components"][4][:2]
    with pytest.raises(RuntimeError, match="two dimensions are no spread"):
        Spread.from_json(doc)
    with pytest.raises(ValueError, match="no components"):
        Spread.from_json(dict(doc, components=[]))


# sha256 of json.dumps(S.to_json()), frozen from the element-set-per-component
# representation: a change of the JSON format or of the component order fails
_GOLDEN_DIGESTS = {
    "typeC-3-3": "2f2c81bc4aca137eeda139963c1ba463f15aa4546f5a1d512c15e15f45ebea04",
    "typeC-5-3": "c34f260b55d5761533290042bdb19c5bb10ee26cf10ed92135651cade18e599b",
    "typeC-9-3": "3e9500b0b19c3a05896f89728cab22a64c9e90043f9df176f50018aae1eeb51d",
    "typeH-3-3-eta39": "bf9a42c822f1bea2c62a040b24e47286af8c6df23c5f8995d919d4e1ce6cecc6",
    "typeH-3-3-eta42": "b214ca64cfdc2e9adb7c69c9bbce6119d1eb63e942f6fcce8443f94437ef444b",
    "typeH-3-3-k2": "9c5741dc2fafeb6c4e0fe38c592a92d3730ab8456bbd42dd7b9586ce166d5f35",
    "typeH-9-3": "9b86fe29f29c627f3e9ac33f549567a2e7de239baa0c29adb13fe8116399d4c0",
    "even3-q2": "429ca9e37c550558a5c076c7c5b1e18d4d6da7fff66f12714490376054ee048b",
    "even3-q4": "35665f1a1d66fbf3a65531256c975612a3d1e593b42dafb30569b65a59c33378",
}


def test_spread_json_matches_golden_digests():
    # eta 39 and 42 lie in one eta-class at (3,3): one class table, two rotations
    c313, c923 = build_tower(3, 1, 3), build_tower(3, 2, 3)
    d = c313.find_deltas()[0]
    spreads = {
        "typeC-3-3": _first_spread("typeC", 3, 1, 3),
        "typeC-5-3": _first_spread("typeC", 5, 1, 3),
        "typeC-9-3": _first_spread("typeC", 3, 2, 3),
        "typeH-3-3-eta39": build_typeH(c313, 1, d, 39),
        "typeH-3-3-eta42": build_typeH(c313, 1, d, 42),
        "typeH-3-3-k2": build_typeH(c313, 2, d, c313.find_etas(2)[0]),
        "typeH-9-3": build_typeH(c923, 1, c923.find_deltas()[0], c923.find_etas(1)[0]),
        "even3-q2": _first_spread("even3", 2, 1, 3),
        "even3-q4": _first_spread("even3", 2, 2, 3),
    }
    assert c313.find_etas(1)[0] == 39
    got = {name: hashlib.sha256(json.dumps(S.to_json()).encode()).hexdigest()
           for name, S in spreads.items()}
    assert got == _GOLDEN_DIGESTS


def test_kernel_is_stored_and_not_recomputed(c313, monkeypatch):
    S = build_typeC(c313, 1, c313.find_deltas()[0])
    assert S.kernel is None
    assert kernel_of_spread(S) == S.kernel == 3

    def no_elimination(*args):
        raise AssertionError("to_json eliminated the kernel system again")

    monkeypatch.setattr(spread_mod, "nullspace", no_elimination)
    assert S.to_json()["kernel"] == 3


def test_kernel_loaded_from_json_is_recomputed(spread_c313):
    doc = dict(spread_c313.to_json(), kernel=999)
    S = Spread.from_json(doc)
    assert S.kernel == 999
    assert kernel_of_spread(S) == S.kernel == 3


def test_index_cache_stays_small():
    # fresh towers, so lookups made by other tests are not counted; the span
    # behind each component basis and each radical is not kept
    ctx = FieldCtx(5, 1, 3)
    doc = json.loads(json.dumps(build_typeC(ctx, 1, ctx.find_deltas()[0]).to_json()))
    assert Spread.from_json(doc, ctx).to_json() == doc
    assert len(ctx._index_cache) <= 2
    c214 = FieldCtx(2, 1, 4)
    dom = c214.subfield_elements("qn")
    rng = np.random.default_rng(20)
    for _ in range(20):
        coeffs = {(i, j): int(rng.choice(dom)) for i in range(4) for j in range(i, 4)}
        is_permutation_via_rank(DOPoly(c214, coeffs))
    assert len(c214._index_cache) <= 2


def _basis_by_elimination(C):
    """The reference for the read-off basis: rref of the coordinates of every
    nonzero element."""
    ctx = C.ctx
    R = rref(ctx, ctx.to_coords(C.elements[1:], ctx.d, "q"))[0]
    return ctx.from_coords(R, ctx.d, "q").tolist()


@pytest.mark.parametrize("kind, p, e, n, k", [
    ("typeC", 5, 1, 3, 1), ("typeC", 3, 1, 5, 1), ("typeC", 3, 2, 3, 1),
    ("typeH", 3, 1, 3, 1), ("typeH", 3, 1, 3, 2), ("even3", 2, 1, 3, 0), ("even3", 2, 2, 3, 0),
], ids=["typeC-5-3", "typeC-3-5", "typeC-9-3", "typeH-3-3-k1", "typeH-3-3-k2",
        "even3-q2", "even3-q4"])
def test_bases_read_off_match_elimination(monkeypatch, kind, p, e, n, k):
    # every component, one at a time (Subspace.basis) and in row blocks of
    # the table (Spread.to_json); blocks of 5 rows make the last one short
    ctx = build_tower(p, e, n)
    if kind == "typeH":
        S = build_typeH(ctx, k, ctx.find_deltas()[0], ctx.find_etas(k)[0])
    else:
        S = _first_spread(kind, p, e, n)
    want = [_basis_by_elimination(C) for C in S.components]
    assert [C.basis for C in S.components] == want
    assert Spread(ctx, S.rows).to_json()["components"] == want
    monkeypatch.setattr(spread_mod, "_BLOCK", 5 * ctx.q ** ctx.n)
    assert Spread(ctx, S.rows).to_json()["components"] == want


@pytest.mark.parametrize("tower", [(3, 1, 2), (2, 2, 2)], ids=str)
def test_bases_read_off_random_subspaces(tower):
    # seeded random subspaces of every dimension 0 .. 2n, the whole field
    # included: one at a time, and all together in blocks of one dimension
    ctx = build_tower(*tower)
    rng = np.random.default_rng(sum(tower))
    subs = []
    for dim in range(2 * ctx.n + 1):
        while sum(S.dim == dim for S in subs) < 4:
            S = Subspace(ctx, basis=rng.integers(1, ctx.N, size=dim).tolist())
            if S.dim == dim:
                subs.append(S)
    want = [_basis_by_elimination(S) for S in subs]
    assert [S.basis for S in subs] == want
    tables = [np.stack([S.elements for S in subs if S.dim == dim]) for dim in range(2 * ctx.n + 1)]
    assert [b for T in tables for b in Spread(ctx, T).to_json()["components"]] == want
    assert want[0] == [] and len(want[-1]) == 2 * ctx.n


def test_basis_of_a_table_that_is_no_subspace_is_refused(c313):
    # 27 sorted encodings from 0, the right shape for dimension 3, with
    # nonzero elements leading at each of the 6 coordinates
    els = np.sort(np.concatenate([[0], 3 ** np.arange(6), 700 + np.arange(20)]))
    T = Subspace._rows(c313, els[None, :])[0]
    with pytest.raises(ValueError, match="not an F_q-subspace"):
        T.basis


def test_is_spread_is_false_for_a_component_of_another_dimension(spread_c313):
    # before coverage is counted, wherever the component stands;
    # is_partial_spread still refuses mixed dimensions
    comps = spread_c313.components
    for i in (0, 5):
        for dim in (2, 4):
            C = Subspace(spread_c313.ctx, basis=(comps[i].basis + comps[6].basis)[:dim])
            bad = comps[:i] + [C] + comps[i + 1:]
            assert C.dim == dim and not is_spread(bad)
            with pytest.raises(ValueError, match="mixed dimensions"):
                is_partial_spread(bad)


def test_corrupt_bases_and_empty_spreads_are_refused(c313):
    for bad in (c313.N, 10 ** 6, -1, -3):
        with pytest.raises(ValueError, match=f"element {bad} is not an encoding"):
            Subspace(c313, basis=[1, bad])
    with pytest.raises(ValueError, match="no components"):
        is_spread([])


def test_kernel_requires_verified(c313, spread_c313):
    S = Spread(c313, spread_c313.rows, "custom", verified=False)
    with pytest.raises(ValueError):
        kernel_of_spread(S)


def test_builds_and_normalize_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call (13-30 ms); no library
    # path below calls it, so a fresh interpreter never loads the module
    code = """if True:
        import sys
        import spreadlab as sl
        c = sl.build_tower(3, 1, 3)
        d, eta = c.find_deltas()[0], c.find_etas(1)[0]
        S = sl.build_typeH(c, 1, d, eta)
        sl.Subspace(c, elements=S.components[3].elements)
        w = c.inv(c.mul(d, d))
        P = sl.normalize(sl.planar_to_presemifield(sl.DOPoly(c, {(1, 1): 1, (0, 0): c.neg(w)})), 1)
        assert sl.nucleus(P) in (3, 27)
        print("numpy.ma" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=str(Path(spreadlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
