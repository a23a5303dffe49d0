"""Quadratic-space classification in characteristic 2 and DO-polynomial
permutation criteria."""

import numpy as np
import pytest

from spreadlab import (DOPoly, QuadSpace, build_tower, classify_char2,
                       coset_representatives, count_zeros, is_permutation_brute,
                       is_permutation_via_rank, permutes_cosets, radical)
from spreadlab.quadform import _key_rows


# -- coordinate forms with hand-checkable zero counts ----------------------------


def test_hyperbolic_plane(c212):
    S = QuadSpace.from_coords(c212, {(0, 1): 1}, "qn")
    assert count_zeros(S) == 3
    assert radical(S) == []
    info = classify_char2(S)
    assert info == {"type": "hyperbolic", "r": 0, "s": 1, "rank": 2}


def test_hyperbolic_dim4(c214):
    S = QuadSpace.from_coords(c214, {(0, 1): 1, (2, 3): 1}, "qn")
    info = classify_char2(S)
    assert info == {"type": "hyperbolic", "r": 0, "s": 2, "rank": 4}
    # independent oracle: pure bit arithmetic over GF(2)
    brute = sum(1 for v in range(16)
                if (((v >> 3) & (v >> 2)) ^ ((v >> 1) & v)) & 1 == 0)
    assert brute == 10
    assert count_zeros(S) == brute


def test_parabolic_dim3(c213):
    S = QuadSpace.from_coords(c213, {(0, 0): 1, (1, 2): 1}, "qn")
    info = classify_char2(S)
    assert info == {"type": "parabolic", "r": 1, "s": 1, "rank": 3}
    brute = sum(1 for v in range(8)
                if ((v >> 2) ^ ((v >> 1) & v)) & 1 == 0)
    assert brute == 4
    assert count_zeros(S) == brute
    # the square term survives on the radical
    rad = radical(S)
    assert len(rad) == 1 and S.value(rad[0]) != 0


def test_elliptic_plane(c212):
    S = QuadSpace.from_coords(c212, {(0, 0): 1, (0, 1): 1, (1, 1): 1}, "qn")
    info = classify_char2(S)
    assert info == {"type": "elliptic", "r": 0, "s": 1, "rank": 2}
    assert count_zeros(S) == 1


def test_zero_form_degenerates_to_hyperbolic(c213):
    S = QuadSpace.from_coords(c213, {}, "qn")
    assert count_zeros(S) == 8
    info = classify_char2(S)
    assert info["type"] == "hyperbolic" and info["rank"] == 0 and info["r"] == 3


def test_classify_rejects_odd_characteristic(c313):
    S = QuadSpace.from_coords(c313, {(0, 1): 1}, "qn")
    with pytest.raises(ValueError):
        classify_char2(S)


def test_zero_count_formula_random(c214):
    # N0 = q^(n-1) + eps (q-1) q^(r+s-1), eps = 0 for parabolic
    rng = np.random.default_rng(9)
    for _ in range(50):
        coeffs = {(i, j): int(rng.integers(0, 2))
                  for i in range(4) for j in range(i, 4)}
        S = QuadSpace.from_coords(c214, coeffs, "qn")
        info = classify_char2(S)
        r, s = info["r"], info["s"]
        eps = {"hyperbolic": 1, "elliptic": -1, "parabolic": 0}[info["type"]]
        assert count_zeros(S) == 2 ** 3 + eps * 2 ** (r + s - 1)


# -- quadratic spaces from DO polynomials -----------------------------------------


def test_from_trace_pointwise(c214):
    f = DOPoly(c214, {(0, 1): 1})
    y = int(c214.subfield_elements("qn")[5])
    S = QuadSpace.from_trace(c214, f, y)
    for x in c214.subfield_elements("qn"):
        x = int(x)
        assert S.value(x) == c214.trace(c214.mul(y, f(x)), "qn", "q")


def test_bilinear_polar_form(c214):
    f = DOPoly(c214, {(0, 2): 1, (1, 1): 1})
    S = QuadSpace.from_trace(c214, f, 1)
    dom = c214.subfield_elements("qn")
    rng = np.random.default_rng(10)
    for _ in range(20):
        x, y = (int(rng.choice(dom)) for _ in range(2))
        assert S.bilinear(x, y) == S.bilinear(y, x)
        # B is additive in each slot
        z = int(rng.choice(dom))
        assert S.bilinear(c214.add(x, z), y) == c214.add(S.bilinear(x, y),
                                                         S.bilinear(z, y))


def test_do_homogeneity(c313):
    rng = np.random.default_rng(11)
    dom = c313.subfield_elements("qn")
    f = DOPoly(c313, {(0, 1): int(rng.choice(dom)), (1, 2): int(rng.choice(dom)),
                      (0, 0): int(rng.choice(dom))})
    for lam in c313.subfield_elements("q"):
        lam = int(lam)
        for x in rng.choice(dom, 10):
            x = int(x)
            assert f(c313.mul(lam, x)) == c313.mul(c313.mul(lam, lam), f(x))


# -- permutation criteria ---------------------------------------------------------


def test_square_map_permutes_char2(c213):
    f = DOPoly(c213, {(0, 0): 1})
    assert is_permutation_brute(f)
    assert is_permutation_via_rank(f)


def test_norm_map_does_not_permute(c212):
    f = DOPoly(c212, {(0, 1): 1})          # X^(1+q) = field norm to F_2
    assert not is_permutation_brute(f)
    assert not is_permutation_via_rank(f)


def test_rank_criterion_matches_brute(c214):
    rng = np.random.default_rng(12)
    dom = c214.subfield_elements("qn")
    for _ in range(40):
        coeffs = {(i, j): int(rng.choice(dom))
                  for i in range(4) for j in range(i, 4)}
        f = DOPoly(c214, coeffs)
        assert is_permutation_via_rank(f) == is_permutation_brute(f)


def test_rank_criterion_rejects_odd_q(c313):
    with pytest.raises(ValueError):
        is_permutation_via_rank(DOPoly(c313, {(0, 0): 1}))


def test_permutes_cosets_square_map(c313, c312):
    # X^2 is a bijection on cosets mod F_q^* exactly when q^n is not 1 mod 4;
    # in F_27 squaring permutes the 13 cosets, in F_9 it folds them
    assert permutes_cosets(DOPoly(c313, {(0, 0): 1}))
    assert not permutes_cosets(DOPoly(c312, {(0, 0): 1}))


def test_coset_representatives_size(c313, c312):
    assert len(coset_representatives(c313, "qn")) == 13
    assert len(coset_representatives(c312, "qn")) == 4


def _canon_table_scalar(ctx, field_k):
    """Reference: element by element, divide x by its last nonzero
    coordinate from the scalar FieldCtx.coords; no discrete logs."""
    out = np.zeros(ctx.N, dtype=np.int64)
    for x in ctx.subfield_elements(field_k)[1:].tolist():
        cs = ctx.coords(x, field_k, "q")
        last = next(c for c in reversed(cs) if c != 0)
        out[x] = ctx.div(x, last)
    return out


@pytest.mark.parametrize("tower", [(3, 1, 2), (5, 1, 2), (3, 1, 3), (2, 1, 3), (3, 2, 2)],
                         ids=str)
def test_canon_table_matches_scalar_reference(tower):
    # the log-mod-R classes and the canonical-divisor classes are the same
    # partition of the units, and the representatives meet each class once
    ctx = build_tower(*tower)
    R = (ctx.N - 1) // (ctx.q - 1)
    for field_k in sorted({ctx.e, ctx.n * ctx.e, ctx.d}):
        units = ctx.subfield_elements(field_k)[1:]
        canon = _canon_table_scalar(ctx, field_k)
        by_log = (ctx.log[units] % R).tolist()
        pairs = set(zip(canon[units].tolist(), by_log))
        classes = (ctx.p ** field_k - 1) // (ctx.q - 1)
        assert len(pairs) == len(set(by_log)) == len(set(canon[units].tolist())) == classes
        reps = coset_representatives(ctx, field_k)
        assert reps == sorted(reps) and len(reps) == classes
        assert len({int(canon[r]) for r in reps}) == classes


def _permutes_cosets_scalar(f, canon):
    """Reference: evaluate f with DOPoly.__call__ at one element of each
    coset, the cosets taken from the scalar canonical table."""
    ctx = f.ctx
    reps = sorted({int(canon[int(x)]) for x in ctx.subfield_elements(f.field_k)[1:]})
    seen = set()
    for r in reps:
        v = f(r)
        if v == 0:
            return False
        seen.add(int(canon[v]))
    return len(seen) == len(reps)


# X^2 and 200 seeded forms each; at n = 2 none of them permutes the cosets,
# at (3,3) X^2 does, so both verdicts are compared
@pytest.mark.parametrize("q, n, some_permute", [(3, 2, False), (5, 2, False), (3, 3, True)])
def test_permutes_cosets_matches_scalar_reference(q, n, some_permute):
    ctx = build_tower(q, 1, n)
    dom = ctx.subfield_elements("qn")
    rng = np.random.default_rng(q * 10 + n)
    forms = [DOPoly(ctx, {(0, 0): 1})] + [
        DOPoly(ctx, {(i, j): int(rng.choice(dom)) for i in range(n) for j in range(i, n)})
        for _ in range(200)]
    canon = _canon_table_scalar(ctx, ctx.n * ctx.e)
    verdicts = []
    for f in forms:
        verdicts.append(permutes_cosets(f))
        assert verdicts[-1] == _permutes_cosets_scalar(f, canon), f
    assert any(verdicts) == some_permute and not all(verdicts)


def test_permutes_cosets_zero_value_fails(c313):
    # trace-like DO polynomial with nontrivial zero set cannot act on cosets
    f = DOPoly(c313, {(0, 0): 1, (1, 1): c313.neg(1)})   # x^2 - x^(2q)
    assert not permutes_cosets(f)


def test_dopoly_index_folding(c313):
    # (1,0) swaps to (0,1); exponent 3 folds mod n=3 to 0, so (3,1) -> (0,1)
    assert DOPoly(c313, {(1, 0): 2}) == DOPoly(c313, {(0, 1): 2})
    assert DOPoly(c313, {(3, 1): 1}) == DOPoly(c313, {(0, 1): 1})
    # colliding keys add; 2 + 1 = 0 in characteristic 3
    assert DOPoly(c313, {(1, 0): 2, (3, 1): 1}).is_zero()


def test_dopoly_json_round_trip(c313, c321):
    dom = c313.subfield_elements("qn")
    f = DOPoly(c313, {(0, 0): 2, (1, 2): int(dom[5])})
    doc = f.to_json()
    assert doc["base"] == "p"          # e = 1, so base field is the prime field
    assert DOPoly.from_json(c313, doc) == f
    g = DOPoly(c321, {(0, 1): 1}, "qn", "q")
    assert g.to_json()["base"] == "q"  # e = 2 distinguishes the q-grading
    assert DOPoly.from_json(c321, g.to_json()) == g


def test_quadspace_rejects_bad_tables(c213):
    dom = c213.subfield_elements("qn")
    vals = np.zeros(len(dom), dtype=np.int64)
    vals[0] = 1
    with pytest.raises(ValueError):
        QuadSpace(c213, vals, "qn")        # must vanish at 0
    out = next(int(x) for x in dom if not c213.in_subfield(int(x), "q"))
    vals = np.zeros(len(dom), dtype=np.int64)
    vals[3] = out
    with pytest.raises(ValueError):
        QuadSpace(c213, vals, "qn")        # values must land in F_q


@pytest.mark.parametrize("x", [-1, 64], ids=["minus-1", "N"])
def test_quadspace_value_refuses_non_encodings(c213, x):
    S = QuadSpace.from_trace(c213, DOPoly(c213, {(0, 1): 1}, "q2n"), 1)
    with pytest.raises(ValueError, match="not in V"):
        S.value(x)


@pytest.mark.parametrize("pen", [(3, 1, 2), (5, 1, 2), (2, 1, 3)], ids=str)
def test_values_computed_once_and_read_only(pen):
    ctx = build_tower(*pen)
    rng = np.random.default_rng(42)
    dom = ctx.subfield_elements("qn")
    for _ in range(4):
        f = DOPoly(ctx, {(i, j): int(rng.choice(dom))
                         for i in range(ctx.n) for j in range(i, ctx.n)})
        vals = f.values()
        assert f.values() is vals
        with pytest.raises(ValueError):
            vals[0] = 1
        fresh = DOPoly(ctx, f.coeffs)
        # the stored table is not part of the polynomial's identity
        assert f == fresh and hash(f) == hash(fresh)
        assert DOPoly.from_json(ctx, f.to_json()) == f
        assert np.array_equal(vals, fresh.values())
        assert vals.tolist() == [f(int(x)) for x in dom]
    empty = DOPoly(ctx, {})
    assert empty.values().dtype == np.int64
    assert empty.values().tolist() == [0] * len(dom)
    assert not empty.values().flags.writeable


@pytest.mark.parametrize("pen, tags", [((3, 1, 3), ("qn", "q")), ((5, 1, 2), ("qn", "q")),
                                       ((2, 2, 3), ("qn", "p"))], ids=str)
def test_row_construction_matches_init(pen, tags):
    # DOPoly._rows over canonical keys and a coefficient array gives the
    # polynomials DOPoly(...) gives: equal, same hash, same read-only table
    ctx = build_tower(*pen)
    field_k, base_k = (ctx.tag_degree(t) for t in tags)
    m = field_k // base_k
    keys = [(i, j) for i in range(m) for j in range(i, m)]
    rng = np.random.default_rng(7)
    dom = ctx.subfield_elements(field_k)
    coeffs = rng.choice(dom, (12, len(keys)))
    coeffs[0] = 0                                   # the zero polynomial
    coeffs[1, 1:] = 0                               # one term
    table = _key_rows(ctx, field_k, base_k, keys, coeffs)
    assert table.shape == (12, len(dom))
    made = DOPoly._rows(ctx, field_k, base_k, keys, coeffs, table)
    assert len(made) == 12
    for f, row in zip(made, coeffs.tolist()):
        g = DOPoly(ctx, {key: c for key, c in zip(keys, row)}, field_k, base_k)
        assert f == g and hash(f) == hash(g) and f.coeffs == g.coeffs
        assert np.array_equal(f.values(), g.values())
        assert not f.values().flags.writeable
        assert f.values().tolist() == [g(int(x)) for x in dom]
