"""Planar functions, the presemifields they generate, and rank two
commutative semifields (RTCS)."""

import itertools

import numpy as np
import pytest

from spreadlab import (DOPoly, QPoly, RtcsSpec, build_tower, coset_representatives,
                       is_planar_2to1, is_planar_direct, middle_nucleus, middle_nucleus_elements,
                       normalize, nucleus, nucleus_elements,
                       planar_family_check, planar_to_presemifield, psi_image_check,
                       psi_map, q_from_component, q_from_pair, q_from_pairs,
                       rtcs_build, rtcs_check, zeta_element)
import spreadlab.semifield as semifield
from spreadlab.semifield import Presemifield


# -- planarity tests ---------------------------------------------------------------


def test_square_map_planar(c312, c313):
    for ctx in (c312, c313):
        f = DOPoly(ctx, {(0, 0): 1})
        assert is_planar_direct(f)
        assert is_planar_2to1(f)


def test_x_q_plus_1(c312, c313):
    # x^(q+1) is planar over F_(q^m) iff m is odd
    assert not is_planar_direct(DOPoly(c312, {(0, 1): 1}))
    assert is_planar_direct(DOPoly(c313, {(0, 1): 1}))


def test_planar_rejects_char2(c213):
    f = DOPoly(c213, {(0, 0): 1})
    with pytest.raises(ValueError):
        is_planar_direct(f)
    with pytest.raises(ValueError):
        is_planar_2to1(f)


def test_planar_requires_dopoly_or_table(c312):
    with pytest.raises(TypeError):
        is_planar_2to1("junk")
    with pytest.raises(TypeError, match="expected a DOPoly"):
        is_planar_direct(DOPoly(c312, {(0, 0): 1}).values())    # a raw value table


def test_direct_matches_2to1_random(c312):
    rng = np.random.default_rng(13)
    dom = c312.subfield_elements("qn")
    for _ in range(60):
        coeffs = {(i, j): int(rng.choice(dom))
                  for i in range(2) for j in range(i, 2)}
        f = DOPoly(c312, coeffs)
        assert is_planar_direct(f) == is_planar_2to1(f)


@pytest.mark.parametrize("tower", [(3, 1, 1), (3, 1, 2), (5, 1, 1), (7, 1, 1), (3, 2, 1)],
                         ids=str)
def test_two_to_one_at_reps_matches_both_references(tower):
    # seeded DO tables on F_{q^2n} graded over F_q, read at the
    # representatives of F_{q^2n}^* / F_q^*, against the full-row count and
    # the difference maps; half are random, half c L(x)^2 for a random
    # q-polynomial L (planar exactly when L permutes), so both verdicts show
    ctx = build_tower(*tower)
    rng = np.random.default_rng(17)
    m = 2 * ctx.n
    keys = [(i, j) for i in range(m) for j in range(i, m)]
    polys = []
    for _ in range(20):
        polys.append(DOPoly(ctx, {k: int(rng.integers(ctx.N)) for k in keys}, "q2n", "q"))
        a, c = rng.integers(ctx.N, size=m).tolist(), int(rng.integers(1, ctx.N))
        polys.append(DOPoly(ctx, {(i, j): ctx.mul(ctx.mul(c, 1 if i == j else 2),
                                                  ctx.mul(a[i], a[j]))
                                  for i, j in keys}, "q2n", "q"))
    table = np.stack([f.values() for f in polys])      # aligned with 0 .. N-1
    reps = np.array(coset_representatives(ctx, "q2n"))
    got = semifield._two_to_one_at_reps(ctx, table[:, reps])
    assert got.dtype == bool and got.shape == (len(polys),)
    assert got.tolist() == semifield._two_to_one(ctx, table).tolist()
    assert got.tolist() == [is_planar_direct(f) for f in polys]
    assert 0 < got.sum() < len(polys)
    assert semifield._two_to_one_at_reps(ctx, table[:, reps].reshape(4, 10, -1)) \
        .reshape(-1).tolist() == got.tolist()
    # for q > 3 a class holds (q-1)/2 values: rows whose values at the
    # representatives are distinct and nonzero need not be planar
    distinct = [0 not in row and len(set(row)) == len(row) for row in table[:, reps].tolist()]
    assert (ctx.q > 3) == any(d and not g for d, g in zip(distinct, got.tolist()))


# -- presemifields from planar functions ---------------------------------------------


def test_square_map_gives_field_isotope(c312):
    S = planar_to_presemifield(DOPoly(c312, {(0, 0): 1}))
    assert S.is_commutative()
    assert not S.has_zero_divisors()
    # x * y = (x+y)^2 - x^2 - y^2 = 2xy
    two = c312.add(1, 1)
    for x in c312.subfield_elements("qn")[:5]:
        for y in c312.subfield_elements("qn")[:5]:
            assert S.mul(int(x), int(y)) == c312.mul(two, c312.mul(int(x), int(y)))
    assert nucleus(S) == 9 and middle_nucleus(S) == 9


def test_presemifield_rejects_nonplanar(c312):
    with pytest.raises(ValueError):
        planar_to_presemifield(DOPoly(c312, {(0, 1): 1}))


def test_normalize_installs_identity(c312):
    S = planar_to_presemifield(DOPoly(c312, {(0, 0): 1}))
    e = int(c312.subfield_elements("qn")[3])
    T = normalize(S, e)
    assert T.identity() == S.mul(e, e)
    # normalizing at the identity is then a no-op
    again = normalize(T, T.identity())
    assert np.array_equal(again.table, T.table)


def test_normalize_refuses_a_non_invertible_e(c312):
    # x * y = x y except that row e maps two y to one value (then column e
    # too): multiplication by e is no permutation on either side
    S = planar_to_presemifield(DOPoly(c312, {(0, 0): 1}))
    e = 5
    for side in ("row", "column"):
        table = S.table.copy()
        if side == "row":
            table[e, 1] = table[e, 2]
        else:
            table[1, e] = table[2, e]
        with pytest.raises(ValueError, match="not invertible"):
            normalize(Presemifield(c312, table, "qn"), int(S.elems[e]))


@pytest.mark.parametrize("x", [-1, 729], ids=["minus-1", "N"])
def test_presemifield_refuses_non_encodings(c313, x):
    # -1 and N are no encodings: neither may wrap to the end of the
    # position table or index past it
    S = planar_to_presemifield(DOPoly(c313, {(0, 0): 1}, "q2n"))
    with pytest.raises(ValueError, match="outside the presemifield"):
        S.mul(x, 1)
    with pytest.raises(ValueError, match="nonzero field element"):
        normalize(S, x)


def test_nucleus_needs_identity(c312):
    # x * y = x^p y is a presemifield with no two-sided identity
    dom = c312.subfield_elements("qn")
    pos = c312.element_index("qn")
    xq = c312.frob_table(1)[dom]
    table = pos[c312.vmul(xq[:, None], dom[None, :])]
    S = Presemifield(c312, table, "qn")
    assert not S.has_zero_divisors()
    assert S.identity_index() is None
    with pytest.raises(ValueError):
        nucleus(S)
    # normalization repairs it and recovers the field
    T = normalize(S, 1)
    assert nucleus(T) == 9


def test_nucleus_elements_form_subfield(c312):
    S = planar_to_presemifield(DOPoly(c312, {(0, 0): 1}))
    els = nucleus_elements(S)
    assert sorted(els) == [int(x) for x in c312.subfield_elements("qn")]


def _nucleus_masks_by_element(S):
    """The nuclei's reference: one a at a time, (a*x)*y against a*(x*y) and
    (x*a)*y against x*(a*y) as two whole M x M tables."""
    T = S.table
    M = S.size
    left = np.zeros(M, dtype=bool)
    middle = np.zeros(M, dtype=bool)
    for a in range(M):
        left[a] = np.array_equal(T[T[a, :], :], T[a][T])
        middle[a] = np.array_equal(T[T[:, a], :], T[:, T[a, :]])
    return left, middle


def _twisted_semifields(ctx):
    """The normalized presemifields of the planar L(x)^2 - w x^2, L = x^(q^i),
    w = delta^-2, over every admissible delta and i = 1, 2."""
    out = []
    for i in (1, 2):
        for d in ctx.find_deltas():
            w = ctx.inv(ctx.mul(int(d), int(d)))
            Q = DOPoly(ctx, {(i, i): 1, (0, 0): ctx.neg(w)})
            if is_planar_2to1(Q):
                out.append(normalize(planar_to_presemifield(Q), 1))
    return out


def test_nucleus_masks_match_the_per_element_reference(c313, c321):
    # the 52 twisted instances at (3,3), and the Dickson semifield at q = 9,
    # whose nucleus (F_3) is smaller than its middle nucleus (F_9)
    instances = _twisted_semifields(c313) + [rtcs_build(_dickson(c321, 1))]
    assert len(instances) == 53
    for S in instances:
        got, want = semifield._nucleus_masks(S), _nucleus_masks_by_element(S)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("per", [1, 5, 26, 27])
def test_nucleus_masks_on_block_edges(c313, c321, monkeypatch, per):
    # blocks of `per` values of a: 27 = 5 * 5 + 2 and 26 + 1 leave a short
    # last block, 27 is one block at (3,3); at q = 9 (M = 81) 81 = 3 * 27
    instances = [_twisted_semifields(c313)[7], rtcs_build(_dickson(c321, 1))]
    for S in instances:
        want = _nucleus_masks_by_element(S)
        monkeypatch.setattr(semifield, "_BLOCK", per * S.size ** 2)
        got = semifield._nucleus_masks(S)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# -- rank two commutative semifields ---------------------------------------------------


def _dickson(ctx, sigma_exp):
    t = next(int(x) for x in ctx.subfield_elements(2 * ctx.e)
             if not ctx.in_subfield(int(x), "q"))
    m = ctx.least_nonsquare("q")
    g = QPoly.zero(ctx, "q", 1)
    f = QPoly(ctx, {sigma_exp: m}, "q", 1)
    return RtcsSpec(ctx, t, g, f)


def test_dickson_q3_is_field(c311):
    spec = _dickson(c311, 0)           # sigma = id degenerates to the field
    assert rtcs_check(spec)
    S = rtcs_build(spec)
    assert S.is_commutative() and not S.has_zero_divisors()
    assert S.identity() == 1
    assert nucleus(S) == 9 and middle_nucleus(S) == 9


def test_dickson_q9_proper_semifield(c321):
    spec = _dickson(c321, 1)           # sigma = cube map on F_9
    assert rtcs_check(spec)
    S = rtcs_build(spec)
    assert S.is_commutative() and not S.has_zero_divisors()
    # middle nucleus is exactly F_q; the nucleus shrinks to the fixed
    # field of sigma, so this plane is not Desarguesian
    assert middle_nucleus(S) == 9
    assert nucleus(S) == 3


def test_dickson_q9_nucleus_elements(c321):
    # element by element: the middle nucleus is F_q and the nucleus F_p
    S = rtcs_build(_dickson(c321, 1))
    assert sorted(middle_nucleus_elements(S)) == sorted(c321.subfield_elements("q").tolist())
    assert sorted(nucleus_elements(S)) == sorted(c321.subfield_elements("p").tolist())


def test_rtcs_check_failures(c311):
    t = next(int(x) for x in c311.subfield_elements(2) if not c311.in_subfield(int(x), "q"))
    # f = z with square coefficient: g^2 + 4xf = 4x^2 is a square
    bad_f = RtcsSpec(c311, t, QPoly.zero(c311, "q", 1), QPoly(c311, {0: 1}, "q", 1))
    assert not rtcs_check(bad_f)
    # g = id, f = 0: g^2 + 4xf = x^2 is a square
    bad_g = RtcsSpec(c311, t, QPoly.identity(c311, "q", 1), QPoly.zero(c311, "q", 1))
    assert not rtcs_check(bad_g)
    with pytest.raises(ValueError):
        rtcs_build(bad_f)


def test_rtcs_rejects_char2(c212):
    t = next(int(x) for x in c212.subfield_elements(2) if not c212.in_subfield(int(x), "q"))
    spec = RtcsSpec(c212, t, QPoly.zero(c212, "q", 1), QPoly.zero(c212, "q", 1))
    with pytest.raises(ValueError):
        rtcs_check(spec)


def test_rtcs_spec_validation(c311):
    g = QPoly.zero(c311, "q", 1)
    with pytest.raises(ValueError):
        RtcsSpec(c311, 1, g, g)        # t inside F_q
    t = next(int(x) for x in c311.subfield_elements(2) if not c311.in_subfield(int(x), "q"))
    with pytest.raises(ValueError):
        RtcsSpec(c311, t, QPoly.zero(c311, 2, 1), g)   # g not a map of F_q


# -- conjugate products ------------------------------------------------------------------


def test_q_from_component_zero_L(c313):
    delta = c313.find_deltas()[0]
    Q = q_from_component(QPoly.zero(c313), delta)
    assert Q == DOPoly(c313, {(0, 0): 1})


def test_q_from_component_monomial(c313):
    # delta^(q^n) = -delta makes the cross term vanish:
    # (X + d X^q)(X - d X^q) = X^2 - d^2 X^(2q)
    delta = c313.find_deltas()[0]
    Q = q_from_component(QPoly.monomial(c313, 1), delta)
    w = c313.mul(delta, delta)
    assert Q == DOPoly(c313, {(0, 0): 1, (1, 1): c313.neg(w)})


def test_q_from_pair_values(c313):
    rng = np.random.default_rng(14)
    dom = c313.subfield_elements("qn")
    delta = c313.find_deltas()[5]
    dconj = c313.pow(delta, 27)
    for _ in range(5):
        A = QPoly(c313, [int(rng.choice(dom)) for _ in range(3)])
        B = QPoly(c313, [int(rng.choice(dom)) for _ in range(3)])
        Q = q_from_pair(A, B, delta)
        for x in rng.choice(dom, 10):
            x = int(x)
            lhs = c313.mul(c313.add(A(x), c313.mul(delta, B(x))),
                           c313.add(A(x), c313.mul(dconj, B(x))))
            assert Q(x) == lhs


def test_q_from_pair_checks_its_expansion(c313, monkeypatch):
    # one expanded coefficient perturbed while the product side is left as
    # it is: the check compares the result's own table with the product
    A, B = QPoly.identity(c313), QPoly.monomial(c313, 1, 2)
    delta = c313.find_deltas()[0]
    q_from_pair(A, B, delta)
    real = semifield._pair_coeffs

    def perturbed(*args):
        keys, coeffs = real(*args)
        coeffs[0, 0] = c313.add(int(coeffs[0, 0]), 1)
        return keys, coeffs

    monkeypatch.setattr(semifield, "_pair_coeffs", perturbed)
    with pytest.raises(RuntimeError, match="disagrees"):
        q_from_pair(A, B, delta)


def test_q_from_pair_rejects_inside_delta(c313):
    with pytest.raises(ValueError):
        q_from_component(QPoly.monomial(c313, 1), 1)


def _scalar_product(ctx, A, B, delta, x):
    """(A(x) + delta B(x)) (A(x) + delta^(q^n) B(x)) by scalar arithmetic."""
    dconj = ctx.frob(delta, ctx.n * ctx.e)
    a, b = A(x), B(x)
    return ctx.mul(ctx.add(a, ctx.mul(delta, b)), ctx.add(a, ctx.mul(dconj, b)))


@pytest.mark.parametrize("scan", ["odd-3-2", "even3-2"])
def test_q_from_pairs_matches_scalar_partners(scan):
    # every (L, delta) of the odd (3,2) and the even3 q = 2 scan: each batch
    # table equals the result's own scalar evaluation and the scalar product
    if scan == "odd-3-2":
        ctx = build_tower(3, 1, 2)
        deltas = ctx.find_deltas()
        dom = [int(x) for x in ctx.subfield_elements("qn")]
        pairs = [(QPoly.identity(ctx), QPoly(ctx, list(c)))
                 for c in itertools.product(dom, repeat=2)]
    else:
        ctx = build_tower(2, 1, 3)
        deltas = [d for d in range(ctx.N) if not ctx.in_subfield(d, "qn")]
        dom = [int(x) for x in ctx.subfield_elements("qn")]
        pairs = [(QPoly(ctx, {0: d0, 1: d1, 2: 1}), QPoly.identity(ctx))
                 for d0, d1 in itertools.product(dom, repeat=2)]
    checked = 0
    for A, B in pairs:
        for delta, Q in zip(deltas, q_from_pairs(A, B, deltas)):
            vals = Q.values()
            assert not vals.flags.writeable
            assert vals.tolist() == [Q(x) for x in dom]
            assert vals.tolist() == [_scalar_product(ctx, A, B, delta, x) for x in dom]
            checked += 1
    assert checked == (648 if scan == "odd-3-2" else 3584)


def test_q_from_pairs_checks_every_expansion(monkeypatch):
    # the whole 24-delta batch is expanded in one call; one coefficient in
    # its middle perturbed (a wrong table) or moved outside F_{q^n} (a
    # refused coefficient) stops the batch
    ctx = build_tower(5, 1, 2)
    deltas = ctx.find_deltas()
    assert len(deltas) == 24
    A, B = QPoly.identity(ctx), QPoly(ctx, [2, 3])
    q_from_pairs(A, B, deltas)
    real = semifield._pair_coeffs
    outside = next(x for x in range(ctx.N) if not ctx.in_subfield(x, "qn"))

    def setting(value):
        def expand(*args):
            keys, coeffs = real(*args)
            assert coeffs.shape == (24, len(keys))
            coeffs[12, 1] = value(int(coeffs[12, 1]))
            return keys, coeffs
        return expand

    monkeypatch.setattr(semifield, "_pair_coeffs", setting(lambda c: ctx.add(c, 1)))
    with pytest.raises(RuntimeError, match="disagrees"):
        q_from_pairs(A, B, deltas)
    monkeypatch.setattr(semifield, "_pair_coeffs", setting(lambda c: outside))
    with pytest.raises(ValueError, match="not in the domain field"):
        q_from_pairs(A, B, deltas)


@pytest.mark.parametrize("inside", [0, 1, "primitive"])
def test_q_from_pairs_rejects_inside_delta_anywhere(c312, inside):
    if inside == "primitive":
        inside = c312.subfield_primitive("qn")
    deltas = c312.find_deltas()
    A, B = QPoly.identity(c312), QPoly.monomial(c312, 1)
    for k in range(len(deltas) + 1):
        with pytest.raises(ValueError, match="outside the domain field"):
            q_from_pairs(A, B, [*deltas[:k], inside, *deltas[k:]])


# -- the pair decomposition map ------------------------------------------------------------


def test_psi_map_values(c312):
    z = zeta_element(c312)
    B = int(c312.subfield_elements("qn")[4])
    C = int(c312.subfield_elements("qn")[7])
    y = c312.add(c312.mul(B, z), C)
    assert psi_map(c312, z, y) == (0, B, C)
    assert psi_map(c312, 1, 1) == (1, 0, 0)


def test_psi_image(c312):
    assert psi_image_check(c312)


def test_psi_map_refuses_non_encodings():
    # unchecked, -3 reads as N - 3 and N + 3 raises numpy's bare IndexError
    ctx = build_tower(3, 1, 3)
    for bad in (-3, ctx.N + 3):
        with pytest.raises(ValueError, match=f"x = {bad} is not an element encoding"):
            psi_map(ctx, bad, 1)
        with pytest.raises(ValueError, match=f"y = {bad} is not an element encoding"):
            psi_map(ctx, 1, bad)


def test_psi_rejects_char2(c212):
    with pytest.raises(ValueError):
        psi_map(c212, 1, 1)


# -- the two-term planar family -------------------------------------------------------------


def test_planar_family_boundary(c313):
    w = c313.least_nonsquare("q2n")
    assert planar_family_check(c313, 1, 0, w, 1)
    assert planar_family_check(c313, 0, 1, w, 1)
    assert not planar_family_check(c313, 1, 1, w, 1)


def test_planar_family_preconditions(c313, c312):
    w = c313.least_nonsquare("q2n")
    with pytest.raises(ValueError):
        planar_family_check(c313, 1, 0, 1, 1)        # w = 1 is a square
    with pytest.raises(ValueError):
        planar_family_check(c313, 1, 0, w, 3)        # gcd(k, m) != 1
    with pytest.raises(ValueError):
        planar_family_check(c312, 1, 0, c312.least_nonsquare("q2n"), 1)   # m < 3
    for k in (-1, 0):              # gcd(-1, 3) = 1, and k = -1 read as 2m - 1
        with pytest.raises(ValueError, match=f"need k >= 1 \\(got {k}\\)"):
            planar_family_check(c313, 1, 0, w, k)


def test_planar_family_refuses_non_encodings(c313):
    # unchecked, a = -3 reads as N - 3 (planar, since b = 0) and N + 3
    # raises numpy's bare IndexError; is_square refuses a bad w
    w = c313.least_nonsquare("q2n")
    for bad in (-3, c313.N + 3):
        with pytest.raises(ValueError, match=f"a = {bad} is not an element encoding"):
            planar_family_check(c313, bad, 0, w, 1)
        with pytest.raises(ValueError, match=f"b = {bad} is not an element encoding"):
            planar_family_check(c313, 0, bad, w, 1)
        with pytest.raises(ValueError, match=f"element {bad} "):
            planar_family_check(c313, 1, 0, bad, 1)
