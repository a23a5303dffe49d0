"""Planar functions, the presemifields they generate, and rank two
commutative semifields (RTCS)."""

import numpy as np
import pytest

from spreadlab import (DOPoly, QPoly, RtcsSpec, is_planar_2to1, is_planar_direct,
                       middle_nucleus, middle_nucleus_elements, normalize,
                       nucleus, nucleus_elements,
                       planar_family_check, planar_to_presemifield, psi_image_check,
                       psi_map, q_from_component, q_from_pair, rtcs_build,
                       rtcs_check, zeta_element)
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
    with pytest.raises(TypeError):
        is_planar_direct([0, 1, 2])       # raw table without ctx/field_tag


def test_planar_raw_table_route(c312):
    f = DOPoly(c312, {(0, 0): 1})
    assert is_planar_direct(f.values(), c312, "qn")


def test_direct_matches_2to1_random(c312):
    rng = np.random.default_rng(13)
    dom = c312.subfield_elements("qn")
    for _ in range(60):
        coeffs = {(i, j): int(rng.choice(dom))
                  for i in range(2) for j in range(i, 2)}
        f = DOPoly(c312, coeffs)
        assert is_planar_direct(f) == is_planar_2to1(f)


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


def test_q_from_pair_rejects_inside_delta(c313):
    with pytest.raises(ValueError):
        q_from_component(QPoly.monomial(c313, 1), 1)


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
