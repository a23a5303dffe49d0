"""Reduced q-polynomial algebra: evaluation, composition, adjoint, kernels."""

import numpy as np
import pytest

from spreadlab import (DOPoly, QPoly, adjoint, assoc_matrix, build_tower, compose,
                       is_permutation, kernel_basis, kernel_dim, linearity_field)
from spreadlab.field import FieldCtx


def _rand_qpoly(ctx, rng):
    dom = ctx.subfield_elements("qn")
    return QPoly(ctx, [int(rng.choice(dom)) for _ in range(ctx.n)])


def test_eval_identity_and_trace(c313):
    L = QPoly.identity(c313)
    T = QPoly.trace_poly(c313)
    for x in c313.subfield_elements("qn")[:10]:
        assert L(int(x)) == int(x)
    # trace of a base-field element is n*x; n = 3 = char, so it vanishes
    assert all(T(int(x)) == 0 for x in c313.subfield_elements("q"))
    # and the trace does land in F_q
    for x in c313.subfield_elements("qn"):
        assert c313.in_subfield(T(int(x)), "q")


def test_eval_additive(c313):
    rng = np.random.default_rng(0)
    L = _rand_qpoly(c313, rng)
    dom = c313.subfield_elements("qn")
    for _ in range(20):
        x, y = (int(rng.choice(dom)) for _ in range(2))
        assert L(c313.add(x, y)) == c313.add(L(x), L(y))


def test_eval_rejects_outside_domain(c313):
    L = QPoly.identity(c313)
    outside = next(x for x in range(c313.N) if not c313.in_subfield(x, "qn"))
    with pytest.raises(ValueError):
        L(outside)


@pytest.mark.parametrize("bad", [10 ** 6, -1, 729])
def test_coefficients_must_be_domain_encodings(c313, bad):
    for make in (lambda c: QPoly(c313, [c]), lambda c: DOPoly(c313, {(0, 1): c})):
        with pytest.raises(ValueError, match="not in the domain field"):
            make(bad)


def test_qpoly_and_dopoly_share_one_core(c313):
    # equal canonical coefficients never make a QPoly equal a DOPoly
    L, f = QPoly.zero(c313), DOPoly(c313, {})
    assert L.is_zero() and f.is_zero()
    assert L != f and f != L
    assert not QPoly.identity(c313).is_zero() and not DOPoly(c313, {(0, 0): 1}).is_zero()
    assert repr(QPoly.monomial(c313, 1, 2)) == "QPoly([0, 2, 0], field_k=3, base_k=1)"
    assert repr(DOPoly(c313, {(1, 0): 2})) == "DOPoly([(0, 1, 2)], field_k=3, base_k=1)"
    for cls in (QPoly, DOPoly):
        obj = cls(c313, {}, "qn", "q")
        assert (obj.m, obj.s) == (3, 3)
        assert not hasattr(obj, "__dict__")
        with pytest.raises(ValueError, match="grading base field does not divide"):
            cls(c313, {}, 2, 3)


def test_compose_monomials(c313):
    Xq = QPoly.monomial(c313, 1)
    sq = compose(Xq, Xq)
    assert sq.coeffs == QPoly.monomial(c313, 2).coeffs
    # exponent indices wrap mod n
    cube = compose(sq, Xq)
    assert cube.coeffs == QPoly.identity(c313).coeffs


def test_compose_with_identity(c313):
    rng = np.random.default_rng(1)
    L = _rand_qpoly(c313, rng)
    assert compose(L, QPoly.identity(c313)).coeffs == L.coeffs
    assert compose(QPoly.identity(c313), L).coeffs == L.coeffs


def test_compose_pointwise(c313):
    rng = np.random.default_rng(2)
    dom = c313.subfield_elements("qn")
    for _ in range(5):
        L, M = _rand_qpoly(c313, rng), _rand_qpoly(c313, rng)
        C = compose(L, M)
        for x in rng.choice(dom, 20):
            assert C(int(x)) == L(M(int(x)))


def test_compose_associative(c313):
    rng = np.random.default_rng(3)
    A, B, C = (_rand_qpoly(c313, rng) for _ in range(3))
    left = compose(compose(A, B), C)
    right = compose(A, compose(B, C))
    assert left.coeffs == right.coeffs


def test_adjoint_monomial(c313):
    # adjoint of X^q has its coefficient on X^(q^(n-1))
    Xq = QPoly.monomial(c313, 1)
    assert adjoint(Xq).coeffs == QPoly.monomial(c313, c313.n - 1).coeffs


def test_adjoint_trace_self(c313):
    T = QPoly.trace_poly(c313)
    assert adjoint(T).coeffs == T.coeffs


def test_adjoint_involution_and_bilinear(c313):
    rng = np.random.default_rng(4)
    dom = c313.subfield_elements("qn")
    for _ in range(5):
        L = _rand_qpoly(c313, rng)
        assert adjoint(adjoint(L)).coeffs == L.coeffs
        Lt = adjoint(L)
        for _ in range(20):
            u, v = (int(rng.choice(dom)) for _ in range(2))
            lhs = c313.trace(c313.mul(u, L(v)), "qn", "q")
            rhs = c313.trace(c313.mul(Lt(u), v), "qn", "q")
            assert lhs == rhs


def test_assoc_matrix_layout(c313):
    rng = np.random.default_rng(5)
    L = _rand_qpoly(c313, rng)
    M = assoc_matrix(L)
    n = c313.n
    for i in range(n):
        for j in range(n):
            want = c313.pow(L.coeffs[(j - i) % n], c313.q ** i)
            assert M[i][j] == want


def test_kernel_dims(c313):
    assert kernel_dim(QPoly.identity(c313)) == 0
    assert kernel_dim(QPoly.trace_poly(c313)) == c313.n - 1


def test_kernel_dim_vs_brute(c313):
    rng = np.random.default_rng(6)
    for _ in range(50):
        L = _rand_qpoly(c313, rng)
        zeros = int(np.count_nonzero(L.values() == 0))
        brute = 0
        while 3 ** brute < zeros:
            brute += 1
        assert kernel_dim(L) == brute


def test_kernel_basis_frobenius(c313):
    # X^q - X vanishes exactly on F_q
    L = QPoly(c313, {1: 1, 0: c313.neg(1)})
    basis = kernel_basis(L)
    assert len(basis) == 1
    span = {0}
    for c in c313.subfield_elements("q"):
        span.add(c313.mul(int(c), basis[0]))
    assert span == set(int(x) for x in c313.subfield_elements("q"))


def test_kernel_basis_subspace_polynomial(c313):
    # product over a 1-dim subspace U = F_q*u collapses to X^q - u^(q-1) X
    u = int(c313.subfield_primitive("qn"))
    L = QPoly(c313, {1: 1, 0: c313.neg(c313.pow(u, c313.q - 1))})
    ker = {int(x) for x in c313.subfield_elements("qn") if L(int(x)) == 0}
    U = {c313.mul(int(c), u) for c in c313.subfield_elements("q")}
    assert ker == U
    assert kernel_dim(L) == 1


def test_is_permutation(c313):
    assert is_permutation(QPoly.identity(c313))
    assert kernel_basis(QPoly.identity(c313)) == []
    assert not is_permutation(QPoly.trace_poly(c313))


def test_rank_nullity(c313):
    rng = np.random.default_rng(7)
    for _ in range(25):
        L = _rand_qpoly(c313, rng)
        img = len(np.unique(L.values()))
        k = kernel_dim(L)
        assert 3 ** k * img == 27


def test_linearity_field(c313, c312, c321):
    assert linearity_field(QPoly.monomial(c313, 1)) == c313.e
    # q-degree-2 monomial folds to identity when n = 2, giving full linearity
    L2 = QPoly.monomial(c312, 2)
    assert linearity_field(L2) == 2 * c312.e
    # p-polynomial X^p on a field with e > 1 is only F_p-semilinear
    Lp = QPoly(c321, {1: 1}, field_tag="qn", base_tag=1)
    assert linearity_field(Lp) == 1
    # brute lambda scan agrees
    for L, k in ((QPoly.monomial(c313, 1), 1), (Lp, 1)):
        ctx = L.ctx
        good = []
        dom = ctx.subfield_elements(L.field_k)
        for lam in dom:
            lam = int(lam)
            if all(L(ctx.mul(lam, int(x))) == ctx.mul(lam, L(int(x)))
                   for x in dom):
                good.append(lam)
        assert len(good) == ctx.p ** linearity_field(L)


def test_qpoly_json_round_trip(c313):
    rng = np.random.default_rng(8)
    L = _rand_qpoly(c313, rng)
    doc = L.to_json()
    back = QPoly.from_json(c313, doc)
    assert back.coeffs == L.coeffs


@pytest.mark.parametrize("pen", [(3, 1, 2), (5, 1, 2), (2, 1, 3)], ids=str)
def test_values_computed_once_and_read_only(pen):
    ctx = build_tower(*pen)
    rng = np.random.default_rng(41)
    dom = ctx.subfield_elements("qn")
    for _ in range(4):
        L = _rand_qpoly(ctx, rng)
        vals = L.values()
        assert L.values() is vals
        with pytest.raises(ValueError):
            vals[0] = 1
        fresh = QPoly(ctx, L.coeffs)
        # the stored table is not part of the polynomial's identity
        assert L == fresh and hash(L) == hash(fresh)
        assert L.to_json() == {"coeffs": list(L.coeffs)}
        assert np.array_equal(vals, fresh.values())
        assert vals.tolist() == [L(int(x)) for x in dom]


def test_value_tables_build_only_the_frobenius_tables_they_use():
    # x^(s^i) comes from vpow on the domain: on a fresh tower no value
    # table builds or caches a whole-field Frobenius table
    ctx = FieldCtx(3, 2, 3)
    for L in (QPoly.identity(ctx), QPoly.monomial(ctx, 2, 1), QPoly.zero(ctx),
              QPoly.identity(ctx, "q2n", "q")):
        L.values()
        assert not ctx._frob_cache
