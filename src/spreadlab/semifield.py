"""Planar DO polynomials, the presemifields they induce, and rank-two
commutative semifields.

Planarity of f means every difference map x -> f(x+a) - f(x) - f(a), a != 0,
is a bijection (odd characteristic only).  For DO polynomials this is
equivalent to f being 2-to-1 onto its nonzero values with only 0 above 0,
and both routes are implemented independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Elt, FieldCtx
from .linpoly import QPoly
from .quadform import DOPoly, _require_do


def _value_table(f, ctx, field_tag):
    if isinstance(f, DOPoly):
        return f.ctx, f.field_k, f.values()
    if ctx is None or field_tag is None:
        raise TypeError("a raw value table needs ctx and field_tag")
    field_k = ctx.tag_degree(field_tag)
    vals = np.asarray(f, dtype=np.int64)
    if vals.shape != ctx.subfield_elements(field_k).shape:
        raise ValueError("value table does not match the field size")
    return ctx, field_k, vals


def _difference_table(ctx, field_k, vals):
    """D[a, x] = f(x+a) - f(x) - f(a) as position-indexed (M, M) array."""
    dom = ctx.subfield_elements(field_k)
    pos = ctx.element_index(field_k)
    sums = pos[ctx.vadd(dom[:, None], dom[None, :])]
    return ctx.vsub(ctx.vsub(vals[sums], vals[None, :]), vals[:, None])


def is_planar_direct(f, ctx: FieldCtx | None = None, field_tag=None) -> bool:
    """Planarity by checking every difference map for bijectivity.

    f may be a DOPoly or an explicit value table (then ctx and field_tag are
    required).  Odd characteristic only.
    """
    ctx, field_k, vals = _value_table(f, ctx, field_tag)
    if ctx.p == 2:
        raise ValueError("planar functions need odd characteristic")
    M = len(vals)
    pos = ctx.element_index(field_k)
    D = pos[_difference_table(ctx, field_k, vals)]
    ids = (D + np.arange(M, dtype=np.int64)[:, None] * M).reshape(-1)
    counts = np.bincount(ids, minlength=M * M).reshape(M, M)
    return bool(np.all(counts[1:] == 1))


def is_planar_2to1(f: DOPoly) -> bool:
    """Planarity via the 2-to-1 value count criterion for DO polynomials:
    only 0 maps to 0 and every nonzero value has exactly 0 or 2 preimages."""
    _require_do(f)
    if f.ctx.p == 2:
        raise ValueError("planar functions need odd characteristic")
    return _two_to_one(f.ctx, f.values())


def _two_to_one(ctx: FieldCtx, vals) -> bool:
    """Does only 0 take the value 0, and every other value 0 or 2 times?"""
    counts = np.bincount(vals, minlength=ctx.N)
    rest = counts[1:]
    return bool(counts[0] == 1 and np.all((rest == 0) | (rest == 2)))


# -- presemifields ------------------------------------------------------------


class Presemifield:
    """Finite presemifield on a tower field, multiplication as an index table.

    table[i, j] is the index of elems[i] * elems[j] in elems, where elems is
    the sorted encoding list of the field.  A presemifield need not have an
    identity; normalize() produces an isotopic semifield that does.
    """

    def __init__(self, ctx: FieldCtx, table: np.ndarray, field_tag="qn"):
        self.ctx = ctx
        self.field_k = ctx.tag_degree(field_tag)
        self.elems = ctx.subfield_elements(self.field_k)
        table = np.asarray(table, dtype=np.int64)
        M = len(self.elems)
        if table.shape != (M, M):
            raise ValueError("multiplication table has the wrong shape")
        self.table = table
        self._nucleus_sets: tuple | None = None

    @property
    def size(self) -> int:
        return len(self.elems)

    def mul(self, x: Elt, y: Elt) -> Elt:
        pos = self.ctx.element_index(self.field_k)
        i, j = int(pos[x]), int(pos[y])
        if i < 0 or j < 0:
            raise ValueError("element outside the presemifield")
        return int(self.elems[self.table[i, j]])

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def has_zero_divisors(self) -> bool:
        return bool(np.any(self.table[1:, 1:] == 0))

    def identity_index(self) -> int | None:
        M = self.size
        rng = np.arange(M, dtype=np.int64)
        for i in range(M):
            if np.array_equal(self.table[i], rng) and np.array_equal(self.table[:, i], rng):
                return i
        return None

    def identity(self) -> Elt | None:
        i = self.identity_index()
        return None if i is None else int(self.elems[i])


def planar_to_presemifield(f: DOPoly) -> Presemifield:
    """Commutative presemifield with x * y = f(x+y) - f(x) - f(y)."""
    _require_do(f)
    ctx = f.ctx
    if ctx.p == 2:
        raise ValueError("planar presemifields need odd characteristic")
    vals = f.values()
    pos = ctx.element_index(f.field_k)
    table = pos[_difference_table(ctx, f.field_k, vals)]
    S = Presemifield(ctx, table, f.field_k)
    if S.has_zero_divisors():
        raise ValueError("f is not planar: the product has zero divisors")
    return S


def normalize(S: Presemifield, e: Elt) -> Presemifield:
    """Isotopic semifield with identity e*e: (x*e) o (e*y) = x*y."""
    pos = S.ctx.element_index(S.field_k)
    ei = int(pos[e])
    if ei <= 0:
        raise ValueError("normalization element must be a nonzero field element")
    R = S.table[:, ei]          # x -> x*e
    L = S.table[ei, :]          # y -> e*y
    M = S.size
    Rinv = np.empty(M, dtype=np.int64)
    Linv = np.empty(M, dtype=np.int64)
    if len(np.unique(R)) != M or len(np.unique(L)) != M:
        raise ValueError("multiplication by e is not invertible")
    Rinv[R] = np.arange(M)
    Linv[L] = np.arange(M)
    out = Presemifield(S.ctx, S.table[Rinv[:, None], Linv[None, :]], S.field_k)
    ident = out.identity_index()
    if ident is None or ident != int(S.table[ei, ei]):
        raise RuntimeError("normalization failed to produce the identity e*e")
    return out


def _nucleus_masks(S: Presemifield) -> tuple[np.ndarray, np.ndarray]:
    T = S.table
    M = S.size
    left = np.zeros(M, dtype=bool)
    middle = np.zeros(M, dtype=bool)
    for a in range(M):
        left[a] = np.array_equal(T[T[a, :], :], T[a][T])
        middle[a] = np.array_equal(T[T[:, a], :], T[:, T[a, :]])
    return left, middle


def _nuclei(S: Presemifield) -> tuple[list[Elt], list[Elt]]:
    if S._nucleus_sets is None:
        if S.identity_index() is None:
            raise ValueError("nucleus needs an identity: normalize first")
        left, middle = _nucleus_masks(S)
        nl = [int(x) for x in S.elems[left]]
        nm = [int(x) for x in S.elems[middle]]
        if not set(nl) <= set(nm):
            raise RuntimeError("nucleus is not contained in the middle nucleus")
        for size in (len(nl), len(nm)):
            t = size
            while t % S.ctx.p == 0:
                t //= S.ctx.p
            if t != 1:
                raise RuntimeError("nucleus size is not a power of p")
        S._nucleus_sets = (nl, nm)
    return S._nucleus_sets


def nucleus(S: Presemifield) -> int:
    """Size of {a : (a*x)*y = a*(x*y)}; a subfield containing F_p."""
    return len(_nuclei(S)[0])


def middle_nucleus(S: Presemifield) -> int:
    """Size of {a : (x*a)*y = x*(a*y)}."""
    return len(_nuclei(S)[1])


def nucleus_elements(S: Presemifield) -> list[Elt]:
    return list(_nuclei(S)[0])


def middle_nucleus_elements(S: Presemifield) -> list[Elt]:
    return list(_nuclei(S)[1])


# -- rank two commutative semifields -------------------------------------------


@dataclass(frozen=True)
class RtcsSpec:
    """Data for a rank two commutative semifield on F_q^2 = F_q(t):
    (xt + y)(ut + v) = (xv + yu + g(xu)) t + yv + f(xu), with g, f additive
    maps of F_q given as p-polynomials."""

    ctx: FieldCtx
    t: Elt
    g: QPoly
    f: QPoly

    def __post_init__(self):
        ctx = self.ctx
        k2 = 2 * ctx.e
        if ctx.d % k2 != 0:
            raise ValueError("tower has no F_q^2")
        if not ctx.in_subfield(self.t, k2) or ctx.in_subfield(self.t, "q"):
            raise ValueError("t must lie in F_q^2 outside F_q")
        for Lp in (self.g, self.f):
            if Lp.field_k != ctx.e:
                raise ValueError("g and f must be additive maps of F_q")


def rtcs_check(spec: RtcsSpec) -> bool:
    """g(x)^2 + 4 x f(x) must be a nonsquare in F_q for every nonzero x."""
    ctx = spec.ctx
    if ctx.p == 2:
        raise ValueError("the RTCS criterion needs odd q")
    four = 4 % ctx.p
    for x in ctx.subfield_elements("q")[1:]:
        x = int(x)
        val = ctx.add(ctx.pow(spec.g(x), 2), ctx.mul(four, ctx.mul(x, spec.f(x))))
        if ctx.is_square(val, "q"):
            return False
    return True


def rtcs_build(spec: RtcsSpec) -> Presemifield:
    """Build the rank two commutative semifield on F_q^2 from a valid spec."""
    if not rtcs_check(spec):
        raise ValueError("spec fails the nonsquare criterion; not a semifield")
    ctx = spec.ctx
    k2 = 2 * ctx.e
    els = ctx.subfield_elements(k2)
    t = spec.t
    tq = ctx.frob(t, ctx.e)
    dinv = ctx.inv(ctx.sub(t, tq))
    zq = ctx.frob_table(ctx.e)[els]
    X = ctx.vmul(ctx.vsub(els, zq), dinv)      # t-coordinate, lies in F_q
    Y = ctx.vsub(els, ctx.vmul(X, t))          # constant coordinate
    xu = ctx.vmul(X[:, None], X[None, :])
    xv = ctx.vmul(X[:, None], Y[None, :])
    yu = ctx.vmul(Y[:, None], X[None, :])
    yv = ctx.vmul(Y[:, None], Y[None, :])
    at_xu = ctx.element_index(ctx.e)[xu]       # xu lies in F_q
    g_xu = spec.g.values()[at_xu]
    f_xu = spec.f.values()[at_xu]
    tpart = ctx.vadd(ctx.vadd(xv, yu), g_xu)
    prod = ctx.vadd(ctx.vmul(tpart, t), ctx.vadd(yv, f_xu))
    pos = ctx.element_index(k2)
    S = Presemifield(ctx, pos[prod], k2)
    if S.has_zero_divisors():
        raise RuntimeError("valid spec produced zero divisors; invariant broken")
    return S


# -- products of conjugate linear factors -----------------------------------------


def q_from_pair(A: QPoly, B: QPoly, delta: Elt) -> DOPoly:
    """DO polynomial (A(X) + delta B(X)) * (A(X) + delta^(q^n) B(X)).

    delta must lie outside the domain field so the two factors are genuinely
    conjugate; the result has all coefficients in the domain field and its
    values agree with the defining product everywhere (checked).
    """
    A._same_shape(B)
    ctx = A.ctx
    if ctx.in_subfield(delta, A.field_k):
        raise ValueError("delta must lie outside the domain field")
    dconj = ctx.pow(delta, ctx.p ** A.field_k)
    ssum = ctx.add(delta, dconj)
    wprod = ctx.mul(delta, dconj)
    terms = []
    ac = A.coeffs
    bc = B.coeffs
    m = A.m
    for i in range(m):
        for j in range(m):
            if ac[i] and ac[j]:
                terms.append((i, j, ctx.mul(ac[i], ac[j])))
            if ac[i] and bc[j] and ssum:
                terms.append((i, j, ctx.mul(ssum, ctx.mul(ac[i], bc[j]))))
            if bc[i] and bc[j] and wprod:
                terms.append((i, j, ctx.mul(wprod, ctx.mul(bc[i], bc[j]))))
    f = DOPoly(ctx, terms, A.field_k, A.base_k)
    va, vb = A.values(), B.values()
    lhs = ctx.vmul(ctx.vadd(va, ctx.vmul(delta, vb)), ctx.vadd(va, ctx.vmul(dconj, vb)))
    if not np.array_equal(f.values(), lhs):
        raise RuntimeError("DO expansion disagrees with the defining product")
    return f


def q_from_component(L: QPoly, delta: Elt) -> DOPoly:
    """DO polynomial (X + delta L(X)) (X + delta^(q^n) L(X)) attached to the
    subspace {x + delta L(x)}."""
    return q_from_pair(QPoly.identity(L.ctx, L.field_k, L.base_k), L, delta)


# -- the quadratic pair map ------------------------------------------------------


def zeta_element(ctx: FieldCtx) -> Elt:
    """Least encoding with zeta^(q^m - 1) = -1, m = ctx.n (odd q)."""
    return min(ctx.find_deltas())


def psi_map(ctx: FieldCtx, x: Elt, y: Elt) -> tuple[Elt, Elt, Elt]:
    """Decompose x = x0 zeta + x1, y = y0 zeta + y1 over F_{q^m} (m = ctx.n)
    and return (x1 y1, x0 y0, x0 y1 + x1 y0)."""
    if ctx.p == 2:
        raise ValueError("the pair map needs odd q")
    return _psi(ctx, zeta_element(ctx), x, y)


def _psi(ctx: FieldCtx, z: Elt, x: Elt, y: Elt) -> tuple[Elt, Elt, Elt]:
    """psi_map with zeta = z given, so a caller looping over pairs finds it once."""
    qm = ctx.q ** ctx.n
    inv2 = ctx.inv(ctx.add(1, 1))
    out = []
    for u in (x, y):
        uc = ctx.pow(u, qm)
        u1 = ctx.mul(ctx.add(u, uc), inv2)
        u0 = ctx.mul(ctx.sub(u, uc), ctx.inv(ctx.mul(ctx.add(1, 1), z)))
        out.append((u0, u1))
    (x0, x1), (y0, y1) = out
    return (ctx.mul(x1, y1), ctx.mul(x0, y0),
            ctx.add(ctx.mul(x0, y1), ctx.mul(x1, y0)))


def psi_image_check(ctx: FieldCtx) -> bool:
    """Exhaustive check that the pair map's image is exactly
    {(A, B, C) : C^2 - 4AB is a square in F_{q^m}}, and that (0,0,0) is hit
    only by pairs with x = 0 or y = 0."""
    if ctx.p == 2:
        raise ValueError("the pair map needs odd q")
    z = zeta_element(ctx)
    image = set()
    zero_ok = True
    for x in range(ctx.N):
        for y in range(ctx.N):
            t = _psi(ctx, z, x, y)
            image.add(t)
            if t == (0, 0, 0) and not (x == 0 or y == 0):
                zero_ok = False
    four = 4 % ctx.p
    expected = set()
    mid = ctx.subfield_elements("qn")
    for A in mid:
        for B in mid:
            for C in mid:
                A, B, C = int(A), int(B), int(C)
                disc = ctx.sub(ctx.pow(C, 2), ctx.mul(four, ctx.mul(A, B)))
                if ctx.is_square(disc, "qn"):
                    expected.add((A, B, C))
    return zero_ok and image == expected


def planar_family_check(ctx: FieldCtx, a: Elt, b: Elt, w: Elt, k: int) -> bool:
    """Planarity of (a X + b X^(q^m))^2 - w X^(2 q^k) on F_{q^2m}, m = ctx.n.

    Under the theorem hypotheses (odd q, w nonsquare, gcd(k, m) = 1, m >= 3)
    this is equivalent to ab = 0; the function only reports planarity."""
    m = ctx.n
    if ctx.p == 2:
        raise ValueError("planar families need odd q")
    if ctx.is_square(w, "q2n"):
        raise ValueError("w must be a nonsquare")
    if math.gcd(k, m) != 1 or m < 3:
        raise ValueError("need gcd(k, m) = 1 and m >= 3")
    terms = [(0, 0, ctx.pow(a, 2)),
             (0, m, ctx.mul(2 % ctx.p, ctx.mul(a, b))),
             (m, m, ctx.pow(b, 2)),
             (k, k, ctx.neg(w))]
    f = DOPoly(ctx, terms, "q2n", "q")
    return is_planar_2to1(f)
