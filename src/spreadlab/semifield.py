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
from .quadform import DOPoly, _key_rows, _polar, _require_do

_BLOCK = 1 << 16          # entries per block of a row table


def is_planar_direct(f: DOPoly) -> bool:
    """Planarity by checking every difference map for bijectivity.  Odd
    characteristic only."""
    _require_do(f)
    ctx = f.ctx
    if ctx.p == 2:
        raise ValueError("planar functions need odd characteristic")
    dom = ctx.subfield_elements(f.field_k)
    # row a of D: x -> f(x+a) - f(x) - f(a), a bijection when its values are distinct
    D = np.sort(_polar(ctx, f.field_k, f.values(), dom[1:, None], dom[None, :]), axis=1)
    return bool((D[:, 1:] != D[:, :-1]).all())


def is_planar_2to1(f: DOPoly) -> bool:
    """Planarity via the 2-to-1 value count criterion for DO polynomials:
    only 0 maps to 0 and every nonzero value has exactly 0 or 2 preimages."""
    _require_do(f)
    if f.ctx.p == 2:
        raise ValueError("planar functions need odd characteristic")
    return bool(_two_to_one(f.ctx, f.values()))


def _two_to_one(ctx: FieldCtx, vals) -> np.ndarray:
    """Per value row (the last axis): does only 0 take the value 0, and every
    other value 0 or 2 times?  All rows are counted by one bincount, row r's
    values offset by r N."""
    vals = np.asarray(vals, dtype=np.int64)
    rows = vals.reshape(-1, vals.shape[-1])
    R, N = len(rows), ctx.N
    ids = rows + (np.arange(R, dtype=np.int64) * N)[:, None]
    counts = np.bincount(ids.reshape(-1), minlength=R * N).reshape(R, N)
    rest = counts[:, 1:]
    ok = (counts[:, 0] == 1) & ((rest == 0) | (rest == 2)).all(axis=1)
    return ok.reshape(vals.shape[:-1])


def _two_to_one_at_reps(ctx: FieldCtx, vals) -> np.ndarray:
    """_two_to_one for a DO polynomial f graded over F_q, read only at
    representatives r of its domain's units modulo F_q^*, one value row
    per last axis.

    f(lambda x) = lambda^2 f(x) for lambda in F_q, so the values on the
    coset of r are f(r) times the squares of F_q^*, each taken twice
    (lambda and -lambda), or 0 throughout.  So f is 2-to-1 with only 0
    above 0 exactly when no f(r) is 0 and the square classes of the f(r)
    are distinct: (F_q^*)^2 = <gamma^(2R)>, R = (N-1)/(q-1), so the class
    of v is log v mod 2R, and log 0 = 2(N-1) marks a zero."""
    logs = ctx.log[np.asarray(vals, dtype=np.int64)]
    classes = np.sort(logs % (2 * ((ctx.N - 1) // (ctx.q - 1))), axis=-1)
    return ((logs < ctx.N - 1).all(axis=-1)
            & (classes[..., 1:] != classes[..., :-1]).all(axis=-1))


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
        ctx, k = self.ctx, self.field_k
        if not (ctx.in_subfield(x, k) and ctx.in_subfield(y, k)):
            raise ValueError("element outside the presemifield")
        pos = ctx.element_index(k)
        return int(self.elems[self.table[pos[x], pos[y]]])

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
    dom = ctx.subfield_elements(f.field_k)
    table = ctx.element_index(f.field_k)[_polar(ctx, f.field_k, f.values(),
                                                dom[:, None], dom[None, :])]
    S = Presemifield(ctx, table, f.field_k)
    if S.has_zero_divisors():
        raise ValueError("f is not planar: the product has zero divisors")
    return S


def normalize(S: Presemifield, e: Elt) -> Presemifield:
    """Isotopic semifield with identity e*e: (x*e) o (e*y) = x*y."""
    if e == 0 or not S.ctx.in_subfield(e, S.field_k):
        raise ValueError("normalization element must be a nonzero field element")
    ei = int(S.ctx.element_index(S.field_k)[e])
    R = S.table[:, ei]          # x -> x*e
    L = S.table[ei, :]          # y -> e*y
    M = S.size
    Rinv = np.empty(M, dtype=np.int64)
    Linv = np.empty(M, dtype=np.int64)
    # a permutation of 0..M-1 takes every value once
    if (np.bincount(R, minlength=M) != 1).any() or (np.bincount(L, minlength=M) != 1).any():
        raise ValueError("multiplication by e is not invertible")
    Rinv[R] = np.arange(M)
    Linv[L] = np.arange(M)
    out = Presemifield(S.ctx, S.table[Rinv[:, None], Linv[None, :]], S.field_k)
    ident = out.identity_index()
    if ident is None or ident != int(S.table[ei, ei]):
        raise RuntimeError("normalization failed to produce the identity e*e")
    return out


def _nucleus_masks(S: Presemifield) -> tuple[np.ndarray, np.ndarray]:
    """Which a have (a*x)*y = a*(x*y), and which (x*a)*y = x*(a*y), for all
    x, y: one (a, x, y) table per side for a block of a, of about _BLOCK
    entries."""
    T = S.table
    M = S.size
    per = max(1, _BLOCK // (M * M))
    left = np.empty(M, dtype=bool)
    middle = np.empty(M, dtype=bool)
    for lo in range(0, M, per):
        A = T[lo:lo + per]                  # rows a of the block: y -> a*y
        left[lo:lo + per] = (T[A] == A[:, T]).all(axis=(1, 2))
        middle[lo:lo + per] = (T[T[:, lo:lo + per].T]
                               == T[:, A].transpose(1, 0, 2)).all(axis=(1, 2))
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
    zq = ctx.vpow(els, ctx.q)
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


def _check_element(ctx: FieldCtx, name: str, x) -> None:
    if not ctx.in_subfield(x, "q2n"):
        raise ValueError(f"{name} = {x} is not an element encoding in 0..{ctx.N - 1}")


def q_from_pairs(A: QPoly, B: QPoly, deltas) -> list[DOPoly]:
    """The DO polynomials (A(X) + d B(X)) * (A(X) + d^(q^n) B(X)), one per d
    in deltas, in order: the one-row case of _pair_rows, with the same
    refusals and the same check."""
    A._same_shape(B)
    return _pair_rows(A.ctx, A.field_k, A.base_k, np.array(A.coeffs), np.array(B.coeffs),
                      A.values(), B.values(), deltas)


def _pair_rows(ctx: FieldCtx, field_k: int, base_k: int, a, b, va, vb,
               deltas) -> list[DOPoly]:
    """Q = (A + d B)(A + d^(q^n) B) for every row of A and B and every d in
    deltas, as DOPolys in (row, d) order, F_{q^n} = F_p^field_k graded by
    F_p^base_k.

    a and b are the coefficient rows of A and B (last axis, broadcast
    against each other), va and vb their value rows.  Every d must be an
    encoding outside the domain field so the two factors are genuinely
    conjugate; every coefficient of the expansion (_pair_coeffs) must then
    lie in it.
    The (rows x deltas x q^n) value table is computed from those
    coefficients (_key_rows) and compared with the defining product in one
    check; each result keeps its checked row as its value table."""
    d = np.asarray(deltas, dtype=np.int64)
    bad = ctx.outside(d, "q2n")
    if bad.any():
        _check_element(ctx, "delta", int(d[bad][0]))
    dconj = ctx.vpow(d, ctx.p ** field_k)
    if np.any(dconj == d):
        raise ValueError("delta must lie outside the domain field")
    keys, coeffs = _pair_coeffs(ctx, field_k // base_k, a, b, d, dconj)
    outside = ctx.outside(coeffs, field_k)
    if outside.any():
        raise ValueError(f"coefficient {int(coeffs[outside][0])} is not in the domain field")
    table = _key_rows(ctx, field_k, base_k, keys, coeffs)
    va, vb = va[..., None, :], vb[..., None, :]
    lhs = ctx.vmul(ctx.vadd(va, ctx.vmul(d[:, None], vb)),
                   ctx.vadd(va, ctx.vmul(dconj[:, None], vb)))
    if not np.array_equal(table, lhs):
        raise RuntimeError("DO expansion disagrees with the defining product")
    return DOPoly._rows(ctx, field_k, base_k, keys, coeffs.reshape(-1, len(keys)),
                        table.reshape(-1, table.shape[-1]))


def _pair_coeffs(ctx: FieldCtx, m: int, a, b, d, dconj):
    """(keys, coefficients) of (A + d B)(A + dconj B) = A^2 + s AB + w B^2,
    s = d + dconj and w = d dconj, for the coefficient rows a and b of A and
    B (last axis, broadcast against each other) and every d: the keys are
    the (i, j), 0 <= i <= j < m, of X^(s^i + s^j), and the coefficients
    have shape broadcast(a, b).shape[:-1] + (len(d), len(keys))."""
    keys = [(i, j) for i in range(m) for j in range(i, m)]
    iu, ju = np.array(keys).T
    a, b = np.broadcast_arrays(a, b)
    # the coefficient of X^(s^i + s^j), i <= j, in A^2, AB and B^2: the
    # products of the (i, j) and (j, i) coefficient pairs, summed
    outer = ctx.vmul(np.stack([a, a, b])[..., :, None], np.stack([a, b, b])[..., None, :])
    aa, ab, bb = ctx.vadd(outer[..., iu, ju], np.where(iu < ju, outer[..., ju, iu], 0))
    s, w = ctx.vadd(d, dconj)[:, None], ctx.vmul(d, dconj)[:, None]
    return keys, ctx.vadd(aa[..., None, :], ctx.vadd(ctx.vmul(s, ab[..., None, :]),
                                                     ctx.vmul(w, bb[..., None, :])))


def q_from_pair(A: QPoly, B: QPoly, delta: Elt) -> DOPoly:
    """DO polynomial (A(X) + delta B(X)) * (A(X) + delta^(q^n) B(X)): the
    one-delta case of q_from_pairs, with the same refusal and check."""
    return q_from_pairs(A, B, [delta])[0]


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
    _check_element(ctx, "x", x)
    _check_element(ctx, "y", y)
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
    _check_element(ctx, "a", a)
    _check_element(ctx, "b", b)
    if ctx.is_square(w, "q2n"):
        raise ValueError("w must be a nonsquare")
    if k < 1:
        raise ValueError(f"need k >= 1 (got {k})")
    if math.gcd(k, m) != 1 or m < 3:
        raise ValueError("need gcd(k, m) = 1 and m >= 3")
    terms = [(0, 0, ctx.pow(a, 2)),
             (0, m, ctx.mul(2 % ctx.p, ctx.mul(a, b))),
             (m, m, ctx.pow(b, 2)),
             (k, k, ctx.neg(w))]
    f = DOPoly(ctx, terms, "q2n", "q")
    return is_planar_2to1(f)
