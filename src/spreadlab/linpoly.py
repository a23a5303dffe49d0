"""Linearized polynomials sum d_i X^(s^i) acting on a tower field.

The default shape is a q-polynomial on the middle field F_{q^n}: coefficients
are q-indexed and exponent indices live in Z/nZ because X^(q^n) = X there.
Other gradings (p-polynomials on F_q, q^m-polynomials on a larger field) use
the same class with explicit field/base tags.
"""

from __future__ import annotations

import math

import numpy as np

from .field import Elt, FieldCtx


class _GradedPoly:
    """A polynomial on F_p^field_k graded by s = p^base_k, compared by its
    canonical coefficients, with a value table computed once.

    QPoly and DOPoly fold their coefficients into canonical form and compute
    their tables; this core owns the shape and coefficient checks, equality
    and the read-only value cache.
    """

    __slots__ = ("ctx", "field_k", "base_k", "coeffs", "_vals")

    def _shape(self, ctx: FieldCtx, field_tag, base_tag) -> int:
        """Set the context and the two degrees; return the relative degree m."""
        self.ctx = ctx
        self._vals = None
        self.field_k = ctx.tag_degree(field_tag)
        self.base_k = ctx.tag_degree(base_tag)
        if self.field_k % self.base_k != 0:
            raise ValueError("grading base field does not divide the domain field")
        return self.m

    def _set(self, ctx: FieldCtx, field_k: int, base_k: int, coeffs: tuple, vals):
        """Fill the slots from canonical coefficients and their checked,
        read-only value table: the one path that neither folds nor checks."""
        self.ctx, self.field_k, self.base_k = ctx, field_k, base_k
        self.coeffs, self._vals = coeffs, vals
        return self

    def _coeff(self, c) -> Elt:
        c = int(c)
        if not self.ctx.in_subfield(c, self.field_k):
            raise ValueError(f"coefficient {c} is not in the domain field")
        return c

    @property
    def m(self) -> int:
        """Relative degree of the domain over the grading base field."""
        return self.field_k // self.base_k

    @property
    def s(self) -> int:
        """Size of the grading base field."""
        return self.ctx.p ** self.base_k

    def __eq__(self, other):
        return (type(other) is type(self)
                and (self.ctx, self.field_k, self.base_k, self.coeffs)
                == (other.ctx, other.field_k, other.base_k, other.coeffs))

    def __hash__(self):
        return hash((self.ctx, self.field_k, self.base_k, self.coeffs))

    def __repr__(self):
        return (f"{type(self).__name__}({list(self.coeffs)}, "
                f"field_k={self.field_k}, base_k={self.base_k})")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _cache(self, table) -> np.ndarray:
        """The value table, aligned with ctx.subfield_elements(field_k): the
        kept one, else table() kept read-only.  table must give the table of
        this polynomial's own coefficients."""
        if self._vals is None:
            vals = table().view()
            vals.flags.writeable = False
            self._vals = vals
        return self._vals


class QPoly(_GradedPoly):
    """sum_i coeffs[i] * X^(s^i) with s = p^base_k, acting on F_p^field_k."""

    __slots__ = ()

    def __init__(self, ctx: FieldCtx, coeffs, field_tag="qn", base_tag="q"):
        m = self._shape(ctx, field_tag, base_tag)
        folded = [0] * m
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        for i, c in items:
            folded[i % m] = ctx.add(folded[i % m], self._coeff(c))
        self.coeffs = tuple(folded)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def monomial(cls, ctx, i: int, c: Elt = 1, field_tag="qn", base_tag="q"):
        return cls(ctx, {i: c}, field_tag, base_tag)

    @classmethod
    def identity(cls, ctx, field_tag="qn", base_tag="q"):
        return cls(ctx, {0: 1}, field_tag, base_tag)

    @classmethod
    def zero(cls, ctx, field_tag="qn", base_tag="q"):
        return cls(ctx, {}, field_tag, base_tag)

    @classmethod
    def trace_poly(cls, ctx, field_tag="qn", base_tag="q"):
        """The relative trace as a linearized polynomial (all coefficients 1)."""
        m = ctx.tag_degree(field_tag) // ctx.tag_degree(base_tag)
        return cls(ctx, {i: 1 for i in range(m)}, field_tag, base_tag)

    # -- basic structure ---------------------------------------------------------

    def _same_shape(self, other: "QPoly"):
        if (self.ctx, self.field_k, self.base_k) != (other.ctx, other.field_k, other.base_k):
            raise ValueError("polynomials live on different fields")

    # -- evaluation ------------------------------------------------------------------

    def __call__(self, x: Elt) -> Elt:
        ctx = self.ctx
        if not ctx.in_subfield(x, self.field_k):
            raise ValueError(f"argument {x} is not in the domain field")
        out = 0
        for i, c in enumerate(self.coeffs):
            if c:
                out = ctx.add(out, ctx.mul(c, ctx.pow(x, self.s ** i)))
        return out

    def values(self) -> np.ndarray:
        """Value table aligned with ctx.subfield_elements(field_k); computed on
        the first call, then the same read-only array on every call."""
        return self._cache(lambda: _lin_rows(self.ctx, self.field_k, self.base_k,
                                             self.coeffs))

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [int(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, ctx, doc: dict, field_tag="qn", base_tag="q"):
        return cls(ctx, [int(c) for c in doc["coeffs"]], field_tag, base_tag)


def _lin_rows(ctx: FieldCtx, field_k: int, base_k: int, coeffs) -> np.ndarray:
    """The value tables of the sum_i c_i X^(s^i), s = p^base_k, whose
    coefficients lie along the last axis of coeffs: shape
    coeffs.shape[:-1] + (p^field_k,)."""
    dom = ctx.subfield_elements(field_k)
    return _sum_rows(ctx, coeffs, len(dom), lambda i: ctx.vpow(dom, ctx.p ** (base_k * i)))


def _sum_rows(ctx: FieldCtx, coeffs, width: int, mono) -> np.ndarray:
    """The sum over k of coeffs[..., k] times the monomial table mono(k),
    width entries, one k at a time so no temporary is wider than the
    result.  A k with coefficient 0 in every row is skipped, its mono(k)
    never computed."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    used = np.flatnonzero(coeffs.any(axis=tuple(range(coeffs.ndim - 1)))).tolist()
    if not used:
        return np.zeros(coeffs.shape[:-1] + (width,), dtype=np.int64)
    rows = ctx.vmul(coeffs[..., used[0], None], mono(used[0]))
    for k in used[1:]:
        rows = ctx.vadd(rows, ctx.vmul(coeffs[..., k, None], mono(k)))
    return rows


# -- operations ---------------------------------------------------------------


def compose(L: QPoly, M: QPoly) -> QPoly:
    """L(M(X)) with exponent index arithmetic mod the relative degree."""
    L._same_shape(M)
    ctx, m = L.ctx, L.m
    out = {k: 0 for k in range(m)}
    for i, di in enumerate(L.coeffs):
        if not di:
            continue
        for j, ej in enumerate(M.coeffs):
            if not ej:
                continue
            k = (i + j) % m
            out[k] = ctx.add(out[k], ctx.mul(di, ctx.pow(ej, L.s ** i)))
    return QPoly(ctx, out, L.field_k, L.base_k)


def adjoint(L: QPoly) -> QPoly:
    """The adjoint sum d_i^(s^(m-i)) X^(s^(m-i)); satisfies the trace-pairing
    identity tr(u * L(v)) = tr(adjoint(L)(u) * v)."""
    ctx, m, s = L.ctx, L.m, L.s
    out = {}
    for i, c in enumerate(L.coeffs):
        if c:
            j = (m - i) % m
            out[j] = ctx.pow(c, s ** ((m - i) % m))
    return QPoly(ctx, out, L.field_k, L.base_k)


def assoc_matrix(L: QPoly) -> list[list[Elt]]:
    """m x m matrix over the domain field: entry (i, j) = d_((j-i) mod m)^(s^i).

    Row 0 lists the coefficients; row i is the Frobenius^i twist of the cyclic
    shift of row 0.
    """
    ctx, m, s = L.ctx, L.m, L.s
    return [[ctx.pow(L.coeffs[(j - i) % m], s ** i) for j in range(m)]
            for i in range(m)]


def rref(ctx: FieldCtx, M) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a matrix of field-element encodings:
    (its nonzero rows, their pivot columns).

    The encodings 0..p-1 are the prime field, so F_p matrices work unchanged.
    """
    R = np.atleast_2d(np.array(M, dtype=np.int64))
    pivots: list[int] = []
    for col in range(R.shape[1]):
        r = len(pivots)
        nz = R[r:, col].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            R[[r, r + nz[0]]] = R[[r + nz[0], r]]
        R[r] = ctx.vmul(ctx.inv(int(R[r, col])), R[r])
        f = R[:, col].copy()
        f[r] = 0                  # rows with f = 0, the pivot row among them, stay
        R = ctx.vsub(R, ctx.vmul(f[:, None], R[r]))
        pivots.append(col)
        if len(pivots) == len(R):
            break
    return R[:len(pivots)], pivots


def nullspace(ctx: FieldCtx, M) -> np.ndarray:
    """Rows spanning {v : M v = 0}, one per free column of rref(M)."""
    R, pivots = rref(ctx, M)
    free = [c for c in range(R.shape[1]) if c not in pivots]
    out = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = ctx.vneg(R[:, free].T)
    return out


def kernel_dim(L: QPoly) -> int:
    """dim over the base field of ker L, via the associated matrix rank."""
    return L.m - len(rref(L.ctx, assoc_matrix(L))[1])


def kernel_basis(L: QPoly) -> list[Elt]:
    """Base-field basis of ker L by brute scan (consistency partner of kernel_dim)."""
    ctx = L.ctx
    dom = ctx.subfield_elements(L.field_k)
    vals = L.values()
    kernel = [int(x) for x, v in zip(dom, vals) if v == 0]
    basis: list[Elt] = []
    spanned = {0}
    for x in kernel:
        if x not in spanned:
            basis.append(x)
            spanned = {int(v) for v in ctx.span(basis, L.base_k)}
    return basis


def is_permutation(L: QPoly) -> bool:
    """Brute bijectivity scan; equivalent to kernel_dim == 0."""
    vals = L.values()
    return int(np.count_nonzero(vals == 0)) == 1


def linearity_field(L: QPoly) -> int:
    """Degree k over F_p of the largest subfield F_p^k of the domain with
    L(lambda * x) = lambda * L(x) for every lambda in F_p^k."""
    k = L.field_k
    for i, c in enumerate(L.coeffs):
        if c:
            k = math.gcd(k, L.base_k * i)
    return k
