"""Spreads of 2n-dimensional spaces over F_q and their Singer-cycle orbits.

A spread is a set of q^n + 1 pairwise trivially intersecting n-dimensional
F_q-subspaces covering every nonzero vector of F_{q^{2n}} exactly once; it
coordinatizes a translation plane whose kernel is the field of F_p-linear
endomorphisms fixing every component.  Components here arise as images
{A(x) + delta B(x)} of linearized-polynomial pairs, and whole spreads as
orbits of components under powers of beta: one beta-orbit for type C and
the even n = 3 family, the union of two beta^2-orbits for type H.
"""

from __future__ import annotations

import functools
import math
import warnings
from itertools import product

import numpy as np

from .field import Elt, FieldCtx, _json_int, ctx_from_json, factor_prime_power
from .linpoly import QPoly, nullspace, rref
from .quadform import is_permutation_brute, is_permutation_via_rank, permutes_cosets
from .semifield import _BLOCK, _check_element, is_planar_2to1, q_from_component


# -- subspaces -------------------------------------------------------------------


def _subspace_dim(ctx: FieldCtx, rows: np.ndarray) -> int:
    """Common dimension of the rows of a table, each the element set of an
    F_q-subspace: width q^dim, first column 0, each row strictly increasing."""
    size = rows.shape[1]
    dim = 0
    while ctx.q ** dim < size:
        dim += 1
    if (ctx.q ** dim != size or rows[:, 0].any()
            or (rows[:, 1:] <= rows[:, :-1]).any()):
        raise ValueError("element set is not an F_q-subspace")
    return dim


class Subspace:
    """F_q-subspace of the ambient field, stored as its full element set.

    Equality and hashing use the sorted element array; the canonical reduced
    echelon basis (w.r.t. the fixed basis of the ambient field over F_q) is
    read off the elements when asked for.
    """

    __slots__ = ("ctx", "elements", "dim")

    def __init__(self, ctx: FieldCtx, elements=None, basis=None):
        if (elements is None) == (basis is None):
            raise ValueError("give exactly one of elements or basis")
        if basis is not None:
            elements = ctx.span(basis, "q")
        els = np.sort(np.asarray(elements, dtype=np.int64), axis=None)
        keep = np.ones(els.size, dtype=bool)
        keep[1:] = els[1:] != els[:-1]      # sorted: repeats are neighbours
        els = els[keep]
        dim = _subspace_dim(ctx, els[None, :])
        if basis is None:
            mask = np.zeros(ctx.N, dtype=bool)
            mask[els] = True
            if not mask[ctx.vadd(els[:, None], els[None, :])].all():
                raise ValueError("element set is not closed under addition")
            scal = ctx.subfield_elements("q")
            if not mask[ctx.vmul(els[:, None], scal[None, :])].all():
                raise ValueError("element set is not closed under F_q-scalars")
        els.flags.writeable = False
        self._set(ctx, els, dim)

    def _set(self, ctx: FieldCtx, els: np.ndarray, dim: int) -> Subspace:
        self.ctx = ctx
        self.elements = els
        self.dim = dim
        return self

    @classmethod
    def _rows(cls, ctx: FieldCtx, table: np.ndarray, dim: int | None = None) -> list[Subspace]:
        """One Subspace per row of a table of sorted element sets, each a read-only
        view of the table: the one path that checks the shape but not closure.
        A dim given is the result of an earlier check of the same read-only table."""
        if dim is None:
            dim = _subspace_dim(ctx, table)
        table.flags.writeable = False
        new, set_ = cls.__new__, cls._set
        return [set_(new(cls), ctx, row, dim) for row in table]

    @property
    def basis(self) -> list[Elt]:
        """Canonical reduced-echelon F_q-basis, read off the element set."""
        return _echelon_rows(self.ctx, self.elements[None, :], self.dim)[0].tolist()

    def __contains__(self, x) -> bool:
        """x is an integer equal to an element; 13.5, 13.0 and "13" never are."""
        if not isinstance(x, (int, np.integer)) or not 0 <= x < self.ctx.N:
            return False
        i = int(np.searchsorted(self.elements, x))
        return i < len(self.elements) and int(self.elements[i]) == x

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ctx == other.ctx
                and np.array_equal(self.elements, other.elements))

    def __hash__(self):
        return hash(self.elements.tobytes())

    def __repr__(self):
        return f"Subspace(dim={self.dim}, basis={self.basis})"

    def to_json(self) -> list[int]:
        return [int(b) for b in self.basis]


def _echelon_rows(ctx: FieldCtx, table: np.ndarray, dim: int) -> np.ndarray:
    """The reduced echelon F_q-bases of the rows of a table of sorted element
    sets of dimension dim, one row of dim encodings each, read off the
    elements without elimination.

    In coordinates over F_q (to_coords, in the order of subfield_basis), the
    pivot columns of a subspace's reduced echelon form are the leading
    positions of its nonzero elements, and basis row i is the one element whose pivot
    coordinates are the i-th unit vector.  The encodings 0 and 1 are the
    field's 0 and 1, so coordinates are compared with them directly."""
    E = table[:, 1:]                       # the nonzero elements
    C = ctx.to_coords(E, ctx.d, "q")
    nz = C != 0
    lead = nz.argmax(axis=2)
    piv = np.zeros((len(E), C.shape[2]), dtype=bool)
    piv[np.arange(len(E))[:, None], lead] = True
    at_piv = nz & piv[:, None, :]
    unit = (at_piv.sum(axis=2) == 1) & ((C == 1) & at_piv).any(axis=2)
    r, j = unit.nonzero()
    out = np.zeros(piv.shape, dtype=np.int64)
    out[r, lead[r, j]] = E[r, j]
    if (piv.sum(axis=1) != dim).any() or (unit.sum(axis=1) != dim).any():
        raise ValueError("element set is not an F_q-subspace")
    return out[piv].reshape(len(E), dim)


def _row_blocks(rows, width: int):
    """Consecutive slices of rows of the given width: at most _BLOCK entries
    each, and at least one row."""
    per = max(1, _BLOCK // width)
    return (rows[lo:lo + per] for lo in range(0, len(rows), per))


def _bases(ctx: FieldCtx, table: np.ndarray, dim: int):
    """The canonical bases of a table's rows, by blocks of rows."""
    return (_echelon_rows(ctx, B, dim) for B in _row_blocks(table, table.shape[1]))


def _component_row(A: QPoly, B: QPoly, delta: Elt) -> np.ndarray:
    """The sorted element set of component_from_pair(A, B, delta), checked."""
    A._same_shape(B)
    ctx = A.ctx
    ne = ctx.n * ctx.e
    if A.field_k != ne or A.base_k != ctx.e:
        raise ValueError("components are parametrized by q-polynomials on F_{q^n}")
    _check_element(ctx, "delta", delta)
    if ctx.in_subfield(delta, ne):
        raise ValueError("delta must lie outside F_{q^n}")
    vals = np.sort(ctx.vadd(A.values(), ctx.vmul(delta, B.values())))
    if (vals[1:] == vals[:-1]).any():
        raise ValueError("parametrization is not injective; dimension would drop")
    return vals


def component_from_pair(A: QPoly, B: QPoly, delta: Elt) -> Subspace:
    """W = {A(x) + delta B(x) : x in F_{q^n}} as an n-dimensional subspace.

    delta must lie outside F_{q^n} and the parametrization must be injective;
    a dimension drop is an error.
    """
    return Subspace._rows(A.ctx, _component_row(A, B, delta)[None, :])[0]


def _images(ctx: FieldCtx, table: np.ndarray, g, k: int = 0) -> np.ndarray:
    """Each row's image {g x^(p^k)} under an F_q-linear bijection, sorted as
    Subspace.elements (compare via .tobytes()); g is one element or a column
    of one multiplier per row; x^(p^k) comes from vpow."""
    els = ctx.vpow(table, ctx.p ** k) if k else table
    return np.sort(ctx.vmul(g, els), axis=1)


def _orbit_rows(ctx: FieldCtx, W: np.ndarray, g: Elt) -> np.ndarray:
    """The rows g^j W of the orbit of the sorted element set W; see orbit."""
    R = (ctx.N - 1) // (ctx.q - 1)
    log_g = int(ctx.log[g])
    M = R // math.gcd(R, log_g)
    table = np.empty((M + 1, W.size), dtype=np.int64)
    for j in _row_blocks(np.arange(M + 1), W.size):
        T = _images(ctx, W[None, :], ctx.exp[j * log_g % (ctx.N - 1)][:, None])
        table[j] = T
        back = np.flatnonzero((T == W).all(axis=1) & (j >= 1))
        if len(back):
            return table[:j[back[0]]]
    raise RuntimeError("orbit did not close within the order of g modulo F_q^*")


def orbit(W: Subspace, kind: str) -> list[Subspace]:
    """Distinct images of W under <g>, g = beta (kind "beta") or beta^2
    ("beta2"); the i-th component is g^i W.

    F_q^* fixes the F_q-subspace W, so the orbit length divides M, the order
    of g modulo F_q^*: M = R / gcd(R, log g) with R = (N - 1)/(q - 1), that
    is q^n + 1 for beta and (q^n + 1)/gcd(2, q^n + 1) for beta^2.  Rows
    g^j W, j = 0..M, are computed in blocks of rows into one table, and the
    orbit ends at the first row j >= 1 equal to W.
    """
    ctx = W.ctx
    if kind == "beta":
        g = ctx.beta
    elif kind == "beta2":
        g = ctx.mul(ctx.beta, ctx.beta)
    else:
        raise ValueError(f"unknown orbit kind {kind!r}")
    return Subspace._rows(ctx, _orbit_rows(ctx, W.elements, g), W.dim)


def _coverage(components) -> np.ndarray:
    if not components:
        raise ValueError("no components")
    ctx = components[0].ctx
    dims = {C.dim for C in components}
    if len(dims) != 1:
        raise ValueError(f"components of mixed dimensions {sorted(dims)}")
    if any(C.ctx != ctx for C in components):
        raise ValueError("components from different towers")
    # never a copy of all components: chunks of at most _BLOCK elements
    return _count(ctx, (np.stack([C.elements for C in part])
                        for part in _row_blocks(components, components[0].elements.size)))


def _count(ctx: FieldCtx, tables) -> np.ndarray:
    """How often each nonzero element lies in a row of the tables, each row
    an element set; 0 lies in every one and is not counted.  A bincount
    makes a table of N counts, so it counts a whole table when N <= _BLOCK;
    in a larger field each row's distinct elements are counted in place by
    one fancy-index +=."""
    counts = np.zeros(ctx.N, dtype=np.int32)
    for T in tables:
        if ctx.N <= _BLOCK:
            counts += np.bincount(T.ravel(), minlength=ctx.N)
        else:
            for row in T:
                counts[row] += 1
    counts[0] = 0
    return counts


def is_partial_spread(components) -> bool:
    """Pairwise trivial intersections, by coverage counting."""
    return bool((_coverage(components) <= 1).all())


def is_spread(components) -> bool:
    """Exactly q^n + 1 components of dimension n covering each nonzero
    ambient vector exactly once; a component of another dimension makes it
    False before coverage is counted."""
    if not components:
        raise ValueError("no components")
    ctx = components[0].ctx
    if len(components) != ctx.q ** ctx.n + 1 or any(C.dim != ctx.n for C in components):
        return False
    return bool((_coverage(components)[1:] == 1).all())


# -- spreads ---------------------------------------------------------------------


_KINDS = ("typeC", "typeH", "evenC", "custom")


class Spread:
    """A verified (or candidate) spread with a provenance tag, kept as one
    int64 table `rows`, made read-only in place: row i is the sorted element
    set of component i, of q^dim entries (its shape is checked, not closure).
    `components` makes fresh read-only Subspace views of the rows, in order."""

    def __init__(self, ctx: FieldCtx, rows, kind="custom",
                 verified=False, kernel=None):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or not len(rows):
            raise ValueError("no components")
        self.dim = _subspace_dim(ctx, rows)
        rows.flags.writeable = False
        self.ctx = ctx
        self.rows = rows
        self.kind = kind
        self.verified = bool(verified)
        self.kernel = kernel

    @property
    def components(self) -> list[Subspace]:
        """Fresh read-only Subspace views of the rows, in order."""
        return Subspace._rows(self.ctx, self.rows, self.dim)

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return (f"Spread(kind={self.kind}, components={len(self)}, "
                f"verified={self.verified})")

    def to_json(self) -> dict:
        if self.kernel is None and self.verified:
            self.kernel = kernel_of_spread(self)
        return {
            "ctx": self.ctx.to_json(),
            "kind": self.kind,
            "components": [b for B in _bases(self.ctx, self.rows, self.dim) for b in B.tolist()],
            "verified": self.verified,
            "kernel": self.kernel,
        }

    @classmethod
    def from_json(cls, doc: dict, ctx: FieldCtx | None = None) -> "Spread":
        if ctx is None:
            ctx = ctx_from_json(doc["ctx"])
        verified = doc.get("verified", False)
        if type(verified) is not bool:
            raise ValueError(f"verified must be a JSON boolean, got {verified!r}")
        comps = [Subspace(ctx, basis=[_json_int(x, "basis entry") for x in b])
                 for b in doc["components"]]
        if len({C.dim for C in comps}) > 1:      # fits no table, yet is no malformed document
            raise RuntimeError("components of two dimensions are no spread")
        kernel = doc.get("kernel")
        return cls(ctx, np.array([C.elements for C in comps], dtype=np.int64), doc["kind"],
                   verified, None if kernel is None else _json_int(kernel, "kernel"))


def kernel_of_spread(S: Spread) -> int:
    """Order of the field of F_p-linear endomorphisms fixing every component.

    Starts from all of End_{F_p}(V) and keeps, component by component, the
    maps T with T(W_j) <= W_j; returns p^dim of the rest, also stored in
    S.kernel.  Every component is an F_q-subspace, so the e-dimensional
    space of F_q-scalar maps is always kept: once dim K = e, K is that space
    and the remaining components are not read.  Warns if K is not a field or
    its size not a power of q.
    """
    if not isinstance(S, Spread) or not S.verified:
        raise ValueError("kernel is defined for verified spreads")
    ctx = S.ctx
    p, d = ctx.p, ctx.d
    fq_over_fp = np.array(ctx.subfield_basis("q", 1), dtype=np.int64)
    K = np.eye(d * d, dtype=np.int64)       # rows span the maps kept so far
    for row in S.rows:          # a row at a time: most spreads stop after a few
        basis = _echelon_rows(ctx, row[None, :], S.dim)[0]
        fp_basis = ctx.vmul(basis[:, None], fq_over_fp[None, :])
        D = ctx.to_coords(fp_basis.reshape(-1), d, "p")
        ann = nullspace(ctx, D)
        # one row a (x) w per pair (w in D, a in ann), a_i w_j at i * d + j
        rows = (ann[None, :, :, None] * D[:, None, None, :]).reshape(-1, d * d) % p
        K = nullspace(ctx, rows @ K.T % p) @ K % p
        if len(K) == ctx.e:
            break
    s = len(K)
    size = p ** s
    if s % ctx.e != 0:
        warnings.warn("kernel size is not a power of q", stacklevel=2)
    if size <= 4096:
        basis_mats = [v.reshape(d, d) for v in K]
        for coeffs in product(range(p), repeat=len(basis_mats)):
            if not any(coeffs):
                continue
            T = sum(c * B for c, B in zip(coeffs, basis_mats)) % p
            if len(rref(ctx, T)[1]) != d:
                warnings.warn("kernel endomorphisms do not form a field",
                              stacklevel=2)
                break
    S.kernel = size
    return size


# -- the named constructions -------------------------------------------------------


def _check_delta(ctx: FieldCtx, delta: Elt) -> None:
    _check_element(ctx, "delta", delta)
    qn = ctx.q ** ctx.n
    if ctx.pow(delta, qn - 1) != ctx.neg(1):
        raise ValueError("delta must satisfy delta^(q^n - 1) = -1")


@functools.lru_cache(maxsize=32)
def _twisted_pair(ctx: FieldCtx, k: int) -> tuple[QPoly, QPoly]:
    """X and X^(q^k) on F_{q^n}, built once per (tower, k) so that every
    component {x + delta x^(q^k)} reuses their value tables."""
    return QPoly.identity(ctx), QPoly.monomial(ctx, k, 1)


def build_typeC(ctx: FieldCtx, i: int, delta: Elt) -> Spread:
    """Orbit of {x + delta x^(q^i)} under multiplication by beta."""
    if ctx.p == 2:
        raise ValueError("this construction needs odd q")
    if not (1 <= i <= ctx.n - 1) or math.gcd(i, ctx.n) != 1:
        raise ValueError("need 1 <= i <= n-1 with gcd(i, n) = 1")
    _check_delta(ctx, delta)
    return _beta_spread(ctx, _component_row(*_twisted_pair(ctx, i), delta), "typeC")


def _beta_spread(ctx: FieldCtx, W: np.ndarray, kind: str) -> Spread:
    """The beta-orbit of the n-dimensional element set W, checked to be a
    spread: covering each nonzero vector once takes q^n + 1 rows."""
    rows = _orbit_rows(ctx, W, ctx.beta)
    if (_count(ctx, _row_blocks(rows, W.size))[1:] != 1).any():
        raise RuntimeError("beta-orbit failed spread verification")
    return Spread(ctx, rows, kind, verified=True)


@functools.lru_cache(maxsize=32)
def _typeH_seeds(ctx: FieldCtx, k: int, delta: Elt) -> np.ndarray:
    """The seed rows of the two type-H halves, W = {x + delta x^(q^k)} and
    W^(q^n), sorted, as one read-only table of two rows; built and checked
    once per (tower, k, delta), since only the multipliers depend on eta.
    Raises unless beta^(2 half) W = W, half = (q^n + 1)/2."""
    W = _component_row(*_twisted_pair(ctx, k), delta)
    b2h = ctx.pow(ctx.beta, ctx.q ** ctx.n + 1)          # beta^(2 half)
    if not np.array_equal(_images(ctx, W[None, :], b2h)[0], W):
        raise RuntimeError("the first beta^2-orbit does not close with (q^n + 1)/2 rows")
    seeds = np.stack([W, _images(ctx, W[None, :], 1, ctx.n * ctx.e)[0]])
    seeds.flags.writeable = False
    return seeds


def _typeH_class(ctx: FieldCtx, k: int, delta: Elt, eta: Elt) -> np.ndarray:
    """The checked read-only table first + second of the type-H spread of
    (k, delta, eta), filled in blocks of at most _BLOCK entries; see build_typeH.

    Each row is one seed row times one multiplier, by log: 2j log beta for
    first[j] = beta^(2j) W, log eta - 2i q^n log beta for second[i] =
    eta beta^(-2i q^n) W^(q^n).  Checked: the first orbit closes with half
    rows (in _typeH_seeds), the union covers every nonzero vector once, and
    per block of second-half rows, beta^2 second[i] = second[i + 1 mod half]
    and psi(second[i]) = first[-i mod half] for psi(z) = eta z^(q^n):
    psi(second[i]) = eta^(1 + q^n) beta^(-2i) W, and eta^(1 + q^n) lies in
    F_{q^n} (a norm) and in F_{q^k} (its order divides q^k - 1), so in
    F_q^*, which fixes every component."""
    seeds = _typeH_seeds(ctx, k, delta)
    qn = ctx.q ** ctx.n
    half, M, ne = (qn + 1) // 2, ctx.N - 1, ctx.n * ctx.e
    b2 = ctx.mul(ctx.beta, ctx.beta)
    log_b2, log_eta = int(ctx.log[b2]), int(ctx.log[eta])
    table = np.empty((2 * half, qn), dtype=np.int64)
    for r in _row_blocks(np.arange(2 * half), qn):
        second = r >= half
        logs = np.where(second, log_eta - (r - half) * (qn * log_b2 % M), r * log_b2) % M
        table[r] = _images(ctx, seeds[second.astype(np.intp)], ctx.exp[logs][:, None])
    if (_count(ctx, _row_blocks(table, qn))[1:] != 1).any():
        raise RuntimeError("two-orbit union failed spread verification")
    for r in _row_blocks(np.arange(half, 2 * half), qn):
        if not np.array_equal(_images(ctx, table[r], b2), table[half + (r + 1) % half]):
            raise RuntimeError("beta^2 does not cycle the second orbit")
        if not np.array_equal(_images(ctx, table[r], eta, ne), table[-r % half]):
            raise RuntimeError("group action leaves the component set")
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def _typeH_class_memo(ctx: FieldCtx, k: int, delta: Elt, rho: Elt) -> np.ndarray:
    """_typeH_class of a class representative, for tables of one block."""
    return _typeH_class(ctx, k, delta, rho)


def build_typeH(ctx: FieldCtx, k: int, delta: Elt, eta: Elt) -> Spread:
    """Two beta^2-orbits, of W = {x + delta x^(q^k)} and of its psi-image.

    psi(z) = eta z^(q^n) is F_q-linear with psi(beta^(2j) x) =
    beta^(2j q^n) psi(x).  beta^(q^n + 1) lies in F_q^*, which fixes every
    component, and q^n = -1 mod half = (q^n + 1)/2, so the second orbit is
    the psi-image of the first read backwards: second[i] = psi(first[-i]) =
    eta beta^(-2i q^n) W^(q^n), indices mod half.  _typeH_class checks that
    the union covers every nonzero vector once, that beta^2 cycles each half
    and that psi(second[i]) = first[-i]: so <beta^2, psi> is transitive on
    the components (second[0] = psi(W)).

    eta enters only through its class modulo <beta^2> F_q^*, whose logs
    are the multiples of g = gcd(2 log beta, (N - 1)/(q - 1), N - 1):
    eta = rho beta^(2t) c with rho = gamma^(log eta mod g) and c in F_q^*,
    and second_eta[i] = second_rho[i + t mod half].  rho is itself an
    admissible eta (beta^2 and c are squares, and (beta^(2t) c)^(1 + q^n)
    lies in F_q^*).  A table of at most _BLOCK entries (the 28 rows of
    (3,3), not the 730 of (9,3)) is built for rho and memoized per
    (tower, k, delta, rho); every call then looks psi_eta(W) = eta W^(q^n)
    up among rho's second half, which finds t (a miss raises), and hands
    over first, then second rotated by t: the rows of the build for eta,
    and psi_eta = beta^(2t) c psi_rho maps components to components.  A
    larger table is built for eta itself and not kept.
    """
    if ctx.p == 2 or ctx.n % 2 == 0:
        raise ValueError("this construction needs odd q and odd n")
    if not (1 <= k <= ctx.n - 1) or math.gcd(k, ctx.n) != 1:
        raise ValueError("need 1 <= k <= n-1 with gcd(k, n) = 1")
    _check_delta(ctx, delta)
    _check_element(ctx, "eta", eta)
    qn = ctx.q ** ctx.n
    if ctx.pow(eta, (1 + qn) * (ctx.q ** k - 1)) != 1:
        raise ValueError("eta must satisfy eta^((1+q^n)(q^k-1)) = 1")
    if ctx.is_square(eta):
        raise ValueError("eta must be a nonsquare")
    delta, half = int(delta), (qn + 1) // 2
    if 2 * half * qn > _BLOCK:
        return Spread(ctx, _typeH_class(ctx, k, delta, eta), "typeH", verified=True)
    g = math.gcd(2 * int(ctx.log[ctx.beta]), (ctx.N - 1) // (ctx.q - 1), ctx.N - 1)
    table = _typeH_class_memo(ctx, k, delta, int(ctx.exp[int(ctx.log[eta]) % g]))
    psi_W = _images(ctx, _typeH_seeds(ctx, k, delta)[1:], eta)[0]
    hit = np.flatnonzero((table[half:] == psi_W).all(axis=1))
    if not len(hit):
        raise RuntimeError("psi(W) is not a component of the second orbit")
    t = half + int(hit[0])
    return Spread(ctx, np.concatenate([table[:half], table[t:], table[half:t]]),
                  "typeH", verified=True)


def even3_admissible(ctx: FieldCtx, delta: Elt) -> bool:
    """delta in F_{q^6} \\ F_{q^3} with delta^-1 + delta^-q^3 in F_q^*."""
    ne = ctx.n * ctx.e
    if not ctx.in_subfield(delta, "q2n") or ctx.in_subfield(delta, ne):
        return False
    dinv = ctx.inv(delta)
    c = ctx.add(dinv, ctx.frob(dinv, ne))
    return c != 0 and ctx.in_subfield(c, "q")


def build_even_n3(ctx: FieldCtx, delta: Elt) -> Spread:
    """Orbit of W = {tr(x) + delta x : x in F_{q^3}} under beta, even q."""
    if ctx.p != 2 or ctx.n != 3:
        raise ValueError("this construction needs even q and n = 3")
    _check_element(ctx, "delta", delta)
    if ctx.in_subfield(delta, ctx.n * ctx.e):
        raise ValueError("delta must lie outside F_{q^3}")
    if not even3_admissible(ctx, delta):
        raise ValueError("delta^-1 + delta^-q^3 is not in F_q^*; "
                         "the component map is not a permutation")
    W = _component_row(QPoly.trace_poly(ctx), QPoly.identity(ctx), delta)
    return _beta_spread(ctx, W, "evenC")


def symplectic_check(S: Spread, delta: Elt) -> bool:
    """Total isotropy of every component for A(x, y) = tr((delta + delta^q^3)^-1
    x y^q^3), checked together with A being alternating and nondegenerate.

    A is F_q-bilinear (y -> y^q^3 and the trace to F_q are F_q-linear), so
    each property is one of its Gram matrices on F_q-bases: on a basis of
    the ambient field, zero diagonal, G + G^T = 0 and full rank; on each
    component's basis, zero.  A delta that is no encoding, or has
    delta + delta^q^3 = 0, defines no form and is refused."""
    ctx = S.ctx
    ne = ctx.n * ctx.e
    _check_element(ctx, "delta", delta)
    s = ctx.add(delta, ctx.frob(delta, ne))
    if s == 0:
        raise ValueError(f"delta = {delta} has delta + delta^q^3 = 0: no form to check")
    c = ctx.inv(s)

    def gram(x):        # of each basis along the last axis of x
        M = ctx.vmul(c, ctx.vmul(x[..., :, None], ctx.vpow(x, ctx.p ** ne)[..., None, :]))
        return ctx.vtrace(M, ctx.d, ctx.e)

    G = gram(np.array(ctx.subfield_basis(ctx.d, "q"), dtype=np.int64))
    if (np.any(np.diagonal(G)) or np.any(ctx.vadd(G, G.T))
            or len(rref(ctx, G)[1]) != 2 * ctx.n):
        return False
    return not any(np.any(gram(B)) for B in _bases(ctx, S.rows, S.dim))


# -- the orbit/permutation correspondence ----------------------------------------


class KeyLemmaReport:
    """Both sides of the orbit <-> polynomial equivalences, computed
    independently; .ok means every applicable equivalence held."""

    def __init__(self, ctx, L, delta):
        self.q, self.n, self.delta = ctx.q, ctx.n, delta
        self.sides: dict[str, bool] = {}
        self.clauses: dict[str, bool] = {}
        Q = q_from_component(L, delta)
        # always injective: x + delta L(x) = 0 with x != 0 would put
        # delta = -x/L(x) in F_{q^n}
        W = component_from_pair(QPoly.identity(ctx), L, delta)
        self.sides["component_injective"] = True
        partial = is_partial_spread(orbit(W, "beta2"))
        full = is_spread(orbit(W, "beta"))
        self.sides["beta2_partial_spread"] = partial
        self.sides["beta_spread"] = full
        if ctx.p != 2:
            planar = is_planar_2to1(Q)
            coset = permutes_cosets(Q)
            self.sides["planar"] = planar
            self.sides["coset_permutation"] = coset
            self.clauses["partial_spread<->planar"] = partial == planar
            self.clauses["spread<->coset_permutation"] = full == coset
        else:
            perm = is_permutation_brute(Q)
            self.sides["permutation"] = perm
            self.clauses["spread<->permutation"] = full == perm
            self.clauses["rank_criterion_agrees"] = is_permutation_via_rank(Q) == perm
        self.ok = all(self.clauses.values())

    def __repr__(self):
        return f"KeyLemmaReport(ok={self.ok}, sides={self.sides})"


def check_key_lemma(ctx: FieldCtx, L: QPoly, delta: Elt) -> KeyLemmaReport:
    """Verify the spread/planarity/permutation equivalences for W = {x + delta L(x)}.

    Disagreement between the independently computed sides is a correctness
    alarm, reported via .ok (and .clauses for the failing equivalence).
    """
    ne = ctx.n * ctx.e
    if L.field_k != ne or L.base_k != ctx.e:
        raise ValueError("L must be a q-polynomial on F_{q^n}")
    _check_element(ctx, "delta", delta)
    if ctx.in_subfield(delta, ne):
        raise ValueError("delta must lie outside F_{q^n}")
    return KeyLemmaReport(ctx, L, delta)


def gcd_condition(q: int, n: int) -> bool:
    """gcd((q^n+1)/2, ne) = 1 for odd p, gcd(q^n+1, ne) = 1 for p = 2."""
    p, e = factor_prime_power(q)
    if p == 2:
        return math.gcd(q ** n + 1, n * e) == 1
    return math.gcd((q ** n + 1) // 2, n * e) == 1
