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
    if (ctx.q ** dim != size or (rows[:, 0] != 0).any()
            or (rows[:, 1:] <= rows[:, :-1]).any()):
        raise ValueError("element set is not an F_q-subspace")
    return dim


class Subspace:
    """F_q-subspace of the ambient field, stored as its full element set.

    Equality and hashing use the sorted element array; the canonical reduced
    echelon basis (w.r.t. the fixed basis of the ambient field over F_q) is
    computed lazily for serialization.
    """

    __slots__ = ("ctx", "elements", "dim", "_basis")

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
        self._basis: list[Elt] | None = None
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
        if self._basis is None:
            self._basis = _echelon_rows(self.ctx, self.elements[None, :], self.dim)[0].tolist()
        return self._basis

    def __contains__(self, x: Elt) -> bool:
        i = int(np.searchsorted(self.elements, int(x)))
        return i < len(self.elements) and int(self.elements[i]) == int(x)

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


def _fill_bases(components) -> None:
    """Read off every missing basis: one _echelon_rows pass per block of at
    most _BLOCK elements, over subspaces of one tower and dimension."""
    groups: dict = {}
    for C in components:
        if C._basis is None:
            groups.setdefault((C.ctx, C.dim), []).append(C)
    for (ctx, dim), todo in groups.items():
        per = max(1, _BLOCK // ctx.q ** dim)
        for lo in range(0, len(todo), per):
            part = todo[lo:lo + per]
            rows = _echelon_rows(ctx, np.stack([C.elements for C in part]), dim)
            for C, row in zip(part, rows.tolist()):
                C._basis = row


def component_from_pair(A: QPoly, B: QPoly, delta: Elt) -> Subspace:
    """W = {A(x) + delta B(x) : x in F_{q^n}} as an n-dimensional subspace.

    delta must lie outside F_{q^n} and the parametrization must be injective;
    a dimension drop is an error.
    """
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
    return Subspace._rows(ctx, vals[None, :])[0]


def _images(ctx: FieldCtx, table: np.ndarray, g, k: int = 0) -> np.ndarray:
    """Each row's image {g x^(p^k)} under an F_q-linear bijection, sorted as
    Subspace.elements (compare via .tobytes()); g is one element or a column
    of one multiplier per row; x^(p^k) comes from vpow."""
    els = ctx.vpow(table, ctx.p ** k) if k else table
    return np.sort(ctx.vmul(g, els), axis=1)


def orbit(W: Subspace, kind: str) -> list[Subspace]:
    """Distinct images of W under <g>, g = beta (kind "beta") or beta^2
    ("beta2"); the i-th component is g^i W.

    F_q^* fixes the F_q-subspace W, so the orbit length divides M, the order
    of g modulo F_q^*: M = R / gcd(R, log g) with R = (N - 1)/(q - 1), that
    is q^n + 1 for beta and (q^n + 1)/gcd(2, q^n + 1) for beta^2.  Rows
    g^j W, j = 0..M, are computed in blocks of rows, and the orbit ends at
    the first row j >= 1 equal to W.
    """
    ctx = W.ctx
    if kind == "beta":
        g = ctx.beta
    elif kind == "beta2":
        g = ctx.mul(ctx.beta, ctx.beta)
    else:
        raise ValueError(f"unknown orbit kind {kind!r}")
    R = (ctx.N - 1) // (ctx.q - 1)
    log_g = int(ctx.log[g])
    M = R // math.gcd(R, log_g)
    rows = max(1, _BLOCK // W.elements.size)
    out: list[Subspace] = []
    for lo in range(0, M + 1, rows):
        j = np.arange(lo, min(lo + rows, M + 1), dtype=np.int64)
        T = _images(ctx, W.elements[None, :], ctx.exp[j * log_g % (ctx.N - 1)][:, None])
        back = np.flatnonzero((T == W.elements).all(axis=1) & (j >= 1))
        if len(back):
            return out + Subspace._rows(ctx, T[:back[0]])
        out += Subspace._rows(ctx, T)
    raise RuntimeError("orbit did not close within the order of g modulo F_q^*")


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
    if ctx.N <= _BLOCK:
        per = max(1, _BLOCK // components[0].elements.size)
        return _count(ctx, (np.stack([C.elements for C in components[lo:lo + per]])
                            for lo in range(0, len(components), per)))
    return _count(ctx, (C.elements[None, :] for C in components))


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
    """A verified (or candidate) spread with a provenance tag."""

    def __init__(self, ctx: FieldCtx, components, kind="custom",
                 verified=False, kernel=None):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        self.ctx = ctx
        self.components = list(components)
        self.kind = kind
        self.verified = bool(verified)
        self.kernel = kernel

    def __len__(self):
        return len(self.components)

    def __repr__(self):
        return (f"Spread(kind={self.kind}, components={len(self.components)}, "
                f"verified={self.verified})")

    def to_json(self) -> dict:
        if self.kernel is None and self.verified:
            self.kernel = kernel_of_spread(self)
        _fill_bases(self.components)
        return {
            "ctx": self.ctx.to_json(),
            "kind": self.kind,
            "components": [C.to_json() for C in self.components],
            "verified": self.verified,
            "kernel": self.kernel,
        }

    @classmethod
    def from_json(cls, doc: dict, ctx: FieldCtx | None = None) -> "Spread":
        if ctx is None:
            ctx = ctx_from_json(doc["ctx"])
        comps = [Subspace(ctx, basis=[_json_int(x, "basis entry") for x in b])
                 for b in doc["components"]]
        kernel = doc.get("kernel")
        return cls(ctx, comps, doc["kind"], doc.get("verified", False),
                   None if kernel is None else _json_int(kernel, "kernel"))


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
    for C in S.components:
        fp_basis = ctx.vmul(np.array(C.basis, dtype=np.int64)[:, None], fq_over_fp[None, :])
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
    W = component_from_pair(*_twisted_pair(ctx, i), delta)
    comps = orbit(W, "beta")
    if not is_spread(comps):
        raise RuntimeError("beta-orbit failed spread verification")
    return Spread(ctx, comps, "typeC", verified=True)


@functools.lru_cache(maxsize=32)
def _typeH_seeds(ctx: FieldCtx, k: int, delta: Elt) -> np.ndarray:
    """The seed rows of the two type-H halves, W = {x + delta x^(q^k)} and
    W^(q^n), sorted, as one read-only table of two rows; built and checked
    once per (tower, k, delta), since only the multipliers depend on eta.
    Raises unless beta^(2 half) W = W, half = (q^n + 1)/2."""
    W = component_from_pair(*_twisted_pair(ctx, k), delta).elements
    b2h = ctx.pow(ctx.beta, ctx.q ** ctx.n + 1)          # beta^(2 half)
    if not np.array_equal(_images(ctx, W[None, :], b2h)[0], W):
        raise RuntimeError("the first beta^2-orbit does not close with (q^n + 1)/2 rows")
    seeds = np.stack([W, _images(ctx, W[None, :], 1, ctx.n * ctx.e)[0]])
    seeds.flags.writeable = False
    return seeds


def _typeH_class(ctx: FieldCtx, k: int, delta: Elt, rho: Elt) -> tuple[np.ndarray, ...]:
    """The checked rows first + second of the type-H spread of (k, delta, rho),
    in blocks of at most _BLOCK entries; see build_typeH.

    Each row is one seed row times one multiplier, by log: 2j log beta for
    first[j] = beta^(2j) W, log rho - 2i q^n log beta for second[i] =
    rho beta^(-2i q^n) W^(q^n).  Checked: the first orbit closes with half
    rows (in _typeH_seeds), the union covers every nonzero vector once,
    beta^2 second[i] = second[i + 1], and psi(second[i]) = first[-i mod half]
    for psi(z) = rho z^(q^n): psi(second[i]) = rho^(1 + q^n) beta^(-2i) W,
    and rho^(1 + q^n) lies in F_{q^n} (a norm) and in F_{q^k} (its order
    divides q^k - 1), so in F_q^*, which fixes every component."""
    seeds = _typeH_seeds(ctx, k, delta)
    qn = ctx.q ** ctx.n
    half, M, ne = (qn + 1) // 2, ctx.N - 1, ctx.n * ctx.e
    b2 = ctx.mul(ctx.beta, ctx.beta)
    log_b2, log_rho = int(ctx.log[b2]), int(ctx.log[rho])
    per = max(1, _BLOCK // seeds.shape[1])
    blocks = []
    for lo in range(0, 2 * half, per):
        r = np.arange(lo, min(lo + per, 2 * half), dtype=np.int64)
        second = r >= half
        logs = np.where(second, log_rho - (r - half) * (qn * log_b2 % M), r * log_b2) % M
        blocks.append(_images(ctx, seeds[second.astype(np.intp)], ctx.exp[logs][:, None]))
    if not (_count(ctx, blocks)[1:] == 1).all():
        raise RuntimeError("two-orbit union failed spread verification")

    # the second-half rows of each block, from s on; beta^2 moves each to
    # the next built row, the last to second[0]
    seconds = [(lo, max(lo, half) - lo, B) for lo, B in zip(range(0, 2 * half, per), blocks)
               if lo + len(B) > half]
    after = [B[0] for _, _, B in seconds[1:]] + [blocks[half // per][half % per]]
    for (lo, s, B), nxt in zip(seconds, after):
        img = _images(ctx, B[s:], b2)
        if not (np.array_equal(img[:-1], B[s + 1:]) and np.array_equal(img[-1], nxt)):
            raise RuntimeError("beta^2 does not cycle the second orbit")
        j = -np.arange(lo + s - half, lo + len(B) - half) % half
        want = np.empty_like(img)
        for b, F in enumerate(blocks[:half // per + 1]):
            at = j // per == b
            want[at] = F[j[at] % per]
        if not np.array_equal(_images(ctx, B[s:], rho, ne), want):
            raise RuntimeError("group action leaves the component set")
    for B in blocks:        # Subspace._rows' shape check, made once per table
        _subspace_dim(ctx, B)
        B.flags.writeable = False
    return tuple(blocks)


@functools.lru_cache(maxsize=32)
def _typeH_class_memo(ctx: FieldCtx, k: int, delta: Elt, rho: Elt) -> tuple[np.ndarray, ...]:
    """_typeH_class, kept for the tables of at most _BLOCK entries (one
    block); a larger table lives only as long as its build_typeH call."""
    return _typeH_class(ctx, k, delta, rho)


def build_typeH(ctx: FieldCtx, k: int, delta: Elt, eta: Elt) -> Spread:
    """Two beta^2-orbits, of W = {x + delta x^(q^k)} and of its psi-image.

    psi(z) = eta z^(q^n) is F_q-linear with psi(beta^(2j) x) =
    beta^(2j q^n) psi(x).  beta^(q^n + 1) lies in F_q^*, which fixes every
    component, and q^n = -1 mod half = (q^n + 1)/2, so the second orbit is
    the psi-image of the first read backwards: second[i] = psi(first[-i]) =
    eta beta^(-2i q^n) W^(q^n), indices mod half.

    So eta enters only through its class modulo <beta^2> F_q^*, whose logs
    are the multiples of g = gcd(2 log beta, (N - 1)/(q - 1), N - 1):
    eta = rho beta^(2t) c with rho = gamma^(log eta mod g) and c in F_q^*,
    and second_eta[i] = second_rho[i + t mod half].  rho is itself an
    admissible eta (beta^2 and c are squares, and (beta^(2t) c)^(1 + q^n)
    lies in F_q^*).  The rows of rho are built and checked once
    (_typeH_class): the union covers every nonzero vector once, beta^2
    cycles each half, and psi_rho(second[i]) = first[-i].  Every call then
    looks psi_eta(W) = eta W^(q^n) up among rho's second half, which
    finds t (a miss raises), and returns first, then second rotated by t,
    each row a fresh read-only Subspace view.  The rows equal those of the
    direct build for eta, and psi_eta = beta^(2t) c psi_rho maps
    components to components.  So beta^2 is transitive on each half and
    psi_eta joins them (second[0] = psi_eta(W)): <beta^2, psi_eta> is
    transitive on the components.  The table of rho is memoized per
    (tower, k, delta, rho) only when it fits one block of _BLOCK entries
    (the 28 rows of (3,3), not the 730 of (9,3)).
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
    g = math.gcd(2 * int(ctx.log[ctx.beta]), (ctx.N - 1) // (ctx.q - 1), ctx.N - 1)
    rho = int(ctx.exp[int(ctx.log[eta]) % g])
    seeds = _typeH_seeds(ctx, k, delta)
    build = _typeH_class_memo if 2 * half * seeds.shape[1] <= _BLOCK else _typeH_class
    blocks = build(ctx, k, delta, rho)
    psi_W = _images(ctx, seeds[1:], eta)[0]
    hit = np.flatnonzero(np.concatenate([(B == psi_W).all(axis=1) for B in blocks])[half:])
    if not len(hit):
        raise RuntimeError("psi(W) is not a component of the second orbit")
    t = half + int(hit[0])
    comps = [C for B in blocks for C in Subspace._rows(ctx, B, ctx.n)]
    return Spread(ctx, comps[:half] + comps[t:] + comps[half:t], "typeH", verified=True)


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
    W = component_from_pair(QPoly.trace_poly(ctx), QPoly.identity(ctx), delta)
    comps = orbit(W, "beta")
    if not is_spread(comps):
        raise RuntimeError("beta-orbit failed spread verification")
    return Spread(ctx, comps, "evenC", verified=True)


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

    def gram(basis):
        x = np.asarray(basis, dtype=np.int64)
        M = ctx.vmul(c, ctx.vmul(x[:, None], ctx.vpow(x, ctx.p ** ne)[None, :]))
        return ctx.vtrace(M, ctx.d, ctx.e)

    G = gram(ctx.subfield_basis(ctx.d, "q"))
    if (np.any(np.diagonal(G)) or np.any(ctx.vadd(G, G.T))
            or len(rref(ctx, G)[1]) != 2 * ctx.n):
        return False
    _fill_bases(S.components)
    return not any(np.any(gram(C.basis)) for C in S.components)


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
