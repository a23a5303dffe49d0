"""Spreads of 2n-dimensional spaces over F_q and their Singer-cycle orbits.

A spread is a set of q^n + 1 pairwise trivially intersecting n-dimensional
F_q-subspaces covering every nonzero vector of F_{q^{2n}} exactly once; it
coordinatizes a translation plane whose kernel is the field of F_p-linear
endomorphisms fixing every component.  Components here arise as images
{A(x) + delta B(x)} of linearized-polynomial pairs, and whole spreads as
orbits of one component under powers of beta.
"""

from __future__ import annotations

import math
import warnings
from itertools import product

import numpy as np

from .field import Elt, FieldCtx, ctx_from_json, factor_prime_power
from .linpoly import QPoly, nullspace, rref
from .quadform import is_permutation_brute, is_permutation_via_rank, permutes_cosets
from .semifield import is_planar_2to1, q_from_component


# -- subspaces -------------------------------------------------------------------


class Subspace:
    """F_q-subspace of the ambient field, stored as its full element set.

    Equality and hashing use the sorted element tuple; the canonical reduced
    echelon basis (w.r.t. the fixed basis of the ambient field over F_q) is
    computed lazily for serialization.
    """

    __slots__ = ("ctx", "elements", "dim", "_basis", "_key")

    def __init__(self, ctx: FieldCtx, elements=None, basis=None, verify=True):
        self.ctx = ctx
        if (elements is None) == (basis is None):
            raise ValueError("give exactly one of elements or basis")
        if basis is not None:
            elements = ctx.span(basis, "q")
            verify = False
        els = np.unique(np.asarray(elements, dtype=np.int64))
        size = len(els)
        dim = 0
        while ctx.q ** dim < size:
            dim += 1
        if ctx.q ** dim != size or (size and els[0] != 0):
            raise ValueError("element set is not an F_q-subspace")
        if verify:
            mask = np.zeros(ctx.N, dtype=bool)
            mask[els] = True
            if not mask[ctx.vadd(els[:, None], els[None, :])].all():
                raise ValueError("element set is not closed under addition")
            scal = ctx.subfield_elements("q")
            if not mask[ctx.vmul(els[:, None], scal[None, :])].all():
                raise ValueError("element set is not closed under F_q-scalars")
        els.flags.writeable = False
        self.elements = els
        self.dim = dim
        self._basis: list[Elt] | None = None
        self._key = els.tobytes()

    @property
    def basis(self) -> list[Elt]:
        """Canonical reduced-echelon F_q-basis."""
        if self._basis is None:
            ctx = self.ctx
            R = rref(ctx, ctx.to_coords(self.elements[1:], ctx.d, "q"))[0]
            self._basis = ctx.from_coords(R, ctx.d, "q").tolist()
        return self._basis

    def __contains__(self, x: Elt) -> bool:
        i = int(np.searchsorted(self.elements, int(x)))
        return i < len(self.elements) and int(self.elements[i]) == int(x)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ctx == other.ctx
                and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, basis={self.basis})"

    def to_json(self) -> list[int]:
        return [int(b) for b in self.basis]


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
    if ctx.in_subfield(delta, ne):
        raise ValueError("delta must lie outside F_{q^n}")
    vals = ctx.vadd(A.values(), ctx.vmul(delta, B.values()))
    W = Subspace(ctx, elements=vals, verify=False)
    if W.dim != ctx.n:
        raise ValueError("parametrization is not injective; dimension would drop")
    return W


def _image(W: Subspace, g: Elt, k: int = 0) -> np.ndarray:
    """Sorted elements g x^(p^k), x in W: the image of W under an F_q-linear
    bijection, in the form of Subspace.elements (compare via .tobytes())."""
    ctx = W.ctx
    els = ctx.frob_table(k)[W.elements] if k else W.elements
    return np.sort(ctx.vmul(g, els))


def orbit(W: Subspace, kind: str) -> list[Subspace]:
    """Distinct images of W under <beta> (kind "beta") or <beta^2> ("beta2")."""
    ctx = W.ctx
    if kind == "beta":
        g = ctx.beta
    elif kind == "beta2":
        g = ctx.mul(ctx.beta, ctx.beta)
    else:
        raise ValueError(f"unknown orbit kind {kind!r}")
    out = [W]
    while True:
        els = _image(out[-1], g)
        if els.tobytes() == W._key:
            return out
        out.append(Subspace(ctx, elements=els, verify=False))


def _coverage(components) -> np.ndarray:
    if not components:
        raise ValueError("no components")
    ctx = components[0].ctx
    dims = {C.dim for C in components}
    if len(dims) != 1:
        raise ValueError(f"components of mixed dimensions {sorted(dims)}")
    if any(C.ctx != ctx for C in components):
        raise ValueError("components from different towers")
    counts = np.zeros(ctx.N, dtype=np.int64)
    for C in components:
        counts[C.elements[1:]] += 1
    return counts


def is_partial_spread(components) -> bool:
    """Pairwise trivial intersections, by coverage counting."""
    return bool((_coverage(components) <= 1).all())


def is_spread(components) -> bool:
    """Exactly q^n + 1 components of dimension n covering each nonzero
    ambient vector exactly once."""
    if not components:
        raise ValueError("no components")
    ctx = components[0].ctx
    if components[0].dim != ctx.n or len(components) != ctx.q ** ctx.n + 1:
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
        comps = [Subspace(ctx, basis=b) for b in doc["components"]]
        return cls(ctx, comps, doc["kind"], doc.get("verified", False),
                   doc.get("kernel"))


def kernel_of_spread(S: Spread) -> int:
    """Order of the field of F_p-linear endomorphisms fixing every component.

    Solves the combined linear system T(W_j) <= W_j over F_p and returns
    p^dim of its solution space, which it also stores in S.kernel; warns if
    the solution set is not a field or its size is not a power of q.
    """
    if not isinstance(S, Spread) or not S.verified:
        raise ValueError("kernel is defined for verified spreads")
    ctx = S.ctx
    p, d = ctx.p, ctx.d
    fq_over_fp = np.array(ctx.subfield_basis("q", 1), dtype=np.int64)
    rows = []
    for C in S.components:
        fp_basis = ctx.vmul(np.array(C.basis, dtype=np.int64)[:, None], fq_over_fp[None, :])
        D = ctx.to_coords(fp_basis.reshape(-1), d, "p")
        ann = nullspace(ctx, D)
        # one row a (x) w per pair (w in D, a in ann), a_i w_j at i * d + j
        rows.append((ann[None, :, :, None] * D[:, None, None, :]).reshape(-1, d * d) % p)
    K = nullspace(ctx, np.concatenate(rows))
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
    qn = ctx.q ** ctx.n
    if ctx.pow(delta, qn - 1) != ctx.neg(1):
        raise ValueError("delta must satisfy delta^(q^n - 1) = -1")


def build_typeC(ctx: FieldCtx, i: int, delta: Elt) -> Spread:
    """Orbit of {x + delta x^(q^i)} under multiplication by beta."""
    if ctx.p == 2:
        raise ValueError("this construction needs odd q")
    if not (1 <= i <= ctx.n - 1) or math.gcd(i, ctx.n) != 1:
        raise ValueError("need 1 <= i <= n-1 with gcd(i, n) = 1")
    _check_delta(ctx, delta)
    W = component_from_pair(QPoly.identity(ctx), QPoly.monomial(ctx, i, 1), delta)
    comps = orbit(W, "beta")
    if not is_spread(comps):
        raise RuntimeError("beta-orbit failed spread verification")
    return Spread(ctx, comps, "typeC", verified=True)


def build_typeH(ctx: FieldCtx, k: int, delta: Elt, eta: Elt) -> Spread:
    """Two beta^2-orbits, of {x + delta x^(q^k)} and of its psi-image."""
    if ctx.p == 2 or ctx.n % 2 == 0:
        raise ValueError("this construction needs odd q and odd n")
    if not (1 <= k <= ctx.n - 1) or math.gcd(k, ctx.n) != 1:
        raise ValueError("need 1 <= k <= n-1 with gcd(k, n) = 1")
    _check_delta(ctx, delta)
    qn = ctx.q ** ctx.n
    if ctx.pow(eta, (1 + qn) * (ctx.q ** k - 1)) != 1:
        raise ValueError("eta must satisfy eta^((1+q^n)(q^k-1)) = 1")
    if ctx.is_square(eta):
        raise ValueError("eta must be a nonsquare")
    W = component_from_pair(QPoly.identity(ctx), QPoly.monomial(ctx, k, 1), delta)
    half = (qn + 1) // 2
    # psi(z) = eta z^(q^n), an F_q-linear bijection of the ambient field
    ne = ctx.n * ctx.e
    first = orbit(W, "beta2")
    second = orbit(Subspace(ctx, elements=_image(W, eta, ne), verify=False), "beta2")
    comps = first + second
    if len(first) != half or len(second) != half or not is_spread(comps):
        raise RuntimeError("two-orbit union failed spread verification")
    # transitivity of the group generated by beta^2 and psi on the components
    b2 = ctx.mul(ctx.beta, ctx.beta)
    index = {C._key: i for i, C in enumerate(comps)}
    moves = []
    for C in comps:
        imgs = [index.get(_image(C, b2).tobytes()),
                index.get(_image(C, eta, ne).tobytes())]
        if None in imgs:
            raise RuntimeError("group action leaves the component set")
        moves.append(imgs)
    reached = {0}
    frontier = [0]
    while frontier:
        for j in moves[frontier.pop()]:
            if j not in reached:
                reached.add(j)
                frontier.append(j)
    if len(reached) != len(comps):
        raise RuntimeError("<beta^2, psi> is not transitive on components")
    return Spread(ctx, comps, "typeH", verified=True)


def even3_admissible(ctx: FieldCtx, delta: Elt) -> bool:
    """delta in F_{q^6} \\ F_{q^3} with delta^-1 + delta^-q^3 in F_q^*."""
    ne = ctx.n * ctx.e
    if delta == 0 or ctx.in_subfield(delta, ne):
        return False
    dinv = ctx.inv(delta)
    c = ctx.add(dinv, ctx.frob(dinv, ne))
    return c != 0 and ctx.in_subfield(c, "q")


def build_even_n3(ctx: FieldCtx, delta: Elt) -> Spread:
    """Orbit of W = {tr(x) + delta x : x in F_{q^3}} under beta, even q."""
    if ctx.p != 2 or ctx.n != 3:
        raise ValueError("this construction needs even q and n = 3")
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
    x y^q^3), checked together with A being alternating, bi-additive and
    nondegenerate."""
    ctx = S.ctx
    ne = ctx.n * ctx.e
    c = ctx.inv(ctx.add(delta, ctx.frob(delta, ne)))
    els = ctx.subfield_elements(ctx.d)       # the whole ambient field, 0..N-1
    M = ctx.vmul(c, ctx.vmul(els[:, None], ctx.frob_table(ne)[els][None, :]))
    T = ctx.vtrace(M, ctx.d, ctx.e)
    if np.any(np.diagonal(T)) or not np.array_equal(T, T.T):
        return False
    if ctx.N <= 128:                          # exhaustive bi-additivity
        sums = ctx.vadd(els[:, None], els[None, :])
        if not np.array_equal(T[sums], ctx.vadd(T[:, None, :], T[None, :, :])):
            return False
    basis = ctx.subfield_basis(ctx.d, "q")
    if len(rref(ctx, T[np.ix_(basis, basis)])[1]) != 2 * ctx.n:
        return False
    for C in S.components:
        if np.any(T[np.ix_(C.elements, C.elements)]):
            return False
    return True


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
    if ctx.in_subfield(delta, ne):
        raise ValueError("delta must lie outside F_{q^n}")
    return KeyLemmaReport(ctx, L, delta)


def gcd_condition(q: int, n: int) -> bool:
    """gcd((q^n+1)/2, ne) = 1 for odd p, gcd(q^n+1, ne) = 1 for p = 2."""
    p, e = factor_prime_power(q)
    if p == 2:
        return math.gcd(q ** n + 1, n * e) == 1
    return math.gcd((q ** n + 1) // 2, n * e) == 1
