"""Dembowski-Ostrom polynomials and quadratic spaces over F_q.

A DO polynomial is sum c_ij X^(s^i + s^j) with i <= j and s a power of p.
Composing with a trace gives a quadratic space (V, Q) with V a tower field
viewed over F_q; in characteristic 2 these classify into hyperbolic, elliptic
and parabolic types with known zero counts, which is what the permutation
criterion for even q runs on.
"""

from __future__ import annotations

import functools

import numpy as np

from .field import Elt, FieldCtx
from .linpoly import _GradedPoly, _sum_rows, nullspace


class DOPoly(_GradedPoly):
    """sum c_ij X^(s^i + s^j), i <= j, s = p^base_k, on F_p^field_k."""

    __slots__ = ()

    def __init__(self, ctx: FieldCtx, coeffs, field_tag="qn", base_tag="q"):
        m = self._shape(ctx, field_tag, base_tag)
        folded: dict[tuple[int, int], int] = {}
        if isinstance(coeffs, dict):
            items = [(i, j, c) for (i, j), c in coeffs.items()]
        else:
            items = [(i, j, c) for (i, j, c) in coeffs]
        for i, j, c in items:
            c = self._coeff(c)
            i, j = i % m, j % m
            if i > j:
                i, j = j, i
            key = (i, j)
            folded[key] = ctx.add(folded.get(key, 0), c)
        self.coeffs = tuple(sorted((i, j, c) for (i, j), c in folded.items() if c))

    @classmethod
    def _rows(cls, ctx: FieldCtx, field_k: int, base_k: int, keys, coeffs: np.ndarray,
              table: np.ndarray) -> list[DOPoly]:
        """One DOPoly per row of coeffs, its coefficients over the canonical
        keys (sorted (i, j), 0 <= i <= j < m), each keeping its row of table,
        made read-only, as its value table: the one path that checks neither
        the coefficients nor the table."""
        table.flags.writeable = False
        I, J = zip(*keys)
        return [cls.__new__(cls)._set(ctx, field_k, base_k,
                                      tuple(t for t in zip(I, J, row) if t[2]),
                                      vals)
                for row, vals in zip(coeffs.tolist(), table)]

    def __call__(self, x: Elt) -> Elt:
        ctx = self.ctx
        if not ctx.in_subfield(x, self.field_k):
            raise ValueError(f"argument {x} is not in the domain field")
        out = 0
        for i, j, c in self.coeffs:
            t = ctx.mul(ctx.pow(x, self.s ** i), ctx.pow(x, self.s ** j))
            out = ctx.add(out, ctx.mul(c, t))
        return out

    def values(self) -> np.ndarray:
        """Value table aligned with ctx.subfield_elements(field_k); computed on
        the first call, then the same read-only array on every call."""
        return self._cache(lambda: _key_rows(self.ctx, self.field_k, self.base_k,
                                             [(i, j) for i, j, _ in self.coeffs],
                                             [c for _, _, c in self.coeffs]))

    def to_json(self) -> dict:
        if self.base_k == 1:
            base = "p"
        elif self.base_k == self.ctx.e:
            base = "q"
        else:
            base = self.base_k
        doc = {"base": base, "coeffs": [{"i": i, "j": j, "c": int(c)} for i, j, c in self.coeffs]}
        if self.field_k != self.ctx.n * self.ctx.e:
            doc["field"] = self.field_k
        return doc

    @classmethod
    def from_json(cls, ctx, doc: dict):
        base = doc["base"]
        field = doc.get("field", "qn")
        return cls(ctx, [(t["i"], t["j"], t["c"]) for t in doc["coeffs"]], field, base)


def _key_rows(ctx: FieldCtx, field_k: int, base_k: int, keys, coeffs) -> np.ndarray:
    """The value tables of DO polynomials whose coefficients over keys lie
    along the last axis of coeffs: shape coeffs.shape[:-1] + (p^field_k,),
    the sum over (i, j) of the coefficient times x^(s^i) x^(s^j), each
    power x^(s^i) computed once."""
    dom = ctx.subfield_elements(field_k)
    power = functools.cache(lambda i: ctx.vpow(dom, ctx.p ** (base_k * i)))
    return _sum_rows(ctx, coeffs, len(dom), lambda k: ctx.vmul(*map(power, keys[k])))


def _polar(ctx: FieldCtx, field_k: int, vals, X, Y) -> np.ndarray:
    """B(x, y) = f(x + y) - f(x) - f(y) for the value table vals of f
    (aligned with ctx.subfield_elements(field_k)), elementwise over the
    encoding arrays X and Y broadcast against each other."""
    pos = ctx.element_index(field_k)
    return ctx.vsub(ctx.vsub(vals[pos[ctx.vadd(X, Y)]], vals[pos[X]]), vals[pos[Y]])


def _require_do(f) -> DOPoly:
    if not isinstance(f, DOPoly):
        raise TypeError(f"expected a DOPoly, got {type(f).__name__}")
    return f


def is_permutation_brute(f: DOPoly) -> bool:
    """Direct bijectivity scan of the value table: are its values distinct?"""
    _require_do(f)
    vals = f.values()
    return len(set(vals.tolist())) == len(vals)


# -- F_q^* coset action --------------------------------------------------------
#
# F_q^* = <gamma^R> with R = (N-1)/(q-1), so two nonzero elements lie in one
# F_q^*-coset exactly when their logs agree mod R.


def coset_representatives(ctx: FieldCtx, field_k) -> list[Elt]:
    """Representatives of F_p^field_k^* / F_q^*: the gamma-powers with log
    below R, ascending."""
    k = ctx.tag_degree(field_k)
    if k % ctx.e != 0:
        raise ValueError(f"F_p^{k} does not contain F_q")
    units = ctx.subfield_elements(k)[1:]
    return units[ctx.log[units] < (ctx.N - 1) // (ctx.q - 1)].tolist()


@functools.lru_cache(maxsize=32)
def _coset_positions(ctx: FieldCtx, field_k: int) -> np.ndarray:
    """Positions of coset_representatives(ctx, field_k) in the sorted
    ctx.subfield_elements(field_k), found once per (tower, field_k)."""
    pos = np.searchsorted(ctx.subfield_elements(field_k), coset_representatives(ctx, field_k))
    pos.flags.writeable = False
    return pos


def permutes_cosets(f: DOPoly) -> bool:
    """Does f induce a bijection of F_{q^n}^* / F_q^*?

    Well defined for DO polynomials since f(lambda x) = lambda^2 f(x) for
    lambda in F_q when the grading base contains F_q; any zero value on a
    nonzero element makes the induced map undefined, hence False.  A
    self-map of the finite coset set is a bijection exactly when it is onto.
    By the same identity f(lambda x) is zero exactly when f(x) is, and
    otherwise lies in the coset of f(x), so f is read at the coset
    representatives only: no zero there, and as many classes log v mod R
    as representatives.
    """
    _require_do(f)
    ctx = f.ctx
    if f.base_k % ctx.e != 0:
        raise ValueError("coset action needs the grading base to contain F_q")
    vals = f.values()[_coset_positions(ctx, f.field_k)].tolist()
    if 0 in vals:
        return False
    R, log = (ctx.N - 1) // (ctx.q - 1), memoryview(ctx.log)
    return len({log[v] % R for v in vals}) == len(vals)


# -- quadratic spaces ------------------------------------------------------------


class QuadSpace:
    """Quadratic map Q: V -> F_q with V = F_p^field_k viewed over F_q.

    Stored as an explicit value table aligned with ctx.subfield_elements(field_k).
    classify() only applies in characteristic 2; odd-characteristic spaces carry
    the type tag "odd-char-generic".
    """

    def __init__(self, ctx: FieldCtx, values, field_tag="qn"):
        self.ctx = ctx
        self.field_k = ctx.tag_degree(field_tag)
        if self.field_k % ctx.e != 0:
            raise ValueError("V must be an extension of F_q")
        self.dim = self.field_k // ctx.e
        dom = ctx.subfield_elements(self.field_k)
        values = np.asarray(values, dtype=np.int64)
        if values.shape != dom.shape:
            raise ValueError("value table does not match the field size")
        if int(values[0]) != 0:
            raise ValueError("a quadratic map must vanish at 0")
        bad = values[ctx.outside(values, "q")]
        if len(bad):
            raise ValueError(f"value {int(bad[0])} is not in F_q")
        self.values = values
        self._radical: list[Elt] | None = None

    @classmethod
    def from_trace(cls, ctx, f: DOPoly, y: Elt) -> "QuadSpace":
        """x -> tr_{V/F_q}(y * f(x))."""
        _require_do(f)
        if not ctx.in_subfield(y, f.field_k):
            raise ValueError("y must lie in the domain field")
        vals = ctx.vtrace(ctx.vmul(y, f.values()), f.field_k, ctx.e)
        return cls(ctx, vals, f.field_k)

    @classmethod
    def from_coords(cls, ctx, coeffs: dict, field_tag="qn") -> "QuadSpace":
        """Coordinate form sum c_ij x_i x_j w.r.t. the fixed basis of V over F_q."""
        field_k = ctx.tag_degree(field_tag)
        dom = ctx.subfield_elements(field_k)
        C = ctx.to_coords(dom, field_k, "q")
        keys = list(coeffs)
        if any(not 0 <= i < C.shape[1] for key in keys for i in key):
            raise ValueError("coordinate index out of range")
        out = _sum_rows(ctx, [int(c) for c in coeffs.values()], len(dom),
                        lambda k: ctx.vmul(C[:, keys[k][0]], C[:, keys[k][1]]))
        return cls(ctx, out, field_k)

    def value(self, x: Elt) -> Elt:
        if not self.ctx.in_subfield(x, self.field_k):
            raise ValueError(f"element {x} is not in V")
        return int(self.values[self.ctx.element_index(self.field_k)[x]])

    def bilinear(self, x: Elt, y: Elt) -> Elt:
        """Polar form B(x, y) = Q(x+y) - Q(x) - Q(y)."""
        ctx = self.ctx
        return ctx.sub(ctx.sub(self.value(ctx.add(x, y)), self.value(x)), self.value(y))


def count_zeros(S: QuadSpace) -> int:
    return int(np.count_nonzero(S.values == 0))


def radical(S: QuadSpace) -> list[Elt]:
    """Basis over F_q of rad(B) = {v : B(v, .) = 0}."""
    if S._radical is None:
        ctx = S.ctx
        basis = np.array(ctx.subfield_basis(S.field_k, "q"), dtype=np.int64)
        gram = _polar(ctx, S.field_k, S.values, basis[:, None], basis[None, :])
        S._radical = ctx.from_coords(nullspace(ctx, gram), S.field_k, "q").tolist()
    return S._radical


def classify_char2(S: QuadSpace) -> dict:
    """Classify a characteristic-2 quadratic space.

    Returns {"type": "hyperbolic"|"elliptic"|"parabolic", "r": dim radical,
    "s": half the rank's even part, "rank": 2s or 2s+1}.  The zero count is
    cross-checked against q^(n-1) + (q-1) q^(r+s-1) eps; a mismatch means a
    broken invariant and raises.
    """
    ctx = S.ctx
    if ctx.p != 2:
        raise ValueError("classification table applies to characteristic 2 only")
    q, n = ctx.q, S.dim
    rad = radical(S)
    r = len(rad)
    if (n - r) % 2 != 0:
        raise RuntimeError("char-2 polar form has odd corank; invariant broken")
    s = (n - r) // 2
    parabolic = any(S.value(int(v)) != 0 for v in ctx.span(rad, "q"))
    n0 = count_zeros(S)
    if parabolic:
        if n0 != q ** (n - 1):
            raise RuntimeError("parabolic zero count does not match q^(n-1)")
        return {"type": "parabolic", "r": r, "s": s, "rank": 2 * s + 1}
    for eps, name in ((1, "hyperbolic"), (-1, "elliptic")):
        if n0 == q ** (n - 1) + eps * (q - 1) * q ** (r + s - 1):
            return {"type": name, "r": r, "s": s, "rank": 2 * s}
    raise RuntimeError("zero count matches neither nondefective type; invariant broken")


def is_permutation_via_rank(f: DOPoly) -> bool:
    """Even-q permutation criterion: f permutes V iff every nonzero y gives
    tr(y f(x)) odd rank."""
    _require_do(f)
    ctx = f.ctx
    if ctx.p != 2:
        raise ValueError("rank criterion applies to even q only")
    dom = ctx.subfield_elements(f.field_k)
    for y in dom[1:]:
        if classify_char2(QuadSpace.from_trace(ctx, f, int(y)))["rank"] % 2 == 0:
            return False
    return True
