"""Finite field towers F_p < F_q < F_q^n < F_q^2n realized in one ambient field.

Every element of the ambient field F_p^(2ne) is encoded as an integer: the
base-p digits of the encoding are the coefficients of the element written in
the power basis of the defining polynomial.  Construction is fully
deterministic: the defining polynomial is the least monic irreducible of the
right degree (coefficients compared as a base-p integer), gamma is the least
encoding that generates the multiplicative group, and beta = gamma^((q^n-1)/(q-1)).

All arithmetic runs through tables built once at construction time, each
operation through exactly one of them (Lidl and Niederreiter, Finite Fields,
ch. 9):

* multiply, divide, invert, power and negate (multiply by -1, encoded p-1)
  use a sentinel log table: log[gamma^i] = i and log[0] = 2(N-1), against an
  antilog table of length 4(N-1)+1 that repeats the powers of gamma twice and
  holds zeros from index 2(N-1) on.  A product is exp[log[a] + log[b]] with no
  zero mask and no modulo, since any sum that involves log[0] lands in the
  zero tail.
* add in odd characteristic uses a split-digit table: with h = ceil(d/2) and
  P = p^h, one P x P table holds the digitwise sums of two h-digit numbers,
  and a + b = T[a div P, b div P] * P + T[a mod P, b mod P].  In
  characteristic 2 addition is XOR.

The tables are int32 (encodings stay below the 2^24 table budget); the
vectorized kernels return int64 arrays, and the scalar kernels read the same
tables through memoryviews, which return Python ints.  The antilog table is
built by doubling on the encodings, gamma^(h+i) = gamma^i * gamma^h with the
second factor a d x d matrix over F_p, in row blocks of _EXP_BLOCK.

to_coords and from_coords are the one map between encodings and coordinates
over a subfield: to_coords reads coord_index, from_coords sums c_j * b_j with
vmul and vadd.  Subfields and cosets are read off the log table: gamma^i lies
in F_p^k exactly when (N-1)/(p^k-1) divides i, and two units share an
F_q^*-coset exactly when their logs agree mod (N-1)/(q-1).

Besides the arithmetic tables, a FieldCtx keeps the Frobenius tables, the
sorted subfield element lists and, in _index_cache, the element_index and
coord_index lookups; span is recomputed on every call.  This module alone
knows their layout: other modules go through the methods.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# An element of the ambient field is just its integer encoding.
Elt = int

DEFAULT_TABLE_BUDGET = 1 << 24
_EXP_BLOCK = 1 << 16          # rows per block while the antilog table is built


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^e with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while q % p != 0:
        p += 1
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1 or not _is_prime(p):
        raise ValueError(f"{q} is not a prime power")
    return p, e


def prime_factors(m: int) -> list[int]:
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


def digits_of(x: int, p: int, d: int) -> list[int]:
    out = []
    for _ in range(d):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds, p: int) -> int:
    x = 0
    for c in reversed(ds):
        x = x * p + int(c)
    return x


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p, used only during construction


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_sub(a, b, p):
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(max(len(a), len(b)))]
    return _poly_trim(out)


def _poly_mulmod(a, b, f, p):
    # f monic; deg a, deg b < deg f
    if not a or not b:
        return []
    d = len(f) - 1
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] = (c[i + j] + ai * bj) % p
    for k in range(len(c) - 1, d - 1, -1):
        ck = c[k]
        if ck:
            c[k] = 0
            for j in range(d):
                c[k - d + j] = (c[k - d + j] - ck * f[j]) % p
    return _poly_trim(c)


def _poly_powmod(a, m: int, f, p):
    out = [1]
    base = list(a)
    while m:
        if m & 1:
            out = _poly_mulmod(out, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        m >>= 1
    return out


def _poly_mod(a, b, p):
    # remainder of a by nonzero b
    a = _poly_trim([c % p for c in list(a)])
    inv_lead = pow(b[-1] % p, p - 2, p)
    db = len(b) - 1
    while a and len(a) - 1 >= db:
        coef = (a[-1] * inv_lead) % p
        off = len(a) - 1 - db
        for j in range(len(b)):
            a[off + j] = (a[off + j] - coef * b[j]) % p
        _poly_trim(a)
    return a


def _poly_gcd(a, b, p):
    a = _poly_trim([c % p for c in list(a)])
    b = _poly_trim([c % p for c in list(b)])
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(f, p: int) -> bool:
    d = len(f) - 1
    x = [0, 1]
    if _poly_sub(_poly_powmod(x, p ** d, f, p), x, p):
        return False
    for ell in prime_factors(d):
        g = _poly_gcd(f, _poly_sub(_poly_powmod(x, p ** (d // ell), f, p), x, p), p)
        if len(g) - 1 != 0:
            return False
    return True


def _least_irreducible(p: int, d: int) -> list[int]:
    """Least monic irreducible of degree d over F_p, low coefficients compared
    as a base-p integer."""
    for k in range(p ** d):
        f = digits_of(k, p, d) + [1]
        if _is_irreducible(f, p):
            return f
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FieldCtx:
    """Tower context F_p < F_q < F_{q^n} < F_{q^2n} inside F_p^(2ne).

    Not constructed directly: use build_tower.  Immutable after construction.
    Field tags accepted by trace/norm/is_square and friends: "p", "q", "qn",
    "q2n", or an integer degree k over F_p with k | 2ne.
    """

    def __init__(self, p: int, e: int, n: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1 or n < 1:
            raise ValueError("e and n must be >= 1")
        budget = int(os.environ.get("SPREADLAB_TABLE_BUDGET", DEFAULT_TABLE_BUDGET))
        self.p = p
        self.e = e
        self.n = n
        self.q = p ** e
        self.d = 2 * n * e                 # degree of the ambient field over F_p
        self.N = p ** self.d               # ambient field size
        if self.N > budget:
            raise ValueError(
                f"p^(2ne) = {self.N} exceeds the table budget {budget}; "
                "set SPREADLAB_TABLE_BUDGET to override")
        self.defining_poly = tuple(_least_irreducible(p, self.d))
        self.gamma = self._find_gamma()
        self._build_exp_log()
        if p != 2:
            self._build_split_add()
        qn = self.q ** n
        self.beta = self.pow(self.gamma, (qn - 1) // (self.q - 1))
        self._frob_cache: dict[int, np.ndarray] = {}
        self._subfield_cache: dict[int, np.ndarray] = {}
        self._index_cache: dict = {}

    # -- construction helpers -------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Product of two encodings via polynomial arithmetic (pre-table)."""
        p, d = self.p, self.d
        return _undigits(_poly_mulmod(digits_of(a, p, d), digits_of(b, p, d),
                                      self.defining_poly, p), p)

    def _raw_pow(self, a: int, m: int) -> int:
        out, base = 1, a
        while m:
            if m & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            m >>= 1
        return out

    def _find_gamma(self) -> int:
        order = self.N - 1
        primes = prime_factors(order)
        for g in range(2, self.N):
            if all(self._raw_pow(g, order // ell) != 1 for ell in primes):
                return g
        raise RuntimeError("no generator found")  # unreachable

    def _build_exp_log(self):
        # Doubling on the encodings: gamma^(have+i) = gamma^i * gamma^have,
        # with multiplication by gamma^have as a d x d matrix over F_p whose
        # row j holds the digits of X^j * gamma^have.  Rows go in blocks of
        # _EXP_BLOCK, so only a block's digits are ever held at once.
        p, d, N = self.p, self.d, self.N
        M = N - 1
        pvec = p ** np.arange(d, dtype=np.int64)
        mult = np.array([digits_of(self._raw_mul(p ** j, self.gamma), p, d)
                         for j in range(d)], dtype=np.int64)
        table = np.zeros(4 * M + 1, dtype=np.int32)
        table[0] = 1
        have = 1
        while have < M:
            t = min(have, M - have)
            for lo in range(0, t, _EXP_BLOCK):
                hi = min(t, lo + _EXP_BLOCK)
                digits = table[lo:hi, None] // pvec % p
                table[have + lo:have + hi] = digits @ mult % p @ pvec
            mult = mult @ mult % p
            have += t
        exp = table[:M]
        if self._raw_mul(int(exp[-1]), self.gamma) != 1:
            raise RuntimeError("exp table construction failed to cycle")
        log = np.full(N, -1, dtype=np.int32)
        log[exp] = np.arange(M, dtype=np.int32)
        if np.any(log[1:] < 0):
            raise RuntimeError("exp table is not a bijection")
        log[0] = 2 * M
        table[M:2 * M] = exp
        table.flags.writeable = False
        log.flags.writeable = False
        self._exp = table
        self.exp = table[:M]          # gamma^i for i = 0 .. N-2
        self.log = log
        self._expv = memoryview(table)
        self._logv = memoryview(log)
        self._log_minus1 = int(log[p - 1])

    def _build_split_add(self):
        # T[x * P + y] = digitwise sum mod p of the h-digit numbers x and y
        p, h = self.p, (self.d + 1) // 2
        P = p ** h
        T = np.zeros(P * P, dtype=np.int32)
        x = np.arange(P, dtype=np.int32)
        shift = 1
        for _ in range(h):
            digit = x // shift % p
            s = np.add.outer(digit, digit)
            s %= p
            s *= shift
            T += s.reshape(-1)
            shift *= p
        T.flags.writeable = False
        self._P = P
        self._sum = T
        self._sumv = memoryview(T)

    # -- scalar arithmetic ------------------------------------------------------

    def add(self, a: Elt, b: Elt) -> Elt:
        if self.p == 2:
            return a ^ b
        P, T = self._P, self._sumv
        return T[a // P * P + b // P] * P + T[a % P * P + b % P]

    def neg(self, a: Elt) -> Elt:
        return self._expv[self._logv[a] + self._log_minus1]

    def sub(self, a: Elt, b: Elt) -> Elt:
        return self.add(a, self.neg(b))

    def mul(self, a: Elt, b: Elt) -> Elt:
        return self._expv[self._logv[a] + self._logv[b]]

    def inv(self, a: Elt) -> Elt:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._expv[self.N - 1 - self._logv[a]]

    def div(self, a: Elt, b: Elt) -> Elt:
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return self._expv[self._logv[a] + self.N - 1 - self._logv[b]]

    def pow(self, a: Elt, m: int) -> Elt:
        if a == 0:
            if m == 0:
                return 1
            if m < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self._expv[self._logv[a] * m % (self.N - 1)]

    def frob(self, a: Elt, k: int = 1) -> Elt:
        """a^(p^k)."""
        return self.pow(a, self.p ** k)

    # -- vectorized arithmetic on numpy arrays of encodings ----------------------

    def vadd(self, A, B):
        if self.p == 2:
            return np.bitwise_xor(np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64))
        P, T = self._P, self._sum
        ah, al = np.divmod(A, P)
        bh, bl = np.divmod(B, P)
        return (T.take(ah * P + bh) * P + T.take(al * P + bl)).astype(np.int64)

    def vneg(self, A):
        return self._exp.take(self.log.take(A) + self._log_minus1).astype(np.int64)

    def vsub(self, A, B):
        return self.vadd(A, self.vneg(B))

    def vmul(self, A, B):
        return self._exp.take(self.log.take(A) + self.log.take(B)).astype(np.int64)

    def vinv(self, A):
        if np.any(np.asarray(A) == 0):
            raise ZeroDivisionError("inverse of 0")
        return self._exp.take(self.N - 1 - self.log.take(A)).astype(np.int64)

    def vpow(self, A, m: int):
        if m == 0:
            return np.ones(np.shape(A), dtype=np.int64)
        if m < 0 and np.any(np.asarray(A) == 0):
            raise ZeroDivisionError("0 to a negative power")
        M = self.N - 1
        # int64: log * (m mod M) can pass 2^31; zeros keep their sentinel
        # 2M and so land in the zero tail of the antilog table
        L = self.log.take(A).astype(np.int64)
        return self._exp.take(L * (m % M) % M + L // M * M).astype(np.int64)

    def frob_table(self, k: int) -> np.ndarray:
        """Lookup table x -> x^(p^k) over the whole ambient field."""
        k = k % self.d
        if k not in self._frob_cache:
            t = np.zeros(self.N, dtype=np.int64)
            idx = (np.arange(self.N - 1, dtype=np.int64) * (self.p ** k)) % (self.N - 1)
            t[self.exp] = self.exp[idx]
            t.flags.writeable = False
            self._frob_cache[k] = t
        return self._frob_cache[k]

    # -- subfields and tags --------------------------------------------------------

    def tag_degree(self, tag) -> int:
        """Degree over F_p of the tagged subfield."""
        if isinstance(tag, str):
            try:
                return {"p": 1, "q": self.e, "qn": self.n * self.e, "q2n": self.d}[tag]
            except KeyError:
                raise ValueError(f"unknown field tag {tag!r}") from None
        k = int(tag)
        if k < 1 or self.d % k != 0:
            raise ValueError(f"degree {k} does not cut out a subfield of F_p^{self.d}")
        return k

    def subfield_size(self, tag) -> int:
        return self.p ** self.tag_degree(tag)

    def in_subfield(self, x: Elt, tag) -> bool:
        return self.pow(x, self.subfield_size(tag)) == x

    def subfield_elements(self, tag) -> np.ndarray:
        """All encodings of the tagged subfield, sorted ascending."""
        k = self.tag_degree(tag)
        if k not in self._subfield_cache:
            m = self.p ** k - 1
            step = (self.N - 1) // m
            els = np.concatenate([np.zeros(1, dtype=np.int64),
                                  self.exp[np.arange(m, dtype=np.int64) * step]])
            els = np.sort(els)
            els.flags.writeable = False
            self._subfield_cache[k] = els
        return self._subfield_cache[k]

    def _outside(self, X: np.ndarray, k: int) -> np.ndarray:
        """Mask of the entries of X that are not encodings of F_p^k."""
        bad = (X < 0) | (X >= self.N)
        if not bad.any() and k < self.d:
            bad = self.log[X] % ((self.N - 1) // (self.p ** k - 1)) != 0
        return bad

    def subfield_primitive(self, tag) -> Elt:
        """gamma^((N-1)/(p^k-1)): a generator of the tagged subfield's units."""
        k = self.tag_degree(tag)
        return self.pow(self.gamma, (self.N - 1) // (self.p ** k - 1))

    def subfield_basis(self, tag, over) -> list[Elt]:
        """Deterministic basis of one tower field over a smaller one.

        The ambient field over F_q with e = 1 uses the defining-polynomial
        power basis; every other pair uses powers of the canonical primitive
        element of the larger field.
        """
        k, ko = self.tag_degree(tag), self.tag_degree(over)
        if k % ko != 0:
            raise ValueError(f"F_p^{k} is not an extension of F_p^{ko}")
        m = k // ko
        if k == self.d and ko == 1:
            return [self.p ** i for i in range(self.d)]
        mu = self.subfield_primitive(k)
        return [self.pow(mu, i) for i in range(m)]

    def trace(self, x: Elt, frm="qn", to="q") -> Elt:
        """Relative trace from the frm field down to the to field."""
        kf, kt = self.tag_degree(frm), self.tag_degree(to)
        if kf % kt != 0:
            raise ValueError("trace target is not a subfield of the source")
        if not self.in_subfield(x, kf):
            raise ValueError(f"element {x} is not in the source field")
        s = self.p ** kt
        out, t = 0, x
        for _ in range(kf // kt):
            out = self.add(out, t)
            t = self.pow(t, s)
        return out

    def vtrace(self, X, frm="qn", to="q") -> np.ndarray:
        """trace elementwise on an array of encodings, through frob_table(to)."""
        kf, kt = self.tag_degree(frm), self.tag_degree(to)
        if kf % kt != 0:
            raise ValueError("trace target is not a subfield of the source")
        X = np.asarray(X, dtype=np.int64)
        bad = self._outside(X, kf)
        if np.any(bad):
            raise ValueError(f"element {X[bad][0]} is not in the source field")
        out, t = X, X
        for _ in range(kf // kt - 1):
            t = self.frob_table(kt)[t]
            out = self.vadd(out, t)
        return out

    def norm(self, x: Elt, frm="qn", to="q") -> Elt:
        """Relative norm from the frm field down to the to field."""
        kf, kt = self.tag_degree(frm), self.tag_degree(to)
        if kf % kt != 0:
            raise ValueError("norm target is not a subfield of the source")
        if not self.in_subfield(x, kf):
            raise ValueError(f"element {x} is not in the source field")
        if x == 0:
            return 0
        return self.pow(x, (self.p ** kf - 1) // (self.p ** kt - 1))

    def is_square(self, x: Elt, tag="q2n") -> bool:
        """Square test inside the tagged subfield.  Everything is a square in
        characteristic 2; 0 counts as a square."""
        k = self.tag_degree(tag)
        if not self.in_subfield(x, k):
            raise ValueError(f"element {x} is not in the tagged field")
        if x == 0 or self.p == 2:
            return True
        return self.pow(x, (self.p ** k - 1) // 2) == 1

    def least_nonsquare(self, tag="q2n") -> Elt:
        if self.p == 2:
            raise ValueError("no nonsquares in characteristic 2")
        for x in self.subfield_elements(tag):
            if not self.is_square(int(x), tag):
                return int(x)
        raise RuntimeError("unreachable: odd field has nonsquares")

    # -- span enumeration -------------------------------------------------------------

    def span(self, basis, over="q") -> np.ndarray:
        """All F-linear combinations of basis, in coordinate-lexicographic order
        (first basis vector's coefficient most significant)."""
        basis = [int(b) for b in basis]
        bad = [b for b in basis if not 0 <= b < self.N]
        if bad:
            raise ValueError(f"element {bad[0]} is not an encoding in 0..{self.N - 1}")
        scalars = self.subfield_elements(over)
        out = np.zeros(1, dtype=np.int64)
        for b in basis:
            out = self.vadd(out[:, None], self.vmul(scalars, b)[None, :]).reshape(-1)
        return out

    def element_index(self, tag) -> np.ndarray:
        """Lookup array: encoding -> position in subfield_elements(tag), -1 outside."""
        k = self.tag_degree(tag)
        key = ("eidx", k)
        if key not in self._index_cache:
            dom = self.subfield_elements(k)
            where = np.full(self.N, -1, dtype=np.int64)
            where[dom] = np.arange(len(dom), dtype=np.int64)
            where.flags.writeable = False
            self._index_cache[key] = where
        return self._index_cache[key]

    def coord_index(self, tag, over="q") -> np.ndarray:
        """Lookup array: encoding -> position in span(subfield_basis(tag, over))."""
        k, ko = self.tag_degree(tag), self.tag_degree(over)
        key = ("idx", k, ko)
        if key not in self._index_cache:
            sp = self.span(self.subfield_basis(k, over), over)
            where = np.full(self.N, -1, dtype=np.int64)
            where[sp] = np.arange(len(sp), dtype=np.int64)
            where.flags.writeable = False
            self._index_cache[key] = where
        return self._index_cache[key]

    def to_coords(self, X, tag, over="q") -> np.ndarray:
        """Coordinates of the encodings X over the smaller field w.r.t.
        subfield_basis(tag, over), along a new last axis."""
        k, ko = self.tag_degree(tag), self.tag_degree(over)
        X = np.asarray(X, dtype=np.int64)
        ok = (X >= 0) & (X < self.N)            # not an encoding: index -1
        idx = np.where(ok, self.coord_index(k, ko)[X * ok], -1)
        if np.any(idx < 0):
            raise ValueError(f"element {X[idx < 0][0]} is not in the tagged field")
        qo = self.p ** ko
        return self.subfield_elements(ko)[idx[..., None] // self._place_values(k, ko) % qo]

    def from_coords(self, C, tag, over="q") -> np.ndarray:
        """Inverse of to_coords: the encodings whose coordinates lie along the
        last axis of C."""
        k, ko = self.tag_degree(tag), self.tag_degree(over)
        C = np.asarray(C, dtype=np.int64)
        if C.shape[-1:] != (k // ko,):
            raise ValueError(f"expected {k // ko} coordinates along the last axis")
        wrong = self._outside(C, ko)
        if np.any(wrong):
            raise ValueError(f"coordinate {C[wrong][0]} is not in the smaller field")
        terms = self.vmul(C, np.array(self.subfield_basis(k, ko), dtype=np.int64))
        out = terms[..., 0]
        for j in range(1, k // ko):
            out = self.vadd(out, terms[..., j])
        return out

    def _place_values(self, k: int, ko: int) -> np.ndarray:
        # span() puts the first basis vector's coefficient most significant
        return (self.p ** ko) ** np.arange(k // ko - 1, -1, -1, dtype=np.int64)

    def coords(self, x: Elt, tag, over="q") -> tuple[Elt, ...]:
        """Coordinates of x over the smaller field w.r.t. subfield_basis."""
        return tuple(self.to_coords(x, tag, over).tolist())

    # -- distinguished elements ----------------------------------------------------------

    def find_deltas(self) -> list[Elt]:
        """All delta in the ambient field with delta^(q^n-1) = -1 (q odd).

        These are the gamma-powers whose exponent is (q^n+1)/2 mod (q^n+1);
        there are exactly q^n - 1 of them.  Sorted by encoding.
        """
        if self.p == 2:
            raise ValueError("delta condition delta^(q^n-1) = -1 needs odd q")
        qn = self.q ** self.n
        m0 = (qn + 1) // 2
        out = [int(self.exp[(m0 + j * (qn + 1)) % (self.N - 1)]) for j in range(qn - 1)]
        return sorted(out)

    def find_etas(self, k: int) -> list[Elt]:
        """All nonsquare eta with eta^((1+q^n)(q^k-1)) = 1, sorted by encoding.

        Used by the two-orbit spread construction; q odd.
        """
        if self.p == 2:
            raise ValueError("eta selection needs odd q")
        qn = self.q ** self.n
        a = (1 + qn) * (self.q ** k - 1)
        order = self.N - 1
        g = math.gcd(a, order)
        step = order // g
        out = []
        for j in range(g):
            m = step * j
            if m % 2 == 1:  # gamma^m is a nonsquare iff m is odd
                out.append(int(self.exp[m]))
        return sorted(out)

    # -- serialization -------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "n": self.n,
            "defining_poly": list(self.defining_poly),
            "gamma": self.gamma,
            "beta": self.beta,
        }

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, n={self.n})"

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.p, self.e, self.n) == (other.p, other.e, other.n))

    def __hash__(self):
        return hash((self.p, self.e, self.n))


_tower_cache: dict[tuple, FieldCtx] = {}


def build_tower(p: int, e: int, n: int) -> FieldCtx:
    """Construct (and cache) the tower context for F_p < F_p^e < ... < F_p^(2ne)."""
    key = (p, e, n)
    if key not in _tower_cache:
        _tower_cache[key] = FieldCtx(p, e, n)
    return _tower_cache[key]


def ctx_from_json(doc: dict | str) -> FieldCtx:
    """Rebuild a FieldCtx from its JSON document, verifying consistency."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    ctx = build_tower(int(doc["p"]), int(doc["e"]), int(doc["n"]))
    if list(ctx.defining_poly) != [int(c) for c in doc["defining_poly"]]:
        raise ValueError("defining polynomial mismatch: not the canonical tower")
    if ctx.gamma != int(doc["gamma"]) or ctx.beta != int(doc["beta"]):
        raise ValueError("gamma/beta mismatch: not the canonical tower")
    return ctx
