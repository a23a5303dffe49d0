"""Field tower construction, special elements, and arithmetic invariants."""

import tracemalloc

import numpy as np
import pytest

from spreadlab import build_tower, ctx_from_json, factor_prime_power
from spreadlab.field import FieldCtx, digits_of


def _order(ctx, x):
    o, y = 1, x
    while y != 1:
        y = ctx.mul(y, x)
        o += 1
    return o


def test_tower_312_shape(c312):
    assert (c312.p, c312.e, c312.n) == (3, 1, 2)
    assert c312.q == 3 and c312.N == 81
    assert _order(c312, c312.beta) == (9 + 1) * (3 - 1)   # 20


def test_tower_213_shape(c213):
    assert c213.N == 64
    assert _order(c213, c213.beta) == 9 * 1


def test_tower_313_subfield_chain(c313):
    # F_3 c F_27 c F_729 realized inside the one ambient field
    assert c313.subfield_size("q") == 3
    assert c313.subfield_size("qn") == 27
    assert c313.subfield_size("q2n") == 729
    sub = c313.subfield_elements("qn")
    assert len(sub) == 27
    for x in sub:
        assert c313.in_subfield(int(x), "qn")
    assert all(c313.in_subfield(int(x), "q2n") for x in sub)


def test_encoding_conventions(c312):
    assert c312.add(0, 0) == 0 and c312.mul(1, 1) == 1
    assert c312.defining_poly[-1] == 1          # monic
    assert len(c312.defining_poly) == 2 * 2 + 1


def test_gamma_primitive(c312):
    assert _order(c312, c312.gamma) == 80


def test_trace_f4_over_f2(c212):
    assert c212.trace(1, "qn", "q") == 0


def test_norm_surjective(c312):
    g = c312.subfield_primitive("qn")
    nrm = c312.norm(g, "qn", "q")
    assert nrm != 1 and c312.in_subfield(nrm, "q")   # generates F_3^*


def test_trace_kernel_hyperplane(c213):
    sols = [x for x in c213.subfield_elements("qn")
            if c213.trace(int(x), "qn", "q") == 0]
    assert len(sols) == 4


def test_is_square(c312, c313):
    assert c312.is_square(c312.neg(1), "qn")        # -1 square in F_9
    assert not c313.is_square(c313.neg(1), "qn")    # -1 nonsquare in F_27
    assert c312.is_square(0, "qn")


def test_is_square_char2(c213):
    # every element of a char-2 field is a square; only the nonsquare
    # search is meaningless there
    assert all(c213.is_square(int(x), "qn") for x in c213.subfield_elements("qn"))
    with pytest.raises(ValueError):
        c213.least_nonsquare("qn")


def test_find_deltas_counts(c312, c313):
    d2 = c312.find_deltas()
    d3 = c313.find_deltas()
    assert len(d2) == 8
    assert len(d3) == 26
    for ctx, ds in ((c312, d2), (c313, d3)):
        ne = ctx.n * ctx.e
        m1 = ctx.neg(1)
        for d in ds:
            assert ctx.pow(d, ctx.q ** ctx.n - 1) == m1
            assert not ctx.in_subfield(d, ne)
            d2e = ctx.mul(d, d)
            assert ctx.in_subfield(d2e, ne)
            assert not ctx.is_square(d2e, ne)


def test_find_etas(c313):
    etas = c313.find_etas(1)
    assert len(etas) == 28          # frozen by the scan over all 728 nonzero
    for h in etas:
        assert c313.pow(h, (1 + 27) * (3 - 1)) == 1
        assert not c313.is_square(h, "q2n")


def test_find_etas_empty_no_error(c312):
    # conditions can be unsatisfiable; that is an empty list, not an error
    out = c312.find_etas(1)
    assert isinstance(out, list)


def test_frobenius_and_unit_group(c313):
    rng = np.random.default_rng(0)
    for _ in range(25):
        a, b = (int(v) for v in rng.integers(0, c313.N, 2))
        assert c313.frob(c313.add(a, b)) == c313.add(c313.frob(a), c313.frob(b))
        assert c313.frob(c313.mul(a, b)) == c313.mul(c313.frob(a), c313.frob(b))
    for _ in range(10):
        x = int(rng.integers(1, c313.N))
        assert c313.pow(x, c313.N - 1) == 1


def test_beta_power_in_fq(c313):
    b = c313.pow(c313.beta, c313.q ** c313.n + 1)
    assert b != 0 and c313.in_subfield(b, "q")


def test_trace_transitivity(c313):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = int(rng.integers(0, c313.N))
        inner = c313.trace(x, "q2n", "qn")
        assert c313.trace(x, "q2n", "q") == c313.trace(inner, "qn", "q")


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("SPREADLAB_TABLE_BUDGET", "10")
    with pytest.raises(ValueError):
        build_tower(7, 1, 1)
    monkeypatch.delenv("SPREADLAB_TABLE_BUDGET")
    ctx = build_tower(7, 1, 1)
    assert ctx.N == 49


def test_rejects_nonprime():
    with pytest.raises(ValueError):
        build_tower(6, 1, 1)


def test_json_round_trip(c312):
    doc = c312.to_json()
    assert set(doc) == {"p", "e", "n", "defining_poly", "gamma", "beta"}
    back = ctx_from_json(doc)
    assert back == c312 and back.gamma == c312.gamma


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(32) == (2, 5)
    with pytest.raises(ValueError):
        factor_prime_power(12)


def test_element_index(c313):
    idx = c313.element_index("qn")
    sub = c313.subfield_elements("qn")
    for i, x in enumerate(sub):
        assert idx[int(x)] == i
    outside = next(x for x in range(c313.N) if not c313.in_subfield(x, "qn"))
    assert idx[outside] == -1


def test_coords_round_trip(c313):
    basis = c313.subfield_basis("q2n", "q")
    assert len(basis) == 6
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = int(rng.integers(0, c313.N))
        cs = c313.coords(x, "q2n", "q")
        acc = 0
        for c, b in zip(cs, basis):
            acc = c313.add(acc, c313.mul(c, b))
        assert acc == x


# -- the encoding <-> coordinate map ---------------------------------------------
#
# (2,2,3) and (3,2,2) have e > 1, so every basis over F_q there is made of
# powers of a primitive element rather than the defining-polynomial basis.

COORD_TOWERS = [(3, 1, 1), (7, 1, 1), (2, 1, 3), (5, 1, 2), (3, 1, 3), (7, 1, 2),
                (2, 2, 3), (3, 2, 2)]


@pytest.mark.parametrize("tower", COORD_TOWERS, ids=str)
@pytest.mark.parametrize("tag", ["q", "qn", "q2n"])
def test_coordinate_map_round_trip(tower, tag):
    ctx = build_tower(*tower)
    dom = ctx.subfield_elements(tag)
    basis = ctx.subfield_basis(tag, "q")
    C = ctx.to_coords(dom, tag, "q")
    assert C.shape == (len(dom), len(basis))
    assert all(ctx.in_subfield(int(c), "q") for c in np.unique(C))
    np.testing.assert_array_equal(ctx.from_coords(C, tag, "q"), dom)
    for x, cs in zip(dom.tolist(), C.tolist()):
        acc = 0
        for c, b in zip(cs, basis):
            acc = ctx.add(acc, ctx.mul(c, b))
        assert acc == x
    # leading axes are kept
    block = dom[:6].reshape(2, 3) if len(dom) >= 6 else dom[:, None]
    np.testing.assert_array_equal(ctx.to_coords(block, tag, "q"),
                                  C[:block.size].reshape(block.shape + (len(basis),)))


@pytest.mark.parametrize("tower", COORD_TOWERS, ids=str)
def test_coordinates_over_prime_field_are_digits(tower):
    ctx = build_tower(*tower)
    every = np.arange(ctx.N)
    want = np.array([digits_of(x, ctx.p, ctx.d) for x in range(ctx.N)])
    np.testing.assert_array_equal(ctx.to_coords(every, ctx.d, "p"), want)
    np.testing.assert_array_equal(ctx.from_coords(want, ctx.d, "p"), every)
    assert ctx.coords(ctx.N - 1, ctx.d, "p") == tuple([ctx.p - 1] * ctx.d)


@pytest.mark.parametrize("tower", COORD_TOWERS, ids=str)
@pytest.mark.parametrize("tag", ["q", "qn"])
def test_coordinate_map_rejects_outside_elements(tower, tag):
    ctx = build_tower(*tower)
    inside = ctx.subfield_elements(tag)
    outside = next(x for x in range(ctx.N) if not ctx.in_subfield(x, tag))
    for bad in (outside, [int(inside[-1]), outside, 0], np.array([[0], [outside]])):
        with pytest.raises(ValueError, match=f"element {outside} "):
            ctx.to_coords(bad, tag, "q")
    for not_encoding in (-1, ctx.N):
        with pytest.raises(ValueError, match=f"element {not_encoding} "):
            ctx.to_coords([0, not_encoding], tag, "q")
    with pytest.raises(ValueError):
        ctx.coords(outside, tag, "q")
    m = ctx.tag_degree("q2n") // ctx.tag_degree("q")
    # a coordinate outside F_q, and the wrong number of coordinates
    not_fq = next(x for x in range(ctx.N) if not ctx.in_subfield(x, "q"))
    with pytest.raises(ValueError, match=f"coordinate {not_fq} "):
        ctx.from_coords([[0] * m, [not_fq] + [0] * (m - 1)], "q2n", "q")
    with pytest.raises(ValueError, match="coordinate -1 "):
        ctx.from_coords([-1] + [0] * (m - 1), "q2n", "q")
    with pytest.raises(ValueError):
        ctx.from_coords([0] * (m + 1), "q2n", "q")


@pytest.mark.parametrize("tower", COORD_TOWERS, ids=str)
def test_vtrace_matches_scalar_trace(tower):
    ctx = build_tower(*tower)
    for frm, to in (("q2n", "qn"), ("q2n", "q"), ("qn", "q")):
        X = ctx.subfield_elements(frm)
        want = [ctx.trace(x, frm, to) for x in X.tolist()]
        assert ctx.vtrace(X, frm, to).tolist() == want
        # leading axes are kept, 0-d included
        block = X[:6].reshape(2, 3) if len(X) >= 6 else X[:, None]
        assert ctx.vtrace(block, frm, to).tolist() == np.reshape(
            want[:block.size], block.shape).tolist()
        assert int(ctx.vtrace(X[-1], frm, to)) == want[-1]
        for not_encoding in (-1, ctx.N):
            with pytest.raises(ValueError, match=f"element {not_encoding} "):
                ctx.vtrace([0, not_encoding], frm, to)
    outside = next(x for x in range(ctx.N) if not ctx.in_subfield(x, "qn"))
    with pytest.raises(ValueError, match=f"element {outside} "):
        ctx.vtrace(np.array([[0], [outside]]), "qn", "q")
    if ctx.n > 1:
        with pytest.raises(ValueError, match="not a subfield"):
            ctx.vtrace([0], "q", "qn")


def test_tower_construction_memory():
    # FieldCtx directly, not build_tower, so no cached tower is reused.  At
    # N = 531,441 and d = 12 the tables take about 10.6 MB; the bound leaves
    # room for one construction block of digits, not for the digits of all
    # N - 1 powers of gamma at once (8dN bytes, about 51 MB).
    tracemalloc.start()
    try:
        ctx = FieldCtx(3, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.N == 531441
    assert peak < 48e6, f"construction peaked at {peak / 1e6:.1f} MB"


# -- every arithmetic kernel against slow, independent partners ------------------
#
# The reference adds digitwise (digits_of) and multiplies schoolbook-style
# modulo the defining polynomial; it is itself checked against the pre-table
# polynomial arithmetic FieldCtx._raw_mul / _raw_pow.  (7,1,2), with 2401
# elements, lies above the 1024 elements up to which add once had its own
# full table.

KERNEL_TOWERS = [(3, 1, 1), (7, 1, 1), (2, 1, 3), (5, 1, 2), (3, 1, 3), (7, 1, 2)]
ROWS = 128          # block height for the all-pairs checks


class _Reference:
    def __init__(self, ctx):
        p, d = ctx.p, ctx.d
        self.p, self.N = p, ctx.N
        self.D = np.array([digits_of(x, p, d) for x in range(ctx.N)], dtype=np.int64)
        self.pw = p ** np.arange(d, dtype=np.int64)
        # digits of X^k mod the defining polynomial, k = 0 .. 2d-2
        f = ctx.defining_poly
        self.R = np.zeros((2 * d - 1, d), dtype=np.int64)
        cur = [1] + [0] * (d - 1)
        for k in range(2 * d - 1):
            self.R[k] = cur
            top = cur[-1]
            cur = [(c - top * fj) % p for c, fj in zip([0] + cur[:-1], f)]

    def _enc(self, digits):
        return (digits % self.p) @ self.pw

    def add(self, a, b):
        return self._enc(self.D[a] + self.D[b])

    def neg(self, a):
        return self._enc(-self.D[a])

    def mul(self, a, b):
        Da, Db = self.D[a], self.D[b]
        d = Da.shape[-1]
        conv = np.zeros(np.broadcast_shapes(Da.shape, Db.shape)[:-1] + (2 * d - 1,),
                        dtype=np.int64)
        for i in range(d):
            conv[..., i:i + d] += Da[..., i:i + 1] * Db
        return self._enc(conv @ self.R)

    def pow(self, a, m: int):
        """Square and multiply; m >= 0."""
        out, base = np.ones_like(a), a
        while m:
            if m & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            m >>= 1
        return out


@pytest.fixture(scope="module", params=KERNEL_TOWERS, ids=str)
def tower(request):
    ctx = build_tower(*request.param)
    return ctx, _Reference(ctx)


def _blocks(N):
    """(column, row) index blocks that together cover every pair (a, b)."""
    b = np.arange(N)[None, :]
    for lo in range(0, N, ROWS):
        yield np.arange(lo, min(N, lo + ROWS))[:, None], b


def _exponents(N):
    return [0, 1, 2, 3, 7, N - 2, N - 1, N, 3 * N + 2, 10 ** 30 + 7, -1, -2, -N]


def _expect_pow(ref, a, m):
    if m >= 0:
        return ref.pow(a, m)
    return ref.pow(ref.pow(a, ref.N - 2), -m)


def test_reference_matches_raw_polynomial_arithmetic(tower):
    ctx, ref = tower
    N = ctx.N
    rng = np.random.default_rng(N)
    pairs = rng.integers(0, N, (400, 2))
    pairs[:20, 0] = 0
    for a, b in pairs.tolist():
        assert int(ref.mul(a, b)) == ctx._raw_mul(a, b)
    for a in rng.integers(1, N, 10).tolist():
        for m in (m for m in _exponents(N) if m >= 0):
            assert int(ref.pow(a, m)) == ctx._raw_pow(a, m)


def test_vector_kernels_every_pair(tower):
    ctx, ref = tower
    N = ctx.N
    for A, B in _blocks(N):
        for got, want in ((ctx.vadd(A, B), ref.add(A, B)),
                          (ctx.vsub(A, B), ref.add(A, ref.neg(B))),
                          (ctx.vmul(A, B), ref.mul(A, B))):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
    every, units = np.arange(N), np.arange(1, N)
    np.testing.assert_array_equal(ctx.vneg(every), ref.neg(every))
    np.testing.assert_array_equal(ctx.vinv(units), ref.pow(units, N - 2))
    for m in _exponents(N):
        dom = every if m >= 0 else units
        got = ctx.vpow(dom, m)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _expect_pow(ref, dom, m))
        if m < 0:           # zero inputs raise, as pow(0, m) and vinv do
            for zeros in (every, np.array(0)):
                with pytest.raises(ZeroDivisionError):
                    ctx.vpow(zeros, m)
    with pytest.raises(ZeroDivisionError):
        ctx.vinv(every)


def test_scalar_kernels_every_pair(tower):
    ctx, ref = tower
    N = ctx.N
    if N > 1024:          # 128 seeded rows against every column
        rows = np.random.default_rng(N).choice(N, ROWS, replace=False)[:, None]
        blocks = [(rows, np.arange(N)[None, :])]
    else:
        blocks = _blocks(N)
    ops = {name: np.frompyfunc(getattr(ctx, name), 2, 1)
           for name in ("add", "sub", "mul", "div")}
    for A, B in blocks:
        np.testing.assert_array_equal(ops["add"](A, B).astype(np.int64), ref.add(A, B))
        np.testing.assert_array_equal(ops["sub"](A, B).astype(np.int64),
                                      ref.add(A, ref.neg(B)))
        np.testing.assert_array_equal(ops["mul"](A, B).astype(np.int64), ref.mul(A, B))
        U = B[:, 1:]
        quot = ops["div"](A, U).astype(np.int64)
        np.testing.assert_array_equal(ref.mul(quot, U), np.broadcast_to(A, quot.shape))
    every, units = np.arange(N), np.arange(1, N)
    np.testing.assert_array_equal([ctx.neg(a) for a in range(N)], ref.neg(every))
    np.testing.assert_array_equal([ctx.inv(a) for a in range(1, N)], ref.pow(units, N - 2))
    for m in _exponents(N):
        dom = every if m >= 0 else units
        np.testing.assert_array_equal([ctx.pow(int(a), m) for a in dom],
                                      _expect_pow(ref, dom, m))
        if m < 0:
            with pytest.raises(ZeroDivisionError):
                ctx.pow(0, m)
    # Python ints in, Python ints out; table reads give Python ints for
    # numpy ints too
    a, b = N - 1, 1
    for got in (ctx.add(a, b), ctx.sub(a, b), ctx.mul(a, b), ctx.div(a, b),
                ctx.neg(a), ctx.inv(a), ctx.pow(a, 5)):
        assert type(got) is int
    a, b = np.int64(a), np.int64(b)
    for got in (ctx.mul(a, b), ctx.div(a, b), ctx.neg(a), ctx.inv(a), ctx.pow(a, 5)):
        assert type(got) is int


def test_scalar_kernel_zero_operands(tower):
    ctx, _ = tower
    x = ctx.N - 1
    assert ctx.add(0, x) == ctx.add(x, 0) == x
    assert ctx.sub(x, 0) == x and ctx.sub(0, 0) == 0 == ctx.neg(0)
    assert ctx.mul(0, x) == ctx.mul(x, 0) == ctx.mul(0, 0) == 0
    assert ctx.div(0, x) == 0
    assert ctx.pow(0, 0) == 1 and ctx.pow(0, 5) == 0 and ctx.pow(x, 0) == 1
    for bad in (lambda: ctx.inv(0), lambda: ctx.div(x, 0), lambda: ctx.div(0, 0),
                lambda: ctx.pow(0, -1)):
        with pytest.raises(ZeroDivisionError):
            bad()


def test_vector_kernels_broadcast_scalars_and_0d(tower):
    ctx, _ = tower
    N = ctx.N
    every = np.arange(N)
    c = N - 2
    pairs = {"vadd": ctx.add, "vsub": ctx.sub, "vmul": ctx.mul}
    for name, scalar in pairs.items():
        kernel = getattr(ctx, name)
        want = [scalar(c, a) for a in range(N)]
        np.testing.assert_array_equal(kernel(c, every), want)
        np.testing.assert_array_equal(kernel(every, c), [scalar(a, c) for a in range(N)])
        np.testing.assert_array_equal(kernel(np.int64(c), every), want)
        for x, y in ((np.array(c), np.array(3)), (np.array(0), np.array(c))):
            got = kernel(x, y)
            assert np.shape(got) == () and got.dtype == np.int64
            assert int(got) == scalar(int(x), int(y))
    for kernel, scalar in ((ctx.vneg, ctx.neg), (ctx.vinv, ctx.inv),
                           (lambda a: ctx.vpow(a, 3), lambda a: ctx.pow(a, 3)),
                           (lambda a: ctx.vpow(a, 0), lambda a: ctx.pow(a, 0))):
        got = kernel(np.array(c))
        assert np.shape(got) == () and got.dtype == np.int64
        assert int(got) == scalar(c)
    np.testing.assert_array_equal(ctx.vpow(np.zeros((2, 3), dtype=np.int64), 0),
                                  np.ones((2, 3)))
