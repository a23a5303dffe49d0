"""Property tests: random inputs against slow, independent partners."""

import json

import numpy as np
import pytest

import spreadlab.spread as spread_mod
from spreadlab import (DOPoly, QPoly, QuadSpace, Spread, Subspace, adjoint, build_even_n3,
                       build_tower, build_typeC, build_typeH, compose, even3_admissible,
                       orbit, q_from_pair, q_from_pairs)
from spreadlab.cli import main
from spreadlab.linpoly import _lin_rows
from spreadlab.quadform import _polar

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOWERS = [(3, 1, 2), (5, 1, 2), (2, 1, 3)]


@st.composite
def pairs_and_deltas(draw):
    """A tower, two q-polynomials A, B on F_{q^n} and a list of deltas
    outside F_{q^n} (repeats allowed)."""
    ctx = build_tower(*draw(st.sampled_from(TOWERS)))
    coeff = st.sampled_from(ctx.subfield_elements("qn").tolist())
    A, B = (QPoly(ctx, draw(st.lists(coeff, min_size=ctx.n, max_size=ctx.n)))
            for _ in range(2))
    outside = np.flatnonzero(ctx.element_index("qn") < 0).tolist()
    deltas = draw(st.lists(st.sampled_from(outside), min_size=1, max_size=12))
    return ctx, A, B, deltas


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(pairs_and_deltas())
def test_q_from_pairs_agrees_pointwise_and_per_delta(case):
    ctx, A, B, deltas = case
    dom = ctx.subfield_elements("qn").tolist()
    batch = q_from_pairs(A, B, deltas)
    assert len(batch) == len(deltas)
    for delta, Q in zip(deltas, batch):
        dconj = ctx.frob(delta, ctx.n * ctx.e)
        want = [ctx.mul(ctx.add(A(x), ctx.mul(delta, B(x))),
                        ctx.add(A(x), ctx.mul(dconj, B(x)))) for x in dom]
        assert Q.values().tolist() == want
        one = q_from_pair(A, B, delta)
        assert one == Q
        assert np.array_equal(one.values(), Q.values())


# (3,1,2) adds short orbits: an F_9-line of F_81 closes after 5 of M = 10 rows
ORBIT_TOWERS = [(3, 1, 3), (5, 1, 3), (2, 1, 3), (2, 2, 3), (3, 1, 2)]


@st.composite
def subspaces_and_kinds(draw):
    """A random n-dimensional F_q-subspace W, an orbit kind, and the rows
    per block of the orbit table (None: the library's own block size)."""
    ctx = build_tower(*draw(st.sampled_from(ORBIT_TOWERS)))
    units = st.integers(1, ctx.N - 1)
    W = Subspace(ctx, basis=draw(st.lists(units, min_size=ctx.n, max_size=ctx.n)))
    hypothesis.assume(W.dim == ctx.n)
    kind = draw(st.sampled_from(["beta", "beta2"]))
    return W, kind, draw(st.sampled_from([1, 2, 3, 7, 13, None]))


def scalar_orbit(W, g):
    """g^i W for i = 0, 1, ... until the first return to W, with ctx.mul."""
    ctx = W.ctx
    start = sorted(int(x) for x in W.elements)
    out, cur = [start], start
    while True:
        cur = sorted(ctx.mul(g, x) for x in cur)
        if cur == start:
            return out
        out.append(cur)


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(subspaces_and_kinds())
def test_orbit_matches_the_scalar_orbit(case):
    W, kind, rows = case
    ctx = W.ctx
    g = ctx.beta if kind == "beta" else ctx.mul(ctx.beta, ctx.beta)
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(spread_mod, "_BLOCK", rows * W.elements.size)
        comps = orbit(W, kind)
    assert [C.elements.tolist() for C in comps] == scalar_orbit(W, g)
    assert all(not C.elements.flags.writeable and C.dim == ctx.n for C in comps)
    # M, the order of g modulo F_q^*, found by scalar powers
    M = next(m for m in range(1, ctx.N) if ctx.in_subfield(ctx.pow(g, m), "q"))
    assert M % len(comps) == 0


# the two largest towers the construction tests build, and two small ones
AXIOM_TOWERS = [(3, 2, 3), (2, 3, 3), (5, 1, 3), (2, 2, 2)]


@st.composite
def towers_and_triples(draw):
    """A tower and a list of triples (a, b, c) of its encodings."""
    ctx = build_tower(*draw(st.sampled_from(AXIOM_TOWERS)))
    elt = st.integers(0, ctx.N - 1)
    return ctx, draw(st.lists(st.tuples(elt, elt, elt), min_size=1, max_size=20))


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(towers_and_triples())
def test_field_axioms_hold_through_vector_and_scalar_kernels(case):
    ctx, triples = case
    A, B, C = np.array(triples, dtype=np.int64).T
    np.testing.assert_array_equal(ctx.vmul(A, ctx.vadd(B, C)),
                                  ctx.vadd(ctx.vmul(A, B), ctx.vmul(A, C)))
    np.testing.assert_array_equal(ctx.vmul(ctx.vmul(A, B), C),
                                  ctx.vmul(A, ctx.vmul(B, C)))
    units = A[A != 0]
    np.testing.assert_array_equal(ctx.exp[ctx.log[units]], units)
    for a, b, c in triples:
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        if a:
            assert ctx._expv[ctx._logv[a]] == a


@pytest.fixture(scope="module")
def typec_doc():
    """A valid (3,3) type-C spread document."""
    ctx = build_tower(3, 1, 3)
    return build_typeC(ctx, 1, ctx.find_deltas()[0]).to_json()


def _paths(doc, path=()):
    """Every key or index path into a JSON document, parents first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        yield path + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, path + (k,))


JUNK = st.one_of(st.none(), st.text(max_size=4),
                 st.lists(st.integers(-3, 800), max_size=3),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.integers(2 ** 62, 2 ** 200), st.integers(-2 ** 200, -2 ** 62))


@hypothesis.settings(max_examples=40, deadline=None, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(data=st.data())
def test_verify_survives_mutated_documents(typec_doc, tmp_path, data):
    # one key dropped or one value replaced anywhere in a valid document:
    # verify exits 0, 1 or 2 and never raises
    doc = json.loads(json.dumps(typec_doc))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JUNK)
    out = tmp_path / "mutated.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) in (0, 1, 2)


@st.composite
def built_spreads(draw):
    """A type C spread at (3,3) or (5,3), a type H spread at (3,3), or an
    even n = 3 spread at q = 2 or 4, at drawn admissible parameters."""
    kind = draw(st.sampled_from(["typeC", "typeH", "evenC"]))
    if kind == "evenC":
        ctx = build_tower(2, draw(st.sampled_from([1, 2])), 3)
        adm = [d for d in range(ctx.N) if even3_admissible(ctx, d)]
        return build_even_n3(ctx, draw(st.sampled_from(adm)))
    ctx = build_tower(draw(st.sampled_from([3, 5])) if kind == "typeC" else 3, 1, 3)
    k = draw(st.sampled_from([1, 2]))
    delta = int(draw(st.sampled_from(ctx.find_deltas())))
    if kind == "typeC":
        return build_typeC(ctx, k, delta)
    return build_typeH(ctx, k, delta, int(draw(st.sampled_from(ctx.find_etas(k)))))


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(built_spreads())
def test_spread_json_round_trip(S):
    # to_json -> JSON text -> from_json gives the same components and kernel,
    # and writing the loaded spread again gives the same text
    text = json.dumps(S.to_json())
    back = Spread.from_json(json.loads(text))
    assert (back.kind, back.verified) == (S.kind, True)
    assert back.components == S.components
    assert S.kernel is not None and back.kernel == S.kernel
    assert json.dumps(back.to_json()) == text


# -- the shared row routines against their scalar partners --------------------------

ROW_TOWERS = [(3, 1, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 2)]
# a q-polynomial on F_{q^n}, a q^m-polynomial on F_{q^2m} (the planar scan's
# L = aX + bX^(q^m)) and a p-polynomial on F_{q^n}
SHAPES = [("qn", "q"), ("q2n", "qn"), ("qn", "p")]


@st.composite
def coefficient_blocks(draw):
    """A tower, a grading (field, base) and a (rows, m) block of
    coefficients in the field, some columns and some rows all zero."""
    ctx = build_tower(*draw(st.sampled_from(ROW_TOWERS)))
    field, base = draw(st.sampled_from(SHAPES))
    field_k, base_k = ctx.tag_degree(field), ctx.tag_degree(base)
    m = field_k // base_k
    rows = draw(st.integers(1, 4))
    coeff = st.sampled_from(ctx.subfield_elements(field_k).tolist())
    block = np.array(draw(st.lists(st.lists(coeff, min_size=m, max_size=m),
                                   min_size=rows, max_size=rows)), dtype=np.int64)
    block[:, draw(st.lists(st.booleans(), min_size=m, max_size=m))] = 0
    block[draw(st.lists(st.booleans(), min_size=rows, max_size=rows))] = 0
    return ctx, field, base, block


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(coefficient_blocks())
def test_lin_rows_agree_with_scalar_evaluation(case):
    ctx, field, base, block = case
    field_k, base_k = ctx.tag_degree(field), ctx.tag_degree(base)
    dom = ctx.subfield_elements(field_k).tolist()
    table = _lin_rows(ctx, field_k, base_k, block)
    assert table.shape == (len(block), len(dom)) and table.dtype == np.int64
    for row, vals in zip(block.tolist(), table.tolist()):
        L = QPoly(ctx, row, field, base)
        assert vals == [L(x) for x in dom]
        assert vals == L.values().tolist()
    assert _lin_rows(ctx, field_k, base_k, block[0]).tolist() == table[0].tolist()
    # no rows at all: an empty table of the right width
    assert _lin_rows(ctx, field_k, base_k, block[:0]).shape == (0, len(dom))


@st.composite
def quad_spaces_and_pairs(draw):
    """A quadratic space x -> tr(y f(x)) for a random DO polynomial f and a
    y in F_{q^n}, and (k, l) encodings of its domain."""
    ctx = build_tower(*draw(st.sampled_from(ROW_TOWERS)))
    coeff = st.sampled_from(ctx.subfield_elements("qn").tolist())
    f = DOPoly(ctx, {(i, j): draw(coeff) for i in range(ctx.n) for j in range(i, ctx.n)})
    S = QuadSpace.from_trace(ctx, f, draw(coeff))
    X = draw(st.lists(coeff, min_size=1, max_size=6))
    Y = draw(st.lists(coeff, min_size=1, max_size=6))
    return S, np.array(X, dtype=np.int64), np.array(Y, dtype=np.int64)


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(quad_spaces_and_pairs())
def test_polar_form_agrees_with_bilinear(case):
    S, X, Y = case
    B = _polar(S.ctx, S.field_k, S.values, X[:, None], Y[None, :])
    assert B.tolist() == [[S.bilinear(int(x), int(y)) for y in Y] for x in X]


@st.composite
def towers_tags_and_integers(draw):
    """A tower, a field tag and integers around the encodings 0..N-1,
    always with -1 and N among them."""
    ctx = build_tower(*draw(st.sampled_from(ROW_TOWERS)))
    tag = draw(st.sampled_from(["p", "q", "qn", "q2n"]))
    xs = draw(st.lists(st.integers(-ctx.N, 2 * ctx.N), max_size=30))
    return ctx, tag, [-1, ctx.N, *xs]


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(towers_tags_and_integers())
def test_outside_is_not_in_subfield_elementwise(case):
    ctx, tag, xs = case
    X = np.array(xs, dtype=np.int64)
    want = [not ctx.in_subfield(x, tag) for x in xs]
    assert ctx.outside(X, tag).tolist() == want
    assert ctx.outside(X.reshape(1, -1), tag).tolist() == [want]


@st.composite
def qpoly_triples(draw):
    """Two q-polynomials L, M of one grading and u, v in their field."""
    ctx = build_tower(*draw(st.sampled_from(ROW_TOWERS)))
    field, base = draw(st.sampled_from(SHAPES))
    m = ctx.tag_degree(field) // ctx.tag_degree(base)
    coeff = st.sampled_from(ctx.subfield_elements(field).tolist())
    L, M = (QPoly(ctx, draw(st.lists(coeff, min_size=m, max_size=m)), field, base)
            for _ in range(2))
    return L, M, draw(coeff), draw(coeff)


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(qpoly_triples())
def test_compose_and_adjoint_respect_the_trace_pairing(case):
    # tr(u L(v)) = tr(adjoint(L)(u) v), the trace from the domain down to
    # the grading base; compose is evaluation in turn, and the adjoint of
    # L o M is adjoint(M) o adjoint(L)
    L, M, u, v = case
    ctx, k, kb = L.ctx, L.field_k, L.base_k
    for P in (L, M, compose(L, M)):
        assert (ctx.trace(ctx.mul(u, P(v)), k, kb)
                == ctx.trace(ctx.mul(adjoint(P)(u), v), k, kb))
    assert compose(L, M)(v) == L(M(v))
    assert adjoint(compose(L, M)) == compose(adjoint(M), adjoint(L))
