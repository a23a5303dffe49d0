"""Property tests: random and exhaustive inputs against slow, independent
partners."""

import functools
import json

import numpy as np
import pytest

import spreadlab.experiments as ex
import spreadlab.spread as spread_mod
from spreadlab import (DOPoly, QPoly, QuadSpace, Spread, Subspace, adjoint, build_even_n3,
                       build_tower, build_typeC, build_typeH, compose, coset_representatives,
                       even3_admissible, is_permutation_brute, orbit, permutes_cosets,
                       q_from_component, q_from_pair, q_from_pairs)
from spreadlab.cli import main
from spreadlab.experiments import even3_perm_predicate
from spreadlab.linpoly import _lin_rows
from spreadlab.quadform import _key_rows, _polar

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
    always with -1 and N among them, then -2^70 and 2^70 past int64."""
    ctx = build_tower(*draw(st.sampled_from(ROW_TOWERS)))
    tag = draw(st.sampled_from(["p", "q", "qn", "q2n"]))
    xs = draw(st.lists(st.integers(-ctx.N, 2 * ctx.N), max_size=30))
    return ctx, tag, [-1, ctx.N, *xs, -2 ** 70, 2 ** 70]


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(towers_tags_and_integers())
def test_outside_is_not_in_subfield_elementwise(case):
    ctx, tag, xs = case
    X = np.array(xs[:-2], dtype=np.int64)
    want = [not ctx.in_subfield(x, tag) for x in xs]
    assert ctx.outside(X, tag).tolist() == want[:-2]
    assert ctx.outside(X.reshape(1, -1), tag).tolist() == [want[:-2]]
    assert ctx.outside(xs, tag).tolist() == want


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


# -- the per-candidate verdicts against their np.unique forms ------------------------


def _permutes_cosets_unique(f):
    """Reference: every unit's value nonzero, and the classes log v mod R
    of all of them counted by np.unique."""
    ctx = f.ctx
    vals = f.values()[1:]
    if not vals.all():
        return False
    classes = np.unique(ctx.log[vals] % ((ctx.N - 1) // (ctx.q - 1)))
    return len(classes) == len(vals) // (ctx.q - 1)


def _is_permutation_unique(f):
    """Reference: the distinct values of the table counted by np.unique."""
    vals = f.values()
    return len(np.unique(vals)) == len(vals)


def _assert_verdicts_match(forms):
    """Both verdicts of every form equal their references; returns the
    (coset, bijection) verdict pairs."""
    out = []
    for f in forms:
        pair = (permutes_cosets(f), is_permutation_brute(f))
        assert pair == (_permutes_cosets_unique(f), _is_permutation_unique(f)), f
        out.append(pair)
    return out


@pytest.mark.parametrize("q, n", [(3, 2), (5, 2)])
def test_verdicts_match_references_on_every_odd_candidate(q, n):
    # every Q = (X + dL)(X + d^(q^n)L) of the no-type-C scan; none permutes
    # the cosets, the theorem being checked
    state = ex._odd_setup(q, 1, n)
    total, seen = q ** (n * n), 0
    for lo in range(0, total, 50):
        _, polys = ex._odd_rows(state, lo, min(lo + 50, total))
        verdicts = _assert_verdicts_match(polys)
        assert not any(c for c, _ in verdicts)
        seen += len(polys)
    assert seen == total * (q ** n - 1)


def _form_with_zero_at(ctx, x0, c):
    """c (X^2 - x0^(1-q) X^(q+1)): zero at x0 != 0, so it permutes neither
    the field nor the cosets."""
    a = ctx.neg(ctx.mul(c, ctx.pow(x0, 1 - ctx.q)))
    return DOPoly(ctx, {(0, 0): c, (0, 1): a})


@pytest.mark.parametrize("tower", [(3, 1, 2), (5, 1, 2), (3, 1, 3), (2, 1, 3), (3, 2, 2)],
                         ids=str)
def test_verdicts_match_references_on_explicit_forms(tower):
    ctx = build_tower(*tower)
    units = ctx.subfield_elements("qn")[1:].tolist()
    square = DOPoly(ctx, {(0, 0): 1})
    # X^2 permutes the cosets exactly when 2 is prime to (q^n - 1)/(q - 1),
    # and F_{q^n} exactly when q is even
    ncos = (ctx.q ** ctx.n - 1) // (ctx.q - 1)
    assert _assert_verdicts_match([square]) == [(ncos % 2 == 1, ctx.p == 2)]
    # a zero at a representative, at a unit that is not one (lambda times a
    # representative, lambda in F_q^* other than 1) and at spread-out units:
    # both verdicts False
    reps = coset_representatives(ctx, "qn")
    lam = ctx.subfield_primitive("q")
    zeros = [reps[0], ctx.mul(lam, reps[-1])] + units[::max(1, len(units) // 6)]
    forms = [_form_with_zero_at(ctx, x0, c) for x0 in zeros for c in (1, units[-1])]
    assert all(f(x0) == 0 for f, x0 in zip(forms, [x for x in zeros for _ in (1, 2)]))
    assert _assert_verdicts_match(forms) == [(False, False)] * len(forms)


DO_TOWERS = [(3, 1, 2), (5, 1, 2), (3, 1, 3), (2, 1, 3), (3, 2, 2), (2, 2, 3)]


@st.composite
def do_forms(draw):
    """A random DO polynomial on F_{q^n} graded by q (when e > 1 also one
    graded by p, for the bijection test only), sometimes shifted by a
    multiple of X^2 to vanish at a random unit."""
    ctx = build_tower(*draw(st.sampled_from(DO_TOWERS)))
    base = draw(st.sampled_from(["q", "p"] if ctx.e > 1 else ["q"]))
    m = ctx.n * ctx.e // ctx.tag_degree(base)
    coeff = st.sampled_from(ctx.subfield_elements("qn").tolist())
    f = DOPoly(ctx, {(i, j): draw(coeff) for i in range(m) for j in range(i, m)
                     if draw(st.booleans())}, "qn", base)
    if draw(st.booleans()):
        x0 = draw(st.sampled_from(ctx.subfield_elements("qn")[1:].tolist()))
        shift = ctx.neg(ctx.div(f(x0), ctx.mul(x0, x0)))
        f = DOPoly(ctx, [*f.coeffs, (0, 0, shift)], "qn", base)
        assert f(x0) == 0
    return f


@hypothesis.settings(max_examples=80, deadline=None, database=None)
@hypothesis.given(do_forms())
def test_verdicts_match_references_on_random_forms(f):
    if f.base_k % f.ctx.e == 0:
        _assert_verdicts_match([f])
    else:
        assert is_permutation_brute(f) == _is_permutation_unique(f)


@st.composite
def row_blocks_with_zeros(draw):
    """A tower, a grading, and a block of coefficient rows over the
    canonical keys with some entries zero."""
    ctx = build_tower(*draw(st.sampled_from(DO_TOWERS)))
    field_k, base_k = ctx.n * ctx.e, ctx.tag_degree(draw(st.sampled_from(["q", "p"])))
    m = field_k // base_k
    keys = [(i, j) for i in range(m) for j in range(i, m)]
    units = st.sampled_from(ctx.subfield_elements(field_k)[1:].tolist())
    entry = st.one_of(st.just(0), units)
    block = draw(st.lists(st.lists(entry, min_size=len(keys), max_size=len(keys)),
                          min_size=1, max_size=6))
    return ctx, field_k, base_k, keys, np.array(block, dtype=np.int64)


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(row_blocks_with_zeros())
def test_dopoly_rows_keep_the_filtered_coefficients(case):
    # the zip of the key columns gives the terms the filtering genexpr gives,
    # rows with zero coefficients (and all-zero rows) included
    ctx, field_k, base_k, keys, block = case
    made = DOPoly._rows(ctx, field_k, base_k, keys, block,
                        _key_rows(ctx, field_k, base_k, keys, block))
    assert [f.coeffs for f in made] == [tuple((i, j, c) for (i, j), c in zip(keys, row) if c)
                                        for row in block.tolist()]
    assert all(type(t) is tuple and all(type(v) is int for v in t)
               for f in made for t in f.coeffs)


# -- the scans' symmetries: groundwork for verdicts read off one row -------------------


@st.composite
def odd_l_and_units(draw):
    """An odd tower (q, 2), a q-polynomial L on F_{q^2} and a unit c."""
    ctx = build_tower(draw(st.sampled_from([3, 5, 7])), 1, 2)
    dom = ctx.subfield_elements("qn").tolist()
    L = QPoly(ctx, draw(st.lists(st.sampled_from(dom), min_size=2, max_size=2)))
    return L, draw(st.sampled_from(dom[1:]))


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(odd_l_and_units())
def test_odd_delta_scaling_moves_into_l(case):
    # the admissible deltas are delta0 c, c in F_{q^n}^*, and
    # Q_{L, delta0 c} = Q_{cL, delta0} since c^(q^n) = c
    L, c = case
    ctx = L.ctx
    deltas = ctx.find_deltas()
    d0 = deltas[0]
    assert ctx.mul(d0, c) in deltas
    cL = QPoly(ctx, [ctx.mul(c, a) for a in L.coeffs])
    Q, Qc = q_from_component(L, ctx.mul(d0, c)), q_from_component(cL, d0)
    assert Q == Qc and np.array_equal(Q.values(), Qc.values())
    assert permutes_cosets(Q) == permutes_cosets(Qc)


@st.composite
def l_units_and_deltas(draw):
    """A q-polynomial L on F_{q^n}, a unit c of F_{q^n} and a delta outside
    F_{q^n}: odd q with an admissible delta, or even q with n = 4."""
    ctx = build_tower(*draw(st.sampled_from([(3, 1, 2), (5, 1, 2), (3, 1, 3),
                                             (2, 1, 4), (2, 2, 4)])))
    dom = ctx.subfield_elements("qn").tolist()
    L = QPoly(ctx, draw(st.lists(st.sampled_from(dom), min_size=ctx.n, max_size=ctx.n)))
    deltas = ctx.find_deltas() if ctx.p != 2 else ex._outside_deltas(ctx).tolist()
    return L, draw(st.sampled_from(dom[1:])), draw(st.sampled_from(deltas))


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(l_units_and_deltas())
def test_conjugating_l_scales_q(case):
    # L_c(x) = c^-1 L(c x), that is a_i -> a_i c^(q^i - 1), scales both
    # factors of Q by c^-1: Q_{L_c, delta}(x) = c^-2 Q_{L, delta}(c x)
    L, c, delta = case
    ctx, q = L.ctx, L.ctx.q
    Lc = QPoly(ctx, [ctx.mul(a, ctx.pow(c, q ** i - 1)) for i, a in enumerate(L.coeffs)])
    dom = ctx.subfield_elements("qn")
    at_cx = ctx.element_index("qn")[ctx.vmul(c, dom)]
    assert Lc.values().tolist() == ctx.vmul(ctx.inv(c), L.values()[at_cx]).tolist()
    if ctx.p != 2:
        Q, Qc = q_from_component(L, delta), q_from_component(Lc, delta)
        verdict = permutes_cosets
    else:
        # n = 4: W = L + delta X and Q = W^(1 + q^4), the library's product
        def q_of(M):
            Q = q_from_pair(M, QPoly.identity(ctx), delta)
            W = ctx.vadd(M.values(), ctx.vmul(delta, dom))
            assert Q.values().tolist() == ctx.vpow(W, 1 + q ** 4).tolist()
            return Q
        Q, Qc = q_of(L), q_of(Lc)
        verdict = is_permutation_brute
    assert Qc.values().tolist() == \
        ctx.vmul(ctx.inv(ctx.mul(c, c)), Q.values()[at_cx]).tolist()
    assert verdict(Q) == verdict(Qc)


@functools.lru_cache(maxsize=None)
def _even3_hits_at_q2():
    """The (d1, delta') at q = 2, d0 = 0, where the predicate holds."""
    ctx = build_tower(2, 1, 3)
    return [(d1, d) for d1 in ctx.subfield_elements("qn").tolist()
            for d in ex._outside_deltas(ctx).tolist() if even3_perm_predicate(ctx, 0, d1, d)]


def _even3_q(ctx, d0, d1, delta):
    """(L + delta X)(L + delta^(q^3) X) for L = X^(q^2) + d1 X^q + d0 X."""
    return q_from_pair(QPoly(ctx, [d0, d1, 1]), QPoly.identity(ctx), delta)


@st.composite
def even3_triples(draw):
    """An even tower (q, 3), q = 2 or 4, d1 in F_{q^3}, delta' outside it,
    and at q = 2 sometimes a (d1, delta') where the predicate holds."""
    ctx = build_tower(2, draw(st.sampled_from([1, 2])), 3)
    dom = ctx.subfield_elements("qn").tolist()
    if ctx.e == 1 and draw(st.booleans()):
        d1, dprime = draw(st.sampled_from(_even3_hits_at_q2()))
    else:
        d1 = draw(st.sampled_from(dom))
        dprime = draw(st.sampled_from(ex._outside_deltas(ctx).tolist()))
    return ctx, draw(st.sampled_from(dom)), d1, dprime, draw(st.sampled_from(dom[1:]))


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(even3_triples())
def test_even3_table_depends_only_on_d1_and_delta_prime(case):
    # L + delta X has X-coefficient delta' = d0 + delta, and d0 in F_{q^3}
    # makes d0 + delta^(q^3) = delta'^(q^3): the table is that of d0 = 0
    ctx, d0, d1, dprime, _ = case
    delta = ctx.add(dprime, d0)
    Q, Q0 = _even3_q(ctx, d0, d1, delta), _even3_q(ctx, 0, d1, dprime)
    assert np.array_equal(Q.values(), Q0.values())
    assert even3_perm_predicate(ctx, d0, d1, delta) == even3_perm_predicate(ctx, 0, d1, dprime)


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(even3_triples())
def test_even3_substitution_keeps_both_verdicts(case):
    # x = c y: Q_{d1, delta'}(c y) = c^(2 q^2) Q_{d1 c^(q-q^2), delta' c^(1-q^2)}(y)
    ctx, _, d1, dprime, c = case
    q = ctx.q
    d1c, dc = ctx.mul(d1, ctx.pow(c, q - q * q)), ctx.mul(dprime, ctx.pow(c, 1 - q * q))
    Q, Qc = _even3_q(ctx, 0, d1, dprime), _even3_q(ctx, 0, d1c, dc)
    dom = ctx.subfield_elements("qn")
    scale = ctx.pow(c, 2 * q * q)
    assert Q.values()[ctx.element_index("qn")[ctx.vmul(c, dom)]].tolist() == \
        ctx.vmul(scale, Qc.values()).tolist()
    assert is_permutation_brute(Q) == is_permutation_brute(Qc)
    assert even3_perm_predicate(ctx, 0, d1, dprime) == even3_perm_predicate(ctx, 0, d1c, dc)
