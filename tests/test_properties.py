"""Property tests: random inputs against slow, independent partners."""

import numpy as np
import pytest

from spreadlab import QPoly, build_tower, q_from_pair, q_from_pairs

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
