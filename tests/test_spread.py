"""Spread constructions, their verification, kernels, and the
orbit/polynomial correspondence."""

import json

import numpy as np
import pytest

import spreadlab.spread as spread_mod
from spreadlab import (DOPoly, FieldCtx, KeyLemmaReport, QPoly, Spread, Subspace,
                       build_even_n3, build_typeC,
                       build_typeH, check_key_lemma, component_from_pair,
                       even3_admissible, gcd_condition, is_partial_spread,
                       is_spread, is_permutation_brute, is_permutation_via_rank,
                       kernel_of_spread, orbit,
                       q_from_pair, symplectic_check, build_tower)


@pytest.fixture(scope="session")
def even3_deltas(c213):
    return [d for d in range(c213.N) if even3_admissible(c213, d)]


@pytest.fixture(scope="session")
def spread_c313(c313):
    return build_typeC(c313, 1, c313.find_deltas()[0])


@pytest.fixture(scope="session")
def spread_even3(c213, even3_deltas):
    return build_even_n3(c213, even3_deltas[0])


# -- components -----------------------------------------------------------------


def test_component_identity_pair(c313):
    delta = c313.find_deltas()[0]
    W = component_from_pair(QPoly.identity(c313), QPoly.zero(c313), delta)
    assert np.array_equal(W.elements, c313.subfield_elements("qn"))
    assert W.dim == 3


def test_component_twisted(c313):
    delta = c313.find_deltas()[0]
    L = QPoly.monomial(c313, 1)
    W = component_from_pair(QPoly.identity(c313), L, delta)
    want = {c313.add(int(x), c313.mul(delta, L(int(x))))
            for x in c313.subfield_elements("qn")}
    assert set(map(int, W.elements)) == want
    # meets F_{q^n} only in ker L = 0
    mid = set(map(int, c313.subfield_elements("qn")))
    assert set(map(int, W.elements)) & mid == {0}


def test_component_trace_pair(c213, even3_deltas):
    delta = even3_deltas[0]
    T = QPoly.trace_poly(c213)
    W = component_from_pair(T, QPoly.identity(c213), delta)
    want = {c213.add(T(int(x)), c213.mul(delta, int(x)))
            for x in c213.subfield_elements("qn")}
    assert set(map(int, W.elements)) == want


def test_component_rejects_noninjective(c313):
    delta = c313.find_deltas()[0]
    with pytest.raises(ValueError):
        component_from_pair(QPoly.trace_poly(c313), QPoly.zero(c313), delta)


def test_component_rejects_inner_delta(c313):
    with pytest.raises(ValueError):
        component_from_pair(QPoly.identity(c313), QPoly.monomial(c313, 1), 2)


# -- orbits and spread predicates ----------------------------------------------------


def test_desarguesian_orbit(c313):
    delta = c313.find_deltas()[0]
    W = component_from_pair(QPoly.identity(c313), QPoly.zero(c313), delta)
    comps = orbit(W, "beta")
    assert len(comps) == 28
    assert is_spread(comps)
    S = Spread(c313, comps, "custom", verified=True)
    assert kernel_of_spread(S) == 27


def test_orbit_sizes(c313):
    delta = c313.find_deltas()[0]
    W = component_from_pair(QPoly.identity(c313), QPoly.monomial(c313, 1), delta)
    assert len(orbit(W, "beta2")) == 14
    assert len(orbit(W, "beta")) == 28
    with pytest.raises(ValueError):
        orbit(W, "gamma")


@pytest.mark.parametrize("tower", [(3, 1, 3), (5, 1, 3)])
def test_orbit_is_the_power_images(tower):
    # the i-th component is g^i W, computed here with scalar arithmetic
    ctx = build_tower(*tower)
    W = component_from_pair(QPoly.identity(ctx), QPoly.monomial(ctx, 1),
                            ctx.find_deltas()[0])
    for kind, g in (("beta", ctx.beta), ("beta2", ctx.mul(ctx.beta, ctx.beta))):
        comps = orbit(W, kind)
        for i, C in enumerate(comps):
            gi = ctx.pow(g, i)
            assert C.elements.tolist() == sorted(ctx.mul(gi, int(x)) for x in W.elements)


def test_is_spread_rejects_duplicates(spread_c313):
    comps = spread_c313.components
    assert not is_spread(comps[:-1] + [comps[0]])
    assert not is_spread(comps[:-1])          # wrong count
    assert is_partial_spread(comps[:5])


# -- named constructions ---------------------------------------------------------------


def test_build_typeC(c313, spread_c313):
    S = spread_c313
    assert S.kind == "typeC" and S.verified
    assert len(S.components) == 28
    assert kernel_of_spread(S) == 3


def test_build_typeC_q5(c513):
    S = build_typeC(c513, 2, c513.find_deltas()[0])
    assert len(S.components) == 126
    assert kernel_of_spread(S) == 5


def test_build_typeC_guards(c313, c213):
    delta = c313.find_deltas()[0]
    with pytest.raises(ValueError):
        build_typeC(c313, 3, delta)            # i out of range
    with pytest.raises(ValueError):
        build_typeC(c313, 1, 1)                # delta condition fails
    with pytest.raises(ValueError):
        build_typeC(c213, 1, 7)                # even q
    c314 = build_tower(3, 1, 4)
    with pytest.raises(ValueError):
        build_typeC(c314, 2, c314.find_deltas()[0])     # gcd(i, n) != 1


def test_build_typeH(c313):
    delta = c313.find_deltas()[0]
    eta = c313.find_etas(1)[0]
    S = build_typeH(c313, 1, delta, eta)
    assert S.kind == "typeH" and S.verified
    assert len(S.components) == 28
    assert is_spread(S.components)
    assert kernel_of_spread(S) == 3


def test_build_typeH_second_orbit_starts_at_psi_image(c313):
    # psi(z) = eta z^(q^n), computed here with scalar arithmetic
    delta, eta = c313.find_deltas()[0], c313.find_etas(1)[0]
    S = build_typeH(c313, 1, delta, eta)
    W, ne = S.components[0], c313.n * c313.e
    want = sorted(c313.mul(eta, c313.frob(int(x), ne)) for x in W.elements)
    assert S.components[len(S) // 2].elements.tolist() == want


@pytest.mark.parametrize("fake_psi, message", [
    (lambda W, els: els[:-1], "leaves the component set"),
    (lambda W, els: W.elements, "not transitive"),
])
def test_build_typeH_group_check(c313, monkeypatch, fake_psi, message):
    # the first psi-image seeds the second orbit; fake only the later ones,
    # which the transitivity check computes
    real = spread_mod._image
    seeded = []

    def image(W, g, k=0):
        if k and seeded:
            return fake_psi(W, real(W, g, k))
        if k:
            seeded.append(W)
        return real(W, g, k)

    monkeypatch.setattr(spread_mod, "_image", image)
    with pytest.raises(RuntimeError, match=message):
        build_typeH(c313, 1, c313.find_deltas()[0], c313.find_etas(1)[0])


def test_build_typeH_guards(c313, c312):
    delta = c313.find_deltas()[0]
    with pytest.raises(ValueError):
        build_typeH(c313, 1, delta, 1)            # eta = 1 is a square
    with pytest.raises(ValueError):
        build_typeH(c313, 1, delta, c313.gamma)   # wrong multiplicative order
    with pytest.raises(ValueError):
        build_typeH(c312, 1, c312.find_deltas()[0], 1)   # even n


def test_build_even_n3(c213, even3_deltas, spread_even3):
    assert even3_deltas == [7, 10, 21, 27, 29, 30, 58, 59]
    S = spread_even3
    assert S.kind == "evenC" and S.verified
    assert len(S.components) == 9
    # the q = 2 instance happens to coordinatize the Desarguesian plane of
    # order 8, so the kernel is the full F_8 rather than the generic F_q
    assert kernel_of_spread(S) == 8


def test_build_even_n3_q4():
    c223 = build_tower(2, 2, 3)
    adm = [d for d in range(c223.N) if even3_admissible(c223, d)]
    assert len(adm) == 192
    S = build_even_n3(c223, adm[0])
    assert len(S.components) == 65
    assert kernel_of_spread(S) == 4           # = q: this plane is proper
    assert symplectic_check(S, adm[0])


def test_build_even_n3_rejections(c213, c313):
    inadmissible = next(d for d in range(1, c213.N)
                        if not c213.in_subfield(d, "qn")
                        and not even3_admissible(c213, d))
    with pytest.raises(ValueError):
        build_even_n3(c213, inadmissible)
    # and the attached polynomial genuinely fails to permute
    Q = q_from_pair(QPoly.trace_poly(c213), QPoly.identity(c213), inadmissible)
    assert not is_permutation_brute(Q)
    with pytest.raises(ValueError):
        build_even_n3(c213, 7 if c213.in_subfield(7, "qn") else 2)   # delta inside
    with pytest.raises(ValueError):
        build_even_n3(c313, 7)                # odd q


def test_symplectic_check(c213, even3_deltas, spread_even3):
    delta = even3_deltas[0]
    assert symplectic_check(spread_even3, delta)
    # swap in a non-isotropic 3-space: the check must notice
    W = Subspace(c213, basis=[1, 2, 4])
    assert W not in spread_even3.components
    bad = Spread(c213, spread_even3.components[:-1] + [W], "custom", verified=True)
    assert not symplectic_check(bad, delta)


# -- orbit <-> polynomial correspondence ---------------------------------------------


def test_key_lemma_odd_good(c313):
    delta = c313.find_deltas()[0]
    rep = check_key_lemma(c313, QPoly.monomial(c313, 1), delta)
    assert rep.ok
    assert rep.sides == {"component_injective": True,
                         "beta2_partial_spread": True,
                         "beta_spread": True,
                         "planar": True,
                         "coset_permutation": True}


def test_key_lemma_odd_n2(c312):
    rng = np.random.default_rng(15)
    dom = c312.subfield_elements("qn")
    delta = c312.find_deltas()[0]
    hit_false = False
    for _ in range(20):
        L = QPoly(c312, [int(rng.choice(dom)) for _ in range(2)])
        rep = check_key_lemma(c312, L, delta)
        assert rep.ok                       # equivalences hold on both sides
        hit_false |= not rep.sides["beta_spread"]
    assert hit_false                        # n = 2 never produces one of these


def test_key_lemma_even(c213, even3_deltas):
    rep = check_key_lemma(c213, QPoly.trace_poly(c213), c213.inv(even3_deltas[0]))
    assert rep.ok
    assert rep.sides["beta_spread"] and rep.sides["permutation"]


def test_key_lemma_report_desarguesian(c313):
    # L = 0: W = F_{q^n}, its beta-orbit is the Desarguesian spread, Q = X^2
    rep = KeyLemmaReport(c313, QPoly.zero(c313), c313.find_deltas()[0])
    assert rep.ok
    assert rep.sides == dict.fromkeys(["component_injective", "beta2_partial_spread",
                                       "beta_spread", "planar", "coset_permutation"], True)
    assert repr(rep).startswith("KeyLemmaReport(ok=True")


def test_key_lemma_guards(c313):
    with pytest.raises(ValueError):
        check_key_lemma(c313, QPoly.identity(c313, "q", 1), c313.find_deltas()[0])
    with pytest.raises(ValueError):
        check_key_lemma(c313, QPoly.identity(c313), 2)


def test_key_lemma_random_property(c313):
    # whenever the beta^2-orbit is a partial spread the full beta-orbit is a
    # spread (odd q and n, gcd condition holds at (3,3))
    rng = np.random.default_rng(16)
    dom = c313.subfield_elements("qn")
    deltas = c313.find_deltas()
    for _ in range(40):
        L = QPoly(c313, [int(rng.choice(dom)) for _ in range(3)])
        delta = int(rng.choice(deltas))
        rep = check_key_lemma(c313, L, delta)
        assert rep.ok
        if rep.sides["beta2_partial_spread"]:
            assert rep.sides["beta_spread"]


def test_gcd_condition():
    assert gcd_condition(3, 3)
    assert not gcd_condition(2, 3)
    assert gcd_condition(5, 2)
    assert gcd_condition(9, 3)               # prime-power q factors automatically


# -- structural invariants --------------------------------------------------------------


def test_spread_beta_stability(spread_c313, c313):
    comps = set(spread_c313.components)
    for C in spread_c313.components:
        moved = Subspace(c313, elements=np.sort(c313.vmul(c313.beta, C.elements)),
                         verify=False)
        assert moved in comps


def test_spread_coverage_identity(spread_c313, c313):
    total = sum(len(C.elements) - 1 for C in spread_c313.components)
    assert total == c313.N - 1


def test_kernel_divides(spread_c313, c313):
    k = kernel_of_spread(spread_c313)
    assert (c313.q ** c313.n) % k == 0


# -- serialization ------------------------------------------------------------------------


def test_subspace_json_round_trip(c313):
    delta = c313.find_deltas()[0]
    W = component_from_pair(QPoly.identity(c313), QPoly.monomial(c313, 1), delta)
    back = Subspace(c313, basis=W.to_json())
    assert back == W


def test_subspace_validation(c213):
    with pytest.raises(ValueError):
        Subspace(c213, elements=[0, 1, 2])          # not a subspace (size 3)
    with pytest.raises(ValueError):
        Subspace(c213, elements=[0, 1], basis=[1])  # both args
    with pytest.raises(ValueError):
        Subspace(c213)                              # neither arg


def test_spread_json_round_trip(spread_c313):
    doc = spread_c313.to_json()
    assert doc["kind"] == "typeC" and doc["verified"]
    assert doc["kernel"] == 3
    back = Spread.from_json(doc)
    assert back.kind == "typeC"
    assert len(back.components) == 28
    assert set(back.components) == set(spread_c313.components)
    assert is_spread(back.components)


def test_kernel_is_stored_and_not_recomputed(c313, monkeypatch):
    S = build_typeC(c313, 1, c313.find_deltas()[0])
    assert S.kernel is None
    assert kernel_of_spread(S) == S.kernel == 3

    def no_elimination(*args):
        raise AssertionError("to_json eliminated the kernel system again")

    monkeypatch.setattr(spread_mod, "nullspace", no_elimination)
    assert S.to_json()["kernel"] == 3


def test_kernel_loaded_from_json_is_recomputed(spread_c313):
    doc = dict(spread_c313.to_json(), kernel=999)
    S = Spread.from_json(doc)
    assert S.kernel == 999
    assert kernel_of_spread(S) == S.kernel == 3


def test_index_cache_stays_small():
    # fresh towers, so lookups made by other tests are not counted; the span
    # behind each component basis and each radical is not kept
    ctx = FieldCtx(5, 1, 3)
    doc = json.loads(json.dumps(build_typeC(ctx, 1, ctx.find_deltas()[0]).to_json()))
    assert Spread.from_json(doc, ctx).to_json() == doc
    assert len(ctx._index_cache) <= 2
    c214 = FieldCtx(2, 1, 4)
    dom = c214.subfield_elements("qn")
    rng = np.random.default_rng(20)
    for _ in range(20):
        coeffs = {(i, j): int(rng.choice(dom)) for i in range(4) for j in range(i, 4)}
        is_permutation_via_rank(DOPoly(c214, coeffs))
    assert len(c214._index_cache) <= 2


def test_corrupt_bases_and_empty_spreads_are_refused(c313):
    for bad in (c313.N, 10 ** 6, -1, -3):
        with pytest.raises(ValueError, match=f"element {bad} is not an encoding"):
            Subspace(c313, basis=[1, bad])
    with pytest.raises(ValueError, match="no components"):
        is_spread([])


def test_kernel_requires_verified(c313, spread_c313):
    S = Spread(c313, spread_c313.components, "custom", verified=False)
    with pytest.raises(ValueError):
        kernel_of_spread(S)
