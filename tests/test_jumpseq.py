import random
from fractions import Fraction

import pytest

from valgen import PairVec, RadicalBasis, ValuationModel
from valgen.jumpseq import (
    SearchBounds,
    build_p_chain,
    build_state,
    build_t_chain,
    is_successor,
    successors,
)
from valgen._golden import example_model
from valgen.outputs import redundancy_survey
from valgen.valmodel import RING_VARS

from conftest import SECOND_CONFIG, make_second_model
from test_valmodel import model_from


def test_search_bounds_defaults():
    b = SearchBounds()
    assert b.max_t_index == 64
    assert b.max_value is None
    assert b.d_layer_cap == 16 and b.d_coord_cap == 16
    basis = RadicalBasis((1, 2))
    fb = SearchBounds.for_basis(basis)
    assert fb.max_value == basis.rational(20)
    fb2 = SearchBounds.for_basis(basis, max_t_index=5, max_value=None)
    assert fb2.max_t_index == 5 and fb2.max_value is None


def test_rejects_unusable_model():
    cfg = dict(SECOND_CONFIG, images={"x": "u1", "y": "u2"})
    with pytest.raises(ValueError, match="not usable"):
        build_p_chain(model_from(cfg))
    with pytest.raises(ValueError):
        build_p_chain(make_second_model(), max_len=0)


def test_example_first_chain(state):
    assert len(state.p_chain) == 2
    assert not state.flags.p_truncated
    p1, p2 = state.p_chain
    assert p1.poly.text() == "1*x" and p2.poly.text() == "1*y"
    assert p1.q is None and p2.q is None
    assert p1.beta.exact_str() == "1"
    assert p2.beta.exact_str() == "sqrt(2)"


def test_first_chain_truncation():
    st = build_p_chain(example_model(), max_len=1)
    assert len(st.p_chain) == 1
    assert st.flags.p_truncated
    assert st.p_chain[0].poly.text() == "1*x"


def test_second_model_first_chain(second_state):
    chain = second_state.p_chain
    assert [r.poly.text() for r in chain] == ["1*x", "1*y", "-1*x + 1*y"]
    assert chain[1].q == 1
    assert chain[1].lam == Fraction(1)
    assert chain[1].L_vec == (1,)
    assert chain[2].beta == second_state.basis.root(2)
    assert chain[0].q is None and chain[2].q is None
    assert not second_state.flags.p_truncated


def test_members_are_monic_in_second_variable(second_state):
    # past the seed, each member is monic in y with degree the product of
    # the finite jump multiples seen so far
    expected_degree = 1
    for rec in second_state.p_chain[1:]:
        exps = {e for e, _ in rec.poly.terms}
        deg_y = max(e[1] for e in exps)
        assert rec.poly.coefficient((0, deg_y, 0)) == 1
        assert deg_y == expected_degree
        if rec.q is not None:
            expected_degree *= rec.q


def test_second_model_second_chain(second_state):
    assert len(second_state.t_chain) == 1
    rec = second_state.t_chain[0]
    assert rec.status == "ok"
    assert rec.gamma == second_state.basis.root(3)
    assert rec.s is None and rec.s_is_infinite
    assert rec.m == 1
    assert rec.D.members == () and rec.D.complete
    assert rec.parent is None
    assert second_state.flags.skipped == []
    assert not second_state.flags.t_truncated


def test_example_second_chain_shape(state):
    assert len(state.t_chain) == 26
    assert state.flags.skipped == [16]
    assert state.flags.d_incomplete == [1, 2, 4, 8]
    assert not state.flags.t_truncated
    zero_rows = [r.index for r in state.t_chain if r.poly.is_zero()]
    assert zero_rows == [11, 12, 18, 19, 23, 24, 26]
    for r in state.t_chain:
        if r.poly.is_zero():
            assert r.gamma.is_zero()
            assert r.s == 1 and r.D.members == () and r.D.complete
        elif r.status == "ok" and r.index > 1:
            assert r.gamma.sign() > 0


def test_chain_length_cap():
    st = build_state(
        example_model(),
        bounds=SearchBounds.for_basis(
            RadicalBasis((1, 2, 51)), max_t_index=3
        ),
    )
    assert len(st.t_chain) == 3
    assert st.flags.t_truncated


def test_value_ceiling_skips_expensive_rows():
    basis = RadicalBasis((1, 2, 51))
    st = build_state(
        example_model(),
        bounds=SearchBounds.for_basis(basis, max_value=basis.rational(4)),
    )
    assert not st.flags.t_truncated
    assert st.flags.skipped == [3, 4, 5]
    cap = basis.rational(4)
    for r in st.t_chain:
        if r.status == "skipped":
            assert r.gamma > cap
            assert r.s is None and r.m is None and r.D is None
        else:
            assert r.status == "ok"
            assert r.gamma <= cap


def test_m_at_walks_past_unprocessed_rows(state, second_state):
    assert state.m_at(15) == 2
    assert state.m_at(16) == 2  # row 16 is skipped, fall back to row 15
    assert state.m_at(26) == 2
    assert second_state.m_at(1) == 1


def test_value_bookkeeping(state):
    rng = random.Random(3)
    basis = state.basis
    for _ in range(20):
        p = tuple(rng.randint(0, 3) for _ in state.p_chain)
        t = tuple(
            rng.randint(0, 2) if j < 6 else 0
            for j in range(len(state.t_chain))
        )
        vec = PairVec(p, t)
        direct = basis.zero()
        for c, rec in zip(p, state.p_chain):
            direct = direct + rec.beta * c
        for c, rec in zip(t, state.t_chain):
            direct = direct + rec.gamma * c
        assert state.value_of(vec) == direct
        assert state.value_of_raw(p, t) == direct
    assert state.value_of(PairVec((), ())).is_zero()


def test_polynomials_realize_their_values(state):
    # the product of members attached to an exponent vector has exactly
    # the bookkept value under the valuation
    rng = random.Random(11)
    for _ in range(15):
        p = tuple(rng.randint(0, 2) for _ in state.p_chain)
        t = tuple(rng.randint(0, 1) if j < 4 else 0 for j in range(26))
        vec = PairVec(p, t)
        if vec.is_zero():
            continue
        assert state.model.nu(state.poly_of(vec)) == state.value_of(vec)
    v = PairVec((1, 2), (3,))
    assert state.poly_of(v) == state.model.ring_poly("x*y^2*z^3")


@pytest.mark.parametrize("which", ["state", "second_state"])
def test_images_are_expansions(request, which):
    # substitution is a ring homomorphism, so every cached image must equal
    # the expansion of the ring form it stands for
    st = request.getfixturevalue(which)
    model = st.model
    for rec in st.p_chain + st.t_chain:
        assert rec.poly.vars == RING_VARS
        assert rec.image == model.expand(rec.poly)
    vecs = {v for rec in st.t_chain if rec.D for v in rec.D.members}
    vecs |= {rec.LN for rec in st.t_chain if rec.LN is not None}
    survey = (
        request.getfixturevalue("survey")
        if which == "state"
        else redundancy_survey(st)
    )
    for cert in survey.values():
        if cert.status == "certified":
            vecs |= {pick for _, pick in cert.combo}
    if which == "state":
        assert vecs
    for v in vecs:
        ring = st.poly_of(v)
        assert ring.vars == RING_VARS
        assert st.image_of(v) == model.expand(ring)


def test_push_witnesses(state):
    for t in (1, 2, 4, 8):
        rec = state.t_chain[t - 1]
        p_part, t_part = state.push_witness(t)
        assert len(t_part) <= t - 1 or all(c == 0 for c in t_part[t - 1 :])
        total = state.value_of_raw(p_part, t_part)
        assert total == rec.gamma * rec.s


def test_successor_queries(state):
    assert successors(state, 4) == [6, 7, 8, 9]
    assert successors(state, 8) == [13, 14, 15, 16]
    assert successors(state, 26) == []
    assert is_successor(state, 2, 16)
    assert is_successor(state, 8, 16)
    assert not is_successor(state, 3, 16)
    assert not is_successor(state, 16, 16)


def test_creation_indices_are_sequential(state):
    # members created while processing position i must appear after every
    # member created at earlier positions, in recorded order
    created = [r for r in state.t_chain if r.parent is not None]
    steps = [r.parent[0] for r in created]
    assert steps == sorted(steps)
    for r in created:
        assert r.parent[0] < r.index


def test_build_t_chain_is_idempotent(state):
    # the cursor sits past the last position, so another pass is a no-op
    before = len(state.t_chain)
    build_t_chain(state)
    assert len(state.t_chain) == before
