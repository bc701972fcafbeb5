import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from valgen import (
    InternalConsistencyError,
    PairVec,
    RadicalBasis,
    ValuationModel,
    _golden,
    cli,
    jumpseq,
    outputs,
)
from valgen.cli import load_config, main, parse_config
from valgen.grouplat import SemigroupSolver, staircase
from valgen.jumpseq import vec_over
from valgen.jumpseq import (
    SearchBounds,
    build_p_chain,
    build_state,
    build_t_chain,
)
from valgen._golden import parsed_example
from valgen.laurent import parse_polynomial
from valgen.outputs import redundancy_survey
from valgen.valmodel import RING_VARS
from valgen.values import combination

import oracles
from conftest import SECOND_CONFIG, make_second_model, rebound
from corpus import first_chain_config, tower_config
from test_valmodel import model_from


@pytest.mark.parametrize(
    "field,value",
    [
        ("max_t_index", 2.5),
        ("max_t_index", 0),
        ("d_coord_cap", -1),
        ("d_layer_cap", -2),
        ("d_coord_cap", True),
        ("max_value", 20),
    ],
)
def test_search_bounds_refuse_what_no_search_can_use(field, value):
    with pytest.raises(ValueError, match=f"^{field}: expected a"):
        SearchBounds(**{field: value})
    with pytest.raises(ValueError, match=f"^{field}: expected a"):
        rebound(SearchBounds(), **{field: value})


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


def test_example_first_chain(state):
    assert len(state.p_chain) == 2
    assert not state.flags.p_truncated
    p1, p2 = state.p_chain
    assert p1.poly.text() == "1*x" and p2.poly.text() == "1*y"
    assert p1.q is None and p2.q is None
    assert p1.beta.exact_str() == "1"
    assert p2.beta.exact_str() == "sqrt(2)"


def test_first_chain_truncation(monkeypatch):
    # the second model's chain has three members; a cap of two stops it
    # after y's jump data is recorded
    monkeypatch.setattr(jumpseq, "DEFAULT_P_CAP", 2)
    st = build_p_chain(make_second_model())
    assert [r.poly.text() for r in st.p_chain] == ["1*x", "1*y"]
    assert st.flags.p_truncated
    assert st.p_chain[1].q == 1 and st.p_chain[1].L_vec == (1,)


def test_a_member_whose_value_does_not_rise_is_refused(monkeypatch):
    # a doubled residue ratio leaves the initial terms uncancelled, so the
    # new member keeps its monomial's value; JumpState.binomial refuses it
    # in both chains with one message
    ratio = ValuationModel.residue_ratio
    example = build_p_chain(*corpus_model("example"))
    model, bounds = corpus_model("q2")
    monkeypatch.setattr(
        ValuationModel, "residue_ratio", lambda m, f, g: 2 * ratio(m, f, g)
    )
    message = "a new member's value did not rise"
    with pytest.raises(InternalConsistencyError, match=message):
        build_p_chain(model, bounds)
    with pytest.raises(InternalConsistencyError, match=message):
        build_t_chain(example)


def test_a_max_value_over_another_basis_is_refused_before_building(
    monkeypatch,
):
    model, _, _, _ = parsed_example()
    bounds = SearchBounds(max_value=RadicalBasis((1, 2, 3)).rational(20))

    def no_seed(*args):
        raise AssertionError("the first chain was begun")

    monkeypatch.setattr(jumpseq, "_seed", no_seed)
    with pytest.raises(
        ValueError, match="^max_value carries a different radical basis$"
    ):
        build_p_chain(model, bounds)


def test_a_group_multiple_without_a_depth_witness_is_refused(monkeypatch):
    # no depth of the first chain reaches s*gamma in the lattice
    model, bounds = corpus_model("example")
    monkeypatch.setattr(jumpseq, "lattice_solve", lambda target, gens: None)
    with pytest.raises(
        InternalConsistencyError, match="group multiple has no depth witness"
    ):
        build_state(model, bounds)


def test_a_vanished_first_chain_member_is_refused(monkeypatch):
    model, bounds = corpus_model("q2")
    binomial = jumpseq.JumpState.binomial

    def vanishing(self, lhs, rhs):
        scalar, poly, image, value = binomial(self, lhs, rhs)
        return scalar, poly.scale(0), image, value

    monkeypatch.setattr(jumpseq.JumpState, "binomial", vanishing)
    with pytest.raises(InternalConsistencyError, match="chain member vanished"):
        build_p_chain(model, bounds)


# x = u1^2, y = u1^3 + u1^4 + u2: three finite jumps, and the third
# member's rewrite 2*beta_1 + beta_2 uses the bounded slot of y
DEEP_FIRST_CHAIN = {
    "basis": [1, 2, 51],
    "ambient_vars": ["u1", "u2", "u3"],
    "ambient_values": ["1", "sqrt(51)", "2 + sqrt(2)"],
    "images": {"x": "u1^2", "y": "u1^3 + u1^4 + u2", "z": "u3"},
}


def test_deep_first_chain_is_pinned(tmp_path, capsys):
    model, bounds, _, _ = parse_config(DEEP_FIRST_CHAIN, "deep")
    st = build_state(model, bounds=bounds)
    assert [(rec.q, rec.L_vec) for rec in st.p_chain] == [
        (None, None),
        (2, (3,)),
        (1, (2, 1)),
        (1, (4, 0, 0)),
        (None, None),
    ]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(DEEP_FIRST_CHAIN))
    assert main(["build", "--config", str(path), "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "41c78d37ccd217a4988b5c08246cc611efaab17db97e5ef04502ac63ebb619b4"
    )


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
        assert oracles.coefficient(rec.poly, (0, deg_y, 0)) == 1
        assert deg_y == expected_degree
        if rec.q is not None:
            expected_degree *= rec.q


def test_second_model_second_chain(second_state):
    assert len(second_state.t_chain) == 1
    rec = second_state.t_chain[0]
    assert rec.status == "ok"
    assert rec.gamma == second_state.basis.root(3)
    assert rec.s is None
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
        parsed_example()[0],
        bounds=SearchBounds.for_basis(
            RadicalBasis((1, 2, 51)), max_t_index=3
        ),
    )
    assert len(st.t_chain) == 3
    assert st.flags.t_truncated


def test_value_ceiling_skips_expensive_rows():
    basis = RadicalBasis((1, 2, 51))
    st = build_state(
        parsed_example()[0],
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


def test_a_state_takes_its_model_and_bounds_only(state):
    # the chains and caches start empty in each state, so a cache built
    # for another state cannot be handed to this one
    given = {
        "p_chain": state.p_chain, "t_chain": state.t_chain,
        "_products": state._products, "_solvers": state._solvers,
        "_thresholds": None, "_staircase": state._staircase,
    }
    for name, value in given.items():
        with pytest.raises(TypeError):
            jumpseq.JumpState(state.model, state.bounds, **{name: value})
    with pytest.raises(TypeError):
        jumpseq.JumpState(state.model, state.bounds, state.p_chain)
    fresh = jumpseq.JumpState(state.model, state.bounds)
    assert fresh.p_chain == [] and fresh.t_chain == []
    assert fresh._products == {} and fresh._solvers == {}
    assert fresh._thresholds is None
    assert fresh._staircase == (None, (), (), ((),))


def test_search_leads_read_the_chain_records(state, second_state, monkeypatch):
    def reference(st, rows):
        return Counter(oracles.on_rows(oracles.relation_leads(st), rows))

    # a power of the first chain: y - x has q = 1 in the second model
    assert second_state.p_chain[1].q == 1
    rows = second_state.coordinates(3, 1)
    assert second_state.search(3, 1)[2] == [(0, 1, 0, 0)]
    # a vanished member: position 11 of the worked example gets no row, so
    # its e_11 is never on the rows and adds no lead
    assert state.t_chain[10].poly.is_zero()
    assert PairVec((), (0,) * 10 + (1,)) in oracles.relation_leads(state)
    rows = state.coordinates(2, len(state.t_chain))
    assert ("t", 11) not in [(kind, idx) for kind, idx, _ in rows]
    assert Counter(state.search(2, len(state.t_chain))[2]) == reference(state, rows)
    # a minimal vector of a processed position, x*z at position 1, and no
    # D member past t_1 on the rows of coordinates(2, 1)
    assert state.t_chain[0].D.members == (PairVec((1,), (1,)),)
    rows = state.coordinates(2, 1)
    got = state.search(2, 1)[2]
    assert (1, 0, 1) in got
    assert Counter(got) == reference(state, rows)
    past = [v for v in oracles.relation_leads(state) if len(v.t) > 1]
    assert past and oracles.on_rows(past, rows) == []
    # a skipped position records no relation, and no lead uses its row:
    # a D set left on its record is not read
    rec = state.t_chain[15]
    assert rec.status == "skipped" and rec.D is None
    rows = state.coordinates(2, len(state.t_chain))
    t16 = rows.index(("t", 16, rec.gamma))
    leads = state.search(2, len(state.t_chain))[2]
    assert not any(lead[t16] for lead in leads)
    stray = PairVec((1,), (0,) * 15 + (1,))
    monkeypatch.setattr(rec, "D", jumpseq.GeneratorSet((stray,), True))
    assert state.search(2, len(state.t_chain))[2] == leads


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
    assert state.value_of(PairVec((), ())).is_zero()


def test_products_refuse_vectors_past_the_chains(state):
    # the worked example's first chain has two members; a product past
    # them was the constant 1
    past = PairVec((0, 0, 5), ())
    for form in (state.value_of, state.poly_of, state.image_of):
        with pytest.raises(ValueError, match="beyond the constructed chains"):
            form(past)
    # a build stopped at 10 members refuses t_11, and caches nothing that
    # would outlive the resumed build, where t_11 vanishes
    model, bounds, _, _ = parsed_example()
    stopped = build_state(model, bounds=rebound(bounds, max_t_index=10))
    t11 = PairVec((), (0,) * 10 + (1,))
    for form in (stopped.poly_of, stopped.image_of):
        with pytest.raises(ValueError, match="beyond the constructed chains"):
            form(t11)
    stopped.bounds = bounds
    build_t_chain(stopped)
    rec = stopped.t_chain[10]
    assert rec.poly.is_zero() and rec.image.is_zero()
    assert stopped.poly_of(t11) == rec.poly
    assert stopped.image_of(t11) == rec.image


def test_the_rewrite_refuses_the_k_coordinates_refuses(state):
    # the rewrite runs over coordinates(k, i) as given, with no floor under
    # k, so the layout's own checks refuse a bad k
    gamma_5 = state.t_chain[4].gamma
    assert state.m_at(4) == 2
    assert str(state.rewrite(gamma_5, 2, 4)) == "(|1,0,0,1)"
    for k in (True, 1.5, 2.5):
        with pytest.raises(TypeError, match="^k must be an int"):
            state.rewrite(gamma_5, k, 4)
    with pytest.raises(
        ValueError, match=r"^no rows p_1..p_-7, t_1..t_4 in the chains$"
    ):
        state.rewrite(gamma_5, -7, 4)


def test_coordinates_refuse_rows_outside_the_chains(state):
    # one check of (k, i) serves the layout, its solver and the rewrite;
    # an i of -1 silently dropped the last member
    n_p, n_t = len(state.p_chain), len(state.t_chain)
    solvers = dict(state._solvers)
    alpha = state.t_chain[1].gamma
    for k, i in ((2, -1), (-1, 0), (n_p + 1, 0), (2, n_t + 1)):
        for ask in (state.coordinates, state.semigroup_solver, state.search):
            with pytest.raises(ValueError, match="no rows p_"):
                ask(k, i)
    # the rewrite refuses the same k and i
    for k, i in ((2, -1), (-1, 0), (n_p + 1, 0), (2, n_t + 1)):
        with pytest.raises(ValueError, match="no rows p_"):
            state.rewrite(alpha, k, i)
    for k, i in ((True, 1), (2, True), (2.0, 1), (2, 1.0)):
        for ask in (state.coordinates, state.semigroup_solver, state.search):
            with pytest.raises(TypeError, match="must be an int"):
                ask(k, i)
    assert state._solvers == solvers


def test_pushing_set_refuses_positions_outside_the_chain(state):
    # -1 died with a bare IndexError, 0 read the last record and True ran
    # position 1
    for i in (-1, 0, len(state.t_chain) + 1):
        with pytest.raises(ValueError, match="no second-chain position"):
            state.pushing_set(i)
    with pytest.raises(TypeError, match="must be an int"):
        state.pushing_set(True)


CONFIG_FILES = {
    "tower.json": Path(__file__).with_name("tower.json"),
    "second.json": Path(__file__).parents[1] / "perfbench/configs/second.json",
}


def corpus_model(which):
    """(model, bounds) of the worked example, a config file, a tower_config
    seed or first_chain_config(1) or (2)."""
    if which == "example":
        model, bounds, _, _ = parsed_example()
    elif which in CONFIG_FILES:
        model, bounds, _, _ = load_config(str(CONFIG_FILES[which]))
    else:
        if which in ("q1", "q2"):
            cfg = first_chain_config(int(which[1]))
        else:
            cfg = tower_config(which)
        model, bounds, _, _ = parse_config(cfg, str(which))
    if which == 1:
        # its full 64 members take seconds of polynomial products
        bounds = rebound(bounds, max_t_index=32)
    return model, bounds


def corpus_state(request, which):
    """A built model for the layout tests: a fixture of this suite or one
    of corpus_model."""
    if which in ("state", "state_30"):
        return request.getfixturevalue(which)
    return build_state(*corpus_model(which))


@pytest.mark.parametrize("which", ["example", "tower.json", 0, 1, 2, 3])
def test_a_record_reads_ok_only_once_its_d_set_is_recorded(monkeypatch, which):
    # every search of a build sees an "ok" record only with its D set, the
    # record of the position being searched included
    seen = []

    def check(state, name):
        assert all(r.D is not None for r in state.t_chain if r.status == "ok")
        seen.append(name)

    search = jumpseq.JumpState.pushing_set
    rewrite = jumpseq.JumpState.rewrite

    def checked_search(state, i):
        check(state, "search")
        # a placeholder D and "ok" set before the search would pass check
        assert state.t_chain[i - 1].status == "pending"
        return search(state, i)

    def checked_rewrite(state, alpha, k, i):
        check(state, "rewrite")
        return rewrite(state, alpha, k, i)

    monkeypatch.setattr(jumpseq.JumpState, "pushing_set", checked_search)
    monkeypatch.setattr(jumpseq.JumpState, "rewrite", checked_rewrite)
    model, bounds = corpus_model(which)
    build_state(model, bounds=bounds)
    assert {"search", "rewrite"} <= set(seen)


@pytest.mark.parametrize(
    "which", ["state", "state_30", *CONFIG_FILES, 0, 1, 2, 3, 4, "q1", "q2"]
)
def test_coordinate_rows_round_trip(request, which):
    # past the worked example's zero positions 11, 12 and 18 a row's place
    # in the layout and its member index differ
    st = corpus_state(request, which)
    rng = random.Random(5)
    t_len = len(st.t_chain)
    leads = oracles.relation_leads(st)
    kept = left_out = 0
    for k in range(1, len(st.p_chain) + 1):
        for i in range(t_len + 1):
            rows = st.coordinates(k, i)
            assert [idx for kind, idx, _ in rows if kind == "p"] == list(
                range(1, k + 1)
            )
            zero = {rec.index for rec in st.t_chain[:i] if rec.gamma.is_zero()}
            t_rows = [idx for kind, idx, _ in rows if kind == "t"]
            assert t_rows == [j for j in range(1, i + 1) if j not in zero]
            vals = [val for *_, val in rows]
            counts = [rng.randint(0, 3) for _ in rows]
            assert st.value_of(vec_over(rows, counts)) == combination(
                counts, vals, st.basis
            )
            # search writes each lead on the rows onto them and leaves out
            # a lead with an entry off the rows: a zero position's e_j, a
            # q*e_j beyond p_k, or a D member past t_i
            want = oracles.on_rows(leads, rows)
            assert Counter(st.search(k, i)[2]) == Counter(want), (k, i)
            kept += len(want)
            left_out += len(leads) - len(want)
    assert kept and left_out


@pytest.mark.parametrize(
    "which", ["example", "tower.json", "second.json", 0, 4, "q2-2"]
)
def test_every_chain_search_gets_the_leads_of_the_records(monkeypatch, which):
    # the creating rewrites, the D searches and the survey's picks each
    # receive the leads search returned for their rows, and those are the
    # relation leads of the records on the rows (oracles.relation_leads)
    # plus a unit lead on the row of each held member: none for a rewrite,
    # each member skipped below a D search, the surveyed member for its
    # picks.  A D search receives its leads as their staircase cover.
    returned, at, checked = [], {}, Counter()

    def want(rows, held):
        st = at["state"]
        units = [tuple(int(row[:2] == ("t", j)) for row in rows) for j in held]
        return Counter(oracles.on_rows(oracles.relation_leads(st), rows) + units)

    def entering(kind, run):
        def entered(st, i, *args, **kwargs):
            at.update(state=st, kind=kind, i=i)
            return run(st, i, *args, **kwargs)
        return entered

    def expected(kind):
        # the rows and held members of the search the caller should run
        st, i = at["state"], at["i"]
        assert at["kind"] == kind
        if kind == "pick":
            return st.coordinates(len(st.p_chain), len(st.t_chain)), [i]
        rows = st.coordinates(st.t_chain[i - 1].m, i - 1)
        if kind == "rewrite":
            return rows, []
        return rows, [r.index for r in st.t_chain[: i - 1] if r.status == "skipped"]

    search = jumpseq.JumpState.search

    def searched(st, k, i, held=()):
        got = search(st, k, i, held)
        returned.append(got[2])
        return got

    decompose = jumpseq.irreducible_decompose

    def rewritten(alpha, solver, leads):
        rows, held = expected("rewrite")
        assert leads is returned[-1] and Counter(leads) == want(rows, held)
        checked["rewrite"] += 1
        return decompose(alpha, solver, leads)

    pushing = jumpseq.minimal_pushing_set

    def pushed(step, solver, cover, layer_cap, cap):
        rows, held = expected("d")
        assert Counter(returned[-1]) == want(rows, held)
        fresh = staircase([()], returned[-1], len(rows), cap)
        assert sorted(cover) == sorted(fresh)
        checked["d"] += 1
        return pushing(step, solver, cover, layer_cap, cap)

    contains = SemigroupSolver.contains

    def picked(solver, alpha, *cut):
        # irreducible_decompose asks with leads too, inside a rewrite
        if cut and at.get("kind") == "pick":
            rows, held = expected("pick")
            assert cut[0] is returned[-1] and Counter(cut[0]) == want(rows, held)
            checked["pick"] += 1
        return contains(solver, alpha, *cut)

    monkeypatch.setattr(jumpseq.JumpState, "search", searched)
    monkeypatch.setattr(jumpseq, "irreducible_decompose", rewritten)
    monkeypatch.setattr(jumpseq, "minimal_pushing_set", pushed)
    monkeypatch.setattr(SemigroupSolver, "contains", picked)
    monkeypatch.setattr(
        jumpseq, "_create_member", entering("rewrite", jumpseq._create_member)
    )
    monkeypatch.setattr(
        jumpseq.JumpState, "pushing_set",
        entering("d", jumpseq.JumpState.pushing_set),
    )
    monkeypatch.setattr(
        outputs, "redundancy_certificate",
        entering("pick", outputs.redundancy_certificate),
    )
    if which == "q2-2":
        model, bounds, _, _ = parse_config(first_chain_config(2, 2), which)
    else:
        model, bounds = corpus_model(which)
    redundancy_survey(build_state(model, bounds=bounds))
    if which == "second.json":
        # its one member has no group multiple and is not eligible, so
        # nothing searches; "q2-2" searches under a first-chain power lead
        assert checked == Counter()
    else:
        assert checked["rewrite"] and checked["d"] and checked["pick"], checked


def test_polynomials_realize_their_values(state):
    # the product of members attached to an exponent vector has exactly
    # the bookkept value under the valuation
    rng = random.Random(11)
    for _ in range(15):
        p = tuple(rng.randint(0, 2) for _ in state.p_chain)
        t = tuple(rng.randint(0, 1) if j < 4 else 0 for j in range(26))
        vec = PairVec(p, t)
        if not vec.p and not vec.t:
            continue
        assert state.model.nu(state.poly_of(vec)) == state.value_of(vec)
    v = PairVec((1, 2), (3,))
    assert state.poly_of(v) == parse_polynomial("x*y^2*z^3", RING_VARS)


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


def test_creation_indices_are_sequential(state):
    # members created while processing position i must appear after every
    # member created at earlier positions, in recorded order
    created = [r for r in state.t_chain if r.parent is not None]
    steps = [r.parent[0] for r in created]
    assert steps == sorted(steps)
    for r in created:
        assert r.parent[0] < r.index


def test_build_t_chain_is_idempotent(state):
    # no member is pending any more, so another pass is a no-op
    before = len(state.t_chain)
    build_t_chain(state)
    assert len(state.t_chain) == before


def record_rows(state):
    """Every field of every chain record, as it stands."""
    return [
        {name: getattr(rec, name) for name in rec.__slots__}
        for rec in state.p_chain + state.t_chain
    ]


def flag_reading(state):
    """The flags, t_truncated checked against its definition: a position
    has created fewer members, the records whose parent names it, than
    its D set holds."""
    flags = state.flags
    made = Counter(rec.parent[0] for rec in state.t_chain if rec.parent)
    short = [
        rec.index
        for rec in state.t_chain
        if rec.status == "ok" and made[rec.index] < len(rec.D.members)
    ]
    assert flags.t_truncated == bool(short)
    assert flags.truncated == (flags.p_truncated or flags.t_truncated)
    return (flags.p_truncated, flags.t_truncated, flags.skipped, flags.d_incomplete)


def report_bytes(state, outputs, echo):
    return cli._dump_json(
        cli.report_doc(state, echo, *cli.derive_outputs(state, outputs))
    )


@pytest.mark.parametrize(
    "which,n", [("tower.json", None), ("example", 3), ("example", 10)]
)
def test_a_finished_build_is_a_fixed_point(which, n):
    # each build is truncated: the position that hit the cap finds no room
    # again, and no pending position past it is processed
    if which == "example":
        parsed = parse_config(_golden.CONFIG, "example", max_t_index=n)
    else:
        parsed = load_config(str(CONFIG_FILES[which]), max_t_index=n)
    model, bounds, outputs, echo = parsed
    state = build_state(model, bounds=bounds)
    assert state.flags.t_truncated
    rows, flags = record_rows(state), flag_reading(state)
    build_t_chain(state)
    assert record_rows(state) == rows
    assert flag_reading(state) == flags
    fresh = build_state(model, bounds=bounds)
    assert report_bytes(state, outputs, echo) == report_bytes(fresh, outputs, echo)


@pytest.mark.parametrize(
    "which,n",
    [
        ("example", 3),
        ("example", 10),
        ("example", 20),
        ("tower.json", 20),
        ("tower.json", 40),
        (4, 20),
        (11, 5),
    ],
)
def test_a_raised_index_cap_goes_on_as_a_fresh_build(which, n):
    # the position that hit the cap creates the rest of its D members, and
    # the walk goes on in a fresh build's order
    model, bounds = corpus_model(which)
    bounds = rebound(bounds, max_t_index=64)
    state = build_state(model, bounds=rebound(bounds, max_t_index=n))
    assert len(state.t_chain) == n and state.flags.t_truncated
    state.bounds = bounds
    build_t_chain(state)
    fresh = build_state(model, bounds=bounds)
    assert record_rows(state) == record_rows(fresh)
    assert flag_reading(state) == flag_reading(fresh)


def checked_staircases(monkeypatch):
    """Make every D search check the cover it ran on against the staircase
    of its leads seeded from the empty base.  Returns the list of the bases
    the covers grow from, the empty base ((),) where a cover is rebuilt."""
    bases = []
    search = jumpseq.JumpState.pushing_set

    def recorded(base, leads, width, cap):
        # a base wider than the rows would run the search off its rows
        assert all(len(box) <= width for box in base)
        bases.append(base)
        return staircase(base, leads, width, cap)

    def checked(state, i):
        got = search(state, i)
        cap, keys, leads, cover = state._staircase
        assert cover == staircase([()], leads, len(keys), cap)
        return got

    monkeypatch.setattr(jumpseq, "staircase", recorded)
    monkeypatch.setattr(jumpseq.JumpState, "pushing_set", checked)
    return bases


@pytest.mark.parametrize("which", ["example", "tower.json", "first chain (2, 1)"])
def test_each_d_search_grows_the_last_ones_staircase(which, monkeypatch):
    if which == "first chain (2, 1)":
        model, bounds, _, _ = parse_config(first_chain_config(2, 1), which)
    else:
        model, bounds = corpus_model(which)
    bases = checked_staircases(monkeypatch)
    build_state(model, bounds=bounds)
    # each position's rows extend the last search's and keep its leads
    assert len(bases) > 10
    assert [base == ((),) for base in bases] == [True] + [False] * (len(bases) - 1)


def test_a_d_search_that_does_not_extend_the_last_rebuilds(monkeypatch):
    model, bounds = corpus_model("example")
    state = build_state(model, bounds=bounds)
    bases = checked_staircases(monkeypatch)
    searched = [
        rec.index for rec in state.t_chain
        if rec.status == "ok" and rec.s is not None and not rec.gamma.is_zero()
    ]
    first, _, i, j, *_, last = searched

    def rebuilt(at):
        # the search gives the recorded D set; was its cover rebuilt?
        del bases[:]
        assert state.pushing_set(at) == state.t_chain[at - 1].D
        return bases == [((),)]

    # the build's last search again: the same rows and leads
    assert not rebuilt(last)
    # fewer rows than the last search's
    assert rebuilt(i) and not rebuilt(j)
    # a depth that rises: p_2 comes in before the t rows
    with monkeypatch.context() as patch:
        patch.setattr(state.t_chain[i - 1], "m", 1)
        state.pushing_set(i)
    assert rebuilt(j)
    # a skipped position: t_1 is held at zero by a unit lead, then is free
    with monkeypatch.context() as patch:
        patch.setattr(state.t_chain[first - 1], "status", "skipped")
        state.pushing_set(i)
    assert rebuilt(j)
    # a lead of the last search that is not among the new ones
    state.pushing_set(i)
    cap, keys, leads, cover = state._staircase
    extra = (1,) + (0,) * (len(keys) - 1)
    assert extra not in leads
    cover = staircase(cover, [extra], len(keys), cap)
    state._staircase = (cap, keys, [*leads, extra], cover)
    assert rebuilt(j)
    # another coordinate cap
    with monkeypatch.context() as patch:
        patch.setattr(state, "bounds", rebound(bounds, d_coord_cap=3))
        del bases[:]
        state.pushing_set(j)
        assert bases == [((),)]
    # a last search with one row more, and no leads to tell
    wider = (*keys, ("t", 0))
    state._staircase = (cap, wider, [], staircase([()], [], len(wider), cap))
    assert rebuilt(i)


def test_raising_the_value_ceiling_keeps_the_rows_below_it(state, state_30):
    # (gamma, s, m, sorted D-member values, D.complete), compared as sets:
    # the higher ceiling processes more positions, so it also creates more
    # zero members, and in another order
    def rows(st, cap):
        return set(
            (
                rec.gamma,
                rec.s,
                rec.m,
                tuple(sorted(st.value_of(v) for v in rec.D.members)),
                rec.D.complete,
            )
            for rec in st.t_chain
            if rec.status == "ok" and rec.gamma <= cap
        )

    cap = state.bounds.max_value
    assert cap == state.basis.rational(20)
    assert not state_30.flags.skipped
    low = rows(state, cap)
    assert len(low) == 19
    assert rows(state_30, cap) == low


def test_a_zero_free_part_closes_the_last_layer(state):
    # positions 5, 6 and 7 of the worked example find t_j itself on their
    # first layer, a minimum with zero free part that closes the search;
    # with one layer allowed, that layer is also the last
    model, bounds, _, _ = parsed_example()
    one = build_state(model, bounds=rebound(bounds, d_layer_cap=1))
    for j in (5, 6, 7):
        rec = one.t_chain[j - 1]
        assert rec.D.members == (PairVec((), (0,) * (j - 1) + (rec.s,)),)
        assert rec.D.complete
    assert one.flags.d_incomplete == state.flags.d_incomplete == [1, 2, 4, 8]


def chain_digest(state):
    """SHA-256 of the chain's (polynomial, value, status, D, D complete)
    rows."""
    rows = [
        [
            str(rec.poly),
            rec.gamma.exact_str(),
            rec.status,
            None if rec.D is None else [str(v) for v in rec.D.members],
            None if rec.D is None else rec.D.complete,
        ]
        for rec in state.t_chain
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_tower_builds_at_default_bounds():
    # the worked example with one more monomial in the tower of z: a chain
    # that runs into the index cap, with D searches over up to 15 rows
    tower = Path(__file__).with_name("tower.json")
    model, bounds, _, _ = load_config(str(tower))
    state = build_state(model, bounds=bounds)
    assert len(state.t_chain) == 64
    assert sum(rec.status == "pending" for rec in state.t_chain) == 50
    assert state.flags.t_truncated
    assert state.flags.d_incomplete == [1, 2, 3, 4, 7, 8, 9, 12, 13, 14]
    assert chain_digest(state) == (
        "79d32ea0bc0c8b36b111f91a88d6a245853d9747f7959db7ded3567753e3ecc1"
    )
    # the build makes 1,710 queries and 4,865 search nodes: 1,647
    # membership queries and the 63 creating rewrites, which ask contains
    # with their leads; without the member memo or the zero probe of
    # minimal_pushing_set it makes more
    solvers = state._solvers.values()
    assert sum(s.queries for s in solvers) <= 1_710
    assert sum(s.nodes for s in solvers) <= 5_300
