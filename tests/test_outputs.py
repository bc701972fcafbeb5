import copy
import gc
import random
import weakref
from fractions import Fraction

import pytest

from valgen import (
    InternalConsistencyError,
    PairVec,
    RadicalBasis,
    ValuationModel,
    Value,
    jumpseq,
    outputs,
    parse_value,
    values,
)
from valgen.cli import load_config, parse_config
from valgen.grouplat import SemigroupSolver
from valgen.jumpseq import SearchBounds, build_p_chain, build_state, build_t_chain
from valgen.outputs import (
    DEFAULT_VALUE_SLACK,
    _ThresholdIndex,
    generating_sequence_detail,
    gr_presentation,
    ideal_generators,
    redundancy_certificate,
    redundancy_survey,
    semigroup_values_up_to,
)
from valgen._golden import GOLDEN, parsed_example

import oracles
from conftest import TOWER, build_example, make_second_model
from corpus import tower_config
from test_valmodel import with_values


# -- valuation ideals ----------------------------------------------------------


def test_threshold_zero_gives_the_unit(state):
    for sigma in (state.basis.zero(), state.basis.rational(-3)):
        gens = ideal_generators(state, sigma)
        assert gens.members == (PairVec((), ()),)
        assert gens.complete


def test_known_threshold_members(state):
    sigma = parse_value("2*sqrt(2)", state.basis)
    gens = ideal_generators(state, sigma)
    assert PairVec((0, 2), ()) in gens.members  # y^2
    assert PairVec((1,), (1,)) in gens.members  # x*z
    assert gens.members[0] == PairVec((0, 2), ())
    values = [state.value_of(v) for v in gens.members]
    assert all(v >= sigma for v in values)
    assert values == sorted(values)


def test_generators_form_minimal_antichain(state):
    sigma = parse_value("2*sqrt(2)", state.basis)
    members = ideal_generators(state, sigma).members
    for v in members:
        for w in members:
            assert v == w or not oracles.dominates(v, w)
    # dropping any single variable from a member falls below the threshold
    rows = {("p", r.index): r.beta for r in state.p_chain}
    rows.update({("t", r.index): r.gamma for r in state.t_chain})
    for v in members:
        total = state.value_of(v)
        for pos, c in enumerate(v.p):
            if c:
                assert total - rows[("p", pos + 1)] < sigma
        for pos, c in enumerate(v.t):
            if c:
                assert total - rows[("t", pos + 1)] < sigma


def test_generators_match_brute_force(state, second_state):
    for st in (state, second_state):
        basis = st.basis
        for text in ("1", "sqrt(2)", "2*sqrt(2) - 1", "3"):
            sigma = parse_value(text, basis)
            cap = sigma + basis.rational(4)
            everything = oracles.vectors_up_to(st, cap)
            reaching = [(v, val) for v, val in everything if val >= sigma]
            want = sorted(
                oracles.minimal_vectors(reaching),
                key=lambda v: (st.value_of(v), v.p, v.t),
            )
            got = sorted(
                [
                    v
                    for v in ideal_generators(st, sigma).members
                    if st.value_of(v) <= cap
                ],
                key=lambda v: (st.value_of(v), v.p, v.t),
            )
            assert got == want


def test_queries_match_brute_force_off_unit_denominators(fractional_state):
    st = fractional_state
    basis = st.basis
    gens = [val for _, _, val in oracles.chain_rows(st)]
    assert {val.den for val in gens} == {1, 2, 3}
    for text in ("5/4 + 1/5*sqrt(3)", "2", "3/7*sqrt(2) + 1/2"):
        sigma = parse_value(text, basis)
        # a minimal generator exceeds sigma by less than one row value
        cap = sigma + max(gens)
        reaching = [
            (v, val)
            for v, val in oracles.vectors_up_to(st, cap)
            if val >= sigma
        ]
        want = sorted(
            oracles.minimal_vectors(reaching),
            key=lambda v: (st.value_of(v), v.p, v.t),
        )
        members = ideal_generators(st, sigma).members
        assert sorted(
            members, key=lambda v: (st.value_of(v), v.p, v.t)
        ) == want
        assert [st.value_of(v) for v in members] == sorted(
            st.value_of(v) for v in members
        )
        sl = semigroup_values_up_to(st, sigma)
        assert list(sl.values) == oracles.sums_up_to(gens, sigma, basis.zero())


def fresh(st):
    """st with no threshold index: the next query builds one."""
    st = copy.copy(st)
    st._thresholds = None
    return st


def test_queries_walk_once_and_then_read_the_index(second_state, monkeypatch):
    st = fresh(second_state)
    basis = st.basis
    sigma = parse_value("2 + 2*sqrt(2) + 2*sqrt(3)", basis)
    below = parse_value("1 + 2*sqrt(2) + 5/3*sqrt(3)", basis)
    above = sigma + basis.rational(Fraction(1, 64))
    builds = built = exact = compared = placed = 0
    init = Value.__init__
    cmp = Value._cmp
    build = _ThresholdIndex.build
    int_vec_sign = values.int_vec_sign

    def counting_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    def counting_cmp(self, other):
        nonlocal placed
        placed += 1
        return cmp(self, other)

    def counting(name):
        op = getattr(Value, name)

        def counted(self, other):
            nonlocal compared
            compared += 1
            return op(self, other)

        return counted

    def counting_build(cls, state, rows, top):
        nonlocal builds
        builds += 1
        return build(state, rows, top)

    def counting_sign(vec, radicands):
        nonlocal exact
        exact += 1
        return int_vec_sign(vec, radicands)

    monkeypatch.setattr(Value, "__init__", counting_init)
    monkeypatch.setattr(Value, "_cmp", counting_cmp)
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Value, name, counting(name))
    monkeypatch.setattr(_ThresholdIndex, "build", classmethod(counting_build))
    # outputs too, should it call the exact routine directly again
    for module in (values, outputs):
        monkeypatch.setattr(module, "int_vec_sign", counting_sign, raising=False)

    def ask(threshold):
        nonlocal builds, built, exact, compared, placed
        builds = built = exact = compared = placed = 0
        gens = ideal_generators(st, threshold)
        sl = semigroup_values_up_to(st, threshold)
        assert gens.members and sl.values
        return st._thresholds

    # cold: one build, and one Value per distinct indexed value besides
    # the zero of the slices and a window end per row
    index = ask(sigma)
    assert builds == 1
    rows = len(index.rows)
    assert len(index.values) <= built <= len(index.values) + 1 + rows
    # below the top: no build, a Value for each window end and no other,
    # and one Value comparison per call, whether the index is stale; the
    # threshold and the window ends are placed on integers, with at most
    # a few indexed values whose enclosures overlap theirs compared
    # (Value._cmp beyond the comparisons), and the 64-bit enclosures
    # decide nearly every exact sign
    assert ask(below) is index
    assert builds == 0
    assert built == rows
    assert compared == 2
    assert placed - compared <= rows
    assert exact <= 20
    # above the top: one rebuild, topped at the new threshold
    rebuilt = ask(above)
    assert rebuilt is not index and rebuilt.top == above
    assert builds == 1


@pytest.mark.parametrize("radicands", [(1, 2), (1, 2, 5)])
def test_queries_reject_a_threshold_over_another_basis(
    second_state, radicands
):
    # a shorter basis would stall the walk, one of the same length would
    # judge signs under the wrong radicands, and a threshold at or below
    # zero must not slip through the sign shortcut; all must raise
    other = RadicalBasis(radicands)
    for text in ("-1", "0", "2 + sqrt(2)"):
        threshold = parse_value(text, other)
        with pytest.raises(ValueError):
            ideal_generators(second_state, threshold)
        with pytest.raises(ValueError):
            semigroup_values_up_to(second_state, threshold)


@pytest.mark.parametrize("bad", [5, 5.0, "5"], ids=["int", "float", "str"])
def test_a_threshold_that_is_no_value_is_refused(second_state, bad):
    # checked before its sign is read, where it would fail on a missing
    # attribute
    with pytest.raises(TypeError, match="^sigma must be a Value"):
        ideal_generators(second_state, bad)
    with pytest.raises(TypeError, match="^cap must be a Value"):
        semigroup_values_up_to(second_state, bad)


def test_a_value_slack_that_is_no_value_over_the_basis_is_refused(state):
    # members 1 (not eligible), 5 (certified) and 11 (vanished): each
    # target refuses it before it returns
    other = RadicalBasis((1, 2, 3)).rational(1)
    for target in (1, 5, 11):
        with pytest.raises(TypeError, match="^value_slack must be a Value"):
            redundancy_certificate(state, target, value_slack=5)
        with pytest.raises(ValueError, match="^value_slack carries"):
            redundancy_certificate(state, target, value_slack=other)
    with pytest.raises(TypeError, match="^value_slack must be a Value"):
        redundancy_survey(state, value_slack=5)
    with pytest.raises(ValueError, match="^value_slack carries"):
        redundancy_survey(state, value_slack=other)


def tower_state(seed):
    model, bounds, _, _ = parse_config(tower_config(seed), "tower")
    return build_state(model, bounds=bounds)


def index_thresholds(st, top, rng):
    """Positive thresholds up to about top: the exact semigroup values,
    each 1/64 off them both ways, and ten random combinations."""
    basis = st.basis
    gens = [val for _, _, val in oracles.chain_rows(st)]
    shift = basis.rational(Fraction(1, 64))
    out = []
    for v in oracles.sums_up_to(gens, top, basis.zero())[1:]:
        out += [v - shift, v, v + shift]
    for _ in range(10):
        while True:
            sigma = Value(
                basis,
                (rng.randrange(64 * 5),
                 *(rng.randrange(-64, 65) for _ in basis.radicands[1:])),
                64,
            )
            if sigma.sign() > 0 and sigma <= top:
                break
        out.append(sigma)
    return out


# "swapped" is the second model with the values of u2 and u3 exchanged:
# its rows 1, 1, sqrt(3), sqrt(2) leave the layout order below value 3
@pytest.mark.parametrize("which", ["second_state", "state", "swapped", 11, 31])
def test_index_answers_match_brute_force_in_any_order(request, which):
    if which == "swapped":
        st = build_state(make_second_model(("1", "sqrt(3)", "sqrt(2)")))
    elif isinstance(which, str):
        st = request.getfixturevalue(which)
    else:
        st = tower_state(which)
    basis = st.basis
    rng = random.Random(f"index-{which}")
    gens = [val for _, _, val in oracles.chain_rows(st)]
    slack = basis.rational(3)
    sigmas = index_thresholds(st, basis.rational(5), rng)
    box = oracles.vectors_up_to(st, max(sigmas) + slack)
    want = {}
    for sigma in sigmas:
        cap = sigma + slack
        reaching = [(v, val) for v, val in box if sigma <= val <= cap]
        want[sigma] = (
            set(oracles.minimal_vectors(reaching)),
            oracles.sums_up_to(gens, sigma, basis.zero()),
        )
    shuffled = rng.sample(sigmas, len(sigmas))
    orders = {
        "ascending": sorted(sigmas),
        "descending": sorted(sigmas, reverse=True),
        "shuffled": shuffled,
        "repeated": shuffled + shuffled[::-1],
    }
    lens = len(st.p_chain), len(st.t_chain)
    for name, seq in orders.items():
        one = fresh(st)
        for sigma in seq:
            members = ideal_generators(one, sigma).members
            cap = sigma + slack
            got = {v for v in members if one.value_of(v) <= cap}
            assert got == want[sigma][0], (name, sigma.exact_str())
            # by value, and by graded key among equal values; the key of the
            # exponents padded to full chain length orders as the key of
            # the counts over the rows, which leave out only zero rows
            keys = [
                (one.value_of(v), oracles.graded_key(padded(v, *lens)))
                for v in members
            ]
            assert all(a < b for a, b in zip(keys, keys[1:])), name
            sl = semigroup_values_up_to(one, sigma)
            assert list(sl.values) == want[sigma][1], (name, sigma.exact_str())


def test_equal_values_of_unequal_degree_come_in_graded_order():
    # in tower_config(8) t2 is worth 2*t1, so x^2*t2, y^3*t1 and x^2*t1^2
    # share the value 6*sqrt(2) - 2 with degrees 3, 4 and 4; the counts'
    # lexicographic order alone would put y^3*t1 first
    st = tower_state(8)
    sigma = parse_value("6*sqrt(2) - 2", st.basis)
    members = ideal_generators(st, sigma).members
    lens = len(st.p_chain), len(st.t_chain)
    keys = [
        (st.value_of(v), oracles.graded_key(padded(v, *lens))) for v in members
    ]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert [v for v in members if st.value_of(v) == sigma] == [
        PairVec((2,), (0, 1)),
        PairVec((0, 3), (1,)),
        PairVec((2,), (2,)),
    ]


def padded(vec, p_len, t_len):
    """The exponents of vec padded with zeros to the chains' lengths."""
    return [oracles.entry(vec, "p", j) for j in range(1, p_len + 1)] + [
        oracles.entry(vec, "t", j) for j in range(1, t_len + 1)
    ]


def test_a_grown_chain_replaces_the_index():
    model = parsed_example()[0]
    sigma = parse_value("2*sqrt(2) + 1", model.basis)
    st = build_p_chain(model)
    first = ideal_generators(st, sigma), semigroup_values_up_to(st, sigma)
    old = weakref.ref(st._thresholds)
    assert all(vec.t == () for vec in first[0].members)
    build_t_chain(st)
    again = ideal_generators(st, sigma), semigroup_values_up_to(st, sigma)
    built = build_state(model)
    assert again == (
        ideal_generators(built, sigma),
        semigroup_values_up_to(built, sigma),
    )
    assert again != first
    # one index per state: the first chain's is gone, not kept beside it
    gc.collect()
    assert old() is None
    assert st._thresholds.rows == st.coordinates(
        len(st.p_chain), len(st.t_chain)
    )


def test_truncated_chain_marks_incomplete():
    model = parsed_example()[0]
    basis = model.basis
    st = build_state(
        model,
        bounds=SearchBounds.for_basis(basis, max_t_index=3),
    )
    gens = ideal_generators(st, basis.rational(1))
    assert not gens.complete


# -- redundancy certificates -----------------------------------------------------


def test_certificate_statuses(survey):
    by_status = {}
    for j, cert in survey.items():
        by_status.setdefault(cert.status, []).append(j)
    assert by_status["not_eligible"] == [1, 2, 3, 4, 8]
    assert by_status["zero"] == [11, 12, 18, 19, 23, 24, 26]
    assert "undecided" not in by_status
    assert set(by_status["certified"]) == set(range(1, 27)) - {
        1, 2, 3, 4, 8, 11, 12, 18, 19, 23, 24, 26,
    }


BUILDS = pytest.mark.parametrize(
    "which",
    [
        ("state", "survey"),
        ("state_30", "survey_30"),
        ("tower_json", "tower_survey"),
    ],
    ids=["state", "state_30", "tower.json"],
)


@BUILDS
def test_certificates_reverify_as_identities(request, which):
    # each combination literally rebuilds the member polynomial
    state, survey = map(request.getfixturevalue, which)
    for j, cert in survey.items():
        if cert.status != "certified":
            continue
        rec = state.t_chain[j - 1]
        total = None
        for mu, vec in cert.combo:
            part = state.poly_of(vec).scale(mu)
            total = part if total is None else total + part
        assert total == rec.poly, f"member {j}"


@BUILDS
def test_certificate_combos_are_triangular(request, which):
    state, survey = map(request.getfixturevalue, which)
    for j, cert in survey.items():
        if cert.status != "certified":
            continue
        vecs = [vec for _, vec in cert.combo]
        assert len(set(vecs)) == len(vecs)
        values = [state.value_of(v) for v in vecs]
        assert len(set(values)) == len(values)
        assert min(values) == state.t_chain[j - 1].gamma
        for v in vecs:
            assert oracles.irreducible(state, v)
        for mu, _ in cert.combo:
            assert mu != 0


def test_single_certificates_match_survey(state, survey):
    assert redundancy_certificate(state, 5).status == "certified"
    assert redundancy_certificate(state, 5).combo == survey[5].combo
    assert redundancy_certificate(state, 11).status == "zero"
    assert redundancy_certificate(state, 3).status == "not_eligible"
    with pytest.raises(ValueError):
        redundancy_certificate(state, 99)


@pytest.mark.parametrize(
    "target, at_zero", [(3, "not_eligible"), (5, "undecided"), (11, "zero")]
)
def test_a_negative_degree_cap_is_refused(state, target, at_zero):
    # checked before the early returns for ineligible and vanished members
    with pytest.raises(ValueError, match="degree_cap"):
        redundancy_certificate(state, target, degree_cap=-1)
    assert redundancy_certificate(state, target, degree_cap=0).status == at_zero


@pytest.mark.parametrize(
    "name, bad",
    [("degree_cap", 2.5), ("degree_cap", True), ("target", True), ("target", 5.0)],
    ids=["cap-2.5", "cap-True", "target-True", "target-5.0"],
)
def test_a_target_or_cap_that_is_no_plain_int_is_refused(state, name, bad):
    # a bool is an int, but True is neither member 1 nor a cap of 1, and a
    # float would fail deep in the search or on a list index.  Checked
    # before the early returns for ineligible and vanished members.
    if name == "target":
        with pytest.raises(TypeError, match="^target must be an int"):
            redundancy_certificate(state, bad)
        return
    for target in (3, 5, 11):
        with pytest.raises(TypeError, match="^degree_cap must be an int"):
            redundancy_certificate(state, target, degree_cap=bad)
    with pytest.raises(TypeError, match="^degree_cap must be an int"):
        redundancy_survey(state, degree_cap=bad)


def test_a_negative_value_slack_is_refused(state):
    # it would leave every eligible member undecided; a zero slack is fine
    minus_one = state.basis.rational(-1)
    with pytest.raises(ValueError, match="^value_slack must be nonnegative"):
        redundancy_survey(state, value_slack=minus_one)
    for target in (3, 5, 11):
        with pytest.raises(ValueError, match="value_slack"):
            redundancy_certificate(state, target, value_slack=minus_one)
    zero = redundancy_certificate(state, 5, value_slack=state.basis.zero())
    assert zero.status == "undecided"


def test_a_rewrite_that_does_not_raise_the_value_is_refused(monkeypatch):
    # a doubled residue ratio leaves the remainder's initial term
    # uncancelled, so its value stays where it was, and without the check
    # the rewrite would step on forever
    st = build_example()
    ratio = ValuationModel.residue_ratio
    steps = []

    def doubled(model, f, g):
        steps.append(f)
        assert len(steps) < 100, "the rewrite never stopped"
        return 2 * ratio(model, f, g)

    monkeypatch.setattr(ValuationModel, "residue_ratio", doubled)
    with pytest.raises(
        InternalConsistencyError, match="rewrite failed to raise the value"
    ):
        redundancy_survey(st)


@pytest.fixture(scope="module")
def up_to_17(state):
    return oracles.vectors_up_to(state, state.basis.rational(17))


@pytest.mark.parametrize(
    "degree_cap, certified",
    [(40, [5, 6, 7, 10, 13, 14, 15, 20, 21]), (6, [5, 6, 7, 10, 13])],
    ids=["40", "6"],
)
def test_survey_picks_match_brute_force(
    state, up_to_17, degree_cap, certified
):
    ceiling = state.basis.rational(17)
    slack = 5 * state.p_chain[0].beta
    checked = []
    for j, rec in enumerate(state.t_chain, 1):
        if rec.gamma + slack >= ceiling:
            continue
        cert = redundancy_certificate(state, j, degree_cap=degree_cap)
        if cert.status != "certified":
            continue
        checked.append(j)
        for _, vec in cert.combo:
            val = state.value_of(vec)
            want = oracles.survey_pick(up_to_17, state, j, val, degree_cap)
            assert vec == want, f"member {j} at {val}"
    assert checked == certified


def test_survey_picks_the_reverse_lex_least_monomial(tower_json, tower_survey):
    # member 17 of tests/tower.json shares its value with the pending
    # member 23 and with t2*t3.  The graded-least monomial of that value
    # is t23, of weight 1; the survey takes the reverse-lex least, the
    # order of the creating rewrites, which is t2*t3.
    st = tower_json
    val = st.t_chain[16].gamma
    t2_t3 = PairVec((), (0, 1, 1))
    t23 = PairVec((), (0,) * 22 + (1,))
    assert st.value_of(t2_t3) == st.value_of(t23) == val
    pairs = oracles.vectors_up_to(st, val)
    assert oracles.survey_pick(pairs, st, 17, val, 40) == t2_t3
    assert tower_survey[17].combo == ((Fraction(-1), t2_t3),)


@pytest.mark.parametrize("which", ["state", "state_30"])
def test_survey_cut_keeps_exactly_the_filtered_solutions(
    request, which, monkeypatch
):
    # every pick the survey makes is the reverse-lex least solution of its
    # value over the rows that passes the filters: the target's own row
    # unused, the degree cap, and no relation lead of the records
    # (oracles.relation_leads) dominated.  (The second model's survey
    # makes no pick: its one second-chain member is not eligible.)
    st = request.getfixturevalue(which)
    rows = st.coordinates(len(st.p_chain), len(st.t_chain))
    degs = [
        (st.p_chain if kind == "p" else st.t_chain)[idx - 1].poly.total_degree()
        for kind, idx, _ in rows
    ]
    relation = oracles.on_rows(oracles.relation_leads(st), rows)
    contains = SemigroupSolver.contains
    picks = []

    def recording(self, alpha, *cut):
        got = contains(self, alpha, *cut)
        if len(cut) == 3:
            picks.append((self, alpha, got))
        return got

    monkeypatch.setattr(SemigroupSolver, "contains", recording)
    checked = kept = 0
    for cap in (40, 6):
        for j, rec in enumerate(st.t_chain, 1):
            picks.clear()
            if redundancy_certificate(st, j, degree_cap=cap).status == "zero":
                continue
            own = rows.index(("t", j, rec.gamma))
            leads = [tuple(int(k == own) for k in range(len(rows))), *relation]
            for solver, alpha, got in picks:
                assert solver.gens == tuple(val for *_, val in rows)
                want = oracles.least_solution(alpha, solver.gens, leads, degs, cap)
                assert got == want, (j, cap, alpha)
                checked += 1
                kept += want is not None
    assert checked >= 40 and kept >= 30


@pytest.mark.parametrize("which", ["state", "state_30", "tower_json"])
def test_eligibility_matches_the_semigroup_below_the_member(request, which):
    # a member is eligible exactly when its value lies in the semigroup of
    # coordinates(m_at(j), j - 1), asked of a solver over those rows alone
    st = request.getfixturevalue(which)
    for j, rec in enumerate(st.t_chain, 1):
        if rec.poly.is_zero():
            continue
        rows = st.coordinates(st.m_at(j), j - 1)
        below = SemigroupSolver([val for *_, val in rows])
        status = redundancy_certificate(st, j, degree_cap=0).status
        assert (status == "not_eligible") == (below.contains(rec.gamma) is None)


def test_survey_reads_the_builds_full_chain_solver(monkeypatch):
    # each chain search asks the solver of its own rows: a member's
    # eligibility goes to the solver of coordinates(m_at(j), j - 1) with
    # no leads, its picks to the full-chain solver with the member's own
    # unit lead first, and a D search at i to the solver of
    # coordinates(m, i - 1), its cover one entry per generator and zero on
    # the row of every skipped member
    searches = []
    search = jumpseq.minimal_pushing_set

    def recording_search(step, solver, cover, *caps):
        searches.append((solver, cover))
        return search(step, solver, cover, *caps)

    asked = []
    contains = SemigroupSolver.contains

    def recording(self, alpha, *cut):
        asked.append((self, cut))
        return contains(self, alpha, *cut)

    monkeypatch.setattr(jumpseq, "minimal_pushing_set", recording_search)
    model, bounds, _, _ = load_config(str(TOWER))
    for build in (build_example, lambda: build_state(model, bounds=bounds)):
        del searches[:]
        st = build()
        ran = [
            rec for rec in st.t_chain
            if rec.status == "ok" and rec.s is not None and not rec.gamma.is_zero()
        ]
        assert len(searches) == len(ran)
        for rec, (solver, cover) in zip(ran, searches):
            rows = st.coordinates(rec.m, rec.index - 1)
            assert solver is st.semigroup_solver(rec.m, rec.index - 1)
            assert all(len(box) == solver.count == len(rows) for box in cover)
            for k, (kind, idx, _) in enumerate(rows):
                if kind == "t" and st.t_chain[idx - 1].status == "skipped":
                    assert all(box[k] == 0 for box in cover)
        with monkeypatch.context() as patch:
            patch.setattr(SemigroupSolver, "contains", recording)
            for j, rec in enumerate(st.t_chain, 1):
                del asked[:]
                status = redundancy_certificate(st, j).status
                if status == "zero":
                    assert asked == []
                    continue
                (first, cut), *picks = asked
                assert first is st.semigroup_solver(st.m_at(j), j - 1)
                assert cut == ()
                assert (status == "not_eligible") == (picks == [])
                rows = st.coordinates(len(st.p_chain), len(st.t_chain))
                own = tuple(int(row[:2] == ("t", j)) for row in rows)
                full = st.semigroup_solver(len(st.p_chain), len(st.t_chain))
                for solver, (leads, *_) in picks:
                    assert solver is full and leads[0] == own


def test_tower_survey_search_stays_small():
    # build and survey of tests/tower.json visit 10,929 search nodes.  A
    # survey that enumerated every solution for a graded-least pick
    # visited 24,693; one that asked every eligibility of the full-chain
    # solver, cut by a unit lead on each row above the member, visited
    # 12,882.
    model, bounds, _, _ = load_config(str(TOWER))
    st = build_state(model, bounds=bounds)
    redundancy_survey(st)
    assert sum(s.nodes for s in st._solvers.values()) <= 10_929


def test_tight_window_reports_undecided(state):
    # a slack of zero leaves no room above the member's own value
    cert = redundancy_certificate(state, 5, value_slack=state.basis.zero())
    assert cert.status == "undecided"


def test_default_window_is_an_absolute_slack():
    # the worked example with every value scaled by 20, so beta_1 = 20: the
    # default window reaches 5 above a member's value, not 5 * beta_1
    model, bounds, _, _ = parsed_example(max_value="400")
    scaled = with_values(model, ["20", "20*sqrt(2)", "20*sqrt(51) - 100"])
    st = build_state(scaled, bounds=bounds)
    assert st.p_chain[0].beta == st.basis.rational(20)
    default = redundancy_survey(st)
    assert default == redundancy_survey(
        st, value_slack=st.basis.rational(DEFAULT_VALUE_SLACK)
    )
    wide = redundancy_survey(st, value_slack=5 * st.p_chain[0].beta)
    moved = {
        j: (default[j].status, wide[j].status)
        for j in default
        if default[j] != wide[j]
    }
    assert moved == {j: ("undecided", "certified") for j in (9, 16, 17)}


# -- the trimmed sequence --------------------------------------------------------


def test_sequence_detail(state, detail):
    assert detail.kept_p == (1, 2)
    assert detail.kept_t == (1, 2, 3, 4, 8)
    assert detail.certified
    polys = detail.polynomials(state)
    assert len(polys) == 7
    assert [p.text() for p in polys] == list(GOLDEN["minimal_polys"])


def test_detail_reuses_a_provided_survey(state, survey, detail):
    again = generating_sequence_detail(state, survey)
    assert again == detail


def test_second_state_sequence(second_state):
    det = generating_sequence_detail(
        second_state, redundancy_survey(second_state)
    )
    assert det.kept_p == (1, 2, 3)
    assert det.kept_t == (1,)
    # the two equal first-chain values make the kept set provably
    # non-minimal, so certification must refuse
    assert not det.certified


# -- graded ring relations -------------------------------------------------------


def test_relations_on_example(state):
    rels = gr_presentation(state)
    assert len(rels) == 25
    created = {r.parent[1] for r in state.t_chain if r.parent is not None}
    assert {r.lhs for r in rels} == created
    for rel in rels:
        assert state.value_of(rel.lhs) == state.value_of(rel.rhs)
        assert rel.scalar != 0


def test_relations_hold_between_initial_forms(state):
    for rel in gr_presentation(state):
        lhs = state.model.initial_term(state.poly_of(rel.lhs))
        rhs = state.model.initial_term(state.poly_of(rel.rhs))
        assert lhs == rhs.scale(rel.scalar)


def test_relations_on_second_state(second_state):
    rels = gr_presentation(second_state)
    assert len(rels) == 1
    rel = rels[0]
    assert rel.lhs == PairVec((0, 1), ())
    assert rel.rhs == PairVec((1,), ())
    assert rel.scalar == Fraction(1)


# -- semigroup slices ------------------------------------------------------------


def test_semigroup_slice_known(state):
    sl = semigroup_values_up_to(state, state.basis.rational(2))
    assert [v.exact_str() for v in sl.values] == [
        "0",
        "1",
        "sqrt(2)",
        "2*sqrt(2) - 1",
        "2",
    ]
    assert sl.complete


def test_semigroup_slice_matches_brute_force(state):
    cap = state.basis.rational(4)
    sl = semigroup_values_up_to(state, cap)
    gens = [val for _, _, val in oracles.chain_rows(state)]
    assert list(sl.values) == oracles.sums_up_to(
        gens, cap, state.basis.zero()
    )


def test_semigroup_slice_negative_cap(state):
    sl = semigroup_values_up_to(state, state.basis.rational(-1))
    assert sl.values == ()
