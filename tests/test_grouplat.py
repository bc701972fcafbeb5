import copy
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from itertools import combinations, product
from operator import ge, le, mul
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valgen import (
    InternalConsistencyError,
    NotInSemigroupError,
    PairVec,
    RadicalBasis,
    Value,
    build_state,
    grouplat,
    parse_value,
)
from valgen.grouplat import (
    SemigroupSolver,
    _cofactor_normal,
    _det,
    _split,
    column_echelon,
    graded_sorted,
    irreducible_decompose,
    lattice_solve,
    min_multiple_in_group,
    minimal_pushing_set,
    minimal_semigroup_generators,
    permissible_decompose,
    staircase,
)
from valgen.jumpseq import vec_over
from valgen.cli import load_config, parse_config
from valgen.values import combination

import oracles
from conftest import build_example, rebound
from corpus import first_chain_config, tower_config

TOWER = Path(__file__).with_name("tower.json")
B1 = RadicalBasis((1,))
B2 = RadicalBasis((1, 2))
B3 = RadicalBasis((1, 2, 51))
# integer coordinates over (1, sqrt(2), sqrt(51)) of second-chain values of
# the worked example; most have a negative rational part
CHAIN_SHAPED = [
    (-15, 0, 6),
    (-5, 0, 2),
    (-2, 0, 1),
    (-3, 1, 1),
    (-4, 3, 1),
    (-6, 9, 0),
    (-4, 5, 0),
    (-1, 2, 0),
    (0, 1, 0),
    (1, 0, 0),
]


# -- vectors -----------------------------------------------------------------


def test_pairvec_normalization():
    v = PairVec((1, 0, 0), (2, 0))
    assert v.p == (1,) and v.t == (2,)
    assert v == PairVec((1,), (2, 0, 0, 0))
    assert str(v) == "(1|2)"
    with pytest.raises(ValueError):
        PairVec((-1,), ())
    # no silent int(): (True, 2.7) would print as (1,2|)
    with pytest.raises(TypeError):
        PairVec((True, 2.7), ())
    with pytest.raises(TypeError):
        PairVec((), (1.0,))


def test_pairvec_domination():
    # the tests' reference for domination, padding the shorter vector
    big = PairVec((2, 1), (1,))
    assert oracles.dominates(big, PairVec((2,), (1,)))
    assert oracles.dominates(big, big)
    assert not oracles.dominates(big, PairVec((3,), ()))
    assert not oracles.dominates(PairVec((2,), ()), big)
    assert oracles.dominates(big, PairVec((), ()))
    assert not oracles.dominates(big, PairVec((), (0, 1)))


def test_graded_key_orders_by_weight_then_lex():
    # count vectors over the rows p1, p2, t1, in the tests' reference key
    # and in graded_sorted
    vecs = [(0, 2, 0), (1, 0, 1), (3, 0, 0), (0, 0, 1)]
    order = [(0, 0, 1), (0, 2, 0), (1, 0, 1), (3, 0, 0)]
    assert sorted(vecs, key=oracles.graded_key) == order
    assert graded_sorted(vecs) == order


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), unique=True))
def test_graded_sorted_is_sorted_by_graded_key(vecs):
    want = sorted(vecs, key=oracles.graded_key)
    assert graded_sorted(vecs) == want
    assert graded_sorted(dict.fromkeys(reversed(vecs))) == want


# -- integer matrices ----------------------------------------------------------


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(
                st.integers(min_value=-9, max_value=9),
                min_size=c,
                max_size=c,
            ),
            min_size=r,
            max_size=r,
        )
    )
)


def leading_rows(h, cols):
    """The first nonzero row of each column, None for a zero column."""
    return [
        next((i for i, row in enumerate(h) if row[j]), None)
        for j in range(cols)
    ]


@given(small_matrices)
def test_column_echelon_properties(a):
    rows, cols = len(a), len(a[0])
    h, v, rank = column_echelon(a)
    assert mat_mul(a, v) == h
    assert abs(det(v)) == 1
    lead = leading_rows(h, cols)
    # the first rank columns lead on strictly increasing rows, the rest
    # are zero
    assert None not in lead[:rank]
    assert lead[:rank] == sorted(set(lead[:rank]))
    assert lead[rank:] == [None] * (cols - rank)
    assert rank <= min(rows, cols)


def test_column_echelon_known():
    h, v, rank = column_echelon([[2, 4], [6, 8]])
    assert rank == 2
    assert h[0][1] == 0 and abs(h[0][0]) == 2
    assert abs(h[0][0] * h[1][1]) == 8  # |det| of the matrix
    assert column_echelon([[0, 0], [0, 0]])[2] == 0
    assert column_echelon([[1, 2, 3], [2, 4, 6]])[2] == 1
    assert column_echelon([[0, 3], [5, 0], [1, 1]])[2] == 2
    h, v, rank = column_echelon([[0, 0, 4, 6]])
    assert rank == 1 and abs(h[0][0]) == 2 and h[0][1:] == [0, 0, 0]
    assert column_echelon([[], []]) == ([[], []], [], 0)
    with pytest.raises(ValueError):
        column_echelon([[1, 2], [3]])


# -- group membership ----------------------------------------------------------


def test_min_multiple_in_group():
    one = B2.rational(1)
    r2 = B2.root(2)
    assert min_multiple_in_group(parse_value("5*sqrt(2) - 4", B2), [one, r2]) == 1
    assert min_multiple_in_group(r2 * Fraction(3, 2), [r2]) == 2
    assert min_multiple_in_group(B2.rational(Fraction(1, 3)), [one]) == 3
    assert min_multiple_in_group(one, [one, r2]) == 1
    assert min_multiple_in_group(r2, [one]) is None
    assert min_multiple_in_group(B2.zero(), []) == 1
    assert min_multiple_in_group(one, []) is None
    assert min_multiple_in_group(r2 * 7, [one, r2]) == 1


@given(
    st.lists(
        st.integers(min_value=-6, max_value=6), min_size=2, max_size=2
    ),
    st.integers(min_value=1, max_value=5),
)
def test_min_multiple_is_minimal(coeffs, scale):
    # alpha = (a*g1 + b*g2)/scale lies in the group after multiplying by
    # a divisor of scale; the reported multiple must be the least one
    gens = [B2.rational(1), B2.root(2)]
    alpha = combination(coeffs, gens, B2) * Fraction(1, scale)
    q = min_multiple_in_group(alpha, gens)
    assert q is not None and 1 <= q <= scale
    assert lattice_solve(alpha * q, gens) is not None
    for smaller in range(1, q):
        assert lattice_solve(alpha * smaller, gens) is None


def test_lattice_solve():
    gens = [B2.rational(2), B2.rational(3), B2.root(2)]
    alpha = B2.rational(1) + B2.root(2) * 4
    x = lattice_solve(alpha, gens)
    assert x is not None
    assert combination(x, gens, B2) == alpha
    assert lattice_solve(B2.root(2) * Fraction(1, 2), gens) is None
    assert lattice_solve(B2.zero(), []) == ()
    assert lattice_solve(B2.rational(1), []) is None


B23 = RadicalBasis((1, 2, 3))
small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
steps = st.fractions(
    min_value=Fraction(1, 4), max_value=4, max_denominator=4
)


@given(
    steps,
    steps,
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=4
    ),
    st.integers(min_value=0, max_value=4),
    small_fractions,
    small_fractions,
    st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-3)]),
)
def test_group_questions_match_a_known_lattice(d1, d2, combos, at, a1, a2, a3):
    # every generator is an integer combination of d1 and d2*sqrt(2), and
    # both are among them, so the group is d1*Z + d2*sqrt(2)*Z: a value
    # a1 + a2*sqrt(2) lies in it exactly when d1 | a1 and d2 | a2, and any
    # sqrt(3) part puts it off the rational span
    e1, e2 = B23.rational(d1), B23.root(2) * d2
    gens = [combination(uv, (e1, e2), B23) for uv in combos]
    gens.insert(min(at, len(gens)), e1)
    gens.insert(min(at + 1, len(gens)), e2)
    alpha = B23.rational(a1) + B23.root(2) * a2 + B23.root(3) * a3
    if a3:
        want = None
    else:
        want = lcm((a1 / d1).denominator, (a2 / d2).denominator)
    assert min_multiple_in_group(alpha, gens) == want
    x = lattice_solve(alpha, gens)
    assert (x is not None) == (want == 1)
    if x is not None:
        assert combination(x, gens, B23) == alpha


# -- semigroup membership -------------------------------------------------------


# small generators over (1, sqrt(2)), one with a denominator
SMALL_POOL = [
    B2.rational(2),
    B2.rational(3),
    B2.rational(5),
    B2.root(2),
    B2.root(2) * 2 - B2.rational(1),
    B2.rational(4) - B2.root(2),
    B2.root(2) * Fraction(1, 2) + B2.rational(1),
]


def naive_contains(target, gens):
    return oracles.naive_semigroup_member(target, gens)


def test_semigroup_solver_known_cases():
    gens = [B2.rational(4), B2.rational(5)]
    sol = SemigroupSolver(gens)
    assert sol.contains(B2.rational(11)) is None  # Frobenius gap of <4,5>
    got = sol.contains(B2.rational(13))
    assert got is not None and combination(got, gens, B2) == B2.rational(13)

    mixed = [B2.root(2), B2.rational(3) - B2.root(2)]
    sol2 = SemigroupSolver(mixed)
    assert sol2.contains(B2.rational(3)) == (1, 1)
    assert sol2.contains(B2.rational(1) + B2.root(2)) is None
    assert sol2.contains(B2.zero()) == (0, 0)


def test_semigroup_solver_rejects_finer_denominators():
    half = B2.rational(Fraction(1, 2))
    sol = SemigroupSolver([half, B2.root(2)])
    assert sol.contains(B2.rational(Fraction(1, 3))) is None
    assert sol.contains(B2.rational(Fraction(3, 2))) == (3, 0)
    assert sol.contains(B2.root(2, Fraction(1, 2))) is None


def test_semigroup_solver_counts_follow_input_order():
    gens = [B2.rational(5), B2.rational(3), B2.root(2)]
    target = B2.rational(11) + B2.root(2) * 2
    got = SemigroupSolver(gens).contains(target)
    assert got is not None
    assert combination(got, gens, B2) == target


def test_semigroup_solver_against_oracle():
    rng = random.Random(20260819)
    for _ in range(120):
        gens = rng.sample(SMALL_POOL, rng.randint(1, 4))
        if rng.random() < 0.6:
            target = combination(
                [rng.randint(0, 3) for _ in gens], gens, B2
            )
        else:
            target = B2.rational(rng.randint(0, 9)) + B2.root(
                2, Fraction(rng.randint(-4, 8), 2)
            )
            if target.sign() < 0:
                target = -target
        got = SemigroupSolver(gens).contains(target)
        if got is None:
            assert not naive_contains(target, gens)
        else:
            assert combination(got, gens, B2) == target


def check_against_oracle(rng, pool, random_target, cap, rounds):
    basis = cap.basis
    hits = misses = 0
    for _ in range(rounds):
        gens = rng.sample(pool, rng.randint(1, min(5, len(pool))))
        if rng.random() < 0.5:
            counts = [rng.randint(0, 2) for _ in gens]
            target = combination(counts, gens, basis)
        else:
            target = random_target()
        if target.sign() < 0 or target > cap:
            continue
        solver = SemigroupSolver(gens)
        got = solver.contains(target)
        if got is None:
            assert not naive_contains(target, gens)
            misses += 1
        else:
            assert combination(got, gens, basis) == target
            hits += 1
        # the witness is the reverse-lex least of every solution
        every = oracles.naive_solutions(target, gens)
        assert got == least(every)
    assert hits >= rounds // 10 and misses >= rounds // 10


def test_semigroup_solver_against_oracle_in_dim_1():
    rng = random.Random(1)
    pool = [
        B1.rational(q) for q in (4, 5, 9, Fraction(7, 2), Fraction(3, 2), 6)
    ]

    def target():
        return B1.rational(Fraction(rng.randint(0, 60), 2))

    check_against_oracle(rng, pool, target, B1.rational(30), 300)


def test_semigroup_solver_against_oracle_in_dim_3():
    rng = random.Random(3)
    pool = [Value(B3, v, 1) for v in CHAIN_SHAPED]

    def target():
        return Value(
            B3, (rng.randint(-12, 12), rng.randint(-4, 8), rng.randint(0, 2)), 1
        )

    check_against_oracle(rng, pool, target, B3.rational(24), 300)


def dominates_none(counts, leads):
    return not any(all(map(int.__ge__, counts, lead)) for lead in leads)


def least(solutions):
    """The reverse-lex least count vector (read from the last entry
    back), or None: contains' choice among solutions."""
    return min(solutions, key=lambda c: c[::-1], default=None)


def filtered(solutions, leads, degrees, cap):
    """The solutions that dominate no lead and stay within the cap."""
    return [
        counts
        for counts in solutions
        if dominates_none(counts, leads)
        and (cap is None or sum(map(mul, counts, degrees)) <= cap)
    ]


def chain_gens(which, second_state):
    """Generators for the cut tests: chain-shaped values of the worked
    example, or the full chain of the second model."""
    if which == "chain-shaped":
        return [Value(B3, v, 1) for v in CHAIN_SHAPED[:5]]
    rows = second_state.coordinates(
        len(second_state.p_chain), len(second_state.t_chain)
    )
    return [val for *_, val in rows]


@pytest.mark.parametrize("which", ["chain-shaped", "second"])
@given(data=st.data())
def test_cut_search_keeps_exactly_the_filtered_solutions(
    which, second_state, data
):
    gens = chain_gens(which, second_state)
    n = len(gens)
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    leads = data.draw(st.lists(row.filter(any), max_size=4), "leads")
    degrees = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cap = data.draw(st.none() | st.integers(0, 12), "cap")
    target = combination(data.draw(row, "target counts"), gens, gens[0].basis)
    every = oracles.naive_solutions(target, gens)
    solver = SemigroupSolver(gens)
    want = least(filtered(every, leads, degrees, cap))
    assert solver.contains(target, leads, degrees, cap) == want
    # the same solver, after a cut search, answers as a fresh one
    assert solver.contains(target) == least(every)


@pytest.mark.parametrize("which", ["chain-shaped", "second"])
def test_cut_searches_leave_later_answers_alone(which, second_state):
    # cuts that leave nothing: every unit vector a lead, or a zero degree
    # cap.  Each subtree then fails only because it was cut, and contains
    # must still answer as a fresh solver does.
    gens = chain_gens(which, second_state)
    n = len(gens)
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    targets = [
        combination(c, gens, gens[0].basis)
        for c in product(range(3), repeat=n)
        if any(c)
    ]
    for cut in ((units, (), None), ((), (1,) * n, 0)):
        solver = SemigroupSolver(gens)
        for target in targets:
            assert solver.contains(target, *cut) is None
        fresh = SemigroupSolver(gens)
        for target in targets:
            got = solver.contains(target)
            assert got is not None and got == fresh.contains(target)


def test_cut_search_refuses_negative_degrees():
    # a negative degree would make the degree cap no down-set
    gens = [B1.rational(2), B1.rational(3)]
    for degrees, cap in (((1, -1), 4), ((1, 1), -1)):
        with pytest.raises(ValueError):
            SemigroupSolver(gens).contains(B1.rational(6), (), degrees, cap)


def test_contains_refuses_malformed_leads_and_degrees():
    # every lead and the degrees need one entry per generator, and a lead
    # must be a nonzero count vector
    solver = SemigroupSolver([B1.rational(2), B1.rational(3)])
    for cut, needle in (
        (([(1, 0, 1)],), "one count per generator"),
        (([(0, 0)],), "nonzero and nonnegative"),
        (([(2, -1)],), "nonzero and nonnegative"),
        (((), (1,), 4), "one entry per generator"),
        (((), (), 4), "one entry per generator"),
    ):
        with pytest.raises(ValueError, match=needle):
            solver.contains(B1.rational(6), *cut)


@pytest.mark.parametrize(
    "name, cut",
    [
        ("cap", ((), (1, 1), True)),
        ("cap", ((), (1, 1), 2.5)),
        ("degrees", ((), (1.5, 1), 4)),
        ("degrees", ((), (1, True), 4)),
        ("leads", ([(True, 0)],)),
        ("leads", ([(1.5, 0)],)),
    ],
    ids=["cap-True", "cap-2.5", "degrees-1.5", "degrees-True", "lead-True", "lead-1.5"],
)
def test_contains_refuses_counts_that_are_no_plain_ints(name, cut):
    # a bool is an int, but True is no cap or count of 1, and a float
    # would fail inside the search's range
    solver = SemigroupSolver([B2.rational(1), B2.root(2)])
    alpha = B2.rational(3) + B2.root(2)
    with pytest.raises(TypeError, match=name):
        solver.contains(alpha, *cut)


@given(data=st.data())
def test_contains_answers_the_reverse_lex_least_filtered_solution(data):
    # with and without leads and a degree cap: the reverse-lex least of
    # the brute-force solutions the cut lets through, and without a cut
    # the least of all solutions
    gens = data.draw(
        st.lists(st.sampled_from(SMALL_POOL), min_size=1, max_size=4, unique=True),
        "gens",
    )
    n = len(gens)
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    leads = data.draw(st.lists(row.filter(any), max_size=3), "leads")
    degrees = data.draw(row, "degrees")
    cap = data.draw(st.none() | st.integers(0, 8), "cap")
    target = combination(data.draw(row, "target counts"), gens, B2)
    if data.draw(st.booleans(), "shifted"):
        target = target + B2.rational(Fraction(1, 2))
    every = oracles.naive_solutions(target, gens)
    solver = SemigroupSolver(gens)
    want = least(filtered(every, leads, degrees, cap))
    assert solver.contains(target, leads, degrees, cap) == want
    assert solver.contains(target) == least(every)
    # the survey tests' oracle for the same answer
    assert oracles.least_solution(target, gens, leads, degrees, cap) == want


def dot(h, g):
    return sum(a * b for a, b in zip(h, g))


def in_real_cone(p, gens):
    """Caratheodory: p is a nonnegative combination of independent gens."""
    if not any(p):
        return True
    dim = len(p)
    for k in range(1, dim + 1):
        for sub in combinations(gens, k):
            for rows in combinations(range(dim), k):
                m = [[g[r] for g in sub] for r in rows]
                d = det(m)
                if not d:
                    continue
                # Cramer's rule on the chosen rows
                rhs = [p[r] for r in rows]
                c = []
                for i in range(k):
                    mi = [row[:i] + [b] + row[i + 1 :] for row, b in zip(m, rhs)]
                    c.append(Fraction(det(mi), d))
                if min(c) >= 0 and all(
                    sum(x * g[r] for x, g in zip(c, sub)) == p[r]
                    for r in range(dim)
                ):
                    return True
                break
    return False


def test_cone_normals_hold_on_their_suffix(state_30):
    solvers = list(state_30._solvers.values()) + [
        SemigroupSolver([B1.rational(3), B1.rational(Fraction(5, 2))]),
        SemigroupSolver([B2.root(2), B2.rational(3) - B2.root(2)]),
        SemigroupSolver([Value(B3, v, 1) for v in CHAIN_SHAPED]),
    ]
    for sol in solvers:
        assert len(sol.normals) == sol.count + 1
        for j, normals in enumerate(sol.normals):
            assert normals
            for h in normals:
                assert all(dot(h, g) >= 0 for g in sol.gvecs[j:])
        # the empty suffix's cone is the origin
        dim = sol.dim
        units = {tuple(int(r == c) for c in range(dim)) for r in range(dim)}
        negated = {tuple(-x for x in u) for u in units}
        assert set(sol.normals[-1]) == units | negated


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
)
def test_cofactor_normal_matches_cofactor_expansion(vecs):
    # dim - 1 vectors in dimension dim; small entries make dependent sets
    # common.  Dimension 3 takes the cross product, the rest expand _det.
    vecs = [tuple(v) for v in vecs]
    dim = len(vecs) + 1
    h = [
        (-1) ** c * _det([v[:c] + v[c + 1:] for v in vecs])
        for c in range(dim)
    ]
    g = gcd(*h)
    want = tuple(x // g for x in h) if g else None
    assert _cofactor_normal(vecs, dim) == want


@pytest.mark.parametrize(
    "vecs",
    [
        CHAIN_SHAPED[3:],
        [(-6, 9, 0), (-1, 2, 0), (1, 0, 0)],  # a flat cone
        [(-4, 3, 1)],  # a ray
    ],
)
def test_cone_normals_cut_out_the_suffix_cone(vecs):
    sol = SemigroupSolver([Value(B3, v, 1) for v in vecs])
    steps = list(product((-1, 0, 1), repeat=3))
    near = [tuple(a + b for a, b in zip(g, e)) for g in vecs for e in steps]
    points = set(product(range(-2, 3), repeat=3)) | set(near)
    for j in range(sol.count + 1):
        for p in points:
            inside = all(dot(h, p) >= 0 for h in sol.normals[j])
            assert inside == in_real_cone(p, sol.gvecs[j:]), (j, p)


def defined_normals(vecs, dim):
    """The cone normals of the prefix vecs by their definition: each sign
    of the cofactor normal of every independent (dim-1)-subset of the unit
    vectors and vecs that is >= 0 on all of vecs."""
    units = [tuple(int(r == c) for c in range(dim)) for r in range(dim)]
    out = set()
    for sub in combinations(units + list(vecs), dim - 1):
        h = _cofactor_normal(sub, dim)
        for cand in (h, tuple(-x for x in h)) if h else ():
            if all(dot(cand, x) >= 0 for x in vecs):
                out.add(cand)
    return out


def normal_sets(solver):
    return [set(normals) for normals in solver.normals]


# positive values over B1, B2 and B3 with denominators up to 3, so that a
# grown solver's scale differs from its prefix's
POSITIVE = {
    basis: st.builds(
        Value,
        st.just(basis),
        st.tuples(*[st.integers(-4, 4)] * basis.dim),
        st.integers(1, 3),
    ).filter(lambda v: v.sign() > 0)
    for basis in (B1, B2, B3)
}


@given(data=st.data(), basis=st.sampled_from([B1, B2, B3]))
def test_grown_solvers_equal_fresh_ones(data, basis):
    gens = data.draw(st.lists(POSITIVE[basis], min_size=1, max_size=5), "gens")
    n = len(gens)
    k = data.draw(st.integers(0, n - 1), "prefix length")
    prefix = SemigroupSolver(gens[:k]) if k else None
    grown = SemigroupSolver(gens, prefix)
    fresh = SemigroupSolver(gens)
    assert normal_sets(grown) == normal_sets(fresh)
    for j in range(n + 1):
        assert set(grown.normals[j]) == defined_normals(grown.gvecs[j:], basis.dim)
    # the same answers from the same search, with and without a cut
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    leads = data.draw(st.lists(row.filter(any), max_size=2), "leads")
    degrees = data.draw(row, "degrees")
    cap = data.draw(st.none() | st.integers(0, 6), "cap")
    for _ in range(3):
        target = combination(data.draw(row, "target counts"), gens, basis)
        target = target - basis.rational(data.draw(st.sampled_from([0, 0, 1])))
        for cut in ((), (leads, degrees, cap)):
            assert grown.contains(target, *cut) == fresh.contains(target, *cut)
            assert grown.nodes == fresh.nodes


@pytest.mark.parametrize("fixture", ["state", "tower_json"])
def test_a_builds_solvers_equal_fresh_ones(fixture, request):
    # every solver of a build but its first is grown from a shorter one
    built = request.getfixturevalue(fixture)
    for solver in built._solvers.values():
        assert normal_sets(solver) == normal_sets(SemigroupSolver(solver.gens))


def test_a_solver_that_is_no_proper_prefix_is_not_grown_from():
    a, b, c, d = (Value(B3, v, 1) for v in CHAIN_SHAPED[-4:])
    for other in ((a, c), (b,), (a, b, c), (a, b, c, d)):
        solver = SemigroupSolver((a, b, c), SemigroupSolver(other))
        assert normal_sets(solver) == normal_sets(SemigroupSolver((a, b, c)))


def test_semigroup_solver_finds_deep_witnesses(state_30):
    # a face corner from the search at position 31: a hit far out in the
    # semigroup of 25 generators, found within a small node budget
    sol = state_30.semigroup_solver(2, 30)
    assert sol.count == 25
    gens = [val for *_, val in state_30.coordinates(2, 30)]
    target = parse_value("3442*sqrt(2) + 289*sqrt(51) - 3139", state_30.basis)
    before = sol.nodes
    got = sol.contains(target)
    assert got is not None
    assert combination(got, gens, state_30.basis) == target
    assert sol.nodes - before <= 1000


def test_example_build_search_stays_small():
    # a fresh build makes 253 queries and 1,291 search nodes: 228
    # membership queries and the 25 creating rewrites, which ask contains
    # with their leads.  The numbers are pinned, not bounded: a count that
    # moves means the search changed.  Without the member memo or the zero
    # probe of minimal_pushing_set the build makes more.
    solvers = build_example()._solvers.values()
    assert sum(s.queries for s in solvers) == 253
    assert sum(s.nodes for s in solvers) == 1_291


def test_heavy_build_grows_its_search_set_up(monkeypatch):
    # the worked example at the ceiling 113/4 builds 23 solvers, all but
    # the first grown from a solver over a prefix of their generators, and
    # runs 23 D searches, all but the first splitting the last one's
    # staircase by their new leads only.  Made from nothing, the normals
    # of every solver take 3,554 cross products and the staircases and
    # minima 434 splits.  The numbers are pinned, not bounded.
    calls = Counter()

    def counting(name):
        count = getattr(grouplat, name)

        def counted(*args):
            calls[name] += 1
            return count(*args)

        return counted

    for name in ("_cofactor_normal", "_split"):
        monkeypatch.setattr(grouplat, name, counting(name))
    built = build_example("113/4")
    assert len(built._solvers) == 23
    assert calls == {"_cofactor_normal": 375, "_split": 61}


def test_pushing_set_gives_skipped_positions_no_coordinate(state, monkeypatch):
    # No bundled model shows the unit lead: where a value ceiling skips a
    # member, no later D set would have used it.  So member 1 of the worked
    # example is marked skipped by hand, as the ceiling would mark it.
    rec = state.t_chain[3]
    with_t1 = (PairVec((), (2, 0, 0, 1)), PairVec((), (1, 0, 0, 3)))
    assert set(with_t1) <= set(rec.D.members)
    monkeypatch.setattr(state.t_chain[0], "status", "skipped")
    got = state.pushing_set(4)
    # its row stays among the search's rows, but held at zero by a unit
    # lead, so the two members that raise t1 drop out
    assert got.members == tuple(v for v in rec.D.members if v not in with_t1)
    assert all(v.t[0] == 0 for v in got.members)


def test_solvers_are_cached_per_build(second_model, second_state):
    # within one state a generator tuple keeps one solver
    first = second_state.semigroup_solver(2, 1)
    assert second_state.semigroup_solver(2, 1) is first
    # a second build starts from fresh solvers
    other = build_state(second_model)
    assert other.semigroup_solver(2, 1) is not first
    assert other.semigroup_solver(2, 1).gvecs == first.gvecs
    solver = SemigroupSolver((B2.rational(2), B2.rational(3)))
    assert solver.contains(B2.rational(7)) is not None
    assert solver.contains(B2.rational(1)) is None


def test_minimal_semigroup_generators():
    vals = [B2.rational(k) for k in (2, 3, 4, 7)]
    assert minimal_semigroup_generators(vals) == (
        B2.rational(2),
        B2.rational(3),
    )
    mixed = [B2.rational(1), B2.root(2), B2.rational(2) + B2.root(2)]
    assert minimal_semigroup_generators(mixed) == (
        B2.rational(1),
        B2.root(2),
    )
    assert minimal_semigroup_generators([]) == ()


# -- decompositions over a built chain ------------------------------------------


def test_permissible_decompose_round_trip(state, second_state):
    rng = random.Random(7)
    for st in (state, second_state):
        betas = [rec.beta for rec in st.p_chain]
        solver = st.semigroup_solver(len(betas), 0)
        qs = [rec.q for rec in st.p_chain]
        # all bounded slots stay in range, values recombine exactly
        for _ in range(12):
            a = [rng.randint(0, 4) for _ in betas]
            alpha = combination(a, betas, st.basis)
            L = permissible_decompose(alpha, solver, qs)
            assert combination(L, betas, st.basis) == alpha
            for rec, c in zip(st.p_chain[1:], L[1:]):
                if rec.q is not None:
                    assert 0 <= c < rec.q


def test_permissible_decompose_rejects_outside_group(state):
    # off the group of the values, and in the group but with a negative
    # first slot: neither has a nonnegative rewrite
    outside = state.basis.root(51, Fraction(1, 2))
    negative_x = parse_value("sqrt(2) - 1", state.basis)
    solver = state.semigroup_solver(2, 0)
    for alpha in (outside, negative_x):
        with pytest.raises(NotInSemigroupError):
            permissible_decompose(alpha, solver, [None, None])
    with pytest.raises(ValueError):
        permissible_decompose(state.basis.zero(), solver, [None])


def test_irreducible_decompose_matches_recorded_rewrites(state):
    for j in (2, 5, 8, 16, 22, 25):
        rec = state.t_chain[j - 1]
        src, vec = rec.parent
        out = state.rewrite(state.value_of(vec), state.m_at(src), src - 1)
        assert out == rec.LN
        assert state.value_of(out) == state.value_of(vec)
        assert oracles.irreducible(state, out, before=src)


def test_irreducible_decompose_fixes_reducible_input(state):
    # x*z dominates the first recorded obstacle, y^2 carries the same value
    reducible = PairVec((1,), (1,))
    assert not oracles.irreducible(state, reducible, before=2)
    out = state.rewrite(state.value_of(reducible), 2, 1)
    assert state.value_of(out) == state.value_of(reducible)
    assert oracles.irreducible(state, out, before=2)
    assert out == PairVec((0, 2), ())


def rewrite_state(which):
    """A built model for the rewrite tests: the first chain with q_2 = 1
    under the worked example's z ("q1"), with q_2 = 2 under a drawn z
    that creates members ("q2"), tests/tower.json, or a tower model."""
    if which == "tower.json":
        model, bounds, _, _ = load_config(str(TOWER))
        return build_state(model, bounds=bounds)
    if which == "q1":
        cfg = first_chain_config(1)
    elif which == "q2":
        cfg = first_chain_config(2, 2)
    else:
        cfg = tower_config(which)
    model, bounds, _, _ = parse_config(cfg, str(which))
    return build_state(model, bounds=bounds)


# the worked example; both first-chain shapes, whose rewrites run over
# first-chain slots bounded by q_2; and a tower whose skipped members are
# generators with no relation, so that some values have several rewrites
@pytest.mark.parametrize("which", ["example", "q1", "q2", 4])
def test_irreducible_decompose_is_the_least_irreducible_rewrite(which, state):
    built = state if which == "example" else rewrite_state(which)
    made = [rec for rec in built.t_chain if rec.parent is not None]
    assert made
    for rec in made:
        src, vec = rec.parent
        got = built.rewrite(built.value_of(vec), built.m_at(src), src - 1)
        assert got == rec.LN
    if which == "q2":
        assert any(oracles.entry(rec.LN, "p", 2) for rec in made)
    # probes at positions whose earlier members are all processed, as at
    # every build call; a later pending member is a generator with no
    # relation yet, under which a value may have very many rewrites
    done = next(
        (rec.index - 1 for rec in built.t_chain if rec.status == "pending"),
        len(built.t_chain),
    )
    rng = random.Random(f"rewrite-{which}")
    # the tower's first skipped member has value 4*sqrt(5) + 122/5, about 33
    cap = built.basis.rational(40 if which == 4 else 16)
    half = built.basis.rational(Fraction(1, 2))
    asked = multi = 0
    while asked < 40:
        i = rng.randint(0, done)
        k = rng.randint(1, len(built.p_chain))
        kk = max(k, built.m_at(i), 1)
        rows = built.coordinates(kk, i)
        counts = [rng.choice((0, 0, 0, 0, 0, 1)) for _ in rows]
        alpha = combination(counts, [val for *_, val in rows], built.basis)
        if alpha > cap:
            continue
        if rng.random() < 0.2:
            # mostly off the semigroup, sometimes negative
            alpha = alpha - half
        asked += 1
        want = oracles.irreducible_rewrites(built, alpha, kk, i)
        if not want:
            with pytest.raises(NotInSemigroupError):
                built.rewrite(alpha, kk, i)
            continue
        assert built.rewrite(alpha, kk, i) == want[0]
        multi += len(want) > 1
    if which == 4:
        assert multi, "no probe had several rewrites"


# values far above a skipped or pending member, which is a generator with
# no relation, have many irreducible rewrites; the canonical one is the
# first solution of the cut search, found in a few nodes.  An enumeration
# of every rewrite took 421,112 and 68,525 nodes on these two probes.
@pytest.mark.parametrize(
    "which,text,i,want",
    [
        (4, "74*sqrt(2) + 54*sqrt(5) + 1422/5", 22, PairVec((0, 2), (0, 8, 54))),
        # above member 15 of tests/tower.json, its first pending member
        (
            "tower.json",
            "66*sqrt(2) + 10*sqrt(51) - 61",
            17,
            PairVec((), (0, 13, 0, 0, 0, 9, 1)),
        ),
    ],
)
def test_canonical_rewrite_is_found_within_a_node_budget(which, text, i, want):
    built = rewrite_state(which)
    if which == 4:
        assert [rec.status for rec in built.t_chain].count("skipped") == 7
    else:
        first = next(rec for rec in built.t_chain if rec.status == "pending")
        assert first.index == 15 < i
    alpha = parse_value(text, built.basis)
    k = max(1, built.m_at(i))
    solver = built.semigroup_solver(k, i)
    before = solver.nodes
    assert built.rewrite(alpha, k, i) == want
    assert solver.nodes - before <= 1000


def test_a_skipped_member_gives_its_value_a_second_rewrite(state):
    # member 16 of the worked example lies above the value ceiling: it is
    # a generator with no relation, so its value has two irreducible
    # rewrites, t16 and t8^3, and the canonical one uses the later row least
    rec = state.t_chain[15]
    assert rec.status == "skipped"
    t8_cubed = PairVec((), (0,) * 7 + (3,))
    t16 = PairVec((), (0,) * 15 + (1,))
    assert oracles.irreducible_rewrites(state, rec.gamma, 2, 16) == [t8_cubed, t16]
    assert state.rewrite(rec.gamma, 2, 16) == t8_cubed


def test_irreducible_decompose_refuses_what_it_cannot_rewrite(state):
    with pytest.raises(NotInSemigroupError):
        state.rewrite(-state.basis.rational(1), 2, 3)
    with pytest.raises(NotInSemigroupError):
        state.rewrite(state.basis.rational(Fraction(1, 2)), 2, 3)
    # a value in the semigroup with every rewrite cut off by the leads is a
    # broken chain record, not a missing rewrite
    alpha = state.value_of(PairVec((0, 2), ()))
    solver = state.semigroup_solver(2, 0)
    with pytest.raises(InternalConsistencyError, match="no irreducible rewrite"):
        irreducible_decompose(alpha, solver, [(0, 1)])


def test_irreducible_decompose_checks_its_answer_against_the_leads(
    state, monkeypatch
):
    # A search that ignores its leads answers with the least rewrite of
    # all.  On consistent records that one is irreducible anyway, since
    # each lead exceeds its own rewrite in the search order; so the records
    # here also carry a lead, y^2, that the one rewrite of its value over
    # x and y dominates, and only the final check can refuse the answer.
    contains = SemigroupSolver.contains
    monkeypatch.setattr(
        SemigroupSolver,
        "contains",
        lambda self, alpha, leads=(), *rest: contains(self, alpha, (), *rest),
    )
    alpha = state.value_of(PairVec((0, 2), ()))
    with pytest.raises(InternalConsistencyError, match="rewrite is reducible"):
        irreducible_decompose(alpha, state.semigroup_solver(2, 0), [(0, 2)])


# -- minimal pushing vectors ------------------------------------------------


@given(data=st.data(), dim=st.integers(1, 4))
def test_split_keeps_the_maximal_boxes_of_the_staircase(data, dim):
    caps = data.draw(st.tuples(*[st.integers(0, 3)] * dim), "caps")
    # a seeded lead may reach past a cap; the zero vector empties a cover
    point = st.tuples(*(st.integers(0, c + 1) for c in caps))
    minima = data.draw(
        st.lists(st.just((0,) * dim) | point, max_size=6), "minima"
    )
    grid = list(product(*(range(c + 1) for c in caps)))
    cover = [caps]
    for k, mem in enumerate(minima):
        cover = _split(cover, mem)
        seen = minima[: k + 1]
        free = {x for x in grid if not any(all(map(ge, x, m)) for m in seen)}
        under = {x for x in grid if any(all(map(le, x, b)) for b in cover)}
        assert under == free
        assert len(set(cover)) == len(cover)
        assert not any(b != c and all(map(le, b, c)) for b in cover for c in cover)
        assert cover == sorted(cover, reverse=True)


@given(data=st.data(), width=st.integers(0, 4), cap=st.integers(0, 3))
def test_a_grown_staircase_equals_one_seeded_from_empty(data, width, cap):
    old_width = data.draw(st.integers(0, width), "old width")

    def leads(n, label):
        row = st.tuples(*[st.integers(0, cap + 1)] * n).filter(any)
        return data.draw(st.lists(row, max_size=4), label)

    old, new = leads(old_width, "old leads"), leads(width, "new leads")
    base = staircase([()], old, old_width, cap)
    pad = (0,) * (width - old_width)
    every = [lead + pad for lead in old] + new
    want = staircase([()], data.draw(st.permutations(every), "order"), width, cap)
    assert staircase(base, new, width, cap) == want
    # the points under the cover are those that dominate no lead
    grid = list(product(range(cap + 1), repeat=width))
    under = {x for x in grid if any(all(map(le, x, b)) for b in want)}
    assert under == {x for x in grid if dominates_none(x, every)}


# positive values a + b*sqrt(2) with small a, b: generators, steps and
# targets for the searches on plain values, with no chain built
PLAIN = st.tuples(st.integers(0, 4), st.integers(0, 2)).filter(any).map(
    lambda v: Value(B2, v, 1)
)


@given(
    gens=st.lists(PLAIN, min_size=1, max_size=4),
    data=st.data(),
)
def test_irreducible_decompose_on_plain_values(gens, data):
    # the reverse-lex least rewrite that dominates no lead, against every
    # rewrite counted out by brute force
    n = len(gens)
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    leads = data.draw(st.lists(row.filter(any), max_size=3), "leads")
    alpha = combination(data.draw(row, "counts"), gens, B2)
    alpha = alpha - B2.rational(data.draw(st.sampled_from([0, 0, 1, 5])))
    solver = SemigroupSolver(gens)
    every = oracles.naive_solutions(alpha, gens)
    fits = [c for c in every if dominates_none(c, leads)]
    if not every:
        with pytest.raises(NotInSemigroupError):
            irreducible_decompose(alpha, solver, leads)
    elif not fits:
        with pytest.raises(InternalConsistencyError):
            irreducible_decompose(alpha, solver, leads)
    else:
        assert irreducible_decompose(alpha, solver, leads) == least(fits)


def brute_minima(step, gens, leads, layers, box):
    """The minimal (*f, t) of minimal_pushing_set, as PairVecs (f, (t,)),
    by enumerating the box and naive semigroup membership."""
    memo = {}
    pairs = [
        (PairVec(f, (t,)), None)
        for f in product(range(box + 1), repeat=len(gens))
        for t in range(1, layers + 1)
        if dominates_none(f, leads)
        and oracles.naive_semigroup_member(
            combination((t, *f), (step, *gens), B2), gens, memo
        )
    ]
    return set(oracles.minimal_vectors(pairs))


def check_plain_pushing_set(step, gens, leads, layers, box):
    """minimal_pushing_set against brute_minima; when the search reports
    itself complete, a box and a layer range two larger hold no more."""
    cover = staircase([()], leads, len(gens), box)
    minima, complete = minimal_pushing_set(
        step, SemigroupSolver(gens), cover, layers, box
    )
    got = [PairVec(m[:-1], m[-1:]) for m in minima]
    assert len(set(got)) == len(got)
    assert set(got) == brute_minima(step, gens, leads, layers, box)
    if complete:
        wider = brute_minima(step, gens, leads, layers + 2, box + 2)
        assert wider == set(got)
    return minima, complete


@given(
    gens=st.lists(PLAIN, min_size=1, max_size=3),
    step=PLAIN,
    data=st.data(),
)
def test_minimal_pushing_set_on_plain_values(gens, step, data):
    n = data.draw(st.integers(0, len(gens)), "free rows")
    box = data.draw(st.integers(0, 3), "coordinate cap")
    layers = data.draw(st.integers(1, 3), "layer cap")
    # a lead may reach past the coordinate cap
    row = st.lists(st.integers(0, box + 2), min_size=n, max_size=n)
    leads = data.draw(st.lists(row.filter(any), max_size=2), "leads")
    # the rows past the free ones are held at zero by unit leads
    m = len(gens)
    leads = [(*lead, *(0,) * (m - n)) for lead in leads]
    leads += [tuple(int(j == k) for j in range(m)) for k in range(n, m)]
    check_plain_pushing_set(step, gens, leads, layers, box)


def test_minimal_pushing_set_on_plain_values_pinned_cases():
    two, three = B2.rational(2), B2.rational(3)
    # step 4 lies in the semigroup of 2 and 3: the first layer's minimum
    # (0, 0, 1) has an all-zero free part and closes every later layer
    minima, complete = check_plain_pushing_set(
        B2.rational(4), [two, three], [], 3, 2
    )
    assert minima == ((0, 0, 1),) and complete
    # step 1 needs a free part on the first layer, and the second layer's
    # (0, 0, 2) closes; the lead (5, 0) lies past the cap of 2, cuts
    # nothing, and the minima stay as without it
    step = B2.rational(1)
    plain = check_plain_pushing_set(step, [two, three], [], 3, 2)
    assert check_plain_pushing_set(step, [two, three], [(5, 0)], 3, 2) == plain
    assert sorted(plain[0]) == [(0, 0, 2), (0, 1, 1), (1, 0, 1)] and plain[1]
    # the lead (1, 0) inside the box takes out the minimum above it
    minima, complete = check_plain_pushing_set(step, [two, three], [(1, 0)], 3, 2)
    assert sorted(minima) == [(0, 0, 2), (0, 1, 1)] and complete
    # with 3 held at zero by its unit lead and under a coordinate cap of 0,
    # the first layer's minimum (1, 0, 1) lies past the cap; the second
    # layer closes, yet the search is incomplete
    minima, complete = check_plain_pushing_set(step, [two, three], [(0, 1)], 2, 0)
    assert minima == ((0, 0, 2),) and not complete


def test_minimal_pushing_set_refuses_a_cover_of_another_width():
    # a box with an entry more or less than the solver's generators would
    # run the search off its coordinates
    two, three = B2.rational(2), B2.rational(3)
    solver = SemigroupSolver([two, three])
    for cover in ([(2,)], [(2, 2, 2)], [(2, 2), (1,)]):
        with pytest.raises(ValueError, match="one entry per value"):
            minimal_pushing_set(B2.rational(1), solver, cover, 3, 2)


def brute_pushing_set(state, i, box, layers):
    """The irreducible minimal vectors at position i with every free
    count at most box and at most ``layers`` multiples of s at i, by
    plain enumeration of the box and naive semigroup membership."""
    rec = state.t_chain[i - 1]
    rows = [
        row
        for row in state.coordinates(rec.m, i - 1)
        if row[0] == "p" or state.t_chain[row[1] - 1].status == "ok"
    ]
    gens = [val for *_, val in state.coordinates(rec.m, i - 1)]
    at_i = [*rows, ("t", i, rec.gamma)]
    memo = {}
    members = [
        (vec, None)
        for f in product(range(box + 1), repeat=len(rows))
        for layer in range(1, layers + 1)
        for vec in [vec_over(at_i, (*f, layer * rec.s))]
        if oracles.naive_semigroup_member(state.value_of(vec), gens, memo)
    ]
    return {
        vec
        for vec in oracles.minimal_vectors(members)
        if oracles.irreducible(state, vec, before=i)
    }


def small_positions(state, max_rows=6):
    """The processed, nonzero positions with a group multiple and at most
    max_rows free coordinates."""
    return [
        rec.index
        for rec in state.t_chain
        if rec.status == "ok"
        and rec.s is not None
        and not rec.gamma.is_zero()
        and len(state.coordinates(rec.m, rec.index - 1)) <= max_rows
    ]


# second.json is left out: its one processed position has no finite
# group multiple, so no search runs there
@pytest.mark.parametrize("which", ["example", 3, 11, 31])
def test_pushing_sets_match_brute_force_in_a_box(which, state):
    if which == "example":
        built = state
    else:
        model, bounds, _, _ = parse_config(tower_config(which), "tower")
        built = build_state(model, bounds=bounds)
    small = copy.copy(built)
    small.bounds = rebound(built.bounds, d_coord_cap=3, d_layer_cap=3)
    positions = small_positions(built)
    assert positions
    for i in positions:
        got = small.pushing_set(i)
        assert set(got.members) == brute_pushing_set(built, i, 3, 3)
        assert len(got.members) == len(set(got.members))
