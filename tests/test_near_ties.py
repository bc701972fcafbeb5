"""Sign decisions the 64-bit enclosure cannot make must reach the exact path.

The threshold index build's one sign decision (whether a vector lies
below the threshold), the Value order, by which the build sorts its
values, and the threshold index's ``locate`` all read signs off integer
bounds on 2^64 times a combination of square roots, and refine with
``int_vec_sign`` only when those bounds straddle zero.  The vectors
below are built to straddle: Pell pairs p - q*sqrt(2) with q between
2^40 and 2^80, a convergent of sqrt(2) + sqrt(3), and exact zeros.  The
build runs on rows that tie its threshold within them, for a stand-in
state that carries only a basis, and its values must come out strictly
ascending.  Each decision is checked against ``int_vec_sign``, the
fallbacks are counted, and a mutant that trusts the fixed-point sum
alone is shown to fail the same checks.  The build decides one sign per
vector it visits, zero and each entry once.  ``locate`` is checked against ``bisect`` over the
index's values on four models, one of them built so that its values tie
within their enclosures.  A query's rank test (``_ThresholdIndex.minimal``)
runs at a threshold that entries' values less their rows' lie within
2^-90 of, on either side, or equal.
"""
import copy
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations_with_replacement
from math import isqrt
from operator import add, sub
from types import SimpleNamespace

import pytest
from valgen import RadicalBasis, Value, build_state, outputs, values
from valgen.cli import parse_config
from valgen.outputs import (
    _ThresholdIndex,
    ideal_generators,
    semigroup_values_up_to,
)
from valgen.values import (
    FIXED_BITS,
    int_vec_bounds,
    int_vec_sign,
    sign_within,
)

import oracles
from conftest import make_second_model
from corpus import tower_config

RADS = (1, 2, 3)


def pell_pairs(lo_bits=40, hi_bits=80):
    """(p, q) with p^2 - 2*q^2 = +-1 and 2^lo_bits <= q < 2^hi_bits; the
    signs of p - q*sqrt(2) alternate."""
    p, q = 1, 1
    out = []
    while q < 1 << hi_bits:
        if q >= 1 << lo_bits:
            out.append((p, q))
        p, q = p + 2 * q, p + q
    return out


def sqrt2_plus_sqrt3_tie(min_bits=40):
    """(a, c) with c*(sqrt(2) + sqrt(3)) - a within 1/c of zero and
    c >= 2^min_bits: a continued-fraction convergent, computed from a
    400-bit fixed-point value of the root."""
    bits = 400
    num = isqrt(2 << 2 * bits) + isqrt(3 << 2 * bits)
    den = 1 << bits
    h0, h1, k0, k1 = 0, 1, 1, 0
    while k1 < 1 << min_bits:
        a, rem = divmod(num, den)
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        num, den = den, rem
    return h1, k1


PELL = pell_pairs()
TIE_A, TIE_C = sqrt2_plus_sqrt3_tie()
# numerator vectors over RADS whose 64-bit enclosure straddles zero
NEAR_TIES = [(p, -q, 0) for p, q in PELL] + [(-TIE_A, TIE_C, TIE_C)]
ZEROS = [(0, 0, 0)]
# a step whose value dwarfs every enclosure error above
FAR = (1 << 100, 0, 0)


def trusts_a(vec, *_):
    """Mutant sign rule, in place of ``sign_within`` or ``int_vec_sign``:
    the sign of A = sum(vec_k * floor(2^64 * sqrt(r_k))) alone."""
    a = sum(c * isqrt(r << 2 * FIXED_BITS) for c, r in zip(vec, RADS))
    return (a > 0) - (a < 0)


@pytest.fixture
def fallbacks(monkeypatch):
    """The vectors that reach the exact path, recorded as it runs."""
    seen = []

    def counting(vec, radicands):
        seen.append(tuple(vec))
        return int_vec_sign(vec, radicands)

    monkeypatch.setattr(values, "int_vec_sign", counting)
    return seen


def test_the_vectors_are_near_ties():
    assert len(PELL) >= 20
    assert {int_vec_sign(v, RADS) for v in NEAR_TIES} == {-1, 1}
    for vec in NEAR_TIES + ZEROS:
        lo, hi = int_vec_bounds(vec, RADS, FIXED_BITS)
        assert lo <= 0 <= hi
    # the fixed-point sum alone gets some of them wrong
    assert any(trusts_a(v) != int_vec_sign(v, RADS) for v in NEAR_TIES)


# the near-tie index: threshold FAR and rows FAR + x and FAR - x for each
# near tie x, and FAR itself.  Each row drops below the threshold by itself
# and lies below it or not by a near tie; a sum of two rows exceeds it by
# about FAR, and is an entry when its other row lies below it.
TOP = FAR
ROWS = [
    tuple(map(op, TOP, x)) for x in NEAR_TIES for op in (add, sub)
] + [TOP]


# the rank test's rows: FAR + y for each y within 2^-90 of zero (Pell
# pairs with q >= 2^89, of both signs), FAR itself, 3/4*FAR and FAR +
# 2^50.  Topped at FAR + 1, the vectors below the top are zero and each
# row but the last, so an entry's value less its row's is zero, 3/4*FAR,
# or a row within 2^-90 of FAR, above, below or equal to it.  The last row
# has no entry above it, so sigma = FAR plus it, the stop, ties none.
RANK_TIES = [(p, -q, 0) for p, q in pell_pairs(89, 100)]
RANK_ROWS = [tuple(map(add, FAR, y)) for y in RANK_TIES] + [
    FAR, (3 << 98, 0, 0), (FAR[0] + (1 << 50), 0, 0),
]
RANK_TOP = (FAR[0] + 1, 0, 0)


def near_tie_index(rows=ROWS, top=TOP):
    """``_ThresholdIndex.build`` over rows, topped at top, for a stand-in
    state that carries only the basis."""
    basis = RadicalBasis(RADS)
    rows = [("t", k + 1, Value(basis, nums, 1)) for k, nums in enumerate(rows)]
    return _ThresholdIndex.build(
        SimpleNamespace(basis=basis), rows, Value(basis, top, 1)
    )


def walk_decisions(monkeypatch, sign):
    """(vec, sign) of every sign the index build over ROWS decides, with
    sign in place of ``sign_within``."""
    seen = []

    def recording(vec, lo, hi, radicands):
        got = sign(vec, lo, hi, radicands)
        seen.append((tuple(vec), got))
        return got

    monkeypatch.setattr(outputs, "sign_within", recording)
    near_tie_index()
    return seen


def entries_by_definition():
    """{counts: k} for each nonzero count vector v over ROWS of total at
    most 3 with value(v) - value(row k) < TOP, where row k is v's
    least-valued nonzero row, decided by ``int_vec_sign``; no entry of
    the index has a larger total."""
    n = len(ROWS)
    order = sorted(
        range(n),
        key=cmp_to_key(
            lambda a, b: int_vec_sign(tuple(map(sub, ROWS[a], ROWS[b])), RADS)
        ),
    )
    want = {}
    for total in (1, 2, 3):
        for picks in combinations_with_replacement(range(n), total):
            counts = [0] * n
            for k in picks:
                counts[k] += 1
            k = next(k for k in order if counts[k])
            value = [-t for t in TOP]
            for j in picks:
                value = list(map(add, value, ROWS[j]))
            if int_vec_sign(tuple(map(sub, value, ROWS[k])), RADS) < 0:
                want[tuple(counts)] = k
    return want


def test_walk_signs_on_near_ties(monkeypatch, fallbacks):
    # every sign the walk decides: whether a vector lies below the
    # threshold
    exact = []

    def sign(vec, lo, hi, radicands):
        before = len(fallbacks)
        got = sign_within(vec, lo, hi, radicands)
        exact.append(len(fallbacks) > before)
        return got

    seen = walk_decisions(monkeypatch, sign)
    for diff, got in seen:
        assert got == int_vec_sign(diff, RADS)
    # the exact path ran for the near ties and only for them: the rows
    # against the threshold
    near = [abs(diff[0]) < 1 << 90 for diff, _ in seen]
    assert exact == near
    assert sum(near) == len(ROWS)


def test_walk_signs_fail_under_a_mutant(monkeypatch):
    seen = walk_decisions(monkeypatch, trusts_a)
    assert any(got != int_vec_sign(diff, RADS) for diff, got in seen)


def test_walk_decides_one_sign_per_entry(monkeypatch, second_state):
    # the walk visits zero and each entry once, and decides one sign at
    # each: whether it lies below the threshold
    calls = []

    def counting(vec, lo, hi, radicands):
        calls.append(tuple(vec))
        return sign_within(vec, lo, hi, radicands)

    monkeypatch.setattr(outputs, "sign_within", counting)
    st = second_state
    rows = st.coordinates(len(st.p_chain), len(st.t_chain))
    index = _ThresholdIndex.build(st, rows, st.basis.rational(8))
    assert len(calls) == len(index.entries) + 1 == 295
    calls.clear()
    index = near_tie_index()
    assert len(calls) == len(index.entries) + 1


def lowered_diffs(index, sigma):
    """Per entry of an index over RANK_ROWS: its value - sigma, and its
    value less its row's - sigma, as numerators over 1, as are sigma and
    the rows."""
    out = []
    for counts, k in zip(index.entries, index.row_of):
        value = [-a for a in sigma]
        for c, row in zip(counts, RANK_ROWS):
            value = [a + c * b for a, b in zip(value, row)]
        out.append((value, list(map(sub, value, RANK_ROWS[k]))))
    return out


def within(vec, bits):
    """Whether sum(vec_k * sqrt(r_k)) lies within 2^-bits of zero."""
    lo, hi = int_vec_bounds(vec, RADS, 256)
    return max(-lo, hi) < 1 << 256 - bits


def test_minimality_test_on_near_ties(fallbacks):
    index = near_tie_index()
    want = entries_by_definition()
    assert dict(zip(index.entries, index.row_of)) == want
    # both kinds of entry: below the threshold, and above it by a near tie
    assert max(map(sum, want)) == 2
    # the rank test: a minimal generator at sigma reaches it, and its
    # value less its row's lies below it
    index = near_tie_index(RANK_ROWS, RANK_TOP)
    sigma = Value(index.top.basis, FAR, 1)
    diffs = lowered_diffs(index, FAR)
    fallbacks.clear()
    got = list(index.minimal(sigma))
    assert got == [
        r for r, (value, lowered) in enumerate(diffs)
        if int_vec_sign(value, RADS) >= 0 > int_vec_sign(lowered, RADS)
    ]
    # entries reaching sigma whose lowered value lies within 2^-90 of it,
    # on either side, and equal to it, which is not minimal
    near = {
        int_vec_sign(lowered, RADS) for value, lowered in diffs
        if int_vec_sign(value, RADS) >= 0 and within(lowered, 90)
    }
    assert near == {-1, 0, 1}
    # the exact path decided sigma against near ties only, and it ran
    assert fallbacks and all(within(vec, 90) for vec in fallbacks)


def test_minimality_test_fails_under_a_mutant(monkeypatch):
    index = near_tie_index(RANK_ROWS, RANK_TOP)
    sigma = Value(index.top.basis, FAR, 1)
    want = list(index.minimal(sigma))
    monkeypatch.setattr(outputs, "sign_within", trusts_a)
    index = near_tie_index()
    assert dict(zip(index.entries, index.row_of)) != entries_by_definition()
    # the rank test trusting the fixed-point sum in place of the exact path
    monkeypatch.setattr(values, "int_vec_sign", trusts_a)
    assert list(index.minimal(sigma)) != want


def value_pairs():
    """Near-tied Values p/d and q*sqrt(2)/d whose reduced denominators
    differ, and one Value paired with itself."""
    basis = RadicalBasis(RADS)
    pairs = []
    for d in (2, 6, 35):
        for p, q in PELL:
            a, b = Value(basis, (p, 0, 0), d), Value(basis, (0, q, 0), d)
            if a.den != b.den:
                pairs.append((a, b))
    d = next(
        d for d in range(2, 100) if (TIE_A % d == 0) != (TIE_C % d == 0)
    )
    pairs.append(
        (Value(basis, (TIE_A, 0, 0), d), Value(basis, (0, TIE_C, TIE_C), d))
    )
    pairs.append((pairs[0][0], pairs[0][0]))
    return pairs


def exact_order(a, b):
    """int_vec_sign of the cross-multiplied numerator difference a - b."""
    diff = [x * b.den - y * a.den for x, y in zip(a.nums, b.nums)]
    return int_vec_sign(diff, RADS)


def test_value_order_on_near_ties(fallbacks):
    pairs = value_pairs()
    assert len(pairs) >= 30
    assert {exact_order(a, b) for a, b in pairs} == {-1, 0, 1}
    expected = [exact_order(a, b) for a, b in pairs]
    fallbacks.clear()
    for (a, b), s in zip(pairs, expected):
        assert (a < b, a <= b, b < a, b <= a) == (s < 0, s <= 0, s > 0, s >= 0)
    assert len(fallbacks) == 4 * len(pairs)


def test_value_comparisons_fail_under_a_mutant(monkeypatch):
    pairs = value_pairs()
    expected = [exact_order(a, b) for a, b in pairs]
    monkeypatch.setattr(values, "int_vec_sign", trusts_a)
    assert any((a < b) != (s < 0) for (a, b), s in zip(pairs, expected))


# -- the index's order -------------------------------------------------------


def ascends(vals):
    """Whether vals ascend strictly by ``exact_order``."""
    return all(exact_order(a, b) < 0 for a, b in zip(vals, vals[1:]))


def test_index_values_ascend_on_near_ties(fallbacks):
    vals = near_tie_index().values
    assert len(vals) > 500 and ascends(vals)
    # the build decided near ties exactly
    assert fallbacks


def test_index_order_fails_under_a_mutant(monkeypatch):
    monkeypatch.setattr(values, "int_vec_sign", trusts_a)
    assert not ascends(near_tie_index().values)


# -- the queries at the >= boundary ------------------------------------------


@pytest.mark.parametrize("which", ["state", "second_state"])
def test_queries_at_and_beside_a_semigroup_value(request, which):
    st = request.getfixturevalue(which)
    basis = st.basis
    gens = [val for _, _, val in oracles.chain_rows(st)]
    slack = basis.rational(2)
    members = oracles.sums_up_to(gens, basis.rational(3), basis.zero())
    shift = basis.rational(Fraction(1, 64))

    def key(vec):
        return st.value_of(vec), vec.p, vec.t

    for v in (members[3], members[-1]):
        for sigma in (v - shift, v, v + shift):
            got = semigroup_values_up_to(st, sigma).values
            assert list(got) == oracles.sums_up_to(gens, sigma, basis.zero())
            assert (v in got) == (sigma >= v)
            cap = sigma + slack
            reaching = [
                (vec, val)
                for vec, val in oracles.vectors_up_to(st, cap)
                if val >= sigma
            ]
            want = oracles.minimal_vectors(reaching)
            gens_at = ideal_generators(st, sigma).members
            assert sorted(
                (vec for vec in gens_at if st.value_of(vec) <= cap), key=key
            ) == sorted(want, key=key)
            # the boundary: a generator of value exactly v exists iff sigma <= v
            assert any(st.value_of(vec) == v for vec in gens_at) == (sigma <= v)


# -- placing values among the index's values ----------------------------------


def near_tie_model():
    """The second model with z's value a/(3*b)*sqrt(3), for the Pell pair
    a^2 - 6*b^2 = 1 with b >= 2^40: a/(3*b) is a convergent of sqrt(2/3),
    so z's value exceeds sqrt(2) by about 2^-80, far inside the 64-bit
    enclosures at the index's denominator 3*b, while the values without
    z keep denominator 1."""
    a, b = 5, 2
    while b < 1 << 40:
        a, b = 5 * a + 12 * b, 2 * a + 5 * b
    return make_second_model(("1", "sqrt(2)", f"{a}/{3 * b}*sqrt(3)"))


def locate_points(index):
    """Values to place: each indexed value, 1/64 off it both ways and less
    than one unit of its 64-bit enclosure off it both ways."""
    basis = index.top.basis
    shift = basis.rational(Fraction(1, 64))
    out = []
    for v in index.values:
        tiny = basis.rational(Fraction(1, (1 << FIXED_BITS + 1) * v.den))
        out += [v, v - shift, v + shift, v - tiny, v + tiny]
    return out


@pytest.mark.parametrize("which", ["second_state", "state", "near", 11])
def test_locate_places_values_as_bisect_does(request, which):
    if which == "near":
        st = build_state(near_tie_model())
    elif isinstance(which, str):
        st = request.getfixturevalue(which)
    else:
        model, bounds, _, _ = parse_config(tower_config(which), "tower")
        st = build_state(model, bounds=bounds)
    # a fresh index, topped at 5
    st = copy.copy(st)
    st._thresholds = None
    top = st.basis.rational(5)
    ideal_generators(st, top)
    index = st._thresholds
    assert index.top == top and len(index.values) > 20
    vals = index.values
    for v in locate_points(index):
        assert index.locate(v) == bisect_left(vals, v), v
        assert index.locate(v, right=True) == bisect_right(vals, v), v
    # the window ends of a query at each indexed value, placed from the
    # place of the threshold on
    for sigma in vals:
        low = index.locate(sigma)
        for *_, row in index.rows:
            end = sigma + row
            assert index.locate(end, start=low) == bisect_left(vals, end, low)
    if which == "near":
        # the exact path ran: some placed values tie with their neighbours
        # within the enclosures
        assert any(a >= b for a, b in zip(index.highs, index.lows[1:]))
