"""Derived artifacts computed from a finished chain state.

Everything here reads the state without changing the chains: valuation
ideal generators at a threshold, redundancy certificates for chain
members, the trimmed generating sequence, the binomial relations of the
associated graded ring, and slices of the value semigroup.

The threshold queries (``ideal_generators``, ``semigroup_values_up_to``)
are answered from one index per state (``_ThresholdIndex``): every
monomial that can be a generator at a threshold up to the index's top,
sorted by value once and numbered in the order of an answer, built by
one depth-first walk (``_ThresholdIndex.build``) that reaches each entry
once, from its least-valued row, on an explicit stack, as a path has no
bound on its length.  A query at or below the top places its threshold
and window ends among the sorted values on integer keys
(``_ThresholdIndex.locate``), compares values exactly only where their
64-bit enclosures overlap, and keeps, in order, the numbers that fall
inside their own row's window; one above the top, or over changed chain
rows, replaces the index.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from operator import add, itemgetter, lt

from .errors import InternalConsistencyError, ThresholdTooHighError
from .grouplat import graded_sorted, minimal_semigroup_generators
from .jumpseq import GeneratorSet, JumpState, PairVec, vec_over
from .laurent import LaurentPoly
from .values import (
    FIXED_BITS,
    Frozen,
    Record,
    Value,
    int_vec_bounds,
    need_int,
    over_common_den,
    sign_within,
)

# the redundancy search window when none is given: how far above a
# member's value a rewrite may climb, and the largest degree it may use
DEFAULT_VALUE_SLACK = 5
DEFAULT_DEGREE_CAP = 40
# the most entries a threshold index may hold, each counted once per
# 64-bit word its numerators span; a query that needs more raises
# ThresholdTooHighError rather than walking on below a tiny row value
# until memory runs out.  The largest index the tests, the corpus and the
# benchmark build holds 61,207 one-word entries (sigma 40 on the second
# test model); reaching the budget takes about 1 s and 60 MB (100 MB for
# the process) on a 2-core x86-64 host under Python 3.11.
INDEX_ENTRY_BUDGET = 500_000


def _check_value(state: JumpState, name: str, x) -> None:
    """Refuse x unless it is a Value over the state's basis."""
    if not isinstance(x, Value):
        raise TypeError(f"{name} must be a Value, got {x!r}")
    if x.basis != state.basis:
        raise ValueError(f"{name} carries a different radical basis")


# -- threshold index ----------------------------------------------------------


class _ThresholdIndex(Record):
    """The monomials the threshold queries read, sorted once per top.

    An entry is a nonzero count vector v over ``rows`` with value(v) -
    value(row k) < top, where row k is v's least-valued nonzero row (the
    first of them in a stable sort by value).  That holds every vector of
    value at most top and every minimal generator at a threshold up to
    top.  ``values`` lists the distinct values of the entries in
    ascending order, one shared Value each; ``den`` is the lcm of the row
    and top denominators.  ``lows[i]`` and ``highs[i]`` are the 64-bit
    bounds of ``values[i]``'s own enclosure at scale 2^64*den
    (``Value.bounds_over``), which ``locate`` bisects as integers.

    Entries are numbered by ascending value, then total weight, then
    lexicographically, the order of a query's answer: ``entries[r]``
    holds the counts of entry r and ``row_of[r]`` its row k.  The entries
    of ``values[i]`` are numbered from ``starts[i]`` up to ``starts[i +
    1]``.  ``vecs`` keeps the PairVec of each entry a query has returned,
    by number.
    """

    # __weakref__ lets a test see that a replaced index is freed
    __slots__ = (
        "rows", "top", "zero", "values", "den", "highs", "lows", "starts",
        "entries", "row_of", "vecs", "__weakref__",
    )

    def __init__(
        self,
        rows: list,
        top: Value,
        zero: Value,
        values: list[Value],
        den: int,
        highs: list[int],
        lows: list[int],
        starts: Sequence[int],
        entries: list[tuple[int, ...]],
        row_of: Sequence[int],
        vecs: dict[int, PairVec],
    ) -> None:
        self.rows, self.top, self.zero, self.values = rows, top, zero, values
        self.den, self.highs, self.lows, self.starts = den, highs, lows, starts
        self.entries, self.row_of, self.vecs = entries, row_of, vecs

    @classmethod
    def for_query(cls, state: JumpState, threshold: Value) -> "_ThresholdIndex":
        """The state's index, replaced by one topped at threshold when the
        chain rows changed or threshold lies above its top."""
        rows = state.coordinates(len(state.p_chain), len(state.t_chain))
        index = state._thresholds
        if index is None or index.rows != rows or threshold > index.top:
            index = state._thresholds = cls.build(state, rows, threshold)
        return index

    @classmethod
    def build(cls, state: JumpState, rows: list, top: Value) -> "_ThresholdIndex":
        """Walk the entries, one sign per vector, and keep them.

        The moves are ranked once by row value, stably, and a child made
        by the move at rank position r takes only the moves at 0..r.  So
        the walk reaches each vector once, depth first and on its own
        stack, as its parent plus a unit at its least-valued nonzero row
        k, and each child of a vector below top is an entry.  A vector
        carries its counts and its value - top as common numerators with
        their 64-bit bounds, which add along a path, and ``sign_within``
        refines a sign only when they straddle zero.  The distinct values
        are then sorted as Values, each with its entries.

        Every entry v is reached: its parent v - e_k lies below top, and
        each earlier vector on its path lies below the parent.  This is a
        canonical-parent enumeration (Avis and Fukuda, "Reverse search
        for enumeration", 1996).
        """
        # starts and row_of are int64 arrays: a list would hold one int
        # object per value or entry; imported here, where an index is
        # built, so that importing valgen does not load the module
        from array import array

        den, steps = over_common_den(
            [*(val for *_, val in rows), top], state.basis
        )
        top_nums = steps.pop()
        rads = state.basis.radicands
        # (row, step, the step's bounds) of each move, by the row's value
        rank = sorted(((k, step, *int_vec_bounds(step, rads, FIXED_BITS))
                       for k, step in enumerate(steps)),
                      key=lambda move: rows[move[0]][2])
        # per distinct value - top, the row k of each entry by its counts
        found: dict[tuple[int, ...], dict] = {}
        # an entry's diff and stack entries grow with the widest numerator,
        # so each of its 64-bit words counts against the budget
        widest = max(abs(a) for vec in (top_nums, *steps) for a in vec)
        limit = INDEX_ENTRY_BUDGET // (1 + widest.bit_length() // 64)
        size = 0
        # a stack entry: the moves it may take, its counts, diff and bounds
        diff = tuple(-a for a in top_nums)
        stack = [(len(rank), (0,) * len(steps), diff,
                  *int_vec_bounds(diff, rads, FIXED_BITS))]
        pop, push = stack.pop, stack.append
        while stack:
            reach, counts, diff, lo, hi = pop()
            if sign_within(diff, lo, hi, rads) >= 0:
                continue
            for r in range(reach):
                k, step, step_lo, step_hi = rank[r]
                child = list(counts)
                child[k] += 1
                child = tuple(child)
                child_diff = tuple(map(add, diff, step))
                found.setdefault(child_diff, {})[child] = k
                size += 1
                if size > limit:
                    raise ThresholdTooHighError(
                        "the threshold index would hold more than "
                        f"{limit:,} monomials"
                    )
                push((r + 1, child, child_diff, lo + step_lo, hi + step_hi))
        # one Value per distinct value, sorted with its entries by value
        groups = sorted(
            ((Value(state.basis, tuple(map(add, diff, top_nums)), den), got)
             for diff, got in found.items()),
            key=itemgetter(0),
        )
        values: list[Value] = []
        starts = array("q", [0])
        entries: list[tuple[int, ...]] = []
        row_of = array("q")
        for value, got in groups:
            values.append(value)
            group = graded_sorted(got)
            entries += group
            row_of.extend(map(got.__getitem__, group))
            starts.append(len(entries))
        bounds = [value.bounds_over(den) for value in values]
        lows = [lo for lo, _ in bounds]
        highs = [hi for _, hi in bounds]
        return cls(
            rows, top, state.basis.zero(), values, den, highs, lows, starts,
            entries, row_of, {},
        )

    def locate(self, value: Value, right: bool = False, start: int = 0) -> int:
        """``bisect_left(self.values, value, start)``, or ``bisect_right``
        when right is set, decided on integers where the enclosures allow.

        value's own bounds at scale 2^64*den (``Value.bounds_over``) place
        it first.  bisect_left(highs, lo) returns a = start or a position
        whose predecessor's upper bound it found below lo, so that value
        and, the values ascending, every earlier one lie below value.
        Likewise every value from b = bisect_right(lows, hi) on lies above
        it.  The bounds need not ascend for this; the answer lies in [a,
        b], and only there are values compared (``Value._cmp``)."""
        lo, hi = value.bounds_over(self.den)
        a = bisect_left(self.highs, lo, start)
        b = bisect_right(self.lows, hi, start)
        while a < b:
            mid = (a + b) // 2
            sign = self.values[mid]._cmp(value)
            if sign < 0 or (right and sign == 0):
                a = mid + 1
            else:
                b = mid
        return a

    def member(self, number: int) -> PairVec:
        """The PairVec of entry number, built the first time."""
        got = self.vecs.get(number)
        if got is None:
            got = self.vecs[number] = vec_over(self.rows, self.entries[number])
        return got


# -- valuation ideals ---------------------------------------------------------


def ideal_generators(state: JumpState, sigma: Value) -> GeneratorSet:
    """Minimal monomial exponents whose value reaches sigma.

    Every monomial in the chain members of value at least sigma is
    divisible by one of these.  For sigma <= 0 the unit monomial alone
    qualifies.  They come by value, and among equal values by total
    weight, then lexicographically.
    """
    _check_value(state, "sigma", sigma)
    complete = not state.flags.truncated
    if sigma.sign() <= 0:
        return GeneratorSet((PairVec((), ()),), complete)
    index = _ThresholdIndex.for_query(state, sigma)
    # a vector reaching sigma is minimal exactly when dropping one unit of
    # its least-valued row takes it below sigma: row k's entries of value
    # sigma <= value < sigma + value(row k), numbered from first, that of
    # the first value at least sigma, up to ends[k], that of the window's
    # end; the numbers from first on are kept, in order, where they lie
    # below their own row's end
    low = index.locate(sigma)
    starts = index.starts
    first = starts[low]
    ends = [starts[index.locate(sigma + row, start=low)] for *_, row in index.rows]
    stop = max(ends, default=first)
    numbers = range(first, stop)
    below = map(lt, numbers, map(ends.__getitem__, index.row_of[first:stop]))
    return GeneratorSet(
        tuple(map(index.member, compress(numbers, below))), complete
    )


# -- redundancy ---------------------------------------------------------------


class RedundancyCertificate(Frozen):
    """Outcome of trying to rewrite one second-chain member over the rest.

    status: "zero" for vanished members, "not_eligible" when the value
    itself rules out a rewrite, "certified" with the combination when one
    was found, "undecided" when the bounded search gave out.
    """

    __slots__ = ("target", "status", "combo")

    def __init__(
        self,
        target: int,
        status: str,
        combo: tuple[tuple[Fraction, PairVec], ...] | None = None,
    ) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "combo", combo)


def redundancy_certificate(
    state: JumpState,
    target: int,
    value_slack: Value | None = None,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> RedundancyCertificate:
    """Try to express second-chain member `target` through the others.

    The search window reaches value_slack above the member's own value
    (DEFAULT_VALUE_SLACK when not given) and ignores rewrite monomials
    of larger polynomial degree than degree_cap.  Each step takes the
    reverse-lex least irreducible monomial at the remainder's value
    (``SemigroupSolver.contains``), the order of the creating rewrites.
    """
    need_int("target", target)
    need_int("degree_cap", degree_cap)
    if value_slack is None:
        value_slack = state.basis.rational(DEFAULT_VALUE_SLACK)
    _check_value(state, "value_slack", value_slack)
    if not 1 <= target <= len(state.t_chain):
        raise ValueError(f"no second-chain member {target}")
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be nonnegative, got {degree_cap}")
    if value_slack.sign() < 0:
        raise ValueError(f"value_slack must be nonnegative, got {value_slack}")
    rec = state.t_chain[target - 1]
    if rec.poly.is_zero():
        return RedundancyCertificate(target, "zero")
    # eligible when the value lies in the semigroup of the rows below the
    # member, coordinates(m_at(target), target - 1)
    below = state.semigroup_solver(state.m_at(target), target - 1)
    if below.contains(rec.gamma) is None:
        return RedundancyCertificate(target, "not_eligible")
    plen = len(state.p_chain)
    tlen = len(state.t_chain)
    rows = state.coordinates(plen, tlen)
    lookup = state.semigroup_solver(plen, tlen)
    hi = rec.gamma + value_slack
    degs = []
    for kind, idx, _ in rows:
        chain = state.p_chain if kind == "p" else state.t_chain
        d = chain[idx - 1].poly.total_degree()
        if d is None:
            raise InternalConsistencyError("zero member in coordinate rows")
        degs.append(d)
    # what a rewrite monomial must not dominate, as counts over the rows:
    # the target's own row, and the relation leads that lie on the rows
    # (a vanished member carries no row)
    leads = [tuple(int(row[:2] == ("t", target)) for row in rows)]
    leads += state.lead_counts(rows)

    combo: list[tuple[Fraction, PairVec]] = []
    # the remainder, kept in ambient form only: validate_model's Jacobian
    # check makes the images algebraically independent, so substitution
    # is injective and the ring remainder vanishes exactly when its image
    # does
    g = rec.image
    prev = None
    while not g.is_zero():
        # one scan of g per step: value and residue come off its lead
        lead = state.model.initial_term(g)
        val = state.model.nu(lead)
        if prev is not None and not val > prev:
            raise InternalConsistencyError("rewrite failed to raise the value")
        prev = val
        if val > hi:
            return RedundancyCertificate(target, "undecided")
        counts = lookup.contains(val, leads, degs, degree_cap)
        if counts is None:
            return RedundancyCertificate(target, "undecided")
        pick = vec_over(rows, counts)
        pick_img = state.image_of(pick)
        mu = state.model.residue_ratio(lead, pick_img)
        g = g - pick_img.scale(mu)
        combo.append((mu, pick))
    return RedundancyCertificate(target, "certified", tuple(combo))


def redundancy_survey(
    state: JumpState,
    value_slack: Value | None = None,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> dict[int, RedundancyCertificate]:
    """One certificate per second-chain member, in chain order."""
    need_int("degree_cap", degree_cap)
    if value_slack is not None:
        _check_value(state, "value_slack", value_slack)
    return {
        j: redundancy_certificate(
            state, j, value_slack=value_slack, degree_cap=degree_cap
        )
        for j in range(1, len(state.t_chain) + 1)
    }


# -- generating sequences -----------------------------------------------------


class SequenceReport(Frozen):
    """The trimmed generating sequence with its audit trail.

    kept_p and kept_t list the surviving chain indices; certified is
    True only when the kept set is provably minimal.  The certificates
    that justified each removal are the survey's.
    """

    __slots__ = ("kept_p", "kept_t", "certified")

    def __init__(
        self, kept_p: tuple[int, ...], kept_t: tuple[int, ...], certified: bool
    ) -> None:
        object.__setattr__(self, "kept_p", kept_p)
        object.__setattr__(self, "kept_t", kept_t)
        object.__setattr__(self, "certified", certified)

    def polynomials(self, state: JumpState) -> tuple[LaurentPoly, ...]:
        polys = [state.p_chain[i - 1].poly for i in self.kept_p]
        polys.extend(state.t_chain[j - 1].poly for j in self.kept_t)
        return tuple(polys)


def generating_sequence_detail(
    state: JumpState, survey: dict[int, RedundancyCertificate]
) -> SequenceReport:
    """Drop the members the survey proved redundant and certify minimality
    if possible."""
    kept_p = tuple(r.index for r in state.p_chain)
    kept_t = tuple(
        j
        for j, cert in survey.items()
        if cert.status in ("not_eligible", "undecided")
    )
    certified = not state.flags.truncated
    if any(cert.status == "undecided" for cert in survey.values()):
        certified = False
    kept_values = [state.p_chain[i - 1].beta for i in kept_p]
    kept_values.extend(state.t_chain[j - 1].gamma for j in kept_t)
    if certified:
        minimal = minimal_semigroup_generators(kept_values)
        if sorted(kept_values) != list(minimal):
            certified = False
    if certified:
        # a rewrite leaning on a dropped member would leave the kept set
        # short of generating, so insist every combination stays inside it
        kept = set(kept_t)
        for cert in survey.values():
            if cert.status != "certified":
                continue
            for _, vec in cert.combo:
                for pos, c in enumerate(vec.t):
                    if c and pos + 1 not in kept:
                        certified = False
    return SequenceReport(kept_p, kept_t, certified)


# -- associated graded ring ---------------------------------------------------


class GrRelation(Frozen):
    """One binomial relation between initial forms: lhs = scalar * rhs."""

    __slots__ = ("lhs", "rhs", "scalar")

    def __init__(self, lhs: PairVec, rhs: PairVec, scalar: Fraction) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "scalar", scalar)


def gr_presentation(state: JumpState) -> tuple[GrRelation, ...]:
    """The defining relations of the graded ring of the valuation.

    One relation per jump of the first chain and one per creation of the
    second, including creations whose member vanished.
    """
    out: list[GrRelation] = []
    for rec in state.p_chain:
        if rec.q is None:
            continue
        lhs = PairVec((0,) * (rec.index - 1) + (rec.q,), ())
        rhs = PairVec(rec.L_vec, ())
        if state.value_of(lhs) != state.value_of(rhs):
            raise InternalConsistencyError("relation sides disagree in value")
        if rec.lam == 0:
            raise InternalConsistencyError("vanishing scalar in a relation")
        out.append(GrRelation(lhs, rhs, rec.lam))
    for rec in state.t_chain:
        if rec.parent is None:
            continue
        _, vec = rec.parent
        if state.value_of(vec) != state.value_of(rec.LN):
            raise InternalConsistencyError("relation sides disagree in value")
        if rec.mu == 0:
            raise InternalConsistencyError("vanishing scalar in a relation")
        out.append(GrRelation(vec, rec.LN, rec.mu))
    return tuple(out)


# -- semigroup slices ---------------------------------------------------------


class SemigroupSlice(Frozen):
    """All semigroup values up to a cap, with a completeness marker."""

    __slots__ = ("cap", "values", "complete")

    def __init__(self, cap: Value, values: tuple[Value, ...], complete: bool) -> None:
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "complete", complete)


def semigroup_values_up_to(state: JumpState, cap: Value) -> SemigroupSlice:
    """Every value of the semigroup of chain values that is at most cap."""
    _check_value(state, "cap", cap)
    complete = not state.flags.truncated
    if cap.sign() < 0:
        return SemigroupSlice(cap, (), complete)
    index = _ThresholdIndex.for_query(state, cap)
    values = index.values[: index.locate(cap, right=True)]
    return SemigroupSlice(cap, (index.zero, *values), complete)
