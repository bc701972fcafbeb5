"""Derived artifacts computed from a finished chain state.

Everything here is read-only over the state: valuation ideal generators
at a threshold, redundancy certificates for chain members, the trimmed
generating sequence, the binomial relations of the associated graded
ring, and slices of the value semigroup.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Optional

from .errors import InternalConsistencyError
from .grouplat import PairVec, graded_key, minimal_semigroup_generators
from .jumpseq import JumpState
from .laurent import LaurentPoly
from .values import Value


def _coordinates(state: JumpState, skip_t: Optional[int] = None):
    """Usable exponent positions: every first-chain member plus every
    second-chain member of nonzero value, as (kind, index, value) rows."""
    rows = []
    for rec in state.p_chain:
        rows.append(("p", rec.index, rec.beta))
    for rec in state.t_chain:
        if rec.index != skip_t and not rec.gamma.is_zero():
            rows.append(("t", rec.index, rec.gamma))
    return rows


def _vec_of(state: JumpState, rows, counts) -> PairVec:
    """The PairVec with the given counts over the coordinate rows."""
    p = [0] * len(state.p_chain)
    t = [0] * len(state.t_chain)
    for (kind, idx, _), c in zip(rows, counts):
        if c:
            (p if kind == "p" else t)[idx - 1] = c
    return PairVec(tuple(p), tuple(t))


def _walk(rows, zero: Value, visit: Callable[[list, Value], bool]) -> None:
    """Visit exponent vectors over the rows, each at most once.

    The walk starts at the zero vector and reaches a vector as its parent
    plus one unit at its last nonzero coordinate.  ``visit(counts, value)``
    gets the vector's counts (a list the walk reuses) and its value, and
    returns whether to descend to the vector's children.
    """
    values = [val for _, _, val in rows]
    counts = [0] * len(values)

    def extend(first: int, value: Value) -> None:
        if visit(counts, value):
            for k in range(first, len(values)):
                counts[k] += 1
                extend(k, value + values[k])
                counts[k] -= 1

    extend(0, zero)
    # extend refers to itself; dropping the name frees the walk's data now
    # rather than at the next cyclic collection
    del extend


# -- valuation ideals ---------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSet:
    """Monomials in the chain members generating a valuation ideal.

    complete is False when a truncated chain may hide further members."""

    threshold: Value
    members: tuple[PairVec, ...]
    complete: bool


def ideal_generators(state: JumpState, sigma: Value) -> GeneratorSet:
    """Minimal monomial exponents whose value reaches sigma.

    Every monomial in the chain members of value at least sigma is
    divisible by one of these.  For sigma <= 0 the unit monomial alone
    qualifies.
    """
    complete = not (state.flags.t_truncated or state.flags.p_truncated)
    if sigma.sign() <= 0:
        return GeneratorSet(sigma, (PairVec((), ()),), complete)
    rows = _coordinates(state)
    found: list[tuple[tuple[int, ...], Value]] = []

    def visit(counts: list, value: Value) -> bool:
        if value >= sigma:
            found.append((tuple(counts), value))
            return False
        return True

    _walk(rows, state.basis.zero(), visit)
    minimal = [
        (_vec_of(state, rows, counts), total)
        for counts, total in found
        if all(
            total - val < sigma
            for c, (_, _, val) in zip(counts, rows)
            if c
        )
    ]
    minimal.sort(
        key=lambda pair: (
            pair[1],
            graded_key(pair[0], len(state.p_chain), len(state.t_chain)),
        )
    )
    return GeneratorSet(sigma, tuple(vec for vec, _ in minimal), complete)


# -- redundancy ---------------------------------------------------------------


@dataclass(frozen=True)
class RedundancyCertificate:
    """Outcome of trying to rewrite one second-chain member over the rest.

    status: "zero" for vanished members, "not_eligible" when the value
    itself rules out a rewrite, "certified" with the combination when one
    was found, "undecided" when the bounded search gave out.
    """

    target: int
    status: str
    combo: Optional[tuple[tuple[Fraction, PairVec], ...]] = None


def _mine_pool(
    state: JumpState,
    skip_t: int,
    lo: Value,
    hi: Value,
    degree_cap: int,
) -> dict[Value, PairVec]:
    """Irreducible monomials with value in [lo, hi], cheapest per value."""
    # a weight-one blocking vector removes its position from the walk; a
    # blocking vector that needs a position outside the walk never fires
    supports = []
    for vec in state.T_set.vectors():
        sup = [(("p", pos + 1), c) for pos, c in enumerate(vec.p) if c]
        sup += [(("t", pos + 1), c) for pos, c in enumerate(vec.t) if c]
        supports.append(sup)
    killed = {sup[0][0] for sup in supports if len(sup) == 1 and sup[0][1] == 1}
    rows = [
        r for r in _coordinates(state, skip_t=skip_t) if r[:2] not in killed
    ]
    at = {(kind, idx): k for k, (kind, idx, _) in enumerate(rows)}
    blockers = [
        tuple((at[key], c) for key, c in sup)
        for sup in supports
        if all(key in at for key, _ in sup)
    ]
    degs = []
    for kind, idx, _ in rows:
        rec = (
            state.p_chain[idx - 1] if kind == "p" else state.t_chain[idx - 1]
        )
        d = rec.poly.total_degree()
        if d is None:
            raise InternalConsistencyError("zero member in coordinate rows")
        degs.append(d)
    plen = len(state.p_chain)
    tlen = len(state.t_chain)
    pool: dict[Value, PairVec] = {}

    def visit(counts: list, value: Value) -> bool:
        if value > hi or sum(map(mul, counts, degs)) > degree_cap:
            return False
        if any(all(counts[k] >= c for k, c in sup) for sup in blockers):
            return False
        if lo <= value:
            vec = _vec_of(state, rows, counts)
            old = pool.get(value)
            if old is None or graded_key(vec, plen, tlen) < graded_key(
                old, plen, tlen
            ):
                pool[value] = vec
        return True

    _walk(rows, state.basis.zero(), visit)
    return pool


def redundancy_certificate(
    state: JumpState,
    target: int,
    value_slack: Optional[Value] = None,
    degree_cap: int = 40,
) -> RedundancyCertificate:
    """Try to express second-chain member `target` through the others.

    The search window reaches value_slack above the member's own value
    (five times the first chain value when not given) and ignores
    rewrite monomials of larger polynomial degree than degree_cap.
    """
    if not 1 <= target <= len(state.t_chain):
        raise ValueError(f"no second-chain member {target}")
    rec = state.t_chain[target - 1]
    if rec.poly.is_zero():
        return RedundancyCertificate(target, "zero")
    solver = state.semigroup_solver(state.m_at(target), target - 1)
    if solver.contains(rec.gamma) is None:
        return RedundancyCertificate(target, "not_eligible")
    if value_slack is None:
        value_slack = 5 * state.p_chain[0].beta
    lo = rec.gamma
    hi = rec.gamma + value_slack
    pool = _mine_pool(state, target, lo, hi, degree_cap)
    combo: list[tuple[Fraction, PairVec]] = []
    # the remainder in ring form, for the zero test, and in ambient form
    f, g = rec.poly, rec.image
    prev = None
    while not f.is_zero():
        val = state.model.nu(g)
        if prev is not None and not val > prev:
            raise InternalConsistencyError("rewrite failed to raise the value")
        prev = val
        if val > hi:
            return RedundancyCertificate(target, "undecided")
        pick = pool.get(val)
        if pick is None:
            return RedundancyCertificate(target, "undecided")
        pick_img = state.image_of(pick)
        mu = state.model.residue_ratio(g, pick_img)
        f = f - state.poly_of(pick).scale(mu)
        g = g - pick_img.scale(mu)
        combo.append((mu, pick))
    return RedundancyCertificate(target, "certified", tuple(combo))


def redundancy_survey(
    state: JumpState,
    value_slack: Optional[Value] = None,
    degree_cap: int = 40,
) -> dict[int, RedundancyCertificate]:
    """One certificate per second-chain member, in chain order."""
    return {
        j: redundancy_certificate(
            state, j, value_slack=value_slack, degree_cap=degree_cap
        )
        for j in range(1, len(state.t_chain) + 1)
    }


# -- generating sequences -----------------------------------------------------


@dataclass(frozen=True)
class SequenceReport:
    """The trimmed generating sequence with its audit trail.

    kept_p and kept_t list the surviving chain indices; certificates
    holds the per-member outcomes that justified each removal; certified
    is True only when the kept set is provably minimal.
    """

    kept_p: tuple[int, ...]
    kept_t: tuple[int, ...]
    certificates: dict[int, RedundancyCertificate]
    certified: bool

    def polynomials(self, state: JumpState) -> tuple[LaurentPoly, ...]:
        polys = [state.p_chain[i - 1].poly for i in self.kept_p]
        polys.extend(state.t_chain[j - 1].poly for j in self.kept_t)
        return tuple(polys)


def generating_sequence_detail(
    state: JumpState,
    value_slack: Optional[Value] = None,
    degree_cap: int = 40,
    survey: Optional[dict[int, RedundancyCertificate]] = None,
) -> SequenceReport:
    """Drop provably redundant members and certify minimality if possible."""
    certs = survey if survey is not None else redundancy_survey(
        state, value_slack=value_slack, degree_cap=degree_cap
    )
    kept_p = tuple(r.index for r in state.p_chain)
    kept_t = tuple(
        j
        for j, cert in certs.items()
        if cert.status in ("not_eligible", "undecided")
    )
    certified = not (state.flags.t_truncated or state.flags.p_truncated)
    if any(cert.status == "undecided" for cert in certs.values()):
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
        for cert in certs.values():
            if cert.status != "certified":
                continue
            for _, vec in cert.combo:
                for pos, c in enumerate(vec.t):
                    if c and pos + 1 not in kept:
                        certified = False
    return SequenceReport(kept_p, kept_t, certs, certified)


def generating_sequence(
    state: JumpState, minimal: bool = True
) -> tuple[LaurentPoly, ...]:
    """The chain members as polynomials, trimmed when minimal is True."""
    if not minimal:
        polys = [r.poly for r in state.p_chain]
        polys.extend(r.poly for r in state.t_chain if not r.poly.is_zero())
        return tuple(polys)
    return generating_sequence_detail(state).polynomials(state)


# -- associated graded ring ---------------------------------------------------


@dataclass(frozen=True)
class GrRelation:
    """One binomial relation between initial forms: lhs = scalar * rhs."""

    lhs: PairVec
    rhs: PairVec
    scalar: Fraction


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


@dataclass(frozen=True)
class SemigroupSlice:
    """All semigroup values up to a cap, with a completeness marker."""

    cap: Value
    values: tuple[Value, ...]
    complete: bool


def semigroup_values_up_to(state: JumpState, cap: Value) -> SemigroupSlice:
    """Every value of the semigroup of chain values that is at most cap."""
    complete = not (state.flags.t_truncated or state.flags.p_truncated)
    if cap.sign() < 0:
        return SemigroupSlice(cap, (), complete)
    seen: set[Value] = set()

    def visit(counts: list, value: Value) -> bool:
        if value > cap:
            return False
        seen.add(value)
        return True

    _walk(_coordinates(state), state.basis.zero(), visit)
    return SemigroupSlice(cap, tuple(sorted(seen)), complete)
