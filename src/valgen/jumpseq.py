"""Construction of the two polynomial chains attached to a valuation.

The first chain starts from x and y; each later member is built from the
previous one by raising it to the least power whose value falls into the
group of the earlier values and subtracting the matching monomial in the
earlier members, which strictly raises the value.  The chain stops when
no finite power works.

The second chain starts from z.  Processing member i finds the least
multiple s of its value that lands in the group generated by everything
earlier, mines the minimal exponent vectors (ending at i with a positive
multiple of s) whose value drops into the semigroup of the earlier
members, and for each such vector creates one new chain member: the
vector's monomial minus its canonical rewrite over the earlier members,
scaled to cancel initial terms.  Zero results stay in the chain as
markers; they contribute a relation and block their position from later
vectors.  Members whose value exceeds the configured ceiling are left
unprocessed and marked skipped.

All bookkeeping needed to replay or audit the run is kept on the chain
records: the member's image in the ambient coordinates and its initial
term, group multiples, depths, minimal vector sets with completeness
flags, parent vectors, rewrite vectors, and the matched scalars.  Values
and residues are read off initial terms, a product's the product of its
members'; the ring forms are for the report and the zero tests, never
substituted.  The exponent layout over the two chains
(``JumpState.coordinates``, ``PairVec``) lives here too, and
``JumpState.search`` sets each chain search up once (``Search``): its
rows, solver and filed leads, grown position by position.  A search in
grouplat never gets a state.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import mul

from .errors import InternalConsistencyError
from .grouplat import (
    file_leads,
    graded_sorted,
    lattice_solve,
    min_multiple_in_group,
    minimal_pushing_set,
    irreducible_decompose,
    permissible_decompose,
    SemigroupSolver,
    staircase,
)
from .laurent import LaurentPoly
from .valmodel import RING_VARS, ValuationModel, validate_model
from .values import Frozen, Record, Value, combination, need_int

# the first chain's length cap; a chain that reaches it is flagged p_truncated
DEFAULT_P_CAP = 32
# the processing ceiling SearchBounds.for_basis applies when none is given
DEFAULT_MAX_VALUE = 20


class SearchBounds(Frozen):
    """Exploration limits for the second chain.

    max_t_index caps the global chain length; max_value skips processing
    of members above it (they stay in the chain with their polynomial and
    value); the two d-caps bound the minimal-vector search per position:
    layers of the last exponent and a box cap for every other exponent.
    Each cap must be a positive int, max_value a Value or None.
    """

    __slots__ = ("max_t_index", "max_value", "d_layer_cap", "d_coord_cap")

    def __init__(
        self,
        max_t_index: int = 64,
        max_value: Value | None = None,
        d_layer_cap: int = 16,
        d_coord_cap: int = 16,
    ) -> None:
        caps = max_t_index, d_layer_cap, d_coord_cap
        for name, cap in zip(("max_t_index", "d_layer_cap", "d_coord_cap"), caps):
            # a bool is an int, but True is no cap
            if type(cap) is not int or cap < 1:
                raise ValueError(f"{name}: expected a positive integer")
        if not (max_value is None or isinstance(max_value, Value)):
            raise ValueError("max_value: expected a Value or None")
        object.__setattr__(self, "max_t_index", max_t_index)
        object.__setattr__(self, "max_value", max_value)
        object.__setattr__(self, "d_layer_cap", d_layer_cap)
        object.__setattr__(self, "d_coord_cap", d_coord_cap)

    @classmethod
    def for_basis(cls, basis, **overrides) -> "SearchBounds":
        if "max_value" not in overrides:
            overrides["max_value"] = basis.rational(DEFAULT_MAX_VALUE)
        return cls(**overrides)


class PairVec(Frozen):
    """A pair of nonnegative exponent vectors, one per chain.

    ``p`` holds the exponents of the first chain's members in order, ``t``
    those of the second's.  Trailing zeros are trimmed so equality and
    hashing ignore padding.  ``__str__`` stays as it is: the benchmark's
    ``ideal-sweep`` digest hashes it.
    """

    __slots__ = ("p", "t")

    def __init__(self, p: tuple[int, ...], t: tuple[int, ...]) -> None:
        p, t = tuple(p), tuple(t)
        entries = p + t
        # int() would pass True as 1 and truncate 2.7 to 2
        if not {*map(type, entries)} <= {int}:
            raise TypeError(f"PairVec entries must be integers, got {p}, {t}")
        if entries and min(entries) < 0:
            raise ValueError("PairVec entries must be nonnegative")
        while p and p[-1] == 0:
            p = p[:-1]
        while t and t[-1] == 0:
            t = t[:-1]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", t)

    def __str__(self) -> str:
        return f"({','.join(map(str, self.p))}|{','.join(map(str, self.t))})"


def vec_over(rows, counts) -> PairVec:
    """The PairVec with the given counts on (kind, index, value) rows laid
    out as ``JumpState.coordinates`` lays them out."""
    p: list[int] = []
    t: list[int] = []
    for (kind, idx, _), c in zip(rows, counts, strict=True):
        if c:
            part = p if kind == "p" else t
            part.extend([0] * (idx - len(part)))
            part[idx - 1] = c
    return PairVec(tuple(p), tuple(t))


class GeneratorSet(Frozen):
    """The minimal generators of a monomial ideal in the chain members: a
    position's D set, or the generators of a valuation ideal.  members
    come by value, then by total weight, then lexicographically; complete is
    False when members may be missing: a D search cut by its caps, or an
    ideal read off a truncated chain."""

    __slots__ = ("members", "complete")

    def __init__(self, members: tuple[PairVec, ...], complete: bool) -> None:
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "complete", complete)


class PJump(Record):
    """One member of the first chain and the jump data leading out of it.

    image is poly in the ambient coordinates; _lead, its initial term, is
    set where the build makes the member."""

    __slots__ = ("index", "poly", "image", "beta", "q", "L_vec", "lam", "_lead")

    def __init__(
        self,
        index: int,
        poly: LaurentPoly,
        image: LaurentPoly,
        beta: Value,
        q: int | None = None,
        L_vec: tuple[int, ...] | None = None,
        lam: Fraction | None = None,
        lead: LaurentPoly | None = None,
    ) -> None:
        self.index, self.poly, self.image, self.beta = index, poly, image, beta
        self.q, self.L_vec, self.lam, self._lead = q, L_vec, lam, lead


class TJump(Record):
    """One member of the second chain with its processing record.

    status is "pending" until the construction reaches the member, then
    "skipped", or "ok" once s, m and D are recorded.  An "ok" member with
    s None has no finite multiple in the group below it.  D is the
    position's D set, empty and complete where nothing pushes: at a
    vanished member (s 1) or where s is None.  parent names the creating
    position and vector past the first member; a position's members are
    the records naming it.  image is poly in ambient form, and _lead its
    initial term, as on PJump.
    """

    __slots__ = (
        "index", "poly", "image", "gamma", "status", "s", "m", "D", "parent",
        "mu", "LN", "_lead",
    )

    def __init__(
        self,
        index: int,
        poly: LaurentPoly,
        image: LaurentPoly,
        gamma: Value,
        status: str = "pending",
        s: int | None = None,
        m: int | None = None,
        D: GeneratorSet | None = None,
        parent: tuple[int, PairVec] | None = None,
        mu: Fraction | None = None,
        LN: PairVec | None = None,
        lead: LaurentPoly | None = None,
    ) -> None:
        self.index, self.poly, self.image, self.gamma = index, poly, image, gamma
        self.status, self.s, self.m, self.D = status, s, m, D
        self.parent, self.mu, self.LN, self._lead = parent, mu, LN, lead


class Flags(Frozen):
    """A build's flags, read off its records: p_truncated if the first
    chain's last member has a jump (q set), t_truncated if a position made
    fewer members than its D set holds; positions skipped or D-incomplete.
    Flags compare and hash by identity, as their state is unhashable."""

    __slots__ = ("state",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, state: "JumpState") -> None:
        object.__setattr__(self, "state", state)

    def __repr__(self) -> str:
        return "Flags()"

    @property
    def p_truncated(self) -> bool:
        return bool(self.state.p_chain) and self.state.p_chain[-1].q is not None

    @property
    def t_truncated(self) -> bool:
        # only pending members follow the position build_t_chain stops at
        for last in self.state.t_chain[-1:]:
            return last.status == "pending" or bool(last.D and last.D.members)
        return False

    @property
    def skipped(self) -> list[int]:
        return [r.index for r in self.state.t_chain if r.status == "skipped"]

    @property
    def d_incomplete(self) -> list[int]:
        return [r.index for r in self.state.t_chain if r.D and not r.D.complete]

    @property
    def truncated(self) -> bool:
        """True when a chain hit its length cap, so later members, and
        anything read off them, may be missing."""
        return self.p_truncated or self.t_truncated


class Search(Frozen):
    """A chain search set up once (``JumpState.search``): its rows, the
    build's solver over their values, and the leads it may not dominate,
    as count vectors over the rows and filed (``ends``, ``file_leads``)."""

    __slots__ = ("rows", "solver", "leads", "ends")

    def __init__(self, rows: list, solver, leads: tuple, ends: dict) -> None:
        for name, field in zip(self.__slots__, (rows, solver, leads, ends)):
            object.__setattr__(self, name, field)


class JumpState(Record):
    """Everything the construction has produced so far.

    Equality and repr read the model, the bounds and the two chains, not
    the caches: a state equals its fresh twin whatever either has cached."""

    # _thresholds: the threshold index of outputs' ideal and semigroup
    # queries: one at a time, replaced when the rows change or a threshold
    # passes its top.  _staircase: the last D search's (coordinate cap, row
    # keys, leads, cover).  _searches: per k, the last search's (marks,
    # Search) without held leads.  _degrees: the survey's (rows, degrees).
    __slots__ = (
        "model", "bounds", "p_chain", "t_chain", "_products", "_solvers",
        "_thresholds", "_staircase", "_searches", "_degrees",
    )

    def __init__(self, model: ValuationModel, bounds: SearchBounds) -> None:
        self.model, self.bounds = model, bounds
        self.p_chain: list[PJump] = []
        self.t_chain: list[TJump] = []
        self._products, self._solvers, self._searches = {}, {}, {}
        self._thresholds, self._staircase = None, (None, (), (), ((),))
        self._degrees = None

    @property
    def basis(self):
        return self.model.basis

    flags = property(Flags)

    # -- chain lookups --------------------------------------------------

    def m_at(self, i: int) -> int:
        """Depth in force after processing position i (1 before anything)."""
        for j in range(min(i, len(self.t_chain)), 0, -1):
            m = self.t_chain[j - 1].m
            if m is not None:
                return m
        return 1

    def _check_reach(self, vec: PairVec) -> None:
        if len(vec.p) > len(self.p_chain) or len(vec.t) > len(self.t_chain):
            raise ValueError("vector reaches beyond the constructed chains")

    def value_of(self, vec: PairVec) -> Value:
        self._check_reach(vec)
        values = [rec.beta for rec in self.p_chain[: len(vec.p)]]
        values += [rec.gamma for rec in self.t_chain[: len(vec.t)]]
        return combination(vec.p + vec.t, values, self.basis)

    def poly_of(self, vec: PairVec) -> LaurentPoly:
        """The monomial in chain members that the vector denotes."""
        return self._product(vec, "poly", RING_VARS)

    def image_of(self, vec: PairVec) -> LaurentPoly:
        """The ambient image of poly_of(vec): the product of member images."""
        return self._product(vec, "image", self.model.ambient_vars)

    def lead_of(self, vec: PairVec) -> LaurentPoly:
        """The initial term of image_of(vec), the product of the members'
        stored ones: the valuation is monomial on the ambient ring."""
        return self._product(vec, "_lead", self.model.ambient_vars)

    def _product(self, vec: PairVec, form: str, vars_) -> LaurentPoly:
        """The product of the members' ``form`` fields raised to vec."""
        # checked first: a product cached past the chains would outlive them
        self._check_reach(vec)
        key = (form, vec.p, vec.t)
        got = self._products.get(key)
        if got is not None:
            return got
        factors = [
            getattr(rec, form) ** c
            for c, rec in chain(zip(vec.p, self.p_chain), zip(vec.t, self.t_chain))
            if c
        ]
        out = reduce(mul, factors) if factors else LaurentPoly.constant(vars_, 1)
        self._products[key] = out
        return out

    def binomial(self, lhs: PairVec, rhs: PairVec) -> tuple:
        """(scalar, ring form, image, initial term, value) of lhs -
        scalar*rhs, each new member of both chains, the scalar the residue
        ratio of the two monomials' initial terms (``lead_of``).  The value,
        read off the image's one scan, is zero (the term None) when the
        ring form vanishes and must otherwise rise above lhs's."""
        scalar = self.model.residue_ratio(self.lead_of(lhs), self.lead_of(rhs))
        poly = self.poly_of(lhs) - self.poly_of(rhs).scale(scalar)
        image = self.image_of(lhs) - self.image_of(rhs).scale(scalar)
        if poly.is_zero():
            return scalar, poly, image, None, self.basis.zero()
        lead = self.model.initial_term(image)
        value = self.model.nu(lead)
        if not value > self.value_of(lhs):
            raise InternalConsistencyError("a new member's value did not rise")
        return scalar, poly, image, lead, value

    def coordinates(self, k: int, i: int) -> list[tuple[str, int, Value]]:
        """The exponent layout every search over the chains uses: p_1..p_k,
        then each t_j with j <= i and nonzero value, as (kind, 1-based
        index, value) rows.  vec_over turns counts over the rows back into
        a PairVec, and search writes the leads onto them.  The rows
        follow the padded layout of the two chains and leave out only rows
        that are always zero, so the graded order (total weight, then
        lexicographic) orders counts over them as it orders the padded
        vectors.  k and i must be ints within the chains' lengths."""
        need_int("k", k)
        need_int("i", i)
        if not (0 <= k <= len(self.p_chain) and 0 <= i <= len(self.t_chain)):
            raise ValueError(f"no rows p_1..p_{k}, t_1..t_{i} in the chains")
        rows = [("p", rec.index, rec.beta) for rec in self.p_chain[:k]]
        rows += [
            ("t", rec.index, rec.gamma)
            for rec in self.t_chain[:i]
            if not rec.gamma.is_zero()
        ]
        return rows

    def _solver(self, gens: tuple) -> SemigroupSolver:
        """The build's one solver over gens, grown from its longest solver
        over a prefix of them."""
        got = self._solvers.get(gens)
        if got is None:
            keys = [key for key in self._solvers if gens[: len(key)] == key]
            prefix = self._solvers[max(keys, key=len)] if keys else None
            got = self._solvers[gens] = SemigroupSolver(gens, prefix)
        return got

    def semigroup_solver(self, k: int, i: int) -> SemigroupSolver:
        """The build's one solver over the values of coordinates(k, i)."""
        return self._solver(tuple(val for *_, val in self.coordinates(k, i)))

    def search(self, k: int, i: int, held=()) -> Search:
        """The chain search over coordinates(k, i) and every lead it may not
        dominate: q on p_j for each first-chain power q*e_j and the minimal
        vectors of the processed positions, read off the records, then a
        unit lead on the row of each second-chain member in held.  A lead
        with an entry off the rows is left out, a vanished member's e_j
        among them (a zero value gets no row), so only the records of
        p_1..p_k and t_1..t_i are read.  The search without held is kept
        per k with what it read, the q of p_1..p_k and the status of
        t_1..t_i, and a search at a larger i over the same records grows
        from it by the later records' leads; held ones go on a copy."""
        rows = self.coordinates(k, i)
        marks = (*(r.q for r in self.p_chain[:k]),
                 *(r.status for r in self.t_chain[:i]))
        last, base = self._searches.get(k, ((), None))
        if base is None or marks[: len(last)] != last:
            last, base = (), Search([], None, (), {})
        place = {row[:2]: r for r, row in enumerate(rows)}
        if len(last) < len(marks):
            vecs = [] if last else [PairVec((0,) * (r.index - 1) + (r.q,), ())
                                    for r in self.p_chain[:k] if r.q]
            vecs += [v for r in self.t_chain[max(len(last) - k, 0):i]
                     if r.status == "ok" for v in r.D.members]
            new = []
            for v in vecs:
                at = {place.get((kind, j)): c for kind, part in (("p", v.p), ("t", v.t))
                      for j, c in enumerate(part, 1) if c}
                if None not in at:
                    new.append(tuple(at.get(r, 0) for r in range(len(rows))))
            pad = (0,) * (len(rows) - len(base.rows))
            base = Search(rows, self._solver(tuple(val for *_, val in rows)),
                          (*(lead + pad for lead in base.leads), *new),
                          file_leads(new, len(rows), base.ends))
            self._searches[k] = (marks, base)
        units = tuple(tuple(int(r == place[("t", j)]) for r in range(len(rows)))
                      for j in held if ("t", j) in place)
        if not units:
            return base
        return Search(base.rows, base.solver, base.leads + units,
                      file_leads(units, len(rows), base.ends))

    def rewrite(self, alpha: Value, k: int, i: int) -> PairVec:
        """The canonical rewrite of alpha (``irreducible_decompose``) over
        the rows of coordinates(k, i), cut by the chain's leads on them."""
        got = self.search(k, i)
        return vec_over(got.rows, irreducible_decompose(alpha, got.solver, got.ends))

    def pushing_set(self, i: int) -> GeneratorSet:
        """Position i's D set (``minimal_pushing_set``): minimal irreducible
        vectors over coordinates(m, i - 1) and t*s at i whose value lies in
        their semigroup, under the bounds' d-caps; the search holds the row
        of each skipped member at zero."""
        need_int("i", i)
        if not 1 <= i <= len(self.t_chain):
            raise ValueError(f"no second-chain position {i}")
        rec = self.t_chain[i - 1]
        s, m = rec.s, rec.m
        if s is None or rec.gamma.is_zero():
            raise ValueError(f"position {i} is zero or has no group multiple")
        skipped = [r.index for r in self.t_chain[: i - 1] if r.status == "skipped"]
        got = self.search(m, i - 1, held=skipped)
        rows, solver, leads = got.rows, got.solver, got.leads
        keys = tuple(row[:2] for row in rows)
        cap = self.bounds.d_coord_cap
        # grow the last staircase if cap, leading rows and padded leads carry over
        last_cap, last_keys, last_leads, base = self._staircase
        pad = (0,) * (len(keys) - len(last_keys))
        old = {lead + pad for lead in last_leads}
        if (last_cap, last_keys) != (cap, keys[: len(last_keys)]) or old - {*leads}:
            base, old = ((),), set()
        cover = staircase(base, [d for d in leads if d not in old], len(keys), cap)
        self._staircase = (cap, keys, leads, cover)
        minima, complete = minimal_pushing_set(
            s * rec.gamma, solver, cover, self.bounds.d_layer_cap, cap
        )
        at_i = [*rows, ("t", i, rec.gamma)]
        counts = graded_sorted((*f, t * s) for *f, t in minima)
        members = sorted((vec_over(at_i, c) for c in counts), key=self.value_of)
        return GeneratorSet(tuple(members), complete)


# -- first chain ------------------------------------------------------------


def _seed(cls, index: int, model: ValuationModel, name: str):
    """The chain record of a ring variable, its value read off its image's
    initial term."""
    image = model.images[name]
    lead = model.initial_term(image)
    poly = LaurentPoly.variable(RING_VARS, name)
    return cls(index, poly, image, model.nu(lead), lead=lead)


def build_p_chain(
    model: ValuationModel, bounds: SearchBounds | None = None
) -> JumpState:
    """Construct the x/y chain until it ends or DEFAULT_P_CAP members
    exist."""
    problems = validate_model(model)
    if problems:
        raise ValueError("model is not usable: " + "; ".join(problems))
    if bounds is None:
        bounds = SearchBounds.for_basis(model.basis)
    if bounds.max_value is not None and bounds.max_value.basis != model.basis:
        raise ValueError("max_value carries a different radical basis")
    state = JumpState(model=model, bounds=bounds)
    # the first member never has a finite group multiple: the group below
    # it is trivial, so its slot in rewrites is unrestricted
    state.p_chain.append(_seed(PJump, 1, model, "x"))
    state.p_chain.append(_seed(PJump, 2, model, "y"))
    while True:
        rec = state.p_chain[-1]
        i = rec.index
        below = state.p_chain[: i - 1]
        q = min_multiple_in_group(rec.beta, [r.beta for r in below])
        if q is None:
            break
        rec.q = q
        rec.L_vec = L = permissible_decompose(
            q * rec.beta, state.semigroup_solver(i - 1, 0), [r.q for r in below]
        )
        power = PairVec((0,) * (i - 1) + (q,), ())
        rec.lam, nxt, image, lead, beta = state.binomial(power, PairVec(L, ()))
        if len(state.p_chain) >= DEFAULT_P_CAP:
            break
        if nxt.is_zero():
            raise InternalConsistencyError(
                "chain member vanished; the value data is degenerate"
            )
        state.p_chain.append(PJump(i + 1, nxt, image, beta, lead=lead))
    return state


# -- second chain -----------------------------------------------------------


def _create_member(state: JumpState, i: int, vec: PairVec) -> None:
    """Append the chain member created from one minimal vector at i."""
    LN = state.rewrite(state.value_of(vec), state.t_chain[i - 1].m, i - 1)
    mu, poly, image, lead, gamma = state.binomial(vec, LN)
    index = len(state.t_chain) + 1
    state.t_chain.append(TJump(
        index, poly, image, gamma, parent=(i, vec), mu=mu, LN=LN, lead=lead
    ))


def _process_position(state: JumpState, i: int) -> None:
    """Record position i: "skipped" above the ceiling, else s, m, D, "ok"."""
    rec = state.t_chain[i - 1]
    # a vanished member is never skipped, whatever the ceiling
    if rec.poly.is_zero():
        rec.s = 1
    elif state.bounds.max_value is not None and rec.gamma > state.bounds.max_value:
        rec.status = "skipped"
        return
    else:
        rows = state.coordinates(len(state.p_chain), i - 1)
        rec.s = min_multiple_in_group(rec.gamma, [val for *_, val in rows])
    rec.m = state.m_at(i - 1)
    if rec.s is None or rec.poly.is_zero():
        # provably nothing pushes at this position, so the empty set is exact
        rec.D = GeneratorSet((), True)
    else:
        target = rec.s * rec.gamma
        for depth in range(1, len(state.p_chain) + 1):
            gens = [val for *_, val in state.coordinates(depth, i - 1)]
            if lattice_solve(target, gens) is not None:
                break
        else:
            raise InternalConsistencyError("group multiple has no depth witness")
        rec.m = max(rec.m, depth)
        rec.D = state.pushing_set(i)
    rec.status = "ok"


def build_t_chain(state: JumpState) -> JumpState:
    """Record each pending position of the second chain and create the D
    members each position has not created yet, in chain order, until the
    chain holds max_t_index members.  As this reads the records, a finished
    state is a fixed point, and a raised cap goes on as a fresh build would."""
    if not state.t_chain:
        state.t_chain.append(_seed(TJump, 1, state.model, "z"))
    made = Counter(rec.parent[0] for rec in state.t_chain if rec.parent)
    # members created while the loop runs are appended to the list it
    # walks, so they are reached in turn
    for rec in state.t_chain:
        if rec.status == "pending":
            _process_position(state, rec.index)
        todo = rec.D.members[made[rec.index]:] if rec.status == "ok" else ()
        for vec in todo:
            if len(state.t_chain) >= state.bounds.max_t_index:
                return state
            _create_member(state, rec.index, vec)
    return state


def build_state(
    model: ValuationModel, bounds: SearchBounds | None = None
) -> JumpState:
    """Run both constructions and return the finished state."""
    return build_t_chain(build_p_chain(model, bounds=bounds))
