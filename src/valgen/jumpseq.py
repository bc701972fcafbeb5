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
records: the member's image in the ambient coordinates, group multiples,
depths, minimal vector sets with completeness flags, parent vectors,
rewrite vectors, and the matched scalars.  Values and residues are read
off the images; the ring forms are built for the report and for the
zero tests, and never substituted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import mul
from typing import Optional

from .errors import InternalConsistencyError
from .grouplat import (
    ObstacleSet,
    PairVec,
    PushingSearch,
    _chain_generators,
    lattice_solve,
    min_multiple_in_group,
    minimal_pushing_set,
    irreducible_decompose,
    permissible_decompose,
    SemigroupSolver,
)
from .laurent import LaurentPoly
from .valmodel import RING_VARS, ValuationModel, validate_model
from .values import Value, combination

DEFAULT_P_CAP = 32
# the processing ceiling SearchBounds.for_basis applies when none is given
DEFAULT_MAX_VALUE = 20


@dataclass(frozen=True)
class SearchBounds:
    """Exploration limits for the second chain.

    max_t_index caps the global chain length; max_value skips processing
    of members above it (they stay in the chain with their polynomial and
    value); the two d-caps bound the minimal-vector search per position:
    layers of the last exponent and a box cap for every other exponent.
    """

    max_t_index: int = 64
    max_value: Optional[Value] = None
    d_layer_cap: int = 16
    d_coord_cap: int = 16

    @classmethod
    def for_basis(cls, basis, **overrides) -> "SearchBounds":
        if "max_value" not in overrides:
            overrides["max_value"] = basis.rational(DEFAULT_MAX_VALUE)
        return cls(**overrides)


@dataclass
class PJump:
    """One member of the first chain and the jump data leading out of it.

    image is poly in the ambient coordinates."""

    index: int
    poly: LaurentPoly
    image: LaurentPoly
    beta: Value
    q: Optional[int] = None
    L_vec: Optional[tuple[int, ...]] = None
    lam: Optional[Fraction] = None


@dataclass
class TJump:
    """One member of the second chain with its processing record.

    status is "pending" until the construction reaches the member, then
    "ok" or "skipped".  parent identifies the creating step and vector
    for members beyond the first.  D records the minimal vector search
    at this position, when one ran.  image is poly in the ambient
    coordinates.
    """

    index: int
    poly: LaurentPoly
    image: LaurentPoly
    gamma: Value
    status: str = "pending"
    s: Optional[int] = None
    s_is_infinite: bool = False
    m: Optional[int] = None
    D: Optional[PushingSearch] = None
    parent: Optional[tuple[int, PairVec]] = None
    mu: Optional[Fraction] = None
    LN: Optional[PairVec] = None


@dataclass
class Flags:
    p_truncated: bool = False
    t_truncated: bool = False
    skipped: list[int] = field(default_factory=list)
    d_incomplete: list[int] = field(default_factory=list)


@dataclass
class JumpState:
    """Everything the construction has produced so far."""

    model: ValuationModel
    bounds: SearchBounds
    p_chain: list[PJump] = field(default_factory=list)
    t_chain: list[TJump] = field(default_factory=list)
    T_set: ObstacleSet = field(default_factory=ObstacleSet)
    flags: Flags = field(default_factory=Flags)
    t_cursor: int = 1
    _push_witnesses: dict = field(default_factory=dict, repr=False)
    _products: dict = field(default_factory=dict, repr=False)
    _solvers: dict = field(default_factory=dict, repr=False)

    @property
    def basis(self):
        return self.model.basis

    # -- chain lookups --------------------------------------------------

    def m_at(self, i: int) -> int:
        """Depth in force after processing position i (1 before anything)."""
        for j in range(min(i, len(self.t_chain)), 0, -1):
            m = self.t_chain[j - 1].m
            if m is not None:
                return m
        return 1

    def value_of(self, vec: PairVec) -> Value:
        if len(vec.p) > len(self.p_chain) or len(vec.t) > len(self.t_chain):
            raise ValueError("vector reaches beyond the constructed chains")
        return self.value_of_raw(vec.p, vec.t)

    def value_of_raw(self, p_part, t_part) -> Value:
        """Value of integer exponents over the chains; entries may be negative."""
        betas = [rec.beta for rec in self.p_chain]
        gammas = [rec.gamma for rec in self.t_chain]
        return combination(p_part, betas, self.basis) + combination(
            t_part, gammas, self.basis
        )

    def poly_of(self, vec: PairVec) -> LaurentPoly:
        """The monomial in chain members that the vector denotes."""
        return self._product(vec, "poly", RING_VARS)

    def image_of(self, vec: PairVec) -> LaurentPoly:
        """The ambient image of poly_of(vec): the product of member images."""
        return self._product(vec, "image", self.model.ambient_vars)

    def _product(self, vec: PairVec, form: str, vars_) -> LaurentPoly:
        """The product of the members' ``form`` fields raised to vec."""
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

    def semigroup_solver(self, k: int, i: int) -> SemigroupSolver:
        """The solver for the first k p-values and the nonzero gammas below
        i+1, shared by every query of this build on the same generators."""
        gens = tuple(_chain_generators(self, k, i)[0])
        got = self._solvers.get(gens)
        if got is None:
            got = self._solvers[gens] = SemigroupSolver(gens)
        return got

    def push_witness(self, t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Integer rewrite of s_t*gamma_t over depth m_t and positions < t."""
        got = self._push_witnesses.get(t)
        if got is not None:
            return got
        rec = self.t_chain[t - 1]
        if rec.s is None or rec.m is None:
            raise ValueError(f"position {t} has no finite group multiple")
        gens, tpos = _chain_generators(self, rec.m, t - 1)
        wit = lattice_solve(rec.s * rec.gamma, gens)
        if wit is None:
            raise InternalConsistencyError(
                "group multiple lost its witness on replay"
            )
        p_part = wit[: rec.m]
        t_part = [0] * (t - 1)
        for pos, j in enumerate(tpos):
            t_part[j] = wit[rec.m + pos]
        out = (tuple(p_part), tuple(t_part))
        self._push_witnesses[t] = out
        return out


# -- first chain ------------------------------------------------------------


def _seed(model: ValuationModel, name: str):
    """A ring variable's poly, image and value, the fields of its record."""
    image = model.images[name]
    return LaurentPoly.variable(RING_VARS, name), image, model.nu(image)


def build_p_chain(
    model: ValuationModel,
    max_len: Optional[int] = None,
    bounds: Optional[SearchBounds] = None,
) -> JumpState:
    """Construct the x/y chain until it ends or max_len members exist."""
    problems = validate_model(model)
    if problems:
        raise ValueError("model is not usable: " + "; ".join(problems))
    if max_len is None:
        max_len = DEFAULT_P_CAP
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if bounds is None:
        bounds = SearchBounds.for_basis(model.basis)
    state = JumpState(model=model, bounds=bounds)
    # the first member never has a finite group multiple: the group below
    # it is trivial, so its slot in rewrites is unrestricted
    state.p_chain.append(PJump(1, *_seed(model, "x")))
    if max_len < 2:
        state.flags.p_truncated = True
        return state
    state.p_chain.append(PJump(2, *_seed(model, "y")))
    while True:
        rec = state.p_chain[-1]
        i = rec.index
        below = [state.p_chain[j].beta for j in range(i - 1)]
        q = min_multiple_in_group(rec.beta, below)
        if q is None:
            break
        rec.q = q
        L, _ = permissible_decompose(q * rec.beta, state, i - 1, 0)
        if L[0] < 0:
            raise InternalConsistencyError(
                "rewrite of a group multiple went negative in the first slot"
            )
        rec.L_vec = L
        state.T_set.add(0, PairVec((0,) * (i - 1) + (q,), ()))
        monomial = PairVec(L, ())
        power_img = rec.image ** q
        monomial_img = state.image_of(monomial)
        lam = model.residue_ratio(power_img, monomial_img)
        rec.lam = lam
        if len(state.p_chain) >= max_len:
            state.flags.p_truncated = True
            break
        nxt = rec.poly ** q - state.poly_of(monomial).scale(lam)
        if nxt.is_zero():
            raise InternalConsistencyError(
                "chain member vanished; the value data is degenerate"
            )
        image = power_img - monomial_img.scale(lam)
        beta = model.nu(image)
        if not beta > q * rec.beta:
            raise InternalConsistencyError("chain value failed to increase")
        state.p_chain.append(
            PJump(index=i + 1, poly=nxt, image=image, beta=beta)
        )
    return state


# -- second chain -----------------------------------------------------------


def _create_member(state: JumpState, i: int, vec: PairVec) -> bool:
    """Create the chain member for one minimal vector; True means the
    global index cap was hit and construction must stop."""
    index = len(state.t_chain) + 1
    if index > state.bounds.max_t_index:
        return True
    value = state.value_of(vec)
    rec = state.t_chain[i - 1]
    LN = irreducible_decompose(value, state, rec.m, i - 1)
    lhs_img = state.image_of(vec)
    rhs_img = state.image_of(LN)
    mu = state.model.residue_ratio(lhs_img, rhs_img)
    # the ring form is for the zero test and the report; values come from
    # the image
    poly = state.poly_of(vec) - state.poly_of(LN).scale(mu)
    image = lhs_img - rhs_img.scale(mu)
    if poly.is_zero():
        gamma = state.basis.zero()
    else:
        gamma = state.model.nu(image)
        if not gamma > value:
            raise InternalConsistencyError("creation failed to raise the value")
    state.t_chain.append(
        TJump(
            index=index,
            poly=poly,
            image=image,
            gamma=gamma,
            parent=(i, vec),
            mu=mu,
            LN=LN,
        )
    )
    return False


def _process_position(state: JumpState, i: int) -> bool:
    """Handle chain position i; True means the construction must stop."""
    rec = state.t_chain[i - 1]
    if rec.poly.is_zero():
        rec.status = "ok"
        rec.s = 1
        rec.m = state.m_at(i - 1)
        rec.D = PushingSearch((), True)
        state.T_set.add(i, PairVec((), (0,) * (i - 1) + (1,)))
        return False
    if state.bounds.max_value is not None and rec.gamma > state.bounds.max_value:
        rec.status = "skipped"
        state.flags.skipped.append(i)
        return False
    all_gens, _ = _chain_generators(state, len(state.p_chain), i - 1)
    s = min_multiple_in_group(rec.gamma, all_gens)
    if s is None:
        rec.status = "ok"
        rec.s_is_infinite = True
        rec.m = state.m_at(i - 1)
        # provably nothing pushes at this position, so the empty set is exact
        rec.D = PushingSearch((), True)
        return False
    target = s * rec.gamma
    depth = None
    for j in range(1, len(state.p_chain) + 1):
        gens_j, _ = _chain_generators(state, j, i - 1)
        if lattice_solve(target, gens_j) is not None:
            depth = j
            break
    if depth is None:
        raise InternalConsistencyError("group multiple has no depth witness")
    rec.status = "ok"
    rec.s = s
    rec.m = max(state.m_at(i - 1), depth)
    search = minimal_pushing_set(state, i)
    rec.D = search
    if not search.complete:
        state.flags.d_incomplete.append(i)
    stop = False
    for vec in search.members:
        if _create_member(state, i, vec):
            stop = True
            break
    for vec in search.members:
        state.T_set.add(i, vec)
    return stop


def build_t_chain(state: JumpState) -> JumpState:
    """Process the whole second chain under the state's bounds."""
    if not state.t_chain:
        state.t_chain.append(TJump(1, *_seed(state.model, "z")))
    while state.t_cursor <= len(state.t_chain):
        stop = _process_position(state, state.t_cursor)
        state.t_cursor += 1
        if stop:
            state.flags.t_truncated = True
            break
    return state


def build_state(
    model: ValuationModel,
    max_len: Optional[int] = None,
    bounds: Optional[SearchBounds] = None,
) -> JumpState:
    """Run both constructions and return the finished state."""
    return build_t_chain(build_p_chain(model, max_len=max_len, bounds=bounds))


# -- ancestry ---------------------------------------------------------------


def successors(state: JumpState, i: int) -> list[int]:
    """Indices of second-chain members created while processing position i."""
    return [
        rec.index
        for rec in state.t_chain
        if rec.parent is not None and rec.parent[0] == i
    ]


def is_successor(state: JumpState, i: int, j: int) -> bool:
    """True when member j descends from member i through creating steps."""
    cur = j
    while True:
        if cur < 1 or cur > len(state.t_chain):
            return False
        parent = state.t_chain[cur - 1].parent
        if parent is None:
            return False
        if parent[0] == i:
            return True
        cur = parent[0]
