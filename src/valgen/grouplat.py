"""Integer lattice and semigroup computations over exact values.

Everything here works with finitely many positive Values (the images of
chain polynomials) and answers questions about the group and the
semigroup they generate:

  * least positive multiple of a value lying in a group,
  * integer solutions of one linear equation over the generators,
  * nonnegative solutions (semigroup membership), in increasing
    reverse-lex order, so the first is the least,
  * canonical decompositions of a value over the chain values,
  * the minimal vectors whose value pushes into a smaller semigroup.

Both group questions are answered by one column echelon form of the
generators' numerators (``over_common_den``, ``column_echelon``) and a
forward substitution; semigroup questions go to one ``SemigroupSolver``
per generator tuple.  A canonical decomposition is the first solution of
a search cut by the chain's leads, for both chains.

Three functions take a chain state argument: ``permissible_decompose``,
``irreducible_decompose`` and ``minimal_pushing_set``.  They only use a
small surface of it: the length of ``p_chain``, ``t_chain`` records with
``gamma``/``s``/``m``/``status`` ("ok" only once ``D`` is recorded), the
radical ``basis``, the search ``bounds``, plus the helper methods
``m_at``, ``value_of``, ``coordinates``, ``lead_counts`` and
``semigroup_solver``.
``coordinates`` owns the flat exponent layout over the two chains,
``lead_counts`` reads the relation leads off the chain records as counts
over it and ``vec_over`` reads counts back as a PairVec; every search
here runs over those counts.  The concrete class lives in jumpseq;
keeping these functions here keeps all lattice reasoning in one place.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import gcd
from operator import le, lt, mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InternalConsistencyError, NotInSemigroupError
from .values import Value, combination, over_common_den

# -- exponent vector pairs ---------------------------------------------


@dataclass(frozen=True)
class PairVec:
    """A pair of nonnegative exponent vectors, one per chain.

    ``p`` holds the exponents of the first chain's members in order, ``t``
    those of the second's.  Trailing zeros are trimmed so equality and
    hashing ignore padding.  ``__str__`` stays as it is: the benchmark's
    ``ideal-sweep`` digest hashes it.
    """

    p: tuple[int, ...]
    t: tuple[int, ...]

    def __post_init__(self) -> None:
        p = tuple(self.p)
        t = tuple(self.t)
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
        if p is not self.p:
            object.__setattr__(self, "p", p)
        if t is not self.t:
            object.__setattr__(self, "t", t)

    def __str__(self) -> str:
        return f"({','.join(map(str, self.p))}|{','.join(map(str, self.t))})"


def graded_key(counts: tuple[int, ...]) -> tuple:
    """Total weight, then lexicographic: the graded order on count vectors
    over the rows of ``coordinates``, which follow the padded layout of
    the two chains and leave out only rows that are always zero."""
    return sum(counts), counts


def graded_sorted(vecs: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """``sorted(vecs, key=graded_key)``, by two sorts that call no Python
    key per vector: lexicographically, then stably by total weight."""
    out = sorted(vecs)
    out.sort(key=sum)
    return out


# -- column echelon form ---------------------------------------------------


def column_echelon(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], int]:
    """Column operations only: returns (H, V, rank) with A*V == H.

    V is unimodular.  The first ``rank`` columns of H have their leading
    entries on strictly increasing rows and the remaining columns are
    zero.  Each row in turn runs Euclid across the columns not yet
    fixed, so a pivot is the gcd of that row's free entries up to sign.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("ragged matrix")
    # column k of A stacked on column k of V, so that one list operation
    # moves both
    cols = [
        [row[k] for row in matrix] + [int(i == k) for i in range(n)]
        for k in range(n)
    ]
    rank = 0
    for r in range(m):
        while rank < n:
            live = [k for k in range(rank, n) if cols[k][r]]
            if not live:
                break
            j = min(live, key=lambda k: abs(cols[k][r]))
            cols[rank], cols[j] = cols[j], cols[rank]
            if len(live) == 1:
                rank += 1
                break
            piv = cols[rank]
            for j in range(rank + 1, n):
                c = cols[j][r] // piv[r]
                if c:
                    cols[j] = [a - c * b for a, b in zip(cols[j], piv)]
    H = [[col[i] for col in cols] for i in range(m)]
    V = [[col[i] for col in cols] for i in range(m, m + n)]
    return H, V, rank


def _least_multiple(
    alpha: Value, gens: Sequence[Value]
) -> tuple[Optional[int], list[int], list[list[int]]]:
    """(q, y, V): the least q >= 1 with q*alpha in the group of gens.

    The system sum(x_k * gens_k) == q*alpha, scaled integral, reads
    H*y == q*b in the column echelon form A*V == H, with x = V*y.  Forward
    substitution down the rows raises q at each pivot by just enough to
    keep y integral, scaling the earlier entries along; a nonzero
    remainder on a row without a pivot puts alpha off the rational span
    of gens, and then q is None.
    """
    _, (b, *cols) = over_common_den((alpha, *gens), alpha.basis)
    H, V, rank = column_echelon([row[1:] for row in zip(b, *cols)])
    q = 1
    y = [0] * len(gens)
    k = 0
    for row, c in zip(H, b):
        rest = q * c - _dot(row, y)
        if k < rank and row[k]:
            f = abs(row[k]) // gcd(row[k], rest)
            q *= f
            y = [x * f for x in y]
            y[k] = rest * f // row[k]
            k += 1
        elif rest:
            return None, y, V
    return q, y, V


def min_multiple_in_group(alpha: Value, gens: Sequence[Value]) -> Optional[int]:
    """Least q >= 1 with q*alpha in the group generated by gens, else None."""
    return _least_multiple(alpha, gens)[0]


def lattice_solve(
    alpha: Value, gens: Sequence[Value]
) -> Optional[tuple[int, ...]]:
    """Integers x with sum(x_k * gens_k) == alpha, or None.

    Any solution will do; the result is verified exactly before being
    returned.
    """
    q, y, V = _least_multiple(alpha, gens)
    if q != 1:
        return None
    x = tuple(_dot(row, y) for row in V)
    if combination(x, gens, alpha.basis) != alpha:
        raise InternalConsistencyError("lattice solution failed verification")
    return x


# -- semigroup membership -------------------------------------------------


class SemigroupSolver:
    """Decides membership in the semigroup generated by positive values.

    A query is an integer program: nonnegative counts of the (integer
    scaled) generator vectors summing to the target.  The search fixes the
    counts from the last generator back, each from its least feasible
    value up, so solutions come out in strictly increasing reverse-lex
    order (counts read from the last generator back) and ``contains``
    returns the least one: with leads, the canonical rewrite of a term
    order.  ``gvecs`` holds the scaled generators in search order, the
    given order reversed.  The one pruning rule is exact: what is left
    must lie in the real cone of the generators not yet fixed.  For each
    suffix of ``gvecs`` ``normals`` holds integer vectors h with h.g >= 0
    on that suffix, enough to cut out its cone, so a generator's count
    ranges exactly over the n that keep the rest inside the next suffix's
    cone.  A solver keeps no memo of answers: it holds what its
    generators determine (``normals`` and the search steps) and two
    counters, ``queries`` and ``nodes``, of calls of ``contains`` and
    search nodes.  A chain state shares one instance per generator tuple
    for the length of its build, so the normals are computed once.
    """

    def __init__(self, gens: Sequence[Value]):
        gens = tuple(gens)
        if not gens:
            raise ValueError("need at least one generator")
        self.basis = basis = gens[0].basis
        self.scale, gvecs = over_common_den(gens[::-1], basis)
        if any(g.sign() <= 0 for g in gens):
            raise ValueError("semigroup generators must be positive")
        self.gvecs = gvecs
        self.dim = dim = basis.dim
        self.count = count = len(gens)
        # normals[j]: the cofactor normals of every (dim-1)-subset of
        # gvecs[j:] plus the unit vectors, each sign kept when it is >= 0
        # on all of gvecs[j:].  With the unit vectors among the subsets the
        # normals cut out the suffix's cone exactly, also when the cone is
        # not full-dimensional.
        units = [tuple(int(r == c) for c in range(dim)) for r in range(dim)]
        valid: set[tuple[int, ...]] = set()
        for sub in combinations(units, dim - 1):
            h = _cofactor_normal(sub, dim)
            valid |= {h, tuple(-x for x in h)}
        # each normal is tested once: one rejected on a suffix fails on
        # every longer suffix, one accepted stays in valid until rejected
        tried = set(valid)
        normals = [tuple(valid)]
        for j in range(count - 1, -1, -1):
            g = gvecs[j]
            valid = {h for h in valid if _dot(h, g) >= 0}
            rest = units + gvecs[j + 1 :]
            subs = combinations(rest, dim - 2) if dim > 1 else ()
            for sub in subs:
                h = _cofactor_normal((g, *sub), dim)
                if h is None or h in tried:
                    continue
                for cand in (h, tuple(-x for x in h)):
                    tried.add(cand)
                    if all(_dot(cand, x) >= 0 for x in gvecs[j:]):
                        valid.add(cand)
            normals.append(tuple(valid))
        normals.reverse()
        self.normals = normals
        # per generator j, the next suffix's normals that see it: h.g > 0
        # caps its count, h.g < 0 floors it.  A normal with h.g == 0 needs
        # no check: it holds on rem - n*g whenever rem is in the cone of
        # gvecs[j:], and the search only visits such rem.
        self._steps = []
        for j, g in enumerate(gvecs):
            dots = [(h, _dot(h, g)) for h in normals[j + 1]]
            self._steps.append([(h, d) for h, d in dots if d])
        self.queries = 0
        self.nodes = 0

    def contains(self, alpha: Value) -> Optional[tuple[int, ...]]:
        """The reverse-lex least solution over the given generator order,
        or None."""
        self.queries += 1
        return next(self.solutions(alpha), None)

    def solutions(
        self,
        alpha: Value,
        leads: Sequence[Sequence[int]] = (),
        degrees: Sequence[int] = (),
        cap: Optional[int] = None,
    ) -> Iterator[tuple[int, ...]]:
        """Every nonnegative solution, over the given generator order.

        They come in strictly increasing reverse-lex order, so the first is
        the witness of ``contains``.  Given leads (nonzero, nonnegative
        count vectors over the same order) or a cap on the degree
        sum(counts[k] * degrees[k]) with nonnegative degrees, one per
        generator, only the solutions that dominate no lead componentwise
        and stay within the cap come out.  Both are down-sets, so the
        search cuts every prefix of counts that already breaks one, with
        its whole subtree.
        """
        if alpha.basis != self.basis:
            raise ValueError("value carries a different radical basis")
        n = self.count
        for lead in leads:
            if len(lead) != n:
                raise ValueError("a lead needs one count per generator")
            if not any(lead) or min(lead) < 0:
                raise ValueError("a lead must be nonzero and nonnegative")
        if (degrees or cap is not None) and len(degrees) != n:
            raise ValueError("degrees need one entry per generator")
        if cap is not None and min(cap, *degrees) < 0:
            raise ValueError("a degree cap and degrees must be nonnegative")
        if self.scale % alpha.den:
            # every semigroup element has coordinates in (1/scale)Z
            return
        up = self.scale // alpha.den
        rem = tuple(a * up for a in alpha.nums)
        if any(_dot(h, rem) < 0 for h in self.normals[0]):
            return
        cut = self._cut(leads, degrees, cap) if leads or cap is not None else None
        for got in self._counts(0, rem, cut):
            yield got[::-1]

    def _cut(self, leads, degrees, cap):
        """(prefix, limit) for a search cut by leads and a degree cap:
        ``_counts`` stores the count it fixes at search position j in
        prefix[j], and limit(j, hi) lowers hi, the largest count position j
        may take, so that prefix[:j] plus that count stays within the cap
        and dominates no lead that ends at j.  Search position j is
        generator n-1-j."""
        n = self.count
        # per search position, the leads whose last nonzero entry sits
        # there: their earlier entries as (position, count), and that count
        ends: list[list] = [[] for _ in range(n)]
        for lead in leads:
            *head, (j, c) = sorted((n - 1 - k, c) for k, c in enumerate(lead) if c)
            ends[j].append((head, c))
        degs = degrees[::-1] if cap is not None else ()
        prefix = [0] * n

        def limit(j: int, hi: int) -> int:
            if degs and degs[j]:
                used = sum(map(mul, prefix[:j], degs))
                hi = min(hi, (cap - used) // degs[j])
            for head, c in ends[j]:
                if c <= hi and all(prefix[i] >= h for i, h in head):
                    hi = c - 1
            return hi

        return prefix, limit

    def _counts(
        self, j: int, rem: tuple[int, ...], cut=None
    ) -> Iterator[tuple[int, ...]]:
        """Counts of gvecs[j:] summing to rem, which lies in their cone;
        with cut (``_cut``), only those its limit lets through."""
        self.nodes += 1
        if not any(rem):
            # positive generators: only the zero counts sum to zero
            yield (0,) * (self.count - j)
            return
        lo = 0
        hi: Optional[int] = None
        for h, d in self._steps[j]:
            a = _dot(h, rem)
            if d > 0:
                if hi is None or a // d < hi:
                    hi = a // d
            elif -(-a // d) > lo:
                lo = -(-a // d)
        if hi is None:
            # the cone of gvecs[j+1:] holds no negative value, so some
            # normal must cap the count of the positive generator j
            raise InternalConsistencyError("no cone inequality caps a count")
        if cut is not None:
            prefix, limit = cut
            hi = limit(j, hi)
        g = self.gvecs[j]
        for n in range(lo, hi + 1):
            if cut is not None:
                prefix[j] = n
            sub = tuple(a - n * b for a, b in zip(rem, g))
            for got in self._counts(j + 1, sub, cut):
                yield (n,) + got


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _det(rows: Sequence[Sequence[int]]) -> int:
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    return sum(
        (-1) ** c * x * _det([r[:c] + r[c + 1 :] for r in rows[1:]])
        for c, x in enumerate(rows[0])
        if x
    )


def _cofactor_normal(
    vecs: Sequence[tuple[int, ...]], dim: int
) -> Optional[tuple[int, ...]]:
    """The primitive h with h.x == det(x, *vecs) up to a positive factor,
    a normal to the dim-1 given vectors; None when they are dependent."""
    if dim == 3:
        # the cross product, the one case every bundled model needs
        (a, b, c), (d, e, f) = vecs
        h = [b * f - c * e, c * d - a * f, a * e - b * d]
    else:
        h = [
            (-1) ** c * _det([v[:c] + v[c + 1 :] for v in vecs])
            for c in range(dim)
        ]
    g = gcd(*h)
    return tuple(x // g for x in h) if g else None


def minimal_semigroup_generators(values: Sequence[Value]) -> tuple[Value, ...]:
    """The unique minimal generating set of the semigroup the values generate.

    A value is dropped exactly when the others already produce it.  Every
    representation of a value uses strictly smaller values, so dropping
    works independently of order.  One solver over all the values
    answers every question: the generators are positive, so the only
    solution that uses g itself is g, and g is dropped when some
    solution for it leaves its own count at zero.
    """
    vals = sorted(set(values))
    if not vals:
        return ()
    solver = SemigroupSolver(vals)
    return tuple(
        g
        for k, g in enumerate(vals)
        if all(counts[k] for counts in solver.solutions(g))
    )


# -- canonical decompositions against a chain state -----------------------


def vec_over(rows, counts: Sequence[int]) -> PairVec:
    """The PairVec with the given counts on (kind, index, value) rows laid
    out as ``coordinates`` lays them out."""
    p: list[int] = []
    t: list[int] = []
    for (kind, idx, _), c in zip(rows, counts, strict=True):
        if c:
            part = p if kind == "p" else t
            part.extend([0] * (idx - len(part)))
            part[idx - 1] = c
    return PairVec(tuple(p), tuple(t))


def permissible_decompose(alpha: Value, state, k: int) -> tuple[int, ...]:
    """Write alpha over the first k first-chain values, bounded slots in range.

    The i = 0 case of ``irreducible_decompose``, padded to k slots.  Over
    p_1..p_k the leads are q_j*e_j, so the result is the unique rewrite
    alpha == sum L_j * beta_j with 0 <= L_j < q_j wherever q_j is finite
    (j >= 2).  Raises NotInSemigroupError when that rewrite has a negative
    first slot or alpha lies outside the group of the values.
    """
    if k < 1 or k > len(state.p_chain):
        raise ValueError(f"p-index {k} out of range")
    L = irreducible_decompose(alpha, state, k, 0).p
    return L + (0,) * (k - len(L))


def irreducible_decompose(alpha: Value, state, k: int, i: int) -> PairVec:
    """The canonical nonnegative rewrite of alpha over the chain values.

    Over the rows of ``coordinates(kk, i)``, kk = max(k, m_at(i), 1), the
    canonical rewrite is the least under reverse lex (the counts read from
    the last row back) of those that dominate none of the chain's leads:
    the first solution of one cut search (``SemigroupSolver.solutions``).
    The result is checked for its value and irreducibility.  Raises
    NotInSemigroupError when alpha has no nonnegative rewrite.
    """
    sgn = alpha.sign()
    if sgn < 0:
        raise NotInSemigroupError("negative values have no rewrite")
    if i < 0 or i > len(state.t_chain):
        raise ValueError(f"t-index {i} out of range")
    kk = max(k, state.m_at(i), 1)
    if kk > len(state.p_chain):
        raise ValueError(f"p-index {kk} out of range")
    if sgn == 0:
        return PairVec((), ())
    rows = state.coordinates(kk, i)
    solver = state.semigroup_solver(kk, i)
    leads = state.lead_counts(rows)
    best = next(solver.solutions(alpha, leads), None)
    if best is None:
        if solver.contains(alpha) is None:
            raise NotInSemigroupError(
                f"{alpha} has no nonnegative rewrite over the chain values"
            )
        raise InternalConsistencyError(f"{alpha} has no irreducible rewrite")
    pv = vec_over(rows, best)
    if state.value_of(pv) != alpha:
        raise InternalConsistencyError("canonical rewrite changed the value")
    if any(all(map(le, lead, best)) for lead in leads):
        raise InternalConsistencyError("canonical rewrite is reducible")
    return pv


# -- minimal pushing vectors ----------------------------------------------


@dataclass(frozen=True)
class PushingSearch:
    """Result of a minimal-vector search: the members found, in order,
    and whether the search provably saw everything."""

    members: tuple[PairVec, ...]
    complete: bool


def _split(
    cover: list[tuple[int, ...]], mem: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """The cover with everything above mem taken out.

    A cover is the list of maximal boxes, by their top corners in
    descending order, of a down-set of points under the caps: the
    staircase of the monomial ideal of the minima found so far.  A box
    above mem splits into one child per coordinate where mem is positive,
    capped just below it; the union of the children is exactly the part
    of the box not dominating mem.  A kept box was maximal, so it cannot
    lie under a child, and only the children are tested for domination.
    """
    kept = []
    children = set()
    for b in cover:
        if any(map(lt, b, mem)):
            kept.append(b)
            continue
        for j, c in enumerate(mem):
            if c:
                children.add(b[:j] + (c - 1,) + b[j + 1 :])
    kept += [
        c
        for c in children
        if not any(c != d and all(map(le, c, d)) for d in chain(kept, children))
    ]
    kept.sort(reverse=True)
    return kept


def minimal_pushing_set(state, i: int) -> PushingSearch:
    """All irreducible minimal vectors ending at chain position i whose
    value drops into the semigroup of the earlier members.

    A vector here is (exponents over p_1..p_m, exponents over the live
    t-positions below i, then a positive last exponent at i, necessarily
    a multiple t*s of the least group multiple s).  Within one layer
    (fixed t) the solution set is upward closed, so its minimal points
    are mined from one cover (``_split``) of the points under the caps
    that dominate nothing found: each face is tested at its top corner
    with one membership query, and a hit is lowered to a minimal point
    one coordinate at a time, a probe at 0 first, then a binary search
    from 1 when the probe misses.  The cover is seeded with
    ``state.lead_counts(rows)``, so it covers only the irreducible region
    (position i, not yet "ok", adds none), a down-set the lowering never
    leaves.  Layers are
    processed in increasing t and share the cover, since a vector of a
    later layer above a minimum found earlier dominates it; a minimum
    whose free part is all zero empties the cover and closes every later
    layer.  The result is flagged incomplete when a layer ends with a
    face that reaches the coordinate cap, or when no layer closes.  The
    members come by value, and by ``graded_key`` among equal values.
    """
    rec = state.t_chain[i - 1]
    s, m = rec.s, rec.m
    if s is None or m is None:
        raise ValueError(f"position {i} has no finite group multiple")
    gamma = rec.gamma
    if gamma.is_zero():
        raise ValueError(f"position {i} is a zero position")
    bounds = state.bounds
    # skipped positions get no coordinate, though their values stay among
    # the solver's generators
    rows = [
        row
        for row in state.coordinates(m, i - 1)
        if row[0] == "p" or state.t_chain[row[1] - 1].status == "ok"
    ]
    vals = [val for *_, val in rows]
    n = len(rows)
    cap = bounds.d_coord_cap
    solver = state.semigroup_solver(m, i - 1)
    basis = state.basis
    step_vals = (s * gamma, *vals)
    memo: dict[tuple[tuple[int, ...], int], bool] = {}

    def member(fvec: tuple[int, ...], layer: int) -> bool:
        key = (fvec, layer)
        got = memo.get(key)
        if got is None:
            total = combination((layer, *fvec), step_vals, basis)
            got = solver.contains(total) is not None
            memo[key] = got
        return got

    def descend(corner: tuple[int, ...], layer: int) -> tuple[int, ...]:
        cur = list(corner)
        for j in range(n):
            lo, hi = 0, cur[j]
            if hi:
                # the layer's solutions are upward closed, so a hit at 0
                # ends this coordinate and a miss moves the floor to 1
                cur[j] = 0
                if member(tuple(cur), layer):
                    hi = 0
                else:
                    lo = 1
            while lo < hi:
                mid = (lo + hi) // 2
                cur[j] = mid
                if member(tuple(cur), layer):
                    hi = mid
                else:
                    lo = mid + 1
            cur[j] = lo
        return tuple(cur)

    cover = [(cap,) * n]
    for lead in state.lead_counts(rows):
        cover = _split(cover, lead)
    found: list[tuple[tuple[int, ...], int]] = []
    capped = False
    for layer in range(1, bounds.d_layer_cap + 1):
        while True:
            hit = next((b for b in cover if member(b, layer)), None)
            if hit is None:
                break
            z = descend(hit, layer)
            found.append((z, layer))
            cover = _split(cover, z)
        if not cover:
            break
        # every face missed, but members may lie beyond a face at the cap
        capped = capped or any(cap in b for b in cover)

    at_i = [*rows, ("t", i, gamma)]
    counts = sorted(((*f, layer * s) for f, layer in found), key=graded_key)
    members = sorted((vec_over(at_i, c) for c in counts), key=state.value_of)
    return PushingSearch(tuple(members), not cover and not capped)
