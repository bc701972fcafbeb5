"""Integer lattice and semigroup computations over exact values.

Everything here works with finitely many positive Values (the images of
chain polynomials) and answers questions about the group and the
semigroup they generate:

  * least positive multiple of a value lying in a group,
  * integer solutions of one linear equation over the generators,
  * semigroup membership: the reverse-lex least nonnegative solution,
    of a search that leads and a degree cap may cut,
  * canonical rewrites of a value: that least solution cut by leads,
  * the minimal vectors whose value pushes into a semigroup.

Both group questions are answered by one column echelon form of the
generators' numerators (``over_common_den``, ``column_echelon``) and a
forward substitution; semigroup questions go to one ``SemigroupSolver``
per generator tuple.  Arguments are values, solvers and count vectors
over a solver's generators, leads loose or filed once (``file_leads``);
a search reads its values off its solver, and a unit lead holds the
count of a generator it may not use at zero.  ``jumpseq`` decides which
solver and leads a chain supplies.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, combinations
from math import gcd
from operator import le, lt, mul

from .errors import InternalConsistencyError, NotInSemigroupError
from .values import Value, combination, need_int, over_common_den

# -- count vector orders ----------------------------------------------------


def graded_sorted(vecs: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The count vectors in the graded order, total weight, then
    lexicographic, by two sorts that call no Python key per vector:
    lexicographically, then stably by total weight."""
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
) -> tuple[int | None, list[int], list[list[int]]]:
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


def min_multiple_in_group(alpha: Value, gens: Sequence[Value]) -> int | None:
    """Least q >= 1 with q*alpha in the group generated by gens, else None."""
    return _least_multiple(alpha, gens)[0]


def lattice_solve(
    alpha: Value, gens: Sequence[Value]
) -> tuple[int, ...] | None:
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


def file_leads(leads: Iterable[Sequence[int]], n: int, base=()) -> dict:
    """The leads, each n nonnegative ints not all zero, filed on a copy of
    base by their first nonzero entry, the last the search fixes: index k
    maps to (head, c) per lead whose first nonzero entry is c at k, head
    its later nonzero entries as (index, count).  A filed list is never
    changed in place, so copies share them."""
    ends = dict(base)
    for lead in leads:
        if len(lead) != n:
            raise ValueError("a lead needs one count per generator")
        nonzero = [(k, c) for k, c in enumerate(lead) if c]
        for _, c in nonzero:
            need_int("an entry of leads", c)
        if not nonzero or min(lead) < 0:
            raise ValueError("a lead must be nonzero and nonnegative")
        (k, c), *head = nonzero
        ends[k] = [*ends.get(k, ()), (head, c)]
    return ends


class SemigroupSolver:
    """Decides membership in the semigroup generated by positive values.

    A query is an integer program: nonnegative counts of the (integer
    scaled) generator vectors summing to the target.  The search fixes the
    counts from the last generator back, each from its least feasible
    value up, and stops at its first hit, so ``contains`` returns the
    least solution in reverse-lex order (counts read from the last
    generator back): with leads, the canonical rewrite of a term order.
    ``gvecs`` holds the scaled generators in search order, the given
    order reversed.  The one pruning rule is exact: what is left
    must lie in the real cone of the generators not yet fixed.  For each
    suffix of ``gvecs`` ``normals`` holds integer vectors h with h.g >= 0
    on that suffix, enough to cut out its cone, so a generator's count
    ranges exactly over the n that keep the rest inside the next suffix's
    cone.  A solver keeps no memo of answers: it holds its generators
    (``gens``), what they determine (``normals``, the search steps) and two
    counters, ``queries`` and ``nodes``, of calls of ``contains`` and
    search nodes.  A chain state shares one instance per generator tuple
    for its build, each grown from the longest one over a prefix (``prefix``).
    """

    def __init__(self, gens: Sequence[Value],
                 prefix: SemigroupSolver | None = None):
        self.gens = gens = tuple(gens)
        if not gens:
            raise ValueError("need at least one generator")
        self.basis = basis = gens[0].basis
        self.scale, gvecs = over_common_den(gens[::-1], basis)
        if any(g.sign() <= 0 for g in gens):
            raise ValueError("semigroup generators must be positive")
        self.gvecs = gvecs
        self.dim = dim = basis.dim
        self.count = count = len(gens)
        # normals[j]: each sign of the cofactor normal of every (dim-1)-subset
        # of the unit vectors and gvecs[j:], the prefix gens[:count-j], that is
        # >= 0 on the prefix.  With the units among the subsets they cut out
        # its cone exactly, also a cone that is not full-dimensional.  They
        # are primitive, so a solver over a prefix of gens hands its own on
        # whatever the scale, and the prefix grows by one g at a time: keep
        # each h with h.g >= 0, add those of the subsets with g.
        units = [tuple(int(r == c) for c in range(dim)) for r in range(dim)]
        grown = [(*units, *(tuple(-x for x in h) for h in units))]
        if prefix and gens[: prefix.count] == prefix.gens:
            grown = prefix.normals[::-1]
        vecs = gvecs[::-1]
        # coplanar values share normals; one rejected fails on longer prefixes
        tried = {None}
        for k in range(len(grown) - 1, count):
            valid = {h for h in grown[-1] if _dot(h, vecs[k]) >= 0}
            subs = combinations(units + vecs[:k], dim - 2) if dim > 1 else ()
            hs = {_cofactor_normal((vecs[k], *sub), dim) for sub in subs} - tried
            tried |= hs
            for cand in (*hs, *(tuple(-x for x in h) for h in hs)):
                if all(_dot(cand, x) >= 0 for x in vecs[: k + 1]):
                    valid.add(cand)
            grown.append(tuple(valid))
        self.normals = normals = grown[::-1]
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

    def contains(
        self,
        alpha: Value,
        leads: Sequence[Sequence[int]] | dict = (),
        degrees: Sequence[int] = (),
        cap: int | None = None,
    ) -> tuple[int, ...] | None:
        """The reverse-lex least nonnegative solution over the given
        generator order, or None.

        Given leads (nonzero, nonnegative count vectors over the same
        order, loose or filed by ``file_leads``) or a cap on the degree
        sum(counts[k] * degrees[k]) with nonnegative degrees, one per
        generator, only a solution that dominates no lead componentwise
        and stays within the cap counts.  Both are down-sets, so the
        search cuts every prefix of counts that already breaks one, with
        its whole subtree.
        """
        self.queries += 1
        if alpha.basis != self.basis:
            raise ValueError("value carries a different radical basis")
        n = self.count
        ends = leads if isinstance(leads, dict) else file_leads(leads, n)
        if (degrees or cap is not None) and len(degrees) != n:
            raise ValueError("degrees need one entry per generator")
        # without a cap the degrees are read as 0 and never counted
        degs, room = (0,) * n, 0
        if cap is not None:
            need_int("cap", cap)
            for d in degrees:
                need_int("an entry of degrees", d)
            if min(cap, *degrees) < 0:
                raise ValueError("a degree cap and degrees must be nonnegative")
            degs, room = degrees[::-1], cap
        if self.scale % alpha.den:
            # every semigroup element has coordinates in (1/scale)Z
            return None
        up = self.scale // alpha.den
        rem = tuple(a * up for a in alpha.nums)
        if any(_dot(h, rem) < 0 for h in self.normals[0]):
            return None
        return self._counts(0, rem, [0] * n, ends, degs, room)

    def _counts(
        self, j: int, rem: tuple[int, ...], prefix: list[int], ends: dict,
        degs: Sequence[int], room: int,
    ) -> tuple[int, ...] | None:
        """The first counts of gvecs[j:] summing to rem, which lies in their
        cone, that the cut lets through, or None; in the given generator
        order, so the count of gvecs[j] comes last.  The count at j, that of
        generator k = count-1-j, goes to prefix[k], stays within the room
        the counts fixed before it leave under the cap and with them
        dominates no lead of ``ends[k]``."""
        self.nodes += 1
        if not any(rem):
            # positive generators: only the zero counts sum to zero
            return (0,) * (self.count - j)
        lo = 0
        hi: int | None = None
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
        deg = degs[j]
        if deg:
            hi = min(hi, room // deg)
        k = self.count - 1 - j
        for head, c in ends.get(k, ()):
            if c <= hi and all(prefix[i] >= h for i, h in head):
                hi = c - 1
        g = self.gvecs[j]
        for n in range(lo, hi + 1):
            prefix[k] = n
            sub = tuple(a - n * b for a, b in zip(rem, g))
            got = self._counts(j + 1, sub, prefix, ends, degs, room - n * deg)
            if got is not None:
                return (*got, n)
        return None


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
) -> tuple[int, ...] | None:
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
    solution that uses g itself is g, and g is dropped when a search cut
    by the unit lead on g's own row still finds one.
    """
    vals = sorted(set(values))
    if not vals:
        return ()
    solver = SemigroupSolver(vals)
    n = len(vals)
    return tuple(
        g
        for k, g in enumerate(vals)
        if solver.contains(g, [tuple(int(j == k) for j in range(n))]) is None
    )


# -- canonical rewrites ----------------------------------------------------


def permissible_decompose(
    alpha: Value, solver: SemigroupSolver, qs: Sequence[int | None]
) -> tuple[int, ...]:
    """Write alpha over first-chain values beta_1..beta_k, the solver's
    generators, with every bounded slot in range.

    qs holds each beta_j's least group multiple q_j, None where there is
    none.  With the leads q_j*e_j the canonical rewrite
    (``irreducible_decompose``) is the unique alpha == sum L_j * beta_j
    with 0 <= L_j < q_j wherever q_j is finite.  Raises
    NotInSemigroupError when alpha has no nonnegative rewrite, inside the
    group of the values or not.
    """
    k = len(qs)
    if k != solver.count:
        raise ValueError("need one group multiple per generator")
    leads = [tuple(q * (j == p) for p in range(k)) for j, q in enumerate(qs) if q]
    return irreducible_decompose(alpha, solver, leads)


def irreducible_decompose(
    alpha: Value, solver: SemigroupSolver, leads: Sequence[Sequence[int]] | dict
) -> tuple[int, ...]:
    """The canonical nonnegative rewrite of alpha over the solver's
    generators, as counts over them.

    Of the rewrites that dominate none of the leads (nonzero count
    vectors, the leading vectors of the relations, loose or filed), the
    canonical one is the least under reverse lex (the counts read from
    the last generator back): the answer of one cut search
    (``SemigroupSolver.contains``).  The result is checked for its value
    and irreducibility.  Raises NotInSemigroupError when alpha has no
    nonnegative rewrite.
    """
    sgn = alpha.sign()
    if sgn < 0:
        raise NotInSemigroupError("negative values have no rewrite")
    if sgn == 0:
        return (0,) * solver.count
    ends = leads if isinstance(leads, dict) else file_leads(leads, solver.count)
    best = solver.contains(alpha, ends)
    if best is None:
        if solver.contains(alpha) is None:
            raise NotInSemigroupError(f"{alpha} has no nonnegative rewrite")
        raise InternalConsistencyError(f"{alpha} has no irreducible rewrite")
    if combination(best, solver.gens, solver.basis) != alpha:
        raise InternalConsistencyError("canonical rewrite changed the value")
    if any(best[k] >= c and all(best[i] >= h for i, h in head)
           for k, filed in ends.items() for head, c in filed):
        raise InternalConsistencyError("canonical rewrite is reducible")
    return best


# -- minimal pushing vectors ----------------------------------------------


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


def staircase(
    base: Sequence[tuple[int, ...]], leads: Sequence[Sequence[int]],
    width: int, coord_cap: int,
) -> list[tuple[int, ...]]:
    """The cover (``_split``) of the points of width entries up to coord_cap
    under the base cover on their first entries that dominate no lead.  A
    cover, the maximal boxes of a down-set, does not depend on the order of
    the splits: a base split by some leads, padded with coord_cap, needs
    only the others.  The empty base ``[()]`` gives the leads' own."""
    cover = [b + (coord_cap,) * (width - len(b)) for b in base]
    for lead in leads:
        cover = _split(cover, lead)
    return cover


def minimal_pushing_set(
    step: Value, solver: SemigroupSolver, cover: Sequence[tuple[int, ...]],
    layer_cap: int, coord_cap: int,
) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """The minimal vectors (*f, t) whose value f.gens + t*step lies in
    the solver's semigroup, with 1 <= t <= layer_cap, every entry of f
    at most coord_cap and f under the cover: the ``staircase`` of the
    leads, so the search sees only the irreducible region.

    gens are the solver's generators.  Within one layer (fixed t)
    the solution set is upward closed, so its minimal points are mined
    from the cover, split (``_split``) by each minimum found: each face is
    tested at its top corner with one membership query, and a hit is
    lowered to a minimal point one coordinate at a time, a probe at 0
    first, then a binary search from 1 when the probe misses; the
    irreducible region is a down-set, so the lowering never leaves it.
    Layers are processed in increasing t and share the cover, since a
    vector of a later layer above a minimum found earlier dominates it; a
    minimum whose free part f is all zero empties the cover and closes
    every later layer.  Returns (minima, complete), the minima in the
    order found; complete is False when a layer ends with a face that
    reaches coord_cap, or when no layer closes.
    """
    n = solver.count
    if any(len(box) != n for box in cover):
        raise ValueError("each box of the cover needs one entry per value")
    step_vals = (step, *solver.gens)
    memo: dict[tuple[tuple[int, ...], int], bool] = {}

    def member(fvec: tuple[int, ...], layer: int) -> bool:
        key = (fvec, layer)
        got = memo.get(key)
        if got is None:
            total = combination((layer, *fvec), step_vals, step.basis)
            got = memo[key] = solver.contains(total) is not None
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

    found: list[tuple[int, ...]] = []
    capped = False
    for layer in range(1, layer_cap + 1):
        while True:
            hit = next((b for b in cover if member(b, layer)), None)
            if hit is None:
                break
            z = descend(hit, layer)
            found.append((*z, layer))
            cover = _split(cover, z)
        if not cover:
            break
        # every face missed, but members may lie beyond a face at the cap
        capped = capped or any(coord_cap in b for b in cover)
    return tuple(found), not cover and not capped
