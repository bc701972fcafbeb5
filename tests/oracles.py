"""Brute-force reference computations the tests compare against.

Everything here favors obviousness over speed and shares nothing with
the package beyond exact value arithmetic, so it can serve as an
independent oracle for the search code; ``scan_value``, the reference
for ``parse_value``, walks a text with the package's ``Scanner`` readers.
"""

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import ge, mul

from valgen import PairVec, Value
from valgen.values import Scanner


def value_from_coeffs(basis, coeffs):
    """The Value with the given rational coefficients, one per radicand of
    basis: their numerators over the lcm of their denominators."""
    coeffs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    return Value(basis, tuple(int(c * den) for c in coeffs), den)


def naive_poly_mul(terms1, terms2):
    """The product of two polynomials given as (exponents, coefficient)
    pairs: a dict of its nonzero coefficients, summed as Fractions."""
    out = {}
    for e1, c1 in terms1:
        for e2, c2 in terms2:
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {exp: c for exp, c in out.items() if c != 0}


def naive_add(terms1, terms2):
    """The sum of two polynomials given as (exponents, coefficient) pairs:
    a dict of its nonzero coefficients keyed by exponent tuples, summed as
    Fractions."""
    out = {}
    for exp, c in (*terms1, *terms2):
        out[tuple(exp)] = out.get(tuple(exp), Fraction(0)) + Fraction(c)
    return {exp: c for exp, c in out.items() if c != 0}


def naive_substitute(terms, vars_, images, n):
    """The terms, (exponents, coefficient) pairs over vars_, with each
    variable replaced by its image in images (a dict of name to
    (exponents, coefficient) pairs over n target variables), as a dict of
    nonzero coefficients: each term expanded factor by factor with
    naive_poly_mul, a negative power through the inverse of a one-term
    image.  None when a term needs a negative power of an image with
    more than one term."""
    out = {}
    for exp, c in terms:
        term = {(0,) * n: Fraction(c)}
        for name, e in zip(vars_, exp):
            image = images[name]
            if e < 0:
                if len(image) != 1:
                    return None
                ((iexp, ic),) = image
                image = [(tuple(-a for a in iexp), 1 / Fraction(ic))]
            for _ in range(abs(e)):
                term = naive_poly_mul(term.items(), image)
        for exp2, k in term.items():
            out[exp2] = out.get(exp2, Fraction(0)) + k
    return {exp: c for exp, c in out.items() if c != 0}


def coefficient(f, exponents):
    """The coefficient of the term with the given exponents in the
    LaurentPoly f; 0 when f has no such term."""
    return dict(f.terms).get(tuple(exponents), 0)


def least_terms(terms, values, zero):
    """The least value of sum(e_k * values_k) over the exponents of terms,
    by Value sums and compares, and every term that attains it."""
    scored = []
    for exp, c in terms:
        v = zero
        for e, val in zip(exp, values):
            v = v + val * e
        scored.append((v, (exp, c)))
    least = min(v for v, _ in scored)
    return least, [t for v, t in scored if v == least]


def entry(vec, kind, idx):
    """The exponent of member idx (1-based) of chain kind, "p" or "t", in
    the PairVec vec; 0 past its stored end."""
    part = vec.p if kind == "p" else vec.t
    return part[idx - 1] if idx <= len(part) else 0


def graded_key(counts):
    """Total weight, then lexicographic: the graded order on count
    vectors, the order graded_sorted sorts by."""
    return sum(counts), tuple(counts)


def dominates(a, b):
    """Componentwise a >= b for two PairVecs, the shorter padded with
    zeros."""
    return all(
        x >= y
        for pa, pb in ((a.p, b.p), (a.t, b.t))
        for x, y in zip_longest(pa, pb, fillvalue=0)
    )


def relation_leads(state, before=None):
    """The leading vectors of the chain's relations, read off the records
    as PairVecs: q*e_j for each first-chain member with a finite q, e_j
    for each vanished second-chain member and the minimal vectors
    (D.members) of each other processed one.  With before, only
    second-chain positions below it count."""
    out = [
        PairVec((0,) * (rec.index - 1) + (rec.q,), ())
        for rec in state.p_chain
        if rec.q is not None
    ]
    for rec in state.t_chain:
        if before is not None and rec.index >= before:
            break
        if rec.status != "ok":
            continue
        if rec.poly.is_zero():
            out.append(PairVec((), (0,) * (rec.index - 1) + (1,)))
        else:
            out.extend(rec.D.members)
    return out


def irreducible(state, vec, before=None):
    """True when vec dominates none of relation_leads(state, before)."""
    leads = relation_leads(state, before)
    return not any(dominates(vec, lead) for lead in leads)


def on_rows(vecs, rows):
    """The PairVecs among vecs whose every nonzero entry lies on the
    (kind, index, value) rows, as count vectors over them."""
    out = []
    for vec in vecs:
        counts = tuple(entry(vec, kind, idx) for kind, idx, _ in rows)
        if sum(counts) == sum(vec.p) + sum(vec.t):
            out.append(counts)
    return out


def unfiled(ends, n):
    """The count vectors over n generators a filed lead table
    (``grouplat.file_leads``) holds, each rebuilt from the index it is
    filed at and its head.  A lead must be filed at its first nonzero
    entry, the last the search fixes, so its head lies after it."""
    out = []
    for k, filed in ends.items():
        for head, c in filed:
            assert c > 0 and all(i > k and h > 0 for i, h in head), (k, head)
            vec = [0] * n
            vec[k] = c
            for i, h in head:
                vec[i] = h
            out.append(tuple(vec))
    return out


def chain_rows(state):
    """(kind, index, value) for every chain coordinate with nonzero value."""
    rows = [("p", r.index, r.beta) for r in state.p_chain]
    rows += [
        ("t", r.index, r.gamma)
        for r in state.t_chain
        if not r.gamma.is_zero()
    ]
    return rows


def vectors_up_to(state, cap):
    """All nonzero exponent vectors over the chain with value <= cap.

    Returns a list of (PairVec, value) pairs, enumerated by plain nested
    counting with no pruning beyond the value cap itself.
    """
    rows = chain_rows(state)
    n_p = len(state.p_chain)
    n_t = len(state.t_chain)
    out = []

    def rec(k, counts, acc):
        if k == len(rows):
            if counts:
                p = [0] * n_p
                t = [0] * n_t
                for (kind, idx), c in counts.items():
                    (p if kind == "p" else t)[idx - 1] = c
                out.append((PairVec(tuple(p), tuple(t)), acc))
            return
        kind, idx, val = rows[k]
        c = 0
        total = acc
        while total <= cap:
            nxt = dict(counts)
            if c:
                nxt[(kind, idx)] = c
            rec(k + 1, nxt, total)
            c += 1
            total = total + val

    rec(0, {}, state.basis.zero())
    return out


def survey_pick(pairs, state, skip_t, val, degree_cap):
    """The monomial a redundancy rewrite of member skip_t uses at value val.

    pairs is a vectors_up_to(state, cap) enumeration with cap >= val.
    Among its vectors of value val that leave out member skip_t, have
    polynomial degree at most degree_cap and are irreducible, the least
    in reverse lex, the exponents padded to full chain length and read
    from the last back; None when there is none.
    """
    n_p = len(state.p_chain)
    n_t = len(state.t_chain)

    def degree(vec):
        recs = [*zip(vec.p, state.p_chain), *zip(vec.t, state.t_chain)]
        return sum(c * r.poly.total_degree() for c, r in recs if c)

    def key(vec):
        padded = [entry(vec, "p", j) for j in range(1, n_p + 1)]
        padded += [entry(vec, "t", j) for j in range(1, n_t + 1)]
        return padded[::-1]

    fits = [
        vec
        for vec, total in pairs
        if total == val
        and entry(vec, "t", skip_t) == 0
        and degree(vec) <= degree_cap
        and irreducible(state, vec)
    ]
    return min(fits, key=key, default=None)


def naive_solutions(target, gens):
    """Every count tuple c >= 0 with sum(c_k*gens_k) == target, by plain
    nested counting over the positive generators."""
    out = []

    def rec(k, counts, acc):
        if k == len(gens):
            if acc == target:
                out.append(tuple(counts))
            return
        c = 0
        total = acc
        while total <= target:
            rec(k + 1, counts + [c], total)
            c += 1
            total = total + gens[k]

    rec(0, [], target.basis.zero())
    return out


def least_solution(target, gens, leads=(), degrees=(), cap=None):
    """The reverse-lex least count tuple c >= 0 (read from the last entry
    back) with sum(c_k*gens_k) == target that dominates no lead and, given
    a cap, has sum(c_k*degrees_k) <= cap; None when there is none.

    Plain counting from the last generator back, each count from 0 up,
    stopping at the first hit.  The positive generators, the nonnegative
    degrees and the leads make each condition a down-set, so a partial
    tuple past the target or the cap, or dominating a lead, is not
    extended.
    """
    n = len(gens)
    counts = [0] * n

    def fits():
        if any(all(map(ge, counts, lead)) for lead in leads):
            return False
        return cap is None or sum(map(mul, counts, degrees)) <= cap

    def rec(k, acc):
        if k < 0:
            return tuple(counts) if acc == target else None
        total = acc
        while total <= target and fits():
            got = rec(k - 1, total)
            if got is not None:
                return got
            counts[k] += 1
            total = total + gens[k]
        counts[k] = 0
        return None

    return rec(n - 1, target.basis.zero())


def minimal_vectors(pairs):
    """The domination-minimal PairVecs among (vec, value) pairs."""
    vecs = [vec for vec, _ in pairs]
    out = []
    for v in vecs:
        if not any(w != v and dominates(v, w) for w in vecs):
            out.append(v)
    return out


def naive_semigroup_member(target, gens, memo=None):
    """Membership of target in the semigroup of positive values, by recursion.

    memo, a dict from values to answers, may be shared by calls over the
    same gens."""
    if memo is None:
        memo = {}

    def rec(rest):
        if rest.is_zero():
            return True
        if rest.sign() < 0:
            return False
        got = memo.get(rest)
        if got is None:
            got = memo[rest] = any(rec(rest - g) for g in gens)
        return got

    return rec(target)


def sums_up_to(values, cap, zero):
    """Every finite sum of the given values that stays <= cap (0 included)."""
    found = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for acc in frontier:
            for v in values:
                s = acc + v
                if s <= cap and s not in found:
                    found.add(s)
                    nxt.append(s)
        frontier = nxt
    return sorted(found)


def irreducible_rewrites(state, alpha, kk, i):
    """Every rewrite of alpha over the rows p_1..p_kk and the t_j with
    j <= i and nonzero value whose PairVec dominates no lead of
    relation_leads(state); least first in reverse lex, the counts read
    from the last row back.

    The rewrites are enumerated as in naive_solutions, each count from 0
    while the rest stays nonnegative, with the completions of each
    (rows left, rest) memoized, so values far above the row values stay
    cheap."""
    rows = [("p", r.index, r.beta) for r in state.p_chain[:kk]]
    rows += [
        ("t", r.index, r.gamma) for r in state.t_chain[:i] if not r.gamma.is_zero()
    ]
    memo = {}

    def completions(k, rest):
        """The counts over rows[:k] of value rest."""
        if k == 0:
            return [()] if rest.is_zero() else []
        key = (k, rest)
        got = memo.get(key)
        if got is None:
            got = memo[key] = []
            c = 0
            while rest.sign() >= 0:
                got += [head + (c,) for head in completions(k - 1, rest)]
                c += 1
                rest = rest - rows[k - 1][2]
        return got

    leads = relation_leads(state)
    found = []
    for counts in completions(len(rows), alpha):
        p = [0] * kk
        t = [0] * i
        for (kind, idx, _), c in zip(rows, counts):
            (p if kind == "p" else t)[idx - 1] = c
        vec = PairVec(tuple(p), tuple(t))
        if not any(dominates(vec, lead) for lead in leads):
            found.append((counts[::-1], vec))
    return [vec for _, vec in sorted(found)]


def scan_value(text, basis):
    """``parse_value`` as a cursor walk over the text, one ``Scanner``
    reader per token: text like ``2*sqrt(2) - 1`` or ``7/2`` as a Value,
    or a ParseError at the offending position."""
    s = Scanner(text)
    s.skip_ws()
    if s.pos == len(text):
        raise s.error("empty value")
    # the sum so far: integer numerators over one running denominator
    nums = [0] * basis.dim
    den = 1
    op = s.take("+-")
    while True:
        s.skip_ws()
        # term: sqrt(r) | rational [* sqrt(r)]; a bare rational is over
        # sqrt(1), and only '*' joins a rational to sqrt
        rad, num, d = 1, 1, 1
        root = text.startswith("sqrt", s.pos)
        if not root:
            if not s.peek().isdecimal():
                raise s.error("expected a number or sqrt(...)")
            num, d = s.read_ratio()
            if root := bool(s.take("*")):
                s.skip_ws()
                if not text.startswith("sqrt", s.pos):
                    raise s.error("expected sqrt(...) after '*'")
        if root:
            s.pos += 4
            s.expect("(", "expected '(' after sqrt")
            s.skip_ws()
            rad_pos = s.pos
            rad = s.read_int()
            s.expect(")")
            if rad not in basis.radicands:
                raise s.error(f"radicand {rad} is not in the basis", rad_pos)
        if den % d:
            scale = d // gcd(den, d)
            nums = [a * scale for a in nums]
            den *= scale
        nums[basis.index_of(rad)] += (-num if op == "-" else num) * (den // d)
        op = s.take("+-")
        if not op:
            s.finish()
            return Value(basis, nums, den)
