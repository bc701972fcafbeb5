"""Sparse multivariate Laurent polynomials with exact rational coefficients.

A polynomial is stored as a sorted tuple of (exponent vector, coefficient)
pairs over a fixed tuple of variable names.  Exponents are integers and
may be negative; coefficients are nonzero Fractions.  The term order is
descending lexicographic on the exponent vector, which fixes a canonical
form, so equality and hashing are structural.

The public constructor checks and normalizes what it is given.  The
arithmetic operators start from canonical operands, so they build their
results through ``_from_raw``, which only drops zero terms and sorts.  A
product runs on plain integers: each operand's coefficients become integer
numerators over that operand's common denominator, and one Fraction is
made per result term.

``parse_polynomial`` reads the ``text`` form back with a parser built on
``values.Scanner``, so whitespace, ``n/d`` numbers and errors read as in
``parse_value``.  Variable names follow the usual identifier rules but
may also contain apostrophes after the first character, so a primed
coordinate like z' is a single variable.  A product or power whose
result could pass ``MAX_EXPANSION_BITS``, as reckoned from its operands,
is refused before it is computed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import add, itemgetter
from typing import Mapping, Sequence, Union

from .errors import NonInvertibleSubstitution
from .values import Scanner, decimal_str

Rational = Union[int, Fraction]
Term = tuple[tuple[int, ...], Fraction]

# the most the parser lets one product or power make, in bits: a bound
# on the result's terms times the bits of its coefficients over their
# common denominator (``_expansion_bits``), reckoned from the operands
# before anything is multiplied.  Past it a text could keep the parser
# computing, and growing memory, before any search bound applies.
MAX_EXPANSION_BITS = 1 << 16


_EXPONENTS = itemgetter(0)


def _sorted_terms(raw: Mapping[tuple[int, ...], Fraction]) -> tuple[Term, ...]:
    """The nonzero entries of raw in descending exponent order."""
    terms = [(exp, c) for exp, c in raw.items() if c]
    terms.sort(key=_EXPONENTS, reverse=True)
    return tuple(terms)


def _numerators(
    terms: tuple[Term, ...]
) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """The terms' common denominator and their integer numerators over it."""
    den = lcm(*(c.denominator for _, c in terms))
    return den, [
        (exp, c.numerator * (den // c.denominator)) for exp, c in terms
    ]


@dataclass(frozen=True)
class LaurentPoly:
    vars: tuple[str, ...]
    terms: tuple[Term, ...]

    # Construction goes through the classmethods below; __post_init__
    # checks and normalizes what it is given.
    def __post_init__(self) -> None:
        vars_ = tuple(self.vars)
        if len(set(vars_)) != len(vars_):
            raise ValueError("duplicate variable names")
        raw: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms:
            e = tuple(exp)
            if len(e) != len(vars_):
                raise ValueError("exponent length does not match variables")
            # a float would be truncated or turned into a binary fraction
            if not all(type(x) is not bool and isinstance(x, int) for x in e):
                raise TypeError(f"exponents must be integers, got {e!r}")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"coefficients must be int or Fraction, got {c!r}"
                )
            raw[e] = raw.get(e, Fraction(0)) + Fraction(c)
        object.__setattr__(self, "vars", vars_)
        object.__setattr__(self, "terms", _sorted_terms(raw))

    @classmethod
    def _from_raw(
        cls, vars_: tuple[str, ...], raw: Mapping[tuple[int, ...], Fraction]
    ) -> "LaurentPoly":
        """A polynomial from checked exponent tuples and Fraction
        coefficients, as the operators make them from canonical operands:
        zero terms are dropped and the rest sorted, nothing is re-checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "vars", vars_)
        object.__setattr__(out, "terms", _sorted_terms(raw))
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, vars_: Sequence[str]) -> "LaurentPoly":
        return cls(tuple(vars_), ())

    @classmethod
    def constant(cls, vars_: Sequence[str], c: Rational) -> "LaurentPoly":
        v = tuple(vars_)
        return cls(v, (((0,) * len(v), c),))

    @classmethod
    def monomial(
        cls,
        vars_: Sequence[str],
        exponents: Sequence[int],
        coeff: Rational = 1,
    ) -> "LaurentPoly":
        return cls(tuple(vars_), ((tuple(exponents), coeff),))

    @classmethod
    def variable(cls, vars_: Sequence[str], name: str) -> "LaurentPoly":
        v = tuple(vars_)
        exps = [0] * len(v)
        exps[v.index(name)] = 1
        return cls.monomial(v, exps)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def total_degree(self) -> int | None:
        """Max over terms of the exponent sum; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(exp) for exp, _ in self.terms)

    def _check_vars(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("polynomials live over different variables")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_vars(other)
        raw = dict(self.terms)
        for exp, c in other.terms:
            raw[exp] = raw.get(exp, 0) + c
        return self._from_raw(self.vars, raw)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "LaurentPoly":
        return self._from_raw(self.vars, {e: -c for e, c in self.terms})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_vars(other)
        d1, t1 = _numerators(self.terms)
        d2, t2 = _numerators(other.terms)
        raw: dict[tuple[int, ...], int] = {}
        get = raw.get
        for e1, n1 in t1:
            for e2, n2 in t2:
                key = tuple(map(add, e1, e2))
                raw[key] = get(key, 0) + n1 * n2
        den = d1 * d2
        return self._from_raw(
            self.vars, {e: Fraction(n, den) for e, n in raw.items() if n}
        )

    def scale(self, c: Rational) -> "LaurentPoly":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"scalars must be int or Fraction, got {c!r}")
        return self._from_raw(self.vars, {e: k * c for e, k in self.terms})

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if self.is_monomial():
            # any integer power of a monomial scales its exponents
            ((exp, c),) = self.terms
            return self._from_raw(self.vars, {tuple(n * e for e in exp): c**n})
        if n < 0:
            raise NonInvertibleSubstitution("negative power of a non-monomial")
        if n == 0:
            return LaurentPoly.constant(self.vars, 1)
        # repeated multiplication: for sparse operands it makes fewer term
        # products than squaring, whose squares fill in
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def derivative(self, var: str) -> "LaurentPoly":
        """The partial derivative in the variable named var."""
        k = self.vars.index(var)
        raw = {}
        for exp, c in self.terms:
            if exp[k]:
                lowered = list(exp)
                lowered[k] -= 1
                raw[tuple(lowered)] = c * exp[k]
        return self._from_raw(self.vars, raw)

    # -- substitution ----------------------------------------------------

    def substitute(
        self, images: Mapping[str, "LaurentPoly"]
    ) -> "LaurentPoly":
        """Replace every variable by its image polynomial, with the ring
        operations above: per term, the coefficient times the images'
        powers, and the sum of those.

        All images must share one variable tuple, which becomes the
        variable tuple of the result.  A negative power of an image that
        is not a monomial raises NonInvertibleSubstitution (``__pow__``).
        """
        if not images:
            raise ValueError("no images given")
        target_vars = next(iter(images.values())).vars
        for img in images.values():
            if img.vars != target_vars:
                raise ValueError("images live over different variables")
        out = LaurentPoly.zero(target_vars)
        for exp, c in self.terms:
            term = LaurentPoly.constant(target_vars, c)
            for name, e in zip(self.vars, exp):
                if e:
                    if name not in images:
                        raise ValueError(f"no image for variable {name}")
                    term = term * images[name] ** e
            out = out + term
        return out

    # -- text form ---------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering; parse_polynomial inverts it."""
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for i, (exp, c) in enumerate(self.terms):
            factors = [decimal_str(abs(c))]
            for name, e in zip(self.vars, exp):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if i == 0:
                chunks.append(("-" if c < 0 else "") + body)
            else:
                chunks.append((" - " if c < 0 else " + ") + body)
        return "".join(chunks)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"


# -- parser -----------------------------------------------------------------
#
# expr   := ['+'|'-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ['^' ['-'] integer]
# atom   := name | rational | '(' expr ')'
# Adjacency does not multiply; '*' is required between factors.


def _coeff_bits(f: LaurentPoly) -> int:
    """Bits of f's coefficients: ceil(log2) of their largest numerator over
    the common denominator plus ceil(log2) of that denominator, so 0 for
    coefficients of 1 and -1."""
    den, nums = _numerators(f.terms)
    top = max((abs(n) for _, n in nums), default=1)
    return (top - 1).bit_length() + (den - 1).bit_length()


def _expansion_bits(f: LaurentPoly, g: LaurentPoly | None, n: int = 1) -> int:
    """A bound on the size of f*g, or of f^n when g is None: its terms,
    times one plus the bits of its coefficients.

    f*g has at most s*t terms for s and t terms in f and g, each a sum of
    at most min(s, t) products; f^n has at most comb(n + t - 1, t - 1)
    terms, one per multiset of n of f's t terms, whose coefficients sum
    at most t^n products.  A monomial's power keeps one term and reaches
    n times its coefficient's bits."""
    t = len(f.terms)
    if g is None:
        terms = comb(n + t - 1, t - 1) if t else 0
        bits = n * (_coeff_bits(f) + (t - 1).bit_length())
    else:
        s = len(g.terms)
        terms = s * t
        bits = _coeff_bits(f) + _coeff_bits(g) + (min(s, t) - 1).bit_length()
    return terms * (bits + 1)


class _Parser(Scanner):
    def __init__(self, text: str, vars_: tuple[str, ...]):
        super().__init__(text)
        self.vars = vars_

    def parse_expr(self) -> LaurentPoly:
        negate = self.take("+-") == "-"
        out = self.parse_term()
        if negate:
            out = -out
        while op := self.take("+-"):
            nxt = self.parse_term()
            out = out + nxt if op == "+" else out - nxt
        return out

    def parse_term(self) -> LaurentPoly:
        out = self.parse_factor()
        while self.take("*"):
            self.skip_ws()
            at = self.pos
            nxt = self.parse_factor()
            if _expansion_bits(out, nxt) > MAX_EXPANSION_BITS:
                raise self.error(
                    f"product exceeds {MAX_EXPANSION_BITS} bits", at
                )
            out = out * nxt
        return out

    def parse_factor(self) -> LaurentPoly:
        self.skip_ws()
        at = self.pos
        base = self.parse_atom()
        if not self.take("^"):
            return base
        self.skip_ws()
        exp_at = self.pos
        neg = bool(self.take("-"))
        n = self.read_int()
        if neg and not base.is_monomial():
            raise self.error("negative power of a non-monomial", at)
        if _expansion_bits(base, None, n) > MAX_EXPANSION_BITS:
            raise self.error(
                f"power {'-' if neg else ''}{n} exceeds "
                f"{MAX_EXPANSION_BITS} bits",
                exp_at,
            )
        return base ** (-n if neg else n)

    def parse_atom(self) -> LaurentPoly:
        if self.take("("):
            inner = self.parse_expr()
            self.expect(")")
            return inner
        ch = self.peek()
        if ch.isalpha() or ch == "_":
            at = self.pos
            self.pos += 1
            while self.peek().isalnum() or self.peek() in ("_", "'"):
                self.pos += 1
            name = self.text[at : self.pos]
            if name not in self.vars:
                raise self.error(f"unknown variable {name!r}", at)
            return LaurentPoly.variable(self.vars, name)
        if ch.isdecimal():
            return LaurentPoly.constant(self.vars, Fraction(*self.read_ratio()))
        raise self.error("expected a variable, number, or '('")


def parse_polynomial(text: str, vars_: Sequence[str]) -> LaurentPoly:
    """Parse text like ``x*z - y^2`` over the given variables.

    Raises ParseError with a character position on malformed input,
    unknown variable names, a negative power of a non-monomial, or a
    product or power whose result could exceed MAX_EXPANSION_BITS.
    """
    p = _Parser(text, tuple(vars_))
    out = p.parse_expr()
    p.finish()
    return out
