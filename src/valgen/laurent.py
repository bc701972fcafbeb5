"""Sparse multivariate Laurent polynomials with exact rational coefficients.

A polynomial is stored as a sorted tuple of (exponent vector, coefficient)
pairs over a fixed tuple of variable names.  Exponents are integers and
may be negative; coefficients are nonzero Fractions.  The term order is
descending lexicographic on the exponent vector, which fixes a canonical
form, so equality and hashing are structural.

Variable names follow the usual identifier rules but may also contain
apostrophes after the first character, so a primed coordinate like z'
is a single variable.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import NonInvertibleSubstitution, ParseError

Rational = Union[int, Fraction]
Term = tuple[tuple[int, ...], Fraction]


def _canonical(
    vars_: tuple[str, ...], raw: Mapping[tuple[int, ...], Fraction]
) -> tuple[Term, ...]:
    terms = [(exp, c) for exp, c in raw.items() if c != 0]
    for exp, _ in terms:
        if len(exp) != len(vars_):
            raise ValueError("exponent length does not match variables")
    terms.sort(key=lambda t: t[0], reverse=True)
    return tuple(terms)


@dataclass(frozen=True)
class LaurentPoly:
    vars: tuple[str, ...]
    terms: tuple[Term, ...]

    # Construction goes through the classmethods below; __post_init__
    # only normalizes what it is given.
    def __post_init__(self) -> None:
        vars_ = tuple(self.vars)
        if len(set(vars_)) != len(vars_):
            raise ValueError("duplicate variable names")
        raw: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms:
            e = tuple(int(x) for x in exp)
            raw[e] = raw.get(e, Fraction(0)) + Fraction(c)
        object.__setattr__(self, "vars", vars_)
        object.__setattr__(self, "terms", _canonical(vars_, raw))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, vars_: Sequence[str]) -> "LaurentPoly":
        return cls(tuple(vars_), ())

    @classmethod
    def constant(cls, vars_: Sequence[str], c: Rational) -> "LaurentPoly":
        v = tuple(vars_)
        return cls(v, (((0,) * len(v), Fraction(c)),))

    @classmethod
    def monomial(
        cls,
        vars_: Sequence[str],
        exponents: Sequence[int],
        coeff: Rational = 1,
    ) -> "LaurentPoly":
        v = tuple(vars_)
        return cls(v, ((tuple(int(e) for e in exponents), Fraction(coeff)),))

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

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        key = tuple(int(e) for e in exponents)
        for exp, c in self.terms:
            if exp == key:
                return c
        return Fraction(0)

    def _check_vars(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("polynomials live over different variables")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_vars(other)
        raw = {exp: c for exp, c in self.terms}
        for exp, c in other.terms:
            raw[exp] = raw.get(exp, Fraction(0)) + c
        return LaurentPoly(self.vars, tuple(raw.items()))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.vars, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_vars(other)
        raw: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                raw[key] = raw.get(key, Fraction(0)) + c1 * c2
        return LaurentPoly(self.vars, tuple(raw.items()))

    def scale(self, c: Rational) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly.zero(self.vars)
        return LaurentPoly(self.vars, tuple((e, k * c) for e, k in self.terms))

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_monomial():
                raise NonInvertibleSubstitution(
                    "negative power of a non-monomial"
                )
            exp, c = self.terms[0]
            return LaurentPoly(
                self.vars,
                ((tuple(n * e for e in exp), Fraction(1) / (c ** (-n))),),
            )
        if n == 0:
            return LaurentPoly.constant(self.vars, 1)
        # square and multiply, with no product by the constant 1 and no
        # square past the top bit
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- substitution ----------------------------------------------------

    def substitute(
        self, images: Mapping[str, "LaurentPoly"]
    ) -> "LaurentPoly":
        """Replace every variable by its image polynomial.

        All images must share one variable tuple, which becomes the
        variable tuple of the result.  A variable occurring with a
        negative exponent must map to an invertible monomial, otherwise
        NonInvertibleSubstitution is raised.
        """
        if not images:
            raise ValueError("no images given")
        target_vars = next(iter(images.values())).vars
        for img in images.values():
            if img.vars != target_vars:
                raise ValueError("images live over different variables")
        # each image power is built once per call, and the terms' images
        # are summed into one dict instead of one rebuilt sum per term
        powers: dict[tuple[str, int], LaurentPoly] = {}
        one = (((0,) * len(target_vars), Fraction(1)),)
        raw: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms:
            term = None
            for name, e in zip(self.vars, exp):
                if e == 0:
                    continue
                power = powers.get((name, e))
                if power is None:
                    if name not in images:
                        raise ValueError(f"no image for variable {name}")
                    img = images[name]
                    if e < 0 and not img.is_monomial():
                        raise NonInvertibleSubstitution(
                            f"variable {name} occurs with exponent {e} but "
                            "its image is not a monomial"
                        )
                    power = powers[(name, e)] = img ** e
                term = power if term is None else term * power
            for e, k in one if term is None else term.terms:
                raw[e] = raw.get(e, Fraction(0)) + c * k
        return LaurentPoly(target_vars, tuple(raw.items()))

    # -- text form ---------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering; parse_polynomial inverts it."""
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for i, (exp, c) in enumerate(self.terms):
            factors = []
            if c.denominator == 1:
                coeff_text = str(abs(c.numerator))
            else:
                coeff_text = f"{abs(c.numerator)}/{c.denominator}"
            factors.append(coeff_text)
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
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ['^' ['-'] integer]
# atom   := name | rational | '(' expr ')'
# Adjacency does not multiply; '*' is required between factors.


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_'"


class _Parser:
    def __init__(self, text: str, vars_: tuple[str, ...]):
        self.text = text
        self.vars = vars_
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def read_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def read_name(self) -> str:
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and _is_name_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start : self.pos]

    def parse_expr(self) -> LaurentPoly:
        self.skip_ws()
        sign_ = 1
        if self.peek() == "-":
            sign_ = -1
            self.pos += 1
        elif self.peek() == "+":
            self.pos += 1
        out = self.parse_term()
        if sign_ < 0:
            out = -out
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch != "+" and ch != "-":
                return out
            self.pos += 1
            nxt = self.parse_term()
            out = out + nxt if ch == "+" else out - nxt

    def parse_term(self) -> LaurentPoly:
        out = self.parse_factor()
        while True:
            self.skip_ws()
            if self.peek() != "*":
                return out
            self.pos += 1
            out = out * self.parse_factor()

    def parse_factor(self) -> LaurentPoly:
        base = self.parse_atom()
        self.skip_ws()
        if self.peek() != "^":
            return base
        self.pos += 1
        self.skip_ws()
        neg = False
        if self.peek() == "-":
            neg = True
            self.pos += 1
        n = self.read_int()
        return base ** (-n if neg else n)

    def parse_atom(self) -> LaurentPoly:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.skip_ws()
            self.expect(")")
            return inner
        if _is_name_start(ch):
            at = self.pos
            name = self.read_name()
            if name not in self.vars:
                self.pos = at
                raise self.error(f"unknown variable {name!r}")
            return LaurentPoly.variable(self.vars, name)
        if ch.isdigit():
            num = self.read_int()
            save = self.pos
            self.skip_ws()
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                at = self.pos
                den = self.read_int()
                if den == 0:
                    self.pos = at
                    raise self.error("zero denominator")
                return LaurentPoly.constant(self.vars, Fraction(num, den))
            self.pos = save
            return LaurentPoly.constant(self.vars, num)
        raise self.error("expected a variable, number, or '('")


def parse_polynomial(text: str, vars_: Sequence[str]) -> LaurentPoly:
    """Parse text like ``x*z - y^2`` over the given variables.

    Raises ParseError with a character position on malformed input or
    unknown variable names.
    """
    p = _Parser(text, tuple(vars_))
    out = p.parse_expr()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("unexpected trailing text")
    return out
