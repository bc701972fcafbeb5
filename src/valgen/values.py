"""Exact arithmetic in ℚ-linear combinations of square roots.

Every quantity the engine compares or sorts is a number of the form

    c_1*sqrt(r_1) + c_2*sqrt(r_2) + ... + c_d*sqrt(r_d)

with rational coefficients c_k over a fixed tuple of distinct squarefree
positive radicands r_k, the first of which is always 1 (the rational
part).  Square roots of distinct squarefree integers are linearly
independent over ℚ, so the coefficient tuple determines the number and,
in particular, a combination is zero exactly when every coefficient is
zero.  That fact makes equality a syntactic check, while comparisons
reduce to the sign of a difference, decided by refining integer
enclosures of each sqrt(r_k) until the interval for the whole sum
excludes zero.  No floating point is involved anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import Iterable, Sequence, Union

from .errors import ParseError

Rational = Union[int, Fraction]

@cache
def _sqrt_floor_scaled(radicand: int, bits: int) -> int:
    """isqrt(r << 2*bits), i.e. the floor of sqrt(r) scaled by 2^bits."""
    return isqrt(radicand << (2 * bits))


def _is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class RadicalBasis:
    """The fixed list of radicands a family of values is written over.

    ``radicands`` must be strictly increasing, squarefree, and start
    with 1.  Two values can only be combined when they carry the same
    basis.
    """

    radicands: tuple[int, ...]

    def __post_init__(self) -> None:
        rads = tuple(int(r) for r in self.radicands)
        object.__setattr__(self, "radicands", rads)
        if not rads or rads[0] != 1:
            raise ValueError("radicands must start with 1")
        for a, b in zip(rads, rads[1:]):
            if a >= b:
                raise ValueError("radicands must be strictly increasing")
        for r in rads:
            if not _is_squarefree(r):
                raise ValueError(f"radicand {r} is not squarefree")

    @property
    def dim(self) -> int:
        return len(self.radicands)

    def index_of(self, radicand: int) -> int:
        try:
            return self.radicands.index(radicand)
        except ValueError:
            raise ValueError(
                f"radicand {radicand} is not in basis {self.radicands}"
            ) from None

    def zero(self) -> "Value":
        return Value(self, (Fraction(0),) * self.dim)

    def rational(self, q: Rational) -> "Value":
        coeffs = [Fraction(0)] * self.dim
        coeffs[0] = Fraction(q)
        return Value(self, tuple(coeffs))

    def root(self, radicand: int, coeff: Rational = 1) -> "Value":
        """The value coeff*sqrt(radicand)."""
        coeffs = [Fraction(0)] * self.dim
        coeffs[self.index_of(radicand)] = Fraction(coeff)
        return Value(self, tuple(coeffs))

    def from_coeffs(self, coeffs: Iterable[Rational]) -> "Value":
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != self.dim:
            raise ValueError(
                f"expected {self.dim} coefficients, got {len(cs)}"
            )
        return Value(self, cs)


@dataclass(frozen=True)
class Value:
    """One exact number: a rational combination of the basis radicals.

    Values are immutable and hashable.  They form an ordered ℚ-vector
    space: addition, subtraction, and scalar multiplication by rationals
    are supported, multiplication of two Values is deliberately not (the
    product would generally leave the basis).
    """

    basis: RadicalBasis
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coeffs)
        if len(cs) != self.basis.dim:
            raise ValueError("coefficient count does not match basis")
        object.__setattr__(self, "coeffs", cs)

    # -- vector space structure ------------------------------------

    def _check_basis(self, other: "Value") -> None:
        if self.basis != other.basis:
            raise ValueError("values carry different radical bases")

    def __add__(self, other: "Value") -> "Value":
        if not isinstance(other, Value):
            return NotImplemented
        self._check_basis(other)
        return Value(
            self.basis,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "Value") -> "Value":
        if not isinstance(other, Value):
            return NotImplemented
        self._check_basis(other)
        return Value(
            self.basis,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "Value":
        return Value(self.basis, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: Rational) -> "Value":
        if isinstance(scalar, Value):
            raise TypeError("Value*Value is not defined; scale by a rational")
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return Value(self.basis, tuple(a * scalar for a in self.coeffs))

    __rmul__ = __mul__

    # -- order -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def _enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """A rational interval containing the value, width shrinking in bits."""
        lo = Fraction(0)
        hi = Fraction(0)
        scale = 1 << bits
        for c, r in zip(self.coeffs, self.basis.radicands):
            if c == 0:
                continue
            if r == 1:
                lo += c
                hi += c
                continue
            f = _sqrt_floor_scaled(r, bits)
            root_lo = Fraction(f, scale)
            root_hi = Fraction(f + 1, scale)
            if c > 0:
                lo += c * root_lo
                hi += c * root_hi
            else:
                lo += c * root_hi
                hi += c * root_lo
        return lo, hi

    def sign(self) -> int:
        """-1, 0, or +1.  Exact: zero is decided symbolically."""
        if self.is_zero():
            return 0
        if self.is_rational():
            c = self.coeffs[0]
            return -1 if c < 0 else 1
        bits = 64
        while True:
            lo, hi = self._enclosure(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            # The value is nonzero (independence of the radicals), so a
            # fine enough enclosure must separate it from zero.
            bits *= 2

    def __lt__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return (self - other).sign() >= 0

    def floor_ratio(self, other: "Value") -> int:
        """Largest integer n with n*other <= self; other must be positive."""
        self._check_basis(other)
        if other.sign() <= 0:
            raise ValueError("floor_ratio requires a positive divisor")
        if self.sign() < 0:
            raise ValueError("floor_ratio requires a nonnegative dividend")
        # Start from an enclosure-based guess, then correct exactly.
        bits = 64
        while True:
            slo, shi = self._enclosure(bits)
            olo, ohi = other._enclosure(bits)
            if olo > 0:
                break
            bits *= 2
        n = int(shi / olo)
        while n * other > self:
            n -= 1
        while (n + 1) * other <= self:
            n += 1
        return n

    # -- presentation -------------------------------------------------

    def exact_str(self) -> str:
        """Canonical text, e.g. ``2*sqrt(2) - 1`` or ``5/3``."""
        parts: list[tuple[int, str]] = []  # (sign, magnitude text)
        for c, r in zip(self.coeffs[1:], self.basis.radicands[1:]):
            if c == 0:
                continue
            mag = abs(c)
            if mag == 1:
                text = f"sqrt({r})"
            else:
                text = f"{mag}*sqrt({r})"
            parts.append((1 if c > 0 else -1, text))
        c0 = self.coeffs[0]
        if c0 != 0 or not parts:
            parts.append((1 if c0 >= 0 else -1, str(abs(c0))))
        first_sign, first_text = parts[0]
        out = ("-" if first_sign < 0 else "") + first_text
        for sign_, text in parts[1:]:
            out += (" - " if sign_ < 0 else " + ") + text
        return out

    def approx_str(self, digits: int = 12) -> str:
        """Deterministic decimal approximation to ``digits`` significant digits."""
        if self.is_zero():
            return "0"
        bits = 64
        target = Fraction(1, 10 ** (digits + 4))
        while True:
            lo, hi = self._enclosure(bits)
            mid = (lo + hi) / 2
            if hi - lo < abs(mid) * target:
                break
            bits *= 2
        with localcontext() as ctx:
            ctx.prec = digits
            d = Decimal(mid.numerator) / Decimal(mid.denominator)
        return str(d)

    def __str__(self) -> str:
        return self.exact_str()

    def __repr__(self) -> str:
        return f"Value({self.exact_str()})"


def combination(
    coeffs: Sequence[int], values: Sequence[Value], basis: RadicalBasis
) -> Value:
    """Integer combination sum(c_k * v_k), empty sum giving zero."""
    acc = basis.zero()
    for c, v in zip(coeffs, values):
        if c:
            acc = acc + c * v
    return acc


# -- parsing -----------------------------------------------------------


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _read_int(text: str, pos: int) -> tuple[int, int]:
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        raise ParseError("expected an integer", start)
    return int(text[start:pos]), pos


def _read_rational(text: str, pos: int) -> tuple[Fraction, int]:
    num, pos = _read_int(text, pos)
    save = pos
    pos = _skip_ws(text, pos)
    if pos < len(text) and text[pos] == "/":
        pos = _skip_ws(text, pos + 1)
        den, pos = _read_int(text, pos)
        if den == 0:
            raise ParseError("zero denominator", save)
        return Fraction(num, den), pos
    return Fraction(num), save


def parse_value(text: str, basis: RadicalBasis) -> Value:
    """Parse text like ``2*sqrt(2) - 1`` or ``7/2`` into a Value.

    Terms are rationals, ``sqrt(r)``, or ``q*sqrt(r)`` with r a basis
    radicand, joined by ``+`` and ``-``.  Raises ParseError with the
    offending position otherwise.
    """
    pos = _skip_ws(text, 0)
    if pos == len(text):
        raise ParseError("empty value", pos)
    total = basis.zero()
    sign_ = 1
    first = True
    while True:
        pos = _skip_ws(text, pos)
        if not first or (pos < len(text) and text[pos] in "+-"):
            if pos >= len(text) or text[pos] not in "+-":
                raise ParseError("expected '+' or '-'", pos)
            sign_ = 1 if text[pos] == "+" else -1
            pos = _skip_ws(text, pos + 1)
        first = False
        # term: sqrt(r) | rational [* sqrt(r)]
        if text.startswith("sqrt", pos):
            coeff = Fraction(1)
        else:
            if pos >= len(text) or not text[pos].isdigit():
                raise ParseError("expected a number or sqrt(...)", pos)
            coeff, pos = _read_rational(text, pos)
            save = pos
            pos = _skip_ws(text, pos)
            if pos < len(text) and text[pos] == "*":
                pos = _skip_ws(text, pos + 1)
                if not text.startswith("sqrt", pos):
                    raise ParseError("expected sqrt(...) after '*'", pos)
            else:
                pos = save
        if text.startswith("sqrt", pos):
            pos = _skip_ws(text, pos + 4)
            if pos >= len(text) or text[pos] != "(":
                raise ParseError("expected '(' after sqrt", pos)
            pos = _skip_ws(text, pos + 1)
            rad_pos = pos
            rad, pos = _read_int(text, pos)
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            try:
                idx = basis.index_of(rad)
            except ValueError:
                raise ParseError(
                    f"radicand {rad} is not in the basis", rad_pos
                ) from None
            term = [Fraction(0)] * basis.dim
            term[idx] = coeff * sign_
            total = total + Value(basis, tuple(term))
        else:
            total = total + basis.rational(coeff * sign_)
        pos = _skip_ws(text, pos)
        if pos == len(text):
            return total
        if text[pos] not in "+-":
            raise ParseError("unexpected trailing text", pos)
