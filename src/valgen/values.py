"""Exact arithmetic in ℚ-linear combinations of square roots.

Every quantity the engine compares or sorts is a number of the form

    (n_1*sqrt(r_1) + n_2*sqrt(r_2) + ... + n_d*sqrt(r_d)) / den

with integer numerators n_k over one positive common denominator den,
and a fixed tuple of distinct squarefree positive radicands r_k, the
first of which is always 1 (the rational part).  Square roots of distinct
squarefree integers are linearly independent over ℚ, so the reduced
numerators and denominator determine the number and, in particular, a
combination is zero exactly when every numerator is zero.  That fact
makes equality a syntactic check, while comparisons reduce to the sign of
a difference.  No floating point is involved anywhere.

Signs are decided by a filter over integer enclosures.  For a numerator
vector v, ``int_vec_bounds`` at FIXED_BITS (64) gives integers lo <= hi
around the fixed-point sum A = dot(v, F), where F_k = floor(2^64*sqrt(r_k))
(exactly 2^64 for r_k = 1) is cached per radicand tuple.  Each irrational
coordinate loses less than one unit to the floor, so hi - lo is at most
the sum of |v_k| over those coordinates, and

    lo <= 2^64 * sum(v_k * sqrt(r_k)) <= hi.

Bounds add, so a caller that builds vectors by adding steps carries lo/hi
along with two integer additions.  ``sign_within`` reads the sign off
lo > 0 or hi < 0 and only when the enclosure straddles zero (a near-tie
or an exact zero) falls back to ``int_vec_sign``, which catches zero
symbolically and otherwise doubles the precision from 64 bits until the
enclosure excludes zero; a nonzero combination always gets there.

Comparing two Values builds no intermediate Value.  Each Value keeps its
own 64-bit bounds once computed; disjoint intervals (after
cross-multiplying by the other denominator) decide the order, and
overlapping ones hand the numerator difference to ``int_vec_sign``.  The
threshold index in ``outputs`` carries lo/hi along its walk over integer
numerator tuples over one common denominator (``over_common_den``), and
sorts the distinct values it finds as Values, by this order.

``parse_value`` reads the ``exact_str`` form one signed term per match
of one compiled pattern (``_TERM``), sums the terms into integer
numerators over one running denominator and builds one Value from them.
A match that is no whole term ends where the text leaves the grammar,
and its groups name the error there; an integer due there is read with
``Scanner.read_int``, so a missing or over-long one is reported as the
polynomial parser in ``laurent``, built on ``Scanner``, reports it.
"""
from __future__ import annotations

import re
from collections.abc import Sequence
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from operator import attrgetter, mul

from .errors import ParseError

# the precision of the enclosure every sign decision tries first
FIXED_BITS = 64
# int()'s default digit limit, fixed so that parses ignore the interpreter's
MAX_INT_DIGITS = 4300
# the largest radicand: its squarefree test trial-divides up to 2**16
MAX_RADICAND = 2**32


def decimal_str(q: int | Fraction) -> str:
    """``str(q)`` for an int or Fraction of any size.

    ``str()`` refuses an int of more than 4,300 digits (the interpreter's
    ``sys.int_max_str_digits``, left as it is here).  A longer one is split
    by divmod into two halves of its digits, each written the same way.
    """
    n, d = q.numerator, q.denominator
    if d != 1:
        return f"{decimal_str(n)}/{decimal_str(d)}"
    # 13,000 bits stay below 4,000 digits
    if n.bit_length() <= 13_000:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(abs(n), 10**k)
    return ("-" if n < 0 else "") + decimal_str(hi) + decimal_str(lo).zfill(k)


@cache
def _sqrt_table(radicands: tuple[int, ...], bits: int) -> tuple[int, ...]:
    """floor(2^bits * sqrt(r)) for each radicand r: exactly 1 << bits for
    r == 1, less than one unit below the true product otherwise."""
    return tuple(isqrt(r << (2 * bits)) for r in radicands)


def int_vec_bounds(
    vec: Sequence[int], radicands: Sequence[int], bits: int
) -> tuple[int, int]:
    """Integer lo/hi with lo <= 2^bits * sum(vec_k * sqrt(r_k)) <= hi.

    Both start from the fixed-point sum dot(vec, _sqrt_table): an
    irrational sqrt(r_k) loses less than one unit to the floor, so its
    coefficient c raises hi by c when positive and lowers lo by |c| when
    negative.  Bounds of vectors add: the bounds of a sum are the sums of
    the bounds."""
    lo = hi = sum(map(mul, vec, _sqrt_table(tuple(radicands), bits)))
    for c, r in zip(vec, radicands):
        if r != 1:
            if c > 0:
                hi += c
            else:
                lo += c
    return lo, hi


def sign_within(
    vec: Sequence[int], lo: int, hi: int, radicands: Sequence[int]
) -> int:
    """The sign of sum(vec_k * sqrt(r_k)), given bounds lo/hi on 2^FIXED_BITS
    times it (``int_vec_bounds`` at FIXED_BITS, or sums and differences of
    such bounds).  Read off the bounds when they exclude zero; exact
    (``int_vec_sign``) when they straddle it."""
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return int_vec_sign(vec, radicands)


def int_vec_sign(vec: Sequence[int], radicands: Sequence[int]) -> int:
    """-1, 0, or +1: the sign of sum(vec_k * sqrt(r_k)).  Exact."""
    if not any(vec):
        return 0
    bits = FIXED_BITS
    while True:
        lo, hi = int_vec_bounds(vec, radicands, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        # The sum is nonzero (independence of the radicals), so a fine
        # enough enclosure must separate it from zero.
        bits *= 2


def need_int(name: str, x) -> None:
    """Refuse x unless it is a plain int, neither a bool nor a float."""
    if type(x) is not int:
        raise TypeError(f"{name} must be an int, got {x!r}")


def need_rational(name: str, x) -> None:
    """Refuse x unless it is a plain int or a Fraction: Fraction() would
    take a float as its binary fraction, read a str or a Decimal, and pass
    True as 1."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise TypeError(f"{name} must be an int or a Fraction, got {x!r}")


def _is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class Record:
    """Base of the record types: equality and repr read the record's
    fields, and a record of another class is never equal.

    A record's fields are its slots whose names do not start with ``_``,
    so caches, derived data and ``__weakref__`` stay out; a class names
    its own with ``fields=`` in its class statement.  ``_key`` reads the
    fields as one tuple, built once per class.  A plain record is
    unhashable; ``Frozen`` adds the hash of that tuple.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, fields=None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if fields is None:
            fields = [f for f in cls.__slots__ if not f.startswith("_")]
        cls._fields = tuple(fields)
        if len(fields) == 1:
            # attrgetter of one name returns the field, not a 1-tuple
            one = attrgetter(*fields)
            cls._key = staticmethod(lambda rec: (one(rec),))
        elif fields:
            cls._key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # a record equals itself, as the comparison of its key's
            # identical fields would find, without building the keys
            return self is other or self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(map("{}={!r}".format, self._fields, self._key(self)))
        return f"{self.__class__.__name__}({args})"


class Frozen(Record):
    """Base of the immutable records: hashable, and assigning or deleting
    a field raises AttributeError, so their constructors set fields with
    ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # a copy of an immutable record is the record, as for a tuple
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class RadicalBasis(Frozen):
    """The fixed list of radicands a family of values is written over.

    ``radicands`` must be strictly increasing, squarefree, at most
    ``MAX_RADICAND``, and start with 1.  Two values can only be combined
    when they carry the same basis.
    """

    __slots__ = ("radicands",)

    def __init__(self, radicands: Sequence[int]) -> None:
        rads = tuple(radicands)
        # int() would pass True as 1 and truncate 2.5 to 2
        if not all(type(r) is int for r in rads):
            raise TypeError(f"radicands must be integers, got {rads}")
        if not rads or rads[0] != 1:
            raise ValueError("radicands must start with 1")
        for a, b in zip(rads, rads[1:]):
            if a >= b:
                raise ValueError("radicands must be strictly increasing")
        for r in rads:
            if r > MAX_RADICAND:
                raise ValueError(f"radicand {decimal_str(r)} exceeds 2**32")
            if not _is_squarefree(r):
                raise ValueError(f"radicand {r} is not squarefree")
        object.__setattr__(self, "radicands", rads)

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
        return Value(self, (0,) * self.dim, 1)

    def rational(self, q: int | Fraction) -> "Value":
        need_rational("q", q)
        return self.root(1, q)

    def root(self, radicand: int, coeff: int | Fraction = 1) -> "Value":
        """The value coeff*sqrt(radicand)."""
        need_int("radicand", radicand)
        need_rational("coeff", coeff)
        nums = [0] * self.dim
        nums[self.index_of(radicand)] = coeff.numerator
        return Value(self, tuple(nums), coeff.denominator)


class Value(Frozen):
    """One exact number: a rational combination of the basis radicals.

    Stored as integer numerators ``nums`` over one denominator ``den``,
    reduced so that ``den > 0`` and ``gcd(den, *nums) == 1`` (zero is
    ``(0, ..., 0)/1``); equality and hashing are therefore structural.
    Numerators and denominator must be ``int``: a ``bool`` or a float is
    refused with TypeError.  The sign comes from ``int_vec_sign`` on the
    numerators.  ``coeffs`` gives the coefficients as Fractions, for
    presentation.

    Values are immutable and hashable.  They form an ordered ℚ-vector
    space: addition, subtraction, and scalar multiplication by rationals
    are supported, multiplication of two Values is deliberately not (the
    product would generally leave the basis).
    """

    # _bounds: int_vec_bounds of nums at FIXED_BITS, stored by _fixed the
    # first time the Value is compared; equality, hashing and repr do not
    # see it
    __slots__ = ("basis", "nums", "den", "_bounds")

    def __init__(self, basis: RadicalBasis, nums: Sequence[int], den: int) -> None:
        # tuple() returns a tuple argument itself, so only a list is copied
        nums = tuple(nums)
        # gcd would accept True as 1 and fail on 2.0 with no argument named
        if type(den) is not int:
            raise TypeError(f"den must be an integer, got {den!r}")
        for a in nums:  # a plain loop: all() over a generator costs 3x more
            if type(a) is not int:
                raise TypeError(f"nums must be integers, got {nums!r}")
        if len(nums) != basis.dim:
            raise ValueError(f"expected {basis.dim} coefficients, got {len(nums)}")
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            nums, den = tuple(-a for a in nums), -den
        g = gcd(den, *nums)
        if g != 1:
            nums, den = tuple(a // g for a in nums), den // g
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_bounds", None)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    # -- vector space structure ------------------------------------

    def _check_basis(self, other: "Value") -> None:
        if self.basis is not other.basis and self.basis != other.basis:
            raise ValueError("values carry different radical bases")

    def __add__(self, other: "Value") -> "Value":
        if not isinstance(other, Value):
            return NotImplemented
        self._check_basis(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return Value(
            self.basis,
            tuple(a * sa + b * sb for a, b in zip(self.nums, other.nums)),
            den,
        )

    def __sub__(self, other: "Value") -> "Value":
        if not isinstance(other, Value):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Value":
        return Value(self.basis, tuple(-a for a in self.nums), self.den)

    def __mul__(self, scalar: int | Fraction) -> "Value":
        if isinstance(scalar, Value):
            raise TypeError("Value*Value is not defined; scale by a rational")
        if type(scalar) is bool or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        # an int is its own numerator over denominator 1
        return Value(
            self.basis,
            tuple(a * scalar.numerator for a in self.nums),
            self.den * scalar.denominator,
        )

    __rmul__ = __mul__

    # -- order -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sign(self) -> int:
        """-1, 0, or +1.  Exact: zero is decided symbolically."""
        return int_vec_sign(self.nums, self.basis.radicands)

    def _fixed(self) -> tuple[int, int]:
        """Compute and store ``_bounds``."""
        bounds = int_vec_bounds(self.nums, self.basis.radicands, FIXED_BITS)
        object.__setattr__(self, "_bounds", bounds)
        return bounds

    def bounds_over(self, den: int) -> tuple[int, int]:
        """Integers lo <= hi with lo <= self * 2^FIXED_BITS * den <= hi:
        the ``_fixed`` bounds, over this Value's own denominator, moved to
        den."""
        lo, hi = self._bounds or self._fixed()
        return lo * den // self.den, -(-hi * den // self.den)

    def _cmp(self, other: "Value") -> int:
        """The sign of self - other.

        self lies in [lo, hi] / (den * 2^FIXED_BITS) by its ``_fixed``
        bounds; when the two intervals are disjoint, comparing their
        cross-multiplied ends decides.  Otherwise the sign of the
        numerator difference decides exactly: both denominators are
        positive, so cross-multiplying keeps the sign."""
        self._check_basis(other)
        lo1, hi1 = self._bounds or self._fixed()
        lo2, hi2 = other._bounds or other._fixed()
        da, db = other.den, self.den
        if lo1 * da > hi2 * db:
            return 1
        if hi1 * da < lo2 * db:
            return -1
        diff = [a * da - b * db for a, b in zip(self.nums, other.nums)]
        return int_vec_sign(diff, self.basis.radicands)

    def __lt__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self._cmp(other) >= 0

    # -- presentation -------------------------------------------------

    def exact_str(self) -> str:
        """Canonical text, e.g. ``2*sqrt(2) - 1`` or ``5/3``."""
        c0, *coeffs = self.coeffs
        # (coefficient, magnitude text): the radical terms, then the rational
        parts = [
            (c, f"sqrt({r})" if abs(c) == 1 else f"{decimal_str(abs(c))}*sqrt({r})")
            for c, r in zip(coeffs, self.basis.radicands[1:]) if c
        ]
        if c0 or not parts:
            parts.append((c0, decimal_str(abs(c0))))
        # the first term carries its sign alone: "-" or nothing
        out = "".join((" - " if c < 0 else " + ") + text for c, text in parts)
        return out[3:] if out[1] == "+" else "-" + out[3:]

    def approx_str(self, digits: int = 12) -> str:
        """Deterministic decimal approximation to ``digits`` significant digits."""
        if self.is_zero():
            return "0"
        # the value lies in [lo, hi] / (den << bits); refine until the
        # width is below 10^-(digits+4) of the midpoint (lo + hi) / 2
        bits = 64
        tolerance = 2 * 10 ** (digits + 4)
        while True:
            lo, hi = int_vec_bounds(self.nums, self.basis.radicands, bits)
            if (hi - lo) * tolerance < abs(lo + hi):
                break
            bits *= 2
        with localcontext() as ctx:
            ctx.prec = digits
            d = Decimal(lo + hi) / Decimal(2 * self.den << bits)
        return str(d)

    def __str__(self) -> str:
        return self.exact_str()

    def __repr__(self) -> str:
        return f"Value({self.exact_str()})"


def over_common_den(
    values: Sequence[Value], basis: RadicalBasis
) -> tuple[int, list[tuple[int, ...]]]:
    """(den, numerators): den is the lcm of the values' denominators (1
    for none) and numerators holds each value's numerators over it.
    Raises ValueError when a value carries another basis."""
    if any(v.basis != basis for v in values):
        raise ValueError("values carry different radical bases")
    den = lcm(*(v.den for v in values))
    return den, [tuple(a * (den // v.den) for a in v.nums) for v in values]


def combination(
    coeffs: Sequence[int], values: Sequence[Value], basis: RadicalBasis
) -> Value:
    """Integer combination sum(c_k * v_k), empty sum giving zero."""
    terms = [(c, v) for c, v in zip(coeffs, values) if c]
    if any(v.basis != basis for _, v in terms):
        raise ValueError("values carry different radical bases")
    den = lcm(*(v.den for _, v in terms))
    nums = [0] * basis.dim
    for c, v in terms:
        c *= den // v.den
        for k, a in enumerate(v.nums):
            nums[k] += c * a
    return Value(basis, tuple(nums), den)


# -- parsing -----------------------------------------------------------


class Scanner:
    """A cursor over text, with the readers the polynomial parser is built
    on; ``parse_value`` reads an integer with them where it reports one.

    Errors are ParseErrors at the cursor, or at a position the caller
    names.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(message, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.peek().isspace():
            self.pos += 1

    def peek(self) -> str:
        """The next character, or '' at the end."""
        return self.text[self.pos : self.pos + 1]

    def take(self, chars: str) -> str:
        """Skip whitespace and consume the next character if it is one of
        chars, returning it; otherwise return '' and leave the cursor
        where it was."""
        start = self.pos
        self.skip_ws()
        ch = self.peek()
        if ch and ch in chars:
            self.pos += 1
            return ch
        self.pos = start
        return ""

    def expect(self, ch: str, message: str | None = None) -> None:
        """Skip whitespace and consume ch, or fail where it should be."""
        self.skip_ws()
        if not self.take(ch):
            raise self.error(message or f"expected {ch!r}")

    def finish(self) -> None:
        """Fail unless only whitespace is left."""
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing text")

    def read_int(self) -> int:
        """An unsigned integer of at most MAX_INT_DIGITS decimal digits, the
        only ones int() reads (``isdigit`` also passes superscripts)."""
        start = self.pos
        while self.peek().isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        if self.pos - start > MAX_INT_DIGITS:
            raise self.error(f"integer exceeds {MAX_INT_DIGITS} digits", start)
        return int(self.text[start : self.pos])

    def read_ratio(self) -> tuple[int, int]:
        """An integer n at the cursor, or n/d with optional whitespace
        around '/', as (n, d) with d = 1 for a bare n.  A zero d is
        reported at the end of n."""
        num = self.read_int()
        end = self.pos
        if not self.take("/"):
            return num, 1
        self.skip_ws()
        den = self.read_int()
        if den == 0:
            raise self.error("zero denominator", end)
        return num, den


# one term of a value's text and the sign before it: n[/d][*sqrt(r)] or
# sqrt(r), whitespace allowed between tokens, an integer of at most
# MAX_INT_DIGITS digits.  Each token after the sign is optional but
# follows only a whole prefix of a term, so a match runs to where the text
# leaves the grammar, and its last group names the token there; a term
# is whole when that is one of _TERM_ENDS.  (?!) never matches: it bars
# '*' after an n/ without d, and sqrt after a number without '*'.
_INT = rf"\d{{1,{MAX_INT_DIGITS}}}(?!\d)"
_TERM = re.compile(
    rf"""\s* (?P<sign>[+-]?) \s*
    (?: (?P<num>{_INT})
        (?: \s* (?P<slash>/) \s* (?P<den>{_INT})? )?
        (?: (?(slash)(?(den)|(?!))) \s* (?P<star>\*) \s* )? )?
    (?: (?(num)(?(star)|(?!))) (?P<root>sqrt) \s*
        (?: (?P<open>\() \s* (?: (?P<rad>{_INT}) \s* (?P<close>\))? )? )? )?
    \s*""",
    re.VERBOSE,
)
_TERM_ENDS = frozenset(("num", "den", "close"))


def parse_value(text: str, basis: RadicalBasis) -> Value:
    """Parse text like ``2*sqrt(2) - 1`` or ``7/2`` into a Value.

    Terms are rationals, ``sqrt(r)``, or ``q*sqrt(r)`` with r a basis
    radicand, joined by ``+`` and ``-``; the first may carry a sign.
    Raises ParseError with the offending position otherwise.
    """
    radicands = basis.radicands
    # the sum so far: integer numerators over one running denominator
    nums = [0] * basis.dim
    den = 1
    m = _TERM.match(text)
    while True:
        sign, num, d, rad = m.group("sign", "num", "den", "rad")
        d = int(d) if d else 1
        # a bare n/d is over sqrt(1)
        rad = int(rad) if rad else 1
        if not d or rad not in radicands or m.lastgroup not in _TERM_ENDS:
            raise _term_error(text, m)
        num = int(num) if num else 1
        if den % d:
            scale = d // gcd(den, d)
            nums = [a * scale for a in nums]
            den *= scale
        if sign == "-":
            num = -num
        nums[radicands.index(rad)] += num * (den // d)
        pos = m.end()
        if pos == len(text):
            return Value(basis, nums, den)
        m = _TERM.match(text, pos)
        if not m["sign"]:
            raise ParseError("unexpected trailing text", pos)


def _term_error(text: str, m: re.Match) -> ParseError:
    """The ParseError of a ``_TERM`` match that is no term: the first in
    the text of a zero denominator, the grammar left where the match
    ends, and a radicand outside the basis."""
    if m["den"] and not int(m["den"]):
        return ParseError("zero denominator", m.end("num"))
    s = Scanner(text)
    s.pos = m.end()
    last = m.lastgroup
    # an integer is due: none is there, or it has too many digits
    if last in ("slash", "open") or (last == "sign" and s.peek().isdecimal()):
        s.read_int()
    if last == "sign":
        if not m["sign"] and s.pos == len(text):
            return s.error("empty value")
        return s.error("expected a number or sqrt(...)")
    if last == "star":
        return s.error("expected sqrt(...) after '*'")
    if last == "root":
        return s.error("expected '(' after sqrt")
    if last == "rad":
        return s.error("expected ')'")
    return ParseError(
        f"radicand {int(m['rad'])} is not in the basis", m.start("rad")
    )
