"""Sparse multivariate Laurent polynomials with exact rational coefficients.

A polynomial over a fixed tuple of variable names is stored packed, as
integer keys and numerators over one positive denominator.  A term's key
holds one 32-bit field per variable, the first variable highest, each
the exponent plus 2^31; so exponents lie within +-MAX_EXPONENT (2^31 - 1),
descending keys are descending lexicographic exponents, and a product of
two monomials is one addition of keys less the zero vector's key.  Keys
are kept descending and the numerators coprime to the denominator, a
canonical form, so equality and hashing are structural.  The operators
work on keys and numerators alone; exponent tuples and Fractions appear
only in the constructor, the parser and the readers (``exponents``,
``terms``, ``text``), and other modules read keys only through
``exponents``.  ``_reach`` bounds each variable's absolute exponents (a
sum's is the larger of its operands', a product's their sum), and a
product, power or derivative with a bound past MAX_EXPONENT is refused
before it is computed.

``parse_polynomial`` reads the ``text`` form back with a parser built on
``values.Scanner``, so whitespace, ``n/d`` numbers and errors read as in
``parse_value``.  Variable names follow the usual identifier rules but
may also contain apostrophes after the first character, so a primed
coordinate like z' is a single variable.  A product or power whose
result could pass ``MAX_EXPANSION_BITS``, as reckoned from its operands,
or whose exponents could leave their field, is refused before it is
computed.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add
from struct import pack, unpack

from .errors import NonInvertibleSubstitution
from .values import Frozen, Scanner, decimal_str

Term = tuple[tuple[int, ...], Fraction]

# the most the parser lets one product or power make, in bits: a bound
# on the result's terms times the bits of its coefficients over their
# common denominator (``_expansion_bits``), reckoned from the operands
# before anything is multiplied.  Past it a text could keep the parser
# computing, and growing memory, before any search bound applies.
MAX_EXPANSION_BITS = 1 << 16

FIELD_BITS = 32
# a field holds its exponent plus _OFFSET
_OFFSET = 1 << FIELD_BITS - 1
MAX_EXPONENT = _OFFSET - 1
_ZERO_FIELD = _OFFSET.to_bytes(FIELD_BITS // 8, "big")


def _fit(reach, what: str) -> tuple[int, ...]:
    """The bounds reach as a tuple, refused when one passes MAX_EXPONENT."""
    reach = tuple(reach)
    if max(reach, default=0) > MAX_EXPONENT:
        raise ValueError(f"{what} could take an exponent past +-{MAX_EXPONENT}")
    return reach


def _zero_key(n: int) -> int:
    """The key of the zero exponent vector over n variables."""
    return int.from_bytes(_ZERO_FIELD * n, "big")


class LaurentPoly(Frozen, fields=("vars", "_keys", "_nums", "_denom")):
    # equality and hashing read the packed form, not the derived _reach
    __slots__ = ("vars", "_keys", "_nums", "_denom", "_reach")

    def __init__(self, vars: Sequence[str], terms) -> None:
        vars_ = tuple(vars)
        if len(set(vars_)) != len(vars_):
            raise ValueError("duplicate variable names")
        raw: dict[tuple[int, ...], Fraction] = {}
        for exp, c in terms:
            e = tuple(exp)
            if len(e) != len(vars_):
                raise ValueError("exponent length does not match variables")
            # a float would be truncated or turned into a binary fraction
            if not all(type(x) is not bool and isinstance(x, int) for x in e):
                raise TypeError(f"exponents must be integers, got {e!r}")
            if type(c) is bool or not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"coefficients must be int or Fraction, got {c!r}"
                )
            raw[e] = raw.get(e, Fraction(0)) + Fraction(c)
        raw = {e: c for e, c in raw.items() if c}
        columns = zip((0,) * len(vars_), *raw)
        reach = _fit((max(map(abs, col)) for col in columns), "a term")
        den = lcm(*(c.denominator for c in raw.values()))
        fmt, zero = f">{len(vars_)}i", _zero_key(len(vars_))
        packed = {
            int.from_bytes(pack(fmt, *e), "big") ^ zero:
            c.numerator * (den // c.denominator)
            for e, c in raw.items()
        }
        self._set(vars_, packed, den, reach)

    def _set(self, vars_, raw: dict[int, int], den: int, reach) -> None:
        """Fill self from keys to numerators over den, made canonical."""
        keys = sorted([k for k, n in raw.items() if n], reverse=True)
        nums = [raw[k] for k in keys]
        g = gcd(den, *nums)
        nums = [n // g for n in nums] if g != 1 else nums
        object.__setattr__(self, "vars", vars_)
        object.__setattr__(self, "_keys", tuple(keys))
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_denom", den // g)
        object.__setattr__(self, "_reach", reach)

    def _new(self, raw: dict[int, int], den: int, reach) -> "LaurentPoly":
        """A polynomial over self's variables from keys to numerators."""
        out = object.__new__(LaurentPoly)
        out._set(self.vars, raw, den, reach)
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, vars_: Sequence[str]) -> "LaurentPoly":
        return cls(tuple(vars_), ())

    @classmethod
    def constant(cls, vars_: Sequence[str], c: int | Fraction) -> "LaurentPoly":
        v = tuple(vars_)
        return cls(v, (((0,) * len(v), c),))

    @classmethod
    def monomial(
        cls,
        vars_: Sequence[str],
        exponents: Sequence[int],
        coeff: int | Fraction = 1,
    ) -> "LaurentPoly":
        return cls(tuple(vars_), ((tuple(exponents), coeff),))

    @classmethod
    def variable(cls, vars_: Sequence[str], name: str) -> "LaurentPoly":
        v = tuple(vars_)
        exps = [0] * len(v)
        exps[v.index(name)] = 1
        return cls.monomial(v, exps)

    # -- queries -------------------------------------------------------

    def exponents(self) -> list[tuple[int, ...]]:
        """The terms' exponents, in term order: XOR with the zero key leaves
        each field's exponent in two's complement, as struct's "i" reads."""
        n = len(self.vars)
        fmt, zero, size = f">{n}i", _zero_key(n), n * FIELD_BITS // 8
        return [unpack(fmt, (k ^ zero).to_bytes(size, "big")) for k in self._keys]

    def coefficients(self) -> list[Fraction]:
        """The terms' coefficients, in term order."""
        return [Fraction(n, self._denom) for n in self._nums]

    @property
    def terms(self) -> tuple[Term, ...]:
        """(exponent vector, Fraction coefficient) per term, in term order."""
        return tuple(zip(self.exponents(), self.coefficients()))

    def term(self, i: int) -> "LaurentPoly":
        """The term at position i, in term order, as a polynomial."""
        return self._new({self._keys[i]: self._nums[i]}, self._denom, self._reach)

    def is_zero(self) -> bool:
        return not self._keys

    def __bool__(self) -> bool:
        return bool(self._keys)

    def is_monomial(self) -> bool:
        return len(self._keys) == 1

    def total_degree(self) -> int | None:
        """Max over terms of the exponent sum; None for the zero polynomial."""
        return max(map(sum, self.exponents()), default=None)

    def _check_vars(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("polynomials live over different variables")

    # -- arithmetic ----------------------------------------------------

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign*other."""
        self._check_vars(other)
        den = lcm(self._denom, other._denom)
        m1, m2 = den // self._denom, sign * den // other._denom
        raw = dict(zip(self._keys, [n * m1 for n in self._nums]))
        get = raw.get
        for k, n in zip(other._keys, other._nums):
            raw[k] = get(k, 0) + n * m2
        return self._new(raw, den, tuple(map(max, self._reach, other._reach)))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return self.scale(-1)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_vars(other)
        reach = _fit(map(add, self._reach, other._reach), "product")
        zero = _zero_key(len(self.vars))
        pairs = list(zip(other._keys, other._nums))
        raw: dict[int, int] = {}
        get = raw.get
        for k1, n1 in zip(self._keys, self._nums):
            k1 -= zero
            for k2, n2 in pairs:
                k = k1 + k2
                raw[k] = get(k, 0) + n1 * n2
        return self._new(raw, self._denom * other._denom, reach)

    def scale(self, c: int | Fraction) -> "LaurentPoly":
        if type(c) is bool or not isinstance(c, (int, Fraction)):
            raise TypeError(f"scalars must be int or Fraction, got {c!r}")
        c = Fraction(c)
        raw = dict(zip(self._keys, [n * c.numerator for n in self._nums]))
        return self._new(raw, self._denom * c.denominator, self._reach)

    def __pow__(self, n: int) -> "LaurentPoly":
        if type(n) is bool or not isinstance(n, int):
            return NotImplemented
        if self.is_monomial():
            # a monomial's power scales its key less the zero vector's
            reach = _fit((abs(n) * r for r in self._reach), f"power {n}")
            (k,), (num,), den = self._keys, self._nums, self._denom
            zero = _zero_key(len(self.vars))
            num, den = (num**n, den**n) if n >= 0 else (den**-n, num**-n)
            if den < 0:
                num, den = -num, -den
            return self._new({n * (k - zero) + zero: num}, den, reach)
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
        i = self.vars.index(var)
        bumped = (r + (j == i) for j, r in enumerate(self._reach))
        reach = _fit(bumped, "derivative")
        shift, mask = FIELD_BITS * (len(self.vars) - 1 - i), (1 << FIELD_BITS) - 1
        raw = {
            k - (1 << shift): n * e
            for k, n in zip(self._keys, self._nums)
            if (e := (k >> shift & mask) - _OFFSET)
        }
        return self._new(raw, self._denom, reach)

    # -- substitution ----------------------------------------------------

    def substitute(
        self, images: Mapping[str, "LaurentPoly"]
    ) -> "LaurentPoly":
        """Replace every variable by its image polynomial, with the ring
        operations above: per term, the coefficient times the images'
        powers, each made once per call, and the sum of those.

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
        powers: dict[tuple[str, int], LaurentPoly] = {}
        for exp, c in self.terms:
            term = LaurentPoly.constant(target_vars, c)
            for name, e in zip(self.vars, exp):
                if e:
                    if name not in images:
                        raise ValueError(f"no image for variable {name}")
                    if (name, e) not in powers:
                        powers[name, e] = images[name] ** e
                    term = term * powers[name, e]
            out = out + term
        return out

    # -- text form ---------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering; parse_polynomial inverts it."""
        if not self._keys:
            return "0"
        chunks: list[str] = []
        for exp, c in self.terms:
            factors = [decimal_str(abs(c))]
            factors += [
                v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, exp) if e
            ]
            chunks.append((" - " if c < 0 else " + ") + "*".join(factors))
        # the first term carries its sign alone: "-" or nothing
        out = "".join(chunks)
        return out[3:] if out[1] == "+" else "-" + out[3:]

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
    top = max(map(abs, f._nums), default=1)
    return (top - 1).bit_length() + (f._denom - 1).bit_length()


def _expansion_bits(f: LaurentPoly, g: LaurentPoly | None, n: int = 1) -> int:
    """A bound on the size of f*g, or of f^n when g is None: its terms,
    times one plus the bits of its coefficients.

    f*g has at most s*t terms for s and t terms in f and g, each a sum of
    at most min(s, t) products; f^n has at most comb(n + t - 1, t - 1)
    terms, one per multiset of n of f's t terms, whose coefficients sum
    at most t^n products.  A monomial's power keeps one term and reaches
    n times its coefficient's bits."""
    t = len(f._keys)
    if g is None:
        terms = comb(n + t - 1, t - 1) if t else 0
        bits = n * (_coeff_bits(f) + (t - 1).bit_length())
    else:
        s = len(g._keys)
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
            try:
                out = out * nxt
            except ValueError as err:  # an exponent past its field
                raise self.error(str(err), at) from None
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
        try:
            return base ** (-n if neg else n)
        except ValueError as err:  # an exponent past its field
            raise self.error(str(err), exp_at) from None

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
    product or power whose result could exceed MAX_EXPANSION_BITS or
    take an exponent past MAX_EXPONENT.
    """
    p = _Parser(text, tuple(vars_))
    out = p.parse_expr()
    p.finish()
    return out
