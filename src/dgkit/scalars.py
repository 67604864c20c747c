"""Gaussian rational scalars: the ground field for every computation.

A scalar is (a + b*i)/d, held as three ints a, b, d with d > 0 and
gcd(a, b, d) = 1.  That form is unique (zero is (0, 0, 1)), so equality,
hashing and the zero test compare ints, and every operation is integer
arithmetic followed by one gcd, skipped when the denominator is 1.
Trivial operands short-cut: ``+`` and ``-`` by zero, and ``*`` by 0 or
+-1, return the other operand itself, ``ZERO`` or its negation, with no
arithmetic; sharing an operand is safe because scalars are immutable, and a
negation keeps the reduced form, so it needs no gcd.  The
real and imaginary parts are available as Fractions through ``re`` and
``im``.  Only exact rationals enter: the constructor refuses floats.  The
text grammar is ``a/b``, ``a/b+c/d*i`` or ``a/b-c/d*i`` with denominators
omitted when 1, e.g. ``2``, ``-1/3+1*i``.

The layout stays private to this module.  A kernel that sums many products
lifts its operands with ``lift`` to Gaussian-integer numerators over a
common denominator, accumulates in ints and builds each result once with
``gaussian``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable


class ScalarParseError(ValueError):
    """Raised when a scalar string does not match the grammar."""


_FRAC = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(rf"({_FRAC})(?:([+-])(\d+(?:/\d+)?)\*i)?", _re.ASCII)


def _parse_fraction(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ScalarParseError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _rational(value):
    """value as an int or Fraction, whose numerator/denominator are coprime.

    Anything else Fraction accepts (a string, a Decimal) is converted; floats
    and complex numbers are refused.
    """
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, (float, complex)):
        raise TypeError(f"Q(i) scalars are exact; got the {type(value).__name__} {value!r}")
    return Fraction(value)


class Scalar:
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = _rational(re), _rational(im)
        # over the lcm of two reduced denominators no prime divides a, b and d
        d = lcm(re.denominator, im.denominator)
        _set_a(self, re.numerator * (d // re.denominator))
        _set_b(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- construction -------------------------------------------------

    @staticmethod
    def parse(text: str) -> "Scalar":
        m = _SCALAR_RE.fullmatch(text)
        if not m:
            raise ScalarParseError(f"invalid scalar {text!r}")
        re_text = m.group(1)
        if m.group(3) is None:
            if "/" not in re_text:
                return _reduced(int(re_text), 0, 1)
            return Scalar(_parse_fraction(re_text))
        re_part = _parse_fraction(re_text)
        im_part = _parse_fraction(m.group(3))
        if m.group(2) == "-":
            im_part = -im_part
        return Scalar(re_part, im_part)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not other.a and not other.b:
            return self
        if not self.a and not self.b:
            return other
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not other.a and not other.b:
            return self
        if not self.a and not self.b:
            return _negated(other)
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self) -> "Scalar":
        return _negated(self)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, e = self.a, self.b, other.a, other.b
        if not e and other.d == 1 and -1 <= c <= 1:
            return self if c == 1 else _negated(self) if c else ZERO
        if not b and self.d == 1 and -1 <= a <= 1:
            return other if a == 1 else _negated(other) if a else ZERO
        if b or e:
            return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)
        return _reduced(a * c, 0, self.d * other.d)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        # (a + bi)/d1 / ((c + ei)/d2) = (a + bi)(c - ei) d2 / (d1 (c^2 + e^2))
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        return _reduced((a * c + b * e) * other.d, (b * c - a * e) * other.d, self.d * n)

    def inverse(self) -> "Scalar":
        return ONE / self

    def conjugate(self) -> "Scalar":
        return _reduced(self.a, -self.b, self.d)

    def scale(self, rational) -> "Scalar":
        """Multiply by an exact rational (Fraction or int)."""
        q = _rational(rational)
        return _reduced(self.a * q.numerator, self.b * q.numerator, self.d * q.denominator)

    # -- predicates / protocol ----------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __str__(self) -> str:
        if not self.b:
            return _format_fraction(self.re)
        sign = "+" if self.b > 0 else "-"
        return f"{_format_fraction(self.re)}{sign}{_format_fraction(abs(self.im))}*i"

    def __repr__(self) -> str:
        return f"Scalar({self})"


# The slots are written through their descriptors, which __setattr__ cannot
# block; nothing outside this module does so.
_new = object.__new__
_set_a = Scalar.a.__set__
_set_b = Scalar.b.__set__
_set_d = Scalar.d.__set__


def _reduced(a: int, b: int, d: int) -> Scalar:
    """(a + b*i)/d with d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _negated(x: Scalar) -> Scalar:
    """-x; (-a - b*i)/d is in lowest terms whenever (a + b*i)/d is."""
    s = _new(Scalar)
    _set_a(s, -x.a)
    _set_b(s, -x.b)
    _set_d(s, x.d)
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def gaussian(a: int, b: int, d: int) -> Scalar:
    """(a + b*i)/d in lowest terms, for ints a, b and d > 0."""
    if d <= 0:
        raise ValueError(f"denominator {d} is not positive")
    return _reduced(a, b, d)


def lift(items: Iterable[tuple[Hashable, Scalar]]) -> tuple[int, dict]:
    """The non-zero scalars of (key, scalar) pairs as Gaussian-integer
    numerators over one common denominator: (d, {key: (a, b)}) with each
    scalar equal to (a + b*i)/d, where d is the lcm of their denominators.

    An exact sum of products of lifted values is a sum of int products over
    the product of the denominators, reduced once by ``gaussian``."""
    nonzero = {key: x for key, x in items if x.a or x.b}
    d = lcm(*{x.d for x in nonzero.values()})
    if d == 1:
        return 1, {key: (x.a, x.b) for key, x in nonzero.items()}
    return d, {key: (x.a * (m := d // x.d), x.b * m) for key, x in nonzero.items()}


def of(value) -> Scalar:
    """Coerce an int, Fraction, string or Scalar into a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return Scalar.parse(value)
    return Scalar(value)
