import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgkit.scalars import I, ONE, ZERO, Scalar, ScalarParseError, gaussian, lift


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(Scalar, rationals, rationals)


def test_parse_plain_integers():
    assert Scalar.parse("2") == Scalar(2)
    assert Scalar.parse("-7") == Scalar(-7)
    assert Scalar.parse("1/3") == Scalar(Fraction(1, 3))


def test_parse_complex_forms():
    assert Scalar.parse("-1/3+1*i") == Scalar(Fraction(-1, 3), 1)
    assert Scalar.parse("0-2/5*i") == Scalar(0, Fraction(-2, 5))


def test_parse_rejects_zero_denominator():
    with pytest.raises(ScalarParseError):
        Scalar.parse("1/0")


@pytest.mark.parametrize("bad", ["", "i", "1+i", "1 + 2*i", "1/2/3", "1*j",
                                 "1_0", "+ 1", " 1", "1 ", "1\n", "\u0663", "0x1", "1_0/3", "1/1_0"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ScalarParseError):
        Scalar.parse(bad)


@given(scalars)
def test_format_parse_round_trip(x):
    assert Scalar.parse(str(x)) == x


@given(scalars, scalars)
def test_exact_addition(a, b):
    assert (a + b) - b == a


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_multiplicative_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == ONE


def test_i_squares_to_minus_one():
    assert I * I == -ONE


def test_division_exact():
    x = Scalar(Fraction(3, 4), Fraction(-1, 2))
    y = Scalar(Fraction(1, 3), Fraction(5, 7))
    assert (x / y) * y == x
    with pytest.raises(ZeroDivisionError):
        x / ZERO


# -- differential oracle: the Fraction-pair scalar dgkit used before ---------


def _ref_format(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class RefScalar:
    """re + im*i with re, im stdlib Fractions: the reference for Scalar."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("RefScalar is immutable")

    def __add__(self, other):
        return RefScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return RefScalar(-self.re, -self.im)

    def __mul__(self, other):
        return RefScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero Scalar")
        norm = other.re * other.re + other.im * other.im
        return RefScalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def inverse(self):
        return RefScalar(1) / self

    def conjugate(self):
        return RefScalar(self.re, -self.im)

    def scale(self, rational):
        q = Fraction(rational)
        return RefScalar(self.re * q, self.im * q)

    def is_zero(self):
        return not self.re and not self.im

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RefScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return _ref_format(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{_ref_format(self.re)}{sign}{_ref_format(abs(self.im))}*i"


# numerators and denominators both small and beyond 64 bits, so that equal,
# coprime and shared-factor denominators all occur
_numerators = st.one_of(st.integers(-12, 12), st.integers(-2**80, 2**80))
_denominators = st.one_of(st.integers(1, 12), st.integers(1, 2**70),
                          st.sampled_from([2**65, 6 * 2**64, 3**45]))
exact_rationals = st.builds(Fraction, _numerators, _denominators)
_ZERO_Q = Fraction(0)
# 0, 1, -1, i and -i: the operands that +, - and * short-cut on (or next to)
TRIVIAL_PARTS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
parts = st.one_of(
    st.tuples(exact_rationals, exact_rationals),
    st.tuples(st.just(_ZERO_Q), exact_rationals),  # pure imaginary
    st.tuples(exact_rationals, st.just(_ZERO_Q)),  # real
    st.sampled_from([tuple(map(Fraction, p)) for p in TRIVIAL_PARTS]),
)


def assert_canonical(x: Scalar):
    assert all(type(v) is int for v in (x.a, x.b, x.d))
    assert x.d > 0
    assert math.gcd(x.a, x.b, x.d) == 1
    assert type(x.re) is Fraction and type(x.im) is Fraction


def assert_matches(got: Scalar, want: RefScalar):
    assert_canonical(got)
    assert (got.re, got.im) == (want.re, want.im)
    assert str(got) == str(want)
    assert Scalar.parse(str(got)) == got
    assert got.is_zero() == want.is_zero() and bool(got) == bool(want)
    twin = Scalar(want.re, want.im)
    assert got == twin and hash(got) == hash(twin)


@given(parts, parts)
def test_operations_match_the_fraction_reference(p, q):
    x, y = Scalar(*p), Scalar(*q)
    rx, ry = RefScalar(*p), RefScalar(*q)
    assert_matches(x, rx)
    assert_matches(x + y, rx + ry)
    assert_matches(y + x, ry + rx)
    assert_matches(x - y, rx - ry)
    assert_matches(y - x, ry - rx)
    assert_matches(x * y, rx * ry)
    assert_matches(y * x, ry * rx)
    assert_matches(-x, -rx)
    assert_matches(x.conjugate(), rx.conjugate())
    assert (x == y) == (rx == ry)
    if ry.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    else:
        assert_matches(x / y, rx / ry)
        assert_matches(y.inverse(), ry.inverse())


@given(parts, st.one_of(exact_rationals, st.integers(-2**70, 2**70)))
def test_scale_matches_the_fraction_reference(p, q):
    x, rx = Scalar(*p), RefScalar(*p)
    got, want = x.scale(q), rx.scale(q)
    assert_matches(got, want)
    assert (got == x) == (want == rx)


@given(parts, parts)
def test_equal_values_are_equal_and_hash_alike(p, q):
    x, y = Scalar(*p), Scalar(*q)
    for same in (x + y - y, (x * y) / y if y else x, x.conjugate().conjugate(), -(-x)):
        assert same == x and hash(same) == hash(x)
        assert_canonical(same)
    # same numerators over another denominator: a different number unless zero
    assert (x.scale(Fraction(1, 2)) == x) == x.is_zero()


@given(parts)
def test_trivial_operands_return_shared_scalars(p):
    # the short-cuts hand back an operand itself, not an equal copy; when x
    # is 0 or +-1 too, either operand may be the one handed back
    x = Scalar(*p)
    if x not in (ZERO, ONE, -ONE):
        assert x + ZERO is x and ZERO + x is x and x - ZERO is x
        assert x * ONE is x and ONE * x is x
        assert x * ZERO is ZERO and ZERO * x is ZERO
    for same in (x + ZERO, ZERO + x, x - ZERO, x * ONE, ONE * x):
        assert_matches(same, RefScalar(*p))
    for negation in (ZERO - x, x * -ONE, -ONE * x, -x):
        assert_matches(negation, -RefScalar(*p))


def test_zero_is_canonical():
    for zero in (ZERO, Scalar(), Scalar(Fraction(0, 7), 0), I - I, ONE.scale(0),
                 Scalar(Fraction(1, 3)) - Scalar(Fraction(2, 6))):
        assert (zero.a, zero.b, zero.d) == (0, 0, 1)
        assert zero.is_zero() and not zero and zero == ZERO
        assert hash(zero) == hash(ZERO)


@pytest.mark.parametrize("value", [0.1, 2.0, float("nan"), 1j, complex(1, 0)])
def test_floats_are_refused(value):
    with pytest.raises(TypeError):
        Scalar(value)
    with pytest.raises(TypeError):
        Scalar(1, value)
    with pytest.raises(TypeError):
        ONE.scale(value)


@pytest.mark.parametrize("re, im", [
    (3, -4), (Fraction(6, 4), Fraction(-5, 10)), ("1/3", "-2/7"), (Decimal("0.25"), 0),
    (True, False), (0, Fraction(2**70, 3)),
])
def test_constructor_accepts_exact_rationals(re, im):
    assert_matches(Scalar(re, im), RefScalar(re, im))
    assert Scalar(re=re, im=im) == Scalar(re, im)


def test_scalars_are_immutable():
    x = Scalar(1, 2)
    for name in ("a", "b", "d", "re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
    assert (x.a, x.b, x.d) == (1, 2, 1)


# -- Gaussian-integer numerators: lift and gaussian ----------------------------


@given(_numerators, _numerators, _denominators)
def test_gaussian_is_the_quotient_in_lowest_terms(a, b, d):
    x = gaussian(a, b, d)
    assert_matches(x, RefScalar(Fraction(a, d), Fraction(b, d)))
    assert (x == ZERO) == (a == 0 and b == 0)


@pytest.mark.parametrize("d", [0, -1, -6])
def test_gaussian_refuses_a_non_positive_denominator(d):
    with pytest.raises(ValueError):
        gaussian(1, 2, d)


def test_gaussian_reduces_negative_numerators():
    assert gaussian(-4, 6, 8) == Scalar(Fraction(-1, 2), Fraction(3, 4))
    assert gaussian(-3, -6, 9) == Scalar(Fraction(-1, 3), Fraction(-2, 3))
    assert gaussian(0, -5, 10) == Scalar(0, Fraction(-1, 2))
    assert gaussian(0, 0, 7) == ZERO


@given(st.lists(parts, max_size=8), st.lists(parts, max_size=8))
def test_lift_puts_the_non_zero_entries_over_one_denominator(ps, qs):
    u, v = [Scalar(*p) for p in ps], [Scalar(*q) for q in qs]
    du, nu = lift(enumerate(u))
    assert du == math.lcm(*(x.d for x in u if x))
    assert list(nu) == [i for i, x in enumerate(u) if x]
    for i, (a, b) in nu.items():
        assert type(a) is int and type(b) is int
        assert Scalar(Fraction(a, du), Fraction(b, du)) == u[i] == gaussian(a, b, du)
    # a sum of products of numerators, reduced once, is the Scalar sum
    dv, nv = lift(enumerate(v))
    re = sum(a * c - b * e for i, (a, b) in nu.items() if i in nv for c, e in [nv[i]])
    im = sum(a * e + b * c for i, (a, b) in nu.items() if i in nv for c, e in [nv[i]])
    assert_matches(gaussian(re, im, du * dv),
                   sum((RefScalar(*p) * RefScalar(*q) for p, q in zip(ps, qs)), RefScalar()))


def test_lift_of_nothing_or_zeros_is_empty_over_one():
    assert lift([]) == (1, {})
    assert lift(enumerate([ZERO, ZERO])) == (1, {})
    assert lift([("k", Scalar(Fraction(-1, 2))), ("z", ZERO), ("j", Scalar(0, Fraction(2, 3)))]) \
        == (6, {"k": (-3, 0), "j": (0, 4)})
