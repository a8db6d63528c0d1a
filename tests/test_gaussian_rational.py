"""GaussianRational against a reference written here on (Fraction, Fraction)
pairs.  The oracles' tower loops compute with GaussianRational itself, so
this is the check of its arithmetic that does not depend on it."""

from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ybx.errors import DivisionByZero
from ybx.scalar import GaussianRational


# ---------------------------------------------------------------------------
# the reference: a + b*i as the pair (a, b) of Fractions

def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_neg(x):
    return (-x[0], -x[1])


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def ref_inv(x):
    a, b = x
    n = a * a + b * b
    return (a / n, -b / n)


def ref_hash(x):
    return hash(x[0]) if not x[1] else hash(x)


def stored(g):
    """The pair g stands for, from its stored ints; asserts the stored form."""
    assert g.d > 0 and gcd(g.a, g.b, g.d) == 1
    return (Fraction(g.a, g.d), Fraction(g.b, g.d))


def matches(g, x):
    """g is the value x, in its one stored form, and behaves as x does."""
    assert stored(g) == x
    assert (g.re, g.im) == x
    assert g == GaussianRational(*x)
    assert hash(g) == ref_hash(x)
    assert g.is_zero() == (x == (0, 0))
    assert g.is_one() == (x == (1, 0))


WIDE = 2 ** 200
parts = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-WIDE, WIDE),
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-WIDE, WIDE), st.integers(1, WIDE)),
)
values = st.one_of(
    st.tuples(parts, parts),
    st.tuples(st.just(0), parts),
    st.tuples(parts, st.just(0)),
)


def lift(x):
    return GaussianRational(*x), (Fraction(x[0]), Fraction(x[1]))


@settings(max_examples=400, deadline=None)
@given(values)
def test_construction_and_unary(x):
    g, r = lift(x)
    matches(g, r)
    matches(-g, ref_neg(r))
    if r == (0, 0):
        with pytest.raises(DivisionByZero):
            g.inv()
    else:
        matches(g.inv(), ref_inv(r))


@settings(max_examples=400, deadline=None)
@given(values, values)
def test_binary_operations(x, y):
    (g, r), (h, s) = lift(x), lift(y)
    matches(g + h, ref_add(r, s))
    matches(g - h, ref_add(r, ref_neg(s)))
    matches(g * h, ref_mul(r, s))
    if s == (0, 0):
        with pytest.raises(DivisionByZero):
            g / h
    else:
        matches(g / h, ref_mul(r, ref_inv(s)))
    assert (g == h) == (r == s)
    assert (g - h).is_zero() == (r == s)


@settings(max_examples=200, deadline=None)
@given(values, st.integers(-WIDE, WIDE))
def test_mixed_with_ints(x, n):
    g, r = lift(x)
    m = (Fraction(n), Fraction(0))
    matches(g + n, ref_add(r, m))
    matches(n - g, ref_add(m, ref_neg(r)))
    matches(n * g, ref_mul(m, r))
    assert (g == n) == (r == m)


@pytest.mark.parametrize("bad", [0.1, 1.0, 1j, "1/3", Decimal("0.1")])
def test_only_ints_and_fractions_are_accepted(bad):
    with pytest.raises(TypeError):
        GaussianRational(bad)
    with pytest.raises(TypeError):
        GaussianRational(0, bad)


def test_bools_are_their_ints():
    matches(GaussianRational(True, False), (1, 0))
    matches(GaussianRational(False, True), (0, 1))
