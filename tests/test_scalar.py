import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ybx.catalog  # noqa: F401  (registers variables first: fixes the term order)
from oracles import random_gaussian, random_poly, random_nonzero_poly
from ybx.errors import DenominatorVanishes, DivisionByZero
from ybx.exprparse import parse_scalar
from ybx.scalar import (GaussianRational, Polynomial, RationalFunction,
                        invert, is_zero, lowest, scalar_str, substitute, var_id)

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
gaussians = st.builds(GaussianRational, fracs, fracs)


def q():
    return Polynomial.variable("q")


# ---------------------------------------------------------------------------
# hashing agrees with equality

@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(), st.fractions()))
def test_real_gaussian_hashes_like_its_value(x):
    assert GaussianRational(x) == x
    assert hash(GaussianRational(x)) == hash(x)


def test_equal_scalars_collapse_in_a_set():
    assert len({GaussianRational(1), 1, Fraction(1)}) == 1


# ---------------------------------------------------------------------------
# ring laws

@settings(max_examples=200, deadline=None)
@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    assert a * b == b * a


def test_polynomial_ring_laws_bulk():
    rng = random.Random(20260808)
    for _ in range(1000):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a


def test_rational_function_laws_and_equivalence():
    rng = random.Random(7)
    rfs = []
    for _ in range(40):
        rfs.append(RationalFunction(random_poly(rng), random_nonzero_poly(rng)))
    for k in range(0, 36, 3):
        a, b, c = rfs[k], rfs[k + 1], rfs[k + 2]
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        # cross-multiplication equality is an equivalence relation
        assert a == a
        if a == b and b == c:
            assert a == c
    # equal values with different representations
    p, d = random_nonzero_poly(rng), random_nonzero_poly(rng)
    s = random_nonzero_poly(rng)
    assert RationalFunction(p * s, d * s) == RationalFunction(p, d)


def test_substitute_is_a_homomorphism():
    rng = random.Random(99)
    for _ in range(50):
        a, b = random_poly(rng), random_poly(rng)
        point = {"q": random_gaussian(rng), "s": random_gaussian(rng),
                 "a": random_gaussian(rng)}
        try:
            lhs = substitute(a * b, point)
            rhs = substitute(a, point) * substitute(b, point)
        except DivisionByZero:
            continue   # a zero sample hit a negative exponent
        assert lhs == rhs
        assert substitute(a + b, point) == substitute(a, point) + substitute(b, point)


def test_invert_involution():
    rng = random.Random(5)
    for _ in range(50):
        g = random_gaussian(rng)
        if not g.is_zero():
            assert invert(invert(g)) == g
    for _ in range(30):
        p = random_nonzero_poly(rng)
        assert invert(invert(p)) == p
        r = RationalFunction(random_nonzero_poly(rng), random_nonzero_poly(rng))
        assert invert(invert(r)) == r


# ---------------------------------------------------------------------------
# pointwise examples

def test_laurent_identities():
    qq = q()
    assert (qq - invert(qq)) * qq == qq * qq - 1
    assert parse_scalar("i*i") == -1
    assert parse_scalar("q^0") == 1
    u, v = Polynomial.variable("u"), Polynomial.variable("v")
    # clearing denominators: (u-v)/(u*v) = v^-1 - u^-1
    assert (u - v) / (u * v) == invert(v) - invert(u)


def test_gaussian_inverse():
    assert invert(GaussianRational(2, 1)) == GaussianRational(Fraction(2, 5), Fraction(-1, 5))
    assert invert(q()) == Polynomial.from_vid(var_id("q"), -1)
    with pytest.raises(DivisionByZero):
        invert(GaussianRational(0))
    with pytest.raises(DivisionByZero):
        invert(Polynomial({}))


def test_substitute_examples():
    qq = q()
    assert substitute(qq - invert(qq), {"q": 2}) == Fraction(3, 2)
    u, v = Polynomial.variable("u"), Polynomial.variable("v")
    u1, u2 = Polynomial.variable("u1"), Polynomial.variable("u2")
    assert substitute(u - v, {"u": u1, "v": u2}) == u1 - u2
    with pytest.raises(DivisionByZero):
        substitute(invert(qq), {"q": 0})
    r = RationalFunction(Polynomial.variable("a"), u - v)
    with pytest.raises(DenominatorVanishes):
        substitute(r, {"u": 1, "v": 1})


def test_division_stays_low_in_the_tower():
    # dividing by an invertible single term is exact Laurent division
    x = parse_scalar("2*i*a*b/c")
    assert isinstance(x, Polynomial)
    num = parse_scalar("2*i*a*b")
    assert x == RationalFunction(num, Polynomial.variable("c"))
    # dividing by a multi-term polynomial lifts
    y = parse_scalar("a/(a + b)")
    assert isinstance(y, RationalFunction)
    assert lowest(RationalFunction(Polynomial.variable("a") * Polynomial.variable("c"),
                                   Polynomial.variable("c"))) == Polynomial.variable("a")


def test_zero_quotient_is_zero():
    """A quotient with a zero numerator lowers to ZERO; one built by
    arithmetic prints as 0 and has no variables."""
    x = parse_scalar("0/(q+1)")
    assert type(x) is GaussianRational and x.is_zero()
    r = parse_scalar("q/(q+1)")
    z = r - r
    assert isinstance(z, RationalFunction)
    assert scalar_str(z) == "0"
    assert z.variables() == set()
    assert type(lowest(z)) is GaussianRational and lowest(z).is_zero()


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        RationalFunction(q(), Polynomial({}))


# ---------------------------------------------------------------------------
# canonical printing round-trips

@pytest.mark.parametrize("text", [
    "0", "1", "-3/2", "i", "-i", "2*i", "(2+3*i)", "(1/2-i)",
    "q - q^-1", "k + 2 - k^-1", "2*i*a*b/c", "(a - b)/(a + b)",
    "q^2*s^-3", "-x*y + 1", "(2+3*i)*q^2 - 1/2",
])
def test_print_parse_fixpoint(text):
    val = parse_scalar(text)
    out = scalar_str(val)
    again = parse_scalar(out)
    assert again == val
    assert scalar_str(again) == out


@pytest.mark.parametrize("text,printed", [
    ("1 + s^-1 + q*s + q^2 - q^-1*s^2 + a*q", "q^2 + q*s + q*a + 1 + s^-1 - q^-1*s^2"),
    ("(q - s)^3*q^-1", "q^2 - 3*q*s + 3*s^2 - q^-1*s^3"),
    ("u1^2*u2^-1 - u2*u3 + u1 - 1 + u3^-2", "u1^2*u2^-1 + u1 - u2*u3 - 1 + u3^-2"),
    ("(u - v + 1)*(v/u - u/v)", "-u^2*v^-1 + u - u*v^-1 + v - u^-1*v^2 + u^-1*v"),
])
def test_canonical_term_order(text, printed):
    assert scalar_str(parse_scalar(text)) == printed


def test_print_parse_random_polys():
    rng = random.Random(2024)
    for _ in range(200):
        p = random_poly(rng)
        out = scalar_str(p)
        assert parse_scalar(out) == p
        assert scalar_str(parse_scalar(out)) == out
    for _ in range(100):
        r = RationalFunction(random_poly(rng), random_nonzero_poly(rng))
        out = scalar_str(r)
        assert parse_scalar(out) == r
