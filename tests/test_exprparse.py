import time

import pytest

from ybx import catalog
from ybx.errors import DivisionByZero, ExprSyntaxError, NonIntegerExponent
from ybx.exprparse import MAX_DEPTH, MAX_POWER_BITS, MAX_POWER_TERMS, parse_scalar
from ybx.scalar import GaussianRational, Polynomial, RationalFunction, invert

MALFORMED = [
    "", "(", ")", "((q)", "q)", "(()", "q +", "+ q", "* q", "q *", "q ^",
    "q ^ s", "q^^2", "1..2", "q$", "2 3", "q q", "a b c", "(a+b", "a+b)",
    "a*/b", "a//b", "^2", "a^2^", "-", "--", "a -", "/a", "a/", "()",
    "(a,b)", "[a]", "{a}", "a=b", "1 + (2 *", "i i", "2i", "3.5", "a..b",
    "a^b^c", "a^-", "a^(2)", "q^2.5", "a&b", "a|b", "a!", "~a", "a%b",
    "\\frac", "a^q",
]


def test_ast_shapes():
    q, u, v, a = (Polynomial.variable(name) for name in "quva")
    assert parse_scalar("q - q^-1") == q - invert(q)
    assert parse_scalar("(1-u/v)") == 1 - u / v
    assert parse_scalar("-q^2") == -(q * q)
    assert parse_scalar("2*i*a") == GaussianRational(0, 2) * a


def test_precedence():
    # pow > unary minus > mul/div > add/sub, left-associative
    assert parse_scalar("-2^2") == -4
    assert parse_scalar("2-3-4") == -5
    assert parse_scalar("12/2/3") == 2
    assert parse_scalar("2+3*4") == 14
    assert parse_scalar("-i^2") == 1


def test_eval_examples():
    assert parse_scalar("i*i") == -1
    val = parse_scalar("2*i*a*b/c")
    num = parse_scalar("2*i*a*b")
    assert val == RationalFunction(num, Polynomial.variable("c"))
    with pytest.raises(DivisionByZero):
        parse_scalar("1/0")
    with pytest.raises(DivisionByZero):
        parse_scalar("q/(1-1)")


def test_constants_fold_to_gaussian():
    assert isinstance(parse_scalar("2 + 3/4"), GaussianRational)
    assert isinstance(parse_scalar("(1+i)*(1-i)"), GaussianRational)
    assert parse_scalar("(1+i)*(1-i)") == 2


def test_non_integer_exponent():
    with pytest.raises(NonIntegerExponent) as err:
        parse_scalar("q^s")
    assert err.value.offset == 2
    assert "integer" in " ".join(err.value.expected)


def test_error_offsets_and_expectations():
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar("q + ")
    assert err.value.offset == 4
    assert err.value.expected
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar("(a+b")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar("a b")
    assert err.value.offset == 2


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_raise_cleanly(text):
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar(text)
    assert isinstance(err.value.offset, int)
    assert 0 <= err.value.offset <= len(text)


def test_identifier_rules():
    assert parse_scalar("i2") == Polynomial.variable("i2")      # not the imaginary unit
    assert parse_scalar("eps_1") == Polynomial.variable("eps_1")
    assert parse_scalar("i") == GaussianRational(0, 1)


def test_whitespace_insignificant():
    assert parse_scalar(" q -\tq ^ -1 ") == parse_scalar("q-q^-1")


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", ""), ("(-", ")")])
def test_nesting_is_bounded(opener, closer):
    """Parentheses and unary minus nest MAX_DEPTH levels and no deeper;
    the error points at the first opener past the bound."""
    levels = MAX_DEPTH // len(opener)
    assert parse_scalar(opener * levels + "2" + closer * levels) == 2
    deep = opener * (levels + 1) + "2" + closer * (levels + 1)
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar(deep)
    assert err.value.offset == MAX_DEPTH
    assert "nested deeper than %d" % MAX_DEPTH in str(err.value)
    with pytest.raises(ExprSyntaxError):
        parse_scalar(opener * 3000 + "2" + closer * 3000)


@pytest.mark.parametrize("text", ["(q+1)^2000", "(1+i)^99999999", "(q+s+t+1)^64",
                                  "((q+1)^100)^100"])
def test_oversized_powers_are_refused_quickly(text):
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar(text)
    assert time.perf_counter() - start < 1
    assert err.value.offset == text.rindex("^") + 1
    assert "power too large" in str(err.value)


def test_power_bounds_are_exact():
    """(q+s+1)^n has comb(n+2, 2) terms, 2^n has n+1 bits: the bounds admit
    300 terms and 2 * 5000 bits of base times exponent, and no more."""
    assert MAX_POWER_TERMS == 300 and MAX_POWER_BITS == 10_000
    assert len(parse_scalar("(q+s+1)^23").terms) == 300
    assert parse_scalar("2^5000") == 2 ** 5000
    for text in ("(q+s+1)^24", "2^5001", "2^-5001", "(1/(q+1))^300"):
        with pytest.raises(ExprSyntaxError):
            parse_scalar(text)


def test_powers_within_the_bounds_parse():
    assert len(parse_scalar("(q+1)^100").terms) == 101
    for name in catalog.names():
        entry = catalog.get(name)
        texts = [cell for row in entry.entries for cell in row]
        texts += [e for _, e in entry.constraints.equalities + entry.constraints.inequations]
        texts += [e for _, e in entry.witness]
        texts += [e for _, exprs in entry.sampling for e in exprs]
        for text in texts:
            parse_scalar(text)
