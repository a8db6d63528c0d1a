import importlib.util
import os
import sys
import time
import types
from fractions import Fraction

import pytest

from ybx import catalog, cli, solver
from ybx.errors import DivisionByZero, ExprSyntaxError, NonIntegerExponent
from ybx.exprparse import (MAX_DEPTH, MAX_POWER_BITS, MAX_POWER_TERMS, MAX_PRODUCT_TERMS,
                           parse_scalar)
from ybx.tensor import matrix_from_text
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
    assert parse_scalar("\u0661\u0662") == 12      # decimal digits of any script
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


@pytest.mark.parametrize("text, offset", [("\u00b2", 0), ("q^\u00b2", 2)],
                         ids=["bare", "exponent"])
def test_non_decimal_digits_are_unexpected_characters(text, offset):
    # '\u00b2' (superscript two) is a digit to str.isdigit but not a decimal
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar(text)
    assert err.value.offset == offset
    assert str(err.value) == "unexpected character '\u00b2' at offset %d" % offset


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


def test_power_bits_are_those_of_the_reduced_parts():
    """(1/2+i/3) is stored over the denominator 6, of 3 bits, but its
    widest reduced part, 1/2 or 1/3, has 2: the bound admits 2 * 5000."""
    assert parse_scalar("(1/2+i/3)^5000") == GaussianRational(Fraction(1, 2), Fraction(1, 3)) ** 5000
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar("(1/2+i/3)^5001")
    assert err.value.offset == 10
    assert "power too large: the result could pass 10000 coefficient bits" in str(err.value)


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


@pytest.mark.parametrize("text, offset", [
    ("(q+1)^100*(s+1)^100*(t+1)^100", 19),
    ("(q+1)^100*(s+1)^100/(1/(t+1)^100)", 19),
    ("1/(q+1)^100 + 1/(s+1)^100 + 1/(t+1)^100", 26),
    ("1/(q+1)^100 - 1/(s+1)^100 - 1/(t+1)^100", 26),
])
def test_oversized_products_are_refused_quickly(text, offset):
    """Each factor passes the power bound; the operator that would
    multiply past MAX_PRODUCT_TERMS term pairs is refused where it
    stands, before anything is multiplied."""
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar(text)
    assert time.perf_counter() - start < 1
    assert err.value.offset == offset
    assert "too large: the result could pass %d terms" % MAX_PRODUCT_TERMS in str(err.value)


def test_product_bound_is_exact():
    """(q+1)^140*(s+1)^140 multiplies 141*141 term pairs, within the
    bound; one more term in either factor passes it."""
    assert MAX_PRODUCT_TERMS == 20_000 and 141 * 141 <= 20_000 < 141 * 142
    assert len(parse_scalar("(q+1)^140*(s+1)^140").terms) == 141 * 141
    for text in ("(q+1)^141*(s+1)^140", "(q+1)^140/(1/(s+1)^141)"):
        with pytest.raises(ExprSyntaxError):
            parse_scalar(text)


@pytest.mark.parametrize("text, offset", [
    ("1" + "0" * 5000, 0),
    ("q + 2*1" + "0" * 5000, 6),
    ("q^1" + "0" * 5000, 2),
    ("(q+1)^-" + "7" * 5000, 7),
])
def test_long_integer_literals_are_refused_where_they_start(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar(text)
    assert err.value.offset == offset
    assert "integer literal of %d digits is too long" % (len(text) - offset) in str(err.value)


def test_benchmark_pins_parse(tmp_path, monkeypatch):
    """Every pin, scale and matrix file of the benchmark's rounds 0-2 at
    seeds 3 and 7 stays within the parser's bounds."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)    # for its dataclass
    spec.loader.exec_module(workloads)
    lib = types.SimpleNamespace(catalog=catalog, solver=solver)
    scales = ("--omega", "--xi", "--zeta")
    parsed = set()
    for workload in sorted(workloads.WORKLOADS):
        for seed in (3, 7):
            for index in range(3):
                for req in workloads.make_round(workload, seed, index, str(tmp_path), lib):
                    if req.argv is None or req.check == "usage_error":
                        continue
                    for k, tok in enumerate(req.argv):
                        name, eq, value = tok.partition("=")
                        if tok.startswith("catalog:"):
                            for pin in cli._MatrixSpec(tok).pins.values():
                                parse_scalar(pin)
                                parsed.add("pin")
                        elif tok.startswith("file:"):
                            with open(tok[len("file:"):]) as fh:
                                matrix_from_text(fh.read())
                            parsed.add("file")
                        elif name in scales:
                            parse_scalar(value if eq else req.argv[k + 1])
                            parsed.add("scale")
    assert parsed == {"pin", "file", "scale"}
