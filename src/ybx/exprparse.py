"""Recursive-descent parser for entry expressions, evaluated in one pass.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' ['-'] int]
    atom   := int | 'i' | identifier | '(' expr ')' | '-' factor

`i` is the imaginary unit and is reserved; identifiers are a letter
followed by letters, digits or underscores.  Exponents must be integer
literals.  Implicit multiplication (`2q`) is not supported.  Parentheses
and unary minus together nest at most MAX_DEPTH levels deep.  A power
whose result could pass MAX_POWER_TERMS terms or MAX_POWER_BITS bits in a
coefficient, and a product, quotient or sum whose term counts could
multiply past MAX_PRODUCT_TERMS, are refused before they are computed.
An integer literal longer than the interpreter converts is refused where
it starts.

Each rule returns the exact scalar value of the text it consumed.
"""

from __future__ import annotations

from math import comb

from .errors import DivisionByZero, ExprSyntaxError, NonIntegerExponent
from .scalar import (ONE, ZERO, GaussianRational, Polynomial, RationalFunction, _lift,
                     is_zero, lowest, power)

_ATOM_EXPECTED = ("number", "identifier", "'i'", "'('", "'-'")
MAX_DEPTH = 100
# Set by measurement (Python 3.11): (q+1)^299 takes 0.2 s and
# (10^9*q + 10^9-1)^299 0.7 s, but (q+1)^999 takes 3.6 s and
# (q+s+t+1)^64 had not finished after 100 s.
MAX_POWER_TERMS = 300
MAX_POWER_BITS = 10_000
# Set by measurement (Python 3.11): (q+1)^140*(s+1)^140, 19,881 term
# products, takes 0.2 s, and 0.8 s with 10-digit coefficients in both
# factors; (q+1)^100*(s+1)^100*(t+1)^100, 1,030,301, took about 9 s.
MAX_PRODUCT_TERMS = 20_000


def _tokens(text):
    """(kind, text, offset) triples, closed by an 'end' token."""
    tokens = []
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("i", word, i) if word == "i" else ("ident", word, i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i, _ATOM_EXPECTED)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.k]

    def take(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError("expected %r, found %r" % (kind, tok[1] or "end of input"),
                                  tok[2], (repr(kind),))
        return self.take()

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("unexpected %r" % tok[1], tok[2],
                                  ("'+'", "'-'", "'*'", "'/'", "end of input"))
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, offset = self.take()
            rhs = self.term()
            _check_product(op, value, rhs, offset)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.take()
            rhs = self.factor()
            _check_product(op, value, rhs, offset)
            if op == "*":
                value = value * rhs
            elif is_zero(rhs):
                raise DivisionByZero("division by zero")
            else:
                value = value / rhs
        return value

    def factor(self):
        value = self.atom()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            tok = self.peek()
            if tok[0] != "int":
                raise NonIntegerExponent(
                    "exponent must be an integer literal, found %r" % (tok[1] or "end of input"),
                    tok[2], ("integer",))
            self.take()
            n = _literal(tok)
            limit = _power_limit(value, n)
            if limit:
                raise ExprSyntaxError("power too large: the result could pass %s" % limit,
                                      tok[2])
            value = power(value, sign * n)
        return value

    def atom(self):
        tok = self.peek()
        kind = tok[0]
        if kind == "int":
            self.take()
            n = _literal(tok)
            # shared constants: the many 0 and 1 cells of a matrix hold no value each
            return ZERO if n == 0 else ONE if n == 1 else GaussianRational(n)
        if kind == "i":
            self.take()
            return GaussianRational(0, 1)
        if kind == "ident":
            self.take()
            return Polynomial.variable(tok[1])
        if kind in ("(", "-"):
            if self.depth == MAX_DEPTH:
                raise ExprSyntaxError("expression nested deeper than %d" % MAX_DEPTH, tok[2])
            self.take()
            self.depth += 1
            if kind == "(":
                value = self.expr()
                self.expect(")")
            else:
                value = -self.factor()
            self.depth -= 1
            return value
        raise ExprSyntaxError("unexpected %r" % (tok[1] or "end of input"),
                              tok[2], _ATOM_EXPECTED)


def _literal(tok):
    """The int of an integer token; ExprSyntaxError at the token when it
    has more digits than the interpreter converts."""
    try:
        return int(tok[1])
    except ValueError:
        raise ExprSyntaxError("integer literal of %d digits is too long" % len(tok[1]),
                              tok[2]) from None


def _term_counts(x):
    """(numerator terms, denominator terms) of a scalar."""
    if isinstance(x, RationalFunction):
        return len(x.num.terms), len(x.den.terms)
    if isinstance(x, Polynomial):
        return len(x.terms), 1
    return 1, 1


def _check_product(op, a, b, offset):
    """ExprSyntaxError at the operator when ``a op b`` could multiply
    past MAX_PRODUCT_TERMS term pairs: a product of sums of s and t terms
    takes s*t of them, for numerator and denominator both, and a sum of
    quotients multiplies across."""
    (na, da), (nb, db) = _term_counts(a), _term_counts(b)
    if op == "*":
        pairs = (na * nb, da * db)
    elif op == "/":
        pairs = (na * db, da * nb)
    elif da == db == 1:
        return
    else:
        pairs = (na * db + nb * da, da * db)
    if max(pairs) > MAX_PRODUCT_TERMS:
        kind = "sum" if op in "+-" else "product"
        raise ExprSyntaxError("%s too large: the result could pass %d terms"
                              % (kind, MAX_PRODUCT_TERMS), offset)


def _power_limit(base, n):
    """The bound that base^n could pass, or None: a sum of t terms to the
    n has up to comb(n+t-1, t-1) terms, and each coefficient up to n times
    the bits of the widest numerator or denominator of the base."""
    quotient = _lift(base, 2)
    polys = (quotient.num, quotient.den)
    width = max(max(f.numerator.bit_length(), f.denominator.bit_length())
                for p in polys for c in p.terms.values() for f in (c.re, c.im))
    if n * width > MAX_POWER_BITS:
        return "%d coefficient bits" % MAX_POWER_BITS
    t = max(len(p.terms) for p in polys)
    if t > 1 and (n >= MAX_POWER_TERMS or comb(n + t - 1, t - 1) > MAX_POWER_TERMS):
        return "%d terms" % MAX_POWER_TERMS
    return None


def parse_scalar(text: str):
    """Exact scalar value of ``text``, at the lowest sufficient tower level;
    raises ExprSyntaxError with the byte offset and the expected-token set
    on malformed input."""
    return lowest(_Parser(text).parse())
