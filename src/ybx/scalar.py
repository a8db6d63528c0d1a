"""Exact scalar tower: Gaussian rationals, sparse multivariate Laurent
polynomials over them, and rational functions as quotient pairs.

Every value is immutable after construction and all arithmetic is exact;
there is no floating point anywhere in this package.  The three levels
coerce upward automatically (GaussianRational -> Polynomial ->
RationalFunction), so mixed-level expressions just work.

A GaussianRational stores (a + b*i)/d as three ints with d > 0 and
gcd(a, b, d) = 1, so equal values have equal ints and zero is (0, 0, 1).
Each operation works on the ints over one denominator and reduces its
result with at most one gcd (Henrici, J. ACM 3, 1956; Knuth, TAOCP 2,
4.5.1).  It is built from ints and Fractions only.

Equality of rational functions is decided by cross-multiplication; there
is no mandatory gcd normalisation (multivariate gcd would be costly and
is unnecessary for exact zero testing).  An integer content reduction
keeps coefficient sizes bounded.
"""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import gcd, lcm

from .errors import DenominatorVanishes, DivisionByZero, YbxError


# ---------------------------------------------------------------------------
# variable registry

# An append-only name <-> id table; registration order is the global
# variable order used for monomial comparison and printing.
_var_lock = threading.Lock()
_var_ids = {}
_var_names = []


def var_id(name: str) -> int:
    """Id of the variable ``name``, registering it on first use."""
    vid = _var_ids.get(name)
    if vid is None:
        with _var_lock:
            vid = _var_ids.get(name)
            if vid is None:
                vid = len(_var_names)
                _var_names.append(name)
                _var_ids[name] = vid
    return vid


def var_name(vid: int) -> str:
    return _var_names[vid]


# ---------------------------------------------------------------------------
# monomials
#
# A Laurent monomial is a tuple of (variable id, nonzero exponent) pairs
# sorted by id; () is the unit monomial.

Monomial = tuple


def _mono_mul(a, b):
    """Product of two monomials.  A pair taken over unchanged is the
    factor's own tuple, not a copy, so the many monomials of a large
    product share their pairs."""
    if not a:
        return b
    if not b:
        return a
    merged = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            merged.append(a[i])
            i += 1
        elif vb < va:
            merged.append(b[j])
            j += 1
        else:
            e = ea + eb
            if e:
                merged.append((va, e))
            i += 1
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged)


def _mono_inv(m):
    return tuple((v, -e) for v, e in m)


# ---------------------------------------------------------------------------
# the tower

class Scalar:
    """Common arithmetic shell; concrete levels implement _add/_mul/..."""

    __slots__ = ()
    _LEVEL = -1

    def __add__(self, other):
        pair = _coerce(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._add(b)

    __radd__ = __add__

    def __sub__(self, other):
        pair = _coerce(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._add(b._neg())

    def __rsub__(self, other):
        pair = _coerce(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b._add(a._neg())

    def __mul__(self, other):
        pair = _coerce(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._mul(b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = _coerce(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._div(b)

    def __rtruediv__(self, other):
        pair = _coerce(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b._div(a)

    def __neg__(self):
        return self._neg()

    def _div(self, o):
        return self._mul(o.inv())

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n)

    def __eq__(self, other):
        pair = _coerce(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._eq(b)

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, scalar_str(self))


class GaussianRational(Scalar):
    """(a + b*i)/d over the ints a, b, d, in the one form the module
    docstring describes; ``re`` and ``im`` are its parts as Fractions."""

    __slots__ = ("a", "b", "d")
    _LEVEL = 0

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        p, q = _ratio(re)
        r, s = _ratio(im)
        g = gcd(q, s)
        # p/q and r/s are in lowest terms, so over lcm(q, s) no prime
        # divides all three
        self.a, self.b, self.d = p * (s // g), r * (q // g), q // g * s

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def is_zero(self):
        return not self.a and not self.b

    def is_one(self):
        return self.a == 1 and not self.b and self.d == 1

    def _add(self, o):
        d = self.d
        if d == o.d:
            a, b = self.a + o.a, self.b + o.b
            if d == 1:
                return _gr(a, b, 1)
        else:
            e = o.d
            a, b, d = self.a * e + o.a * d, self.b * e + o.b * d, d * e
        return _reduced(a, b, d)

    def _neg(self):
        return _gr(-self.a, -self.b, self.d)

    def _mul(self, o):
        a, b, c, e = self.a, self.b, o.a, o.b
        d = self.d * o.d
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
        if d == 1:
            return _gr(a, b, 1)
        return _reduced(a, b, d)

    def inv(self):
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise DivisionByZero("inversion of zero")
        return _reduced(d * a, -d * b, n)

    def _eq(self, o):
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        # equal to ints and Fractions, so it must hash like them
        return hash(self.re) if not self.b else hash((self.re, self.im))

    def as_poly(self):
        if self.is_zero():
            return Polynomial({})
        return Polynomial({(): self})

    def variables(self):
        return set()

    def substitute(self, mapping):
        return self


def _ratio(x):
    """(numerator, denominator) of an int or Fraction in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError("a GaussianRational part must be an int or a Fraction, not %s"
                    % type(x).__name__)


_new = object.__new__


def _gr(a, b, d):
    """The GaussianRational (a + b*i)/d, for a, b, d already in its form."""
    g = _new(GaussianRational)
    g.a, g.b, g.d = a, b, d
    return g


def _reduced(a, b, d):
    """The GaussianRational (a + b*i)/d for any d > 0."""
    g = gcd(a, b, d)
    if g == 1:
        return _gr(a, b, d)
    return _gr(a // g, b // g, d // g)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class Polynomial(Scalar):
    """Sparse Laurent polynomial: map Monomial -> nonzero GaussianRational."""

    __slots__ = ("terms",)
    _LEVEL = 1

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def variable(name):
        return Polynomial.from_vid(var_id(name))

    @staticmethod
    def from_vid(vid, exp=1):
        return Polynomial({((vid, exp),) if exp else (): ONE})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self):
        """The GaussianRational value of a constant polynomial."""
        if not self.terms:
            return ZERO
        return self.terms[()]

    def _add(self, o):
        big, small = (self.terms, o.terms) if len(self.terms) >= len(o.terms) else (o.terms, self.terms)
        out = dict(big)
        for m, c in small.items():
            cur = out.get(m)
            if cur is None:
                out[m] = c
            else:
                s = cur._add(c)
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
        return Polynomial(out)

    def _neg(self):
        return Polynomial({m: c._neg() for m, c in self.terms.items()})

    def _mul(self, o):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = _mono_mul(m1, m2)
                c = c1._mul(c2)
                cur = out.get(m)
                if cur is None:
                    out[m] = c
                else:
                    s = cur._add(c)
                    if s.is_zero():
                        del out[m]
                    else:
                        out[m] = s
        return Polynomial(out)

    def scale(self, c):
        """Every coefficient times the GaussianRational ``c``."""
        if c.is_zero():
            return Polynomial({})
        return Polynomial({m: k._mul(c) for m, k in self.terms.items()})

    def _div(self, o):
        if len(o.terms) > 1:
            return RationalFunction(self, o)
        return self._mul(o.inv())

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inversion of zero polynomial")
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            return Polynomial({_mono_inv(m): c.inv()})
        return RationalFunction(_ONE_POLY, self)

    def _eq(self, o):
        return self.terms == o.terms

    def variables(self):
        return {v for m in self.terms for v, _ in m}

    def substitute(self, mapping):
        out = ZERO
        for m, coeff in self.terms.items():
            factor = coeff
            for vid, exp in m:
                val = mapping.get(vid)
                if val is None:
                    factor = factor * Polynomial.from_vid(vid, exp)
                else:
                    factor = factor * power(val, exp)
            out = out + factor
        return lowest(out)

    def as_rf(self):
        return RationalFunction(self, _ONE_POLY)

    __hash__ = None


_ONE_POLY = Polynomial({(): ONE})


class RationalFunction(Scalar):
    """Quotient num/den of Laurent polynomials, den not identically zero.

    Equality is cross-multiplication; the representation is not canonical.
    """

    __slots__ = ("num", "den")
    _LEVEL = 2

    def __init__(self, num, den):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        c = _content(den)
        if c != 1:
            inv = GaussianRational(1 / c)
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def _add(self, o):
        return RationalFunction(
            self.num._mul(o.den)._add(o.num._mul(self.den)),
            self.den._mul(o.den),
        )

    def _neg(self):
        return RationalFunction(self.num._neg(), self.den)

    def _mul(self, o):
        return RationalFunction(self.num._mul(o.num), self.den._mul(o.den))

    def inv(self):
        if self.num.is_zero():
            raise DivisionByZero("inversion of zero")
        return RationalFunction(self.den, self.num)

    def _eq(self, o):
        return self.num._mul(o.den)._eq(o.num._mul(self.den))

    def variables(self):
        return self.num.variables() | self.den.variables()

    def substitute(self, mapping):
        den = lowest(self.den.substitute(mapping))
        if is_zero(den):
            raise DenominatorVanishes(
                "denominator %s vanishes under substitution" % scalar_str(self.den))
        num = self.num.substitute(mapping)
        return lowest(num / den)

    __hash__ = None


def _content(p):
    """Positive rational content (gcd of coefficient components) of p."""
    nums = 0
    dens = 1
    for c in p.terms.values():
        # gcd(c.a, c.b) / c.d is the content of c, in lowest terms
        nums = gcd(nums, c.a, c.b)
        dens = lcm(dens, c.d)
    if not nums:
        return Fraction(0)
    return Fraction(nums, dens)


# ---------------------------------------------------------------------------
# coercion and generic helpers

def as_scalar(x):
    """Lift ints and Fractions into the tower; pass scalars through."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError("cannot interpret %r as a scalar" % (x,))


def _lift(x, level):
    while x._LEVEL < level:
        if x._LEVEL == 0:
            x = x.as_poly()
        else:
            x = x.as_rf()
    return x


def _coerce(a, b):
    """(a, b) lifted to the higher of their levels, for the Scalar ``a``;
    None when ``b`` is neither a Scalar nor an int or Fraction."""
    if not isinstance(b, Scalar):
        if not isinstance(b, (int, Fraction)):
            return None
        b = GaussianRational(b)
    level = a._LEVEL if a._LEVEL >= b._LEVEL else b._LEVEL
    return _lift(a, level), _lift(b, level)


def is_zero(x):
    return x.is_zero() if isinstance(x, Scalar) else as_scalar(x).is_zero()


def power(x, n: int):
    """x**n for integer n (negative allowed when x is invertible)."""
    x = as_scalar(x)
    if n == 0:
        return ONE
    if n < 0:
        x = invert(x)
        n = -n
    out = None
    base = x
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return out


def invert(x):
    """Exact multiplicative inverse; raises DivisionByZero on zero input."""
    x = as_scalar(x)
    return x.inv()


def gaussian_integers(row):
    """(d, scaled): d is the least common multiple of the denominators of
    the GaussianRationals in the {column: value} ``row``, and scaled maps
    the column of each nonzero value to that value times d, as an (re, im)
    pair of ints.  One positive factor scales them all, so a row keeps its
    nullspace and a matrix its zero entries."""
    d = lcm(*(g.d for g in row.values()))
    return d, {c: (g.a * (d // g.d), g.b * (d // g.d)) for c, g in row.items() if g.a or g.b}


def lowest(x):
    """Push a scalar down to the lowest tower level that represents it."""
    if isinstance(x, RationalFunction):
        if len(x.den.terms) > 1:
            return x
        x = x.num._div(x.den)
    if isinstance(x, Polynomial) and x.is_constant():
        return x.constant_value()
    return x


def substitute(x, assignment):
    """Exact image of ``x`` under variable -> scalar substitution.

    ``assignment`` maps variable names (or ids) to scalars / ints /
    Fractions; unassigned variables stay symbolic.  Substitution is
    simultaneous.  Raises DivisionByZero when a negative power receives
    zero, DenominatorVanishes when a denominator collapses.
    """
    x = as_scalar(x)
    mapping = {}
    for key, val in assignment.items():
        vid = var_id(key) if isinstance(key, str) else key
        mapping[vid] = as_scalar(val)
    return x.substitute(mapping)


# ---------------------------------------------------------------------------
# canonical printing (round-trips through the exprparse grammar)

def _frac_str(f: Fraction) -> str:
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return "%d/%d" % (f.numerator, f.denominator)
    except ValueError:
        bits = max(f.numerator.bit_length(), f.denominator.bit_length())
        raise YbxError("cannot print an integer of %d bits: it has more than %d digits, "
                       "the most the interpreter converts to text"
                       % (bits, sys.get_int_max_str_digits())) from None


def gaussian_str(g: GaussianRational) -> str:
    re, im = g.re, g.im
    if not im:
        return _frac_str(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return _frac_str(im) + "*i"
    s = _frac_str(re)
    if im > 0:
        s += "+" + ("i" if im == 1 else _frac_str(im) + "*i")
    else:
        s += "-" + ("i" if im == -1 else _frac_str(-im) + "*i")
    return "(" + s + ")"


def _monomial_str(m: Monomial) -> str:
    parts = []
    for vid, exp in m:
        name = var_name(vid)
        parts.append(name if exp == 1 else "%s^%d" % (name, exp))
    return "*".join(parts)


def _term_str(m: Monomial, c: GaussianRational) -> str:
    if not m:
        return gaussian_str(c)
    ms = _monomial_str(m)
    if c.is_one():
        return ms
    if c.a == -1 and not c.b and c.d == 1:
        return "-" + ms
    return gaussian_str(c) + "*" + ms


def poly_str(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    vids = sorted(p.variables())

    def exponent_vector(m):
        # variables in registration order, so the global order is stable
        exps = dict(m)
        return [exps.get(v, 0) for v in vids]

    monos = sorted(p.terms, key=exponent_vector, reverse=True)
    out = _term_str(monos[0], p.terms[monos[0]])
    for m in monos[1:]:
        t = _term_str(m, p.terms[m])
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def _is_atomic_factor(p: Polynomial) -> bool:
    """True when poly prints as a bare atom (or atom^n) safe after '/'."""
    if len(p.terms) != 1:
        return False
    (m, c), = p.terms.items()
    if not m:
        return not c.b and c.d == 1 and c.a > 0
    return c.is_one() and len(m) == 1


def rf_str(r: RationalFunction) -> str:
    if r.den._eq(_ONE_POLY):
        return poly_str(r.num)
    ns = poly_str(r.num)
    if len(r.num.terms) > 1:
        ns = "(" + ns + ")"
    ds = poly_str(r.den)
    if not _is_atomic_factor(r.den):
        ds = "(" + ds + ")"
    return ns + "/" + ds


def scalar_str(x) -> str:
    """Canonical text for any scalar: terms in monomial order, exact
    coefficients, `^` exponents.  Parses back to an equal value."""
    x = as_scalar(x)
    if isinstance(x, GaussianRational):
        return gaussian_str(x)
    if isinstance(x, Polynomial):
        return poly_str(x)
    return rf_str(x)
