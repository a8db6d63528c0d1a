"""Exact scalar arithmetic: Gaussian rationals, Laurent polynomials,
rational functions.
=====================================================================

Everything in this package computes over an exact tower; there is no
floating point anywhere.  This demo walks the three levels.
"""

from ybx.exprparse import parse_scalar
from ybx.scalar import (GaussianRational, Polynomial, invert, scalar_str,
                        substitute)

# Level 0: Gaussian rationals (exact complex numbers with rational parts).
i = GaussianRational(0, 1)
print("i * i =", scalar_str(i * i))
print("1/(2+i) =", scalar_str(invert(GaussianRational(2, 1))))

# Level 1: sparse Laurent polynomials; negative exponents are first-class,
# so q - q^-1 needs no denominator.
q = Polynomial.variable("q")
d = q - invert(q)
print("q - q^-1 =", scalar_str(d))
print("(q - q^-1)*q =", scalar_str(d * q))
print("at q=2:", scalar_str(substitute(d, {"q": 2})))

# Level 2: rational functions appear only when a multi-term denominator
# forces them; equality is decided by cross-multiplication.
r = parse_scalar("(a - b)/(a + b)")
print("(a-b)/(a+b) =", scalar_str(r), "  [type %s]" % type(r).__name__)

# The entry grammar round-trips: parse -> value -> canonical text -> parse.
expr = "k - k^-1 + 2"
val = parse_scalar(expr)
print("%r parses to %s and back to an equal value: %s"
      % (expr, scalar_str(val), parse_scalar(scalar_str(val)) == val))

# Parse errors carry byte offsets and the expected-token set.
try:
    parse_scalar("q^s")
except Exception as exc:
    print("q^s ->", type(exc).__name__, "at offset", exc.offset)
