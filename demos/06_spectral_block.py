"""Colour-dependent systems and the reconstructed D matrix.
===========================================================

Colour-dependent matrices are functions of an ordered colour pair
(u, v); the commutator substitutes the pairs (u1,u2), (u1,u3), (u2,u3)
and everything is evaluated as exact trivariate rational functions.

The bundled block (Aspec, Bspec, Cspec, Dspec) satisfies all eight
equations of the colour-dependent reflection system identically.  The D
member is special: its source display is garbled (a lost operator
between two factors), and neither plausible insertion closes the system.
The catalog ships the exactly reconstructed form: (u-v) times the unit
plus a colour-weighted flip.
"""

import json
import os

from ybx import catalog, systems
from ybx.tensor import matrix_to_text, transform, ybc_colour

# The difference-form solution (u-v)*1 + P of the colour equation.
A = catalog.instantiate("Aspec")
print("[[A,A,A]] = 0 identically:", ybc_colour(A, A, A).is_zero())

# B and C are each other's colour-swap conjugates: X^dd(u,v) = P X(v,u) P.
B, C = catalog.instantiate("Bspec"), catalog.instantiate("Cspec")
print("B = C^dd:", transform(C, "dd").base == B.base)

# The full block: all eight equations vanish identically in (u1,u2,u3).
block = {"A": A, "B": B, "C": C, "D": catalog.instantiate("Dspec")}
report = systems.residual("SPECTRAL_REFLECTION", block)
print("full block all-zero:", report.all_zero)
print()
print("the reconstructed D:")
print(matrix_to_text(block["D"].base, var_names=["u", "v"]))

# The investigation record: what the two insertion readings give, and
# the resolution.  tests/test_acceptance.py recomputes it and checks that
# it equals this golden file.
golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "tests", "golden", "spectral_reflection.json")
with open(golden) as fh:
    outcome = json.load(fh)
for cand in outcome["candidates"]:
    failing = [k for k, v in cand["equation_flags"].items() if not v]
    print("%-18s all-zero=%s failing=%s"
          % (cand["name"], cand["all_zero"], ", ".join(failing) or "-"))
print("%-18s all-zero=%s" % ("resolution", outcome["resolution"]["all_zero"]))
