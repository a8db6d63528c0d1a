"""ybx: exact tools for Yang-Baxter systems in small dimension.

Modules:
  scalar    exact arithmetic tower (Gaussian rationals, Laurent
            polynomials, rational functions)
  exprparse entry-expression grammar
  tensor    square matrices, leg embeddings, Yang-Baxter commutators,
            matrix transforms, matrix files
  catalog   named parameterized matrices with admissibility constraints
  systems   declarative Yang-Baxter systems and residual verification
  solver    nullspace solving, polynomial-system emission, symmetry orbits
  cli       the `ybx` command-line front end
"""

__version__ = "0.1.0"
