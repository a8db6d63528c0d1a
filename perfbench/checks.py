"""Output checks, run after the timed phase.

Mathematical outputs are compared with the independent oracles in
``tests/oracles.py`` (six-index commutator loops, fraction-free rank);
exit codes are compared with the README contract (0 verified, 1
mathematical failure, 2 usage or specification error).  A check returns
None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from math import isqrt

from workloads import expressions, splitmix_matrix

NONZERO_LINE = re.compile(r"equation \[R,R,R\]: NONZERO \((\d+) entries\)")
MISSING_INVERSE = ("determinant is zero", "singular", "inverse", "invertible")


class Checker:
    def __init__(self, lib, oracles):
        self.lib = lib
        self.oracles = oracles

    def check(self, result):
        """None when ``result`` meets its request's expectation, else why not."""
        if result.error is not None:
            return "uncaught exception %s" % result.error
        return getattr(self, "_" + result.req.check)(result)

    # -- helpers ------------------------------------------------------------

    def _matrix(self, rows):
        return self.lib.tensor.SquareMatrix(rows)

    def _x_of(self, info):
        if "grid" in info:
            return self._matrix(info["grid"])
        name, pins = info["catalog"]
        return self.lib.catalog.instantiate(name, expressions(pins))

    def _gaussian(self, x):
        return x if isinstance(x, self.lib.scalar.GaussianRational) else x.constant_value()

    def _commutator_zero(self, X, Z):
        N = isqrt(X.dim)
        return self.oracles.ybc_loops(X, X, Z, N=N).is_zero()

    def _oracle_rank(self, X):
        """Rank of Z -> [X,X,Z] from loop commutators on unit matrices."""
        n = X.dim
        N = isqrt(n)
        cols = []
        for k in range(n):
            for l in range(n):
                E = self._matrix([[1 if (i, j) == (k, l) else 0 for j in range(n)]
                                  for i in range(n)])
                C = self.oracles.ybc_loops(X, X, E, N=N)
                cols.append([self._gaussian(x) for row in C.rows for x in row])
        rows = [list(r) for r in zip(*cols)]
        return self.oracles.bareiss_rank(rows)

    # -- rules --------------------------------------------------------------

    def _verify_pass(self, r):
        want = r.req.info["samples"]
        lines = r.out.splitlines()
        last = "overall: PASS (%d sample%s)" % (want, "" if want == 1 else "s")
        if r.value != 0:
            return "expected exit 0, got %r" % (r.value,)
        if not lines or lines[-1] != last:
            return "expected %r, got %r" % (last, lines[-1] if lines else "")
        passed = sum(1 for ln in lines if re.fullmatch(r"sample \d+: PASS", ln))
        if passed != want:
            return "expected %d passing samples, got %d" % (want, passed)
        return None

    def _ybe_fail9(self, r):
        if r.value != 1:
            return "expected exit 1, got %r" % (r.value,)
        m = NONZERO_LINE.search(r.out)
        if m is None or not r.out.endswith("overall: FAIL (1 sample)\n"):
            return "no FAIL report with a nonzero count"
        R = self._matrix(splitmix_matrix(9, r.req.info["seed"]))
        C = self.oracles.ybc_loops(R, R, R, N=3)
        want = sum(1 for row in C.rows for x in row if not x.is_zero())
        if int(m.group(1)) != want:
            return "nonzero_count %s, loop oracle counts %d" % (m.group(1), want)
        return None

    def _orbit(self, r):
        if r.value == 0 and r.out.endswith("check: PASS\n"):
            return None
        if (r.value == 1 and r.err.startswith("error: ")
                and any(s in r.err for s in MISSING_INVERSE)):
            return None
        return "expected exit 0 with check: PASS or exit 1 for a missing inverse, " \
               "got exit %r (%s)" % (r.value, (r.out + r.err).strip().splitlines()[-1:])

    def _usage_error(self, r):
        if r.value == 2 and not r.out and "error" in r.err:
            return None
        tail = (r.out + r.err).strip().splitlines()[-1:]
        return "expected exit 2 with an error message, got exit %r (%s)" % (r.value, tail)

    def _solve(self, r):
        if r.value != 0:
            return "expected exit 0, got %r" % (r.value,)
        data = json.loads(r.out)
        X = self._x_of(r.req.info)
        n = X.dim
        if data["rank"] + data["dimension"] != n * n:
            return "rank %d + dimension %d != %d" % (data["rank"], data["dimension"], n * n)
        if len(data["basis"]) != data["dimension"]:
            return "basis has %d members, dimension is %d" % (len(data["basis"]),
                                                              data["dimension"])
        for k, mat in enumerate(data["basis"]):
            Z, _ = self.lib.tensor.matrix_from_text(mat)
            if not self._commutator_zero(X, Z):
                return "basis member %d fails the loop oracle" % (k + 1)
        unknowns = data["ybe_system"].splitlines()[0].split()[1:]
        if len(unknowns) != data["dimension"]:
            return "emitted system has %d unknowns for dimension %d" % (
                len(unknowns), data["dimension"])
        if n == 4 and data["rank"] != self._oracle_rank(X):
            return "rank %d differs from the fraction-free oracle" % data["rank"]
        return None

    def _member(self, r):
        want = self._commutator_zero(r.req.info["X"], r.req.info["Z"])
        if r.value is not want:
            return "contains returned %r, loop oracle says %r" % (r.value, want)
        return None
