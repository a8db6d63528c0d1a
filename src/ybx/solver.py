"""The solution strategy made executable: exact nullspace solving of the
Z-linear equation, residual-system emission for the X-quadratic equation,
the symmetry-orbit engine, and the braided-group-to-double constructor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import exprparse
from .errors import (DimensionMismatch, InputNotQbgSolution, NotInvertible,
                     SymbolicInput, YbxError)
from .scalar import (ZERO, ONE, GaussianRational, Polynomial, as_scalar,
                     is_zero, lowest, scalar_str, var_id)
from .tensor import SquareMatrix, _local_dim, conjugate, embed, transform, ybc_const
from .tensor import rref  # perfbench/tracing.py traces the span solver.rref by this name
from .systems import SYSTEMS, verify
from .zform import bareiss, over


# ---------------------------------------------------------------------------
# exact linear algebra over the scalar field

def nullspace(rows, ncols):
    """Echelon-normalized nullspace basis of rows * x = 0, for rows given
    as {column: (re, im)} dicts of Gaussian integers; returns (basis
    vectors of GaussianRationals, rank).

    The rows go through one fraction-free pass, ``zform.bareiss``, which
    keeps each independent row as D times its reduced form.  The basis has
    one vector per free column f, in column order: 1 at f and
    -kept[pc][f] / D at each pivot column pc.  Every division is exact and no step is
    probabilistic, so this is the basis read off the reduced row echelon
    form of all the rows."""
    kept, _, d = bareiss(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in kept:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for pc, row in kept.items():
            if f in row:
                xa, xb = row[f]
                v[pc] = over((-xa, -xb), d)
        basis.append(v)
    return basis, len(kept)


@dataclass
class SolutionSpace:
    """Basis of a linear space of n x n matrices."""

    member_dim: int
    basis: list            # list of SquareMatrix
    rank: int              # rank of the defining linear system

    @property
    def dim(self):
        return len(self.basis)

    def vectors(self):
        return [[m.rows[i][j] for i in range(self.member_dim)
                 for j in range(self.member_dim)] for m in self.basis]

    def contains(self, M: SquareMatrix) -> bool:
        """Exact membership without elimination.  Each basis vector has a
        free column, where it is 1 and every other vector is 0 (as ``nullspace``
        builds them), so M is in the span exactly when it equals the sum
        over the basis of M[free column] * vector.  ValueError when a vector
        has no free column."""
        if M.dim != self.member_dim:
            return False
        target = [M.rows[i][j] for i in range(M.dim) for j in range(M.dim)]
        vecs = self.vectors()
        shared = [sum(not v[c].is_zero() for v in vecs) for c in range(len(target))]
        combo = [ZERO] * len(target)
        for k, v in enumerate(vecs):
            col = next((c for c, x in enumerate(v) if shared[c] == 1 and x == ONE), None)
            if col is None:
                raise ValueError("basis vector %d has no free column" % (k + 1))
            combo = [y if x.is_zero() else y + target[col] * x for x, y in zip(v, combo)]
        return combo == target


def solve_z_linear(X: SquareMatrix) -> SolutionSpace:
    """Full nullspace of Z -> X12 X13 Z23 - Z23 X13 X12 (exact).

    X must be numeric; substitute symbolic parameters first (SymbolicInput
    otherwise).  Its dim must be a perfect square (DimensionMismatch
    otherwise).  The basis is echelon-normalized with deterministic pivot
    order, and rank + dim = (dim of X)^2 by construction.  Constant
    entries are lowered to GaussianRationals.  M1 = X12 X13 and
    M2 = X13 X12 = P23 M1 P23, where P23 swaps legs 2 and 3, hold the same
    entries, so their int forms share one least denominator; each equation
    is built from their Gaussian integers as one sparse {column: (re, im)}
    row for the one exact pass of ``nullspace``.
    """
    if not X.is_numeric():
        raise SymbolicInput(
            "solve_z_linear needs numeric entries; substitute parameters first")
    X = SquareMatrix([[lowest(a) for a in row] for row in X.rows])
    n2 = X.dim
    N = _local_dim(X, "X")
    X12, X13 = embed(X, (1, 2)), embed(X, (1, 3))
    (_, m1), (_, m2) = (X12 * X13)._zi, (X13 * X12)._zi
    m1 = [{c: (a, b) for c, a, b in zrow} for zrow in m1]
    m2 = [{c: (a, b) for c, a, b in zrow} for zrow in m2]
    # Row (r, c) of the system is entry (r, c) of M1 Z23 - Z23 M2.  With
    # r = (a, x) and c = (b, y) split at leg 1, that entry is
    # sum_k M1[r][b, k] Z[k, y] - sum_l Z[x, l] M2[a, l][c].
    rows = []
    for r in range(N ** 3):
        a, x = divmod(r, n2)
        m1row = m1[r]
        for c in range(N ** 3):
            b, y = divmod(c, n2)
            row = {}
            for k in range(n2):
                v = m1row.get(b * n2 + k)
                if v is not None:
                    row[k * n2 + y] = v
            for l in range(n2):
                v = m2[a * n2 + l].get(c)
                if v is not None:
                    col = x * n2 + l
                    p, q = row.get(col, (0, 0))
                    row[col] = (p - v[0], q - v[1])
            rows.append(row)
    vecs, rank = nullspace(rows, n2 * n2)
    basis = []
    for v in vecs:
        basis.append(SquareMatrix([[v[i * n2 + j] for j in range(n2)]
                                   for i in range(n2)]))
    return SolutionSpace(n2, basis, rank)


# ---------------------------------------------------------------------------
# emitted polynomial systems

@dataclass
class PolySystem:
    """Polynomial equations (each required zero) in declared unknowns."""

    unknowns: list
    equations: list        # nonzero scalars (Laurent polynomials)

    @property
    def identically_zero(self):
        return not self.equations

    def residuals_at(self, assignment):
        from .scalar import substitute
        return [substitute(eq, assignment) for eq in self.equations]

    def to_text(self):
        lines = ["unknowns: " + " ".join(self.unknowns)]
        for eq in self.equations:
            lines.append("%s = 0" % scalar_str(eq))
        return "\n".join(lines) + "\n"


def filter_ybe(space: SolutionSpace) -> PolySystem:
    """Write Z = sum c_i basis_i with fresh unknowns and emit the entries
    of the cubic commutator [Z,Z,Z] as polynomials in the c_i.  Does not
    solve the system."""
    names = ["c%d" % (i + 1) for i in range(space.dim)]
    n = space.member_dim
    terms = [[{} for _ in range(n)] for _ in range(n)]
    for name, m in zip(names, space.basis):
        mono = ((var_id(name), 1),)
        for row, basis_row in zip(terms, m.rows):
            for entry, x in zip(row, basis_row):
                if not x.is_zero():
                    entry[mono] = x
    Z = SquareMatrix([[Polynomial(t) if t else ZERO for t in row] for row in terms])
    res = ybc_const(Z, Z, Z)
    equations = [x for row in res.rows for x in row if not x.is_zero()]
    return PolySystem(names, equations)


def emit_x_system(W: SquareMatrix, pattern, unknowns) -> PolySystem:
    """Entries of [W, X, X] as quadratic polynomials in the pattern's
    unknowns (plus any symbolic parameters of W).

    ``pattern`` is a grid of expression strings (or ints); names listed in
    ``unknowns`` are the quadratic unknowns, all other identifiers are
    treated as parameters.
    """
    rows = [[exprparse.parse_scalar(str(cell)) for cell in row] for row in pattern]
    X = SquareMatrix(rows)
    res = ybc_const(W, X, X)
    equations = [x for row in res.rows for x in row if not x.is_zero()]
    return PolySystem(list(unknowns), equations)


# ---------------------------------------------------------------------------
# the symmetry group

# The discrete steps, each name -> (code -> the tag it names, the input
# slot that feeds each output slot, the middle slot's tag).  A step's two
# codes tag its outer output slots; "t" takes none and transposes all
# three, and only dsym3 swaps the outer pair.
STEPS = {
    "t": ({}, (0, 1, 2), "t"),
    "dsym1": ({"i": "id", "#": "#"}, (0, 1, 2), "id"),
    "dsym2": ({"+": "+", "-": "-"}, (0, 1, 2), "-"),
    "dsym3": ({"+": "+", "-": "-"}, (2, 1, 0), "+"),
}
DISCRETE_STEPS = tuple(STEPS)


@dataclass
class TransformSpec:
    """Continuous part (T, S in SL(2), nonzero scales) plus a word of
    discrete steps, each a tuple (name, *outer tags) of a step in
    ``STEPS``: ("t",), ("dsym1", "id", "#"), ("dsym3", "+", "-").
    Composition: continuous first, then the word left to right.
    """

    t_mat: SquareMatrix | None = None
    s_mat: SquareMatrix | None = None
    omega: object = None
    xi: object = None
    zeta: object = None
    word: tuple = ()


def parse_word(text: str):
    """Parse a word like "dsym3:++,t,dsym1:i#" into step tuples."""
    steps = []
    for part in text.split(",") if text else ():
        part = part.strip()
        if part in ("t", "dsym"):
            steps.append(("t",))
            continue
        if ":" not in part:
            raise ValueError("bad transform step %r" % part)
        head, codes = part.split(":", 1)
        tags = STEPS.get(head, ({},))[0]
        if not tags:
            raise ValueError("unknown transform step %r" % part)
        if len(codes) != 2 or any(c not in tags for c in codes):
            raise ValueError("%s needs two codes from {%s}: %r" % (head, ",".join(tags), part))
        steps.append((head, *(tags[c] for c in codes)))
    return tuple(steps)


def _step_apply(triple, step):
    if step[0] not in STEPS:
        raise ValueError("unknown step %r" % (step,))
    _, slots, middle = STEPS[step[0]]
    left, right = step[1:] or (middle, middle)
    try:
        return tuple(transform(triple[k], tag)
                     for k, tag in zip(slots, (left, middle, right)))
    except NotInvertible as exc:
        raise NotInvertible("step %s: %s" % (step[0], exc)) from None


def apply_transform(triple, spec: TransformSpec):
    """Image of a (W, X, Z) triple under a symmetry transformation."""
    W, X, Z = triple
    for role, mat in (("X", X), ("Z", Z)):
        if mat.dim != W.dim:
            raise DimensionMismatch("role %s has dim %d, but role W has dim %d"
                                    % (role, mat.dim, W.dim))
    if spec.t_mat is not None or spec.s_mat is not None or any(
            v is not None for v in (spec.omega, spec.xi, spec.zeta)):
        N = _local_dim(W, "W")
        for role, mat in (("T", spec.t_mat), ("S", spec.s_mat)):
            if mat is not None and mat.dim != N:
                raise DimensionMismatch("role %s has dim %d, but the triple needs dim %d"
                                        % (role, mat.dim, N))
        T = spec.t_mat if spec.t_mat is not None else SquareMatrix.identity(N)
        S = spec.s_mat if spec.s_mat is not None else SquareMatrix.identity(N)
        omega = as_scalar(spec.omega) if spec.omega is not None else ONE
        xi = as_scalar(spec.xi) if spec.xi is not None else ONE
        zeta = as_scalar(spec.zeta) if spec.zeta is not None else ONE
        try:
            W = conjugate(W, T, T, omega)
            X = conjugate(X, T, S, xi)
            Z = conjugate(Z, S, S, zeta)
        except NotInvertible as exc:
            raise NotInvertible("continuous part: %s" % exc) from None
    triple = (W, X, Z)
    for step in spec.word:
        triple = _step_apply(triple, step)
    return triple


def random_sl2(rng: random.Random) -> SquareMatrix:
    """Random integer SL(2) matrix as a product of three elementary shears."""
    M = SquareMatrix.identity(2)
    for _ in range(3):
        a = rng.randint(-3, 3)
        if rng.random() < 0.5:
            E = SquareMatrix([[1, a], [0, 1]])
        else:
            E = SquareMatrix([[1, 0], [a, 1]])
        M = M * E
    return M


def random_transform_spec(rng: random.Random) -> TransformSpec:
    """Random symmetry element: SL(2) pair, nonzero rational scales, and a
    discrete word of length <= 4."""
    from fractions import Fraction
    def scale():
        num = rng.choice([n for n in range(-4, 5) if n])
        den = rng.choice([1, 1, 2, 3])
        return GaussianRational(Fraction(num, den))
    word = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(DISCRETE_STEPS)
        tags = list(STEPS[kind][0].values())
        word.append((kind,) + ((rng.choice(tags), rng.choice(tags)) if tags else ()))
    return TransformSpec(t_mat=random_sl2(rng), s_mat=random_sl2(rng),
                         omega=scale(), xi=scale(), zeta=scale(),
                         word=tuple(word))


# ---------------------------------------------------------------------------
# braided-group pairs -> double triples

def qbg_admissible(R: SquareMatrix):
    """(invertible, second inversion exists) for a braided-group candidate.

    The second inversion is read as invertibility of the partial transpose
    on the first tensor factor; this is an interpretation (the requirement
    names the object without defining it) and is checked by a determinant
    test only.
    """
    from .tensor import partial_transpose
    first = not is_zero(R.det())
    second = not is_zero(partial_transpose(R, 1).det())
    return first, second


def qbg_to_qdouble(Q: SquareMatrix, R: SquareMatrix):
    """Turn a braided-group pair (Q, R) into a verified double triple.

    The returned triple is (W, X, Z) = (Q, R, R Q^+ R^#); the middle
    conjugation by the flip is required for the construction to close
    (the flip-free composition fails, e.g. at Q = R = the q,s-deformed
    flip with q=2, s=3).  The precondition and the result are both
    verified, not assumed.
    """
    ok, rep = verify(SYSTEMS["QBG"], {"Q": Q, "R": R})
    if not ok:
        bad = [e.label for e in rep.equations if not e.zero]
        raise InputNotQbgSolution("pair fails %s" % ", ".join(bad))
    try:
        Z = R * transform(Q, "+") * transform(R, "#")
    except NotInvertible:
        raise NotInvertible("R must be invertible for the construction") from None
    ok, rep = verify(SYSTEMS["QDOUBLE"], {"W": Q, "X": R, "Z": Z})
    if not ok:
        raise YbxError("constructed triple unexpectedly fails the double system")
    return Q, R, Z
