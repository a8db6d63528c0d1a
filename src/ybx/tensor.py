"""Square matrices over the exact scalar tower, tensor-leg embeddings,
Yang-Baxter commutators and the discrete matrix transforms.

Index convention (fixed globally): the basis index of the N^3 space is
i1*N^2 + i2*N + i3 with leg 1 most significant; matrices are row-major.
"""

from __future__ import annotations

from math import isqrt

from . import exprparse, zform
from .errors import (DimensionMismatch, DivisionByZero, ExprSyntaxError, NotInvertible,
                     UnsupportedTransform, YbxError, ZeroScale, prefixed)
from .scalar import (ZERO, ONE, GaussianRational, Polynomial, as_scalar, invert,
                     is_zero, scalar_str, var_id, var_name)

# The most minors one symbolic det or inverse may expand.  A dense
# symbolic inverse needs 2,788 at dim 9 and 13,278 at dim 11 (0.8 s), about
# 2.2 times more per step of dim, so a dense dim-16 file stops after about
# 1 s and 36 MiB instead of exhausting memory (2-vCPU Intel Xeon guest,
# Python 3.11).
MAX_MINORS = 20_000


class SquareMatrix:
    """Immutable-by-convention n x n matrix of exact scalars.

    A matrix holds its entries in one or more of three forms, each filled
    from another the first time it is read: ``rows``, n lists of n
    scalars, ``_zi`` and ``_zp``.  ``_zi`` is None when an entry is not a
    GaussianRational, and otherwise the int form of ``zform``: Gaussian
    integers over one least denominator.  ``_zp`` is None when an entry
    is a RationalFunction, and otherwise the polynomial int form of
    ``zform``: Gaussian-integer coefficients over one least denominator.
    Arithmetic runs on ``_zi`` when every operand has it; products, sums,
    differences, negation, leg moves and the zero test run on ``_zp``
    when every operand has that instead.  Either returns a matrix that
    holds only its int form; ``rows`` reduces each coefficient, so entries
    have the type, value and text the scalar loop gives them.  The scalar
    loop is left for RationalFunction entries."""

    __slots__ = ("dim", "rows", "_zi", "_zp")

    def __init__(self, rows):
        n = len(rows)
        lifted = []
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch("matrix is not square")
            lifted.append([as_scalar(x) for x in row])
        self.dim = n
        self.rows = lifted

    def __getattr__(self, name):
        # called only for a slot never set: fill it from another form.  A
        # matrix without rows has _zi, and one whose _zi is None has _zp.
        if name == "rows":
            zi = self._zi
            self.rows = rows = (zform.to_rows(zi, self.dim) if zi is not None
                                else zform.poly_to_rows(self._zp, self.dim))
            return rows
        if name == "_zi":
            self._zi = zi = zform.of_rows(self.rows)
            return zi
        if name == "_zp":
            zi = self._zi
            self._zp = zp = zform.poly_of(zi) if zi is not None else zform.poly_of_rows(self.rows)
            return zp
        raise AttributeError(name)

    @staticmethod
    def identity(n):
        return _matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n):
        return _matrix([[ZERO] * n for _ in range(n)])

    @staticmethod
    def unit(n, i, j):
        rows = [[ZERO] * n for _ in range(n)]
        rows[i][j] = ONE
        return _matrix(rows)

    def __add__(self, other):
        self._same_dim(other)
        x, y = self._zi, other._zi
        if x is not None and y is not None:
            return _zmatrix(zform.combined(x, y, 1))
        m = _on_poly(self, other, zform.poly_combined, 1)
        if m is not None:
            return m
        return _matrix([[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)], True)

    def __sub__(self, other):
        self._same_dim(other)
        x, y = self._zi, other._zi
        if x is not None and y is not None:
            return _zmatrix(zform.combined(x, y, -1))
        m = _on_poly(self, other, zform.poly_combined, -1)
        if m is not None:
            return m
        return _matrix([[a - b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)], True)

    def __neg__(self):
        zi = self._zi
        if zi is not None:
            return _zmatrix(zform.negated(zi))
        zp = self._zp
        if zp is not None:
            return _pmatrix(zform.poly_negated(zp))
        return _matrix([[-a for a in row] for row in self.rows], True)

    def __mul__(self, other):
        """Matrix product: ``zform.product`` or ``zform.poly_product`` when
        both factors have that int form, else the scalar loop."""
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._same_dim(other)
        x, y = self._zi, other._zi
        if x is not None and y is not None:
            return _zmatrix(zform.product(x, y))
        m = _on_poly(self, other, zform.poly_product)
        if m is not None:
            return m
        n = self.dim
        out = [[ZERO] * n for _ in range(n)]
        brows = other.rows
        for i in range(n):
            arow = self.rows[i]
            orow = out[i]
            for k in range(n):
                a = arow[k]
                if a.is_zero():
                    continue
                brow = brows[k]
                for j in range(n):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        return _matrix(out, True)

    def scale(self, s):
        s = as_scalar(s)
        zi = self._zi
        if zi is not None and type(s) is GaussianRational:
            return _zmatrix(zform.scaled(zi, s))
        return _matrix([[s * a for a in row] for row in self.rows], True)

    def transpose(self):
        return _moved(self, self.dim, lambda r, c: ((c, r),))

    def is_zero(self):
        zi = self._zi
        if zi is not None:
            return not any(zi[1])
        zp = self._zp
        if zp is not None:
            return zform.poly_is_zero(zp)
        return all(a.is_zero() for row in self.rows for a in row)

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix) or self.dim != other.dim:
            return NotImplemented if not isinstance(other, SquareMatrix) else False
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    __hash__ = None

    def _same_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("dims %d and %d differ" % (self.dim, other.dim))

    def substitute(self, assignment):
        from .scalar import substitute
        return _matrix([[substitute(a, assignment) for a in row] for row in self.rows])

    def variables(self):
        out = set()
        for row in self.rows:
            for a in row:
                out |= a.variables()
        return out

    def is_numeric(self):
        return all(isinstance(a, GaussianRational) or
                   (isinstance(a, Polynomial) and a.is_constant())
                   for row in self.rows for a in row)

    def det(self):
        """Exact determinant: ``zform.det`` on the int form, else expanded
        along the first row by ``_minor``, which never divides."""
        zi = self._zi
        if zi is not None:
            return zform.det(zi)
        n = self.dim
        return _minor(self.rows, tuple(range(n)), tuple(range(n)), {})

    def inverse(self):
        """Exact inverse: ``zform.inverse`` on the int form.  Other entries
        split into the blocks of ``_blocks``, and each block's inverse is
        its adjugate over its determinant, all from one ``_minor`` table.
        Raises NotInvertible on a zero det."""
        zi = self._zi
        if zi is not None:
            zi = zform.inverse(zi)
            if zi is None:
                raise NotInvertible("determinant is zero")
            return _zmatrix(zi)
        rows, n = self.rows, self.dim
        out = [[ZERO] * n for _ in range(n)]
        memo = {}
        for rs, cs in _blocks(rows):
            d = _minor(rows, rs, cs, memo) if len(rs) == len(cs) else ZERO
            if is_zero(d):
                raise NotInvertible("determinant is zero")
            dinv = 1 / d
            for i, r in enumerate(rs):
                for j, c in enumerate(cs):
                    m = _minor(rows, rs[:i] + rs[i + 1:], cs[:j] + cs[j + 1:], memo)
                    out[c][r] = (m if (i + j) % 2 == 0 else -m) * dinv
        return _matrix(out, True)

    def __str__(self):
        return matrix_to_text(self)

    def __repr__(self):
        return "SquareMatrix(dim=%d)" % self.dim


def _matrix(rows, scalar=False):
    """The SquareMatrix of ``rows``: square lists that already hold scalars.
    ``scalar`` marks rows that scalar arithmetic made from a matrix with an
    entry that is not a GaussianRational; their ``_zi`` is None without a
    scan."""
    m = SquareMatrix.__new__(SquareMatrix)
    m.dim = len(rows)
    m.rows = rows
    if scalar:
        m._zi = None
    return m


def _zmatrix(zi):
    """The SquareMatrix whose int form is ``zi``."""
    m = SquareMatrix.__new__(SquareMatrix)
    m.dim = len(zi[1])
    m._zi = zi
    return m


def _pmatrix(zp):
    """The SquareMatrix whose polynomial int form is ``zp``; it holds the
    int form instead when no entry is a Polynomial."""
    zi = zform.poly_numeric(zp)
    if zi is not None:
        return _zmatrix(zi)
    m = SquareMatrix.__new__(SquareMatrix)
    m.dim = len(zp[1])
    m._zi = None
    m._zp = zp
    return m


def _on_poly(x, y, op, *args):
    """The matrix ``op`` makes of the polynomial int forms of x and y;
    None when either has none."""
    a, b = x._zp, y._zp
    if a is None or b is None:
        return None
    return _pmatrix(op(a, b, *args))


def _moved(M, size, places):
    """The matrix of dim ``size`` that holds each nonzero entry (r, c) of
    M at every position of ``places(r, c)``, which never share one.  No
    arithmetic: the result keeps M's form, and each entry its value."""
    zi = M._zi
    if zi is not None:
        return _zmatrix(zform.moved(zi, size, places))
    zp = M._zp
    if zp is not None:
        return _pmatrix(zform.poly_moved(zp, size, places))
    rows = [[ZERO] * size for _ in range(size)]
    for r, row in enumerate(M.rows):
        for c, x in enumerate(row):
            if not x.is_zero():
                for i, j in places(r, c):
                    rows[i][j] = x
    return _matrix(rows, True)


def _blocks(rows):
    """The connected components of the bipartite graph that joins row r to
    column c when entry (r, c) is nonzero (the coarse Dulmage-Mendelsohn
    decomposition, Canad. J. Math. 10, 1958), each as (row indices, column
    indices) in increasing order; a zero row is a block with no column.
    A union-find over rows 0..n-1 and columns n..2n-1."""
    n = len(rows)
    parent = list(range(2 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if not x.is_zero():
                parent[find(r)] = find(n + c)
    blocks = {}
    for x in range(2 * n):
        blocks.setdefault(find(x), ([], []))[x >= n].append(x % n)
    return [(tuple(rs), tuple(cs)) for rs, cs in blocks.values()]


def _minor(rows, row_indices, col_indices, memo):
    """Determinant of ``rows`` on the index tuples ``row_indices`` and
    ``col_indices``, expanded along the first row, columns in order, with
    no division; the empty minor is ONE.  ``memo`` keeps every minor by its
    index pair, so the calls that share it compute each minor once.
    Rational functions have no canonical form: this order of operations
    fixes the printed result."""
    key = (row_indices, col_indices)
    m = memo.get(key)
    if m is not None:
        return m
    if len(memo) >= MAX_MINORS:
        raise YbxError("a symbolic det or inverse must expand at most %d minors, "
                       "this one needs more" % MAX_MINORS)
    if len(col_indices) < 2:
        m = rows[row_indices[0]][col_indices[0]] if col_indices else ONE
    elif len(col_indices) == 2:
        (r0, r1), (c0, c1) = row_indices, col_indices
        m = rows[r0][c0] * rows[r1][c1] - rows[r0][c1] * rows[r1][c0]
    else:
        top, rest = rows[row_indices[0]], row_indices[1:]
        m = ZERO
        for j, c in enumerate(col_indices):
            a = top[c]
            if not a.is_zero():
                term = a * _minor(rows, rest, col_indices[:j] + col_indices[j + 1:], memo)
                m = m + term if j % 2 == 0 else m - term
    memo[key] = m
    return m


def rref(rows, ncols):
    """In-place reduced row echelon form of ``rows`` over their first
    ``ncols`` columns (a row may be wider, as in [M | I]) with exact field
    arithmetic, for entries anywhere in the tower; returns the pivot
    column list.  No library code runs it: numeric ``det``, ``inverse`` and
    ``solver.nullspace`` eliminate with ``zform.bareiss``, and symbolic
    ones expand ``_minor``.  It stays while the benchmark traces the span
    ``solver.rref``."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, len(rows)):
            if not rows[rr][c].is_zero():
                piv = rr
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pinv = invert(rows[r][c])
        rows[r] = [x * pinv for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and not rows[rr][c].is_zero():
                f = rows[rr][c]
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


# ---------------------------------------------------------------------------
# tensor structure

def kron(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Kronecker product, row index i1*dim(b) + i2."""
    na, nb = a.dim, b.dim
    n = na * nb
    out = [[ZERO] * n for _ in range(n)]
    for i1 in range(na):
        for j1 in range(na):
            x = a.rows[i1][j1]
            if x.is_zero():
                continue
            for i2 in range(nb):
                for j2 in range(nb):
                    y = b.rows[i2][j2]
                    if not y.is_zero():
                        out[i1 * nb + i2][j1 * nb + j2] = x * y
    return _matrix(out)


# The leg permutation of the flip conjugation P M P, for ``_permute_legs``.
_FLIP = (1, 0, 3, 2)


def _permute_legs(M: SquareMatrix, perm) -> SquareMatrix:
    """M (dim N^2) with the entry at legs (i1, i2 | j1, j2) moved to the
    legs ``perm`` picks from those four, in order.  No arithmetic: every
    entry keeps its printed form."""
    N = _local_dim(M)

    def places(r, c):
        legs = divmod(r, N) + divmod(c, N)
        i1, i2, j1, j2 = (legs[k] for k in perm)
        return ((i1 * N + i2, j1 * N + j2),)
    return _moved(M, M.dim, places)


def flip_matrix(N: int) -> SquareMatrix:
    """The permutation matrix P of dim N^2: P|i,j> = |j,i>."""
    return _permute_legs(SquareMatrix.identity(N * N), (0, 1, 3, 2))


def embed(M: SquareMatrix, legs) -> SquareMatrix:
    """Place M (dim N^2) on two legs of the N (x) N (x) N space, identity
    on the third leg."""
    N = _local_dim(M)
    a, b = legs
    if a == b or not {a, b} <= {1, 2, 3}:
        raise DimensionMismatch("legs must be two distinct values in {1,2,3}")
    c = ({1, 2, 3} - {a, b}).pop()
    strides = {1: N * N, 2: N, 3: 1}
    # M's index x = (xa, xb) lands at base[x] plus a shift of leg c
    base = [x // N * strides[a] + x % N * strides[b] for x in range(N * N)]
    shifts = [t * strides[c] for t in range(N)]
    return _moved(M, N ** 3, lambda r, col: [(base[r] + t, base[col] + t) for t in shifts])


def _local_dim(mat: SquareMatrix, role=None) -> int:
    """N for a matrix of dim N^2; the error names ``role`` when given."""
    N = isqrt(mat.dim)
    if N * N != mat.dim:
        raise DimensionMismatch("%sdim %d is not a perfect square"
                                % ("role %s: " % role if role else "", mat.dim))
    return N


def ybc_const(R: SquareMatrix, S: SquareMatrix, T: SquareMatrix) -> SquareMatrix:
    """Constant Yang-Baxter commutator R12 S13 T23 - T23 S13 R12."""
    if not (R.dim == S.dim == T.dim):
        raise DimensionMismatch("commutator needs equal dims")
    R12 = embed(R, (1, 2))
    S13 = embed(S, (1, 3))
    T23 = embed(T, (2, 3))
    return R12 * S13 * T23 - T23 * S13 * R12


# ---------------------------------------------------------------------------
# colour-dependent matrices

# The ordered colour pair of every colour-dependent matrix.  Names, not ids:
# registering them when this module loads would put u and v ahead of the
# catalog's variable order, which fixes the printed term order.
COLOURS = ("u", "v")


class ColourMatrix:
    """A matrix-valued function of the ordered colour pair ``COLOURS``: a
    base SquareMatrix whose entries may involve the two colour variables."""

    __slots__ = ("base",)

    def __init__(self, base: SquareMatrix):
        self.base = base

    @property
    def dim(self):
        return self.base.dim

    def at(self, u_val, v_val) -> SquareMatrix:
        """Base matrix with the colour pair substituted (simultaneously)."""
        u, v = COLOURS
        return self.base.substitute({u: u_val, v: v_val})

    def at_vars(self, uname, vname) -> SquareMatrix:
        return self.at(Polynomial.variable(uname), Polynomial.variable(vname))

    def swap_conjugate(self) -> "ColourMatrix":
        """The colour-swap conjugate: (u,v) -> P . self(v,u) . P."""
        u, v = COLOURS
        return ColourMatrix(_permute_legs(self.at_vars(v, u), _FLIP))

    def __eq__(self, other):
        return isinstance(other, ColourMatrix) and self.base == other.base

    __hash__ = None

    def __repr__(self):
        return "ColourMatrix(dim=%d, colours=(%s,%s))" % ((self.base.dim,) + COLOURS)


def ybc_colour(R: ColourMatrix, S: ColourMatrix, T: ColourMatrix) -> SquareMatrix:
    """Colour-dependent Yang-Baxter commutator: substitutes the colour
    pairs (u1,u2), (u1,u3), (u2,u3) into R, S, T, then takes the constant
    commutator of the results."""
    return ybc_const(R.at_vars("u1", "u2"), S.at_vars("u1", "u3"),
                     T.at_vars("u2", "u3"))


# ---------------------------------------------------------------------------
# transforms

def transform(M, op: str):
    """Apply a discrete transform tag.

    On a SquareMatrix: ``t`` transpose, ``+`` conjugation by the flip P,
    ``-`` inverse, ``#`` inverse-of-flip-conjugate, ``id`` nothing.  The
    colour-swap tag ``dd`` is only defined on a ColourMatrix.
    """
    if op == "id":
        return M
    if isinstance(M, ColourMatrix):
        if op == "dd":
            return M.swap_conjugate()
        return ColourMatrix(transform(M.base, op))
    if op == "t":
        return M.transpose()
    if op == "+":
        return _permute_legs(M, _FLIP)
    if op == "-":
        return M.inverse()
    if op == "#":
        return transform(transform(M, "+"), "-")
    if op == "dd":
        raise UnsupportedTransform(
            "colour-swap transform is undefined for constant matrices")
    raise UnsupportedTransform("unknown transform %r" % op)


def conjugate(M: SquareMatrix, left: SquareMatrix, right: SquareMatrix,
              scale) -> SquareMatrix:
    """scale * (left (x) right) M (left (x) right)^-1."""
    scale = as_scalar(scale)
    if scale.is_zero():
        raise ZeroScale("conjugation scale must be nonzero")
    if left.dim * right.dim != M.dim:
        raise DimensionMismatch("left (x) right must match the matrix dim")
    U = kron(left, right)
    Uinv = kron(left.inverse(), right.inverse())
    return (U * M * Uinv).scale(scale)


def partial_transpose(M: SquareMatrix, leg: int) -> SquareMatrix:
    """Transpose on one tensor factor of an N^2-dim matrix (leg 1 or 2)."""
    if leg not in (1, 2):
        raise DimensionMismatch("leg must be 1 or 2")
    return _permute_legs(M, (2, 1, 0, 3) if leg == 1 else (0, 3, 2, 1))


# ---------------------------------------------------------------------------
# reproducible random matrices

_M64 = (1 << 64) - 1


def _splitmix64(state: int):
    """One step of the splitmix64 generator; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    z = z ^ (z >> 31)
    return state, z


def random_matrix(dim: int, seed: int) -> SquareMatrix:
    """Seeded matrix with integer entries in [-3, 3].

    Entries are produced row-major from the splitmix64 stream seeded with
    ``seed``; each 64-bit output is reduced mod 7 and shifted by -3.
    Identical across platforms and runs.
    """
    state = seed & _M64
    rows = []
    for _ in range(dim):
        row = []
        for _ in range(dim):
            state, z = _splitmix64(state)
            row.append(GaussianRational(z % 7 - 3))
        rows.append(row)
    return SquareMatrix(rows)


# ---------------------------------------------------------------------------
# matrix files
#
# Normative format: line 1 `dim <n>`; optional line `vars <id> <id> ...`;
# then n lines of n comma-separated entry expressions in the exprparse
# grammar.  Blank lines and `#` comments are ignored.

def matrix_to_text(M: SquareMatrix, var_names=None) -> str:
    lines = ["dim %d" % M.dim]
    if var_names is None:
        vids = sorted(M.variables())
        var_names = [var_name(v) for v in vids]
    if var_names:
        lines.append("vars " + " ".join(var_names))
    for row in M.rows:
        lines.append(", ".join(scalar_str(x) for x in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str):
    """Parse the matrix file format; returns (SquareMatrix, var_names).
    An error in a row names its line, counting blank and comment lines."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines or not lines[0][1].startswith("dim "):
        raise ValueError("matrix file must start with a 'dim <n>' line")
    head = lines.pop(0)[1]
    try:
        n = int(head[4:].strip())
    except ValueError:
        raise ValueError("bad dimension in %r" % head)
    if n <= 0:
        raise ValueError("dimension must be positive")
    names = []
    if lines and lines[0][1].startswith("vars"):
        names = lines.pop(0)[1][4:].split()
        for name in names:
            var_id(name)
    rows = []
    for lineno, line in lines:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != n:
            raise ValueError("line %d: expected %d entries per row, got %d"
                             % (lineno, n, len(cells)))
        row = []
        for col, cell in enumerate(cells, 1):
            try:
                row.append(exprparse.parse_scalar(cell))
            except (ExprSyntaxError, DivisionByZero) as exc:
                raise prefixed(exc, "line %d, entry %d" % (lineno, col))
        rows.append(row)
    if len(rows) != n:
        raise ValueError("expected %d rows, got %d" % (n, len(rows)))
    return SquareMatrix(rows), names
