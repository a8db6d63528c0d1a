"""Square matrices over the exact scalar tower, tensor-leg embeddings,
Yang-Baxter commutators and the discrete matrix transforms.

Index convention (fixed globally): the basis index of the N^3 space is
i1*N^2 + i2*N + i3 with leg 1 most significant; matrices are row-major.
"""

from __future__ import annotations

from math import isqrt, prod

from . import exprparse
from .errors import (DimensionMismatch, DivisionByZero, ExprSyntaxError, NotInvertible,
                     UnsupportedTransform, ZeroScale, prefixed)
from .scalar import (ZERO, ONE, GaussianRational, Polynomial, _reduced, as_scalar,
                     gaussian_integers, invert, is_zero, scalar_str, var_id, var_name)


class SquareMatrix:
    """Immutable-by-convention n x n matrix of exact scalars."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        n = len(rows)
        lifted = []
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch("matrix is not square")
            lifted.append([as_scalar(x) for x in row])
        self.dim = n
        self.rows = lifted

    @staticmethod
    def identity(n):
        return SquareMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n):
        return SquareMatrix([[ZERO] * n for _ in range(n)])

    @staticmethod
    def unit(n, i, j):
        rows = [[ZERO] * n for _ in range(n)]
        rows[i][j] = ONE
        return SquareMatrix(rows)

    def __add__(self, other):
        self._same_dim(other)
        return SquareMatrix([[a + b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._same_dim(other)
        return SquareMatrix([[a - b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return SquareMatrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._same_dim(other)
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
        m = SquareMatrix.__new__(SquareMatrix)
        m.dim = n
        m.rows = out
        return m

    def scale(self, s):
        s = as_scalar(s)
        return SquareMatrix([[s * a for a in row] for row in self.rows])

    def transpose(self):
        n = self.dim
        return SquareMatrix([[self.rows[j][i] for j in range(n)] for i in range(n)])

    def is_zero(self):
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
        return SquareMatrix([[substitute(a, assignment) for a in row] for row in self.rows])

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
        """Exact determinant: cofactor expansion for n <= 4, the
        determinant ``rref`` returns beyond (fraction-free over Z[i] for
        GaussianRational entries), or zero when the rank is short."""
        if self.dim <= 4:
            return _det_cofactor(self.rows)
        pivots, det = rref([row[:] for row in self.rows], self.dim)
        return det if len(pivots) == self.dim else ZERO

    def inverse(self):
        """Exact inverse: adjugate over determinant for n <= 4, ``rref``
        of [M | I] beyond (fraction-free over Z[i] for GaussianRational
        entries).  Raises NotInvertible when the determinant is zero."""
        n = self.dim
        if n > 4:
            aug = [row + [ONE if i == j else ZERO for j in range(n)]
                   for i, row in enumerate(self.rows)]
            if len(rref(aug, n)[0]) < n:
                raise NotInvertible("determinant is zero")
            return SquareMatrix([row[n:] for row in aug])
        d = self.det()
        if is_zero(d):
            raise NotInvertible("determinant is zero")
        if n == 1:
            return SquareMatrix([[1 / d]])
        dinv = 1 / d
        rows = [[_cofactor(self.rows, j, i) * dinv for j in range(n)]
                for i in range(n)]
        return SquareMatrix(rows)

    def __str__(self):
        return matrix_to_text(self)

    def __repr__(self):
        return "SquareMatrix(dim=%d)" % self.dim


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = ZERO
    sign = 1
    for j in range(n):
        a = rows[0][j]
        if not a.is_zero():
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            term = a * _det_cofactor(minor)
            acc = acc + term if sign > 0 else acc - term
        sign = -sign
    return acc


def _cofactor(rows, i, j):
    n = len(rows)
    minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
    d = _det_cofactor(minor)
    return d if (i + j) % 2 == 0 else -d


def rref(rows, ncols):
    """In-place reduced row echelon form of ``rows`` over their first
    ``ncols`` columns (a row may be wider, as in [M | I]); returns (pivot
    column list, determinant).  The determinant is defined for square
    input of full rank only, which is the only case ``det`` reads it.

    When every entry is a GaussianRational, the rows are eliminated
    fraction-free over Z[i] (``_rref_gaussian``).  Other entries, from
    anywhere in the tower, are eliminated with exact field arithmetic,
    and the determinant is the product of the pivots taken, negated once
    per row swap."""
    if all(type(x) is GaussianRational for row in rows for x in row):
        return _rref_gaussian(rows, ncols)
    pivots = []
    det = ONE
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
            det = -det
        det = det * rows[r][c]
        pinv = invert(rows[r][c])
        rows[r] = [x * pinv for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and not rows[rr][c].is_zero():
                f = rows[rr][c]
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, det


def _rref_gaussian(rows, ncols):
    """``rref`` of GaussianRational rows by fraction-free Gauss-Jordan over
    Z[i] (Bareiss, Math. Comp. 22, 1968).

    Each row is scaled to Gaussian integers and kept as its nonzero
    columns.  At each pivot p every other row becomes (p*row - f*pivot
    row) / q, where f is its entry in the pivot column and q the previous
    pivot; the division is exact.  Every row is then the last pivot D
    times its field-reduced form, so the result is each row over D, and
    over its own scale too for a row past the rank, which no pivot
    normalised.  The determinant is +-D over the product of the scales."""
    work, scales = [], []
    for row in rows:
        cols = [c for c, x in enumerate(row) if x.a or x.b]
        s, ints = gaussian_integers([row[c] for c in cols])
        work.append(dict(zip(cols, ints)))
        scales.append(s)
    pivots = []
    sign = 1
    qa, qb = 1, 0               # the previous pivot
    for c in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(work)) if c in work[k]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            scales[r], scales[piv] = scales[piv], scales[r]
            sign = -sign
        prow = work[r]
        pa, pb = prow[c]
        n = qa * qa + qb * qb
        for k, row in enumerate(work):
            f = row.get(c)
            if k == r or (f is None and pa == qa and pb == qb):
                continue
            new = {j: (pa * xa - pb * xb, pa * xb + pb * xa) for j, (xa, xb) in row.items()}
            if f is not None:
                fa, fb = f
                for j, (ya, yb) in prow.items():
                    za, zb = new.get(j, (0, 0))
                    new[j] = (za - fa * ya + fb * yb, zb - fa * yb - fb * ya)
            # x / q is x * conj(q) // N(q), exact in Z[i]
            if qb:
                work[k] = {j: ((xa * qa + xb * qb) // n, (xb * qa - xa * qb) // n)
                           for j, (xa, xb) in new.items() if xa or xb}
            else:
                work[k] = {j: (xa // qa, xb // qa) for j, (xa, xb) in new.items() if xa or xb}
        qa, qb = pa, pb
        pivots.append(c)
    n = qa * qa + qb * qb
    for k, row in enumerate(work):
        d = n if k < len(pivots) else n * scales[k]
        out = [ZERO] * len(rows[k])
        for j, (xa, xb) in row.items():
            out[j] = _reduced(xa * qa + xb * qb, xb * qa - xa * qb, d)
        rows[k] = out
    return pivots, _reduced(sign * qa, sign * qb, prod(scales))


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
    return SquareMatrix(out)


def flip_matrix(N: int) -> SquareMatrix:
    """The permutation matrix P of dim N^2: P|i,j> = |j,i>."""
    n = N * N
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(N):
        for j in range(N):
            rows[i * N + j][j * N + i] = ONE
    return SquareMatrix(rows)


def embed(M: SquareMatrix, legs) -> SquareMatrix:
    """Place M (dim N^2) on two legs of the N (x) N (x) N space, identity
    on the third leg."""
    N = _local_dim(M)
    a, b = legs
    if a == b or not {a, b} <= {1, 2, 3}:
        raise DimensionMismatch("legs must be two distinct values in {1,2,3}")
    c = ({1, 2, 3} - {a, b}).pop()
    strides = {1: N * N, 2: N, 3: 1}
    sa, sb, sc = strides[a], strides[b], strides[c]
    size = N ** 3
    out = [[ZERO] * size for _ in range(size)]
    for ra in range(N):
        for rb in range(N):
            mrow = M.rows[ra * N + rb]
            for ca in range(N):
                for cb in range(N):
                    x = mrow[ca * N + cb]
                    if x.is_zero():
                        continue
                    base_r = ra * sa + rb * sb
                    base_c = ca * sa + cb * sb
                    for t in range(N):
                        out[base_r + t * sc][base_c + t * sc] = x
    m = SquareMatrix.__new__(SquareMatrix)
    m.dim = size
    m.rows = out
    return m


def _local_dim(mat: SquareMatrix) -> int:
    N = isqrt(mat.dim)
    if N * N != mat.dim:
        raise DimensionMismatch("dim %d is not a perfect square" % mat.dim)
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
        P = flip_matrix(_local_dim(self.base))
        return ColourMatrix(P * self.at_vars(v, u) * P)

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
        N = _local_dim(M)
        P = flip_matrix(N)
        return P * M * P
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
    N = _local_dim(M)
    out = [[ZERO] * M.dim for _ in range(M.dim)]
    for i1 in range(N):
        for i2 in range(N):
            for j1 in range(N):
                for j2 in range(N):
                    x = M.rows[i1 * N + i2][j1 * N + j2]
                    if x.is_zero():
                        continue
                    if leg == 1:
                        out[j1 * N + i2][i1 * N + j2] = x
                    else:
                        out[i1 * N + j2][j1 * N + i2] = x
    return SquareMatrix(out)


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
