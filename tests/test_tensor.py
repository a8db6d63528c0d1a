import itertools
import random
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import embed_oracle, ybc_loops, ybc_tower
from ybx.catalog import instantiate
from ybx.errors import (DimensionMismatch, NotInvertible, UnsupportedTransform,
                        ZeroScale)
from ybx.exprparse import parse_scalar as ps
from ybx.scalar import ZERO, GaussianRational, Polynomial, invert, substitute, var_id
from ybx.tensor import (ColourMatrix, SquareMatrix, _blocks, _minor, _permute_legs, conjugate,
                        embed, flip_matrix, kron, matrix_from_text,
                        matrix_to_text, partial_transpose, random_matrix,
                        transform, ybc_colour, ybc_const)


def M(rows):
    return SquareMatrix([[ps(c) if isinstance(c, str) else c for c in row]
                         for row in rows])


P = flip_matrix(2)


# ---------------------------------------------------------------------------
# embeddings

def test_embed_flip_swaps_legs():
    E = embed(P, (1, 2))
    # E maps basis (j1,j2,j3) -> (j2,j1,j3)
    for j1 in range(2):
        for j2 in range(2):
            for j3 in range(2):
                col = j1 * 4 + j2 * 2 + j3
                expect_row = j2 * 4 + j1 * 2 + j3
                for row in range(8):
                    want = 1 if row == expect_row else 0
                    assert E.rows[row][col] == want


def test_embed_identity_is_identity():
    assert embed(SquareMatrix.identity(4), (1, 3)) == SquareMatrix.identity(8)


def test_embed_matches_oracle_on_W():
    W = instantiate("W", {"q": 2, "s": 3, "t": "q"})
    for legs in ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1)):
        assert embed(W, legs) == embed_oracle(W, legs, 2)


def test_embed_dimension_errors():
    with pytest.raises(DimensionMismatch):
        embed(SquareMatrix.identity(3), (1, 2))
    with pytest.raises(DimensionMismatch):
        embed(SquareMatrix.identity(4), (2, 2))


def test_disjoint_legs_commute():
    rng = random.Random(3)
    for seed in range(5):
        A = random_matrix(4, 50 + seed)
        B = random_matrix(2, 60 + seed)
        A12 = embed(A, (1, 2))
        B3 = kron(kron(SquareMatrix.identity(2), SquareMatrix.identity(2)), B)
        assert A12 * B3 == B3 * A12


# ---------------------------------------------------------------------------
# commutators

def test_ybc_flip_is_solution():
    assert ybc_const(P, P, P).is_zero()


def test_ybc_symbolic_deformed_flip_both_branches():
    for branch in ("q", "-q^-1"):
        W = instantiate("W", {"t": branch})
        assert ybc_const(W, W, W).is_zero()


def test_ybc_mixed_triple_matches_loop_oracle():
    W = instantiate("W", {"q": 3, "s": 2, "t": "q"})
    X1 = instantiate("X1", {"a": 1, "b": 2, "c": 1, "d": 1})
    Z10 = instantiate("Z10", {"x": 1, "y": 2, "z": 3})
    r = ybc_const(W, X1, Z10)
    assert not r.is_zero()          # a mixed commutator, not a system equation
    assert r == ybc_loops(W, X1, Z10)


def test_ybc_linear_in_middle_slot():
    R = random_matrix(4, 1)
    S1 = random_matrix(4, 2)
    S2 = random_matrix(4, 3)
    T = random_matrix(4, 4)
    alpha, beta = GaussianRational(3), GaussianRational(-2)
    lhs = ybc_const(R, S1.scale(alpha) + S2.scale(beta), T)
    rhs = ybc_const(R, S1, T).scale(alpha) + ybc_const(R, S2, T).scale(beta)
    assert lhs == rhs


def test_ybc_equals_loops_on_random_triples():
    for seed in range(3):
        R = random_matrix(4, 10 + seed)
        S = random_matrix(4, 20 + seed)
        T = random_matrix(4, 30 + seed)
        assert ybc_const(R, S, T) == ybc_loops(R, S, T)


# ---------------------------------------------------------------------------
# colour commutators

def test_colour_lift_of_constant_reduces_to_const():
    R = random_matrix(4, 77)
    S = random_matrix(4, 78)
    T = random_matrix(4, 79)
    lifted = ybc_colour(ColourMatrix(R), ColourMatrix(S), ColourMatrix(T))
    assert lifted == ybc_const(R, S, T)


def test_colour_rational_solution():
    A = ColourMatrix(M([["u - v + 1", 0, 0, 0], [0, "u - v", 1, 0],
                        [0, 1, "u - v", 0], [0, 0, 0, "u - v + 1"]]))
    assert ybc_colour(A, A, A).is_zero()


# ---------------------------------------------------------------------------
# transforms

def test_flip_conjugation_fixes_flip():
    assert transform(P, "+") == P


def test_inverse_of_deformed_flip():
    W = instantiate("W", {"t": "q"})
    Winv = transform(W, "-")
    q, s = Polynomial.variable("q"), Polynomial.variable("s")
    assert Winv.rows[0][0] == invert(q)
    assert Winv.rows[1][1] == s
    assert Winv.rows[2][2] == invert(s)
    assert Winv.rows[3][3] == invert(q)
    assert Winv.rows[2][1] == -(q - invert(q))
    assert W * Winv == SquareMatrix.identity(4)


def test_transform_involutions():
    for seed in range(4):
        A = random_matrix(4, 40 + seed)
        try:
            Ai = transform(A, "-")
        except NotInvertible:
            continue
        assert transform(transform(A, "+"), "+") == A
        assert transform(Ai, "-") == A
        assert transform(transform(A, "#"), "#") == A
        assert transform(transform(A, "t"), "t") == A


def test_hash_transform_consistency():
    A = random_matrix(4, 91)
    assert transform(A, "#") == transform(transform(A, "+"), "-")
    assert transform(A, "#") == transform(transform(A, "-"), "+")


def test_colour_swap_only_on_colour_matrices():
    with pytest.raises(UnsupportedTransform):
        transform(P, "dd")
    C = ColourMatrix(M([["v", 0, 0, 0], [0, "v", 0, 0], [0, 1, "v", 0],
                        [0, 0, 0, "v"]]))
    B = transform(C, "dd")
    assert B.base.rows[1][2] == 1
    assert B.base.rows[0][0] == Polynomial.variable("u")
    assert transform(B, "dd").base == C.base


def test_not_invertible():
    singular = SquareMatrix([[1, 0], [0, 0]])
    with pytest.raises(NotInvertible):
        transform(singular, "-")
    rows = [row[:] for row in random_matrix(9, 123).rows]
    rows[4] = [0] * 9
    with pytest.raises(NotInvertible, match="determinant is zero"):
        transform(SquareMatrix(rows), "-")


def test_conjugate_properties():
    I2 = SquareMatrix.identity(2)
    A = random_matrix(4, 55)
    assert conjugate(A, I2, I2, 1) == A
    S = SquareMatrix([[1, 2], [1, 3]])
    assert conjugate(P, S, S, 1) == P
    with pytest.raises(ZeroScale):
        conjugate(A, I2, I2, 0)
    # conjugated solutions stay solutions
    W = instantiate("W", {"q": 2, "s": 3, "t": "q"})
    T = SquareMatrix([[2, 1], [1, 1]])
    Wc = conjugate(W, T, T, GaussianRational(5))
    assert ybc_const(Wc, Wc, Wc).is_zero()


def test_partial_transpose():
    A = random_matrix(4, 66)
    pt1 = partial_transpose(A, 1)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert pt1.rows[j1 * 2 + i2][i1 * 2 + j2] == A.rows[i1 * 2 + i2][j1 * 2 + j2]
    assert partial_transpose(partial_transpose(A, 1), 1) == A
    assert partial_transpose(partial_transpose(A, 1), 2) == A.transpose()
    with pytest.raises(DimensionMismatch):
        partial_transpose(SquareMatrix.zeros(4), 3)


def test_inverse_of_a_one_by_one_matrix():
    assert SquareMatrix([[2]]).inverse() == SquareMatrix([[GaussianRational(Fraction(1, 2))]])


def test_inverse_beyond_adjugate_size():
    for n in (5, 6, 9):
        A = random_matrix(n, 123)
        try:
            Ai = A.inverse()
        except NotInvertible:
            A = random_matrix(n, 124)
            Ai = A.inverse()
        assert A * Ai == SquareMatrix.identity(n)


def _expanded(rows):
    """The determinant by cofactor expansion, independent of ``zform.bareiss``."""
    idx = tuple(range(len(rows)))
    return _minor(rows, idx, idx, {})


def test_det_beyond_cofactor_size():
    for n in (5, 6):
        for seed in range(6):
            A = random_matrix(n, 200 + seed)
            assert A.det() == _expanded(A.rows)
        rows = [row[:] for row in random_matrix(n, 300).rows]
        rows[3] = rows[1][:]
        assert SquareMatrix(rows).det() == 0 == _expanded(rows)
    A, B = random_matrix(9, 123), random_matrix(9, 456)
    swapped = [row[:] for row in A.rows]
    swapped[0], swapped[5] = swapped[5], swapped[0]
    assert SquareMatrix(swapped).det() == -A.det() != 0
    assert (A * B).det() == A.det() * B.det()
    assert A.det() * A.inverse().det() == 1


def _symbolic_matrices(n):
    """Three n x n matrices in q: q + k at (k, k) with a fixed sparse numeric
    pattern off the diagonal; the dense ``random_matrix(n, 1)`` with q
    added at (0, 0); and ((7i + 3j) mod 5) - 2 off a diagonal of -2q, one
    block with about a fifth of its entries zero."""
    q = Polynomial.variable("q")
    sparse = [[q + i if i == j else (7 * i + 3 * j) % 5 - 2 if i + j == n - 1
               else 1 if j == i + 1 and i % 3 == 0 else 0 for j in range(n)] for i in range(n)]
    dense = [row[:] for row in random_matrix(n, 1).rows]
    dense[0][0] = dense[0][0] + q
    cyclic = [[-2 * q if i == j else (7 * i + 3 * j) % 5 - 2 for j in range(n)]
              for i in range(n)]
    return SquareMatrix(sparse), SquareMatrix(dense), SquareMatrix(cyclic)


@pytest.mark.parametrize("n", [5, 6, 9])
def test_symbolic_det_and_inverse_beyond_dim_4(n):
    """The determinant of a symbolic matrix commutes with substituting q:
    at each point it is the ``zform.bareiss`` determinant of the numeric
    matrix.  Each matrix times its inverse is the identity."""
    for A in _symbolic_matrices(n):
        d = A.det()
        assert d.variables()
        for v in (2, 3, Fraction(-1, 2)):
            B = A.substitute({"q": v})
            assert all(type(x) is GaussianRational for row in B.rows for x in row)
            assert substitute(d, {"q": v}) == B.det()
        assert A * A.inverse() == SquareMatrix.identity(n)


def test_symbolic_inverse_of_independent_blocks():
    """Rows 0 and 3 meet only columns 1 and 2, rows 1 and 2 only columns
    0 and 3: two blocks, each with a determinant of several terms.  The
    inverse of a block on rows R and columns C sits on rows C and columns
    R, and is zero between the blocks."""
    A = M([[0, "q*s + 2", "q - s", 0],
           ["q", 0, 0, 2],
           [1, 0, 0, "q*s + 2"],
           [0, 1, "q + 1", 0]])
    assert _blocks(A.rows) == [((0, 3), (1, 2)), ((1, 2), (0, 3))]
    Ai = A.inverse()
    assert A * Ai == SquareMatrix.identity(4) == Ai * A
    for i, j in itertools.product(range(4), repeat=2):
        if (i in (1, 2)) != (j in (0, 3)):
            assert Ai.rows[i][j] is ZERO


@pytest.mark.parametrize("cells", [
    [["q*s + 2", "q - s", 0], [0, 0, 0], [1, 0, "q"]],            # a zero row
    [["q*s + 2", 0, 0], ["q - s", 0, 0], [0, "q", "q*s + 2"]],    # 2 rows meet 1 column
], ids=["zero_row", "two_rows_one_column"])
def test_symbolic_inverse_of_a_block_that_is_not_square(cells):
    A = M(cells)
    assert A.det() == 0
    with pytest.raises(NotInvertible, match="determinant is zero"):
        A.inverse()


def _gaussian_matrix(n, seed):
    """An n x n matrix of Gaussian rationals with mixed denominators."""
    rng = random.Random(seed)
    return SquareMatrix([[GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                           Fraction(rng.randint(-3, 3), rng.randint(1, 6)))
                          for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n", [5, 6])
def test_det_and_inverse_of_gaussian_entries(n):
    A = _gaussian_matrix(n, n)
    assert A.det() == _expanded(A.rows) != 0
    assert A * A.inverse() == SquareMatrix.identity(n)


def test_empty_matrix_has_det_one_and_is_its_own_inverse():
    empty = SquareMatrix([])
    assert empty.det() == 1
    assert empty.inverse() == empty


# ---------------------------------------------------------------------------
# the product against a triple loop on (Fraction, Fraction) pairs

_ZERO_PAIR = (Fraction(0), Fraction(0))
_DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 12, 2 ** 40 + 15)


@st.composite
def _pair_factors(draw, sizes=st.integers(1, 9)):
    """Two n x n matrices of (re, im) Fraction pairs, n drawn from
    ``sizes``, each with some of its rows and columns zeroed.  The parts
    come from a drawn seed: zero, small or wide numerators over mixed
    denominators, with the imaginary parts all zero unless the draw asks
    for Gaussian entries."""
    n = draw(sizes)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    gaussian = draw(st.booleans())
    lines = st.sets(st.integers(0, n - 1), max_size=n)

    def part():
        u = rng.random()
        if u < 0.3:
            return Fraction(0)
        num = rng.randint(-9, 9) if u < 0.9 else rng.randint(-2 ** 70, 2 ** 70)
        return Fraction(num, rng.choice(_DENOMINATORS))
    factors = []
    for _ in range(2):
        rows = [[(part(), part() if gaussian else Fraction(0)) for _ in range(n)]
                for _ in range(n)]
        for i in draw(lines):
            rows[i] = [_ZERO_PAIR] * n
        for j in draw(lines):
            for row in rows:
                row[j] = _ZERO_PAIR
        factors.append(rows)
    return factors


def _pair_product(a, b):
    n = len(a)
    return [[(sum(a[i][k][0] * b[k][j][0] - a[i][k][1] * b[k][j][1] for k in range(n)),
              sum(a[i][k][0] * b[k][j][1] + a[i][k][1] * b[k][j][0] for k in range(n)))
             for j in range(n)] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(_pair_factors(), st.data())
def test_product_agrees_with_the_pair_triple_loop(factors, data):
    """Gaussian rational factors, with mixed denominators and zero lines,
    multiply to the pairs' product entry by entry; with a Polynomial in
    one factor the product still has the same values."""
    a, b = factors
    n = len(a)
    want = _pair_product(a, b)
    A, B = ([[GaussianRational(*x) for x in row] for row in m] for m in factors)
    got = SquareMatrix(A) * SquareMatrix(B)
    for row, want_row in zip(got.rows, want):
        for x, w in zip(row, want_row):
            assert type(x) is GaussianRational and (x.re, x.im) == w
    rows = data.draw(st.sampled_from([A, B]))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[i][j] = rows[i][j].as_poly()
    got = SquareMatrix(A) * SquareMatrix(B)
    assert all(x == GaussianRational(*w) for row, want_row in zip(got.rows, want)
               for x, w in zip(row, want_row))


def _pair_matrix(rows):
    return SquareMatrix([[GaussianRational(*x) for x in row] for row in rows])


def _as_pairs(m):
    """The (re, im) pairs of a matrix's entries, each entry checked to be
    a GaussianRational in its one printed form, and the int form to be
    over the lcm of the entries' denominators."""
    out = []
    for row in m.rows:
        assert all(type(x) is GaussianRational for x in row)
        assert all(str(x) == str(GaussianRational(x.re, x.im)) for x in row)
        out.append([(x.re, x.im) for x in row])
    assert m._zi[0] == lcm(*(x.d for row in m.rows for x in row))
    return out


def _pair_embed(m, legs, N):
    """M on legs ``legs`` of N (x) N (x) N, from the index formula."""
    a, b = legs
    c = ({1, 2, 3} - {a, b}).pop()
    out = []
    for i in itertools.product(range(N), repeat=3):
        out.append([m[i[a - 1] * N + i[b - 1]][j[a - 1] * N + j[b - 1]]
                    if i[c - 1] == j[c - 1] else _ZERO_PAIR
                    for j in itertools.product(range(N), repeat=3)])
    return out


def _pair_permuted(m, perm, N):
    out = [[_ZERO_PAIR] * (N * N) for _ in range(N * N)]
    for legs in itertools.product(range(N), repeat=4):
        i1, i2, j1, j2 = (legs[k] for k in perm)
        out[i1 * N + i2][j1 * N + j2] = m[legs[0] * N + legs[1]][legs[2] * N + legs[3]]
    return out


@st.composite
def _pair_operands(draw):
    """Three N^2 x N^2 matrices of (re, im) Fraction pairs, N in 1..3, as
    ``_pair_factors`` draws them, and a nonzero pair to scale by."""
    a, b = draw(_pair_factors(st.sampled_from([1, 4, 9])))
    c, _ = draw(_pair_factors(st.just(len(a))))
    s = (Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from(_DENOMINATORS))),
         Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from(_DENOMINATORS))))
    return a, b, c, s


_LEGS = [(1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)]
_PERMS = list(itertools.permutations(range(4)))


@settings(max_examples=40, deadline=None)
@given(_pair_operands(), st.sampled_from(_LEGS), st.sampled_from(_PERMS))
def test_int_form_agrees_with_the_pair_references(operands, legs, perm):
    """Every operation that runs on the int form, and chains of them whose
    operands hold only the int form, against the same operation on
    (Fraction, Fraction) pairs; sums and differences of operands over
    different denominators."""
    a, b, c, s = operands
    n = len(a)
    N = isqrt(n)
    A, B, C = _pair_matrix(a), _pair_matrix(b), _pair_matrix(c)
    AB = _pair_product(a, b)

    def pair_sum(x, y, sign=1):
        return [[(p[0] + sign * q[0], p[1] + sign * q[1]) for p, q in zip(u, v)]
                for u, v in zip(x, y)]

    scaled = [[(x[0] * s[0] - x[1] * s[1], x[0] * s[1] + x[1] * s[0]) for x in row] for row in a]
    assert _as_pairs(A + B) == pair_sum(a, b)
    assert _as_pairs(A - B) == pair_sum(a, b, -1)
    assert _as_pairs(-A) == [[(-x[0], -x[1]) for x in row] for row in a]
    assert _as_pairs(A.scale(GaussianRational(*s))) == scaled
    assert _as_pairs(A.transpose()) == [list(col) for col in zip(*a)]
    assert _as_pairs(_permute_legs(A, perm)) == _pair_permuted(a, perm, N)
    assert _as_pairs(embed(A, legs)) == _pair_embed(a, legs, N)
    assert _as_pairs(A * B * C) == _pair_product(AB, c)
    assert _as_pairs(A * B - B * A) == pair_sum(AB, _pair_product(b, a), -1)
    assert _as_pairs((A * B).scale(GaussianRational(*s)) + C) == pair_sum(
        [[(x[0] * s[0] - x[1] * s[1], x[0] * s[1] + x[1] * s[0]) for x in row] for row in AB], c)
    assert _as_pairs(embed(A * B, legs) - embed(C, legs)) == pair_sum(
        _pair_embed(AB, legs, N), _pair_embed(c, legs, N), -1)
    assert (A * B - B * A).is_zero() == all(p == q for u, v in zip(AB, _pair_product(b, a))
                                            for p, q in zip(u, v))
    try:
        inverse = A.inverse()
    except NotInvertible:
        assert A.det() == 0
    else:
        assert _as_pairs(inverse.inverse()) == a
    # an int-form product meets a factor with a Polynomial entry
    c_poly = [[GaussianRational(*x) for x in row] for row in c]
    c_poly[0][n - 1] = c_poly[0][n - 1].as_poly()
    C_poly = SquareMatrix(c_poly)
    for got, want in ((A * B * C_poly, _pair_product(AB, c)),
                      (C_poly * (A * B), _pair_product(c, AB)),
                      (A * B - C_poly, pair_sum(AB, c, -1))):
        assert all(x == GaussianRational(*w) for row, want_row in zip(got.rows, want)
                   for x, w in zip(row, want_row))


# ---------------------------------------------------------------------------
# the packed commutator kernel against the oracle and the embedded products

# A part just below 2^200.  With it the slot-width bound of
# ``zform.commutator`` lies just below a power of two, so a slot three
# bits narrower cannot hold half that bound.
_HUGE = 2 ** 200 - 1


@st.composite
def _commutator_factors(draw):
    """Three N^2 x N^2 matrices of GaussianRationals, N in 1..3, their
    parts drawn from a seed: zero, small, or within 9 of +-2^200, over
    mixed denominators, with imaginary parts unless the draw asks for
    none.  One factor may be zero."""
    n = draw(st.integers(1, 3)) ** 2
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    gaussian = draw(st.booleans())

    def part():
        u = rng.random()
        if u < 0.3:
            return Fraction(0)
        num = rng.randint(-9, 9) if u < 0.8 else rng.choice((-1, 1)) * (_HUGE - rng.randint(0, 8))
        return Fraction(num, rng.choice((1, 2, 3, 4, 6)))
    factors = [SquareMatrix([[GaussianRational(part(), part() if gaussian else 0)
                              for _ in range(n)] for _ in range(n)]) for _ in range(3)]
    zero = draw(st.sampled_from([None, 0, 1, 2]))
    if zero is not None:
        factors[zero] = SquareMatrix.zeros(n)
    return factors


# Three dim-4 factors, times _HUGE, whose commutator has a part of
# 32 _HUGE^3: half the bound 8 N^3 mR mS mT that sets the slot width.
# Several of its entries have nonzero real and imaginary parts.
_WIDEST = [M(rows).scale(GaussianRational(_HUGE)) for rows in (
    [["1-i", "1+i", "-1-i", "1-i"], ["1", "-i", "-1-i", "1"],
     ["1+i", "-1", "-i", "1+i"], ["1+i", "-1+i", "1-i", "-1-i"]],
    [["1+i", "1-i", "-1-i", "i"], ["1+i", "1+i", "0", "-i"],
     ["1+i", "-1+i", "1+i", "-1+i"], ["1+i", "0", "1", "1+i"]],
    [["1+i", "1+i", "0", "-1-i"], ["1+i", "0", "-1-i", "1"],
     ["-1-i", "-1-i", "-1-i", "-1-i"], ["1+i", "-1+i", "-1", "-1+i"]])]


@settings(max_examples=60, deadline=None)
@given(_commutator_factors())
@example(_WIDEST)
@example([random_matrix(16, 3), random_matrix(16, 4).scale(GaussianRational(Fraction(1, 3), -2)),
          random_matrix(16, 5).scale(GaussianRational(Fraction(_HUGE, 2)))])
def test_packed_commutator_agrees_with_the_oracle_and_the_embedded_products(factors):
    """``ybc_const`` on three int forms runs ``zform.commutator``; its
    residual equals the oracle's int commutator and the explicit product
    of the leg embeddings, in value, denominator and printed form."""
    R, S, T = factors
    got = ybc_const(R, S, T)
    R12, S13, T23 = embed(R, (1, 2)), embed(S, (1, 3)), embed(T, (2, 3))
    assert _as_pairs(got) == _as_pairs(R12 * S13 * T23 - T23 * S13 * R12)
    assert got == ybc_loops(R, S, T, isqrt(R.dim))


def test_the_widest_example_fills_half_the_slot_bound():
    d, zrows = ybc_const(*_WIDEST)._zi
    parts = [abs(x) for zrow in zrows for _, a, b in zrow for x in (a, b)]
    assert (d, max(parts)) == (1, 32 * _HUGE ** 3)
    assert any(a and b for zrow in zrows for _, a, b in zrow)


# ---------------------------------------------------------------------------
# the polynomial int form against the scalar tower's loops

def _tower_product(a, b):
    """The product of two lists of scalar rows by the scalar loop: each
    entry starts as ZERO and adds x * y over its nonzero pairs."""
    n = len(a)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k].is_zero():
                continue
            for j in range(n):
                if not b[k][j].is_zero():
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def _tower_moved(a, at):
    """Rows whose entry (i, j) is a[at(i, j)], ZERO where that is zero:
    moving entries drops a Polynomial zero."""
    n = len(a)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            r, c = at(i, j)
            if not a[r][c].is_zero():
                out[i][j] = a[r][c]
    return out


def _same_entries(got, want):
    """Entry by entry: the same type, value and text."""
    assert len(got.rows) == len(want)
    for row, want_row in zip(got.rows, want):
        for x, w in zip(row, want_row):
            assert type(x) is type(w) and x == w and str(x) == str(w), (x, w)


@st.composite
def _scalar_rows(draw, n, numeric=False):
    """n x n scalars from a drawn seed: GaussianRational zeros and values
    over mixed denominators, and, unless ``numeric``, Polynomials with up
    to three terms over Laurent monomials in q and s, constant ones and
    Polynomial zeros."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    q, s = var_id("q"), var_id("s")

    def gaussian():
        def part():
            return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 6, 7]))
        return GaussianRational(part(), part() if rng.random() < 0.3 else 0)

    def entry():
        u = rng.random()
        if numeric or u < 0.55:
            return ZERO if rng.random() < 0.4 else gaussian()
        if u < 0.65:
            return Polynomial({})
        if u < 0.72:
            c = gaussian()
            return Polynomial({(): c if not c.is_zero() else GaussianRational(1)})
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple((v, e) for v, e in ((q, rng.randint(-2, 2)), (s, rng.randint(-2, 2))) if e)
            c = gaussian()
            if not c.is_zero():
                terms[mono] = c
        return Polynomial(terms)
    return [[entry() for _ in range(n)] for _ in range(n)]


@st.composite
def _mixed_operands(draw):
    """Three N^2 x N^2 operands, N in 1..2, that mix GaussianRationals
    and Polynomials; the third is sometimes numeric."""
    n = draw(st.sampled_from([1, 4]))
    a, b = draw(_scalar_rows(n)), draw(_scalar_rows(n))
    c = draw(_scalar_rows(n, numeric=draw(st.booleans())))
    return a, b, c


@settings(max_examples=60, deadline=None)
@given(_mixed_operands(), st.sampled_from(_PERMS))
def test_polynomial_int_form_agrees_with_the_tower_loops(operands, perm):
    """Products, sums, differences, negation, leg moves and the zero test
    on matrices of GaussianRationals and Polynomials, including chains
    whose operands hold only the int form: every entry has the type,
    value and text of the scalar loops' entry."""
    a, b, c = operands
    n = len(a)
    N = isqrt(n)
    A, B, C = SquareMatrix(a), SquareMatrix(b), SquareMatrix(c)
    ab = _tower_product(a, b)
    _same_entries(A * B, ab)
    _same_entries(A * B * C, _tower_product(ab, c))
    _same_entries(C * (A * B), _tower_product(c, ab))
    _same_entries(A + B, [[x + y for x, y in zip(u, v)] for u, v in zip(a, b)])
    _same_entries(A - C, [[x - y for x, y in zip(u, v)] for u, v in zip(a, c)])
    _same_entries(A * B - C, [[x - y for x, y in zip(u, v)] for u, v in zip(ab, c)])
    _same_entries(-(A * B), [[-x for x in row] for row in ab])
    _same_entries(A.transpose(), _tower_moved(a, lambda i, j: (j, i)))
    _same_entries((A * B).transpose(), _tower_moved(ab, lambda i, j: (j, i)))

    def permuted(i, j):
        legs = [0] * 4
        for k, leg in zip(perm, divmod(i, N) + divmod(j, N)):
            legs[k] = leg
        return legs[0] * N + legs[1], legs[2] * N + legs[3]
    _same_entries(_permute_legs(A * B, perm), _tower_moved(ab, permuted))
    for legs in _LEGS:
        _same_entries(embed(A, legs), embed_oracle(A, legs, N).rows)
        _same_entries(embed(A * B, legs), embed_oracle(SquareMatrix(ab), legs, N).rows)
    assert (A * B - A * B).is_zero() and (A - A).is_zero()
    assert (A * B - C).is_zero() == all(x == y for u, v in zip(ab, c) for x, y in zip(u, v))
    got, want = ybc_const(A, B, C), ybc_tower(A, B, C, N)
    assert all(x == w for row, want_row in zip(got.rows, want.rows)
               for x, w in zip(row, want_row))


def test_a_polynomial_zero_entry_is_zero():
    zero = Polynomial({})
    M = SquareMatrix([[zero, ZERO], [ZERO, zero]])
    assert M.is_zero() and (M * M).is_zero() and (M - M).is_zero() and (-M).is_zero()
    assert [type(x) for row in (M - M).rows for x in row] == [Polynomial, GaussianRational,
                                                              GaussianRational, Polynomial]
    q = Polynomial.variable("q")
    D = SquareMatrix([[q, 1], [0, q]]) - SquareMatrix([[q, 1], [0, q]])
    assert D.is_zero() and not (D + SquareMatrix.identity(2)).is_zero()


# ---------------------------------------------------------------------------
# reproducible random matrices

def test_random_matrix_reproducible():
    A = random_matrix(4, 7)
    B = random_matrix(4, 7)
    assert A == B
    # pinned stream head for seed 7 (splitmix64, span 3)
    assert [int(x.re) for x in A.rows[0]] == [-1, 0, -3, 0]
    assert all(-3 <= int(x.re) <= 3 and x.im == 0 for row in A.rows for x in row)
    assert random_matrix(4, 8) != A


# ---------------------------------------------------------------------------
# matrix files

def test_matrix_file_round_trip():
    W = instantiate("W")
    text = matrix_to_text(W, var_names=["q", "s", "t"])
    again, names = matrix_from_text(text)
    assert names == ["q", "s", "t"]
    assert again == W
    assert matrix_to_text(again, var_names=names) == text


def test_matrix_file_comments_and_blanks():
    text = "# a comment\ndim 2\n\n1, 0\n0, 1  # unit\n"
    mat, names = matrix_from_text(text)
    assert mat == SquareMatrix.identity(2)
    assert names == []


@pytest.mark.parametrize("bad", [
    "", "dim x\n1", "dim 2\n1, 0\n", "dim 2\n1\n2\n", "dim 0\n",
    "1, 0\n0, 1\n",
])
def test_matrix_file_errors(bad):
    with pytest.raises(ValueError):
        matrix_from_text(bad)
