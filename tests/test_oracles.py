"""The oracles' own checks: hand-computed commutators and ranks, and the
Gaussian-integer path of ``ybc_loops`` against its scalar-tower loops."""

import random
from fractions import Fraction

import pytest

from oracles import bareiss_rank, ybc_loops, ybc_tower
from ybx.scalar import GaussianRational, Polynomial
from ybx.tensor import SquareMatrix


def _unit(n, i, j, value):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = value
    return SquareMatrix(rows)


def _entries(m):
    return {(i, j): x for i, row in enumerate(m.rows) for j, x in enumerate(row)
            if not x.is_zero()}


C = GaussianRational(Fraction(1, 5), Fraction(1, 5))     # (1 + i)/5


def test_hand_computed_commutator_with_three_denominators():
    """R = E[00,01]/2, S = I/3, T = (1+i)/5 E[10,00] at N = 2.  R12 T23
    reaches only (000|000) and T23 R12 only (010|010), each with the
    value c/2, so [R,S,T] is (1+i)/30 at (0, 0) and -(1+i)/30 at (2, 2)."""
    R = _unit(4, 0, 1, Fraction(1, 2))
    S = SquareMatrix([[Fraction(1, 3) if i == j else 0 for j in range(4)] for i in range(4)])
    T = _unit(4, 2, 0, C)
    want = GaussianRational(Fraction(1, 30), Fraction(1, 30))
    assert _entries(ybc_loops(R, S, T)) == {(0, 0): want, (2, 2): -want}


def test_hand_computed_commutator_at_n_3():
    """R = 2 E[(0,1),(1,2)], S = I, T = E[(2,0),(0,1)]/7 at N = 3.  R12 T23
    links (0,1,0) to (1,0,1) through (1,2,0), with the value 2/7.  T23 R12
    is zero: T23 leaves leg 2 at 0, and R12 needs it at 1."""
    R = _unit(9, 0 * 3 + 1, 1 * 3 + 2, 2)
    S = SquareMatrix([[1 if i == j else 0 for j in range(9)] for i in range(9)])
    T = _unit(9, 2 * 3 + 0, 0 * 3 + 1, Fraction(1, 7))
    assert _entries(ybc_loops(R, S, T, N=3)) == {(0 * 9 + 1 * 3 + 0, 1 * 9 + 0 * 3 + 1):
                                                 GaussianRational(Fraction(2, 7))}


def test_constant_polynomial_entries_are_numeric():
    R = _unit(4, 0, 1, Fraction(1, 2))
    S = SquareMatrix([[Fraction(1, 3) if i == j else 0 for j in range(4)] for i in range(4)])
    T = SquareMatrix([[Polynomial({(): C}) if (i, j) == (2, 0) else 0 for j in range(4)]
                      for i in range(4)])
    want = GaussianRational(Fraction(1, 30), Fraction(1, 30))
    assert _entries(ybc_loops(R, S, T)) == {(0, 0): want, (2, 2): -want}


@pytest.mark.parametrize("rows, rank", [
    ([[Fraction(1, 2), Fraction(1, 3)], [3, 2]], 1),
    ([[GaussianRational(0, 1), 1], [1, GaussianRational(0, -1)]], 1),
    ([[1, GaussianRational(0, 1)], [1, GaussianRational(0, -1)]], 2),
    ([[0, 0], [0, 0]], 0),
    ([[Fraction(1, 6), 0, Fraction(1, 4)], [0, Fraction(2, 3), 0], [1, 0, Fraction(3, 2)]], 2),
])
def test_hand_computed_ranks(rows, rank):
    assert bareiss_rank([[GaussianRational(x) if not isinstance(x, GaussianRational) else x
                          for x in row] for row in rows]) == rank


def _random_numeric(rng, n, density):
    def part():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5, 12)))
    return SquareMatrix([[GaussianRational(part(), part() if rng.random() < 0.4 else 0)
                          if rng.random() < density else 0 for _ in range(n)]
                         for _ in range(n)])


@pytest.mark.parametrize("N, triples", [(2, 40), (3, 8)])
def test_gaussian_integer_path_equals_the_tower_loops(N, triples):
    """Seeded numeric triples, densities 0.1 to 0.9, mixed denominators
    and imaginary parts."""
    rng = random.Random(1000 + N)
    for _ in range(triples):
        density = rng.choice((0.1, 0.3, 0.5, 0.9))
        R, S, T = (_random_numeric(rng, N * N, density) for _ in range(3))
        assert ybc_loops(R, S, T, N) == ybc_tower(R, S, T, N)
