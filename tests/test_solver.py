import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from oracles import bareiss_rank, ybc_loops
from ybx import catalog, solver, systems
from ybx.errors import (DimensionMismatch, InputNotQbgSolution, NotInvertible,
                        SymbolicInput)
from ybx.scalar import ONE, ZERO, GaussianRational, substitute
from ybx.tensor import (SquareMatrix, _det_cofactor, embed, flip_matrix, random_matrix,
                        rref, ybc_const)

P = flip_matrix(2)
I = GaussianRational(0, 1)


def _system_rows(X):
    """The 64x16 linear system of [X,X,Z]=0, for the rank oracle."""
    M1 = embed(X, (1, 2)) * embed(X, (1, 3))
    M2 = embed(X, (1, 3)) * embed(X, (1, 2))
    cols = []
    for k in range(4):
        for l in range(4):
            E = embed(SquareMatrix.unit(4, k, l), (2, 3))
            C = M1 * E - E * M2
            cols.append([C.rows[i][j] for i in range(8) for j in range(8)])
    return [[cols[u][e] for u in range(16)] for e in range(64)]


def _to_gauss(rows):
    out = []
    for row in rows:
        out.append([x if isinstance(x, GaussianRational) else x.constant_value()
                    for x in row])
    return out


# ---------------------------------------------------------------------------
# nullspace dimensions, pinned and oracle-checked

@pytest.mark.parametrize("assign,expected", [
    ({"a": 2, "b": 2, "c": 3, "d": 3}, 16),     # acts on one leg only
    ({"a": 2, "b": 2, "c": 3, "d": -3}, 8),     # eight-vertex pattern
    ({"a": 1, "b": 2, "c": 3, "d": 5}, 6),      # generic diagonal: six-vertex
])
def test_diagonal_nullspace_dimensions(assign, expected):
    X = catalog.instantiate("X3", assign)
    space = solver.solve_z_linear(X)
    assert space.dim == expected
    assert space.rank + space.dim == 16
    assert bareiss_rank(_to_gauss(_system_rows(X))) == space.rank
    for member in space.basis:
        assert ybc_const(X, X, member).is_zero()


def test_nullspace_of_flip_is_its_own_span():
    # P12 P13 and P13 P12 are the two distinct 3-cycles, so the map does
    # not vanish identically; the exact nullspace is the span of the flip.
    space = solver.solve_z_linear(P)
    assert space.dim == 1 and space.rank == 15
    assert bareiss_rank(_to_gauss(_system_rows(P))) == 15
    assert space.contains(P)


def test_nullspace_of_dim9_flip_checked_by_loops():
    X = flip_matrix(3)
    space = solver.solve_z_linear(X)
    assert space.rank + space.dim == 81
    for member in space.basis:
        assert ybc_loops(X, X, member, N=3).is_zero()
    assert space.contains(X)
    R = random_matrix(9, 1)
    assert not ybc_loops(X, X, R, N=3).is_zero()
    assert not space.contains(R)


def test_completeness_on_random_numeric_inputs():
    for seed in (3, 17, 99):
        X = random_matrix(4, seed)
        space = solver.solve_z_linear(X)
        assert space.rank + space.dim == 16
        assert bareiss_rank(_to_gauss(_system_rows(X))) == space.rank
        for member in space.basis:
            assert ybc_const(X, X, member).is_zero()


def test_symbolic_input_rejected():
    with pytest.raises(SymbolicInput):
        solver.solve_z_linear(catalog.instantiate("X3"))


def test_non_square_dim_rejected():
    with pytest.raises(DimensionMismatch):
        solver.solve_z_linear(random_matrix(3, 1))


def test_membership_of_catalog_partners():
    X1 = catalog.instantiate("X1", catalog.witness("X1"))
    space = solver.solve_z_linear(X1)
    for zname in ("Z10", "Z11"):
        Z = catalog.instantiate(zname, catalog.witness(zname))
        assert space.contains(Z), zname
    assert space.contains(P)
    assert not space.contains(random_matrix(4, 1234))


def _in_span_by_rank(space, M):
    """Reference membership: M is in the span when it leaves the rank of
    the basis at the basis size.  Bareiss over Z[i] for a numeric M,
    ``rref`` over the rational functions for a symbolic one."""
    n = space.member_dim
    target = [M.rows[i][j] for i in range(n) for j in range(n)]
    rows = space.vectors() + [target]
    if all(isinstance(x, GaussianRational) for x in target):
        return bareiss_rank(rows) == space.dim
    return len(rref(rows, n * n)[0]) == space.dim


# a partner of each catalog X, instantiated with its parameters symbolic
SYMBOLIC_PARTNER = {"X1": "Z10", "X2": "Z20", "X3": "Z30", "X4": "Z41", "X5": "Z51",
                    "X6": "Z11"}


@pytest.mark.parametrize("label", ["X1", "X2", "X3", "X4", "X5", "X6", "random-3",
                                   "random-17", "flip-9"])
def test_contains_agrees_with_the_rank_reference(label):
    rng = random.Random(label)
    if label in SYMBOLIC_PARTNER:
        X = catalog.instantiate(label, catalog.witness(label))
    else:
        X = flip_matrix(3) if label == "flip-9" else random_matrix(4, int(label[7:]))
    space = solver.solve_z_linear(X)
    n = space.member_dim

    def gauss():
        return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    combos = []
    for _ in range(3):
        Z = SquareMatrix.zeros(n)
        for m in space.basis:
            Z = Z + m.scale(gauss())
        combos.append(Z)
    perturbed = combos[0] + SquareMatrix.unit(n, rng.randrange(n), rng.randrange(n))
    candidates = list(space.basis) + combos + [
        perturbed, random_matrix(n, 5), random_matrix(n, 6), SquareMatrix.identity(n),
        flip_matrix(isqrt(n))]
    if label in SYMBOLIC_PARTNER:
        candidates.append(catalog.instantiate(SYMBOLIC_PARTNER[label]))
    answers = [space.contains(M) for M in candidates]
    assert answers == [_in_span_by_rank(space, M) for M in candidates]
    assert set(answers) == {True, False}


def test_contains_refuses_a_basis_without_free_columns():
    # both vectors are nonzero in both columns, so no column fixes a coefficient
    space = solver.SolutionSpace(2, [SquareMatrix([[1, 1], [0, 0]]),
                                     SquareMatrix([[1, -1], [0, 0]])], 2)
    with pytest.raises(ValueError, match="basis vector 1 has no free column"):
        space.contains(SquareMatrix.identity(2))
    assert not solver.solve_z_linear(P).contains(flip_matrix(3))


def test_generic_sampling_dimension_agreement():
    rng = random.Random(21)
    dims = set()
    for _ in range(3):
        point = catalog.sample_assignment("X1", rng)
        space = solver.solve_z_linear(catalog.instantiate("X1", point))
        dims.add(space.dim)
    assert len(dims) == 1


# ---------------------------------------------------------------------------
# exact elimination: rref, nullspace, det and inverse against a reference

def _pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pair_rref(rows, ncols):
    """(pivots, determinant, reduced rows) by Gauss-Jordan over (re, im)
    pairs of Fractions, as rref's field path does it, independently of
    ybx's elimination and scalar arithmetic."""
    work = [[(x.re, x.im) for x in row] for row in rows]
    pivots, det = [], (Fraction(1), Fraction(0))
    for c in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(work)) if work[k][c] != (0, 0)), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            det = (-det[0], -det[1])
        pa, pb = work[r][c]
        det = _pair_mul(det, (pa, pb))
        n = pa * pa + pb * pb
        work[r] = [_pair_mul(x, (pa / n, -pb / n)) for x in work[r]]
        for k, row in enumerate(work):
            f = row[c]
            if k != r and f != (0, 0):
                work[k] = [(x[0] - g[0], x[1] - g[1])
                           for x, g in zip(row, (_pair_mul(f, y) for y in work[r]))]
        pivots.append(c)
    return (pivots, GaussianRational(*det),
            [[GaussianRational(a, b) for a, b in row] for row in work])


def _rref_nullspace(rows, ncols):
    """Basis and rank read off the reference rref on all rows: the answer
    ``nullspace`` must reproduce."""
    pivots, _, reduced = _pair_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for ri, pc in enumerate(pivots):
            v[pc] = -reduced[ri][f]
        basis.append(v)
    return basis, len(pivots)


_ENTRIES = {
    "dense": st.integers(-4, 4).map(GaussianRational),
    "sparse": st.sampled_from([0] * 6 + [1, -1, 2, 5]).map(GaussianRational),
    "gaussian": st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3)),
    "mixed-denominator": st.builds(GaussianRational,
                                   st.fractions(-3, 3, max_denominator=12),
                                   st.fractions(-1, 1, max_denominator=6)),
}


@st.composite
def _systems(draw, bound=None):
    """(rows, ncols): up to ncols generator rows, combinations of them,
    zero rows and a duplicated row, shuffled; the rank runs from 0 to
    ncols and the rows often outnumber the columns.  With a bound the
    entries may also be Gaussian integers with parts up to it."""
    kinds = dict(_ENTRIES)
    if bound is not None:
        kinds["wide"] = st.builds(GaussianRational, st.integers(-bound, bound),
                                  st.integers(-bound, bound))
    entry = kinds[draw(st.sampled_from(sorted(kinds)))]
    ncols = draw(st.integers(1, 6))
    gens = [[draw(entry) for _ in range(ncols)] for _ in range(draw(st.integers(0, ncols)))]
    rows = list(gens)
    for _ in range(draw(st.integers(0, ncols + 2))):
        coeffs = [draw(entry) for _ in gens]
        rows.append([sum((c * g[j] for c, g in zip(coeffs, gens)), ZERO)
                     for j in range(ncols)])
    rows += [[ZERO] * ncols for _ in range(draw(st.integers(0, 2)))]
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    return draw(st.permutations(rows)), ncols


@st.composite
def _rref_inputs(draw):
    """(rows, ncols) for rref: square matrices, often of full rank, or any
    number of rows, none included, that may be wider than ncols; zero and
    duplicate rows in either."""
    entry = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    ncols = draw(st.integers(1, 6))
    square = draw(st.booleans())
    width = ncols if square else ncols + draw(st.integers(0, 3))
    nrows = ncols if square else draw(st.integers(0, 8))
    rows = [[draw(entry) for _ in range(width)] for _ in range(nrows)]
    if rows:
        for k in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
            rows[k] = [ZERO] * width if draw(st.booleans()) else list(draw(st.sampled_from(rows)))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(_rref_inputs())
def test_rref_agrees_with_the_pair_reference(system):
    """Pivots, every reduced row and, for square input of full rank, the
    determinant, whatever the pivots (Gaussian, negative, real), the
    denominators and the row swaps."""
    rows, ncols = system
    want_pivots, want_det, want_rows = _pair_rref(rows, ncols)
    work = [row[:] for row in rows]
    pivots, det = rref(work, ncols)
    assert pivots == want_pivots
    assert [[str(x) for x in row] for row in work] == [[str(x) for x in row]
                                                       for row in want_rows]
    if len(rows) == ncols == len(pivots) and all(len(row) == ncols for row in rows):
        assert det == want_det != 0


@pytest.mark.parametrize("bound", [5, 998244353])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_selected_rows_give_the_full_rref_answer(bound, data):
    """Byte for byte the answer of the reference rref on all rows, from
    the {column: value} rows of the nonzero entries, whatever the row
    order, the repeats and the zero rows; with entry parts up to 5, where
    rows often cancel, and up to 998244353, where the fraction-free
    products run to hundreds of bits."""
    _check_nullspace(*data.draw(_systems(bound)))


def test_nullspace_keeps_a_row_that_vanishes_mod_5():
    """(2+i, 0, 0) is zero mod 5, where i maps to 3, yet independent over
    Q(i) of the other two rows: the rank is 2 and the basis (0, 0, 1)."""
    _check_nullspace([[GaussianRational(2, 1), ZERO, ZERO], [ZERO, ONE, ZERO],
                      [ZERO, GaussianRational(3), ZERO]], 3)


def _check_nullspace(rows, ncols):
    sparse = [{c: x for c, x in enumerate(row) if not x.is_zero()} for row in rows]
    before = [{c: str(x) for c, x in row.items()} for row in sparse]
    basis, rank = solver.nullspace(sparse, ncols)
    want, want_rank = _rref_nullspace(rows, ncols)
    assert rank == want_rank
    assert [[str(x) for x in v] for v in basis] == [[str(x) for x in v] for v in want]
    assert [{c: str(x) for c, x in row.items()} for row in sparse] == before


@st.composite
def _square_matrices(draw):
    """An n x n GaussianRational matrix, n = 5..7.  A staircase has row k
    start at column perm[k] with a nonzero entry, so the fraction-free
    pass finds its pivots in the order perm and the determinant takes
    that permutation's sign; a singular matrix has a zero, repeated or
    combined row."""
    entry = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    nonzero = entry.filter(lambda x: not x.is_zero())
    n = draw(st.integers(5, 7))
    shape = draw(st.sampled_from(["dense", "staircase", "singular"]))
    if shape == "staircase":
        perm = draw(st.permutations(range(n)))
        rows = [[ZERO] * p + [draw(nonzero)] + [draw(entry) for _ in range(n - p - 1)]
                for p in perm]
    else:
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if shape == "singular":
        k, j, m = draw(st.permutations(range(n)))[:3]
        c = draw(entry)
        rows[k] = draw(st.sampled_from([[ZERO] * n, rows[j][:],
                                        [c * x + y for x, y in zip(rows[j], rows[m])]]))
    return SquareMatrix(rows)


@settings(max_examples=60, deadline=None)
@given(_square_matrices())
def test_det_and_inverse_agree_with_the_references(A):
    """Numeric det against cofactor expansion and inverse against the
    right half of the pair reference's reduced [A | I], at n = 5..7."""
    n = A.dim
    det = A.det()
    assert det == _det_cofactor(A.rows)
    aug = [row + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(A.rows)]
    pivots, _, reduced = _pair_rref(aug, n)
    if det == ZERO:
        assert len(pivots) < n
        with pytest.raises(NotInvertible, match="determinant is zero"):
            A.inverse()
    else:
        assert pivots == list(range(n))
        assert [[str(x) for x in row] for row in A.inverse().rows] == \
            [[str(x) for x in row[n:]] for row in reduced]


# ---------------------------------------------------------------------------
# emitted polynomial systems

def test_filter_ybe_flip_span_is_trivially_zero():
    space = solver.SolutionSpace(4, [P], 15)
    ps_out = solver.filter_ybe(space)
    assert ps_out.identically_zero
    assert ps_out.to_text().startswith("unknowns: c1")


def test_filter_ybe_six_vertex_space():
    X = catalog.instantiate("X3", catalog.witness("X3"))
    space = solver.solve_z_linear(X)
    assert space.dim == 6
    sysout = solver.filter_ybe(space)
    assert not sysout.identically_zero
    # catalog partners satisfy the emitted cubic system
    for zname, point in (("Z30", catalog.witness("Z30")),
                         ("Z31", catalog.witness("Z31")),
                         ("Z32", catalog.witness("Z32"))):
        Z = catalog.instantiate(zname, point)
        assert space.contains(Z)
        # solve the (triangular) coordinates of Z in the echelon basis
        coords = _coordinates(space, Z)
        assignment = {name: c for name, c in zip(sysout.unknowns, coords)}
        assert all(r.is_zero() if hasattr(r, "is_zero") else r == 0
                   for r in sysout.residuals_at(assignment))


def _coordinates(space, M):
    """Coordinates of M in the echelon-normalized basis (exact solve)."""
    vecs = space.vectors()
    target = [M.rows[i][j] for i in range(M.dim) for j in range(M.dim)]
    rows = [list(col) for col in zip(*vecs)]          # 16 x dim
    aug = [row + [t] for row, t in zip(rows, target)]
    pivots, _ = solver.rref(aug, space.dim)
    coords = [GaussianRational(0)] * space.dim
    for r, c in enumerate(pivots):
        coords[c] = aug[r][space.dim]
    return coords


def test_filter_ybe_flags_non_solutions():
    space = solver.SolutionSpace(4, [random_matrix(4, 5), random_matrix(4, 6)], 14)
    sysout = solver.filter_ybe(space)
    assert not sysout.identically_zero
    vals = sysout.residuals_at({"c1": 1, "c2": 2})
    assert any(not v.is_zero() for v in vals)


def test_emit_x_system_block_pattern_vanishes():
    W = catalog.instantiate("W", {"t": "q"})
    pattern = [["a", 0, 0, 0], ["c", "a", 0, 0], [0, 0, "b", 0], [0, 0, "d", "b"]]
    out = solver.emit_x_system(W, pattern, ["a", "b", "c", "d"])
    assert out.identically_zero


def test_emit_x_system_corner_pattern_forces_sign_condition():
    pattern = [["q", 0, 0, "c"], [0, "s^-1", 0, 0], [0, "a", "b", 0],
               [0, 0, 0, "b/s*q"]]
    W = catalog.instantiate("W", {"t": "q"})
    out = solver.emit_x_system(W, pattern, ["a", "b", "c"])
    assert not out.identically_zero
    # s = 3 leaves nonzero equations; s = 1 and s = -1 clear them all
    bad = [substitute(eq, {"s": 3, "q": 2, "a": 1, "b": 2, "c": 3})
           for eq in out.equations]
    assert any(not v.is_zero() for v in bad)
    for s in (1, -1):
        good = [substitute(eq, {"s": s}) for eq in out.equations]
        assert all(v.is_zero() for v in good)


def test_emit_x_system_flip_outer_is_free():
    pattern = [[f"x{i}{j}" for j in range(4)] for i in range(4)]
    unknowns = [f"x{i}{j}" for i in range(4) for j in range(4)]
    out = solver.emit_x_system(P, pattern, unknowns)
    assert out.identically_zero


def test_polysystem_serialization():
    space = solver.solve_z_linear(catalog.instantiate("X3", catalog.witness("X3")))
    text = solver.filter_ybe(space).to_text()
    lines = text.splitlines()
    assert lines[0] == "unknowns: c1 c2 c3 c4 c5 c6"
    assert all(line.endswith(" = 0") for line in lines[1:])


# ---------------------------------------------------------------------------
# symmetry transforms

def _verified_triple():
    W = catalog.instantiate("W", {"q": 2, "s": 3, "t": 2})
    X = catalog.instantiate("X1", catalog.witness("X1"))
    Z = catalog.instantiate("Z10", catalog.witness("Z10"))
    return (W, X, Z)


def test_identity_spec_is_identity():
    triple = _verified_triple()
    out = solver.apply_transform(triple, solver.TransformSpec())
    assert all(a == b for a, b in zip(out, triple))


def test_outer_swap_step():
    W, X, Z = _verified_triple()
    out = solver.apply_transform((W, X, Z), solver.TransformSpec(
        word=solver.parse_word("dsym3:++")))
    from ybx.tensor import transform
    assert out[0] == transform(Z, "+")
    assert out[1] == transform(X, "+")
    assert out[2] == transform(W, "+")
    ok, _ = systems.verify("QDOUBLE", dict(zip("WXZ", out)))
    assert ok


def test_middle_inverse_step():
    X1 = catalog.instantiate("X1", {"a": 1, "b": 2, "c": 1, "d": 1})
    out = solver.apply_transform((P, X1, P), solver.TransformSpec(
        word=solver.parse_word("dsym2:+-")))
    assert out[1] == X1.inverse()
    ok, _ = systems.verify("QDOUBLE", dict(zip("WXZ", out)))
    assert ok


def test_discrete_words_are_involutive():
    triple = _verified_triple()
    for word in ("t", "dsym1:##", "dsym2:++", "dsym2:--"):
        spec = solver.TransformSpec(word=solver.parse_word(word) * 2)
        out = solver.apply_transform(triple, spec)
        assert all(a == b for a, b in zip(out, triple)), word


def test_word_parsing_and_errors():
    assert solver.parse_word("") == ()
    assert solver.parse_word("t,dsym1:i#,dsym3:+-") == (
        ("t",), ("dsym1", "id", "#"), ("dsym3", "+", "-"))
    for bad in ("dsym1:xx", "dsym2:ii", "dsym9:++", "zzz"):
        with pytest.raises(ValueError):
            solver.parse_word(bad)


def test_not_invertible_names_the_step():
    singular = SquareMatrix([[1 if (i, j) == (0, 0) else 0 for j in range(4)]
                             for i in range(4)])
    with pytest.raises(NotInvertible) as err:
        solver.apply_transform((P, singular, P), solver.TransformSpec(
            word=solver.parse_word("dsym2:+-")))
    assert "dsym2" in str(err.value)


def test_random_specs_preserve_solutions():
    rng = random.Random(2025)
    triple = _verified_triple()
    for _ in range(20):
        spec = solver.random_transform_spec(rng)
        try:
            out = solver.apply_transform(triple, spec)
        except NotInvertible:
            continue
        ok, _ = systems.verify("QDOUBLE", dict(zip("WXZ", out)))
        assert ok, spec


def test_random_sl2_has_unit_determinant():
    rng = random.Random(8)
    for _ in range(20):
        T = solver.random_sl2(rng)
        assert T.det() == 1


# ---------------------------------------------------------------------------
# braided-group bridge

def test_bridge_on_flip_pair():
    W, X, Z = solver.qbg_to_qdouble(P, P)
    assert W == P and X == P and Z == P


def test_bridge_on_deformed_flip():
    R = catalog.instantiate("W", {"q": 2, "s": 3, "t": 2})
    W, X, Z = solver.qbg_to_qdouble(R, R)
    ok, _ = systems.verify("QDOUBLE", {"W": W, "X": X, "Z": Z})
    assert ok
    W, X, Z = solver.qbg_to_qdouble(P * R.inverse() * P, R)
    ok, _ = systems.verify("QDOUBLE", {"W": W, "X": X, "Z": Z})
    assert ok


def test_bridge_rejects_non_solutions():
    with pytest.raises(InputNotQbgSolution):
        solver.qbg_to_qdouble(random_matrix(4, 41), random_matrix(4, 42))


def test_qbg_admissibility_checks():
    R = catalog.instantiate("W", {"q": 2, "s": 3, "t": 2})
    assert solver.qbg_admissible(R) == (True, True)
    # the exceptional corner solution has a singular partial transpose
    corner = catalog.instantiate("Rex1")
    first, second = solver.qbg_admissible(corner)
    assert first is True
    singular = SquareMatrix([[1 if (i, j) == (0, 0) else 0 for j in range(4)]
                             for i in range(4)])
    assert solver.qbg_admissible(singular)[0] is False
    # the dim-9 flip is invertible, but its partial transpose has rank 1
    assert solver.qbg_admissible(flip_matrix(3)) == (True, False)
