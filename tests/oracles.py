"""Independent oracles used to cross-check the library.

Everything here is deliberately written against raw index formulas with
no reuse of the leg-embedding, matrix-product or elimination code paths
under test.  Numeric inputs never touch library arithmetic: ``ybc_loops``
and ``bareiss_rank`` read each entry's ``re`` and ``im`` and compute on
Python ints.  Only symbolic inputs to ``ybc_loops`` are summed with the
scalar tower's operators.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from ybx.scalar import ZERO, GaussianRational, Monomial, Polynomial
from ybx.tensor import SquareMatrix


def embed_oracle(M, legs, N):
    """(M_ab)^{i1 i2 i3}_{j1 j2 j3} by explicit loops with delta factors."""
    a, b = legs
    c = ({1, 2, 3} - {a, b}).pop()
    dim = N ** 3
    out = [[ZERO] * dim for _ in range(dim)]
    for idx in product(range(N), repeat=3):
        for jdx in product(range(N), repeat=3):
            i = {1: idx[0], 2: idx[1], 3: idx[2]}
            j = {1: jdx[0], 2: jdx[1], 3: jdx[2]}
            if i[c] != j[c]:
                continue
            val = M.rows[i[a] * N + i[b]][j[a] * N + j[b]]
            if not val.is_zero():
                out[idx[0] * N * N + idx[1] * N + idx[2]][
                    jdx[0] * N * N + jdx[1] * N + jdx[2]] = val
    return SquareMatrix(out)


def ybc_loops(R, S, T, N=2):
    """[R,S,T] = R12 S13 T23 - T23 S13 R12 by raw six-index sums, no
    embedding and no matrix product.  When every entry of R, S and T is
    numeric, the sums run on Gaussian integers (``_ybc_ints``); otherwise
    on the scalar tower (``ybc_tower``)."""
    factors = [_gaussian_ints(M, N) for M in (R, S, T)]
    if None in factors:
        return ybc_tower(R, S, T, N)
    return _ybc_ints(*factors, N)


# id -> (matrix, N, its _gaussian_ints) for the two matrices seen last:
# the rank oracle scales the same X for every unit matrix it tries.  The
# cache holds each matrix, so its id cannot pass to another meanwhile.
_recent = {}


def _gaussian_ints(M, N):
    """(L, g) for a numeric M: L is the lcm of the denominators of every
    entry's re and im, and g maps the row legs (i1, i2) to a list of
    (j1, j2, re, im), one for each nonzero entry of the row, with re + im*i
    equal to L times the entry.  None when an entry is a GaussianRational
    neither as it is nor as a constant Polynomial."""
    seen = _recent.pop(id(M), None)
    if seen is None or seen[1] != N:
        seen = (M, N, _scaled_ints(M, N))
    _recent[id(M)] = seen
    if len(_recent) > 2:
        del _recent[next(iter(_recent))]
    return seen[2]


def _scaled_ints(M, N):
    parts = []
    for r, row in enumerate(M.rows):
        for c, x in enumerate(row):
            if isinstance(x, Polynomial) and x.is_constant():
                x = x.constant_value()
            if not isinstance(x, GaussianRational):
                return None
            if x.re or x.im:
                parts.append((r, c, x.re, x.im))
    L = lcm(*(f.denominator for _, _, re, im in parts for f in (re, im)))
    g = {}
    for r, c, re, im in parts:
        g.setdefault(divmod(r, N), []).append(
            divmod(c, N) + (re.numerator * (L // re.denominator),
                            im.numerator * (L // im.denominator)))
    return L, g


def _ybc_ints(R, S, T, N):
    """``ybc_loops`` on the (L, g) forms of ``_gaussian_ints``.  The delta
    factors leave three free indices in each triple product:

        (R12 S13 T23)[i, j] = sum over k1, k2, l3 of
            R[i1 i2, k1 k2] S[k1 i3, j1 l3] T[k2 l3, j2 j3]
        (T23 S13 R12)[i, j] = sum over k2, k3, l1 of
            T[i2 i3, k2 k3] S[i1 k3, l1 j3] R[l1 k2, j1 j2]

    The loops walk only nonzero entries and sum L_R L_S L_T times each
    term in ints; each sum is divided by that product once, at the end."""
    (LR, r), (LS, s), (LT, t) = R, S, T
    acc = {}
    for (i1, i2), row in r.items():
        for k1, k2, *x in row:
            for i3 in range(N):
                for j1, l3, *y in s.get((k1, i3), ()):
                    pa, pb = _cmul(x, y)
                    for j2, j3, za, zb in t.get((k2, l3), ()):
                        key = (i1, i2, i3, j1, j2, j3)
                        re, im = acc.get(key, (0, 0))
                        acc[key] = (re + pa * za - pb * zb, im + pa * zb + pb * za)
    for (i2, i3), row in t.items():
        for k2, k3, *x in row:
            for i1 in range(N):
                for l1, j3, *y in s.get((i1, k3), ()):
                    pa, pb = _cmul(x, y)
                    for j1, j2, za, zb in r.get((l1, k2), ()):
                        key = (i1, i2, i3, j1, j2, j3)
                        re, im = acc.get(key, (0, 0))
                        acc[key] = (re - pa * za + pb * zb, im - pa * zb - pb * za)
    L = LR * LS * LT
    dim = N ** 3
    out = [[ZERO] * dim for _ in range(dim)]
    for (i1, i2, i3, j1, j2, j3), (re, im) in acc.items():
        out[i1 * N * N + i2 * N + i3][j1 * N * N + j2 * N + j3] = GaussianRational(
            Fraction(re, L), Fraction(im, L))
    return SquareMatrix(out)


def ybc_tower(R, S, T, N=2):
    """[R,S,T] by raw six-index sums on the scalar tower's operators."""
    def g(M, i, j, k, l):
        return M.rows[i * N + j][k * N + l]

    dim = N ** 3
    out = [[ZERO] * dim for _ in range(dim)]
    triples = list(product(range(N), repeat=3))
    for i1, i2, i3 in triples:
        for j1, j2, j3 in triples:
            acc = ZERO
            for k1, k2, k3 in triples:
                if i3 != k3:
                    continue
                a = g(R, i1, i2, k1, k2)
                if a.is_zero():
                    continue
                for l1, l2, l3 in triples:
                    if k2 != l2:
                        continue
                    b = g(S, k1, k3, l1, l3)
                    if b.is_zero():
                        continue
                    c = g(T, l2, l3, j2, j3) if l1 == j1 else ZERO
                    if not c.is_zero():
                        acc = acc + a * b * c
            for k1, k2, k3 in triples:
                if i1 != k1:
                    continue
                a = g(T, i2, i3, k2, k3)
                if a.is_zero():
                    continue
                for l1, l2, l3 in triples:
                    if k2 != l2:
                        continue
                    b = g(S, k1, k3, l1, l3)
                    if b.is_zero():
                        continue
                    c = g(R, l1, l2, j1, j2) if l3 == j3 else ZERO
                    if not c.is_zero():
                        acc = acc - a * b * c
            out[i1 * N * N + i2 * N + i3][j1 * N * N + j2 * N + j3] = acc
    return SquareMatrix(out)


# ---------------------------------------------------------------------------
# fraction-free rank over Gaussian integers (Bareiss condensation)

def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def bareiss_rank(rows):
    """Rank of a matrix of GaussianRational entries via fraction-free
    elimination over Gaussian integers: each row is first scaled by the
    lcm of its parts' denominators.  Each entry object is read once; the
    rows hold them all, so no id is reused meanwhile."""
    read = {}
    m = []
    for row in rows:
        parts = []
        for x in row:
            pair = read.get(id(x))
            if pair is None:
                pair = read[id(x)] = (x.re, x.im)
            parts.append(pair)
        L = lcm(*(f.denominator for pair in parts for f in pair))
        m.append([(re.numerator * (L // re.denominator),
                   im.numerator * (L // im.denominator)) for re, im in parts])
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pa, pb = 1, 0
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if m[rr][c] != (0, 0):
                piv = rr
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        va, vb = top[c]
        n = pa * pa + pb * pb
        for rr in range(r + 1, nrows):
            row = m[rr]
            fa, fb = row[c]
            for cc in range(c + 1, ncols):
                # (row[cc] * pivot - row[c] * top[cc]) / previous pivot, exactly
                xa, xb = row[cc]
                ya, yb = top[cc]
                if not (xa or xb) and not (fa or fb and (ya or yb)):
                    continue
                za = xa * va - xb * vb - fa * ya + fb * yb
                zb = xa * vb + xb * va - fa * yb - fb * ya
                re, im = za * pa + zb * pb, zb * pa - za * pb
                assert re % n == 0 and im % n == 0, "Bareiss division not exact"
                row[cc] = (re // n, im // n)
            row[c] = (0, 0)
        pa, pb = va, vb
        r += 1
    return r


# ---------------------------------------------------------------------------
# seeded random scalar generators for property tests

def random_gaussian(rng):
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                            Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def random_poly(rng, names=("q", "s", "a"), max_terms=3, max_exp=2):
    from ybx.scalar import var_id
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = []
        for name in names:
            e = rng.randint(-max_exp, max_exp)
            if e:
                exps.append((var_id(name), e))
        mono = Monomial(tuple(sorted(exps)))
        coeff = random_gaussian(rng)
        if not coeff.is_zero():
            terms[mono] = coeff
    return Polynomial(terms)


def random_nonzero_poly(rng, **kw):
    while True:
        p = random_poly(rng, **kw)
        if not p.is_zero():
            return p
