"""The int forms of a matrix, and arithmetic on them in Python ints.

The int form of an n x n matrix of GaussianRationals is (d, zrows): each
of the n zrows lists (column, re, im) for the nonzero entries of its row,
where re + im*i is d times the entry, and d is the least positive integer
that makes every entry a Gaussian integer.

The polynomial int form of an n x n matrix of GaussianRationals and
Polynomials is (d, prows): each prow lists (column, re, im, is_poly),
where re and im map each monomial to a nonzero int, the entry is the sum
over monomials m of (re[m] + im[m]*i)/d times m, and d is again the least
denominator.  ``is_poly`` says whether the entry reads back as a
Polynomial: it does exactly when the scalar tower, on the same operands,
would have made one.  A GaussianRational zero is not listed; a
Polynomial zero is, with no terms.

``tensor.SquareMatrix`` keeps the int form in its ``_zi`` slot and the
polynomial one in its ``_zq`` slot, over a polynomial denominator that
RationalFunction entries share, and chooses when these functions run;
the arithmetic returns an int form again.  No function changes the term
dicts of its operands, so results may share them.  ``commutator`` and
``poly_commutator`` are the numeric and the polynomial Yang-Baxter
commutator, for ``tensor.ybc_const``.  ``bareiss`` is the one exact
elimination over Z[i], for ``det``, ``inverse`` and ``solver.nullspace``.
``evaluate`` turns a polynomial int form at a numeric point into the int
form, for the entries of ``catalog``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm

from .scalar import ZERO, GaussianRational, Polynomial, _mono_mul, _reduced


def of_rows(rows):
    """The int form of square ``rows`` of scalars, in one pass; None at the
    first entry that is not a GaussianRational."""
    d = 1
    nonzero = []
    for row in rows:
        kept = []
        for c, x in enumerate(row):
            if type(x) is not GaussianRational:
                return None
            if x.a or x.b:
                kept.append((c, x))
                if x.d != 1:
                    d = lcm(d, x.d)
        nonzero.append(kept)
    if d == 1:
        return 1, [[(c, x.a, x.b) for c, x in kept] for kept in nonzero]
    return d, [[(c, x.a * (d // x.d), x.b * (d // x.d)) for c, x in kept] for kept in nonzero]


def to_rows(zi, n):
    """The n lists of n GaussianRationals of the int form ``zi``, each
    entry reduced on its own."""
    d, zrows = zi
    rows = [[ZERO] * n for _ in zrows]
    for row, zrow in zip(rows, zrows):
        for c, a, b in zrow:
            row[c] = _reduced(a, b, d)
    return rows


def least(d, zrows):
    """The int form of the entries re + im*i over d in ``zrows``: a factor
    common to d and every entry is divided out, so d stays the least
    denominator along chains of products and inverses."""
    if d != 1:
        g = d
        for _, a, b in chain.from_iterable(zrows):
            g = gcd(g, a, b)
            if g == 1:
                break
        else:
            d //= g
            zrows = [[(c, a // g, b // g) for c, a, b in zrow] for zrow in zrows]
    return d, zrows


def product(x, y):
    """The int form of the matrix product x y: the products of nonzero
    entries are summed in ints over the product of the denominators."""
    (da, arows), (db, brows) = x, y
    n = len(brows)
    out = []
    for arow in arows:
        re, im = [0] * n, [0] * n
        for k, xa, xb in arow:
            if xb:
                for j, ya, yb in brows[k]:
                    re[j] += xa * ya - xb * yb
                    im[j] += xa * yb + xb * ya
                continue
            for j, ya, yb in brows[k]:
                re[j] += xa * ya
                if yb:
                    im[j] += xa * yb
        out.append([(j, a, b) for j, a, b in zip(range(n), re, im) if a or b])
    return least(da * db, out)


def combined(x, y, sign):
    """The int form of x + sign * y, over the lcm of their denominators."""
    (da, arows), (db, brows) = x, y
    d = lcm(da, db)
    sa, sb = d // da, sign * (d // db)
    out = []
    for arow, brow in zip(arows, brows):
        acc = {c: (a * sa, b * sa) for c, a, b in arow}
        for c, a, b in brow:
            p, q = acc.get(c, (0, 0))
            acc[c] = (p + a * sb, q + b * sb)
        out.append([(c, a, b) for c, (a, b) in acc.items() if a or b])
    return least(d, out)


def negated(x):
    """The int form of -x."""
    d, zrows = x
    return d, [[(c, -a, -b) for c, a, b in zrow] for zrow in zrows]


def scaled(x, s):
    """The int form of the GaussianRational ``s`` times x."""
    d, zrows = x
    if s.is_zero():
        return 1, [[] for _ in zrows]
    sa, sb = s.a, s.b
    return least(d * s.d, [[(c, a * sa - b * sb, a * sb + b * sa) for c, a, b in zrow]
                           for zrow in zrows])


def commutator(r, s, t):
    """The int form of the Yang-Baxter commutator R12 S13 T23 - T23 S13 R12
    of the int forms r, s, t of three N^2 x N^2 matrices, computed without
    embedding a factor and without ``product``.

    Each row of an N^3 x N^3 intermediate is one pair of Python ints
    (re, im) that holds the entry in column j at bit w*j (Kronecker
    substitution; Harvey, J. Symb. Comp. 44, 2009), so row x of the
    identity is 2^(w*x).  A left multiply by an embedded factor adds, for
    each nonzero entry of the small factor's row, that entry times one
    packed row, and both triple products are applied to the identity.  A
    residual row whose ints are 0 is empty, so a zero commutator unpacks
    nothing."""
    (dr, rrows), (ds, srows), (dt, trows) = r, s, t
    n = len(rrows)
    N = isqrt(n)
    size = n * N
    # The delta factors of the legs leave three free indices in each entry
    # of either triple product, so the entry sums N^3 products of three
    # entries, and a part of such a product sums four products of parts.
    # A slot of the residual thus holds at most 8 N^3 mR mS mT in absolute
    # value, where m is the largest part of a factor's Gaussian integers;
    # w bits hold that with its sign and one bit to spare.
    w = (8 * N ** 3 * _largest(rrows) * _largest(srows) * _largest(trows)).bit_length() + 2
    at12, at13, at23 = _legs(N)
    unit = [(1 << (w * x), 0) for x in range(size)]
    p1 = _times(rrows, at12, _times(srows, at13, _times(trows, at23, unit)))
    p2 = _times(trows, at23, _times(srows, at13, _times(rrows, at12, unit)))
    half = 1 << (w - 1)
    bias = half * ((1 << (w * size)) - 1) // ((1 << w) - 1)     # half in every slot
    out = []
    for (a1, b1), (a2, b2) in zip(p1, p2):
        re, im = a1 - a2, b1 - b2
        if re or im:
            out.append([(j, a, b) for j, a, b in zip(range(size), _slots(re, size, w, half, bias),
                                                     _slots(im, size, w, half, bias)) if a or b])
        else:
            out.append([])
    return least(dr * ds * dt, out)


def _largest(zrows):
    return max((max(abs(a), abs(b)) for zrow in zrows for _, a, b in zrow), default=0)


@lru_cache(maxsize=8)
def _legs(N):
    """Where the N^2 x N^2 factor M sits in M12, M13 and M23: for each, one
    pair per row x = (x1, x2, x3) of N (x) N (x) N, the row of M it holds
    and the list over M's columns c = (c1, c2) of the column c lands in.
    That is M's row (x1, x2) with c at (c1, c2, x3) in M12, row (x1, x3)
    with c at (c1, x2, c2) in M13, and row (x2, x3) with c at (x1, c1, c2)
    in M23."""
    n = N * N
    rows = range(n * N)
    cols = range(n)
    return ([(x // N, [c * N + x % N for c in cols]) for x in rows],
            [(x // n * N + x % N, [c // N * n + c % N + x // N % N * N for c in cols])
             for x in rows],
            [(x % n, [x - x % n + c for c in cols]) for x in rows])


def _times(zrows, at, packed):
    """The packed rows of F X, for the packed rows of X and the embedded
    factor F that ``at`` places the int form rows ``zrows`` in."""
    out = []
    for f, cols in at:
        re = im = 0
        for c, a, b in zrows[f]:
            xa, xb = packed[cols[c]]
            if b:
                re += a * xa - b * xb
                im += a * xb + b * xa
            else:
                re += a * xa
                im += a * xb
        out.append((re, im))
    return out


def _slots(x, size, w, half, bias):
    """The ``size`` signed w-bit slots of the int x, lowest first: adding
    ``bias``, ``half`` = 2^(w-1) in every slot, lifts each slot to
    [0, 2^w)."""
    x += bias
    mask = 2 * half - 1
    out = []
    for _ in range(size):
        out.append((x & mask) - half)
        x >>= w
    return out


def moved(x, size, places):
    """The int form of dim ``size`` that holds each nonzero entry (r, c) of
    x at every position of ``places(r, c)``, over the same d."""
    d, zrows = x
    out = [[] for _ in range(size)]
    for r, zrow in enumerate(zrows):
        for c, a, b in zrow:
            for i, j in places(r, c):
                out[i].append((j, a, b))
    return d, out


def bareiss(rows, ncols):
    """Fraction-free Gauss-Jordan elimination over Z[i] (Bareiss, Math.
    Comp. 22, 1968), one row at a time.

    Each row is a {column: (re, im)} dict of its nonzero Gaussian-integer
    entries, and may reach past ``ncols``, as in [M | I].  Each
    independent row is kept as D times its reduced form, where D is the
    last pivot: D at its own pivot column and 0 at the others.  A new row
    x becomes D*x - sum over the pivot columns pc of x[pc]*kept[pc], and
    is dropped when that is zero on the first ``ncols`` columns.
    Otherwise its first nonzero column c there takes the next pivot p, and
    every kept row becomes (p*row - row[c]*x) / D, which divides exactly.
    No step guesses, so the kept rows over D are the reduced row echelon
    form of all the rows.  Stops once ``ncols`` rows are kept.

    Returns (kept rows by pivot column, the pivot columns in the order
    they were found, D as an (re, im) pair)."""
    kept, order = {}, []
    da, db = 1, 0
    for row in rows:
        x = {j: (da * xa - db * xb, da * xb + db * xa) for j, (xa, xb) in row.items()}
        for pc, (fa, fb) in row.items():
            if pc in kept:
                for j, (ka, kb) in kept[pc].items():
                    za, zb = x.get(j, (0, 0))
                    x[j] = (za - fa * ka + fb * kb, zb - fa * kb - fb * ka)
        x = {j: z for j, z in x.items() if z[0] or z[1]}
        c = min((j for j in x if j < ncols), default=None)
        if c is None:
            continue
        pa, pb = x[c]
        n = da * da + db * db
        for pc, krow in kept.items():
            f = krow.get(c)
            if f is None and pa == da and pb == db:
                continue
            new = {j: (pa * ka - pb * kb, pa * kb + pb * ka) for j, (ka, kb) in krow.items()}
            if f is not None:
                fa, fb = f
                for j, (ya, yb) in x.items():
                    za, zb = new.get(j, (0, 0))
                    new[j] = (za - fa * ya + fb * yb, zb - fa * yb - fb * ya)
            # z / D is z * conj(D) // N(D), exact in Z[i]
            if db:
                kept[pc] = {j: ((za * da + zb * db) // n, (zb * da - za * db) // n)
                            for j, (za, zb) in new.items() if za or zb}
            else:
                kept[pc] = {j: (za // da, zb // da) for j, (za, zb) in new.items() if za or zb}
        kept[c] = x
        order.append(c)
        da, db = pa, pb
        if len(order) == ncols:
            break
    return kept, order, (da, db)


def over(x, d):
    """The GaussianRational x / d of two Gaussian integers (re, im), d nonzero."""
    (xa, xb), (da, db) = x, d
    return _reduced(xa * da + xb * db, xb * da - xa * db, da * da + db * db)


def det(x):
    """The determinant of the int form x = (d, zrows): the last pivot D of
    ``bareiss`` on zrows is the determinant of d times the matrix in the
    pivot columns' order of discovery, so the determinant is +-D / d^n,
    and zero when the rank is short."""
    d, zrows = x
    n = len(zrows)
    _, order, (da, db) = bareiss([{c: (a, b) for c, a, b in zrow} for zrow in zrows], n)
    if len(order) < n:
        return ZERO
    if sum(a > b for k, a in enumerate(order) for b in order[k + 1:]) % 2:
        da, db = -da, -db
    return _reduced(da, db, d ** n)


def inverse(x):
    """The int form of the inverse of x = (d, zrows), or None when x is
    singular: ``bareiss`` reduces d [M | I] to D times [I | M^-1], so the
    inverse is the right half of its kept rows over D, over |D|^2 until
    reduced."""
    d, zrows = x
    n = len(zrows)
    kept, order, (da, db) = bareiss([{**{c: (a, b) for c, a, b in zrow}, n + i: (d, 0)}
                                     for i, zrow in enumerate(zrows)], n)
    if len(order) < n:
        return None
    # x / D is x * conj(D) / |D|^2
    return least(da * da + db * db, [[(j - n, xa * da + xb * db, xb * da - xa * db)
                                      for j, (xa, xb) in kept[i].items() if j >= n]
                                     for i in range(n)])


# ---------------------------------------------------------------------------
# the polynomial int form

def poly_of_rows(rows):
    """The polynomial int form of square ``rows`` of scalars; None when an
    entry is a RationalFunction."""
    entries = []
    d = 1
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            kind = type(x)
            if kind is Polynomial:
                entries.append((r, c, x.terms, True))
            elif kind is not GaussianRational:
                return None
            elif x.a or x.b:
                entries.append((r, c, {(): x}, False))
    for _, _, terms, _ in entries:
        for k in terms.values():
            if k.d != 1:
                d = lcm(d, k.d)
    out = [[] for _ in rows]
    for r, c, terms, is_poly in entries:
        re, im = {}, {}
        for m, k in terms.items():
            s = d // k.d
            if k.a:
                re[m] = k.a * s
            if k.b:
                im[m] = k.b * s
        out[r].append((c, re, im, is_poly))
    return d, out


def evaluate(x, point):
    """The int form of the polynomial int form x at ``point``, a map from
    variable id to GaussianRational; None when a variable of x has no
    value there.  Each power of a variable and each distinct monomial is
    valued once in ints, and each entry is summed in ints over one
    denominator.  A zero under a negative power raises DivisionByZero
    from ``GaussianRational.inv``, as in the scalar loop."""
    d, prows = x
    powers, monos = {}, {}
    for _, re, im, _ in chain.from_iterable(prows):
        for m in chain(re, im):
            if m in monos:
                continue
            a, b, den = 1, 0, 1
            for v, e in m:
                p = powers.get((v, e))
                if p is None:
                    base = point.get(v)
                    if base is None:
                        return None
                    p = powers[v, e] = _power(base.inv() if e < 0 else base, abs(e))
                pa, pb, pd = p
                a, b, den = a * pa - b * pb, a * pb + b * pa, den * pd
            monos[m] = a, b, den
    den = lcm(*(md for _, _, md in monos.values()))
    monos = {m: (a * (den // md), b * (den // md)) for m, (a, b, md) in monos.items()}
    out = []
    for prow in prows:
        zrow = []
        for c, re, im, _ in prow:
            a = b = 0
            for m, k in re.items():
                ma, mb = monos[m]
                a += k * ma
                b += k * mb
            for m, k in im.items():     # k*i times ma + mb*i
                ma, mb = monos[m]
                a -= k * mb
                b += k * ma
            if a or b:
                zrow.append((c, a, b))
        out.append(zrow)
    return least(d * den, out)


def _power(x, e):
    """(re, im, den) with x^e = (re + im*i)/den, for the GaussianRational x
    and e > 0, in ints."""
    a, b = 1, 0
    for _ in range(e):
        a, b = a * x.a - b * x.b, a * x.b + b * x.a
    return a, b, x.d ** e


def poly_of(x):
    """The polynomial int form of the int form x."""
    d, zrows = x
    return d, [[(c, {(): a} if a else {}, {(): b} if b else {}, False) for c, a, b in zrow]
               for zrow in zrows]


def poly_to_rows(x, n):
    """The n lists of n scalars of the polynomial int form ``x``, each
    coefficient reduced on its own."""
    d, prows = x
    rows = [[ZERO] * n for _ in prows]
    for row, prow in zip(rows, prows):
        for c, re, im, is_poly in prow:
            if not is_poly:
                row[c] = _reduced(re.get((), 0), im.get((), 0), d)
                continue
            terms = {m: _reduced(a, im.get(m, 0), d) for m, a in re.items()}
            for m, b in im.items():
                if m not in re:
                    terms[m] = _reduced(0, b, d)
            row[c] = Polynomial(terms)
    return rows


def poly_numeric(x):
    """The int form of the polynomial int form x, or None when an entry of
    x is a Polynomial."""
    d, prows = x
    if any(entry[3] for prow in prows for entry in prow):
        return None
    return d, [[(c, re.get((), 0), im.get((), 0)) for c, re, im, _ in prow] for prow in prows]


def poly_is_zero(x):
    """Whether every entry of the polynomial int form x has no terms."""
    return not any(re or im for prow in x[1] for _, re, im, _ in prow)


def _listed(acc):
    """The prow of ``acc``, a map from column to (re, im, is_poly) over
    fresh term dicts: zero terms are dropped in place, and then each entry
    left with no terms that is not a Polynomial."""
    prow = []
    for c, (re, im, p) in acc.items():
        for t in (re, im):
            if 0 in t.values():
                for m in [m for m, v in t.items() if not v]:
                    del t[m]
        if re or im or p:
            prow.append((c, re, im, p))
    return prow


def _least(d, prows):
    """``least`` on fresh term dicts: a factor common to d and every
    coefficient is divided out in place."""
    if d != 1:
        g = d
        for _, re, im, _ in chain.from_iterable(prows):
            g = gcd(g, *re.values(), *im.values())
            if g == 1:
                return d, prows
        for _, re, im, _ in chain.from_iterable(prows):
            for t in (re, im):
                for m in t:
                    t[m] //= g
        d //= g
    return d, prows


def _mul_into(acc, p, q, sign, monos):
    """acc += sign * p * q for term dicts p and q; ``monos`` caches the
    monomial products as m1 -> m2 -> m1 m2."""
    for m1, x in p.items():
        if sign < 0:
            x = -x
        if not m1:
            for m2, y in q.items():
                acc[m2] = acc.get(m2, 0) + x * y
            continue
        row = monos.get(m1)
        if row is None:
            row = monos[m1] = {}
        for m2, y in q.items():
            m = row.get(m2)
            if m is None:
                m = row[m2] = _mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + x * y


def _row_into(acc, arow, brows, sign, monos):
    """acc += sign * arow B for a prow of A and the prows of B; ``acc`` maps
    each column to [re, im, is_poly], and an entry is a Polynomial when
    some product of nonzero entries that reached it had a Polynomial
    factor."""
    for k, are, aim, apoly in arow:
        if not (are or aim):
            continue
        for j, bre, bim, bpoly in brows[k]:
            if not (bre or bim):
                continue
            e = acc.get(j)
            if e is None:
                e = acc[j] = [{}, {}, apoly or bpoly]
            elif apoly or bpoly:
                e[2] = True
            re, im = e[0], e[1]
            _mul_into(re, are, bre, sign, monos)
            if aim:
                _mul_into(im, aim, bre, sign, monos)
            if bim:
                _mul_into(im, are, bim, sign, monos)
                if aim:
                    _mul_into(re, aim, bim, -sign, monos)


def poly_product(x, y):
    """The polynomial int form of the matrix product x y, over the product
    of the denominators."""
    (da, arows), (db, brows) = x, y
    monos = {}
    out = []
    for arow in arows:
        acc = {}
        _row_into(acc, arow, brows, 1, monos)
        out.append(_listed(acc))
    return _least(da * db, out)


def poly_commutator(r, s, t):
    """The polynomial int form of the Yang-Baxter commutator
    R12 S13 T23 - T23 S13 R12 of the polynomial int forms r, s, t of three
    N^2 x N^2 matrices, without embedding a factor.

    Each factor's embedded rows are read from ``_legs``.  Row by row,
    (R12 S13) T23 and (T23 S13) R12 are summed with opposite signs into
    one accumulator, over the one denominator dr ds dt.  The products
    associate as the embedded ones do: which intermediate entries cancel
    decides which residual entries are Polynomials."""
    (dr, rrows), (ds, srows), (dt, trows) = r, s, t
    at12, at13, at23 = _legs(isqrt(len(rrows)))
    r12, s13, t23 = _placed(rrows, at12), _placed(srows, at13), _placed(trows, at23)
    monos = {}
    out = []
    for rrow, trow in zip(r12, t23):
        acc = {}
        for first, last, sign in ((rrow, t23, 1), (trow, r12, -1)):
            left = {}
            _row_into(left, first, s13, 1, monos)
            _row_into(acc, _listed(left), last, sign, monos)
        out.append(_listed(acc))
    return _least(dr * ds * dt, out)


def _placed(prows, at):
    """The prows of the N^3 x N^3 factor that ``at``, one of ``_legs``,
    places the prows ``prows`` in; a Polynomial zero is left out, as
    ``poly_moved`` leaves it out."""
    return [[(cols[c], re, im, p) for c, re, im, p in prows[f] if re or im] for f, cols in at]


def _scaled_terms(t, s):
    return dict(t) if s == 1 else {m: v * s for m, v in t.items()}


def poly_combined(x, y, sign):
    """The polynomial int form of x + sign * y, over the lcm of their
    denominators.  An entry is a Polynomial when it is one in x or y."""
    (da, arows), (db, brows) = x, y
    d = lcm(da, db)
    sa, sb = d // da, sign * (d // db)
    out = []
    for arow, brow in zip(arows, brows):
        acc = {c: (_scaled_terms(re, sa), _scaled_terms(im, sa), p) for c, re, im, p in arow}
        for c, re, im, p in brow:
            have = acc.get(c)
            if have is None:
                acc[c] = (_scaled_terms(re, sb), _scaled_terms(im, sb), p)
                continue
            sre, sim, sp = have
            for t, u in ((sre, re), (sim, im)):
                for m, v in u.items():
                    t[m] = t.get(m, 0) + v * sb
            if p and not sp:
                acc[c] = (sre, sim, True)
        out.append(_listed(acc))
    return _least(d, out)


def poly_moved(x, size, places):
    """``moved`` for the polynomial int form, sharing the term dicts; a
    Polynomial zero is dropped, as ``moved`` drops a zero."""
    d, prows = x
    out = [[] for _ in range(size)]
    for r, prow in enumerate(prows):
        for c, re, im, p in prow:
            if re or im:
                for i, j in places(r, c):
                    out[i].append((j, re, im, p))
    return d, out


def poly_negated(x):
    """The polynomial int form of -x."""
    d, prows = x
    return d, [[(c, {m: -v for m, v in re.items()}, {m: -v for m, v in im.items()}, p)
                for c, re, im, p in prow] for prow in prows]
