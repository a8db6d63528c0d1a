"""The int form of a numeric matrix, and arithmetic on it in Python ints.

The int form of an n x n matrix of GaussianRationals is (d, zrows): each
of the n zrows lists (column, re, im) for the nonzero entries of its row,
where re + im*i is d times the entry, and d is the least positive integer
that makes every entry a Gaussian integer.  ``tensor.SquareMatrix`` keeps
the int form in its ``_zi`` slot and chooses when these functions run;
each of them returns an int form again.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .scalar import ZERO, GaussianRational, _reduced


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
