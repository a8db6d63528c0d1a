"""Named parameterized 4x4 matrices with admissibility constraints.

Each entry stores its parameter list, entry expressions, constraints
(polynomial equalities and nonzero requirements), a witness point that
satisfies everything, and a sampler for random admissible points.
Entries marked ``ybe`` are constant Yang-Baxter solutions; the four
``*spec`` entries are colour-dependent (functions of the ordered colour
pair ``tensor.COLOURS`` = (u, v)).

Branch conditions are encoded as single polynomial equalities, e.g. the
two diagonal branches of W as (t - q)*(q*t + 1) = 0 and the conditional
corner of Z21 as delta*(b^2 + 1) = 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exprparse, zform
from .errors import ConstraintViolated, DivisionByZero, ExprSyntaxError, UnknownName, prefixed
from .scalar import (GaussianRational, as_scalar, lowest, substitute, var_id)
from .tensor import COLOURS, ColourMatrix, SquareMatrix, _zmatrix

# Stable registration order: governs monomial ordering and printing.
_VARIABLE_ORDER = ("q", "s", "t", "a", "b", "c", "d", "x", "y", "z",
                   "p", "r", "k", "eps", "delta", "u", "v", "u1", "u2", "u3")
for _name in _VARIABLE_ORDER:
    var_id(_name)


@dataclass(frozen=True)
class ConstraintSet:
    """Polynomial equalities (must vanish) and inequations (must not) of
    the catalog entry named ``entry``."""

    entry: str
    equalities: tuple = ()    # (label, expr) pairs; expr must evaluate to zero
    inequations: tuple = ()   # (label, expr) pairs; expr must stay nonzero

    @cached_property
    def _parsed(self):
        """(equalities, inequations) with each expression parsed, on first use."""
        return tuple([(label, exprparse.parse_scalar(expr)) for label, expr in pairs]
                     for pairs in (self.equalities, self.inequations))

    def check(self, assignment):
        """Raise ConstraintViolated for any constraint decidable under
        ``assignment``; symbolic (undecidable) constraints are deferred."""
        equalities, inequations = self._parsed
        for label, expr in equalities:
            val = substitute(expr, assignment)
            if isinstance(val, GaussianRational) and not val.is_zero():
                raise ConstraintViolated(self.entry, label)
        for label, expr in inequations:
            val = substitute(expr, assignment)
            if isinstance(val, GaussianRational) and val.is_zero():
                raise ConstraintViolated(self.entry, label)

    def describe(self):
        return [label for label, _ in self.equalities] + \
               [label for label, _ in self.inequations]


@dataclass(frozen=True)
class NamedMatrix:
    name: str
    params: tuple
    entries: tuple                 # rows of expression strings
    constraints: ConstraintSet
    colour: bool = False           # a function of the colour pair COLOURS
    witness: tuple = ()            # (param, expr) pairs
    ybe: bool = False              # constant Yang-Baxter solution
    note: str = ""
    sampling: tuple = ()           # (param, (expr, ...)) pairs: drawn from the exprs

    @property
    def var_names(self):
        """Parameters, then the colour pair for colour entries."""
        return list(self.params) + (list(COLOURS) if self.colour else [])

    @cached_property
    def cells(self):
        """The entry expressions as scalars, parsed on first use."""
        return [[exprparse.parse_scalar(cell) for cell in row] for row in self.entries]

    @cached_property
    def cells_zp(self):
        """The polynomial int form of ``cells``, made on first use."""
        return zform.poly_of_rows(self.cells)

    @cached_property
    def witness_point(self):
        """The witness as {param: scalar}, parsed on first use."""
        return {p: exprparse.parse_scalar(e) for p, e in self.witness}

    @cached_property
    def sampling_choices(self):
        """The sampling rules as {param: [scalar, ...]}, parsed on first use."""
        return {p: [exprparse.parse_scalar(e) for e in exprs] for p, exprs in self.sampling}


_CATALOG: dict[str, NamedMatrix] = {}


def _entry(name, params, rows, eqs=(), neqs=(), colour=False, witness=(),
           ybe=False, note="", sampling=()):
    _CATALOG[name] = NamedMatrix(
        name=name,
        params=tuple(params),
        entries=tuple(tuple(str(c) for c in row) for row in rows),
        constraints=ConstraintSet(name, tuple(eqs), tuple(neqs)),
        colour=colour,
        witness=tuple(witness),
        ybe=ybe,
        note=note,
        sampling=tuple(sampling),
    )


# -- constant Yang-Baxter solutions -----------------------------------------

_entry("P", [], [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
       ybe=True, note="permutation (flip) matrix")

_entry("I", [], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
       ybe=True, note="unit matrix; universal middle factor for double triples")

_entry("W", ["q", "s", "t"],
       [["q", 0, 0, 0], [0, "s^-1", 0, 0], [0, "q - q^-1", "s", 0], [0, 0, 0, "t"]],
       eqs=[("t = q or t = -q^-1", "(t - q)*(q*t + 1)")],
       neqs=[("q != 0", "q"), ("s != 0", "s"), ("q^2 != 1", "q^2 - 1")],
       witness=[("q", "2"), ("s", "3"), ("t", "2")],
       ybe=True,
       note="one-parameter deformed flip; diagonal branch t=q (standard) or t=-q^-1 (nonstandard)",
       sampling=[("t", ("q", "-q^-1"))])

_entry("Rex1", [], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]],
       ybe=True, note="exceptional solution: rank-one corner added to a signed identity")

_entry("Rex2", ["t"], [[0, 0, 0, 1], [0, 0, "t", 0], [0, "t", 0, 0], [1, 0, 0, 0]],
       neqs=[("t != 0", "t")], witness=[("t", "2")],
       ybe=True, note="exceptional anti-diagonal solution")

_entry("Rex3", ["x", "y", "z"],
       [[1, 0, 0, 0], ["x", 1, 0, 0], ["y", 0, 1, 0], ["z", "y", "x", 1]],
       witness=[("x", "1"), ("y", "2"), ("z", "3")],
       ybe=True, note="exceptional lower-triangular unipotent solution")

_entry("Rdiag", ["a", "b", "c", "d"],
       [["a", 0, 0, 0], [0, "b", 0, 0], [0, 0, "c", 0], [0, 0, 0, "d"]],
       neqs=[("a != 0", "a"), ("b != 0", "b"), ("c != 0", "c"), ("d != 0", "d")],
       witness=[("a", "1"), ("b", "2"), ("c", "3"), ("d", "5")],
       ybe=True, note="exceptional diagonal family (any invertible diagonal solves)")

# -- middle factors X paired with W ------------------------------------------

_entry("X1", ["a", "b", "c", "d"],
       [["a", 0, 0, 0], ["c", "a", 0, 0], [0, 0, "b", 0], [0, 0, "d", "b"]],
       neqs=[("a != 0", "a"), ("b != 0", "b")],
       witness=[("a", "1"), ("b", "2"), ("c", "1"), ("d", "1")],
       note="block lower-triangular middle factor; solves the middle equation for any q, s")

_entry("X2", ["q", "s", "t", "a", "b"],
       [["q", 0, 0, 0], [0, "s^-1", 0, 0], [0, "a", "b", 0], [0, 0, 0, "b/s*t"]],
       eqs=[("t = q or t = -q^-1", "(t - q)*(q*t + 1)")],
       neqs=[("q != 0", "q"), ("s != 0", "s"), ("b != 0", "b")],
       witness=[("q", "2"), ("s", "3"), ("t", "2"), ("a", "1"), ("b", "2")],
       note="W-shaped middle factor sharing q, s, t with its companion",
       sampling=[("t", ("q", "-q^-1"))])

_entry("X3", ["a", "b", "c", "d"],
       [["a", 0, 0, 0], [0, "b", 0, 0], [0, 0, "c", 0], [0, 0, 0, "d"]],
       neqs=[("a != 0", "a"), ("b != 0", "b"), ("c != 0", "c"), ("d != 0", "d")],
       witness=[("a", "1"), ("b", "2"), ("c", "3"), ("d", "5")],
       ybe=True, note="diagonal middle factor; b=a branch frees one tensor leg")

_entry("X4", ["q", "s", "t", "a", "b", "c"],
       [["q", 0, 0, "c"], [0, "s^-1", 0, 0], [0, "a", "b", 0], [0, 0, 0, "b/s*t"]],
       eqs=[("s^2 = 1", "s^2 - 1"), ("t = q or t = -q^-1", "(t - q)*(q*t + 1)")],
       neqs=[("q != 0", "q"), ("b != 0", "b")],
       witness=[("q", "2"), ("s", "1"), ("t", "2"), ("a", "1"), ("b", "2"), ("c", "3")],
       note="X2 with an extra corner; admissible only at s^2=1; "
            "the Z41 companion branch needs q^2 = b^2 = -1",
       sampling=[("s", ("1", "-1")), ("t", ("q", "-q^-1"))])

_entry("X5", ["a", "b", "c"],
       [["a", 0, 0, "b"], [0, "-a", "b", 0], [0, 0, "c", 0], [0, 0, 0, "c"]],
       neqs=[("a != 0", "a"), ("c != 0", "c")],
       witness=[("a", "2"), ("b", "3"), ("c", "5")],
       note="upper-triangular middle factor for the companion at q=i, s=-i; k=c/a "
            "links it to the Z5* family")

_entry("X6", ["a", "b", "c"],
       [[0, 0, "i*a", 0], ["2*i*a*b/c", 0, 0, "a"], ["i*b", 0, 0, "c"], [0, "b", 0, 0]],
       neqs=[("a != 0", "a"), ("b != 0", "b"), ("c != 0", "c")],
       witness=[("a", "1"), ("b", "1"), ("c", "1")],
       note="middle factor for the companion at q=i, s=1; entries kept exactly as sourced "
            "(verified: the middle equation holds symbolically in a, b, c)")

# -- Z families paired with each X -------------------------------------------

_entry("Z10", ["x", "y", "z"],
       [[1, 0, 0, 0], ["x", 1, 0, 0], ["y", 0, 1, 0], ["z", "y", "x", 1]],
       witness=[("x", "1"), ("y", "2"), ("z", "3")],
       ybe=True, note="unipotent partner for X1 (same shape as Rex3)")

_entry("Z11", ["x", "y"],
       [[1, 0, 0, 0], ["x", 1, 0, 0], ["-x", 0, 1, 0], ["-x*y", "-y", "y", 1]],
       witness=[("x", "1"), ("y", "2")],
       ybe=True, note="second unipotent partner for X1")

_entry("Z20", ["q", "b", "t"],
       [["q", 0, 0, 0], [0, "b^-1", 0, 0], [0, "q - q^-1", "b", 0], [0, 0, 0, "t"]],
       eqs=[("t = q or t = -q^-1", "(t - q)*(q*t + 1)")],
       neqs=[("q != 0", "q"), ("b != 0", "b"), ("q^2 != 1", "q^2 - 1")],
       witness=[("q", "2"), ("b", "3"), ("t", "2")],
       ybe=True,
       note="W-shaped partner for X2; q, t and b are shared with the companion X2",
       sampling=[("t", ("q", "-q^-1"))])

_entry("Z21", ["q", "r", "b", "delta"],
       [["q", 0, 0, "delta"], [0, "r", 0, 0],
        [0, "q - r*b*q^-1", "b", 0], [0, 0, 0, "-r*b*q^-1"]],
       eqs=[("q^2 = -1", "q^2 + 1"), ("delta = 0 unless b^2 = -1", "delta*(b^2 + 1)")],
       neqs=[("r != 0", "r"), ("b != 0", "b")],
       witness=[("q", "i"), ("r", "2"), ("b", "3"), ("delta", "0")],
       ybe=True,
       note="extra partner for X2 at q^2=-1 (b shared with X2); the delta != 0 corner "
            "additionally requires the companion s^2 = -1 (exact residual computation)",
       sampling=[("q", ("i", "-i")), ("delta", ("0",))])

_entry("Z30", ["p", "r", "x", "y"],
       [["p", 0, 0, 0], [0, "r", 0, 0], [0, 0, "x", 0], [0, 0, 0, "y"]],
       neqs=[("p != 0", "p"), ("r != 0", "r"), ("x != 0", "x"), ("y != 0", "y")],
       witness=[("p", "1"), ("r", "2"), ("x", "3"), ("y", "5")],
       ybe=True, note="diagonal partner for X3")

_entry("Z31", ["p", "r"],
       [["p", 0, 0, 0], [0, "r^-1", 0, 0], [0, "p - p^-1", "r", 0], [0, 0, 0, "p"]],
       neqs=[("p != 0", "p"), ("r != 0", "r")],
       witness=[("p", "2"), ("r", "3")],
       ybe=True, note="six-vertex partner for X3, standard diagonal branch")

_entry("Z32", ["p", "r"],
       [["p", 0, 0, 0], [0, "r^-1", 0, 0], [0, "p - p^-1", "r", 0], [0, 0, 0, "-p^-1"]],
       neqs=[("p != 0", "p"), ("r != 0", "r")],
       witness=[("p", "2"), ("r", "3")],
       ybe=True, note="six-vertex partner for X3, nonstandard diagonal branch")

_entry("Z8V", ["x", "y", "eps"],
       [["x", 0, 0, "y"], [0, "eps*x", "y", 0], [0, "y", "eps*x", 0], ["y", 0, 0, "x"]],
       eqs=[("eps^2 = 1", "eps^2 - 1")],
       neqs=[("x != 0", "x"), ("y != 0", "y")],
       witness=[("x", "1"), ("y", "2"), ("eps", "1")],
       ybe=True,
       note="eight-vertex solutions beyond the generic lists; partner for X3 with "
            "a degenerate-signed diagonal",
       sampling=[("eps", ("1", "-1"))])

_entry("Z41", ["p", "a", "b", "c"],
       [["p", 0, 0, "-a*c/2*(p + p^-1)"], [0, "b*p^-1", 0, 0],
        [0, "p - p^-1", "b*p", 0], [0, 0, 0, "-p^-1"]],
       eqs=[("b^2 = 1", "b^2 - 1")],
       neqs=[("p != 0", "p"), ("a != 0", "a"), ("c != 0", "c")],
       witness=[("p", "2"), ("a", "1"), ("b", "1"), ("c", "1")],
       ybe=True,
       note="extra partner for X4; corner sign and the unit marks b are fixed here by "
            "exact nullspace computation (the source display is garbled); the companion "
            "X4 has q^2 = -1 and its own corner unit i*b, i.e. squares to -1; a, c shared",
       sampling=[("b", ("1", "-1"))])

_entry("Z51", ["eps"],
       [[1, 0, 0, 1], [0, "eps", 1, 0], [0, 1, "-eps", 0], [-1, 0, 0, 1]],
       eqs=[("eps^2 = 1", "eps^2 - 1")],
       witness=[("eps", "-1")],
       ybe=True,
       note="partner for X5; the direct pairing with the cataloged X5 needs eps=-1 "
            "(eps=+1 pairs with the transposed triple)",
       sampling=[("eps", ("1", "-1"))])

_entry("Z52", ["k"],
       [["k - k^-1 + 2", 0, 0, "k - k^-1"], [0, "k + k^-1", "k - k^-1", 0],
        [0, "k - k^-1", "k + k^-1", 0], ["k - k^-1", 0, 0, "k - k^-1 - 2"]],
       neqs=[("k != 0", "k")],
       witness=[("k", "2")],
       ybe=True, note="eight-vertex-shaped partner for X5 with k = c/a of the companion")

_entry("Z53", ["k", "eps"],
       [["k", 0, 0, 0], [0, "eps*k", 0, 0], [0, "k - 1", 1, 0],
        ["eps*(k - 1)", 0, 0, -1]],
       eqs=[("eps^2 = 1", "eps^2 - 1")],
       neqs=[("k != 0", "k")],
       witness=[("k", "2"), ("eps", "1")],
       ybe=True,
       note="partner for X5 with k = c/a; only eps=+1 yields a Yang-Baxter solution "
            "for free k (the eps=-1 branch fails the cubic equation; exact computation)",
       sampling=[("eps", ("1",))])

_entry("Z54", ["k"],
       [["k", 0, 0, 0], [0, 1, 0, 0], [0, "k - k^-1", 1, 0], [0, 0, 0, "-k^-1"]],
       neqs=[("k != 0", "k")],
       witness=[("k", "2")],
       ybe=True, note="six-vertex partner for X5 with k = c/a of the companion")

# -- colour-dependent block for the spectral reflection system ---------------

_entry("Aspec", [],
       [["u - v + 1", 0, 0, 0], [0, "u - v", 1, 0], [0, 1, "u - v", 0],
        [0, 0, 0, "u - v + 1"]],
       colour=True,
       note="difference-form solution: (u-v) times the unit plus the flip")

_entry("Bspec", [],
       [["u", 0, 0, 0], [0, "u", 1, 0], [0, 0, "u", 0], [0, 0, 0, "u"]],
       colour=True,
       note="first-colour shift plus an upper corner; colour-swap conjugate of Cspec")

_entry("Cspec", [],
       [["v", 0, 0, 0], [0, "v", 0, 0], [0, 1, "v", 0], [0, 0, 0, "v"]],
       colour=True,
       note="second-colour shift plus a lower corner; colour-swap conjugate of Bspec")

_entry("Dspec", [],
       [["u - v + 1", 0, 0, 0], [0, "u - v", "v/u", 0], [0, "u/v", "u - v", 0],
        [0, 0, 0, "u - v + 1"]],
       colour=True,
       note="(u-v) times the unit plus the colour-weighted flip; reconstructed by exact "
            "solving (the source display of this matrix is garbled), "
            "all eight block equations vanish identically")


# ---------------------------------------------------------------------------
# operations

def names():
    return list(_CATALOG)


def get(name: str) -> NamedMatrix:
    entry = _CATALOG.get(name)
    if entry is None:
        raise UnknownName("no catalog entry named %r" % name)
    return entry


def ybe_names():
    """Entries that are constant Yang-Baxter solutions."""
    return [n for n, e in _CATALOG.items() if e.ybe]


def _resolve_assignment(entry: NamedMatrix, assignment):
    """Normalize {param: value} where values may be ints, Fractions,
    scalars or expression strings; expression values are resolved against
    the parameters already processed (in declaration order), so W can be
    instantiated with t="q" after q."""
    resolved = {}
    extra = set(assignment) - set(entry.params)
    if extra:
        raise ConstraintViolated(entry.name, "unknown parameters: %s" % sorted(extra))
    for p in entry.params:
        if p not in assignment:
            continue
        val = assignment[p]
        if isinstance(val, str):
            try:
                val = exprparse.parse_scalar(val)
            except (ExprSyntaxError, DivisionByZero) as exc:
                raise prefixed(exc, "pin %s" % p)
        else:
            val = as_scalar(val)
        if resolved and type(val) is not GaussianRational:
            val = lowest(substitute(val, resolved))
        resolved[p] = val
    return resolved


def instantiate(name: str, assignment=None):
    """Evaluate a catalog entry at a (possibly partial) parameter point.

    Unassigned parameters stay symbolic.  Constraints that become numeric
    under the assignment are enforced; symbolic ones are deferred.
    Returns a SquareMatrix, or a ColourMatrix for colour entries.
    """
    entry = get(name)
    resolved = _resolve_assignment(entry, assignment or {})
    entry.constraints.check(resolved)
    return matrix_at(entry, resolved)


def matrix_at(entry: NamedMatrix, point):
    """The matrix of ``entry`` at ``point``, which must already be resolved
    and checked, as ``sample_assignment`` returns it.  At a numeric point
    it is the int form of ``zform.evaluate``; otherwise each cell is
    substituted, and unassigned parameters stay symbolic."""
    zi = None
    if entry.cells_zp is not None:
        zi = zform.evaluate(entry.cells_zp, {var_id(p): v for p, v in point.items()
                                             if type(v) is GaussianRational})
    if zi is not None:
        M = _zmatrix(zi)
    else:
        M = SquareMatrix([[substitute(cell, point) for cell in row] for row in entry.cells])
    if entry.colour:
        return ColourMatrix(M)
    return M


def witness(name: str):
    """The stored admissible witness point of an entry."""
    return dict(get(name).witness_point)


def sample_assignment(name: str, rng: random.Random, pins=None):
    """A random admissible parameter point (small nonzero rationals).

    ``pins`` maps parameters to fixed values or expression strings; pinned
    expressions may refer to parameters sampled earlier in declaration
    order (e.g. t="q").  Each point is resolved like an ``instantiate``
    assignment and rejected when that divides by zero or breaks a
    constraint.  When no point is admissible, the error names an unknown
    pin, a zero divisor or a constraint the pins alone break, if any.
    """
    entry = get(name)
    pins = pins or {}
    rules = entry.sampling_choices
    for _ in range(200):
        raw = dict(pins)
        for p in entry.params:
            if p in pins:
                continue
            if p in rules:
                raw[p] = rng.choice(rules[p])
            else:
                num = rng.choice([n for n in range(-5, 6) if n])
                raw[p] = Fraction(num, rng.choice([1, 1, 1, 2, 3]))
        try:
            assignment = _resolve_assignment(entry, raw)
            entry.constraints.check(assignment)
        except (ConstraintViolated, DivisionByZero):    # as t = -q^-1 at q = 0
            continue
        return assignment
    entry.constraints.check(_resolve_assignment(entry, pins))
    raise ConstraintViolated(name, "could not sample an admissible point")


def list_catalog():
    """Deterministic (name, params, constraint labels, note) listing."""
    out = []
    for name, e in _CATALOG.items():
        out.append({
            "name": name,
            "params": list(e.params),
            "constraints": e.constraints.describe(),
            "colour": list(COLOURS) if e.colour else None,
            "ybe": e.ybe,
            "note": e.note,
        })
    return out
