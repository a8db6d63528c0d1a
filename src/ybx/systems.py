"""Declarative Yang-Baxter systems and exact residual verification.

A system is data: a list of equations, each a commutator kind (const,
colour, family) and a triple of (role, transform-tag) pairs meaning
[f(role_a), g(role_b), h(role_c)] = 0.  New systems are declarable
without new code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import product

from .errors import (DimensionMismatch, MissingRole, NotInvertible,
                     RoleKindMismatch, UnknownName, UnsupportedTransform)
from .scalar import scalar_str
from .tensor import (ColourMatrix, SquareMatrix, _local_dim, transform, ybc_colour,
                     ybc_const)

WITNESS_CAP = 32


class MatrixFamily:
    """An N x N grid of colour-dependent matrices; entry (J, K) plays the
    role of the (J, K) member in family commutators."""

    def __init__(self, grid):
        self.N = len(grid)
        for row in grid:
            if len(row) != self.N:
                raise DimensionMismatch("family grid must be square")
        dims = {cm.dim for row in grid for cm in row}
        if len(dims) != 1:
            raise DimensionMismatch("family members must share one dimension")
        self.grid = [list(row) for row in grid]

    @property
    def dim(self):
        return self.grid[0][0].dim

    def member(self, J, K) -> ColourMatrix:
        return self.grid[J][K]

    def swap_conjugate(self) -> "MatrixFamily":
        """Family-level colour swap: member (J, K) becomes the colour-swap
        conjugate of member (K, J)."""
        return MatrixFamily([[self.grid[K][J].swap_conjugate()
                              for K in range(self.N)] for J in range(self.N)])


# kind -> (role type, commutator, label brackets)
_KINDS = {"const": (SquareMatrix, ybc_const, "[]"),
          "colour": (ColourMatrix, ybc_colour, "[[]]"),
          "family": (MatrixFamily, ybc_colour, "{[]}")}


@dataclass(frozen=True)
class Equation:
    kind: str                  # const | colour | family
    triple: tuple              # ((role, tag), (role, tag), (role, tag))

    @property
    def label(self):
        inner = ",".join(r if t == "id" else "%s^%s" % (r, t) for r, t in self.triple)
        brackets = _KINDS[self.kind][2]
        return brackets[:len(brackets) // 2] + inner + brackets[len(brackets) // 2:]


@dataclass(frozen=True)
class SystemDef:
    name: str
    roles: tuple
    equations: tuple

    def __post_init__(self):
        for eq in self.equations:
            if eq.kind not in _KINDS:
                raise UnknownName("unknown equation kind %r" % eq.kind)
            for role, tag in eq.triple:
                if role not in self.roles:
                    raise UnknownName("equation references undeclared role %r" % role)
                if tag == "dd" and eq.kind == "const":
                    raise UnsupportedTransform(
                        "colour-swap tag in a constant equation")


def _eqs(kind, *triples):
    out = []
    for tr in triples:
        out.append(Equation(kind, tuple(
            (item, "id") if isinstance(item, str) else tuple(item) for item in tr)))
    return tuple(out)


SYSTEMS = {
    "YBE": SystemDef("YBE", ("R",), _eqs("const", ("R", "R", "R"))),
    "QBG": SystemDef("QBG", ("Q", "R"), _eqs(
        "const", ("Q", "Q", "Q"), ("R", "R", "R"), ("Q", "R", "R"), ("R", "R", "Q"))),
    "QDOUBLE": SystemDef("QDOUBLE", ("W", "X", "Z"), _eqs(
        "const", ("W", "W", "W"), ("W", "X", "X"), ("X", "X", "Z"), ("Z", "Z", "Z"))),
    "REFLECTION": SystemDef("REFLECTION", ("A", "B", "C", "D"), _eqs(
        "const",
        ("A", "A", "A"), ("D", "D", "D"),
        ("A", "C", "C"), ("D", "B", "B"),
        ("A", ("B", "+"), ("B", "+")), ("D", ("C", "+"), ("C", "+")),
        ("A", "C", ("B", "+")), ("D", "B", ("C", "+")))),
    "SPECTRAL_REFLECTION": SystemDef("SPECTRAL_REFLECTION", ("A", "B", "C", "D"), _eqs(
        "colour",
        ("A", "A", "A"), ("D", "D", "D"),
        ("A", "C", "C"), ("D", "B", "B"),
        ("A", ("B", "dd"), ("B", "dd")), ("D", ("C", "dd"), ("C", "dd")),
        ("A", "C", ("B", "dd")), ("D", "B", ("C", "dd")))),
    "BRAIDED_FAMILY": SystemDef("BRAIDED_FAMILY", ("W", "X", "Y", "Z"), _eqs(
        "family",
        ("Z", "Z", "Z"), ("W", "W", "W"),
        ("Z", "X", "X"), ("X", "X", "W"),
        ("Z", ("Y", "dd"), ("Y", "dd")), (("Y", "dd"), ("Y", "dd"), "W"),
        ("Z", "X", ("Y", "dd")), (("Y", "dd"), "X", "W"))),
}


def system(name: str) -> SystemDef:
    try:
        return SYSTEMS[name.upper()]
    except KeyError:
        raise UnknownName("no system named %r" % name) from None


def _apply_tag(value, tag, role):
    if tag == "id":
        return value
    if isinstance(value, MatrixFamily):
        if tag == "dd":
            return value.swap_conjugate()
        raise UnsupportedTransform("tag %r is not defined on families" % tag)
    try:
        return transform(value, tag)
    except NotInvertible:
        raise NotInvertible("role %s: transform %s needs an inverse that does not exist"
                            % (role, tag)) from None


@dataclass
class EquationResidual:
    label: str
    zero: bool
    nonzero_count: int
    witnesses: list


@dataclass
class ResidualReport:
    system: str
    assignment: dict
    all_zero: bool = True      # declared before equations: the JSON key order
    equations: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)

    def to_text(self):
        return "\n".join(["system %s" % self.system] + report_lines(self.to_dict(), WITNESS_CAP)
                         + ["result: %s" % ("PASS" if self.all_zero else "FAIL")]) + "\n"


def report_lines(data: dict, cap: int) -> list:
    """The role lines of a report dict, then each nonzero equation with up
    to ``cap`` witness lines ``(row|col)[ J=(family)] = value``; a zero
    equation has no witnesses."""
    lines = ["  %s = %s" % item for item in data["assignment"].items()]
    for eq in data["equations"]:
        if not eq["zero"]:
            lines.append("  equation %(label)s: NONZERO (%(nonzero_count)d entries)" % eq)
        for w in eq["witnesses"][:cap]:
            where = "(%s|%s)" % (",".join(map(str, w["row"])), ",".join(map(str, w["col"])))
            if "family" in w:
                where += " J=(%s)" % ",".join(map(str, w["family"]))
            lines.append("    %s = %s" % (where, w["value"]))
    return lines


def _split_index(flat, N):
    return [flat // (N * N), (flat // N) % N, flat % N]


def _collect(residual: SquareMatrix, N, cap, family_index=None):
    nonzero = 0
    witnesses = []
    for i, row in enumerate(residual.rows):
        for j, x in enumerate(row):
            if x.is_zero():
                continue
            nonzero += 1
            if len(witnesses) < cap:
                w = {"row": _split_index(i, N), "col": _split_index(j, N),
                     "value": scalar_str(x)}
                if family_index is not None:
                    w["family"] = list(family_index)
                witnesses.append(w)
    return nonzero, witnesses


def residual(sysdef, assignment, provenance=None) -> ResidualReport:
    """Exact evaluation of every equation of a system.

    ``assignment`` maps role names to SquareMatrix (const), ColourMatrix
    (colour) or MatrixFamily (family) values.  ``provenance`` optionally
    supplies human-readable origins per role (catalog name + parameters,
    file path, ...) for the report; matrices are described literally
    otherwise.
    """
    if isinstance(sysdef, str):
        sysdef = system(sysdef)
    for role in sysdef.roles:
        if role not in assignment:
            raise MissingRole("role %r not assigned" % role)
    for eq in sysdef.equations:
        cls = _KINDS[eq.kind][0]
        for role, _ in eq.triple:
            if not isinstance(assignment[role], cls):
                raise RoleKindMismatch(
                    "role %s is used in %s equations and needs a %s, got a %s"
                    % (role, eq.kind, cls.__name__, type(assignment[role]).__name__))
    first = sysdef.roles[0]
    for role in sysdef.roles[1:]:
        if assignment[role].dim != assignment[first].dim:
            raise DimensionMismatch("role %s has dim %d, but role %s has dim %d"
                                    % (role, assignment[role].dim,
                                       first, assignment[first].dim))
    N = _local_dim(assignment[first], first)
    report = ResidualReport(sysdef.name,
                            {r: (provenance or {}).get(r) or
                                describe_matrix(assignment[r])
                             for r in sysdef.roles})
    cache = {}

    def tagged(role, tag):
        key = (role, tag)
        if key not in cache:
            cache[key] = _apply_tag(assignment[role], tag, role)
        return cache[key]

    for eq in sysdef.equations:
        ybc = _KINDS[eq.kind][1]
        A, B, C = (tagged(role, tag) for role, tag in eq.triple)
        if eq.kind == "family":
            count, wit = 0, []
            for J1, J2, J3 in product(range(A.N), repeat=3):
                res = ybc(A.member(J1, J2), B.member(J1, J3), C.member(J2, J3))
                c, w = _collect(res, N, WITNESS_CAP - len(wit),
                                family_index=(J1, J2, J3))
                count += c
                wit.extend(w)
        else:
            count, wit = _collect(ybc(A, B, C), N, WITNESS_CAP)
        eqres = EquationResidual(eq.label, count == 0, count, wit)
        report.equations.append(eqres)
        if count:
            report.all_zero = False
    return report


def verify(sysdef, assignment, provenance=None):
    """(all residuals exactly zero?, full report)."""
    rep = residual(sysdef, assignment, provenance=provenance)
    return rep.all_zero, rep


def describe_matrix(m) -> str:
    if isinstance(m, MatrixFamily):
        return "family[%dx%d of dim %d]" % (m.N, m.N, m.dim)
    if isinstance(m, ColourMatrix):
        return "colour matrix dim %d" % m.dim
    if isinstance(m, SquareMatrix):
        if m.dim <= 4:
            return "[" + "; ".join(", ".join(scalar_str(x) for x in row)
                                   for row in m.rows) + "]"
        return "matrix dim %d" % m.dim
    return repr(m)
