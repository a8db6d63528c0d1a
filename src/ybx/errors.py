"""Exception hierarchy shared by all ybx modules."""


class YbxError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(YbxError, ZeroDivisionError):
    """Exact division or inversion of a zero scalar."""


class DenominatorVanishes(YbxError):
    """A substitution sent the denominator of a rational function to zero."""


class ExprSyntaxError(YbxError):
    """Malformed input expression.

    Attributes: ``offset`` (byte position of the offending token) and
    ``expected`` (set of token descriptions that would have been legal).
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = frozenset(expected)


class NonIntegerExponent(ExprSyntaxError):
    """`^` was not followed by an (optionally negated) integer literal."""


class DimensionMismatch(YbxError):
    """Matrix dimensions incompatible with the requested operation."""


class NotInvertible(YbxError):
    """Inverse required but the determinant is zero (or not a unit)."""


class TooManyMinors(YbxError):
    """A symbolic det or inverse would expand more minors than
    ``tensor.MAX_MINORS``."""


class UnsupportedTransform(YbxError):
    """Transform tag not defined for this kind of matrix."""


class ZeroScale(YbxError):
    """A similarity scale factor must be nonzero."""


class UnknownName(YbxError):
    """Catalog or system name not found."""


class ConstraintViolated(YbxError):
    """Parameter assignment breaks an admissibility constraint.

    ``constraint`` carries the human-readable label of the violated one.
    """

    def __init__(self, name, constraint):
        super().__init__(f"{name}: constraint violated: {constraint}")
        self.entry = name
        self.constraint = constraint


class MissingRole(YbxError):
    """A system role was not supplied in the assignment."""


class RoleKindMismatch(YbxError):
    """A role was given a value of the wrong kind for the equations that
    use it (constant matrix, colour matrix or matrix family)."""


class SymbolicInput(YbxError):
    """Operation requires fully numeric entries; substitute parameters first."""


class InputNotQbgSolution(YbxError):
    """The (Q, R) pair fails the braided-group system precondition."""


def prefixed(exc, source):
    """``exc`` with ``source`` (the option, pin or file line whose text it
    is about) put before its message."""
    exc.args = ("%s: %s" % (source, exc),)
    return exc
