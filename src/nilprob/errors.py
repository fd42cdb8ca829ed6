"""Exception types shared across the package."""


class NilprobError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(NilprobError, ValueError):
    """Operands have incompatible dimensions or moduli."""


class ParamsMismatchError(NilprobError, ValueError):
    """Algebra or group elements belong to different parameter sets."""


class UsageError(NilprobError, ValueError):
    """The command line asks for something invalid (CLI exit code 2)."""


class CapExceededError(NilprobError, RuntimeError):
    """An exhaustive computation was refused because it exceeds its cap."""


class OrbitOverflowError(CapExceededError):
    """A conjugacy orbit grew past the configured cap."""


class CayleyTableError(NilprobError, ValueError):
    """Base class for Cayley-table validation failures."""


class CayleyParseError(CayleyTableError):
    """The table source is not well-formed text."""


class CayleyPermutationError(CayleyTableError):
    """Some row or column of the table is not a permutation."""


class CayleyIdentityError(CayleyTableError):
    """Index 0 is not a two-sided identity."""


class CayleyAssociativityError(CayleyTableError):
    """The table fails an associativity check."""


class DegenerateFormError(NilprobError, ValueError):
    """A probe required nondegeneracy the supplied form does not have."""


class ExpressionShapeError(NilprobError, ValueError):
    """A structured expression does not have the shape an operation requires."""
