"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands do not have the shapes an operation requires."""


class UnsupportedDimensionError(ValueError):
    """A dimension exceeds the enumeration caps this package accepts."""


class InfeasiblePointError(ValueError):
    """The base point violates the constraint system."""


class SchemaError(ValueError):
    """A problem or report document does not match its schema."""


class NonFiniteError(ValueError):
    """An operator entry is infinite or NaN, as when a derivation overflows."""
