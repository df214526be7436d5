"""Exception types shared across the package."""


class FdblockError(Exception):
    """Base class for all package errors."""


class ShapeError(FdblockError, ValueError):
    """Operand shapes are inconsistent (non-square, mismatched dims, ...)."""


class SizeError(FdblockError, ValueError):
    """A dense object would exceed the configured dimension caps."""


class QubitIndexError(FdblockError, ValueError):
    """Qubit indices out of range, duplicated, or overlapping controls."""


class LayoutError(FdblockError, ValueError):
    """Two circuits to be combined have different widths."""


class ParameterError(FdblockError, ValueError):
    """A numeric parameter is outside its admissible domain."""


class DegenerateInputError(FdblockError, ValueError):
    """Input data is degenerate (e.g. all-zero samples cannot be normalized)."""
