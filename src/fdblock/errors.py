"""Exception types shared across the package."""


class FdblockError(Exception):
    """Base class for all package errors."""


class ShapeError(FdblockError, ValueError):
    """Operand shapes are inconsistent (non-square, mismatched dims, ...)."""


class SizeError(FdblockError, ValueError):
    """An input would exceed a size cap (qubits, grid points, sort-key bits)."""


class QubitIndexError(FdblockError, ValueError):
    """Qubit indices out of range, duplicated, or overlapping controls."""


class ParameterError(FdblockError, ValueError):
    """A numeric parameter is outside its admissible domain."""


class DegenerateInputError(FdblockError, ValueError):
    """Input data is degenerate (e.g. all-zero samples cannot be normalized)."""
