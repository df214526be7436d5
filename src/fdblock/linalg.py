"""Validation and norms of sampled grid vectors.

Vectors are numpy ``complex128`` arrays of up to 2**16 entries, the
size of a sampled grid function.  Functions never modify their
arguments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ShapeError, SizeError

if TYPE_CHECKING:
    import numpy as np

# Sampled grid functions hold at most this many points.
VECTOR_DIM_CAP = 1 << 16


def as_vector(values) -> np.ndarray:
    """Validate and convert to a finite 1-d complex128 array."""
    import numpy as np

    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"expected a nonempty 1-d vector, got shape {v.shape}")
    if v.size > VECTOR_DIM_CAP:
        raise SizeError(f"vector dimension {v.size} exceeds cap {VECTOR_DIM_CAP}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ShapeError("vector entries must be finite")
    return v


def norm2(v: np.ndarray) -> float:
    """Euclidean norm."""
    return _norm2(as_vector(v))


def _norm2(v: np.ndarray) -> float:
    """Euclidean norm of a vector that ``as_vector`` has already returned."""
    import numpy as np

    return float(np.linalg.norm(v))
