"""Dense complex linear algebra for desk-scale state spaces.

All arrays are numpy ``complex128`` in row-major (C) order; every index
computation in the package derives from that layout.  Vectors may have up
to 2**16 entries, full matrices up to 2**12 rows/columns.  Values are
treated as immutable after construction: functions never modify their
arguments and return fresh arrays.
"""

from __future__ import annotations

from ._lazy import lazy_import
from .errors import ShapeError, SizeError

np = lazy_import("numpy")

# Dimension caps.  Full unitaries beyond MATRIX_DIM_CAP are never built;
# larger operators are handled through projected blocks or stencil
# application instead.
VECTOR_DIM_CAP = 1 << 16
MATRIX_DIM_CAP = 1 << 12


def as_vector(values) -> np.ndarray:
    """Validate and convert to a finite 1-d complex128 array."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"expected a nonempty 1-d vector, got shape {v.shape}")
    if v.size > VECTOR_DIM_CAP:
        raise SizeError(f"vector dimension {v.size} exceeds cap {VECTOR_DIM_CAP}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ShapeError("vector entries must be finite")
    return v


def as_matrix(values) -> np.ndarray:
    """Validate and convert to a finite 2-d complex128 array."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise ShapeError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    if max(m.shape) > MATRIX_DIM_CAP:
        raise SizeError(f"matrix dimension {max(m.shape)} exceeds cap {MATRIX_DIM_CAP}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ShapeError("matrix entries must be finite")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the dense-dimension cap enforced.

    kron(a, b)[i*p + k, j*q + l] == a[i, j] * b[k, l] for b of shape (p, q).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > MATRIX_DIM_CAP:
        raise SizeError(f"kron result {rows}x{cols} exceeds cap {MATRIX_DIM_CAP}")
    return np.kron(a, b)


def norm2(v: np.ndarray) -> float:
    """Euclidean norm."""
    return float(np.linalg.norm(as_vector(v)))


def is_unitary(u: np.ndarray, tol: float) -> bool:
    """True iff max |U^dag U - I| entry is at most tol."""
    return unitarity_residual(u) <= tol


def unitarity_residual(u: np.ndarray) -> float:
    """Max-entry deviation of U^dag U from the identity."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ShapeError(f"unitarity check needs a square matrix, got {u.shape}")
    gram = u.conj().T @ u
    return max_abs_diff(gram, np.eye(u.shape[0]))


def max_abs_diff(a, b) -> float:
    """Largest entrywise absolute deviation between two arrays."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0
