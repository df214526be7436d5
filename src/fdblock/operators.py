"""Classical reference operators on the uniform periodic grid.

The grid on [0,1]^D has N = 2**n points per axis with width h = 1/N; the
endpoint x=1 is excluded (periodic wrap).  Grid values are vectorized
with the axis-0 coordinate fastest-varying, i.e. the flat index of the
point (j0*h, j1*h, ..., j_{D-1}*h) is

    j_{D-1} * N^(D-1) + ... + j_1 * N + j0 .

Matrices are built dense and literal, and stay the independent
reference the tests compare against; nothing derives them from a
:class:`Stencil`.  A Stencil holds an operator as data, (axis, offset,
coeff) terms over a divisor.  Its ``apply`` evaluates it on grid values
by rolls, and its ``columns`` gives the sparse basis columns A e_j at any
grid indices; neither forms a matrix, and ``columns`` works on grids of
up to 2**64 points.  The encoding builders declare their blocks as
Stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import lazy_import
from .errors import DegenerateInputError, ParameterError, ShapeError, SizeError
from .linalg import MATRIX_DIM_CAP, VECTOR_DIM_CAP, kron, norm2

np = lazy_import("numpy")


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: dim axes, n qubits (N = 2**n points) each."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")
        if self.n < 1:
            raise ParameterError("n must be >= 1")

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def npoints(self) -> int:
        return self.N**self.dim

    @property
    def num_qubits(self) -> int:
        return self.n * self.dim


@dataclass(frozen=True)
class GridFunction:
    """Normalized samples of a scalar field plus the discarded 2-norm."""

    spec: GridSpec
    values: np.ndarray
    raw_norm: float

    def __post_init__(self):
        if self.values.size != self.spec.npoints:
            raise ShapeError(
                f"{self.values.size} values on a {self.spec.npoints}-point grid"
            )
        if abs(norm2(self.values) - 1.0) > 1e-12:
            raise DegenerateInputError("grid function values must have unit norm")

    @classmethod
    def from_samples(cls, spec: GridSpec, raw: np.ndarray) -> "GridFunction":
        """Normalize raw samples to unit 2-norm, and keep the raw norm."""
        norm = norm2(raw)
        if norm == 0.0:
            raise DegenerateInputError("all samples are zero; cannot normalize")
        return cls(spec, raw / norm, norm)


def lambda_max(dim: int, n: int) -> float:
    """Largest-magnitude eigenvalue 4*dim/h**2 of the discrete Laplacian."""
    h = 1.0 / (1 << n)
    return 4.0 * dim / h**2


def _circulant(n: int, stencil: dict[int, float]) -> np.ndarray:
    """N x N circulant; stencil maps offset -> coefficient, offsets mod N.

    Offsets are accumulated, so colliding entries (e.g. +1 and -1 at
    N = 2) sum, exactly as the wrapped stencil does.
    """
    N = 1 << n
    if N > MATRIX_DIM_CAP:
        raise SizeError(f"dimension {N} exceeds dense cap {MATRIX_DIM_CAP}")
    m = np.zeros((N, N), dtype=np.complex128)
    for off, coeff in stencil.items():
        for i in range(N):
            m[i, (i + off) % N] += coeff
    return m


def laplacian_1d(n: int) -> np.ndarray:
    """Second-difference operator: diagonal -2/h^2, neighbors (and wrap) 1/h^2."""
    h = 1.0 / (1 << n)
    return _circulant(n, {0: -2.0 / h**2, 1: 1.0 / h**2, -1: 1.0 / h**2})


def scaled_laplacian_1d(n: int) -> np.ndarray:
    """laplacian_1d divided by its largest eigenvalue magnitude 4/h^2."""
    return laplacian_1d(n) / lambda_max(1, n)


def laplacian_dd(dim: int, n: int) -> np.ndarray:
    """Tensor sum of 1-d Laplacians: sum_d I x .. x L x .. x I (axis d)."""
    N = 1 << n
    if N**dim > MATRIX_DIM_CAP:
        raise SizeError(f"dimension {N**dim} exceeds dense cap {MATRIX_DIM_CAP}")
    l1 = laplacian_1d(n)
    eye = np.eye(N, dtype=np.complex128)
    total = np.zeros((N**dim, N**dim), dtype=np.complex128)
    for d in range(dim):
        term = np.eye(1, dtype=np.complex128)
        for axis in range(dim - 1, -1, -1):  # most significant factor first
            term = kron(term, l1 if axis == d else eye)
        total += term
    return total


def scaled_laplacian_dd(dim: int, n: int) -> np.ndarray:
    """laplacian_dd divided by 4*dim/h^2; spectral norm 1."""
    return laplacian_dd(dim, n) / lambda_max(dim, n)


def central_difference_1d(n: int) -> np.ndarray:
    """Antisymmetric first-difference operator with entries +-1/(2h)."""
    h = 1.0 / (1 << n)
    return _circulant(n, {1: 1.0 / (2 * h), -1: -1.0 / (2 * h)})


def trapezoid_1d(n: int) -> np.ndarray:
    """Row-wise trapezoidal quadrature weights h/2 * (1, 2, 1)."""
    h = 1.0 / (1 << n)
    return _circulant(n, {0: h, 1: h / 2, -1: h / 2})


def banded_circulant(n: int, a0: float, a1: float, am1: float) -> np.ndarray:
    """Circulant with diagonal a0, superdiagonal am1, subdiagonal a1 (wrapped)."""
    return _circulant(n, {0: a0, 1: am1, -1: a1})


def first_order_tensorized(axis: int, dim: int, n: int) -> np.ndarray:
    """h*central_difference placed on one axis of a 2-d grid."""
    if dim != 2:
        raise ParameterError(f"only dim=2 is supported, got {dim}")
    if axis not in (0, 1):
        raise ParameterError(f"axis must be 0 or 1, got {axis}")
    N = 1 << n
    h = 1.0 / N
    d1 = h * central_difference_1d(n)
    eye = np.eye(N, dtype=np.complex128)
    return kron(eye, d1) if axis == 0 else kron(d1, eye)


def grid_axes(spec: GridSpec) -> list[np.ndarray]:
    """Coordinate arrays (x0, ..., x_{D-1}) broadcast over the grid tensor.

    The returned arrays have shape (N,)*dim with tensor axis a holding
    coordinate x_{dim-1-a}, matching the vectorization order.
    """
    pts = np.arange(spec.N) * spec.h
    mesh = np.meshgrid(*([pts] * spec.dim), indexing="ij")
    return [mesh[spec.dim - 1 - d] for d in range(spec.dim)]


def sample_grid(f, spec: GridSpec) -> np.ndarray:
    """Raw (unnormalized) samples of f on the grid, flattened."""
    if spec.npoints > VECTOR_DIM_CAP:
        raise SizeError(f"{spec.npoints} grid points exceed cap {VECTOR_DIM_CAP}")
    vals = np.asarray(f(*grid_axes(spec)), dtype=np.complex128)
    if vals.shape != (spec.N,) * spec.dim:
        raise ShapeError(f"field returned shape {vals.shape}")
    if np.max(np.abs(vals.imag)) > 0.0:
        raise ParameterError("scalar fields must be real-valued")
    if not np.all(np.isfinite(vals.real)):
        raise ShapeError("field samples must be finite")
    return vals.reshape(-1)


def sample_function(f, spec: GridSpec) -> GridFunction:
    """Sample f, normalize to unit 2-norm, and keep the raw norm."""
    return GridFunction.from_samples(spec, sample_grid(f, spec))


@dataclass(frozen=True)
class Stencil:
    """Periodic stencil: sum of coeff * (shift by offset on axis), over divisor.

    Row i of the operator holds ``coeff / divisor`` at the grid point
    i + offset along ``axis`` (mod N) for each term (axis, offset,
    coeff); terms landing on one point add up.  Both :meth:`apply` and
    :meth:`columns` add each axis's terms in declared order, then the
    axis sums in order of first appearance, and apply the divisor last,
    so their values agree bit for bit.  No terms is the zero operator.
    """

    spec: GridSpec
    terms: tuple[tuple[int, int, float], ...] = ()
    divisor: float = 1.0

    def __post_init__(self):
        for axis, _, _ in self.terms:
            if not 0 <= axis < self.spec.dim:
                raise ParameterError(f"axis {axis} out of range for dim {self.spec.dim}")
        if not (math.isfinite(self.divisor) and self.divisor != 0.0):
            raise ParameterError(f"divisor {self.divisor} must be finite and nonzero")

    def _by_axis(self) -> list[list[tuple[int, int, float]]]:
        """The terms grouped by axis, axes in order of their first term."""
        groups: dict[int, list] = {}
        for term in self.terms:
            groups.setdefault(term[0], []).append(term)
        return list(groups.values())
    def apply(self, values: np.ndarray) -> np.ndarray:
        """The stencil applied via rolls to axis 0 of ``values``.

        Trailing axes of ``values`` are a batch of columns.
        """
        spec = self.spec
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim == 0 or v.shape[0] != spec.npoints:
            raise ShapeError(f"expected {spec.npoints} values along axis 0, got shape {v.shape}")
        v = v.reshape((spec.N,) * spec.dim + v.shape[1:])
        out = np.zeros_like(v)
        for terms in self._by_axis():
            axis_sum = np.zeros_like(v)
            for axis, offset, coeff in terms:
                # np.roll copies even at offset 0
                axis_sum += coeff * (np.roll(v, -offset, spec.dim - 1 - axis) if offset else v)
            out += axis_sum
        # numpy divides complex values by a real scalar as a product with
        # its reciprocal; the product gives those bits without the division.
        out *= 1.0 / self.divisor
        return out.reshape((spec.npoints,) + out.shape[spec.dim :])

    def columns(self, js) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse columns A e_j for the uint64 grid indices ``js``.

        Returns (k, rows, values): entry e is A[rows[e], js[k[e]]], one
        entry per distinct row, and the first len(js) entries are the
        diagonal A[j, j], zero if no term lands there.  Costs O(terms)
        per column, on grids of up to 2**64 points.
        """
        spec = self.spec
        js = np.asarray(js, dtype=np.uint64).reshape(-1)
        # A term moves j's axis coordinate by -offset mod N, whatever j
        # is, so which terms collide is fixed: those with equal (axis,
        # move) add up in declared order, and every move-0 term lands on
        # j itself, where the axis sums add up as in apply.
        sums: dict[tuple[int, int], float] = {}
        for axis, offset, coeff in self.terms:
            key = (axis, -offset % spec.N)
            sums[key] = sums.get(key, 0.0) + coeff
        centre = sum(sums.pop((terms[0][0], 0), 0.0) for terms in self._by_axis())
        mask = np.uint64(spec.N - 1)
        rows = [js]
        for axis, move in sums:
            shift = np.uint64(axis * spec.n)
            coord = (js >> shift) & mask
            rows.append(js ^ ((coord ^ ((coord + np.uint64(move)) & mask)) << shift))
        values = np.array([centre, *sums.values()], dtype=np.complex128) * (1.0 / self.divisor)
        k = np.tile(np.arange(js.size), len(rows))
        return k, np.concatenate(rows), np.repeat(values, js.size)


def laplacian_stencil(spec: GridSpec) -> Stencil:
    """Second-difference stencil (1, -2, 1)/h^2 summed over the axes."""
    return _second_difference(spec, spec.h**2)


def scaled_laplacian_stencil(spec: GridSpec) -> Stencil:
    """laplacian_stencil divided by 4*dim/h^2, i.e. (1, -2, 1)/(4 dim)."""
    return _second_difference(spec, 4.0 * spec.dim)


def _second_difference(spec: GridSpec, divisor: float) -> Stencil:
    terms = ((-1, 1.0), (1, 1.0), (0, -2.0))
    return Stencil(spec, tuple((a, off, c) for a in range(spec.dim) for off, c in terms), divisor)


def first_order_stencil(spec: GridSpec, axis: int) -> Stencil:
    """Scaled central difference h*D = (-1, 0, +1)/2 along one axis."""
    return Stencil(spec, ((axis, 1, 1.0), (axis, -1, -1.0)), 2.0)
