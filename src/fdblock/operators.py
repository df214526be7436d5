"""Grid functions and stencil operators on the uniform periodic grid.

The grid on [0,1]^D has N = 2**n points per axis with width h = 1/N; the
endpoint x=1 is excluded (periodic wrap).  Grid values are vectorized
with the axis-0 coordinate fastest-varying, i.e. the flat index of the
point (j0*h, j1*h, ..., j_{D-1}*h) is

    j_{D-1} * N^(D-1) + ... + j_1 * N + j0 .

A :class:`Stencil` holds an operator as data, (axis, offset, coeff)
terms over a divisor.  Its ``apply`` evaluates it on grid values by
slices: each term is two slice products along its axis, stored into
place or added through one scratch array.  Its ``moves`` gives every
basis column A e_j at once as one value per move: a periodic stencil
moves every grid index by the same per-axis differences.  Neither
forms a matrix, and ``moves`` works on grids of up to 2**64 points.
The encoding builders declare their blocks as Stencils.  The dense
matrices that the tests compare them against live in the test suite's
oracles, written without stencils.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._frozen import Frozen, _index
from .errors import DegenerateInputError, ParameterError, ShapeError, SizeError
from .linalg import VECTOR_DIM_CAP, _norm2, as_vector, norm2

if TYPE_CHECKING:
    import numpy as np


class GridSpec(Frozen):
    """Uniform periodic grid: dim axes, n qubits (N = 2**n points) each."""

    __slots__ = _compared = ("dim", "n")

    def __init__(self, dim: int, n: int):
        dim = _index("dim", dim, ParameterError)
        if dim < 1:
            raise ParameterError("dim must be >= 1")
        n = _index("n", n, ParameterError)
        if n < 1:
            raise ParameterError("n must be >= 1")
        self._init(dim, n)

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


class GridFunction(Frozen):
    """Normalized samples of a scalar field plus the discarded 2-norm.

    ``values`` may be any finite 1-d sequence; it is kept as a complex128
    array (``linalg.as_vector``).
    """

    __slots__ = _compared = ("spec", "values", "raw_norm")

    def __init__(self, spec: GridSpec, values, raw_norm: float):
        values = as_vector(values)
        if values.size != spec.npoints:
            raise ShapeError(f"{values.size} values on a {spec.npoints}-point grid")
        if abs(_norm2(values) - 1.0) > 1e-12:
            raise DegenerateInputError("grid function values must have unit norm")
        self._init(spec, values, raw_norm)

    @classmethod
    def from_samples(cls, spec: GridSpec, raw: np.ndarray) -> "GridFunction":
        """Normalize raw samples to unit 2-norm, and keep the raw norm."""
        norm = norm2(raw)
        if norm == 0.0:
            raise DegenerateInputError("all samples are zero; cannot normalize")
        return cls(spec, raw / norm, norm)


def grid_axes(spec: GridSpec) -> list[np.ndarray]:
    """Coordinate arrays (x0, ..., x_{D-1}) broadcast over the grid tensor.

    The returned arrays have shape (N,)*dim with tensor axis a holding
    coordinate x_{dim-1-a}, matching the vectorization order.
    """
    import numpy as np

    pts = np.arange(spec.N) * spec.h
    mesh = np.meshgrid(*([pts] * spec.dim), indexing="ij")
    return [mesh[spec.dim - 1 - d] for d in range(spec.dim)]


def sample_grid(f, spec: GridSpec) -> np.ndarray:
    """Raw (unnormalized) samples of f on the grid, flattened."""
    import numpy as np

    if spec.npoints > VECTOR_DIM_CAP:
        raise SizeError(f"{spec.npoints} grid points exceed cap {VECTOR_DIM_CAP}")
    vals = np.asarray(f(*grid_axes(spec)), dtype=np.complex128)
    if vals.shape != (spec.N,) * spec.dim:
        raise ShapeError(f"field returned shape {vals.shape}")
    # != is True for a NaN imaginary part, where a comparison with > is not
    if np.any(vals.imag != 0.0):
        raise ParameterError("scalar fields must be real-valued")
    if not np.all(np.isfinite(vals.real)):
        raise ShapeError("field samples must be finite")
    return vals.reshape(-1)


def sample_function(f, spec: GridSpec) -> GridFunction:
    """Sample f, normalize to unit 2-norm, and keep the raw norm."""
    return GridFunction.from_samples(spec, sample_grid(f, spec))


class Stencil(Frozen):
    """Periodic stencil: sum of coeff * (shift by offset on axis), over divisor.

    Row i of the operator holds ``coeff / divisor`` at the grid point
    i + offset along ``axis`` (mod N) for each term (axis, offset,
    coeff), whose axis and offset are integers; terms landing on one
    point add up.  Both :meth:`apply` and :meth:`moves` add each axis's
    terms in declared order, then the axis sums in order of first
    appearance, and apply the divisor last, so their values are equal
    but for the sign of a zero.  No terms is the zero operator.
    """

    __slots__ = _compared = ("spec", "terms", "divisor")

    def __init__(
        self, spec: GridSpec, terms: tuple[tuple[int, int, float], ...] = (), divisor: float = 1.0
    ):
        for axis, offset, _ in terms:
            if not (isinstance(axis, int) and isinstance(offset, int)):
                raise ParameterError(f"axis {axis!r} and offset {offset!r} must be integers")
            if not 0 <= axis < spec.dim:
                raise ParameterError(f"axis {axis} out of range for dim {spec.dim}")
        if not (math.isfinite(divisor) and divisor != 0.0):
            raise ParameterError(f"divisor {divisor} must be finite and nonzero")
        self._init(spec, terms, divisor)

    def _by_axis(self) -> list[list[tuple[int, int, float]]]:
        """The terms grouped by axis, axes in order of their first term."""
        groups: dict[int, list] = {}
        for term in self.terms:
            groups.setdefault(term[0], []).append(term)
        return list(groups.values())

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The stencil applied to axis 0 of ``values``, by slices.

        Trailing axes of ``values`` are a batch of columns.  A term
        (axis, offset, coeff) is coeff times the values moved by -offset
        along its axis: with o = offset mod N, two slice products,
        out[:N-o] from v[o:] and out[N-o:] from v[:o].  The first term
        of each axis is stored, and each later one is added through one
        scratch array; the first axis sums straight into the result, each
        later one in an axis array that is then added.  So the sums are
        those of a zeroed accumulator, but for the sign of a zero.
        """
        import numpy as np

        spec = self.spec
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim == 0 or v.shape[0] != spec.npoints:
            raise ShapeError(f"expected {spec.npoints} values along axis 0, got shape {v.shape}")
        v = v.reshape((spec.N,) * spec.dim + v.shape[1:])
        groups = self._by_axis()
        out = np.empty_like(v) if groups else np.zeros_like(v)
        axis_sum = np.empty_like(v) if len(groups) > 1 else None
        scratch = np.empty_like(v) if len(self.terms) > len(groups) else None
        for g, terms in enumerate(groups):
            acc = axis_sum if g else out
            for t, (axis, offset, coeff) in enumerate(terms):
                _moved_product(v, spec.dim - 1 - axis, offset % spec.N, coeff, scratch if t else acc)
                if t:
                    acc += scratch
            if g:
                out += axis_sum
        # numpy divides complex values by a real scalar as a product with
        # its reciprocal; the product gives those bits without the division.
        out *= 1.0 / self.divisor
        return out.reshape((spec.npoints,) + out.shape[spec.dim :])

    def moves(self) -> dict[int, complex]:
        """Every column A e_j at once, keyed by its move.

        A move is the per-axis difference (row - column) mod N, packed
        the way a grid index is: A[j + move, j] = value for every grid
        index j, adding per axis mod N, and A is zero at every other
        move.  A term moves j by -offset along its axis, so the centre
        sits at move 0 and every other move is one (axis, -offset mod N).
        Pure Python ints.
        """
        spec = self.spec
        # Terms with equal (axis, move) add up in declared order, and
        # every move-0 term lands on j itself, where the axis sums add up
        # as in apply.
        sums: dict[tuple[int, int], float] = {}
        for axis, offset, coeff in self.terms:
            key = (axis, -offset % spec.N)
            sums[key] = sums.get(key, 0.0) + coeff
        centre = sum(sums.pop((terms[0][0], 0), 0.0) for terms in self._by_axis())
        scale = 1.0 / self.divisor
        moves = {0: complex(centre) * scale}
        for (axis, move), coeff in sums.items():
            moves[move << (axis * spec.n)] = complex(coeff) * scale
        return moves


def _moved_product(v, axis: int, o: int, coeff: float, out) -> None:
    """out = coeff * v moved by -o along a tensor axis, as two slice products.

    Entry i of the axis takes v[(i + o) mod N]: out[:N-o] from v[o:],
    and out[N-o:] from v[:o].
    """
    import numpy as np

    lead = (slice(None),) * axis
    N = v.shape[axis]
    np.multiply(v[(*lead, slice(o, None))], coeff, out=out[(*lead, slice(None, N - o))])
    if o:
        np.multiply(v[(*lead, slice(None, o))], coeff, out=out[(*lead, slice(N - o, None))])


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
