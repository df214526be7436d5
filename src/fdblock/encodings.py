"""Builders for the block-encoding circuits.

Every builder returns a :class:`BlockEncoding` whose ancilla wires are
the most significant qubits, so the encoded operator sits in the block
U[row*N : (row+1)*N, col*N : (col+1)*N] with row = col = 0 selecting the
all-zero ancilla state.

Every circuit has the linear-combination-of-unitaries form

    w_out . (sum_a |a><a| (x) P_a) . w_in,

where w_in and w_out act on the ancillas only and each P_a is the
identity or a cyclic shift S+ or S- of one grid axis register.
:func:`_shift_lcu` emits the selected shifts of every builder: for each
axis d it places S- and S+ on that axis register, controlled by d
written on the builder's selection wires plus one ancilla control per
direction.  It is the only code that puts shift cascades on grid
registers, and it checks the width against MAX_BUILD_QUBITS.

The cyclic shifts S+ and S- are cascades of multi-controlled X gates.
Controls of each cascade gate are stored innermost-last (least
significant cascade control appended last); builders prepend their own
selection controls, which keeps control tuples of consecutive cascade
gates prefix-nested.  The resource model exploits that nesting.

Each builder also declares the blocks it encodes, as (row, col,
:class:`~fdblock.operators.Stencil`) data, each block being alpha times
its stencil; verification and success probabilities read those
declarations.  :data:`OPS` names the builders for the command line and
states each one's fixed dimension; :func:`op_dims` and
:func:`build_encoding` are the only code that applies that rule.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import operators
from ._frozen import Frozen, _index
from .circuit import _RSQRT2, Circuit, Gate
from .errors import ParameterError, SizeError
from .operators import GridSpec, Stencil

Control = tuple[int, int]


class BlockEncoding(Frozen):
    """Circuit plus its declared (m, alpha) contract.

    The ancillas are the first m wires and the system register holds
    the rest, so ``system_dim`` N is derived from the circuit.
    ``blocks`` holds (row, col, stencil) triples: the block
    U[row*N:(row+1)*N, col*N:(col+1)*N] must equal alpha times the
    stencil, whose grid has the N system points.  Blocks not listed are
    unconstrained.  ``blocks`` takes no part in equality or repr.
    """

    __slots__ = ("circuit", "m", "alpha", "label", "blocks")
    _compared = __slots__[:4]

    def __init__(
        self,
        circuit: Circuit,
        m: int,
        alpha: float,
        label: str,
        blocks: tuple[tuple[int, int, Stencil], ...] = (),
    ):
        num_qubits = circuit.num_qubits
        m = _index("m", m, ParameterError)
        if not 0 <= m < num_qubits:
            raise ParameterError(f"m = {m} must lie in 0..{num_qubits - 1} to leave system qubits")
        if not abs(alpha) <= 1.0:  # a NaN alpha fails this too
            raise ParameterError(f"|alpha| = {abs(alpha)} is not at most 1")
        size, points = 1 << m, 1 << (num_qubits - m)
        for row, col, stencil in blocks:
            if not (0 <= row < size and 0 <= col < size):
                raise ParameterError(f"block ({row}, {col}) is outside the 2**m = {size} blocks")
            if stencil.spec.npoints != points:
                raise ParameterError(
                    f"block ({row}, {col}): its stencil's grid has {stencil.spec.npoints}"
                    f" points, the system register {points}"
                )
        self._init(circuit, m, alpha, label, blocks)

    @property
    def system_dim(self) -> int:
        return 1 << (self.circuit.num_qubits - self.m)


def alpha_d(dim: int) -> float:
    """Sub-normalization dim / 2**ceil(log2 dim); 1 when dim is a power of two."""
    return dim / (1 << ancilla_axis_qubits(dim))


def ancilla_axis_qubits(dim: int) -> int:
    """ceil(log2 dim): width of the axis-selection register."""
    dim = _index("dim", dim, ParameterError)
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    return (dim - 1).bit_length()


def _shift_gates(direction: int, n: int, offset: int, prefix: tuple[Control, ...]):
    """Cascade of multi-controlled X implementing |j> -> |j + direction mod 2**n>.

    Wires offset..offset+n-1 hold j big-endian.  The decrement flips the
    least significant wire first and ripples borrows upward; the
    increment runs the reverse cascade.  ``prefix`` controls are
    prepended to every gate, and the gate on wire t is controlled by the
    wires above it, so its controls are one slice of a single tuple.
    """
    lo, hi = offset, offset + n - 1
    targets = range(hi, lo - 1, -1) if direction < 0 else range(lo, hi + 1)
    controls = prefix + tuple((c, 1) for c in range(hi, lo, -1))
    return [Gate("X", t, controls[: len(prefix) + hi - t]) for t in targets]


# The widest circuit a builder assembles.  Verification has no qubit cap
# of its own: the cube simulator's entry budget is its only limit.  The
# fixed-dim ops and laplace at D <= 4 stay within it up to this width;
# laplace at D >= 5 passes it far below (circuit.MAX_CUBES says where),
# until ROADMAP item 8 verifies one ancilla-input group at a time.
MAX_BUILD_QUBITS = 64


def _shift_lcu(
    spec: GridSpec, m: int, w_in, select, minus: Control, plus: Control, w_out
) -> Circuit:
    """Circuit w_out . (selected shifts) . w_in on m ancillas and the grid.

    Axis register d sits at wire m + (D-1-d)*n.  Its S- carries the
    controls pattern(d) + (minus,) and its S+ pattern(d) + (plus,), where
    pattern(d) writes d big-endian on the ``select`` wires.  The width
    is checked against MAX_BUILD_QUBITS before any cascade is built.
    """
    num_qubits = m + spec.num_qubits
    if num_qubits > MAX_BUILD_QUBITS:
        raise SizeError(f"{num_qubits} qubits is beyond the supported range")
    n, width = spec.n, len(select)
    gates = list(w_in)
    for d in range(spec.dim):
        pattern = tuple((w, (d >> (width - 1 - b)) & 1) for b, w in enumerate(select))
        offset = m + (spec.dim - 1 - d) * n
        gates += _shift_gates(-1, n, offset, pattern + (minus,))
        gates += _shift_gates(+1, n, offset, pattern + (plus,))
    gates += w_out
    return Circuit(num_qubits, tuple(gates))


def encode_laplace_dd(dim: int, n: int) -> BlockEncoding:
    """Encoding of the scaled D-dim Laplacian; m = 2 + ceil(log2 D).

    Layout [k:dhat][l:2][j(D-1):n]...[j(0):n].  A uniform superposition
    over the axis register k selects which axis register is shifted;
    axis patterns k >= dim leave the grid registers untouched, which is
    what makes alpha = dim/2**dhat when dim is not a power of two.  For
    D = 1 the axis register is empty, giving the two-ancilla 1-d encoding
    [l:2][j:n] with alpha = 1, whose 16 blocks are all declared
    (:func:`_laplace_1d_blocks`).
    """
    spec = GridSpec(dim, n)
    dim, n = spec.dim, spec.n
    dhat = ancilla_axis_qubits(dim)
    m = 2 + dhat
    l0, l1 = dhat, dhat + 1
    axis = [Gate("H", k) for k in range(dhat)]
    w_in = axis + [Gate("H", l0), Gate("H", l1), Gate("Z", l0), Gate("Z", l1)]
    w_out = [Gate("H", l0), Gate("H", l1)] + axis
    circuit = _shift_lcu(spec, m, w_in, range(dhat), (l1, 0), (l0, 1), w_out)
    lap = operators.scaled_laplacian_stencil(spec)
    blocks = _laplace_1d_blocks(lap) if dim == 1 else ((0, 0, lap),)
    label = f"laplace_1d n={n}" if dim == 1 else f"laplace_dd D={dim} n={n}"
    return BlockEncoding(circuit, m, alpha_d(dim), label, blocks)


def _laplace_1d_blocks(lap: Stencil) -> tuple[tuple[int, int, Stencil], ...]:
    """The full 4 x 4 block grid of the 1-d Laplacian encoding.

    The diagonal blocks are lap, the circulant with diagonal -1/2 and
    neighbor entries 1/4; those with row + col = 3 are (1, 2, 1)/4 and
    the other eight are the halved central difference (-1, 0, +1)/4.
    """
    spec = lap.spec
    mean = Stencil(spec, ((0, -1, 1.0), (0, 0, 2.0), (0, 1, 1.0)), 4.0)
    diff = Stencil(spec, ((0, 1, 1.0), (0, -1, -1.0)), 4.0)
    return tuple(
        (r, c, lap if r == c else mean if r + c == 3 else diff) for r in range(4) for c in range(4)
    )


def _banded_circuit(spec: GridSpec, a0: float, a1: float, am1: float) -> Circuit:
    for name, val in (("a0", a0), ("a1", a1), ("am1", am1)):
        if not math.isfinite(val):
            raise ParameterError(f"{name} = {val} is not finite")
    if a0 <= 0.0:
        raise ParameterError("a0 must be positive")
    for name, val in (("a0-1", a0 - 1.0), ("a1", a1), ("am1", am1)):
        if abs(val) > 1.0:
            raise ParameterError(f"|{name}| = {abs(val)} > 1: arccos undefined")
    l0, l1, anc = 0, 1, 2
    w_in = [
        Gate("H", l0),
        Gate("H", l1),
        Gate("RY", anc, ((l0, 0), (l1, 0)), 2.0 * math.acos(a0 - 1.0)),
        Gate("RY", anc, ((l0, 1), (l1, 0)), 2.0 * math.acos(a1)),
        Gate("RY", anc, ((l0, 0), (l1, 1)), 2.0 * math.acos(am1)),
    ]
    return _shift_lcu(spec, 3, w_in, (), (l1, 1), (l0, 1), [Gate("H", l0), Gate("H", l1)])


def encode_banded_lcu(n: int, a0: float, a1: float, am1: float) -> BlockEncoding:
    """Rotation-based encoding of the banded circulant with row (a0, am1, .., a1).

    Layout [l:2][a:1][j:n]; m = 3.  The (0,0) block is A/4, so alpha is
    1/4 with the banded matrix itself as the target.
    """
    spec = GridSpec(1, n)
    circuit = _banded_circuit(spec, a0, a1, am1)
    label = f"banded_lcu n={n} a0={a0!r} a1={a1!r} am1={am1!r}"
    blocks = ((0, 0, Stencil(spec, ((0, 0, a0), (0, 1, am1), (0, -1, a1)))),)
    return BlockEncoding(circuit, 3, 0.25, label, blocks)


def encode_laplace_1d_lcu(n: int) -> BlockEncoding:
    """Banded-circulant instance encoding -1/4 times the scaled 1-d Laplacian.

    Coefficients (1/2, -1/4, -1/4) make A the negated scaled Laplacian,
    so the (0,0) block equals alpha = -1/4 times the scaled Laplacian.
    """
    spec = GridSpec(1, n)
    circuit = _banded_circuit(spec, 0.5, -0.25, -0.25)
    blocks = ((0, 0, operators.scaled_laplacian_stencil(spec)),)
    return BlockEncoding(circuit, 3, -0.25, f"laplace_1d_lcu n={n}", blocks)


# The first-order encodings difference through one ancilla l on wire 0:
# H then Z on it before the shifts and H after leave the central
# difference in its zero block.
_L_IN = (Gate("H", 0), Gate("Z", 0))
_L_OUT = (Gate("H", 0),)
_MINUS, _PLUS = (0, 0), (0, 1)


def _axis_derivatives(spec: GridSpec) -> tuple[Stencil, Stencil]:
    return operators.first_order_stencil(spec, 0), operators.first_order_stencil(spec, 1)


def encode_derivative_1d(n: int) -> BlockEncoding:
    """Single-ancilla encoding of the scaled central difference h*D.

    Layout [l:1][j:n]; m = 1, alpha = 1.
    """
    spec = GridSpec(1, n)
    circuit = _shift_lcu(spec, 1, _L_IN, (), _MINUS, _PLUS, _L_OUT)
    blocks = ((0, 0, operators.first_order_stencil(spec, 0)),)
    return BlockEncoding(circuit, 1, 1.0, f"derivative_1d n={n}", blocks)


def encode_gradient_2d(n: int) -> BlockEncoding:
    """Encoding stacking both axis derivatives in the first block column.

    Layout [l:1][k:1][j1:n][j0:n]; m = 2, alpha = 1/sqrt(2).  Block (0,0)
    is the axis-0 derivative, block (1,0) the axis-1 derivative, each
    times 1/sqrt(2).
    """
    spec = GridSpec(2, n)
    k = 1
    circuit = _shift_lcu(spec, 2, (Gate("H", k), *_L_IN), (k,), _MINUS, _PLUS, _L_OUT)
    d0, d1 = _axis_derivatives(spec)
    blocks = ((0, 0, d0), (1, 0, d1))
    return BlockEncoding(circuit, 2, _RSQRT2, f"gradient_2d n={n}", blocks)


def encode_divergence_2d(n: int) -> BlockEncoding:
    """Encoding placing both axis derivatives in the first block row.

    Same layout and contract as the gradient; the axis register is mixed
    after the shifts instead of before.
    """
    spec = GridSpec(2, n)
    k = 1
    circuit = _shift_lcu(spec, 2, _L_IN, (k,), _MINUS, _PLUS, (*_L_OUT, Gate("H", k)))
    d0, d1 = _axis_derivatives(spec)
    blocks = ((0, 0, d0), (0, 1, d1))
    return BlockEncoding(circuit, 2, _RSQRT2, f"divergence_2d n={n}", blocks)


def encode_wave_2d(n: int) -> BlockEncoding:
    """Encoding of the first-order wave operator on a 2-d grid.

    Layout [l:1][k0:1][k1:1][j1:n][j0:n]; m = 3, alpha = 1/sqrt(2).
    Components are indexed by (k0, k1) within the zero-l block grid:
    the pressure component 2 couples to the velocity components 0 and 1
    through the axis derivatives, the antidiagonal pattern

        block(0,2) = block(2,0) = axis-0 derivative / sqrt(2)
        block(1,2) = block(2,1) = axis-1 derivative / sqrt(2)

    with blocks (0,0), (0,1), (1,0), (1,1), (2,2) all zero.  k1 selects
    the shifted axis; a Hadamard on k1 fans the pressure component out
    over both axes on the way in (k0 = 1) and collects the velocity
    components on the way out (k0 = 0).  The closing X on k0 swaps the
    velocity and pressure halves so that input and output components are
    indexed identically.
    """
    spec = GridSpec(2, n)
    k0, k1 = 1, 2
    w_in = (Gate("H", k1, ((k0, 1),)), *_L_IN)
    w_out = (*_L_OUT, Gate("H", k1, ((k0, 0),)), Gate("X", k0))
    circuit = _shift_lcu(spec, 3, w_in, (k1,), _MINUS, _PLUS, w_out)
    d0, d1 = _axis_derivatives(spec)
    blocks = ((0, 2, d0), (2, 0, d0), (1, 2, d1), (2, 1, d1))
    blocks += tuple((r, c, Stencil(spec)) for r, c in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2)))
    return BlockEncoding(circuit, 3, _RSQRT2, f"wave_2d n={n}", blocks)


class OpSpec(NamedTuple):
    """Command-line operator: build(dim, n) and its fixed dim (None: any dim)."""

    build: Callable[[int, int], BlockEncoding]
    dim: int | None


# The lambdas look the builders up when called, so a wrapper installed on
# this module's attribute (a profiler's, say) sees every build.
OPS = {
    "laplace": OpSpec(lambda dim, n: encode_laplace_dd(dim, n), None),
    "derivative": OpSpec(lambda dim, n: encode_derivative_1d(n), 1),
    "gradient": OpSpec(lambda dim, n: encode_gradient_2d(n), 2),
    "divergence": OpSpec(lambda dim, n: encode_divergence_2d(n), 2),
    "wave": OpSpec(lambda dim, n: encode_wave_2d(n), 2),
    "lcu": OpSpec(lambda dim, n: encode_laplace_1d_lcu(n), 1),
}


def op_dims(op: str, dims) -> list[int]:
    """Dimension list for an op; fixed-dim ops default to their dimension."""
    if op not in OPS:
        raise ParameterError(f"unknown op {op!r}")
    fixed = OPS[op].dim
    if fixed is None:
        return [1] if dims in (None, []) else list(dims)
    if dims not in (None, []) and list(dims) != [fixed]:
        raise ParameterError(f"op {op!r} is fixed at dim {fixed}")
    return [fixed]


def build_encoding(op: str, dim: int, n: int) -> BlockEncoding:
    """Construct the named encoding; dim must match fixed-dimension ops."""
    (dim,) = op_dims(op, [dim])
    return OPS[op].build(dim, n)
