"""Independent oracles used by the test suite.

The dense operator matrices and gate networks here are deliberately
written without the package's stencils or simulator, so that an
agreement check is a real cross-check and not a tautology.

``apply`` is the dense statevector simulator that the package's cube
simulator (``circuit.apply_cubes``) is checked against bit for bit:
both evaluate H and RY on a pair of amplitudes with the same
expressions in the same order, ``_mix`` here on numpy arrays and
``circuit._mix_pair`` on Python complex numbers.  It runs on a copy of
its input, and each column costs gates * 2**q amplitude updates.
``unitary`` and ``extract_block`` run it on basis columns, to give
tests a circuit's matrix or one of its blocks.

``verify_sparse`` is the second route to ``analysis.verify_pattern``'s
report: it runs the basis columns in panels of numpy sparse entries
(``apply_sparse``, which evaluates H and RY with ``_mix``) and compares
them with the stencils' sparse columns (``stencil_columns``) through
one sorted segment sum (``max_sparse_gap``).  Its floats equal the
cube route's bit for bit.  It runs every column, so it stops at
EXHAUSTIVE_QUBITS.  Both helpers sort entries on the pair (column,
index), so a panel may hold any column ids at any width up to 64
qubits.  Past EXHAUSTIVE_QUBITS, up to the 64-qubit build cap, the
second route is a sample:
``sample_columns`` picks the grid edges of every axis with every
ancilla input, plus seeded random columns, and ``column_mismatches``
runs them through ``apply_sparse`` as one panel and compares each
column, amplitude for amplitude, with the cube entries of
``circuit.apply_cubes`` that cover it.

``BUILDS`` lists the (op, dim) pairs that the suite checks: every op of
``encodings.OPS``, laplace at D = 1..4.  ``widest_builds`` gives each
its widest n under a qubit cap (and a grid-point cap), so that the
exhaustive-cap and build-cap cases of the tests and of CI follow the
builders and the caps without a list of sizes.  ``builds_up_to`` yields
every (op, dim, n) build within such caps, n from 1 up: the one corpus
that the per-build tests loop over, so that a pair added to BUILDS is
checked everywhere.  ``build`` makes a build's encoding, also for the
``BANDED_BUILDS`` coefficient sets of ``encode_banded_lcu``.

``dense_blocks`` states each build's m, alpha and declared blocks once,
as dense operator matrices, with alpha computed here and not read from
the package; the suite holds the circuit's extracted blocks and
verify's deviations to it.

``lowered_round_trip_gap`` is the second route to every ``resources``
row: it proves a lowered circuit equal to its source, with the ladder
returned to 0, by a round trip on cubes, at every width the builders
reach.  ``closed_form_p_success`` and ``closed_form_e_max`` are the
second route to every sweep number.

``rolled_stencil_apply`` is ``Stencil.apply`` with ``np.roll`` into
zeroed sums.  The package's slice products must equal it element for
element (``==``: a stored first term can differ from 0 + term only in
the sign of a zero), and their magnitudes byte for byte.

``unplanned_success_probability`` is the circuit route of
``analysis.success_probability`` as one loop: a fresh cube run and
each entry's views.  The route's kept plan, first writers and scratch
array must give its bits.

Each second route is compared in one parametrized table, so a new
build, dim or circuit is a new row there, not an edit across tests:

- blocks: ``test_analysis.TABLE`` in
  ``test_round_trip_deviations_equal_extract_block_route``, against
  ``dense_blocks`` and ``extract_block``;
- verify reports: ``test_analysis.VERIFY_ROWS`` in
  ``test_verify_report_equals_the_sparse_oracle``, against
  ``verify_sparse``, with each row's PASS or FAIL;
- the circuit route of ``success_probability``:
  ``test_analysis.ROUTE_ROWS`` in ``test_circuit_route_table``, against
  ``unplanned_success_probability``, the matrix route and ``apply``;
- the column simulators, ``apply_sparse`` and ``circuit.apply_cubes``:
  ``test_circuit``'s builder table over ``builds_up_to(10)`` and its
  random table over ``RANDOM_SEEDS``, against ``apply`` and
  ``dense_circuit_unitary``.
"""

import functools
import math
import random

import numpy as np

import fdblock.circuit as circuit_mod
from fdblock.analysis import VerificationReport, _move_gap, _views
from fdblock.circuit import Circuit, adjoint, apply_cubes, basis_cubes
from fdblock.encodings import OPS, build_encoding, encode_banded_lcu
from fdblock.errors import ParameterError, ShapeError, SizeError
from fdblock.resources import lower_to_toffoli

# verify_sparse's cap: it runs every one of the 2**q columns.
EXHAUSTIVE_QUBITS = 18

# Every op at each dim it takes: a fixed-dim op at its dim, laplace at D = 1..4.
BUILDS = tuple(
    (op, dim) for op, spec in OPS.items() for dim in ((spec.dim,) if spec.dim else (1, 2, 3, 4))
)


@functools.cache
def widest_builds(max_qubits, max_points=None):
    """(op, dim, n) for each of BUILDS, with the largest n that fits the caps.

    A build fits when it has at most max_qubits wires and, if max_points
    is given, at most that many grid points.  Each candidate n is built,
    so a builder's own width check (MAX_BUILD_QUBITS) ends the search too.
    """
    widest = []
    for op, dim in BUILDS:
        n = 0
        while True:
            try:
                enc = build_encoding(op, dim, n + 1)
            except SizeError:
                break
            if enc.circuit.num_qubits > max_qubits:
                break
            if max_points is not None and enc.system_dim > max_points:
                break
            n += 1
        widest.append((op, dim, n))
    return tuple(widest)


def builds_up_to(max_qubits, max_points=None):
    """Every (op, dim, n) build of BUILDS within the caps, n from 1 up to its widest_builds n."""
    for op, dim, n_max in widest_builds(max_qubits, max_points):
        for n in range(1, n_max + 1):
            yield op, dim, n


# encode_banded_lcu's inputs besides the lcu op's, as builds of the
# "banded_lcu" pseudo-op: (op, dim, n, (a0, a1, am1)).
BANDED_BUILDS = tuple(
    ("banded_lcu", 1, n, coefficients)
    for n, coefficients in (
        (2, (1.0, 0.0, 0.0)),
        (2, (0.8, -0.3, 0.45)),
        (3, (0.8, -0.3, 0.45)),
        (2, (0.7, 0.2, -0.6)),
        (7, (0.65, -0.4, 0.15)),
    )
)


def build(op, dim, n, coefficients=()):
    """A build's encoding: an op of OPS, or "banded_lcu" with its (a0, a1, am1)."""
    if op == "banded_lcu":
        return encode_banded_lcu(n, *coefficients)
    return build_encoding(op, dim, n)


def _mix(g, lo, hi, out0, out1, tmp) -> None:
    """Write H or RY gate g's image of the amplitude pairs (lo, hi).

    ``circuit._mix_pair`` is its twin on one pair of Python numbers,
    with the same expressions in the same order, and both read
    ``circuit._RSQRT2`` when they run.  out0 gets the target-bit-0
    half and out1 the target-bit-1 half; out1 may be hi, but out0 and
    tmp, a scratch array that only RY uses, must overlap neither input.
    """
    if g.kind == "H":
        r = circuit_mod._RSQRT2
        np.multiply(np.add(lo, hi, out=out0), r, out=out0)
        np.multiply(np.subtract(lo, hi, out=out1), r, out=out1)
    else:  # RY: out0 <- c*lo - s*hi, out1 <- s*lo + c*hi
        c = math.cos(g.theta / 2.0)
        s = math.sin(g.theta / 2.0)
        np.subtract(np.multiply(c, lo, out=out0), np.multiply(s, hi, out=tmp), out=out0)
        np.add(np.multiply(s, lo, out=tmp), np.multiply(c, hi, out=out1), out=out1)


def apply(circuit, states):
    """Return U_c times states, a (2**n,) vector or a (2**n, k) array of columns.

    The gates run on a C-order complex128 copy, so ``states`` is left
    unchanged; the result has its shape.  The copy is viewed with one
    axis per wire and a trailing column axis, which keeps each gate's
    half-slices v0 and v1 (its target bit 0 and 1, under its controls)
    views even when the controls fix every other wire.  H and RY combine
    a copy of v0 with v1 in :func:`_mix`.
    """
    out = np.array(states, dtype=np.complex128, order="C")
    psi = out.reshape((2,) * circuit.num_qubits + (-1,))
    for g in circuit.gates:
        sel0 = [slice(None)] * psi.ndim
        for q, pol in g.controls:
            sel0[q] = int(pol)  # numpy reads a bool index as a mask
        sel1 = list(sel0)
        sel0[g.target] = 0
        sel1[g.target] = 1
        v0, v1 = psi[tuple(sel0)], psi[tuple(sel1)]
        if g.kind == "Z":
            np.negative(v1, out=v1)
            continue
        a = v0.copy()
        if g.kind == "X":
            np.copyto(v0, v1)
            np.copyto(v1, a)
        else:
            _mix(g, a, v1, v0, v1, np.empty_like(a) if g.kind == "RY" else None)
    return out


def max_abs_diff(a, b) -> float:
    """Largest entrywise absolute deviation between two arrays."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def unitarity_residual(u) -> float:
    """Max-entry deviation of U^dag U from the identity."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ShapeError(f"unitarity check needs a square matrix, got {u.shape}")
    return max_abs_diff(u.conj().T @ u, np.eye(u.shape[0]))


def unitary(circuit):
    """Full matrix of the circuit: the gates run on the identity's columns."""
    return apply(circuit, np.eye(circuit.dim))


def extract_block(enc, row, col):
    """Block U[row*N:(row+1)*N, col*N:(col+1)*N] of an encoding.

    Only the N basis columns |col>|j> run through the circuit.
    """
    N = enc.system_dim
    columns = np.zeros((enc.circuit.dim, N), dtype=complex)
    columns[col * N + np.arange(N), np.arange(N)] = 1.0
    return apply(enc.circuit, columns)[row * N : (row + 1) * N]


def lambda_max(dim, n):
    """Largest-magnitude eigenvalue 4*dim/h**2 of the discrete Laplacian."""
    h = 1.0 / (1 << n)
    return 4.0 * dim / h**2


def _circulant(n, stencil):
    """N x N circulant; stencil maps offset -> coefficient, offsets mod N.

    Offsets are accumulated, so colliding entries (e.g. +1 and -1 at
    N = 2) sum, exactly as the wrapped stencil does.
    """
    N = 1 << n
    rows = np.arange(N)
    m = np.zeros((N, N), dtype=complex)
    for off, coeff in stencil.items():
        m[rows, (rows + off) % N] += coeff
    return m


def laplacian_1d(n):
    """Second-difference operator: diagonal -2/h^2, neighbors (and wrap) 1/h^2."""
    h = 1.0 / (1 << n)
    return _circulant(n, {0: -2.0 / h**2, 1: 1.0 / h**2, -1: 1.0 / h**2})


def scaled_laplacian_1d(n):
    """laplacian_1d divided by its largest eigenvalue magnitude 4/h^2."""
    return laplacian_1d(n) / lambda_max(1, n)


def laplacian_dd(dim, n):
    """Tensor sum of 1-d Laplacians: sum_d I x .. x L x .. x I (axis d)."""
    N = 1 << n
    l1 = laplacian_1d(n)
    eye = np.eye(N, dtype=complex)
    total = np.zeros((N**dim, N**dim), dtype=complex)
    for d in range(dim):
        term = np.eye(1, dtype=complex)
        for axis in range(dim - 1, -1, -1):  # most significant factor first
            term = np.kron(term, l1 if axis == d else eye)
        total += term
    return total


def scaled_laplacian_dd(dim, n):
    """laplacian_dd divided by 4*dim/h^2; spectral norm 1."""
    return laplacian_dd(dim, n) / lambda_max(dim, n)


def central_difference_1d(n):
    """Antisymmetric first-difference operator with entries +-1/(2h)."""
    h = 1.0 / (1 << n)
    return _circulant(n, {1: 1.0 / (2 * h), -1: -1.0 / (2 * h)})


def trapezoid_1d(n):
    """Row-wise trapezoidal quadrature weights h/2 * (1, 2, 1)."""
    h = 1.0 / (1 << n)
    return _circulant(n, {0: h, 1: h / 2, -1: h / 2})


def banded_circulant(n, a0, a1, am1):
    """Circulant with diagonal a0, superdiagonal am1, subdiagonal a1 (wrapped)."""
    return _circulant(n, {0: a0, 1: am1, -1: a1})


def first_order_tensorized(axis, dim, n):
    """h*central_difference placed on one axis of a 2-d grid."""
    if dim != 2:
        raise ParameterError(f"only dim=2 is supported, got {dim}")
    if axis not in (0, 1):
        raise ParameterError(f"axis must be 0 or 1, got {axis}")
    N = 1 << n
    h = 1.0 / N
    d1 = h * central_difference_1d(n)
    eye = np.eye(N, dtype=complex)
    return np.kron(eye, d1) if axis == 0 else np.kron(d1, eye)


def dense_blocks(op, dim, n, coefficients=()):
    """(m, alpha, {(row, col): matrix}): a build's ancillas, alpha and declared blocks.

    The blocks are alpha times the dense operators above, each at its
    (row, col) of the 2**m x 2**m grid of N x N blocks.  laplace has
    m = 2 + ceil(log2 D) and alpha = D / 2**ceil(log2 D), and at D = 1
    declares its full 4 x 4 grid: the scaled Laplacian on the diagonal,
    the trapezoid weights /(2h) where row + col = 3, and the central
    difference times h/2 elsewhere.  lcu is the banded instance with
    A = -(scaled Laplacian), and banded_lcu encodes A/4.  The
    first-order ops place h times the central difference on axis 0 and
    axis 1 in their pattern, wave's five other blocks zero.
    """
    h = 1.0 / (1 << n)
    if op == "laplace":
        dhat = (dim - 1).bit_length()
        alpha = dim / (1 << dhat)
        if dim > 1:
            return 2 + dhat, alpha, {(0, 0): alpha * scaled_laplacian_dd(dim, n)}
        lap = scaled_laplacian_1d(n)
        mean = trapezoid_1d(n) / (2.0 * h)
        diff = (h / 2.0) * central_difference_1d(n)
        return 2, alpha, {
            (r, c): lap if r == c else mean if r + c == 3 else diff for r in range(4) for c in range(4)
        }
    if op == "lcu":
        return 3, -0.25, {(0, 0): -0.25 * scaled_laplacian_1d(n)}
    if op == "banded_lcu":
        return 3, 0.25, {(0, 0): 0.25 * banded_circulant(n, *coefficients)}
    if op == "derivative":
        return 1, 1.0, {(0, 0): h * central_difference_1d(n)}
    alpha = 1.0 / math.sqrt(2.0)
    d0, d1 = (alpha * first_order_tensorized(axis, dim, n) for axis in (0, 1))
    if op == "gradient":
        return 2, alpha, {(0, 0): d0, (1, 0): d1}
    if op == "divergence":
        return 2, alpha, {(0, 0): d0, (0, 1): d1}
    if op == "wave":
        zero = np.zeros_like(d0)
        blocks = {(0, 2): d0, (2, 0): d0, (1, 2): d1, (2, 1): d1}
        blocks.update({rc: zero for rc in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))})
        return 3, alpha, blocks
    raise ParameterError(f"no dense blocks for op {op!r}")


def brute_force_tensor_sum(dim, n):
    """Nested-loop dense Laplacian on the periodic product grid.

    The stencil couples multi-indices differing by +-1 mod N on exactly
    one axis with 1/h^2 and carries -2*dim/h^2 on the diagonal.
    """
    N = 1 << n
    h = 1.0 / N
    size = N**dim
    out = np.zeros((size, size), dtype=complex)

    def index(coords):
        total = 0
        for d in range(dim - 1, -1, -1):
            total = total * N + coords[d]
        return total

    def coords_of(i):
        coords = []
        for _ in range(dim):
            coords.append(i % N)
            i //= N
        return coords  # coords[d] is the axis-d index; axis 0 fastest

    for col in range(size):
        coords = coords_of(col)
        out[col, col] += -2.0 * dim / h**2
        for d in range(dim):
            for step in (-1, 1):
                nb = list(coords)
                nb[d] = (nb[d] + step) % N
                out[index(nb), col] += 1.0 / h**2
    return out


def dense_toffoli_network():
    """Standard 7-T Toffoli network as explicit 8x8 matrices.

    Returns (product, t_gates, clifford_gates) where product is the
    ordered matrix product of the network on qubits (a, b, t) = (0, 1, 2)
    with qubit 0 the most significant.
    """
    eye = np.eye(2)
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    tgate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    tdg = tgate.conj().T

    def on(q, m):
        ops = [eye, eye, eye]
        ops[q] = m
        return np.kron(np.kron(ops[0], ops[1]), ops[2])

    def cx(c, t):
        u = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            bits = [(i >> (2 - k)) & 1 for k in range(3)]
            if bits[c]:
                bits[t] ^= 1
            u[bits[0] * 4 + bits[1] * 2 + bits[2], i] = 1.0
        return u

    a, b, t = 0, 1, 2
    seq = [
        ("H", on(t, had)),
        ("CX", cx(b, t)),
        ("Tdg", on(t, tdg)),
        ("CX", cx(a, t)),
        ("T", on(t, tgate)),
        ("CX", cx(b, t)),
        ("Tdg", on(t, tdg)),
        ("CX", cx(a, t)),
        ("T", on(b, tgate)),
        ("T", on(t, tgate)),
        ("H", on(t, had)),
        ("CX", cx(a, b)),
        ("T", on(a, tgate)),
        ("Tdg", on(b, tdg)),
        ("CX", cx(a, b)),
    ]
    product = np.eye(8, dtype=complex)
    for _, mat in seq:
        product = mat @ product
    t_count = sum(1 for name, _ in seq if name in ("T", "Tdg"))
    clifford_count = sum(1 for name, _ in seq if name in ("H", "CX"))
    return product, t_count, clifford_count


def charge_lowered_circuit(lowered):
    """(t, clifford, rotations) of a lowered circuit, one Gate at a time.

    The per-gate charges of the resources module docstring, applied to
    the materialised ``lower_to_toffoli`` output rather than to the
    ladder walk's steps.
    """
    t = clifford = rot = 0
    for g in lowered.gates:
        k = len(g.controls)
        open_penalty = 2 * sum(1 for _, pol in g.controls if pol == 0)
        if g.kind == "X":
            if k <= 1:
                clifford += 1 + (open_penalty if k else 0)
            else:
                t += 7
                clifford += 8 + open_penalty
        elif g.kind == "Z":
            clifford += 1 + open_penalty
        elif g.kind == "H":
            if k == 0:
                clifford += 1
            else:
                rot += 2
                clifford += 1 + open_penalty
        elif k == 0:  # RY
            rot += 1
        else:  # controlled RY
            rot += 2
            clifford += 2 + open_penalty
    return t, clifford, rot


def lowered_round_trip_gap(circuit, lowered=None):
    """(gap, L): how far the lowered circuit is from its source, and its ladder width.

    ``lowered`` defaults to ``lower_to_toffoli(circuit)``; a test passes
    a mutant.  Its L ladder wires (the trailing wires num_qubits ...
    num_qubits + L - 1) move to the front and the source's wires up by
    L, so the ladder is the top L bits of every index.  The columns with
    the ladder at 0 run forward through the lowered circuit and back
    through the widened source's adjoint.  U_low |x, 0> = (U |x>) |0>
    for every x exactly when that round trip is the identity on them:
    block (0, 0) above the source's k bits, compared with
    ``analysis._move_gap`` as one k-bit field.  A ladder left dirty
    sends amplitude out of the block, so the identity's move is not
    covered there and counts in full.
    """
    if lowered is None:
        lowered = lower_to_toffoli(circuit)
    k = circuit.num_qubits
    L = lowered.num_qubits - k

    def wire(q):
        return q + L if q < k else q - k

    def widened(c):
        gates = tuple(
            g._replace(target=wire(g.target), controls=tuple((wire(q), p) for q, p in g.controls))
            for g in c.gates
        )
        return Circuit(k + L, gates)

    low = widened(lowered)
    ladder = ((1 << L) - 1) << k
    cubes = [(care | ladder, val, xor, amp) for care, val, xor, amp in basis_cubes(low)]
    back = apply_cubes(adjoint(widened(circuit)), apply_cubes(low, cubes))
    return _move_gap(back, {0: 1.0}, k, k), L


def closed_form_p_success(alpha, k, h):
    """A sweep row's p_success in closed form: alpha**2 sin(pi k h)**4.

    Every probe prod_d trig(2 pi k x_d) is an eigenvector of the
    periodic second difference along each axis, with eigenvalue
    -4 sin(pi k h)**2 / h**2.  The scaled Laplacian divides the sum of
    the D axes by 4 D / h**2, so the unit probe goes to -sin(pi k h)**2
    times itself, and alpha times that has squared norm as above.
    """
    return alpha**2 * math.sin(math.pi * k * h) ** 4


def closed_form_e_max(dim, k, h, samples):
    """A sweep row's e_max in closed form, from the probe's raw samples.

    The discrete Laplacian maps the probe to -4 D sin(pi k h)**2 / h**2
    times itself and the exact one to -D (2 pi k)**2 times itself, so
    the largest error is D |(2 pi k)**2 - 4 sin(pi k h)**2 / h**2| times
    the largest sample.
    """
    gap = (2.0 * math.pi * k) ** 2 - 4.0 * math.sin(math.pi * k * h) ** 2 / h**2
    return dim * abs(gap) * float(np.max(np.abs(samples)))


def trapezoid_l2_norm(f, dim, oversample_points):
    """L2([0,1]^dim) norm by trapezoidal quadrature on a fine grid.

    For a periodic integrand the trapezoid rule over full periods needs
    no endpoint correction.  Grids are built per axis and combined with
    meshgrid, so this stays independent of the package's vectorization.
    """
    pts = np.arange(oversample_points) / oversample_points
    mesh = np.meshgrid(*([pts] * dim), indexing="ij")
    vals = np.asarray(f(*mesh), dtype=float)
    return float(np.sqrt(np.sum(vals**2) / oversample_points**dim))


def separable_trapezoid_l2_norm(factors, oversample_points):
    """L2 norm of a product of per-axis factors, one 1-d quadrature each."""
    total = 1.0
    pts = np.arange(oversample_points) / oversample_points
    for f in factors:
        vals = np.asarray(f(pts), dtype=float)
        total *= np.sum(vals**2) / oversample_points
    return float(np.sqrt(total))


def dense_controlled_gate(kind, target, controls, theta, num_qubits):
    """Controlled-gate matrix by explicit basis-state loops.

    Column i gets the single-qubit action on the target bit iff every
    control bit of i matches its polarity, else the identity.  Built
    with integer bit arithmetic only, independently of any tensor
    reshaping.
    """
    mats = {
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    }
    if kind == "RY":
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        m1 = np.array([[c, -s], [s, c]], dtype=complex)
    else:
        m1 = mats[kind]
    dim = 1 << num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bit = lambda q: (i >> (num_qubits - 1 - q)) & 1
        if all(bit(q) == pol for q, pol in controls):
            t = bit(target)
            for new_t in (0, 1):
                j = (i & ~(1 << (num_qubits - 1 - target))) | (
                    new_t << (num_qubits - 1 - target)
                )
                out[j, i] += m1[new_t, t]
        else:
            out[i, i] = 1.0
    return out


def dense_circuit_unitary(gates, num_qubits):
    """Ordered product of dense_controlled_gate matrices."""
    total = np.eye(1 << num_qubits, dtype=complex)
    for g in gates:
        total = (
            dense_controlled_gate(g.kind, g.target, g.controls, g.theta, num_qubits)
            @ total
        )
    return total


def apply_sparse(circuit, cols, idx, amp):
    """Apply the circuit to a panel of columns held as sparse entries.

    Entry e is amplitude ``amp[e]`` on basis state ``idx[e]`` (uint64)
    of column ``cols[e]`` (non-negative int64).  A column's absent basis
    states are zero, and no (column, index) pair may appear twice.
    X permutes indices and Z negates amplitudes.  H and RY pair each
    entry with its partner across the target bit, a missing partner
    counting as zero, and evaluate the pair with :func:`_mix`, as the
    dense simulator does, so every column is bit-identical to
    :func:`apply` on it.  Exact zeros are dropped and nothing else
    is, so the cost follows the columns' support (at most 4**m entries
    for a basis column of an LCU circuit of m ancillas).

    Returns new (cols, idx, amp) arrays; entries come in no fixed order.
    """
    nq = circuit.num_qubits
    cols = np.array(cols, dtype=np.int64)
    idx = np.array(idx, dtype=np.uint64)
    amp = np.array(amp, dtype=np.complex128)
    if not cols.shape == idx.shape == amp.shape or cols.ndim != 1:
        raise ShapeError(f"entry arrays differ in shape: {cols.shape}, {idx.shape}, {amp.shape}")
    if idx.size and (int(idx.max()) >> nq or cols.min() < 0):
        raise ShapeError(f"entries must have column ids >= 0 and indices below 2**{nq}")
    for g in circuit.gates:
        bit = np.uint64(1 << (nq - 1 - g.target))
        mask = value = 0
        for q, pol in g.controls:
            mask |= 1 << (nq - 1 - q)
            value |= pol << (nq - 1 - q)
        mask, value = np.uint64(mask), np.uint64(value)
        if g.kind == "X":
            idx = idx ^ (((idx & mask) == value) * bit)
            continue
        if g.kind == "Z":
            amp = np.where((idx & (mask | bit)) == (value | bit), -amp, amp)
            continue
        sel = (idx & mask) == value
        rest = ~sel
        c, i, a = cols[sel], idx[sel], amp[sel]
        cleared = i & ~bit
        order = np.lexsort((cleared, c))
        c, i, a, cleared = c[order], i[order], a[order], cleared[order]
        first = np.ones(c.size, dtype=bool)
        first[1:] = (cleared[1:] != cleared[:-1]) | (c[1:] != c[:-1])
        pair = np.cumsum(first) - 1
        high = (i & bit) != 0
        lo = np.zeros(int(first.sum()), dtype=np.complex128)
        hi = np.zeros_like(lo)
        lo[pair[~high]] = a[~high]
        hi[pair[high]] = a[high]
        new0 = np.empty_like(lo)
        _mix(g, lo, hi, new0, hi, np.empty_like(lo) if g.kind == "RY" else None)
        c, cleared = c[first], cleared[first]
        cols = np.concatenate((cols[rest], c, c))
        idx = np.concatenate((idx[rest], cleared, cleared | bit))
        amp = np.concatenate((amp[rest], new0, hi))
        keep = amp != 0
        cols, idx, amp = cols[keep], idx[keep], amp[keep]
    return cols, idx, amp


def stencil_columns(stencil, js):
    """Sparse columns A e_j of a Stencil for the uint64 grid indices ``js``.

    Returns (k, rows, values): entry e is A[rows[e], js[k[e]]], one
    entry per distinct row, and the first len(js) entries are the
    diagonal A[j, j], zero if no term lands there.  Costs O(terms)
    per column, on grids of up to 2**64 points.
    """
    spec = stencil.spec
    js = np.asarray(js, dtype=np.uint64).reshape(-1)
    # A term moves j's axis coordinate by -offset mod N, whatever j
    # is, so which terms collide is fixed: those with equal (axis,
    # move) add up in declared order, and every move-0 term lands on
    # j itself, where the axis sums add up as in Stencil.apply.
    sums = {}
    for axis, offset, coeff in stencil.terms:
        key = (axis, -offset % spec.N)
        sums[key] = sums.get(key, 0.0) + coeff
    first_axes = dict.fromkeys(axis for axis, _, _ in stencil.terms)
    centre = sum(sums.pop((axis, 0), 0.0) for axis in first_axes)
    mask = np.uint64(spec.N - 1)
    rows = [js]
    for axis, move in sums:
        shift = np.uint64(axis * spec.n)
        coord = (js >> shift) & mask
        rows.append(js ^ ((coord ^ ((coord + np.uint64(move)) & mask)) << shift))
    values = np.array([centre, *sums.values()], dtype=np.complex128) * (1.0 / stencil.divisor)
    k = np.tile(np.arange(js.size), len(rows))
    return k, np.concatenate(rows), np.repeat(values, js.size)


def rolled_stencil_apply(stencil, values):
    """A Stencil applied by rolls to axis 0 of values, trailing axes a batch.

    Each axis's terms add coeff times the rolled values into a zeroed
    axis sum in declared order, the axis sums add into a zeroed total in
    order of their first term, and the divisor comes last, as a product
    with its reciprocal.
    """
    spec = stencil.spec
    v = np.asarray(values, dtype=np.complex128)
    v = v.reshape((spec.N,) * spec.dim + v.shape[1:])
    groups = {}
    for term in stencil.terms:
        groups.setdefault(term[0], []).append(term)
    out = np.zeros_like(v)
    for terms in groups.values():
        axis_sum = np.zeros_like(v)
        for axis, offset, coeff in terms:
            axis_sum += coeff * np.roll(v, -offset, spec.dim - 1 - axis)
        out += axis_sum
    out *= 1.0 / stencil.divisor
    return out.reshape((spec.npoints,) + out.shape[spec.dim :])


# Budget of one verification panel, in sparse entries, not bytes: the
# per-gate sort temporaries of apply_sparse cost about 170 B per entry,
# and verify_sparse on laplace D=1 n=16 (18 q) peaks at 194 MB RSS.
PANEL_ENTRIES = 1 << 20


def max_sparse_gap(actual, expected):
    """Max |actual - expected| over two sets of sparse column entries.

    Each set is (column, uint64 index, amplitude) arrays as
    :func:`apply_sparse` returns them, with at most one entry per
    (column, index) pair; a pair missing from one set is zero there.
    One sort on the pair puts the two entries of each pair side by
    side, and a segment sum takes their difference.
    """
    cols = np.concatenate((actual[0], expected[0]))
    idx = np.concatenate((actual[1], expected[1]))
    diffs = np.concatenate((actual[2], -expected[2]))
    order = np.lexsort((idx, cols))
    cols, idx, diffs = cols[order], idx[order], diffs[order]
    first = np.ones(cols.size, dtype=bool)
    first[1:] = (idx[1:] != idx[:-1]) | (cols[1:] != cols[:-1])
    sums = np.add.reduceat(diffs, np.flatnonzero(first))
    # np.max, unlike the builtin, propagates a NaN into a FAIL.
    return float(np.max(np.abs(sums), initial=0.0))


def verify_sparse(enc, tol):
    """analysis.verify_pattern's report, on sparse column panels.

    Every column of U runs forward once and back once through the
    adjoint circuit, both sparsely, in panels of PANEL_ENTRIES >> 2m
    columns (4**m entries each at most).  Each declared block is read
    from the forward panels and compared with alpha times its stencil's
    columns; the round trip is compared with the basis columns.
    """
    if not enc.blocks:
        raise ParameterError(f"{enc.label} declares no blocks to verify")
    nq = enc.circuit.num_qubits
    if nq > EXHAUSTIVE_QUBITS:
        raise SizeError(f"{nq} qubits exceeds the exhaustive cap {EXHAUSTIVE_QUBITS}")
    N = enc.system_dim
    k = np.uint64(nq - enc.m)
    inverse = adjoint(enc.circuit)
    width = PANEL_ENTRIES >> min(2 * enc.m, nq)
    deviations, residuals = [0.0], [0.0]
    for col in range(1 << enc.m):
        wanted = [(row, stencil) for row, c, stencil in enc.blocks if c == col]
        for start in range(0, N, width):
            js = np.arange(start, min(start + width, N), dtype=np.uint64)
            basis = (np.arange(js.size), js + np.uint64(col * N), np.ones(js.size))
            cols, idx, amp = out = apply_sparse(enc.circuit, *basis)
            for row, stencil in wanted:
                inside = idx >> k == row
                ks, rows, values = stencil_columns(stencil, js)
                found = (cols[inside], idx[inside], amp[inside])
                expected = (ks, rows + np.uint64(row * N), enc.alpha * values)
                deviations.append(max_sparse_gap(found, expected))
            residuals.append(max_sparse_gap(apply_sparse(inverse, *out), basis))
    # np.max, unlike the builtin, propagates a NaN into a FAIL.
    deviation = float(np.max(deviations))
    residual = float(np.max(residuals))
    passed = deviation <= tol and residual <= tol
    return VerificationReport(enc.label, deviation, residual, tol, passed)


def sample_columns(enc, extra, seed):
    """Basis columns of an encoding to check one at a time, past the exhaustive cap.

    Per axis, the coordinate takes 0, 1, N-2, N-1, and 2**(n//2) - 1 and
    2**(n//2), where a shift's carry runs through half the register and
    stops, while the other axes take seeded random coordinates; each
    such grid point comes with every ancilla input.  Then ``extra``
    seeded random columns.  Sorted, without repeats.
    """
    rng = random.Random(seed)
    spec = enc.blocks[0][2].spec
    N, n = spec.N, spec.n
    k = spec.dim * n
    edges = {0, 1, N - 2, N - 1, (1 << n // 2) - 1, 1 << n // 2}
    points = set()
    for axis in range(spec.dim):
        for edge in sorted(edges):
            coords = [rng.randrange(N) for _ in range(spec.dim)]
            coords[axis] = edge
            points.add(sum(c << (d * n) for d, c in enumerate(coords)))
    columns = {a << k | p for a in range(1 << enc.m) for p in points}
    columns.update(rng.getrandbits(enc.circuit.num_qubits) for _ in range(extra))
    return sorted(columns)


def column_mismatches(circuit, cubes, columns):
    """The columns on which cube entries and apply_sparse disagree.

    ``cubes`` are output entries (care, val, xor, amp) of
    ``circuit.apply_cubes`` on every basis column.  The columns run
    through :func:`apply_sparse` as one panel, and the entries of
    column j must be exactly those of the cubes that cover j, each amp
    at output j ^ xor, with no output twice.  The cubes are indexed by
    input, by care and then by val, so a column costs one lookup per
    distinct care.
    """
    by_care = {}
    for care, val, xor, amp in cubes:
        by_care.setdefault(care, {}).setdefault(val, []).append((xor, amp))
    k = len(columns)
    starts = np.array(columns, dtype=np.uint64)
    cols, idx, amps = apply_sparse(circuit, np.arange(k), starts, np.ones(k))
    order = np.argsort(cols, kind="stable")
    ends = np.searchsorted(cols[order], np.arange(1, k + 1)).tolist()
    idx, amps = idx[order].tolist(), amps[order].tolist()
    bad = []
    for j, start, end in zip(columns, [0, *ends], ends):
        pairs = [
            (j ^ xor, amp)
            for care, by_val in by_care.items()
            for xor, amp in by_val.get(j & care, ())
        ]
        found = dict(zip(idx[start:end], amps[start:end]))
        if len(dict(pairs)) != len(pairs) or dict(pairs) != found:
            bad.append(j)
    return bad


def unplanned_success_probability(enc, values):
    """Zero-ancilla mass of the encoding on |0>|values>, one cube run per call.

    The ancilla-zero columns run through ``apply_cubes``, and each
    output entry adds its amplitude times the values to the output on
    its views (``analysis._views``).
    """
    circuit = enc.circuit
    N = enc.system_dim
    k = circuit.num_qubits - enc.m
    ancillas = (circuit.dim - 1) ^ (N - 1)
    columns = [
        (care | ancillas, val, xor, amp)
        for care, val, xor, amp in basis_cubes(circuit)
        if not val & ancillas
    ]
    values = np.ascontiguousarray(values)
    out = np.zeros(N, dtype=np.complex128)
    for care, val, xor, amp in apply_cubes(circuit, columns, ancillas):
        shape, source, target = _views(care, val, xor, k)
        y = out.reshape(shape)[target]
        np.add(y, values.reshape(shape)[source] * amp, out=y)
    return float(np.sum(np.abs(out) ** 2))
