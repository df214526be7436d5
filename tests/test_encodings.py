import copy
import pickle

import numpy as np
import pytest

from fdblock.circuit import Circuit, Gate
from fdblock.encodings import (
    MAX_BUILD_QUBITS,
    OPS,
    BlockEncoding,
    alpha_d,
    ancilla_axis_qubits,
    encode_banded_lcu,
    encode_derivative_1d,
    encode_divergence_2d,
    encode_gradient_2d,
    encode_laplace_1d_lcu,
    encode_laplace_dd,
    encode_wave_2d,
    shift_circuit,
)
from fdblock.errors import ParameterError, SizeError
from fdblock.operators import GridFunction, GridSpec, scaled_laplacian_stencil

from .oracles import (
    BUILDS,
    apply,
    banded_circulant,
    central_difference_1d,
    extract_block,
    first_order_tensorized,
    max_abs_diff,
    scaled_laplacian_1d,
    scaled_laplacian_dd,
    trapezoid_1d,
    unitarity_residual,
    unitary,
    widest_builds,
)


def basis(num_qubits, index):
    v = np.zeros(1 << num_qubits, dtype=complex)
    v[index] = 1.0
    return v


def selection_subcircuit(enc):
    """The controlled-shift part of an encoding: exactly its X gates."""
    return Circuit(enc.circuit.num_qubits, tuple(g for g in enc.circuit.gates if g.kind == "X"))


def test_shift_wraparound():
    n = 3
    up = shift_circuit(+1, n)
    dn = shift_circuit(-1, n)
    assert np.array_equal(apply(up, basis(n, 7)), basis(n, 0))
    assert np.array_equal(apply(dn, basis(n, 0)), basis(n, 7))


def test_shift_product_is_identity():
    for n in (1, 2, 3, 4):
        u = unitary(shift_circuit(+1, n)) @ unitary(shift_circuit(-1, n))
        assert max_abs_diff(u, np.eye(1 << n)) < 1e-14


def test_shift_matches_permutation_for_all_sizes():
    for n in (1, 2, 3):
        N = 1 << n
        for direction in (1, -1):
            u = unitary(shift_circuit(direction, n))
            perm = np.zeros((N, N), dtype=complex)
            for j in range(N):
                perm[(j + direction) % N, j] = 1.0
            assert max_abs_diff(u, perm) == 0.0


def test_shift_rejects_bad_args():
    with pytest.raises(ParameterError):
        shift_circuit(2, 3)
    with pytest.raises(ParameterError):
        shift_circuit(1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_laplace_1d_zero_block(n):
    enc = encode_laplace_dd(1, n)
    assert enc.m == 2 and enc.alpha == 1.0
    assert max_abs_diff(extract_block(enc, 0, 0), scaled_laplacian_1d(n)) < 1e-12


def test_laplace_1d_difference_and_quadrature_blocks():
    n = 3
    h = 1.0 / (1 << n)
    enc = encode_laplace_dd(1, n)
    dd = (h / 2.0) * central_difference_1d(n)
    qq = (1.0 / (2.0 * h)) * trapezoid_1d(n)
    assert max_abs_diff(extract_block(enc, 0, 1), dd) < 1e-12
    assert max_abs_diff(extract_block(enc, 0, 3), qq) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_laplace_1d_full_block_grid(n):
    N = 1 << n
    h = 1.0 / N
    u = unitary(encode_laplace_dd(1, n).circuit)
    lap = scaled_laplacian_1d(n)
    dd = (h / 2.0) * central_difference_1d(n)
    qq = (1.0 / (2.0 * h)) * trapezoid_1d(n)
    for r in range(4):
        for c in range(4):
            want = lap if r == c else (qq if r + c == 3 else dd)
            assert max_abs_diff(u[r * N : (r + 1) * N, c * N : (c + 1) * N], want) < 1e-12


def test_lemma_truth_table_exact():
    # selection values 0 -> decrement, 3 -> increment, 1 and 2 -> identity,
    # with amplitudes exactly 0 or 1
    for n in (1, 2, 3):
        N = 1 << n
        enc = encode_laplace_dd(1, n)
        part2 = selection_subcircuit(enc)
        for sel in range(4):
            for j in range(N):
                out = apply(part2, basis(n + 2, sel * N + j))
                shift = {0: -1, 3: +1}.get(sel, 0)
                expected = sel * N + (j + shift) % N
                assert out[expected] == 1.0
                out[expected] = 0.0
                assert not np.any(out)


def test_alpha_d_values():
    assert alpha_d(1) == 1.0
    assert alpha_d(2) == 1.0
    assert alpha_d(3) == 0.75
    assert alpha_d(4) == 1.0
    assert alpha_d(5) == 5.0 / 8.0
    assert ancilla_axis_qubits(1) == 0
    assert ancilla_axis_qubits(3) == 2
    with pytest.raises(ParameterError, match="dim must be >= 1"):
        alpha_d(0)


@pytest.mark.parametrize(
    "dim,n",
    [(2, 1), (2, 2), (3, 1), (4, 1), (5, 1)],
)
def test_laplace_dd_zero_block(dim, n):
    enc = encode_laplace_dd(dim, n)
    dhat = ancilla_axis_qubits(dim)
    assert enc.m == 2 + dhat
    assert enc.alpha == alpha_d(dim)
    target = alpha_d(dim) * scaled_laplacian_dd(dim, n)
    assert max_abs_diff(extract_block(enc, 0, 0), target) < 1e-12


def test_laplace_dd_unused_axis_patterns_leave_grid_fixed():
    # dim = 3 uses axis patterns 0..2 of a 2-qubit register; pattern 3
    # must pass every basis state through the controlled shifts untouched
    dim, n = 3, 1
    enc = encode_laplace_dd(dim, n)
    part2 = selection_subcircuit(enc)
    nq = enc.circuit.num_qubits
    N_D = enc.system_dim
    for sel in range(4):
        for j in range(N_D):
            idx = ((3 * 4) + sel) * N_D + j  # axis pattern k = 3
            out = apply(part2, basis(nq, idx))
            assert out[idx] == 1.0


def test_banded_lcu_laplacian_instance():
    n = 3
    enc = encode_laplace_1d_lcu(n)
    assert enc.m == 3 and enc.alpha == -0.25
    target = -0.25 * scaled_laplacian_1d(n)
    assert max_abs_diff(extract_block(enc, 0, 0), target) < 1e-12


def test_banded_lcu_identity_coefficients():
    # a0 = 1, a1 = am1 = 0 encodes I/4 in the zero block
    n = 2
    enc = encode_banded_lcu(n, 1.0, 0.0, 0.0)
    assert max_abs_diff(extract_block(enc, 0, 0), 0.25 * np.eye(1 << n)) < 1e-12


def test_banded_lcu_general_coefficients():
    n = 2
    a0, a1, am1 = 0.8, -0.3, 0.45
    enc = encode_banded_lcu(n, a0, a1, am1)
    target = 0.25 * banded_circulant(n, a0, a1, am1)
    assert max_abs_diff(extract_block(enc, 0, 0), target) < 1e-12


def test_banded_lcu_rejects_bad_angles():
    with pytest.raises(ParameterError):
        encode_banded_lcu(2, 2.5, 0.0, 0.0)  # |a0 - 1| > 1
    with pytest.raises(ParameterError):
        encode_banded_lcu(2, 0.5, 1.5, 0.0)
    with pytest.raises(ParameterError):
        encode_banded_lcu(2, -0.5, 0.0, 0.0)


@pytest.mark.parametrize("name", ["a0", "a1", "am1"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_banded_lcu_rejects_non_finite_coefficients(name, bad):
    coeffs = {"a0": 0.5, "a1": 0.2, "am1": 0.1, name: bad}
    with pytest.raises(ParameterError, match=f"^{name} = "):
        encode_banded_lcu(3, coeffs["a0"], coeffs["a1"], coeffs["am1"])


def test_derivative_block_and_properties():
    n = 3
    h = 1.0 / (1 << n)
    enc = encode_derivative_1d(n)
    assert enc.m == 1 and enc.alpha == 1.0
    block = extract_block(enc, 0, 0)
    assert max_abs_diff(block, h * central_difference_1d(n)) < 1e-12
    assert max_abs_diff(block.T, -block) < 1e-12
    const = np.full(1 << n, 1.0 / np.sqrt(1 << n))
    assert float(np.max(np.abs(block @ const))) < 1e-12


def test_gradient_blocks():
    n = 2
    enc = encode_gradient_2d(n)
    a = enc.alpha
    assert enc.m == 2 and abs(a - 1 / np.sqrt(2)) < 1e-15
    assert max_abs_diff(extract_block(enc, 0, 0), a * first_order_tensorized(0, 2, n)) < 1e-12
    assert max_abs_diff(extract_block(enc, 1, 0), a * first_order_tensorized(1, 2, n)) < 1e-12


def test_divergence_blocks():
    n = 2
    enc = encode_divergence_2d(n)
    a = enc.alpha
    assert max_abs_diff(extract_block(enc, 0, 0), a * first_order_tensorized(0, 2, n)) < 1e-12
    assert max_abs_diff(extract_block(enc, 0, 1), a * first_order_tensorized(1, 2, n)) < 1e-12


def test_wave_block_pattern():
    n = 2
    enc = encode_wave_2d(n)
    a = enc.alpha
    d0 = first_order_tensorized(0, 2, n)
    d1 = first_order_tensorized(1, 2, n)
    zero = np.zeros_like(d0)
    expected = {
        (0, 2): a * d0,
        (2, 0): a * d0,
        (1, 2): a * d1,
        (2, 1): a * d1,
        (0, 0): zero,
        (0, 1): zero,
        (1, 0): zero,
        (1, 1): zero,
        (2, 2): zero,
    }
    for (r, c), want in expected.items():
        assert max_abs_diff(extract_block(enc, r, c), want) < 1e-12, (r, c)


CORPUS = [
    encode_laplace_dd(1, 2),
    encode_laplace_dd(1, 3),
    encode_laplace_dd(2, 2),
    encode_laplace_dd(3, 1),
    encode_laplace_1d_lcu(3),
    encode_banded_lcu(2, 0.7, 0.2, -0.6),
    encode_derivative_1d(3),
    encode_gradient_2d(2),
    encode_divergence_2d(2),
    encode_wave_2d(2),
]


@pytest.mark.parametrize("enc", CORPUS, ids=lambda e: e.label)
def test_every_encoding_is_unitary(enc):
    assert unitarity_residual(unitary(enc.circuit)) < 1e-12


@pytest.mark.parametrize("enc", CORPUS, ids=lambda e: e.label)
def test_encoding_contract_consistency(enc):
    system_qubits = enc.system_dim.bit_length() - 1
    assert enc.circuit.num_qubits == enc.m + system_qubits
    assert abs(enc.alpha) <= 1.0


@pytest.mark.parametrize("op", list(OPS))
def test_system_dim_is_the_grid_size(op):
    dims = (1, 3) if OPS[op].dim is None else (OPS[op].dim,)
    for dim in dims:
        for n in (1, 3):
            enc = OPS[op].build(dim, n)
            assert enc.system_dim == GridSpec(dim, n).npoints


BUILDERS_AT_THE_CAP = [
    *(pytest.param(op, dim, OPS[op].build, id=f"{op} D={dim}") for op, dim in BUILDS),
    pytest.param(None, 1, lambda dim, n: encode_banded_lcu(n, 0.65, 0.2, -0.3), id="banded_lcu"),
]


@pytest.mark.parametrize("op,dim,build", BUILDERS_AT_THE_CAP)
def test_builds_stop_at_the_qubit_cap(op, dim, build):
    # widths are m + dim*n: the widest grid that fits builds, the next
    # one raises; that is exactly 64 and 65 qubits wherever m + dim*n
    # can take those values, and it is the n that the suite's build-cap
    # cases read
    m = build(dim, 1).m
    n = (MAX_BUILD_QUBITS - m) // dim
    assert MAX_BUILD_QUBITS == 64
    assert op is None or (op, dim, n) in widest_builds(MAX_BUILD_QUBITS)
    assert MAX_BUILD_QUBITS - dim < build(dim, n).circuit.num_qubits <= MAX_BUILD_QUBITS
    too_wide = f"^{m + dim * (n + 1)} qubits is beyond the supported range$"
    with pytest.raises(SizeError, match=too_wide):
        build(dim, n + 1)


def test_checked_types_are_immutable_values():
    enc = encode_derivative_1d(2)
    spec, stencil = GridSpec(1, 2), enc.blocks[0][2]
    grid = GridFunction(spec, np.full(4, 0.5), 1.0)
    for value in (enc.circuit, spec, grid, stencil, enc):
        for name in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    # blocks take no part in equality; copies keep them and pass the checks again
    assert BlockEncoding(enc.circuit, enc.m, enc.alpha, enc.label) == enc
    for clone in (copy.deepcopy(enc), pickle.loads(pickle.dumps(enc))):
        assert clone == enc and clone.blocks == enc.blocks
    assert hash(GridSpec(1, 2)) == hash(spec) and Circuit(3, enc.circuit.gates) == enc.circuit


@pytest.mark.parametrize("m", [-1, 4])
def test_block_encoding_needs_system_qubits(m):
    with pytest.raises(ParameterError, match="system qubits"):
        BlockEncoding(Circuit(4), m, 1.0, "bare")


@pytest.mark.parametrize("alpha", [1.5, -1.5, float("inf"), float("nan")])
def test_block_encoding_rejects_an_alpha_outside_the_unit_interval(alpha):
    # NaN compares false with everything, so it must fail the check too
    enc = encode_derivative_1d(2)
    with pytest.raises(ParameterError, match="alpha"):
        BlockEncoding(enc.circuit, enc.m, alpha, enc.label, enc.blocks)


@pytest.mark.parametrize("row,col", [(5, 7), (2, 0), (0, 2), (-1, 0)])
def test_declared_blocks_must_lie_inside_the_ancilla_grid(row, col):
    # derivative_1d has m = 1, so only rows and columns 0 and 1 exist
    enc = encode_derivative_1d(2)
    with pytest.raises(ParameterError, match="outside"):
        BlockEncoding(enc.circuit, enc.m, enc.alpha, enc.label, ((row, col, enc.blocks[0][2]),))


def test_declared_blocks_must_have_the_system_grid_size():
    # laplace_1d n=4 has 16 system points; verification reads each
    # block's field width from its stencil's grid
    from fdblock.analysis import verify_pattern

    enc = encode_laplace_dd(1, 4)
    for spec in (GridSpec(1, 3), GridSpec(1, 5)):
        blocks = ((0, 1, scaled_laplacian_stencil(spec)),)
        with pytest.raises(ParameterError, match=r"block \(0, 1\): .* system register 16$"):
            BlockEncoding(enc.circuit, enc.m, enc.alpha, enc.label, blocks)
    # a grid of the same size in another shape is another operator: FAIL
    blocks = ((0, 0, scaled_laplacian_stencil(GridSpec(2, 2))),)
    report = verify_pattern(BlockEncoding(enc.circuit, enc.m, enc.alpha, enc.label, blocks), 1e-12)
    assert not report.passed and report.unitarity_residual < 1e-12


def test_divergence_is_gradient_with_axis_mixing_moved():
    # the two differ only in whether the axis register is mixed before
    # or after the shifts, so their unitaries are Hadamard-conjugates on
    # the axis wire
    n = 2
    grad = unitary(encode_gradient_2d(n).circuit)
    div = unitary(encode_divergence_2d(n).circuit)
    hk = unitary(Circuit(2 * n + 2, (Gate("H", 1),)))
    assert max_abs_diff(div, hk @ grad @ hk) < 1e-13


def test_banded_lcu_column_action_by_hand():
    # column action written out entrywise: the diagonal coefficient stays
    # on |j>, the subdiagonal one lands on |j+1>, the superdiagonal one
    # on |j-1>, all divided by four
    n, a0, a1, am1 = 3, 0.8, -0.3, 0.45
    enc = encode_banded_lcu(n, a0, a1, am1)
    blk = extract_block(enc, 0, 0)
    N = 1 << n
    for j in range(N):
        col = np.zeros(N, dtype=complex)
        col[j] += 0.25 * a0
        col[(j - 1) % N] += 0.25 * am1
        col[(j + 1) % N] += 0.25 * a1
        assert max_abs_diff(blk[:, j], col) < 1e-13
