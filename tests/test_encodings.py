import copy
import pickle

import numpy as np
import pytest

from fdblock.circuit import Circuit, Gate
from fdblock.encodings import (
    MAX_BUILD_QUBITS,
    OPS,
    BlockEncoding,
    _shift_gates,
    alpha_d,
    ancilla_axis_qubits,
    encode_banded_lcu,
    encode_derivative_1d,
    encode_divergence_2d,
    encode_gradient_2d,
    encode_laplace_dd,
)
from fdblock.errors import ParameterError, QubitIndexError, SizeError
from fdblock.operators import VECTOR_DIM_CAP, GridFunction, GridSpec, scaled_laplacian_stencil

from .oracles import (
    BANDED_BUILDS,
    BUILDS,
    apply,
    build,
    builds_up_to,
    dense_blocks,
    max_abs_diff,
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


def test_shift_matches_permutation_for_all_sizes():
    for n in (1, 2, 3, 4):
        N = 1 << n
        for direction in (1, -1):
            u = unitary(Circuit(n, tuple(_shift_gates(direction, n, 0, ()))))
            perm = np.zeros((N, N), dtype=complex)
            for j in range(N):
                perm[(j + direction) % N, j] = 1.0
            assert max_abs_diff(u, perm) == 0.0


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


# Every build within 8 qubits, where a dense unitary is cheap, and the
# banded coefficient sets.
SMALL = [build(*case) for case in (*builds_up_to(8), *BANDED_BUILDS)]


@pytest.mark.parametrize("enc", SMALL, ids=lambda e: e.label)
def test_every_encoding_is_unitary(enc):
    assert unitarity_residual(unitary(enc.circuit)) < 1e-12


@pytest.mark.parametrize("enc", SMALL, ids=lambda e: e.label)
def test_encoding_contract_consistency(enc):
    system_qubits = enc.system_dim.bit_length() - 1
    assert enc.circuit.num_qubits == enc.m + system_qubits
    assert abs(enc.alpha) <= 1.0


@pytest.mark.parametrize("op", list(OPS))
def test_system_dim_is_the_grid_size(op):
    for name, dim, n in builds_up_to(8):
        if name == op:
            assert OPS[op].build(dim, n).system_dim == GridSpec(dim, n).npoints


# The caps that the suite's per-build loops read builds_up_to at.
CORPUS_CAPS = [(8,), (9,), (10,), (12,), (16,), (24,), (28,), (MAX_BUILD_QUBITS, VECTOR_DIM_CAP)]


@pytest.mark.parametrize("caps", CORPUS_CAPS, ids=str)
def test_every_build_pair_has_builds_within_each_corpus_cap(caps):
    # so that no per-build loop can pass by checking no build of a pair
    assert {(op, dim) for op, dim, _ in builds_up_to(*caps)} == set(BUILDS)


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


def test_value_types_compare_and_print_by_their_fields():
    spec = GridSpec(2, 3)
    # equal fields in another type, a plain tuple or another value type, are no match
    assert spec.__eq__((2, 3)) is NotImplemented
    assert spec != (2, 3) and (2, 3) != spec
    assert spec != Circuit(2) and Circuit(2) != spec
    assert repr(spec) == "GridSpec(dim=2, n=3)"
    enc = encode_derivative_1d(1)
    assert repr(enc) == f"BlockEncoding(circuit={enc.circuit!r}, m=1, alpha=1.0, label='derivative_1d n=1')"
    assert "blocks" not in repr(enc) and enc.blocks


def test_integer_fields_of_any_integer_type_are_stored_as_python_ints():
    from fdblock.analysis import sweep_csv, sweep_success_probability, verify_pattern
    from fdblock.circuit import apply_cubes, basis_cubes, export_text
    from fdblock.resources import resource_sweep

    # a size that is not an integer raises its type's error where it enters
    calls = [
        (lambda: GridSpec(1, 2.5), ParameterError),
        (lambda: GridSpec(2.0, 3), ParameterError),
        (lambda: GridSpec("2", 3), ParameterError),
        (lambda: encode_laplace_dd(2.0, 3), ParameterError),
        (lambda: encode_laplace_dd(1, 2.5), ParameterError),
        (lambda: sweep_success_probability(1.0, [3], "sinprod"), ParameterError),
        (lambda: sweep_success_probability(1, [3.0], "sin1"), ParameterError),
        (lambda: resource_sweep("laplace", [1], [2.0]), ParameterError),
        (lambda: BlockEncoding(Circuit(2), 1.0, 1.0, "bare"), ParameterError),
        (lambda: Circuit(2.0), QubitIndexError),
    ]
    for call, error in calls:
        with pytest.raises(error, match="is not an integer"):
            call()
    # a numpy integer builds what the Python int does, to the report's
    # repr, at 64 qubits too
    for op, dim, n in [*widest_builds(12), ("derivative", 1, 63)]:
        typed = OPS[op].build(np.int64(dim), np.int64(n))
        report = verify_pattern(OPS[op].build(dim, n), 1e-12)
        assert repr(verify_pattern(typed, 1e-12)) == repr(report)
    assert GridSpec(np.int64(1), np.int64(63)).N == 2**63
    typed_rows = sweep_success_probability(np.int64(2), [np.int64(3)], "sinprod")
    assert sweep_csv(typed_rows) == sweep_csv(sweep_success_probability(2, [3], "sinprod"))
    # a numpy or bool wire or polarity is the int one: an X on wire 0 of
    # 64 flips bit 63, and a control on it does not overflow
    plain = Circuit(64, (Gate("X", 0), Gate("X", 1, ((0, 1),))))
    typed = Circuit(np.int64(64), (Gate("X", np.int64(0)), Gate("X", True, ((np.int64(0), True),))))
    assert repr(typed) == repr(plain) and export_text(typed) == export_text(plain)
    assert apply_cubes(typed, basis_cubes(typed)) == apply_cubes(plain, basis_cubes(plain))
    assert repr(BlockEncoding(plain, np.int64(1), 1.0, "bare")) == repr(BlockEncoding(plain, 1, 1.0, "bare"))


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
    # on |j-1>, all divided by four; the table test of test_analysis
    # holds the circuit's block to this dense one
    case = ("banded_lcu", 1, 3, (0.8, -0.3, 0.45))
    assert case in BANDED_BUILDS
    _, _, blocks = dense_blocks(*case)
    a0, a1, am1 = case[3]
    N = 1 << case[2]
    for j in range(N):
        col = np.zeros(N, dtype=complex)
        col[j] += 0.25 * a0
        col[(j - 1) % N] += 0.25 * am1
        col[(j + 1) % N] += 0.25 * a1
        assert max_abs_diff(blocks[0, 0][:, j], col) < 1e-13
