import numpy as np
import pytest

from fdblock.circuit import (
    GATE_KINDS,
    Circuit,
    Gate,
    _mix_pair,
    adjoint,
    apply_cubes,
    basis_cubes,
    export_text,
    quantum_bits,
)
from fdblock.encodings import MAX_BUILD_QUBITS, _shift_gates, encode_laplace_dd
from fdblock.errors import QubitIndexError, ShapeError, SizeError
from fdblock.operators import VECTOR_DIM_CAP

from .oracles import (
    apply,
    apply_sparse,
    build,
    builds_up_to,
    dense_circuit_unitary,
    max_abs_diff,
    unitary,
)

SQ2 = 1.0 / np.sqrt(2.0)
GATE_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * SQ2,
}


def basis(num_qubits, index):
    v = np.zeros(1 << num_qubits, dtype=complex)
    v[index] = 1.0
    return v


def shift(direction, n):
    """The cyclic shift j -> j + direction mod 2**n on a bare n-qubit register."""
    return Circuit(n, tuple(_shift_gates(direction, n, 0, ())))


def test_single_gate_matrices_match_definitions():
    for kind, mat in GATE_MATRICES.items():
        c = Circuit(1, (Gate(kind, 0),))
        assert max_abs_diff(unitary(c), mat) == 0.0
    theta = 0.7
    ry = np.array(
        [
            [np.cos(theta / 2), -np.sin(theta / 2)],
            [np.sin(theta / 2), np.cos(theta / 2)],
        ],
        dtype=complex,
    )
    c = Circuit(1, (Gate("RY", 0, theta=theta),))
    assert max_abs_diff(unitary(c), ry) < 1e-15


def test_apply_x_flips():
    c = Circuit(1, (Gate("X", 0),))
    assert np.array_equal(apply(c, basis(1, 0)), basis(1, 1))


def test_apply_hh_is_identity():
    c = Circuit(1, (Gate("H", 0), Gate("H", 0)))
    rng = np.random.default_rng(0)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert max_abs_diff(apply(c, v), v) < 1e-15


def test_big_endian_convention():
    # index 6 = [110]: qubit 0 and qubit 1 are set, qubit 2 is not
    c = Circuit(3, (Gate("X", 0), Gate("X", 1)))
    assert np.array_equal(apply(c, basis(3, 0)), basis(3, 6))


def test_unitary_of_empty_circuit():
    assert np.array_equal(unitary(Circuit(2)), np.eye(4))


def test_dense_simulation_leaves_the_callers_arrays_unchanged():
    # X, Z, H and RY, open and closed controls; the strided column is a
    # view into mat, so the in-place gates must run on a copy
    c = Circuit(
        3,
        (
            Gate("H", 0),
            Gate("RY", 1, ((0, 1),), 0.9),
            Gate("X", 2, ((1, 0),)),
            Gate("Z", 0, ((2, 1),)),
            Gate("RY", 2, theta=-1.3),
        ),
    )
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    before = mat.copy()
    out = apply(c, mat)
    assert np.array_equal(mat, before)
    assert out.shape == mat.shape
    for j in range(mat.shape[1]):
        column = apply(c, mat[:, j])
        assert column.shape == (8,)
        assert np.array_equal(column, out[:, j])
    assert np.array_equal(mat, before)


def test_x_with_one_control_is_cnot():
    cnot = Circuit(2, (Gate("X", 1, ((0, 1),)),))
    assert np.array_equal(apply(cnot, basis(2, 2)), basis(2, 3))
    assert np.array_equal(apply(cnot, basis(2, 0)), basis(2, 0))


def test_x_with_a_polarity_zero_control_fires_on_zero():
    anti = Circuit(2, (Gate("X", 1, ((0, 0),)),))
    assert np.array_equal(apply(anti, basis(2, 2)), basis(2, 2))
    assert np.array_equal(apply(anti, basis(2, 0)), basis(2, 1))


def test_controlled_shift_matches_encoding_gates():
    # the anti-controlled decrement inside the Laplacian encoding is the
    # standalone shift moved onto the system wires, with an open control
    # on ancilla 1 prepended to every gate
    n = 3
    base = shift(-1, n)
    built = tuple(
        Gate(g.kind, g.target + 2, ((1, 0),) + tuple((q + 2, p) for q, p in g.controls))
        for g in base.gates
    )
    enc = encode_laplace_dd(1, n)
    expected = tuple(g for g in enc.circuit.gates if g.kind == "X")[:n]
    assert built == expected


def test_unitary_of_joined_gate_lists_is_reversed_product():
    rng = np.random.default_rng(5)
    gates_a = tuple(Gate("RY", int(rng.integers(0, 3)), theta=float(rng.normal())) for _ in range(4))
    gates_b = (Gate("H", 1), Gate("X", 2, ((0, 1),)))
    a = Circuit(3, gates_a)
    b = Circuit(3, gates_b)
    assert max_abs_diff(unitary(Circuit(3, gates_a + gates_b)), unitary(b) @ unitary(a)) < 1e-12


def test_apply_preserves_norm_on_corpus():
    rng = np.random.default_rng(11)
    for circ in (*(build(*case).circuit for case in builds_up_to(8)), shift(+1, 4)):
        v = rng.normal(size=circ.dim) + 1j * rng.normal(size=circ.dim)
        v /= np.linalg.norm(v)
        assert abs(np.linalg.norm(apply(circ, v)) - 1.0) < 1e-12


# Each case: the circuit's width, its gates, and what the error must say.
# Gate(...) checks nothing; Circuit(...) checks every gate it takes.
BAD_GATES = [
    pytest.param(1, (Gate("Q", 0),), "gate 0: unknown gate kind 'Q'", id="kind-Q"),
    pytest.param(1, (Gate("Y", 0),), "gate 0: unknown gate kind 'Y'", id="kind-Y"),
    pytest.param(
        1, (Gate("X", 0, ((0, 1),)),), "gate 0: target 0 also appears",
        id="target-is-control",
    ),
    pytest.param(2, (Gate("X", 0, ((1, 2),)),), "gate 0: control polarities", id="polarity-2"),
    pytest.param(2, (Gate("X", 0, ((1, 1.0),)),), "gate 0: control polarities", id="polarity-float"),
    pytest.param(2, (Gate("X", 0, ((1, "1"),)),), "gate 0: control polarities", id="polarity-string"),
    pytest.param(1, (Gate("RY", 0, theta=float("inf")),), "gate 0: RY needs", id="ry-inf"),
    pytest.param(1, (Gate("X", 3),), r"gate 0: qubits \(3,\) are not all in 0..0", id="target-beyond-width"),
    pytest.param(
        3, (Gate("X", 0, ((1, 1), (1, 1))),), "gate 0: a control qubit repeats",
        id="repeated-control",
    ),
    pytest.param(1, (Gate("X", 0, theta=0.5),), "gate 0: X takes no angle", id="angle-on-X"),
    pytest.param(1, (Gate("Z", 0, theta=0.5),), "gate 0: Z takes no angle", id="angle-on-Z"),
    pytest.param(1, (Gate("H", 0, theta=0.5),), "gate 0: H takes no angle", id="angle-on-H"),
    pytest.param(1, (Gate("RY", 0),), "gate 0: RY needs", id="ry-no-angle"),
    pytest.param(1, (Gate("RY", 0, theta=float("nan")),), "gate 0: RY needs", id="ry-nan"),
    pytest.param(2, (Gate("X", -1),), r"gate 0: qubits \(-1,\)", id="negative-target"),
    pytest.param(
        2, (Gate("X", 0, ((-1, 1),)),), r"gate 0: qubits \(0, -1\)",
        id="negative-control",
    ),
    pytest.param(
        2, (Gate("X", 0, ((2, 1),)),), r"gate 0: qubits \(0, 2\)",
        id="control-beyond-width",
    ),
    pytest.param(2, (Gate("X", 1.0),), r"gate 0: qubits \(1.0,\) are not all integers", id="float-target"),
    pytest.param(
        2, (Gate("X", 0, ((1.0, 1),)),), r"gate 0: qubits \(0, 1.0\) are not all integers",
        id="float-control",
    ),
    pytest.param(2, (Gate("X", "1"),), "gate 0: qubits .* are not all integers", id="string-target"),
    pytest.param(1, (("X", 0, (), None),), "gate 0: .* is not a Gate", id="plain-tuple"),
    pytest.param(0, (), "at least one qubit", id="zero-qubits"),
    pytest.param(
        3, (Gate("H", 0),) * 17 + (Gate("X", 1, ((0, 1), (5, 1))),), "gate 17: qubits",
        id="position",
    ),
]


@pytest.mark.parametrize("num_qubits, gates, message", BAD_GATES)
def test_gate_validation(num_qubits, gates, message):
    with pytest.raises(QubitIndexError, match=message):
        Circuit(num_qubits, gates)


def test_bool_and_numpy_integer_polarities_act_as_integers():
    plain = Circuit(2, (Gate("X", 0, ((1, 1),)), Gate("Z", 1, ((0, 0),))))
    typed = Circuit(2, (Gate("X", 0, ((1, True),)), Gate("Z", 1, ((0, np.int64(0)),))))
    eye = np.eye(4)
    assert np.array_equal(apply(typed, eye), apply(plain, eye))
    assert export_text(typed) == export_text(plain)


def test_export_text_format():
    c = Circuit(3, (Gate("H", 0), Gate("X", 2, ((0, 1), (1, 0))), Gate("RY", 1, theta=0.5)))
    assert export_text(c) == "H 0\nX 2 ctrl:+0 ctrl:-1\nRY 1 theta=0.5\n"


def random_gates(rng, nq, count):
    """count gates of random kind, target, controls and polarities on nq wires."""
    gates = []
    for _ in range(count):
        kind = GATE_KINDS[int(rng.integers(0, len(GATE_KINDS)))]
        target = int(rng.integers(0, nq))
        others = [q for q in range(nq) if q != target]
        rng.shuffle(others)
        k = int(rng.integers(0, len(others) + 1))
        controls = tuple((q, int(rng.integers(0, 2))) for q in others[:k])
        theta = float(rng.normal()) if kind == "RY" else None
        gates.append(Gate(kind, target, controls, theta))
    return gates


def test_simulator_matches_dense_oracle_on_random_circuits():
    # cross-check the reshape-based simulator against a loop-built
    # projector construction of every controlled gate
    rng = np.random.default_rng(77)
    for _ in range(12):
        nq = int(rng.integers(2, 6))
        gates = random_gates(rng, nq, int(rng.integers(3, 9)))
        c = Circuit(nq, tuple(gates))
        assert max_abs_diff(unitary(c), dense_circuit_unitary(gates, nq)) < 1e-13


def test_adjoint_matches_dense_oracle_conjugate_transpose():
    # every list carries an RY, whose angle the adjoint negates, and a
    # controlled H
    rng = np.random.default_rng(2429)
    for _ in range(12):
        nq = int(rng.integers(2, 6))
        gates = random_gates(rng, nq, int(rng.integers(3, 9)))
        gates.append(Gate("RY", int(rng.integers(0, nq)), theta=float(rng.normal())))
        gates.append(Gate("H", 0, ((1, int(rng.integers(0, 2))),)))
        rng.shuffle(gates)
        c = Circuit(nq, tuple(gates))
        expected = dense_circuit_unitary(gates, nq).conj().T
        assert max_abs_diff(unitary(adjoint(c)), expected) < 1e-13
        assert adjoint(adjoint(c)) == c


def test_adjoint_inverts_an_encoding():
    from fdblock.encodings import encode_laplace_1d_lcu

    c = encode_laplace_1d_lcu(2).circuit
    inv = adjoint(c)
    assert max_abs_diff(unitary(inv) @ unitary(c), np.eye(c.dim)) < 1e-14


def test_export_theta_round_trips():
    import math

    theta = 2.0 * math.acos(-0.25)
    c = Circuit(1, (Gate("RY", 0, theta=theta),))
    line = export_text(c).strip()
    assert float(line.split("theta=")[1]) == theta


def sparse_columns(circuit, columns):
    """Dense (2**q, k) result of apply_sparse on the basis columns listed."""
    k = len(columns)
    start = np.asarray(columns, dtype=np.uint64)
    cols, idx, amp = apply_sparse(circuit, np.arange(k), start, np.ones(k))
    out = np.zeros((circuit.dim, k), dtype=complex)
    out[idx.astype(np.int64), cols] = amp
    return out


def test_sparse_simulator_is_bit_identical_on_every_builder():
    for case in builds_up_to(10):
        circuit = build(*case).circuit
        dense = apply(circuit, np.eye(circuit.dim))
        assert max_abs_diff(sparse_columns(circuit, range(circuit.dim)), dense) == 0.0


def test_sparse_simulator_matches_dense_routes_on_random_circuits():
    # H and RY land on any wire, so supports grow toward 2**q; the
    # random panels hold several entries per column
    rng = np.random.default_rng(2509)
    for _ in range(20):
        nq = int(rng.integers(2, 7))
        gates = random_gates(rng, nq, int(rng.integers(3, 12)))
        c = Circuit(nq, tuple(gates))
        sparse = sparse_columns(c, range(c.dim))
        assert max_abs_diff(sparse, apply(c, np.eye(c.dim))) == 0.0
        assert max_abs_diff(sparse, dense_circuit_unitary(gates, nq)) < 1e-13

        panel = rng.normal(size=(c.dim, 3)) + 1j * rng.normal(size=(c.dim, 3))
        panel[rng.random(panel.shape) < 0.6] = 0.0
        idx, cols = np.nonzero(panel)
        cols, idx, amp = apply_sparse(c, cols, idx.astype(np.uint64), panel[idx, cols])
        out = np.zeros_like(panel)
        out[idx.astype(np.int64), cols] = amp
        assert max_abs_diff(out, apply(c, panel)) == 0.0


def test_sparse_simulator_rejects_malformed_entries():
    c = Circuit(2, (Gate("H", 0),))
    with pytest.raises(ShapeError):
        apply_sparse(c, [0, 1], np.array([0], dtype=np.uint64), [1.0])
    with pytest.raises(ShapeError):
        apply_sparse(c, [0], np.array([4], dtype=np.uint64), [1.0])
    with pytest.raises(ShapeError):
        apply_sparse(c, [-1], np.array([0], dtype=np.uint64), [1.0])
    # at 60 qubits, column ids wider than the 4 bits that one 64-bit key
    # would leave them (16 and 32 would share a key): the panel equals
    # the single-column runs, so each column pairs only its own entries
    gates = [Gate("H", 59), Gate("RY", 59, (), 0.7), Gate("RY", 0, ((59, 1),), 0.3)]
    wide = Circuit(60, (*gates, Gate("X", 1, ((0, 0),))))
    ids = [16, 32, 1 << 40]
    starts = np.array([1, 1, 2**60 - 2], dtype=np.uint64)
    cols, idx, amp = apply_sparse(wide, ids, starts, np.ones(3))
    for c, j in zip(ids, starts):
        _, alone_idx, alone_amp = apply_sparse(wide, [0], [j], [1.0])
        mine = cols == c
        assert sorted(zip(idx[mine].tolist(), amp[mine].tolist())) == sorted(
            zip(alone_idx.tolist(), alone_amp.tolist())
        )
    assert cols.size == 9


def cube_columns(circuit, zeros=0):
    """Dense (2**q, 2**q) matrix scattered from apply_cubes on every basis column."""
    js = np.arange(circuit.dim)
    out = np.zeros((circuit.dim, circuit.dim), dtype=complex)
    seen = np.zeros(out.shape, dtype=bool)
    for care, val, xor, amp in apply_cubes(circuit, basis_cubes(circuit), zeros):
        cols = js[(js & care) == val]
        rows = cols ^ xor
        assert not seen[rows, cols].any()  # one entry per (column, index)
        seen[rows, cols] = True
        out[rows, cols] = amp
    return out


def test_cube_simulator_is_bit_identical_on_every_builder():
    for case in builds_up_to(9):
        circuit = build(*case).circuit
        assert np.array_equal(cube_columns(circuit), apply(circuit, np.eye(circuit.dim)))


def test_cube_simulator_matches_dense_routes_on_random_circuits():
    # H and RY land on any wire, controls on quantum and classical wires alike
    rng = np.random.default_rng(2510)
    for _ in range(20):
        nq = int(rng.integers(2, 7))
        gates = random_gates(rng, nq, int(rng.integers(3, 12)))
        c = Circuit(nq, tuple(gates))
        dense = apply(c, np.eye(c.dim))
        assert np.array_equal(cube_columns(c), dense)


@pytest.mark.parametrize("direction", [1, -1])
def test_cube_simulator_shifts_at_sixty_four_wires(direction):
    # the carry classes of j -> j +- 1 mod 2**64: each entry sends every
    # input of its cube to j ^ xor, checked against integer arithmetic
    c = shift(direction, 64)
    cubes = apply_cubes(c, basis_cubes(c))
    assert len(cubes) == 64
    rng = np.random.default_rng(64)
    samples = [0, 2**63 - 1, 2**63, 2**64 - 1]
    samples += [int(j) for j in rng.integers(0, 2**64, size=100, dtype=np.uint64)]
    for j in samples:
        hits = [(xor, amp) for care, val, xor, amp in cubes if j & care == val]
        assert hits == [(j ^ (j + direction) % 2**64, 1)]


def test_cube_simulator_rejects_entries_that_leave_a_quantum_bit_free():
    c = Circuit(2, (Gate("H", 0), Gate("X", 1)))
    assert quantum_bits(c) == 0b10
    assert basis_cubes(c) == [(0b10, 0, 0, 1), (0b10, 0b10, 0, 1)]
    with pytest.raises(ShapeError, match="fix the quantum bits"):
        apply_cubes(c, [(0, 0, 0, 1 + 0j)])


def test_cube_simulator_refuses_entries_beyond_its_budget(monkeypatch):
    import fdblock.circuit as circuit_mod

    c = Circuit(3, (Gate("H", 0), Gate("H", 1), Gate("H", 2)))
    monkeypatch.setattr(circuit_mod, "MAX_CUBES", 7)
    with pytest.raises(SizeError, match="8 cube entries exceed the budget of 7"):
        basis_cubes(c)
    monkeypatch.setattr(circuit_mod, "MAX_CUBES", 8)
    # each H sends every column to two outputs: 16 entries after gate 0
    with pytest.raises(SizeError, match="gate 0: 16 cube entries"):
        apply_cubes(c, basis_cubes(c))



def test_projection_keeps_the_unprojected_entries_at_zero_on_every_builder():
    # the columns fix the ancillas at 0, so the projected run keeps the
    # very entries of the unprojected one, in the same order
    for case in builds_up_to(MAX_BUILD_QUBITS, VECTOR_DIM_CAP):
        enc = build(*case)
        c = enc.circuit
        ancillas = (c.dim - 1) ^ (enc.system_dim - 1)
        columns = [
            (care | ancillas, val, xor, amp)
            for care, val, xor, amp in basis_cubes(c)
            if not val & ancillas
        ]
        full = apply_cubes(c, columns)
        kept = [e for e in full if not e[2] & ancillas]
        assert apply_cubes(c, columns, ancillas) == kept


def test_projection_keeps_the_dense_outputs_at_zero_on_random_circuits():
    # each input keeps, bit for bit, the dense run's outputs that leave
    # every zeros bit at 0, whether a zeros wire is quantum, classical
    # (free in the basis cubes, so cut in half) or never targeted
    rng = np.random.default_rng(2711)
    for _ in range(40):
        nq = int(rng.integers(2, 6))
        c = Circuit(nq, tuple(random_gates(rng, nq, int(rng.integers(3, 12)))))
        zeros = int(rng.integers(1, c.dim))
        dense = apply(c, np.eye(c.dim))
        dense[(np.arange(c.dim) & zeros) != 0] = 0
        assert np.array_equal(cube_columns(c, zeros), dense)


@pytest.mark.parametrize("kind", ["H", "RY"])
def test_projection_drops_entries_before_the_gates_after_an_ancillas_last(kind, monkeypatch):
    import fdblock.circuit as circuit_mod

    # wire 0 is last targeted by gate 0; gates 1-3 fire only on its 1,
    # so the projected run keeps one entry, while the unprojected one
    # holds 2, 3 and then 5 entries, past a budget of 4, at gate 2
    theta = 0.9 if kind == "RY" else None
    gates = (Gate(kind, 0, theta=theta),) + tuple(Gate("H", w, ((0, 1),)) for w in (1, 2, 3))
    c = Circuit(4, gates)
    columns = [(0b1111, 0, 0, 1 + 0j)]
    full = apply_cubes(c, columns)
    monkeypatch.setattr(circuit_mod, "MAX_CUBES", 4)
    with pytest.raises(SizeError, match="gate 2: 5 cube entries exceed the budget of 4"):
        apply_cubes(c, columns)
    (entry,) = apply_cubes(c, columns, 0b1000)
    assert entry == (0b1111, 0, 0, _mix_pair(gates[0], 1 + 0j, 0j)[0])
    assert [e for e in full if not e[2] & 0b1000] == [entry]


def test_projection_after_an_ancillas_last_x_skips_the_gates_that_control_on_it():
    # wire 0 is quantum (H), last flipped by gate 2; the H on wire 2 then
    # reads it as a control and fires only on entries already dropped
    gates = (
        Gate("H", 0),
        Gate("X", 1, ((0, 1),)),
        Gate("X", 0),
        Gate("H", 2, ((0, 1),)),
        Gate("H", 1),
    )
    c = Circuit(3, gates)
    columns = [e for e in basis_cubes(c) if not e[1] & 0b100]
    full = apply_cubes(c, columns)
    kept = apply_cubes(c, columns, 0b100)
    assert kept == [e for e in full if not e[2] & 0b100]
    assert not any(xor & 0b001 for _, _, xor, _ in kept)
    assert any(xor & 0b001 for _, _, xor, _ in full)
    dense = apply(c, np.eye(c.dim))
    dense[4:] = 0
    assert np.array_equal(cube_columns(c, 0b100), dense)


def test_projection_filters_a_wire_that_no_gate_targets_once_at_the_start():
    # wire 0 only ever controls; entries that fix it at 1 go at once,
    # and a cube that leaves it free keeps the half where it is 0
    c = Circuit(3, (Gate("H", 1, ((0, 1),)), Gate("X", 2, ((0, 0),)), Gate("H", 1)))
    fixed = [(0b110, v, 0, 1 + 0j) for v in (0b000, 0b010, 0b100, 0b110)]
    assert apply_cubes(c, fixed, 0b100) == apply_cubes(c, fixed[:2])
    half = apply_cubes(c, [(0b110, 0b010, 0, 1 + 0j)])
    assert apply_cubes(c, [(0b010, 0b010, 0, 1 + 0j)], 0b100) == half


def test_merge_joins_across_groups_until_no_pair_is_left():
    from fdblock.circuit import _merged

    # the eight points of three classical bits join pairwise into one
    # cube; a joined pair lands in another group, which is tried again
    points = [(0b111, v, 0b010, 0.5 + 0j) for v in (5, 2, 7, 0, 3, 6, 1, 4)]
    assert _merged(points, 0b111) == [(0, 0, 0b010, 0.5 + 0j)]
    # a quantum bit never joins; entries of other amplitudes stay apart
    assert sorted(_merged(points, 0b011)) == [(0b100, 0, 0b010, 0.5), (0b100, 4, 0b010, 0.5)]
    mixed = points[:2] + [(0b111, 4, 0b010, 0.25 + 0j)]
    assert sorted(_merged(mixed, 0b111), key=str) == sorted(mixed, key=str)
