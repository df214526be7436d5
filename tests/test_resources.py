from pathlib import Path

import numpy as np
import pytest

from fdblock.circuit import GATE_KINDS, Circuit, Gate
from fdblock.encodings import (
    encode_derivative_1d,
    encode_divergence_2d,
    encode_gradient_2d,
    encode_laplace_1d,
    encode_laplace_1d_lcu,
    encode_laplace_dd,
    encode_wave_2d,
)
from fdblock.errors import ParameterError, SizeError
from fdblock.resources import (
    RESOURCES_CSV_HEADER,
    GateCounts,
    count_resources,
    lower_to_toffoli,
    resource_sweep,
    resources_csv,
)

from .oracles import charge_lowered_circuit, dense_toffoli_network, max_abs_diff, unitary

BUILDERS = {
    "laplace1": lambda n: encode_laplace_1d(n),
    "laplace2": lambda n: encode_laplace_dd(2, n),
    "laplace3": lambda n: encode_laplace_dd(3, n),
    "laplace4": lambda n: encode_laplace_dd(4, n),
    "lcu": lambda n: encode_laplace_1d_lcu(n),
    "derivative": lambda n: encode_derivative_1d(n),
    "gradient": lambda n: encode_gradient_2d(n),
    "divergence": lambda n: encode_divergence_2d(n),
    "wave": lambda n: encode_wave_2d(n),
}


def test_clifford_only_circuit_has_no_t():
    c = Circuit(3, (Gate("H", 0), Gate("X", 1), Gate("Z", 2), Gate("X", 2, ((0, 1),))))
    gc = count_resources(c)
    assert gc.t_count == 0
    assert gc.rotation_count == 0
    assert gc.clifford_count == 4
    assert gc.ancilla_high_water == 0


def test_toffoli_charge_matches_verified_network():
    # the standard 7-T network is checked against the Toffoli matrix and
    # its tally fixes the model's per-Toffoli charge
    product, t_count, clifford_count = dense_toffoli_network()
    ccx = np.eye(8, dtype=complex)
    ccx[[6, 7]] = ccx[[7, 6]]
    assert max_abs_diff(product, ccx) < 1e-14
    assert (t_count, clifford_count) == (7, 8)
    gc = count_resources(Circuit(3, (Gate("X", 2, ((0, 1), (1, 1))),)))
    assert gc.t_count == t_count
    assert gc.clifford_count == clifford_count


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_isolated_multicontrolled_x_cost(k):
    # ladder: k-2 compute + k-2 uncompute + 1 target Toffoli = 2k-3
    c = Circuit(k + 1, (Gate("X", k, tuple((i, 1) for i in range(k))),))
    gc = count_resources(c)
    assert gc.t_count == 7 * (2 * k - 3)
    assert gc.ancilla_high_water == k - 2
    assert gc.qubit_count == (k + 1) + (k - 2)


@pytest.mark.parametrize("k", [3, 4])
def test_lowered_expansion_reproduces_gate_unitary(k):
    # expansion acts as the original gate on the original wires with the
    # ancillas starting and ending in |0>, including open controls
    rng = np.random.default_rng(99)
    for _ in range(3):
        pols = tuple((i, int(rng.integers(0, 2))) for i in range(k))
        c = Circuit(k + 1, (Gate("X", k, pols),))
        low = lower_to_toffoli(c)
        anc = low.num_qubits - c.num_qubits
        assert anc == k - 2
        full = unitary(low)
        idx = np.arange(1 << c.num_qubits) << anc
        assert max_abs_diff(full[np.ix_(idx, idx)], unitary(c)) == 0.0
        leak = np.delete(full[:, idx], idx, axis=0)
        assert not np.any(leak)


@pytest.mark.parametrize(
    "make",
    [
        lambda: encode_laplace_1d(3),
        lambda: encode_laplace_dd(2, 2),
        lambda: encode_laplace_1d_lcu(2),
        lambda: encode_wave_2d(2),
    ],
)
def test_lowered_whole_encoding_equivalence(make):
    # ladder caching across gates must not change the implemented unitary
    enc = make()
    low = lower_to_toffoli(enc.circuit)
    anc = low.num_qubits - enc.circuit.num_qubits
    full = unitary(low)
    idx = np.arange(enc.circuit.dim) << anc
    assert max_abs_diff(full[np.ix_(idx, idx)], unitary(enc.circuit)) < 1e-13
    leak = np.delete(full[:, idx], idx, axis=0)
    assert float(np.max(np.abs(leak))) < 1e-13 if leak.size else True


def test_lowered_stream_is_toffoli_level():
    low = lower_to_toffoli(encode_laplace_dd(3, 2).circuit)
    for g in low.gates:
        if g.kind == "X":
            assert len(g.controls) <= 2
        else:
            assert len(g.controls) <= 1


def test_laplace_1d_count_recurrence():
    # each shift lowers to 3n-5 Toffolis (one target Toffoli per cascade
    # stage from width 2 up, one ladder extension per stage from width 3
    # up, and the ladder unwind), so t(n) = 14*(3n-5) = 42n - 70
    counts = {n: count_resources(encode_laplace_1d(n).circuit) for n in range(1, 9)}
    assert counts[1].t_count == 0
    for n in range(2, 9):
        assert counts[n].t_count == 42 * n - 70
    assert all(counts[n].rotation_count == 0 for n in counts)


# Per builder: its shifted grid axes a, the largest n that fits the
# 64-qubit build cap (the end of the range `resources` reports), and the
# intercepts of t = 42*a*n + c_t, clifford = 48*a*n + c_1,
# qubits = (a + 1)*n + c_2 and ancillas = n + c_3, with its rotation
# count, in that order; all read off every row of bench/reference.
CAP_RANGES = {
    "laplace1": (1, 62, -70, -64, 0, -2, 0),
    "laplace2": (2, 30, -56, -32, 2, -1, 0),
    "laplace3": (3, 20, -42, -4, 4, 0, 0),
    "laplace4": (4, 15, -56, -14, 4, 0, 0),
    "lcu": (1, 61, -28, -4, 1, -2, 6),
    "derivative": (1, 63, -70, -67, -1, -2, 0),
    "gradient": (2, 31, -56, -36, 1, -1, 0),
    "divergence": (2, 31, -56, -36, 1, -1, 0),
    "wave": (2, 30, -56, -32, 2, -1, 4),
}
# The counts at n = 2 that step off those lines.
OFF_LINE_AT_N2 = {
    "laplace1": {"clifford_count": 28},
    "derivative": {"clifford_count": 25},
    "lcu": {"qubit_count": 6, "ancilla_high_water": 1},
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_t_count_affine_in_n(name):
    # each extra qubit adds 3 Toffolis (21 T) to every shift, so 42 T per
    # shifted axis for its S- and S+, all the way to the build cap; the
    # other columns follow their own lines from n = 3 on
    build = BUILDERS[name]
    axes, n_max, c_t, c_1, c_2, c_3, rotations = CAP_RANGES[name]
    counts = {n: count_resources(build(n).circuit) for n in range(2, n_max + 1)}

    def expected(n):
        line = GateCounts(42 * axes * n + c_t, 48 * axes * n + c_1, rotations, n + c_3, (axes + 1) * n + c_2)
        return line._replace(**OFF_LINE_AT_N2.get(name, {})) if n == 2 else line

    off_line = {n: c for n, c in counts.items() if c != expected(n)}
    assert off_line == {}, name
    with pytest.raises(SizeError):
        build(n_max + 1)


def _materialised_counts(circuit):
    lowered = lower_to_toffoli(circuit)
    t, clifford, rot = charge_lowered_circuit(lowered)
    return GateCounts(t, clifford, rot, lowered.num_qubits - circuit.num_qubits, lowered.num_qubits)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_tally_equals_the_charge_of_the_lowered_circuit(name):
    # count_resources charges the ladder walk's steps without building
    # the lowered circuit; charging that circuit gate by gate must agree
    build = BUILDERS[name]
    n_max = CAP_RANGES[name][1]
    for n in (*range(1, 7), n_max):
        circuit = build(n).circuit
        assert count_resources(circuit) == _materialised_counts(circuit), (name, n)


def test_tally_equals_the_charge_of_the_lowered_circuit_on_random_gate_lists():
    # sorted control lists share prefixes and so reuse ladder levels;
    # shuffled ones force partial unwinds
    rng = np.random.default_rng(4321)
    seen = {"open": 0, "H": 0, "Z": 0, "RY": 0}
    for _ in range(200):
        nq = int(rng.integers(3, 9))
        gates = []
        for _ in range(int(rng.integers(1, 30))):
            kind = GATE_KINDS[int(rng.integers(0, len(GATE_KINDS)))]
            target = int(rng.integers(0, nq))
            others = [q for q in range(nq) if q != target]
            if rng.random() < 0.5:
                rng.shuffle(others)
            k = int(rng.integers(0, len(others) + 1))
            controls = tuple((q, int(rng.random() < 0.7)) for q in others[:k])
            theta = float(rng.normal()) if kind == "RY" else None
            gates.append(Gate(kind, target, controls, theta))
            seen["open"] += any(pol == 0 for _, pol in controls)
            if kind != "X" and k >= 2:
                seen[kind] += 1
        circuit = Circuit(nq, tuple(gates))
        assert count_resources(circuit) == _materialised_counts(circuit)
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_t_count_monotone_from_n1(name):
    build = BUILDERS[name]
    ts = [count_resources(build(n).circuit).t_count for n in range(1, 6)]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_linear_fit_r2_vs_log_grid_points():
    for dim, n_range in ((1, range(3, 11)), (2, range(2, 8)), (3, range(1, 5))):
        rows = resource_sweep("laplace", [dim], n_range)
        x = np.array([np.log2(r.N_D) for r in rows])
        y = np.array([float(r.t_count) for r in rows])
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        ss_res = float(np.sum((y - fitted) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot
        assert r2 >= 0.99, (dim, r2)


def test_lcu_rotation_count_constant_and_comparison():
    for n in range(2, 9):
        base = count_resources(encode_laplace_1d(n).circuit)
        comp = count_resources(encode_laplace_1d_lcu(n).circuit)
        assert comp.rotation_count == 6
        assert base.rotation_count == 0
        # the shift block costs the same; the three doubly-controlled
        # rotations add 6 Toffolis, so the comparison holds under any
        # positive per-rotation charge
        assert base.t_count < comp.t_count
        assert base.t_count < comp.t_count + 100 * comp.rotation_count


def test_theorem2_qubit_footprint():
    for dim, n in ((2, 3), (3, 2), (4, 2)):
        enc = encode_laplace_dd(dim, n)
        dhat = (dim - 1).bit_length()
        gc = count_resources(enc.circuit)
        assert enc.circuit.num_qubits == n * dim + 2 + dhat
        assert gc.qubit_count == enc.circuit.num_qubits + gc.ancilla_high_water


def test_controlled_rotation_and_hadamard_charges():
    gc = count_resources(Circuit(2, (Gate("RY", 1, ((0, 1),), 0.3),)))
    assert (gc.t_count, gc.rotation_count, gc.clifford_count) == (0, 2, 2)
    gc = count_resources(Circuit(2, (Gate("H", 1, ((0, 1),)),)))
    assert (gc.t_count, gc.rotation_count, gc.clifford_count) == (0, 2, 1)
    gc = count_resources(Circuit(1, (Gate("RY", 0, theta=0.4),)))
    assert (gc.rotation_count, gc.clifford_count) == (1, 0)
    # doubly-controlled rotation: ladder to one ancilla (2 Toffolis) plus
    # a singly-controlled rotation
    gc = count_resources(Circuit(3, (Gate("RY", 2, ((0, 1), (1, 1)), 0.3),)))
    assert (gc.t_count, gc.rotation_count, gc.ancilla_high_water) == (14, 2, 1)


def test_open_controls_charge_extra_cliffords():
    closed = count_resources(Circuit(3, (Gate("X", 2, ((0, 1), (1, 1))),)))
    opened = count_resources(Circuit(3, (Gate("X", 2, ((0, 0), (1, 0))),)))
    assert opened.t_count == closed.t_count
    assert opened.clifford_count == closed.clifford_count + 4


def test_resource_sweep_rows_and_csv():
    rows = resource_sweep("lcu", None, range(2, 5))
    assert [r.n for r in rows] == [2, 3, 4]
    assert all(r.rotation_count == 6 for r in rows)
    assert all(r.builder == "lcu" and r.D == 1 for r in rows)
    text = resources_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == RESOURCES_CSV_HEADER
    assert len(lines) == 4
    assert text == resources_csv(resource_sweep("lcu", None, range(2, 5)))


def test_resource_sweep_validation():
    with pytest.raises(ParameterError):
        resource_sweep("lcu", [2], [3])
    with pytest.raises(ParameterError):
        resource_sweep("nothing", None, [3])
    with pytest.raises(ParameterError):
        resource_sweep("laplace", [1], [])


def test_resource_constants_match_golden(tmp_path):
    golden = Path(__file__).parent / "golden"
    rows = resource_sweep("laplace", [1, 2, 3], range(2, 7))
    assert resources_csv(rows) == (golden / "resources_laplace.csv").read_text()
    rows = resource_sweep("lcu", None, range(2, 7))
    assert resources_csv(rows) == (golden / "resources_lcu.csv").read_text()


def test_lowered_random_circuits_equivalence():
    # fuzz the ladder cache: random kinds, targets, control subsets, and
    # polarities force sharing, partial pops, and write invalidation
    rng = np.random.default_rng(1234)
    for _ in range(30):
        nq = int(rng.integers(3, 6))
        gates = []
        for _ in range(int(rng.integers(4, 10))):
            kind = ("X", "H", "Z", "RY")[int(rng.integers(0, 4))]
            target = int(rng.integers(0, nq))
            others = [q for q in range(nq) if q != target]
            rng.shuffle(others)
            k = int(rng.integers(0, len(others) + 1))
            controls = tuple((q, int(rng.integers(0, 2))) for q in others[:k])
            theta = float(rng.normal()) if kind == "RY" else None
            gates.append(Gate(kind, target, controls, theta))
        c = Circuit(nq, tuple(gates))
        low = lower_to_toffoli(c)
        anc = low.num_qubits - nq
        full = unitary(low)
        idx = np.arange(1 << nq) << anc
        assert max_abs_diff(full[np.ix_(idx, idx)], unitary(c)) < 1e-12
        leak = np.delete(full[:, idx], idx, axis=0)
        if leak.size:
            assert float(np.max(np.abs(leak))) < 1e-12
