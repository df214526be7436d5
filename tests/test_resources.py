import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest

from fdblock.circuit import GATE_KINDS, Circuit, Gate, export_text
from fdblock.encodings import (
    MAX_BUILD_QUBITS,
    OPS,
    build_encoding,
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

from .oracles import (
    BUILDS,
    charge_lowered_circuit,
    dense_toffoli_network,
    lowered_round_trip_gap,
    max_abs_diff,
    unitary,
    widest_builds,
)


def _name(op, dim):
    """A build's name here: laplace1 .. laplace4, and a fixed-dim op's own name."""
    return op if OPS[op].dim else f"{op}{dim}"


# Every build as n -> encoding, and the largest n that fits the 64-qubit
# build cap, which is the end of the range `resources` reports.
BUILDERS = {_name(op, dim): functools.partial(build_encoding, op, dim) for op, dim in BUILDS}
N_MAX = {_name(op, dim): n for op, dim, n in widest_builds(MAX_BUILD_QUBITS)}


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
        lambda: encode_laplace_dd(1, 3),
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


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_lowered_circuit_round_trips_to_its_source(name):
    # the cube round trip has no dense cap; its ladder width is the
    # resources table's ancilla column
    for n in range(1, 4 if name in ("laplace3", "laplace4") else 7):
        circuit = BUILDERS[name](n).circuit
        gap, ladder = lowered_round_trip_gap(circuit)
        assert gap <= 1e-12, (name, n, gap)
        assert ladder == count_resources(circuit).ancilla_high_water, (name, n)


@pytest.mark.parametrize("name,n", [("laplace1", 4), ("wave", 3)])
def test_lowered_round_trip_catches_every_dropped_gate_and_flipped_control(name, n):
    circuit = BUILDERS[name](n).circuit
    lowered = lower_to_toffoli(circuit)
    gates = lowered.gates
    mutants = [gates[:i] + gates[i + 1 :] for i in range(len(gates))]
    for i, g in enumerate(gates):
        for j, (q, pol) in enumerate(g.controls):
            controls = g.controls[:j] + ((q, 1 - pol),) + g.controls[j + 1 :]
            mutants.append(gates[:i] + (g._replace(controls=controls),) + gates[i + 1 :])
    for mutant in mutants:
        gap, _ = lowered_round_trip_gap(circuit, Circuit(lowered.num_qubits, mutant))
        assert gap > 1e-12


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
    counts = {n: count_resources(encode_laplace_dd(1, n).circuit) for n in range(1, 9)}
    assert counts[1].t_count == 0
    for n in range(2, 9):
        assert counts[n].t_count == 42 * n - 70
    assert all(counts[n].rotation_count == 0 for n in counts)


# Per builder: its shifted grid axes a and the intercepts of
# t = 42*a*n + c_t, clifford = 48*a*n + c_1, qubits = (a + 1)*n + c_2
# and ancillas = n + c_3, with its rotation count, in that order; all
# read off every row of bench/reference.
CAP_RANGES = {
    "laplace1": (1, -70, -64, 0, -2, 0),
    "laplace2": (2, -56, -32, 2, -1, 0),
    "laplace3": (3, -42, -4, 4, 0, 0),
    "laplace4": (4, -56, -14, 4, 0, 0),
    "lcu": (1, -28, -4, 1, -2, 6),
    "derivative": (1, -70, -67, -1, -2, 0),
    "gradient": (2, -56, -36, 1, -1, 0),
    "divergence": (2, -56, -36, 1, -1, 0),
    "wave": (2, -56, -32, 2, -1, 4),
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
    build, n_max = BUILDERS[name], N_MAX[name]
    axes, c_t, c_1, c_2, c_3, rotations = CAP_RANGES[name]
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
    for n in (*range(1, 7), N_MAX[name]):
        circuit = build(n).circuit
        assert count_resources(circuit) == _materialised_counts(circuit), (name, n)


def _random_gate_lists():
    # sorted control lists share prefixes and so reuse ladder levels;
    # shuffled ones force partial unwinds
    rng = np.random.default_rng(4321)
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
        yield Circuit(nq, tuple(gates))


def test_tally_equals_the_charge_of_the_lowered_circuit_on_random_gate_lists():
    seen = {"open": 0, "H": 0, "Z": 0, "RY": 0}
    for circuit in _random_gate_lists():
        for g in circuit.gates:
            seen["open"] += any(pol == 0 for _, pol in g.controls)
            if g.kind != "X" and len(g.controls) >= 2:
                seen[g.kind] += 1
        assert count_resources(circuit) == _materialised_counts(circuit)
    assert min(seen.values()) > 0, seen


def test_ladder_level_l_sits_on_wire_num_qubits_plus_l():
    # only rungs write the extra wires; each computes or uncomputes the
    # ladder's top, and a folded gate reads the top level
    for circuit in _random_gate_lists():
        nq = circuit.num_qubits
        lowered = lower_to_toffoli(circuit)
        depth = 0
        for g in lowered.gates:
            level = g.target - nq
            if level < 0:
                extra = [(q, pol) for q, pol in g.controls if q >= nq]
                assert extra in ([], [(nq + depth - 1, 1)]), g
                continue
            assert g.kind == "X" and level in (depth, depth - 1), (g, depth)
            below, (control, _) = g.controls
            assert control < nq, g
            if level == 0:
                assert below[0] < nq, g
            else:
                assert below == (nq + level - 1, 1), g
            depth += 1 if level == depth else -1
        assert depth == 0
        wires = {q for g in lowered.gates for q in (g.target, *dict(g.controls))}
        high_water = count_resources(circuit).ancilla_high_water
        assert lowered.num_qubits == nq + high_water
        assert wires - set(range(nq)) == set(range(nq, nq + high_water))


# sha256 of export_text(lower_to_toffoli(c)) at n = 1, 2, 3 and the cap:
# the lowered streams, wire for wire and gate for gate.
LOWERED_SHA256 = {
    "derivative": {
        1: "ea3aa1fe51a9c3508e514d72d5ac96746b0ad3970877848ccaf76b73cd466c2c",
        2: "c7fb772508c0d827c0d1a8bd93edc595287ce6abda718d12a0914d01d26bce7e",
        3: "6afd8a4f53084da71b2f190bd4c811d8243abef9eacce1d2475985adbc11f396",
        63: "cf50c24a6b825c89ab93e64e8e4e7cbda2ed6908a72af8493e297430df5942e6",
    },
    "divergence": {
        1: "30fa3a43d8eb1153b7b4d51bf0931c9979f1d1e66ae0b2c748a82be67956fe1b",
        2: "2c9357bdb9fa13209af40e9b4403b1f116681be6a73ba9a7c9d1ea7f9b03dc31",
        3: "6f5f07c690d7bb444282c8f34598ac04140fec541e71360e03e97c834698c83a",
        31: "96dbc7425ea4b897b5882598ad506e7c6ce4cfcf3ccfa90f57e39d55b51d0016",
    },
    "gradient": {
        1: "7ef98b1fda76421c5be0e862d3d4f7464dbe7d421838e28905761ab52a421fa9",
        2: "e8b834589d9929f04f352e55d5754a55988cf65850eb613c2ee7478a85f86830",
        3: "267cda5e9943ede5ff70cc313af72aa12a7b653eb425eb27eb48c7561672357c",
        31: "d1d9373458866853bc47dfd147f49202a0f770dc3445afd264ad47516f9ae51f",
    },
    "laplace1": {
        1: "48f12df834ffb555a950b3421c220c33e3582667fc63dbe723d6c4fa4dde3f90",
        2: "492e142b5ac9f2c110216c1012eef2da55f2ab1f150227e0e408351ccbdc4b16",
        3: "381666ebeb4543b3e88e39701e974437b5c627025a4b78c5f007251f2f3741c2",
        62: "c5d81c95dea4ab7429fd29384e48ad849a3e536cc50ebcc3ec6d1b91413b146b",
    },
    "laplace2": {
        1: "82f5248eda402a5d32df944ffebb2434d3754233c5adcd3fbccfb39a3d787878",
        2: "54c8b6c2cad3880be9589bb2cdc1de6b4b72d76eda5f3baaa7928cc2f445085a",
        3: "d47a846657f9cd31dd34e2811a86f559572ddfa6b26e8a398ccea0274b5ee1c8",
        30: "ba01896f4b3a14cc258717a4ce23c58928dcd0953a140a6184be024496913447",
    },
    "laplace3": {
        1: "1523d898e8dce1ad14611f4bd30e94d0b7aac211382dcab8750eba88e4a05984",
        2: "d585cd56a374b019c14441acfb30da2cb842580dea8eca0d0617ec6f9be4f981",
        3: "5b34800d40d26124f1cd56ecb4be40415da832ec3647a34ba55870d531193e3a",
        20: "f357c66b6fad6c8baa04381aef53cf9bd178a8782c8373162f2c3595dac362a7",
    },
    "laplace4": {
        1: "1e6e50e52913b6c0df7d0937c6ec7f365b8c069f1dfab4ca4fc8e26fdfff4781",
        2: "e5cedaa094a71f5a0538dfe2499b4a2ad806cd2645e2e3f5f3546589d2b3a2af",
        3: "2655507f0f1506d4b8426be6799d6ed0fc2d0893df156f5d7041819936a5731e",
        15: "996d2a05354ddc5ab6959ea3c39aa0585be802cd42e05883e0433ac23fb4da62",
    },
    "lcu": {
        1: "bc88999b4bde83025a0a2a53f926c0dd42e3d0aeb9609693e9b5b4a667146bed",
        2: "e7ebe2f9548abb6fe23070c8888f2c8ce9465cd51bc1f1ad82a82a123bad444d",
        3: "6a5a4b5e0a8cf11a9292ce4ecec9ab69969439bb2371380e2fddfa5866bb5690",
        61: "c3af226ba7723f72a34522e01116212e3a7d17bc092f5ec31a968e933e51cd4f",
    },
    "wave": {
        1: "23e6dbbdcb66fe0423c435132b7587daf1307ac5244b87314fba857693aa5d75",
        2: "6b5923f6ec5547ba042528e11bcbc8d1646386b8be8f748d86d38541b740684a",
        3: "d78e06d037d08edaa963341b6becc38103e68e1d6f2f511be94a2a532a35f38c",
        30: "c0a44cf4a86cd8d8af43bd791fb8f85d73e6022b9618eab9f40adf90962851fb",
    },
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_lowered_streams_are_pinned(name):
    for n, digest in LOWERED_SHA256[name].items():
        text = export_text(lower_to_toffoli(BUILDERS[name](n).circuit))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, n)


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
        base = count_resources(encode_laplace_dd(1, n).circuit)
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
