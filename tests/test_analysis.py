import csv
import math

import numpy as np
import pytest

from fdblock.analysis import (
    FAMILIES,
    SWEEP_CSV_HEADER,
    _zero_views,
    success_probability,
    sweep_csv,
    sweep_success_probability,
    verify_pattern,
)
from fdblock.circuit import Circuit, Gate, apply_cubes, basis_cubes, quantum_bits
from fdblock.encodings import (
    MAX_BUILD_QUBITS,
    BlockEncoding,
    _shift_gates,
    encode_banded_lcu,
    encode_derivative_1d,
    encode_laplace_1d_lcu,
    encode_laplace_dd,
    encode_wave_2d,
)
from fdblock.errors import ParameterError, ShapeError, SizeError
from fdblock.operators import (
    VECTOR_DIM_CAP,
    GridFunction,
    GridSpec,
    Stencil,
    laplacian_stencil,
    sample_function,
    sample_grid,
    scaled_laplacian_stencil,
)

from .oracles import (
    BANDED_BUILDS,
    EXHAUSTIVE_QUBITS,
    apply,
    build,
    builds_up_to,
    closed_form_e_max,
    closed_form_p_success,
    column_mismatches,
    dense_blocks,
    extract_block,
    max_abs_diff,
    sample_columns,
    separable_trapezoid_l2_norm,
    stencil_columns,
    trapezoid_l2_norm,
    unitarity_residual,
    unitary,
    unplanned_success_probability,
    verify_sparse,
    widest_builds,
)


def grid_fn(family, dim, n):
    return sample_function(FAMILIES[family].field(dim), GridSpec(dim, n))


def test_extract_block_of_bare_ancilla_is_identity():
    enc = BlockEncoding(Circuit(3), 1, 1.0, "laplace_1d n=2")
    assert max_abs_diff(extract_block(enc, 0, 0), np.eye(4)) == 0.0
    assert max_abs_diff(extract_block(enc, 1, 0), np.zeros((4, 4))) == 0.0


def with_blocks(enc, blocks):
    """enc declaring other blocks, through BlockEncoding's checks."""
    return BlockEncoding(enc.circuit, enc.m, enc.alpha, enc.label, blocks)


def test_verify_pattern_fails_on_a_perturbed_reference():
    enc = encode_laplace_dd(1, 3)
    assert verify_pattern(enc, 1e-12).passed
    row, col, stencil = enc.blocks[0]
    # the centre coefficient, so every diagonal entry of block (0, 0) moves by 1e-6
    i = next(i for i, (_, offset, _) in enumerate(stencil.terms) if offset == 0)
    axis, offset, coeff = stencil.terms[i]
    bumped = (axis, offset, coeff + 1e-6 * stencil.divisor)
    terms = (*stencil.terms[:i], bumped, *stencil.terms[i + 1 :])
    perturbed = Stencil(stencil.spec, terms, stencil.divisor)
    report = verify_pattern(with_blocks(enc, ((row, col, perturbed), *enc.blocks[1:])), 1e-12)
    assert not report.passed
    assert report.max_deviation == pytest.approx(1e-6, rel=1e-6)


def test_verify_pattern_fails_on_a_flipped_off_diagonal_block():
    enc = encode_laplace_dd(1, 3)
    row, col, stencil = enc.blocks[1]
    assert (row, col) == (0, 1)
    flipped = Stencil(stencil.spec, tuple((a, o, -c) for a, o, c in stencil.terms), stencil.divisor)
    blocks = (enc.blocks[0], (row, col, flipped), *enc.blocks[2:])
    report = verify_pattern(with_blocks(enc, blocks), 1e-12)
    assert not report.passed
    assert report.max_deviation == pytest.approx(0.5, abs=1e-12)


# Every build within 10 qubits, where the dense route is cheap, laplace
# at D = 5 with m = 5 ancillas, which BUILDS stops short of, and the
# banded coefficient sets: (op, dim, n) or (op, dim, n, coefficients).
TABLE = [*builds_up_to(10), ("laplace", 5, 1), *BANDED_BUILDS]


@pytest.mark.parametrize("case", TABLE, ids=lambda case: build(*case).label)
def test_round_trip_deviations_equal_extract_block_route(case):
    enc = build(*case)
    m, alpha, dense = dense_blocks(*case)
    assert (enc.m, enc.alpha) == (m, alpha)
    assert sorted((row, col) for row, col, _ in enc.blocks) == sorted(dense)
    identity = np.eye(enc.system_dim, dtype=complex)
    deviations = []
    for block in enc.blocks:
        row, col, stencil = block
        extracted = extract_block(enc, row, col)
        assert max_abs_diff(extracted, dense[row, col]) <= 1e-13
        deviations.append(max_abs_diff(extracted, enc.alpha * stencil.apply(identity)))
        single = verify_pattern(with_blocks(enc, (block,)), 1e-12)
        assert single.max_deviation == deviations[-1]
    report = verify_pattern(enc, 1e-12)
    assert report.passed, report.summary()
    assert report.max_deviation == max(deviations)


def test_declared_stencils_give_sparse_columns_of_wide_grids():
    # 15 qubits: N = 8192, and the declared stencils give sparse basis
    # columns without forming any N-row array
    enc = encode_laplace_dd(1, 13)
    assert enc.system_dim == 8192
    row, col, stencil = enc.blocks[0]
    assert (row, col) == (0, 0)
    k, rows, values = stencil_columns(stencil, np.arange(100, 104, dtype=np.uint64))
    for pos in range(4):
        got = {int(r): v for kk, r, v in zip(k, rows, values) if kk == pos}
        assert got == {99 + pos: 0.25, 100 + pos: -0.5, 101 + pos: 0.25}


@pytest.mark.parametrize("case", list(builds_up_to(8)), ids=lambda case: build(*case).label)
def test_round_trip_residual_matches_dense_gram_for_a_non_unitary_h(case, monkeypatch):
    import fdblock.circuit as circuit_mod

    enc = build(*case)
    monkeypatch.setattr(circuit_mod, "_RSQRT2", 0.7071)
    report = verify_pattern(enc, 1e-12)
    dense = unitarity_residual(unitary(enc.circuit))
    assert dense > 1e-6
    assert report.unitarity_residual == pytest.approx(dense, rel=1e-9)
    assert not report.passed


def test_round_trip_counts_an_absent_diagonal_entry_as_zero(monkeypatch):
    # with H scaled to 0 every sparse column empties out, so U^dagger U
    # has no diagonal entries at all, like the dense Gram of a zero block
    import fdblock.circuit as circuit_mod

    enc = encode_laplace_dd(1, 2)
    monkeypatch.setattr(circuit_mod, "_RSQRT2", 0.0)
    report = verify_pattern(enc, 1e-12)
    assert report.unitarity_residual == unitarity_residual(unitary(enc.circuit)) == 1.0
    assert not report.passed


def brute_gap(cubes, expected, k, n, row=0, col=0):
    """_move_gap's definition, input by input: every column of block (row, col)."""
    found = {}
    for j in range(1 << k):
        full = (col << k) | j
        for care, val, xor, amp in cubes:
            out = full ^ xor
            if full & care != val or out >> k != row:
                continue
            move = sum(((out >> s) - (j >> s)) % (1 << n) << s for s in range(0, k, n))
            assert (j, move) not in found
            found[j, move] = amp
    wanted = {(j, move): value for j in range(1 << k) for move, value in expected.items()}
    gaps = [abs(found.get(key, 0.0) - wanted.get(key, 0.0)) for key in found.keys() | wanted.keys()]
    return max(gaps, default=0.0)


def test_max_gap_counts_a_one_sided_entry_in_full():
    from fdblock.analysis import _move_gap

    # two bits, one field: the cube (0b01, 0b01) holds inputs 1 and 3;
    # an expected move has its one value on all four inputs, and xor
    # 0b10 flips the field's top bit, the move 2 on every input
    base = [(0b01, 0b01, 0, 1.0), (0b01, 0b00, 0, 1.0), (0, 0, 0b10, 0.5j)]
    expected = {0: 1.0, 2: 0.5j}
    assert _move_gap(base, expected, 2, 2) == 0.0
    assert _move_gap(base, {0: 1.0, 2: 0.25j}, 2, 2) == 0.25
    # an entry that nothing expects, and an expected one never found
    assert _move_gap([*base, (0b11, 0b00, 0b01, -0.75)], expected, 2, 2) == 0.75
    assert _move_gap(base, {**expected, 3: 2.0j}, 2, 2) == 2.0
    # the same cube at another move is another entry
    assert _move_gap([(0, 0, 0, 1.0)], {1: 1.0}, 2, 2) == 1.0
    # an expected move that the found cubes cover in part counts in full
    assert _move_gap([(0b10, 0b10, 0, 1.0)], {0: 1.0}, 2, 2) == 1.0
    quarters = [(0b11, v, 0, 1.0) for v in range(4)]
    assert _move_gap(quarters, {0: 1.0}, 2, 2) == 0.0
    nan = [(0b01, 0b01, 0, complex(math.nan, 0.0)), *base[1:]]
    assert math.isnan(_move_gap(nan, expected, 2, 2))
    assert math.isnan(_move_gap(base, {0: math.nan, 2: 0.5j}, 2, 2))
    # laplace D=1 n=2: xor 0b01 on a free low bit moves even inputs by
    # +1 and odd ones by -1, and the carries 0b11 complete both moves
    lap = [(0, 0, 0, -0.5), (0, 0, 0b01, 0.25), (0b01, 0b01, 0b11, 0.25), (0b01, 0, 0b11, 0.25)]
    assert _move_gap(lap, {0: -0.5, 1: 0.25, 3: 0.25}, 2, 2) == 0.0
    # an odd t = (xor - move) mod 4 hits no piece: nothing makes move 2
    assert _move_gap(lap, {0: -0.5, 1: 0.25, 2: 0.0, 3: 0.25}, 2, 2) == 0.0
    # every piece of the joined cube misses: it counts once, in full
    assert _move_gap(lap, {0: -0.5, 2: 0.0}, 2, 2) == 0.25
    # D=3, n=2: +1 on axes 0 and 2 (move 0b01_00_01) from one cube per
    # pair of low bits, each flipping the top bit of a field it carries into
    plus = [
        (0b010001, b << 4 | a, (1 | 2 * b) << 4 | 1 | 2 * a, 0.5) for a in (0, 1) for b in (0, 1)
    ]
    assert _move_gap(plus, {0b010001: 0.5}, 6, 2) == 0.0
    assert _move_gap(plus, {0b010001: 0.5, 0b000001: 0.0}, 6, 2) == 0.0
    assert _move_gap(plus[:3], {0b010001: 0.5}, 6, 2) == 0.5
    assert _move_gap(plus, {0b010011: 0.5}, 6, 2) == 0.5


def test_by_move_keeps_block_entries_and_keys_them_by_move():
    from fdblock.analysis import _move_gap

    # one ancilla bit above a 3-bit field (k = n = 3, N = 8); an entry
    # (care, val, xor, amp) sends each input j of its cube to j ^ xor;
    # the entries of each case make whole moves, on all eight grid
    # inputs of their column, so that a gap of 0 shows every move found
    anc = 0b1000
    # fixed ancilla input bits that miss col drop the entry
    on_one = [(anc, anc, 0, 0.5)]
    assert _move_gap(on_one, {}, 3, 3, 0, 0) == 0.0
    assert _move_gap(on_one, {0: 0.5}, 3, 3, 0, 0) == 0.5
    assert _move_gap(on_one, {0: 0.5}, 3, 3, 1, 1) == 0.0
    # the output row (val ^ xor) >> k, not the input's, picks the block
    to_one = [(anc, 0, anc, 0.5)]
    assert _move_gap(to_one, {0: 0.5}, 3, 3, 0, 0) == 0.5
    assert _move_gap(to_one, {0: 0.5}, 3, 3, 1, 0) == 0.0
    # a free ancilla input bit is cut to col
    free = [(0, 0, 0, 0.5)]
    assert _move_gap(free, {0: 0.5}, 3, 3, 0, 1) == 0.5
    assert _move_gap(free, {0: 0.5}, 3, 3, 1, 1) == 0.0
    assert _move_gap(free, {0: 0.5}, 3, 3, 0, 0) == 0.0
    # laplace D=1's joined cube: the low bit free and flipped sends 0 to
    # 1 and 1 to 0, so its pieces make the moves +1 and N - 1; the carry
    # cubes complete both moves
    plus = [(anc | 0b011, 0b001, 0b011), (anc | 0b011, 0b011, 0b111)]
    minus = [(anc | 0b011, 0b010, 0b011), (anc | 0b011, 0b000, 0b111)]
    joined = [(anc, 0, 1, 0.25)] + [(c, v, x, 0.25) for c, v, x in plus + minus]
    assert _move_gap(joined, {1: 0.25, 7: 0.25}, 3, 3) == 0.0
    assert _move_gap(joined, {1: 0.25, 7: 0.5}, 3, 3) == 0.25
    assert _move_gap(joined[1:], {1: 0.25, 7: 0.25}, 3, 3) == 0.25
    # a flipped top bit is +-4, one move mod 8: the cube stays whole
    top = [(anc, 0, 0b100, 0.25)]
    assert _move_gap(top, {4: 0.25}, 3, 3) == 0.0
    # an xor bit on a fixed (quantum) bit moves the output too: -2 where
    # it is set, and the top bit's carry completes move 6 where it is not
    fixed = [(anc | 0b010, 0b010, 0b010, 0.25), (anc | 0b010, 0, 0b110, 0.25)]
    assert _move_gap(fixed, {6: 0.25}, 3, 3) == 0.0
    assert _move_gap(fixed[:1], {2: 0.0, 6: 0.25}, 3, 3) == 0.25
    # with k the full width the ancilla is part of the move
    assert _move_gap([(0, 0, anc, 0.5)], {8: 0.5}, 4, 4) == 0.0
    assert _move_gap(to_one, {8: 0.5}, 4, 4) == 0.5


@pytest.mark.parametrize("k,n", [(2, 2), (3, 3), (4, 2), (6, 2), (6, 3), (3, 1)])
def test_move_gap_equals_the_gap_listed_input_by_input(k, n):
    # seeded entries of distinct xor, so that no (input, move) repeats,
    # against every input of the block; one ancilla bit above the grid
    from fdblock.analysis import _move_gap

    rng = np.random.default_rng(k * 10 + n)
    width = k + 1
    for _ in range(40):
        xors = rng.choice(1 << width, size=int(rng.integers(1, 6)), replace=False)
        cubes = []
        for xor in xors:
            care = int(rng.integers(0, 1 << width))
            val = int(rng.integers(0, 1 << width)) & care
            cubes.append((care, val, int(xor), complex(int(rng.integers(1, 4)) * 0.25)))
        moves = rng.choice(1 << k, size=int(rng.integers(0, 4)), replace=False)
        expected = {int(m): complex(int(rng.integers(0, 4)) * 0.25) for m in moves}
        for row, col in ((0, 0), (0, 1), (1, 0), (1, 1)):
            got = _move_gap(cubes, expected, k, n, row, col)
            assert got == brute_gap(cubes, expected, k, n, row, col), (cubes, expected, row, col)


def shift_encoding(move, n, coeff):
    """A bare n-qubit circuit adding move to j, from increments by 2**b, declared as coeff."""
    gates = []
    for b in range(n):
        if move >> b & 1:
            gates += _shift_gates(+1, n - b, 0, ())
    stencil = Stencil(GridSpec(1, n), ((0, -move, coeff),))
    return BlockEncoding(Circuit(n, tuple(gates)), 0, 1.0, f"shift {move:#x}", ((0, 0, stencil),))


def pair_swap(n):
    """An X on the lowest grid wire, declared as the one move +1 at 0.5.

    j ^ 1 moves even j by +1 and odd j by -1, so the one entry's free
    flipped bit cuts it in two pieces, only one of which makes the
    declared move: the other's amplitude 1 is the deviation.
    """
    stencil = Stencil(GridSpec(1, n), ((0, -1, 0.5),))
    return BlockEncoding(Circuit(n, (Gate("X", n - 1),)), 0, 1.0, f"pair swap n={n}", ((0, 0, stencil),))


def test_verify_compares_an_alternating_move_as_one_entry():
    # adding 0x555, whose bits alternate, splits the columns into many
    # carry classes, and each of them makes the same move
    report = verify_pattern(shift_encoding(0x555, 12, 1.0), 1e-12)
    assert report.passed, report.summary()
    wrong = shift_encoding(0x555, 12, 0.75)
    report = verify_pattern(wrong, 1e-12)
    assert report.max_deviation == 0.25 and report.unitarity_residual == 0.0
    assert not report.passed


def test_verify_fails_on_an_alternating_term_at_the_exhaustive_cap():
    # laplace_1d n=16 has 18 qubits; an extra declared term at offset
    # 0x5555 is a move that the circuit never makes
    enc = encode_laplace_dd(1, 16)
    row, col, lap = enc.blocks[0]
    extra = Stencil(lap.spec, (*lap.terms, (0, 0x5555, 1.0)), lap.divisor)
    report = verify_pattern(with_blocks(enc, ((row, col, extra), *enc.blocks[1:])), 1e-12)
    assert report.max_deviation == enc.alpha * abs(1.0 / lap.divisor)
    assert report.unitarity_residual < 1e-12 and not report.passed


def test_a_nan_stencil_coefficient_fails_verification():
    enc = encode_derivative_1d(3)
    row, col, stencil = enc.blocks[0]
    nan = Stencil(stencil.spec, ((0, 1, math.nan), *stencil.terms[1:]), stencil.divisor)
    report = verify_pattern(with_blocks(enc, ((row, col, nan),)), 1e-12)
    assert math.isnan(report.max_deviation) and report.unitarity_residual < 1e-12
    assert not report.passed


def test_verify_simulates_each_column_once_forward_and_once_back(monkeypatch):
    # all 2**q columns run as cube entries once through the circuit and
    # once through its adjoint, and no numpy simulator runs at all
    import fdblock.analysis as analysis_mod
    import fdblock.circuit as circuit_mod

    from . import oracles

    calls = []
    original = analysis_mod.apply_cubes

    def counting(circuit, cubes):
        out = original(circuit, cubes)
        calls.append((circuit, cubes, out))
        return out

    monkeypatch.setattr(analysis_mod, "apply_cubes", counting)

    def refuse(*args, **kwargs):
        raise AssertionError("verification ran a numpy simulator")

    for module, name in (
        (oracles, "apply"),
        (oracles, "_mix"),
        (oracles, "apply_sparse"),
    ):
        monkeypatch.setattr(module, name, refuse)
    enc = encode_wave_2d(3)
    nq = enc.circuit.num_qubits
    assert verify_pattern(enc, 1e-12).passed
    (forward, basis, out), (backward, cubes, _) = calls
    assert forward == enc.circuit and backward == circuit_mod.adjoint(enc.circuit)
    assert sum(1 << (nq - care.bit_count()) for care, *_ in basis) == enc.circuit.dim
    assert cubes is out


def test_verify_passes_at_seventeen_qubits():
    # N = 2**16 grid points, so a dense block would hold 2**32 entries;
    # verify compares cube entries by move, whose count does not grow with N
    enc = encode_derivative_1d(16)
    assert enc.circuit.num_qubits == 17
    report = verify_pattern(enc, 1e-12)
    assert report.passed, report.summary()


def test_verify_pattern_needs_declared_blocks():
    enc = BlockEncoding(Circuit(2), 1, 1.0, "mystery n=1")
    with pytest.raises(ParameterError):
        verify_pattern(enc, 1e-12)
    gf = GridFunction(GridSpec(1, 1), np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ParameterError):
        success_probability(enc, gf, "matrix")


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_verify_pattern_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    # a FAIL report would read as a verified failure of a correct circuit
    with pytest.raises(ParameterError, match="tolerance must be finite and positive"):
        verify_pattern(encode_derivative_1d(2), tol)


@pytest.mark.parametrize("n", range(3, 9))
def test_success_probability_sine_closed_form(n):
    # the sampled sine is an exact eigenvector of the circulant, with
    # eigenvalue -sin^2(pi h); probability is its fourth power
    enc = encode_laplace_dd(1, n)
    p = success_probability(enc, grid_fn("sin1", 1, n), "circuit")
    assert abs(p - math.sin(math.pi / (1 << n)) ** 4) < 1e-12


def test_success_probability_constant_function_is_zero():
    enc = encode_laplace_dd(1, 4)
    gf = sample_function(lambda x: np.ones_like(x), GridSpec(1, 4))
    assert success_probability(enc, gf, "circuit") < 1e-25
    assert success_probability(enc, gf, "matrix") < 1e-25


def test_success_probability_cos3_constant():
    # closed form sin^4(3 pi h): still 5.6% below the asymptotic constant
    # at n=5, inside 5% from n=6 on
    for n in (5, 6, 8):
        h = 1.0 / (1 << n)
        p = success_probability(encode_laplace_dd(1, n), grid_fn("cos3", 1, n), "circuit")
        assert abs(p - math.sin(3 * math.pi * h) ** 4) < 1e-13
        rel = abs(p / h**4 - 81 * math.pi**4) / (81 * math.pi**4)
        assert rel < (0.06 if n == 5 else 0.05)


def spread_over_the_grid():
    """laplace D=1 n=14 behind an H on every grid wire."""
    enc = encode_laplace_dd(1, 14)
    spread = tuple(Gate("H", w) for w in range(enc.m, 16)) + enc.circuit.gates
    return BlockEncoding(Circuit(16, spread), enc.m, enc.alpha, enc.label)


def test_circuit_route_refuses_a_circuit_beyond_the_entry_budget():
    # an H on every grid wire makes all 16 wires quantum, so every cube
    # is one column, and each H doubles them until they pass the budget
    with pytest.raises(SizeError, match="cube entries exceed the budget of 65536"):
        success_probability(spread_over_the_grid(), grid_fn("sin1", 1, 14), "circuit")


def counting_simulations(monkeypatch):
    """A list that gets one item per call of the circuit route's cube simulator."""
    import fdblock.analysis as analysis_mod

    calls = []
    original = analysis_mod.apply_cubes

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(analysis_mod, "apply_cubes", counting)
    return calls


def test_circuit_route_simulates_an_encoding_once(monkeypatch):
    # the ancilla-zero block does not depend on v: three vectors on one
    # encoding object run the cube simulator once, and give its p
    calls = counting_simulations(monkeypatch)
    enc = encode_laplace_dd(2, 4)
    for gf in (*unit_grid_functions(GridSpec(2, 4), 7), grid_fn("sinprod", 2, 4)):
        p = success_probability(enc, gf, "circuit")
        assert p.hex() == unplanned_success_probability(enc, gf.values).hex()
    assert calls == [enc.circuit]


def test_circuit_route_simulates_each_encoding_object(monkeypatch):
    # the plan is kept by identity, never by value: an equal build pays
    # for its own run, and so does an encoding after another one
    calls = counting_simulations(monkeypatch)
    first, second = encode_laplace_dd(1, 6), encode_laplace_dd(1, 6)
    assert first == second and first is not second
    gf = grid_fn("cos3", 1, 6)
    p = [success_probability(enc, gf, "circuit") for enc in (first, second, second, first)]
    assert len(calls) == 3 and p[0] == p[1] == p[2] == p[3]


def test_circuit_route_keeps_nothing_from_a_refused_circuit(monkeypatch):
    # a SizeError leaves no plan behind: the encoding raises again
    calls = counting_simulations(monkeypatch)
    wide = spread_over_the_grid()
    gf = grid_fn("sin1", 1, 14)
    for _ in range(2):
        with pytest.raises(SizeError, match="cube entries exceed the budget of 65536"):
            success_probability(wide, gf, "circuit")
    assert calls == [wide.circuit, wide.circuit]


def dense_success_probability(enc, values):
    """Zero-ancilla mass of the dense oracle's run of the encoding on |0>|v>."""
    state = np.zeros(enc.circuit.dim, dtype=complex)
    state[: enc.system_dim] = values
    return float(np.sum(np.abs(apply(enc.circuit, state)[: enc.system_dim]) ** 2))


def unit_grid_functions(spec, seed):
    """A random complex unit vector, and a real one held as complex128 with zero imaginary part."""
    rng = np.random.default_rng(seed)
    size = spec.npoints
    complex_gf = GridFunction.from_samples(spec, rng.normal(size=size) + 1j * rng.normal(size=size))
    real_gf = GridFunction.from_samples(spec, rng.normal(size=size))
    assert real_gf.values.dtype == np.complex128 and not real_gf.values.imag.any()
    return complex_gf, real_gf


def off_shift(n, kind):
    """laplace D=1 with one of five gate prefixes that break its shift form."""
    enc = encode_laplace_dd(1, n)
    nq = enc.circuit.num_qubits
    mid = enc.m + n // 2
    prefix = {
        "reflection": [Gate("X", w) for w in range(enc.m, nq)],
        "half reflection": [Gate("X", w) for w in range(mid, nq)],
        "system H": [Gate("H", mid)],
        "system RY": [Gate("RY", nq - 1, theta=0.7)],
        "controlled X": [Gate("X", nq - 1, ((mid, 1),))],
    }[kind]
    circuit = Circuit(nq, tuple(prefix) + enc.circuit.gates)
    return BlockEncoding(circuit, enc.m, enc.alpha, f"{kind} n={n}", enc.blocks)


OFF_SHIFT = ("reflection", "half reflection", "system H", "system RY", "controlled X")


# laplace (dim, n) past the exhaustive cap, and with m = 5 and 6 ancillas
WIDE_LAPLACE = ((3, 5), (4, 4), (5, 3), (8, 2), (12, 1), (16, 1))


def route_row(enc, dim, n, probes="random"):
    """A row of the circuit-route table: the encoding, its grid and its vectors' families."""
    return pytest.param(enc, dim, n, probes, id=f"{enc.label} {probes}")


# The circuit-route table: one row per encoding, with its vectors.  A
# row's probes are families of FAMILIES, or "random" for the two
# unit_grid_functions of seed 100 * dim + n, whose p is of order one
# where the smooth probes give p ~ h**4.
ROUTE_ROWS = [
    # every build within 8 qubits, with sin1 and cos3 in 1-d, sinprod above
    *(
        route_row(build(op, dim, n), dim, n, "sin1 cos3" if dim == 1 else "sinprod")
        for op, dim, n in builds_up_to(8)
    ),
    # simulate-18q's sizes: each build at its widest grid within EXHAUSTIVE_QUBITS, 16-18 q
    *(
        route_row(build(op, dim, n), dim, n)
        for op, dim, n in widest_builds(EXHAUSTIVE_QUBITS, VECTOR_DIM_CAP)
    ),
    *(route_row(encode_laplace_dd(dim, n), dim, n) for dim, n in WIDE_LAPLACE),
    # the banded stencil that the builder declares
    *(route_row(encode_banded_lcu(n, 0.65, -0.4, 0.15), 1, n, "sin1") for n in (3, 5)),
    # 18 q off the shift form, with no declared blocks
    *(
        route_row(with_blocks(off_shift(16, kind), ()), 1, 16)
        for kind in ("reflection", "system H", "system RY")
    ),
]


@pytest.mark.parametrize("enc,dim,n,probes", ROUTE_ROWS)
def test_circuit_route_table(enc, dim, n, probes):
    # p has the bits of the unplanned loop: transposed views and
    # |out|**2 in place change none.  It meets the matrix route where
    # blocks are declared, and the dense oracle up to its cap.  wave's
    # (0,0) block is zero, so its circuit must leave the branch empty.
    spec = GridSpec(dim, n)
    if probes == "random":
        gfs = unit_grid_functions(spec, 100 * dim + n)
    else:
        gfs = [grid_fn(family, dim, n) for family in probes.split()]
    for gf in gfs:
        p = success_probability(enc, gf, "circuit")
        assert p.hex() == unplanned_success_probability(enc, gf.values).hex()
        if enc.blocks:
            p_matrix = success_probability(enc, gf, "matrix")
            assert abs(p - p_matrix) < 1e-14
            if probes == "random":
                assert (p_matrix == 0.0) if enc.label.startswith("wave_2d") else (p_matrix > 1e-2)
        if enc.circuit.num_qubits <= EXHAUSTIVE_QUBITS:
            assert abs(p - dense_success_probability(enc, gf.values)) < 1e-14
    # a first writer's outputs, read off its target view, meet no earlier
    # entry's, every other entry's meet some, and the output skips its
    # zero fill exactly when the first writers write all of it
    plan, covered = _zero_views(enc)
    N = enc.system_dim
    written = np.zeros(N, dtype=bool)
    stored = np.zeros(N, dtype=bool)
    for shape, _, target, _, _, first in plan:
        outputs = np.arange(N).reshape(shape)[target]
        assert first == (not written[outputs].any())
        written[outputs] = True
        stored[outputs] |= first
    assert covered == stored.all()


def test_route_and_verify_rows_are_the_cases_they_name():
    # the wide laplace rows: widths, and the number of ancillas
    wide = [encode_laplace_dd(dim, n) for dim, n in WIDE_LAPLACE]
    assert [(enc.circuit.num_qubits, enc.m) for enc in wide] == [
        (19, 4), (20, 4), (20, 5), (21, 5), (18, 6), (22, 6)
    ]
    assert all(off_shift(12, kind).circuit.num_qubits == 14 for kind in OFF_SHIFT)
    # the reflection flips every free grid bit of its cubes, so a view
    # runs backwards over a whole run of N; H and RY on a grid wire make
    # system bits quantum, which the cubes fix
    reflection = off_shift(16, "reflection")
    reversed_runs = [
        size
        for shape, _, target, *_ in _zero_views(reflection)[0]
        for size, index in zip(shape, target)
        if index == slice(None, None, -1)
    ]
    assert max(reversed_runs) == reflection.system_dim
    for kind in ("system H", "system RY"):
        enc = off_shift(16, kind)
        assert quantum_bits(enc.circuit) & (enc.system_dim - 1)


def test_success_probability_leaves_the_grid_values_unchanged():
    enc = encode_laplace_1d_lcu(4)
    gf = grid_fn("cos3", 1, 4)
    before = gf.values.copy()
    for route in ("circuit", "matrix"):
        success_probability(enc, gf, route)
        assert np.array_equal(gf.values, before)


def test_circuit_route_runs_in_place_on_its_own_state():
    # at 18 qubits the dense state |0>|v> takes 4 MiB; the cube route
    # holds only an output and one scratch array of N entries, a quarter
    # of that each.  The value is the dense oracle's, to the last bit.
    import tracemalloc

    enc = encode_laplace_dd(1, 16)
    spec = GridSpec(1, 16)
    rng = np.random.default_rng(16)
    gf = GridFunction.from_samples(spec, rng.normal(size=spec.npoints) + 1j * rng.normal(size=spec.npoints))
    tracemalloc.start()
    try:
        p = success_probability(enc, gf, "circuit")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state = np.zeros(enc.circuit.dim, dtype=complex)
    state[: spec.npoints] = gf.values
    assert peak < 2 * state.nbytes
    assert p == float(np.sum(np.abs(apply(enc.circuit, state)[: spec.npoints]) ** 2))


def test_success_probability_rejects_bad_route_and_dims():
    enc = encode_laplace_dd(1, 3)
    with pytest.raises(ParameterError):
        success_probability(enc, grid_fn("sin1", 1, 3), "magic")
    with pytest.raises(ShapeError):
        success_probability(enc, grid_fn("sin1", 1, 4))


def test_orthogonal_remainder_sums_to_one():
    # mass in the zero-ancilla block plus mass in all other ancilla
    # branches is exactly the (preserved) input norm
    n = 3
    enc = encode_laplace_dd(1, n)
    gf = grid_fn("sin1", 1, n)
    state = np.zeros(enc.circuit.dim, dtype=complex)
    state[: enc.system_dim] = gf.values
    out = apply(enc.circuit, state)
    p = float(np.sum(np.abs(out[: enc.system_dim]) ** 2))
    rest = float(np.sum(np.abs(out[enc.system_dim :]) ** 2))
    assert abs(p + rest - 1.0) < 1e-12
    assert abs(p - success_probability(enc, gf, "circuit")) < 1e-15


def test_fd_error_constant_field_is_zero():
    spec = GridSpec(1, 4)
    raw = sample_grid(lambda x: np.ones_like(x), spec)
    assert not np.any(laplacian_stencil(spec).apply(raw))


@pytest.mark.parametrize("n", range(4, 9))
def test_fd_error_bounds(n):
    h = 1.0 / (1 << n)
    (row1,) = sweep_success_probability(1, [n], "sin1")
    (row2,) = sweep_success_probability(1, [n], "cos3")
    assert row1.e_max <= (4.0 * math.pi**4 / 3.0) * h**2
    assert row2.e_max <= 108.0 * math.pi**4 * h**2


def test_sin1_is_sinprod_in_one_dimension():
    sin1, sinprod = FAMILIES["sin1"], FAMILIES["sinprod"]
    x = np.concatenate([np.arange(64) / 64, np.random.default_rng(5).random(16)])
    assert np.array_equal(sin1.field(1)(x), sinprod.field(1)(x))
    assert sin1.laplacian_factor(1) == sinprod.laplacian_factor(1)
    assert sin1.constant(1) == sinprod.constant(1)


def test_fd_error_halving_ratio_near_four():
    for family in ("sin1", "cos3"):
        rows = sweep_success_probability(1, range(4, 9), family)
        errors = {row.n: row.e_max for row in rows}
        for n in range(4, 8):
            ratio = errors[n] / errors[n + 1]
            assert 3.6 <= ratio <= 4.4


def test_sweep_predicted_constants():
    rows3 = sweep_success_probability(3, [2], "sinprod")
    assert rows3[0].p_predicted == pytest.approx(
        (9.0 / 16.0) * math.pi**4 * rows3[0].h**4, rel=1e-15
    )
    for dim, n in ((1, 3), (2, 2), (4, 1)):
        rows = sweep_success_probability(dim, [n], "sinprod")
        assert rows[0].p_predicted == pytest.approx(math.pi**4 * rows[0].h**4, rel=1e-15)


def test_sweep_matches_closed_form_and_halving_ratio():
    rows = sweep_success_probability(1, range(4, 9), "sin1")
    for row in rows:
        assert abs(row.p_success - math.sin(math.pi * row.h) ** 4) < 1e-15
    for a, b in zip(rows, rows[1:]):
        ratio = a.p_success / b.p_success
        # oracle: sin^4(pi h)/sin^4(pi h/2) = 16 cos^4(pi h / 2)
        oracle = 16.0 * math.cos(math.pi * a.h / 2.0) ** 4
        assert ratio == pytest.approx(oracle, rel=1e-12)
        assert abs(ratio - 16.0) / 16.0 < 0.05


# At N = 2, sin(2 pi x) samples to 0 and 1.2e-16, so the normalized probe
# is rounding noise, a delta at (1/2, ..., 1/2): (dim, n) -> (p_success,
# its closed form).
ROUNDING_NOISE_ROWS = {(2, 1): (0.375, 1.0), (3, 1): (0.1875, 0.5625), (4, 1): (0.3125, 1.0)}


def test_reference_sweeps_match_their_closed_forms(bench):
    # p_success within a relative 2 eps / sin^2(pi k h), e_max within
    # 32 D eps / h^2 (measured: 1.0 and 14.2), on every row of the
    # reference sweeps but the three rounding-noise rows, which must miss
    # the p_success bound
    _, _, run = bench
    eps = 2.0**-52
    rows = noise = 0
    for job in run.TABLES_JOBS:
        if job.command != "sweep":
            continue
        family = job.family or "sinprod"
        fam = FAMILIES[family]
        with open(run.REFERENCE_DIR / job.output_name, newline="") as table:
            for row in csv.DictReader(table):
                rows += 1
                dim, n = int(row["D"]), int(row["n"])
                h, alpha = float(row["h"]), float(row["alpha"])
                p_row, e_row = float(row["p_success"]), float(row["e_max"])
                raw = sample_grid(fam.field(dim), GridSpec(dim, n))
                e_max = closed_form_e_max(dim, fam.k, h, raw)
                assert abs(e_row - e_max) <= 32 * dim * eps / h**2, (job.name, n)
                p_success = closed_form_p_success(alpha, fam.k, h)
                gap = abs(p_row - p_success) / p_success
                bound = 2 * eps / math.sin(math.pi * fam.k * h) ** 2
                if (job.op, family) == ("laplace", "sinprod") and (dim, n) in ROUNDING_NOISE_ROWS:
                    noise += 1
                    assert (p_row, p_success) == ROUNDING_NOISE_ROWS[dim, n]
                    assert gap > bound
                else:
                    assert gap <= bound, (job.name, n, gap / bound)
    assert (rows, noise) == (45, 3)


def test_sweep_lcu_is_sixteen_times_smaller():
    base = sweep_success_probability(1, [4, 5], "sin1", op="laplace")
    comp = sweep_success_probability(1, [4, 5], "sin1", op="lcu")
    for b, c in zip(base, comp):
        assert b.p_success / c.p_success == pytest.approx(16.0, abs=1e-9)
        assert b.p_predicted / c.p_predicted == pytest.approx(16.0, rel=1e-15)


def test_sweep_rejects_bad_requests():
    with pytest.raises(ParameterError):
        sweep_success_probability(1, [], "sin1")
    with pytest.raises(ParameterError):
        sweep_success_probability(2, [2], "sin1")
    with pytest.raises(ParameterError):
        sweep_success_probability(2, [2], "sinprod", op="lcu")
    with pytest.raises(ParameterError):
        sweep_success_probability(1, [2], "nope")


def test_sweep_samples_each_field_once_and_matches_the_public_routes(monkeypatch):
    import fdblock.operators as operators_mod

    calls = []
    original = operators_mod.sample_grid

    def counting(f, spec):
        calls.append(spec)
        return original(f, spec)

    monkeypatch.setattr(operators_mod, "sample_grid", counting)
    for name, fam in FAMILIES.items():
        for dim in fam.dims or (1, 2, 3):
            ns = [1, 2, 3] if dim > 1 else [1, 4, 7]
            calls.clear()
            rows = sweep_success_probability(dim, ns, name)
            assert len(calls) == len(ns)
            for row in rows:
                spec = GridSpec(dim, row.n)
                raw = sample_grid(fam.field(dim), spec)
                lap = laplacian_stencil(spec).apply(raw)
                exact = fam.laplacian_factor(dim) * raw
                assert row.e_max == float(np.max(np.abs(lap - exact)))
                gf = sample_function(fam.field(dim), spec)
                enc = encode_laplace_dd(dim, row.n)
                assert row.p_success == success_probability(enc, gf, "matrix")


def test_sweep_csv_schema_and_determinism():
    rows = sweep_success_probability(1, [3, 4], "sin1")
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER == "D,n,h,N_D,p_success,p_predicted,e_max,alpha"
    assert len(lines) == 3
    assert text == sweep_csv(sweep_success_probability(1, [3, 4], "sin1"))
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "3" and first[3] == "8"
    assert float(first[2]) == 0.125


def test_scaled_action_asymptote_matches_quadrature_oracle():
    # the grid 2-norm of the scaled action, divided by h^2, approaches
    # (1/(4 dim)) * ||exact Laplacian|| / ||field|| in L2; the reference
    # norms come from a 10x oversampled trapezoid quadrature
    cases = [("sin1", 1, 6), ("cos3", 1, 6), ("sinprod", 2, 6)]
    for family, dim, n in cases:
        fam = FAMILIES[family]
        spec = GridSpec(dim, n)
        gf = sample_function(fam.field(dim), spec)
        measured = float(
            np.linalg.norm(scaled_laplacian_stencil(spec).apply(gf.values))
        ) / spec.h**2
        field, factor = fam.field(dim), fam.laplacian_factor(dim)
        num = trapezoid_l2_norm(lambda *x: factor * field(*x), dim, 10 * spec.N)
        den = trapezoid_l2_norm(fam.field(dim), dim, 10 * spec.N)
        oracle = num / den / (4.0 * dim)
        assert abs(measured - oracle) / oracle < 0.02


def test_scaled_action_asymptote_3d_separable_quadrature():
    # dim = 3 at 10x oversampling uses the product structure of the field
    # to keep the quadrature one-dimensional per axis
    dim, n = 3, 5
    fam = FAMILIES["sinprod"]
    spec = GridSpec(dim, n)
    gf = sample_function(fam.field(dim), spec)
    measured = float(np.linalg.norm(scaled_laplacian_stencil(spec).apply(gf.values))) / spec.h**2
    factor = lambda x: np.sin(2.0 * np.pi * x)
    den = separable_trapezoid_l2_norm([factor] * dim, 10 * spec.N)
    num = dim * (2.0 * math.pi) ** 2 * den
    oracle = num / den / (4.0 * dim)
    assert abs(measured - oracle) / oracle < 0.02


def test_dense_single_columns_match_the_stencil_at_sixteen_qubits():
    # D=4, n=3 has 16 qubits, too many for a full unitary; six dense
    # single-column runs must still reproduce the stencil reference
    enc = encode_laplace_dd(4, 3)
    spec = GridSpec(4, 3)
    N = enc.system_dim
    rng = np.random.default_rng(8)
    for j in rng.integers(0, N, size=6):
        state = np.zeros(enc.circuit.dim, dtype=complex)
        state[int(j)] = 1.0
        out = apply(enc.circuit, state)[:N]
        e = np.zeros(N)
        e[int(j)] = 1.0
        ref = enc.alpha * scaled_laplacian_stencil(spec).apply(e)
        assert max_abs_diff(out, ref) < 1e-12


def test_entry_budget_only_refuses_work(monkeypatch):
    # the entry budget only refuses work: at the least budget that
    # verifies, the report is unchanged; one below, verify raises and
    # names the count it reached
    import fdblock.circuit as circuit_mod

    enc = encode_laplace_dd(2, 2)
    report = verify_pattern(enc, 1e-12)
    low, high = 1, circuit_mod.MAX_CUBES
    while low < high:
        monkeypatch.setattr(circuit_mod, "MAX_CUBES", (low + high) // 2)
        try:
            verify_pattern(enc, 1e-12)
            high = (low + high) // 2
        except SizeError:
            low = (low + high) // 2 + 1
    monkeypatch.setattr(circuit_mod, "MAX_CUBES", low)
    assert verify_pattern(enc, 1e-12) == report
    monkeypatch.setattr(circuit_mod, "MAX_CUBES", low - 1)
    with pytest.raises(SizeError, match=f": {low} cube entries exceed the budget of {low - 1}$"):
        verify_pattern(enc, 1e-12)


def test_verify_refuses_a_circuit_beyond_the_entry_budget():
    # an H on every grid wire makes all 16 wires quantum: every cube is
    # one column, and the first H doubles them past the budget at once
    enc = encode_laplace_dd(1, 14)
    spread = tuple(Gate("H", w) for w in range(enc.m, 16)) + enc.circuit.gates
    with pytest.raises(SizeError, match="gate 0: 131072 cube entries exceed the budget of 65536"):
        verify_pattern(
            BlockEncoding(Circuit(16, spread), enc.m, enc.alpha, enc.label, enc.blocks), 1e-12
        )


def test_verify_fails_a_reflection_at_the_build_cap():
    # 64 qubits, past the exhaustive oracle: the deviation is its 14-q twin's
    enc = off_shift(62, "reflection")
    assert enc.circuit.num_qubits == 64
    report = verify_pattern(enc, 1e-12)
    twin = verify_pattern(off_shift(12, "reflection"), 1e-12)
    assert report.max_deviation == twin.max_deviation == 0.7499999999999999
    assert report.unitarity_residual < 1e-12 and not report.passed


# Every op at the 63-64 qubit build cap: (op, dim, n).
BUILD_CAPS = widest_builds(MAX_BUILD_QUBITS)


@pytest.mark.parametrize("op,dim,n", BUILD_CAPS)
def test_cube_columns_equal_the_sparse_oracle_at_the_build_cap(op, dim, n):
    # past the exhaustive oracle, sampled columns run one at a time
    enc = build(op, dim, n)
    assert enc.circuit.num_qubits in (63, 64)
    cubes = apply_cubes(enc.circuit, basis_cubes(enc.circuit))
    columns = sample_columns(enc, 8, n)
    assert len(columns) >= 8 + 6 * 2**enc.m
    assert column_mismatches(enc.circuit, cubes, columns) == []


def test_column_mismatches_names_each_wrong_column():
    enc = encode_derivative_1d(63)
    cubes = apply_cubes(enc.circuit, basis_cubes(enc.circuit))
    columns = sample_columns(enc, 2, 0)
    j = columns[-1]
    care, val, xor, amp = first = next(c for c in cubes if j & c[0] == c[1])
    others = [c for c in cubes if c is not first]
    for wrong in (
        others,
        [*others, (care, val, xor, amp * 0.5)],
        [*others, (care, val, xor ^ 1, amp)],
        [*cubes, (care, val, xor, amp)],
    ):
        assert j in column_mismatches(enc.circuit, wrong, columns)


@pytest.mark.parametrize("op,dim,n", [c for c in BUILD_CAPS if c[0] in ("derivative", "wave")])
def test_verify_passes_at_the_build_cap(op, dim, n):
    # the cheapest caps; CI verifies all nine through the CLI
    report = verify_pattern(build(op, dim, n), 1e-12)
    assert report.passed, report.summary()


def mutant(enc, kind, rng):
    """enc with one seeded gate mutation of the given kind."""
    gates = list(enc.circuit.gates)
    nq = enc.circuit.num_qubits
    where = int(rng.integers(0, len(gates) + 1))
    if kind == "drop":
        del gates[int(rng.integers(0, len(gates)))]
    elif kind in ("flip", "uncontrol"):
        i = int(rng.choice([i for i, g in enumerate(gates) if g.controls]))
        controls = list(gates[i].controls)
        c = int(rng.integers(0, len(controls)))
        if kind == "flip":
            controls[c] = (controls[c][0], 1 - controls[c][1])
        else:
            del controls[c]
        gates[i] = gates[i]._replace(controls=tuple(controls))
    elif kind == "system H":
        gates.insert(where, Gate("H", int(rng.integers(enc.m, nq))))
    elif kind == "RY":
        gates.insert(where, Gate("RY", int(rng.integers(0, nq)), (), float(rng.uniform(-3, 3))))
    else:  # a 2-controlled X
        t, a, b = (int(w) for w in rng.permutation(nq)[:3])
        polarities = rng.integers(0, 2, size=2)
        gates.insert(where, Gate("X", t, ((a, int(polarities[0])), (b, int(polarities[1])))))
    return BlockEncoding(Circuit(nq, tuple(gates)), enc.m, enc.alpha, enc.label, enc.blocks)


def seeded_mutants():
    """48 gate mutants of the builds within 8 qubits of at least 3 wires, 8 of each kind."""
    rng = np.random.default_rng(1515)
    encs = [build(*case) for case in builds_up_to(8)]
    encs = [enc for enc in encs if enc.circuit.num_qubits >= 3]
    kinds = ("drop", "flip", "uncontrol", "system H", "RY", "2-controlled X")
    return [
        (kind, mutant(encs[int(rng.integers(0, len(encs)))], kind, rng))
        for kind in kinds
        for _ in range(8)
    ]


MUTANTS = seeded_mutants()


def verify_row(enc, passes, name=None):
    """A row of the verify table: the encoding, and whether it must PASS (None: either)."""
    return pytest.param(enc, passes, id=name or enc.label)


# The verify table.  Every build within 12 qubits, two more banded sets,
# laplace with m = 5 ancillas, which BUILDS stops short of, and an
# alternating shift must PASS; the off-shift circuits, whose flipped
# free bits cut the found cubes into pieces of many moves, the shift
# declared at the wrong coefficient, and the pair swap, whose one entry
# makes its declared move on half its inputs only, must FAIL; the
# mutants may do either.
VERIFY_ROWS = [
    *(verify_row(build(*case), True) for case in builds_up_to(12)),
    verify_row(encode_banded_lcu(6, 0.65, -0.4, 0.15), True),
    verify_row(encode_banded_lcu(8, 1.5, 0.3, -0.9), True),
    verify_row(encode_laplace_dd(5, 1), True),
    verify_row(encode_laplace_dd(7, 1), True),
    verify_row(shift_encoding(0x555, 12, 1.0), True),
    verify_row(shift_encoding(0x555, 12, 0.75), False, "shift 0x555 declared at 0.75"),
    verify_row(pair_swap(4), False, "X on grid bit 0 declared as move +1 at 0.5"),
    *(verify_row(off_shift(12, kind), False) for kind in OFF_SHIFT),
    *(
        verify_row(mut, None, f"mutant {i} {kind} of {mut.label}")
        for i, (kind, mut) in enumerate(MUTANTS)
    ),
]


@pytest.mark.parametrize("enc,passes", VERIFY_ROWS)
def test_verify_report_equals_the_sparse_oracle(enc, passes, monkeypatch):
    # verify compares by move and never applies a stencil to a dense panel
    def refuse(self, values):
        raise AssertionError("verification applied a stencil to a dense panel")

    with monkeypatch.context() as patch:
        patch.setattr(Stencil, "apply", refuse)
        report = verify_pattern(enc, 1e-12)
    assert repr(report) == repr(verify_sparse(enc, 1e-12))
    if passes is not None:
        assert report.passed == passes, report.summary()


def test_most_seeded_mutants_fail_verification():
    assert sum(not verify_pattern(mut, 1e-12).passed for _, mut in MUTANTS) >= 40
