import numpy as np
import pytest

from fdblock.errors import DegenerateInputError, ParameterError, ShapeError, SizeError
from fdblock.operators import (
    GridFunction,
    GridSpec,
    Stencil,
    first_order_stencil,
    grid_axes,
    laplacian_stencil,
    sample_function,
    sample_grid,
    scaled_laplacian_stencil,
)

from .oracles import (
    banded_circulant,
    brute_force_tensor_sum,
    central_difference_1d,
    first_order_tensorized,
    lambda_max,
    laplacian_1d,
    laplacian_dd,
    max_abs_diff,
    rolled_stencil_apply,
    scaled_laplacian_1d,
    scaled_laplacian_dd,
    stencil_columns,
    trapezoid_1d,
)


def test_laplacian_1d_row_at_n2():
    # h = 1/4: diagonal -2/h^2 = -32, neighbors 1/h^2 = 16 with wraparound
    row0 = laplacian_1d(2)[0]
    assert np.array_equal(row0, np.array([-32.0, 16.0, 0.0, 16.0], dtype=complex))


def test_laplacian_row_sums_vanish():
    for n in (1, 2, 3, 4):
        sums = laplacian_1d(n).sum(axis=1)
        assert max_abs_diff(sums, np.zeros_like(sums)) < 1e-9


def test_laplacian_symmetric():
    l = laplacian_1d(3)
    assert max_abs_diff(l, l.T) == 0.0


def test_scaled_laplacian_action_on_basis():
    # quarter on both neighbors, minus one half on the diagonal
    n = 3
    N = 1 << n
    lt = scaled_laplacian_1d(n)
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        out = lt @ e
        expected = np.zeros(N)
        expected[(j - 1) % N] += 0.25
        expected[j] -= 0.5
        expected[(j + 1) % N] += 0.25
        assert max_abs_diff(out, expected) < 1e-15


def test_scaled_laplacian_2d_neighbor_coefficients():
    n = 2
    N = 1 << n
    lt = scaled_laplacian_dd(2, n)
    j1, j0 = 1, 2
    col = j1 * N + j0
    e = np.zeros(N * N)
    e[col] = 1.0
    out = lt @ e
    expected = np.zeros(N * N)
    expected[col] = -0.5
    for d1, d0 in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        expected[((j1 + d1) % N) * N + (j0 + d0) % N] += 0.125
    assert max_abs_diff(out, expected) < 1e-15


def test_scaled_laplacian_most_negative_eigenvalue_is_minus_one():
    # circulant symbol -(1/D) sum_d sin^2(pi k_d / N) attains -1 at k_d = N/2
    for dim, n in ((1, 3), (2, 2)):
        eigs = np.linalg.eigvalsh(scaled_laplacian_dd(dim, n).real)
        assert abs(eigs.min() + 1.0) < 1e-12


def test_scaled_laplacian_spectral_norm_one_by_power_iteration():
    for dim, n in ((1, 4), (2, 2), (3, 1)):
        m = scaled_laplacian_dd(dim, n)
        rng = np.random.default_rng(17)
        v = rng.normal(size=m.shape[0])
        v /= np.linalg.norm(v)
        est = 0.0
        for _ in range(3000):
            w = m @ v
            est = np.linalg.norm(w)
            v = w / est
        assert abs(est - 1.0) < 1e-10


def test_tensor_sum_identity_vs_brute_force():
    for dim, n in ((1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        assert max_abs_diff(laplacian_dd(dim, n), brute_force_tensor_sum(dim, n)) < 1e-10


def test_constant_function_in_kernel():
    for dim, n in ((1, 4), (2, 3), (3, 2)):
        spec = GridSpec(dim, n)
        gf = sample_function(lambda *axes: np.ones_like(axes[0]), spec)
        out = scaled_laplacian_stencil(spec).apply(gf.values)
        assert float(np.max(np.abs(out))) < 1e-12


def test_central_difference_row_at_n2():
    row0 = central_difference_1d(2)[0]
    assert np.array_equal(row0, np.array([0.0, 2.0, 0.0, -2.0], dtype=complex))


def test_central_difference_antisymmetric():
    # with the constants in its kernel, as the derivative's block has
    d = central_difference_1d(3)
    assert max_abs_diff(d.T, -d) == 0.0
    assert not np.any(d @ np.ones(8))


def test_trapezoid_row_sums():
    for n in (1, 2, 3):
        h = 1.0 / (1 << n)
        q = trapezoid_1d(n)
        sums = q.sum(axis=1)
        assert max_abs_diff(sums, np.full_like(sums, 2.0 * h)) < 1e-15


def test_banded_circulant_corners():
    a = banded_circulant(2, 0.5, -0.25, 0.125)
    assert a[0, 0] == 0.5
    assert a[0, 1] == 0.125  # superdiagonal carries am1
    assert a[1, 0] == -0.25  # subdiagonal carries a1
    assert a[0, 3] == -0.25  # wrap of the subdiagonal
    assert a[3, 0] == 0.125  # wrap of the superdiagonal


def test_first_order_tensorized_axes():
    n = 2
    N = 1 << n
    h = 1.0 / N
    d1 = h * central_difference_1d(n)
    eye = np.eye(N)
    assert max_abs_diff(first_order_tensorized(0, 2, n), np.kron(eye, d1)) == 0.0
    assert max_abs_diff(first_order_tensorized(1, 2, n), np.kron(d1, eye)) == 0.0
    with pytest.raises(ParameterError):
        first_order_tensorized(0, 3, n)


def test_first_order_spectral_norm_at_most_one():
    # circulant symbol of the scaled difference is i*sin(2 pi k / N)
    for n in (2, 3):
        for axis in (0, 1):
            svals = np.linalg.svd(first_order_tensorized(axis, 2, n), compute_uv=False)
            N = 1 << n
            expected = max(abs(np.sin(2 * np.pi * k / N)) for k in range(N))
            assert svals.max() <= 1.0 + 1e-12
            assert abs(svals.max() - expected) < 1e-12


def test_sample_function_constant():
    spec = GridSpec(1, 3)
    gf = sample_function(lambda x: np.ones_like(x), spec)
    assert abs(gf.raw_norm - np.sqrt(8.0)) < 1e-12
    assert max_abs_diff(gf.values, np.full(8, 1.0 / np.sqrt(8.0))) < 1e-15


def test_sample_function_sine_norm():
    # sum_j sin^2(2 pi j / N) = N/2, so the raw norm at n=3 is 2
    spec = GridSpec(1, 3)
    gf = sample_function(lambda x: np.sin(2 * np.pi * x), spec)
    assert abs(gf.raw_norm - 2.0) < 1e-12
    expected = np.sin(2 * np.pi * np.arange(8) / 8.0) / 2.0
    assert max_abs_diff(gf.values, expected) < 1e-14


def test_sample_function_product_structure_2d():
    spec = GridSpec(2, 2)
    gf = sample_function(
        lambda x0, x1: np.sin(2 * np.pi * x0) * np.sin(2 * np.pi * x1), spec
    )
    N = spec.N
    one_d = np.sin(2 * np.pi * np.arange(N) / N)
    outer = np.kron(one_d, one_d)  # |j1>|j0> ordering, j0 fastest
    outer /= np.linalg.norm(outer)
    assert max_abs_diff(gf.values, outer) < 1e-13


def test_grid_spec_and_grid_function_reject_bad_input():
    for dim, n in ((0, 3), (1, 0)):
        with pytest.raises(ParameterError):
            GridSpec(dim, n)
    spec = GridSpec(1, 2)
    with pytest.raises(ShapeError, match="3 values on a 4-point grid"):
        GridFunction(spec, np.full(3, 0.5), 1.0)
    with pytest.raises(DegenerateInputError, match="unit norm"):
        GridFunction(spec, np.full(4, 1.0), 2.0)
    with pytest.raises(ShapeError, match="1-d vector"):
        GridFunction(spec, np.full((2, 2), 0.5), 1.0)
    for bad in (np.nan, np.inf, complex(0.5, np.nan)):
        with pytest.raises(ShapeError, match="finite"):
            GridFunction(spec, [0.5, 0.5, 0.5, bad], 1.0)


def test_grid_function_checks_its_values_once(monkeypatch):
    # the unit-norm check reads the array that as_vector returned, so
    # a 2**16-point vector pays for one finiteness pass, not two
    import fdblock.linalg as linalg_mod
    import fdblock.operators as operators_mod

    checked = []
    as_vector = linalg_mod.as_vector

    def counting(values):
        checked.append(values)
        return as_vector(values)

    monkeypatch.setattr(operators_mod, "as_vector", counting)
    monkeypatch.setattr(linalg_mod, "as_vector", counting)
    values = np.full(1 << 16, 1 / 256, dtype=np.complex128)
    gf = GridFunction(GridSpec(1, 16), values, 256.0)
    assert gf.values is values and len(checked) == 1


def test_grid_function_takes_any_sequence_as_a_complex_vector():
    gf = GridFunction(GridSpec(1, 2), [0.5] * 4, 1.0)
    assert gf.values.dtype == np.complex128
    assert np.array_equal(gf.values, np.full(4, 0.5))
    values = np.full(4, 0.5, dtype=np.complex128)
    assert GridFunction(GridSpec(1, 2), values, 1.0).values is values


def test_sample_function_rejects_zero_and_complex():
    spec = GridSpec(1, 2)
    with pytest.raises(DegenerateInputError):
        sample_function(lambda x: np.zeros_like(x), spec)
    with pytest.raises(ParameterError):
        sample_function(lambda x: 1j * np.ones_like(x), spec)


def test_grid_axes_ordering():
    spec = GridSpec(2, 1)
    x0, x1 = grid_axes(spec)
    flat0, flat1 = x0.reshape(-1), x1.reshape(-1)
    # flat index j1*N + j0: x0 varies fastest
    assert np.array_equal(flat0, np.array([0.0, 0.5, 0.0, 0.5]))
    assert np.array_equal(flat1, np.array([0.0, 0.0, 0.5, 0.5]))


def banded_stencil(n, a0, a1, am1):
    return Stencil(GridSpec(1, n), ((0, 0, a0), (0, 1, am1), (0, -1, a1)))


def test_stencil_appliers_match_dense():
    rng = np.random.default_rng(23)
    for dim, n in ((1, 3), (2, 2), (3, 1)):
        spec = GridSpec(dim, n)
        v = rng.normal(size=spec.npoints) + 1j * rng.normal(size=spec.npoints)
        assert max_abs_diff(laplacian_stencil(spec).apply(v), laplacian_dd(dim, n) @ v) < 1e-9
        scaled = scaled_laplacian_stencil(spec).apply(v)
        assert max_abs_diff(scaled, scaled_laplacian_dd(dim, n) @ v) < 1e-13
    spec = GridSpec(2, 2)
    v = rng.normal(size=spec.npoints)
    for axis in (0, 1):
        dense = first_order_tensorized(axis, 2, 2)
        assert max_abs_diff(first_order_stencil(spec, axis).apply(v), dense @ v) < 1e-13
    v = rng.normal(size=8)
    dense = banded_circulant(3, 0.3, -0.2, 0.1)
    assert max_abs_diff(banded_stencil(3, 0.3, -0.2, 0.1).apply(v), dense @ v) < 1e-14


@pytest.mark.parametrize("dim,n", [(1, 4), (2, 2), (3, 2)])
def test_batched_stencil_appliers_equal_their_columns(dim, n):
    spec = GridSpec(dim, n)
    rng = np.random.default_rng(31)
    cols = rng.normal(size=(spec.npoints, 5)) + 1j * rng.normal(size=(spec.npoints, 5))
    stencils = [laplacian_stencil(spec), scaled_laplacian_stencil(spec), Stencil(spec)]
    stencils += [first_order_stencil(spec, axis) for axis in range(dim)]
    # the banded stencil is 1-d: it runs on the flattened grid
    stencils.append(banded_stencil(spec.num_qubits, 0.3, -0.2, 0.1))
    for stencil in stencils:
        batched = stencil.apply(cols)
        assert batched.shape == cols.shape
        for k in range(cols.shape[1]):
            assert np.array_equal(batched[:, k], stencil.apply(cols[:, k]))
    with pytest.raises(ShapeError):
        laplacian_stencil(spec).apply(cols.T)


def test_stencil_rejects_bad_axes_and_divisors():
    spec = GridSpec(2, 2)
    with pytest.raises(ParameterError, match="axis 2"):
        Stencil(spec, ((2, 1, 1.0),))
    # apply would read a float offset as 0, and moves packs with <<
    for axis, offset in ((0, 0.5), (0, 1.0), (0, "1"), (0.0, 1)):
        with pytest.raises(ParameterError, match="must be integers"):
            Stencil(GridSpec(1, 3), ((axis, offset, 1.0),))
    for divisor in (0.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError, match="divisor"):
            Stencil(spec, (), divisor)


def declared_stencils(dim, n):
    """Every stencil a builder declares on a dim-axis grid of n qubits each."""
    from fdblock.encodings import OPS, encode_banded_lcu

    stencils = []
    for op in OPS.values():
        if op.dim in (None, dim):
            stencils += [stencil for _, _, stencil in op.build(dim, n).blocks]
    if dim == 1:
        stencils += [s for _, _, s in encode_banded_lcu(n, 0.65, -0.4, 0.15).blocks]
    return stencils


def random_banded_stencils(spec, rng):
    """Two random stencils whose offsets wrap and collide on small grids."""
    out = []
    for size in (5, 9):
        axes = rng.integers(0, spec.dim, size=size)
        offsets = rng.integers(-5, 6, size=size)
        coeffs = rng.normal(size=size)
        terms = tuple((int(a), int(o), float(c)) for a, o, c in zip(axes, offsets, coeffs))
        out.append(Stencil(spec, terms, float(rng.uniform(0.5, 7.0))))
    return out


def dense_columns(stencil, js):
    """The (npoints, len(js)) panel scattered from the oracle's stencil_columns."""
    k, rows, values = stencil_columns(stencil, js)
    panel = np.zeros((stencil.spec.npoints, len(js)), dtype=complex)
    panel[rows.astype(np.int64), k] = values
    assert len(set(zip(k.tolist(), rows.tolist()))) == k.size  # collisions merged
    return panel


def wrapping_stencil(spec, rng):
    """Offsets 0 mod N and past +-N, several per axis, the axes in no sorted order."""
    N = spec.N
    offsets = (N, -N - 1, 2 * N + 1, 0, -3 * N, 3 * N - 1, -2 * N + 1)
    terms = tuple(
        ((5 * i + 1) % spec.dim, offset, float(rng.normal()))
        for i, offset in enumerate(offsets)
    )
    return Stencil(spec, terms, float(rng.uniform(0.5, 7.0)))


def stencil_inputs(spec, rng):
    """The identity panel, and complex, real and batched values with exact zeros."""
    size = spec.npoints
    z = rng.normal(size=size) + 1j * rng.normal(size=size)
    z[::4] = 0.0
    z.real[1::5] = 0.0
    x = rng.normal(size=size)
    x[::3] = 0.0
    batch = rng.normal(size=(size, 3)) + 1j * rng.normal(size=(size, 3))
    batch[::2, 1] = 0.0
    return np.eye(size, dtype=complex), z, x, batch


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2])
def test_stencil_columns_equal_apply_bit_for_bit(dim, n):
    # N = 2 and N = 4: the wrapped +-1 offsets collide at N = 2, and the
    # Laplacian's centre terms of all axes collide for D >= 2.  apply's
    # slice products equal the rolls into zeroed sums on every element,
    # and their magnitudes byte for byte: a stored first term differs
    # from 0 + term only in the sign of a zero
    spec = GridSpec(dim, n)
    rng = np.random.default_rng(97 + 10 * dim + n)
    stencils = random_banded_stencils(spec, rng) + [wrapping_stencil(spec, rng), Stencil(spec)]
    stencils += declared_stencils(dim, n) + [laplacian_stencil(spec)]
    inputs = stencil_inputs(spec, rng)
    js = np.arange(spec.npoints)
    for stencil in stencils:
        assert np.array_equal(dense_columns(stencil, js), stencil.apply(inputs[0]))
        for values in inputs:
            got, want = stencil.apply(values), rolled_stencil_apply(stencil, values)
            assert got.shape == want.shape == values.shape
            assert np.all(got == want)
            assert np.abs(got).tobytes() == np.abs(want).tobytes()


def dense_moves(stencil):
    """The (npoints, npoints) matrix scattered from Stencil.moves to A[j + move, j]."""
    spec = stencil.spec
    js = np.arange(spec.npoints)
    panel = np.zeros((spec.npoints, spec.npoints), dtype=complex)
    seen = np.zeros(panel.shape, dtype=bool)
    for move, value in stencil.moves().items():
        rows = np.zeros_like(js)
        for axis in range(spec.dim):
            shift = axis * spec.n
            coord = (js >> shift) + (move >> shift)
            rows |= (coord & (spec.N - 1)) << shift
        assert not seen[rows, js].any()  # one entry per (row, column)
        seen[rows, js] = True
        panel[rows, js] = value
    return panel


@pytest.mark.parametrize("dim,n", [(1, 1), (1, 2), (1, 4), (2, 1), (2, 3), (3, 2), (4, 1)])
def test_stencil_moves_equal_apply_bit_for_bit(dim, n):
    # Stencil.moves: random offsets up to 5 carry across several bits,
    # and wrap and collide at small N
    spec = GridSpec(dim, n)
    identity = np.eye(spec.npoints, dtype=complex)
    stencils = random_banded_stencils(spec, np.random.default_rng(61 + 10 * dim + n))
    stencils += declared_stencils(dim, n) + [laplacian_stencil(spec)]
    for stencil in stencils:
        assert np.array_equal(dense_moves(stencil), stencil.apply(identity))


def test_stencil_moves_hold_the_columns_of_grids_beyond_any_panel():
    # Stencil.moves: the centre and one move per +-1 term, whatever n is;
    # on a 62-qubit axis and a 60-qubit 3-d grid they give the columns'
    # entries at the edges
    for dim, n in ((1, 62), (3, 20)):
        spec = GridSpec(dim, n)
        lap = scaled_laplacian_stencil(spec)
        moves = lap.moves()
        assert len(moves) == 1 + 2 * dim
        N = spec.N
        edge = [0, 1, N - 2, N - 1, N**dim - 1]
        k, rows, values = stencil_columns(lap, np.array(edge, dtype=np.uint64))
        for pos, j in enumerate(edge):
            want = {int(r): complex(v) for kk, r, v in zip(k, rows, values) if kk == pos}
            got = {}
            for move, v in moves.items():
                row = 0
                for shift in range(0, dim * n, n):
                    row |= (((j >> shift) + (move >> shift)) & (N - 1)) << shift
                got[row] = v
            assert got == want


def test_stencil_moves_of_an_alternating_move_are_one_entry():
    # a move whose bits alternate has Fibonacci-many carry classes in n
    # (5,702,887 at n = 32), but is one move
    stencil = Stencil(GridSpec(1, 32), ((0, -0x55555555, 1.0),))
    assert stencil.moves() == {0: 0j, 0x55555555: 1 + 0j}


def test_stencil_columns_wrap_on_grids_beyond_any_panel():
    # a 62-qubit axis and a 60-qubit 3-d grid: columns returns the
    # wrapped neighbours of the edge points without touching N rows
    for dim, n in ((1, 62), (3, 20)):
        spec = GridSpec(dim, n)
        N = spec.N
        edge = [0, 1, N - 2, N - 1]
        js = np.array(edge, dtype=np.uint64)
        lap = scaled_laplacian_stencil(spec)
        k, rows, values = stencil_columns(lap, js)
        for pos, j in enumerate(edge):
            got = {int(r): complex(v) for kk, r, v in zip(k, rows, values) if kk == pos}
            want = {j: -0.5}
            for axis in range(dim):
                coord = j // N**axis % N
                for step in (-1, 1):
                    want[j + ((coord + step) % N - coord) * N**axis] = 1 / (4 * dim)
            assert got == want
        k, rows, values = stencil_columns(first_order_stencil(spec, dim - 1), js)
        last = N ** (dim - 1)
        for pos, j in enumerate(edge):
            got = {int(r): complex(v) for kk, r, v in zip(k, rows, values) if kk == pos}
            assert got == {j: 0.0, (j - last) % N**dim: 0.5, (j + last) % N**dim: -0.5}


def test_lambda_max_value():
    assert lambda_max(1, 2) == 64.0  # 4/h^2 at h = 1/4
    assert lambda_max(3, 1) == 48.0


def test_sample_grid_requires_real_match():
    spec = GridSpec(1, 12)
    vals = sample_grid(lambda x: np.sin(2 * np.pi * x), spec)
    assert vals.size == 4096
    with pytest.raises(SizeError):
        sample_grid(lambda x: x, GridSpec(1, 17))


def test_sample_grid_rejects_a_field_of_the_wrong_shape():
    with pytest.raises(ShapeError, match=r"field returned shape \(3,\)"):
        sample_grid(lambda x: np.ones(3), GridSpec(1, 2))


def test_sample_grid_rejects_non_real_and_non_finite_fields():
    spec = GridSpec(1, 3)
    nan_imag = lambda x: x + complex(0.0, np.nan)
    for field in (nan_imag, lambda x: x + complex(0.0, np.inf)):
        with pytest.raises(ParameterError, match="real-valued"):
            sample_grid(field, spec)
    for bad in (np.nan, np.inf):
        with pytest.raises(ShapeError, match="finite"):
            sample_grid(lambda x: x + bad, spec)
