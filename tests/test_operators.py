import numpy as np
import pytest

from fdblock.errors import DegenerateInputError, ParameterError, ShapeError, SizeError
from fdblock.linalg import max_abs_diff
from fdblock.operators import (
    GridSpec,
    apply_banded,
    apply_first_order,
    apply_laplacian,
    apply_scaled_laplacian,
    banded_circulant,
    central_difference_1d,
    first_order_tensorized,
    grid_axes,
    lambda_max,
    laplacian_1d,
    laplacian_dd,
    sample_function,
    sample_grid,
    scaled_laplacian_1d,
    scaled_laplacian_dd,
    trapezoid_1d,
)
from .oracles import brute_force_tensor_sum


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
    for dim, n in ((1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        assert max_abs_diff(laplacian_dd(dim, n), brute_force_tensor_sum(dim, n)) < 1e-9


def test_constant_function_in_kernel():
    for dim, n in ((1, 4), (2, 3), (3, 2)):
        spec = GridSpec(dim, n)
        gf = sample_function(lambda *axes: np.ones_like(axes[0]), spec)
        out = apply_scaled_laplacian(spec, gf.values)
        assert float(np.max(np.abs(out))) < 1e-12


def test_central_difference_row_at_n2():
    row0 = central_difference_1d(2)[0]
    assert np.array_equal(row0, np.array([0.0, 2.0, 0.0, -2.0], dtype=complex))


def test_central_difference_antisymmetric():
    d = central_difference_1d(3)
    assert max_abs_diff(d.T, -d) == 0.0


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


def test_stencil_appliers_match_dense():
    rng = np.random.default_rng(23)
    for dim, n in ((1, 3), (2, 2), (3, 1)):
        spec = GridSpec(dim, n)
        v = rng.normal(size=spec.npoints) + 1j * rng.normal(size=spec.npoints)
        assert max_abs_diff(apply_laplacian(spec, v), laplacian_dd(dim, n) @ v) < 1e-9
        assert (
            max_abs_diff(apply_scaled_laplacian(spec, v), scaled_laplacian_dd(dim, n) @ v)
            < 1e-13
        )
    spec = GridSpec(2, 2)
    v = rng.normal(size=spec.npoints)
    for axis in (0, 1):
        dense = first_order_tensorized(axis, 2, 2)
        assert max_abs_diff(apply_first_order(axis, spec, v), dense @ v) < 1e-13
    v = rng.normal(size=8)
    dense = banded_circulant(3, 0.3, -0.2, 0.1)
    assert max_abs_diff(apply_banded(0.3, -0.2, 0.1, v), dense @ v) < 1e-14


@pytest.mark.parametrize("dim,n", [(1, 4), (2, 2), (3, 2)])
def test_batched_stencil_appliers_equal_their_columns(dim, n):
    spec = GridSpec(dim, n)
    rng = np.random.default_rng(31)
    cols = rng.normal(size=(spec.npoints, 5)) + 1j * rng.normal(size=(spec.npoints, 5))
    appliers = [
        lambda v: apply_laplacian(spec, v),
        lambda v: apply_scaled_laplacian(spec, v),
        lambda v: apply_banded(0.3, -0.2, 0.1, v),
    ]
    appliers += [lambda v, axis=axis: apply_first_order(axis, spec, v) for axis in range(dim)]
    for applier in appliers:
        batched = applier(cols)
        assert batched.shape == cols.shape
        for k in range(cols.shape[1]):
            assert np.array_equal(batched[:, k], applier(cols[:, k]))
    with pytest.raises(ShapeError):
        apply_laplacian(spec, cols.T)


def test_lambda_max_value():
    assert lambda_max(1, 2) == 64.0  # 4/h^2 at h = 1/4
    assert lambda_max(3, 1) == 48.0


def test_dense_cap_enforced():
    with pytest.raises(SizeError):
        laplacian_dd(4, 4)


def test_sample_grid_requires_real_match():
    spec = GridSpec(1, 12)
    vals = sample_grid(lambda x: np.sin(2 * np.pi * x), spec)
    assert vals.size == 4096
    with pytest.raises(SizeError):
        sample_grid(lambda x: x, GridSpec(1, 17))
