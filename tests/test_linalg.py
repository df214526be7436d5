import numpy as np
import pytest

from fdblock.errors import ShapeError, SizeError
from fdblock.linalg import as_vector, norm2

from .oracles import (
    brute_force_tensor_sum,
    laplacian_1d,
    max_abs_diff,
    scaled_laplacian_1d,
    unitarity_residual,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.mark.parametrize("dim,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_kron_tensor_sum_matches_brute_force(dim, n):
    N = 1 << n
    l1 = laplacian_1d(n)
    eye = np.eye(N, dtype=complex)
    if dim == 2:
        built = np.kron(l1, eye) + np.kron(eye, l1)
    else:
        built = (
            np.kron(np.kron(l1, eye), eye)
            + np.kron(np.kron(eye, l1), eye)
            + np.kron(np.kron(eye, eye), l1)
        )
    assert max_abs_diff(built, brute_force_tensor_sum(dim, n)) < 1e-10


def test_norm2_basis_state():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    assert norm2(v) == 1.0


def test_norm2_zero_vector():
    assert norm2(np.zeros(8)) == 0.0


def test_norm2_three_four_five():
    assert norm2(np.array([0.6, 0.8])) == pytest.approx(1.0, abs=1e-15)


def test_identity_and_hadamard_have_no_unitarity_residual():
    assert unitarity_residual(np.eye(8)) <= 1e-12
    assert unitarity_residual(H) <= 1e-12


def test_scaled_laplacian_is_not_unitary():
    # the scaled operator annihilates the constant vector, so it is singular
    assert not unitarity_residual(scaled_laplacian_1d(3)) <= 1e-12


def test_unitarity_residual_rejects_non_square():
    with pytest.raises(ShapeError):
        unitarity_residual(np.ones((2, 3)))


def test_as_vector_rejects_nan():
    with pytest.raises(ShapeError):
        as_vector(np.array([1.0, np.nan]))


def test_norm2_rejects_matrices_and_oversized_vectors():
    with pytest.raises(ShapeError, match="1-d vector"):
        norm2(np.ones((2, 2)))
    with pytest.raises(SizeError, match="exceeds cap"):
        norm2(np.ones((1 << 16) + 1))
