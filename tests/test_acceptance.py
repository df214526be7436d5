"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is fixed here, not computed.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from fdblock.analysis import (
    FAMILIES,
    success_probability,
    sweep_success_probability,
    verify_pattern,
)
from fdblock.circuit import Circuit
from fdblock.encodings import (
    alpha_d,
    encode_derivative_1d,
    encode_divergence_2d,
    encode_gradient_2d,
    encode_laplace_1d_lcu,
    encode_laplace_dd,
    encode_wave_2d,
)
from fdblock.operators import GridSpec, sample_function
from fdblock.resources import count_resources

from .oracles import (
    apply,
    brute_force_tensor_sum,
    central_difference_1d,
    extract_block,
    laplacian_dd,
    max_abs_diff,
    scaled_laplacian_1d,
    scaled_laplacian_dd,
    trapezoid_1d,
    unitarity_residual,
    unitary,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    print(f"criterion {num:2d} PASS: {description}")


def grid_fn(family, dim, n):
    return sample_function(FAMILIES[family].field(dim), GridSpec(dim, n))


def test_criterion_01_block_identity_1d():
    with criterion(1, "1-d block identity incl. full 4x4 block grid, n in 2..4, < 5 s"):
        start = time.monotonic()
        for n in (2, 3, 4):
            N = 1 << n
            h = 1.0 / N
            enc = encode_laplace_dd(1, n)
            lap = scaled_laplacian_1d(n)
            assert max_abs_diff(extract_block(enc, 0, 0), lap) <= 1e-12
            dd = (h / 2.0) * central_difference_1d(n)
            qq = (1.0 / (2.0 * h)) * trapezoid_1d(n)
            u = unitary(enc.circuit)
            for r in range(4):
                for c in range(4):
                    want = lap if r == c else (qq if r + c == 3 else dd)
                    block = u[r * N : (r + 1) * N, c * N : (c + 1) * N]
                    assert max_abs_diff(block, want) <= 1e-12
        assert time.monotonic() - start < 5.0


def test_criterion_02_block_identity_dd():
    with criterion(2, "multi-d block identity with declared alphas, < 2 min"):
        start = time.monotonic()
        cases = {(2, 2): 1.0, (2, 3): 1.0, (3, 1): 0.75, (3, 2): 0.75, (4, 1): 1.0}
        for (dim, n), alpha in cases.items():
            enc = encode_laplace_dd(dim, n)
            assert enc.alpha == alpha == alpha_d(dim)
            target = alpha * scaled_laplacian_dd(dim, n)
            assert max_abs_diff(extract_block(enc, 0, 0), target) <= 1e-12
        assert time.monotonic() - start < 120.0


def test_criterion_03_selection_truth_table_exact():
    with criterion(3, "selection truth table exact over all 4N pairs, n <= 3"):
        for n in (1, 2, 3):
            N = 1 << n
            enc = encode_laplace_dd(1, n)
            part2 = Circuit(
                enc.circuit.num_qubits,
                tuple(g for g in enc.circuit.gates if g.kind == "X"),
            )
            for sel in range(4):
                for j in range(N):
                    state = np.zeros(part2.dim, dtype=complex)
                    state[sel * N + j] = 1.0
                    out = apply(part2, state)
                    shift = {0: -1, 3: 1}.get(sel, 0)
                    expected = sel * N + (j + shift) % N
                    assert out[expected] == 1.0
                    out[expected] = 0.0
                    assert not np.any(out)


def test_criterion_04_success_probability_1d():
    with criterion(4, "1-d success probability: closed form and asymptotic constants"):
        for n in range(3, 9):
            h = 1.0 / (1 << n)
            p = success_probability(encode_laplace_dd(1, n), grid_fn("sin1", 1, n), "circuit")
            assert abs(p - math.sin(math.pi * h) ** 4) <= 1e-12
        h = 2.0**-8
        p1 = success_probability(encode_laplace_dd(1, 8), grid_fn("sin1", 1, 8), "circuit")
        assert abs(p1 / h**4 - math.pi**4) / math.pi**4 <= 0.02
        p2 = success_probability(encode_laplace_dd(1, 8), grid_fn("cos3", 1, 8), "circuit")
        assert abs(p2 / h**4 - 81 * math.pi**4) / (81 * math.pi**4) <= 0.05


def test_criterion_05_comparison_factor_sixteen():
    with criterion(5, "probability ratio against the rotation-based encoding is 16"):
        for n in range(3, 7):
            for family in ("sin1", "cos3"):
                gf = grid_fn(family, 1, n)
                p_base = success_probability(encode_laplace_dd(1, n), gf, "circuit")
                p_comp = success_probability(encode_laplace_1d_lcu(n), gf, "circuit")
                assert abs(p_base / p_comp - 16.0) <= 1e-9


def test_criterion_06_multi_d_scaling():
    with criterion(6, "multi-d constants within 5% at finest feasible n; halving ratio 16"):
        # finest n with N**dim inside the 2**16 sample-vector cap
        finest = {1: 16, 2: 8, 3: 5, 4: 4}
        for dim, n in finest.items():
            rows = sweep_success_probability(dim, [n], "sinprod")
            row = rows[0]
            constant = FAMILIES["sinprod"].constant(dim)
            assert abs(row.p_success / row.h**4 - constant) / constant <= 0.05
        # the 5% ratio window needs the coarser point at n >= 4, which the
        # cap rules out for dim 4; the three remaining dims have a pair
        for dim, pair_n in {1: (15, 16), 2: (7, 8), 3: (4, 5)}.items():
            pair = sweep_success_probability(dim, list(pair_n), "sinprod")
            ratio = pair[0].p_success / pair[1].p_success
            assert abs(ratio - 16.0) / 16.0 <= 0.05


def test_criterion_07_fd_error_bounds_and_ratio():
    with criterion(7, "discretization error bounds and h^2 convergence ratio"):
        bounds = {
            "sin1": (4.0 * math.pi**4) / 3.0,
            "cos3": 108.0 * math.pi**4,
        }
        for family, coeff in bounds.items():
            errors = {}
            for row in sweep_success_probability(1, range(4, 9), family):
                assert row.e_max <= coeff * row.h**2
                errors[row.n] = row.e_max
            for n in range(4, 8):
                assert 3.6 <= errors[n] / errors[n + 1] <= 4.4


def test_criterion_08_first_order_encodings():
    with criterion(8, "first-order encodings match their block patterns at n=2"):
        rt2 = 1.0 / math.sqrt(2.0)
        for enc in (encode_gradient_2d(2), encode_divergence_2d(2), encode_wave_2d(2)):
            assert abs(enc.alpha - rt2) < 1e-15
            assert verify_pattern(enc, 1e-12).passed
        deriv = encode_derivative_1d(2)
        assert deriv.m == 1 and deriv.alpha == 1.0
        assert verify_pattern(deriv, 1e-12).passed


def test_criterion_09_resource_scaling():
    with criterion(9, "T-counts affine in n, log-linear fit, and comparison ordering"):
        builders = {
            "laplace D=1": lambda n: encode_laplace_dd(1, n),
            "laplace D=2": lambda n: encode_laplace_dd(2, n),
            "laplace D=3": lambda n: encode_laplace_dd(3, n),
            "lcu": lambda n: encode_laplace_1d_lcu(n),
            "derivative": lambda n: encode_derivative_1d(n),
            "gradient": lambda n: encode_gradient_2d(n),
            "divergence": lambda n: encode_divergence_2d(n),
            "wave": lambda n: encode_wave_2d(n),
        }
        for name, build in builders.items():
            ts = [count_resources(build(n).circuit).t_count for n in range(3, 9)]
            deltas = {b - a for a, b in zip(ts, ts[1:])}
            assert len(deltas) == 1, (name, ts)
        for dim, n_range in ((1, range(3, 11)), (2, range(2, 8)), (3, range(1, 5))):
            xs, ys = [], []
            for n in n_range:
                enc = encode_laplace_dd(dim, n)
                xs.append(math.log2(enc.system_dim))
                ys.append(float(count_resources(enc.circuit).t_count))
            x, y = np.array(xs), np.array(ys)
            slope, intercept = np.polyfit(x, y, 1)
            residual = y - (slope * x + intercept)
            r2 = 1.0 - float(residual @ residual) / float((y - y.mean()) @ (y - y.mean()))
            assert r2 >= 0.99
        for n in range(2, 9):
            base = count_resources(encode_laplace_dd(1, n).circuit)
            comp = count_resources(encode_laplace_1d_lcu(n).circuit)
            assert comp.rotation_count > 0
            # strict even before any rotation charge is added
            assert base.t_count < comp.t_count


def test_criterion_10_property_suite():
    with criterion(10, "unitarity, route agreement, norm preservation, tensor-sum oracle"):
        corpus = [
            encode_laplace_dd(1, 2),
            encode_laplace_dd(1, 3),
            encode_laplace_dd(1, 4),
            encode_laplace_dd(2, 2),
            encode_laplace_dd(2, 3),
            encode_laplace_dd(3, 1),
            encode_laplace_dd(3, 2),
            encode_laplace_dd(4, 1),
            encode_laplace_1d_lcu(3),
            encode_derivative_1d(3),
            encode_gradient_2d(2),
            encode_divergence_2d(2),
            encode_wave_2d(2),
        ]
        rng = np.random.default_rng(2024)
        for enc in corpus:
            assert unitarity_residual(unitary(enc.circuit)) <= 1e-12, enc.label
            v = rng.normal(size=enc.circuit.dim) + 1j * rng.normal(size=enc.circuit.dim)
            v /= np.linalg.norm(v)
            assert abs(np.linalg.norm(apply(enc.circuit, v)) - 1.0) <= 1e-12
        route_cases = [
            (encode_laplace_dd(1, 3), "sin1", 1, 3),
            (encode_laplace_dd(1, 8), "cos3", 1, 8),
            (encode_laplace_dd(2, 2), "sinprod", 2, 2),
            (encode_laplace_dd(3, 2), "sinprod", 3, 2),
            (encode_laplace_1d_lcu(4), "sin1", 1, 4),
            (encode_derivative_1d(3), "sin1", 1, 3),
            (encode_gradient_2d(2), "sinprod", 2, 2),
            (encode_divergence_2d(2), "sinprod", 2, 2),
            (encode_wave_2d(2), "sinprod", 2, 2),
        ]
        for enc, family, dim, n in route_cases:
            gf = grid_fn(family, dim, n)
            p_c = success_probability(enc, gf, "circuit")
            p_m = success_probability(enc, gf, "matrix")
            assert abs(p_c - p_m) <= 1e-12, enc.label
        for dim in (1, 2, 3):
            for n in (1, 2, 3):
                assert (
                    max_abs_diff(laplacian_dd(dim, n), brute_force_tensor_sum(dim, n))
                    < 1e-9
                )
