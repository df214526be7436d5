"""Block extraction, verification, success probabilities, and sweeps.

Verification never builds the full unitary.  For each ancilla input
block it runs the basis columns |col>|j> forward through the circuit in
panels, reads every constrained block from that output, and runs the
adjoint circuit on it; U^dagger U e_j - e_j is then one column of
U^dagger U - I, and all columns together give the same max-entry
unitarity residual as a dense Gram product.  That costs two statevector
passes per column, so time grows as 4^q in the qubit count q, and the
working set is one panel.  Verification is bounded only by the
statevector cap (MAX_SIM_QUBITS) and by the dense reference blocks,
whose dimension N is capped at linalg.MATRIX_DIM_CAP.

Success probabilities are computed by two independent routes: applying
the encoding circuit to |0>|v> and collecting the zero-ancilla mass, or
applying the classical reference operator to the samples.  The routes
agree to ~1e-15 and the sweep uses the reference route, which has no
qubit cap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import operators
from .circuit import MAX_SIM_QUBITS, adjoint, apply, apply_to_columns
from .encodings import BlockEncoding, alpha_d, ancilla_axis_qubits
from .errors import ParameterError, ShapeError, SizeError
from .linalg import as_matrix, max_abs_diff
from .operators import GridFunction, GridSpec


# Working-set bound for one panel of simulated columns (complex entries).
EXTRACT_CHUNK_ELEMENTS = 1 << 23


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing an encoding against its reference blocks."""

    label: str
    max_deviation: float
    unitarity_residual: float
    tolerance: float
    passed: bool

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.label}: block deviation {self.max_deviation:.3e}, "
            f"unitarity residual {self.unitarity_residual:.3e}, tolerance {self.tolerance:.1e}"
        )


@dataclass(frozen=True)
class SweepRow:
    """One grid refinement step of a success-probability sweep."""

    D: int
    n: int
    h: float
    N_D: int
    p_success: float
    p_predicted: float
    e_max: float
    alpha: float
    runtime: float


def _forward_panels(enc: BlockEncoding, col: int):
    """Yield (start, stop, U[:, col*N+start : col*N+stop]) over j in 0..N-1.

    The circuit acts on the basis columns |col>|j>, batched in panels so
    the working set stays below ~128 MB even at the statevector cap,
    where the full unitary could never be built.
    """
    nq = enc.circuit.num_qubits
    if nq > MAX_SIM_QUBITS:
        raise SizeError(f"{nq} qubits exceeds the statevector cap {MAX_SIM_QUBITS}")
    N = enc.system_dim
    dim = 1 << nq
    chunk = max(1, EXTRACT_CHUNK_ELEMENTS // dim)
    for start in range(0, N, chunk):
        stop = min(start + chunk, N)
        first = col * N + start
        # The input panel is a temporary, so only the output outlives the call.
        yield start, stop, apply_to_columns(enc.circuit, _identity_columns(dim, first, stop - start))


def _identity_columns(dim: int, first: int, width: int) -> np.ndarray:
    """Columns first .. first+width-1 of the dim x dim identity."""
    cols = np.zeros((dim, width), dtype=np.complex128)
    offsets = np.arange(width)
    cols[first + offsets, offsets] = 1.0
    return cols


def extract_block(enc: BlockEncoding, row: int, col: int) -> np.ndarray:
    """Dense block U[row*N:(row+1)*N, col*N:(col+1)*N] of the encoding.

    Only N circuit applications are needed: the circuit acts on |col>|j>
    for each system basis state j and the result is projected onto
    ancilla state |row>.
    """
    blocks = 1 << enc.m
    if not (0 <= row < blocks and 0 <= col < blocks):
        raise ParameterError(f"block indices must be below 2**m = {blocks}")
    N = enc.system_dim
    block = np.empty((N, N), dtype=np.complex128)
    for start, stop, out in _forward_panels(enc, col):
        block[:, start:stop] = out[row * N : (row + 1) * N]
    return block


def parse_label(label: str) -> tuple[str, dict[str, str]]:
    """Split 'name key=value ...' into the name and a parameter dict."""
    parts = label.split()
    params = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        params[key] = value
    return parts[0], params


def reference_block_apply(enc: BlockEncoding, values: np.ndarray) -> np.ndarray:
    """Action of the encoded (0,0) block on sample values, via stencils."""
    name, params = parse_label(enc.label)
    if name == "laplace_1d" or name == "laplace_dd":
        dim = int(params.get("D", 1))
        spec = GridSpec(dim, int(params["n"]))
        return enc.alpha * operators.apply_scaled_laplacian(spec, values)
    if name == "laplace_1d_lcu":
        spec = GridSpec(1, int(params["n"]))
        return enc.alpha * operators.apply_scaled_laplacian(spec, values)
    if name == "banded_lcu":
        a0, a1, am1 = (float(params[k]) for k in ("a0", "a1", "am1"))
        return enc.alpha * operators.apply_banded(a0, a1, am1, values)
    if name == "derivative_1d":
        spec = GridSpec(1, int(params["n"]))
        return enc.alpha * operators.apply_first_order(0, spec, values)
    if name in ("gradient_2d", "divergence_2d"):
        spec = GridSpec(2, int(params["n"]))
        return enc.alpha * operators.apply_first_order(0, spec, values)
    if name == "wave_2d":
        return np.zeros_like(np.asarray(values, dtype=np.complex128))
    raise ParameterError(f"no reference operator for label {enc.label!r}")


def pattern_constraints(enc: BlockEncoding) -> list[tuple[int, int, np.ndarray]]:
    """All (row, col, expected matrix) constraints an encoding must satisfy."""
    name, params = parse_label(enc.label)
    n = int(params["n"])
    if name == "laplace_1d" or name == "laplace_dd":
        dim = int(params.get("D", 1))
        target = operators.scaled_laplacian_dd(dim, n)
        return [(0, 0, enc.alpha * target)]
    if name == "laplace_1d_lcu":
        return [(0, 0, enc.alpha * operators.scaled_laplacian_1d(n))]
    if name == "banded_lcu":
        a0, a1, am1 = (float(params[k]) for k in ("a0", "a1", "am1"))
        return [(0, 0, enc.alpha * operators.banded_circulant(n, a0, a1, am1))]
    if name == "derivative_1d":
        h = 1.0 / (1 << n)
        return [(0, 0, h * operators.central_difference_1d(n))]
    a = enc.alpha
    d0 = operators.first_order_tensorized(0, 2, n)
    d1 = operators.first_order_tensorized(1, 2, n)
    if name == "gradient_2d":
        return [(0, 0, a * d0), (1, 0, a * d1)]
    if name == "divergence_2d":
        return [(0, 0, a * d0), (0, 1, a * d1)]
    if name == "wave_2d":
        zero = np.zeros_like(d0)
        return [
            (0, 2, a * d0),
            (2, 0, a * d0),
            (1, 2, a * d1),
            (2, 1, a * d1),
            (0, 0, zero),
            (0, 1, zero),
            (1, 0, zero),
            (1, 1, zero),
            (2, 2, zero),
        ]
    raise ParameterError(f"no block pattern for label {enc.label!r}")


def _verify(enc: BlockEncoding, constraints, tol: float) -> VerificationReport:
    """Check (row, col, expected) blocks and U^dagger U = I by a round trip.

    Every column of U runs forward once and back once through the
    adjoint circuit; the blocks are read from the forward panels.
    """
    N = enc.system_dim
    inverse = adjoint(enc.circuit)
    deviations, residuals = [0.0], [0.0]
    for col in range(1 << enc.m):
        wanted = [(row, expected) for row, c, expected in constraints if c == col]
        for start, stop, out in _forward_panels(enc, col):
            for row, expected in wanted:
                block = out[row * N : (row + 1) * N]
                deviations.append(max_abs_diff(block, expected[:, start:stop]))
            back = apply_to_columns(inverse, out)
            offsets = np.arange(stop - start)
            back[col * N + start + offsets, offsets] -= 1.0
            residuals.append(float(np.max(np.abs(back))))
            del out, back  # free this panel before the next one is simulated
    # np.max, unlike the builtin, propagates a NaN into a FAIL.
    deviation = float(np.max(deviations))
    residual = float(np.max(residuals))
    passed = deviation <= tol and residual <= tol
    return VerificationReport(enc.label, deviation, residual, tol, passed)


def verify_encoding(enc: BlockEncoding, target, tol: float) -> VerificationReport:
    """Compare the (0,0) block against alpha * target and check unitarity."""
    target = as_matrix(target)
    if target.shape != (enc.system_dim, enc.system_dim):
        raise ShapeError(f"target shape {target.shape} != system dim {enc.system_dim}")
    return _verify(enc, [(0, 0, enc.alpha * target)], tol)


def verify_pattern(enc: BlockEncoding, tol: float) -> VerificationReport:
    """Check every constrained block of the encoding at the tolerance."""
    return _verify(enc, pattern_constraints(enc), tol)


def success_probability(enc: BlockEncoding, v: GridFunction, route: str = "circuit") -> float:
    """Probability of measuring all ancillas in |0> after applying the encoding.

    route="circuit" simulates the encoding on |0>|v|; route="matrix"
    evaluates the squared norm of the reference block action.
    """
    N = enc.system_dim
    if v.spec.npoints != N:
        raise ShapeError(f"grid has {v.spec.npoints} points, encoding expects {N}")
    if route == "matrix":
        return float(np.sum(np.abs(reference_block_apply(enc, v.values)) ** 2))
    if route != "circuit":
        raise ParameterError(f"unknown route {route!r}")
    state = np.zeros(enc.circuit.dim, dtype=np.complex128)
    state[:N] = v.values
    out = apply(enc.circuit, state)
    return float(np.sum(np.abs(out[:N]) ** 2))


def fd_error_max(v_field, exact_laplacian_field, spec: GridSpec) -> float:
    """Max-norm error of the discrete Laplacian against exact samples."""
    raw = operators.sample_grid(v_field, spec)
    exact = operators.sample_grid(exact_laplacian_field, spec)
    return float(np.max(np.abs(operators.apply_laplacian(spec, raw) - exact)))


class FunctionFamily:
    """Named test function on [0,1]^D with its exact Laplacian and constant.

    ``constant(D) * h**4`` predicts the zero-ancilla success probability
    of the Laplacian encoding as h -> 0.
    """

    def __init__(self, name, dims, field_factory, laplacian_factory, constant_factory):
        self.name = name
        self.dims = dims
        self._field = field_factory
        self._laplacian = laplacian_factory
        self._constant = constant_factory

    def check_dim(self, dim: int):
        if self.dims is not None and dim not in self.dims:
            raise ParameterError(f"family {self.name!r} supports dims {self.dims}, got {dim}")

    def field(self, dim: int):
        self.check_dim(dim)
        return self._field(dim)

    def exact_laplacian(self, dim: int):
        self.check_dim(dim)
        return self._laplacian(dim)

    def constant(self, dim: int) -> float:
        self.check_dim(dim)
        return self._constant(dim)


def _sinprod_field(dim):
    def f(*axes):
        out = np.sin(2.0 * np.pi * axes[0])
        for x in axes[1:]:
            out = out * np.sin(2.0 * np.pi * x)
        return out

    return f


def _sinprod_laplacian(dim):
    base = _sinprod_field(dim)

    def f(*axes):
        return -dim * (2.0 * np.pi) ** 2 * base(*axes)

    return f


FAMILIES = {
    "sin1": FunctionFamily(
        "sin1",
        (1,),
        lambda dim: (lambda x: np.sin(2.0 * np.pi * x)),
        lambda dim: (lambda x: -((2.0 * np.pi) ** 2) * np.sin(2.0 * np.pi * x)),
        lambda dim: math.pi**4,
    ),
    "cos3": FunctionFamily(
        "cos3",
        (1,),
        lambda dim: (lambda x: np.cos(6.0 * np.pi * x)),
        lambda dim: (lambda x: -((6.0 * np.pi) ** 2) * np.cos(6.0 * np.pi * x)),
        lambda dim: 81.0 * math.pi**4,
    ),
    "sinprod": FunctionFamily(
        "sinprod",
        None,
        _sinprod_field,
        _sinprod_laplacian,
        lambda dim: math.pi**4 * dim**2 / (1 << ancilla_axis_qubits(dim)) ** 2,
    ),
}


def sweep_success_probability(
    dim: int, n_range, family: str, op: str = "laplace"
) -> list[SweepRow]:
    """Success probability and discretization error over grid refinements.

    op="laplace" sweeps the Laplacian encoding; op="lcu" the banded
    comparison instance (dim 1 only), whose probabilities and predicted
    constants are 16 times smaller.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    fam = FAMILIES[family]
    fam.check_dim(dim)
    if op == "laplace":
        alpha = alpha_d(dim)
        scale = 1.0
    elif op == "lcu":
        if dim != 1:
            raise ParameterError("op 'lcu' is one-dimensional")
        alpha = -0.25
        scale = 1.0 / 16.0
    else:
        raise ParameterError(f"unknown sweep op {op!r}")

    rows = []
    for n in n_range:
        start = time.monotonic()
        spec = GridSpec(dim, n)
        gf = operators.sample_function(fam.field(dim), spec)
        action = alpha * operators.apply_scaled_laplacian(spec, gf.values)
        p = float(np.sum(np.abs(action) ** 2))
        e_max = fd_error_max(fam.field(dim), fam.exact_laplacian(dim), spec)
        rows.append(
            SweepRow(
                D=dim,
                n=n,
                h=spec.h,
                N_D=spec.npoints,
                p_success=p,
                p_predicted=scale * fam.constant(dim) * spec.h**4,
                e_max=e_max,
                alpha=alpha,
                runtime=time.monotonic() - start,
            )
        )
    if not rows:
        raise ParameterError("empty sweep range")
    return rows


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


SWEEP_CSV_HEADER = "D,n,h,N_D,p_success,p_predicted,e_max,alpha"


def sweep_csv(rows: list[SweepRow]) -> str:
    """Deterministic CSV of a sweep; the runtime column is deliberately omitted."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.D),
                    str(r.n),
                    _fmt(r.h),
                    str(r.N_D),
                    _fmt(r.p_success),
                    _fmt(r.p_predicted),
                    _fmt(r.e_max),
                    _fmt(r.alpha),
                ]
            )
        )
    return "\n".join(lines) + "\n"
