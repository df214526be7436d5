"""Block verification, success probabilities, and sweeps.

Every expected block comes from the encoding itself: each builder
declares its blocks as (row, col, stencil) triples, each block being
alpha times its :class:`~fdblock.operators.Stencil`
(``BlockEncoding.blocks``).

Verification never builds the full unitary.  For each ancilla input
block it runs the basis columns |col>|j> forward through the circuit in
panels, compares every declared block of that output with alpha times
its stencil's sparse columns at the same basis states, and runs the
adjoint circuit on the output; U^dagger U e_j - e_j is then one column
of U^dagger U - I, and all columns together give the same max-entry
unitarity residual as a dense Gram product.  Both passes run on the
sparse simulator (``circuit.apply_sparse``), whose columns are
bit-identical to dense statevector passes.  Every encoding is an LCU of
shifts, so a basis column stays on at most 4^m basis states going
forward, and the forward pass costs at most gates * 2^q * 4^m entry
updates instead of the dense gates * 4^q; the adjoint pass brings each
column back to e_j, up to rounding residue.  Each declared block then
costs O(terms) per column and one sort of the panel's entries in its
block row, so no step grows as N^2.  A panel holds PANEL_ENTRIES >> 2m
columns.  No N-row array is formed, and verification stops at the
statevector cap (MAX_SIM_QUBITS).

Success probabilities are computed by two independent routes: applying
the encoding circuit to |0>|v> and collecting the zero-ancilla mass, or
applying alpha times the declared (0,0) stencil to the samples.  The
routes agree to ~1e-15 and the sweep uses the stencil route, which has
no qubit cap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import encodings, operators
from ._lazy import lazy_import
from .circuit import MAX_SIM_QUBITS, adjoint, apply_in_place, apply_sparse
from .encodings import BlockEncoding, alpha_d
from .errors import ParameterError, ShapeError, SizeError
from .operators import GridFunction, GridSpec

np = lazy_import("numpy")


# Budget of one verification panel, in sparse entries, not bytes: the
# per-gate sort temporaries of apply_sparse cost about 175 B per entry,
# and CLI ``verify --op laplace --dim 1 --n 16`` (18 q) peaks at 183 MB RSS.
PANEL_ENTRIES = 1 << 20


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing an encoding against its declared blocks."""

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


def _sparse_panels(enc: BlockEncoding, col: int):
    """Yield (start, width, entries) over panels of the columns |col>|j>.

    ``entries`` is the :func:`apply_sparse` output of U on the basis
    columns j = start .. start+width-1, column c of the panel being
    j = start + c.  The width keeps the sparse columns, at up to 4**m
    entries each, within PANEL_ENTRIES.
    """
    nq = enc.circuit.num_qubits
    if nq > MAX_SIM_QUBITS:
        raise SizeError(f"{nq} qubits exceeds the statevector cap {MAX_SIM_QUBITS}")
    N = enc.system_dim
    width = PANEL_ENTRIES >> min(2 * enc.m, nq)
    for start in range(0, N, width):
        stop = min(start + width, N)
        offsets = np.arange(stop - start)
        first = col * N + start
        basis = (offsets, (first + offsets).astype(np.uint64), np.ones(stop - start))
        yield start, stop - start, apply_sparse(enc.circuit, *basis)


def _block_deviation(entries, row: int, N: int, alpha: float, expected) -> float:
    """Max |block - alpha * expected| over a panel held as sparse entries.

    ``entries`` are :func:`apply_sparse` output and ``expected`` the
    :meth:`~fdblock.operators.Stencil.columns` of the same panel, to be
    matched against block row ``row``.  One sort puts the entries of
    each (column, row) pair side by side, and a segment sum takes their
    difference.
    """
    cols, idx, amp = entries
    lo = np.uint64(row * N)
    inside = (idx >= lo) & (idx < lo + np.uint64(N))
    k, rows, values = expected
    bits = np.uint64(N.bit_length() - 1)
    found = (cols[inside].astype(np.uint64) << bits) | (idx[inside] - lo)
    keys = np.concatenate((found, (k.astype(np.uint64) << bits) | rows))
    order = np.argsort(keys)
    keys = keys[order]
    diffs = np.concatenate((amp[inside], -(alpha * values)))[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    sums = np.add.reduceat(diffs, np.flatnonzero(first))
    # np.max, unlike the builtin, propagates a NaN into a FAIL.
    return float(np.max(np.abs(sums), initial=0.0))


def verify_pattern(enc: BlockEncoding, tol: float) -> VerificationReport:
    """Check every declared block and U^dagger U = I by a round trip.

    Every column of U runs forward once and back once through the
    adjoint circuit, both sparsely; each declared block is read from the
    forward panels and compared with alpha times its stencil's columns
    at the same basis states.
    """
    if not enc.blocks:
        raise ParameterError(f"{enc.label} declares no blocks to verify")
    N = enc.system_dim
    inverse = adjoint(enc.circuit)
    deviations, residuals = [0.0], [0.0]
    for col in range(1 << enc.m):
        wanted = [(row, stencil) for row, c, stencil in enc.blocks if c == col]
        for start, width, out in _sparse_panels(enc, col):
            js = np.arange(start, start + width, dtype=np.uint64)
            for row, stencil in wanted:
                expected = stencil.columns(js)
                deviations.append(_block_deviation(out, row, N, enc.alpha, expected))
            cols, idx, amp = apply_sparse(inverse, *out)
            diagonal = idx == (col * N + start + cols).astype(np.uint64)
            amp[diagonal] -= 1.0
            residuals.append(float(np.max(np.abs(amp), initial=0.0)))
            if np.count_nonzero(diagonal) < width:
                residuals.append(1.0)  # an absent diagonal entry is 0, off by 1
    # np.max, unlike the builtin, propagates a NaN into a FAIL.
    deviation = float(np.max(deviations))
    residual = float(np.max(residuals))
    passed = deviation <= tol and residual <= tol
    return VerificationReport(enc.label, deviation, residual, tol, passed)


def success_probability(enc: BlockEncoding, v: GridFunction, route: str = "circuit") -> float:
    """Probability of measuring all ancillas in |0> after applying the encoding.

    route="circuit" simulates the encoding on |0>|v|; route="matrix"
    evaluates the squared norm of alpha times the declared (0,0) block's
    stencil applied to v.
    """
    N = enc.system_dim
    if v.spec.npoints != N:
        raise ShapeError(f"grid has {v.spec.npoints} points, encoding expects {N}")
    if route == "matrix":
        return float(np.sum(np.abs(enc.alpha * _zero_block(enc).apply(v.values)) ** 2))
    if route != "circuit":
        raise ParameterError(f"unknown route {route!r}")
    # The gates overwrite this state, so it is never copied.
    state = np.zeros((enc.circuit.dim, 1), dtype=np.complex128)
    state[:N, 0] = v.values
    apply_in_place(enc.circuit, state)
    return float(np.sum(np.abs(state[:N, 0]) ** 2))


def _zero_block(enc: BlockEncoding) -> operators.Stencil:
    """The stencil of the encoding's declared (0,0) block."""
    stencil = next((s for row, col, s in enc.blocks if row == col == 0), None)
    if stencil is None:
        raise ParameterError(f"{enc.label} declares no (0,0) block")
    return stencil


def fd_error_max(v_field, exact_laplacian_field, spec: GridSpec) -> float:
    """Max-norm error of the discrete Laplacian against exact samples."""
    raw = operators.sample_grid(v_field, spec)
    return _fd_error(spec, raw, operators.sample_grid(exact_laplacian_field, spec))


def _fd_error(spec: GridSpec, raw: np.ndarray, exact: np.ndarray) -> float:
    """Max-norm error of the discrete Laplacian of raw samples against exact ones."""
    return float(np.max(np.abs(operators.laplacian_stencil(spec).apply(raw) - exact)))


@dataclass(frozen=True)
class FunctionFamily:
    """Probe prod_d trig(2 k pi x_d) on [0,1]^D, its exact Laplacian and constant.

    ``trig`` names the numpy ufunc, ``"sin"`` or ``"cos"``.
    ``constant(D) * h**4`` predicts the zero-ancilla success probability
    of the Laplacian encoding as h -> 0.  ``dims`` lists the admitted
    dimensions (None: any).
    """

    name: str
    trig: str
    k: int
    dims: tuple[int, ...] | None

    def check_dim(self, dim: int):
        if self.dims is not None and dim not in self.dims:
            raise ParameterError(f"family {self.name!r} supports dims {self.dims}, got {dim}")

    def field(self, dim: int):
        self.check_dim(dim)
        trig = getattr(np, self.trig)

        def f(*axes):
            out = trig(2.0 * self.k * np.pi * axes[0])
            for x in axes[1:]:
                out = out * trig(2.0 * self.k * np.pi * x)
            return out

        return f

    def laplacian_factor(self, dim: int) -> float:
        """The eigenvalue -dim (2 k pi)**2 that maps the field to its Laplacian."""
        self.check_dim(dim)
        return -dim * (2.0 * self.k * np.pi) ** 2

    def exact_laplacian(self, dim: int):
        field, factor = self.field(dim), self.laplacian_factor(dim)
        return lambda *axes: factor * field(*axes)

    def constant(self, dim: int) -> float:
        self.check_dim(dim)
        return self.k**4 * math.pi**4 * alpha_d(dim) ** 2


FAMILIES = {
    "sin1": FunctionFamily("sin1", "sin", 1, (1,)),
    "cos3": FunctionFamily("cos3", "cos", 3, (1,)),
    "sinprod": FunctionFamily("sinprod", "sin", 1, None),
}


def sweep_success_probability(
    dim: int, n_range, family: str, op: str = "laplace"
) -> list[SweepRow]:
    """Success probability and discretization error over grid refinements.

    Any op of :data:`~fdblock.encodings.OPS` whose declared (0,0) block
    is the scaled Laplacian sweeps: today op="laplace" (the Laplacian
    encoding) and op="lcu" (the banded comparison instance, dim 1 only).
    p_predicted and e_max assume that block, so any other op raises
    ParameterError before its row is sampled.  p_success comes from the
    encoding's declared (0,0) block, and the predicted constant, made
    for the Laplacian encoding's alpha_d(dim), is scaled by
    (alpha / alpha_d)**2.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    fam = FAMILIES[family]
    fam.check_dim(dim)

    rows = []
    for n in n_range:
        start = time.monotonic()
        enc = encodings.build_encoding(op, dim, n)
        spec = GridSpec(dim, n)
        if _zero_block(enc) != operators.scaled_laplacian_stencil(spec):
            raise ParameterError(f"op {op!r} does not encode the scaled Laplacian in block (0,0)")
        raw = operators.sample_grid(fam.field(dim), spec)
        gf = GridFunction.from_samples(spec, raw)
        e_max = _fd_error(spec, raw, fam.laplacian_factor(dim) * raw)
        scale = (enc.alpha / alpha_d(dim)) ** 2
        rows.append(
            SweepRow(
                D=dim,
                n=n,
                h=spec.h,
                N_D=spec.npoints,
                p_success=success_probability(enc, gf, "matrix"),
                p_predicted=scale * fam.constant(dim) * spec.h**4,
                e_max=e_max,
                alpha=enc.alpha,
                runtime=time.monotonic() - start,
            )
        )
    if not rows:
        raise ParameterError("empty sweep range")
    return rows


SWEEP_CSV_HEADER = "D,n,h,N_D,p_success,p_predicted,e_max,alpha"


def sweep_csv(rows: list[SweepRow]) -> str:
    """Deterministic CSV of a sweep; the runtime column is deliberately omitted."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.D},{r.n},{r.h:.17g},{r.N_D},{r.p_success:.17g},"
            f"{r.p_predicted:.17g},{r.e_max:.17g},{r.alpha:.17g}"
        )
    return "\n".join(lines) + "\n"
