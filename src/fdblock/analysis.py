"""Block verification, success probabilities, and sweeps.

Every expected block comes from the encoding itself: each builder
declares its blocks as (row, col, stencil) triples, each block being
alpha times its :class:`~fdblock.operators.Stencil`
(``BlockEncoding.blocks``).

Verification never builds the full unitary.  Every column of U runs
forward at once on the cube simulator (``circuit.apply_cubes``, pure
Python ints), and the output back through the adjoint circuit.  One
comparison, ``_move_gap``, then checks both passes by move, the per-axis
difference (output - input) mod N of an entry, packed the way a grid
index is: each declared block of the forward entries against alpha
times its stencil's one value per move (``Stencil.moves``), and the
round trip against the identity, whose largest gap is the max-entry
unitarity residual max |U^dagger U - I|; there the whole width is one
field.  An entry whose xor flips free bits makes different moves on
different parts of its cube, and the comparison solves for the part
that makes each expected move instead of listing the parts.  So its
cost follows the entries times the expected moves, never the columns.
Every encoding is an LCU of shifts, so for the fixed-dim ops and
laplace at D <= 4 the entries stay a few thousand at 18 qubits and
about 30,000 at the 64-qubit build cap.  The entry budget
``circuit.MAX_CUBES`` is verification's only size limit; laplace at
D >= 5, with 5 or more ancillas, passes it well below 64 qubits (at
40 qubits for D=5, 24 for D=9 and D=17), until ROADMAP item 8 runs one
ancilla-input group at a time.  A verify process never loads numpy.
The amplitudes are those of the test suite's dense statevector
simulator bit for bit.  So are the deviations, as long as every
amplitude and declared coefficient is real, as every gate kind and
builder keeps them; numpy's complex abs can differ from Python's in
the last digit otherwise.  The test suite's second route to the
report runs the columns on numpy sparse panels (``tests/oracles.py``).

Success probabilities are computed by two independent routes: running
the encoding circuit on |0>|v> and collecting the zero-ancilla mass, or
applying alpha times the declared (0,0) stencil to the samples.  The
circuit route passes every basis column and the ancilla mask to the
cube simulator, which runs only the ancilla-zero columns and drops
each output with an ancilla at 1 right after that ancilla's last
gate.  That block does not depend on v, so it is simulated once per
encoding object and kept, with each returned entry's strided views,
until the route runs another encoding.  Each
call multiplies v by every entry's amplitude as one strided view whose
longest run is iterated innermost, so its cost follows the summed sizes
of those cubes (about 3N for the 1-d Laplacian).  An entry whose output
cube meets no earlier entry's, a first writer, stores its product in
place; the others add theirs through one scratch array, and the output
is zeroed only where the first writers leave part of it unwritten.  The
stencil route applies the stencil by slices (``Stencil.apply``) and
multiplies by alpha in place.  Both routes square the image's magnitudes
in place and sum them.  Neither route has a qubit cap; the circuit
route is bounded by the entry budget.  The routes agree to ~1e-15 and
the sweep uses the stencil route.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

from . import encodings, operators
from .circuit import adjoint, apply_cubes, basis_cubes
from .encodings import BlockEncoding, alpha_d
from .errors import ParameterError, ShapeError
from .operators import GridFunction, GridSpec


class VerificationReport(NamedTuple):
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


class SweepRow(NamedTuple):
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


def _worse(worst: float, gap: float) -> float:
    """The larger of two gaps; a NaN, once seen, stays and FAILs the report."""
    return gap if gap > worst or gap != gap else worst


def _move_gap(cubes, expected, k: int, n: int, row: int = 0, col: int = 0) -> float:
    """Max |found - expected| over block (row, col), compared by move.

    Each entry (care, val, xor, amp) sends input j of its cube to
    j ^ xor.  The block's inputs carry col above bit k and its outputs
    row; with k the full width, the block is the whole matrix.  The low
    k bits are n-bit fields, and ``expected`` maps a move, output - input
    mod 2**n in each field packed the same way, to its one value for
    every input.  In a field, j ^ xor moves j by xor - 2 (j & xor); so
    with t = (xor - move) mod 2**n, the inputs that make the move are one
    piece of the cube, those with j & xor = t / 2 below the field's top
    bit, or none: if t is odd, or t / 2 sets a bit that xor leaves alone
    or that the cube fixes otherwise.  Each hit is compared with its
    move's value, and the entry's other pieces, one per setting of its
    free flipped bits, with 0 at once.  An expected move that the hits
    cover only in part counts its value in full.
    """
    system = (1 << k) - 1
    field = (1 << n) - 1
    shifts = range(0, k, n)
    lows = sum(1 << s for s in shifts)
    below = sum(field >> 1 << s for s in shifts)  # all but each field's top bit
    solved = {}  # xor -> [(move, value, t / 2)] for every move the xor can make
    covered = dict.fromkeys(expected, 0)
    worst = 0.0
    for care, val, xor, amp in cubes:
        if ((val >> k) ^ col) & (care >> k):
            continue
        if (((val & system) | (col << k)) ^ xor) >> k != row:
            continue
        care, val, xor = care & system, val & system, xor & system
        flips = xor & below
        if xor not in solved:
            solved[xor] = []
            for move, value in expected.items():
                t = sum((((xor >> s) - (move >> s)) & field) << s for s in shifts)
                if not (t & lows or t >> 1 & ~flips):
                    solved[xor].append((move, value, t >> 1))
        free = flips & ~care
        size = 1 << (k - (care | free).bit_count())
        hits = 0
        for move, value, half in solved[xor]:
            if not (half ^ val) & care & flips:
                hits += 1
                covered[move] += size
                worst = _worse(worst, abs(amp - value))
        if hits < 1 << free.bit_count():
            worst = _worse(worst, abs(amp))
    for move, value in expected.items():
        if covered[move] < 1 << k:
            worst = _worse(worst, abs(value))
    return worst


def verify_pattern(enc: BlockEncoding, tol: float) -> VerificationReport:
    """Check every declared block and U^dagger U = I by a round trip.

    All columns of U run forward at once as cube entries
    (``circuit.apply_cubes``), and the output back through the adjoint
    circuit.  Each declared block of the forward entries is compared
    with alpha times its stencil's moves, and the round trip with the
    identity, by one comparison, :func:`_move_gap`.  A tolerance that
    is not finite and positive raises ParameterError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"tolerance must be finite and positive, got {tol}")
    if not enc.blocks:
        raise ParameterError(f"{enc.label} declares no blocks to verify")
    circuit = enc.circuit
    nq = circuit.num_qubits
    forward = apply_cubes(circuit, basis_cubes(circuit))
    k = nq - enc.m
    deviation = 0.0
    for row, col, stencil in enc.blocks:
        expected = {move: enc.alpha * value for move, value in stencil.moves().items()}
        gap = _move_gap(forward, expected, k, stencil.spec.n, row, col)
        deviation = _worse(deviation, gap)
    back = apply_cubes(adjoint(circuit), forward)
    residual = _move_gap(back, {0: 1.0}, nq, nq)
    passed = deviation <= tol and residual <= tol
    return VerificationReport(enc.label, deviation, residual, tol, passed)


def success_probability(enc: BlockEncoding, v: GridFunction, route: str = "circuit") -> float:
    """Probability of measuring all ancillas in |0> after applying the encoding.

    Both routes compute the zero-ancilla block's image A v of the
    samples and its squared norm, with the magnitudes squared in place
    (:func:`_mass`).  route="circuit" runs the encoding on |0>|v>
    (:func:`_circuit_image`): it passes every basis column
    (``basis_cubes``) with the ancilla mask as ``apply_cubes``'s
    ``zeros``, so the cube simulator runs only the columns whose ancilla
    bits are 0 and keeps only the outputs whose ancilla bits are 0,
    dropping the rest as soon as their ancillas can no longer change.
    It runs once per encoding object (:func:`_zero_views`), so later
    calls on the same encoding only apply its entries.  Each entry
    multiplies v by its amplitude on the entry's cube, as one strided
    view (:func:`_views`) transposed so that its longest run is iterated
    innermost.  The product is stored straight into the output where no
    earlier entry writes, and added through a scratch array elsewhere.
    Only the entry budget ``circuit.MAX_CUBES`` limits this route.
    route="matrix" multiplies the declared (0,0) block's stencil applied
    to v by alpha in place (:func:`_stencil_image`).
    """
    N = enc.system_dim
    if v.spec.npoints != N:
        raise ShapeError(f"grid has {v.spec.npoints} points, encoding expects {N}")
    if route == "matrix":
        return _mass(_stencil_image(enc, v.values))
    if route != "circuit":
        raise ParameterError(f"unknown route {route!r}")
    return _mass(_circuit_image(enc, v.values))


def _mass(image) -> float:
    """The sum of |image|**2, the magnitudes squared in place."""
    import numpy as np

    mag = np.abs(image)
    np.square(mag, out=mag)
    return float(np.sum(mag))


def _stencil_image(enc: BlockEncoding, values):
    """The zero-ancilla block's image of the values: alpha times its stencil applied to them."""
    image = _zero_block(enc).apply(values)
    image *= enc.alpha
    return image


def _circuit_image(enc: BlockEncoding, values):
    """The zero-ancilla block's image of the values, by the circuit's plan.

    A first writer's product is stored in place; every other entry's
    goes through a scratch array of N entries and is added.  The output
    is zeroed only where the first writers leave part of it unwritten.
    """
    import numpy as np

    plan, covered = _zero_views(enc)
    values = np.ascontiguousarray(values)
    N = enc.system_dim
    out = np.empty(N, dtype=np.complex128) if covered else np.zeros(N, dtype=np.complex128)
    scratch = np.empty(N, dtype=np.complex128)
    for shape, source, target, order, amp, first in plan:
        x = values.reshape(shape)[source].transpose(order)
        y = out.reshape(shape)[target].transpose(order)
        if first:
            np.multiply(x, amp, out=y)
        else:
            np.add(y, np.multiply(x, amp, out=scratch[: x.size].reshape(x.shape)), out=y)
    return out


# The last encoding that the circuit route ran and its plan, replaced in
# place.  Holding the encoding keeps its id from passing to a later object.
_last_zero_views: list = [None, ((), False)]


def _zero_views(enc: BlockEncoding) -> tuple[tuple, bool]:
    """The circuit route's plan, and whether its first writers cover the grid.

    The plan holds one (shape, source, target, order, amp, first) per
    entry.  Once per encoding object, the cube simulator gets every
    basis column (``basis_cubes``) with the ancilla mask as
    ``apply_cubes``'s ``zeros``, and returns the zero-ancilla block: the
    columns and the outputs whose ancillas are 0.  Each entry becomes
    its grid views (:func:`_views`) and ``order``, the view's free axes
    sorted by length, so that the longest run is iterated innermost.
    ``first`` marks a first writer: an entry whose output cube
    (care, (val ^ xor) & care) meets no earlier entry's, so that the
    route may store its product, not add it.
    The first writers' cubes are disjoint, so they cover the grid when
    their sizes sum to N.  The plan does not depend on v, so the route
    keeps the last one; a new object, even one equal to the last, runs
    its own simulation, and a SizeError from the entry budget keeps
    nothing.
    """
    last, views = _last_zero_views
    if last is enc:
        return views
    circuit = enc.circuit
    N = enc.system_dim
    k = circuit.num_qubits - enc.m
    ancillas = (circuit.dim - 1) ^ (N - 1)
    plan = []
    outputs = []  # the (care, value) output cube of every entry so far
    written = 0
    for care, val, xor, amp in apply_cubes(circuit, basis_cubes(circuit), ancillas):
        shape, source, target = _views(care, val, xor, k)
        runs = [size for size, index in zip(shape, source) if isinstance(index, slice)]
        order = tuple(sorted(range(len(runs)), key=runs.__getitem__))
        care &= N - 1
        value = (val ^ xor) & care
        first = all((value ^ v) & care & c for c, v in outputs)
        if first:
            written += N >> care.bit_count()
        outputs.append((care, value))
        plan.append((shape, source, target, order, amp, first))
    views = tuple(plan), written == N
    _last_zero_views[:] = enc, views
    return views


def _views(care: int, val: int, xor: int, k: int) -> tuple:
    """Shape and (source, target) indices of a cube entry's grid views.

    The low k bits split into runs, most significant first, of bits
    fixed in care, free bits, and free bits that xor flips; the shape
    has one axis per run.  A fixed run indexes the input val and the
    output val ^ xor with integers.  A free run is a whole axis, reversed
    on the output side when xor flips it, since j ^ (2**r - 1) is
    2**r - 1 - j on r bits.  Each index ends in an Ellipsis, so that
    it selects a view even when every run is fixed.
    """

    def kind(b):  # 0 fixed, 1 free, 2 free and flipped
        return 0 if care >> b & 1 else 1 + (xor >> b & 1)

    shape, source, target = [], [], []
    top = k
    while top:
        low = top - 1
        while low and kind(low - 1) == kind(top - 1):
            low -= 1
        mask = (1 << (top - low)) - 1
        shape.append(mask + 1)
        if kind(low) == 0:
            source.append(val >> low & mask)
            target.append((val ^ xor) >> low & mask)
        else:
            source.append(slice(None))
            target.append(slice(None, None, -1) if kind(low) == 2 else slice(None))
        top = low
    return tuple(shape), (*source, ...), (*target, ...)


def _zero_block(enc: BlockEncoding) -> operators.Stencil:
    """The stencil of the encoding's declared (0,0) block."""
    stencil = next((s for row, col, s in enc.blocks if row == col == 0), None)
    if stencil is None:
        raise ParameterError(f"{enc.label} declares no (0,0) block")
    return stencil


class FunctionFamily(NamedTuple):
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
        import numpy as np

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
        return -dim * (2.0 * self.k * math.pi) ** 2

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
    import numpy as np

    rows = []
    for n in n_range:
        start = time.monotonic()
        enc = encodings.build_encoding(op, dim, n)
        spec = GridSpec(dim, n)
        if _zero_block(enc) != operators.scaled_laplacian_stencil(spec):
            raise ParameterError(f"op {op!r} does not encode the scaled Laplacian in block (0,0)")
        raw = operators.sample_grid(fam.field(dim), spec)
        gf = GridFunction.from_samples(spec, raw)
        lap = operators.laplacian_stencil(spec)
        # the probe's exact Laplacian is its factor times the samples; one
        # expression, so that no grid-sized array outlives it
        e_max = float(np.max(np.abs(lap.apply(raw) - fam.laplacian_factor(dim) * raw)))
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
