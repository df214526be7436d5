"""Gate-level circuit IR, dense statevector and sparse column simulation.

Conventions
-----------
Qubit 0 carries the *most significant* bit of the basis index (big
endian): the basis state |b0 b1 ... b_{n-1}> has index
b0*2^(n-1) + b1*2^(n-2) + ... + b_{n-1}.  With numpy's C-order reshape of
a statevector to shape (2,)*n, tensor axis q is exactly qubit q.

A gate is a named tuple, checked by the Circuit that takes it.  Gates
are listed in application order (first gate acts first).  A controlled
gate acts as the identity unless every control qubit matches its
polarity (1 = filled control, 0 = open control).

Circuits carry no register names: a builder documents which wires form
which register.  For ancillas on the first m wires and a k-qubit system
register after them, the composite basis index of |a>|s> is a*2^k + s.

Two simulators compute the same columns bit for bit, because both
evaluate H and RY on a pair of amplitudes with one kernel, ``_mix``.
``apply`` and ``apply_in_place`` run dense statevectors, so each column
costs gates * 2^q amplitude updates.  They update the state in place
through one scratch buffer of half its size (its full size when an RY
gate has no controls).  ``apply`` copies the caller's vector or columns
first; ``apply_in_place`` overwrites them.  ``apply_sparse`` keeps only
a column's nonzero entries, so it costs gates * (support) updates plus
one sort per H or RY gate.  Run through an LCU circuit
W_out . (sum_a |a><a| (x) P_a) . W_in, with W_in and W_out on the m
ancillas and each P_a a permutation of system basis states, a basis
column keeps at most 4^m entries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import lazy_import
from .errors import QubitIndexError, ShapeError, SizeError

np = lazy_import("numpy")

GATE_KINDS = ("X", "Z", "H", "RY")

# The statevector cap.
MAX_SIM_QUBITS = 18

_RSQRT2 = 1.0 / math.sqrt(2.0)


class Gate(NamedTuple):
    """One gate record: kind, target, (qubit, polarity) controls, RY angle."""

    kind: str
    target: int
    controls: tuple[tuple[int, int], ...] = ()
    theta: float | None = None


def _integers(first, rest) -> bool:
    """Whether first and every item of rest are integers (bools included).

    One sum and one index check: a sum with a float or a string in it
    is no integer.
    """
    try:
        operator.index(sum(rest, first))
    except TypeError:
        return False
    return True


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on num_qubits wires; the one place gates are checked.

    A bad gate raises QubitIndexError naming its position in the list.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        n = self.num_qubits
        if n < 1:
            raise QubitIndexError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, g in enumerate(self.gates):
            if not isinstance(g, Gate):
                raise QubitIndexError(f"gate {i}: {g!r} is not a Gate")
            kind, target, controls, theta = g
            ctrl = dict(controls)
            if kind not in GATE_KINDS:
                problem = f"unknown gate kind {kind!r}"
            elif kind == "RY" and (theta is None or not math.isfinite(theta)):
                problem = "RY needs a finite angle"
            elif kind != "RY" and theta is not None:
                problem = f"{kind} takes no angle"
            elif not _integers(target, ctrl):
                problem = f"qubits {(target, *ctrl)} are not all integers"
            elif target in ctrl:
                problem = f"target {target} also appears as control"
            elif len(ctrl) != len(controls):
                problem = "a control qubit repeats"
            elif not (_integers(0, ctrl.values()) and {0, 1}.issuperset(ctrl.values())):
                problem = f"control polarities {tuple(ctrl.values())} are not all 0 or 1"
            elif not (0 <= target < n and 0 <= min(ctrl, default=0) <= max(ctrl, default=0) < n):
                problem = f"qubits {(target, *ctrl)} are not all in 0..{n - 1}"
            else:
                continue
            raise QubitIndexError(f"gate {i}: {problem}")

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


def _mix(g: Gate, lo, hi, out0, out1, tmp) -> None:
    """Write H or RY gate g's image of the amplitude pairs (lo, hi).

    The one copy of the pair arithmetic: both simulators call it, so
    their columns agree bit for bit.  out0 gets the target-bit-0 half
    and out1 the target-bit-1 half; out1 may be hi, but out0 and tmp, a
    scratch array that only RY uses, must overlap neither input.
    """
    if g.kind == "H":
        np.multiply(np.add(lo, hi, out=out0), _RSQRT2, out=out0)
        np.multiply(np.subtract(lo, hi, out=out1), _RSQRT2, out=out1)
    else:  # RY: out0 <- c*lo - s*hi, out1 <- s*lo + c*hi
        c = math.cos(g.theta / 2.0)
        s = math.sin(g.theta / 2.0)
        np.subtract(np.multiply(c, lo, out=out0), np.multiply(s, hi, out=tmp), out=out0)
        np.add(np.multiply(s, lo, out=tmp), np.multiply(c, hi, out=out1), out=out1)


def _run_gates(gates, psi: np.ndarray) -> np.ndarray:
    """Apply gates in order to psi of shape (2,)*num_qubits (+ batch axes).

    Each gate updates the half-slices v0 and v1 of psi (its target bit 0
    and 1, under its controls) in place.  v0's old values pass through
    one scratch buffer, allocated once per call, and H and RY combine
    them with v1 in :func:`_mix`.  Every gate needs one temporary of
    v0's size and RY two, so the buffer holds psi.size // 2 entries,
    which a control on the RY halves; an uncontrolled RY doubles the
    buffer instead.
    """
    wide = any(g.kind == "RY" and not g.controls for g in gates)
    scratch = np.empty(psi.size if wide else psi.size // 2, dtype=psi.dtype)
    for g in gates:
        sel0 = [slice(None)] * psi.ndim
        for q, pol in g.controls:
            sel0[q] = int(pol)  # numpy reads a bool index as a mask
        sel1 = list(sel0)
        sel0[g.target] = 0
        sel1[g.target] = 1
        v0, v1 = psi[tuple(sel0)], psi[tuple(sel1)]
        if g.kind == "Z":
            np.negative(v1, out=v1)
            continue
        a = scratch[: v0.size].reshape(v0.shape)
        np.copyto(a, v0)
        if g.kind == "X":
            np.copyto(v0, v1)
            np.copyto(v1, a)
        else:
            t = scratch[v0.size : 2 * v0.size].reshape(v0.shape) if g.kind == "RY" else None
            _mix(g, a, v1, v0, v1, t)
    return psi


def apply(circuit: Circuit, states) -> np.ndarray:
    """Return U_c times states, a (2**n,) vector or a (2**n, k) array of columns.

    The gates run in place on a copy, so ``states`` is left unchanged;
    the result has its shape.  Statevectors are capped at MAX_SIM_QUBITS
    wires (larger than the grid-vector cap in linalg, which governs
    sampled functions).
    """
    psi = np.array(states, dtype=np.complex128, order="C")
    if psi.ndim not in (1, 2):
        raise ShapeError(f"expected shape ({circuit.dim},) or ({circuit.dim}, k), got {psi.shape}")
    apply_in_place(circuit, psi[:, None] if psi.ndim == 1 else psi)
    return psi


def apply_in_place(circuit: Circuit, psi: np.ndarray) -> np.ndarray:
    """Overwrite every column of psi, a (2**n, k) array, with U_c times it.

    psi must be a C-contiguous complex128 array with finite entries; it
    is returned.  This is :func:`apply` without its copy, for
    a state that the caller built and does not need again.
    """
    if circuit.num_qubits > MAX_SIM_QUBITS:
        raise SizeError(
            f"{circuit.num_qubits} qubits exceeds the statevector cap {MAX_SIM_QUBITS}"
        )
    if not (isinstance(psi, np.ndarray) and psi.dtype == np.complex128 and psi.flags.c_contiguous):
        raise ShapeError("the state must be a C-contiguous complex128 array")
    if psi.ndim != 2 or psi.shape[0] != circuit.dim:
        raise ShapeError(f"expected shape ({circuit.dim}, k), got {psi.shape}")
    if not np.all(np.isfinite(psi.view(np.float64))):
        raise ShapeError("entries must be finite")
    _run_gates(circuit.gates, psi.reshape((2,) * circuit.num_qubits + (psi.shape[1],)))
    return psi


def apply_sparse(circuit: Circuit, cols, idx, amp):
    """Apply the circuit to a panel of columns held as sparse entries.

    Entry e is amplitude ``amp[e]`` on basis state ``idx[e]`` (uint64)
    of column ``cols[e]`` (non-negative int64).  A column's absent basis
    states are zero, and no (column, index) pair may appear twice.
    X permutes indices and Z negates amplitudes.  H and RY pair each
    entry with its partner across the target bit, a missing partner
    counting as zero, and evaluate the pair with :func:`_mix`, as the
    dense simulator does, so every column is bit-identical to
    :func:`apply` on it.  Exact zeros are dropped and nothing
    else is, so the cost follows the columns' support (at most 4**m
    entries for a basis column of an LCU circuit, see the module
    docstring).

    Returns new (cols, idx, amp) arrays; entries come in no fixed order.
    Raises SizeError when a column id and a basis index do not fit one
    64-bit sort key together.
    """
    nq = circuit.num_qubits
    cols = np.array(cols, dtype=np.int64)
    idx = np.array(idx, dtype=np.uint64)
    amp = np.array(amp, dtype=np.complex128)
    if not cols.shape == idx.shape == amp.shape or cols.ndim != 1:
        raise ShapeError(f"entry arrays differ in shape: {cols.shape}, {idx.shape}, {amp.shape}")
    if idx.size and (int(idx.max()) >> nq or cols.min() < 0):
        raise ShapeError(f"entries must have column ids >= 0 and indices below 2**{nq}")
    # H and RY sort on one 64-bit key: column id above the cleared index.
    if idx.size and int(cols.max()).bit_length() + nq > 64:
        raise SizeError(f"column id {int(cols.max())} and {nq} qubits exceed a 64-bit sort key")
    for g in circuit.gates:
        bit = np.uint64(1 << (nq - 1 - g.target))
        mask = value = 0
        for q, pol in g.controls:
            mask |= 1 << (nq - 1 - q)
            value |= pol << (nq - 1 - q)
        mask, value = np.uint64(mask), np.uint64(value)
        if g.kind == "X":
            idx = idx ^ (((idx & mask) == value) * bit)
            continue
        if g.kind == "Z":
            amp = np.where((idx & (mask | bit)) == (value | bit), -amp, amp)
            continue
        sel = (idx & mask) == value
        rest = ~sel
        c, i, a = cols[sel], idx[sel], amp[sel]
        cleared = i & ~bit
        order = np.argsort((c.astype(np.uint64) << np.uint64(nq)) | cleared)
        c, i, a, cleared = c[order], i[order], a[order], cleared[order]
        first = np.ones(c.size, dtype=bool)
        first[1:] = (cleared[1:] != cleared[:-1]) | (c[1:] != c[:-1])
        pair = np.cumsum(first) - 1
        high = (i & bit) != 0
        lo = np.zeros(int(first.sum()), dtype=np.complex128)
        hi = np.zeros_like(lo)
        lo[pair[~high]] = a[~high]
        hi[pair[high]] = a[high]
        new0 = np.empty_like(lo)
        _mix(g, lo, hi, new0, hi, np.empty_like(lo) if g.kind == "RY" else None)
        c, cleared = c[first], cleared[first]
        cols = np.concatenate((cols[rest], c, c))
        idx = np.concatenate((idx[rest], cleared, cleared | bit))
        amp = np.concatenate((amp[rest], new0, hi))
        keep = amp != 0
        cols, idx, amp = cols[keep], idx[keep], amp[keep]
    return cols, idx, amp


def adjoint(circuit: Circuit) -> Circuit:
    """Circuit of U^dagger: the gates reversed, each RY angle negated.

    X, Z and H are self-adjoint, and the adjoint of a controlled gate
    is the controlled adjoint, so only RY changes.
    """
    gates = tuple(
        g._replace(theta=-g.theta) if g.kind == "RY" else g for g in reversed(circuit.gates)
    )
    return Circuit(circuit.num_qubits, gates)


def export_text(circuit: Circuit) -> str:
    """One gate per line: ``KIND target [ctrl:+q|-q ...] [theta=<float>]``."""
    lines = []
    for g in circuit.gates:
        parts = [g.kind, str(g.target)]
        parts.extend(f"ctrl:{'+' if pol else '-'}{q}" for q, pol in g.controls)
        if g.kind == "RY":
            parts.append(f"theta={g.theta:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
