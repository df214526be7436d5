"""Gate-level circuit IR and its cube simulator.

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

``apply_cubes`` runs any set of basis columns at once in Python ints,
as cube entries; ``basis_cubes`` gives every column.  A wire is
quantum if an H or RY gate targets it and classical otherwise;
classical wires only ever see X and Z.  An entry (care, val, xor, amp)
stands for every input index j with j & care == val, and puts
amplitude amp on the output index j ^ xor.  Every entry fixes the
quantum bits in care.  X flips a bit of xor, Z negates amp, and a
control on a classical bit that the cube leaves free cuts the cube in
two (Z acts as a control on its own target).  H and RY pair entries
whose xor differ only in the target bit; overlapping cubes are cut so
that each piece has one (lo, hi) pair, a missing partner counting as
zero, ``_mix_pair`` evaluates the pair, and exact zeros are dropped.
So each input's amplitudes are bit for bit those of a dense
statevector run that evaluates each pair with the same expressions in
the same order; the test suite keeps such a simulator as the reference
(``tests/oracles.py``).  Cubes that differ in one fixed classical bit
and agree otherwise are then joined.  For each input at most one
entry has a given xor.  Run through an LCU circuit
W_out . (sum_a |a><a| (x) P_a) . W_in, with W_in and W_out on the m
ancillas and each P_a a cyclic shift of system basis states, every
shift's carry classes become cubes, so the entries stay few (at most a
few thousand at 18 qubits) however wide the grid.  A shift moves every
column of such a cube by the same difference mod N, so verification
compares the entries with the declared stencils by that move, not by
their xor.  A caller that wants the block between zero states of some
wires, such as the ancillas' zero block, passes their bits as
``zeros``: only the inputs at 0 there run, so an output's zeros bit is
its xor bit, and the outputs at 1 on a zeros bit are dropped by xor
right after the last gate that targets it, so the closing W_out layers
never run them.  Cutting a cube on a bit (``_select``) serves only the
controls.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from ._frozen import Frozen, _index
from .errors import QubitIndexError, ShapeError, SizeError

GATE_KINDS = ("X", "Z", "H", "RY")

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


class Circuit(Frozen):
    """Ordered gate list on num_qubits wires; the one place gates are checked.

    A bad gate raises QubitIndexError naming its position in the list.
    The width, the targets and the (qubit, polarity) controls are stored
    as Python ints, whatever integer type (bool, numpy) they came as.
    """

    __slots__ = _compared = ("num_qubits", "gates")

    def __init__(self, num_qubits: int, gates: tuple[Gate, ...] = ()):
        n = _index("num_qubits", num_qubits, QubitIndexError)
        if n < 1:
            raise QubitIndexError("circuit needs at least one qubit")
        checked = []
        for i, g in enumerate(gates):
            if not isinstance(g, Gate):
                raise QubitIndexError(f"gate {i}: {g!r} is not a Gate")
            kind, target, controls, theta = g
            ctrl = dict(controls)
            exact = (
                type(target) is int
                and {int}.issuperset(map(type, ctrl))
                and {int}.issuperset(map(type, ctrl.values()))
            )
            if kind not in GATE_KINDS:
                problem = f"unknown gate kind {kind!r}"
            elif kind == "RY" and (theta is None or not math.isfinite(theta)):
                problem = "RY needs a finite angle"
            elif kind != "RY" and theta is not None:
                problem = f"{kind} takes no angle"
            elif not (exact or _integers(target, ctrl)):
                problem = f"qubits {(target, *ctrl)} are not all integers"
            elif target in ctrl:
                problem = f"target {target} also appears as control"
            elif len(ctrl) != len(controls):
                problem = "a control qubit repeats"
            elif not ((exact or _integers(0, ctrl.values())) and {0, 1}.issuperset(ctrl.values())):
                problem = f"control polarities {tuple(ctrl.values())} are not all 0 or 1"
            elif not (0 <= target < n and 0 <= min(ctrl, default=0) <= max(ctrl, default=0) < n):
                problem = f"qubits {(target, *ctrl)} are not all in 0..{n - 1}"
            else:
                if not exact:  # bools and numpy integers, stored as Python ints
                    index = operator.index
                    controls = tuple(zip(map(index, ctrl), map(index, ctrl.values())))
                    g = Gate(kind, index(target), controls, theta)
                checked.append(g)
                continue
            raise QubitIndexError(f"gate {i}: {problem}")
        self._init(n, tuple(checked))

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


def _mix_pair(g: Gate, lo: complex, hi: complex) -> tuple[complex, complex]:
    """H or RY gate g's image of one amplitude pair (lo, hi), target bit 0 and 1."""
    if g.kind == "H":
        return (lo + hi) * _RSQRT2, (lo - hi) * _RSQRT2
    c = math.cos(g.theta / 2.0)
    s = math.sin(g.theta / 2.0)
    return c * lo - s * hi, s * lo + c * hi


# The cube simulator's budget of live entries.  The fixed-dim ops and
# laplace at D <= 4 (at most 4 ancillas), all that tests/oracles.BUILDS
# covers, peak below 6000 at 18 qubits (laplace D=3 n=4) and below 31000
# at 64 qubits.  Laplace at D >= 5 has 5 or more ancillas, and a verify
# pass outgrows the budget well below 64 qubits: it is refused with
# 69632 entries on D=5 n=7 (40 q), and with 112640 and 74240 on D=9 n=2
# and D=17 n=1 (24 q).
# ROADMAP item 8 (verify one ancilla-input group at a time) is the fix.
# A circuit that spreads its columns over many wires (an H on every grid
# wire, say) needs up to 4**q and is refused as it passes this.
MAX_CUBES = 1 << 16


def quantum_bits(circuit: Circuit) -> int:
    """Index bits of the circuit's quantum wires, those an H or RY gate targets."""
    nq = circuit.num_qubits
    bits = 0
    for g in circuit.gates:
        if g.kind in ("H", "RY"):
            bits |= 1 << (nq - 1 - g.target)
    return bits


def basis_cubes(circuit: Circuit) -> list:
    """Cube entries of every basis column of the circuit: the identity.

    One entry (quantum, p, 0, 1) for each setting p of the quantum
    bits; see the module docstring.
    """
    quantum = quantum_bits(circuit)
    count = 1 << quantum.bit_count()
    if count > MAX_CUBES:
        raise SizeError(f"{count} cube entries exceed the budget of {MAX_CUBES}")
    cubes, p = [], 0
    while True:
        cubes.append((quantum, p, 0, 1 + 0j))
        p = (p - quantum) & quantum
        if not p:
            return cubes


def apply_cubes(circuit: Circuit, cubes, zeros: int = 0) -> list:
    """Run the circuit on cube entries (care, val, xor, amp); see the module docstring.

    Every entry must fix the circuit's quantum bits in ``care``, as the
    entries of :func:`basis_cubes` do, and those of this function for
    the circuit and its adjoint, which has the same H and RY targets.
    Returns the output entries in no fixed order.

    ``zeros`` is a mask of bits, such as the ancillas of a block
    encoding, on which the caller wants the block between zero states:
    the inputs and the outputs at 0 on every zeros bit.  The input
    entries' xor must leave the zeros bits at 0, as that of
    :func:`basis_cubes` does.  At the start only those inputs run: each
    entry keeps the part of its cube at 0 there, with the zeros bits
    fixed in its care.  Cuts only fix more bits, and joins only free a
    bit on which vals differ, so every entry keeps them fixed at 0 and
    an output's zeros bit is its xor bit; a bit that no gate targets
    stays at 0.  A bit no longer changes after the last gate that
    targets it (later gates only read it as a control), so right after
    that gate the entries whose xor sets it are dropped.  An H or RY
    pairs outputs that agree on every bit but its target, and cubes
    join only within one xor, so kept and dropped entries never meet:
    the result is, in the same order, the entries of the unprojected
    run on those inputs whose xor leaves the zeros bits at 0.

    Raises SizeError when the live entries outgrow MAX_CUBES, counted
    after projected entries are dropped and before H and RY outputs are
    joined.
    """
    nq = circuit.num_qubits
    quantum = quantum_bits(circuit)
    if any(care & quantum != quantum for care, *_ in cubes):
        raise ShapeError("every cube entry must fix the quantum bits")
    if zeros:  # only the inputs at 0 on the zeros bits run
        cubes = [(c | zeros, v, x, a) for c, v, x, a in cubes if not v & zeros]
    settled = set()  # indices of the gates that target a zeros bit last
    for i in reversed(range(len(circuit.gates))):
        bit = 1 << (nq - 1 - circuit.gates[i].target)
        if zeros & bit:
            settled.add(i)
            zeros ^= bit
    for i, g in enumerate(circuit.gates):
        bit = 1 << (nq - 1 - g.target)
        mask = value = 0
        for q, pol in g.controls:
            mask |= 1 << (nq - 1 - q)
            if pol:
                value |= 1 << (nq - 1 - q)
        if g.kind == "Z":  # a control on its own target, then a sign
            mask, value = mask | bit, value | bit
        cubes, chosen = _select(cubes, mask, value)
        if g.kind == "X":
            chosen = [(c, v, x ^ bit, a) for c, v, x, a in chosen]
        elif g.kind == "Z":
            chosen = [(c, v, x, -a) for c, v, x, a in chosen]
        else:
            chosen = _mixed(g, chosen, bit)
        if i in settled:  # keep the outputs at 0 on bit, which is their xor bit
            cubes = [e for e in cubes if not e[2] & bit]
            chosen = [e for e in chosen if not e[2] & bit]
        count = len(cubes) + len(chosen)
        if count > MAX_CUBES:
            raise SizeError(f"gate {i}: {count} cube entries exceed the budget of {MAX_CUBES}")
        cubes += _merged(chosen, ~quantum) if g.kind in ("H", "RY") else chosen
    return cubes


def _select(cubes, mask, value):
    """Split entries into (rest, chosen) by whether their outputs meet a gate's controls.

    The outputs match value on mask.  An entry whose cube leaves a
    control bit free is cut on that bit; each piece that fails the
    control goes to rest.  Only classical bits are ever free, since
    every entry fixes the quantum ones.
    """
    if not mask:
        return [], cubes
    rest, chosen = [], []
    for cube in cubes:
        care, val, xor, amp = cube
        want = (value ^ xor) & mask  # the input bits that meet the controls
        if (val ^ want) & care & mask:
            rest.append(cube)
            continue
        rest += [(c, v, xor, amp) for c, v in _minus(care, val, mask, want)]
        chosen.append((care | mask, val | want, xor, amp))
    return rest, chosen


def _mixed(g: Gate, cubes, bit: int) -> list:
    """H or RY gate g on target bit ``bit`` of entries that meet its controls.

    Partners' xor differ only at ``bit``, which every cube fixes, and an
    entry's side is its output bit (val ^ xor) & bit.  For each group,
    :func:`_overlay` cuts the lo and hi cubes into regions with one
    (lo, hi) pair each, and :func:`_mix_pair` evaluates the pair.
    Exact zeros are dropped.
    """
    pairs = {}
    for care, val, xor, amp in cubes:
        halves = pairs.setdefault(xor & ~bit, ([], []))
        halves[1 if (val ^ xor) & bit else 0].append((care, val, amp))
    out = []
    for xor, (lows, highs) in pairs.items():
        for care, val, lo, hi in _overlay(lows, highs):
            new0, new1 = _mix_pair(g, lo, hi)
            if new0 != 0:
                out.append((care, val, xor | (val & bit), new0))
            if new1 != 0:
                out.append((care, val, xor | (~val & bit), new1))
    return out


def _overlay(lows, highs) -> list:
    """Regions (care, val, lo, hi) where two sets of disjoint cubes overlap or not.

    Each input of a cube of either set lies in exactly one region; an
    amplitude that a set lacks there is 0j.  Cubes that differ on a bit
    every cube fixes cannot meet, so candidates are looked up by those bits.
    """
    common = -1
    for care, _, _ in lows + highs:
        common &= care
    by_bits = [{}, {}]
    for side, cubes in enumerate((lows, highs)):
        for cube in cubes:
            by_bits[side].setdefault(cube[1] & common, []).append(cube)
    regions = []
    for care, val, lo in lows:
        left = [(care, val)]
        for hcare, hval, hi in by_bits[1].get(val & common, ()):
            if not (val ^ hval) & care & hcare:
                regions.append((care | hcare, val | hval, lo, hi))
                left = [piece for c, v in left for piece in _minus(c, v, hcare, hval)]
        regions += [(c, v, lo, 0j) for c, v in left]
    for care, val, hi in highs:
        left = [(care, val)]
        for lcare, lval, _ in by_bits[0].get(val & common, ()):
            left = [piece for c, v in left for piece in _minus(c, v, lcare, lval)]
        regions += [(c, v, 0j, hi) for c, v in left]
    return regions


def _minus(care: int, val: int, cut_care: int, cut_val: int) -> list:
    """Disjoint cubes covering cube (care, val) minus cube (cut_care, cut_val)."""
    if (val ^ cut_val) & care & cut_care:
        return [(care, val)]
    pieces = []
    free = cut_care & ~care
    while free:
        b = free & -free
        free ^= b
        pieces.append((care | b, val | (~cut_val & b)))
        care, val = care | b, val | (cut_val & b)
    return pieces


def _merged(cubes, classical: int) -> list:
    """Join entries that differ only in one fixed classical bit of their cubes.

    Joining changes no input's amplitude; it keeps the shift cascades'
    carry pieces from piling up across the H and RY layers.  Entries
    group by (care, xor, amp), and two vals of a group can only join
    on a bit where they differ, so a group tries only the bits on which
    some val differs from the first.  A joined entry lands in another
    group, and only the groups that received one are tried again.
    """
    groups = {}
    for care, val, xor, amp in cubes:
        groups.setdefault((care, xor, amp), set()).add(val)
    work = groups
    while work:
        joined = {}
        for (care, xor, amp), vals in work.items():
            first = next(iter(vals))
            spread = 0
            for v in vals:
                spread |= v ^ first
            bits = care & classical & spread
            while bits and len(vals) > 1:
                b = bits & -bits
                bits ^= b
                for v in [v for v in vals if not v & b and v | b in vals]:
                    vals -= {v, v | b}
                    joined.setdefault((care & ~b, xor, amp), set()).add(v)
        for key, vals in joined.items():
            groups.setdefault(key, set()).update(vals)
        work = {key: groups[key] for key in joined}
    return [(care, v, xor, amp) for (care, xor, amp), vals in groups.items() for v in vals]


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
