"""Clifford+T resource accounting under an explicit ancilla-ladder model.

Lowering model
--------------
Every circuit is first lowered to a stream containing only

* X with at most two controls (CNOT / Toffoli),
* Z, H, RY with at most one control,

by folding control conjunctions into clean ancillas.  A k-controlled X
(k >= 3) keeps its last control and computes the AND of the first k-1
controls through a ladder of Toffolis (one fresh ancilla per level); a
controlled rotation or Hadamard folds *all* of its controls into one
ancilla and keeps a single control.  Ladders are uncomputed with the
same Toffolis.  Ladder levels are cached across consecutive gates whose
control tuples share prefixes, and a level is uncomputed as soon as one
of its inputs is written; the shift cascades produced by the encoding
builders are prefix-nested, which is what makes their T-count grow
linearly with the register width.

The walk (``_Lowering.steps``) yields the lowered stream as gate-shaped
tuples.  ``lower_to_toffoli`` turns them into the ``Gate``s of a checked
circuit; ``count_resources`` charges each tuple as the walk emits it, so
the counts come from that one ladder without building the lowered circuit.
Each lowered gate is charged:

* single-qubit X/Z/H: 1 Clifford,
* CNOT, CZ: 1 Clifford,
* Toffoli: 7 T + 8 Cliffords (the textbook 6 CNOT + 2 H network),
* controlled H: 2 rotations + 1 Clifford  (RY(pi/4) . CZ . RY(-pi/4)),
* RY: 1 rotation; controlled RY: 2 rotations + 2 Cliffords,
* each open (0-polarity) control on a charged gate: 2 Clifford X.

Rotations are reported separately and never converted to T, so the
counts carry no synthesis-accuracy parameter.  An isolated k-controlled
X costs 7*(2k-3) T with k-2 ancillas under this model.

``resource_sweep`` counts the ops of :data:`fdblock.encodings.OPS`: it
takes their dimensions from :func:`fdblock.encodings.op_dims` and
builds each row through the table.
"""

from __future__ import annotations

from typing import NamedTuple

from . import encodings
from .circuit import Circuit, Gate
from .errors import ParameterError


class GateCounts(NamedTuple):
    """Clifford+T tally; rotation_count is kept separate from t_count."""

    t_count: int
    clifford_count: int
    rotation_count: int
    ancilla_high_water: int
    qubit_count: int


def _rung(level: int, ancs: list[int], chain) -> tuple:
    """Toffoli step that computes, and later uncomputes, ladder level ``level``."""
    controls = chain[:2] if level == 0 else ((ancs[level - 1], 1), chain[level + 1])
    return "X", ancs[level], controls, None


class _Lowering:
    """Ancilla-ladder walk of one circuit; see the module docstring.

    Ladder level l holds the AND of the controls ``chain[:l + 2]`` in
    ancilla ``ancs[l]``: level 0 is a Toffoli on the first two controls,
    and each higher level ANDs the level below with one more control.
    """

    def __init__(self, circuit: Circuit):
        self.base = circuit.num_qubits
        self.next_anc = circuit.num_qubits
        self.high_water = 0
        self.free: list[int] = []

    def _alloc(self) -> int:
        if self.free:
            return self.free.pop()
        anc = self.next_anc
        self.next_anc += 1
        return anc

    def _unwind(self, keep: int, ancs: list[int], chain):
        while len(ancs) > keep:
            yield _rung(len(ancs) - 1, ancs, chain)
            self.free.append(ancs.pop())

    def steps(self, gates):
        """Yield the lowered stream as gate-shaped tuples; ``lower`` makes them ``Gate``s.

        ``high_water`` holds the ladder's deepest level once the stream
        is exhausted.
        """
        ancs: list[int] = []
        chain: tuple[tuple[int, int], ...] = ()
        chain_qubits: list[int] = []
        for g in gates:
            kind, target, controls = g.kind, g.target, g.controls
            k = len(controls)
            if kind == "X":
                prefix = controls[:-1] if k > 2 else ()
            else:
                prefix = controls if k > 1 else ()
            # Keep the levels that read neither the target, which the gate
            # writes, nor a control that differs from the gate's prefix.
            keep = len(ancs)
            if target in chain_qubits:
                keep = max(chain_qubits.index(target) - 1, 0)
            if prefix and prefix[: len(chain)] != chain:
                common = len(prefix)
                if chain[:common] != prefix:
                    common = 0
                    for a, b in zip(chain, prefix):
                        if a != b:
                            break
                        common += 1
                keep = min(keep, max(common - 1, 0))
            if keep < len(ancs):
                yield from self._unwind(keep, ancs, chain)
                chain = chain[: keep + 1] if keep else ()
                del chain_qubits[len(chain) :]
            if not prefix:
                yield kind, target, controls, g.theta
                continue
            for level in range(len(ancs), len(prefix) - 1):
                ancs.append(self._alloc())
                yield _rung(level, ancs, prefix)
            if len(prefix) > len(chain):
                chain_qubits.extend(q for q, _ in prefix[len(chain) :])
                chain = prefix
                self.high_water = max(self.high_water, len(ancs))
            if kind == "X":
                yield "X", target, ((ancs[-1], 1), controls[-1]), None
            else:  # Z, H or RY: every control folded into one ancilla
                yield kind, target, ((ancs[-1], 1),), g.theta
        yield from self._unwind(0, ancs, chain)

    def lower(self, circuit: Circuit) -> Circuit:
        gates = tuple(map(Gate._make, self.steps(circuit.gates)))
        return Circuit(self.base + self.high_water, gates)


def lower_to_toffoli(circuit: Circuit) -> Circuit:
    """Lowered circuit on original wires plus clean ancillas.

    The result contains only X (<= 2 controls) and Z/H/RY (<= 1
    control); ancillas occupy the trailing wires, start in |0>, and are
    returned to |0>.
    """
    return _Lowering(circuit).lower(circuit)


def count_resources(circuit: Circuit) -> GateCounts:
    """Gate tally of the circuit under the lowering model.

    Each lowered gate is charged as the ladder walk emits it, so the
    lowered circuit is never built.
    """
    lowering = _Lowering(circuit)
    t = clifford = rot = 0
    for kind, _, controls, _ in lowering.steps(circuit.gates):
        for _, pol in controls:
            if pol == 0:  # open control: 2 Clifford X around the gate
                clifford += 2
        if kind == "X":
            if len(controls) <= 1:
                clifford += 1
            else:
                t += 7
                clifford += 8
        elif kind == "Z":
            clifford += 1
        elif kind == "H":
            if controls:
                rot += 2
            clifford += 1
        elif controls:  # controlled RY
            rot += 2
            clifford += 2
        else:  # RY
            rot += 1
    return GateCounts(
        t_count=t,
        clifford_count=clifford,
        rotation_count=rot,
        ancilla_high_water=lowering.high_water,
        qubit_count=circuit.num_qubits + lowering.high_water,
    )


class ResourceRow(NamedTuple):
    builder: str
    D: int
    n: int
    N_D: int
    t_count: int
    clifford_count: int
    rotation_count: int
    qubits: int
    ancillas: int


def resource_sweep(op: str, dims, n_range) -> list[ResourceRow]:
    """Gate counts of one builder across dimensions and register widths."""
    rows = []
    for dim in encodings.op_dims(op, dims):
        for n in n_range:
            enc = encodings.OPS[op].build(dim, n)
            counts = count_resources(enc.circuit)
            rows.append(
                ResourceRow(
                    builder=op,
                    D=dim,
                    n=n,
                    N_D=enc.system_dim,
                    t_count=counts.t_count,
                    clifford_count=counts.clifford_count,
                    rotation_count=counts.rotation_count,
                    qubits=counts.qubit_count,
                    ancillas=counts.ancilla_high_water,
                )
            )
    if not rows:
        raise ParameterError("empty resource sweep")
    return rows


RESOURCES_CSV_HEADER = "builder,D,n,N_D,t_count,clifford_count,rotation_count,qubits,ancillas"


def resources_csv(rows: list[ResourceRow]) -> str:
    lines = [RESOURCES_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.builder},{r.D},{r.n},{r.N_D},{r.t_count},"
            f"{r.clifford_count},{r.rotation_count},{r.qubits},{r.ancillas}"
        )
    return "\n".join(lines) + "\n"
