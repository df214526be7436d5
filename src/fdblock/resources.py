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

The lowered stream is then charged per gate:

* single-qubit X/Z/H: 1 Clifford,
* CNOT, CZ: 1 Clifford,
* Toffoli: 7 T + 8 Cliffords (the textbook 6 CNOT + 2 H network),
* controlled H: 2 rotations + 1 Clifford  (RY(pi/4) . CZ . RY(-pi/4)),
* RY: 1 rotation; controlled RY: 2 rotations + 2 Cliffords,
* each open (0-polarity) control on a charged gate: 2 Clifford X.

Rotations are reported separately and never converted to T, so the
counts carry no synthesis-accuracy parameter.  An isolated k-controlled
X costs 7*(2k-3) T with k-2 ancillas under this model.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import encodings
from .circuit import Circuit, Gate
from .errors import ParameterError


@dataclass(frozen=True)
class GateCounts:
    """Clifford+T tally; rotation_count is kept separate from t_count."""

    t_count: int
    clifford_count: int
    rotation_count: int
    ancilla_high_water: int
    qubit_count: int


@dataclass(frozen=True)
class _Node:
    chain: tuple[tuple[int, int], ...]
    anc: int


class _Lowering:
    """Stateful lowering of one circuit; see the module docstring."""

    def __init__(self, circuit: Circuit):
        self.base = circuit.num_qubits
        self.out: list[Gate] = []
        self.stack: list[_Node] = []
        self.free: list[int] = []
        self.next_anc = circuit.num_qubits
        self.high_water = 0

    def _alloc(self) -> int:
        if self.free:
            return self.free.pop()
        anc = self.next_anc
        self.next_anc += 1
        return anc

    def _node_toffoli(self, node: _Node, below: _Node | None):
        if len(node.chain) == 2:
            controls = node.chain
        else:
            controls = ((below.anc, 1), node.chain[-1])
        self.out.append(Gate("X", node.anc, controls))

    def _pop(self):
        node = self.stack.pop()
        below = self.stack[-1] if self.stack else None
        self._node_toffoli(node, below)
        self.free.append(node.anc)

    def _ensure_prefix(self, prefix: tuple[tuple[int, int], ...]) -> int:
        while self.stack and (
            len(self.stack[-1].chain) > len(prefix)
            or self.stack[-1].chain != prefix[: len(self.stack[-1].chain)]
        ):
            self._pop()
        while (len(self.stack[-1].chain) if self.stack else 1) < len(prefix):
            depth = len(self.stack[-1].chain) + 1 if self.stack else 2
            node = _Node(prefix[:depth], self._alloc())
            self._node_toffoli(node, self.stack[-1] if self.stack else None)
            self.stack.append(node)
            self.high_water = max(self.high_water, len(self.stack))
        return self.stack[-1].anc

    def _invalidate(self, qubit: int):
        # Nested chains: if a shallow node reads this qubit, so do all
        # deeper ones, hence checking the top suffices.
        while self.stack and any(q == qubit for q, _ in self.stack[-1].chain):
            self._pop()

    def lower(self, circuit: Circuit) -> Circuit:
        for g in circuit.gates:
            self._invalidate(g.target)
            k = len(g.controls)
            if g.kind == "X":
                if k <= 2:
                    self.out.append(g)
                else:
                    anc = self._ensure_prefix(g.controls[:-1])
                    self.out.append(Gate("X", g.target, ((anc, 1), g.controls[-1])))
            elif k <= 1:  # Z, H or RY with at most one control
                self.out.append(g)
            else:  # Z, H or RY: fold every control into one ancilla
                anc = self._ensure_prefix(g.controls)
                self.out.append(Gate(g.kind, g.target, ((anc, 1),), g.theta))
        while self.stack:
            self._pop()
        total = self.base + self.high_water
        return Circuit(max(total, 1), tuple(self.out))


def lower_to_toffoli(circuit: Circuit) -> Circuit:
    """Lowered circuit on original wires plus clean ancillas.

    The result contains only X (<= 2 controls) and Z/H/RY (<= 1
    control); ancillas occupy the trailing wires, start in |0>, and are
    returned to |0>.
    """
    return _Lowering(circuit).lower(circuit)


def count_resources(circuit: Circuit) -> GateCounts:
    """Gate tally of the circuit under the lowering model."""
    lowering = _Lowering(circuit)
    lowered = lowering.lower(circuit)
    t = clifford = rot = 0
    for g in lowered.gates:
        k = len(g.controls)
        open_penalty = 2 * sum(1 for _, pol in g.controls if pol == 0)
        if g.kind == "X":
            if k <= 1:
                clifford += 1 + (open_penalty if k else 0)
            else:
                t += 7
                clifford += 8 + open_penalty
        elif g.kind == "Z":
            clifford += 1 + open_penalty
        elif g.kind == "H":
            if k == 0:
                clifford += 1
            else:
                rot += 2
                clifford += 1 + open_penalty
        elif k == 0:  # RY
            rot += 1
        else:  # controlled RY
            rot += 2
            clifford += 2 + open_penalty
    return GateCounts(
        t_count=t,
        clifford_count=clifford,
        rotation_count=rot,
        ancilla_high_water=lowering.high_water,
        qubit_count=circuit.num_qubits + lowering.high_water,
    )


@dataclass(frozen=True)
class ResourceRow:
    builder: str
    D: int
    n: int
    N_D: int
    t_count: int
    clifford_count: int
    rotation_count: int
    qubits: int
    ancillas: int


def op_dims(op: str, dims) -> list[int]:
    """Dimension list for an op; fixed-dim ops default to their dimension."""
    if op not in encodings.OPS:
        raise ParameterError(f"unknown op {op!r}")
    fixed = encodings.OPS[op].dim
    if fixed is None:
        return [1] if dims in (None, []) else list(dims)
    if dims not in (None, []) and list(dims) != [fixed]:
        raise ParameterError(f"op {op!r} is fixed at dim {fixed}")
    return [fixed]


def build_encoding(op: str, dim: int, n: int) -> encodings.BlockEncoding:
    """Construct the named encoding; dim must match fixed-dimension ops."""
    (dim,) = op_dims(op, [dim])
    return encodings.OPS[op].build(dim, n)


def resource_sweep(op: str, dims, n_range) -> list[ResourceRow]:
    """Gate counts of one builder across dimensions and register widths."""
    rows = []
    for dim in op_dims(op, dims):
        for n in n_range:
            enc = build_encoding(op, dim, n)
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
