"""Computation-graph analyses: formula detection, paths, companions.

The computation graph of a circuit has one node per gate that feeds the
output line, directly or transitively, with edges "provides an input
to".  A circuit is a formula when that graph is a tree; equivalently,
every input line has at most one gate-level path to the output.  Both
tests are implemented independently and cross-checked.

``computation_graph`` is the one pass that derives a circuit's wiring:
the line maps, the graph, each node's up-lines and each line's path
count.  It runs once per checked circuit and keeps its result on the
circuit; the formula tests, the path walk, the squeezing pass and the
simulators all read that one object.

For a variable block, the paths from the block's input lines to the
output form a subtree.  The gates where two of those paths first merge
split every path into maximal segments: a segment starts at an input
line or a merge gate, runs through non-merge gates, and stops at the
next merge gate or at the output line.  Segments with at least one gate
strictly inside are the unit the squeezing rewrite operates on.

Companions: two lines are strong companions at step s if some gate at
or before s touches both; the companion relation is the transitive
closure, found in one pass that keeps a component label per line and
merges the labels of each gate's lines.  The companion set of a segment
collects the constant lines whose state feeds the segment besides its
two head inputs; those are the lines the rewrite replaces.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .circuit import Circuit, CircuitError, Gate


class StructuralError(CircuitError):
    """A structural precondition of an analysis or rewrite fails."""


class NotAFormulaError(CircuitError):
    """Raised by operations that require a formula."""


class InconsistentAnalysisError(RuntimeError):
    """Two analyses that must agree did not: a bug, not a bad circuit."""


# ---------------------------------------------------------------------------
# the wiring pass: line maps, computation graph, path counts


def _line_maps(circuit: Circuit):
    """Wire connectivity of a checked circuit, whose gates are in step order.

    Returns (prev_on, next_on, first_on, last_on) where prev_on and
    next_on map (step, qubit) to the neighboring gate step on that line
    (or None), and first_on/last_on map a qubit to its first/last gate
    step (or None).
    """
    prev_on: dict[tuple[int, int], int | None] = {}
    next_on: dict[tuple[int, int], int | None] = {}
    first_on: dict[int, int | None] = {q: None for q in range(circuit.num_qubits)}
    last_on: dict[int, int | None] = {q: None for q in range(circuit.num_qubits)}
    for gate in circuit.gates:
        for q in gate.targets:
            prev_on[(gate.step, q)] = last_on[q]
            next_on[(gate.step, q)] = None
            if last_on[q] is not None:
                next_on[(last_on[q], q)] = gate.step
            if first_on[q] is None:
                first_on[q] = gate.step
            last_on[q] = gate.step
    return prev_on, next_on, first_on, last_on


def _path_counts(circuit: Circuit, next_on, first_on) -> dict[int, int]:
    """Number of gate-level paths from each input line to the output.

    A path follows wires forward through gates and counts distinct gate
    sequences that end on the output line after its last gate.  This is
    the unique-path formula test; it shares only the line maps with the
    tree test.
    """
    count: dict[int, int] = {}
    for gate in reversed(circuit.gates):
        successors = {next_on[(gate.step, q)] for q in gate.targets} - {None}
        total = sum(count[succ] for succ in successors)
        if circuit.output_qubit in gate.targets and next_on[(gate.step, circuit.output_qubit)] is None:
            total += 1
        count[gate.step] = total
    return {
        q: count[first_on[q]] if first_on[q] is not None else int(q == circuit.output_qubit)
        for q in range(circuit.num_qubits)
    }


@dataclass(frozen=True)
class ComputationGraph:
    """A checked circuit's wiring, derived once by ``computation_graph``.

    The graph proper (``gate_steps``, ``edges``, ``root_step``) is the
    gates feeding the output with deduplicated provider edges; it alone
    decides equality, hash and repr.  The other fields are the wiring the
    analyses and simulators read: the line maps (``prev_on``,
    ``next_on``, ``first_on``, as ``_line_maps`` returns them), each
    node's ``up_lines`` (the lines it hands to later nodes; the root's is
    the output line) and each input line's ``path_counts``.
    """

    gate_steps: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    root_step: int | None
    prev_on: dict[tuple[int, int], int | None] = field(compare=False, repr=False)
    next_on: dict[tuple[int, int], int | None] = field(compare=False, repr=False)
    first_on: dict[int, int | None] = field(compare=False, repr=False)
    up_lines: dict[int, tuple[int, ...]] = field(compare=False, repr=False)
    path_counts: dict[int, int] = field(compare=False, repr=False)

    @property
    def is_tree(self) -> bool:
        # connected by construction (every node reaches the root), so
        # tree-ness reduces to the edge count
        return not self.gate_steps or len(self.edges) == len(self.gate_steps) - 1


def computation_graph(circuit: Circuit) -> ComputationGraph:
    """The one wiring pass: backward closure from the gate that provides
    the output qubit, with the line maps, up-lines and path counts.

    Checks the circuit first.  The circuit is immutable, so the result is
    kept on it, as ``check()`` keeps its verdict, and later calls return
    the same object; ``Circuit.relabel`` carries it over, since the
    wiring does not read labels.  When no gate touches the output line the graph is
    the bare output wire: no gate nodes, no root.
    """
    circuit.check()
    graph = circuit.__dict__.get("_graph")
    if graph is not None:
        return graph
    prev_on, next_on, first_on, last_on = _line_maps(circuit)
    root = last_on[circuit.output_qubit]
    nodes: set[int] = {root} - {None}
    edges: set[tuple[int, int]] = set()
    for gate in reversed(circuit.gates):  # a gate's consumers come after it
        if gate.step in nodes:
            providers = {prev_on[(gate.step, q)] for q in gate.targets} - {None}
            nodes |= providers
            edges |= {(provider, gate.step) for provider in providers}
    up_lines = {
        step: tuple(q for q in circuit.gates[step - 1].targets if next_on[(step, q)] in nodes)
        for step in nodes
    }
    if root is not None:
        up_lines[root] = (circuit.output_qubit,)
    graph = ComputationGraph(
        tuple(sorted(nodes)), frozenset(edges), root, prev_on, next_on, first_on,
        up_lines, _path_counts(circuit, next_on, first_on),
    )
    object.__setattr__(circuit, "_graph", graph)
    return graph


def has_unique_paths(circuit: Circuit) -> bool:
    """True when no input line has two distinct paths to the output.

    Reads the path counts of ``computation_graph``, so an invalid circuit
    raises InvalidCircuitError.
    """
    return all(c <= 1 for c in computation_graph(circuit).path_counts.values())


def is_formula(circuit: Circuit) -> bool:
    """Tree test on the computation graph, cross-checked per input line.

    The two tests are provably equivalent; a disagreement would mean a
    bug in one of them, so it raises instead of picking a side.
    """
    tree = computation_graph(circuit).is_tree
    unique = has_unique_paths(circuit)
    if tree != unique:
        raise InconsistentAnalysisError(
            f"formula tests disagree: tree={tree}, unique paths={unique}"
        )
    return tree


# ---------------------------------------------------------------------------
# paths of a block


@dataclass(frozen=True)
class Hop:
    """One gate on a path: entered on in_line, left toward out_line."""

    gate: Gate
    in_line: int
    out_line: int

    @property
    def step(self) -> int:
        return self.gate.step


@dataclass(frozen=True)
class Path:
    """The unique route from one input line to the output."""

    wire: int
    hops: tuple[Hop, ...]

    @property
    def gate_steps(self) -> tuple[int, ...]:
        return tuple(h.step for h in self.hops)


@dataclass(frozen=True)
class PathSet:
    """All paths from lines labeled by a block's variables."""

    block: frozenset[int]
    wires: tuple[int, ...]
    paths: tuple[Path, ...]
    dead_wires: tuple[int, ...]

    @property
    def s_j(self) -> int:
        """Number of input lines labeled by one of the block's variables."""
        return len(self.wires)


def path_sets(circuit: Circuit, block: Iterable[int]) -> PathSet:
    """Trace the unique path from every block-labeled line to the output.

    Requires a formula.  Lines whose value never reaches the output are
    listed under ``dead_wires`` and contribute no path.
    """
    if not is_formula(circuit):
        raise NotAFormulaError("path sets are only defined for formulas")
    block = frozenset(int(j) for j in block)
    graph = computation_graph(circuit)
    wires = tuple(
        q for q, lb in enumerate(circuit.labels) if lb.var is not None and lb.var in block
    )
    paths: list[Path] = []
    dead: list[int] = []
    for q in wires:
        if graph.path_counts[q] == 0:
            dead.append(q)
            continue
        hops: list[Hop] = []
        step, line = graph.first_on[q], q
        while step is not None:
            # a formula's node hands its up-lines to one parent (the root
            # to the output); on a double edge keep the incoming line, so
            # carriers stay constant
            up = graph.up_lines[step]
            out_line = line if line in up else min(up)
            hops.append(Hop(circuit.gates[step - 1], line, out_line))
            step, line = graph.next_on[(step, out_line)], out_line
        paths.append(Path(wire=q, hops=tuple(hops)))
    return PathSet(block=block, wires=wires, paths=tuple(paths), dead_wires=tuple(dead))


def intersection_gates(pathset: PathSet) -> tuple[Gate, ...]:
    """Gates where two paths of the set merge.

    A gate counts when at least two paths arrive at it from distinct
    predecessors (different feeding gate, or directly from different
    input lines).  Once merged, paths share every later gate without
    creating further intersections.  More than s_j merge gates raise
    StructuralError.
    """
    arrivals: dict[int, set[tuple]] = {}
    gate_of: dict[int, Gate] = {}
    for path in pathset.paths:
        previous: tuple = ("wire", path.wire)
        for hop in path.hops:
            arrivals.setdefault(hop.step, set()).add(previous)
            gate_of[hop.step] = hop.gate
            previous = ("gate", hop.step)
    merge_steps = sorted(s for s, preds in arrivals.items() if len(preds) >= 2)
    if len(merge_steps) > pathset.s_j:
        raise StructuralError(f"{len(merge_steps)} merge gates for {pathset.s_j} block wires")
    return tuple(gate_of[s] for s in merge_steps)


# ---------------------------------------------------------------------------
# path segments


@dataclass(frozen=True)
class PathSegment:
    """Maximal merge-free stretch of a block path.

    The element sequence is: the originating input line (when
    ``head_wire`` is set), then ``hops``, then the output wire (when
    ``ends_at_output``).  When the segment stops at a merge gate, that
    terminator is the last hop.  ``element_count`` is the length of
    that sequence; only segments with more than two elements have gates
    strictly inside and can be squeezed.
    """

    head_wire: int | None
    hops: tuple[Hop, ...]
    ends_at_output: bool

    def __post_init__(self):
        if not self.hops:
            raise ValueError("a segment contains at least one gate")

    @property
    def element_count(self) -> int:
        head = 1 if self.head_wire is not None else 0
        tail = 1 if self.ends_at_output else 0
        return head + len(self.hops) + tail

    @property
    def terminator(self) -> Hop | None:
        """The closing merge gate, or None when the segment ends at the output."""
        return None if self.ends_at_output else self.hops[-1]

    @property
    def inner_hops(self) -> tuple[Hop, ...]:
        """The gates replaced by squeezing: every hop except a gate terminator."""
        return self.hops if self.ends_at_output else self.hops[:-1]

    @property
    def squeezable(self) -> bool:
        return self.element_count > 2

    @property
    def sort_key(self) -> tuple[int, int]:
        anchor = self.head_wire if self.head_wire is not None else min(self.hops[0].gate.targets)
        return (self.hops[-1].step, anchor)


def path_segments(circuit: Circuit, pathset: PathSet) -> tuple[PathSegment, ...]:
    """Split every block path at the merge gates, deduplicating shared
    stretches, and return the segments ordered by last gate (ties by
    smallest anchor qubit) so that later segments never finish earlier.
    """
    merge_steps = {g.step for g in intersection_gates(pathset)}
    seen: set[tuple] = set()
    segments: list[PathSegment] = []

    def emit(head_wire, hops, ends_at_output):
        key = (head_wire, tuple(h.step for h in hops), ends_at_output)
        if key in seen:
            return
        seen.add(key)
        segments.append(PathSegment(head_wire, tuple(hops), ends_at_output))

    for path in pathset.paths:
        head_wire: int | None = path.wire
        acc: list[Hop] = []
        for hop in path.hops:
            acc.append(hop)
            if hop.step in merge_steps:
                emit(head_wire, acc, ends_at_output=False)
                head_wire, acc = None, [hop]
        if acc and (head_wire is not None or len(acc) > 1 or acc[0].step in merge_steps):
            emit(head_wire, acc, ends_at_output=True)
    segments.sort(key=lambda s: s.sort_key)
    return tuple(segments)


# ---------------------------------------------------------------------------
# companions


@dataclass(frozen=True)
class CompanionSet:
    """The constant lines a segment consumes besides its two head inputs.

    q0 is the carrier line the segment rides to its terminator, q1 the
    other input of its first gate, q2 the terminator's other input (None
    when the segment ends at the output wire), j0/j1 the first-gate and
    terminator steps (j1 is one past the last step for output-ended
    segments).
    """

    qubits: frozenset[int]
    q0: int
    q1: int
    q2: int | None
    j0: int
    j1: int

    @property
    def size(self) -> int:
        return len(self.qubits)


def _carrier_and_other(segment: PathSegment) -> tuple[int, int]:
    """The carrier line q0 and companion-side input q1 of the first gate.

    Rejects segments whose path changes lines mid-segment; the rewrite
    is defined for carrier-constant segments only.
    """
    inner = segment.inner_hops
    first = inner[0]
    q0 = first.out_line
    if segment.head_wire is not None and first.in_line != q0:
        raise StructuralError(
            f"path switches lines at step {first.step}: "
            f"enters on {first.in_line}, leaves on {q0}"
        )
    others = [t for t in first.gate.targets if t != q0]
    if len(others) != 1:
        raise StructuralError(
            f"first segment gate at step {first.step} must act on exactly two lines"
        )
    q1 = others[0]
    for hop in inner[1:]:
        if hop.in_line != q0 or hop.out_line != q0:
            raise StructuralError(
                f"path leaves its carrier line {q0} at step {hop.step}"
            )
    term = segment.terminator
    if term is not None and term.in_line != q0:
        raise StructuralError(
            f"terminator at step {term.step} is not fed by the carrier line {q0}"
        )
    return q0, q1


def companion_set_of_path(
    circuit: Circuit, pathset: PathSet, segment: PathSegment
) -> CompanionSet:
    """Companion closure of a squeezable segment at its terminator step.

    Seeds are the non-carrier inputs of the segment's inner gates plus
    the partners of any gate that touches the retired q1 line inside the
    segment's window; the closure then runs over all earlier gates that
    are neither segment gates nor touch q0/q1, so the histories of the
    head inputs (summarized by the basis quantification of the rewrite)
    are never crossed.  Every collected line must be constant-labeled
    and must not touch any other path of the block.
    """
    if not segment.squeezable:
        raise StructuralError(
            f"segment has only {segment.element_count} elements; nothing inside to squeeze"
        )
    q0, q1 = _carrier_and_other(segment)
    inner = segment.inner_hops
    j0 = inner[0].step
    term = segment.terminator
    j1 = term.step if term is not None else len(circuit.gates) + 1
    segment_steps = {h.step for h in segment.hops}

    seeds: set[int] = set()
    for hop in inner[1:]:
        seeds.update(t for t in hop.gate.targets if t != q0)
    for gate in circuit.gates:
        if gate.step in segment_steps or not (j0 < gate.step < j1):
            continue
        targets = set(gate.targets)
        if q0 in targets:
            raise StructuralError(
                f"gate at step {gate.step} touches the carrier line {q0} inside the segment"
            )
        if q1 in targets:
            seeds.update(targets - {q1})
    prepared = computation_graph(circuit).first_on[q1]
    if segment.head_wire is not None and prepared is not None and prepared < j0:
        raise StructuralError(
            f"line {q1} is prepared by the gate at step {prepared}; "
            "the segment's second input must be a bare input line"
        )
    seeds -= {q0, q1}

    label = list(range(circuit.num_qubits))  # one component label per line
    for gate in circuit.gates:
        if gate.step < j1 and gate.step not in segment_steps:
            merged = {label[t] for t in gate.targets if t not in (q0, q1)}
            label = [min(merged) if lb in merged else lb for lb in label]
    seed_labels = {label[s] for s in seeds}
    qubits = frozenset(q for q, lb in enumerate(label) if lb in seed_labels) - {q0, q1}

    q2: int | None = None
    if term is not None:
        others = [t for t in term.gate.targets if t != q0]
        q2 = others[0] if len(others) == 1 else None
        if q2 in qubits:
            raise StructuralError(
                f"terminator input line {q2} is entangled with the segment's companions"
            )

    for q in qubits:
        if circuit.labels[q].is_variable:
            raise StructuralError(
                f"companion line {q} carries variable x{circuit.labels[q].var}; "
                "companions must be constant inputs"
            )
    path_lines: set[int] = set()
    for path in pathset.paths:
        path_lines.add(path.wire)
        for hop in path.hops:
            path_lines.add(hop.in_line)
            path_lines.add(hop.out_line)
    clash = qubits & path_lines
    if clash:
        raise StructuralError(
            f"companion lines {sorted(clash)} lie on a path of the block"
        )
    return CompanionSet(qubits=qubits, q0=q0, q1=q1, q2=q2, j0=j0, j1=j1)
