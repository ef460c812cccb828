"""Exact simulation and Boolean acceptance semantics.

Running a circuit on a Boolean assignment starts from the basis state
determined by the input labels, applies the gates, and reads the
probability p that the output qubit is 1.  A circuit computes a Boolean
function f when p > 2/3 on every 1-input and p < 1/3 on every 0-input;
anything in the closed band [1/3, 2/3] is undetermined.

Three paths share one gate kernel, ``_apply``, which acts on the
leading qubit axes of a tensor and leaves any trailing batch axes alone:

* The step-order state vector (``run``, ``probability_vector``,
  ``final_states``) holds 2^m amplitudes per assignment and applies
  every gate in step order, never reordering commuting gates, so it is
  the trusted oracle for the rewrite passes and for the two fast paths
  below.  ``probability_vector`` pushes the assignments through in
  batches of at most ``CHUNK_AMPLITUDES`` (2^13) amplitudes.
* The pruned, fused state vector keeps only the output line's backward
  light cone, the computation graph's gates (a dropped gate commutes
  past every kept one and never acts on the output line, so p is
  exact), fused into blocks on at most ``FUSED_LINES`` lines, one
  matrix each.  A cone line joins the state at the first block on it
  (the output line at the end if none), as a constant's basis vector or
  a copy of its variable; a variable joins the scan with its first
  line, so earlier blocks run once for both of its values, and p is
  broadcast over the variables off the cone.  The first variables to
  join are batch axes, as many as fit ``PRUNED_AMPLITUDES`` (2^15)
  amplitudes; at each later one the state is saved (each saved state is
  at least twice the one before) and the rest runs once per value.
* The tree contraction (``contract_formula``) needs a formula.  Each
  gate of the computation graph combines its children's reduced density
  matrices with the basis states of its bare input lines, applies
  U rho U^dagger and traces out the lines that do not go to its parent;
  gates outside the graph drop out.  Messages have at most 2^k x 2^k
  entries for a k-qubit gate, whatever the line count; a batch keeps at
  most ``CHUNK_AMPLITUDES`` entries at once.

Both state vectors are capped at ``max_qubits`` lines: the step-order
one counts all of the circuit's lines, the pruned one its cone's.  The
kernel's products go through ``gates.capped_matmul``, which hands BLAS
no product of more than ``BLAS_SLICE_MACS`` multiply-adds in one call
when BLAS may run on more than one thread.

``evaluate`` dispatches on ``is_formula``: formulas take the
contraction, everything else the pruned, fused state vector.  Either
way an assignment whose p lands within 1e-12 of a threshold is
re-decided by ``run`` on the light cone's gates, unfused and in step
order, on the cone's lines, so the verdict is the oracle's.  One threshold
rule, ``decide``, turns probabilities into verdicts for ``evaluate``
and for the counting module.  All batched paths check every
assignment's norm (or trace) against 1 within 1e-10.  Everything here
is deterministic and side-effect free.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .analysis import NotAFormulaError, computation_graph, is_formula
from .circuit import Circuit, Gate, variable
from .gates import capped_matmul

DEFAULT_MAX_QUBITS = 20
NORM_TOL = 1e-10
# p this close to 1/3 or 2/3 is re-decided by the state vector
BOUNDARY_TOL = 1e-12
# complex numbers a batch of assignments may hold: one state-vector array
# of the step-order oracle, or everything a tree contraction keeps at
# once.  At 2^13 (128 KiB) a batch stays in cache.
CHUNK_AMPLITUDES = 2 ** 13
# the same for the pruned state vector's state and kernel scratch; 2^15 ran
# faster than 2^13 or 2^14 at 12 lines, and 2^16 held 1.5 MB more at peak.
PRUNED_AMPLITUDES = 2 ** 15
# lines a fused block of the pruned state vector may act on: a k-line
# block costs 2^k multiply-adds per amplitude, against 2^a for each of
# the a-qubit gates it replaces
FUSED_LINES = 5
# row b is the basis vector |b>; the whole, reshaped over two axes, copies one into the other
_BASIS = np.eye(2, dtype=complex)
_EINSUM_AXES = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class SimulationError(ValueError):
    """Inputs to the simulator are malformed."""


def _apply(tensor: np.ndarray, gate, out=None, scratch=None) -> np.ndarray:
    """The gate kernel: act on the qubit axes ``gate.targets``.

    ``tensor`` has one axis of size 2 per qubit followed by any number
    of batch axes, which pass through untouched.  The result is written
    to ``out`` when given: a contiguous array of the tensor's size, which
    may be the very buffer ``tensor`` views.  The targets-first copy of
    the input goes to ``scratch`` when given (a flat array the caller
    owns, at least the tensor's size), else to a new array.  Products go
    through ``capped_matmul``.
    """
    order, back = _axis_orders(gate.targets, tensor.ndim)
    front = tensor.transpose(order)
    if scratch is not None:
        copy = scratch[:tensor.size].reshape(front.shape)
        np.copyto(copy, front)
        front = copy
    flat = front.reshape(2 ** gate.arity, -1)
    product = capped_matmul(gate.matrix, flat, None if out is None else out.reshape(flat.shape))
    return product.reshape(front.shape).transpose(back)


@functools.lru_cache(maxsize=1024)
def _axis_orders(targets: tuple[int, ...], ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The kernel's axis permutation, which brings the target axes to the
    front, and its inverse, which puts every axis back where it was;
    cached, since the kernel meets the same few on every call."""
    order = (*targets, *(a for a in range(ndim) if a not in targets))
    return order, tuple(sorted(range(ndim), key=order.__getitem__))


def _alpha(index: int, n: int) -> tuple[int, ...]:
    """Assignment bits of a scan index, x1 first."""
    return tuple((index >> (n - 1 - j)) & 1 for j in range(n))


def _line_values(circuit: Circuit, lo: int, hi: int) -> np.ndarray:
    """Input bit of every line for assignments lo..hi-1, shape (m, hi - lo)."""
    n = circuit.num_variables
    index = np.arange(lo, hi)
    return np.array([
        (index >> (n - lb.var)) & 1 if lb.var is not None
        else np.full(hi - lo, lb.const)
        for lb in circuit.labels
    ]).reshape(circuit.num_qubits, hi - lo)


def _check_drift(values: np.ndarray, lo: int, n: int, what: str) -> None:
    """Raise naming the first assignment whose value is not 1 within 1e-10."""
    bad = np.flatnonzero(~(np.abs(values - 1.0) <= NORM_TOL))
    if bad.size:
        alpha = "".join(map(str, _alpha(lo + int(bad[0]), n)))
        raise SimulationError(f"{what} drifted to {values[bad[0]]} at assignment {alpha}")


def _require_cap(circuit: Circuit, max_qubits: int) -> None:
    if circuit.num_qubits > max_qubits:
        raise SimulationError(
            f"{circuit.num_qubits} qubits exceeds the simulation cap {max_qubits}"
        )


# ---------------------------------------------------------------------------
# state vector: the step-order oracle


def initial_state(circuit: Circuit, assignment) -> np.ndarray:
    """Basis state from the input labels and a variable assignment.

    ``assignment`` holds one bit per variable, indexed so that
    ``assignment[j - 1]`` is the value of x_j.
    """
    bits = tuple(int(b) for b in assignment)
    n = circuit.num_variables
    if len(bits) != n:
        raise SimulationError(f"assignment length {len(bits)} != {n} variables")
    if any(b not in (0, 1) for b in bits):
        raise SimulationError(f"assignment must be 0/1 bits, got {bits}")
    index = 0
    for label in circuit.labels:
        value = bits[label.var - 1] if label.var is not None else label.const
        index = (index << 1) | value
    state = np.zeros(2 ** circuit.num_qubits, dtype=complex)
    state[index] = 1.0
    return state


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int | None = None) -> np.ndarray:
    """Apply one gate, acting as the identity on all non-target qubits."""
    state = np.asarray(state, dtype=complex)
    if num_qubits is None:
        num_qubits = int(state.size).bit_length() - 1
    if state.size != 2 ** num_qubits:
        raise SimulationError(f"state size {state.size} is not 2^{num_qubits}")
    k = gate.arity
    if any(not (0 <= q < num_qubits) for q in gate.targets):
        raise SimulationError(f"gate targets {gate.targets} exceed {num_qubits} qubits")
    if gate.matrix.shape != (2 ** k, 2 ** k):
        raise SimulationError(f"matrix shape {gate.matrix.shape} for {k} targets")
    return _apply(state.reshape([2] * num_qubits), gate).reshape(-1)


@dataclass(frozen=True)
class Outcome:
    """Acceptance data for one run: p1 and the two decomposition norms."""

    p1: float
    norm0_sq: float
    norm1_sq: float


def output_probability(state: np.ndarray, output_qubit: int, num_qubits: int) -> Outcome:
    tensor = np.abs(np.asarray(state).reshape([2] * num_qubits)) ** 2
    axes = tuple(i for i in range(num_qubits) if i != output_qubit)
    marginal = tensor.sum(axis=axes) if axes else tensor
    n0, n1 = float(marginal[0]), float(marginal[1])
    return Outcome(p1=n1, norm0_sq=n0, norm1_sq=n1)


def run(
    circuit: Circuit,
    assignment,
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
    check: bool = True,
) -> tuple[np.ndarray, Outcome]:
    """Execute the circuit on one assignment; returns (state, outcome).

    Gates are applied in step order.  The final norm is required to be
    1 within 1e-10; a drift beyond that indicates a non-unitary gate
    slipped past validation.
    """
    _require_cap(circuit, max_qubits)
    if check:
        circuit.check()
    m = circuit.num_qubits
    buffer = initial_state(circuit, assignment)
    tensor = buffer.reshape([2] * m)
    for gate in circuit.gates:
        tensor = _apply(tensor, gate, buffer)
    state = tensor.reshape(-1)
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > NORM_TOL:
        raise SimulationError(f"state norm drifted to {norm}")
    return state, output_probability(state, circuit.output_qubit, m)


def _evolve(circuit: Circuit, gates, lo: int, hi: int, buffers=(None, None)) -> np.ndarray:
    """Apply ``gates`` in order to the input states of assignments lo..hi-1.
    ``buffers``: the batch array and the kernel's scratch, flat arrays of
    at least 2^m (hi - lo) entries reused across batches, or None."""
    m, size = circuit.num_qubits, hi - lo
    index = (1 << np.arange(m - 1, -1, -1)) @ _line_values(circuit, lo, hi)
    buffer = np.empty(size << m, complex) if buffers[0] is None else buffers[0]
    state = buffer[:size << m].reshape(2 ** m, size)
    state.fill(0)
    state[index, np.arange(size)] = 1.0
    tensor = state.reshape([2] * m + [size])
    for gate in gates:
        tensor = _apply(tensor, gate, state, buffers[1])
    return tensor


def final_states(circuit: Circuit, lo: int, hi: int) -> np.ndarray:
    """Final states of assignments lo..hi-1 (scan order) as one batch.

    The result has one axis per qubit and a trailing batch axis of size
    hi - lo.  Gates run in step order; the circuit is not re-checked and
    the caller sizes the batch.
    """
    return _evolve(circuit, circuit.gates, lo, hi)


def _scan(circuit: Circuit, gates, budget: int):
    """p1 and the final norm of every assignment after ``gates``, in
    batches of at most ``budget`` amplitudes (at least one assignment);
    several batches share one batch array and one kernel scratch."""
    m, n = circuit.num_qubits, circuit.num_variables
    others = tuple(q for q in range(m) if q != circuit.output_qubit)
    batch = min(max(1, budget >> m), 2 ** n)
    buffers = [np.empty(batch << m, complex) if batch < 2 ** n else None for _ in range(2)]
    p, norms = np.empty(2 ** n), np.empty(2 ** n)
    for lo in range(0, 2 ** n, batch):
        hi = min(lo + batch, 2 ** n)
        marginal = (np.abs(_evolve(circuit, gates, lo, hi, buffers)) ** 2).sum(axis=others)
        p[lo:hi], norms[lo:hi] = marginal[1], np.sqrt(marginal.sum(axis=0))
    return p, norms


def probability_vector(circuit: Circuit, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> np.ndarray:
    """p1 for every assignment, indexed with x1 as the most significant bit.

    The state vector applies every gate in step order, on batches of
    assignments, and checks every final state's norm.
    """
    _require_cap(circuit, max_qubits)
    circuit.check()
    p, norms = _scan(circuit, circuit.gates, CHUNK_AMPLITUDES)
    _check_drift(norms, 0, circuit.num_variables, "state norm")
    return p


# ---------------------------------------------------------------------------
# pruned, fused state vector


def _fused_schedule(circuit: Circuit) -> list[Gate]:
    """The light cone, the computation graph's gates, as blocks of at
    most ``FUSED_LINES`` lines.

    Each gate, in step order, joins the open blocks it meets into one,
    unless that would exceed the line cap; then those blocks are closed
    and the gate opens a new one.  Open blocks share no line, so they
    commute; a gate wider than the cap is a block of its own.
    """
    closed: list[list[Gate]] = []
    open_blocks: list[tuple[set[int], list[Gate]]] = []
    for gate in (circuit.gates[step - 1] for step in computation_graph(circuit).gate_steps):
        met = [b for b in open_blocks if not b[0].isdisjoint(gate.targets)]
        open_blocks = [b for b in open_blocks if b[0].isdisjoint(gate.targets)]
        lines = set(gate.targets).union(*(b[0] for b in met))
        if len(lines) <= FUSED_LINES:
            open_blocks.append((lines, [g for b in met for g in b[1]] + [gate]))
        else:
            closed += [b[1] for b in met]
            open_blocks.append((set(gate.targets), [gate]))
    closed += [b[1] for b in open_blocks]
    return [_fuse(block) for block in closed]


def _fuse(gates: list[Gate]) -> Gate:
    """One gate on the union of the gates' lines, applying them in order."""
    if len(gates) == 1:
        return gates[0]
    lines = sorted({q for g in gates for q in g.targets})
    local = {q: i for i, q in enumerate(lines)}
    matrix = _operator([Gate(g.step, tuple(local[q] for q in g.targets), g.matrix)
                        for g in gates], len(lines))
    return Gate(gates[-1].step, tuple(lines), matrix)


def _cone(circuit: Circuit, gates) -> tuple[Circuit, list[int]]:
    """``gates``, a schedule of the output line's light cone, as a circuit
    on the cone's lines only, and the variables it scans: its x_i is the
    circuit's x_scanned[i-1].  The other lines never change and never
    reach the output, so they are left out."""
    lines = sorted({circuit.output_qubit}.union(*(g.targets for g in gates)))
    local = {q: i for i, q in enumerate(lines)}
    labels = [circuit.labels[q] for q in lines]
    scanned = sorted({lb.var for lb in labels} - {None})
    cone = Circuit(len(lines), [variable(scanned.index(lb.var) + 1) if lb.is_variable else lb
                                for lb in labels],
                   [Gate(g.step, tuple(local[q] for q in g.targets), g.matrix) for g in gates],
                   local[circuit.output_qubit])
    return cone, scanned


def _probabilities(
    circuit: Circuit, gates, max_qubits: int = DEFAULT_MAX_QUBITS
) -> np.ndarray:
    """p1 of every assignment after ``gates``, a schedule of the output
    line's light cone, on the cone's lines only, which join the state at
    their first block; p is broadcast in scan order over the variables
    off the cone.  The cap applies to the cone's lines."""
    cone, scanned = _cone(circuit, gates)
    _require_cap(cone, max_qubits)
    m, out = cone.num_qubits, cone.output_qubit
    lines = dict.fromkeys([q for g in cone.gates for q in g.targets] + [out])
    joins = [v for v in dict.fromkeys(cone.labels[q].var for q in lines) if v is not None]
    batch = joins[:max(0, (PRUNED_AMPLITUDES >> m).bit_length() - 1)]
    # blocks on the state's axes (lines q, newest first, then batch variables
    # v as -v) and growth steps (shape, source): a constant's basis vector,
    # _BASIS whole to copy a batch variable, or a branch variable's index
    axes: list[int] = []
    plan: list = []
    for gate in [*cone.gates, None]:
        for q in [q for q in (gate.targets if gate else [out]) if q not in axes]:
            v = cone.labels[q].var
            if v in batch and -v not in axes:
                axes.append(-v)
            axes.insert(0, q)
            plan.append((tuple(2 if a in (q, -v if v in batch else q) else 1 for a in axes),
                         _BASIS if v in batch else v or _BASIS[cone.labels[q].const]))
        if gate:
            plan.append(Gate(gate.step, tuple(axes.index(q) for q in gate.targets), gate.matrix))
    summed = tuple(i for i in range(m) if axes[i] != out)
    found = np.empty((2,) * (1 + len(joins) - len(batch)) + (2 ** len(batch),))  # p, norms
    home, spare = (np.empty(1 << len(axes), complex) for _ in range(2))
    pending = [(np.ones((), complex), 0, {})]  # (state, plan step, branch values)
    while pending:
        tensor, start, fixed = pending.pop()
        for i in range(start, len(plan)):
            if isinstance(plan[i], Gate):
                tensor = _apply(tensor, plan[i], home[:tensor.size], spare)
                continue
            shape, source = plan[i]
            if isinstance(source, int) and source not in fixed:  # branch on x_source
                prefix = tensor.copy()
                pending += [(prefix, i, {**fixed, source: bit}) for bit in (1, 0)]
                break
            if len(shape) > tensor.ndim + 1:  # a batch variable's axis joins, last
                tensor = tensor[..., None]
            factor = _BASIS[fixed[source]] if isinstance(source, int) else source
            tensor = np.multiply(factor.reshape(shape), tensor,
                                 out=spare[:1 << len(shape)].reshape((2,) * len(shape)))
            home, spare = spare, home
        else:
            weights = np.abs(tensor, out=spare.view(float)[:tensor.size].reshape(tensor.shape))
            marginal = np.square(weights, out=weights).sum(axis=summed).reshape(2, -1)
            found[(slice(None), *fixed.values())] = marginal[1], np.sqrt(marginal.sum(axis=0))
    n = circuit.num_variables
    order = np.argsort(joins[len(batch):] + batch)
    shape = [2 if j in scanned else 1 for j in range(1, n + 1)]
    p, norms = (np.broadcast_to(a.reshape((2,) * len(joins)).transpose(order).reshape(shape),
                                (2,) * n).flatten() for a in found)
    _check_drift(norms, 0, n, "state norm")
    return p


# ---------------------------------------------------------------------------
# tree contraction for formulas


@dataclass(frozen=True)
class _Node:
    """One computation-graph gate of the contraction schedule.

    ``build`` is the einsum that joins the children's messages and the
    bare lines' basis vectors (each given twice: rows, then columns)
    into the gate's input density matrix; ``row`` and ``col`` apply U
    and its conjugate to its row and column axes; ``trace`` reduces the
    result to the lines that go to the parent (None when all of them do),
    a message of ``size`` entries per assignment.
    """

    children: tuple[int, ...]
    bare: tuple[int, ...]
    build: str
    row: Gate
    col: Gate
    trace: str | None
    size: int


def _schedule(circuit: Circuit) -> tuple[_Node, ...]:
    """Nodes in step order, so children come before their parent."""
    graph = computation_graph(circuit)
    if not graph.is_tree:
        raise NotAFormulaError("the tree contraction needs a formula")
    position = {step: i for i, step in enumerate(graph.gate_steps)}
    nodes = []
    for step in graph.gate_steps:
        gate = circuit.gates[step - 1]
        k = gate.arity
        row = {q: _EINSUM_AXES[i] for i, q in enumerate(gate.targets)}
        col = {q: _EINSUM_AXES[k + i] for i, q in enumerate(gate.targets)}

        def axes(lines):  # a density matrix on these lines, then the batch
            return "".join(row[q] for q in lines) + "".join(col[q] for q in lines) + "..."

        providers = [graph.prev_on[(step, q)] for q in gate.targets]
        children = list(dict.fromkeys(position[p] for p in providers if p is not None))
        bare = [q for q, p in zip(gate.targets, providers) if p is None]
        operands = [axes(graph.up_lines[graph.gate_steps[c]]) for c in children]
        operands += [f"{side[q]}..." for q in bare for side in (row, col)]
        up = graph.up_lines[step]
        traced = "".join(row.values()) + "".join((col if q in up else row)[q] for q in gate.targets)
        nodes.append(_Node(
            children=tuple(children),
            bare=tuple(bare),
            build=",".join(operands) + "->" + axes(gate.targets),
            row=Gate(step, tuple(range(k)), gate.matrix),
            col=Gate(step, tuple(range(k, 2 * k)), gate.matrix.conj()),
            trace=None if len(up) == k else traced + "...->" + axes(up),
            size=4 ** len(up),
        ))
    return tuple(nodes)


def contract_formula(circuit: Circuit) -> np.ndarray:
    """p1 for every assignment of a formula, by bottom-up tree contraction.

    Indexed like ``probability_vector``; there is no line cap.  The
    assignments go through in batches that hold at most
    ``CHUNK_AMPLITUDES`` entries at any time (pending messages, plus the
    current gate's input and the kernel's copy of it), and the trace of
    every root message is checked.  Raises NotAFormulaError on a
    non-formula.
    """
    circuit.check()
    nodes = _schedule(circuit)
    n = circuit.num_variables
    if not nodes:
        # no gate touches the output line: p is its input bit
        return _line_values(circuit, 0, 2 ** n)[circuit.output_qubit].astype(float)
    pending = peak = 0
    for node in nodes:
        peak = max(peak, pending + 2 * 4 ** node.row.arity)
        pending += node.size - sum(nodes[c].size for c in node.children)
    batch = max(1, CHUNK_AMPLITUDES // peak)
    out = np.empty(2 ** n)
    for lo in range(0, 2 ** n, batch):
        hi = min(lo + batch, 2 ** n)
        values = _line_values(circuit, lo, hi)
        messages: list[np.ndarray | None] = []
        for node in nodes:
            operands = [messages[c] for c in node.children]
            for q in node.bare:
                basis = np.stack([1 - values[q], values[q]]).astype(complex)
                operands += [basis, basis]
            for c in node.children:
                messages[c] = None  # consumed
            joint = np.einsum(node.build, *operands)
            rho = _apply(_apply(joint, node.row, joint), node.col, joint)
            messages.append(rho if node.trace is None else np.einsum(node.trace, rho))
        root = messages[-1]
        _check_drift((root[0, 0] + root[1, 1]).real, lo, n, "root trace")
        out[lo:hi] = root[1, 1].real
    return out


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class FunctionVerdict:
    """Computes, or the first assignment where the thresholds fail.

    ``status`` is one of "computes", "fails", "undetermined"; for the
    non-computing statuses ``alpha`` is the offending assignment (bit
    tuple, x1 first) and ``p`` its acceptance probability.
    """

    status: str
    alpha: tuple[int, ...] | None = None
    p: float | None = None

    @property
    def computes(self) -> bool:
        return self.status == "computes"


COMPUTES = FunctionVerdict("computes")


def decide(p) -> np.ndarray:
    """The threshold rule: 1 where p > 2/3, 0 where p < 1/3, -1 otherwise.

    The defining inequalities are strict, so p exactly at a threshold
    (or NaN) is undetermined.
    """
    p = np.asarray(p, dtype=float)
    return np.where(p > 2 / 3, 1, np.where(p < 1 / 3, 0, -1))


def verdict(p, table_bits) -> FunctionVerdict:
    """First assignment in scan order where ``decide(p)`` misses the table."""
    p = np.asarray(p, dtype=float)
    decided = decide(p)
    failing = np.flatnonzero(decided != np.asarray(table_bits).reshape(-1))
    if not failing.size:
        return COMPUTES
    idx = int(failing[0])
    status = "undetermined" if decided[idx] < 0 else "fails"
    return FunctionVerdict(status, _alpha(idx, p.size.bit_length() - 1), float(p[idx]))


def evaluate(
    circuit: Circuit, table_bits, *, max_qubits: int = DEFAULT_MAX_QUBITS
) -> FunctionVerdict:
    """Compare the circuit against a truth table over its variables.

    The table is indexed with x1 as the most significant bit; the first
    failing assignment in that order is reported.  Formulas go through
    ``contract_formula``, which has no line cap; other circuits through
    the pruned, fused state vector, capped at ``max_qubits`` cone lines.  An
    assignment whose p lands within 1e-12 of a threshold is re-decided
    by ``run`` on the cone circuit (the graph's gates, unfused, in step
    order, on the cone's lines) when the cone fits under ``max_qubits``,
    so the verdict is the step-order state vector's.
    """
    circuit.check()
    n = circuit.num_variables
    bits = np.asarray(table_bits).reshape(-1)
    if bits.size != 2 ** n:
        raise SimulationError(f"truth table has {bits.size} entries, expected {2 ** n}")
    if not np.all((bits == 0) | (bits == 1)):
        raise SimulationError("truth table entries must be 0/1")
    if is_formula(circuit):
        p = contract_formula(circuit)
    else:
        p = _probabilities(circuit, _fused_schedule(circuit), max_qubits)
    near = (np.abs(p - 1 / 3) <= BOUNDARY_TOL) | (np.abs(p - 2 / 3) <= BOUNDARY_TOL)
    if near.any():
        graph = computation_graph(circuit)
        cone, scanned = _cone(circuit, [circuit.gates[s - 1] for s in graph.gate_steps])
        for idx in np.flatnonzero(near) if cone.num_qubits <= max_qubits else ():
            alpha = _alpha(int(idx), n)
            p[idx] = run(cone, [alpha[j - 1] for j in scanned],
                         max_qubits=max_qubits, check=False)[1].p1
    return verdict(p, bits)


def _operator(gates, m: int) -> np.ndarray:
    """The 2^m x 2^m operator of ``gates`` in order: the kernel on the identity."""
    dim = 2 ** m
    eye = np.eye(dim, dtype=complex)
    u = eye.reshape([2] * m + [dim])
    for gate in gates:
        u = _apply(u, gate, eye)
    return u.reshape(dim, dim)


def to_unitary(circuit: Circuit, *, max_qubits: int = 12) -> np.ndarray:
    """Full 2^m x 2^m operator of the circuit, gates in step order."""
    m = circuit.num_qubits
    if m > max_qubits:
        raise SimulationError(f"to_unitary capped at {max_qubits} qubits, got {m}")
    return _operator(circuit.gates, m)


def embed_gate(gate: Gate, num_qubits: int) -> np.ndarray:
    """Explicit 2^m x 2^m embedding of one gate (test oracle; O(4^m))."""
    dim = 2 ** num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    k = gate.arity
    for col in range(dim):
        col_bits = [(col >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        gate_col = 0
        for q in gate.targets:
            gate_col = (gate_col << 1) | col_bits[q]
        for gate_row in range(2 ** k):
            amp = gate.matrix[gate_row, gate_col]
            if amp == 0:
                continue
            row_bits = list(col_bits)
            for pos, q in enumerate(gate.targets):
                row_bits[q] = (gate_row >> (k - 1 - pos)) & 1
            row = 0
            for b in row_bits:
                row = (row << 1) | b
            out[row, col] += amp
    return out
