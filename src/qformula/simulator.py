"""Exact simulation and Boolean acceptance semantics.

Running a circuit on a Boolean assignment starts from the basis state
determined by the input labels, applies the gates, and reads the
probability p that the output qubit is 1.  A circuit computes a Boolean
function f when p > 2/3 on every 1-input and p < 1/3 on every 0-input;
anything in the closed band [1/3, 2/3] is undetermined.

Three paths push the assignments through in batches of at most
``CHUNK_AMPLITUDES`` (2^15) amplitudes, all products through
``gates.capped_matmul``:

* The step-order state vector (``run``, ``probability_vector``,
  ``final_states``) holds 2^m amplitudes per assignment and applies
  every gate in step order with the gate kernel ``_apply``, never
  reordering commuting gates, so it is the trusted oracle for the
  rewrite passes and for the two fast paths below.
* The pruned, fused state vector keeps only the output line's backward
  light cone, the computation graph's gates (a dropped gate commutes
  past every kept one and never acts on the output line, so p is
  exact), fused into blocks on at most ``FUSED_LINES`` lines, one
  matrix each.  A cone line joins the state at the first block on it
  (the output line at the end if none); a variable joins the scan with
  its first line, so earlier blocks run once for both of its values,
  and p is broadcast over the variables off the cone.  The first
  variables to join are batch axes, as many as fit the budget, each of
  their lines joining as a copy of the variable's axis.  At each later
  variable the state is saved (each saved state is at least twice the
  one before) and the rest runs once per value.  A constant's line, or
  such a branch variable's, joins inside its first block: the block
  reads the state without it, keeps only the columns of its known input
  bit (one matrix per value of the block's branch variables) and writes
  the line among its axes, so no product runs on the zero half.
  The state is real: float64 with one more axis, re/im, and each
  block's matrix U is realified once, as [[Re U, -Im U], [Im U, Re U]]
  over (re/im, its lines).  The plan fixes the state's memory order of
  axes at every step.  A block whose re/im axis and lines sit next to
  each other runs as one batched real product (``_run_block``), from
  one buffer into the other; any other block's input is first copied
  into an order in which the blocks after it also find theirs adjacent,
  as far as one order allows.  p is one sum of squares over the state,
  in memory order.
* The tree contraction (``contract_formula``) needs a formula.  Each
  gate of the computation graph joins its children's reduced density
  matrices and its bare input lines' basis states into its input rho;
  gates outside the graph drop out.  Its message, U rho U^dagger traced
  down to the up-lines (those that go to its parent), is two products:
  U rho, then conj(U) times that, the trace being the sum over their
  shared inner axis.  Every array carries one axis per variable, size 2
  for a variable on the lines below the gate and 1 for the rest, so a
  k-qubit gate runs on 4^k entries per value of its own variables, not
  of all n.  The root's p is broadcast over the variables it lacks.

Both state vectors are capped at ``MAX_QUBITS`` lines: the step-order
one counts all of the circuit's lines, the pruned one its cone's.
``capped_matmul`` hands BLAS no product of more than ``BLAS_SLICE_MACS``
multiply-adds in one call when BLAS may run on more than one thread.

``exact_probabilities`` alone chooses among the three: the oracle when
the whole scan fits one batch, else the contraction for a formula and
the pruned, fused state vector for anything else.  On those two an
assignment whose p lands within 1e-12 of a threshold (``_near``) is
re-decided by the step-order state vector on the light cone's gates,
unfused, on the cone's lines, so the verdict is the oracle's.  One
threshold rule, ``decide``, and one guard band, ``_near``, serve
``evaluate`` and the counting module.  All batched paths check every
assignment's norm (or trace) against 1 within 1e-10.  Everything here
is deterministic and side-effect free.
"""
from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .analysis import NotAFormulaError, computation_graph, is_formula
from .circuit import Circuit, Gate, Record, variable
from .gates import capped_matmul

# lines either state vector may hold: 2^20 complex amplitudes are 16 MB
MAX_QUBITS = 20
# lines of to_unitary's operator: 2^12 x 2^12 complex entries are 256 MB
UNITARY_MAX_QUBITS = 12
NORM_TOL = 1e-10
# p this close to 1/3 or 2/3 is re-decided by the state vector
BOUNDARY_TOL = 1e-12
# amplitudes a batch of assignments may hold, on every batched path: one
# state array of either state vector (each with a scratch of the same
# size), or everything a tree contraction keeps at once.  2^15 ran the
# pruned path faster than 2^13 or 2^14 at 12 lines; 2^16 held 1.5 MB more.
CHUNK_AMPLITUDES = 2 ** 15
# lines a fused block of the pruned state vector may act on: a k-line
# block costs 2^(k+1) real multiply-adds per entry, against 2^(a+1) for
# each of the a-qubit gates it replaces.  4 ran faster than 3 or 5 on
# random 60-gate circuits over 12 lines.
FUSED_LINES = 4
# row b is the basis vector |b>; the whole, reshaped over two axes, copies one into the other
_BASIS = np.eye(2)
_EINSUM_AXES = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class SimulationError(ValueError):
    """Inputs to the simulator are malformed."""


def _apply(tensor: np.ndarray, gate, out=None, scratch=None) -> np.ndarray:
    """The gate kernel: apply ``gate`` to the qubit axes ``gate.targets``.

    ``tensor``, complex, has one axis of size 2 per qubit followed by any number
    of batch axes, which pass through untouched.  The result is written
    to ``out`` when given: a contiguous array of the tensor's size, which
    may be the very buffer ``tensor`` views.  The targets-first copy of
    the input goes to ``scratch`` when given (a flat array the caller
    owns, at least the tensor's size), else to a new array.  Products go
    through ``capped_matmul``.
    """
    to_front, back = _axis_orders(gate.targets, tensor.ndim)
    front = tensor.transpose(to_front)
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


def _require_cap(circuit: Circuit) -> None:
    if circuit.num_qubits > MAX_QUBITS:
        raise SimulationError(
            f"{circuit.num_qubits} qubits exceeds the simulation cap {MAX_QUBITS}"
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


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a 2^m-amplitude state, as the identity off its targets."""
    state = np.asarray(state, dtype=complex)
    num_qubits = int(state.size).bit_length() - 1
    if not state.size:
        raise SimulationError("state is empty")
    if state.size != 2 ** num_qubits:
        raise SimulationError(f"state size {state.size} is not 2^{num_qubits}")
    k = gate.arity
    if any(not (0 <= q < num_qubits) for q in gate.targets):
        raise SimulationError(f"gate targets {gate.targets} exceed {num_qubits} qubits")
    if len(set(gate.targets)) != k:
        raise SimulationError(f"gate targets {gate.targets} repeat a line")
    if gate.matrix.shape != (2 ** k, 2 ** k):
        raise SimulationError(f"matrix shape {gate.matrix.shape} for {k} targets")
    return _apply(state.reshape([2] * num_qubits), gate).reshape(-1)


class Outcome(Record):
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


def run(circuit: Circuit, assignment) -> tuple[np.ndarray, Outcome]:
    """Execute the circuit on one assignment; returns (state, outcome).

    Gates are applied in step order.  The final norm is required to be
    1 within 1e-10; a drift beyond that (or NaN) indicates a non-unitary
    gate slipped past validation.
    """
    _require_cap(circuit)
    circuit.check()
    m, n = circuit.num_qubits, circuit.num_variables
    state = _operator(circuit.gates, m, initial_state(circuit, assignment)[:, None]).reshape(-1)
    index = int((1 << np.arange(n - 1, -1, -1)) @ np.asarray(assignment, dtype=int))
    _check_drift(np.linalg.norm(state, keepdims=True), index, n, "state norm")
    return state, output_probability(state, circuit.output_qubit, m)


def final_states(circuit: Circuit, lo: int, hi: int, buffers=(None, None)) -> np.ndarray:
    """Final states of assignments lo..hi-1 (scan order) as one batch.

    The result has one axis per qubit and a trailing batch axis of size
    hi - lo.  Gates run in step order; the circuit is not re-checked and
    the caller sizes the batch.  ``buffers``: the batch array and the
    kernel's scratch, flat arrays of at least 2^m (hi - lo) entries
    reused across batches, or None.
    """
    m, size = circuit.num_qubits, hi - lo
    index = (1 << np.arange(m - 1, -1, -1)) @ _line_values(circuit, lo, hi)
    buffer = np.empty(size << m, complex) if buffers[0] is None else buffers[0]
    state = buffer[:size << m].reshape(2 ** m, size)
    state.fill(0)
    state[index, np.arange(size)] = 1.0
    tensor = state.reshape([2] * m + [size])
    for gate in circuit.gates:
        tensor = _apply(tensor, gate, state, buffers[1])
    return tensor


def _scan(circuit: Circuit, lo: int, hi: int) -> np.ndarray:
    """p1 of assignments lo..hi-1 in step order, checking every final
    norm, in batches of at most ``CHUNK_AMPLITUDES`` amplitudes (at least
    one assignment) that share one batch array and one kernel scratch."""
    m = circuit.num_qubits
    others = tuple(q for q in range(m) if q != circuit.output_qubit)
    batch = min(max(1, CHUNK_AMPLITUDES >> m), hi - lo)
    buffers = [np.empty(batch << m, complex) if batch < hi - lo else None for _ in range(2)]
    p = np.empty(hi - lo)
    for start in range(lo, hi, batch):
        stop = min(start + batch, hi)
        marginal = (np.abs(final_states(circuit, start, stop, buffers)) ** 2).sum(axis=others)
        p[start - lo:stop - lo] = marginal[1]
        _check_drift(np.sqrt(marginal.sum(axis=0)), start, circuit.num_variables, "state norm")
    return p


def probability_vector(circuit: Circuit) -> np.ndarray:
    """p1 for every assignment, indexed with x1 as the most significant bit.

    The state vector applies every gate in step order, on batches of
    assignments, and checks every final state's norm.
    """
    _require_cap(circuit)
    circuit.check()
    return _scan(circuit, 0, 2 ** circuit.num_variables)


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
    matrix = _operator([g.moved(g.step, [local[q] for q in g.targets]) for g in gates], len(lines))
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


class _Run(NamedTuple):
    """A fused block as the pruned plan runs it: after a copy of the
    state into the axis order ``order`` unless that is None, one real
    matrix that writes the adjacent axes ``targets`` of the new state.
    The lines that join at the block are not in the state it reads, nor
    in ``order``.  ``matrices`` holds one matrix per value of the block's
    ``branch`` variables, indexed by their bits (the whole array when
    there are none); each keeps only the columns in which the joining
    lines hold their input bits, 2^(k+1) rows by 2^(k+1-j) columns when
    j lines join a k-line block."""

    step: int
    targets: tuple[int, ...]
    matrices: np.ndarray
    order: tuple[int, ...] | None
    branch: tuple[int, ...]


def _chain(axes: list, blocks: list) -> list:
    """A memory order of ``axes`` in which the re/im axis (None) and the
    lines of blocks[0] are adjacent, and so are those of as many of the
    next blocks as one order allows: each must meet the placed lines in
    exactly those after the re/im axis, and its new lines go after them,
    those the block after it needs last.  The placed lines sit midway,
    where batched products run fastest; the batch axes stay last and
    the other axes keep their order, so the copy moves few inner axes."""
    after = [*blocks[1:], ()]
    seq = [q for q in blocks[0] if q not in after[0]] + [None]
    seq += [q for q in blocks[0] if q in after[0]]
    for block, then in zip(after, after[1:]):
        if not set(block) <= set(axes) or set(block) & set(seq) != set(seq[seq.index(None) + 1:]):
            break
        seq += sorted((q for q in block if q not in seq), key=lambda q: q in then)
    rest = [a for a in axes if a not in seq and a >= 0]
    mid = min(len(rest), (len(axes) - len(seq)) // 2)
    return rest[:mid] + seq + rest[mid:] + [a for a in axes if a is not None and a < 0]


def _realify(matrix: np.ndarray, order: list[int], known: dict) -> np.ndarray:
    """[[Re U, -Im U], [Im U, Re U]] over (re/im, U's lines), its axes
    permuted to ``order``, with only the columns in which each axis of
    ``known`` (an index into (re/im, U's lines)) holds its bit."""
    real = np.block([[matrix.real, -matrix.imag], [matrix.imag, matrix.real]])
    k = len(order)
    real = real.reshape((2,) * 2 * k).transpose(*order, *(k + a for a in order))
    columns = tuple(known.get(a, slice(None)) for a in order)
    return real[(slice(None),) * k + columns].reshape(2 ** k, -1)


def _plan(cone: Circuit, batch: list[int]) -> tuple[list, list]:
    """The pruned path's steps, and the state's axes in memory order at
    the end: the re/im axis (None), lines q and batch variables v as -v.

    A line joins at its first block (the output line at the end if
    none).  A constant's or a branch variable's line joins inside that
    block: the ``_Run`` reads the state without the line and writes it
    among the block's axes, its matrices keeping only the columns of the
    line's input bit.  A batch variable's line, and an output line that
    no block is on, join first as the front axis, in a growth step
    (shape, source): the state times ``_BASIS`` whole to copy a batch
    variable (whose axis joins last), a constant's basis vector, or a
    branch variable's (index) basis vector.  The lines that join inside
    a block go in front too: when the block's lines and the re/im axis
    are then not adjacent, its input is first copied into the order
    ``_chain`` plans, less those lines.
    """
    out, blocks = cone.output_qubit, [g.targets for g in cone.gates]
    axes: list = [None]
    plan: list = []
    for i, gate in enumerate([*cone.gates, None]):
        new = [q for q in (gate.targets if gate else [out]) if q not in axes]
        folded = [q for q in new if gate and cone.labels[q].var not in batch]
        for q in (q for q in new if q not in folded):
            v = cone.labels[q].var
            if v in batch and -v not in axes:
                axes.append(-v)
            axes.insert(0, q)
            plan.append((tuple(2 if a in (q, -v if v in batch else q) else 1 for a in axes),
                         _BASIS if v in batch else v or _BASIS[cone.labels[q].const]))
        if gate:
            run, joined, order = {None, *gate.targets}, folded[::-1] + axes, None
            at = [j for j, a in enumerate(joined) if a in run]
            if at[-1] - at[0] >= len(at):
                joined = _chain(joined, blocks[i:])
                order = tuple(axes.index(a) for a in joined if a not in folded)
                at = [j for j, a in enumerate(joined) if a in run]
            local = [(None, *gate.targets).index(joined[j]) for j in at]
            labels = {1 + gate.targets.index(q): cone.labels[q] for q in folded}  # by local axis
            branch = tuple(dict.fromkeys(lb.var for lb in labels.values() if lb.is_variable))
            values = [dict(zip(branch, bits))
                      for bits in itertools.product((0, 1), repeat=len(branch))]
            matrices = np.array([
                _realify(gate.matrix, local,
                         {a: value.get(lb.var, lb.const) for a, lb in labels.items()})
                for value in values])
            shape = (2,) * len(branch) + matrices.shape[1:]
            plan.append(_Run(gate.step, tuple(at), matrices.reshape(shape), order, branch))
            axes = joined
    return plan, axes


def _run_block(tensor: np.ndarray, block: _Run, home: np.ndarray, spare: np.ndarray,
               bits: tuple[int, ...]) -> np.ndarray:
    """One block of the pruned plan on its real state in ``home``, whose
    axes all have size 2, with the matrix for its branch variables'
    ``bits``.  Copied to ``spare`` in the axis order ``block.order``
    unless that is None, the state has the re/im axis and the block's
    lines that it holds adjacent, from axis a on, and the block is one
    batched (2^a, rows, columns) product into the other buffer:
    ``spare``, or ``home`` after a copy.  The product's rows are the
    block's axes, the lines that join it among them, so a block that
    lines join writes a state 2^j times larger than it reads."""
    if block.order is not None:
        front = tensor.transpose(block.order)
        tensor = spare[:tensor.size].reshape(front.shape)
        np.copyto(tensor, front)
        home, spare = spare, home
    matrix = block.matrices[bits]
    rows, cols = matrix.shape
    view = tensor.reshape(1 << block.targets[0], cols, -1)
    out = spare[:tensor.size // cols * rows].reshape(len(view), rows, -1)
    return capped_matmul(matrix, view, out).reshape((2,) * (out.size.bit_length() - 1))


def _probabilities(circuit: Circuit, gates) -> np.ndarray:
    """p1 of every assignment after ``gates``, a schedule of the output
    line's light cone, on the cone's lines only, which join the state at
    their first block; p is broadcast in scan order over the variables
    off the cone.  The cap applies to the cone's lines."""
    cone, scanned = _cone(circuit, gates)
    _require_cap(cone)
    m, out = cone.num_qubits, cone.output_qubit
    lines = dict.fromkeys([q for g in cone.gates for q in g.targets] + [out])
    joins = [v for v in dict.fromkeys(cone.labels[q].var for q in lines) if v is not None]
    batch = joins[:max(0, (CHUNK_AMPLITUDES >> m).bit_length() - 1)]
    plan, axes = _plan(cone, batch)
    kept = [axes.index(a) for a in [out, *(-v for v in batch)]]
    found = np.empty((2,) * (1 + len(joins) - len(batch)) + (2 ** len(batch),))  # p, norms
    home, spare = (np.empty(1 << len(axes)) for _ in range(2))
    pending = [(np.array([1.0, 0.0]), 0, {})]  # (state, plan step, branch values)
    while pending:
        tensor, start, fixed = pending.pop()
        for i in range(start, len(plan)):
            step = plan[i]
            # the variables whose bits the step reads: a block's branch
            # variables, or a growth step's source if that is one
            reads = (step.branch if isinstance(step, _Run)
                     else [v for v in step[1:] if isinstance(v, int)])
            free = [v for v in reads if v not in fixed]
            if free:  # the state so far runs once per value of the free variables
                prefix = tensor.copy()
                pending += [(prefix, i, {**fixed, **dict(zip(free, bits))})
                            for bits in itertools.product((1, 0), repeat=len(free))]
                break
            if isinstance(step, _Run):
                tensor = _run_block(tensor, step, home, spare, tuple(fixed[v] for v in reads))
                if step.order is None:  # the state moved to spare
                    home, spare = spare, home
                continue
            shape, source = step
            if len(shape) > tensor.ndim + 1:  # a batch variable's axis joins, last
                tensor = tensor[..., None]
            factor = _BASIS[fixed[source]] if isinstance(source, int) else source
            tensor = np.multiply(factor.reshape(shape), tensor,
                                 out=spare[:1 << len(shape)].reshape((2,) * len(shape)))
            home, spare = spare, home
        else:
            lead = min(kept)  # sum the squares over the leading axes, then the rest
            head = tensor.reshape(1 << lead, -1)
            tail = np.einsum("ac,ac->c", head, head).reshape(tensor.shape[lead:])
            marginal = np.einsum(tail, range(tail.ndim), [k - lead for k in kept]).reshape(2, -1)
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


class _Node(Record):
    """One computation-graph gate of the contraction schedule.

    ``build`` is the einsum that joins the children's messages and the
    bare lines' basis vectors (each given twice: rows, then columns)
    into the gate's input density matrix rho over its targets.
    ``matrix`` is U, its rows reordered up-lines first; ``adjoint`` is
    its conjugate as 2^up rows.  The message is ``adjoint`` times
    (``matrix`` rho) split as (up-lines, rest): U rho U^dagger, traced
    down to the up-lines by the sum over the shared inner axis.
    """

    children: tuple[int, ...]
    bare: tuple[int, ...]
    build: str
    matrix: np.ndarray
    adjoint: np.ndarray


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
        rows = sorted(range(k), key=lambda i: gate.targets[i] not in up)  # up-lines first, in order
        matrix = gate.matrix.reshape((2,) * k + (-1,)).transpose(*rows, k).reshape(2 ** k, -1)
        nodes.append(_Node(
            children=tuple(children),
            bare=tuple(bare),
            build=",".join(operands) + "->" + axes(gate.targets),
            matrix=matrix,
            adjoint=matrix.conj().reshape(2 ** len(up), -1),
        ))
    return tuple(nodes)


def contract_formula(circuit: Circuit) -> np.ndarray:
    """p1 for every assignment of a formula, by bottom-up tree contraction.

    Indexed like ``probability_vector``; there is no line cap.  The scan
    runs in slices that fix x1..x_{n-f}, with the largest f for which 2^f
    times the entries held at once per assignment (pending messages, plus
    the current gate's rho and U rho, or U rho and its message) fits
    ``CHUNK_AMPLITUDES``.  Every root trace is checked.  Raises
    NotAFormulaError on a non-formula.
    """
    circuit.check()
    nodes = _schedule(circuit)
    n = circuit.num_variables
    pending, peak = 0, 4  # entries per assignment; an untouched output line's message has 4
    for node in nodes:
        peak = max(peak, pending + 2 * len(node.matrix) ** 2)
        pending += len(node.adjoint) ** 2 - sum(len(nodes[c].adjoint) ** 2 for c in node.children)
    free = min(n, max(1, CHUNK_AMPLITUDES // peak).bit_length() - 1)
    out = np.empty(2 ** n)
    slot = [lb.const if lb.var is None else 1 + lb.var for lb in circuit.labels]
    for lo in range(0, 2 ** n, 2 ** free):
        # a line's basis state at its slot: |0>, |1>, then x_v's, on v's axis if free
        states = [_BASIS[b].reshape((2,) + (1,) * n) for b in (0, 1)]
        states += [_BASIS.reshape((2,) + (1,) * j + (2,) + (1,) * (n - 1 - j)) if j >= n - free
                   else states[b] for j, b in enumerate(_alpha(lo, n))]
        messages: dict[int, np.ndarray] = {}  # by node, until its parent consumes it
        for i, node in enumerate(nodes):
            operands = [messages.pop(c) for c in node.children]
            operands += [states[slot[q]] for q in node.bare for _ in range(2)]  # rows, columns
            # rho, then U rho, then the message: each replaces the one before
            work = np.einsum(node.build, *operands)
            shape = work.shape[work.ndim - n:]  # the variable axes, size 2 where free below
            work = capped_matmul(node.matrix, work.reshape(len(node.matrix), -1))
            work = capped_matmul(node.adjoint, work.reshape(*node.adjoint.shape, -1))
            messages[i] = work.reshape((2,) * 2 * (len(work).bit_length() - 1) + shape)
        root = messages[len(nodes) - 1] if nodes else np.einsum(
            "a...,b...->ab...", *[states[slot[circuit.output_qubit]]] * 2)
        root = np.broadcast_to(root, (2, 2) + (1,) * (n - free) + (2,) * free).reshape(2, 2, -1)
        _check_drift((root[0, 0] + root[1, 1]).real, lo, n, "root trace")
        out[lo:lo + 2 ** free] = root[1, 1].real
    return out


# ---------------------------------------------------------------------------
# verdicts


class FunctionVerdict(Record):
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


def _near(p) -> np.ndarray:
    """Where p lies within ``BOUNDARY_TOL`` of 1/3 or 2/3: the guard band
    whose verdicts the step-order state vector re-decides."""
    return (np.abs(p - 1 / 3) <= BOUNDARY_TOL) | (np.abs(p - 2 / 3) <= BOUNDARY_TOL)


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


def exact_probabilities(circuit: Circuit) -> np.ndarray:
    """p1 for every assignment, indexed like ``probability_vector``: the
    oracle while 2^(m+n) amplitudes fit ``CHUNK_AMPLITUDES``, else
    ``contract_formula`` for a formula (no line cap) or the pruned, fused
    state vector (capped at ``MAX_QUBITS`` cone lines), p near a threshold
    re-decided on the cone circuit when it fits under ``MAX_QUBITS``.
    """
    circuit.check()
    n = circuit.num_variables
    if 1 << (circuit.num_qubits + n) <= CHUNK_AMPLITUDES:
        return probability_vector(circuit)
    if is_formula(circuit):
        p = contract_formula(circuit)
    else:
        p = _probabilities(circuit, _fused_schedule(circuit))
    near = np.flatnonzero(_near(p))
    if near.size:
        graph = computation_graph(circuit)
        cone, scanned = _cone(circuit, [circuit.gates[s - 1] for s in graph.gate_steps])
        for idx in near if cone.num_qubits <= MAX_QUBITS else ():
            # the cone's scan index: its x_i is the circuit's x_scanned[i-1]
            local = sum((int(idx) >> (n - j) & 1) << i for i, j in enumerate(scanned[::-1]))
            p[idx] = _scan(cone, local, local + 1)[0]
    return p


def evaluate(circuit: Circuit, table_bits) -> FunctionVerdict:
    """Compare the circuit against a truth table over its variables.

    The table is indexed with x1 as the most significant bit; the first
    failing assignment in that order is reported, p from ``exact_probabilities``.
    """
    circuit.check()
    n = circuit.num_variables
    bits = np.asarray(table_bits).reshape(-1)
    if bits.size != 2 ** n:
        raise SimulationError(f"truth table has {bits.size} entries, expected {2 ** n}")
    if not np.all((bits == 0) | (bits == 1)):
        raise SimulationError("truth table entries must be 0/1")
    return verdict(exact_probabilities(circuit), bits)


def _operator(gates, m: int, start: np.ndarray | None = None) -> np.ndarray:
    """``gates`` in order applied to each column of ``start``, 2^m rows by
    any number of columns (default the identity: the 2^m x 2^m operator)."""
    buffer = np.eye(2 ** m, dtype=complex) if start is None else start.copy()
    u = buffer.reshape([2] * m + [-1])
    for gate in gates:
        u = _apply(u, gate, buffer)
    return u.reshape(buffer.shape)


def to_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^m x 2^m operator of the circuit, gates in step order."""
    m = circuit.num_qubits
    if m > UNITARY_MAX_QUBITS:
        raise SimulationError(f"to_unitary capped at {UNITARY_MAX_QUBITS} qubits, got {m}")
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
