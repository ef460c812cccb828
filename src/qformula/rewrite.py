"""Verified circuit transformations.

Three rewrites, each preserving acceptance probabilities:

* ``restrict`` pins every variable outside a block to a constant,
  producing the circuit of a subfunction.
* ``decompose_disjoint`` splits a subcircuit whose gates act on two
  disjoint qubit sets into two independently composable halves.
* ``squeeze_all`` compresses every squeezable segment of a formula's
  block paths: the segment's gates, the preparation of its constant
  companion lines, and the junk gates on already-consumed lines are
  replaced by one six-qubit composite gate acting on the two head lines
  plus four fresh |0> qubits.  The companion lines disappear from the
  circuit.  Acceptance probabilities agree with the original within
  1e-9 for every block assignment, which ``verify_squeeze`` checks by
  exhaustive simulation.

``postpone`` is the rule that sorts a segment's window into companion
preparation and junk: a gate on a line the path has already consumed
moves behind the segment, so squeezing can drop it.  ``squeeze_path``
runs it, and the lemma sweep ``verification.sweep_postponement``
checks it.

The composite gate realizes the segment's action in an SVD basis of
the at-most-16 states the companion register can reach; the other
columns come from one QR factorization and are never excited.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from .analysis import (
    CompanionSet,
    PathSegment,
    StructuralError,
    companion_set_of_path,
    computation_graph,
    is_formula,
    NotAFormulaError,
    path_segments,
    path_sets,
)
from .circuit import DEFAULT_RANK_TOL, UNITARY_TOL, Circuit, Gate, InputLabel, Record, constant, variable
from .simulator import final_states, probability_vector

RECONSTRUCTION_TOL = 1e-10
ISOMETRY_TOL = 1e-9
SQUEEZE_TOL = 1e-9
COMPOSITE_ARITY = 6
FRESH_QUBITS = 4


class NumericalError(ArithmeticError):
    """A numerical invariant of the rewrite failed beyond tolerance."""


class VerificationError(AssertionError):
    """A rewrite changed an acceptance probability beyond tolerance."""


# ---------------------------------------------------------------------------
# restriction


def restrict(formula: Circuit, block, rho: Mapping[int, int]) -> Circuit:
    """Fix every variable outside ``block`` to the bit given by ``rho``,
    which names no other variable; ``block`` names only variables the
    formula uses.

    The remaining block variables are renumbered 1..k in ascending
    original order so the result is a self-contained circuit computing
    the subfunction.  The gates are the formula's own objects, so their
    kept deviations carry over.
    """
    if not is_formula(formula):
        raise NotAFormulaError("restrict expects a formula")
    block = frozenset(int(j) for j in block)
    used = set(formula.variable_indices)
    unused = block - used
    if unused:
        raise ValueError(f"block names variables the formula does not use: {sorted(unused)}")
    outside = used - block
    missing = outside - set(rho)
    if missing:
        raise ValueError(f"restriction must assign every outside variable; missing {sorted(missing)}")
    stray = set(rho) - outside
    if stray:
        raise ValueError(f"restriction may assign only outside variables of the formula; got {sorted(stray)}")
    bad = [v for v in rho if rho[v] not in (0, 1)]
    if bad:
        raise ValueError(f"restriction values must be bits; got {[(v, rho[v]) for v in bad]}")
    renumber = {old: i + 1 for i, old in enumerate(sorted(used & block))}
    labels = []
    for lb in formula.labels:
        if lb.var is None:
            labels.append(lb)
        elif lb.var in block:
            labels.append(variable(renumber[lb.var]))
        else:
            labels.append(constant(int(rho[lb.var])))
    return formula.relabel(labels)


# ---------------------------------------------------------------------------
# disjoint decomposition (lemma-style commuting split)


def decompose_disjoint(
    gates: Sequence[Gate], q1: Sequence[int], q2: Sequence[int]
) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """Split a gate list into the gates on q1 and the gates on q2.

    Every gate must act wholly inside one of the two disjoint sets; the
    two returned lists keep their internal order and are re-stepped as
    standalone subcircuits.  Applying them in either order reproduces
    the original interleaved subcircuit on any input state.
    """
    s1, s2 = set(q1), set(q2)
    if s1 & s2:
        raise ValueError(f"qubit sets overlap: {sorted(s1 & s2)}")
    c1, c2 = [], []
    for gate in sorted(gates, key=lambda g: g.step):
        targets = set(gate.targets)
        if targets <= s1:
            c1.append(gate)
        elif targets <= s2:
            c2.append(gate)
        else:
            raise StructuralError(
                f"gate at step {gate.step} straddles the two qubit sets: {gate.targets}"
            )
    restep = lambda gs: tuple(g.moved(i + 1, g.targets) for i, g in enumerate(gs))
    return restep(c1), restep(c2)


# ---------------------------------------------------------------------------
# path squeezing


class SqueezeRecord(Record):
    """Everything extracted from one squeezable segment.

    ``vectors[a0, a1, c0, c1]`` is the companion-register state produced
    by running the companion preparation plus the segment's inner gates
    from head inputs |a0>|a1>, decomposed on the two head lines.
    ``basis`` holds their leading right singular vectors (rank 1..16),
    phased so each one's largest entry (the first on ties) is real and
    positive; ``coefficients`` holds the expansion <basis_j|vector>,
    indexed [a0, a1, c0, c1, j].  ``prep_steps`` and ``postponed_steps``
    are the steps of the two gate lists that ``postpone`` returns: the
    postponed gates touch no line the segment still needs, move behind
    it, and are dropped by the rewrite together with the companion lines.
    """

    segment: PathSegment
    companions: CompanionSet
    vectors: np.ndarray
    basis: np.ndarray
    coefficients: np.ndarray
    rank: int
    prep_steps: tuple[int, ...]
    postponed_steps: tuple[int, ...]
    borderline_rank: bool

    @property
    def num_companions(self) -> int:
        return self.companions.size


def postpone(
    circuit: Circuit, segment: PathSegment, companions: CompanionSet
) -> tuple[list[Gate], list[Gate]]:
    """The postponement rule: split the non-segment gates before the
    segment's terminator into preparation gates and postponed gates.

    A line is tainted once the path consumes it (a non-carrier input of
    an inner hop) or a postponed gate touches it.  A gate on a tainted
    line is postponed: it touches neither the carrier nor a line the path
    has yet to consume, so it moves behind the segment's last gate without
    changing the circuit's operator, which
    ``verification.sweep_postponement`` checks.
    The other gates on the companion lines prepare them.  Gates before
    the segment on its two head lines are neither: their effect reaches
    the record through its basis inputs.

    Raises StructuralError when a gate touches the carrier inside the
    segment, links a companion line to a line outside the companions, or
    links a tainted line to one the path still has to consume (its
    effect would flow back into the path, which the record cannot
    represent).  Both lists are in step order.
    """
    cs = companions
    inner = segment.inner_hops
    segment_steps = {h.step for h in segment.hops}
    consumed_at = {h.step: set(h.gate.targets) - {cs.q0} for h in inner}
    pool = set(cs.qubits) | {cs.q1}
    tainted: set[int] = set()
    preps: list[Gate] = []
    postponed: list[Gate] = []
    for gate in circuit.gates:
        if gate.step >= cs.j1:
            break
        if gate.step in segment_steps:
            tainted |= consumed_at.get(gate.step, set())
            continue
        targets = set(gate.targets)
        if not targets & (pool | {cs.q0}):
            continue
        if cs.q0 in targets or (cs.q1 in targets and gate.step < cs.j0):
            if gate.step < cs.j0:
                continue  # history of the head inputs, summarized by the record's basis inputs
            raise StructuralError(
                f"gate at step {gate.step} touches the carrier line inside the segment"
            )
        if not targets <= pool:
            raise StructuralError(
                f"gate at step {gate.step} links companion lines to {sorted(targets - pool)}"
            )
        if targets & tainted:
            future = set().union(*(consumed_at[h.step] for h in inner if h.step > gate.step))
            if targets & future:
                raise StructuralError(
                    f"gate at step {gate.step} links a consumed line to the future "
                    f"partner(s) {sorted(targets & future)}"
                )
            postponed.append(gate)
            tainted |= targets
        else:
            preps.append(gate)
    return preps, postponed


def squeeze_path(circuit: Circuit, segment: PathSegment, companions: CompanionSet) -> SqueezeRecord:
    """Simulate a segment's action and factor it over an orthonormal
    basis of the companion register, ``companions`` being the segment's
    ``companion_set_of_path``.

    Runs the companion preparation plus the segment's inner gates from
    the four basis inputs on the two head lines as one batch (companion
    lines start at their constant labels), splits the results on the head
    lines, and factors the 16 companion vectors by one SVD (the rank
    counts singular values above ``DEFAULT_RANK_TOL`` times the largest).
    The expansion is verified to reconstruct the vectors within 1e-10 and
    to be an isometry on the four inputs.
    """
    cs = companions
    if not segment.squeezable:
        raise StructuralError("segment has no gates strictly inside; nothing to squeeze")
    for c in cs.qubits:
        if circuit.labels[c].is_variable:
            raise StructuralError(f"companion line {c} is not a constant input")
    preps, postponed = postpone(circuit, segment, cs)

    order = tuple(sorted(cs.qubits))
    v = len(order)
    local = {cs.q0: 0, cs.q1: 1, **{c: i + 2 for i, c in enumerate(order)}}
    width = 2 + v
    sim_gates = sorted(
        list(preps) + [h.gate for h in segment.inner_hops], key=lambda g: g.step
    )
    # the four head inputs (a0, a1) are the assignments of a two-variable
    # circuit on the local lines, simulated as one batch
    local_circuit = Circuit(
        num_qubits=width,
        labels=(variable(1), variable(2), *(circuit.labels[c] for c in order)),
        gates=tuple(g.moved(g.step, [local[t] for t in g.targets]) for g in sim_gates),
        output_qubit=0,
    )
    vectors = np.moveaxis(final_states(local_circuit, 0, 4), -1, 0).reshape(2, 2, 2, 2, 2 ** v)

    flat = vectors.reshape(16, 2 ** v)
    # one SVD gives the rank, the basis, the coefficients and the margin
    left, sing, right = np.linalg.svd(flat, full_matrices=False)
    threshold = DEFAULT_RANK_TOL * sing[0]
    rank = int(np.count_nonzero(sing > threshold))  # rank 0 fails a check below
    # each basis vector's largest entry (the first on ties) is real and positive
    peaks = right[np.arange(rank), np.argmax(np.abs(right[:rank]), axis=1)]
    phases = peaks / np.abs(peaks)
    basis = right[:rank] * phases.conj()[:, None]
    coeffs = (left[:, :rank] * (sing[:rank] * phases)).reshape(2, 2, 2, 2, rank)

    rebuilt = np.tensordot(coeffs, basis, axes=([4], [0]))
    residual = float(np.max(np.abs(rebuilt - vectors)))
    if residual > RECONSTRUCTION_TOL:
        raise NumericalError(f"basis reconstruction residual {residual:.3e}")
    weights = np.sum(np.abs(coeffs) ** 2, axis=(2, 3, 4))
    if float(np.max(np.abs(weights - 1.0))) > RECONSTRUCTION_TOL:
        raise NumericalError("expansion is not an isometry on the head inputs")

    borderline = bool(np.any((sing > threshold / 10) & (sing < threshold * 10)))

    return SqueezeRecord(
        segment=segment,
        companions=cs,
        vectors=vectors,
        basis=basis,
        coefficients=coeffs,
        rank=rank,
        prep_steps=tuple(g.step for g in preps),
        postponed_steps=tuple(g.step for g in postponed),
        borderline_rank=borderline,
    )


def build_composite_gate(
    record: SqueezeRecord, targets: Sequence[int] = range(COMPOSITE_ARITY)
) -> Gate:
    """Turn a squeeze record into one six-qubit gate on ``targets``.

    The four columns indexed |a0 a1 0000> map to
    sum_{c0 c1 j} coeff[a0,a1,c0,c1,j] |c0 c1>|j>, with the basis index
    j written in binary on the four fresh qubits.  The 60 unspecified
    columns are the orthogonal complement of those four, taken from one
    complete QR factorization; any other completion yields the same
    acceptance probabilities, because those columns are never excited.
    """
    dim = 2 ** COMPOSITE_ARITY
    padded = np.zeros((4, 2, 2, 2 ** FRESH_QUBITS), dtype=complex)
    padded[..., : record.rank] = record.coefficients.reshape(4, 2, 2, record.rank)
    columns = padded.reshape(4, dim).T  # column a0a1 holds |c0 c1>|j> at row c0c1j

    gram = columns.conj().T @ columns
    if float(np.max(np.abs(gram - np.eye(4)))) > ISOMETRY_TOL:
        raise NumericalError("coefficient columns fail the isometry check")

    q, _ = np.linalg.qr(columns, mode="complete")
    # column (a0a1 << 4) | j of u is the specified column a0a1 at j = 0, else a free one
    u = np.concatenate([columns[:, :, None], q[:, 4:].reshape(dim, 4, -1)], axis=2)
    gate = Gate(step=1, targets=tuple(targets), matrix=u.reshape(dim, dim))
    if gate.deviation > UNITARY_TOL:  # kept on the gate, which squeeze_all moves
        raise NumericalError(f"completed gate deviates from unitarity by {gate.deviation:.3e}")
    return gate


class SqueezedCircuit(Record):
    """The compressed circuit plus bookkeeping for every rewrite step."""

    circuit: Circuit
    block: frozenset[int]
    s_j: int
    records: tuple[SqueezeRecord, ...]
    composite_steps: tuple[int, ...]
    skipped_segments: tuple[PathSegment, ...]
    qubit_map: tuple[tuple[int, int], ...]  # (old line, new line) for kept lines
    pruned_steps: tuple[int, ...]
    max_deviation: float | None

    @property
    def gate_count(self) -> int:
        return len(self.circuit.gates)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(r.rank for r in self.records)


def squeeze_all(
    f_rho: Circuit,
    block=None,
    *,
    verify: bool = True,
    tol: float = SQUEEZE_TOL,
) -> SqueezedCircuit:
    """Squeeze every eligible segment of the block's paths.

    Segments are processed in the natural order (last gate ascending).
    For each squeezed segment the companion lines are removed and four
    fresh |0> lines appear at the end of the qubit list; segments with
    no companions or with nothing strictly inside keep their original
    gates.  Gates outside the computation graph never influence the
    output line and are pruned.  The output's gates are the kept input
    gates and the composite gates, re-stepped with ``Gate.moved``, so
    they keep the deviations that checking the input and completing the
    composites computed: the output's ``check()`` re-checks its wiring
    and labels but needs no unitarity product.  With ``verify`` the acceptance
    probabilities of input and output circuits are compared on every
    block assignment and a deviation beyond ``tol`` raises.
    """
    f_rho.check()
    if block is None:
        block = set(f_rho.variable_indices)
    block = frozenset(int(j) for j in block)
    pathset = path_sets(f_rho, block)
    segments = path_segments(f_rho, pathset)
    graph = computation_graph(f_rho)
    live_steps = set(graph.gate_steps)
    pruned = tuple(g.step for g in f_rho.gates if g.step not in live_steps)

    records: list[SqueezeRecord] = []
    skipped: list[PathSegment] = []
    for segment in segments:
        cs = companion_set_of_path(f_rho, pathset, segment) if segment.squeezable else None
        if cs is None or cs.size == 0:
            skipped.append(segment)
        else:
            records.append(squeeze_path(f_rho, segment, cs))

    used: set[int] = set()
    deleted_steps: set[int] = set(pruned)
    for rec in records:
        mine = set(rec.companions.qubits)
        if mine & used:
            raise StructuralError(
                f"companion sets of two segments overlap on lines {sorted(mine & used)}"
            )
        used |= mine
        deleted_steps.update(h.step for h in rec.segment.inner_hops)
        deleted_steps.update(rec.prep_steps + rec.postponed_steps)

    kept_lines = [q for q in range(f_rho.num_qubits) if q not in used]
    line_map = {old: new for new, old in enumerate(kept_lines)}
    labels: list[InputLabel] = [f_rho.labels[q] for q in kept_lines]
    entries = [
        (g.step, g, [line_map[t] for t in g.targets])
        for g in f_rho.gates if g.step not in deleted_steps
    ]
    # each composite gate acts on its head lines and four fresh |0> lines
    for i, rec in enumerate(records):
        cs, fresh = rec.companions, len(kept_lines) + FRESH_QUBITS * i
        gate = build_composite_gate(
            rec, (line_map[cs.q0], line_map[cs.q1], *range(fresh, fresh + FRESH_QUBITS))
        )
        entries.append((cs.j0, gate, gate.targets))
    labels.extend([constant(0)] * (FRESH_QUBITS * len(records)))

    entries.sort(key=lambda e: e[0])
    gates = tuple(g.moved(i + 1, targets) for i, (_, g, targets) in enumerate(entries))
    key_to_step = {key: i + 1 for i, (key, _, _) in enumerate(entries)}
    arity = max([f_rho.arity_bound] + [COMPOSITE_ARITY] * (1 if records else 0))
    circuit = Circuit(
        num_qubits=len(labels),
        labels=tuple(labels),
        gates=gates,
        output_qubit=line_map[f_rho.output_qubit],
        arity_bound=arity,
    )
    circuit.check()

    result = SqueezedCircuit(
        circuit=circuit,
        block=block,
        s_j=pathset.s_j,
        records=tuple(records),
        composite_steps=tuple(key_to_step[rec.companions.j0] for rec in records),
        skipped_segments=tuple(skipped),
        qubit_map=tuple((old, line_map[old]) for old in kept_lines),
        pruned_steps=pruned,
        max_deviation=None,
    )
    if verify:
        deviation = verify_squeeze(f_rho, circuit, tol=tol)
        result = replace(result, max_deviation=deviation)
    return result


def verify_squeeze(original: Circuit, squeezed: Circuit, *, tol: float = SQUEEZE_TOL) -> float:
    """Max |p_alpha difference| over all assignments; raises beyond tol (or at NaN)."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    p_orig = probability_vector(original)
    p_new = probability_vector(squeezed)
    if p_orig.shape != p_new.shape:
        raise VerificationError(
            f"variable counts differ: {original.num_variables} vs {squeezed.num_variables}"
        )
    deviation = float(np.max(np.abs(p_orig - p_new))) if p_orig.size else 0.0
    if not deviation <= tol:
        raise VerificationError(
            f"acceptance probability deviates by {deviation:.3e} (tolerance {tol:.1e})"
        )
    return deviation
