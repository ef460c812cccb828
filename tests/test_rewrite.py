from dataclasses import replace

import numpy as np
import pytest

from qformula import (
    CompanionSet,
    NotAFormulaError,
    PathSegment,
    StructuralError,
    is_formula,
    build_circuit,
    orthonormalize,
    build_composite_gate,
    constant,
    decompose_disjoint,
    evaluate,
    path_segments,
    path_sets,
    postpone,
    probability_vector,
    restrict,
    squeeze_all,
    squeeze_path,
    to_unitary,
    variable,
)
from qformula.analysis import Hop
from qformula.circuit import Circuit, Gate
from qformula.gates import CNOT, X, random_unitary
from qformula.rewrite import NumericalError, VerificationError
from qformula.samples import (
    nonformula_example,
    random_formula,
    toffoli_and_circuit,
    two_path_example,
)
from qformula.simulator import apply_gate

I4 = np.eye(4, dtype=complex)


# ---------------------------------------------------------------------------
# restrict


def test_restrict_and_circuit_to_x1():
    c = toffoli_and_circuit()
    fixed = restrict(c, {1}, {2: 1})
    assert np.allclose(probability_vector(fixed), [0, 1])


def test_restrict_and_circuit_to_constant_zero():
    c = toffoli_and_circuit()
    fixed = restrict(c, {1}, {2: 0})
    assert np.allclose(probability_vector(fixed), [0, 0])


def test_restrict_everything_yields_constant_circuit():
    c = toffoli_and_circuit()
    fixed = restrict(c, set(), {1: 1, 2: 1})
    assert fixed.num_variables == 0
    assert np.allclose(probability_vector(fixed), [1.0])


def test_restrict_renumbers_block_variables():
    c = build_circuit(
        2, [variable(1), variable(2)], [((0, 1), CNOT)], output_qubit=1
    )
    fixed = restrict(c, {2}, {1: 0})
    assert fixed.labels[1].var == 1 and fixed.labels[0].const == 0
    assert np.allclose(probability_vector(fixed), [0, 1])


def test_restrict_requires_total_assignment():
    c = toffoli_and_circuit()
    with pytest.raises(ValueError, match="missing"):
        restrict(c, {1}, {})


def test_restrict_rejects_non_formulas():
    with pytest.raises(NotAFormulaError):
        restrict(nonformula_example(), {1}, {2: 0})


# ---------------------------------------------------------------------------
# disjoint decomposition


def _run_gates(state, gates, width):
    for g in gates:
        state = apply_gate(state, g, width)
    return state


def test_decompose_alternating_blocks():
    rng = np.random.default_rng(21)
    gates = [
        Gate(1, (0, 1), random_unitary(4, rng)),
        Gate(2, (3, 4), random_unitary(4, rng)),
        Gate(3, (1, 2), random_unitary(4, rng)),
        Gate(4, (4, 5), random_unitary(4, rng)),
        Gate(5, (0, 2), random_unitary(4, rng)),
    ]
    c1, c2 = decompose_disjoint(gates, [0, 1, 2], [3, 4, 5])
    assert [g.targets for g in c1] == [(0, 1), (1, 2), (0, 2)]
    assert [g.targets for g in c2] == [(3, 4), (4, 5)]
    state = rng.normal(size=64) + 1j * rng.normal(size=64)
    state /= np.linalg.norm(state)  # entangled across the cut
    reference = _run_gates(state, gates, 6)
    assert np.max(np.abs(reference - _run_gates(_run_gates(state, c1, 6), c2, 6))) <= 1e-10
    assert np.max(np.abs(reference - _run_gates(_run_gates(state, c2, 6), c1, 6))) <= 1e-10


def test_decompose_with_one_empty_side():
    gates = [Gate(1, (0, 1), I4)]
    c1, c2 = decompose_disjoint(gates, [0, 1], [2])
    assert len(c1) == 1 and c2 == ()


def test_decompose_rejects_straddling_gate():
    gates = [Gate(1, (1, 2), I4)]
    with pytest.raises(StructuralError, match="straddles"):
        decompose_disjoint(gates, [0, 1], [2, 3])


# ---------------------------------------------------------------------------
# postponement


def _chain_window(circuit):
    """The gates on line 0 as a path segment that ends at the output,
    with line 1 as its second head input and every other line a companion."""
    chain = [g for g in circuit.gates if 0 in g.targets]
    segment = PathSegment(0, tuple(Hop(g, 0, 0) for g in chain), ends_at_output=True)
    companions = CompanionSet(
        frozenset(range(2, circuit.num_qubits)), q0=0, q1=1, q2=None,
        j0=chain[0].step, j1=len(circuit.gates) + 1,
    )
    return segment, companions


def _postponed_circuit(circuit, postponed):
    """The circuit with ``postponed`` moved directly behind its last gate on line 0."""
    last = max(g.step for g in circuit.gates if 0 in g.targets)
    moved = {g.step for g in postponed}
    stay = [g for g in circuit.gates if g.step not in moved]
    order = ([g for g in stay if g.step <= last] + list(postponed)
             + [g for g in stay if g.step > last])
    return build_circuit(circuit.num_qubits, circuit.labels,
                         [(g.targets, g.matrix) for g in order], circuit.output_qubit)


def _postpone_instance():
    rng = np.random.default_rng(22)
    # chain on line 0 with partners 1 and 2; the gate on (1, 3) trails partner 1
    return build_circuit(
        4,
        [constant(0)] * 4,
        [
            ((0, 1), random_unitary(4, rng)),
            ((1, 3), random_unitary(4, rng)),
            ((0, 2), random_unitary(4, rng)),
        ],
        output_qubit=0,
    )


def test_postpone_moves_trailing_gate_behind_chain():
    c = _postpone_instance()
    preps, postponed = postpone(c, *_chain_window(c))
    assert preps == [] and [g.step for g in postponed] == [2]
    moved = _postponed_circuit(c, postponed)
    assert [g.targets for g in moved.gates] == [(0, 1), (0, 2), (1, 3)]
    assert np.max(np.abs(to_unitary(c) - to_unitary(moved))) <= 1e-10


def test_postpone_single_gate_chain_is_identity():
    rng = np.random.default_rng(23)
    # the gate on (1, 2) trails the chain's only gate: it is postponed in place
    c = build_circuit(
        3,
        [constant(0)] * 3,
        [((0, 1), random_unitary(4, rng)), ((1, 2), random_unitary(4, rng))],
        output_qubit=0,
    )
    preps, postponed = postpone(c, *_chain_window(c))
    assert preps == [] and [g.step for g in postponed] == [2]
    moved = _postponed_circuit(c, postponed)
    assert [(g.targets, g.step) for g in moved.gates] == [(g.targets, g.step) for g in c.gates]
    assert all(np.array_equal(g.matrix, h.matrix) for g, h in zip(c.gates, moved.gates))


def test_postpone_long_chain_with_entangled_partners():
    rng = np.random.default_rng(24)
    # partners 1..3 are entangled with each other before the chain starts
    c = build_circuit(
        6,
        [constant(0)] * 6,
        [
            ((1, 2), random_unitary(4, rng)),
            ((2, 3), random_unitary(4, rng)),
            ((0, 1), random_unitary(4, rng)),
            ((1, 4), random_unitary(4, rng)),
            ((0, 2), random_unitary(4, rng)),
            ((4, 5), random_unitary(4, rng)),
            ((0, 3), random_unitary(4, rng)),
        ],
        output_qubit=0,
    )
    preps, postponed = postpone(c, *_chain_window(c))
    # step 1 is the history of the head input 1; step 2 prepares companions 2 and 3
    assert [g.step for g in preps] == [2]
    assert [g.step for g in postponed] == [4, 6]
    moved = _postponed_circuit(c, postponed)
    assert np.max(np.abs(to_unitary(c) - to_unitary(moved))) <= 1e-10
    chain_positions = [i for i, g in enumerate(moved.gates) if 0 in g.targets]
    trailing = [i for i, g in enumerate(moved.gates) if g.targets in ((1, 4), (4, 5))]
    assert all(t > max(chain_positions) for t in trailing)


def test_postpone_rejects_feeding_a_future_partner():
    rng = np.random.default_rng(25)
    c = build_circuit(
        3,
        [constant(0)] * 3,
        [
            ((0, 1), random_unitary(4, rng)),
            ((1, 2), random_unitary(4, rng)),  # links consumed 1 to future partner 2
            ((0, 2), random_unitary(4, rng)),
        ],
        output_qubit=0,
    )
    with pytest.raises(StructuralError, match=r"step 2 links a consumed line .* \[2\]"):
        postpone(c, *_chain_window(c))


def test_postpone_rejects_mismatched_partners():
    c = _postpone_instance()
    segment, companions = _chain_window(c)
    # a companion set that misses line 3, which the trailing gate reaches
    with pytest.raises(StructuralError, match=r"step 2 links companion lines to \[3\]"):
        postpone(c, segment, replace(companions, qubits=frozenset({2})))
    # partners in the wrong order: line 2 named as the second head input
    with pytest.raises(StructuralError, match=r"step 2 links companion lines to \[1\]"):
        postpone(c, segment, replace(companions, q1=2))
    # a segment without the chain's second gate, which then touches the carrier
    with pytest.raises(StructuralError, match="step 3 touches the carrier line"):
        postpone(c, replace(segment, hops=segment.hops[:1]), companions)


def test_postpone_rejects_a_gate_between_two_visits_of_a_line():
    rng = np.random.default_rng(26)
    # the chain meets line 1 twice; the gate between the visits does not
    # commute past the second one, so it cannot be postponed (no formula has
    # this shape: the first chain gate reaches the second along two routes)
    c = build_circuit(
        3,
        [constant(0)] * 3,
        [
            ((0, 1), random_unitary(4, rng)),
            ((1, 2), random_unitary(4, rng)),
            ((0, 1), random_unitary(4, rng)),
        ],
        output_qubit=0,
    )
    moved = _postponed_circuit(c, [c.gates[1]])
    assert np.max(np.abs(to_unitary(c) - to_unitary(moved))) > 1e-3
    with pytest.raises(StructuralError, match=r"step 2 links a consumed line .* \[1\]"):
        postpone(c, *_chain_window(c))


# ---------------------------------------------------------------------------
# squeeze_path


def _identity_interior_circuit():
    return build_circuit(
        4,
        [variable(1), constant(0), constant(0), constant(0)],
        [((0, 1), I4), ((0, 2), I4), ((0, 3), I4)],
        output_qubit=0,
    )


def test_squeeze_identity_interior_gives_rank_one():
    c = _identity_interior_circuit()
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    record = squeeze_path(c, ps, segment)
    assert record.rank == 1
    assert np.allclose(record.basis[0], np.eye(4)[0])  # |00>
    lam = record.coefficients[..., 0]
    for a0 in (0, 1):
        for a1 in (0, 1):
            expected = np.zeros((2, 2))
            expected[a0, a1] = 1.0
            assert np.allclose(lam[a0, a1], expected, atol=1e-12)


def test_squeeze_single_cnot_interior_reconstructs_exactly():
    c = build_circuit(
        3,
        [variable(1), constant(0), constant(1)],
        [((0, 1), CNOT), ((0, 2), CNOT)],
        output_qubit=0,
    )
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    record = squeeze_path(c, ps, segment)
    rebuilt = np.tensordot(record.coefficients, record.basis, axes=([4], [0]))
    assert np.max(np.abs(rebuilt - record.vectors)) <= 1e-12


def test_squeeze_rank_bounds_with_three_companions():
    rng = np.random.default_rng(26)
    c = build_circuit(
        5,
        [variable(1), constant(0), constant(0), constant(1), constant(0)],
        [
            ((0, 1), random_unitary(4, rng)),
            ((0, 2), random_unitary(4, rng)),
            ((3, 4), random_unitary(4, rng)),
            ((0, 3), random_unitary(4, rng)),
        ],
        output_qubit=0,
    )
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    record = squeeze_path(c, ps, segment)
    assert record.num_companions == 3
    assert 1 <= record.rank <= 16
    weights = np.sum(np.abs(record.coefficients) ** 2, axis=(2, 3, 4))
    assert np.max(np.abs(weights - 1.0)) <= 1e-10


def test_squeeze_classifies_junk_gates_as_postponed():
    rng = np.random.default_rng(27)
    c = build_circuit(
        4,
        [variable(1), constant(0), constant(0), constant(0)],
        [
            ((0, 1), random_unitary(4, rng)),
            ((0, 2), random_unitary(4, rng)),
            ((2, 3), random_unitary(4, rng)),  # lands on the consumed line 2
        ],
        output_qubit=0,
    )
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    record = squeeze_path(c, ps, segment)
    assert record.postponed_steps == (3,)
    assert record.companions.qubits == frozenset({2, 3})


# ---------------------------------------------------------------------------
# composite gate construction


def _identity_record():
    c = _identity_interior_circuit()
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    return squeeze_path(c, ps, segment)


def test_composite_identity_record_fixes_specified_columns():
    gate = build_composite_gate(_identity_record())
    for a0 in (0, 1):
        for a1 in (0, 1):
            index = (a0 << 5) | (a1 << 4)
            expected = np.zeros(64)
            expected[index] = 1.0
            assert np.allclose(gate.matrix[:, index], expected, atol=1e-12)


def test_composite_completion_is_unitary():
    rng = np.random.default_rng(28)
    member = random_formula(3)
    f_rho = restrict(member.formula, member.block, member.restriction)
    ps = path_sets(f_rho, set(f_rho.variable_indices))
    segment = next(s for s in path_segments(f_rho, ps) if s.squeezable)
    record = squeeze_path(f_rho, ps, segment)
    gate = build_composite_gate(record)
    deviation = np.max(np.abs(gate.matrix.conj().T @ gate.matrix - np.eye(64)))
    assert deviation <= 1e-10
    _ = rng


def test_two_completions_give_identical_probabilities():
    c = two_path_example()
    squeezed = squeeze_all(c)
    index = squeezed.composite_steps[0] - 1
    original_gate = squeezed.circuit.gates[index]
    alternate = build_composite_gate(
        squeezed.records[0],
        step=original_gate.step,
        targets=original_gate.targets,
        candidate_order=range(63, -1, -1),
    )
    assert not np.allclose(alternate.matrix, original_gate.matrix)
    gates = list(squeezed.circuit.gates)
    gates[index] = alternate
    variant = Circuit(
        num_qubits=squeezed.circuit.num_qubits,
        labels=squeezed.circuit.labels,
        gates=tuple(gates),
        output_qubit=squeezed.circuit.output_qubit,
        arity_bound=squeezed.circuit.arity_bound,
    )
    # the unspecified columns are never excited, so both completions agree
    assert np.max(
        np.abs(probability_vector(variant) - probability_vector(squeezed.circuit))
    ) <= 1e-12


def test_every_corpus_composite_is_unitary_and_keeps_its_columns(corpus):
    checked = 0
    for member in corpus:
        f_rho = restrict(member.formula, member.block, member.restriction)
        squeezed = squeeze_all(f_rho, verify=False)
        for step, record in zip(squeezed.composite_steps, squeezed.records):
            u = squeezed.circuit.gates[step - 1].matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(64))) <= 1e-10
            for a0 in (0, 1):
                for a1 in (0, 1):
                    column = u[:, (a0 << 5) | (a1 << 4)].reshape(2, 2, 16)
                    assert np.array_equal(column[..., : record.rank], record.coefficients[a0, a1])
                    assert not np.any(column[..., record.rank :])
            checked += 1
    assert checked > 0


def test_squeeze_path_rank_basis_and_margin_match_orthonormalize(corpus):
    # squeeze_path takes the Gram-Schmidt scale and the borderline margin
    # from one SVD; orthonormalize (spectral norm) and a second SVD agree
    for member in corpus:
        f_rho = restrict(member.formula, member.block, member.restriction)
        for record in squeeze_all(f_rho, verify=False).records:
            flat = record.vectors.reshape(16, -1)
            basis, rank = orthonormalize(list(flat), tol=1e-9)
            assert rank == record.rank
            assert np.array_equal(np.array(basis), record.basis)
            sing = np.linalg.svd(flat, compute_uv=False)
            threshold = 1e-9 * np.linalg.norm(flat, 2)
            assert record.borderline_rank == bool(
                np.any((sing > threshold / 10) & (sing < threshold * 10))
            )


def test_borderline_rank_flags_a_singular_value_near_the_threshold():
    # two_path_example's segments have smallest kept singular values 0.163
    # and 0.397 against largest 1.42 and 1.57: within 10x of 5% of the largest
    assert not any(r.borderline_rank for r in squeeze_all(two_path_example()).records)
    records = squeeze_all(two_path_example(), rank_tol=0.05, verify=False).records
    assert [(r.rank, r.borderline_rank) for r in records] == [(4, True), (4, True)]


@pytest.mark.parametrize(
    "order",
    [range(63), [0] * 64, range(1, 65), np.arange(64.0), np.arange(64).reshape(8, 8)],
    ids=["short", "repeated", "out-of-range", "float", "2d"],
)
def test_candidate_order_must_be_a_permutation(order):
    record = squeeze_all(two_path_example(), verify=False).records[0]
    with pytest.raises(NumericalError, match="permutation"):
        build_composite_gate(record, candidate_order=order)


# ---------------------------------------------------------------------------
# squeeze_all


def test_squeeze_all_leaves_unsqueezable_formula_unchanged():
    c = build_circuit(
        2, [variable(1), variable(1)], [((0, 1), CNOT)], output_qubit=0
    )
    squeezed = squeeze_all(c)
    assert squeezed.records == ()
    assert [g.targets for g in squeezed.circuit.gates] == [(0, 1)]
    assert squeezed.max_deviation == 0.0


def test_squeeze_all_two_path_example():
    c = two_path_example()
    squeezed = squeeze_all(c)
    assert [r.num_companions for r in squeezed.records] == [2, 3]
    assert squeezed.gate_count == 2 <= 4 * squeezed.s_j + 1
    assert squeezed.max_deviation <= 1e-9
    assert squeezed.circuit.arity_bound == 6


def test_squeeze_all_drops_companion_lines_and_adds_fresh_ones():
    c = two_path_example()
    squeezed = squeeze_all(c)
    # kept: both wires and the first partner; plus 4 fresh lines per record
    assert squeezed.circuit.num_qubits == 3 + 8
    kept_old = [old for old, _ in squeezed.qubit_map]
    assert kept_old == [0, 1, 4]


def test_squeeze_topology_identical_across_restrictions():
    rng = np.random.default_rng(29)
    formula = build_circuit(
        3,
        [variable(1), constant(0), variable(2)],
        [((0, 1), random_unitary(4, rng)), ((0, 2), random_unitary(4, rng))],
        output_qubit=0,
    )
    variants = []
    for bit in (0, 1):
        f = restrict(formula, {1}, {2: bit})
        variants.append(squeeze_all(f))
    a, b = variants
    assert [(g.step, g.targets) for g in a.circuit.gates] == [
        (g.step, g.targets) for g in b.circuit.gates
    ]
    assert a.circuit.labels == b.circuit.labels
    composites = set(a.composite_steps)
    for ga, gb in zip(a.circuit.gates, b.circuit.gates):
        if ga.step in composites:
            assert not np.allclose(ga.matrix, gb.matrix)
        else:
            assert np.array_equal(ga.matrix, gb.matrix)


def test_squeeze_verdicts_match_on_threshold_tables(corpus):
    for member in corpus[:12]:
        f_rho = restrict(member.formula, member.block, member.restriction)
        squeezed = squeeze_all(f_rho)
        p = probability_vector(f_rho)
        for table in ((p > 0.5).astype(int), (p <= 0.5).astype(int)):
            before = evaluate(f_rho, table)
            after = evaluate(squeezed.circuit, table)
            assert (before.status, before.alpha) == (after.status, after.alpha)
            if before.p is not None:
                assert abs(before.p - after.p) <= 1e-9


def test_verify_squeeze_raises_on_tampered_circuit():
    c = two_path_example()
    squeezed = squeeze_all(c, verify=False)
    gates = list(squeezed.circuit.gates)
    gates[0] = Gate(gates[0].step, gates[0].targets, np.kron(X, np.eye(32)))
    broken = Circuit(
        num_qubits=squeezed.circuit.num_qubits,
        labels=squeezed.circuit.labels,
        gates=tuple(gates),
        output_qubit=squeezed.circuit.output_qubit,
        arity_bound=squeezed.circuit.arity_bound,
    )
    with pytest.raises(VerificationError):
        from qformula import verify_squeeze

        verify_squeeze(c, broken)


def test_squeeze_all_rejects_non_formulas():
    with pytest.raises(NotAFormulaError):
        squeeze_all(nonformula_example().relabel(
            [variable(1), constant(0), constant(0), variable(1)]
        ))


def test_consumed_lines_cannot_feed_back_in_a_formula():
    # a consumed partner line returning to the path reconverges the
    # computation graph, so the circuit is not a formula in the first
    # place: the tree property is what makes postponement sound
    rng = np.random.default_rng(33)
    c = build_circuit(
        4,
        [variable(1), constant(0), constant(0), constant(0)],
        [
            ((0, 1), random_unitary(4, rng)),
            ((0, 2), random_unitary(4, rng)),
            ((2, 3), random_unitary(4, rng)),
            ((0, 3), random_unitary(4, rng)),
        ],
        output_qubit=0,
    )
    assert not is_formula(c)
    with pytest.raises(NotAFormulaError):
        path_sets(c, {1})


def test_spectator_junk_chain_is_postponed_and_sound():
    rng = np.random.default_rng(35)
    # the junk chain (2,3) then (3,4) never returns to the path: both
    # gates drop, and the second one is reached through the taint of
    # the first rather than through a consumed line directly
    c = build_circuit(
        5,
        [variable(1), constant(0), constant(0), constant(0), constant(1)],
        [
            ((0, 1), random_unitary(4, rng)),
            ((0, 2), random_unitary(4, rng)),
            ((2, 3), random_unitary(4, rng)),
            ((3, 4), random_unitary(4, rng)),
        ],
        output_qubit=0,
    )
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    record = squeeze_path(c, ps, segment)
    assert record.postponed_steps == (3, 4)
    assert record.companions.qubits == frozenset({2, 3, 4})
    squeezed = squeeze_all(c)  # verification at 1e-9 runs inside
    assert squeezed.max_deviation <= 1e-9


def test_squeeze_q1_can_be_a_restricted_variable_wire():
    rng = np.random.default_rng(36)
    formula = build_circuit(
        3,
        [variable(1), variable(2), constant(0)],
        [((0, 1), random_unitary(4, rng)), ((0, 2), random_unitary(4, rng))],
        output_qubit=0,
    )
    f_rho = restrict(formula, {1}, {2: 1})
    squeezed = squeeze_all(f_rho)
    assert len(squeezed.records) == 1
    assert squeezed.max_deviation <= 1e-9


def test_squeeze_rejects_wide_first_gate():
    from qformula.samples import formula_example

    with pytest.raises(StructuralError, match="two lines"):
        squeeze_all(formula_example())
