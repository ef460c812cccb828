import numpy as np
import pytest

from qformula import (
    Gate,
    apply_gate,
    build_circuit,
    constant,
    evaluate,
    probability_vector,
    run,
    to_unitary,
    variable,
)
from qformula.gates import CNOT, H, X, random_unitary
from qformula.samples import formula_example, toffoli_and_circuit
from qformula.simulator import SimulationError, embed_gate, initial_state


def test_hadamard_on_zero():
    state = apply_gate(np.array([1, 0], dtype=complex), Gate(1, (0,), H))
    assert np.allclose(state, np.array([1, 1]) / np.sqrt(2))


def test_x_on_second_qubit_of_00():
    state = apply_gate(np.array([1, 0, 0, 0], dtype=complex), Gate(1, (1,), X))
    expected = np.zeros(4)
    expected[0b01] = 1  # qubit 0 is the most significant bit
    assert np.allclose(state, expected)


def test_apply_gate_matches_embedded_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = random_unitary(4, rng)
        targets = tuple(rng.choice(3, size=2, replace=False).astype(int))
        gate = Gate(1, targets, u)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        direct = apply_gate(state, gate)
        oracle = embed_gate(gate, 3) @ state
        assert np.max(np.abs(direct - oracle)) <= 1e-12


def test_not_gate_circuit():
    c = build_circuit(1, [variable(1)], [((0,), X)], output_qubit=0)
    _, outcome = run(c, [0])
    assert outcome.p1 == pytest.approx(1.0, abs=1e-12)
    _, outcome = run(c, [1])
    assert outcome.p1 == pytest.approx(0.0, abs=1e-12)


def test_empty_circuit_constant_output():
    c = build_circuit(1, [constant(1)], [], output_qubit=0)
    _, outcome = run(c, [])
    assert outcome.p1 == 1.0


def test_toffoli_computes_and_exactly():
    c = toffoli_and_circuit()
    for x1 in (0, 1):
        for x2 in (0, 1):
            _, outcome = run(c, [x1, x2])
            assert outcome.p1 == float(x1 & x2)


def test_initial_state_uses_labels_and_assignment():
    c = build_circuit(
        3, [variable(1), constant(1), variable(2)], [], output_qubit=0
    )
    state = initial_state(c, [1, 0])
    assert state[0b110] == 1.0


def test_run_rejects_wrong_assignment_length():
    c = build_circuit(1, [variable(1)], [], output_qubit=0)
    with pytest.raises(SimulationError, match="assignment length"):
        run(c, [0, 1])


def test_norm_decomposition_sums_to_one():
    rng = np.random.default_rng(12)
    c = build_circuit(
        3,
        [variable(1), constant(0), constant(1)],
        [((0, 1), random_unitary(4, rng)), ((1, 2), random_unitary(4, rng))],
        output_qubit=1,
    )
    _, outcome = run(c, [1])
    assert outcome.norm0_sq + outcome.norm1_sq == pytest.approx(1.0, abs=1e-10)
    assert 0.0 <= outcome.p1 <= 1.0


def test_evaluate_toffoli_against_and_table():
    verdict = evaluate(toffoli_and_circuit(), [0, 0, 0, 1])
    assert verdict.computes


def test_evaluate_hadamard_is_undetermined():
    c = build_circuit(1, [variable(1)], [((0,), H)], output_qubit=0)
    verdict = evaluate(c, [0, 1])
    assert verdict.status == "undetermined"
    assert verdict.alpha == (0,)
    assert verdict.p == pytest.approx(0.5, abs=1e-12)


def test_evaluate_x_fails_identity_table():
    c = build_circuit(1, [variable(1)], [((0,), X)], output_qubit=0)
    verdict = evaluate(c, [0, 1])
    assert verdict.status == "fails"
    assert verdict.alpha == (0,)
    assert verdict.p == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("table, message", [
    ([0, 0, 1], "truth table has 3 entries, expected 4"),
    ([0, 0, 0, 0, 0, 0, 0, 1], "truth table has 8 entries, expected 4"),
    ([0, 0, 2, 1], "entries must be 0/1"),
    ([0, 0, 0.5, 1], "entries must be 0/1"),
])
def test_evaluate_rejects_a_malformed_table(table, message):
    with pytest.raises(SimulationError, match=message):
        evaluate(toffoli_and_circuit(), table)


def test_stepwise_simulation_matches_full_operator():
    c = formula_example()
    full = to_unitary(c)
    oracle = np.eye(16, dtype=complex)
    for gate in c.gates:
        oracle = embed_gate(gate, 4) @ oracle
    assert np.max(np.abs(full - oracle)) <= 1e-10
    for alpha in range(4):
        bits = [(alpha >> 1) & 1, alpha & 1]
        state, _ = run(c, bits)
        assert np.max(np.abs(state - oracle @ initial_state(c, bits))) <= 1e-10
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-10


def test_probability_vector_indexing():
    c = build_circuit(
        2, [variable(1), variable(2)], [((0, 1), CNOT)], output_qubit=1
    )
    # output reads x1 xor x2; index order has x1 as the most significant bit
    assert np.allclose(probability_vector(c), [0, 1, 1, 0])


def test_determinism_bit_identical():
    rng = np.random.default_rng(13)
    c = build_circuit(
        2, [variable(1), constant(0)], [((0, 1), random_unitary(4, rng))], output_qubit=1
    )
    a, _ = run(c, [1])
    b, _ = run(c, [1])
    assert np.array_equal(a, b)


def test_qubit_cap_enforced(monkeypatch):
    c = build_circuit(3, [variable(1), constant(0), constant(0)], [], output_qubit=0)
    monkeypatch.setattr("qformula.simulator.MAX_QUBITS", 2)
    with pytest.raises(SimulationError, match="cap"):
        run(c, [0])


def test_to_unitary_reads_its_cap(monkeypatch):
    c = build_circuit(3, [variable(1), constant(0), constant(0)], [], output_qubit=0)
    assert np.array_equal(to_unitary(c), np.eye(8))
    monkeypatch.setattr("qformula.simulator.UNITARY_MAX_QUBITS", 2)
    with pytest.raises(SimulationError, match="to_unitary capped at 2 qubits, got 3"):
        to_unitary(c)


def test_apply_gate_takes_its_line_count_from_the_state():
    with pytest.raises(SimulationError, match=r"state size 3 is not 2\^1"):
        apply_gate(np.ones(3), Gate(1, (0,), X))
    with pytest.raises(SimulationError, match=r"gate targets \(2,\) exceed 2 qubits"):
        apply_gate(np.ones(4), Gate(1, (2,), X))
    with pytest.raises(SimulationError, match="^state is empty$"):
        apply_gate(np.ones(0), Gate(1, (0,), X))


def test_apply_gate_rejects_repeated_targets():
    with pytest.raises(SimulationError, match=r"gate targets \(1, 1\) repeat a line"):
        apply_gate(np.ones(8) / np.sqrt(8), Gate(1, (1, 1), CNOT))
