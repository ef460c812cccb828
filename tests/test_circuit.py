import numpy as np
import pytest

from qformula import (
    Circuit,
    Gate,
    InvalidCircuitError,
    build_circuit,
    constant,
    validate,
    variable,
)
from qformula import gates
from qformula.gates import CNOT, X, random_unitary, unitary_deviation


def test_single_x_gate_circuit_is_valid():
    c = build_circuit(1, [variable(1)], [((0,), X)], output_qubit=0)
    report = validate(c)
    assert report.ok
    assert report.violations == ()


def test_non_unitary_matrix_is_reported():
    bad = np.array([[1, 0], [0, 2]], dtype=complex)
    c = build_circuit(1, [variable(1)], [((0,), bad)], output_qubit=0)
    report = validate(c)
    assert not report.ok
    assert any("non-unitary" in v and "step 1" in v for v in report.violations)



@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "matrix",
    [[[1e308, 0], [0, 1]], [[1e308, 1e308], [1e308, -1e308]], [[1e308, 1e308j], [1e308j, 1e308]]],
    ids=["one-huge-entry", "real-signs", "imaginary"],
)
def test_overflowing_matrix_is_non_unitary_without_a_warning(matrix):
    c = build_circuit(1, [variable(1)], [((0,), np.array(matrix))], output_qubit=0)
    assert validate(c).violations == ("non-unitary at step 1 (deviation inf)",)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [2, 8, 64, 128])
def test_unitary_deviation_matches_the_unsliced_product(dim):
    rng = np.random.default_rng(dim)
    u = random_unitary(dim, rng)
    for matrix in (u, u + 1e-6 * rng.normal(size=(dim, dim))):
        whole = np.abs(matrix.conj().T @ matrix - np.eye(dim)).max()
        assert abs(unitary_deviation(matrix) - whole) <= 1e-15
    assert (dim ** 3 > gates.BLAS_SLICE_MACS) == (dim >= 64)  # 64 and 128 go as slices
    assert unitary_deviation(np.full((dim, dim), 1e308)) == float("inf")


def test_arity_above_bound_is_reported():
    toffoli = np.eye(8, dtype=complex)
    c = build_circuit(
        3, [variable(1), variable(2), constant(0)], [((0, 1, 2), toffoli)],
        output_qubit=0, arity_bound=2,
    )
    assert any("arity exceeds bound" in v for v in validate(c).violations)


def test_non_consecutive_steps_are_reported():
    c = Circuit(
        num_qubits=2,
        labels=(variable(1), constant(0)),
        gates=(Gate(step=2, targets=(0, 1), matrix=CNOT),),
        output_qubit=0,
    )
    assert any("consecutive" in v for v in validate(c).violations)


def test_repeated_and_out_of_range_targets():
    c = build_circuit(2, [variable(1), constant(0)], [((0, 0), CNOT)], output_qubit=0)
    assert any("repeated target" in v for v in validate(c).violations)
    c = build_circuit(2, [variable(1), constant(0)], [((0, 5), CNOT)], output_qubit=0)
    assert any("out of range" in v for v in validate(c).violations)


def test_gapped_variable_indices_are_reported():
    c = build_circuit(2, [variable(1), variable(3)], [], output_qubit=0)
    assert any("contiguous" in v for v in validate(c).violations)


def test_output_qubit_range():
    c = build_circuit(1, [variable(1)], [], output_qubit=4)
    assert any("output qubit" in v for v in validate(c).violations)


def test_check_raises_with_all_violations():
    bad = np.array([[1, 0], [0, 2]], dtype=complex)
    c = build_circuit(1, [variable(1)], [((0,), bad)], output_qubit=3)
    with pytest.raises(InvalidCircuitError) as err:
        c.check()
    assert len(err.value.violations) == 2


def test_check_validates_once_but_validate_always_rechecks(monkeypatch):
    import qformula.circuit as circuit_module

    calls = []
    real = circuit_module.validate
    monkeypatch.setattr(circuit_module, "validate", lambda c: calls.append(c) or real(c))
    c = build_circuit(1, [variable(1)], [((0,), X)], output_qubit=0)
    assert c.check() is c and c.check() is c
    assert len(calls) == 1
    assert validate(c).ok  # the module-level function is not cached
    c.relabel([constant(1)]).check()  # a derived circuit is checked anew
    assert len(calls) == 2


def test_failed_check_is_not_remembered():
    bad = np.array([[1, 0], [0, 2]], dtype=complex)
    c = build_circuit(1, [variable(1)], [((0,), bad)], output_qubit=0)
    for _ in range(2):
        with pytest.raises(InvalidCircuitError):
            c.check()


def test_labels_require_exactly_one_kind():
    with pytest.raises(ValueError):
        variable(0)
    with pytest.raises(ValueError):
        constant(2)


def test_num_variables_counts_distinct_indices():
    c = build_circuit(
        3, [variable(1), constant(0), variable(1)], [], output_qubit=0
    )
    assert c.num_variables == 1
    assert c.variable_indices == (1,)


def test_gate_matrix_is_immutable():
    c = build_circuit(1, [variable(1)], [((0,), X)], output_qubit=0)
    with pytest.raises(ValueError):
        c.gates[0].matrix[0, 0] = 5.0


def test_size_counts_gates_plus_input_wires():
    c = build_circuit(
        3, [variable(1), constant(0), constant(1)],
        [((0, 1), CNOT), ((1, 2), CNOT)], output_qubit=2,
    )
    assert c.size == 5
