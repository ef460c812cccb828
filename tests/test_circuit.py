import re

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
from qformula.gates import CNOT, H, X, complex_normal, random_unitary, unitary_deviation
from qformula.rewrite import restrict
from qformula.samples import formula_corpus


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
def test_unitary_deviation_matches_the_unsliced_product(monkeypatch, dim):
    # the cap when BLAS may thread, whatever this process's BLAS threads
    monkeypatch.setattr(gates, "BLAS_SLICE_MACS", 2 ** 15)
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


@pytest.mark.parametrize("labels_of", [
    lambda m: [variable(2)] * m, lambda m: [constant(0)] * (m - 1), lambda m: [variable(1)] * m,
], ids=["not-contiguous", "too-few", "valid"])
def test_a_relabelled_circuit_rechecks_only_its_labels(monkeypatch, labels_of):
    import qformula.circuit as circuit_module

    loops = []
    real = circuit_module._gate_violations
    monkeypatch.setattr(circuit_module, "_gate_violations", lambda c: loops.append(c) or real(c))
    member = formula_corpus(1)[0]
    f = member.formula.check()
    f_rho = restrict(f, member.block, dict(member.rho))
    assert f_rho.check() is f_rho and loops == [f]  # the restriction runs no gate loop
    labels = labels_of(f.num_qubits)
    relabelled = f.relabel(labels)
    fresh = Circuit(f.num_qubits, labels, f.gates, f.output_qubit, f.arity_bound)
    assert validate(relabelled) == validate(fresh) and loops == [f, fresh]
    if validate(fresh).ok:
        assert relabelled.check() is relabelled
    else:  # the same error text as a circuit checked from scratch
        messages = []
        for c in (relabelled, fresh):
            with pytest.raises(InvalidCircuitError) as err:
                c.check()
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_a_relabelled_circuit_keeps_its_gate_violations():
    broken = build_circuit(2, [variable(1), constant(0)], [((0, 1), 2 * CNOT)], output_qubit=0)
    message = "invalid circuit: non-unitary at step 1 (deviation 3.000e+00)"
    for c in (broken, broken.relabel([variable(1), variable(2)])):
        with pytest.raises(InvalidCircuitError, match=re.escape(message)):
            c.check()


def test_failed_check_is_not_remembered():
    bad = np.array([[1, 0], [0, 2]], dtype=complex)
    c = build_circuit(1, [variable(1)], [((0,), bad)], output_qubit=0)
    for _ in range(2):
        with pytest.raises(InvalidCircuitError):
            c.check()


def _malformed_circuits():
    u64 = random_unitary(64, np.random.default_rng(0))
    six = [variable(1), variable(2), constant(0), constant(0), constant(1), constant(0)]
    nan, inf = np.array(X), np.array(X)
    nan[0, 1], inf[1, 0] = np.nan, np.inf
    mix = Circuit(
        num_qubits=3, labels=(variable(1), variable(3), constant(0)),
        gates=(Gate(1, (0,), np.diag([1, 2])), Gate(2, (0, 0), CNOT), Gate(4, (1,), nan),
               Gate(5, (2, 3), CNOT), Gate(6, (0, 1, 2), np.eye(8)), Gate(7, (1,), np.eye(4)),
               Gate(8, (0,), H), Gate(8, (1, 2), CNOT * 1.5), Gate(9, (), np.eye(1))),
        output_qubit=3, arity_bound=2)
    return {
        "non-unitary-2x2": build_circuit(1, [variable(1)], [((0,), np.diag([1, 2]))], 0),
        "non-unitary-64x64": build_circuit(
            6, six, [((0, 1), CNOT), (range(6), u64), (range(6), u64 * (1 + 1e-6)), ((2,), H)], 0, 6),
        "nan-entry": build_circuit(1, [variable(1)], [((0,), H), ((0,), nan)], 0),
        "inf-entry": build_circuit(1, [variable(1)], [((0,), inf), ((0,), X)], 0),
        "overflow": build_circuit(
            1, [variable(1)], [((0,), np.array([[1e308, 1e308], [1e308, -1e308]]))], 0),
        "wrong-shape": Circuit(2, (variable(1), constant(0)), (
            Gate(1, (0,), CNOT), Gate(2, (0, 1), np.ones((2, 4))), Gate(3, (1,), [1, 0, 0, 1])), 0),
        "empty-matrix": Circuit(
            1, (variable(1),), (Gate(1, (0,), np.zeros((0, 0))), Gate(2, (), np.zeros((0, 0)))), 0),
        "repeated-target": Circuit(2, (variable(1), constant(0)), (Gate(1, (1, 1), CNOT),), 0),
        "step-gap": Circuit(2, (variable(1), constant(0)), (Gate(1, (0, 1), CNOT), Gate(3, (0,), X)), 0),
        "mix": mix,
    }


# written from the report of the per-gate check that the stacked one replaced
_MALFORMED_REPORTS = {
    "non-unitary-2x2": ("non-unitary at step 1 (deviation 3.000e+00)",),
    "non-unitary-64x64": ("non-unitary at step 3 (deviation 2.000e-06)",),
    "nan-entry": ("non-finite matrix entry at step 2",),
    "inf-entry": ("non-finite matrix entry at step 1",),
    "overflow": ("non-unitary at step 1 (deviation inf)",),
    "wrong-shape": (
        "matrix shape (4, 4) does not match 1 targets at step 1",
        "matrix shape (2, 4) does not match 2 targets at step 2",
        "matrix shape (4,) does not match 1 targets at step 3",
    ),
    "empty-matrix": (
        "matrix shape (0, 0) does not match 1 targets at step 1",
        "gate with no targets at step 2",
        "matrix shape (0, 0) does not match 0 targets at step 2",
    ),
    "repeated-target": ("repeated target at step 1: (1, 1)",),
    "step-gap": ("gate steps not consecutive at step 3 (expected 2)",),
    "mix": (
        "output qubit 3 out of range [0, 3)",
        "variable indices are not contiguous from 1: [1, 3]",
        "non-unitary at step 1 (deviation 3.000e+00)",
        "repeated target at step 2: (0, 0)",
        "gate steps not consecutive at step 4 (expected 3)",
        "non-finite matrix entry at step 4",
        "target out of range at step 5: (2, 3)",
        "arity exceeds bound at step 6: 3 > 2",
        "matrix shape (4, 4) does not match 1 targets at step 7",
        "gate steps not consecutive at step 8 (expected 9)",
        "non-unitary at step 8 (deviation 1.250e+00)",
        "gate with no targets at step 9",
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_MALFORMED_REPORTS))
def test_malformed_circuit_report_is_pinned(name):
    c = _malformed_circuits()[name]
    assert validate(c).violations == _MALFORMED_REPORTS[name]
    assert validate(c).violations == _MALFORMED_REPORTS[name]  # from the kept deviations
    with pytest.raises(InvalidCircuitError) as err:
        c.check()
    assert err.value.violations == _MALFORMED_REPORTS[name]


def test_validate_stacks_one_product_per_dimension_and_keeps_it(monkeypatch):
    import qformula.circuit as circuit_module

    stacks = []
    real = circuit_module.unitary_deviations
    monkeypatch.setattr(circuit_module, "unitary_deviations", lambda s: stacks.append(s.shape) or real(s))
    c = _malformed_circuits()["non-unitary-64x64"]
    validate(c)
    assert stacks == [(1, 4, 4), (2, 64, 64), (1, 2, 2)]
    u64 = c.gates[1].matrix
    assert c.gates[1].deviation == unitary_deviation(u64)
    assert c.gates[2].deviation == unitary_deviation(c.gates[2].matrix) > 1e-6
    validate(c)
    validate(c.relabel([constant(0)] * 6))  # the same gates: no product
    moved = c.gates[1].moved(1, (5, 4, 3, 2, 1, 0))
    assert moved.matrix is u64 and moved.__dict__["_deviation"] == c.gates[1].deviation
    with pytest.raises(ValueError):  # shared, and still read-only
        moved.matrix[0, 0] = 0
    Circuit(6, c.labels, (moved,), 0, 6).check()
    assert moved.deviation == c.gates[1].deviation and len(stacks) == 3
    assert Gate(1, (0,), X).deviation == 0.0 and len(stacks) == 4  # a fresh gate: one stack of one
    assert Gate(1, (0, 1), np.ones((2, 4))).deviation == float("inf") and len(stacks) == 4


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


@pytest.mark.parametrize("shape", [5, (3, 4)], ids=["int", "tuple"])
def test_complex_normal_is_two_normal_fills_bit_for_bit(shape):
    one, two = np.random.default_rng(3), np.random.default_rng(3)
    z = complex_normal(shape, one)
    re_part, im_part = two.normal(size=shape), two.normal(size=shape)
    assert z.shape == re_part.shape and z.dtype == complex
    assert z.real.tobytes() == re_part.tobytes() and z.imag.tobytes() == im_part.tobytes()
    assert one.normal() == two.normal()  # the stream goes on from the same place
