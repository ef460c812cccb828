import numpy as np
import pytest

from qformula import (
    FormatError,
    read_circuit,
    read_partition,
    read_truth_table,
    squeeze_all,
    write_circuit,
    write_partition,
    write_truth_table,
)
from qformula.samples import (
    formula_example,
    nonformula_example,
    random_formula,
    two_path_example,
)


def test_round_trip_reference_circuits(tmp_path):
    for i, circuit in enumerate([formula_example(), nonformula_example()]):
        path = tmp_path / f"c{i}.json"
        write_circuit(circuit, path)
        back = read_circuit(path)
        assert back.num_qubits == circuit.num_qubits
        assert back.labels == circuit.labels
        assert back.output_qubit == circuit.output_qubit
        assert back.arity_bound == circuit.arity_bound
        for g1, g2 in zip(back.gates, circuit.gates):
            assert g1.step == g2.step and g1.targets == g2.targets
            assert np.array_equal(g1.matrix, g2.matrix)  # bit-exact


def test_round_trip_random_formulas(tmp_path):
    for seed in (1, 9, 23):
        circuit = random_formula(seed).formula
        path = tmp_path / f"r{seed}.json"
        write_circuit(circuit, path)
        back = read_circuit(path)
        assert all(
            np.array_equal(a.matrix, b.matrix) for a, b in zip(back.gates, circuit.gates)
        )


def test_round_trip_holds_on_the_whole_corpus(tmp_path, corpus):
    path = tmp_path / "member.json"
    for member in corpus:
        write_circuit(member.formula, path)
        back = read_circuit(path)
        assert back.labels == member.formula.labels
        assert back.output_qubit == member.formula.output_qubit
        for g1, g2 in zip(back.gates, member.formula.gates):
            assert (g1.step, g1.targets) == (g2.step, g2.targets)
            assert np.array_equal(g1.matrix, g2.matrix)


def test_reference_file_shape(tmp_path):
    path = tmp_path / "tree.json"
    write_circuit(formula_example(), path)
    circuit = read_circuit(path)
    assert circuit.num_qubits == 4
    assert len(circuit.gates) == 4


def test_empty_gate_list_is_a_valid_identity_circuit(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(
        '{"num_qubits": 1, "labels": [{"const": 1}], "gates": [], "output_qubit": 0}'
    )
    circuit = read_circuit(path)
    assert circuit.check().gates == ()


def test_truncated_file_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"num_qubits": 2, "labels": [{"var": 1}')
    with pytest.raises(FormatError, match="not valid JSON"):
        read_circuit(path)


def test_missing_field_diagnostics(tmp_path):
    path = tmp_path / "nofield.json"
    path.write_text('{"num_qubits": 1, "labels": [{"var": 1}], "gates": []}')
    with pytest.raises(FormatError, match="output_qubit"):
        read_circuit(path)


def test_bad_matrix_length_names_the_gate(tmp_path):
    path = tmp_path / "badmat.json"
    path.write_text(
        '{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0,'
        ' "gates": [{"step": 1, "targets": [0], "matrix": [[1, 0]]}]}'
    )
    with pytest.raises(FormatError, match=r"gates\[0\]"):
        read_circuit(path)


def test_bad_label_is_rejected(tmp_path):
    path = tmp_path / "badlabel.json"
    path.write_text(
        '{"num_qubits": 1, "labels": [{"const": 3}], "gates": [], "output_qubit": 0}'
    )
    with pytest.raises(FormatError, match=r"labels\[0\]"):
        read_circuit(path)


def test_squeezed_circuit_with_composites_round_trips_bit_exactly(tmp_path):
    squeezed = squeeze_all(two_path_example())
    assert {g.matrix.shape for g in squeezed.circuit.gates} == {(64, 64)}
    path = tmp_path / "squeezed.json"
    write_circuit(squeezed.circuit, path)
    assert path.read_text().count("\n") == 1  # compact: one line
    back = read_circuit(path)
    assert (back.num_qubits, back.labels, back.output_qubit, back.arity_bound) == (
        squeezed.circuit.num_qubits,
        squeezed.circuit.labels,
        squeezed.circuit.output_qubit,
        squeezed.circuit.arity_bound,
    )
    for g1, g2 in zip(back.gates, squeezed.circuit.gates):
        assert (g1.step, g1.targets) == (g2.step, g2.targets)
        assert np.array_equal(g1.matrix, g2.matrix)


_X_GATE = '{"step": 1, "targets": [0], "matrix": [[0, 0], [1, 0], [1, 0], [0, 0]]}'


@pytest.mark.parametrize(
    "field, text",
    [
        ("var", '{"num_qubits": 1, "labels": [{"var": true}], "gates": [], "output_qubit": 0}'),
        ("const", '{"num_qubits": 1, "labels": [{"const": false}], "gates": [], "output_qubit": 0}'),
        ("num_qubits", '{"num_qubits": true, "labels": [{"var": 1}], "gates": [], "output_qubit": 0}'),
        ("output_qubit", '{"num_qubits": 1, "labels": [{"var": 1}], "gates": [], "output_qubit": false}'),
        ("step", '{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0, "gates": ['
                 + _X_GATE.replace('"step": 1', '"step": true') + "]}"),
        ("targets", '{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0, "gates": ['
                    + _X_GATE.replace('"targets": [0]', '"targets": [false]') + "]}"),
        ("arity_bound", '{"num_qubits": 1, "labels": [{"var": 1}], "gates": [], "output_qubit": 0,'
                        ' "arity_bound": true}'),
        ("matrix entry 0", '{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0, "gates": ['
                           + _X_GATE.replace("[[0, 0]", "[[true, 0]") + "]}"),
    ],
)
def test_booleans_are_not_integers(tmp_path, field, text):
    path = tmp_path / "bool.json"
    path.write_text(text)
    with pytest.raises(FormatError, match=field):
        read_circuit(path)


def test_non_numeric_matrix_entry_is_a_format_error(tmp_path):
    path = tmp_path / "strmat.json"
    path.write_text(
        '{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0, "gates": ['
        + _X_GATE.replace("[[0, 0]", '[["0", 0]') + "]}"
    )
    with pytest.raises(FormatError, match=r"gates\[0\]: matrix entry 0"):
        read_circuit(path)


def test_truth_table_round_trip(tmp_path):
    path = tmp_path / "t.tt"
    write_truth_table(2, [0, 1, 1, 0], path)
    n, bits = read_truth_table(path)
    assert n == 2
    assert list(bits) == [0, 1, 1, 0]


def test_truth_table_length_mismatch(tmp_path):
    path = tmp_path / "bad.tt"
    path.write_text("2\n010\n")
    with pytest.raises(FormatError, match="expected 4 bits"):
        read_truth_table(path)


@pytest.mark.parametrize(
    "text",
    ["2\n0110\ngarbage 7\n", "2\n0110\n1\n", "2 0110\n", "\n2\n0110\n", "2\n0110 1\n"],
    ids=["trailing-garbage", "third-line", "one-line", "leading-blank", "two-fields"],
)
def test_truth_table_rejects_anything_but_two_lines(tmp_path, text):
    path = tmp_path / "bad.tt"
    path.write_text(text)
    with pytest.raises(FormatError):
        read_truth_table(path)


def test_truth_table_allows_trailing_blank_lines(tmp_path):
    path = tmp_path / "t.tt"
    path.write_text("2\n0110\n\n\n")
    n, bits = read_truth_table(path)
    assert (n, list(bits)) == (2, [0, 1, 1, 0])


def test_emitted_ed_tables_round_trip(tmp_path, capsys):
    from qformula.cli import main

    assert main(["ed", "--ell", "2", "--emit", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    n, bits = read_truth_table(tmp_path / "ed4.tt")
    copy = tmp_path / "copy.tt"
    write_truth_table(n, bits, copy)
    assert copy.read_bytes() == (tmp_path / "ed4.tt").read_bytes()
    n_back, bits_back = read_truth_table(copy)
    assert n_back == n == 4 and list(bits_back) == list(bits)


def test_partition_round_trip(tmp_path):
    path = tmp_path / "p.part"
    blocks = [frozenset({1, 2}), frozenset({3, 4})]
    write_partition(blocks, path)
    assert read_partition(path) == blocks
