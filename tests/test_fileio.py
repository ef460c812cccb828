import json

import numpy as np
import pytest

from qformula import (
    Circuit,
    FormatError,
    Gate,
    constant,
    read_circuit,
    read_partition,
    read_truth_table,
    restrict,
    squeeze_all,
    variable,
    write_circuit,
    write_partition,
    write_truth_table,
)
from qformula.fileio import circuit_to_json
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


@pytest.mark.parametrize("arity", [1, 20_000])
def test_bad_matrix_length_names_the_gate(tmp_path, arity):
    # 4^20000 has 12042 digits: it is named as a power, never built
    path = tmp_path / "badmat.json"
    path.write_text(
        '{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0,'
        f' "gates": [{{"step": 1, "targets": {[0] * arity}, "matrix": [[1, 0]]}}]}}'
    )
    with pytest.raises(FormatError) as err:
        read_circuit(path)
    assert str(err.value) == (
        f"{path}: gates[0]: matrix must have 4^{arity} entries for {arity} targets, got 1")


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


def _one_gate_file(entries):
    return ('{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0, "gates": '
            '[{"step": 1, "targets": [0], "matrix": ' + entries + "}]}")


@pytest.mark.parametrize("entries", [
    "[[0, 1], [-0.0, 0.0], [1e308, -1e308], [5e-324, -2.2250738585072014e-308]]",
    f"[[{2 ** 53 + 1}, {2 ** 63 + 1}], [{2 ** 64 + 1}, {-10 ** 300}], [0.1, -0], [1, 0.0]]",
], ids=["floats", "integers"])
def test_matrix_decoding_is_bit_identical_to_complex_per_entry(tmp_path, entries):
    path = tmp_path / "entries.json"
    path.write_text(_one_gate_file(entries))
    expected = np.array([complex(re, im) for re, im in json.loads(entries)]).reshape(2, 2)
    assert read_circuit(path).gates[0].matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad, message", [
    ("[true, 0]", "matrix entry 2 must be an [re, im] pair of numbers"),
    ('[1, "0"]', "matrix entry 2 must be an [re, im] pair of numbers"),
    ("[1, 0, 0]", "matrix entry 2 must be an [re, im] pair of numbers"),
    ("[1]", "matrix entry 2 must be an [re, im] pair of numbers"),
    ('{"re": 1, "im": 0}', "matrix entry 2 must be an [re, im] pair of numbers"),
    ("[[1], 0]", "matrix entry 2 must be an [re, im] pair of numbers"),
    ("null", "matrix entry 2 must be an [re, im] pair of numbers"),
    (f"[{10 ** 309}, 0]", "matrix entry 2 is too large for a float"),
], ids=["bool", "string", "three-parts", "one-part", "object", "nested", "null", "huge-int"])
def test_bad_matrix_entry_is_named_first(tmp_path, bad, message):
    # a later bad entry is not the one named
    path = tmp_path / "bad.json"
    path.write_text(_one_gate_file(f'[[0, 0], [1, 0], {bad}, [false, "x"]]'))
    with pytest.raises(FormatError) as err:
        read_circuit(path)
    assert str(err.value) == f"{path}: gates[0]: {message}"


def _assert_written_as_json_dumps(circuit, path):
    """The writer's bytes are ``json.dumps(circuit_to_json(c)) + "\\n"``."""
    write_circuit(circuit, path)
    assert path.read_bytes() == (json.dumps(circuit_to_json(circuit)) + "\n").encode()


def test_writer_bytes_match_json_dumps_on_corpus_and_squeezed_outputs(tmp_path, corpus):
    path = tmp_path / "member.json"
    for member in corpus:
        _assert_written_as_json_dumps(member.formula, path)
        restricted = restrict(member.formula, member.block, member.restriction)
        _assert_written_as_json_dumps(squeeze_all(restricted).circuit, path)


def _one_qubit(matrix):
    return Circuit(
        num_qubits=1,
        labels=(constant(0),),
        gates=(Gate(step=1, targets=(0,), matrix=np.array(matrix, dtype=complex)),),
        output_qubit=0,
    )


@pytest.mark.parametrize(
    "matrix",
    [
        [[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0]],
        [[5e-324, complex(0.0, 5e-324)], [complex(1e-17, -1e-17), 1.0]],
        [[1.0, 0.0], [0.0, 1.0]],
        [[np.nan, complex(0.0, np.inf)], [complex(-np.inf, np.nan), 0.0]],
    ],
    ids=["negative-zeros", "tiny", "identity", "nan-and-inf"],
)
def test_writer_bytes_match_json_dumps_on_special_entries(tmp_path, matrix):
    path = tmp_path / "special.json"
    circuit = _one_qubit(matrix)
    _assert_written_as_json_dumps(circuit, path)
    back = read_circuit(path)
    flat, flat_back = circuit.gates[0].matrix.reshape(-1), back.gates[0].matrix.reshape(-1)
    # every value comes back, NaN positions and the sign of every zero included
    assert np.array_equal(flat, flat_back, equal_nan=True)
    assert np.array_equal(np.signbit(flat.real), np.signbit(flat_back.real))
    assert np.array_equal(np.signbit(flat.imag), np.signbit(flat_back.imag))


def test_writer_bytes_match_json_dumps_without_gates(tmp_path):
    circuit = Circuit(num_qubits=2, labels=(variable(1), constant(1)), gates=(), output_qubit=1)
    _assert_written_as_json_dumps(circuit, tmp_path / "empty.json")


@pytest.mark.parametrize(
    "label, message",
    [('{"var": 1, "const": 0}', "label has both"), ('{"var": 0}', "var must be"),
     ('{"var": -1}', "var must be")],
    ids=["var-and-const", "var-0", "var-negative"],
)
def test_malformed_labels_are_format_errors(tmp_path, label, message):
    path = tmp_path / "label.json"
    path.write_text(
        '{"num_qubits": 1, "labels": [' + label + '], "gates": [], "output_qubit": 0}'
    )
    with pytest.raises(FormatError, match=r"labels\[0\]: " + message):
        read_circuit(path)


@pytest.mark.parametrize(
    "content, message",
    [
        (('{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0, "gates": ['
          + _X_GATE.replace("[[0, 0]", "[[" + "9" * 401 + ", 0]") + "]}").encode(),
         r"gates\[0\]: matrix entry 0 is too large"),
        (b'{"num_qubits": ' + b"9" * 5000 + b"}", "not valid JSON"),
        (b"[" * 100_000, "not valid JSON"),
        (b'{"num_qubits": 1, "labels": [{"var": 1}], "gates": [], "output_qubit": 0, "\xe9": 0}',
         "not UTF-8"),
    ],
    ids=["int-too-large-for-float", "int-too-long-to-parse", "deep-nesting", "not-utf8"],
)
def test_undecodable_files_are_format_errors(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=message):
        read_circuit(path)



@pytest.mark.parametrize(
    "text, message",
    [
        ('{"num_qubits": 1, "arity_bund": 6, "labels": [{"var": 1}], "gates": [],'
         ' "output_qubit": 0}', "unknown field 'arity_bund'"),
        ('{"num_qubits": 1, "labels": [{"var": 1, "neg": true}], "gates": [],'
         ' "output_qubit": 0}', r"labels\[0\]: unknown field 'neg'"),
        ('{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0, "gates": ['
         + _X_GATE.replace('"step": 1', '"step": 1, "name": "X"') + "]}",
         r"gates\[0\]: unknown field 'name'"),
    ],
    ids=["top-level", "label", "gate"],
)
def test_unknown_fields_are_format_errors(tmp_path, text, message):
    path = tmp_path / "extra.json"
    path.write_text(text)
    with pytest.raises(FormatError, match=message):
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
    with pytest.raises(FormatError, match=r"expected 2\^2 bits for n=2, got 3"):
        read_truth_table(path)


@pytest.mark.parametrize("name, text, message", [
    ("t.tt", "0_1\n01\n", ": the variable count must be ASCII decimal digits, got '0_1'"),
    ("t.tt", "+1\n01\n", ": the variable count must be ASCII decimal digits, got '+1'"),
    ("t.tt", "-1\n01\n", ": the variable count must be ASCII decimal digits, got '-1'"),
    ("t.tt", "\u0661\n01\n", ": the variable count must be ASCII decimal digits, got '\u0661'"),
    ("t.tt", "20000\n0110\n", ": expected 2^20000 bits for n=20000, got 4"),
    ("t.tt", "9" * 5000 + "\n01\n", ": the variable count has 5000 digits, too many to read"),
    ("p.part", "1 +1\n", ":1: a variable index must be ASCII decimal digits, got '+1'"),
    ("p.part", "1 2\n0 2 -1\n", ":2: a variable index must be ASCII decimal digits, got '-1'"),
    ("p.part", "1_0\n", ":1: a variable index must be ASCII decimal digits, got '1_0'"),
], ids=["underscore", "plus", "minus", "arabic-indic-digit", "count-20000", "5000-digits",
        "index-plus", "index-minus", "index-underscore"])
def test_counts_and_indices_are_ascii_decimal_digits(tmp_path, name, text, message):
    # int() takes signs, underscores and other scripts' digits, and the
    # message once spelt out 2^20000 until int-to-text conversion refused
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        (read_truth_table if name.endswith(".tt") else read_partition)(path)
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize("command, option, name", [
    ("evaluate", "-c", "two_path.json"), ("nechiporuk", "-p", "one.part"),
])
def test_a_trillion_variable_count_is_rejected_without_building_2_to_the_n(
    tmp_path, run_child, command, option, name
):
    # computing 2^(10^12) once hung both commands; the cap makes a
    # regression fail here rather than exhaust the host
    write_circuit(two_path_example(), tmp_path / "two_path.json")
    (tmp_path / "one.part").write_text("1\n")
    table = tmp_path / "huge.tt"
    table.write_text(f"{10 ** 12}\n0110\n")
    done = run_child("-m", "qformula.cli", command, option, str(tmp_path / name), "-f", str(table),
                     timeout=20, cap_memory=True)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {table}: expected 2^{10 ** 12} bits for n={10 ** 12}, got 4\n"


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


@pytest.mark.parametrize("n", [0, 1, 3, 10])
def test_truth_table_text_equals_one_character_per_bit(tmp_path, n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, size=2 ** n)
    path = tmp_path / "t.tt"
    write_truth_table(n, bits, path)
    text = "".join("1" if b else "0" for b in bits)
    assert path.read_bytes() == f"{n}\n{text}\n".encode()
    write_truth_table(n, bits.astype(bool), path)  # booleans are bits too
    assert path.read_bytes() == f"{n}\n{text}\n".encode()


@pytest.mark.parametrize(
    "bits, first",
    [([256, 1], "entry 0 is 256"), ([2, 0], "entry 0 is 2"), ([-1, 1], "entry 0 is -1")],
)
def test_truth_table_writer_rejects_entries_other_than_0_and_1(tmp_path, bits, first):
    path = tmp_path / "t.tt"
    with pytest.raises(ValueError, match=first):
        write_truth_table(1, bits, path)
    assert not path.exists()
