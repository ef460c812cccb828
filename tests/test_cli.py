import json

import pytest

from qformula import read_circuit, write_circuit, write_truth_table
from qformula.cli import main
from qformula.samples import formula_example, nonformula_example, two_path_example


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ed_emit_then_nechiporuk_totals_four(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "ed", "--ell", "2", "--emit", "--dir", str(tmp_path))
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "nechiporuk",
        "-f", str(tmp_path / "ed4.tt"),
        "-p", str(tmp_path / "ed4.part"),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == pytest.approx(4.0)
    assert [b["sigma"] for b in payload["blocks"]] == [4, 4]


def test_analyze_reports_not_a_formula(tmp_path, capsys):
    path = tmp_path / "loop.json"
    write_circuit(nonformula_example(), path)
    code, out, _ = run_cli(capsys, "analyze", "-c", str(path))
    assert code == 0
    assert "not a formula" in out


def test_analyze_formula_blocks(tmp_path, capsys):
    path = tmp_path / "tree.json"
    write_circuit(formula_example(), path)
    code, out, _ = run_cli(capsys, "analyze", "-c", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_formula"] is True
    by_block = {tuple(b["block"]): b for b in payload["blocks"]}
    assert by_block[(1,)]["s_j"] == 2
    assert by_block[(1,)]["intersection_gates"] == 1


def test_verify_lemmas_passes_and_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "verify-lemmas", "--seed", "7", "--cases", "60")
    assert code == 0
    assert first.count("PASS") == 4
    code, second, _ = run_cli(capsys, "verify-lemmas", "--seed", "7", "--cases", "60")
    assert code == 0
    assert first == second


def test_simulate_reports_probability(tmp_path, capsys):
    path = tmp_path / "and.json"
    from qformula.samples import toffoli_and_circuit

    write_circuit(toffoli_and_circuit(), path)
    code, out, _ = run_cli(capsys, "simulate", "-c", str(path), "-a", "11", "--json")
    assert code == 0
    assert json.loads(out)["p1"] == pytest.approx(1.0)


def test_evaluate_verdict(tmp_path, capsys):
    from qformula.samples import toffoli_and_circuit

    circuit_path = tmp_path / "and.json"
    table_path = tmp_path / "and.tt"
    write_circuit(toffoli_and_circuit(), circuit_path)
    write_truth_table(2, [0, 0, 0, 1], table_path)
    code, out, _ = run_cli(
        capsys, "evaluate", "-c", str(circuit_path), "-f", str(table_path), "--json"
    )
    assert code == 0
    assert json.loads(out)["status"] == "computes"


@pytest.mark.parametrize("sample", [formula_example, nonformula_example])
def test_evaluate_json_on_both_paths(tmp_path, capsys, sample):
    from qformula.simulator import decide, probability_vector

    circuit = sample()
    circuit_path = tmp_path / "c.json"
    table_path = tmp_path / "c.tt"
    write_circuit(circuit, circuit_path)
    table = [max(int(d), 0) for d in decide(probability_vector(circuit))]
    write_truth_table(circuit.num_variables, table, table_path)
    code, out, _ = run_cli(
        capsys, "evaluate", "-c", str(circuit_path), "-f", str(table_path), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    expected = "computes" if min(decide(probability_vector(circuit))) >= 0 else "undetermined"
    assert payload["status"] == expected


def test_evaluate_rejects_truth_table_with_trailing_text(tmp_path, capsys):
    from qformula.samples import toffoli_and_circuit

    circuit_path = tmp_path / "and.json"
    table_path = tmp_path / "and.tt"
    write_circuit(toffoli_and_circuit(), circuit_path)
    table_path.write_text("2\n0001\ngarbage 7\n")
    code, _, err = run_cli(capsys, "evaluate", "-c", str(circuit_path), "-f", str(table_path))
    assert code == 1
    assert "count line and a bits line" in err


def test_squeeze_cli_roundtrip(tmp_path, capsys):
    source = tmp_path / "two_path.json"
    target = tmp_path / "squeezed.json"
    write_circuit(two_path_example(), source)
    code, out, _ = run_cli(
        capsys, "squeeze", "-c", str(source), "-o", str(target), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_probability_deviation"] <= 1e-9
    assert payload["path_ranks"] == [4, 4]
    assert payload["squeezed_gate_count"] <= payload["gate_bound"]
    back = read_circuit(target)
    assert back.check().arity_bound == 6


def test_bounds_subcommands(capsys):
    code, out, _ = run_cli(capsys, "bounds", "warren", "-m", "1", "-t", "1", "--deg", "1", "--json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(10.8731, rel=1e-4)
    code, out, _ = run_cli(capsys, "bounds", "appendix", "-n", "1", "-N", "1", "-d", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == 4
    assert payload["sign_factor"] == pytest.approx(763125.2446, rel=1e-9)
    code, out, _ = run_cli(capsys, "bounds", "equiv", "-n", "2", "-N", "3", "-d", "2", "--json")
    assert code == 0
    assert json.loads(out)["binomial_form"] == 3375


def test_enumerate_cli(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "-n", "1", "-N", "1", "--qubits", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["tables"] == ["01", "10"]


def test_enumerate_with_net_file(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    net_path.write_text(
        json.dumps(
            [
                {"name": "I", "matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]},
                {"name": "X", "matrix": [[0, 0], [1, 0], [1, 0], [0, 0]]},
            ]
        )
    )
    code, out, _ = run_cli(
        capsys, "enumerate", "-n", "1", "-N", "1", "--qubits", "1",
        "--net", str(net_path), "--json",
    )
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--bogus"])
    assert err.value.code == 64


def test_unknown_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 64


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "-c", "/nonexistent/x.json")
    assert code == 1
    assert "error" in err


def test_invalid_circuit_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0,'
        ' "gates": [{"step": 1, "targets": [0],'
        ' "matrix": [[1, 0], [0, 0], [0, 0], [2, 0]]}]}'
    )
    code, _, err = run_cli(capsys, "analyze", "-c", str(path))
    assert code == 1
    assert "non-unitary" in err


def test_squeeze_tolerance_breach_exits_2(tmp_path, capsys):
    source = tmp_path / "two_path.json"
    write_circuit(two_path_example(), source)
    # an impossible tolerance turns the (tiny) float residue into a failure
    code, _, err = run_cli(capsys, "squeeze", "-c", str(source), "--tol", "1e-30")
    assert code == 2
    assert "verification failure" in err


def test_numerical_error_exits_2(tmp_path, capsys, monkeypatch):
    import qformula.rewrite

    source = tmp_path / "two_path.json"
    write_circuit(two_path_example(), source)
    # a negative tolerance makes the completion's isometry check fail
    monkeypatch.setattr(qformula.rewrite, "ISOMETRY_TOL", -1.0)
    code, _, err = run_cli(capsys, "squeeze", "-c", str(source))
    assert code == 2
    assert "isometry" in err


def test_ed_check_reports_counts(capsys):
    code, out, _ = run_cli(capsys, "ed", "--ell", "2", "--check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigmas"] == [4, 4]
    assert payload["binomial"] == 4


def test_ed_check_failure_exits_2(capsys, monkeypatch):
    import types

    import qformula.nechiporuk

    # every block reports sigma 0, below C(4, 1)
    monkeypatch.setattr(
        qformula.nechiporuk, "subfunctions", lambda f, p, j: types.SimpleNamespace(sigma=0)
    )
    code, out, err = run_cli(capsys, "ed", "--ell", "2", "--check")
    assert code == 2
    assert out == ""
    assert "sigma 0 < C(4, 1)" in err


def test_disagreeing_formula_tests_exit_1(tmp_path, capsys, monkeypatch):
    import qformula.analysis

    path = tmp_path / "tree.json"
    write_circuit(formula_example(), path)
    real = qformula.analysis.has_unique_paths
    monkeypatch.setattr(qformula.analysis, "has_unique_paths", lambda c: not real(c))
    code, _, err = run_cli(capsys, "analyze", "-c", str(path))
    assert code == 1
    assert "formula tests disagree" in err


def test_bounds_missing_arguments_exit_1(capsys):
    code, _, err = run_cli(capsys, "bounds", "warren", "-m", "3")
    assert code == 1
    assert "requires" in err


def test_squeezed_file_reproduces_probabilities(tmp_path, capsys):
    from qformula import probability_vector
    import numpy as np

    source = tmp_path / "two_path.json"
    target = tmp_path / "squeezed.json"
    write_circuit(two_path_example(), source)
    code, _, _ = run_cli(capsys, "squeeze", "-c", str(source), "-o", str(target))
    assert code == 0
    p_original = probability_vector(read_circuit(source))
    p_squeezed = probability_vector(read_circuit(target))
    assert np.max(np.abs(p_original - p_squeezed)) <= 1e-9
