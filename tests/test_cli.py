import contextlib
import io
import json
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qformula import (
    build_circuit, constant, is_formula, read_circuit, restrict, variable, write_circuit,
    write_truth_table,
)
from qformula.cli import main
from qformula.fileio import circuit_to_json
from qformula.gates import CNOT, H, SWAP, TOFFOLI, random_unitary
from qformula.nechiporuk import bound_term
from qformula.samples import formula_corpus, formula_example, nonformula_example, two_path_example


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("ell, sigma", [(2, 4), (4, 561)])
def test_ed_check_emit_then_nechiporuk_count_the_same_sigmas(tmp_path, capsys, ell, sigma):
    code, out, _ = run_cli(capsys, "ed", "--ell", str(ell), "--check", "--emit",
                           "--dir", str(tmp_path), "--json")
    assert code == 0
    assert json.loads(out)["sigmas"] == [sigma] * ell
    code, out, _ = run_cli(
        capsys,
        "nechiporuk",
        "-f", str(tmp_path / f"ed{ell * ell}.tt"),
        "-p", str(tmp_path / f"ed{ell * ell}.part"),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == pytest.approx(ell * bound_term(sigma))  # 4.0 at ell = 2
    assert [b["sigma"] for b in payload["blocks"]] == [sigma] * ell


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


def test_analyze_reads_a_partition_file(tmp_path, capsys):
    circuit_path, partition_path = tmp_path / "two_path.json", tmp_path / "two_path.part"
    write_circuit(two_path_example(), circuit_path)
    partition_path.write_text("1 2\n1\n2\n")
    code, out, _ = run_cli(capsys, "analyze", "--json", "-c", str(circuit_path),
                           "-p", str(partition_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_formula"] is True
    assert [(b["block"], b["s_j"], b["paths"]) for b in payload["blocks"]] == [
        ([1, 2], 2, 2), ([1], 1, 1), ([2], 1, 1)]


@pytest.mark.parametrize("partition, unused", [
    ("9\n", "[9]"), ("1 2\n9\n", "[9]"), ("1 2\n0 2\n", "[0]"),
], ids=["variable-nine", "variable-nine-after-a-good-block", "zero"])
def test_analyze_rejects_a_partition_variable_the_circuit_does_not_use(
    tmp_path, capsys, partition, unused
):
    # such a block used to be reported with s_j = 0
    circuit_path, partition_path = tmp_path / "two_path.json", tmp_path / "bad.part"
    write_circuit(two_path_example(), circuit_path)
    partition_path.write_text(partition)
    code, out, err = run_cli(capsys, "analyze", "--json", "-c", str(circuit_path),
                             "-p", str(partition_path))
    assert (code, out) == (1, "")
    assert err == f"error: partition names variables the circuit does not use: {unused}\n"


def test_verify_lemmas_passes_and_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "verify-lemmas", "--seed", "7", "--cases", "60")
    assert code == 0
    assert first.count("PASS") == 4
    code, second, _ = run_cli(capsys, "verify-lemmas", "--seed", "7", "--cases", "60")
    assert code == 0
    assert first == second
    code, out, _ = run_cli(capsys, "verify-lemmas", "--json", "--cases", "200", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["cases"] == 200
    assert len(payload["sweeps"]) == 4 and all(s["passed"] for s in payload["sweeps"])


def test_simulate_reports_probability(tmp_path, capsys):
    path = tmp_path / "and.json"
    from qformula.samples import toffoli_and_circuit

    write_circuit(toffoli_and_circuit(), path)
    code, out, _ = run_cli(capsys, "simulate", "-c", str(path), "-a", "11", "--json")
    assert code == 0
    assert json.loads(out)["p1"] == pytest.approx(1.0)


def test_simulate_rejects_an_assignment_that_is_not_bits(tmp_path, capsys):
    path = tmp_path / "two_path.json"
    write_circuit(two_path_example(), path)
    code, out, err = run_cli(capsys, "simulate", "-c", str(path), "-a", "01x")
    assert (code, out) == (1, "")
    assert "assignment must be a 0/1 string" in err


def test_evaluate_rejects_a_table_over_other_variables(tmp_path, capsys):
    circuit_path, table_path = tmp_path / "two_path.json", tmp_path / "three.tt"
    write_circuit(two_path_example(), circuit_path)
    write_truth_table(3, [0] * 8, table_path)
    code, out, err = run_cli(capsys, "evaluate", "-c", str(circuit_path), "-f", str(table_path))
    assert (code, out) == (1, "")
    assert "table over 3 variables, circuit uses 2" in err


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


def cone_without_x2():
    """A non-formula whose light cone leaves out x2: x2's line 0 meets only
    a gate outside the cone, its line 6 no gate at all; p = x1 xor x3."""
    return build_circuit(
        7, [variable(2), variable(1), variable(3), constant(0), variable(1), constant(0), variable(2)],
        [((0, 5), CNOT), ((2, 3, 4), TOFFOLI), ((1, 2), CNOT), ((2, 3), CNOT), ((3, 4), SWAP), ((5,), H)],
        output_qubit=4, arity_bound=3)


@pytest.mark.parametrize("sample, table, status", [
    (formula_example, [0, 0, 0, 0], "undetermined"),
    (nonformula_example, [0, 0, 0, 0], "fails"),
    (cone_without_x2, [0, 1, 0, 1, 1, 0, 1, 0], "computes"),
], ids=["formula-all-zero", "nonformula-all-zero", "cone-without-x2-xor13"])
def test_evaluate_status_on_the_sample_circuits(tmp_path, capsys, sample, table, status):
    circuit = sample()
    assert is_formula(circuit) == (sample is formula_example)
    circuit_path, table_path = tmp_path / "c.json", tmp_path / "c.tt"
    write_circuit(circuit, circuit_path)
    write_truth_table(circuit.num_variables, table, table_path)
    code, out, _ = run_cli(capsys, "evaluate", "--json", "-c", str(circuit_path),
                           "-f", str(table_path))
    assert code == 0
    assert json.loads(out)["status"] == status


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
    # the writer's bytes are exactly json.dumps of the dict form, plus a newline
    assert target.read_bytes() == (json.dumps(circuit_to_json(back)) + "\n").encode()


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


IDENTITY = [[1, 0], [0, 0], [0, 0], [1, 0]]


@pytest.mark.parametrize(
    "spec, message",
    [
        ([{"name": "X"}], "string 'name' and a 'matrix' list"),
        ({"name": "X", "matrix": IDENTITY}, "list of gate objects"),
        (["X"], "string 'name' and a 'matrix' list"),
        ([{"name": 1, "matrix": IDENTITY}], "string 'name'"),
        ([{"name": "I", "matrix": "1 0 0 1"}], "'matrix' list"),
        ([{"name": "I", "matrix": IDENTITY, "arity": 1}], "string 'name' and a 'matrix' list"),
        ([{"name": "I", "matrix": IDENTITY[:3]}], "3 entries, not 4\\^k"),
        ([{"name": "I", "matrix": [[1, 0]]}], "1 entries, not 4\\^k"),
        ([{"name": "I", "matrix": []}], "0 entries, not 4\\^k"),
        ([{"name": "I", "matrix": IDENTITY * 2}], "8 entries, not 4\\^k"),
        ([{"name": "I", "matrix": [[1, 0], [0, 0], [0, 0], [True, 0]]}], "entry 3 must be"),
        ([{"name": "I", "matrix": [[1, 0], [0, 0], [0, 0], [1]]}], "entry 3 must be"),
        ([{"name": "I", "matrix": [[1, 0], [0, 0], [0, 0], ["1", 0]]}], "entry 3 must be"),
        ([{"name": "D", "matrix": [[1, 0], [0, 0], [0, 0], [2, 0]]}], "not unitary"),
    ],
    ids=["no-matrix", "not-a-list", "not-an-object", "name-not-a-string", "matrix-not-a-list",
         "unknown-field", "3-entries", "1-entry", "no-entries", "8-entries", "boolean-entry",
         "short-pair", "string-entry", "not-unitary"],
)
def test_enumerate_rejects_a_malformed_net_file(tmp_path, capsys, spec, message):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(spec))
    code, out, err = run_cli(
        capsys, "enumerate", "-n", "1", "-N", "1", "--qubits", "1", "--net", str(net_path),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert re.search(message, err)


def test_enumerate_rejects_a_net_file_that_is_not_json(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    net_path.write_text("[{")
    code, _, err = run_cli(
        capsys, "enumerate", "-n", "1", "-N", "1", "--qubits", "1", "--net", str(net_path),
    )
    assert code == 1 and "not valid JSON" in err


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


def test_overflowing_matrix_exits_1_without_a_numpy_warning(tmp_path, run_child):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0,'
        ' "gates": [{"step": 1, "targets": [0],'
        ' "matrix": [[1e308, 0], [1e308, 0], [1e308, 0], [-1e308, 0]]}]}'
    )
    done = run_child("-m", "qformula.cli", "analyze", "-c", str(path), timeout=60)
    assert done.returncode == 1
    assert "non-unitary" in done.stderr and "deviation inf" in done.stderr
    assert "RuntimeWarning" not in done.stderr


def test_misspelt_field_exits_1(tmp_path, capsys):
    path = tmp_path / "misspelt.json"
    path.write_text(
        '{"num_qubits": 1, "arity_bund": 6, "labels": [{"var": 1}], "gates": [], "output_qubit": 0}'
    )
    code, out, err = run_cli(capsys, "analyze", "-c", str(path))
    assert (code, out) == (1, "")
    assert "unknown field 'arity_bund'" in err


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


def _strict_json(text):
    """Parse as RFC 8259 JSON: NaN and Infinity are not numbers there."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["appendix", "-n", "16", "-N", "128"],
    ["equiv", "-n", "16", "-N", "128"],
    ["warren", "-m", "300", "-t", "300", "--deg", "2"],
    ["appendix", "-n", "4", "-N", "16"],
], ids=["appendix", "equiv", "warren", "appendix-small"])
def test_bounds_past_the_float_range_report_log2_and_null(capsys, argv):
    code, out, err = run_cli(capsys, "bounds", *argv, "--json")
    assert code == 0 and "Traceback" not in err
    payload = _strict_json(out)
    logs = {key: value for key, value in payload.items() if key.startswith("log2")}
    assert logs and all(value > 1024 or key == "log2_class_count" for key, value in logs.items())
    linear = {key: value for key, value in payload.items() if key not in logs and key != "mu"}
    assert linear and all(value is None for value in linear.values())
    code, out, _ = run_cli(capsys, "bounds", *argv)
    assert code == 0 and "2^" in out


def test_enumerate_rejects_an_arity_bound_below_one(capsys):
    for arity in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "enumerate", "-n", "2", "-N", "1", "--qubits", "3", "--arity", arity)
        assert (code, out) == (1, "")
        assert err.startswith("error: arity_bound must be at least 1")


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


def test_calls_in_one_process_share_one_parser(tmp_path, capsys):
    from qformula import cli

    assert cli._build_parser() is cli._build_parser()
    source = tmp_path / "two_path.json"
    write_circuit(two_path_example(), source)
    with pytest.raises(SystemExit) as err:
        main(["squeeze", "--bogus"])
    assert err.value.code == 64
    code, out, _ = run_cli(capsys, "squeeze", "-c", str(source), "--json")
    assert code == 0
    assert json.loads(out)["path_ranks"] == [4, 4]


def test_defaults_do_not_leak_between_calls(tmp_path, capsys, monkeypatch):
    from qformula import cli

    source = tmp_path / "two_path.json"
    write_circuit(two_path_example(), source)
    # --tol 1e-30 fails verification; the next call is back at the 1e-9 default
    code, _, _ = run_cli(capsys, "squeeze", "-c", str(source), "--tol", "1e-30", "--json")
    assert code == 2
    code, out, _ = run_cli(capsys, "squeeze", "-c", str(source))
    assert code == 0
    assert out.startswith("gates: ")  # text report: --json did not carry over
    seen = []
    monkeypatch.setattr(cli, "run_all_sweeps", lambda cases, seed: seen.append(cases) or [])
    assert run_cli(capsys, "verify-lemmas", "--cases", "3")[0] == 0
    assert run_cli(capsys, "verify-lemmas")[0] == 0
    assert seen == [3, 1000]


@pytest.mark.parametrize(
    "content",
    [
        b'{"num_qubits": 1, "labels": [{"var": 1}], "output_qubit": 0, "gates": [{"step": 1,'
        b' "targets": [0], "matrix": [[' + b"9" * 401 + b", 0], [1, 0], [1, 0], [0, 0]]}]}",
        b"[" * 100_000,
        b'{"num_qubits": 1, "labels": [{"var": 1}], "gates": [], "output_qubit": 0, "\xe9": 0}',
        b'{"num_qubits": 1, "labels": [{"var": 1, "const": 0}], "gates": [], "output_qubit": 0}',
    ],
    ids=["int-too-large-for-float", "deep-nesting", "not-utf8", "var-and-const"],
)
def test_unreadable_circuit_files_exit_1_without_traceback(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "analyze", "-c", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("cases", ["0", "-5", "ten"])
def test_verify_lemmas_without_cases_is_a_usage_error(capsys, cases):
    # a sweep of no cases used to report "passed": true
    with pytest.raises(SystemExit) as err:
        main(["verify-lemmas", "--json", "--cases", cases])
    assert err.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cases: must be a positive integer" in captured.err


@pytest.mark.parametrize("seed", ["-1", "-1000000"])
def test_verify_lemmas_with_a_negative_seed_is_a_usage_error(capsys, seed):
    # numpy's own refusal used to exit 1 without naming the option
    with pytest.raises(SystemExit) as err:
        main(["verify-lemmas", "--json", "--cases", "2", "--seed", seed])
    assert err.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--seed: must be a non-negative integer, got '{seed}'" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "x"])
def test_squeeze_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, tol):
    # deviation > nan is never true: --tol nan used to turn verification off
    source = tmp_path / "two_path.json"
    write_circuit(two_path_example(), source)
    with pytest.raises(SystemExit) as err:
        main(["squeeze", "--json", "-c", str(source), f"--tol={tol}"])
    assert err.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol: must be a finite number >= 0" in captured.err


@pytest.mark.parametrize("options, code, message", [
    (["--block=1", "--rho=2=0,2=1"], 64, "--rho: variable 2 is assigned twice"),
    (["--block=1", "--rho=2=1,1=0"], 1, "only outside variables of the formula; got [1]"),
    (["--block=1", "--rho=2=1,9=1"], 1, "only outside variables of the formula; got [9]"),
    (["--block=1", "--rho=2=0,9=1"], 1, "only outside variables of the formula; got [9]"),
    (["--block="], 64, "--block: must name at least one variable"),
    (["--block=9", "--rho=1=0,2=1"], 1, "block names variables the formula does not use: [9]"),
    (["--block=0,1", "--rho=2=1"], 1, "block names variables the formula does not use: [0]"),
    (["--block=x"], 64, "--block: variables must be integers, got 'x'"),
    (["--block=1", "--rho=2"], 64, "--rho: each item must be VAR=BIT, got '2'"),
    (["--block=1", "--rho=2=x"], 64, "--rho: each item must be VAR=BIT, got '2=x'"),
    (["--block=1", "--rho=2=1=0"], 64, "--rho: each item must be VAR=BIT, got '2=1=0'"),
    (["--block=1", "--rho=2=2"], 64, "--rho: each item must be VAR=BIT, got '2=2'"),
    (["--block=1", "--rho=2=-1"], 64, "--rho: each item must be VAR=BIT, got '2=-1'"),
], ids=["repeated-variable", "block-variable", "unknown-variable", "unknown-variable-2-is-0",
        "empty-block",
        "unused-block-variable", "block-variable-zero", "non-integer-block", "rho-without-bit",
        "non-integer-bit", "rho-with-two-bits", "bit-two", "bit-minus-one"])
def test_squeeze_rejects_a_malformed_block_or_restriction(tmp_path, capsys, options, code, message):
    source = tmp_path / "two_path.json"
    write_circuit(two_path_example(), source)
    try:
        got = main(["squeeze", "--json", "-c", str(source), *options])
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, "")
    assert message in captured.err


def test_squeeze_with_a_block_and_its_restriction(tmp_path, capsys):
    source = tmp_path / "two_path.json"
    write_circuit(two_path_example(), source)
    for rho in ("--rho=2=0", "--rho= 2 = 1 "):
        code, out, _ = run_cli(capsys, "squeeze", "--json", "-c", str(source), "--block=1", rho)
        assert code == 0
        assert json.loads(out)["max_probability_deviation"] <= 1e-9


def stitched_formula(s):
    """A formula past the squeeze's line cap: corpus member 0 of
    ``formula_corpus(200, base_seed=200 s)``, restricted to its block,
    with members 1, 2, ... appended side by side, every variable set to
    0, until it has more than 24 lines; one Haar 2-qubit gate merges the
    head's output with each appended member's output."""
    corpus = formula_corpus(200, base_seed=200 * s)
    head = restrict(corpus[0].formula, corpus[0].block, corpus[0].restriction)
    labels, out = list(head.labels), head.output_qubit
    specs = [(g.targets, g.matrix) for g in head.gates]
    rng = np.random.default_rng(s)
    for member in corpus[1:]:
        if len(labels) > 24:
            break
        f, off = member.formula, len(labels)
        labels += [constant(0) if lb.is_variable else lb for lb in f.labels]
        specs += [(tuple(off + q for q in g.targets), g.matrix) for g in f.gates]
        specs.append(((out, off + f.output_qubit), random_unitary(4, rng)))
    return build_circuit(len(labels), labels, specs, out,
                         arity_bound=max(m.formula.arity_bound for m in corpus))


def test_squeeze_past_the_line_cap_exits_1_without_a_traceback(tmp_path, run_child):
    c = stitched_formula(0)
    assert c.num_qubits > 24 and is_formula(c)
    path = tmp_path / "stitched.json"
    write_circuit(c, path)
    # one segment has 23 companion lines: its 25-line register would take
    # 2 GiB, so the cap check must come first (the address space is capped
    # so that a missing check fails the test, not the host)
    done = run_child("-m", "qformula.cli", "squeeze", "--no-verify", "-c", str(path),
                     timeout=120, cap_memory=True)
    assert (done.returncode, done.stdout) == (1, "")
    # the message names the segment: the circuit has 25 lines too
    assert done.stderr == ("error: segment at steps 1-29 with 23 companion lines: "
                           "25 qubits exceeds the simulation cap 20\n")


@pytest.mark.parametrize("argv, code", [
    (["appendix", "-n", "1", "-N", "1", "-d", str(10 ** 12)], 1),
    (["equiv", "-n", "1", "-N", "2", "-d", str(10 ** 12)], 0),
], ids=["appendix", "equiv"])
def test_bounds_at_gate_arity_a_trillion_finish_quickly(capsys, argv, code):
    # mu = 2^(2d) N is never built, and C(2d, d) is taken from lgamma
    start = time.perf_counter()
    got, out, err = run_cli(capsys, "bounds", *argv, "--json")
    assert time.perf_counter() - start < 1.0
    assert got == code and "Traceback" not in err
    if code == 0:
        assert _strict_json(out)["log2_binomial_form"] == pytest.approx(2 * 2e12, rel=1e-9)
    else:
        assert out == "" and err.startswith("error: ") and "past the float range" in err


@pytest.mark.parametrize("argv, code", [
    (["appendix", "-n", "1", "-N", "1", "-d", "600"], 1),
    (["appendix", "-n", "1", "-N", "1", "-d", str(10 ** 12)], 1),
    (["equiv", "-n", "1", "-N", "2", "-d", str(10 ** 12), "--json"], 0),
    (["appendix", "-n", str(10 ** 12), "-N", str(10 ** 12), "-d", "1", "--json"], 0),
], ids=["appendix-d-600", "appendix-d-trillion", "equiv-d-trillion", "appendix-n-trillion"])
def test_bounds_far_past_the_float_range_end_cleanly_under_a_2_gb_cap(run_child, argv, code):
    # at d = 600, t = 2 mu = 2^1201 has a log2 past the float range itself;
    # at d = 10^12, mu = 2^(2d) N would be a 250 GB integer and C(2d, d) a
    # sum of 10^12 terms; at n = 10^12, m = 2^(n+1) would be 125 GB
    done = run_child("-m", "qformula.cli", "bounds", *argv, timeout=10, cap_memory=True)
    assert done.returncode == code and "Traceback" not in done.stderr
    if code:
        assert done.stdout == "" and re.search("^error: ", done.stderr, re.MULTILINE)
    else:
        _strict_json(done.stdout)


def test_appendix_output_is_pinned(capsys):
    # the bytes printed before m = 2^(n+1) was replaced by its log2, n + 1
    code, out, _ = run_cli(capsys, "bounds", "appendix", "-n", "16", "-N", "128", "--json")
    assert code == 0
    assert out == (
        '{"log2_class_count": 1919.277239917934, "log2_sign_factor": 91925.2788874812, '
        '"log2_total": 93844.55612739913, "mu": 2048, "sign_factor": null, "total": null}\n')


def test_appendix_at_a_trillion_variables_finishes_quickly(capsys):
    # m = 2^(n+1) would be a 125 GB integer; only log2 m = n + 1 is used
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "appendix", "-n", str(10 ** 12),
                             "-N", str(10 ** 12), "-d", "1", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "Traceback" not in err
    payload = _strict_json(out)
    assert payload["mu"] == 4 * 10 ** 12 and payload["total"] is None
    assert payload["log2_sign_factor"] == pytest.approx(8e24, rel=1e-9)


def test_ed_check_and_emit_build_the_table_once(tmp_path, capsys, monkeypatch):
    from qformula import cli, nechiporuk

    built, original = [], nechiporuk.ed_function

    def counted(ell):
        built.append(ell)
        return original(ell)

    monkeypatch.setattr(cli, "ed_function", counted)
    monkeypatch.setattr(nechiporuk, "ed_function", counted)
    code, out, _ = run_cli(capsys, "ed", "--ell", "3", "--check", "--emit",
                           "--dir", str(tmp_path), "--json")
    assert code == 0
    assert built == [3]
    assert json.loads(out)["sigmas"] == [121] * 3
    assert (tmp_path / "ed12.tt").read_text().split("\n")[1] == original(3).to_string()
    built.clear()
    assert run_cli(capsys, "ed", "--ell", "3")[0] == 0
    assert built == []  # neither flag: no table


# every integer option of every subcommand that takes one, drawn from
# small values, 0, negatives, 600 and +-10^6, or left out; verify-lemmas
# costs time linear in --cases, so that one is drawn small
_INTS = st.none() | st.integers(-3, 12) | st.sampled_from([-10 ** 6, 600, 10 ** 6])
_INT_OPTIONS = {
    ("ed",): {"--ell": _INTS},
    ("bounds", "warren"): {"-m": _INTS, "-t": _INTS, "--deg": _INTS},
    ("bounds", "appendix"): {"-n": _INTS, "-N": _INTS, "-d": _INTS},
    ("bounds", "equiv"): {"-n": _INTS, "-N": _INTS, "-d": _INTS, "--n-prime": _INTS},
    ("enumerate",): {"-n": _INTS, "-N": _INTS, "--qubits": _INTS, "--arity": _INTS},
    ("verify-lemmas",): {"--seed": _INTS, "--cases": st.none() | st.integers(-3, 4)},
}


@st.composite
def integer_argv(draw):
    command = draw(st.sampled_from(sorted(_INT_OPTIONS)))
    argv = list(command)
    for option, values in _INT_OPTIONS[command].items():
        value = draw(values)
        argv += [] if value is None else [option, str(value)]
    if command == ("ed",) and draw(st.booleans()):
        argv.append("--check")
    return argv + (["--json"] if draw(st.booleans()) else [])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_argv())
@example(["bounds", "appendix", "-n", "1", "-N", "1", "-d", "600"])
@example(["bounds", "appendix", "-n", "1", "-N", "1", "-d", "1000000", "--json"])
@example(["bounds", "equiv", "-n", "1", "-N", "1000000", "-d", "1000000", "--json"])
def test_integer_options_exit_with_a_documented_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)  # any other exception fails the test: a traceback
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 64)
    assert "Traceback" not in err.getvalue()
    if "--json" in argv and (code == 0 or out.getvalue()):
        _strict_json(out.getvalue())


# the string options, drawn from the characters their parsers split on,
# bits, a variable the sample lacks and junk, or left out
_STRINGS = st.text("0129x=,; -", max_size=8)


@st.composite
def string_options(draw):
    if draw(st.booleans()):
        options = ["simulate", f"--assignment={draw(_STRINGS)}"]
    else:
        options = ["squeeze"]
        for option in ("--block", "--rho"):
            value = draw(st.none() | _STRINGS)
            options += [] if value is None else [f"{option}={value}"]
    return options + (["--json"] if draw(st.booleans()) else [])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(string_options())
@example(["squeeze", "--block=1", "--rho=2=0,2=1"])
@example(["squeeze", "--block=1", "--rho=2=1,1=0"])
@example(["squeeze", "--block=1", "--rho=2=1,9=1", "--json"])
@example(["squeeze", "--block="])
@example(["squeeze", "--block=9", "--rho=1=0,2=1"])
@example(["squeeze", "--block=x"])
@example(["squeeze", "--block=1", "--rho=2"])
@example(["squeeze", "--block=1", "--rho=2=2"])
@example(["simulate", "--assignment=01x", "--json"])
def test_string_options_exit_with_a_documented_code_and_no_traceback(tmp_path_factory, options):
    source = tmp_path_factory.getbasetemp() / "string_options.json"
    if not source.exists():
        write_circuit(two_path_example(), source)
    argv = [options[0], "-c", str(source), *options[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)  # any other exception fails the test: a traceback
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 64)
    assert "Traceback" not in err.getvalue()
    assert "_parse_" not in err.getvalue()  # a message names the problem, not a parser
    if code:
        assert out.getvalue() == ""
    elif "--json" in argv:
        _strict_json(out.getvalue())
