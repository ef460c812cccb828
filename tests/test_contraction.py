"""The batched evaluation paths against the per-assignment state vector.

``contract_formula`` (tree contraction) and the batched
``probability_vector`` must reproduce ``run`` assignment by assignment,
and ``evaluate`` must give the verdict of a per-assignment ``run`` scan.
"""
import itertools

import numpy as np
import pytest

from qformula import (
    build_circuit,
    constant,
    contract_formula,
    evaluate,
    is_formula,
    probability_vector,
    restrict,
    run,
    squeeze_all,
    variable,
)
from qformula import simulator
from qformula.gates import CNOT, H, SWAP, random_unitary
from qformula.samples import formula_example, nonformula_example, toffoli_and_circuit
from qformula.simulator import SimulationError, decide, verdict

TOL = 1e-12


def alphas(n):
    return list(itertools.product((0, 1), repeat=n))


def run_probabilities(circuit):
    return np.array([run(circuit, a)[1].p1 for a in alphas(circuit.num_variables)])


def scan_verdict(circuit, table):
    """The threshold scan of one ``run`` per assignment, in index order."""
    for idx, alpha in enumerate(alphas(circuit.num_variables)):
        p = run(circuit, alpha)[1].p1
        if 1 / 3 <= p <= 2 / 3:
            return "undetermined", alpha, p
        if (p > 2 / 3) != (table[idx] == 1):
            return "fails", alpha, p
    return "computes", None, None


def assert_same_verdict(circuit, table):
    got = evaluate(circuit, table)
    status, alpha, p = scan_verdict(circuit, table)
    assert (got.status, got.alpha) == (status, alpha)
    if p is not None:
        assert abs(got.p - p) <= TOL


def random_general(rng, m, n, num_gates):
    """A random circuit over n variables (each on at least one line)."""
    labels = [variable(j + 1) for j in range(n)]
    labels += [variable(int(rng.integers(1, n + 1))) if rng.random() < 0.5
               else constant(int(rng.integers(0, 2))) for _ in range(m - n)]
    rng.shuffle(labels)
    specs = []
    for _ in range(num_gates):
        k = int(rng.integers(1, 3))
        targets = tuple(int(q) for q in rng.choice(m, size=k, replace=False))
        specs.append((targets, random_unitary(2 ** k, rng)))
    return build_circuit(m, labels, specs, output_qubit=int(rng.integers(0, m)))


def near_identity(rng, dim, eps):
    """exp(i eps H) for a random Hermitian H of spectral norm 1."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (z + z.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w /= np.max(np.abs(w))
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def permutation_formula(rng, num_lines, num_vars):
    """A tree of 2-qubit permutation gates, each nudged by exp(i eps H).

    Returns the circuit and the truth table of its classical skeleton;
    the nudges total 0.1, so every p stays on its skeleton bit's side.
    """
    labels = [variable(j % num_vars + 1) if j < 2 * num_vars
              else constant(int(rng.integers(0, 2))) for j in range(num_lines)]
    rng.shuffle(labels)
    open_lines = list(range(num_lines))
    eps = 0.1 / (num_lines - 1)
    specs, skeleton = [], []
    while len(open_lines) > 1:
        a, b = (int(q) for q in rng.choice(open_lines, size=2, replace=False))
        perm = rng.permutation(4)
        matrix = np.eye(4)[perm].T @ near_identity(rng, 4, eps)  # |i> -> |perm[i]>
        specs.append(((a, b), matrix))
        skeleton.append((a, b, perm))
        open_lines.remove(b if rng.random() < 0.5 else a)
    circuit = build_circuit(num_lines, labels, specs, output_qubit=open_lines[0])
    table = []
    for alpha in alphas(num_vars):
        bits = [alpha[lb.var - 1] if lb.var is not None else lb.const for lb in labels]
        for a, b, perm in skeleton:
            out = int(perm[2 * bits[a] + bits[b]])
            bits[a], bits[b] = out >> 1, out & 1
        table.append(bits[open_lines[0]])
    return circuit, np.array(table)


# ---------------------------------------------------------------------------
# differential: contraction and batched state vector against run


def test_contraction_matches_run_on_corpus_restrictions_and_squeezes(corpus):
    arities = set()
    for member in corpus:
        restricted = restrict(member.formula, member.block, member.restriction)
        squeezed = squeeze_all(restricted, member.block).circuit
        arities |= {g.arity for g in squeezed.gates}
        for circuit in (member.formula, restricted, squeezed):
            assert is_formula(circuit)
            expected = run_probabilities(circuit)
            assert np.max(np.abs(contract_formula(circuit) - expected)) <= TOL
            assert np.max(np.abs(probability_vector(circuit) - expected)) <= TOL
    assert 6 in arities  # squeezed outputs carry arity-6 messages


def test_contraction_with_untouched_output_line():
    c = build_circuit(
        3, [variable(1), variable(2), constant(1)], [((0,), H), ((0, 2), CNOT)],
        output_qubit=1,
    )
    assert is_formula(c)
    assert list(contract_formula(c)) == [0.0, 1.0, 0.0, 1.0]
    constant_output = build_circuit(2, [variable(1), constant(1)], [((0,), H)], output_qubit=1)
    assert list(contract_formula(constant_output)) == [1.0, 1.0]


def test_contraction_with_double_edge_and_gates_outside_the_graph():
    rng = np.random.default_rng(5)
    u = lambda k: random_unitary(2 ** k, rng)
    c = build_circuit(
        5,
        [variable(1), variable(2), constant(0), variable(1), constant(1)],
        [
            ((0, 1), u(2)),  # child: both outputs feed the next gate
            ((1, 0), u(2)),  # parent of a double edge, targets reversed
            ((3,), u(1)),  # outside the graph
            ((1, 2), u(2)),  # root; line 0 is left behind
            ((0, 3), u(2)),  # outside the graph, after the root
            ((4, 3), u(2)),
        ],
        output_qubit=2,
    )
    assert is_formula(c)
    assert np.max(np.abs(contract_formula(c) - run_probabilities(c))) <= TOL


def test_contraction_rejects_non_formula():
    with pytest.raises(simulator.NotAFormulaError):
        contract_formula(nonformula_example())


def test_contraction_chunks_agree(monkeypatch):
    rng = np.random.default_rng(8)
    c, _ = permutation_formula(rng, 10, 5)
    whole = contract_formula(c)
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", 16)  # one assignment per batch
    assert np.max(np.abs(contract_formula(c) - whole)) <= TOL
    assert np.max(np.abs(whole - run_probabilities(c))) <= TOL


def test_batched_state_vector_spans_several_chunks():
    rng = np.random.default_rng(21)
    for m, n in ((12, 5), (11, 6), (13, 4)):
        c = random_general(rng, m, n, num_gates=25)
        assert 2 ** n > max(1, simulator.CHUNK_AMPLITUDES >> m)
        expected = run_probabilities(c)
        assert np.max(np.abs(probability_vector(c) - expected)) <= TOL


# ---------------------------------------------------------------------------
# evaluate: dispatch, verdicts and the line cap


def test_evaluate_matches_run_scan_on_formulas(corpus):
    for member in corpus[:40]:
        restricted = restrict(member.formula, member.block, member.restriction)
        for circuit in (member.formula, restricted):
            p = run_probabilities(circuit)
            table = (p > 0.5).astype(int)
            assert_same_verdict(circuit, table)
            assert_same_verdict(circuit, 1 - table)
    for circuit in (formula_example(), toffoli_and_circuit()):
        for table in itertools.product((0, 1), repeat=2 ** circuit.num_variables):
            assert_same_verdict(circuit, np.array(table))


def test_evaluate_matches_run_scan_on_general_circuits():
    rng = np.random.default_rng(3)
    generated = [random_general(rng, 6, 4, 30) for _ in range(8)]
    circuits = [nonformula_example()] + [c for c in generated if not is_formula(c)]
    assert len(circuits) >= 5
    for circuit in circuits:
        p = run_probabilities(circuit)
        table = (p > 0.5).astype(int)
        assert_same_verdict(circuit, table)
        assert_same_verdict(circuit, 1 - table)


def test_formula_past_the_line_cap_evaluates_by_contraction():
    rng = np.random.default_rng(24)
    c, table = permutation_formula(rng, 24, 8)
    assert c.num_qubits == 24 and c.num_variables == 8
    assert sum(lb.var is not None for lb in c.labels) == 16  # every variable twice
    assert is_formula(c)
    assert evaluate(c, table).computes
    flipped = table.copy()
    flipped[77] ^= 1
    got = evaluate(c, flipped)
    assert got.status == "fails" and got.alpha == tuple(int(b) for b in format(77, "08b"))
    with pytest.raises(SimulationError, match="cap"):
        run(c, [0] * 8)
    with pytest.raises(SimulationError, match="cap"):
        probability_vector(c)


def test_non_formula_keeps_the_line_cap():
    c = build_circuit(21, [variable(1)] + [constant(0)] * 20,
                      [((0, 1), CNOT), ((0, 2), CNOT), ((1, 2), SWAP)], output_qubit=2)
    assert not is_formula(c)
    with pytest.raises(SimulationError, match="cap"):
        evaluate(c, [0, 1])


def test_decide_and_verdict_rule():
    p = np.array([0.0, 1 / 3, 0.5, 2 / 3, 1.0, np.nan, 0.2, 0.9])
    assert list(decide(p)) == [0, -1, -1, -1, 1, -1, 0, 1]
    assert verdict([0.1, 0.9], [0, 1]).computes
    v = verdict([0.1, 0.9, 0.95, 0.5, 0.5, 0.0, 0.0, 0.0], [0, 1, 0, 0, 0, 0, 0, 0])
    assert (v.status, v.alpha, v.p) == ("fails", (0, 1, 0), 0.95)
    v = verdict([0.1, 0.5], [0, 1])
    assert (v.status, v.alpha, v.p) == ("undetermined", (1,), 0.5)


# ---------------------------------------------------------------------------
# the threshold boundary


def rotation_formula(p0):
    """One line x1 under a y-rotation: p = p0 on x1=0 and 1 - p0 on x1=1."""
    s, c = np.sqrt(p0), np.sqrt(1 - p0)
    return build_circuit(1, [variable(1)], [((0,), np.array([[c, -s], [s, c]]))], output_qubit=0)


@pytest.fixture
def run_calls(monkeypatch):
    calls = []
    real_run = simulator.run

    def counting_run(circuit, assignment, **kwargs):
        calls.append(tuple(assignment))
        return real_run(circuit, assignment, **kwargs)

    monkeypatch.setattr(simulator, "run", counting_run)
    return calls


@pytest.mark.parametrize(
    "offset, status",
    [(-5e-13, "computes"), (5e-13, "undetermined")],
    ids=["just-outside-the-band", "just-inside-the-band"],
)
def test_p_within_1e_12_of_a_threshold_is_redecided_by_run(run_calls, offset, status):
    c = rotation_formula(1 / 3 + offset)
    got = evaluate(c, [0, 1])
    assert run_calls == [(0,), (1,)]  # p0 near 1/3, p1 near 2/3
    assert got.status == status == scan_verdict(c, [0, 1])[0]


def test_p_outside_the_guard_window_is_not_redecided(run_calls):
    c = rotation_formula(1 / 3 - 1e-11)
    assert evaluate(c, [0, 1]).computes
    assert run_calls == []


@pytest.mark.parametrize("true_offset", [-1e-13, 1e-13])
def test_boundary_verdict_follows_the_state_vector(monkeypatch, true_offset):
    c = rotation_formula(1 / 3 + true_offset)
    real = contract_formula(c)
    # a contraction that lands on the other side of 1/3 than run does
    monkeypatch.setattr(simulator, "contract_formula", lambda circuit: real - 2 * true_offset)
    got = evaluate(c, [0, 1])
    expected = scan_verdict(c, [0, 1])
    assert (got.status, got.alpha) == expected[:2]


# ---------------------------------------------------------------------------
# drift checks in both batched paths


def _force_matrix(circuit, index, matrix):
    """Swap a gate's matrix after the circuit passed its check."""
    circuit.check()
    object.__setattr__(circuit.gates[index], "matrix", np.asarray(matrix, dtype=complex))


def test_contraction_raises_on_root_trace_drift():
    c = build_circuit(
        3, [variable(1), variable(2), constant(0)], [((0, 2), CNOT), ((1, 2), CNOT)],
        output_qubit=2,
    )
    _force_matrix(c, 1, np.diag([1, 1, 1, 1.5]) @ CNOT)  # grows only when x2 = 1
    with pytest.raises(SimulationError, match="root trace drifted .* at assignment 01"):
        contract_formula(c)
    with pytest.raises(SimulationError, match="root trace drifted"):
        evaluate(c, [0, 1, 1, 0])


def test_batched_state_vector_raises_on_norm_drift():
    c = nonformula_example()
    c.check()
    shrink = c.gates[1].matrix @ np.diag([1, 1, 1, 0.5])  # input x1 = x2 = 1
    _force_matrix(c, 1, shrink)
    with pytest.raises(SimulationError, match="state norm drifted .* at assignment 11"):
        probability_vector(c)
    with pytest.raises(SimulationError, match="state norm drifted"):
        evaluate(c, [0, 0, 0, 0])
