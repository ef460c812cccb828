"""The batched evaluation paths against the per-assignment state vector.

``contract_formula`` (tree contraction), the pruned, fused state vector
and the batched ``probability_vector`` must reproduce ``run`` assignment
by assignment, and ``evaluate`` must give the verdict of a
per-assignment ``run`` scan.
"""
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qformula
from qformula import (
    Gate,
    build_circuit,
    computation_graph,
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
from qformula.gates import CNOT, H, SWAP, TOFFOLI, random_unitary
from qformula.samples import formula_example, nonformula_example, toffoli_and_circuit
from qformula.simulator import (
    SimulationError,
    _apply,
    _fused_schedule,
    _probabilities,
    decide,
    verdict,
)

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
# the pruned, fused state vector and the sliced kernel


def fused_probabilities(circuit):
    return _probabilities(circuit, _fused_schedule(circuit))


def assert_schedule_invariants(circuit):
    """Blocks within the line cap; the cone keeps exactly the gates that meet it."""
    graph_steps = computation_graph(circuit).gate_steps  # the light cone
    kept = [g for g in circuit.gates if g.step in graph_steps]
    assert [g.step for g in kept] == sorted(g.step for g in kept)
    for gate in circuit.gates:  # kept exactly when it meets the later kept gates' cone
        cone = {circuit.output_qubit}.union(*(k.targets for k in kept if k.step > gate.step))
        assert any(gate is k for k in kept) != cone.isdisjoint(gate.targets)
    blocks = _fused_schedule(circuit)  # a block past the cap is one kept gate
    assert all(b.arity <= simulator.FUSED_LINES or any(b is g for g in kept) for b in blocks)
    assert len(blocks) <= len(kept)
    return kept, blocks


def test_fused_path_matches_the_oracle_on_the_nonformula_example():
    c = nonformula_example()
    kept, blocks = assert_schedule_invariants(c)
    assert len(kept) == 4 and len(blocks) == 1 and blocks[0].targets == (0, 1, 2, 3)
    assert np.max(np.abs(fused_probabilities(c) - probability_vector(c))) <= TOL


def test_fused_path_matches_the_oracle_on_wide_general_circuits():
    rng = np.random.default_rng(31)
    for m, n, gates in ((12, 10, 60), (12, 5, 40), (9, 6, 30), (7, 4, 25)):
        c = random_general(rng, m, n, gates)
        kept, blocks = assert_schedule_invariants(c)
        assert len(blocks) < len(kept)
        assert np.max(np.abs(fused_probabilities(c) - probability_vector(c))) <= TOL


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 6])
def test_fused_path_matches_the_oracle_at_every_block_cap(monkeypatch, cap):
    monkeypatch.setattr(simulator, "FUSED_LINES", cap)
    c = random_general(np.random.default_rng(32), 8, 5, 30)
    assert_schedule_invariants(c)
    assert np.max(np.abs(fused_probabilities(c) - probability_vector(c))) <= TOL


def test_fused_path_with_untouched_output_line():
    c = build_circuit(
        4, [variable(1), variable(2), constant(1), variable(1)],
        [((0, 1), CNOT), ((1, 2), CNOT), ((0, 2), CNOT), ((1, 0), SWAP)],
        output_qubit=3,
    )
    assert computation_graph(c).gate_steps == () and _fused_schedule(c) == []
    assert list(fused_probabilities(c)) == [0.0, 0.0, 1.0, 1.0]
    assert list(probability_vector(c)) == [0.0, 0.0, 1.0, 1.0]


def test_gates_after_the_last_one_on_the_cone_are_dropped():
    rng = np.random.default_rng(33)
    u = lambda k: random_unitary(2 ** k, rng)
    core = nonformula_example()
    c = build_circuit(
        6, [*core.labels, variable(2), constant(0)],
        [*((g.targets, g.matrix) for g in core.gates),
         ((0, 4), u(2)), ((4, 5), u(2)), ((1, 2, 5), u(3)), ((2,), u(1))],
        output_qubit=3, arity_bound=3,
    )
    assert not is_formula(c)
    kept, _ = assert_schedule_invariants(c)
    assert [g.step for g in kept] == [1, 2, 3, 4]  # the last four gates drop out
    assert np.max(np.abs(fused_probabilities(c) - run_probabilities(c))) <= TOL
    assert np.max(np.abs(fused_probabilities(c) - probability_vector(c))) <= TOL


@pytest.mark.parametrize("cap", [1, 16, 64])
def test_sliced_kernel_matches_the_unsliced_kernel(monkeypatch, cap):
    rng = np.random.default_rng(34)
    tensor = rng.normal(size=[2] * 6 + [3, 4]) + 1j * rng.normal(size=[2] * 6 + [3, 4])
    gates = [Gate(1, targets, random_unitary(2 ** len(targets), rng))
             for targets in ((0,), (5,), (2, 4), (4, 2), (0, 1), (3, 1, 5), (0, 1, 2))]
    whole = [_apply(tensor, g) for g in gates]
    monkeypatch.setattr("qformula.gates.BLAS_SLICE_MACS", cap)
    for gate, expected in zip(gates, whole):
        assert np.max(np.abs(_apply(tensor, gate) - expected)) <= 1e-15
        buffer = tensor.copy()  # written in place, as the batched paths do
        assert np.max(np.abs(_apply(buffer, gate, buffer) - expected)) <= 1e-15


def test_sliced_kernel_keeps_every_simulator_on_the_oracle(monkeypatch):
    c = random_general(np.random.default_rng(35), 6, 4, 20)
    formula, _ = permutation_formula(np.random.default_rng(36), 8, 4)
    expected = [probability_vector(c), fused_probabilities(c), contract_formula(formula)]
    monkeypatch.setattr("qformula.gates.BLAS_SLICE_MACS", 4)
    got = [probability_vector(c), fused_probabilities(c), contract_formula(formula)]
    assert all(np.max(np.abs(a - b)) <= 1e-15 for a, b in zip(got, expected))


@pytest.mark.parametrize("sliced", [False, True], ids=["whole", "forced-slices"])
def test_kernel_with_scratch_is_bit_identical(monkeypatch, sliced):
    if sliced:
        monkeypatch.setattr("qformula.gates.BLAS_SLICE_MACS", 4)
    rng = np.random.default_rng(37)
    tensor = rng.normal(size=[2] * 7 + [3]) + 1j * rng.normal(size=[2] * 7 + [3])
    scratch = np.full(tensor.size + 5, np.nan, complex)  # larger than needed
    for arity in range(1, 7):
        targets = tuple(int(q) for q in rng.permutation(7)[:arity])
        gate = Gate(1, targets, random_unitary(2 ** arity, rng))
        expected = _apply(tensor, gate)
        assert np.array_equal(_apply(tensor, gate, scratch=scratch), expected)
        buffer = tensor.copy()
        assert np.array_equal(_apply(buffer, gate, buffer, scratch), expected)


# prints OpenBLAS's own thread count (None without the symbol) and the cap
_CAP_PROBE = """
import ctypes, json, os, sys
if sys.argv[1:] == ["one-cpu"]:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy
from qformula import gates
paths = [line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line]
count = getattr(ctypes.CDLL(paths[0]), "scipy_openblas_get_num_threads64_", None) if paths else None
if count:
    count.argtypes, count.restype = [], ctypes.c_int
print(json.dumps([count and count(), gates.BLAS_SLICE_MACS]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs Linux CPU affinity")
@pytest.mark.parametrize("setting", [
    {}, {"OMP_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, "one-cpu",
], ids=["unset", "omp-1", "openblas-2-omp-1", "one-cpu"])
def test_products_are_sliced_exactly_when_openblas_may_thread(setting):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(qformula.__file__).parents[1])
    argv = [sys.executable, "-c", _CAP_PROBE]
    if setting == "one-cpu":
        argv.append(setting)
    else:
        env.update(setting)
    count, cap = json.loads(subprocess.run(argv, env=env, capture_output=True, text=True,
                                           check=True).stdout)
    if count is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    assert (cap is not None) == (count > 1)


def counted_batches(monkeypatch):
    """Count the batches the step-order state vector runs, one ``_evolve`` call each."""
    calls = []
    real = simulator._evolve

    def counting(circuit, gates, lo, hi, *args):
        calls.append(hi - lo)
        return real(circuit, gates, lo, hi, *args)

    monkeypatch.setattr(simulator, "_evolve", counting)
    return calls


def kernel_calls(monkeypatch):
    """Record (step, state size) of every ``_apply`` call."""
    calls = []
    real = simulator._apply

    def counting(tensor, gate, *args):
        calls.append((gate.step, tensor.size))
        return real(tensor, gate, *args)

    monkeypatch.setattr(simulator, "_apply", counting)
    return calls


@pytest.mark.parametrize("seed", [41, 39], ids=["cone-is-every-line", "cone-is-7-lines"])
@pytest.mark.parametrize("per_batch", [1, 4, 2 ** 5], ids=["one", "several", "single-batch"])
def test_pruned_path_matches_the_oracle_at_every_batch_size(monkeypatch, seed, per_batch):
    c = random_general(np.random.default_rng(seed), 8, 5, 30)
    expected = probability_vector(c)
    blocks = _fused_schedule(c)
    lines = {q for b in blocks for q in b.targets} | {c.output_qubit}
    scanned = 2 ** len({c.labels[q].var for q in lines} - {None})
    calls = kernel_calls(monkeypatch)
    monkeypatch.setattr(simulator, "PRUNED_AMPLITUDES", per_batch << len(lines))
    assert np.max(np.abs(_probabilities(c, blocks) - expected)) <= TOL
    # no state exceeds the budget; the last block, on every cone line,
    # holds min(per_batch, scanned) assignments as batch axes and runs
    # once per value of the variables that branch
    assert max(size for _, size in calls) <= simulator.PRUNED_AMPLITUDES
    last = [size for step, size in calls if step == blocks[-1].step]
    assert last == [min(per_batch, scanned) << len(lines)] * max(1, scanned // per_batch)


def cone_with_idle_line():
    """``nonformula_example`` on lines 1-4, its variables renamed x1 and
    x3; x2 sits on line 0, which only a gate outside the cone touches,
    and on the idle line 6."""
    labels = [variable(2), variable(1), variable(3), constant(0), variable(1), constant(0),
              variable(2)]
    return build_circuit(
        7, labels,
        [((0, 5), CNOT), ((2, 3, 4), TOFFOLI), ((1, 2), CNOT), ((2, 3), CNOT), ((3, 4), SWAP),
         ((5,), H)],
        output_qubit=4, arity_bound=3,
    )


def test_pruned_path_scans_only_the_cone_variables(monkeypatch):
    c = cone_with_idle_line()
    assert not is_formula(c)
    assert computation_graph(c).gate_steps == (2, 3, 4, 5)
    p = probability_vector(c)
    assert np.max(np.abs(fused_probabilities(c) - p)) <= TOL
    assert np.array_equal(p.reshape(2, 2, 2)[:, 0], p.reshape(2, 2, 2)[:, 1])  # not on x2
    calls = kernel_calls(monkeypatch)
    monkeypatch.setattr(simulator, "PRUNED_AMPLITUDES", 2 ** 4)  # the 4 cone lines, no batch
    table = (p > 0.5).astype(int)
    for bits in (table, 1 - table):
        calls.clear()
        got = evaluate(c, bits)
        # the one block runs over x1 and x3, not 8 times over x1, x2 and x3;
        # fusing it acts on a 2^4 x 2^4 identity, 2^8 entries
        assert [call for call in calls if call[1] < 2 ** 8] == [(5, 2 ** 4)] * 4
        assert (got.status, got.alpha) == scan_verdict(c, bits)[:2]
    batches = counted_batches(monkeypatch)
    probability_vector(c)
    assert sum(batches) == 8


def test_pruned_path_names_the_first_drifting_assignment_in_full_scan_order():
    c = cone_with_idle_line()
    # shrinks when line 1 is 1, i.e. x1 = 1: the first such assignment is 100,
    # though it is scan index 2 (binary 10) over the cone's x1, x3
    _force_matrix(c, 2, CNOT @ np.diag([1, 1, 0.5, 0.5]))
    assert any(b.targets == (1, 2, 3, 4) for b in _fused_schedule(c))
    for simulate in (fused_probabilities, probability_vector, lambda c: evaluate(c, [0] * 8)):
        with pytest.raises(SimulationError, match="state norm drifted .* at assignment 100"):
            simulate(c)


def lines_joining_late():
    """x1 on lines 0 and 3, which join at the first and the third block of
    the cone; the constant lines 2 and 5 join at the third and the fourth
    (the gate on lines 2 and 0 feeds nothing and drops out)."""
    rng = np.random.default_rng(44)
    return build_circuit(
        6, [variable(1), variable(2), constant(1), variable(1), variable(3), constant(0)],
        [((0, 1), random_unitary(4, rng)), ((1, 4), random_unitary(4, rng)),
         ((3, 2), random_unitary(4, rng)), ((2, 0), random_unitary(4, rng)),
         ((4, 5), random_unitary(4, rng)), ((5, 3), random_unitary(4, rng))],
        output_qubit=3,
    )


def untouched_output_line():
    """The output line x2 meets no gate; x1's lines sit outside the cone."""
    rng = np.random.default_rng(45)
    return build_circuit(
        3, [variable(1), variable(2), variable(1)], [((0, 2), random_unitary(4, rng))],
        output_qubit=1,
    )


LAZY_CASES = {
    "variable-and-constants-join-late": lines_joining_late,
    "untouched-output-line": untouched_output_line,
    "variables-outside-the-cone": cone_with_idle_line,
}


@pytest.mark.parametrize("budget", [1, 2 ** 20], ids=["every-variable-branches", "none-branches"])
@pytest.mark.parametrize("make", LAZY_CASES.values(), ids=LAZY_CASES.keys())
def test_lines_join_the_pruned_state_at_their_first_block(monkeypatch, make, budget):
    c = make()
    expected = probability_vector(c)
    monkeypatch.setattr(simulator, "FUSED_LINES", 2)  # one block per gate
    blocks = _fused_schedule(c)
    calls = kernel_calls(monkeypatch)
    monkeypatch.setattr(simulator, "PRUNED_AMPLITUDES", budget)
    assert np.max(np.abs(_probabilities(c, blocks) - expected)) <= TOL
    # block i acts on the lines joined so far and once per value of the
    # variables joined so far: as many runs when they branch, one run
    # with them as batch axes when none does
    for i, block in enumerate(blocks):
        lines = {q for b in blocks[:i + 1] for q in b.targets}
        joined = 2 ** len({c.labels[q].var for q in lines} - {None})
        runs = [size for step, size in calls if step == block.step]
        assert runs == ([2 ** len(lines)] * joined if budget == 1 else [joined << len(lines)])


@pytest.mark.parametrize("budget", [1, 2 ** 20], ids=["every-variable-branches", "none-branches"])
def test_lazy_path_names_the_first_drifting_assignment_at_any_budget(monkeypatch, budget):
    c = lines_joining_late()
    _force_matrix(c, 2, c.gates[2].matrix @ np.diag([1, 1, 0.5, 0.5]))  # line 3 is 1: x1 = 1
    monkeypatch.setattr(simulator, "PRUNED_AMPLITUDES", budget)
    with pytest.raises(SimulationError, match="state norm drifted .* at assignment 100"):
        fused_probabilities(c)


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


def test_non_formula_keeps_the_line_cap_on_its_cone():
    # a CNOT ladder carries line 2 to line 20: the cone holds all 21 lines
    ladder = [((q, q + 1), CNOT) for q in range(2, 20)]
    c = build_circuit(21, [variable(1)] + [constant(0)] * 20,
                      [((0, 1), CNOT), ((0, 2), CNOT), ((1, 2), SWAP)] + ladder, output_qubit=20)
    assert not is_formula(c)
    assert len(computation_graph(c).gate_steps) == len(c.gates)
    with pytest.raises(SimulationError, match="21 qubits exceeds the simulation cap 20"):
        evaluate(c, [0, 1])


def test_non_formula_past_the_line_cap_with_a_small_cone_evaluates():
    # lines 3..20 are idle: the cone holds lines 0-2 only
    c = build_circuit(21, [variable(1)] + [constant(0)] * 20,
                      [((0, 1), CNOT), ((0, 2), CNOT), ((1, 2), SWAP)], output_qubit=2)
    assert not is_formula(c)
    expected = probability_vector(c, max_qubits=21)
    assert list(expected) == [0.0, 1.0]
    assert np.max(np.abs(fused_probabilities(c) - expected)) <= TOL
    assert evaluate(c, [0, 1]).computes
    got = evaluate(c, [0, 0])
    assert (got.status, got.alpha, got.p) == ("fails", (1,), 1.0)
    with pytest.raises(SimulationError, match="cap"):
        probability_vector(c)


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


def rotation_nonformula(p0):
    """``rotation_formula`` on line 0, then gates that leave line 0's
    marginal alone but reconverge: p is still p0 or 1 - p0."""
    s, c = np.sqrt(p0), np.sqrt(1 - p0)
    return build_circuit(
        3, [variable(1), constant(0), constant(0)],
        [((0,), np.array([[c, -s], [s, c]])), ((0, 1), CNOT), ((1, 2), CNOT),
         ((0, 2), np.diag([1, 1, 1, -1]))],
        output_qubit=0,
    )


@pytest.mark.parametrize(
    "offset, status",
    [(-5e-13, "computes"), (5e-13, "undetermined")],
    ids=["just-outside-the-band", "just-inside-the-band"],
)
def test_non_formula_p_within_1e_12_of_a_threshold_is_redecided_by_run(
    run_calls, offset, status
):
    c = rotation_nonformula(1 / 3 + offset)
    assert not is_formula(c)
    assert np.max(np.abs(fused_probabilities(c) - [1 / 3 + offset, 2 / 3 - offset])) <= TOL
    got = evaluate(c, [0, 1])
    assert run_calls == [(0,), (1,)]
    assert got.status == status == scan_verdict(c, [0, 1])[0]


def swap_nonformula(p0, width):
    """x1 copied onto lines 1 and 2, which a SWAP reconverges, then rotated
    on the output line 2: p is p0 or 1 - p0.  Lines past the third are
    idle constants, outside the light cone."""
    s, c = np.sqrt(p0), np.sqrt(1 - p0)
    return build_circuit(
        width, [variable(1)] + [constant(0)] * (width - 1),
        [((0, 1), CNOT), ((0, 2), CNOT), ((1, 2), SWAP), ((2,), np.array([[c, -s], [s, c]]))],
        output_qubit=2,
    )


def test_boundary_redecision_runs_on_the_cone_whatever_the_width(run_calls):
    narrow, padded = swap_nonformula(1 / 3 + 5e-13, 3), swap_nonformula(1 / 3 + 5e-13, 21)
    assert not is_formula(narrow) and not is_formula(padded)
    got = evaluate(narrow, [0, 1])
    assert run_calls == [(0,), (1,)]
    assert evaluate(padded, [0, 1]) == got
    assert run_calls == [(0,), (1,)] * 2
    assert got.status == "undetermined" == scan_verdict(narrow, [0, 1])[0]


@pytest.mark.parametrize("true_offset", [-1e-13, 1e-13])
def test_non_formula_boundary_verdict_follows_the_state_vector(monkeypatch, true_offset):
    c = rotation_nonformula(1 / 3 + true_offset)
    real = fused_probabilities(c)
    # a fused path that lands on the other side of 1/3 than run does
    monkeypatch.setattr(simulator, "_probabilities",
                        lambda circuit, gates, max_qubits: real - 2 * true_offset)
    got = evaluate(c, [0, 1])
    assert (got.status, got.alpha) == scan_verdict(c, [0, 1])[:2]


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


def test_fused_state_vector_raises_on_norm_drift():
    c = nonformula_example()
    c.check()
    _force_matrix(c, 1, c.gates[1].matrix @ np.diag([1, 1, 1, 0.5]))  # input x1 = x2 = 1
    assert len(_fused_schedule(c)) == 1  # the drift is inside a fused block
    with pytest.raises(SimulationError, match="state norm drifted .* at assignment 11"):
        fused_probabilities(c)
    with pytest.raises(SimulationError, match="state norm drifted .* at assignment 11"):
        evaluate(c, [0, 0, 0, 0])
