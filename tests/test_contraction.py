"""The batched evaluation paths against the per-assignment state vector.

``contract_formula`` (tree contraction), the pruned, fused state vector
and the batched ``probability_vector`` must reproduce ``run`` assignment
by assignment, and ``evaluate`` must give the verdict of a
per-assignment ``run`` scan.
"""
import itertools
import json
import os
import types
from pathlib import Path

import numpy as np
import pytest

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
    verify_squeeze,
    write_circuit,
    write_truth_table,
)
from qformula import simulator
from qformula.cli import main
from qformula.fileio import circuit_from_json
from qformula.gates import CNOT, H, SWAP, TOFFOLI, capped_matmul, random_unitary
from qformula.samples import formula_example, nonformula_example, toffoli_and_circuit
from qformula.simulator import (
    SimulationError,
    _apply,
    _chain,
    _cone,
    _fused_schedule,
    _plan,
    _probabilities,
    decide,
    exact_probabilities,
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
    """``evaluate`` agrees with a ``run`` scan on its fast path, both at a
    budget no scan fits (one assignment per slice) and at the largest budget
    short of the whole scan (all variables but one batched)."""
    status, alpha, p = scan_verdict(circuit, table)
    for budget in (1, 1 << (circuit.num_qubits + circuit.num_variables - 1)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "CHUNK_AMPLITUDES", budget)
            got = evaluate(circuit, table)
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


def exact_paths(monkeypatch):
    """Record which of the oracle, the contraction and the pruned path each
    ``exact_probabilities`` call takes (the re-decisions run ``_scan``)."""
    taken = []
    for name in ("probability_vector", "contract_formula", "_probabilities"):
        real = getattr(simulator, name)
        monkeypatch.setattr(simulator, name,
                            lambda *args, real=real, name=name: taken.append(name) or real(*args))
    return taken


@pytest.mark.parametrize("budget", [simulator.CHUNK_AMPLITUDES, 1], ids=["default", "no-batch-fits"])
def test_exact_probabilities_match_the_oracle_on_corpus_restrictions_and_squeezes(
        monkeypatch, corpus, budget):
    circuits = []
    for member in corpus:
        restricted = restrict(member.formula, member.block, member.restriction)
        circuits += [restricted, squeeze_all(restricted, member.block).circuit]
    rng = np.random.default_rng(3)
    generated = [random_general(rng, 6, 4, 30) for _ in range(8)]
    circuits += [nonformula_example(), toffoli_and_circuit()] + [
        c for c in generated if not is_formula(c)]
    expected = [probability_vector(c) for c in circuits]
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", budget)
    taken = exact_paths(monkeypatch)
    for circuit, p in zip(circuits, expected):
        taken.clear()
        assert np.max(np.abs(exact_probabilities(circuit) - p)) <= TOL
        fast = "contract_formula" if is_formula(circuit) else "_probabilities"
        assert taken == ["probability_vector" if budget > 1 else fast]


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
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", 16)  # one assignment per slice
    assert np.max(np.abs(contract_formula(c) - whole)) <= TOL
    assert np.max(np.abs(whole - run_probabilities(c))) <= TOL


def contraction_products(monkeypatch):
    """Record (entries of the operand, entries of the result) of every
    product the simulator hands ``capped_matmul``, the gate's matrix
    aside, the way ``kernel_calls`` records the pruned path's blocks."""
    calls = []
    real = simulator.capped_matmul

    def counting(matrix, flat, out=None):
        result = real(matrix, flat, out)
        calls.append((flat.size, result.size))
        return result

    monkeypatch.setattr(simulator, "capped_matmul", counting)
    return calls


@pytest.mark.parametrize("budget", [16, 2 ** 8, 2 ** 15])
def test_contraction_matches_the_oracle_at_every_budget(monkeypatch, corpus, budget):
    rng = np.random.default_rng(47)
    u = lambda: random_unitary(4, rng)
    # line 1, each gate's second target, is the one that goes to the parent
    second_target = build_circuit(
        4, [variable(1), variable(2), constant(1), variable(3)],
        [((0, 1), u()), ((2, 1), u()), ((3, 1), u())], output_qubit=1,
    )
    # both lines of the first gate go to the second: up = k = 2
    double_edge = build_circuit(
        3, [variable(1), variable(2), variable(3)],
        [((0, 1), u()), ((1, 0), u()), ((2, 0), u())], output_qubit=2,
    )
    # x1 is on lines in both subtrees of the root
    shared_variable = build_circuit(
        4, [variable(1), variable(2), variable(1), variable(3)],
        [((0, 1), u()), ((2, 3), u()), ((1, 3), u())], output_qubit=3,
    )
    # the gate on lines 0 and 1, a subtree of the root, reads constants only
    constant_subtree = build_circuit(
        5, [constant(1), constant(0), variable(1), variable(2), variable(3)],
        [((0, 1), u()), ((2, 3), u()), ((3, 4), u()), ((1, 3), u())], output_qubit=3,
    )
    assert computation_graph(second_target).up_lines[1] == (1,)
    assert computation_graph(double_edge).up_lines[1] == (0, 1)
    squeezed = [squeeze_all(restrict(m.formula, m.block, m.restriction), m.block).circuit
                for m in corpus[:12]]
    assert any(g.arity == 6 for c in squeezed for g in c.gates)
    circuits = [second_target, double_edge, shared_variable, constant_subtree, *squeezed]
    expected = [probability_vector(c) for c in circuits]
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", budget)
    calls = contraction_products(monkeypatch)
    for circuit, p in zip(circuits, expected):
        assert is_formula(circuit)
        calls.clear()
        assert np.max(np.abs(contract_formula(circuit) - p)) <= TOL
        if circuit in (shared_variable, constant_subtree):
            # a per-assignment peak of 40 entries: the slices fix every
            # variable, x1 only, or none
            slices = len(calls) // (2 * len(circuit.gates))
            assert slices == {16: 8, 2 ** 8: 2, 2 ** 15: 1}[budget]


@pytest.mark.parametrize("budget", [16, 2 ** 8, 2 ** 15])
def test_contraction_work_follows_the_subtree(monkeypatch, budget):
    reference = perfbench_reference()
    circ, _ = reference.permutation_circuit(np.random.default_rng([0, 2]), 12, 10, 30, tree=True)
    assert reference.is_tree(circ)  # the evaluate_wide seed-0 formula
    c = circuit_from_json(circ)
    graph = computation_graph(c)
    below = {}  # the variables on the input lines of each node's subtree
    for step in graph.gate_steps:
        providers = [(q, graph.prev_on[(step, q)]) for q in c.gates[step - 1].targets]
        below[step] = set().union(*(below[s] if s else {c.labels[q].var} - {None}
                                    for q, s in providers))
    expected = contract_formula(c)
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", budget)
    calls = contraction_products(monkeypatch)
    assert np.max(np.abs(contract_formula(c) - expected)) <= TOL
    assert max(max(sizes) for sizes in calls) <= budget
    # every slice runs every node, two products each; its first `fixed`
    # variables are fixed, the rest are axes
    slices = len(calls) // (2 * len(graph.gate_steps))
    fixed = slices.bit_length() - 1
    assert len(calls) == 2 * len(graph.gate_steps) << fixed
    assert fixed == {16: 10, 2 ** 8: 8, 2 ** 15: 1}[budget]
    for i, step in enumerate(graph.gate_steps * slices):
        values = 2 ** len({v for v in below[step] if v > fixed})  # of its free variables
        k, up = c.gates[step - 1].arity, len(graph.up_lines[step])
        assert calls[2 * i] == (4 ** k * values, 4 ** k * values)  # rho, then U rho
        assert calls[2 * i + 1] == (4 ** k * values, 4 ** up * values)  # U rho, then the message


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


@pytest.mark.parametrize("cap", [1, 16, 64, pytest.param(2 ** 10, id="non-square")])
def test_sliced_kernel_matches_the_unsliced_kernel(monkeypatch, cap):
    rng = np.random.default_rng(34)
    tensor = rng.normal(size=[2] * 6 + [3, 4]) + 1j * rng.normal(size=[2] * 6 + [3, 4])
    gates = [Gate(1, targets, random_unitary(2 ** len(targets), rng))
             for targets in ((0,), (5,), (2, 4), (4, 2), (0, 1), (3, 1, 5), (0, 1, 2))]
    whole = [_apply(tensor, g) for g in gates]
    # the contraction's second product: conj(U) as 2^up rows times a stack over the up-lines
    adjoint = random_unitary(16, rng).conj().reshape(2, 128)
    stack = rng.normal(size=(2, 128, 24)) + 1j * rng.normal(size=(2, 128, 24))
    product = capped_matmul(adjoint, stack)
    monkeypatch.setattr("qformula.gates.BLAS_SLICE_MACS", cap)
    for gate, expected in zip(gates, whole):
        assert np.max(np.abs(_apply(tensor, gate) - expected)) <= 1e-15
        buffer = tensor.copy()  # written in place, as the batched paths do
        assert np.max(np.abs(_apply(buffer, gate, buffer) - expected)) <= 1e-15
    out = np.empty_like(product)
    assert capped_matmul(adjoint, stack, out) is out and out.shape == (2, 2, 24)
    if cap >= 4 * adjoint.size:  # slices of 4 or more columns run the whole product's kernel
        assert np.array_equal(out, product)
    else:  # 1-column slices may round differently
        assert np.max(np.abs(out - product)) <= 1e-14


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


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

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
def test_products_are_sliced_exactly_when_openblas_may_thread(setting, run_child):
    env = dict.fromkeys(BLAS_THREAD_VARIABLES)
    args = ["-c", _CAP_PROBE]
    if setting == "one-cpu":
        args.append(setting)
    else:
        env.update(setting)
    done = run_child(*args, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    count, cap = json.loads(done.stdout)
    if count is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    assert (cap is not None) == (count > 1)


@pytest.fixture(scope="module")
def wide_circuit_failing_at_700():
    """30 random 2-qubit gates on 12 lines, then their inverses: p is x1's
    bit, and the table disagrees with it only at assignment 700.  Returns
    the circuit, the table and the oracle's verdict."""
    rng = np.random.default_rng(7)
    gates = [(tuple(int(q) for q in rng.choice(12, size=2, replace=False)), random_unitary(4, rng))
             for _ in range(30)]
    gates += [(targets, u.conj().T) for targets, u in reversed(gates)]
    c = build_circuit(12, [variable(j + 1) for j in range(10)] + [constant(0), constant(1)],
                      gates, output_qubit=0)
    assert not is_formula(c)
    bits = np.arange(1024) >> 9
    bits[700] ^= 1
    return c, bits, verdict(probability_vector(c), bits)


@pytest.mark.parametrize("pinned", [False, True], ids=["blas-unpinned", "openblas-one-thread"])
def test_wide_evaluate_gives_the_oracles_verdict_whatever_the_blas_threads(
    tmp_path, run_child, wide_circuit_failing_at_700, pinned
):
    c, bits, oracle = wide_circuit_failing_at_700
    write_circuit(c, tmp_path / "wide.json")
    write_truth_table(10, bits, tmp_path / "wide.tt")
    env = dict.fromkeys(BLAS_THREAD_VARIABLES)
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    # products above 2^15 multiply-adds go to BLAS as column slices; on one
    # BLAS thread, pinned or with one CPU to run on, every product goes whole
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cap = None if pinned or cpus == 1 else 2 ** 15
    probe = run_child("-c", "from qformula import gates; print(gates.BLAS_SLICE_MACS)",
                      env=env, timeout=60)
    assert probe.stdout == f"{cap}\n", probe.stderr
    done = run_child("-m", "qformula.cli", "evaluate", "--json", "-c", str(tmp_path / "wide.json"),
                     "-f", str(tmp_path / "wide.tt"), env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert (got["status"], got["alpha"]) == (oracle.status, "".join(map(str, oracle.alpha)))
    assert abs(got["p"] - oracle.p) <= TOL
    assert (got["status"], got["alpha"]) == ("fails", format(700, "010b"))


def counted_batches(monkeypatch):
    """Count the batches the step-order state vector runs, one ``final_states`` call each."""
    calls = []
    real = simulator.final_states

    def counting(circuit, lo, hi, *args):
        calls.append(hi - lo)
        return real(circuit, lo, hi, *args)

    monkeypatch.setattr(simulator, "final_states", counting)
    return calls


def kernel_calls(monkeypatch):
    """Record (step, amplitudes) of every pruned block run; a real state
    holds two entries per amplitude."""
    calls = []
    real = simulator._run_block

    def counting(tensor, gate, *args, **kwargs):
        calls.append((gate.step, tensor.size // (2 if tensor.dtype == float else 1)))
        return real(tensor, gate, *args, **kwargs)

    monkeypatch.setattr(simulator, "_run_block", counting)
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
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", per_batch << len(lines))
    assert np.max(np.abs(_probabilities(c, blocks) - expected)) <= TOL
    # no state exceeds the budget; the last block, on every cone line,
    # holds min(per_batch, scanned) assignments as batch axes and runs
    # once per value of the variables that branch
    assert max(size for _, size in calls) <= simulator.CHUNK_AMPLITUDES
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
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", 2 ** 4)  # the 4 cone lines, no batch
    table = (p > 0.5).astype(int)
    for bits in (table, 1 - table):
        calls.clear()
        got = evaluate(c, bits)
        # the one block runs over x1 and x3, not 8 times over x1, x2 and x3;
        # all four cone lines join inside it, so it reads one amplitude
        assert calls == [(5, 1)] * 4
        assert (got.status, got.alpha) == scan_verdict(c, bits)[:2]
    batches = counted_batches(monkeypatch)
    probability_vector(c)
    assert sum(batches) == 8


@pytest.mark.usefixtures("fast_paths")
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
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", budget)
    assert np.max(np.abs(_probabilities(c, blocks) - expected)) <= TOL
    # block i reads the lines joined before it, and its own variables'
    # lines when they are batch axes (a constant or a branch variable's
    # line joins inside the block); it runs once per value of the
    # variables joined so far: as many runs when they branch, one run
    # with them as batch axes when none does
    for i, block in enumerate(blocks):
        lines = {q for b in blocks[:i + 1] for q in b.targets}
        joined = 2 ** len({c.labels[q].var for q in lines} - {None})
        read = {q for b in blocks[:i] for q in b.targets}
        if budget > 1:
            read |= {q for q in block.targets if c.labels[q].is_variable}
        runs = [size for step, size in calls if step == block.step]
        assert runs == ([2 ** len(read)] * joined if budget == 1 else [joined << len(read)])


def test_plan_copies_a_split_block_once_and_chains_the_blocks_after_it():
    rng = np.random.default_rng(46)
    c = build_circuit(
        4, [variable(1), constant(0), constant(1), variable(2)],
        [((0, 1, 2, 3), random_unitary(16, rng)), ((0, 3), random_unitary(4, rng)),
         ((3, 0, 1), random_unitary(8, rng)), ((2, 1, 0, 3), random_unitary(16, rng))],
        output_qubit=2, arity_bound=4,
    )
    cone, _ = _cone(c, c.gates)
    plan, axes = _plan(cone, [1])
    runs = [step for step in plan if isinstance(step, simulator._Run)]
    # the first block finds its lines where they joined, the front of
    # memory, next to the re/im axis; the second, split there by lines 1
    # and 2, is copied into an order in which it and the two blocks after
    # it find the re/im axis and their lines adjacent
    assert [run.order is not None for run in runs] == [False, True, False, False]
    assert [run.targets for run in runs] == [(0, 1, 2, 3, 4), (0, 1, 2), (0, 1, 2, 3),
                                             (0, 1, 2, 3, 4)]
    assert axes == [None, 0, 3, 1, 2, -1]  # x1 is the batch axis, last
    assert np.max(np.abs(_probabilities(c, c.gates) - probability_vector(c))) <= TOL


def test_chain_places_the_planned_lines_midway_and_keeps_the_batch_axes_last():
    # (0, 5) is split: its run goes midway, the other lines keep their order
    assert _chain([5, 4, 3, 2, 1, 0, None, -2], [(0, 5)]) == [4, 3, 0, 5, None, 2, 1, -2]
    # the next block holds line 5, after the re/im axis, and adds line 1;
    # the one after that misses line 5, so the chain stops
    order = _chain([5, 4, 3, 2, 1, 0, None], [(0, 5), (5, 1), (1, 3)])
    assert order == [4, 0, None, 5, 1, 3, 2]


@pytest.mark.parametrize("budget", [1, 2 ** 20], ids=["every-variable-branches", "none-branches"])
def test_lazy_path_names_the_first_drifting_assignment_at_any_budget(monkeypatch, budget):
    c = lines_joining_late()
    _force_matrix(c, 2, c.gates[2].matrix @ np.diag([1, 1, 0.5, 0.5]))  # line 3 is 1: x1 = 1
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", budget)
    with pytest.raises(SimulationError, match="state norm drifted .* at assignment 100"):
        fused_probabilities(c)


def haar_circuit(labels, targets, output_qubit, seed):
    rng = np.random.default_rng(seed)
    specs = [(t, random_unitary(2 ** len(t), rng)) for t in targets]
    return build_circuit(len(labels), labels, specs, output_qubit,
                         arity_bound=max([1, *map(len, targets)]))


# the first three gates make a diamond (gate 1 feeds gates 2 and 3, gate 2
# feeds gate 3), so each circuit but the untouched-output ones is a
# non-formula; in DIAMOND_3, two lines join the 3-qubit gate 2
DIAMOND_3 = [(0, 1), (0, 2, 3), (1, 2), (1, 3)]
DIAMOND_2 = [(0, 1), (0, 2), (1, 2), (2, 3)]
FOLD_CASES = {
    "constant-joins-the-last-block": lambda: haar_circuit(
        [variable(1), variable(2), variable(3), constant(1)], DIAMOND_2, 3, 60),
    "two-constants-join-one-block": lambda: haar_circuit(
        [variable(1), variable(2), constant(0), constant(1)], DIAMOND_3, 1, 61),
    "a-constant-and-a-variable-join-one-block": lambda: haar_circuit(
        [variable(1), variable(2), constant(1), variable(3)], DIAMOND_3, 1, 62),
    "two-variables-join-one-block": lambda: haar_circuit(
        [variable(1), variable(2), variable(3), variable(4)], DIAMOND_3, 1, 63),
    "one-variable-joins-one-block-on-two-lines": lambda: haar_circuit(
        [variable(1), variable(2), variable(3), variable(3)], DIAMOND_3, 1, 64),
    "one-variable-joins-two-blocks": lambda: haar_circuit(
        [variable(1), variable(2), constant(0), variable(1)], DIAMOND_2, 3, 65),
    "untouched-output-variable": lambda: haar_circuit(
        [variable(1), variable(2), constant(0), variable(2)], [(0, 1), (0, 2), (1, 2)], 3, 66),
    "untouched-output-constant": lambda: haar_circuit(
        [variable(1), variable(2), constant(1)], [(0, 1)], 2, 67),
}
# batch variables: none, so that every variable branches; the first to
# join, so that the others branch; or all of them
BRANCHING = {"every-variable-branches": 0, "some-branch": 1, "none-branches": 20}


@pytest.mark.parametrize("seed", range(20))
def test_pruned_path_and_qf_evaluate_match_the_oracle_on_near_permutation_circuits(
    tmp_path, capsys, seed
):
    """A seeded non-formula on 12 lines: 8 variables on 10 lines (two of
    them on two lines each) and two constants, with near-permutation gates
    so that every p is far from the thresholds; the table is wrong at one
    assignment."""
    rng = np.random.default_rng(seed)
    labels = [variable(j % 8 + 1) for j in range(10)] + [constant(0), constant(1)]
    rng.shuffle(labels)
    gates = []
    for _ in range(40):  # a 2-qubit permutation times exp(i eps H), eps = 0.1 / 40
        h = random_unitary(4, rng)
        w, v = np.linalg.eigh(h + h.conj().T)
        near = (v * np.exp(0.0025j * w / np.max(np.abs(w)))) @ v.conj().T
        gates.append((tuple(int(q) for q in rng.choice(12, size=2, replace=False)),
                      np.eye(4)[rng.permutation(4)] @ near))
    c = build_circuit(12, labels, gates, output_qubit=int(rng.integers(12)))
    assert not is_formula(c)
    p = probability_vector(c)
    assert np.max(np.abs(_probabilities(c, _fused_schedule(c)) - p)) <= TOL
    table = (p > 0.5).astype(int)
    table[int(rng.integers(256))] ^= 1
    write_circuit(c, tmp_path / "pruned.json")
    write_truth_table(8, table, tmp_path / "pruned.tt")
    code = main(["evaluate", "--json", "-c", str(tmp_path / "pruned.json"),
                 "-f", str(tmp_path / "pruned.tt")])
    got, oracle = json.loads(capsys.readouterr().out), verdict(p, table)
    assert code == 0
    alpha = None if oracle.alpha is None else "".join(map(str, oracle.alpha))
    assert (got["status"], got.get("alpha")) == (oracle.status, alpha)
    if oracle.p is not None:
        assert abs(got["p"] - oracle.p) <= TOL


def plan_budget(circuit, batch_variables):
    """A ``CHUNK_AMPLITUDES`` that makes that many cone variables batch axes."""
    cone, _ = _cone(circuit, _fused_schedule(circuit))
    return 1 << min(20, cone.num_qubits + batch_variables)


@pytest.mark.parametrize("fused_lines", [2, 4])
@pytest.mark.parametrize("branching", BRANCHING.values(), ids=BRANCHING.keys())
@pytest.mark.parametrize("make", FOLD_CASES.values(), ids=FOLD_CASES.keys())
def test_lines_that_join_inside_a_block_match_the_oracle(monkeypatch, make, branching, fused_lines):
    c = make()
    # past one batch, evaluate takes the pruned path unless no gate is on
    # the output line; a budget the whole scan fits takes the oracle
    assert is_formula(c) == (not any(c.output_qubit in g.targets for g in c.gates))
    expected = probability_vector(c)
    tables = [(expected > 0.5).astype(int), (expected <= 0.5).astype(int)]
    budget = plan_budget(c, branching)
    monkeypatch.setattr(simulator, "FUSED_LINES", fused_lines)
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", budget)
    assert np.max(np.abs(_probabilities(c, _fused_schedule(c)) - expected)) <= TOL
    taken = exact_paths(monkeypatch)
    path = ("probability_vector" if budget >= 1 << (c.num_qubits + c.num_variables)
            else "contract_formula" if is_formula(c) else "_probabilities")
    for table in tables:
        taken.clear()
        got, oracle = evaluate(c, table), verdict(expected, table)
        assert taken == [path]
        assert (got.status, got.alpha) == (oracle.status, oracle.alpha)
        if oracle.p is not None:
            assert abs(got.p - oracle.p) <= TOL


@pytest.mark.parametrize("branching", BRANCHING.values(), ids=BRANCHING.keys())
@pytest.mark.parametrize("make", FOLD_CASES.values(), ids=FOLD_CASES.keys())
def test_plan_grows_the_state_only_for_batch_lines_and_an_untouched_output_line(
        monkeypatch, make, branching):
    monkeypatch.setattr(simulator, "FUSED_LINES", 2)  # one block per gate
    cone, _ = _cone(make(), _fused_schedule(make()))
    lines = dict.fromkeys([q for g in cone.gates for q in g.targets] + [cone.output_qubit])
    joins = [v for v in dict.fromkeys(cone.labels[q].var for q in lines) if v is not None]
    batch = joins[:branching]
    plan, _ = _plan(cone, batch)
    runs = [step for step in plan if isinstance(step, simulator._Run)]
    grown = [step for step in plan if not isinstance(step, simulator._Run)]
    batch_lines = [q for q in lines if cone.labels[q].var in batch]
    touched = {q for g in cone.gates for q in g.targets}
    untouched = [q for q in lines if q not in batch_lines and q not in touched]
    assert len(grown) == len(batch_lines) + len(untouched)
    assert sum(source is simulator._BASIS for _, source in grown) == len(batch_lines)
    # a k-line block that j lines join: 2^(k+1) rows, 2^(k+1-j) columns, one
    # matrix per value of the branch variables among those lines
    seen = set(batch_lines)
    for gate, run in zip(cone.gates, runs):
        joining = [q for q in gate.targets if q not in seen]
        seen |= set(gate.targets)
        k, j = gate.arity, len(joining)
        variables = dict.fromkeys(cone.labels[q].var for q in joining)
        branch = tuple(v for v in variables if v is not None)
        assert run.branch == branch
        assert run.matrices.shape == (2,) * len(branch) + (2 ** (k + 1), 2 ** (k + 1 - j))


@pytest.mark.parametrize("branching", BRANCHING.values(), ids=BRANCHING.keys())
def test_a_drifting_block_that_lines_join_names_the_first_bad_assignment(monkeypatch, branching):
    c = FOLD_CASES["a-constant-and-a-variable-join-one-block"]()
    # gate 2 on lines 0, 2 (constant 1) and 3 (x3), the last two joining
    # it, shrinks the inputs in which line 3 is 1: first at assignment 001
    _force_matrix(c, 1, c.gates[1].matrix @ np.diag([1, 1, 1, 0.5] * 2))
    monkeypatch.setattr(simulator, "FUSED_LINES", 3)
    assert [b.targets for b in _fused_schedule(c)][:2] == [(0, 1), (0, 2, 3)]
    with pytest.raises(SimulationError, match="state norm drifted .* at assignment 001"):
        probability_vector(c)
    budget = plan_budget(c, branching)
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", budget)
    taken = exact_paths(monkeypatch)
    for simulate in (fused_probabilities, lambda c: evaluate(c, [0] * 8)):
        with pytest.raises(SimulationError, match="state norm drifted .* at assignment 001"):
            simulate(c)
    # evaluate's own path: the oracle where the whole scan fits one batch
    one_batch = budget >= 1 << (c.num_qubits + c.num_variables)
    assert taken == ["probability_vector" if one_batch else "_probabilities"]


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


def perfbench_reference():
    """The benchmark's independent generator, read from its source so that
    nothing is written under ``perfbench/``."""
    path = Path(__file__).parents[1] / "perfbench" / "reference.py"
    module = types.ModuleType("perfbench_reference")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_a_64_line_formula_evaluates_by_contraction(tmp_path, capsys):
    # 64 lines, 14 variables, 138 gates in a tree: only the contraction can evaluate it
    reference = perfbench_reference()
    circ, table = reference.permutation_circuit(np.random.default_rng(0), 64, 14, 138, tree=True)
    assert reference.is_tree(circ)
    reference.write_json(circ, tmp_path / "formula64.json")
    (tmp_path / "formula64.tt").write_text(f"14\n{''.join(str(int(b)) for b in table)}\n")
    code = main(["evaluate", "--json", "-c", str(tmp_path / "formula64.json"),
                 "-f", str(tmp_path / "formula64.tt")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "computes"


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


@pytest.mark.parametrize("simulate", [lambda c: evaluate(c, [0, 1]), lambda c: verify_squeeze(c, c)],
                         ids=["evaluate", "verify_squeeze"])
def test_non_formula_keeps_the_line_cap_on_its_cone(simulate):
    # a CNOT ladder carries line 2 to line 20: the cone holds all 21 lines
    ladder = [((q, q + 1), CNOT) for q in range(2, 20)]
    c = build_circuit(21, [variable(1)] + [constant(0)] * 20,
                      [((0, 1), CNOT), ((0, 2), CNOT), ((1, 2), SWAP)] + ladder, output_qubit=20)
    assert not is_formula(c)
    assert len(computation_graph(c).gate_steps) == len(c.gates)
    with pytest.raises(SimulationError, match="21 qubits exceeds the simulation cap 20"):
        simulate(c)


def test_non_formula_past_the_line_cap_with_a_small_cone_evaluates(monkeypatch):
    # lines 3..20 are idle: the cone holds lines 0-2 only
    c = build_circuit(21, [variable(1)] + [constant(0)] * 20,
                      [((0, 1), CNOT), ((0, 2), CNOT), ((1, 2), SWAP)], output_qubit=2)
    assert not is_formula(c)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "MAX_QUBITS", 21)
        expected = probability_vector(c)
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
def redecided(monkeypatch):
    """The assignments, x1 first, that the step-order scan runs: in
    ``evaluate``, the re-decisions, each an assignment of the cone circuit."""
    calls = []
    real_scan = simulator._scan

    def counting_scan(circuit, lo, hi):
        calls.extend(simulator._alpha(a, circuit.num_variables) for a in range(lo, hi))
        return real_scan(circuit, lo, hi)

    monkeypatch.setattr(simulator, "_scan", counting_scan)
    return calls


@pytest.mark.parametrize(
    "offset, status",
    [(-5e-13, "computes"), (5e-13, "undetermined")],
    ids=["just-outside-the-band", "just-inside-the-band"],
)
@pytest.mark.usefixtures("fast_paths")
def test_p_within_1e_12_of_a_threshold_is_redecided_by_the_scan(redecided, offset, status):
    c = rotation_formula(1 / 3 + offset)
    got = evaluate(c, [0, 1])
    assert redecided == [(0,), (1,)]  # p0 near 1/3, p1 near 2/3
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
@pytest.mark.usefixtures("fast_paths")
def test_non_formula_p_within_1e_12_of_a_threshold_is_redecided_by_the_scan(
    redecided, offset, status
):
    c = rotation_nonformula(1 / 3 + offset)
    assert not is_formula(c)
    assert np.max(np.abs(fused_probabilities(c) - [1 / 3 + offset, 2 / 3 - offset])) <= TOL
    got = evaluate(c, [0, 1])
    assert redecided == [(0,), (1,)]
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


@pytest.mark.usefixtures("fast_paths")
def test_boundary_redecision_runs_on_the_cone_whatever_the_width(redecided):
    narrow, padded = swap_nonformula(1 / 3 + 5e-13, 3), swap_nonformula(1 / 3 + 5e-13, 21)
    assert not is_formula(narrow) and not is_formula(padded)
    got = evaluate(narrow, [0, 1])
    assert redecided == [(0,), (1,)]
    assert evaluate(padded, [0, 1]) == got
    assert redecided == [(0,), (1,)] * 2
    assert got.status == "undetermined" == scan_verdict(narrow, [0, 1])[0]


@pytest.mark.usefixtures("fast_paths")
def test_every_line_cap_reads_max_qubits(monkeypatch, redecided):
    # p within 1e-12 of 1/3 on a non-formula of 4 lines whose cone holds 3,
    # and on a 1-line formula, which the contraction takes past any cap
    general, formula = swap_nonformula(1 / 3 + 5e-13, 4), rotation_formula(1 / 3 + 5e-13)
    monkeypatch.setattr(simulator, "MAX_QUBITS", 4)
    run(general, [0])
    probability_vector(general)
    monkeypatch.setattr(simulator, "MAX_QUBITS", 3)
    for state_vector in (lambda: run(general, [0]), lambda: probability_vector(general)):
        with pytest.raises(SimulationError, match="4 qubits exceeds the simulation cap 3"):
            state_vector()
    redecided.clear()
    assert evaluate(general, [0, 1]).status == "undetermined"
    assert redecided == [(0,), (1,)]
    monkeypatch.setattr(simulator, "MAX_QUBITS", 2)
    with pytest.raises(SimulationError, match="3 qubits exceeds the simulation cap 2"):
        evaluate(general, [0, 1])  # the pruned path's cap counts the cone's lines
    redecided.clear()
    assert evaluate(formula, [0, 1]).status == "undetermined"
    assert redecided == [(0,), (1,)]
    monkeypatch.setattr(simulator, "MAX_QUBITS", 0)  # no cone fits: no re-decision
    assert evaluate(formula, [0, 1]).status == "undetermined"
    assert redecided == [(0,), (1,)]


def off_cone_nonformula(p0):
    """``rotation_nonformula`` on lines 0-2 after a first gate on lines 3
    and 4, which carry x2 and a constant and lie outside the light cone."""
    s, c = np.sqrt(p0), np.sqrt(1 - p0)
    return build_circuit(
        5, [variable(1), constant(0), constant(0), variable(2), constant(0)],
        [((3, 4), CNOT), ((0,), np.array([[c, -s], [s, c]])), ((0, 1), CNOT), ((1, 2), CNOT),
         ((0, 2), np.diag([1, 1, 1, -1]))],
        output_qubit=0,
    )


def off_graph_formula(p0):
    """``rotation_formula`` on line 0, then a gate on line 1, which carries
    x2 and lies off the computation graph."""
    s, c = np.sqrt(p0), np.sqrt(1 - p0)
    return build_circuit(2, [variable(1), variable(2)],
                         [((0,), np.array([[c, -s], [s, c]])), ((1,), H)], output_qubit=0)


@pytest.mark.parametrize("offset", [-5e-13, 5e-13], ids=["outside-the-band", "inside-the-band"])
@pytest.mark.parametrize("build, formula", [(off_cone_nonformula, False), (off_graph_formula, True)],
                         ids=["non-formula-off-cone-first-gate", "formula-off-graph-gate"])
@pytest.mark.usefixtures("fast_paths")
def test_boundary_redecision_on_a_cone_that_drops_a_gate(redecided, build, formula, offset):
    c = build(1 / 3 + offset)
    assert is_formula(c) == formula
    assert len(computation_graph(c).gate_steps) == len(c.gates) - 1
    bits = [0, 0, 1, 1]  # x1, the only variable on the cone
    got = evaluate(c, bits)
    assert redecided == [(0,), (0,), (1,), (1,)]  # every p is near a threshold
    expected = verdict(probability_vector(c), bits)
    assert (got.status, got.alpha) == (expected.status, expected.alpha)
    assert got.status == ("computes" if offset < 0 else "undetermined")


@pytest.mark.parametrize("true_offset", [-1e-13, 1e-13])
@pytest.mark.usefixtures("fast_paths")
def test_non_formula_boundary_verdict_follows_the_state_vector(monkeypatch, true_offset):
    c = rotation_nonformula(1 / 3 + true_offset)
    real = fused_probabilities(c)
    # a fused path that lands on the other side of 1/3 than run does
    monkeypatch.setattr(simulator, "_probabilities",
                        lambda circuit, gates: real - 2 * true_offset)
    got = evaluate(c, [0, 1])
    assert (got.status, got.alpha) == scan_verdict(c, [0, 1])[:2]


@pytest.mark.usefixtures("fast_paths")
def test_p_outside_the_guard_window_is_not_redecided(redecided):
    c = rotation_formula(1 / 3 - 1e-11)
    assert evaluate(c, [0, 1]).computes
    assert redecided == []


@pytest.mark.parametrize("true_offset", [-1e-13, 1e-13])
@pytest.mark.usefixtures("fast_paths")
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


def test_contraction_raises_on_root_trace_drift(monkeypatch):
    c = build_circuit(
        3, [variable(1), variable(2), constant(0)], [((0, 2), CNOT), ((1, 2), CNOT)],
        output_qubit=2,
    )
    _force_matrix(c, 1, np.diag([1, 1, 1, 1.5]) @ CNOT)  # grows only when x1 = 0, x2 = 1
    with pytest.raises(SimulationError, match="root trace drifted .* at assignment 01"):
        contract_formula(c)
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", 16)  # one assignment per slice
    with pytest.raises(SimulationError, match="root trace drifted .* at assignment 01"):
        contract_formula(c)
    with pytest.raises(SimulationError, match="root trace drifted"):
        evaluate(c, [0, 1, 1, 0])
    last = build_circuit(
        3, [variable(1), variable(2), constant(0)], [((0, 2), CNOT), ((1, 2), CNOT)],
        output_qubit=2,
    )
    _force_matrix(last, 1, np.diag([1, 1, 1.5, 1]) @ CNOT)  # grows only when x1 = x2 = 1
    calls = contraction_products(monkeypatch)
    # a per-assignment peak of 36 entries: the slices fix no variable, x1
    # only, or both; the drift is at the last assignment, in the last slice
    for budget, slices in ((2 ** 15, 1), (2 ** 7, 2), (16, 4)):
        monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", budget)
        calls.clear()
        with pytest.raises(SimulationError, match="root trace drifted .* at assignment 11"):
            contract_formula(last)
        assert len(calls) == 2 * 2 * slices  # two nodes, two products each


def toffoli_with_nan_matrix():
    """The AND circuit, its Toffoli's matrix swapped for NaNs after the check."""
    c = toffoli_and_circuit()
    _force_matrix(c, 0, np.full((8, 8), np.nan))
    return c


def shrinking_nonformula():
    c = nonformula_example()
    c.check()
    _force_matrix(c, 1, c.gates[1].matrix @ np.diag([1, 1, 1, 0.5]))  # input x1 = x2 = 1
    return c


@pytest.mark.parametrize("make, first", [(shrinking_nonformula, "11"),
                                         (toffoli_with_nan_matrix, "00")],  # NaN * 0 is NaN
                         ids=["shrinking", "nan"])
def test_batched_state_vector_raises_on_norm_drift(make, first):
    c = make()
    with pytest.raises(SimulationError, match=f"state norm drifted .* at assignment {first}"):
        probability_vector(c)
    with pytest.raises(SimulationError, match="state norm drifted .* at assignment 11"):
        run(c, [1, 1])
    with pytest.raises(SimulationError, match="state norm drifted"):
        evaluate(c, [0, 0, 0, 0])


@pytest.mark.usefixtures("fast_paths")
def test_fused_state_vector_raises_on_norm_drift():
    c = nonformula_example()
    c.check()
    _force_matrix(c, 1, c.gates[1].matrix @ np.diag([1, 1, 1, 0.5]))  # input x1 = x2 = 1
    assert len(_fused_schedule(c)) == 1  # the drift is inside a fused block
    with pytest.raises(SimulationError, match="state norm drifted .* at assignment 11"):
        fused_probabilities(c)
    with pytest.raises(SimulationError, match="state norm drifted .* at assignment 11"):
        evaluate(c, [0, 0, 0, 0])
