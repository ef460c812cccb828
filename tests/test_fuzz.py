"""Differential fuzzing of the simulators with hypothesis.

Random formulas go through ``run``, the batched ``probability_vector``,
``to_unitary`` and ``contract_formula``; random general circuits through
the first three and the pruned, fused state vector (also with every
variable branching).  All must agree within 1e-12, and ``evaluate``
must give the verdict of a per-assignment ``run`` scan.

Circuit files written by ``write_circuit`` are mutated (keys dropped,
duplicated or added, values swapped for booleans, huge integers, nested
lists and other types, text truncated); reading and checking them may
only succeed or raise ``FormatError`` or ``InvalidCircuitError``, a file
with a field the format does not name must raise ``FormatError``, and
no numpy ``RuntimeWarning`` may escape.
"""
import copy
import functools
import itertools
import json
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qformula import (
    FormatError,
    InvalidCircuitError,
    build_circuit,
    computation_graph,
    constant,
    contract_formula,
    evaluate,
    is_formula,
    read_circuit,
    run,
    squeeze_all,
    variable,
    write_circuit,
)
from qformula import simulator
from qformula.gates import random_unitary
from qformula.samples import formula_example, nonformula_example, two_path_example
from qformula.simulator import (
    FUSED_LINES,
    _fused_schedule,
    _probabilities,
    initial_state,
    probability_vector,
    to_unitary,
)

TOL = 1e-12
MAX_LINES = 8

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _contiguous(labels):
    """Renumber the variables used to 1..k, keeping their order."""
    used = sorted({lb.var for lb in labels if lb.var is not None})
    rank = {v: i + 1 for i, v in enumerate(used)}
    return [variable(rank[lb.var]) if lb.var is not None else lb for lb in labels]


def _interleave(draw, specs):
    """A random step order that keeps every line's gate order."""
    placed: list[int] = []
    remaining = list(range(len(specs)))
    while remaining:
        ready = [
            i for i in remaining
            if all(j in placed for j in range(i) if set(specs[j][0]) & set(specs[i][0]))
        ]
        pick = draw(st.sampled_from(ready))
        placed.append(pick)
        remaining.remove(pick)
    return [specs[i] for i in placed]


@st.composite
def formulas(draw):
    """Trees of 1- to 3-input gates over fresh lines, with double edges,
    gates outside the computation graph and arbitrary step interleaving."""
    num_vars = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels, specs, dropped = [], [], []

    def line():
        if draw(st.booleans()):
            labels.append(variable(draw(st.integers(1, num_vars))))
        else:
            labels.append(constant(draw(st.integers(0, 1))))
        return len(labels) - 1

    def subtree(depth):
        """Build a subtree; returns the lines it hands to its parent."""
        if depth == 0 or len(labels) >= MAX_LINES - 3 or draw(st.integers(0, 3)) == 0:
            return [line()]
        arity = draw(st.integers(1, 3))
        inputs: list[int] = []
        while len(inputs) < arity and (not inputs or len(labels) < MAX_LINES - 3):
            inputs += subtree(depth - 1)
        targets = draw(st.permutations(inputs))
        specs.append((tuple(targets), random_unitary(2 ** len(targets), rng)))
        up = [targets[0]] if len(targets) == 1 or draw(st.booleans()) else targets[:2]
        dropped.extend(q for q in targets if q not in up)
        return list(up)

    out = subtree(3)
    assume(len(labels) <= MAX_LINES)
    output = out[0]
    dropped.extend(out[1:])
    for _ in range(draw(st.integers(0, 2))):  # gates no path to the output crosses
        if dropped:
            spare = draw(st.sampled_from(dropped))
            partner = line() if len(labels) < MAX_LINES else spare
            targets = (spare,) if partner == spare else (spare, partner)
            specs.append((targets, random_unitary(2 ** len(targets), rng)))
    specs = _interleave(draw, specs)
    arity = max([len(t) for t, _ in specs], default=1)
    return build_circuit(len(labels), _contiguous(labels), specs, output, arity_bound=arity)


@st.composite
def general_circuits(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = [variable(j + 1) for j in range(n)] + [
        variable(draw(st.integers(1, n))) if draw(st.booleans()) else constant(draw(st.integers(0, 1)))
        for _ in range(m - n)
    ]
    labels = draw(st.permutations(labels))
    specs = []
    for _ in range(draw(st.integers(0, 10))):
        k = draw(st.integers(1, min(3, m)))
        targets = draw(st.permutations(range(m)))[:k]
        specs.append((tuple(targets), random_unitary(2 ** k, rng)))
    return build_circuit(m, labels, specs, draw(st.integers(0, m - 1)), arity_bound=3)


def _oracles(circuit):
    """p per assignment from run, and from the columns of to_unitary."""
    n = circuit.num_variables
    u = to_unitary(circuit)
    by_run, by_unitary = [], []
    for alpha in itertools.product((0, 1), repeat=n):
        by_run.append(run(circuit, alpha)[1].p1)
        state = (u @ initial_state(circuit, alpha)).reshape([2] * circuit.num_qubits)
        by_unitary.append(float(np.sum(np.take(np.abs(state) ** 2, 1, axis=circuit.output_qubit))))
    return np.array(by_run), np.array(by_unitary)


def _scan(circuit, table):
    for idx, alpha in enumerate(itertools.product((0, 1), repeat=circuit.num_variables)):
        p = run(circuit, alpha)[1].p1
        if 1 / 3 <= p <= 2 / 3:
            return "undetermined", alpha
        if (p > 2 / 3) != (table[idx] == 1):
            return "fails", alpha
    return "computes", None


@FUZZ
@given(formulas(), st.data())
def test_fuzz_formulas_agree_across_simulators(circuit, data):
    assert is_formula(circuit)
    by_run, by_unitary = _oracles(circuit)
    assert np.max(np.abs(by_unitary - by_run)) <= TOL
    assert np.max(np.abs(probability_vector(circuit) - by_run)) <= TOL
    assert np.max(np.abs(contract_formula(circuit) - by_run)) <= TOL
    with mock.patch.object(simulator, "CHUNK_AMPLITUDES", 16):
        assert np.max(np.abs(contract_formula(circuit) - by_run)) <= TOL
    table = data.draw(st.lists(st.integers(0, 1), min_size=by_run.size, max_size=by_run.size))
    got = evaluate(circuit, table)
    assert (got.status, got.alpha) == _scan(circuit, table)


@FUZZ
@given(general_circuits(), st.data())
def test_fuzz_general_circuits_agree_across_simulators(circuit, data):
    by_run, by_unitary = _oracles(circuit)
    assert np.max(np.abs(by_unitary - by_run)) <= TOL
    assert np.max(np.abs(probability_vector(circuit) - by_run)) <= TOL
    with mock.patch.object(simulator, "CHUNK_AMPLITUDES", 4):  # several batches
        assert np.max(np.abs(probability_vector(circuit) - by_run)) <= TOL
    graph_steps = computation_graph(circuit).gate_steps  # the light cone
    kept = [g for g in circuit.gates if g.step in graph_steps]
    for gate in circuit.gates:  # kept exactly when it meets the later kept gates' cone
        cone = {circuit.output_qubit}.union(*(k.targets for k in kept if k.step > gate.step))
        assert any(gate is k for k in kept) != cone.isdisjoint(gate.targets)
    for cap in (2, FUSED_LINES):
        with mock.patch.object(simulator, "FUSED_LINES", cap):
            blocks = _fused_schedule(circuit)
            assert all(b.arity <= max(cap, 3) for b in blocks)
            assert np.max(np.abs(_probabilities(circuit, blocks) - by_run)) <= TOL
            with mock.patch.object(simulator, "PRUNED_AMPLITUDES", 1):  # every variable branches
                assert np.max(np.abs(_probabilities(circuit, blocks) - by_run)) <= TOL
    table = data.draw(st.lists(st.integers(0, 1), min_size=by_run.size, max_size=by_run.size))
    got = evaluate(circuit, table)
    assert (got.status, got.alpha) == _scan(circuit, table)


@functools.cache
def _mutation_sources():
    return (
        formula_example(),
        nonformula_example(),
        squeeze_all(two_path_example()).circuit,  # 64x64 composite gates
    )


# numbers of the right type but out of range, half the time; then other types
JUNK = st.one_of(
    st.sampled_from([0, -1, 2, 10 ** 400, -(10 ** 30), 1.5, 1e308]),
    st.sampled_from([True, False, None, "x", [], {}, [[[[]]]], [1, 0], [True, 0],
                     [10 ** 400, 0], {"var": 1, "const": 0}]),
)
KEYS = ["num_qubits", "arity_bound", "labels", "gates", "output_qubit",
        "step", "targets", "matrix", "var", "const"]


def _sites(node, trail=()):
    """Paths to every node of a decoded file; a list longer than three
    contributes its first two items and its last."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node)) if len(node) <= 3 else [0, 1, len(node) - 1]
    else:
        return
    for key in keys:
        yield trail + (key,)
        yield from _sites(node[key], trail + (key,))


def _mutate(root, data):
    """Drop, swap or insert at one node of the decoded file."""
    *trail, key = data.draw(st.sampled_from(list(_sites(root))))
    parent = functools.reduce(operator.getitem, trail, root)
    junk = copy.deepcopy(data.draw(JUNK))
    op = data.draw(st.sampled_from(["drop", "swap", "insert"]))
    if op == "drop":
        del parent[key]
    elif op == "swap":
        parent[key] = junk
    elif isinstance(parent, list):
        parent.insert(key, junk)
    else:
        parent[data.draw(st.sampled_from(KEYS + ["extra"]))] = junk


FIELDS = {
    None: {"num_qubits", "arity_bound", "labels", "gates", "output_qubit"},
    "labels": {"var", "const"},
    "gates": {"step", "targets", "matrix"},
}


def _unknown_field(text):
    """Whether the file's root, or a label or gate object in it, has a
    field the format does not name."""
    try:
        root = json.loads(text)
    except ValueError:
        return False
    if not isinstance(root, dict):
        return False
    objects = [(None, root)] + [
        (key, item) for key in ("labels", "gates") if isinstance(root.get(key), list)
        for item in root[key] if isinstance(item, dict)
    ]
    return any(set(obj) - FIELDS[key] for key, obj in objects)


# entries near 1e308 overflow in validate's U^dagger U: rejected, without a warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_fuzz_mutated_circuit_files_raise_only_typed_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    write_circuit(data.draw(st.sampled_from(_mutation_sources())), path)
    obj = json.loads(path.read_text())
    for _ in range(1 + (data.draw(st.integers(0, 3)) == 0)):
        _mutate(obj, data)
    text = json.dumps(obj)
    key = data.draw(st.sampled_from(KEYS))
    junk = json.dumps(data.draw(JUNK))
    where = data.draw(st.sampled_from(["none"] * 6 + ["before-first", "end-of-root"]))
    if where == "before-first":  # the original value comes later and wins
        text = text.replace(f'"{key}": ', f'"{key}": {junk}, "{key}": ', 1)
    elif where == "end-of-root" and text.endswith("}"):  # the duplicate wins
        text = text[:-1] + f', "{key}": {junk}}}'
    if data.draw(st.integers(0, 4)) == 0:
        text = text[: data.draw(st.integers(0, len(text)))]
    path.write_text(text)
    if _unknown_field(text):
        with pytest.raises(FormatError):
            read_circuit(path)
        return
    try:
        read_circuit(path).check()
    except (FormatError, InvalidCircuitError):
        pass
