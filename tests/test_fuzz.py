"""Differential fuzzing of the simulators with hypothesis.

Random formulas go through ``run``, the batched ``probability_vector``,
``to_unitary`` and ``contract_formula``; random general circuits through
the first three.  All must agree within 1e-12, and ``evaluate`` must
give the verdict of a per-assignment ``run`` scan.
"""
import itertools
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qformula import build_circuit, constant, contract_formula, evaluate, is_formula, run, variable
from qformula import simulator
from qformula.gates import random_unitary
from qformula.simulator import initial_state, probability_vector, to_unitary

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
        k = draw(st.integers(1, min(2, m)))
        targets = draw(st.permutations(range(m)))[:k]
        specs.append((tuple(targets), random_unitary(2 ** k, rng)))
    return build_circuit(m, labels, specs, draw(st.integers(0, m - 1)))


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
    table = data.draw(st.lists(st.integers(0, 1), min_size=by_run.size, max_size=by_run.size))
    got = evaluate(circuit, table)
    assert (got.status, got.alpha) == _scan(circuit, table)
