"""The chunked sweeps against a one-case-at-a-time copy of the same loops.

The reference loops below draw, complete and check each case before the
next one, with ``random_unitary`` completing every matrix on its own and
``apply_gate`` running the two states of a disjoint split one after the
other.  The chunked sweeps must reproduce them exactly: same cases, same
deviations, bit for bit.
"""
from __future__ import annotations

import numpy as np
import pytest

from qformula import CompanionSet, PathSegment, samples, simulator, verification
from qformula.analysis import Hop
from qformula.circuit import Gate, build_circuit, constant
from qformula.gates import complete_unitaries, gaussian_matrix, random_unitary
from qformula.rewrite import decompose_disjoint, postpone
from qformula.simulator import apply_gate, to_unitary
from qformula.tensor import inner_product, kron, orthonormalize
from qformula.verification import (
    CHUNK_CASES,
    run_all_sweeps,
    sweep_disjoint_split,
    sweep_postponement,
    sweep_product_family,
    sweep_tensor_factorization,
)


def _random_vector(rng, dim, unit=False):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v) if unit else v


def reference_tensor_factorization(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        ka, kb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a1, a2 = (_random_vector(rng, 2 ** ka) for _ in range(2))
        b1, b2 = (_random_vector(rng, 2 ** kb) for _ in range(2))
        norm_gap = abs(
            np.linalg.norm(kron(a1, b1)) - np.linalg.norm(a1) * np.linalg.norm(b1)
        )
        ip_gap = abs(
            inner_product(kron(a1, b1), kron(a2, b2))
            - inner_product(a1, a2) * inner_product(b1, b2)
        )
        worst = max(worst, float(norm_gap), float(ip_gap))
    return worst


def one_product_gram(products):
    products = np.array(products)
    return products.conj() @ products.T


def per_entry_gram(products):
    return np.array([[inner_product(x, y) for y in products] for x in products])


def reference_product_family(cases, seed, gram=one_product_gram):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        ka, kb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        na = int(rng.integers(1, min(4, 2 ** ka) + 1))
        nb = int(rng.integers(1, min(4, 2 ** kb) + 1))
        family_a, _, _ = orthonormalize([_random_vector(rng, 2 ** ka) for _ in range(na)])
        family_b, _, _ = orthonormalize([_random_vector(rng, 2 ** kb) for _ in range(nb)])
        products = [kron(a, b) for a in family_a for b in family_b]
        worst = max(worst, float(np.max(np.abs(gram(products) - np.eye(len(products))))))
    return worst


def _apply_gates(state, gates):
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def reference_disjoint_split(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        width = int(rng.integers(4, 7))
        cut = int(rng.integers(1, width))
        q1, q2 = list(range(cut)), list(range(cut, width))
        gates = []
        for step in range(int(rng.integers(2, 7))):
            side = q1 if (rng.random() < 0.5 or len(q2) < 2) else q2
            if len(side) < 2:
                side = q2 if side is q1 else q1
            pair = rng.choice(side, size=min(2, len(side)), replace=False)
            gates.append(
                Gate(step=step + 1, targets=tuple(int(t) for t in pair),
                     matrix=random_unitary(2 ** len(pair), rng))
            )
        c1, c2 = decompose_disjoint(gates, q1, q2)
        basis = np.zeros(2 ** width, dtype=complex)
        basis[int(rng.integers(0, 2 ** width))] = 1.0
        for state in (basis, _random_vector(rng, 2 ** width, unit=True)):
            reference = _apply_gates(state, gates)
            first = _apply_gates(_apply_gates(state, c1), c2)
            second = _apply_gates(_apply_gates(state, c2), c1)
            worst = max(
                worst,
                float(np.max(np.abs(reference - first))),
                float(np.max(np.abs(reference - second))),
            )
    return worst


def _random_postpone_instance(rng):
    t = int(rng.integers(2, 4))
    spare = int(rng.integers(1, 3))
    width = 1 + t + spare
    specs = []
    cone_pool = []
    free_pool = list(range(1 + t, width))
    for j in range(1, t + 1):
        specs.append(((0, j), random_unitary(4, rng)))
        cone_pool.append(j)
        if j < t and rng.random() < 0.8:
            partner = int(rng.choice(cone_pool))
            if free_pool and rng.random() < 0.7:
                other = free_pool.pop()
            else:
                other = int(rng.choice(cone_pool))
                if other == partner:
                    continue
            specs.append(((partner, other), random_unitary(4, rng)))
            cone_pool.append(other)
    return build_circuit(
        num_qubits=width, labels=[constant(0)] * width, gate_specs=specs, output_qubit=0
    )


def reference_postponement(cases, seed):
    """Each drawn chain on line 0 read as a path segment that ends at the
    output (line 1 its second head input, every other line a companion);
    the gates ``postpone`` returns move behind the chain's last gate."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        circuit = _random_postpone_instance(rng)
        chain = [g for g in circuit.gates if 0 in g.targets]
        segment = PathSegment(0, tuple(Hop(g, 0, 0) for g in chain), ends_at_output=True)
        companions = CompanionSet(
            frozenset(range(2, circuit.num_qubits)), q0=0, q1=1, q2=None,
            j0=chain[0].step, j1=len(circuit.gates) + 1,
        )
        _, postponed = postpone(circuit, segment, companions)
        moved = {g.step for g in postponed}
        stay = [g for g in circuit.gates if g.step not in moved]
        order = ([g for g in stay if g.step <= chain[-1].step] + postponed
                 + [g for g in stay if g.step > chain[-1].step])
        reordered = build_circuit(circuit.num_qubits, circuit.labels,
                                  [(g.targets, g.matrix) for g in order], 0)
        gap = np.max(np.abs(to_unitary(circuit) - to_unitary(reordered)))
        worst = max(worst, float(gap))
    return worst


PAIRS = [
    (sweep_tensor_factorization, reference_tensor_factorization),
    (sweep_product_family, reference_product_family),
    (sweep_disjoint_split, reference_disjoint_split),
    (sweep_postponement, reference_postponement),
]


@pytest.mark.parametrize("seed", range(100))
@pytest.mark.parametrize("sweep, reference", PAIRS, ids=lambda f: f.__name__)
def test_sweep_equals_the_one_case_loop(sweep, reference, seed):
    result = sweep(10, seed)
    assert result.cases == 10
    assert result.max_deviation == reference(10, seed)
    assert result.passed


def test_product_family_gram_agrees_with_per_entry_inner_products():
    # one Gram product sums each entry in BLAS's order, not vdot's: a few ulps of 1.0 apart
    for seed in range(100):
        result = sweep_product_family(10, seed)
        per_entry = reference_product_family(10, seed, gram=per_entry_gram)
        assert abs(result.max_deviation - per_entry) <= 4 * np.finfo(float).eps
        assert result.passed == (per_entry <= result.tolerance)


@pytest.mark.parametrize("sweep, reference", PAIRS, ids=lambda f: f.__name__)
def test_sweep_equals_the_one_case_loop_past_a_chunk(sweep, reference):
    cases = CHUNK_CASES + 1
    assert sweep(cases, 3).max_deviation == reference(cases, 3)


@pytest.mark.parametrize("sweep, reference", PAIRS, ids=lambda f: f.__name__)
def test_sweep_equals_the_one_case_loop_over_many_small_chunks(monkeypatch, sweep, reference):
    monkeypatch.setattr(verification, "CHUNK_CASES", 3)
    assert sweep(10, 11).max_deviation == reference(10, 11)


def test_shared_postponement_prefix_at_its_edges():
    # the prefix built once, then continued along each order: the two full
    # builds, bit for bit, whether the orders share every gate or none (the
    # first two gates share their targets, not their matrices)
    rng = np.random.default_rng(5)
    specs = [((0, 1), random_unitary(4, rng)), ((0, 1), random_unitary(4, rng)),
             ((2, 3), random_unitary(4, rng)), ((0, 2), random_unitary(4, rng))]
    chain = build_circuit(4, [constant(0)] * 4, [s for s in specs if 0 in s[0]], 0)
    circuit = build_circuit(4, [constant(0)] * 4, specs, 0)
    nothing_postponed = verification._postponed_order(chain)
    assert nothing_postponed == list(chain.gates)
    first_postponed = [*circuit.gates[1:], circuit.gates[0]]
    for c, order in [(chain, nothing_postponed), (circuit, first_postponed)]:
        original, moved = verification._operators(c.gates, order, c.num_qubits)
        assert original.tobytes() == to_unitary(c).tobytes()
        assert moved.tobytes() == simulator._operator(order, c.num_qubits).tobytes()


def test_a_broken_postponement_fails_its_sweep(monkeypatch):
    # also postpones the chain's first gate, which touches the carrier line
    def carrier_postpone(circuit, segment, companions):
        preps, postponed = postpone(circuit, segment, companions)
        return preps, [segment.hops[0].gate, *postponed]

    monkeypatch.setattr(verification, "postpone", carrier_postpone)
    result = sweep_postponement(10, 0)
    assert not result.passed
    assert result.max_deviation > 1e-3


def test_a_broken_disjoint_split_fails_its_sweep(monkeypatch):
    # each side in reverse order: gates sharing a line stop commuting
    def reversed_split(gates, q1, q2):
        c1, c2 = decompose_disjoint(gates, q1, q2)
        return c1[::-1], c2[::-1]

    monkeypatch.setattr(verification, "decompose_disjoint", reversed_split)
    result = sweep_disjoint_split(10, 0)
    assert not result.passed
    assert result.max_deviation > 1e-3


def test_a_nan_deviation_fails_its_sweep(monkeypatch):
    # also postpones the chain's first gate, turned to NaN: every deviation is NaN
    def nan_postpone(circuit, segment, companions):
        preps, postponed = postpone(circuit, segment, companions)
        first = segment.hops[0].gate
        return preps, [Gate(first.step, first.targets, np.full((4, 4), np.nan)), *postponed]

    monkeypatch.setattr(verification, "postpone", nan_postpone)
    result = sweep_postponement(10, 0)
    assert np.isnan(result.max_deviation)
    assert not result.passed


@pytest.mark.parametrize("cases", [0, -5])
def test_a_sweep_with_no_cases_is_refused(cases):
    with pytest.raises(ValueError, match="at least one case"):
        run_all_sweeps(cases=cases, seed=7)
    for sweep, _ in PAIRS:
        with pytest.raises(ValueError, match="at least one case"):
            sweep(cases, 7)


def _one_qr(z):
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("dim", [2, 4, 8, 64])
def test_stacked_completion_equals_one_qr_per_matrix(dim):
    rng = np.random.default_rng(dim)
    # dimensions interleaved, as a sweep's chunk draws them
    gaussians = [gaussian_matrix(d, rng) for _ in range(5) for d in (dim, 2)]
    unitaries = complete_unitaries(gaussians)
    for z, u in zip(gaussians, unitaries):
        assert np.array_equal(u, _one_qr(z))
    first, second = np.random.default_rng(1), np.random.default_rng(1)
    z = second.normal(size=(dim, dim)) + 1j * second.normal(size=(dim, dim))
    assert np.array_equal(random_unitary(dim, first), _one_qr(z))


def test_corpus_is_bit_identical_to_one_qr_per_gate(monkeypatch):
    stacked = samples.formula_corpus(20)
    # the generator as it was: random_unitary completes each gate as it is drawn
    monkeypatch.setattr(samples, "gaussian_matrix", random_unitary)
    monkeypatch.setattr(samples, "complete_unitaries", list)
    for new, old in zip(stacked, samples.formula_corpus(20), strict=True):
        assert (new.seed, new.block, new.rho, new.target_companions) == (
            old.seed, old.block, old.rho, old.target_companions)
        a, b = new.formula, old.formula
        assert (a.num_qubits, a.labels, a.output_qubit, a.arity_bound) == (
            b.num_qubits, b.labels, b.output_qubit, b.arity_bound)
        assert [(g.step, g.targets, g.matrix.tobytes()) for g in a.gates] == [
            (g.step, g.targets, g.matrix.tobytes()) for g in b.gates]
