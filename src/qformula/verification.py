"""Randomized property sweeps for the toolkit's algebraic trust anchors.

Four suites, each running a configurable number of seeded cases:

* tensor factorization: norms and inner products of tensor products
  factor exactly (tolerance 1e-12);
* product families: tensor products of two orthonormal families, each
  from ``tensor.orthonormalize`` (the basis rule ``squeeze_all`` runs),
  stay orthonormal, their Gram matrix taken as one product (1e-12);
* disjoint commuting split: a subcircuit over two disjoint qubit sets
  equals both sequential orders, on basis states and on random
  entangled inputs (1e-10); the leading gates the subcircuit shares with
  one order are applied once;
* postponement: on a chain read as a path segment, the gates that
  ``rewrite.postpone`` (the rule ``squeeze_all`` runs) postpones move
  behind the chain without changing the full operator (1e-10); the gates
  both orders start with are applied once.

Each suite draws, then completes, then evaluates, a chunk of at most
``CHUNK_CASES`` cases at a time, so memory stays flat in the case count.
Drawing makes every case's generator calls in case order and keeps the
Gaussian matrix of each random unitary; completion turns the chunk's
matrices into unitaries with one stacked QR per dimension
(``gates.complete_unitaries``, as ``random_unitary`` does); then each
case is checked, one case at a time: stacking cases was slower.  The
generator sees the calls of a one-case-at-a-time loop in the same order,
so a seed still draws the same cases.

The CLI exposes them as ``verify-lemmas``; the acceptance suite runs
them at 1000 cases each.  A sweep needs at least one case.
"""
from __future__ import annotations

import numpy as np

from .analysis import CompanionSet, Hop, PathSegment
from .circuit import Circuit, Gate, Record, build_circuit, constant
from .gates import complete_unitaries, complex_normal, gaussian_matrix
from .rewrite import decompose_disjoint, postpone
from .simulator import _operator
from .tensor import inner_product, kron, norm, orthonormalize

FACTORIZATION_TOL = 1e-12
OPERATOR_TOL = 1e-10
# a chunk keeps at most 1,536 Gaussian 4x4 matrices (384 KiB) and 256 two-column
# states of 64 amplitudes (512 KiB), whatever the case count
CHUNK_CASES = 256


class SweepResult(Record):
    """One lemma sweep: its case count, largest deviation and tolerance."""

    name: str
    cases: int
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def _random_vector(rng: np.random.Generator, dim: int, unit: bool = False) -> np.ndarray:
    v = complex_normal(dim, rng)
    return v / norm(v) if unit else v


def _sweep(name: str, tolerance: float, cases: int, seed: int, draw) -> SweepResult:
    """Run ``cases`` seeded cases, drawn, completed and checked by chunk.

    ``draw(rng, unitary)`` makes one case's generator calls, where
    ``unitary(dim)`` draws a Gaussian matrix and returns its index among
    the chunk's unitaries.  It returns the case's check: given those
    unitaries, the case's deviations.
    """
    if cases < 1:
        raise ValueError(f"a sweep needs at least one case, got {cases}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for lo in range(0, cases, CHUNK_CASES):
        gaussians: list[np.ndarray] = []

        def unitary(dim: int) -> int:
            gaussians.append(gaussian_matrix(dim, rng))
            return len(gaussians) - 1

        checks = [draw(rng, unitary) for _ in range(min(CHUNK_CASES, cases - lo))]
        unitaries = complete_unitaries(gaussians)
        # np.max, unlike max, lets a NaN deviation through: it must fail
        worst = float(np.max([worst, *(d for check in checks for d in check(unitaries))]))
    return SweepResult(name, cases, worst, tolerance)


def _draw_factorization(rng: np.random.Generator, unitary):
    ka, kb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    a1, a2 = (_random_vector(rng, 2 ** ka) for _ in range(2))
    b1, b2 = (_random_vector(rng, 2 ** kb) for _ in range(2))

    def check(unitaries):
        ab1 = kron(a1, b1)
        norm_gap = abs(norm(ab1) - norm(a1) * norm(b1))
        ip_gap = abs(inner_product(ab1, kron(a2, b2)) - inner_product(a1, a2) * inner_product(b1, b2))
        return float(norm_gap), float(ip_gap)
    return check


def sweep_tensor_factorization(cases: int, seed: int) -> SweepResult:
    return _sweep("tensor-factorization", FACTORIZATION_TOL, cases, seed, _draw_factorization)


def _draw_families(rng: np.random.Generator, unitary):
    ka, kb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    na = int(rng.integers(1, min(4, 2 ** ka) + 1))
    nb = int(rng.integers(1, min(4, 2 ** kb) + 1))
    vectors_a = [_random_vector(rng, 2 ** ka) for _ in range(na)]
    vectors_b = [_random_vector(rng, 2 ** kb) for _ in range(nb)]

    def check(unitaries):
        family_a, _, _ = orthonormalize(vectors_a)
        family_b, _, _ = orthonormalize(vectors_b)
        # row i * len(family_b) + j is kron(family_a[i], family_b[j]), the same products
        products = (family_a[:, None, :, None] * family_b[None, :, None, :]).reshape(
            len(family_a) * len(family_b), -1)
        gram = products.conj() @ products.T  # every inner_product at once
        return (float(np.abs(gram - np.eye(len(products))).max()),)
    return check


def sweep_product_family(cases: int, seed: int) -> SweepResult:
    return _sweep("product-family", FACTORIZATION_TOL, cases, seed, _draw_families)


def _draw_split(rng: np.random.Generator, unitary):
    width = int(rng.integers(4, 7))
    cut = int(rng.integers(1, width))
    q1, q2 = list(range(cut)), list(range(cut, width))
    specs = []
    for _ in range(int(rng.integers(2, 7))):
        side = q1 if (rng.random() < 0.5 or len(q2) < 2) else q2
        if len(side) < 2:
            side = q2 if side is q1 else q1
        pair = tuple(side[i] for i in rng.choice(len(side), size=min(2, len(side)), replace=False))
        specs.append((pair, unitary(2 ** len(pair))))
    states = np.zeros((2 ** width, 2), dtype=complex)  # a basis state, a random one
    states[int(rng.integers(0, 2 ** width)), 0] = 1.0
    states[:, 1] = _random_vector(rng, 2 ** width, unit=True)

    def check(unitaries):
        gates = [Gate(step=i + 1, targets=targets, matrix=unitaries[u])
                 for i, (targets, u) in enumerate(specs)]
        c1, c2 = decompose_disjoint(gates, q1, q2)
        orders = [[*c1, *c2], [*c2, *c1]]
        lead = int(gates[0].targets[0] >= cut)  # the order that starts as the reference does
        reference, orders[lead] = _operators(gates, orders[lead], width, states)
        orders[1 - lead] = _operator(orders[1 - lead], width, states)
        first, second = (np.abs(reference - o).max(axis=0) for o in orders)
        return float(first[0]), float(second[0]), float(first[1]), float(second[1])
    return check


def sweep_disjoint_split(cases: int, seed: int) -> SweepResult:
    return _sweep("disjoint-split", OPERATOR_TOL, cases, seed, _draw_split)


def _draw_postpone(rng: np.random.Generator, unitary):
    """Chain on line 0 with partners 1..t and movable cone gates."""
    t = int(rng.integers(2, 4))
    spare = int(rng.integers(1, 3))
    width = 1 + t + spare
    specs = []
    cone_pool: list[int] = []
    free_pool = list(range(1 + t, width))
    for j in range(1, t + 1):
        specs.append(((0, j), unitary(4)))
        cone_pool.append(j)
        if j < t and rng.random() < 0.8:
            partner = cone_pool[int(rng.integers(0, len(cone_pool)))]
            if free_pool and rng.random() < 0.7:
                other = free_pool.pop()
            else:
                other = cone_pool[int(rng.integers(0, len(cone_pool)))]
                if other == partner:
                    continue
            specs.append(((partner, other), unitary(4)))
            cone_pool.append(other)

    def check(unitaries):
        circuit = build_circuit(width, [constant(0)] * width,
                                [(targets, unitaries[u]) for targets, u in specs], output_qubit=0)
        original, moved = _operators(circuit.gates, _postponed_order(circuit), width)
        return (float(np.abs(original - moved).max()),)
    return check


def _operators(first, second, m: int, start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``_operator`` of two gate orders from ``start``, the leading gates
    they share (the same matrix on the same targets) applied once."""
    shared = next((i for i, (g, h) in enumerate(zip(first, second))
                   if g.matrix is not h.matrix or g.targets != h.targets), min(len(first), len(second)))
    prefix = _operator(first[:shared], m, start)
    return _operator(first[shared:], m, prefix), _operator(second[shared:], m, prefix)


def _postponed_order(circuit: Circuit) -> list[Gate]:
    """The gates, with those ``postpone`` returns moved behind the chain on
    line 0, read as a segment that ends at the output, has line 1 as its
    second head input and every other line as a companion."""
    chain = [g for g in circuit.gates if 0 in g.targets]
    segment = PathSegment(0, tuple(Hop(g, 0, 0) for g in chain), ends_at_output=True)
    companions = CompanionSet(frozenset(range(2, circuit.num_qubits)), q0=0, q1=1, q2=None,
                              j0=chain[0].step, j1=len(circuit.gates) + 1)
    _, postponed = postpone(circuit, segment, companions)
    moved, last = {g.step for g in postponed}, chain[-1].step
    stay = [g for g in circuit.gates if g.step not in moved]
    return [g for g in stay if g.step <= last] + postponed + [g for g in stay if g.step > last]


def sweep_postponement(cases: int, seed: int) -> SweepResult:
    return _sweep("postponement", OPERATOR_TOL, cases, seed, _draw_postpone)


def run_all_sweeps(cases: int = 1000, seed: int = 7) -> tuple[SweepResult, ...]:
    """The four suites with per-suite derived seeds; deterministic.

    Raises ValueError for ``cases < 1``: a sweep that checks nothing
    proves nothing.
    """
    return (
        sweep_tensor_factorization(cases, seed),
        sweep_product_family(cases, seed + 1),
        sweep_disjoint_split(cases, seed + 2),
        sweep_postponement(cases, seed + 3),
    )
