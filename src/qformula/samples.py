"""Reference circuits and the randomized formula corpus.

``nonformula_example``/``formula_example`` are a fixed pair of 4-qubit
circuits over the lines (x1, x2, |0>, x1): the first reconverges and its
computation graph has a cycle, the second is a tree.  They pin down the
classifier behavior and double as CLI demo files.

``random_formula`` builds seeded formulas shaped for the squeezing pass:
block-variable wires ride a constant carrier line through interior
2-qubit gates whose partners are fresh constant lines, optionally
pre-entangled by preparation gates, re-touches of the first gate's other
input, restricted outside variables, or followed by junk gates on
already-consumed lines.  Layouts cover single paths, two paths merging
before the output, and merge-headed root chains, with companion counts
0..4 cycling deterministically with the seed.
"""
from __future__ import annotations

import numpy as np

from .circuit import Circuit, InputLabel, Record, build_circuit, constant, variable
from .gates import CNOT, H, SWAP, TOFFOLI, complete_unitaries, gaussian_matrix, random_unitary


def nonformula_example() -> Circuit:
    """Four gates whose computation graph reconverges (not a tree)."""
    return build_circuit(
        num_qubits=4,
        labels=[variable(1), variable(2), constant(0), variable(1)],
        gate_specs=[
            ((1, 2, 3), TOFFOLI),
            ((0, 1), CNOT),
            ((1, 2), CNOT),
            ((2, 3), SWAP),
        ],
        output_qubit=3,
        arity_bound=3,
    )


def formula_example() -> Circuit:
    """Same lines, rewired so the computation graph is a tree."""
    return build_circuit(
        num_qubits=4,
        labels=[variable(1), variable(2), constant(0), variable(1)],
        gate_specs=[
            ((1, 2, 3), TOFFOLI),
            ((0,), H),
            ((0, 1), CNOT),
            ((2, 3), SWAP),
        ],
        output_qubit=1,
        arity_bound=3,
    )


def toffoli_and_circuit() -> Circuit:
    """x1 AND x2 computed exactly onto a |0> ancilla."""
    return build_circuit(
        num_qubits=3,
        labels=[variable(1), variable(2), constant(0)],
        gate_specs=[((0, 1, 2), TOFFOLI)],
        output_qubit=2,
        arity_bound=3,
    )


def two_path_example(rng: np.random.Generator | None = None) -> Circuit:
    """Eight lines, two block paths, squeezable stretches with 2 and 3
    constant companions (the second one headed by the merge gate)."""
    rng = rng or np.random.default_rng(17)
    u = lambda: random_unitary(4, rng)
    return build_circuit(
        num_qubits=8,
        labels=[
            variable(1),  # q0: first path wire and global carrier
            constant(0),  # q1: partner of the first gate
            constant(0),  # q2, q3: companions of the first stretch
            constant(1),
            variable(2),  # q4: second path wire
            constant(0),  # q5..q7: companions of the merge-headed stretch
            constant(1),
            constant(0),
        ],
        gate_specs=[
            ((0, 1), u()),
            ((0, 2), u()),
            ((0, 3), u()),
            ((0, 4), u()),  # merge of the two paths
            ((0, 5), u()),
            ((6, 7), u()),  # preparation: entangles q6 with q7
            ((0, 6), u()),
        ],
        output_qubit=0,
    )


class GeneratedFormula(Record):
    """A corpus member: the formula, its block, and a restriction."""

    seed: int
    formula: Circuit
    block: frozenset[int]
    rho: tuple[tuple[int, int], ...]  # (outside variable, bit)
    target_companions: tuple[int, ...]

    @property
    def restriction(self) -> dict[int, int]:
        return dict(self.rho)


class _Builder:
    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.labels: list[InputLabel] = []
        self.gate_specs: list[tuple[tuple[int, ...], np.ndarray]] = []

    def line(self, label: InputLabel) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def const_line(self) -> int:
        return self.line(constant(int(self.rng.integers(0, 2))))

    def gate(self, targets: tuple[int, ...]):
        self.gate_specs.append((targets, gaussian_matrix(2 ** len(targets), self.rng)))


def _leaf_chain(
    b: _Builder,
    carrier: int,
    q1: int,
    v_target: int,
    outside_vars: list[int],
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Interior gates for one stretch on ``carrier``, collecting about
    v_target companion lines; returns the gate specs in order."""
    rng = b.rng
    specs: list[tuple[tuple[int, ...], np.ndarray]] = []

    def emit(targets):
        specs.append((targets, gaussian_matrix(2 ** len(targets), rng)))

    emit((carrier, q1))
    v = 0
    consumed: list[int] = [q1]
    while v < v_target:
        style = rng.integers(0, 4)
        if style == 0 and v + 2 <= v_target:
            partner, extra = b.const_line(), b.const_line()
            emit((partner, extra))  # preparation before consumption
            emit((carrier, partner))
            consumed.append(partner)
            v += 2
        elif style == 1 and outside_vars:
            partner = b.line(variable(outside_vars.pop()))
            emit((carrier, partner))
            consumed.append(partner)
            v += 1
        elif style == 2 and v + 2 <= v_target:
            partner = b.const_line()
            emit((carrier, partner))
            junk = b.const_line()
            emit((int(rng.choice(consumed)), junk))  # lands on a consumed line
            consumed.append(partner)
            v += 2
        else:
            partner = b.const_line()
            emit((carrier, partner))
            consumed.append(partner)
            v += 1
    if v_target == 0:
        emit((carrier, q1))  # re-touch keeps the stretch free of companions
    if rng.random() < 0.3:
        emit((carrier,))  # lone rotation on the carrier
    return specs


def _riffle(rng: np.random.Generator, a: list, b: list) -> list:
    """Random interleaving preserving the order inside each list."""
    out, ia, ib = [], 0, 0
    while ia < len(a) or ib < len(b):
        take_a = ia < len(a) and (ib >= len(b) or rng.random() < 0.5)
        if take_a:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    return out


def random_formula(seed: int) -> GeneratedFormula:
    """Deterministic random formula with at least one squeezable stretch.

    The companion count of the primary stretch cycles with the seed so
    any sizable corpus covers 0..4.
    """
    rng = np.random.default_rng(seed)
    b = _Builder(rng)
    v_primary = seed % 5
    layout = int(rng.integers(0, 3))  # 0: single path, 1: two paths, 2: merge-headed chain
    two_blocks = bool(rng.integers(0, 2))

    n_block = 2 if (layout in (1, 2) and two_blocks) else 1
    outside_pool = list(range(n_block + 1, n_block + 1 + int(rng.integers(0, 3))))
    rho = tuple((var, int(rng.integers(0, 2))) for var in outside_pool)
    outside_vars = [var for var, _ in rho]
    targets_v: list[int] = []

    if layout == 0:
        w = b.line(variable(1))
        q1 = b.const_line()
        specs = _leaf_chain(b, w, q1, v_primary, outside_vars)
        b.gate_specs.extend(specs)
        output = w
        targets_v.append(v_primary)
    elif layout == 1:
        w1 = b.line(variable(1))
        q1a = b.const_line()
        w2 = b.line(variable(2 if n_block == 2 else 1))
        q1b = b.const_line()
        v_secondary = int(rng.integers(0, 3))
        chain1 = _leaf_chain(b, w1, q1a, v_primary, outside_vars)
        chain2 = _leaf_chain(b, w2, q1b, v_secondary, outside_vars)
        b.gate_specs.extend(_riffle(rng, chain1, chain2))
        b.gate((w1, w2))  # merge
        for _ in range(int(rng.integers(0, 2))):
            b.gate((w1, w2))  # root re-touches add no companions
        output = w1
        targets_v.extend([v_primary, v_secondary])
    else:
        w1 = b.line(variable(1))
        w2 = b.line(variable(2 if n_block == 2 else 1))
        b.gate((w1, w2))  # merge right away: both leaves stay bare
        specs = _leaf_chain(b, w1, w2, max(v_primary, 1), outside_vars)
        b.gate_specs.extend(specs[1:])  # the merge already consumed w2
        output = w1
        targets_v.append(max(v_primary, 1))

    # unused outside variables must not appear in rho
    used_outside = {lb.var for lb in b.labels if lb.var is not None and lb.var > n_block}
    rho = tuple((var, bit) for var, bit in rho if var in used_outside)
    # compact outside indices so the variable range stays contiguous
    remap = {old: n_block + i + 1 for i, old in enumerate(sorted(used_outside))}
    labels = [
        variable(remap[lb.var]) if lb.var is not None and lb.var in remap else lb
        for lb in b.labels
    ]
    rho = tuple(sorted((remap[var], bit) for var, bit in rho))

    # drawn where random_unitary would draw them; one stacked QR, bit for bit per gate
    unitaries = complete_unitaries([matrix for _, matrix in b.gate_specs])
    circuit = build_circuit(
        num_qubits=len(labels),
        labels=labels,
        gate_specs=[(targets, u) for (targets, _), u in zip(b.gate_specs, unitaries)],
        output_qubit=output,
    )
    return GeneratedFormula(
        seed=seed,
        formula=circuit,
        block=frozenset(range(1, n_block + 1)),
        rho=rho,
        target_companions=tuple(targets_v),
    )


def formula_corpus(count: int, base_seed: int = 0) -> list[GeneratedFormula]:
    return [random_formula(base_seed + i) for i in range(count)]
