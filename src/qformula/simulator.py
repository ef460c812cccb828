"""Exact state-vector execution and Boolean acceptance semantics.

A circuit acts on a dense vector of 2^m amplitudes.  Running it on a
Boolean assignment starts from the basis state determined by the input
labels, applies the gates in step order, and reads the probability that
the output qubit is 1.  A circuit computes a Boolean function f when
p > 2/3 on every 1-input and p < 1/3 on every 0-input; anything in the
closed band [1/3, 2/3] is undetermined.

The simulator deliberately follows step order and never reorders
commuting gates, so it can serve as the trusted oracle for the rewrite
passes.  Everything here is deterministic and side-effect free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate

DEFAULT_MAX_QUBITS = 20
NORM_TOL = 1e-10


class SimulationError(ValueError):
    """Inputs to the simulator are malformed."""


def initial_state(circuit: Circuit, assignment) -> np.ndarray:
    """Basis state from the input labels and a variable assignment.

    ``assignment`` holds one bit per variable, indexed so that
    ``assignment[j - 1]`` is the value of x_j.
    """
    bits = tuple(int(b) for b in assignment)
    n = circuit.num_variables
    if len(bits) != n:
        raise SimulationError(f"assignment length {len(bits)} != {n} variables")
    if any(b not in (0, 1) for b in bits):
        raise SimulationError(f"assignment must be 0/1 bits, got {bits}")
    index = 0
    for label in circuit.labels:
        value = bits[label.var - 1] if label.var is not None else label.const
        index = (index << 1) | value
    state = np.zeros(2 ** circuit.num_qubits, dtype=complex)
    state[index] = 1.0
    return state


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int | None = None) -> np.ndarray:
    """Apply one gate, acting as the identity on all non-target qubits."""
    state = np.asarray(state, dtype=complex)
    if num_qubits is None:
        num_qubits = int(state.size).bit_length() - 1
    if state.size != 2 ** num_qubits:
        raise SimulationError(f"state size {state.size} is not 2^{num_qubits}")
    k = gate.arity
    if any(not (0 <= q < num_qubits) for q in gate.targets):
        raise SimulationError(f"gate targets {gate.targets} exceed {num_qubits} qubits")
    if gate.matrix.shape != (2 ** k, 2 ** k):
        raise SimulationError(f"matrix shape {gate.matrix.shape} for {k} targets")
    tensor = state.reshape([2] * num_qubits)
    op = gate.matrix.reshape([2] * (2 * k))
    # contract the gate's column axes against the target axes, then put
    # the produced axes back where the targets were
    moved = np.tensordot(op, tensor, axes=(range(k, 2 * k), gate.targets))
    out = np.moveaxis(moved, range(k), gate.targets)
    return out.reshape(-1)


@dataclass(frozen=True)
class Outcome:
    """Acceptance data for one run: p1 and the two decomposition norms."""

    p1: float
    norm0_sq: float
    norm1_sq: float


def output_probability(state: np.ndarray, output_qubit: int, num_qubits: int) -> Outcome:
    tensor = np.abs(np.asarray(state).reshape([2] * num_qubits)) ** 2
    axes = tuple(i for i in range(num_qubits) if i != output_qubit)
    marginal = tensor.sum(axis=axes) if axes else tensor
    n0, n1 = float(marginal[0]), float(marginal[1])
    return Outcome(p1=n1, norm0_sq=n0, norm1_sq=n1)


def run(
    circuit: Circuit,
    assignment,
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
    check: bool = True,
) -> tuple[np.ndarray, Outcome]:
    """Execute the circuit on one assignment; returns (state, outcome).

    Gates are applied in step order.  The final norm is asserted to be
    1 within 1e-10; a drift beyond that indicates a non-unitary gate
    slipped past validation.
    """
    if circuit.num_qubits > max_qubits:
        raise SimulationError(
            f"{circuit.num_qubits} qubits exceeds the simulation cap {max_qubits}"
        )
    if check:
        circuit.check()
    state = initial_state(circuit, assignment)
    for gate in sorted(circuit.gates, key=lambda g: g.step):
        state = apply_gate(state, gate, circuit.num_qubits)
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > NORM_TOL:
        raise SimulationError(f"state norm drifted to {norm}")
    return state, output_probability(state, circuit.output_qubit, circuit.num_qubits)


def probability_vector(circuit: Circuit, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> np.ndarray:
    """p1 for every assignment, indexed with x1 as the most significant bit."""
    circuit.check()
    n = circuit.num_variables
    out = np.empty(2 ** n)
    for idx in range(2 ** n):
        bits = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
        _, outcome = run(circuit, bits, max_qubits=max_qubits, check=False)
        out[idx] = outcome.p1
    return out


@dataclass(frozen=True)
class FunctionVerdict:
    """Computes, or the first assignment where the thresholds fail.

    ``status`` is one of "computes", "fails", "undetermined"; for the
    non-computing statuses ``alpha`` is the offending assignment (bit
    tuple, x1 first) and ``p`` its acceptance probability.
    """

    status: str
    alpha: tuple[int, ...] | None = None
    p: float | None = None

    @property
    def computes(self) -> bool:
        return self.status == "computes"


COMPUTES = FunctionVerdict("computes")


def evaluate(
    circuit: Circuit, table_bits, *, max_qubits: int = DEFAULT_MAX_QUBITS
) -> FunctionVerdict:
    """Compare the circuit against a truth table over its variables.

    The table is indexed with x1 as the most significant bit.  The scan
    runs in assignment order and reports the first failure; p exactly at
    a threshold counts as undetermined because the defining inequalities
    are strict.
    """
    circuit.check()
    n = circuit.num_variables
    bits = np.asarray(table_bits).reshape(-1)
    if bits.size != 2 ** n:
        raise SimulationError(f"truth table has {bits.size} entries, expected {2 ** n}")
    if not np.all((bits == 0) | (bits == 1)):
        raise SimulationError("truth table entries must be 0/1")
    for idx in range(2 ** n):
        alpha = tuple((idx >> (n - 1 - j)) & 1 for j in range(n))
        _, outcome = run(circuit, alpha, max_qubits=max_qubits, check=False)
        p = outcome.p1
        if 1 / 3 <= p <= 2 / 3:
            return FunctionVerdict("undetermined", alpha, p)
        expected = int(bits[idx])
        if (p > 2 / 3) != (expected == 1):
            return FunctionVerdict("fails", alpha, p)
    return COMPUTES


def to_unitary(circuit: Circuit, *, max_qubits: int = 12) -> np.ndarray:
    """Full 2^m x 2^m operator of the circuit (column-by-column batch)."""
    m = circuit.num_qubits
    if m > max_qubits:
        raise SimulationError(f"to_unitary capped at {max_qubits} qubits, got {m}")
    dim = 2 ** m
    u = np.eye(dim, dtype=complex)
    for gate in sorted(circuit.gates, key=lambda g: g.step):
        k = gate.arity
        tensor = u.reshape([2] * m + [dim])
        op = gate.matrix.reshape([2] * (2 * k))
        moved = np.tensordot(op, tensor, axes=(range(k, 2 * k), gate.targets))
        u = np.moveaxis(moved, range(k), gate.targets).reshape(dim, dim)
    return u


def embed_gate(gate: Gate, num_qubits: int) -> np.ndarray:
    """Explicit 2^m x 2^m embedding of one gate (test oracle; O(4^m))."""
    dim = 2 ** num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    k = gate.arity
    for col in range(dim):
        col_bits = [(col >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        gate_col = 0
        for q in gate.targets:
            gate_col = (gate_col << 1) | col_bits[q]
        for gate_row in range(2 ** k):
            amp = gate.matrix[gate_row, gate_col]
            if amp == 0:
                continue
            row_bits = list(col_bits)
            for pos, q in enumerate(gate.targets):
                row_bits[q] = (gate_row >> (k - 1 - pos)) & 1
            row = 0
            for b in row_bits:
                row = (row << 1) | b
            out[row, col] += amp
    return out
