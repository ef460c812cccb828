"""Circuit intermediate representation and validation.

A circuit is an ordered list of unitary gates over ``num_qubits`` qubit
lines.  Every line carries an input label: either a Boolean variable
``x_j`` (1-based index, possibly repeated on several lines) or a constant
|0> or |1>.  One line is designated as the output; the acceptance
probability of the circuit is read off that line after the last gate.

Conventions fixed here and relied on everywhere else:

* Qubit 0 is the most significant bit of a state-vector index.
* A gate's matrix is indexed with its first target as the most
  significant bit, so target order is significant.
* Gate steps are 1-based and must be strictly increasing; the file
  format additionally requires them to be consecutive 1..t.

All types are immutable; operations on them are pure functions.  So
what a check derives is kept on the checked object and never recomputed:
each gate keeps its unitarity deviation, which travels with the gate
into every circuit that reuses it (``relabel``, ``Gate.moved``); a
circuit keeps its ``check()`` verdict and its computation graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .gates import unitary_deviations

UNITARY_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-9


class CircuitError(Exception):
    """Base class for structural circuit errors."""


class InvalidCircuitError(CircuitError):
    """Raised when an operation requires a valid circuit and gets none."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid circuit: " + "; ".join(violations))
        self.violations = tuple(violations)


@dataclass(frozen=True)
class InputLabel:
    """Label of one input line: variable x_j (var=j >= 1) or constant 0/1."""

    var: int | None = None
    const: int | None = None

    def __post_init__(self):
        if (self.var is None) == (self.const is None):
            raise ValueError("label must set exactly one of var/const")
        if self.var is not None and self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")
        if self.const is not None and self.const not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {self.const}")

    @property
    def is_variable(self) -> bool:
        return self.var is not None

    def __repr__(self) -> str:
        return f"x{self.var}" if self.var is not None else f"|{self.const}>"


def variable(j: int) -> InputLabel:
    return InputLabel(var=j)


def constant(bit: int) -> InputLabel:
    return InputLabel(const=bit)


@dataclass(frozen=True)
class Gate:
    """One unitary gate: position in the sequence, targets, matrix.

    ``targets`` are distinct qubit indices; the matrix has dimension
    2^len(targets) and is stored as an immutable complex128 array (a
    copy).  ``deviation`` is computed once and kept on the gate.
    """

    step: int
    targets: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def arity(self) -> int:
        return len(self.targets)

    @property
    def deviation(self) -> float:
        """Max-entry norm of U†U - I, as ``gates.unitary_deviations``
        computes it; inf for a matrix that is not square or is empty."""
        if "_deviation" not in self.__dict__:
            _keep_deviations((self,))
        return self.__dict__["_deviation"]

    def moved(self, step: int, targets: Sequence[int]) -> "Gate":
        """The same matrix at another step on other targets, with this
        gate's deviation if it has been computed."""
        gate = Gate(step=step, targets=targets, matrix=self.matrix)
        if "_deviation" in self.__dict__:
            object.__setattr__(gate, "_deviation", self.__dict__["_deviation"])
        return gate

    def __repr__(self) -> str:
        return f"Gate(step={self.step}, targets={self.targets})"


def _keep_deviations(gates: Iterable[Gate]) -> None:
    """Compute and keep the deviation of every gate that lacks one: one
    stacked product for all square matrices of one dimension."""
    stacks: dict[tuple[int, ...], list[Gate]] = {}
    for g in gates:
        if "_deviation" not in g.__dict__:
            stacks.setdefault(g.matrix.shape, []).append(g)
    for shape, group in stacks.items():
        if len(shape) == 2 and shape[0] == shape[1] > 0:
            deviations = unitary_deviations(np.array([g.matrix for g in group])).tolist()
        else:
            deviations = [math.inf] * len(group)
        for g, deviation in zip(group, deviations):
            object.__setattr__(g, "_deviation", deviation)


@dataclass(frozen=True)
class Circuit:
    """Gate list over labeled qubit lines with a designated output line."""

    num_qubits: int
    labels: tuple[InputLabel, ...]
    gates: tuple[Gate, ...]
    output_qubit: int
    arity_bound: int = 2

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "gates", tuple(self.gates))

    @property
    def num_variables(self) -> int:
        """Count of distinct variable indices used on the input lines."""
        return len({lb.var for lb in self.labels if lb.var is not None})

    @property
    def variable_indices(self) -> tuple[int, ...]:
        return tuple(sorted({lb.var for lb in self.labels if lb.var is not None}))

    @property
    def size(self) -> int:
        """Gate count plus input-wire count (every line is an input wire)."""
        return len(self.gates) + self.num_qubits

    def relabel(self, labels: Iterable[InputLabel]) -> "Circuit":
        """The same gates on other labels.  The gates are the same objects,
        so their kept deviations carry over, and so does the kept wiring,
        which reads no label; the ``check()`` verdict does not."""
        circuit = replace(self, labels=tuple(labels))
        if "_graph" in self.__dict__:
            object.__setattr__(circuit, "_graph", self.__dict__["_graph"])
        return circuit

    def check(self) -> "Circuit":
        """Raise InvalidCircuitError unless the circuit is well-formed.

        The circuit is immutable, so a successful check is remembered
        and later calls return at once; ``validate`` always re-checks
        (the wiring and labels; each gate's deviation is kept on the gate,
        so a circuit built from checked gates costs no unitarity product).
        """
        if "_valid" not in self.__dict__:
            report = validate(self)
            if not report.ok:
                raise InvalidCircuitError(report.violations)
            object.__setattr__(self, "_valid", True)
        return self


@dataclass(frozen=True)
class ValidationReport:
    """Every violated invariant of a circuit; empty means well-formed."""

    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(circuit: Circuit) -> ValidationReport:
    """Collect every violated circuit invariant into a report.

    Checks: label shape, variable-index contiguity, gate target ranges
    and distinctness, arity against the circuit's arity bound, matrix
    dimension, unitarity within 1e-10, step monotonicity/consecutiveness
    and output-qubit range.  The deviations of gates that lack one are
    computed first, one stacked product per matrix dimension, and kept on
    the gates; a matrix with an entry that is not finite is reported as
    such, not as non-unitary.
    """
    v: list[str] = []
    m = circuit.num_qubits
    if m < 1:
        v.append(f"num_qubits must be >= 1, got {m}")
    if len(circuit.labels) != m:
        v.append(f"expected {m} labels, got {len(circuit.labels)}")
    if not (0 <= circuit.output_qubit < m):
        v.append(f"output qubit {circuit.output_qubit} out of range [0, {m})")
    if circuit.arity_bound < 1:
        v.append(f"arity bound must be >= 1, got {circuit.arity_bound}")

    used = sorted({lb.var for lb in circuit.labels if lb.var is not None})
    if used and used != list(range(1, len(used) + 1)):
        v.append(f"variable indices are not contiguous from 1: {used}")

    _keep_deviations(circuit.gates)
    prev_step = 0
    for g in circuit.gates:
        where = f"step {g.step}"
        if g.step != prev_step + 1:
            v.append(f"gate steps not consecutive at {where} (expected {prev_step + 1})")
        prev_step = g.step
        if len(set(g.targets)) != len(g.targets):
            v.append(f"repeated target at {where}: {g.targets}")
        if any(not (0 <= q < m) for q in g.targets):
            v.append(f"target out of range at {where}: {g.targets}")
        if g.arity > circuit.arity_bound:
            v.append(f"arity exceeds bound at {where}: {g.arity} > {circuit.arity_bound}")
        if g.arity < 1:
            v.append(f"gate with no targets at {where}")
        dim = 2 ** g.arity
        if g.matrix.shape != (dim, dim):
            v.append(f"matrix shape {g.matrix.shape} does not match {g.arity} targets at {where}")
        elif g.deviation > UNITARY_TOL:  # an entry that is not finite makes it inf
            if not np.isfinite(g.matrix).all():
                v.append(f"non-finite matrix entry at {where}")
            else:
                v.append(f"non-unitary at {where} (deviation {g.deviation:.3e})")
    return ValidationReport(tuple(v))


def build_circuit(
    num_qubits: int,
    labels: Sequence[InputLabel],
    gate_specs: Sequence[tuple[Sequence[int], np.ndarray]],
    output_qubit: int,
    arity_bound: int = 2,
) -> Circuit:
    """Assemble a circuit, assigning consecutive steps 1..t to the gates."""
    gates = tuple(
        Gate(step=i + 1, targets=tuple(targets), matrix=matrix)
        for i, (targets, matrix) in enumerate(gate_specs)
    )
    return Circuit(
        num_qubits=num_qubits,
        labels=tuple(labels),
        gates=gates,
        output_qubit=output_qubit,
        arity_bound=arity_bound,
    )
