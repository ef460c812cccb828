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
circuit keeps its ``check()`` verdict, its gate checks' verdict and its
computation graph, and ``relabel`` carries the last two over.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, replace
from typing import Iterable, Sequence

import numpy as np

from .gates import unitary_deviations

UNITARY_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-9


class CircuitError(Exception):
    """Base class for structural circuit errors."""


class Record:
    """Base of the immutable records, which behave as ``@dataclass(frozen=True)``
    classes: ``dataclasses`` only registers their fields, so ``fields`` and
    ``replace`` work, but no method is compiled from source text at import
    (``@dataclass`` does six per class).  Instances keep a ``__dict__``,
    where checks cache what they derive."""

    def __init_subclass__(cls):
        declared = fields(dataclass(cls, init=False, repr=False, eq=False))
        cls._defaults = [f for f in declared if f.default is not MISSING or f.default_factory is not MISSING]
        cls._compared = [f.name for f in declared if f.compare]
        cls._hashed = [f.name for f in declared if (f.compare if f.hash is None else f.hash)]

    def __init__(self, *args, **kwargs):
        names = self.__match_args__  # the fields, in order
        if len(args) > len(names) or kwargs.keys() - names[len(args):]:
            raise TypeError(f"{type(self).__qualname__}() got unexpected or repeated arguments")
        values = self.__dict__
        for f in self._defaults:
            values[f.name] = f.default if f.default_factory is MISSING else f.default_factory()
        values.update(zip(names, args), **kwargs)
        if len(values) < len(names):
            raise TypeError(f"{type(self).__qualname__}() missing {set(names) - values.keys()}")
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __repr__(self) -> str:
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, n) for n in self._compared] == [getattr(other, n) for n in self._compared]

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, n) for n in self._hashed]))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class InvalidCircuitError(CircuitError):
    """Raised when an operation requires a valid circuit and gets none."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid circuit: " + "; ".join(violations))
        self.violations = tuple(violations)


class InputLabel(Record):
    """Label of one input line: variable x_j (var=j >= 1) or constant 0/1."""

    var: int | None = None
    const: int | None = None

    def __init__(self, var: int | None = None, const: int | None = None):
        if (var is None) == (const is None):
            raise ValueError("label must set exactly one of var/const")
        if var is not None and var < 1:
            raise ValueError(f"variable index must be >= 1, got {var}")
        if const is not None and const not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {const}")
        self.__dict__["var"], self.__dict__["const"] = var, const

    @property
    def is_variable(self) -> bool:
        return self.var is not None

    def __repr__(self) -> str:
        return f"x{self.var}" if self.var is not None else f"|{self.const}>"


def variable(j: int) -> InputLabel:
    return InputLabel(var=j)


def constant(bit: int) -> InputLabel:
    return InputLabel(const=bit)


class Gate(Record):
    """One unitary gate: position in the sequence, targets, matrix.

    ``targets`` are distinct qubit indices; the matrix has dimension
    2^len(targets) and is stored as an immutable complex128 array (a
    copy, which gates re-stepped with ``moved`` share).  ``deviation``
    is computed once and kept on the gate.
    """

    step: int
    targets: tuple[int, ...]
    matrix: np.ndarray

    def __init__(self, step: int, targets: Sequence[int], matrix: np.ndarray):
        targets = tuple(int(q) for q in targets)
        matrix = np.array(matrix, dtype=complex)
        matrix.setflags(write=False)
        self.__dict__.update(step=step, targets=targets, matrix=matrix)

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
        """This gate's matrix, the very (read-only) array, at another step
        on other targets, with this gate's deviation if it has been
        computed."""
        gate = object.__new__(Gate)
        gate.__dict__.update(self.__dict__, step=step, targets=tuple(int(q) for q in targets))
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


class Circuit(Record):
    """Gate list over labeled qubit lines with a designated output line."""

    num_qubits: int
    labels: tuple[InputLabel, ...]
    gates: tuple[Gate, ...]
    output_qubit: int
    arity_bound: int = 2

    def __init__(self, num_qubits: int, labels: Iterable[InputLabel], gates: Iterable[Gate],
                 output_qubit: int, arity_bound: int = 2):
        self.__dict__.update(num_qubits=num_qubits, labels=tuple(labels), gates=tuple(gates),
                             output_qubit=output_qubit, arity_bound=arity_bound)

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
        so their kept deviations carry over, and so do the kept wiring and
        gate checks, which read no label; the ``check()`` verdict does not,
        so a check re-checks only the labels."""
        circuit = replace(self, labels=tuple(labels))
        for kept in ("_graph", "_gate_violations"):
            if kept in self.__dict__:
                object.__setattr__(circuit, kept, self.__dict__[kept])
        return circuit

    def check(self) -> "Circuit":
        """Raise InvalidCircuitError unless the circuit is well-formed.

        The circuit is immutable, so a successful check is remembered
        and later calls return at once; ``validate`` always re-checks the
        labels and output line (its gate checks are kept on the circuit,
        each gate's deviation on the gate: checked gates cost no product).
        """
        if "_valid" not in self.__dict__:
            report = validate(self)
            if not report.ok:
                raise InvalidCircuitError(report.violations)
            object.__setattr__(self, "_valid", True)
        return self


class ValidationReport(Record):
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
    such, not as non-unitary.  The gate checks, which read no label, run
    once per circuit and are kept on it (``relabel`` carries them over).
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

    if "_gate_violations" not in circuit.__dict__:
        object.__setattr__(circuit, "_gate_violations", _gate_violations(circuit))
    return ValidationReport((*v, *circuit.__dict__["_gate_violations"]))


def _gate_violations(circuit: Circuit) -> tuple[str, ...]:
    """``validate``'s checks of each gate, which read no label."""
    _keep_deviations(circuit.gates)
    m, v = circuit.num_qubits, []
    prev_step = 0
    for g in circuit.gates:
        if g.step != prev_step + 1:
            v.append(f"gate steps not consecutive at step {g.step} (expected {prev_step + 1})")
        prev_step = g.step
        if len(set(g.targets)) != len(g.targets):
            v.append(f"repeated target at step {g.step}: {g.targets}")
        if any(not (0 <= q < m) for q in g.targets):
            v.append(f"target out of range at step {g.step}: {g.targets}")
        if g.arity > circuit.arity_bound:
            v.append(f"arity exceeds bound at step {g.step}: {g.arity} > {circuit.arity_bound}")
        if g.arity < 1:
            v.append(f"gate with no targets at step {g.step}")
        dim = 2 ** g.arity
        if g.matrix.shape != (dim, dim):
            v.append(f"matrix shape {g.matrix.shape} does not match {g.arity} targets at step {g.step}")
        elif g.deviation > UNITARY_TOL:  # an entry that is not finite makes it inf
            if not np.isfinite(g.matrix).all():
                v.append(f"non-finite matrix entry at step {g.step}")
            else:
                v.append(f"non-unitary at step {g.step} (deviation {g.deviation:.3e})")
    return tuple(v)


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
