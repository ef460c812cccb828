"""Counting bounds for the functions computable by small quantum circuits.

Three bound evaluators and one desk-scale witness:

* ``warren_bound``: the (4 e d m / t)^t cap on consistent strict
  sign-assignments to m real polynomials of degree d in t variables.
* ``equiv_class_bound``: how many wiring classes circuits of a given
  size fall into when gate labels are ignored, as C(n', d)^N together
  with the cruder (dN)^(dN).
* ``appendix_bound``: the sign-assignment count over the 2*mu real gate
  entries (mu = 2^(2d) N) of one wiring class, evaluated in log2 to
  stay finite, plus its product with the class count.
* ``enumerate_functions``: exhausts every circuit over a finite gate
  net at toy sizes and reports which Boolean functions are actually
  computed, so the bounds can be checked from below.

A lattice sign-pattern counter is included as a lower-bound witness for
``warren_bound``: a grid can only miss patterns, never invent them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circuit import Circuit, Gate, InputLabel, constant, variable
from .gates import H, I2, X, unitary_deviation
from .simulator import decide, final_states

E = math.e

MAX_ENUM_VARIABLES = 3
MAX_ENUM_GATES = 3
MAX_ENUM_NET = 8
MAX_ENUM_QUBITS = 6


def warren_bound(m: int, t: int, deg: int) -> float:
    """(4 e deg m / t)^t, the sign-assignment cap for m degree-deg
    polynomials in t real variables."""
    if min(m, t, deg) < 1:
        raise ValueError(f"m, t, deg must be positive, got {(m, t, deg)}")
    return (4.0 * E * deg * m / t) ** t


def warren_bound_log2(m: int, t: int, deg: int) -> float:
    """log2 of warren_bound, safe for parameters that overflow a float."""
    if min(m, t, deg) < 1:
        raise ValueError(f"m, t, deg must be positive, got {(m, t, deg)}")
    return t * (math.log2(4.0 * E) + math.log2(deg) + math.log2(m) - math.log2(t))


@dataclass(frozen=True)
class CountingParams:
    """Sizes entering the appendix bounds.

    n: function arity, N: circuit size, d: gate arity, n_prime: input
    wire count (defaults to the maximum d*N).  Requires n <= N.
    """

    n: int
    N: int
    d: int
    n_prime: int | None = None

    def __post_init__(self):
        if min(self.n, self.N, self.d) < 1:
            raise ValueError(f"n, N, d must be positive, got {(self.n, self.N, self.d)}")
        if self.n > self.N:
            raise ValueError(f"the bound assumes n <= N, got n={self.n}, N={self.N}")
        if self.n_prime is None:
            object.__setattr__(self, "n_prime", self.d * self.N)
        if self.n_prime < self.d:
            raise ValueError(f"n_prime={self.n_prime} below gate arity {self.d}")

    @property
    def mu(self) -> int:
        return (2 ** (2 * self.d)) * self.N


@dataclass(frozen=True)
class EquivClassBound:
    """Wiring-class counts: the binomial form and the cruder power form."""

    binomial_form: float  # C(n', d)^N
    power_form: float  # (dN)^(dN)
    log2_binomial_form: float
    log2_power_form: float


def equiv_class_bound(params: CountingParams) -> EquivClassBound:
    choose = math.comb(params.n_prime, params.d)
    log2_binom = params.N * math.log2(choose) if choose > 0 else float("-inf")
    dn = params.d * params.N
    log2_power = dn * math.log2(dn)
    return EquivClassBound(
        binomial_form=float(choose) ** params.N,
        power_form=float(dn) ** dn,
        log2_binomial_form=log2_binom,
        log2_power_form=log2_power,
    )


@dataclass(frozen=True)
class AppendixBound:
    """Sign-assignment factor and its product with the class count, in bits."""

    mu: int
    log2_sign_factor: float
    log2_class_count: float

    @property
    def log2_total(self) -> float:
        return self.log2_sign_factor + self.log2_class_count

    @property
    def sign_factor(self) -> float:
        return 2.0 ** self.log2_sign_factor if self.log2_sign_factor < 1000 else float("inf")

    @property
    def total(self) -> float:
        return 2.0 ** self.log2_total if self.log2_total < 1000 else float("inf")


def appendix_bound(params: CountingParams) -> AppendixBound:
    """Evaluate (4 e N^2 2^(n+1) / (2 mu))^(2 mu) and attach the wiring
    class count; everything is computed in log2 space."""
    mu = params.mu
    log2_sign = warren_bound_log2(
        m=2 ** (params.n + 1), t=2 * mu, deg=params.N ** 2
    )
    classes = equiv_class_bound(params)
    return AppendixBound(
        mu=mu,
        log2_sign_factor=log2_sign,
        log2_class_count=classes.log2_binomial_form,
    )


# ---------------------------------------------------------------------------
# lattice sign-pattern counting (lower-bound witness for warren_bound)

Polynomial = tuple[tuple[float, tuple[int, ...]], ...]
"""Terms as (coefficient, exponents-per-variable)."""


def poly_degree(poly: Polynomial) -> int:
    return max((sum(exp) for _, exp in poly), default=0)


def evaluate_poly(poly: Polynomial, points: np.ndarray) -> np.ndarray:
    """Evaluate at points of shape (num_points, t)."""
    values = np.zeros(points.shape[0])
    for coeff, exponents in poly:
        term = np.full(points.shape[0], coeff)
        for axis, e in enumerate(exponents):
            if e:
                term *= points[:, axis] ** e
        values += term
    return values


def grid_sign_patterns(
    polys: Sequence[Polynomial],
    t: int,
    *,
    low: float = -2.0,
    high: float = 2.0,
    points_per_axis: int = 41,
) -> set[tuple[int, ...]]:
    """Strict sign vectors realized on a lattice.

    Grid points where any polynomial vanishes are skipped, so the count
    never exceeds the number of consistent strict sign-assignments:
    this is a lower-bound witness only.
    """
    axes = [np.linspace(low, high, points_per_axis)] * t
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, t)
    values = np.stack([evaluate_poly(p, mesh) for p in polys], axis=1)
    signs = np.sign(values).astype(int)
    keep = np.all(signs != 0, axis=1)
    return {tuple(row) for row in signs[keep]}


def random_polynomial(rng: np.random.Generator, t: int, deg: int) -> Polynomial:
    """Dense random polynomial with unit-scale coefficients."""
    terms = []
    for exponents in itertools.product(range(deg + 1), repeat=t):
        if sum(exponents) > deg:
            continue
        coeff = float(np.round(rng.uniform(-3, 3), 3))
        if coeff:
            terms.append((coeff, exponents))
    if not terms:
        terms.append((1.0, tuple([0] * t)))
    return tuple(terms)


# ---------------------------------------------------------------------------
# exhaustive enumeration over a finite gate net


@dataclass(frozen=True)
class GateNet:
    """Named unitaries standing in for a continuous gate family."""

    entries: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        frozen = []
        for name, matrix in self.entries:
            m = np.array(matrix, dtype=complex)
            dim = m.shape[0]
            if m.shape != (dim, dim) or dim & (dim - 1):
                raise ValueError(f"net gate {name!r} is not square power-of-two sized")
            if unitary_deviation(m) > 1e-10:
                raise ValueError(f"net gate {name!r} is not unitary")
            m.setflags(write=False)
            frozen.append((name, m))
        object.__setattr__(self, "entries", tuple(frozen))

    @classmethod
    def of(cls, named: Iterable[tuple[str, np.ndarray]]) -> "GateNet":
        return cls(entries=tuple(named))

    @classmethod
    def default(cls) -> "GateNet":
        return cls.of([("I", I2), ("X", X), ("H", H)])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class EnumerationResult:
    """Functions actually computed by the enumerated circuit family."""

    n: int
    tables: tuple[str, ...]  # truth-table strings, sorted
    circuits_scanned: int
    undetermined_circuits: int

    @property
    def count(self) -> int:
        return len(self.tables)


def enumerate_functions(
    n: int,
    num_gates: int,
    net: GateNet,
    *,
    num_qubits: int,
    arity_bound: int = 2,
) -> EnumerationResult:
    """Scan every labeling, gate placement and output choice at toy size.

    Labelings assign each line a variable or a constant, with every one
    of the n variables used at least once.  Each of the num_gates slots
    takes any net entry on any ordered tuple of distinct lines (within
    the arity bound).  A circuit contributes the single function forced
    by its acceptance probabilities, or nothing if any assignment lands
    in the undetermined band.
    """
    if n > MAX_ENUM_VARIABLES or n < 1:
        raise ValueError(f"n must be 1..{MAX_ENUM_VARIABLES}, got {n}")
    if num_gates > MAX_ENUM_GATES or num_gates < 0:
        raise ValueError(f"num_gates must be 0..{MAX_ENUM_GATES}, got {num_gates}")
    if len(net) > MAX_ENUM_NET:
        raise ValueError(f"net size {len(net)} exceeds {MAX_ENUM_NET}")
    if num_qubits > MAX_ENUM_QUBITS or num_qubits < 1:
        raise ValueError(f"num_qubits must be 1..{MAX_ENUM_QUBITS}, got {num_qubits}")
    if n > num_qubits:
        raise ValueError(f"{n} variables cannot all appear on {num_qubits} lines")

    label_options: list[InputLabel] = [variable(j) for j in range(1, n + 1)]
    label_options += [constant(0), constant(1)]
    placements: list[tuple[str, np.ndarray, tuple[int, ...]]] = []
    for name, matrix in net.entries:
        arity = int(math.log2(matrix.shape[0]))
        if arity > min(arity_bound, num_qubits):
            continue
        for targets in itertools.permutations(range(num_qubits), arity):
            placements.append((name, matrix, targets))

    found: set[str] = set()
    scanned = 0
    undetermined = 0
    for labels in itertools.product(label_options, repeat=num_qubits):
        if {lb.var for lb in labels if lb.var is not None} != set(range(1, n + 1)):
            continue
        for chosen in itertools.product(placements, repeat=num_gates):
            gates = tuple(
                Gate(step=i + 1, targets=t, matrix=m)
                for i, (_, m, t) in enumerate(chosen)
            )
            base = Circuit(
                num_qubits=num_qubits,
                labels=labels,
                gates=gates,
                output_qubit=0,
                arity_bound=max(arity_bound, 1),
            )
            # one batch of final states serves every output-line choice
            weights = np.abs(final_states(base, 0, 2 ** n)) ** 2
            for q in range(num_qubits):
                scanned += 1
                others = tuple(a for a in range(num_qubits) if a != q)
                decided = decide(weights.sum(axis=others)[1])
                if np.any(decided < 0):
                    undetermined += 1
                    continue
                found.add("".join(map(str, decided)))
    return EnumerationResult(
        n=n,
        tables=tuple(sorted(found)),
        circuits_scanned=scanned,
        undetermined_circuits=undetermined,
    )
