"""Counting bounds for the functions computable by small quantum circuits.

Three bound evaluators and one desk-scale witness:

* ``warren_bound``: the (4 e d m / t)^t cap on consistent strict
  sign-assignments to m real polynomials of degree d in t variables.
* ``equiv_class_bound``: how many wiring classes circuits of a given
  size fall into when gate labels are ignored, as C(n', d)^N together
  with the cruder (dN)^(dN).
* ``appendix_bound``: the sign-assignment count over the 2*mu real gate
  entries (mu = 2^(2d) N) of one wiring class, plus its product with
  the class count.
* ``enumerate_functions``: exhausts every circuit over a finite gate
  net at toy sizes and reports which Boolean functions are actually
  computed, so the bounds can be checked from below.  It is one stacked
  scan: each placement (a net entry on an ordered tuple of lines) is
  embedded once as a 2^m x 2^m operator through the gate kernel, and the
  operators of all gate sequences are built slot by slot with batched
  products, in stacks of at most ``simulator.CHUNK_AMPLITUDES``
  amplitudes.  Every labeling shares them: its p on every output line is
  read from |U|^2 at its input columns.  A p within ``BOUNDARY_TOL`` of
  1/3 or 2/3 (``simulator._near``) is re-decided by the step-order state
  vector on that one circuit, so the verdicts are the oracle's.

Every bound is computed once, in log2, so no size overflows; a linear
value is reported only while it is a finite float, else None.  A lattice
sign-pattern counter is included as a lower-bound witness for
``warren_bound``: a grid can only miss patterns, never invent them.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .circuit import UNITARY_TOL, Circuit, Gate, Record, constant, variable
from . import simulator
from .gates import H, I2, X, capped_matmul, unitary_deviation
from .simulator import _line_values, _near, _operator, decide

E = math.e

MAX_ENUM_VARIABLES = 3
MAX_ENUM_GATES = 3
MAX_ENUM_NET = 8
MAX_ENUM_QUBITS = 6
GRID_AXIS = np.linspace(-2.0, 2.0, 41)


def _linear(log2: float) -> float | None:
    """2^log2 when that is a finite float, else None."""
    return 2.0 ** log2 if log2 < 1024 else None


def warren_bound_log2(m: int, t: int, deg: int) -> float:
    """log2 of (4 e deg m / t)^t, the sign-assignment cap for m
    degree-deg polynomials in t real variables; ValueError when that
    log2 is itself past the float range."""
    if min(m, t, deg) < 1:
        raise ValueError(f"m, t, deg must be positive, got {(m, t, deg)}")
    return _warren_log2(math.log2(m), t, deg)


def _warren_log2(log2_m: float, t: int, deg: int) -> float:
    """``warren_bound_log2`` from log2 m, so m itself need not be built."""
    try:  # t may be an int past the float range
        log2 = t * (math.log2(4.0 * E) + math.log2(deg) + log2_m - math.log2(t))
    except OverflowError:
        log2 = math.inf
    if not math.isfinite(log2):
        logs = ", ".join(f"{v:.6g}" for v in (log2_m, math.log2(t), math.log2(deg)))
        raise ValueError(f"Warren bound's log2 past the float range at log2 (m, t, deg) = ({logs})")
    return log2


def warren_bound(m: int, t: int, deg: int) -> float | None:
    """(4 e deg m / t)^t, or None past the float range."""
    return _linear(warren_bound_log2(m, t, deg))


class CountingParams(Record):
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


class EquivClassBound(Record):
    """Wiring-class counts, the binomial form and the cruder power form,
    in log2; each count itself while it is below 2^1023, else None."""

    binomial_form: float | None  # C(n', d)^N
    power_form: float | None  # (dN)^(dN)
    log2_binomial_form: float
    log2_power_form: float


def _power(base: int, exponent: int) -> tuple[float, float | None]:
    """log2 of base^exponent, and the exact power while below 2^1023."""
    log2 = exponent * math.log2(base)
    return log2, float(base ** exponent) if log2 < 1023 else None


def equiv_class_bound(params: CountingParams) -> EquivClassBound:
    """Both wiring-class counts; ValueError when a log2 is past the float range."""
    dn = params.d * params.N
    k = min(params.d, params.n_prime - params.d)
    try:  # n' and dN may be ints past the float range
        if k < 1024:
            log2_binom, binom = _power(math.comb(params.n_prime, params.d), params.N)
        else:  # C(n', k) > 2^1023, with millions of digits at k = 10^6: its log2 from lgamma
            n = params.n_prime
            ln_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            log2_binom, binom = params.N * ln_binom / math.log(2), None
        log2_power, power = _power(dn, dn)
    except OverflowError:
        log2_binom = log2_power = math.inf
    if math.inf in (log2_binom, log2_power):
        logs = ", ".join(f"{math.log2(v):.6g}" for v in (params.n_prime, params.d, params.N))
        raise ValueError(f"wiring classes' log2 past the float range at log2 (n', d, N) = ({logs})")
    return EquivClassBound(binom, power, log2_binom, log2_power)


class AppendixBound(Record):
    """Sign-assignment factor and its product with the class count, in
    bits; the linear values are None past the float range."""

    mu: int
    log2_sign_factor: float
    log2_class_count: float

    @property
    def log2_total(self) -> float:
        return self.log2_sign_factor + self.log2_class_count

    @property
    def sign_factor(self) -> float | None:
        return _linear(self.log2_sign_factor)

    @property
    def total(self) -> float | None:
        return _linear(self.log2_total)


def appendix_bound(params: CountingParams) -> AppendixBound:
    """Evaluate (4 e N^2 2^(n+1) / (2 mu))^(2 mu) and attach the wiring
    class count; everything is computed in log2 space."""
    log2_t = 2 * params.d + 1 + math.log2(params.N)  # t = 2 mu, not built past 2^1024
    if log2_t >= 1024:
        logs = f"{params.n + 1:.6g}, {log2_t:.6g}, {2 * math.log2(params.N):.6g}"
        raise ValueError(f"Warren bound's log2 past the float range at log2 (m, t, deg) = ({logs})")
    mu = params.mu
    # m = 2^(n+1) is not built: log2 m = n + 1 exactly, as math.log2 gives it
    log2_sign = _warren_log2(params.n + 1, 2 * mu, params.N ** 2)
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


def grid_sign_patterns(polys: Sequence[Polynomial], t: int) -> set[tuple[int, ...]]:
    """Strict sign vectors realized on the lattice ``GRID_AXIS``^t.

    Grid points where any polynomial vanishes are skipped, so the count
    never exceeds the number of consistent strict sign-assignments:
    this is a lower-bound witness only.
    """
    axes = [GRID_AXIS] * t
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


class GateNet(Record):
    """Named unitaries standing in for a continuous gate family."""

    entries: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        frozen = []
        for name, matrix in self.entries:
            m = np.array(matrix, dtype=complex)
            dim = m.shape[0]
            if m.shape != (dim, dim) or dim & (dim - 1):
                raise ValueError(f"net gate {name!r} is not square power-of-two sized")
            if unitary_deviation(m) > UNITARY_TOL:
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


class EnumerationResult(Record):
    """Functions actually computed by the enumerated circuit family."""

    n: int
    tables: tuple[str, ...]  # truth-table strings, sorted
    circuits_scanned: int
    undetermined_circuits: int

    @property
    def count(self) -> int:
        return len(self.tables)


def _sequence_operators(operators: list[np.ndarray], num_gates: int, dim: int, stack: int):
    """(first, ops): the operators of gate sequences first, first + 1, ...
    in ``itertools.product`` order (slot 1 most significant), as stacks
    of at most ``stack`` operators.  Slot k + 1 multiplies each
    placement's operator into a stack of slot-k prefixes."""
    def extend(k: int, first: int, prefixes: np.ndarray):
        if k == num_gates:
            yield first, prefixes
            return
        count = len(operators)
        width = min(count, stack)  # placements per stack
        rows = stack // count if width == count else 1  # prefixes per stack
        for s in range(0, len(prefixes), rows):
            block = prefixes[s:s + rows]
            for j in range(0, count, width):
                ops = np.empty((len(block), min(width, count - j), dim, dim), complex)
                for t in range(ops.shape[1]):
                    capped_matmul(operators[j + t], block, out=ops[:, t])
                yield from extend(k + 1, (first + s) * count + j, ops.reshape(-1, dim, dim))

    yield from extend(0, 0, np.eye(dim, dtype=complex)[None])


def _scan(n: int, num_gates: int, net: GateNet, num_qubits: int, arity_bound: int):
    """(first, labeling, p) per chunk: p[i, o, l, a] is the acceptance
    probability, read from |U|^2 (from ``simulator._scan`` near a threshold),
    of gate sequence first + i on output line o under labeling labeling + l
    at assignment a (x1 most significant).  Labelings and gate sequences
    are numbered in ``itertools.product`` order."""
    m, dim = num_qubits, 2 ** num_qubits
    options = [variable(j) for j in range(1, n + 1)] + [constant(0), constant(1)]
    labelings = [labels for labels in itertools.product(options, repeat=m)  # each variable used
                 if {lb.var for lb in labels} - {None} == set(range(1, n + 1))]
    placements = [(matrix, targets) for _, matrix in net.entries  # within the arity bound
                  if (arity := len(matrix).bit_length() - 1) <= min(arity_bound, m)
                  for targets in itertools.permutations(range(m), arity)]
    if num_gates and not placements:
        return
    operators = [_operator([Gate(1, targets, matrix)], m) for matrix, targets in placements]
    stack = max(1, simulator.CHUNK_AMPLITUDES // dim ** 2)
    # columns[l, a]: the input basis state of labeling l at assignment a
    place = 1 << np.arange(m - 1, -1, -1)
    columns = np.array([place @ _line_values(Circuit(m, labels, (), 0), 0, 2 ** n)
                        for labels in labelings])
    for first, ops in _sequence_operators(operators, num_gates, dim, stack):
        # accept[i, o, c]: the weight of line o's 1-rows in column c of U_i,
        # summed over the other row axes as the state vector sums them
        squared = (np.abs(ops) ** 2).reshape(len(ops), *[2] * m, dim)
        accept = np.stack([squared.sum(axis=tuple(1 + q for q in range(m) if q != o))[:, 1]
                           for o in range(m)], axis=1)
        per = max(1, simulator.CHUNK_AMPLITUDES // ((len(ops) * m) << n))  # labelings per chunk
        for lo in range(0, len(labelings), per):
            p = accept[:, :, columns[lo:lo + per]]
            for i, o, l in zip(*np.nonzero(_near(p).any(axis=-1))):
                digits = np.unravel_index(first + i, (len(placements),) * num_gates)
                gates = [Gate(k + 1, placements[d][1], placements[d][0]) for k, d in enumerate(digits)]
                circuit = Circuit(m, labelings[lo + l], gates, o, arity_bound)
                p[i, o, l] = simulator._scan(circuit, 0, 2 ** n)
            yield first, lo, p


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
    in the undetermined band.  Every labeling reads the operators of the
    gate sequences, built once per sequence (``_scan``).
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
    if arity_bound < 1:
        raise ValueError(f"arity_bound must be at least 1, got {arity_bound}")

    found: set[int] = set()  # truth tables as integers, assignment 0 the top bit
    scanned = 0
    undetermined = 0
    weights = 1 << np.arange(2 ** n - 1, -1, -1)
    for _, _, p in _scan(n, num_gates, net, num_qubits, arity_bound):
        decided = decide(p)
        determined = (decided >= 0).all(axis=-1)
        scanned += determined.size
        undetermined += determined.size - int(determined.sum())
        found.update((decided[determined] @ weights).tolist())
    tables = sorted(format(t, f"0{2 ** n}b") for t in found)
    return EnumerationResult(n, tuple(tables), scanned, undetermined)
