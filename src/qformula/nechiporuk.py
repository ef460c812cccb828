"""Subfunction counting and the formula-size lower bound calculator.

For a Boolean function f and a partition of its variables into blocks,
the subfunctions on a block are the functions obtained by fixing every
variable outside it.  Counting the distinct ones per block yields the
lower-bound measure

    sum_j log2(sigma_j) / max(1, log2 log2 sigma_j),

the finite form of the size bound this toolkit evaluates.  The clamp in
the denominator keeps blocks with sigma_j in {1, 2} meaningful: such a
block contributes log2(sigma_j) on its own.

The element-distinctness family is the explicit hard instance: the
input parses as ell strings of 2*ceil(log2 ell) bits and the function
accepts when all strings are pairwise distinct; blocks are the strings.
The ceiling makes the per-string alphabet a power of two, which can
only enlarge the subfunction count, so the binomial lower bound
C(ell^2, ell-1) is checked against exact enumeration rather than
assumed.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .circuit import Record

ENUMERATION_CAP = 24


class TruthTable(Record):
    """All 2^n values of a Boolean function, x1 as most significant bit."""

    n: int
    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits, dtype=np.uint8).reshape(-1)
        if arr.size != 2 ** self.n:
            raise ValueError(f"table needs {2 ** self.n} bits, got {arr.size}")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("table bits must be 0/1")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @classmethod
    def from_function(cls, n: int, fn: Callable[[tuple[int, ...]], int]) -> "TruthTable":
        bits = [
            int(bool(fn(tuple((idx >> (n - 1 - j)) & 1 for j in range(n)))))
            for idx in range(2 ** n)
        ]
        return cls(n=n, bits=np.array(bits, dtype=np.uint8))

    def value(self, assignment: Sequence[int]) -> int:
        idx = 0
        for b in assignment:
            idx = (idx << 1) | int(b)
        return int(self.bits[idx])

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


class Partition(Record):
    """Disjoint variable blocks covering {1..n}."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if block & seen:
                raise ValueError(f"blocks overlap on {sorted(block & seen)}")
            seen |= block
        if seen != set(range(1, self.n + 1)):
            raise ValueError(
                f"blocks must cover variables 1..{self.n}, got {sorted(seen)}"
            )

    @classmethod
    def of(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls(n=n, blocks=tuple(frozenset(int(j) for j in b) for b in blocks))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls.of(n, [[j] for j in range(1, n + 1)])


class SubfunctionTable(Record):
    """Deduplicated truth tables induced on one block."""

    block_index: int
    block: frozenset[int]
    tables: tuple[bytes, ...]  # packed 0/1 bytes over the block, sorted

    @property
    def sigma(self) -> int:
        return len(self.tables)


def subfunctions(f: TruthTable, partition: Partition, j: int) -> SubfunctionTable:
    """Enumerate every outside assignment of block j and dedupe the
    induced tables over the block.

    Block variables keep their relative order; each stored table is
    indexed with the block's smallest variable as its most significant
    bit.  The dedupe packs each table's bits into bytes, most significant
    first, and sorts the packed rows as opaque byte strings: byte order
    is the tables' lexicographic order, and a row is 1/8 of the size.
    Capped at n <= 24.
    """
    if f.n > ENUMERATION_CAP:
        raise ValueError(f"n={f.n} exceeds the enumeration cap {ENUMERATION_CAP}")
    if f.n != partition.n:
        raise ValueError(f"table has n={f.n} but partition covers n={partition.n}")
    if not (0 <= j < len(partition.blocks)):
        raise ValueError(f"block index {j} outside 0..{len(partition.blocks) - 1}")
    block = sorted(partition.blocks[j])
    outside = [v for v in range(1, f.n + 1) if v not in partition.blocks[j]]
    # axis v-1 of the reshaped table corresponds to variable v
    tensor = f.bits.reshape([2] * f.n)
    arranged = np.moveaxis(
        tensor,
        [v - 1 for v in block + outside],
        list(range(f.n)),
    ).reshape(2 ** len(block), -1)
    rows = arranged.T  # one table per outside assignment
    packed = np.ascontiguousarray(np.packbits(rows, axis=1))
    _, first = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), return_index=True
    )
    return SubfunctionTable(
        block_index=j,
        block=partition.blocks[j],
        tables=tuple(row.tobytes() for row in rows[first]),
    )


def bound_term(sigma: int) -> float:
    """log2(sigma) / max(1, log2 log2 sigma); zero for constant blocks."""
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    if sigma == 1:
        return 0.0
    log = math.log2(sigma)
    return log / max(1.0, math.log2(log))


class BoundReport(Record):
    """Per-block subfunction counts sigma_j, their terms and their sum."""

    sigmas: tuple[int, ...]
    terms: tuple[float, ...]

    @property
    def total(self) -> float:
        return float(sum(self.terms))


def nechiporuk_bound(f: TruthTable, partition: Partition) -> BoundReport:
    """Per-block subfunction counts, their terms, and the summed bound."""
    sigmas = tuple(
        subfunctions(f, partition, j).sigma for j in range(len(partition.blocks))
    )
    return BoundReport(sigmas=sigmas, terms=tuple(bound_term(s) for s in sigmas))


# ---------------------------------------------------------------------------
# element distinctness


def ed_parameters(ell: int) -> tuple[int, int]:
    """(bits per string, total variables) for the given string count."""
    if ell < 2:
        raise ValueError(f"element distinctness needs at least 2 strings, got {ell}")
    bits = 2 * math.ceil(math.log2(ell))
    return bits, ell * bits


def ed_function(ell: int) -> TruthTable:
    """Accept exactly when the ell input strings are pairwise distinct."""
    bits, n = ed_parameters(ell)
    if n > ENUMERATION_CAP:
        raise ValueError(f"ell={ell} needs n={n} > cap {ENUMERATION_CAP}")
    indices = np.arange(2 ** n, dtype=np.int64)
    strings = [
        (indices >> (n - bits * (i + 1))) & ((1 << bits) - 1) for i in range(ell)
    ]
    distinct = np.ones(2 ** n, dtype=bool)
    for a in range(ell):
        for b in range(a + 1, ell):
            distinct &= strings[a] != strings[b]
    return TruthTable(n=n, bits=distinct.astype(np.uint8))


def ed_partition(ell: int) -> Partition:
    """One block per string: consecutive runs of 2*ceil(log2 ell) variables."""
    bits, n = ed_parameters(ell)
    return Partition.of(
        n, [range(i * bits + 1, (i + 1) * bits + 1) for i in range(ell)]
    )


class SigmaCheckError(ArithmeticError):
    """Exact subfunction counts contradict the element-distinctness bound."""


class EDSigmaReport(Record):
    """Element distinctness's exact sigma_j per block and C(ell^2, ell - 1)."""

    ell: int
    sigmas: tuple[int, ...]
    binomial: int

    @property
    def symmetric(self) -> bool:
        return len(set(self.sigmas)) == 1

    @property
    def bound_holds(self) -> bool:
        return all(s >= self.binomial for s in self.sigmas)


def ed_sigma_check(ell: int, table: TruthTable | None = None) -> EDSigmaReport:
    """Brute-force sigma_j per block and compare with C(ell^2, ell-1).

    Also witnesses the symmetry of element distinctness in its blocks:
    every block must yield the same count.  ``table`` is
    ``ed_function(ell)`` when the caller has already built it.
    """
    f = ed_function(ell) if table is None else table
    partition = ed_partition(ell)
    sigmas = tuple(
        subfunctions(f, partition, j).sigma for j in range(len(partition.blocks))
    )
    report = EDSigmaReport(
        ell=ell, sigmas=sigmas, binomial=math.comb(ell * ell, ell - 1)
    )
    if not report.symmetric:
        raise SigmaCheckError(f"blocks disagree: {sigmas}")
    if not report.bound_holds:
        raise SigmaCheckError(f"sigma {min(sigmas)} < C({ell * ell}, {ell - 1})")
    return report
