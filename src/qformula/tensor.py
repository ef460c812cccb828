"""Tensor-product linear algebra on state vectors.

The norm and inner-product factorization of tensor products (and the
orthonormality of product families built from orthonormal factors) are
the algebraic backbone of the squeezing rewrite; these helpers keep the
conventions in one place and are exercised by randomized identity sweeps
at tolerance 1e-12.  ``orthonormalize`` is the rewrite's basis rule, one
SVD, and the product-family sweep builds its families with it.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .circuit import DEFAULT_RANK_TOL


class DimensionError(ValueError):
    """Vector dimensions are incompatible or not powers of two."""


def _as_vector(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.size == 0 or (v.size & (v.size - 1)) != 0:
        raise DimensionError(f"{name} dimension {v.size} is not a power of two")
    return v


def kron(a, b) -> np.ndarray:
    """Tensor product a (x) b; the first factor is most significant."""
    a, b = _as_vector(a, "first factor"), _as_vector(b, "second factor")
    # np.kron's own broadcast, without its overhead; np.multiply.outer
    # rounds a product of two 1-entry factors differently
    return np.multiply(a[:, None], b[None, :]).reshape(-1)


def inner_product(x1, x2) -> complex:
    """<x1|x2>, conjugate-linear in the first argument."""
    v1 = np.asarray(x1, dtype=complex).reshape(-1)
    v2 = np.asarray(x2, dtype=complex).reshape(-1)
    if v1.size != v2.size:
        raise DimensionError(f"dimension mismatch: {v1.size} vs {v2.size}")
    return complex(np.vdot(v1, v2))


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a complex vector, computed as np.linalg.norm
    computes it, bit for bit, without its argument handling."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def orthonormalize(vectors: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal basis of span(vectors) from one SVD of their stack,
    each vector taken flat: the squeezing rewrite's basis rule.

    The rank counts singular values above ``DEFAULT_RANK_TOL`` times the
    largest.  The basis rows are the leading right singular vectors, each
    phased so its largest entry (the first on ties) is real and positive.
    Returns the basis rows, the coefficients (``vectors = coefficients @
    basis``, one row per vector) and every singular value, largest first.
    An all-zero input yields an empty basis.
    """
    if len(vectors) == 0:
        raise ValueError("orthonormalize requires a nonempty vector list")
    try:
        stacked = np.asarray(vectors, dtype=complex)
    except ValueError:  # numpy refuses a ragged stack
        raise DimensionError("vectors must share one dimension") from None
    left, sing, right = np.linalg.svd(stacked.reshape(len(stacked), -1), full_matrices=False)
    rank = int(np.count_nonzero(sing > DEFAULT_RANK_TOL * sing[0]))
    rows = right[:rank]
    peaks = rows[np.arange(rank), abs(rows).argmax(axis=1)]
    phases = peaks / abs(peaks)
    return rows * phases.conj()[:, None], left[:, :rank] * (sing[:rank] * phases), sing


def expansion_coefficients(
    basis: Sequence[np.ndarray], vectors: Sequence[np.ndarray]
) -> np.ndarray:
    """Coefficient matrix c[j, i] = <basis_j | vectors_i>."""
    return np.array([[np.vdot(b, v) for v in vectors] for b in basis])
