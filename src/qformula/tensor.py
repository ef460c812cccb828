"""Tensor-product linear algebra on state vectors.

The norm and inner-product factorization of tensor products (and the
orthonormality of product families built from orthonormal factors) are
the algebraic backbone of the squeezing rewrite; these helpers keep the
conventions in one place and are exercised by randomized identity sweeps
at tolerance 1e-12.
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


def orthonormalize(
    vectors: Sequence[np.ndarray], tol: float = DEFAULT_RANK_TOL
) -> tuple[list[np.ndarray], int]:
    """Orthonormal basis of span(vectors) by modified Gram-Schmidt.

    Residuals below ``tol`` times the spectral norm of the stacked input
    are treated as zero, so the returned dimension is the numerical rank
    at that threshold.  An all-zero input yields an empty basis.  The
    tests cross-check it against the squeezing rewrite's SVD rank.
    """
    if len(vectors) == 0:
        raise ValueError("orthonormalize requires a nonempty vector list")
    rows = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if len({r.size for r in rows}) > 1:
        raise DimensionError("vectors must share one dimension")
    stacked = np.array(rows)
    scale = float(np.linalg.svd(stacked, compute_uv=False)[0])  # the spectral norm
    if scale == 0.0:
        return [], 0
    threshold = tol * scale
    basis: list[np.ndarray] = []
    for w in stacked:  # each row is reduced in place
        for b in basis:
            w -= np.vdot(b, w) * b
        # second pass guards against cancellation in nearly dependent sets
        for b in basis:
            w -= np.vdot(b, w) * b
        length = norm(w)
        if length > threshold:
            basis.append(w / length)
    return basis, len(basis)


def expansion_coefficients(
    basis: Sequence[np.ndarray], vectors: Sequence[np.ndarray]
) -> np.ndarray:
    """Coefficient matrix c[j, i] = <basis_j | vectors_i>."""
    return np.array([[np.vdot(b, v) for v in vectors] for b in basis])
