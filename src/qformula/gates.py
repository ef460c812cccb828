"""Standard gate matrices, deterministic random unitaries, capped products.

All matrices are complex128 numpy arrays indexed with the gate's first
target qubit as the most significant bit.
"""
from __future__ import annotations

import math
import os
import re
from typing import Sequence

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)

SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)

# Control on the first two targets, X on the third.
TOFFOLI = np.eye(8, dtype=complex)
TOFFOLI[[6, 7]] = TOFFOLI[[7, 6]]


def _blas_may_thread() -> bool:
    """False only for OpenBLAS on one thread, counted as OpenBLAS counts:
    the first positive OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
    OMP_NUM_THREADS, at most the CPUs this process may run on.  In doubt
    (another BLAS, a count that is not an integer), True."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    counts = [os.environ.get(name, "").strip() or "0" for name in names]
    if "openblas" not in str(blas.get("name")) or not all(re.fullmatch("[+-]?[0-9]+", c) for c in counts):
        return True
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(next((int(c) for c in counts if int(c) > 0), cpus), cpus) > 1


# multiply-adds of the largest product handed to BLAS in one call; None,
# no cap, when BLAS runs on one thread (decided once, at import).  OpenBLAS
# splits larger products across threads, which stall for up to
# milliseconds per call when the other cores are busy; complex products of
# 2^15 stayed on one thread and 2^16 did not (OpenBLAS 0.3.31).  On one
# thread a whole call is fastest: a 32x32 block times 32x1024 columns ran
# at 4.6 G complex multiply-adds/s in one call, 2.6-3.1 G as slices.
BLAS_SLICE_MACS = 2 ** 15 if _blas_may_thread() else None


def complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """``rng.normal(size=shape) + 1j * rng.normal(size=shape)``, bit for bit, from one fill."""
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = rng.normal(size=(2, *z.shape))
    return z


def gaussian_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The complex Gaussian matrix ``random_unitary`` draws and completes."""
    return complex_normal((dim, dim), rng)


def complete_unitaries(gaussians: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The Q of each square Gaussian matrix's QR, R's diagonal phases
    normalized, so a unitary is a deterministic function of its matrix.
    Matrices of one dimension share one stacked QR, which runs the same
    LAPACK factorization per matrix: bit for bit a QR of each alone."""
    unitaries = list(gaussians)
    for dim in {len(z) for z in gaussians}:
        indices = [i for i, z in enumerate(gaussians) if len(z) == dim]
        q, r = np.linalg.qr(np.array([gaussians[i] for i in indices]))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        for i, u in zip(indices, q * (d / np.abs(d))[..., None, :]):
            unitaries[i] = u
    return unitaries


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    return complete_unitaries([gaussian_matrix(dim, rng)])[0]


def capped_matmul(matrix: np.ndarray, flat: np.ndarray, out=None) -> np.ndarray:
    """``matrix @ flat`` (``flat`` a matrix or a stack of them, ``matrix``
    one matrix or a stack of as many), written to ``out`` when given; the
    result has ``matrix``'s row count.  A product over a
    ``BLAS_SLICE_MACS`` cap goes as one stack of column slices, as wide as
    fits (at least one column); with no cap, it is ``np.matmul`` at once."""
    if BLAS_SLICE_MACS is None:
        return np.matmul(matrix, flat, out=out)
    *lead, dim, cols = flat.shape
    rows = matrix.shape[-2]
    if rows * dim * cols <= BLAS_SLICE_MACS:
        return np.matmul(matrix, flat, out=out)
    width = math.gcd(cols, max(1, BLAS_SLICE_MACS // (rows * dim)))
    if out is None:
        out = np.empty((*lead, rows, cols), np.result_type(matrix, flat))
    np.matmul(matrix[..., None, :, :],
              np.swapaxes(flat.reshape(*lead, dim, cols // width, width), -3, -2),
              out=np.swapaxes(out.reshape(*lead, rows, cols // width, width), -3, -2))
    return out


def unitary_deviations(stack: np.ndarray) -> np.ndarray:
    """Max-entry norm of U†U - I for each matrix of a stack of square
    matrices (0 for an exact unitary), from one stacked, capped product.

    A deviation that is not a number (a NaN entry) or that overflows the
    float range (an entry that is not finite, or near the float range)
    is inf, without a numpy warning.
    """
    eye = np.eye(stack.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        gram = capped_matmul(np.swapaxes(stack.conj(), -1, -2), stack)
        deviations = np.abs(gram - eye).max(axis=(-2, -1))
    deviations[np.isnan(deviations)] = np.inf
    return deviations


def unitary_deviation(matrix: np.ndarray) -> float:
    """``unitary_deviations`` of one matrix; inf for one that is not square."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return float("inf")
    return float(unitary_deviations(matrix[None])[0])
