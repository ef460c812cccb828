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
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)

CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)

CZ = np.diag([1, 1, 1, -1]).astype(complex)

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

NAMED_GATES: dict[str, np.ndarray] = {
    "I": I2, "X": X, "Y": Y, "Z": Z, "H": H, "S": S, "T": T,
    "CNOT": CNOT, "CZ": CZ, "SWAP": SWAP, "TOFFOLI": TOFFOLI,
}


def gaussian_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The complex Gaussian matrix ``random_unitary`` draws and completes."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


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
    """``matrix @ flat`` (square matrix), written to ``out`` when given.  A
    product over a ``BLAS_SLICE_MACS`` cap goes as one stack of column
    slices, as wide as fits (at least one column)."""
    dim, cols = flat.shape
    if BLAS_SLICE_MACS is None or dim * dim * cols <= BLAS_SLICE_MACS:
        return np.matmul(matrix, flat, out=out)
    width = math.gcd(cols, max(1, BLAS_SLICE_MACS // dim ** 2))
    shape = (dim, cols // width, width)
    if out is None:
        out = np.empty(flat.shape, np.result_type(matrix, flat))
    np.matmul(matrix, flat.reshape(shape).transpose(1, 0, 2),
              out=out.reshape(shape).transpose(1, 0, 2))
    return out


def unitary_deviation(matrix: np.ndarray) -> float:
    """Max-entry norm of U†U - I (0 for an exact unitary).

    Entries near the float range overflow in the (capped) product; the
    deviation is then inf, without a numpy warning.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return float("inf")
    eye = np.eye(matrix.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = float(np.abs(capped_matmul(matrix.conj().T, matrix) - eye).max())
    return float("inf") if math.isnan(deviation) else deviation
