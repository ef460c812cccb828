"""The benchmark's own circuit files, input generators and reference checks.

Nothing here imports ``qformula``: outputs of the code under test are
checked against this dense numpy simulator, the classical skeleton of a
permutation circuit, and formula facts derived by hand.

Circuits are kept in the documented JSON file form (a dict with
``num_qubits``, ``labels``, ``gates`` and ``output_qubit``; matrices as
flat lists of ``[re, im]`` pairs, first target as the most significant
bit), so the same object is written to disk and checked.
"""
from __future__ import annotations

import json
import math

import numpy as np


def matrix_to_json(matrix) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(matrix, dtype=complex).reshape(-1)]


def circuit_dict(num_qubits, labels, gates, output_qubit, arity_bound=2) -> dict:
    """File form of a circuit; ``labels`` are ("var", j) or ("const", b),
    ``gates`` are (targets, matrix) pairs numbered 1..t in list order."""
    return {
        "num_qubits": num_qubits,
        "arity_bound": arity_bound,
        "labels": [{kind: value} for kind, value in labels],
        "gates": [
            {"step": i + 1, "targets": list(targets), "matrix": matrix_to_json(matrix)}
            for i, (targets, matrix) in enumerate(gates)
        ],
        "output_qubit": output_qubit,
    }


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def restrict(circ: dict, block, rho: dict) -> dict:
    """Pin outside variables to rho's bits, renumber the block 1..k."""
    used = sorted({lb["var"] for lb in circ["labels"] if "var" in lb})
    renumber = {v: i + 1 for i, v in enumerate(v for v in used if v in block)}
    labels = []
    for lb in circ["labels"]:
        if "var" not in lb:
            labels.append(dict(lb))
        elif lb["var"] in block:
            labels.append({"var": renumber[lb["var"]]})
        else:
            labels.append({"const": rho[lb["var"]]})
    return {**circ, "labels": labels}


def _assignments(n: int) -> np.ndarray:
    """All 2^n assignments as rows of bits, x1 as the most significant."""
    idx = np.arange(2 ** n)
    return (idx[:, None] >> (n - 1 - np.arange(n))) & 1


def acceptance_probabilities(circ: dict) -> np.ndarray:
    """p(output = 1) for every assignment, by dense simulation of all
    assignments at once: each gate is a matrix product on the target
    axes after moving them next to the batch axis."""
    m = circ["num_qubits"]
    labels = circ["labels"]
    n = len({lb["var"] for lb in labels if "var" in lb})
    alpha = _assignments(n)
    batch = alpha.shape[0]
    index = np.zeros(batch, dtype=np.int64)
    for lb in labels:
        bit = alpha[:, lb["var"] - 1] if "var" in lb else lb["const"]
        index = 2 * index + bit
    state = np.zeros((batch, 2 ** m), dtype=complex)
    state[np.arange(batch), index] = 1.0
    state = state.reshape((batch,) + (2,) * m)
    for gate in sorted(circ["gates"], key=lambda g: g["step"]):
        targets = [1 + q for q in gate["targets"]]
        k = len(targets)
        flat = np.array([complex(re, im) for re, im in gate["matrix"]])
        matrix = flat.reshape(2 ** k, 2 ** k)
        front = np.moveaxis(state, targets, range(1, k + 1))
        shape = front.shape
        front = np.matmul(matrix, front.reshape(batch, 2 ** k, -1))
        state = np.moveaxis(front.reshape(shape), range(1, k + 1), targets)
    probs = np.abs(state) ** 2
    on = np.take(probs, 1, axis=1 + circ["output_qubit"])
    return on.reshape(batch, -1).sum(axis=1)


# ---------------------------------------------------------------------------
# permutation circuits with a known function (evaluate_wide inputs)


def near_identity(rng: np.random.Generator, dim: int, eps: float) -> np.ndarray:
    """exp(i eps H) for a random Hermitian H of spectral norm 1, so the
    result is unitary and within eps of the identity in operator norm."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    w = w / np.max(np.abs(w))
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def _perm_gate(rng: np.random.Generator, eps: float):
    """(permutation table, matrix P @ V) for a random 2-qubit permutation."""
    perm = rng.permutation(4)
    p = np.zeros((4, 4))
    p[perm, np.arange(4)] = 1.0
    return perm, p @ near_identity(rng, 4, eps)


def permutation_circuit(
    rng: np.random.Generator, num_qubits: int, num_vars: int, num_gates: int, tree: bool
):
    """A circuit of 2-qubit permutations, each times a near-identity
    unitary, with its skeleton truth table.

    With ``tree`` the gates come in bursts on one pair of live lines,
    after which one line of the pair leaves, so every input line has one
    path to the output (a formula).  Otherwise the gates land on random
    pairs.  With eps = 0.1 / num_gates the state stays within 0.1 of the
    skeleton's basis state, so p > 0.8 where the skeleton outputs 1 and
    p < 0.01 where it outputs 0: the verdict must be "computes".
    """
    eps = 0.1 / num_gates
    lines = list(rng.permutation(num_qubits))
    labels = [("var", j + 1) for j in range(num_vars)]
    labels += [("const", int(rng.integers(0, 2))) for _ in range(num_qubits - num_vars)]
    labels = [labels[i] for i in rng.permutation(num_qubits)]
    pairs = []
    if tree:
        merges = num_qubits - 1
        extra = np.bincount(rng.integers(0, merges, size=num_gates - merges), minlength=merges)
        live = lines
        for burst in extra + 1:
            a, b = (int(q) for q in rng.choice(live, size=2, replace=False))
            for _ in range(burst):
                pairs.append((a, b) if rng.random() < 0.5 else (b, a))
            live = [q for q in live if q != b]
        output = int(live[0])
    else:
        for _ in range(num_gates):
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            pairs.append((a, b))
        output = int(rng.integers(0, num_qubits))
    tables, gates = [], []
    for targets in pairs:
        perm, matrix = _perm_gate(rng, eps)
        tables.append(perm)
        gates.append((targets, matrix))
    circ = circuit_dict(num_qubits, labels, gates, output)
    return circ, skeleton_truth_table(circ, tables)


def skeleton_truth_table(circ: dict, perms) -> np.ndarray:
    """Output bit of the classical permutation skeleton per assignment."""
    n = len({lb["var"] for lb in circ["labels"] if "var" in lb})
    alpha = _assignments(n)
    bits = np.stack(
        [alpha[:, lb["var"] - 1] if "var" in lb else np.full(len(alpha), lb["const"])
         for lb in circ["labels"]],
        axis=1,
    )
    for gate, perm in zip(circ["gates"], perms):
        a, b = gate["targets"]
        out = np.asarray(perm)[2 * bits[:, a] + bits[:, b]]
        bits[:, a], bits[:, b] = out >> 1, out & 1
    return bits[:, circ["output_qubit"]].astype(np.uint8)


def is_tree(circ: dict) -> bool:
    """True when every input line has at most one gate path to the output.

    Walks the gates backwards, counting for each gate the paths from it
    to the output through the next gate on each of its lines.
    """
    next_gate: dict[int, int] = {}  # line -> index of the next gate on it
    paths: list[int] = [0] * len(circ["gates"])
    out = circ["output_qubit"]
    for i in reversed(range(len(circ["gates"]))):
        targets = circ["gates"][i]["targets"]
        successors = {next_gate[q] for q in targets if q in next_gate}
        paths[i] = sum(paths[s] for s in successors)
        if out in targets and out not in next_gate:
            paths[i] += 1
        for q in targets:
            next_gate[q] = i
    return all(paths[next_gate[q]] <= 1 for q in next_gate)


# ---------------------------------------------------------------------------
# closed forms for the bounds workloads


def ed_bits(ell: int) -> int:
    """Bits per string in element distinctness of ell strings."""
    return 2 * math.ceil(math.log2(ell))


def ed_sigma(ell: int) -> int:
    """Subfunctions per block of element distinctness:
    C(2^b, ell - 1) + [ell >= 3] with b = ed_bits(ell)."""
    return math.comb(2 ** ed_bits(ell), ell - 1) + (1 if ell >= 3 else 0)


def nechiporuk_term(sigma: int) -> float:
    """log2 sigma / max(1, log2 log2 sigma): the bound's per-block term."""
    log = math.log2(sigma)
    return log / max(1.0, math.log2(log))


# The default I/X/H net places gates on one line at a time, so a
# 2-variable circuit reads one line: the constants, x1, x2 and their
# negations.  Tables are indexed with x1 as the most significant bit.
ENUMERATE_N2_TABLES = sorted(["0000", "1111", "0011", "1100", "0101", "1010"])
