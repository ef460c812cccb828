"""On-disk formats: circuit JSON, truth-table files, partition files.

Circuit files are UTF-8 JSON:

    {"num_qubits": m, "arity_bound": d,
     "labels": [{"var": j} | {"const": 0} | {"const": 1}, ...],
     "gates": [{"step": s, "targets": [q, ...], "matrix": [[re, im], ...]}, ...],
     "output_qubit": q}

Files are written as compact JSON (no indentation, so the C encoder
does the work).  Matrix arrays are row-major flat lists of [re, im]
pairs, length 4^k for k targets.  Floats are written with repr
precision, so a write/read round trip reproduces every matrix
bit-exactly.  Integer fields reject JSON booleans.

Truth-table files are exactly two lines (trailing blank lines aside):
the variable count n, then 2^n characters of 0/1 where the index is read
with x1 as the most significant bit.  Partition files list one block per line as
space-separated variable indices.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate, InputLabel


class FormatError(ValueError):
    """A file does not conform to its declared format."""


def _require(condition: bool, message: str):
    if not condition:
        raise FormatError(message)


def _is_int(value) -> bool:
    """JSON integer; ``bool`` is an ``int`` subclass but not a JSON number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _label_to_json(label: InputLabel) -> dict:
    if label.var is not None:
        return {"var": label.var}
    return {"const": label.const}


def _label_from_json(obj, where: str) -> InputLabel:
    _require(isinstance(obj, dict), f"{where}: label must be an object")
    if "var" in obj:
        _require(_is_int(obj["var"]), f"{where}: var must be an integer")
        return InputLabel(var=obj["var"])
    if "const" in obj:
        _require(_is_int(obj["const"]) and obj["const"] in (0, 1),
                 f"{where}: const must be 0 or 1")
        return InputLabel(const=obj["const"])
    raise FormatError(f"{where}: label needs a 'var' or 'const' field")


def _matrix_to_json(matrix: np.ndarray) -> list[list[float]]:
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], axis=1).tolist()


def _matrix_from_json(entries, arity: int, where: str) -> np.ndarray:
    dim = 2 ** arity
    _require(isinstance(entries, list), f"{where}: matrix must be a list")
    _require(
        len(entries) == dim * dim,
        f"{where}: matrix must have {dim * dim} entries for {arity} targets, got {len(entries)}",
    )
    values = []
    for i, pair in enumerate(entries):
        _require(
            isinstance(pair, list) and len(pair) == 2
            and all(_is_int(x) or isinstance(x, float) for x in pair),
            f"{where}: matrix entry {i} must be an [re, im] pair of numbers",
        )
        values.append(complex(pair[0], pair[1]))
    return np.array(values, dtype=complex).reshape(dim, dim)


def circuit_to_json(circuit: Circuit) -> dict:
    return {
        "num_qubits": circuit.num_qubits,
        "arity_bound": circuit.arity_bound,
        "labels": [_label_to_json(lb) for lb in circuit.labels],
        "gates": [
            {
                "step": g.step,
                "targets": list(g.targets),
                "matrix": _matrix_to_json(g.matrix),
            }
            for g in circuit.gates
        ],
        "output_qubit": circuit.output_qubit,
    }


def circuit_from_json(obj) -> Circuit:
    """Decode a circuit object; structural problems raise FormatError.

    Semantic invariants (unitarity, step order, ranges) are left to
    ``validate`` so a report can list all of them at once.
    """
    _require(isinstance(obj, dict), "top level must be an object")
    for key in ("num_qubits", "labels", "gates", "output_qubit"):
        _require(key in obj, f"missing required field '{key}'")
    _require(_is_int(obj["num_qubits"]), "'num_qubits' must be an integer")
    _require(isinstance(obj["labels"], list), "'labels' must be a list")
    _require(isinstance(obj["gates"], list), "'gates' must be a list")
    _require(_is_int(obj["output_qubit"]), "'output_qubit' must be an integer")
    arity_bound = obj.get("arity_bound", 2)
    _require(_is_int(arity_bound), "'arity_bound' must be an integer")
    labels = tuple(
        _label_from_json(lb, f"labels[{i}]") for i, lb in enumerate(obj["labels"])
    )
    gates = []
    for i, spec in enumerate(obj["gates"]):
        where = f"gates[{i}]"
        _require(isinstance(spec, dict), f"{where}: gate must be an object")
        for key in ("step", "targets", "matrix"):
            _require(key in spec, f"{where}: missing field '{key}'")
        _require(_is_int(spec["step"]), f"{where}: step must be an integer")
        targets = spec["targets"]
        _require(
            isinstance(targets, list) and targets and all(_is_int(q) for q in targets),
            f"{where}: targets must be a nonempty list of integers",
        )
        matrix = _matrix_from_json(spec["matrix"], len(targets), where)
        gates.append(Gate(step=spec["step"], targets=tuple(targets), matrix=matrix))
    return Circuit(
        num_qubits=obj["num_qubits"],
        labels=labels,
        gates=tuple(gates),
        output_qubit=obj["output_qubit"],
        arity_bound=arity_bound,
    )


def read_circuit(path) -> Circuit:
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})") from exc
    try:
        return circuit_from_json(obj)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_circuit(circuit: Circuit, path) -> None:
    Path(path).write_text(
        json.dumps(circuit_to_json(circuit)) + "\n", encoding="utf-8"
    )


def read_truth_table(path) -> tuple[int, np.ndarray]:
    """Read (n, bits) from a truth-table file; bits has length 2^n."""
    lines = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    _require(len(lines) == 2, f"{path}: expected a count line and a bits line, nothing else")
    try:
        n = int(lines[0])
    except ValueError:
        raise FormatError(f"{path}: first line must be the variable count") from None
    bits = lines[1]
    _require(n >= 0, f"{path}: negative variable count")
    _require(
        len(bits) == 2 ** n, f"{path}: expected {2 ** n} bits for n={n}, got {len(bits)}"
    )
    _require(set(bits) <= {"0", "1"}, f"{path}: bits line must contain only 0/1")
    return n, np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")


def write_truth_table(n: int, bits, path) -> None:
    arr = np.asarray(bits).astype(np.uint8).reshape(-1)
    if arr.size != 2 ** n:
        raise ValueError(f"expected {2 ** n} bits, got {arr.size}")
    text = "".join("1" if b else "0" for b in arr)
    Path(path).write_text(f"{n}\n{text}\n", encoding="utf-8")


def read_partition(path) -> list[frozenset[int]]:
    """Read one block per line, space-separated 1-based variable indices."""
    blocks = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            indices = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(f"{path}:{lineno}: blocks must be integers") from None
        _require(bool(indices), f"{path}:{lineno}: empty block")
        blocks.append(frozenset(indices))
    _require(bool(blocks), f"{path}: no blocks found")
    return blocks


def write_partition(blocks: Sequence[frozenset[int]], path) -> None:
    lines = [" ".join(str(j) for j in sorted(block)) for block in blocks]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
