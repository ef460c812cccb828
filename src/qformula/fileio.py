"""On-disk formats: circuit JSON, truth-table files, partition files.

Circuit files are UTF-8 JSON:

    {"num_qubits": m, "arity_bound": d,
     "labels": [{"var": j} | {"const": 0} | {"const": 1}, ...],
     "gates": [{"step": s, "targets": [q, ...], "matrix": [[re, im], ...]}, ...],
     "output_qubit": q}

Matrix arrays are row-major flat lists of [re, im] pairs, length 4^k
for k targets.  ``write_circuit`` writes exactly the bytes of
``json.dumps(circuit_to_json(circuit)) + "\\n"`` (compact, one line) but
builds the text itself: an entry whose parts are both +0.0 is the one
shared string ``"[0.0, 0.0]"``, and only the other entries become Python
floats, spelled as ``json`` spells them (repr, or ``NaN``/``Infinity``/
``-Infinity``).  Floats keep repr precision, so a write/read round trip
reproduces every matrix bit-exactly.  The reader decodes a matrix whose
entries are all [re, im] pairs of JSON numbers in one numpy conversion,
bit for bit ``complex(re, im)`` per entry; only a matrix with a bad entry
is walked entry by entry, to name the first one.  Integer fields reject JSON
booleans; a label has a ``var`` or a ``const``, not both.  A field the
format does not name, at the top level or in a label or gate object, is
rejected rather than ignored, so a misspelt ``arity_bound`` cannot
silently become the default 2.  Anything the reader cannot decode (not
UTF-8, not JSON, nested too deep, a number too large for a float) is a
``FormatError``.

Truth-table files are exactly two lines (trailing blank lines aside):
the variable count n, then 2^n characters of 0/1 where the index is read
with x1 as the most significant bit.  Partition files list one block per line as
space-separated variable indices.  Counts and indices are ASCII decimal
digits, no sign, underscore or other script's digit.  Gate-net files (``qf enumerate
--net``) are a JSON list of ``{"name": str, "matrix": [[re, im], ...]}``
objects, each matrix 4^k entries for k >= 1, read like a gate's.
"""
from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate, InputLabel


class FormatError(ValueError):
    """A file does not conform to its declared format."""


def _require(condition: bool, message: str):
    if not condition:
        raise FormatError(message)


def _decimal(token: str, what: str) -> int:
    """A count or index from a text file: ASCII decimal digits only, where
    ``int`` alone would also take a sign, underscores and other scripts' digits."""
    _require(token.isascii() and token.isdigit(), f"{what} must be ASCII decimal digits, got {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise FormatError(f"{what} has {len(token)} digits, too many to read") from None


def _is_int(value) -> bool:
    """JSON integer; ``bool`` is an ``int`` subclass but not a JSON number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _label_to_json(label: InputLabel) -> dict:
    if label.var is not None:
        return {"var": label.var}
    return {"const": label.const}


_CIRCUIT_FIELDS = frozenset(["num_qubits", "arity_bound", "labels", "gates", "output_qubit"])
_LABEL_FIELDS = frozenset(["var", "const"])
_GATE_FIELDS = frozenset(["step", "targets", "matrix"])


def _known_fields(obj: dict, fields: frozenset, where: str) -> None:
    if not obj.keys() <= fields:
        unknown = next(key for key in obj if key not in fields)
        raise FormatError(f"{where}unknown field '{unknown}'")


def _label_from_json(obj, where: str) -> InputLabel:
    _require(isinstance(obj, dict), f"{where}: label must be an object")
    _known_fields(obj, _LABEL_FIELDS, f"{where}: ")
    _require(not ("var" in obj and "const" in obj),
             f"{where}: label has both 'var' and 'const'")
    if "var" in obj:
        _require(_is_int(obj["var"]) and obj["var"] >= 1,
                 f"{where}: var must be an integer >= 1")
        return InputLabel(var=obj["var"])
    if "const" in obj:
        _require(_is_int(obj["const"]) and obj["const"] in (0, 1),
                 f"{where}: const must be 0 or 1")
        return InputLabel(const=obj["const"])
    raise FormatError(f"{where}: label needs a 'var' or 'const' field")


def _matrix_to_json(matrix: np.ndarray) -> list[list[float]]:
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], axis=1).tolist()


_ZERO_ENTRY = "[0.0, 0.0]"


def _matrix_text(matrix: np.ndarray) -> str:
    """``json.dumps(_matrix_to_json(matrix))`` without a float per zero entry."""
    flat = np.ascontiguousarray(matrix, dtype=complex).reshape(-1)
    pairs = flat.view(np.float64).reshape(-1, 2)
    # bit pattern 0 is +0.0 only; -0.0 entries take the general path
    nonzero = np.flatnonzero(flat.view(np.uint64).reshape(-1, 2).any(axis=1))
    entries = [_ZERO_ENTRY] * flat.size
    kept = pairs[nonzero]
    if np.isfinite(kept).all():
        texts = [f"[{re!r}, {im!r}]" for re, im in kept.tolist()]
    else:
        texts = [json.dumps(pair) for pair in kept.tolist()]  # NaN, Infinity, -Infinity
    for i, text in zip(nonzero.tolist(), texts):
        entries[i] = text
    return "[" + ", ".join(entries) + "]"


def _matrix_from_json(entries, arity: int, where: str) -> np.ndarray:
    _require(isinstance(entries, list), f"{where}: matrix must be a list")
    # the arity comes from the file: 4^arity is compared by bit length, not built
    _require(
        len(entries).bit_length() == 2 * arity + 1 and len(entries) == 1 << 2 * arity,
        f"{where}: matrix must have 4^{arity} entries for {arity} targets, got {len(entries)}",
    )
    dim = 1 << arity
    try:  # [re, im] pairs of JSON numbers (no bool, no string): one conversion
        if set(map(type, chain.from_iterable(entries))) <= {int, float}:
            pairs = np.array(entries, dtype=float)
            if pairs.shape == (dim * dim, 2):
                return pairs.view(complex).reshape(dim, dim)
    except (TypeError, ValueError, OverflowError):
        pass  # the loop names the first bad entry
    for i, pair in enumerate(entries):
        _require(
            isinstance(pair, list) and len(pair) == 2
            and all(_is_int(x) or isinstance(x, float) for x in pair),
            f"{where}: matrix entry {i} must be an [re, im] pair of numbers",
        )
        try:
            complex(pair[0], pair[1])
        except OverflowError:
            raise FormatError(f"{where}: matrix entry {i} is too large for a float") from None
    raise FormatError(f"{where}: matrix entries must be [re, im] pairs of numbers")


def circuit_to_json(circuit: Circuit) -> dict:
    """The circuit as a dict; ``write_circuit`` writes its ``json.dumps``."""
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
    _known_fields(obj, _CIRCUIT_FIELDS, "")
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
        _known_fields(spec, _GATE_FIELDS, f"{where}: ")
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


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # integer too long, nesting too deep
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def _read_net(path) -> list[tuple[str, np.ndarray]]:
    """The (name, matrix) entries of a gate-net file for ``qf enumerate``."""
    spec = _read_json(path)
    _require(isinstance(spec, list), f"{path}: a net file is a list of gate objects")
    entries = []
    for i, item in enumerate(spec):
        where = f"{path}: net[{i}]"
        _require(isinstance(item, dict) and item.keys() == {"name", "matrix"}
                 and isinstance(item["name"], str) and isinstance(item["matrix"], list),
                 f"{where}: a gate is an object with a string 'name' and a 'matrix' list")
        arity = (len(item["matrix"]).bit_length() - 1) // 2
        _require(arity >= 1 and len(item["matrix"]) == 4 ** arity,
                 f"{where}: matrix has {len(item['matrix'])} entries, not 4^k for some k >= 1")
        entries.append((item["name"], _matrix_from_json(item["matrix"], arity, where)))
    return entries


def read_circuit(path) -> Circuit:
    obj = _read_json(path)
    try:
        return circuit_from_json(obj)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_circuit(circuit: Circuit, path) -> None:
    """Write ``json.dumps(circuit_to_json(circuit)) + "\\n"``, byte for byte."""
    head = json.dumps({
        "num_qubits": circuit.num_qubits,
        "arity_bound": circuit.arity_bound,
        "labels": [_label_to_json(lb) for lb in circuit.labels],
    })
    gates = ", ".join(
        f'{{"step": {json.dumps(g.step)}, "targets": {json.dumps(list(g.targets))}, '
        f'"matrix": {_matrix_text(g.matrix)}}}'
        for g in circuit.gates
    )
    Path(path).write_text(
        f'{head[:-1]}, "gates": [{gates}], "output_qubit": {json.dumps(circuit.output_qubit)}}}\n',
        encoding="utf-8",
    )


def read_truth_table(path) -> tuple[int, np.ndarray]:
    """Read (n, bits) from a truth-table file; bits has length 2^n."""
    lines = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    _require(len(lines) == 2, f"{path}: expected a count line and a bits line, nothing else")
    count, bits = lines
    n = _decimal(count, f"{path}: the variable count")
    # n comes from the file: 2^n is compared by bit length, not built
    _require(
        len(bits).bit_length() == n + 1 and len(bits) == 1 << n,
        f"{path}: expected 2^{n} bits for n={n}, got {len(bits)}",
    )
    _require(set(bits) <= {"0", "1"}, f"{path}: bits line must contain only 0/1")
    return n, np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")


def write_truth_table(n: int, bits, path) -> None:
    """Write n and the 2^n bits; an entry other than 0 or 1 is a ValueError."""
    arr = np.asarray(bits).reshape(-1)
    if arr.size != 2 ** n:
        raise ValueError(f"expected {2 ** n} bits, got {arr.size}")
    bad = np.flatnonzero((arr != 0) & (arr != 1))
    if bad.size:
        raise ValueError(f"truth-table entry {bad[0]} is {arr[bad[0]]}, not 0 or 1")
    text = np.where(arr == 1, ord("1"), ord("0")).astype(np.uint8).tobytes().decode("ascii")
    Path(path).write_text(f"{n}\n{text}\n", encoding="utf-8")


def read_partition(path) -> list[frozenset[int]]:
    """Read one block per line, space-separated 1-based variable indices."""
    blocks = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        indices = [_decimal(tok, f"{path}:{lineno}: a variable index") for tok in line.split()]
        _require(bool(indices), f"{path}:{lineno}: empty block")
        blocks.append(frozenset(indices))
    _require(bool(blocks), f"{path}: no blocks found")
    return blocks


def write_partition(blocks: Sequence[frozenset[int]], path) -> None:
    lines = [" ".join(str(j) for j in sorted(block)) for block in blocks]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
