import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qformula
from qformula import build_circuit, constant, simulator
from qformula.samples import formula_corpus

ADDRESS_SPACE_CAP = 2 * 10 ** 9


@pytest.fixture(scope="session")
def corpus():
    """110 seeded random formulas shared by the heavier suites."""
    return formula_corpus(110)


@pytest.fixture
def fast_paths(monkeypatch):
    """A batch budget no scan fits, so ``exact_probabilities`` sends even
    a one-line circuit to the contraction or the pruned path (and their
    re-decisions) instead of the step-order oracle."""
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", 1)


@pytest.fixture(scope="session")
def pad():
    """``pad(circuit)``: the circuit with 12 more |0> lines that no gate
    touches.  Corpus seeds 9 and 19 pass ``MAX_QUBITS`` lines that way,
    and five of seeds 0-19 squeeze to more than it."""
    def padded(circuit):
        return build_circuit(circuit.num_qubits + 12, [*circuit.labels, *[constant(0)] * 12],
                             [(g.targets, g.matrix) for g in circuit.gates], circuit.output_qubit,
                             arity_bound=circuit.arity_bound)
    return padded


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@pytest.fixture(scope="session")
def run_child():
    """``run_child(*args, timeout=..., env=None, cap_memory=False)`` runs
    ``python *args`` in a child process and returns its CompletedProcess,
    stdout and stderr as text.  The child imports this ``src``, and runs
    under ``-O`` when the tests do.  ``env`` edits the inherited
    environment, a value of None removing the variable.  ``cap_memory``
    caps the child's address space at 2 GB, so that a runaway allocation
    fails the test, not the host."""
    def run(*args, timeout, env=None, cap_memory=False):
        child_env = {**os.environ, "PYTHONPATH": str(Path(qformula.__file__).parents[1])}
        for name, value in (env or {}).items():
            if value is None:
                child_env.pop(name, None)
            else:
                child_env[name] = value
        optimize = ["-O"] if sys.flags.optimize else []
        return subprocess.run(
            [sys.executable, *optimize, *args], capture_output=True, text=True, env=child_env,
            timeout=timeout, preexec_fn=_cap_address_space if cap_memory else None,
        )
    return run
