import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qformula
from qformula.samples import formula_corpus

ADDRESS_SPACE_CAP = 2 * 10 ** 9


@pytest.fixture(scope="session")
def corpus():
    """110 seeded random formulas shared by the heavier suites."""
    return formula_corpus(110)


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
