"""The three workloads: their inputs, their ``qf`` jobs, and output checks.

A workload writes its inputs under its work directory in ``prepare``;
every timed pass runs all of its ``jobs``.  Every job carries
a check of its exit code, its ``--json`` report and any file it wrote,
against references from ``reference`` (never from ``qformula``).
"""
from __future__ import annotations

import json
import random

import numpy as np

import reference as ref

SQUEEZE_TOL = 1e-9


class Job:
    """One ``qf`` command; ``check(code, stdout)`` returns None or why it failed."""

    __slots__ = ("argv", "check", "output")

    def __init__(self, argv, check, output=None):
        self.argv = argv
        self.check = check
        self.output = output


def _report(code, stdout):
    """The job's JSON report, or raise ValueError naming what is wrong."""
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(stdout)


def _checked(test):
    """Turn a test that raises on a wrong output into a Job check."""
    def check(code, stdout):
        try:
            test(_report(code, stdout))
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None
    return check


def _require(condition, message):
    if not condition:
        raise ValueError(message)


class Workload:
    """Inputs from ``seed`` under ``workdir``; every pass runs all jobs."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.jobs: list[Job] = []

    def warmup(self) -> Job:
        return self.jobs[0]

    def extra_metrics(self) -> dict:
        """Metrics printed beside the end-to-end ones: name -> (value, unit)."""
        return {}


class SqueezeCli(Workload):
    """``qf squeeze`` with verification over the 110-formula corpus."""

    name = "squeeze_cli"
    corpus_size = 110

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.output_gates: dict[int, int] = {}
        self._restricted: list[dict] = []
        self._expected: dict[int, np.ndarray] = {}

    def prepare(self, samples) -> None:
        self.jobs, self._restricted = [], []
        for i, member in enumerate(samples.formula_corpus(self.corpus_size, base_seed=self.seed)):
            f = member.formula
            circ = ref.circuit_dict(
                f.num_qubits,
                [("var", lb.var) if lb.var is not None else ("const", lb.const) for lb in f.labels],
                [(g.targets, g.matrix) for g in f.gates],
                f.output_qubit,
                f.arity_bound,
            )
            source = self.workdir / f"f{i:03d}.json"
            output = self.workdir / f"f{i:03d}.out.json"
            ref.write_json(circ, source)
            argv = ["squeeze", "--json", "-c", str(source),
                    "--block", ",".join(str(j) for j in sorted(member.block))]
            if member.rho:
                argv += ["--rho", ",".join(f"{v}={b}" for v, b in member.rho)]
            argv += ["-o", str(output)]
            self._restricted.append(ref.restrict(circ, member.block, dict(member.rho)))
            self.jobs.append(Job(argv, self._check(i, output), output))

    def _check(self, i, output):
        def test(report):
            out = ref.read_json(output)
            _require(report["squeezed_gate_count"] == len(out["gates"]),
                     "reported gate count differs from the written circuit")
            if i not in self._expected:
                self._expected[i] = ref.acceptance_probabilities(self._restricted[i])
            got = ref.acceptance_probabilities(out)
            _require(got.shape == self._expected[i].shape, "variable count changed")
            deviation = float(np.max(np.abs(got - self._expected[i])))
            _require(deviation <= SQUEEZE_TOL, f"acceptance probability off by {deviation:.3e}")
            self.output_gates[i] = len(out["gates"])
        return _checked(test)

    def extra_metrics(self) -> dict:
        return {"squeezed_gates": (sum(self.output_gates.values()), "count")}


class EvaluateWide(Workload):
    """``qf evaluate`` full scans at m=12 lines, n=10 variables; each pass
    is one tree formula and one general circuit."""

    name = "evaluate_wide"
    num_qubits, num_vars = 12, 10
    formula_gates, general_gates = 30, 60

    def prepare(self, samples) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.jobs = []
        for kind, tree, gates in (("formula", True, self.formula_gates),
                                  ("general", False, self.general_gates)):
            while True:
                circ, table = ref.permutation_circuit(
                    rng, self.num_qubits, self.num_vars, gates, tree)
                if ref.is_tree(circ) == tree:
                    break
                if tree:
                    raise RuntimeError("the formula generator built a non-formula")
            source = self.workdir / f"{kind}.json"
            truth = self.workdir / f"{kind}.tt"
            ref.write_json(circ, source)
            truth.write_text(
                f"{self.num_vars}\n{''.join(str(int(b)) for b in table)}\n", encoding="utf-8")
            self.jobs.append(Job(
                ["evaluate", "--json", "-c", str(source), "-f", str(truth)],
                _checked(lambda report: _require(
                    report == {"status": "computes"}, f"verdict {report}"))))


class LemmasBounds(Workload):
    """100 small ``qf verify-lemmas`` sweeps, then ``ed``, ``nechiporuk``
    on the emitted files, and ``enumerate``."""

    name = "lemmas_bounds"
    sweeps, cases, ell = 100, 10, 4

    def prepare(self, samples) -> None:
        rnd = random.Random(self.seed)
        self.jobs = [self._verify(rnd.randrange(2 ** 31)) for _ in range(self.sweeps)]
        sigma = ref.ed_sigma(self.ell)
        blocks = self.ell
        ed_dir = self.workdir / "ed"
        n = blocks * ref.ed_bits(self.ell)

        def ed(report):
            _require(report["n"] == n, f"n={report['n']}")
            _require(report["sigmas"] == [sigma] * blocks, f"sigmas {report['sigmas']}")

        def nechiporuk(report):
            sigmas = [b["sigma"] for b in report["blocks"]]
            _require(sigmas == [sigma] * blocks, f"sigmas {sigmas}")
            total = blocks * ref.nechiporuk_term(sigma)
            _require(abs(report["total"] - total) <= 1e-9, f"total {report['total']} != {total}")

        def enumerate_(report):
            _require(report["tables"] == ref.ENUMERATE_N2_TABLES, f"tables {report['tables']}")

        self.jobs += [
            Job(["ed", "--json", "--ell", str(self.ell), "--emit", "--check",
                 "--dir", str(ed_dir)], _checked(ed)),
            Job(["nechiporuk", "--json", "-f", str(ed_dir / f"ed{n}.tt"),
                 "-p", str(ed_dir / f"ed{n}.part")], _checked(nechiporuk)),
            Job(["enumerate", "--json", "-n", "2", "-N", "2", "--qubits", "3"],
                _checked(enumerate_)),
        ]

    def _verify(self, seed) -> Job:
        def test(report):
            _require(report["passed"] is True, "a sweep failed")
            _require(report["seed"] == seed and report["cases"] == self.cases,
                     "seed or case count not echoed")
            _require(len(report["sweeps"]) == 4 and all(s["passed"] for s in report["sweeps"]),
                     "expected four passing sweeps")
        return Job(["verify-lemmas", "--json", "--cases", str(self.cases), "--seed", str(seed)],
                   _checked(test))


WORKLOADS = {w.name: w for w in (SqueezeCli, EvaluateWide, LemmasBounds)}
