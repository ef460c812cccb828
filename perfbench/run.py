"""Benchmark for qformula: drives the ``qf`` CLI in-process on one workload.

    python3 perfbench/run.py --workload squeeze_cli --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the repository root; ``qformula`` is imported from ``src/``.
With ``--trace 0`` the set-up (import of ``qformula`` and its
dependencies, input generation, input files, one warm-up job) is timed
in several fresh child processes and the median is reported as
``setup_s``; the run's own set-up is not timed.
It then repeats timed passes over the workload's jobs, each job one call
of ``qformula.cli.main([... "--json"])``, until ``--seconds`` of timed
work is done, and checks every job's output after its pass, outside the
timed region.

With ``--trace 0`` every timed span is also scaled to the reference
machine speed: ``calibration.Sampler`` runs a round of a fixed kernel
every 10 ms during the passes and the set-ups, the rounds' time is taken
out of the spans they interrupt, and each span is divided by the speed
factor of the rounds near it.  The unscaled figures are printed above
the result line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same jobs, reports per-function
counts and times (see ``tracing.py``), requires the traced outputs to
equal the untraced ones, and reports the difference in summed job time
as ``trace.overhead_s``.  ``--workload all`` runs each workload in its
own fresh process and prints all of their metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# One BLAS thread: the machine has two cores and the benchmark one client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5

# numpy is first imported below, after the thread pin.  A set-up child's
# clock starts here, so it counts numpy and every other import qformula needs.
STARTED = perf_counter()
from calibration import Sampler  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help="time one set-up in this fresh process, print it and exit")
    return parser.parse_args(argv)


def call(cli, argv):
    """One job: ``qf <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up per call, so a traced main is used
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing job is a failed job; the run goes on
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


class Run:
    """The timed passes of one workload, with their checks."""

    def __init__(self, cli, workload, sampler):
        self.cli = cli
        self.workload = workload
        self.sampler = sampler  # None in traced runs, whose spans it would inflate
        self.attempted = 0
        self.passes = 0
        self.failures: list[str] = []  # one per failed job
        self.problems: list[str] = []  # failed warm-up, traced outputs that differ
        self.latencies: list[float] = []  # seconds, as measured
        self.scaled: list[float] = []  # seconds at the reference speed
        self.factors: list[float] = []  # speed factor of each job

    def run_pass(self, jobs):
        """Run the jobs back to back, timed, then check them untimed.
        Returns (timed seconds, per-job output signatures)."""
        results, spans = [], []
        sampler = self.sampler
        with sampler or contextlib.nullcontext():
            for job in jobs:
                busy = sampler.busy if sampler else 0.0
                start = perf_counter()
                results.append(call(self.cli, job.argv))
                end = perf_counter()
                busy = sampler.busy - busy if sampler else 0.0
                spans.append((start, end, end - start - busy))
        for start, end, seconds in spans:
            self.latencies.append(seconds)
            if sampler:
                factor = sampler.factor(start, end)
                self.factors.append(factor)
                self.scaled.append(seconds / factor)
        self.passes += 1
        signatures = []
        for job, (code, stdout, stderr) in zip(jobs, results):
            self.attempted += 1
            problem = job.check(code, stdout)
            if problem:
                self.failures.append(f"{job.argv[0]}: {problem} {stderr[-400:]}")
            digest = None
            if job.output is not None and job.output.exists():
                digest = hashlib.sha256(job.output.read_bytes()).hexdigest()
            signatures.append((code, stdout, digest))
        return sum(span[2] for span in spans), signatures


def set_up(workload):
    """Import qformula, generate and write the inputs, run the warm-up job.
    Returns the cli module and (warm-up job, exit code, stdout), for the
    caller to check after its clock stops."""
    cli = importlib.import_module("qformula.cli")
    workload.prepare(importlib.import_module("qformula.samples"))
    job = workload.warmup()
    code, stdout, _ = call(cli, job.argv)
    return cli, (job, code, stdout)


def timed_setups(args):
    """``setup_s`` samples: each a set-up timed inside a fresh child
    process, from before numpy and qformula are imported to the end of its
    warm-up job, as measured and at the reference speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-child"]
    seconds, scaled, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up child exited {proc.returncode}:\n{proc.stderr}")
        child = json.loads(lines[-1])
        seconds.append(child["setup_s"])
        scaled.append(child["setup_s"] / child["factor"])
        if child["problem"]:
            problems.append(f"set-up child warm-up: {child['problem']}")
    return (seconds, scaled), problems


def measure(workload, seconds, trace):
    cli, (job, code, stdout) = set_up(workload)
    run = Run(cli, workload, None if trace else Sampler())
    problem = job.check(code, stdout)
    if problem:
        run.problems.append(f"warm-up: {problem}")
    if trace:
        return run, traced_passes(run, seconds)
    timed = 0.0
    while not run.passes or timed < seconds:
        timed += run.run_pass(workload.jobs)[0]
    return run, None


def end_to_end(run, setups):
    """The JSON metrics, times at the reference speed, and the same
    figures as measured, which are only printed."""
    seconds, (setup_seconds, setup_scaled) = run.scaled, setups
    metrics = {
        "jobs_per_s": (len(seconds) / sum(seconds), "1/s"),
        "job_p50_ms": (statistics.median(seconds) * 1000, "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    measured = {
        "measured.jobs_per_s": (len(run.latencies) / sum(run.latencies), "1/s"),
        "measured.job_p50_ms": (statistics.median(run.latencies) * 1000, "ms"),
        "measured.setup_s": (statistics.median(setup_seconds), "s"),
        "speed_factor_p50": (statistics.median(run.factors), "ratio"),
    }
    return metrics, measured


def traced_passes(run, seconds):
    """Untraced and traced passes in pairs, alternating which goes first,
    after one untraced pass that lets first-call costs settle."""
    jobs = run.workload.jobs
    timed, _ = run.run_pass(jobs)
    tracer = Tracer()
    overheads = []
    index = 0
    traced_jobs = 0
    while index == 0 or timed < seconds:
        walls, outputs = {}, {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                walls[traced], outputs[traced] = run.run_pass(jobs)
            finally:
                tracer.uninstall()
        if outputs[True] != outputs[False]:
            run.problems.append(f"pass {index}: traced outputs differ from untraced outputs")
        overheads.append(walls[True] - walls[False])
        traced_jobs += len(jobs)
        timed += walls[True] + walls[False]
        index += 1
    return layer_metrics(tracer, index, traced_jobs, overheads), tracer


def layer_metrics(tracer, passes, traced_jobs, overheads):
    """Per traced pass: calls, self and total time of every wrapped
    function (0 when a workload does not reach it), and derived counters."""
    metrics = {}
    for key, stat in tracer.stats.items():
        metrics[f"{key}.calls"] = (stat.calls / passes, "count")
        metrics[f"{key}.self_s"] = (stat.self_s / passes, "s")
        metrics[f"{key}.total_s"] = (stat.total_s / passes, "s")
    apply = tracer.stats["simulator.apply_gate"]
    metrics["simulator.apply_gate.amp_updates"] = (apply.amp_updates / passes, "count")
    metrics["simulator.apply_gate.amp_updates_per_s"] = (
        apply.amp_updates / apply.self_s if apply.self_s else 0.0, "1/s")
    for key in ("circuit.validate", "analysis.computation_graph"):
        metrics[f"{key}.calls_per_job"] = (tracer.stats[key].calls / traced_jobs, "count")
    metrics["fileio.write_circuit.bytes"] = (
        tracer.stats["fileio.write_circuit"].bytes / passes, "B")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics


def print_layer_table(tracer):
    print(f"{'function':48s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s}")
    for key, stat in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        if stat.calls:
            total = f"{stat.total_s:10.4f}" if stat.nested else ""
            print(f"{key:48s} {stat.calls:9d} {stat.self_s:10.4f} {total:>10s}")


def print_summary(name, run, metrics):
    """Every end-to-end metric by name and unit, including those outside
    the JSON result: the failure ratio, which is 0 when all is well, and
    p90, which needs 100 jobs per pass to rest on ten slower jobs."""
    metrics["fail_ratio"] = (len(run.failures) / run.attempted, "ratio")
    if len(run.workload.jobs) >= 100:
        metrics["job_p90_ms"] = (
            statistics.quantiles([t * 1000 for t in run.scaled], n=10)[-1], "ms")
    print(f"{name}: {run.passes} passes, {run.attempted} jobs")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:20s} {value:14.6g} {unit}")


def run_one(args) -> int:
    if not (SRC / "qformula" / "cli.py").is_file():
        print(f"perfbench: no qformula sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setups, problems = ((), []) if args.trace or args.setup_child else timed_setups(args)
    # Generators need a non-negative seed; equal seeds give equal inputs.
    seed = args.seed % 2 ** 32
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](workdir, seed)
        if args.setup_child:
            clock = perf_counter()
            sampler = Sampler()
            own = perf_counter() - clock  # the sampler's own set-up
            with sampler:
                _, (job, code, stdout) = set_up(workload)
            end = perf_counter()
            print(json.dumps({"setup_s": end - STARTED - own - sampler.busy,
                              "factor": sampler.factor(clock, end),
                              "problem": job.check(code, stdout)}))
            return 0
        run, traced = measure(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    run.problems[:0] = problems
    if args.trace:
        metrics, tracer = traced
        print_layer_table(tracer)
    else:
        metrics, measured = end_to_end(run, setups)
        print_summary(args.workload, run, {**metrics, **workload.extra_metrics(), **measured})
    wanted = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    for problem in run.problems + run.failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not (run.failures or run.problems),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; all their metrics in one object."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
