"""Record the benchmark's baseline: two sets of runs over the same seeds.

    python3 perfbench/baseline.py

Runs every workload of ``BENCHMARK.json`` on seeds 0-9 with tracing off,
twice over (set 1 for every workload, then set 2), each run a fresh
``perfbench/run.py`` process of ``run_seconds``, one after the other;
then two traced runs per workload.  For every end-to-end metric it
reports, per set, the median, the quartiles and the spread (third minus
first quartile, over the median), and the drift of set 2's median from
set 1's in the metric's worse direction, next to the bound; and the same
per-set figures for the unscaled times and the speed factor that each
run prints.  ``!`` marks a spread above a third of its bound; ``FAIL`` a
spread above the bound (``setup_s`` excepted) or a drift beyond it.
Writes ``perfbench/baseline.json``.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = range(10)
SETS = 2
TRACED_SEEDS = SEEDS[:2]
# Printed above a run's result line and kept beside its metrics: the
# unscaled times and the speed factor, to show what the scaling removes.
PRINTED = ("measured.", "speed_factor_p50")


def run(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and fields[0].startswith(PRINTED):
            result["metrics"][fields[0]] = {"value": float(fields[1]), "unit": fields[2]}
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def summarize(results):
    values: dict[str, list[float]] = {}
    units = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        summary[name] = {
            "unit": units[name], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": vals,
        }
    return summary


def main() -> int:
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    names = [w["name"] for w in SPEC["workloads"]]
    report = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {name: {"sets": []} for name in names},
    }
    for _ in range(SETS):
        for name in names:
            results = [run(name, seed, 0) for seed in SEEDS]
            report["workloads"][name]["sets"].append({
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "end_to_end": summarize(results),
            })
    for name in names:
        entry = report["workloads"][name]
        first, second = (s["end_to_end"] for s in entry["sets"])
        entry["drift"] = {}
        print(f"{name}: " + ", ".join(
            f"set {i + 1} {s['attempted']} jobs, {s['failed']} failed, correct {s['correct']}"
            for i, s in enumerate(entry["sets"])))
        for metric, spec in metrics.items():
            sign = 1 if spec["better"] == "lower" else -1
            drift = sign * (second[metric]["median"] - first[metric]["median"]) / first[metric]["median"]
            entry["drift"][metric] = drift
            bound = spec["bound"]
            spreads = [first[metric]["spread"], second[metric]["spread"]]
            fail = drift > bound or (metric != "setup_s" and max(spreads) > bound)
            flag = "FAIL" if fail else "!" if max(spreads) > bound / 3 else ""
            print(f"  {flag:4s} {metric:20s} {spec['unit']:5s} medians "
                  f"{first[metric]['median']:10.5g} {second[metric]['median']:10.5g}  spreads "
                  f"{spreads[0]:.4f} {spreads[1]:.4f}  drift {drift:+.4f}  bound {bound}")
        for metric in (m for m in first if m not in metrics):
            print(f"       {metric:20s} {first[metric]['unit']:5s} medians "
                  f"{first[metric]['median']:10.5g} {second[metric]['median']:10.5g}  spreads "
                  f"{first[metric]['spread']:.4f} {second[metric]['spread']:.4f}")
        traced = [run(name, seed, 1) for seed in TRACED_SEEDS]
        entry["traced_correct"] = all(r["correct"] for r in traced)
        entry["per_layer"] = {metric: {k: s[k] for k in ("unit", "median", "q1", "q3")}
                              for metric, s in summarize(traced).items()}
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
