"""qf: one executable for simulation, analysis, rewriting, and bounds.

Exit codes: 0 success, 1 domain error (bad file, invalid circuit,
parameter out of range, analyses that disagree), 2 verification failure
(a rewrite, numerical check or property sweep broke its tolerance), 64
usage error.  ``--json`` switches every report to one machine-readable
JSON object with stable key order.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import fileio
from .analysis import (
    InconsistentAnalysisError,
    NotAFormulaError,
    StructuralError,
    companion_set_of_path,
    intersection_gates,
    is_formula,
    path_segments,
    path_sets,
)
from .circuit import CircuitError
from .counting import (
    CountingParams,
    GateNet,
    appendix_bound,
    enumerate_functions,
    equiv_class_bound,
    warren_bound,
    warren_bound_log2,
)
from .nechiporuk import (
    Partition,
    SigmaCheckError,
    TruthTable,
    ed_function,
    ed_parameters,
    ed_partition,
    ed_sigma_check,
    nechiporuk_bound,
)
from .rewrite import SQUEEZE_TOL, NumericalError, VerificationError, restrict, squeeze_all
from .simulator import SimulationError, evaluate, run
from .verification import run_all_sweeps

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _int_at_least(low: int, kind: str):
    """The argparse type of a ``kind`` integer, at least ``low``: else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value
    return parse


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        for line in text_lines:
            print(line)


def _parse_bits(text: str) -> tuple[int, ...]:
    if not set(text) <= {"0", "1"}:
        raise ValueError(f"assignment must be a 0/1 string, got {text!r}")
    return tuple(int(c) for c in text)


def _parse_block(text: str) -> frozenset[int]:
    try:
        block = frozenset(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"variables must be integers, got {text!r}") from None
    if not block:
        raise argparse.ArgumentTypeError("must name at least one variable")
    return block


def _parse_rho(text: str) -> dict[int, int]:
    rho = {}
    for item in text.replace(";", ",").split(",") if text else ():
        try:
            var, bit = (int(part) for part in item.split("="))
        except ValueError:
            bit = None
        if bit not in (0, 1):
            raise argparse.ArgumentTypeError(f"each item must be VAR=BIT, got {item!r}")
        if var in rho:
            raise argparse.ArgumentTypeError(f"variable {var} is assigned twice")
        rho[var] = bit
    return rho


def _cmd_simulate(args) -> int:
    circuit = fileio.read_circuit(args.circuit).check()
    _, outcome = run(circuit, _parse_bits(args.assignment))
    _emit(
        args,
        {"p1": outcome.p1, "norm0_sq": outcome.norm0_sq, "norm1_sq": outcome.norm1_sq},
        [
            f"p1 = {outcome.p1:.12g}",
            f"|A0|^2 = {outcome.norm0_sq:.12g}  |A1|^2 = {outcome.norm1_sq:.12g}",
        ],
    )
    return 0


def _cmd_evaluate(args) -> int:
    circuit = fileio.read_circuit(args.circuit).check()
    n, bits = fileio.read_truth_table(args.function)
    if n != circuit.num_variables:
        raise SimulationError(
            f"table over {n} variables, circuit uses {circuit.num_variables}"
        )
    verdict = evaluate(circuit, bits)
    payload = {"status": verdict.status}
    lines = [f"verdict: {verdict.status}"]
    if verdict.alpha is not None:
        alpha = "".join(str(b) for b in verdict.alpha)
        payload.update({"alpha": alpha, "p": verdict.p})
        lines.append(f"at alpha={alpha} with p={verdict.p:.12g}")
    _emit(args, payload, lines)
    return 0


def _cmd_analyze(args) -> int:
    circuit = fileio.read_circuit(args.circuit).check()
    formula = is_formula(circuit)
    payload: dict = {"is_formula": formula, "num_gates": len(circuit.gates)}
    lines = [("formula" if formula else "not a formula")
             + f" ({len(circuit.gates)} gates, {circuit.num_qubits} qubits)"]
    if formula and circuit.num_variables:
        if args.partition:
            blocks = fileio.read_partition(args.partition)
            unused = set().union(*blocks) - set(circuit.variable_indices)
            if unused:
                raise ValueError(
                    f"partition names variables the circuit does not use: {sorted(unused)}")
        else:
            blocks = [frozenset([j]) for j in circuit.variable_indices]
        block_reports = []
        for block in blocks:
            ps = path_sets(circuit, block)
            gj = intersection_gates(ps)
            sizes = []
            for segment in path_segments(circuit, ps):
                if not segment.squeezable:
                    continue
                try:
                    sizes.append(companion_set_of_path(circuit, ps, segment).size)
                except StructuralError:
                    sizes.append(None)
            block_reports.append(
                {
                    "block": sorted(block),
                    "s_j": ps.s_j,
                    "intersection_gates": len(gj),
                    "paths": len(ps.paths),
                    "companion_sizes": sizes,
                }
            )
            shown = ", ".join("?" if s is None else str(s) for s in sizes)
            lines.append(
                f"block {sorted(block)}: s_j={ps.s_j} |G_j|={len(gj)} "
                f"paths={len(ps.paths)} companion sizes=[{shown}]"
            )
        payload["blocks"] = block_reports
    _emit(args, payload, lines)
    return 0


def _cmd_squeeze(args) -> int:
    circuit = fileio.read_circuit(args.circuit).check()
    block = frozenset(circuit.variable_indices) if args.block is None else args.block
    f_rho = restrict(circuit, block, args.rho)
    squeezed = squeeze_all(f_rho, None, tol=args.tol, verify=not args.no_verify)
    if args.output:
        fileio.write_circuit(squeezed.circuit, args.output)
    payload = {
        "original_gate_count": len(f_rho.gates),
        "squeezed_gate_count": squeezed.gate_count,
        "composite_gates": len(squeezed.records),
        "path_ranks": list(squeezed.ranks),
        "companion_counts": [r.num_companions for r in squeezed.records],
        "s_j": squeezed.s_j,
        "gate_bound": 4 * squeezed.s_j + 1,
        "max_probability_deviation": squeezed.max_deviation,
        "max_arity": squeezed.circuit.arity_bound,
        "output": str(args.output) if args.output else None,
    }
    lines = [
        f"gates: {len(f_rho.gates)} -> {squeezed.gate_count} "
        f"(bound 4*s_j+1 = {payload['gate_bound']})",
        f"composites: {len(squeezed.records)} with ranks {list(squeezed.ranks)} "
        f"and companion counts {payload['companion_counts']}",
        "max |p deviation| = "
        + ("unverified" if squeezed.max_deviation is None else f"{squeezed.max_deviation:.3e}"),
        "note: composite gates use arity 6; the result is a circuit, not a formula "
        "over the original basis",
    ]
    if args.output:
        lines.append(f"wrote {args.output}")
    _emit(args, payload, lines)
    return 0


def _cmd_nechiporuk(args) -> int:
    n, bits = fileio.read_truth_table(args.function)
    blocks = fileio.read_partition(args.partition)
    table = TruthTable(n=n, bits=bits)
    partition = Partition.of(n, blocks)
    report = nechiporuk_bound(table, partition)
    payload = {
        "blocks": [
            {"vars": sorted(b), "sigma": s, "term": t}
            for b, s, t in zip(partition.blocks, report.sigmas, report.terms)
        ],
        "total": report.total,
    }
    lines = [
        f"block {sorted(b)}: sigma={s} term={t:.12g}"
        for b, s, t in zip(partition.blocks, report.sigmas, report.terms)
    ]
    lines.append(f"total bound = {report.total:.12g}")
    _emit(args, payload, lines)
    return 0


def _cmd_ed(args) -> int:
    bits_per_string, n = ed_parameters(args.ell)
    payload: dict = {"ell": args.ell, "n": n, "bits_per_string": bits_per_string}
    lines = [f"ell={args.ell}: n={n}, {bits_per_string} bits per string"]
    table = ed_function(args.ell) if args.check or args.emit else None
    if args.check:
        report = ed_sigma_check(args.ell, table)
        # ed_sigma_check raises SigmaCheckError (exit 2) unless the bound holds
        payload.update({"sigmas": list(report.sigmas), "binomial": report.binomial})
        lines.append(
            f"sigma per block: {list(report.sigmas)} >= C({args.ell ** 2},{args.ell - 1})"
            f" = {report.binomial}: ok"
        )
    if args.emit:
        directory = Path(args.dir)
        directory.mkdir(parents=True, exist_ok=True)
        table_path = directory / f"ed{n}.tt"
        part_path = directory / f"ed{n}.part"
        fileio.write_truth_table(n, table.bits, table_path)
        fileio.write_partition(ed_partition(args.ell).blocks, part_path)
        payload.update({"table": str(table_path), "partition": str(part_path)})
        lines.append(f"wrote {table_path} and {part_path}")
    _emit(args, payload, lines)
    return 0


def _power_text(value: float | None, log2: float) -> str:
    return f"2^{log2:.6g}" + ("" if value is None else f" = {value:.12g}")


def _cmd_bounds(args) -> int:
    if args.bound == "warren":
        if None in (args.m, args.t, args.deg):
            raise ValueError("bounds warren requires -m, -t and --deg")
        value = warren_bound(args.m, args.t, args.deg)
        log2 = warren_bound_log2(args.m, args.t, args.deg)
        _emit(args, {"value": value, "log2": log2}, [f"warren bound = {_power_text(value, log2)}"])
    elif args.bound == "appendix":
        if None in (args.n, args.size):
            raise ValueError("bounds appendix requires -n and -N")
        params = CountingParams(n=args.n, N=args.size, d=args.d)
        bound = appendix_bound(params)
        payload = {
            "mu": bound.mu,
            "log2_sign_factor": bound.log2_sign_factor,
            "log2_class_count": bound.log2_class_count,
            "log2_total": bound.log2_total,
            "sign_factor": bound.sign_factor,
            "total": bound.total,
        }
        _emit(
            args,
            payload,
            [
                f"mu = {bound.mu}",
                f"sign-assignment factor = {_power_text(bound.sign_factor, bound.log2_sign_factor)}",
                f"with wiring classes: {_power_text(bound.total, bound.log2_total)}",
            ],
        )
    else:
        if None in (args.n, args.size):
            raise ValueError("bounds equiv requires -n and -N")
        params = CountingParams(
            n=args.n, N=args.size, d=args.d,
            n_prime=args.n_prime if args.n_prime else None,
        )
        classes = equiv_class_bound(params)
        _emit(
            args,
            {
                "binomial_form": classes.binomial_form,
                "power_form": classes.power_form,
                "log2_binomial_form": classes.log2_binomial_form,
                "log2_power_form": classes.log2_power_form,
            },
            [
                f"C(n', d)^N = {_power_text(classes.binomial_form, classes.log2_binomial_form)}",
                f"(dN)^(dN) = {_power_text(classes.power_form, classes.log2_power_form)}",
            ],
        )
    return 0


def _cmd_enumerate(args) -> int:
    net = GateNet.of(fileio._read_net(args.net)) if args.net else GateNet.default()
    result = enumerate_functions(
        args.n, args.size, net, num_qubits=args.qubits, arity_bound=args.arity
    )
    payload = {
        "count": result.count,
        "tables": list(result.tables),
        "circuits_scanned": result.circuits_scanned,
        "undetermined_circuits": result.undetermined_circuits,
    }
    lines = [
        f"{result.count} function(s) over {result.circuits_scanned} circuits "
        f"({result.undetermined_circuits} undetermined)",
        "tables: " + ", ".join(result.tables),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_verify_lemmas(args) -> int:
    results = run_all_sweeps(cases=args.cases, seed=args.seed)
    payload = {
        "seed": args.seed,
        "cases": args.cases,
        "sweeps": [
            {
                "name": r.name,
                "max_deviation": float(f"{r.max_deviation:.6e}"),
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    lines = [
        f"{r.name}: {'PASS' if r.passed else 'FAIL'} "
        f"(max deviation {r.max_deviation:.3e}, tolerance {r.tolerance:.1e}, "
        f"{r.cases} cases)"
        for r in results
    ]
    _emit(args, payload, lines)
    return 0 if payload["passed"] else 2


@functools.cache  # built on first use, shared by every call in the process
def _build_parser() -> _Parser:
    parser = _Parser(prog="qf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("simulate", _cmd_simulate, help="run a circuit on one assignment")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("-a", "--assignment", required=True, help="bit string, x1 first")

    p = add("evaluate", _cmd_evaluate, help="compare a circuit against a truth table")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("-f", "--function", required=True, help="truth-table file")

    p = add("analyze", _cmd_analyze, help="formula check, paths, merge gates, companions")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("-p", "--partition", help="partition file (default: singletons)")

    p = add("squeeze", _cmd_squeeze, help="restrict to a block and squeeze every path")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("--block", type=_parse_block, help="block variables, e.g. '1,2' (default: all)")
    p.add_argument("--rho", type=_parse_rho, default={}, help="outside assignment, e.g. '3=0,4=1'")
    p.add_argument("-o", "--output", help="write the squeezed circuit here")
    p.add_argument("--tol", type=_tolerance, default=SQUEEZE_TOL)
    p.add_argument("--no-verify", action="store_true")

    p = add("nechiporuk", _cmd_nechiporuk, help="subfunction counts and the size bound")
    p.add_argument("-f", "--function", required=True, help="truth-table file")
    p.add_argument("-p", "--partition", required=True, help="partition file")

    p = add("ed", _cmd_ed, help="element-distinctness tables and checks")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--emit", action="store_true", help="write ed<n>.tt and ed<n>.part")
    p.add_argument("--check", action="store_true", help="verify the binomial bound")
    p.add_argument("--dir", default=".", help="output directory for --emit")

    p = add("bounds", _cmd_bounds, help="counting bound evaluators")
    p.add_argument("bound", choices=["warren", "appendix", "equiv"])
    p.add_argument("-m", type=int, help="polynomial count (warren)")
    p.add_argument("-t", type=int, help="variable count (warren)")
    p.add_argument("--deg", type=int, help="degree (warren)")
    p.add_argument("-n", type=int, help="function arity")
    p.add_argument("-N", dest="size", type=int, help="circuit size")
    p.add_argument("-d", type=int, default=2, help="gate arity")
    p.add_argument("--n-prime", type=int, default=0, help="input wire count")

    p = add("enumerate", _cmd_enumerate, help="exhaust circuits over a finite gate net")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-N", dest="size", type=int, required=True, help="gate count")
    p.add_argument("--net", help="JSON list of named matrices (default: I, X, H)")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--arity", type=int, default=2)

    p = add("verify-lemmas", _cmd_verify_lemmas, help="run the property sweeps")
    p.add_argument("--seed", type=_int_at_least(0, "non-negative"), default=7)
    p.add_argument("--cases", type=_int_at_least(1, "positive"), default=1000)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (VerificationError, NumericalError, SigmaCheckError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (CircuitError, NotAFormulaError, SimulationError, fileio.FormatError,
            ValueError, OSError, InconsistentAnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
