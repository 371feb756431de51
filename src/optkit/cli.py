"""Command-line front end: run solvers, check derivatives, benchmark, inspect records.

``run``, ``check`` and ``bench`` name problems as ``name[:size]`` tokens
(``cantilever:400``), and each subcommand takes only the flags it uses.
``bench`` applies each ``--opt KEY=VALUE`` to every selected solver, so an
option one of them does not declare is a usage error, like any other bad
option, problem, scaler or hot-start record.

Exit codes: 0 success/converged, 1 ran-but-failed, 2 usage/config error.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import (data_profile, parse_problem_token, performance_profile,
                    problem_names, run_suite, write_suite_csv)
from .problem import (EvaluationError, ProblemError, ScaledView,
                      check_first_derivatives, validate_scalers)
from .recording import (HotStartError, RecordError, print_results,
                        read_record, write_readable_outputs, write_record)
from .solvers import SOLVERS, OptionError, SolverError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Configuration problem; maps to exit code 2."""


def _parse_override(token):
    """Parse a key=value solver option override with permissive value typing."""
    key, sep, raw = token.partition("=")
    if not sep or not key:
        raise CliError(f"option override must look like key=value, got {token!r}")
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return key, low == "true"
    try:
        return key, int(raw)
    except ValueError:
        pass
    try:
        return key, float(raw)
    except ValueError:
        pass
    if "," in raw:
        try:
            return key, [float(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            raise CliError(f"comma-separated option value must be floats, got {token!r}") from None
    return key, raw


def _scaler_arg(text, label):
    """One float (applied to every entry) or a comma-separated vector."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"{label} must be one float or comma-separated floats, got {text!r}") from None
    return values[0] if len(values) == 1 else values


def _problem(token):
    """A registry problem from a 'name' or 'name:size' token."""
    try:
        return parse_problem_token(token)
    except (KeyError, ValueError) as exc:
        raise CliError(exc.args[0]) from None


def _build_problem(args):
    spec = _problem(args.problem)
    # optional scaler overrides, checked like build_problem's scalers
    x_scaler = spec.x_scaler if args.x_scaler is None else _scaler_arg(args.x_scaler, "x_scaler")
    f_scaler = spec.f_scaler if args.f_scaler is None else args.f_scaler
    c_scaler = spec.c_scaler if args.c_scaler is None else _scaler_arg(args.c_scaler, "c_scaler")
    x_scaler, f_scaler, c_scaler = validate_scalers(spec.n, spec.m, x_scaler, f_scaler, c_scaler)
    return replace(spec, x_scaler=x_scaler, f_scaler=f_scaler, c_scaler=c_scaler)


def _solver_options(tokens, **flags):
    """Parse the --opt KEY=VALUE tokens; flags that are not None override them."""
    options = dict(_parse_override(token) for token in tokens or [])
    options.update((key, value) for key, value in flags.items() if value is not None)
    return options


def cmd_run(args):
    spec = _build_problem(args)
    if args.solver not in SOLVERS:
        raise CliError(f"unknown solver {args.solver!r}; valid names: {sorted(SOLVERS)}")
    solver = SOLVERS[args.solver]
    options = _solver_options(args.opt, maxiter=args.maxiter, opt_tol=args.opt_tol,
                              feas_tol=args.feas_tol, seed=args.seed)

    hot = None
    if args.hot_start:
        try:
            hot = read_record(args.hot_start)
        except (OSError, RecordError) as exc:
            raise CliError(f"cannot hot-start: {exc}") from exc
    recording = bool(args.record or args.readable_outputs)
    view = ScaledView(spec, record=True if recording else None, hot_start=hot)
    report = None
    try:
        report = solver(view, **options)
        print(print_results(report))
    except (SolverError, EvaluationError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
    # a run that raised still leaves its record, up to the failure
    if args.record:
        write_record(view.record, args.record)
        print(f"record written to {args.record}")
    if report is None:
        return EXIT_FAILED
    if args.readable_outputs:
        names = [n.strip() for n in args.readable_outputs.split(",") if n.strip()]
        paths = write_readable_outputs(view.record, names, args.out_dir)
        print("readable outputs: " + " ".join(paths))
    return EXIT_OK if report.converged else EXIT_FAILED


def cmd_check(args):
    spec = _build_problem(args)
    report = check_first_derivatives(spec)
    print(f"problem: {spec.name}")
    print(report)
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_bench(args):
    problems = [t.strip() for t in (args.problems or "").split(",") if t.strip()]
    solvers = [t.strip() for t in (args.solvers or "").split(",") if t.strip()]
    if not problems or not solvers:
        raise CliError("bench needs nonempty --problems and --solvers selections")
    specs = [_problem(t) for t in problems]
    for s in solvers:
        if s not in SOLVERS:
            raise CliError(f"unknown solver {s!r}; valid names: {sorted(SOLVERS)}")

    options = dict.fromkeys(solvers, _solver_options(args.opt))
    budget = (args.maxiter, args.budget_seconds)
    table = run_suite(specs, solvers, options=options, budget=budget)

    os.makedirs(args.out_dir, exist_ok=True)
    summary = os.path.join(args.out_dir, "suite_summary.csv")
    write_suite_csv(table, summary)
    written = [summary]
    if args.profile in ("perf", "both"):
        path = os.path.join(args.out_dir, "performance_profile.csv")
        performance_profile(table).write_csv(path)
        written.append(path)
    if args.profile in ("data", "both"):
        path = os.path.join(args.out_dir, "data_profile.csv")
        data_profile(table).write_csv(path)
        written.append(path)

    print(f"{'solver':<22} solved fraction")
    for i, solver in enumerate(table.solvers):
        frac = float(np.mean(table.solved[i]))
        print(f"{solver:<22} {frac:.3f}  ({int(table.solved[i].sum())}/{len(table.problems)})")
    print("wrote: " + " ".join(written))
    return EXIT_OK


def cmd_inspect(args):
    if args.tail < 0:
        raise CliError(f"--tail must be at least 0, got {args.tail}")
    try:
        record = read_record(args.record_path)
    except OSError as exc:
        raise CliError(f"cannot read record: {exc}") from exc
    except RecordError as exc:
        print(f"malformed record: {exc}", file=sys.stderr)
        return EXIT_FAILED

    header = record.header
    evals = record.eval_events()
    iters = record.iter_events()
    print(f"problem:   {header.get('problem')}")
    print(f"solver:    {header.get('solver')}")
    print(f"n, m:      {header.get('n')}, {header.get('m')}")
    print(f"timestamp: {header.get('timestamp')}")
    print(f"{len(iters)} iterations, {len(evals)} evaluations")

    if args.tail:
        for event in iters[-args.tail:]:
            parts = []
            for name, value in event.values.items():
                if isinstance(value, float):
                    parts.append(f"{name}={value:.6g}")
                elif isinstance(value, np.ndarray):
                    with np.printoptions(precision=6, threshold=8):
                        parts.append(f"{name}={value}")
                else:
                    parts.append(f"{name}={value}")
            print("  " + " ".join(parts))
    if args.outputs:
        names = [n.strip() for n in args.outputs.split(",") if n.strip()]
        try:
            paths = write_readable_outputs(record, names, args.out_dir)
        except RecordError as exc:
            raise CliError(str(exc)) from exc
        print("readable outputs: " + " ".join(paths))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="optkit",
                                     description="run, check, and benchmark the built-in optimizers")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--maxiter", type=int, default=None)
        p.add_argument("--opt", action="append", metavar="KEY=VALUE",
                       help="solver option override (repeatable)")
        p.add_argument("--out-dir", dest="out_dir", default=".")

    def add_problem(p):
        p.add_argument("--problem", required=True, metavar="NAME[:SIZE]",
                       help=f"one of {problem_names()}, size via name:size")
        p.add_argument("--x-scaler", dest="x_scaler", default=None, help="comma floats or one float")
        p.add_argument("--f-scaler", dest="f_scaler", type=float, default=None)
        p.add_argument("--c-scaler", dest="c_scaler", default=None, help="comma floats or one float")

    run_p = sub.add_parser("run", help="solve a registry problem")
    add_problem(run_p)
    run_p.add_argument("--solver", required=True)
    run_p.add_argument("--record", default=None, help="write the run record here")
    run_p.add_argument("--hot-start", dest="hot_start", default=None,
                       help="replay evaluations from this record")
    run_p.add_argument("--readable-outputs", dest="readable_outputs", default=None,
                       help="comma-separated output names to export as text")
    run_p.add_argument("--opt-tol", dest="opt_tol", type=float, default=None)
    run_p.add_argument("--feas-tol", dest="feas_tol", type=float, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    check_p = sub.add_parser("check", help="verify analytic derivatives against finite differences")
    add_problem(check_p)
    check_p.set_defaults(func=cmd_check)

    bench_p = sub.add_parser("bench", help="run a solver x problem suite and export profiles")
    bench_p.add_argument("--problems", help="comma-separated names, size via name:size")
    bench_p.add_argument("--solvers", help="comma-separated solver names")
    bench_p.add_argument("--profile", choices=["perf", "data", "both"], default="both")
    bench_p.add_argument("--budget-seconds", dest="budget_seconds", type=float, default=None)
    add_common(bench_p)
    bench_p.set_defaults(func=cmd_bench)

    inspect_p = sub.add_parser("inspect", help="summarize a record file")
    inspect_p.add_argument("record_path")
    inspect_p.add_argument("--tail", type=int, default=0, help="print the last K iteration rows")
    inspect_p.add_argument("--outputs", default=None, help="export these outputs as text files")
    inspect_p.add_argument("--out-dir", dest="out_dir", default=".")
    inspect_p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OptionError, ProblemError, HotStartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
