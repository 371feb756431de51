"""One workload process: set up, solve the workload's cells in rounds, report JSON.

Started by ``run.py`` with the environment pinned.  Prints progress to
stderr and one JSON object as the last line of stdout.  Not meant to be run
by hand; see ``run.py`` for the command line.

All reported times are reference seconds (see ``calibration.py``); the raw
wall times are kept next to them in the full result.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ROUNDS = 3
PROBE_ROUNDS = 5           # attempts at the record probe of a workload
PROBE_LIMIT_S = 60.0
CAL_REPEATS = 3            # kernel runs before and after every attempt
SETUP_CAL_REPEATS = 5
RECORD_CYCLE_BYTES = 8 << 20   # record bytes written per untraced record cycle
RECORD_MAX_REPEATS = 20
RECORD_KEYS = ("record_write_s", "record_read_s", "replay_s")
PINNED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


class CellTimeout(BaseException):
    """Raised by the interval timer when a cell reaches its cap.

    A BaseException so that solver code catching ``Exception`` cannot absorb it.
    """


def _on_alarm(signum, frame):
    raise CellTimeout()


def digest(report):
    """Hash of the hexfloat x*, f*, iteration count and evaluation counters."""
    h = hashlib.sha256()
    h.update(",".join(float(v).hex() for v in report.x_star).encode())
    h.update(f"|{float(report.f_star).hex()}|{report.niter}|".encode())
    h.update(json.dumps(report.counters.as_dict(), sort_keys=True).encode())
    return h.hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else 0.0


def _evals(counters):
    return sum(counters.as_dict().values())


class Runner:
    """Solves cells, with or without tracing, and records what each attempt cost."""

    def __init__(self, ok, wl, seed, tmpdir, tracer, calibration):
        self.ok = ok
        self.wl = wl
        self.seed = seed
        self.tmpdir = tmpdir
        self.tracer = tracer
        self.cal = calibration

    def _solve(self, cell, view, traced):
        fn = self.ok.SOLVERS[cell.solver]
        options = self.wl.solver_options(cell, self.seed)
        signal.setitimer(signal.ITIMER_REAL, cell.cap_s)
        try:
            if traced:
                return self.tracer.call("solver", "solver", fn, (view,), options)
            return fn(view, **options)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    def run(self, cell, spec, run_spec, traced):
        """One attempt at a cell: outcome, digest, counts, and its costs."""
        out = {"reason": None, "digest": None, "iters": 0, "n": spec.n}
        view = self.ok.ScaledView(run_spec, record=True if cell.record else None)
        report = None
        gc.collect()   # every attempt starts from the same heap, outside the timing
        cal = [self.cal.kernel_seconds(CAL_REPEATS)]
        t0 = time.perf_counter()
        try:
            report = self._solve(cell, view, traced)
        except CellTimeout:
            out["reason"] = f"stopped at its cap of {cell.cap_s:g} s"
            out["digest"] = "error:timeout"
        except Exception as exc:  # any solver failure is a failed cell, not a crash
            out["reason"] = f"raised {type(exc).__name__}: {exc}"
            out["digest"] = f"error:{type(exc).__name__}"
        elapsed = time.perf_counter() - t0
        out["evals"] = out["counters"] = _evals(view.counters)
        raw = {}
        if report is not None:
            out["iters"] = report.niter
            out["digest"] = digest(report)
            out["reason"] = self.wl.verify(cell, spec, report)
            if out["reason"] is None and cell.record:
                try:
                    out["reason"] = self._record_cycle(cell, run_spec, view, report,
                                                       out, raw, traced)
                except CellTimeout:
                    out["reason"] = "hot-started replay reached the cap"
                except Exception as exc:  # a record or replay failure fails the cell
                    out["reason"] = f"record cycle raised {type(exc).__name__}: {exc}"
        cal.append(self.cal.kernel_seconds(CAL_REPEATS))

        scale = self.cal.REFERENCE_S / statistics.fmean(cal)
        out["verified"] = out["reason"] is None
        out["scale"] = scale
        out["raw_s"] = elapsed
        out["charged_s"] = elapsed * scale if out["verified"] else cell.cap_s
        for key, value in raw.items():
            out[key] = value * scale
        return out

    def _record_cycle(self, cell, run_spec, view, report, out, raw, traced):
        """Write, read and replay the cell's record; None if all of it checks out.

        Small records go round several times, about RECORD_CYCLE_BYTES in all,
        so their timings are medians; a traced round goes round once so that
        the layer counts repeat.
        """
        ok = self.ok
        path = os.path.join(self.tmpdir, "cell.rec")
        times = {key: [] for key in RECORD_KEYS}
        repeats = 1
        while len(times["replay_s"]) < repeats:
            t0 = time.perf_counter()
            ok.write_record(view.record, path)
            t1 = time.perf_counter()
            back = ok.read_record(path)
            t2 = time.perf_counter()
            again = self._solve(cell, ok.ScaledView(run_spec, hot_start=back), traced)
            t3 = time.perf_counter()
            for key, dt in zip(RECORD_KEYS, (t1 - t0, t2 - t1, t3 - t2)):
                times[key].append(dt)
            out["counters"] += _evals(again.counters)
            if len(times["replay_s"]) == 1:
                out["record_bytes"] = os.path.getsize(path)
                reason = _replay_problem(view.record, back, report, again)
                if reason is not None:
                    return reason
                if not traced:
                    repeats = min(RECORD_MAX_REPEATS,
                                  max(1, RECORD_CYCLE_BYTES // out["record_bytes"]))
            # one parsed record alive at a time keeps the peak RSS repeatable
            del back, again
        os.remove(path)
        raw.update({key: _median(values) for key, values in times.items()})
        return None


def _replay_problem(record, back, report, again):
    """Why the round trip or the hot-started replay is wrong, or None."""
    if back != record:
        return "read_record(write_record(r)) differs from r"
    if _evals(again.counters):
        return "hot-started replay made live callback calls"
    if not (report.x_star.tobytes() == again.x_star.tobytes()
            and float(report.f_star).hex() == float(again.f_star).hex()):
        return "hot-started replay changed x* or f*"
    return None


def _environment(np):
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):   # older numpy without mode="dicts"
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_VARS},
        "machine": platform.machine(),
    }


def run_probe(args):
    """The workload's record probe, solved in a child worker.

    Its own process keeps the probe's record memory out of the workload's
    peak RSS and its time out of the workload's rounds.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe"]
    proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), capture_output=True,
                          text=True, timeout=PROBE_LIMIT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"probe worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--probe", action="store_true",
                   help="solve only the workload's record probe, PROBE_ROUNDS times")
    args = p.parse_args(argv)

    # set-up: import plus building every spec of the workload
    t0 = time.perf_counter()
    import numpy as np
    import optkit as ok
    import workloads as wl
    workload = wl.get_workload(args.workload, args.tiny)
    cells = [workload.probe] if args.probe else list(workload.cells)
    specs = {id(c): wl.build_spec(c, args.seed) for c in cells}
    setup_raw_s = time.perf_counter() - t0

    import calibration
    setup_s = setup_raw_s * calibration.REFERENCE_S / calibration.kernel_seconds(SETUP_CAL_REPEATS)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    import tracing
    tracer = tracing.Tracer() if args.trace else None
    traced_specs = {k: tracer.wrap_spec(s) for k, s in specs.items()} if tracer else {}
    signal.signal(signal.SIGALRM, _on_alarm)
    # record files go to the root of the checkout, the only place the run writes
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    runner = Runner(ok, wl, args.seed, tmpdir, tracer, calibration)

    rounds = []
    start = time.perf_counter()
    probe = None
    try:
        if args.trace == 0 and not args.probe and workload.probe is not None:
            probe = run_probe(args)
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t_round = time.perf_counter()
            if traced:
                tracer.reset()
                tracer.install()
            try:
                results = [runner.run(c, specs[id(c)],
                                      traced_specs[id(c)] if traced else specs[id(c)], traced)
                           for c in cells]
            finally:
                if traced:
                    tracer.uninstall()
            entry = {"traced": traced, "cells": results}
            if traced:
                entry.update(layers=tracer.layer_metrics(), solver_span_s=tracer.solver_span_s,
                             self_total_s=tracer.self_time_total())
            entry["round_s"] = time.perf_counter() - t_round
            rounds.append(entry)
            print(f"[perfbench] {args.workload}{' probe' if args.probe else ''} round "
                  f"{len(rounds)}{' traced' if traced else ''}: {entry['round_s']:.3f} s",
                  file=sys.stderr)
            if args.probe:
                if len(rounds) >= PROBE_ROUNDS:
                    break
                continue
            # stop before a round that would run past --seconds
            elapsed = time.perf_counter() - start
            next_round = _median([r["round_s"] for r in rounds])
            if len(rounds) >= MIN_ROUNDS + args.trace and elapsed + next_round > args.seconds:
                break
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    result = summarize(args, cells, rounds, _environment(np), probe)
    result.update(setup_s=setup_s, setup_raw_s=setup_raw_s)
    print(json.dumps(result))
    return 0


def summarize(args, cells, rounds, env, probe=None):
    """Aggregate the rounds (and the probe's result, if any) into the run's result."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    ops = [o for r in rounds for o in r["cells"]]
    problems = list(probe["problems"]) if probe else []

    rows = []
    for i, cell in enumerate(cells):
        outs = [r["cells"][i] for r in rounds]
        digests = sorted({o["digest"] for o in outs})
        if len(digests) > 1:
            problems.append(f"{cell.cell_id}: results differ between rounds {digests}")
        rows.append({
            "id": cell.cell_id, "n": outs[0]["n"], "cap_s": cell.cap_s,
            "digest": outs[0]["digest"], "verified": all(o["verified"] for o in outs),
            "reasons": sorted({o["reason"] for o in outs if o["reason"]}),
            "evals": outs[0]["evals"], "iters": outs[0]["iters"],
            "charged_s": [r["cells"][i]["charged_s"] for r in plain],
            "raw_s": [r["cells"][i]["raw_s"] for r in plain],
            "scale": [r["cells"][i]["scale"] for r in plain],
        })

    def cell_sum(round_set):
        return sum(_median([r["cells"][i]["charged_s"] for r in round_set])
                   for i in range(len(cells)))

    metrics = {}
    if args.trace == 0:
        record_ops = [[r["cells"][i] for r in plain] for i, c in enumerate(cells) if c.record]

        def record_metric(key):
            if probe:
                return probe["metrics"][key]["value"]
            return sum(_median([o.get(key, 0.0) for o in attempts]) for attempts in record_ops)

        metrics = {
            "solve_s": (cell_sum(plain), "s"),
            "solved_frac": (sum(o["verified"] for r in rounds for o in r["cells"])
                            / (len(cells) * len(rounds)), "ratio"),
            "evals": (sum(row["evals"] for row in rows), "count"),
            "iters": (sum(row["iters"] for row in rows), "count"),
            **{key: (record_metric(key), "s") for key in RECORD_KEYS},
            "record_bytes": (int(record_metric("record_bytes")), "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        layers = [r["layers"] for r in traced]
        scales = [_median([o["scale"] for o in r["cells"]]) for r in traced]
        for key in layers[0]:
            values = [lay[key] for lay in layers]
            if key.endswith("_s") or key.endswith(".s"):
                metrics[key] = (_median([v * s for v, s in zip(values, scales)]), "s")
            else:
                if len(set(values)) > 1:
                    problems.append(f"layer count {key} differs between rounds: {values}")
                metrics[key] = (values[0], "count")
        calls = metrics["view.calls"][0]
        metrics["view.self_us_per_call"] = (
            1e6 * metrics["view.self_s"][0] / calls if calls else 0.0, "us")
        metrics["solver.iters"] = (sum(o["iters"] for o in traced[0]["cells"]), "count")
        metrics["trace.overhead_frac"] = (cell_sum(traced) / cell_sum(plain) - 1.0, "ratio")
        # self-consistency of the trace: counted calls and the time partition
        for r in traced:
            counters = sum(o["counters"] for o in r["cells"])
            if r["layers"]["callbacks.calls"] != counters:
                problems.append(f"callbacks.calls {r['layers']['callbacks.calls']} != "
                                f"summed report counters {counters}")
            if abs(r["self_total_s"] - r["solver_span_s"]) > 1e-9 * max(1.0, r["solver_span_s"]):
                problems.append(f"layer self times {r['self_total_s']!r} do not sum to "
                                f"solver spans {r['solver_span_s']!r}")

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "rounds": len(rounds), "attempted": len(ops) + (probe["attempted"] if probe else 0),
        "failed": sum(not o["verified"] for o in ops) + (probe["failed"] if probe else 0),
        "problems": problems, "cells": rows, "probe_cells": probe["cells"] if probe else [],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": env,
    }


if __name__ == "__main__":
    sys.exit(main())
