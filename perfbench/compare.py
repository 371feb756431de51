"""Compare two result sets written by ``run.py --out DIR``.

    python3 perfbench/compare.py RESULTS_A RESULTS_B

For each workload and end-to-end metric it prints the median and quartiles
of each side (A, B) over its runs, then the per-layer medians of the traced runs
with their deltas, then a Dolan-More performance profile over the cells
(``optkit.bench.profiles.performance_profile``, with the two result sets as
the two "solvers").  Any cell whose result digest differs between the sides
for the same seed is flagged, and the exit status is then 1.
"""

import argparse
import glob
import json
import os
import statistics
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from optkit.bench.profiles import ProfileTable, performance_profile  # noqa: E402

PROFILE_TAUS = (1.0, 1.05, 1.1, 1.25, 1.5, 2.0)
LABELS = ("A", "B")


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    if not runs:
        raise SystemExit(f"compare: no result files in {directory}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_values(runs, workload, trace):
    out = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            for name, m in run["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def fmt(v):
    return f"{v:.6g}"


def print_metric_table(title, a, b, with_quartiles):
    print(f"  {title}")
    for name in sorted(set(a) | set(b), key=lambda k: (k not in a, k)):
        cols = []
        meds = []
        for values in (a.get(name), b.get(name)):
            if not values:
                cols.append("-")
                meds.append(None)
                continue
            q1, med, q3 = quartiles(values)
            meds.append(med)
            cols.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}] n={len(values)}"
                        if with_quartiles else fmt(med))
        delta = ""
        if None not in meds and meds[0] != 0:
            delta = f"{100.0 * (meds[1] - meds[0]) / abs(meds[0]):+.1f}%"
        print(f"    {name:<24} {LABELS[0]}: {cols[0]:<40} {LABELS[1]}: {cols[1]:<40} {delta}")


def digest_changes(a_runs, b_runs):
    def digests(runs):
        table = {}
        for run in runs:
            cells = [(c["id"], c) for c in run["cells"]]
            cells += [("probe " + c["id"], c) for c in run.get("probe_cells", [])]
            for cell_id, cell in cells:
                table.setdefault((run["workload"], run["seed"], run["tiny"], cell_id),
                                 set()).add(cell["digest"])
        return table

    da, db = digests(a_runs), digests(b_runs)
    return [(key, sorted(da[key]), sorted(db[key]))
            for key in sorted(set(da) & set(db), key=str) if da[key] != db[key]]


def profile(a_runs, b_runs):
    """Dolan-More profile over (workload, cell) with each result set as one solver."""
    def cells(runs):
        table = {}
        for run in runs:
            if run["trace"] != 0:
                continue
            for cell in run["cells"]:
                entry = table.setdefault((run["workload"], cell["id"]),
                                         {"times": [], "solved": True, "evals": [], "n": cell["n"]})
                entry["times"].append(statistics.median(cell["charged_s"]))
                entry["evals"].append(cell["evals"])
                entry["solved"] &= cell["verified"]
        return table

    ca, cb = cells(a_runs), cells(b_runs)
    keys = sorted(set(ca) & set(cb))
    if not keys:
        return None
    solved = np.array([[side[k]["solved"] for k in keys] for side in (ca, cb)])
    time = np.array([[statistics.median(side[k]["times"]) for k in keys] for side in (ca, cb)])
    evals = np.array([[statistics.median(side[k]["evals"]) for k in keys] for side in (ca, cb)],
                     dtype=float)
    table = ProfileTable(solvers=list(LABELS), problems=[f"{w}/{c}" for w, c in keys],
                         solved=solved, time=np.where(solved, time, np.inf),
                         evals=np.where(solved, evals, np.inf), dims=[ca[k]["n"] for k in keys])
    return performance_profile(table, cost="time"), len(keys)


def main(argv=None):
    p = argparse.ArgumentParser(description="compare two perfbench result sets")
    p.add_argument("a")
    p.add_argument("b")
    args = p.parse_args(argv)
    a_runs, b_runs = load(args.a), load(args.b)

    for label, runs in zip(LABELS, (a_runs, b_runs)):
        env = runs[0]["env"]
        print(f"{label}: {len(runs)} runs; python {env['python']}, numpy {env['numpy']}, "
              f"blas {env['blas']}, nproc {env['nproc']}, env {env['pinned_env']}")

    workloads = sorted({r["workload"] for r in a_runs + b_runs})
    for workload in workloads:
        print(f"\n== {workload}")
        print_metric_table("end to end (median [q1, q3])",
                           metric_values(a_runs, workload, 0),
                           metric_values(b_runs, workload, 0), True)
        print_metric_table("per layer (traced runs, median)",
                           metric_values(a_runs, workload, 1),
                           metric_values(b_runs, workload, 1), False)

    result = profile(a_runs, b_runs)
    if result is not None:
        prof, n_cells = result
        print(f"\nDolan-More performance profile over {n_cells} cells "
              "(time to a verified solution)")
        for label in LABELS:
            values = "  ".join(f"rho({tau:g})={prof.value(label, tau):.3f}" for tau in PROFILE_TAUS)
            print(f"  {label}: {values}")

    changed = digest_changes(a_runs, b_runs)
    print()
    for (workload, seed, tiny, cell), da, db in changed:
        print(f"FLAGGED digest changed: {workload} seed {seed}{' tiny' if tiny else ''} "
              f"{cell}: {','.join(da)} -> {','.join(db)}")
    print(f"{len(changed)} cell digests differ between {LABELS[0]} and {LABELS[1]}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
