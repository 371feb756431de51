"""Self-test of the benchmark on tiny variants of every workload.

    python3 perfbench/selftest.py

Checks, for each workload in BENCHMARK.json:
  * an untraced and a traced tiny run are correct, report exactly the metric
    names BENCHMARK.json lists, and no end-to-end metric is zero;
  * in the traced run, callbacks.calls equals the summed report counters and
    the layer self times sum to the solver span durations;
  * a second run with the same seed repeats every count and every cell digest
    (compare exits 0 and prints a performance profile), and compare flags a
    result set in which one digest was altered;
and that the command fails without a result when the sources are missing.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_METRICS = ("evals", "iters", "record_bytes", "solved_frac")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def bench(workload, seed, trace, out):
    code, lines = run(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--tiny", "--out", out])
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit status {code}")
    return json.loads(lines[-1])


def full_result(out, workload, seed, trace):
    for name in os.listdir(out):
        if name.startswith(f"{workload}-seed{seed}-trace{trace}-"):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                return json.load(fh)
    raise AssertionError(f"no full result for {workload} seed {seed} trace {trace}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    scratch = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        first, again, changed = (os.path.join(scratch, d) for d in ("first", "again", "changed"))
        for w in spec["workloads"]:
            name = w["name"]
            plain = bench(name, 1, 0, first)
            check(plain["correct"] and plain["failed"] == 0, f"{name}: untraced run correct")
            check(set(plain["metrics"]) == e2e, f"{name}: end-to-end metric names")
            check(all(m["value"] != 0 for m in plain["metrics"].values()),
                  f"{name}: no end-to-end metric is zero")

            # the worker compares callbacks.calls with the summed report counters
            # and the layer self times with the solver spans in every traced
            # round, and lists any mismatch as a problem
            traced = bench(name, 1, 1, first)
            problems = full_result(first, name, 1, 1)["problems"]
            check(traced["correct"] and traced["failed"] == 0 and not problems,
                  f"{name}: traced run correct, trace consistent {problems}")
            check(set(traced["metrics"]) == layers, f"{name}: per-layer metric names")

            repeat = bench(name, 1, 0, again)
            check(all(repeat["metrics"][k]["value"] == plain["metrics"][k]["value"]
                      for k in COUNT_METRICS),
                  f"{name}: counts repeat for the same seed")

        code, lines = run(["perfbench/compare.py", first, again])
        check(code == 0, "compare: same seed, no digest flagged")
        check(any("performance profile" in line for line in lines),
              "compare: prints a performance profile")
        # a result set whose iterates changed: one digest altered
        shutil.copytree(again, changed)
        victim = os.path.join(changed, sorted(os.listdir(changed))[0])
        with open(victim, encoding="utf-8") as fh:
            result = json.load(fh)
        result["cells"][0]["digest"] = "0" * 16
        with open(victim, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        code, lines = run(["perfbench/compare.py", first, changed])
        check(code == 1 and sum(line.startswith("FLAGGED") for line in lines) == 1,
              "compare: a changed digest is flagged")

        bare = os.path.join(scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = run(["perfbench/run.py", "--workload", spec["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        check(code != 0 and not lines, "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
