"""optkit benchmark: time to a verified solution, record I/O, and layer timing.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload unconstrained --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh worker process (``worker.py``) with BLAS pinned
to one thread.  The worker solves the workload's cells (``workloads.py``) in
rounds until ``--seconds`` are used, checks every result against its
reference, and reports medians over the rounds, in reference seconds
(``calibration.py``).  With ``--trace 0`` the last line of stdout is the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced and
traced (``tracing.py``) and the last line is the per-layer metrics.  Set-up
time is the median over several short set-up-only processes plus the
worker's own set-up.

``--out DIR`` also writes the full result (per-cell digests and times, the
environment) to DIR as JSON; ``compare.py`` reads two such directories.

The program is imported from ``src/`` of the checkout; the command exits
with status 2 without a result when that is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # keep freed blocks in the heap: page faults on a shared host are the
    # noisiest part of a run and not the library's doing
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "PYTHONDONTWRITEBYTECODE": "1",
}


def worker_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def run_worker(args, extra, timeout):
    cmd = ([sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
           + (["--tiny"] if args.tiny else []) + extra)
    proc = subprocess.run(cmd, cwd=HERE, env=worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description="optkit benchmark (see module docstring)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small problem sizes, for the benchmark's self-test")
    p.add_argument("--out", help="directory for the full JSON result of this run")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "optkit", "__init__.py")):
        print(f"perfbench: no optkit sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        result = run_worker(args, [], RUN_LIMIT_S)
        setups = [result["setup_s"]]
        if args.trace == 0:
            for _ in range(SETUP_PROBES):
                left = RUN_LIMIT_S - (time.perf_counter() - start)
                setups.append(run_worker(args, ["--setup-only"], left)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    correct = result["failed"] == 0 and not result["problems"]
    result.update(setup_samples_s=setups, correct=correct, argv=sys.argv[1:])

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)

    env = result["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, env {env['pinned_env']}")
    for cell in result["cells"]:
        status = "ok" if cell["verified"] else "FAILED " + "; ".join(cell["reasons"])
        print(f"  {cell['id']:<44} {cell['digest']}  {status}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"{args.workload}: failed/attempted = {result['failed']}/{result['attempted']} "
          f"over {result['rounds']} rounds")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
