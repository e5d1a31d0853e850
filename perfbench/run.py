"""psdfactor benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0|1

Run from the root of a checkout.  The run byte-compiles ``src`` and
``perfbench``, then

* ``--trace 0``: times SETUP_SAMPLES fresh interpreters from start to the
  end of their warm-up jobs, half before the worker and half after it
  (``setup_s`` is their median), runs the workload in one fresh worker
  process for N seconds of whole rounds and prints the end-to-end metrics;
* ``--trace 1``: runs the worker with layer tracing and prints the per-layer
  metrics, including the untraced and traced wall time of a round.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Every child gets PYTHONHASHSEED=0 and one BLAS/OpenMP thread, whatever the
caller's environment holds.  Exit status 0 means the run completed; 2 means
it could not run (no psdfactor sources here, or a worker that failed).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("dense", "dense_cli", "relations", "campaigns")
SETUP_SAMPLES = 10
DEADLINE_S = 170.0

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def setup_sample(workload, env, timeout):
    """Seconds from spawning a fresh interpreter to the end of its warm-up."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, WORKER, "--setup-probe", "--workload", workload],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def run_worker(args, env, timeout):
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "psdfactor", "__init__.py")):
        print(f"perfbench: no psdfactor sources under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    env = child_env()
    # set-up samples on both sides of the worker, so that their median does
    # not hang on one spell of the host's load
    n_setup = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        samples = [setup_sample(args.workload, env, 60.0) for _ in range(n_setup)]
        result = run_worker(args, env, DEADLINE_S - 10.0 - (time.perf_counter() - start))
        samples += [setup_sample(args.workload, env, 60.0) for _ in range(n_setup)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in result["problems"]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    for error in result["errors"]:
        print(f"perfbench: job raised, counted as failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in result["per_layer"].items()}
    else:
        done = [t for times in result["job_s"] for t in times]
        metrics = {
            "jobs_per_s": {"value": len(done) / result["timed_s"], "unit": "1/s"},
            "job_s_p50": {"value": statistics.median(done), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
        }
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
