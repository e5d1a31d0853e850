"""One workload in one fresh process: build, warm up, time, check, report.

    python3 perfbench/worker.py --workload W --seed S --seconds N --trace 0|1
    python3 perfbench/worker.py --setup-probe --workload W

The measuring form prints one JSON object on its last line: the wall time of
every untraced execution of each job of the pool that returned, the total
timed seconds of the untraced executions (those that raised included), the
operations attempted
and failed, the problems the checks found, the exceptions jobs raised other
than their known one, the peak resident memory and,
with ``--trace 1``, the per-layer metrics.  With ``--trace 1`` rounds
alternate untraced and traced over the same jobs, which gives the tracing
overhead; the per-layer metrics come from the traced rounds only, and the
spans are written to ``.perfbench-out/spans-<workload>-seed<seed>.jsonl``.
The probe form imports psdfactor, runs the warm-up jobs, prints ``ready``
and exits; run.py times it from outside.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import time

import numpy as np

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench-out")


def digest(obj, h=None):
    """Digest of an engine result or report text (``wall_clock_s`` left out)."""
    top = h is None
    h = h or hashlib.blake2b(digest_size=16)
    if isinstance(obj, str):
        h.update(re.sub(r'"wall_clock_s": [^,\n}]*', "", obj).encode())
    elif isinstance(obj, np.ndarray):
        h.update(str(obj.shape).encode() + obj.tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        for k in sorted(obj, key=str):
            h.update(str(k).encode())
            digest(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            digest(v, h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def measure(workload, seed, seconds, traced):
    import warmup
    import workloads
    from layertrace import Tracer

    jobs = workloads.build(workload, seed)
    warmup.warm_up(workload)
    tracer = Tracer() if traced else None

    times = [[] for _ in jobs]  # per job: untraced wall time of each round it returned
    timed_s = 0.0  # all untraced executions, raising ones included
    round_s = {False: [], True: []}
    attempted = failed = traced_jobs = 0
    problems = []
    errors = set()  # exceptions other than a job's known one
    verified = [dict() for _ in jobs]  # per job: output digest -> check result
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds or (traced and rounds % 2):
        tracing = traced and rounds % 2 == 1
        if tracing:
            tracer.install()
        wall = 0.0
        for i, job in enumerate(jobs):
            if tracing:
                tracer.active = True
            error = None
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # noqa: BLE001 - a raising job is a failed operation
                error = exc
            dt = time.perf_counter() - t0
            if tracing:
                tracer.active = False
                traced_jobs += 1
                if error is None and isinstance(out, tuple):
                    tracer.bytes_out += len(out[1].encode())
            else:
                timed_s += dt
                if error is None:
                    times[i].append(dt)
            wall += dt
            if error is not None:
                attempted += job.ops
                failed += job.ops
                if not (job.known_error and isinstance(error, job.known_error)):
                    errors.add(f"{job.kind}: {type(error).__name__}: {error}")
                continue
            key = digest(out)
            if key not in verified[i]:
                verified[i][key] = job.check(out)
            bad, n_ops, n_failed = verified[i][key]
            attempted += n_ops
            failed += n_failed
            problems += [f"{job.kind}: {p}" for p in bad]
        if tracing:
            tracer.uninstall()
        round_s[tracing].append(wall)
        rounds += 1

    result = {
        "job_s": times,
        "timed_s": timed_s,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems))[:20],
        "errors": sorted(errors)[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        layers = tracer.reduce(traced_jobs)
        layers["trace.untraced_round_s"] = (statistics.median(round_s[False]), "s")
        layers["trace.traced_round_s"] = (statistics.median(round_s[True]), "s")
        layers["trace.spans_per_job"] = (len(tracer.spans) / traced_jobs, "count")
        result["per_layer"] = layers
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true")
    args = p.parse_args(argv)
    if args.setup_probe:
        import warmup

        warmup.warm_up(args.workload)
        print("ready", flush=True)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
