"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

* The checkers flag planted wrong answers: lambda* scaled by 1.01, a
  perturbed X, a flipped verdict, a composed graph missing one vector, and a
  trial verdict copied from ``ok`` without the recomputed bound.  The
  unplanted outputs pass, so a checker that flags everything fails too.
* Known faults excuse only their named failure: the rank-cut fault job only
  an infeasible verdict, a campaign only its named trials, a raising job
  only its known exception; every raising job counts as failed.
* Two traced runs of one workload and seed report identical linalg call
  counts and the same largest operand.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def pools():
    return {w: workloads.build(w, SEED) for w in workloads.WORKLOADS}


def first(jobs, kind):
    return next(job for job in jobs if job.kind == kind)


def problems(job, output):
    return job.check(output)[0]


def test_dense_seb_plants(pools):
    job = first(pools["dense"], "seb_solve")
    cert = job.run()
    assert problems(job, cert) == []
    assert problems(job, dataclasses.replace(cert, lambda_star=cert.lambda_star * 1.01))
    bump = np.zeros_like(cert.X)
    bump[0, 0] = 1e-3 * np.abs(cert.X).max()
    assert problems(job, dataclasses.replace(cert, X=cert.X + bump))
    assert problems(job, dataclasses.replace(cert, feasible=False))


def test_dense_infeasible_flip_flagged(pools):
    jobs = [j for j in pools["dense"] if j.kind == "seb_solve"]
    outs = [(j, j.run()) for j in jobs]
    job, cert = next((j, c) for j, c in outs if not c.feasible)
    assert problems(job, cert) == []
    assert problems(job, dataclasses.replace(cert, feasible=True))


def test_dense_intertwine_flip_flagged(pools):
    job = first(pools["dense"], "quasiaffine_decide")
    qa = job.run()
    assert problems(job, qa) == []
    assert problems(job, dataclasses.replace(qa, affine=not qa.affine))
    assert problems(job, dataclasses.replace(qa, space_dim=qa.space_dim + 1))


def test_rank_cut_fault_job(pools):
    job = [j for j in pools["dense"] if j.kind == "seb_truncation"][-1]
    cert = job.run()
    assert not cert.feasible
    assert job.check(cert) == ([], 1, 1)
    # only the infeasible verdict is excused: a feasible answer is checked in full
    X = np.diag(np.full(300, 0.29 * 1.01)).astype(complex)
    assert job.check(dataclasses.replace(cert, feasible=True, lambda_star=0.29 * 1.01, X=X))[0]


def test_svd_fault_job_raises_its_known_error():
    # zgesdd's failure depends on the rounding of one BLAS thread, as the
    # benchmark runs it, so the job runs in a child with that setting
    code = (
        "import numpy as np, workloads\n"
        "job = next(j for j in workloads.build('dense', 7) if j.known_error)\n"
        "try:\n    job.run()\nexcept job.known_error:\n    print('raised')\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.strip() == "raised", proc.stderr


def test_raising_jobs_count_as_failed(monkeypatch):
    import worker

    def boom():
        raise ValueError("planted")

    def lapack():
        raise np.linalg.LinAlgError("planted")

    pool = [
        workloads.Job("planted", boom, lambda out: ([], 1, 0)),
        workloads.Job("planted_known", lapack, lambda out: ([], 1, 0), ops=3, known_error=np.linalg.LinAlgError),
    ]
    monkeypatch.setattr(workloads, "build", lambda workload, seed: pool)
    result = worker.measure("relations", 0, 0.0, False)
    assert (result["attempted"], result["failed"]) == (4, 4)
    assert result["problems"] == []
    assert result["errors"] == ["planted: ValueError: planted"]


def _edit_report(output, edit):
    code, text = output
    report = json.loads(text)
    edit(report["results"])
    return code, json.dumps(report)


def test_dense_cli_plants(pools):
    job = first(pools["dense_cli"], "seb")
    out = job.run()
    assert problems(job, out) == []

    def scale(res):
        res["lambda_star"] *= 1.01

    def perturb(res):
        res["X"]["data"][0][0] += 1e-3

    def flip(res):
        res["feasible"] = False

    for edit in (scale, perturb, flip):
        assert problems(job, _edit_report(out, edit)), edit.__name__
    code, text = out
    assert problems(job, (code, text.replace('"lambda_star": ', '"lambda_star": NaN, "x": ', 1)))


def test_relations_plants(pools):
    job = first(pools["relations"], "rel_compose")
    out = job.run()
    assert problems(job, out) == []

    def drop_vector(res):
        g = res["result"]["graph_basis"]
        cols = g["cols"]
        g["data"] = [z for i, z in enumerate(g["data"]) if i % cols != cols - 1]
        g["cols"] = cols - 1

    assert problems(job, _edit_report(out, drop_vector))

    job = first(pools["relations"], "reverse")
    out = job.run()
    assert problems(job, out) == []

    def scale(res):
        res["eta_star"] *= 1.01

    def flip(res):
        res["feasible"] = False

    for edit in (scale, flip):
        assert problems(job, _edit_report(out, edit)), edit.__name__


def test_campaign_plants(pools):
    jobs = pools["campaigns"]
    fault = first(jobs, "proptest.diag_truncation")
    out = fault.run()
    bad, attempted, failed = fault.check(out)
    assert bad == [] and attempted == workloads.FAULT_TRIALS and failed >= 1

    def copy_ok(res):
        # mark every trial ok, as a report that skipped the bound would
        for tr in res["per_trial"]:
            tr["ok"] = True
        res["passed"] = res["trials"]

    assert fault.check(_edit_report(out, copy_ok))[0]

    def fail_unnamed(res):
        # a consistent failure of a trial outside the five named ones
        tr = next(t for t in res["per_trial"] if t["ok"])
        tr["truncated"] = 2.0 * tr["symbolic"] + 1.0
        tr["ok"] = False
        res["passed"] -= 1

    bad, attempted, failed = fault.check(_edit_report(out, fail_unnamed))
    assert bad and failed == 2

    job = first(jobs, "proptest.relation_involution")
    out = job.run()
    assert job.check(out) == ([], workloads.TRIALS, 0)

    def inflate(res):
        res["per_trial"][0]["worst_distance"] = 1e-6

    assert job.check(_edit_report(out, inflate))[0]

    for suite in ("seb_roundtrip", "wsimilar", "spectra_identities"):
        job = first(jobs, f"proptest.{suite}")
        out = job.run()
        assert job.check(out) == ([], workloads.TRIALS, 0), suite
        res = json.loads(out[1])["results"]
        flipped = copy.deepcopy(res)
        flipped["per_trial"][0]["ok"] = False
        flipped["passed"] -= 1
        assert job.check((0, json.dumps({"results": flipped})))[0], suite


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    names = [n for n in per_layer if n.startswith("linalg.") and (n.endswith(".calls") or n == "linalg.max_dim")]
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stderr
        runs.append({n: result["metrics"][n]["value"] for n in names})
    assert runs[0] == runs[1]
