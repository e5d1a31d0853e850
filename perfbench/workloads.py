"""The four workloads: seeded inputs, the timed call of each job, its check.

A job is one certified decision: one engine call (``dense``) or one in-process
``cli.main`` call from job text to report text (the other three).  Every
workload is a fixed pool of jobs that a run repeats in whole rounds, so the
mix of work, and the share of failed operations, is the same in every run.
Sizes are fixed per workload; the seed only draws the entries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import checks as ck

from psdfactor import diagmodel, factor
from psdfactor.diagmodel import INF, DiagRel, DiagSymbol
from warmup import FAULT_B, FAULT_T, run_cli

# Trials per campaign job.  25 keeps the longest job (reverse_duality) near
# half a second; diag_truncation keeps the 100 trials its fault listing uses.
TRIALS = 25
FAULT_TRIALS = 100
# diag_truncation campaigns run at these master seeds whatever the workload
# seed: five of their 400 trials hit the known seb_solve rank-cut fault, so the
# failed share is the same in every run.
FAULT_SEEDS = (0, 1, 2, 3)
# (n, singular B, infeasible) of the seeded dense seb_solve jobs.  A singular
# B has rank 3n/4.  With one BLAS thread, numpy's SVD (LAPACK zgesdd) fails to
# converge inside seb_solve on 2 to 3% of such seeded inputs at n = 150, 160
# and 240 but on none of 900 at n = 120 and 200, so the seeded singular jobs
# here and in dense_cli use those two sizes, and the fault shows in every
# round through one fixed input (svd_fault_input) instead.
SEB_CASES = ((160, False, False), (200, True, False), (200, True, True), (280, False, False))


@dataclass
class Job:
    """One timed call and the check of what it returned.

    ``check(output)`` gives (problems, operations attempted, operations failed).
    A job that raises counts all its ``ops`` operations as failed.
    ``known_error`` names the exception a job raises today because of a known
    fault in the program; any other exception is reported as well.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    ops: int = 1
    known_error: type | None = None


def single(problems):
    return problems, 1, 1 if problems else 0


# ---------------------------------------------------------------------------
# input generators (the benchmark's own, so inputs stay fixed across commits)
# ---------------------------------------------------------------------------


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary(rng, n):
    q, _ = np.linalg.qr(cplx(rng, n, n))
    return q


def psd(rng, n, rank=None, lo=0.1, hi=2.0):
    """Random PSD matrix with eigenvalues in [lo, hi]; ``rank`` zeros the rest."""
    q = unitary(rng, n)
    w = rng.uniform(lo, hi, size=n)
    if rank is not None:
        w[rank:] = 0.0
    P = (q * w) @ q.conj().T
    return 0.5 * (P + P.conj().T), q[:, (rank if rank is not None else n):]


def conditioned(rng, n, cond):
    """Invertible matrix with singular values spread over [1/cond, 1]."""
    s = np.geomspace(1.0, 1.0 / cond, n)
    return (unitary(rng, n) * s) @ unitary(rng, n).conj().T


def levels(rng, n, n_levels):
    """Eigenvalue levels >= 0.5 apart with random multiplicities summing to n."""
    vals = 0.5 + np.cumsum(rng.uniform(0.5, 1.0, size=n_levels))
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_levels - 1, replace=False))
    mults = np.diff(np.concatenate([[0], cuts, [n]]))
    return vals, mults


def symbol(rng, head_len, power):
    head = tuple(float(x) for x in rng.uniform(0.5, 3.0, size=head_len))
    return DiagSymbol(head=head, tail_coeff=float(rng.uniform(0.5, 2.0)), tail_power=power)


def enumerate_symbol(sym, N):
    """Entries 1..N, evaluated here from the symbol's fields."""
    out = []
    for n in range(1, N + 1):
        if n <= len(sym.head):
            v = sym.head[n - 1]
            out.append(v if v is INF else complex(v))
        else:
            out.append(complex(sym.tail_coeff) * float(n) ** float(sym.tail_power))
    return out


def truncation_pair(rng, N):
    """Head-plus-power-tail symbols t, b with t <= b in growth.

    Powers keep |t(n) b(n)| within about 1e6 of each other for n <= 400, so no
    real eigenvalue of T*B falls under the relative rank cut; the known fault
    at larger dynamic range has its own seed-independent job.
    """
    pt = Fraction(int(rng.integers(-2, 2)), 2)
    pb = pt + Fraction(int(rng.integers(0, 3)), 2)
    return symbol(rng, int(rng.integers(1, 4)), pt), symbol(rng, int(rng.integers(0, 3)), pb)


def seb_input(rng, n, singular, infeasible=False):
    X0, _ = psd(rng, n)
    B, ker = psd(rng, n, rank=(n - n // 4) if singular else None)
    T = X0 @ B
    if infeasible:
        T = T + (ker @ ker.conj().T) @ cplx(rng, n, n).conj().T
    return {"T": T, "B": B, "feasible": not infeasible}


def svd_fault_input():
    """A feasible seb input on which numpy's SVD (LAPACK zgesdd) fails to converge.

    T = X0 B at n = 240 with B of rank 180, the third input drawn from this
    fixed generator; seb_solve raises LinAlgError on it every time.  It does
    not depend on the workload seed, so the failure shows in every round.
    """
    rng = np.random.default_rng([32, 1])
    seb_input(rng, 200, False)
    seb_input(rng, 200, True, True)
    return seb_input(rng, 240, True)


def truncation_input(t, b, N):
    vt, vb = enumerate_symbol(t, N), enumerate_symbol(b, N)
    return {
        "T": np.diag(vt),
        "B": np.diag(vb),
        "feasible": True,
        "lambda_ref": max(abs(x / y) for x, y in zip(vt, vb)),
    }


def similar_input(rng, n, cond=30.0):
    G0 = conditioned(rng, n, cond)
    # one eigenvalue per cell of a grid on [0.1, 3]: gaps stay well above the
    # clustering tolerance of the similarity test
    d = 0.1 + 2.9 * (np.arange(n) + rng.uniform(0.25, 0.75, size=n)) / n
    d = rng.permutation(d)
    T = G0 @ np.diag(d) @ np.linalg.inv(G0)
    return {"T": T, "d": d, "G": np.linalg.inv(G0), "S": np.diag(d).astype(complex), "cond": cond}


def intertwine_input(rng, n, case):
    """T = G J G^-1 against S = diag of the levels.

    ``similar``: J = S.  ``jordan``: one 2x2 Jordan block inside a level.
    ``negative``: one copy of a level negated.  The Sylvester dimension is
    sum over levels of (geometric multiplicity in T) x (multiplicity in S).
    """
    vals, mults = levels(rng, n, 4)
    if case != "similar":
        mults = np.maximum(mults, 2)
        mults[np.argmax(mults)] -= int(mults.sum() - n)
    d = np.repeat(vals, mults)
    J = np.diag(d).astype(complex)
    space = int(np.sum(mults * mults))
    if case == "jordan":
        J[0, 1] = 1.0
        space -= int(mults[0])
    elif case == "negative":
        J[0, 0] = -d[0]
        space -= int(mults[0])
    G = conditioned(rng, n, 5.0)
    T = G @ J @ np.linalg.inv(G)
    return {"T": T, "S": np.diag(d).astype(complex), "similar": case == "similar", "space_dim": space}


def relation_basis(rng, n, m, generic, n_mul, n_ker):
    """Orthonormal graph basis with ``n_mul`` pairs (0; y) and ``n_ker`` pairs (x; 0)."""
    cols = [cplx(rng, n + m, generic)]
    cols.append(np.vstack([np.zeros((n, n_mul)), cplx(rng, m, n_mul)]))
    cols.append(np.vstack([cplx(rng, n, n_ker), np.zeros((m, n_ker))]))
    return ck.orth(np.hstack(cols))


def diag_graph(values):
    """Graph basis of a diagonal relation: (e; v e) per finite v, (0; e) per INF."""
    N = len(values)
    cols = []
    for i, v in enumerate(values):
        e = np.zeros(2 * N, dtype=complex)
        if v is INF:
            e[N + i] = 1.0
        else:
            e[i], e[N + i] = 1.0, v
            e /= np.linalg.norm(e)
        cols.append(e)
    return np.array(cols).T


# ---------------------------------------------------------------------------
# the JSON the CLI jobs carry, written by the benchmark itself
# ---------------------------------------------------------------------------


def mjson(M):
    M = np.asarray(M, dtype=complex)
    flat = M.reshape(-1)
    data = np.stack([flat.real, flat.imag], axis=1).tolist()
    return {"rows": M.shape[0], "cols": M.shape[1], "data": data}


def rjson(basis, n, m):
    return {"n": n, "m": m, "graph_basis": mjson(basis)}


def sjson(sym):
    head = ["inf" if v is INF else [complex(v).real, complex(v).imag] for v in sym.head]
    c = complex(sym.tail_coeff)
    return {"head": head, "tail": {"coeff": [c.real, c.imag], "power": str(Fraction(sym.tail_power))}}


def cli_job(kind, command, job, check):
    text = json.dumps(job)
    argv = [command, "--in", "-"]

    def checked(output):
        code, report = output
        if code != 0:
            return single([f"exit code {code}"])
        try:
            results = ck.strict_json(report)["results"]
        except ValueError as exc:
            return single([f"report is not strict JSON: {exc}"])
        return check(results)

    return Job(kind, lambda: run_cli(argv, text), checked)


# ---------------------------------------------------------------------------
# dense: engine calls on pre-built matrices
# ---------------------------------------------------------------------------


def _seb_check(inp):
    return lambda c: single(ck.check_seb(inp, c.feasible, c.lambda_star, c.X))


def _rank_cut_fault_check(inp):
    """The rank-cut fault job: an infeasible verdict is the known failure;
    a feasible answer is checked in full."""

    def check(c):
        if not c.feasible:
            return [], 1, 1
        return single(ck.check_seb(inp, c.feasible, c.lambda_star, c.X))

    return check


def dense_jobs(rng):
    jobs = []
    for n, singular, infeasible in SEB_CASES:
        inp = seb_input(rng, n, singular, infeasible)
        jobs.append(Job("seb_solve", lambda i=inp: factor.seb_solve(i["T"], i["B"]), _seb_check(inp)))
    inp = svd_fault_input()
    jobs.append(Job("seb_solve", lambda i=inp: factor.seb_solve(i["T"], i["B"]), _seb_check(inp),
                    known_error=np.linalg.LinAlgError))
    cases = [truncation_pair(rng, N) + (N, False) for N in (250, 350)]
    cases.append((FAULT_T, FAULT_B, 300, True))
    for t, b, N, fault in cases:
        inp = truncation_input(t, b, N)
        tr, br = DiagRel(t), DiagRel(b)
        run = lambda tr=tr, br=br, N=N: factor.seb_solve(diagmodel.diag_truncate(tr, N), diagmodel.diag_truncate(br, N))
        jobs.append(Job("seb_truncation", run, _rank_cut_fault_check(inp) if fault else _seb_check(inp)))
    for n in (100, 150):
        inp = similar_input(rng, n)
        jobs.append(Job(
            "wsimilar_forms",
            lambda i=inp: factor.wsimilar_forms(i["T"]),
            lambda f, i=inp: single(ck.check_wsimilar(i, f.X, f.S)),
        ))
    inp = similar_input(rng, 150)
    jobs.append(Job(
        "bounded_S_checks",
        lambda i=inp: factor.bounded_S_checks(i["T"], i["G"], i["S"]),
        lambda r, i=inp: single(ck.check_bounded_s(i, [vars(it) for it in r.items], r.all_passed)),
    ))
    for n, case in ((16, "similar"), (24, "jordan")):
        inp = intertwine_input(rng, n, case)
        jobs.append(Job(
            "quasiaffine_decide",
            lambda i=inp: factor.quasiaffine_decide(i["T"], i["S"]),
            lambda q, i=inp: single(ck.check_quasiaffine(i, q.affine, q.G, q.space_dim)),
        ))
    for n, case in ((20, "similar"), (24, "negative")):
        inp = intertwine_input(rng, n, case)
        jobs.append(Job(
            "quasisimilar_decide",
            lambda i=inp: factor.quasisimilar_decide(i["T"], i["S"]),
            lambda q, i=inp: single(ck.check_quasisimilar(i, q.similar_pair, q.G1, q.G2)),
        ))
    return jobs


# ---------------------------------------------------------------------------
# dense_cli: the same family as CLI jobs, serialized before timing
# ---------------------------------------------------------------------------


def _cli_seb_check(inp):
    def check(res):
        X = ck.matrix_of(res["X"]) if res["X"] is not None else None
        return single(ck.check_seb(inp, res["feasible"], ck.number(res["lambda_star"]), X))

    return check


def dense_cli_jobs(rng):
    jobs = []
    for n, singular, infeasible in ((150, False, False), (120, True, True), (120, True, False)):
        inp = seb_input(rng, n, singular, infeasible)
        jobs.append(cli_job("seb", "seb", {"T": mjson(inp["T"]), "B": mjson(inp["B"])}, _cli_seb_check(inp)))
    t, b = truncation_pair(rng, 200)
    inp = truncation_input(t, b, 200)
    jobs.append(cli_job("seb", "seb", {"T": mjson(inp["T"]), "B": mjson(inp["B"])}, _cli_seb_check(inp)))
    inp = similar_input(rng, 80)
    jobs.append(cli_job(
        "wsimilar", "wsimilar", {"T": mjson(inp["T"])},
        lambda r, i=inp: single(ck.check_wsimilar(i, ck.matrix_of(r["X"]), ck.matrix_of(r["S"]))),
    ))
    Y0 = cplx(rng, 150, 150)
    B, _ = psd(rng, 150, rank=110)
    inp = {"T": Y0 @ B, "B": B}
    jobs.append(cli_job(
        "factor_douglas", "factor", {"op": "douglas", "T": mjson(inp["T"]), "B": mjson(B)},
        lambda r, i=inp: single(ck.check_douglas(i, r["feasible"], ck.matrix_of(r["Y"]), r["c"])),
    ))
    t, _ = truncation_pair(rng, 200)
    inp = {"values": enumerate_symbol(t, 200)}
    jobs.append(cli_job(
        "diag_truncate", "diag", {"op": "truncate", "t": sjson(t), "N": 200},
        lambda r, i=inp: single(ck.check_truncate(i, ck.matrix_of(r["result"]))),
    ))
    return jobs


# ---------------------------------------------------------------------------
# relations: CLI jobs on relations with n ~ 10..60
# ---------------------------------------------------------------------------


def relations_jobs(rng):
    jobs = []
    for n in (12, 40):
        B = psd(rng, n)[0] + 0.2 * np.eye(n)
        M = psd(rng, n)[0] + 0.2 * np.eye(n)
        T = np.linalg.solve(B.conj().T, M)
        inp = {"eta_ref": ck.pencil_min(T, B)}
        jobs.append(cli_job(
            "reverse", "reverse", {"T": mjson(T), "B": mjson(B)},
            lambda r, i=inp: single(ck.check_reverse(i, r["feasible"], ck.number(r["eta_star"]), ck.graph_of(r["Y"]))),
        ))

    # reversed inequality on diagonal relations with an INF head entry in t
    t = DiagSymbol(head=(INF,) + symbol(rng, 2, 0).head, tail_coeff=float(rng.uniform(0.5, 2.0)), tail_power=1)
    b = symbol(rng, 3, Fraction(1, 2))
    N = 30
    vt, vb = enumerate_symbol(t, N), enumerate_symbol(b, N)
    inp = {"eta_ref": min(abs(x / y) for x, y in zip(vt, vb) if x is not INF)}
    job = {"T": rjson(diag_graph(vt), N, N), "B": rjson(diag_graph(vb), N, N)}
    jobs.append(cli_job(
        "reverse_relation", "reverse", job,
        lambda r, i=inp: single(ck.check_reverse(i, r["feasible"], ck.number(r["eta_star"]), ck.graph_of(r["Y"]))),
    ))

    # Sebestyen in relation form: INF at the same head index of t and b
    N = 40
    t = DiagSymbol(head=(INF,) + symbol(rng, 2, 0).head, tail_coeff=float(rng.uniform(0.5, 2.0)), tail_power=Fraction(1, 2))
    b = DiagSymbol(head=(INF,) + symbol(rng, 2, 0).head, tail_coeff=float(rng.uniform(0.5, 2.0)), tail_power=1)
    vt, vb = enumerate_symbol(t, N), enumerate_symbol(b, N)
    lam = max(abs(x / y) for x, y in zip(vt, vb) if x is not INF)

    def seb_rel_check(r, lam=lam):
        problems = []
        if not r["feasible"]:
            return single(["relation Sebestyen problem reported infeasible"])
        got = ck.number(r["lambda_star"])
        if not ck.rel_close(got, lam):
            problems.append(f"lambda* = {got!r}, symbol gives {lam!r}")
        X = ck.matrix_of(r["X"])
        if np.linalg.eigvalsh(0.5 * (X + X.conj().T))[0] < -1e-8 * (1.0 + ck.op2(X)):
            problems.append("X is not PSD")
        if not ck.rel_close(ck.op2(X), lam):
            problems.append("||X|| differs from lambda*")
        return single(problems)

    jobs.append(cli_job("seb_relation", "seb", {"T": rjson(diag_graph(vt), N, N), "B": rjson(diag_graph(vb), N, N)}, seb_rel_check))

    for n in (30, 60):
        Tb = relation_basis(rng, n, n, n - 6, 3, 3)
        Sb = relation_basis(rng, n, n, n - 4, 2, 4)
        inp = {"Tb": Tb, "Sb": Sb, "nT": n, "nS": n}
        jobs.append(cli_job(
            "rel_compose", "rel", {"op": "compose", "S": rjson(Sb, n, n), "T": rjson(Tb, n, n)},
            lambda r, i=inp: single(ck.check_compose(i, ck.graph_of(r["result"]))),
        ))

    n = 40
    Bb = relation_basis(rng, n, n, n - 5, 3, 2)
    D = cplx(rng, n, 25)
    inp = {"Bb": Bb, "n": n, "D": D}
    jobs.append(cli_job(
        "rel_restrict", "rel", {"op": "restrict", "B": rjson(Bb, n, n), "D": mjson(D)},
        lambda r, i=inp: single(ck.check_restrict(i, ck.graph_of(r["result"]))),
    ))

    n = 60
    Tb = relation_basis(rng, n, n, n - 8, 5, 3)
    inp = {"Tb": Tb, "n": n}
    jobs.append(cli_job("rel_parts", "rel", {"op": "parts", "T": rjson(Tb, n, n)}, lambda r, i=inp: single(ck.check_parts(i, r))))

    # nonnegative selfadjoint diagonal relations with INF heads
    N = 40
    lo = DiagSymbol(head=symbol(rng, 2, 0).head, tail_coeff=1.0, tail_power=Fraction(1, 2))
    hi = DiagSymbol(head=(INF, lo.head[1] + 1.0), tail_coeff=2.0, tail_power=1)
    v_lo, v_hi = enumerate_symbol(lo, N), enumerate_symbol(hi, N)
    g_lo, g_hi = diag_graph(v_lo), diag_graph(v_hi)
    yes = {"symmetric": True, "nonnegative": True, "selfadjoint": True}
    no = {"symmetric": False, "nonnegative": False, "selfadjoint": False}
    jobs.append(cli_job("rel_classify", "rel", {"op": "classify", "T": rjson(g_hi, N, N)},
                        lambda r: single(ck.check_flags({"flags": yes}, r))))
    Rb = relation_basis(rng, n, n, n - 4, 2, 2)
    jobs.append(cli_job("rel_classify", "rel", {"op": "classify", "T": rjson(Rb, n, n)},
                        lambda r: single(ck.check_flags({"flags": no}, r))))
    for a, b_, want in ((g_lo, g_hi, True), (g_hi, g_lo, False)):
        jobs.append(cli_job(
            "rel_order_leq", "rel", {"op": "order_leq", "Tlo": rjson(a, N, N), "Thi": rjson(b_, N, N)},
            lambda r, w=want: single([] if r["leq"] == w else [f"order verdict {r['leq']}, construction says {w}"]),
        ))

    n = 40
    M = cplx(rng, n, 30) @ cplx(rng, 30, n)
    want = ck.graph_of_matrix(np.linalg.pinv(M, rcond=1e-10))
    jobs.append(cli_job("rel_moore_penrose", "rel", {"op": "moore_penrose", "T": mjson(M)},
                        lambda r, w=want: single(ck.check_graph_equals(ck.graph_of(r["result"]), w))))
    root = [v if v is INF else np.sqrt(v) for v in v_hi]
    want = diag_graph(root)
    jobs.append(cli_job("rel_sqrt", "rel", {"op": "sqrt", "T": rjson(g_hi, N, N)},
                        lambda r, w=want: single(ck.check_graph_equals(ck.graph_of(r["result"]), w))))
    n = 30
    P, _ = psd(rng, n, rank=20)
    w, V = np.linalg.eigh(P)
    w[w < 1e-10 * w[-1]] = 0.0  # the 10 constructed zero eigenvalues, not rounding dust
    want = ck.graph_of_matrix((V * np.sqrt(w)) @ V.conj().T)
    jobs.append(cli_job("rel_sqrt", "rel", {"op": "sqrt", "T": mjson(P)},
                        lambda r, w=want: single(ck.check_graph_equals(ck.graph_of(r["result"]), w))))
    return jobs


# ---------------------------------------------------------------------------
# campaigns: one proptest CLI job per suite, 100 trials each
# ---------------------------------------------------------------------------


def master_seed(seed, suite):
    digest = hashlib.blake2b(f"perfbench:{seed}:{suite}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def campaign_job(suite, master, trials):
    inp = {"suite": suite, "master": master, "trials": trials}
    text = json.dumps({"suite": suite})
    argv = ["proptest", "--in", "-", "--seed", str(master), "--trials", str(trials)]

    def checked(output):
        code, report = output
        if code != 0:
            return [f"exit code {code}"], trials, trials
        return ck.check_campaign(inp, json.loads(report)["results"])

    return Job(f"proptest.{suite}", lambda: run_cli(argv, text), checked, ops=trials)


def campaigns_jobs(seed):
    from psdfactor.proptests import SUITES

    jobs = [campaign_job(s, master_seed(seed, s), TRIALS) for s in SUITES if s != "diag_truncation"]
    jobs += [campaign_job("diag_truncation", s, FAULT_TRIALS) for s in FAULT_SEEDS]
    return jobs


def build(workload, seed):
    """The job pool of one workload, drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "dense":
        return dense_jobs(rng)
    if workload == "dense_cli":
        return dense_cli_jobs(rng)
    if workload == "relations":
        return relations_jobs(rng)
    return campaigns_jobs(seed)


WORKLOADS = ("dense", "dense_cli", "relations", "campaigns")
