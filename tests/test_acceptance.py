"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here exactly as stated; generators are
seeded and deterministic.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from psdfactor import cli, factor, serialize
from psdfactor import numkernel as nk
from psdfactor.diagmodel import (
    INF,
    DiagRel,
    DiagSymbol,
    diag_reverse_solve,
    diag_seb_solve,
    diag_truncate,
)
from psdfactor.errors import NotScalarNonneg
from psdfactor.linrel import (
    operator_part_relation,
    rel_adjoint,
    rel_compose,
    rel_distance,
    rel_from_graph,
    rel_from_matrix,
    rel_inverse,
    rel_order_leq,
    rel_parts,
    rel_restrict,
    rel_scale,
)
from psdfactor.numkernel import frob, herm, opnorm

from oracles import (
    conditioned_invertible,
    hausdorff,
    lambda_sweep_feasible,
    projector,
    random_psd,
    random_unitary,
)


def _report(k, ok, msg):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {k} failed: {msg}"


# ------------------------------------------------------------ criterion 1


def test_acceptance_1_sebestyen_round_trip():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    failures = 0
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        X = random_psd(rng, n, singular=(trial % 5 == 0))
        B = random_psd(rng, n, singular=(trial % 3 == 0))
        T = X @ B
        cert = factor.seb_solve(T, B)
        ok = (
            cert.feasible
            and cert.residual_xb_t <= 1e-8 * (1 + frob(T))
            and cert.norm_X <= cert.lambda_star + 1e-8
            and nk.matrix_rank(cert.X) == nk.matrix_rank(T.conj().T)
        )
        kt = nk.kernel_basis(T.conj().T)
        if ok and kt.dim:
            ok = opnorm(cert.X @ kt.basis) <= 1e-8 * (1 + cert.norm_X)
        failures += not ok
    elapsed = time.monotonic() - t0
    _report(
        1,
        failures == 0 and elapsed <= 30.0,
        f"1000 planted instances, {failures} failures, {elapsed:.1f}s (limit 30s)",
    )


# ------------------------------------------------------------ criterion 2


def test_acceptance_2_feasibility_soundness():
    disagreements = 0
    total = 0
    for dim in range(2, 9):
        rng = np.random.default_rng(200 + dim)
        for trial in range(200):
            B = random_psd(rng, dim, singular=True)
            if trial % 2 == 0:
                T = random_psd(rng, dim) @ B
            else:
                P = np.eye(dim) - B @ np.linalg.pinv(B)
                D = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                T = random_psd(rng, dim) @ B + P @ D
            cert = factor.seb_solve(T, B)
            disagreements += cert.feasible != lambda_sweep_feasible(T, B)
            total += 1
    _report(2, disagreements == 0, f"{total} verdicts vs lambda-sweep oracle, {disagreements} disagreements")


# ------------------------------------------------------------ criterion 3


def _planted_relation_pair(rng, n, mul_dim, feasible):
    """T with mul part W, B = B_u on U (+) ({0} x W) with W <= ker (T_s)*."""
    Q = random_unitary(rng, n)
    U, W = Q[:, : n - mul_dim], Q[:, n - mul_dim :]
    k = n - mul_dim
    X_u = random_psd(rng, k)
    B_u = random_psd(rng, k, singular=not feasible)
    if feasible:
        T_u = X_u @ B_u
    else:
        kerb = nk.kernel_basis(B_u)
        T_u = X_u @ B_u + (np.eye(k) - B_u @ np.linalg.pinv(B_u)) @ random_psd(rng, k)
        if opnorm(T_u @ kerb.basis) < 0.1:
            T_u = T_u + 0.5 * kerb.basis @ kerb.basis.conj().T
    t_graph = np.hstack([np.vstack([U, U @ T_u]), np.vstack([np.zeros((n, mul_dim)), W])])
    b_graph = np.hstack([np.vstack([U, U @ B_u]), np.vstack([np.zeros((n, mul_dim)), W])])
    return rel_from_graph(t_graph, n, n), rel_from_graph(b_graph, n, n)


def test_acceptance_3_relation_solver():
    rng = np.random.default_rng(301)
    failures = 0
    for trial in range(200):
        n = int(rng.integers(3, 7))
        mul_dim = int(rng.integers(1, n - 1))
        feasible = trial % 4 != 0
        T, B = _planted_relation_pair(rng, n, mul_dim, feasible)
        cert = factor.seb_relation_solve(T, B)
        M_rel = rel_compose(rel_adjoint(T), B)
        R_rel = rel_compose(rel_adjoint(T), T)
        if cert.feasible:
            # forward direction: the built X satisfies the inclusion and
            # the restricted product chain
            ok = (
                feasible
                and cert.checks["inclusion_in_Ts"] <= 1e-8
                and cert.checks["restricted_product_chain"] <= 1e-8
                and cert.checks["ker_Ts_adj_in_ker_X"] <= 1e-8
            )
            # backward direction: the certified lambda* witnesses the form inequality
            ok = ok and rel_order_leq(R_rel, rel_scale(M_rel, cert.lambda_star * (1 + 1e-9)))
        else:
            # infeasible: no lambda on a wide grid satisfies the inequality
            ok = not feasible and not any(
                rel_order_leq(R_rel, rel_scale(M_rel, lam)) for lam in np.geomspace(1e-6, 1e6, 25)
            )
        failures += not ok
    _report(3, failures == 0, f"200 relation instances with mul parts, {failures} failures")


# ------------------------------------------------------------ criterion 4


def test_acceptance_4_reverse_forward_duality():
    rng = np.random.default_rng(401)
    failures = 0
    checked_equality = 0
    # 120 matrix instances: reciprocal against the independent matrix engine
    for _ in range(120):
        n = int(rng.integers(2, 7))
        B = random_psd(rng, n) + 0.2 * np.eye(n)
        M = random_psd(rng, n) + 0.2 * np.eye(n)
        T = np.linalg.inv(B.conj().T) @ M
        rev = factor.reverse_solve(rel_from_matrix(T), rel_from_matrix(B))
        TS = np.linalg.inv(T.conj().T)
        AS = np.linalg.inv(B.conj().T)
        lam_inv = factor.seb_solve(TS, AS).lambda_star
        ok = rev.feasible and abs(rev.eta_star * lam_inv - 1.0) <= 1e-8
        ok = ok and rev.residuals["restricted_product_chain"] <= 1e-8
        if "adjoint_factorization" in rev.residuals:
            checked_equality += 1
            ok = ok and rev.residuals["adjoint_factorization"] <= 1e-8
        failures += not ok
    # 80 relation instances built through the inverse-adjoint transform
    for trial in range(80):
        n = int(rng.integers(3, 6))
        S_rel, A_rel = _planted_relation_pair(rng, n, int(rng.integers(1, n - 1)), True)
        T = rel_adjoint(rel_inverse(S_rel))
        B = rel_adjoint(rel_inverse(A_rel))
        rev = factor.reverse_solve(T, B)
        lam_inv = factor.seb_relation_solve(S_rel, A_rel).lambda_star
        ok = rev.feasible
        if ok and lam_inv > 0:
            ok = abs(rev.eta_star * lam_inv - 1.0) <= 1e-8
        ok = ok and rev.residuals["restricted_product_chain"] <= 1e-8
        if "adjoint_factorization" in rev.residuals:
            checked_equality += 1
            ok = ok and rev.residuals["adjoint_factorization"] <= 1e-8
        failures += not ok
    _report(
        4,
        failures == 0 and checked_equality > 0,
        f"200 feasible instances, {failures} failures, equality form checked on {checked_equality}",
    )


# ------------------------------------------------------------ criterion 5


def _scalar_nonneg_instance(rng, n):
    cond = float(np.exp(rng.uniform(0.0, np.log(1e4))))
    G = conditioned_invertible(rng, n, cond)
    vals = np.sort(rng.uniform(0.0, 3.0, size=n))
    while n > 1 and np.min(np.diff(vals)) < 0.05:
        vals = np.sort(rng.uniform(0.0, 3.0, size=n))
    kind = rng.integers(0, 10)
    if kind == 0:
        vals[0] = 0.0
    elif kind == 1 and n > 1:
        vals[1] = vals[0]  # exact repeat
    T = G @ np.diag(vals) @ np.linalg.inv(G)
    return T, cond


def _rejection_instance(rng, n, jordan):
    if jordan:
        lam = float(rng.uniform(0.5, 2.0))
        J = np.diag(rng.uniform(0.5, 3.0, size=n)).astype(complex)
        J[0, 0] = lam
        J[1, 1] = lam
        J[0, 1] = 1.0
        Q = conditioned_invertible(rng, n, 50.0)
        return Q @ J @ np.linalg.inv(Q)
    vals = rng.uniform(0.2, 3.0, size=n)
    vals[0] = -float(rng.uniform(0.2, 1.0))
    G = conditioned_invertible(rng, n, 100.0)
    return G @ np.diag(vals) @ np.linalg.inv(G)


def test_acceptance_5_wsimilarity_suite():
    rng = np.random.default_rng(501)
    failures = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        T, cond = _scalar_nonneg_instance(rng, n)
        try:
            forms = factor.wsimilar_forms(T)
        except NotScalarNonneg:
            failures += 1
            continue
        ctol = 1e-6 * forms.checks["cond_G"] ** 2
        scale = 1 + opnorm(T)
        ok = (
            forms.checks["intertwine"] <= ctol * scale
            and forms.checks["factor_T"] <= ctol * scale
            and forms.checks["factor_Tadj"] <= ctol * scale
            and forms.checks["TW_herm_dev"] <= ctol * scale
            and forms.checks["ZT_herm_dev"] <= ctol * scale
            and forms.checks["TW_psd_margin"] >= -ctol * scale
            and forms.checks["ZT_psd_margin"] >= -ctol * scale
            and forms.plusdot_ok
        )
        failures += not ok
    false_accepts = 0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        T = _rejection_instance(rng, n, jordan=(trial % 2 == 0))
        if factor.psd_similarity_decide(T).accept:
            false_accepts += 1
    _report(
        5,
        failures == 0 and false_accepts == 0,
        f"500 accepts ({failures} failures), 100 rejects ({false_accepts} false accepts)",
    )


# ------------------------------------------------------------ criterion 6


def test_acceptance_6_spectral_identities():
    rng = np.random.default_rng(601)
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 9))
        A = random_psd(rng, n, singular=(trial % 3 == 0))
        B = random_psd(rng, n)
        AB = A @ B
        swap = hausdorff(
            np.append(np.linalg.eigvals(AB), 0.0), np.append(np.linalg.eigvals(B @ A), 0.0)
        )
        S, _ = factor.presimilar_S(A, B)
        pre = hausdorff(np.linalg.eigvals(AB), np.linalg.eigvals(S))
        worst = max(worst, swap, pre)
    _report(6, worst <= 1e-7, f"500 PSD pairs, worst Hausdorff distance {worst:.2e} (limit 1e-7)")


# ------------------------------------------------------------ criterion 7


def _random_relation(rng, n, m):
    g = int(rng.integers(1, n + m))
    vecs = rng.standard_normal((n + m, g)) + 1j * rng.standard_normal((n + m, g))
    return rel_from_graph(vecs, n, m)


def test_acceptance_7_relation_algebra():
    rng = np.random.default_rng(701)
    worst_inv = 0.0
    for _ in range(1000):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        R = _random_relation(rng, n, m)
        worst_inv = max(
            worst_inv,
            rel_distance(rel_adjoint(rel_adjoint(R)), R),
            rel_distance(rel_inverse(rel_inverse(R)), R),
            rel_distance(rel_adjoint(rel_inverse(R)), rel_inverse(rel_adjoint(R))),
        )
    worst_chain = 0.0
    containment_fail = 0
    equality_fail = 0
    for trial in range(300):
        n = int(rng.integers(2, 5))
        T = _random_relation(rng, n, n)
        B = _random_relation(rng, n, n)
        Ts = operator_part_relation(T)
        P_s = np.eye(n) - projector(rel_parts(T).mul)
        base = rel_compose(rel_adjoint(T), T)
        for other in (
            rel_compose(rel_adjoint(Ts), T),
            rel_compose(rel_adjoint(T), rel_compose(rel_from_matrix(P_s), T)),
            rel_compose(rel_adjoint(Ts), Ts),
        ):
            worst_chain = max(worst_chain, rel_distance(base, other))
        M = rel_compose(rel_adjoint(T), B)
        B0 = rel_restrict(B, rel_parts(M).dom)
        worst_chain = max(worst_chain, rel_distance(M, rel_compose(rel_adjoint(T), B0)))
        # universal containment T*S* <= (S T)*
        S = _random_relation(rng, n, n)
        lhs = rel_compose(rel_adjoint(T), rel_adjoint(S))
        rhs = rel_adjoint(rel_compose(S, T))
        if nk.subspace_containment_residual(rhs.graph, lhs.graph) > 1e-9:
            containment_fail += 1
        # equality when dom S is everywhere, or when T is invertible
        S_mat = rel_from_matrix(rng.standard_normal((n, n)))
        d1 = rel_distance(
            rel_compose(rel_adjoint(T), rel_adjoint(S_mat)),
            rel_adjoint(rel_compose(S_mat, T)),
        )
        T_inv = rel_from_matrix(rng.standard_normal((n, n)) + 2 * np.eye(n))
        d2 = rel_distance(
            rel_compose(rel_adjoint(T_inv), rel_adjoint(S)),
            rel_adjoint(rel_compose(S, T_inv)),
        )
        if max(d1, d2) > 1e-9:
            equality_fail += 1
    ok = worst_inv <= 1e-9 and worst_chain <= 1e-9 and containment_fail == 0 and equality_fail == 0
    _report(
        7,
        ok,
        f"involutions worst {worst_inv:.2e}, chains worst {worst_chain:.2e}, "
        f"containment fails {containment_fail}, equality fails {equality_fail}",
    )


# ------------------------------------------------------------ criterion 8


def _enumerated_seb(t, b, N):
    """Exact lambda* of the truncated problem: the diagonal matrices make it
    a per-index maximum (the brute-force side of the symbolic tail rule)."""
    lam = 0.0
    for n in range(1, N + 1):
        tv, bv = t.symbol.value_at(n), b.symbol.value_at(n)
        if tv is INF or bv is INF:
            continue
        tv, bv = complex(tv), complex(bv)
        if bv == 0:
            if tv != 0:
                return None
            continue
        if tv != 0:
            lam = max(lam, abs(tv) / abs(bv))
    return lam


def _enumerated_reverse(t, b, N):
    eta = float("inf")
    for n in range(1, N + 1):
        tv, bv = t.symbol.value_at(n), b.symbol.value_at(n)
        if tv is INF or bv is INF:
            continue
        tv, bv = complex(tv), complex(bv)
        if bv == 0:
            if tv != 0:
                return None
            continue
        if tv != 0:
            eta = min(eta, abs(tv) / abs(bv))
    return eta


def test_acceptance_8_diagonal_truncation_agreement():
    rng = np.random.default_rng(801)
    N = 2000
    failures = 0
    unbounded_b = 0
    unbounded_y = 0
    seb_families = []
    for i in range(25):
        pt = Fraction(int(rng.integers(-2, 2)), int(rng.integers(1, 3)))
        pb = pt + Fraction(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
        if i < 12 and pb <= 0:
            pb = Fraction(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            pt = pb - Fraction(int(rng.integers(0, 3)), int(rng.integers(1, 3)))
        head_t = tuple(float(x) for x in rng.uniform(0.0, 2.0, size=int(rng.integers(0, 4))))
        t = DiagRel(DiagSymbol(head=head_t, tail_coeff=float(rng.uniform(0.2, 2)), tail_power=pt))
        b = DiagRel(DiagSymbol(head=(), tail_coeff=float(rng.uniform(0.2, 2)), tail_power=pb))
        seb_families.append((t, b))
    reverse_families = []
    for i in range(25):
        pb = Fraction(int(rng.integers(-2, 2)), int(rng.integers(1, 3)))
        pt = pb + Fraction(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
        if i < 12 and pt <= pb:
            pt = pb + Fraction(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        head_t = tuple(float(x) for x in rng.uniform(0.5, 2.0, size=int(rng.integers(0, 4))))
        t = DiagRel(DiagSymbol(head=head_t, tail_coeff=float(rng.uniform(0.2, 2)), tail_power=pt))
        b = DiagRel(DiagSymbol(head=(), tail_coeff=float(rng.uniform(0.2, 2)), tail_power=pb))
        reverse_families.append((t, b))

    for t, b in seb_families:
        res = diag_seb_solve(t, b)
        if res.checks.get("B_unbounded"):
            unbounded_b += 1
        enum = _enumerated_seb(t, b, N)
        ok = res.feasible and enum is not None and abs(res.lambda_star - enum) <= 1e-6 * (1 + enum)
        # dense engine agreement at a desk-scale truncation
        cert = factor.seb_solve(diag_truncate(t, 120), diag_truncate(b, 120))
        ok = ok and cert.feasible and abs(cert.lambda_star - _enumerated_seb(t, b, 120)) <= 1e-6 * (
            1 + cert.lambda_star
        )
        failures += not ok
    for t, b in reverse_families:
        res = diag_reverse_solve(t, b)
        if res.feasible and res.checks.get("Y_unbounded"):
            unbounded_y += 1
        enum = _enumerated_reverse(t, b, N)
        ok = res.feasible and enum is not None and abs(res.eta_star - enum) <= 1e-6 * (1 + enum)
        failures += not ok
    # dense reverse agreement on a subset, at a relation-friendly size
    for t, b in reverse_families[:10]:
        rev = factor.reverse_solve(
            rel_from_matrix(diag_truncate(t, 60)), rel_from_matrix(diag_truncate(b, 60))
        )
        enum = _enumerated_reverse(t, b, 60)
        failures += not (rev.feasible and abs(rev.eta_star - enum) <= 1e-6 * (1 + enum))
    # one full-size anchor: the dense engine at N = 2000 equals the enumeration
    t, b = seb_families[0]
    anchor = factor.seb_solve(diag_truncate(t, N), diag_truncate(b, N))
    enum = _enumerated_seb(t, b, N)
    failures += not (anchor.feasible and abs(anchor.lambda_star - enum) <= 1e-6 * (1 + enum))
    ok = failures == 0 and unbounded_b >= 10 and unbounded_y >= 10
    _report(
        8,
        ok,
        f"50 families at N={N} ({failures} failures), unbounded B: {unbounded_b}, unbounded Y: {unbounded_y}",
    )


# ------------------------------------------------------------ criterion 9


def _strip(report_text):
    report = json.loads(report_text)
    report.pop("wall_clock_s", None)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def test_acceptance_9_cli_determinism():
    job = json.dumps({"suite": "seb_roundtrip"})
    outs = []
    for threads in ("1", "1", "4"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "psdfactor.cli",
                "proptest",
                "--in",
                "-",
                "--trials",
                "24",
                "--seed",
                "7",
                "--threads",
                threads,
            ],
            input=job,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(_strip(proc.stdout))
    deterministic = outs[0] == outs[1] == outs[2]
    rng = np.random.default_rng(901)
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    exact_m = np.array_equal(
        M, serialize.matrix_from_json(json.loads(json.dumps(serialize.matrix_to_json(M))))
    )
    sym = DiagRel.from_head([INF, 1.25 + 0.5j], tail_coeff=0.75, tail_power=Fraction(-2, 3))
    back = serialize.symbol_from_json(json.loads(json.dumps(serialize.symbol_to_json(sym))))
    exact_s = back.symbol == sym.symbol
    from psdfactor.proptests import random_relation

    R = random_relation(rng, 3, 2)
    back_r = serialize.relation_from_json(json.loads(json.dumps(serialize.relation_to_json(R))))
    exact_r = (back_r.dom_dim, back_r.codom_dim) == (R.dom_dim, R.codom_dim) and np.array_equal(
        back_r.graph.basis, R.graph.basis
    )
    ok = deterministic and exact_m and exact_s and exact_r
    _report(
        9,
        ok,
        f"byte-identical across runs and threads {{1,4}}: {deterministic}; "
        f"round trips exact (matrix {exact_m}, symbol {exact_s}, relation {exact_r})",
    )
