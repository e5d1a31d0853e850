"""Seeded property-test campaigns behind the CLI ``proptest`` command.

Every campaign is a pure function of a per-trial RNG, and each trial's seed
is a hash of the master seed and the trial index, so campaigns are
reproducible: no trial's draws depend on another trial.  Trials run in
order, in the caller's numpy floating-point error state.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from . import factor
from .diagmodel import DiagRel, DiagSymbol, diag_seb_solve, diag_truncate
from .linrel import (
    rel_adjoint,
    rel_compose,
    rel_distance,
    rel_from_graph,
    rel_from_matrix,
    rel_inverse,
)
from .numkernel import frob, herm, opnorm

__all__ = ["SUITES", "trial_seed", "run_suite", "random_psd", "random_relation"]


def trial_seed(master: int, index: int) -> int:
    digest = hashlib.blake2b(f"{master}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def random_psd(rng, n, singular=False):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(A)
    w = rng.uniform(0.1, 2.0, size=n)
    if singular and n > 1:
        w[: rng.integers(1, n)] = 0.0
    return herm((q * w) @ q.conj().T)


def random_relation(rng, n, m, graph_dim=None):
    total = n + m
    if graph_dim is None:
        graph_dim = int(rng.integers(1, total))
    vecs = rng.standard_normal((total, graph_dim)) + 1j * rng.standard_normal((total, graph_dim))
    return rel_from_graph(vecs, n, m)


def lambda_sweep_feasible(T, B, points=64, tol=1e-8):
    """Independent oracle: does some lambda on a fixed grid make
    lambda T*B - T*T PSD?  The PSD floor is relative to ||T*T|| so large
    lambda values cannot absorb a genuine negative direction.

    The grid is decided by one ``eigvalsh`` of the stack of the Hermitian
    parts of G_k = lambda_k M - T*T, M = herm(T*B), in real arithmetic when
    M and T*T are real: feasible iff some smallest eigenvalue clears the
    floor.  The verdict is that of a loop over the grid with one
    ``eigvalsh`` per point (``tests/oracles.py``), but the stack also takes
    the spectra of the points past the first feasible one, which the loop
    skipped; for the campaigns' draws, spectra in [0.1, 2], they stay finite
    under the CLI's floating-point error state.
    """
    M = herm(T.conj().T @ B)
    TT = herm(T.conj().T @ T)
    norm_TT = opnorm(TT)
    floor = -tol * (1.0 + norm_TT)
    lams = np.geomspace(1e-8, 1e8, points) * (max(norm_TT, 1e-12) / max(opnorm(M), 1e-12))
    G = lams[:, None, None] * M - TT
    w = np.linalg.eigvalsh(0.5 * (G + G.conj().transpose(0, 2, 1)))
    return bool((w[:, 0] >= floor).any())


def _trial_seb_roundtrip(rng, tol):
    n = int(rng.integers(2, 9))
    X = random_psd(rng, n)
    B = random_psd(rng, n, singular=bool(rng.integers(0, 2)))
    T = X @ B
    cert = factor.seb_solve(T, B, tol=tol)
    ok = (
        cert.feasible
        and cert.residual_xb_t <= 1e-8 * (1.0 + frob(T))
        and cert.norm_X <= cert.lambda_star + 1e-8
    )
    return {
        "dim": n,
        "feasible": bool(cert.feasible),
        "residual": cert.residual_xb_t,
        "lambda_star": cert.lambda_star,
        "ok": bool(ok),
    }


def _trial_seb_soundness(rng, tol):
    n = int(rng.integers(2, 9))
    B = random_psd(rng, n, singular=True)
    if rng.integers(0, 2):
        T = random_psd(rng, n) @ B
    else:
        P = np.eye(n) - np.linalg.pinv(B) @ B
        D = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T = random_psd(rng, n) @ B + P @ D.conj().T
    cert = factor.seb_solve(T, B, tol=tol)
    oracle = lambda_sweep_feasible(T, B, tol=tol)
    return {"dim": n, "verdict": bool(cert.feasible), "oracle": bool(oracle), "ok": bool(cert.feasible == oracle)}


def _trial_relation_involution(rng, tol):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    R = random_relation(rng, n, m)
    d1 = rel_distance(rel_adjoint(rel_adjoint(R)), R)
    d2 = rel_distance(rel_inverse(rel_inverse(R)), R)
    d3 = rel_distance(rel_adjoint(rel_inverse(R)), rel_inverse(rel_adjoint(R)))
    worst = max(d1, d2, d3)
    return {"dims": [n, m], "worst_distance": worst, "ok": bool(worst <= 1e-10)}


def _trial_reverse_duality(rng, tol):
    n = int(rng.integers(2, 7))
    B = random_psd(rng, n) + 0.2 * np.eye(n)
    M = random_psd(rng, n) + 0.2 * np.eye(n)
    T = np.linalg.inv(B.conj().T) @ M
    rev = factor.reverse_solve(rel_from_matrix(T), rel_from_matrix(B), tol=tol)
    # the matrix engine on the inverted pair, independent of the relation solve inside reverse_solve
    dual = factor.seb_solve(np.linalg.inv(T.conj().T), np.linalg.inv(B.conj().T), tol=tol)
    recip = abs(rev.eta_star * dual.lambda_star - 1.0) if rev.feasible else float("inf")
    return {
        "dim": n,
        "feasible": bool(rev.feasible),
        "reciprocal_gap": recip,
        "ok": bool(rev.feasible and recip <= 1e-8),
    }


def _trial_wsimilar(rng, tol):
    n = int(rng.integers(2, 7))
    G = _conditioned_invertible(rng, n, 1e3)
    D = np.diag(rng.uniform(0.0, 3.0, size=n)).astype(np.complex128)
    T = G @ D @ np.linalg.inv(G)
    forms = factor.wsimilar_forms(T, tol=tol)
    ctol = forms.checks["tol"]
    worst = max(
        forms.checks["intertwine"],
        forms.checks["factor_T"],
        forms.checks["factor_Tadj"],
        forms.checks["TW_herm_dev"],
        forms.checks["ZT_herm_dev"],
    )
    return {"dim": n, "worst_residual": worst, "ok": bool(worst <= ctol and forms.plusdot_ok)}


def _trial_spectra(rng, tol):
    n = int(rng.integers(2, 9))
    A = random_psd(rng, n, singular=bool(rng.integers(0, 2)))
    B = random_psd(rng, n)
    ok1 = factor.spectra_swap_check(A, B, tol=1e-7)
    _, ok2 = factor.presimilar_S(A, B, tol=1e-7)
    return {"dim": n, "ok": bool(ok1 and ok2)}


def _trial_diag_truncation(rng, tol):
    pt = Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
    pb = pt + Fraction(int(rng.integers(0, 3)), int(rng.integers(1, 4)))
    ct = float(rng.uniform(0.2, 2.0))
    cb = float(rng.uniform(0.2, 2.0))
    head_t = tuple(float(x) for x in rng.uniform(0.0, 3.0, size=int(rng.integers(0, 4))))
    t = DiagRel(DiagSymbol(head=head_t, tail_coeff=ct, tail_power=pt))
    b = DiagRel(DiagSymbol(head=(), tail_coeff=cb, tail_power=pb))
    res = diag_seb_solve(t, b)
    N = 60
    Tm = diag_truncate(t, N)
    Bm = diag_truncate(b, N)
    cert = factor.seb_solve(Tm, Bm, tol=tol)
    gap = abs(res.lambda_star - cert.lambda_star) / max(res.lambda_star, 1e-12)
    return {"symbolic": res.lambda_star, "truncated": cert.lambda_star, "ok": bool(gap <= 1e-6)}


def _conditioned_invertible(rng, n, cond_cap):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    smax = 1.0
    smin = smax / float(rng.uniform(1.0, cond_cap))
    s = np.exp(rng.uniform(np.log(smin), np.log(smax), size=n))
    s[0], s[-1] = smax, smin
    return (q1 * s) @ q2.conj().T


SUITES = {
    "seb_roundtrip": _trial_seb_roundtrip,
    "seb_soundness": _trial_seb_soundness,
    "relation_involution": _trial_relation_involution,
    "reverse_duality": _trial_reverse_duality,
    "wsimilar": _trial_wsimilar,
    "spectra_identities": _trial_spectra,
    "diag_truncation": _trial_diag_truncation,
}


def run_suite(name: str, trials: int, seed: int, tol: float = 1e-8):
    """Run one campaign; the report is a deterministic reduction over trials."""
    if name not in SUITES:
        raise KeyError(f"unknown proptest suite {name!r}; have {sorted(SUITES)}")
    fn = SUITES[name]
    results = []
    for i in range(trials):
        ts = trial_seed(seed, i)
        out = fn(np.random.default_rng(ts), tol)
        out.update(trial=i, trial_seed=ts)
        results.append(out)
    passed = sum(1 for r in results if r.get("ok", False))
    return {
        "suite": name,
        "trials": trials,
        "passed": passed,
        "failed": trials - passed,
        "all_ok": passed == trials,
        "tol": tol,
        "per_trial": results,
    }
