"""Theorem engines: trivial values, planted instances, and oracle checks."""


import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from psdfactor import factor
from psdfactor import numkernel as nk
from psdfactor.diagmodel import INF, DiagRel, DiagSymbol, diag_truncate
from psdfactor.errors import HypothesisFailed, NotPSD, NotScalarNonneg
from psdfactor.linrel import (
    operator_part_relation,
    rel_adjoint,
    rel_classify,
    rel_compose,
    rel_distance,
    rel_equal,
    rel_from_graph,
    rel_from_matrix,
    rel_identity,
    rel_inverse,
    rel_order_leq,
    rel_parts,
    rel_restrict,
    rel_sqrt,
    rel_zero,
)
from psdfactor.numkernel import frob, herm, opnorm

from oracles import (
    conditioned_invertible,
    hausdorff,
    index_one_diagonalizable,
    lambda_sweep_feasible,
    random_psd,
    random_unitary,
    reverse_solve_reference,
    scaled_relation,
    seb_relation_solve_reference,
    seb_solve_reference,
    sylvester_dimension,
)


# ---------------------------------------------------------------------- douglas


def test_douglas_t_equals_b():
    rng = np.random.default_rng(0)
    B = random_psd(rng, 3, singular=True)
    sol = factor.douglas_solve(B, B)
    proj = B @ np.linalg.pinv(B)
    assert sol.feasible
    assert frob(sol.Y - proj) <= 1e-10
    assert abs(sol.c - 1.0) <= 1e-10


def test_douglas_kernel_obstruction():
    sol = factor.douglas_solve(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    assert not sol.feasible


def test_douglas_planted():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        X = random_psd(rng, n)
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T = X @ B
        sol = factor.douglas_solve(T, B)
        assert sol.feasible
        assert sol.c <= opnorm(X) + 1e-8
        assert frob(sol.Y @ B - T) <= 1e-8 * (1 + frob(T))
        # ran Y <= ran T and ker B* <= ker Y
        assert nk.subspace_contains(nk.svd_split(T).ran, nk.svd_split(sol.Y).ran, tol=1e-8)
        kb = nk.kernel_basis(B.conj().T)
        if kb.dim:
            assert opnorm(sol.Y @ kb.basis) <= 1e-9


# ------------------------------------------------------------------------- seb


def test_seb_trivial_scalar():
    cert = factor.seb_solve(np.eye(2), 2 * np.eye(2))
    assert cert.feasible
    assert abs(cert.lambda_star - 0.5) <= 1e-12
    assert frob(cert.X - 0.5 * np.eye(2)) <= 1e-12


def test_seb_zero_operator():
    cert = factor.seb_solve(np.zeros((3, 3)), random_psd(np.random.default_rng(2), 3))
    assert cert.feasible
    assert cert.lambda_star == 0.0
    assert frob(cert.X) == 0.0


def test_seb_hypothesis_gate():
    with pytest.raises(HypothesisFailed):
        factor.seb_solve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(HypothesisFailed):
        factor.seb_solve(-np.eye(2), np.eye(2))


def _planted_pairs(real=False):
    """T = X B with X, B PSD, a quarter of the X and a third of the B singular."""
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        X = random_psd(rng, n, singular=(trial % 4 == 0), real=real)
        B = random_psd(rng, n, singular=(trial % 3 == 0), real=real)
        yield X @ B, B


def _soundness_pairs():
    """Singular B; every other T gets a component off ran B (infeasible)."""
    rng = np.random.default_rng(4)
    for trial in range(120):
        n = int(rng.integers(2, 9))
        B = random_psd(rng, n, singular=True)
        if trial % 2 == 0:
            T = random_psd(rng, n) @ B
        else:
            P = np.eye(n) - B @ np.linalg.pinv(B)
            D = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            T = random_psd(rng, n) @ B + P @ D
        yield T, B


def _truncation_pairs(N=120):
    """Diagonal truncations of head-plus-power-tail symbols, b a power above t."""
    rng = np.random.default_rng(801)
    for _ in range(12):
        pb = Fraction(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        pt = pb - Fraction(int(rng.integers(0, 3)), int(rng.integers(1, 3)))
        head_t = tuple(float(x) for x in rng.uniform(0.0, 2.0, size=int(rng.integers(0, 4))))
        t = DiagRel(DiagSymbol(head=head_t, tail_coeff=float(rng.uniform(0.2, 2)), tail_power=pt))
        b = DiagRel(DiagSymbol(head=(), tail_coeff=float(rng.uniform(0.2, 2)), tail_power=pb))
        yield diag_truncate(t, N), diag_truncate(b, N)


def test_seb_planted_round_trip():
    for T, B in _planted_pairs():
        cert = factor.seb_solve(T, B)
        assert cert.feasible
        assert cert.residual_xb_t <= 1e-8 * (1 + frob(T))
        assert cert.norm_X <= cert.lambda_star + 1e-8
        # ker X = ker T* by rank
        assert nk.matrix_rank(cert.X) == nk.matrix_rank(T.conj().T)
        kt = nk.kernel_basis(T.conj().T)
        if kt.dim:
            assert opnorm(cert.X @ kt.basis) <= 1e-8 * (1 + cert.norm_X)
        # the lambda-sweep of lam*T*B - T*T confirms feasibility at lambda*
        M = herm(T.conj().T @ B)
        gap = herm(cert.lambda_star * M - T.conj().T @ T)
        w = np.linalg.eigvalsh(gap)
        assert w[0] >= -1e-8 * (1 + abs(w[-1]))
        # by-product of the construction: T*B <= ||X|| B*B
        flag, _ = nk.loewner_leq(M, cert.norm_X * (B.conj().T @ B), tol=1e-8)
        assert flag


def test_seb_soundness_against_sweep_oracle():
    for T, B in _soundness_pairs():
        cert = factor.seb_solve(T, B)
        assert cert.feasible == lambda_sweep_feasible(T, B)


def test_seb_matches_reference_solver():
    # The one-eigh engine against the earlier SVD-and-PSD-power solver.
    pairs = [*_planted_pairs(), *_soundness_pairs(), *_truncation_pairs()]
    verdicts = Counter()
    for T, B in pairs:
        cert, ref = factor.seb_solve(T, B), seb_solve_reference(T, B)
        verdicts[cert.feasible] += 1
        assert cert.feasible == ref.feasible
        if not ref.feasible:
            continue
        assert abs(cert.lambda_star - ref.lambda_star) <= 1e-12 * ref.lambda_star
        assert frob(cert.X - ref.X) <= 1e-10 * frob(ref.X)
        assert cert.checks.keys() == ref.checks.keys()
        if "norm_bound_deficit" in ref.checks:
            # the engine's Cholesky and the oracle's eigvalsh both find X <= lambda* (1 + tau) I
            assert cert.checks["norm_bound_deficit"] == ref.checks["norm_bound_deficit"] == 0.0
    assert verdicts[True] >= 150 and verdicts[False] >= 50


def test_seb_norm_bound_keeps_the_contraction_and_b_majorization():
    # the claims the norm bound implies, recomputed: ||G0|| <= 1 by SVD and T*B <= lambda* B*B
    feasible = 0
    for T, B in [*_planted_pairs(), *_soundness_pairs(), *_truncation_pairs()]:
        cert = factor.seb_solve(T, B)
        if not cert.feasible or cert.lambda_star == 0.0:
            continue
        feasible += 1
        assert np.linalg.svd(cert.G0, compute_uv=False)[0] <= 1.0 + 1e-8
        M = herm(T.conj().T @ B)
        assert nk.loewner_leq(M, cert.lambda_star * (B.conj().T @ B))[0]
    assert feasible >= 150


def test_seb_norm_bound_catches_an_underreported_lambda(monkeypatch):
    # lambda* read 10% low by its eigvalsh: X <= lambda* (1 + tau) I fails by 0.1 lambda*
    T, B = next(_planted_pairs())
    honest = factor.seb_solve(T, B)
    assert honest.checks["norm_bound_deficit"] == 0.0
    eigvalsh, seen = np.linalg.eigvalsh, []

    def low_first(a, *args, **kwargs):
        seen.append(a)
        w = eigvalsh(a, *args, **kwargs)
        return 0.9 * w if len(seen) == 1 else w

    monkeypatch.setattr(np.linalg, "eigvalsh", low_first)
    cert = factor.seb_solve(T, B)
    assert len(seen) == 2  # lambda_max(X), then the deficit after the Cholesky failed
    assert cert.lambda_star == pytest.approx(0.9 * honest.lambda_star, rel=1e-12)
    assert cert.checks["norm_bound_deficit"] == pytest.approx(0.1 * honest.lambda_star, rel=1e-6)


def _phase_twin(rng, *Ms):
    """The Ms conjugated by one U = diag(e^(i theta_k)): the same problem in complex arithmetic."""
    U = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, Ms[0].shape[0])))
    twins = [U @ M @ U.conj().T for M in Ms]
    assert all(nk.as_matrix(M).dtype == np.float64 for M in Ms)
    assert any(nk.as_matrix(M).dtype == np.complex128 for M in twins)
    return U, twins


def test_seb_real_and_complex_paths_agree():
    # a real pair decomposes in real arithmetic; its phase twin in complex
    rng = np.random.default_rng(34)
    verdicts = Counter()
    for T, B in [*_planted_pairs(real=True), *_truncation_pairs()]:
        U, (Tu, Bu) = _phase_twin(rng, T, B)
        cert, twin = factor.seb_solve(T, B), factor.seb_solve(Tu, Bu)
        verdicts[cert.feasible] += 1
        assert twin.feasible == cert.feasible
        if not cert.feasible:
            continue
        assert abs(twin.lambda_star - cert.lambda_star) <= 1e-12 * cert.lambda_star
        assert frob(U.conj().T @ twin.X @ U - cert.X) <= 1e-10 * frob(cert.X)
    assert verdicts[True] == 112, verdicts


def test_reverse_and_quasiaffine_real_and_complex_paths_agree():
    rng = np.random.default_rng(35)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        B = random_psd(rng, n, real=True) + 0.2 * np.eye(n)
        M = random_psd(rng, n, singular=bool(rng.integers(0, 2)), real=True)
        T = np.linalg.inv(B.T) @ M  # B*T = M is PSD
        U, (Tu, Bu) = _phase_twin(rng, T, B)
        rev = factor.reverse_solve(rel_from_matrix(T), rel_from_matrix(B))
        twin = factor.reverse_solve(rel_from_matrix(Tu), rel_from_matrix(Bu))
        assert rev.feasible and twin.feasible
        assert abs(twin.eta_star - rev.eta_star) <= 1e-12 * rev.eta_star
        # the graph of U* Y U is (U* (+) U*) graph Y
        UU = np.kron(np.eye(2), U.conj().T)
        back = rel_from_graph(UU @ twin.Y.graph.basis, n, n)
        assert rel_distance(back, rev.Y) <= 1e-10

        G = conditioned_invertible(rng, n, 10.0).real + 2.0 * np.eye(n)
        S = np.diag(np.sort(rng.choice([0.5, 1.25, 2.0], n)))
        TS = np.linalg.inv(G) @ S @ G
        U, (TSu, Su) = _phase_twin(rng, TS, S)
        qa, qa_twin = factor.quasiaffine_decide(TS, S), factor.quasiaffine_decide(TSu, Su)
        assert (qa_twin.affine, qa_twin.space_dim) == (qa.affine, qa.space_dim)
        assert frob(qa_twin.G @ TSu - Su @ qa_twin.G) <= 1e-10 * (1 + opnorm(TS)) * opnorm(qa_twin.G)


class _LinalgCalls(Counter):
    """Decomposition counts by name; ``max_dim`` is the largest side of a decomposed matrix
    and ``dtypes`` counts the calls by (name, operand dtype)."""

    max_dim = 0

    def __init__(self):
        super().__init__()
        self.dtypes = Counter()

    def record(self, name, a):
        self[name] += 1
        self.dtypes[name, np.asarray(a).dtype.name] += 1
        self.max_dim = max([self.max_dim, *np.shape(a)])

    def clear(self):
        super().clear()
        self.dtypes.clear()


def _count_linalg(monkeypatch):
    """Count numpy.linalg decompositions by name for the rest of the test.

    A values-only SVD counts as ``svdvals``, whether ``svd`` runs it with
    ``compute_uv=False`` or ``norm`` does for the spectral norm; ``norm``
    counts only then.  numpy's own internal calls (``cond`` -> ``svd``) are
    not seen twice.
    """
    calls = _LinalgCalls()
    names = ("svd", "eig", "eigh", "eigvals", "eigvalsh", "cholesky", "inv", "pinv", "solve", "cond", "qr", "lstsq", "det")
    for name in names:
        fn = getattr(np.linalg, name)

        def counted(a, *args, _fn=fn, _name=name, **kwargs):
            values_only = _name == "svd" and not kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            calls.record("svdvals" if values_only else _name, a)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2, "nuc"):
            calls.record("svdvals", x)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return calls


def test_real_problems_decompose_in_real_arithmetic(monkeypatch):
    # as_matrix keeps real data float64 and no producer upcasts it again, so a
    # real truncation reaches LAPACK only as float64; mixed operands promote
    t = DiagRel(DiagSymbol(head=(0.5, 2.0), tail_coeff=1.1, tail_power=2))
    b = DiagRel(DiagSymbol(head=(), tail_coeff=1.3, tail_power=3))
    T, B = diag_truncate(t, 40), diag_truncate(b, 40)
    assert T.dtype == B.dtype == np.float64
    assert diag_truncate(DiagRel.from_tail(1j, 1), 3).dtype == np.complex128
    assert rel_from_matrix(T).graph.basis.dtype == np.float64
    # forced and marker relations are real when every finite value is
    assert diag_truncate(DiagRel.from_tail(1, 1), 3, True).graph.basis.dtype == np.float64
    assert diag_truncate(DiagRel.from_head([INF, 0.5, 2.0]), 3).graph.basis.dtype == np.float64
    assert diag_truncate(DiagRel.from_head([INF, 0.5j]), 3).graph.basis.dtype == np.complex128
    calls = _count_linalg(monkeypatch)
    cert = factor.seb_solve(T, B)
    assert cert.feasible and cert.X.dtype == cert.G0.dtype == np.float64
    assert calls["eigh"] == 1
    zero = factor.seb_solve(np.zeros((3, 3)), np.eye(3))
    assert zero.lambda_star == 0.0 and zero.X.dtype == zero.G0.dtype == np.float64
    assert factor.reverse_solve(rel_from_matrix(T[:6, :6]), rel_from_matrix(B[:6, :6])).feasible
    G = np.eye(6) + np.triu(np.full((6, 6), 0.3), 1)
    assert factor.quasiaffine_decide(G @ B[:6, :6] @ np.linalg.inv(G), B[:6, :6]).affine
    assert {dtype for _, dtype in calls.dtypes} == {"float64"}, calls.dtypes
    calls.clear()
    U = np.diag(np.exp(1j * np.linspace(0.0, 3.0, 40)))
    assert factor.seb_solve(T, U @ B @ U.conj().T).feasible
    assert calls.dtypes["eigh", "complex128"] == 1, calls.dtypes


def test_dense_engine_decomposition_counts(monkeypatch):
    # Counts are machine-independent; lower a pin when an engine gets cheaper.
    rng = np.random.default_rng(30)
    n = 12
    B = random_psd(rng, n, singular=True)
    T = random_psd(rng, n) @ B
    G = conditioned_invertible(rng, n, 10.0)
    S = np.diag(np.linspace(0.5, 3.0, n)).astype(complex)
    TS = np.linalg.inv(G) @ S @ G
    calls = _count_linalg(monkeypatch)

    cert = factor.seb_solve(T, B)
    assert cert.feasible and cert.residual_xb_t <= 1e-8 * (1 + frob(T))
    # eigh(T*B), ||T K||, lambda_max(X) and one Cholesky of lambda* (1 + tau) I - X
    # (5 with an SVD for ||G0|| and the eigvalsh of a Loewner margin); the leak
    # ||T K|| is below tol (1 + max column norm of T), so ||T|| takes no SVD
    assert calls == {"eigh": 1, "eigvalsh": 1, "cholesky": 1, "svdvals": 1}, calls  # no svd

    calls.clear()
    assert factor.douglas_solve(T, B).feasible
    # svd(B) for ker B and B+, ||T K_B|| and c = ||Y||; the leak settles below
    # tol (1 + max column norm of T), so ||T|| takes no SVD (svdvals 3 before)
    assert calls == {"svd": 1, "svdvals": 2}, calls

    calls.clear()
    assert factor.bounded_S_checks(TS, G, S).all_passed
    # the PSD gate of S, whose eigh gives ||S||; one svd(G) for rank, ||G||, cond(G),
    # G^-1 and X^(+-1/2); ||T||; the signed reversed-inequality margin and 3 PSD
    # residuals, which one Cholesky each settles (9 with inv(G) and an eigh of
    # X = G*G, then 7 with 2 eigvalsh and 2 Cholesky)
    assert sum(calls.values()) <= 7, calls
    assert calls["svd"] == 1 and calls["eigh"] == 1 and calls["inv"] == 0, calls
    assert calls["eigvalsh"] == 1 and calls["cholesky"] == 3, calls

    calls.clear()
    factor.wsimilar_forms(TS)
    # ||T|| and cond(G0) come from spectrum, two values-only SVDs (one svdvals and
    # one cond before); one svd(G0) for every power of X; T has rank n on the
    # singular values spectrum kept, so no svd(T) for ran T and ker T; 3 PSD
    # residuals, one Cholesky each (9 with inv(G0) and an eigh of X, then 8 with
    # svd(T) and 3 eigvalsh)
    assert calls == {"eig": 1, "svdvals": 2, "svd": 1, "cholesky": 3}, calls

    calls.clear()
    calls.max_dim = 0
    qa = factor.quasiaffine_decide(TS, S)
    assert qa.affine and qa.space_dim == n
    # the eigenspace construction decomposes nothing larger than n x n (n^2 x n^2 before)
    assert calls.max_dim == n, calls.max_dim
    # the PSD gate of S, whose eigenvectors are the R_mu; ||T||; ker((T - mu)*) for
    # 12 clusters (29 calls with spectrum(S), ker(S - mu) and the rank of the R_mu);
    # ||T|| is the one values-only SVD, as no spectrum takes cond(V)
    assert sum(calls.values()) <= 14 and calls["eigh"] == 1, calls
    assert calls["eig"] == 0 and calls["svdvals"] == 1, calls
    calls.clear()
    qs = factor.quasisimilar_decide(TS, S)
    assert qs.similar_pair
    # one PSD gate of S and one ||T|| = ||T*|| for both sides and the duality tol,
    # 2 x 12 kernels, ||G2|| for the duality check (116 with spectrum(S), then 85
    # while it built both packages, then 29 with ||T|| taken three times)
    assert sum(calls.values()) <= 27 and calls["eigh"] == 1 and calls["eig"] == 0, calls
    assert calls["svdvals"] == 2, calls
    # nothing larger than n x n (2n x n graph bases while tba_package ran reverse_solve)
    assert calls.max_dim == n, calls.max_dim


def _leak_case(rng, monkeypatch):
    """T, B = Q diag(t) Q*, Q diag(b) Q* with ker B = span Q[:, :2], into which
    T leaks max(t[:2]); tolerances on both sides of each bound of ||T||, max
    column norm <= ||T|| <= ||T||_F; and a list that records, per ``numkernel.opnorm``
    call, whether it took ||T||.
    """
    n = 6
    Q = random_unitary(rng, n)
    t, b = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    b[:2] = 0.0
    T, B = (Q * t) @ Q.conj().T, (Q * b) @ Q.conj().T
    leak, norm_T = opnorm(T @ Q[:, :2]), opnorm(T)
    col, fro = np.linalg.norm(T, axis=0).max(), frob(T)
    assert col < norm_T < fro
    of_T = []
    monkeypatch.setattr(nk, "opnorm", lambda a: of_T.append(np.array_equal(a, T)) or opnorm(a))
    edges = leak / (1.0 + np.array([0.5 * col, col, 0.5 * (col + norm_T), norm_T, 0.5 * (norm_T + fro), fro, 2 * fro]))
    tols = np.concatenate([edges * (1 - 1e-9), edges * (1 + 1e-9)])
    return T, B, leak, norm_T, tols, of_T


def test_seb_leak_test_keeps_the_svd_verdict(monkeypatch):
    # ||T|| is read off its bounds before any SVD; tolerances on both sides of
    # each bound give the verdict of the SVD rule (ker T*B = ker B here)
    T, B, leak, norm_T, tols, of_T = _leak_case(np.random.default_rng(33), monkeypatch)
    svd_of_T = set()
    for tol in tols:
        of_T.clear()
        cert = factor.seb_solve(T, B, tol=tol)
        assert cert.feasible == (leak <= tol * (1.0 + norm_T)), tol
        if not cert.feasible:
            assert cert.checks["kernel_obstruction"] == pytest.approx(leak, rel=1e-12)
        svd_of_T.add(any(of_T))
    assert svd_of_T == {True, False}


def test_douglas_leak_test_keeps_the_svd_verdict(monkeypatch):
    # douglas_solve decides its leak by the same rule as seb_solve
    T, B, leak, norm_T, tols, of_T = _leak_case(np.random.default_rng(34), monkeypatch)
    svd_of_T = set()
    for tol in tols:
        of_T.clear()
        sol = factor.douglas_solve(T, B, tol=tol)
        assert sol.feasible == (leak <= tol * (1.0 + norm_T)), tol
        assert (sol.c == math.inf) != sol.feasible
        svd_of_T.add(any(of_T))
    assert svd_of_T == {True, False}


def test_relation_decomposition_counts(monkeypatch):
    # Counts are machine-independent; the earlier forms took 5, 3 and 7 SVDs for
    # compose, restrict and parts, 116, 45, 35 then 33 calls for seb_relation_solve
    # and 227, 87, 76, 39 then 37 for reverse_solve, before matrices kept their
    # canonical decomposition.
    rng = np.random.default_rng(31)
    n = 4
    T = rel_from_graph(rng.standard_normal((2 * n, 5)) + 1j * rng.standard_normal((2 * n, 5)), n, n)
    S = rel_from_graph(rng.standard_normal((2 * n, 3)) + 1j * rng.standard_normal((2 * n, 3)), n, n)
    D = nk.span(rng.standard_normal((n, 2)))
    B = random_psd(rng, n) + 0.3 * np.eye(n)
    M = random_psd(rng, n) + 0.3 * np.eye(n)
    Tm = rel_from_matrix(np.linalg.inv(B.conj().T) @ M)  # B*T = M is PSD
    Bm = rel_from_matrix(B)
    calls = _count_linalg(monkeypatch)

    rel_compose(S, T)
    assert sum(calls.values()) <= 2, calls  # null space of [Y_T, -X_S], span of the product
    calls.clear()
    rel_restrict(T, D)
    assert sum(calls.values()) <= 1, calls  # null space of (I - P_D) X
    calls.clear()
    parts = rel_parts(T)
    (parts.ran, parts.ker)
    assert sum(calls.values()) <= 2, calls  # one SVD of X, one of Y for ran and ker
    calls.clear()
    # the operator part is the decomposition in hand, (dom T, {0}, T_s): no call
    # (one SVD for the span of (D; T_s D) before); mul T != {0} here
    Ts = operator_part_relation(T)
    assert Ts is not T and not rel_parts(Ts).mul.dim and sum(calls.values()) == 0, calls
    # the root of a matrix keeps (C^n, {0}, P^(1/2)): the gate's QR of the graph and
    # eigvalsh, with ||F - F*|| read off its Frobenius bound, and one eigh for the
    # root (an SVD for its span, then an svdvals for ||F - F*||, before)
    rel_sqrt(rel_from_matrix(M))
    assert calls == {"qr": 1, "eigvalsh": 1, "eigh": 1}, calls  # no svd
    calls.clear()
    # one eigh of the form of T*B gives ker M, lambda* and G0; no T*T is formed.
    # Parts, adjoints, products and restrictions of the matrix operands cost
    # nothing: two SVDs (ker (T_s)* and ker X), one QR for each of the five
    # graph bases the residuals measure, 4 spectral norms and 2 eigvalsh; the
    # containment tests and ||F - F*|| settle on their bounds (15 calls before)
    assert factor.seb_relation_solve(Bm, Bm).feasible
    assert sum(calls.values()) <= 14 and calls["svd"] <= 2 and calls["eigh"] == 1, calls
    calls.clear()
    # the dual's and one SVD per inverted operand; ker T* is the dual's
    # mul (T*)^(-1), and Y's graph basis waits for a report to ask for it
    assert factor.reverse_solve(Tm, Bm).feasible
    assert sum(calls.values()) <= 16 and calls["svd"] <= 4 and calls["eigh"] == 1, calls
    assert calls["svdvals"] == 4, calls  # 7 before the containment tests read their bounds
    calls.clear()
    # selfadjointness is read off the graph form: eigvalsh(F), and ||F - F*|| off its
    # Frobenius bound (an svdvals before); no adjoint
    calls.max_dim = 0
    assert rel_classify(Bm).selfadjoint
    assert calls == {"eigvalsh": 1}, calls
    assert calls.max_dim <= Bm.graph_dim, calls.max_dim
    calls.clear()
    # S is not symmetric and its graph has dimension 3 != n: nothing to decompose
    assert not rel_classify(S).symmetric
    assert sum(calls.values()) == 0, calls


def test_seb_lambda_star_minimal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        X = random_psd(rng, n)
        B = random_psd(rng, n)
        T = X @ B
        cert = factor.seb_solve(T, B)
        M = herm(T.conj().T @ B)
        shrunk = herm(0.99 * cert.lambda_star * M - T.conj().T @ T)
        assert np.linalg.eigvalsh(shrunk)[0] < 0  # 0.99 lambda* no longer works


# ---------------------------------------------------------------- seb relation


def _leak_band_pairs():
    """T = X B + eps P D with P the projector onto ker B: ker M = ker B leaks eps into T."""
    for eps in (1e-7, 1e-6, 1e-5):
        rng = np.random.default_rng(7)
        n = 5
        X = random_psd(rng, n)
        B = random_psd(rng, n, singular=True)
        P = np.eye(n) - B @ np.linalg.pinv(B)
        D = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        yield X @ B + eps * P @ D, B


def test_seb_relation_degenerate_matrix_case():
    # On matrices the two engines must agree, also where ker M leaks just past tol into T.
    rng = np.random.default_rng(6)
    pairs = []
    for _ in range(20):
        n = int(rng.integers(2, 6))
        X = random_psd(rng, n)
        B = random_psd(rng, n, singular=bool(rng.integers(0, 2)))
        pairs.append((X @ B, B))
    for T, B in [*pairs, *_leak_band_pairs()]:
        cm = factor.seb_solve(T, B)
        cr = factor.seb_relation_solve(rel_from_matrix(T), rel_from_matrix(B))
        assert cr.feasible == cm.feasible
        if not cm.feasible:
            continue
        assert abs(cr.lambda_star - cm.lambda_star) <= 1e-8 * (1 + cm.lambda_star)
        assert frob(cr.X - cm.X) <= 1e-7 * (1 + frob(cm.X))


def _planted_relation_pair(rng, n, mul_dim, feasible=True):
    """T with mul part W, B selfadjoint with mul B = W <= ker (T_s)*.

    On U = W^perp the pair reduces to a matrix problem T_u (X_u B_u or an
    obstructed variant), rotated by a random unitary so nothing is axis
    aligned.
    """
    Q = random_unitary(rng, n)
    U, W = Q[:, : n - mul_dim], Q[:, n - mul_dim :]
    k = n - mul_dim
    X_u = random_psd(rng, k)
    B_u = random_psd(rng, k, singular=not feasible)
    if feasible:
        T_u = X_u @ B_u
    else:
        kerb = nk.kernel_basis(B_u)
        T_u = X_u @ B_u + (rng.uniform(0.5, 1.5)) * (
            np.eye(k) - B_u @ np.linalg.pinv(B_u)
        ) @ random_psd(rng, k)
        if opnorm(T_u @ kerb.basis) < 0.1:
            T_u = T_u + 0.5 * kerb.basis @ kerb.basis.conj().T
    # graph of T: (U c, U T_u c + anything in W)
    t_graph = np.hstack(
        [np.vstack([U, U @ T_u]), np.vstack([np.zeros((n, mul_dim)), W])]
    )
    T = rel_from_graph(t_graph, n, n)
    b_graph = np.hstack(
        [np.vstack([U, U @ B_u]), np.vstack([np.zeros((n, mul_dim)), W])]
    )
    B = rel_from_graph(b_graph, n, n)
    return T, B, T_u, B_u, U, W


def test_seb_relation_block_reduction():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(3, 7))
        mul_dim = int(rng.integers(1, n - 1))
        feasible = trial % 3 != 0
        T, B, T_u, B_u, U, W = _planted_relation_pair(rng, n, mul_dim, feasible)
        sub = factor.seb_solve(T_u, B_u)
        cert = factor.seb_relation_solve(T, B)
        assert cert.feasible == sub.feasible
        if cert.feasible:
            assert abs(cert.lambda_star - sub.lambda_star) <= 1e-7 * (1 + sub.lambda_star)
            assert cert.checks["restricted_product_chain"] <= 1e-8
            assert cert.checks["inclusion_in_Ts"] <= 1e-8
            # equivalence back-direction: the certified lambda* witnesses (i)
            M_rel = rel_compose(rel_adjoint(T), B)
            R_rel = rel_compose(rel_adjoint(T), T)
            assert rel_order_leq(R_rel, scaled_relation(M_rel, cert.lambda_star * (1 + 1e-9)))


def _assert_same_seb(cert, ref):
    assert cert.feasible == ref.feasible
    assert cert.checks.keys() == ref.checks.keys()
    if ref.feasible:
        assert abs(cert.lambda_star - ref.lambda_star) <= 1e-12 * ref.lambda_star
        assert abs(cert.norm_X - ref.norm_X) <= 1e-12 * ref.norm_X
        assert frob(cert.X - ref.X) <= 1e-12 * frob(ref.X)


def test_seb_relation_matches_reference_solver():
    # The shared one-eigh core against the earlier solver that formed T*T and
    # decomposed the form of T*B three times.  Every other planted pair is also
    # posed as the reversed problem ((T^-1)*, (B^-1)*), whose dual is (T, B) again.
    rng = np.random.default_rng(40)
    verdicts = Counter()
    for trial in range(400):
        n = int(rng.integers(2, 7))
        T, B, *_ = _planted_relation_pair(rng, n, int(rng.integers(0, n - 1)), trial % 3 != 0)
        ref = seb_relation_solve_reference(T, B)
        _assert_same_seb(factor.seb_relation_solve(T, B), ref)
        verdicts[ref.feasible] += 1
        if trial % 2:
            continue
        Tr, Br = rel_adjoint(rel_inverse(T)), rel_adjoint(rel_inverse(B))
        S, A = rel_inverse(rel_adjoint(Tr)), rel_inverse(rel_adjoint(Br))
        ref = seb_relation_solve_reference(S, A)
        _assert_same_seb(factor.seb_relation_solve(S, A), ref)
        rev = factor.reverse_solve(Tr, Br)
        assert rev.feasible == ref.feasible
        if ref.feasible:
            assert abs(rev.eta_star - 1.0 / ref.lambda_star) <= 1e-12 / ref.lambda_star
    assert verdicts[True] >= 250 and verdicts[False] >= 120


def test_seb_relation_mul_b_forces_x_zero_there():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = 4
        T, B, *_ = _planted_relation_pair(rng, n, 1, feasible=True)
        cert = factor.seb_relation_solve(T, B)
        mulB = rel_parts(B).mul
        assert opnorm(cert.X @ mulB.basis) <= 1e-9 * (1 + cert.norm_X)


def test_seb_relation_hypothesis_gate():
    # mul B not inside ker (T_s)*: T surjective operator, B with mul part
    rng = np.random.default_rng(9)
    T = rel_from_matrix(np.eye(3))
    b_graph = np.hstack(
        [
            np.vstack([np.eye(3)[:, :2], rng.standard_normal((3, 2))]),
            np.vstack([np.zeros((3, 1)), rng.standard_normal((3, 1))]),
        ]
    )
    B = rel_from_graph(b_graph, 3, 3)
    with pytest.raises(HypothesisFailed):
        factor.seb_relation_solve(T, B)


# --------------------------------------------------------------------- reverse


def test_reverse_identity():
    cert = factor.reverse_solve(rel_from_matrix(np.eye(2)), rel_from_matrix(np.eye(2)))
    assert cert.feasible
    assert abs(cert.eta_star - 1.0) <= 1e-10
    assert rel_equal(cert.Y, rel_from_matrix(np.eye(2)), tol=1e-9)


def test_reverse_diagonal():
    T = np.diag([2.0, 3.0])
    cert = factor.reverse_solve(rel_from_matrix(T), rel_from_matrix(np.eye(2)))
    assert cert.feasible
    assert abs(cert.eta_star - 2.0) <= 1e-10
    assert rel_equal(cert.Y, rel_from_matrix(T), tol=1e-9)


def test_reverse_direct_inversion_oracle():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        B = random_psd(rng, n) + 0.3 * np.eye(n)
        M = random_psd(rng, n) + 0.3 * np.eye(n)
        T = np.linalg.inv(B.conj().T) @ M  # so B*T = M is PSD
        cert = factor.reverse_solve(rel_from_matrix(T), rel_from_matrix(B))
        assert cert.feasible
        Y_direct = np.linalg.inv(B.conj().T) @ T.conj().T
        assert rel_distance(cert.Y, rel_from_matrix(Y_direct)) <= 1e-8
        assert cert.residuals["restricted_product_chain"] <= 1e-8
        assert cert.residuals["adjoint_operator_factorization"] <= 1e-8


def test_reverse_duality_reciprocal():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        B = random_psd(rng, n) + 0.2 * np.eye(n)
        M = random_psd(rng, n) + 0.2 * np.eye(n)
        T = np.linalg.inv(B.conj().T) @ M
        rev = factor.reverse_solve(rel_from_matrix(T), rel_from_matrix(B))
        # the matrix engine, not the relation solve that reverse_solve runs itself
        dual = factor.seb_solve(np.linalg.inv(T.conj().T), np.linalg.inv(B.conj().T))
        assert dual.feasible and rev.feasible
        assert abs(rev.eta_star * dual.lambda_star - 1.0) <= 1e-8


def test_reverse_hypothesis_gate():
    with pytest.raises(HypothesisFailed):
        factor.reverse_solve(
            rel_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])), rel_from_matrix(np.eye(2))
        )
    # ker B* not inside ker T* + mul T
    with pytest.raises(HypothesisFailed):
        factor.reverse_solve(
            rel_from_matrix(np.eye(2)), rel_from_matrix(np.diag([1.0, 0.0]))
        )


def test_reverse_gate_on_a_dust_operator_part():
    # T = 0 on U and inf on U^perp, B PSD with ker B <= U: both hypotheses hold.
    # The operator part of the dual's S = (T*)^-1 is rounding dust, which the
    # ker (S_s)* of the gate must read as zero, as rel_parts reads ker T* + mul T.
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        Q = random_unitary(rng, n)
        U, W = Q[:, :k], Q[:, k:]
        T = rel_from_graph(np.hstack([np.vstack([U, 0 * U]), np.vstack([0 * W, W])]), n, n)
        b = rng.uniform(0.1, 2.0, n)
        b[: int(rng.integers(1, k + 1))] = 0.0
        cert = factor.reverse_solve(T, rel_from_matrix((Q * b) @ Q.conj().T))
        assert cert.feasible and cert.residuals["restricted_product_chain"] <= 1e-8


_REVERSE_FAMILIES = (
    "matrix_singular_M",
    "reversed_planted",
    "rotated_diagonal",
    "diagonal_inf",
    "zero",
    "gate_random_T",
    "gate_singular_B",
)


def _reverse_family_pair(rng, family):
    """(T, B) relations for reverse_solve from one family of its gates and verdicts."""
    n = int(rng.integers(2, 7))
    if family == "matrix_singular_M":
        B = random_psd(rng, n) + 0.2 * np.eye(n)
        T = np.linalg.inv(B.conj().T) @ random_psd(rng, n, singular=True)  # B*T = M, ker T* != 0
        return rel_from_matrix(T), rel_from_matrix(B)
    if family == "reversed_planted":
        # the inverse-adjoint pair whose dual is a planted pair, feasible or obstructed
        T, B, *_ = _planted_relation_pair(rng, n, int(rng.integers(0, n - 1)), bool(rng.integers(0, 3)))
        return rel_adjoint(rel_inverse(T)), rel_adjoint(rel_inverse(B))
    if family == "rotated_diagonal":
        Q = random_unitary(rng, n)
        zeros = rng.random(n) < 0.4
        t, b = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
        t[zeros] = b[zeros] = 0.0
        return rel_from_matrix((Q * t) @ Q.conj().T), rel_from_matrix((Q * b) @ Q.conj().T)
    if family == "diagonal_inf":
        entries = (INF, 0.0, 0.5, 1.5)
        t_head = [entries[i] for i in rng.integers(0, 4, n)]
        b_head = [entries[i] for i in rng.integers(0, 4, n)]
        return (
            diag_truncate(DiagRel.from_head(t_head), n, force_relation=True),
            diag_truncate(DiagRel.from_head(b_head), n, force_relation=True),
        )
    if family == "zero":
        return rel_zero(n, n), rel_from_matrix(random_psd(rng, n, singular=bool(rng.integers(0, 2))))
    if family == "gate_random_T":
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return rel_from_matrix(T), rel_from_matrix(random_psd(rng, n) + 0.2 * np.eye(n))
    return rel_identity(n), rel_from_matrix(random_psd(rng, n, singular=True))  # ker B* not in {0}


def test_reverse_matches_reference_solver():
    # The dualization reads gates, chain and equality form off seb_relation_solve(S, A);
    # the earlier solver built them in the terms of (T, B).  Both must agree on the
    # raise, the verdict, the residual keys and which side of 1e-8 each residual is on.
    rng = np.random.default_rng(41)
    outcomes = Counter()
    for trial in range(560):
        family = _REVERSE_FAMILIES[trial % len(_REVERSE_FAMILIES)]
        T, B = _reverse_family_pair(rng, family)
        try:
            ref = reverse_solve_reference(T, B)
        except HypothesisFailed:
            with pytest.raises(HypothesisFailed, match="^reverse_solve: "):
                factor.reverse_solve(T, B)
            outcomes[family, "raised"] += 1
            continue
        rev = factor.reverse_solve(T, B)
        assert rev.feasible == ref.feasible, (trial, family)
        outcomes[family, ref.feasible] += 1
        assert rev.residuals.keys() == ref.residuals.keys(), (trial, family)
        for key, value in ref.residuals.items():
            assert (rev.residuals[key] <= 1e-8) == (value <= 1e-8), (trial, family, key)
        if not ref.feasible:
            continue
        if math.isinf(ref.eta_star):
            assert math.isinf(rev.eta_star)
        else:
            assert abs(rev.eta_star - ref.eta_star) <= 1e-12 * ref.eta_star, (trial, family)
        assert rel_distance(rev.Y, ref.Y) <= 1e-10, (trial, family)
    for family in ("matrix_singular_M", "rotated_diagonal", "zero"):
        assert outcomes[family, True] == 80
    for family in ("gate_random_T", "gate_singular_B"):
        assert outcomes[family, "raised"] == 80
    assert min(outcomes["reversed_planted", verdict] for verdict in (True, False)) >= 20
    assert min(outcomes["diagonal_inf", outcome] for outcome in (True, False, "raised")) >= 5


# ------------------------------------------------------- similarity and forms


def test_psd_similarity_examples():
    sim = factor.psd_similarity_decide(np.diag([1.0, 2.0]))
    assert sim.accept
    assert frob(sim.S - np.diag([1.0, 2.0])) <= 1e-12
    assert not factor.psd_similarity_decide(np.array([[0.0, 1.0], [0.0, 0.0]])).accept
    sim = factor.psd_similarity_decide(np.array([[2.0, 1.0], [0.0, 1.0]]))
    assert sim.accept
    assert hausdorff(np.diag(sim.S), [1.0, 2.0]) <= 1e-9
    assert not factor.psd_similarity_decide(np.diag([1.0, -2.0])).accept
    assert not factor.psd_similarity_decide(np.array([[0.0, -1.0], [1.0, 0.0]])).accept


def test_psd_similarity_scale_invariance():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        G = conditioned_invertible(rng, n, 50.0)
        D = np.diag(np.sort(rng.uniform(0.2, 3.0, size=n)))
        while np.min(np.diff(np.diag(D).real)) < 0.05:
            D = np.diag(np.sort(rng.uniform(0.2, 3.0, size=n)))
        T = G @ D @ np.linalg.inv(G)
        c = float(rng.uniform(0.5, 4.0))
        a, b = factor.psd_similarity_decide(T), factor.psd_similarity_decide(c * T)
        assert a.accept and b.accept
        assert frob(b.S - c * a.S) <= 1e-7 * (1 + frob(a.S))
        # same eigenvector columns up to phase
        for j in range(n):
            overlap = abs(np.vdot(a.G[:, j], b.G[:, j]))
            assert overlap >= 1 - 1e-7


def test_psd_similarity_agrees_with_index_oracle():
    rng = np.random.default_rng(13)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        if trial % 3 == 0:
            J = np.eye(n, dtype=complex) * rng.uniform(0.5, 2.0)
            J[0, 1 % n] = 1.0  # Jordan block at the top
            Q = conditioned_invertible(rng, n, 10.0)
            T = Q @ J @ np.linalg.inv(Q)
        else:
            G = conditioned_invertible(rng, n, 100.0)
            vals = rng.uniform(0.1, 3.0, size=n)
            vals = np.sort(vals)
            while n > 1 and np.min(np.diff(vals)) < 0.05:
                vals = np.sort(rng.uniform(0.1, 3.0, size=n))
            T = G @ np.diag(vals) @ np.linalg.inv(G)
        sim = factor.psd_similarity_decide(T)
        assert sim.accept == index_one_diagonalizable(T)


def test_wsimilar_psd_input_collapses():
    rng = np.random.default_rng(14)
    P = random_psd(rng, 3)
    forms = factor.wsimilar_forms(P)
    assert frob(forms.X - np.eye(3)) <= 1e-7
    assert frob(forms.S - P) <= 1e-6
    assert forms.plusdot_ok


def test_wsimilar_six_identities_and_kernel():
    rng = np.random.default_rng(15)
    for trial in range(40):
        n = int(rng.integers(2, 6))
        G = conditioned_invertible(rng, n, 1e3)
        vals = np.sort(rng.uniform(0.3, 3.0, size=n))
        while n > 1 and np.min(np.diff(vals)) < 0.05:
            vals = np.sort(rng.uniform(0.3, 3.0, size=n))
        if trial % 4 == 0:
            vals[0] = 0.0  # nontrivial kernel
        T = G @ np.diag(vals) @ np.linalg.inv(G)
        forms = factor.wsimilar_forms(T)
        ctol = forms.checks["tol"]
        assert forms.checks["intertwine"] <= ctol
        assert forms.checks["factor_T"] <= ctol
        assert forms.checks["factor_Tadj"] <= ctol
        assert forms.checks["TW_herm_dev"] <= ctol
        assert forms.checks["ZT_herm_dev"] <= ctol
        assert forms.checks["TW_psd_deficit"] <= ctol
        assert forms.checks["ZT_psd_deficit"] <= ctol
        assert forms.plusdot_ok


def test_wsimilar_rejects():
    with pytest.raises(NotScalarNonneg):
        factor.wsimilar_forms(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ----------------------------------------------------------- spectra utilities


def test_presimilar_trivials():
    rng = np.random.default_rng(16)
    B = random_psd(rng, 3)
    S, match = factor.presimilar_S(np.eye(3), B)
    assert frob(S - B) <= 1e-10 and match
    A = np.diag([4.0, 1.0])
    S, match = factor.presimilar_S(A, np.eye(2))
    assert frob(S - A) <= 1e-10 and match


def test_presimilar_seeded_spectra():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        A = random_psd(rng, n, singular=bool(rng.integers(0, 2)))
        B = random_psd(rng, n)
        S, match = factor.presimilar_S(A, B)
        assert match
        Ah = nk.psd_power(A, 0.5)
        assert frob((A @ B) @ Ah - Ah @ S) <= 1e-8 * (1 + frob(A @ B))


def test_spectra_swap_examples():
    A = np.diag([1.0, 0.0])
    B = np.ones((2, 2))
    assert hausdorff(
        np.append(np.linalg.eigvals(A @ B), 0), np.append(np.linalg.eigvals(B @ A), 0)
    ) <= 1e-12
    assert factor.spectra_swap_check(A, B)
    assert factor.spectra_swap_check(np.eye(2), np.eye(2))


def test_spectra_swap_bulk():
    rng = np.random.default_rng(18)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        A = random_psd(rng, n, singular=bool(rng.integers(0, 2)))
        B = random_psd(rng, n)
        assert factor.spectra_swap_check(A, B)


# -------------------------------------------------------------------- packages


def test_inclusionnfs_trivial_and_planted():
    rng = np.random.default_rng(19)
    P = random_psd(rng, 3) + 0.2 * np.eye(3)
    pkg = factor.inclusionnfs_package(P, np.eye(3), P)
    assert frob(pkg.A - np.eye(3)) <= 1e-10
    assert frob(pkg.B_F - P) <= 1e-9
    for _ in range(25):
        n = int(rng.integers(2, 6))
        A = random_psd(rng, n) + 0.2 * np.eye(n)
        B = random_psd(rng, n)
        T = A @ B
        G = nk.psd_power(A, 0.5)  # then G*G = A and G T* = S G with S = A^1/2 B A^1/2
        S = herm(G @ B @ G)
        pkg = factor.inclusionnfs_package(T, G, S)
        assert frob(pkg.B_F - B) <= 1e-7 * (1 + frob(B))
        assert pkg.diagnostics["reconstruction"] <= pkg.diagnostics["tol"]
        assert pkg.diagnostics["seb_feasible"]


def test_inclusionnfs_zero():
    pkg = factor.inclusionnfs_package(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
    assert frob(pkg.B_F) <= 1e-12
    assert pkg.diagnostics["reconstruction"] <= 1e-12


def test_tba_trivial_and_planted():
    rng = np.random.default_rng(20)
    P = random_psd(rng, 3)
    pkg = factor.tba_package(P, np.eye(3), P)
    assert frob(pkg.A - np.eye(3)) <= 1e-10
    assert frob(pkg.A_F - P) <= 1e-10
    for _ in range(25):
        n = int(rng.integers(2, 6))
        G = conditioned_invertible(rng, n, 1e2)
        S = random_psd(rng, n) + 0.1 * np.eye(n)
        T = np.linalg.inv(G) @ S @ G
        pkg = factor.tba_package(T, G, S)
        assert pkg.diagnostics["reconstruction"] <= pkg.diagnostics["tol"]
        assert pkg.diagnostics["xt_equals_tadjx"] <= pkg.diagnostics["tol"]
        assert pkg.diagnostics["xt_psd_deficit"] <= pkg.diagnostics["tol"]
        assert pkg.diagnostics["reversed_inequality_margin"] >= -pkg.diagnostics["tol"]
        assert pkg.diagnostics["reverse_feasible"]
        lam = pkg.diagnostics["lambda"]
        assert pkg.diagnostics["reverse_eta_star"] >= 1.0 / lam - 1e-7


def test_tba_zero():
    pkg = factor.tba_package(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
    assert frob(pkg.A_F) <= 1e-12


# ------------------------------------------------------------ quasi-affinities


def test_quasiaffine_identity_and_nilpotent():
    rng = np.random.default_rng(21)
    P = random_psd(rng, 3)
    qa = factor.quasiaffine_decide(P, P)
    assert qa.affine
    qa = factor.quasiaffine_decide(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    assert not qa.affine


def test_quasiaffine_planted():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        G = conditioned_invertible(rng, n, 50.0)
        vals = np.sort(rng.uniform(0.2, 3.0, size=n))
        while n > 1 and np.min(np.diff(vals)) < 0.05:
            vals = np.sort(rng.uniform(0.2, 3.0, size=n))
        D = np.diag(vals)
        T = G @ D @ np.linalg.inv(G)
        qa = factor.quasiaffine_decide(T, D)
        assert qa.affine
        assert nk.matrix_rank(qa.G) == n
        assert frob(qa.G @ T - D @ qa.G) <= 1e-7 * (1 + opnorm(T))


def test_quasisimilar_decide():
    rng = np.random.default_rng(23)
    P = random_psd(rng, 3)
    qs = factor.quasisimilar_decide(P, P)
    assert qs.similar_pair
    qs = factor.quasisimilar_decide(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    assert not qs.similar_pair
    for _ in range(15):
        n = int(rng.integers(2, 5))
        G = conditioned_invertible(rng, n, 30.0)
        vals = np.sort(rng.uniform(0.2, 3.0, size=n))
        while n > 1 and np.min(np.diff(vals)) < 0.05:
            vals = np.sort(rng.uniform(0.2, 3.0, size=n))
        D = np.diag(vals)
        T = G @ D @ np.linalg.inv(G)
        qs = factor.quasisimilar_decide(T, D)
        assert qs.similar_pair
        assert qs.checks["duality_residual"] <= qs.checks["tol"]
        # the certificate's intertwiners realize T in both product classes
        adjoint = factor.inclusionnfs_package(T, qs.G2, D)
        direct = factor.tba_package(T, qs.G1, D)
        assert adjoint.diagnostics["reconstruction"] <= adjoint.diagnostics["tol"]
        assert direct.diagnostics["reconstruction"] <= direct.diagnostics["tol"]
        # spectra line up with the target through the pre-similarity chain
        assert hausdorff(np.linalg.eigvals(T), np.diag(D)) <= 1e-7


@pytest.mark.parametrize(
    "S", [np.diag([-1.0, 2.0]), np.array([[1.0, 1.0], [0.0, 2.0]])], ids=["indefinite", "nonnormal"]
)
def test_deciders_gate_the_target(S):
    # the target must be S = S* >= 0; for diag(-1, 2) against itself
    # quasisimilar_decide used to report a similar pair
    for decide in (factor.quasiaffine_decide, factor.quasisimilar_decide):
        with pytest.raises(NotPSD):
            decide(S, S)


def test_quasiaffine_scalar_target_has_the_full_space():
    # T = G (c I) G^-1 is c I to rounding, so every G intertwines; a rank cut
    # relative to the dust T - c I called the space empty (dimension 0 at n = 3)
    rng = np.random.default_rng(24)
    for n, c in ((2, 0.7), (3, 1.3), (5, 2.0), (8, 3.5)):
        for _ in range(3):
            G = conditioned_invertible(rng, n, 20.0)
            T = G @ (c * np.eye(n)) @ np.linalg.inv(G)
            qa = factor.quasiaffine_decide(T, c * np.eye(n))
            assert qa.affine and qa.space_dim == n * n, (n, c, qa.space_dim)
            assert frob(qa.G @ T - c * qa.G) <= 1e-12 * (1 + c) * opnorm(qa.G)


def test_quasiaffine_close_eigenvalues_stay_apart():
    # clustering at spectrum's 100 tol ||S|| merged 1 and 1 + 1e-7; the floor keeps them apart
    for gap in (1e-5, 1e-7, 1e-9):
        D = np.diag([1.0, 1.0 + gap])
        qa = factor.quasiaffine_decide(D, D)
        assert qa.affine and qa.space_dim == 2, gap
        assert factor.quasisimilar_decide(D, D).similar_pair, gap


def test_quasiaffine_large_space_without_a_dense_basis(monkeypatch):
    # four levels of multiplicity 30: dimension 4 * 30^2 = 3600, rank n; the
    # Kronecker form would need an SVD of a 14400 x 14400 matrix
    rng = np.random.default_rng(25)
    n = 120
    d = np.repeat([0.5, 1.25, 2.0, 3.0], n // 4)
    G = conditioned_invertible(rng, n, 10.0)
    T = G @ np.diag(d) @ np.linalg.inv(G)
    S = np.diag(d).astype(complex)
    monkeypatch.setattr(nk.Intertwiners, "basis_matrices", None)
    calls = _count_linalg(monkeypatch)
    out = nk.sylvester_intertwiners(T, S)
    assert out.dimension == sylvester_dimension(d, d) == 4 * 30**2
    assert out.rank == n and out.kernel is None
    assert calls.max_dim == n, calls.max_dim
    assert frob(out.max_rank_element @ T - S @ out.max_rank_element) <= 1e-12 * (1 + 2 * opnorm(S)) * opnorm(out.max_rank_element)
    qa = factor.quasiaffine_decide(T, S)
    assert qa.affine and qa.space_dim == out.dimension


# ------------------------------------------------------------ bounded S report


def test_bounded_s_trivial_exact():
    rng = np.random.default_rng(24)
    P = random_psd(rng, 3)
    rep = factor.bounded_S_checks(P, np.eye(3), P)
    assert rep.all_passed
    assert all(item.residual <= 1e-10 for item in rep.items)


def test_bounded_s_seeded():
    rng = np.random.default_rng(25)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        G = conditioned_invertible(rng, n, 1e2)
        S = random_psd(rng, n)
        T = np.linalg.inv(G) @ S @ G
        rep = factor.bounded_S_checks(T, G, S)
        assert rep.all_passed, [it for it in rep.items if not it.passed]


def test_bounded_s_zero_degenerate():
    rep = factor.bounded_S_checks(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
    assert rep.all_passed


# G^-1 and (G*G)^(+-1/2) come from one SVD of G with no cut.  The eigh of X = G*G
# cut X's eigenvalues at 1e-10 max, i.e. G's singular values at 1e-5 s_max, so
# for cond(G) > 1e5 X^(-1/2) lost directions and S, S0 and B came out wrong by
# O(1) while passing their cond(G)^2-scaled tolerances.  The eigenvalues of such
# a T are themselves only good to about eps cond(G)^2, hence the bounds.


def _planted_intertwiner(cond, n=6):
    """G with cond(G) = cond and ||G|| = 1, a target S = S* > 0 and T = G^-1 S G."""
    rng = np.random.default_rng(42)
    G = conditioned_invertible(rng, n, cond)
    S = random_psd(rng, n) + 0.1 * np.eye(n)
    return np.linalg.inv(G) @ S @ G, G, S


@pytest.mark.parametrize("cond", [1e6, 1e7])
def test_wsimilar_S_keeps_the_spectrum_at_high_cond(cond):
    rng = np.random.default_rng(41)
    d = np.linspace(0.5, 3.0, 6)
    G = conditioned_invertible(rng, 6, cond)
    T = G @ np.diag(d) @ np.linalg.inv(G)
    # at tol = 1e-8 spectrum's clustering at 100 tol ||T||, with ||T|| near cond, merges all of d
    forms = factor.wsimilar_forms(T, tol=1e-10)
    assert np.abs(np.linalg.eigvalsh(forms.S) - d).max() <= 1e-16 * cond**2


@pytest.mark.parametrize("cond", [1e6, 1e7])
def test_tba_S0_keeps_the_spectrum_at_high_cond(cond):
    T, G, S = _planted_intertwiner(cond)
    S0 = factor.tba_package(T, G, S).diagnostics["S0"]
    assert np.abs(np.linalg.eigvalsh(S0) - np.linalg.eigvalsh(S)).max() <= 1e-16 * cond**2


@pytest.mark.parametrize("cond", [1e6, 1e7])
def test_tba_reconstruction_at_high_cond(cond):
    T, G, S = _planted_intertwiner(cond)
    pkg = factor.tba_package(T, G, S)
    # B A_F - T to the rounding of a product with ||B|| = cond(G)^2 and ||A_F|| <= ||S||
    assert pkg.diagnostics["reconstruction"] <= 10 * np.finfo(float).eps * cond**2 * opnorm(S)
    rep = factor.bounded_S_checks(T, G, S)
    assert rep.all_passed, [it for it in rep.items if not it.passed]


# ----------------------------------------------------------------- power chain


def test_power_chain_identity():
    chain = factor.power_chain(np.eye(2), np.eye(2), n_max=4)
    for S in chain.S_seq:
        assert frob(S - np.eye(2)) <= 1e-12
    assert max(chain.residuals) <= 1e-12


def test_power_chain_diagonal_scalar_recursion():
    A = np.diag([1.0, 2.0])
    B = np.diag([3.0, 4.0])
    chain = factor.power_chain(A, B, n_max=3)
    expected = [np.diag([3.0, 4.0])]
    for _ in range(3):
        prev = expected[-1]
        expected.append(prev @ A @ prev)
    for got, want in zip(chain.S_seq, expected):
        assert frob(got - want) <= 1e-9 * (1 + frob(want))


def test_power_chain_seeded():
    rng = np.random.default_rng(26)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = random_psd(rng, n)
        B = random_psd(rng, n)
        A /= max(opnorm(A @ B), 1e-12) ** 0.5
        B /= max(opnorm(A @ B), 1e-12) ** 0.5
        chain = factor.power_chain(A, B, n_max=4)
        T = A @ B
        tn = max(opnorm(T), 1e-6)
        for k, resid in enumerate(chain.residuals):
            assert resid <= 1e-6 * max(tn ** (2**k), 1.0)
        for margin, S in zip(chain.psd_margins, chain.S_seq):
            assert margin >= -1e-9 * max(opnorm(S), 1e-12)


# ----------------------------------------------------------------------- ldeux


def test_ldeux_psd_input():
    rng = np.random.default_rng(27)
    P = random_psd(rng, 3)
    cert = factor.ldeux_certify(P)
    assert cert.in_class
    assert frob(cert.A - np.eye(3)) <= 1e-7
    assert frob(cert.B - P) <= 1e-6 * (1 + frob(P))


def test_ldeux_nilpotent_rejected():
    cert = factor.ldeux_certify(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not cert.in_class


def test_ldeux_planted_product():
    rng = np.random.default_rng(28)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        q = random_unitary(rng, n)
        A = herm((q * rng.uniform(0.3, 2.0, n)) @ q.conj().T)
        B = random_psd(rng, n) + 0.2 * np.eye(n)
        T = A @ B
        cert = factor.ldeux_certify(T)
        assert cert.in_class
        assert cert.residual <= 1e-6 * (1 + frob(T))
        wa = np.linalg.eigvalsh(herm(cert.A))
        wb = np.linalg.eigvalsh(herm(cert.B))
        assert wa[0] >= -1e-9 * (1 + wa[-1]) and wb[0] >= -1e-9 * (1 + wb[-1])


def test_zero_operator_short_circuits_everywhere():
    rng = np.random.default_rng(99)
    Z = np.zeros((3, 3))
    B = random_psd(rng, 3)
    assert factor.douglas_solve(Z, B).feasible
    cert = factor.seb_relation_solve(rel_from_matrix(Z), rel_from_matrix(B))
    assert cert.feasible and cert.lambda_star == 0.0 and frob(cert.X) == 0.0
    rev = factor.reverse_solve(rel_from_matrix(Z), rel_from_matrix(B))
    assert rev.feasible and rev.eta_star == float("inf")
    forms = factor.wsimilar_forms(Z)
    assert forms.plusdot_ok and frob(forms.S) <= 1e-12
    cert = factor.ldeux_certify(Z)
    assert cert.in_class and frob(cert.B) <= 1e-12


def test_ldeux_with_hint():
    rng = np.random.default_rng(29)
    A = random_psd(rng, 3) + 0.2 * np.eye(3)
    Y = random_psd(rng, 3) + 0.2 * np.eye(3)
    T = A @ Y
    cert = factor.ldeux_certify(T, Y_hint=Y)
    assert cert.in_class
    assert frob(cert.A @ cert.B - T) <= 1e-7 * (1 + frob(T))
    assert frob(cert.B - Y) <= 1e-12
