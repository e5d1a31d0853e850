"""Kernel primitives against trivial values and brute-force oracles."""

from collections import Counter

import numpy as np
import pytest

from psdfactor import numkernel as nk
from psdfactor.errors import HypothesisError, NotHermitian, NotPSD, NotSquare
from psdfactor.factor import bounded_S_checks, douglas_solve, psd_similarity_decide, quasiaffine_decide, wsimilar_forms

from oracles import (
    charpoly_roots,
    conditioned_invertible,
    penrose_residuals,
    random_psd,
    random_unitary,
    subspace_distance_reference,
    sylvester_dimension,
    sylvester_intertwiners_reference,
)


def test_as_matrix_dtype_rule():
    # float64 when every entry is real, complex128 otherwise; one rule for every input
    for real in ([[1, 2]], [[True]], np.eye(2, dtype=np.float32), [[1.5 + 0j, -0.0j]], np.array([[2 - 0j]])):
        assert nk.as_matrix(real).dtype == np.float64, real
    assert np.array_equal(nk.as_matrix([[1.5 + 0j, -2 - 0j]]), [[1.5, -2.0]])
    for cplx in ([[1j]], [[1.0, 1e-300j]], np.array([[1, 2j]], dtype=np.complex64)):
        assert nk.as_matrix(cplx).dtype == np.complex128, cplx
    M = np.eye(3)
    assert nk.as_matrix(M) is M
    assert nk.herm(np.eye(2) + 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])).dtype == np.complex128
    for bad in ([[np.inf]], [[1.0, complex(0.0, np.nan)]], [[complex(np.inf, 0.0)]]):
        with pytest.raises(ValueError):
            nk.as_matrix(bad)


def test_hermitian_eig_identity():
    eig = nk.hermitian_eig(np.eye(2))
    assert np.allclose(eig.eigenvalues, [1.0, 1.0])
    V = eig.eigenvectors
    assert np.allclose(V.conj().T @ V, np.eye(2))


def test_hermitian_eig_diagonal():
    # the PSD gate: a PSD diagonal passes with its spectrum ascending, an indefinite one raises
    eig = nk.hermitian_eig(np.diag([3.0, 0.0]))
    assert np.allclose(eig.eigenvalues, [0.0, 3.0]) and eig.norm == 3.0
    assert np.allclose(np.abs(eig.eigenvectors), [[0, 1], [1, 0]])
    with pytest.raises(NotPSD, match="min eigenvalue -1.000e[+]00"):
        nk.hermitian_eig(np.diag([3.0, -1.0]))


def test_hermitian_diagonal_is_the_gate_of_its_diagonal_matrix():
    # the same raise and message as hermitian_eig on diag(d), or the same spectrum
    for d in ([3.0, -1.0, 0.0], [2.0, 1.0 + 0.0j], [1.0 + 1e-12j, 2.0], [1.0 + 1j, 2.0], [1.0, -1e-3], [1.0, -1e-10], []):
        d = np.array(d)
        try:
            eig = nk.hermitian_eig(np.diag(d), nk.DEFAULT_TOL, "gate")
        except NotPSD as exc:
            with pytest.raises(type(exc)) as got:
                nk._hermitian_diagonal(d, nk.DEFAULT_TOL, "gate", type(exc))
            assert str(got.value) == str(exc)
            continue
        read = nk._hermitian_diagonal(d, nk.DEFAULT_TOL, "gate", NotPSD)
        assert np.array_equal(np.sort(read.real), eig.eigenvalues)
        assert read.dtype == nk.as_matrix(np.diag(d)).dtype


def test_hermitian_eig_matches_charpoly_oracle():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = A @ A.conj().T
    eig = nk.hermitian_eig(H)
    expected = np.sort(charpoly_roots(H).real)
    assert np.max(np.abs(eig.eigenvalues - expected)) <= 1e-9
    recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert nk.frob(recon - H) <= 1e-10 * (1 + nk.frob(H))


def test_hermitian_eig_rejects_nonhermitian():
    # the gate's one error for both tests, unless the caller names another
    with pytest.raises(NotPSD, match="deviation from Hermitian"):
        nk.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        nk.hermitian_eig(np.array([[1.0, 1.0], [0.0, 1.0]]), error=NotHermitian)


def test_psd_power_trivials():
    assert np.allclose(nk.psd_power(np.eye(3), 0.5), np.eye(3))
    out = nk.psd_power(np.diag([4.0, 0.0]), -0.5)
    assert np.allclose(out, np.diag([0.5, 0.0]))


def test_psd_power_sqrt_round_trip():
    rng = np.random.default_rng(11)
    P = random_psd(rng, 5)
    R = nk.psd_power(P, 0.5)
    assert nk.frob(R @ R - P) <= 1e-9 * (1 + nk.frob(P))


def test_psd_power_semigroup_on_range():
    rng = np.random.default_rng(12)
    for trial in range(25):
        P = random_psd(rng, 4, singular=bool(trial % 2))
        for a in (-1.0, -0.5, 0.5, 1.0):
            for b in (-1.0, -0.5, 0.5, 1.0):
                lhs = nk.psd_power(P, a) @ nk.psd_power(P, b)
                rhs = nk.psd_power(P, a + b)
                assert nk.frob(lhs - rhs) <= 1e-8 * (1 + nk.frob(rhs))


def test_psd_live_is_the_kernel_rule_in_any_order():
    # live is w > RANK_RTOL max |w|; the rest is kernel, a tolerated negative eigenvalue included
    w = np.array([3.0, -1e-9, 0.0, 2e-10, 4e-10, -5e-10])
    assert nk.psd_live(w).tolist() == [True, False, False, False, True, False]
    assert nk.psd_live(np.array([-1e-9, 1e-20])).tolist() == [False, False]
    assert not nk.psd_live(np.zeros(3)).any() and nk.psd_live(np.zeros(0)).shape == (0,)


def test_psd_power_keeps_a_tolerated_negative_eigenvalue_in_the_kernel():
    # dust whose most negative eigenvalue is the largest in magnitude: 1e-20 is below
    # RANK_RTOL 1e-9, so the whole spectrum is kernel and every power is 0
    Q = random_unitary(np.random.default_rng(13), 2)
    P = (Q * [-1e-9, 1e-20]) @ Q.conj().T
    for alpha in (-1.0, -0.5, 0.5, 1.0):
        assert not nk.psd_power(P, alpha).any(), alpha


def test_psd_power_rejects_indefinite():
    with pytest.raises(NotPSD):
        nk.psd_power(np.diag([1.0, -1.0]), 0.5)


def test_moore_penrose_trivials():
    assert np.allclose(nk.moore_penrose(np.zeros((2, 3))), np.zeros((3, 2)))
    assert np.allclose(nk.moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_moore_penrose_rank2_rectangular():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    B = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    T = A @ B
    assert max(penrose_residuals(T, nk.moore_penrose(T))) <= 1e-10


def test_moore_penrose_penrose_identities_bulk():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        m, n = rng.integers(1, 6, size=2)
        T = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        if rng.integers(0, 2) and min(m, n) > 1:
            T[:, 0] = T @ rng.standard_normal(n)  # force rank deficiency
        assert max(penrose_residuals(T, nk.moore_penrose(T))) <= 1e-9


def test_loewner_trivials():
    flag, margin = nk.loewner_leq(np.eye(2), 2 * np.eye(2))
    assert flag and abs(margin - 1.0) <= 1e-12
    flag, _ = nk.loewner_leq(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
    assert not flag


def test_loewner_norm_bound():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        flag, _ = nk.loewner_leq(X.conj().T @ X, nk.opnorm(X) ** 2 * np.eye(n))
        assert flag


def test_loewner_transitive():
    rng = np.random.default_rng(10)
    for _ in range(50):
        P = random_psd(rng, 4)
        Q = P + random_psd(rng, 4)
        R = Q + random_psd(rng, 4)
        assert nk.loewner_leq(P, Q)[0] and nk.loewner_leq(Q, R)[0]
        assert nk.loewner_leq(P, R, tol=2e-8)[0]


def test_psd_deficit_cholesky_first(monkeypatch):
    # a definite H passes its Cholesky and takes no spectrum; otherwise eigvalsh gives the deficit
    eigvalsh, spectra = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: spectra.append(a) or eigvalsh(a, *args))
    P = random_psd(np.random.default_rng(13), 5) + 0.1 * np.eye(5)
    assert nk.psd_deficit(P) == 0.0 and not spectra
    assert nk.psd_deficit(np.diag([1.0, -0.3])) == pytest.approx(0.3, rel=1e-15)
    assert len(spectra) == 1
    # singular PSD: the second Cholesky pivot is exactly 0, and the deficit is rounding dust
    assert nk.psd_deficit(np.ones((3, 3))) <= 1e-15
    assert len(spectra) == 2


def test_spectrum_diagonal():
    spec = nk.spectrum(np.diag([1.0, 2.0, 3.0]))
    assert spec.diagonalizable
    assert np.allclose(spec.eigenvalues, [1, 2, 3])


def test_spectrum_jordan_block():
    spec = nk.spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not spec.diagonalizable
    assert np.allclose(spec.eigenvalues, [0, 0], atol=1e-8)


@pytest.mark.parametrize("k", [3, 4])
def test_spectrum_large_jordan_block(k):
    # G J G^-1 with one k x k Jordan block at 0.5: the eigenvalues scatter by
    # about eps^(1/k), past the clustering, and only cond(V) >= 1e10 shows it
    J = 0.5 * np.eye(k) + np.eye(k, k=1)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        G = conditioned_invertible(rng, k, rng.uniform(1.0, 10.0))
        spec = nk.spectrum(G @ J @ np.linalg.inv(G))
        assert not spec.diagonalizable, (seed, spec.eigvec_condition)


def test_spectrum_normal_matrix_condition():
    rng = np.random.default_rng(21)
    q = random_unitary(rng, 5)
    T = (q * (rng.uniform(1, 2, 5) + 1j * rng.uniform(-1, 1, 5))) @ q.conj().T
    spec = nk.spectrum(T)
    assert spec.diagonalizable
    assert spec.eigvec_condition <= 1 + 1e-6


def test_sylvester_identity_pair():
    out = nk.sylvester_intertwiners(np.eye(2), np.eye(2))
    assert out.dimension == 4 and out.rank == 2


def test_sylvester_disjoint_spectra():
    out = nk.sylvester_intertwiners(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert out.dimension == 0 and out.rank == 0


def test_sylvester_dimension_formula():
    T = np.diag([1.0, 2.0])
    out = nk.sylvester_intertwiners(T, T)
    assert out.dimension == sylvester_dimension([1, 2], [1, 2]) == 2
    assert out.rank == 2
    rng = np.random.default_rng(17)
    eT = [1.0, 1.0, 2.0]
    eS = [1.0, 2.0, 5.0]
    qt, qs = random_unitary(rng, 3), random_unitary(rng, 3)
    Tm = (qt * eT) @ qt.conj().T
    Sm = (qs * eS) @ qs.conj().T
    out = nk.sylvester_intertwiners(Tm, Sm)
    assert out.dimension == sylvester_dimension(eT, eS) == 3


def test_sylvester_basis_residuals():
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out = nk.sylvester_intertwiners(T, S)
        for G in out.basis_matrices():
            assert nk.frob(G @ T - S @ G) <= 1e-9 * (1 + nk.opnorm(T) + nk.opnorm(S))


def test_sylvester_determinism():
    rng = np.random.default_rng(31)
    T = rng.standard_normal((3, 3))
    a = nk.sylvester_intertwiners(T, T)
    b = nk.sylvester_intertwiners(T, T)
    assert np.array_equal(a.max_rank_element, b.max_rank_element)
    # two Jordan blocks: the fixed-seed search of the Kronecker fallback
    J = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    a = nk.sylvester_intertwiners(J, J)
    b = nk.sylvester_intertwiners(J, J)
    assert a.kernel is not None and a.rank == 3
    assert np.array_equal(a.max_rank_element, b.max_rank_element)


def test_sylvester_scalar_pair_has_the_full_space():
    # T ~ c I to rounding: G T = T G for every G, so the dimension is n^2
    rng = np.random.default_rng(32)
    for n, c in ((2, 1.0), (3, 1.3), (6, 0.25), (9, 4.0)):
        G = conditioned_invertible(rng, n, 20.0)
        T = G @ (c * np.eye(n)) @ np.linalg.inv(G)
        out = nk.sylvester_intertwiners(T, T)
        assert out.dimension == n * n and out.rank == n, (n, c, out.dimension)


def test_sylvester_kernel_survives_an_svd_failure(monkeypatch):
    # LAPACK's zgesdd sometimes fails to converge (seen on a 200 x 200 T - mu at
    # two BLAS threads); the kernel is then read off an SVD of the adjoint
    rng = np.random.default_rng(34)
    S = np.diag([0.5, 1.0, 2.0]).astype(complex)  # no cluster for spectrum to rank-test
    G = conditioned_invertible(rng, 3, 5.0)
    T = G @ S @ np.linalg.inv(G)
    expected = nk.sylvester_intertwiners(T, S)
    svd, failed = np.linalg.svd, []

    def flaky(a, *args, **kwargs):
        if not failed:
            failed.append(a)
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    out = nk.sylvester_intertwiners(T, S)
    assert failed and (out.dimension, out.rank) == (expected.dimension, expected.rank) == (3, 3)
    G1 = out.max_rank_element
    assert nk.frob(G1 @ T - S @ G1) <= 1e-12 * (1 + 2 * nk.opnorm(S)) * nk.opnorm(G1)


def test_svd_step_survives_an_svd_failure(monkeypatch):
    # svd_split, kernel_basis, span, matrix_rank, subspace_complement, opnorm,
    # spectrum's rank test and cond(V), the Kronecker fallback and factor's SVDs
    # of an intertwiner take every SVD through one step, which reads the factors
    # off an SVD of A* when LAPACK fails to converge on A; douglas_solve decides
    # through svd_split
    rng = np.random.default_rng(35)
    svd = np.linalg.svd

    def after_one_failure(call, skip=0):
        """call() with the SVD after the first ``skip`` ones failing once."""
        seen, failed = [], []

        def flaky(a, *args, **kwargs):
            seen.append(a)
            if len(seen) == skip + 1:
                failed.append(a)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky)
        try:
            return call()
        finally:
            monkeypatch.setattr(np.linalg, "svd", svd)
            assert failed

    for m, n in ((5, 4), (4, 6)):  # tall and wide: thin and full factors
        B = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        B[:, 0] = B[:, 1]  # a kernel in both shapes
        T = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) @ B
        want, got = nk.svd_split(B), after_one_failure(lambda: nk.svd_split(B))
        assert (got.ran.dim, got.ker.dim) == (want.ran.dim, want.ker.dim)
        assert nk.subspace_distance(got.ran, want.ran) <= 1e-12
        assert nk.subspace_distance(got.ker, want.ker) <= 1e-12
        assert nk.frob(got.pinv - want.pinv) <= 1e-12 * nk.frob(want.pinv)
        ker = after_one_failure(lambda: nk.kernel_basis(B))
        assert ker.dim == want.ker.dim and nk.subspace_distance(ker, want.ker) <= 1e-12
        sol = after_one_failure(lambda: douglas_solve(T, B))
        assert sol.feasible and nk.frob(sol.Y @ B - T) <= 1e-10 * (1 + nk.frob(T))
        assert after_one_failure(lambda: nk.matrix_rank(B)) == nk.matrix_rank(B) == want.ran.dim
        sp = nk.span(B)
        got = after_one_failure(lambda: nk.span(B))
        assert got.dim == sp.dim == want.ran.dim and nk.subspace_distance(got, sp) <= 1e-12
        comp = nk.subspace_complement(want.ker)  # ran B* in both shapes
        got = after_one_failure(lambda: nk.subspace_complement(want.ker))
        assert got.dim == comp.dim == want.ran.dim and nk.subspace_distance(got, comp) <= 1e-12
        assert nk.opnorm(want.ker.basis.conj().T @ got.basis) <= 1e-12
        # the spectral norm is the largest singular value numpy's norm reads
        assert nk.opnorm(B) == np.linalg.norm(B, 2)
        assert after_one_failure(lambda: nk.opnorm(B)) == pytest.approx(nk.opnorm(B), rel=1e-14)

    # spectrum takes ||T|| first, then one rank test per repeated eigenvalue, then
    # cond(V) when every rank test passes: numpy's cond, read off the same step
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 4 * np.eye(4)
    jordan = np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex)
    jordan[0, 1] = 1.0
    for D, diagonalizable in ((np.diag([1.0, 1.0, 2.0, 3.0]), True), (jordan, False)):
        T = G @ D @ np.linalg.inv(G)
        want = nk.spectrum(T)
        if diagonalizable:
            assert want.eigvec_condition == np.linalg.cond(want.eigenvectors, 2)
        for skip in (1, 2) if diagonalizable else (1,):
            got = after_one_failure(lambda: nk.spectrum(T), skip=skip)
            assert got.diagonalizable == want.diagonalizable == diagonalizable
            assert np.array_equal(got.eigenvalues, want.eigenvalues) and got.norm == want.norm
            assert got.eigvec_condition == pytest.approx(want.eigvec_condition, rel=1e-12)

    # the Kronecker fallback, for two matrices neither of which is diagonalizable:
    # its null-space SVD, then the first SVD of its maximal-rank search
    J = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    want = nk.sylvester_intertwiners(J, J)
    shapes = []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: shapes.append(a.shape) or svd(a, *args, **kwargs))
    nk.sylvester_intertwiners(J, J)
    monkeypatch.setattr(np.linalg, "svd", svd)
    kron = shapes.index((9, 9))
    for skip in (kron, kron + 1):
        got = after_one_failure(lambda: nk.sylvester_intertwiners(J, J), skip=skip)
        assert want.kernel is not None and (got.dimension, got.rank) == (want.dimension, want.rank) == (5, 3)
        assert nk.subspace_distance(nk.Subspace(9, got.kernel), nk.Subspace(9, want.kernel)) <= 1e-12
        G1 = got.max_rank_element
        assert nk.frob(G1 @ J - J @ G1) <= 1e-12 * nk.opnorm(G1)

    def svd_index(call, target):
        """The index of call()'s first SVD of ``target``."""
        inputs = []
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: inputs.append(a) or svd(a, *args, **kwargs))
        call()
        monkeypatch.setattr(np.linalg, "svd", svd)
        return next(i for i, a in enumerate(inputs) if a.shape == target.shape and np.array_equal(a, target))

    # wsimilar_forms reads X^(+-1) off the SVD of the similarity G, and
    # bounded_S_checks G^(-1) and X^(+-1/2) off the SVD of the intertwiner G
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 4 * np.eye(4)
    S = np.diag([1.0, 2.0, 3.0, 4.0])
    T = np.linalg.solve(G, S @ G)  # G T = S G
    want = wsimilar_forms(T)
    skip = svd_index(lambda: wsimilar_forms(T), psd_similarity_decide(T).G)
    got = after_one_failure(lambda: wsimilar_forms(T), skip=skip)
    for name in ("X", "S", "X1", "B1", "X2", "B2", "W", "Z"):
        assert nk.frob(getattr(got, name) - getattr(want, name)) <= 1e-10 * nk.frob(getattr(want, name)), name
    assert got.plusdot_ok == want.plusdot_ok
    want = bounded_S_checks(T, G, S)
    got = after_one_failure(lambda: bounded_S_checks(T, G, S), skip=svd_index(lambda: bounded_S_checks(T, G, S), G))
    assert want.all_passed and got.all_passed
    assert [it.name for it in got.items] == [it.name for it in want.items]
    assert [it.tol for it in got.items] == pytest.approx([it.tol for it in want.items], rel=1e-12)


LEVELS = (0.0, 0.5, 1.5, 2.5)
SYLVESTER_FAMILIES = ("hermitian", "diagonal", "nonnormal", "jordan_T", "jordan_S", "jordan_both", "equal")


def _planted(rng, vals, jordan):
    """G J G^-1 with J = diag(vals) sorted, linked into Jordan blocks at some equal
    neighbours when ``jordan``; returns the matrix and whether a link was made."""
    vals = np.sort(vals)
    J = np.diag(vals).astype(complex)
    links = [i for i in range(len(vals) - 1) if vals[i] == vals[i + 1]]
    linked = False
    if jordan and links:
        for i in rng.choice(links, size=int(rng.integers(1, len(links) + 1)), replace=False):
            J[i, i + 1] = 1.0
        linked = True
    G = conditioned_invertible(rng, len(vals), 5.0)
    return G @ J @ np.linalg.inv(G), linked


def _sylvester_pair(rng, family):
    """(T, S, eigenvalues of T, of S); an eigenvalue list is None for a matrix with a Jordan block.

    Levels repeat and include 0; half the pairs share their spectrum with multiplicity.
    """
    n = int(rng.integers(1, 13))
    tv = rng.choice(LEVELS, size=n)
    sv = rng.permutation(tv) if rng.random() < 0.5 else rng.choice(LEVELS, size=n)
    T, t_jordan = _planted(rng, tv, family in ("jordan_T", "jordan_both"))
    if family == "hermitian":
        U = random_unitary(rng, n)
        S, s_jordan = (U * sv) @ U.conj().T, False
    elif family in ("diagonal", "jordan_T"):
        S, s_jordan = np.diag(sv).astype(complex), False
    elif family == "equal":
        kind = rng.integers(3)
        if kind == 2:
            tv = np.full(n, LEVELS[rng.integers(len(LEVELS))])
            T, t_jordan = _planted(rng, tv, False)
        elif kind == 1:
            T, t_jordan = _planted(rng, tv, True)
        S, s_jordan, sv = T, t_jordan, tv
    else:
        S, s_jordan = _planted(rng, sv, family in ("jordan_S", "jordan_both"))
    return T, S, None if t_jordan else tv, None if s_jordan else sv


def test_sylvester_matches_kronecker_reference():
    rng = np.random.default_rng(33)
    paths = Counter()
    for family in SYLVESTER_FAMILIES:
        for _ in range(75):
            T, S, eT, eS = _sylvester_pair(rng, family)
            n = T.shape[0]
            out = nk.sylvester_intertwiners(T, S)
            ref = sylvester_intertwiners_reference(T, S)
            assert (out.dimension, out.rank) == (len(ref.basis), ref.rank), (family, eT, eS)
            # the decider takes only targets S = S* >= 0: those of the PSD families
            # (LEVELS >= 0) and a planted S of one level, c I to rounding
            if family in ("hermitian", "diagonal", "jordan_T") or (eS is not None and len(set(eS)) == 1):
                assert quasiaffine_decide(T, S).affine == (ref.rank == n), family
            else:
                with pytest.raises(HypothesisError):
                    quasiaffine_decide(T, S)
            scale = 1e-12 * (1.0 + nk.opnorm(T) + nk.opnorm(S))
            basis = out.basis_matrices()
            assert len(basis) == out.dimension
            for G in basis + [out.max_rank_element]:
                assert nk.frob(G @ T - S @ G) <= scale * nk.opnorm(G), family
            if eT is not None or eS is not None:
                # one side diagonalizable: eigenspace form, no Kronecker matrix
                assert out.kernel is None, family
            if eT is not None and eS is not None:
                assert out.dimension == sylvester_dimension(eT, eS), family
            paths[family, "kronecker" if out.kernel is not None else "eigenspaces"] += 1
    assert paths["jordan_both", "kronecker"] >= 50 and paths["jordan_S", "eigenspaces"] == 75, paths


def test_sylvester_jordan_blocks():
    # J(k) against another similarity of J(k): the space is the polynomials in the
    # shift, of dimension k and full rank.  Computed eigenvalues of J(k) spread by
    # about eps^(1/k) ||T||, which splits J(k) under any fixed clustering distance
    # once k is large enough.
    rng = np.random.default_rng(36)
    for k in range(2, 11):
        for mu in rng.choice(LEVELS, size=3):
            J = mu * np.eye(k) + np.eye(k, k=1)
            G, H = conditioned_invertible(rng, k, 5.0), conditioned_invertible(rng, k, 5.0)
            T, S = G @ J @ np.linalg.inv(G), H @ J @ np.linalg.inv(H)
            out = nk.sylvester_intertwiners(T, S)
            ref = sylvester_intertwiners_reference(T, S)
            assert (out.dimension, out.rank) == (len(ref.basis), ref.rank) == (k, k), (k, mu)


def _norm_rule_cases(rng):
    """Seeded real and complex matrices of several shapes, rank-1 ones (where
    ||A|| = ||A||_F), single columns and rows, zero and empty matrices."""
    cases = [rng.standard_normal((m, n)) for m, n in ((3, 3), (5, 2), (2, 6), (8, 8))]
    cases += [rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for m, n in ((4, 4), (3, 7))]
    cases += [np.outer(rng.standard_normal(m), rng.standard_normal(n)) for m, n in ((4, 4), (2, 5), (6, 1))]
    cases += [rng.standard_normal((5, 1)), rng.standard_normal((1, 5)), np.diag([3.0, 1.0, 0.5])]
    cases += [np.zeros((2, 3)), np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((0, 0))]
    return cases


def test_opnorm_holds_gives_the_svd_verdict_and_skips_the_svd_outside_the_bounds(monkeypatch):
    # max column norm <= ||A|| <= ||A||_F: bounds on each side of both cheap bounds
    # and of ||A||, and between them, give the verdict of opnorm(A) <= bound; an
    # SVD is taken exactly when the bound falls between the two cheap bounds
    svds = []
    opnorm = nk.opnorm
    monkeypatch.setattr(nk, "opnorm", lambda a: svds.append(a) or opnorm(a))
    between = 0
    for A in _norm_rule_cases(np.random.default_rng(45)):
        col = np.linalg.norm(A, axis=0).max(initial=0.0)
        norm, fro = opnorm(A), nk.frob(A)
        assert col <= norm * (1 + 1e-12) and norm <= fro * (1 + 1e-12)
        bounds = [v * f for v in (col, norm, fro) for f in (1 - 1e-6, 1 + 1e-6)]
        bounds += [0.0, -1.0, 2.0 * fro + 1.0]
        # midpoints of bounds more than rounding apart (||A|| = ||A||_F at rank 1)
        bounds += [0.5 * (lo + hi) for lo, hi in ((col, norm), (norm, fro)) if hi - lo > 1e-6 * hi]
        for bound in bounds:
            svds.clear()
            assert nk.opnorm_holds(A, lambda x: x <= bound) == (norm <= bound), (A, bound)
            assert bool(svds) == (col <= bound < fro), (A, bound)
            between += bool(svds)
    assert between >= 10, between


def test_subspace_contains_keeps_the_residual_verdict():
    # subspace_contains decides ||(I - P_big) S|| <= tol by opnorm_holds
    # on two-dimensional small spaces, whose residual lies strictly between its bounds
    rng = np.random.default_rng(46)
    for _ in range(20):
        n = int(rng.integers(4, 8))
        big = nk.span(rng.standard_normal((n, int(rng.integers(2, n - 1)))))
        small = nk.span(big.basis @ rng.standard_normal((big.dim, 2)) + 1e-3 * rng.standard_normal((n, 2)))
        resid = nk.subspace_containment_residual(big, small)
        for tol in (resid * (1 - 1e-9), resid * (1 + 1e-9), 1e-8, 1.0):
            assert nk.subspace_contains(big, small, tol) == (resid <= tol)


def test_subspace_operations():
    rng = np.random.default_rng(40)
    a = nk.span(rng.standard_normal((5, 2)))
    b = nk.span(np.hstack([a.basis, rng.standard_normal((5, 1))]))
    assert nk.subspace_contains(b, a)
    assert not nk.subspace_contains(a, b)
    inter = nk.subspace_intersect(a, b)
    assert inter.dim == 2
    comp = nk.subspace_complement(a)
    assert comp.dim == 3
    assert nk.subspace_intersect(a, comp).dim == 0
    assert nk.subspace_distance(nk.span(np.hstack([a.basis, comp.basis])), nk.full_space(5)) <= 1e-8


def test_subspace_distance_matches_reference():
    # the residual on the bases against the projector difference, which is 1
    # up to rounding when the dimensions differ
    rng = np.random.default_rng(41)
    pairs = []
    for n in range(1, 8):
        pairs += [(nk.zero_space(n), nk.zero_space(n)), (nk.zero_space(n), nk.full_space(n))]
        pairs.append((nk.full_space(n), nk.span(rng.standard_normal((n, n)))))
        for ka in range(n + 1):
            a = nk.span(rng.standard_normal((n, ka)), ambient_dim=n)
            kb = int(rng.integers(0, n + 1))
            pairs.append((a, nk.span(rng.standard_normal((n, kb)), ambient_dim=n)))
            pairs.append((a, a))
            if ka:
                eps = 10.0 ** rng.uniform(-12, -4)
                pairs.append((a, nk.span(a.basis + eps * rng.standard_normal((n, ka)))))
    for a, b in pairs:
        got, want = nk.subspace_distance(a, b), subspace_distance_reference(a, b)
        if a.dim != b.dim:
            assert got == 1.0 and abs(want - 1.0) <= 1e-14, (a.dim, b.dim, want)
        else:
            assert abs(got - want) <= 1e-14, (a.dim, got, want)


def test_require_square_guard():
    with pytest.raises(NotSquare):
        nk.spectrum(np.zeros((2, 3)))
