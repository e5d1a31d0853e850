"""Dense linear-algebra kernel over the reals or the complex numbers.

Everything downstream (relations, theorem engines, the diagonal model's
truncations) is built on the handful of primitives here: Hermitian
eigendecomposition, Moore-Penrose inverses, PSD fractional powers, the
Loewner order, spectra with a diagonalizability verdict, and Sylvester
intertwiner spaces.  Matrices are plain ``numpy`` arrays, and
:func:`as_matrix` alone chooses their dtype: ``float64`` when every entry is
real (a complex array whose imaginary parts are all zero included),
``complex128`` otherwise.  Real problems, such as the diagonal truncations,
thus run LAPACK's real drivers, about four times cheaper than the complex
ones; mixed operands promote by numpy's rules, and no engine branches on the
dtype.  A :class:`Subspace` is an orthonormal column basis, and subspaces are
measured through their ``n x k`` bases: no ``n x n`` projection is formed.
``factor`` reads G^(-1) and the powers of G*G for an invertible intertwiner
G off one SVD of G, with no cut; :func:`psd_power` of G*G would drop the
singular values of G below 1e-5 s_max.

Six global conventions keep kernels consistent across operations:

* rank threshold: singular/eigen values below ``RANK_RTOL`` times the largest
  one are treated as zero everywhere (kernels, pseudo-inverses, PSD powers),
  by :func:`numerical_rank` for singular values and by :func:`psd_live` for
  a gated spectrum, whose kernel holds every eigenvalue that is not live,
  the negative ones the gate tolerated too.  Where a matrix can be rounding
  dust on the scale of its inputs, the cut is an absolute floor on that
  scale instead: :func:`sylvester_intertwiners` (and its Hermitian form)
  cuts the kernels of ``S - mu`` and ``(T - mu)*`` and clusters eigenvalues
  at ``RANK_RTOL * max(||T||, ||S||)``, so ``T - mu = 0`` to rounding has
  the full kernel rather than one measured against its own dust;
* a tolerance comes only from the call (default ``DEFAULT_TOL``, relative
  Frobenius for identity checks); a :class:`Subspace` carries none;
* one PSD gate, :func:`hermitian_eig`, returns the spectrum it tested.  H
  passes when ||H - H*||_F <= tol (1 + ||H||_F) and its smallest eigenvalue
  is >= -tol (1 + ||H||), with ||H|| the largest |eigenvalue|; a solve gates
  its matrix once, and callers that decide on a spectrum take it from the
  gate instead of decomposing again; :func:`is_hermitian` and
  :func:`is_psd_spectrum` state the two tests once for every caller, and
  ``_hermitian_diagonal`` applies the PSD gate to a diagonal matrix, whose
  spectrum needs no decomposition;
* one SVD step: ranges, kernels, pseudo-inverses, spans, ranks, spectral
  norms (:func:`opnorm`, the rank tests and cond(V) of :func:`spectrum`),
  orthogonal complements, the Kronecker fallback of
  :func:`sylvester_intertwiners` and ``factor``'s SVDs of an intertwiner
  all take their SVD from :func:`svd`, which retries once on A* when LAPACK
  fails to converge on A (zgesdd can fail on a matrix whose adjoint it
  decomposes);
* one Cholesky-first PSD residual: a check that H >= 0 reports
  :func:`psd_deficit`, max(0, -lambda_min(H)), which is 0.0 when one
  Cholesky factorization of H succeeds and takes ``eigvalsh`` only when it
  fails, so a check that passes costs no spectrum.  Cholesky is called
  nowhere else;
* one bounds-first norm verdict: a test of a spectral norm whose verdict
  alone is read (a kernel leak against tol (1 + ||T||), a containment
  residual, a selfadjointness gap) is decided by :func:`opnorm_holds` on the
  bounds max column norm <= ||A|| <= ||A||_F, with an SVD only when the
  verdict falls between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPSD, NotSquare

RANK_RTOL = 1e-10
DEFAULT_TOL = 1e-8

__all__ = [
    "RANK_RTOL",
    "DEFAULT_TOL",
    "HermEig",
    "Spectrum",
    "Intertwiners",
    "Subspace",
    "SvdSplit",
    "as_matrix",
    "frob",
    "opnorm",
    "opnorm_holds",
    "herm",
    "is_hermitian",
    "is_psd_spectrum",
    "hermitian_eig",
    "psd_live",
    "psd_power",
    "moore_penrose",
    "loewner_leq",
    "psd_deficit",
    "spectrum",
    "sylvester_intertwiners",
    "hermitian_intertwiners",
    "hausdorff_distance",
    "numerical_rank",
    "svd",
    "svd_split",
    "matrix_rank",
    "kernel_basis",
    "span",
    "full_space",
    "zero_space",
    "subspace_intersect",
    "subspace_complement",
    "subspace_contains",
    "subspace_distance",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d array: float64 when every entry is real, else complex128.

    Real input (booleans, integers, floats) is converted to float64 directly.
    Anything else is read as complex128, and becomes its float64 real part
    when no imaginary part is nonzero, so a real problem is decomposed by
    LAPACK's real drivers whether it arrives as real or as complex data.
    """
    m = np.asarray(a)
    if m.dtype.kind in "biuf":
        m = m.astype(np.float64, copy=False)
    else:
        m = m.astype(np.complex128, copy=False)
        if not m.imag.any():
            m = m.real.copy()
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def frob(a) -> float:
    """Frobenius norm; of a vector d, the Euclidean norm, which is that of diag(d)."""
    return float(np.linalg.norm(a))


def opnorm(a) -> float:
    """Spectral norm ||a||, the largest singular value from the SVD step; 0.0 for a zero matrix."""
    a = np.asarray(a)
    if a.size == 0 or not a.any():
        return 0.0
    return float(svd(a, uv=False)[0])


def opnorm_holds(a, test) -> bool:
    """test(||a||) for a test that holds up to some norm and fails beyond it, read off bounds first.

    max column norm <= ||a|| <= ||a||_F: the verdict is false when the test
    fails at the column bound and true when it holds at the Frobenius bound;
    only between the two is ||a|| taken, by :func:`opnorm`.
    """
    a = np.asarray(a)
    if not test(np.linalg.norm(a, axis=0).max(initial=0.0)):
        return False
    return test(frob(a)) or test(opnorm(a))


def herm(a) -> np.ndarray:
    """Hermitian part (a + a*)/2."""
    a = as_matrix(a)
    return 0.5 * (a + a.conj().T)


def _require_square(a, who):
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"{who}: expected square matrix, got {a.shape}")


def is_hermitian(H, tol: float) -> bool:
    """The Hermitian test of the gate: ||H - H*||_F <= tol (1 + ||H||_F); a vector H stands for diag(H)."""
    return frob(H - H.conj().T) <= tol * (1.0 + frob(H))


def is_psd_spectrum(w, tol: float) -> bool:
    """The PSD test of the gate on ascending eigenvalues w: w[0] >= -tol (1 + max |w|); true for none."""
    return not w.size or bool(w[0] >= -tol * (1.0 + max(-w[0], w[-1])))


def _require_hermitian(a, tol, who, error=NotHermitian):
    if not is_hermitian(a, tol):
        raise error(f"{who}: deviation from Hermitian {frob(a - a.conj().T):.3e} exceeds tolerance")


def _require_psd_spectrum(w, tol, who, error):
    if not is_psd_spectrum(w, tol):
        raise error(f"{who}: min eigenvalue {w[0]:.3e} below -tol*(1 + ||H||)")


@dataclass(frozen=True)
class HermEig:
    """Spectral decomposition H = V diag(w) V* with w ascending, V unitary, and ||H|| = max |w|."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    norm: float


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by (real, imag), the matching eigenvector columns,
    the spectral norm ||T||, the singular values of T it was read off
    (descending; zeros for T = 0) and the cluster radius 100 tol ||T|| it scaled."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    diagonalizable: bool
    eigvec_condition: float
    norm: float
    singular_values: np.ndarray
    cluster_radius: float


@dataclass(frozen=True)
class Intertwiners:
    """The space {G : G T = S G}, its dimension, maximal rank and an element of that rank.

    In eigenspace form the space is {sum_mu R_mu C_mu L_mu* : C_mu arbitrary}
    over the ``blocks`` (R_mu, L_mu), one per shared eigenvalue cluster mu,
    with R_mu an orthonormal basis of ker(S - mu) and L_mu one of
    ker((T - mu)*).  Otherwise ``kernel`` holds the vectorized space, one
    column per basis element (a p x n matrix in column-major order).  Dense
    basis matrices are built only by :meth:`basis_matrices`.
    """

    dimension: int
    rank: int
    max_rank_element: np.ndarray
    blocks: tuple = ()
    kernel: np.ndarray | None = None

    def basis_matrices(self) -> list:
        """The dimension-many basis matrices: R_mu[:, i] L_mu[:, j]* per block, or the kernel columns."""
        p, n = self.max_rank_element.shape
        if self.kernel is not None:
            return [self.kernel[:, j].reshape((p, n), order="F") for j in range(self.kernel.shape[1])]
        return [np.outer(r, l.conj()) for R, L in self.blocks for r in R.T for l in L.T]


def hermitian_eig(H, tol: float = DEFAULT_TOL, who: str = "hermitian_eig", error=NotPSD) -> HermEig:
    """Eigendecomposition of a Hermitian PSD matrix, eigenvalues ascending: the package's one PSD gate.

    Raises ``error`` when ||H - H*||_F > tol (1 + ||H||_F) or when the smallest
    eigenvalue is below -tol (1 + max |eigenvalue|); NoConvergence if LAPACK fails.
    """
    H = as_matrix(H)
    _require_square(H, who)
    _require_hermitian(H, tol, who, error)
    try:
        w, v = np.linalg.eigh(0.5 * (H + H.conj().T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    _require_psd_spectrum(w, tol, who, error)
    return HermEig(eigenvalues=w, eigenvectors=v, norm=float(max(-w[0], w[-1])) if w.size else 0.0)


def psd_live(w) -> np.ndarray:
    """The kernel rule on a spectrum w that passed the PSD gate, in any order: live where
    w > RANK_RTOL max |w|, kernel elsewhere, a negative w that the gate tolerated included."""
    return w > RANK_RTOL * np.abs(w).max(initial=0.0)


def _hermitian_diagonal(d, tol: float, who: str, error) -> np.ndarray:
    """The PSD gate of :func:`hermitian_eig` on diag(d), which takes no decomposition.

    d is read as :func:`as_matrix` reads a matrix: finite, and float64 unless
    an imaginary part is nonzero.  The tests and messages are the gate's:
    ||d - conj(d)|| <= tol (1 + ||d||), then the PSD test on the eigenvalues
    of the Hermitian part, the real parts of d in ascending order.  Returns d
    so read, in its own order.
    """
    d = as_matrix(np.asarray(d)[np.newaxis])[0]
    _require_hermitian(d, tol, who, error)
    _require_psd_spectrum(np.sort(d.real), tol, who, error)
    return d


def psd_power(P, alpha: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Spectral power P^alpha of a PSD matrix, from the eigh of its PSD gate.

    Kernel eigenvalues (:func:`psd_live`) are treated as exact zeros and stay
    zero for every alpha (for alpha < 0 this is the power of the
    Moore-Penrose inverse acting on ran P).
    """
    eig = hermitian_eig(P, tol, who="psd_power")
    w, v = eig.eigenvalues, eig.eigenvectors
    live = psd_live(w)
    wa = np.zeros_like(w)
    wa[live] = w[live] ** alpha
    return (v * wa) @ v.conj().T


def moore_penrose(T) -> np.ndarray:
    """Moore-Penrose pseudo-inverse at the global rank threshold (see :func:`svd_split`)."""
    return svd_split(T).pinv


def loewner_leq(P, Q, tol: float = DEFAULT_TOL):
    """Decide P <= Q in the Loewner order for Hermitian P, Q.

    Returns (flag, margin) where margin is the smallest eigenvalue of Q - P
    and flag is the gate's PSD test (:func:`is_psd_spectrum`) on the
    eigenvalues of Q - P.
    """
    P, Q = as_matrix(P), as_matrix(Q)
    if P.shape != Q.shape:
        raise NotSquare(f"loewner_leq: shape mismatch {P.shape} vs {Q.shape}")
    _require_hermitian(P, tol, "loewner_leq")
    _require_hermitian(Q, tol, "loewner_leq")
    w = np.linalg.eigvalsh(herm(Q - P))
    return is_psd_spectrum(w, tol), float(w[0]) if w.size else 0.0


def psd_deficit(H) -> float:
    """max(0, -lambda_min(H)) for a Hermitian H, Cholesky first.

    A Cholesky factorization of H succeeds only when H is positive definite
    to rounding, and then the deficit is 0.0 with no spectrum taken; only
    when it fails does ``eigvalsh`` give the true deficit, about 0 for a
    singular PSD H.
    """
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return max(0.0, -float(np.linalg.eigvalsh(H)[0]))
    return 0.0


def _clusters(values, ctol) -> list:
    """Greedy chain clustering of complex values at distance ctol: (index run, mean) in (real, imag) order."""
    order = np.lexsort((values.imag, values.real))
    gaps = np.abs(np.diff(values[order])) > ctol
    runs = np.split(order, np.flatnonzero(gaps) + 1) if order.size else []
    return [(run, sum(values[run]) / len(run)) for run in runs]


def spectrum(T, tol: float = DEFAULT_TOL) -> Spectrum:
    """Eigenvalues of T plus a rank-test diagonalizability verdict.

    Eigenvalues within the cluster radius 100*tol*||T|| of each other are
    clustered; T is diagonalizable iff for each cluster (mean value lam,
    multiplicity m) rank(T - lam I) = n - m, ranks taken at the same radius,
    and cond(V) = s_max/s_min <= 1/RANK_RTOL for the eigenvector matrix V
    (inf when s_min = 0): a Jordan block of size 3 or more scatters its
    eigenvalue past the clustering, and only cond(V) shows it.
    """
    T = as_matrix(T)
    _require_square(T, "spectrum")
    n = T.shape[0]
    if not n:
        raise ValueError("spectrum: empty matrix")
    try:
        w, v = np.linalg.eig(T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    sv = svd(T, uv=False) if T.any() else np.zeros(n)
    norm = float(sv[0])
    dtol = 100.0 * tol * max(norm, 1e-300)
    diagonalizable = True
    for run, lam in _clusters(w, dtol):
        if len(run) == 1:
            continue
        s = svd(T - lam * np.eye(n), uv=False)
        rank = int(np.count_nonzero(s > dtol))
        if rank != n - len(run):
            diagonalizable = False
            break
    cond = float("inf")
    if diagonalizable:
        s = svd(v, uv=False)
        cond = float(s[0] / s[-1]) if s[-1] else cond
    return Spectrum(eigenvalues=w, eigenvectors=v, diagonalizable=cond <= 1.0 / RANK_RTOL, eigvec_condition=cond,
                    norm=norm, singular_values=sv, cluster_radius=dtol)


_KRONECKER_COMBOS = 64


def sylvester_intertwiners(T, S, tol: float = DEFAULT_TOL) -> Intertwiners:
    """The Sylvester space {G : G T = S G} from the eigenspaces of S or T.

    Every G = sum_mu R_mu C_mu L_mu*, with R_mu an orthonormal basis of
    ker(S - mu) and L_mu one of ker((T - mu)*), intertwines; when S or T is
    diagonalizable these are all of them.  The space then has dimension
    sum dim R_mu dim L_mu and maximal rank sum min(dim R_mu, dim L_mu),
    attained by G = sum R_mu[:, :r] L_mu[:, :r]*.  The clusters mu are S's
    eigenvalues when ``spectrum(S, tol)`` calls S diagonalizable and the
    R_mu together are a basis of C^p (full rank by :func:`numerical_rank`),
    else T's when the same holds for T and the L_mu in C^n.  Kernels and
    clusters are cut at the one absolute floor ``RANK_RTOL * max(||T||, ||S||)``.

    Only when neither matrix qualifies is the space the null space of the
    pn x pn map G -> G T - S G (cut at the same floor), and the maximal-rank
    element the best of ``_KRONECKER_COMBOS`` random unit combinations of its
    basis, drawn from a fixed seed (maximal rank holds on a Zariski-open
    set); ties in rank go to the larger smallest retained singular value.
    """
    T, S = as_matrix(T), as_matrix(S)
    _require_square(T, "sylvester_intertwiners")
    _require_square(S, "sylvester_intertwiners")
    spec_S = spectrum(S, tol)
    floor = RANK_RTOL * max(opnorm(T), spec_S.norm)
    if spec_S.diagonalizable:
        blocks = _eigenspace_blocks(spec_S.eigenvalues, T, S, floor)
        if _fills([R for R, _ in blocks]):
            return _from_blocks(blocks, S.shape[0], T.shape[0])
    spec_T = spectrum(T, tol)
    if spec_T.diagonalizable:
        blocks = _eigenspace_blocks(spec_T.eigenvalues, T, S, floor)
        if _fills([L for _, L in blocks]):
            return _from_blocks(blocks, S.shape[0], T.shape[0])
    return _kronecker_intertwiners(T, S, floor)


def hermitian_intertwiners(T, eig: HermEig, norm_T: float) -> Intertwiners:
    """:func:`sylvester_intertwiners` for a Hermitian S = V diag(w) V*, read off its eigh.

    Per cluster mu of w at the floor RANK_RTOL * max(||T||, ||S||), R_mu is
    its columns of V and L_mu is ker((T - mu)*) at the floor.  The R_mu
    together are V, so these blocks give the whole space whatever T is.
    ``norm_T`` is ||T||, which a caller deciding T and T* takes once.
    """
    T = as_matrix(T)
    _require_square(T, "hermitian_intertwiners")
    if not T.size:
        raise ValueError("hermitian_intertwiners: empty matrix")
    w, V = eig.eigenvalues, eig.eigenvectors
    floor = RANK_RTOL * max(norm_T, eig.norm)
    blocks = [
        (V[:, run], kernel_basis((T - mu * np.eye(T.shape[0])).conj().T, floor, rtol=0.0).basis)
        for run, mu in _clusters(w, floor)
    ]
    return _from_blocks(blocks, V.shape[0], T.shape[0])


def _fills(bases) -> bool:
    """Are the eigenspace bases together a basis of the whole space, by the rank rule?

    This also rejects a Jordan block of size 3 or more whose eigenvalues
    scatter beyond ``spectrum``'s clustering: each scattered value has a
    kernel of its own, but the kernels are nearly parallel.
    """
    V = np.hstack(bases)
    return V.shape[0] == V.shape[1] and matrix_rank(V) == V.shape[0]


def _eigenspace_blocks(eigenvalues, T, S, floor) -> list:
    """(ker(S - mu), ker((T - mu)*)) for each cluster mu of ``eigenvalues`` at the floor."""
    blocks = []
    for _, mu in _clusters(eigenvalues, floor):
        R = kernel_basis(S - mu * np.eye(S.shape[0]), floor, rtol=0.0).basis
        L = kernel_basis((T - mu * np.eye(T.shape[0])).conj().T, floor, rtol=0.0).basis
        blocks.append((R, L))
    return blocks


def _from_blocks(blocks, p, n) -> Intertwiners:
    blocks = tuple((R, L) for R, L in blocks if R.shape[1] and L.shape[1])
    G = np.zeros((p, n))
    rank = 0
    for R, L in blocks:
        r = min(R.shape[1], L.shape[1])
        G = G + R[:, :r] @ L[:, :r].conj().T
        rank += r
    dimension = sum(R.shape[1] * L.shape[1] for R, L in blocks)
    return Intertwiners(dimension=dimension, rank=rank, max_rank_element=G, blocks=blocks)


def _kronecker_intertwiners(T, S, floor) -> Intertwiners:
    """The fallback for two non-diagonalizable matrices: a null space of size pn x pn."""
    n, p = T.shape[0], S.shape[0]
    M = np.kron(T.T, np.eye(p)) - np.kron(np.eye(n), S)
    _, s, vh = svd(M)
    null = vh[numerical_rank(s, floor):, :].conj().T
    dim = null.shape[1]
    if not dim:
        return Intertwiners(dimension=0, rank=0, max_rank_element=np.zeros((p, n), dtype=null.dtype), kernel=null)
    rng = np.random.default_rng(0)
    best = None
    best_key = (-1, -1.0)
    for _ in range(_KRONECKER_COMBOS):
        c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        cand = (null @ (c / np.linalg.norm(c))).reshape((p, n), order="F")
        sv = svd(cand, uv=False)
        r = numerical_rank(sv)
        key = (r, float(sv[r - 1]) if r > 0 else 0.0)
        if key > best_key:
            best_key = key
            best = cand
    return Intertwiners(dimension=dim, rank=best_key[0], max_rank_element=best, kernel=null)


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite sets of complex numbers."""
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return float("inf")
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim held as an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def span(vectors, ambient_dim=None, atol: float = 0.0) -> Subspace:
    """Orthonormalize a spanning set of column vectors into a Subspace.

    ``atol`` is an absolute singular-value floor; pass it when the columns
    come from projections of orthonormal data, where an all-noise input must
    collapse to the zero subspace instead of being renormalized.
    """
    A = as_matrix(vectors) if np.asarray(vectors).size else np.zeros((ambient_dim or 0, 0))
    if ambient_dim is None:
        ambient_dim = A.shape[0]
    if A.shape[0] != ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if A.shape[1] == 0 or not A.any():
        return zero_space(ambient_dim)
    u, s, _ = svd(A, full=False)
    return Subspace(ambient_dim, u[:, : numerical_rank(s, atol)].copy())


def full_space(n: int) -> Subspace:
    return Subspace(n, np.eye(n))


def zero_space(n: int) -> Subspace:
    return Subspace(n, np.zeros((n, 0)))


def numerical_rank(s, atol: float = 0.0, rtol: float = RANK_RTOL) -> int:
    """The rank rule: how many descending singular values s exceed max(rtol s[0], atol)."""
    return int(np.count_nonzero(s > max(rtol * s[0], atol))) if s.size else 0


@dataclass(frozen=True)
class SvdSplit:
    """A = U_r diag(s_r) V_r*: ran = span U_r, ker = (span V_r)^perp, pinv = V_r diag(1/s_r) U_r*,
    and the kept singular values s_r, descending."""

    ran: Subspace
    ker: Subspace
    pinv: np.ndarray
    values: np.ndarray


def svd(A, full=None, uv: bool = True):
    """u, s, vh of A, or s alone when ``uv`` is off; on non-convergence, from A*'s SVD.

    ``full`` None gives u thin and vh n x n, so ker A reads off vh; True
    gives both square, so (ran A)^perp reads off u; False gives both thin.
    """
    full = A.shape[0] < A.shape[1] if full is None else full
    try:
        return np.linalg.svd(A, full_matrices=full, compute_uv=uv)
    except np.linalg.LinAlgError:
        if not uv:
            return np.linalg.svd(A.conj().T, compute_uv=False)
        v, s, uh = np.linalg.svd(A.conj().T, full_matrices=full)
        return uh.conj().T, s, v.conj().T


def svd_split(A, atol: float = 0.0, rank=None) -> SvdSplit:
    """Range, kernel and pseudo-inverse of A from one SVD, cut by :func:`numerical_rank`.

    ``atol`` is an absolute floor for data on the scale of an orthonormal
    basis, where a block of pure rounding dust must count as zero.  ``rank``,
    a function of the descending singular values, replaces the rule.
    """
    A = as_matrix(A)
    m, n = A.shape
    if A.size == 0 or not A.any():
        return SvdSplit(zero_space(m), full_space(n), np.zeros((n, m)), np.zeros(0))
    u, s, vh = svd(A)
    r = numerical_rank(s, atol) if rank is None else rank(s)
    v = vh.conj().T
    return SvdSplit(
        ran=Subspace(m, u[:, :r].copy()),
        ker=Subspace(n, v[:, r:].copy()),
        pinv=(v[:, :r] / s[:r]) @ u[:, :r].conj().T,
        values=s[:r],
    )


def matrix_rank(A, atol: float = 0.0) -> int:
    A = as_matrix(A)
    return numerical_rank(svd(A, uv=False), atol) if A.any() else 0


def kernel_basis(A, atol: float = 0.0, rtol: float = RANK_RTOL) -> Subspace:
    """Orthonormal basis of ker A by :func:`numerical_rank`, off the SVD step of :func:`svd_split`."""
    A = as_matrix(A)
    n = A.shape[1]
    if A.size == 0 or not A.any():
        return full_space(n)
    _, s, vh = svd(A)
    return Subspace(n, vh[numerical_rank(s, atol, rtol):].conj().T.copy())


def subspace_complement(sp: Subspace) -> Subspace:
    if sp.dim == 0:
        return full_space(sp.ambient_dim)
    if sp.dim == sp.ambient_dim:
        return zero_space(sp.ambient_dim)
    u, _, _ = svd(sp.basis, full=True)
    return Subspace(sp.ambient_dim, u[:, sp.dim:].copy())


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via one null-space computation on [B_a | -B_b]."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return zero_space(a.ambient_dim)
    null = kernel_basis(np.hstack([a.basis, -b.basis])).basis
    return span(a.basis @ null[: a.dim, :], ambient_dim=a.ambient_dim)


def subspace_contains(big: Subspace, small: Subspace, tol: float = DEFAULT_TOL) -> bool:
    """small <= big, decided by the projection residual of small's basis by :func:`opnorm_holds`."""
    return opnorm_holds(_leftover(big, small), lambda r: r <= tol)


def subspace_containment_residual(big: Subspace, small: Subspace) -> float:
    """||(I - P_big) S|| = ||S - B (B* S)|| on the bases B of big, S of small (0 when small = {0})."""
    return opnorm(_leftover(big, small))


def _leftover(big: Subspace, small: Subspace) -> np.ndarray:
    """(I - P_big) S = S - B (B* S) on the bases B of big, S of small."""
    B, S = big.basis, small.basis
    return S - B @ (B.conj().T @ S)


def subspace_distance(a: Subspace, b: Subspace) -> float:
    """Spectral-norm gap ||P_a - P_b||: 1 when the dimensions differ, else ||(I - P_a) B||
    on b's basis B, the sine of the largest principal angle (Golub & Van Loan, 2.5.3)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return subspace_containment_residual(a, b) if a.dim == b.dim else 1.0
