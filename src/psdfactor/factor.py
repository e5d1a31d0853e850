"""Decide-and-certify engines for products of nonnegative selfadjoint factors.

Each operation decides one constructive equivalence about writing an operator
as a product with PSD factors and returns a certificate carrying the built
objects and their residuals:

* ``douglas_solve`` - majorization T*T <= c^2 B*B <-> a bounded left factor;
* ``seb_solve`` / ``seb_relation_solve`` - the inequality T*T <= lambda T*B
  and its minimal constant, with the PSD factor X built from the contraction
  G0 of the range construction, both from one eigendecomposition of the
  form of M = T*B in ``_seb_factor`` (one kernel-leak rule, norm_X = lambda*);
* ``reverse_solve`` - the reversed inequality T*T >= eta B0-bar T (B*T
  selfadjoint nonnegative, ker B* <= ker T* + mul T), which is one forward
  relation solve of ((T*)^(-1), (B*)^(-1)) read through the unitary graph
  swap (x; y) -> (y; x): the dual's gates, eta* = 1/lambda*, Y = X^(-1) and
  the dual's residuals;
* similarity and intertwining deciders (``psd_similarity_decide``,
  ``wsimilar_forms``, ``quasiaffine_decide``, ``quasisimilar_decide``), which
  return their intertwiners, and the package builders ``inclusionnfs_package``
  and ``tba_package``, which reconstruct T in a product class from one such
  intertwiner and the PSD target.

Hypothesis gates (e.g. T*B Hermitian PSD) raise, they never report
infeasible: conflating them would corrupt the two-sided equivalence tests.
Identities built through an inverse intertwiner are checked at tolerances
scaled by cond(G)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .errors import (
    HypothesisFailed,
    NoConvergence,
    NotIntertwining,
    NotInvertible,
    NotScalarNonneg,
    NotSquare,
)
from .linrel import (
    LinRel,
    as_relation,
    operator_part_cokernel,
    operator_part_relation,
    rel_adjoint,
    rel_classify,
    rel_compose,
    rel_containment_residual,
    rel_distance,
    rel_from_matrix,
    rel_inverse,
    rel_parts,
    rel_plusdot,
    rel_restrict,
)
from .numkernel import (
    DEFAULT_TOL,
    RANK_RTOL,
    as_matrix,
    frob,
    herm,
    hausdorff_distance,
    kernel_basis,
    opnorm,
    psd_power,
    spectrum,
    subspace_contains,
    subspace_intersect,
    svd_split,
)

__all__ = [
    "SebCertificate",
    "ReverseCertificate",
    "DouglasSolution",
    "PsdSimilarity",
    "WSimilarForms",
    "QAPackage",
    "PowerChain",
    "LdeuxCertificate",
    "QuasiAffinity",
    "QuasiSimilarity",
    "CheckItem",
    "BoundedSReport",
    "douglas_solve",
    "seb_solve",
    "seb_relation_solve",
    "reverse_solve",
    "ldeux_certify",
    "psd_similarity_decide",
    "wsimilar_forms",
    "presimilar_S",
    "spectra_swap_check",
    "inclusionnfs_package",
    "tba_package",
    "quasiaffine_decide",
    "quasisimilar_decide",
    "bounded_S_checks",
    "power_chain",
]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class SebCertificate:
    """Verdict and witnesses for T*T <= lambda T*B.

    When feasible, X is PSD with norm_X = ||X|| = lambda_star, ker X = ker T*,
    and X B = T (matrices) resp. X B0-bar contained in T (relations); G0 is
    the contraction of the construction.  Both engines call it infeasible
    when ||T_s D V_ker|| > tol (1 + ||T_s D||), D a basis of dom M, M = T*B,
    V_ker of the kernel of M's form (matrices report this leak as
    ``kernel_obstruction``), relations also when dom M is not inside dom T.
    ``checks`` carries named residuals and the tolerance each was tested at.
    """

    feasible: bool
    lambda_star: float
    X: np.ndarray | None
    G0: np.ndarray | None
    residual_xb_t: float
    norm_X: float
    checks: dict = field(default_factory=dict)


@dataclass
class ReverseCertificate:
    """Verdict and witnesses for the reversed inequality T*T >= eta B0-bar T.

    Posed under B*T selfadjoint nonnegative and ker B* <= ker T* + mul T.
    Y is a relation (generally unbounded/multivalued) whose inverse is a
    bounded PSD matrix; eta_star is the maximal constant, the reciprocal of
    the minimal constant of the inverted forward problem.  ``residuals`` are
    that forward certificate's, read through the graph swap (x; y) -> (y; x),
    which keeps relation distances: ``restricted_product_chain``,
    ``adjoint_factorization`` and ``adjoint_operator_factorization`` (its
    ``equality_mode``), ``mul_Y_matches`` (its ``ker_X_equals_ker_Ts_adj``),
    ``dual_lambda_star`` and ``tol``.
    """

    feasible: bool
    eta_star: float
    Y: LinRel | None
    residuals: dict = field(default_factory=dict)


@dataclass
class DouglasSolution:
    feasible: bool
    Y: np.ndarray | None
    c: float


@dataclass
class PsdSimilarity:
    accept: bool
    G: np.ndarray | None
    S: np.ndarray | None


@dataclass
class WSimilarForms:
    X: np.ndarray
    S: np.ndarray
    X1: np.ndarray
    B1: np.ndarray
    X2: np.ndarray
    B2: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    plusdot_ok: bool
    checks: dict = field(default_factory=dict)


@dataclass
class QAPackage:
    """Reconstruction package from a quasi-affinity certificate.

    adjoint_side: A = G*G and B_F = G^(-1) S (G^(-1))* with A B_F = T.
    direct_side:  A = (G*G)^(-1) (the bounded factor) and A_F = G* S G with
    T = A A_F.  Intermediates of the direct construction live in diagnostics.
    """

    direction: str
    G: np.ndarray
    S: np.ndarray
    A: np.ndarray
    B_F: np.ndarray | None
    A_F: np.ndarray | None
    diagnostics: dict = field(default_factory=dict)


@dataclass
class PowerChain:
    S_seq: list
    residuals: list
    psd_margins: list


@dataclass
class LdeuxCertificate:
    in_class: bool
    A: np.ndarray | None
    B: np.ndarray | None
    Y: np.ndarray | None
    residual: float


@dataclass
class QuasiAffinity:
    affine: bool
    G: np.ndarray | None
    space_dim: int


@dataclass
class QuasiSimilarity:
    """G1 T = S G1 and G2 T* = S G2, both invertible when ``similar_pair``, and
    ``checks``: the duality residual ||G2* S - T G2*|| with its tol."""

    similar_pair: bool
    G1: np.ndarray | None
    G2: np.ndarray | None
    checks: dict = field(default_factory=dict)


@dataclass
class CheckItem:
    name: str
    residual: float
    tol: float
    passed: bool


@dataclass
class BoundedSReport:
    items: list
    all_passed: bool


def _operands(who, *Ms, square=True):
    """The operands as matrices of one shape, square unless ``square`` is off, else NotSquare."""
    Ms = [as_matrix(M) for M in Ms]
    shapes = [M.shape for M in Ms]
    if len(set(shapes)) > 1 or (square and shapes[0][0] != shapes[0][1]):
        kind = "square matrices of one size" if square else "matrices of one shape"
        raise NotSquare(f"{who}: operands of shapes {', '.join(map(str, shapes))} are not {kind}")
    return Ms


# ---------------------------------------------------------------------------
# Douglas-type majorization
# ---------------------------------------------------------------------------


def douglas_solve(T, B, tol: float = DEFAULT_TOL) -> DouglasSolution:
    """Solve Y B = T for a bounded Y; feasible iff ker B <= ker T.

    The minimal-norm solution is Y = T B+, already zero on (ran B)^perp, so
    ran Y <= ran T and ker B* <= ker Y; c = ||Y|| is the least constant with
    T*T <= c^2 B*B.  ker B <= ker T is tested as ||T K|| <= tol (1 + ||T||)
    on an orthonormal basis K of ker B, decided by ``numkernel.opnorm_holds``,
    which takes ||T|| by an SVD only when its bounds leave that test open.
    """
    T, B = _operands("douglas_solve", T, B, square=False)
    split = svd_split(B)
    kb = split.ker
    leak = opnorm(T @ kb.basis) if kb.dim else 0.0
    if leak and nk.opnorm_holds(T, lambda norm: leak > tol * (1.0 + norm)):
        return DouglasSolution(feasible=False, Y=None, c=math.inf)
    Y = T @ split.pinv
    return DouglasSolution(feasible=True, Y=Y, c=opnorm(Y))


# ---------------------------------------------------------------------------
# Sebestyen inequality, matrix form
# ---------------------------------------------------------------------------


def _seb_infeasible(**checks) -> SebCertificate:
    return SebCertificate(
        feasible=False,
        lambda_star=math.inf,
        X=None,
        G0=None,
        residual_xb_t=math.inf,
        norm_X=math.inf,
        checks=checks,
    )


def _seb_factor(Ts, A, tol: float, who: str, D=None):
    """X = T_s M^+ T_s*, lambda* and G0 from one gated eigh of the form of M = T*B.

    A = D* M_s D = V diag(w) V* is the form of M on an orthonormal basis D of
    dom M (None: the identity) and Ts the operator part of T.  ker A is the
    eigenvectors with |w| <= RANK_RTOL max|w|; it must leak nothing into T,
    ||Ts D V_ker|| <= tol (1 + ||Ts D||), decided by ``numkernel.opnorm_holds``:
    ||Ts D|| is taken by an SVD only when its bounds, the largest column norm
    and the Frobenius norm, leave the test open.  Then F = Ts D V_+ w_+^(-1/2),
    X = F F*, lambda* = lambda_max(X) = ||X|| and G0 = F (D V_+)* / sqrt(lambda*).
    Returns (leak, lambda*, X, G0), X None past the leak bound and
    lambda* = 0 with zero X and G0 when F vanishes.
    """
    eig = nk.hermitian_eig(A, tol, psd=True, who=who, error=HypothesisFailed)
    w, V = eig.eigenvalues, eig.eigenvectors
    cut = RANK_RTOL * eig.norm
    TD = Ts if D is None else Ts @ D

    leak = opnorm(TD @ V[:, np.abs(w) <= cut])
    if leak and nk.opnorm_holds(TD, lambda norm: leak > tol * (1.0 + norm)):
        return leak, math.inf, None, None

    live = w > cut
    V_live = V[:, live]
    DV = V_live if D is None else D @ V_live
    F = (TD @ V_live) * w[live] ** -0.5
    if not F.any():
        n_K = Ts.shape[0]
        return leak, 0.0, np.zeros((n_K, n_K), dtype=F.dtype), np.zeros(Ts.shape, dtype=F.dtype)
    X = herm(F @ F.conj().T)
    lam = float(np.linalg.eigvalsh(X)[-1])
    return leak, lam, X, (F / math.sqrt(lam)) @ DV.conj().T


def seb_solve(T, B, tol: float = DEFAULT_TOL) -> SebCertificate:
    """Minimal lambda and PSD factor X for T*T <= lambda T*B, T = X B.

    ``_seb_factor`` on M = T*B with D = I: feasible iff ker M <= ker T; then
    X = T M^+ T* satisfies X B = T exactly (the everywhere-defined collapse
    of X B0-bar <= T), ker X = ker T* and lambda* = norm_X = ||X||, and G0
    is the contraction of the range construction, X = lambda* G0 G0*.
    T = 0 short-circuits to lambda* = 0, X = 0.

    The upper side is certified by two recomputations: ``residual_xb_t`` =
    ||X B - T||_F and ``checks["norm_bound_deficit"]``, the
    :func:`numkernel.psd_deficit` of lambda* (1 + tau) I - X with
    tau = max(tol, n eps), which one Cholesky settles.  X B = T and
    X <= lambda* (1 + tau) I imply the rest: T*T = B* X^2 B <= ||X|| B* X B
    <= lambda* (1 + tau) T*B, ||G0||^2 = ||X|| / lambda* <= 1 + tau (G0 is a
    contraction to rounding), and T*B = B* X B <= lambda* (1 + tau) B*B.
    """
    T, B = _operands("seb_solve", T, B, square=False)
    M = T.conj().T @ B
    leak, lam, X, G0 = _seb_factor(T, M, tol, "seb_solve: T*B")
    if X is None:
        return _seb_infeasible(kernel_obstruction=leak)
    n = X.shape[0]
    tau = max(tol, n * np.finfo(float).eps)
    if lam == 0.0:
        checks = {"zero_solution": True}
    else:
        gap = -X  # lambda* (1 + tau) I - X with no identity formed: raise the diagonal in place
        gap.flat[:: n + 1] += lam * (1.0 + tau)
        checks = {"norm_bound_deficit": nk.psd_deficit(gap), "tol": tol}
    return SebCertificate(
        feasible=True,
        lambda_star=lam,
        X=X,
        G0=G0,
        residual_xb_t=frob(X @ B - T),
        norm_X=lam,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Sebestyen inequality for relations
# ---------------------------------------------------------------------------


def seb_relation_solve(T: LinRel, B: LinRel, tol: float = DEFAULT_TOL) -> SebCertificate:
    """Relation form of the Sebestyen solver.

    Hypotheses (hard errors): mul B <= ker (T_s)* and M = T*B selfadjoint
    nonnegative.  T*T <= lambda M needs dom M <= dom(T*T) = dom T, where the
    form of T*T is ||T_s x||^2, so ``_seb_factor`` on the form of M on dom M
    decides it without forming T*T.  Then X = lambda* G0 G0* with the
    contraction G0 = T_s (lambda* M_s)^(+1/2) satisfies X B0-bar <= T_s, the
    chain T* B0-bar = B0* X B0-bar = B0* T holds, ker (T_s)* <= ker X and
    norm_X = lambda* = ||X||.  When dom T <= dom B0-bar = dom M,
    additionally T = X B0-bar (+) T_mul and ker X = ker (T_s)*.
    ker (T_s)* = (P_s ran T)^perp = ker T* + mul T is read off the graph
    block P_s Y at the graph floor, the rule ``rel_parts`` uses for ker and
    mul, so an operator part that is rounding dust counts as zero
    (``linrel.operator_part_cokernel``).  Operands that keep an exact
    canonical decomposition (matrices, and what ``linrel``'s constructors
    build from them) give their parts for free, and their adjoints,
    products and restrictions as matrix products.
    """
    if T.dom_dim != B.dom_dim or T.codom_dim != B.codom_dim:
        raise NotSquare("seb_relation_solve: T and B must share domain and codomain")
    parts_T = rel_parts(T)
    ts = parts_T.operator_part_matrix
    ker_ts_adj = operator_part_cokernel(T)
    if not subspace_contains(ker_ts_adj, rel_parts(B).mul, tol=tol):
        raise HypothesisFailed("seb_relation_solve: mul B is not contained in ker (T_s)*")
    M_rel = rel_compose(rel_adjoint(T), B)
    mflags = rel_classify(M_rel, tol=tol)
    if not (mflags.selfadjoint and mflags.nonnegative):
        raise HypothesisFailed("seb_relation_solve: T*B is not selfadjoint nonnegative")
    parts_M = rel_parts(M_rel)
    if not subspace_contains(parts_T.dom, parts_M.dom, tol=tol):
        return _seb_infeasible()
    D = parts_M.dom.basis
    A = herm(D.conj().T @ parts_M.operator_part_matrix @ D)
    _, lam, X, G0 = _seb_factor(ts, A, tol, "seb_relation_solve: form of T*B", D)
    if X is None:
        return _seb_infeasible()

    B0 = rel_restrict(B, parts_M.dom)
    B0adj = rel_adjoint(B0)
    XB0 = rel_compose(rel_from_matrix(X), B0)
    Ts = operator_part_relation(T)
    incl_ts = rel_containment_residual(Ts, XB0)
    incl_t = incl_ts if Ts is T else rel_containment_residual(T, XB0)

    # T* B0 = T* B = M_rel, as B0 is B restricted to dom M
    mid = rel_compose(B0adj, XB0)
    rhs = rel_compose(B0adj, T)
    chain_resid = max(rel_distance(M_rel, mid), rel_distance(M_rel, rhs))

    ker_x_bound = opnorm(X @ ker_ts_adj.basis) if ker_ts_adj.dim else 0.0

    checks = {
        "inclusion_in_Ts": incl_ts,
        "inclusion_in_T": incl_t,
        "restricted_product_chain": chain_resid,
        "ker_Ts_adj_in_ker_X": ker_x_bound,
        "tol": tol,
    }

    if subspace_contains(parts_M.dom, parts_T.dom, tol=tol):
        mul_pairs = np.vstack(
            [np.zeros((T.dom_dim, parts_T.mul.dim)), parts_T.mul.basis]
        )
        T_built = rel_plusdot(XB0, mul_pairs)
        checks["equality_mode"] = rel_distance(T_built, T)
        kx = kernel_basis(X)
        checks["ker_X_equals_ker_Ts_adj"] = nk.subspace_distance(kx, ker_ts_adj)

    return SebCertificate(
        feasible=True,
        lambda_star=lam,
        X=X,
        G0=G0,
        residual_xb_t=incl_t,
        norm_X=lam,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# reversed inequality
# ---------------------------------------------------------------------------


def reverse_solve(T, B, tol: float = DEFAULT_TOL) -> ReverseCertificate:
    """Solve the reversed inequality T*T >= eta B0-bar T as the inverted forward problem.

    Hypotheses (hard errors): B*T selfadjoint nonnegative and
    ker B* <= ker T* + mul T.  With S = (T*)^(-1) and A = (B*)^(-1) these are
    the gates of ``seb_relation_solve(S, A)``, as S*A = (B*T)^(-1) and
    ker (S_s)* = ker T* + mul T (mul T is orthogonal to ker T*), and inversion
    keeps selfadjointness and nonnegativity.  The dual's X and lambda* give
    eta* = 1/lambda* and Y = X^(-1) (a relation, generally unbounded, with
    bounded PSD inverse).  The graph swap (x; y) -> (y; x) is unitary, so the
    dual's residuals are this problem's.  Its B0' = A restricted to
    dom S*A = ran B*T is the inverse of B0 = B* restricted to pairs with
    values in ran B*T; its chain S* B0' = B0'* X B0' = B0'* S reads
    B0-bar T = B0-bar Y B0* = T* B0*; when ran T* <= ran B*T its equality form
    reads T* = B0-bar Y (+) (ker T* x {0}) and ker X = ker (S_s)* reads
    mul Y = mul T + ker T*.  With ker T* = {0} also B0 = B*, and the equality
    form is T* = B* Y.
    """
    T, B = as_relation(T), as_relation(B)
    S = rel_inverse(rel_adjoint(T))
    try:
        dual = seb_relation_solve(S, rel_inverse(rel_adjoint(B)), tol=tol)
    except HypothesisFailed as exc:
        raise HypothesisFailed(f"reverse_solve: on the dual ((T*)^-1, (B*)^-1), {exc}") from exc
    if not dual.feasible:
        return ReverseCertificate(feasible=False, eta_star=0.0, Y=None)
    residuals = {
        "restricted_product_chain": dual.checks["restricted_product_chain"],
        "dual_lambda_star": dual.lambda_star,
        "tol": tol,
    }
    if "equality_mode" in dual.checks:
        residuals["adjoint_factorization"] = dual.checks["equality_mode"]
        residuals["mul_Y_matches"] = dual.checks["ker_X_equals_ker_Ts_adj"]
        # ker T* = mul (T*)^(-1), which the dual has decomposed
        if not rel_parts(S).mul.dim:
            residuals["adjoint_operator_factorization"] = dual.checks["equality_mode"]
    return ReverseCertificate(
        feasible=True,
        eta_star=math.inf if dual.lambda_star <= 0.0 else 1.0 / dual.lambda_star,
        Y=rel_inverse(rel_from_matrix(dual.X)),
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# similarity to a PSD matrix
# ---------------------------------------------------------------------------


def psd_similarity_decide(T, tol: float = DEFAULT_TOL) -> PsdSimilarity:
    """Is T similar to a PSD matrix (diagonalizable, spectrum in R_+)?

    On acceptance S = diag of the eigenvalues clipped at zero and G is the
    eigenvector matrix, so T G = G S within tol * cond(G) * ||T||.
    """
    return _psd_similarity(T, tol)[0]


def _psd_similarity(T, tol: float):
    """psd_similarity_decide's verdict and the spectrum of T it was read off."""
    (T,) = _operands("psd_similarity_decide", T)
    spec = spectrum(T, tol=tol)
    dtol, w = spec.cluster_radius, spec.eigenvalues
    real_ok = bool(np.all(np.abs(w.imag) <= dtol) and np.all(w.real >= -dtol))
    if not (spec.diagonalizable and real_ok):
        return PsdSimilarity(accept=False, G=None, S=None), spec
    S = np.diag(np.clip(w.real, 0.0, None))
    return PsdSimilarity(accept=True, G=spec.eigenvectors, S=S), spec


def wsimilar_forms(T, tol: float = DEFAULT_TOL) -> WSimilarForms:
    """All six constructions attached to W-similarity with a PSD target.

    From the similarity T = G0 S G0^(-1) the intertwiner G = G0^(-1) gives
    X = G*G with X T = T* X; then S = X^(1/2) T X^(-1/2), B1 = X T with
    X1 = X^(-1), B2 = X^(-1) T* with X2 = X, W = X2^(-1), Z = X1^(-1), and
    TW, ZT are Hermitian PSD.  One SVD G0 = U diag(s) V* gives every power
    of X = (G0 G0*)^(-1) = U diag(s^-2) U*, with no inverse and no cut.
    plusdot_ok records ran T (+) ker T = H: it holds at once when T has
    rank n by the rank rule on the singular values the spectrum kept, and
    is otherwise the zero-intersection test on one SVD of the square T,
    whose ran T and ker T dimensions always sum to n.  ||T|| and cond(G0)
    come from the spectrum that decided the similarity.  The checks report
    ``TW_psd_deficit``, ``ZT_psd_deficit`` and ``S_psd_deficit``, the
    Cholesky-first ``numkernel.psd_deficit`` of herm(TW), herm(ZT) and S.
    """
    T = as_matrix(T)
    sim, spec = _psd_similarity(T, tol)
    if not sim.accept:
        raise NotScalarNonneg("wsimilar_forms: T is not similar to a PSD matrix")
    U, s, _ = nk.svd(sim.G)
    X, Xi = herm((U / s ** 2) @ U.conj().T), herm((U * s ** 2) @ U.conj().T)
    S = herm((U / s) @ U.conj().T @ T @ (U * s) @ U.conj().T)
    plusdot_ok = nk.numerical_rank(spec.singular_values) == T.shape[0]  # ker T = {0}
    if not plusdot_ok:
        split = svd_split(T)
        plusdot_ok = subspace_intersect(split.ran, split.ker).dim == 0
    XT, TW = X @ T, T @ Xi  # B1 = Z T = X T and T W = T X^(-1)
    forms = WSimilarForms(
        X=X, S=S, X1=Xi, B1=XT, X2=X, B2=Xi @ T.conj().T, W=Xi, Z=X, plusdot_ok=plusdot_ok,
    )
    cond2 = spec.eigvec_condition ** 2
    forms.checks = {
        "intertwine": frob(XT - T.conj().T @ X),
        "factor_T": frob(Xi @ XT - T),
        "factor_Tadj": frob(X @ forms.B2 - T.conj().T),
        "TW_psd_deficit": nk.psd_deficit(herm(TW)),
        "ZT_psd_deficit": nk.psd_deficit(herm(XT)),
        "TW_herm_dev": frob(TW - TW.conj().T),
        "ZT_herm_dev": frob(XT - XT.conj().T),
        "S_herm_dev": frob(S - S.conj().T),
        "S_psd_deficit": nk.psd_deficit(S),
        "cond_G": math.sqrt(cond2),
        "tol": tol * cond2 * max(1.0, spec.norm),
    }
    return forms


def presimilar_S(A, B, tol: float = DEFAULT_TOL):
    """S = A^(1/2) B A^(1/2) and the pre-similarity T A^(1/2) = A^(1/2) S.

    Returns (S, spectra_match) where spectra_match is the Hausdorff test
    sigma(AB) = sigma(S) at tol (a nonempty resolvent set is automatic in
    finite dimension); A passes the PSD gate at the same tol.
    """
    A, B = _operands("presimilar_S", A, B)
    Ah = psd_power(A, 0.5, tol=tol)
    S = herm(Ah @ B @ Ah)
    T = A @ B
    dist = hausdorff_distance(np.linalg.eigvals(T), np.linalg.eigvals(S))
    scale = max(1.0, opnorm(T))
    return S, bool(dist <= tol * scale)


def spectra_swap_check(A, B, tol: float = DEFAULT_TOL) -> bool:
    """sigma(AB) u {0} = sigma(BA) u {0} at Hausdorff tolerance tol."""
    A, B = _operands("spectra_swap_check", A, B)
    wa = np.append(np.linalg.eigvals(A @ B), 0.0)
    wb = np.append(np.linalg.eigvals(B @ A), 0.0)
    scale = max(1.0, opnorm(A) * opnorm(B))
    return bool(hausdorff_distance(wa, wb) <= tol * scale)


# ---------------------------------------------------------------------------
# quasi-affinity packages
# ---------------------------------------------------------------------------


def _check_intertwiner(G, left, right, tol, who):
    """Require right = S = S* >= 0 (the PSD gate, which gives ||S||) and an
    invertible G with G @ left = right @ G within tol scaled by the data.

    One SVD G = W diag(s) V* gives the rank of G by the rank rule, ||G|| =
    s[0], cond(G) = s[0] / s[-1], G^(-1) = V diag(1/s) W* and the powers
    (G*G)^a = V diag(s^(2a)) V*, with no cut: an accepted G keeps all n
    directions.  Returns (cond(G), ||left||, ||S||, W, s, V).
    """
    eig_S = nk.hermitian_eig(right, tol, psd=True, who=f"{who}: S")
    if not G.size:
        raise ValueError(f"{who}: empty operands")
    W, s, Vh = nk.svd(G)
    if nk.numerical_rank(s) != G.shape[0]:
        raise NotInvertible(f"{who}: the intertwiner is not invertible")
    norm_left, norm_right = opnorm(left), eig_S.norm
    resid = frob(G @ left - right @ G)
    scale = (1.0 + norm_left + norm_right) * max(1.0, float(s[0]))
    if resid > tol * scale:
        raise NotIntertwining(f"{who}: intertwining residual {resid:.3e} exceeds tolerance")
    return float(s[0] / s[-1]), norm_left, norm_right, W, s, Vh.conj().T


def _direct_side(T, G, S, s, V):
    """X^(1/2) = |G| and X^(-1/2) for X = G*G, read off the SVD W diag(s) V*
    of G, A = G* S G, herm(A T) and the residuals both direct-side reports
    give, for G T = S G and lambda = ||X|| = s[0]^2: ``xt_psd_deficit`` is
    the Cholesky-first ``numkernel.psd_deficit`` of herm(X T), and the tight
    reversed-inequality gap keeps its signed ``eigvalsh`` margin."""
    X = herm((V * s ** 2) @ V.conj().T)
    A = herm(G.conj().T @ S @ G)
    XT = X @ T
    AT = herm(A @ T)
    gap = herm(T.conj().T @ T - AT / s[0] ** 2)
    residuals = {
        "xt_equals_tadjx": frob(XT - T.conj().T @ X),
        "xt_psd_deficit": nk.psd_deficit(herm(XT)),
        "reversed_inequality_margin": float(np.linalg.eigvalsh(gap)[0]),
    }
    return (V * s) @ V.conj().T, (V / s) @ V.conj().T, A, AT, residuals


def inclusionnfs_package(T, G, S, tol: float = DEFAULT_TOL) -> QAPackage:
    """Adjoint-side package: from G T* = S G build A = G*G and the
    representing factor B_F = G^(-1) S (G^(-1))* with A B_F = T.

    Cross-checks the induced inequality by running seb_solve(T, B_F); the
    Hermitian-PSD gate for T*B_F holds automatically here.
    """
    T, G, S = _operands("inclusionnfs_package", T, G, S)
    cond_G, norm_T, _, W, s, V = _check_intertwiner(G, T.conj().T, S, tol, "inclusionnfs_package")
    Ginv = (V / s) @ W.conj().T
    A = herm((V * s ** 2) @ V.conj().T)
    B_F = herm(Ginv @ S @ Ginv.conj().T)
    ctol = tol * cond_G ** 2 * (1.0 + norm_T)  # ||T*|| = ||T||
    diag = {
        "reconstruction": frob(A @ B_F - T),
        "tol": ctol,
    }
    try:
        cert = seb_solve(T, B_F, tol=tol)
        diag["seb_feasible"] = cert.feasible
        diag["seb_lambda_star"] = cert.lambda_star
    except HypothesisFailed as exc:
        diag["seb_feasible"] = False
        diag["seb_gate_error"] = str(exc)
    return QAPackage(
        direction="adjoint_side", G=G, S=S, A=A, B_F=B_F, A_F=None, diagnostics=diag
    )


def tba_package(T, G, S, tol: float = DEFAULT_TOL) -> QAPackage:
    """Direct-side package: from G T = S G build the bounded factor
    B = (G*G)^(-1), the extension A_F = G* S G, and T = B A_F; B and the
    polar normalization S0 = X^(1/2) T X^(-1/2) come from the SVD of G.

    X = G*G satisfies X T = T* X >= 0; the reversed inequality
    T*T >= (1/lambda) A_F T with lambda = ||G*G|| is checked directly and,
    when its relation-level hypotheses hold, re-derived through
    reverse_solve(T, A_F).  The diagnostics report X T >= 0 as
    ``xt_psd_deficit`` (Cholesky first) and the reversed inequality as its
    signed ``reversed_inequality_margin``.
    """
    T, G, S = _operands("tba_package", T, G, S)
    cond_G, norm_T, _, _, s, V = _check_intertwiner(G, T, S, tol, "tba_package")
    Xh, Xmh, A_F, _, residuals = _direct_side(T, G, S, s, V)
    B = herm((V / s ** 2) @ V.conj().T)
    S0 = herm(Xh @ T @ Xmh)
    diag = {
        "reconstruction": frob(B @ A_F - T),
        **residuals,
        "lambda": float(s[0] ** 2),
        "S0": S0,
        "E_F": herm(Xh @ S0 @ Xh),
        "tol": tol * cond_G ** 2 * (1.0 + norm_T),
    }
    try:
        rev = reverse_solve(rel_from_matrix(T), rel_from_matrix(A_F), tol=tol)
        diag["reverse_feasible"] = rev.feasible
        diag["reverse_eta_star"] = rev.eta_star
    except HypothesisFailed as exc:
        diag["reverse_feasible"] = None
        diag["reverse_gate_error"] = str(exc)
    return QAPackage(
        direction="direct_side", G=G, S=S, A=B, B_F=None, A_F=A_F, diagnostics=diag
    )


def quasiaffine_decide(T, S, tol: float = DEFAULT_TOL) -> QuasiAffinity:
    """Does an invertible G with G T = S G exist, for a target S = S* >= 0?

    In finite dimension injectivity plus dense range collapses to
    invertibility, so quasi-affinity is decided by whether the Sylvester
    space {G : G T = S G}, read off the PSD gate of S at ``tol`` by
    ``numkernel.hermitian_intertwiners``, contains a full-rank element.
    """
    T, S = _operands("quasiaffine_decide", T, S)
    return _quasiaffine(T, nk.hermitian_eig(S, tol, psd=True, who="quasiaffine_decide: S"), opnorm(T))


def _quasiaffine(T, eig_S, norm_T) -> QuasiAffinity:
    inter = nk.hermitian_intertwiners(T, eig_S, norm_T)
    ok = inter.rank == T.shape[0]
    return QuasiAffinity(affine=ok, G=inter.max_rank_element if ok else None, space_dim=inter.dimension)


def quasisimilar_decide(T, S, tol: float = DEFAULT_TOL) -> QuasiSimilarity:
    """T quasi-similar to S = S* >= 0 iff both T and T* are quasi-affine to S.

    Both sides read their Sylvester spaces off one PSD gate of S and one
    ||T|| = ||T*||, which also scales the duality tolerance.  Returns
    the certificate: G1 T = S G1, G2 T* = S G2 and the duality check that
    G2* intertwines the adjoint pair backwards.  T's membership in the two
    product classes is built apart, by ``tba_package(T, G1, S)`` and
    ``inclusionnfs_package(T, G2, S)``.
    """
    T, S = _operands("quasisimilar_decide", T, S)
    eig_S = nk.hermitian_eig(S, tol, psd=True, who="quasisimilar_decide: S")
    norm_T = opnorm(T)
    qa1 = _quasiaffine(T, eig_S, norm_T)
    qa2 = _quasiaffine(T.conj().T, eig_S, norm_T)
    if not (qa1.affine and qa2.affine):
        return QuasiSimilarity(similar_pair=False, G1=qa1.G, G2=qa2.G)
    G2 = qa2.G
    checks = {
        "duality_residual": frob(G2.conj().T @ S - T @ G2.conj().T),
        "tol": tol * (1.0 + norm_T + eig_S.norm) * max(1.0, opnorm(G2)),
    }
    return QuasiSimilarity(similar_pair=True, G1=qa1.G, G2=G2, checks=checks)


def bounded_S_checks(T, G, S, tol: float = DEFAULT_TOL) -> BoundedSReport:
    """Verify the bounded-target identities attached to G T = S G.

    Covers: the similarity transforms GTG^(-1) = (G^(-1))* T* G* = S; the
    polar normalization X^(1/2) T X^(-1/2) = X^(-1/2) T* X^(1/2) >= 0 with
    X = G*G; the equality T*X = XT >= 0; the reversed inequality
    T*T >= (1/lambda) A T with A = G* S G, lambda = ||G*G||; and the joint
    form with the inverse quasi-affinity X^(-1) on the adjoint side.
    """
    T, G, S = _operands("bounded_S_checks", T, G, S)
    cond_G, norm_T, norm_S, W, s, V = _check_intertwiner(G, T, S, tol, "bounded_S_checks")
    ctol = tol * cond_G ** 2 * (1.0 + norm_T + norm_S)
    Ginv = (V / s) @ W.conj().T
    Xh, Xmh, _, AT, residuals = _direct_side(T, G, S, s, V)
    items = []

    def add(name, residual, tolerance=ctol):
        items.append(CheckItem(name=name, residual=float(residual), tol=float(tolerance), passed=bool(residual <= tolerance)))

    GTGi = G @ T @ Ginv
    add("similarity_equals_S", frob(GTGi - S))
    add("adjoint_transform_equals_S", frob(Ginv.conj().T @ T.conj().T @ G.conj().T - S))
    C1 = Xh @ T @ Xmh
    C2 = Xmh @ T.conj().T @ Xh
    add("polar_normalization_equality", frob(C1 - C2))
    add("polar_normalization_psd", nk.psd_deficit(herm(C2)))
    add("xt_equals_tadjx", residuals["xt_equals_tadjx"])
    add("xt_psd", residuals["xt_psd_deficit"])
    add("at_hermitian_psd", nk.psd_deficit(AT))
    add("reversed_inequality_margin", max(0.0, -residuals["reversed_inequality_margin"]))
    add("joint_form_T_side", frob(C1 - herm(C1)))
    # (X^(-1))^(+-1/2) = X^(-+1/2): the adjoint-side joint form is C2 - C1
    add("joint_form_Tadj_side", frob(C2 - C1))
    return BoundedSReport(items=items, all_passed=all(it.passed for it in items))


# ---------------------------------------------------------------------------
# product class membership and the power chain
# ---------------------------------------------------------------------------


def ldeux_certify(T, Y_hint=None, tol: float = DEFAULT_TOL) -> LdeuxCertificate:
    """Certify membership T = A B with A bounded PSD and B PSD.

    With a hint: validate Y = Y* >= 0, T*Y Hermitian and T*Y = YT, then
    solve T = A Y through the Sebestyen engine.  Without a hint only the
    invertible-factor subclass is searched: if T is similar to a PSD matrix,
    A = G G* and B = Y = (G^(-1))* S G^(-1) realize T = A B with T*Y = YT;
    the general unbounded class has no finite search procedure.
    """
    T = as_matrix(T)
    if Y_hint is not None:
        T, Y = _operands("ldeux_certify", T, Y_hint)
        nk.hermitian_eig(Y, tol, psd=True, who="ldeux_certify: Y_hint")
        M = T.conj().T @ Y
        if frob(M - Y @ T) > tol * (1.0 + frob(M)):
            raise HypothesisFailed("ldeux_certify: T*Y != YT for the given hint")
        try:
            cert = seb_solve(T, Y, tol=tol)
        except HypothesisFailed:
            return LdeuxCertificate(in_class=False, A=None, B=None, Y=None, residual=math.inf)
        if not cert.feasible:
            return LdeuxCertificate(in_class=False, A=None, B=None, Y=None, residual=math.inf)
        ok = cert.residual_xb_t <= tol * (1.0 + frob(T))
        return LdeuxCertificate(in_class=ok, A=cert.X, B=Y, Y=Y, residual=cert.residual_xb_t)

    sim, spec = _psd_similarity(T, tol)
    if not sim.accept:
        return LdeuxCertificate(in_class=False, A=None, B=None, Y=None, residual=math.inf)
    G = sim.G
    Ginv = np.linalg.inv(G)
    A = herm(G @ G.conj().T)
    B = herm(Ginv.conj().T @ sim.S @ Ginv)
    resid = frob(A @ B - T)
    ok = resid <= tol * spec.eigvec_condition ** 2 * (1.0 + frob(T))
    return LdeuxCertificate(in_class=ok, A=A, B=B, Y=B, residual=resid)


def power_chain(A, B, n_max: int, tol: float = DEFAULT_TOL) -> PowerChain:
    """Iterates S_0 = B, S_n = S_(n-1) A S_(n-1) with T^(2^n) = A S_n.

    Each S_n stays Hermitian PSD (S_1 = (A^(1/2) B)* A^(1/2) B and so on);
    residuals track ||T^(2^n) - A S_n||_F per level.  Raises NoConvergence
    at the first level whose S_n, residual or margin leaves the float range.
    """
    A, B = _operands("power_chain", A, B)
    nk.hermitian_eig(A, tol, psd=True, who="power_chain: A")
    wB = nk.hermitian_eig(B, tol, psd=True, who="power_chain: B").eigenvalues
    T = A @ B
    S_seq = [herm(B)]
    residuals = [frob(T - A @ S_seq[0])]
    psd_margins = [float(wB[0])]
    power = T
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(1, n_max + 1):
            power = power @ power
            S_next = S_seq[-1] @ A @ S_seq[-1]
            if not np.isfinite(S_next).all():
                raise NoConvergence(f"power_chain: S_{level} leaves the float range")
            S_next = herm(S_next)
            residual = frob(power - A @ S_next)
            margin = float(np.linalg.eigvalsh(S_next)[0])
            if not (math.isfinite(residual) and math.isfinite(margin)):
                raise NoConvergence(f"power_chain: the level-{level} residual or margin leaves the float range")
            S_seq.append(S_next)
            residuals.append(residual)
            psd_margins.append(margin)
    return PowerChain(S_seq=S_seq, residuals=residuals, psd_margins=psd_margins)
