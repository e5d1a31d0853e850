"""Independent brute-force oracles used to derive expected test values.

Each oracle deliberately avoids the code path it checks: characteristic
polynomials come from Newton's identities on traces of powers, feasibility
from a blind lambda sweep, diagonalizability from the index-one rank test,
and the relation form order from its definition on operator parts.  The
Sebestyen reference solver is the earlier dense ``seb_solve``, which takes
ker M and M^(+1/2) from numpy's ``eigh`` cut by hand (``_kernel_and_pinv_root``)
and lambda* from ||T M^(+1/2)||^2 instead of the single eigendecomposition of
the library engine and its ``numkernel.psd_live``.  The relation references are the
earlier ``rel_parts`` (up to seven SVDs, ``mul`` and ``ker`` re-orthonormalized),
``rel_compose`` (one subspace intersection inside H x K x L) and
``rel_restrict`` (graph(B) intersected with D x K); the operator-part and
square-root references are the earlier graph builders of
``operator_part_relation`` and ``rel_sqrt``, one span (an SVD) of (D; T_s D)
or of (D; (T_s)^(1/2) D) beside (0; M), where the library keeps the
decomposition (dom T, {0}, T_s) or (dom T, mul T, P_s (T_s)^(1/2) P_dom).
The relation Sebestyen reference is the earlier ``seb_relation_solve``, with
the operator-part reference for its inclusion in T_s: it forms T*T as a relation,
decides ker M on the compressed form of T*T (the hand cut of the form of M,
the leak measured as ||T_s D V_ker||^2) and takes lambda* and G0 from two further
PSD powers, where the library engine shares the one eigendecomposition of
``seb_solve``.  The reversed reference is the earlier ``reverse_solve``: it
calls the library forward engine on the dual problem ((T*)^(-1), (B*)^(-1))
but tests both hypotheses and rebuilds the chain and the equality form in the
terms of (T, B), with its own products, restriction and ``rel_parts``, where
the library engine reads them off the dual's certificate through the graph
swap.  The diagonal reversed reference is the earlier ``diag_reverse_solve``:
a pointwise loop over the head with its own gates, kernel condition and tail
algebra, where the library engine reads the result off the dual
``diag_seb_solve`` of ((T*)^(-1), (B*)^(-1)).  The Sylvester reference is the earlier ``sylvester_intertwiners``: the
null space of the vectorized map G -> G T - S G, an SVD of size pn x pn, and
a seeded random search for a maximal-rank element, where the library engine
reads the space off the eigenspaces of S or T; the one edit is the
data-scale floor ``RANK_RTOL * max(||T||, ||S||)`` on the null-space cut.
The matrix parse reference is the earlier ``serialize.matrix_from_json``,
which reads every entry with ``complex_from_json`` where the library reads
well-formed data with one ``np.array``.  The subspace references are the
earlier ``subspace_distance``, the norm of the difference of the two
projectors whatever the dimensions, and ``rel_classify``, which calls a
relation selfadjoint when that distance from graph T to graph T* (built by
``rel_adjoint``) is at most tol, where the library measures subspaces on
their bases and reads selfadjointness off the graph form.  The report writer
reference is the earlier ``cli.main`` dump: one ``json.dumps`` with sorted
keys, every matrix entry listed by ``tolist`` and written by json, where the
library writes matrix data with orjson.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from psdfactor import numkernel as nk
from psdfactor.diagmodel import (
    FULL,
    INF,
    TRIVIAL,
    DiagReverseResult,
    DiagSymbol,
    _is_zero,
    _Marker,
    _sym,
    point_adjoint,
    point_compose,
)
from psdfactor.errors import (
    DimensionMismatch,
    HypothesisFailed,
    NotNonnegSelfadjoint,
    NotSquare,
    ParseError,
    UnrepresentableSymbol,
)
from psdfactor.factor import ReverseCertificate, SebCertificate, seb_relation_solve
from psdfactor.linrel import (
    GRAPH_ATOL,
    LinRel,
    RelFlags,
    RelParts,
    as_relation,
    rel_adjoint,
    rel_classify,
    rel_compose,
    rel_containment_residual,
    rel_distance,
    rel_equal,
    rel_from_graph,
    rel_from_matrix,
    rel_inverse,
    rel_parts,
    rel_plusdot,
    rel_restrict,
)
from psdfactor.numkernel import (
    DEFAULT_TOL,
    RANK_RTOL,
    Subspace,
    herm,
    kernel_basis,
    numerical_rank,
    opnorm,
    psd_power,
    span,
    subspace_contains,
    subspace_intersect,
)
from psdfactor.serialize import complex_from_json


def charpoly_roots(H):
    """Eigenvalues via Newton's identities + companion-matrix roots."""
    H = np.asarray(H, dtype=np.complex128)
    n = H.shape[0]
    power = np.eye(n, dtype=np.complex128)
    traces = []
    for _ in range(n):
        power = power @ H
        traces.append(np.trace(power))
    coeffs = [1.0 + 0j]
    for k in range(1, n + 1):
        s = traces[k - 1]
        for j in range(1, k):
            s += coeffs[j] * traces[k - 1 - j]
        coeffs.append(-s / k)
    return np.roots(np.array(coeffs))


def penrose_residuals(T, P):
    """Relative residuals of the four Penrose identities for P ~ T^+."""
    T, P = np.asarray(T), np.asarray(P)
    scale = 1.0 + np.linalg.norm(T) + np.linalg.norm(P)
    return [
        np.linalg.norm(T @ P @ T - T) / scale,
        np.linalg.norm(P @ T @ P - P) / scale,
        np.linalg.norm((T @ P).conj().T - T @ P) / scale,
        np.linalg.norm((P @ T).conj().T - P @ T) / scale,
    ]


def lambda_sweep_feasible(T, B, points=64, tol=1e-8):
    """Does some lambda on a fixed geometric grid make lambda T*B - T*T PSD?

    The PSD test is relative to ||T*T||, not to the swept matrix, so a
    fixed-size negative dip is never absorbed by a huge lambda.  One
    ``eigvalsh`` per grid point, stopping at the first feasible one, where
    ``proptests.lambda_sweep_feasible`` decides the whole grid by one
    stacked ``eigvalsh``.
    """
    T, B = np.asarray(T), np.asarray(B)
    M = T.conj().T @ B
    M = 0.5 * (M + M.conj().T)
    TT = T.conj().T @ T
    floor = -tol * (1.0 + np.linalg.norm(TT, 2))
    scale = max(np.linalg.norm(TT, 2), 1e-12) / max(np.linalg.norm(M, 2), 1e-12)
    for lam in np.geomspace(1e-8, 1e8, points) * scale:
        gap = lam * M - TT
        gap = 0.5 * (gap + gap.conj().T)
        w = np.linalg.eigvalsh(gap)
        if w[0] >= floor:
            return True
    return False


def index_one_diagonalizable(T, rtol=1e-9):
    """Diagonalizable iff rank(T - lam I) = rank((T - lam I)^2) per eigenvalue.

    Uses clustered eigenvalues only to pick probe points; the verdict itself
    comes from the rank-of-powers criterion (index of each eigenvalue is 1).
    """
    T = np.asarray(T, dtype=np.complex128)
    n = T.shape[0]
    w = np.linalg.eigvals(T)
    scale = max(np.linalg.norm(T, 2), 1e-300)
    probes = []
    for lam in w:
        if all(abs(lam - p) > 1e-6 * scale for p in probes):
            probes.append(lam)
    def rank(a):
        s = np.linalg.svd(a, compute_uv=False)
        return int(np.count_nonzero(s > 1e-6 * scale * max(1.0, s[0] / max(scale, 1e-300))))
    for lam in probes:
        A = T - lam * np.eye(n)
        if rank(A) != rank(A @ A):
            return False
    return True


def form_order_leq_definition(Tlo, Thi, tol=1e-8):
    """Form order by definition: domain inclusion plus norm comparison of the
    operator-part square roots on the form domain of the larger relation."""
    from psdfactor.linrel import rel_parts
    from psdfactor.numkernel import herm, psd_power, subspace_contains, opnorm

    plo, phi = rel_parts(Tlo), rel_parts(Thi)
    if not subspace_contains(plo.dom, phi.dom, tol=tol):
        return False
    rlo = psd_power(herm(plo.operator_part_matrix), 0.5)
    rhi = psd_power(herm(phi.operator_part_matrix), 0.5)
    D = phi.dom.basis
    Q = herm(D.conj().T @ (rhi.conj().T @ rhi - rlo.conj().T @ rlo) @ D)
    if Q.size == 0:
        return True
    w = np.linalg.eigvalsh(Q)
    return bool(w[0] >= -tol * (1.0 + opnorm(Q)))


def _kernel_and_pinv_root(M):
    """An orthonormal basis of ker M and M^(+1/2) for a Hermitian M that passed a PSD gate.

    The kernel rule written out apart from the library: eigenvalues of
    numpy's ``eigh`` above RANK_RTOL times the largest |eigenvalue| are live,
    and every other one, a tolerated negative one included, is kernel.
    """
    w, V = np.linalg.eigh(M)
    live = w > RANK_RTOL * max(np.abs(w), default=0.0)
    return V[:, ~live], (V[:, live] * w[live] ** -0.5) @ V[:, live].conj().T


def seb_solve_reference(T, B, tol=1e-8):
    """Minimal lambda and PSD factor X for T*T <= lambda T*B, T = X B.

    Requires M = T*B Hermitian PSD (HypothesisFailed otherwise).  Feasible
    iff ker M <= ker T; then lambda* is the operator norm of
    M^(+1/2) (T*T) M^(+1/2) over ran M, G0 = T (lambda* M)^(+1/2) is a
    contraction and X = lambda* G0 G0* satisfies X B = T, ||X|| = lambda*.
    About a dozen decompositions: eigvalsh, an eigh for ker M and M^(+1/2),
    and SVDs for every norm.
    """
    from psdfactor.errors import HypothesisFailed
    from psdfactor.factor import SebCertificate
    from psdfactor.numkernel import as_matrix, frob, herm, opnorm

    T, B = as_matrix(T), as_matrix(B)
    M = T.conj().T @ B
    dev = frob(M - M.conj().T)
    if dev > tol * (1.0 + frob(M)):
        raise HypothesisFailed(f"seb_solve_reference: T*B is not Hermitian (deviation {dev:.3e})")
    M = herm(M)
    wmin = float(np.linalg.eigvalsh(M)[0]) if M.size else 0.0
    if wmin < -tol * (1.0 + opnorm(M)):
        raise HypothesisFailed(f"seb_solve_reference: T*B has negative eigenvalue {wmin:.3e}")

    km, mph = _kernel_and_pinv_root(M)
    if km.shape[1] and opnorm(T @ km) > tol * (1.0 + opnorm(T)):
        return SebCertificate(
            feasible=False,
            lambda_star=math.inf,
            X=None,
            G0=None,
            residual_xb_t=math.inf,
            norm_X=math.inf,
            checks={"kernel_obstruction": opnorm(T @ km)},
        )

    lam = opnorm(T @ mph) ** 2
    if lam <= 0.0:
        return SebCertificate(
            feasible=True,
            lambda_star=0.0,
            X=np.zeros((T.shape[0], T.shape[0]), dtype=np.complex128),
            G0=np.zeros_like(T),
            residual_xb_t=frob(T),
            norm_X=0.0,
            checks={"zero_solution": True},
        )
    G0 = T @ mph / math.sqrt(lam)
    X = herm(lam * (G0 @ G0.conj().T))
    # the engine's upper-side rule from the whole spectrum, with no Cholesky
    n = X.shape[0]
    tau = max(tol, n * np.finfo(float).eps)
    checks = {
        "norm_bound_deficit": max(0.0, -float(np.linalg.eigvalsh(lam * (1.0 + tau) * np.eye(n) - X)[0])),
        "tol": tol,
    }
    return SebCertificate(
        feasible=True,
        lambda_star=float(lam),
        X=X,
        G0=G0,
        residual_xb_t=frob(X @ B - T),
        norm_X=opnorm(X),
        checks=checks,
    )


def projector(sp: Subspace) -> np.ndarray:
    """The orthogonal projector B B* onto a subspace with orthonormal basis B."""
    return sp.basis @ sp.basis.conj().T


def subspace_distance_reference(a: Subspace, b: Subspace) -> float:
    """Spectral-norm gap ||P_a - P_b|| (sine of the largest principal angle)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return opnorm(projector(a) - projector(b))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """a + b, spanned by the two bases side by side."""
    return span(np.hstack([a.basis, b.basis]), ambient_dim=a.ambient_dim)


def scaled_relation(T: LinRel, c: float) -> LinRel:
    """The relation cT = {(x, cy)}."""
    X, Y = T.blocks()
    return rel_from_graph(np.vstack([X, c * Y]), T.dom_dim, T.codom_dim)


def rel_classify_reference(T: LinRel, tol: float = DEFAULT_TOL) -> RelFlags:
    """Symmetry/nonnegativity of the graph form <y, x>, and selfadjointness.

    With graph basis pairs (x_i, y_i), the form matrix is F = X* Y; the
    relation is symmetric iff F is Hermitian at tol, nonnegative iff F is
    additionally PSD (||F|| read off its eigenvalues), selfadjoint iff
    graph(T) and graph(T*) coincide.
    """
    if T.dom_dim != T.codom_dim:
        raise NotSquare("rel_classify: relation is not square")
    X, Y = T.blocks()
    F = X.conj().T @ Y
    sym = nk.frob(F - F.conj().T) <= tol * (1.0 + nk.frob(F))
    nonneg = False
    if sym:
        w = np.linalg.eigvalsh(herm(F)) if F.size else np.zeros(0)
        nonneg = w.size == 0 or bool(w[0] >= -tol * (1.0 + max(-w[0], w[-1])))
    selfadj = subspace_distance_reference(T.graph, rel_adjoint(T).graph) <= tol
    return RelFlags(symmetric=sym, nonnegative=nonneg, selfadjoint=selfadj)


def rel_classify_svd(T: LinRel, tol: float = DEFAULT_TOL) -> RelFlags:
    """``rel_classify`` with its selfadjointness gap ||F - F*|| always taken by an SVD.

    The library form reads the gap off its bounds first and skips it for a
    form that is not symmetric; the flags must agree.
    """
    if T.dom_dim != T.codom_dim:
        raise NotSquare("rel_classify: relation is not square")
    X, Y = T.blocks()
    F = X.conj().T @ Y
    sym = nk.is_hermitian(F, tol)
    nonneg = sym and nk.is_psd_spectrum(np.linalg.eigvalsh(herm(F)) if F.size else np.zeros(0), tol)
    gap = opnorm(F - F.conj().T) if T.graph_dim == T.dom_dim else 1.0
    return RelFlags(symmetric=sym, nonnegative=nonneg, selfadjoint=sym and gap <= tol)


def rel_parts_reference(T: LinRel) -> RelParts:
    """dom/ran/ker/mul subspaces and the zero-extended operator-part matrix.

    mul T = T(0) and ker T = {x : (x, 0) in T}; dim dom + dim mul equals the
    graph dimension.  The operator part satisfies T_s x = P_s y for every
    (x, y) in T, where P_s projects onto (mul T)^perp, and vanishes on
    (dom T)^perp.
    """
    X, Y = T.blocks()
    dom = span(X, ambient_dim=T.dom_dim, atol=GRAPH_ATOL)
    ran = span(Y, ambient_dim=T.codom_dim, atol=GRAPH_ATOL)
    mul = _second_component_at_zero(X, Y, T.codom_dim)
    ker = _second_component_at_zero(Y, X, T.dom_dim)
    P_s = np.eye(T.codom_dim, dtype=np.complex128) - projector(mul)
    ts = P_s @ Y @ nk.svd_split(X, GRAPH_ATOL).pinv
    return RelParts(dom=dom, ran=ran, ker=ker, mul=mul, operator_part_matrix=ts)


def _second_component_at_zero(X, Y, amb):
    """span{y : (0, y) in the graph}, i.e. Y restricted to ker X."""
    if X.shape[1] == 0:
        return nk.zero_space(amb)
    kerX = nk.kernel_basis(X, atol=GRAPH_ATOL)
    return span(Y @ kerX.basis, ambient_dim=amb, atol=GRAPH_ATOL)


def rel_compose_reference(S: LinRel, T: LinRel) -> LinRel:
    """The product S T = {(x, z) : exists y, (x, y) in T, (y, z) in S}.

    Computed as one orthonormal intersection of graph(T) x L with
    H x graph(S) inside H x K x L, projected onto the (x, z) coordinates.
    """
    if T.codom_dim != S.dom_dim:
        raise DimensionMismatch(
            f"rel_compose: codomain {T.codom_dim} of T != domain {S.dom_dim} of S"
        )
    nH, nK, nL = T.dom_dim, T.codom_dim, S.codom_dim
    Xt, Yt = T.blocks()
    Xs, Ys = S.blocks()
    gt = T.graph_dim
    gs = S.graph_dim
    left = np.zeros((nH + nK + nL, gt + nL), dtype=np.complex128)
    left[: nH + nK, :gt] = np.vstack([Xt, Yt])
    left[nH + nK :, gt:] = np.eye(nL)
    right = np.zeros((nH + nK + nL, nH + gs), dtype=np.complex128)
    right[:nH, :nH] = np.eye(nH)
    right[nH:, nH:] = np.vstack([Xs, Ys])
    inter = subspace_intersect(
        span(left, ambient_dim=nH + nK + nL), span(right, ambient_dim=nH + nK + nL)
    )
    B = inter.basis
    proj = np.vstack([B[:nH, :], B[nH + nK :, :]])
    graph = span(proj, ambient_dim=nH + nL, atol=GRAPH_ATOL)
    return LinRel(nH, nL, graph)


def rel_restrict_reference(B: LinRel, D: Subspace) -> LinRel:
    """B restricted to D: graph(B) intersected with D x K."""
    if D.ambient_dim != B.dom_dim:
        raise DimensionMismatch("rel_restrict: subspace lives in the wrong space")
    amb = B.dom_dim + B.codom_dim
    big = np.zeros((amb, D.dim + B.codom_dim), dtype=np.complex128)
    big[: B.dom_dim, : D.dim] = D.basis
    big[B.dom_dim :, D.dim :] = np.eye(B.codom_dim)
    inter = subspace_intersect(B.graph, span(big, ambient_dim=amb))
    return LinRel(B.dom_dim, B.codom_dim, inter)


def operator_part_relation_reference(T: LinRel, parts: RelParts | None = None) -> LinRel:
    """T_s as a relation on dom T: the span of (D; T_s D), D an orthonormal basis of dom T."""
    parts = rel_parts(T) if parts is None else parts
    D = parts.dom.basis
    return rel_from_graph(np.vstack([D, parts.operator_part_matrix @ D]), T.dom_dim, T.codom_dim)


def rel_sqrt_reference(T: LinRel, tol: float = DEFAULT_TOL) -> LinRel:
    """The square root of a nonnegative selfadjoint T: the span of (D; (T_s)^(1/2) D)
    and (0; M), D and M orthonormal bases of dom T and mul T."""
    flags = rel_classify(T, tol=tol)
    if not (flags.selfadjoint and flags.nonnegative):
        raise NotNonnegSelfadjoint("rel_sqrt: relation is not nonnegative selfadjoint")
    parts = rel_parts(T)
    root = psd_power(herm(parts.operator_part_matrix), 0.5, tol)
    D, M = parts.dom.basis, parts.mul.basis
    vecs = np.hstack([np.vstack([D, root @ D]), np.vstack([np.zeros((T.dom_dim, M.shape[1])), M])])
    return rel_from_graph(vecs, T.dom_dim, T.codom_dim)


def _form_compression(parts, D):
    """Quadratic form of a nonneg selfadjoint relation, given its parts, compressed to columns D."""
    ts = parts.operator_part_matrix
    return herm(D.conj().T @ ts @ D)


def _relation_min_lambda(parts_R, parts_M, tol: float):
    """Minimal lambda with R <= lambda M in the form order, or None.

    R, M nonnegative selfadjoint, given by their parts.  Feasible iff
    dom M <= dom R and the kernel of M's form inside dom M sits in the kernel
    of R's form; then lambda* = || A_M^(+1/2) A_R A_M^(+1/2) || with A_R, A_M
    the compressed forms on dom M.
    """
    if not subspace_contains(parts_R.dom, parts_M.dom, tol=tol):
        return None
    D = parts_M.dom.basis
    A_R = _form_compression(parts_R, D)
    A_M = _form_compression(parts_M, D)
    km, amp = _kernel_and_pinv_root(A_M)
    if km.shape[1]:
        leak = opnorm(herm(km.conj().T @ A_R @ km))
        if leak > tol * (1.0 + opnorm(A_R)):
            return None
    return float(opnorm(amp @ A_R @ amp))


def seb_relation_solve_reference(T: LinRel, B: LinRel, tol: float = DEFAULT_TOL) -> SebCertificate:
    """Relation form of the Sebestyen solver.

    Hypotheses (hard errors): mul B <= ker (T_s)* and T*B selfadjoint
    nonnegative.  Feasible iff T*T <= lambda T*B holds in the form order for
    some lambda; then X = lambda* G0 G0* with the contraction
    G0 = T_s (lambda* (T*B)_s)^(+1/2) satisfies X B0-bar <= T_s, the chain
    T* B0-bar = B0* X B0-bar = B0* T holds, and ker (T_s)* <= ker X.  When
    dom T <= dom B0-bar, additionally T = X B0-bar (+) T_mul and
    ker X = ker (T_s)*.
    """
    if T.dom_dim != B.dom_dim or T.codom_dim != B.codom_dim:
        raise NotSquare("seb_relation_solve: T and B must share domain and codomain")
    parts_T = rel_parts(T)
    ts = parts_T.operator_part_matrix
    ker_ts_adj = kernel_basis(ts.conj().T)
    if not subspace_contains(ker_ts_adj, rel_parts(B).mul, tol=tol):
        raise HypothesisFailed("seb_relation_solve: mul B is not contained in ker (T_s)*")
    Tadj = rel_adjoint(T)
    M_rel = rel_compose(Tadj, B)
    mflags = rel_classify(M_rel, tol=tol)
    if not (mflags.selfadjoint and mflags.nonnegative):
        raise HypothesisFailed("seb_relation_solve: T*B is not selfadjoint nonnegative")
    parts_M = rel_parts(M_rel)

    lam = _relation_min_lambda(rel_parts(rel_compose(Tadj, T)), parts_M, tol)
    if lam is None:
        return SebCertificate(
            feasible=False,
            lambda_star=math.inf,
            X=None,
            G0=None,
            residual_xb_t=math.inf,
            norm_X=math.inf,
        )

    n_K = T.codom_dim
    if lam <= 0.0:
        X = np.zeros((n_K, n_K), dtype=np.complex128)
        G0 = np.zeros((n_K, T.dom_dim), dtype=np.complex128)
    else:
        G0 = ts @ psd_power(lam * herm(parts_M.operator_part_matrix), -0.5, tol=tol)
        X = herm(lam * (G0 @ G0.conj().T))

    B0 = rel_restrict(B, parts_M.dom)
    B0adj = rel_adjoint(B0)
    XB0 = rel_compose(rel_from_matrix(X), B0)
    incl_ts = rel_containment_residual(operator_part_relation_reference(T, parts_T), XB0)
    incl_t = rel_containment_residual(T, XB0)

    lhs = rel_compose(Tadj, B0)
    mid = rel_compose(B0adj, XB0)
    rhs = rel_compose(B0adj, T)
    chain_resid = max(rel_distance(lhs, mid), rel_distance(lhs, rhs))

    ker_x_bound = opnorm(X @ ker_ts_adj.basis) if ker_ts_adj.dim else 0.0

    checks = {
        "inclusion_in_Ts": incl_ts,
        "inclusion_in_T": incl_t,
        "restricted_product_chain": chain_resid,
        "ker_Ts_adj_in_ker_X": ker_x_bound,
        "tol": tol,
    }

    if subspace_contains(rel_parts(B0).dom, parts_T.dom, tol=tol):
        mul_pairs = np.vstack(
            [np.zeros((T.dom_dim, parts_T.mul.dim)), parts_T.mul.basis]
        )
        T_built = rel_plusdot(XB0, mul_pairs)
        checks["equality_mode"] = rel_distance(T_built, T)
        kx = kernel_basis(X)
        checks["ker_X_equals_ker_Ts_adj"] = nk.subspace_distance(kx, ker_ts_adj)

    return SebCertificate(
        feasible=True,
        lambda_star=float(lam),
        X=X,
        G0=G0,
        residual_xb_t=incl_t,
        norm_X=opnorm(X),
        checks=checks,
    )


def reverse_solve_reference(T, B, tol: float = DEFAULT_TOL) -> ReverseCertificate:
    """Solve the reversed inequality T*T >= eta B0-bar T by duality.

    Hypotheses (hard errors): B*T selfadjoint nonnegative and
    ker B* <= ker T* + mul T.  With S = (T*)^(-1) and A = (B*)^(-1), the
    forward relation solver applied to (S, A) yields X and lambda*; then
    eta* = 1/lambda*, Y = X^(-1) (a relation, generally unbounded, with
    bounded PSD inverse), and the chain B*T = B0-bar T = B0-bar Y B0* = T* B0*
    is verified for B0 = B* restricted to pairs with values in ran B*T.  When
    ran T* <= ran B0-bar the equality T* = B0-bar Y (+) (ker T* x {0}) holds
    with mul Y = mul T + ker T*.
    """
    T, B = as_relation(T), as_relation(B)
    Badj = rel_adjoint(B)
    Tadj = rel_adjoint(T)
    gateM = rel_compose(Badj, T)
    gflags = rel_classify(gateM, tol=tol)
    if not (gflags.selfadjoint and gflags.nonnegative):
        raise HypothesisFailed("reverse_solve: B*T is not selfadjoint nonnegative")
    parts_T = rel_parts(T)
    parts_Tadj = rel_parts(Tadj)
    kerTadj = parts_Tadj.ker
    if not subspace_contains(subspace_sum(kerTadj, parts_T.mul), rel_parts(Badj).ker, tol=tol):
        raise HypothesisFailed("reverse_solve: ker B* is not contained in ker T* + mul T")

    S = rel_inverse(Tadj)
    A = rel_inverse(Badj)
    dual = seb_relation_solve(S, A, tol=tol)
    if not dual.feasible:
        return ReverseCertificate(feasible=False, eta_star=0.0, Y=None)
    eta = math.inf if dual.lambda_star <= 0.0 else 1.0 / dual.lambda_star
    Y = rel_inverse(rel_from_matrix(dual.X))

    ran_M = rel_parts(gateM).ran  # = ran B0, as ran B*T <= ran B* = dom A
    B0 = rel_inverse(rel_restrict(A, ran_M))
    B0adj = rel_adjoint(B0)
    chain = [
        gateM,
        rel_compose(B0, T),
        rel_compose(B0, rel_compose(Y, B0adj)),
        rel_compose(Tadj, B0adj),
    ]
    chain_resid = max(rel_distance(chain[0], r) for r in chain[1:])
    residuals = {
        "restricted_product_chain": chain_resid,
        "dual_lambda_star": dual.lambda_star,
        "tol": tol,
    }

    if subspace_contains(ran_M, parts_Tadj.ran, tol=tol):
        extra = np.vstack(
            [kerTadj.basis, np.zeros((T.dom_dim, kerTadj.dim))]
        )
        built = rel_plusdot(rel_compose(B0, Y), extra)
        residuals["adjoint_factorization"] = rel_distance(built, Tadj)
        mulY = rel_parts(Y).mul
        residuals["mul_Y_matches"] = nk.subspace_distance(mulY, subspace_sum(parts_T.mul, kerTadj))
        if rel_equal(B0, Badj, tol=tol) and kerTadj.dim == 0:
            residuals["adjoint_operator_factorization"] = rel_distance(
                rel_compose(Badj, Y), Tadj
            )

    return ReverseCertificate(feasible=True, eta_star=eta, Y=Y, residuals=residuals)


def diag_reverse_solve_reference(T, B, tol: float = 1e-12) -> DiagReverseResult:
    """Pointwise reversed inequality |t(n)|^2 >= eta conj(b(n)) t(n).

    Hypothesis (hard error): conj(b) t selfadjoint nonnegative by the
    relation rules.  Feasible iff the kernel condition holds (b(n) = 0
    forces t(n) in {0, INF}) and inf |t(n)|/|b(n)| over binding indices is
    positive; y = conj(t)/conj(b), with INF where both vanish or where t is
    INF, exhibiting the unbounded multivalued solution whose inverse is a
    bounded PSD symbol.
    """
    s_t, s_b = _sym(T), _sym(B)
    start = max(s_t.head_len, s_b.head_len) + 1
    head_y = []
    eta = float("inf")
    feasible = True
    for n in range(1, start):
        t, b = s_t.value_at(n), s_b.value_at(n)
        m = point_compose(point_adjoint(b), t)
        if m is TRIVIAL or m is FULL:
            raise HypothesisFailed(
                f"diag_reverse_solve: (B*T) at index {n} is {m!r}, not selfadjoint"
            )
        if m is not INF:
            m = complex(m)
            if abs(m.imag) > tol * abs(m) or m.real < -tol * abs(m):
                raise HypothesisFailed(
                    f"diag_reverse_solve: (B*T) at index {n} is {m}, not nonnegative"
                )
        if isinstance(t, _Marker):
            head_y.append(INF)
            continue
        t = complex(t)
        if b is INF:
            if t != 0:
                feasible = False  # a finite form cannot dominate the infinite one
            head_y.append(0j)
            continue
        if b is FULL or _is_zero(b):
            if t != 0:
                feasible = False  # kernel condition ker b <= ker t fails
            head_y.append(INF)
            continue
        b = complex(b)
        if t == 0:
            head_y.append(0j)
            continue
        head_y.append(t.conjugate() / b.conjugate())
        eta = min(eta, abs(t) / abs(b))

    ct, pt = s_t.tail_coeff, s_t.tail_power
    cb, pb = s_b.tail_coeff, s_b.tail_power
    m_tail = cb.conjugate() * ct
    if abs(m_tail.imag) > tol * abs(m_tail) or m_tail.real < -tol * abs(m_tail):
        raise HypothesisFailed("diag_reverse_solve: tail of B*T is not real nonnegative")
    if cb == 0 and ct == 0:
        raise UnrepresentableSymbol(
            "diag_reverse_solve: both tails vanish, so Y needs an all-infinity tail"
        )
    if cb == 0:
        feasible = False
        y_tail, y_pow = 0j, Fraction(0)
    elif ct == 0:
        y_tail, y_pow = 0j, Fraction(0)
    elif pt < pb:
        feasible = False  # the infimum decays to zero along the tail
        y_tail, y_pow = 0j, Fraction(0)
    else:
        y_tail, y_pow = ct.conjugate() / cb.conjugate(), pt - pb
        ratio_at_start = abs(ct / cb) * float(start) ** float(pt - pb)
        eta = min(eta, abs(ct / cb) if pt == pb else ratio_at_start)

    if not feasible:
        return DiagReverseResult(feasible=False, eta_star=0.0, Y=None)
    Y = DiagSymbol(head=tuple(head_y), tail_coeff=y_tail, tail_power=y_pow)
    y_unbounded = (y_pow > 0 and y_tail != 0) or any(v is INF for v in head_y)
    return DiagReverseResult(
        feasible=True,
        eta_star=eta,
        Y=Y,
        checks={"Y_unbounded": y_unbounded, "Yinv_bounded_psd": True},
    )


def matrix_from_json_reference(obj, where="matrix"):
    """A matrix from {rows, cols, data}, one complex_from_json per entry; real
    (float64) when no imaginary part is nonzero, by ``as_matrix``."""
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"{where}: missing field {exc}") from exc
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise ParseError(f"{where}: rows/cols must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"{where}: data must hold rows*cols = {rows * cols} entries")
    flat = [complex_from_json(z, f"{where}.data[{i}]") for i, z in enumerate(data)]
    return nk.as_matrix(np.array(flat, dtype=np.complex128).reshape(rows, cols))


def dumps_report_reference(report):
    """A report as one line of json's C encoder, matrix data arrays listed first."""
    return json.dumps(report, sort_keys=True, separators=(",", ": "), default=np.ndarray.tolist)


@dataclass(frozen=True)
class ReferenceIntertwiners:
    basis: list
    max_rank_element: np.ndarray
    rank: int


def sylvester_intertwiners_reference(T, S, seed: int = 0, n_combos: int = 64) -> ReferenceIntertwiners:
    """Basis of {G : G T = S G} and a maximal-rank element of the span.

    The space is the null space of the vectorized map G -> GT - SG, cut at
    the data-scale floor RANK_RTOL * max(||T||, ||S||) as well as relative
    to its largest singular value.  The maximal-rank representative is found
    over ``n_combos`` seeded random unit combinations of the basis; ties in
    rank are broken by the smallest retained singular value.
    """
    T, S = nk.as_matrix(T), nk.as_matrix(S)
    n, p = T.shape[0], S.shape[0]
    M = np.kron(T.T, np.eye(p)) - np.kron(np.eye(n), S)
    u, s, vh = np.linalg.svd(M)
    floor = RANK_RTOL * max(opnorm(T), opnorm(S))
    null = vh[numerical_rank(s, floor):, :].conj().T
    basis = [null[:, j].reshape((p, n), order="F") for j in range(null.shape[1])]
    if not basis:
        return ReferenceIntertwiners(basis=[], max_rank_element=np.zeros((p, n), dtype=np.complex128), rank=0)
    rng = np.random.default_rng(seed)
    best = None
    best_key = (-1, -1.0)
    for _ in range(n_combos):
        c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        c /= np.linalg.norm(c)
        cand = sum(ci * Gi for ci, Gi in zip(c, basis))
        sv = np.linalg.svd(cand, compute_uv=False)
        r = numerical_rank(sv)
        key = (r, float(sv[r - 1]) if r > 0 else 0.0)
        if key > best_key:
            best_key = key
            best = cand
    return ReferenceIntertwiners(basis=basis, max_rank_element=best, rank=best_key[0])


def sylvester_dimension(eigs_T, eigs_S, tol=1e-9):
    """dim{G : GT = SG} for diagonalizable T, S = sum of multiplicity products
    over shared eigenvalues."""
    eigs_T = list(eigs_T)
    eigs_S = list(eigs_S)
    reps = []
    for lam in eigs_T + eigs_S:
        if all(abs(lam - r) > tol for r in reps):
            reps.append(lam)
    total = 0
    for r in reps:
        mt = sum(1 for lam in eigs_T if abs(lam - r) <= tol)
        ms = sum(1 for lam in eigs_S if abs(lam - r) <= tol)
        total += mt * ms
    return total


def hausdorff(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def random_psd(rng, n, singular=False, floor=0.1, top=2.0, real=False):
    A = rng.standard_normal((n, n)) if real else rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(A)
    w = rng.uniform(floor, top, size=n)
    if singular and n > 1:
        w[: rng.integers(1, n)] = 0.0
    H = (q * w) @ q.conj().T
    return 0.5 * (H + H.conj().T)


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def conditioned_invertible(rng, n, cond):
    """Invertible matrix with 2-norm condition number exactly cond."""
    q1 = random_unitary(rng, n)
    q2 = random_unitary(rng, n)
    if n == 1:
        s = np.array([1.0])
    else:
        s = np.exp(rng.uniform(np.log(1.0 / cond), 0.0, size=n))
        s[0], s[-1] = 1.0, 1.0 / cond
    return (q1 * s) @ q2.conj().T
