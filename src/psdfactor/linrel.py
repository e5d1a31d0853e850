"""Finite-dimensional linear relations (multivalued operators).

A relation T from C^n to C^m is stored as an orthonormal basis of its graph,
a subspace of C^(n+m) of stacked pairs (x; y).  All relations are closed
(subspaces of a finite-dimensional space are closed), so closure operations
are identities here; the API still mirrors the closure-heavy statements of
the unbounded theory so the factor engines can follow them verbatim.

The decomposition T = T_s (+) T_mul into the operator part T_s = P_s T and
the purely multivalued part {0} x mul T underlies most operations; the
operator part is carried as an ordinary matrix that vanishes on (dom T)^perp.

Operations follow their componentwise definitions on the graph blocks
(X; Y): the parts take one SVD of X and one of Y, the product and the
restriction one null space of coefficients each.  Blocks of an orthonormal
basis have scale 1, so those null spaces cut at s > RANK_RTOL max(s_max, 1):
a block of pure rounding dust counts as zero.  A relation carries no
tolerance: its predicates and gates take ``tol`` from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import DimensionMismatch, NotNonnegSelfadjoint, NotSquare
from .numkernel import (
    DEFAULT_TOL,
    RANK_RTOL,
    Subspace,
    as_matrix,
    herm,
    kernel_basis,
    moore_penrose,
    psd_power,
    span,
    subspace_contains,
    subspace_distance,
    svd_split,
)

__all__ = [
    "LinRel",
    "RelParts",
    "RelFlags",
    "as_relation",
    "rel_from_matrix",
    "rel_from_graph",
    "rel_identity",
    "rel_zero",
    "rel_mul_everything",
    "rel_parts",
    "rel_adjoint",
    "rel_inverse",
    "rel_compose",
    "rel_restrict",
    "rel_classify",
    "rel_sqrt",
    "rel_order_leq",
    "rel_moore_penrose",
    "rel_scale",
    "rel_plusdot",
    "rel_equal",
    "rel_contains",
    "rel_distance",
    "resolvent_contraction",
]


# Graph bases are orthonormal, so any block extracted from one carries
# singular values that are either honest cosines or pure floating-point
# dust; this floor separates the two.
GRAPH_ATOL = 1e-12


@dataclass(frozen=True)
class LinRel:
    """A linear relation C^dom_dim -> C^codom_dim as a graph subspace."""

    dom_dim: int
    codom_dim: int
    graph: Subspace

    @property
    def graph_dim(self) -> int:
        return self.graph.dim

    def blocks(self):
        """(X, Y) with graph basis columns stacked as (x; y)."""
        B = self.graph.basis
        return B[: self.dom_dim, :], B[self.dom_dim :, :]


@dataclass(frozen=True)
class RelParts:
    dom: Subspace
    ran: Subspace
    ker: Subspace
    mul: Subspace
    operator_part_matrix: np.ndarray


@dataclass(frozen=True)
class RelFlags:
    symmetric: bool
    nonnegative: bool
    selfadjoint: bool


def rel_from_graph(vectors, dom_dim: int, codom_dim: int) -> LinRel:
    """Relation spanned by stacked (x; y) columns (orthonormalized here)."""
    return LinRel(dom_dim, codom_dim, span(vectors, ambient_dim=dom_dim + codom_dim))


def rel_from_matrix(M) -> LinRel:
    """Graph {(x, Mx)} of an everywhere-defined matrix.

    The columns of (I; M) have singular values >= 1, so no rank cut applies:
    a relative one would drop graph dimensions once ||M|| passes 1/RANK_RTOL.
    """
    M = as_matrix(M)
    m, n = M.shape
    stacked = np.vstack([np.eye(n), M])
    return LinRel(n, m, span(stacked, rtol=0.0))


def as_relation(x) -> LinRel:
    """A relation as it is, a matrix as its graph."""
    return x if isinstance(x, LinRel) else rel_from_matrix(x)


def rel_identity(n: int) -> LinRel:
    return rel_from_matrix(np.eye(n))


def rel_zero(n: int, m: int) -> LinRel:
    return rel_from_matrix(np.zeros((m, n)))


def rel_mul_everything(n: int, m: int) -> LinRel:
    """The relation {0} x C^m from C^n to C^m."""
    vecs = np.vstack([np.zeros((n, m)), np.eye(m)])
    return rel_from_graph(vecs, n, m)


def rel_parts(T: LinRel) -> RelParts:
    """dom/ran/ker/mul subspaces and the zero-extended operator-part matrix.

    mul T = T(0) and ker T = {x : (x, 0) in T}; dim dom + dim mul equals the
    graph dimension.  The operator part satisfies T_s x = P_s y for every
    (x, y) in T, where P_s projects onto (mul T)^perp, and vanishes on
    (dom T)^perp.

    One SVD of X gives dom T = ran X, X^+ and mul T = Y ker X, one SVD of Y
    gives ran T and ker T = X ker Y; as (X; Y) has orthonormal columns, so
    has Y K for an orthonormal basis K of ker X.
    """
    X, Y = T.blocks()
    sx, sy = svd_split(X, atol=GRAPH_ATOL), svd_split(Y, atol=GRAPH_ATOL)
    mul = Subspace(T.codom_dim, Y @ sx.ker.basis)
    ker = Subspace(T.dom_dim, X @ sy.ker.basis)
    ts = (Y - mul.basis @ (mul.basis.conj().T @ Y)) @ sx.pinv
    return RelParts(dom=sx.ran, ran=sy.ran, ker=ker, mul=mul, operator_part_matrix=ts)


def operator_part_relation(T: LinRel, parts: RelParts | None = None) -> LinRel:
    """T_s = P_s T as a relation on dom T (single valued); ``parts`` = rel_parts(T) if known."""
    parts = rel_parts(T) if parts is None else parts
    D = parts.dom.basis
    vecs = np.vstack([D, parts.operator_part_matrix @ D])
    return rel_from_graph(vecs, T.dom_dim, T.codom_dim)


def rel_adjoint(T: LinRel) -> LinRel:
    """graph(T*) = orthogonal complement of J graph(T), J(x, y) = (y, -x) unitary."""
    X, Y = T.blocks()
    flipped = Subspace(T.dom_dim + T.codom_dim, np.vstack([Y, -X]))
    return LinRel(T.codom_dim, T.dom_dim, nk.subspace_complement(flipped))


def rel_inverse(T: LinRel) -> LinRel:
    """graph(T^(-1)) = {(y, x) : (x, y) in T}, with the swapped basis kept."""
    X, Y = T.blocks()
    g = Subspace(T.dom_dim + T.codom_dim, np.vstack([Y, X]))
    return LinRel(T.codom_dim, T.dom_dim, g)


def rel_compose(S: LinRel, T: LinRel) -> LinRel:
    """The product S T = {(x, z) : exists y, (x, y) in T, (y, z) in S}.

    With graph blocks (X_T; Y_T) and (X_S; Y_S), the pairs that meet in the
    middle, Y_T c1 = X_S c2, are the null space N of [Y_T, -X_S]; the
    product's graph is spanned by (X_T N_1; Y_S N_2).
    """
    if T.codom_dim != S.dom_dim:
        raise DimensionMismatch(
            f"rel_compose: codomain {T.codom_dim} of T != domain {S.dom_dim} of S"
        )
    Xt, Yt = T.blocks()
    Xs, Ys = S.blocks()
    N = kernel_basis(np.hstack([Yt, -Xs]), atol=RANK_RTOL).basis
    gt = T.graph_dim
    graph = span(
        np.vstack([Xt @ N[:gt], Ys @ N[gt:]]), ambient_dim=T.dom_dim + S.codom_dim, atol=GRAPH_ATOL
    )
    return LinRel(T.dom_dim, S.codom_dim, graph)


def rel_restrict(B: LinRel, D: Subspace) -> LinRel:
    """B restricted to D: graph(B) N for the null space N of (I - P_D) X_B."""
    if D.ambient_dim != B.dom_dim:
        raise DimensionMismatch("rel_restrict: subspace lives in the wrong space")
    X, _ = B.blocks()
    N = kernel_basis(X - D.basis @ (D.basis.conj().T @ X), atol=RANK_RTOL).basis
    return LinRel(B.dom_dim, B.codom_dim, Subspace(B.graph.ambient_dim, B.graph.basis @ N))


def rel_classify(T: LinRel, tol: float = DEFAULT_TOL) -> RelFlags:
    """Symmetry/nonnegativity of the graph form <y, x>, and selfadjointness.

    With graph basis pairs (x_i, y_i), the form matrix is F = X* Y; the
    relation is symmetric iff F is Hermitian at tol, nonnegative iff F is
    additionally PSD (||F|| read off its eigenvalues), selfadjoint iff it is
    symmetric, dim graph T = n and ||F - F*|| <= tol: the exact distance to
    graph T*, whose complement J graph T has the orthonormal basis (Y; -X).
    A selfadjoint relation is symmetric, so the flags never say otherwise,
    although the two tests measure ||F - F*|| on different scales.
    """
    if T.dom_dim != T.codom_dim:
        raise NotSquare("rel_classify: relation is not square")
    X, Y = T.blocks()
    F = X.conj().T @ Y
    skew = F - F.conj().T
    sym = nk.frob(skew) <= tol * (1.0 + nk.frob(F))
    nonneg = False
    if sym:
        w = np.linalg.eigvalsh(herm(F)) if F.size else np.zeros(0)
        nonneg = w.size == 0 or bool(w[0] >= -tol * (1.0 + max(-w[0], w[-1])))
    gap = nk.opnorm(skew) if T.graph_dim == T.dom_dim else 1.0
    return RelFlags(symmetric=sym, nonnegative=nonneg, selfadjoint=sym and gap <= tol)


def _require_nonneg_selfadjoint(T, who, tol: float = DEFAULT_TOL):
    flags = rel_classify(T, tol=tol)
    if not (flags.selfadjoint and flags.nonnegative):
        raise NotNonnegSelfadjoint(f"{who}: relation is not nonnegative selfadjoint")


def rel_sqrt(T: LinRel, tol: float = DEFAULT_TOL) -> LinRel:
    """Square root of a nonnegative selfadjoint relation, gated at ``tol``.

    The operator part gets its PSD square root on dom T; the multivalued part
    is preserved, matching (T^(1/2))_s = (T_s)^(1/2).
    """
    _require_nonneg_selfadjoint(T, "rel_sqrt", tol)
    parts = rel_parts(T)
    root = psd_power(herm(parts.operator_part_matrix), 0.5, tol)
    D = parts.dom.basis
    M = parts.mul.basis
    n = T.dom_dim
    vecs = np.hstack(
        [
            np.vstack([D, root @ D]),
            np.vstack([np.zeros((n, M.shape[1])), M]),
        ]
    )
    return rel_from_graph(vecs, n, n)


def resolvent_contraction(T: LinRel) -> np.ndarray:
    """The everywhere-defined contraction (I + T)^(-1) of a nonneg selfadjoint T.

    Built straight from the graph: (x + y, x) for (x, y) in T.  The map
    c -> (X + Y)c is invertible because <y, x> >= 0, so no splitting into
    operator and mul parts is needed.
    """
    X, Y = T.blocks()
    if X.shape[1] != T.dom_dim:
        raise NotNonnegSelfadjoint("resolvent_contraction: graph dimension != ambient dimension")
    A = X + Y
    C = np.linalg.solve(A.conj().T, X.conj().T).conj().T
    return herm(C)


def rel_order_leq(Tlo: LinRel, Thi: LinRel, tol: float = DEFAULT_TOL) -> bool:
    """Form order Tlo <= Thi for nonnegative selfadjoint relations.

    Decided by the resolvent criterion: (I + Thi)^(-1) <= (I + Tlo)^(-1) in
    the Loewner order; the purely multivalued relation dominates everything
    since its resolvent transform is 0.
    """
    _require_nonneg_selfadjoint(Tlo, "rel_order_leq", tol)
    _require_nonneg_selfadjoint(Thi, "rel_order_leq", tol)
    Clo = resolvent_contraction(Tlo)
    Chi = resolvent_contraction(Thi)
    flag, _ = nk.loewner_leq(Chi, Clo, tol=tol)
    return flag


def rel_scale(T: LinRel, c: float) -> LinRel:
    """The relation cT = {(x, cy)}."""
    X, Y = T.blocks()
    return rel_from_graph(np.vstack([X, c * Y]), T.dom_dim, T.codom_dim)


def rel_plusdot(R: LinRel, extra_pairs) -> LinRel:
    """Componentwise sum of graph(R) with extra stacked (x; y) columns."""
    vecs = np.hstack([R.graph.basis, as_matrix(extra_pairs)]) if np.asarray(extra_pairs).size else R.graph.basis
    return rel_from_graph(vecs, R.dom_dim, R.codom_dim)


def rel_moore_penrose(T: LinRel) -> LinRel:
    """Moore-Penrose inverse: the matrix pseudo-inverse of the operator part.

    The defining projection identities survive in relation form as

        T+ T = P_(ker T)^perp restricted to dom T,
        T T+ = graph(P_(ker T*)^perp) (+) ({0} x mul T),

    which for single-valued T collapse to the classical ones.
    """
    parts = rel_parts(T)
    return rel_from_matrix(moore_penrose(parts.operator_part_matrix))


def rel_equal(A: LinRel, B: LinRel, tol: float = DEFAULT_TOL) -> bool:
    return (
        A.dom_dim == B.dom_dim
        and A.codom_dim == B.codom_dim
        and subspace_distance(A.graph, B.graph) <= tol
    )


def rel_distance(A: LinRel, B: LinRel) -> float:
    return subspace_distance(A.graph, B.graph)


def rel_contains(big: LinRel, small: LinRel, tol: float = DEFAULT_TOL) -> bool:
    """graph(small) <= graph(big) by projection residual."""
    return subspace_contains(big.graph, small.graph, tol=tol)


def rel_containment_residual(big: LinRel, small: LinRel) -> float:
    return nk.subspace_containment_residual(big.graph, small.graph)
