"""Finite-dimensional linear relations (multivalued operators).

A relation T from C^n to C^m is a subspace of C^(n+m) of stacked pairs
(x; y).  All relations are closed (subspaces of a finite-dimensional space
are closed), so closure operations are identities here; the API still
mirrors the closure-heavy statements of the unbounded theory so the factor
engines can follow them verbatim.

A relation is held as an orthonormal basis of its graph, as its canonical
decomposition T = T_s (+) ({0} x mul T) (Arens 1961; Hassi, Sebestyen, de
Snoo and Szafraniec 2007), or both: orthonormal bases of dom T and mul T and
the operator part T_s = P_s T, a matrix that maps into (mul T)^perp and
vanishes on (dom T)^perp.  Each is built from the other on first use and
kept, so graph bases are built only when a distance, a graph form or a
report needs them; built from the decomposition, a graph basis is one QR
of (D; T_s D), whose singular values are >= 1 for an orthonormal basis D of
dom T, with the basis of {0} x mul T beside it.

The constructors build the decomposition exactly, with no SVD:
``rel_from_matrix`` (dom = C^n, mul = {0}, T_s = M), ``rel_adjoint``
((T*)_s = (T_s)*, dom T* = (mul T)^perp and mul T* = (dom T)^perp, two
complements that cost nothing for an everywhere-defined operator),
``rel_compose`` of an everywhere-defined S after a single-valued T (dom T,
mul S, S_s T_s: one matmul), ``rel_restrict`` of an everywhere-defined B
to D (dom D, mul B, B_s P_D; B itself when D is the whole space),
``operator_part_relation`` (dom T, {0}, T_s; T itself when mul T = {0}),
``rel_sqrt`` (dom T, mul T, P_s (T_s)^(1/2) P_dom) and ``rel_mul_everything``
({0}, C^m, 0).  The operator part and the root start from whatever
decomposition T has, read off its graph when T came as one, and take no
SVD of their own.
``rel_inverse`` takes one SVD of T_s D.  Its rank decision is the one the
graph path makes: the block T_s D C of an orthonormal graph basis has the
singular values s / sqrt(1 + s^2) of T_s D's singular values s (C = (I +
D* T_s* T_s D)^(-1/2) up to a unitary), so the graph rule applies to those
(:func:`_graph_rank`).  It keeps the inverted decomposition only while the
kept singular values span a factor of at most ``INVERSE_COND_MAX``.  Such
relations carry ``exact``, and only they take these matrix shortcuts.

Every other relation (from a graph basis, from JSON, with INF entries)
decomposes on its graph blocks (X; Y): the parts take one SVD of X, ran and
ker one of Y, the product and the restriction one null space of
coefficients each.  Blocks of an orthonormal basis have scale 1, so those
null spaces cut at s > RANK_RTOL max(s_max, 1): a block of pure rounding
dust counts as zero.  A relation carries no tolerance: its predicates and
gates take ``tol`` from the caller.
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
    full_space,
    herm,
    is_hermitian,
    is_psd_spectrum,
    kernel_basis,
    moore_penrose,
    psd_power,
    span,
    subspace_complement,
    subspace_distance,
    svd_split,
    zero_space,
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
    "rel_plusdot",
    "rel_equal",
    "rel_distance",
    "resolvent_contraction",
]


# Graph bases are orthonormal, so any block extracted from one carries
# singular values that are either honest cosines or pure floating-point
# dust; this floor separates the two.
GRAPH_ATOL = 1e-12


# An explicit inverse carries rounding of about eps s_0 / s_(r-1), relative
# to its norm, into every graph built from it, while the swapped graph basis
# stays orthonormal to rounding: over 20 random complex 8 x 8 matrices, the
# graph of (T^(-1))* built from it was off by up to 7e-13 at condition 1e4
# and 9e-10 at 1e7, the graph path's by 1e-13 at every condition.
INVERSE_COND_MAX = 1e4


def _graph_rank(s, unit: bool = False) -> int:
    """The graph rule s > max(RANK_RTOL s_max, GRAPH_ATOL) read on an operator part.

    For descending singular values s of T_s D (D an orthonormal basis of
    dom T), the block T_s D C of an orthonormal graph basis has singular
    values s / sqrt(1 + s^2); a nonzero mul T (``unit``) adds the block's
    singular values 1 to the maximum.
    """
    g = s / np.hypot(1.0, s)
    top = max(float(g[0]) if g.size else 0.0, 1.0 if unit else 0.0)
    return int(np.count_nonzero(g > max(RANK_RTOL * top, GRAPH_ATOL)))


class LinRel:
    """A linear relation C^dom_dim -> C^codom_dim.

    ``graph`` is an orthonormal basis of its graph and ``canon`` its
    canonical decomposition (dom T, mul T, T_s); either may be given as a
    function of no arguments that builds it, and each is built from the
    other on first use.  A builder of ``canon`` may return None, and the
    decomposition is then read off the graph.
    """

    __slots__ = ("dom_dim", "codom_dim", "_graph", "_canon", "_exact")

    def __init__(self, dom_dim: int, codom_dim: int, graph=None, canon=None):
        self.dom_dim = dom_dim
        self.codom_dim = codom_dim
        self._graph = graph
        self._canon = canon
        self._exact = canon is not None

    @property
    def graph(self) -> Subspace:
        if not isinstance(self._graph, Subspace):
            self._graph = _canonical_graph(self) if self._graph is None else self._graph()
        return self._graph

    @property
    def canon(self) -> tuple:
        """(dom T, mul T, T_s), read off the graph by :func:`_canon_from_graph` unless given."""
        if not isinstance(self._canon, tuple):
            built = self._canon() if callable(self._canon) else None
            self._exact = built is not None
            self._canon = _canon_from_graph(self) if built is None else built
        return self._canon

    @property
    def exact(self) -> bool:
        """Was the decomposition given by a constructor rather than read off the graph by SVD?

        Only such relations take the operations' matrix shortcuts.
        """
        if callable(self._canon):
            self.canon
        return self._exact

    @property
    def graph_dim(self) -> int:
        return self.graph.dim

    def blocks(self):
        """(X, Y) with graph basis columns stacked as (x; y)."""
        B = self.graph.basis
        return B[: self.dom_dim, :], B[self.dom_dim :, :]


class RelParts:
    """dom T, mul T and the operator-part matrix T_s of the canonical
    decomposition; ran T and ker T are read off one SVD of the graph block Y
    when first asked for."""

    __slots__ = ("dom", "mul", "operator_part_matrix", "_ran", "_ker", "_relation")

    def __init__(self, dom, mul, operator_part_matrix, ran=None, ker=None, relation=None):
        self.dom = dom
        self.mul = mul
        self.operator_part_matrix = operator_part_matrix
        self._ran, self._ker, self._relation = ran, ker, relation

    @property
    def ran(self) -> Subspace:
        if self._ran is None:
            self._read_ran_ker()
        return self._ran

    @property
    def ker(self) -> Subspace:
        if self._ker is None:
            self._read_ran_ker()
        return self._ker

    def _read_ran_ker(self):
        """ran T = ran Y and ker T = X ker Y; as (X; Y) has orthonormal
        columns, so has X K for an orthonormal basis K of ker Y."""
        X, Y = self._relation.blocks()
        sy = svd_split(Y, atol=GRAPH_ATOL)
        self._ran, self._ker = sy.ran, Subspace(self._relation.dom_dim, X @ sy.ker.basis)


@dataclass(frozen=True)
class RelFlags:
    symmetric: bool
    nonnegative: bool
    selfadjoint: bool


def rel_from_graph(vectors, dom_dim: int, codom_dim: int) -> LinRel:
    """Relation spanned by stacked (x; y) columns (orthonormalized here)."""
    return LinRel(dom_dim, codom_dim, span(vectors, ambient_dim=dom_dim + codom_dim))


def rel_from_matrix(M) -> LinRel:
    """Graph {(x, Mx)} of an everywhere-defined matrix: dom = C^n, mul = {0}, T_s = M.

    Its graph basis, built on demand, spans (I; M) with no rank cut, as the
    columns have singular values >= 1: a relative cut would drop graph
    dimensions once ||M|| passes 1/RANK_RTOL.
    """
    M = as_matrix(M)
    m, n = M.shape
    return LinRel(n, m, canon=(full_space(n), zero_space(m), M))


def _canonical_graph(T: LinRel) -> Subspace:
    """graph T = span (D; T_s D) (+) ({0} x mul T), the two orthogonal as T_s maps into (mul T)^perp.

    (D; T_s D) has singular values >= 1 for an orthonormal D, so one QR
    gives its orthonormal basis with no rank decision.
    """
    dom, mul, ts = T.canon
    n, amb = T.dom_dim, T.dom_dim + T.codom_dim
    op = np.linalg.qr(as_matrix(np.vstack([dom.basis, ts @ dom.basis])))[0] if dom.dim else np.zeros((amb, 0))
    if mul.dim:
        op = np.hstack([op, np.vstack([np.zeros((n, mul.dim)), mul.basis])])
    return Subspace(amb, op)


def _canon_from_graph(T: LinRel) -> tuple:
    """One SVD of X gives dom T = ran X, X^+ and mul T = Y ker X; then T_s = P_s Y X^+."""
    X, Y = T.blocks()
    sx = svd_split(X, atol=GRAPH_ATOL)
    mul = Subspace(T.codom_dim, Y @ sx.ker.basis)
    ts = (Y - mul.basis @ (mul.basis.conj().T @ Y)) @ sx.pinv
    return sx.ran, mul, ts


def as_relation(x) -> LinRel:
    """A relation as it is, a matrix as its graph."""
    return x if isinstance(x, LinRel) else rel_from_matrix(x)


def rel_identity(n: int) -> LinRel:
    return rel_from_matrix(np.eye(n))


def rel_zero(n: int, m: int) -> LinRel:
    return rel_from_matrix(np.zeros((m, n)))


def rel_mul_everything(n: int, m: int) -> LinRel:
    """The relation {0} x C^m from C^n to C^m: dom = {0}, mul = C^m, T_s = 0."""
    return LinRel(n, m, canon=(zero_space(n), full_space(m), np.zeros((m, n))))


def rel_parts(T: LinRel) -> RelParts:
    """dom/ran/ker/mul subspaces and the zero-extended operator-part matrix.

    mul T = T(0) and ker T = {x : (x, 0) in T}; dim dom + dim mul equals the
    graph dimension.  The operator part satisfies T_s x = P_s y for every
    (x, y) in T, where P_s projects onto (mul T)^perp, and vanishes on
    (dom T)^perp.  dom, mul and T_s are the relation's kept decomposition;
    ran and ker cost one SVD when first asked for.
    """
    dom, mul, ts = T.canon
    return RelParts(dom, mul, ts, relation=T)


def operator_part_relation(T: LinRel) -> LinRel:
    """T_s = P_s T as a relation on dom T (single valued).

    Built from T's kept decomposition (dom T, {0}, T_s), and T itself when mul T = {0}.
    """
    dom, mul, ts = T.canon
    if not mul.dim:
        return T
    return LinRel(T.dom_dim, T.codom_dim, canon=(dom, zero_space(T.codom_dim), ts))


def operator_part_cokernel(T: LinRel) -> Subspace:
    """ker (T_s)* = (ran T_s)^perp = ker T* + mul T, at the graph rule.

    Read off the graph block P_s Y, so an operator part that is rounding dust
    counts as zero; for an exact decomposition off one SVD of T_s by
    :func:`_graph_rank`, which is the same rule.
    """
    _, mul, ts = T.canon
    if T.exact:
        return svd_split(ts.conj().T, rank=_graph_rank).ker
    Y, M = T.blocks()[1], mul.basis
    return kernel_basis((Y - M @ (M.conj().T @ Y)).conj().T, atol=GRAPH_ATOL)


def rel_adjoint(T: LinRel) -> LinRel:
    """graph(T*) = orthogonal complement of J graph(T), J(x, y) = (y, -x) unitary.

    An exact decomposition gives T*'s: (T*)_s = (T_s)*, dom T* = (mul T)^perp
    and mul T* = (dom T)^perp.
    """
    if T.exact:
        dom, mul, ts = T.canon
        return LinRel(T.codom_dim, T.dom_dim, canon=(subspace_complement(mul), subspace_complement(dom), ts.conj().T))
    X, Y = T.blocks()
    flipped = Subspace(T.dom_dim + T.codom_dim, np.vstack([Y, -X]))
    return LinRel(T.codom_dim, T.dom_dim, subspace_complement(flipped))


def rel_inverse(T: LinRel) -> LinRel:
    """graph(T^(-1)) = {(y, x) : (x, y) in T}, with the swapped basis kept.

    Both are built on demand.  An exact decomposition carries over through
    one SVD T_s D = U diag(s) W*, D an orthonormal basis of dom T, cut by
    :func:`_graph_rank`: dom T^(-1) = ran T = span U_r (+) mul T,
    mul T^(-1) = ker T = span D W_(r:) and (T^(-1))_s = D W_r diag(1/s_r) U_r*,
    when s_0 <= INVERSE_COND_MAX s_(r-1); past that the inverse is
    decomposed on its graph.
    """
    n, m = T.dom_dim, T.codom_dim

    def swapped():
        X, Y = T.blocks()
        return Subspace(n + m, np.vstack([Y, X]))

    def inverse_canon():
        dom, mul, ts = T.canon
        D = dom.basis
        split = svd_split(ts @ D, rank=lambda s: _graph_rank(s, unit=mul.dim > 0))
        if split.values.size and split.values[0] > INVERSE_COND_MAX * split.values[-1]:
            return None
        ran = Subspace(m, np.hstack([split.ran.basis, mul.basis]))
        return ran, Subspace(n, D @ split.ker.basis), D @ split.pinv

    return LinRel(m, n, swapped, inverse_canon if T.exact else None)


def rel_compose(S: LinRel, T: LinRel) -> LinRel:
    """The product S T = {(x, z) : exists y, (x, y) in T, (y, z) in S}.

    With graph blocks (X_T; Y_T) and (X_S; Y_S), the pairs that meet in the
    middle, Y_T c1 = X_S c2, are the null space N of [Y_T, -X_S]; the
    product's graph is spanned by (X_T N_1; Y_S N_2).  An exact S defined
    everywhere after an exact single-valued T gives dom T, mul S and S_s T_s.
    """
    if T.codom_dim != S.dom_dim:
        raise DimensionMismatch(
            f"rel_compose: codomain {T.codom_dim} of T != domain {S.dom_dim} of S"
        )
    if S.exact and T.exact:
        dom_s, mul_s, ts_s = S.canon
        dom_t, mul_t, ts_t = T.canon
        if dom_s.dim == S.dom_dim and not mul_t.dim:
            return LinRel(T.dom_dim, S.codom_dim, canon=(dom_t, mul_s, ts_s @ ts_t))
    Xt, Yt = T.blocks()
    Xs, Ys = S.blocks()
    N = kernel_basis(np.hstack([Yt, -Xs]), atol=RANK_RTOL).basis
    gt = T.graph_dim
    graph = span(
        np.vstack([Xt @ N[:gt], Ys @ N[gt:]]), ambient_dim=T.dom_dim + S.codom_dim, atol=GRAPH_ATOL
    )
    return LinRel(T.dom_dim, S.codom_dim, graph)


def rel_restrict(B: LinRel, D: Subspace) -> LinRel:
    """B restricted to D: graph(B) N for the null space N of (I - P_D) X_B.

    An exact B defined everywhere gives dom D, mul B and B_s P_D, and is its
    own restriction to the whole space.
    """
    if D.ambient_dim != B.dom_dim:
        raise DimensionMismatch("rel_restrict: subspace lives in the wrong space")
    if B.exact:
        dom, mul, ts = B.canon
        if dom.dim == B.dom_dim:
            if D.dim == B.dom_dim:
                return B
            return LinRel(B.dom_dim, B.codom_dim, canon=(D, mul, (ts @ D.basis) @ D.basis.conj().T))
    X, _ = B.blocks()
    N = kernel_basis(X - D.basis @ (D.basis.conj().T @ X), atol=RANK_RTOL).basis
    return LinRel(B.dom_dim, B.codom_dim, Subspace(B.graph.ambient_dim, B.graph.basis @ N))


def rel_classify(T: LinRel, tol: float = DEFAULT_TOL) -> RelFlags:
    """Symmetry/nonnegativity of the graph form <y, x>, and selfadjointness.

    With graph basis pairs (x_i, y_i), the form matrix is F = X* Y; the
    relation is symmetric iff F passes the gate's Hermitian test at tol
    (``numkernel.is_hermitian``), nonnegative iff its eigenvalues also pass
    the PSD test (``numkernel.is_psd_spectrum``), selfadjoint iff it is
    symmetric, dim graph T = n and ||F - F*|| <= tol: the exact distance to
    graph T*, whose complement J graph T has the orthonormal basis (Y; -X),
    decided by ``numkernel.opnorm_holds`` and only for a symmetric form.
    A selfadjoint relation is symmetric, so the flags never say otherwise,
    although the two tests measure ||F - F*|| on different scales.
    """
    if T.dom_dim != T.codom_dim:
        raise NotSquare("rel_classify: relation is not square")
    X, Y = T.blocks()
    F = X.conj().T @ Y
    sym = is_hermitian(F, tol)
    nonneg = sym and is_psd_spectrum(np.linalg.eigvalsh(herm(F)) if F.size else np.zeros(0), tol)
    # the gap to graph T* is ||F - F*||, and 1 when dim graph T != n
    square = T.graph_dim == T.dom_dim
    adj = sym and (nk.opnorm_holds(F - F.conj().T, lambda gap: gap <= tol) if square else 1.0 <= tol)
    return RelFlags(symmetric=sym, nonnegative=nonneg, selfadjoint=adj)


def _require_nonneg_selfadjoint(T, who, tol: float = DEFAULT_TOL):
    flags = rel_classify(T, tol=tol)
    if not (flags.selfadjoint and flags.nonnegative):
        raise NotNonnegSelfadjoint(f"{who}: relation is not nonnegative selfadjoint")


def rel_sqrt(T: LinRel, tol: float = DEFAULT_TOL) -> LinRel:
    """Square root of a nonnegative selfadjoint relation, gated at ``tol``.

    (T^(1/2))_s = (T_s)^(1/2) on dom T, and mul T is kept.  The root is
    projected onto (mul T)^perp, which leaves the graph span (d; root d) +
    {0} x mul T as it is and keeps the decomposition's two blocks orthogonal.
    """
    _require_nonneg_selfadjoint(T, "rel_sqrt", tol)
    dom, mul, ts = T.canon
    D, M = dom.basis, mul.basis
    root = (psd_power(herm(ts), 0.5, tol) @ D) @ D.conj().T
    return LinRel(T.dom_dim, T.codom_dim, canon=(dom, mul, root - M @ (M.conj().T @ root)))


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


def rel_plusdot(R: LinRel, extra_pairs) -> LinRel:
    """Componentwise sum of graph(R) with extra stacked (x; y) columns; R itself for none."""
    if not np.asarray(extra_pairs).size:
        return R
    return rel_from_graph(np.hstack([R.graph.basis, as_matrix(extra_pairs)]), R.dom_dim, R.codom_dim)


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


def rel_containment_residual(big: LinRel, small: LinRel) -> float:
    return nk.subspace_containment_residual(big.graph, small.graph)
