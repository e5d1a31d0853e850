"""Linear-relation calculus: graph operations, parts, order, and the
relation identities the factor engines lean on."""

import numpy as np
import pytest

from psdfactor import numkernel as nk
from psdfactor.diagmodel import FULL, INF, TRIVIAL, DiagRel, DiagSymbol, diag_truncate
from psdfactor.errors import DimensionMismatch, NotNonnegSelfadjoint
from psdfactor.linrel import (
    GRAPH_ATOL,
    LinRel,
    RelFlags,
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
    rel_moore_penrose,
    rel_mul_everything,
    rel_order_leq,
    rel_parts,
    rel_plusdot,
    rel_restrict,
    rel_sqrt,
    rel_zero,
)

from oracles import (
    form_order_leq_definition,
    operator_part_relation_reference,
    projector,
    random_psd,
    random_unitary,
    rel_classify_reference,
    rel_classify_svd,
    rel_compose_reference,
    rel_parts_reference,
    rel_restrict_reference,
    rel_sqrt_reference,
    subspace_distance_reference,
    subspace_sum,
)


def random_relation(rng, n, m, graph_dim=None):
    total = n + m
    if graph_dim is None:
        graph_dim = int(rng.integers(1, total))
    vecs = rng.standard_normal((total, graph_dim)) + 1j * rng.standard_normal((total, graph_dim))
    return rel_from_graph(vecs, n, m)


def test_rel_from_matrix_zero_map():
    R = rel_zero(2, 2)
    expected = rel_from_graph(np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=float), 2, 2)
    assert rel_equal(R, expected)


def test_rel_from_matrix_identity():
    R = rel_identity(2)
    assert R.graph_dim == 2
    assert rel_parts(R).ker.dim == 0
    # a graph keeps every dimension however large the matrix
    assert rel_from_matrix(np.diag([1.0, 1e11])).graph_dim == 2


def test_parts_round_trip():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    parts = rel_parts(rel_from_matrix(M))
    assert nk.frob(parts.operator_part_matrix - M) <= 1e-10 * (1 + nk.frob(M))
    assert parts.mul.dim == 0 and parts.dom.dim == 3


def test_parts_purely_multivalued():
    R = rel_mul_everything(2, 3)
    parts = rel_parts(R)
    assert parts.dom.dim == 0 and parts.mul.dim == 3
    assert nk.frob(parts.operator_part_matrix) == 0.0


def test_parts_dimension_count():
    rng = np.random.default_rng(2)
    for _ in range(25):
        R = random_relation(rng, 2, 2, graph_dim=3)
        parts = rel_parts(R)
        assert parts.dom.dim + parts.mul.dim == 3


def test_adjoint_of_matrix():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert rel_equal(rel_adjoint(rel_from_matrix(M)), rel_from_matrix(M.conj().T), tol=1e-10)


def test_adjoint_of_mul_everything():
    R = rel_mul_everything(2, 3)  # {0} x K from H to K
    expected = rel_mul_everything(3, 2)  # {0} x H from K to H
    assert rel_equal(rel_adjoint(R), expected)


def test_involutions_bulk():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        R = random_relation(rng, n, m)
        assert rel_distance(rel_adjoint(rel_adjoint(R)), R) <= 1e-10
        assert rel_distance(rel_inverse(rel_inverse(R)), R) <= 1e-10
        assert rel_distance(rel_adjoint(rel_inverse(R)), rel_inverse(rel_adjoint(R))) <= 1e-10
        assert rel_adjoint(R).graph_dim == n + m - R.graph_dim


def test_inverse_of_zero_map():
    assert rel_equal(rel_inverse(rel_zero(2, 2)), rel_mul_everything(2, 2))
    assert rel_equal(rel_inverse(rel_identity(3)), rel_identity(3))


def test_compose_matrices_and_identity():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3))
    N = rng.standard_normal((2, 3))
    T = rel_from_matrix(M)
    assert rel_equal(rel_compose(rel_identity(3), T), T, tol=1e-10)
    assert rel_equal(rel_compose(rel_from_matrix(N), T), rel_from_matrix(N @ M), tol=1e-10)


def test_compose_dimension_guard():
    with pytest.raises(DimensionMismatch):
        rel_compose(rel_identity(2), rel_from_matrix(np.zeros((3, 2))))


def test_compose_adjoint_containment_and_equality():
    # T*S* <= (ST)* always; equality when dom S is everywhere or T invertible
    rng = np.random.default_rng(6)
    for trial in range(120):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        T = random_relation(rng, n, m)
        S = random_relation(rng, m, k)
        lhs = rel_compose(rel_adjoint(T), rel_adjoint(S))  # T* S*
        rhs = rel_adjoint(rel_compose(S, T))  # (S T)*
        assert nk.subspace_contains(rhs.graph, lhs.graph, tol=1e-9)
        if trial % 3 == 0:
            S_mat = rng.standard_normal((k, m))  # dom S everywhere
            lhs = rel_compose(rel_adjoint(T), rel_adjoint(rel_from_matrix(S_mat)))
            rhs = rel_adjoint(rel_compose(rel_from_matrix(S_mat), T))
            assert rel_distance(lhs, rhs) <= 1e-9
        if trial % 3 == 1:
            T_inv = rel_from_matrix(rng.standard_normal((m, m)) + np.eye(m))  # invertible
            S2 = random_relation(rng, m, k)
            lhs = rel_compose(rel_adjoint(T_inv), rel_adjoint(S2))
            rhs = rel_adjoint(rel_compose(S2, T_inv))
            assert rel_distance(lhs, rhs) <= 1e-9


def test_power_alpha_commutation():
    # (R* X^alpha)* = X^alpha R for PSD X, any relation R, alpha in [0, 1]
    rng = np.random.default_rng(7)
    for _ in range(40):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        R = random_relation(rng, n, m)
        X = random_psd(rng, m, singular=bool(rng.integers(0, 2)))
        for alpha in (0.0, 0.25, 0.5, 1.0):
            Xa = rel_from_matrix(nk.psd_power(X, alpha))
            lhs = rel_adjoint(rel_compose(rel_adjoint(R), Xa))
            rhs = rel_compose(Xa, R)
            assert rel_distance(lhs, rhs) <= 1e-9


def test_restrict_trivials():
    rng = np.random.default_rng(8)
    B = random_relation(rng, 3, 2)
    assert rel_equal(rel_restrict(B, nk.full_space(3)), B, tol=1e-10)
    only_mul = rel_restrict(B, nk.zero_space(3))
    parts = rel_parts(B)
    assert parts.mul.dim == rel_parts(only_mul).mul.dim
    assert rel_parts(only_mul).dom.dim == 0
    e1 = nk.span(np.array([[1.0], [0.0]]))
    restr = rel_restrict(rel_identity(2), e1)
    assert rel_equal(restr, rel_from_graph(np.array([[1.0], [0.0], [1.0], [0.0]]), 2, 2))


def test_classify_examples():
    rng = np.random.default_rng(9)
    P = random_psd(rng, 3)
    flags = rel_classify(rel_from_matrix(P))
    assert flags.symmetric and flags.nonnegative and flags.selfadjoint
    inf_rel = rel_mul_everything(2, 2)
    flags = rel_classify(inf_rel)
    assert flags.symmetric and flags.nonnegative and flags.selfadjoint
    flags = rel_classify(rel_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert not (flags.symmetric or flags.nonnegative or flags.selfadjoint)


def test_classify_selfadjoint_closed_under_adjoint():
    rng = np.random.default_rng(10)
    for _ in range(20):
        P = random_psd(rng, 3, singular=True)
        mul = nk.kernel_basis(P)
        dom = nk.subspace_complement(mul)
        vecs = np.vstack([dom.basis, P @ dom.basis])
        mul_vecs = np.vstack([np.zeros((3, mul.dim)), mul.basis])
        R = rel_from_graph(np.hstack([vecs, mul_vecs]), 3, 3)
        flags = rel_classify(R)
        assert flags.selfadjoint
        assert rel_classify(rel_adjoint(R)).selfadjoint
        assert rel_distance(rel_adjoint(R), R) <= 1e-10


def test_inverse_adjoint_identities_behind_the_reverse_gates():
    # reverse_solve takes its gates from the dual (S, A) = ((T*)^-1, (B*)^-1):
    # ker (S_s)* = ker T* + mul T, and inversion keeps every classification flag
    rng = np.random.default_rng(20)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, n - 1))
        r = int(rng.integers(0, d))  # rank of the operator part < dim dom: ker T != 0
        w = int(rng.integers(1, n - r))  # mul T != 0 and dim ran T = r + w < n: ker T* != 0
        D = _cplx(rng, n, d)
        pairs = np.vstack([D, _cplx(rng, n, r) @ _cplx(rng, r, n) @ D])
        muls = np.vstack([np.zeros((n, w)), _cplx(rng, n, w)])
        T = rel_from_graph(np.hstack([pairs, muls]), n, n)
        parts_T, parts_Tadj = rel_parts(T), rel_parts(rel_adjoint(T))
        assert parts_T.mul.dim == w and parts_T.ker.dim == d - r and parts_Tadj.ker.dim == n - r - w
        S = rel_inverse(rel_adjoint(T))
        # at the graph floor: with r = 0 the operator part of S is rounding dust
        ker_ss_adj = nk.kernel_basis(rel_parts(S).operator_part_matrix.conj().T, atol=GRAPH_ATOL)
        want = subspace_sum(parts_Tadj.ker, parts_T.mul)
        assert ker_ss_adj.dim == want.dim and nk.subspace_distance(ker_ss_adj, want) <= 1e-10

    # selfadjoint nonnegative, selfadjoint indefinite (both with a mul part),
    # symmetric but not selfadjoint (a PSD matrix on a proper domain), generic
    expected = [(True, True, True), (True, False, True), (True, True, False), (False, False, False)]
    for trial in range(40):
        n = int(rng.integers(2, 6))
        kind = trial % 4
        Q = nk.span(_cplx(rng, n, n)).basis
        w = rng.uniform(0.1, 2.0, n)
        if kind in (0, 1):
            k = int(rng.integers(1, n))
            if kind == 1:
                w[0] = -w[0]
            U, W = Q[:, :k], Q[:, k:]
            vecs = np.hstack([np.vstack([U, U * w[:k]]), np.vstack([np.zeros((n, n - k)), W])])
        elif kind == 2:
            D = Q[:, : n - 1]
            vecs = np.vstack([D, (Q * w) @ Q.conj().T @ D])
        else:
            vecs = _cplx(rng, 2 * n, n)
        R = rel_from_graph(vecs, n, n)
        flags = rel_classify(R)
        assert (flags.symmetric, flags.nonnegative, flags.selfadjoint) == expected[kind]
        assert rel_classify(rel_inverse(R)) == flags


def _classify_family(rng):
    """Square relations of every graph dimension, shifted PSD matrices, inverses of
    singular and regular PSD matrices, truncated diagonal symbols with INF, TRIVIAL
    and FULL entries, and Hermitian matrices perturbed by 1e-12 to 1e-6."""
    rels = [random_relation(rng, n, n, graph_dim=k) for n in range(1, 6) for k in range(2 * n + 1)]
    for n in range(2, 7):
        P = random_psd(rng, n)
        rels.append(rel_from_matrix(P - rng.uniform(0.2, 1.9) * np.eye(n)))
        rels.append(rel_inverse(rel_from_matrix(random_psd(rng, n, singular=True))))
        rels.append(rel_inverse(rel_from_matrix(P)))
    for head in ([INF, 0.5, -1.0], [2.0, INF, INF], [INF, 1 + 1j], [TRIVIAL, 0.5], [FULL, INF, 1.0]):
        for coeff in (1.0, 0.5j):
            rels.append(diag_truncate(DiagRel.from_head(head, coeff, 1), 6, force_relation=True))
    for size in np.logspace(-12, -6, 13):
        n = int(rng.integers(2, 6))
        H = random_psd(rng, n) - 0.5 * np.eye(n)
        E = _cplx(rng, n, n)
        rels.append(rel_from_matrix(H + size * E / np.linalg.norm(E, 2)))
    return rels


def test_rel_classify_matches_reference():
    # selfadjointness read off the graph form, ||F - F*|| when dim graph = n and
    # 1 otherwise, is the projector distance from graph T to graph T*; every
    # tol sees both verdicts
    seen = set()
    for T in _classify_family(np.random.default_rng(24)):
        X, Y = T.blocks()
        F = X.conj().T @ Y
        gap = nk.opnorm(F - F.conj().T) if T.graph_dim == T.dom_dim else 1.0
        assert abs(gap - subspace_distance_reference(T.graph, rel_adjoint(T).graph)) <= 1e-13
        for tol in (1e-12, 1e-10, 1e-8, 1e-6):
            flags = rel_classify(T, tol)
            assert flags == rel_classify_reference(T, tol), (T, tol)
            seen.add((tol, flags.selfadjoint))
    assert len(seen) == 8, seen


def test_rel_classify_reads_the_gap_off_its_bounds():
    # the gap ||F - F*|| is decided by numkernel.opnorm_holds and only for a
    # symmetric form; the flags are those of the SVD of F - F*, also at
    # tolerances on both sides of each gap and of the gap 1 of a short graph
    for T in _classify_family(np.random.default_rng(24)):
        X, Y = T.blocks()
        F = X.conj().T @ Y
        gaps = [nk.opnorm(F - F.conj().T), nk.frob(F - F.conj().T), 1.0]
        tols = [g * f for g in gaps for f in (1 - 1e-9, 1 + 1e-9)] + [1e-12, 1e-10, 1e-8, 1e-6, 2.0]
        for tol in tols:
            assert rel_classify(T, tol) == rel_classify_svd(T, tol), (T, tol)


def test_rel_classify_selfadjoint_implies_symmetric():
    # ||F - F*||_2 = 0.9e-8 passes the absolute gap at tol 1e-8, while the relative
    # Frobenius test ||F - F*||_F = 1.8e-8 > 1e-8 (1 + ||F||_F) calls it not symmetric
    flags = rel_classify(rel_from_matrix(0.45e-8j * np.eye(4)), tol=1e-8)
    assert flags == RelFlags(symmetric=False, nonnegative=False, selfadjoint=False)
    assert rel_classify(rel_from_matrix(0.45e-8j * np.eye(4)), tol=1e-7).selfadjoint


def test_sqrt_examples():
    root = rel_sqrt(rel_from_matrix(np.diag([4.0, 9.0])))
    assert rel_equal(root, rel_from_matrix(np.diag([2.0, 3.0])), tol=1e-10)
    inf_rel = rel_mul_everything(2, 2)
    assert rel_equal(rel_sqrt(inf_rel), inf_rel)


def test_sqrt_squares_back():
    rng = np.random.default_rng(11)
    for _ in range(20):
        P = random_psd(rng, 2)
        mul_dim = int(rng.integers(0, 2))
        n = 2 + mul_dim
        top = np.zeros((n, n), dtype=complex)
        top[:2, :2] = P
        mul_vecs = np.zeros((2 * n, mul_dim))
        for j in range(mul_dim):
            mul_vecs[n + 2 + j, j] = 1.0
        dom_vecs = np.vstack([np.eye(n)[:, :2], top[:, :2]])
        R = rel_from_graph(np.hstack([dom_vecs, mul_vecs]) if mul_dim else dom_vecs, n, n)
        root = rel_sqrt(R)
        sq = rel_compose(root, root)
        assert rel_distance(sq, R) <= 1e-8


def _nonneg_selfadjoint_relations(rng):
    """Nonnegative selfadjoint relations with every kind of decomposition: graph-given
    ones with mul of each dimension 0..n-1, diagonal truncations with INF entries
    (and a finite one forced to a relation), and matrices."""
    rels = []
    for n in range(1, 9):
        for k in range(n):
            for real in (True, False):
                Q = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else random_unitary(rng, n)
                M, D = Q[:, :k], Q[:, k:]
                w = rng.uniform(0.0, 4.0, n - k)
                w[rng.random(n - k) < 0.25] = 0.0
                pairs = np.hstack([np.vstack([D, (D * w) @ D.conj().T @ D]), np.vstack([np.zeros((n, k)), M])])
                rels.append(rel_from_graph(pairs @ rng.standard_normal((n, n)), n, n))
    for N in (3, 6, 10):
        rels.append(diag_truncate(DiagRel.from_head([INF, 0.5, 2.0]), N))
        rels.append(diag_truncate(DiagRel(DiagSymbol(head=(0.0, INF, INF), tail_coeff=1.1, tail_power=1)), N))
        rels.append(diag_truncate(DiagRel.from_tail(0.7, 1), N, True))
        rels.append(rel_from_matrix(random_psd(rng, N, singular=N > 3)))
    return rels


def test_operator_part_and_sqrt_match_graph_builders():
    # operator_part_relation and rel_sqrt build the decomposition they have in hand
    # and take their graph from one QR; the graphs are the earlier SVD spans of
    # (D; T_s D) and (D; (T_s)^(1/2) D) beside (0; M), and orthonormal
    rng = np.random.default_rng(47)
    rels = _nonneg_selfadjoint_relations(rng)
    assert len(rels) >= 60
    for i, T in enumerate(rels):
        mul_free = not rel_parts(T).mul.dim
        Ts = operator_part_relation(T)
        assert (Ts is T) == mul_free, i
        for got, want in ((Ts, operator_part_relation_reference(T)), (rel_sqrt(T), rel_sqrt_reference(T))):
            G = got.graph.basis
            assert rel_distance(got, want) <= 1e-13, i
            assert nk.opnorm(G.conj().T @ G - np.eye(G.shape[1])) <= 1e-13, i
    # T is its own operator part for graph-given relations too, not only for matrices
    assert sum(not rel_parts(T).mul.dim and not T.exact for T in rels) >= 8


def test_order_examples():
    assert rel_order_leq(rel_from_matrix(np.diag([1.0, 2.0])), rel_from_matrix(np.diag([2.0, 3.0])))
    rng = np.random.default_rng(12)
    P = random_psd(rng, 3)
    assert rel_order_leq(rel_from_matrix(P), rel_mul_everything(3, 3))
    with pytest.raises(NotNonnegSelfadjoint):
        rel_order_leq(rel_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])), rel_identity(2))


def test_order_matches_definition_oracle():
    rng = np.random.default_rng(13)
    agree = 0
    for _ in range(500):
        P = random_psd(rng, 3, singular=bool(rng.integers(0, 2)))
        Q = random_psd(rng, 3, singular=bool(rng.integers(0, 2)))
        if rng.integers(0, 3) == 0:
            Q = P + random_psd(rng, 3)  # force comparability now and then
        lo, hi = rel_from_matrix(P), rel_from_matrix(Q)
        assert rel_order_leq(lo, hi) == form_order_leq_definition(lo, hi)
        agree += 1
    assert agree == 500


def test_adjoint_product_chain():
    # T*T = (T_s)*T = T*(P_s T) = (T_s)*(T_s) as relation equalities
    rng = np.random.default_rng(14)
    for _ in range(40):
        T = random_relation(rng, 3, 3)
        Ts = operator_part_relation(T)
        P_s = np.eye(3) - projector(rel_parts(T).mul)
        chain = [
            rel_compose(rel_adjoint(T), T),
            rel_compose(rel_adjoint(Ts), T),
            rel_compose(rel_adjoint(T), rel_compose(rel_from_matrix(P_s), T)),
            rel_compose(rel_adjoint(Ts), Ts),
        ]
        for other in chain[1:]:
            assert rel_distance(chain[0], other) <= 1e-9


def test_mul_of_tstar_t_is_domain_complement():
    # closed operator part with a proper domain: mul T*T = (dom T)^perp
    rng = np.random.default_rng(15)
    for _ in range(20):
        dom = nk.span(rng.standard_normal((4, 2)))
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vecs = np.vstack([dom.basis, M @ dom.basis])
        T = rel_from_graph(vecs, 4, 4)
        mul_tt = rel_parts(rel_compose(rel_adjoint(T), T)).mul
        assert nk.subspace_distance(mul_tt, nk.subspace_complement(dom)) <= 1e-9


def test_restriction_leaves_product_unchanged():
    # T*B = T*(B restricted to dom T*B)
    rng = np.random.default_rng(16)
    for _ in range(40):
        T = random_relation(rng, 3, 3)
        B = random_relation(rng, 3, 3)
        M = rel_compose(rel_adjoint(T), B)
        B0 = rel_restrict(B, rel_parts(M).dom)
        M2 = rel_compose(rel_adjoint(T), B0)
        assert rel_distance(M, M2) <= 1e-9


def test_moore_penrose_matrix_case():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((3, 4))
    assert rel_equal(rel_moore_penrose(rel_from_matrix(M)), rel_from_matrix(np.linalg.pinv(M)), tol=1e-9)


def test_moore_penrose_mul_everything():
    assert rel_equal(rel_moore_penrose(rel_mul_everything(2, 2)), rel_from_matrix(np.zeros((2, 2))))


def test_moore_penrose_projection_identities():
    # T+ T = P_(ker T)^perp on dom T;  T T+ = graph(P_(ker T*)^perp) (+) T_mul
    rng = np.random.default_rng(18)
    for _ in range(40):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        T = random_relation(rng, n, m)
        parts = rel_parts(T)
        pinv_rel = rel_moore_penrose(T)
        left = rel_compose(pinv_rel, T)
        ker_perp = nk.subspace_complement(parts.ker)
        expected_left = rel_restrict(rel_from_matrix(projector(ker_perp)), parts.dom)
        assert rel_distance(left, expected_left) <= 1e-9
        right = rel_compose(T, pinv_rel)
        ker_adj = rel_parts(rel_adjoint(T)).ker
        proj = projector(nk.subspace_complement(ker_adj))
        mul_vecs = np.vstack([np.zeros((m, parts.mul.dim)), parts.mul.basis])
        expected_right = rel_plusdot(rel_from_matrix(proj), mul_vecs)
        assert rel_distance(right, expected_right) <= 1e-9


# ------------------------------------------- agreement with the reference forms

_FAMILIES = ("generic", "mul_ker", "zero", "full", "mul_everything", "tiny", "tiny_inverse")


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _family_relation(rng, kind, n, m):
    """A relation C^n -> C^m from one of the generic or degenerate families."""
    if kind == "generic":
        return random_relation(rng, n, m)
    if kind == "mul_ker":
        # operator part of rank r < d on a d-dimensional domain, plus a mul part
        d = int(rng.integers(1, n + 1))
        r = int(rng.integers(0, d))
        w = int(rng.integers(0, m))
        D = _cplx(rng, n, d)
        A = _cplx(rng, m, r) @ _cplx(rng, r, n)
        pairs = np.vstack([D, A @ D])
        muls = np.vstack([np.zeros((n, w)), _cplx(rng, m, w)])
        return rel_from_graph(np.hstack([pairs, muls]), n, m)
    if kind == "zero":
        return LinRel(n, m, nk.zero_space(n + m))
    if kind == "full":
        return LinRel(n, m, nk.full_space(n + m))
    if kind == "mul_everything":
        return rel_mul_everything(n, m)
    if kind == "tiny":
        return rel_from_matrix(1e-13 * _cplx(rng, m, n))
    return rel_inverse(rel_from_matrix(1e-13 * _cplx(rng, n, m)))


def _assert_same_subspace(got, want, what):
    assert got.dim == want.dim, what
    assert nk.subspace_distance(got, want) <= 1e-12, what


def test_relation_ops_match_reference_forms():
    # The null-space forms of compose and restrict and the two-SVD parts agree
    # with the subspace-intersection forms they replaced, on every family pair;
    # the restriction to a relation's own domain is always among the cases.
    rng = np.random.default_rng(19)
    for i in range(245):
        kind_T, kind_S = _FAMILIES[i % 7], _FAMILIES[(i // 7) % 7]
        n, m, k = (int(x) for x in rng.integers(1, 6, size=3))
        T = _family_relation(rng, kind_T, n, m)
        S = _family_relation(rng, kind_S, m, k)
        what = (i, kind_S, kind_T)
        _assert_same_subspace(rel_compose(S, T).graph, rel_compose_reference(S, T).graph, what)
        for R in (T, S):
            got, want = rel_parts(R), rel_parts_reference(R)
            for name in ("dom", "ran", "ker", "mul"):
                _assert_same_subspace(getattr(got, name), getattr(want, name), (what, name))
            gap = nk.frob(got.operator_part_matrix - want.operator_part_matrix)
            assert gap <= 1e-12 * (1.0 + nk.frob(want.operator_part_matrix)), what
        domains = [nk.span(_cplx(rng, n, int(rng.integers(0, n + 1))), ambient_dim=n), rel_parts(T).dom]
        if n == m:
            # the solver's restriction: B to dom T*B
            B = _family_relation(rng, _FAMILIES[int(rng.integers(0, 7))], n, n)
            domains.append(rel_parts(rel_compose(rel_adjoint(T), B)).dom)
        for D in domains:
            _assert_same_subspace(rel_restrict(T, D).graph, rel_restrict_reference(T, D).graph, what)
        assert rel_restrict(T, rel_parts(T).dom).graph_dim == T.graph_dim


# ------------------------------------------- the exact canonical decomposition

# (singular values of a 4 x 4 matrix M, how many the graph rule keeps, whether
# rel_inverse keeps the inverted decomposition).  The last value sits on
# either side of the rule: of the relative cut, at 7.1e-11 as s_max ~
# 1/sqrt(2) (cond near 1e10), and of the floor GRAPH_ATOL, which cuts first
# when s_max is small.  A kept part with cond(M) past INVERSE_COND_MAX is
# decomposed on its graph instead.
_RANK_RULE_CASES = (
    ((2.0, 1.0, 0.5, 0.3), 4, True),
    ((2.0, 1.0, 0.5, 0.0), 3, True),
    ((1.0, 0.5, 1e-3, 2e-10), 4, False),
    ((1.0, 0.5, 1e-3, 3e-11), 3, True),
    ((1e-3, 5e-4, 1e-4, 5e-12), 4, False),
    ((1e-9, 5e-10, 2e-10, 1.5e-12), 4, True),
    ((1e-9, 5e-10, 2e-10, 5e-13), 3, True),
)


def _svd_planted(rng, sv, complex_data):
    """(U, V, M = U diag(sv) V*) with U, V random unitary (orthogonal for real data)."""
    U, V = (
        np.linalg.qr(rng.standard_normal((4, 4)) + (1j * rng.standard_normal((4, 4)) if complex_data else 0.0))[0]
        for _ in range(2)
    )
    return U, V, U @ np.diag(sv) @ V.conj().T


def _graph_only(R):
    """The same graph with no decomposition: operations on it take the graph path."""
    return LinRel(R.dom_dim, R.codom_dim, R.graph)


def _assert_same_decomposition(exact, graph_path, what):
    # the same dims, and dom, mul and T_s (relative) within 1e-10, against the
    # reference parts of exact's own graph and against the graph path.  Those
    # read the parts off the block X of an orthonormal basis, which carries
    # rounding of about eps against singular values down to 1/(1 + ||T_s||):
    # past ||T_s|| = 1e5 they are good to 1e-15 ||T_s|| only.
    assert exact.exact and not graph_path.exact, what
    got = rel_parts(exact)
    for want in (rel_parts_reference(exact), rel_parts(graph_path)):
        ts_g, ts_w = got.operator_part_matrix, want.operator_part_matrix
        tol = max(1e-10, 1e-15 * nk.opnorm(ts_w))
        for name in ("dom", "mul"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dim == w.dim and nk.subspace_distance(g, w) <= tol, (what, name)
        assert nk.frob(ts_g - ts_w) <= tol * (1.0 + nk.frob(ts_w)), what
    assert rel_distance(exact, graph_path) <= 1e-10, what


def test_exact_decomposition_matches_graph_path():
    # rel_from_matrix, rel_adjoint, rel_inverse, rel_compose and rel_restrict on
    # operators build dom, mul and T_s with no SVD of a graph (rel_inverse with
    # one SVD of T_s); each agrees with the reference parts of its own graph and
    # with the same operation on graph-only operands, and rel_inverse cuts at
    # the graph rule on both sides of it.
    rng = np.random.default_rng(41)
    for complex_data in (False, True):
        for sv, kept, exact_inverse in _RANK_RULE_CASES:
            what = (complex_data, sv)
            U, V, M = _svd_planted(rng, sv, complex_data)
            N = _svd_planted(rng, (1.5, 1.0, 0.7, 0.2), complex_data)[2]
            E, F = rel_from_matrix(M), rel_from_matrix(N)
            G, H = _graph_only(E), _graph_only(F)
            D = nk.span(rng.standard_normal((4, 2)) + (1j * rng.standard_normal((4, 2)) if complex_data else 0.0))
            cases = [
                (E, G),
                (rel_adjoint(E), rel_adjoint(G)),
                (rel_compose(F, E), rel_compose(H, G)),
                (rel_compose(E, rel_inverse(F)), rel_compose(G, rel_inverse(H))),
                (rel_restrict(E, D), rel_restrict(G, D)),
                (rel_compose(F, rel_restrict(E, D)), rel_compose(H, rel_restrict(G, D))),
                # everywhere defined with mul = D^perp, after an operator
                (rel_compose(rel_adjoint(rel_restrict(E, D)), F), rel_compose(rel_adjoint(rel_restrict(G, D)), H)),
            ]
            inverse = rel_inverse(E)
            assert inverse.exact == exact_inverse, what
            if exact_inverse:
                cases += [
                    (inverse, rel_inverse(G)),
                    (rel_adjoint(inverse), rel_adjoint(rel_inverse(G))),
                    (rel_inverse(rel_adjoint(E)), rel_inverse(rel_adjoint(G))),
                ]
            for i, (exact, graph_path) in enumerate(cases):
                _assert_same_decomposition(exact, graph_path, (what, i))
            for R in (inverse, rel_inverse(G)):
                assert (rel_parts(R).dom.dim, rel_parts(R).mul.dim) == (kept, 4 - kept), what
            # dom M^(-1) = ran M and mul M^(-1) = ker M, as planted
            parts = rel_parts(inverse)
            assert nk.subspace_distance(parts.dom, nk.Subspace(4, U[:, :kept])) <= 1e-10, what
            assert nk.subspace_distance(parts.mul, nk.Subspace(4, V[:, kept:])) <= 1e-10, what
            assert rel_restrict(E, nk.full_space(4)) is E
    # With mul T != {0} the graph block of T^(-1)'s domain side also has mul's
    # singular values 1, so the relative cut is 1e-10 even for a tiny T_s.
    Q, W = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
    ts = Q[:, :3] @ np.diag([1e-9, 3e-10, 5e-11]) @ W[:, :3].T  # into (mul T)^perp = span Q[:, :3]
    T = LinRel(4, 4, canon=(nk.full_space(4), nk.Subspace(4, Q[:, 3:]), ts))
    for R in (rel_inverse(T), rel_inverse(_graph_only(T))):
        assert (rel_parts(R).dom.dim, rel_parts(R).mul.dim) == (3, 2)
    _assert_same_decomposition(rel_inverse(T), rel_inverse(_graph_only(T)), "mul T != {0}")
