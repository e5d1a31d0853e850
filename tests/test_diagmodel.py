"""Diagonal symbol model: extended-value algebra, closed-form solvers, and
commutation with the matrix/relation engines under truncation."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import diag_reverse_solve_reference, projector
from psdfactor import factor
from psdfactor.diagmodel import (
    FULL,
    INF,
    TRIVIAL,
    DiagRel,
    DiagSymbol,
    diag_adjoint,
    diag_compose,
    diag_inverse,
    diag_order_leq,
    diag_reverse_solve,
    diag_seb_solve,
    diag_truncate,
    point_adjoint,
    point_compose,
    point_inverse,
    point_relation,
)
from psdfactor.errors import HypothesisFailed, NotNonneg, UnrepresentableSymbol
from psdfactor.linrel import (
    LinRel,
    rel_adjoint,
    rel_compose,
    rel_distance,
    rel_equal,
    rel_from_graph,
    rel_from_matrix,
    rel_inverse,
    rel_order_leq,
    rel_parts,
)

VALUES = [0j, 1.5 + 0j, 2.0 - 1.0j, INF, TRIVIAL, FULL]


def _match(rel, value):
    return rel_distance(rel, point_relation(value)) <= 1e-12


def test_point_compose_matches_relation_oracle():
    # all pairs, including the composition-only markers
    for a in VALUES:
        for b in VALUES:
            got = point_compose(a, b)
            want = rel_compose(point_relation(a), point_relation(b))
            assert _match(want, got), (a, b, got)


def test_point_adjoint_inverse_match_relation_oracle():
    for v in VALUES:
        assert _match(rel_adjoint(point_relation(v)), point_adjoint(v))
        assert _match(rel_inverse(point_relation(v)), point_inverse(v))


def test_diag_inverse_examples():
    inv = diag_inverse(DiagRel.from_tail(1, 1))
    assert inv.symbol.tail_power == Fraction(-1) and inv.symbol.tail_coeff == 1
    inv = diag_inverse(DiagRel.from_head([0, 2], tail_coeff=1, tail_power=1))
    assert inv.symbol.head == (INF, 0.5 + 0j)
    assert inv.symbol.tail_power == Fraction(-1)
    with pytest.raises(UnrepresentableSymbol):
        diag_inverse(DiagRel.from_tail(0, 0))


def test_diag_adjoint_conjugates():
    d = DiagRel.from_head([1 + 2j, INF], tail_coeff=3 - 1j, tail_power=Fraction(1, 2))
    a = diag_adjoint(d)
    assert a.symbol.head == (1 - 2j, INF)
    assert a.symbol.tail_coeff == 3 + 1j


def test_diag_compose_cross_checked_by_truncation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h1 = [rng.choice([0j, 1.0 + 0j, 2.0 + 0j, INF]) for _ in range(3)]
        h2 = [rng.choice([0j, 0.5 + 0j, 3.0 + 0j, INF]) for _ in range(2)]
        d1 = DiagRel(DiagSymbol(head=h1, tail_coeff=1, tail_power=1))
        d2 = DiagRel(DiagSymbol(head=h2, tail_coeff=2, tail_power=Fraction(1, 2)))
        comp = diag_compose(d1, d2)
        N = 6
        lhs = diag_truncate(comp, N, force_relation=True)
        rhs = rel_compose(
            diag_truncate(d1, N, force_relation=True), diag_truncate(d2, N, force_relation=True)
        )
        assert rel_distance(lhs, rhs) <= 1e-10


def test_truncation_commutes_with_adjoint_and_inverse():
    d = DiagRel.from_head([0, 2, INF], tail_coeff=1 + 1j, tail_power=Fraction(2, 3))
    for N in (3, 10, 50):
        ta = diag_truncate(diag_adjoint(d), N, force_relation=True)
        at = rel_adjoint(diag_truncate(d, N, force_relation=True))
        assert rel_distance(ta, at) <= 1e-10
        ti = diag_truncate(diag_inverse(d), N, force_relation=True)
        it = rel_inverse(diag_truncate(d, N, force_relation=True))
        assert rel_distance(ti, it) <= 1e-10


def test_diag_truncate_examples():
    M = diag_truncate(DiagRel.from_tail(1, 1), 3)
    assert np.allclose(M, np.diag([1.0, 2.0, 3.0]))
    R = diag_truncate(DiagRel.from_head([INF]), 2)
    assert not isinstance(R, np.ndarray)
    # index 0 is the pure multivalued pair (0; e_1), index 1 the kernel pair (e_2; 0)
    graph = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    assert rel_equal(R, rel_from_graph(graph, 2, 2), tol=1e-12)
    parts = rel_parts(R)
    assert parts.mul.dim == 1 and abs(parts.mul.basis[0, 0]) == 1.0
    with pytest.raises(ValueError):
        diag_truncate(DiagRel.from_head([1, 2, 3]), 2)


def test_symbol_values_match_value_at():
    # values(N) converts the tail's power once; every entry must stay the value_at bits
    rng = np.random.default_rng(15)
    heads = [INF, FULL, TRIVIAL, 0.0, 0j, -0.0, 1.5, -2.0 + 0.5j]
    for _ in range(300):
        head = [heads[i] if i < len(heads) else complex(*rng.standard_normal(2))
                for i in rng.integers(0, 2 * len(heads), size=int(rng.integers(0, 5)))]
        coeff = [0, 0.0, complex(*rng.standard_normal(2)), float(rng.uniform(0.1, 3))][int(rng.integers(0, 4))]
        q = int(rng.integers(1, 5))
        power = Fraction(int(rng.integers(-4 * q, 4 * q + 1)), q)
        sym = DiagSymbol(head=tuple(head), tail_coeff=coeff, tail_power=power)
        for N in (0, len(head) // 2, len(head), len(head) + 7):
            assert list(map(repr, sym.values(N))) == [repr(sym.value_at(n)) for n in range(1, N + 1)]


def test_diag_order_examples():
    assert diag_order_leq(DiagRel.from_tail(1, 1), DiagRel.from_tail(1, 2))
    assert not diag_order_leq(DiagRel.from_tail(2, 1), DiagRel.from_tail(1, 1))
    assert diag_order_leq(DiagRel.from_head([1, INF], 1, 1), DiagRel.from_head([INF, INF], 1, 1))
    assert not diag_order_leq(DiagRel.from_head([INF], 1, 1), DiagRel.from_head([5], 1, 1))
    with pytest.raises(NotNonneg):
        diag_order_leq(DiagRel.from_tail(-1, 1), DiagRel.from_tail(1, 1))


def test_commuting_diagram_ladder():
    # symbol op then truncate = truncate then matrix/relation op, for
    # N in {10, 100, 2000}: full relation path at the small sizes, dense
    # matrix path at 2000 (the relation path takes SVDs of 2N x N graph
    # bases, cubic in N, far outside the desk-scale performance envelope)
    d1 = DiagRel.from_head([0.5, 2.0, INF], tail_coeff=1 + 0.5j, tail_power=Fraction(1, 2))
    d2 = DiagRel.from_head([1.0, INF], tail_coeff=2, tail_power=1)
    for N in (10, 100):
        for op_sym, op_rel in (
            (diag_adjoint, rel_adjoint),
            (diag_inverse, rel_inverse),
        ):
            lhs = diag_truncate(op_sym(d1), N, force_relation=True)
            rhs = op_rel(diag_truncate(d1, N, force_relation=True))
            assert rel_distance(lhs, rhs) <= 1e-10
        lhs = diag_truncate(diag_compose(d1, d2), N, force_relation=True)
        rhs = rel_compose(
            diag_truncate(d1, N, force_relation=True), diag_truncate(d2, N, force_relation=True)
        )
        assert rel_distance(lhs, rhs) <= 1e-10
    N = 2000
    f1 = DiagRel.from_head([0.5, 2.0], tail_coeff=1 + 0.5j, tail_power=Fraction(1, 2))
    f2 = DiagRel.from_head([1.0, 3.0], tail_coeff=2, tail_power=1)
    M1 = diag_truncate(f1, N)
    M2 = diag_truncate(f2, N)
    assert np.max(np.abs(diag_truncate(diag_adjoint(f1), N) - M1.conj().T)) <= 1e-10
    assert np.max(np.abs(diag_truncate(diag_inverse(f2), N) - np.diag(1.0 / np.diag(M2)))) <= 1e-10
    assert np.max(np.abs(diag_truncate(diag_compose(f1, f2), N) - M1 @ M2)) <= 1e-10
    # order consistency at N = 2000 against the Loewner check on truncations
    lo = DiagRel.from_head([0.5, 2.0], tail_coeff=1, tail_power=Fraction(1, 2))
    hi = DiagRel.from_head([1.0, 2.0], tail_coeff=1, tail_power=1)
    from psdfactor.numkernel import loewner_leq

    assert diag_order_leq(lo, hi)
    flag, _ = loewner_leq(diag_truncate(lo, N).real, diag_truncate(hi, N).real)
    assert flag
    assert not diag_order_leq(hi, lo)
    flag, _ = loewner_leq(diag_truncate(hi, N).real, diag_truncate(lo, N).real)
    assert not flag
    # the infinity bookkeeping survives truncation at scale: mul components
    # of the graph line up with the INF indices
    big = diag_truncate(d2, N, force_relation=True)
    X, Y = big.blocks()
    assert big.graph_dim == N
    col = np.abs(X).sum(axis=0)
    assert col[1] <= 1e-14 and np.abs(Y[1, 1]) >= 1 - 1e-14  # index 2 is INF


def test_diag_order_matches_truncated_relations():
    rng = np.random.default_rng(1)
    for _ in range(30):
        h1 = [float(x) for x in rng.uniform(0, 3, size=2)]
        h2 = [float(x) for x in rng.uniform(0, 3, size=2)]
        if rng.integers(0, 2):
            h1[0] = 0.0
        d1 = DiagRel(DiagSymbol(head=h1, tail_coeff=float(rng.uniform(0.1, 2)), tail_power=Fraction(int(rng.integers(0, 3)))))
        d2 = DiagRel(DiagSymbol(head=h2, tail_coeff=float(rng.uniform(0.1, 2)), tail_power=Fraction(int(rng.integers(0, 3)))))
        symbolic = diag_order_leq(d1, d2)
        N = 40
        t1 = rel_from_matrix(diag_truncate(d1, N))
        t2 = rel_from_matrix(diag_truncate(d2, N))
        truncated = rel_order_leq(t1, t2)
        # truncation can only miss tail violations beyond N; with integer
        # powers and N=40 the verdicts coincide
        assert symbolic == truncated


def test_diag_seb_examples():
    res = diag_seb_solve(DiagRel.from_tail(1, Fraction(1, 2)), DiagRel.from_tail(1, 1))
    assert res.feasible and abs(res.lambda_star - 1.0) <= 1e-12
    assert res.X.tail_power == Fraction(-1, 2)
    assert res.checks["B_unbounded"]
    res = diag_seb_solve(DiagRel.from_tail(1, 2), DiagRel.from_tail(1, 1))
    assert not res.feasible
    # pointwise solution x b = t at every head index
    t = DiagRel.from_head([1, 0, 2], tail_coeff=1, tail_power=1)
    b = DiagRel.from_head([2, 3, 4], tail_coeff=2, tail_power=1)
    res = diag_seb_solve(t, b)
    assert res.feasible
    for n in range(1, 8):
        tv, bv, xv = (s.value_at(n) for s in (t.symbol, b.symbol, res.X))
        assert abs(complex(xv) * complex(bv) - complex(tv)) <= 1e-12
    assert abs(max(abs(complex(res.X.value_at(n))) for n in range(1, 200)) - res.lambda_star) <= 1e-12


def test_diag_seb_hypothesis_gate():
    with pytest.raises(HypothesisFailed):
        diag_seb_solve(DiagRel.from_head([-1.0], 1, 1), DiagRel.from_head([1.0], 1, 1))
    with pytest.raises(HypothesisFailed):
        diag_seb_solve(DiagRel.from_head([0.0], 1, 1), DiagRel.from_head([INF], 1, 1))


def test_diag_seb_refuses_a_result_outside_the_float_range():
    # x = t/b = 1e600 was a feasible certificate with lambda* = inf; it is an
    # overflow, as it is for the matrix engines
    with pytest.raises(OverflowError):
        diag_seb_solve(DiagRel.from_head([1e300]), DiagRel.from_head([1e-300]))
    with pytest.raises(OverflowError):  # the tail ratio
        diag_seb_solve(DiagRel.from_tail(1e300, 1), DiagRel.from_tail(1e-300, 1))
    with pytest.raises(OverflowError):  # the dual's x = 1/y of the reversed problem
        diag_reverse_solve(DiagRel.from_head([1e-300], 1, 0), DiagRel.from_head([1e300], 1, 0))
    res = diag_seb_solve(DiagRel.from_head([1e300]), DiagRel.from_head([1e-7]))
    assert res.feasible and res.lambda_star == pytest.approx(1e307, rel=1e-15)


def test_diag_seb_with_inf_entries():
    t = DiagRel.from_head([INF, INF], tail_coeff=1, tail_power=0)
    b = DiagRel.from_head([2.0, INF], tail_coeff=1, tail_power=0)
    res = diag_seb_solve(t, b)
    assert res.feasible
    assert res.X.value_at(1) == 0j and res.X.value_at(2) == 0j
    # b(2) = INF against t(2) = 1: mul B is not in ker (T_s)*, a hypothesis
    with pytest.raises(HypothesisFailed):
        diag_seb_solve(DiagRel.from_head([INF, 1.0], 1, 0), b)


def _outcome(solve, T, B, N=2):
    """("raise",) on a failed hypothesis, else the verdict, the optimal constant
    and the indices n <= N with e_n in mul of the solution (INF in a symbol)."""
    try:
        res = solve(T, B)
    except HypothesisFailed:
        return ("raise",)
    sol = res.X if hasattr(res, "X") else res.Y
    if isinstance(sol, DiagSymbol):
        mul = {n for n in range(1, N + 1) if sol.value_at(n) is INF}
    elif isinstance(sol, LinRel):
        P = projector(rel_parts(sol).mul)
        mul = {n for n in range(1, N + 1) if np.linalg.norm(P[:, n - 1]) >= 1 - 1e-9}
    else:
        mul = set()  # no solution, or a matrix
    return res.feasible, getattr(res, "lambda_star", getattr(res, "eta_star", None)), mul


def _agree(a, b):
    return a[0] == b[0] and (a[0] is not True or (abs(a[1] - b[1]) <= 1e-9 * (1 + a[1]) and a[2] == b[2]))


@pytest.mark.parametrize(
    "solve, rel_solve, values, head_len, N",
    [
        pytest.param(diag_seb_solve, factor.seb_relation_solve, [INF, 0.0, 0.5, 1.5], 3, 4, id="values"),
        pytest.param(diag_seb_solve, factor.seb_relation_solve, [INF, TRIVIAL, FULL, 0.0, 0.5], 1, 2, id="markers"),
        pytest.param(diag_reverse_solve, factor.reverse_solve, [INF, 0.0, 0.5, 1.5], 2, 4, id="reverse-values"),
        pytest.param(diag_reverse_solve, factor.reverse_solve, [INF, TRIVIAL, FULL, 0.0, 0.5], 1, 2, id="reverse-markers"),
    ],
)
def test_diag_seb_agrees_with_relation_engine(solve, rel_solve, values, head_len, N):
    # every head pair, tail 1 n^0: the same hypotheses, verdict, optimal constant
    # and INF entries (e_n in mul of the solution) as the truncation
    heads = list(itertools.product(values, repeat=head_len))
    for ht, hb in itertools.product(heads, heads):
        T, B = DiagRel.from_head(ht, 1, 0), DiagRel.from_head(hb, 1, 0)
        sym = _outcome(solve, T, B, N)
        rel = _outcome(rel_solve, diag_truncate(T, N, True), diag_truncate(B, N, True), N)
        assert _agree(sym, rel), (ht, hb, sym, rel)


def test_diag_reverse_takes_marker_entries():
    # a TRIVIAL or FULL entry used to end in a TypeError; both engines agree
    for t, b in itertools.product([INF, TRIVIAL, FULL, 0.0, 0.5], repeat=2):
        T, B = DiagRel.from_head([t], 1, 0), DiagRel.from_head([b], 1, 0)
        sym = _outcome(diag_reverse_solve, T, B)
        rel = _outcome(factor.reverse_solve, diag_truncate(T, 2, True), diag_truncate(B, 2, True))
        assert _agree(sym, rel), (t, b, sym, rel)


def test_diag_reverse_examples():
    res = diag_reverse_solve(DiagRel.from_tail(1, 1), DiagRel.from_tail(1, 1))
    assert res.feasible and abs(res.eta_star - 1.0) <= 1e-12
    res = diag_reverse_solve(DiagRel.from_tail(1, 1), DiagRel.from_tail(1, 0))
    assert res.feasible and abs(res.eta_star - 1.0) <= 1e-12
    assert res.Y.tail_power == Fraction(1)
    assert res.checks["Y_unbounded"]
    res = diag_reverse_solve(DiagRel.from_tail(1, 0), DiagRel.from_tail(1, 1))
    assert not res.feasible  # inf |t|/b decays to zero


def test_diag_reverse_kernel_condition_and_inf():
    t = DiagRel.from_head([0.0], tail_coeff=1, tail_power=1)
    b = DiagRel.from_head([0.0], tail_coeff=1, tail_power=1)
    res = diag_reverse_solve(t, b)
    assert res.feasible
    assert res.Y.value_at(1) is INF  # mul Y picks up ker T*
    # b(1) = 0 against t(1) = 1: ker B* is not in ker T* + mul T, a hypothesis
    with pytest.raises(HypothesisFailed):
        diag_reverse_solve(DiagRel.from_head([1.0], 1, 1), DiagRel.from_head([0.0], 1, 1))


def test_diag_reverse_matches_reference_solver():
    # positive entries, where reading the dual forward solve keeps the pointwise
    # semantics: the same verdict and checks, eta* and Y within 1e-15 relative
    rng = np.random.default_rng(10)
    feasible = 0
    for _ in range(2000):
        T, B = (
            DiagRel(DiagSymbol(
                head=tuple(float(x) for x in rng.uniform(0.1, 3, size=int(rng.integers(0, 4)))),
                tail_coeff=float(rng.uniform(0.1, 3)),
                tail_power=Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
            ))
            for _ in range(2)
        )
        new, ref = diag_reverse_solve(T, B), diag_reverse_solve_reference(T, B)
        assert new.feasible == ref.feasible and new.checks == ref.checks
        if not ref.feasible:
            continue
        feasible += 1
        assert abs(new.eta_star - ref.eta_star) <= 1e-15 * ref.eta_star
        assert new.Y.tail_power == ref.Y.tail_power and len(new.Y.head) == len(ref.Y.head)
        for y, want in zip((*new.Y.head, new.Y.tail_coeff), (*ref.Y.head, ref.Y.tail_coeff)):
            assert abs(y - want) <= 1e-15 * abs(want)
    assert 500 <= feasible <= 1500


def test_diag_duality_reciprocal():
    rng = np.random.default_rng(2)
    for _ in range(25):
        pt = Fraction(int(rng.integers(-1, 3)), int(rng.integers(1, 3)))
        pb = pt - Fraction(int(rng.integers(0, 3)), int(rng.integers(1, 3)))
        ct, cb = float(rng.uniform(0.2, 2)), float(rng.uniform(0.2, 2))
        head_t = [float(x) for x in rng.uniform(0.5, 2, size=2)]
        head_b = [float(x) for x in rng.uniform(0.5, 2, size=2)]
        T = DiagRel(DiagSymbol(head=head_t, tail_coeff=ct, tail_power=pt))
        B = DiagRel(DiagSymbol(head=head_b, tail_coeff=cb, tail_power=pb))
        rev = diag_reverse_solve(T, B)
        assert rev.feasible
        fwd = diag_seb_solve(diag_inverse(T), diag_inverse(B))
        assert fwd.feasible
        assert abs(rev.eta_star * fwd.lambda_star - 1.0) <= 1e-12


def test_diag_seb_agrees_with_truncated_matrix_engine():
    rng = np.random.default_rng(3)
    for _ in range(15):
        pt = Fraction(int(rng.integers(-2, 2)), int(rng.integers(1, 3)))
        pb = pt + Fraction(int(rng.integers(0, 3)), int(rng.integers(1, 3)))
        t = DiagRel(DiagSymbol(head=tuple(float(x) for x in rng.uniform(0, 2, size=2)),
                               tail_coeff=float(rng.uniform(0.2, 2)), tail_power=pt))
        b = DiagRel(DiagSymbol(head=tuple(float(x) for x in rng.uniform(0.5, 2, size=2)),
                               tail_coeff=float(rng.uniform(0.2, 2)), tail_power=pb))
        sym = diag_seb_solve(t, b)
        assert sym.feasible
        cert = factor.seb_solve(diag_truncate(t, 80), diag_truncate(b, 80))
        assert cert.feasible
        assert abs(sym.lambda_star - cert.lambda_star) <= 1e-6 * (1 + sym.lambda_star)


def test_exact_tstarb_restriction_identity():
    # finitely supported sequences are a core: T*B agrees with T*(B ack on
    # dom T*B) as exact symbol equality at every index
    t = DiagRel.from_head([2.0, 0.0, INF], tail_coeff=1, tail_power=1)
    b = DiagRel.from_head([1.0, 3.0, 1.0], tail_coeff=1, tail_power=2)
    m = diag_compose(diag_adjoint(t), b)
    # per-index recomputation through the relation calculus
    for n in range(1, 8):
        want = rel_compose(
            rel_adjoint(point_relation(t.symbol.value_at(n))),
            point_relation(b.symbol.value_at(n)),
        )
        assert _match(want, m.symbol.value_at(n))
