"""Diagonal operators and relations on l^2 described by extended symbols.

A :class:`DiagSymbol` stores a finite head of per-index values followed by a
power tail c * n^p (rational p), evaluated at indices n = 1, 2, 3, ...  A
head entry is a complex scalar or one of three markers describing the
restriction of a diagonal relation to span{e_n}:

* ``INF``     -- the purely multivalued component {0} x C ("the value infinity");
* ``TRIVIAL`` -- the zero subspace {(0, 0)} (arises only through composition);
* ``FULL``    -- all of C x C (likewise composition-only).

Arithmetic on entries is defined by one-dimensional relation composition,
never by IEEE semantics, so the mul/ker bookkeeping stays exact; the power
tail makes suprema, infima and eventual comparisons exactly decidable while
still producing genuinely unbounded operators.  ``diag_seb_solve`` is the one
pointwise solver with gates: the reversed ``diag_reverse_solve`` is its dual
solve of ((T*)^(-1), (B*)^(-1)), as ``factor.reverse_solve`` is that of
``factor.seb_relation_solve``.  Gates decide at the caller's ``tol``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import HypothesisFailed, NotNonneg, UnrepresentableSymbol
from .linrel import LinRel, rel_from_graph
from .numkernel import DEFAULT_TOL, Subspace, as_matrix

__all__ = [
    "INF",
    "TRIVIAL",
    "FULL",
    "DiagSymbol",
    "DiagRel",
    "DiagSebResult",
    "DiagReverseResult",
    "point_adjoint",
    "point_inverse",
    "point_compose",
    "point_relation",
    "diag_adjoint",
    "diag_inverse",
    "diag_compose",
    "diag_order_leq",
    "diag_seb_solve",
    "diag_reverse_solve",
    "diag_truncate",
]


class _Marker:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name

    def __reduce__(self):
        return (_marker_lookup, (self.name,))


INF = _Marker("inf")
TRIVIAL = _Marker("trivial")
FULL = _Marker("full")

_MARKERS = {"inf": INF, "trivial": TRIVIAL, "full": FULL}


def _marker_lookup(name):
    return _MARKERS[name]


def _is_zero(v) -> bool:
    return not isinstance(v, _Marker) and complex(v) == 0


def point_adjoint(v):
    """Adjoint of the span{e_n} component: conjugation with INF fixed."""
    if v is INF:
        return INF
    if v is TRIVIAL:
        return FULL
    if v is FULL:
        return TRIVIAL
    return complex(v).conjugate()


def point_inverse(v):
    """Inverse of the span{e_n} component: swaps 0 and INF."""
    if v is INF:
        return 0j
    if isinstance(v, _Marker):
        return v
    v = complex(v)
    return INF if v == 0 else 1.0 / v


def point_compose(a, b):
    """Composition a . b of one-dimensional relations (b applied first)."""
    if a is TRIVIAL:
        # {(x, 0) : (x, 0) in b}
        if b is FULL or _is_zero(b):
            return 0j
        return TRIVIAL
    if b is TRIVIAL:
        # {0} x mul(a)
        if a is INF or a is FULL:
            return INF
        return TRIVIAL
    if a is FULL:
        # dom(b) x C
        return INF if b is INF else FULL
    if b is FULL:
        # C x ran(a)
        return 0j if _is_zero(a) else FULL
    if a is INF and b is INF:
        return INF
    if a is INF:
        return FULL if _is_zero(b) else INF
    if b is INF:
        return TRIVIAL if _is_zero(a) else INF
    return complex(a) * complex(b)


def point_relation(v) -> LinRel:
    """The value as a relation on C^1 (the one-dimensional oracle bridge)."""
    if v is INF:
        return rel_from_graph(np.array([[0.0], [1.0]]), 1, 1)
    if v is TRIVIAL:
        return rel_from_graph(np.zeros((2, 0)), 1, 1)
    if v is FULL:
        return rel_from_graph(np.eye(2), 1, 1)
    return rel_from_graph(np.array([[1.0], [complex(v)]]), 1, 1)


def _coerce_entry(v):
    if isinstance(v, _Marker):
        return v
    return complex(v)


@dataclass(frozen=True)
class DiagSymbol:
    """Extended scalar sequence: finite head, then tail_coeff * n^tail_power."""

    head: tuple = ()
    tail_coeff: complex = 0j
    tail_power: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(_coerce_entry(v) for v in self.head))
        object.__setattr__(self, "tail_coeff", complex(self.tail_coeff))
        object.__setattr__(self, "tail_power", Fraction(self.tail_power))

    @property
    def head_len(self) -> int:
        return len(self.head)

    def value_at(self, n: int):
        """Entry at index n >= 1."""
        if n < 1:
            raise ValueError("indices start at 1")
        if n <= len(self.head):
            return self.head[n - 1]
        if self.tail_coeff == 0:
            return 0j
        return self.tail_coeff * float(n) ** float(self.tail_power)

    def values(self, N: int):
        """Entries at indices 1..N, each equal to ``value_at``; the tail's power is converted once."""
        head, tail = list(self.head[:N]), range(len(self.head) + 1, N + 1)
        if self.tail_coeff == 0:
            return head + [0j] * len(tail)
        c, p = self.tail_coeff, float(self.tail_power)
        return head + [c * float(n) ** p for n in tail]


def tail_symbol(coeff, power) -> DiagSymbol:
    return DiagSymbol(head=(), tail_coeff=coeff, tail_power=Fraction(power))


@dataclass(frozen=True)
class DiagRel:
    """A diagonal relation, fully described by its symbol."""

    symbol: DiagSymbol

    @classmethod
    def from_tail(cls, coeff, power):
        return cls(tail_symbol(coeff, power))

    @classmethod
    def from_head(cls, head, tail_coeff=0, tail_power=0):
        return cls(DiagSymbol(head=tuple(head), tail_coeff=tail_coeff, tail_power=Fraction(tail_power)))


@dataclass
class DiagSebResult:
    feasible: bool
    lambda_star: float
    X: DiagSymbol | None
    checks: dict = field(default_factory=dict)


@dataclass
class DiagReverseResult:
    feasible: bool
    eta_star: float
    Y: DiagSymbol | None
    checks: dict = field(default_factory=dict)


def _sym(x) -> DiagSymbol:
    return x.symbol if isinstance(x, DiagRel) else x


def diag_adjoint(D) -> DiagRel:
    sym = _sym(D)
    return DiagRel(
        DiagSymbol(
            head=tuple(point_adjoint(v) for v in sym.head),
            tail_coeff=sym.tail_coeff.conjugate(),
            tail_power=sym.tail_power,
        )
    )


def diag_inverse(D) -> DiagRel:
    """Entrywise relation inverse; 0 and INF swap, the tail power negates."""
    sym = _sym(D)
    if sym.tail_coeff == 0:
        raise UnrepresentableSymbol(
            "diag_inverse: a zero tail inverts to an all-infinity tail, which the "
            "head-plus-power-tail class cannot hold"
        )
    return DiagRel(
        DiagSymbol(
            head=tuple(point_inverse(v) for v in sym.head),
            tail_coeff=1.0 / sym.tail_coeff,
            tail_power=-sym.tail_power,
        )
    )


def diag_compose(D1, D2) -> DiagRel:
    """Entrywise composition D1 . D2 (D2 applied first) by relation rules."""
    s1, s2 = _sym(D1), _sym(D2)
    n_head = max(s1.head_len, s2.head_len)
    head = tuple(point_compose(s1.value_at(n), s2.value_at(n)) for n in range(1, n_head + 1))
    return DiagRel(
        DiagSymbol(
            head=head,
            tail_coeff=s1.tail_coeff * s2.tail_coeff,
            tail_power=s1.tail_power + s2.tail_power,
        )
    )


def _require_nonneg(D, who):
    sym = _sym(D)
    for v in sym.head:
        if v is INF:
            continue
        if isinstance(v, _Marker):
            raise NotNonneg(f"{who}: marker entry {v!r} is not a nonnegative value")
        v = complex(v)
        if v.imag != 0 or v.real < 0:
            raise NotNonneg(f"{who}: entry {v} is not real nonnegative")
    if sym.tail_coeff.imag != 0 or sym.tail_coeff.real < 0:
        raise NotNonneg(f"{who}: tail coefficient {sym.tail_coeff} is not real nonnegative")


def _tail_leq(c1, p1, c2, p2, start):
    """c1 n^p1 <= c2 n^p2 for every n >= start, decided exactly.

    Powers compare through the ratio (c2/c1) n^(p2-p1): increasing when
    p2 > p1 (so the start index decides, the verified crossover), constant
    when p2 = p1, and decreasing to zero when p2 < p1 (so only c1 = 0 works).
    """
    if c1 == 0:
        return True
    if c2 == 0:
        return False
    if p1 == p2:
        return c1 <= c2
    if p2 > p1:
        return c1 * float(start) ** float(p1) <= c2 * float(start) ** float(p2)
    return False


def diag_order_leq(D1, D2) -> bool:
    """Form order for nonnegative selfadjoint diagonal symbols.

    Entrywise comparison with INF dominating everything, checked pointwise
    over the heads and in closed form over the power tails.
    """
    s1, s2 = _sym(D1), _sym(D2)
    _require_nonneg(s1, "diag_order_leq")
    _require_nonneg(s2, "diag_order_leq")
    start = max(s1.head_len, s2.head_len) + 1
    for n in range(1, start):
        v1, v2 = s1.value_at(n), s2.value_at(n)
        if v2 is INF:
            continue
        if v1 is INF:
            return False
        if complex(v1).real > complex(v2).real:
            return False
    return _tail_leq(s1.tail_coeff.real, s1.tail_power, s2.tail_coeff.real, s2.tail_power, start)


def diag_seb_solve(T, B, tol: float = DEFAULT_TOL) -> DiagSebResult:
    """Pointwise Sebestyen solve |t(n)|^2 <= lambda conj(t(n)) b(n).

    Hypotheses (hard errors): conj(t) b selfadjoint nonnegative and
    mul B <= ker (T_s)* (b(n) = INF needs t(n) = INF or TRIVIAL) at every
    index by the relation rules.  Feasible iff the ratio sup |t(n)|/|b(n)|
    over binding indices is finite, which for the tails means
    tail_power(t) <= tail_power(b); the solution symbol x = t/b is bounded
    with sup |x| = lambda_star, computed in closed form (head maximum plus a
    tail bound attained at the tail start).  Raises OverflowError when a
    head ratio, the tail ratio or lambda_star of a feasible problem leaves
    the float range, as a matrix engine's result would.
    """
    s_t, s_b = _sym(T), _sym(B)
    start = max(s_t.head_len, s_b.head_len) + 1
    head_x = []
    lam = 0.0
    feasible = True
    b_unbounded = s_b.tail_coeff != 0 and s_b.tail_power > 0
    for n in range(1, start):
        t, b = s_t.value_at(n), s_b.value_at(n)
        m = point_compose(point_adjoint(t), b)
        if m is TRIVIAL or m is FULL:
            raise HypothesisFailed(
                f"diag_seb_solve: (T*B) at index {n} is {m!r}, not selfadjoint"
            )
        if m is not INF:
            m = complex(m)
            if abs(m.imag) > tol * abs(m) or m.real < -tol * abs(m):
                raise HypothesisFailed(
                    f"diag_seb_solve: (T*B) at index {n} is {m}, not nonnegative"
                )
        if b is INF and not (isinstance(t, _Marker) or _is_zero(t)):
            raise HypothesisFailed(f"diag_seb_solve: mul B at index {n} is not in ker (T_s)*")
        if isinstance(b, _Marker) or isinstance(t, _Marker):
            head_x.append(0j)
            continue
        t, b = complex(t), complex(b)
        if b == 0:
            if t != 0:
                feasible = False
            head_x.append(0j)
            continue
        if t == 0:
            head_x.append(0j)
            continue
        head_x.append(t / b)
        lam = max(lam, abs(t) / abs(b))

    ct, pt = s_t.tail_coeff, s_t.tail_power
    cb, pb = s_b.tail_coeff, s_b.tail_power
    m_tail = ct.conjugate() * cb
    if abs(m_tail.imag) > tol * abs(m_tail) or m_tail.real < -tol * abs(m_tail):
        raise HypothesisFailed("diag_seb_solve: tail of T*B is not real nonnegative")
    if ct == 0:
        x_tail, x_pow = 0j, Fraction(0)
    elif cb == 0:
        feasible = False
        x_tail, x_pow = 0j, Fraction(0)
    elif pt > pb:
        feasible = False
        x_tail, x_pow = 0j, Fraction(0)
    else:
        x_tail, x_pow = ct / cb, pt - pb
        ratio_at_start = abs(ct / cb) * float(start) ** float(pt - pb)
        lam = max(lam, abs(ct / cb) if pt == pb else ratio_at_start)

    if not feasible:
        return DiagSebResult(feasible=False, lambda_star=float("inf"), X=None)
    if not all(cmath.isfinite(v) for v in (lam, x_tail, *head_x)):
        raise OverflowError("diag_seb_solve: the solution symbol x = t/b leaves the float range")
    X = DiagSymbol(head=tuple(head_x), tail_coeff=x_tail, tail_power=x_pow)
    return DiagSebResult(
        feasible=True,
        lambda_star=lam,
        X=X,
        checks={"B_unbounded": b_unbounded, "X_bounded": True, "sup_X": lam},
    )


def diag_reverse_solve(T, B, tol: float = DEFAULT_TOL) -> DiagReverseResult:
    """Reversed inequality |t(n)|^2 >= eta conj(b(n)) t(n) as the inverted forward problem.

    Hypotheses (hard errors): conj(b) t selfadjoint nonnegative and
    ker B* <= ker T* + mul T (b(n) = 0 needs t(n) = 0, INF or a marker).
    With S = (T*)^(-1) and A = (B*)^(-1) these are the gates of
    ``diag_seb_solve(S, A)``, as for ``factor.reverse_solve``; a zero tail
    of B against a nonzero tail of T fails the second along the tail before
    anything is inverted.  The dual's x and lambda* give eta* = 1/lambda*
    (inf when lambda* = 0) and y = 1/x, which is INF exactly where e_n is in
    mul Y; Y^(-1) = x is the bounded PSD symbol.  A zero tail of T makes the
    tail of Y all INF, which the symbol class cannot hold
    (UnrepresentableSymbol).
    """
    s_t, s_b = _sym(T), _sym(B)
    if s_b.tail_coeff == 0 and s_t.tail_coeff != 0:
        raise HypothesisFailed("diag_reverse_solve: ker B* is not in ker T* + mul T along the tail")
    S, A = diag_inverse(diag_adjoint(s_t)), diag_inverse(diag_adjoint(s_b))
    try:
        dual = diag_seb_solve(S, A, tol)
    except HypothesisFailed as exc:
        raise HypothesisFailed(f"diag_reverse_solve: on the dual ((T*)^-1, (B*)^-1), {exc}") from exc
    if not dual.feasible:
        return DiagReverseResult(feasible=False, eta_star=0.0, Y=None)
    Y = diag_inverse(dual.X).symbol
    return DiagReverseResult(
        feasible=True,
        eta_star=math.inf if dual.lambda_star == 0.0 else 1.0 / dual.lambda_star,
        Y=Y,
        checks={
            "Y_unbounded": Y.tail_power > 0 or any(v is INF for v in Y.head),
            "Yinv_bounded_psd": dual.checks["X_bounded"],
        },
    )


def diag_truncate(D, N: int, force_relation: bool = False):
    """First N indices as an N x N diagonal matrix or a diagonal relation.

    Returns a matrix when every entry is a finite scalar (and
    ``force_relation`` is off); otherwise a LinRel whose graph collects, per
    index, the pair (e_n, v e_n), the mul component (0, e_n) for INF, both
    generators for FULL, and nothing for TRIVIAL.
    """
    sym = _sym(D)
    if N < sym.head_len:
        raise ValueError(f"diag_truncate: N={N} is below the head length {sym.head_len}")
    # the result is allocated before the N values are listed: an N past memory fails at once
    if not force_relation and not any(isinstance(v, _Marker) for v in sym.head):
        out = np.zeros((N, N))
        d = as_matrix([sym.values(N)])[0]
        if d.dtype != out.dtype:
            return np.diag(d)
        np.fill_diagonal(out, d)
        return out
    # per-index generators are mutually orthogonal, so normalizing each column
    # already yields an orthonormal graph basis; no re-orthonormalization
    width = sum(0 if v is TRIVIAL else 2 if v is FULL else 1 for v in sym.head) + N - sym.head_len
    graph = np.zeros((2 * N, width), dtype=np.complex128)
    j = 0
    for i, v in enumerate(sym.values(N)):
        if v is TRIVIAL:
            continue
        if v is INF:
            graph[N + i, j] = 1.0
        elif v is FULL:
            graph[i, j] = graph[N + i, j + 1] = 1.0
            j += 1
        else:
            graph[[i, N + i], j] = np.array([1.0, v]) / np.sqrt(1.0 + abs(complex(v)) ** 2)
        j += 1
    # real when every finite value is, so the relation engines run real LAPACK
    return LinRel(N, N, Subspace(2 * N, as_matrix(graph)))
