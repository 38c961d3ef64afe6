"""Constructors for the structured matrices under study.

The central object is the Loewner matrix of the power function t^r on a set
of positive nodes: entry (i,j) is the divided difference
(p_i^r - p_j^r)/(p_i - p_j), with the analytic limit r*p_i^(r-1) on the
diagonal.  One kernel evaluates that divided difference without
cancellation, within 16 eps relative error at any node gap and exponent,
for the float Loewner matrix, the cross variant and the zero counter in
``analysis``.  It takes per-node power tables, so each node is raised to
each power once, and runs on the arithmetic ``ToleranceContext.arith``
picks: Python floats at 53 bits while every node, r and node^r lies in the
window 2^-200 .. 2^200, mpmath otherwise.  On floats the Loewner matrix
keeps the float rows the kernel computed, which the inertia routes run on,
and makes its mpf entries only when they are read.  The remaining builders
(sinh form, diagonal and all-ones factors, Vandermonde and antidiagonal
factors, power-sum matrix, and the two-sequence cross variant) supply the
congruences and factorizations the inertia analysis relies on.  Every
builder takes the nodes and the exponent as they are: (config, r[, tol]).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from mpmath import mp, mpf

from .types import (
    DEFAULT_TOL,
    FLOAT_ARITH,
    Exponent,
    PointConfig,
    Scalar,
    SymMatrix,
    ToleranceContext,
    to_mpf,
)


# Integer exponents up to this size take the power-sum form of the divided
# difference; larger ones take the expm1 route, whose cost does not grow with |m|.
_POWER_SUM_MAX = 64


def _kernel_node(x, r, m):
    """What the divided-difference kernel needs of the number x: the triple
    (x, x^r, powers), computed once per node.

    On the power-sum branch (``m`` the integer exponent, |m| <= 64) powers
    holds x^0 .. x^|m| and x^r is not needed; otherwise powers is None.
    """
    if m is not None and abs(m) <= _POWER_SUM_MAX:
        return x, None, [x ** a for a in range(abs(m) + 1)]
    return x, x ** r, None


def _divided_difference(u, v, r, m, ar):
    """(x^r - y^r)/(x - y) for x, y > 0, free of cancellation.

    ``u`` and ``v`` are the ``_kernel_node`` triples of x and y, ``m`` is r
    as an int when r is an integer, else None, and ``ar`` the arithmetic
    (see ``ToleranceContext.arith``).  The relative error stays within 16 eps:

    - integer m with |m| <= 64 sums x^a y^(|m|-1-a), terms of one sign
      (exact on small integer nodes, and the derivative when x == y); m < 0
      negates the sum and divides it by (xy)^|m|;
    - otherwise x == y gives the derivative r*y^(r-1); with y the smaller
      node, w = r*log1p((x-y)/y) and y^r*expm1(w)/(x-y) is used while x^r
      and y^r lie within a factor 5/4 (|w| < 0.23); farther apart the
      subtraction x^r - y^r loses at most a factor 9 and is done directly.
    """
    x, xr, xp = u
    y, yr, yp = v
    if xp is not None:
        k = abs(m)
        s = ar.fsum(xp[a] * yp[k - 1 - a] for a in range(k))
        return s if m >= 0 else -s / (xp[k] * yp[k])
    if x == y:
        return r * yr / y
    if 0.8 < float(xr / yr) < 1.25:
        if x < y:
            x, y, yr = y, x, xr
        d = x - y
        return yr * ar.expm1(r * ar.log1p(d / y)) / d
    return (xr - yr) / (x - y)


def _kernel_nodes(values, exponent: Exponent, ar):
    """The exponent in ``ar`` and the kernel triple of every value."""
    r = ar.num(exponent.r)
    return r, [_kernel_node(ar.num(v), r, exponent.integer_value) for v in values]


def loewner_matrix(config: PointConfig, r: Scalar,
                   tol: ToleranceContext = DEFAULT_TOL) -> SymMatrix:
    """Loewner matrix of t^r at the given nodes, at working precision.

    Every entry, the diagonal limit r*p^(r-1) included, comes from the
    cancellation-free divided-difference kernel, in float arithmetic at 53
    bits when the nodes and their powers allow it (``ToleranceContext.arith``).
    The entries are mpf either way; on floats the matrix keeps the float
    rows the routes run on and makes its mpf entries when they are read.
    """
    ex = Exponent.of(r)
    with tol.prec():
        ar = tol.arith(config.values(), ex.r)
        rr, nodes = _kernel_nodes(config.values(), ex, ar)
        m = ex.integer_value

        def entry(i, j):
            return _divided_difference(nodes[i], nodes[j], rr, m, ar)

        if ar is FLOAT_ARITH:
            return SymMatrix._build_floats(config.n, entry)
        return SymMatrix.build(config.n, lambda i, j: mpf(entry(i, j)))


def refuse_zero_exponent(r: Scalar) -> None:
    """ValueError at r = 0, for every caller that checks a property of L_r:
    L_0 is the zero matrix, so no such property can hold or fail there."""
    if r == 0:
        raise ValueError("exponent 0 is not accepted here (L_0 is the zero matrix)")


def loewner_matrix_exact(config: PointConfig, r: int) -> SymMatrix:
    """Loewner matrix for integer r over the rationals, exactly.

    Every entry is the plain quotient (p_i^r - p_j^r)/(p_i - p_j), with the
    limit r p_i^(r-1) on the diagonal: over the rationals nothing cancels,
    and r = 0 gives the zero matrix by the same formula.  Each node is
    raised to r, and its diagonal value formed, once.
    """
    if config.exact is None:
        raise ValueError("exact Loewner matrix needs rational nodes")
    ex = Exponent.of(r)
    if not ex.is_integer:
        raise ValueError(f"exact Loewner matrix needs an integer exponent, got {r!r}")
    m = ex.integer_value
    p = config.exact
    pm = [x ** m for x in p]
    diag = [m * x ** (m - 1) for x in p]

    def entry(i, j):
        if i == j:
            return diag[i]
        return (pm[i] - pm[j]) / (p[i] - p[j])

    return SymMatrix.build(config.n, entry)


def sinh_loewner(x: Sequence[Scalar], r: Scalar,
                 tol: ToleranceContext = DEFAULT_TOL) -> SymMatrix:
    """Matrix [sinh(r(x_i-x_j))/sinh(x_i-x_j)] with diagonal limit r.

    The abscissas may have any sign but must be strictly increasing; this is
    the congruence-reduced form of the Loewner matrix under p_i = e^{2 x_i}.
    """
    xs = list(x)
    for a, b in zip(xs, xs[1:]):
        if not a < b:
            raise ValueError("abscissas must be strictly increasing")
    with tol.prec():
        xm = [to_mpf(v) for v in xs]
        rr = to_mpf(Exponent.of(r).r)

        def entry(i, j):
            if i == j:
                return rr
            d = xm[i] - xm[j]
            return mp.sinh(rr * d) / mp.sinh(d)

        return SymMatrix.build(len(xs), entry)


def diag_D(config: PointConfig) -> SymMatrix:
    """Diagonal matrix of the nodes (exact when the config carries rationals)."""
    if config.exact is not None:
        return SymMatrix.diagonal(config.exact, zero=Fraction(0))
    return SymMatrix.diagonal(tuple(mpf(p) for p in config.points), zero=mpf(0))


def ones_E(n: int) -> SymMatrix:
    """All-ones matrix of order n."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return SymMatrix.from_rows([[1] * n for _ in range(n)])


def vandermonde_W(config: PointConfig, r: int) -> tuple[tuple, ...]:
    """r x n Vandermonde matrix: row a holds the nodes to the power a."""
    ex = Exponent.of(r)
    if not ex.is_integer or ex.integer_value < 1:
        raise ValueError(f"Vandermonde factor needs a positive integer exponent, got {r!r}")
    m = ex.integer_value
    if config.exact is not None:
        p = config.exact
    else:
        p = [mpf(v) for v in config.points]
    return tuple(tuple(v ** a for v in p) for a in range(m))


def antidiag_V(r: int) -> SymMatrix:
    """Antidiagonal matrix of order r with unit entries."""
    ex = Exponent.of(r)
    if not ex.is_integer or ex.integer_value < 1:
        raise ValueError(f"antidiagonal factor needs a positive integer order, got {r!r}")
    m = ex.integer_value
    return SymMatrix.from_rows([
        [1 if i + j == m - 1 else 0 for j in range(m)] for i in range(m)
    ])


def power_sum_matrix(config: PointConfig, r: Scalar,
                     tol: ToleranceContext = DEFAULT_TOL) -> SymMatrix:
    """Matrix [(p_i + p_j)^r] at working precision."""
    with tol.prec():
        p = config.mp_points()
        rr = to_mpf(r)
        return SymMatrix.build(config.n, lambda i, j: (p[i] + p[j]) ** rr)


def cross_loewner(p: PointConfig, q: PointConfig, r: Scalar,
                  tol: ToleranceContext = DEFAULT_TOL) -> tuple[tuple, ...]:
    """Two-sequence divided-difference matrix [(p_i^r - q_j^r)/(p_i - q_j)].

    Coincident arguments take the derivative value r*p_i^(r-1) and nearly
    coincident ones lose no accuracy (see the divided-difference kernel);
    with q = p this reduces to the plain Loewner matrix.
    """
    if p.n != q.n:
        raise ValueError("point sequences must have equal length")
    ex = Exponent.of(r)
    with tol.prec():
        ar = tol.arith(p.values() + q.values(), ex.r)
        rr, pn = _kernel_nodes(p.values(), ex, ar)
        _, qn = _kernel_nodes(q.values(), ex, ar)
        m = ex.integer_value
        return tuple(
            tuple(mpf(_divided_difference(u, v, rr, m, ar)) for v in qn) for u in pn)
