"""Zero counting for divided-difference combinations, sign-regularity scans,
compound matrices, determinant identities, complex determinant zeros, the
derivative action of matrix powers, and the power-sum comparison.

Every determinant other than the closed forms comes from one LU with
partial pivoting (``exact._lu_factor``), written once for floats, complex,
``decimal``, mpf, mpc and Fractions, on the arithmetic ``ToleranceContext``
picks.
The complex determinant ``complex_det`` runs it on Python ``complex`` at 53
bits when the nodes, z and every |p^z| lie in the float window
(``ToleranceContext.complex_arith``), and on mpc otherwise, and pairs each
value with a first-order bound on its error: the backward error of the
factorisation plus the rounding of the entries.  That bound is taken in two
stages: an O(n^2) upper bound from triangular solves on the comparison
matrices (``_lu_quick_bound``) accepts most samples, and only where it
cannot does the bound through the explicit inverse (``_lu_relative_bound``,
O(n^3)) decide; the quick bound is never smaller, so a sample is accepted
exactly when the inverse bound alone would accept it.  The inverse
stays because graded entries (large Re z) make the quick bound useless.
A value inside its bound is retried on the next rung of the precision
ladder (``ToleranceContext.rungs``) and comes out as 0 when no rung
resolves it; the argument-principle scan reads a 0 as a zero on its
contour and re-grids.  ``complex_det`` and the scan run one ladder,
``_complex_det_ladder``: the scan keeps each rung's node table (the
nodes, their logarithms and the unit roundoff) for its whole run, reads
the ladder's native ``complex`` or mpc, evaluates each geometric contour
point once (its cache is keyed on a dyadic lattice) and refuses a grid
whose cells would be narrower than 4096 ulps of the region's coordinates.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from numbers import Rational
from typing import Optional, Sequence, Union

import mpmath
from mpmath import libmp, mp, mpc, mpf

from . import builders
from .exact import _DET_FLOAT_MAX, _DET_FLOAT_MIN, _lu_factor, _pivot_product, det_fraction
from .inertia import InertiaReport, _settle, _settle_loewner, eig_sym, exact_route_hint
from .types import (
    DEFAULT_TOL,
    FLOAT_ARITH,
    Exponent,
    Inertia,
    MP_ARITH,
    PointConfig,
    Scalar,
    SymMatrix,
    ToleranceContext,
    _in_float_window,
    to_mpf,
)


# ---------------------------------------------------------------------------
# Linear combinations of divided differences and their zeros


@dataclass(frozen=True)
class ComboFunction:
    """f(x) = sum_j c_j (x^r - p_j^r)/(x - p_j) on (0, inf), not identically 0."""

    config: PointConfig
    coeffs: tuple
    r: Scalar

    def __post_init__(self):
        if len(self.coeffs) != self.config.n:
            raise ValueError("one coefficient per point is required")
        if all(c == 0 for c in self.coeffs):
            raise ValueError("at least one coefficient must be nonzero")
        if _vanishes_identically(self.config, self.coeffs, Exponent.of(self.r)):
            raise ValueError(f"the combination is identically zero at r = {self.r!r}")


def _vanishes_identically(config: PointConfig, coeffs, ex: Exponent) -> bool:
    """True when the combination is 0 at every x, checked exactly.

    Only an integer r = m can do this.  For m >= 1 each term is the
    polynomial sum_a x^a p_j^(m-1-a), so f vanishes exactly when the moments
    sum_j c_j p_j^k are 0 for k = 0..m-1; for m <= -1 the same holds for
    k = -1..m, and m = 0 makes every term 0.  Any n consecutive moments of
    n distinct nodes determine the coefficients (a Vandermonde system), so
    with |m| >= n the combination cannot vanish.
    """
    m = ex.integer_value
    if m is None or abs(m) >= config.n:
        return False
    c = [Fraction(*libmp.to_rational(v._mpf_)) if isinstance(v, mpf) else Fraction(v)
         for v in coeffs]
    p = config.ensure_exact().exact
    ks = range(m) if m >= 0 else range(-1, m - 1, -1)
    return all(sum(cj * pj ** k for cj, pj in zip(c, p)) == 0 for k in ks)


def _combo_terms(f: ComboFunction, ends, tol: ToleranceContext):
    """What evaluating f needs: the arithmetic, r and m for the kernel, and a
    (coefficient, kernel node) pair per nonzero coefficient.

    The arithmetic is float at 53 bits when the coefficients, the nodes and
    the evaluation range ``ends``, with the r-th powers of both, allow it
    (``ToleranceContext.arith``).
    """
    ex = Exponent.of(f.r)
    ar = tol.arith(f.config.values() + tuple(ends), ex.r)
    if tol.arith(f.coeffs) is not FLOAT_ARITH:
        ar = MP_ARITH
    r, nodes = builders._kernel_nodes(f.config.values(), ex, ar)
    terms = [(ar.num(c), node) for c, node in zip(f.coeffs, nodes) if c != 0]
    return ar, r, ex.integer_value, terms


def _combo_value_bound(x, terms, r, m, ar, bound_factor):
    """Combination value at x plus a roundoff bound for it.

    Each term comes from the divided-difference kernel, accurate to 16 eps
    relative, and summing n terms adds at most n eps of each, so the bound
    is ``bound_factor`` = (16+n)*eps times the sum of the term magnitudes.
    """
    u = builders._kernel_node(x, r, m)
    total = bound = 0
    for c, v in terms:
        term = c * builders._divided_difference(u, v, r, m, ar)
        total += term
        bound += abs(term)
    return total, bound_factor * bound


def combo_eval(f: ComboFunction, x: Scalar, tol: ToleranceContext = DEFAULT_TOL):
    """Evaluate the combination at x > 0 (limit rule at the nodes)."""
    if not x > 0:
        raise ValueError(f"argument must be positive, got {x!r}")
    with tol.prec():
        ar, r, m, terms = _combo_terms(f, (x,), tol)
        value, _ = _combo_value_bound(ar.num(x), terms, r, m, ar, 0)
        return mpf(value)


@dataclass(frozen=True)
class ScanPolicy:
    """Interval and grid of the sign scan; a None end of the interval
    defaults to the smallest node / 100 or the largest * 100."""

    x_min: Optional[float] = None
    x_max: Optional[float] = None
    grid: int = 100_000

    def __post_init__(self):
        if not self.grid >= 2:
            raise ValueError(f"the scan grid needs at least 2 points, got {self.grid!r}")


@dataclass(frozen=True)
class ZeroCountReport:
    """The sign changes ``count_zeros`` found and its verdict.  A combination
    of n divided differences has at most ``bound`` = n - 1 zeros at any r
    but the integers 1..n-1, where the bound is not checked
    (``bound_applies`` false); ``ok`` holds when the count keeps to the
    bound or the bound does not apply."""

    r: Scalar
    count: int
    bound: int
    bound_applies: bool
    brackets: tuple
    ambiguous: tuple
    grid: int
    ok: bool


def count_zeros(f: ComboFunction, scan: Optional[ScanPolicy] = None,
                tol: ToleranceContext = DEFAULT_TOL) -> ZeroCountReport:
    """Count strict sign changes of the combination on a geometric grid.

    Each grid value is computed once, with its roundoff bound.  A value
    within its bound is listed in ``ambiguous`` and skipped rather than
    guessed.  Changes are only counted between strictly classified values,
    so the count never exceeds the true zero count.  At 53 bits the grid
    and the values are computed in Python floats when the inputs allow it
    (see ``_combo_terms``).
    """
    scan = scan or ScanPolicy()
    with tol.prec():
        pts = f.config.points
        a = mpf(scan.x_min) if scan.x_min is not None else mpf(min(pts)) / 100
        b = mpf(scan.x_max) if scan.x_max is not None else mpf(max(pts)) * 100
        if not 0 < a < b:
            raise ValueError("scan interval must satisfy 0 < x_min < x_max")
        N = scan.grid
        ar, r, m, terms = _combo_terms(f, (a, b), tol)
        a, b = ar.num(a), ar.num(b)
        bound_factor = (16 + f.config.n) * ar.num(tol.eps())
        la, lb = ar.log(a), ar.log(b)
        brackets = []
        ambiguous = []
        prev_x = prev_s = None
        for i in range(N):
            x = ar.exp(la + (lb - la) * i / (N - 1))
            v, bound = _combo_value_bound(x, terms, r, m, ar, bound_factor)
            if abs(v) <= bound:
                ambiguous.append(float(x))
                continue
            s = 1 if v > 0 else -1
            if prev_s is not None and s != prev_s:
                brackets.append((float(prev_x), float(x)))
            prev_x, prev_s = x, s
        most = f.config.n - 1
        applies = m is None or not 1 <= m <= most
        return ZeroCountReport(f.r, len(brackets), most, applies, tuple(brackets),
                               tuple(ambiguous), N, not applies or len(brackets) <= most)


# ---------------------------------------------------------------------------
# Minors: sign-regularity scans and compound matrices


MatrixLike = Union[SymMatrix, Sequence[Sequence]]


def _as_rows(A: MatrixLike) -> tuple[tuple, ...]:
    """The rows of the square matrix ``A``; ValueError when it is not square
    or has a NaN or infinite entry, which would otherwise be a minor sign."""
    rows = A.entries if isinstance(A, SymMatrix) else tuple(tuple(row) for row in A)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("minors need a square matrix")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not (isinstance(v, Rational) or mpmath.isfinite(v)):
                raise ValueError(f"entry ({i},{j}) is not finite: {v!r}")
    return rows


def _det_any(rows, tol: ToleranceContext):
    """Determinant of a small matrix from the shared LU: exact on Fractions
    for rational entries, else an mpf from the LU on the arithmetic
    ``tol.arith`` picks for the entries (floats at 53 bits inside the float
    window, ``decimal`` above 53 bits, mpmath otherwise)."""
    if all(isinstance(e, Rational) for row in rows for e in row):
        return det_fraction(rows)
    with tol.prec():
        ar = tol.arith(e for row in rows for e in row)
        A = [[ar.num(e) for e in row] for row in rows]
        _, sign = _lu_factor(A)
        return ar.out(_pivot_product(A, sign))


def _minor_sign(rows, tol: ToleranceContext) -> int:
    """Sign of the minor, with a Hadamard-scaled zero threshold for floats."""
    d = _det_any(rows, tol)
    if isinstance(d, Rational):
        return 0 if d == 0 else (1 if d > 0 else -1)
    with tol.prec():
        had = mpf(1)
        for row in rows:
            had *= mp.sqrt(mp.fsum(to_mpf(e) ** 2 for e in row))
        if abs(d) <= to_mpf(tol.zero_rel_tol) * had:
            return 0
        return 1 if d > 0 else -1


@dataclass(frozen=True)
class SsrReport:
    """Per-size minor sign summary: '+', '-', 'mixed', or 'zero' for each k."""

    order: int
    per_k: tuple[str, ...]
    ssr_class: str
    k_max: int


_SSR_MAX_ORDER = 7  # all-minors enumeration is C(n,k)^2 per size


def ssr_scan(A: MatrixLike, k_max: Optional[int] = None,
             tol: ToleranceContext = DEFAULT_TOL) -> SsrReport:
    """Classify every k x k minor sign for k up to k_max.

    A 'mixed' verdict requires two minors of opposite strict sign; 'zero'
    means at least one minor fell under the zero threshold and none clashed.
    """
    rows = _as_rows(A)
    n = len(rows)
    if n > _SSR_MAX_ORDER:
        raise ValueError(f"order {n} too large for exhaustive minor scan (max {_SSR_MAX_ORDER})")
    k_max = n if k_max is None else k_max
    if not 1 <= k_max <= n:
        raise ValueError(f"need 1 <= k_max <= {n}")
    verdicts = []
    for k in range(1, k_max + 1):
        has_pos = has_neg = has_zero = False
        for R in combinations(range(n), k):
            for C in combinations(range(n), k):
                sub = [[rows[i][j] for j in C] for i in R]
                s = _minor_sign(sub, tol)
                if s > 0:
                    has_pos = True
                elif s < 0:
                    has_neg = True
                else:
                    has_zero = True
        if has_pos and has_neg:
            verdicts.append('mixed')
        elif has_zero:
            verdicts.append('zero')
        elif has_pos:
            verdicts.append('+')
        else:
            verdicts.append('-')
    m = 0
    for v in verdicts:
        if v in ('+', '-'):
            m += 1
        else:
            break
    if m == n:
        cls = 'SSR'
    elif m >= 1:
        cls = f'SSR_{m}'
    else:
        cls = 'none'
    return SsrReport(n, tuple(verdicts), cls, k_max)


@dataclass(frozen=True)
class LoewnerSsrReport:
    """The minor signs of L_r (``ssr_scan``) against the class the theorem
    requires: SSR_m at an integer r = m in 1..n-1, else SSR."""

    r: Scalar
    exact: bool
    per_k: tuple[str, ...]
    ssr_class: str
    required: str
    ok: bool


def loewner_ssr(config: PointConfig, r: Scalar, k_max: Optional[int] = None,
                tol: ToleranceContext = DEFAULT_TOL) -> LoewnerSsrReport:
    """Sign regularity of L_r, its minors scanned up to ``k_max``: exactly on
    Fractions at an integer r on rational nodes, else on the matrix built
    at ``tol``.  Below the required size every scanned size must have one
    strict sign; SSR needs the scan to reach every size.

    This is the one Loewner caller that does not take ``exact_route_hint``:
    float nodes stay on the float minors until a bound on the work lands,
    since the exact minors of five float nodes take about 11 s at r = 300.
    r = 0 raises ValueError: L_0 is the zero matrix."""
    builders.refuse_zero_exponent(r)
    m = Exponent.of(r).integer_value
    exact = m is not None and config.exact is not None
    M = builders.loewner_matrix_exact(config, m) if exact else builders.loewner_matrix(config, r, tol)
    rep = ssr_scan(M, k_max, tol)
    if m is not None and 1 <= m <= config.n - 1:
        ok = all(v in ("+", "-") for v in rep.per_k[:m])
        required = f"SSR_{m}"
    else:
        ok = rep.ssr_class == "SSR" and rep.k_max == config.n
        required = "SSR"
    return LoewnerSsrReport(r, exact, rep.per_k, rep.ssr_class, required, ok)


def compound_matrix(A: MatrixLike, k: int,
                    tol: ToleranceContext = DEFAULT_TOL):
    """k-th compound: minors indexed by lexicographic k-subsets of rows/columns.

    Symmetric input yields a SymMatrix (upper minors mirrored, so symmetry
    is exact); general input yields plain rows.
    """
    rows = _as_rows(A)
    n = len(rows)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    subsets = list(combinations(range(n), k))

    def minor(a, b):
        sub = [[rows[i][j] for j in subsets[b]] for i in subsets[a]]
        return _det_any(sub, tol)

    if isinstance(A, SymMatrix):
        return SymMatrix.build(len(subsets), lambda a, b: minor(a, b))
    return tuple(tuple(minor(a, b) for b in range(len(subsets)))
                 for a in range(len(subsets)))


# ---------------------------------------------------------------------------
# Closed-form determinants for three nodes


def _three_nodes(config: PointConfig):
    if config.n != 3:
        raise ValueError(f"closed form needs exactly 3 points, got {config.n}")
    return config.ensure_exact().exact


def det_closed_form_L3(config: PointConfig):
    """det L_3 for three nodes: -(p1-p2)^2 (p1-p3)^2 (p2-p3)^2, rounded once for float nodes."""
    p1, p2, p3 = _three_nodes(config)
    v = -((p1 - p2) * (p1 - p3) * (p2 - p3)) ** 2
    return v if config.exact is not None else to_mpf(v)


def det_closed_form_L4(config: PointConfig):
    """det L_4 for three nodes: -2 prod (p_i-p_j)^2 {(sum p)(sum pp) + p1 p2 p3}."""
    p1, p2, p3 = _three_nodes(config)
    gaps = ((p1 - p2) * (p1 - p3) * (p2 - p3)) ** 2
    sym = (p1 + p2 + p3) * (p1 * p2 + p1 * p3 + p2 * p3) + p1 * p2 * p3
    v = -2 * gaps * sym
    return v if config.exact is not None else to_mpf(v)


# ---------------------------------------------------------------------------
# The determinant as a function of a complex exponent


def _lu_inverse_columns(F) -> list:
    """The columns of (P A)^-1 = U^-1 L^-1, from a finished factorisation."""
    n = len(F)
    cols = []
    for c in range(n):
        y = [0] * n
        y[c] = 1
        for i in range(c + 1, n):
            row, s = F[i], 0
            for k in range(c, i):
                s -= row[k] * y[k]
            y[i] = s
        for i in range(n - 1, -1, -1):
            row, s = F[i], y[i]
            for k in range(i + 1, n):
                s -= row[k] * y[k]
            y[i] = s / row[i]
        cols.append(y)
    return cols


def _lu_relative_bound(F, order, entry_err, eps):
    """First-order bound on |computed det - det A| / |det A| (Higham, ch. 9).

    The computed factors are exact for P A + dA with |dA| <= gamma |L||U|,
    gamma = 4n eps / (1 - 4n eps) (complex products and quotients cost a
    few roundings each), and the entries of A carry errors up to
    ``entry_err`` (indexed like A).  A perturbation E moves det by
    det * tr(A^-1 E) to first order, so the relative error is at most
    sum_ij |(PA)^-1_ji| (gamma (|L||U|)_ij + entry_err_(order i) j), plus n
    eps for the product of the pivots.  The result is doubled for the
    neglected higher-order terms: a value outside its bound has a relative
    error under 1/2.
    """
    n = len(F)
    cols = _lu_inverse_columns(F)
    a = [[abs(v) for v in row] for row in F]
    gamma = 4 * n * eps / (1 - 4 * n * eps)
    rel = n * eps
    for i in range(n):
        ai, err, xi = a[i], entry_err[order[i]], cols[i]
        for j in range(n):
            # (|L||U|)_ij, L unit lower triangular
            lu = ai[j] if i <= j else ai[j] * a[j][j]
            for k in range(min(i, j)):
                lu += ai[k] * a[k][j]
            rel += abs(xi[j]) * (gamma * lu + err[j])
    return 2 * rel


def _lu_quick_bound(F, order, entry_err, eps):
    """An O(n^2) upper bound on ``_lu_relative_bound``, from the same
    arguments, with no inverse (Higham, ch. 8).

    With a = |F| and M(T) the comparison matrix of a triangular T,
    |(PA)^-1| <= |U^-1||L^-1| <= M(U)^-1 M(L)^-1 entrywise, so column i of
    |(PA)^-1| sums to at most w_i, from two triangular solves on nonnegative
    data: v_j = (1 + sum_{k<j} a_kj v_k) / a_jj, then w_i = v_i + sum_{k>i}
    a_ki w_k.  With mu_k = max_{j>=k} a_kj, (|L||U|)_ij <= mu_i + sum_{k<i}
    a_ik mu_k, so row i of gamma |L||U| + E is at most beta_i = gamma (mu_i
    + sum_{k<i} a_ik mu_k) + max_j entry_err_(order i) j, and the sum that
    ``_lu_relative_bound`` doubles is at most n eps + sum_i beta_i w_i.
    Each solve on an M-matrix loses at most about 2 n^2 eps to rounding (a
    backward error of gamma_n per row), the rest a few n eps, so the factor
    1 + 8 n^2 eps keeps the computed value above the exact one.  It pairs
    each row's largest error with a whole column sum, so on graded entries
    it can be loose by many orders of magnitude (nodes 1..8 at z = 60: 3e7
    against 2.7e-9).
    """
    n = len(F)
    a = [[abs(x) for x in row] for row in F]
    gamma = 4 * n * eps / (1 - 4 * n * eps)
    w = [1] * n  # v, then w, each solve run a row at a time
    for k, row in enumerate(a):
        w[k] = vk = w[k] / row[k]
        for j in range(k + 1, n):
            w[j] += row[j] * vk
    for k in range(n - 1, 0, -1):
        row, wk = a[k], w[k]
        for i in range(k):
            w[i] += row[i] * wk
    rel = n * eps
    mu = []
    for i, row in enumerate(a):
        lu = max(row[i:])
        mu.append(lu)
        for k in range(i):
            lu += row[k] * mu[k]
        rel += (gamma * lu + max(entry_err[order[i]])) * w[i]
    return 2 * rel * (1 + 8 * n * n * eps)


class _NodeTable:
    """What the complex determinant needs of the nodes at one precision,
    computed once and shared by every z: the nodes as floats for the window
    test of ``ToleranceContext.complex_arith`` (a float of a Fraction is
    correctly rounded, so inside the window the test sees the values the
    float rung computes with; outside it the nodes go to the test as given),
    and per arithmetic the unit roundoff, the nodes and their logarithms."""

    def __init__(self, config: PointConfig, tol: ToleranceContext):
        values = config.values()
        self.values, self.tol = values, tol
        self.window_nodes = tuple(map(float, values)) if _in_float_window(values) else values
        self._by_arith = {}

    def __getitem__(self, ar):
        got = self._by_arith.get(ar)
        if got is None:
            with self.tol.prec():
                p = [ar.num(v) for v in self.values]
                got = self._by_arith[ar] = (ar.num(self.tol.eps()), p, [ar.log(x) for x in p])
        return got


def _complex_det_rung(config: PointConfig, z, tol: ToleranceContext,
                      table: Optional[_NodeTable] = None):
    """det L_z at one precision and a bound on its error, both in the
    arithmetic ``ToleranceContext.complex_arith`` picks.

    Entry errors: p^z = exp(z log p) is off by about eps |p^z| (1 + |z log p|)
    (the rounding of z log p is magnified by the exponential), so an
    off-diagonal entry carries 4 eps ((|p_i^z| (1 + |z log p_i|) + |p_j^z|
    (1 + |z log p_j|)) / |p_i - p_j| + |entry|), and a diagonal entry
    z p^(z-1) carries 4 eps |entry| (1 + |(z-1) log p|).  The nodes are
    taken as held at working precision.  The bound is
    ``_lu_quick_bound`` when that accepts the value (lies under |det|), and
    ``_lu_relative_bound`` otherwise: the quick bound is never smaller, so
    the rung accepts what the inverse bound alone would, and the inverse
    still decides graded samples, where the quick bound is far too loose
    (nodes 1..8 at z = 60).  ``table`` is this precision's
    ``_NodeTable`` for ``config``; without one the call builds its own.
    The float rung is Python floats throughout: only a product of pivots
    beyond the float range reads mpmath's precision, which ``tol.prec()``
    holds at 53 bits.
    """
    if table is None:
        table = _NodeTable(config, tol)
    ar = tol.complex_arith(table.window_nodes, z)
    eps, p, logs = table[ar]
    with tol.prec():
        zz = ar.cnum(z)
        n = config.n
        w = [zz * lg for lg in logs]
        pz = [ar.cexp(v) for v in w]
        spread = [abs(v) * (1 + abs(u)) for v, u in zip(pz, w)]
        A = [[0] * n for _ in range(n)]
        err = [[0] * n for _ in range(n)]
        for i in range(n):
            u = (zz - 1) * logs[i]
            d = zz * ar.cexp(u)
            A[i][i] = d
            err[i][i] = 4 * eps * abs(d) * (1 + abs(u))
            for j in range(i + 1, n):
                gap = p[i] - p[j]
                v = (pz[i] - pz[j]) / gap
                A[i][j] = A[j][i] = v
                err[i][j] = err[j][i] = 4 * eps * ((spread[i] + spread[j]) / abs(gap) + abs(v))
        order, sign = _lu_factor(A)
        if not sign:
            return 0, 0
        det = _pivot_product(A, sign)
        mag = abs(det)
        bound = mag * _lu_quick_bound(A, order, err, eps)
        if not bound < mag:
            bound = mag * _lu_relative_bound(A, order, err, eps)
        return det, bound


def _complex_det_ladder(config: PointConfig, z, tol: ToleranceContext, tables: dict):
    """The value of the first rung of ``tol.rungs()`` that lies outside its
    bound, in that rung's arithmetic (a ``complex`` or an mpc), or 0 when no
    rung resolves it.  ``tables`` maps precision bits to that rung's
    ``_NodeTable`` and is filled as rungs are first reached, so a caller
    that keeps it computes the node work once."""
    for ctx in tol.rungs():
        table = tables.get(ctx.precision_bits)
        if table is None:
            table = tables[ctx.precision_bits] = _NodeTable(config, ctx)
        value, bound = _complex_det_rung(config, z, ctx, table)
        if abs(value) > bound:
            return value
    return 0


def complex_det(config: PointConfig, z, tol: ToleranceContext = DEFAULT_TOL) -> mpc:
    """det [(p_i^z - p_j^z)/(p_i - p_j)] with principal-branch powers.

    Diagonal entries take the limit z*p_i^(z-1).  The determinant comes
    from complex LU with partial pivoting and a first-order bound on its
    error (``_complex_det_rung``), on Python ``complex`` at 53 bits when
    ``ToleranceContext.complex_arith`` allows it and on mpc otherwise.  The
    value of the first rung of ``tol.rungs()`` that lies outside its bound
    is returned as an mpc (``_complex_det_ladder``, the ladder the zero scan
    runs); when no rung resolves it the result is 0, which the zero scan
    reads as a zero on its contour.  A non-finite z raises ValueError.
    """
    value = _complex_det_ladder(config, z, tol, {})
    return value if isinstance(value, mpc) else mpc(value)  # mpc(mpc) rounds


@dataclass(frozen=True)
class Rect:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(math.isfinite(v) for v in bounds):
            raise ValueError(f"rectangle bounds must be finite, got {bounds}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle must have positive extent")

    @property
    def center(self) -> complex:
        return complex((self.re_min + self.re_max) / 2, (self.im_min + self.im_max) / 2)

    def corners(self) -> list[complex]:
        return [complex(self.re_min, self.im_min), complex(self.re_max, self.im_min),
                complex(self.re_max, self.im_max), complex(self.re_min, self.im_max)]

    def split(self, ratio: float = 0.5) -> list["Rect"]:
        rs = self.re_min + ratio * (self.re_max - self.re_min)
        is_ = self.im_min + ratio * (self.im_max - self.im_min)
        return [Rect(self.re_min, rs, self.im_min, is_),
                Rect(rs, self.re_max, self.im_min, is_),
                Rect(self.re_min, rs, is_, self.im_max),
                Rect(rs, self.re_max, is_, self.im_max)]

    def inflated(self, factor: float) -> "Rect":
        cr = (self.re_min + self.re_max) / 2
        ci = (self.im_min + self.im_max) / 2
        hw = (self.re_max - self.re_min) / 2 * factor
        hh = (self.im_max - self.im_min) / 2 * factor
        return Rect(cr - hw, cr + hw, ci - hh, ci + hh)


@dataclass(frozen=True)
class ZeroCell:
    rect: Rect
    winding: int

    @property
    def center(self) -> complex:
        return self.rect.center


@dataclass(frozen=True)
class ComplexScanReport:
    region: Rect  # the rectangle the winding was counted on, inflated by each regrid
    total_winding: int
    regrids: int
    cells: tuple[ZeroCell, ...]


class _BoundaryZero(Exception):
    """A zero sits on (or too close to) the contour being integrated."""


def _phase(v) -> float:
    """arg v in (-pi, pi], through Python complex when v's magnitude fits."""
    c = complex(v)
    if _DET_FLOAT_MIN <= abs(c) <= _DET_FLOAT_MAX:
        return cmath.phase(c)
    return float(mp.arg(v))


# Halvings ``_arg_step`` makes of one step before it declares a boundary zero.
_MAX_BISECTIONS = 24


def _arg_step(phase, z0, a0, z1, a1, depth):
    """Change of arg f from z0 to z1, whose phases are a0 and a1, bisecting
    until each step turns by at most 2 radians; ``phase(z)`` is arg f(z)."""
    d = a1 - a0
    if d > math.pi:
        d -= 2 * math.pi
    elif d <= -math.pi:
        d += 2 * math.pi
    if abs(d) <= 2.0:
        return d
    if depth >= _MAX_BISECTIONS:
        raise _BoundaryZero
    zm = (z0 + z1) / 2
    am = phase(zm)
    return _arg_step(phase, z0, a0, zm, am, depth + 1) + _arg_step(phase, zm, am, z1, a1, depth + 1)


# Samples on each side of a contour before the adaptive bisection of ``_arg_step``.
_SAMPLES_PER_SIDE = 48


def _winding(phase, rect: Rect) -> int:
    corners = rect.corners()
    zs = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        for i in range(_SAMPLES_PER_SIDE):
            t = i / _SAMPLES_PER_SIDE
            zs.append(a + (b - a) * t)
    phases = [phase(z) for z in zs]
    total = 0.0
    m = len(zs)
    for i in range(m):
        total += _arg_step(phase, zs[i], phases[i], zs[(i + 1) % m], phases[(i + 1) % m], 0)
    w = total / (2 * math.pi)
    k = round(w)
    if abs(w - k) > 0.25:
        raise _BoundaryZero
    return k


def _subdivide(phase, rect: Rect, winding: int, depth: int) -> list[ZeroCell]:
    if winding == 0:
        return []
    if depth <= 0:
        return [ZeroCell(rect, winding)]
    for ratio in (0.5, 0.537, 0.463, 0.519):
        try:
            children = rect.split(ratio)
            ws = [_winding(phase, ch) for ch in children]
            if sum(ws) != winding:
                continue
            out = []
            for ch, w in zip(children, ws):
                out.extend(_subdivide(phase, ch, w, depth - 1))
            return out
        except _BoundaryZero:
            continue
    raise _BoundaryZero


# The finest cell of a scan spans at least this many ulps of the region's
# largest coordinate on each axis.
_MIN_CELL_ULPS = 2 ** 12
# log2 of how far the phase cache's lattice lies below the finest spacing
# a scan samples.
_LATTICE_MARGIN_BITS = 8


def _lattice_step(lo: float, hi: float, depth: int, grid) -> float:
    """Step of the phase cache's lattice along the region's axis [lo, hi].

    ValueError when a cell at ``depth`` would span fewer than
    ``_MIN_CELL_ULPS`` ulps of the axis's largest coordinate: the samples
    and bisections inside such a cell collapse onto a few floats, and the
    scan would run on without end.  The step is the largest power of two at
    least 2^``_LATTICE_MARGIN_BITS`` below the finest spacing the scan
    samples, a cell side over ``_SAMPLES_PER_SIDE`` and 2^``_MAX_BISECTIONS``
    (children split at 0.463 shrink that by at most a factor of 2^5 over
    the depths the bound allows), and at least the smallest float.
    """
    side = hi - lo
    if side == math.inf:
        raise ValueError(f"the region's side [{lo!r}, {hi!r}] overflows")
    room = side / (_MIN_CELL_ULPS * math.ulp(max(abs(lo), abs(hi))))
    finest = math.frexp(room)[1] - 1  # floor(log2 room): the deepest depth allowed
    if depth > finest:
        raise ValueError(
            f"the scan grid {grid!r} is too fine for the region: cells must span at least "
            f"{_MIN_CELL_ULPS} ulps of their coordinates, so [{lo!r}, {hi!r}] allows "
            f"a grid of at most 2^{finest}")
    spacing = math.ldexp(side, -depth - _MAX_BISECTIONS) / _SAMPLES_PER_SIDE
    return math.ldexp(1.0, max(math.frexp(spacing)[1] - 1 - _LATTICE_MARGIN_BITS, -1074))


def complex_zero_scan(config: PointConfig, region, grid: int,
                      tol: ToleranceContext = DEFAULT_TOL) -> ComplexScanReport:
    """Locate zeros of the complex determinant by argument-principle winding.

    The region is subdivided until cells shrink to ~1/grid of the region;
    cells with nonzero winding are reported with their winding count (the
    number of zeros inside, with multiplicity).  Boundary zeros trigger
    bounded re-gridding.  Absence of reported cells is evidence, not proof.

    The finest cell must span at least ``_MIN_CELL_ULPS`` = 4096 ulps of
    the region's largest coordinate on each axis (grid 2^39 at most on
    0.6..1.4), else ValueError before any sample: that bounds the work.
    Each geometric contour point is evaluated at most once per scan,
    regrids included.  Child contours recompute the points they share with
    their parent and siblings a few ulps apart, so the phase cache is keyed
    on a dyadic lattice (``_lattice_step``) far finer than any two distinct
    samples and each sample is evaluated at its lattice point; where the
    step is below the coordinates' ulp, the lattice points are the samples
    themselves.  The scan keeps one ``_NodeTable`` per rung for its whole
    run, so the node work is done once, not per sample.
    """
    if not grid >= 1:
        raise ValueError(f"the scan grid must be at least 1, got {grid!r}")
    rect = region if isinstance(region, Rect) else Rect(*region)
    depth = max(1, (math.ceil(grid) - 1).bit_length())  # ceil(log2 grid)
    sx = _lattice_step(rect.re_min, rect.re_max, depth, grid)
    sy = _lattice_step(rect.im_min, rect.im_max, depth, grid)
    tables = {}

    @functools.cache
    def sample(kx, ky):
        value = _complex_det_ladder(config, complex(kx * sx, ky * sy), tol, tables)
        if not value:
            raise _BoundaryZero
        return _phase(value)

    def phase(z):
        return sample(round(z.real / sx), round(z.imag / sy))

    for regrids in range(4):
        try:
            total = _winding(phase, rect)
            cells = _subdivide(phase, rect, total, depth)
            return ComplexScanReport(rect, total, regrids, tuple(cells))
        except _BoundaryZero:
            rect = rect.inflated(1.0 + 0.017 * (regrids + 1))
    raise ArithmeticError("a determinant zero stayed on the contour after re-gridding")


# ---------------------------------------------------------------------------
# Derivative action of matrix powers (entrywise multiplier form)


def dk_apply(config: PointConfig, r: Scalar, X: SymMatrix,
             tol: ToleranceContext = DEFAULT_TOL) -> SymMatrix:
    """Entrywise product L_r o X: the derivative of A -> A^r at diag(p) applied to X."""
    if X.order != config.n:
        raise ValueError(f"operand order {X.order} does not match {config.n} points")
    L = builders.loewner_matrix(config, r, tol)
    with tol.prec():
        return SymMatrix.build(
            config.n, lambda i, j: to_mpf(L.entries[i][j]) * to_mpf(X.entries[i][j]))


def dk_apply_function(config: PointConfig, f, fprime, X: SymMatrix,
                      tol: ToleranceContext = DEFAULT_TOL) -> SymMatrix:
    """Derivative action for a user-supplied scalar function.

    Multiplies X entrywise by the divided-difference matrix of ``f`` at the
    nodes, with ``fprime`` supplying the diagonal.  The callables receive and
    should return mpf values.
    """
    if X.order != config.n:
        raise ValueError(f"operand order {X.order} does not match {config.n} points")
    with tol.prec():
        p = config.mp_points()
        fv = [f(x) for x in p]

        def entry(i, j):
            if i == j:
                multiplier = fprime(p[i])
            else:
                multiplier = (fv[i] - fv[j]) / (p[i] - p[j])
            return multiplier * to_mpf(X.entries[i][j])

        return SymMatrix.build(config.n, entry)


# The dk verdict's relative slack, in residual tolerances: the sampled bound
# comes from eigensolves that stop at that tolerance.
_DK_SLACK = 1e3


@dataclass(frozen=True)
class NormProbe:
    """The sampled bound against the reference, and the verdict: the bound
    is at least the reference, and at most it too for 0 < r <= 1 (the
    ``equality_regime``), each within ``_DK_SLACK`` residual tolerances."""

    r: Scalar
    bound: object      # sampled lower bound on the derivative norm
    reference: object  # max_i |r p_i^(r-1)|, the norm of r A^(r-1)
    ratio: object
    samples: int
    seed: int
    equality_regime: bool
    ok: bool


def dk_norm_probe(config: PointConfig, r: Scalar, samples: int = 20, seed: int = 0,
                  tol: ToleranceContext = DEFAULT_TOL) -> NormProbe:
    """Sampled lower bound on the derivative norm against the reference.

    Maximizes the spectral norm of L_r o X over random unit-spectral-norm
    symmetric X, always including X = I (where the reference value is
    attained).  This is a lower bound by construction; equality with the
    reference is the behavior under test for 0 < r <= 1.  r = 0 raises
    ValueError: L_0 is the zero matrix.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    builders.refuse_zero_exponent(r)
    n = config.n
    rng = random.Random(seed)
    with tol.prec():  # each scale, the margins and the verdict at the working precision
        p = config.mp_points()
        rr = to_mpf(r)
        reference = max(abs(rr) * x ** (rr - 1) for x in p)

        def spectral(S: SymMatrix):
            return eig_sym(S, tol).scale

        ident = SymMatrix.diagonal([1] * n)
        bound = spectral(dk_apply(config, r, ident, tol))
        for _ in range(samples):
            raw = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
            X = SymMatrix.build(n, lambda i, j: mpf(raw[i][j]))
            nx = spectral(X)
            if nx == 0:
                continue
            Xu = SymMatrix.build(n, lambda i, j: to_mpf(X.entries[i][j]) / nx)
            bound = max(bound, spectral(dk_apply(config, r, Xu, tol)))
        margin = to_mpf(tol.residual_tol) * _DK_SLACK
        equality_regime = 0 < r <= 1
        ok = bound >= reference * (1 - margin) and (
            not equality_regime or bound <= reference * (1 + margin))
        ratio = bound / reference
    return NormProbe(r, bound, reference, ratio, samples, seed, equality_regime, ok)


# ---------------------------------------------------------------------------
# Power-sum matrix comparison


@dataclass(frozen=True)
class PrCompareReport:
    r: Scalar
    power_sum: InertiaReport
    loewner: InertiaReport

    @property
    def match(self) -> bool:
        return self.power_sum.consensus == self.loewner.consensus

    @property
    def inertia_power_sum(self) -> Inertia:
        return self.power_sum.consensus

    @property
    def inertia_loewner(self) -> Inertia:
        return self.loewner.consensus


def pr_compare(config: PointConfig, r: Scalar,
               tol: ToleranceContext = DEFAULT_TOL) -> PrCompareReport:
    """Compare the inertia of [(p_i+p_j)^r] with that of L_{r+1}, each matrix
    rebuilt at every rung of the ladder.  Wherever ``exact_route_hint`` gives
    (q, m), each side has an exact twin over Z: L_{m+1}'s is
    ``builders.loewner_twin``, and the power-sum side's is [(q_i+q_j)^m] on
    the integer nodes q = c p, c^m times the matrix at p.  So that matrix,
    singular of rank m + 1 when m + 1 < n, settles on the first rung whose
    float routes agree with the exact count instead of climbing to the top
    one."""
    if not r > 0:
        raise ValueError(f"exponent must be positive, got {r!r}")
    hint = exact_route_hint(config, Exponent.of(r))
    twin = hint and [[(a + b) ** hint[1] for b in hint[0]] for a in hint[0]]
    p_rep, _, _ = _settle(lambda ctx: builders.power_sum_matrix(config, r, ctx), tol, twin)
    return PrCompareReport(r, p_rep, _settle_loewner(config, r + 1, tol)[0])
