"""Zero counting for divided-difference combinations, sign-regularity scans,
compound matrices, determinant identities, complex determinant zeros, the
derivative action of matrix powers, and the power-sum comparison.

Determinants of non-rational matrices come from one LU with partial
pivoting (``_lu_factor``), written once for floats, complex, mpf and mpc.
The complex determinant ``complex_det`` runs it on Python ``complex`` at 53
bits when the nodes, z and every |p^z| lie in the float window
(``ToleranceContext.complex_arith``), and on mpc otherwise, and pairs each
value with a first-order bound on its error: the backward error of the
factorisation plus the rounding of the entries (``_lu_relative_bound``).
A value inside its bound is retried one rung up the precision ladder, at
most ``inertia.MAX_ESCALATIONS`` times, and comes out as 0 when no rung
resolves it; the argument-principle scan reads a 0 as a zero on its
contour and re-grids.
"""

from __future__ import annotations

import cmath
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
from .builders import LoewnerSpec
from .exact import det_fraction
from .inertia import MAX_ESCALATIONS, InertiaReport, consensus_inertia, eig_sym, exact_route_hint
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
    """Interval and grid policy for the sign scan (None fields use defaults)."""

    x_min: Optional[float] = None
    x_max: Optional[float] = None
    grid: Optional[int] = None
    refine_levels: int = 3
    refine_points: int = 8


@dataclass(frozen=True)
class ZeroCountReport:
    count: int
    brackets: tuple
    ambiguous: tuple
    grid: int


def count_zeros(f: ComboFunction, scan: Optional[ScanPolicy] = None,
                tol: ToleranceContext = DEFAULT_TOL) -> ZeroCountReport:
    """Count strict sign changes of the combination on a geometric grid.

    Values within their own roundoff bound are refined locally (up to
    refine_levels); whatever stays unresolved is reported as ambiguous
    rather than guessed.  Changes are only counted between strictly
    classified values, so the count never exceeds the true zero count.
    At 53 bits the grid and the values are computed in Python floats when
    the inputs allow it (see ``_combo_terms``).
    """
    scan = scan or ScanPolicy()
    with tol.prec():
        pts = f.config.points
        a = mpf(scan.x_min) if scan.x_min is not None else mpf(min(pts)) / 100
        b = mpf(scan.x_max) if scan.x_max is not None else mpf(max(pts)) * 100
        if not 0 < a < b:
            raise ValueError("scan interval must satisfy 0 < x_min < x_max")
        N = scan.grid if scan.grid is not None else tol.grid_points
        ar, r, m, terms = _combo_terms(f, (a, b), tol)
        a, b = ar.num(a), ar.num(b)
        bound_factor = (16 + f.config.n) * ar.num(tol.eps())

        memo: dict = {}

        def classify(x):
            s = memo.get(x)
            if s is None:
                v, bound = _combo_value_bound(x, terms, r, m, ar, bound_factor)
                s = 0 if abs(v) <= bound else (1 if v > 0 else -1)
                memo[x] = s
            return s

        la, lb = ar.log(a), ar.log(b)
        xs = [ar.exp(la + (lb - la) * i / (N - 1)) for i in range(N)]
        unresolved = []

        def refine(lo, hi, level):
            llo, lhi = ar.log(lo), ar.log(hi)
            k = scan.refine_points
            inner = [ar.exp(llo + (lhi - llo) * (i + 1) / (k + 1)) for i in range(k)]
            cls = [(x, classify(x)) for x in inner]
            pts_loc = [lo] + inner + [hi]
            for idx, (x, s) in enumerate(cls):
                if s == 0:
                    if level >= scan.refine_levels:
                        unresolved.append(x)
                    else:
                        refine(pts_loc[idx], pts_loc[idx + 2], level + 1)

        for i, x in enumerate(xs):
            if classify(x) == 0:
                lo = xs[i - 1] if i > 0 else xs[0]
                hi = xs[i + 1] if i < N - 1 else xs[N - 1]
                if lo < hi:
                    refine(lo, hi, 1)
                else:
                    unresolved.append(x)

        strict = sorted((x, s) for x, s in memo.items() if s != 0)
        count = 0
        brackets = []
        prev_x = prev_s = None
        for x, s in strict:
            if prev_s is not None and s != prev_s:
                count += 1
                brackets.append((float(prev_x), float(x)))
            prev_x, prev_s = x, s
        amb = tuple(sorted({float(x) for x in unresolved}))
        return ZeroCountReport(count, tuple(brackets), amb, N)


# ---------------------------------------------------------------------------
# LU factorisation with partial pivoting, on any of the arithmetics


def _lu_factor(A) -> tuple[list, int]:
    """Factor the square matrix A (row lists, entries all of one arithmetic:
    float, complex, mpf or mpc) in place as P A = L U, with partial pivoting.

    A ends holding U on and above the diagonal and the multipliers of the
    unit lower triangle L below it, its rows in pivot order, so det A is
    sign * prod U_kk.  Returns the original index of each row and the sign
    of P, or a sign of 0 when a whole pivot column is zero (A is singular
    and the factorisation stops there).
    """
    n = len(A)
    order = list(range(n))
    sign = 1
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(A[i][k]))
        if not A[p][k]:
            return order, 0
        if p != k:
            A[k], A[p] = A[p], A[k]
            order[k], order[p] = order[p], order[k]
            sign = -sign
        top = A[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = A[i]
            m = row[k] / pivot
            row[k] = m
            if m:
                for j in range(k + 1, n):
                    row[j] -= m * top[j]
    return order, sign


# A float product outside these magnitudes has overflowed or lost digits to
# underflow; it is then taken again in mpmath, which has no exponent limit.
_DET_FLOAT_MIN = 2.0 ** -1000
_DET_FLOAT_MAX = 2.0 ** 1000


def _pivot_product(F, sign):
    """det A = sign * prod U_kk from a finished factorisation: a float or
    complex when it lies in the float range, else an mpf or mpc at the
    working precision."""
    if not sign:
        return 0
    pivots = [F[k][k] for k in range(len(F))]
    det = math.prod(pivots, start=sign)
    if isinstance(det, (float, complex)) and not _DET_FLOAT_MIN <= abs(det) <= _DET_FLOAT_MAX:
        det = math.prod(map(mp.mpmathify, pivots), start=sign)
    return det


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


# ---------------------------------------------------------------------------
# Minors: sign-regularity scans and compound matrices


MatrixLike = Union[SymMatrix, Sequence[Sequence]]


def _as_rows(A: MatrixLike) -> tuple[tuple, ...]:
    """The rows of ``A``; ValueError on a NaN or infinite entry, which would
    otherwise come out as a minor sign."""
    rows = A.entries if isinstance(A, SymMatrix) else tuple(tuple(row) for row in A)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not (isinstance(v, Rational) or mpmath.isfinite(v)):
                raise ValueError(f"entry ({i},{j}) is not finite: {v!r}")
    return rows


def _det_any(rows, tol: ToleranceContext):
    """Determinant of a small matrix: exact for rational entries, LU otherwise.

    The LU runs on floats at 53 bits when the entries allow it and on mpf
    otherwise (not on ``decimal``: ``det-id`` prints these values in full,
    and decimal rounds them differently)."""
    if all(isinstance(e, Rational) for row in rows for e in row):
        return det_fraction(rows)
    with tol.prec():
        ar = FLOAT_ARITH if tol.arith(e for row in rows for e in row) is FLOAT_ARITH else MP_ARITH
        A = [[ar.num(e) for e in row] for row in rows]
        _, sign = _lu_factor(A)
        return mpf(_pivot_product(A, sign))


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
    if any(len(row) != n for row in rows):
        raise ValueError("sign-regularity scan needs a square matrix")
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
    if config.exact is not None:
        return config.exact, True
    return config.points, False


def det_closed_form_L3(config: PointConfig):
    """det L_3 for three nodes: -(p1-p2)^2 (p1-p3)^2 (p2-p3)^2."""
    (p1, p2, p3), is_exact = _three_nodes(config)
    v = -((p1 - p2) * (p1 - p3) * (p2 - p3)) ** 2
    return v if is_exact else mpf(v)


def det_closed_form_L4(config: PointConfig):
    """det L_4 for three nodes: -2 prod (p_i-p_j)^2 {(sum p)(sum pp) + p1 p2 p3}."""
    (p1, p2, p3), is_exact = _three_nodes(config)
    gaps = ((p1 - p2) * (p1 - p3) * (p2 - p3)) ** 2
    sym = (p1 + p2 + p3) * (p1 * p2 + p1 * p3 + p2 * p3) + p1 * p2 * p3
    v = -2 * gaps * sym
    return v if is_exact else mpf(v)


# ---------------------------------------------------------------------------
# The determinant as a function of a complex exponent


def _complex_det_rung(config: PointConfig, z, tol: ToleranceContext):
    """det L_z at one precision and a bound on its error, both in the
    arithmetic ``ToleranceContext.complex_arith`` picks.

    Entry errors: p^z = exp(z log p) is off by about eps |p^z| (1 + |z log p|)
    (the rounding of z log p is magnified by the exponential), so an
    off-diagonal entry carries 4 eps ((|p_i^z| (1 + |z log p_i|) + |p_j^z|
    (1 + |z log p_j|)) / |p_i - p_j| + |entry|), and a diagonal entry
    z p^(z-1) carries 4 eps |entry| (1 + |(z-1) log p|).  The nodes are
    taken as held at working precision.
    """
    with tol.prec():
        ar = tol.complex_arith(config.values(), z)
        eps = ar.num(tol.eps())
        p = [ar.num(v) for v in config.values()]
        zz = ar.cnum(z)
        n = config.n
        logs = [ar.log(x) for x in p]
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
        return det, abs(det) * _lu_relative_bound(A, order, err, eps)


def complex_det(config: PointConfig, z, tol: ToleranceContext = DEFAULT_TOL) -> mpc:
    """det [(p_i^z - p_j^z)/(p_i - p_j)] with principal-branch powers.

    Diagonal entries take the limit z*p_i^(z-1).  The determinant comes
    from complex LU with partial pivoting and a first-order bound on its
    error (``_complex_det_rung``), on Python ``complex`` at 53 bits when
    ``ToleranceContext.complex_arith`` allows it and on mpc otherwise.  The
    value of the first rung of the precision ladder (``escalated``, at most
    ``MAX_ESCALATIONS`` times) that lies outside its bound is returned as an
    mpc; when no rung resolves it the result is 0, which the zero scan reads
    as a zero on its contour.  A non-finite z raises ValueError.
    """
    ctx = tol
    for _ in range(MAX_ESCALATIONS + 1):
        value, bound = _complex_det_rung(config, z, ctx)
        if abs(value) > bound:
            return value if isinstance(value, mpc) else mpc(value)  # mpc(mpc) rounds
        ctx = ctx.escalated()
    return mpc(0)


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
    region: Rect
    total_winding: int
    cells: tuple[ZeroCell, ...]
    regrids: int


class _BoundaryZero(Exception):
    """A zero sits on (or too close to) the contour being integrated."""


def _phase(v) -> float:
    """arg v in (-pi, pi], through Python complex when v's magnitude fits."""
    c = complex(v)
    if _DET_FLOAT_MIN <= abs(c) <= _DET_FLOAT_MAX:
        return cmath.phase(c)
    return float(mp.arg(v))


def _arg_step(f, z0, a0, z1, a1, depth):
    """Change of arg f from z0 to z1, whose phases are a0 and a1, bisecting
    until each step turns by at most 2 radians."""
    d = a1 - a0
    if d > math.pi:
        d -= 2 * math.pi
    elif d <= -math.pi:
        d += 2 * math.pi
    if abs(d) <= 2.0:
        return d
    if depth >= 24:
        raise _BoundaryZero
    zm = (z0 + z1) / 2
    vm = f(zm)
    if vm == 0:
        raise _BoundaryZero
    am = _phase(vm)
    return _arg_step(f, z0, a0, zm, am, depth + 1) + _arg_step(f, zm, am, z1, a1, depth + 1)


def _winding(f, rect: Rect, samples: int) -> int:
    corners = rect.corners()
    zs = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        for i in range(samples):
            t = i / samples
            zs.append(a + (b - a) * t)
    vals = [f(z) for z in zs]
    if any(v == 0 for v in vals):
        raise _BoundaryZero
    phases = [_phase(v) for v in vals]
    total = 0.0
    m = len(zs)
    for i in range(m):
        total += _arg_step(f, zs[i], phases[i], zs[(i + 1) % m], phases[(i + 1) % m], 0)
    w = total / (2 * math.pi)
    k = round(w)
    if abs(w - k) > 0.25:
        raise _BoundaryZero
    return k


def _subdivide(f, rect: Rect, winding: int, depth: int, samples: int) -> list[ZeroCell]:
    if winding == 0:
        return []
    if depth <= 0:
        return [ZeroCell(rect, winding)]
    for ratio in (0.5, 0.537, 0.463, 0.519):
        try:
            children = rect.split(ratio)
            ws = [_winding(f, ch, samples) for ch in children]
            if sum(ws) != winding:
                continue
            out = []
            for ch, w in zip(children, ws):
                out.extend(_subdivide(f, ch, w, depth - 1, samples))
            return out
        except _BoundaryZero:
            continue
    raise _BoundaryZero


def complex_zero_scan(config: PointConfig, region, grid: int = 32,
                      tol: ToleranceContext = DEFAULT_TOL,
                      samples_per_side: int = 48) -> ComplexScanReport:
    """Locate zeros of the complex determinant by argument-principle winding.

    The region is subdivided until cells shrink to ~1/grid of the region;
    cells with nonzero winding are reported with their winding count (the
    number of zeros inside, with multiplicity).  Boundary zeros trigger
    bounded re-gridding.  Absence of reported cells is evidence, not proof.
    """
    rect = region if isinstance(region, Rect) else Rect(*region)
    depth = max(1, int(mpmath.ceil(mp.log(grid, 2))))

    def f(z):
        return complex_det(config, z, tol)

    regrids = 0
    last = None
    for attempt in range(4):
        try:
            total = _winding(f, rect, samples_per_side)
            cells = _subdivide(f, rect, total, depth, samples_per_side)
            return ComplexScanReport(rect, total, tuple(cells), regrids)
        except _BoundaryZero as exc:
            last = exc
            rect = rect.inflated(1.0 + 0.017 * (attempt + 1))
            regrids += 1
    raise ArithmeticError("a determinant zero stayed on the contour after re-gridding") from last


# ---------------------------------------------------------------------------
# Derivative action of matrix powers (entrywise multiplier form)


def dk_apply(config: PointConfig, r: Scalar, X: SymMatrix,
             tol: ToleranceContext = DEFAULT_TOL) -> SymMatrix:
    """Entrywise product L_r o X: the derivative of A -> A^r at diag(p) applied to X."""
    if X.order != config.n:
        raise ValueError(f"operand order {X.order} does not match {config.n} points")
    L = builders.loewner_matrix(LoewnerSpec.of(config, r), tol)
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


@dataclass(frozen=True)
class NormProbe:
    bound: object      # sampled lower bound on the derivative norm
    reference: object  # max_i |r p_i^(r-1)|, the norm of r A^(r-1)
    samples: int
    seed: int

    @property
    def ratio(self):
        return self.bound / self.reference


def dk_norm_probe(config: PointConfig, r: Scalar, samples: int = 20, seed: int = 0,
                  tol: ToleranceContext = DEFAULT_TOL) -> NormProbe:
    """Sampled lower bound on the derivative norm against the reference.

    Maximizes the spectral norm of L_r o X over random unit-spectral-norm
    symmetric X, always including X = I (where the reference value is
    attained).  This is a lower bound by construction; equality with the
    reference is the behavior under test for 0 < r <= 1.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n = config.n
    rng = random.Random(seed)
    with tol.prec():
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
        with tol.prec():
            Xu = SymMatrix.build(n, lambda i, j: to_mpf(X.entries[i][j]) / nx)
        bound = max(bound, spectral(dk_apply(config, r, Xu, tol)))
    return NormProbe(bound, reference, samples, seed)


# ---------------------------------------------------------------------------
# Power-sum matrix comparison


@dataclass(frozen=True)
class PrCompareReport:
    power_sum: InertiaReport
    loewner: InertiaReport
    match: bool

    @property
    def inertia_power_sum(self) -> Inertia:
        return self.power_sum.consensus

    @property
    def inertia_loewner(self) -> Inertia:
        return self.loewner.consensus


def pr_compare(config: PointConfig, r: Scalar,
               tol: ToleranceContext = DEFAULT_TOL) -> PrCompareReport:
    """Compare the inertia of [(p_i+p_j)^r] with that of L_{r+1}."""
    if not r > 0:
        raise ValueError(f"exponent must be positive, got {r!r}")
    P = builders.power_sum_matrix(config, r, tol)
    p_rep = consensus_inertia(P, tol)
    ex = Exponent.of(r + 1)
    L = builders.loewner_matrix(LoewnerSpec(config, ex), tol)
    l_rep = consensus_inertia(L, tol, exact_hint=exact_route_hint(config, ex))
    return PrCompareReport(p_rep, l_rep, p_rep.consensus == l_rep.consensus)
