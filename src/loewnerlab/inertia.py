"""Inertia of symmetric matrices by three independent routes.

Route one computes eigenvalues and counts their signs, at every precision
by Householder tridiagonalization and implicit-shift QL, eigenvalues only
(see ``eig_sym``).  Route two runs a completely pivoted (Bunch-Parlett)
block congruence elimination with 1x1 and 2x2 pivots and counts pivot
signs, which preserves inertia by Sylvester's law.  Route three eliminates
the matrix's exact twin over the rationals, wherever the caller names one
(at every integer exponent on the nodes ``exact_route_hint`` gives).  A report
derives its verdicts from whichever routes ran and keeps the spectrum its
eigenvalue route classified.  ``_settle`` climbs the one precision ladder,
``ToleranceContext.rungs``, with one rung at ``VERDICT_RUNG_BITS`` = 128
between a lower start and the first doubling (53 -> 128 -> 256 -> 512 bits
from the default), and ``_settle_loewner`` is that ladder on L_r: every
Loewner verdict (verify, prop21, pr_compare's Loewner side, each sweep
point) runs it.  A float zero count never settles a rung: without the
exact route, a rung stops only on a consensus with no zero eigenvalue.  On
a ladder toward a target (``verify_instance``), a rung whose LDL count
misses it runs no eigenvalue route (see ``inertia``).

The two float routes are written once against ``ToleranceContext.arith``
and take whichever arithmetic it picks, unchanged:

- at 53 bits, Python floats when every entry lies in the float window
  (2^-200 .. 2^200 or zero), with the same roundings as 53-bit mpf, and
  mpmath otherwise;
- above 53 bits, the C ``decimal`` module with at least as many digits as
  the bits ask for, so every threshold keeps its meaning.  Its roundings are
  decimal ones, so eigenvalues sit within a few units of roundoff of
  mpmath's, not on the same bits.

The arithmetic is picked, and the entries converted into it, once per
matrix and context: ``SymMatrix._image`` keeps the arithmetic, the rows in
it and their norm (a matrix built on floats keeps those floats, its image
on floats), and each route copies that image (``_working_copy``).
Eigenvalues and residuals go back to mpf once, for the ``Spectrum``, which
is classified inside the context's precision; at 53 bits the eigenvalues
are classified as the floats they were computed in, which round as 53-bit
mpf does.  A NaN or infinite entry raises ValueError.  The exact route
(Fractions) shares nothing with them, and its answer does not depend on
precision, so the ladder computes it once, before its first rung, on the
twin its caller names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import mul
from typing import Callable, Optional

from mpmath import mp

from . import builders, exact
from .types import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_TOL,
    FLOAT_ARITH,
    Exponent,
    Inertia,
    PointConfig,
    Scalar,
    SymMatrix,
    ToleranceContext,
    VERDICT_RUNG_BITS,
    _in_float_window,
    to_mpf,
)

# Bunch-Parlett pivot constant: bounds element growth in the 1x1/2x2 choice.
_BP_ALPHA = (1 + math.sqrt(17)) / 8


class EigenConvergenceError(RuntimeError):
    """The eigenvalue route reached its step limit with the off-diagonal mass
    above tolerance."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues plus the off-diagonal mass the eigensolver left
    (of the tridiagonal's couplings after QL), and the same eigenvalues as
    floats when the eigensolver ran on floats (``inertia_from_spectrum``
    classifies those)."""

    eigenvalues: tuple
    offdiag_residual: object
    _float_eigenvalues: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def scale(self):
        """The largest eigenvalue magnitude: at one end, as they ascend."""
        return max(abs(self.eigenvalues[0]), abs(self.eigenvalues[-1]))


@dataclass(frozen=True)
class InertiaReport:
    """The routes' counts on one rung.  A rung ruled out by its target (see
    ``inertia``) ran no eigenvalue route: ``by_eigen`` and ``spectrum`` are
    None, and the report counts as a disagreement."""

    by_eigen: Optional[Inertia]
    by_ldl: Inertia
    by_exact: Optional[Inertia]
    spectrum: Optional[Spectrum]

    @property
    def consensus(self) -> Inertia:
        return self.by_exact if self.by_exact is not None else self.by_eigen

    @property
    def disagreement(self) -> bool:
        return self.by_ldl != self.by_eigen or self.by_exact not in (None, self.by_eigen)


def _working_copy(A: SymMatrix, tol: ToleranceContext):
    """A's image at ``tol`` (``SymMatrix._image``: the arithmetic, A's rows in
    it and their Frobenius norm; ValueError on a NaN or infinite entry), with
    the rows copied so that a route may work on them in place."""
    ar, rows, norm = A._image(tol)
    return ar, [list(row) for row in rows], norm


def _tridiagonal(M, n, ar):
    """The diagonal d and couplings e of a tridiagonal T = H M H^T, H
    orthogonal, for the exactly symmetric M: e[i] couples i and i + 1, and
    e[n - 1] = 0.

    Householder reflections H_m, from the last row up, each zero row m of
    the leading (m + 1) x (m + 1) block left of its subdiagonal entry
    (Golub & Van Loan, *Matrix Computations*, 4th ed., section 8.3).  Working
    from the last row suits Loewner matrices of increasing nodes, whose
    large entries lie at the lower right.  The rank-two update forms each
    entry as a - (v_i w_j + w_i v_j), which rounds alike at (i, j) and
    (j, i), so the block stays exactly symmetric.  No column is scaled
    first: ``decimal`` and mpmath cannot overflow, and squares of entries in
    the float window stay in the float range.
    """
    zero = ar.num(0)
    d, e = [zero] * n, [zero] * n
    B = M
    for m in range(n - 1, 1, -1):  # B's leading (m + 1) x (m + 1) block is left to reduce
        x = B[m][:m]
        d[m] = B[m][m]
        sigma = sum(map(mul, x, x))
        if not sigma:
            continue
        alpha = ar.sqrt(sigma)
        if x[-1] >= 0:
            alpha = -alpha
        e[m - 1] = alpha
        h = sigma - alpha * x[-1]  # v^T v / 2 for v = x - alpha e_(m-1); h >= sigma > 0
        v = x[:-1] + [x[-1] - alpha]
        p = [sum(map(mul, row, v)) / h for row in B[:m]]
        K = sum(map(mul, p, v)) / (2 * h)
        w = [a - K * b for a, b in zip(p, v)]
        B = [[a - (vi * wj + wi * vj) for a, vj, wj in zip(row, v, w)]
             for row, vi, wi in zip(B, v, w)]
    if n > 1:
        d[1], e[0] = B[1][1], B[1][0]
    d[0] = B[0][0]
    return d, e


def _ql(d, e, n, ar, skip, max_steps):
    """Implicit-shift QL on the tridiagonal (d, e) of ``_tridiagonal``, in
    place, eigenvalues only (Golub & Van Loan, section 8.3).

    For each index lo in turn, QL steps on the block from lo down to the
    first coupling at most ``skip`` (a deflated coupling) take e[lo] under
    ``skip``, which leaves d[lo] an eigenvalue.  A deflated coupling is left
    in place, unchanged: each step restores the one it used as scratch, so
    the off-diagonal mass of (d, e) when this returns is what the route
    left.  Each index gets at most ``max_steps`` steps; at that cap this
    returns at once, with its couplings above ``skip`` in place.

    Every divisor is nonzero in exact arithmetic: 2 e[lo] (above ``skip``),
    a shift denominator of magnitude at least 1, and each rotation's
    r = sqrt(f^2 + g^2) >= |f| > 0, where f = s e[i] with s nonzero and e[i]
    above ``skip``.  ``decimal`` and mpmath do not underflow.  On floats the
    squares underflow once f and g both lie under 2^-537, and r rounds to
    0; in that case only, r is formed again from f and g scaled by
    max(|f|, |g|), as ``hypot`` does, so every other rotation rounds as
    before.  Only f = g = 0 exactly, which needs s to have underflowed
    first, would still leave r = 0.
    """
    for lo in range(n):
        steps = 0
        while True:
            m = lo
            while m < n - 1 and abs(e[m]) > skip:
                m += 1
            if m == lo:
                break
            if steps == max_steps:
                return
            steps += 1
            kept = e[m]
            g = (d[lo + 1] - d[lo]) / (2 * e[lo])
            r = ar.sqrt(g * g + 1)
            g = d[m] - d[lo] + e[lo] / (g + r if g >= 0 else g - r)
            s = c = ar.num(1)
            p = ar.num(0)
            for i in range(m - 1, lo - 1, -1):
                f, b = s * e[i], c * e[i]
                r = ar.sqrt(f * f + g * g)
                if not r:  # floats only: f^2 and g^2 both underflowed
                    t = max(abs(f), abs(g))
                    r = t * ar.sqrt((f / t) ** 2 + (g / t) ** 2)
                e[i + 1] = r
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            d[lo] -= p
            e[lo] = g
            e[m] = kept


def eig_sym(A: SymMatrix, tol: ToleranceContext = DEFAULT_TOL,
            max_steps: int = 30) -> Spectrum:
    """Eigenvalues at working precision, on the arithmetic
    ``ToleranceContext.arith`` picks (floats, mpmath or ``decimal``); the
    eigenvalues are mpf either way.

    Householder reflections take A to a tridiagonal T (``_tridiagonal``) and
    implicit-shift QL finds T's eigenvalues (``_ql``), with at most
    ``max_steps`` QL steps per eigenvalue; Loewner matrices need at most
    about 5.  A coupling of magnitude at most residual_tol * |A|_F / (2n) is
    left alone, the residual is the mass of T's couplings left in place, and
    EigenConvergenceError is raised when the step limit leaves that mass
    above residual_tol * |A|_F.
    """
    n = A.order
    with tol.prec():
        ar, M, norm = _working_copy(A, tol)
        thresh = ar.num(tol.residual_tol) * norm
        diag, e = _tridiagonal(M, n, ar)
        _ql(diag, e, n, ar, thresh / (2 * n), max_steps)
        off = ar.sqrt(2 * ar.fsum(x * x for x in e))
        if off > thresh:
            raise EigenConvergenceError(
                f"off-diagonal mass {mp.nstr(ar.out(off), 5)} above "
                f"{mp.nstr(ar.out(thresh), 5)} after {max_steps} QL steps per eigenvalue "
                "(the step limit)"
            )
        diag.sort()
        return Spectrum(tuple(map(ar.out, diag)), ar.out(off),
                        tuple(diag) if ar is FLOAT_ARITH else None)


def inertia_from_spectrum(s: Spectrum, scale, tol: ToleranceContext = DEFAULT_TOL) -> Inertia:
    """Classify eigenvalues against the relative zero threshold
    zero_rel_tol * scale * n, formed and compared in mpf inside
    ``tol.prec()``, so at the context's precision whatever the caller's.

    With float eigenvalues at 53 bits, and the tolerance and scale in the
    float window, the threshold is formed and compared in floats: they round
    as 53-bit mpf does, so the verdicts are the same."""
    n = len(s.eigenvalues)
    with tol.prec():
        if (s._float_eigenvalues is not None and tol.precision_bits == DEFAULT_PRECISION_BITS
                and _in_float_window((tol.zero_rel_tol, scale))):
            lams = s._float_eigenvalues
            thresh = float(tol.zero_rel_tol) * float(scale) * n
        else:
            lams = s.eigenvalues
            thresh = to_mpf(tol.zero_rel_tol) * to_mpf(scale) * n
        pos = neg = zero = 0
        for lam in lams:
            if abs(lam) <= thresh:
                zero += 1
            elif lam > 0:
                pos += 1
            else:
                neg += 1
    return Inertia(pos, zero, neg)


def inertia_ldl(A: SymMatrix, tol: ToleranceContext = DEFAULT_TOL) -> Inertia:
    """Inertia from a Bunch-Parlett block congruence elimination.

    Complete pivoting: each step takes the largest diagonal entry of the
    trailing block as a 1x1 pivot when it is at least alpha times the
    largest off-diagonal entry, and otherwise the 2x2 block on that
    off-diagonal entry, whose determinant is then negative (one positive
    and one negative eigenvalue).  A 1x1 pivot counts toward pos or neg by
    its sign.  A trailing block whose norm has fallen below zero_rel_tol
    times the original norm is declared zero, which is how rank deficiency
    shows up in floating point; the same pass over the block finds the
    pivot candidates.  The update touches the upper triangle and mirrors
    it, so the block stays exactly symmetric.  Like ``eig_sym`` it runs on
    the arithmetic ``ToleranceContext.arith`` picks.
    """
    n = A.order
    with tol.prec():
        ar, M, norm = _working_copy(A, tol)
        negligible = ar.num(tol.zero_rel_tol) * norm
        alpha = ar.num(_BP_ALPHA)
        pos = neg = zero = 0
        k = 0
        while k < n:
            diag, off = [], []
            dmax = omax = ar.num(0)
            di = oi = oj = k
            for i in range(k, n):
                row = M[i]
                v = abs(row[i])
                diag.append(v)
                if v > dmax:
                    dmax, di = v, i
                for j in range(i + 1, n):
                    v = abs(row[j])
                    off.append(v)
                    if v > omax:
                        omax, oi, oj = v, i, j
            trail = ar.sqrt(ar.fsum(v * v for v in diag) + 2 * ar.fsum(v * v for v in off))
            if trail <= negligible:
                zero += n - k
                break
            if dmax >= alpha * omax:
                _swap_sym(M, k, di)
                d = M[k][k]
                if d > 0:
                    pos += 1
                else:
                    neg += 1
                col = M[k]
                for i in range(k + 1, n):
                    if col[i]:
                        fi = col[i] / d
                        row = M[i]
                        for j in range(i, n):
                            row[j] -= fi * col[j]
                            M[j][i] = row[j]
                k += 1
            else:
                _swap_sym(M, k, oi)
                _swap_sym(M, k + 1, oj)
                pos += 1
                neg += 1
                a, b, c = M[k][k], M[k][k + 1], M[k + 1][k + 1]
                det = a * c - b * b
                u, v = M[k], M[k + 1]
                for i in range(k + 2, n):
                    xi = (c * u[i] - b * v[i]) / det
                    yi = (a * v[i] - b * u[i]) / det
                    row = M[i]
                    for j in range(i, n):
                        row[j] -= xi * u[j] + yi * v[j]
                        M[j][i] = row[j]
                k += 2
        return Inertia(pos, zero, neg)


def _swap_sym(M, i, j):
    M[i], M[j] = M[j], M[i]
    for row in M:
        row[i], row[j] = row[j], row[i]


def exact_route_hint(config: PointConfig, exponent: Exponent) -> Optional[tuple]:
    """Whether a matrix of t^r at these nodes has an exact twin, and on what.

    It is ``(config, m)`` for every integer exponent m, with float nodes
    promoted to the binary rationals they already denote, and None otherwise.
    Each caller builds the twin of its own matrix from it, with plain
    quotients and powers over the rationals (never the float kernel), and
    hands it to ``_settle``.
    """
    if exponent.is_integer:
        return config.ensure_exact(), exponent.integer_value
    return None


def inertia(A: SymMatrix, tol: ToleranceContext = DEFAULT_TOL,
            target: Optional[Inertia] = None) -> InertiaReport:
    """Run the congruence and eigenvalue routes at ``tol``'s precision.

    Disagreement (the two routes differ) is data, not an error: the caller
    should raise precision.  The consensus is the eigenvalue route's; the
    exact route joins a report only in ``_settle``.  An LDL count other
    than a given ``target`` rules the rung out: no eigenvalue count could
    make both routes agree on a consensus equal to the target, so the
    eigenvalue route does not run, and the report is a disagreement.
    """
    by_ldl = inertia_ldl(A, tol)
    if target is not None and by_ldl != target:
        return InertiaReport(None, by_ldl, None, None)
    spec = eig_sym(A, tol)
    with tol.prec():  # the scale, too, at the rung's precision
        return InertiaReport(inertia_from_spectrum(spec, spec.scale, tol), by_ldl, None, spec)


def _settle(build: Callable[[ToleranceContext], SymMatrix],
            tol: ToleranceContext = DEFAULT_TOL,
            twin: Optional[Callable] = None,
            target: Optional[Inertia] = None) -> tuple[InertiaReport, ToleranceContext, int]:
    """The precision ladder: (report, context, escalations) of the rung it
    stopped at.  It starts at ``tol`` as the caller gave it, and each rung
    of ``tol.rungs(via=VERDICT_RUNG_BITS)`` (53 -> 128 -> 256 -> 512 bits
    from the default; a start at or above 128 bits climbs as it would
    without ``via``) builds the matrix with ``build(ctx)`` and runs
    ``inertia`` on it, until the routes agree on a consensus that has no
    zero eigenvalue unless the exact route ran, or the rungs run out: a
    float zero count only says that this precision did not resolve an
    eigenvalue.  Every rung's thresholds come from ``at_bits``, and the
    stop test is the same at each.  A rung ruled out by ``target`` (see
    ``inertia``) is a disagreement and climbs, as it would whatever its
    eigenvalues, so routes that agree have agreed on the target.  The
    ladder stays lazy, so the top rung is known only once it has run: when
    it was ruled out, ``inertia`` runs there again without the target, and
    an exhausted ladder still reports both routes and a spectrum.  An
    ``EigenConvergenceError`` below the top rung is a cue to climb; on the
    top rung it propagates.  This is the one place the exact route
    joins a report: ``twin``, when given, returns the Fraction rows of the
    matrix ``build`` makes; ``exact.rational_inertia`` runs once on them,
    before the first rung, and joins each rung's report.  (Private, so
    perfbench's tracer sees each ``inertia`` under the caller.)"""
    by_exact = exact.rational_inertia(twin()) if twin is not None else None
    for escalations, ctx in enumerate(tol.rungs(via=VERDICT_RUNG_BITS)):
        A = build(ctx)
        try:
            rep = replace(inertia(A, ctx, target), by_exact=by_exact)
        except EigenConvergenceError as exc:
            failure = exc
            continue
        failure = None
        if not rep.disagreement and (by_exact is not None or rep.consensus.zero == 0):
            break
    if failure is not None:
        raise failure
    if rep.spectrum is None:
        rep = replace(inertia(A, ctx), by_exact=by_exact)
    return rep, ctx, escalations


def _settle_loewner(config: PointConfig, r: Scalar, tol: ToleranceContext = DEFAULT_TOL,
                    target: Optional[Inertia] = None):
    """``_settle`` on the Loewner matrix of t^r at these nodes, rebuilt at each
    rung, with ``builders.loewner_matrix_exact`` as its twin wherever
    ``exact_route_hint`` gives one."""
    hint = exact_route_hint(config, Exponent.of(r))
    twin = hint and (lambda: builders.loewner_matrix_exact(*hint).entries)
    return _settle(lambda ctx: builders.loewner_matrix(config, r, ctx), tol, twin, target)


def consensus_inertia(A: SymMatrix, tol: ToleranceContext = DEFAULT_TOL,
                      twin: Optional[Callable] = None) -> InertiaReport:
    """Inertia report of the already built A, escalating the routes' precision
    (not A's) until they agree; ``_settle`` rebuilds a matrix per rung.
    ``twin`` returns A's exact Fraction rows, as in ``_settle``."""
    return _settle(lambda ctx: A, tol, twin)[0]
