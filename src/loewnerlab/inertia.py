"""Inertia of symmetric matrices by three independent routes.

Route one diagonalizes with cyclic orthogonal (Jacobi) rotations and counts
eigenvalue signs.  Route two runs a completely pivoted (Bunch-Parlett)
block congruence elimination with 1x1 and 2x2 pivots and counts pivot
signs, which preserves inertia by Sylvester's law.  Route three, available
at every integer exponent, eliminates the exact rational matrix.  A report
derives its verdicts from whichever routes ran and keeps the spectrum
its eigenvalue route classified.  ``_settle`` climbs the one precision
ladder, ``ToleranceContext.rungs``.

The two float routes are written once against ``ToleranceContext.arith``
and take whichever arithmetic it picks, unchanged:

- at 53 bits, Python floats when every entry lies in the float window
  (2^-200 .. 2^200 or zero), with the same roundings as 53-bit mpf, and
  mpmath otherwise;
- above 53 bits, the C ``decimal`` module with at least as many digits as
  the bits ask for, so every threshold keeps its meaning.  Its roundings are
  decimal ones, so eigenvalues sit within a few units of roundoff of
  mpmath's, not on the same bits.

Entries are converted into the arithmetic once per route, and eigenvalues
and residuals back to mpf once, for the ``Spectrum``.  A NaN or infinite
entry raises ValueError.  The exact route (Fractions) shares nothing with
them, and its answer does not depend on precision, so the ladder computes
it once, before its first rung, for every integer exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from mpmath import mp

from . import builders, exact
from .types import (
    DEFAULT_TOL,
    Exponent,
    Inertia,
    PointConfig,
    SymMatrix,
    ToleranceContext,
    to_mpf,
)

# Bunch-Parlett pivot constant: bounds element growth in the 1x1/2x2 choice.
_BP_ALPHA = (1 + math.sqrt(17)) / 8


class EigenConvergenceError(RuntimeError):
    """Rotation sweeps failed to drive the off-diagonal mass under tolerance."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues plus the eigensolver's final off-diagonal mass."""

    eigenvalues: tuple
    offdiag_residual: object

    @property
    def scale(self):
        return max(abs(e) for e in self.eigenvalues)


@dataclass(frozen=True)
class InertiaReport:
    by_eigen: Inertia
    by_ldl: Inertia
    by_exact: Optional[Inertia]
    spectrum: Spectrum

    @property
    def consensus(self) -> Inertia:
        return self.by_exact if self.by_exact is not None else self.by_eigen

    @property
    def disagreement(self) -> bool:
        return self.by_ldl != self.by_eigen or self.by_exact not in (None, self.by_eigen)


def _offdiag_mass(A, n, ar):
    return ar.sqrt(ar.fsum(A[i][j] * A[i][j] for i in range(n) for j in range(n) if i != j))


def _working_copy(A: SymMatrix, tol: ToleranceContext):
    """The arithmetic for A (ValueError on a NaN or infinite entry), A's
    entries in it, and its Frobenius norm."""
    ar = tol.arith(e for row in A.entries for e in row)
    M = [[ar.num(e) for e in row] for row in A.entries]
    return ar, M, ar.sqrt(ar.fsum(v * v for row in M for v in row))


def eig_sym(A: SymMatrix, tol: ToleranceContext = DEFAULT_TOL,
            max_sweeps: int = 30) -> Spectrum:
    """Eigenvalues by cyclic Jacobi rotations at working precision.

    Sweeps rotate every off-diagonal pair in fixed order until the
    off-diagonal Frobenius mass drops below residual_tol times the matrix
    norm.  Convergence is quadratic once the mass is small, so the sweep
    bound is generous; hitting it signals that the precision is too low
    for the requested tolerance.  The rotations run on the arithmetic
    ``ToleranceContext.arith`` picks (floats at 53 bits when the entries
    allow it, ``decimal`` above 53 bits); the eigenvalues are mpf either way.
    """
    n = A.order
    with tol.prec():
        ar, M, norm = _working_copy(A, tol)
        thresh = ar.num(tol.residual_tol) * norm
        off = _offdiag_mass(M, n, ar)
        sweeps = 0
        while off > thresh:
            if sweeps >= max_sweeps:
                raise EigenConvergenceError(
                    f"off-diagonal mass {mp.nstr(ar.out(off), 5)} above "
                    f"{mp.nstr(ar.out(thresh), 5)} after {max_sweeps} sweeps (precision too low?)"
                )
            skip = thresh / (2 * n)
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = M[p][q]
                    if abs(apq) <= skip:
                        continue
                    theta = (M[q][q] - M[p][p]) / (2 * apq)
                    t = 1 / (abs(theta) + ar.sqrt(1 + theta * theta))
                    if theta < 0:
                        t = -t
                    c = 1 / ar.sqrt(1 + t * t)
                    s = t * c
                    for k in range(n):
                        akp = M[k][p]
                        akq = M[k][q]
                        M[k][p] = c * akp - s * akq
                        M[k][q] = s * akp + c * akq
                    for k in range(n):
                        apk = M[p][k]
                        aqk = M[q][k]
                        M[p][k] = c * apk - s * aqk
                        M[q][k] = s * apk + c * aqk
            sweeps += 1
            off = _offdiag_mass(M, n, ar)
        return Spectrum(tuple(sorted(ar.out(M[i][i]) for i in range(n))), ar.out(off))


def inertia_from_spectrum(s: Spectrum, scale, tol: ToleranceContext = DEFAULT_TOL) -> Inertia:
    """Classify eigenvalues against the relative zero threshold."""
    n = len(s.eigenvalues)
    thresh = to_mpf(tol.zero_rel_tol) * to_mpf(scale) * n
    pos = neg = zero = 0
    for lam in s.eigenvalues:
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


def inertia_exact_integer(config: PointConfig, r: int) -> Inertia:
    """Exact inertia of the integer-exponent Loewner matrix over the rationals."""
    return exact.rational_inertia(builders.loewner_matrix_exact(config, r).entries)


def exact_route_hint(config: PointConfig, exponent: Exponent) -> Optional[tuple]:
    """The ``exact_hint`` for the Loewner matrix of t^r at these nodes.

    It is ``(config, m)`` for every integer exponent m, with float nodes
    promoted to the binary rationals they already denote, and None otherwise.
    """
    if exponent.is_integer:
        return config.ensure_exact(), exponent.integer_value
    return None


def inertia(A: SymMatrix, tol: ToleranceContext = DEFAULT_TOL,
            exact_hint: Optional[tuple[PointConfig, int]] = None) -> InertiaReport:
    """Run the eigenvalue and congruence routes (plus exact, when hinted).

    Disagreement (the routes that ran differ) is data, not an error: the
    caller should raise precision.  The consensus is the most trustworthy
    route (exact if it ran, else eigenvalues).  Each call runs the exact
    route once, on ``exact_hint`` as ``exact_route_hint`` returns it.
    """
    spec = eig_sym(A, tol)
    by_eigen = inertia_from_spectrum(spec, spec.scale, tol)
    by_ldl = inertia_ldl(A, tol)
    by_exact = inertia_exact_integer(*exact_hint) if exact_hint is not None else None
    return InertiaReport(by_eigen, by_ldl, by_exact, spec)


def _settle(build: Callable[[ToleranceContext], SymMatrix],
            tol: ToleranceContext = DEFAULT_TOL,
            exact_hint: Optional[tuple[PointConfig, int]] = None,
            target: Optional[Inertia] = None) -> tuple[InertiaReport, ToleranceContext, int]:
    """The precision ladder: (report, context, escalations) of the rung it
    stopped at.  Each rung of ``tol.rungs()`` builds the matrix with
    ``build(ctx)`` and runs ``inertia`` on it, until the routes agree on a
    consensus equal to ``target`` (if given) or the rungs run out.  The
    exact route runs once, before the first rung, and joins each report.
    (Private, so perfbench's tracer sees each ``inertia`` under the caller.)"""
    by_exact = inertia_exact_integer(*exact_hint) if exact_hint is not None else None
    for escalations, ctx in enumerate(tol.rungs()):
        rep = replace(inertia(build(ctx), ctx), by_exact=by_exact)
        if not rep.disagreement and (target is None or rep.consensus == target):
            break
    return rep, ctx, escalations


def consensus_inertia(A: SymMatrix, tol: ToleranceContext = DEFAULT_TOL,
                      exact_hint: Optional[tuple[PointConfig, int]] = None) -> InertiaReport:
    """Inertia report of the already built A, escalating the routes' precision
    (not A's) until they agree; ``_settle`` rebuilds a matrix per rung."""
    return _settle(lambda ctx: A, tol, exact_hint)[0]
