"""Inertia of symmetric matrices by three independent routes.

Route one diagonalizes with cyclic orthogonal (Jacobi) rotations and counts
eigenvalue signs.  Route two runs a completely pivoted (Bunch-Parlett)
block congruence elimination with 1x1 and 2x2 pivots and counts pivot
signs, which preserves inertia by Sylvester's law.  Route three, available
for integer exponents with rational nodes, diagonalizes the exact rational
matrix.  A report reconciles whichever routes ran and keeps the spectrum
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
them, and its answer does not depend on precision, so an ``ExactHint``
computes it once for all rungs of the ladder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
    consensus: Inertia
    disagreement: bool
    spectrum: Spectrum


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
    ex = Exponent.of(r)
    if not ex.is_integer:
        raise ValueError(f"exact route needs an integer exponent, got {r!r}")
    if ex.integer_value < 1:
        raise ValueError(f"exact route needs an exponent >= 1, got {r!r}")
    if config.exact is None:
        raise ValueError("exact route needs rational nodes")
    L = builders.loewner_matrix_exact(config, ex.integer_value)
    return exact.rational_inertia(L.entries)


class ExactHint(tuple):
    """The ``(config, r)`` pair of the exact route, which computes that route's
    inertia at most once.

    The exact inertia does not depend on the working precision, so every
    attempt of an escalation ladder that passes the same hint reuses it.
    """

    def __new__(cls, config: PointConfig, r: int):
        return super().__new__(cls, (config, r))

    @functools.cached_property
    def inertia(self) -> Inertia:
        return inertia_exact_integer(*self)


def _as_exact_hint(exact_hint) -> Optional[ExactHint]:
    if exact_hint is None or isinstance(exact_hint, ExactHint):
        return exact_hint
    return ExactHint(*exact_hint)


def exact_route_hint(config: PointConfig, exponent: Exponent) -> Optional[ExactHint]:
    """The ``exact_hint`` for the Loewner matrix of t^r at these nodes.

    It is set for integer r >= 1, with float nodes promoted to the binary
    rationals they already denote, and None for every other exponent.
    """
    if exponent.is_integer and exponent.integer_value >= 1:
        return ExactHint(config.ensure_exact(), exponent.integer_value)
    return None


def inertia(A: SymMatrix, tol: ToleranceContext = DEFAULT_TOL,
            exact_hint: Optional[tuple[PointConfig, int]] = None) -> InertiaReport:
    """Run the eigenvalue and congruence routes (plus exact, when hinted).

    Disagreement is data, not an error: the caller should raise precision.
    When routes disagree the consensus field holds the most trustworthy one
    (exact if present, else the eigenvalue route).  An ``ExactHint`` (as
    ``exact_route_hint`` returns) runs the exact route only on its first use.
    """
    spec = eig_sym(A, tol)
    scale = spec.scale
    by_eigen = inertia_from_spectrum(spec, scale, tol)
    by_ldl = inertia_ldl(A, tol)
    hint = _as_exact_hint(exact_hint)
    by_exact = hint.inertia if hint is not None else None
    routes = [by_eigen, by_ldl] + ([by_exact] if by_exact is not None else [])
    agreed = all(x == routes[0] for x in routes)
    consensus = by_exact if by_exact is not None else by_eigen
    return InertiaReport(by_eigen, by_ldl, by_exact, consensus, not agreed, spec)


def _settle(build: Callable[[ToleranceContext], SymMatrix],
            tol: ToleranceContext = DEFAULT_TOL,
            exact_hint: Optional[tuple[PointConfig, int]] = None,
            target: Optional[Inertia] = None) -> tuple[InertiaReport, ToleranceContext, int]:
    """The precision ladder: (report, context, escalations) of the rung it
    stopped at.  Each rung of ``tol.rungs()`` builds the matrix with
    ``build(ctx)`` and runs ``inertia`` on it, until the routes agree on a
    consensus equal to ``target`` (if given) or the rungs run out.  The
    exact route runs once, whatever the number of rungs.  (Private, so that
    perfbench's tracer sees each rung's ``inertia`` call under the caller.)"""
    hint = _as_exact_hint(exact_hint)
    for escalations, ctx in enumerate(tol.rungs()):
        rep = inertia(build(ctx), ctx, exact_hint=hint)
        if not rep.disagreement and (target is None or rep.consensus == target):
            break
    return rep, ctx, escalations


def consensus_inertia(A: SymMatrix, tol: ToleranceContext = DEFAULT_TOL,
                      exact_hint: Optional[tuple[PointConfig, int]] = None) -> InertiaReport:
    """Inertia report of the already built A, escalating the routes' precision
    (not A's) until they agree; ``_settle`` rebuilds a matrix per rung."""
    return _settle(lambda ctx: A, tol, exact_hint)[0]
