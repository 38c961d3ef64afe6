"""Predicted inertia of L_r, conditional-definiteness probes on the moment
subspaces H_k, and the algebraic identities tying the matrix family together.
``verify_instance`` climbs the precision ladder of ``inertia`` toward the prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from . import builders
from .builders import LoewnerSpec
# perfbench's tracer test looks up ``inertia_report`` here.
from .inertia import _settle, exact_route_hint, inertia as inertia_report
from .types import (
    DEFAULT_TOL,
    Exponent,
    Inertia,
    PointConfig,
    Scalar,
    SymMatrix,
    ToleranceContext,
    to_mpf,
)


@dataclass(frozen=True)
class Prediction:
    """Predicted inertia plus the clause of the inertia theorem that fired."""

    inertia: Inertia
    rule: str  # "ii" | "iii" | "iv" | "reflection" | "zero"


def _integer_inertia(n: int, m: int) -> Inertia:
    """Clause (ii): inertia at integer exponents 1..n."""
    k = (m + 1) // 2
    if m % 2 == 0:
        return Inertia(k, n - m, k)
    return Inertia(k, n - m, k - 1)


def predicted_inertia(n: int, r: Scalar, allow_zero: bool = True) -> Prediction:
    """Inertia of the n x n Loewner matrix of t^r, by the inertia theorem.

    Integer 1 <= r <= n: (k, n-r, k) for r = 2k, (k, n-r, k-1) for r = 2k-1.
    Non-integer 0 < r < n: (n-k, 0, k) when floor(r) = 2k, (k, 0, n-k) when
    floor(r) = 2k-1.  Beyond n-1 the inertia freezes at the value for r = n.
    Negative r swaps the positive and negative counts.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if r == 0:
        if not allow_zero:
            raise ValueError("exponent 0 not allowed here (L_0 is the zero matrix)")
        return Prediction(Inertia(0, n, 0), "zero")
    if r < 0:
        return Prediction(predicted_inertia(n, -r).inertia.swapped(), "reflection")
    ex = Exponent.of(r)
    if ex.is_integer and ex.integer_value <= n:
        return Prediction(_integer_inertia(n, ex.integer_value), "ii")
    if not ex.is_integer and r < n:
        m = math.floor(r)
        k = (m + 1) // 2
        if m % 2 == 0:
            return Prediction(Inertia(n - k, 0, k), "iii")
        return Prediction(Inertia(k, 0, n - k), "iii")
    return Prediction(_integer_inertia(n, n), "iv")


@dataclass(frozen=True)
class VerifyReport:
    n: int
    r: Scalar
    predicted: Prediction
    computed: Inertia
    match: bool
    disagreement: bool
    precision_bits: int
    escalations: int


def verify_instance(config: PointConfig, r: Scalar,
                    tol: ToleranceContext = DEFAULT_TOL) -> VerifyReport:
    """Compare predicted inertia against the engine's consensus.

    Integer exponents run the exact rational route alongside the float
    routes (see ``exact_route_hint``).  Near-integer exponents start one
    rung up; from there ``inertia._settle`` climbs until the routes agree on
    the predicted inertia, and a non-match is declared when it gives up.
    """
    pred = predicted_inertia(config.n, r)
    ex = Exponent.of(r)
    near_integer = (not ex.is_integer) and abs(float(r) - round(float(r))) < 1e-6
    rep, ctx, escalations = _settle(
        lambda ctx: builders.loewner_matrix(LoewnerSpec(config, ex), ctx),
        tol.escalated() if near_integer else tol,
        exact_route_hint(config, ex), target=pred.inertia)
    match = not rep.disagreement and rep.consensus == pred.inertia
    return VerifyReport(config.n, r, pred, rep.consensus, match, rep.disagreement,
                        ctx.precision_bits, escalations)


def subspace_basis(config: PointConfig, k: int,
                   tol: ToleranceContext = DEFAULT_TOL) -> tuple[tuple, ...]:
    """Orthonormal basis of H_k = {x : sum p_i^j x_i = 0 for j < k} as n x (n-k) rows.

    Computed from an orthogonal factorization of the transposed k x n moment
    matrix; the trailing columns of the orthogonal factor span its null
    space.  Inertia under compression is basis-independent by Sylvester's
    law, so only orthonormality and the moment residual matter here.  It
    climbs ``tol.rungs()`` until the residual is within tolerance, else
    raises ArithmeticError.
    """
    n = config.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    for ctx in tol.rungs():
        with ctx.prec():
            moments = [[x ** j for x in config.mp_points()] for j in range(k)]
            Q, _ = mp.qr(mpmath.matrix(moments).T, mode='full')
            basis = tuple(tuple(Q[i, c] for c in range(k, n)) for i in range(n))
            worst = mpf(0)
            for j in range(k):
                row_norm = mp.sqrt(mp.fsum(v ** 2 for v in moments[j]))
                for c in range(n - k):
                    res = abs(mp.fsum(moments[j][i] * basis[i][c] for i in range(n)))
                    worst = max(worst, res / row_norm)
            if worst <= to_mpf(ctx.residual_tol):
                return basis
    raise ArithmeticError(
        f"moment residual {mp.nstr(worst, 5)} exceeds tolerance even after escalation"
    )


def conditional_inertia(config: PointConfig, r: Scalar, k: int,
                        tol: ToleranceContext = DEFAULT_TOL) -> Inertia:
    """Inertia of the compression of L_r onto H_k; the basis, L_r and the
    compression are rebuilt at each rung of the ladder."""
    n, m = config.n, config.n - k

    def build(ctx):
        Q = subspace_basis(config, k, ctx)
        with ctx.prec():
            L = builders.loewner_matrix(LoewnerSpec.of(config, r), ctx)
            LQ = [[mp.fsum(to_mpf(L.entries[i][t]) * Q[t][c] for t in range(n))
                   for c in range(m)] for i in range(n)]
            B = [[mp.fsum(Q[i][a] * LQ[i][c] for i in range(n))
                  for c in range(m)] for a in range(m)]
            return SymMatrix.build(m, lambda a, c: (B[a][c] + B[c][a]) / 2)

    return _settle(build, tol)[0].consensus


def prop21_check(config: PointConfig, r: Scalar,
                 tol: ToleranceContext = DEFAULT_TOL) -> bool:
    """True when L_r has at least one negative eigenvalue (guaranteed for r > 1)."""
    if not r > 1:
        raise ValueError(f"exponent must exceed 1, got {r!r}")
    if config.n < 2:
        raise ValueError("need at least two points")
    rep, _, _ = _settle(lambda ctx: builders.loewner_matrix(LoewnerSpec.of(config, r), ctx), tol)
    return rep.consensus.neg >= 1


@dataclass(frozen=True)
class IdentityResiduals:
    """Max relative residuals of the three matrix identities.

    reflection:      L_{-r} + D^{-r} L_r D^{-r} = 0
    sinh_congruence: L_r - Delta Lt_r Delta = 0   (p_i = e^{2 x_i})
    power_step:      L_r - (D^{r-1} E + D L_{r-2} D + E D^{r-1}) = 0
    """

    reflection: object
    sinh_congruence: object
    power_step: object
    power_step_exact: bool

    @property
    def max_residual(self):
        return max(self.reflection, self.sinh_congruence, self.power_step)


def _max_abs(rows):
    return max(abs(e) for row in rows for e in row)


def verify_identities(config: PointConfig, r: Scalar,
                      tol: ToleranceContext = DEFAULT_TOL) -> IdentityResiduals:
    """Evaluate the three identities and report max relative residuals.

    The power-step identity is evaluated in exact rational arithmetic when
    the nodes are rational and r is an integer >= 2 (the residual is then
    exactly zero or the identity is genuinely violated).
    """
    n = config.n
    ex = Exponent.of(r)
    with tol.prec():
        p = config.mp_points()
        rr = to_mpf(ex.r)
        L = builders.loewner_matrix(LoewnerSpec(config, ex), tol).entries
        Lm = builders.loewner_matrix(LoewnerSpec.of(config, -ex.r), tol).entries

        pinv_r = [x ** (-rr) for x in p]
        refl = _max_abs([
            [Lm[i][j] + pinv_r[i] * to_mpf(L[i][j]) * pinv_r[j] for j in range(n)]
            for i in range(n)
        ]) / _max_abs(Lm)

        xs = [mp.log(x) / 2 for x in p]
        Lt = builders.sinh_loewner(xs, ex, tol).entries
        delta = [x ** ((rr - 1) / 2) for x in p]
        scale_L = _max_abs(L)
        sinh_res = _max_abs([
            [to_mpf(L[i][j]) - delta[i] * to_mpf(Lt[i][j]) * delta[j] for j in range(n)]
            for i in range(n)
        ]) / scale_L

        if ex.is_integer and ex.integer_value >= 2 and config.exact is not None:
            m = ex.integer_value
            q = config.exact
            Le = builders.loewner_matrix_exact(config, m).entries
            Lm2 = builders.loewner_matrix_exact(config, m - 2).entries
            worst = max(
                abs(Le[i][j] - (q[i] ** (m - 1) + q[i] * Lm2[i][j] * q[j] + q[j] ** (m - 1)))
                for i in range(n) for j in range(n)
            )
            power_res = to_mpf(Fraction(worst)) / to_mpf(scale_L)
            return IdentityResiduals(refl, sinh_res, power_res, True)

        Lm2 = builders.loewner_matrix(LoewnerSpec.of(config, ex.r - 2), tol).entries
        pr1 = [x ** (rr - 1) for x in p]
        power_res = _max_abs([
            [to_mpf(L[i][j]) - (pr1[i] + p[i] * to_mpf(Lm2[i][j]) * p[j] + pr1[j])
             for j in range(n)]
            for i in range(n)
        ]) / scale_L
        return IdentityResiduals(refl, sinh_res, power_res, False)
