"""Predicted inertia of L_r, its inertia on the moment subspaces H_k (read off
a bordered matrix, so no basis of H_k is formed), and the algebraic
identities tying the matrix family together.  Every verdict here climbs the
one precision ladder of ``inertia``; ``verify_instance`` climbs it toward
the prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from . import builders
# perfbench's tracer test looks up ``inertia_report`` here.
from .inertia import _settle, _settle_loewner, exact_route_hint, inertia as inertia_report
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


def predicted_inertia(n: int, r: Scalar) -> Prediction:
    """Inertia of the n x n Loewner matrix of t^r, by the inertia theorem.

    Integer 1 <= r <= n: (k, n-r, k) for r = 2k, (k, n-r, k-1) for r = 2k-1.
    Non-integer 0 < r < n: (n-k, 0, k) when floor(r) = 2k, (k, 0, n-k) when
    floor(r) = 2k-1.  Beyond n-1 the inertia freezes at the value for r = n.
    Negative r swaps the positive and negative counts.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if r == 0:
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

    The Loewner ladder ``inertia._settle_loewner`` starts at ``tol``, the
    caller's own rung, and climbs until the routes agree on the predicted
    inertia (53 -> 128 -> 256 -> 512 bits from the default start, so
    ``escalations`` is at most 3); a non-match is declared when it gives
    up.  Integer exponents run the exact rational route alongside the float
    routes (see ``exact_route_hint``).  r = 0 raises ValueError: L_0 is the
    zero matrix.
    """
    builders.refuse_zero_exponent(r)
    pred = predicted_inertia(config.n, r)
    rep, ctx, escalations = _settle_loewner(config, r, tol, target=pred.inertia)
    match = not rep.disagreement and rep.consensus == pred.inertia
    return VerifyReport(config.n, r, pred, rep.consensus, match, rep.disagreement,
                        ctx.precision_bits, escalations)


def _bordered(L, C) -> list[list]:
    """The rows of K = [[L, C^T], [C, 0]] for the n x n rows L and the k x n
    rows C, in whatever arithmetic they carry."""
    top = [list(row) + list(col) for row, col in zip(L, zip(*C))]
    return top + [list(c) + [0] * len(C) for c in C]


def _bordered_twin(q: tuple[int, ...], m: int, k: int) -> list[list[int]]:
    """K's exact twin over Z, on the integer nodes q = c p of
    ``exact_route_hint``: ``builders.loewner_twin(q, m)`` bordered by the
    moment rows q_i^j (j < k), each times q_i^|m| when m < 0.  Both steps
    are block-diagonal positive congruences of K at p (the second undoes
    the reflection D^|m| L_m D^|m| = -L_|m|)."""
    s = max(-m, 0)
    return _bordered(builders.loewner_twin(q, m), [[x ** (j + s) for x in q] for j in range(k)])


def conditional_inertia(config: PointConfig, r: Scalar, k: int,
                        tol: ToleranceContext = DEFAULT_TOL) -> Inertia:
    """Inertia of L_r on H_k = {x : sum p_i^j x_i = 0 for j < k}.

    Read off the bordered matrix K = [[L_r, C^T], [C, 0]], C the k x n
    moment matrix p_i^j (j < k), which has full row rank for distinct nodes
    and k < n, so In(K) = In(L_r on H_k) + (k, 0, k) (Chabrillac & Crouzeix,
    LAA 63, 1984; Maddocks, LAA 108, 1988) and no basis of H_k is formed.
    ``_settle`` climbs its ladder on K, rebuilt at each rung.  Each moment
    row is multiplied by the power of two that puts its largest entry at
    max|L_r|: a positive diagonal congruence, exact in binary, that keeps
    the border from dwarfing or vanishing beside L_r, so the float routes
    resolve K's small eigenvalues at lower precision.  Wherever
    ``exact_route_hint`` gives (q, m), K's twin is ``_bordered_twin(q, m, k)``.
    So K, singular wherever L_m vanishes on part of H_k, settles on the
    first rung whose float routes agree with the exact count instead of
    climbing to the top one."""
    n = config.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")

    def build(ctx):
        L = builders.loewner_matrix(config, r, ctx).entries
        with ctx.prec():
            p = config.mp_points()
            e = mp.frexp(max(abs(x) for row in L for x in row))[1]
            C = [[x ** j for x in p] for j in range(k)]
            shifts = [e - mp.frexp(row[-1])[1] for row in C]  # p ascends: row[-1] is the largest
            return SymMatrix.from_rows(
                _bordered(L, [[mp.ldexp(x, s) for x in row] for row, s in zip(C, shifts)]))

    hint = exact_route_hint(config, Exponent.of(r))
    twin = hint and _bordered_twin(*hint, k)
    c = _settle(build, tol, twin)[0].consensus
    return Inertia(c.pos - k, c.zero, c.neg - k)


def prop21_check(config: PointConfig, r: Scalar,
                 tol: ToleranceContext = DEFAULT_TOL) -> bool:
    """True when L_r has at least one negative eigenvalue (guaranteed for r > 1).
    Integer exponents run the exact route, as in ``verify_instance``."""
    if not r > 1:
        raise ValueError(f"exponent must exceed 1, got {r!r}")
    if config.n < 2:
        raise ValueError("need at least two points")
    return _settle_loewner(config, r, tol)[0].consensus.neg >= 1


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

    The power-step residual is one expression over nodes q, L_r, L_(r-2)
    and the power q^(r-1), relative to max|L_r|.  Wherever
    ``exact_route_hint`` gives (q, m) with m >= 2 it runs over Z, on float
    nodes too (the binary rationals they denote): on the integer nodes
    q = c p, ``builders.loewner_twin(q, m)`` and ``loewner_twin(q, m - 2)``.
    The identity is homogeneous of degree m - 1 in the nodes, so its
    residual there is c^(m-1) times the one at p, and is exactly zero
    unless the identity is genuinely violated; elsewhere it runs on mpf at
    working precision.  r = 0 raises ValueError: L_0 is the zero matrix.
    """
    builders.refuse_zero_exponent(r)
    n = config.n
    ex = Exponent.of(r)
    with tol.prec():
        p = config.mp_points()
        rr = to_mpf(ex.r)
        L = builders.loewner_matrix(config, r, tol).entries
        Lm = builders.loewner_matrix(config, -r, tol).entries

        pinv_r = [x ** (-rr) for x in p]
        refl = _max_abs([
            [Lm[i][j] + pinv_r[i] * to_mpf(L[i][j]) * pinv_r[j] for j in range(n)]
            for i in range(n)
        ]) / _max_abs(Lm)

        xs = [mp.log(x) / 2 for x in p]
        Lt = builders.sinh_loewner(xs, r, tol).entries
        delta = [x ** ((rr - 1) / 2) for x in p]
        scale_L = _max_abs(L)
        sinh_res = _max_abs([
            [to_mpf(L[i][j]) - delta[i] * to_mpf(Lt[i][j]) * delta[j] for j in range(n)]
            for i in range(n)
        ]) / scale_L

        hint = exact_route_hint(config, ex)
        exact = hint is not None and hint[1] >= 2
        if exact:
            q, m = hint
            k, Lr, Lr2 = m - 1, builders.loewner_twin(q, m), builders.loewner_twin(q, m - 2)
        else:
            q, k, Lr = p, rr - 1, L
            Lr2 = builders.loewner_matrix(config, r - 2, tol).entries
        qk = [x ** k for x in q]
        power_res = to_mpf(_max_abs([
            [Lr[i][j] - (qk[i] + q[i] * Lr2[i][j] * q[j] + qk[j]) for j in range(n)]
            for i in range(n)
        ])) / to_mpf(_max_abs(Lr))
        return IdentityResiduals(refl, sinh_res, power_res, exact)
