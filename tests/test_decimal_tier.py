"""The decimal tier: above 53 bits the Jacobi and LDL routes run on the C
``decimal`` module, with at least as many digits as the bits ask for, and
give mpmath's answers.

Conversions into and out of ``decimal`` round once and keep the sign, the
context traps what would produce a NaN, and the parity tests run the same
public functions on ``decimal`` and, through the ``mp_only`` fixture of
``test_float_tier``, on mpmath.  On ``decimal`` a float pass (Householder
tridiagonalization and QL, ``_float_basis``) preconditions ``eig_sym``; its
tests pin that it saves working sweeps, that it never raises and returns an
orthonormal basis, and that no basis it could return, nor skipping it, moves
an eigenvalue.  Rotations far from the diagonal's gap take square-root-free
series parameters, which agree with the square-root formulas.
"""

import dataclasses
import decimal
import importlib
import re
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from loewnerlab import (
    ComboFunction,
    EigenConvergenceError,
    ScanPolicy,
    SymMatrix,
    ToleranceContext,
    count_zeros,
    eig_sym,
    inertia,
    inertia_from_spectrum,
    inertia_ldl,
    loewner_matrix,
    make_point_config,
    predicted_inertia,
)
from loewnerlab.types import DEC_ARITH, FLOAT_ARITH, MP_ARITH, _in_float_window, to_mpf

from test_float_tier import CASES, chosen, mp_only  # noqa: F401  (fixtures)

inertia_mod = importlib.import_module("loewnerlab.inertia")

CTX256 = ToleranceContext.at_bits(256)


def _round_trip(x):
    return DEC_ARITH.out(DEC_ARITH.num(x))


@pytest.mark.parametrize("bits", [54, 256, 512])
def test_mpf_round_trip_keeps_every_bit(bits):
    ctx = ToleranceContext.at_bits(bits)
    with ctx.prec():
        values = [mpf(0), -mpf(3) / 7, mp.pi, -mp.e * 2 ** -60, mpf(2) ** 100000,
                  mpf(2) ** -100000, -mpf(2) ** -100000, to_mpf(Fraction(-22, 7))]
        for x in values:
            back = _round_trip(x)
            assert type(back) is mpf and back == x


@pytest.mark.parametrize("bits", [256, 512])
def test_fractions_and_floats_round_once(bits):
    with ToleranceContext.at_bits(bits).prec():
        for q in (Fraction(1, 3), Fraction(-22, 7), Fraction(10 ** 40 + 1, 3 ** 70)):
            ref = to_mpf(q)
            assert abs(_round_trip(q) - ref) <= mp.eps * abs(ref)
        for v in (0.1, -2.5, 1e-300, 7):
            assert _round_trip(v) == mpf(v)


@pytest.mark.parametrize("bits", [54, 64, 128, 256, 512, 1000])
def test_decimal_context_resolves_the_bits(bits):
    with ToleranceContext.at_bits(bits).prec():
        ctx = decimal.getcontext()
        assert mp.prec == bits
        # unit roundoff of p decimal digits, round-half-even
        assert Fraction(1, 2) * Fraction(10) ** (1 - ctx.prec) <= Fraction(2) ** (1 - bits)
        assert (ctx.Emax, ctx.Emin) == (decimal.MAX_EMAX, decimal.MIN_EMIN)
        with pytest.raises(decimal.InvalidOperation):
            DEC_ARITH.sqrt(DEC_ARITH.num(-1))
        with pytest.raises(decimal.InvalidOperation):
            DEC_ARITH.num(0) / DEC_ARITH.num(0)
        with pytest.raises(decimal.DivisionByZero):
            DEC_ARITH.num(1) / DEC_ARITH.num(0)


def test_prec_restores_both_contexts():
    before = (mp.prec, decimal.getcontext().prec)
    with CTX256.prec():
        assert (mp.prec, decimal.getcontext().prec) == (256, 80)
    assert (mp.prec, decimal.getcontext().prec) == before


def test_convergence_failure_names_its_numbers(float_passes):
    # max_sweeps counts the working sweeps alone: the float pass runs first
    L = loewner_matrix(make_point_config((1, 2, 3)), 2.5, CTX256)
    with pytest.raises(EigenConvergenceError) as info:
        eig_sym(L, CTX256, max_sweeps=0)
    assert float_passes == [3]
    found = re.fullmatch(r"off-diagonal mass (\S+) above (\S+) after 0 sweeps.*", str(info.value))
    assert found
    off, thresh = (float(v) for v in found.groups())
    assert off > thresh > 0


def test_outputs_stay_mpf(chosen):
    cfg, r = CASES[5]
    L = loewner_matrix(cfg, r, CTX256)
    chosen.clear()
    rep = inertia(L, CTX256)
    assert chosen == [DEC_ARITH, DEC_ARITH]
    assert all(type(v) is mpf for v in rep.spectrum.eigenvalues)
    assert type(rep.spectrum.offdiag_residual) is mpf


@pytest.mark.parametrize("power", [1000, -1000, 100000, -100000])
def test_scaled_entries_keep_the_theorem(power, chosen):
    cfg, r = make_point_config((1, 2, 3, 4)), 2.5
    L = loewner_matrix(cfg, r, CTX256)
    with CTX256.prec():
        factor = mpf(2) ** power
        big = SymMatrix.build(4, lambda i, j: L[i, j] * factor)
    chosen.clear()
    spec = eig_sym(big, CTX256)
    expected = predicted_inertia(4, r).inertia
    assert inertia_from_spectrum(spec, spec.scale, CTX256) == expected
    assert inertia_ldl(big, CTX256) == expected
    assert chosen == [DEC_ARITH, DEC_ARITH]


@pytest.mark.parametrize("bits", [256, 512])
@pytest.mark.parametrize("cfg, r", CASES, ids=[f"n{c.n}-{i % 2}" for i, (c, _) in enumerate(CASES)])
def test_routes_match_mpmath(cfg, r, bits, mp_only):
    """inertia_ldl equal to mpmath's at the same bits; eigenvalues within
    n*eps*scale of mpmath's at 64 more bits, and classified alike.  (Against
    mpmath at the same bits the gap is mostly mpmath's own roundoff, up to
    16 eps at n = 10: decimal carries a few more bits.)"""
    ctx = ToleranceContext.at_bits(bits)
    L = loewner_matrix(cfg, r, ctx)
    spec, by_ldl = eig_sym(L, ctx), inertia_ldl(L, ctx)
    mp_only()
    assert by_ldl == inertia_ldl(L, ctx)
    ref = eig_sym(L, ToleranceContext.at_bits(bits + 64))
    assert inertia_from_spectrum(spec, spec.scale, ctx) == \
        inertia_from_spectrum(ref, ref.scale, ctx)
    with mp.workprec(bits + 64):
        bound = cfg.n * ctx.eps() * ref.scale
        assert all(abs(a - b) <= bound for a, b in zip(spec.eigenvalues, ref.eigenvalues))


def test_combo_kernel_stays_on_mpmath_above_53_bits(chosen):
    f = ComboFunction(make_point_config((1, 2, 3)), (1.0, -2.5, 1.25), 2.5)
    scan = ScanPolicy(grid=401)
    count53 = count_zeros(f, scan).count
    chosen.clear()
    assert count_zeros(f, scan, CTX256).count == count53
    assert MP_ARITH in chosen


def test_decimal_has_no_kernel_functions():
    with CTX256.prec():
        with pytest.raises(NotImplementedError):
            DEC_ARITH.expm1(DEC_ARITH.num(1))
    assert CTX256.arith([1, 2], r=2.5) is MP_ARITH
    assert CTX256.arith([1, 2]) is DEC_ARITH


# ---------------------------------------------------------------------------
# The float pass that preconditions eig_sym on decimal


def _loewner(nodes, r, ctx=CTX256):
    return loewner_matrix(make_point_config(nodes), r, ctx)


def _graded(nodes, r, powers, ctx=CTX256):
    """The Loewner matrix with row and column i scaled by 2^powers[i]."""
    L = _loewner(nodes, r, ctx)
    with ctx.prec():
        return SymMatrix.build(L.order, lambda i, j: mp.ldexp(L[i, j], powers[i] + powers[j]))


def _within_640_bits(A, ctx, spec):
    """``test_accuracy``'s bound: every eigenvalue within offdiag_residual +
    2n eps |A|_F of a 640-bit ``eig_sym`` of the same entries."""
    ref = eig_sym(A, ToleranceContext.at_bits(640)).eigenvalues
    with mp.workprec(640):
        norm = mp.sqrt(mp.fsum(e * e for row in A.entries for e in row))
        bound = spec.offdiag_residual + 2 * A.order * ctx.eps() * norm
        return all(abs(a - b) <= bound for a, b in zip(spec.eigenvalues, ref))


@pytest.fixture
def float_passes(monkeypatch):
    """Record each float pass (a ``_float_basis`` call) by its order."""
    seen = []
    original = inertia_mod._float_basis

    def spy(rows):
        seen.append(len(rows))
        return original(rows)

    monkeypatch.setattr(inertia_mod, "_float_basis", spy)
    return seen


def test_float_pass_leaves_at_most_five_working_sweeps(monkeypatch):
    # The off-diagonal mass is measured once before the sweeps and once after
    # each; the spy skips the measurements in floats, so it counts only the
    # working-precision sweeps (11 without the float pass).
    masses = []
    original = inertia_mod._offdiag_mass

    def spy(M, n, ar):
        if ar is not FLOAT_ARITH:
            masses.append(n)
        return original(M, n, ar)

    monkeypatch.setattr(inertia_mod, "_offdiag_mass", spy)
    L = _loewner(range(1, 13), 2.5)
    spec = eig_sym(L, CTX256)
    assert 1 <= len(masses) - 1 <= 5
    assert inertia_from_spectrum(spec, spec.scale, CTX256) == predicted_inertia(12, 2.5).inertia


def _identity(n):
    return [[float(i == j) for j in range(n)] for i in range(n)]


def _reversal(n):
    return [[float(j == n - 1 - i) for j in range(n)] for i in range(n)]


def _reflector(n):
    """I - 2 v v^T / v^T v in floats: far from any eigenvector basis, and
    orthogonal only up to float roundoff."""
    v = [1.0 + 0.1 * i for i in range(n)]
    vv = sum(x * x for x in v)
    return [[float(i == j) - 2 * v[i] * v[j] / vv for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("basis", [_identity, _reversal, _reflector],
                         ids=["identity", "reversal", "reflector"])
@pytest.mark.parametrize("nodes, r", [(range(1, 13), 2.5), (range(1, 9), 4.5), ((1, 2, 3), 2)])
def test_a_poor_float_basis_changes_no_eigenvalue(monkeypatch, basis, nodes, r):
    # The float pass only picks where the working sweeps start: with its
    # basis replaced by a poor one, the eigenvalues still meet the 640-bit
    # bound and the inertia is the theorem's.
    replaced = []

    def poor(rows):
        n = len(rows)
        replaced.append(n)
        return basis(n)

    monkeypatch.setattr(inertia_mod, "_float_basis", poor)
    L = _loewner(nodes, r)
    spec = eig_sym(L, CTX256)
    assert replaced == [L.order]
    assert _within_640_bits(L, CTX256, spec)
    assert inertia_from_spectrum(spec, spec.scale, CTX256) == predicted_inertia(L.order, r).inertia


@pytest.mark.parametrize("A", [
    _loewner((1, 2, 3), 300.5),
    _graded((1, 2, 3, 4), 2.5, (200, -200, 200, -200)),
], ids=["r300.5", "graded-2^400"])
def test_entries_outside_the_float_window_skip_the_float_pass(float_passes, A):
    assert not _in_float_window(e for row in A.entries for e in row)
    spec = eig_sym(A, CTX256)
    assert float_passes == []
    assert _within_640_bits(A, CTX256, spec)


def test_float_pass_at_the_edge_of_the_window(float_passes):
    # entries of 2^200 and 2^-200, the largest and smallest the window takes
    with CTX256.prec():
        big, tiny = mpf(2) ** 200, mpf(2) ** -200
        A = SymMatrix.from_rows([[big, 1, tiny], [1, 3, big / 3], [tiny, big / 3, tiny]])
    spec = eig_sym(A, CTX256)
    assert float_passes == [3]
    assert _within_640_bits(A, CTX256, spec)


# ---------------------------------------------------------------------------
# The float pass's kernel: Householder tridiagonalization and implicit QL

EPS = 2.0 ** -52
BIG, TINY = 2.0 ** 200, 2.0 ** -200


def _mp_rows(rows):
    return [[mpf(v) for v in row] for row in rows]


@pytest.mark.parametrize("F", [
    [[BIG, 1.0, TINY], [1.0, 3.0, BIG / 3], [TINY, BIG / 3, TINY]],
    [[BIG, TINY, -BIG], [TINY, TINY, TINY], [-BIG, TINY, BIG]],
    [[TINY, -TINY, TINY], [-TINY, TINY, TINY], [TINY, TINY, -TINY]],
    [[TINY]],
    [[0.0]],
    [[1.0, 2.0], [2.0, 1.0]],
    [[TINY, BIG], [BIG, 0.0]],
    [[float(i == j) * v for j in range(5)] for i, v in enumerate((3.0, -1.0, 2.0, 0.0, 5.0))],
    [[0.0] * 3 for _ in range(3)],
    _loewner((1, 2, 3), 2)._float_rows(),
    _loewner((1, 1 + 2 ** -30, 2, 3), 2.5)._float_rows(),
    _loewner(range(1, 13), 2.5)._float_rows(),
], ids=["edge-of-window", "2^200-and-2^-200", "all-2^-200", "order-1", "order-1-zero",
        "order-2", "order-2-2^200", "diagonal", "zero", "L2-on-1,2,3",
        "gap-2^-30", "L2.5-on-1..12"])
def test_float_basis_is_orthonormal_and_diagonalizes(F):
    n = len(F)
    Q = inertia_mod._float_basis(F)
    assert len(Q) == n and all(len(row) == n and all(type(v) is float for v in row) for row in Q)
    with mp.workprec(200):
        Qm, Fm = _mp_rows(Q), _mp_rows(F)
        for i in range(n):
            for j in range(n):
                assert abs(mp.fsum(a * b for a, b in zip(Qm[i], Qm[j])) - (i == j)) <= 4 * n * EPS
        norm = mp.sqrt(mp.fsum(v * v for row in Fm for v in row))
        QF = [[mp.fsum(q * f for q, f in zip(row, col)) for col in zip(*Fm)] for row in Qm]
        off = mp.sqrt(mp.fsum(mp.fsum(a * b for a, b in zip(QF[i], Qm[j])) ** 2
                              for i in range(n) for j in range(n) if i != j))
        assert off <= 4 * n * EPS * norm


@pytest.mark.parametrize("nodes, r", [(range(1, 13), 2.5), ((1, 2, 3), 2), ((1, 2, 3), 2.5)])
def test_a_float_basis_at_its_iteration_cap_changes_no_eigenvalue(monkeypatch, nodes, r):
    # with no QL step the basis is the Householder transform alone
    monkeypatch.setattr(inertia_mod, "_QL_ITERATIONS", 0)
    L = _loewner(nodes, r)
    spec = eig_sym(L, CTX256)
    assert _within_640_bits(L, CTX256, spec)
    assert inertia_from_spectrum(spec, spec.scale, CTX256) == predicted_inertia(L.order, r).inertia


# ---------------------------------------------------------------------------
# Square-root-free rotations of the working sweeps


def _sqrt_rotation(theta):
    t = 1 / (abs(theta) + (1 + theta * theta).sqrt())
    if theta < 0:
        t = -t
    return t, 1 / (1 + t * t).sqrt()


@pytest.mark.parametrize("bits", [128, 256, 512, 4096])
def test_series_rotation_agrees_with_the_square_root_formulas(bits):
    with ToleranceContext.at_bits(bits).prec():
        ctx = decimal.getcontext()
        unit = decimal.Decimal(10) ** (1 - ctx.prec)
        cut = inertia_mod._series_cutoff()
        assert cut ** 4 >= decimal.Decimal(10) ** ctx.prec
        just_above = [cut * decimal.Decimal("1.0001"), cut + 1, cut * decimal.Decimal("1.7")]
        far_above = [cut * 10 ** 7, cut ** 2 / 3, cut ** 5]
        for theta in just_above + far_above:
            for theta in (+theta, -theta):
                t, c = inertia_mod._series_rotation(theta)
                ts, cs = _sqrt_rotation(theta)
                assert abs(t - ts) <= unit * abs(ts) and abs(c - cs) <= unit * cs
                with decimal.localcontext() as exact:
                    exact.prec = 3 * ctx.prec
                    tx, cx = _sqrt_rotation(theta)
                    assert abs(t - tx) <= unit * abs(tx) and abs(c - cx) <= unit * cx


def _counting_sqrt(monkeypatch):
    """Make ``_sweeps`` see a ``DEC_ARITH`` whose sqrt calls are counted."""
    calls = []

    def sqrt(x):
        calls.append(x)
        return x.sqrt()

    monkeypatch.setattr(inertia_mod, "DEC_ARITH", dataclasses.replace(DEC_ARITH, sqrt=sqrt))
    return inertia_mod.DEC_ARITH, calls


@pytest.mark.parametrize("gap, roots", [("1e30", 0), ("1", 2)], ids=["series", "square-roots"])
def test_a_series_rotation_takes_no_square_root(monkeypatch, gap, roots):
    # One rotation on [[0, 1], [1, 2 theta]] with theta = gap; the off-diagonal
    # mass, measured before and after the sweep, takes one square root each.
    ar, calls = _counting_sqrt(monkeypatch)
    with ToleranceContext.at_bits(128).prec():
        theta = ar.num(gap)
        assert (theta > inertia_mod._series_cutoff()) == (roots == 0)
        M = [[ar.num(0), ar.num(1)], [ar.num(1), 2 * theta]]
        inertia_mod._sweeps(M, 2, ar, ar.num(0), 1)
    assert len(calls) == 2 + roots

