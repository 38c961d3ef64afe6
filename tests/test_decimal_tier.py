"""The decimal tier: above 53 bits the eigenvalue and LDL routes run on the
C ``decimal`` module, with at least as many digits as the bits ask for, and
give mpmath's answers.

Conversions into and out of ``decimal`` round once and keep the sign, the
context traps what would produce a NaN, and the parity tests run the same
public functions on ``decimal`` and, through the ``mp_only`` fixture of
``test_float_tier``, on mpmath.  At every precision ``eig_sym`` takes the
matrix to tridiagonal form by Householder reflections and runs implicit
QL on it; its tests pin each eigenvalue within the 640-bit bound of
``test_accuracy`` on edge cases (orders 1 and 2, zero, diagonal and
all-ones matrices, a tridiagonal that splits, entries at 2^+-200 and
2^1100, graded rows) and on Loewner matrices written in other bases (a
reversal, a float reflector), the QL steps each eigenvalue takes, and that
every cap on those steps either raises or meets the bound; the bound and
the steps hold at 53 bits too.  At 53 bits the float window decides whether
the same route runs on floats or on mpmath; its edge and entries outside it
are pinned last.
"""

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


def test_convergence_failure_names_its_numbers():
    # max_steps caps the QL steps per eigenvalue
    L = loewner_matrix(make_point_config((1, 2, 3)), 2.5, CTX256)
    with pytest.raises(EigenConvergenceError) as info:
        eig_sym(L, CTX256, max_steps=0)
    found = re.fullmatch(r"off-diagonal mass (\S+) above (\S+) after 0 QL steps per "
                         r"eigenvalue \(the step limit\)", str(info.value))
    assert found
    off, thresh = (float(v) for v in found.groups())
    assert off > thresh > 0


def test_outputs_stay_mpf(chosen):
    cfg, r = CASES[5]
    L = loewner_matrix(cfg, r, CTX256)
    chosen.clear()
    rep = inertia(L, CTX256)
    assert chosen == [DEC_ARITH]
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
    assert chosen == [DEC_ARITH]


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
# Householder tridiagonalization and QL at working precision


def _loewner(nodes, r, ctx):
    return loewner_matrix(make_point_config(nodes), r, ctx)


def _graded(nodes, r, powers, ctx):
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


def _rows(rows):
    """A builder of the matrix with these rows, rounded at the context's
    precision."""
    def build(ctx):
        with ctx.prec():
            return SymMatrix.from_rows([[to_mpf(v) for v in row] for row in rows])
    return build


def _block_diagonal(*blocks):
    n = sum(map(len, blocks))
    rows = [[0] * n for _ in range(n)]
    k = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[k + i][k:k + len(row)] = row
        k += len(block)
    return rows


BIG, TINY = 2 ** 200, Fraction(1, 2 ** 200)

# Each case builds its matrix at the context's precision.
QL_CASES = {
    "L2.5-on-1..12": lambda ctx: _loewner(range(1, 13), 2.5, ctx),
    "L4.5-on-1..8": lambda ctx: _loewner(range(1, 9), 4.5, ctx),
    "L2-on-1,2,3": lambda ctx: _loewner((1, 2, 3), 2, ctx),
    "L2.5-on-1,2,3": lambda ctx: _loewner((1, 2, 3), 2.5, ctx),
    "gap-2^-30": lambda ctx: _loewner((1, 1 + 2 ** -30, 2, 3), 2.5, ctx),
    "r300.5": lambda ctx: _loewner((1, 2, 3), 300.5, ctx),
    "graded-2^400": lambda ctx: _graded((1, 2, 3, 4), 2.5, (200, -200, 200, -200), ctx),
    "edge-of-window": _rows([[BIG, 1, TINY], [1, 3, Fraction(BIG, 3)],
                             [TINY, Fraction(BIG, 3), TINY]]),
    "2^200-and-2^-200": _rows([[BIG, TINY, -BIG], [TINY, TINY, TINY], [-BIG, TINY, BIG]]),
    "all-2^-200": _rows([[TINY, -TINY, TINY], [-TINY, TINY, TINY], [TINY, TINY, -TINY]]),
    "2^1100": _rows([[2 ** 1100, 1, 0], [1, 2, 0], [0, 0, 3]]),
    "order-1": _rows([[TINY]]),
    "order-1-zero": _rows([[0]]),
    "order-2": _rows([[1, 2], [2, 1]]),
    "order-2-2^200": _rows([[TINY, BIG], [BIG, 0]]),
    "diagonal": _rows(_block_diagonal([[3]], [[-1]], [[2]], [[0]], [[5]])),
    "zero": _rows([[0] * 3 for _ in range(3)]),
    "split-in-the-middle": _rows(_block_diagonal([[4, 1, 2], [1, 3, 1], [2, 1, 2]],
                                                 [[1, 2, 0], [2, -1, 1], [0, 1, 5]])),
    "all-ones": _rows([[1] * 4 for _ in range(4)]),
}


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("build", QL_CASES.values(), ids=QL_CASES)
def test_eigenvalues_meet_the_640_bit_bound(build, bits):
    ctx = ToleranceContext.at_bits(bits)
    A = build(ctx)
    rep = inertia(A, ctx)
    assert _within_640_bits(A, ctx, rep.spectrum)
    assert not rep.disagreement


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
def test_a_poor_float_basis_changes_no_eigenvalue(basis, nodes, r):
    # L written in a basis Q given in floats, Q L Q^T rounded once at 256
    # bits: the reversal puts the large entries at the upper left, where the
    # reflections from the last row up meet them last, and the reflector
    # mixes every row.  The eigenvalues still meet the 640-bit bound, and,
    # Q being nonsingular, the inertia is the theorem's (Sylvester).
    L = _loewner(nodes, r, CTX256)
    n = L.order
    with mp.workprec(640):
        Q = [[mpf(v) for v in row] for row in basis(n)]
        QL = [[mp.fsum(q * a for q, a in zip(row, col)) for col in zip(*L.entries)] for row in Q]
        upper = {(i, j): mp.fsum(a * q for a, q in zip(QL[i], Q[j]))
                 for i in range(n) for j in range(i, n)}
    with CTX256.prec():
        B = SymMatrix.build(n, lambda i, j: +upper[min(i, j), max(i, j)])
    spec = eig_sym(B, CTX256)
    assert _within_640_bits(B, CTX256, spec)
    assert inertia_from_spectrum(spec, spec.scale, CTX256) == predicted_inertia(n, r).inertia


@pytest.mark.parametrize("nodes, r", [(range(1, 13), 2.5), ((1, 2, 3), 2), ((1, 2, 3), 2.5)])
def test_a_float_basis_at_its_iteration_cap_changes_no_eigenvalue(nodes, r):
    # Under every cap of QL steps per eigenvalue, from none up to the steps
    # the uncapped run takes, eig_sym either raises or returns eigenvalues
    # within the 640-bit bound of the residual it reports; at the last cap
    # the spectrum is the uncapped one.
    L = _loewner(nodes, r, CTX256)
    full = eig_sym(L, CTX256)
    for cap in range(31):
        try:
            spec = eig_sym(L, CTX256, max_steps=cap)
        except EigenConvergenceError:
            continue
        assert _within_640_bits(L, CTX256, spec)
        if spec == full:
            break
    assert spec == full and cap <= 5
    assert inertia_from_spectrum(full, full.scale, CTX256) == predicted_inertia(L.order, r).inertia


# QL steps per eigenvalue (at most; 53 bits takes fewer), and inertia at 53
# and at 256 bits: 53 bits leaves six of L's eigenvalues under its zero threshold
QL_STEPS = {
    "L2.5-on-1..12": (5, {53: (5, 6, 1), 256: (11, 0, 1)}),
    "diagonal": (0, {53: (3, 1, 1), 256: (3, 1, 1)}),
    "zero": (0, {53: (0, 3, 0), 256: (0, 3, 0)}),
    "order-1": (0, {53: (1, 0, 0), 256: (1, 0, 0)}),
}


@pytest.mark.parametrize("case", QL_STEPS)
def test_no_eigenvalue_takes_more_than_its_ql_steps(case):
    # A cap of ``steps`` QL steps per eigenvalue leaves every step the
    # uncapped run took, so the spectra are equal.
    steps, expected = QL_STEPS[case]
    for bits in (53, 256):
        ctx = ToleranceContext.at_bits(bits)
        A = QL_CASES[case](ctx)
        spec = eig_sym(A, ctx)
        assert eig_sym(A, ctx, max_steps=steps) == spec
        assert inertia_from_spectrum(spec, spec.scale, ctx).as_tuple() == expected[bits]


def test_ql_leaves_a_deflated_coupling_in_place():
    # e[1] lies under the deflation level, so the block 0..1 takes QL steps
    # on its own and e[1], which each step uses as scratch, is restored: the
    # residual counts it
    with CTX256.prec():
        num = DEC_ARITH.num
        skip, delta = num(10) ** -70, num(10) ** -80
        d = [num(2), num(1), num(3), num(-1)]
        e = [num(1), delta, num(1), num(0)]
        inertia_mod._ql(d, e, 4, DEC_ARITH, skip, 30)
        assert e[1] == delta and e[3] == 0
        assert all(abs(x) <= skip for x in e)


def test_ql_on_floats_deflates_once_squares_underflow():
    # d = (1, 1) makes the first rotation's f and g both e[0]; at 1e-170
    # their squares underflow and sqrt(f^2 + g^2) rounds to 0, so r is
    # formed again from f and g scaled by the larger.  The deflation level
    # of 1e-200 lies outside the float tier, whose level is at least
    # 2^-400 / (2n).  Floats deflate the coupling as decimal does, which
    # does not underflow.
    d, e = [1.0, 1.0], [1e-170, 0.0]
    inertia_mod._ql(d, e, 2, FLOAT_ARITH, 1e-200, 30)
    assert abs(e[0]) <= 1e-200 and d == [1.0, 1.0]
    with CTX256.prec():
        num = DEC_ARITH.num
        skip = num(10) ** -200
        d, e = [num(1), num(1)], [num(10) ** -170, num(0)]
        inertia_mod._ql(d, e, 2, DEC_ARITH, skip, 30)
        assert abs(e[0]) <= skip and d == [1, 1]


# ---------------------------------------------------------------------------
# The float window at 53 bits: QL on floats inside it, on mpmath outside

CTX53 = ToleranceContext.at_bits(53)


@pytest.mark.parametrize("build", [QL_CASES["r300.5"], QL_CASES["graded-2^400"]],
                         ids=["r300.5", "graded-2^400"])
def test_entries_outside_the_float_window_skip_the_float_pass(chosen, build):
    A = build(CTX53)
    assert not _in_float_window(e for row in A.entries for e in row)
    chosen.clear()
    spec = eig_sym(A, CTX53)
    assert chosen == [MP_ARITH]
    assert _within_640_bits(A, CTX53, spec)


def test_float_pass_at_the_edge_of_the_window(chosen):
    # entries of 2^200 and 2^-200, the largest and smallest the window takes
    A = QL_CASES["edge-of-window"](CTX53)
    chosen.clear()
    spec = eig_sym(A, CTX53)
    assert chosen == [FLOAT_ARITH]
    assert _within_640_bits(A, CTX53, spec)
