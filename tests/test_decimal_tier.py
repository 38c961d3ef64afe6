"""The decimal tier: above 53 bits the Jacobi and LDL routes run on the C
``decimal`` module, with at least as many digits as the bits ask for, and
give mpmath's answers.

Conversions into and out of ``decimal`` round once and keep the sign, the
context traps what would produce a NaN, and the parity tests run the same
public functions on ``decimal`` and, through the ``mp_only`` fixture of
``test_float_tier``, on mpmath.
"""

import decimal
import re
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from loewnerlab import (
    ComboFunction,
    EigenConvergenceError,
    LoewnerSpec,
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
from loewnerlab.types import DEC_ARITH, MP_ARITH, to_mpf

from test_float_tier import CASES, chosen, mp_only  # noqa: F401  (fixtures)

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
    L = loewner_matrix(LoewnerSpec.of(make_point_config((1, 2, 3)), 2.5), CTX256)
    with pytest.raises(EigenConvergenceError) as info:
        eig_sym(L, CTX256, max_sweeps=0)
    found = re.fullmatch(r"off-diagonal mass (\S+) above (\S+) after 0 sweeps.*", str(info.value))
    assert found
    off, thresh = (float(v) for v in found.groups())
    assert off > thresh > 0


def test_outputs_stay_mpf(chosen):
    cfg, r = CASES[5]
    L = loewner_matrix(LoewnerSpec.of(cfg, r), CTX256)
    chosen.clear()
    rep = inertia(L, CTX256)
    assert chosen == [DEC_ARITH, DEC_ARITH]
    assert all(type(v) is mpf for v in rep.spectrum.eigenvalues)
    assert type(rep.spectrum.offdiag_residual) is mpf


@pytest.mark.parametrize("power", [1000, -1000, 100000, -100000])
def test_scaled_entries_keep_the_theorem(power, chosen):
    cfg, r = make_point_config((1, 2, 3, 4)), 2.5
    L = loewner_matrix(LoewnerSpec.of(cfg, r), CTX256)
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
    L = loewner_matrix(LoewnerSpec.of(cfg, r), ctx)
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
