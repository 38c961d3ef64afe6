from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from loewnerlab import (
    Exponent,
    Inertia,
    PointConfig,
    SymMatrix,
    ToleranceContext,
    make_point_config,
)
from loewnerlab.types import to_mpf


def test_valid_ascending_ints():
    cfg = make_point_config((1, 2, 3))
    assert cfg.n == 3
    assert cfg.points == (1.0, 2.0, 3.0)
    assert cfg.exact == (Fraction(1), Fraction(2), Fraction(3))


def test_duplicate_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        make_point_config((1, 1, 2))


def test_unsorted_rejected():
    with pytest.raises(ValueError, match="increasing"):
        make_point_config((3, 1))


@pytest.mark.parametrize("values", [(), (0, 1), (-1, 2)])
def test_empty_or_nonpositive_rejected(values):
    with pytest.raises(ValueError):
        make_point_config(values)


def test_float_inputs_have_no_exact_form():
    cfg = make_point_config((1.5, 2.5))
    assert cfg.exact is None
    promoted = cfg.ensure_exact()
    assert promoted.exact == (Fraction(3, 2), Fraction(5, 2))


def test_mixed_inputs_have_no_exact_form():
    assert make_point_config((1, 2.5)).exact is None


@settings(deadline=None)
@given(st.lists(
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000),
                 max_denominator=10 ** 6),
    min_size=1, max_size=8, unique=True,
))
def test_exact_projection_matches_points(vals):
    cfg = make_point_config(sorted(vals))
    for f, q in zip(cfg.points, cfg.exact):
        assert abs(Fraction(f) - q) <= q * Fraction(1, 2 ** 52)


@given(st.integers(-50, 50))
def test_exponent_integer_detection(k):
    for variant in (k, float(k), Fraction(k)):
        ex = Exponent.of(variant)
        assert ex.is_integer and ex.integer_value == k


@given(st.floats(min_value=-50, max_value=50))
def test_exponent_float_detection(r):
    ex = Exponent.of(r)
    assert ex.is_integer == (r == round(r))


def test_exponent_fraction_detection():
    assert not Exponent.of(Fraction(7, 2)).is_integer
    assert Exponent.of(Fraction(8, 2)).integer_value == 4


def test_exponent_invariant_enforced():
    with pytest.raises(ValueError):
        Exponent(2.5, 2)


def test_tolerance_defaults_and_scaling():
    ctx = ToleranceContext()
    assert ctx.precision_bits == 53
    assert ctx.zero_rel_tol == 1e-10
    high = ToleranceContext.at_bits(256)
    assert high.precision_bits == 256
    assert high.zero_rel_tol == mpf(1e-10) * mpf(2) ** (53 - 256)
    assert high.residual_tol < 1e-60


def test_prec_enters_53_bits_from_a_wider_ambient_precision_and_restores_it():
    with mp.workprec(100):
        with ToleranceContext().prec():
            assert mp.prec == 53
            third = mpf(1) / 3
        assert mp.prec == 100
        assert third != mpf(1) / 3  # the 53-bit quotient, not the 100-bit one
    with mp.workprec(53):
        assert third == mpf(1) / 3


def test_prec_at_an_ambient_53_bits_switches_nothing(monkeypatch):
    def switch(*args):
        raise AssertionError("prec() switched precision while already at 53 bits")

    assert mp.prec == 53
    monkeypatch.setattr(mp, "workprec", switch)
    with ToleranceContext().prec():
        assert mp.prec == 53
    assert mp.prec == 53


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceContext(precision_bits=32)
    with pytest.raises(ValueError):
        ToleranceContext(zero_rel_tol=0.0)


@pytest.mark.parametrize("name", ["zero_rel_tol", "residual_tol"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan"), -float("inf"),
                                 mpf("inf"), mpf("nan")],
                         ids=["inf", "nan", "-inf", "mpf-inf", "mpf-nan"])
def test_tolerance_must_be_finite(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        ToleranceContext(**{name: bad})


def test_scaled_contexts_still_construct():
    # at_bits gives mpf thresholds, down to far below the float range
    for bits in (53, 128, 256, 4096):
        ctx = ToleranceContext.at_bits(bits)
        assert isinstance(ctx.zero_rel_tol, mpf) and isinstance(ctx.residual_tol, mpf)
        assert 0 < ctx.residual_tol < ctx.zero_rel_tol


def test_rungs_are_the_one_ladder():
    assert [c.precision_bits for c in ToleranceContext().rungs()] == [53, 256, 512]
    assert [c.precision_bits for c in ToleranceContext.at_bits(256).rungs()] == [256, 512, 1024]
    start = ToleranceContext(residual_tol=1e-3)
    first, *rest = start.rungs()
    assert first is start  # the caller's own context, overrides and all, comes first
    assert rest == [ToleranceContext.at_bits(256), ToleranceContext.at_bits(512)]
    # the verdict ladder's rung: inserted only above a lower start, and the
    # top rung is the same as without it
    for bits, ladder in ((53, [53, 128, 256, 512]), (80, [80, 128, 256, 512]),
                         (128, [128, 256, 512]), (256, [256, 512, 1024]),
                         (3000, [3000, 4096])):
        assert [c.precision_bits for c in ToleranceContext.at_bits(bits).rungs(via=128)] == ladder
    first, *rest = start.rungs(via=128)
    assert first is start
    assert rest == [ToleranceContext.at_bits(b) for b in (128, 256, 512)]


def test_symmetry_enforced():
    with pytest.raises(ValueError, match="differ"):
        SymMatrix.from_rows([[1, 2], [3, 4]])
    M = SymMatrix.from_rows([[1, 2], [2, 1]])
    assert M[0, 1] == 2
    assert M == SymMatrix.from_rows([[1, 2], [2, 1]])


@pytest.mark.parametrize("bad", [float("nan"), mpf("nan")])
def test_off_diagonal_nan_is_named(bad):
    with pytest.raises(ValueError, match=r"entry \(0,1\) is not finite"):
        SymMatrix.from_rows([[1, bad], [bad, 1]])
    with pytest.raises(ValueError, match=r"entry \(1,0\) is not finite"):
        SymMatrix.from_rows([[1, 2], [bad, 1]])


def test_build_mirrors_upper_triangle():
    M = SymMatrix.build(3, lambda i, j: 10 * i + j)
    assert M[2, 0] == M[0, 2] == 2


def test_diagonal_builder():
    D = SymMatrix.diagonal([5])
    assert D.entries == ((5,),)


def test_inertia_basics():
    ine = Inertia(2, 1, 3)
    assert ine.order == 6
    assert ine.swapped() == Inertia(3, 1, 2)
    assert ine.padded(2) == Inertia(2, 3, 3)
    with pytest.raises(ValueError):
        Inertia(-1, 0, 0)


def test_scaling_keeps_exact_nodes():
    assert make_point_config((1, 2)).scaled(Fraction(1, 2)).exact == (Fraction(1, 2), Fraction(1))


def test_config_is_value_like():
    a = make_point_config((1, 2))
    b = make_point_config((1, 2))
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("q", [3, 10])
def test_to_mpf_rounds_a_fraction_to_nearest(bits, q):
    # rounded toward zero, 1/3 is one ulp low at 256 bits and 1/10 at both
    with mp.workprec(bits):
        assert to_mpf(Fraction(1, q)) == mpf(1) / q
        assert to_mpf(Fraction(-1, q)) == -mpf(1) / q
