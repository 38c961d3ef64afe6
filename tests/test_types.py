from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from loewnerlab import (
    Exponent,
    Inertia,
    PointConfig,
    SymMatrix,
    ToleranceContext,
    make_point_config,
)


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
        Exponent(2.5, True, 2)


def test_tolerance_defaults_and_scaling():
    ctx = ToleranceContext()
    assert ctx.precision_bits == 53
    assert ctx.zero_rel_tol == 1e-10
    high = ToleranceContext.at_bits(256)
    assert high.precision_bits == 256
    assert high.zero_rel_tol == mpf(1e-10) * mpf(2) ** (53 - 256)
    assert high.residual_tol < 1e-60


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceContext(precision_bits=32)
    with pytest.raises(ValueError):
        ToleranceContext(zero_rel_tol=0.0)


def test_escalation_ladder():
    assert ToleranceContext().escalated().precision_bits == 256
    assert ToleranceContext.at_bits(256).escalated().precision_bits == 512


def test_rungs_are_the_one_ladder():
    assert [c.precision_bits for c in ToleranceContext().rungs()] == [53, 256, 512]
    assert [c.precision_bits for c in ToleranceContext.at_bits(256).rungs()] == [256, 512, 1024]
    start = ToleranceContext(residual_tol=1e-3)
    first, *rest = start.rungs()
    assert first is start  # the caller's own context, overrides and all, comes first
    assert rest == [ToleranceContext.at_bits(256), ToleranceContext.at_bits(512)]


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


def test_config_is_value_like():
    a = make_point_config((1, 2))
    b = make_point_config((1, 2))
    assert a == b and hash(a) == hash(b)
