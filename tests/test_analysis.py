import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from loewnerlab import (
    ComboFunction,
    LoewnerSpec,
    Rect,
    ScanPolicy,
    SymMatrix,
    ToleranceContext,
    combo_eval,
    complex_det,
    complex_zero_scan,
    compound_matrix,
    count_zeros,
    det_closed_form_L3,
    det_closed_form_L4,
    dk_apply,
    dk_norm_probe,
    eig_sym,
    loewner_matrix,
    loewner_matrix_exact,
    make_point_config,
    pr_compare,
    predicted_inertia,
    ssr_scan,
)
from loewnerlab import analysis
from loewnerlab.exact import det_fraction
from loewnerlab.types import FLOAT_ARITH, MP_ARITH

from helpers import nonintegral, perm_det, random_config, random_rational_config

FAST_SCAN = ScanPolicy(grid=2001)


def test_combo_single_node():
    f = ComboFunction(make_point_config((2,)), (1,), 2)
    assert abs(combo_eval(f, 3) - 5) < 1e-13


def test_combo_limit_at_node():
    f = ComboFunction(make_point_config((2,)), (1,), 2)
    # at x == p the term takes the derivative value r p^(r-1) = 4
    assert abs(combo_eval(f, 2) - 4) < 1e-13


def test_combo_two_nodes():
    f = ComboFunction(make_point_config((1, 2)), (1, -1), 2)
    assert abs(combo_eval(f, 3) - (-1)) < 1e-13


def test_combo_rejects_nonpositive_argument():
    f = ComboFunction(make_point_config((1, 2)), (1, 1), 2)
    with pytest.raises(ValueError):
        combo_eval(f, 0)


def test_combo_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        ComboFunction(make_point_config((1, 2)), (0, 0), 2)


@pytest.mark.parametrize("points, coeffs, r", [
    ((1, 2, 3), (1, -2, 1), 2),
    ((1, 2, 3), (1, -2, 1), 0),
    ((1, 2), (3, 5), 0),
    ((1, 2), (1, -1), 1),
    ((0.5, 1.25, 3), (2.5, -3, 0.5), 1),
    ((1, 2, 3), (1, -8, 9), -2),
    ((1, 2, 3), (1, -8, 9), -1),
])
def test_combo_rejects_an_identically_zero_combination(points, coeffs, r):
    cfg = make_point_config(points)
    for x in (Fraction(1, 7), Fraction(5, 2), Fraction(11)):  # zero, checked by hand
        assert sum(Fraction(c) * (x ** r - Fraction(p) ** r) / (x - Fraction(p))
                   for c, p in zip(coeffs, points)) == 0
    with pytest.raises(ValueError, match="identically zero"):
        ComboFunction(cfg, coeffs, r)


@pytest.mark.parametrize("points, coeffs, r", [
    ((1, 2), (1, -1), 2),              # the constant -1
    ((1, 2, 3), (1, -2, 1), 3),        # the constant 2
    ((1, 2, 3), (1, -2, 1), 2.5),
    ((1, 2, 3), (1, -2, 1.000001), 2),
    ((1, 2, 3), (1, -8, 9), -3),
])
def test_combo_accepts_a_combination_that_is_not_zero(points, coeffs, r):
    f = ComboFunction(make_point_config(points), coeffs, r)
    assert combo_eval(f, 1.7) != 0


def test_count_zeros_single_node_is_zero_free():
    f = ComboFunction(make_point_config((2,)), (1,), 0.5)
    assert count_zeros(f, FAST_SCAN).count == 0


def test_count_zeros_examples():
    f = ComboFunction(make_point_config((1, 2)), (1, -1), 0.5)
    assert count_zeros(f, FAST_SCAN).count <= 1
    f = ComboFunction(make_point_config((1, 2, 3)), (1, 1, -2), 2.5)
    assert count_zeros(f, FAST_SCAN).count <= 2


def test_count_zeros_finds_a_genuine_crossing():
    # n=2, r=3: f is a quadratic with a root between the brackets it reports
    f = ComboFunction(make_point_config((1, 2)), (1, -0.8), 3)
    rep = count_zeros(f, FAST_SCAN)
    for lo, hi in rep.brackets:
        assert combo_eval(f, lo) * combo_eval(f, hi) < 0


def test_count_zeros_random_bound():
    rng = random.Random(59)
    for n in (2, 3):
        cfg = make_point_config(tuple(range(1, n + 1)))
        for _ in range(10):
            coeffs = tuple(rng.uniform(-1, 1) for _ in range(n))
            if max(abs(c) for c in coeffs) < 0.1:
                continue
            r = nonintegral(rng, 0.2, n + 1.5)
            f = ComboFunction(cfg, coeffs, r)
            assert count_zeros(f, FAST_SCAN).count <= n - 1


@pytest.mark.parametrize("bad", [float("nan"), mpf("nan"), float("inf"), mpf("-inf")])
def test_minor_scans_reject_non_finite_entries(bad):
    # A NaN on the diagonal used to come out as per_k ('mixed', '-').
    diagonal = SymMatrix.diagonal((mpf(2), bad), zero=mpf(1))
    off_diagonal = [[mpf(2), bad], [bad, mpf(3)]]
    for A, entry in ((diagonal, r"\(1,1\)"), (off_diagonal, r"\(0,1\)")):
        with pytest.raises(ValueError, match=entry + " is not finite"):
            ssr_scan(A)
        with pytest.raises(ValueError, match=entry + " is not finite"):
            compound_matrix(A, 1)


def test_ssr_full_on_fractional_exponent():
    rep = ssr_scan(loewner_matrix(LoewnerSpec.of(make_point_config((1, 2, 3)), 0.5)))
    assert rep.ssr_class == "SSR"
    assert rep.per_k == ("+", "+", "+")


def test_ssr_all_ones_is_ssr1():
    rep = ssr_scan(loewner_matrix_exact(make_point_config((1, 2, 3)), 1))
    assert rep.ssr_class == "SSR_1"
    assert rep.per_k[0] == "+"
    assert rep.per_k[1] == "zero"


def test_ssr_exact_integer_rank():
    rep = ssr_scan(loewner_matrix_exact(make_point_config((1, 2, 3, 4)), 2))
    assert rep.ssr_class == "SSR_2"
    assert rep.per_k == ("+", "-", "zero", "zero")


def test_ssr_order_cap():
    with pytest.raises(ValueError):
        ssr_scan([[1] * 8 for _ in range(8)])


def test_compound_identity():
    C = compound_matrix(SymMatrix.diagonal([1, 1, 1]), 2)
    assert C.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_compound_diagonal_products():
    C = compound_matrix(SymMatrix.diagonal([1, 2, 3]), 2)
    assert C.entries[0][0] == 2 and C.entries[1][1] == 3 and C.entries[2][2] == 6


def test_compound_eigenvalues_are_products():
    rng = random.Random(61)
    n, k = 4, 2
    rows = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
    M = SymMatrix.build(n, lambda i, j: rows[i][j])
    lam = [float(e) for e in eig_sym(M).eigenvalues]
    import itertools
    products = sorted(lam[i] * lam[j] for i, j in itertools.combinations(range(n), 2))
    comp = compound_matrix(M, k)
    got = sorted(float(e) for e in eig_sym(comp).eigenvalues)
    scale = max(1.0, max(abs(p) for p in products))
    assert all(abs(a - b) <= 1e-8 * scale for a, b in zip(got, products))


def test_det_closed_forms_spot_values():
    cfg = make_point_config((1, 2, 3))
    assert det_closed_form_L3(cfg) == -4
    assert det_closed_form_L4(cfg) == -576
    cfg = make_point_config((1, 2, 4))
    assert det_closed_form_L3(cfg) == -36
    assert det_closed_form_L4(cfg) == -7632


def test_det_closed_forms_match_exact_and_cofactor():
    cfg = make_point_config((1, 2, 3))
    L3 = loewner_matrix_exact(cfg, 3)
    L4 = loewner_matrix_exact(cfg, 4)
    assert perm_det([list(r) for r in L3.entries]) == -4
    assert perm_det([list(r) for r in L4.entries]) == -576
    assert det_fraction(L3.entries) == det_closed_form_L3(cfg)
    assert det_fraction(L4.entries) == det_closed_form_L4(cfg)


def test_det_closed_forms_random_rational():
    rng = random.Random(67)
    for _ in range(8):
        cfg = random_rational_config(rng, 3)
        assert det_fraction(loewner_matrix_exact(cfg, 3).entries) == det_closed_form_L3(cfg)
        assert det_fraction(loewner_matrix_exact(cfg, 4).entries) == det_closed_form_L4(cfg)


def test_det_closed_form_sign():
    rng = random.Random(71)
    for _ in range(5):
        cfg = random_config(rng, 3)
        assert det_closed_form_L3(cfg) <= 0


def test_det_closed_form_requires_three_points():
    with pytest.raises(ValueError):
        det_closed_form_L3(make_point_config((1, 2)))


def test_complex_det_known_zeros():
    cfg = make_point_config((1, 2, 3))
    assert abs(complex_det(cfg, 1)) < 1e-12
    assert abs(complex_det(cfg, 0)) < 1e-12
    assert abs(complex_det(cfg, 2)) < 1e-10


def test_complex_det_positive_below_one():
    d = complex_det(make_point_config((1, 2)), 0.5)
    assert d.real > 0 and abs(d.imag) < 1e-15


def test_complex_det_nonreal_argument():
    d = complex_det(make_point_config((1, 2)), mp.mpc(0.5, 0.5))
    assert abs(d) > 0


def test_complex_scan_multiplicity_at_one():
    rep = complex_zero_scan(make_point_config((1, 2, 3)), Rect(0.6, 1.4, -0.4, 0.4), grid=8)
    assert rep.total_winding == 2
    assert len(rep.cells) == 1
    cell = rep.cells[0]
    assert cell.winding == 2
    assert abs(cell.center.real - 1) < 0.2 and abs(cell.center.imag) < 0.2


def test_complex_scan_empty_window():
    rep = complex_zero_scan(make_point_config((1, 2, 3)), Rect(3.5, 4.5, -0.5, 0.5), grid=8)
    assert rep.total_winding == 0
    assert rep.cells == ()


def test_complex_scan_multiplicity_at_zero():
    rep = complex_zero_scan(make_point_config((1, 2, 3)), Rect(-0.45, 0.45, -0.45, 0.45), grid=8)
    assert rep.total_winding == 3


def test_dk_apply_examples():
    cfg = make_point_config((1, 4))
    X = SymMatrix.from_rows([[0, 1], [1, 0]])
    Y = dk_apply(cfg, 0.5, X)
    assert abs(Y[0, 1] - mpf(1) / 3) < 1e-14
    assert Y[0, 0] == 0
    ident = SymMatrix.diagonal([1, 1])
    Y = dk_apply(cfg, 0.5, ident)
    assert abs(Y[0, 0] - 0.5) < 1e-14
    assert abs(Y[1, 1] - 0.25) < 1e-14
    X = SymMatrix.from_rows([[1.5, -2], [-2, 0.25]])
    assert dk_apply(cfg, 1, X) == X


def test_dk_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        dk_apply(make_point_config((1, 2)), 1, SymMatrix.diagonal([1, 1, 1]))


def test_dk_apply_function_hook_matches_power_case():
    from loewnerlab import dk_apply_function
    cfg = make_point_config((1, 2, 3))
    X = SymMatrix.from_rows([[1, 2, 0], [2, -1, 1], [0, 1, 3]])
    via_power = dk_apply(cfg, 2, X)
    via_hook = dk_apply_function(cfg, lambda t: t ** 2, lambda t: 2 * t, X)
    for i in range(3):
        for j in range(3):
            assert abs(via_power[i, j] - via_hook[i, j]) < 1e-13


def test_dk_apply_function_log_kernel():
    from loewnerlab import dk_apply_function
    cfg = make_point_config((1, 2))
    ones = SymMatrix.from_rows([[1, 1], [1, 1]])
    Y = dk_apply_function(cfg, mp.log, lambda t: 1 / t, ones)
    assert abs(Y[0, 1] - mp.log(2)) < 1e-14
    assert abs(Y[0, 0] - 1) < 1e-14
    assert abs(Y[1, 1] - 0.5) < 1e-14


def test_dk_probe_equality_regime():
    rng = random.Random(73)
    for _ in range(4):
        cfg = random_config(rng, 3)
        r = rng.uniform(0.05, 0.95)
        probe = dk_norm_probe(cfg, r, samples=8, seed=3)
        assert probe.bound >= probe.reference * (1 - 1e-9)
        assert probe.bound <= probe.reference * (1 + 1e-9)


def test_dk_probe_r1():
    probe = dk_norm_probe(make_point_config((1, 2, 3)), 1, samples=4, seed=0)
    assert abs(probe.bound - 1) < 1e-12
    assert abs(probe.reference - 1) < 1e-12


def test_dk_probe_bound_never_below_reference():
    rng = random.Random(79)
    for _ in range(4):
        cfg = random_config(rng, 3)
        r = rng.uniform(1.1, 4.5)
        probe = dk_norm_probe(cfg, r, samples=6, seed=11)
        assert probe.bound >= probe.reference * (1 - 1e-9)


def test_pr_compare_examples():
    cfg = make_point_config((1, 2, 3))
    rep = pr_compare(cfg, 1.5)
    assert rep.match and rep.inertia_power_sum.as_tuple() == (2, 0, 1)
    rep = pr_compare(cfg, 0.5)
    assert rep.match and rep.inertia_power_sum.as_tuple() == (1, 0, 2)
    rep = pr_compare(cfg, 2)
    assert rep.match and rep.inertia_power_sum.as_tuple() == (2, 0, 1)


@pytest.mark.parametrize("n, r, expected", [
    (9, 1.5, (8, 0, 1)),   # L_2.5 built once at 53 bits reads (7, 0, 2), match False
    (11, 4.5, (3, 0, 8)),  # both built once at 53 bits read (4, 0, 7), match True
])
def test_pr_compare_rebuilds_both_matrices_per_rung(n, r, expected):
    # the theorem's inertia of L_{r+1}, on both sides of the comparison
    rep = pr_compare(make_point_config(range(1, n + 1)), r)
    assert rep.inertia_power_sum.as_tuple() == rep.inertia_loewner.as_tuple() == expected
    assert rep.match and rep.inertia_loewner == predicted_inertia(n, r + 1).inertia


@pytest.mark.parametrize("grid", [1, 0, -5])
def test_scan_policy_rejects_a_grid_under_two_points(grid):
    with pytest.raises(ValueError, match="at least 2 points"):
        ScanPolicy(grid=grid)
    assert ScanPolicy().grid == 100_000


@pytest.mark.parametrize("grid", [0, -1])
def test_complex_zero_scan_rejects_a_grid_under_one(grid):
    with pytest.raises(ValueError, match="at least 1"):
        complex_zero_scan(make_point_config((1, 2, 3)), (0.6, 1.4, -0.4, 0.4), grid=grid)


def test_loewner_nonsingular_away_from_integers():
    # corollary to the zero-count bound: well-conditioned determinant scale
    rng = random.Random(83)
    ctx = ToleranceContext()
    for _ in range(6):
        n = rng.randint(2, 5)
        cfg = random_config(rng, n)
        r = nonintegral(rng, 0.2, n + 1.3)
        L = loewner_matrix(LoewnerSpec.of(cfg, r), ctx)
        spec = eig_sym(L, ctx)
        thresh = ctx.zero_rel_tol * spec.scale * n
        assert all(abs(e) > thresh for e in spec.eigenvalues)


def test_ssr_implies_perron_simplicity():
    # compounds of an SSR matrix are one-signed; their top eigenvalue is simple
    # (tiny minors need extended precision to classify as nonzero)
    ctx = ToleranceContext.at_bits(256)
    cfg = make_point_config((1, 2, 3, 4))
    for r in (0.7, 2.5):
        L = loewner_matrix(LoewnerSpec.of(cfg, r), ctx)
        assert ssr_scan(L, tol=ctx).ssr_class == "SSR"
        for k in (1, 2, 3):
            comp = compound_matrix(L, k, ctx)
            signs = {1 if e > 0 else -1 for row in comp.entries for e in row}
            assert len(signs) == 1
            eigs = [abs(e) for e in eig_sym(comp, ctx).eigenvalues]
            eigs.sort(reverse=True)
            assert eigs[0] > eigs[1] * (1 + 1e-9)


# ---------------------------------------------------------------------------
# The complex determinant: LU with an error bound on the arithmetic seam


def _reference_det(cfg, z, bits=512):
    """det L_z by mpmath's own LU at ``bits``, an oracle independent of the
    package's LU."""
    with mp.workprec(bits):
        p = cfg.mp_points()
        zz = mpc(z)
        M = mp.matrix(cfg.n, cfg.n)
        for i in range(cfg.n):
            for j in range(cfg.n):
                M[i, j] = (zz * p[i] ** (zz - 1) if i == j
                           else (p[i] ** zz - p[j] ** zz) / (p[i] - p[j]))
        return mp.det(M)


@pytest.fixture
def complex_tiers(monkeypatch):
    """Record the arithmetic each complex-determinant rung is given."""
    seen = []
    original = ToleranceContext.complex_arith

    def spy(self, nodes, z):
        ar = original(self, nodes, z)
        seen.append((self.precision_bits, ar))
        return ar

    monkeypatch.setattr(ToleranceContext, "complex_arith", spy)
    return seen


@pytest.mark.parametrize("bits", [53, 256])
def test_complex_det_bound_holds_against_512_bits(bits):
    tol = ToleranceContext.at_bits(bits)
    rng = random.Random(707)
    resolved = {}
    for n in range(3, 11):
        resolved[n] = 0
        for _ in range(6):
            cfg = random_config(rng, n, lo=0.5, hi=6.0, min_gap=0.3)
            z = complex(rng.uniform(-1.0, n + 1.0), rng.uniform(-2.0, 2.0))
            value, bound = analysis._complex_det_rung(cfg, z, tol)
            if abs(value) <= bound:
                continue
            resolved[n] += 1
            assert complex_det(cfg, z, tol) == value
            with mp.workprec(512):
                assert abs(value - _reference_det(cfg, z)) <= bound
    assert all(resolved[n] == 6 for n in (3, 4, 5)), resolved


def test_complex_det_climbs_for_a_sample_53_bits_cannot_resolve(complex_tiers):
    # nodes 1..10 at 1.3+0.2i: the 53-bit LU has no correct digit
    cfg = make_point_config(range(1, 11))
    z = complex(1.3, 0.2)
    value, bound = analysis._complex_det_rung(cfg, z, ToleranceContext())
    assert abs(value) <= bound
    d = complex_det(cfg, z)
    assert [bits for bits, _ in complex_tiers][-2:] == [53, 256]
    value, bound = analysis._complex_det_rung(cfg, z, ToleranceContext.at_bits(256))
    assert d == value and abs(value) > bound
    with mp.workprec(512):
        ref = _reference_det(cfg, z)
        assert abs(d - ref) <= min(bound, 1e-12 * abs(ref))


def test_complex_det_far_right_is_not_a_zero():
    # |det| is about 1.6e1006 while mpmath's eps*||A|| singularity test reads 0 up to 256 bits
    cfg = make_point_config((1, 2, 3))
    d = complex_det(cfg, 800)
    with mp.workprec(512):
        ref = _reference_det(cfg, 800)
        assert ref.real < mpf("-1e1006")
        assert abs(d - ref) <= 1e-10 * abs(ref)


def test_complex_det_exact_zero_exhausts_the_ladder(complex_tiers):
    d = complex_det(make_point_config((1, 2, 3)), 1)
    assert d == 0 and type(d) is mpc
    assert [bits for bits, _ in complex_tiers] == [53, 256, 512]


def test_complex_float_tier_only_at_53_bits_inside_the_window(complex_tiers):
    cfg = make_point_config((1, 2, 3))
    complex_det(cfg, complex(1.5, 0.5))
    complex_det(cfg, complex(1.5, 0.5), ToleranceContext.at_bits(256))
    complex_det(cfg, 800)            # 3^800 is far above 2^200
    complex_det(cfg, complex(1.5, 1e70))  # Im z above the window: unresolved
    complex_det(cfg, complex(1.5, 1e-70))  # Im z below the window, nonzero
    assert complex_tiers[0] == (53, FLOAT_ARITH)
    assert complex_tiers[1] == (256, MP_ARITH)
    assert all(ar is MP_ARITH for _, ar in complex_tiers[2:])


def test_complex_det_outputs_stay_mpc():
    cfg = make_point_config((1, 2, 3))
    for z, tol in ((complex(1.5, 0.5), ToleranceContext()),
                   (complex(1.5, 0.5), ToleranceContext.at_bits(256)),
                   (800, ToleranceContext()), (1, ToleranceContext())):
        assert type(complex_det(cfg, z, tol)) is mpc


@pytest.mark.parametrize("z", [complex("nan"), complex(1, math.inf), math.inf,
                               mpc(mpf("nan"), 0)])
def test_complex_det_rejects_non_finite_exponents(z):
    with pytest.raises(ValueError, match="non-finite"):
        complex_det(make_point_config((1, 2, 3)), z)


@pytest.mark.parametrize("bounds", [(-math.inf, math.inf, -1, 1), (0, 1, -1, math.nan),
                                    (0, 1, -math.inf, 1)])
def test_rect_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        Rect(*bounds)


def test_det_any_matches_mpmath_lu():
    rng = random.Random(709)
    for bits in (53, 128):
        tol = ToleranceContext.at_bits(bits)
        for n in (2, 3, 4, 5):
            rows = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
            with mp.workprec(bits + 64):
                ref = mp.det(mp.matrix(rows))
            with mp.workprec(bits):
                d = analysis._det_any(rows, tol)
                assert type(d) is mpf
                assert abs(d - ref) <= 64 * n * 2.0 ** -bits * mp.fsum(
                    abs(v) for v in rows[0]) ** n
    with mp.workprec(53):
        assert analysis._det_any([[1.5, 1.5], [1.5, 1.5]], ToleranceContext()) == 0


@pytest.mark.parametrize("scale", [1e-50, 1e50])
def test_det_any_keeps_the_range_beyond_floats(scale):
    # float entries, determinant near 1e-350 or 1e350: beyond the float range
    rng = random.Random(711)
    rows = [[rng.uniform(1, 2) * scale for _ in range(7)] for _ in range(7)]
    with mp.workprec(53):
        d = analysis._det_any(rows, ToleranceContext())
    with mp.workprec(128):
        ref = mp.det(mp.matrix(rows))
        assert abs(d - ref) <= 1e-10 * abs(ref)
    assert ssr_scan(rows).per_k[-1] == ('+' if ref > 0 else '-')


def test_complex_det_beyond_the_float_range_keeps_the_float_tier(complex_tiers):
    # entries inside the float window, their product of pivots above 2^1000
    cfg = make_point_config(range(1, 9))
    d = complex_det(cfg, 60)
    assert complex_tiers == [(53, FLOAT_ARITH)]
    value, bound = analysis._complex_det_rung(cfg, 60, ToleranceContext())
    with mp.workprec(512):
        ref = _reference_det(cfg, 60)
        assert abs(ref) > mpf(2) ** 1200
        assert abs(d - ref) <= bound


def test_complex_det_bound_covers_the_rounding_of_z_log_p():
    # |z log p| ~ 1e6: each p^z is off by about 1e6 eps, far above the LU's own error
    cfg = make_point_config((1, 2, 3))
    z = complex(0.5, 1e6)
    value, bound = analysis._complex_det_rung(cfg, z, ToleranceContext())
    assert abs(value) > bound
    with mp.workprec(512):
        err = abs(value - _reference_det(cfg, z))
    assert 1e4 * 2.0 ** -52 * abs(value) < err <= bound


@pytest.mark.parametrize("nodes, z", [
    ((1, 1.000001, 2), complex(2.5, 0.5)),      # p_i^z - p_j^z cancels over a gap of 1e-6
    ((0.7, 0.70000005, 2), complex(-0.75, 4500)),  # and the rounding of z log p is divided by it
])
def test_complex_det_bound_covers_close_nodes(nodes, z):
    # the 53-bit value is off by 100% and 9% here: only the off-diagonal entry
    # errors, which grow as 1/|p_i - p_j|, keep it from counting as resolved
    cfg = make_point_config(nodes)
    value, bound = analysis._complex_det_rung(cfg, z, ToleranceContext())
    assert abs(value) <= bound
    d = complex_det(cfg, z)
    with mp.workprec(512):
        ref = _reference_det(cfg, z)
        assert abs(value - ref) > 0.05 * abs(ref)
        assert abs(d - ref) <= 1e-30 * abs(ref)


def test_lu_bound_covers_the_factorisation_error():
    # exact float entries (no entry error): the backward error alone must cover det
    for n in (4, 6, 8):
        rows = [[1.0 / (i + j + 1) for j in range(n)] for i in range(n)]
        exact = det_fraction([[Fraction(v) for v in row] for row in rows])
        F = [row[:] for row in rows]
        order, sign = analysis._lu_factor(F)
        det = math.prod((F[k][k] for k in range(n)), start=sign)
        rel = analysis._lu_relative_bound(F, order, [[0.0] * n for _ in range(n)], 2.0 ** -52)
        err = abs(Fraction(det) - exact) / abs(exact)
        assert 2 * n * 2.0 ** -52 < err <= rel


def test_phase_keeps_the_range_of_mpc():
    for v in (mpc(-3, 4), mpc(mpf("-1.6e1006"), mpf("1e1005")),
              mpc(mpf("1e-400"), mpf("-2e-400")), mpc(mpf("1e-400"), 1)):
        assert analysis._phase(v) == pytest.approx(float(mp.arg(v)), abs=1e-15)
