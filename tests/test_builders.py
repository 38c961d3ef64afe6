import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from loewnerlab import (
    ToleranceContext,
    antidiag_V,
    cross_loewner,
    diag_D,
    loewner_matrix,
    loewner_matrix_exact,
    make_point_config,
    ones_E,
    power_sum_matrix,
    sinh_loewner,
    vandermonde_W,
)
from loewnerlab.builders import integer_nodes, loewner_twin
from loewnerlab.exact import rank_fraction, rational_inertia

from helpers import mat_mul, perm_det, random_rational_config, transpose


def close(x, y, tol=1e-13):
    return abs(mpf(x) - mpf(y)) <= tol * max(1, abs(mpf(y)))


def test_loewner_squares_two_points():
    L = loewner_matrix(make_point_config((1, 2)), 2)
    assert L.entries == ((2, 3), (3, 4))


def test_loewner_r1_is_all_ones():
    L = loewner_matrix(make_point_config((1, 2, 3)), 1)
    assert all(e == 1 for row in L.entries for e in row)


def test_loewner_square_root_nodes():
    L = loewner_matrix(make_point_config((1, 4)), 0.5)
    assert close(L[0, 0], 0.5)
    assert close(L[0, 1], mpf(1) / 3)
    assert close(L[1, 1], 0.25)


def test_diagonal_uses_derivative_rule():
    cfg = make_point_config((0.7, 1.9, 3.1))
    r = 2.3
    L = loewner_matrix(cfg, r)
    for i, p in enumerate(cfg.points):
        assert close(L[i, i], mpf(r) * mpf(p) ** mpf(r - 1))


@settings(deadline=None, max_examples=30)
@given(c=st.floats(min_value=0.1, max_value=8.0),
       r=st.floats(min_value=-3.0, max_value=5.0))
def test_scaling_covariance(c, r):
    cfg = make_point_config((0.5, 1.0, 2.3))
    L = loewner_matrix(cfg, r)
    Ls = loewner_matrix(cfg.scaled(c), r)
    factor = mpf(c) ** (mpf(r) - 1)
    for i in range(3):
        for j in range(3):
            assert abs(Ls[i, j] - factor * L[i, j]) <= 1e-9 * abs(factor * L[i, j]) + 1e-300


def test_exact_symmetry_random_exponents():
    rng = random.Random(3)
    for _ in range(10):
        pts = sorted(round(rng.uniform(0.1, 9), 4) for _ in range(4))
        if len(set(pts)) < 4:
            continue
        L = loewner_matrix(make_point_config(pts), rng.uniform(-4, 6))
        for i in range(4):
            for j in range(4):
                assert L[i, j] == L[j, i]


def test_sinh_r1_all_ones():
    M = sinh_loewner((0.1, 0.2), 1)
    assert all(e == 1 for row in M.entries for e in row)


def test_sinh_single_point_is_r():
    assert sinh_loewner((0.0,), 3).entries == ((3,),)


def test_sinh_requires_increasing():
    with pytest.raises(ValueError):
        sinh_loewner((0.2, 0.1), 1)


def test_sinh_congruence_matches_loewner():
    # nodes p_i = e^{2 x_i}; conjugating by diag(e^{(r-1) x_i}) recovers L_r
    cfg = make_point_config((1, 2))
    r = 1.5
    xs = [mp.log(p) / 2 for p in cfg.mp_points()]
    Lt = sinh_loewner(xs, r)
    delta = [mp.exp((mpf(r) - 1) * x) for x in xs]
    L = loewner_matrix(cfg, r)
    for i in range(2):
        for j in range(2):
            assert abs(delta[i] * Lt[i, j] * delta[j] - L[i, j]) <= 1e-12 * abs(L[i, j])


def test_diag_and_ones():
    cfg = make_point_config((1, 2, 3))
    assert diag_D(cfg).entries == ((1, 0, 0), (0, 2, 0), (0, 0, 3))
    assert diag_D(make_point_config((5,))).entries == ((5,),)
    E = ones_E(3)
    assert all(e == 1 for row in E.entries for e in row)
    assert rank_fraction(E.entries) == 1
    assert ones_E(1).entries == ((1,),)


def test_vandermonde_examples():
    cfg = make_point_config((1, 2, 3))
    W = vandermonde_W(cfg, 2)
    assert W == ((1, 1, 1), (1, 2, 3))
    assert vandermonde_W(make_point_config((1, 2)), 1) == ((1, 1),)
    with pytest.raises(ValueError):
        vandermonde_W(cfg, 2.5)


def test_float_nodes_give_mpf_factors():
    cfg = make_point_config((0.5, 2.0))
    assert diag_D(cfg).entries == ((mpf(0.5), 0), (0, mpf(2)))
    assert vandermonde_W(cfg, 2) == ((1, 1), (mpf(0.5), mpf(2)))
    entries = [e for row in diag_D(cfg).entries + vandermonde_W(cfg, 2) for e in row]
    assert all(type(e) is mpf for e in entries)


def test_vandermonde_rank_is_min_r_n():
    rng = random.Random(11)
    for _ in range(5):
        cfg = random_rational_config(rng, 4)
        for r in range(1, 7):
            assert rank_fraction(vandermonde_W(cfg, r)) == min(r, 4)


def test_antidiag_examples():
    assert antidiag_V(1).entries == ((1,),)
    assert antidiag_V(2).entries == ((0, 1), (1, 0))
    assert rational_inertia(antidiag_V(2).entries).as_tuple() == (1, 0, 1)
    assert rational_inertia(antidiag_V(3).entries).as_tuple() == (2, 0, 1)


@pytest.mark.parametrize("r", range(1, 8))
def test_antidiag_eigenvalue_counts(r):
    k = (r + 1) // 2
    ine = rational_inertia(antidiag_V(r).entries)
    expected = (k, 0, k) if r % 2 == 0 else (k, 0, k - 1)
    assert ine.as_tuple() == expected


def test_wvw_factorization_exact():
    rng = random.Random(5)
    for _ in range(4):
        cfg = random_rational_config(rng, 4)
        for r in range(1, 5):
            W = [list(row) for row in vandermonde_W(cfg, r)]
            V = [list(row) for row in antidiag_V(r).entries]
            product = mat_mul(mat_mul(transpose(W), V), W)
            L = loewner_matrix_exact(cfg, r)
            for i in range(4):
                for j in range(4):
                    assert product[i][j] == L[i, j]


def test_loewner_exact_negative_exponent():
    cfg = make_point_config((1, 2))
    L = loewner_matrix_exact(cfg, -1)
    # (p^-1 - q^-1)/(p - q) = -1/(p q)
    assert L[0, 1] == Fraction(-1, 2)
    assert L[0, 0] == -1
    assert loewner_matrix_exact(cfg, 0).entries == ((0, 0), (0, 0))


def test_loewner_exact_requires_rational_integer():
    with pytest.raises(ValueError):
        loewner_matrix_exact(make_point_config((1.5, 2.5)), 2)
    with pytest.raises(ValueError):
        loewner_matrix_exact(make_point_config((1, 2)), 2.5)


def test_power_sum_examples():
    cfg = make_point_config((1, 2))
    assert power_sum_matrix(cfg, 1).entries == ((2, 3), (3, 4))
    assert all(e == 1 for row in power_sum_matrix(cfg, 0).entries for e in row)
    P = power_sum_matrix(make_point_config((1, 2, 3)), 2)
    assert P.entries == ((4, 9, 16), (9, 16, 25), (16, 25, 36))


def test_cross_loewner_reduces_to_loewner():
    cfg = make_point_config((1, 2, 3))
    C = cross_loewner(cfg, cfg, 1.7)
    L = loewner_matrix(cfg, 1.7)
    for i in range(3):
        for j in range(3):
            assert abs(C[i][j] - L[i, j]) <= 1e-13 * abs(L[i, j])


def test_cross_loewner_squares():
    C = cross_loewner(make_point_config((1, 2)), make_point_config((3, 4)), 2)
    assert C == ((4, 5), (5, 6))


def test_cross_loewner_nonsingular_fractional_r():
    # nonsingularity of the two-sequence matrix away from integer exponents
    C = cross_loewner(make_point_config((1, 2)), make_point_config((3, 4)), 1.5)
    assert abs(perm_det([list(r) for r in C])) > 1e-8


def test_cross_loewner_length_mismatch():
    with pytest.raises(ValueError):
        cross_loewner(make_point_config((1, 2)), make_point_config((1, 2, 3)), 2)


@pytest.mark.parametrize("m", [-3, 0, 1, 2, 11])
@pytest.mark.parametrize("cfg", [
    make_point_config((Fraction(1, 3), Fraction(1, 2), 2, Fraction(7, 2), 5)),
    make_point_config((0.7, 1.5, 2.3, 3.1, 3.9, 4.6, 5.4, 6.2, 7.1, 7.9, 8.8, 9.6)).ensure_exact(),
], ids=["rational-5", "float-12"])
def test_loewner_exact_equals_the_per_entry_formula(cfg, m):
    p = cfg.exact
    L = loewner_matrix_exact(cfg, m)
    for i in range(cfg.n):
        for j in range(cfg.n):
            want = m * p[i] ** (m - 1) if i == j else (p[i] ** m - p[j] ** m) / (p[i] - p[j])
            assert L[i, j] == want


def _plain_quotients(p, m):
    """L_m over Q by the plain quotient and the diagonal limit, entry by entry."""
    return [[m * a ** (m - 1) if a == b else (a ** m - b ** m) / (a - b) for b in p] for a in p]


_TWIN_CONFIGS = [
    make_point_config(range(1, 7)),
    make_point_config((Fraction(1, 3), Fraction(1, 2), 2, Fraction(7, 2), 5)),
    make_point_config((0.7, 1.5, 2.3, 3.1, 3.9, 4.6)).ensure_exact(),
]


@pytest.mark.parametrize("cfg", _TWIN_CONFIGS, ids=["integer", "rational", "float"])
def test_integer_twin_is_c_to_the_m_minus_1_times_the_exact_matrix(cfg):
    # entry by entry against the plain quotients at p, which share no code
    # with the twin: L_m(q) = c^(m-1) L_m(p) for m >= 0 (the zero matrix at
    # m = 0), and -L_|m|(q) = c^(m-1) (q_i q_j)^|m| L_m(p) for m < 0
    c, q = integer_nodes(cfg)
    assert all(type(x) is int for x in q) and q == tuple(c * x for x in cfg.exact)
    for m in range(-3, cfg.n + 3):
        rows = loewner_twin(q, m)
        L = _plain_quotients(cfg.exact, m)
        assert all(type(e) is int for row in rows for e in row)
        assert all(rows[i][j] == Fraction(c) ** (m - 1) * (q[i] * q[j]) ** max(-m, 0) * L[i][j]
                   for i in range(cfg.n) for j in range(cfg.n)), m


@pytest.mark.parametrize("cfg", _TWIN_CONFIGS, ids=["integer", "rational", "float"])
def test_integer_twin_has_the_inertia_of_the_fraction_matrix(cfg):
    # a positive diagonal congruence of L_m: c^(m-1) L_m(p) for m >= 1, and
    # -L_|m|(q), by the reflection identity, for m < 0
    q = integer_nodes(cfg)[1]
    for m in range(-3, cfg.n + 3):
        assert rational_inertia(loewner_twin(q, m)) == rational_inertia(
            _plain_quotients(cfg.exact, m)), m
