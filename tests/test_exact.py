import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loewnerlab.exact import det_fraction, rank_fraction, rational_inertia

from helpers import (
    bareiss_inertia_full_rows,
    charpoly_inertia,
    mat_mul,
    perm_det,
    random_symmetric_int,
    transpose,
)


def test_det_matches_permutation_expansion():
    rng = random.Random(1)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)]
            assert det_fraction(rows) == perm_det(rows)


def test_det_singular():
    assert det_fraction([[1, 2], [2, 4]]) == 0


def test_rank_cases():
    assert rank_fraction([[1, 1], [1, 1]]) == 1
    assert rank_fraction([[0, 0], [0, 0]]) == 0
    assert rank_fraction([[1, 0, 2], [0, 1, 3]]) == 2


def test_rank_of_rectangular_input():
    assert rank_fraction([[1, 2, 3], [2, 4, 6]]) == 1
    assert rank_fraction([[1, 2, 3], [Fraction(1, 3), 0, -1]]) == 2
    assert rank_fraction([[1, 2], [3, 4], [4, 6]]) == 2
    assert rank_fraction([[1, 2], [2, 4], [-3, -6]]) == 1


@pytest.mark.parametrize("rows", [[[1], [2, 3]], [[1, 2], [3]], [[1, 2], []]])
def test_rank_rejects_ragged_rows(rows):
    with pytest.raises(ValueError):
        rank_fraction(rows)


def test_inertia_diagonal():
    assert rational_inertia([[1, 0, 0], [0, -2, 0], [0, 0, 0]]).as_tuple() == (1, 1, 1)


def test_inertia_zero_diagonal_trick():
    assert rational_inertia([[0, 1], [1, 0]]).as_tuple() == (1, 0, 1)
    assert rational_inertia([[0, 2, 0], [2, 0, 0], [0, 0, 0]]).as_tuple() == (1, 1, 1)


def test_inertia_requires_symmetry():
    with pytest.raises(ValueError):
        rational_inertia([[1, 2], [3, 4]])


def test_inertia_congruence_invariant():
    # Sylvester's law, checked exactly: X^T A X has the inertia of A
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 6)
        A = random_symmetric_int(rng, n)
        while True:
            X = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if perm_det(X) != 0:
                break
        B = mat_mul(mat_mul(transpose(X), A), X)
        assert rational_inertia(B) == rational_inertia(A)


def test_inertia_matches_the_characteristic_polynomial():
    # Descartes' rule on the Faddeev-LeVerrier coefficients shares no code
    # with the elimination; a zero diagonal forces the row/column trick
    rng = random.Random(11)
    for trial in range(150):
        n = rng.randint(1, 7)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i == j and trial % 3 == 0:
                    continue
                v = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 64, 1024)))
                rows[i][j] = rows[j][i] = v
        assert rational_inertia(rows).as_tuple() == charpoly_inertia(rows)


@st.composite
def _symmetric_rows(draw):
    """Symmetric int or Fraction matrices of order 1..8, some with a zero
    diagonal (the pair congruence) and some rank deficient (a product
    X^T D X with fewer columns than rows)."""
    n = draw(st.integers(1, 8))
    fractions = draw(st.booleans())
    value = (st.fractions(min_value=-6, max_value=6, max_denominator=5) if fractions
             else st.integers(-6, 6))
    kind = draw(st.sampled_from(("plain", "zero_diagonal", "low_rank")))
    if kind == "low_rank":
        k = draw(st.integers(0, n - 1))
        X = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
        D = [draw(value) for _ in range(k)]
        return [[sum(D[t] * X[t][i] * X[t][j] for t in range(k)) for j in range(n)]
                for i in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if not (i == j and kind == "zero_diagonal"):
                rows[i][j] = rows[j][i] = draw(value)
    return rows


@settings(max_examples=300, deadline=None)
@given(_symmetric_rows())
def test_one_triangle_elimination_matches_the_full_row_reference(rows):
    assert rational_inertia(rows).as_tuple() == bareiss_inertia_full_rows(rows)
