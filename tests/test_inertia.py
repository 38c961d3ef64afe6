import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mpf

from loewnerlab import (
    EigenConvergenceError,
    Inertia,
    InertiaReport,
    LoewnerSpec,
    Spectrum,
    SymMatrix,
    ToleranceContext,
    consensus_inertia,
    eig_sym,
    inertia,
    inertia_exact_integer,
    inertia_from_spectrum,
    inertia_ldl,
    loewner_matrix,
    make_point_config,
    ones_E,
)
from loewnerlab.exact import rational_inertia

from helpers import (
    eig_2x2,
    mat_mul,
    perm_det,
    random_config,
    random_rational_config,
    random_symmetric_int,
    transpose,
)


def test_eig_matches_2x2_closed_form():
    spec = eig_sym(SymMatrix.from_rows([[2, 3], [3, 4]]))
    lo, hi = eig_2x2(2.0, 3.0, 4.0)  # 3 -+ sqrt(10)
    assert abs(spec.eigenvalues[0] - lo) < 1e-12
    assert abs(spec.eigenvalues[1] - hi) < 1e-12


def test_eig_identity():
    spec = eig_sym(SymMatrix.diagonal([1, 1, 1]))
    assert all(abs(e - 1) < 1e-14 for e in spec.eigenvalues)


def test_eig_all_ones():
    spec = eig_sym(ones_E(3))
    assert abs(spec.eigenvalues[2] - 3) < 1e-12
    assert all(abs(e) < 1e-12 for e in spec.eigenvalues[:2])


def test_eig_matches_numpy_on_random_matrices():
    rng = random.Random(13)
    for n in range(2, 9):
        for _ in range(5):
            rows = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)]
            M = SymMatrix.build(n, lambda i, j: rows[i][j])
            ours = [float(e) for e in eig_sym(M).eigenvalues]
            ref = np.linalg.eigvalsh(np.array([[float(e) for e in row]
                                               for row in M.entries]))
            scale = max(1.0, max(abs(v) for v in ref))
            assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(ours, sorted(ref)))


def test_eig_nonconvergence_raises():
    with pytest.raises(EigenConvergenceError):
        eig_sym(ones_E(3), max_sweeps=0)


def test_inertia_from_spectrum_cases():
    ctx = ToleranceContext()
    lo, hi = eig_2x2(2.0, 3.0, 4.0)
    from loewnerlab.inertia import Spectrum
    s = Spectrum((mpf(lo), mpf(hi)), mpf(0))
    assert inertia_from_spectrum(s, max(abs(lo), abs(hi)), ctx).as_tuple() == (1, 0, 1)
    s = Spectrum((mpf(0), mpf(0), mpf(3)), mpf(0))
    assert inertia_from_spectrum(s, 3, ctx).as_tuple() == (1, 2, 0)
    s = Spectrum((mpf(-5),), mpf(0))
    assert inertia_from_spectrum(s, 5, ctx).as_tuple() == (0, 0, 1)


def test_ldl_cases():
    assert inertia_ldl(SymMatrix.from_rows([[2, 3], [3, 4]])).as_tuple() == (1, 0, 1)
    assert inertia_ldl(ones_E(3)).as_tuple() == (1, 2, 0)
    assert inertia_ldl(SymMatrix.diagonal([1, -2, 0])).as_tuple() == (1, 1, 1)


def test_routes_agree_on_random_corpus():
    rng = random.Random(17)
    for n in range(1, 9):
        for _ in range(8):
            rows = random_symmetric_int(rng, n)
            M = SymMatrix.from_rows(rows)
            rep = inertia(M)
            assert not rep.disagreement
            assert rep.by_eigen == rep.by_ldl == rational_inertia(rows)


def test_sylvester_law_float_routes():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 8)
        A = random_symmetric_int(rng, n)
        while True:
            X = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if perm_det(X) != 0:
                break
        B = mat_mul(mat_mul(transpose(X), A), X)
        assert inertia(SymMatrix.from_rows(B)).consensus == inertia(SymMatrix.from_rows(A)).consensus


def test_generalized_sylvester_exact():
    # congruence by a full-row-rank rectangular X pads the inertia with zeros
    from loewnerlab.exact import rank_fraction
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(2, 7)
        m = rng.randint(1, n)
        A = random_symmetric_int(rng, m)
        while True:
            X = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            if rank_fraction(X) == m:
                break
        B = mat_mul(mat_mul(transpose(X), A), X)
        assert rational_inertia(B) == rational_inertia(A).padded(n - m)


def test_reflection_swaps_inertia():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 5)
        cfg = random_config(rng, n)
        r = rng.uniform(0.1, n + 1.5)
        if abs(r - round(r)) < 0.05:
            r += 0.06
        pos_rep = consensus_inertia(loewner_matrix(LoewnerSpec.of(cfg, r)))
        neg_rep = consensus_inertia(loewner_matrix(LoewnerSpec.of(cfg, -r)))
        assert neg_rep.consensus == pos_rep.consensus.swapped()


def test_exact_integer_examples():
    assert inertia_exact_integer(make_point_config((1, 2, 3)), 2).as_tuple() == (1, 1, 1)
    assert inertia_exact_integer(make_point_config((1, 2, 3, 4)), 3).as_tuple() == (2, 1, 1)
    assert inertia_exact_integer(make_point_config((1, 2)), 1).as_tuple() == (1, 1, 0)


def test_exact_integer_rejects_bad_input():
    cfg = make_point_config((1, 2))
    with pytest.raises(ValueError):
        inertia_exact_integer(cfg, 1.5)
    assert inertia_exact_integer(cfg, 0).as_tuple() == (0, 2, 0)  # L_0 is the zero matrix
    with pytest.raises(ValueError):
        inertia_exact_integer(make_point_config((1.5, 2.5)), 2)


def test_exact_agrees_with_float_routes_at_256_bits():
    rng = random.Random(37)
    ctx = ToleranceContext.at_bits(256)
    for _ in range(6):
        n = rng.randint(2, 5)
        cfg = random_rational_config(rng, n)
        for r in range(1, n + 1):
            by_exact = inertia_exact_integer(cfg, r)
            rep = inertia(loewner_matrix(LoewnerSpec.of(cfg, r), ctx), ctx)
            assert not rep.disagreement
            assert rep.consensus == by_exact


def test_consensus_examples():
    cfg = make_point_config((1, 2, 3))
    assert inertia(loewner_matrix(LoewnerSpec.of(cfg, 2.5))).consensus.as_tuple() == (2, 0, 1)
    assert inertia(loewner_matrix(LoewnerSpec.of(cfg, 1.5))).consensus.as_tuple() == (1, 0, 2)
    assert inertia(ones_E(4)).consensus.as_tuple() == (1, 3, 0)


def test_exact_hint_joins_consensus():
    cfg = make_point_config((1, 2, 3))
    L = loewner_matrix(LoewnerSpec.of(cfg, 2))
    rep = inertia(L, exact_hint=(cfg, 2))
    assert rep.by_exact is not None
    assert not rep.disagreement
    assert rep.consensus.as_tuple() == (1, 1, 1)


@pytest.mark.parametrize("eigen, ldl, exact, consensus, disagreement", [
    ((1, 1, 1), (1, 1, 1), None, (1, 1, 1), False),
    ((1, 1, 1), (2, 0, 1), None, (1, 1, 1), True),
    ((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1), False),
    ((2, 0, 1), (2, 0, 1), (1, 1, 1), (1, 1, 1), True),
    ((2, 0, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1), True),
])
def test_report_derives_consensus_and_disagreement(eigen, ldl, exact, consensus, disagreement):
    spec = Spectrum((mpf(-1), mpf(0), mpf(1)), mpf(0))
    rep = InertiaReport(Inertia(*eigen), Inertia(*ldl),
                        None if exact is None else Inertia(*exact), spec)
    assert rep.consensus.as_tuple() == consensus
    assert rep.disagreement is disagreement
