import importlib
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from loewnerlab import (
    Inertia,
    LoewnerSpec,
    ToleranceContext,
    conditional_inertia,
    consensus_inertia,
    inertia_exact_integer,
    loewner_matrix,
    make_point_config,
    predicted_inertia,
    prop21_check,
    subspace_basis,
    verify_identities,
    verify_instance,
)

from helpers import random_config, random_rational_config

inertia_mod = importlib.import_module("loewnerlab.inertia")


def test_predicted_examples():
    assert predicted_inertia(6, 3).inertia.as_tuple() == (2, 3, 1)
    assert predicted_inertia(6, 3.5).inertia.as_tuple() == (2, 0, 4)
    assert predicted_inertia(5, 7.2).inertia.as_tuple() == (3, 0, 2)
    assert predicted_inertia(3, -1.5).inertia.as_tuple() == (2, 0, 1)
    assert predicted_inertia(6, 3).rule == "ii"
    assert predicted_inertia(6, 3.5).rule == "iii"
    assert predicted_inertia(5, 7.2).rule == "iv"
    assert predicted_inertia(3, -1.5).rule == "reflection"


def test_predicted_zero_exponent():
    assert predicted_inertia(4, 0).inertia.as_tuple() == (0, 4, 0)
    with pytest.raises(ValueError):
        predicted_inertia(4, 0, allow_zero=False)


def test_predicted_negative_integer():
    assert predicted_inertia(4, -3).inertia == predicted_inertia(4, 3).inertia.swapped()


def test_predicted_interval_constancy():
    # clause (iii): constant on each open unit interval below n
    for n in (3, 5):
        for m in range(0, n):
            vals = {predicted_inertia(n, m + t).inertia for t in (0.03, 0.5, 0.97)}
            assert len(vals) == 1


def test_predicted_freezes_past_n_minus_1():
    for n in (2, 3, 4, 5, 6):
        ref = predicted_inertia(n, n).inertia
        for r in (n - 0.5, float(n), n + 0.7, n + 4, n + 11.3):
            assert predicted_inertia(n, r).inertia == ref


def test_predicted_matches_exact_route():
    rng = random.Random(41)
    for n in range(2, 7):
        cfg = random_rational_config(rng, n)
        for r in range(1, n + 1):
            assert predicted_inertia(n, r).inertia == inertia_exact_integer(cfg, r)


def test_predicted_matches_exact_route_on_promoted_float_nodes():
    # float nodes are binary rationals with 2^52-sized denominators
    rng = random.Random(43)
    for n in range(8, 13):
        cfg = random_config(rng, n).ensure_exact()
        for m in range(1, n + 1):
            assert predicted_inertia(n, m).inertia == inertia_exact_integer(cfg, m)


def test_verify_instance_examples():
    rep = verify_instance(make_point_config((1, 2, 3, 4, 5, 6)), 2.5)
    assert rep.match and rep.computed.as_tuple() == (5, 0, 1)
    rep = verify_instance(make_point_config((1, 2)), 1)
    assert rep.match and rep.computed.as_tuple() == (1, 1, 0)
    rep = verify_instance(make_point_config((2, 3, 5, 7)), 3)
    assert rep.match and rep.computed.as_tuple() == (2, 1, 1)


@pytest.mark.parametrize("r", [-3, -2])
def test_verify_instance_runs_the_exact_route_at_a_negative_integer(monkeypatch, r):
    calls = []
    original = inertia_mod.inertia_exact_integer

    def counted(config, m):
        calls.append(m)
        return original(config, m)

    monkeypatch.setattr(inertia_mod, "inertia_exact_integer", counted)
    rep = verify_instance(make_point_config((1, 2, 3, 4)), r)
    assert calls == [r]
    assert rep.match and not rep.disagreement
    assert rep.computed == predicted_inertia(4, r).inertia


def test_verify_instance_near_integer_escalates():
    rep = verify_instance(make_point_config((1, 2, 3, 4)), 2 + 1e-7)
    assert rep.match
    assert rep.precision_bits >= 256
    assert rep.computed.as_tuple() == (3, 0, 1)


def test_verify_instance_float_nodes_at_integer_exponent():
    # float nodes are binary rationals, so the exact route still applies
    rep = verify_instance(make_point_config((0.5, 1.25, 2.75)), 2)
    assert rep.match and rep.computed.as_tuple() == (1, 1, 1)


def test_subspace_basis_two_points():
    basis = subspace_basis(make_point_config((1, 2)), 1)
    col = [basis[0][0], basis[1][0]]
    ref = 1 / mp.sqrt(2)
    assert abs(abs(col[0]) - ref) < 1e-14
    assert abs(col[0] + col[1]) < 1e-14


def test_subspace_basis_three_points_k2():
    basis = subspace_basis(make_point_config((1, 2, 3)), 2)
    col = [basis[i][0] for i in range(3)]
    ref = [1 / mp.sqrt(6), -2 / mp.sqrt(6), 1 / mp.sqrt(6)]
    sign = 1 if col[0] > 0 else -1
    assert all(abs(sign * c - e) < 1e-13 for c, e in zip(col, ref))


def test_subspace_basis_orthonormal_and_annihilated():
    rng = random.Random(43)
    for n in (3, 5, 6):
        cfg = random_config(rng, n)
        for k in (1, n - 1):
            basis = subspace_basis(cfg, k)
            cols = list(zip(*basis))
            assert len(cols) == n - k
            for a in range(len(cols)):
                for b in range(a, len(cols)):
                    dot = mp.fsum(x * y for x, y in zip(cols[a], cols[b]))
                    assert abs(dot - (1 if a == b else 0)) < 1e-12
            for j in range(k):
                moments = [mpf(p) ** j for p in cfg.points]
                for col in cols:
                    assert abs(mp.fsum(m * c for m, c in zip(moments, col))) < 1e-9


def test_subspace_basis_rejects_bad_k():
    cfg = make_point_config((1, 2, 3))
    with pytest.raises(ValueError):
        subspace_basis(cfg, 3)
    with pytest.raises(ValueError):
        subspace_basis(cfg, 0)


def test_conditional_inertia_examples():
    cfg = make_point_config((1, 2, 3))
    assert conditional_inertia(cfg, 1.5, 1).as_tuple() == (0, 0, 2)
    assert conditional_inertia(cfg, 2.5, 1).as_tuple() == (2, 0, 0)
    cfg5 = make_point_config((1, 2, 3, 4, 5))
    assert conditional_inertia(cfg5, 3.5, 2).as_tuple() == (0, 0, 3)


def test_positive_definite_below_one():
    # operator monotonicity regime: the full matrix is positive definite
    rng = random.Random(47)
    for n in (2, 4):
        cfg = random_config(rng, n)
        rep = consensus_inertia(loewner_matrix(LoewnerSpec.of(cfg, 0.37)))
        assert rep.consensus == Inertia(n, 0, 0)


def test_prop21_examples():
    assert prop21_check(make_point_config((1, 2)), 3)
    assert prop21_check(make_point_config((1, 2, 3, 4)), 1.01)
    with pytest.raises(ValueError):
        prop21_check(make_point_config((1, 2)), 0.5)


def test_prop21_two_by_two_determinant_negative():
    # independent check: det [[3, 7], [7, 12]] = -13 for p=(1,2), r=3
    L = loewner_matrix(LoewnerSpec.of(make_point_config((1, 2)), 3))
    det = L[0, 0] * L[1, 1] - L[0, 1] * L[1, 0]
    assert abs(det - (-13)) < 1e-10
    assert consensus_inertia(L).consensus.as_tuple() == (1, 0, 1)


def test_identities_power_step_all_ones_case():
    # r=2 on two nodes: L_0 vanishes, so L_2 = DE + ED = [p_i + p_j]
    res = verify_identities(make_point_config((1, 2)), 2)
    assert res.power_step_exact
    assert res.power_step == 0


def test_identities_float_residuals_small():
    res = verify_identities(make_point_config((1, 2, 3)), 1.5)
    assert res.reflection <= 1e-12
    assert res.sinh_congruence <= 1e-12
    assert res.power_step <= 1e-12
    assert not res.power_step_exact


def test_identities_exact_power_step():
    res = verify_identities(make_point_config((1, 2, 3)), 3)
    assert res.power_step_exact
    assert res.power_step == 0


def test_identities_residuals_random():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(2, 5)
        cfg = random_config(rng, n)
        r = rng.uniform(0.3, 5.5)
        res = verify_identities(cfg, r)
        assert res.max_residual <= 1e-10


def test_nonzero_eigenvalues_simple():
    # every nonzero eigenvalue is simple: check gaps at an integer exponent
    from loewnerlab import eig_sym
    ctx = ToleranceContext()
    cfg = make_point_config((1, 2, 3, 4, 5))
    for r in (2, 3, 2.5, 4.5):
        spec = eig_sym(loewner_matrix(LoewnerSpec.of(cfg, r), ctx), ctx)
        scale = spec.scale
        thresh = ctx.zero_rel_tol * scale * cfg.n
        nonzero = [e for e in spec.eigenvalues if abs(e) > thresh]
        gaps = [abs(a - b) for a, b in zip(nonzero, nonzero[1:])]
        assert all(g > thresh for g in gaps)


# The precision ladder's outcome on instances that stop at each rung, as
# (precision_bits, escalations, match, disagreement, computed).
@pytest.mark.parametrize("points, r, outcome", [
    ((1, 2, 3), 2.5, (53, 0, True, False, (2, 0, 1))),
    ((1, 2, 3), 2 + 1e-8, (256, 0, True, False, (2, 0, 1))),  # near-integer: starts one up
    (tuple(range(1, 9)), 7, (256, 1, True, False, (4, 1, 3))),
    (tuple(range(1, 7)), 3.5, (256, 1, True, False, (2, 0, 4))),
    # The ladder runs out: the routes agree at 512 bits on an inertia the
    # theorem does not predict (the smallest eigenvalue stays under the
    # zero threshold at every rung).
    ((1.0, 1.01, 1.02), 80000.5, (512, 2, False, False, (1, 1, 1))),
])
def test_ladder_outcomes(points, r, outcome):
    rep = verify_instance(make_point_config(points), r)
    assert (rep.precision_bits, rep.escalations, rep.match, rep.disagreement,
            rep.computed.as_tuple()) == outcome


def test_conditional_inertia_rebuilds_the_compression_per_rung():
    # the compression built once at 53 bits reads (1, 0, 8)
    assert conditional_inertia(make_point_config(range(1, 11)), 1.5, 1) == Inertia(0, 0, 9)


def test_subspace_basis_climbs_every_rung_then_raises(monkeypatch):
    precs = []
    qr = mp.qr

    def off_by_1e5(A, mode):  # a factorization that never meets the residual tolerance
        precs.append(mp.prec)
        Q, R = qr(A, mode=mode)
        for i in range(Q.rows):
            for j in range(Q.cols):
                Q[i, j] += mpf("1e-5")
        return Q, R

    monkeypatch.setattr(mp, "qr", off_by_1e5)
    with pytest.raises(ArithmeticError, match="moment residual"):
        subspace_basis(make_point_config((1, 2, 3)), 1)
    assert precs == [53, 256, 512]
