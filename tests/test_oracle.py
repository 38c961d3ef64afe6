import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loewnerlab import (
    Inertia,
    ToleranceContext,
    conditional_inertia,
    consensus_inertia,
    loewner_matrix,
    loewner_matrix_exact,
    make_point_config,
    predicted_inertia,
    prop21_check,
    verify_identities,
    verify_instance,
)
from loewnerlab import analysis, builders
from loewnerlab.exact import rational_inertia

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
            assert predicted_inertia(n, r).inertia == rational_inertia(
                loewner_matrix_exact(cfg, r).entries)


def test_predicted_matches_exact_route_on_promoted_float_nodes():
    # float nodes are binary rationals with 2^52-sized denominators
    rng = random.Random(43)
    for n in range(8, 13):
        cfg = random_config(rng, n).ensure_exact()
        for m in range(1, n + 1):
            assert predicted_inertia(n, m).inertia == rational_inertia(
                loewner_matrix_exact(cfg, m).entries)


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
    original = inertia_mod.builders.loewner_matrix_exact

    def counted(config, m):
        calls.append(m)
        return original(config, m)

    monkeypatch.setattr(inertia_mod.builders, "loewner_matrix_exact", counted)
    rep = verify_instance(make_point_config((1, 2, 3, 4)), r)
    assert calls == [r]
    assert rep.match and not rep.disagreement
    assert rep.computed == predicted_inertia(4, r).inertia


def test_verify_instance_near_integer_escalates():
    rep = verify_instance(make_point_config((1, 2, 3, 4)), 2 + 1e-7)
    assert rep.match
    assert rep.precision_bits == 128
    assert rep.computed.as_tuple() == (3, 0, 1)


def test_verify_instance_float_nodes_at_integer_exponent():
    # float nodes are binary rationals, so the exact route still applies
    rep = verify_instance(make_point_config((0.5, 1.25, 2.75)), 2)
    assert rep.match and rep.computed.as_tuple() == (1, 1, 1)


def test_conditional_inertia_examples():
    cfg = make_point_config((1, 2, 3))
    assert conditional_inertia(cfg, 1.5, 1).as_tuple() == (0, 0, 2)
    assert conditional_inertia(cfg, 2.5, 1).as_tuple() == (2, 0, 0)
    cfg5 = make_point_config((1, 2, 3, 4, 5))
    assert conditional_inertia(cfg5, 3.5, 2).as_tuple() == (0, 0, 3)


def test_conditional_inertia_rejects_bad_k():
    cfg = make_point_config((1, 2, 3))
    with pytest.raises(ValueError, match="1 <= k < n"):
        conditional_inertia(cfg, 1.5, 0)
    with pytest.raises(ValueError, match="1 <= k < n"):
        conditional_inertia(cfg, 2.5, 3)


def test_conditional_inertia_on_nodes_1_to_9_near_r_6():
    # a compression onto a computed basis of H_5 reads (1, 0, 3) at 53 bits,
    # both routes agreeing: the bordered matrix needs no basis
    assert conditional_inertia(make_point_config(range(1, 10)), 5.925815894643639, 5) == \
        Inertia(0, 0, 4)


def test_conditional_inertia_on_a_clustered_triple():
    # close nodes make the moment rows nearly dependent: a 1x1 compression
    # onto a computed basis of H_2 reads (0, 0, 1)
    cfg = make_point_config((1.871449823, 1.871653007, 1.871905676))
    assert conditional_inertia(cfg, 2.2004672103655363, 2) == Inertia(1, 0, 0)


def test_conditional_inertia_on_clustered_nodes_is_definite():
    # nodes within a relative 1e-6 .. 1e-1 of a centre in 0.1 .. 100, where the
    # moment rows are nearly dependent: L_r on H_k, floor(r) = k, is definite
    # with sign (-1)^k
    rng = random.Random(11)
    wrong = []
    for _ in range(100):
        n = rng.randint(3, 8)
        k = rng.randint(1, n - 1)
        r = k + rng.uniform(0.02, 0.98)
        centre, width = 10 ** rng.uniform(-1, 2), 10 ** rng.uniform(-6, -1)
        nodes = [centre * (1 + width * (i + rng.random()) / n) for i in range(n)]
        expected = Inertia(0, 0, n - k) if k % 2 else Inertia(n - k, 0, 0)
        got = conditional_inertia(make_point_config(nodes), r, k)
        if got != expected:
            wrong.append((nodes, r, k, got))
    assert wrong == []



def _moment_null_columns(p, k):
    """A basis of H_k over Q: on each window of k + 1 consecutive nodes, the
    divided-difference weights 1/prod_(l != i) (p_i - p_l), which annihilate
    every power p^j with j < k; each window starts one node later."""
    cols = []
    for start in range(len(p) - k):
        window = range(start, start + k + 1)
        cols.append([1 / math.prod(p[i] - p[l] for l in window if l != i) if i in window
                     else 0 for i in range(len(p))])
    return cols


@pytest.mark.parametrize("family", ["1..n", "rational", "float"])
def test_conditional_inertia_at_integer_exponents_matches_an_exact_compression(
        monkeypatch, family):
    # the count equals the inertia of Z^T L_m Z, Z a basis of H_k and L_m
    # formed by plain quotients over Q: no bordering, no library builder.  The
    # exact route settles the bordered matrix once the float routes agree with
    # it: on the first rung, or at 128 bits where K has an eigenvalue under the
    # 53-bit zero threshold (nodes 1..6 at m = 7, k = 1: 8e-7 against a scale of
    # 5e5).  Without it, a singular K climbs to the 512-bit top rung.
    rungs = []
    original = inertia_mod.inertia

    def counted(A, tol, target=None):
        rungs.append(tol.precision_bits)
        return original(A, tol, target)

    monkeypatch.setattr(inertia_mod, "inertia", counted)
    rng = random.Random(61)
    wrong = []
    for n in range(3, 7):
        cfg = {"1..n": make_point_config(range(1, n + 1)),
               "rational": random_rational_config(rng, n),
               "float": random_config(rng, n)}[family]
        p = cfg.ensure_exact().exact
        for m in [m for m in range(-2, n + 2) if m]:
            L = [[m * a ** (m - 1) if a == b else (a ** m - b ** m) / (a - b) for b in p]
                 for a in p]
            for k in range(1, n):
                Z = _moment_null_columns(p, k)
                B = [[sum(x * L[i][j] * y[j] for i, x in enumerate(u) for j in range(n))
                      for y in Z] for u in Z]
                rungs.clear()
                got = conditional_inertia(cfg, m, k)
                if got != rational_inertia(B) or rungs not in ([53], [53, 128]):
                    wrong.append((cfg.points, m, k, got, rungs[:]))
    assert wrong == []

def test_positive_definite_below_one():
    # operator monotonicity regime: the full matrix is positive definite
    rng = random.Random(47)
    for n in (2, 4):
        cfg = random_config(rng, n)
        rep = consensus_inertia(loewner_matrix(cfg, 0.37))
        assert rep.consensus == Inertia(n, 0, 0)


def test_prop21_examples():
    assert prop21_check(make_point_config((1, 2)), 3)
    assert prop21_check(make_point_config((1, 2, 3, 4)), 1.01)
    with pytest.raises(ValueError):
        prop21_check(make_point_config((1, 2)), 0.5)


def test_prop21_runs_the_exact_route_at_integer_exponents(monkeypatch):
    calls = []
    original = inertia_mod.builders.loewner_matrix_exact

    def counted(config, r):
        calls.append(r)
        return original(config, r)

    monkeypatch.setattr(inertia_mod.builders, "loewner_matrix_exact", counted)
    assert prop21_check(make_point_config(range(1, 9)), 7)
    assert calls == [7]


def test_prop21_two_by_two_determinant_negative():
    # independent check: det [[3, 7], [7, 12]] = -13 for p=(1,2), r=3
    L = loewner_matrix(make_point_config((1, 2)), 3)
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


@pytest.mark.parametrize("points, r", [((0.5, 1.25, 3.0), 3), ((0.7, 1.5, 2.3), 4)])
def test_identities_exact_power_step_on_float_nodes(points, r):
    # float nodes are the binary rationals they denote, so the exact route applies
    res = verify_identities(make_point_config(points), r)
    assert res.power_step_exact
    assert res.power_step == 0


@pytest.mark.parametrize("check", [verify_instance, verify_identities,
                                   analysis.loewner_ssr, analysis.dk_norm_probe],
                         ids=lambda f: f.__name__)
def test_every_property_check_of_l_r_refuses_r_0(check):
    # one check, shared: L_0 is the zero matrix, so the reflection residual
    # would divide by zero and the minor scan would read a false violation
    with pytest.raises(ValueError, match=r"exponent 0 is not accepted here \(L_0 is the zero matrix\)"):
        check(make_point_config((1, 2, 3)), 0)


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
        spec = eig_sym(loewner_matrix(cfg, r, ctx), ctx)
        scale = spec.scale
        thresh = ctx.zero_rel_tol * scale * cfg.n
        nonzero = [e for e in spec.eigenvalues if abs(e) > thresh]
        gaps = [abs(a - b) for a, b in zip(nonzero, nonzero[1:])]
        assert all(g > thresh for g in gaps)


# The precision ladder's outcome on instances that stop at each rung, as
# (precision_bits, escalations, match, disagreement, computed).
@pytest.mark.parametrize("points, r, outcome", [
    ((1, 2, 3), 2.5, (53, 0, True, False, (2, 0, 1))),
    ((1, 2, 3), 2 + 1e-8, (128, 1, True, False, (2, 0, 1))),
    (tuple(range(1, 9)), 7, (128, 1, True, False, (4, 1, 3))),
    (tuple(range(1, 7)), 3.5, (128, 1, True, False, (2, 0, 4))),
    # The ladder runs out: the routes agree at 512 bits on an inertia the
    # theorem does not predict (the smallest eigenvalue stays under the
    # zero threshold at every rung).
    ((1.0, 1.01, 1.02), 80000.5, (512, 3, False, False, (1, 1, 1))),
    ((1, 2, 3), 4 + 1e-8, (53, 0, True, False, (2, 0, 1))),
    # Past the 128-bit rung: sixteen nodes settle at the first doubling.
    (tuple(range(1, 17)), 3.5, (256, 2, True, False, (2, 0, 14))),
])
def test_ladder_outcomes(points, r, outcome):
    rep = verify_instance(make_point_config(points), r)
    assert (rep.precision_bits, rep.escalations, rep.match, rep.disagreement,
            rep.computed.as_tuple()) == outcome


def test_the_ladder_climbs_past_a_convergence_failure(monkeypatch):
    # eig_sym fails at 53 bits only: the ladder takes that as a cue to climb
    # and settles at its 128-bit rung (the top rung would still raise)
    eig_sym, bits = inertia_mod.eig_sym, []

    def fails_at_53_bits(A, tol):
        bits.append(tol.precision_bits)
        if tol.precision_bits == 53:
            raise inertia_mod.EigenConvergenceError("stalled")
        return eig_sym(A, tol)

    monkeypatch.setattr(inertia_mod, "eig_sym", fails_at_53_bits)
    rep = verify_instance(make_point_config((1, 2, 3)), 2.5)
    assert bits == [53, 128]
    assert (rep.precision_bits, rep.escalations, rep.match, rep.computed.as_tuple()) == \
        (128, 1, True, (2, 0, 1))


@settings(deadline=None, max_examples=100)
@given(nk=st.integers(3, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       side=st.sampled_from((-1, 1)), digits=st.integers(7, 13))
def test_near_integer_exponents_settle_by_128_bits(nk, side, digits):
    # r within 1e-7 of an integer makes L_r nearly singular (clause iii);
    # the ladder from the default start resolves it by its 128-bit rung
    n, k = nk
    rep = verify_instance(make_point_config(range(1, n + 1)), k + side * 10.0 ** -digits)
    assert rep.match and rep.precision_bits <= 128


def test_conditional_inertia_rebuilds_the_compression_per_rung(monkeypatch):
    # the bordered matrix [[L_r, C^T], [C, 0]] of nodes 1..10 counts zero
    # eigenvalues at 53 bits (five by QL, four by LDL), so the ladder climbs
    # and builds L_r, and the bordered matrix with it, again at 128 bits
    bits = []
    build = builders.loewner_matrix

    def spy(config, r, tol):
        bits.append(tol.precision_bits)
        return build(config, r, tol)

    monkeypatch.setattr(builders, "loewner_matrix", spy)
    assert conditional_inertia(make_point_config(range(1, 11)), 1.5, 1) == Inertia(0, 0, 9)
    assert bits == [53, 128]
