"""A rung ruled out by its target runs no eigenvalue route.

``verify_instance`` climbs toward the predicted inertia; on a rung whose
LDL count misses it no eigenvalue count could stop the ladder, so that
rung runs LDL alone.  The top rung always runs both routes, and the ladder
stays lazy: a verify that settles on its first rung builds no other.
"""

import importlib

import pytest

from loewnerlab import (
    Inertia,
    ToleranceContext,
    inertia,
    loewner_matrix,
    make_point_config,
    verify_instance,
)

inertia_mod = importlib.import_module("loewnerlab.inertia")

TWELVE = make_point_config(range(1, 13))
THREE = make_point_config((1, 2, 3))


@pytest.fixture
def route_calls(monkeypatch):
    """The precision of every eig_sym and inertia_ldl call, by route."""
    calls = {"eig_sym": [], "inertia_ldl": []}
    for name in calls:
        original = getattr(inertia_mod, name)

        def spy(A, tol=inertia_mod.DEFAULT_TOL, *args, _name=name, _original=original):
            calls[_name].append(tol.precision_bits)
            return _original(A, tol, *args)

        monkeypatch.setattr(inertia_mod, name, spy)
    return calls


def test_eig_sym_runs_only_on_rungs_whose_ldl_count_meets_the_target(route_calls):
    # twelve nodes: LDL misses the target at 53 bits, so the eigen route
    # runs at 128 bits alone; three nodes settle at 53 bits with both routes
    rep = verify_instance(TWELVE, 2.5)
    assert rep.match and (rep.precision_bits, rep.escalations) == (128, 1)
    assert route_calls == {"eig_sym": [128], "inertia_ldl": [53, 128]}
    for calls in route_calls.values():
        calls.clear()
    rep = verify_instance(THREE, 2.5)
    assert rep.match and rep.precision_bits == 53
    assert route_calls == {"eig_sym": [53], "inertia_ldl": [53]}


@pytest.mark.parametrize("bits", [53, 128])
def test_a_missed_target_rules_the_rung_out(bits):
    ctx = ToleranceContext.at_bits(bits)
    L = loewner_matrix(TWELVE, 2.5, ctx)
    full = inertia(L, ctx)
    missed = Inertia(0, 0, 12)
    assert full.by_ldl != missed
    rep = inertia(L, ctx, missed)
    assert (rep.by_eigen, rep.spectrum, rep.by_exact) == (None, None, None)
    assert rep.by_ldl == full.by_ldl
    assert rep.disagreement


@pytest.mark.parametrize("bits", [53, 128])
def test_a_met_target_gives_the_full_report(bits):
    ctx = ToleranceContext.at_bits(bits)
    L = loewner_matrix(THREE, 2.5, ctx)
    full = inertia(L, ctx)
    assert inertia(L, ctx, full.by_ldl) == full


def test_an_exhausted_ladder_reports_both_routes_on_its_top_rung(route_calls):
    rep, ctx, escalations = inertia_mod._settle_loewner(THREE, 2.5, target=Inertia(0, 0, 3))
    assert (ctx.precision_bits, escalations) == (512, 3)
    assert rep.spectrum is not None and len(rep.spectrum.eigenvalues) == 3
    assert rep.by_eigen == rep.by_ldl == Inertia(2, 0, 1)
    assert not rep.disagreement
    assert route_calls["eig_sym"] == [512]
    assert route_calls["inertia_ldl"] == [53, 128, 256, 512, 512]


def test_a_verify_settled_at_53_bits_builds_no_other_rung(monkeypatch):
    made = []
    original = ToleranceContext.at_bits.__func__

    def spy(cls, bits):
        made.append(bits)
        return original(cls, bits)

    monkeypatch.setattr(ToleranceContext, "at_bits", classmethod(spy))
    rep = verify_instance(THREE, 2.5)
    assert rep.match and rep.precision_bits == 53
    assert made == []
