import importlib
import math

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from loewnerlab import (
    SpectrumSweep,
    ToleranceContext,
    eigen_trajectories,
    emit_figure1,
    flag_jumps,
    make_point_config,
    predicted_inertia,
    sign_change_report,
)
from loewnerlab.types import to_mpf

inertia_mod = importlib.import_module("loewnerlab.inertia")
sweep_mod = importlib.import_module("loewnerlab.sweep")


def test_two_point_sweep_inertia_sequence():
    s = eigen_trajectories(make_point_config((1, 2)), 0.5, 1.5, 3)
    assert [i.as_tuple() for i in s.inertias] == [(2, 0, 0), (1, 1, 0), (1, 0, 1)]
    assert s.grid == (0.5, 1.0, 1.5)


def test_two_point_sweep_single_change_brackets_one():
    s = eigen_trajectories(make_point_config((1, 2)), 0.5, 1.5, 3)
    changes = sign_change_report(s)
    assert len(changes) == 2  # entering and leaving the singular point r=1
    assert all(c.brackets_integer for c in changes)


def test_single_point_grid():
    s = eigen_trajectories(make_point_config((1, 2, 3, 4)), 2.0, 2.0, 1)
    assert s.inertias[0].as_tuple() == (1, 2, 1)


def test_integer_snapping_gives_exact_zero_counts():
    s = eigen_trajectories(make_point_config((1, 2, 3, 4)), 1.0, 3.0, 5)
    by_r = dict(zip(s.grid, s.inertias))
    assert by_r[1.0].as_tuple() == (1, 3, 0)
    assert by_r[2.0].as_tuple() == (1, 2, 1)
    assert by_r[3.0].as_tuple() == (2, 1, 1)


@pytest.mark.parametrize("points", [(1, 2, 3, 4), (0.5, 1.25, 3.0, 4.5)])
def test_integer_snapping_at_zero_and_negative_exponents(points):
    s = eigen_trajectories(make_point_config(points), -3.0, 1.0, 5)
    got = [i.as_tuple() for i in s.inertias]
    assert got == [(1, 1, 2), (1, 2, 1), (0, 3, 1), (0, 4, 0), (1, 3, 0)]
    assert got == [predicted_inertia(4, r).inertia.as_tuple() for r in s.grid]


def test_inertia_constant_on_open_intervals():
    s = eigen_trajectories(make_point_config((1, 2, 3, 4)), 1.1, 1.9, 9)
    assert sign_change_report(s) == ()
    vals = {i.as_tuple() for i in s.inertias}
    assert vals == {(1, 0, 3)}


def test_inertia_constant_past_n_minus_one():
    s = eigen_trajectories(make_point_config((1, 2, 3, 4, 5)), 5.1, 9.0, 7)
    assert sign_change_report(s) == ()


def test_bad_ranges_rejected():
    cfg = make_point_config((1, 2))
    with pytest.raises(ValueError):
        eigen_trajectories(cfg, 1.5, 0.5, 3)
    with pytest.raises(ValueError):
        eigen_trajectories(cfg, 0.5, 1.5, 1)


def test_anomaly_flag_on_integer_free_interval():
    from loewnerlab import Inertia
    s = SpectrumSweep(
        make_point_config((1, 2)),
        (1.2, 1.4),
        ((mpf(-1), mpf(2)), (mpf(-1), mpf(2))),
        (Inertia(1, 0, 1), Inertia(2, 0, 0)),
    )
    changes = sign_change_report(s)
    assert len(changes) == 1 and changes[0].anomalous


def test_emit_signed_log_fixes_origin_and_parity():
    s = eigen_trajectories(make_point_config((1, 2)), 0.5, 1.5, 3)
    header, rows = emit_figure1(s)
    assert header == ["r", "lambda_1", "lambda_2", "pos", "zero", "neg"]
    assert len(rows) == 3
    # the grid snaps r = 1 to the integer, where the exact route finds L_1's
    # zero eigenvalue (the eigenvalue route leaves it within roundoff of 0)
    row = rows[1]
    assert row[0] == 1.0
    assert row[-3:] == (1, 1, 0)
    # an exact zero eigenvalue goes to the origin, and -lambda to -y(lambda)
    from loewnerlab import Inertia
    exact = SpectrumSweep(
        make_point_config((1, 2)),
        (1.0, 1.5),
        ((mpf(0), mpf(2)), (mpf(-2), mpf(0))),
        (Inertia(1, 1, 0), Inertia(0, 1, 1)),
    )
    _, (at_one, after) = emit_figure1(exact)
    assert at_one[1] == 0 and after[2] == 0
    assert after[1] == -at_one[2] < 0


@settings(deadline=None, max_examples=40)
@given(lam=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_signed_log_odd_and_monotone(lam):
    from loewnerlab import Inertia
    tau = 1e-8
    s = SpectrumSweep(
        make_point_config((1, 2)),
        (0.5,),
        ((mpf(lam), mpf(lam) + 1),),
        (Inertia(2, 0, 0),),
    )
    _, rows = emit_figure1(s, tau=tau)
    y0, y1 = rows[0][1], rows[0][2]
    assert y0 < y1  # strictly increasing map
    _, rows_neg = emit_figure1(
        SpectrumSweep(make_point_config((1, 2)), (0.5,),
                      ((-mpf(lam) - 1, -mpf(lam)),), (Inertia(2, 0, 0),)),
        tau=tau)
    assert abs(rows_neg[0][2] + y0) < 1e-25  # odd symmetry


@pytest.mark.parametrize("tol", [ToleranceContext(), ToleranceContext.at_bits(256),
                                 ToleranceContext(zero_rel_tol=1e-3)],
                         ids=["53", "256", "override"])
def test_signed_log_tau_is_the_sweeps_zero_threshold(tol):
    # tau = zero_rel_tol * n * max |lambda| of the context the sweep ran at
    from loewnerlab import Inertia
    s = eigen_trajectories(make_point_config((1, 2, 3)), 0.5, 0.5, 1, tol)
    assert s.tol is tol and s.precision_bits == tol.precision_bits
    s = SpectrumSweep(s.config, (0.5,), ((mpf(-2), mpf(2) ** -133, mpf(5)),),
                      (Inertia(2, 0, 1),), tol=tol)
    _, (row,) = emit_figure1(s)
    with tol.prec():
        tau = to_mpf(tol.zero_rel_tol) * 3 * 5
        assert row[1:4] == (-mp.log10(1 + 2 / tau), mp.log10(1 + mpf(2) ** -133 / tau),
                            mp.log10(1 + 5 / tau))


def test_emit_none_scaling_returns_raw_values():
    s = eigen_trajectories(make_point_config((1, 2)), 0.5, 0.7, 2)
    _, rows = emit_figure1(s, scaling="none")
    assert rows[0][1] == s.trajectories[0][0]


def test_flag_jumps_quiet_on_fine_grid():
    s = eigen_trajectories(make_point_config((1, 2)), 1.1, 1.5, 9)
    assert flag_jumps(s) == ()


def test_six_point_sweep_uses_extended_precision_and_exact_integers():
    cfg = make_point_config((1, 2, 3, 4, 5, 6))
    s = eigen_trajectories(cfg, 2.75, 3.25, 3)
    assert s.failures == ()
    assert s.inertias[1].as_tuple() == (2, 3, 1)  # exact route at r=3
    assert s.inertias[0] != s.inertias[2]


def test_sweep_solves_each_grid_point_once(monkeypatch):
    calls = []
    original = inertia_mod.eig_sym

    def counted(*args, **kwargs):
        calls.append(args[0].order)
        return original(*args, **kwargs)

    monkeypatch.setattr(inertia_mod, "eig_sym", counted)
    monkeypatch.setattr(sweep_mod, "eig_sym", counted)
    s = eigen_trajectories(make_point_config((1, 2, 3, 4)), 1.0, 3.0, 9)
    assert sum(r == round(r) for r in s.grid) == 3  # integer and non-integer points
    assert s.failures == () and None not in s.trajectories
    assert len(calls) == len(s.grid)


def test_emit_keeps_the_sweep_precision():
    s = eigen_trajectories(make_point_config((1, 2, 3)), 0.5, 1.5, 3,
                           ToleranceContext.at_bits(256))
    _, rows = emit_figure1(s, scaling="none")
    assert [row[1:4] for row in rows] == [traj for traj in s.trajectories]


def test_snapped_points_run_the_exact_route_once_each(monkeypatch):
    calls = []
    exact_matrix = inertia_mod.builders.loewner_twin

    def spy(q, m):
        calls.append((q, m))
        return exact_matrix(q, m)

    monkeypatch.setattr(inertia_mod.builders, "loewner_twin", spy)
    cfg = make_point_config((0.5, 1.25, 3.0, 4.0))  # float nodes take the exact route too
    s = eigen_trajectories(cfg, -2.0, 3.0, 11)
    q = (2, 5, 12, 16)  # the promoted nodes times c = 4
    assert calls == [(q, m) for m in (-2, -1, 0, 1, 2, 3)]
    for m in (-2, 0, 3):
        assert s.inertias[s.grid.index(float(m))] == predicted_inertia(4, m).inertia


@pytest.mark.parametrize("a, b, steps", [
    (0.5, 1.5, 0),
    (0.5, 1.5, 1),
    (1.5, 0.5, 3),
    (1.5, 1.5, 3),
    (math.nan, 1.5, 3),
    (0.5, math.nan, 3),
    (math.nan, math.nan, 1),
    (0.0, math.inf, 3),
    (-math.inf, 1.0, 3),
])
def test_exponent_grid_rejects_bad_ranges(a, b, steps):
    with pytest.raises(ValueError):
        sweep_mod.exponent_grid(a, b, steps)


@settings(deadline=None, max_examples=300)
@given(a=st.floats(min_value=-50, max_value=50, allow_nan=False),
       width=st.floats(min_value=1e-12, max_value=20),
       steps=st.integers(min_value=2, max_value=60))
@example(a=0.1, width=0.9, steps=10)  # the plain formula's last value is 0.9999999999999999
@example(a=-0.1, width=0.30000000000000004, steps=4)  # and its second here is 1.4e-17
def test_exponent_grid_values_are_integers_or_off_the_window(a, width, steps):
    for r in sweep_mod.exponent_grid(a, a + width, steps):
        assert r == round(r) or abs(r - round(r)) >= sweep_mod.INTEGER_SNAP_WINDOW


@pytest.mark.parametrize("a, b, steps", [
    (2.5, 2.9999999995, 2),    # a grid point within the window of 3
    (3.0000000005, 3.5, 2),
    (-0.5, 0.5, 3),            # L_0 = 0 is singular
    (-3.5, -0.5, 7),           # L_{-m} is singular with L_m
])
def test_every_transition_brackets_a_singular_integer(a, b, steps):
    s = eigen_trajectories(make_point_config((1, 2, 3, 4)), a, b, steps)
    changes = sign_change_report(s)
    assert changes and not any(c.anomalous for c in changes)


def test_sign_change_scan_is_bounded_by_the_order(monkeypatch):
    # only the 2n + 1 integers in [-n, n] can be singular; a scan of every
    # integer in this interval would never end
    from loewnerlab import Inertia
    asked = []

    def spy(n, m):
        asked.append(m)
        assert len(asked) <= 2 * n + 1
        return predicted_inertia(n, m)

    monkeypatch.setattr(sweep_mod, "predicted_inertia", spy)
    s = SpectrumSweep(
        make_point_config((1, 2)),
        (-1e300, 1e300),
        ((mpf(-1), mpf(2)), (mpf(1), mpf(2))),
        (Inertia(1, 0, 1), Inertia(2, 0, 0)),
    )
    (change,) = sign_change_report(s)
    assert change.brackets_integer
