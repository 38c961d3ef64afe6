import importlib
import math

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

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
    # row at the snapped integer r=1: one eigenvalue is exactly zero
    row = rows[1]
    assert row[0] == 1.0
    assert row[1] == 0
    assert row[-3:] == (1, 1, 0)


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
    assert sweep_mod.inertia_exact_integer is inertia_mod.inertia_exact_integer
    calls = []

    def spy(config, m):
        calls.append(m)
        return inertia_mod.inertia_exact_integer(config, m)

    monkeypatch.setattr(sweep_mod, "inertia_exact_integer", spy)
    cfg = make_point_config((0.5, 1.25, 3.0, 4.0))  # float nodes take the exact route too
    s = eigen_trajectories(cfg, -2.0, 3.0, 11)
    assert calls == [-2, -1, 0, 1, 2, 3]
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
