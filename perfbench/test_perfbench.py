"""Tests of the benchmark's own logic: span self time, the tail percentile
rule, the per-op checks, the tracer and the seeded inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import run
import spans
import stats
import workloads

lib = run.load_library()


# ---------------------------------------------------------------------------
# self time


def _span(id, start, end, parent=None, name="x"):
    return spans.Span(id, name, start, end, parent, 0, None)


def test_self_time_subtracts_nested_children():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 7.0, parent=0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [_span(0, 0.0, 10.0), _span(1, 1.0, 5.0, parent=0), _span(2, 3.0, 12.0, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# tail percentile


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    for n in range(11, 400):
        q = stats.tail_percentile(n, 99.9)
        assert stats.samples_beyond(n, q) >= 10, n
        if q < 99:
            assert stats.samples_beyond(n, q + 1) < 10, n


def test_tail_percentile_keeps_the_pinned_one_when_it_has_ten_beyond():
    assert stats.tail_percentile(24, 55) == 55
    assert stats.tail_percentile(1000, 98) == 98
    assert stats.tail_percentile(20, 55) == 50
    assert stats.tail_percentile(10, 55) == 100


def test_percentile_is_nearest_rank():
    xs = [5, 1, 4, 2, 3]
    assert stats.percentile(xs, 50) == 3
    assert stats.percentile(xs, 100) == 5
    assert stats.percentile(xs, 1) == 1
    assert stats.percentile(list(range(1, 25)), 55) == 14


# ---------------------------------------------------------------------------
# checks


@pytest.mark.parametrize("n", range(1, 9))
def test_theorem_agrees_with_the_library_prediction(n):
    rs = [k / 4 for k in range(1, 4 * (n + 2))] + [k + 1e-7 for k in range(1, n + 2)]
    for r in rs:
        pred = lib.oracle.predicted_inertia(n, r).inertia
        assert checks.theorem_inertia(n, r) == (pred.pos, pred.zero, pred.neg), r


def test_verify_check_counts_a_swapped_inertia_as_failed():
    cfg = lib.types.make_point_config([1.0, 2.5, 4.0, 7.0])
    rep = lib.oracle.verify_instance(cfg, 2.5)
    assert checks.check_verify(4, 2.5, rep) is None
    swapped = dataclasses.replace(rep, computed=rep.computed.swapped())
    assert "computed" in checks.check_verify(4, 2.5, swapped)
    # a wrong prediction that the routes "match" is still caught
    both = dataclasses.replace(swapped, predicted=dataclasses.replace(
        rep.predicted, inertia=rep.computed.swapped()))
    assert checks.check_verify(4, 2.5, both) is not None
    assert checks.check_verify(4, 2.5, dataclasses.replace(rep, match=False)) is not None
    assert checks.check_verify(4, 2.5, dataclasses.replace(rep, disagreement=True)) is not None


def test_count_zeros_check_enforces_the_bound():
    ok = SimpleNamespace(count=2, brackets=((1, 2), (3, 4)))
    assert checks.check_count_zeros(3, ok) is None
    too_many = SimpleNamespace(count=3, brackets=((1, 2), (3, 4), (5, 6)))
    assert checks.check_count_zeros(3, too_many) is not None


def test_complex_scan_check_needs_windings_to_add_up():
    cell = SimpleNamespace(winding=1)
    assert checks.check_complex_scan(SimpleNamespace(cells=(cell, cell), total_winding=2)) is None
    assert checks.check_complex_scan(SimpleNamespace(cells=(cell,), total_winding=2)) is not None


def test_sweep_check_accepts_the_cli_output_and_rejects_a_wrong_zero_count(tmp_path):
    out = tmp_path / "s.csv"
    grid = [0.5 + 0.5 * i for i in range(7)]
    code = lib.cli.main(["sweep", "--points", "1,2,3", "--r-range", "0.5:3.5:7", "--out", str(out)])
    text = out.read_text()
    assert checks.check_sweep_csv(3, grid, code, text) is None
    assert checks.check_sweep_csv(3, grid, 1, text) is not None
    assert checks.check_sweep_csv(3, grid[:-1], code, text) is not None
    lines = text.splitlines()
    row = lines[2].split(",")  # r = 1.0: inertia (1, 2, 0)
    assert row[0] == "1.0" and row[-3:] == ["1", "2", "0"]
    lines[2] = ",".join(row[:-3] + ["2", "1", "0"])
    assert "inertia" in checks.check_sweep_csv(3, grid, code, "\n".join(lines) + "\n")


def test_an_op_whose_output_cannot_be_read_counts_as_failed():
    bad_csv = "r,lambda_1,pos,zero,neg\nx,1,1,0,0\n"
    op = workloads.Op(label="x", inputs=(), call=lambda: 0, fingerprint=lambda out: out,
                      check=lambda out: checks.check_sweep_csv(1, [1.0], 0, bad_csv))
    latency, out, error = run.run_op(op)
    assert out is None and error.startswith("unreadable output")
    failing = dataclasses.replace(op, call=lambda: 1 / 0)
    assert run.run_op(failing)[2].startswith("ZeroDivisionError")


# ---------------------------------------------------------------------------
# tracer


def test_tracer_sees_every_alias_and_restores_the_originals():
    inertia_mod = sys.modules["loewnerlab.inertia"]
    before = (inertia_mod.eig_sym, lib.sweep.eig_sym, lib.oracle.inertia_report,
              lib.builders.loewner_matrix_exact)
    tracer = spans.Tracer(lib)
    wrapped = set(tracer.wrapped_names)
    for name in ("oracle.inertia_report", "inertia.eig_sym", "sweep.eig_sym",
                 "sweep.inertia_report", "builders.loewner_matrix_exact",
                 "analysis.complex_det", "cli.main"):
        assert f"loewnerlab.{name}" in wrapped, name
    assert not any(".cmd_" in name for name in wrapped)

    cfg = lib.types.make_point_config([1, 2, 3])
    with tracer.active(7):
        assert inertia_mod.builders.loewner_matrix_exact is not before[3]
        rep = lib.oracle.verify_instance(cfg, 2)
    assert (inertia_mod.eig_sym, lib.sweep.eig_sym, lib.oracle.inertia_report,
            lib.builders.loewner_matrix_exact) == before

    names = [s.name for s in tracer.spans]
    assert names.count("oracle.verify_instance") == 1
    assert "exact.rational_inertia" in names
    assert all(s.op == 7 for s in tracer.spans)
    by_id = {s.id: s for s in tracer.spans}
    eig = next(s for s in tracer.spans if s.name == "inertia.eig_sym")
    assert eig.bits == 53
    assert by_id[eig.parent].name == "inertia.inertia"
    assert by_id[by_id[eig.parent].parent].name == "oracle.verify_instance"

    values = spans.layer_metrics(tracer.spans, 1, {"verify.escalated": 0}, 0.0)
    assert set(values) == set(spans.LAYER_UNITS)
    assert values["oracle.attempts_per_op"] == rep.escalations + 1
    assert values["inertia.eig_sym.calls.b53"] == 1


# ---------------------------------------------------------------------------
# inputs and the benchmark description


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_are_seeded(name, tmp_path):
    def make(rng, lib, out_dir):
        return next(workloads.WORKLOADS[name].rounds(rng, lib, out_dir))

    first = make(random.Random(5), lib, tmp_path)
    again = make(random.Random(5), lib, tmp_path)
    assert [op.inputs for op in first] == [op.inputs for op in again]
    first = [op.label for op in first]
    other = [op.label for op in make(random.Random(6), lib, tmp_path)]
    # the composition of a round is fixed; only the draws inside it change
    def composition(labels):
        return sorted(label.replace("/clustered", "") for label in labels), \
            sum("clustered" in label for label in labels)
    assert composition(first) == composition(other)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_UNITS.items())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"}


def test_times_are_scaled_by_the_host_speed_of_their_round():
    # round 1 ran with the host at half speed: twice the seconds, half the scale
    r = run.Run()
    r.rounds = [[2, 2.0], [2, 4.0]]
    r.latencies = [1.0, 1.0, 2.0, 2.0]
    r.op_round = [0, 0, 1, 1]
    r.round_scale = lambda i: (1.0, 0.5)[i]
    workload = workloads.WORKLOADS["zero-scan"]
    metrics, extra = run.end_to_end_metrics(r, workload, [(0.3, 1.0), (0.6, 0.5), (0.3, 1.0)])
    assert metrics["ops_per_s"][0] == pytest.approx(1.0)
    assert metrics["latency_p50_ms"][0] == pytest.approx(1000.0)
    assert metrics["latency_tail_ms"][0] == pytest.approx(1000.0)
    assert metrics["setup_s"][0] == pytest.approx(0.3)
    assert extra["unscaled"]["latency_p50_ms"] == pytest.approx(1000.0)
    assert extra["unscaled"]["setup_s"] == pytest.approx(0.3)
