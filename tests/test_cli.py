import csv
import decimal
import functools
import importlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from loewnerlab import Inertia, analysis, make_point_config, predicted_inertia
from loewnerlab.builders import loewner_matrix_exact
from loewnerlab.cli import _decimal, main, parse_range, parse_scalar
from loewnerlab.exact import det_fraction
from fractions import Fraction

inertia_mod = importlib.import_module("loewnerlab.inertia")
sweep_mod = importlib.import_module("loewnerlab.sweep")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_scalar_forms():
    assert parse_scalar("3") == 3 and isinstance(parse_scalar("3"), int)
    assert parse_scalar("7/2") == Fraction(7, 2)
    assert parse_scalar("2.5") == 2.5
    with pytest.raises(ValueError):
        parse_scalar("abc")


def test_parse_range_validation():
    assert parse_range("0.5:1.5:3") == (0.5, 1.5, 3)
    with pytest.raises(ValueError):
        parse_range("1.5:0.5:3")
    with pytest.raises(ValueError):
        parse_range("0.5:1.5")


def test_build_loewner(capsys):
    code, out, _ = run(capsys, "build", "--points", "1,2", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["matrix"] == [[2.0, 3.0], [3.0, 4.0]]


def test_build_power_sum(capsys):
    code, out, _ = run(capsys, "build", "--points", "1,2", "--r", "2",
                       "--kind", "power-sum")
    assert code == 0
    assert json.loads(out)["matrix"] == [[4.0, 9.0], [9.0, 16.0]]


def test_build_all_ones(capsys):
    code, out, _ = run(capsys, "build", "--points", "1,2,3", "--r", "1")
    assert code == 0
    assert json.loads(out)["matrix"] == [[1.0] * 3] * 3


def test_build_cross_needs_points2(capsys):
    code, _, err = run(capsys, "build", "--points", "1,2", "--r", "2",
                       "--kind", "cross")
    assert code == 2 and "points2" in err


def test_build_high_precision_entries_are_strings(capsys):
    code, out, _ = run(capsys, "build", "--points", "1,2", "--r", "0.5",
                       "--precision-bits", "128")
    assert code == 0
    payload = json.loads(out)
    assert payload["precision_bits"] == 128
    assert isinstance(payload["matrix"][0][0], str)


def test_build_high_precision_entries_carry_every_bit(capsys):
    code, out, _ = run(capsys, "build", "--points", "1,2", "--r", "0.5",
                       "--precision-bits", "128")
    assert code == 0
    with mp.workprec(128):
        entry = mpf(json.loads(out)["matrix"][0][1])
        # the kernel's 16 eps, plus rounding of the printed decimal
        assert abs(entry - (mp.sqrt(2) - 1)) <= 32 * mp.eps


def test_build_rejects_bad_points(capsys):
    code, _, err = run(capsys, "build", "--points", "2,1", "--r", "2")
    assert code == 2


def test_verify_match(capsys):
    code, out, _ = run(capsys, "verify", "--points", "1,2,3", "--r", "2.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert payload["results"][0]["computed"] == [2, 0, 1]


def test_verify_integer_exact(capsys):
    code, out, _ = run(capsys, "verify", "--points", "1,2,3,4", "--r", "3")
    assert code == 0
    assert json.loads(out)["results"][0]["computed"] == [2, 1, 1]


def test_verify_rejects_zero_exponent(capsys):
    code, _, err = run(capsys, "verify", "--points", "1,2", "--r", "0")
    assert code == 2


def test_ssr_rejects_zero_exponent(capsys):
    # L_0 is the zero matrix: every minor is zero, which is no violation
    code, out, err = run(capsys, "ssr", "--points", "1,2,3", "--r", "0")
    assert (code, out) == (2, "")
    assert "L_0 is the zero matrix" in err


def test_verify_range(capsys):
    code, out, _ = run(capsys, "verify", "--points", "1,2,3", "--r-range",
                       "0.5:2.5:5")
    assert code == 0
    assert len(json.loads(out)["results"]) == 5


def test_verify_range_verifies_the_integer_not_its_roundoff(capsys):
    # the grid's last value rounds to 0.9999999999999999, which clause (iii)
    # would predict for; the grid returns the integer 1
    code, out, _ = run(capsys, "verify", "--points", "1,2,3", "--r-range", "0.1:1.0:10")
    assert code == 0
    last = json.loads(out)["results"][-1]
    assert (last["r"], last["rule"], last["computed"], last["precision_bits"]) == (
        1.0, "ii", [1, 2, 0], 53)


def test_verify_range_through_zero_names_zero(capsys):
    # -0.1 + 0.3 / 3 rounds to 1.4e-17: the grid returns 0, which verify refuses
    code, out, err = run(capsys, "verify", "--points", "1,2,3", "--r-range", "-0.1:0.2:4")
    assert (code, out) == (2, "")
    assert "exponent 0" in err


@pytest.mark.parametrize("flags, bits, escalations", [
    (("--precision-bits", "512"), 512, 0),  # the ladder starts at the rung asked for
    (("--zero-rel-tol", "0.5"), 128, 1),    # the start's own override runs first
])
def test_verify_near_integer_starts_at_the_given_rung(capsys, flags, bits, escalations):
    code, out, _ = run(capsys, "verify", "--points", "1,2,3", "--r", "2.00000001", *flags)
    assert code == 0
    result = json.loads(out)["results"][0]
    assert (result["match"], result["precision_bits"], result["escalations"]) == (
        True, bits, escalations)


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--points", "1,2", "--r-range",
                       "0.5:1.5:3", "--scale", "none")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,lambda_1,lambda_2,pos,zero,neg"
    assert len(lines) == 4
    tail = [line.split(",")[-3:] for line in lines[1:]]
    assert tail == [["2", "0", "0"], ["1", "1", "0"], ["1", "0", "1"]]


def _significant_digits(cell: str) -> int:
    return len(cell.split("e")[0].lstrip("-").replace(".", "").lstrip("0"))


def test_a_tolerance_flag_keeps_the_sweeps_start(capsys):
    # six nodes start at 256 bits; a tolerance flag sets a threshold there,
    # and only --precision-bits would replace the start
    argv = ("sweep", "--points", "1,2,3,4,5,6", "--r-range", "0.5:1.5:2")
    outputs = []
    for extra in ((), ("--residual-tol", "1e-12")):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        outputs.append(list(csv.reader(io.StringIO(out)))[1:])
    plain, flagged = outputs
    assert ({_significant_digits(c) for row in flagged for c in row[1:7]}
            == {_significant_digits(c) for row in plain for c in row[1:7]} == {80})
    assert [row[7:] for row in flagged] == [row[7:] for row in plain]


@pytest.mark.parametrize("argv", [
    "sweep --points 1,2,3 --r-range 0.5:2.5:5 --precision-bits 256 --zero-rel-tol inf",
    "det-id --points 1,2,3 --residual-tol inf",
])
def test_a_non_finite_tolerance_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "") and "must be positive and finite" in err


@pytest.mark.parametrize("argv, flag", [
    ("zeros --points 1,2,3 --coeffs -1,1,1 --r 0.5", "--coeffs"),
    ("complex-zeros --points 1,2,3 --region -0.45:0.45:-0.45:0.45 --grid 4", "--region"),
    ("sweep --points 1,2,3 --r-range -1.5:-0.5:3", "--r-range"),
])
def test_a_value_starting_with_a_minus_parses(capsys, argv, flag):
    separate = run(capsys, *argv.split())
    joined = run(capsys, *argv.replace(f"{flag} ", f"{flag}=").split())
    assert separate == joined and separate[0] == 0


def test_a_missing_required_flag_is_one_error_line(capsys):
    code, out, err = run(capsys, "zeros", "--points", "1,2,3", "--r", "0.5")
    assert (code, out) == (2, "")
    assert err == "error: the following arguments are required: --coeffs\n"


def test_sweep_empty_range(capsys):
    code, _, err = run(capsys, "sweep", "--points", "1,2", "--r-range",
                       "1.5:0.5:3")
    assert code == 2


def test_sweep_writes_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--points", "1,2", "--r-range",
                       "0.5:1.5:3", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("r,lambda_1,lambda_2,")


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "build", "--points", "1,2", "--r", "2", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err and "Traceback" not in err
    assert not target.parent.exists()


def test_zeros_ok(capsys):
    code, out, _ = run(capsys, "zeros", "--points", "1,2", "--coeffs", "1,-1",
                       "--r", "0.5", "--grid", "801")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] <= 1 and payload["ok"] is True


def test_ssr_fractional(capsys):
    code, out, _ = run(capsys, "ssr", "--points", "1,2,3", "--r", "0.5")
    assert code == 0
    assert json.loads(out)["ssr_class"] == "SSR"


def test_ssr_integer_exact(capsys):
    code, out, _ = run(capsys, "ssr", "--points", "1,2,3,4", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["ssr_class"] == "SSR_2"


def test_det_id(capsys):
    code, out, _ = run(capsys, "det-id", "--points", "1,2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["det_L3"] == "-4" and payload["det_L4"] == "-576"
    assert payload["ok"] is True


def test_det_id_closed_forms_follow_the_working_precision(capsys):
    # 0.1, 0.2, 0.3 are not dyadic, so closed forms evaluated in doubles would
    # miss the 128-bit determinants by about 1e-24 relative
    code, out, _ = run(capsys, "det-id", "--points", "0.1,0.2,0.3", "--precision-bits", "128")
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    assert payload["match_L3"] is True and payload["match_L4"] is True
    p1, p2, p3 = (Fraction(x) for x in (0.1, 0.2, 0.3))
    closed = -((p1 - p2) * (p1 - p3) * (p2 - p3)) ** 2
    with mp.workprec(256):
        printed = mpf(payload["closed_L3"])
        assert abs(printed - mp.mpmathify(closed)) <= mpf(2) ** -120 * abs(printed)


@pytest.mark.parametrize("bits", [53, 256])
def test_det_id_is_exact_on_clustered_float_nodes(capsys, bits):
    # a 53-bit LU loses every digit of det L_3 on such triples; the nodes'
    # binary rationals give both determinants exactly, rounded once (to
    # nearest) to print
    rng = random.Random(22)
    for _ in range(6):
        x, d = rng.uniform(1, 2000), 10 ** rng.uniform(-6, -1)
        nodes = (x, x + d, x + 2 * d)
        code, out, _ = run(capsys, "det-id", "--points", ",".join(map(repr, nodes)),
                           "--precision-bits", str(bits))
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True and payload["exact"] is False
        cfg = make_point_config([Fraction(p) for p in nodes])
        for m in (3, 4):
            det = det_fraction(loewner_matrix_exact(cfg, m).entries)
            with mp.workprec(bits):
                v = mp.fdiv(det.numerator, det.denominator, rounding="n")
                want = float(v) if bits == 53 else _decimal(v, bits)
            assert payload[f"det_L{m}"] == payload[f"closed_L{m}"] == want


def test_det_id_needs_three_points(capsys):
    code, _, err = run(capsys, "det-id", "--points", "1,2")
    assert code == 2


def test_dk_probe(capsys):
    code, out, _ = run(capsys, "dk", "--points", "1,2,3", "--r", "0.5",
                       "--samples", "5", "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["equality_regime"] is True and payload["ok"] is True


def test_dk_deterministic_output(capsys):
    args = ("dk", "--points", "1,2,3", "--r", "1.5", "--samples", "5",
            "--seed", "4")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_pr_compare(capsys):
    code, out, _ = run(capsys, "pr-compare", "--points", "1,2,3", "--r", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["inertia_power_sum"] == [2, 0, 1]


def test_complex_zeros(capsys):
    code, out, _ = run(capsys, "complex-zeros", "--points", "1,2",
                       "--region", "0.7:1.3:-0.3:0.3", "--grid", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_winding"] == 1


# Exit code, stdout and stderr of each case, byte for byte: every README
# example, extended precision, CSV, exact and float nodes, and usage errors.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[c["argv"] for c in GOLDEN])
def test_output_is_pinned(capsys, case):
    assert run(capsys, *case["argv"].split()) == (case["exit"], case["stdout"], case["stderr"])


def test_readme_examples_are_pinned():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    lines = re.findall(r"^loewnerlab (.*?)(?:\s+#.*)?$", readme, re.MULTILINE)
    assert lines and set(lines) <= {c["argv"] for c in GOLDEN}


@pytest.fixture
def stalled_eigensolver(monkeypatch):
    """``eig_sym`` allowed no QL step, wherever the commands look it up."""
    stalled = functools.partial(inertia_mod.eig_sym, max_steps=0)
    for mod in (inertia_mod, analysis, sweep_mod):
        monkeypatch.setattr(mod, "eig_sym", stalled)


@pytest.mark.parametrize("argv", [
    "verify --points 1,2,3 --r 2.5",
    "dk --points 1,2,3 --r 0.5 --samples 3",
    # max_steps caps the QL steps per eigenvalue on decimal as on floats
    "verify --points 1,2,3 --r 2.5 --precision-bits 256",
])
def test_eigensolver_stall_is_a_usage_error(capsys, stalled_eigensolver, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: off-diagonal mass") and err.count("\n") == 1


def test_a_tight_residual_tolerance_converges_at_53_bits(capsys):
    # the reflections keep the working matrix exactly symmetric, and QL
    # drives the tridiagonal's couplings under 1e-30 of the norm at 53 bits
    code, out, _ = run(capsys, "verify", "--points", "1,2,3", "--r", "2.5",
                       "--residual-tol", "1e-30")
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert (result["computed"], result["precision_bits"]) == ([2, 0, 1], 53)


@pytest.mark.parametrize("r", ["2", "0"])
def test_zeros_rejects_an_identically_zero_combination(capsys, r):
    code, out, err = run(capsys, "zeros", "--points", "1,2,3", "--coeffs", "1,-2,1", "--r", r,
                         "--grid", "501", "--x-min", "0.5", "--x-max", "4")
    assert (code, out) == (2, "")
    assert err == f"error: the combination is identically zero at r = {r}\n"


def test_sweep_reports_each_dropped_point(capsys, stalled_eigensolver):
    code, out, err = run(capsys, "sweep", "--points", "1,2,3", "--r-range", "0.5:2.5:3")
    assert code == 2
    assert out == "r,lambda_1,lambda_2,lambda_3,pos,zero,neg\r\n"
    lines = err.splitlines()
    assert [line.split(" dropped:")[0] for line in lines] == [
        "error: r=0.5", "error: r=1.5", "error: r=2.5"]


def _sweep_inertias(out):
    rows = list(csv.reader(io.StringIO(out)))[1:]
    return {float(row[0]): tuple(map(int, row[-3:])) for row in rows}


def test_sweep_reports_each_route_disagreement(capsys, monkeypatch):
    # at 53 bits the routes disagree at r = 3.5 and 4.5; both points climb the
    # ladder and settle with the theorem's inertia
    code, out, err = run(capsys, "sweep", "--points", "1,2,3,4,5,6", "--r-range", "0.5:6.5:13",
                         "--precision-bits", "53")
    assert (code, err) == (0, "")
    by_r = _sweep_inertias(out)
    assert len(by_r) == 13
    for r in (3.5, 4.5):
        assert by_r[r] == predicted_inertia(6, r).inertia.as_tuple()
    # routes that still disagree on the top rung keep an unsettled row, except
    # where the exact route ran (r = 1)
    monkeypatch.setattr(inertia_mod, "inertia_ldl", lambda A, tol: Inertia(0, 0, A.order))
    code, out, err = run(capsys, "sweep", "--points", "1,2,3", "--r-range", "0.5:1.5:3")
    assert code == 2
    assert _sweep_inertias(out) == {0.5: (3, 0, 0), 1.0: (1, 2, 0), 1.5: (1, 0, 2)}
    assert err.splitlines() == ["error: r=0.5 kept: route disagreement",
                                "error: r=1.5 kept: route disagreement"]


def test_sweep_settles_a_53_bit_start_on_the_ladder(capsys):
    # without the ladder, L_0.5 (positive definite) printed as (5, 1, 0)
    code, out, err = run(capsys, "sweep", "--points", "1,2,3,4,5,6", "--r-range", "0.5:1.5:3",
                         "--precision-bits", "53")
    assert (code, err) == (0, "")
    assert _sweep_inertias(out) == {0.5: (6, 0, 0), 1.0: (1, 5, 0), 1.5: (1, 0, 5)}


def test_sweep_keeps_the_exact_inertia_where_the_float_routes_cannot_resolve(capsys):
    # near r = 2000 the float routes cannot resolve L_r; the exact route's
    # inertia stands at every integer point
    code, out, err = run(capsys, "sweep", "--points", "1,2,3", "--r-range", "1998:2002:5")
    assert (code, err) == (0, "")
    assert _sweep_inertias(out) == {float(r): (2, 0, 1) for r in range(1998, 2003)}


def test_complex_zeros_far_right_has_no_zero(capsys):
    # no zero here, but each |det| is near 1e1006: a singularity test relative to
    # eps*||A|| would report zeros on the contour (exit 1)
    code, out, _ = run(capsys, "complex-zeros", "--points", "1,2,3",
                       "--region", "799:801:-1:1", "--grid", "4")
    assert code == 0
    assert json.loads(out)["total_winding"] == 0


def test_complex_zeros_ten_nodes_resolves_or_is_a_usage_error(capsys):
    # 53 bits has no correct digit of det here: the samples must climb the ladder
    # rather than read as zeros on the contour (exit 1)
    code, out, _ = run(capsys, "complex-zeros", "--points", "1,2,3,4,5,6,7,8,9,10",
                       "--region", "1.45:1.55:-0.05:0.05")
    assert code == 2 or (code == 0 and json.loads(out)["total_winding"] == 0)


def test_complex_zeros_exhausted_scan_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(analysis, "_complex_det_ladder", lambda config, z, tol, tables: 0)
    code, out, err = run(capsys, "complex-zeros", "--points", "1,2,3",
                         "--region", "0.5:1.5:-0.5:0.5", "--grid", "4")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_complex_zeros_grid_finer_than_the_coordinates_is_a_usage_error(capsys):
    code, out, err = run(capsys, "complex-zeros", "--points", "1,2,3",
                         "--region", "0.6:1.4:-0.4:0.4", "--grid", "72057594037927936")
    assert (code, out) == (2, "")
    assert err.startswith("error: the scan grid 72057594037927936 is too fine for the region")


def test_complex_zeros_rejects_a_non_finite_region(capsys):
    code, out, err = run(capsys, "complex-zeros", "--points", "1,2,3",
                         "--region=-inf:inf:-1:1")
    assert (code, out) == (2, "")
    assert err.startswith("error: rectangle bounds must be finite")


GRID_ERRORS = [
    ("zeros --points 1,2 --coeffs 1,-1 --r 0.5 --grid 1",
     "error: the scan grid needs at least 2 points, got 1\n"),
    ("zeros --points 1,2 --coeffs 1,-1 --r 0.5 --grid 0",
     "error: the scan grid needs at least 2 points, got 0\n"),
    ("zeros --points 1,2 --coeffs 1,-1 --r 0.5 --grid -5",
     "error: the scan grid needs at least 2 points, got -5\n"),
    ("complex-zeros --points 1,2,3 --region 0.6:1.4:-0.4:0.4 --grid=-1",
     "error: the scan grid must be at least 1, got -1\n"),
    ("complex-zeros --points 1,2,3 --region 0.6:1.4:-0.4:0.4 --grid 0",
     "error: the scan grid must be at least 1, got 0\n"),
]


@pytest.mark.parametrize("argv, err", GRID_ERRORS, ids=[argv for argv, _ in GRID_ERRORS])
def test_a_grid_under_its_minimum_is_a_usage_error(capsys, argv, err):
    assert run(capsys, *argv.split()) == (2, "", err)


@pytest.mark.parametrize("exc", [
    ArithmeticError("a determinant zero stayed on the contour after re-gridding"),
    ZeroDivisionError("float division by zero"),
    decimal.DivisionByZero("division by zero"),
])
def test_an_arithmetic_shortfall_is_exit_2_not_a_violation(capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(analysis, "count_zeros", fail)
    code, out, err = run(capsys, "zeros", "--points", "1,2", "--coeffs", "1,-1", "--r", "0.5")
    assert (code, out, err) == (2, "", f"error: {exc}\n")


# The smallest value each count option takes, in a cheap command around it.
COUNT_OPTIONS = {
    "zeros --grid": (2, "zeros --points 1,2 --coeffs 1,-1 --r 0.5 --grid {}"),
    "complex-zeros --grid": (1, "complex-zeros --points 1,2 --region 2.6:3.4:-0.4:0.4 --grid {}"),
    "dk --samples": (1, "dk --points 1,2 --r 0.5 --samples {}"),
    "ssr --k-max": (1, "ssr --points 1,2,3 --r 0.5 --k-max {}"),
    "verify steps": (1, "verify --points 1,2 --r-range 0.5:1.5:{}"),
    "sweep steps": (1, "sweep --points 1,2 --r-range 0.5:1.5:{}"),
}


@settings(deadline=None, max_examples=80)
@given(option=st.sampled_from(sorted(COUNT_OPTIONS)), value=st.integers(-3, 3))
def test_a_count_under_its_minimum_exits_2_with_one_error_line(option, value):
    minimum, argv = COUNT_OPTIONS[option]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv.format(value).split())  # nothing escapes main
    if value < minimum:
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1, 2)


# Every JSON subcommand at cheap sizes: {p} is the node list, {r} the
# exponent and {c} one coefficient per node.
JSON_ARGV = [
    "build --points {p} --r {r}",
    "build --points {p} --r {r} --kind power-sum",
    "verify --points {p} --r {r}",
    "zeros --points {p} --coeffs={c} --r {r} --grid 64",
    "ssr --points {p} --r {r}",
    "ssr --points {p} --r {r} --k-max 2",
    "det-id --points {p}",
    "dk --points {p} --r {r} --samples 2",
    "complex-zeros --points {p} --region 0.6:1.4:-0.4:0.4 --grid 2",
    "pr-compare --points {p} --r {r}",
]
# Decimal nodes are dyadic: a non-dyadic one such as 0.7 makes the exact
# route at |r| = 2000 work on integers of about 10^5 bits, seconds a call.
# 1/2 and 0.5 are the same node, so drawing both is a usage error.
NODES = ["1/2", "0.5", "1", "1.25", "3/2", "2", "2.5", "3", "4"]
EXPONENTS = ["0", "-1", "-2.5", "1", "2", "3", "0.5", "2.5", "7/2", "2000", "-2000"]


@st.composite
def json_argv(draw):
    nodes = sorted(draw(st.lists(st.sampled_from(NODES), min_size=2, max_size=4, unique=True)),
                   key=Fraction)
    coeffs = draw(st.lists(st.sampled_from(["1", "-1", "2", "0"]),
                           min_size=len(nodes), max_size=len(nodes)))
    return draw(st.sampled_from(JSON_ARGV)).format(
        p=",".join(nodes), r=draw(st.sampled_from(EXPONENTS)), c=",".join(coeffs))


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("r", [2000, -2000])
def test_entries_beyond_the_float_range_print_as_text(capsys, r):
    # the entries reach 1e957 at r = 2000 and 1e-952 at r = -2000, which as
    # floats would print as Infinity and -0.0
    code, out, _ = run(capsys, "build", "--points", "1,2,3", "--r", str(r))
    assert code == 0
    matrix = json.loads(out, parse_constant=_refuse_constant)["matrix"]
    exact = loewner_matrix_exact(make_point_config((1, 2, 3)), r).entries
    for row, want_row in zip(matrix, exact):
        for got, want in zip(row, want_row):
            want = mp.mpmathify(want)
            assert isinstance(got, str) == (not 1e-300 < abs(want) < 1e300)
            assert abs(mpf(got) - want) <= 32 * mp.eps * abs(want)


@settings(deadline=None, max_examples=200)
@given(argv=json_argv())
@example(argv="build --points 1,2,3 --r 2000")   # entries beyond the float range
@example(argv="build --points 1,2,3 --r -2000")  # entries below it
@example(argv="dk --points 1,2,3 --r 0")         # an exception without a message
def test_every_json_command_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv.split())
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and re.fullmatch(r"error: \S.*\n", err), err
    else:
        payload = json.loads(out, parse_constant=_refuse_constant)
        violated = any(payload.get(k) is False for k in ("ok", "match", "all_match"))
        assert (code == 1) == violated and err == ""
