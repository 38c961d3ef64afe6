import decimal
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from loewnerlab import analysis
from loewnerlab.cli import main, parse_range, parse_scalar
from fractions import Fraction


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


def test_verify_range(capsys):
    code, out, _ = run(capsys, "verify", "--points", "1,2,3", "--r-range",
                       "0.5:2.5:5")
    assert code == 0
    assert len(json.loads(out)["results"]) == 5


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--points", "1,2", "--r-range",
                       "0.5:1.5:3", "--scale", "none")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,lambda_1,lambda_2,pos,zero,neg"
    assert len(lines) == 4
    tail = [line.split(",")[-3:] for line in lines[1:]]
    assert tail == [["2", "0", "0"], ["1", "1", "0"], ["1", "0", "1"]]


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


@pytest.mark.parametrize("argv", [
    "verify --points 1,2,3 --r 2.5 --residual-tol 1e-30",
    "dk --points 1,2,3 --r 0.5 --samples 3 --residual-tol 1e-30",
])
def test_unreachable_tolerance_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: off-diagonal mass") and err.count("\n") == 1


@pytest.mark.parametrize("r", ["2", "0"])
def test_zeros_rejects_an_identically_zero_combination(capsys, r):
    code, out, err = run(capsys, "zeros", "--points", "1,2,3", "--coeffs", "1,-2,1", "--r", r,
                         "--grid", "501", "--x-min", "0.5", "--x-max", "4")
    assert (code, out) == (2, "")
    assert err == f"error: the combination is identically zero at r = {r}\n"


def test_sweep_reports_each_dropped_point(capsys):
    code, out, err = run(capsys, "sweep", "--points", "1,2,3", "--r-range", "0.5:2.5:3",
                         "--residual-tol", "1e-30")
    assert code == 2
    assert out == "r,lambda_1,lambda_2,lambda_3,pos,zero,neg\r\n"
    lines = err.splitlines()
    assert [line.split(" dropped:")[0] for line in lines] == [
        "error: r=0.5", "error: r=1.5", "error: r=2.5"]


def test_sweep_reports_each_route_disagreement(capsys):
    # at 53 bits the routes disagree at r = 3.5 and 4.5; the rows stay, unsettled
    code, out, err = run(capsys, "sweep", "--points", "1,2,3,4,5,6", "--r-range", "0.5:6.5:13",
                         "--precision-bits", "53")
    assert code == 2
    assert len(out.splitlines()) == 14
    assert err.splitlines() == ["error: r=3.5 kept: route disagreement",
                                "error: r=4.5 kept: route disagreement"]


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
    monkeypatch.setattr(analysis, "complex_det", lambda config, z, tol: mpc(0))
    code, out, err = run(capsys, "complex-zeros", "--points", "1,2,3",
                         "--region", "0.5:1.5:-0.5:0.5", "--grid", "4")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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
