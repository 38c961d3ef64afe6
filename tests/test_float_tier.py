"""The float tier: at 53 bits the kernels run on Python floats when their
inputs allow it, with the same results as on mpmath, and inputs outside the
float window or non-finite take mpmath or fail loudly.

``ToleranceContext.arith`` is the one place that picks the arithmetic; the
parity tests replace it with one that always answers ``MP_ARITH`` and run
the same public function both ways.
"""

import importlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from loewnerlab import (
    ComboFunction,
    Exponent,
    ScanPolicy,
    SymMatrix,
    ToleranceContext,
    consensus_inertia,
    count_zeros,
    eig_sym,
    inertia_from_spectrum,
    inertia_ldl,
    loewner_matrix,
    make_point_config,
    predicted_inertia,
    verify_instance,
)
from loewnerlab import cli
from loewnerlab.exact import rational_inertia
from loewnerlab.types import DEC_ARITH, FLOAT_ARITH, MP_ARITH

# the package re-exports a function named ``inertia`` that hides the module
inertia_mod = importlib.import_module("loewnerlab.inertia")

TOL = ToleranceContext()


@pytest.fixture
def chosen(monkeypatch):
    """Record each arithmetic decision: one per matrix and context for the
    eigenvalue and LDL routes (``SymMatrix._image``, which both copy), and
    one per call for every other kernel."""
    seen = []
    original = ToleranceContext.arith

    def spy(self, values, r=None):
        ar = original(self, values, r)
        seen.append(ar)
        return ar

    monkeypatch.setattr(ToleranceContext, "arith", spy)
    return seen


@pytest.fixture
def mp_only(monkeypatch):
    """Make every kernel run on mpmath, keeping the non-finite check."""
    original = ToleranceContext.arith

    def forced(self, values, r=None):
        original(self, values, r)
        return MP_ARITH

    def use():
        monkeypatch.setattr(ToleranceContext, "arith", forced)

    return use


def _seeded_loewner_matrices():
    rng = random.Random(20260)
    cases = []
    for n in range(3, 13):
        for clustered in (False, True):
            while True:
                xs = sorted(rng.uniform(0.1, 10.0) for _ in range(n))
                if all(b - a >= 0.1 for a, b in zip(xs, xs[1:])):
                    break
            if clustered:
                k = rng.randrange(n - 1)
                xs[k + 1] = xs[k] * (1 + 2.0 ** -rng.uniform(20, 30))
                xs.sort()
            r = rng.choice([rng.uniform(-2.0, n + 2.0), rng.randint(1, n + 1)])
            cases.append((make_point_config(xs), r))
    return cases


CASES = _seeded_loewner_matrices()


def test_float_tier_is_taken_at_53_bits_only(chosen):
    cfg, r = CASES[0]
    L = loewner_matrix(cfg, r)
    eig_sym(L)
    inertia_ldl(L)
    assert chosen and all(ar is FLOAT_ARITH for ar in chosen)
    chosen.clear()
    ctx = ToleranceContext.at_bits(256)
    L = loewner_matrix(cfg, r, ctx)
    assert chosen == [MP_ARITH]
    chosen.clear()
    eig_sym(L, ctx)
    inertia_ldl(L, ctx)
    assert chosen == [DEC_ARITH]


def test_outputs_stay_mpf():
    cfg, r = CASES[3]
    L = loewner_matrix(cfg, r)
    assert all(type(e) is mpf for row in L.entries for e in row)
    spec = eig_sym(L)
    assert all(type(v) is mpf for v in spec.eigenvalues)
    assert type(spec.offdiag_residual) is mpf


@pytest.mark.parametrize("cfg, r", CASES, ids=[f"n{c.n}-{i % 2}" for i, (c, _) in enumerate(CASES)])
def test_eig_sym_and_ldl_match_mpmath_at_53_bits(cfg, r, mp_only):
    L = loewner_matrix(cfg, r)
    spec = eig_sym(L)
    by_ldl = inertia_ldl(L)
    mp_only()
    spec_mp = eig_sym(L)
    assert spec.eigenvalues == spec_mp.eigenvalues
    assert spec.offdiag_residual == spec_mp.offdiag_residual
    assert by_ldl == inertia_ldl(L)


def test_count_zeros_matches_mpmath_at_53_bits(mp_only):
    rng = random.Random(99)
    combos = []
    for n in (3, 4, 5, 6):
        cfg = make_point_config(range(1, n + 1))
        for r in (rng.uniform(0.2, n - 0.2), rng.randint(1, n - 1), -rng.uniform(0.2, 3)):
            coeffs = tuple(rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) for _ in range(n))
            combos.append(ComboFunction(cfg, coeffs, r))
    scan = ScanPolicy(grid=401)
    counts = [count_zeros(f, scan).count for f in combos]
    mp_only()
    assert counts == [count_zeros(f, scan).count for f in combos]


@pytest.mark.parametrize("scale", [2.0 ** 1000, 2.0 ** -1000])
def test_entries_near_float_limits_take_mpmath(scale, chosen):
    cfg = make_point_config((1, 2, 3, 4))
    r = 2.5
    L = loewner_matrix(cfg, r)
    big = SymMatrix.build(4, lambda i, j: L[i, j] * scale)
    chosen.clear()
    spec = eig_sym(big)
    expected = predicted_inertia(4, r).inertia
    assert inertia_from_spectrum(spec, spec.scale) == expected
    assert inertia_ldl(big) == expected
    assert chosen and all(ar is MP_ARITH for ar in chosen)


@pytest.mark.parametrize("points, r", [((1e300, 2e300, 3e300), 2.5),
                                       ((1e-300, 2e-300, 3e-300), -1.5),
                                       ((1.0, 2.0, 3.0), 700.5)],
                         ids=["nodes-1e300", "nodes-1e-300", "power-overflows"])
def test_nodes_or_powers_outside_the_window_take_mpmath(points, r):
    cfg = make_point_config(points)
    assert TOL.arith(cfg.values(), r) is MP_ARITH
    rep = verify_instance(cfg, r)
    assert rep.match and rep.computed == predicted_inertia(3, r).inertia


def test_integer_beyond_the_float_range_takes_mpmath():
    # float(10**400) raises OverflowError; the seam must answer, not raise
    assert TOL.arith([10**400]) is MP_ARITH


def test_power_tables_keep_entries_bit_identical():
    cfg = make_point_config((Fraction(1, 3), 0.7, 2.5, 9.75))
    ctx = ToleranceContext.at_bits(256)
    for m in (5, -4, 12):
        L = loewner_matrix(cfg, m, ctx)
        with ctx.prec():
            p = cfg.mp_points()
            k = abs(m)
            for i in range(4):
                for j in range(4):
                    x, y = p[i], p[j]
                    s = mp.fsum(x ** a * y ** (k - 1 - a) for a in range(k))
                    assert L[i, j] == (s if m > 0 else -s / (x ** k * y ** k))


def test_exact_route_runs_once_per_call(monkeypatch):
    calls = []
    original = inertia_mod.builders.loewner_twin

    def counted(q, r):
        calls.append(r)
        return original(q, r)

    monkeypatch.setattr(inertia_mod.builders, "loewner_twin", counted)
    cfg = make_point_config(range(1, 9))
    q = tuple(range(1, 9))
    rep = verify_instance(cfg, 7)
    assert rep.match and rep.escalations == 1
    assert calls == [7]

    L = loewner_matrix(cfg, 7)
    by_exact = rational_inertia(original(q, 7))
    first_rung = replace(inertia_mod.inertia(L), by_exact=by_exact)
    assert first_rung.disagreement  # so consensus escalates
    calls.clear()
    rep = consensus_inertia(L, twin=inertia_mod.builders.loewner_twin(q, 7))
    assert not rep.disagreement
    assert calls == [7]


def test_point_config_rejects_infinity():
    with pytest.raises(ValueError, match="finite"):
        make_point_config((1.0, 2.0, float("inf")))


@pytest.mark.parametrize("r", [float("inf"), float("-inf"), float("nan")])
def test_exponent_rejects_non_finite(r):
    with pytest.raises(ValueError, match="finite"):
        Exponent.of(r)


def test_build_with_infinite_exponent_is_a_usage_error(capsys):
    assert cli.main(["build", "--points", "1,2", "--r", "inf"]) == 2


@pytest.mark.parametrize("bad", [mpf("nan"), mpf("inf"), float("nan"), float("-inf")])
@pytest.mark.parametrize("bits", [53, 256])
def test_routes_reject_non_finite_entries(bad, bits):
    ctx = ToleranceContext.at_bits(bits)
    A = SymMatrix.diagonal((mpf(1), bad, mpf(2)), zero=mpf(0))
    with pytest.raises(ValueError, match="non-finite"):
        eig_sym(A, ctx)
    with pytest.raises(ValueError, match="non-finite"):
        inertia_ldl(A, ctx)
