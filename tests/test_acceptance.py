"""Acceptance suite: each test exercises one exit criterion at its stated
tolerance and prints a single PASS/FAIL line."""

import math
import random
import time
from fractions import Fraction

from mpmath import mp, mpf

from loewnerlab import (
    ComboFunction,
    Inertia,
    ScanPolicy,
    SymMatrix,
    ToleranceContext,
    conditional_inertia,
    consensus_inertia,
    count_zeros,
    det_closed_form_L3,
    det_closed_form_L4,
    eig_sym,
    eigen_trajectories,
    loewner_matrix,
    loewner_matrix_exact,
    make_point_config,
    pr_compare,
    predicted_inertia,
    prop21_check,
    sign_change_report,
    ssr_scan,
    verify_identities,
    verify_instance,
)
from loewnerlab.exact import det_fraction, rank_fraction, rational_inertia

from helpers import (
    mat_mul,
    nonintegral,
    random_config,
    random_rational_config,
    random_symmetric_int,
    transpose,
)

CTX53 = ToleranceContext()
CTX256 = ToleranceContext.at_bits(256)


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:02d} {status}: {description}{suffix}"
    print(line)
    assert ok, line


def test_criterion_01_theorem_sweep():
    t0 = time.time()
    total = mismatches = 0
    for n in range(2, 7):
        rng = random.Random(100 + n)
        ctx = CTX256 if n == 6 else CTX53
        for _ in range(5):
            cfg = random_config(rng, n)
            top = n + 2
            for j in range(200):
                r = top * (j + 0.5) / 200
                if abs(r - round(r)) < 1e-3:
                    continue
                total += 1
                if not verify_instance(cfg, r, ctx).match:
                    mismatches += 1
    elapsed = time.time() - t0
    _report(1, "predicted inertia matches computed consensus over the grid",
            mismatches == 0 and elapsed < 120,
            f"{total} instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_integer_exact():
    rng = random.Random(202)
    failures = 0
    checked = 0
    for n in range(2, 7):
        configs = [
            make_point_config(tuple(range(1, n + 1))),
            make_point_config((2, 3, 5, 7, 11, 13)[:n]),
            random_rational_config(rng, n),
        ]
        for cfg in configs:
            for r in range(1, n + 1):
                k = (r + 1) // 2
                expected = Inertia(k, n - r, k) if r % 2 == 0 else Inertia(k, n - r, k - 1)
                checked += 1
                if rational_inertia(loewner_matrix_exact(cfg, r).entries) != expected:
                    failures += 1
    _report(2, "exact integer-exponent inertia equals the closed pattern",
            failures == 0, f"{checked} cases, exact arithmetic")


def test_criterion_03_identity_residuals():
    rng = random.Random(303)
    worst = mpf(0)
    for _ in range(50):
        n = rng.randint(2, 5)
        cfg = random_config(rng, n)
        r = rng.uniform(0.3, 6.0)
        res = verify_identities(cfg, r, CTX53)
        worst = max(worst, res.max_residual)
    exact_ok = True
    for n in (3, 4, 5):
        cfg = random_rational_config(rng, n)
        for r in range(2, n + 2):
            res = verify_identities(cfg, r, CTX53)
            exact_ok = exact_ok and res.power_step_exact and res.power_step == 0
    _report(3, "matrix identities hold (reflection, sinh congruence, power step)",
            worst <= 1e-10 and exact_ok,
            f"max float residual {mp.nstr(worst, 3)}, exact power-step residual 0")


def test_criterion_04_generalized_sylvester():
    rng = random.Random(404)
    failures = 0
    for _ in range(100):
        n = rng.randint(2, 7)
        m = rng.randint(1, n)
        A = random_symmetric_int(rng, m)
        while True:
            X = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            if rank_fraction(X) == m:
                break
        B = mat_mul(mat_mul(transpose(X), A), X)
        if rational_inertia(B) != rational_inertia(A).padded(n - m):
            failures += 1
    _report(4, "rectangular congruence pads inertia with zeros",
            failures == 0, "100 exact instances")


def test_criterion_05_conditional_definiteness():
    rng = random.Random(505)
    failures = 0
    checked = 0
    for n in (3, 4, 5, 6):
        cases = [m + t for m in range(1, n) for t in (0.3, 0.7)]
        cases += [nonintegral(rng, 1.05, n - 0.05) for _ in range(3)]
        for r in cases:
            k = math.floor(r)
            cfg = random_config(rng, n)
            ine = conditional_inertia(cfg, r, k, CTX256)
            expected = Inertia(0, 0, n - k) if k % 2 else Inertia(n - k, 0, 0)
            checked += 1
            if ine != expected:
                failures += 1
    _report(5, "compression onto the moment subspace is strictly definite "
               "with alternating sign", failures == 0, f"{checked} cases")


def test_criterion_06_negative_eigenvalue_above_one():
    rng = random.Random(606)
    failures = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        cfg = random_config(rng, n)
        r = rng.uniform(1.001, 8.0)
        if not prop21_check(cfg, r, CTX53):
            failures += 1
    _report(6, "at least one negative eigenvalue whenever r > 1",
            failures == 0, "100 instances")


def test_criterion_07_zero_count_bound():
    rng = random.Random(707)
    scan = ScanPolicy(grid=2001)
    failures = 0
    for n in (2, 3, 4):
        cfg = make_point_config(tuple(range(1, n + 1)))
        for _ in range(100):
            coeffs = tuple(rng.uniform(-1, 1) for _ in range(n))
            if max(abs(c) for c in coeffs) < 0.05:
                coeffs = coeffs[:-1] + (1.0,)
            r = nonintegral(rng, 0.2, n + 1.8, keepout=1e-3)
            rep = count_zeros(ComboFunction(cfg, coeffs, r), scan, CTX53)
            if rep.count > n - 1:
                failures += 1
    _report(7, "divided-difference combinations have at most n-1 zeros",
            failures == 0, "300 coefficient draws")


def test_criterion_08_determinant_closed_forms():
    rng = random.Random(808)
    failures = 0
    for _ in range(20):
        cfg = random_rational_config(rng, 3)
        if det_fraction(loewner_matrix_exact(cfg, 3).entries) != det_closed_form_L3(cfg):
            failures += 1
        if det_fraction(loewner_matrix_exact(cfg, 4).entries) != det_closed_form_L4(cfg):
            failures += 1
    spot = make_point_config((1, 2, 3))
    spots_ok = det_closed_form_L3(spot) == -4 and det_closed_form_L4(spot) == -576
    _report(8, "closed-form determinants match exact determinants",
            failures == 0 and spots_ok, "20 rational configs + spot values")


def test_criterion_09_sign_regularity():
    rng = random.Random(909)
    failures = 0
    gap_failures = 0
    for n in (3, 4, 5):
        for _ in range(10):
            r = nonintegral(rng, 0.2, n + 1.5)
            cfg = random_config(rng, n)
            L = loewner_matrix(cfg, r, CTX256)
            if ssr_scan(L, tol=CTX256).ssr_class != "SSR":
                failures += 1
            spec = eig_sym(L, CTX256)
            thresh = CTX256.zero_rel_tol * spec.scale * n
            nonzero = [e for e in spec.eigenvalues if abs(e) > thresh]
            gaps = [abs(a - b) for a, b in zip(nonzero, nonzero[1:])]
            if not all(g > thresh for g in gaps):
                gap_failures += 1
        cfg = random_rational_config(rng, n)
        for r in range(1, n):
            rep = ssr_scan(loewner_matrix_exact(cfg, r), tol=CTX256)
            if not all(v in ("+", "-") for v in rep.per_k[:r]):
                failures += 1
    _report(9, "full sign regularity off integers, SSR_r at integers, "
               "simple nonzero eigenvalues",
            failures == 0 and gap_failures == 0, "30 float + 9 exact scans")


def test_criterion_10_reflection():
    # the two sides see differently scaled spectra, so a zero-threshold miss
    # on one side only is possible at 53 bits: escalate on mismatch
    rng = random.Random(1010)
    failures = escalated = 0
    for _ in range(50):
        n = rng.randint(2, 5)
        cfg = random_config(rng, n)
        r = nonintegral(rng, 0.1, n + 1.5)
        for ctx in (CTX53, CTX256):
            pos = consensus_inertia(loewner_matrix(cfg, r, ctx), ctx)
            neg = consensus_inertia(loewner_matrix(cfg, -r, ctx), ctx)
            if neg.consensus == pos.consensus.swapped():
                break
            if ctx is CTX53:
                escalated += 1
        else:
            failures += 1
    _report(10, "negating the exponent swaps positive and negative counts",
            failures == 0, f"50 sampled exponents, {escalated} escalated")


def test_criterion_11_power_sum_comparison():
    rng = random.Random(1111)
    failures = 0
    findings = []
    checked = 0
    for n in (2, 3, 4, 5):
        for _ in range(20):
            cfg = random_config(rng, n)
            r = rng.uniform(0.05, 6.0)
            if abs(r - round(r)) < 1e-6:
                r += 1e-3
            rep = pr_compare(cfg, r, CTX256)
            checked += 1
            if rep.match:
                continue
            if rep.power_sum.disagreement or rep.loewner.disagreement:
                findings.append(("near-threshold", n, cfg.points, r))
            else:
                findings.append((n, cfg.points, r, rep.inertia_power_sum.as_tuple(),
                                 rep.inertia_loewner.as_tuple()))
                failures += 1
    for item in findings:
        print(f"  finding: power-sum comparison disagreement {item}")
    _report(11, "power-sum matrix shares the inertia of the shifted Loewner matrix",
            failures == 0, f"{checked} cases, {len(findings)} findings")


def test_criterion_12_six_point_sweep():
    cfg = make_point_config((1, 2, 3, 4, 5, 6))
    s = eigen_trajectories(cfg, 0.25, 6.75, 27, CTX256)
    ok = s.failures == ()
    by_r = dict(zip(s.grid, s.inertias))
    for m in range(1, 6):
        ok = ok and by_r[float(m)].zero == 6 - m
    for m in (6.0,):
        ok = ok and by_r[m].zero == 0
    changes = sign_change_report(s)
    ok = ok and all(not c.anomalous for c in changes)
    for c in changes:
        a, b = c.interval
        ok = ok and any(a <= m <= b for m in (1, 2, 3, 4, 5))
    constant_ok = True
    for m in range(0, 7):
        seen = {ine.as_tuple() for r, ine in zip(s.grid, s.inertias)
                if m < r < m + 1 and abs(r - round(r)) > 1e-9}
        constant_ok = constant_ok and len(seen) <= 1
    _report(12, "six-point sweep: transitions only at integers, exact zero "
                "counts there", ok and constant_ok,
            f"{len(s.grid)} grid points, {len(changes)} transitions")
