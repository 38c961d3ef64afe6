"""Accuracy of the divided-difference kernel, of the congruence route and
of the QL eigenvalues.

Kernel references are evaluated by plain subtraction at four times the
working precision, where the cancellation still leaves over 100 correct
bits; eigenvalue references come from ``eig_sym`` at 640 bits on the same
entries, checked against mpmath's ``eigsy``.
"""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from loewnerlab import (
    ComboFunction,
    SymMatrix,
    ToleranceContext,
    combo_eval,
    cross_loewner,
    eig_sym,
    inertia_ldl,
    loewner_matrix,
    loewner_matrix_exact,
    make_point_config,
    verify_instance,
)
from loewnerlab.exact import rational_inertia

EPS = mpf(2) ** -52
KERNEL_TOL = 16 * EPS

TINY_R = (1e-16, 2.220446049250313e-16, 3e-13, 1e-10, 1e-9)
OTHER_R = (0.5, 2.5, 7.25, -0.3, -1.5, -3.7)
INTEGER_R = (1, 2, 5, 12, -1, -2, -4, 70, -70)
GAPS = (20, 30, 40, 52)
BASES = (0.37, 1.0, 3.3, 9.7)


def reference(x, y, r):
    with mp.workprec(4 * 53):
        x, y, r = mpf(x), mpf(y), mpf(r)
        if x == y:
            return r * x ** (r - 1)
        return (x ** r - y ** r) / (x - y)


def rel_err(value, ref):
    with mp.workprec(4 * 53):
        return abs(mpf(value) - ref) / abs(ref)


def close_pair(x, gap):
    y = x + x * 2.0 ** -gap
    assert x < y
    return x, y


@pytest.mark.parametrize("r", TINY_R + OTHER_R + INTEGER_R)
def test_loewner_entries_within_kernel_bound(r):
    for x0 in BASES:
        for gap in GAPS:
            x, y = close_pair(x0, gap)
            L = loewner_matrix(make_point_config((x, y, 4 * y)), r)
            nodes = (x, y, 4 * y)
            for i in range(3):
                for j in range(3):
                    err = rel_err(L[i, j], reference(nodes[i], nodes[j], r))
                    assert err <= KERNEL_TOL, (x, gap, r, i, j, err)


@pytest.mark.parametrize("r", TINY_R + OTHER_R + INTEGER_R)
def test_cross_loewner_near_coincident_sequences(r):
    p = (0.5, 1.0, 2.3, 7.9)
    q = (0.5 * (1 + 2.0 ** -52), 1.0, 2.3 * (1 - 2.0 ** -30), 7.9 * (1 + 2.0 ** -20))
    C = cross_loewner(make_point_config(p), make_point_config(q), r)
    for i in range(4):
        for j in range(4):
            err = rel_err(C[i][j], reference(p[i], q[j], r))
            assert err <= KERNEL_TOL, (i, j, r, err)


def test_small_integer_nodes_stay_exact():
    L = loewner_matrix(make_point_config((1, 2, 3)), 3)
    assert L.entries == loewner_matrix_exact(make_point_config((1, 2, 3)), 3).entries
    L = loewner_matrix(make_point_config((1, 2)), -2)
    assert L[0, 1] == mpf(-3) / 4


@pytest.mark.parametrize("c, r", [(2.0, 2.220446049250313e-16), (0.5, 1e-10),
                                  (2.0, 1e-09), (3.0, 6.356711708323535e-16)])
def test_scaling_covariance_at_tiny_exponents(c, r):
    cfg = make_point_config((0.5, 1.0, 2.3))
    L = loewner_matrix(cfg, r)
    Ls = loewner_matrix(cfg.scaled(c), r)
    factor = mpf(c) ** (mpf(r) - 1)
    for i in range(3):
        for j in range(3):
            assert abs(Ls[i, j] - factor * L[i, j]) <= 1e-13 * abs(factor * L[i, j])


def test_combo_eval_next_to_a_node():
    cfg = make_point_config((1.0, 2.0, 3.0))
    coeffs = (1.0, -2.0, 1.0)
    r = 1e-12
    f = ComboFunction(cfg, coeffs, r)
    x = 2.0 * (1 + 2.0 ** -40)
    with mp.workprec(4 * 53):
        ref = sum(mpf(c) * reference(x, p, r) for c, p in zip(coeffs, cfg.points))
    assert rel_err(combo_eval(f, x), ref) <= 64 * EPS


CLUSTERED_R2 = (3.4302710788110806, 3.4302710903259728, 6.596548113824776, 6.922116636481044)
BUNCHED_RATIONAL_R6 = tuple(Fraction(s) for s in
                            "3 13/4 10/3 7/2 11/3 15/4 9/2 13/2 22/3 26/3 39/4".split())
BUNCHED_FLOAT_R6 = (1.658433335156241, 2.1303390105136595, 2.363822945377912,
                    2.6774206434682997, 2.8290952295310055, 2.9952086529308017,
                    4.6088963560662535, 5.558166498513436, 6.171902867637284,
                    7.738882650318514, 8.393679730775661, 9.122434472219265)


@pytest.mark.parametrize("points, r", [(CLUSTERED_R2, 2), (BUNCHED_RATIONAL_R6, 6),
                                       (BUNCHED_FLOAT_R6, 6)],
                         ids=["clustered-float-r2", "bunched-rational-r6",
                              "bunched-float-r6"])
def test_integer_exponent_reproducers(points, r):
    cfg = make_point_config(points)
    rep = verify_instance(cfg, r)
    assert rep.match and not rep.disagreement
    exact = rational_inertia(loewner_matrix_exact(cfg.ensure_exact(), r).entries)
    for bits in (256, 512):
        ctx = ToleranceContext.at_bits(bits)
        assert inertia_ldl(loewner_matrix(cfg, r, ctx), ctx) == exact


def test_ldl_matches_exact_on_bunched_integer_exponents():
    rng = random.Random(17)
    ctx = ToleranceContext.at_bits(256)
    for _ in range(40):
        n = rng.randint(4, 12)
        centre = Fraction(rng.randint(10, 60), 4)
        points = sorted({centre + Fraction(rng.randint(-12, 12), rng.randint(5, 40))
                         for _ in range(n)})
        cfg = make_point_config(points)
        m = rng.randint(2, cfg.n - 1)
        exact = rational_inertia(loewner_matrix_exact(cfg, m).entries)
        assert inertia_ldl(loewner_matrix(cfg, m, ctx), ctx) == exact


def _random_symmetric(rng, n, bits, graded):
    """Symmetric n x n matrix of random ``bits``-bit entries in [-5, 5), with
    row and column i scaled by 2^k_i (|k_i| <= 20) when ``graded``."""
    with mp.workprec(bits):
        k = [rng.randint(-20, 20) if graded else 0 for _ in range(n)]
        return SymMatrix.build(n, lambda i, j: mp.ldexp(
            mpf(rng.getrandbits(bits)) / mpf(2) ** bits * 10 - 5, k[i] + k[j]))


# Loewner matrices whose smallest eigenvalues lie far below float roundoff,
# where only the working precision of ``eig_sym`` resolves them.
LOEWNER_EIG_CASES = ((range(1, 13), 2.5), (range(1, 17), 3.5))


def _eig_sym_cases(bits):
    """The random matrices, drawn in order from ``random.Random(bits)``, then,
    above 53 bits, the Loewner matrices of LOEWNER_EIG_CASES."""
    rng = random.Random(bits)
    for n in range(2, 13):
        for graded in (False, True):
            yield (n, graded), _random_symmetric(rng, n, bits, graded)
    if bits > 53:
        ctx = ToleranceContext.at_bits(bits)
        for nodes, r in LOEWNER_EIG_CASES:
            yield (nodes, r), loewner_matrix(make_point_config(nodes), r, ctx)


@pytest.mark.parametrize("bits, arith", [(53, "float"), (128, "decimal"), (256, "decimal"),
                                        (512, "decimal")])
def test_eig_sym_within_residual_plus_rounding_of_640_bits(bits, arith):
    # Weyl: the off-diagonal mass the sweeps leave moves each eigenvalue by at
    # most offdiag_residual; the rotations' roundings add a few eps*|A|_F each
    # (2.3 of them on a 2 x 2, where |A|_F is the largest |lambda|), so the
    # rounding allowance is 2n eps*|A|_F.  Graded matrices have clustered tiny
    # eigenvalues, where the residual term dominates.  The 640-bit reference
    # is checked against mpmath's eigsy, so a rotation error that every
    # precision shares cannot pass as accuracy.
    ctx, ref_ctx = ToleranceContext.at_bits(bits), ToleranceContext.at_bits(640)
    for case, A in _eig_sym_cases(bits):
        n = A.order
        assert ctx.arith(e for row in A.entries for e in row).name == arith
        spec, ref = eig_sym(A, ctx), eig_sym(A, ref_ctx).eigenvalues
        with mp.workprec(640):
            norm = mp.sqrt(mp.fsum(e * e for row in A.entries for e in row))
            oracle = sorted(mp.eigsy(mp.matrix(A.entries), eigvals_only=True))
            assert all(abs(mu - x) <= mpf(2) ** -600 * norm for mu, x in zip(ref, oracle))
            bound = spec.offdiag_residual + 2 * n * ctx.eps() * norm
            assert all(abs(lam - mu) <= bound for lam, mu in zip(spec.eigenvalues, ref)), case
            # the residual is compared in the working arithmetic: allow its roundings
            assert spec.offdiag_residual <= ctx.residual_tol * norm * (1 + 8 * ctx.eps())
