"""The float-native 53-bit rung: a matrix built on floats keeps its float
rows, works out one working image per context (the arithmetic, its rows in
it and their norm), and makes its mpf entries only when they are read, with
every result bit-identical to the same matrix given as mpf entries.

Also the bounds around it: the precision cap, the float fast path of
``Exponent.of`` and the parser built once per process.
"""

import importlib
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mpf

from loewnerlab import (
    Exponent,
    SymMatrix,
    ToleranceContext,
    eig_sym,
    inertia,
    inertia_ldl,
    loewner_matrix,
    make_point_config,
    verify_instance,
)
from loewnerlab import cli
from loewnerlab.types import DEC_ARITH, DEFAULT_TOL, FLOAT_ARITH, MAX_PRECISION_BITS, MP_ARITH

from test_float_tier import CASES, chosen, mp_only  # noqa: F401  (fixtures)

inertia_mod = importlib.import_module("loewnerlab.inertia")

CTX256 = ToleranceContext.at_bits(256)


@pytest.mark.parametrize("bits", [53, 256])
@pytest.mark.parametrize("cfg, r", CASES, ids=[f"n{c.n}-{i % 2}" for i, (c, _) in enumerate(CASES)])
def test_float_native_matrix_gives_the_mpf_matrix_results(cfg, r, bits):
    ctx = ToleranceContext.at_bits(bits)
    L = loewner_matrix(cfg, r, ctx)
    native = inertia(L, ctx)
    given = inertia(SymMatrix.from_rows(L.entries), ctx)
    assert native.spectrum.eigenvalues == given.spectrum.eigenvalues
    assert native.spectrum.offdiag_residual == given.spectrum.offdiag_residual
    assert (native.by_eigen, native.by_ldl) == (given.by_eigen, given.by_ldl)


@pytest.fixture
def conversions(monkeypatch):
    """Record every float an mpf is made from, and every mpf converted to a
    float, with the float it gave."""
    made, imaged = [], []
    new, to_float = mpf.__new__, mpf.__float__

    def spy_new(cls, val=0, **kwargs):
        if type(val) is float:
            made.append(val)
        return new(cls, val, **kwargs)

    def spy_float(x):
        out = to_float(x)
        imaged.append((x, out))
        return out

    monkeypatch.setattr(mpf, "__new__", staticmethod(spy_new))
    monkeypatch.setattr(mpf, "__float__", spy_float)
    return made, imaged


def test_a_53_bit_verify_converts_no_entry(conversions):
    cfg, r = make_point_config((1, 2, 3, 4, 5)), 2.5
    entries = {float(e) for row in loewner_matrix(cfg, r).entries for e in row}
    made, imaged = conversions
    made.clear()
    imaged.clear()
    rep = verify_instance(cfg, r)
    assert rep.match and rep.precision_bits == 53
    assert entries.isdisjoint(made)
    assert entries.isdisjoint(out for _, out in imaged)


def test_a_256_bit_rung_converts_each_entry_once_in_all(conversions):
    # once for the window rule, however many routes read the matrix (each
    # entry object sits in both triangles); no float image is made above 53 bits
    L = loewner_matrix(make_point_config((1, 2, 3, 4, 5)), 2.5, CTX256)
    ids = {id(e) for row in L.entries for e in row}
    _, imaged = conversions
    inertia(L, CTX256)
    per_entry = Counter(id(x) for x, _ in imaged if id(x) in ids)
    assert set(per_entry) == ids and set(per_entry.values()) == {1}


@pytest.fixture
def decimal_roundings():
    """Record every value ``DEC_ARITH.num`` rounds into ``decimal``."""
    seen = []
    original = DEC_ARITH.num

    def spy(x):
        seen.append(x)
        return original(x)

    object.__setattr__(DEC_ARITH, "num", spy)  # Arith is a frozen dataclass
    yield seen
    object.__setattr__(DEC_ARITH, "num", original)


def test_a_256_bit_rung_rounds_each_entry_into_decimal_once(decimal_roundings):
    # both routes copy the matrix's one image at this context
    L = loewner_matrix(make_point_config((1, 2, 3, 4, 5)), 2.5, CTX256)
    ids = {id(e) for row in L.entries for e in row}
    inertia(L, CTX256)
    per_entry = Counter(id(x) for x in decimal_roundings if id(x) in ids)
    assert set(per_entry) == ids and set(per_entry.values()) == {1}


def test_forced_mpmath_runs_both_routes_on_mpmath(monkeypatch, mp_only):
    copies = []
    original = inertia_mod._working_copy

    def spy(A, tol):
        ar, M, norm = original(A, tol)
        copies.append((ar, {type(v) for row in M for v in row}))
        return ar, M, norm

    monkeypatch.setattr(inertia_mod, "_working_copy", spy)
    cfg, r = CASES[2]
    L = loewner_matrix(cfg, r)
    mp_only()
    eig_sym(L)
    inertia_ldl(L)
    assert copies == [(MP_ARITH, {mpf}), (MP_ARITH, {mpf})]


def test_an_entry_under_the_window_takes_mpmath_at_53_bits(chosen):
    tiny = mpf(2) ** -1100
    A = SymMatrix.from_rows([[1, tiny, 0], [tiny, 2, 0], [0, 0, 3]])
    eig_sym(A)
    inertia_ldl(A)
    assert chosen == [MP_ARITH]


def test_an_entry_over_the_window_skips_the_float_pass(chosen):
    # 53 bits takes mpmath and 256 bits decimal: neither route runs on floats
    for ctx, ar in ((ToleranceContext.at_bits(53), MP_ARITH), (CTX256, DEC_ARITH)):
        with ctx.prec():
            big = mpf(2) ** 1100
        A = SymMatrix.from_rows([[big, 1, 0], [1, 2, 0], [0, 0, 3]])
        chosen.clear()
        rep = inertia(A, ctx)
        assert chosen == [ar]
        assert not rep.disagreement


@pytest.mark.parametrize("wide_first", [False, True])
def test_the_image_is_keyed_by_context_not_bits(monkeypatch, wide_first):
    # at 53 bits a residual tolerance under the float window sends the same
    # float-tier matrix to mpmath, so an image kept per bits would hand the
    # second context the first one's arithmetic
    copies = []
    original = inertia_mod._working_copy

    def spy(A, tol):
        ar, M, norm = original(A, tol)
        copies.append((tol, ar, {type(v) for row in M for v in row}))
        return ar, M, norm

    monkeypatch.setattr(inertia_mod, "_working_copy", spy)
    cfg, r = CASES[2]
    L = loewner_matrix(cfg, r)
    wide = ToleranceContext(residual_tol=1e-70)
    runs = {DEFAULT_TOL: (FLOAT_ARITH, {float}), wide: (MP_ARITH, {mpf})}
    order = [wide, DEFAULT_TOL] if wide_first else [DEFAULT_TOL, wide]
    for ctx in order:
        eig_sym(L, ctx)
        inertia_ldl(L, ctx)
    assert copies == [(ctx, *runs[ctx]) for ctx in order for _ in range(2)]


def test_float_native_matrix_equals_its_entries():
    cfg, r = CASES[4]
    L = loewner_matrix(cfg, r)
    M = SymMatrix.from_rows(L.entries)
    assert L == M and hash(L) == hash(M)
    assert all(type(e) is mpf for row in L.entries for e in row)
    with pytest.raises(AttributeError):
        L.order = 1


# ---------------------------------------------------------------------------
# Bounds around the rung


def test_precision_is_capped():
    with pytest.raises(ValueError, match="precision_bits"):
        ToleranceContext.at_bits(MAX_PRECISION_BITS + 1)
    assert [c.precision_bits for c in ToleranceContext.at_bits(MAX_PRECISION_BITS).rungs()] \
        == [MAX_PRECISION_BITS]
    assert [c.precision_bits for c in ToleranceContext.at_bits(3000).rungs()] \
        == [3000, MAX_PRECISION_BITS]
    for bits in (53, 100, 640, 1000, 2048, 4000):
        assert all(c.precision_bits <= MAX_PRECISION_BITS
                   for c in ToleranceContext.at_bits(bits).rungs())


def test_cli_refuses_a_precision_over_the_cap(capsys):
    argv = ["verify", "--points", "1,2,3", "--r", "2.5", "--precision-bits", "100000000"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "precision_bits" in err


@pytest.mark.parametrize("r", [float("inf"), float("nan"), mpf("inf"), mpf("-inf")])
def test_exponent_still_rejects_non_finite(r):
    with pytest.raises(ValueError, match="finite"):
        Exponent.of(r)


def test_exponent_classifies_huge_rationals():
    assert Exponent.of(10 ** 400).integer_value == 10 ** 400
    assert Exponent.of(Fraction(10 ** 400, 3)).integer_value is None
    assert Exponent.of(Fraction(10 ** 400, 5)).integer_value == 2 * 10 ** 399
    assert Exponent.of(2.0).integer_value == 2 and Exponent.of(2.5).integer_value is None


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
