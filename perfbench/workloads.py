"""Seeded inputs and operations of the benchmark workloads.

A workload produces its operations in rounds.  Each round has a fixed
composition (how many ops of each order, exponent class and node kind), and
only the values inside each class are drawn from the seed.  A run stops at
a round boundary, so the mix of cheap and expensive ops is the same in every
run and the end-to-end figures vary with the machine, not with the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import checks


@dataclass
class Op:
    """One library call plus what the benchmark needs to judge it.

    ``call`` is the timed part.  ``collect`` turns its return value into the
    output that is checked and compared between traced and untraced runs
    (the sweep reads its CSV back here, outside the timing).  ``facts`` are
    counts taken from the output for the per-layer metrics.
    """

    label: str
    inputs: tuple  # what the library receives, for reproducing a failure
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    fingerprint: Callable[[object], object]
    collect: Callable[[object], object] = lambda out: out
    facts: Callable[[object], dict] = lambda out: {}


@dataclass(frozen=True)
class Workload:
    name: str
    # (rng, lib, out_dir) -> endless iterator of rounds, each a list of Ops
    rounds: Callable[[random.Random, object, Path], Iterator[list]]
    # Pinned, so that a faster program, which completes more ops in the same
    # time, is still judged at the same percentile.  Each leaves at least ten
    # samples beyond it in a 20 s run of the seed code and falls inside one
    # cost class of the round, not on the border between two;
    # stats.tail_percentile falls back to a lower one when a run has fewer
    # samples.
    tail_percentile: float


# ---------------------------------------------------------------------------
# Inputs


def _float_nodes(rng: random.Random, n: int, lo: float = 0.1, hi: float = 10.0,
                 gap: float = 0.1) -> list[float]:
    """n sorted floats in (lo, hi] with neighbours at least ``gap`` apart."""
    while True:
        xs = sorted(hi - rng.random() * (hi - lo) for _ in range(n))
        if all(b - a >= gap for a, b in zip(xs, xs[1:])):
            return xs


def _clustered_nodes(rng: random.Random, n: int) -> list[float]:
    """Float nodes with one pair at relative gap 2^-20 .. 2^-30."""
    xs = _float_nodes(rng, n - 1)
    k = rng.randrange(n - 2)
    xs.insert(k + 1, xs[k] * (1 + 2.0 ** -rng.uniform(20, 30)))
    return xs


_RATIONAL_POOL = sorted({Fraction(a, b) for b in range(1, 5) for a in range(1, 10 * b + 1)})


def _rational_nodes(rng: random.Random, n: int, gap: float = 0.1) -> list[Fraction]:
    """n fractions with denominators up to 4 in (0, 10], neighbours at least
    ``gap`` apart like the float nodes.  (Integer exponents on rational nodes
    1/12 apart, such as 13/4 and 10/3, can make the LDL route miscount zero
    pivots at every precision.)"""
    while True:
        xs = sorted(rng.sample(_RATIONAL_POOL, n))
        if all(b - a >= gap for a, b in zip(xs, xs[1:])):
            return xs


def _spread_nodes(rng: random.Random, n: int, rational: bool) -> list:
    """One node in the middle 60% of each of n equal cells of (0.1, 10].

    The larger orders need nodes spread over the interval: at n = 8..12 the
    LDL route miscounts zero pivots at every precision for a few integer
    exponents on nodes bunched together (about 1 op in 1000 with six of
    twelve nodes within 1.4 of each other), which no precision escalation
    repairs.
    """
    h = 9.9 / n
    nodes = []
    for i in range(n):
        lo, hi = 0.1 + (i + 0.2) * h, 0.1 + (i + 0.8) * h
        if rational:
            nodes.append(rng.choice([q for q in _RATIONAL_POOL if lo <= q <= hi]))
        else:
            nodes.append(lo + rng.random() * (hi - lo))
    return nodes


def _small_exponent(rng: random.Random, kind: str, n: int):
    if kind == "frac":
        return rng.uniform(0.05, n + 2)
    if kind == "int":
        return rng.randint(1, n + 1)
    # within 1e-6 of an integer: verify_instance starts these at 256 bits
    k = rng.randint(1, n + 1)
    return k + rng.choice((-1, 1)) * 10 ** -rng.uniform(6.3, 9)


# ---------------------------------------------------------------------------
# Operations


def _verify_op(lib, points, r, label: str) -> Op:
    cfg = lib.types.make_point_config(points)
    n = len(points)
    return Op(
        label=label,
        inputs=(tuple(points), r),
        call=lambda: lib.oracle.verify_instance(cfg, r),
        check=lambda rep: checks.check_verify(n, r, rep),
        fingerprint=lambda rep: (checks.triple(rep.computed), rep.match, rep.disagreement,
                                 rep.precision_bits, rep.escalations),
        facts=lambda rep: {"verify.escalated": int(rep.escalations > 0)},
    )


def _count_zeros_op(lib, n: int, coeffs, r: float) -> Op:
    f = lib.analysis.ComboFunction(lib.types.make_point_config(range(1, n + 1)), coeffs, r)
    scan = lib.analysis.ScanPolicy(grid=2001)
    return Op(
        label=f"count_zeros/n{n}",
        inputs=(n, coeffs, r),
        call=lambda: lib.analysis.count_zeros(f, scan),
        check=lambda rep: checks.check_count_zeros(n, rep),
        fingerprint=lambda rep: (rep.count, rep.brackets, rep.ambiguous, rep.grid),
        facts=lambda rep: {"count_zeros.ambiguous": len(rep.ambiguous)},
    )


def _complex_scan_op(lib, rect: tuple, label: str) -> Op:
    cfg = lib.types.make_point_config([1, 2, 3])
    return Op(
        label=label,
        inputs=rect,
        call=lambda: lib.analysis.complex_zero_scan(cfg, rect, grid=4),
        check=checks.check_complex_scan,
        fingerprint=lambda rep: (rep.total_winding, rep.regrids,
                                 tuple((c.rect, c.winding) for c in rep.cells)),
        facts=lambda rep: {"complex_zero_scan.regrids": rep.regrids},
    )


def _sweep_op(lib, points, a: float, b: float, steps: int, out: Path, label: str) -> Op:
    text_points = ",".join(str(p) if isinstance(p, Fraction) else repr(p) for p in points)
    argv = ["sweep", "--points", text_points, "--r-range", f"{a!r}:{b!r}:{steps}",
            "--out", str(out)]
    grid = [a + (b - a) * i / (steps - 1) for i in range(steps)]
    n = len(points)

    def collect(code):
        text = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)  # so a later sweep that writes nothing is not judged on this CSV
        return code, text

    return Op(
        label=label,
        inputs=tuple(argv[:-2]),
        call=lambda: lib.cli.main(argv),
        collect=collect,
        check=lambda res: checks.check_sweep_csv(n, grid, res[0], res[1]),
        fingerprint=lambda res: res,
        facts=lambda res: {"sweep.grid_points": steps},
    )


# ---------------------------------------------------------------------------
# Rounds


# Per order n: how many non-integer, integer and near-integer exponents a
# round holds (70/20/10 overall).  n = 5 gets the most ops because its 53-bit
# ops then straddle the middle of the latency distribution: with equal
# counts the median sat on the jump from the n = 4 ops to the n = 5 ops and
# swung with every draw.
SMALL_MIX = {3: (6, 1, 1), 4: (6, 1, 1), 5: (10, 3, 1), 6: (6, 3, 1)}


def verify_small_rounds(rng: random.Random, lib, out_dir: Path):
    """Rounds of 40 ops over orders 3..6 with the SMALL_MIX exponent classes;
    one config per order in each round is clustered."""
    while True:
        ops = []
        for n, (frac, whole, near) in SMALL_MIX.items():
            kinds = ["frac"] * frac + ["int"] * whole + ["near"] * near
            # Integer exponents 2..n-1 on clustered float nodes fail today: the
            # divided differences lose ~1/gap of their accuracy to cancellation,
            # the zero threshold shrinks with the precision at the same rate,
            # and the float routes never agree with the exact one.  Clustered
            # configs get the other exponent classes until the kernel is fixed.
            clustered = rng.choice([i for i, kind in enumerate(kinds) if kind != "int"])
            for i, kind in enumerate(kinds):
                points = _clustered_nodes(rng, n) if i == clustered else _float_nodes(rng, n)
                r = _small_exponent(rng, kind, n)
                label = f"n{n}/{kind}" + ("/clustered" if i == clustered else "")
                ops.append(_verify_op(lib, points, r, label))
        rng.shuffle(ops)
        yield ops


def verify_ladder_rounds(rng: random.Random, lib, out_dir: Path):
    """Rounds of 10 ops: per order n in 8..12, one non-integer and one integer
    exponent, one on float nodes and the other on rational nodes.

    The cost of an op depends mostly on where r lies, so r is not drawn
    freely: round j takes the integer r = offset + j (mod n) and a
    non-integer r in the unit interval offset' + j (mod n + 1), with seeded
    offsets.  Every run then covers the exponent range evenly.
    """
    orders = range(8, 13)
    frac_offset = {n: rng.randrange(n + 1) for n in orders}
    int_offset = {n: rng.randrange(n) for n in orders}
    j = 0
    while True:
        ops = []
        for n in orders:
            k = (frac_offset[n] + j) % (n + 1)
            exponents = (("frac", k + rng.uniform(0.05, 0.95) if k else rng.uniform(0.55, 0.95)),
                         ("int", (int_offset[n] + j) % n + 1))
            for i, (kind, r) in enumerate(exponents):
                rational = (i + j + n) % 2 == 0
                points = _spread_nodes(rng, n, rational)
                label = f"n{n}/{kind}/{'rational' if rational else 'float'}"
                ops.append(_verify_op(lib, points, r, label))
        rng.shuffle(ops)
        yield ops
        j += 1


def _box_around(rng: random.Random, k: int) -> tuple:
    """Box around the real point k that no split line of a two-level
    subdivision passes close to: k sits 33-42% of the way across each side
    (or 58-67%), away from the 1/4, 1/2 and 3/4 lines."""
    sides = []
    for _ in range(2):
        width = rng.uniform(0.7, 0.9)
        u = rng.uniform(0.33, 0.42)
        if rng.random() < 0.5:
            u = 1 - u
        sides.append((-u * width, (1 - u) * width))
    (re_lo, re_hi), (im_lo, im_hi) = sides
    return (k + re_lo, k + re_hi, im_lo, im_hi)


def zero_scan_rounds(rng: random.Random, lib, out_dir: Path):
    """Rounds of 8 ops: two count_zeros calls for each n in 2..4, one complex
    scan around the determinant zero at 1 or 2, and one of a zero-free box."""
    while True:
        ops = []
        for n in (2, 3, 4, 2, 3, 4):
            coeffs = tuple(rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for _ in range(n))
            ops.append(_count_zeros_op(lib, n, coeffs, rng.uniform(0.2, n + 1.8)))
        k = rng.choice((1, 2))
        ops.append(_complex_scan_op(lib, _box_around(rng, k), f"complex_scan/zero{k}"))
        re0, im0 = rng.uniform(2.6, 7.0), rng.uniform(-3.5, 2.5)
        empty = (re0, re0 + rng.uniform(0.5, 1.0), im0, im0 + rng.uniform(0.5, 1.0))
        ops.append(_complex_scan_op(lib, empty, "complex_scan/empty"))
        rng.shuffle(ops)
        yield ops


SWEEP_STEPS = 11


def sweep_csv_rounds(rng: random.Random, lib, out_dir: Path):
    """Rounds of 3 sweeps of six nodes (1..6, rational, float), each over 11
    grid points of step 1/4 or 1/5 in (0, 7], so at least two are integers.
    The step count is fixed because a sweep's cost is proportional to it."""
    while True:
        ops = []
        node_sets = (("integers", list(range(1, 7))),
                     ("rational", _rational_nodes(rng, 6)),
                     ("float", _float_nodes(rng, 6)))
        for kind, points in node_sets:
            denom = rng.choice((4, 5))
            first = rng.randint(1, 7 * denom - (SWEEP_STEPS - 1))
            a, b = first / denom, (first + SWEEP_STEPS - 1) / denom
            ops.append(_sweep_op(lib, points, a, b, SWEEP_STEPS, out_dir / "sweep.csv",
                                 f"sweep/{kind}"))
        rng.shuffle(ops)
        yield ops


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-small", verify_small_rounds, tail_percentile=98),
        Workload("verify-ladder", verify_ladder_rounds, tail_percentile=80),
        Workload("zero-scan", zero_scan_rounds, tail_percentile=55),
        Workload("sweep-csv", sweep_csv_rounds, tail_percentile=60),
    )
}


def warm_up(lib, out_dir: Path) -> None:
    """Touch every code path and precision the workloads use, on small inputs,
    so that imports, mpmath's per-precision caches and lazy set-up are done
    before the first timed op."""
    cfg = lib.types.make_point_config([1, 2, 3])
    for r in (2.5, 2, 2 + 1e-8):
        lib.oracle.verify_instance(cfg, r)
    f = lib.analysis.ComboFunction(cfg, (1.0, -2.0, 1.0), 1.5)
    lib.analysis.count_zeros(f, lib.analysis.ScanPolicy(grid=64))
    lib.analysis.complex_det(cfg, complex(1.5, 0.5))
    lib.cli.main(["sweep", "--points", "1,2,3,4,5,6", "--r-range", "0.5:1.5:3",
                  "--out", str(out_dir / "warmup.csv")])
