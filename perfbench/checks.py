"""Per-operation correctness checks, written from the inertia theorem itself.

Nothing here imports loewnerlab: the checks read the reports the library
returns and compare them with values derived independently, so a bug in the
library's own prediction cannot make a wrong answer pass.  Every check
returns ``None`` when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import math


def theorem_inertia(n: int, r) -> tuple[int, int, int]:
    """(pos, zero, neg) of the n x n Loewner matrix of t^r for r > 0.

    Integer m in 1..n: rank m with ceil(m/2) positive and floor(m/2) negative
    eigenvalues.  Non-integer r in (0, n): floor(r) = m gives ceil(m/2)
    eigenvalues of the minority sign, negative for even m and positive for
    odd m.  From r = n - 1 on the inertia stays at its value for r = n.
    """
    if not r > 0:
        raise ValueError("the benchmark only draws positive exponents")
    if r >= n:
        return ((n + 1) // 2, 0, n // 2)
    m = math.floor(r)
    if r == m:
        return ((m + 1) // 2, n - m, m // 2)
    minority = (m + 1) // 2
    if m % 2 == 0:
        return (n - minority, 0, minority)
    return (minority, 0, n - minority)


def triple(inertia) -> tuple[int, int, int]:
    return (inertia.pos, inertia.zero, inertia.neg)


def check_verify(n: int, r, report) -> str | None:
    """A verify op passes when the routes agree and match the theorem."""
    want = theorem_inertia(n, r)
    if report.n != n:
        return f"report is for order {report.n}, expected {n}"
    if report.disagreement:
        return "inertia routes disagree"
    if not report.match:
        return "report does not match its prediction"
    if triple(report.predicted.inertia) != want:
        return f"predicted {triple(report.predicted.inertia)}, theorem says {want}"
    if triple(report.computed) != want:
        return f"computed {triple(report.computed)}, theorem says {want}"
    return None


def check_count_zeros(n: int, report) -> str | None:
    """n divided differences combine to at most n - 1 sign changes."""
    if not 0 <= report.count <= n - 1:
        return f"{report.count} zeros counted, bound is {n - 1}"
    if len(report.brackets) != report.count:
        return f"{len(report.brackets)} brackets for {report.count} zeros"
    return None


def check_complex_scan(report) -> str | None:
    """Cell windings add up to the region's winding, which counts zeros."""
    total = sum(cell.winding for cell in report.cells)
    if total != report.total_winding:
        return f"cell windings sum to {total}, region winding is {report.total_winding}"
    if report.total_winding < 0:
        return f"negative winding {report.total_winding} for an entire function"
    return None


def check_sweep_csv(n: int, grid, exit_code: int, text: str) -> str | None:
    """The sweep CSV has the documented header, one row per grid point, and
    the theorem's inertia on every row.

    Matching the theorem row by row implies the two weaker properties: n - m
    zero eigenvalues at each integer m in 1..n-1, and inertia changes only
    across those integers (no anomalous transition).
    """
    if exit_code != 0:
        return f"sweep exited with code {exit_code}"
    rows = list(csv.reader(io.StringIO(text)))
    header = ["r"] + [f"lambda_{i + 1}" for i in range(n)] + ["pos", "zero", "neg"]
    if not rows or rows[0] != header:
        return f"bad header {rows[0] if rows else None!r}"
    body = rows[1:]
    if len(body) != len(grid):
        return f"{len(body)} rows for {len(grid)} grid points"
    for row, r in zip(body, grid):
        if len(row) != len(header):
            return f"row at r={r} has {len(row)} cells"
        if abs(float(row[0]) - r) > 1e-9:
            return f"row r={row[0]} where the grid has {r}"
        if not all(math.isfinite(float(v)) for v in row[1:1 + n]):
            return f"non-finite eigenvalue at r={r}"
        m = round(r)
        exact_r = m if abs(r - m) < 1e-9 else r
        got = tuple(int(v) for v in row[1 + n:])
        want = theorem_inertia(n, exact_r)
        if got != want:
            return f"inertia {got} at r={r}, theorem says {want}"
    return None
