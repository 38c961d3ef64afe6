#!/usr/bin/env python3
"""Record the verdicts of a fixed probe grid, or check a fresh run against the record.

Six grids, 2,044 rows in all, each row one JSON object on one line of the
record file, so a moved verdict shows as a one-line diff:

- verify: ``verify_instance`` on nodes 1..n for n = 3..18 at r in
  {0.5, 1.5, 2.5, 3.5, 4.5, 7.5, 2, 3, 5, n-0.5, n+0.5, 40.5, 300.5};
- near-integer: ``verify_instance`` for n = 3..12 on nodes 1..n and on
  0.3*1.7^i, at r = k + d for k in {1, 2, n//2, n-1, n} and
  d in {+-1e-7, +-1e-9, +-1e-11, +-1e-13};
- pr_compare: ``pr_compare`` on nodes 1..n for n = 3..12 at
  r in {1.0001, 1.01, 1.5, 2.5, 3.5, 4.5, 5.5}, one row per side, each
  against the theorem's inertia of L_{r+1};
- sweep: ``eigen_trajectories`` on nodes 1..n for n = 3..12 from an
  explicit 53-bit ``ToleranceContext()`` over 0.5:n+0.5:2n+1, one row per
  grid point, with the failure the sweep recorded there (if any);
- conditional: ``conditional_inertia`` for n = 3..10 on nodes 1..n, on
  0.3*1.7^i and on 2 + 1e-3*i, at r = m + {0.25, 0.5, 0.75} with k = m for
  m = 1..n-1, each against definiteness on H_k with sign (-1)^k, then two
  reproducers: nodes 1..9 at r = 5.925815894643639, k = 5, and a clustered
  triple at r = 2.2004672103655363, k = 2;
- integer: ``pr_compare`` on nodes 1..n for n = 3..12 at r in {1, 2, 3},
  one row per side as in the pr_compare grid, then ``conditional_inertia``
  for n = 3..10 on the conditional grid's three node families at each
  integer m = 1..n-1 with k = ceil(m/2)..m, each against (0, n-k, 0):
  L_m = W^T V W (W the rows p_i^a, a < m; V the antidiagonal) vanishes on
  H_k once 2k >= m, since every pair a + b = m - 1 has an index below k.

Only long-standing public calls are used (``verify_instance``,
``pr_compare``, ``eigen_trajectories``, ``conditional_inertia``,
``ToleranceContext``, ``predicted_inertia``, ``make_point_config``), so the same
script runs on both sides of a change and its record can be made on either.

Usage:
    python scripts/verdict_grid.py [--records FILE]          # rewrite the record
    python scripts/verdict_grid.py --check [--records FILE]  # exit 1 if a row moved
"""

import argparse
import json
import sys
from pathlib import Path

from loewnerlab import (
    Inertia,
    ToleranceContext,
    conditional_inertia,
    eigen_trajectories,
    make_point_config,
    pr_compare,
    predicted_inertia,
    verify_instance,
)

RECORDS = Path(__file__).with_name("verdict_grid.jsonl")
OFFSETS = (1e-7, -1e-7, 1e-9, -1e-9, 1e-11, -1e-11, 1e-13, -1e-13)
PR_EXPONENTS = (1.0001, 1.01, 1.5, 2.5, 3.5, 4.5, 5.5)
CONDITIONAL_REPRODUCERS = (
    ("1..n", list(range(1, 10)), 5.925815894643639, 5),
    ("1.871449823,1.871653007,1.871905676", [1.871449823, 1.871653007, 1.871905676],
     2.2004672103655363, 2),
)


def _triple(inertia):
    return None if inertia is None else list(inertia.as_tuple())


def _verify_row(grid, nodes, values, r):
    rep = verify_instance(make_point_config(values), r)
    return {"grid": grid, "nodes": nodes, "n": len(values), "r": r,
            "theorem": _triple(rep.predicted.inertia), "computed": _triple(rep.computed),
            "match": rep.match, "disagreement": rep.disagreement,
            "precision_bits": rep.precision_bits, "escalations": rep.escalations}


def _pr_rows(grid, n, r):
    rep = pr_compare(make_point_config(range(1, n + 1)), r)
    theorem = predicted_inertia(n, r + 1).inertia
    for side, ir in (("power_sum", rep.power_sum), ("loewner", rep.loewner)):
        yield {"grid": grid, "nodes": "1..n", "n": n, "r": r, "side": side,
               "theorem": _triple(theorem), "computed": _triple(ir.consensus),
               "by_eigen": _triple(ir.by_eigen), "by_ldl": _triple(ir.by_ldl),
               "by_exact": _triple(ir.by_exact), "disagreement": ir.disagreement,
               "differs": ir.consensus != theorem}


def _conditional_nodes(n):
    return (("1..n", list(range(1, n + 1))),
            ("0.3*1.7^i", [0.3 * 1.7 ** i for i in range(n)]),
            ("2+1e-3*i", [2 + 1e-3 * i for i in range(n)]))


def _conditional_row(grid, nodes, values, r, k, theorem):
    return {"grid": grid, "nodes": nodes, "n": len(values), "r": r, "k": k,
            "theorem": _triple(theorem),
            "computed": _triple(conditional_inertia(make_point_config(values), r, k))}


def _definite(n, k):
    """Definiteness on H_k with sign (-1)^k."""
    return Inertia(0, 0, n - k) if k % 2 else Inertia(n - k, 0, 0)


def _probes():
    """Yield every row of the six grids, in a fixed order."""
    for n in range(3, 19):
        for r in (0.5, 1.5, 2.5, 3.5, 4.5, 7.5, 2, 3, 5, n - 0.5, n + 0.5, 40.5, 300.5):
            yield _verify_row("verify", "1..n", list(range(1, n + 1)), r)
    for n in range(3, 13):
        node_sets = (("1..n", list(range(1, n + 1))),
                     ("0.3*1.7^i", [0.3 * 1.7 ** i for i in range(n)]))
        ks = list(dict.fromkeys((1, 2, n // 2, n - 1, n)))
        for nodes, values in node_sets:
            for k in ks:
                for d in OFFSETS:
                    yield _verify_row("near-integer", nodes, values, k + d)
    for n in range(3, 13):
        for r in PR_EXPONENTS:
            yield from _pr_rows("pr_compare", n, r)
    for n in range(3, 13):
        s = eigen_trajectories(make_point_config(range(1, n + 1)), 0.5, n + 0.5, 2 * n + 1,
                               ToleranceContext())
        failures = dict(s.failures)
        for idx, (r, ir) in enumerate(zip(s.grid, s.inertias)):
            yield {"grid": "sweep", "nodes": "1..n", "n": n, "r": r,
                   "theorem": _triple(predicted_inertia(n, r).inertia),
                   "computed": _triple(ir), "failure": failures.get(idx)}
    for n in range(3, 11):
        for nodes, values in _conditional_nodes(n):
            for m in range(1, n):
                for t in (0.25, 0.5, 0.75):
                    yield _conditional_row("conditional", nodes, values, m + t, m, _definite(n, m))
    for nodes, values, r, k in CONDITIONAL_REPRODUCERS:
        yield _conditional_row("conditional", nodes, values, r, k, _definite(len(values), k))
    for n in range(3, 13):
        for r in (1, 2, 3):
            yield from _pr_rows("integer", n, r)
    for n in range(3, 11):
        for nodes, values in _conditional_nodes(n):
            for m in range(1, n):
                for k in range((m + 1) // 2, m + 1):
                    yield _conditional_row("integer", nodes, values, m, k, Inertia(0, n - k, 0))


def _probe_key(row):
    return {k: row.get(k) for k in ("grid", "nodes", "n", "r", "side")}


def _equal_to_theorem(row):
    return row["computed"] == row["theorem"]


def _summary(rows):
    verify = [r for r in rows if r["grid"] in ("verify", "near-integer")]
    sides = [r for r in rows if r["grid"] == "pr_compare"]
    points = [r for r in rows if r["grid"] == "sweep"]
    restricted = [r for r in rows if r["grid"] == "conditional"]
    integer = [r for r in rows if r["grid"] == "integer"]
    probes = {(r["n"], r["r"]) for r in sides if r["differs"]}
    return (f"{len(rows)} rows: {sum(not r['match'] for r in verify)} of {len(verify)} "
            f"verify and near-integer rows mismatch; {len(probes)} pr_compare probes "
            f"differ from the theorem ({sum(r['differs'] for r in sides)} sides, "
            f"{sum(r['differs'] and r['disagreement'] for r in sides)} of them flagged); "
            f"{sum(not _equal_to_theorem(r) for r in points)} of {len(points)} sweep points "
            f"differ from the theorem, {sum(r['failure'] is not None for r in points)} "
            f"flagged; {sum(not _equal_to_theorem(r) for r in restricted)} of "
            f"{len(restricted)} conditional rows are not definite with sign (-1)^k; "
            f"{sum(not _equal_to_theorem(r) for r in integer)} of {len(integer)} integer "
            f"rows differ from the theorem")


def _check(rows, path: Path) -> int:
    recorded = [json.loads(line) for line in path.read_text().splitlines() if line]
    if [_probe_key(r) for r in recorded] != [_probe_key(r) for r in rows]:
        print(f"error: the probes of {path} are not this script's grid; rewrite it",
              file=sys.stderr)
        return 2
    groups = {"now equal to the theorem": [], "newly different": [],
              "bits, escalations or routes moved": []}
    for old, new in zip(recorded, rows):
        if old == new:
            continue
        if _equal_to_theorem(new) and not _equal_to_theorem(old):
            groups["now equal to the theorem"].append((old, new))
        elif _equal_to_theorem(old) and not _equal_to_theorem(new):
            groups["newly different"].append((old, new))
        else:
            groups["bits, escalations or routes moved"].append((old, new))
    moved = sum(len(pairs) for pairs in groups.values())
    for name, pairs in groups.items():
        print(f"{name}: {len(pairs)}")
        for old, new in pairs:
            print(f"  - {json.dumps(old)}\n  + {json.dumps(new)}")
    print(f"{moved} of {len(rows)} rows moved against {path}")
    return 1 if moved else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--records", type=Path, default=RECORDS)
    ap.add_argument("--check", action="store_true",
                    help="compare a fresh run with the record instead of rewriting it")
    args = ap.parse_args()

    rows = list(_probes())
    print(_summary(rows))
    if args.check:
        return _check(rows, args.records)
    args.records.write_text("".join(json.dumps(row) + "\n" for row in rows))
    print(f"wrote {args.records}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
