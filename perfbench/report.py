"""Run every workload once and print each end-to-end metric with its unit.

    python3 perfbench/report.py --seed 1 --seconds 20

Each workload runs as its own ``run.py`` process, exactly as the benchmark
is driven; times are in run.py's reference seconds.  The table adds ``failed_frac`` (failed ops over attempted ops)
and the sample count behind each figure.  Exits 1 if any op failed its
check or any run did not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    status = 0
    machine = None
    print(f"{'workload':<14} {'metric':<16} {'value':>12}  {'unit':<6} samples")
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name:<14} run failed with exit code {proc.returncode}")
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        details = json.loads((ROOT / ".perfbench_out" / f"{name}-{args.seed}-trace0.json").read_text())
        machine = details["machine"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<14} {metric:<16} {entry['value']:>12.4f}  {entry['unit']:<6} "
                  f"{details['samples'][metric]}")
        print(f"{name:<14} {'failed_frac':<16} {result['failed'] / result['attempted']:>12.4f}  "
              f"{'1':<6} {result['attempted']}")
        print(f"{name:<14} latency_tail_ms is p{details['tail_percentile']}")
        if result["failed"] or proc.returncode != 0:
            for label, inputs, reason in details["failures"]:
                print(f"{name:<14} FAILED {label} {inputs}: {reason}")
            status = 1
    if machine:
        print("machine: " + json.dumps(machine))
    return status


if __name__ == "__main__":
    sys.exit(main())
