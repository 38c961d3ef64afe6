"""loewnerlab benchmark: one closed-loop client, one process, seeded inputs.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Ops run back to back (the next
starts when the previous returns) in rounds of fixed composition until
``--seconds`` have passed, then the round in progress is finished.  Every op
is checked against the inertia theorem; a wrong answer is a failure, never a
timed success.

``--trace 0`` prints the end-to-end metrics, every time in reference
seconds (see CALIBRATION_S; the unscaled figures go to the details file).
``--trace 1`` runs every op twice, untraced and traced in alternating
order, checks that both give the same output, and prints the per-layer
metrics from the traced copies plus the tracing overhead.  The last stdout line is the JSON result; a readable
summary, the machine notes and the tail percentile go to stderr and to
``.perfbench_out/`` in the checkout.  Exits 1 if any op failed its check,
2 on a usage error or when the checkout holds no loewnerlab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import mpmath

import spans
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Reference seconds: every time the benchmark reports is scaled by
# CALIBRATION_S / (time of calibration_loop() measured next to it), i.e. it
# reads as on a machine where the loop takes 10 ms.  On a shared 2-vCPU VM
# (Python 3.11, mpmath 1.3 on its pure-Python backend) the speed changed by
# up to 1.9x for minutes at a time; over 10 s windows the ratio of a verify
# op to the loop moved 1.5% (IQR) while each of the two moved 44%.
CALIBRATION_S = 0.010
SUBMODULES = ("types", "builders", "exact", "inertia", "oracle", "analysis", "sweep", "cli")


def die(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import loewnerlab from this checkout's src/, refusing any other copy."""
    pkg_dir = ROOT / "src" / "loewnerlab"
    if not (pkg_dir / "__init__.py").is_file():
        die(f"no loewnerlab sources at {pkg_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    lib = importlib.import_module("loewnerlab")
    if Path(lib.__file__).resolve().parent != pkg_dir.resolve():
        die(f"loewnerlab was imported from {lib.__file__}, not {pkg_dir}")
    for name in SUBMODULES:
        importlib.import_module(f"loewnerlab.{name}")
    return lib


def machine_notes(lib) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def setup(args):
    """Everything between a fresh interpreter and the first timed op."""
    lib = load_library()
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    stream = workload.rounds(random.Random(args.seed), lib, OUT_DIR)
    first = next(stream)
    workloads.warm_up(lib, OUT_DIR)
    return lib, workload, first, stream


def time_setup(args) -> list[tuple[float, float]]:
    """(seconds, host scale) from spawning a fresh interpreter to it being
    ready to time its first op, measured SETUP_REPEATS times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        before = host_scale()
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            die(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
        times.append((elapsed, (before + host_scale()) / 2))
    return times


def run_op(op):
    """Run one op; returns (latency_s, output, error)."""
    start = perf_counter()
    try:
        raw = op.call()
    except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
        return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    try:
        out = op.collect(raw)
        return latency, out, op.check(out)
    except Exception as exc:  # output the checks cannot even read is a wrong answer
        return latency, None, f"unreadable output: {type(exc).__name__}: {exc}"


def calibration_loop():
    """Fixed mpmath work that does not touch loewnerlab.  The library's time
    is mostly spent in the same pure-Python multiprecision arithmetic, so the
    two slow down and speed up together when the host's speed changes."""
    with mpmath.workprec(53):
        x, total = mpmath.mpf(1), mpmath.mpf(0)
        for i in range(1, 1000):
            total += mpmath.sqrt(x * i) / (i + 1)
    return total


def host_scale() -> float:
    """Reference seconds per measured second, right now: CALIBRATION_S over
    the median of three timings of the calibration loop."""
    times = []
    for _ in range(3):
        start = perf_counter()
        calibration_loop()
        times.append(perf_counter() - start)
    return CALIBRATION_S / statistics.median(times)


class Run:
    def __init__(self):
        self.latencies = []   # one per op; math.inf for a failed op
        self.rounds = []      # [ops completed, seconds spent in ops] per round
        self.op_round = []    # round index of each op
        self.scales = []      # host_scale() before each round and after the last
        self.failures = []    # (label, inputs, reason)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def start_round(self):
        self.scales.append(host_scale())
        self.rounds.append([0, 0.0])

    def finish(self):
        self.scales.append(host_scale())

    def round_scale(self, i: int) -> float:
        return (self.scales[i] + self.scales[i + 1]) / 2

    def record(self, op, latency, error):
        self.rounds[-1][0] += error is None
        self.rounds[-1][1] += latency
        self.op_round.append(len(self.rounds) - 1)
        if error is None:
            self.latencies.append(latency)
        else:
            self.latencies.append(math.inf)
            self.failures.append((op.label, repr(op.inputs), error))


def measure(first, stream, seconds: float) -> Run:
    run = Run()
    start = perf_counter()
    batch = first
    while True:
        run.start_round()
        for op in batch:
            latency, _, error = run_op(op)
            run.record(op, latency, error)
        if perf_counter() - start >= seconds:
            run.finish()
            return run
        batch = next(stream)


def measure_traced(lib, first, stream, seconds: float):
    """Each op untraced and traced, in alternating order; outputs must match."""
    tracer = spans.Tracer(lib)
    run = Run()
    untraced_busy = traced_busy = 0.0
    facts = {}
    start = perf_counter()
    batch = first
    while True:
        run.start_round()
        for op in batch:
            op_id = run.attempted
            results = {}
            for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
                if traced:
                    with tracer.active(op_id):
                        results[traced] = run_op(op)
                else:
                    results[traced] = run_op(op)
            (lat_u, out_u, err_u), (lat_t, out_t, err_t) = results[False], results[True]
            error = err_u or err_t
            if error is None and op.fingerprint(out_u) != op.fingerprint(out_t):
                error = "traced output differs from untraced output"
            run.record(op, lat_t, error)
            untraced_busy += lat_u
            traced_busy += lat_t
            if error is None:
                for key, value in op.facts(out_t).items():
                    facts[key] = facts.get(key, 0) + value
        if perf_counter() - start >= seconds:
            run.finish()
            break
        batch = next(stream)
    overhead = traced_busy / untraced_busy - 1 if untraced_busy else 0.0
    return run, tracer, facts, overhead


def end_to_end_metrics(run: Run, workload, setup_times) -> tuple[dict, dict]:
    """Metric -> (value, unit) in reference seconds, plus details for the record.

    Every round has the same composition, so each round's throughput is a
    sample of the same quantity; ops_per_s is their median.
    """
    def figures(scaled: bool) -> dict:
        def scale(i):
            return run.round_scale(i) if scaled else 1.0
        lat = [x * scale(r) for x, r in zip(run.latencies, run.op_round)]
        setup = [t * (k if scaled else 1.0) for t, k in setup_times]
        return {
            "ops_per_s": (statistics.median(ok / (busy * scale(i))
                                            for i, (ok, busy) in enumerate(run.rounds)),
                          "1/s", len(run.rounds)),
            "latency_p50_ms": (stats.percentile(lat, 50) * 1e3, "ms", n),
            "latency_tail_ms": (stats.percentile(lat, q) * 1e3, "ms", n),
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }

    n = len(run.latencies)
    q = stats.tail_percentile(n, workload.tail_percentile)
    values = figures(scaled=True)
    ok = sum(r[0] for r in run.rounds)
    extra = {"tail_percentile": q,
             "failed_frac": (run.attempted - ok) / run.attempted,
             "samples": {k: v[2] for k, v in values.items()},
             "host_scale": {"rounds": run.scales, "setup": [k for _, k in setup_times]},
             "unscaled": {k: v[0] for k, v in figures(scaled=False).items()}}
    return {k: (v[0], v[1]) for k, v in values.items()}, extra


def _json_number(x):
    return x if math.isfinite(x) else None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print 'ready' (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # the CLI reads this variable; the benchmark's sweeps must not depend on it
    os.environ.pop("LOEWNERLAB_PRECISION_BITS", None)
    lib, workload, first, stream = setup(args)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine_notes(lib)}
    wall = perf_counter()
    if args.trace:
        run, tracer, facts, overhead = measure_traced(lib, first, stream, args.seconds)
        values = spans.layer_metrics(tracer.spans, run.attempted, facts, overhead)
        metrics = {k: (values[k], unit) for k, unit in spans.LAYER_UNITS.items()}
        details["wrapped"] = tracer.wrapped_names
        details["spans"] = len(tracer.spans)
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(span_file, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
    else:
        setup_times = time_setup(args)
        wall = perf_counter()
        run = measure(first, stream, args.seconds)
        metrics, extra = end_to_end_metrics(run, workload, setup_times)
        details.update(extra)
    details["measured_s"] = perf_counter() - wall
    details["attempted"] = run.attempted
    details["failures"] = run.failures[:20]
    metrics = {k: {"value": _json_number(v), "unit": u} for k, (v, u) in metrics.items()}
    details["metrics"] = metrics
    (OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {run.attempted} ops, "
          f"{len(run.failures)} failed, {details['measured_s']:.1f} s measured", file=sys.stderr)
    if "tail_percentile" in details:
        print(f"# latency_tail_ms is p{details['tail_percentile']}", file=sys.stderr)
    for label, inputs, reason in run.failures[:5]:
        print(f"# FAILED {label} {inputs}: {reason}", file=sys.stderr)
    print("# machine: " + json.dumps(details["machine"]), file=sys.stderr)

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
