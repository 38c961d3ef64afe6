"""Spans around loewnerlab's public functions, recorded from outside the package.

The tracer replaces each public function of the layer modules with a wrapper
in every loewnerlab namespace that holds it (``oracle.inertia_report`` is
``inertia.inertia``, ``sweep.eig_sym`` is ``inertia.eig_sym``, and the package
re-exports most of them), so calls between layers are seen whatever name the
caller uses.  Nothing inside the package changes; ``uninstall`` puts the
original objects back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple, Optional

LAYERS = ("builders", "inertia", "exact", "oracle", "analysis", "sweep", "cli")
# cli's cmd_* helpers are main's own work (argument handling, CSV encoding
# and writing), so only main gets a span there.
CLI_ENTRY = "main"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    bits: Optional[int]  # precision_bits of the call's ``tol`` argument, if it has one


def _public_functions(module, layer: str) -> dict:
    found = {}
    for name, value in vars(module).items():
        if (inspect.isfunction(value) and value.__module__ == module.__name__
                and not name.startswith("_") and (layer != "cli" or name == CLI_ENTRY)):
            found[name] = value
    return found


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self, package):
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._next_id = 0
        wrappers = {}
        for layer in LAYERS:
            # sys.modules, not getattr: the package re-exports a function
            # named ``inertia`` that hides the submodule attribute
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in _public_functions(module, layer).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        self._patches = []
        prefix = package.__name__ + "."
        namespaces = [package] + [m for key, m in sorted(sys.modules.items())
                                  if key.startswith(prefix)]
        for ns in namespaces:
            for attr, value in vars(ns).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value, hit[1]))

    def _wrap(self, name: str, fn):
        params = inspect.signature(fn).parameters
        names = list(params)
        tol_pos = names.index("tol") if "tol" in names else None
        tol_default = params["tol"].default if tol_pos is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bits = None
            if tol_pos is not None:
                tol = args[tol_pos] if len(args) > tol_pos else kwargs.get("tol", tol_default)
                bits = getattr(tol, "precision_bits", None)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, self.op, bits))

        return wrapper

    @property
    def wrapped_names(self) -> list[str]:
        return sorted({f"{ns.__name__}.{attr}" for ns, attr, _, _ in self._patches})

    def install(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    @contextmanager
    def active(self, op: int):
        """Trace the calls made inside the block, attributed to ``op``."""
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.op = None


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(s.start, s.end, children[s.id])
            for s in spans}


def bucket(bits: Optional[int]) -> str:
    return "b53" if bits is not None and bits <= 53 else "bext"


def layer_metrics(spans, n_ops: int, facts: dict, overhead_frac: float) -> dict:
    """Per-layer metrics of a traced run, per traced op unless named a ratio.

    ``facts`` holds counts summed from the op outputs (escalated verify ops,
    ambiguous points, re-grids, sweep grid points).
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    under = defaultdict(int)  # (ancestor, name) -> calls of name below ancestor

    for s in spans:
        keys = [s.name]
        if s.name == "inertia.eig_sym":
            keys.append(f"{s.name}.{bucket(s.bits)}")
        for key in keys:
            calls[key] += 1
            self_s[key] += own[s.id]
        seen = set()
        p = s.parent
        while p is not None:
            anc = by_id[p].name
            if anc not in seen:
                seen.add(anc)
                under[(anc, s.name)] += 1
            p = by_id[p].parent

    per_op = max(n_ops, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    verify_calls = calls["oracle.verify_instance"]
    attempts = under[("oracle.verify_instance", "inertia.inertia")]
    values = {
        "inertia.eig_sym.calls.b53": calls["inertia.eig_sym.b53"] / per_op,
        "inertia.eig_sym.self_s.b53": self_s["inertia.eig_sym.b53"] / per_op,
        "inertia.eig_sym.calls.bext": calls["inertia.eig_sym.bext"] / per_op,
        "inertia.eig_sym.self_s.bext": self_s["inertia.eig_sym.bext"] / per_op,
        "inertia.inertia_ldl.calls": calls["inertia.inertia_ldl"] / per_op,
        "inertia.inertia_ldl.self_s": self_s["inertia.inertia_ldl"] / per_op,
        "inertia.inertia.self_s": self_s["inertia.inertia"] / per_op,
        "exact.rational_inertia.calls": calls["exact.rational_inertia"] / per_op,
        "exact.rational_inertia.self_s": self_s["exact.rational_inertia"] / per_op,
        "builders.loewner_matrix_exact.self_s": self_s["builders.loewner_matrix_exact"] / per_op,
        "builders.loewner_matrix.calls": calls["builders.loewner_matrix"] / per_op,
        "builders.loewner_matrix.self_s": self_s["builders.loewner_matrix"] / per_op,
        "oracle.verify_instance.self_s": self_s["oracle.verify_instance"] / per_op,
        "oracle.attempts_per_op": ratio(attempts, verify_calls),
        "oracle.escalated_frac": ratio(facts.get("verify.escalated", 0), verify_calls),
        "oracle.useful_attempt_ratio": ratio(verify_calls, attempts),
        "analysis.count_zeros.calls": calls["analysis.count_zeros"] / per_op,
        "analysis.count_zeros.self_s": self_s["analysis.count_zeros"] / per_op,
        "analysis.count_zeros.ambiguous": ratio(facts.get("count_zeros.ambiguous", 0),
                                                calls["analysis.count_zeros"]),
        "analysis.complex_det.calls": calls["analysis.complex_det"] / per_op,
        "analysis.complex_det.self_s": self_s["analysis.complex_det"] / per_op,
        "analysis.complex_zero_scan.self_s": self_s["analysis.complex_zero_scan"] / per_op,
        "analysis.complex_zero_scan.regrids": ratio(facts.get("complex_zero_scan.regrids", 0),
                                                    calls["analysis.complex_zero_scan"]),
        "sweep.eigen_trajectories.self_s": self_s["sweep.eigen_trajectories"] / per_op,
        "sweep.eig_sym_per_point": ratio(under[("sweep.eigen_trajectories", "inertia.eig_sym")],
                                         facts.get("sweep.grid_points", 0)),
        "sweep.emit_figure1.self_s": self_s["sweep.emit_figure1"] / per_op,
        "cli.main.self_s": self_s["cli.main"] / per_op,
        "trace.overhead_frac": overhead_frac,
    }
    return values


# Units of the per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "inertia.eig_sym.calls.b53": "calls/op",
    "inertia.eig_sym.self_s.b53": "s/op",
    "inertia.eig_sym.calls.bext": "calls/op",
    "inertia.eig_sym.self_s.bext": "s/op",
    "inertia.inertia_ldl.calls": "calls/op",
    "inertia.inertia_ldl.self_s": "s/op",
    "inertia.inertia.self_s": "s/op",
    "exact.rational_inertia.calls": "calls/op",
    "exact.rational_inertia.self_s": "s/op",
    "builders.loewner_matrix_exact.self_s": "s/op",
    "builders.loewner_matrix.calls": "calls/op",
    "builders.loewner_matrix.self_s": "s/op",
    "oracle.verify_instance.self_s": "s/op",
    "oracle.attempts_per_op": "attempts/op",
    "oracle.escalated_frac": "fraction",
    "oracle.useful_attempt_ratio": "ratio",
    "analysis.count_zeros.calls": "calls/op",
    "analysis.count_zeros.self_s": "s/op",
    "analysis.count_zeros.ambiguous": "points/call",
    "analysis.complex_det.calls": "calls/op",
    "analysis.complex_det.self_s": "s/op",
    "analysis.complex_zero_scan.self_s": "s/op",
    "analysis.complex_zero_scan.regrids": "regrids/call",
    "sweep.eigen_trajectories.self_s": "s/op",
    "sweep.eig_sym_per_point": "calls/point",
    "sweep.emit_figure1.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "trace.overhead_frac": "fraction",
}
