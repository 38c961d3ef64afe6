"""Command-line surface: build matrices, verify predicted inertia, sweep
eigenvalue trajectories, and run the analysis probes.

Exit codes: 0 success / property holds, 1 property violation (a false ``ok``
or ``match`` in the payload), 2 usage error or a computation that could not
finish (an unreachable tolerance, an exhausted ladder, an arithmetic trap).
Points written as integers or fractions (``3``, ``7/2``) parse as exact
rationals and propagate exactness to the integer-exponent paths; decimal
notation parses as floats.

Each subcommand returns its payload (a dict, or CSV text) and an exit code;
``main`` adds ``schema_version`` and ``command``, encodes and writes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction

from mpmath import mp

from . import analysis, builders, oracle, sweep as sweep_mod
from .builders import LoewnerSpec
from .inertia import EigenConvergenceError
from .types import (
    DEFAULT_PRECISION_BITS,
    Exponent,
    Inertia,
    ToleranceContext,
    make_point_config,
)

SCHEMA_VERSION = 1


def parse_scalar(tok: str):
    tok = tok.strip()
    if not tok:
        raise ValueError("empty numeric token")
    if "/" in tok:
        return Fraction(tok)
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def parse_point_list(s: str) -> list:
    return [parse_scalar(t) for t in s.split(",")]


def parse_range(s: str) -> tuple[float, float, int]:
    parts = s.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be a:b:steps, got {s!r}")
    a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    sweep_mod._check_range(a, b, steps)
    return a, b, steps


def _decimal(x, bits: int) -> str:
    """Full round-trip decimal text of an mpf at ``bits`` of precision."""
    return mp.nstr(x, int(bits * 0.30103) + 3, strip_zeros=False)


def _json(x, bits: int):
    """JSON value of ``x``: an inertia as [pos, zero, neg], a Fraction as text,
    containers recursively, and any other real (mpf) as a float at 53 bits
    and decimal text beyond."""
    if isinstance(x, Inertia):
        return [x.pos, x.zero, x.neg]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [_json(v, bits) for v in x]
    if isinstance(x, dict):
        return {k: _json(v, bits) for k, v in x.items()}
    return float(x) if bits <= 53 else _decimal(x, bits)


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _context(args) -> ToleranceContext:
    bits = DEFAULT_PRECISION_BITS if args.precision_bits is None else args.precision_bits
    overrides = {"zero_rel_tol": args.zero_rel_tol, "residual_tol": args.residual_tol}
    return dataclasses.replace(ToleranceContext.at_bits(bits),
                               **{k: v for k, v in overrides.items() if v is not None})


# ---------------------------------------------------------------------------
# Subcommands: each takes (args, context, points) and returns (payload, exit code)


def cmd_build(args, ctx, values):
    r = parse_scalar(args.r)
    if args.kind == "sinh":
        rows = builders.sinh_loewner(values, Exponent.of(r), ctx).entries
    else:
        cfg = make_point_config(values)
        if args.kind == "loewner":
            rows = builders.loewner_matrix(LoewnerSpec.of(cfg, r), ctx).entries
        elif args.kind == "power-sum":
            rows = builders.power_sum_matrix(cfg, r, ctx).entries
        else:
            if not args.points2:
                raise ValueError("--kind cross needs --points2")
            cfg2 = make_point_config(parse_point_list(args.points2))
            rows = builders.cross_loewner(cfg, cfg2, r, ctx)
    if args.format == "csv":
        return _csv([_decimal(e, ctx.precision_bits) for e in row] for row in rows), 0
    return {"kind": args.kind, "points": values, "r": r,
            "precision_bits": ctx.precision_bits, "matrix": rows}, 0


def cmd_verify(args, ctx, values):
    cfg = make_point_config(values)
    if args.r is not None:
        rs = [parse_scalar(args.r)]
    else:
        rs = sweep_mod.exponent_grid(*parse_range(args.r_range))
    if any(r == 0 for r in rs):
        raise ValueError("exponent 0 is not accepted here (L_0 is the zero matrix)")
    reps = [oracle.verify_instance(cfg, r, ctx) for r in rs]
    all_match = all(rep.match for rep in reps)
    results = [{"r": r, "rule": rep.predicted.rule, "predicted": rep.predicted.inertia,
                "computed": rep.computed, "match": rep.match,
                "precision_bits": rep.precision_bits, "escalations": rep.escalations}
               for r, rep in zip(rs, reps)]
    return {"points": values, "all_match": all_match, "results": results}, 0 if all_match else 1


def cmd_sweep(args, ctx, values):
    a, b, steps = parse_range(args.r_range)
    cfg = make_point_config(values)
    explicit = (args.precision_bits is not None or args.zero_rel_tol is not None
                or args.residual_tol is not None)
    # Without an explicit precision the sweep picks its own.
    s = sweep_mod.eigen_trajectories(cfg, a, b, steps, ctx if explicit else None)
    header, rows = sweep_mod.emit_figure1(s, scaling=args.scale)
    cells = [[repr(float(r))] + [_decimal(y, s.precision_bits) for y in ys[:cfg.n]]
             + list(ys[cfg.n:]) for r, *ys in rows]
    # A point whose eigensolve failed has no row, and a point whose routes
    # disagree keeps an unsettled row; say so rather than exit 0.
    for idx, msg in s.failures:
        fate = "dropped" if s.inertias[idx] is None else "kept"
        print(f"error: r={s.grid[idx]!r} {fate}: {msg}", file=sys.stderr)
    return _csv([header] + cells), 2 if s.failures else 0


def cmd_zeros(args, ctx, values):
    cfg = make_point_config(values)
    coeffs = tuple(parse_point_list(args.coeffs))
    r = parse_scalar(args.r)
    f = analysis.ComboFunction(cfg, coeffs, r)
    scan = analysis.ScanPolicy(x_min=args.x_min, x_max=args.x_max, grid=args.grid)
    rep = analysis.count_zeros(f, scan, ctx)
    ex = Exponent.of(r)
    bound_applies = not (ex.is_integer and 1 <= ex.integer_value <= cfg.n - 1)
    ok = (not bound_applies) or rep.count <= cfg.n - 1
    return {"r": r, "count": rep.count, "bound": cfg.n - 1, "bound_applies": bound_applies,
            "brackets": rep.brackets, "ambiguous": rep.ambiguous, "grid": rep.grid,
            "ok": ok}, 0 if ok else 1


def cmd_ssr(args, ctx, values):
    cfg = make_point_config(values)
    r = parse_scalar(args.r)
    ex = Exponent.of(r)
    exact = ex.is_integer and cfg.exact is not None
    if exact:
        M = builders.loewner_matrix_exact(cfg, ex.integer_value)
    else:
        M = builders.loewner_matrix(LoewnerSpec(cfg, ex), ctx)
    rep = analysis.ssr_scan(M, args.k_max, ctx)
    if ex.is_integer and 1 <= ex.integer_value <= cfg.n - 1:
        need = min(ex.integer_value, rep.k_max)
        ok = all(v in ("+", "-") for v in rep.per_k[:need])
        required = f"SSR_{ex.integer_value}"
    else:
        ok = rep.ssr_class == "SSR" and rep.k_max == cfg.n
        required = "SSR"
    return {"r": r, "exact": exact, "per_k": rep.per_k, "ssr_class": rep.ssr_class,
            "required": required, "ok": ok}, 0 if ok else 1


def cmd_det_id(args, ctx, values):
    cfg = make_point_config(values)
    exact = cfg.exact is not None
    payload = {"exact": exact}
    for m, closed_form in ((3, analysis.det_closed_form_L3), (4, analysis.det_closed_form_L4)):
        with ctx.prec():  # a float closed form is rounded at the working precision
            closed = closed_form(cfg)
            L = (builders.loewner_matrix_exact(cfg, m) if exact
                 else builders.loewner_matrix(LoewnerSpec.of(cfg, m), ctx))
            det = analysis._det_any(L.entries, ctx)
            match = (det == closed if exact
                     else abs(det - closed) <= ctx.residual_tol * (1 + abs(closed)) * 1e3)
        payload.update({f"det_L{m}": det, f"closed_L{m}": closed, f"match_L{m}": bool(match)})
    ok = payload["match_L3"] and payload["match_L4"]
    return {**payload, "ok": ok}, 0 if ok else 1


def cmd_dk(args, ctx, values):
    cfg = make_point_config(values)
    r = parse_scalar(args.r)
    probe = analysis.dk_norm_probe(cfg, r, samples=args.samples, seed=args.seed, tol=ctx)
    margin = float(ctx.residual_tol) * 1e3
    equality_regime = 0 < r <= 1
    ok = probe.bound >= probe.reference * (1 - margin)
    if equality_regime:
        ok = ok and probe.bound <= probe.reference * (1 + margin)
    return {"r": r, "bound": probe.bound, "reference": probe.reference, "ratio": probe.ratio,
            "samples": probe.samples, "seed": probe.seed, "equality_regime": equality_regime,
            "ok": bool(ok)}, 0 if ok else 1


def cmd_complex_zeros(args, ctx, values):
    cfg = make_point_config(values)
    parts = args.region.split(":")
    if len(parts) != 4:
        raise ValueError("region must be re_min:re_max:im_min:im_max")
    rect = analysis.Rect(*(float(p) for p in parts))
    rep = analysis.complex_zero_scan(cfg, rect, grid=args.grid, tol=ctx)
    cells = [{"re": cell.center.real, "im": cell.center.imag, "winding": cell.winding,
              "rect": dataclasses.astuple(cell.rect)} for cell in rep.cells]
    return {"region": dataclasses.astuple(rect), "total_winding": rep.total_winding,
            "regrids": rep.regrids, "cells": cells}, 0


def cmd_pr_compare(args, ctx, values):
    r = parse_scalar(args.r)
    rep = analysis.pr_compare(make_point_config(values), r, ctx)
    return {"r": r, "inertia_power_sum": rep.inertia_power_sum,
            "inertia_loewner_r_plus_1": rep.inertia_loewner,
            "match": rep.match}, 0 if rep.match else 1


# ---------------------------------------------------------------------------
# Parser


def _opt(flag: str, **kwargs):
    return flag, kwargs


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int, default=None,
                        help=f"working precision in mantissa bits (default {DEFAULT_PRECISION_BITS})")
    common.add_argument("--zero-rel-tol", type=float, default=None)
    common.add_argument("--residual-tol", type=float, default=None)
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")
    common.add_argument("--points", required=True)

    top = argparse.ArgumentParser(prog="loewnerlab",
                                  description="Loewner matrix builders, inertia checks, and sweeps")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help, *options):
        p = sub.add_parser(name, parents=[common], help=help)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    r = _opt("--r", required=True)
    command("build", cmd_build, "construct a structured matrix", r,
            _opt("--kind", choices=["loewner", "sinh", "power-sum", "cross"], default="loewner"),
            _opt("--points2", default=None, help="second node sequence for --kind cross"),
            _opt("--format", choices=["json", "csv"], default="json"))
    p = command("verify", cmd_verify, "compare computed inertia against the predicted value")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--r", default=None)
    g.add_argument("--r-range", default=None)
    command("sweep", cmd_sweep, "eigenvalue trajectories over an exponent grid (CSV)",
            _opt("--r-range", required=True),
            _opt("--scale", choices=["signed-log", "none"], default="signed-log"))
    command("zeros", cmd_zeros, "count sign changes of a divided-difference combination",
            _opt("--coeffs", required=True), r, _opt("--x-min", type=float, default=None),
            _opt("--x-max", type=float, default=None),
            _opt("--grid", type=int, default=analysis.ScanPolicy.grid))
    command("ssr", cmd_ssr, "scan all minors for sign regularity", r,
            _opt("--k-max", type=int, default=None))
    command("det-id", cmd_det_id, "check the three-point determinant closed forms")
    command("dk", cmd_dk, "sampled lower bound on the power-derivative norm", r,
            _opt("--samples", type=int, default=20), _opt("--seed", type=int, default=0))
    command("complex-zeros", cmd_complex_zeros, "argument-principle scan of the complex determinant",
            _opt("--region", required=True, help="re_min:re_max:im_min:im_max"),
            _opt("--grid", type=int, default=16))
    command("pr-compare", cmd_pr_compare, "compare inertia of the power-sum matrix with L_{r+1}", r)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        ctx = _context(args)
        out, code = args.func(args, ctx, parse_point_list(args.points))
        if isinstance(out, dict):
            out = json.dumps({"schema_version": SCHEMA_VERSION, "command": args.command,
                              **_json(out, ctx.precision_bits)}, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return code
    except (ValueError, ArithmeticError, EigenConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
