"""Command-line surface: build matrices, verify predicted inertia, sweep
eigenvalue trajectories, and run the analysis probes.

Exit codes: 0 success / property holds, 1 property violation, 2 usage error.
Points written as integers or fractions (``3``, ``7/2``) parse as exact
rationals and propagate exactness to the integer-exponent paths; decimal
notation parses as floats.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction

from mpmath import mp, mpf

from . import analysis, builders, oracle, sweep as sweep_mod
from .builders import LoewnerSpec
from .types import (
    DEFAULT_PRECISION_BITS,
    Exponent,
    Inertia,
    ToleranceContext,
    make_point_config,
)

SCHEMA_VERSION = 1
PRECISION_ENV = "LOEWNERLAB_PRECISION_BITS"


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
    a, b = float(parts[0]), float(parts[1])
    steps = int(parts[2])
    if steps < 1:
        raise ValueError("range needs at least one step")
    if steps == 1 and a != b:
        raise ValueError("a single-step range needs a == b")
    if steps > 1 and not a < b:
        raise ValueError("empty range: need a < b")
    return a, b, steps


def _digits(bits: int) -> int:
    return int(bits * 0.30103) + 3


def _num(x, bits: int):
    """JSON-safe number: native float at 53 bits, decimal string beyond."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if bits <= 53:
        return float(x)
    return mp.nstr(mpf(x), _digits(bits), strip_zeros=False)


def _decimal(x, bits: int) -> str:
    """Full round-trip decimal text for CSV cells."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    return mp.nstr(mpf(x), _digits(bits), strip_zeros=False)


def _inertia_json(ine: Inertia) -> list[int]:
    return [ine.pos, ine.zero, ine.neg]


def _context(args) -> ToleranceContext:
    bits = args.precision_bits
    if bits is None:
        bits = int(os.environ.get(PRECISION_ENV, DEFAULT_PRECISION_BITS))
    ctx = ToleranceContext.at_bits(bits)
    overrides = {}
    if args.zero_rel_tol is not None:
        overrides["zero_rel_tol"] = args.zero_rel_tol
    if args.residual_tol is not None:
        overrides["residual_tol"] = args.residual_tol
    if overrides:
        ctx = dataclasses.replace(ctx, **overrides)
    return ctx


def _write(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict):
    _write(args, json.dumps(payload, indent=2) + "\n")


def _points_json(values) -> list:
    out = []
    for v in values:
        out.append(str(v) if isinstance(v, Fraction) else v)
    return out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_build(args) -> int:
    ctx = _context(args)
    bits = ctx.precision_bits
    values = parse_point_list(args.points)
    r = parse_scalar(args.r)
    if args.kind == "sinh":
        M = builders.sinh_loewner(values, Exponent.of(r), ctx)
        rows = M.entries
    else:
        cfg = make_point_config(values)
        if args.kind == "loewner":
            rows = builders.loewner_matrix(LoewnerSpec.of(cfg, r), ctx).entries
        elif args.kind == "power-sum":
            rows = builders.power_sum_matrix(cfg, r, ctx).entries
        elif args.kind == "cross":
            if not args.points2:
                raise ValueError("--kind cross needs --points2")
            cfg2 = make_point_config(parse_point_list(args.points2))
            rows = builders.cross_loewner(cfg, cfg2, r, ctx)
        else:
            raise ValueError(f"unknown kind {args.kind!r}")
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in rows:
            writer.writerow([_decimal(e, bits) for e in row])
        _write(args, buf.getvalue())
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "build",
            "kind": args.kind,
            "points": _points_json(values),
            "r": _num(r, 53),
            "precision_bits": bits,
            "matrix": [[_num(e, bits) for e in row] for row in rows],
        }
        _emit_json(args, payload)
    return 0


def cmd_verify(args) -> int:
    ctx = _context(args)
    cfg = make_point_config(parse_point_list(args.points))
    if args.r is not None:
        rs = [parse_scalar(args.r)]
    else:
        a, b, steps = parse_range(args.r_range)
        rs = sweep_mod.exponent_grid(a, b, steps)
    if any(r == 0 for r in rs):
        raise ValueError("exponent 0 is not accepted here (L_0 is the zero matrix)")
    results = []
    all_match = True
    for r in rs:
        rep = oracle.verify_instance(cfg, r, ctx)
        all_match = all_match and rep.match
        results.append({
            "r": _num(r, 53),
            "rule": rep.predicted.rule,
            "predicted": _inertia_json(rep.predicted.inertia),
            "computed": _inertia_json(rep.computed),
            "match": rep.match,
            "precision_bits": rep.precision_bits,
            "escalations": rep.escalations,
        })
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "points": _points_json(parse_point_list(args.points)),
        "all_match": all_match,
        "results": results,
    }
    _emit_json(args, payload)
    return 0 if all_match else 1


def cmd_sweep(args) -> int:
    a, b, steps = parse_range(args.r_range)
    cfg = make_point_config(parse_point_list(args.points))
    if (args.precision_bits is not None or args.zero_rel_tol is not None
            or args.residual_tol is not None or PRECISION_ENV in os.environ):
        ctx = _context(args)
    else:
        ctx = None  # the sweep picks its own precision
    s = sweep_mod.eigen_trajectories(cfg, a, b, steps, ctx)
    header, rows = sweep_mod.emit_figure1(s, scaling=args.scale)
    bits = s.precision_bits
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        r_val, ys, counts = row[0], row[1:1 + cfg.n], row[1 + cfg.n:]
        writer.writerow([repr(float(r_val))] + [_decimal(y, bits) for y in ys]
                        + [str(c) for c in counts])
    _write(args, buf.getvalue())
    return 0


def cmd_zeros(args) -> int:
    ctx = _context(args)
    cfg = make_point_config(parse_point_list(args.points))
    coeffs = tuple(parse_point_list(args.coeffs))
    r = parse_scalar(args.r)
    f = analysis.ComboFunction(cfg, coeffs, r)
    scan = analysis.ScanPolicy(x_min=args.x_min, x_max=args.x_max, grid=args.grid)
    rep = analysis.count_zeros(f, scan, ctx)
    ex = Exponent.of(r)
    bound_applies = not (ex.is_integer and 1 <= ex.integer_value <= cfg.n - 1)
    ok = (not bound_applies) or rep.count <= cfg.n - 1
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "zeros",
        "r": _num(r, 53),
        "count": rep.count,
        "bound": cfg.n - 1,
        "bound_applies": bound_applies,
        "brackets": [list(bk) for bk in rep.brackets],
        "ambiguous": list(rep.ambiguous),
        "grid": rep.grid,
        "ok": ok,
    }
    _emit_json(args, payload)
    return 0 if ok else 1


def cmd_ssr(args) -> int:
    ctx = _context(args)
    cfg = make_point_config(parse_point_list(args.points))
    r = parse_scalar(args.r)
    ex = Exponent.of(r)
    if ex.is_integer and cfg.exact is not None:
        M = builders.loewner_matrix_exact(cfg, ex.integer_value)
        exact_used = True
    else:
        M = builders.loewner_matrix(LoewnerSpec(cfg, ex), ctx)
        exact_used = False
    rep = analysis.ssr_scan(M, args.k_max, ctx)
    if ex.is_integer and 1 <= ex.integer_value <= cfg.n - 1:
        need = min(ex.integer_value, rep.k_max)
        ok = all(v in ("+", "-") for v in rep.per_k[:need])
        required = f"SSR_{ex.integer_value}"
    else:
        ok = rep.ssr_class == "SSR" and rep.k_max == cfg.n
        required = "SSR"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "ssr",
        "r": _num(r, 53),
        "exact": exact_used,
        "per_k": list(rep.per_k),
        "ssr_class": rep.ssr_class,
        "required": required,
        "ok": ok,
    }
    _emit_json(args, payload)
    return 0 if ok else 1


def cmd_det_id(args) -> int:
    ctx = _context(args)
    cfg = make_point_config(parse_point_list(args.points))
    closed3 = analysis.det_closed_form_L3(cfg)
    closed4 = analysis.det_closed_form_L4(cfg)
    if cfg.exact is not None:
        from .exact import det_fraction
        det3 = det_fraction(builders.loewner_matrix_exact(cfg, 3).entries)
        det4 = det_fraction(builders.loewner_matrix_exact(cfg, 4).entries)
        match3, match4 = det3 == closed3, det4 == closed4
        exact_used = True
    else:
        with ctx.prec():
            det3 = analysis._det_any(
                builders.loewner_matrix(LoewnerSpec.of(cfg, 3), ctx).entries, ctx)
            det4 = analysis._det_any(
                builders.loewner_matrix(LoewnerSpec.of(cfg, 4), ctx).entries, ctx)
            rt = ctx.residual_tol
            match3 = abs(det3 - closed3) <= rt * (1 + abs(closed3)) * 1e3
            match4 = abs(det4 - closed4) <= rt * (1 + abs(closed4)) * 1e3
        exact_used = False
    ok = bool(match3 and match4)
    bits = ctx.precision_bits
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "det-id",
        "exact": exact_used,
        "det_L3": _num(det3, bits),
        "closed_L3": _num(closed3, bits),
        "match_L3": bool(match3),
        "det_L4": _num(det4, bits),
        "closed_L4": _num(closed4, bits),
        "match_L4": bool(match4),
        "ok": ok,
    }
    _emit_json(args, payload)
    return 0 if ok else 1


def cmd_dk(args) -> int:
    ctx = _context(args)
    cfg = make_point_config(parse_point_list(args.points))
    r = parse_scalar(args.r)
    probe = analysis.dk_norm_probe(cfg, r, samples=args.samples, seed=args.seed, tol=ctx)
    margin = float(ctx.residual_tol) * 1e3
    equality_regime = 0 < r <= 1
    ok = probe.bound >= probe.reference * (1 - margin)
    if equality_regime:
        ok = ok and probe.bound <= probe.reference * (1 + margin)
    bits = ctx.precision_bits
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "dk",
        "r": _num(r, 53),
        "bound": _num(probe.bound, bits),
        "reference": _num(probe.reference, bits),
        "ratio": _num(probe.ratio, bits),
        "samples": probe.samples,
        "seed": probe.seed,
        "equality_regime": equality_regime,
        "ok": bool(ok),
    }
    _emit_json(args, payload)
    return 0 if ok else 1


def cmd_complex_zeros(args) -> int:
    ctx = _context(args)
    cfg = make_point_config(parse_point_list(args.points))
    parts = args.region.split(":")
    if len(parts) != 4:
        raise ValueError("region must be re_min:re_max:im_min:im_max")
    rect = analysis.Rect(*(float(p) for p in parts))
    rep = analysis.complex_zero_scan(cfg, rect, grid=args.grid, tol=ctx)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "complex-zeros",
        "region": [rect.re_min, rect.re_max, rect.im_min, rect.im_max],
        "total_winding": rep.total_winding,
        "regrids": rep.regrids,
        "cells": [
            {
                "re": cell.center.real,
                "im": cell.center.imag,
                "winding": cell.winding,
                "rect": [cell.rect.re_min, cell.rect.re_max,
                         cell.rect.im_min, cell.rect.im_max],
            }
            for cell in rep.cells
        ],
    }
    _emit_json(args, payload)
    return 0


def cmd_pr_compare(args) -> int:
    ctx = _context(args)
    cfg = make_point_config(parse_point_list(args.points))
    r = parse_scalar(args.r)
    rep = analysis.pr_compare(cfg, r, ctx)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "pr-compare",
        "r": _num(r, 53),
        "inertia_power_sum": _inertia_json(rep.inertia_power_sum),
        "inertia_loewner_r_plus_1": _inertia_json(rep.inertia_loewner),
        "match": rep.match,
    }
    _emit_json(args, payload)
    return 0 if rep.match else 1


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int, default=None,
                        help=f"working precision in mantissa bits (env {PRECISION_ENV}, default 53)")
    common.add_argument("--zero-rel-tol", type=float, default=None)
    common.add_argument("--residual-tol", type=float, default=None)
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")

    top = argparse.ArgumentParser(prog="loewnerlab",
                                  description="Loewner matrix builders, inertia checks, and sweeps")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common], help="construct a structured matrix")
    p.add_argument("--points", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--kind", choices=["loewner", "sinh", "power-sum", "cross"],
                   default="loewner")
    p.add_argument("--points2", default=None, help="second node sequence for --kind cross")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", parents=[common],
                       help="compare computed inertia against the predicted value")
    p.add_argument("--points", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--r", default=None)
    g.add_argument("--r-range", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common],
                       help="eigenvalue trajectories over an exponent grid (CSV)")
    p.add_argument("--points", required=True)
    p.add_argument("--r-range", required=True)
    p.add_argument("--scale", choices=["signed-log", "none"], default="signed-log")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("zeros", parents=[common],
                       help="count sign changes of a divided-difference combination")
    p.add_argument("--points", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("ssr", parents=[common], help="scan all minors for sign regularity")
    p.add_argument("--points", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(func=cmd_ssr)

    p = sub.add_parser("det-id", parents=[common],
                       help="check the three-point determinant closed forms")
    p.add_argument("--points", required=True)
    p.set_defaults(func=cmd_det_id)

    p = sub.add_parser("dk", parents=[common],
                       help="sampled lower bound on the power-derivative norm")
    p.add_argument("--points", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dk)

    p = sub.add_parser("complex-zeros", parents=[common],
                       help="argument-principle scan of the complex determinant")
    p.add_argument("--points", required=True)
    p.add_argument("--region", required=True, help="re_min:re_max:im_min:im_max")
    p.add_argument("--grid", type=int, default=16)
    p.set_defaults(func=cmd_complex_zeros)

    p = sub.add_parser("pr-compare", parents=[common],
                       help="compare inertia of the power-sum matrix with L_{r+1}")
    p.add_argument("--points", required=True)
    p.add_argument("--r", required=True)
    p.set_defaults(func=cmd_pr_compare)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
