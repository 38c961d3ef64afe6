"""Command-line surface: build matrices, verify predicted inertia, sweep
eigenvalue trajectories, and run the analysis probes.

Exit codes: 0 success / property holds, 1 property violation (a false ``ok``,
``match`` or ``all_match`` at the top of the payload), 2 usage error or a
computation that could not finish (an unreachable tolerance, an exhausted
ladder, an arithmetic trap).  Points written as integers or fractions
(``3``, ``7/2``) parse as exact rationals and propagate exactness to the
integer-exponent paths; decimal notation parses as floats.

Each JSON subcommand parses its arguments, calls the library and returns
what it returns: a report, which carries its own verdict, or a dict.
``main`` writes it through one serializer (``_json``), adds
``schema_version`` and ``command``, and works out the exit code from the
payload.  The CSV paths return their text with its exit code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
from fractions import Fraction

from mpmath import mp

from . import analysis, builders, oracle, sweep as sweep_mod
from .exact import det_fraction
from .inertia import EigenConvergenceError
from .types import DEFAULT_PRECISION_BITS, Inertia, ToleranceContext, make_point_config, to_mpf

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


# Payload keys of the reports whose keys differ from their field names:
# ``key`` reads the attribute of that name, ``key=path`` a dotted path.
_PAYLOAD = {
    oracle.VerifyReport: "r rule=predicted.rule predicted=predicted.inertia computed match "
                         "precision_bits escalations",
    analysis.PrCompareReport: "r inertia_power_sum inertia_loewner_r_plus_1=inertia_loewner match",
    analysis.ZeroCell: "re=center.real im=center.imag winding rect",
}


def _json(x, bits: int):
    """JSON value of ``x``: an inertia or a rectangle as a list, any other
    report as an object (by ``_PAYLOAD``, else its fields in order), a
    Fraction as text, containers recursively, and any other real (mpf) as a
    float at 53 bits when the float holds it exactly and as decimal text
    otherwise, so a finite value never prints as an infinity or a flushed
    zero.  A NaN or an infinity stays a float, which ``main`` refuses."""
    if isinstance(x, (Inertia, analysis.Rect)):
        return list(dataclasses.astuple(x))
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [_json(v, bits) for v in x]
    if isinstance(x, dict):
        return {k: _json(v, bits) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        spec = _PAYLOAD.get(type(x)) or " ".join(f.name for f in dataclasses.fields(x))
        return {key: _json(functools.reduce(getattr, (path or key).split("."), x), bits)
                for key, _, path in (item.partition("=") for item in spec.split())}
    return float(x) if not mp.isfinite(x) or bits <= 53 and float(x) == x else _decimal(x, bits)


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _context(args, start=None) -> ToleranceContext:
    """``start`` (by default the 53-bit context), or the context at
    ``--precision-bits`` when that is given, with each tolerance flag given
    in place of its threshold."""
    if start is None or args.precision_bits is not None:
        bits = DEFAULT_PRECISION_BITS if args.precision_bits is None else args.precision_bits
        start = ToleranceContext.at_bits(bits)
    overrides = {"zero_rel_tol": args.zero_rel_tol, "residual_tol": args.residual_tol}
    return dataclasses.replace(start, **{k: v for k, v in overrides.items() if v is not None})


# ---------------------------------------------------------------------------
# Subcommands: each takes (args, context, points) and returns its payload, a
# report or a dict, or CSV text with its exit code


def cmd_build(args, ctx, values):
    r = parse_scalar(args.r)
    if args.kind == "sinh":
        rows = builders.sinh_loewner(values, r, ctx).entries
    else:
        cfg = make_point_config(values)
        if args.kind == "loewner":
            rows = builders.loewner_matrix(cfg, r, ctx).entries
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
            "precision_bits": ctx.precision_bits, "matrix": rows}


def cmd_verify(args, ctx, values):
    cfg = make_point_config(values)
    rs = ([parse_scalar(args.r)] if args.r is not None
          else sweep_mod.exponent_grid(*parse_range(args.r_range)))
    reps = [oracle.verify_instance(cfg, r, ctx) for r in rs]
    return {"points": values, "all_match": all(rep.match for rep in reps), "results": reps}


def cmd_sweep(args, ctx, values):
    a, b, steps = parse_range(args.r_range)
    cfg = make_point_config(values)
    # Only --precision-bits replaces the sweep's own start, the first rung of
    # each point's ladder; a tolerance flag sets its threshold on that start.
    s = sweep_mod.eigen_trajectories(cfg, a, b, steps,
                                     _context(args, sweep_mod.start_context(cfg)))
    header, rows = sweep_mod.emit_figure1(s, scaling=args.scale)
    cells = [[repr(float(r))] + [_decimal(y, s.precision_bits) for y in ys[:cfg.n]]
             + list(ys[cfg.n:]) for r, *ys in rows]
    # A point whose eigensolve failed on the top rung has no row, and a point
    # whose float routes still disagree there, with no exact route, keeps an
    # unsettled row; say so rather than exit 0.
    for idx, msg in s.failures:
        fate = "dropped" if s.inertias[idx] is None else "kept"
        print(f"error: r={s.grid[idx]!r} {fate}: {msg}", file=sys.stderr)
    return _csv([header] + cells), 2 if s.failures else 0


def cmd_zeros(args, ctx, values):
    f = analysis.ComboFunction(make_point_config(values), tuple(parse_point_list(args.coeffs)),
                               parse_scalar(args.r))
    scan = analysis.ScanPolicy(x_min=args.x_min, x_max=args.x_max, grid=args.grid)
    return analysis.count_zeros(f, scan, ctx)


def cmd_ssr(args, ctx, values):
    return analysis.loewner_ssr(make_point_config(values), parse_scalar(args.r), args.k_max, ctx)


def cmd_det_id(args, ctx, values):
    cfg = make_point_config(values)
    exact = cfg.exact is not None
    q = cfg.ensure_exact()  # float nodes are the binary rationals they denote
    payload = {"exact": exact}
    for m, closed_form in ((3, analysis.det_closed_form_L3), (4, analysis.det_closed_form_L4)):
        closed = closed_form(q)
        det = det_fraction(builders.loewner_matrix_exact(q, m).entries)
        match = det == closed
        if not exact:
            with ctx.prec():  # both values of float nodes print rounded once
                det, closed = to_mpf(det), to_mpf(closed)
        payload.update({f"det_L{m}": det, f"closed_L{m}": closed, f"match_L{m}": match})
    return {**payload, "ok": payload["match_L3"] and payload["match_L4"]}


def cmd_dk(args, ctx, values):
    return analysis.dk_norm_probe(make_point_config(values), parse_scalar(args.r),
                                  samples=args.samples, seed=args.seed, tol=ctx)


def cmd_complex_zeros(args, ctx, values):
    cfg, parts = make_point_config(values), args.region.split(":")
    if len(parts) != 4:
        raise ValueError("region must be re_min:re_max:im_min:im_max")
    return analysis.complex_zero_scan(cfg, analysis.Rect(*map(float, parts)), args.grid, ctx)


def cmd_pr_compare(args, ctx, values):
    r = parse_scalar(args.r)
    return analysis.pr_compare(make_point_config(values), r, ctx)


# ---------------------------------------------------------------------------
# Parser


def _opt(flag: str, **kwargs):
    return flag, kwargs


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors reach ``main`` as ArgumentError, so they
    print as one ``error:`` line and return 2 like every other usage error."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _join_values(argv: list) -> list:
    """``argv`` with ``--flag value`` written ``--flag=value`` wherever the
    value starts with '-' and is not a flag name (``--...`` or ``-h``), so
    negative lists and ranges such as ``--coeffs -1,1,1`` parse: argparse
    reads those tokens as flags."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and "=" not in prev and prev != "--help"
        if takes_value and tok.startswith("-") and not tok.startswith("--") and tok != "-h":
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (``main`` runs in-process
    too, once per call).  Each subcommand's function (``cmd_*``) is bound
    when the parser is first built."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int, default=None,
                        help=f"working precision in mantissa bits (default {DEFAULT_PRECISION_BITS})")
    common.add_argument("--zero-rel-tol", type=float, default=None)
    common.add_argument("--residual-tol", type=float, default=None)
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")
    common.add_argument("--points", required=True)

    top = _Parser(prog="loewnerlab",
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
    try:
        args = _build_parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
        ctx = _context(args)
        out = args.func(args, ctx, parse_point_list(args.points))
        if isinstance(out, tuple):  # CSV text and its exit code
            out, code = out
        else:
            payload = _json(out, ctx.precision_bits)
            code = int(any(payload.get(k) is False for k in ("ok", "match", "all_match")))
            out = json.dumps({"schema_version": SCHEMA_VERSION, "command": args.command,
                              **payload}, indent=2, allow_nan=False) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return code
    except (argparse.ArgumentError, ValueError, ArithmeticError, EigenConvergenceError,
            OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
