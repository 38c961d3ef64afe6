"""Eigenvalue trajectories of L_r over an exponent grid.

The sweep records sorted eigenvalues and the inertia at every grid point,
each settled on the verdict ladder (``inertia._settle_loewner``) from the
sweep's start.  ``exponent_grid`` returns a value within
``INTEGER_SNAP_WINDOW`` (1e-9) of an integer as that integer, and the
ladder takes the exact rational inertia at every integer point, so zero
counts at integers are exact rather than threshold classifications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf

# Not called here: perfbench's tracer test looks up ``eig_sym`` and
# ``inertia_report`` here, and a CLI test fixture patches ``eig_sym`` here.
from .inertia import EigenConvergenceError, _settle_loewner, eig_sym, inertia as inertia_report
from .oracle import predicted_inertia
from .types import DEFAULT_TOL, Inertia, PointConfig, ToleranceContext, to_mpf

INTEGER_SNAP_WINDOW = 1e-9


@dataclass(frozen=True)
class SpectrumSweep:
    """The spectra and inertias of a sweep, and ``tol``, the context it
    started each point's ladder at: the precision and zero threshold its
    values are printed and scaled with (see ``emit_figure1``)."""

    config: PointConfig
    grid: tuple[float, ...]
    trajectories: tuple  # per grid point: ascending eigenvalue tuple, or None on failure
    inertias: tuple      # per grid point: Inertia, or None on failure
    failures: tuple = ()
    tol: ToleranceContext = DEFAULT_TOL

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def precision_bits(self) -> int:
        return self.tol.precision_bits


def _check_range(a: float, b: float, steps: int) -> None:
    """Need finite bounds, and one step with a == b or more steps with a < b."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"range bounds must be finite, got {a!r}:{b!r}")
    if steps < 1:
        raise ValueError("range needs at least one step")
    if steps == 1 and a != b:
        raise ValueError("a single-step range needs a == b")
    if steps > 1 and not a < b:
        raise ValueError("empty range: need a < b")


def exponent_grid(r_min: float, r_max: float, steps: int) -> list[float]:
    """``steps`` evenly spaced exponents from r_min to r_max inclusive.

    A value within ``INTEGER_SNAP_WINDOW`` of an integer is returned as that
    integer (as an integral float), so every value is an exact integer or at
    least the window away from every integer: 0.1:1.0:10 ends at 1.0, not at
    the roundoff 0.9999999999999999.
    """
    a, b = float(r_min), float(r_max)
    _check_range(a, b, steps)
    grid = [a] if steps == 1 else [a + (b - a) * i / (steps - 1) for i in range(steps)]
    return [float(round(r)) if abs(r - round(r)) < INTEGER_SNAP_WINDOW else r for r in grid]


def start_context(config: PointConfig) -> ToleranceContext:
    """The sweep's own starting context: 256 bits for n >= 6, because the
    smallest nonzero eigenvalues between integers shrink rapidly with the
    order, and the default 53-bit context below that."""
    return ToleranceContext.at_bits(256) if config.n >= 6 else ToleranceContext()


def eigen_trajectories(config: PointConfig, r_min: float, r_max: float, steps: int,
                       tol: Optional[ToleranceContext] = None) -> SpectrumSweep:
    """Sweep the exponent over a uniform grid and record spectra and inertias.

    ``tol`` defaults to ``start_context(config)`` and is the first rung of
    each point's ladder (``_settle_loewner``); a point keeps the spectrum and
    consensus of the rung that settled, so an integer point takes the exact
    inertia.  Two outcomes of the top rung are recorded in ``failures``, and
    the sweep continues: an eigensolver failure (the point has no row) and
    float routes that still disagree where no exact route ran (the point
    keeps an unsettled row).
    """
    grid = exponent_grid(r_min, r_max, steps)
    if tol is None:
        tol = start_context(config)

    trajectories = []
    inertias = []
    failures = []
    for idx, r in enumerate(grid):
        try:
            rep = _settle_loewner(config, r, tol)[0]
        except EigenConvergenceError as exc:
            trajectories.append(None)
            inertias.append(None)
            failures.append((idx, str(exc)))
            continue
        trajectories.append(rep.spectrum.eigenvalues)
        inertias.append(rep.consensus)
        if rep.disagreement and rep.by_exact is None:
            failures.append((idx, "route disagreement"))
    return SpectrumSweep(config, tuple(grid), tuple(trajectories), tuple(inertias),
                         tuple(failures), tol)


@dataclass(frozen=True)
class SignChange:
    interval: tuple[float, float]
    before: Inertia
    after: Inertia
    brackets_integer: bool

    @property
    def anomalous(self) -> bool:
        return not self.brackets_integer


def sign_change_report(s: SpectrumSweep) -> tuple[SignChange, ...]:
    """Intervals where consecutive inertias differ.

    Eigenvalues can only change sign where the matrix goes singular, which
    happens exactly at the integers m with a zero count in
    ``predicted_inertia(n, m)``: 0 and +-1..+-(n-1).  An interval [a, b]
    (grid values, so integers are exact) that contains no such integer is
    flagged anomalous.  Only the integers in [-n, n] are scanned.
    """
    n = s.n
    changes = []
    prev_idx = None
    for idx, ine in enumerate(s.inertias):
        if ine is None:
            continue
        if prev_idx is not None and s.inertias[prev_idx] != ine:
            a, b = s.grid[prev_idx], s.grid[idx]
            has_integer = any(predicted_inertia(n, m).inertia.zero > 0
                              for m in range(max(math.ceil(a), -n), min(math.floor(b), n) + 1))
            changes.append(SignChange((a, b), s.inertias[prev_idx], ine, has_integer))
        prev_idx = idx
    return tuple(changes)


def flag_jumps(s: SpectrumSweep, factor: float = 10.0) -> tuple[tuple[float, float], ...]:
    """Grid intervals where an eigenvalue moved more than factor x the median
    step movement: a sign of under-resolution."""
    moves = []
    pairs = []
    prev = None
    for idx, traj in enumerate(s.trajectories):
        if traj is None:
            prev = None
            continue
        if prev is not None:
            pidx, ptraj = prev
            step = max(abs(to_mpf(a) - to_mpf(b)) for a, b in zip(ptraj, traj))
            moves.append(step)
            pairs.append(((s.grid[pidx], s.grid[idx]), step))
        prev = (idx, traj)
    if not moves:
        return ()
    med = sorted(moves)[len(moves) // 2]
    if med == 0:
        return ()
    return tuple(iv for iv, step in pairs if step > factor * med)


def emit_figure1(s: SpectrumSweep, scaling: str = "signed-log",
                 tau=None) -> tuple[list[str], list[tuple]]:
    """Tabular sweep dataset: rows (r, y_1..y_n, pos, zero, neg).

    Under signed-log scaling y = sign(lambda) * log10(1 + |lambda|/tau),
    an odd strictly increasing map that keeps near-zero trajectories
    visible; tau defaults to the sweep's own zero threshold,
    ``s.tol.zero_rel_tol`` times n times the largest |lambda|, so an
    eigenvalue that extended precision resolves is not flattened to zero.
    Failed grid points are omitted; values keep the sweep's precision.
    """
    if scaling not in ("signed-log", "none"):
        raise ValueError(f"unknown scaling {scaling!r}")
    with s.tol.prec():
        n = s.n
        header = ["r"] + [f"lambda_{i + 1}" for i in range(n)] + ["pos", "zero", "neg"]
        if tau is None:
            peak = mpf(0)
            for traj in s.trajectories:
                if traj is not None:
                    peak = max(peak, max(abs(to_mpf(v)) for v in traj))
            tau = s.tol.zero_rel_tol * n * peak if peak > 0 else mpf(1)
        tau = to_mpf(tau)

        def shape(lam):
            lam = to_mpf(lam)
            if scaling == "none":
                return lam
            if lam == 0:
                return mpf(0)
            mag = mp.log10(1 + abs(lam) / tau)
            return mag if lam > 0 else -mag

        rows = []
        for idx, (traj, ine) in enumerate(zip(s.trajectories, s.inertias)):
            if traj is None or ine is None:
                continue
            rows.append((s.grid[idx],) + tuple(shape(v) for v in traj)
                        + (ine.pos, ine.zero, ine.neg))
        return header, rows
