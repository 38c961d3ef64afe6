"""Eigenvalue trajectories of L_r over an exponent grid.

The sweep records sorted eigenvalues and the inertia at every grid point,
solving each point's matrix once; grid points that land on integers (within
1e-9) are snapped and routed through the exact rational inertia, so zero
counts at integers are exact rather than threshold classifications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf

from . import builders
from .builders import LoewnerSpec
from .inertia import EigenConvergenceError, eig_sym, exact_route_hint, inertia_exact_integer
from .inertia import inertia as inertia_report
from .types import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_ZERO_REL_TOL,
    Exponent,
    Inertia,
    PointConfig,
    ToleranceContext,
    to_mpf,
)

INTEGER_SNAP_WINDOW = 1e-9


@dataclass(frozen=True)
class SpectrumSweep:
    config: PointConfig
    grid: tuple[float, ...]
    trajectories: tuple  # per grid point: ascending eigenvalue tuple, or None on failure
    inertias: tuple      # per grid point: Inertia, or None on failure
    failures: tuple = ()
    precision_bits: int = DEFAULT_PRECISION_BITS

    @property
    def n(self) -> int:
        return self.config.n


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
    """``steps`` evenly spaced exponents from r_min to r_max inclusive."""
    a, b = float(r_min), float(r_max)
    _check_range(a, b, steps)
    if steps == 1:
        return [a]
    return [a + (b - a) * i / (steps - 1) for i in range(steps)]


def eigen_trajectories(config: PointConfig, r_min: float, r_max: float, steps: int,
                       tol: Optional[ToleranceContext] = None) -> SpectrumSweep:
    """Sweep the exponent over a uniform grid and record spectra and inertias.

    Precision defaults to 256 bits for n >= 6 because the smallest nonzero
    eigenvalues between integers shrink rapidly with the order.  Eigensolver
    failures (the point has no row) and route disagreements (the point keeps
    an unsettled row) are recorded in ``failures`` and the sweep continues.
    """
    grid = exponent_grid(r_min, r_max, steps)
    if tol is None:
        tol = ToleranceContext.at_bits(256) if config.n >= 6 else ToleranceContext()

    trajectories = []
    inertias = []
    failures = []
    for idx, r in enumerate(grid):
        m = round(r)
        snapped = abs(r - m) < INTEGER_SNAP_WINDOW
        ex = Exponent.of(m) if snapped else Exponent.of(r)
        try:
            L = builders.loewner_matrix(LoewnerSpec(config, ex), tol)
            if snapped:
                spec = eig_sym(L, tol)
                ine = inertia_exact_integer(*exact_route_hint(config, ex))
            else:
                rep = inertia_report(L, tol)
                spec, ine = rep.spectrum, rep.consensus
                if rep.disagreement:
                    failures.append((idx, "route disagreement"))
            trajectories.append(tuple(spec.eigenvalues))
            inertias.append(ine)
        except EigenConvergenceError as exc:
            trajectories.append(None)
            inertias.append(None)
            failures.append((idx, str(exc)))
    return SpectrumSweep(config, tuple(grid), tuple(trajectories), tuple(inertias),
                         tuple(failures), tol.precision_bits)


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
    happens exactly at integer exponents in (0, n); an interval not
    containing such an integer is flagged anomalous.
    """
    n = s.n
    changes = []
    prev_idx = None
    for idx, ine in enumerate(s.inertias):
        if ine is None:
            continue
        if prev_idx is not None and s.inertias[prev_idx] != ine:
            a, b = s.grid[prev_idx], s.grid[idx]
            lo = math.ceil(a - 1e-12)
            hi = math.floor(b + 1e-12)
            has_integer = any(0 < m < n for m in range(lo, hi + 1))
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
    visible; tau defaults to the zero-threshold scale of the sweep.
    Failed grid points are omitted; values keep the sweep's precision.
    """
    if scaling not in ("signed-log", "none"):
        raise ValueError(f"unknown scaling {scaling!r}")
    with mp.workprec(s.precision_bits):
        n = s.n
        header = ["r"] + [f"lambda_{i + 1}" for i in range(n)] + ["pos", "zero", "neg"]
        if tau is None:
            peak = mpf(0)
            for traj in s.trajectories:
                if traj is not None:
                    peak = max(peak, max(abs(to_mpf(v)) for v in traj))
            tau = DEFAULT_ZERO_REL_TOL * n * peak if peak > 0 else mpf(1)
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
