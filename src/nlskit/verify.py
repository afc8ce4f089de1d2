"""Trajectory-level verification of the derivative identities.

Along a numerical trajectory the virial and interaction identities hold up
to a finite-difference error C dt_s^2 (dt_s = snapshot spacing) plus the
splitting defect.  The constant C is calibrated once per configuration from
a dt-halving pair over a window, which separates time-discretization error
from genuine identity violations: a wrong identity leaves a residual that
does not scale like dt^2 and fails the calibrated tolerance.

The dt half of the pair is not a run of its own: the checked series and the
calibration window are both prefixes of one dt trajectory over the longer
of the two horizons (TrajectorySeries.prefix).  evolve emits snapshots only
at whole stride blocks counted from step 0, so the first
StepParams.n_snapshots snapshots of a longer run are bitwise those of a run
that stops at the shorter t_final.  Only the dt/2 trajectory is run by the
calibration.

Every gap is morawetz.fd_gap_first or fd_gap_second, built on the
central_difference and second_difference of the interaction inequality check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import CollectorOptions, DiagnosticsCollector
from .evolve import StepParams, evolve
# interaction_report is unused here; perfbench/tests checks that the tracer
# rebinds this binding of it (ROADMAP item 1 retires that check)
from .morawetz import (InteractionReport, MorawetzWeight, fd_gap_first,  # noqa: F401
                       fd_gap_second, interaction_inequality_check, interaction_report,
                       second_difference)
from .system import SystemState

FD_SAFETY = 2.0  # factor on the dt^2 constants that calibrate_fd_constants fits
ABS_FLOOR_FIRST = 1e-8   # check_identities' absolute floors on the first- and
ABS_FLOOR_SECOND = 1e-6  # second-difference tolerances


def _column(name: str) -> property:
    return property(lambda self: self.collector.series(name)[:self.n])


@dataclass
class TrajectorySeries:
    """The first n snapshots of a collector run with the V, Vdot and Vddot
    columns (and I, Idot with an interaction weight): a view of its records
    and interaction reports."""

    collector: DiagnosticsCollector
    n: int

    times = _column("t")
    V = _column("V")
    Vdot = _column("Vdot")
    Vddot = _column("Vddot")
    I = _column("I")
    Idot = _column("Idot")

    @property
    def records(self) -> list[dict]:
        return self.collector.records[:self.n]

    @property
    def reports(self) -> list[InteractionReport]:
        return self.collector.reports[:self.n]

    @property
    def dt_snapshot(self) -> float:
        return float(self.times[1] - self.times[0])

    def prefix(self, n: int) -> TrajectorySeries:
        """The first n snapshots."""
        return TrajectorySeries(self.collector, min(n, self.n))


def collect_series(state0: SystemState, params: StepParams,
                   smooth_weight: MorawetzWeight,
                   interaction_weight: MorawetzWeight | None) -> TrajectorySeries:
    """Run params from state0 into a collector with the virial columns
    (Vddot included), the interaction reports when a weight is given, and
    no L^q, accumulator or Strichartz columns."""
    collector = DiagnosticsCollector(state0.coupling, state0.grid, CollectorOptions(
        weight=smooth_weight, vddot=True, interaction=interaction_weight,
        lq_values=(), accumulators=False))
    evolve(state0, params, collector)
    return TrajectorySeries(collector, len(collector.records))


def calibrate_fd_constants(coarse: TrajectorySeries, state0: SystemState,
                           params: StepParams, smooth_weight: MorawetzWeight,
                           interaction_weight: MorawetzWeight | None) -> dict[str, float]:
    """Fit gap = C dt_s^2 on the window params.t_final at (dt, dt/2).

    coarse is the dt trajectory of params from state0 (the caller's, often a
    prefix of a longer run); the dt/2 trajectory is run here with params'
    other fields (dealias included) and twice its stride, so both sample the
    same snapshot times.  Returns the larger of the two extrapolations per
    identity, times FD_SAFETY, so the calibrated tolerance is an upper
    envelope of the pure finite-difference error of this configuration: the
    fd_constants of summary.json, c_vdot, c_vddot, c_idot and c_iddot (the
    last two 0 without an interaction weight).
    Raises ValueError if coarse does not sample params' snapshot times.
    """
    n = len(coarse.times)
    if (n != params.n_snapshots or coarse.times[0] != state0.t
            or (n > 1 and not math.isclose(coarse.dt_snapshot,
                                           params.dt * params.snapshot_stride,
                                           rel_tol=1e-9))):
        raise ValueError(
            f"calibration series of {n} snapshots does not sample the times of "
            f"params ({params.n_snapshots} snapshots from t = {state0.t} every "
            f"{params.dt * params.snapshot_stride})")
    fine = replace(params, dt=params.dt / 2, snapshot_stride=2 * params.snapshot_stride)
    gaps = []
    for tr in (coarse, collect_series(state0, fine, smooth_weight, interaction_weight)):
        dts = tr.dt_snapshot
        g1 = fd_gap_first(tr.times, tr.V, tr.Vdot).max() / dts ** 2
        g2 = fd_gap_second(tr.times, tr.V, tr.Vddot).max() / dts ** 2
        if interaction_weight is not None and tr.reports:
            gi = fd_gap_first(tr.times, tr.I, tr.Idot).max() / dts ** 2
            gii = np.abs(second_difference(tr.times, tr.I)).max() / max(dts, 1.0)
        else:
            gi, gii = 0.0, 0.0
        gaps.append((g1, g2, gi, gii))
    return {name: float(FD_SAFETY * max(a, b))
            for name, a, b in zip(("c_vdot", "c_vddot", "c_idot", "c_iddot"), *gaps)}


def check_identities(series: TrajectorySeries, constants: dict[str, float]) -> dict:
    """The checks of summary.json: the dV/dt, d2V/dt2 and dI/dt identities
    at calibrated tolerances, each {"gap", "tol", "pass"}, then the
    interaction convexity inequality in both forms, each {"pass"}.  Without
    interaction reports every interaction entry is None."""
    dts = series.dt_snapshot

    def gap_check(gap, constant, floor):
        tol = constant * dts ** 2 + floor
        return {"gap": gap, "tol": tol, "pass": gap <= tol}

    t, V = series.times, series.V
    checks = {
        "virial_first_identity": gap_check(float(fd_gap_first(t, V, series.Vdot).max()),
                                           constants["c_vdot"], ABS_FLOOR_FIRST),
        "virial_second_identity": gap_check(float(fd_gap_second(t, V, series.Vddot).max()),
                                            constants["c_vddot"], ABS_FLOOR_SECOND),
        "interaction_first_identity": {"gap": None, "tol": None, "pass": None},
        "interaction_inequality": {"pass": None},
        "interaction_integrated": {"pass": None}}
    if series.reports:
        check = interaction_inequality_check(series.reports, fd_constant=constants["c_iddot"])
        checks["interaction_first_identity"] = gap_check(check.idot_fd_gap, constants["c_idot"],
                                                         ABS_FLOOR_FIRST)
        checks["interaction_inequality"]["pass"] = check.second_difference_ok
        checks["interaction_integrated"]["pass"] = check.integrated_ok
    return checks
