"""Trajectory-level verification of the derivative identities.

Along a numerical trajectory the virial and interaction identities hold up
to a finite-difference error C dt_s^2 (dt_s = snapshot spacing) plus the
splitting defect.  The constant C is calibrated once per configuration from
a dt-halving pair over a window, which separates time-discretization error
from genuine identity violations: a wrong identity leaves a residual that
does not scale like dt^2 and fails the calibrated tolerance.

run_checks plans both trajectories.  The dt half of the pair is not a run
of its own: the checked records and the calibration window are both the
first records of one dt trajectory over the longer of the two horizons.
evolve emits snapshots only at whole stride blocks counted from step 0, so
the first StepParams.n_snapshots snapshots of a longer run are bitwise those
of a run that stops at the shorter t_final.  The dt/2 trajectory covers the
calibration window at twice the stride.

The two trajectories share nothing, so when the main thread
``grid.runs_beside`` the state (fewer than PARALLEL_MIN_POINTS points, which
no site splits, at least 2 CPUs, and no overlap running) the dt/2 one runs
as one pool task while the calling thread runs the dt one; otherwise they
run one after the other.  Each computes every value as it would alone, so
the records, constants and checks do not depend on which.

Every gap is morawetz.fd_gap_first or fd_gap_second, built on the
central_difference and second_difference of the interaction inequality check.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .diagnostics import DiagnosticsCollector
from .evolve import StepParams, evolve
from .grid import runs_beside, submit
# interaction_report is unused here; perfbench/tests checks that the tracer
# rebinds this binding of it (ROADMAP item 1 retires that check)
from .morawetz import (MorawetzWeight, fd_gap_first, fd_gap_second,  # noqa: F401
                       interaction_inequality_check, interaction_report, second_difference)
from .system import BOUNDARY_MASS_LIMIT, SystemState

FD_SAFETY = 2.0  # factor on the dt^2 constants that calibrate_fd_constants fits
ABS_FLOOR_FIRST = 1e-8   # check_identities' absolute floors on the first- and
ABS_FLOOR_SECOND = 1e-6  # second-difference tolerances


def _head(collector: DiagnosticsCollector, n: int, *columns: str) -> list[np.ndarray]:
    """The first n values of each column of collector's records."""
    return [collector.series(c)[:n] for c in columns]


def collect_series(state0: SystemState, params: StepParams,
                   smooth_weight: MorawetzWeight,
                   interaction_weight: MorawetzWeight | None) -> DiagnosticsCollector:
    """Run params from state0 into a collector with the virial columns
    (Vddot included), the interaction reports when a weight is given, and
    no L^q, accumulator or Strichartz columns."""
    collector = DiagnosticsCollector(state0.coupling, state0.grid, weight=smooth_weight,
                                     vddot=True, interaction=interaction_weight,
                                     lq_values=(), accumulators=False)
    evolve(state0, params, collector)
    return collector


def run_checks(state0: SystemState, params: StepParams, window: float,
               smooth_weight: MorawetzWeight,
               interaction_weight: MorawetzWeight | None) -> tuple[list[dict], dict, dict]:
    """Check the identities along params from state0 at tolerances
    calibrated over the window (0: params.t_final).  One dt run over the
    longer horizon gives both, the dt/2 run over the window the other half
    of the calibration; returns the dt run's first params.n_snapshots
    records, the fd_constants and the checks of summary.json.

    Both runs have ended when this returns or raises; if both fail, the dt
    run's error is raised, as in sequential order."""
    # by default calibrate over the full horizon: finite-difference constants
    # can grow along the trajectory, so short-window calibration underestimates them
    window = window or params.t_final
    at_dt = replace(params, t_final=max(window, params.t_final))
    at_half_dt = replace(params, dt=params.dt / 2, t_final=window,
                         snapshot_stride=2 * params.snapshot_stride)

    def series(p):
        return collect_series(state0, p, smooth_weight, interaction_weight)

    if runs_beside(state0.coupling.n * state0.grid.npoints):
        pending = submit(series, at_half_dt)
        try:
            trajectory = series(at_dt)
            halved = pending.result()
        except BaseException:
            if not pending.cancel():
                pending.exception()  # wait for the running trajectory
            raise
    else:
        trajectory, halved = series(at_dt), series(at_half_dt)
    constants = calibrate_fd_constants(trajectory, halved, state0, replace(params, t_final=window))
    n = params.n_snapshots
    return trajectory.records[:n], constants, check_identities(trajectory, n, constants)


def calibrate_fd_constants(coarse: DiagnosticsCollector, fine: DiagnosticsCollector,
                           state0: SystemState, params: StepParams) -> dict[str, float]:
    """Fit gap = C dt_s^2 on the window params.t_final at (dt, dt/2).

    coarse holds the dt trajectory of params from state0 in its first
    params.n_snapshots records (a longer run of the same steps will do), and
    fine the dt/2 trajectory at twice the stride, so both sample the same
    snapshot times.  Returns the larger of the two extrapolations per
    identity, times FD_SAFETY, so the calibrated tolerance is an upper
    envelope of the pure finite-difference error of this configuration: the
    fd_constants of summary.json, c_vdot, c_vddot, c_idot and c_iddot (the
    last two 0 without interaction reports).
    Raises ValueError if either series does not sample params' snapshot times.
    """
    n = params.n_snapshots
    gaps = []
    for tr in (coarse, fine):
        t, V, Vdot, Vddot = _head(tr, n, "t", "V", "Vdot", "Vddot")
        if (len(t) != n or t[0] != state0.t
                or (n > 1 and not math.isclose(t[1] - t[0], params.dt * params.snapshot_stride,
                                               rel_tol=1e-9))):
            raise ValueError(
                f"calibration series of {len(t)} snapshots does not sample the times of "
                f"params ({n} snapshots from t = {state0.t} every "
                f"{params.dt * params.snapshot_stride})")
        dts = float(t[1] - t[0])
        g1 = fd_gap_first(t, V, Vdot).max() / dts ** 2
        g2 = fd_gap_second(t, V, Vddot).max() / dts ** 2
        if tr.reports:
            I, Idot = _head(tr, n, "I", "Idot")
            gi = fd_gap_first(t, I, Idot).max() / dts ** 2
            gii = np.abs(second_difference(t, I)).max() / max(dts, 1.0)
        else:
            gi, gii = 0.0, 0.0
        gaps.append((g1, g2, gi, gii))
    return {name: float(FD_SAFETY * max(a, b))
            for name, a, b in zip(("c_vdot", "c_vddot", "c_idot", "c_iddot"), *gaps)}


def check_identities(collector: DiagnosticsCollector, n: int, constants: dict[str, float]) -> dict:
    """The checks of summary.json on the first n records of collector: the
    dV/dt, d2V/dt2 and dI/dt identities at calibrated tolerances, each
    {"gap", "tol", "pass"}, then the interaction convexity inequality in both
    forms, each {"pass"}, and simulate's boundary_mass check, {"value",
    "tol", "pass"}: the largest boundary_mass_fraction against
    BOUNDARY_MASS_LIMIT.  Without interaction reports every interaction
    entry is None."""
    t, V, Vdot, Vddot, boundary = _head(collector, n, "t", "V", "Vdot", "Vddot",
                                        "boundary_mass_fraction")
    dts = float(t[1] - t[0])

    def gap_check(gap, constant, floor):
        tol = constant * dts ** 2 + floor
        return {"gap": gap, "tol": tol, "pass": gap <= tol}

    checks = {
        "virial_first_identity": gap_check(float(fd_gap_first(t, V, Vdot).max()),
                                           constants["c_vdot"], ABS_FLOOR_FIRST),
        "virial_second_identity": gap_check(float(fd_gap_second(t, V, Vddot).max()),
                                            constants["c_vddot"], ABS_FLOOR_SECOND),
        "interaction_first_identity": {"gap": None, "tol": None, "pass": None},
        "interaction_inequality": {"pass": None},
        "interaction_integrated": {"pass": None}}
    if collector.reports:
        check = interaction_inequality_check(collector.reports[:n],
                                             fd_constant=constants["c_iddot"])
        checks["interaction_first_identity"] = gap_check(check.idot_fd_gap, constants["c_idot"],
                                                         ABS_FLOOR_FIRST)
        checks["interaction_inequality"]["pass"] = check.second_difference_ok
        checks["interaction_integrated"]["pass"] = check.integrated_ok
    value = float(boundary.max())
    checks["boundary_mass"] = {"value": value, "tol": BOUNDARY_MASS_LIMIT,
                               "pass": value <= BOUNDARY_MASS_LIMIT}
    return checks
