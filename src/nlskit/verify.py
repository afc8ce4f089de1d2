"""Trajectory-level verification of the derivative identities.

Along a numerical trajectory the virial and interaction identities hold up
to a finite-difference error C dt_s^2 (dt_s = snapshot spacing) plus the
splitting defect.  The constant C is calibrated once per configuration from
a dt-halving pair over a short window, which separates time-discretization
error from genuine identity violations: a wrong identity leaves a residual
that does not scale like dt^2 and fails the calibrated tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evolve import StepParams, evolve
from .morawetz import (InteractionReport, MorawetzWeight,
                       interaction_inequality_check, interaction_report,
                       virial_V, virial_Vddot, virial_Vdot)
from .system import Snapshot, SystemState


@dataclass
class TrajectorySeries:
    times: np.ndarray
    V: np.ndarray
    Vdot: np.ndarray
    Vddot: np.ndarray
    reports: list[InteractionReport]
    final_state: SystemState

    @property
    def dt_snapshot(self) -> float:
        return float(self.times[1] - self.times[0])


def collect_series(state0: SystemState, params: StepParams,
                   smooth_weight: MorawetzWeight,
                   interaction_weight: MorawetzWeight | None,
                   center=None) -> TrajectorySeries:
    times, V, Vd, Vdd, reports = [], [], [], [], []

    def sink(state):
        snap = Snapshot(state)
        times.append(state.t)
        V.append(virial_V(snap, smooth_weight, center))
        Vd.append(virial_Vdot(snap, smooth_weight, center))
        Vdd.append(virial_Vddot(snap, smooth_weight, center).total)
        if interaction_weight is not None:
            reports.append(interaction_report(snap, interaction_weight))

    final = evolve(state0, params, sink)
    return TrajectorySeries(times=np.array(times), V=np.array(V),
                            Vdot=np.array(Vd), Vddot=np.array(Vdd),
                            reports=reports, final_state=final)


def fd_gap_first(times: np.ndarray, series: np.ndarray, formula: np.ndarray) -> np.ndarray:
    """|central difference of series - formula| at interior snapshots."""
    dt = times[1] - times[0]
    cd = (series[2:] - series[:-2]) / (2.0 * dt)
    return np.abs(cd - formula[1:-1])


def fd_gap_second(times: np.ndarray, series: np.ndarray, formula: np.ndarray) -> np.ndarray:
    dt = times[1] - times[0]
    cd2 = (series[2:] - 2.0 * series[1:-1] + series[:-2]) / dt ** 2
    return np.abs(cd2 - formula[1:-1])


@dataclass
class FdConstants:
    """Calibrated leading coefficients of the dt^2 finite-difference error."""

    c_vdot: float
    c_vddot: float
    c_idot: float
    c_iddot: float


def calibrate_fd_constants(state0: SystemState, dt: float, stride: int,
                           window: float, smooth_weight: MorawetzWeight,
                           interaction_weight: MorawetzWeight | None,
                           center=None, safety: float = 2.0) -> FdConstants:
    """Run a short window at (dt, dt/2) and fit gap = C dt_s^2.

    Returns the larger of the two extrapolations per identity, times a
    safety factor, so the calibrated tolerance is an upper envelope of the
    pure finite-difference error of this configuration.
    """
    gaps = []
    for factor in (1, 2):
        params = StepParams(dt=dt / factor, t_final=window,
                            snapshot_stride=stride * factor)
        tr = collect_series(state0, params, smooth_weight, interaction_weight, center)
        dts = tr.dt_snapshot
        g1 = fd_gap_first(tr.times, tr.V, tr.Vdot).max() / dts ** 2
        g2 = fd_gap_second(tr.times, tr.V, tr.Vddot).max() / dts ** 2
        if interaction_weight is not None and tr.reports:
            I = np.array([r.I for r in tr.reports])
            Id = np.array([r.Idot for r in tr.reports])
            gi = fd_gap_first(tr.times, I, Id).max() / dts ** 2
            gii = np.abs((I[2:] - 2 * I[1:-1] + I[:-2]) / dts ** 2).max() / max(dts, 1.0)
        else:
            gi, gii = 0.0, 0.0
        gaps.append((g1, g2, gi, gii))
    pick = [float(safety * max(a, b)) for a, b in zip(*gaps)]
    return FdConstants(c_vdot=pick[0], c_vddot=pick[1], c_idot=pick[2], c_iddot=pick[3])


@dataclass
class IdentityCheckResult:
    dt_snapshot: float
    vdot_gap: float
    vdot_tol: float
    vdot_ok: bool
    vddot_gap: float
    vddot_tol: float
    vddot_ok: bool
    idot_gap: float | None
    idot_tol: float | None
    idot_ok: bool | None
    inequality_ok: bool | None
    integrated_ok: bool | None
    details: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        checks = [self.vdot_ok, self.vddot_ok]
        checks += [c for c in (self.idot_ok, self.inequality_ok, self.integrated_ok)
                   if c is not None]
        return all(checks)


def check_identities(series: TrajectorySeries, constants: FdConstants,
                     abs_floor_first: float = 1e-8,
                     abs_floor_second: float = 1e-6) -> IdentityCheckResult:
    """Assert dV/dt, d2V/dt2 and dI/dt identities at calibrated tolerances,
    plus the interaction convexity inequality in both forms."""
    dts = series.dt_snapshot
    vdot_gap = float(fd_gap_first(series.times, series.V, series.Vdot).max())
    vdot_tol = constants.c_vdot * dts ** 2 + abs_floor_first
    vddot_gap = float(fd_gap_second(series.times, series.V, series.Vddot).max())
    vddot_tol = constants.c_vddot * dts ** 2 + abs_floor_second

    idot_gap = idot_tol = idot_ok = ineq_ok = int_ok = None
    details = {}
    if series.reports:
        check = interaction_inequality_check(series.reports,
                                             fd_constant=constants.c_iddot)
        idot_gap = check.idot_fd_gap
        idot_tol = constants.c_idot * dts ** 2 + abs_floor_first
        idot_ok = idot_gap <= idot_tol
        ineq_ok = check.second_difference_ok
        int_ok = check.integrated_ok
        details["inequality"] = check
    return IdentityCheckResult(
        dt_snapshot=dts,
        vdot_gap=vdot_gap, vdot_tol=vdot_tol, vdot_ok=vdot_gap <= vdot_tol,
        vddot_gap=vddot_gap, vddot_tol=vddot_tol, vddot_ok=vddot_gap <= vddot_tol,
        idot_gap=idot_gap, idot_tol=idot_tol, idot_ok=idot_ok,
        inequality_ok=ineq_ok, integrated_ok=int_ok, details=details)
