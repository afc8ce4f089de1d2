"""Diagnostics records, the evolution sink, and serialized outputs.

One record per snapshot: time, per-component masses, energy split, selected
L^q norms, cube-localized mass (when unit cubes fit the grid), virial and
interaction quantities, running space-time accumulator totals, the
Strichartz accumulator, and the boundary-mass monitor; the columns share the
pieces of one system.Snapshot.  Numbers are serialized with 17 significant
digits so identical configurations reproduce byte-identical CSV files.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import numpy as np

from .grid import GridSpec
from .morawetz import (MorawetzWeight, SpacetimeAccumulators, interaction_report,
                       virial_V, virial_Vddot, virial_Vdot)
from .scattering import StrichartzAccumulator
from .system import (Snapshot, SystemState, boundary_mass_fraction, energy, lq_norm, mass,
                     sup_cube_mass)


def fmt17(x: float) -> str:
    return f"{x:.17g}"


class DiagnosticsCollector:
    """Evolution sink: builds one record per snapshot and owns the running
    accumulators.  Records are plain dicts; their keys, in order, are the CSV header."""

    def __init__(self, coupling, grid: GridSpec, *, weight: MorawetzWeight | None = None,
                 vddot: bool = False, interaction: MorawetzWeight | None = None,
                 lq_values: tuple[float, ...] = (4.0,), accumulators: bool = True,
                 strichartz_pair=None, keep_states: int = 0):
        """Columns past the always-on ones: V and Vdot with a virial weight
        (Vddot too with vddot, smooth weights only), I, Idot, N_term and
        rhs_lower with an interaction weight, an L^q total per lq_values
        entry, the accumulator totals and the Strichartz norm of
        strichartz_pair; the last keep_states states stay in states."""
        self.coupling = coupling
        self.weight, self.vddot, self.interaction = weight, vddot, interaction
        self.lq_values = lq_values
        self.records: list[dict] = []
        self.reports = []            # InteractionReport per snapshot
        self.states: deque[SystemState] = deque(maxlen=keep_states)
        self.cube_mass = not grid.unit_cube_problem()
        self.accumulators = SpacetimeAccumulators(coupling) if accumulators else None
        self.strichartz = (StrichartzAccumulator(strichartz_pair)
                           if strichartz_pair is not None else None)

    def __call__(self, state: SystemState):
        snap = Snapshot(state)  # pieces shared by this snapshot's observables
        rec: dict[str, float] = {"t": state.t}
        for mu in range(self.coupling.n):
            rec[f"mass_{mu + 1}"] = mass(snap, mu)
        e = energy(snap)
        rec["kinetic"], rec["potential"], rec["energy_total"] = e.kinetic, e.potential, e.total
        for q in self.lq_values:
            rec[f"l{q:g}_total"] = lq_norm(state, q)
        if self.cube_mass:
            rec["sup_cube_mass"] = sup_cube_mass(snap)
        if self.weight is not None:
            rec["V"] = virial_V(snap, self.weight)
            rec["Vdot"] = virial_Vdot(snap, self.weight)
            if self.vddot:
                rec["Vddot"] = virial_Vddot(snap, self.weight).total
        if self.interaction is not None:
            rep = interaction_report(snap, self.interaction)
            self.reports.append(rep)
            rec["I"], rec["Idot"] = rep.I, rep.Idot
            rec["N_term"], rec["rhs_lower"] = rep.N_term, rep.rhs_lower
        if self.accumulators is not None:
            self.accumulators.update(snap)
            for name in self.accumulators.names:
                rec[f"acc_{name}"] = self.accumulators.totals[name]
        if self.strichartz is not None:
            self.strichartz.update(snap)
            rec["strichartz"] = self.strichartz.value()
        rec["boundary_mass_fraction"] = boundary_mass_fraction(snap)
        self.records.append(rec)
        self.states.append(state)

    def series(self, column: str) -> np.ndarray:
        return np.array([rec[column] for rec in self.records])

    def mass_drift(self) -> float:
        """Max relative per-component mass drift across the run."""
        worst = 0.0
        for mu in range(self.coupling.n):
            s = self.series(f"mass_{mu + 1}")
            if s[0] > 0:
                worst = max(worst, float(np.abs(s - s[0]).max() / s[0]))
        return worst

    def energy_drift(self) -> float:
        s = self.series("energy_total")
        scale = abs(s[0]) if s[0] != 0 else 1.0
        return float(np.abs(s - s[0]).max() / scale)


def write_csv(records: list[dict], path) -> None:
    """One line per record under the first record's keys (evolve calls the
    sink at step 0, so a run has one).  Callers name path=, which
    perfbench/tracing.py reads to count the bytes written."""
    lines = [",".join(records[0])]
    for rec in records:
        lines.append(",".join(fmt17(float(v)) for v in rec.values()))
    Path(path).write_text("\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_summary(summary: dict, path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True,
                                     default=_json_default) + "\n")
