"""The four CLI workloads, their seeded inputs and their output checks.

Grid, step count and tolerances are fixed per workload.  The seed picks one
of the ``N_SETS`` recorded input sets (``seed % N_SETS``); each set draws the
amplitudes, widths and velocities within +-10% of the centre values, so the
reference outputs recorded for every set can be checked on every run.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
N_SETS = 16               # input sets per workload in the reference


@dataclass(frozen=True)
class Workload:
    name: str
    fixed: tuple[str, ...]
    drawn: tuple[tuple[str, tuple[float, ...]], ...]   # flag -> centre values

    @property
    def experiment(self) -> str:
        return self.fixed[0]

    def cli_args(self, index: int) -> list[str]:
        """The CLI arguments of input set ``index``."""
        rng = random.Random(f"{self.name}:{index}")
        out = list(self.fixed)
        for flag, centres in self.drawn:
            vals = [round(c * rng.uniform(0.9, 1.1), 6) for c in centres]
            out += [flag, ",".join(repr(v) for v in vals)]
        return out


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        "sim-d3-sink",
        ("simulate", "--d", "3", "--n-components", "2", "--p", "1",
         "--beta", "1,0.5,0.5,1", "--grid-m", "48", "--box-l", "12",
         "--dt", "0.005", "--t-final", "0.5", "--snapshot-stride", "10"),
        (("--amplitude", (0.5, 0.4)), ("--width", (1.5,)))),
    Workload(
        "sim-d1-stepper",
        ("simulate", "--d", "1", "--n-components", "2", "--p", "2",
         "--beta", "1,0.5,0.5,1", "--grid-m", "8192", "--box-l", "512",
         "--dt", "2e-3", "--t-final", "10", "--snapshot-stride", "100"),
        (("--amplitude", (0.4, 0.3)), ("--width", (5.0,)), ("--velocity", (0.05,)))),
    Workload(
        "verify-d2",
        ("verify-identities", "--d", "2", "--p", "1", "--grid-m", "128",
         "--box-l", "12", "--dt", "0.01", "--t-final", "1.0",
         "--snapshot-stride", "5"),
        (("--amplitude", (0.6,)),)),
    Workload(
        "waveop-d2",
        ("wave-op", "--d", "2", "--n-components", "2", "--beta", "1,0.5,0.5,1",
         "--p", "1", "--grid-m", "128", "--box-l", "24", "--wave-t", "10",
         "--wave-dt", "0.05", "--tol", "1e-10"),
        (("--amplitude", (0.3, 0.2)),)),
)}

# final-row diagnostics.csv columns compared against the reference
_FINAL_ROW = {
    "simulate": ("mass_1", "mass_2", "energy_total", "I"),
    "verify-identities": ("V", "I", "N_term", "rhs_lower"),
}


def _final_row(out_dir: Path) -> dict[str, str]:
    with open(out_dir / "diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError("diagnostics.csv has no rows")
    return rows[-1]


def summary_problems(experiment: str, summary: dict) -> list[str]:
    """Failed checks recorded in summary.json."""
    if experiment == "wave-op":
        return [] if summary.get("converged") is True else ["wave operator did not converge"]
    checks = summary.get("checks")
    if not checks:
        return ["summary.json has no checks"]
    return [f"check {k} failed" for k, c in sorted(checks.items()) if c.get("pass") is not True]


def key_numbers(experiment: str, out_dir: Path) -> dict[str, float]:
    """The numbers compared against the reference for one finished run."""
    summary = json.loads((out_dir / "summary.json").read_text())
    if experiment == "wave-op":
        out = {f"initial_mass_{i + 1}": float(v)
               for i, v in enumerate(summary["initial_masses"])}
        out["first_residual"] = float(summary["residuals"][0])
        out["last_residual"] = float(summary["residuals"][-1])
        return out
    row = _final_row(out_dir)
    out = {k: float(row[k]) for k in _FINAL_ROW[experiment]}
    if experiment == "simulate":
        for k, v in sorted(summary["accumulator_totals"].items()):
            out[f"acc_{k}"] = float(v)
    return out


def compare(values: dict[str, float], reference: dict[str, float],
            rtol: float) -> list[str]:
    """Mismatches of ``values`` against ``reference``.

    A value matches when |value - ref| <= rtol * |ref|.  The wave operator's
    last residual is a converged fixed-point increment that rounding changes
    relative to itself by far more than rtol, so its scale is the first
    residual instead.
    """
    problems = []
    for key, ref in sorted(reference.items()):
        if key not in values:
            problems.append(f"{key} missing")
            continue
        scale = abs(reference["first_residual"] if key == "last_residual" else ref)
        if not abs(values[key] - ref) <= rtol * scale:
            problems.append(f"{key} = {values[key]!r}, reference {ref!r}")
    return problems


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def check_outputs(workload: Workload, index: int, out_dir: Path,
                  reference: dict) -> list[str]:
    """Every reason the run in ``out_dir`` counts as failed; empty if it passed."""
    sets = reference["workloads"][workload.name]
    entry = sets[index]
    if entry["args"] != workload.cli_args(index):
        return [f"reference input set {index} was recorded for other arguments"]
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        problems = summary_problems(workload.experiment, summary)
        values = key_numbers(workload.experiment, out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return [f"unreadable outputs: {err!r}"]
    return problems + compare(values, entry["values"], reference["rtol"])
