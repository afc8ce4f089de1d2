"""Run configuration: flat typed key-value documents plus flag overrides.

Config files are flat JSON objects; command-line flags override file values.
Validation is aggregated: every violation is reported in one error.  The
effective merged configuration is echoed into the run summary so any run can
be reproduced from its artifacts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .initial_data import FAMILIES

EXPERIMENTS = ("simulate", "verify-identities", "scatter", "wave-op", "gn-check")
WEIGHTS = ("none", "quadratic", "absdistance", "erf")
_SCALAR_OR_LIST = (int, float, list)

# key -> (types accepted, default)
SCHEMA: dict[str, tuple[tuple, object]] = {
    "experiment": ((str,), "simulate"),
    "d": ((int,), 1),
    "grid_m": ((int,), 256),
    "box_l": ((int, float), 16.0),
    "n_components": ((int,), 1),
    "beta": ((int, float, list), 1.0),
    "p": ((int, float), 1.0),
    "family": ((str,), "gaussian"),
    "amplitude": (_SCALAR_OR_LIST, 1.0),
    "width": (_SCALAR_OR_LIST, 1.0),
    "center": (_SCALAR_OR_LIST, 0.0),
    "velocity": (_SCALAR_OR_LIST, 0.0),
    "chirp": (_SCALAR_OR_LIST, 0.0),
    "bump_amplitudes": ((list,), [1.0]),
    "bump_centers": ((list,), [0.0]),
    "bump_widths": ((list,), [1.0]),
    "bump_velocities": ((list,), [0.0]),
    "seed": ((int,), 0),
    "dt": ((int, float), 1e-3),
    "t_final": ((int, float), 1.0),
    "snapshot_stride": ((int,), 10),
    "dealias": ((bool,), False),
    "weight": ((str,), "quadratic"),
    "weight_eps": ((int, float), 0.5),
    "interaction_weight": ((str,), "absdistance"),
    "tol": ((int, float), 1e-6),
    "mass_drift_tol": ((int, float), 1e-10),
    "energy_drift_tol": ((int, float), 1e-6),
    "out_dir": ((str,), "."),
    "wave_t": ((int, float), 20.0),
    "wave_dt": ((int, float), 0.05),
    "wave_max_iter": ((int,), 30),
    "scatter_window": ((int,), 6),
    "gn_variant": ((str,), "main"),
    "gn_count": ((int,), 100),
    "gn_generator": ((str,), "band-limited"),
    "gn_alpha": ((int,), 1),
    "fd_calibration_t": ((int, float), 0.0),  # 0 = auto
}

ENV_OUT_DIR = "NLSKIT_OUT_DIR"


class ConfigError(ValueError):
    """Aggregated configuration problems, one per line."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.problems))


@dataclass
class RunConfig:
    experiment: str
    d: int
    grid_m: int
    box_l: float
    n_components: int
    beta: object
    p: float
    family: str
    amplitude: object
    width: object
    center: object
    velocity: object
    chirp: object
    bump_amplitudes: list
    bump_centers: list
    bump_widths: list
    bump_velocities: list
    seed: int
    dt: float
    t_final: float
    snapshot_stride: int
    dealias: bool
    weight: str
    weight_eps: float
    interaction_weight: str
    tol: float
    mass_drift_tol: float
    energy_drift_tol: float
    out_dir: str
    wave_t: float
    wave_dt: float
    wave_max_iter: int
    scatter_window: int
    gn_variant: str
    gn_count: int
    gn_generator: str
    gn_alpha: int
    fd_calibration_t: float

    def beta_matrix(self) -> np.ndarray:
        n = self.n_components
        if np.isscalar(self.beta):
            return float(self.beta) * np.eye(n)
        arr = np.asarray(self.beta, dtype=float)
        if arr.size == n:
            return np.diag(arr.reshape(n))
        if arr.size == n * n:
            return arr.reshape(n, n)
        raise ConfigError([f"beta must be a scalar, {n} diagonal entries, or "
                           f"{n * n} row-major entries; got {arr.size} values"])

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


def _coerce(key, value, problems):
    types, _ = SCHEMA[key]
    if bool in types:
        if isinstance(value, bool):
            return value
        problems.append(f"{key}: expected a boolean, got {value!r}")
        return value
    if isinstance(value, bool):  # bool is int in Python; reject for non-bool keys
        problems.append(f"{key}: expected {'/'.join(t.__name__ for t in types)}, got a boolean")
        return value
    if isinstance(value, types):
        if float in types and isinstance(value, int) and list not in types:
            return float(value)
        return value
    problems.append(f"{key}: expected {'/'.join(t.__name__ for t in types)}, "
                    f"got {type(value).__name__} {value!r}")
    return value


def parse_config(path: str | os.PathLike | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Load a flat JSON config, apply overrides, validate everything at once."""
    problems: list[str] = []
    merged = {k: default for k, (_, default) in SCHEMA.items()}
    if ENV_OUT_DIR in os.environ:
        merged["out_dir"] = os.environ[ENV_OUT_DIR]

    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path}"])
        except json.JSONDecodeError as e:
            raise ConfigError([f"config file is not valid JSON: {e}"])
        if not isinstance(doc, dict):
            raise ConfigError(["config file must contain a flat JSON object"])
        for key, value in doc.items():
            if key not in SCHEMA:
                problems.append(f"unknown key {key!r}")
                continue
            merged[key] = _coerce(key, value, problems)

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in SCHEMA:
            problems.append(f"unknown key {key!r}")
            continue
        merged[key] = _coerce(key, value, problems)

    _validate(merged, problems)
    if problems:
        raise ConfigError(problems)
    return RunConfig(**merged)


def _validate(c: dict, problems: list[str]):
    if c["experiment"] not in EXPERIMENTS:
        problems.append(f"experiment must be one of {EXPERIMENTS}, got {c['experiment']!r}")
    if c["d"] not in (1, 2, 3):
        problems.append(f"d must be 1, 2 or 3, got {c['d']}")
    if not (isinstance(c["grid_m"], int) and c["grid_m"] >= 8 and c["grid_m"] % 2 == 0):
        problems.append(f"grid_m must be an even integer >= 8, got {c['grid_m']}")
    if not (isinstance(c["box_l"], (int, float)) and c["box_l"] > 0):
        problems.append(f"box_l must be > 0, got {c['box_l']}")
    if not (isinstance(c["n_components"], int) and c["n_components"] >= 1):
        problems.append(f"n_components must be >= 1, got {c['n_components']}")
    if isinstance(c["p"], (int, float)) and not c["p"] > 0:
        problems.append(f"p must be > 0, got {c['p']}")
    if isinstance(c["dt"], (int, float)) and not c["dt"] > 0:
        problems.append(f"dt must be > 0, got {c['dt']}")
    if isinstance(c["t_final"], (int, float)) and c["t_final"] < 0:
        problems.append(f"t_final must be >= 0, got {c['t_final']}")
    if isinstance(c["snapshot_stride"], int) and c["snapshot_stride"] < 1:
        problems.append(f"snapshot_stride must be >= 1, got {c['snapshot_stride']}")
    if c["family"] not in FAMILIES:
        problems.append(f"family must be one of {FAMILIES}, got {c['family']!r}")
    if c["weight"] not in WEIGHTS:
        problems.append(f"weight must be one of {WEIGHTS}, got {c['weight']!r}")
    if c["interaction_weight"] not in ("none", "absdistance", "erf", "constant"):
        problems.append(f"interaction_weight must be none/absdistance/erf/constant, "
                        f"got {c['interaction_weight']!r}")
    if isinstance(c["weight_eps"], (int, float)) and c["weight_eps"] <= 0:
        problems.append(f"weight_eps must be > 0, got {c['weight_eps']}")
    if isinstance(c["wave_dt"], (int, float)) and c["wave_dt"] <= 0:
        problems.append(f"wave_dt must be > 0, got {c['wave_dt']}")
    if isinstance(c["wave_t"], (int, float)) and c["wave_t"] <= 0:
        problems.append(f"wave_t must be > 0, got {c['wave_t']}")
    if c["gn_variant"] not in ("main", "cubic"):
        problems.append(f"gn_variant must be main or cubic, got {c['gn_variant']!r}")
    if c["gn_generator"] not in ("band-limited", "bumps", "bump-trains"):
        problems.append(f"gn_generator must be band-limited/bumps/bump-trains, "
                        f"got {c['gn_generator']!r}")
    if isinstance(c["gn_count"], int) and c["gn_count"] < 1:
        problems.append(f"gn_count must be >= 1, got {c['gn_count']}")
    if isinstance(c["gn_alpha"], int) and c["gn_alpha"] < 1:
        problems.append(f"gn_alpha must be >= 1, got {c['gn_alpha']}")

    # cross-field rules (only when the pieces parsed cleanly)
    if not problems:
        n = c["n_components"]
        beta = c["beta"]
        if isinstance(beta, list):
            arr = np.asarray(beta, dtype=float)
            if arr.size not in (n, n * n):
                problems.append(f"beta must have {n} (diagonal) or {n * n} "
                                f"(row-major matrix) entries, got {arr.size}")
            else:
                mat = np.diag(arr) if arr.size == n else arr.reshape(n, n)
                if (mat < 0).any():
                    problems.append("beta entries must be nonnegative")
                if not np.array_equal(mat, mat.T):
                    problems.append("beta matrix must be symmetric")
                off = mat - np.diag(np.diag(mat))
                if (off != 0).any() and c["p"] < 1:
                    problems.append(f"off-diagonal coupling requires p >= 1, got p = {c['p']}")
        elif isinstance(beta, (int, float)) and beta < 0:
            problems.append("beta must be nonnegative")
        h = 2.0 * c["box_l"] / c["grid_m"]
        unit_ok = 2.0 * c["box_l"] >= 1.0 and abs(round(1.0 / h) * h - 1.0) <= 1e-9
        if c["experiment"] == "gn-check" and not unit_ok:
            problems.append(
                f"gn-check needs unit cubes on the grid: spacing h = {h} must "
                "divide 1 and the box must contain a unit cube")
        for key in ("amplitude", "width", "chirp"):
            v = c[key]
            if isinstance(v, list) and len(v) != n:
                problems.append(f"{key} list must have n_components = {n} entries, "
                                f"got {len(v)}")
