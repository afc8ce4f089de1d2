"""Run configuration: flat typed key-value documents plus flag overrides.

Config files are flat JSON objects; command-line flags override file values.
Validation is aggregated: every violation is reported in one error.  The
effective merged configuration is echoed into the run summary so any run can
be reproduced from its artifacts.

The annotated, defaulted fields of RunConfig are the only declaration of a
key: SCHEMA and the command-line flags are derived from them, and CHOICES
holds the allowed values of the keys that take a name.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields as dc_fields
from decimal import Decimal
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .evolve import StepParams
from .gn import GENERATORS, VARIANTS
from .grid import GridSpec
from .initial_data import FAMILIES
from .scattering import node_count

CHOICES: dict[str, tuple[str, ...]] = {
    "experiment": ("simulate", "verify-identities", "scatter", "wave-op", "gn-check"),
    "family": FAMILIES,
    "weight": ("none", "quadratic", "absdistance", "erf"),
    "interaction_weight": ("none", "absdistance", "erf", "constant"),
    "gn_variant": VARIANTS,
    "gn_generator": GENERATORS,
}

ENV_OUT_DIR = "NLSKIT_OUT_DIR"

# bytes the diagnostics sink keeps per snapshot, at least: tracemalloc (CPython 3.11) gave 552
# (verify-identities, d = 1, N = 1, no interaction weight) to 1428 (simulate, defaults)
SNAPSHOT_BYTES = 512
# bytes gn-check keeps per corpus sample, at least: tracemalloc (CPython 3.11) gave a run peak
# rising by 196 to 198 bytes a sample from 16000 to 32000 samples (ratio slot, report line)
GN_SAMPLE_BYTES = 192


class ConfigError(ValueError):
    """Aggregated configuration problems, one per line."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.problems))


@dataclass
class RunConfig:
    experiment: str = "simulate"
    d: int = 1
    grid_m: int = 256
    box_l: float = 16.0
    n_components: int = 1
    beta: float | list = field(default=1.0, metadata={
        "help": "scalar, N diagonal entries, or N*N row-major"})
    p: float = 1.0
    family: str = "gaussian"
    amplitude: float | list = 1.0
    width: float | list = 1.0
    center: float | list = 0.0
    velocity: float | list = 0.0
    chirp: float | list = 0.0
    bump_amplitudes: list = field(default_factory=lambda: [1.0])
    bump_centers: list = field(default_factory=lambda: [0.0])
    bump_widths: list = field(default_factory=lambda: [1.0])
    bump_velocities: list = field(default_factory=lambda: [0.0])
    seed: int = 0
    dt: float = 1e-3
    t_final: float = 1.0
    snapshot_stride: int = 10
    dealias: bool = False
    weight: str = "quadratic"
    weight_eps: float = 0.5
    interaction_weight: str = "absdistance"
    tol: float = 1e-6
    mass_drift_tol: float = 1e-10
    energy_drift_tol: float = 1e-6
    out_dir: str = "."
    wave_t: float = 20.0
    wave_dt: float = 0.05
    wave_max_iter: int = 30
    scatter_window: int = 6
    gn_variant: str = "main"
    gn_count: int = 100
    gn_generator: str = "band-limited"
    gn_alpha: int = 1
    fd_calibration_t: float = 0.0  # 0 = auto

    def beta_matrix(self) -> np.ndarray:
        """The N x N coupling matrix; ValueError unless beta is a scalar, N
        diagonal entries or N*N row-major entries."""
        n = self.n_components
        if np.isscalar(self.beta):
            return float(self.beta) * np.eye(n)
        arr = np.asarray(self.beta, dtype=float)
        if arr.size == n:
            return np.diag(arr.reshape(n))
        if arr.size == n * n:
            return arr.reshape(n, n)
        raise ValueError(f"beta must be a scalar, {n} diagonal entries, or "
                         f"{n * n} row-major entries; got {arr.size} values")

    def step_params(self, t_final: float | None = None) -> StepParams:
        """The stepping of this run, over t_final (default: the run's)."""
        return StepParams(dt=self.dt, t_final=self.t_final if t_final is None else t_final,
                          snapshot_stride=self.snapshot_stride, dealias=self.dealias)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


# the JSON values a field of each annotated type accepts (an int is a float)
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,), list: (list,)}

# key -> (types accepted, default)
_HINTS = get_type_hints(RunConfig)
SCHEMA: dict[str, tuple[tuple, object]] = {
    key: (tuple(t for a in get_args(_HINTS[key]) or (_HINTS[key],) for t in _ACCEPTS[a]),
          default)
    for key, default in RunConfig().to_dict().items()}


def parse_config(path: str | os.PathLike | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Load a flat JSON config, apply overrides, validate everything at once."""
    problems: list[str] = []
    merged = RunConfig().to_dict()
    if ENV_OUT_DIR in os.environ:
        merged["out_dir"] = os.environ[ENV_OUT_DIR]

    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path}"])
        except ValueError as e:  # a JSONDecodeError, or an int of too many digits to read
            raise ConfigError([f"config file is not valid JSON: {e}"])
        if not isinstance(doc, dict):
            raise ConfigError(["config file must contain a flat JSON object"])

    flags = [(k, v) for k, v in (overrides or {}).items() if v is not None]
    for key, value in [*doc.items(), *flags]:
        if key not in SCHEMA:
            problems.append(f"unknown key {key!r}")
            continue
        types = SCHEMA[key][0]
        # bool is int in Python: accept it for the bool keys only
        if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
            problems.append(f"{key}: expected {'/'.join(t.__name__ for t in types)}, "
                            f"got {type(value).__name__} {value!r}")
        elif isinstance(value, list) and not _numbers(value):
            problems.append(f"{key}: expected a list of numbers, got {value!r}")
        elif types != (int,) and (big := [v for v in _entries(value) if _past_float_range(v)]):
            problems.append(f"{key}: expected numbers within the float range, "
                            f"got the integer {_g3(big[0])}")
        else:
            merged[key] = float(value) if types == (int, float) else value

    _validate(merged, problems)
    if problems:
        raise ConfigError(problems)
    return RunConfig(**merged)


def _entries(value) -> list:
    """value itself, or every entry of it, in nested lists too."""
    if not isinstance(value, list):
        return [value]
    return [e for v in value for e in _entries(v)]


def _numbers(values: list) -> bool:
    """Whether every entry, in nested lists too, is an int or a float (not a bool)."""
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in _entries(values))


def _past_float_range(value) -> bool:
    """Whether value is an int too large for any float."""
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return True
    return False


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _g3(num: int, den: int = 1) -> str:
    """num / den as f"{x:.3g}" writes a float x, also past the float range
    (a size of any number of digits is refused, not an OverflowError)."""
    try:
        return f"{num / den:.3g}"
    except OverflowError:
        mantissa, exponent = f"{Decimal(num) / den:.2e}".split("e")
        return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"


def _validate(c: dict, problems: list[str]):
    """Range and cross-field rules; every value has its declared type here
    (a value of another type was reported and left at its default)."""
    def need(key, ok, rule):
        if not ok:
            problems.append(f"{key} must be {rule}, got {c[key]!r}")

    for key, allowed in CHOICES.items():
        need(key, c[key] in allowed, f"one of {allowed}")
    need("d", c["d"] in (1, 2, 3), "1, 2 or 3")
    need("grid_m", c["grid_m"] >= 8 and c["grid_m"] % 2 == 0, "an even integer >= 8")
    need("box_l", 0 < c["box_l"] < math.inf, "> 0 and finite")
    need("n_components", c["n_components"] >= 1, ">= 1")
    need("p", c["p"] > 0, "> 0")
    need("dt", 0 < c["dt"] < math.inf, "> 0 and finite")
    need("t_final", 0 <= c["t_final"] < math.inf, ">= 0 and finite")
    need("fd_calibration_t", 0 <= c["fd_calibration_t"] < math.inf, ">= 0 and finite")
    need("snapshot_stride", c["snapshot_stride"] >= 1, ">= 1")
    need("weight_eps", 0 < c["weight_eps"] < math.inf, "> 0 and finite")
    need("wave_dt", c["wave_dt"] > 0, "> 0")
    need("wave_t", 0 < c["wave_t"] < math.inf, "> 0 and finite")
    need("wave_max_iter", c["wave_max_iter"] >= 1, ">= 1")
    need("scatter_window", c["scatter_window"] >= 2, ">= 2")
    need("gn_count", c["gn_count"] >= 1, ">= 1")
    need("gn_alpha", c["gn_alpha"] >= 1, ">= 1")
    need("tol", c["tol"] > 0, "> 0")
    need("mass_drift_tol", c["mass_drift_tol"] >= 0, ">= 0")
    need("energy_drift_tol", c["energy_drift_tol"] >= 0, ">= 0")

    # cross-field rules (only when the pieces parsed cleanly)
    if problems:
        return
    for key, step in (("t_final", "dt"), ("fd_calibration_t", "dt"), ("wave_t", "wave_dt")):
        need(key, math.isfinite(c[key] / c[step]), f"finite in steps of {step} = {c[step]!r}")
    need("interaction_weight", c["interaction_weight"] != "erf" or c["d"] == 1,
         f"one of {tuple(w for w in CHOICES['interaction_weight'] if w != 'erf')} in d = {c['d']}")
    if problems:
        return
    cfg = RunConfig(**c)
    n, points = cfg.n_components, cfg.grid_m ** cfg.d
    # what the run holds at once, at least: (what, count, item, bytes each,
    # remedy); a row above physical memory is refused before anything of its
    # size is allocated, the coupling matrix below included
    table = [("coupling matrix", n * n, "entries", 8, "lower n_components")]
    if cfg.experiment == "gn-check":
        misfit = GridSpec(cfg.d, cfg.grid_m, cfg.box_l).unit_cube_problem()
        if misfit:
            problems.append(f"gn-check needs unit cubes on the grid: {misfit}")
        # a sample holds its gn_alpha fields at once; the corpus keeps a ratio
        # slot and a report line per sample
        table += [("sample fields", cfg.gn_alpha * points, "complex values", 16,
                   "lower gn_alpha or grid_m"),
                  ("per-sample records", cfg.gn_count, "samples", GN_SAMPLE_BYTES,
                   "lower gn_count")]
    else:
        table.append(("fields", n * points, "complex values", 16,
                      "lower n_components or grid_m"))
    if cfg.experiment == "wave-op":
        # the wave operator holds one complex n_nodes x N x M^d node buffer,
        # and its quadrature needs a step between two nodes
        n_nodes = node_count(cfg.wave_t, cfg.wave_dt)
        if n_nodes < 2:
            problems.append(f"wave-op needs at least 2 time nodes: wave_t = {cfg.wave_t} "
                            f"gives {n_nodes} at wave_dt = {cfg.wave_dt}")
        table.append(("node buffer", n_nodes, "nodes", n * points * 16,
                      "shorten wave_t, lengthen wave_dt or lower grid_m"))
    elif cfg.experiment != "gn-check":
        # the sink keeps a record per snapshot; verify-identities' dt run covers both horizons
        key = "t_final"
        if cfg.experiment == "verify-identities" and cfg.fd_calibration_t > cfg.t_final:
            key = "fd_calibration_t"
        table.append(("diagnostics records", cfg.step_params(c[key]).n_snapshots, "snapshots",
                      SNAPSHOT_BYTES, f"shorten {key}, lengthen dt or raise snapshot_stride"))
        # the sink pairs kernels with the |x| and erf interaction weights, and
        # with the accumulators of simulate and scatter in d = 2, 3; its padded
        # stage then holds two padded half-spectra at once (system.Snapshot:
        # rho_hat and the m_mu's half-spectrum being summed into it)
        if cfg.interaction_weight in ("absdistance", "erf") or (
                cfg.experiment != "verify-identities" and cfg.d > 1):
            m = cfg.grid_m
            table.append(("padded half-spectra", 2 * (2 * m) ** (cfg.d - 1) * (m + 1),
                          "complex values", 16, "lower grid_m"))
    memory = _physical_memory()
    for what, count, item, each, remedy in table:
        if count * each > memory:
            problems.append(f"{cfg.experiment} needs at least {_g3(count * each, 2 ** 20)} MiB "
                            f"of {what} ({_g3(count)} {item} x {each} bytes), more than the "
                            f"{memory / 2 ** 20:.1f} MiB of physical memory: {remedy}")
    if problems:
        return
    try:
        mat = cfg.beta_matrix()
    except ValueError as err:
        problems.append(str(err))
    else:
        if (mat < 0).any():
            problems.append("beta entries must be nonnegative")
        if not np.array_equal(mat, mat.T):
            problems.append("beta matrix must be symmetric")
        if (mat != np.diag(np.diag(mat))).any() and cfg.p < 1:
            problems.append(f"off-diagonal coupling requires p >= 1, got p = {cfg.p}")
    minimum = {}
    if cfg.experiment in ("simulate", "scatter"):
        # scatter's Cauchy test compares consecutive snapshots, and simulate's
        # drift and boundary checks compare the snapshots with t = 0
        minimum["t_final"] = (2, "")
    if cfg.experiment == "verify-identities":
        # the finite differences of the checks need an interior snapshot, and
        # a calibration window (fd_calibration_t, or t_final when it is 0) of
        # 3 snapshots fits its dt^2 constants from too few gaps to bound them
        minimum["t_final"] = (3, "")
        minimum["fd_calibration_t" if cfg.fd_calibration_t else "t_final"] = (
            4, " in its calibration window")
    for key, (least, what) in minimum.items():
        count = cfg.step_params(c[key]).n_snapshots
        if count < least:
            problems.append(
                f"{cfg.experiment} needs at least {least} snapshots{what}: "
                f"{key} = {c[key]} gives {count} at dt = {cfg.dt}, "
                f"snapshot_stride = {cfg.snapshot_stride}")
    for key in ("amplitude", "width", "chirp"):
        v = c[key]
        if isinstance(v, list) and len(v) != n:
            problems.append(f"{key} list must have n_components = {n} entries, "
                            f"got {len(v)}")
