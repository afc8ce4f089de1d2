"""Command-line entry points.

Subcommands: simulate, verify-identities, scatter, wave-op, gn-check.
Flags mirror config-file keys and override them.  Exit codes: 0 when every
enabled invariant check passes, 1 on a named check/configuration failure
(wave-operator divergence included), 2 on a NaN abort.  Artifacts per run:
diagnostics.csv (17-significant-digit text), summary.json (config echo,
check outcomes, accumulator totals, wall time; written by every subcommand,
on a NaN abort too), and binary field files for scatter/wave-op profiles.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
import time
from dataclasses import fields
from pathlib import Path

from .config import CHOICES, SCHEMA, ConfigError, RunConfig, parse_config
from .diagnostics import DiagnosticsCollector, write_csv, write_summary, fmt17
from .evolve import NanAbortError, evolve
from .fieldio import write_fields
from .gn import corpus_sup_ratio
from .grid import GridSpec
from .initial_data import build_initial_state
from .morawetz import MorawetzWeight
from .scattering import (WaveOperatorDivergence, admissible_pair,
                         asymptotic_profile, wave_operator)
from .system import BOUNDARY_MASS_LIMIT, CouplingSpec, mass
from .verify import run_checks

EXIT_OK, EXIT_FAIL, EXIT_NAN = 0, 1, 2

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _pin_malloc() -> None:
    """Fix glibc's malloc thresholds for this process: blocks below its cap
    (4 MiB x sizeof(long), 32 MiB on 64-bit) come from the heap, and up to
    128 MiB free at the heap's top stays mapped.  Setting them turns off
    glibc's dynamic adjustment, under which a run's threads mapped and
    unmapped their scratch on every call and the heap was trimmed and
    regrown on every diagnostics call.  A no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, 4 * 2 ** 20 * ctypes.sizeof(ctypes.c_long))
    mallopt(M_TRIM_THRESHOLD, 128 * 2 ** 20)


def _comma_floats(text: str):
    vals = [float(v) for v in text.split(",") if v.strip() != ""]
    return vals[0] if len(vals) == 1 else vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlskit",
        description="Spectral simulator and diagnostics for weakly coupled "
                    "defocusing Schrodinger systems")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in CHOICES["experiment"]:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat JSON config file")
        # one flag per config key; the list-only keys come from a config file
        for f in fields(RunConfig):
            types = SCHEMA[f.name][0]
            if f.name == "experiment" or types == (list,):
                continue
            flag, doc = "--" + f.name.replace("_", "-"), f.metadata.get("help")
            if types == (bool,):
                sp.add_argument(flag, dest=f.name, help=doc,
                                action=argparse.BooleanOptionalAction)
            else:
                sp.add_argument(flag, dest=f.name, help=doc, choices=CHOICES.get(f.name),
                                type=_comma_floats if list in types else types[-1])
    return parser


def _coupling(cfg: RunConfig) -> CouplingSpec:
    return CouplingSpec(cfg.n_components, cfg.beta_matrix(), cfg.p, cfg.d)


def _setup(cfg: RunConfig):
    """Grid, coupling and initial state; a value the config accepted but
    these reject (say a center of the wrong length) is a ConfigError."""
    try:
        grid = GridSpec(cfg.d, cfg.grid_m, cfg.box_l)
        coupling = _coupling(cfg)
        state0 = build_initial_state(grid, coupling, cfg)
    except ValueError as err:
        raise ConfigError([str(err)]) from err
    return grid, coupling, state0


def _weight(name: str, cfg: RunConfig) -> MorawetzWeight | None:
    """The weight a `weight` or `interaction_weight` value names (the config
    allows the erf interaction weight in d = 1 only)."""
    return {"none": lambda: None, "quadratic": MorawetzWeight.quadratic,
            "absdistance": MorawetzWeight.abs_distance, "constant": MorawetzWeight.constant,
            "erf": lambda: MorawetzWeight.erf_smoothed(cfg.weight_eps)}[name]()


def _collector(cfg: RunConfig, coupling, grid, keep_states: int = 0) -> DiagnosticsCollector:
    pair = None
    if coupling.scattering_admissible:
        cand = admissible_pair(cfg.p, cfg.d)
        pair = cand if cand.admissible else None
    lq = tuple(dict.fromkeys((4.0, 2.0 * cfg.p + 2.0)))
    return DiagnosticsCollector(coupling, grid, weight=_weight(cfg.weight, cfg),
                                interaction=_weight(cfg.interaction_weight, cfg), lq_values=lq,
                                strichartz_pair=pair, keep_states=keep_states)


# Each runner writes its artifacts to the output directory and returns its
# summary fields and a failure message, empty when every check passed.
# main() adds the config echo and the wall time, writes summary.json and maps
# the outcome to the exit code.

def run_simulate(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    grid, coupling, state0 = _setup(cfg)
    collector = _collector(cfg, coupling, grid)
    final = evolve(state0, cfg.step_params(), collector)

    write_csv(collector.records, path=out / "diagnostics.csv")
    h1sq_T = sum(f.h1_norm() ** 2 for f in final.fields)
    first = collector.records[0]
    mass0 = sum(first[f"mass_{mu + 1}"] for mu in range(coupling.n))
    bound = mass0 + first["energy_total"]
    checks = {name: {"value": value, "tol": tol, "pass": value <= tol} for name, value, tol in (
        ("mass_drift", collector.mass_drift(), cfg.mass_drift_tol),
        ("energy_drift", collector.energy_drift(), cfg.energy_drift_tol),
        ("boundary_mass", float(collector.series("boundary_mass_fraction").max()),
         BOUNDARY_MASS_LIMIT),
        # H1 control: sum ||u(t)||_H1^2 <= sum ||u(0)||_L2^2 + E(0)
        ("h1_bound", h1sq_T, bound * (1.0 + 1e-6) + 1e-12))}
    summary = {"admissibility": coupling.classification(),
               "t_final": final.t,
               "rows": len(collector.records),
               "checks": checks,
               "accumulator_totals": (collector.accumulators.totals
                                      if collector.accumulators else {}),
               "strichartz": (collector.strichartz.value()
                              if collector.strichartz else None)}
    for name, c in checks.items():
        if not c["pass"]:
            return summary, (f"invariant check failed: {name} "
                             f"(value {c['value']:.3e}, tol {c['tol']:.3e})")
    return summary, ""


def run_verify_identities(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    grid, coupling, state0 = _setup(cfg)
    smooth = _weight("erf" if cfg.weight == "erf" else "quadratic", cfg)
    inter = _weight(cfg.interaction_weight, cfg)
    records, constants, checks = run_checks(state0, cfg.step_params(), cfg.fd_calibration_t,
                                            smooth, inter)
    write_csv(records, path=out / "diagnostics.csv")
    summary = {"admissibility": coupling.classification(),
               "fd_constants": constants,
               "checks": checks}
    for name, c in checks.items():
        if c["pass"] is False and name == "boundary_mass":
            return summary, (f"invariant check failed: {name} "
                             f"(value {c['value']:.3e}, tol {c['tol']:.3e})")
        if c["pass"] is False:
            return summary, f"identity check failed: {name}"
    return summary, ""


def run_scatter(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    grid, coupling, state0 = _setup(cfg)
    collector = _collector(cfg, coupling, grid, keep_states=cfg.scatter_window)
    evolve(state0, cfg.step_params(), collector)
    write_csv(collector.records, path=out / "diagnostics.csv")
    result = asymptotic_profile(collector.states, tol=cfg.tol)
    write_fields(out / "profile.nlsf", grid, result.profile)
    summary = {"admissibility": coupling.classification(),
               "residuals": [list(r) for r in result.residuals],
               "converged": result.converged,
               "mass_mismatch": result.mass_mismatch,
               "boundary_valid": bool(collector.series("boundary_mass_fraction").max()
                                      <= BOUNDARY_MASS_LIMIT),
               "message": result.message}
    if not result.converged:
        return summary, ("asymptotic profile did not converge: "
                         f"{result.message or 'residual above tol'}")
    return summary, ""


def run_wave_op(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    grid, coupling, profile_state = _setup(cfg)
    admissibility = coupling.classification()
    try:
        result = wave_operator(profile_state.fields, coupling, cfg.wave_t,
                               cfg.wave_dt, tol=cfg.tol,
                               max_iter=cfg.wave_max_iter)
    except WaveOperatorDivergence as err:
        return {"admissibility": admissibility,
                "converged": False,
                "residuals": err.residuals,
                "message": str(err)}, str(err)
    write_fields(out / "initial_data.nlsf", grid, result.state0.fields)
    masses = [mass(result.state0, mu) for mu in range(coupling.n)]
    summary = {"admissibility": admissibility,
               "converged": result.converged,
               "iterations": result.iterations,
               "residuals": list(result.residuals),
               "tail_estimate": result.tail_estimate,
               "initial_masses": masses,
               "message": result.message}
    if not result.converged:
        return summary, f"wave operator did not converge: {result.message}"
    return summary, ""


def run_gn_check(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    grid = GridSpec(cfg.d, cfg.grid_m, cfg.box_l)
    try:
        report = corpus_sup_ratio(grid, cfg.gn_alpha, cfg.gn_generator,
                                  cfg.gn_count, cfg.gn_variant, cfg.seed)
    except RuntimeError as err:
        write_summary({"config": cfg.to_dict(), "error": str(err)},
                      out / "gn_report.json")
        return {"error": str(err)}, f"gn-check failed: {err}"
    # out_dir is path-dependent and excluded so same-seed reports are
    # byte-identical
    cfg_echo = {k: v for k, v in cfg.to_dict().items() if k != "out_dir"}
    doc = {"config": cfg_echo,
           "variant": report.variant,
           "generator": report.generator,
           "count": report.count,
           "seed": report.seed,
           "sup_ratio": fmt17(report.sup_ratio),
           "median_ratio": fmt17(report.median_ratio),
           "ratios": [fmt17(v) for v in report.ratios]}
    write_summary(doc, out / "gn_report.json")
    return {"sup_ratio": report.sup_ratio, "median_ratio": report.median_ratio}, ""


_RUNNERS = {
    "simulate": run_simulate,
    "verify-identities": run_verify_identities,
    "scatter": run_scatter,
    "wave-op": run_wave_op,
    "gn-check": run_gn_check,
}


def main(argv=None) -> int:
    _pin_malloc()  # before anything large is allocated
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("config", "experiment") and v is not None}
    overrides["experiment"] = args.experiment
    started = time.time()
    try:
        cfg = parse_config(args.config, overrides)
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError([f"out_dir: cannot create directory {out}: "
                               f"{err.strerror or err}"]) from err
        summary, failure = _RUNNERS[cfg.experiment](cfg, out)
        code = EXIT_FAIL if failure else EXIT_OK
    except ConfigError as err:
        print(f"nlskit: {err}", file=sys.stderr)
        return EXIT_FAIL
    except NanAbortError as err:
        summary = {"admissibility": _coupling(cfg).classification(),
                   "aborted": f"non-finite values at t = {err.t}"}
        failure, code = f"NaN abort at t = {err.t}", EXIT_NAN
    write_summary({"config": cfg.to_dict(), **summary,
                   # excluded from determinism comparisons
                   "wall_time_s": time.time() - started}, out / "summary.json")
    if failure:
        print(f"nlskit: {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
