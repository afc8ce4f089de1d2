"""Initial-data families for simulation runs.

Families (per component; scalars broadcast across components):

  gaussian             A exp(-|x-c|^2 / (2 w^2)) exp(i v.(x-c)) exp(-i chirp |x-c|^2)
  multi-bump           sum of Gaussian bumps (shared train, scaled per component)
  plane-modulated      A exp(i k.x) with k snapped to the nearest grid mode
  random-band-limited  seeded random spectrum with Gaussian envelope of
                       k-space width `width`, scaled to peak amplitude A

A positive chirp focuses the packet near t = chirp / (4 (chirp^2 + 1/(4 w^4)))
before it disperses ballistically, which is how strong transient L^q decay
windows are produced.

build_initial_state reads the initial-data keys of a RunConfig (family,
amplitude, width, center, velocity, chirp, bump_* and seed) by attribute.
All randomness derives from the run seed through SeedSequence spawning in
component order.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec, ScalarField, transform
from .system import CouplingSpec, SystemState

FAMILIES = ("gaussian", "multi-bump", "plane-modulated", "random-band-limited")


def _per_component(value, n: int, name: str):
    """Broadcast a scalar to n components or validate a length-n list."""
    if np.isscalar(value):
        return [value] * n
    value = list(value)
    if len(value) != n:
        raise ValueError(f"{name} must be a scalar or a list of length {n}, "
                         f"got length {len(value)}")
    return value


def _per_component_vector(value, n: int, d: int, name: str):
    """Broadcast to n vectors of length d (scalar or one-element list,
    d-vector, or n x d)."""
    arr = np.asarray(value, dtype=float)
    if arr.shape in ((), (1,)):
        return [np.full(d, arr.item()) for _ in range(n)]
    if arr.shape == (d,):
        return [arr.copy() for _ in range(n)]
    if arr.shape == (n, d):
        return [arr[i].copy() for i in range(n)]
    if d == 1 and arr.shape == (n,):
        return [np.array([v]) for v in arr]
    raise ValueError(f"{name} must be a scalar, a {d}-vector, or {n} x {d}")


def _gaussian_component(grid: GridSpec, amp, width, center, velocity, chirp) -> np.ndarray:
    sq = sum((x - c) ** 2 for x, c in zip(grid.x_mesh, center))
    phase = sum(v * (x - c) for v, x, c in zip(velocity, grid.x_mesh, center))
    return amp * np.exp(-sq / (2.0 * width ** 2)) * np.exp(1j * (phase - chirp * sq))


def _snap_wavenumber(grid: GridSpec, k: np.ndarray) -> np.ndarray:
    base = math.pi / grid.l
    j = np.rint(k / base)
    half = grid.m // 2
    j = np.clip(j, -half, half - 1)
    return base * j


def build_initial_state(grid: GridSpec, coupling: CouplingSpec, cfg) -> SystemState:
    """The t = 0 state from the initial-data keys of cfg, a RunConfig;
    ValueError for an unknown family or a value of the wrong shape."""
    if cfg.family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {cfg.family!r}")
    n, d = coupling.n, grid.d
    amps = _per_component(cfg.amplitude, n, "amplitude")
    widths = _per_component(cfg.width, n, "width")
    centers = _per_component_vector(cfg.center, n, d, "center")
    velocities = _per_component_vector(cfg.velocity, n, d, "velocity")
    chirps = _per_component(cfg.chirp, n, "chirp")
    fields = []

    if cfg.family == "gaussian":
        for mu in range(n):
            vals = _gaussian_component(grid, amps[mu], widths[mu], centers[mu],
                                       velocities[mu], chirps[mu])
            fields.append(ScalarField(vals, grid))

    elif cfg.family == "multi-bump":
        nb = len(cfg.bump_amplitudes)
        b_centers = _per_component_vector(list(cfg.bump_centers), nb, d, "bump_centers")
        b_vels = _per_component_vector(list(cfg.bump_velocities), nb, d, "bump_velocities")
        b_widths = _per_component(list(cfg.bump_widths), nb, "bump_widths")
        for mu in range(n):
            vals = np.zeros(grid.shape, dtype=complex)
            for b in range(nb):
                vals += _gaussian_component(grid, cfg.bump_amplitudes[b], b_widths[b],
                                            b_centers[b], b_vels[b], 0.0)
            fields.append(ScalarField(amps[mu] * vals, grid))

    elif cfg.family == "plane-modulated":
        for mu in range(n):
            k = _snap_wavenumber(grid, velocities[mu])
            phase = sum(kk * x for kk, x in zip(k, grid.x_mesh))
            fields.append(ScalarField(amps[mu] * np.exp(1j * phase), grid))

    else:  # random-band-limited
        children = np.random.SeedSequence(cfg.seed).spawn(n)
        for mu in range(n):
            rng = np.random.default_rng(children[mu])
            kappa = max(float(widths[mu]), 1e-6)
            env = np.exp(-grid.k_squared / (kappa ** 2))
            coef = (rng.standard_normal(grid.shape)
                    + 1j * rng.standard_normal(grid.shape)) * env
            vals = transform(grid, coef, inverse=True)
            peak = np.abs(vals).max()
            if peak > 0:
                vals *= amps[mu] / peak
            fields.append(ScalarField(vals, grid))

    return SystemState(0.0, tuple(fields), coupling)
