"""Time evolution by Strang splitting with exact substeps.

Both substeps are exact flows:

  * linear: each spectral coefficient is multiplied by exp(-i |k|^2 tau),
    the free Schrodinger group (unitary, mass preserved to rounding);
  * nonlinear: with g_mu = sum_nu beta[mu,nu] |u_nu|^{p+1} |u_mu|^{p-1},
    each field picks up the phase exp(-i tau g_mu).  The moduli |u_mu| are
    constant along this flow, so the substep is exact and preserves every
    pointwise modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .system import CouplingSpec, SystemState, state_from_arrays


class NanAbortError(RuntimeError):
    """Evolution produced a non-finite field value."""

    def __init__(self, t: float):
        super().__init__(f"non-finite field values detected at t = {t}")
        self.t = t


@dataclass(frozen=True)
class StepParams:
    """Time step, final time, diagnostics cadence, optional 2/3-rule dealiasing."""

    dt: float
    t_final: float
    snapshot_stride: int = 1
    dealias: bool = False

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < 0:
            raise ValueError(f"t_final must be >= 0, got {self.t_final}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.t_final / self.dt + 1e-9))

    @property
    def n_snapshots(self) -> int:
        """Sink calls of a finite evolve: step 0 and every whole stride block."""
        return self.n_steps // self.snapshot_stride + 1


MIN_MODULUS = 1e-300  # below this, |u|^{p-1} for p < 1 is defined as zero


def _nonlinear_exponents(arrays: list[np.ndarray], coupling: CouplingSpec,
                         t: float) -> list[np.ndarray]:
    """g_mu = sum_nu beta[mu,nu] |u_nu|^{p+1} |u_mu|^{p-1}; the p < 1 case
    (decoupled mode only) sets g_mu = 0 wherever |u_mu| vanishes, where the
    product g_mu u_mu is zero anyway.  A non-finite exponent raises
    NanAbortError at t, the time of the step being taken; the overflow that
    produced it is that error, not a RuntimeWarning.

    The sum over nu does not depend on how the components are labelled: the
    cross terms are added first (two floats add commutatively; three or more
    are sorted pointwise), then the self term.  Relabelling the components
    and beta together therefore relabels g_mu bit for bit."""
    p = coupling.p
    with np.errstate(over="ignore", invalid="ignore"):
        mods = [np.abs(a) for a in arrays]
        pow_p1 = [m ** (p + 1.0) for m in mods]
        out = []
        for mu in range(coupling.n):
            cross = [coupling.beta[mu, nu] * pow_p1[nu] for nu in range(coupling.n)
                     if nu != mu and coupling.beta[mu, nu] != 0.0]
            if len(cross) > 2:
                cross = np.sort(np.stack(cross), axis=0)
            s = np.zeros(arrays[mu].shape)
            for term in cross:
                s += term
            b = coupling.beta[mu, mu]
            if b != 0.0:
                s += b * pow_p1[mu]
            if p == 1.0:
                fac = 1.0
            elif p > 1.0:
                fac = mods[mu] ** (p - 1.0)
            else:
                safe = np.where(mods[mu] > MIN_MODULUS, mods[mu], 1.0)
                fac = np.where(mods[mu] > MIN_MODULUS, safe ** (p - 1.0), 0.0)
            g = s * fac
            if not np.isfinite(g).all():
                idx = tuple(int(i[0]) for i in np.nonzero(~np.isfinite(g)))
                raise NanAbortError(t) from ValueError(
                    f"non-finite nonlinear exponent at grid index {idx}")
            out.append(g)
    return out


def linear_substep(state: SystemState, tau: float) -> SystemState:
    """Free flow over time tau: multiplier exp(-i |k|^2 tau) per component."""
    g = state.grid
    mult = np.exp(-1j * g.k_squared * tau)
    arrays = [np.fft.ifftn(np.fft.fftn(f.values) * mult) for f in state.fields]
    return state_from_arrays(state.t + tau, arrays, state.coupling, g)


def nonlinear_substep(state: SystemState, tau: float) -> SystemState:
    """Exact nonlinear phase rotation u_mu <- exp(-i tau g_mu) u_mu.

    Does not advance t: the nonlinear flow is applied within a split step
    whose time bookkeeping is owned by the linear parts.
    """
    arrays = [f.values for f in state.fields]
    gs = _nonlinear_exponents(arrays, state.coupling, state.t)
    new = [a * np.exp(-1j * tau * g) for a, g in zip(arrays, gs)]
    return state_from_arrays(state.t, new, state.coupling, state.grid)


def strang_step(state: SystemState, dt: float) -> SystemState:
    """linear(dt/2) o nonlinear(dt) o linear(dt/2).

    A non-finite nonlinear exponent raises NanAbortError at t + dt/2, the
    time of the nonlinear substep.
    """
    return linear_substep(nonlinear_substep(linear_substep(state, dt / 2.0), dt), dt / 2.0)


def evolve(state: SystemState, params: StepParams,
           sink: Callable[[SystemState], None] | None = None) -> SystemState:
    """Run repeated Strang steps to t_final, emitting snapshots to the sink.

    The sink (if any) is called with the state at step 0 and after every
    snapshot_stride-th step; it must be safe to call from the evolution
    thread.  Non-finite values abort with NanAbortError (checked at snapshot
    cadence, and on the initial state and its nonlinear exponents before the
    sink sees it, so finite but overflowing data aborts at t0 before any
    observable overflows).  Boundary-mass accounting is an observable and is
    left to the sink, which can flag the run invalid without interrupting it.

    Consecutive half linear steps inside a snapshot block are fused into
    whole steps; the composition is mathematically identical to repeated
    strang_step.
    """
    c = state.coupling
    g = state.grid
    dt = params.dt
    n_steps = params.n_steps
    if not state.is_finite():
        raise NanAbortError(state.t)
    _nonlinear_exponents([f.values for f in state.fields], c, state.t)
    if sink is not None:
        sink(state)
    if n_steps == 0:
        return state

    half = np.exp(-1j * g.k_squared * (dt / 2.0))
    full = half * half
    mask = g.dealias_mask if params.dealias else None
    arrays = [f.values.copy() for f in state.fields]
    t = state.t
    step = 0
    while step < n_steps:
        block = min(params.snapshot_stride, n_steps - step)
        spectra = [np.fft.fftn(a) * half for a in arrays]
        for inner in range(block):
            arrays = [np.fft.ifftn(s) for s in spectra]
            gs = _nonlinear_exponents(arrays, c, state.t + (step + inner) * dt)
            arrays = [a * np.exp(-1j * dt * gg) for a, gg in zip(arrays, gs)]
            spectra = [np.fft.fftn(a) for a in arrays]
            if mask is not None:
                spectra = [s * mask for s in spectra]
            mult = full if inner < block - 1 else half
            spectra = [s * mult for s in spectra]
        arrays = [np.fft.ifftn(s) for s in spectra]
        step += block
        t = state.t + step * dt
        if any(not np.isfinite(a).all() for a in arrays):
            raise NanAbortError(t)
        if sink is not None and step % params.snapshot_stride == 0:
            sink(state_from_arrays(t, arrays, c, g))
    return state_from_arrays(t, arrays, c, g)
