"""Coupled defocusing Schrodinger system: parameters, state, observables.

The system evolves N complex fields u_mu on R^d (approximated by the periodic
box) under

    i dt u_mu + Lap u_mu - sum_nu beta[mu,nu] |u_nu|^{p+1} |u_mu|^{p-1} u_mu = 0,

with beta[mu,nu] >= 0 symmetric.  Pointwise observables are the density
m = |u|^2 and the current j = Im(conj(u) grad u); the conserved functionals
are the per-component mass ||u_mu||_{L2}^2 and the energy

    E = int sum_mu |grad u_mu|^2 + sum_{mu,nu} beta[mu,nu] |u_mu u_nu|^{p+1}/(p+1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (GridSpec, RadialKernel, ScalarField, cube_sup_l2, forward_transform,
                   kernel_potential, padded_geometry, padded_rfft, synthesize)


def critical_exponent(d: int) -> float:
    """Energy-critical power: 2 for d = 3, infinite below."""
    return 2.0 if d == 3 else math.inf


@dataclass(frozen=True, eq=False)
class CouplingSpec:
    """Coupling matrix beta, nonlinearity power p, dimension d, component count n.

    Hard requirements: beta nonnegative and symmetric, p > 0, and p >= 1
    whenever any off-diagonal coupling is active (the coupled nonlinearity is
    not locally Lipschitz below p = 1).  Soft admissibility conditions
    (1 <= p < p*(d), p > 2/d, positive diagonal) are recorded and surfaced as
    warnings so out-of-range experiments stay runnable.
    """

    n: int
    beta: np.ndarray
    p: float
    d: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 1:
            raise ValueError(f"component count must be >= 1, got {self.n}")
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ValueError(f"nonlinearity power must be positive, got {self.p}")
        beta = np.array(self.beta, dtype=float)
        if beta.shape != (self.n, self.n):
            raise ValueError(f"beta must be {self.n}x{self.n}, got shape {beta.shape}")
        if (beta < 0).any():
            raise ValueError("coupling entries must be nonnegative")
        if not np.array_equal(beta, beta.T):
            raise ValueError("coupling matrix must be symmetric")
        if self.coupled_off_diagonal(beta) and self.p < 1:
            raise ValueError(
                "off-diagonal coupling requires p >= 1; "
                "only the fully decoupled system is defined for p < 1")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        for msg in self.admissibility_warnings():
            warnings.warn(msg, UserWarning, stacklevel=3)

    @staticmethod
    def coupled_off_diagonal(beta: np.ndarray) -> bool:
        return bool((beta - np.diag(np.diag(beta)) != 0).any())

    @property
    def is_coupled(self) -> bool:
        return self.coupled_off_diagonal(self.beta)

    @property
    def subcritical(self) -> bool:
        return 1.0 <= self.p < critical_exponent(self.d)

    @property
    def scattering_admissible(self) -> bool:
        return self.subcritical and self.p > 2.0 / self.d

    @property
    def diagonal_positive(self) -> bool:
        return bool((np.diag(self.beta) > 0).all())

    def admissibility_warnings(self) -> list[str]:
        out = []
        if not self.diagonal_positive:
            out.append("some self-coupling beta[mu,mu] is zero; "
                       "self-interaction bounds are vacuous for those components")
        if not self.subcritical:
            out.append(f"p = {self.p} is outside the subcritical range "
                       f"[1, {critical_exponent(self.d)}) for d = {self.d}")
        if self.subcritical and not self.scattering_admissible:
            out.append(f"p = {self.p} does not exceed 2/d = {2.0 / self.d}; "
                       "dispersive decay is not guaranteed")
        return out

    def classification(self) -> dict:
        return {
            "subcritical": self.subcritical,
            "scattering_admissible": self.scattering_admissible,
            "diagonal_positive": self.diagonal_positive,
            "coupled": self.is_coupled,
            "warnings": self.admissibility_warnings(),
        }


@dataclass(frozen=True, eq=False)
class SystemState:
    """Time t plus the N component fields."""

    t: float
    fields: tuple[ScalarField, ...]
    coupling: CouplingSpec

    def __post_init__(self):
        fields = tuple(self.fields)
        if len(fields) != self.coupling.n:
            raise ValueError(f"expected {self.coupling.n} fields, got {len(fields)}")
        grid = fields[0].grid
        for f in fields:
            if f.grid != grid:
                raise ValueError("all component fields must share one grid")
        object.__setattr__(self, "fields", fields)

    @property
    def grid(self) -> GridSpec:
        return self.fields[0].grid

    def is_finite(self) -> bool:
        return all(np.isfinite(f.values).all() for f in self.fields)


def state_from_arrays(t: float, arrays, coupling: CouplingSpec, grid: GridSpec) -> SystemState:
    fields = tuple(ScalarField(np.asarray(a, dtype=complex), grid) for a in arrays)
    return SystemState(t, fields, coupling)


def _check_index(state: SystemState, mu: int):
    if not 0 <= mu < state.coupling.n:
        raise IndexError(f"component index {mu} out of range [0, {state.coupling.n})")


def total_current(state: SystemState, gradients: list[list[np.ndarray]]) -> list[np.ndarray]:
    """sum_mu j_mu per axis, as plain arrays, from the components' spectral
    gradients ``gradients[mu][a]`` (``Snapshot.grads``)."""
    g = state.grid
    out = [np.zeros(g.shape) for _ in range(g.d)]
    for f, grads in zip(state.fields, gradients):
        conj = np.conj(f.values)
        for a in range(g.d):
            out[a] += np.imag(conj * grads[a])
    return out


class Snapshot:
    """The per-state pieces that the diagnostics of one snapshot share.

    Each piece is computed on first use and kept until the Snapshot is
    dropped or the piece is released (``release``, ``take``); a reader after
    that computes it afresh, so no reader sees a buffer that another one
    consumed.  Every unpadded forward transform of a snapshot is one of the
    spectra below, and every padded one a half-spectrum of an m_mu:

      spectra    per-component spectra c_k (grid.forward_transform)
      m          per-component densities |u_mu|^2
      rho        total density sum_mu m_mu
      rho_spectrum  spectrum of rho (d = 1 and 2 diagnostics only)
      P          coupling density sum_{mu,nu} beta[mu,nu] |u_mu|^{p+1} |u_nu|^{p+1}
      grads      spectral gradients of each component from its spectrum, grads[mu][a]
      current    total current sum_mu Im(conj(u_mu) grad u_mu), per axis
      div_current  its divergence sum_mu Im(conj(u_mu) Lap u_mu), each Lap u_mu
                 from the component spectrum by one grid.synthesize
      rho_grads  real spectral gradient of rho from its spectrum, per axis
                 (d = 1 only: the delta collapse and grad_density_sq)
      rho_hat    padded half-spectrum of rho, the sum of the m_mu's
                 (grid.padded_rfft of each)
      recip_potentials  K * m_mu per component for the reciprocal kernel K = 1/|z|
                 (d = 2, 3; grid.kernel_potential): each m_mu's half-spectrum
                 is added to rho_hat, which is kept too, and then consumed

    DiagnosticsCollector orders one snapshot's observables so that each large
    piece goes after its last reader: grads and current after the virial
    terms and the Strichartz norm, the spectra once div_current is made,
    rho_hat when interaction_report takes it for its kernel potential, and
    recip_potentials after the accumulators.  So the padded stage holds two
    half-spectra at once: rho_hat and the m_mu's being summed.
    """

    def __init__(self, state: SystemState):
        self.state = state

    @staticmethod
    def of(state: "SystemState | Snapshot") -> "Snapshot":
        """The Snapshot given, or a new one for a bare state."""
        return state if isinstance(state, Snapshot) else Snapshot(state)

    def release(self, *names: str) -> None:
        """Drop the named pieces (those not made are skipped)."""
        for name in names:
            self.__dict__.pop(name, None)

    def take(self, name: str):
        """The piece ``name``, released: the caller owns it and may overwrite it."""
        piece = getattr(self, name)
        self.release(name)
        return piece

    @cached_property
    def spectra(self) -> list[np.ndarray]:
        return [forward_transform(f) for f in self.state.fields]

    @cached_property
    def m(self) -> list[np.ndarray]:
        return [np.abs(f.values) ** 2 for f in self.state.fields]

    @cached_property
    def rho(self) -> np.ndarray:
        return sum(self.m)

    @cached_property
    def rho_spectrum(self) -> np.ndarray:
        return forward_transform(ScalarField(self.rho, self.state.grid))

    @cached_property
    def P(self) -> np.ndarray:
        c = self.state.coupling
        powers = [np.abs(f.values) ** (c.p + 1.0) for f in self.state.fields]
        out = np.zeros(self.state.grid.shape)
        for mu in range(c.n):
            for nu in range(c.n):
                b = c.beta[mu, nu]
                if b != 0.0:
                    out += b * powers[mu] * powers[nu]
        return out

    def _gradient(self, spectrum: np.ndarray) -> list[np.ndarray]:
        return [synthesize(self.state.grid, spectrum, 1j * k) for k in self.state.grid.k_mesh]

    @cached_property
    def grads(self) -> list[list[np.ndarray]]:
        return [self._gradient(c) for c in self.spectra]

    @cached_property
    def current(self) -> list[np.ndarray]:
        return total_current(self.state, self.grads)

    @cached_property
    def div_current(self) -> np.ndarray:
        g = self.state.grid
        out = np.zeros(g.shape)
        for f, c in zip(self.state.fields, self.spectra):
            out += np.imag(np.conj(f.values) * synthesize(g, c, -g.k_squared))
        return out

    @cached_property
    def rho_grads(self) -> list[np.ndarray]:
        return [ga.real for ga in self._gradient(self.rho_spectrum)]

    def _padded_densities(self, potentials: bool) -> tuple[np.ndarray, list[np.ndarray]]:
        """rho_hat and, with ``potentials``, the recip_potentials: one padded
        transform per m_mu, added to rho_hat and then consumed."""
        g = self.state.grid
        rho_hat, pots = np.zeros(padded_geometry(g).half_shape, dtype=complex), []
        for m in self.m:
            m_hat = padded_rfft(g, m)
            rho_hat += m_hat
            if potentials:
                pots.append(kernel_potential(g, m_hat, RadialKernel.reciprocal(),
                                             overwrite=True))
            del m_hat  # not held through the next component's transform
        return rho_hat, pots

    @cached_property
    def rho_hat(self) -> np.ndarray:
        return self._padded_densities(potentials=False)[0]

    @cached_property
    def recip_potentials(self) -> list[np.ndarray]:
        rho_hat, pots = self._padded_densities(potentials=True)
        self.__dict__.setdefault("rho_hat", rho_hat)
        return pots


def mass(state: SystemState | Snapshot, mu: int) -> float:
    """Per-component mass, int |u_mu|^2 dx."""
    snap = Snapshot.of(state)
    _check_index(snap.state, mu)
    return snap.state.grid.cell_volume * float(np.sum(snap.m[mu]))


def total_mass(state: SystemState | Snapshot) -> float:
    snap = Snapshot.of(state)
    return sum(mass(snap, mu) for mu in range(snap.state.coupling.n))


@dataclass(frozen=True)
class EnergyReport:
    kinetic: float
    potential: float
    total: float


def energy(state: SystemState | Snapshot) -> EnergyReport:
    """Kinetic sum_mu int |grad u_mu|^2 (spectral, by Parseval) plus the
    coupled potential sum_{mu,nu} beta int |u_mu u_nu|^{p+1} / (p+1)."""
    snap = Snapshot.of(state)
    g = snap.state.grid
    kinetic = 0.0
    for c in snap.spectra:
        kinetic += g.box_volume * float(np.sum(g.k_squared * np.abs(c) ** 2))
    potential = g.cell_volume * float(np.sum(snap.P)) / (snap.state.coupling.p + 1.0)
    return EnergyReport(kinetic=kinetic, potential=potential, total=kinetic + potential)


def lq_norm(state: SystemState, q: float) -> float:
    """sum_mu ||u_mu||_{L^q}; q in [2, inf]."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    return float(sum(f.lq_norm(q) for f in state.fields))


def h1_norm(state: SystemState) -> float:
    """sum_mu ||u_mu||_{H^1}."""
    return float(sum(f.h1_norm() for f in state.fields))


def sup_cube_mass(state: SystemState | Snapshot) -> float:
    """Largest (sum_mu int_Q |u_mu|^2)^(1/2) over grid-aligned unit cubes."""
    snap = Snapshot.of(state)
    return cube_sup_l2(snap.state.grid, snap.rho)


def boundary_mass_fraction(state: SystemState | Snapshot) -> float:
    """Fraction of the total mass in the outer 10% shell of the box.

    Runs are declared invalid when this exceeds 1e-6: the periodic box then
    no longer emulates free space.
    """
    snap = Snapshot.of(state)
    g = snap.state.grid
    shell = np.zeros(g.shape, dtype=bool)
    for a in range(g.d):
        shell |= np.abs(g.x_mesh[a]) >= 0.9 * g.l
    rho = snap.rho
    total = float(rho.sum())
    if total == 0.0:
        return 0.0
    return float(rho[shell].sum()) / total


BOUNDARY_MASS_LIMIT = 1e-6


class RunningIntegral:
    """Trapezoid-in-time integral of a scalar integrand sampled along a
    trajectory, with the (t, value) samples kept for window queries."""

    def __init__(self):
        self.total = 0.0
        self.history: list[tuple[float, float]] = []

    def add(self, t: float, value: float):
        """Record the integrand at t, after the last sample, and integrate up to it."""
        if self.history:
            t_prev, prev = self.history[-1]
            self.total += 0.5 * (t - t_prev) * (prev + value)
        self.history.append((t, value))

    def increment_over(self, t0: float, t1: float) -> float:
        """Trapezoid contribution of the window [t0, t1] from the history."""
        out = 0.0
        for (ta, va), (tb, vb) in zip(self.history, self.history[1:]):
            lo, hi = max(ta, t0), min(tb, t1)
            if hi <= lo:
                continue
            # linear interpolant of the integrand on [ta, tb]
            fa = va + (vb - va) * (lo - ta) / (tb - ta)
            fb = va + (vb - va) * (hi - ta) / (tb - ta)
            out += 0.5 * (hi - lo) * (fa + fb)
        return out

    def tail_fraction(self, window: float) -> float:
        """Fraction of the total accumulated over the final time window."""
        if not self.history or self.total == 0.0:
            return 0.0
        t_end = self.history[-1][0]
        return self.increment_over(t_end - window, t_end) / self.total
