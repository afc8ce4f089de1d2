"""Virial and interaction functionals with their derivative identities.

For a radial weight phi and the bilinear weight psi(x, y) = phi(|x - y|):

    V(t) = sum_mu int phi m_mu dx
    I(t) = sum_{mu,kappa} intint psi m_mu(x) m_kappa(y) dx dy

Along the flow the identities

    dV/dt  = 2 sum_mu int j_mu . grad phi
    d2V/dt2 = sum_mu [ -int m_mu Lap^2 phi + 4 int grad u D2phi grad conj(u) ]
              + (2p/(p+1)) sum_{mu,nu} beta int |u_mu u_nu|^{p+1} Lap phi
    dI/dt  = 4 sum_{mu,kappa} intint j_mu(x) . grad_x psi  m_kappa(y)
    d2I/dt2 >= 2 sum intint Lap_x psi grad_x m_mu . grad_y m_kappa + N
             = -2 sum intint m m Lap^2_x psi + N            (equal forms)

hold, with the nonnegative nonlinear part

    N = (4p/(p+1)) sum_{mu,nu,kappa} beta[mu,nu]
        intint |u_mu(x)|^{p+1} |u_nu(x)|^{p+1} m_kappa(y) Lap_x psi.

Distributional weights are handled by collapsing the delta parts analytically
before discretization (never as grid spikes):

    phi(r) = r:   d = 1: Lap_x psi = 2 delta(x - y)
              d = 2: Lap_x psi = 1/|x-y|
              d = 3: Lap_x psi = 2/|x-y|,  Lap^2_x psi = -8 pi delta(x - y)
                     (the Laplacian of |z| carries a 2, so the bilaplacian is
                     twice the Newtonian -4 pi delta).

The erf-smoothed weight regularizes |x - y| in d = 1:

    phi_eps(r) = r erf(r/eps) + (eps/sqrt(pi)) exp(-(r/eps)^2),

whose second derivative is exactly twice the Gaussian mollifier
delta_eps(z) = exp(-(z/eps)^2) / (eps sqrt(pi)), recovering the delta
collapse as eps -> 0.

Every double integral is a pairing int f (K * g) dx on the zero-padded box.
Each potential K * g is made once, by one cropped inverse padded transform
of g's half-spectrum (grid.kernel_potential), and each pairing of it is a
dot product on the box: no M^d x M^d object is ever formed.  The
potentials of a snapshot are

    Phi = K * rho           (K = |z| or the erf profile; I and dI/dt)
    K_rec * m_mu            (K_rec = 1/|z|, d = 2, 3; recip_self, and N
                             through their sum K_rec * rho)
    delta_eps * rho         (the erf weight's N)

and two forms keep the number of padded transforms down:

    dI/dt = -4 int (div j)(K * rho),   div j = sum_mu Im(conj(u_mu) Lap u_mu)

(the current pairing integrated by parts: no padded transform of j), and
the gradient pairing sum_a intint d_a rho d_a rho K, which is the
half-spectrum sum of |k|^2 K_hat |rho_hat|^2 (grid.kernel_gradient_product)
and transforms no d_a rho (the tests check it against its d = 2 fractional
form 2 pi ||(-Lap)^{1/4} rho||^2).  The per-state pieces (spectra, densities,
currents, gradients, half-spectra, potentials) come from one
system.Snapshot, so a caller that evaluates several diagnostics of one state
can build the Snapshot once and pass it in place of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .grid import GridSpec, RadialKernel, kernel_gradient_product, kernel_potential
from .system import RunningIntegral, Snapshot, SystemState

ABS_DISTANCE = "absdistance"
SMOOTH_RADIAL = "smoothradial"
ERF_SMOOTHED = "erf"
CONSTANT = "constant"

CONVEXITY_R_MAX, CONVEXITY_SAMPLES = 100.0, 2048  # radii sampled by convexity_ok
INEQUALITY_REL_TOL = 1e-6  # relative floor of interaction_inequality_check's tolerances


def _full(value: float) -> Callable:
    return lambda r: np.full_like(np.asarray(r, dtype=float), value)


_ZERO = _full(0.0)


@dataclass(frozen=True, eq=False)
class MorawetzWeight:
    """Radial weight phi (profile) with its first to fourth radial
    derivatives d1, d2, d3 and d4.

    kinds:
      constant       phi = value, every derivative zero
      absdistance    phi(r) = r with its classical derivatives off r = 0; the
                     delta parts at r = 0 are collapsed analytically by
                     interaction_report and refused by virial_Vddot
      smoothradial   phi(r) = r^2
      erf            erf-smoothed |r| with closed-form derivatives; d = 1 only
    """

    kind: str
    profile: Callable
    d1: Callable
    d2: Callable
    d3: Callable
    d4: Callable
    value: float = 1.0
    eps: float = 0.0

    @staticmethod
    def constant(value: float = 1.0) -> "MorawetzWeight":
        return MorawetzWeight(CONSTANT, _full(value), _ZERO, _ZERO, _ZERO, _ZERO, value=value)

    @staticmethod
    def abs_distance() -> "MorawetzWeight":
        return MorawetzWeight(ABS_DISTANCE, lambda r: r, _full(1.0), _ZERO, _ZERO, _ZERO)

    @staticmethod
    def quadratic() -> "MorawetzWeight":
        return MorawetzWeight(SMOOTH_RADIAL, lambda r: r * r, lambda r: 2.0 * r,
                              _full(2.0), _ZERO, _ZERO)

    @staticmethod
    def erf_smoothed(eps: float) -> "MorawetzWeight":
        """Erf regularization of |r|; its second derivative is exactly the
        Gaussian mollifier 2 exp(-(r/eps)^2)/(eps sqrt(pi)), so eps -> 0
        recovers the |x - y| delta collapse.  Keep eps at or above the grid
        spacing, otherwise the mollifier is unresolved."""
        if not 0 < eps < math.inf:
            raise ValueError(f"smoothing width must be positive and finite, got {eps}")
        erf = np.vectorize(math.erf, otypes=[float])  # numpy has no erf
        s = math.sqrt(math.pi)

        def profile(r):
            return r * erf(r / eps) + (eps / s) * np.exp(-((r / eps) ** 2))

        def d1(r):
            return erf(r / eps)

        def d2(r):
            return (2.0 / (eps * s)) * np.exp(-((r / eps) ** 2))

        def d3(r):
            return (-4.0 * r / (eps ** 3 * s)) * np.exp(-((r / eps) ** 2))

        def d4(r):
            return ((8.0 * r ** 2 / eps ** 5 - 4.0 / eps ** 3) / s) * np.exp(-((r / eps) ** 2))

        return MorawetzWeight(ERF_SMOOTHED, profile, d1, d2, d3, d4, eps=eps)

    def convexity_ok(self) -> bool:
        """Sampled check that d2 >= 0 and d1/r >= 0 (radial convexity)."""
        r = np.linspace(CONVEXITY_R_MAX / CONVEXITY_SAMPLES, CONVEXITY_R_MAX, CONVEXITY_SAMPLES)
        return bool((np.asarray(self.d2(r)) >= -1e-12).all()
                    and (np.asarray(self.d1(r)) / r >= -1e-12).all())


@lru_cache(maxsize=8)
def _virial_meshes(grid: GridSpec) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """|x| and the unit directions x/|x| (zero at the origin), cached per grid
    and read-only."""
    r = np.sqrt(sum(x ** 2 for x in grid.x_mesh))
    safe = np.where(r > 0, r, 1.0)
    dirs = tuple(np.where(r > 0, x / safe, 0.0) for x in grid.x_mesh)
    for a in (r, *dirs):
        a.setflags(write=False)
    return r, dirs


def virial_V(state: SystemState | Snapshot, weight: MorawetzWeight) -> float:
    """V = sum_mu int phi(|x|) m_mu, centred at the origin."""
    snap = Snapshot.of(state)
    g = snap.state.grid
    r, _ = _virial_meshes(g)
    return g.cell_volume * float(np.sum(np.asarray(weight.profile(r)) * snap.rho))


def virial_Vdot(state: SystemState | Snapshot, weight: MorawetzWeight) -> float:
    """dV/dt = 2 sum_mu int j_mu . grad phi(|x|), centred at the origin."""
    snap = Snapshot.of(state)
    g = snap.state.grid
    r, dirs = _virial_meshes(g)
    dphi = np.asarray(weight.d1(r))
    j = snap.current
    total = sum(np.sum(j[a] * dphi * dirs[a]) for a in range(g.d))
    return 2.0 * g.cell_volume * float(total)


@dataclass(frozen=True)
class VirialSecond:
    bilap_term: float
    hessian_term: float
    nonlinear_term: float
    total: float


def virial_Vddot(state: SystemState | Snapshot, weight: MorawetzWeight) -> VirialSecond:
    """d2V/dt2 split into bilaplacian, hessian and nonlinear terms, centred at
    the origin.  For an even radial profile

        Lap phi   = phi'' + (d-1) phi'/r,  with d phi''(0) at r = 0,
        Lap^2 phi = phi'''' + 2(d-1) phi'''/r + (d-1)(d-3) (phi''/r^2 - phi'/r^3),
                    with phi''''(0) [1 + 2(d-1) + (d-1)(d-3)/3] at r = 0.

    The abs-distance weight carries delta terms in dimensions 1 and 3 that
    its classical derivatives miss, and is rejected here -- use
    interaction_report, whose delta parts are collapsed analytically.
    """
    if weight.kind == ABS_DISTANCE:
        raise ValueError(
            "the |x| weight has distributional derivatives; second-derivative "
            "identities for it are evaluated through interaction_report's "
            "analytic delta collapse")
    snap = Snapshot.of(state)
    g = snap.state.grid
    c = snap.state.coupling
    d = g.d
    r, dirs = _virial_meshes(g)
    d1, d2, d3, d4 = (np.asarray(f(r)) for f in (weight.d1, weight.d2, weight.d3, weight.d4))
    d2_at0, d4_at0 = (float(np.asarray(f(np.asarray(0.0)))) for f in (weight.d2, weight.d4))
    off0 = r > 0
    safe = np.where(off0, r, 1.0)
    ratio = np.where(off0, d1 / safe, d2_at0)

    bilap_phi = np.where(off0, d4 + 2.0 * (d - 1) * d3 / safe
                         + (d - 1) * (d - 3) * (d2 / safe ** 2 - d1 / safe ** 3),
                         d4_at0 * (1.0 + 2.0 * (d - 1) + (d - 1) * (d - 3) / 3.0))
    bilap = -g.cell_volume * float(np.sum(snap.rho * bilap_phi))

    hess = 0.0
    for grads in snap.grads:
        radial = sum(dirs[a] * grads[a] for a in range(d))
        sq_all = sum(np.abs(gr) ** 2 for gr in grads)
        sq_rad = np.abs(radial) ** 2
        hess += float(np.sum(d2 * sq_rad + ratio * (sq_all - sq_rad)))
    hess *= 4.0 * g.cell_volume

    lap_phi = np.where(off0, d2 + (d - 1) * d1 / safe, d * d2_at0)
    nonlin = (2.0 * c.p / (c.p + 1.0)) * g.cell_volume * float(
        np.sum(snap.P * lap_phi))
    return VirialSecond(bilap, hess, nonlin, bilap + hess + nonlin)


# ---------------------------------------------------------------------------
# Interaction functional
# ---------------------------------------------------------------------------

@dataclass
class InteractionReport:
    """Single-snapshot interaction quantities."""

    t: float
    I: float
    Idot: float
    N_term: float
    gradient_term: float
    rhs_lower: float
    rhs_lower_alt: float | None = None


_SUPPORTED = ("supported weights for interaction_report: constant (any d), "
              "|x| (d = 1, 2, 3), erf-smoothed (d = 1)")


def _gradient_kernel(d: int) -> RadialKernel:
    """The reciprocal kernel of gradient_pairing in d = 2, 3."""
    return RadialKernel.reciprocal(transform="analytic" if d == 2 else "grid")


def gradient_pairing(state: SystemState | Snapshot) -> float:
    """sum_{mu,kappa} intint Lap_x psi grad_x m_mu . grad_y m_kappa for the
    |x-y| weight.

    d = 1:     the delta collapse 2 ||dx rho||^2;
    d = 2, 3:  Lap_x psi = (d-1)/|x-y|, paired as the half-spectrum sum
               (d-1) sum_k |k|^2 K_hat |rho_hat|^2 of the reciprocal kernel K
               over the Snapshot's rho_hat (no transform of grad rho).
    """
    snap = Snapshot.of(state)
    g = snap.state.grid
    if g.d == 1:
        return 2.0 * g.cell_volume * float(np.sum(snap.rho_grads[0] ** 2))
    return (g.d - 1.0) * kernel_gradient_product(g, snap.rho_hat, _gradient_kernel(g.d))


def interaction_kernels(weight: MorawetzWeight, d: int) -> tuple[RadialKernel, ...]:
    """Every kernel interaction_report pairs for ``weight`` in d dimensions:
    K of I and dI/dt, then the kernels of N and of the gradient term where
    those are not delta collapses (none for the constant weight)."""
    if weight.kind == ABS_DISTANCE:
        return (RadialKernel.abs_distance(),) + (
            (RadialKernel.reciprocal(), _gradient_kernel(d)) if d > 1 else ())
    if weight.kind == ERF_SMOOTHED:
        return RadialKernel.from_profile(weight.profile), RadialKernel.gaussian_delta(weight.eps)
    return ()


def interaction_report(state: SystemState | Snapshot, weight: MorawetzWeight) -> InteractionReport:
    """I, dI/dt, the nonlinear term and the convexity lower bound for d2I/dt2.

    The weight picks one kernel K (|z| or the erf profile); I = int rho Phi
    and dI/dt = -4 int (div j) Phi (by parts, with the Snapshot's
    div_current) are then box sums against the potential Phi = K * rho.
    Only N and the gradient term branch: erf pairs its Gaussian mollifier;
    for |x-y| the delta parts (Lap psi in d = 1, Lap^2 psi in d = 3) are
    collapsed to single integrals analytically, N in d = 2, 3 pairs the
    Snapshot's recip_potentials, and the gradient term is gradient_pairing.
    Phi consumes the Snapshot's rho_hat (taken from it), after the gradient
    term and the mollifier potential have read it.
    """
    snap = Snapshot.of(state)
    g = snap.state.grid
    vol = g.cell_volume
    rho = snap.rho
    t = snap.state.t

    if weight.kind == CONSTANT:
        m = vol * float(rho.sum())
        return InteractionReport(t=t, I=weight.value * m * m, Idot=0.0, N_term=0.0,
                                 gradient_term=0.0, rhs_lower=0.0, rhs_lower_alt=0.0)
    if weight.kind == ERF_SMOOTHED and g.d != 1:
        raise ValueError("the erf-smoothed weight is provided for d = 1 only; "
                         + _SUPPORTED)
    if weight.kind not in (ABS_DISTANCE, ERF_SMOOTHED):
        raise ValueError(f"weight kind {weight.kind!r} with d = {g.d} is not supported "
                         f"by interaction_report; " + _SUPPORTED)

    kernel = interaction_kernels(weight, g.d)[0]
    p = snap.state.coupling.p
    alt = None
    if weight.kind == ERF_SMOOTHED:
        delta_eps = RadialKernel.gaussian_delta(weight.eps)
        grad_term = 4.0 * kernel_gradient_product(g, snap.rho_hat, delta_eps)
        N = (8.0 * p / (p + 1.0)) * vol * float(np.sum(
            snap.P * kernel_potential(g, snap.rho_hat, delta_eps)))
    elif g.d == 1:
        grad_term = 2.0 * gradient_pairing(snap)
        N = (8.0 * p / (p + 1.0)) * vol * float(np.sum(snap.P * rho))
    else:
        recip_rho = sum(snap.recip_potentials)  # K_rec * rho; makes rho_hat too
        grad_term = 2.0 * gradient_pairing(snap)
        lap_coeff = float(g.d - 1)  # Lap |z| = (d-1)/|z|
        N = (4.0 * p / (p + 1.0)) * lap_coeff * vol * float(np.sum(snap.P * recip_rho))
        if g.d == 3:
            # Lap^2 |z| = Lap (2/|z|) = -8 pi delta, so the delta collapse of
            # -2 intint m m Lap^2 psi is 16 pi int rho^2 (twice the Newtonian
            # constant: the inner Laplacian of |z| already carries the 2).
            alt = 16.0 * math.pi * vol * float(np.sum(rho * rho)) + N
    phi = kernel_potential(g, snap.take("rho_hat"), kernel, overwrite=True)
    I = vol * float(np.sum(rho * phi))
    Idot = -4.0 * vol * float(np.sum(snap.div_current * phi))
    return InteractionReport(t=t, I=I, Idot=Idot, N_term=N, gradient_term=grad_term,
                             rhs_lower=grad_term + N, rhs_lower_alt=alt)


# ---------------------------------------------------------------------------
# Trajectory-level inequality check
# ---------------------------------------------------------------------------

def central_difference(times: np.ndarray, series: np.ndarray) -> np.ndarray:
    """(f(t + dt) - f(t - dt)) / 2dt at interior snapshots, dt = times[1] - times[0]."""
    dt = times[1] - times[0]
    return (series[2:] - series[:-2]) / (2.0 * dt)


def second_difference(times: np.ndarray, series: np.ndarray) -> np.ndarray:
    """(f(t + dt) - 2 f(t) + f(t - dt)) / dt^2 at interior snapshots,
    dt = times[1] - times[0]."""
    dt = times[1] - times[0]
    return (series[2:] - 2.0 * series[1:-1] + series[:-2]) / dt ** 2


def fd_gap_first(times: np.ndarray, series: np.ndarray, formula: np.ndarray) -> np.ndarray:
    """|central difference of series - formula| at interior snapshots."""
    return np.abs(central_difference(times, series) - formula[1:-1])


def fd_gap_second(times: np.ndarray, series: np.ndarray, formula: np.ndarray) -> np.ndarray:
    """|second difference of series - formula| at interior snapshots."""
    return np.abs(second_difference(times, series) - formula[1:-1])


@dataclass
class InequalityCheck:
    times: np.ndarray
    dt: float
    iddot_fd: np.ndarray           # interior snapshots
    rhs_lower: np.ndarray          # interior snapshots
    margins: np.ndarray            # iddot_fd - rhs_lower
    tolerances: np.ndarray
    second_difference_ok: bool
    idot_fd_gap: float             # max |central difference of I - Idot|
    integrated_ok: bool            # Idot(T) - Idot(S) >= int rhs_lower dt (trapezoid)
    monotone_ok: bool | None       # only meaningful when rhs_lower >= 0 throughout


def interaction_inequality_check(reports: Sequence[InteractionReport],
                                 fd_constant: float | None = None) -> InequalityCheck:
    """Second-difference form and time-integrated form of the convexity bound.

    Requires >= 3 reports at uniform snapshot spacing.  Tolerances combine a
    relative floor with a finite-difference error budget C dt^2; C comes from
    the supplied calibration constant or, for windows of >= 5 snapshots, from
    a fourth-difference estimate of d4I/dt4.
    """
    if len(reports) < 3:
        raise ValueError("need at least 3 consecutive snapshots")
    ts = np.array([r.t for r in reports])
    dts = np.diff(ts)
    dt = float(dts[0])
    if dt <= 0 or np.abs(dts - dt).max() > 1e-9 * max(dt, 1.0):
        raise ValueError("snapshots must be uniformly spaced in time")
    I = np.array([r.I for r in reports])
    idots = np.array([r.Idot for r in reports])
    rhs = np.array([r.rhs_lower for r in reports])

    iddot_fd = second_difference(ts, I)

    fd_budget = np.zeros_like(iddot_fd)
    if fd_constant is not None:
        fd_budget += fd_constant * dt ** 2
    if len(I) >= 5:
        d4 = np.abs(I[4:] - 4 * I[3:-1] + 6 * I[2:-2] - 4 * I[1:-3] + I[:-4]) / dt ** 4
        est = 2.0 * float(d4.max()) / 12.0 * dt ** 2
        fd_budget = np.maximum(fd_budget, est)
    tol = np.maximum(INEQUALITY_REL_TOL * np.abs(I[1:-1]), fd_budget)

    margins = iddot_fd - rhs[1:-1]
    ok2 = bool((margins >= -tol).all())

    idot_gap = float(fd_gap_first(ts, I, idots).max())

    tol_int = float(tol.max() * (ts[-1] - ts[0]) + INEQUALITY_REL_TOL * np.abs(I).max())
    ok_int = float(idots[-1] - idots[0]) >= float(np.trapezoid(rhs, ts)) - tol_int

    mono = None
    if (rhs >= 0).all():
        mono = bool(idots[-1] >= idots[0] - tol_int)

    return InequalityCheck(times=ts, dt=dt, iddot_fd=iddot_fd, rhs_lower=rhs[1:-1],
                           margins=margins, tolerances=tol,
                           second_difference_ok=ok2, idot_fd_gap=idot_gap,
                           integrated_ok=ok_int, monotone_ok=mono)


# ---------------------------------------------------------------------------
# Space-time accumulators
# ---------------------------------------------------------------------------

class SpacetimeAccumulators:
    """Trapezoid-in-time accumulation of the dimension-specific space-time
    integrands whose finiteness characterizes dispersive runs.

    d = 1: 'power_2p4'        sum_mu beta[mu,mu] int |u_mu|^{2p+4}
           'grad_density_sq'  || dx sum_mu m_mu ||^2
    d = 2: 'recip_self'       sum_mu beta[mu,mu] intint |u_mu(x)|^{2p+2} m_mu(y)/|x-y|
           'half_deriv_sq'    || (-Lap)^{1/4} sum_mu m_mu ||^2
    d = 3: 'l4'               sum_mu int |u_mu|^4
           'recip_self'       as in d = 2

    Attach update() to the evolution sink; running totals converge (window
    increments decay) on scattering-admissible runs.
    """

    def __init__(self, coupling):
        self.coupling = coupling
        self.names = {1: ("power_2p4", "grad_density_sq"),
                      2: ("recip_self", "half_deriv_sq"),
                      3: ("l4", "recip_self")}[coupling.d]
        self.integrals = {name: RunningIntegral() for name in self.names}

    @property
    def totals(self) -> dict[str, float]:
        return {name: acc.total for name, acc in self.integrals.items()}

    def _integrands(self, snap: Snapshot) -> dict[str, float]:
        state = snap.state
        g = state.grid
        c = state.coupling
        vol = g.cell_volume
        out: dict[str, float] = {}
        if g.d == 1:
            p24 = 0.0
            for mu, f in enumerate(state.fields):
                b = c.beta[mu, mu]
                if b != 0.0:
                    p24 += b * vol * float(np.sum(np.abs(f.values) ** (2 * c.p + 4)))
            out["power_2p4"] = p24
            out["grad_density_sq"] = vol * float(np.sum(snap.rho_grads[0] ** 2))
            return out
        if g.d == 2:
            out["recip_self"] = self._recip_self(snap)
            out["half_deriv_sq"] = g.box_volume * float(
                np.sum(g.k_modulus * np.abs(snap.rho_spectrum) ** 2))
            return out
        out["l4"] = sum(vol * float(np.sum(np.abs(f.values) ** 4)) for f in state.fields)
        out["recip_self"] = self._recip_self(snap)
        return out

    def _recip_self(self, snap: Snapshot) -> float:
        state = snap.state
        c = state.coupling
        total = 0.0
        for mu, (f, pot) in enumerate(zip(state.fields, snap.recip_potentials)):
            b = c.beta[mu, mu]
            if b != 0.0:
                total += b * state.grid.cell_volume * float(
                    np.sum(np.abs(f.values) ** (2 * c.p + 2) * pot))
        return total

    def update(self, state: SystemState | Snapshot):
        snap = Snapshot.of(state)
        vals = self._integrands(snap)
        for name in self.names:
            self.integrals[name].add(snap.state.t, vals[name])
