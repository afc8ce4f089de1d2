"""Reference implementations the tests compare the production stepper and
wave operator against.

evolve_reference is the per-component stepper: each of the N fields is its
own array, with two numpy FFTs and fresh temporaries per component and step.
The production evolve steps all components as one stacked array and must
agree with it to rounding.  nonlinear_exponents_reference is the exponent
computed one component at a time, which the stacked exponent must match bit
for bit.

rk4_reference_step is a classical RK4 step on the full right-hand side, an
independent cross-validation oracle for the Strang stepper; explicit, so
stable only for dt of order h^2/pi.

wave_operator_reference is the three-buffer wave-operator recursion in
physical space (the free trajectory, the iterate and the new iterate, each
n_nodes x N x M^d); the production wave_operator holds the spectra of the
iterate in one buffer and must agree with it to rounding.

idot_reference and gradient_pairing_reference are the per-axis Morawetz
pairings: one padded transform and one kernel pairing per axis, of each
current component (paired with d_a K by kernel_axis_pairing_reference) and
of each spectral derivative of rho.  The production
interaction_report integrates dI/dt by parts (one padded transform of
div j) and sums |k|^2 K_hat |rho_hat|^2 for the gradient term; the two
forms agree to rounding on resolved states, and their gap is discretisation
error that falls as the grid is refined.

fractional_gradient_pairing_reference is the single-time spectral form of
the |x-y| gradient pairing (2 ||dx rho||^2 in d = 1, 2 pi
||(-Lap)^{1/4} rho||^2 in d = 2), an independent check of the reciprocal-
kernel route of morawetz.gradient_pairing.  virial_meshes_reference builds
the virial radius and direction meshes afresh, as before they were cached.

integral_of_j0_reference is Lambda(x) = int_0^x J0 in its Bessel/Struve
closed form from scipy.special, which grid._integral_of_j0 (a numpy
quadrature) must match.

convolve_radial_kernel and convolve_kernel_gradient are the free-space
convolutions K * g and (d_a K) * g in physical space: g zero-padded to the
doubled box, multiplied by the kernel's cached half-spectrum (and i k_a),
transformed back and restricted to the original box.  The package pairs
densities without returning to physical space (grid.kernel_inner_product,
grid.kernel_gradient_product); h^d sum_x f (K * g) from these convolutions
is the oracle those pairings, and kernel_axis_pairing_reference, must match.

apply_multiplier applies a radial spectral multiplier m(|k|) to one field;
the package has no caller of it, and the tests use it to check the
transform conventions.
"""

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import j0, j1, struve

from nlskit.evolve import MIN_MODULUS, NanAbortError, StepParams, _nonlinear_exponents
from nlskit.grid import (GridSpec, RadialKernel, ScalarField, _kernel_hat, forward_transform,
                         kernel_inner_product, mode_numbers, padded_geometry, padded_rfft,
                         synthesize)
from nlskit.scattering import WaveOperatorDivergence, WaveOperatorResult
from nlskit.system import CouplingSpec, Snapshot, SystemState, state_from_arrays


def kernel_axis_pairing_reference(grid: GridSpec, f_hat: np.ndarray, g_hat: np.ndarray,
                                  kernel: RadialKernel, axis: int) -> float:
    """int f (d_axis K * g) dx for real f and g supported in the box, from
    their padded_rfft half-spectra: h^(2d)/N sum_k conj(f_k) i k_axis K_k g_k.
    It equals h^d sum_x f convolve_kernel_gradient(g)[axis]."""
    geo = padded_geometry(grid)
    cross = f_hat.imag * g_hat.real          # -Im conj(f) g, as Re(i k z) = -k Im z
    cross -= f_hat.real * g_hat.imag
    cross *= geo.odd_k_axes[axis]
    cross *= _kernel_hat(grid, kernel)
    cross *= geo.weights
    return grid.cell_volume ** 2 / geo.npoints * float(np.sum(cross))


def _pad_forward(f: ScalarField) -> np.ndarray:
    """Padded half-spectrum of a real field: the input side of a convolution."""
    vals = f.values
    if np.iscomplexobj(vals):
        if np.abs(vals.imag).max(initial=0.0) > 1e-12 * max(1.0, np.abs(vals.real).max(initial=0.0)):
            raise ValueError("convolution input must be real-valued")
        vals = vals.real
    return padded_rfft(f.grid, vals)


def _convolve_hat(grid: GridSpec, spectrum: np.ndarray) -> np.ndarray:
    """Finish a padded convolution from its half-spectrum and restrict to
    the original box."""
    conv = np.fft.irfftn(spectrum, s=padded_geometry(grid).shape, axes=range(grid.d))
    return conv[(slice(0, grid.m),) * grid.d] * grid.cell_volume


def convolve_radial_kernel(f: ScalarField, kernel: RadialKernel) -> ScalarField:
    """Free-space convolution (K * f)(x) = int K(|x-y|) f(y) dy for real f.

    Computed by zero-padding to [-2L, 2L)^d with the truncated kernel, so the
    result is the genuine free-space convolution for data supported in the
    original box (no periodic images).
    """
    g = f.grid
    spec = _pad_forward(f) * _kernel_hat(g, kernel)
    return ScalarField(_convolve_hat(g, spec), g)


def convolve_kernel_gradient(f: ScalarField, kernel: RadialKernel) -> list[ScalarField]:
    """Components of grad (K * f) = (grad K) * f, evaluated by spectral
    differentiation of the padded kernel transform.

    Using the exact spectral derivative of the same discrete kernel makes the
    continuity-equation identities hold on the grid to rounding (instead of
    inheriting an O(h^2) mismatch between independently sampled K and grad K).
    """
    g = f.grid
    spec = _pad_forward(f) * _kernel_hat(g, kernel)
    odd = padded_geometry(g).odd_k_axes
    return [ScalarField(_convolve_hat(g, (1j * odd[a]) * spec), g) for a in range(g.d)]


def integral_of_j0_reference(x: np.ndarray) -> np.ndarray:
    """Lambda(x) = int_0^x J0 = x J0 + (pi x/2)(J1 H0 - J0 H1), with the
    Struve functions H0, H1."""
    return x * j0(x) + (math.pi / 2.0) * x * (j1(x) * struve(0, x) - j0(x) * struve(1, x))


def idot_reference(snap: Snapshot, kernel: RadialKernel) -> float:
    """4 sum_a int j_a (d_a K * rho) dx: each current component padded,
    transformed and paired with rho_hat along its axis."""
    g = snap.state.grid
    rho_hat = snap.rho_hat()
    return 4.0 * sum(kernel_axis_pairing_reference(g, padded_rfft(g, snap.current[a]),
                                                   rho_hat, kernel, a)
                     for a in range(g.d))


def gradient_pairing_reference(snap: Snapshot, kernel: RadialKernel) -> float:
    """sum_a int d_a rho (K * d_a rho) dx from the padded transforms of the
    spectral derivatives of rho, one pairing per axis."""
    g = snap.state.grid
    total = 0.0
    for ga in snap.rho_grads:
        ga_hat = padded_rfft(g, ga)
        total += kernel_inner_product(g, ga_hat, ga_hat, kernel)
    return total


def fractional_gradient_pairing_reference(state: SystemState | Snapshot) -> float:
    """sum intint Lap_x psi grad m . grad m for the |x-y| weight in its
    fractional form: d = 1: 2 ||dx rho||^2 from the spectrum of rho;
    d = 2: 2 pi ||(-Lap)^{1/4} rho||^2.

    In d = 2, |k| has a conical point at k = 0: the k-lattice is refined 8x
    by zero padding (a half-spectrum of its own, not the 2x box of
    grid.padded_rfft) and |k| is averaged over the origin cell, so the
    quadrature reaches the 1e-6 identity tolerance.  Not derived in d = 3.
    """
    snap = Snapshot.of(state)
    g = snap.state.grid
    if g.d == 1:
        c = snap.rho_spectrum
        return 2.0 * g.box_volume * float(np.sum(g.k_squared * np.abs(c) ** 2))
    if g.d != 2:
        raise ValueError("the fractional form is only derived in d = 1, 2")
    pad = 8
    n = pad * g.m
    dk = math.pi / (pad * g.l)
    chat = np.fft.rfftn(snap.rho, s=(n, n), axes=(0, 1)) / n ** 2
    sq = chat.real ** 2 + chat.imag ** 2
    j0, j1 = mode_numbers(n)[:, None], np.arange(n // 2 + 1, dtype=float)
    k_modulus = dk * np.sqrt(j0 * j0 + j1 * j1)
    weights = np.full(n // 2 + 1, 2.0)  # Hermitian pairs, as PaddedGeometry.weights
    weights[0] = weights[-1] = 1.0
    total = float(np.sum(weights * k_modulus * sq))
    total += 0.3825979 * dk * float(sq[0, 0])  # cell average of |k| over the origin cell
    return 2.0 * math.pi * (pad * 2.0 * g.l) ** 2 * total


def virial_meshes_reference(grid: GridSpec) -> tuple[np.ndarray, list[np.ndarray]]:
    """|x| and the unit directions x/|x|, built afresh on every call."""
    r = np.sqrt(sum(x ** 2 for x in grid.x_mesh))
    safe = np.where(r > 0, r, 1.0)
    return r, [np.where(r > 0, x / safe, 0.0) for x in grid.x_mesh]


def apply_multiplier(f: ScalarField, multiplier: Callable[[np.ndarray], np.ndarray],
                     name: str = "multiplier") -> ScalarField:
    """The field whose coefficients are m(|k|) c_k, where c_k are those of f.

    The callable receives the |k| mesh; for multipliers singular at k = 0 the
    caller must patch the origin (e.g. with np.where) before returning.
    """
    g = f.grid
    m = np.asarray(multiplier(g.k_modulus))
    bad = ~np.isfinite(m)
    if bad.any():
        idx = tuple(int(i[0]) for i in np.nonzero(bad))
        kvec = tuple(float(g.k_mesh[a][idx]) for a in range(g.d))
        raise ValueError(
            f"{name} is not finite at k = {kvec} (grid index {idx}); "
            "singular multipliers must be patched at the offending wavenumbers")
    return ScalarField(synthesize(g, forward_transform(f), m), g)


def nonlinear_exponents_reference(arrays: list[np.ndarray], coupling: CouplingSpec,
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


def _rhs(grid: GridSpec, arrays: list[np.ndarray], coupling: CouplingSpec,
         t: float) -> list[np.ndarray]:
    """du/dt = i Lap u - i g(u) u with the spectral Laplacian."""
    gs = _nonlinear_exponents(arrays, coupling, t)
    out = []
    for a, gg in zip(arrays, gs):
        lap = np.fft.ifftn(-grid.k_squared * np.fft.fftn(a))
        out.append(1j * lap - 1j * gg * a)
    return out


def rk4_reference_step(state: SystemState, dt: float) -> SystemState:
    """Classical RK4 on the full right-hand side.

    Caller must keep dt within the explicit stability window (roughly
    dt <~ h^2 / pi).  A norm growth above 10x aborts as instability.
    """
    g = state.grid
    c = state.coupling
    y = [f.values for f in state.fields]
    t = state.t
    k1 = _rhs(g, y, c, t)
    k2 = _rhs(g, [a + 0.5 * dt * b for a, b in zip(y, k1)], c, t)
    k3 = _rhs(g, [a + 0.5 * dt * b for a, b in zip(y, k2)], c, t)
    k4 = _rhs(g, [a + dt * b for a, b in zip(y, k3)], c, t)
    new = [a + (dt / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    old_norm = math.sqrt(sum(float(np.sum(np.abs(a) ** 2)) for a in y))
    new_norm = math.sqrt(sum(float(np.sum(np.abs(a) ** 2)) for a in new))
    if old_norm > 0 and new_norm > 10.0 * old_norm:
        raise RuntimeError(
            f"RK4 reference step unstable at t = {state.t}: "
            f"norm grew {new_norm / old_norm:.2e}x; reduce dt below h^2/pi")
    return state_from_arrays(state.t + dt, new, c, g)


def wave_operator_reference(profile: Sequence[ScalarField], coupling: CouplingSpec,
                            t_max: float, dt: float, tol: float = 1e-6,
                            max_iter: int = 30) -> WaveOperatorResult:
    """Initial datum whose solution scatters to the given asymptotic profile.

    Iterates the truncated Duhamel fixed point on the uniform grid
    t_i = i dt over [0, T]; stops when the sup-in-time H^1 increment of the
    iterate drops below tol.  Reaching max_iter returns a non-convergence
    report; residuals growing three consecutive times, or a non-finite
    nonlinearity, iterate or residual, raise WaveOperatorDivergence.  The
    neglected tail int_T^inf is estimated by the final node's Duhamel
    contribution and reported.
    """
    grid = profile[0].grid
    n_nodes = int(round(t_max / dt)) + 1
    if n_nodes < 2:
        raise ValueError("truncation time must cover at least one step")
    prof = [np.asarray(f.values, dtype=complex) for f in profile]

    # free trajectory exp(i t Lap) w0+ sampled on the node times
    mult = np.exp(-1j * grid.k_squared * dt)
    free = np.empty((n_nodes, coupling.n) + grid.shape, dtype=complex)
    spectra = [np.fft.fftn(a) for a in prof]
    for i in range(n_nodes):
        for mu in range(coupling.n):
            free[i, mu] = np.fft.ifftn(spectra[mu])
            spectra[mu] = spectra[mu] * mult

    def nonlinearity(node, t):
        arrs = [node[mu] for mu in range(coupling.n)]
        try:
            gs = _nonlinear_exponents(arrs, coupling, t)
        except NanAbortError as err:
            raise WaveOperatorDivergence(
                residuals, f"non-finite nonlinearity at t = {err.t}") from err
        return [g * a for g, a in zip(gs, arrs)]

    back = np.conj(mult)  # exp(+i dt |k|^2): propagator exp(-i dt Lap) ... inverse step

    w = free.copy()
    residuals: list[float] = []
    grow = 0
    converged = False
    message = ""
    # overflow shows up as a non-finite nonlinearity, iterate or residual,
    # each of which raises WaveOperatorDivergence
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            new = np.empty_like(w)
            h_next = nonlinearity(w[-1], (n_nodes - 1) * dt)
            new[-1] = free[-1]
            # S(t_i) = exp(-i dt Lap) S(t_{i+1}) + (dt/2)(h(t_i) + exp(-i dt Lap) h(t_{i+1}))
            S = [np.zeros(grid.shape, dtype=complex) for _ in range(coupling.n)]
            for i in range(n_nodes - 2, -1, -1):
                h_here = nonlinearity(w[i], i * dt)
                for mu in range(coupling.n):
                    carried = np.fft.ifftn(np.fft.fftn(S[mu] + 0.5 * dt * h_next[mu]) * back)
                    S[mu] = carried + 0.5 * dt * h_here[mu]
                    new[i, mu] = free[i, mu] + 1j * S[mu]
                h_next = h_here
            # node 0 is sampled and the recursion carries every later node into
            # it, so a non-finite value anywhere makes a sampled gap non-finite
            gaps = [sum(ScalarField(new[i, mu] - w[i, mu], grid).h1_norm()
                        for mu in range(coupling.n))
                    for i in range(0, n_nodes, max(1, n_nodes // 64))]
            if not all(math.isfinite(g) for g in gaps):
                raise WaveOperatorDivergence(
                    residuals, f"non-finite iterate or residual in iteration {it}")
            res = max(gaps)
            residuals.append(res)
            w = new
            if res < tol:
                converged = True
                break
            if len(residuals) >= 2 and res > residuals[-2]:
                grow += 1
                if grow >= 3:
                    raise WaveOperatorDivergence(residuals)
            else:
                grow = 0
        else:
            message = (f"fixed point did not reach tol = {tol} within {max_iter} "
                       "iterations; residual history attached")

    tail = dt * sum(ScalarField(h, grid).h1_norm()
                    for h in nonlinearity(w[-1], (n_nodes - 1) * dt))
    state0 = state_from_arrays(0.0, [w[0, mu] for mu in range(coupling.n)],
                               coupling, grid)
    return WaveOperatorResult(state0=state0, converged=converged,
                              iterations=len(residuals),
                              residuals=tuple(residuals), tail_estimate=tail,
                              message=message)


def evolve_reference(state: SystemState, params: StepParams,
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
