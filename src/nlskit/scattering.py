"""Free-flow comparisons: admissible exponent pairs, space-time norm
accumulation, asymptotic profile extraction, and wave-operator construction.

A pair (q, r) is Schrodinger-admissible when 2 <= q, r <= inf,
(q, r, d) != (2, inf, 2) and 2/q + d/r = d/2.  The pair used for the power
nonlinearity is (q, r) = (4(p+1)/(d p), 2p+2); the admissibility relation
holds identically in exact rational arithmetic.

Asymptotic completeness side: given trajectory snapshots u(t_i), the
conjugated profiles v(t_i) = exp(-i t_i Lap) u(t_i) form a Cauchy sequence
in H^1 exactly when the solution scatters; the last profile is the
asymptotic datum and its per-component mass equals the conserved mass.

Wave-operator side: for a prescribed asymptotic profile w0+ the map

    K(w)(t) = exp(i t Lap) w0+  +  i int_t^T exp(i (t-s) Lap) h(w(s)) ds,
    h_mu(w) = sum_nu beta[mu,nu] |w_nu|^{p+1} |w_mu|^{p-1} w_mu,

is iterated to its fixed point on a uniform time grid over [0, T] (trapezoid
in s).  The iterate is held as the spectra of w(t_i) themselves; one
multiplier exp(+i dt |k|^2) moves both the free solution and the Duhamel
running sum one node back, so the integrand h at each node depends on that
node alone and the nodes of a sweep are evaluated concurrently.  w(0) is
the initial datum whose solution scatters to w0+; for small data the
iteration contracts geometrically.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .grid import ScalarField, h1_norms, transform
from .system import (CouplingSpec, RunningIntegral, Snapshot, SystemState, mass,
                     state_from_arrays)
from .evolve import NanAbortError, _nonlinear_exponents, linear_substep


@dataclass(frozen=True)
class StrichartzPair:
    """Admissible exponent pair with exact rational bookkeeping."""

    q: Fraction
    r: Fraction
    d: int
    admissible: bool
    violations: tuple[str, ...] = ()

    @property
    def qf(self) -> float:
        return float(self.q)

    @property
    def rf(self) -> float:
        return float(self.r)

    def identity_holds(self) -> bool:
        """2/q + d/r == d/2 in exact arithmetic."""
        return 2 / self.q + Fraction(self.d) / self.r == Fraction(self.d, 2)


def admissible_pair(p: float, d: int) -> StrichartzPair:
    """The pair (4(p+1)/(d p), 2p+2) attached to the power p in dimension d."""
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    if p <= 0:
        raise ValueError(f"power must be positive, got {p}")
    pf = Fraction(p)  # exact: binary floats are dyadic rationals
    q = 4 * (pf + 1) / (d * pf)
    r = 2 * pf + 2
    violations = []
    if q < 2:
        violations.append(f"q = {q} < 2 (p (d-2) > 2)")
    if r < 2:
        violations.append(f"r = {r} < 2")
    pair = StrichartzPair(q=q, r=r, d=d, admissible=not violations,
                          violations=tuple(violations))
    assert pair.identity_holds()
    return pair


def w1r_norm(f: ScalarField, r: float, grads: list[np.ndarray]) -> float:
    """W^{1,r} norm, (||f||_r^r + || |grad f| ||_r^r)^{1/r}; max-based at r = inf.
    ``grads`` are the spectral gradient components of f (``Snapshot.grads``)."""
    gmag = np.sqrt(sum(np.abs(g) ** 2 for g in grads))
    a = np.abs(f.values)
    if math.isinf(r):
        return float(max(a.max(initial=0.0), gmag.max(initial=0.0)))
    vol = f.grid.cell_volume
    return float((vol * np.sum(a ** r) + vol * np.sum(gmag ** r)) ** (1.0 / r))


class StrichartzAccumulator(RunningIntegral):
    """Running L^q_t W^{1,r}_x norm of the component sum along a trajectory:
    the running integral of its q-th power."""

    def __init__(self, pair: StrichartzPair):
        if not pair.admissible:
            raise ValueError(f"pair not admissible: {pair.violations}")
        super().__init__()
        self.pair = pair

    def update(self, state: SystemState | Snapshot):
        snap = Snapshot.of(state)
        s = sum(w1r_norm(f, self.pair.rf, grads)
                for f, grads in zip(snap.state.fields, snap.grads))
        self.add(snap.state.t, s ** self.pair.qf)

    def value(self) -> float:
        """q-th root of the accumulated integral."""
        return self.total ** (1.0 / self.pair.qf)


@dataclass
class ScatteringResult:
    profile: tuple[ScalarField, ...]                # asymptotic data
    residuals: tuple[tuple[float, float, float], ...]  # (t_i, t_j, H1 gap)
    converged: bool
    mass_mismatch: float                            # max relative per component
    message: str = ""


def asymptotic_profile(states: Sequence[SystemState], tol: float = 1e-6) -> ScatteringResult:
    """Conjugate the snapshots by the free flow and test the Cauchy property
    forward in time (evolve only steps forward).

    v(t_i) = exp(-i t_i Lap) u(t_i) in increasing t_i; consecutive H^1
    residuals are recorded and convergence is declared when the last residual
    is below tol with a non-increasing tail.  The returned profile is v at
    the latest snapshot.
    """
    if len(states) < 2:
        raise ValueError("need at least two snapshots")
    order = sorted(states, key=lambda s: s.t)
    grid = order[0].grid
    vs = [linear_substep(s, -s.t) for s in order]
    residuals = []
    for (sa, va), (sb, vb) in zip(zip(order, vs), zip(order[1:], vs[1:])):
        gap = sum(ScalarField(b.values - a.values, grid).h1_norm()
                  for a, b in zip(va.fields, vb.fields))
        residuals.append((sa.t, sb.t, gap))
    last = residuals[-1][2]
    tail = [r[2] for r in residuals[-3:]]
    # increases far below tol are rounding noise, not a diverging window
    monotone_tail = all(b <= a * (1.0 + 1e-12) or b < 0.01 * tol
                        for a, b in zip(tail, tail[1:]))
    converged = last < tol and monotone_tail
    msg = "" if monotone_tail else "residual tail is increasing: window not yet asymptotic"

    final = order[-1]
    mism = 0.0
    for mu in range(final.coupling.n):
        m_traj = mass(final, mu)
        mism = max(mism, abs(mass(vs[-1], mu) - m_traj) / max(m_traj, 1e-300))
    return ScatteringResult(profile=vs[-1].fields, residuals=tuple(residuals),
                            converged=converged, mass_mismatch=mism, message=msg)


class WaveOperatorDivergence(RuntimeError):
    """The fixed-point iteration diverged: its residuals grew over three
    consecutive iterations, or an iterate, its nonlinearity or its residual
    was not finite.  ``residuals`` holds the finite residuals so far."""

    def __init__(self, residuals, reason: str = "residuals grew 3 times in a row"):
        super().__init__(
            f"wave-operator iteration diverged ({reason}: "
            f"{[f'{r:.3e}' for r in residuals[-4:]]}); increase the truncation "
            "time T or shrink the profile amplitude")
        self.residuals = list(residuals)


@dataclass
class WaveOperatorResult:
    state0: SystemState
    converged: bool
    iterations: int
    residuals: tuple[float, ...]
    tail_estimate: float
    message: str = ""


def node_count(t_max: float, dt: float) -> int:
    """Nodes t_i = i dt of the wave operator's uniform time grid over [0, t_max]."""
    return int(round(t_max / dt)) + 1


def wave_operator(profile: Sequence[ScalarField], coupling: CouplingSpec,
                  t_max: float, dt: float, tol: float = 1e-6,
                  max_iter: int = 30) -> WaveOperatorResult:
    """Initial datum whose solution scatters to the given asymptotic profile.

    Iterates the truncated Duhamel fixed point on the uniform grid
    t_i = i dt over [0, T] until the sup-in-time H^1 increment of the iterate
    drops below tol, holding W_i = FFT(w(t_i)) in one n_nodes x N x M^d
    buffer.  With E = exp(+i dt |k|^2), the multiplier that moves a spectrum
    of the free flow one node back, and G_i = FFT(h(w(t_i))) from the
    previous iterate, a sweep runs back from node T:

        S_i = E (S_{i+1} + (dt/2) G_{i+1}) + (dt/2) G_i,   S_T = 0,
        F_i = E F_{i+1},   F_T = FFT(exp(i T Lap) w0+),
        W_i = F_i + i S_i.

    Each G_i is a pure per-node map of W_i (inverse transform, nonlinearity,
    forward transform), so the node integrands of a sweep run on a thread
    pool, one worker per CPU this process may run on (fewer when the node
    buffer is short), each with its own scratch; at most two blocks of one
    node per worker are in flight, the next block computing while the sweep
    consumes the current one.  Every node is computed the same way on any
    thread, so the result does not depend on the worker count.

    Reaching max_iter returns a non-convergence report; residuals growing
    three consecutive times, or a non-finite nonlinearity, iterate or
    residual, raise WaveOperatorDivergence.  The neglected tail int_T^inf is
    estimated by the final node's Duhamel contribution and reported.
    """
    from concurrent.futures import ThreadPoolExecutor  # only wave-op runs start threads

    grid = profile[0].grid
    n_nodes = node_count(t_max, dt)
    if n_nodes < 2:
        raise ValueError("truncation time must cover at least one step")
    back = np.exp(1j * dt * grid.k_squared)  # E
    W = np.empty((n_nodes, coupling.n) + grid.shape, dtype=complex)
    W[-1] = [f.values for f in profile]
    transform(grid, W[-1])
    W[-1] *= np.exp(-1j * (n_nodes - 1) * dt * grid.k_squared)
    for i in range(n_nodes - 2, -1, -1):  # the free trajectory
        np.multiply(W[i + 1], back, out=W[i])

    def h1(spectra):  # summed H^1 norms of spectra held as plain FFTs
        return float(h1_norms(grid, spectra).sum()) / grid.npoints

    # a worker costs about 4 node sizes (two in-flight nodes, its exponents
    # and their (2N+1) x M^d real scratch): n_nodes // 16 workers keep that
    # under a quarter of the node buffer, whatever the CPU count
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(cpus or 1, n_nodes // 16))
    window = 2 * workers
    half_h = np.empty((window,) + W.shape[1:], dtype=complex)
    scratch = threading.local()
    residuals: list[float] = []

    def half_integrand(i, out):
        """out = (dt/2) G_i, from the node buffer W_i."""
        if not hasattr(scratch, "exponents"):
            scratch.exponents = np.empty(out.shape)
            scratch.work = np.empty((2 * coupling.n + 1,) + grid.shape)
        # errstate is per thread; overflow surfaces as NanAbortError
        with np.errstate(over="ignore", invalid="ignore"):
            out[...] = W[i]
            transform(grid, out, inverse=True)
            out *= _nonlinear_exponents(out, coupling, i * dt, out=scratch.exponents,
                                        work=scratch.work)
            transform(grid, out)
            out *= 0.5 * dt
        return out

    def result(future):
        try:
            return future.result()
        except NanAbortError as err:
            raise WaveOperatorDivergence(
                residuals, f"non-finite nonlinearity at t = {err.t}") from err

    half_h_T = np.empty_like(W[-1])
    free, sigma, new = (np.empty_like(W[-1]) for _ in range(3))
    # the last node holds F_T in every iterate: its zero increment is not sampled
    sampled = range(0, n_nodes, max(1, n_nodes // 64))
    order = range(n_nodes - 2, -1, -1)
    grow = 0
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        result(pool.submit(half_integrand, n_nodes - 1, half_h_T))
        # overflow shows up as a non-finite nonlinearity, iterate or residual,
        # each of which raises WaveOperatorDivergence
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(1, max_iter + 1):
                pending = deque(pool.submit(half_integrand, i, half_h[q % window])
                                for q, i in enumerate(order[:window]))
                free[...] = W[-1]
                sigma[...] = half_h_T  # S_T + (dt/2) G_T
                gaps = []
                for q, i in enumerate(order):
                    h = result(pending.popleft())
                    sigma *= back
                    sigma += h  # S_i
                    free *= back
                    w_i = new if i in sampled else W[i]
                    np.multiply(sigma, 1j, out=w_i)
                    w_i += free
                    sigma += h  # S_i + (dt/2) G_i, carried to node i - 1
                    if q + window < len(order):
                        pending.append(pool.submit(half_integrand, order[q + window], h))
                    if i in sampled:
                        W[i] -= new
                        gaps.append(h1(W[i]))
                        W[i] = new
                # node 0 is sampled and the running sum carries every later node
                # into it, so a non-finite value anywhere makes a sampled gap non-finite
                if not all(math.isfinite(g) for g in gaps):
                    raise WaveOperatorDivergence(
                        residuals, f"non-finite iterate or residual in iteration {it}")
                res = max(gaps)
                residuals.append(res)
                if res < tol:
                    break
                grow = grow + 1 if len(residuals) >= 2 and res > residuals[-2] else 0
                if grow >= 3:
                    raise WaveOperatorDivergence(residuals)
    finally:
        pool.shutdown(cancel_futures=True)

    converged = bool(residuals) and residuals[-1] < tol
    message = "" if converged else (f"fixed point did not reach tol = {tol} within "
                                    f"{max_iter} iterations; residual history attached")
    return WaveOperatorResult(
        # from a copy, so that the returned state does not keep W alive
        state0=state_from_arrays(0.0, transform(grid, W[0].copy(), inverse=True), coupling, grid),
        converged=converged, iterations=len(residuals), residuals=tuple(residuals),
        tail_estimate=2.0 * h1(half_h_T), message=message)
