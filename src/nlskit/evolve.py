"""Time evolution by Strang splitting with exact substeps.

Both substeps are exact flows:

  * linear: each spectral coefficient is multiplied by exp(-i |k|^2 tau),
    the free Schrodinger group (unitary, mass preserved to rounding);
  * nonlinear: with g_mu = sum_nu beta[mu,nu] |u_nu|^{p+1} |u_mu|^{p-1},
    each field picks up the phase exp(-i tau g_mu).  The moduli |u_mu| are
    constant along this flow, so the substep is exact and preserves every
    pointwise modulus.

The components couple only pointwise, so a step does the same work on each
of them.  The stepper holds them stacked as one (N, M, ..., M) complex array
and works on the whole stack: each transform is one in-place
``grid.transform`` call, and two helpers do the rest:

  * ``_nonlinear_exponents``: every g_mu at once, into a real (N, ...)
    buffer;
  * ``_rotate``: u <- exp(-i tau g) u in place, the phase written with
    cos/sin into a complex scratch array.

At d = 3 the stack is large enough that its transforms and its rotation run
one block of components per worker of ``grid.worker_pool``, with the same
values bit for bit; d = 1 and d = 2 stacks of the usual sizes stay on the
calling thread.  There ``evolve`` with a sink also steps and sinks at once:
its stepping loop runs as one pool task while the calling thread runs the
sink (``grid.overlap``).  The stack then splits only while the sink's thread
waits for a snapshot, and the sink's arrays only while the loop waits for
the sink (``grid.splits``).

``linear_substep``, ``nonlinear_substep``, ``strang_step`` and ``evolve``
all use them, so one ``strang_step`` equals a one-step ``evolve`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import overlap, row_blocks, run_blocks, splits, transform
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
        if not 0 <= self.t_final < math.inf:
            raise ValueError(f"t_final must be >= 0 and finite, got {self.t_final}")
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(f"t_final / dt must be finite, got {self.t_final} / {self.dt}")
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


def _stack(state: SystemState) -> np.ndarray:
    """A fresh (N, ...) complex array holding the component fields."""
    return np.array([f.values for f in state.fields], dtype=complex)


# grid points per component in one chunk of the exponents and the rotation:
# their scratch is one chunk in size, so a stepper that runs beside its sink
# holds little more than its stack
_CHUNK_POINTS = 2 ** 14


def _chunk_rows(shape: tuple[int, ...]) -> int:
    """Rows of axis 1 of an (N, M, ...) array in one chunk: _CHUNK_POINTS
    points per component, or one row if a row holds more."""
    return max(1, _CHUNK_POINTS // math.prod(shape[2:]))


def _nonlinear_exponents(stack, coupling: CouplingSpec, t: float,
                         out: np.ndarray | None = None,
                         work: np.ndarray | None = None) -> np.ndarray:
    """g_mu = sum_nu beta[mu,nu] |u_nu|^{p+1} |u_mu|^{p-1} for every component
    of ``stack`` (anything ``np.asarray`` makes an (N, ...) array), written
    into ``out`` (a new real array if None) and returned.  The work runs one
    chunk of grid rows at a time (``_chunk_rows``) in a real (2N+1, ...) scratch
    array: ``work``, a caller-owned one of the stack's shape, or else one
    chunk made here; a caller that passes both allocates nothing at p >= 1
    and N <= 3.  The p < 1 case (decoupled mode only) sets g_mu = 0 wherever
    |u_mu| vanishes, where the product g_mu u_mu is zero anyway.  A
    non-finite exponent raises NanAbortError at t, the time of the step
    being taken, chained to a ValueError naming the component and grid index
    (the first in the order of the whole array); the overflow that produced
    it is that error, not a RuntimeWarning.

    The sum over nu does not depend on how the components are labelled: the
    cross terms are added first (two floats add commutatively; three or more
    are sorted pointwise), then the self term.  Relabelling the components
    and beta together therefore relabels g_mu bit for bit.  Every operation
    is pointwise, so chunks give the values of one whole-array pass."""
    stack = np.asarray(stack)
    p, beta, n = coupling.p, coupling.beta, coupling.n
    if out is None:
        out = np.empty(stack.shape)
    rows = _chunk_rows(stack.shape)
    if work is None:
        work = np.empty((2 * n + 1, min(rows, stack.shape[1])) + stack.shape[2:])
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, stack.shape[1], rows):
            u, g = stack[:, a:a + rows], out[:, a:a + rows]
            # |u_mu| (later |u_mu|^{p-1}), |u_mu|^{p+1}, one product term
            w = work[:, :u.shape[1]]
            fac, pow_p1, term = w[:n], w[n:2 * n], w[2 * n]
            np.abs(u, out=fac)
            pow_p1[...] = fac
            pow_p1 **= p + 1.0  # in place, ** keeps its sqrt and square fast paths
            for mu, s in enumerate(g):
                cross = [nu for nu in range(n) if nu != mu and beta[mu, nu] != 0.0]
                s.fill(0.0)
                if len(cross) > 2:
                    for c in np.sort([beta[mu, nu] * pow_p1[nu] for nu in cross], axis=0):
                        s += c
                else:
                    for nu in cross:
                        s += np.multiply(beta[mu, nu], pow_p1[nu], out=term)
                if beta[mu, mu] != 0.0:
                    s += np.multiply(beta[mu, mu], pow_p1[mu], out=term)
            if p > 1.0:
                if p != 2.0:  # |u|^1 is |u|
                    np.power(fac, p - 1.0, out=fac)
                g *= fac
            elif p < 1.0:
                vanishing = fac <= MIN_MODULUS
                fac[vanishing] = 1.0
                fac **= p - 1.0
                fac[vanishing] = 0.0
                g *= fac
        # a sum is finite only if every term is; a finite sum can still
        # overflow, so a non-finite one is checked term by term
        if not math.isfinite(out.sum()) and not np.isfinite(out).all():
            mu, *idx = (int(i[0]) for i in np.nonzero(~np.isfinite(out)))
            raise NanAbortError(t) from ValueError(
                f"non-finite nonlinear exponent in component {mu} "
                f"at grid index {tuple(idx)}")
    return out


def _rotate(stack: np.ndarray, g: np.ndarray, tau: float) -> None:
    """stack <- exp(-i tau g) stack in place; ``g`` is overwritten with
    -tau g.  The phase is written one chunk of grid rows at a time
    (``_chunk_rows``) into a scratch chunk made here and not kept between calls,
    so a stepper holds little of it while its sink runs.  A large stack
    rotates each block of components as one task (``grid.row_blocks``)."""
    rows = _chunk_rows(stack.shape)

    def rotate(block):
        phase = np.empty(g[block, :rows].shape, dtype=complex)
        for a in range(0, stack.shape[1], rows):
            theta = g[block, a:a + rows]
            chunk = phase[:, :theta.shape[1]]
            np.multiply(theta, -tau, out=theta)
            np.cos(theta, out=chunk.real)
            np.sin(theta, out=chunk.imag)
            stack[block, a:a + rows] *= chunk
    run_blocks(rotate, row_blocks(len(stack), stack.size))


def linear_substep(state: SystemState, tau: float) -> SystemState:
    """Free flow over time tau: multiplier exp(-i |k|^2 tau) per component."""
    g = state.grid
    stack = transform(g, _stack(state))
    stack *= np.exp(-1j * g.k_squared * tau)
    return state_from_arrays(state.t + tau, transform(g, stack, inverse=True),
                             state.coupling, g)


def nonlinear_substep(state: SystemState, tau: float) -> SystemState:
    """Exact nonlinear phase rotation u_mu <- exp(-i tau g_mu) u_mu.

    Does not advance t: the nonlinear flow is applied within a split step
    whose time bookkeeping is owned by the linear parts.
    """
    stack = _stack(state)
    g = _nonlinear_exponents(stack, state.coupling, state.t)
    _rotate(stack, g, tau)
    return state_from_arrays(state.t, stack, state.coupling, state.grid)


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
    snapshot_stride-th step, on the thread that called evolve.  Non-finite
    values abort with NanAbortError (checked at snapshot cadence, and on the
    initial state and its nonlinear exponents before the sink sees it, so
    finite but overflowing data aborts at t0 before any observable
    overflows); the sink has then seen every earlier snapshot.
    Boundary-mass accounting is an observable and is left to the sink, which
    can flag the run invalid without interrupting it.

    The N components are stepped as one (N, M, ..., M) complex stack with
    one real exponent buffer of the same shape, both allocated once per
    call, after the step-0 sink call: each transform is one in-place
    ``grid.transform`` call, the exponents are written into the buffer, and
    the phase rotation multiplies the stack in place.  A snapshot hands the
    sink the stack itself, and stepping goes on in a copy.

    When the calling thread ``grid.splits`` the stack (d = 3 at the usual
    sizes) and there is a sink, the stepping loop runs as one task of
    ``grid.worker_pool`` while the calling thread runs the sink
    (``grid.overlap``).  The loop hands over a snapshot once the sink has
    returned for the one before, so at most one is in flight; the calling
    thread copies it for the sink, and stepping goes on in the stack.  A
    sink error stops the loop, and evolve raises it once the loop has
    ended.

    Consecutive half linear steps inside a snapshot block are fused into
    whole steps; the composition is mathematically identical to repeated
    strang_step.
    """
    c = state.coupling
    if not state.is_finite():
        raise NanAbortError(state.t)
    _nonlinear_exponents([f.values for f in state.fields], c, state.t)
    if sink is not None:
        sink(state)
    if params.n_steps == 0:
        return state
    g = state.grid
    if sink is not None and splits(c.n * g.npoints):
        # the calling thread copies each snapshot, so the pool thread
        # allocates no stack after its first: a thread's freed memory stays
        # in its own malloc arena, and with the copies made on the pool
        # thread a d = 3, M = 48, N = 2 run peaked 9 MB higher
        def produce(send, check):
            def emit(t, stack):
                send((t, stack))  # returns once the calling thread has copied it
                return stack
            return _steps(state, params, emit, check)
        return overlap(produce, lambda item: state_from_arrays(item[0], item[1].copy(), c, g),
                       sink)

    def emit(t, stack):
        sink(state_from_arrays(t, stack, c, g))
        return stack.copy()  # the sink may keep the state it was given
    return _steps(state, params, emit if sink is not None else None, lambda: None)


def _steps(state: SystemState, params: StepParams,
           emit: Callable[[float, np.ndarray], np.ndarray] | None,
           check: Callable[[], None]) -> SystemState:
    """evolve's one stepping loop from ``state``, after its step-0 sink call:
    check() before every step, and at every whole stride block
    stack = emit(t, stack), the array that the sink does not hold."""
    c = state.coupling
    g = state.grid
    dt = params.dt
    n_steps = params.n_steps
    # allocated after the first sink call, which therefore runs without them
    # (a sink's own transforms set the peak memory of a run)
    stack = _stack(state)
    exponents = np.empty(stack.shape)

    half = np.exp(-1j * g.k_squared * (dt / 2.0))
    # the 2/3 rule acts after each nonlinear substep; a 0/1 mask folds into
    # the multipliers that follow it
    full, last = half * half, half
    if params.dealias:
        full, last = full * g.dealias_mask, last * g.dealias_mask
    t = state.t
    step = 0
    while step < n_steps:
        block = min(params.snapshot_stride, n_steps - step)
        stack = transform(g, stack)
        stack *= half
        for inner in range(block):
            check()
            stack = transform(g, stack, inverse=True)
            _nonlinear_exponents(stack, c, state.t + (step + inner) * dt, out=exponents)
            _rotate(stack, exponents, dt)
            stack = transform(g, stack)
            stack *= full if inner < block - 1 else last
        stack = transform(g, stack, inverse=True)
        step += block
        t = state.t + step * dt
        if not np.isfinite(stack).all():
            raise NanAbortError(t)
        if emit is not None and step % params.snapshot_stride == 0:
            stack = emit(t, stack)
    return state_from_arrays(t, stack, c, g)
