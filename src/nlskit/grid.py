"""Periodic spectral grid, Fourier transforms, and free-space kernel pairings.

Conventions
-----------
The computational box is ``[-L, L)^d`` with ``M`` points per axis and
spacing ``h = 2L/M``.  Grid points are ``x_m = -L + m h`` and the discrete
wavenumbers are ``k_j = (pi/L) j`` for integers ``j in [-M/2, M/2)``
(FFT ordering).

The forward transform carries the ``1/M^d`` factor and the half-box phase
correction, so the coefficient ``c_k`` of a field ``f`` satisfies

    f(x) = sum_k c_k exp(i k.x),        c_0 = mean(f),

and Parseval reads ``h^d sum_m |f_m|^2 = (2L)^d sum_k |c_k|^2``.  Every
inverse of this convention (values, gradient, Laplacian) is one ``synthesize``
call; every unpadded complex transform is one ``transform`` call (one
in-place ``numpy.fft`` pass per axis, batched over leading axes; the inverse
applies its 1/M^d once, after the first pass, as pocketfft's ``ifftn`` does,
so both directions equal ``fftn``/``ifftn`` bit for bit); every ``j`` comes
from ``mode_numbers``.  ``numpy`` is the package's one runtime dependency
and ``numpy.fft`` its one FFT library; the one special function beyond
``math`` is ``_integral_of_j0``, a quadrature for the d = 2 analytic kernel.

Free-space pairings ``int f (K * g) dx`` of real data (the bilinear
interaction weights) zero-pad the box by a factor of two per axis and use the
transform of the kernel restricted to the doubled box, so periodic images
cannot contaminate results for data supported well inside the original box.
Singular kernels are truncated: the value assigned to the ``r = 0`` cell is
the exact average of the kernel over one grid cell (closed form per
dimension).  A pairing goes back to physical space once per potential:
``kernel_potential`` turns the real-to-complex half-spectrum of g into the
convolution K * g at the box points (one cropped inverse padded transform),
and every pairing of that potential is a dot product on the box.  The
gradient pairing ``sum_a int d_a f (K * d_a f)`` stays on the half-spectrum,
as the sum of ``|k|^2 K_hat |f_hat|^2`` by Parseval on the doubled box
(``kernel_gradient_product``).  Padded transforms run one ``numpy.fft`` pass
per axis and skip the rows that hold only padding zeros, forward
(``padded_rfft``) and back (``kernel_potential``); kernel transforms are
cached as real half-spectra.

The package has one thread pool (``worker_pool``: one worker per CPU in the
process's affinity set, made on first use), and every task reaches it
through ``submit``, in a copy of the caller's context.  Large arrays use it
at four sites: ``transform`` of a stack runs each block of components'
whole transform as one task, ``padded_rfft`` and ``kernel_potential`` split
the lines of each padded pass, ``evolve._rotate`` rotates each block of
components as one task, and ``overlap`` runs a producer (the stepping loop
of a large ``evolve``) as one task while the calling thread consumes what
it sends (the diagnostics sink).  A site splits only an array of at least
``PARALLEL_MIN_POINTS`` points, and only on the thread that ``splits``: the
main thread, or during an ``overlap`` whichever of its two threads runs
while the other waits.  So the tasks' own nested calls (and those of
``scattering.wave_operator``'s node integrands, which run on the same pool)
stay inline.  A smaller state never splits; instead ``verify.run_checks``
runs its dt/2 trajectory as one task beside its dt one when the main thread
``runs_beside`` it.  Of the benchmark's d = 1 and d = 2 runs, only that
verify-identities trajectory and the wave-operator integrands start a
thread.  pocketfft transforms one line at a time and the other work is
elementwise, so a block computes each value exactly as the whole array
would: results do not depend on the worker count or on the thread.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Callable

import numpy as np

# Cell averages over the unit cell [-1/2, 1/2)^d (scaled by h at use site):
#   int 1/r over the centered unit square  = 4 ln(1 + sqrt 2)
#   int 1/r over the centered unit cube    = 3 ln(2 + sqrt 3) - pi/2
#   mean of r over the centered unit square/cube (numerically to 8 digits)
_RECIP_CELL_AVG = {2: 4.0 * math.log(1.0 + math.sqrt(2.0)),
                   3: 3.0 * math.log(2.0 + math.sqrt(3.0)) - math.pi / 2.0}
_ABS_CELL_AVG = {1: 0.25,
                 2: (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 6.0,
                 3: 0.48029598}


@lru_cache(maxsize=32)
def mode_numbers(n: int) -> np.ndarray:
    """Mode numbers 0, 1, ..., n/2-1, -n/2, ..., -1 as floats; cached, read-only."""
    j = np.rint(np.fft.fftfreq(n) * n)
    j.setflags(write=False)
    return j


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-L, L)^d sampled with M points per axis.

    Parameters
    ----------
    d : spatial dimension, 1, 2 or 3.
    m : points per axis; must be even and >= 8.
    l : box half-width L > 0.
    """

    d: int
    m: int
    l: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.m < 8 or self.m % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 8, got {self.m}")
        if not (self.l > 0 and math.isfinite(self.l)):
            raise ValueError(f"box half-width must be positive, got {self.l}")

    @property
    def h(self) -> float:
        """Grid spacing 2L/M."""
        return 2.0 * self.l / self.m

    @property
    def npoints(self) -> int:
        return self.m ** self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.h ** self.d

    @property
    def box_volume(self) -> float:
        return (2.0 * self.l) ** self.d

    def unit_cube_problem(self) -> str:
        """Why grid-aligned unit cubes do not fit ("" when they do): the box
        must contain one (2L >= 1) and h must divide 1 within 1e-9."""
        if 2.0 * self.l < 1.0:
            return "box is smaller than the unit cube"
        if abs(round(1.0 / self.h) * self.h - 1.0) > 1e-9:
            return f"grid spacing h = {self.h} does not divide the unit cube edge"
        return ""

    @cached_property
    def axis_coordinates(self) -> np.ndarray:
        """Physical coordinates along one axis, x_m = -L + m h."""
        x = -self.l + self.h * np.arange(self.m)
        x.setflags(write=False)
        return x

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        """Wavenumbers along one axis in FFT ordering, k_j = (pi/L) j."""
        k = (math.pi / self.l) * mode_numbers(self.m)
        k.setflags(write=False)
        return k

    @cached_property
    def x_mesh(self) -> tuple[np.ndarray, ...]:
        mesh = np.meshgrid(*([self.axis_coordinates] * self.d), indexing="ij")
        for a in mesh:
            a.setflags(write=False)
        return tuple(mesh)

    @cached_property
    def k_mesh(self) -> tuple[np.ndarray, ...]:
        mesh = np.meshgrid(*([self.axis_wavenumbers] * self.d), indexing="ij")
        for a in mesh:
            a.setflags(write=False)
        return tuple(mesh)

    @cached_property
    def k_squared(self) -> np.ndarray:
        k2 = sum(k * k for k in self.k_mesh)
        k2.setflags(write=False)
        return k2

    @cached_property
    def k_modulus(self) -> np.ndarray:
        km = np.sqrt(self.k_squared)
        km.setflags(write=False)
        return km

    @cached_property
    def _phase(self) -> np.ndarray:
        # (-1)^{j_1 + ... + j_d}: converts plain FFT output (modes anchored at
        # x = -L) into coefficients of exp(i k.x) with the true coordinates.
        s = np.where(mode_numbers(self.m) % 2 == 0, 1.0, -1.0)
        out = reduce(np.multiply.outer, [s] * self.d)
        out.setflags(write=False)
        return out

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keeps per-axis mode numbers |j| <= M/3."""
        keep = np.abs(mode_numbers(self.m)) <= self.m // 3
        out = reduce(np.multiply.outer, [keep] * self.d)
        out.setflags(write=False)
        return out


@dataclass
class ScalarField:
    """One complex scalar field: its values at the grid points."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}")

    def l2_norm(self) -> float:
        """L2 norm under the grid quadrature."""
        return math.sqrt(self.grid.cell_volume * float(np.sum(np.abs(self.values) ** 2)))

    def h1_norm(self) -> float:
        """Inhomogeneous Sobolev norm, ||f||^2 = sum_k (1+|k|^2) |c_k|^2 (2L)^d."""
        return float(h1_norms(self.grid, forward_transform(self)))

    def lq_norm(self, q: float) -> float:
        """L^q norm by grid quadrature; q = inf returns the max modulus."""
        a = np.abs(self.values)
        if math.isinf(q):
            return float(a.max(initial=0.0))
        return float((self.grid.cell_volume * np.sum(a ** q)) ** (1.0 / q))


def field_from_function(grid: GridSpec, fn: Callable[..., np.ndarray]) -> ScalarField:
    """Sample fn(x_1, ..., x_d) on the grid into a field."""
    return ScalarField(np.asarray(fn(*grid.x_mesh), dtype=complex), grid)


# Arrays smaller than this run inline: below it a thread handoff costs about
# what it saves (a split at 2^15 points made d = 2 padded passes slower).
PARALLEL_MIN_POINTS = 2 ** 16

_pool = None
_pool_lock = threading.Lock()


def cpu_count() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def worker_pool():
    """The package's one ThreadPoolExecutor, one worker per CPU, made on first
    use; its threads start as tasks arrive and end with the process."""
    global _pool
    with _pool_lock:
        if _pool is None:
            import concurrent.futures  # only runs that use the pool start threads
            _pool = concurrent.futures.ThreadPoolExecutor(cpu_count(), "nlskit")
        return _pool


def submit(fn: Callable[..., object], *args):
    """fn(*args) as one task of the pool, in a copy of the caller's context
    (so numpy's errstate holds in it); returns its Future."""
    return worker_pool().submit(contextvars.copy_context().run, fn, *args)


def splits(points: int) -> bool:
    """Whether the calling thread splits work on an array of ``points``
    points over the pool: at least PARALLEL_MIN_POINTS of them, at least 2
    CPUs, and the calling thread the one that may split.  That is the main
    thread, except while an ``overlap`` runs: then it is whichever of its two
    threads runs while the other waits, and neither while both run.  No
    other thread splits, so a ``run_blocks`` task or a wave-operator node
    integrand never submits work of its own, which could wait for ever on a
    pool whose workers all wait."""
    if points < PARALLEL_MIN_POINTS or cpu_count() < 2:
        return False
    handoff = _handoff
    if handoff is None:
        return threading.current_thread() is threading.main_thread()
    return threading.get_ident() == handoff.splitter


def runs_beside(points: int) -> bool:
    """Whether the calling thread runs a whole job of its own on the pool
    beside its work on arrays of ``points`` points: fewer than
    PARALLEL_MIN_POINTS of them, at least 2 CPUs, and the calling thread the
    main thread with no ``overlap`` running.  A larger run already uses every
    CPU through its splits, a worker held by a whole job would stall the
    splits of an overlap's threads, and no other thread submits work."""
    return (points < PARALLEL_MIN_POINTS and cpu_count() >= 2 and _handoff is None
            and threading.current_thread() is threading.main_thread())


def row_blocks(rows: int, points: int) -> list[slice]:
    """Blocks of range(rows), one per worker, for a task on an array of
    ``points`` points that the calling thread ``splits``; otherwise the one
    block slice(None)."""
    workers = min(rows, cpu_count()) if splits(points) else 1
    if workers < 2:
        return [slice(None)]
    bounds = [rows * b // workers for b in range(workers + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def run_blocks(fn: Callable[[slice], object], blocks: list[slice]) -> None:
    """fn(block) for every block: the first on the calling thread and the
    others on the pool, each in a copy of the caller's context (so numpy's
    errstate holds in all of them); returns once all are done and re-raises
    the first error."""
    if len(blocks) == 1:
        fn(blocks[0])
        return
    futures = [submit(fn, b) for b in blocks[1:]]
    try:
        fn(blocks[0])
    finally:
        for f in futures:
            f.exception()
    for f in futures:
        f.result()


class _Stopped(Exception):
    """Ends an overlap's task once its calling thread has stopped."""


class _Handoff:
    """What the two threads of an ``overlap`` share, under one condition:
    the item sent and not yet taken, who waits, and so who may split."""

    def __init__(self):
        self.cond = threading.Condition()
        self.item = None
        self.caller, self.task = threading.get_ident(), None
        self.caller_waits = True          # from the submission on
        self.task_waits = self.consuming = self.done = self.stopped = False
        self.splitter = None

    def _turn(self):
        """Splitting goes to the side that runs while the other waits."""
        if self.done or self.task_waits:
            self.splitter = self.caller
        else:
            self.splitter = self.task if self.caller_waits else None

    def _wait(self, until):
        while not (until() or self.stopped):
            self.cond.wait()

    # the task's side
    def run(self, produce):
        with self.cond:
            self.task = threading.get_ident()
            self._turn()
        try:
            return produce(self.send, self.check)
        finally:
            with self.cond:
                self.done = True
                self._turn()
                self.cond.notify()

    def check(self):
        if self.stopped:
            raise _Stopped

    def send(self, item):
        with self.cond:
            self.task_waits = True
            self._turn()
            self._wait(lambda: not self.consuming)
            self.check()
            self.item = item
            self.cond.notify()
            self._wait(lambda: not self.task_waits)  # until taken
            if self.task_waits:  # stopped first
                raise _Stopped

    # the calling thread's side
    def receive(self):
        """The next item, once the last one is consumed; None after the last."""
        with self.cond:
            self.consuming = False
            self.caller_waits = True
            self._turn()
            self.cond.notify()
            self._wait(lambda: self.item is not None or self.done)
            self.caller_waits = False
            self._turn()
            return self.item

    def taken(self):
        with self.cond:
            self.item = None
            self.task_waits = False
            self.consuming = True
            self._turn()
            self.cond.notify()

    def stop(self):
        with self.cond:
            self.stopped = True
            self.cond.notify()


# the overlap that runs, if any: process-wide like the pool whose splits it
# governs, since row_blocks reads it below every site that splits
_handoff: _Handoff | None = None


def overlap(produce: Callable[[Callable[[object], None], Callable[[], None]], object],
            take: Callable[[object], object], consume: Callable[[object], None]) -> object:
    """produce(send, check) as one task on the pool while the calling thread
    runs consume(take(item)) for each item (never None) that the task sends;
    returns what produce returns.

    send(item) returns once the calling thread has run take(item), so the
    task may change the item after: take runs while the task waits, consume
    while it runs on.  The task sends the next item once consume has
    returned, so at most one is in flight, and the calling thread takes them
    in order.  While one side waits for the other, the side that runs may
    split its arrays (``splits``).  An error of produce is raised once
    consume has returned for every item sent before it.  An error of take or
    consume, or any other exception on the calling thread, makes send and
    check raise in the task, and is raised once the task has ended.

    Called while another overlap runs (from its take or consume), produce
    runs inline with send = consume o take: a second waiting task could hold
    the worker that the first one's splits need."""
    global _handoff
    if _handoff is not None:
        return produce(lambda item: consume(take(item)), lambda: None)
    handoff = _handoff = _Handoff()
    try:
        future = submit(handoff.run, produce)
        try:
            while (item := handoff.receive()) is not None:
                item = take(item)
                handoff.taken()
                consume(item)
        except BaseException:
            handoff.stop()
            if not future.cancel():
                future.exception()
            raise
        return future.result()
    finally:
        _handoff = None


def transform(grid: GridSpec, values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """fftn (or, if ``inverse``, ifftn, which carries the 1/M^d) over the last
    grid.d axes of ``values``, batched over any leading axes.  ``values``
    must be a complex128 array (or view) that the caller owns: it is
    transformed in place and the result shares its memory.

    One in-place ``numpy.fft`` pass per axis, axes -d, ..., -1 in that order.
    The inverse scales once by 1/M^d right after its first pass, where
    pocketfft's own ifftn applies it, and runs every other pass unscaled:
    the result is then ifftn bit for bit, which a 1/M scaling in each pass
    is not (it differs in the last bit at M = 48, d = 3).

    A large stack splits its leading axis into row blocks, each transformed
    whole by one task (``row_blocks``)."""
    blocks = row_blocks(len(values), values.size) if values.ndim > grid.d else [slice(None)]
    if len(blocks) > 1:
        run_blocks(lambda rows: transform(grid, values[rows], inverse), blocks)
        return values
    axes = range(-grid.d, 0)
    if not inverse:
        for axis in axes:
            np.fft.fft(values, axis=axis, out=values)
        return values
    if grid.d == 1:
        return np.fft.ifft(values, axis=-1, out=values)
    np.fft.ifft(values, axis=axes[0], norm="forward", out=values)
    values *= 1.0 / grid.npoints
    for axis in axes[1:]:
        np.fft.ifft(values, axis=axis, norm="forward", out=values)
    return values


def h1_norms(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Inhomogeneous Sobolev norms sqrt((2L)^d sum_k (1+|k|^2) |c_k|^2) of the
    coefficients ``coeffs`` over its last grid.d axes, one per leading index.
    Only moduli enter, so spectra that differ from the coefficients by a
    unimodular factor per mode (the half-box phase, a free flow) give the
    same norms; a plain ``transform`` output gives M^d times them."""
    w = np.abs(coeffs)
    w *= w
    w *= 1.0 + grid.k_squared
    sums = w.reshape(w.shape[:w.ndim - grid.d] + (-1,)).sum(axis=-1)
    return np.sqrt(grid.box_volume * sums)


def forward_transform(f: ScalarField) -> np.ndarray:
    """The coefficients c_k of exp(i k.x) in f; c_0 is the mean of f and
    ``synthesize(f.grid, c, 1.0)`` gives the values back."""
    g = f.grid
    coeff = transform(g, f.values.astype(complex))
    coeff *= g._phase / g.npoints
    return coeff


def synthesize(grid: GridSpec, coeffs: np.ndarray, multiplier: complex | np.ndarray) -> np.ndarray:
    """Physical values with coefficients multiplier * coeffs (1.0, i k_a or
    -|k|^2), batched over the leading axes of ``coeffs``."""
    out = transform(grid, multiplier * coeffs * grid._phase, inverse=True)
    out *= grid.npoints
    return out


# ---------------------------------------------------------------------------
# Free-space pairings with radial kernels on the doubled box
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialKernel:
    """Radial kernel K(|z|) with a fixed regularization at z = 0.

    kind:
      'reciprocal'     K(r) = 1/r          (d = 2, 3)
      'absdistance'    K(r) = r
      'gaussian_delta' K(r) = exp(-(r/eps)^2) / (eps sqrt(pi))   (d = 1 mollifier)
      'profile'        user radial callable, K(0) = profile(0)

    transform:
      'grid'      FFT of the kernel sampled on the doubled box, origin cell
                  replaced by its exact cell average (default).
      'analytic'  closed-form transform of the disc-truncated kernel sampled
                  on the padded wavenumber grid (reciprocal kernel, d = 2 only);
                  spectrally accurate for data supported inside the box.
    """

    kind: str
    param: float = 0.0
    profile: Callable[[np.ndarray], np.ndarray] | None = None
    transform: str = "grid"

    @staticmethod
    def reciprocal(transform: str = "grid") -> "RadialKernel":
        return RadialKernel("reciprocal", transform=transform)

    @staticmethod
    def abs_distance() -> "RadialKernel":
        return RadialKernel("absdistance")

    @staticmethod
    def gaussian_delta(eps: float) -> "RadialKernel":
        if not 0 < eps < math.inf:
            raise ValueError(f"mollifier width must be positive and finite, got {eps}")
        return RadialKernel("gaussian_delta", param=eps)

    @staticmethod
    def from_profile(fn: Callable[[np.ndarray], np.ndarray]) -> "RadialKernel":
        return RadialKernel("profile", profile=fn)

    def evaluate(self, r: np.ndarray, h: float, d: int) -> np.ndarray:
        """Kernel values on a displacement-radius mesh with the origin cell fixed."""
        if self.kind == "reciprocal":
            if d == 1:
                raise ValueError("reciprocal kernel is not defined for d = 1")
            with np.errstate(divide="ignore"):
                vals = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
            vals[r == 0] = _RECIP_CELL_AVG[d] / h
            return vals
        if self.kind == "absdistance":
            vals = r.copy()
            vals[r == 0] = _ABS_CELL_AVG[d] * h
            return vals
        if self.kind == "gaussian_delta":
            eps = self.param
            return np.exp(-((r / eps) ** 2)) / (eps * math.sqrt(math.pi))
        if self.kind == "profile":
            vals = np.asarray(self.profile(np.where(r > 0, r, 1.0)), dtype=float).copy()
            vals[r == 0] = float(self.profile(np.asarray(0.0)))
            if not np.isfinite(vals).all():
                raise ValueError("radial profile produced non-finite kernel values")
            return vals
        raise ValueError(f"unknown kernel kind {self.kind!r}")


class PaddedGeometry:
    """The box zero-padded to n = 2M points per axis (period 4L).

    Half-spectrum arrays have the shape of ``rfftn`` output, ``half_shape =
    (n,) * (d - 1) + (n // 2 + 1,)``; the per-axis arrays are shaped to
    broadcast against it.
    """

    def __init__(self, grid: GridSpec):
        n = 2 * grid.m
        self.grid = grid
        self.shape = (n,) * grid.d
        self.half_shape = self.shape[:-1] + (n // 2 + 1,)
        self.npoints = n ** grid.d
        self.dk = math.pi / (2 * grid.l)
        self._full = mode_numbers(n)
        # mode numbers per axis on the half spectrum: the last axis is halved
        j_axes = [self._along(a, self._full) for a in range(grid.d - 1)]
        j_axes.append(np.arange(n // 2 + 1, dtype=float))
        self._j_axes = j_axes
        # the odd multiplier i k_a has no partner at the Nyquist index
        self.odd_k_axes = tuple(np.where(np.abs(j) == n // 2, 0.0, self.dk * j)
                                for j in j_axes)
        # Hermitian symmetry: every half-spectrum mode stands for itself and
        # its conjugate, except on the last-axis 0 and Nyquist planes
        w = np.full(n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        self.weights = w
        for a in (*self.odd_k_axes, w):
            a.setflags(write=False)

    def _along(self, axis: int, v: np.ndarray) -> np.ndarray:
        return v.reshape((-1,) + (1,) * (self.grid.d - 1 - axis))

    @cached_property
    def k_modulus(self) -> np.ndarray:
        """|k| on the half spectrum."""
        km = self.dk * np.sqrt(sum(j * j for j in self._j_axes))
        km.setflags(write=False)
        return km

    def radius(self) -> np.ndarray:
        """Displacement radii on the whole padded mesh, FFT ordering per axis
        (built on each call: only kernel transforms, which are cached, need it)."""
        delta2 = (self.grid.h * self._full) ** 2
        return np.sqrt(sum(self._along(a, delta2) for a in range(self.grid.d)))


@lru_cache(maxsize=16)
def padded_geometry(grid: GridSpec) -> PaddedGeometry:
    return PaddedGeometry(grid)


def padded_rfft(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Half-spectrum (unnormalized ``rfftn``) of a real array zero-padded to
    n = 2M points per axis.

    One ``numpy.fft`` pass per axis: an ``rfftn`` along the last axis of the
    unpadded input, then an ``fft`` padded to n along axes 0, ..., d-2 in
    that order.  Each pass transforms only the rows that can be nonzero, and
    in that order the result equals ``rfftn(values, s=(n,) * d)`` bit for
    bit (also for inputs already n long, such as sampled kernels).  A large
    pass splits its lines into row blocks along another axis (``row_blocks``)."""
    n = 2 * grid.m
    out = _padded_pass(np.fft.rfftn, values, values.shape[:-1] + (n // 2 + 1,), 0,
                       s=(n,), axes=(-1,))
    for axis in range(grid.d - 1):
        out = _padded_pass(np.fft.fft, out, out.shape[:axis] + (n,) + out.shape[axis + 1:],
                           1 if axis == 0 else 0, n=n, axis=axis)
    return out


def _padded_pass(fft, src: np.ndarray, shape: tuple[int, ...], split: int,
                 out: np.ndarray | None = None, **kwargs) -> np.ndarray:
    """fft(src, **kwargs), a pass whose result has ``shape``, written into
    ``out`` when one is given (``src`` itself for a pass in place).  Split
    into row blocks along axis ``split``, each block's lines are written with
    ``out=`` into one result array (made on the calling thread if none is
    given)."""
    blocks = row_blocks(shape[split], math.prod(shape)) if src.ndim > 1 else [slice(None)]
    if len(blocks) == 1 and out is None:
        return fft(src, **kwargs)
    if out is None:
        out = np.empty(shape, dtype=complex)

    def lines(rows):
        index = (slice(None),) * split + (rows,)
        fft(src[index], out=out[index], **kwargs)
    run_blocks(lines, blocks)
    return out


def _integral_of_j0(x: np.ndarray) -> np.ndarray:
    """Lambda(x) = int_0^x J0 for x >= 0, elementwise, from

        Lambda(x) = (1/pi) int_0^pi sin(x sin t) / sin t dt.

    The integrand is analytic and pi-periodic, so the n-node midpoint rule
    converges exponentially once 2n exceeds x (Bessel orders above x carry
    no weight): n = floor(max x) // 2 + 64 nodes.  Each distinct value of x
    is evaluated once, in blocks of 512 values, so the scratch stays about
    512 n floats."""
    xs, where = np.unique(x, return_inverse=True)
    n = int(xs[-1]) // 2 + 64
    sines = np.sin((np.arange(n) + 0.5) * (math.pi / n))
    weights = 1.0 / (n * sines)
    lam = np.empty(xs.size)
    for start in range(0, xs.size, 512):
        block = np.multiply.outer(xs[start:start + 512], sines)
        np.sin(block, out=block)
        block *= weights
        lam[start:start + 512] = block.sum(axis=1)
    return lam[where].reshape(np.shape(x))


def _analytic_reciprocal_hat(grid: GridSpec) -> np.ndarray:
    """Transform of 1/r truncated to the disc r < R, with R = 2L, in d = 2:
    K_hat(k) = 2 pi Lambda(R k) / k,   Lambda(x) = int_0^x J0

    Lambda is ``_integral_of_j0``: the midpoint rule on
    (1/pi) int_0^pi sin(x sin t)/sin t dt with floor(max R k) // 2 + 64
    nodes, evaluated on the distinct values of R k.

    R = 2L is the largest radius whose periodic images (period 4L after
    padding) stay clear of the admissible displacement range; data must be
    supported inside the ball of radius ~L for spectral accuracy, which the
    boundary-mass monitor enforces anyway.
    """
    if grid.d != 2:
        raise ValueError("analytic reciprocal transform available for d = 2 only")
    km = padded_geometry(grid).k_modulus
    R = 2.0 * grid.l
    lam = _integral_of_j0(R * km)
    with np.errstate(divide="ignore", invalid="ignore"):
        hat = np.where(km > 0, 2.0 * math.pi * lam / np.where(km > 0, km, 1.0), 0.0)
    hat[km == 0] = 2.0 * math.pi * R
    return hat


# Keyed on the kernel itself: the key holds its profile callable, so the
# callable stays alive (and its identity unique) while the entry exists.
@lru_cache(maxsize=32)
def _kernel_hat(grid: GridSpec, kernel: RadialKernel) -> np.ndarray:
    """Real half-spectrum of the kernel on the doubled box.  The sampled
    kernel is even, so its transform is real up to rounding."""
    if kernel.transform == "analytic":
        if kernel.kind != "reciprocal":
            raise ValueError("analytic transform implemented for the reciprocal kernel only")
        # continuum transform vs index-space DFT: hat_DFT = hat_cont / h^d
        hat = _analytic_reciprocal_hat(grid) / grid.cell_volume
    else:
        vals = kernel.evaluate(padded_geometry(grid).radius(), grid.h, grid.d)
        hat = padded_rfft(grid, vals).real.copy()
    hat.setflags(write=False)
    return hat


def kernel_potential(grid: GridSpec, f_hat: np.ndarray, kernel: RadialKernel, *,
                     overwrite: bool = False) -> np.ndarray:
    """(K * f)(x) = h^d sum_y K(x - y) f(y) at the M^d box points, for real f
    supported in the box, from its padded_rfft half-spectrum: the free-space
    convolution that tests/reference.py's convolve_radial_kernel makes with
    a full irfftn, so int g (K * f) dx is the box sum h^d sum_x g (K * f).

    The reverse of padded_rfft's pruning: f_hat times the kernel's
    half-spectrum, then an inverse fft along axes d-2, ..., 0 in that order,
    each in place and keeping only the M rows that land in the box for the
    next pass, then an irfft along the last axis, cropped to M points.  With
    ``overwrite`` the product is formed in f_hat, which the caller gives up;
    the result is the same bit for bit.  A large pass splits its lines into
    row blocks along another axis, as padded_rfft's do."""
    m, n = grid.m, 2 * grid.m
    spec = np.multiply(f_hat, _kernel_hat(grid, kernel), out=f_hat if overwrite else None)
    for axis in reversed(range(grid.d - 1)):
        _padded_pass(np.fft.ifft, spec, spec.shape, 1 if axis == 0 else 0, out=spec,
                     axis=axis, norm="forward")
        spec = spec[(slice(None),) * axis + (slice(0, m),)]
    shape = spec.shape[:-1] + (n,)
    conv = _padded_pass(np.fft.irfft, spec, shape, 0, out=np.empty(shape), n=n, norm="forward")
    return conv[..., :m] * (grid.cell_volume / padded_geometry(grid).npoints)


def kernel_gradient_product(grid: GridSpec, f_hat: np.ndarray, kernel: RadialKernel) -> float:
    """sum_a int d_a f (K * d_a f) dx for real f supported in the box, from
    its padded_rfft half-spectrum.

    The padded transform of d_a f is i k_a f_hat (k_a from odd_k_axes), so by
    Parseval this is h^(2d)/N sum_k |k|^2 K_k |f_k|^2 over the N padded
    modes: one weighted half-spectrum sum, with no transform of d_a f.
    """
    geo = padded_geometry(grid)
    sq = f_hat.real * f_hat.real
    sq += f_hat.imag * f_hat.imag
    sq *= sum(k * k for k in geo.odd_k_axes)  # not cached: a stored |k|^2 raised peak RSS
    sq *= _kernel_hat(grid, kernel)
    sq *= geo.weights
    return grid.cell_volume ** 2 / geo.npoints * float(np.sum(sq))


def cube_sup_l2(grid: GridSpec, density: np.ndarray) -> float:
    """sup over grid-aligned unit cubes (stride one cell, wrap-around) of
    (int_Q density)^(1/2), for a nonnegative density array.

    The unit cube must span a whole number of cells (GridSpec.unit_cube_problem).
    """
    misfit = grid.unit_cube_problem()
    if misfit:
        raise ValueError(misfit)
    ncells = round(1.0 / grid.h)
    window = density
    for axis in range(grid.d):
        window = sum(np.roll(window, -s, axis=axis) for s in range(ncells))
    best = float(window.max()) * grid.cell_volume
    return math.sqrt(max(best, 0.0))
