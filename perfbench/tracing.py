"""Spans and counters recorded from outside nlskit, by rebinding its functions.

A hook replaces a function object everywhere it is bound: in its home module
and in every other ``nlskit`` module that imported it by name (``from .x
import f`` copies the binding at import time), plus the ``numpy.fft`` and
``scipy.fft`` namespaces for the transform entry points.  Methods are patched
on their class.  A hook whose target no longer exists is reported as absent
and skipped.

Spans record name, start, end, parent and run id and stay in memory.  FFT
calls are not spans: they are counted and timed as library calls made from
inside whichever layer called them, so they stay in that layer's self time.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft")

# (module, attribute or Class.method, span name).  Several functions can feed
# one span name; nested spans of the same name count once (outermost).
SPAN_HOOKS = (
    ("nlskit.evolve", "evolve", "evolve"),
    ("nlskit.evolve", "_nonlinear_exponents", "evolve.nonlinear"),
    ("nlskit.diagnostics", "write_csv", "diagnostics.write"),
    ("nlskit.diagnostics", "write_summary", "diagnostics.write"),
    ("nlskit.morawetz", "interaction_report", "morawetz.interaction"),
    ("nlskit.morawetz", "gradient_pairing", "morawetz.pairing"),
    ("nlskit.morawetz", "virial_V", "morawetz.virial"),
    ("nlskit.morawetz", "virial_Vdot", "morawetz.virial"),
    ("nlskit.morawetz", "virial_Vddot", "morawetz.virial"),
    ("nlskit.morawetz", "SpacetimeAccumulators.update", "morawetz.accumulators"),
    ("nlskit.grid", "convolve_radial_kernel", "grid.convolve"),
    ("nlskit.grid", "convolve_kernel_gradient", "grid.convolve"),
    ("nlskit.grid", "_pad_forward", "grid.convolve"),
    ("nlskit.grid", "_convolve_hat", "grid.convolve"),
    ("nlskit.grid", "spectral_gradient", "grid.gradient"),
    ("nlskit.grid", "_kernel_hat", "grid.kernel_hat"),
    ("nlskit.system", "energy", "system.energy"),
    ("nlskit.system", "lq_norm", "system.lq"),
    ("nlskit.system", "sup_cube_mass", "system.cube_mass"),
    ("nlskit.system", "boundary_mass_fraction", "system.boundary"),
    ("nlskit.system", "current", "system.current"),
    ("nlskit.system", "total_current", "system.current"),
    ("nlskit.scattering", "StrichartzAccumulator.update", "scattering.strichartz"),
    ("nlskit.scattering", "wave_operator", "scattering.wave_op"),
    ("nlskit.verify", "calibrate_fd_constants", "verify.calibrate"),
    ("nlskit.verify", "collect_series", "verify.trajectory"),
    ("nlskit.verify", "check_identities", "verify.check"),
    ("nlskit.fieldio", "write_fields", "fieldio.write"),
)

# The first call into any of these ends set-up.
ENTRY_POINTS = (("nlskit.evolve", "evolve"), ("nlskit.verify", "collect_series"),
                ("nlskit.scattering", "wave_operator"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


def outermost(spans: list[Span]) -> list[bool]:
    """Whether each span has no ancestor of the same name.

    Parents precede their children in ``spans``, as the recorder appends a
    span when it opens.
    """
    above: list[frozenset] = []   # names of each span's ancestors
    out = []
    for s in spans:
        names = (frozenset() if s.parent is None
                 else above[s.parent] | {spans[s.parent].name})
        above.append(names)
        out.append(s.name not in names)
    return out


def fft_work(in_shape, out_shape, axes, real: bool):
    """Transform lengths, batch count and computed flops of one FFT call.

    A transform of n points costs 5 n log2 n flops (2.5 n log2 n for a real
    one); the logical length of an axis is the larger of its input and
    output extents, which is the full length for rfft and irfft.
    """
    nd = len(out_shape)
    axes = [a % nd for a in axes]
    lengths = [max(in_shape[a] if a < len(in_shape) else 1, out_shape[a]) for a in axes]
    n = math.prod(lengths)
    batch = math.prod(out_shape[a] for a in range(nd) if a not in axes)
    flops = (2.5 if real else 5.0) * n * math.log2(max(n, 2)) * batch
    return lengths, batch, flops


def resolve(module: str, attr: str):
    """Return (owner, name, object) for ``module:attr``, or None if absent."""
    mod = sys.modules.get(module)
    owner, name = mod, attr
    if "." in attr:
        cls, name = attr.split(".", 1)
        owner = getattr(mod, cls, None)
    obj = getattr(owner, name, None) if owner is not None else None
    return None if obj is None else (owner, name, obj)


def rebind(original, replacement, namespaces) -> int:
    """Replace every binding of ``original`` in ``namespaces``; return the count."""
    n = 0
    for ns in namespaces:
        for key, val in list(vars(ns).items()):
            if val is original:
                setattr(ns, key, replacement)
                n += 1
    return n


def nlskit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nlskit" or name.startswith("nlskit."))]


def install_entry_stamp(on_first: Callable[[float], None]) -> list[str]:
    """Call ``on_first(time.monotonic())`` at the first entry into any entry
    point; later calls pass straight through.  Returns the absent targets."""
    fired = []
    absent = []

    def stamp(fn):
        def stamped(*args, **kwargs):
            if not fired:
                fired.append(True)
                on_first(time.monotonic())
            return fn(*args, **kwargs)

        stamped.__wrapped__ = fn
        return stamped

    for module, attr in ENTRY_POINTS:
        found = resolve(module, attr)
        if found is None:
            absent.append(f"{module}.{attr}")
        else:
            rebind(found[2], stamp(found[2]), nlskit_modules())
    return absent


@dataclass
class Tracer:
    """In-memory span recorder plus the counters the layer metrics need.

    ``grid_m`` is the run's points per axis: an FFT with a longer axis is a
    transform on a padded box.
    """

    run: str
    grid_m: int
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    # every array _kernel_hat returned, kept alive so that ids are never reused
    kernel_hats: dict[int, object] = field(default_factory=dict)
    # (StepParams, id of the initial state) of each evolve call -> the state
    trajectories: dict[tuple, object] = field(default_factory=dict)

    def add(self, key: str, amount: float = 1.0):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self.stack)

    def call(self, name: str, fn, args, kwargs):
        span = Span(name, self.clock(), math.nan,
                    self.stack[-1] if self.stack else None, self.run)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self.stack.pop()

    # -- hooks ------------------------------------------------------------

    def install(self) -> None:
        mods = nlskit_modules()
        for module, attr, span in SPAN_HOOKS:
            found = resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, name, fn = found
            hook = getattr(self, "_on_" + name, self.call)
            wrapper = self._wrapper(span, fn, hook)
            if "." in attr:
                setattr(owner, name, wrapper)
            else:
                rebind(fn, wrapper, mods)
        self._install_fft(mods)

    def _wrapper(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            return hook(name, fn, list(args), kwargs)

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _arg(args, kwargs, index, key, default=None):
        return args[index] if len(args) > index else kwargs.get(key, default)

    def _on_evolve(self, name, fn, args, kwargs):
        state = self._arg(args, kwargs, 0, "state")
        params = self._arg(args, kwargs, 1, "params")
        self.add("evolve.calls")
        self.add("evolve.steps", getattr(params, "n_steps", 0))
        self.trajectories.setdefault((params, id(state)), state)
        sink = self._arg(args, kwargs, 2, "sink")
        if sink is not None:
            def traced_sink(st):
                return self.call("diagnostics.sink", sink, [st], {})

            if len(args) > 2:
                args[2] = traced_sink
            else:
                kwargs["sink"] = traced_sink
        return self.call(name, fn, args, kwargs)

    def _on__nonlinear_exponents(self, name, fn, args, kwargs):
        if self.inside("scattering.wave_op"):
            name = "scattering.nonlinearity"
        return self.call(name, fn, args, kwargs)

    def _on_gradient_pairing(self, name, fn, args, kwargs):
        route = self._arg(args, kwargs, 1, "route", "kernel")
        return self.call(f"{name}_{route}", fn, args, kwargs)

    def _on__kernel_hat(self, name, fn, args, kwargs):
        hat = self.call(name, fn, args, kwargs)
        if id(hat) in self.kernel_hats:
            self.add("grid.kernel_hat.hits")
        self.kernel_hats[id(hat)] = hat
        return hat

    def _written(self, name, fn, args, kwargs, index, key):
        out = self.call(name, fn, args, kwargs)
        path = self._arg(args, kwargs, index, "path")
        if path is not None and os.path.isfile(path):
            self.add(key, os.path.getsize(path))
        return out

    def _on_write_csv(self, name, fn, args, kwargs):
        return self._written(name, fn, args, kwargs, 2, "diagnostics.write.bytes")

    def _on_write_summary(self, name, fn, args, kwargs):
        return self._written(name, fn, args, kwargs, 1, "diagnostics.write.bytes")

    def _on_write_fields(self, name, fn, args, kwargs):
        return self._written(name, fn, args, kwargs, 0, "fieldio.bytes")

    def _on_wave_operator(self, name, fn, args, kwargs):
        result = self.call(name, fn, args, kwargs)
        t_max = self._arg(args, kwargs, 2, "t_max")
        dt = self._arg(args, kwargs, 3, "dt")
        iterations = getattr(result, "iterations", 0)
        self.add("scattering.wave_op.iterations", iterations)
        if t_max and dt:
            self.add("scattering.wave_op.node_sweeps",
                     iterations * (int(round(t_max / dt)) + 1))
        return result

    def _install_fft(self, mods) -> None:
        libs = []
        for lib in ("numpy.fft", "scipy.fft"):
            try:
                libs.append(importlib.import_module(lib))
            except ImportError:
                self.absent.append(lib)
        namespaces = list(mods) + libs
        for lib in libs:
            for fname in FFT_NAMES:
                fn = getattr(lib, fname, None)
                if fn is None:
                    self.absent.append(f"{lib.__name__}.{fname}")
                    continue
                rebind(fn, self._fft_wrapper(fname, fn), namespaces)

    def _fft_wrapper(self, fname: str, fn):
        real = fname.startswith(("rfft", "irfft"))
        nd = fname.endswith("n")
        clock = self.clock

        def counted(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            x = args[0] if args else kwargs.get("x", kwargs.get("a"))
            self._count_fft(x, out, dt, real, nd, args[1:], kwargs)
            return out

        counted.__wrapped__ = fn
        return counted

    def _count_fft(self, x, out, dt, real, nd, args, kwargs):
        in_shape = getattr(x, "shape", ())
        out_shape = getattr(out, "shape", ())
        if nd:
            axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
            if axes is None:
                s = kwargs.get("s", args[0] if args else None)
                axes = range(len(out_shape)) if s is None else range(-len(s), 0)
        else:
            axes = [kwargs.get("axis", args[1] if len(args) > 1 else -1)]
        lengths, batch, flops = fft_work(in_shape, out_shape, list(axes), real)
        self.add("fft.calls")
        self.add("fft.s", dt)
        self.add("fft.flop", flops)
        self.add("fft.bytes", getattr(x, "nbytes", 0) + getattr(out, "nbytes", 0))
        if any(n > self.grid_m for n in lengths):
            self.add("fft.padded.calls")
            self.add("fft.padded.s", dt)

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        self_by: dict[str, float] = {}
        total_by: dict[str, float] = {}
        calls_by: dict[str, float] = {}
        for s, st, top in zip(spans, self_times(spans), outermost(spans)):
            self_by[s.name] = self_by.get(s.name, 0.0) + st
            if top:
                total_by[s.name] = total_by.get(s.name, 0.0) + s.end - s.start
                calls_by[s.name] = calls_by.get(s.name, 0.0) + 1.0

        def total(name):
            return total_by.get(name, 0.0)

        def calls(name):
            return calls_by.get(name, 0.0)

        c = self.counts.get
        steps = c("evolve.steps", 0.0)
        evolve_s = total("evolve")
        sink_s = total("diagnostics.sink")
        step_s = (evolve_s - sink_s) / steps if steps else 0.0
        sink_calls = calls("diagnostics.sink")
        kh_calls = calls("grid.kernel_hat")
        evolve_calls = c("evolve.calls", 0.0)
        wave_s = total("scattering.wave_op")
        m = {
            "fft.calls": c("fft.calls", 0.0),
            "fft.s": c("fft.s", 0.0),
            "fft.padded.calls": c("fft.padded.calls", 0.0),
            "fft.padded.s": c("fft.padded.s", 0.0),
            "fft.gflop_computed": c("fft.flop", 0.0) / 1e9,
            "fft.gb_computed": c("fft.bytes", 0.0) / 1e9,
            "evolve.steps": steps,
            "evolve.self_s": self_by.get("evolve", 0.0),
            "evolve.step_ms": 1e3 * step_s,
            "evolve.nonlinear.calls": calls("evolve.nonlinear"),
            "evolve.nonlinear.s": total("evolve.nonlinear"),
            "diagnostics.sink.calls": sink_calls,
            "diagnostics.sink.s": sink_s,
            "diagnostics.sink_to_step": (sink_s / sink_calls / step_s
                                         if sink_calls and step_s else 0.0),
            "diagnostics.write.s": total("diagnostics.write"),
            "diagnostics.write.bytes": c("diagnostics.write.bytes", 0.0),
            "morawetz.interaction.calls": calls("morawetz.interaction"),
            "morawetz.interaction.self_s": self_by.get("morawetz.interaction", 0.0),
            "morawetz.pairing_kernel.s": total("morawetz.pairing_kernel"),
            "morawetz.pairing_fractional.s": total("morawetz.pairing_fractional"),
            "morawetz.virial.s": total("morawetz.virial"),
            "morawetz.accumulators.s": total("morawetz.accumulators"),
            "grid.convolve.calls": calls("grid.convolve"),
            "grid.convolve.s": total("grid.convolve"),
            "grid.gradient.calls": calls("grid.gradient"),
            "grid.gradient.s": total("grid.gradient"),
            "grid.kernel_hat.calls": kh_calls,
            "grid.kernel_hat.hit_ratio": (c("grid.kernel_hat.hits", 0.0) / kh_calls
                                          if kh_calls else 0.0),
            "system.energy.s": total("system.energy"),
            "system.lq.s": total("system.lq"),
            "system.cube_mass.s": total("system.cube_mass"),
            "system.boundary.s": total("system.boundary"),
            "system.current.s": total("system.current"),
            "scattering.strichartz.s": total("scattering.strichartz"),
            "scattering.wave_op.self_s": self_by.get("scattering.wave_op", 0.0),
            "scattering.wave_op.iterations": c("scattering.wave_op.iterations", 0.0),
            "scattering.wave_op.node_sweeps_per_s": (
                c("scattering.wave_op.node_sweeps", 0.0) / wave_s if wave_s else 0.0),
            "scattering.nonlinearity.calls": calls("scattering.nonlinearity"),
            "verify.calibrate.s": total("verify.calibrate"),
            "verify.trajectories": calls("verify.trajectory"),
            "verify.trajectory_reuse_ratio": (len(self.trajectories) / evolve_calls
                                              if evolve_calls else 0.0),
            "verify.check.s": total("verify.check"),
            "fieldio.write.s": total("fieldio.write"),
            "fieldio.bytes": c("fieldio.bytes", 0.0),
        }
        return m
