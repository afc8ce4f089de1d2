import os
import threading

import numpy as np
import pytest

import nlskit.grid
from nlskit import CouplingSpec, GridSpec, ScalarField, SystemState

# How far the phase of evolve._rotate may be from exp(i theta), and its
# modulus from 1: 3 eps, about 6.7e-16.  Past the tangent (numpy 2.4's is
# within 0.6 ulp), the roundings in r = 2/(1 + t^2) move the phase by up to
# 4 units of 2^-53 and the one in s = t r by half a unit more.  Over 1e8
# sampled angles the largest error was 4.25e-16 against the exact value and
# 4.0e-16 against numpy's exp, and np.abs of the phase rounded to within
# 2 eps of 1.
PHASE_TOL = 3 * np.finfo(float).eps

# One line per acceptance criterion, echoed into the terminal summary so the
# verdicts are visible regardless of capture mode.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def two_cpu_pool(monkeypatch):
    """An affinity set of two CPUs and no package pool yet, so that a large
    array on the main thread splits in two on any host; the pool the test
    makes is shut down after it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(nlskit.grid, "_pool", None)
    yield
    if nlskit.grid._pool is not None:
        nlskit.grid._pool.shutdown()


def on_another_thread(fn):
    """fn() run on a new thread, where no array splits; its result."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join()
    [result] = out
    return result


@pytest.fixture
def grid1d():
    return GridSpec(1, 256, 16.0)


@pytest.fixture
def grid2d():
    return GridSpec(2, 128, 12.0)


@pytest.fixture
def grid3d():
    return GridSpec(3, 48, 12.0)


def gaussian(grid, amp=1.0, width=1.0, center=None, velocity=None, chirp=0.0):
    center = np.zeros(grid.d) if center is None else np.asarray(center, float)
    velocity = np.zeros(grid.d) if velocity is None else np.asarray(velocity, float)
    sq = sum((x - c) ** 2 for x, c in zip(grid.x_mesh, center))
    ph = sum(v * (x - c) for v, x, c in zip(velocity, grid.x_mesh, center))
    return ScalarField(amp * np.exp(-sq / (2.0 * width ** 2) + 1j * (ph - chirp * sq)), grid)


def single_state(field, p=1.0, beta=1.0):
    g = field.grid
    cpl = CouplingSpec(1, np.array([[beta]]), p, g.d)
    return SystemState(0.0, (field,), cpl)


def free_gaussian_exact(grid, t, amp=1.0):
    """Closed-form free evolution of amp*exp(-|x|^2/2) under i du/dt = -Lap u."""
    z = 1.0 + 2.0j * t
    sq = sum(x ** 2 for x in grid.x_mesh)
    return amp * z ** (-grid.d / 2.0) * np.exp(-sq / (2.0 * z))


def random_field(grid, rng, band=None):
    """Random complex field with a hard spectral cutoff |j| <= band per axis."""
    coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if band is not None:
        j = np.rint(np.fft.fftfreq(grid.m) * grid.m)
        mesh = np.meshgrid(*([j] * grid.d), indexing="ij")
        for a in mesh:
            coef = np.where(np.abs(a) <= band, coef, 0.0)
    vals = np.fft.ifftn(coef) * grid.m ** (grid.d / 2)
    return ScalarField(vals, grid)
