"""verify.run_checks runs its dt and dt/2 trajectories at once or in order.

With at least 2 CPUs, on the main thread and for a state of fewer than
PARALLEL_MIN_POINTS points, the dt/2 trajectory runs as one pool task while
the calling thread runs the dt one; otherwise they run one after the other.
Both ways must give the same records, constants, checks and errors.
"""

import os
import pickle
import threading
import time

import numpy as np
import pytest

import nlskit.grid
import nlskit.verify
from nlskit import (CouplingSpec, GridSpec, MorawetzWeight, NanAbortError, StepParams,
                    SystemState, field_from_function)
from nlskit.verify import run_checks

from conftest import on_another_thread

PARAMS = StepParams(dt=0.01, t_final=0.2, snapshot_stride=5)
WINDOW = 0.15  # the dt run covers 0.2, the dt/2 run 0.15


def _state(d: int, m: int) -> SystemState:
    grid = GridSpec(d, m, 8.0)
    fields = [field_from_function(grid, lambda *x, a=a: a * np.exp(-sum(c * c for c in x) / 2.0))
              for a in (0.5, 0.4)]
    coupling = CouplingSpec(2, np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0, d)
    return SystemState(0.0, tuple(fields), coupling)


def _traced_trajectories(monkeypatch, fail_dts=(), delay=0.0):
    """Route verify's collect_series through a recorder of (thread, dt) per
    call and of how many run; the trajectories of a dt in ``fail_dts`` raise
    NanAbortError(dt) at once, the others first sleep ``delay`` seconds."""
    run = {"calls": [], "running": 0, "ended": 0}
    lock = threading.Lock()
    collect_series = nlskit.verify.collect_series

    def recorded(state0, params, *args):
        with lock:
            run["calls"].append((threading.get_ident(), params.dt))
            run["running"] += 1
        try:
            if params.dt in fail_dts:
                raise NanAbortError(params.dt)
            time.sleep(delay)
            return collect_series(state0, params, *args)
        finally:
            with lock:
                run["running"] -= 1
                run["ended"] += 1
    monkeypatch.setattr(nlskit.verify, "collect_series", recorded)
    return run


def _on_cpus(monkeypatch, cpus, fn):
    """fn() with an affinity set of ``cpus`` CPUs and a package pool made
    afresh; the pool is shut down after, and the thread count is back."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(nlskit.grid, "_pool", None)
    before = threading.active_count()
    try:
        return fn()
    finally:
        if nlskit.grid._pool is not None:
            nlskit.grid._pool.shutdown()
        assert threading.active_count() == before


def _run(state, weight=MorawetzWeight.abs_distance()):
    return run_checks(state, PARAMS, WINDOW, MorawetzWeight.quadratic(), weight)


@pytest.mark.parametrize("d,m", [(1, 128), (2, 32)])
def test_two_cpus_give_the_sequential_outputs_byte_for_byte(monkeypatch, d, m):
    state = _state(d, m)
    assert state.coupling.n * state.grid.npoints < nlskit.grid.PARALLEL_MIN_POINTS
    run = _traced_trajectories(monkeypatch)
    one = _on_cpus(monkeypatch, 1, lambda: _run(state))
    assert {ident for ident, _ in run["calls"]} == {threading.get_ident()}
    run["calls"].clear()
    two = _on_cpus(monkeypatch, 2, lambda: _run(state))
    threads = dict((dt, ident) for ident, dt in run["calls"])
    assert threads[PARAMS.dt] == threading.get_ident() != threads[PARAMS.dt / 2]
    assert len(run["calls"]) == 2 and run["running"] == 0
    assert pickle.dumps(two) == pickle.dumps(one)
    records, constants, checks = two
    assert len(records) == PARAMS.n_snapshots
    assert constants["c_idot"] > 0 and checks["boundary_mass"]["pass"]


@pytest.mark.parametrize("failing", ["dt", "dt/2", "both"])
def test_a_trajectory_error_is_the_sequential_one_once_both_have_ended(monkeypatch, failing):
    dts = {"dt": (PARAMS.dt,), "dt/2": (PARAMS.dt / 2,),
           "both": (PARAMS.dt, PARAMS.dt / 2)}[failing]
    state = _state(1, 64)
    errors = {}
    for cpus in (1, 2):
        run = _traced_trajectories(monkeypatch, fail_dts=dts, delay=0.2)
        seen = []

        def checked():
            try:
                return _run(state, None)
            finally:  # read before the pool's shutdown, which waits for its tasks
                seen.append((run["running"], run["ended"], len(run["calls"])))
        with pytest.raises(NanAbortError) as err:
            _on_cpus(monkeypatch, cpus, checked)
        # nothing is left running a trajectory: each one has ended or never started
        (running, ended, calls), = seen
        assert running == 0 and ended == calls
        errors[cpus] = err.value.t
    assert errors[2] == errors[1] == dts[0]


def test_a_state_that_splits_submits_no_trajectory(monkeypatch):
    state = _state(1, 128)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(nlskit.grid, "PARALLEL_MIN_POINTS", 64)
    run = _traced_trajectories(monkeypatch)
    submitted = []
    submit = nlskit.grid.submit

    def recorded(fn, *args):
        submitted.append(fn)
        return submit(fn, *args)
    monkeypatch.setattr(nlskit.verify, "submit", recorded)
    split = _on_cpus(monkeypatch, 2, lambda: _run(state))
    assert submitted == []
    assert {ident for ident, _ in run["calls"]} == {threading.get_ident()}
    monkeypatch.setattr(nlskit.grid, "PARALLEL_MIN_POINTS", 2 ** 16)
    assert pickle.dumps(split) == pickle.dumps(_on_cpus(monkeypatch, 1, lambda: _run(state)))


def test_only_the_main_thread_runs_a_trajectory_beside_its_own(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    small = nlskit.grid.PARALLEL_MIN_POINTS - 1
    assert nlskit.grid.runs_beside(small)
    assert not nlskit.grid.runs_beside(small + 1)
    assert not on_another_thread(lambda: nlskit.grid.runs_beside(small))
    monkeypatch.setattr(nlskit.grid, "_handoff", object())  # an overlap runs
    assert not nlskit.grid.runs_beside(small)
    monkeypatch.setattr(nlskit.grid, "_handoff", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not nlskit.grid.runs_beside(small)
