"""Stepping and sinking at once: a pooled evolve's contract and the split rule.

A d = 3, M = 48, N = 2 stack is above PARALLEL_MIN_POINTS, so on the main
thread (with two CPUs, ``two_cpu_pool``) evolve runs its stepping loop as one
pool task while the main thread runs the sink; on any other thread it runs
inline.  Both must give the same snapshots, errors and final state.
"""

import importlib
import os
import sys
import threading
import weakref

import numpy as np
import pytest

import nlskit.grid
from nlskit import (CouplingSpec, GridSpec, MorawetzWeight, NanAbortError, StepParams,
                    SystemState, admissible_pair, evolve, field_from_function, wave_operator)
from nlskit.diagnostics import DiagnosticsCollector
from nlskit.grid import PARALLEL_MIN_POINTS, overlap, row_blocks, run_blocks

from conftest import on_another_thread

# the module, which the package's evolve function shadows as an attribute
evolve_module = importlib.import_module("nlskit.evolve")

PARAMS = StepParams(dt=0.005, t_final=0.04, snapshot_stride=2)  # 8 steps, 5 snapshots


def _d3_state():
    grid = GridSpec(3, 48, 12.0)
    fields = [field_from_function(grid, lambda *x, a=a: a * np.exp(-sum(c * c for c in x) / 4.5))
              for a in (0.5, 0.4)]
    coupling = CouplingSpec(2, np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0, 3)
    return SystemState(0.0, tuple(fields), coupling)


def _recording_sink(log, fail_at=None):
    """A sink that logs (thread, t, field bytes) per call, checks that no
    other call runs and that no earlier snapshot of the loop is still alive
    (so at most one is held at a time), and raises
    on call number ``fail_at`` (counted from 0)."""
    active, given = [0], []

    def sink(state):
        active[0] += 1
        try:
            assert active[0] == 1
            assert all(ref() is None for ref in given)
            if log:  # the step-0 state is the caller's
                given.append(weakref.ref(state.fields[0].values))
            log.append((threading.get_ident(), state.t,
                        b"".join(f.values.tobytes() for f in state.fields)))
            if len(log) - 1 == fail_at:
                raise _SinkError(state.t)
        finally:
            active[0] -= 1
    return sink


class _SinkError(Exception):
    pass


def _ended_steps(monkeypatch):
    """Count the stepping loops that started and ended."""
    counts = {"started": 0, "ended": 0}
    steps = evolve_module._steps

    def counted(*args):
        counts["started"] += 1
        try:
            return steps(*args)
        finally:
            counts["ended"] += 1
    monkeypatch.setattr(evolve_module, "_steps", counted)
    return counts


def test_pooled_evolve_sinks_on_the_calling_thread_one_snapshot_at_a_time(two_cpu_pool):
    state = _d3_state()
    assert state.coupling.n * state.grid.npoints >= PARALLEL_MIN_POINTS
    inline_log, pooled_log = [], []
    inline = on_another_thread(lambda: evolve(state, PARAMS, _recording_sink(inline_log)))
    assert nlskit.grid._pool is None
    pooled = evolve(state, PARAMS, _recording_sink(pooled_log))
    assert nlskit.grid._pool is not None
    assert {ident for ident, _, _ in pooled_log} == {threading.get_ident()}
    assert [t for _, t, _ in pooled_log] == [k * PARAMS.dt for k in (0, 2, 4, 6, 8)]
    assert [(t, b) for _, t, b in pooled_log] == [(t, b) for _, t, b in inline_log]
    assert pooled.t == inline.t
    for a, b in zip(pooled.fields, inline.fields):
        assert a.values.tobytes() == b.values.tobytes()
    assert nlskit.grid._handoff is None


@pytest.mark.parametrize("fail_at", [1, 3])
def test_a_sink_error_stops_the_stepping_task(two_cpu_pool, monkeypatch, fail_at):
    state = _d3_state()
    counts = _ended_steps(monkeypatch)
    log = []
    with pytest.raises(_SinkError):
        evolve(state, PARAMS, _recording_sink(log, fail_at))
    # snapshots 0 to fail_at - 1 were seen, and the call that raised saw the next
    assert [t for _, t, _ in log] == [k * PARAMS.dt for k in (0, 2, 4, 6)][:fail_at + 1]
    assert counts == {"started": 1, "ended": 1}   # the task ended before evolve raised
    assert nlskit.grid._handoff is None
    # the pool is free: a second evolve runs to the end and matches an inline run
    again, inline = [], []
    final = evolve(state, PARAMS, _recording_sink(again))
    expected = on_another_thread(lambda: evolve(state, PARAMS, _recording_sink(inline)))
    assert [(t, b) for _, t, b in again] == [(t, b) for _, t, b in inline]
    assert final.fields[1].values.tobytes() == expected.fields[1].values.tobytes()


def test_a_step_error_is_raised_after_the_sink_saw_every_earlier_snapshot(two_cpu_pool,
                                                                           monkeypatch):
    # the step at t_5 (inside the third stride block) overflows
    state = _d3_state()
    t_bad = state.t + 5 * PARAMS.dt
    exponents = evolve_module._nonlinear_exponents

    def overflowing(stack, coupling, t, *args, **kwargs):
        if t == t_bad:
            stack = np.array(stack)
            stack[1, 3, 4, 5] = np.inf
        return exponents(stack, coupling, t, *args, **kwargs)
    monkeypatch.setattr(evolve_module, "_nonlinear_exponents", overflowing)
    counts = _ended_steps(monkeypatch)
    logs = [[], []]

    def abort(log):
        try:
            evolve(state, PARAMS, _recording_sink(log))
        except NanAbortError as err:
            return err.t, str(err.__cause__)
    errors = [on_another_thread(lambda: abort(logs[0])), abort(logs[1])]
    assert counts == {"started": 2, "ended": 2}
    assert errors[0] == errors[1] == (t_bad, "non-finite nonlinear exponent in component 0 "
                                             "at grid index (3, 4, 5)")
    assert [t for _, t, _ in logs[1]] == [k * PARAMS.dt for k in (0, 2, 4)]
    assert [(t, b) for _, t, b in logs[1]] == [(t, b) for _, t, b in logs[0]]


def test_the_stepper_splits_only_while_the_sink_waits_for_it(two_cpu_pool, monkeypatch):
    # every row_blocks result of a pooled evolve, in the order each thread
    # made them, with whether the sink ran when the call began and whether
    # the array has the rows and points to split
    state = _d3_state()
    log, lock, in_sink = [], threading.Lock(), [False]
    blocks_of = nlskit.grid.row_blocks

    def spy(rows, points):
        sinking = in_sink[0]
        blocks = blocks_of(rows, points)
        with lock:
            log.append((threading.get_ident(), "split" if len(blocks) > 1 else "inline",
                        sinking, rows >= 2 and points >= PARALLEL_MIN_POINTS))
        return blocks
    send = nlskit.grid._Handoff.send

    def marked_send(self, item):
        with lock:
            log.append((threading.get_ident(), "send", in_sink[0], True))
        return send(self, item)
    monkeypatch.setattr(nlskit.grid, "row_blocks", spy)
    monkeypatch.setattr(evolve_module, "row_blocks", spy)
    monkeypatch.setattr(nlskit.grid._Handoff, "send", marked_send)
    collector = DiagnosticsCollector(state.coupling, state.grid,
                                     weight=MorawetzWeight.quadratic(),
                                     interaction=MorawetzWeight.abs_distance(),
                                     strichartz_pair=admissible_pair(1.0, 3))

    def sink(st):
        in_sink[0] = True
        try:
            collector(st)
        finally:
            in_sink[0] = False
    evolve(state, PARAMS, sink)

    main = threading.get_ident()
    [stepper] = {ident for ident, what, _, _ in log if what == "send"}
    # the calls that split on the thread that may split
    large = [(ident, what, sinking) for ident, what, sinking, splittable in log if splittable]
    steps = [(what, sinking) for ident, what, sinking in large if ident == stepper]
    first_block = steps[:[what for what, _ in steps].index("send")]
    # the caller waits for the first snapshot from the submission on
    assert first_block and all(what == "split" for what, _ in first_block)
    # while the sink runs, the stepper never splits
    assert any(sinking for what, sinking in steps if what != "send")
    assert all(what != "split" for what, sinking in steps if sinking)
    # while the sink runs and the stepper waits, the sink's own passes split
    assert any(what == "split" for ident, what, sinking in large if ident == main and sinking)
    # every other thread runs run_blocks tasks, which never split
    assert all(what == "inline" for ident, what, _, _ in log if ident not in (main, stepper))


def test_run_blocks_tasks_and_node_integrands_never_split(two_cpu_pool, monkeypatch):
    # with every array large enough to split, only the main thread splits
    monkeypatch.setattr(nlskit.grid, "PARALLEL_MIN_POINTS", 1)
    seen = []
    run_blocks(lambda rows: seen.append((threading.get_ident(), len(row_blocks(4, 8)))),
               [slice(0, 1), slice(1, 2)])
    assert sorted(n for ident, n in seen if ident == threading.get_ident()) == [2]
    assert [n for ident, n in seen if ident != threading.get_ident()] == [1]

    log, lock = [], threading.Lock()
    blocks_of = nlskit.grid.row_blocks

    def spy(rows, points):
        blocks = blocks_of(rows, points)
        with lock:
            log.append((threading.get_ident(), rows, len(blocks)))
        return blocks
    monkeypatch.setattr(nlskit.grid, "row_blocks", spy)
    grid = GridSpec(1, 64, 16.0)
    profile = [field_from_function(grid, lambda x, a=a: a * np.exp(-x * x / 2.0))
               for a in (0.3, 0.2)]
    coupling = CouplingSpec(2, np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0, 1)
    result = wave_operator(profile, coupling, t_max=1.0, dt=0.05, tol=1e-10)
    assert result.converged
    others = [(rows, n) for ident, rows, n in log if ident != threading.get_ident()]
    assert any(rows == 2 for rows, _ in others)     # whole node stacks, on pool threads
    assert all(n == 1 for _, n in others)
    assert any(n == 2 for ident, _, n in log if ident == threading.get_ident())


@pytest.mark.parametrize("fail_at", [None, 700])
def test_overlap_hands_over_every_item_once_in_order_under_thread_churn(monkeypatch, fail_at):
    # four pool workers on any host and a short switch interval; the task
    # changes each item right after send returns, so a take that ran late
    # would copy the change, and a second item in flight would show in sent
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(nlskit.grid, "_pool", None)
    sent, seen, result = [0], [], []

    def produce(send, check):
        for k in range(2000):
            check()
            item = [k]
            send(item)
            sent[0] += 1
            item[0] = -1
        return "done"

    def consume(item):
        seen.append(item[0])
        assert sent[0] <= len(seen)
        if len(seen) == fail_at:
            raise _SinkError(item[0])

    def run():
        try:
            result.append(overlap(produce, list, consume))
        except _SinkError as err:
            result.append(err)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        nlskit.grid._pool.shutdown()
    assert not worker.is_alive()
    if fail_at is None:
        assert result == ["done"] and seen == list(range(2000)) and sent[0] == 2000
    else:
        assert isinstance(result[0], _SinkError) and seen == list(range(fail_at))
        assert sent[0] == fail_at
    assert nlskit.grid._handoff is None
