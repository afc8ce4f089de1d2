import concurrent.futures
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nlskit import (CouplingSpec, GridSpec, ScalarField, Snapshot, StepParams,
                    StrichartzAccumulator, SystemState, WaveOperatorDivergence,
                    admissible_pair, asymptotic_profile, evolve,
                    linear_substep, strang_step,
                    w1r_norm, wave_operator)

from conftest import gaussian, single_state
from reference import wave_operator_reference


# ---------------------------------------------------------------------------
# Admissible pairs (exact rational arithmetic)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,d,q,r", [
    (1.0, 3, Fraction(8, 3), Fraction(4)),
    (2.0, 1, Fraction(6), Fraction(6)),
    (1.0, 2, Fraction(4), Fraction(4)),
])
def test_admissible_pair_reference_values(p, d, q, r):
    pair = admissible_pair(p, d)
    assert pair.q == q and pair.r == r
    assert pair.admissible
    assert 2 / pair.q + Fraction(d) / pair.r == Fraction(d, 2)
    assert pair.identity_holds()


def test_admissible_pair_flags_supercritical():
    pair = admissible_pair(2.5, 3)  # q = 14/7.5 < 2
    assert not pair.admissible
    assert any("q =" in v for v in pair.violations)
    assert pair.identity_holds()  # the scaling identity is unconditional


def test_admissible_pair_input_validation():
    with pytest.raises(ValueError):
        admissible_pair(0.0, 1)
    with pytest.raises(ValueError):
        admissible_pair(1.0, 4)


# ---------------------------------------------------------------------------
# Strichartz accumulation
# ---------------------------------------------------------------------------

def test_strichartz_zero_trajectory(grid1d):
    pair = admissible_pair(2.0, 1)
    acc = StrichartzAccumulator(pair)
    zero = single_state(ScalarField(np.zeros(grid1d.shape, complex), grid1d))
    for t in (0.0, 1.0, 2.0):
        acc.update(SystemState(t, zero.fields, zero.coupling))
    assert acc.value() == 0.0


def test_strichartz_constant_in_time(grid1d):
    pair = admissible_pair(2.0, 1)
    acc = StrichartzAccumulator(pair)
    st = single_state(gaussian(grid1d, amp=0.8))
    T = 5.0
    for t in np.linspace(0.0, T, 11):
        acc.update(SystemState(t, st.fields, st.coupling))
    s = sum(w1r_norm(f, pair.rf, grads) for f, grads in zip(st.fields, Snapshot(st).grads))
    assert math.isclose(acc.value(), T ** (1.0 / pair.qf) * s, rel_tol=1e-12)


def test_strichartz_free_gaussian_tail():
    grid = GridSpec(1, 1280, 320.0)
    st = single_state(gaussian(grid, amp=0.5), p=2.0)
    pair = admissible_pair(2.0, 1)
    acc = StrichartzAccumulator(pair)
    for t in np.linspace(0.0, 50.0, 201):
        acc.update(SystemState(t, linear_substep(st, t).fields, st.coupling))
    assert acc.value() > 0.0
    assert acc.tail_fraction(10.0) < 0.10


def test_strichartz_rejects_inadmissible_pair():
    with pytest.raises(ValueError, match="not admissible"):
        StrichartzAccumulator(admissible_pair(2.5, 3))


def test_w1r_norm_sup_branch(grid1d):
    f = gaussian(grid1d)
    grads = Snapshot(single_state(f)).grads[0]
    # max of |u| is 1 at the origin; max of |grad u| is e^{-1/2}
    assert abs(w1r_norm(f, math.inf, grads) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Asymptotic profiles
# ---------------------------------------------------------------------------

def test_free_group_unitary_roundtrip(grid1d):
    f = gaussian(grid1d, velocity=[0.7])
    back = linear_substep(linear_substep(single_state(f), 3.0), -3.0)
    assert np.abs(back.fields[0].values - f.values).max() < 1e-12


def test_asymptotic_profile_free_run(grid1d):
    st = single_state(gaussian(grid1d), beta=0.0)
    snaps = [SystemState(t, linear_substep(st, t).fields, st.coupling)
             for t in (0.5, 1.0, 1.5, 2.0)]
    res = asymptotic_profile(snaps, tol=1e-8)
    assert res.converged
    assert max(r[2] for r in res.residuals) < 1e-10
    assert np.abs(res.profile[0].values - st.fields[0].values).max() < 1e-10
    assert res.mass_mismatch < 1e-12


def test_asymptotic_profile_zero_state(grid1d):
    zero = single_state(ScalarField(np.zeros(grid1d.shape, complex), grid1d))
    snaps = [SystemState(t, zero.fields, zero.coupling) for t in (1.0, 2.0)]
    res = asymptotic_profile(snaps, tol=1e-8)
    assert res.converged
    assert np.abs(res.profile[0].values).max() == 0.0


def test_asymptotic_profile_input_validation(grid1d):
    st = single_state(gaussian(grid1d))
    with pytest.raises(ValueError):
        asymptotic_profile([st], tol=1e-6)


def test_asymptotic_profile_flags_nonconvergent_window(grid1d):
    # a nonlinear run sampled far too early: residuals do not reach tol
    st = single_state(gaussian(grid1d, amp=1.2), p=1.0)
    snaps = []
    cur = st
    for _ in range(4):
        for _ in range(20):
            cur = strang_step(cur, 5e-3)
        snaps.append(cur)
    res = asymptotic_profile(snaps, tol=1e-12)
    assert not res.converged


# ---------------------------------------------------------------------------
# Wave operator
# ---------------------------------------------------------------------------

def test_wave_operator_zero_profile(grid1d):
    cpl = CouplingSpec(1, np.array([[1.0]]), 2.0, 1)
    zero = [ScalarField(np.zeros(grid1d.shape, complex), grid1d)]
    res = wave_operator(zero, cpl, t_max=2.0, dt=0.1, tol=1e-10)
    assert res.converged and res.iterations == 1
    assert np.abs(res.state0.fields[0].values).max() == 0.0


def test_wave_operator_free_case_is_identity(grid1d):
    cpl = CouplingSpec(1, np.array([[0.0]]), 2.0, 1)
    prof = [gaussian(grid1d, amp=0.5)]
    res = wave_operator(prof, cpl, t_max=2.0, dt=0.05, tol=1e-12)
    assert res.converged and res.iterations == 1
    assert np.abs(res.state0.fields[0].values - prof[0].values).max() < 1e-12


def test_wave_operator_against_backward_evolution():
    # independent oracle: evolve backward from the free-flowed profile at T
    grid = GridSpec(1, 640, 80.0)
    cpl = CouplingSpec(1, np.array([[1.0]]), 2.0, 1)
    prof = [gaussian(grid, amp=0.2)]
    T = 8.0
    res = wave_operator(prof, cpl, t_max=T, dt=0.02, tol=1e-10)
    assert res.converged

    at_T = linear_substep(SystemState(0.0, tuple(prof), cpl), T)
    cur = SystemState(T, at_T.fields, cpl)
    n = 1600
    for _ in range(n):
        cur = strang_step(cur, -T / n)
    diff = res.state0.fields[0].values - cur.fields[0].values
    l2 = math.sqrt(grid.cell_volume * float(np.sum(np.abs(diff) ** 2)))
    assert l2 < 5e-4


def test_wave_operator_contracts_geometrically():
    grid = GridSpec(1, 512, 64.0)
    cpl = CouplingSpec(1, np.array([[1.0]]), 2.0, 1)
    prof = [gaussian(grid, amp=0.45)]
    res = wave_operator(prof, cpl, t_max=6.0, dt=0.05, tol=1e-12, max_iter=30)
    assert res.converged
    rs = res.residuals
    assert len(rs) >= 3
    ratios = [b / a for a, b in zip(rs, rs[1:])][-3:]
    assert all(r < 1.0 for r in ratios)


def test_wave_operator_divergence_reported():
    grid = GridSpec(1, 256, 32.0)
    cpl = CouplingSpec(1, np.array([[1.0]]), 2.0, 1)
    prof = [gaussian(grid, amp=3.0)]  # far outside the small-data regime
    with pytest.raises(WaveOperatorDivergence, match="shrink"):
        wave_operator(prof, cpl, t_max=4.0, dt=0.05, tol=1e-8, max_iter=30)


def test_wave_operator_roundtrip_small():
    # construct u0 from a profile, evolve, re-extract the profile
    grid = GridSpec(1, 1024, 256.0)
    cpl = CouplingSpec(1, np.array([[1.0]]), 2.0, 1)
    prof = [gaussian(grid, amp=0.2)]
    T = 20.0
    res = wave_operator(prof, cpl, t_max=T, dt=0.05, tol=1e-8)
    assert res.converged

    snaps = []
    params = StepParams(dt=5e-3, t_final=T, snapshot_stride=800)
    state = res.state0

    def sink(s):
        if s.t >= 11.9:
            snaps.append(s)

    evolve(state, params, sink)
    out = asymptotic_profile(snaps, tol=1e-2)
    gap = ScalarField(out.profile[0].values - prof[0].values, grid)
    assert gap.h1_norm() < 1e-2
    assert out.mass_mismatch < 1e-6


def _two_component_profile(m):
    grid = GridSpec(2, m, 8.0)
    cpl = CouplingSpec(2, np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0, 2)
    prof = [gaussian(grid, amp=0.3, center=[0.5, 0.0], velocity=[0.4, 0.0]),
            gaussian(grid, amp=0.2, center=[-0.5, 0.3], width=1.3)]
    return prof, cpl


@pytest.mark.parametrize("d", [1, 2])
def test_wave_operator_matches_the_three_buffer_recursion(d):
    # the node-buffer sweep against the physical-space recursion it
    # replaced: equal up to rounding
    if d == 1:
        grid = GridSpec(1, 256, 32.0)
        cpl = CouplingSpec(1, np.array([[1.0]]), 2.0, 1)
        prof = [gaussian(grid, amp=0.3, velocity=[0.5])]
    else:
        prof, cpl = _two_component_profile(32)
    res = wave_operator(prof, cpl, 3.0, 0.05, tol=1e-10)
    ref = wave_operator_reference(prof, cpl, 3.0, 0.05, tol=1e-10)
    assert res.converged and ref.converged
    assert res.iterations == ref.iterations
    scale = max(np.abs(f.values).max() for f in ref.state0.fields)
    for a, b in zip(res.state0.fields, ref.state0.fields):
        assert np.abs(a.values - b.values).max() <= 1e-12 * scale
    assert math.isclose(res.tail_estimate, ref.tail_estimate, rel_tol=1e-12)
    for a, b in zip(res.residuals, ref.residuals):
        assert abs(a - b) <= 1e-12 * ref.residuals[0]


def test_wave_operator_holds_one_node_buffer():
    prof, cpl = _two_component_profile(32)
    n_nodes = int(round(5.0 / 0.05)) + 1
    node_buffer = n_nodes * cpl.n * 32 ** 2 * 16
    tracemalloc.start()
    try:
        res = wave_operator(prof, cpl, 5.0, 0.05, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < 1.5 * node_buffer, f"peak {peak / node_buffer:.2f} node buffers"


_THREAD_POOL = concurrent.futures.ThreadPoolExecutor


def _run_on_cpus(monkeypatch, cpus, *args, **kwargs):
    """wave_operator with an affinity set of ``cpus`` CPUs; returns its
    result (or raised error) and the worker counts of the pools it made."""
    pools = []

    class Recording(_THREAD_POOL):
        def __init__(self, max_workers, **kw):
            pools.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    before = threading.active_count()
    try:
        return wave_operator(*args, **kwargs), pools
    except WaveOperatorDivergence as err:
        return err, pools
    finally:
        assert threading.active_count() == before


def test_wave_operator_does_not_depend_on_the_worker_count(monkeypatch):
    prof, cpl = _two_component_profile(32)
    runs = [_run_on_cpus(monkeypatch, cpus, prof, cpl, 5.0, 0.05, tol=1e-10)
            for cpus in (1, 4)]
    (one, pools_one), (four, pools_four) = runs
    assert pools_one == [1] and pools_four == [4]
    assert one.converged and one.iterations == four.iterations
    assert one.residuals == four.residuals
    assert one.tail_estimate == four.tail_estimate
    for a, b in zip(one.state0.fields, four.state0.fields):
        assert np.array_equal(a.values, b.values)


def test_wave_operator_workers_switching_often_change_nothing(monkeypatch):
    # 8 workers on fewer cores, switching threads every microsecond: every
    # node integrand still lands in its own slot, read after its future
    grid = GridSpec(1, 256, 32.0)
    cpl = CouplingSpec(1, np.array([[1.0]]), 2.0, 1)
    args = ([gaussian(grid, amp=0.3, velocity=[0.5])], cpl, 8.0, 0.05)
    one, _ = _run_on_cpus(monkeypatch, 1, *args, tol=1e-10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many, pools = _run_on_cpus(monkeypatch, 8, *args, tol=1e-10)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [8] and one.converged
    assert one.residuals == many.residuals and one.tail_estimate == many.tail_estimate
    assert np.array_equal(one.state0.fields[0].values, many.state0.fields[0].values)


@pytest.mark.parametrize("l,p,amp,reason", [
    (32.0, 2.0, 2.0, "grew 3 times"),
    (32.0, 2.0, 3.0, "non-finite iterate or residual in iteration 4"),
    (16.0, 3.0, 3.0, "non-finite nonlinearity at t = 1.75")])
def test_wave_operator_divergence_stops_its_workers(monkeypatch, l, p, amp, reason):
    # the sweep sees residual growth and a non-finite iterate, a worker an
    # overflowing nonlinearity
    grid = GridSpec(1, 256, l)
    cpl = CouplingSpec(1, np.array([[1.0]]), p, 1)
    err, pools = _run_on_cpus(monkeypatch, 4, [gaussian(grid, amp=amp)], cpl, 5.0, 0.05,
                              tol=1e-8, max_iter=30)
    assert isinstance(err, WaveOperatorDivergence) and pools == [4]
    assert reason in str(err)


def test_wave_operator_caps_its_workers_by_the_node_buffer(monkeypatch):
    # 64 CPUs, 101 nodes: n_nodes // 16 = 6 workers, within the bound of
    # test_wave_operator_holds_one_node_buffer
    prof, cpl = _two_component_profile(32)
    node_buffer = 101 * cpl.n * 32 ** 2 * 16
    tracemalloc.start()
    try:
        res, pools = _run_on_cpus(monkeypatch, 64, prof, cpl, 5.0, 0.05, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and pools == [6]
    assert peak < 1.5 * node_buffer, f"peak {peak / node_buffer:.2f} node buffers"
