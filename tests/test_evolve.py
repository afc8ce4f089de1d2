import math

import numpy as np
import pytest
import scipy.fft

from nlskit import (CouplingSpec, GridSpec, NanAbortError, ScalarField,
                    StepParams, SystemState, energy, evolve,
                    field_from_function, h1_norm, linear_substep, mass,
                    nonlinear_substep, state_from_arrays, strang_step)
from nlskit.evolve import _chunk_rows, _nonlinear_exponents

from conftest import free_gaussian_exact, gaussian, single_state
from reference import evolve_reference, nonlinear_exponents_reference, rk4_reference_step

# points per axis by dimension for the stacked-versus-per-component checks
SMALL_M = {1: 64, 2: 16, 3: 8}


def _random_state(d, n, p, seed, amp=1.0):
    """n random components on a small grid; beta is diagonal for p < 1 (the
    decoupled mode), otherwise symmetric with the (0, n-1) pair switched off
    when n >= 3; a few points of every component are exactly zero."""
    grid = GridSpec(d, SMALL_M[d], 6.0)
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.2, 1.5, (n, n))
    beta = np.diag(np.diag(beta)) if p < 1.0 else 0.5 * (beta + beta.T)
    if n >= 3:
        beta[0, n - 1] = beta[n - 1, 0] = 0.0
    arrays = []
    for mu in range(n):
        a = amp * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        a.flat[mu::5] = 0.0
        arrays.append(a)
    return state_from_arrays(0.0, arrays, CouplingSpec(n, beta, p, d), grid)


def test_step_params_validation():
    with pytest.raises(ValueError):
        StepParams(dt=-0.1, t_final=1.0)
    with pytest.raises(ValueError):
        StepParams(dt=0.1, t_final=-1.0)
    with pytest.raises(ValueError):
        StepParams(dt=0.1, t_final=1.0, snapshot_stride=0)
    assert StepParams(dt=1e-3, t_final=10.0).n_steps == 10000


def test_linear_substep_identity_and_plane_wave(grid1d):
    st = single_state(gaussian(grid1d))
    same = linear_substep(st, 0.0)
    assert np.abs(same.fields[0].values - st.fields[0].values).max() < 1e-15
    k = 6 * math.pi / grid1d.l
    pw = single_state(field_from_function(grid1d, lambda x: np.exp(1j * k * x)))
    tau = 0.37
    out = linear_substep(pw, tau)
    expected = np.exp(1j * (k * grid1d.x_mesh[0] - k ** 2 * tau))
    assert np.abs(out.fields[0].values - expected).max() < 1e-12


def test_linear_substep_free_gaussian(grid1d):
    st = single_state(gaussian(grid1d))
    out = linear_substep(st, 1.0)
    assert np.abs(out.fields[0].values - free_gaussian_exact(grid1d, 1.0)).max() < 1e-8
    assert math.isclose(mass(out, 0), mass(st, 0), rel_tol=1e-12)


def test_nonlinear_substep_constant_field(grid1d):
    c = 0.8 - 0.3j
    st = single_state(ScalarField(np.full(grid1d.shape, c), grid1d), p=1.0)
    tau = 0.6
    out = nonlinear_substep(st, tau)
    expected = c * np.exp(-1j * tau * abs(c) ** 2)
    assert np.abs(out.fields[0].values - expected).max() < 1e-14
    # moduli are exactly preserved
    assert np.abs(np.abs(out.fields[0].values) - abs(c)).max() < 1e-14


def test_nonlinear_substep_zero_component_invariant(grid1d):
    u1 = gaussian(grid1d, amp=0.9)
    zero = ScalarField(np.zeros(grid1d.shape, complex), grid1d)
    cpl = CouplingSpec(2, np.array([[1.0, 0.4], [0.4, 1.0]]), 1.0, 1)
    st = SystemState(0.0, (u1, zero), cpl)
    out = nonlinear_substep(st, 0.5)
    assert np.abs(out.fields[1].values).max() == 0.0
    solo = nonlinear_substep(single_state(u1, p=1.0), 0.5)
    assert np.abs(out.fields[0].values - solo.fields[0].values).max() < 1e-14


def test_nonlinear_substep_beta_zero_identity(grid1d):
    st = single_state(gaussian(grid1d), beta=0.0)
    out = nonlinear_substep(st, 0.9)
    assert np.abs(out.fields[0].values - st.fields[0].values).max() == 0.0


def test_nonlinear_substep_subunit_power_handles_zeros(grid1d):
    # decoupled p < 1: |u|^{p-1} is singular at zeros; the flow stays finite
    vals = gaussian(grid1d).values.copy()
    vals[::7] = 0.0
    st = single_state(ScalarField(vals, grid1d), p=0.5)
    out = nonlinear_substep(st, 0.3)
    assert np.isfinite(out.fields[0].values).all()
    assert np.abs(out.fields[0].values[::7]).max() == 0.0


def test_strang_beta_zero_equals_linear(grid1d):
    st = single_state(gaussian(grid1d), beta=0.0)
    dt = 0.05
    a = strang_step(st, dt).fields[0].values
    b = linear_substep(st, dt).fields[0].values
    assert np.abs(a - b).max() < 1e-13


def test_strang_mass_conservation_and_reversibility(grid1d):
    st = single_state(gaussian(grid1d, amp=0.9), p=2.0)
    dt = 1e-2
    cur = st
    for _ in range(50):
        cur = strang_step(cur, dt)
    assert abs(mass(cur, 0) - mass(st, 0)) < 1e-12 * mass(st, 0)
    back = cur
    for _ in range(50):
        back = strang_step(back, -dt)
    scale = np.abs(st.fields[0].values).max()
    assert np.abs(back.fields[0].values - st.fields[0].values).max() < 1e-10 * scale


def test_strang_energy_second_order(grid1d):
    st = single_state(gaussian(grid1d, amp=0.8), p=1.0)
    e0 = energy(st).total

    def drift(dt):
        params = StepParams(dt=dt, t_final=1.0, snapshot_stride=10)
        drifts = []
        evolve(st, params, lambda s: drifts.append(abs(energy(s).total - e0)))
        return max(drifts)

    ratio = drift(4e-3) / drift(2e-3)
    assert 3.5 <= ratio <= 4.5


def test_evolve_t0_emits_one_record(grid1d):
    st = single_state(gaussian(grid1d))
    seen = []
    out = evolve(st, StepParams(dt=1e-3, t_final=0.0), seen.append)
    assert len(seen) == 1 and out is st


def test_evolve_free_gaussian_closed_form():
    # box large enough that the spreading tail never reaches the boundary
    grid = GridSpec(1, 512, 32.0)
    st = single_state(gaussian(grid), beta=0.0)
    out = evolve(st, StepParams(dt=1e-2, t_final=2.0, snapshot_stride=50))
    assert abs(out.t - 2.0) < 1e-12
    diff = out.fields[0].values - free_gaussian_exact(grid, 2.0)
    l2 = math.sqrt(grid.cell_volume * float(np.sum(np.abs(diff) ** 2)))
    assert l2 < 1e-8


def test_evolve_symmetric_components_stay_equal(grid1d):
    u = gaussian(grid1d, amp=0.7)
    beta = np.array([[1.0, 0.5], [0.5, 1.0]])
    cpl = CouplingSpec(2, beta, 1.0, 1)
    st = SystemState(0.0, (u, ScalarField(u.values.copy(), grid1d)), cpl)
    out = evolve(st, StepParams(dt=2e-3, t_final=1.0, snapshot_stride=100))
    diff = np.abs(out.fields[0].values - out.fields[1].values).max()
    assert diff < 1e-10


def test_evolve_component_permutation_equivariance(grid1d):
    u1 = gaussian(grid1d, amp=0.9)
    u2 = gaussian(grid1d, amp=0.5, center=[2.0])
    beta = np.array([[1.0, 0.3], [0.3, 2.0]])
    params = StepParams(dt=2e-3, t_final=0.5, snapshot_stride=50)
    st = SystemState(0.0, (u1, u2), CouplingSpec(2, beta, 1.0, 1))
    out = evolve(st, params)
    perm = np.array([[2.0, 0.3], [0.3, 1.0]])
    st_p = SystemState(0.0, (u2, u1), CouplingSpec(2, perm, 1.0, 1))
    out_p = evolve(st_p, params)
    assert np.abs(out.fields[0].values - out_p.fields[1].values).max() < 1e-12
    assert np.abs(out.fields[1].values - out_p.fields[0].values).max() < 1e-12


def test_evolve_snapshot_count_matches_contract(grid1d):
    st = single_state(gaussian(grid1d))
    seen = []
    evolve(st, StepParams(dt=1e-3, t_final=0.1, snapshot_stride=10), seen.append)
    assert len(seen) == math.floor(0.1 / (1e-3 * 10) + 1e-9) + 1


def test_evolve_free_flow_preserves_h1(grid1d):
    st = single_state(gaussian(grid1d), beta=0.0)
    h0 = h1_norm(st)
    out = evolve(st, StepParams(dt=5e-3, t_final=1.0, snapshot_stride=100))
    assert h1_norm(out) <= (1 + 1e-6) * h0


def test_evolve_dealias_keeps_conservation(grid1d):
    st = single_state(gaussian(grid1d, amp=0.8), p=1.0)
    params = StepParams(dt=2e-3, t_final=0.5, snapshot_stride=50, dealias=True)
    out = evolve(st, params)
    assert abs(mass(out, 0) - mass(st, 0)) < 1e-10 * mass(st, 0)
    assert abs(energy(out).total - energy(st).total) < 1e-5 * energy(st).total


def test_evolve_nan_abort(grid1d):
    bad = np.full(grid1d.shape, np.inf + 0j)
    st = single_state(ScalarField(bad, grid1d))
    with pytest.raises(NanAbortError) as err:
        evolve(st, StepParams(dt=1e-3, t_final=0.1))
    assert err.value.t == st.t

    # finite data whose nonlinear exponent |u|^{p+1} |u|^{p-1} overflows in
    # the first step taken from t = 0.25
    huge = single_state(gaussian(grid1d, amp=1e80), p=2.0)
    huge = SystemState(0.25, huge.fields, huge.coupling)
    with pytest.raises(NanAbortError) as err:
        evolve(huge, StepParams(dt=1e-3, t_final=0.1, snapshot_stride=5))
    assert math.isfinite(err.value.t) and err.value.t == 0.25
    assert "grid index" in str(err.value.__cause__)


def test_rk4_zero_state(grid1d):
    st = single_state(ScalarField(np.zeros(grid1d.shape, complex), grid1d))
    out = rk4_reference_step(st, 1e-3)
    assert np.abs(out.fields[0].values).max() == 0.0


def test_rk4_matches_linear_flow_for_beta_zero():
    grid = GridSpec(1, 64, 16.0)
    st = single_state(gaussian(grid), beta=0.0)
    dt = 2e-3
    out = rk4_reference_step(st, dt)
    exact = linear_substep(st, dt)
    # single-step defect of a 4th-order method
    assert np.abs(out.fields[0].values - exact.fields[0].values).max() < 1e-9


def test_rk4_cross_validates_strang():
    grid = GridSpec(1, 64, 16.0)
    st = single_state(gaussian(grid, amp=0.7), p=1.0)
    T = 0.5
    strang = evolve(st, StepParams(dt=1e-3, t_final=T, snapshot_stride=500))
    cur, n = st, 250
    for _ in range(n):
        cur = rk4_reference_step(cur, T / n)
    diff = cur.fields[0].values - strang.fields[0].values
    l2 = math.sqrt(grid.cell_volume * float(np.sum(np.abs(diff) ** 2)))
    assert l2 < 1e-5


def test_rk4_instability_detected():
    grid = GridSpec(1, 64, 4.0)  # h = 0.125, stability needs dt << h^2/pi
    st = single_state(gaussian(grid, width=0.5), beta=0.0)
    with pytest.raises(RuntimeError, match="unstable"):
        cur = st
        for _ in range(200):
            cur = rk4_reference_step(cur, 0.05)


@pytest.mark.parametrize("p", (0.5, 1.0, 1.5, 2.0, 3.0))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_stacked_exponents_equal_the_per_component_ones_bit_for_bit(d, n, p):
    # n = 4 sorts the three cross terms of each component
    state = _random_state(d, n, p, seed=100 * d + 10 * n + int(2 * p))
    arrays = [f.values for f in state.fields]
    want = nonlinear_exponents_reference(arrays, state.coupling, state.t)
    got = _nonlinear_exponents(arrays, state.coupling, state.t)
    out = np.full((n,) + state.grid.shape, np.nan)
    into = _nonlinear_exponents(np.stack(arrays), state.coupling, state.t, out=out)
    assert got.shape == (n,) + state.grid.shape and into is out
    for a, b, c in zip(got, out, want):
        assert np.array_equal(a, c) and np.array_equal(b, c)


@pytest.mark.parametrize("p", (0.5, 1.0, 1.5, 2.0, 3.0))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_exponents_in_caller_scratch_equal_the_allocating_ones_bit_for_bit(d, n, p):
    # the scratch starts dirty (NaN, then the previous call's values), and
    # p = 0.5 and 1.5 take the sqrt and square fast paths of **
    state = _random_state(d, n, p, seed=100 * d + 10 * n + int(2 * p))
    other = _random_state(d, n, p, seed=7 + 100 * d + 10 * n + int(2 * p))
    work = np.full((2 * n + 1,) + state.grid.shape, np.nan)
    out = np.full((n,) + state.grid.shape, np.nan)
    for st in (state, other):
        stack = np.stack([f.values for f in st.fields])
        want = _nonlinear_exponents(stack, st.coupling, st.t)
        got = _nonlinear_exponents(stack, st.coupling, st.t, out=out, work=work)
        assert got is out and np.array_equal(got, want)


@pytest.mark.parametrize("p,mu", ((0.5, 1), (2.0, 0)))
def test_exponents_in_caller_scratch_name_the_same_non_finite_entry(p, mu):
    # decoupled at p < 1, so the NaN of component 1 shows first in its own
    # exponent; coupled at p = 2, it shows first in component 0's
    state = _random_state(2, 3, p, seed=5)
    stack = np.stack([f.values for f in state.fields])
    stack[1, 3, 4] = np.nan
    stack[2, 0, 1] = np.inf
    causes = []
    for work in (None, np.zeros((7,) + state.grid.shape)):
        with pytest.raises(NanAbortError) as err:
            _nonlinear_exponents(stack, state.coupling, 0.5, work=work)
        assert err.value.t == 0.5
        causes.append(str(err.value.__cause__))
    assert causes[0] == causes[1]
    assert f"component {mu} at grid index (3, 4)" in causes[0]


@pytest.mark.parametrize("p", (0.5, 2.0))
def test_exponents_of_a_stack_of_many_chunks_equal_the_reference_bit_for_bit(p):
    # a d = 3, M = 48 stack spans several chunks of grid rows; a NaN in
    # component 1 in the first chunk and an inf in component 0 in the last
    # name component 0 when decoupled (p < 1), as one whole-array pass would
    n = 2
    grid = GridSpec(3, 48, 6.0)
    rng = np.random.default_rng(48)
    stack = rng.standard_normal((n,) + grid.shape) + 1j * rng.standard_normal((n,) + grid.shape)
    stack[:, 5, 6, 7] = 0.0
    beta = np.diag([1.0, 0.7]) if p < 1.0 else np.array([[1.0, 0.4], [0.4, 0.7]])
    coupling = CouplingSpec(n, beta, p, 3)
    assert 48 / _chunk_rows(stack.shape) > 2
    want = nonlinear_exponents_reference(list(stack), coupling, 0.0)
    for got in (_nonlinear_exponents(stack, coupling, 0.0),
                _nonlinear_exponents(stack, coupling, 0.0,
                                     work=np.full((2 * n + 1,) + grid.shape, np.nan))):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    stack[1, 0, 1, 2] = np.nan
    stack[0, 47, 1, 2] = np.inf
    with pytest.raises(NanAbortError) as err:
        _nonlinear_exponents(stack, coupling, 0.25)
    assert err.value.t == 0.25
    first = (47, 1, 2) if p < 1.0 else (0, 1, 2)  # coupled, the NaN reaches g_0
    assert f"component 0 at grid index {first}" in str(err.value.__cause__)


@pytest.mark.parametrize("stride", (1, 4))
@pytest.mark.parametrize("dealias", (False, True))
@pytest.mark.parametrize("p", (0.5, 1.0, 2.0, 3.0))
@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_stacked_evolve_matches_the_per_component_reference(d, n, p, dealias, stride):
    # 6 steps: with stride 4 the last block of 2 steps emits no snapshot
    state = _random_state(d, n, p, seed=100 * d + 10 * n + int(2 * p), amp=0.7)
    params = StepParams(dt=0.01, t_final=0.06, snapshot_stride=stride, dealias=dealias)
    seen, seen_ref = [], []
    out = evolve(state, params, seen.append)
    ref = evolve_reference(state, params, seen_ref.append)
    assert len(seen) == len(seen_ref) == params.n_snapshots
    assert [s.t for s in seen] == [s.t for s in seen_ref]
    assert out.t == ref.t
    for a, b in zip(seen + [out], seen_ref + [ref]):
        scale = max(np.abs(f.values).max() for f in b.fields)
        for fa, fb in zip(a.fields, b.fields):
            assert np.abs(fa.values - fb.values).max() <= 1e-12 * scale


def test_evolve_makes_one_batched_transform_pair_per_step(monkeypatch):
    # a transform is one numpy.fft pass per axis over the whole (N, M, ...)
    # stack: d fft passes forward and d ifft passes back
    calls = {}

    def count(lib, name):
        fn = getattr(lib, name)

        def counted(x, *args, **kwargs):
            calls.setdefault(f"{lib.__name__}.{name}", []).append(x.shape)
            return fn(x, *args, **kwargs)

        monkeypatch.setattr(lib, name, counted)

    for lib in (scipy.fft, np.fft):
        for name in ("fftn", "ifftn", "fft", "ifft"):
            count(lib, name)
    state = _random_state(2, 3, 1.0, seed=7)
    stack = [(3,) + state.grid.shape] * state.grid.d
    n = 5  # one block of n steps
    evolve(state, StepParams(dt=1e-3, t_final=n * 1e-3, snapshot_stride=n))
    assert calls == {"numpy.fft.fft": stack * (n + 1), "numpy.fft.ifft": stack * (n + 1)}
    for comps in (1, 2, 3):
        calls.clear()
        state = _random_state(2, comps, 1.0, seed=comps)
        stack = [(comps,) + state.grid.shape] * state.grid.d
        linear_substep(state, 0.1)
        assert calls == {"numpy.fft.fft": stack, "numpy.fft.ifft": stack}


def test_evolve_nan_abort_names_the_component(grid1d):
    # decoupled, so only the huge component's exponent |u|^3 |u| overflows
    calm, huge = gaussian(grid1d, amp=0.5), gaussian(grid1d, amp=1e80)
    mods = np.abs(huge.values)
    with np.errstate(over="ignore"):
        first = int(np.flatnonzero(~np.isfinite(mods ** 3.0 * mods))[0])
    cpl = CouplingSpec(2, np.eye(2), 2.0, 1)
    for fields, mu in (((calm, huge), 1), ((huge, calm), 0)):
        with pytest.raises(NanAbortError) as err:
            evolve(SystemState(0.25, fields, cpl), StepParams(dt=1e-3, t_final=0.1))
        assert err.value.t == 0.25
        cause = str(err.value.__cause__)
        assert f"component {mu} at grid index ({first},)" in cause
