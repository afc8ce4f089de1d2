"""Property tests of the spectral transforms (round trip and Parseval,
padded half-spectra included), the free flow, the nonlinear substep, the
Strang step, the symmetry of the stepper (bit for bit in the nonlinear
substep) and of the wave operator under permuting components, the phase
of the nonlinear rotation against exp(-i tau g), the running
time integral and the GN ratio's invariances over random dimensions, grids,
times and data, and the quadrature of the d = 2 analytic kernel against
its Bessel/Struve closed form."""

import math

import numpy as np
import pytest
import scipy.fft

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from nlskit import (CouplingSpec, GridSpec, ScalarField, StepParams, energy, evolve,
                    forward_transform, gn_ratio, linear_substep,
                    mass, nonlinear_substep, state_from_arrays, strang_step, total_mass,
                    wave_operator)
from nlskit.evolve import _rotate
from nlskit.grid import _integral_of_j0, padded_geometry, padded_rfft, synthesize, transform
from nlskit.system import RunningIntegral

from conftest import PHASE_TOL
from reference import integral_of_j0_reference

# points per axis by dimension: small enough for many examples per test
M_BY_D = {1: 64, 2: 16, 3: 8}

PROPERTY = settings(max_examples=30, deadline=None)


@st.composite
def states(draw, max_amplitude=1.0):
    """A random N-component state with a valid coupling at a random time."""
    d = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(1, 3))
    p = draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))
    grid = GridSpec(d, M_BY_D[d], draw(st.floats(4.0, 16.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    beta = rng.uniform(0.0, 2.0, (n, n))
    beta = np.diag(np.diag(beta)) if p < 1.0 else 0.5 * (beta + beta.T)
    amp = draw(st.floats(0.0, max_amplitude))
    arrays = [amp * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
              for _ in range(n)]
    t = draw(st.floats(-10.0, 10.0))
    return state_from_arrays(t, arrays, CouplingSpec(n, beta, p, d), grid)


@st.composite
def grids(draw):
    """A random grid: d in 1..3, an even M of at most M_BY_D[d] points per
    axis, any half-width."""
    d = draw(st.sampled_from((1, 2, 3)))
    m = 2 * draw(st.integers(4, M_BY_D[d] // 2))
    return GridSpec(d, m, draw(st.floats(0.5, 32.0)))


def _random_array(grid, seed, real=False):
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(grid.shape)
    return out if real else out + 1j * rng.standard_normal(grid.shape)


def _max_abs(state):
    return max(np.abs(f.values).max() for f in state.fields)


@PROPERTY
@given(grids(), st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3))
def test_transform_round_trip_and_parseval(grid, seed, amp):
    f = ScalarField(amp * _random_array(grid, seed), grid)
    c = forward_transform(f)
    back = synthesize(grid, c, 1.0)
    scale = np.abs(f.values).max()
    assert np.abs(back - f.values).max() <= 1e-13 * scale
    assert abs(c.flat[0] - f.values.mean()) <= 1e-13 * scale   # c_0 is the mean
    # h^d sum |f|^2 = (2L)^d sum |c_k|^2
    physical = grid.cell_volume * float(np.sum(np.abs(f.values) ** 2))
    spectral = grid.box_volume * float(np.sum(np.abs(c) ** 2))
    assert math.isclose(physical, spectral, rel_tol=1e-12)
    # grid.transform works in place on a complex128 array or strided view, an
    # (N, M, ...) batch equals its per-slice transforms bit for bit, and the
    # inverse undoes the forward transform
    stack = np.array([amp * _random_array(grid, seed + mu) for mu in range(3)])
    for inverse in (False, True):
        slices = np.array([transform(grid, a.copy(), inverse) for a in stack])
        whole = stack.copy()
        assert np.shares_memory(transform(grid, whole, inverse), whole)
        box = np.zeros((3,) + (2 * grid.m,) * grid.d, dtype=complex)
        view = box[(slice(None),) + (slice(None, None, 2),) * grid.d]
        view[...] = stack
        out = transform(grid, view, inverse)
        assert np.shares_memory(out, box)
        assert np.array_equal(whole, slices) and np.array_equal(out, slices)
    back = transform(grid, transform(grid, stack.copy()), inverse=True)
    assert np.abs(back - stack).max() <= 1e-13 * np.abs(stack).max()


@PROPERTY
@given(grids(), st.integers(0, 2 ** 32 - 1))
def test_padded_half_spectrum_parseval(grid, seed):
    # every half-spectrum mode stands for itself and its conjugate except on
    # the last-axis 0 and Nyquist planes: PaddedGeometry.weights
    f = _random_array(grid, seed, real=True)
    geo = padded_geometry(grid)
    f_hat = padded_rfft(grid, f)
    assert f_hat.shape == geo.shape[:-1] + (geo.shape[-1] // 2 + 1,)
    physical = grid.cell_volume * float(np.sum(f * f))
    spectral = grid.cell_volume / geo.npoints * float(np.sum(geo.weights * np.abs(f_hat) ** 2))
    assert math.isclose(physical, spectral, rel_tol=1e-12)
    # the per-axis passes equal one padded rfftn bit for bit: on a contiguous
    # array, on a strided .real view of a complex array (as Snapshot passes
    # its gradients) and on an input already 2M long (as _kernel_hat
    # passes the sampled kernel)
    z = _random_array(grid, seed + 1)
    full = np.random.default_rng(seed).standard_normal(geo.shape)
    for values in (f, z.real, full):
        assert np.array_equal(padded_rfft(grid, values),
                              scipy.fft.rfftn(values, s=geo.shape))


@PROPERTY
@given(st.sampled_from(((1, 64, 4), (2, 32, 2), (3, 16, 2))), st.integers(1, 3),
       st.sampled_from(("main", "cubic")), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-2, 1e2), st.data())
def test_gn_ratio_is_invariant_under_scaling_and_grid_translation(
        dims, n, variant, seed, scale, data):
    d, m, cells = dims   # h = 1/cells divides the unit cube edge
    grid = GridSpec(d, m, m / (2.0 * cells))
    arrays = [_random_array(grid, seed + mu) for mu in range(n)]
    ratio = gn_ratio([ScalarField(a, grid) for a in arrays], variant)
    shift = tuple(data.draw(st.integers(0, m - 1)) for _ in range(d))
    moved = [ScalarField(np.roll(a, shift, axis=tuple(range(d))), grid) for a in arrays]
    scaled = [ScalarField(scale * a, grid) for a in arrays]
    assert math.isclose(gn_ratio(moved, variant), ratio, rel_tol=1e-12)
    assert math.isclose(gn_ratio(scaled, variant), ratio, rel_tol=1e-12)


@PROPERTY
@given(states(), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_linear_substep_group_law_and_unitarity(state, tau1, tau2):
    # the phases k^2 tau reach ~6e3 rad here, each rounded to ~1e-12
    tol = 1e-10 * max(_max_abs(state), 1e-300)
    two = linear_substep(linear_substep(state, tau1), tau2)
    one = linear_substep(state, tau1 + tau2)
    for a, b in zip(two.fields, one.fields):
        assert np.abs(a.values - b.values).max() <= tol
    back = linear_substep(linear_substep(state, tau1), -tau1)
    for a, b in zip(back.fields, state.fields):
        assert np.abs(a.values - b.values).max() <= tol
    assert math.isclose(total_mass(linear_substep(state, tau1)), total_mass(state),
                        rel_tol=1e-12, abs_tol=1e-300)


@PROPERTY
@given(states(max_amplitude=2.0), st.floats(-2.0, 2.0))
def test_nonlinear_substep_preserves_every_pointwise_modulus(state, tau):
    out = nonlinear_substep(state, tau)
    assert out.t == state.t
    for a, b in zip(out.fields, state.fields):
        assert np.allclose(np.abs(a.values), np.abs(b.values), rtol=1e-13, atol=0.0)


# angles theta = -tau g anywhere in |theta| <= 1e6, or within 1e-6 of an odd
# multiple of pi, where t = tan(theta/2) is largest
ANGLES = st.one_of(st.floats(-1e6, 1e6), st.builds(lambda k, e: (2 * k + 1) * math.pi + e,
                                                   st.integers(-10 ** 5, 10 ** 5),
                                                   st.floats(-1e-6, 1e-6)))


@PROPERTY
@given(st.lists(ANGLES, min_size=1, max_size=64), st.floats(1e-3, 10.0))
def test_the_rotation_applies_exp_of_minus_i_tau_g(angles, tau):
    # the phase rotates a stack of ones into itself; PHASE_TOL is explained
    # where it is defined
    g = -np.array([angles]) / tau
    phase = np.ones(g.shape, dtype=complex)
    _rotate(phase, g.copy(), tau)
    assert np.abs(phase - np.exp(-1j * tau * g)).max() <= PHASE_TOL
    assert np.abs(np.abs(phase) - 1.0).max() <= PHASE_TOL


@PROPERTY
@given(states(), st.floats(1e-4, 0.1))
def test_strang_step_is_the_composition_and_one_evolve_step(state, dt):
    step = strang_step(state, dt)
    comp = linear_substep(nonlinear_substep(linear_substep(state, dt / 2.0), dt), dt / 2.0)
    fused = evolve(state, StepParams(dt=dt, t_final=dt))
    for a, b, c in zip(step.fields, comp.fields, fused.fields):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)
    assert step.t == comp.t
    # evolve adds dt in one rounding, the composition in two half steps
    assert math.isclose(step.t, fused.t, rel_tol=1e-15, abs_tol=1e-15)


@PROPERTY
@given(states(), st.floats(1e-3, 0.05), st.data())
def test_permuting_beta_and_the_components_permutes_the_solution(state, dt, data):
    c = state.coupling
    perm = data.draw(st.permutations(range(c.n)))
    swapped = state_from_arrays(
        state.t, [state.fields[i].values for i in perm],
        CouplingSpec(c.n, c.beta[np.ix_(perm, perm)], c.p, c.d), state.grid)
    params = StepParams(dt=dt, t_final=3 * dt)
    out, out_swapped = evolve(state, params), evolve(swapped, params)
    # the exponents agree bit for bit (see the test below); the energy sums
    # over mu and nu in another order: equal up to rounding
    tol = 1e-12 * max(_max_abs(out), 1e-300)
    for i, mu in enumerate(perm):
        assert np.abs(out_swapped.fields[i].values - out.fields[mu].values).max() <= tol
        assert math.isclose(mass(out_swapped, i), mass(out, mu), rel_tol=1e-12, abs_tol=1e-300)
    assert math.isclose(energy(out_swapped).total, energy(out).total,
                        rel_tol=1e-12, abs_tol=1e-300)


@PROPERTY
@given(states(max_amplitude=4.0), st.floats(-2.0, 2.0), st.data())
def test_permuting_beta_and_the_components_permutes_the_nonlinear_substep_exactly(
        state, tau, data):
    c = state.coupling
    perm = data.draw(st.permutations(range(c.n)))
    swapped = state_from_arrays(
        state.t, [state.fields[i].values for i in perm],
        CouplingSpec(c.n, c.beta[np.ix_(perm, perm)], c.p, c.d), state.grid)
    out, out_swapped = nonlinear_substep(state, tau), nonlinear_substep(swapped, tau)
    for i, mu in enumerate(perm):
        assert np.array_equal(out_swapped.fields[i].values, out.fields[mu].values)


@PROPERTY
@given(states(max_amplitude=0.2), st.data())
def test_permuting_beta_and_the_profile_permutes_the_wave_operator(state, data):
    c = state.coupling
    perm = data.draw(st.permutations(range(c.n)))
    swapped = CouplingSpec(c.n, c.beta[np.ix_(perm, perm)], c.p, c.d)
    res = wave_operator(state.fields, c, 0.5, 0.05, tol=1e-10, max_iter=8)
    res_swapped = wave_operator([state.fields[i] for i in perm], swapped, 0.5, 0.05,
                                tol=1e-10, max_iter=8)
    # the exponent sums over nu, and the residual over mu, in another order
    tol = 1e-12 * max(_max_abs(res.state0), 1e-300)
    for i, mu in enumerate(perm):
        assert np.abs(res_swapped.state0.fields[i].values
                      - res.state0.fields[mu].values).max() <= tol
    assert res_swapped.iterations == res.iterations
    for a, b in zip(res_swapped.residuals, res.residuals):
        assert abs(a - b) <= 1e-12 * max(res.residuals[0], 1e-300)


@PROPERTY
@given(st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(0.0, 1e3)),
                min_size=1, max_size=40, unique_by=lambda s: s[0]),
       st.floats(0.0, 1.0))
def test_running_integral_windows_add_up_to_the_total(samples, frac):
    acc = RunningIntegral()
    for t, v in sorted(samples):
        acc.add(t, v)
    t0, t1 = acc.history[0][0], acc.history[-1][0]
    tol = 1e-12 * acc.total  # a sum of nonnegative terms
    assert math.isclose(acc.increment_over(t0, t1), acc.total, rel_tol=0.0, abs_tol=tol)
    tm = t0 + frac * (t1 - t0)
    split = acc.increment_over(t0, tm) + acc.increment_over(tm, t1)
    assert math.isclose(split, acc.total, rel_tol=0.0, abs_tol=tol)


@PROPERTY
@given(st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=64))
def test_integral_of_j0_matches_the_bessel_struve_oracle(values):
    # the node count follows the largest x, so smaller ones ride along
    x = np.array(values)
    assert np.abs(_integral_of_j0(x) - integral_of_j0_reference(x)).max() <= 1e-11
