import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.fft

import nlskit.grid
from nlskit import GridSpec, RadialKernel, ScalarField, field_from_function, forward_transform
from nlskit.evolve import _rotate
from nlskit.grid import (PARALLEL_MIN_POINTS, _integral_of_j0, _kernel_hat, h1_norms,
                         kernel_gradient_product, kernel_potential, padded_geometry,
                         padded_rfft, synthesize, transform)

from conftest import gaussian, on_another_thread, random_field
from reference import (apply_multiplier, convolve_kernel_gradient, convolve_radial_kernel,
                       integral_of_j0_reference, kernel_axis_pairing_reference,
                       kernel_inner_product)


def gradient(f):
    """d_a f per axis, as the runs take it: synthesize with i k_a from the
    coefficients (Snapshot.grads)."""
    return [synthesize(f.grid, forward_transform(f), 1j * k) for k in f.grid.k_mesh]


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 64, 8.0)
    with pytest.raises(ValueError):
        GridSpec(1, 63, 8.0)   # odd
    with pytest.raises(ValueError):
        GridSpec(1, 4, 8.0)    # too few points
    with pytest.raises(ValueError):
        GridSpec(1, 64, -1.0)
    g = GridSpec(2, 64, 8.0)
    assert g.npoints == 64 ** 2
    assert g.axis_wavenumbers.shape == (64,)
    assert math.isclose(g.h, 0.25)


def test_constant_maps_to_dc_mode(grid1d):
    f = ScalarField(np.full(grid1d.shape, 1.0 + 0.0j), grid1d)
    c = forward_transform(f)
    assert abs(c[0] - 1.0) < 1e-12
    assert np.abs(c[1:]).max() < 1e-12


def test_plane_wave_single_coefficient(grid1d):
    k1 = math.pi / grid1d.l
    f = field_from_function(grid1d, lambda x: np.exp(1j * k1 * x))
    c = forward_transform(f)
    assert abs(c[1] - 1.0) < 1e-12
    others = np.abs(np.delete(c, 1))
    assert others.max() < 1e-12


def test_gaussian_spectrum_matches_transform(grid1d):
    # coefficients of exp(ikx) scale the closed-form transform by 1/(2L)
    f = gaussian(grid1d)
    c = forward_transform(f)
    k = grid1d.axis_wavenumbers
    closed = math.sqrt(2.0 * math.pi) * np.exp(-k ** 2 / 2.0)
    assert np.abs(2 * grid1d.l * c - closed).max() < 1e-8


@pytest.mark.parametrize("d,m,l", [(1, 256, 16.0), (2, 64, 8.0), (3, 24, 6.0)])
def test_round_trip_and_parseval(d, m, l):
    grid = GridSpec(d, max(m, 8), l)
    rng = np.random.default_rng(7)
    f = random_field(grid, rng)
    c = forward_transform(f)
    back = synthesize(grid, c, 1.0)
    scale = np.abs(f.values).max()
    assert np.abs(back - f.values).max() < 1e-12 * scale
    spectral = math.sqrt(grid.box_volume * float(np.sum(np.abs(c) ** 2)))
    assert math.isclose(f.l2_norm(), spectral, rel_tol=1e-12)


@pytest.mark.parametrize("grid", [GridSpec(1, 256, 16.0), GridSpec(2, 100, 8.0),
                                  GridSpec(3, 24, 6.0)], ids=lambda g: f"d{g.d}-m{g.m}")
def test_h1_norm_is_the_batched_norm_bit_for_bit(grid):
    # ScalarField.h1_norm is one row of grid.h1_norms, and equals the
    # single-field formula it replaced bit for bit; a plain transform output
    # gives M^d times the norm, whatever the half-box phase
    rng = np.random.default_rng(grid.d)
    fields = [random_field(grid, rng) for _ in range(3)]
    coeffs = np.stack([forward_transform(f) for f in fields])
    batched = h1_norms(grid, coeffs)
    assert batched.shape == (3,)
    for f, c, norm in zip(fields, coeffs, batched):
        old = math.sqrt(grid.box_volume
                        * float(np.sum((1.0 + grid.k_squared) * np.abs(c) ** 2)))
        assert f.h1_norm() == old == norm
        plain = transform(grid, f.values.astype(complex))
        assert math.isclose(float(h1_norms(grid, plain)), grid.npoints * old, rel_tol=1e-13)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("grid", [GridSpec(1, 100, 8.0), GridSpec(2, 100, 8.0),
                                  GridSpec(3, 48, 6.0)], ids=lambda g: f"d{g.d}-m{g.m}")
def test_transforms_equal_scipy_fft_bit_for_bit(grid, n):
    # scipy.fft is the oracle: the per-axis numpy.fft passes, with the
    # inverse's 1/M^d applied once right after its first pass, reproduce
    # fftn and ifftn on a batch of n fields, in place, and the padded passes
    # reproduce one padded rfftn
    rng = np.random.default_rng(10 * grid.d + n)
    z = rng.standard_normal((n,) + grid.shape) + 1j * rng.standard_normal((n,) + grid.shape)
    axes = tuple(range(-grid.d, 0))
    for inverse, oracle in ((False, scipy.fft.fftn), (True, scipy.fft.ifftn)):
        values = z.copy()
        out = transform(grid, values, inverse=inverse)
        assert np.shares_memory(out, values)
        assert np.array_equal(out, oracle(z, axes=axes))
    padded_shape = padded_geometry(grid).shape
    for values in z.real:
        assert np.array_equal(padded_rfft(grid, values), scipy.fft.rfftn(values, s=padded_shape))


def test_split_and_inline_work_on_a_d3_stack_equal_the_oracles_bit_for_bit(two_cpu_pool):
    # a d = 3, M = 48, N = 2 stack is above PARALLEL_MIN_POINTS: on the main
    # thread its transforms, the padded passes of one component and its phase
    # rotation split over the pool; on any other thread they run inline.
    # Both equal scipy.fft (the oracle whose axis order the passes follow)
    # and the one-call rotation, bit for bit; the kernel potential of that
    # component (padded passes back) is the same split as inline
    grid = GridSpec(3, 48, 6.0)
    rng = np.random.default_rng(48)
    z = rng.standard_normal((2,) + grid.shape) + 1j * rng.standard_normal((2,) + grid.shape)
    g = rng.uniform(0.0, 3.0, z.shape)
    tau = 0.01
    assert z.size >= PARALLEL_MIN_POINTS
    phase = np.empty(z.shape, dtype=complex)
    np.cos(-tau * g, out=phase.real)
    np.sin(-tau * g, out=phase.imag)
    axes = (-3, -2, -1)
    expected = {"forward": scipy.fft.fftn(z, axes=axes), "inverse": scipy.fft.ifftn(z, axes=axes),
                "padded": scipy.fft.rfftn(z[0].real, s=padded_geometry(grid).shape),
                "rotated": z * phase}

    def compute():
        rotated = z.copy()
        _rotate(rotated, g.copy(), tau)
        return {"forward": transform(grid, z.copy()),
                "inverse": transform(grid, z.copy(), inverse=True),
                "padded": padded_rfft(grid, z[0].real.copy()), "rotated": rotated,
                "potential": kernel_potential(grid, padded_rfft(grid, z[0].real.copy()),
                                              RadialKernel.abs_distance(), overwrite=True)}

    inline = on_another_thread(compute)
    assert nlskit.grid._pool is None   # no thread but the one that ran it
    split = compute()
    assert nlskit.grid._pool is not None
    assert split["potential"].tobytes() == inline["potential"].tobytes()
    for key, want in expected.items():
        for got in (inline[key], split[key]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), key


_NO_POOL_SCRIPT = textwrap.dedent("""
    import os, threading
    os.sched_getaffinity = lambda pid: set(range(4))  # a split would have workers
    import numpy as np
    import nlskit.grid
    from nlskit import (CouplingSpec, GridSpec, MorawetzWeight, StepParams, SystemState,
                        admissible_pair, evolve, field_from_function)
    from nlskit.diagnostics import DiagnosticsCollector

    def state(d, m, n, l):
        grid = GridSpec(d, m, l)
        beta = np.full((n, n), 0.5) + 0.5 * np.eye(n)
        fields = [field_from_function(grid, lambda *x: a * np.exp(-sum(c * c for c in x) / 8))
                  for a in (0.4, 0.3)[:n]]
        return SystemState(0.0, tuple(fields), CouplingSpec(n, beta, 2.0 if d == 1 else 1.0, d))

    # sim-d1-stepper's stack, 2 x 8192, for 20 steps and 3 snapshots
    evolve(state(1, 8192, 2, 512.0), StepParams(2e-3, 0.04, snapshot_stride=10),
           sink=lambda st: None)
    # one collector call, every column on, at verify-d2's shape
    st = state(2, 128, 1, 12.0)
    DiagnosticsCollector(st.coupling, st.grid, weight=MorawetzWeight.quadratic(), vddot=True,
                         interaction=MorawetzWeight.abs_distance(),
                         strichartz_pair=admissible_pair(1.0, 2))(st)
    print(nlskit.grid._pool is None, threading.active_count())
""")


def test_d1_and_d2_benchmark_shapes_start_no_thread():
    # below PARALLEL_MIN_POINTS nothing splits, so these runs never make the
    # pool, whatever the CPU count
    proc = subprocess.run([sys.executable, "-c", _NO_POOL_SCRIPT], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "1"]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("grid", [GridSpec(1, 100, 8.0), GridSpec(2, 32, 8.0),
                                  GridSpec(3, 16, 6.0)], ids=lambda g: f"d{g.d}-m{g.m}")
def test_synthesize_is_the_per_component_inverse_bit_for_bit(grid, n):
    # one call on a stack of n spectra equals, spectrum by spectrum, the
    # single-spectrum values and gradient and the inline Laplacian
    rng = np.random.default_rng(20 * grid.d + n)
    coeffs = np.stack([forward_transform(random_field(grid, rng)) for _ in range(n)])
    for c, values in zip(coeffs, synthesize(grid, coeffs, 1.0)):
        assert np.array_equal(values, synthesize(grid, c, 1.0))
    for k in grid.k_mesh:
        for c, values in zip(coeffs, synthesize(grid, coeffs, 1j * k)):
            assert np.array_equal(values, synthesize(grid, c, 1j * k))
    for c, values in zip(coeffs, synthesize(grid, coeffs, -grid.k_squared)):
        lap = transform(grid, -grid.k_squared * c * grid._phase, inverse=True) * grid.npoints
        assert np.array_equal(values, lap)


def test_gradient_constant_and_sine(grid1d):
    const = ScalarField(np.full(grid1d.shape, 2.0 + 1.0j), grid1d)
    assert np.abs(gradient(const)[0]).max() < 1e-12
    k = math.pi / grid1d.l
    s = field_from_function(grid1d, lambda x: np.sin(k * x).astype(complex))
    dx = gradient(s)[0]
    assert np.abs(dx - k * np.cos(k * grid1d.x_mesh[0])).max() < 1e-12


def test_gradient_gaussian(grid1d):
    f = gaussian(grid1d)
    dx = gradient(f)[0]
    x = grid1d.x_mesh[0]
    assert np.abs(dx - (-x) * np.exp(-x ** 2 / 2)).max() < 1e-8


def test_gradient_leibniz_band_limited(grid1d):
    rng = np.random.default_rng(3)
    m = grid1d.m
    f = random_field(grid1d, rng, band=m // 6 - 1)
    g = random_field(grid1d, rng, band=m // 6 - 1)
    prod = ScalarField(f.values * g.values, grid1d)
    lhs = gradient(prod)[0]
    rhs = f.values * gradient(g)[0] + g.values * gradient(f)[0]
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() < 1e-10 * scale


def test_gradient_leibniz_decaying_envelope(grid1d):
    # modes up to M/3 with a decaying envelope: aliasing stays below 1e-8
    rng = np.random.default_rng(4)
    m = grid1d.m
    j = np.rint(np.fft.fftfreq(m) * m)
    env = np.where(np.abs(j) <= m // 3, np.exp(-(j / (m / 16)) ** 2), 0.0)
    def mk():
        coef = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * env
        return ScalarField(np.fft.ifftn(coef) * math.sqrt(m), grid1d)
    f, g = mk(), mk()
    prod = ScalarField(f.values * g.values, grid1d)
    lhs = gradient(prod)[0]
    rhs = f.values * gradient(g)[0] + g.values * gradient(f)[0]
    assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(rhs).max()


def test_multiplier_identity_and_unitary(grid1d):
    f = gaussian(grid1d, velocity=[0.5])
    same = apply_multiplier(f, lambda k: np.ones_like(k))
    assert np.abs(same.values - f.values).max() < 1e-12
    t = 0.7
    flowed = apply_multiplier(f, lambda k: np.exp(-1j * k ** 2 * t))
    assert math.isclose(flowed.l2_norm(), f.l2_norm(), rel_tol=1e-12)


def test_multiplier_fractional_eigenfunction(grid1d):
    k = math.pi / grid1d.l
    s = field_from_function(grid1d, lambda x: np.sin(k * x).astype(complex))
    out = apply_multiplier(s, lambda km: np.sqrt(km))
    assert np.abs(out.values - math.sqrt(k) * np.sin(k * grid1d.x_mesh[0])).max() < 1e-10


def test_multiplier_rejects_nonfinite(grid1d):
    f = gaussian(grid1d)
    with pytest.raises(ValueError, match="k ="), np.errstate(divide="ignore"):
        apply_multiplier(f, lambda k: 1.0 / k, name="inverse modulus")


# ---------------------------------------------------------------------------
# Free-space convolution (the oracle of the pairings, tests/reference.py)
# ---------------------------------------------------------------------------

def test_convolve_zero_is_zero(grid2d):
    z = ScalarField(np.zeros(grid2d.shape), grid2d)
    out = convolve_radial_kernel(z, RadialKernel.reciprocal())
    assert np.abs(out.values).max() == 0.0


def test_convolve_newtonian_point_mass():
    # unit-mass narrow Gaussian: the 1/r potential outside the bulk is 1/|x|
    grid = GridSpec(3, 96, 6.0)
    sig = 0.25
    f = field_from_function(grid, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / (2 * sig ** 2)))
    f = ScalarField(f.values.real / (grid.cell_volume * f.values.real.sum()), grid)
    pot = convolve_radial_kernel(f, RadialKernel.reciprocal())
    r = np.sqrt(sum(a ** 2 for a in grid.x_mesh))
    sel = (r > 4 * sig) & (r < 0.5 * grid.l)
    rel = np.abs(pot.values[sel] - 1.0 / r[sel]) * r[sel]
    assert rel.max() < 1e-2


def test_convolve_absdistance_point_mass():
    grid = GridSpec(3, 96, 6.0)
    sig = 0.1
    f = field_from_function(grid, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / (2 * sig ** 2)))
    f = ScalarField(f.values.real / (grid.cell_volume * f.values.real.sum()), grid)
    out = convolve_radial_kernel(f, RadialKernel.abs_distance())
    r = np.sqrt(sum(a ** 2 for a in grid.x_mesh))
    sel = (r > 2.0) & (r < 0.6 * grid.l)
    assert (np.abs(out.values[sel] - r[sel]) / r[sel]).max() < 1e-2


def test_convolve_linear_and_translation_equivariant(grid1d):
    rng = np.random.default_rng(11)
    x = grid1d.x_mesh[0]
    supp = np.exp(-x ** 2 / 4)  # supported well inside the box
    a = ScalarField(supp * rng.standard_normal(grid1d.shape), grid1d)
    b = ScalarField(supp * rng.standard_normal(grid1d.shape), grid1d)
    k = RadialKernel.abs_distance()
    lhs = convolve_radial_kernel(ScalarField(2 * a.values + 3 * b.values, grid1d), k)
    rhs = 2 * convolve_radial_kernel(a, k).values + 3 * convolve_radial_kernel(b, k).values
    assert np.abs(lhs.values - rhs).max() < 1e-10 * np.abs(rhs).max()

    shift = 12  # cells
    shifted = ScalarField(np.roll(a.values, shift), grid1d)
    conv_shifted = convolve_radial_kernel(shifted, k)
    expected = np.roll(convolve_radial_kernel(a, k).values, shift)
    # equivariance holds away from the wrapped sliver: compare the central half
    central = np.abs(grid1d.x_mesh[0]) < grid1d.l / 2
    scale = np.abs(expected).max()
    assert np.abs(conv_shifted.values - expected)[central].max() < 1e-8 * scale


def test_convolve_reciprocal_rejected_in_1d(grid1d):
    f = gaussian(grid1d)
    f = ScalarField(np.abs(f.values) ** 2, grid1d)
    with pytest.raises(ValueError, match="d = 1"):
        convolve_radial_kernel(f, RadialKernel.reciprocal())


def test_convolve_requires_real(grid1d):
    f = gaussian(grid1d, velocity=[1.0])
    with pytest.raises(ValueError, match="real"):
        convolve_radial_kernel(f, RadialKernel.abs_distance())


def test_profile_kernels_created_and_freed_in_turn_get_their_own_transform(grid1d):
    # A new profile callable can take the memory of a freed one; a kernel
    # transform cached on the callable's id would then be served stale.
    x = grid1d.x_mesh[0]
    f = ScalarField(np.exp(-x ** 2 / 2.0), grid1d)
    stale = 0
    for i in range(200):
        width = 0.5 + 0.01 * i
        kernel = RadialKernel.from_profile(lambda r, w=width: np.exp(-(r / w) ** 2))
        got = convolve_radial_kernel(f, kernel).values
        # the exact convolution of two Gaussians, sampled at the origin
        expected = math.sqrt(math.pi) * width / math.sqrt(1.0 + width ** 2 / 2.0)
        if abs(got[grid1d.m // 2] - expected) > 1e-6 * expected:
            stale += 1
        del kernel
    assert stale == 0


def test_kernel_hat_cache_serves_one_read_only_array_until_evicted(grid1d):
    kernel = RadialKernel.gaussian_delta(0.3)
    hat = _kernel_hat(grid1d, kernel)
    assert _kernel_hat(grid1d, kernel) is hat
    assert not hat.flags.writeable
    for i in range(32):  # the cache holds 32 transforms
        _kernel_hat(grid1d, RadialKernel.gaussian_delta(0.31 + 0.01 * i))
    again = _kernel_hat(grid1d, kernel)
    assert again is not hat and not again.flags.writeable
    assert np.array_equal(again, hat)


_PAIRING_KERNELS = {
    "abs_distance": lambda: RadialKernel.abs_distance(),
    "reciprocal_grid": lambda: RadialKernel.reciprocal(),
    "reciprocal_analytic": lambda: RadialKernel.reciprocal(transform="analytic"),
    "gaussian_delta": lambda: RadialKernel.gaussian_delta(0.4),
    "from_profile": lambda: RadialKernel.from_profile(lambda r: np.exp(-r) / (1.0 + r)),
}
_PAIRING_GRIDS = {1: GridSpec(1, 128, 8.0), 2: GridSpec(2, 32, 8.0), 3: GridSpec(3, 16, 8.0)}


@pytest.mark.parametrize("grid", [GridSpec(2, 128, 12.0), _PAIRING_GRIDS[2]],
                         ids=["verify-d2", "pairing"])
def test_integral_of_j0_matches_the_bessel_struve_oracle(grid):
    # Lambda(R |k|) on every half-spectrum mode of the d = 2 analytic kernel
    x = 2.0 * grid.l * padded_geometry(grid).k_modulus
    lam = _integral_of_j0(x)
    assert lam.shape == x.shape
    assert np.abs(lam - integral_of_j0_reference(x)).max() <= 1e-11
    assert _integral_of_j0(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    hat = _kernel_hat(grid, RadialKernel.reciprocal(transform="analytic"))
    assert hat[0, 0] == 2.0 * math.pi * (2.0 * grid.l) / grid.cell_volume


def _supported_pair(grid, seed):
    """Two seeded real fields, nonzero only inside the ball of radius L/2."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(sum(a ** 2 for a in grid.x_mesh))
    inside = r < grid.l / 2
    f = np.where(inside, rng.uniform(0.5, 1.5, grid.shape), 0.0)
    g = np.where(inside, rng.uniform(0.5, 1.5, grid.shape), 0.0)
    return f, g


@pytest.mark.parametrize("name", sorted(_PAIRING_KERNELS))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_inner_product_matches_convolution(d, name):
    if d == 1 and name.startswith("reciprocal"):
        pytest.skip("the reciprocal kernel is not defined in d = 1")
    grid = _PAIRING_GRIDS[d]
    kernel = _PAIRING_KERNELS[name]()
    f, g = _supported_pair(grid, seed=10 * d + len(name))
    f_hat, g_hat = padded_rfft(grid, f), padded_rfft(grid, g)
    if d == 3 and name == "reciprocal_analytic":
        # the analytic transform is the d = 2 kernel of gradient_pairing only
        with pytest.raises(ValueError, match="d = 2 only"):
            kernel_inner_product(grid, f_hat, g_hat, kernel)
        return
    vol = grid.cell_volume
    gf = ScalarField(g, grid)

    conv = convolve_radial_kernel(gf, kernel).values
    expected = vol * float(np.sum(f * conv))
    got = kernel_inner_product(grid, f_hat, g_hat, kernel)
    assert abs(got - expected) <= 1e-12 * abs(expected)

    for a, conv_a in enumerate(convolve_kernel_gradient(gf, kernel)):
        expected = vol * float(np.sum(f * conv_a.values))
        scale = vol * float(np.sum(np.abs(f * conv_a.values)))
        got = kernel_axis_pairing_reference(grid, f_hat, g_hat, kernel, a)
        assert abs(got - expected) <= 1e-12 * abs(expected) + 1e-14 * scale


@pytest.mark.parametrize("name", sorted(_PAIRING_KERNELS))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_potential_matches_convolution(d, name):
    # the pruned inverse equals the full irfftn of the oracle to rounding,
    # in place (the half-spectrum given up) as bit for bit as copying, and
    # its box sums against f are the Parseval pairing
    if d == 1 and name.startswith("reciprocal"):
        pytest.skip("the reciprocal kernel is not defined in d = 1")
    grid = _PAIRING_GRIDS[d]
    kernel = _PAIRING_KERNELS[name]()
    f, g = _supported_pair(grid, seed=10 * d + len(name))
    g_hat = padded_rfft(grid, g)
    if d == 3 and name == "reciprocal_analytic":
        with pytest.raises(ValueError, match="d = 2 only"):
            kernel_potential(grid, g_hat, kernel)
        return
    conv = convolve_radial_kernel(ScalarField(g, grid), kernel).values
    got = kernel_potential(grid, g_hat, kernel)
    assert got.shape == grid.shape and got.dtype == float
    assert np.abs(got - conv).max() <= 1e-13 * np.abs(conv).max()
    pairing = grid.cell_volume * float(np.sum(f * got))
    expected = kernel_inner_product(grid, padded_rfft(grid, f), g_hat, kernel)
    assert abs(pairing - expected) <= 1e-12 * abs(expected)
    consumed = g_hat.copy()
    assert np.array_equal(kernel_potential(grid, consumed, kernel, overwrite=True), got)
    assert not np.array_equal(consumed, g_hat)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_gradient_product_is_the_sum_of_axis_pairings(d):
    # the padded half-spectrum of d_a f is i k_a f_hat, so the |k|^2 sum is
    # the sum over axes of the pairings of those half-spectra, to rounding
    grid = _PAIRING_GRIDS[d]
    kernel = RadialKernel.gaussian_delta(0.4) if d == 1 else RadialKernel.reciprocal()
    f_hat = padded_rfft(grid, _supported_pair(grid, seed=d)[0])
    odd = padded_geometry(grid).odd_k_axes
    axes = sum(kernel_inner_product(grid, 1j * k * f_hat, 1j * k * f_hat, kernel)
               for k in odd)
    got = kernel_gradient_product(grid, f_hat, kernel)
    assert got > 0.0
    assert abs(got - axes) <= 1e-13 * axes


def test_padded_rfft_passes_only_over_rows_that_can_be_nonzero(monkeypatch):
    # a numpy.fft rfftn along the last axis of the unpadded M^d input, then
    # one fft padded to n = 2M per remaining axis in order 0, ..., d-2
    calls = []

    def recorded(name):
        fn = getattr(np.fft, name)

        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            calls.append((name, x.shape, out.shape, kwargs))
            return out
        return wrapper

    for name in ("rfftn", "fft", "fftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, recorded(name))
    for d, m in ((3, 8), (2, 12)):
        calls.clear()
        n, half = 2 * m, m + 1
        padded_rfft(GridSpec(d, m, 4.0), np.ones((m,) * d))
        rows = (m,) * (d - 1)
        expected = [("rfftn", (m,) * d, rows + (half,), {"s": (n,), "axes": (-1,)})]
        for axis in range(d - 1):
            rows = rows[:axis] + (n,) + rows[axis + 1:]
            expected.append(("fft", expected[-1][2], rows + (half,), {"n": n, "axis": axis}))
        assert calls == expected


@pytest.mark.parametrize("d", [1, 2, 3])
def test_convolve_kernel_gradient_matches_complex_transform_route(d):
    # The real part of the complex-transform route drops the unpaired
    # Nyquist entries of i k_a; the half-spectrum route zeroes them.
    grid = _PAIRING_GRIDS[d]
    kernel = RadialKernel.abs_distance()
    f, _ = _supported_pair(grid, seed=d)
    n = 2 * grid.m
    j = np.rint(np.fft.fftfreq(n) * n)
    r = grid.h * np.sqrt(sum(np.meshgrid(*([j * j] * d), indexing="ij")))
    hat = np.fft.fftn(kernel.evaluate(r, grid.h, d))
    padded = np.zeros((n,) * d)
    padded[(slice(0, grid.m),) * d] = f
    fhat = np.fft.fftn(padded)
    k = (math.pi / (2.0 * grid.l)) * j
    got = convolve_kernel_gradient(ScalarField(f, grid), kernel)
    for a in range(d):
        ka = k.reshape((-1,) + (1,) * (d - 1 - a))
        ref = np.fft.ifftn(fhat * (1j * ka) * hat)[(slice(0, grid.m),) * d].real
        ref *= grid.cell_volume
        assert np.abs(got[a].values - ref).max() <= 1e-12 * np.abs(ref).max()
