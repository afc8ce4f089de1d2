import math

import numpy as np
import pytest
import scipy.fft
import scipy.special

from nlskit import (CouplingSpec, GridSpec, MorawetzWeight, ScalarField,
                    StepParams, SystemState, admissible_pair,
                    boundary_mass_fraction, energy, evolve,
                    field_from_function, gradient_pairing,
                    interaction_inequality_check, interaction_report, lq_norm,
                    mass, strang_step, sup_cube_mass, total_mass, virial_V,
                    virial_Vddot, virial_Vdot)
from nlskit import grid as nlskit_grid
from nlskit.diagnostics import DiagnosticsCollector
from nlskit.grid import RadialKernel
from nlskit.morawetz import ERF_SMOOTHED, SpacetimeAccumulators, _virial_meshes
from nlskit.system import Snapshot

from conftest import gaussian, single_state
from reference import (fractional_gradient_pairing_reference, gradient_pairing_reference,
                       idot_reference, virial_meshes_reference)

SQRT_PI = math.sqrt(math.pi)

# 400k-sample seeded Monte-Carlo for E|X-Y|, X,Y iid isotropic normals with
# per-axis std 0.25, gave 0.564228 against the closed form 4*0.25/sqrt(pi)
# = 0.5641896; the field width below is w = 0.25 so the position std is
# w/sqrt(2) and the frozen expectation is 4*(w/sqrt(2))/sqrt(pi).
E_ABS_DIFF_W025 = 0.3989422804


def two_component_state(grid, p=2.0, b12=0.5):
    beta = np.array([[1.0, b12], [b12, 1.0]])
    cpl = CouplingSpec(2, beta, p, grid.d)
    u1 = gaussian(grid, amp=0.7, width=2.0, velocity=[0.3] * grid.d)
    u2 = gaussian(grid, amp=0.5, width=2.0, center=[1.0] * grid.d,
                  velocity=[-0.2] * grid.d)
    return SystemState(0.0, (u1, u2), cpl)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def test_quadratic_weight_derivatives():
    w = MorawetzWeight.quadratic()
    r = np.linspace(0.0, 5.0, 11)
    assert np.allclose(w.profile(r), r * r)
    assert np.allclose(w.d2(r), 2.0)
    assert w.convexity_ok()


@pytest.mark.parametrize("weight", [MorawetzWeight.constant(2.5), MorawetzWeight.abs_distance(),
                                    MorawetzWeight.quadratic(), MorawetzWeight.erf_smoothed(0.5)],
                         ids=["constant", "absdistance", "quadratic", "erf"])
def test_every_weight_carries_its_radial_derivatives(weight):
    r = np.linspace(0.5, 5.0, 91)
    h = 1e-4
    chain = (weight.profile, weight.d1, weight.d2, weight.d3, weight.d4)
    for f, df in zip(chain, chain[1:]):
        assert callable(df)
        fd = (np.asarray(f(r + h)) - np.asarray(f(r - h))) / (2 * h)
        assert np.allclose(df(r), fd, rtol=1e-6, atol=1e-6)
    assert weight.convexity_ok()
    if weight.kind == "constant":
        st = two_component_state(GridSpec(1, 128, 16.0))
        assert math.isclose(virial_V(st, weight), 2.5 * total_mass(st), rel_tol=1e-14)
        assert virial_Vdot(st, weight) == 0.0
        assert virial_Vddot(st, weight).total == 0.0


def test_erf_weight_consistency():
    w = MorawetzWeight.erf_smoothed(0.3)
    r = np.linspace(0.01, 3.0, 400)
    h = 1e-5
    d1_fd = (w.profile(r + h) - w.profile(r - h)) / (2 * h)
    assert np.abs(d1_fd - w.d1(r)).max() < 1e-8
    d2_fd = (w.d1(r + h) - w.d1(r - h)) / (2 * h)
    assert np.abs(d2_fd - w.d2(r)).max() < 1e-6
    # smooths |r| from above (to rounding) with O(eps) error
    assert (w.profile(r) >= r - 1e-12).all()
    assert np.abs(w.profile(r) - r).max() < 0.3
    assert w.convexity_ok()


@pytest.mark.parametrize("eps", [0.3, 0.5])
def test_erf_weight_matches_the_scipy_erf_oracle(eps):
    w = MorawetzWeight.erf_smoothed(eps)
    r = np.linspace(0.0, 16.0, 8193)
    erf = scipy.special.erf(r / eps)
    profile = r * erf + (eps / SQRT_PI) * np.exp(-((r / eps) ** 2))
    assert np.abs(w.profile(r) - profile).max() <= 4.5e-16
    assert np.abs(w.d1(r) - erf).max() <= 4.5e-16
    assert w.convexity_ok()


# ---------------------------------------------------------------------------
# Virial quantities
# ---------------------------------------------------------------------------

def test_virial_constant_weight_is_mass(grid1d):
    st = two_component_state(grid1d)
    w = MorawetzWeight.constant()
    assert math.isclose(virial_V(st, w), total_mass(st), rel_tol=1e-14)
    assert virial_Vdot(st, w) == 0.0
    rep = virial_Vddot(st, w)
    assert rep.total == 0.0


def test_virial_second_moment(grid1d):
    st = single_state(gaussian(grid1d))
    w = MorawetzWeight.quadratic()
    assert abs(virial_V(st, w) - SQRT_PI / 2) < 1e-8


def test_virial_zero_state(grid1d):
    st = single_state(ScalarField(np.zeros(grid1d.shape, complex), grid1d))
    w = MorawetzWeight.quadratic()
    assert virial_V(st, w) == 0.0
    assert virial_Vdot(st, w) == 0.0
    assert virial_Vddot(st, w).total == 0.0


def test_virial_vdot_real_state_vanishes(grid1d):
    st = single_state(gaussian(grid1d, amp=0.8))
    assert abs(virial_Vdot(st, MorawetzWeight.quadratic())) < 1e-10


def test_virial_vddot_quadratic_closed_form(grid1d):
    st = single_state(gaussian(grid1d), beta=0.0)
    rep = virial_Vddot(st, MorawetzWeight.quadratic())
    assert rep.bilap_term == 0.0
    assert rep.nonlinear_term == 0.0
    assert math.isclose(rep.hessian_term, 8.0 * energy(st).kinetic, rel_tol=1e-8)
    assert math.isclose(rep.total, rep.hessian_term, rel_tol=1e-15)


def test_virial_vddot_rejects_absdistance(grid1d):
    st = single_state(gaussian(grid1d))
    with pytest.raises(ValueError, match="interaction_report"):
        virial_Vddot(st, MorawetzWeight.abs_distance())


def test_virial_fd_consistency_along_trajectory(grid1d):
    st = two_component_state(grid1d, p=1.0)
    w = MorawetzWeight.quadratic()
    dt = 1e-3
    minus = st
    mid = strang_step(st, dt)
    plus = strang_step(mid, dt)
    v = [virial_V(s, w) for s in (minus, mid, plus)]
    fd1 = (v[2] - v[0]) / (2 * dt)
    assert abs(fd1 - virial_Vdot(mid, w)) < 1e-4 * max(abs(fd1), 1.0)
    fd2 = (v[2] - 2 * v[1] + v[0]) / dt ** 2
    assert abs(fd2 - virial_Vddot(mid, w).total) < 1e-4 * max(abs(fd2), 1.0)


def test_virial_erf_weight_supports_second_derivative(grid1d):
    st = single_state(gaussian(grid1d, amp=0.6), p=1.0)
    rep = virial_Vddot(st, MorawetzWeight.erf_smoothed(0.5))
    assert math.isfinite(rep.total)
    assert rep.nonlinear_term >= 0.0


# ---------------------------------------------------------------------------
# Interaction functional
# ---------------------------------------------------------------------------

def test_interaction_constant_weight(grid1d):
    st = two_component_state(grid1d)
    rep = interaction_report(st, MorawetzWeight.constant())
    assert math.isclose(rep.I, total_mass(st) ** 2, rel_tol=1e-12)
    assert rep.Idot == 0.0 and rep.N_term == 0.0 and rep.rhs_lower == 0.0


def test_interaction_zero_state(grid1d):
    cpl = CouplingSpec(1, np.array([[1.0]]), 1.0, 1)
    st = SystemState(0.0, (ScalarField(np.zeros(grid1d.shape, complex), grid1d),), cpl)
    rep = interaction_report(st, MorawetzWeight.abs_distance())
    assert rep.I == 0.0 and rep.Idot == 0.0 and rep.N_term == 0.0


def test_interaction_nonnegative_and_translation_invariant(grid1d):
    st = single_state(gaussian(grid1d, amp=0.9, width=1.5))
    rep = interaction_report(st, MorawetzWeight.abs_distance())
    assert rep.I > 0.0
    shift = 16  # two length units
    moved = single_state(ScalarField(np.roll(st.fields[0].values, shift), grid1d))
    rep2 = interaction_report(moved, MorawetzWeight.abs_distance())
    assert abs(rep.I - rep2.I) < 1e-8 * rep.I


def test_interaction_monte_carlo_oracle_d3():
    grid = GridSpec(3, 64, 4.0)
    w = 0.25
    f = field_from_function(grid, lambda x, y, z:
                            np.exp(-(x * x + y * y + z * z) / (2 * w ** 2)))
    st = single_state(f, p=1.0)
    rep = interaction_report(st, MorawetzWeight.abs_distance())
    m = total_mass(st)
    assert abs(rep.I / m ** 2 - E_ABS_DIFF_W025) < 1e-2 * E_ABS_DIFF_W025


def test_interaction_nterm_component_exchange_symmetry(grid1d):
    u1 = gaussian(grid1d, amp=0.8)
    u2 = gaussian(grid1d, amp=0.4, center=[1.5])
    beta = np.array([[1.0, 0.7], [0.7, 0.5]])
    cpl = CouplingSpec(2, beta, 1.0, 1)
    st = SystemState(0.0, (u1, u2), cpl)
    rep = interaction_report(st, MorawetzWeight.abs_distance())
    swapped = SystemState(0.0, (u2, u1),
                          CouplingSpec(2, beta[::-1, ::-1].copy(), 1.0, 1))
    rep2 = interaction_report(swapped, MorawetzWeight.abs_distance())
    assert math.isclose(rep.N_term, rep2.N_term, rel_tol=1e-13)
    assert rep.N_term >= 0.0


def test_interaction_erf_matches_delta_collapse_as_eps_shrinks(grid1d):
    st = single_state(gaussian(grid1d, amp=0.9), p=1.0)
    ref = interaction_report(st, MorawetzWeight.abs_distance())
    gaps = []
    for eps in (0.8, 0.4, 0.2):
        rep = interaction_report(st, MorawetzWeight.erf_smoothed(eps))
        gaps.append((abs(rep.N_term - ref.N_term) / ref.N_term,
                     abs(rep.gradient_term - ref.gradient_term) / ref.gradient_term,
                     abs(rep.I - ref.I) / ref.I))
    for i in range(3):
        seq = [g[i] for g in gaps]
        assert seq[-1] < 0.05
        assert seq[2] < 0.6 * seq[0]  # shrinks at least linearly in eps


def test_interaction_unsupported_weight_rejected(grid1d):
    st = single_state(gaussian(grid1d))
    with pytest.raises(ValueError, match="supported weights"):
        interaction_report(st, MorawetzWeight.quadratic())
    g2 = GridSpec(2, 64, 8.0)
    st2 = SystemState(0.0, (gaussian(g2),), CouplingSpec(1, np.array([[1.0]]), 1.0, 2))
    with pytest.raises(ValueError, match="d = 1"):
        interaction_report(st2, MorawetzWeight.erf_smoothed(0.3))


def test_gradient_pairing_identity_d1(grid1d):
    st = single_state(gaussian(grid1d, amp=0.8), p=1.0)
    a = gradient_pairing(st)
    b = fractional_gradient_pairing_reference(st)
    assert abs(a - b) < 1e-10 * abs(b)


def test_gradient_pairing_identity_d2():
    grid = GridSpec(2, 128, 12.0)
    cpl = CouplingSpec(1, np.array([[1.0]]), 1.0, 2)
    st = SystemState(0.0, (gaussian(grid),), cpl)
    a = gradient_pairing(st)
    b = fractional_gradient_pairing_reference(st)
    assert abs(a - b) < 1e-6 * abs(b)


def test_interaction_d3_delta_collapse_consistency(grid3d):
    # -2 intint m m Lap^2 psi = 2 intint Lap psi grad m . grad m exactly;
    # the two evaluation routes differ only by kernel quadrature error.
    cpl = CouplingSpec(1, np.array([[1.0]]), 1.0, 3)
    st = SystemState(0.0, (gaussian(grid3d, amp=0.8),), cpl)
    rep = interaction_report(st, MorawetzWeight.abs_distance())
    assert rep.rhs_lower_alt is not None
    assert abs(rep.rhs_lower - rep.rhs_lower_alt) < 0.05 * abs(rep.rhs_lower_alt)


@pytest.mark.parametrize("d, m", [(1, 256), (2, 32), (3, 16)])
def test_shared_snapshot_gives_the_same_diagnostics(d, m):
    # one Snapshot passed to every diagnostic of a state changes no value
    st = two_component_state(GridSpec(d, m, 8.0), p=1.0)
    weight = MorawetzWeight.quadratic()
    inter = MorawetzWeight.abs_distance()
    snap = Snapshot(st)
    assert interaction_report(snap, inter) == interaction_report(st, inter)
    assert virial_V(snap, weight) == virial_V(st, weight)
    assert virial_Vdot(snap, weight) == virial_Vdot(st, weight)
    assert virial_Vddot(snap, weight) == virial_Vddot(st, weight)
    shared, alone = SpacetimeAccumulators(st.coupling), SpacetimeAccumulators(st.coupling)
    shared.update(snap)
    alone.update(st)
    assert all(shared.integrals[n].history == alone.integrals[n].history for n in alone.names)


def _counted_collector_call(monkeypatch, d, m):
    """One DiagnosticsCollector call, every column on, on a d-dimensional
    two-component state.  A warm-up call fills the kernel cache first.
    Returns the state, the collector, and what the counted call did: the
    input shape of each numpy.fft pass of an unpadded forward transform (d
    per transform), of each padded transform (the rfftn pass that starts
    every grid.padded_rfft) and of each padded fft pass after it, the number
    of kernel lookups (one per pairing) and the scipy.fft calls."""
    st = two_component_state(GridSpec(d, m, 8.0), p=1.0)
    options = dict(weight=MorawetzWeight.quadratic(), vddot=True,
                   interaction=MorawetzWeight.abs_distance(),
                   strichartz_pair=admissible_pair(1.0, d))
    DiagnosticsCollector(st.coupling, st.grid, **options)(st)
    collector = DiagnosticsCollector(st.coupling, st.grid, **options)
    counts = {"fft": [], "padded": [], "padded_fft": [], "pairings": 0, "scipy": []}
    fft, rfftn = np.fft.fft, np.fft.rfftn

    def counted_fft(x, *args, **kwargs):
        counts["padded_fft" if "n" in kwargs else "fft"].append(x.shape)
        return fft(x, *args, **kwargs)

    def counted_rfftn(x, *args, **kwargs):
        counts["padded"].append(x.shape)
        return rfftn(x, *args, **kwargs)

    def scipy_counted(name):
        fn = getattr(scipy.fft, name)

        def wrapper(*args, **kwargs):
            counts["scipy"].append(name)
            return fn(*args, **kwargs)
        return wrapper

    kernel_hat = nlskit_grid._kernel_hat

    def counted_kernel_hat(*args, **kwargs):
        counts["pairings"] += 1
        return kernel_hat(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted_fft)
    monkeypatch.setattr(np.fft, "rfftn", counted_rfftn)
    monkeypatch.setattr(nlskit_grid, "_kernel_hat", counted_kernel_hat)
    for name in scipy.fft.__all__:
        monkeypatch.setattr(scipy.fft, name, scipy_counted(name))
    collector(st)
    monkeypatch.undo()
    return st, collector, counts


def _padded_passes(grid, transforms):
    """Input shapes of the fft passes after the rfftn pass of each padded
    transform: axes 0, ..., d-2 in turn, each padded to 2M."""
    shape = grid.shape[:-1] + (grid.m + 1,)
    passes = []
    for axis in range(grid.d - 1):
        passes.append(shape)
        shape = shape[:axis] + (2 * grid.m,) + shape[axis + 1:]
    return passes * transforms


def _assert_columns_equal_bare_state_observables(st, collector):
    weight, inter = collector.weight, collector.interaction
    rec = collector.records[0]
    e, rep = energy(st), interaction_report(st, inter)
    expected = {"mass_1": mass(st, 0), "mass_2": mass(st, 1), "kinetic": e.kinetic,
                "potential": e.potential, "energy_total": e.total,
                "l4_total": lq_norm(st, 4.0), "sup_cube_mass": sup_cube_mass(st),
                "V": virial_V(st, weight), "Vdot": virial_Vdot(st, weight),
                "Vddot": virial_Vddot(st, weight).total, "I": rep.I, "Idot": rep.Idot,
                "N_term": rep.N_term, "rhs_lower": rep.rhs_lower,
                "boundary_mass_fraction": boundary_mass_fraction(st)}
    assert {k: rec[k] for k in expected} == expected
    assert collector.reports == [rep]
    alone = SpacetimeAccumulators(st.coupling)
    alone.update(st)
    assert all(collector.accumulators.integrals[n].history == alone.integrals[n].history
               for n in alone.names)


def test_one_collector_call_transforms_each_piece_once(monkeypatch):
    # a d = 3, N = 2 snapshot makes one unpadded forward transform per
    # component (rho's spectrum is not needed), d numpy.fft passes each, and
    # no scipy.fft call; 6 padded transforms (m_1, m_2, div j, P and the two
    # |u_mu|^{2p+2}) and 6 pairings (I, Idot, N, the gradient sum and two
    # recip_self); and every column equals its observable on the bare state
    # bit for bit
    st, collector, counts = _counted_collector_call(monkeypatch, 3, 16)
    assert counts["fft"] == [st.grid.shape] * (st.coupling.n * st.grid.d)
    assert counts["padded"] == [st.grid.shape] * 6
    assert counts["padded_fft"] == _padded_passes(st.grid, 6)
    assert counts["pairings"] == 6
    assert counts["scipy"] == []
    _assert_columns_equal_bare_state_observables(st, collector)


def test_one_d2_collector_call_also_transforms_rho(monkeypatch):
    # in d = 2 the half_deriv_sq accumulator reads rho's unpadded spectrum,
    # so a snapshot makes N + 1 unpadded forward transforms; the padded
    # transforms and pairings are the same 6 as in d = 3
    st, collector, counts = _counted_collector_call(monkeypatch, 2, 32)
    assert counts["fft"] == [st.grid.shape] * ((st.coupling.n + 1) * st.grid.d)
    assert counts["padded"] == [st.grid.shape] * 6
    assert counts["padded_fft"] == _padded_passes(st.grid, 6)
    assert counts["pairings"] == 6
    assert counts["scipy"] == []
    _assert_columns_equal_bare_state_observables(st, collector)


def resolved_moving_state(grid):
    """Two narrow, moving Gaussians with different widths, amplitudes and
    centres: no symmetry makes Idot vanish, and rho is resolved and decayed
    at the box edge on the grids below."""
    cpl = CouplingSpec(2, np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0, grid.d)
    u1 = gaussian(grid, amp=0.7, width=1.0, velocity=[0.3] * grid.d)
    u2 = gaussian(grid, amp=0.5, width=0.8, center=[1.0] * grid.d,
                  velocity=[-0.2] * grid.d)
    return SystemState(0.0, (u1, u2), cpl)


def _per_axis_form_gaps(snap, weight):
    """Relative gaps of the report's Idot and gradient term to the per-axis
    forms of tests/reference.py (None where the gradient term is the d = 1
    delta collapse, which has no pairing)."""
    g = snap.state.grid
    rep = interaction_report(snap, weight)
    if weight.kind == ERF_SMOOTHED:
        kernel = RadialKernel.from_profile(weight.profile)
        grad = 4.0 * gradient_pairing_reference(snap, RadialKernel.gaussian_delta(weight.eps))
    else:
        kernel = RadialKernel.abs_distance()
        recip = RadialKernel.reciprocal(transform="analytic" if g.d == 2 else "grid")
        grad = None if g.d == 1 else 2.0 * (g.d - 1) * gradient_pairing_reference(snap, recip)
    idot = idot_reference(snap, kernel)
    grad_gap = None if grad is None else abs(rep.gradient_term - grad) / abs(grad)
    return abs(rep.Idot - idot) / abs(idot), grad_gap


# Measured relative gaps on resolved_moving_state (numpy 2.4, scipy 1.17):
# d = 1 |x| and erf: Idot 2.2e-15, erf gradient term 0; d = 2: Idot 4e-16,
# gradient term 8.8e-15; d = 3: Idot 1.0e-14, gradient term 3.1e-14.  The
# bound 1e-12 leaves a 30x margin over the largest.
@pytest.mark.parametrize("d, m, l, weight", [
    (1, 256, 16.0, MorawetzWeight.abs_distance()),
    (1, 256, 16.0, MorawetzWeight.erf_smoothed(0.3)),
    (2, 64, 8.0, MorawetzWeight.abs_distance()),
    (3, 48, 6.0, MorawetzWeight.abs_distance()),
], ids=["d1-abs", "d1-erf", "d2-abs", "d3-abs"])
def test_idot_by_parts_and_gradient_sum_match_per_axis_forms(d, m, l, weight):
    snap = Snapshot(resolved_moving_state(GridSpec(d, m, l)))
    idot_gap, grad_gap = _per_axis_form_gaps(snap, weight)
    assert idot_gap < 1e-12
    assert grad_gap is None or grad_gap < 1e-12


# Measured gaps (Idot, gradient term): d = 2, L = 12: (2.9e-4, 1.2e-4) at
# M = 32 and (1.4e-16, 1.2e-16) at M = 128; d = 3, L = 6: (4.0e-9, 1.3e-5) at
# M = 24 and (1.0e-14, 3.1e-14) at M = 48.  The smallest drop is 4e5, so the
# forms differ by discretisation error, not by a bug in either.
@pytest.mark.parametrize("d, l, coarse, fine", [(2, 12.0, 32, 128), (3, 6.0, 24, 48)])
def test_by_parts_and_per_axis_forms_converge_under_refinement(d, l, coarse, fine):
    weight = MorawetzWeight.abs_distance()
    gaps = [_per_axis_form_gaps(Snapshot(resolved_moving_state(GridSpec(d, m, l))), weight)
            for m in (coarse, fine)]
    for before, after in zip(*gaps):
        assert after < 1e-4 * before


def test_virial_meshes_are_cached_per_grid():
    # the cached meshes equal fresh ones bit for bit and are read-only, and
    # a second grid gets its own arrays, so no entry is stale
    g1, g2 = GridSpec(2, 32, 8.0), GridSpec(2, 32, 6.0)
    seen = []
    for grid in (g1, g2):
        r, dirs = _virial_meshes(grid)
        r_ref, dirs_ref = virial_meshes_reference(grid)
        assert r.tobytes() == r_ref.tobytes()
        assert [a.tobytes() for a in dirs] == [a.tobytes() for a in dirs_ref]
        assert not any(a.flags.writeable for a in (r, *dirs))
        assert _virial_meshes(grid)[0] is r
        assert all(r is not other for other in seen)
        seen.append(r)
    st = two_component_state(g2)
    snap = Snapshot(st)
    weight = MorawetzWeight.quadratic()
    r, dirs = virial_meshes_reference(g2)
    vol = g2.cell_volume
    assert virial_V(st, weight) == vol * float(np.sum(r * r * snap.rho))
    assert virial_Vdot(st, weight) == 2.0 * vol * float(
        sum(np.sum(snap.current[a] * (2.0 * r) * dirs[a]) for a in range(2)))


# ---------------------------------------------------------------------------
# Trajectory-level inequality
# ---------------------------------------------------------------------------

def collect_reports(state0, dt, stride, t_final, weight):
    reports = []
    evolve(state0, StepParams(dt=dt, t_final=t_final, snapshot_stride=stride),
           lambda s: reports.append(interaction_report(s, weight)))
    return reports


def test_inequality_free_run(grid1d):
    st = single_state(gaussian(grid1d), beta=0.0)
    reports = collect_reports(st, 1e-3, 20, 0.4, MorawetzWeight.abs_distance())
    check = interaction_inequality_check(reports)
    assert (np.array([r.N_term for r in reports]) == 0.0).all()
    assert check.second_difference_ok
    assert check.integrated_ok
    assert check.monotone_ok


def test_inequality_coupled_run(grid1d):
    st = two_component_state(grid1d, p=1.0)
    reports = collect_reports(st, 1e-3, 20, 0.4, MorawetzWeight.abs_distance())
    check = interaction_inequality_check(reports)
    assert check.second_difference_ok
    assert (check.margins > 0).all()  # strict convexity surplus
    assert check.integrated_ok
    assert check.idot_fd_gap < 1.0 * check.dt ** 2 + 1e-8


def test_inequality_requires_uniform_spacing(grid1d):
    st = single_state(gaussian(grid1d))
    w = MorawetzWeight.abs_distance()
    r0 = interaction_report(st, w)
    r1 = interaction_report(strang_step(st, 1e-3), w)
    r2 = interaction_report(strang_step(strang_step(st, 1e-3), 2e-3), w)
    with pytest.raises(ValueError, match="uniform"):
        interaction_inequality_check([r0, r1, r2])
    with pytest.raises(ValueError, match="3 consecutive"):
        interaction_inequality_check([r0, r1])


# ---------------------------------------------------------------------------
# Space-time accumulators
# ---------------------------------------------------------------------------

def test_accumulators_zero_state(grid1d):
    cpl = CouplingSpec(1, np.array([[1.0]]), 1.0, 1)
    st = SystemState(0.0, (ScalarField(np.zeros(grid1d.shape, complex), grid1d),), cpl)
    acc = SpacetimeAccumulators(cpl)
    evolve(st, StepParams(dt=1e-2, t_final=0.1, snapshot_stride=2), acc.update)
    assert all(v == 0.0 for v in acc.totals.values())


def test_accumulator_free_gaussian_closed_form():
    # beta = 0 free run in d = 1: int_0^T int |u|^6 dx dt has the closed form
    # A^6 sqrt(pi/3) arctan(2T)/2 for u(0) = A exp(-x^2/2).
    grid = GridSpec(1, 512, 48.0)
    A = 0.9
    st = single_state(gaussian(grid, amp=A), p=1.0, beta=1.0)
    cpl0 = CouplingSpec(1, np.array([[0.0]]), 1.0, 1)
    free = SystemState(0.0, st.fields, cpl0)
    acc = SpacetimeAccumulators(st.coupling)  # beta = 1 weights the integrand

    from nlskit import linear_substep
    ts = np.linspace(0.0, 20.0, 401)
    for t in ts:
        acc.update(SystemState(t, linear_substep(free, t).fields, st.coupling))
    closed = A ** 6 * math.sqrt(math.pi / 3.0) * 0.5 * math.atan(2 * 20.0)
    assert abs(acc.totals["power_2p4"] - closed) < 0.02 * closed


def test_accumulator_tail_fraction_decays(grid1d):
    st = single_state(gaussian(grid1d, amp=0.9), p=2.0)
    acc = SpacetimeAccumulators(st.coupling)
    evolve(st, StepParams(dt=5e-3, t_final=8.0, snapshot_stride=20), acc.update)
    frac = acc.integrals["power_2p4"].tail_fraction(2.0)
    early = acc.integrals["power_2p4"].increment_over(0.0, 2.0) / acc.totals["power_2p4"]
    assert frac < 0.1 * early  # late windows contribute far less than early ones


def test_accumulator_names_by_dimension():
    for d, names in ((1, ("power_2p4", "grad_density_sq")),
                     (2, ("recip_self", "half_deriv_sq")),
                     (3, ("l4", "recip_self"))):
        cpl = CouplingSpec(1, np.array([[1.0]]), 1.0, d)
        assert SpacetimeAccumulators(cpl).names == names
