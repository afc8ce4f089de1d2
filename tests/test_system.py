import math

import numpy as np
import pytest

from nlskit import (CouplingSpec, GridSpec, ScalarField, Snapshot, SystemState,
                    boundary_mass_fraction, energy,
                    field_from_function, h1_norm, lq_norm, mass, sup_cube_mass,
                    total_mass)

from conftest import gaussian, single_state

SQRT_PI = math.sqrt(math.pi)


def test_coupling_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CouplingSpec(1, np.array([[-1.0]]), 1.0, 1)
    with pytest.raises(ValueError, match="symmetric"):
        CouplingSpec(2, np.array([[1.0, 0.2], [0.3, 1.0]]), 1.0, 1)
    with pytest.raises(ValueError, match="p >= 1"):
        CouplingSpec(2, np.array([[1.0, 0.5], [0.5, 1.0]]), 0.5, 1)
    with pytest.raises(ValueError, match="positive"):
        CouplingSpec(1, np.array([[1.0]]), -2.0, 1)
    # decoupled p < 1 is the supported degenerate mode
    c = CouplingSpec(2, np.diag([1.0, 2.0]), 0.5, 1)
    assert not c.is_coupled


def test_admissibility_classification_and_warnings():
    with pytest.warns(UserWarning, match="2/d") as rec:
        c = CouplingSpec(1, np.array([[1.0]]), 1.0, 1)  # p = 1 <= 2/d = 2
    assert rec[0].filename == __file__  # the caller, not the generated __init__
    assert c.subcritical and not c.scattering_admissible
    c3 = CouplingSpec(1, np.array([[1.0]]), 1.5, 3)
    assert c3.subcritical and c3.scattering_admissible
    with pytest.warns(UserWarning, match="subcritical"):
        CouplingSpec(1, np.array([[1.0]]), 2.5, 3)
    with pytest.warns(UserWarning, match="self-coupling"):
        CouplingSpec(1, np.array([[0.0]]), 1.0, 1)
    cls = c3.classification()
    assert cls["scattering_admissible"] and not cls["coupled"]


def test_state_validation(grid1d):
    cpl = CouplingSpec(2, np.eye(2), 1.0, 1)
    f = gaussian(grid1d)
    with pytest.raises(ValueError, match="expected 2"):
        SystemState(0.0, (f,), cpl)
    with pytest.raises(ValueError, match="one grid"):
        SystemState(0.0, (f, gaussian(GridSpec(1, 128, 16.0))), cpl)


def test_density_examples(grid1d):
    st = single_state(gaussian(grid1d))
    d = Snapshot(st).m[0]
    assert np.abs(d - np.exp(-grid1d.x_mesh[0] ** 2)).max() < 1e-14
    zero = single_state(ScalarField(np.zeros(grid1d.shape, complex), grid1d))
    assert np.abs(Snapshot(zero).m[0]).max() == 0.0
    with pytest.raises(IndexError):
        mass(st, 1)


def test_current_real_field_vanishes(grid1d):
    st = single_state(gaussian(grid1d))
    assert np.abs(Snapshot(st).current[0]).max() < 1e-10


def test_current_plane_wave(grid1d):
    k = 8 * math.pi / grid1d.l  # exact grid mode
    f = field_from_function(grid1d, lambda x: np.exp(1j * k * x))
    st = single_state(f)
    j = Snapshot(st).current[0]
    assert np.abs(j - k).max() < 1e-10


def test_current_boosted_gaussian(grid1d):
    v = 0.8
    f = gaussian(grid1d, velocity=[v / 2])
    st = single_state(f)
    j = Snapshot(st).current[0]
    expected = np.exp(-grid1d.x_mesh[0] ** 2) * (v / 2)
    assert np.abs(j - expected).max() < 1e-8


def test_mass_values(grid1d):
    st = single_state(gaussian(grid1d))
    assert abs(mass(st, 0) - SQRT_PI) < 1e-10
    c = 0.7 - 0.2j
    cst = single_state(ScalarField(np.full(grid1d.shape, c), grid1d))
    assert math.isclose(mass(cst, 0), abs(c) ** 2 * 2 * grid1d.l, rel_tol=1e-14)
    # mass equals the L1 norm of the density by construction
    d = Snapshot(st).m[0]
    assert math.isclose(mass(st, 0),
                        grid1d.cell_volume * float(d.sum()), rel_tol=0.0)


def test_energy_sine_kinetic(grid1d):
    k = math.pi / grid1d.l
    s = field_from_function(grid1d, lambda x: np.sin(k * x).astype(complex))
    st = single_state(s, beta=0.0)
    e = energy(st)
    assert math.isclose(e.kinetic, k ** 2 * grid1d.l, rel_tol=1e-12)
    assert e.potential == 0.0
    assert math.isclose(e.total, e.kinetic, rel_tol=1e-15)


def test_energy_zero_component_reduces_to_single(grid1d):
    u1 = gaussian(grid1d, amp=0.8)
    zero = ScalarField(np.zeros(grid1d.shape, complex), grid1d)
    beta = np.array([[1.0, 0.5], [0.5, 1.0]])
    cpl = CouplingSpec(2, beta, 2.0, 1)
    st = SystemState(0.0, (u1, zero), cpl)
    e2 = energy(st)
    e1 = energy(single_state(u1, p=2.0, beta=1.0))
    assert math.isclose(e2.potential, e1.potential, rel_tol=1e-14)
    assert math.isclose(e2.kinetic, e1.kinetic, rel_tol=1e-14)


def test_energy_potential_monotone_in_beta(grid1d):
    u1, u2 = gaussian(grid1d, amp=0.9), gaussian(grid1d, amp=0.7, center=[1.0])
    def pot(b12):
        cpl = CouplingSpec(2, np.array([[1.0, b12], [b12, 1.0]]), 1.0, 1)
        return energy(SystemState(0.0, (u1, u2), cpl)).potential
    values = [pot(b) for b in (0.0, 0.25, 0.5, 1.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_lq_norms(grid1d):
    st = single_state(gaussian(grid1d))
    # ||u||_4^4 = int e^{-2x^2} = sqrt(pi/2)
    assert abs(lq_norm(st, 4.0) - math.sqrt(math.pi / 2) ** 0.25) < 1e-10
    assert abs(lq_norm(st, math.inf) - 1.0) < 1e-14
    c = 0.5
    cst = single_state(ScalarField(np.full(grid1d.shape, c + 0j), grid1d))
    assert math.isclose(lq_norm(cst, 4.0),
                        (c ** 4 * 2 * grid1d.l) ** 0.25, rel_tol=1e-13)
    with pytest.raises(ValueError):
        lq_norm(st, 1.5)


def test_sup_cube_mass(grid1d):
    # mass concentrated in one cell: the cube recovers the full L2 norm
    vals = np.zeros(grid1d.shape, complex)
    vals[100] = 3.0
    st = single_state(ScalarField(vals, grid1d))
    f = st.fields[0]
    assert abs(sup_cube_mass(st) - f.l2_norm()) < 1e-12 * f.l2_norm()
    # broad constant field: each unit cube holds |c|^2 * 1
    c = 0.6
    cst = single_state(ScalarField(np.full(grid1d.shape, c + 0j), grid1d))
    assert math.isclose(sup_cube_mass(cst), c, rel_tol=1e-12)
    assert sup_cube_mass(st) <= math.sqrt(total_mass(st)) * (1 + 1e-12)


def test_sup_cube_mass_rejects_bad_grids():
    tiny = GridSpec(1, 8, 0.25)  # box smaller than the unit cube
    cpl = CouplingSpec(1, np.array([[1.0]]), 1.0, 1)
    st = SystemState(0.0, (ScalarField(np.ones(8, complex), tiny),), cpl)
    with pytest.raises(ValueError, match="unit cube"):
        sup_cube_mass(st)
    odd = GridSpec(1, 10, 3.5)  # h = 0.7 does not divide 1
    st2 = SystemState(0.0, (ScalarField(np.ones(10, complex), odd),), cpl)
    with pytest.raises(ValueError, match="divide"):
        sup_cube_mass(st2)


def test_gauge_invariance(grid1d):
    f = gaussian(grid1d, amp=0.8, velocity=[0.4])
    st = single_state(f, p=1.5)
    rot = single_state(ScalarField(np.exp(1.3j) * f.values, grid1d), p=1.5)
    assert np.abs(Snapshot(st).m[0] - Snapshot(rot).m[0]).max() < 1e-12
    assert np.abs(Snapshot(st).current[0] - Snapshot(rot).current[0]).max() < 1e-12
    assert math.isclose(mass(st, 0), mass(rot, 0), rel_tol=1e-12)
    assert math.isclose(energy(st).total, energy(rot).total, rel_tol=1e-12)
    assert math.isclose(lq_norm(st, 4.0), lq_norm(rot, 4.0),
                        rel_tol=1e-12)
    assert math.isclose(sup_cube_mass(st), sup_cube_mass(rot), rel_tol=1e-12)
    assert math.isclose(h1_norm(st), h1_norm(rot), rel_tol=1e-12)


def test_boundary_mass_fraction(grid1d):
    inner = single_state(gaussian(grid1d, width=1.0))
    assert boundary_mass_fraction(inner) < 1e-12
    edge = single_state(gaussian(grid1d, width=1.0, center=[0.95 * grid1d.l]))
    assert boundary_mass_fraction(edge) > 0.5
