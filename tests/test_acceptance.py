"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy trajectories are shared through module-scoped fixtures.  Finite-
difference tolerances follow the calibration rule tol = C dt_s^2 + floor,
with C fitted from the dt-halving pair (the dt/2 run is also the Strang-order
witness), and dt_s the snapshot spacing used for the differences.
"""

import math
import time

import numpy as np
import pytest

from nlskit import (CouplingSpec, GridSpec, MorawetzWeight, ScalarField,
                    StepParams, SystemState, admissible_pair,
                    asymptotic_profile, boundary_mass_fraction, corpus_sup_ratio,
                    energy, evolve, generate_sample, gn_ratio,
                    interaction_inequality_check, interaction_report, lq_norm,
                    mass, virial_V, virial_Vddot, virial_Vdot, wave_operator)
from nlskit.morawetz import SpacetimeAccumulators
from nlskit.verify import fd_gap_first, fd_gap_second

FD_FLOOR_FIRST = 1e-8
FD_FLOOR_SECOND = 1e-6


import conftest


def report(num: int, name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared trajectory: d=1, N=2, p=2, beta12=0.5, M=512, L=32, dt=1e-3, T=10
# ---------------------------------------------------------------------------

def _crit1_state():
    grid = GridSpec(1, 512, 32.0)
    beta = np.array([[1.0, 0.5], [0.5, 1.0]])
    cpl = CouplingSpec(2, beta, 2.0, 1)
    x = grid.x_mesh[0]
    w2 = 2.0 * 5.0 ** 2
    u1 = ScalarField(0.40 * np.exp(-x ** 2 / w2) * np.exp(0.05j * x), grid)
    u2 = ScalarField(0.30 * np.exp(-x ** 2 / w2) * np.exp(-0.05j * x), grid)
    return SystemState(0.0, (u1, u2), cpl)


def _run_instrumented(state0, dt, stride, t_final=10.0):
    weight = MorawetzWeight.quadratic()
    inter = MorawetzWeight.abs_distance()
    out = {"times": [], "V": [], "Vdot": [], "Vddot": [], "reports": [],
           "masses": [[], []], "energy": [], "boundary": 0.0}

    def sink(s):
        out["times"].append(s.t)
        out["V"].append(virial_V(s, weight))
        out["Vdot"].append(virial_Vdot(s, weight))
        out["Vddot"].append(virial_Vddot(s, weight).total)
        out["reports"].append(interaction_report(s, inter))
        for mu in range(2):
            out["masses"][mu].append(mass(s, mu))
        out["energy"].append(energy(s).total)
        out["boundary"] = max(out["boundary"], boundary_mass_fraction(s))

    start = time.time()
    evolve(state0, StepParams(dt=dt, t_final=t_final, snapshot_stride=stride), sink)
    out["wall"] = time.time() - start
    for key in ("times", "V", "Vdot", "Vddot", "energy"):
        out[key] = np.array(out[key])
    out["masses"] = [np.array(m) for m in out["masses"]]
    return out


@pytest.fixture(scope="module")
def conservation_pair():
    state0 = _crit1_state()
    run_dt = _run_instrumented(state0, 1e-3, 10)       # snapshots every 0.01
    run_half = _run_instrumented(state0, 5e-4, 20)     # same snapshot times
    return {"full": run_dt, "half": run_half}


def test_criterion_01_conservation(conservation_pair):
    run = conservation_pair["full"]
    mass_drift = max(np.abs(m - m[0]).max() / m[0] for m in run["masses"])
    e = run["energy"]
    energy_drift = np.abs(e - e[0]).max() / abs(e[0])
    ok = (mass_drift < 1e-10 and energy_drift < 1e-6 and run["wall"] < 60.0
          and run["boundary"] < 1e-6)
    report(1, "conservation", ok,
           f"mass drift {mass_drift:.2e} (<1e-10), energy drift "
           f"{energy_drift:.2e} (<1e-6), wall {run['wall']:.1f}s (<60s), "
           f"boundary {run['boundary']:.1e}")


def test_criterion_02_strang_order(conservation_pair):
    e1 = conservation_pair["full"]["energy"]
    e2 = conservation_pair["half"]["energy"]
    d1 = np.abs(e1 - e1[0]).max()
    d2 = np.abs(e2 - e2[0]).max()
    ratio = d1 / d2
    ok = 3.5 <= ratio <= 4.5
    report(2, "Strang order", ok,
           f"energy-drift ratio dt/(dt/2) = {ratio:.3f} in [3.5, 4.5]")


def _fd_pair(run_full, run_half, series_key, formula_key, gapf):
    # dt_s = 0.1 on the full run, 0.05 on the half run: both dt and dt_s halve
    t1 = run_full["times"][::10]
    t2 = run_half["times"][::5]
    g1 = gapf(t1, run_full[series_key][::10], run_full[formula_key][::10]).max()
    g2 = gapf(t2, run_half[series_key][::5], run_half[formula_key][::5]).max()
    dts = float(t1[1] - t1[0])
    c_fd = 2.0 * max(g1 / dts ** 2, g2 / (dts / 2) ** 2)
    return float(g1), float(g2), dts, c_fd


def test_criterion_03_virial_identities(conservation_pair):
    full, half = conservation_pair["full"], conservation_pair["half"]
    g1, g2, dts, c1 = _fd_pair(full, half, "V", "Vdot", fd_gap_first)
    tol1 = c1 * dts ** 2 + FD_FLOOR_FIRST
    g1b, g2b, _, c2 = _fd_pair(full, half, "V", "Vddot", fd_gap_second)
    tol2 = c2 * dts ** 2 + FD_FLOOR_SECOND
    ok = g1 <= tol1 and g1b <= tol2
    report(3, "virial identities", ok,
           f"dV/dt gap {g1:.2e} <= {tol1:.2e}; d2V/dt2 gap {g1b:.2e} <= {tol2:.2e} "
           f"(dt_s = {dts})")


def test_criterion_04_interaction_identity_and_inequality(conservation_pair):
    full, half = conservation_pair["full"], conservation_pair["half"]
    rep1 = full["reports"][::10]
    rep2 = half["reports"][::5]
    t1 = full["times"][::10]
    t2 = half["times"][::5]
    I1 = np.array([r.I for r in rep1]); Id1 = np.array([r.Idot for r in rep1])
    I2 = np.array([r.I for r in rep2]); Id2 = np.array([r.Idot for r in rep2])
    g1 = float(fd_gap_first(t1, I1, Id1).max())
    g2 = float(fd_gap_first(t2, I2, Id2).max())
    dts = float(t1[1] - t1[0])
    c_fd = 2.0 * max(g1 / dts ** 2, g2 / (dts / 2) ** 2)
    tol = c_fd * dts ** 2 + FD_FLOOR_FIRST
    scaling = g1 / g2
    check = interaction_inequality_check(list(rep1))
    ok = (g1 <= tol and 2.5 <= scaling <= 6.0 and check.second_difference_ok
          and check.integrated_ok)
    report(4, "interaction identity + inequality", ok,
           f"dI/dt gap {g1:.2e} <= {tol:.2e}, dt^2 scaling ratio {scaling:.2f}, "
           f"min margin {check.margins.min():.3e} >= -{check.tolerances.max():.1e}")


# ---------------------------------------------------------------------------
# Criterion 5: d = 3 delta collapse
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def d3_reports():
    grid = GridSpec(3, 48, 12.0)
    cpl = CouplingSpec(1, np.array([[1.0]]), 1.0, 3)
    r2 = sum(a ** 2 for a in grid.x_mesh)
    f = ScalarField(np.exp(-r2 / (2.0 * 1.5 ** 2)).astype(complex), grid)
    st = SystemState(0.0, (f,), cpl)
    reports, boundary = [], [0.0]

    def sink(s):
        reports.append(interaction_report(s, MorawetzWeight.abs_distance()))
        boundary[0] = max(boundary[0], boundary_mass_fraction(s))

    evolve(st, StepParams(dt=0.01, t_final=1.0, snapshot_stride=5), sink)
    return reports, boundary[0]


def test_criterion_05_d3_delta_collapse(d3_reports):
    reports, boundary = d3_reports
    check = interaction_inequality_check(reports)
    iddot = check.iddot_fd
    alt_sharp = np.array([r.rhs_lower_alt for r in reports])[1:-1]  # 16 pi form
    nterm = np.array([r.N_term for r in reports])[1:-1]
    alt_half = (alt_sharp - nterm) / 2.0 + nterm                    # 8 pi form
    tol = check.tolerances
    margin_literal = float((iddot - alt_half + tol).min())
    margin_sharp = float((iddot - alt_sharp + tol).min())
    ok = margin_literal >= 0.0 and margin_sharp >= 0.0 and boundary < 1e-6
    report(5, "d=3 delta collapse", ok,
           f"8pi-form margin {margin_literal:.2f} >= 0, sharp 16pi-form margin "
           f"{margin_sharp:.2f} >= 0 at every interior snapshot")


# ---------------------------------------------------------------------------
# Criteria 6-7: scattering-regime decay run, d = 1, p = 2
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def decay_run():
    grid = GridSpec(1, 10240, 1024.0)
    cpl = CouplingSpec(1, np.array([[1.0]]), 2.0, 1)
    x = grid.x_mesh[0]
    sigma, chirp, amp = 6.0, 0.25, 0.2   # focuses near t = 1, then disperses
    u = ScalarField(amp * np.exp(-x ** 2 / (2 * sigma ** 2)) * np.exp(-1j * chirp * x ** 2), grid)
    st = SystemState(0.0, (u,), cpl)
    acc = SpacetimeAccumulators(cpl)
    data = {"l4": {}, "l2": {}, "boundary": 0.0}

    def sink(s):
        acc.update(s)
        data["l4"][round(s.t, 9)] = lq_norm(s, 4.0)
        data["l2"][round(s.t, 9)] = lq_norm(s, 2.0)
        data["boundary"] = max(data["boundary"], boundary_mass_fraction(s))

    evolve(st, StepParams(dt=5e-3, t_final=40.0, snapshot_stride=20), sink)
    data["acc"] = acc
    return data


def test_criterion_06_spacetime_finiteness(decay_run):
    acc = decay_run["acc"]
    tail = acc.integrals["power_2p4"].tail_fraction(10.0)
    total = acc.totals["power_2p4"]
    ok = tail < 0.05 and total > 0.0 and decay_run["boundary"] < 1e-6
    report(6, "space-time finiteness", ok,
           f"|u|^(2p+4) accumulator increment over [30,40] is {tail:.2e} "
           f"of the total {total:.3e} (< 5%)")


def test_criterion_07_lq_decay(decay_run):
    l4 = decay_run["l4"]
    ratio = l4[40.0] / l4[1.0]
    l2 = decay_run["l2"]
    l2_drift = abs(l2[40.0] - l2[0.0]) / l2[0.0]
    ok = ratio < 0.25 and l2_drift < 1e-10
    report(7, "L^q decay", ok,
           f"sum ||u||_L4 at t=40 is {ratio:.3f} of t=1 (< 0.25); "
           f"L2 norm drift {l2_drift:.1e} (< 1e-10)")


# ---------------------------------------------------------------------------
# Criterion 8: scattering round trip
# ---------------------------------------------------------------------------

def test_criterion_08_scattering_round_trip():
    grid = GridSpec(1, 2560, 640.0)
    cpl = CouplingSpec(1, np.array([[1.0]]), 2.0, 1)
    x = grid.x_mesh[0]
    prof = [ScalarField(0.2 * np.exp(-x ** 2 / 2), grid)]
    res = wave_operator(prof, cpl, t_max=60.0, dt=0.05, tol=1e-6, max_iter=30)
    ratios = [b / a for a, b in zip(res.residuals, res.residuals[1:])]
    geometric = all(r < 1.0 for r in ratios)

    snaps = []
    evolve(res.state0, StepParams(dt=2e-3, t_final=60.0, snapshot_stride=5000),
           lambda s: snaps.append(s) if s.t > 39.9 else None)
    out = asymptotic_profile(snaps, tol=1e-3)
    gap = ScalarField(out.profile[0].values - prof[0].values, grid)
    h1_gap = gap.h1_norm()
    ok = (res.converged and res.iterations <= 30 and geometric
          and out.converged and h1_gap < 5e-3 and out.mass_mismatch < 1e-6)
    report(8, "scattering round trip", ok,
           f"wave operator converged in {res.iterations} iters (geometric: "
           f"{geometric}), recovered profile H1 gap {h1_gap:.2e} (< 5e-3), "
           f"mass mismatch {out.mass_mismatch:.1e} (< 1e-6)")


# ---------------------------------------------------------------------------
# Criterion 9: free-flow exactness
# ---------------------------------------------------------------------------

def _free_gaussian(grid, t):
    z = 1.0 + 2.0j * t
    sq = sum(a ** 2 for a in grid.x_mesh)
    return z ** (-grid.d / 2.0) * np.exp(-sq / (2.0 * z))


@pytest.mark.parametrize("d,m", [(1, 512), (2, 256)])
def test_criterion_09_free_flow_exactness(d, m):
    grid = GridSpec(d, m, 32.0)
    cpl = CouplingSpec(1, np.array([[0.0]]), 2.0, d)
    sq = sum(a ** 2 for a in grid.x_mesh)
    st = SystemState(0.0, (ScalarField(np.exp(-sq / 2).astype(complex), grid),), cpl)
    snaps = []
    final = evolve(st, StepParams(dt=5e-3, t_final=2.0, snapshot_stride=100),
                   snaps.append)
    diff = final.fields[0].values - _free_gaussian(grid, 2.0)
    l2 = math.sqrt(grid.cell_volume * float(np.sum(np.abs(diff) ** 2)))
    out = asymptotic_profile(snaps[1:], tol=1e-8)
    pgap = ScalarField(out.profile[0].values - st.fields[0].values, grid)
    h1 = pgap.h1_norm()
    ok = l2 < 1e-8 and out.converged and h1 < 1e-10
    report(9, f"free-flow exactness d={d}", ok,
           f"L2 gap to closed form {l2:.2e} (< 1e-8); profile returns initial "
           f"data within {h1:.1e} in H1 (< 1e-10)")


# ---------------------------------------------------------------------------
# Criterion 10: admissible pairs in exact arithmetic
# ---------------------------------------------------------------------------

def test_criterion_10_admissible_pairs():
    from fractions import Fraction
    cases = [(1.0, 3, Fraction(8, 3), Fraction(4)),
             (2.0, 1, Fraction(6), Fraction(6)),
             (1.0, 2, Fraction(4), Fraction(4))]
    ok = True
    for p, d, q, r in cases:
        pair = admissible_pair(p, d)
        ok &= pair.q == q and pair.r == r and pair.identity_holds()
        ok &= (2 / pair.q + Fraction(d) / pair.r == Fraction(d, 2))
    report(10, "admissible pairs", ok,
           "all three reference pairs satisfy 2/q + d/r = d/2 exactly "
           "in rational arithmetic")


# ---------------------------------------------------------------------------
# Criterion 11: localized interpolation inequality corpora
# ---------------------------------------------------------------------------

FROZEN_SUPS = {
    ("main", 1): 0.10024454883431462,
    ("cubic", 1): 0.1130222918916038,
    ("main", 2): 0.10884039877544767,
    ("cubic", 2): 0.15014286378216934,
}
GN_SEED = 20250810


@pytest.mark.parametrize("variant", ["main", "cubic"])
@pytest.mark.parametrize("d", [1, 2])
def test_criterion_11_gn_corpus(variant, d):
    grid = GridSpec(1, 256, 16.0) if d == 1 else GridSpec(2, 64, 8.0)
    rep = corpus_sup_ratio(grid, 1, "band-limited", 500, variant, seed=GN_SEED)
    rep2 = corpus_sup_ratio(grid, 1, "band-limited", 500, variant, seed=GN_SEED)
    frozen = FROZEN_SUPS[(variant, d)]
    sample = generate_sample(grid, 1, "band-limited", np.random.default_rng(3))
    base = gn_ratio(sample, variant)
    scaled = gn_ratio([ScalarField(2.0 * f.values, grid)
                       for f in sample], variant)
    moved = gn_ratio([ScalarField(np.roll(f.values, 8, axis=0), grid)
                      for f in sample], variant)
    ok = (np.isfinite(rep.ratios).all()
          and np.array_equal(rep.ratios, rep2.ratios)
          and abs(rep.sup_ratio - frozen) <= 0.05 * frozen
          and abs(scaled - base) < 1e-8 * base
          and abs(moved - base) < 1e-8 * base
          and not rep.drift_alarm())
    report(11, f"GN corpus {variant} d={d}", ok,
           f"500 ratios finite, sup {rep.sup_ratio:.6f} within 5% of frozen "
           f"{frozen:.6f}, reruns bit-identical, scaling/translation invariant")
