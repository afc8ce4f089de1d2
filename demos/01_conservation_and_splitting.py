"""Conservation laws and the order of the splitting integrator.

A two-component coupled defocusing system is evolved with the Strang scheme.
Both substeps are exact flows, so every per-component mass is conserved to
rounding; the energy

    E = int sum |grad u|^2 + sum beta[mu,nu] |u_mu u_nu|^{p+1} / (p+1)

is conserved by the true dynamics and drifts only through the O(dt^2)
splitting defect.  Halving dt divides the drift by four.
"""

import numpy as np

from nlskit import (CouplingSpec, GridSpec, ScalarField, StepParams,
                    SystemState, energy, evolve, mass)

grid = GridSpec(d=1, m=512, l=32.0)
beta = np.array([[1.0, 0.5], [0.5, 1.0]])
coupling = CouplingSpec(2, beta, p=2.0, d=1)
x = grid.x_mesh[0]
u1 = ScalarField(0.4 * np.exp(-x ** 2 / 50) * np.exp(0.05j * x), grid)
u2 = ScalarField(0.3 * np.exp(-x ** 2 / 50) * np.exp(-0.05j * x), grid)
state = SystemState(0.0, (u1, u2), coupling)

e0 = energy(state).total
m0 = [mass(state, mu) for mu in range(2)]
print(f"initial masses {m0[0]:.6f}, {m0[1]:.6f};  energy {e0:.6f}")
print()
print("   dt      max |E(t)-E(0)|/E(0)   max mass drift")

drifts = {}
for dt in (2e-3, 1e-3, 5e-4):
    e_drift, m_drift = 0.0, 0.0

    def sink(s):
        global e_drift, m_drift
        e_drift = max(e_drift, abs(energy(s).total - e0) / abs(e0))
        for mu in range(2):
            m_drift = max(m_drift, abs(mass(s, mu) - m0[mu]) / m0[mu])

    evolve(state, StepParams(dt=dt, t_final=5.0, snapshot_stride=50), sink)
    drifts[dt] = e_drift
    print(f"  {dt:g}      {e_drift:12.3e}        {m_drift:9.2e}")

print()
print(f"drift ratio dt=2e-3 / dt=1e-3: {drifts[2e-3] / drifts[1e-3]:.2f}  (~4 for a "
      "second-order scheme)")
print(f"drift ratio dt=1e-3 / dt=5e-4: {drifts[1e-3] / drifts[5e-4]:.2f}")
