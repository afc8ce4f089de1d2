"""Virial identities along a trajectory.

For a radial weight phi, the weighted mass V(t) = sum_mu int phi m_mu obeys

    dV/dt   = 2 sum int j . grad phi
    d2V/dt2 = sum [ -int m Lap^2 phi + 4 int grad u D2phi grad conj(u) ]
              + (2p/(p+1)) sum beta int |u_mu u_nu|^{p+1} Lap phi .

With phi = |x|^2 the bilaplacian vanishes, the hessian term is 8x the
kinetic energy, and the finite differences of the sampled V(t) must match
the right-hand sides to O(dt_s^2).
"""

import numpy as np

from nlskit import (CouplingSpec, GridSpec, MorawetzWeight, ScalarField,
                    StepParams, SystemState, evolve, virial_V, virial_Vddot,
                    virial_Vdot)

grid = GridSpec(d=1, m=512, l=32.0)
coupling = CouplingSpec(2, np.array([[1.0, 0.5], [0.5, 1.0]]), p=2.0, d=1)
x = grid.x_mesh[0]
state = SystemState(0.0, (
    ScalarField(0.4 * np.exp(-x ** 2 / 50) * np.exp(0.05j * x), grid),
    ScalarField(0.3 * np.exp(-x ** 2 / 50) * np.exp(-0.05j * x), grid),
), coupling)

weight = MorawetzWeight.quadratic()
times, V, Vdot, Vddot = [], [], [], []

def sink(s):
    times.append(s.t)
    V.append(virial_V(s, weight))
    Vdot.append(virial_Vdot(s, weight))
    Vddot.append(virial_Vddot(s, weight).total)

evolve(state, StepParams(dt=1e-3, t_final=6.0, snapshot_stride=100), sink)
times, V, Vdot, Vddot = map(np.array, (times, V, Vdot, Vddot))
dt_s = times[1] - times[0]

fd1 = (V[2:] - V[:-2]) / (2 * dt_s)
fd2 = (V[2:] - 2 * V[1:-1] + V[:-2]) / dt_s ** 2

print(f"snapshot spacing dt_s = {dt_s}")
print()
print("   t       V(t)        dV/dt (FD)    dV/dt (identity)   gap")
for i in range(0, len(fd1), 10):
    print(f"  {times[i+1]:4.1f}  {V[i+1]:10.6f}  {fd1[i]:12.8f}  {Vdot[i+1]:15.8f}"
          f"  {abs(fd1[i]-Vdot[i+1]):9.2e}")
print()
print(f"max |FD1 - identity| = {np.abs(fd1 - Vdot[1:-1]).max():.2e}")
print(f"max |FD2 - identity| = {np.abs(fd2 - Vddot[1:-1]).max():.2e}")
print("(both shrink like dt_s^2: rerun with snapshot_stride=50 to see /4)")

rep = virial_Vddot(state, weight)
print()
print("t = 0 second-derivative split for phi = |x|^2:")
print(f"  bilaplacian term {rep.bilap_term:.3e} (exactly 0 for the quadratic weight)")
print(f"  hessian term     {rep.hessian_term:.6f} (= 8 x kinetic energy)")
print(f"  nonlinear term   {rep.nonlinear_term:.6f} (>= 0, defocusing)")
