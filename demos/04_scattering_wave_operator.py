"""Wave operator and asymptotic profile: the round trip.

Existence direction: given an asymptotic profile w0+, the truncated Duhamel
fixed point

    w(t) = exp(i t Lap) w0+  +  i int_t^T exp(i (t-s) Lap) h(w(s)) ds

contracts for small data and yields the initial datum w(0) whose solution
scatters to w0+.  Completeness direction: conjugating trajectory snapshots
by the free group, v(t) = exp(-i t Lap) u(t), gives a Cauchy sequence whose
limit is the profile.  Composing the two recovers w0+.
"""

import numpy as np

from nlskit import (CouplingSpec, GridSpec, ScalarField, StepParams,
                    asymptotic_profile, evolve, wave_operator)

grid = GridSpec(d=1, m=1024, l=256.0)
coupling = CouplingSpec(1, np.array([[1.0]]), p=2.0, d=1)
x = grid.x_mesh[0]
profile = [ScalarField(0.2 * np.exp(-x ** 2 / 2), grid)]
T = 20.0

print("constructing the initial datum from the asymptotic profile ...")
res = wave_operator(profile, coupling, t_max=T, dt=0.05, tol=1e-8, max_iter=30)
print(f"  converged: {res.converged} after {res.iterations} iterations")
print(f"  residuals: {['%.2e' % r for r in res.residuals]}")
print(f"  truncation-tail surrogate: {res.tail_estimate:.2e}")
u0 = res.state0
gap0 = ScalarField(u0.fields[0].values - profile[0].values, grid)
print(f"  H1 distance of w(0) from the profile (the nonlinear dressing): "
      f"{gap0.h1_norm():.3e}")

print()
print(f"evolving w(0) to t = {T} and extracting the profile ...")
snaps = []
evolve(u0, StepParams(dt=5e-3, t_final=T, snapshot_stride=800),
       lambda s: snaps.append(s) if s.t >= 11.9 else None)
out = asymptotic_profile(snaps, tol=1e-3)
print(f"  snapshot times: {[s.t for s in snaps]}")
print(f"  Cauchy residuals: {['%.2e' % r[2] for r in out.residuals]}")
recovered = ScalarField(out.profile[0].values - profile[0].values, grid)
print(f"  recovered profile H1 gap: {recovered.h1_norm():.2e}")
print(f"  profile mass vs conserved trajectory mass: relative mismatch "
      f"{out.mass_mismatch:.1e}")
