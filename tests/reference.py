"""Reference integrators the tests compare the production stepper against.

rk4_reference_step is a classical RK4 step on the full right-hand side, an
independent cross-validation oracle for the Strang stepper; explicit, so
stable only for dt of order h^2/pi.
"""

import math

import numpy as np

from nlskit.evolve import _nonlinear_exponents
from nlskit.grid import GridSpec
from nlskit.system import CouplingSpec, SystemState, state_from_arrays


def _rhs(grid: GridSpec, arrays: list[np.ndarray], coupling: CouplingSpec,
         t: float) -> list[np.ndarray]:
    """du/dt = i Lap u - i g(u) u with the spectral Laplacian."""
    gs = _nonlinear_exponents(arrays, coupling, t)
    out = []
    for a, gg in zip(arrays, gs):
        lap = np.fft.ifftn(-grid.k_squared * np.fft.fftn(a))
        out.append(1j * lap - 1j * gg * a)
    return out


def rk4_reference_step(state: SystemState, dt: float) -> SystemState:
    """Classical RK4 on the full right-hand side.

    Caller must keep dt within the explicit stability window (roughly
    dt <~ h^2 / pi).  A norm growth above 10x aborts as instability.
    """
    g = state.grid
    c = state.coupling
    y = [f.values for f in state.fields]
    t = state.t
    k1 = _rhs(g, y, c, t)
    k2 = _rhs(g, [a + 0.5 * dt * b for a, b in zip(y, k1)], c, t)
    k3 = _rhs(g, [a + 0.5 * dt * b for a, b in zip(y, k2)], c, t)
    k4 = _rhs(g, [a + dt * b for a, b in zip(y, k3)], c, t)
    new = [a + (dt / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    old_norm = math.sqrt(sum(float(np.sum(np.abs(a) ** 2)) for a in y))
    new_norm = math.sqrt(sum(float(np.sum(np.abs(a) ** 2)) for a in new))
    if old_norm > 0 and new_norm > 10.0 * old_norm:
        raise RuntimeError(
            f"RK4 reference step unstable at t = {state.t}: "
            f"norm grew {new_norm / old_norm:.2e}x; reduce dt below h^2/pi")
    return state_from_arrays(state.t + dt, new, c, g)
