"""Spectral simulation and dispersive-estimate diagnostics for systems of
weakly coupled defocusing nonlinear Schrodinger equations in dimensions 1-3.

The toolkit evolves N coupled fields by Strang splitting on a periodic box,
verifies the conserved quantities and the virial / bilinear interaction
identities with their convexity lower bounds, accumulates the space-time
norms whose finiteness characterizes scattering, extracts asymptotic
profiles, constructs wave operators by truncated Duhamel fixed-point
iteration, and stress-tests the cube-localized interpolation inequalities
on seeded corpora.
"""

from .grid import (GridSpec, ScalarField, RadialKernel, field_from_function,
                   forward_transform, cube_sup_l2)
from .system import (CouplingSpec, SystemState, EnergyReport,
                     Snapshot, state_from_arrays, mass, total_mass,
                     energy, lq_norm, h1_norm, sup_cube_mass,
                     boundary_mass_fraction, BOUNDARY_MASS_LIMIT)
from .evolve import (StepParams, NanAbortError, linear_substep,
                     nonlinear_substep, strang_step, evolve)
from .morawetz import (MorawetzWeight, InteractionReport, InequalityCheck,
                       VirialSecond, SpacetimeAccumulators, virial_V,
                       virial_Vdot, virial_Vddot, interaction_report,
                       interaction_inequality_check, gradient_pairing)
from .scattering import (StrichartzPair, StrichartzAccumulator,
                         ScatteringResult, WaveOperatorResult,
                         WaveOperatorDivergence, admissible_pair, w1r_norm,
                         asymptotic_profile, wave_operator)
from .gn import GNReport, gn_ratio, unlocalized_gn_ratio, corpus_sup_ratio, generate_sample
from .initial_data import build_initial_state
from .config import RunConfig, ConfigError, parse_config
from .fieldio import write_fields, read_fields, FieldFileError

__version__ = "0.1.0"
