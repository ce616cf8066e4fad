"""Proper-time relativistic quantum evolution toolkit.

Spectral free-particle propagators (Schrodinger, relativistic square-root,
1+1D Dirac), the bounded proper-time operator and its conjugate-pair
kernel checks, and accelerating-frame proper-time/phase quadrature, with a
scenario-driven CLI.
"""

from .constants import NATURAL_UNITS, PhysicalConstants
from .grid import (
    Representation,
    SpatialGrid,
    SpinorWaveFunction,
    WaveFunction,
    boundary_amplitude,
    gaussian_packet,
    inner,
    make_grid,
    norm,
    to_momentum,
    to_position,
)
from .operators import (
    DiagonalOperator,
    Dispersion,
    ParticleSpec,
    commutator_xp_expectation,
    expectation,
    proper_time_op,
    total_energy_op,
    velocity_squared_op,
)
from .kernels import (
    AmplitudeKernel,
    ProperTimeAxis,
    SquaringVariant,
    build_kernel_matrix,
    coordinate_momentum_kernel,
    endpoint_matches_total_energy_kernel,
    energy_derivative_residual,
    extract_alpha,
    modulus_ratio,
    proper_time_kernel,
    squaring_residual,
)
from .propagators import (
    PropagatorKind,
    PropagatorSpec,
    positive_energy_spinor,
    spinor_norm,
    spinor_to_momentum,
    spinor_to_position,
    step_dirac,
    step_proper_time_phase,
    step_relativistic,
    step_schrodinger,
)
from .frames import (
    FramePhaseResult,
    Trajectory,
    action_phase,
    load_trajectory,
    proper_time_of,
    semiclassical_phase,
    velocity_of_time,
)
from .scenario import Scenario, ScenarioError, parse_scenario
from .report import CheckResult, RunReport, emit, to_csv, to_json
from .runner import run

__version__ = "0.1.0"
