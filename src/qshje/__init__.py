"""Deterministic quantum trajectories from the stationary quantum
Hamilton-Jacobi equation: solution pairs, microstate-parameterized reduced
actions, dispersion-relation dynamics, action-variable quantization, and
the spherically symmetric 3-D decomposition."""

from .errors import (
    ConfigError,
    ConstructionError,
    ConversionError,
    DomainError,
    GridNarrowError,
    IntegrationQualityError,
    NormalizationError,
    NumericError,
    ParameterError,
    QshjeError,
    SearchError,
    SingularityError,
)
from .schrodinger import (
    Grid,
    NATURAL_UNITS,
    PotentialSpec,
    Solution,
    SolutionPair,
    UnitSystem,
    analytic_free_pair,
    count_nodes,
    find_bound_energies,
    integrate_schrodinger,
    make_pair,
    pair_from_solutions,
    pair_to_csv,
    physical_bound_solution,
)
from .reduced_action import (
    MicrostateParams,
    ReducedActionField,
    basic_identity_residual,
    bohm_quantum_potential,
    build_field,
    combine_pair,
    field_to_csv,
    floyd_momentum,
    modified_potential_residual,
    params_convert,
    probability_current,
    qshje_residual,
    reconstruct_wavefunction,
    schwarzian,
)
from .dynamics import (
    QuantumLagrangianState,
    Trajectory,
    closed_form_derivatives,
    dispersion_free_trajectory,
    f_function,
    fiqnl_residual,
    fiqnl_residual_along,
    floyd_free_trajectory,
    free_particle_closed_form,
    integrate_trajectory,
    quantum_coordinate,
    quantum_jacobi_time,
    quantum_lagrangian_state,
    time_of_flight,
    trajectory_to_csv,
    velocity,
)
from .quantization import (
    BoundStateRecord,
    action_variable,
    bound_state,
    enumerate_microstates,
    microstate_distinctness,
    params_from_wave_coefficients,
    partner_solution,
    quantization_report,
    wave_coefficients_from_params,
)
from .spherical import (
    AzimuthalAction,
    SphericalActionTriple,
    SphericalQuantumNumbers,
    build_triple,
    polar_transform,
    radial_transform,
    total_action,
    total_qshje_residual,
)

__version__ = "0.1.0"
