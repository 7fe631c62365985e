"""Simulation of continuously observed quantum systems.

The conditioned (posterior) state of a system under continuous observation
follows a stochastic wave equation driven by the measurement record. This
package integrates that dynamics three equivalent ways (a renormalized
nonlinear scheme, an unnormalized record-driven linear scheme, and a
deterministic gauge-transformed scheme plus reconstruction), averages
trajectory ensembles against the corresponding master equation, and ships
the statistical machinery to verify each advertised equivalence, with a
fully deterministic, seed-addressed CLI on top.

This namespace is the numerical library and `verify_artifacts`. The CLI's
layers are imported from their modules: `qfilter.config`, `qfilter.output`,
`qfilter.suites` and `qfilter.cli`.
"""

from ._version import __version__
from .errors import (
    ArtifactMismatchError,
    BasisMismatchError,
    ConfigError,
    InstabilityError,
    NormalizationError,
    OracleSizeError,
    QFilterError,
    StepFailureError,
    UnsupportedConfigurationError,
)
from .linalg import (
    Basis,
    DensityMatrix,
    GridSpec,
    Operator,
    StateVector,
    expectation,
    matrix_exp,
    projector,
    trace_distance,
)
from .models import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    GridPotential,
    ModelSpec,
    build_grid_model,
    build_qubit_model,
    gaussian_packet,
    momentum_operator,
    named_observable,
)
from .noise import MeasurementRecord, NoisePath, generate_noise
from .solvers import (
    DensityTrajectory,
    EnsembleResult,
    TrajectoryResult,
    run_ensemble,
    run_trajectory,
    solve_master,
    solve_unitary,
)
from .analysis import (
    collapse_statistics,
    ensemble_average,
    ensemble_vs_master,
    fidelity,
    filtering_residual,
    localization_metrics,
    pure_state_trace_distance,
    strong_order_estimate,
    time_average,
    variance_series,
)
from .output import verify_artifacts

__all__ = [
    "__version__",
    "QFilterError", "BasisMismatchError", "NormalizationError", "OracleSizeError",
    "StepFailureError", "InstabilityError", "UnsupportedConfigurationError",
    "ConfigError", "ArtifactMismatchError",
    "GridSpec", "Basis", "StateVector", "Operator", "DensityMatrix",
    "expectation", "projector", "trace_distance", "matrix_exp",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "ModelSpec", "GridPotential",
    "build_qubit_model", "build_grid_model", "gaussian_packet",
    "momentum_operator", "named_observable",
    "NoisePath", "MeasurementRecord", "generate_noise",
    "TrajectoryResult", "EnsembleResult", "DensityTrajectory", "run_trajectory",
    "run_ensemble", "solve_master", "solve_unitary",
    "fidelity", "pure_state_trace_distance",
    "ensemble_average", "ensemble_vs_master", "collapse_statistics",
    "variance_series", "time_average", "localization_metrics",
    "filtering_residual", "strong_order_estimate",
    "verify_artifacts",
]
