"""Simulation of continuously observed quantum systems.

The conditioned (posterior) state of a system under continuous observation
follows a stochastic wave equation driven by the measurement record. This
package integrates that dynamics three equivalent ways (a renormalized
nonlinear scheme, an unnormalized record-driven linear scheme, and a
deterministic gauge-transformed scheme plus reconstruction), averages
trajectory ensembles against the corresponding master equation, and ships
the statistical machinery to verify each advertised equivalence, with a
fully deterministic, seed-addressed CLI on top.
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
    DEFAULT_ORACLE_CAP,
    Basis,
    DensityMatrix,
    GridSpec,
    Operator,
    StateSeries,
    StateVector,
    expectation,
    matrix_exp,
    projector,
    trace_distance,
)
from .models import (
    PAULI,
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
from .noise import (
    MeasurementRecord,
    NoisePath,
    coarsen_noise,
    generate_noise,
)
from .solvers import (
    SCHEMES,
    DensityTrajectory,
    EnsembleResult,
    TrajectoryResult,
    resolve_workers,
    run_ensemble,
    run_trajectory,
    solve_master,
    solve_unitary,
)
from .analysis import (
    CollapseReport,
    ComparisonReport,
    EnsembleSummary,
    LocalizationSeries,
    OrderReport,
    ResidualReport,
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
from .config import (
    RunConfig,
    apply_overrides,
    build_initial,
    build_model,
    build_observables,
    parse_config,
    parse_config_data,
)
from .output import (
    export_plot,
    load_csv,
    load_manifest,
    verify_artifacts,
    write_master,
    write_report,
    write_simulation,
)
from .suites import SUITES, run_suite

__all__ = [
    "__version__",
    "QFilterError", "BasisMismatchError", "NormalizationError", "OracleSizeError",
    "StepFailureError", "InstabilityError", "UnsupportedConfigurationError",
    "ConfigError", "ArtifactMismatchError",
    "DEFAULT_ORACLE_CAP",
    "GridSpec", "Basis", "StateVector", "StateSeries", "Operator", "DensityMatrix",
    "expectation", "projector", "trace_distance", "matrix_exp",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "PAULI",
    "ModelSpec", "GridPotential",
    "build_qubit_model", "build_grid_model", "gaussian_packet",
    "momentum_operator", "named_observable",
    "NoisePath", "MeasurementRecord", "generate_noise", "coarsen_noise",
    "SCHEMES", "TrajectoryResult", "EnsembleResult", "DensityTrajectory", "run_trajectory",
    "run_ensemble", "resolve_workers", "solve_master", "solve_unitary",
    "EnsembleSummary", "ComparisonReport", "CollapseReport",
    "LocalizationSeries", "ResidualReport", "OrderReport",
    "fidelity", "pure_state_trace_distance",
    "ensemble_average", "ensemble_vs_master", "collapse_statistics",
    "variance_series", "time_average", "localization_metrics",
    "filtering_residual", "strong_order_estimate",
    "RunConfig", "parse_config", "parse_config_data", "apply_overrides",
    "build_model", "build_initial", "build_observables",
    "write_simulation", "write_master", "write_report", "export_plot",
    "verify_artifacts", "load_manifest", "load_csv",
    "SUITES", "run_suite",
]
