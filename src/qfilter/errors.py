"""Exception types shared across the package."""

from __future__ import annotations


class QFilterError(Exception):
    """Base class for package-specific failures."""


class BasisMismatchError(QFilterError):
    """Operands live on different bases or have incompatible shapes."""


class NormalizationError(QFilterError):
    """A state violated a normalization contract."""


class OracleSizeError(QFilterError):
    """A dense oracle was requested above the configured size cap."""


class StepFailureError(QFilterError):
    """An integrator produced a non-finite state."""

    def __init__(self, message: str, step_index: int | None = None, scheme: str | None = None,
                 trajectory_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.scheme = scheme
        self.trajectory_index = trajectory_index


class InstabilityError(QFilterError):
    """Integration left its stability envelope (e.g. trace drift)."""


class UnsupportedConfigurationError(QFilterError):
    """The requested operation is outside the supported configuration."""


class ConfigError(QFilterError):
    """Configuration failed validation; aggregates (path, message) pairs."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [("", problems)]
        self.problems = list(problems)
        lines = [f"{path}: {msg}" if path else msg for path, msg in self.problems]
        super().__init__("invalid configuration:\n  " + "\n  ".join(lines))


class ArtifactMismatchError(QFilterError):
    """Stored run files disagree with their manifest checksums."""
