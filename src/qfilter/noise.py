"""Seed-reproducible Wiener increments and measurement records.

Increments come from numpy's Philox counter generator keyed on
(master_seed, trajectory_index), so distinct trajectories draw independent
streams that are bit-for-bit reproducible regardless of how work is
scheduled across processes. Gaussian variates use Generator.standard_normal
(ziggurat), stable under numpy's stream-compatibility policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_INCREMENTS = 100_000_000  # allocation guard: n_steps * n_channels


def _check_seed(value: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    if value < 0 or value >= 2**64:
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer")
    return int(value)


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Wiener increments dW with shape (n_steps, n_channels) and their provenance."""

    dt: float
    increments: np.ndarray
    master_seed: int
    trajectory_index: int

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2:
            raise ValueError("increments must be 2-D (n_steps, n_channels)")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        inc = inc.copy()
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def n_channels(self) -> int:
        return self.increments.shape[1]


def generate_noise(master_seed: int, trajectory_index: int, dt: float,
                   n_steps: int, n_channels: int = 1) -> NoisePath:
    """Draw the (n_steps, n_channels) increment table for one trajectory."""
    seed = _check_seed(master_seed, "master_seed")
    index = _check_seed(trajectory_index, "trajectory_index")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if n_channels < 1:
        raise ValueError("n_channels must be at least 1")
    if n_steps * n_channels > MAX_INCREMENTS:
        raise ValueError(
            f"refusing to allocate {n_steps * n_channels} increments (cap {MAX_INCREMENTS})"
        )
    key = np.array([seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    dw = rng.standard_normal((n_steps, n_channels)) * np.sqrt(dt)
    return NoisePath(dt, dw, seed, index)


def coarsen_noise(noise: NoisePath, factor: int) -> NoisePath:
    """Merge consecutive groups of `factor` increments into one coarse step."""
    if factor < 1 or noise.n_steps % factor:
        raise ValueError(f"n_steps {noise.n_steps} is not divisible by factor {factor}")
    if factor == 1:
        return noise
    merged = noise.increments.reshape(noise.n_steps // factor, factor, noise.n_channels).sum(axis=1)
    return NoisePath(noise.dt * factor, merged, noise.master_seed, noise.trajectory_index)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Output-process increments dY and their cumulative sums Y."""

    dt: float
    increments: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        cum = np.asarray(self.cumulative, dtype=float)
        if inc.ndim != 2 or cum.shape != inc.shape:
            raise ValueError("increments and cumulative must share a 2-D shape")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        for name, arr in (("increments", inc), ("cumulative", cum)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def n_channels(self) -> int:
        return self.increments.shape[1]

    @property
    def times(self) -> np.ndarray:
        """Step-end times t_k = (k+1) dt."""
        return self.dt * np.arange(1, self.n_steps + 1)


def coarsen_record(record: MeasurementRecord, factor: int) -> MeasurementRecord:
    """Merge consecutive groups of `factor` record increments into one step.

    The coarse record observes the same output path on a grid `factor`
    times wider, so replaying it gives the common-refinement comparison.
    """
    if factor < 1 or record.n_steps % factor:
        raise ValueError(f"n_steps {record.n_steps} is not divisible by factor {factor}")
    if factor == 1:
        return record
    merged = record.increments.reshape(
        record.n_steps // factor, factor, record.n_channels
    ).sum(axis=1)
    return MeasurementRecord(record.dt * factor, merged, np.cumsum(merged, axis=0))

