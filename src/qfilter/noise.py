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


def _noise_table(master_seed: int, lo: int, hi: int, dt: float, n_steps: int,
                 n_channels: int) -> np.ndarray:
    """(hi - lo, n_steps, n_channels) Wiener increments of trajectories
    lo .. hi - 1: row i is the stream keyed on (master_seed, lo + i), drawn
    straight into it and scaled in place, so the table is all it holds."""
    seed = _check_seed(master_seed, "master_seed")
    lo = _check_seed(lo, "trajectory_index")
    hi = _check_seed(hi - 1, "trajectory_index") + 1
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
    table = np.empty((hi - lo, n_steps, n_channels))
    scale = np.sqrt(dt)
    for row, index in zip(table, range(lo, hi)):
        key = np.array([seed, index], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(out=row)
        row *= scale
    return table


def generate_noise(master_seed: int, trajectory_index: int, dt: float,
                   n_steps: int, n_channels: int = 1) -> NoisePath:
    """Draw the (n_steps, n_channels) increment table for one trajectory:
    the one-row `_noise_table`."""
    index = _check_seed(trajectory_index, "trajectory_index")
    table = _noise_table(master_seed, index, index + 1, dt, n_steps, n_channels)
    return NoisePath(dt, table[0], int(master_seed), index)


def _coarsen(table: np.ndarray, factor: int) -> np.ndarray:
    """Sum each run of `factor` consecutive steps of a (..., n_steps, c)
    increment table into one coarse step."""
    *lead, n, c = table.shape
    return table.reshape(*lead, n // factor, factor, c).sum(axis=-2)


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

