"""Reproducible Wiener increments and measurement records."""

from __future__ import annotations

import numpy as np
import pytest

from qfilter import (
    Basis,
    MeasurementRecord,
    NoisePath,
    StateVector,
    build_qubit_model,
    coarsen_noise,
    coarsen_record,
    generate_noise,
    run_trajectory,
)
from qfilter.errors import BasisMismatchError

KET0 = StateVector(Basis.finite(2), np.array([1.0, 0.0], dtype=complex))


def test_noise_is_deterministic_per_seed_and_index():
    a = generate_noise(42, 3, 0.01, 100, 2)
    b = generate_noise(42, 3, 0.01, 100, 2)
    assert np.array_equal(a.increments, b.increments)
    c = generate_noise(42, 4, 0.01, 100, 2)
    d = generate_noise(43, 3, 0.01, 100, 2)
    assert not np.array_equal(a.increments, c.increments)
    assert not np.array_equal(a.increments, d.increments)


def test_increment_moments():
    n = 1_000_000
    dt = 0.01
    noise = generate_noise(2026, 0, dt, n, 1)
    dw = noise.increments[:, 0]
    assert abs(dw.mean()) < 3.0 * np.sqrt(dt / n), "sample mean outside 3 sigma"
    assert abs(dw.var() - dt) < 5e-4


def test_channels_are_uncorrelated():
    noise = generate_noise(7, 1, 1e-3, 200_000, 2)
    rho = np.corrcoef(noise.increments.T)[0, 1]
    assert abs(rho) < 0.01, f"cross-channel correlation {rho:.4f}"


def test_quadratic_variation_approaches_horizon():
    dt = 1e-3
    n = 1000
    noise = generate_noise(11, 0, dt, n, 1)
    qv = float((noise.increments**2).sum())
    assert abs(qv - 1.0) <= 3.0 * np.sqrt(2.0 * dt), f"quadratic variation {qv:.4f}"


# Records are formed innovation-first inside run_trajectory: dY = 2 Re<L> dt + dW.

def test_record_with_zero_expectation_is_noise():
    unobserved = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=0.0)
    noise = generate_noise(5, 2, 1e-3, 50, 1)
    record = run_trajectory(unobserved, KET0, 1e-3, 50, 5, 2, noise=noise).record
    assert np.array_equal(record.increments, noise.increments)
    assert np.allclose(record.cumulative, np.cumsum(noise.increments, axis=0))


def test_record_drift_with_silent_noise():
    # a sigma_z eigenstate keeps Re<L> = sqrt(2); with no noise every increment
    # is 2*sqrt(2)*dt
    dephasing = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    dt = 0.01
    quiet = NoisePath(dt, np.zeros((20, 1)), 0, 0)
    record = run_trajectory(dephasing, KET0, dt, 20, 0, 0, noise=quiet).record
    assert np.all(record.increments == pytest.approx(0.028284271247461904, rel=1e-15))
    assert record.cumulative[-1, 0] == pytest.approx(20 * 2.0 * np.sqrt(2.0) * dt, rel=1e-13)


def test_record_shape_must_match_noise():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    noise = generate_noise(5, 2, 1e-3, 50, 2)
    with pytest.raises(BasisMismatchError):
        run_trajectory(model, KET0, 1e-3, 50, 5, 2, noise=noise)


def test_record_times_are_step_ends():
    record = MeasurementRecord(0.5, np.zeros((4, 1)), np.zeros((4, 1)))
    assert np.allclose(record.times, [0.5, 1.0, 1.5, 2.0])


def test_coarsen_noise_sums_pairs():
    noise = generate_noise(9, 0, 1e-3, 12, 2)
    coarse = coarsen_noise(noise, 3)
    assert coarse.dt == pytest.approx(3e-3)
    assert coarse.n_steps == 4
    manual = noise.increments.reshape(4, 3, 2).sum(axis=1)
    assert np.allclose(coarse.increments, manual, atol=1e-16)
    assert coarsen_noise(noise, 1) is noise
    with pytest.raises(ValueError):
        coarsen_noise(noise, 5)
    with pytest.raises(ValueError):
        coarsen_noise(noise, 0)


def test_coarsen_record_preserves_the_path():
    noise = generate_noise(13, 4, 5e-4, 100, 1)
    dy = 2.0 * noise.dt + noise.increments
    record = MeasurementRecord(noise.dt, dy, np.cumsum(dy, axis=0))
    coarse = coarsen_record(record, 2)
    assert coarse.dt == pytest.approx(1e-3)
    assert np.allclose(coarse.increments.sum(axis=0), record.increments.sum(axis=0),
                       atol=1e-14)
    assert np.allclose(coarse.cumulative, np.cumsum(coarse.increments, axis=0))
    assert coarse.cumulative[-1, 0] == pytest.approx(record.cumulative[-1, 0], rel=1e-12)
    assert coarsen_record(record, 1) is record
    with pytest.raises(ValueError):
        coarsen_record(record, 7)


def test_noise_path_validation():
    with pytest.raises(ValueError):
        NoisePath(0.0, np.zeros((3, 1)), 0, 0)
    with pytest.raises(ValueError):
        NoisePath(0.1, np.zeros(3), 0, 0)
    with pytest.raises(ValueError):
        MeasurementRecord(0.1, np.zeros((3, 1)), np.zeros((4, 1)))


def test_generate_noise_validation():
    with pytest.raises(ValueError):
        generate_noise(-1, 0, 0.1, 10)
    with pytest.raises(ValueError):
        generate_noise(2**64, 0, 0.1, 10)
    with pytest.raises(ValueError):
        generate_noise(0, 0.5, 0.1, 10)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        generate_noise(0, 0, -0.1, 10)
    with pytest.raises(ValueError):
        generate_noise(0, 0, 0.1, 0)
    with pytest.raises(ValueError):
        generate_noise(0, 0, 0.1, 10, 0)
    with pytest.raises(ValueError, match="refusing to allocate"):
        generate_noise(0, 0, 0.1, 200_000_000, 1)


def test_increments_are_frozen():
    noise = generate_noise(1, 0, 0.1, 5)
    with pytest.raises(ValueError):
        noise.increments[0, 0] = 9.9
