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
    generate_noise,
    run_trajectory,
)
from qfilter.errors import BasisMismatchError
from qfilter.noise import _coarsen

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


def test_coarsen_sums_runs_of_steps_of_one_table_or_a_stack():
    noise = generate_noise(9, 0, 1e-3, 12, 2)
    coarse = _coarsen(noise.increments, 3)
    assert coarse.shape == (4, 2)
    assert np.array_equal(coarse, noise.increments.reshape(4, 3, 2).sum(axis=1))
    assert np.array_equal(_coarsen(noise.increments, 1), noise.increments)
    # a stack of tables, one per trajectory: each row coarsens as it would alone
    stack = np.stack([generate_noise(9, i, 1e-3, 12, 2).increments for i in range(3)])
    coarse_stack = _coarsen(stack, 2)
    assert coarse_stack.shape == (3, 6, 2)
    for i in range(3):
        assert np.array_equal(coarse_stack[i], _coarsen(stack[i], 2))


@pytest.mark.parametrize("seed, index, n_steps, n_channels",
                         [(2026, 0, 1000, 1), (7, 5, 997, 2), (2**63, 12345, 64000, 1)])
def test_increments_have_the_bytes_of_chunked_philox_draws(seed, index, n_steps, n_channels):
    """A trajectory's increments are its Philox stream drawn in one call;
    drawing the same stream in uneven chunks gives the same bytes, so a run
    may draw its noise block by block."""
    dt = 1e-3
    whole = generate_noise(seed, index, dt, n_steps, n_channels).increments
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    chunks = [rng.standard_normal((size, n_channels)) * np.sqrt(dt)
              for size in (1, 7, 128, 333, n_steps - 469)]
    assert np.concatenate(chunks).tobytes() == whole.tobytes()


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
