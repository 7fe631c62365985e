"""Single-step oracles, trajectory integration, and the dense reference solvers."""

from __future__ import annotations

import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfilter as qf
from qfilter import (
    Basis,
    DensityMatrix,
    GridPotential,
    GridSpec,
    MeasurementRecord,
    ModelSpec,
    NoisePath,
    Operator,
    StateVector,
    build_grid_model,
    build_qubit_model,
    coarsen_noise,
    expectation,
    gaussian_packet,
    generate_noise,
    momentum_operator,
    named_observable,
    projector,
    resolve_workers,
    run_ensemble,
    run_trajectory,
    solve_master,
    solve_unitary,
    trace_distance,
)
from qfilter.errors import (
    BasisMismatchError,
    ConfigError,
    InstabilityError,
    NormalizationError,
    OracleSizeError,
    StepFailureError,
    UnsupportedConfigurationError,
)
from qfilter import solvers

B2 = Basis.finite(2)


def _ket(c0, c1):
    return StateVector(B2, np.array([c0, c1], dtype=complex))


def _dephasing(lam=1.0):
    return build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=lam)


def _one_step(model, state, dt, dw, scheme="nonlinear"):
    """One innovation-first step of `run_trajectory` driven by a given dW."""
    noise = NoisePath(dt, [[dw]], 0, 0)
    return run_trajectory(model, state, dt, 1, 0, 0, scheme=scheme, noise=noise)


def _replay(model, state, dt, dys, scheme="linear"):
    """`run_trajectory` replaying the record increments `dys` (n_steps, n_channels)."""
    dys = np.asarray(dys, dtype=float)
    record = MeasurementRecord(dt, dys, np.cumsum(dys, axis=0))
    return run_trajectory(model, state, dt, dys.shape[0], 0, 0, scheme=scheme,
                          record=record)


def _chi(result):
    """Unnormalized linear-form solution exp(log_norm) * state at the last snapshot."""
    return math.exp(result.log_norm[-1]) * result.states[-1].amplitudes


def test_step_nonlinear_keeps_channel_eigenstate_fixed():
    """An observation eigenstate only picks up amplitude, never direction."""
    model = _dephasing()
    dt = 1e-3
    dw = 0.3
    r = _one_step(model, _ket(1.0, 0.0), dt, dw)
    a = math.sqrt(2.0)
    dy = 2.0 * a * dt + dw
    factor = 1.0 + a * dy - dt  # K = identity for this model
    assert r.step_norms[0] == pytest.approx(factor, rel=1e-14)
    assert r.states[-1].amplitudes[0] == pytest.approx(1.0, abs=1e-15)
    assert r.states[-1].amplitudes[1] == 0.0


def test_step_nonlinear_matches_dense_arithmetic():
    model = build_qubit_model((0.7, -0.3, 0.4), channel="sigma_x", lam=0.8)
    phi = np.array([0.6, 0.8], dtype=complex)
    dt = 2e-3
    dw = -0.05
    lmat = model.channels[0].matrix
    kmat = model.generator.matrix
    a = float(np.vdot(phi, lmat @ phi).real)
    dy = 2.0 * a * dt + dw
    raw = phi + dy * (lmat @ phi) - dt * (kmat @ phi)
    nn = float(np.linalg.norm(raw))
    r = _one_step(model, _ket(0.6, 0.8), dt, dw)
    assert r.step_norms[0] == pytest.approx(nn, rel=1e-14)
    assert np.allclose(r.states[-1].amplitudes, raw / nn, atol=1e-14)
    assert r.record.increments[0, 0] == pytest.approx(dy, rel=1e-14)


def test_step_linear_scales_channel_eigenstates():
    model = _dephasing()
    dt = 1e-3
    dy = 0.02
    r = _replay(model, _ket(1.0, 0.0), dt, [[dy]])
    factor = 1.0 + math.sqrt(2.0) * dy - dt
    assert np.allclose(_chi(r), [factor, 0.0], atol=1e-15)


def test_step_linear_matches_dense_arithmetic_two_channels():
    rng = np.random.default_rng(31)
    basis = Basis.finite(4)
    h_raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ham = Operator(basis, h_raw + h_raw.conj().T)
    chans = [Operator(basis, rng.standard_normal((4, 4))
                                  + 1j * rng.standard_normal((4, 4))) for _ in range(2)]
    model = ModelSpec(ham, chans)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vec /= np.linalg.norm(vec)
    dt = 1e-3
    dy = np.array([0.04, -0.02])
    expected = vec.copy()
    expected += dy[0] * (chans[0].matrix @ vec) + dy[1] * (chans[1].matrix @ vec)
    expected -= dt * (model.generator.matrix @ vec)
    r = _replay(model, StateVector(basis, vec), dt, [dy])
    assert np.allclose(_chi(r), expected, atol=1e-14)


def test_step_gauge_silent_record_decay():
    # with Y = 0 the generator reduces to K + L^2/2 = 2*identity
    model = _dephasing()
    dt = 1e-3
    r = _replay(model, _ket(1.0, 0.0), dt, np.zeros((500, 1)), scheme="gauge")
    assert r.log_norm[-1] == pytest.approx(500 * math.log(1.0 - 2.0 * dt), rel=1e-12)
    assert math.exp(r.log_norm[-1]) == pytest.approx(math.exp(-1.0), rel=2e-3)
    assert np.allclose(r.states[-1].amplitudes, [1.0, 0.0], atol=1e-15)


def test_step_gauge_unitary_limit_is_schrodinger_euler():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=0.0)
    dt = 1e-3
    r = _one_step(model, _ket(1.0, 0.0), dt, 0.0, scheme="gauge")
    # psi - i dt H psi with H = sigma_x / 2, then renormalized
    euler = np.array([1.0, -0.5j * dt])
    assert np.allclose(r.states[-1].amplitudes, euler / np.linalg.norm(euler), atol=1e-15)


def test_step_gauge_needs_diagonal_channels():
    model = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_x", lam=1.0)
    with pytest.raises(UnsupportedConfigurationError):
        run_trajectory(model, _ket(1.0, 0.0), 1e-3, 10, 0, 0, scheme="gauge")


def test_reconstruct_posterior_at_zero_record():
    model = _dephasing()
    psi = _ket(0.6, 0.8)
    r = run_trajectory(model, psi, 1e-3, 10, 0, 0, scheme="gauge")
    assert np.allclose(r.states[0].amplitudes, psi.amplitudes, atol=1e-15)
    assert abs(r.log_norm[0]) < 1e-14


def test_reconstruct_posterior_frozen_value():
    model = _dephasing()
    plus = _ket(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    dt = 1e-3
    r = _replay(model, plus, dt, [[1.0]], scheme="gauge")
    # the gauge core is 2*identity here, so psi only shrinks by 1 - 2 dt
    rr = 2.0 * math.sqrt(2.0)
    want = 0.5 * math.log(math.cosh(rr)) + math.log(1.0 - 2.0 * dt)
    assert r.log_norm[-1] == pytest.approx(want, rel=1e-12)
    expected = np.array([math.exp(math.sqrt(2.0)), math.exp(-math.sqrt(2.0))])
    expected /= math.sqrt(2.0 * math.cosh(rr))
    post = r.states[-1]
    assert np.allclose(post.amplitudes, expected, atol=1e-12)
    assert post.norm() == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_posterior_survives_huge_records():
    grid = GridSpec(-8.0, 8.0, 64)
    model = build_grid_model(grid, lam=1.0)
    psi = gaussian_packet(model.basis, sigma=1.0)
    w = model.basis.weight
    post, ln_c = solvers._reconstruct_raw(psi.amplitudes, model.channel_diagonals,
                                          np.array([1e6]), w)
    assert math.sqrt(w) * np.linalg.norm(post) == pytest.approx(1.0, abs=1e-9)
    assert np.isfinite(ln_c) and ln_c > 1e7


def test_reconstruct_posterior_validation():
    x_channel = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_x", lam=1.0)
    basis = Basis.finite(2)
    complex_diagonal = ModelSpec(
        Operator.zero(basis), (Operator.diagonal(basis, [1.0, 1.0j]),))
    for model in (x_channel, complex_diagonal):
        assert model.channel_diagonals is None
        with pytest.raises(UnsupportedConfigurationError):
            run_trajectory(model, _ket(1.0, 0.0), 1e-3, 10, 0, 0, scheme="gauge")
    # a zero state has no reconstruction: its ln c comes back non-finite, which the
    # kernel turns into a StepFailureError
    with np.errstate(divide="ignore", invalid="ignore"):
        _, ln_c = solvers._reconstruct_raw(np.zeros(2, dtype=complex),
                                           _dephasing().channel_diagonals, np.zeros(1), 1.0)
    assert not np.isfinite(ln_c)


def test_run_trajectory_validation():
    model = _dephasing()
    psi = _ket(1.0, 0.0)
    with pytest.raises(UnsupportedConfigurationError):
        run_trajectory(model, psi, 1e-3, 10, 0, 0, scheme="magic")
    with pytest.raises(ValueError):
        run_trajectory(model, psi, 0.0, 10, 0, 0)
    with pytest.raises(ValueError):
        run_trajectory(model, psi, 1e-3, 0, 0, 0)
    with pytest.raises(ValueError):
        run_trajectory(model, psi, 1e-3, 10, 0, 0, record_stride=0)
    with pytest.raises(NormalizationError):
        run_trajectory(model, _ket(1.0, 1.0), 1e-3, 10, 0, 0)
    with pytest.raises(ValueError):
        run_trajectory(model, psi, 1e-3, 10, -1, 0)

    noise = generate_noise(0, 0, 1e-3, 10, 1)
    record = MeasurementRecord(1e-3, noise.increments, np.cumsum(noise.increments, axis=0))
    with pytest.raises(ValueError, match="not both"):
        run_trajectory(model, psi, 1e-3, 10, 0, 0, noise=noise, record=record)
    with pytest.raises(BasisMismatchError):
        run_trajectory(model, psi, 1e-3, 12, 0, 0, record=record)
    wrong_dt = MeasurementRecord(2e-3, record.increments, record.cumulative)
    with pytest.raises(ValueError, match="different dt"):
        run_trajectory(model, psi, 1e-3, 10, 0, 0, record=wrong_dt)
    bad_obs = {"x": named_observable(build_grid_model(GridSpec(-5, 5, 16)), "x")}
    with pytest.raises(BasisMismatchError):
        run_trajectory(model, psi, 1e-3, 10, 0, 0, observables=bad_obs)


def test_step_failure_names_trajectory_step_and_scheme():
    # the gauge exponent differences overflow in the first step at lambda=1e4
    model = build_grid_model(GridSpec(-50.0, 50.0, 64), lam=1e4)
    packet = gaussian_packet(model.basis, x0=40.0, sigma=2.0)
    with pytest.raises(StepFailureError, match="gauge step 0 of trajectory 5") as info:
        run_trajectory(model, packet, 1e-3, 10, 0, 5, scheme="gauge")
    err = info.value
    assert (err.trajectory_index, err.step_index, err.scheme) == (5, 0, "gauge")


def test_degenerate_reconstruction_names_trajectory_step_and_scheme():
    # dY = -200 tilts exp(L.Y) by e^-3600 across the grid, away from the
    # packet, so the reconstructed posterior underflows to zero
    model = build_grid_model(GridSpec(-10.0, 10.0, 64), lam=1.0)
    packet = gaussian_packet(model.basis, x0=8.0, sigma=0.1)
    increments = np.zeros((5, 1))
    increments[0, 0] = -200.0
    record = MeasurementRecord(1e-3, increments, np.cumsum(increments, axis=0))
    with pytest.raises(StepFailureError,
                       match="gauge reconstruction at step 1 of trajectory 7") as info:
        run_trajectory(model, packet, 1e-3, 5, 0, 7, scheme="gauge", record=record)
    err = info.value
    assert (err.trajectory_index, err.step_index, err.scheme) == (7, 1, "gauge")


def test_snapshot_grid_includes_final_step():
    model = _dephasing()
    result = run_trajectory(model, _ket(1.0, 0.0), 1e-3, 20, 3, 0, record_stride=7)
    assert np.array_equal(result.snapshot_steps, [0, 7, 14, 20])
    assert np.allclose(result.times, [0.0, 0.007, 0.014, 0.020])
    assert len(result.states) == 4
    sparse = run_trajectory(model, _ket(1.0, 0.0), 1e-3, 20, 3, 0, record_stride=50)
    assert np.array_equal(sparse.snapshot_steps, [0, 20])
    assert result.state_at(0.014) is result.states[2]
    with pytest.raises(ValueError):
        result.index_of_time(0.005)


def test_trajectory_states_stay_normalized():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    obs = {"sigma_z": named_observable(model, "sigma_z")}
    result = run_trajectory(model, _ket(1.0, 0.0), 1e-3, 200, 12, 0,
                            observables=obs, record_stride=10)
    for s in result.states:
        assert abs(s.norm() - 1.0) < 1e-9
    assert np.all(np.isfinite(result.log_amplitude))
    assert np.all(np.isfinite(result.log_norm))
    # record-driven amplitude and realized norm growth coincide step by step here
    assert np.array_equal(result.log_amplitude, result.log_norm)
    assert np.all(np.abs(result.expectations["sigma_z"].imag) < 1e-12)


def test_replay_reproduces_the_run_bitwise():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    first = run_trajectory(model, _ket(1.0, 0.0), 1e-3, 300, 77, 0)
    again = run_trajectory(model, _ket(1.0, 0.0), 1e-3, 300, 77, 0, record=first.record)
    assert np.array_equal(first.states[-1].amplitudes, again.states[-1].amplitudes)
    assert np.array_equal(first.step_norms, again.step_norms)
    assert np.array_equal(first.log_norm, again.log_norm)
    # the innovation recovered from the record is the original noise
    assert np.allclose(again.noise.increments, first.noise.increments, atol=1e-15)


_qubit_fields = st.tuples(*[st.floats(-2.0, 2.0)] * 3)
_qubit_channels = st.sampled_from(["sigma_x", "sigma_y", "sigma_z"])


def _qubit_state(theta, phase):
    return _ket(math.cos(theta), complex(math.cos(phase), math.sin(phase)) * math.sin(theta))


@settings(max_examples=40, deadline=None)
@given(field=_qubit_fields, channel=_qubit_channels, lam=st.floats(0.0, 2.0),
       theta=st.floats(0.0, math.pi), phase=st.floats(0.0, 2.0 * math.pi),
       seed=st.integers(0, 2**32 - 1))
def test_nonlinear_and_linear_replays_are_bit_identical(field, channel, lam, theta, phase,
                                                        seed):
    model = build_qubit_model(field, channel=channel, lam=lam)
    psi = _qubit_state(theta, phase)
    first = run_trajectory(model, psi, 1e-3, 60, seed, 0, record_stride=7)
    nl = run_trajectory(model, psi, 1e-3, 60, seed, 0, scheme="nonlinear",
                        record_stride=7, record=first.record)
    lin = run_trajectory(model, psi, 1e-3, 60, seed, 0, scheme="linear",
                         record_stride=7, record=first.record)
    for other in (nl, lin):
        assert np.array_equal(other.log_norm, first.log_norm)
        for a, b in zip(other.states, first.states):
            assert np.array_equal(a.amplitudes, b.amplitudes)


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from(solvers.SCHEMES), field=_qubit_fields,
       channel=_qubit_channels, lam=st.floats(0.0, 2.0), theta=st.floats(0.0, math.pi),
       phase=st.floats(0.0, 2.0 * math.pi), dt=st.floats(1e-4, 2e-3),
       seed=st.integers(0, 2**32 - 1))
def test_every_stored_state_has_unit_norm(scheme, field, channel, lam, theta, phase, dt,
                                          seed):
    if scheme == "gauge":
        channel = "sigma_z"  # the gauge form needs a diagonal channel
    model = build_qubit_model(field, channel=channel, lam=lam)
    r = run_trajectory(model, _qubit_state(theta, phase), dt, 40, seed, 0, scheme=scheme)
    assert len(r.states) == 41
    for state in r.states:
        assert abs(state.norm() - 1.0) <= 1e-12
    assert np.all(np.isfinite(r.step_norms)) and np.all(r.step_norms > 0.0)


_RECONSTRUCTION_GRID = build_grid_model(GridSpec(-8.0, 8.0, 64), lam=1.0)


@settings(max_examples=100, deadline=None)
@given(y=st.floats(-1e6, 1e6), x0=st.floats(-4.0, 4.0), sigma=st.floats(0.5, 2.0))
def test_gauge_reconstruction_is_overflow_safe(y, x0, sigma):
    model = _RECONSTRUCTION_GRID
    psi = gaussian_packet(model.basis, x0=x0, sigma=sigma)
    w = model.basis.weight
    post, ln_c = solvers._reconstruct_raw(psi.amplitudes, model.channel_diagonals,
                                          np.array([y]), w)
    assert np.all(np.isfinite(post))
    assert abs(math.sqrt(w) * np.linalg.norm(post) - 1.0) <= 1e-12
    assert math.isfinite(ln_c)


def test_prenorm_log_matches_ito_expansion_under_refinement():
    """RMS of the per-step gap ln(prenorm) - (a dY - a^2 dt) halves with dt."""
    model = _dephasing()
    psi = _ket(0.6, 0.8)

    def gap_rms(noise_obj):
        n = noise_obj.n_steps
        dt = noise_obj.dt
        r = run_trajectory(model, psi, dt, n, noise_obj.master_seed, 0,
                           noise=noise_obj, record_stride=1)
        amps = np.array([s.amplitudes for s in r.states[:-1]])
        sz = (np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, 1]) ** 2).real
        a = math.sqrt(2.0) * sz
        dy = r.record.increments[:, 0]
        gap = np.log(r.step_norms) - (a * dy - a * a * dt)
        return math.sqrt(float(np.mean(gap**2)))

    for seed in (3, 7, 12):
        fine = generate_noise(seed, 0, 5e-4, 1000, 1)
        coarse = coarsen_noise(fine, 2)
        ratio = gap_rms(fine) / gap_rms(coarse)
        assert 0.35 < ratio < 0.65, f"seed {seed}: gap rms ratio {ratio:.4f}"


def test_record_mean_drift_tracks_position():
    """Observed free packet at x0: E[Y_T] ~ 2 sqrt(2 lam) x0 T over many seeds."""
    grid = GridSpec(-12.0, 12.0, 96)
    model = build_grid_model(grid, lam=1.0)
    psi = gaussian_packet(model.basis, x0=1.5, sigma=1.0)
    dt = 1e-3
    n = 10
    finals = []
    for idx in range(400):
        r = run_trajectory(model, psi, dt, n, 99, idx, record_stride=n)
        finals.append(r.record.cumulative[-1, 0])
    finals = np.asarray(finals)
    target = 2.0 * math.sqrt(2.0) * 1.5 * (n * dt)
    se = finals.std(ddof=1) / math.sqrt(finals.size)
    assert abs(finals.mean() - target) <= 3.0 * se, (
        f"record drift {finals.mean():.5f} vs {target:.5f} (3se {3 * se:.5f})"
    )


@pytest.mark.parametrize("threads", ["1", "2"])
def test_boundary_contact_warns(monkeypatch, threads):
    """A packet that reaches the grid wall warns once per trajectory, run
    alone or in an ensemble of several batches, where every warning is
    emitted in this process, in trajectory order, for any worker count."""
    grid = GridSpec(-4.0, 4.0, 64)
    model = build_grid_model(grid, lam=0.5)
    psi = gaussian_packet(model.basis, x0=0.0, p0=3.0, sigma=0.7)
    dt, n, stride = 1e-3, 1500, 100

    def warned(run) -> list[str]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return [str(w.message) for w in caught if w.category is RuntimeWarning]

    alone = [warned(lambda: run_trajectory(model, psi, dt, n, 1, i, record_stride=stride))
             for i in range(6)]
    assert all(len(w) == 1 and w[0].endswith("widen the grid") for w in alone)
    alone = sum(alone, [])
    assert len(set(alone)) == 6  # distinct, so the order shows
    monkeypatch.setenv("QFILTER_THREADS", threads)
    row_bytes = solvers._row_bytes(model.dim, n // stride + 1, n, 1)
    monkeypatch.setattr(solvers, "_BATCH_BYTES", 2 * row_bytes)
    assert len(solvers._batch_bounds(6, model.dim, row_bytes, int(threads))) == 3
    assert warned(lambda: run_ensemble(model, psi, dt, n, 1, 6, record_stride=stride)) == alone


def test_unobserved_trajectory_matches_closed_evolution():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=0.0)
    psi = _ket(1.0, 0.0)
    obs = {"sigma_z": named_observable(model, "sigma_z")}
    result = run_trajectory(model, psi, 1e-4, 2000, 4, 0,
                            observables=obs, record_stride=100)
    for i, t in enumerate(result.times):
        exact = expectation(solve_unitary(model, psi, float(t)),
                            obs["sigma_z"]).real
        diff = abs(result.expectations["sigma_z"][i].real - exact)
        assert diff < 1e-6, f"t={t}: closed-system mismatch {diff:.2e}"
    final_exact = solve_unitary(model, psi, 0.2)
    assert qf.fidelity(result.states[-1], final_exact) > 1.0 - 1e-9


def test_long_dephasing_run_collapses_to_a_basis_state():
    model = _dephasing()
    result = run_trajectory(model, _ket(0.6, 0.8), 1e-3, 5000, 21, 0,
                            record_stride=500)
    final = result.states[-1]
    weights = np.abs(final.amplitudes) ** 2
    assert min(math.sqrt(1.0 - weights[0]), math.sqrt(1.0 - weights[1])) <= 0.01


def test_ensemble_worker_count_is_invisible(monkeypatch):
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    psi = _ket(1.0, 0.0)
    obs = {"sigma_z": named_observable(model, "sigma_z")}
    monkeypatch.setenv("QFILTER_THREADS", "1")
    serial = run_ensemble(model, psi, 1e-3, 200, 5, 4, observables=obs, record_stride=20)
    monkeypatch.setenv("QFILTER_THREADS", "2")
    pooled = run_ensemble(model, psi, 1e-3, 200, 5, 4, observables=obs, record_stride=20)
    assert len(serial) == len(pooled) == 4
    for name in ("states", "log_amplitude", "log_norm", "step_norms", "record"):
        assert np.array_equal(getattr(serial, name), getattr(pooled, name)), name
    assert np.array_equal(serial.expectations["sigma_z"], pooled.expectations["sigma_z"])
    assert pooled.innovations is None
    assert pooled.model is model and pooled.initial is psi


def test_ensemble_slim_and_offset_indices():
    model = _dephasing()
    psi = _ket(1.0, 0.0)
    slim = run_ensemble(model, psi, 1e-3, 50, 5, 2, slim=True)
    assert [r.trajectory_index for r in slim] == [0, 1]
    assert slim[1].record is None and slim[1].noise is None
    assert slim[1].step_norms is None
    direct = run_trajectory(model, psi, 1e-3, 50, 5, 1)
    assert np.array_equal(slim[1].states[-1].amplitudes,
                          direct.states[-1].amplitudes)
    with pytest.raises(ValueError):
        run_ensemble(model, psi, 1e-3, 50, 5, 0)


def _structured_model(structure, rng):
    """A 4-level model with a tridiagonal H and one channel of the given structure."""
    basis = Basis.finite(4)
    h = np.diag(rng.standard_normal(4)).astype(complex)
    off = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h += np.diag(off, 1) + np.diag(off.conj(), -1)
    if structure == "diagonal":
        lmat = np.diag(rng.standard_normal(4))
    else:
        lmat = 0.5 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        if structure == "tridiagonal":
            lmat = np.triu(np.tril(lmat, 1), -1)
    model = ModelSpec(Operator(basis, h), (Operator(basis, lmat),))
    assert model.channels[0].structure == structure
    return model


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from(solvers.SCHEMES),
       structure=st.sampled_from(["diagonal", "tridiagonal", "dense"]),
       replay=st.booleans(), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_batched_rows_are_bit_identical_to_single_runs(scheme, structure, replay, rows, seed):
    """Every row of one kernel call over `rows` trajectories carries the bits
    of `run_trajectory` on that trajectory alone, driven by its own noise or
    replaying its own record."""
    if scheme == "gauge":
        structure = "diagonal"  # the gauge form needs diagonal hermitian channels
    rng = np.random.default_rng(seed)
    model = _structured_model(structure, rng)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = StateVector(model.basis, amps / np.linalg.norm(amps))
    obs = {"h": model.hamiltonian}
    dt, n, stride = 1e-3, 30, 7
    singles = [run_trajectory(model, psi, dt, n, seed, i, scheme=scheme, observables=obs,
                              record_stride=stride) for i in range(rows)]
    if replay:
        table = np.stack([r.record.increments for r in singles])
        singles = [run_trajectory(model, psi, dt, n, seed, i, scheme=scheme, observables=obs,
                                  record_stride=stride, record=r.record)
                   for i, r in enumerate(singles)]
    else:
        table = np.stack([r.noise.increments for r in singles])
    run = solvers._prepare(model, psi, scheme, dt, n, stride, obs, seed)
    batch = solvers._allocate(run, 0, rows, ("step_norms", "record", "innovations"))
    failure = solvers._run_batch(run, batch, 0, rows, table, replay)
    assert not (failure >= 0).any()
    for i, single in enumerate(singles):
        assert np.array_equal(batch.states[i], single.states.amplitudes)
        assert np.array_equal(batch.expectations["h"][i], single.expectations["h"])
        assert np.array_equal(batch.log_norm[i], single.log_norm)
        assert np.array_equal(batch.log_amplitude[i], single.log_amplitude)
        assert np.array_equal(batch.step_norms[i], single.step_norms)
        assert np.array_equal(batch.record[i], single.record.increments)
        assert np.array_equal(batch.innovations[i], single.noise.increments)


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_rows_are_views_of_its_arrays(monkeypatch, workers):
    """Across several batches and worker counts, row i of a result is a view
    of its arrays with the bits of trajectory i run alone, and iteration
    yields the rows in trajectory order."""
    monkeypatch.setenv("QFILTER_THREADS", str(workers))
    model = build_grid_model(GridSpec(-10.0, 10.0, 32), lam=1.0)
    psi = gaussian_packet(model.basis, x0=1.0)
    obs = {"x": named_observable(model, "x")}
    dt, n, stride = 1e-3, 12, 5
    monkeypatch.setattr(solvers, "_BATCH_BYTES", 3 * solvers._row_bytes(model.dim, 4, n, 1))
    assert len(solvers._batch_bounds(10, model.dim, solvers._row_bytes(model.dim, 4, n, 1),
                                     workers)) >= 3
    result = run_ensemble(model, psi, dt, n, 4, 10, scheme="gauge", observables=obs,
                          record_stride=stride)
    assert [r.trajectory_index for r in result] == list(range(10))
    for i in range(len(result)):
        row = result[i]
        single = run_trajectory(model, psi, dt, n, 4, i, scheme="gauge", observables=obs,
                                record_stride=stride)
        for got, arrays in ((row.states.amplitudes, result.states),
                            (row.expectations["x"], result.expectations["x"]),
                            (row.log_amplitude, result.log_amplitude),
                            (row.log_norm, result.log_norm),
                            (row.step_norms, result.step_norms)):
            assert np.shares_memory(got, arrays)
        assert np.array_equal(row.states.amplitudes, single.states.amplitudes)
        assert np.array_equal(row.expectations["x"], single.expectations["x"])
        assert np.array_equal(row.log_amplitude, single.log_amplitude)
        assert np.array_equal(row.log_norm, single.log_norm)
        assert np.array_equal(row.step_norms, single.step_norms)
        assert np.array_equal(row.record.increments, single.record.increments)
        assert np.array_equal(row.record.cumulative, single.record.cumulative)
        assert row.noise is None


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two worker processes")
def test_pooled_run_leaves_no_batch_in_the_parent(monkeypatch):
    """Two workers write four batches of 64 README-qubit trajectories into
    the result's shared arrays and send back only failure codes, so this
    process never holds a batch: its traced peak stays below the bytes of
    one batch, a quarter of the result's arrays."""
    monkeypatch.setenv("QFILTER_THREADS", "2")
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    psi = _ket(1.0, 0.0)
    obs = {"sigma_z": named_observable(model, "sigma_z")}
    dt, n, stride = 1e-3, 1000, 10
    row_bytes = solvers._row_bytes(model.dim, n // stride + 1, n, 1)
    monkeypatch.setattr(solvers, "_BATCH_BYTES", 64 * row_bytes)
    assert len(solvers._batch_bounds(256, model.dim, row_bytes, 2)) == 4
    run_ensemble(model, psi, dt, 1, 0, 2)  # the pool's modules load untraced
    tracemalloc.start()
    try:
        result = run_ensemble(model, psi, dt, n, 0, 256, observables=obs, record_stride=stride)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = (result.states, result.log_amplitude, result.log_norm, result.step_norms,
              result.record, *result.expectations.values())
    batch = sum(a.nbytes for a in arrays) / 4
    assert peak < batch, f"the parent peaked at {peak} bytes; one batch holds {batch:.0f}"


@pytest.mark.parametrize("rows", [1, 7, 256])
@pytest.mark.parametrize("workers", [1, 2])
def test_batch_failure_names_the_lowest_failing_trajectory(monkeypatch, rows, workers):
    """Trajectory 9 fails at step 1, trajectory 7 only at step 3: a serial
    run stops at 7 first, and so does every batch size and worker count."""
    monkeypatch.setenv("QFILTER_THREADS", str(workers))
    model = build_grid_model(GridSpec(-10.0, 10.0, 64), lam=1.0)
    packet = gaussian_packet(model.basis, x0=8.0, sigma=0.1)
    draw = solvers.generate_noise
    kicks = {7: 2, 9: 0}  # trajectory -> step whose dW tilts exp(L.Y) by e^-3600

    def noise(master_seed, index, dt, n_steps, n_channels=1):
        path = draw(master_seed, index, dt, n_steps, n_channels)
        if index not in kicks:
            return path
        inc = path.increments.copy()
        inc[kicks[index], 0] = -200.0
        return NoisePath(dt, inc, master_seed, index)

    monkeypatch.setattr(solvers, "generate_noise", noise)
    monkeypatch.setattr(solvers, "_BATCH_BYTES",
                        rows * solvers._row_bytes(model.dim, 6, 5, 1))
    with pytest.raises(StepFailureError) as info:
        run_ensemble(model, packet, 1e-3, 5, 0, 12, scheme="gauge")
    assert str(info.value) == ("gauge reconstruction at step 3 of trajectory 7 produced a "
                               "degenerate state")
    err = info.value
    assert (err.trajectory_index, err.step_index, err.scheme) == (7, 3, "gauge")


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("QFILTER_THREADS", raising=False)
    cpus = os.cpu_count() or 1
    assert resolve_workers(None, 1000) == min(cpus, 1000)
    assert resolve_workers(3, 2) == min(cpus, 3, 2)
    monkeypatch.setenv("QFILTER_THREADS", "2")
    assert resolve_workers(None, 8) == min(cpus, 2)
    monkeypatch.setenv("QFILTER_THREADS", "abc")
    with pytest.raises(ConfigError):
        resolve_workers(None, 8)
    monkeypatch.setenv("QFILTER_THREADS", "0")
    with pytest.raises(ConfigError):
        resolve_workers(None, 8)
    monkeypatch.delenv("QFILTER_THREADS")
    with pytest.raises(ValueError):
        resolve_workers(0, 8)


def test_master_solver_matches_unitary_conjugation():
    model = build_qubit_model((0.0, 0.0, 1.0), channel="sigma_z", lam=0.0)
    plus = _ket(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    rho0 = projector(plus)
    traj = solve_master(model, rho0, 1e-3, 1000, store_stride=100)
    exact = projector(solve_unitary(model, plus, 1.0))
    assert trace_distance(traj.density_at(1.0), exact) < 1e-8


def test_master_solver_dephasing_coherence_decay():
    model = _dephasing()
    plus = _ket(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    traj = solve_master(model, projector(plus), 1e-3, 500, store_stride=50)
    final = traj.density_at(0.5)
    # off-diagonal decays by exp(-4 lam t)
    assert abs(final.entries[0, 1].real - 0.06766764161830635) < 1e-6
    assert abs(final.entries[0, 1].imag) < 1e-12


def test_master_solver_keeps_diagonal_states_stationary():
    model = _dephasing()
    rho0 = DensityMatrix(B2, np.diag([0.3, 0.7]).astype(complex))
    traj = solve_master(model, rho0, 1e-3, 100)
    assert np.allclose(traj.matrices[-1], rho0.entries, atol=1e-12)


def test_master_solver_preserves_trace_and_hermiticity():
    model = build_qubit_model((0.5, 0.2, -0.4), channel="sigma_y", lam=0.7)
    traj = solve_master(model, projector(_ket(1.0, 0.0)), 1e-3, 400, store_stride=40)
    assert np.all(np.abs(traj.trace_series() - 1.0) < 1e-9)
    for k in range(traj.matrices.shape[0]):
        traj.density(k)  # constructor revalidates hermiticity and positivity


def test_master_solver_validation():
    model = _dephasing()
    rho0 = projector(_ket(1.0, 0.0))
    with pytest.raises(ValueError):
        solve_master(model, rho0, 0.0, 10)
    with pytest.raises(ValueError):
        solve_master(model, rho0, 1e-3, 0)
    with pytest.raises(ValueError):
        solve_master(model, rho0, 1e-3, 10, store_stride=0)
    basis3 = Basis.finite(3)
    e0 = StateVector(basis3, np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(BasisMismatchError):
        solve_master(model, projector(e0), 1e-3, 10)
    big = Basis.finite(600)
    zero = Operator.zero(big)
    big_model = ModelSpec(zero, (zero,))
    ident = DensityMatrix(big, np.eye(600, dtype=complex) / 600.0)
    with pytest.raises(OracleSizeError):
        solve_master(big_model, ident, 1e-3, 10)


def test_master_solver_flags_blowup():
    model = _dephasing()
    plus = _ket(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    # dt far outside the stability region; entries explode before step 50
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InstabilityError, match=r"at step \d+ \(t = \d+\); reduce dt") as err:
            solve_master(model, projector(plus), 1e3, 50)
    step, t = re.search(r"step (\d+) \(t = (\d+)\)", str(err.value)).groups()
    assert float(t) == (int(step) + 1) * 1e3


def _dense_master_rhs(model, r):
    """-(K r + r K^dag) + sum_j L_j r L_j^dag by dense products."""
    kmat = model.generator.matrix
    out = -(kmat @ r + r @ kmat.conj().T)
    for ch in model.channels:
        out = out + ch.matrix @ r @ ch.matrix.conj().T
    return out


def _dense_master_reference(model, rho0, dt, n_steps):
    """Every RK4 state of the averaged equation, built from dense products."""
    rho = rho0.entries.astype(complex)
    out = [rho]
    for _ in range(n_steps):
        k1 = _dense_master_rhs(model, rho)
        k2 = _dense_master_rhs(model, rho + (0.5 * dt) * k1)
        k3 = _dense_master_rhs(model, rho + (0.5 * dt) * k2)
        k4 = _dense_master_rhs(model, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(rho)
    return np.array(out)


def _banded_master_models():
    models = {}
    for n in (8, 16, 33):
        grid = GridSpec(-5.0, 5.0, n)
        models[f"harmonic{n}"] = build_grid_model(
            grid, GridPotential.harmonic(grid, omega=1.3), lam=0.7)
        models[f"barrier{n}"] = build_grid_model(
            grid, GridPotential.barrier(grid, height=4.0, width=2.0), lam=1.9)
    grid = GridSpec(-10.0, 10.0, 128)
    models["grid128"] = build_grid_model(grid, GridPotential.harmonic(grid, omega=1.0),
                                         lam=1.0)
    grid = GridSpec(-5.0, 5.0, 16)
    models["unobserved"] = build_grid_model(grid, GridPotential.harmonic(grid, omega=1.0),
                                            lam=0.0)
    basis = Basis.from_grid(grid)
    x = grid.points
    position = Operator.diagonal(basis, math.sqrt(2.0 * 0.4) * x)
    phase = Operator.diagonal(basis, 0.3 * np.exp(1j * x) + 0.1 * x**2)
    models["two_channels"] = ModelSpec(
        models["unobserved"].hamiltonian, (position, phase))
    models["qubit"] = build_qubit_model((0.5, 0.2, -0.4), channel="sigma_z", lam=0.7)
    models["qubit_diagonal_K"] = build_qubit_model((0.0, 0.0, 1.1), channel="sigma_z",
                                                   lam=0.3)
    return models


def _momentum_channel_model():
    grid = GridSpec(-5.0, 5.0, 16)
    basis = Basis.from_grid(grid)
    ham = build_grid_model(grid, GridPotential.harmonic(grid, omega=1.0)).hamiltonian
    channel = Operator(basis, math.sqrt(2.0 * 0.5) * momentum_operator(basis).matrix)
    return ModelSpec(ham, (channel,))


BANDED_MASTER_MODELS = _banded_master_models()
MOMENTUM_CHANNEL_MODEL = _momentum_channel_model()

# (stage builder, model): the banded builder on every banded structure, the
# dense builder on those and on a dense one
STAGE_CASES = ([("_banded_stage", name) for name in sorted(BANDED_MASTER_MODELS)]
               + [("_dense_stage", name) for name in sorted(BANDED_MASTER_MODELS)]
               + [("_dense_stage", "momentum_channel")])


def _stage_model(name):
    return MOMENTUM_CHANNEL_MODEL if name == "momentum_channel" else BANDED_MASTER_MODELS[name]


def _random_matrix(rng, n, scale):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(STAGE_CASES),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3),
       s=st.floats(1e-4, 1e1))
def test_master_stages_match_dense_products(case, seed, scale, s):
    """Each stage builder writes out = base + s * A(r), with A the dense
    definition, for any r and base, hermitian or not, and reads its inputs
    without changing them."""
    builder, name = case
    model = _stage_model(name)
    if builder == "_banded_stage":
        assert model.generator.structure in ("diagonal", "tridiagonal")
        assert all(ch.structure == "diagonal" for ch in model.channels)
    rng = np.random.default_rng(seed)
    n = model.dim
    r, base = _random_matrix(rng, n, scale), _random_matrix(rng, n, scale)
    r_in, base_in = r.copy(), base.copy()
    want = base + s * _dense_master_rhs(model, r)
    got = np.empty((n, n), dtype=complex)
    getattr(solvers, builder)(model.generator, model.channels)(got, base, s, r)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(r, r_in) and np.array_equal(base, base_in)


def _forbid(monkeypatch, stage_name):
    """Make solve_master fail if it picks the named stage builder."""
    def refuse(*args):
        raise AssertionError(f"solve_master picked {stage_name} for this model")

    monkeypatch.setattr(solvers, stage_name, refuse)


def _packet_density(model):
    if model.basis.grid is None:
        return projector(_ket(0.6, 0.8j))
    return projector(gaussian_packet(model.basis, x0=1.0, sigma=1.0))


@pytest.mark.parametrize("name", sorted(BANDED_MASTER_MODELS))
def test_master_solver_matches_dense_rk4(monkeypatch, name):
    """The Horner-form step is classic RK4 on every banded structure."""
    model = BANDED_MASTER_MODELS[name]
    rho0 = _packet_density(model)
    _forbid(monkeypatch, "_dense_stage")
    traj = solve_master(model, rho0, 1e-3, 50)
    want = _dense_master_reference(model, rho0, 1e-3, 50)
    assert np.abs(traj.matrices - want).max() <= 1e-12 * np.abs(want).max()


def test_master_solver_dense_fallback_for_a_momentum_channel(monkeypatch):
    model = MOMENTUM_CHANNEL_MODEL
    assert model.generator.structure == "dense"
    rho0 = projector(gaussian_packet(model.basis, x0=0.5, sigma=1.0))
    _forbid(monkeypatch, "_banded_stage")
    traj = solve_master(model, rho0, 1e-3, 40, store_stride=10)
    want = _dense_master_reference(model, rho0, 1e-3, 40)[::10]
    assert np.abs(traj.matrices - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", ["harmonic16", "barrier33", "grid128", "two_channels"])
def test_master_solver_bits_do_not_depend_on_the_row_block(monkeypatch, name):
    """Row blocks of n, 3n and the default number of entries give the same
    bits: every banded operation is elementwise."""
    model = BANDED_MASTER_MODELS[name]
    rho0 = _packet_density(model)
    n = model.dim
    runs = []
    for entries in (n, 3 * n, solvers._STEP_ENTRIES):
        monkeypatch.setattr(solvers, "_STEP_ENTRIES", entries)
        runs.append(solve_master(model, rho0, 1e-3, 20, store_stride=5).matrices)
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])


def test_master_solver_keeps_its_largest_trace_drift(tmp_path):
    """The largest per-step |trace - 1| repeats exactly across runs, stays
    below the step check's 1e-6, and is sealed in the master manifest."""
    model = BANDED_MASTER_MODELS["grid128"]
    rho0 = _packet_density(model)
    first = solve_master(model, rho0, 1e-3, 100, store_stride=50)
    second = solve_master(model, rho0, 1e-3, 100, store_stride=50)
    assert first.max_trace_drift == second.max_trace_drift
    assert 0.0 <= first.max_trace_drift < 1e-6
    manifests = []
    for k, traj in enumerate((first, second)):
        out = qf.write_master(tmp_path / f"run{k}", {}, traj)
        sealed = qf.load_manifest(out)["diagnostics"]
        assert sealed == {"max_trace_drift": first.max_trace_drift}
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_unitary_solver_qubit():
    still = build_qubit_model((0.0, 0.0, 0.0), lam=0.0)
    psi = _ket(0.6, 0.8)
    assert solve_unitary(still, psi, 0.0) is psi
    same = solve_unitary(still, psi, 0.5)
    assert np.allclose(same.amplitudes, psi.amplitudes, atol=1e-15)
    with pytest.raises(ValueError):
        solve_unitary(still, psi, -1.0)

    spinning = build_qubit_model((0.0, 0.0, 1.0), lam=0.0)
    plus = _ket(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    out = solve_unitary(spinning, plus, math.pi)
    expected = np.array([-1j, 1j]) / math.sqrt(2.0)
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_unitary_solver_free_packet_spread():
    grid = GridSpec(-20.0, 20.0, 256)
    model = build_grid_model(grid, lam=0.0)
    psi = gaussian_packet(model.basis, sigma=1.0)
    out = solve_unitary(model, psi, 2.0)
    out = out.normalized()
    x = named_observable(model, "x")
    x2 = named_observable(model, "x2")
    mean = expectation(out, x).real
    var = expectation(out, x2).real - mean**2
    assert abs(var - 2.0) / 2.0 < 0.02, f"free-spread variance {var:.4f}, want 2.0"


def test_unitary_solver_rejects_dense_grid_hamiltonian():
    grid = GridSpec(-5.0, 5.0, 16)
    basis = Basis.from_grid(grid)
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((16, 16))
    ham = Operator(basis, raw + raw.T)
    model = ModelSpec(ham, (Operator.zero(basis),))
    psi = gaussian_packet(basis, sigma=1.0)
    with pytest.raises(UnsupportedConfigurationError):
        solve_unitary(model, psi, 0.1)
