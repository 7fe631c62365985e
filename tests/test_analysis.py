"""Trajectory statistics: fidelities, ensemble checks, residuals, convergence."""

from __future__ import annotations

import math
import mmap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfilter as qf
from qfilter import (
    Basis,
    GridSpec,
    ModelSpec,
    Operator,
    StateVector,
    build_grid_model,
    build_qubit_model,
    collapse_statistics,
    ensemble_average,
    ensemble_vs_master,
    fidelity,
    filtering_residual,
    gaussian_packet,
    localization_metrics,
    named_observable,
    projector,
    pure_state_trace_distance,
    run_ensemble,
    run_trajectory,
    solve_master,
    strong_order_estimate,
    time_average,
    trace_distance,
    variance_series,
)
from qfilter import analysis, solvers
from qfilter.analysis import _filtering_residuals, _pure_overlap
from qfilter.errors import BasisMismatchError, UnsupportedConfigurationError
from qfilter.suites import _check

B2 = Basis.finite(2)


def _ket(c0, c1):
    return StateVector(B2, np.array([c0, c1], dtype=complex))


KET0 = _ket(1.0, 0.0)
KET1 = _ket(0.0, 1.0)
PLUS = _ket(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


def test_fidelity_basics():
    assert fidelity(KET0, KET0) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=1e-15)
    assert fidelity(KET0, PLUS) == pytest.approx(0.5, abs=1e-14)
    assert fidelity(KET0, PLUS) == pytest.approx(fidelity(PLUS, KET0), abs=1e-15)


def test_pure_trace_distance_consistency():
    rng = np.random.default_rng(19)
    for _ in range(5):
        a = StateVector(B2, rng.standard_normal(2) + 1j * rng.standard_normal(2)).normalized()
        b = StateVector(B2, rng.standard_normal(2) + 1j * rng.standard_normal(2)).normalized()
        d = pure_state_trace_distance(a, b)
        assert d == pytest.approx(math.sqrt(max(0.0, 1.0 - fidelity(a, b))), abs=1e-12)
        assert d == pytest.approx(trace_distance(projector(a), projector(b)), abs=1e-10)


@pytest.mark.parametrize("amps", [[math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]])
def test_pure_distance_of_a_non_finite_state_is_nan(amps):
    """A broken state must not read as distance 0, so a suite check fails it."""
    broken = StateVector(B2, np.array(amps, dtype=complex))
    assert math.isnan(pure_state_trace_distance(broken, KET0))
    assert math.isnan(pure_state_trace_distance(KET0, broken))
    assert not math.isfinite(fidelity(broken, KET0))
    assert not _check("d", pure_state_trace_distance(broken, KET0), None, 1e-2)["pass"]


def test_pure_overlap_rejects_mixed_bases():
    # same dimension, different basis: the arrays alone would broadcast
    on_grid = StateVector(Basis.from_grid(GridSpec(-1.0, 1.0, 2)), np.array([1.0, 0.0]))
    for measure in (fidelity, pure_state_trace_distance):
        with pytest.raises(BasisMismatchError):
            measure(KET0, on_grid)


def test_linear_and_nonlinear_schemes_share_the_factored_path():
    """Same record, same factored state: the two forms are one integrator."""
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    nl = run_trajectory(model, KET0, 1e-3, 300, 8, 0, scheme="nonlinear")
    lin = run_trajectory(model, KET0, 1e-3, 300, 8, 0, scheme="linear")
    assert np.array_equal(nl.states[-1].amplitudes, lin.states[-1].amplitudes)
    assert np.array_equal(nl.log_norm, lin.log_norm)


def test_amplitude_identity_exact_for_record_driven_schemes():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    for scheme in ("nonlinear", "linear"):
        traj = run_trajectory(model, KET0, 1e-3, 200, 6, 0, scheme=scheme,
                              record_stride=20)
        assert np.array_equal(traj.log_amplitude, traj.log_norm)


def test_amplitude_identity_small_for_gauge_scheme():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    traj = run_trajectory(model, KET0, 1e-3, 500, 2, 0, scheme="gauge",
                          record_stride=50)
    err = np.abs(np.exp(traj.log_amplitude - traj.log_norm) - 1.0).max()
    assert err < 0.05, f"gauge amplitude identity gap {err:.3e}"


def test_ensemble_average_at_time_zero():
    model = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    runs = run_ensemble(model, _ket(0.6, 0.8), 1e-3, 20, 4, 3)
    summary = ensemble_average(runs)
    assert summary.n_trajectories == 3
    rho0 = qf.DensityMatrix(B2, summary.mean_density[0])
    assert trace_distance(rho0, projector(_ket(0.6, 0.8))) < 1e-12


def test_ensemble_average_matches_the_outer_product_loop():
    # 256 points stack 64 trajectories per product, so 70 take two products
    model = build_grid_model(GridSpec(-10.0, 10.0, 256), lam=1.0)
    runs = run_ensemble(model, gaussian_packet(model.basis, x0=1.0), 1e-4, 20, 9, 70,
                        record_stride=10)
    summary = ensemble_average(runs)
    want = np.zeros_like(summary.mean_density)
    for r in runs:
        for i, st in enumerate(r.states):
            want[i] += np.outer(st.amplitudes, st.amplitudes.conj())
    want /= len(runs)
    assert np.abs(summary.mean_density - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_streamed_mean_has_the_bytes_of_the_collected_mean(monkeypatch, threads):
    """The mean folded from the block stream has the bytes of
    `ensemble_average` of the collected run when a block holds several
    batches, the ring wraps, and the ensemble ends inside a block."""
    monkeypatch.setenv("QFILTER_THREADS", threads)
    model = build_grid_model(GridSpec(-10.0, 10.0, 32), lam=1.0)
    psi = gaussian_packet(model.basis, x0=1.0)
    dt, n, stride, count, block = 1e-3, 12, 4, 20, 8
    monkeypatch.setattr(solvers, "_STEP_ENTRIES", block * model.dim)
    monkeypatch.setattr(solvers, "_SERIES_ENTRIES", 3 * (n + 1))
    bounds = solvers._batch_bounds(count, model.dim, n, 1, int(threads))
    assert solvers._block_rows(model.dim) == block
    assert sum(hi <= block for _, hi in bounds) > 1
    collected = ensemble_average(run_ensemble(model, psi, dt, n, 3, count, scheme="gauge",
                                              record_stride=stride, slim=True))
    views = []

    def kept(blocks):
        for view in blocks:
            views.append(view)
            yield view

    streamed = ensemble_average(kept(solvers._ensemble_stream(
        model, psi, dt, n, 3, count, scheme="gauge", record_stride=stride)))
    assert [(v.first_index, len(v)) for v in views] == [(0, 8), (8, 8), (16, 4)]
    assert any(np.shares_memory(views[0].states, v.states) for v in views[1:])  # the ring wraps
    assert streamed.n_trajectories == count
    assert streamed.times.tobytes() == collected.times.tobytes()
    assert streamed.mean_density.tobytes() == collected.mean_density.tobytes()


def _mapped_peak(monkeypatch, run) -> int:
    """Traced peak bytes of run() plus the shared mappings it makes, which
    tracemalloc does not trace."""
    mapped = []
    real = mmap.mmap

    def counted(*args, **kwargs):
        region = real(*args, **kwargs)
        mapped.append(len(region))
        return region

    with monkeypatch.context() as patch:
        patch.setattr(mmap, "mmap", counted)
        tracemalloc.start()
        try:
            run()
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return traced + sum(mapped)


def test_streamed_mean_shorter_than_a_block_copies_only_its_rows(monkeypatch):
    """A stream of fewer trajectories than one block peaks no higher than
    the collected mean plus the bytes of its states: its ring holds the
    rows of the ensemble, not a whole block."""
    monkeypatch.setenv("QFILTER_THREADS", "1")
    model = build_grid_model(GridSpec(-10.0, 10.0, 32), lam=1.0)
    psi = gaussian_packet(model.basis, x0=1.0)
    dt, n, stride, count = 1e-3, 50, 5, 16
    assert count < solvers._block_rows(model.dim)
    args = (model, psi, dt, n, 0, count)

    def collected():
        return ensemble_average(run_ensemble(*args, record_stride=stride, slim=True))

    def streamed():
        return ensemble_average(solvers._ensemble_stream(*args, record_stride=stride))

    streamed()  # lazy imports load untraced
    states = count * (n // stride + 1) * model.dim * 16
    want = _mapped_peak(monkeypatch, collected)
    got = _mapped_peak(monkeypatch, streamed)
    assert got <= want + states, f"streamed {got} bytes, collected {want} + states {states}"


def test_streamed_mean_holds_as_much_for_any_ensemble_size(monkeypatch):
    """With one worker, the streamed mean of 512 trajectories peaks within
    one block's bytes of the mean of 64: it holds the ring's slots, one
    batch's workspace, the mean and a block buffer, none of which grows
    with N. The peak counts what tracemalloc traces and the shared mappings
    the run makes, which it does not trace; the collected run's states
    would add 11.7 MB."""
    monkeypatch.setenv("QFILTER_THREADS", "1")
    model = build_grid_model(GridSpec(-10.0, 10.0, 32), lam=1.0)
    psi = gaussian_packet(model.basis, x0=1.0)
    dt, n, rows = 1e-3, 50, 16
    monkeypatch.setattr(solvers, "_STEP_ENTRIES", rows * model.dim)  # 16-row batches and blocks

    def peak(count: int) -> int:
        return _mapped_peak(monkeypatch, lambda: ensemble_average(
            solvers._ensemble_stream(model, psi, dt, n, 0, count)))

    peak(1)  # lazy imports load untraced
    block = rows * (n + 1) * model.dim * 16
    small, large = peak(64), peak(512)
    assert large - small < block, f"64 trajectories peaked at {small} bytes, 512 at {large}"


def test_blas_guard_pins_one_thread_and_restores_the_count():
    """Inside the guard numpy's OpenBLAS runs one thread; after it, the
    count it had, also when the body raises."""
    lib = analysis._openblas()
    if lib is None:
        pytest.skip("numpy loaded no OpenBLAS exporting the ILP64 thread-count symbols")
    get, put = lib
    start = get()
    put(2)
    try:
        before = get()
        with analysis._one_blas_thread():
            assert get() == 1
        assert get() == before
        with pytest.raises(KeyError):
            with analysis._one_blas_thread():
                assert get() == 1
                raise KeyError("body")
        assert get() == before
    finally:
        put(start)


def test_ensemble_mean_tracks_averaged_equation():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    runs = run_ensemble(model, KET0, 1e-3, 500, 13, 200, record_stride=50, slim=True)
    master = solve_master(model, projector(KET0), 1e-3, 500, store_stride=50)
    report = ensemble_vs_master(runs, master)
    assert report.times.size == 11
    assert report.max_distance == pytest.approx(report.trace_distances.max())
    assert report.max_distance <= 0.05, (
        f"200-run mean strays {report.max_distance:.4f} from the averaged equation"
    )


def test_ensemble_vs_master_basis_mismatch():
    model = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    runs = run_ensemble(model, KET0, 1e-3, 10, 4, 2)
    grid_model = build_grid_model(GridSpec(-10.0, 10.0, 16), lam=1.0)
    rho0 = projector(gaussian_packet(grid_model.basis))
    master = solve_master(grid_model, rho0, 1e-3, 10)
    with pytest.raises(BasisMismatchError):
        ensemble_vs_master(runs, master)


def test_collapse_statistics_symmetric_superposition():
    model = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    runs = run_ensemble(model, PLUS, 1e-3, 5000, 42, 300, record_stride=100, slim=True)
    sz = named_observable(model, "sigma_z")
    report = collapse_statistics(runs, sz)
    assert np.allclose(report.eigenvalues, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(report.born_probabilities, [0.5, 0.5], atol=1e-12)
    assert report.n_trajectories == 300
    assert report.unresolved_fraction == 0.0
    assert int(report.counts.sum()) == 300
    bound = 3.0 * math.sqrt(0.25 / 300)
    for freq in report.frequencies:
        assert abs(freq - 0.5) <= bound, f"outcome frequency {freq:.3f} off Born weight"
    assert report.chi_square_p > 1e-3
    assert report.expectation_initial == pytest.approx(0.0, abs=1e-12)
    drift = abs(report.expectation_final_mean - report.expectation_initial)
    assert drift <= 3.0 * report.expectation_final_se


def test_collapse_statistics_before_collapse_completes():
    model = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    runs = run_ensemble(model, PLUS, 1e-3, 200, 42, 60, record_stride=50, slim=True)
    report = collapse_statistics(runs, named_observable(model, "sigma_z"))
    assert report.unresolved_fraction > 0.5


def test_collapse_statistics_validation():
    model = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    runs = run_ensemble(model, PLUS, 1e-3, 10, 4, 2)
    with pytest.raises(UnsupportedConfigurationError, match="degenerate"):
        collapse_statistics(runs, named_observable(model, "identity"))
    raiser = Operator(B2, [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(UnsupportedConfigurationError, match="hermitian"):
        collapse_statistics(runs, raiser)
    with pytest.raises(ValueError):
        collapse_statistics([], named_observable(model, "sigma_z"))
    grid_model = build_grid_model(GridSpec(-10.0, 10.0, 16), lam=1.0)
    with pytest.raises(BasisMismatchError):
        collapse_statistics(runs, named_observable(grid_model, "x"))


def test_collapse_statistics_accepts_a_constructed_hermitian_observable():
    sz = Operator(B2, qf.SIGMA_Z)
    assert sz.is_hermitian
    model = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    runs = run_ensemble(model, PLUS, 1e-3, 10, 4, 2)
    report = collapse_statistics(runs, sz)
    assert np.allclose(report.eigenvalues, [-1.0, 1.0], atol=1e-12)


def _collapse_by_loop(results, observable, threshold):
    """Counts, unresolved count and final expectations, one state at a time."""
    w = observable.basis.weight
    vals, vecs = np.linalg.eigh(observable.matrix)
    counts = np.zeros(vals.size, dtype=int)
    unresolved = 0
    finals = []
    for r in results:
        phi = r.states[-1].amplitudes
        ov = np.abs(w * (vecs.conj().T @ phi)) ** 2 / w
        best = int(np.argmax(ov))
        if ov[best] >= 1.0 - threshold * threshold:
            counts[best] += 1
        else:
            unresolved += 1
        finals.append((w * np.vdot(phi, observable.apply(phi))).real)
    return counts, unresolved, np.array(finals)


def test_collapse_statistics_matches_the_per_state_loop():
    """The one-product classification agrees with a per-state loop on a grid
    (weight dx != 1) for final states near an eigenvector and far from any."""
    grid = GridSpec(-8.0, 8.0, 32)
    model = build_grid_model(grid, lam=1.0)
    basis = model.basis
    w = basis.weight
    obs = Operator(basis, named_observable(model, "x").matrix
                   + 0.3 * qf.momentum_operator(basis).matrix)
    runs = run_ensemble(model, gaussian_packet(basis, sigma=1.0), 1e-3, 4, 11, 60,
                        record_stride=2)
    _, vecs = np.linalg.eigh(obs.matrix)
    rng = np.random.default_rng(5)
    finals = []
    for i in range(len(runs)):
        noise = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        if i % 3:
            amp = vecs[:, rng.integers(basis.dim)] + 10.0 ** rng.uniform(-6, -1) * noise
        else:
            amp = noise
        finals.append(amp / np.sqrt(w * np.vdot(amp, amp).real))
    runs.states[:, -1] = finals
    for threshold in (0.01, 0.05):
        report = collapse_statistics(runs, obs, threshold=threshold)
        counts, unresolved, z = _collapse_by_loop(runs, obs, threshold)
        assert 0 < unresolved < len(runs) and counts.sum() > 0
        assert np.array_equal(report.counts, counts)
        assert report.n_unresolved == unresolved
        assert report.expectation_final_mean == pytest.approx(z.mean(), rel=1e-12, abs=1e-14)


def test_variance_series_and_time_average():
    model = build_grid_model(GridSpec(-10.0, 10.0, 64), lam=0.0)
    obs = {k: named_observable(model, k) for k in ("x", "x2")}
    traj = run_trajectory(model, gaussian_packet(model.basis, sigma=1.0),
                          1e-3, 100, 3, 0, observables=obs, record_stride=10)
    var = variance_series(traj)
    assert var.shape == traj.times.shape
    assert np.all(var > 0.0)
    with pytest.raises(ValueError, match="did not store"):
        variance_series(traj, mean_name="p", square_name="x2")

    times = np.linspace(0.0, 1.0, 11)
    series = 2.0 * times
    assert time_average(series, times, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        time_average(series, times, 0.8, 0.2)
    with pytest.raises(ValueError):
        time_average(series, times, 0.31, 0.39)


def test_localization_metrics():
    model = build_grid_model(GridSpec(-10.0, 10.0, 64), lam=0.0)
    obs = {k: named_observable(model, k) for k in ("x", "x2", "p")}
    traj = run_trajectory(model, gaussian_packet(model.basis, sigma=1.0, p0=0.5),
                          1e-3, 100, 3, 0, observables=obs, record_stride=10)
    series = localization_metrics(traj)
    assert series.times.shape == series.mean_x.shape == series.var_x.shape
    assert np.allclose(series.var_x, variance_series(traj), atol=1e-15)
    assert series.mean_p[0] == pytest.approx(0.5, abs=1e-2)

    qubit = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    qrun = run_trajectory(qubit, KET0, 1e-3, 10, 3, 0)
    with pytest.raises(UnsupportedConfigurationError):
        localization_metrics(qrun)
    partial = run_trajectory(model, gaussian_packet(model.basis), 1e-3, 10, 3, 0,
                             observables={"x": obs["x"], "x2": obs["x2"]})
    with pytest.raises(ValueError, match="did not store"):
        localization_metrics(partial)


def test_filtering_residual_closed_static_case_is_exact():
    model = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=0.0)
    traj = run_trajectory(model, _ket(0.6, 0.8), 1e-3, 100, 9, 0, record_stride=1)
    report = filtering_residual(traj, named_observable(model, "sigma_z"))
    assert report.max_abs == 0.0


def test_filtering_residual_closed_dynamic_case_is_second_order():
    # no observation noise: the residual is pure integrator bias, O(dt^2) per step
    model = build_qubit_model((2.0, 0.0, 0.0), channel="sigma_z", lam=0.0)
    sz = named_observable(model, "sigma_z")
    coarse = run_trajectory(model, KET0, 1e-3, 200, 11, 0, record_stride=1)
    fine = run_trajectory(model, KET0, 5e-4, 400, 11, 0, record_stride=1)
    ratio = filtering_residual(fine, sz).rms / filtering_residual(coarse, sz).rms
    assert 0.2 < ratio < 0.3, f"halving dt gave residual ratio {ratio:.4f}, want ~0.25"


def test_filtering_residual_observed_case():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    sz = named_observable(model, "sigma_z")
    traj = run_trajectory(model, KET0, 1e-4, 10000, 5, 0, record_stride=1)
    report = filtering_residual(traj, sz)
    assert report.rms <= 1e-5, f"residual rms {report.rms:.3e} above 10*dt^1.5"
    assert abs(report.mean) <= 3.0 * report.rms / math.sqrt(report.n_steps)
    raw = filtering_residual(traj, sz, include_quadratic_correction=False)
    assert raw.rms > 5.0 * report.rms, (
        f"quadratic correction only bought a factor {raw.rms / report.rms:.1f}"
    )


def _reference_residuals(traj, observable, include_quadratic_correction=True):
    """The residual of `filtering_residual`, one scalar step at a time: a
    term-by-term transcription of its docstring's formula."""
    model = traj.model
    w = model.basis.weight
    dt = traj.dt
    dw = traj.noise.increments
    channels = model.channels
    n = traj.n_steps
    res = np.empty(n)
    for k in range(n + 1):
        phi = traj.states.amplitudes[k]
        ophi = observable.apply(phi)
        z = (w * np.vdot(phi, ophi)).real
        if k > 0:
            res[k - 1] += z  # completes dz for step k-1
        if k == n:
            break
        hphi = model.hamiltonian.apply(phi)
        drift = -(2.0 / model.hbar) * (w * np.vdot(hphi, ophi)).imag
        noise_part = 0.0
        lphis, olphis, avals, svals = [], [], [], []
        for j, ch in enumerate(channels):
            lphi = ch.apply(phi)
            olphi = observable.apply(lphi)
            drift += (w * np.vdot(lphi, olphi)).real
            drift -= (w * np.vdot(lphi, ch.apply(ophi))).real
            a_j = (w * np.vdot(phi, lphi)).real
            s_j = 2.0 * (w * np.vdot(ophi, lphi)).real - 2.0 * z * a_j
            noise_part += s_j * dw[k, j]
            lphis.append(lphi)
            olphis.append(olphi)
            avals.append(a_j)
            svals.append(s_j)
        quad = 0.0
        if include_quadratic_correction:
            for i in range(len(channels)):
                for j in range(len(channels)):
                    c_ij = (w * np.vdot(lphis[i], olphis[j])).real
                    c_ij -= z * (w * np.vdot(lphis[i], lphis[j])).real
                    c_ij -= avals[i] * svals[j] + avals[j] * svals[i]
                    prod = dw[k, i] * dw[k, j] - (dt if i == j else 0.0)
                    quad += c_ij * prod
        res[k] = -z - drift * dt - noise_part - quad
    return res


def _two_channel_models():
    """A qubit watched through sigma_z and sigma_x, and a 3-level model with
    dense H, channels and observable: every cross term C_ij with i != j."""
    qubit = ModelSpec(Operator(B2, qf.models.SIGMA_X + 0.3 * qf.models.SIGMA_Y),
                      (Operator(B2, 1.2 * qf.models.SIGMA_Z),
                       Operator(B2, 0.8 * qf.models.SIGMA_X)))
    rng = np.random.default_rng(41)
    b3 = Basis.finite(3)

    def dense():
        return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    h, o = dense(), dense()
    three = ModelSpec(Operator(b3, h + h.conj().T),
                      (Operator(b3, 0.4 * dense()), Operator(b3, 0.4 * dense())))
    return [(qubit, named_observable(qubit, "sigma_z"), KET0),
            (three, Operator(b3, o + o.conj().T),
             StateVector(b3, np.array([0.6, 0.0, 0.8j])))]


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("quad", [True, False])
def test_filtering_residual_matches_scalar_reference_with_two_channels(case, quad):
    model, obs, psi = _two_channel_models()[case]
    assert model.n_channels == 2
    traj = run_trajectory(model, psi, 1e-3, 400, 13, 0, record_stride=1)
    ref = _reference_residuals(traj, obs, include_quadratic_correction=quad)
    res = _filtering_residuals(model, obs, traj.states.amplitudes, traj.noise.increments,
                               traj.dt, quad)
    # each step's residual is a difference of O(1) terms, so compare it on
    # their scale; the report's figures then agree to 1e-12 relative
    assert np.abs(res - ref).max() <= 4e-15
    report = filtering_residual(traj, obs, include_quadratic_correction=quad)
    assert report.rms == pytest.approx(np.sqrt(np.mean(ref * ref)), rel=1e-12)
    assert report.max_abs == pytest.approx(np.abs(ref).max(), rel=1e-12)
    assert report.mean == pytest.approx(ref.mean(), rel=1e-9)
    # the cross terms are live: dropping the quadratic correction moves the result
    if quad:
        raw = _reference_residuals(traj, obs, include_quadratic_correction=False)
        assert np.sqrt(np.mean(raw * raw)) > 5.0 * report.rms


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from([0, 1]), rows=st.integers(1, 5), n=st.integers(1, 12),
       entries=st.integers(1, 80), quad=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_kernels_give_each_row_its_own_bits(case, rows, n, entries, quad, seed):
    """Over a stack, at any block size, every row of the residual kernel and
    of the distance helper carries the bits of that row computed alone."""
    model, obs, _ = _two_channel_models()[case]
    rng = np.random.default_rng(seed)
    dim, c = model.dim, model.n_channels
    states = rng.standard_normal((rows, n + 1, dim)) + 1j * rng.standard_normal((rows, n + 1, dim))
    dw = 0.03 * rng.standard_normal((rows, n, c))
    # the monkeypatch fixture does not reset between hypothesis examples
    with mock.patch.object(qf.solvers, "_STEP_ENTRIES", entries):
        stacked = _filtering_residuals(model, obs, states, dw, 1e-3, quad)
    assert stacked.shape == (rows, n)
    for i in range(rows):
        alone = _filtering_residuals(model, obs, states[i], dw[i], 1e-3, quad)
        assert np.array_equal(stacked[i], alone)

    other = rng.standard_normal(states.shape) + 1j * rng.standard_normal(states.shape)
    ov, dist = _pure_overlap(0.5, states, other)
    assert ov.shape == dist.shape == (rows, n + 1)
    for i in range(rows):
        for k in range(n + 1):
            ov1, dist1 = _pure_overlap(0.5, states[i, k], other[i, k])
            assert ov[i, k] == ov1
            assert np.array_equal(dist[i, k], dist1, equal_nan=True)


def test_filtering_residual_validation():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    sz = named_observable(model, "sigma_z")
    strided = run_trajectory(model, KET0, 1e-3, 20, 5, 0, record_stride=2)
    with pytest.raises(ValueError):
        filtering_residual(strided, sz)
    slim = run_ensemble(model, KET0, 1e-3, 20, 5, 1, record_stride=1)[0]
    with pytest.raises(ValueError):
        filtering_residual(slim, sz)
    full = run_trajectory(model, KET0, 1e-3, 20, 5, 0, record_stride=1)
    raiser = Operator(B2, [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(UnsupportedConfigurationError):
        filtering_residual(full, raiser)
    grid_model = build_grid_model(GridSpec(-10.0, 10.0, 16), lam=1.0)
    with pytest.raises(BasisMismatchError):
        filtering_residual(full, named_observable(grid_model, "x"))


def test_strong_order_estimate_structure_and_validation():
    model = build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    dts = [8e-3, 4e-3, 2e-3, 1e-3]
    report = strong_order_estimate(model, KET0, 0.2, dts, 7, 2, ref_refine=4)
    assert np.all(np.diff(report.dts) < 0)
    assert report.mean_errors.shape == (4,)
    assert np.all(report.mean_errors > 0.0)
    assert report.per_seed_slopes.shape == (2,)
    assert np.isfinite(report.slope)
    assert report.slope_se >= 0.0

    with pytest.raises(ValueError, match="four"):
        strong_order_estimate(model, KET0, 0.2, [8e-3, 4e-3, 2e-3], 7, 2)
    with pytest.raises(ValueError, match="geometric"):
        strong_order_estimate(model, KET0, 0.2, [8e-3, 4e-3, 2e-3, 1.5e-3], 7, 2)
    with pytest.raises(ValueError, match="distinct"):
        strong_order_estimate(model, KET0, 0.2, [2e-3] * 4, 7, 2)
    with pytest.raises(ValueError, match="seeds"):
        strong_order_estimate(model, KET0, 0.2, dts, 7, 1)
    with pytest.raises(ValueError, match="multiple"):
        strong_order_estimate(model, KET0, 0.0123, dts, 7, 2, ref_refine=8)
