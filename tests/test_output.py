"""Artifact layer: CSV layout, manifests, checksums, and plot exports."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfilter as qf
from qfilter import output
from qfilter.cli import main
from qfilter.config import build_initial, build_model, build_observables, parse_config_data
from qfilter.output import (
    MasterExport,
    _csv_pieces,
    export_plot,
    format_float,
    load_csv,
    load_manifest,
    write_master,
    write_report,
    write_simulation,
)
from test_solvers import MOMENTUM_CHANNEL_MODEL


@pytest.fixture(scope="module")
def small_run():
    """Three short dephasing trajectories plus the config echo they came from."""
    cfg = parse_config_data({
        "model": {"kind": "qubit", "h_field": [1.0, 0.0, 0.0], "channel": "sigma_z"},
        "initial": {"amplitudes": [1.0, 0.0]},
        "sim": {"dt": 1e-3, "t_final": 0.05, "record_stride": 10,
                "observables": ["sigma_z", "sigma_x"]},
        "ensemble": {"n_trajectories": 3, "master_seed": 5},
    })
    model = build_model(cfg)
    psi0 = build_initial(cfg, model)
    obs = build_observables(cfg, model)
    results = qf.run_ensemble(model, psi0, cfg.sim.dt, cfg.n_steps,
                              master_seed=cfg.ensemble.master_seed,
                              n_trajectories=cfg.ensemble.n_trajectories,
                              observables=obs, record_stride=cfg.sim.record_stride)
    return results, cfg.resolved()


def test_simulation_round_trip(tmp_path, small_run):
    results, echo = small_run
    out = write_simulation(tmp_path / "run", echo, results)
    manifest = qf.verify_artifacts(out)
    assert manifest["tool"] == "qfilter"
    assert manifest["version"] == qf.__version__
    assert manifest["command"] == "simulate"
    assert manifest["config"] == echo
    expected_files = {f"traj_{i:06d}/{name}" for i in range(3)
                      for name in ("series.csv", "record.csv", "states.csv")}
    assert set(manifest["files"]) == expected_files
    for meta in manifest["files"].values():
        assert set(meta) == {"sha256", "bytes"}
        assert meta["bytes"] > 0
    assert manifest["seed_records"] == [
        {"trajectory_index": i, "master_seed": 5, "scheme": "nonlinear", "n_steps": 50}
        for i in range(3)
    ]


def test_series_csv_layout_round_trips_exactly(tmp_path, small_run):
    results, echo = small_run
    out = write_simulation(tmp_path / "run", echo, results)
    header, data = load_csv(out / "traj_000000" / "series.csv")
    assert header == ["t", "exp_sigma_z_re", "exp_sigma_z_im",
                      "exp_sigma_x_re", "exp_sigma_x_im",
                      "log_amplitude", "log_norm", "norm_pre_renorm", "dY_1"]
    traj = results[0]
    assert data.shape == (len(traj.times), len(header))
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1], traj.expectations["sigma_z"].real)
    assert np.array_equal(data[:, 3], traj.expectations["sigma_x"].real)
    assert np.array_equal(data[:, 5], traj.log_amplitude)
    assert np.array_equal(data[:, 6], traj.log_norm)
    assert data[0, 7] == 1.0, "pre-step snapshot has no renormalization yet"
    # dY column holds the record increment summed over each snapshot window
    cum = traj.record.cumulative[:, 0]
    expected = [0.0]
    prev = 0.0
    for step in traj.snapshot_steps[1:]:
        expected.append(cum[step - 1] - prev)
        prev = cum[step - 1]
    assert np.array_equal(data[:, 8], np.array(expected))


def test_record_csv_matches_the_measurement_record(tmp_path, small_run):
    results, echo = small_run
    out = write_simulation(tmp_path / "run", echo, results)
    header, data = load_csv(out / "traj_000001" / "record.csv")
    assert header == ["t", "dY_1", "Y_1"]
    rec = results[1].record
    assert np.array_equal(data[:, 0], rec.times)
    assert np.array_equal(data[:, 1], rec.increments[:, 0])
    assert np.array_equal(data[:, 2], rec.cumulative[:, 0])


def test_binary_states_mirror_the_csv(tmp_path, small_run):
    results, echo = small_run
    out = write_simulation(tmp_path / "run", echo, results, formats=("csv", "bin"))
    raw = (out / "traj_000000" / "states.bin").read_bytes()
    traj = results[0]
    data = np.frombuffer(raw, dtype="<f8").reshape(len(traj.states), 2 * traj.model.dim)
    for i, st in enumerate(traj.states):
        assert np.array_equal(data[i, 0::2], st.amplitudes.real)
        assert np.array_equal(data[i, 1::2], st.amplitudes.imag)
    header, csv_data = load_csv(out / "traj_000000" / "states.csv")
    assert header == ["t", "re_0", "im_0", "re_1", "im_1"]
    assert np.array_equal(csv_data[:, 1:], data)
    manifest = load_manifest(out)
    assert manifest["binary_states"] == {
        "dtype": "<f8",
        "layout": "rows of interleaved re/im amplitudes per snapshot",
        "dim": 2,
        "snapshots": len(traj.states),
    }


def test_rewriting_the_same_run_is_byte_identical(tmp_path, small_run):
    results, echo = small_run
    a = write_simulation(tmp_path / "a", echo, results)
    b = write_simulation(tmp_path / "b", echo, results)
    ma = (a / "manifest.json").read_bytes()
    mb = (b / "manifest.json").read_bytes()
    assert ma == mb, "manifests differ between identical writes"
    for rel in load_manifest(a)["files"]:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs"


def _run_files(run_dir) -> dict:
    return {p.relative_to(run_dir).as_posix(): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def test_simulation_bytes_do_not_depend_on_worker_count(tmp_path, small_run, monkeypatch):
    results, echo = small_run
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("QFILTER_THREADS", threads)
        out = write_simulation(tmp_path / threads, echo, results, formats=("csv", "bin"))
        runs[threads] = _run_files(out)
    assert set(runs["1"]) == {"manifest.json"} | {
        f"traj_{i:06d}/{name}" for i in range(3)
        for name in ("series.csv", "record.csv", "states.csv", "states.bin")}
    assert runs["1"] == runs["2"]


def test_write_errors_reach_the_caller_for_any_worker_count(tmp_path, small_run, monkeypatch):
    results, echo = small_run
    out = tmp_path / "run"
    out.mkdir()
    (out / "traj_000001").write_bytes(b"")  # a file where a trajectory directory goes
    errors = []
    for threads in ("1", "2"):
        monkeypatch.setenv("QFILTER_THREADS", threads)
        with pytest.raises(OSError) as info:
            write_simulation(out, echo, results)
        errors.append((type(info.value), str(info.value)))
        assert not (out / "manifest.json").exists()
    assert errors[0] == errors[1]
    assert errors[0][0] is FileExistsError and "traj_000001" in errors[0][1]


def test_tampering_is_detected(tmp_path, small_run):
    results, echo = small_run
    out = write_simulation(tmp_path / "run", echo, results)
    target = out / "traj_000000" / "series.csv"
    original = target.read_bytes()
    target.write_bytes(original + b"#\n")
    with pytest.raises(qf.ArtifactMismatchError, match="checksum mismatch"):
        qf.verify_artifacts(out)
    target.write_bytes(original)
    qf.verify_artifacts(out)  # restored, clean again
    (out / "traj_000001" / "record.csv").unlink()
    with pytest.raises(qf.ArtifactMismatchError, match="missing"):
        qf.verify_artifacts(out)


@pytest.mark.parametrize("via", ["dotdot", "absolute", "symlink"])
def test_manifest_keys_outside_the_run_are_rejected(tmp_path, small_run, capsys, via):
    """A manifest key that leaves the run directory fails the check, even
    with the outside file's true sha256, directly and through export-plot."""
    results, echo = small_run
    out = write_simulation(tmp_path / "run", echo, results)
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"not part of the run\n")
    key = {"dotdot": "../outside.txt", "absolute": str(outside), "symlink": "link.txt"}[via]
    if via == "symlink":
        (out / key).symlink_to(outside)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["files"][key] = {"sha256": hashlib.sha256(outside.read_bytes()).hexdigest(),
                              "bytes": outside.stat().st_size}
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    problem = f"{key}: missing from the run directory"
    with pytest.raises(qf.ArtifactMismatchError, match=re.escape(problem)):
        qf.verify_artifacts(out)
    dest = tmp_path / "plot.csv"
    rc = main(["export-plot", "--in", str(out), "--what", "expectation:sigma_z",
               "--out", str(dest)])
    assert rc == 2
    assert problem in capsys.readouterr().err
    assert not dest.exists()


def test_manifest_loading_failures(tmp_path):
    with pytest.raises(qf.ArtifactMismatchError, match="no manifest.json"):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{broken", encoding="utf-8")
    with pytest.raises(qf.ArtifactMismatchError, match="corrupt manifest"):
        load_manifest(tmp_path)


def test_slimmed_trajectories_cannot_be_written(tmp_path):
    model = qf.build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    psi0 = qf.StateVector(model.basis, np.array([1.0, 0.0], dtype=complex))
    results = qf.run_ensemble(model, psi0, 1e-3, 10, master_seed=1,
                              n_trajectories=1, record_stride=5, slim=True)
    with pytest.raises(ValueError, match="slimmed"):
        write_simulation(tmp_path / "run", {}, results)
    assert not (tmp_path / "run").exists(), "refused before the directory is made"


def test_master_csv_keeps_a_unit_trace_column(tmp_path):
    model = qf.build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    psi0 = qf.StateVector(model.basis, np.array([1.0, 0.0], dtype=complex))
    dtraj = qf.solve_master(model, qf.projector(psi0), 1e-3, 50, store_stride=10)
    out = write_master(tmp_path / "run", {"kind": "test"}, dtraj)
    manifest = qf.verify_artifacts(out)
    assert manifest["command"] == "master"
    header, data = load_csv(out / "master.csv")
    assert header[0] == "t"
    assert header[1] == "rho_0_0_re"
    assert header[-1] == "trace"
    assert data.shape == (len(dtraj.times), 2 + 2 * 4)
    assert np.max(np.abs(data[:, -1] - 1.0)) < 1e-9, "trace drifted in the export"


def test_master_csv_matches_the_per_element_formatter(tmp_path):
    mats = np.array([
        [[-0.0 + 1e-300j, 0.1 - 0.0j], [1.0 / 3.0 + 2e-17j, complex(-0.0, -0.0)]],
        [[0.5, -1e300 + 0.1j], [5e-324 - 1.0j, 0.5 + 0.0j]],
    ])
    dtraj = qf.DensityTrajectory(qf.Basis.finite(2), 0.1, 1, np.array([0.0, 0.1]), mats)
    out = write_master(tmp_path / "run", {}, dtraj)
    header = ["t"]
    for i in range(2):
        for j in range(2):
            header += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    lines = [",".join(header + ["trace"])]
    traces = dtraj.trace_series()
    for k, t in enumerate(dtraj.times):
        row = [format_float(t)]
        for i in range(2):
            for j in range(2):
                row += [format_float(mats[k, i, j].real), format_float(mats[k, i, j].imag)]
        lines.append(",".join(row + [format_float(traces[k])]))
    assert (out / "master.csv").read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_write_master_streams_the_table(tmp_path):
    """A few MB of master.csv are written while holding far less than the
    file, and the manifest entry matches the bytes on disk."""
    rng = np.random.default_rng(3)
    dim, n = 24, 160
    mats = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    dtraj = qf.DensityTrajectory(qf.Basis.finite(dim), 0.1, 1, 0.1 * np.arange(n), mats)
    tracemalloc.start()
    try:
        out = write_master(tmp_path / "run", {}, dtraj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = (out / "master.csv").read_bytes()
    assert len(data) > 2_000_000
    assert peak < len(data) / 4, f"writer peaked at {peak} bytes for a {len(data)}-byte file"
    entry = load_manifest(out)["files"]["master.csv"]
    assert entry == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    qf.verify_artifacts(out)


def test_master_header_is_streamed(tmp_path):
    """A two-row master.csv at 128 points is written while tracing less
    than a quarter of its header's bytes: the header is formatted a matrix
    row of names at a time, and each row as it is written."""
    dim = 128
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
    dtraj = qf.DensityTrajectory(qf.Basis.finite(dim), 0.1, 1, np.array([0.0, 0.1]), mats)
    write_master(tmp_path / "warm", {}, dtraj)  # lazy imports load untraced
    tracemalloc.start()
    try:
        out = write_master(tmp_path / "run", {}, dtraj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with open(out / "master.csv", "rb") as fh:
        header = len(fh.readline())
    assert header > 400_000
    assert peak < header / 4, f"writer peaked at {peak} bytes for a {header}-byte header"


def test_verify_artifacts_streams_each_file(tmp_path):
    """A few MB of master.csv are checked while holding far less than the
    file."""
    rng = np.random.default_rng(4)
    dim, n = 24, 180
    mats = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    dtraj = qf.DensityTrajectory(qf.Basis.finite(dim), 0.1, 1, 0.1 * np.arange(n), mats)
    out = write_master(tmp_path / "run", {}, dtraj)
    size = (out / "master.csv").stat().st_size
    assert size > 4_000_000
    tracemalloc.start()
    try:
        qf.verify_artifacts(out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 4, f"verify peaked at {peak} bytes for a {size}-byte file"


def _grid_master_case():
    cfg = parse_config_data({
        "model": {"kind": "grid1d", "x_min": -8.0, "x_max": 8.0, "n_points": 48,
                  "potential": "harmonic", "potential_params": {"omega": 0.7}},
        "initial": {"gaussian": {"x0": 1.0, "p0": 0.5, "sigma": 1.0}},
        "sim": {"dt": 1e-3, "t_final": 0.03, "record_stride": 7},
    })
    model = build_model(cfg)
    return (model, qf.projector(build_initial(cfg, model)), cfg.sim.dt, cfg.n_steps,
            cfg.sim.record_stride)


def _momentum_master_case():
    model = MOMENTUM_CHANNEL_MODEL
    return model, qf.projector(qf.gaussian_packet(model.basis, x0=0.5, sigma=1.0)), 1e-3, 25, 4


MASTER_EXPORT_CASES = {"banded_grid": _grid_master_case, "momentum_channel": _momentum_master_case}


def _exported_master(out, case, hook=None):
    """Solve `case` with a MasterExport attached, then seal it; `hook(export,
    t, rho)` replaces the export's own hook when given."""
    model, rho0, dt, n_steps, stride = case
    with MasterExport(out, model.basis) as export:
        on_store = export.hook if hook is None else (lambda t, rho: hook(export, t, rho))
        dtraj = qf.solve_master(model, rho0, dt, n_steps, store_stride=stride,
                                on_store=on_store)
        write_master(out, {"case": "export"}, dtraj, export)
    return dtraj, export


@pytest.mark.parametrize("name", sorted(MASTER_EXPORT_CASES))
def test_master_export_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, name):
    """master.csv and manifest.json written during the solve, by a forked
    writer (two workers) or in the solving process (one worker), equal
    write_master on the history of a solve without a hook."""
    case = MASTER_EXPORT_CASES[name]()
    model, rho0, dt, n_steps, stride = case
    for threads in ("1", "2"):
        monkeypatch.setenv("QFILTER_THREADS", threads)
        dtraj, export = _exported_master(tmp_path / threads, case)
        assert export.started
        assert dtraj.matrices is None, "a solve with a hook keeps no history"
    library = qf.solve_master(model, rho0, dt, n_steps, store_stride=stride)
    write_master(tmp_path / "library", {"case": "export"}, library)
    for relpath in ("master.csv", "manifest.json"):
        want = (tmp_path / "library" / relpath).read_bytes()
        for threads in ("1", "2"):
            assert (tmp_path / threads / relpath).read_bytes() == want, (relpath, threads)
    qf.verify_artifacts(tmp_path / "2")


def test_master_export_refuses_a_directory_in_place_of_the_table(tmp_path, monkeypatch):
    """A directory where master.csv goes raises the same error on both
    paths, and no manifest is written."""
    errors = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("QFILTER_THREADS", threads)
        out = tmp_path / "run"
        (out / "master.csv").mkdir(parents=True)
        with pytest.raises(OSError) as info:
            _exported_master(out, _grid_master_case())
        errors[threads] = (type(info.value), str(info.value))
        assert sorted(p.name for p in out.iterdir()) == ["master.csv"]
        (out / "master.csv").rmdir()
    assert errors["1"] == errors["2"]
    assert errors["1"][0] is IsADirectoryError


def test_master_export_is_undone_when_the_solve_fails(tmp_path, monkeypatch):
    """A solve that raises after its first stored row leaves no writer
    process and no run directory, nor the directories made for it, whether
    the rows went to a forked writer or were written in this process."""

    def fail_after_first_row(export, t, rho):
        export.hook(t, rho)
        assert export.started
        raise RuntimeError("solve stopped")

    for threads in ("1", "2"):
        monkeypatch.setenv("QFILTER_THREADS", threads)
        with pytest.raises(RuntimeError, match="solve stopped"):
            _exported_master(tmp_path / "a" / "run", _grid_master_case(), fail_after_first_row)
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == [], threads


def test_master_export_writer_failure_reaches_the_caller(tmp_path, monkeypatch):
    """An error in writing a row, in the writer process or in the solving
    process, is raised by the solving process, which then removes what the
    export wrote. Every step is stored, more than a pipe holds, so the
    solver is still sending when a forked writer stops."""

    def full_disk(t, mat, weight):  # runs where the rows are written
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(output, "_master_row", full_disk)
    model, rho0, dt, n_steps, _ = _grid_master_case()
    for threads in ("1", "2"):
        monkeypatch.setenv("QFILTER_THREADS", threads)
        with pytest.raises(OSError, match="No space left on device"):
            _exported_master(tmp_path / "run", (model, rho0, dt, n_steps, 1))
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == [], threads


def test_report_round_trip(tmp_path):
    report = {"suite": "gauge", "passed": True,
              "checks": [{"name": "a", "measured": 0.5, "bound": [0.0, 1.0], "pass": True}],
              "stats": {"n_seeds": 2}}
    series = (["t", "value"], np.array([[0.0, 1.0], [1.0, 2.0]]))
    out = write_report(tmp_path / "rep", {"cfg": 1}, "gauge", report, series)
    manifest = qf.verify_artifacts(out)
    assert manifest["command"] == "verify:gauge"
    loaded = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert loaded == report
    header, data = load_csv(out / "series.csv")
    assert header == ["t", "value"]
    assert np.array_equal(data, np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert (out / "series.csv").read_text(encoding="utf-8") == "t,value\n0,1\n1,2\n"


def test_export_expectation_aggregates_across_trajectories(tmp_path, small_run):
    results, echo = small_run
    out = write_simulation(tmp_path / "run", echo, results)
    dest = tmp_path / "plot.csv"
    export_plot(out, "expectation:sigma_z", dest)
    header, data = load_csv(dest)
    assert header == ["t", "traj_000000", "traj_000001", "traj_000002", "mean", "stderr"]
    per_traj = np.column_stack([r.expectations["sigma_z"].real for r in results])
    assert np.array_equal(data[:, 1:4], per_traj)
    assert np.allclose(data[:, 4], per_traj.mean(axis=1), atol=1e-15)
    expected_err = per_traj.std(axis=1, ddof=1) / np.sqrt(3)
    assert np.allclose(data[:, 5], expected_err, atol=1e-15)


def test_export_norm_and_record(tmp_path, small_run):
    results, echo = small_run
    out = write_simulation(tmp_path / "run", echo, results)
    dest = tmp_path / "norm.csv"
    export_plot(out, "norm", dest)
    header, data = load_csv(dest)
    assert header[-2:] == ["mean", "stderr"]
    assert np.array_equal(data[0, 1:4], np.ones(3)), "first snapshot predates any step"

    dest = tmp_path / "record.csv"
    export_plot(out, "record", dest)
    header, data = load_csv(dest)
    assert header == ["t", "Y_1_traj_000000", "Y_1_traj_000001", "Y_1_traj_000002"]
    assert "mean" not in header, "record export must not average noise paths"
    assert np.array_equal(data[:, 1], results[0].record.cumulative[:, 0])


def test_export_variance_from_grid_columns(tmp_path):
    grid = qf.GridSpec(-8.0, 8.0, 96)
    model = qf.build_grid_model(grid, qf.GridPotential.free(grid), lam=0.5)
    psi0 = qf.gaussian_packet(model.basis, x0=0.0, p0=0.0, sigma=1.0)
    obs = {n: qf.named_observable(model, n) for n in ("x", "x2")}
    results = qf.run_ensemble(model, psi0, 1e-3, 20, master_seed=9,
                              n_trajectories=2, observables=obs, record_stride=10)
    out = write_simulation(tmp_path / "run", {"kind": "grid"}, results)
    dest = tmp_path / "var.csv"
    export_plot(out, "variance", dest)
    header, data = load_csv(dest)
    assert header == ["t", "traj_000000", "traj_000001", "mean", "stderr"]
    for k, traj in enumerate(results):
        ex = traj.expectations["x"].real
        ex2 = traj.expectations["x2"].real
        assert np.allclose(data[:, 1 + k], ex2 - ex * ex, atol=1e-15), f"traj {k}"


def test_export_error_paths(tmp_path, small_run):
    results, echo = small_run
    out = write_simulation(tmp_path / "run", echo, results)
    with pytest.raises(qf.ConfigError, match="unknown export"):
        export_plot(out, "spectrum", tmp_path / "x.csv")
    with pytest.raises(qf.ConfigError, match="no column"):
        export_plot(out, "expectation:sigma_y", tmp_path / "x.csv")
    with pytest.raises(qf.ConfigError, match="no column"):
        export_plot(out, "variance", tmp_path / "x.csv")  # qubit run lacks exp_x_re

    model = qf.build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    psi0 = qf.StateVector(model.basis, np.array([1.0, 0.0], dtype=complex))
    dtraj = qf.solve_master(model, qf.projector(psi0), 1e-3, 10)
    mdir = write_master(tmp_path / "master", {}, dtraj)
    with pytest.raises(qf.ConfigError, match="holds no trajectory series"):
        export_plot(mdir, "expectation:sigma_z", tmp_path / "x.csv")


def test_format_float_round_trips_doubles():
    values = [0.0, 0.1, 1.0 / 3.0, -2.5e300, 7e-17, 123456.789, float(np.pi)]
    for v in values:
        assert float(format_float(v)) == v, f"{v} mangled to {format_float(v)}"


_doubles = st.floats() | st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308,
                                          2.2250738585072014e-308])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_doubles, min_size=3, max_size=3), max_size=6))
def test_csv_text_is_the_per_element_formatter(rows):
    header = ["a", "b", "c"]
    expected = "\n".join([",".join(header)]
                         + [",".join(format_float(v) for v in row) for row in rows]) + "\n"
    assert "".join(_csv_pieces(header, np.array(rows).reshape(-1, 3))) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=24), st.integers(1, 4))
def test_csv_pieces_format_every_float64_bit_pattern(bits, width):
    """Any float64, NaN payloads, negative NaN and subnormals included, is
    written as `format_float` writes it, whether a piece holds one row or
    many."""
    values = np.array(bits, dtype=np.uint64).view("<f8")
    table = values[:len(values) // width * width].reshape(-1, width)
    header = [f"c{j}" for j in range(width)]
    expected = "".join([",".join(header) + "\n"]
                       + [",".join(map(format_float, row)) + "\n" for row in table.tolist()])
    for piece_values in (output._PIECE_VALUES, 3):
        with mock.patch.object(output, "_PIECE_VALUES", piece_values):
            assert "".join(_csv_pieces(header, table)) == expected
