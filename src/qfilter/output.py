"""Run artifacts: full-precision CSV series, checksummed manifests, loaders.

Every file a command writes is funneled through ArtifactWriter, which records
its sha256 into manifest.json. Nothing here embeds timestamps, hostnames, or
other run-environment state, so rerunning a command with the same config and
seed reproduces every byte.

Numbers are written with 17 significant digits (round-trip exact for float64)
in the C locale; complex series appear as paired _re/_im columns.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ArtifactMismatchError, ConfigError
from .solvers import DensityTrajectory, TrajectoryResult


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ArtifactWriter:
    """Collects files under one directory and seals them with a manifest."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, dict] = {}

    def write_bytes(self, relpath: str, data: bytes) -> None:
        path = self.directory / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        self.files[relpath] = {"sha256": sha256_bytes(data), "bytes": len(data)}

    def write_text(self, relpath: str, text: str) -> None:
        self.write_bytes(relpath, text.encode("utf-8"))

    def write_csv(self, relpath: str, header: list[str], rows) -> None:
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in rows)
        self.write_text(relpath, "\n".join(lines) + "\n")

    def write_json(self, relpath: str, doc) -> None:
        self.write_text(relpath, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def write_manifest(self, command: str, config_echo: dict, extra: dict | None = None) -> None:
        doc = {
            "tool": "qfilter",
            "version": __version__,
            "command": command,
            "config": config_echo,
            "files": self.files,
        }
        if extra:
            doc.update(extra)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        (self.directory / "manifest.json").write_bytes(text.encode("utf-8"))


def trajectory_dirname(index: int) -> str:
    return f"traj_{index:06d}"


def _series_csv(traj: TrajectoryResult):
    names = list(traj.expectations)
    c = traj.record.increments.shape[1]
    header = ["t"]
    for n in names:
        header += [f"exp_{n}_re", f"exp_{n}_im"]
    header += ["log_amplitude", "log_norm", "norm_pre_renorm"]
    header += [f"dY_{j + 1}" for j in range(c)]

    cum = traj.record.cumulative
    rows = []
    prev_cum = np.zeros(c)
    for i, step in enumerate(traj.snapshot_steps):
        row = [format_float(traj.times[i])]
        for n in names:
            z = traj.expectations[n][i]
            row += [format_float(z.real), format_float(z.imag)]
        row.append(format_float(traj.log_amplitude[i]))
        row.append(format_float(traj.log_norm[i]))
        row.append(format_float(traj.step_norms[step - 1] if step > 0 else 1.0))
        here = cum[step - 1] if step > 0 else np.zeros(c)
        for j in range(c):
            row.append(format_float(here[j] - prev_cum[j]))
        prev_cum = here
        rows.append(row)
    return header, rows


def _record_csv(traj: TrajectoryResult):
    rec = traj.record
    c = rec.increments.shape[1]
    header = ["t"] + [f"dY_{j + 1}" for j in range(c)] + [f"Y_{j + 1}" for j in range(c)]
    rows = []
    for k, t in enumerate(rec.times):
        row = [format_float(t)]
        row += [format_float(rec.increments[k, j]) for j in range(c)]
        row += [format_float(rec.cumulative[k, j]) for j in range(c)]
        rows.append(row)
    return header, rows


def _states_csv(traj: TrajectoryResult):
    dim = traj.model.dim
    header = ["t"]
    for i in range(dim):
        header += [f"re_{i}", f"im_{i}"]
    rows = []
    for i, st in enumerate(traj.states):
        row = [format_float(traj.times[i])]
        for z in st.amplitudes:
            row += [format_float(z.real), format_float(z.imag)]
        rows.append(row)
    return header, rows


def _states_bin(traj: TrajectoryResult) -> bytes:
    data = np.empty((len(traj.states), 2 * traj.model.dim))
    for i, st in enumerate(traj.states):
        data[i, 0::2] = st.amplitudes.real
        data[i, 1::2] = st.amplitudes.imag
    return data.astype("<f8").tobytes()


def write_trajectory(writer: ArtifactWriter, traj: TrajectoryResult,
                     formats=("csv",)) -> None:
    if traj.record is None or traj.step_norms is None:
        raise ValueError("trajectory was slimmed; per-step payload is gone")
    sub = trajectory_dirname(traj.trajectory_index)
    header, rows = _series_csv(traj)
    writer.write_csv(f"{sub}/series.csv", header, rows)
    header, rows = _record_csv(traj)
    writer.write_csv(f"{sub}/record.csv", header, rows)
    header, rows = _states_csv(traj)
    writer.write_csv(f"{sub}/states.csv", header, rows)
    if "bin" in formats:
        writer.write_bytes(f"{sub}/states.bin", _states_bin(traj))


def write_simulation(out_dir, config_echo: dict, results: list[TrajectoryResult],
                     formats=("csv",)) -> Path:
    """Write every trajectory plus the sealing manifest; returns the directory."""
    writer = ArtifactWriter(out_dir)
    for traj in results:
        write_trajectory(writer, traj, formats)
    seed_records = [
        {"trajectory_index": r.trajectory_index, "master_seed": r.master_seed,
         "scheme": r.scheme, "n_steps": r.n_steps}
        for r in results
    ]
    extra: dict = {"seed_records": seed_records}
    if "bin" in formats and results:
        extra["binary_states"] = {
            "dtype": "<f8",
            "layout": "rows of interleaved re/im amplitudes per snapshot",
            "dim": results[0].model.dim,
            "snapshots": len(results[0].states),
        }
    writer.write_manifest("simulate", config_echo, extra)
    return writer.directory


def write_master(out_dir, config_echo: dict, dtraj: DensityTrajectory) -> Path:
    writer = ArtifactWriter(out_dir)
    dim = dtraj.matrices.shape[1]
    header = (["t"] + [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim)
                       for part in ("re", "im")] + ["trace"])
    traces = dtraj.trace_series()

    def rows():
        # row-major entries with re/im interleaved, as the header names them;
        # one row at a time, so only the joined lines are held
        for t, mat, tr in zip(dtraj.times, dtraj.matrices, traces):
            entries = np.ascontiguousarray(mat, dtype=complex).view(float).ravel().tolist()
            yield [format_float(t), *map(format_float, entries), format_float(tr)]

    writer.write_csv("master.csv", header, rows())
    writer.write_manifest("master", config_echo)
    return writer.directory


def write_report(out_dir, config_echo: dict, suite: str, report: dict,
                 series: tuple[list[str], list[list[str]]] | None = None) -> Path:
    writer = ArtifactWriter(out_dir)
    writer.write_json("report.json", report)
    if series is not None:
        writer.write_csv("series.csv", series[0], series[1])
    writer.write_manifest(f"verify:{suite}", config_echo)
    return writer.directory


def load_manifest(run_dir) -> dict:
    path = Path(run_dir) / "manifest.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError:
        raise ArtifactMismatchError(f"no manifest.json under {run_dir}") from None
    except json.JSONDecodeError as exc:
        raise ArtifactMismatchError(f"corrupt manifest under {run_dir}: {exc}") from None


def verify_artifacts(run_dir) -> dict:
    """Recompute every checksum in the manifest; returns the manifest."""
    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    problems = []
    for relpath, meta in manifest.get("files", {}).items():
        path = run_dir / relpath
        try:
            data = path.read_bytes()
        except OSError:
            problems.append(f"{relpath}: missing")
            continue
        if sha256_bytes(data) != meta.get("sha256"):
            problems.append(f"{relpath}: checksum mismatch")
    if problems:
        raise ArtifactMismatchError(
            "run directory does not match its manifest: " + "; ".join(problems)
        )
    return manifest


def load_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = data.reshape(0, len(header))
    return header, data


def _column(header: list[str], data: np.ndarray, name: str, where: str) -> np.ndarray:
    try:
        return data[:, header.index(name)]
    except ValueError:
        raise ConfigError([("--what", f"no column {name!r} in {where}")]) from None


def export_plot(run_dir, what: str, out_path) -> None:
    """Flatten a simulation directory into one plot-ready CSV.

    what: "expectation:NAME" | "variance" | "record" | "norm". Columns are
    t, one column per trajectory, then mean and stderr (record exports skip
    the aggregate columns). The run directory is checksum-verified first.
    """
    run_dir = Path(run_dir)
    manifest = verify_artifacts(run_dir)
    traj_dirs = sorted({rel.split("/")[0] for rel in manifest.get("files", {})
                        if rel.startswith("traj_")})
    if not traj_dirs:
        raise ConfigError([("--in", "run directory holds no trajectory series")])

    if what.startswith("expectation:"):
        name = what.split(":", 1)[1]
        cols, times = [], None
        for td in traj_dirs:
            header, data = load_csv(run_dir / td / "series.csv")
            cols.append(_column(header, data, f"exp_{name}_re", f"{td}/series.csv"))
            times = data[:, 0]
        _write_aggregate(out_path, times, traj_dirs, cols, aggregate=True)
    elif what == "variance":
        cols, times = [], None
        for td in traj_dirs:
            header, data = load_csv(run_dir / td / "series.csv")
            ex = _column(header, data, "exp_x_re", f"{td}/series.csv")
            ex2 = _column(header, data, "exp_x2_re", f"{td}/series.csv")
            cols.append(ex2 - ex * ex)
            times = data[:, 0]
        _write_aggregate(out_path, times, traj_dirs, cols, aggregate=True)
    elif what == "norm":
        cols, times = [], None
        for td in traj_dirs:
            header, data = load_csv(run_dir / td / "series.csv")
            cols.append(_column(header, data, "norm_pre_renorm", f"{td}/series.csv"))
            times = data[:, 0]
        _write_aggregate(out_path, times, traj_dirs, cols, aggregate=True)
    elif what == "record":
        cols, times, labels = [], None, []
        for td in traj_dirs:
            header, data = load_csv(run_dir / td / "record.csv")
            for name in header[1:]:
                if name.startswith("Y_"):
                    cols.append(data[:, header.index(name)])
                    labels.append(f"{name}_{td}")
            times = data[:, 0]
        _write_aggregate(out_path, times, labels, cols, aggregate=False)
    else:
        raise ConfigError([
            ("--what", f"unknown export {what!r}; expected expectation:NAME, "
                       "variance, record, or norm")])


def _write_aggregate(out_path, times, labels, cols, aggregate: bool) -> None:
    stack = np.column_stack(cols)
    header = ["t"] + list(labels)
    if aggregate:
        header += ["mean", "stderr"]
        mean = stack.mean(axis=1)
        if stack.shape[1] > 1:
            err = stack.std(axis=1, ddof=1) / np.sqrt(stack.shape[1])
        else:
            err = np.zeros(stack.shape[0])
        stack = np.column_stack([stack, mean, err])
    lines = [",".join(header)]
    for k in range(stack.shape[0]):
        lines.append(",".join([format_float(times[k])] +
                              [format_float(v) for v in stack[k]]))
    out_path = Path(out_path)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
