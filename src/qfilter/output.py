"""Run artifacts: full-precision CSV series, checksummed manifests, loaders.

Every file a command writes is funneled through ArtifactWriter, which records
its sha256 into manifest.json. Nothing here embeds timestamps, hostnames, or
other run-environment state, so rerunning a command with the same config and
seed reproduces every byte.

Every CSV file is a float table turned into text by `_csv_pieces`, a block
of values per `%` call, each value as `format_float` writes it: 17
significant digits (round-trip exact for float64), integer columns
included; complex series appear as paired _re/_im columns. The text is
streamed to disk and hashed piece by piece, so writing a table holds about
one piece of it at a time. `write_simulation` writes its trajectories
across the same worker processes as `run_ensemble`; the bytes do not
depend on the worker count. `write_master` seals the solver's largest trace
drift in the manifest under "diagnostics".
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ArtifactMismatchError, ConfigError
from .solvers import DensityTrajectory, TrajectoryResult, pool_map, resolve_workers


# a number at 17 significant digits (round-trip exact for float64); the
# reference for `_FIELD`, which formats the same text inside a `%` call
format_float = "{:.17g}".format
_FIELD = "%.17g"

# about how many values one piece of CSV text holds
_PIECE_VALUES = 1 << 13


def _csv_pieces(header: list[str], rows):
    """The header line, then one line per row of floats, each value as
    `format_float` writes it, as consecutive pieces of text of about
    _PIECE_VALUES values, each piece one `%` call. `rows` is a 2-D float
    table, formatted a block of rows at a time, or any iterable of 1-D rows,
    formatted a row (or a slice of a long row) at a time."""
    yield ",".join(header) + "\n"
    if isinstance(rows, np.ndarray):
        table = rows.astype(float, copy=False)
        line = ",".join([_FIELD] * table.shape[1]) + "\n"
        step = max(1, _PIECE_VALUES // max(1, table.shape[1]))
        for lo in range(0, len(table), step):
            block = table[lo:lo + step]
            yield (line * len(block)) % tuple(block.ravel().tolist())
        return
    for row in rows:
        vals = np.asarray(row, dtype=float).ravel()
        for lo in range(0, max(1, vals.size), _PIECE_VALUES):
            piece = vals[lo:lo + _PIECE_VALUES].tolist()
            end = "\n" if lo + _PIECE_VALUES >= vals.size else ","
            yield (",".join([_FIELD] * len(piece)) + end) % tuple(piece)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ArtifactWriter:
    """Collects files under one directory and seals them with a manifest."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, dict] = {}

    def _write_pieces(self, relpath: str, pieces) -> None:
        """Write byte pieces in order, hashing them as they go."""
        path = self.directory / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        size = 0
        with open(path, "wb") as fh:
            for data in pieces:
                fh.write(data)
                digest.update(data)
                size += len(data)
        self.files[relpath] = {"sha256": digest.hexdigest(), "bytes": size}

    def write_bytes(self, relpath: str, data: bytes) -> None:
        self._write_pieces(relpath, (data,))

    def write_text(self, relpath: str, text: str) -> None:
        self.write_bytes(relpath, text.encode("utf-8"))

    def write_csv(self, relpath: str, header: list[str], rows) -> None:
        self._write_pieces(relpath, (p.encode("utf-8") for p in _csv_pieces(header, rows)))

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

    # step s ends with cumulative[s - 1]; step 0 precedes the record
    steps = traj.snapshot_steps
    y_at = np.vstack([np.zeros(c), traj.record.cumulative])[steps]
    exps = [part for n in names for part in (traj.expectations[n].real,
                                              traj.expectations[n].imag)]
    table = np.column_stack([
        traj.times, *exps, traj.log_amplitude, traj.log_norm,
        np.concatenate([[1.0], traj.step_norms])[steps],
        np.diff(y_at, axis=0, prepend=0.0),
    ])
    return header, table


def _record_csv(traj: TrajectoryResult):
    rec = traj.record
    c = rec.increments.shape[1]
    header = ["t"] + [f"dY_{j + 1}" for j in range(c)] + [f"Y_{j + 1}" for j in range(c)]
    return header, np.column_stack([rec.times, rec.increments, rec.cumulative])


def write_trajectory(writer: ArtifactWriter, traj: TrajectoryResult,
                     formats=("csv",)) -> None:
    sub = trajectory_dirname(traj.trajectory_index)
    writer.write_csv(f"{sub}/series.csv", *_series_csv(traj))
    writer.write_csv(f"{sub}/record.csv", *_record_csv(traj))
    # one row per snapshot, re/im interleaved; states.bin holds the same table
    states = np.ascontiguousarray(traj.states.amplitudes, dtype=complex).view(float)
    header = ["t"] + [f"{part}_{i}" for i in range(traj.model.dim) for part in ("re", "im")]
    writer.write_csv(f"{sub}/states.csv", header, np.column_stack([traj.times, states]))
    if "bin" in formats:
        writer.write_bytes(f"{sub}/states.bin", states.astype("<f8").tobytes())


def _write_range(p: dict, lo: int, hi: int) -> dict[str, dict]:
    """Write trajectories lo .. hi - 1 of a simulation; their manifest entries."""
    writer = ArtifactWriter(p["directory"])
    for traj in p["results"][lo:hi]:
        write_trajectory(writer, traj, p["formats"])
    return writer.files


def write_simulation(out_dir, config_echo: dict, results: list[TrajectoryResult],
                     formats=("csv",)) -> Path:
    """Write every trajectory plus the sealing manifest; returns the directory.

    Contiguous ranges of trajectories are written across as many worker
    processes as `run_ensemble` would use (QFILTER_THREADS caps both); the
    files and the manifest are byte-identical for any worker count."""
    if any(r.record is None or r.step_norms is None for r in results):
        raise ValueError("trajectory was slimmed; per-step payload is gone")
    writer = ArtifactWriter(out_dir)
    n_workers = resolve_workers(None, len(results))
    size = max(1, -(-len(results) // n_workers))
    bounds = [(lo, min(lo + size, len(results))) for lo in range(0, len(results), size)]
    payload = {"directory": writer.directory, "results": results, "formats": formats}
    for files in pool_map(_write_range, payload, bounds, n_workers):
        writer.files.update(files)
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
        # one row at a time, streamed to disk in pieces
        for t, mat, tr in zip(dtraj.times, dtraj.matrices, traces):
            entries = np.ascontiguousarray(mat, dtype=complex).view(float).ravel()
            yield np.concatenate([[t], entries, [tr]])

    writer.write_csv("master.csv", header, rows())
    writer.write_manifest("master", config_echo,
                          {"diagnostics": {"max_trace_drift": dtraj.max_trace_drift}})
    return writer.directory


def write_report(out_dir, config_echo: dict, suite: str, report: dict,
                 series: tuple[list[str], np.ndarray] | None = None) -> Path:
    """Write report.json and, when given, the suite's (header, float table)
    series as series.csv, sealed by the manifest."""
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


def _aggregate_pick(what: str):
    """Per-trajectory column of an aggregate export, from a `col(name)` lookup."""
    if what.startswith("expectation:"):
        name = f"exp_{what.split(':', 1)[1]}_re"
        return lambda col: col(name)
    if what == "variance":
        def variance(col):
            ex = col("exp_x_re")
            return col("exp_x2_re") - ex * ex
        return variance
    if what == "norm":
        return lambda col: col("norm_pre_renorm")
    raise ConfigError([
        ("--what", f"unknown export {what!r}; expected expectation:NAME, "
                   "variance, record, or norm")])


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

    cols = []
    if what == "record":
        labels = []
        for td in traj_dirs:
            header, data = load_csv(run_dir / td / "record.csv")
            for k, name in enumerate(header):
                if name.startswith("Y_"):
                    cols.append(data[:, k])
                    labels.append(f"{name}_{td}")
        _write_plot(out_path, ["t"] + labels, [data[:, 0], *cols])
        return

    pick = _aggregate_pick(what)
    for td in traj_dirs:
        header, data = load_csv(run_dir / td / "series.csv")
        cols.append(pick(lambda name: _column(header, data, name, f"{td}/series.csv")))
    stack = np.column_stack(cols)
    n = stack.shape[1]
    err = stack.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(stack.shape[0])
    _write_plot(out_path, ["t"] + traj_dirs + ["mean", "stderr"],
                [data[:, 0], *cols, stack.mean(axis=1), err])


def _write_plot(out_path, header: list[str], columns) -> None:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(_csv_pieces(header, np.column_stack(columns)))
