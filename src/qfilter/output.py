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
one piece of it at a time. `write_simulation` takes an `EnsembleResult`
and writes its trajectories, one `TrajectoryResult` row at a time, across
the same worker processes as `run_ensemble`. `MasterExport` writes
`master.csv` while `solve_master` runs: one forked writer process formats
each stored density matrix as the solver hands it over, so only the last
row is left to format when the solve ends. With one worker (QFILTER_THREADS
caps this writer too) the whole table is formatted after the solve. Either
way the bytes do not depend on the worker count. `write_master` seals the
solver's largest trace drift in the manifest under "diagnostics".
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import multiprocessing
import signal
import struct
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ArtifactMismatchError, ConfigError
from .solvers import DensityTrajectory, EnsembleResult, TrajectoryResult, pool_map, resolve_workers


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


def _csv_bytes(header: list[str], rows):
    return (p.encode("utf-8") for p in _csv_pieces(header, rows))


def _write_stream(fh, pieces) -> dict:
    """Write byte pieces to an open binary file in order, hashing them as
    they go; the file's manifest entry."""
    digest = hashlib.sha256()
    size = 0
    for data in pieces:
        fh.write(data)
        digest.update(data)
        size += len(data)
    return {"sha256": digest.hexdigest(), "bytes": size}


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
        with open(path, "wb") as fh:
            entry = _write_stream(fh, pieces)
        self.files[relpath] = entry

    def write_bytes(self, relpath: str, data: bytes) -> None:
        self._write_pieces(relpath, (data,))

    def write_text(self, relpath: str, text: str) -> None:
        self.write_bytes(relpath, text.encode("utf-8"))

    def write_csv(self, relpath: str, header: list[str], rows) -> None:
        self._write_pieces(relpath, _csv_bytes(header, rows))

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


def write_simulation(out_dir, config_echo: dict, results: EnsembleResult,
                     formats=("csv",)) -> Path:
    """Write every trajectory plus the sealing manifest; returns the directory.

    Contiguous ranges of trajectories are written across as many worker
    processes as `run_ensemble` would use (QFILTER_THREADS caps both); the
    files and the manifest are byte-identical for any worker count."""
    if results.record is None or results.step_norms is None:
        raise ValueError("trajectory was slimmed; per-step payload is gone")
    writer = ArtifactWriter(out_dir)
    n_workers = resolve_workers(None, len(results))
    size = max(1, -(-len(results) // n_workers))
    bounds = [(lo, min(lo + size, len(results))) for lo in range(0, len(results), size)]

    def write_range(lo: int, hi: int) -> dict[str, dict]:  # their manifest entries
        part = ArtifactWriter(writer.directory)
        for i in range(lo, hi):
            write_trajectory(part, results[i], formats)
        return part.files

    for files in pool_map(write_range, bounds, n_workers):
        writer.files.update(files)
    seed_records = [
        {"trajectory_index": results.first_index + i, "master_seed": results.master_seed,
         "scheme": results.scheme, "n_steps": results.n_steps}
        for i in range(len(results))
    ]
    extra: dict = {"seed_records": seed_records}
    if "bin" in formats:
        extra["binary_states"] = {
            "dtype": "<f8",
            "layout": "rows of interleaved re/im amplitudes per snapshot",
            "dim": results.model.dim,
            "snapshots": results.states.shape[1],
        }
    writer.write_manifest("simulate", config_echo, extra)
    return writer.directory


def _master_header(dim: int) -> list[str]:
    return (["t"] + [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim)
                     for part in ("re", "im")] + ["trace"])


def _master_row(t, mat: np.ndarray, weight: float) -> np.ndarray:
    """One master.csv row: t, the row-major entries of one density matrix
    with re/im interleaved, as the header names them, and its weighted
    trace, taken as `DensityTrajectory.trace_series` takes it."""
    mats = np.ascontiguousarray(mat, dtype=complex)[None]
    trace = np.einsum("kii->k", mats).real * weight
    return np.concatenate([[t], mats.view(float).ravel(), trace])


def _received_rows(conn, dim: int, weight: float):
    """master.csv rows from the messages `MasterExport` sends, until an
    empty one."""
    while data := conn.recv_bytes():
        t, = struct.unpack_from("<d", data)
        mat = np.frombuffer(data, dtype=complex, offset=8).reshape(dim, dim)
        yield _master_row(t, mat, weight)


def _export_master(conn, parent_end, fh, dim: int, weight: float) -> None:
    """Body of the writer process: write master.csv to `fh` from the rows
    received on `conn`, then send back its manifest entry, or the exception
    that stopped it. EOF on `conn` means the solving process is gone."""
    parent_end.close()  # so that EOF reaches this process when the parent dies
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops this process
    try:
        with fh:
            rows = _received_rows(conn, dim, weight)
            # take the first row before the header is formatted, which takes
            # tens of ms for a wide table while the solver waits on its send
            first = next(rows)
            entry = _write_stream(fh, _csv_bytes(_master_header(dim),
                                                 itertools.chain([first], rows)))
    except EOFError:
        return
    except Exception as exc:  # reported to the parent, which raises it
        conn.send(exc)
        return
    conn.send(entry)


class MasterExport:
    """Writes `master.csv` into `out_dir` while `solve_master` runs.

    Pass `hook` as solve_master's `on_store` inside `with MasterExport(...)
    as export:`, then the finished history and this export to
    `write_master`. The first stored row creates the directory, opens the
    file and forks one writer process; each row is then sent to it through
    a pipe whose send blocks once the writer falls behind by more than the
    pipe buffers (for a wide table, one row), so the solver waits for it
    rather than queueing rows. `write_master` waits for the last row and
    seals the file. With one worker (`resolve_workers(None, 2) == 1`)
    `hook` is None and `write_master` formats the whole table after the
    solve. The bytes are the same either way.

    If the block raises, the writer is killed and what the export wrote
    (master.csv and the directories it created) is removed.
    """

    def __init__(self, out_dir, basis):
        self.directory = Path(out_dir)
        self.weight = basis.weight
        self.hook = self._send if resolve_workers(None, 2) > 1 else None
        self._conn = self._proc = None
        self._made: list[Path] = []
        self._opened = False

    @property
    def started(self) -> bool:
        return self._proc is not None

    def _start(self, dim: int) -> None:
        self._made = [d for d in (self.directory, *self.directory.parents) if not d.exists()]
        self.directory.mkdir(parents=True, exist_ok=True)
        fh = open(self.directory / "master.csv", "wb")
        self._opened = True
        # forked, not spawned, which would import numpy afresh first; fork
        # copies no BLAS thread, and the writer calls no BLAS routine
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        proc = ctx.Process(target=_export_master, daemon=True,
                           args=(child_end, self._conn, fh, dim, self.weight))
        try:
            proc.start()
        finally:
            fh.close()
            child_end.close()
        self._proc = proc

    def _send(self, t, rho: np.ndarray) -> None:
        if self._proc is None:
            self._start(rho.shape[0])
        self._put(struct.pack("<d", t) + rho.tobytes())

    def _put(self, data: bytes) -> None:
        try:
            self._conn.send_bytes(data)
        except OSError:  # the writer stopped; its own exception says why
            self._receive()
            raise

    def _receive(self) -> dict:
        try:
            result = self._conn.recv()
        except EOFError:
            self._proc.join()
            raise OSError(f"master.csv writer exited with code {self._proc.exitcode}") from None
        if isinstance(result, Exception):
            raise result
        return result

    def finish(self) -> dict:
        """Wait for the writer to write every row sent; master.csv's
        manifest entry."""
        self._put(b"")
        entry = self._receive()
        self._proc.join()
        return entry

    def __enter__(self) -> MasterExport:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._proc is not None and exc_type is not None:
            self._proc.kill()
        if self._conn is not None:
            self._conn.close()
        if self._proc is not None:
            self._proc.join()
        if exc_type is not None:
            if self._opened:
                (self.directory / "master.csv").unlink(missing_ok=True)
            for d in self._made:
                with contextlib.suppress(OSError):
                    d.rmdir()


def write_master(out_dir, config_echo: dict, dtraj: DensityTrajectory,
                 export: MasterExport | None = None) -> Path:
    """Write master.csv (one row per stored density matrix) and its
    manifest. With an `export` that ran during the solve, master.csv is
    already being written: wait for it and seal it."""
    writer = ArtifactWriter(out_dir)
    if export is not None and export.started:
        writer.files["master.csv"] = export.finish()
    else:
        weight = dtraj.basis.weight
        rows = (_master_row(t, mat, weight) for t, mat in zip(dtraj.times, dtraj.matrices))
        writer.write_csv("master.csv", _master_header(dtraj.matrices.shape[1]), rows)
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
    """Recompute every checksum in the manifest, 64 KiB at a time; returns the manifest."""
    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    problems = []
    for relpath, meta in manifest.get("files", {}).items():
        digest = hashlib.sha256()
        try:
            with open(run_dir / relpath, "rb") as fh:
                while chunk := fh.read(1 << 16):
                    digest.update(chunk)
        except OSError:
            problems.append(f"{relpath}: missing")
            continue
        if digest.hexdigest() != meta.get("sha256"):
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
