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
the same worker processes as `run_ensemble` (`solvers.pool_map`), each
writing a contiguous range and sending back its files' manifest entries.
`MasterExport` writes `master.csv` while `solve_master` runs, which then
keeps no history: each stored density matrix is formatted as the solver
hands it over, by one forked writer process that reads it from a pipe into
one reused buffer, or in the solving process with one worker
(QFILTER_THREADS caps this writer too), and the header is streamed one
matrix row of names at a time. So neither process holds the table, and the
bytes do not depend on the worker count. `write_master` seals the solver's
largest trace drift in the manifest under "diagnostics".

Only a process that hashes loads `hashlib` (OpenSSL's libcrypto): it is
imported where a file is sealed (`_Stream`) or checked
(`verify_artifacts`), and by `write_simulation` before its pool forks, so
its workers inherit it. Every fork is `solvers._Child`: `os.fork` and two
pipes, each a buffered file that carries pickles, so no process loads
`multiprocessing` or `concurrent.futures`. So with two or more workers a
`qfilter master` solving process loads neither OpenSSL nor a process
framework: only its forked writer hashes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pickle
import signal
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ArtifactMismatchError, ConfigError
from .solvers import (
    DensityTrajectory,
    EnsembleResult,
    TrajectoryResult,
    _Child,
    _reply,
    pool_map,
    resolve_workers,
)


# a number at 17 significant digits (round-trip exact for float64); the
# reference for `_FIELD`, which formats the same text inside a `%` call
format_float = "{:.17g}".format
_FIELD = "%.17g"

# about how many values one piece of CSV text holds
_PIECE_VALUES = 1 << 13


def _csv_pieces(header: list[str], table: np.ndarray):
    """The header line, then one line per row of the 2-D float `table`, each
    value as `format_float` writes it, as consecutive pieces of text of
    about _PIECE_VALUES values, each piece one `%` call over a block of
    rows."""
    yield ",".join(header) + "\n"
    table = table.astype(float, copy=False)
    line = ",".join([_FIELD] * table.shape[1]) + "\n"
    step = max(1, _PIECE_VALUES // max(1, table.shape[1]))
    for lo in range(0, len(table), step):
        block = table[lo:lo + step]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def _encoded(pieces):
    return (p.encode("utf-8") for p in pieces)


class _Stream:
    """An open binary file, written piece by piece in order and hashed as it
    goes, so a file is sealed without being held; `entry` is its manifest
    entry."""

    def __init__(self, fh):
        import hashlib  # OpenSSL loads only in a process that hashes

        self._fh = fh
        self._digest = hashlib.sha256()
        self._size = 0

    def write(self, pieces) -> None:
        for data in pieces:
            self._fh.write(data)
            self._digest.update(data)
            self._size += len(data)

    @property
    def entry(self) -> dict:
        return {"sha256": self._digest.hexdigest(), "bytes": self._size}


class ArtifactWriter:
    """Collects files under one directory and seals them with a manifest."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, dict] = {}

    def _write_pieces(self, relpath: str, pieces) -> None:
        """Write byte pieces in order, hashing them as they go, into a file
        whose directory exists."""
        with open(self.directory / relpath, "wb") as fh:
            out = _Stream(fh)
            out.write(pieces)
        self.files[relpath] = out.entry

    def write_bytes(self, relpath: str, data: bytes) -> None:
        self._write_pieces(relpath, (data,))

    def write_text(self, relpath: str, text: str) -> None:
        self.write_bytes(relpath, text.encode("utf-8"))

    def write_csv(self, relpath: str, header: list[str], table: np.ndarray) -> None:
        self._write_pieces(relpath, _encoded(_csv_pieces(header, table)))

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
    (writer.directory / sub).mkdir(exist_ok=True)
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
    import hashlib  # before the pool forks, so that its workers inherit OpenSSL

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


def _master_header(dim: int):
    """master.csv's header line, as pieces of one matrix row of names each:
    t, rho_i_j_re and rho_i_j_im of each row-major entry, then trace."""
    yield "t"
    for i in range(dim):
        yield "".join([f",rho_{i}_{j}_{part}" for j in range(dim) for part in ("re", "im")])
    yield ",trace\n"


def _master_row(t, mat: np.ndarray, weight: float):
    """One master.csv line, as the header names it, in pieces of one matrix
    row each: t, the row-major entries of one density matrix with re/im
    interleaved, and its weighted trace, taken as
    `DensityTrajectory.trace_series` takes it. Each value is written as
    `format_float` writes it. Pieces this small reuse the heap blocks the
    last ones freed; pieces of _PIECE_VALUES values grew the heap of the
    process by a few MB over a few dozen rows of a 256-point matrix."""
    mats = np.ascontiguousarray(mat, dtype=complex)[None]
    trace = np.einsum("kii->k", mats).real * weight
    row = "," + ",".join([_FIELD] * (2 * mats.shape[1]))
    yield _FIELD % float(t)
    for entries in mats[0].view(float):
        yield row % tuple(entries.tolist())
    yield f",{_FIELD}\n" % float(trace[0])


class _MasterTable(_Stream):
    """master.csv written into an open binary file: the header, then one row
    per `add`, each formatted and hashed as it is written, so neither the
    table nor its header is ever held."""

    def __init__(self, fh, dim: int, weight: float):
        super().__init__(fh)
        self.weight = weight
        self.write(_encoded(_master_header(dim)))

    def add(self, t, mat: np.ndarray) -> None:
        self.write(_encoded(_master_row(t, mat, self.weight)))


def _received(reader, dim: int):
    """(t, matrix) pairs from the rows `MasterExport` sends on `reader`, each
    a pickled time and then the matrix's raw bytes, until a pickled None.
    Every matrix is read into one buffer, which the next row overwrites."""
    mat = np.empty((dim, dim), dtype=complex)
    while (t := pickle.load(reader)) is not None:
        if reader.readinto(mat) < mat.nbytes:
            raise EOFError("pipe closed within a row")
        yield t, mat


def _export_master(reader, fh, dim: int, weight: float) -> dict:
    """Body of the writer process: write master.csv to `fh` from the rows
    read from `reader`; its manifest entry. EOFError means the solving
    process is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops this process
    with fh:
        rows = _received(reader, dim)
        # take the first row before the header is formatted, which takes a
        # few ms for a wide table while the solver waits on its send
        first = next(rows)
        table = _MasterTable(fh, dim, weight)
        for t, mat in itertools.chain([first], rows):
            table.add(t, mat)
    return table.entry


class MasterExport:
    """Writes `master.csv` into `out_dir` while `solve_master` runs.

    Pass `hook` as solve_master's `on_store` inside `with MasterExport(...)
    as export:`, then the result and this export to `write_master`. The
    solver then keeps no history: each stored matrix goes only to `hook`.
    The first one creates the directory and opens the file. With two or
    more workers (`resolve_workers(None, 2) > 1`) it also forks one writer
    process (`solvers._Child`), and each row goes to it as its time,
    pickled, and then its matrix's raw bytes, written straight from the
    solver's buffer, on a pipe whose write blocks once the writer falls
    behind by more than the pipe holds (for a wide table, less than a row),
    so the solver waits for it rather than queueing rows. The writer reads
    each matrix into one reused buffer, formats and hashes it, and at a
    pickled None replies with master.csv's manifest entry, or the exception
    that stopped it. It ignores SIGINT: the solving process stops it. With
    one worker, `hook` formats and hashes each row in the solving process as
    it is stored. Either way `write_master` waits for the last row and seals
    the file, and the bytes are the same.

    If the block raises, the writer is killed and what the export wrote
    (master.csv and the directories it created) is removed.
    """

    def __init__(self, out_dir, basis):
        self.directory = Path(out_dir)
        self.weight = basis.weight
        self._fork = resolve_workers(None, 2) > 1
        self._fh = self._table = self._proc = None
        self._made: list[Path] = []

    @property
    def started(self) -> bool:
        return self._fh is not None

    def _start(self, dim: int) -> None:
        self._made = [d for d in (self.directory, *self.directory.parents) if not d.exists()]
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fh = fh = open(self.directory / "master.csv", "wb")
        if not self._fork:
            self._table = _MasterTable(fh, dim, self.weight)
            return

        # forked, so the writer starts from this process's modules, numpy
        # included; fork copies no BLAS thread, and the writer calls no BLAS
        # routine
        def write(reader, writer) -> None:
            _reply(writer, lambda: _export_master(reader, fh, dim, self.weight))

        try:
            self._proc = _Child(write, "master.csv writer")
        finally:
            fh.close()

    def hook(self, t, rho: np.ndarray) -> None:
        """solve_master's `on_store`: one stored time and density matrix."""
        if self._fh is None:
            self._start(rho.shape[0])
        if self._table is not None:
            self._table.add(t, rho)
            return
        self._put(float(t), np.ascontiguousarray(rho))

    def _put(self, t: float | None, mat: np.ndarray | None = None) -> None:
        writer = self._proc.writer
        try:
            pickle.dump(t, writer)
            if mat is not None:
                writer.write(mat)
            writer.flush()
        except OSError:  # the writer stopped; its own exception says why
            self._proc.result()
            raise

    def finish(self) -> dict:
        """Wait for every row to be written; master.csv's manifest entry."""
        if self._table is not None:
            self._fh.close()
            return self._table.entry
        self._put(None)  # no more rows
        entry = self._proc.result()
        self._proc.end()
        return entry

    def __enter__(self) -> MasterExport:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._proc is not None:
            self._proc.end(kill=exc_type is not None)
        if self._fh is not None:
            self._fh.close()
        if exc_type is not None:
            if self._fh is not None:
                (self.directory / "master.csv").unlink(missing_ok=True)
            for d in self._made:
                with contextlib.suppress(OSError):
                    d.rmdir()


def write_master(out_dir, config_echo: dict, dtraj: DensityTrajectory,
                 export: MasterExport | None = None) -> Path:
    """Write master.csv (one row per stored density matrix) and its
    manifest. With an `export` that ran during the solve, master.csv is
    already written, or being written: wait for it and seal it. Without
    one, `dtraj` must hold its matrices (no `on_store` hook)."""
    writer = ArtifactWriter(out_dir)
    if export is not None and export.started:
        writer.files["master.csv"] = export.finish()
    else:
        matrices = dtraj._history()
        with open(writer.directory / "master.csv", "wb") as fh:
            table = _MasterTable(fh, matrices.shape[1], dtraj.basis.weight)
            for t, mat in zip(dtraj.times, matrices):
                table.add(t, mat)
        writer.files["master.csv"] = table.entry
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


def _regular_files(top, prefix: str = ""):
    """`/`-joined relative paths of the regular files under `top`, following no symlink."""
    for entry in os.scandir(top):
        if entry.is_dir(follow_symlinks=False):
            yield from _regular_files(entry.path, f"{prefix}{entry.name}/")
        elif entry.is_file(follow_symlinks=False):
            yield prefix + entry.name


def verify_artifacts(run_dir) -> dict:
    """Recompute every checksum in the manifest, 64 KiB at a time; returns the manifest.
    If a key names no regular file in the run directory (via no symlink), none is opened."""
    import hashlib

    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    files = manifest.get("files", {})
    present = set(_regular_files(run_dir))
    problems = [f"{k}: missing from the run directory" for k in files if k not in present]
    for relpath, meta in files.items() if not problems else ():
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
