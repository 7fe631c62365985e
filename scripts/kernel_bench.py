"""Microseconds per trajectory-step of the trajectory kernel, by scheme and
model, and the set-up a run makes before its first step.

    python scripts/kernel_bench.py              # the tables, median of 5 runs
    python scripts/kernel_bench.py --tiny       # a seconds-long smoke run
    python scripts/kernel_bench.py --src PATH   # time the package under PATH

Each case times `run_ensemble` in this one process (`QFILTER_THREADS=1`,
`OPENBLAS_NUM_THREADS=1`, both set before numpy loads) after one untimed
warm-up run, and reports wall time divided by trajectories x steps. The
nonlinear and linear schemes are one computation, the record-driven map
renormalized per step, so one column times it, under `nonlinear = linear`
(the run is labelled nonlinear); the gauge scheme has its own. The
models are the README qubit (sigma_x field, sigma_z channel) and harmonic
grids of 128 and 512 points on [-10, 10] with a Gaussian packet at x0 = 1,
the model of the `verify-ensemble-grid` benchmark workload; every grid run
keeps slim results, as that workload does.

The set-up table times, on harmonic grids of 128, 512 and 2048 points
(128 and 512 with `--tiny`), each stage of a gauge run's set-up on a fresh
model: `build_grid_model`, the first read of `generator` and of
`gauge_core`, and `solvers._prepare` with the x, x2 and p observables. Each
cell is the median wall time of the runs, then the traced peak of one more
run above what was allocated before the stage began (`tracemalloc`).

The master-stage table times `solvers._banded_stage`, the set-up of the
banded averaged-equation solver, on the harmonic grids of 128 and 512
points (`solve_master` refuses more): the median wall time of the runs,
then, for one more run, its traced peak and the traced memory the built
stage still holds.

The batch table gives, for one batch of 8 rows over 20 000 steps (500 with
`--tiny`) on the README qubit and the 128-point grid, the traced peak of a
run per row-step: drawing its noise with a slim result, drawing it and
keeping its step norms and record, and replaying that record. The result's
arrays live in a shared mapping, which tracemalloc does not trace, and a
batch's only per-step array is its noise table: a drawn batch peaks at
about twice its 8 bytes per row-step, and a replayed one, whose table its
caller holds, at its workspace spread over the steps. It then
lists how `run_ensemble` splits four runs into batches with one worker and
with two, read from the ranges `_drive` hands to `solvers.pool_map`, which
is replaced for this so that no trajectory is advanced. A batch holds at
most half a fold block, so the `verify-ensemble-grid` run makes 64-row
batches, and the two that two workers keep in flight fill one block of the
stream's ring.

The ensemble-averaging tables time `analysis._fold_block`, the fold of one
block of trajectories into the mean, at the shape of the
`verify-ensemble-grid` workload: 128 rows x 22 snapshots x 128 points, the
median of the runs with numpy's OpenBLAS on one thread, as the fold's guard
sets it, and on as many threads as cores, numpy's default when no
variable pins it. They then give the peak of one process computing the mean
of that workload's gauge run (250 steps, stride 12, slim) for two ensemble
sizes: collected with `run_ensemble` and then averaged, and streamed from
`solvers._ensemble_stream` through `ensemble_average`, which folds each
block of 128 trajectories where the stream's ring holds it; with the one
worker here the ring is that one block. The peak is the traced peak plus
the bytes of the shared mappings the run makes, which tracemalloc does not
trace.

The master-export table runs `qfilter master` on the model of the
`master-grid` benchmark workload (a 256-point harmonic grid, 32 points with
`--tiny`), each run in a fresh child process, as the workload stores it
(t_final 0.3, stride 100: 4 rows) and storing every step (t_final 0.05,
stride 1: 51 rows), under QFILTER_THREADS 1 and 2. It gives the peak RSS
of the solving process (VmHWM) and the `ru_maxrss` of the forked master.csv
writer, its only child (none with one worker).

The footprint table imports `numpy`, then `qfilter.cli`, each in a fresh
child process with the package under `--src`, and gives the median wall
time of the child (interpreter start included), its peak RSS (VmHWM) and
which of `_hashlib` (OpenSSL), `concurrent.futures` (the process pool) and
`multiprocessing` the import loaded. The package loads none of them itself:
only the processes that hash or fork do.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["QFILTER_THREADS"] = "1"

# column: the scheme it runs
COLUMNS = {"nonlinear = linear": "nonlinear", "gauge": "gauge"}

# name: (dim, trajectories, steps, record stride, dt); qubit batches hold 256
# rows, and grid batches half a fold block: 64 rows on the 128-point grid and
# 16 on the 512-point grid. The 512-point
# grid steps at dt = 1e-4: at 1e-3 its Euler-type steps are unstable and the
# packet reaches the walls.
CASES = {
    "qubit": (2, 256, 1000, 10, 1e-3),
    "grid128": (128, 256, 250, 25, 1e-3),
    "grid512": (512, 64, 100, 25, 1e-4),
}
TINY = {
    "qubit": (2, 16, 50, 10, 1e-3),
    "grid128": (128, 8, 20, 10, 1e-3),
    "grid512": (512, 4, 10, 5, 1e-4),
}


def _case(qf, dim: int):
    """The model, initial state and observables of one case."""
    if dim == 2:
        model = qf.build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
        initial = qf.StateVector(model.basis, [1.0, 0.0])
        names = ("sigma_z", "sigma_x")
    else:
        grid = qf.GridSpec(-10.0, 10.0, dim)
        model = qf.build_grid_model(grid, qf.GridPotential.harmonic(grid, 1.0), lam=1.0)
        initial = qf.gaussian_packet(model.basis, x0=1.0, sigma=1.0)
        names = ("x", "x2", "p")
    return model, initial, {name: qf.named_observable(model, name) for name in names}


def measure(qf, size: tuple, repeats: int) -> dict:
    """Median µs per trajectory-step of each column's scheme on one case."""
    dim, n_traj, n_steps, stride, dt = size
    model, initial, obs = _case(qf, dim)
    row = {}
    for column, scheme in COLUMNS.items():
        def run():
            return qf.run_ensemble(model, initial, dt, n_steps, 0, n_traj, scheme=scheme,
                                   observables=obs, record_stride=stride, slim=dim > 2)

        run()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        row[column] = 1e6 * statistics.median(times) / (n_traj * n_steps)
    return row


SETUP_POINTS = (128, 512, 2048)
TINY_SETUP_POINTS = (128, 512)
SETUP_STAGES = ("build", "generator", "gauge_core", "_prepare")


def _setup_stages(qf, dim: int):
    """The set-up of a gauge run on a fresh `dim`-point harmonic grid, in
    order, as (name, thunk) pairs; the stage named "inputs" (the packet and
    observables `_prepare` reads) is not one of SETUP_STAGES."""
    from qfilter import solvers

    grid = qf.GridSpec(-10.0, 10.0, dim)
    state = {}

    def build():
        state["model"] = qf.build_grid_model(grid, qf.GridPotential.harmonic(grid, 1.0), lam=1.0)

    def inputs():
        model = state["model"]
        state["initial"] = qf.gaussian_packet(model.basis, x0=1.0, sigma=1.0)
        state["obs"] = {name: qf.named_observable(model, name) for name in ("x", "x2", "p")}

    def prepare():
        solvers._prepare(state["model"], state["initial"], "gauge", 1e-4, 10, 5, state["obs"], 0)

    return [("build", build), ("inputs", inputs),
            ("generator", lambda: state["model"].generator),
            ("gauge_core", lambda: state["model"].gauge_core), ("_prepare", prepare)]


def measure_setup(qf, dim: int, repeats: int) -> dict:
    """Per stage: (median seconds, traced peak bytes above the stage's start)."""
    times = {name: [] for name in SETUP_STAGES}
    for _ in range(repeats):
        for name, stage in _setup_stages(qf, dim):
            start = time.perf_counter()
            stage()
            if name in times:
                times[name].append(time.perf_counter() - start)
    peaks = {}
    tracemalloc.start()
    try:
        for name, stage in _setup_stages(qf, dim):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            stage()
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return {name: (statistics.median(times[name]), peaks[name]) for name in SETUP_STAGES}


STAGE_POINTS = (128, 512)


def measure_stage(qf, dim: int, repeats: int) -> tuple[float, int, int]:
    """(median seconds, traced peak bytes, traced bytes held) of building the
    banded master stage of a `dim`-point harmonic grid, its K formed first."""
    from qfilter import solvers

    grid = qf.GridSpec(-10.0, 10.0, dim)
    model = qf.build_grid_model(grid, qf.GridPotential.harmonic(grid, 1.0), lam=1.0)
    generator, channels = model.generator, model.channels
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        solvers._banded_stage(generator, channels)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        stage = solvers._banded_stage(generator, channels)  # alive while memory is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert callable(stage)
    return statistics.median(times), peak, held


BATCH_ROWS, BATCH_STEPS, TINY_BATCH_STEPS = 8, 20000, 500


def _traced(run) -> tuple[int, object]:
    """(traced peak bytes, result) of run()."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def measure_batch(qf, dim: int, n_steps: int) -> dict:
    """Per column's scheme: traced peak bytes per row-step of a batch that
    draws its noise (slim result), draws it and keeps its series, and
    replays the kept record."""
    from qfilter import solvers

    model, initial, _ = _case(qf, dim)
    dt, row = 1e-4, {}
    for column, scheme in COLUMNS.items():
        def ensemble(slim: bool):
            return lambda: qf.run_ensemble(model, initial, dt, n_steps, 0, BATCH_ROWS,
                                           scheme=scheme, record_stride=n_steps, slim=slim)

        qf.run_ensemble(model, initial, dt, 1, 0, 1, scheme=scheme)  # lazy imports load untraced
        drawn, _ = _traced(ensemble(True))
        kept, result = _traced(ensemble(False))
        replayed, _ = _traced(lambda: solvers._run_rows(
            model, initial, dt, n_steps, 0, 0, scheme, result.record, replay=True,
            record_stride=n_steps))
        row[column] = [peak / (BATCH_ROWS * n_steps) for peak in (drawn, kept, replayed)]
    return row


def batch_runs(qf) -> dict:
    """name: a thunk making the run as its caller does (the batch widths
    depend only on dim, trajectories, steps and channels, so the README qubit
    stands in for the order suite's model): the order suite's reference run,
    32 seeds of 64 000 steps; the born suite's 2000 trajectories of 5000
    steps; and the runs of the `simulate-qubit` and `verify-ensemble-grid`
    benchmark workloads."""
    import numpy as np
    from qfilter import solvers

    qubit, ket, _ = _case(qf, 2)
    grid, packet, _ = _case(qf, 128)
    return {
        "order reference": lambda: solvers._run_rows(
            qubit, ket, 1e-3 / 64, 64000, 0, 0, "nonlinear", np.zeros((32, 64000, 1)),
            record_stride=64000),
        "born": lambda: qf.run_ensemble(qubit, ket, 1e-3, 5000, 7, 2000, record_stride=100,
                                        slim=True),
        "simulate-qubit": lambda: qf.run_ensemble(qubit, ket, 1e-3, 1000, 0, 256,
                                                  record_stride=10),
        "verify-ensemble-grid": lambda: qf.run_ensemble(grid, packet, 1e-3, 250, 0, 1024,
                                                        scheme="gauge", record_stride=12,
                                                        slim=True),
    }


def batches(run, workers: int) -> list[tuple[int, int]]:
    """The (lo, hi) batch ranges `run()` makes with QFILTER_THREADS=workers,
    intercepted at `solvers.pool_map`, which then advances nothing."""
    import numpy as np
    from qfilter import solvers

    seen = []

    def record(fn, bounds, n_workers):
        seen.extend(bounds)
        return (np.full(hi - lo, -1) for lo, hi in bounds)

    pool_map, solvers.pool_map = solvers.pool_map, record
    os.environ["QFILTER_THREADS"] = str(workers)
    try:
        run()
    finally:
        solvers.pool_map = pool_map
        os.environ["QFILTER_THREADS"] = "1"
    return seen


FOLD_SHAPE = (128, 22, 128)  # rows x snapshots x points of one folded block
MEAN_COUNTS, TINY_MEAN_COUNTS = (256, 1024), (16, 64)


def measure_fold(repeats: int) -> dict:
    """threads: median ms per folded block of FOLD_SHAPE, at one OpenBLAS
    thread (the guard's) and, when `_openblas` finds the library, at as many
    as cores."""
    import numpy as np
    from qfilter import analysis

    rows, snaps, dim = FOLD_SHAPE
    rng = np.random.default_rng(0)
    block = rng.standard_normal((rows, snaps, dim)) + 1j * rng.standard_normal((rows, snaps, dim))
    acc = np.zeros((snaps, dim, dim), dtype=complex)

    def timed() -> float:
        analysis._fold_block(acc, block)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            analysis._fold_block(acc, block)
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.median(times)

    with analysis._one_blas_thread():
        row = {1: timed()}
    lib = analysis._openblas()
    if lib is not None:
        get, put = lib
        before, cores = get(), os.cpu_count() or 1
        put(cores)
        try:
            row[cores] = timed()
        finally:
            put(before)
    return row


def _mapped_peak(run) -> int:
    """Traced peak bytes of run() plus the shared mappings it makes."""
    import mmap

    mapped, real = [], mmap.mmap

    def counted(*args, **kwargs):
        region = real(*args, **kwargs)
        mapped.append(len(region))
        return region

    mmap.mmap = counted
    try:
        return _traced(run)[0] + sum(mapped)
    finally:
        mmap.mmap = real


def measure_mean(qf, n_traj: int) -> tuple[int, int]:
    """(collected, streamed) peak bytes of the mean of the 128-point gauge
    run of `n_traj` trajectories, in one process."""
    from qfilter import analysis, solvers

    model, initial, _ = _case(qf, 128)
    args = (model, initial, 1e-3, 250, 0, n_traj)
    qf.run_ensemble(model, initial, 1e-3, 1, 0, 1, scheme="gauge")  # lazy imports load untraced
    collected = _mapped_peak(lambda: analysis.ensemble_average(
        qf.run_ensemble(*args, scheme="gauge", record_stride=12, slim=True)))
    streamed = _mapped_peak(lambda: analysis.ensemble_average(
        solvers._ensemble_stream(*args, scheme="gauge", record_stride=12)))
    return collected, streamed


# the model of the master-grid benchmark workload; n_points, t_final and
# record_stride are set per run
MASTER_GRID = {
    "model": {"kind": "grid1d", "x_min": -20.0, "x_max": 20.0, "n_points": 256,
              "potential": "harmonic", "potential_params": {"omega": 0.5}},
    "constants": {"hbar": 1.0, "lambda": 1.0},
    "initial": {"gaussian": {"x0": 0.0, "p0": 0.0, "sigma": 1.0}},
    "sim": {"dt": 1e-3, "t_final": 0.3, "record_stride": 100},
    "ensemble": {"n_trajectories": 1, "master_seed": 0},
}
MASTER_POINTS, TINY_MASTER_POINTS = 256, 32
# label: (t_final, record_stride)
MASTER_STORES = {"workload (4 rows)": (0.3, 100), "every step (51 rows)": (0.05, 1)}
# runs the CLI, then prints its exit code, this process's peak RSS and the
# ru_maxrss of its largest waited-for child, the writer, both in KiB. The
# peak is VmHWM, the peak of this program image: RUSAGE_SELF would also
# count the launching process, whose peak an exec keeps in ru_maxrss.
MASTER_CHILD = """
import resource, sys
from qfilter.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="utf-8") as fh:
    own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def measure_master_export(src: Path, dim: int, t_final: float, stride: int,
                          workers: int) -> tuple[float, float]:
    """(solving process, writer) peak RSS in MiB of one `qfilter master`
    run in a child process with QFILTER_THREADS=workers."""
    cfg = dict(MASTER_GRID, model=dict(MASTER_GRID["model"], n_points=dim),
               sim=dict(MASTER_GRID["sim"], t_final=t_final, record_stride=stride))
    env = dict(os.environ, PYTHONPATH=str(src), QFILTER_THREADS=str(workers))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "master.json")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-c", MASTER_CHILD, "master", "--config", str(path),
             "--out", str(Path(tmp, "run"))],
            env=env, capture_output=True, text=True, check=True)
    code, own, writer = map(int, done.stdout.split("\n")[-2].split())
    if code != 0:
        raise RuntimeError(f"qfilter master exited {code}: {done.stderr}")
    return own / 1024, writer / 1024


FOOTPRINT_MODULES = ("_hashlib", "concurrent.futures", "multiprocessing")
# imports the module named by its first argument, then prints its peak RSS
# (VmHWM) in KiB and, for each later argument, whether that module is loaded
FOOTPRINT_CHILD = """
import importlib, sys
importlib.import_module(sys.argv[1])
with open("/proc/self/status", encoding="utf-8") as fh:
    own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(own, *[m in sys.modules for m in sys.argv[2:]])
"""


def measure_footprint(src: Path, module: str, repeats: int) -> tuple[float, float, list[str]]:
    """(median wall seconds, median peak RSS in MiB, the FOOTPRINT_MODULES
    loaded) of a fresh child that imports `module` from the package under
    `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    walls, peaks = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", FOOTPRINT_CHILD, module, *FOOTPRINT_MODULES],
                              env=env, capture_output=True, text=True, check=True)
        walls.append(time.perf_counter() - start)
        own, *loaded = done.stdout.split()
        peaks.append(int(own) / 1024)
    return (statistics.median(walls), statistics.median(peaks),
            [m for m, flag in zip(FOOTPRINT_MODULES, loaded) if flag == "True"])


def _cell(seconds: float, peak: int) -> str:
    wall = f"{1e3 * seconds:.2f} ms" if seconds < 1.0 else f"{seconds:.2f} s"
    return f"{wall}, {peak / 2**20:.2f} MiB"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="small sizes, one timed run")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the qfilter package to time")
    args = parser.parse_args(argv)
    cases, repeats = (TINY, 1) if args.tiny else (CASES, 5)
    sys.path.insert(0, str(args.src))
    import qfilter as qf

    print(f"µs per trajectory-step, median of {repeats} ({qf.__file__})")
    print("| case | " + " | ".join(COLUMNS) + " |")
    print("|---|" + "---|" * len(COLUMNS))
    for name, size in cases.items():
        row = measure(qf, size, repeats)
        cells = [f"{row[c]:.2f}" for c in COLUMNS]
        print(f"| {name} ({size[1]} x {size[2]}) | " + " | ".join(cells) + " |")

    print(f"\nset-up of a gauge run: median wall time of {repeats}, traced peak")
    print("| points | " + " | ".join(SETUP_STAGES) + " |")
    print("|---|" + "---|" * len(SETUP_STAGES))
    for dim in TINY_SETUP_POINTS if args.tiny else SETUP_POINTS:
        row = measure_setup(qf, dim, repeats)
        print(f"| {dim} | " + " | ".join(_cell(*row[name]) for name in SETUP_STAGES) + " |")

    print(f"\nbatch of {BATCH_ROWS} rows: traced bytes per row-step, drawn slim / drawn kept"
          " / replayed")
    print("| case | " + " | ".join(COLUMNS) + " |")
    print("|---|" + "---|" * len(COLUMNS))
    for dim in (2, 128):
        row = measure_batch(qf, dim, TINY_BATCH_STEPS if args.tiny else BATCH_STEPS)
        print(f"| {'qubit' if dim == 2 else f'grid{dim}'} | "
              + " | ".join(" / ".join(f"{b:.1f}" for b in row[c]) for c in COLUMNS) + " |")
    print("\nbatches x rows of each run (the last batch may be narrower)")
    print("| run | 1 worker | 2 workers |")
    print("|---|---|---|")
    for name, run in batch_runs(qf).items():
        print(f"| {name} | " + " | ".join(
            f"{len(b)} x {b[0][1] - b[0][0]}" for b in (batches(run, w) for w in (1, 2))) + " |")

    fold = measure_fold(repeats)
    print(f"\nensemble averaging: ms per folded block of {' x '.join(map(str, FOLD_SHAPE))}"
          f" (rows x snapshots x points), median of {repeats}")
    print("| OpenBLAS threads | " + " | ".join(
        f"{t} (the guard's)" if t == 1 else str(t) for t in fold) + " |")
    print("|---|" + "---|" * len(fold))
    print("| ms per block | " + " | ".join(f"{ms:.2f}" for ms in fold.values()) + " |")
    print("\npeak of the mean of the 128-point gauge run, one process: traced + shared mappings")
    print("| trajectories | collected | streamed |")
    print("|---|---|---|")
    for n_traj in TINY_MEAN_COUNTS if args.tiny else MEAN_COUNTS:
        collected, streamed = measure_mean(qf, n_traj)
        print(f"| {n_traj} | {collected / 2**20:.2f} MiB | {streamed / 2**20:.2f} MiB |")

    # the child processes below import bytecode compiled here, as perfbench's
    # do: under PYTHONDONTWRITEBYTECODE a stale cache would be compiled
    # afresh in each child, which raises its peak by a few MiB
    compileall.compile_dir(str(args.src / "qfilter"), quiet=1)
    dim = TINY_MASTER_POINTS if args.tiny else MASTER_POINTS
    print(f"\nqfilter master on the {dim}-point master-grid model: peak RSS of the solving"
          " process (VmHWM) / ru_maxrss of the master.csv writer, one child process per run")
    print("| stored | 1 worker | 2 workers |")
    print("|---|---|---|")
    for label, (t_final, stride) in MASTER_STORES.items():
        cells = []
        for workers in (1, 2):
            own, writer = measure_master_export(args.src, dim, t_final, stride, workers)
            cells.append(f"{own:.1f} / {writer:.1f} MiB" if writer else f"{own:.1f} MiB / none")
        print(f"| {label} | " + " | ".join(cells) + " |")

    print(f"\nimport footprint of a fresh child process: median of {repeats} ({args.src})")
    print("| import | wall | peak RSS (VmHWM) | which of " + ", ".join(FOOTPRINT_MODULES) + " it loaded |")
    print("|---|---|---|---|")
    for module in ("numpy", "qfilter.cli"):
        wall, peak, loaded = measure_footprint(args.src, module, repeats)
        print(f"| {module} | {1e3 * wall:.0f} ms | {peak:.1f} MiB | {', '.join(loaded) or 'none'} |")

    print(f"\nbanded master stage: median wall time of {repeats}, traced peak, traced held")
    print("| points | _banded_stage | held |")
    print("|---|---|---|")
    for dim in STAGE_POINTS:
        seconds, peak, held = measure_stage(qf, dim, repeats)
        print(f"| {dim} | {_cell(seconds, peak)} | {held / 2**20:.2f} MiB |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
