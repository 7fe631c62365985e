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
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["QFILTER_THREADS"] = "1"

# column: the scheme it runs
COLUMNS = {"nonlinear = linear": "nonlinear", "gauge": "gauge"}

# name: (dim, trajectories, steps, record stride, dt); qubit batches hold 256
# rows, the 128-point grid 128 rows and the 512-point grid 32. The 512-point
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
