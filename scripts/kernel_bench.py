"""Microseconds per trajectory-step of the trajectory kernel, by scheme and model.

    python scripts/kernel_bench.py              # the table, median of 5 runs
    python scripts/kernel_bench.py --tiny       # a seconds-long smoke run
    python scripts/kernel_bench.py --src PATH   # time the package under PATH

Each case times `run_ensemble` in this one process (`QFILTER_THREADS=1`,
`OPENBLAS_NUM_THREADS=1`, both set before numpy loads) after one untimed
warm-up run, and reports wall time divided by trajectories x steps. The
models are the README qubit (sigma_x field, sigma_z channel) and harmonic
grids of 128 and 512 points on [-10, 10] with a Gaussian packet at x0 = 1,
the model of the `verify-ensemble-grid` benchmark workload; every grid run
keeps slim results, as that workload does.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["QFILTER_THREADS"] = "1"

SCHEMES = ("nonlinear", "linear", "gauge")

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
    """Median µs per trajectory-step of each scheme on one case."""
    dim, n_traj, n_steps, stride, dt = size
    model, initial, obs = _case(qf, dim)
    row = {}
    for scheme in SCHEMES:
        def run():
            return qf.run_ensemble(model, initial, dt, n_steps, 0, n_traj, scheme=scheme,
                                   observables=obs, record_stride=stride, slim=dim > 2)

        run()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        row[scheme] = 1e6 * statistics.median(times) / (n_traj * n_steps)
    return row


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
    print("| case | " + " | ".join(SCHEMES) + " |")
    print("|---|" + "---|" * len(SCHEMES))
    for name, size in cases.items():
        row = measure(qf, size, repeats)
        cells = [f"{row[s]:.2f}" for s in SCHEMES]
        print(f"| {name} ({size[1]} x {size[2]}) | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
