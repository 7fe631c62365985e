"""The package namespace: the documented names, each resolving once, and an
import that loads none of the CLI's layers."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

import qfilter as qf


def test_exports_resolve_without_duplicates():
    names = qf.__all__
    assert len(names) == len(set(names)), "duplicate entries in qfilter.__all__"
    stale = [name for name in names if not hasattr(qf, name)]
    assert stale == [], f"qfilter.__all__ names missing attributes: {stale}"


# the numerical library the README documents, and the artifact check; the
# CLI's layers are imported from qfilter.config, qfilter.output and
# qfilter.suites
PUBLIC_NAMES = [
    "__version__",
    "QFilterError", "BasisMismatchError", "NormalizationError", "OracleSizeError",
    "StepFailureError", "InstabilityError", "UnsupportedConfigurationError",
    "ConfigError", "ArtifactMismatchError",
    "GridSpec", "Basis", "StateVector", "Operator", "DensityMatrix",
    "expectation", "projector", "trace_distance", "matrix_exp",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "ModelSpec", "GridPotential",
    "build_qubit_model", "build_grid_model", "gaussian_packet",
    "momentum_operator", "named_observable",
    "NoisePath", "MeasurementRecord", "generate_noise",
    "TrajectoryResult", "EnsembleResult", "DensityTrajectory", "run_trajectory",
    "run_ensemble", "solve_master", "solve_unitary",
    "fidelity", "pure_state_trace_distance", "ensemble_average", "ensemble_vs_master",
    "collapse_statistics", "variance_series", "time_average", "localization_metrics",
    "filtering_residual", "strong_order_estimate",
    "verify_artifacts",
]


def test_exports_are_the_documented_library():
    assert sorted(qf.__all__) == sorted(PUBLIC_NAMES)


def _fresh_import(code: str) -> str:
    pkg_root = str(Path(qf.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {pkg_root!r}); {code}"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_import_leaves_the_cli_layers_unloaded():
    loaded = _fresh_import("import qfilter; print(*sorted(sys.modules))").split()
    assert "qfilter.solvers" in loaded
    assert not {"qfilter.config", "qfilter.suites", "qfilter.cli"} & set(loaded)


def test_no_package_path_imports_scipy():
    """numpy is the only dependency: with every `import scipy...` made to
    raise, the calls that once loaded scipy (the collapse statistics'
    chi-square tail, the grid Crank-Nicolson solve, the dense exponential)
    still run."""
    out = _fresh_import("""sys.modules["scipy"] = None
import numpy as np
import qfilter as qf, qfilter.cli
qubit = qf.build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
plus = qf.StateVector(qubit.basis, np.array([1.0, 1.0]) / np.sqrt(2.0))
runs = qf.run_ensemble(qubit, plus, 1e-3, 2000, 5, 8, slim=True)
report = qf.collapse_statistics(runs, qf.named_observable(qubit, "sigma_z"))
assert report.n_unresolved < 8 and 0.0 < report.chi_square_p <= 1.0, report
spin = qf.build_qubit_model((0.0, 0.0, 1.0), lam=0.0)
assert abs(qf.solve_unitary(spin, plus, 1.0).norm() - 1.0) < 1e-12
grid = qf.build_grid_model(qf.GridSpec(-10.0, 10.0, 128), lam=0.0)
packet = qf.gaussian_packet(grid.basis, x0=1.0, sigma=1.0)
assert abs(qf.solve_unitary(grid, packet, 0.25).norm() - 1.0) < 1e-12
qf.matrix_exp(qf.Operator(qubit.basis, qf.SIGMA_Z), scale=1j)
qf.matrix_exp(qf.Operator(qubit.basis, qf.SIGMA_X), scale=1j)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))""")
    assert out.split() == ["['scipy']"]


def test_import_loads_neither_openssl_nor_the_process_pool():
    """`hashlib` (OpenSSL's libcrypto), the process pool and
    `multiprocessing` load only in the processes that hash or fork, so
    neither `import qfilter` nor `import qfilter.cli` adds any of them to
    what a fresh `import numpy` loaded (numpy 1.x may load more itself)."""
    names = ("_hashlib", "concurrent.futures", "multiprocessing")
    out = _fresh_import(f"names = {names!r}; import numpy; "
                        "print(*[m in sys.modules for m in names]); import qfilter; "
                        "print(*[m in sys.modules for m in names]); import qfilter.cli; "
                        "print(*[m in sys.modules for m in names])")
    with_numpy, with_qfilter, with_cli = out.splitlines()
    assert with_qfilter == with_numpy
    assert with_cli == with_numpy


@pytest.mark.skipif(qf.solvers._cpus() < 2, reason="one core forks no master.csv writer")
def test_forked_processes_load_no_process_framework():
    """A two-worker `pool_map` and a forked `MasterExport` writer use bare
    `os.fork` and pipes: neither the forking process nor any child loads
    `concurrent.futures` or `multiprocessing` beyond what a fresh `import
    numpy` loaded."""
    out = _fresh_import(
        "import os, tempfile, numpy; names = ('concurrent.futures', 'multiprocessing'); "
        "os.environ['QFILTER_THREADS'] = '2'; "
        "before = [m in sys.modules for m in names]; "
        "import qfilter as qf; from qfilter import output, solvers; "
        "same = lambda: before == [m in sys.modules for m in names]; "
        "print(*solvers.pool_map(lambda lo, hi: same(), [(0, 1), (1, 2)], 2)); "
        "body = output._export_master; "
        "output._export_master = lambda *a: (body(*a), same())[1]; "
        "tmp = tempfile.TemporaryDirectory(); "
        "export = output.MasterExport(tmp.name, qf.Basis.finite(2)); "
        "export.hook(0.0, numpy.eye(2, dtype=complex) / 2); "
        "print(export.finish(), same()); tmp.cleanup()")
    workers, writer = out.splitlines()
    assert workers == "True True"
    assert writer == "True True"  # the writer's flag, which `finish` returns, and this one


def test_readme_python_examples_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert blocks, "README.md has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
