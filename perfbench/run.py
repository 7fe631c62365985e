#!/usr/bin/env python3
"""Benchmark of the qfilter command line.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

Run it from anywhere inside a checkout; it drives the CLI of the checkout's
`src/qfilter`. Every command runs in a fresh interpreter with
PYTHONPATH=src and QFILTER_THREADS pinned to the usable cores. The seed
reaches the program only through `--seed` or
`--set ensemble.master_seed=...`.

With `--trace 0` the workload is repeated for `--seconds` (and at least its
`min_reps` times) and the last line of standard output is one JSON object
with the end-to-end metrics. With `--trace 1` a separate traced run wraps
the calls into each module's public functions and the JSON object holds the
per-layer metrics.
Every run also writes `.perfbench/results/<workload>-seed<N>-trace<T>.json`
with the environment, each repetition, its spans and its output checks.
The exit code is 0 only if every output check passed. `--size tiny` shrinks
every workload for the benchmark's own self-check.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().with_name("probe.py")
WORK = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
CLI_MAIN = "import sys; from qfilter.cli import main; sys.exit(main())"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_PROBES = 3  # in a traced run; an untraced run probes once per repetition, plus one

# The README qubit config at t_final=1.0 with 256 trajectories.
QUBIT = {
    "model": {"kind": "qubit", "h_field": [1.0, 0.0, 0.0], "channel": "sigma_z"},
    "constants": {"hbar": 1.0, "lambda": 1.0},
    "initial": {"amplitudes": [1.0, 0.0]},
    "sim": {"dt": 1e-3, "t_final": 1.0, "scheme": "nonlinear", "record_stride": 10},
    "ensemble": {"n_trajectories": 256, "master_seed": 0},
    "output": {"formats": ["csv"]},
}
MASTER_GRID = {
    "model": {"kind": "grid1d", "x_min": -20.0, "x_max": 20.0, "n_points": 256,
              "potential": "harmonic", "potential_params": {"omega": 0.5}},
    "constants": {"hbar": 1.0, "lambda": 1.0},
    "initial": {"gaussian": {"x0": 0.0, "p0": 0.0, "sigma": 1.0}},
    "sim": {"dt": 1e-3, "t_final": 0.3, "record_stride": 100},
    "ensemble": {"n_trajectories": 1, "master_seed": 0},
}
# The suite's own 0.05 bound sets the size. To t_final=0.5 the max distance
# misses it at 128 trajectories (0.073-0.086), at 512 on 1 of 12 seeds
# (0.051) and at 1024 on 1 of 31 (0.053). It grows with t: to 0.25 the worst
# of those seeds stays below 0.03 at 1024 trajectories.
VERIFY_GRID = {
    "model": {"kind": "grid1d", "x_min": -10.0, "x_max": 10.0, "n_points": 128,
              "potential": "harmonic", "potential_params": {"omega": 1.0}},
    "constants": {"hbar": 1.0, "lambda": 1.0},
    "initial": {"gaussian": {"x0": 1.0, "p0": 0.0, "sigma": 1.0}},
    "sim": {"dt": 1e-3, "t_final": 0.25, "scheme": "gauge"},
    "ensemble": {"n_trajectories": 1024, "master_seed": 0},
    "verify": {"ensemble": {"checkpoints": 20}},
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _n_steps(cfg: dict) -> int:
    return round(cfg["sim"]["t_final"] / cfg["sim"]["dt"])


def _manifest(run_dir: Path) -> dict:
    """Checksum-verified manifest of one artifact directory."""
    import qfilter

    try:
        return qfilter.verify_artifacts(run_dir)
    except qfilter.QFilterError as exc:
        raise CheckFailed(f"{run_dir.name}: {exc}") from None


def _check_simulation(cfg: dict, out: Path, seed: int) -> dict:
    manifest = _manifest(out / "sim")
    records = manifest["seed_records"]
    n_traj = cfg["ensemble"]["n_trajectories"]
    if len(records) != n_traj or any(r["master_seed"] != seed for r in records):
        raise CheckFailed(f"manifest lists {len(records)} trajectories, "
                          f"expected {n_traj} with master_seed {seed}")
    lines = (out / "sigma_z.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    n_rows = _n_steps(cfg) // cfg["sim"]["record_stride"] + 1
    if len(header) != n_traj + 3 or header[-2:] != ["mean", "stderr"] or len(lines) != n_rows + 1:
        raise CheckFailed(f"export has {len(header)} columns and {len(lines) - 1} rows")
    if any(abs(float(line.split(",")[-2])) > 1.0 for line in lines[1:]):
        raise CheckFailed("mean <sigma_z> leaves [-1, 1]")
    return {"sim": manifest}


def _check_master(cfg: dict, out: Path, seed: int) -> dict:
    manifest = _manifest(out / "master")
    if manifest["command"] != "master" or "master.csv" not in manifest["files"]:
        raise CheckFailed("master run wrote no master.csv")
    return {"master": manifest}


def _check_report(cfg: dict, out: Path, seed: int) -> dict:
    manifest = _manifest(out / "report")
    report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
    if report.get("passed") is not True:
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        raise CheckFailed(f"verify report failed {failed}")
    return {"report": manifest}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    commands: Callable[[str, Path, int], list[list[str]]]
    check: Callable[[dict, Path, int], dict]  # returns the manifest of each directory
    tiny: dict  # dotted config paths shrunk for the self-check
    trajectories: bool  # runs trajectories, so noise is generated
    min_reps: int  # repetitions in an untraced run, however short --seconds is


# An untraced run's median of three repetitions drops one slow spell of the
# machine. master-grid varies least between repetitions (dense BLAS), and a
# third repetition there would take its run past 40 s.
WORKLOADS = {w.name: w for w in [
    Workload(
        "simulate-qubit", QUBIT,
        lambda cfg, out, seed: [
            ["simulate", "--config", cfg, "--seed", str(seed), "--out", str(out / "sim")],
            ["export-plot", "--in", str(out / "sim"), "--what", "expectation:sigma_z",
             "--out", str(out / "sigma_z.csv")],
        ],
        _check_simulation,
        {"sim.t_final": 0.05, "ensemble.n_trajectories": 4},
        True, 3,
    ),
    Workload(
        "master-grid", MASTER_GRID,
        lambda cfg, out, seed: [
            ["master", "--config", cfg, "--set", f"ensemble.master_seed={seed}",
             "--out", str(out / "master")],
        ],
        _check_master,
        {"model.n_points": 16, "sim.t_final": 0.01, "sim.record_stride": 5},
        False, 2,
    ),
    Workload(
        "verify-ensemble-grid", VERIFY_GRID,
        lambda cfg, out, seed: [
            ["verify", "--suite", "ensemble", "--config", cfg,
             "--set", f"ensemble.master_seed={seed}", "--out", str(out / "report")],
        ],
        _check_report,
        {"model.n_points": 32, "sim.t_final": 0.02, "ensemble.n_trajectories": 64,
         "verify.ensemble.checkpoints": 4},
        True, 3,
    ),
]}


# --- processes ---------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["QFILTER_THREADS"] = str(NPROC)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one process to its end; wall time from launch to exit, and the
    peak RSS and CPU time of its whole process tree (pool workers included)."""
    t_launch = time.monotonic()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT, start_new_session=True)
    timer = threading.Timer(max(0.0, deadline - t_launch), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.monotonic() - t_launch
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"argv": argv[1:], "t_launch": t_launch, "wall_s": wall,
            "exit_code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def _log_tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-600:].strip()


def run_probe(wl: Workload, cfg_path: str, seed: int, work: Path, deadline: float) -> dict:
    """Fresh interpreter up to the first integrator call of the workload's
    first command; set-up time is measured from launch."""
    out = work / "probe"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    doc_path = out / "probe.json"
    args = wl.commands(cfg_path, out, seed)[0]
    cmd = launch([sys.executable, str(PROBE), "setup", str(doc_path), *args],
                 out / "probe.log", deadline)
    probe = {"problems": [], "command": cmd}
    if cmd["exit_code"] != 0:
        probe["problems"].append(f"set-up probe exited {cmd['exit_code']}: "
                                 f"{_log_tail(out / 'probe.log')}")
        return probe
    doc = json.loads(doc_path.read_text(encoding="utf-8"))
    probe["setup_s"] = doc["reached_integrator"] - cmd["t_launch"]
    probe["spans"] = doc["spans"]
    for name, prefixes in (("package.import_s", ("package.import",)),
                           ("config.parse_s", ("config.parse_config",)),
                           ("models.build_s", ("config.build_",))):
        probe[name] = sum(s["end"] - s["start"] for s in doc["spans"]
                          if s["name"].startswith(prefixes))
    return probe


def run_rep(wl: Workload, cfg: dict, cfg_path: str, seed: int, label: str, traced: bool,
            work: Path, deadline: float) -> dict:
    """One repetition of the workload's commands plus its output checks."""
    out = work / label
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rep = {"label": label, "seed": seed, "traced": traced, "commands": [], "problems": []}
    for i, args in enumerate(wl.commands(cfg_path, out, seed)):
        log = out / f"command{i}.log"
        if traced:
            spans_path = out / f"spans{i}.json"
            argv = [sys.executable, str(PROBE), "trace", str(spans_path), *args]
        else:
            argv = [sys.executable, "-c", CLI_MAIN, *args]
        cmd = launch(argv, log, deadline)
        rep["commands"].append(cmd)
        if cmd["exit_code"] != 0:
            rep["problems"].append(f"{args[0]} exited {cmd['exit_code']}: {_log_tail(log)}")
            break
        if traced:
            cmd["spans"] = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
            for span in cmd["spans"]:
                span["run_id"] = f"{label}/{i}"
    rep["wall_s"] = sum(c["wall_s"] for c in rep["commands"])
    rep["peak_rss_mb"] = max(c["peak_rss_mb"] for c in rep["commands"])
    rep["cpu_s"] = sum(c["cpu_s"] for c in rep["commands"])
    report_path = out / "report" / "report.json"
    if report_path.is_file():  # also after exit code 4, to report a miss as measured
        report = json.loads(report_path.read_text(encoding="utf-8"))
        rep["report_checks"] = {c["name"]: {"measured": c["measured"], "pass": c["pass"]}
                                for c in report["checks"]}
    if not rep["problems"]:
        try:
            manifests = wl.check(cfg, out, seed)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            rep["problems"].append(f"output check: {exc}")
        else:
            rep["manifest_sha256"] = {
                d: hashlib.sha256((out / d / "manifest.json").read_bytes()).hexdigest()
                for d in manifests}
            rep["output_bytes"] = sum(f["bytes"] for m in manifests.values()
                                      for f in m["files"].values())
            rep["output_files"] = sum(len(m["files"]) for m in manifests.values())
    shutil.rmtree(out, ignore_errors=True)
    return rep


def check_digests(reps: list[dict]) -> None:
    """Byte determinism: repeats of one seed within a run-set write the same
    manifest. Digests are compared only within the run-set."""
    by_seed: dict[int, str] = {}
    for rep in reps:
        digest = rep.get("manifest_sha256")
        if digest is None:
            continue
        first = by_seed.setdefault(rep["seed"], digest)
        if digest != first:
            rep["problems"].append(f"manifest digests {digest} differ from {first} "
                                   f"for seed {rep['seed']}")


# --- metrics -----------------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the part its children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def master_gflop(dim: int, n_channels: int, n_steps: int) -> float:
    """Computed: per RK4 stage K rho, rho K^dag and two products per channel,
    each a dense complex dim^3 product at 8 flop per multiply-add."""
    return n_steps * 4 * (2 + 2 * n_channels) * 8 * dim**3 / 1e9


def layer_metrics(rep: dict, run: dict) -> dict:
    """Per-layer metrics of one traced repetition; `run` holds what the run
    measured outside it (set-up probes, noise, untraced wall, extra seed)."""
    spans = [s for c in rep["commands"] for s in c.get("spans", [])]

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def attr_sum(name: str, fn) -> float:
        return sum(fn(s["attrs"]) for s in spans if s["name"] == name)

    cli_self = sum(c["wall_s"] - sum(s["end"] - s["start"] for s in c.get("spans", [])
                                     if s["parent"] is None)
                   for c in rep["commands"])
    suite_self = sum(t for c in rep["commands"]
                     for s, t in zip(c.get("spans", []), self_times(c.get("spans", [])))
                     if s["name"] == "suites.run_suite")
    ensemble_s = total("solvers.run_ensemble")
    traj_steps = attr_sum("solvers.run_ensemble", lambda a: a["n_trajectories"] * a["n_steps"])
    master_s = total("solvers.solve_master")
    master_steps = attr_sum("solvers.solve_master", lambda a: a["n_steps"])
    gflop = attr_sum("solvers.solve_master",
                     lambda a: master_gflop(a["dim"], a["n_channels"], a["n_steps"]))
    write_s = sum(total(n) for n in ("output.write_simulation", "output.write_master",
                                     "output.write_report"))
    extra_checks = run["extra_checks"]
    return {
        "package.import_s": (run["package.import_s"], "s"),
        "config.parse_s": (run["config.parse_s"], "s"),
        "models.build_s": (run["models.build_s"], "s"),
        "noise.generate_s": (run["noise.generate_s"], "s"),
        "noise.increments": (run["noise.increments"], "count"),
        "solvers.run_ensemble_s": (ensemble_s, "s"),
        "solvers.traj_steps": (traj_steps, "count"),
        "solvers.us_per_traj_step": (1e6 * ensemble_s / traj_steps if traj_steps else 0.0, "us"),
        "solvers.workers": (max([s["attrs"]["workers"] for s in spans
                                 if s["name"] == "solvers.run_ensemble"], default=0), "count"),
        "solvers.results_mb": (attr_sum("solvers.run_ensemble",
                                        lambda a: a["results_bytes"]) / 1e6, "MB"),
        "solvers.step_failures": (run["step_failures"], "count"),
        "solvers.solve_master_s": (master_s, "s"),
        "solvers.master_steps": (master_steps, "count"),
        "solvers.ms_per_master_step": (1e3 * master_s / master_steps if master_steps else 0.0,
                                       "ms"),
        "solvers.master_gflop": (gflop, "GFLOP"),
        "solvers.master_gflop_per_s": (gflop / master_s if master_s else 0.0, "GFLOP/s"),
        "analysis.ensemble_average_s": (total("analysis.ensemble_average"), "s"),
        "analysis.ensemble_vs_master_s": (total("analysis.ensemble_vs_master"), "s"),
        "analysis.snapshots_averaged": (attr_sum("analysis.ensemble_average",
                                                 lambda a: a["n_trajectories"] * a["n_snapshots"]),
                                        "count"),
        "suites.run_suite_s": (total("suites.run_suite"), "s"),
        "suites.self_s": (suite_self, "s"),
        "suites.checks": (attr_sum("suites.run_suite", lambda a: a["checks"]), "count"),
        "suites.checks_passed": (attr_sum("suites.run_suite", lambda a: a["checks_passed"]),
                                 "count"),
        "suites.extra_seed_max_distance": (
            extra_checks.get("mean_vs_master_max_distance", {}).get("measured", 0.0), "1"),
        "suites.extra_seed_passed": (int(bool(extra_checks) and
                                         all(c["pass"] for c in extra_checks.values())), "count"),
        "output.write_s": (write_s, "s"),
        "output.read_s": (total("output.export_plot"), "s"),
        "output.verify_artifacts_s": (total("output.verify_artifacts"), "s"),
        "output.bytes": (rep.get("output_bytes", 0), "bytes"),
        "output.files": (rep.get("output_files", 0), "count"),
        "output.write_mb_per_s": (rep.get("output_bytes", 0) / 1e6 / write_s if write_s else 0.0,
                                  "MB/s"),
        "cli.self_s": (cli_self, "s"),
        "cli.cpu_s": (rep["cpu_s"], "s"),
        "trace.wall_s": (rep["wall_s"], "s"),
        "trace.overhead_s": (rep["wall_s"] - run["untraced_wall_s"], "s"),
    }


# Counts that must repeat exactly between the two traced repetitions, which
# differ only in seed. output.bytes depends on the seed through the digits of
# the CSV numbers; it repeats within a seed because the manifests do.
COUNTS = ("noise.increments", "solvers.traj_steps", "solvers.workers", "solvers.results_mb",
          "solvers.master_steps", "solvers.master_gflop", "analysis.snapshots_averaged",
          "suites.checks", "output.files")


def time_noise(cfg: dict, seed: int) -> float:
    """Median of 3 passes of generate_noise over the workload's own (seed,
    index, dt, n_steps) set, called directly because pool workers are
    invisible from the parent."""
    from qfilter.noise import generate_noise

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for index in range(cfg["ensemble"]["n_trajectories"]):
            generate_noise(seed, index, cfg["sim"]["dt"], _n_steps(cfg))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end_metrics(probes: list[dict], reps: list[dict], runs: list[dict]) -> dict:
    ok = [r for r in reps if not r["problems"]]
    if not ok or not probes:
        return {}
    failed = sum(bool(r["problems"]) for r in runs)
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in ok), "unit": "s"},
        "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in ok), "unit": "MB"},
        "ok_frac": {"value": (len(runs) - failed) / len(runs), "unit": "fraction"},
    }


def trace_metrics(wl: Workload, cfg: dict, seed: int, probes: list[dict],
                  reps: list[dict]) -> dict:
    """Layer metrics of the traced repetitions: counts from the first, which
    runs the run's seed, and must repeat in the second; times are medians."""
    traced = [r for r in reps if r["traced"] and not r["problems"]]
    if not traced or not probes or reps[0]["problems"]:
        return {}
    run = {k: statistics.median(p[k] for p in probes)
           for k in ("package.import_s", "config.parse_s", "models.build_s")}
    run.update({
        "noise.generate_s": time_noise(cfg, seed) if wl.trajectories else 0.0,
        "noise.increments": cfg["ensemble"]["n_trajectories"] * _n_steps(cfg)
        if wl.trajectories else 0,
        "untraced_wall_s": reps[0]["wall_s"],
        "extra_checks": reps[-1].get("report_checks", {}),
        "step_failures": sum(c["exit_code"] == 3 for r in reps for c in r["commands"]),
    })
    per_rep = [layer_metrics(r, run) for r in traced]
    for r, m in zip(traced[1:], per_rep[1:]):
        r["problems"] += [f"count {name} did not repeat: {m[name][0]} != {per_rep[0][name][0]}"
                          for name in COUNTS if m[name] != per_rep[0][name]]
    return {name: {"value": value if name in COUNTS or name == "output.bytes"
                   else statistics.median(m[name][0] for m in per_rep), "unit": unit}
            for name, (value, unit) in per_rep[0].items()}


# --- environment ---------------------------------------------------------------

def _cache_bytes() -> dict:
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it exports the query."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str | None:
        config = getattr(module.__config__, "CONFIG", {})
        return config.get("Build Dependencies", {}).get("blas", {}).get("version")

    source = hashlib.sha256()
    for path in sorted((SRC / "qfilter").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "cache_bytes": _cache_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "QFILTER_THREADS": str(NPROC),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "platform": platform.platform(),
    }


# --- driver ------------------------------------------------------------------

def workload_config(wl: Workload, size: str) -> dict:
    cfg = json.loads(json.dumps(wl.config))
    if size == "tiny":
        for path, value in wl.tiny.items():
            *parents, key = path.split(".")
            section = cfg
            for name in parents:
                section = section[name]
            section[key] = value
    return cfg


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, size: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / "work" / f"{wl.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = workload_config(wl, size)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")

        def rep(label: str, traced: bool, rep_seed: int = seed) -> dict:
            return run_rep(wl, cfg, str(cfg_path), rep_seed, label, traced, work, deadline)

        def probe() -> dict:
            return run_probe(wl, str(cfg_path), seed, work, deadline)

        if trace:
            probes = [probe() for _ in range(SETUP_PROBES)]
            # The second traced repetition runs one extra seed. Its check result
            # is reported as measured: a statistical miss counts as a failure.
            reps = [rep("untraced", False), rep("traced", True),
                    rep("extra-seed", True, seed + 1)]
            check_digests(reps)
            metrics = trace_metrics(wl, cfg, seed, [p for p in probes if not p["problems"]],
                                    reps)
        else:
            # Probes interleave with the repetitions, so that a slow spell of
            # the machine does not hit every sample of one metric.
            probes, reps = [probe()], []
            t0 = time.monotonic()
            while len(reps) < wl.min_reps or (time.monotonic() - t0) * (len(reps) + 1) / len(reps) \
                    <= min(seconds, deadline - t0):
                reps.append(rep(f"rep{len(reps)}", False))
                probes.append(probe())
            check_digests(reps)
            metrics = end_to_end_metrics([p for p in probes if not p["problems"]], reps,
                                         probes + reps)
        runs = probes + reps
        failed = sum(bool(r["problems"]) for r in runs)
        result = {"correct": failed == 0 and bool(metrics), "attempted": len(runs),
                  "failed": failed, "metrics": metrics}
        record = {"workload": wl.name, "seed": seed, "trace": int(trace), "size": size,
                  "seconds": seconds, "config": cfg, "environment": environment(),
                  "probes": probes, "reps": reps, **result}
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")
        for r in runs:
            for problem in r["problems"]:
                print(f"{wl.name}: FAILED {problem}", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 - 1:
        parser.error("--seed must be a non-negative 64-bit integer")
    if not (SRC / "qfilter" / "__init__.py").is_file():
        print(f"error: no qfilter package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "qfilter"), quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), args.size)
        for metric, m in results[name]["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
