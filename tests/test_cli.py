"""Command line driver: exit codes, stdout contracts, artifact round trips."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import qfilter as qf
from qfilter import cli
from qfilter.cli import main


def _write_cfg(tmp_path, **sections):
    data = {
        "model": {"kind": "qubit", "h_field": [1.0, 0.0, 0.0], "channel": "sigma_z"},
        "initial": {"amplitudes": [1.0, 0.0]},
        "sim": {"dt": 1e-3, "t_final": 0.05, "record_stride": 10},
        "ensemble": {"n_trajectories": 2, "master_seed": 3},
    }
    data.update(sections)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _checkout_env(**overrides) -> dict:
    """Environment for a child that imports the same checkout as this
    session, whatever its cwd."""
    env = dict(os.environ, **overrides)
    pkg_root = str(Path(qf.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return env


def test_simulate_writes_a_sealed_run(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "run"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert f"wrote 2 trajectories to {out}" in capsys.readouterr().out
    manifest = qf.verify_artifacts(out)
    assert manifest["command"] == "simulate"
    assert manifest["config"]["ensemble"] == {"n_trajectories": 2, "master_seed": 3}


def test_simulate_flag_overrides_land_in_the_manifest(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "run"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out),
               "--seed", "11", "--trajectories", "3",
               "--set", "sim.record_stride=25"])
    assert rc == 0
    assert "wrote 3 trajectories" in capsys.readouterr().out
    manifest = qf.load_manifest(out)
    echo = manifest["config"]
    assert echo["ensemble"] == {"n_trajectories": 3, "master_seed": 11}
    assert echo["sim"]["record_stride"] == 25
    assert len(manifest["seed_records"]) == 3


def test_config_failures_exit_2(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = str(tmp_path / "run")

    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", out]) == 2
    assert "cannot read" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", out]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    assert main(["simulate", "--config", str(cfg_path), "--set", "sim.dt",
                 "--out", out]) == 2
    assert "PATH=VALUE" in capsys.readouterr().err

    assert main(["simulate", "--config", str(cfg_path), "--set", "sim.scheme=heun",
                 "--out", out]) == 2
    assert "sim.scheme" in capsys.readouterr().err

    # t_final / dt overflows: a validation problem, not a crash
    assert main(["simulate", "--config", str(cfg_path), "--set", "sim.dt=5e-324",
                 "--out", out]) == 2
    assert "sim.t_final: step count must be finite" in capsys.readouterr().err

    # inline observable entries must be finite numbers, not numeric strings
    matrix = {"re": [["1", "nan"], ["0", "inf"]]}
    assert main(["simulate", "--config", str(cfg_path), "--set",
                 f"sim.observables={json.dumps([{'name': 'a', 'matrix': matrix}])}",
                 "--out", out]) == 2
    assert "sim.observables[0].matrix.re[0][1]: must be a number" in capsys.readouterr().err


def test_usage_errors_exit_2_and_help_exits_0(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "simulate" in out
    assert "verify" in out
    assert main(["verify", "--suite", "turbulence", "--config", "x", "--out", "y"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_master_writes_checkpointed_density(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "avg"
    rc = main(["master", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    m = re.search(r"wrote averaged dynamics \((\d+) checkpoints\) to", stdout)
    assert m, f"unexpected stdout: {stdout}"
    header, data = qf.load_csv(out / "master.csv")
    assert int(m.group(1)) == data.shape[0] == 6
    assert header[-1] == "trace"
    assert np.max(np.abs(data[:, -1] - 1.0)) < 1e-9, "averaged evolution lost trace"


def test_unobserved_run_tracks_the_closed_system(tmp_path):
    cfg_path = _write_cfg(
        tmp_path,
        constants={"lambda": 0.0},
        sim={"dt": 1e-4, "t_final": 0.2, "record_stride": 100},
        ensemble={"n_trajectories": 1, "master_seed": 4},
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    dest = tmp_path / "z.csv"
    assert main(["export-plot", "--in", str(out), "--what", "expectation:sigma_z",
                 "--out", str(dest)]) == 0
    header, data = qf.load_csv(dest)
    model = qf.build_qubit_model((1.0, 0.0, 0.0), channel="sigma_z", lam=0.0)
    psi0 = qf.StateVector(model.basis, np.array([1.0, 0.0], dtype=complex))
    sz = qf.named_observable(model, "sigma_z")
    worst = 0.0
    for t, val in zip(data[:, 0], data[:, 1]):
        ref = qf.expectation(qf.solve_unitary(model, psi0, t), sz).real
        worst = max(worst, abs(val - ref))
    assert worst < 1e-6, f"unobserved trajectory off closed-system dynamics by {worst}"


def test_verify_gauge_quick_pass(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, sim={"dt": 1e-3, "t_final": 0.5, "record_stride": 10})
    out = tmp_path / "rep"
    rc = main(["verify", "--suite", "gauge", "--config", str(cfg_path),
               "--set", "verify.gauge.n_seeds=2", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0, f"gauge verification failed:\n{stdout}"
    assert "gauge: gauge_vs_linear_max_distance = " in stdout
    assert "... pass" in stdout
    assert "FAIL" not in stdout
    assert f"wrote report to {out}" in stdout
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["suite"] == "gauge"
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == \
        ["gauge_vs_linear_max_distance", "reconstructed_amplitude_identity"]
    qf.verify_artifacts(out)


def test_verify_failure_exits_4(tmp_path, capsys):
    # three short trajectories cannot resolve an outcome, so born must fail
    cfg_path = _write_cfg(
        tmp_path,
        model={"kind": "qubit", "h_field": [0.0, 0.0, 0.0], "channel": "sigma_z"},
        initial={"amplitudes": [0.8366600265340756, 0.5477225575051661]},
        sim={"dt": 1e-3, "t_final": 0.5, "record_stride": 10},
        ensemble={"n_trajectories": 3, "master_seed": 7},
    )
    out = tmp_path / "rep"
    rc = main(["verify", "--suite", "born", "--config", str(cfg_path), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 4, f"expected verification failure:\n{stdout}"
    assert "FAIL" in stdout
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is False


@pytest.mark.parametrize("threads", ["1", "2"])
def test_step_failure_exits_3_naming_trajectory_step_and_scheme(tmp_path, threads):
    # at lambda=1e4 on a coarse grid the gauge exponent differences overflow
    # in the first step of every trajectory; a child process shows everything
    # the run prints on stderr, pool workers' numpy warnings included
    cfg_path = _write_cfg(
        tmp_path,
        model={"kind": "grid1d", "x_min": -50.0, "x_max": 50.0, "n_points": 64,
               "potential": "free"},
        constants={"lambda": 1e4},
        initial={"gaussian": {"x0": 40.0, "sigma": 2.0}},
        sim={"dt": 1e-3, "t_final": 0.01, "scheme": "gauge"},
        ensemble={"n_trajectories": 3, "master_seed": 0},
    )
    res = subprocess.run(
        [sys.executable, "-c", "import sys; from qfilter.cli import main; sys.exit(main())",
         "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=_checkout_env(QFILTER_THREADS=threads))
    assert res.returncode == 3, res.stderr
    assert res.stderr == "error: gauge step 0 of trajectory 0 produced a non-finite state\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_unstable_master_exits_3_with_one_error_line(tmp_path, threads):
    # at dt=1000 the dephasing coherences of an unforced qubit overflow in
    # about twenty RK4 steps, after the export (two workers) has started;
    # the run gets its own process group, so a writer process that outlived
    # it would still be found in that group
    cfg_path = _write_cfg(
        tmp_path,
        model={"kind": "qubit", "h_field": [0.0, 0.0, 0.0], "channel": "sigma_z"},
        initial={"amplitudes": [1.0, 1.0]},
        sim={"dt": 1000.0, "t_final": 50000.0},
    )
    out = tmp_path / "run"
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from qfilter.cli import main; sys.exit(main())",
         "master", "--config", str(cfg_path), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_checkout_env(QFILTER_THREADS=threads), start_new_session=True)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 3, stderr
    assert stderr == "error: trace drifted to nan at step 23 (t = 24000); reduce dt\n"
    assert not out.exists()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def _gone_or_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_master_writer_ends_when_its_parent_is_killed(tmp_path):
    """A killed solving process leaves no master.csv writer running: the
    writer holds no copy of the parent's pipe end, so it reads EOF."""
    script = (
        "import os, signal, sys\n"
        "import numpy as np\n"
        "import qfilter as qf\n"
        "from qfilter.output import MasterExport\n"
        "export = MasterExport(sys.argv[1], qf.Basis.finite(2))\n"
        "export.hook(0.0, np.eye(2, dtype=complex) / 2)\n"
        "print(export._proc.pid, flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run")],
                         capture_output=True, text=True, timeout=60,
                         env=_checkout_env(QFILTER_THREADS="2"))
    assert res.returncode == -9, res.stderr
    writer = int(res.stdout)
    deadline = time.monotonic() + 30.0
    while not _gone_or_zombie(writer) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone_or_zombie(writer), "the writer outlived its parent"


@pytest.mark.parametrize("exc, code", [
    (qf.ConfigError([("sim.dt", "must be positive")]), 2),
    (qf.UnsupportedConfigurationError("unsupported"), 2),
    (qf.OracleSizeError("too big"), 2),
    (qf.ArtifactMismatchError("tampered"), 2),
    (qf.BasisMismatchError("mismatch"), 2),
    (ValueError("bad value"), 2),
    (OSError("disk"), 2),
    (qf.StepFailureError("blew up", step_index=4, scheme="linear", trajectory_index=1), 3),
    (qf.InstabilityError("trace drifted"), 3),
    (qf.NormalizationError("degenerate"), 3),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_exceptions_map_to_exit_codes(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_master", fail)
    assert main(["master", "--config", "run.json", "--out", "out"]) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {exc}\n"
    assert captured.out == ""


def test_bad_suite_knob_exits_2(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    rc = main(["verify", "--suite", "order", "--config", str(cfg_path),
               "--set", "verify.order.dts=[0.008, 0.004, 0.002]",
               "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert "at least four" in capsys.readouterr().err


def test_export_plot_cli_round_trip(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()

    dest = tmp_path / "plot.csv"
    rc = main(["export-plot", "--in", str(out), "--what", "expectation:sigma_z",
               "--out", str(dest)])
    assert rc == 0
    assert f"wrote {dest}" in capsys.readouterr().out
    header, data = qf.load_csv(dest)
    assert header == ["t", "traj_000000", "traj_000001", "mean", "stderr"]

    rc = main(["export-plot", "--in", str(out), "--what", "spectrum",
               "--out", str(dest)])
    assert rc == 2
    assert "unknown export" in capsys.readouterr().err


def test_thread_cap_env_is_validated(tmp_path, monkeypatch, capsys):
    cfg_path = _write_cfg(tmp_path)
    monkeypatch.setenv("QFILTER_THREADS", "0")
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "QFILTER_THREADS" in capsys.readouterr().err


def test_console_script_smoke():
    # An uninstalled checkout has no `qfilter` on PATH, so the declared entry
    # point is run through the same wrapper an installer writes for it.
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        declared = tomllib.load(fh)["project"]["scripts"]["qfilter"]
    ep = EntryPoint(name="qfilter", value=declared, group="console_scripts")
    wrapper = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    commands = [([sys.executable, "-c", wrapper], _checkout_env())]
    exe = shutil.which("qfilter")
    if exe is not None:
        commands.append(([exe], None))

    for cmd, cmd_env in commands:
        res = subprocess.run([*cmd, "--help"], capture_output=True, text=True, env=cmd_env)
        assert res.returncode == 0, res.stderr
        assert "simulate" in res.stdout
        res = subprocess.run(cmd, capture_output=True, text=True, env=cmd_env)
        assert res.returncode == 2, f"bare invocation should be a usage error:\n{res.stderr}"
