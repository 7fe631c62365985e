"""Acceptance gate: ten numbered behavioural criteria, one verdict line each.

Each test prints "criterion N: PASS|FAIL" into the terminal summary via the
shared accept_log fixture before asserting, so a red run still reports every
criterion. Thresholds here are frozen; loosening them to make a run pass
defeats the point of the gate.
"""

from __future__ import annotations

import json
import math

import numpy as np

import qfilter as qf
from qfilter import solvers
from qfilter.cli import main as cli_main
from qfilter.output import load_manifest


def _gate(log: list[str], n: int, ok: bool) -> None:
    log.append(f"criterion {n}: {'PASS' if ok else 'FAIL'}")


def _check(run, name: str) -> float:
    """Measured value of a named suite check; NaN when the suite crashed."""
    if isinstance(run, Exception):
        return float("nan")
    report, _ = run
    for c in report["checks"]:
        if c["name"] == name:
            return float(c["measured"])
    return float("nan")


def _passed(run, name: str) -> bool:
    if isinstance(run, Exception):
        return False
    report, _ = run
    return any(c["name"] == name and c["pass"] for c in report["checks"])


def test_criterion_01_unitary_limit_fidelity(accept_log, equivalence_run):
    fid = _check(equivalence_run, "unitary_limit_fidelity")
    ok = fid >= 1.0 - 1e-4
    _gate(accept_log, 1, ok)
    assert ok, f"unobserved run drifted from the closed system: fidelity {fid}"


def test_criterion_02_scheme_agreement_shrinks_with_dt(accept_log, equivalence_run):
    dist = _check(equivalence_run, "pairwise_distance_max")
    shrink = _check(equivalence_run, "refinement_shrink_factor")
    ok = dist <= 1e-2 and 1.5 <= shrink <= 3.0
    _gate(accept_log, 2, ok)
    assert ok, f"scheme agreement: max distance {dist}, halving shrink {shrink}"


def test_criterion_03_amplitude_identity(accept_log, equivalence_run):
    amp = _check(equivalence_run, "amplitude_identity_max")
    ok = amp <= 5e-3
    _gate(accept_log, 3, ok)
    assert ok, f"reconstructed amplitude identity off by {amp}"


def test_criterion_04_ensemble_mean_matches_master(accept_log, ensemble_run):
    dist = _check(ensemble_run, "mean_vs_master_max_distance")
    ok = dist <= 0.05
    _gate(accept_log, 4, ok)
    assert ok, f"trajectory average vs averaged equation: distance {dist}"


def test_criterion_05_dephasing_decay_rate(accept_log, ensemble_run):
    gap = _check(ensemble_run, "dephasing_decay_gap")
    ok = gap <= 1e-6
    _gate(accept_log, 5, ok)
    assert ok, f"off-diagonal decay misses exp(-2*lambda*t) by {gap}"


def test_criterion_06_born_frequencies(accept_log, born_run):
    freq = _check(born_run, "top_outcome_frequency")
    checks_ok = all(_passed(born_run, name) for name in
                    ("top_outcome_frequency", "unresolved_fraction",
                     "martingale_deviation_over_3se"))
    ok = checks_ok and abs(freq - 0.7) <= 0.031
    _gate(accept_log, 6, ok)
    assert ok, f"collapse statistics: frequency {freq}, suite checks ok {checks_ok}"


def test_criterion_07_filtering_residual_scaling(accept_log, filtering_run):
    slope = _check(filtering_run, "residual_rms_slope")
    ok = 1.3 <= slope <= 1.7
    _gate(accept_log, 7, ok)
    assert ok, f"innovation-residual slope {slope} outside [1.3, 1.7]"


def test_criterion_08_strong_order_half(accept_log, order_run):
    s_nl = _check(order_run, "slope_nonlinear")
    s_li = _check(order_run, "slope_linear")
    ok = 0.35 <= s_nl <= 0.65 and 0.35 <= s_li <= 0.65
    _gate(accept_log, 8, ok)
    assert ok, f"strong-order slopes {s_nl} (nonlinear), {s_li} (linear)"


def test_criterion_09_localization_under_observation(accept_log, localization_runs):
    if isinstance(localization_runs, Exception):
        _gate(accept_log, 9, False)
        raise localization_runs
    free = localization_runs["free"]
    observed = localization_runs["observed"]

    var_free = qf.variance_series(free)
    worst_rel = 0.0
    for t, v in zip(free.times, var_free):
        if t <= 0.0:
            continue
        theory = 1.0 + (0.5 * t) ** 2
        worst_rel = max(worst_rel, abs(v - theory) / theory)
    spreading_ok = worst_rel <= 0.02

    var_obs = qf.variance_series(observed)
    avg_obs = qf.time_average(var_obs, observed.times, 1.0, 2.0)
    free_mid = 1.0 + (0.5 * 1.5) ** 2
    localized_ok = avg_obs < free_mid

    norm_dev = max(abs(st.norm() - 1.0) for st in observed.states)
    norm_dev = max(norm_dev, max(abs(st.norm() - 1.0) for st in free.states))
    norms_ok = norm_dev <= 1e-9

    ok = spreading_ok and localized_ok and norms_ok
    _gate(accept_log, 9, ok)
    assert ok, (f"localization: free-spread rel err {worst_rel}, observed window "
                f"variance {avg_obs} vs {free_mid}, norm dev {norm_dev}")


def test_criterion_10_outputs_are_worker_count_invariant(
        accept_log, tmp_path, monkeypatch):
    config = {
        "model": {"kind": "qubit", "h_field": [1.0, 0.0, 0.0], "channel": "sigma_z"},
        "constants": {"lambda": 1.0},
        "initial": {"amplitudes": [1.0, 0.0]},
        "sim": {"dt": 1e-3, "t_final": 2.0, "record_stride": 10,
                "observables": ["sigma_z", "sigma_x"]},
        "ensemble": {"n_trajectories": 16, "master_seed": 2026},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    digests = []
    for workers in ("1", "8"):
        monkeypatch.setenv("QFILTER_THREADS", workers)
        out = tmp_path / f"run_w{workers}"
        rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        if rc != 0:
            _gate(accept_log, 10, False)
            assert rc == 0, f"simulate exited {rc} with {workers} workers"
        manifest = load_manifest(out)
        digests.append({rel: meta["sha256"] for rel, meta in manifest["files"].items()})

    ok = digests[0] == digests[1] and len(digests[0]) == 16 * 3
    _gate(accept_log, 10, ok)
    assert ok, "artifact checksums depend on the worker count"


def test_outputs_are_batch_size_invariant(tmp_path, monkeypatch):
    """Criterion 10's run, with 1, 7 and 256 trajectories per kernel batch
    and one or two workers: every artifact byte is the same."""
    config = {
        "model": {"kind": "qubit", "h_field": [1.0, 0.0, 0.0], "channel": "sigma_z"},
        "constants": {"lambda": 1.0},
        "initial": {"amplitudes": [1.0, 0.0]},
        "sim": {"dt": 1e-3, "t_final": 2.0, "record_stride": 10,
                "observables": ["sigma_z", "sigma_x"]},
        "ensemble": {"n_trajectories": 16, "master_seed": 2026},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    digests = []
    for rows in (1, 7, 256):
        monkeypatch.setattr(solvers, "_SERIES_ENTRIES", rows * (2000 + 1))
        for workers in ("1", "2"):
            monkeypatch.setenv("QFILTER_THREADS", workers)
            out = tmp_path / f"run_b{rows}_w{workers}"
            assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
            manifest = load_manifest(out)
            digests.append({rel: meta["sha256"] for rel, meta in manifest["files"].items()})
    assert len(digests[0]) == 16 * 3
    assert all(d == digests[0] for d in digests[1:]), "artifact bytes depend on the batch size"


def test_gate_covered_every_criterion(accept_log):
    # runs last in this module; each criterion must have logged exactly one line
    seen = sorted(int(line.split(":")[0].split()[1]) for line in accept_log)
    assert seen == list(range(1, 11)), f"criteria logged: {seen}"
    assert all(line.endswith("PASS") or line.endswith("FAIL") for line in accept_log)


def test_reference_spread_law_is_what_the_gate_assumes():
    # the ballistic law used in criterion 9, evaluated independently
    t = 1.5
    assert math.isclose(1.0 + (0.5 * t) ** 2, 1.5625, rel_tol=0.0, abs_tol=1e-15)
    assert np.isclose((0.5 * 2.0) ** 2 + 1.0, 2.0), "free packet doubles its variance by t=2"
