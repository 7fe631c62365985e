"""Verification suites behind the `verify` CLI command.

Each suite runs a self-contained numerical check of one advertised property
on the configured model and returns a machine-readable report:

  {"suite": name, "passed": bool,
   "checks": [{"name", "measured", "bound": [lo, hi], "pass"}, ...],
   "stats": {...}}

plus an optional (header, float table) series for a companion CSV. Bounds
use null for an open side. Per-suite knobs come from the config's "verify"
section; protocol constants that define a property (thresholds, checkpoint
counts) are fixed here on purpose, so a config cannot quietly weaken a suite.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import combinations

import numpy as np

from .analysis import (
    _filtering_residuals,
    _pure_overlap,
    collapse_statistics,
    ensemble_vs_master,
    fidelity,
    strong_order_estimate,
)
from .config import RunConfig, build_initial, build_model
from .errors import ConfigError
from .linalg import StateVector, projector
from .models import build_qubit_model, named_observable
from .solvers import (
    _noise_table,
    _run_rows,
    run_ensemble,
    run_trajectory,
    solve_master,
    solve_unitary,
)

_DEPHASING_T = 0.5
_DEPHASING_DT = 1e-3


def _check(name: str, measured: float, lo, hi) -> dict:
    ok = bool(np.isfinite(measured)
              and (lo is None or measured >= lo) and (hi is None or measured <= hi))
    return {"name": name, "measured": float(measured), "bound": [lo, hi], "pass": ok}


def _report(suite: str, checks: list[dict], stats: dict | None = None) -> dict:
    doc = {"suite": suite, "passed": all(c["pass"] for c in checks), "checks": checks}
    if stats:
        doc["stats"] = stats
    return doc


def _knobs(cfg: RunConfig, suite: str, allowed: dict) -> dict:
    """Merge config knobs over defaults; unknown or mistyped knobs fail."""
    given = cfg.verify.get(suite, {})
    problems = [(f"verify.{suite}.{k}", "unknown knob") for k in given if k not in allowed]
    if problems:
        raise ConfigError(problems)
    out = dict(allowed)
    out.update(given)
    return out


def _int_knob(value, path: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError([(path, f"must be an integer of at least {minimum}")])
    return value


def _dts_knob(value, path: str):
    if not isinstance(value, (list, tuple)) or len(value) < 4 \
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
                       for v in value):
        raise ConfigError([(path, "must list at least four positive dt values")])
    dts = np.sort(np.asarray(value, dtype=float))[::-1]
    ratios = dts[:-1] / dts[1:]
    if not np.allclose(ratios, ratios[0], rtol=1e-9):
        raise ConfigError([(path, "dt values must form a geometric sequence")])
    return dts


def _observable_knob(value, path: str, model):
    """Name and operator of an observable knob; None picks sigma_z or x."""
    if value is None:
        value = "sigma_z" if model.basis.grid is None else "x"
    if not isinstance(value, str):
        raise ConfigError([(path, "must be a name")])
    try:
        return value, named_observable(model, value)
    except ValueError as exc:
        raise ConfigError([(path, str(exc))]) from None


def suite_equivalence(cfg: RunConfig):
    """One measurement record, three schemes: pathwise agreement at the run
    dt and at dt/2, the shrink factor between the two, the record-driven
    amplitude identity, and the closed-system limit.

    The record is produced by the nonlinear scheme at dt/2 driving fresh
    noise; the other schemes replay it, and the coarse runs replay the same
    record with adjacent increments merged. Comparing schemes on a shared
    record is what the pathwise equivalence asserts; feeding each scheme its
    own innovations would compare solutions of different records.
    """
    knobs = _knobs(cfg, "equivalence", {"n_seeds": 20, "checkpoints": 10})
    n_seeds = _int_knob(knobs["n_seeds"], "verify.equivalence.n_seeds", 1)
    n_checks = _int_knob(knobs["checkpoints"], "verify.equivalence.checkpoints", 1)

    model = build_model(cfg)
    initial = build_initial(cfg, model)
    dt = cfg.sim.dt
    n = cfg.n_steps
    seed = cfg.ensemble.master_seed
    scheme_names = ("nonlinear", "linear", "gauge")
    stride = max(1, n // n_checks)

    # every seed is one row of each run; seed i is trajectory i
    fine = run_ensemble(model, initial, dt / 2.0, 2 * n, seed, n_seeds, record_stride=2 * stride)
    coarse_rec = fine.record.reshape(n_seeds, n, 2, model.n_channels).sum(axis=2)
    runs_half = {"nonlinear": fine}
    for s in ("linear", "gauge"):
        runs_half[s] = _run_rows(model, initial, dt / 2.0, 2 * n, seed, 0, s, fine.record,
                                 replay=True, record_stride=2 * stride)
    runs = {s: _run_rows(model, initial, dt, n, seed, 0, s, coarse_rec, replay=True,
                         record_stride=stride)
            for s in scheme_names}

    def distances(group):
        """(n_seeds, n_snaps - 1) largest distance over scheme pairs after t = 0."""
        return np.max([_pure_overlap(model.basis.weight, group[a].states[:, 1:],
                                     group[b].states[:, 1:])[1]
                       for a, b in combinations(scheme_names, 2)], axis=0)

    td, td_half = distances(runs), distances(runs_half)
    shrink = td.max() / td_half.max() if td_half.max() > 0 else math.inf
    ln_amp = np.array([runs[s].log_amplitude[:, -1] for s in scheme_names])
    amp_max = np.abs(np.exp(ln_amp - runs["linear"].log_norm[:, -1]) - 1.0).max()

    free_cfg = dataclasses.replace(cfg, constants_lambda=0.0)
    model0 = build_model(free_cfg)
    initial0 = build_initial(free_cfg, model0)
    run0 = run_trajectory(model0, initial0, dt, n, seed, 0, scheme="nonlinear",
                          record_stride=n)
    exact = solve_unitary(model0, initial0, cfg.sim.t_final)
    fid = fidelity(run0.states[-1], exact)

    checks = [
        _check("unitary_limit_fidelity", fid, 1.0 - 1e-4, None),
        _check("pairwise_distance_max", td.max(), None, 1e-2),
        _check("refinement_shrink_factor", shrink, 1.5, 3.0),
        _check("amplitude_identity_max", amp_max, None, 5e-3),
    ]
    header = ["t", "max_distance", "max_distance_half_dt"]
    table = np.column_stack([runs["nonlinear"].times[1:], td.max(axis=0), td_half.max(axis=0)])
    return _report("equivalence", checks,
                   {"n_seeds": n_seeds, "dt": dt}), (header, table)


def suite_ensemble(cfg: RunConfig):
    """Trajectory average against the averaged-equation solution, plus a
    closed-form decay self-check of the averaged integrator."""
    knobs = _knobs(cfg, "ensemble", {"checkpoints": 10})
    n_checks = _int_knob(knobs["checkpoints"], "verify.ensemble.checkpoints", 1)

    model = build_model(cfg)
    initial = build_initial(cfg, model)
    dt = cfg.sim.dt
    n = cfg.n_steps
    stride = max(1, n // n_checks)
    results = run_ensemble(model, initial, dt, n, cfg.ensemble.master_seed,
                           cfg.ensemble.n_trajectories, scheme=cfg.sim.scheme,
                           record_stride=stride, slim=True)
    dtraj = solve_master(model, projector(initial), dt, n, store_stride=stride)
    rep = ensemble_vs_master(results, dtraj, times=results.times[1:])

    deph = build_qubit_model((0.0, 0.0, 0.0), channel="sigma_z", lam=1.0)
    sup = StateVector(deph.basis, np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
    dd = solve_master(deph, projector(sup), _DEPHASING_DT,
                      round(_DEPHASING_T / _DEPHASING_DT),
                      store_stride=round(_DEPHASING_T / _DEPHASING_DT))
    rho01 = dd.matrices[-1][0, 1]
    oracle_gap = abs(rho01 - 0.5 * math.exp(-4.0 * _DEPHASING_T))

    checks = [
        _check("mean_vs_master_max_distance", rep.max_distance, None, 0.05),
        _check("dephasing_decay_gap", float(oracle_gap), None, 1e-6),
    ]
    header = ["t", "trace_distance"]
    table = np.column_stack([rep.times, rep.trace_distances])
    return _report("ensemble", checks,
                   {"n_trajectories": cfg.ensemble.n_trajectories, "dt": dt}), (header, table)


def suite_born(cfg: RunConfig):
    """Outcome frequencies of resolved trajectories against the initial
    weights, the unresolved fraction, and the mean-expectation martingale."""
    knobs = _knobs(cfg, "born", {"observable": None, "threshold": 0.01})
    threshold = knobs["threshold"]
    if not isinstance(threshold, (int, float)) or not 0 < threshold < 1:
        raise ConfigError([("verify.born.threshold", "must lie in (0, 1)")])

    model = build_model(cfg)
    initial = build_initial(cfg, model)
    obs_name, obs = _observable_knob(knobs["observable"], "verify.born.observable", model)

    dt = cfg.sim.dt
    n = cfg.n_steps
    stride = max(1, n // 50)
    results = run_ensemble(model, initial, dt, n, cfg.ensemble.master_seed,
                           cfg.ensemble.n_trajectories, scheme=cfg.sim.scheme,
                           observables={obs_name: obs}, record_stride=stride, slim=True)
    stats = collapse_statistics(results, obs, threshold=float(threshold))

    nn = stats.n_trajectories
    p_top = float(stats.born_probabilities[-1])
    ci = 3.0 * math.sqrt(max(p_top * (1.0 - p_top), 1e-300) / nn)
    freq_top = float(stats.frequencies[-1])

    series = results.expectations[obs_name].real
    mean_t = series.mean(axis=0)
    se_t = series.std(axis=0, ddof=1) / math.sqrt(nn) if nn > 1 else np.full_like(mean_t, np.inf)
    dev = np.abs(mean_t - stats.expectation_initial)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dev == 0.0, 0.0, dev / (3.0 * se_t))
    martingale_ratio = float(np.nanmax(ratio[1:])) if ratio.size > 1 else 0.0

    checks = [
        _check("top_outcome_frequency", freq_top, p_top - ci, p_top + ci),
        _check("unresolved_fraction", stats.unresolved_fraction, None, 0.02),
        _check("martingale_deviation_over_3se", martingale_ratio, None, 1.0),
    ]
    header = ["eigenvalue", "count", "frequency", "initial_weight"]
    table = np.column_stack([stats.eigenvalues, stats.counts, stats.frequencies,
                             stats.born_probabilities])
    return _report("born", checks, {
        "chi_square_p": stats.chi_square_p,
        "n_trajectories": nn,
        "expectation_final_mean": stats.expectation_final_mean,
        "expectation_final_se": stats.expectation_final_se,
    }), (header, table)


# Strong-order benchmark: a channel with a trace. For any traceless qubit
# channel the squared channel is a multiple of the identity, the step's
# missing quadratic-variation term is then a scalar, and normalized states
# converge at order 1 instead of the generic 1/2. Weak coupling keeps the
# trajectory away from full collapse, where error statistics degenerate.
_ORDER_CHANNEL = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
_ORDER_LAMBDA = 0.25
_ORDER_T = 1.0


def suite_order(cfg: RunConfig):
    """Strong convergence slope on common-refinement paths, both stochastic
    schemes, measured on a fixed benchmark model where the generic rate is
    visible (see _ORDER_CHANNEL)."""
    knobs = _knobs(cfg, "order", {
        "dts": [8e-3, 4e-3, 2e-3, 1e-3], "n_seeds": 32, "ref_refine": 64})
    dts = _dts_knob(knobs["dts"], "verify.order.dts")
    n_seeds = _int_knob(knobs["n_seeds"], "verify.order.n_seeds", 2)
    refine = _int_knob(knobs["ref_refine"], "verify.order.ref_refine", 2)

    model = build_qubit_model((1.0, 0.0, 0.0), channel=_ORDER_CHANNEL,
                              lam=_ORDER_LAMBDA, hbar=cfg.constants_hbar)
    initial = StateVector(model.basis,
                          np.array([math.sqrt(0.7), math.sqrt(0.3)], dtype=complex))
    for dt in dts:
        if abs(round(_ORDER_T / dt) * dt - _ORDER_T) > 1e-9 * _ORDER_T:
            raise ConfigError([("verify.order.dts",
                                f"benchmark horizon {_ORDER_T} is not a multiple "
                                f"of dt={dt!r}")])

    reports = {}
    for scheme in ("nonlinear", "linear"):
        reports[scheme] = strong_order_estimate(
            model, initial, _ORDER_T, dts, cfg.ensemble.master_seed, n_seeds,
            scheme=scheme, ref_refine=refine)

    checks = [
        _check("slope_nonlinear", reports["nonlinear"].slope, 0.35, 0.65),
        _check("slope_linear", reports["linear"].slope, 0.35, 0.65),
    ]
    header = ["dt", "mean_error_nonlinear", "mean_error_linear"]
    table = np.column_stack([dts, reports["nonlinear"].mean_errors,
                             reports["linear"].mean_errors])
    return _report("order", checks, {
        "n_seeds": n_seeds,
        "slope_se_nonlinear": reports["nonlinear"].slope_se,
        "slope_se_linear": reports["linear"].slope_se,
    }), (header, table)


def suite_filtering(cfg: RunConfig):
    """Scaling of the per-step residual of the posterior-expectation
    equation as dt shrinks.

    The per-dt figure pools squared residuals across seeds before the root;
    the residual distribution has heavy tails near expectation extremes, so
    small-sample averages of per-run rms values make the fitted slope noisy.
    """
    knobs = _knobs(cfg, "filtering", {
        "dts": [1e-3, 5e-4, 2.5e-4, 1.25e-4], "n_seeds": 32,
        "observable": None, "include_quadratic_correction": True})
    dts = _dts_knob(knobs["dts"], "verify.filtering.dts")
    n_seeds = _int_knob(knobs["n_seeds"], "verify.filtering.n_seeds", 1)
    quad = knobs["include_quadratic_correction"]
    if not isinstance(quad, bool):
        raise ConfigError([("verify.filtering.include_quadratic_correction",
                            "must be a boolean")])

    model = build_model(cfg)
    initial = build_initial(cfg, model)
    obs_name, obs = _observable_knob(knobs["observable"], "verify.filtering.observable", model)

    t_final = cfg.sim.t_final
    seed = cfg.ensemble.master_seed
    mean_rms = np.empty(dts.size)
    for d, dt in enumerate(dts):
        n = round(t_final / dt)
        if abs(n * dt - t_final) > 1e-9 * t_final:
            raise ConfigError([("verify.filtering.dts",
                                f"sim.t_final is not a multiple of dt={dt!r}")])
        runs = _run_rows(model, initial, dt, n, seed, 0, "nonlinear",
                         _noise_table(seed, 0, n_seeds, dt, n, model.n_channels),
                         record_stride=1)
        res = _filtering_residuals(model, obs, runs.states, runs.innovations, dt, quad)
        mean_rms[d] = math.sqrt(np.mean(res * res))

    slope = float(np.polyfit(np.log(dts), np.log(np.maximum(mean_rms, 1e-300)), 1)[0])
    checks = [_check("residual_rms_slope", slope, 1.3, 1.7)]
    header = ["dt", "pooled_rms_residual"]
    return _report("filtering", checks, {
        "n_seeds": n_seeds,
        "include_quadratic_correction": quad,
    }), (header, np.column_stack([dts, mean_rms]))


def suite_gauge(cfg: RunConfig):
    """Deterministic gauge integration replaying a stochastic run's record,
    checked through the overflow-safe reconstruction, in state and in
    amplitude."""
    knobs = _knobs(cfg, "gauge", {"n_seeds": 5, "checkpoints": 10})
    n_seeds = _int_knob(knobs["n_seeds"], "verify.gauge.n_seeds", 1)
    n_checks = _int_knob(knobs["checkpoints"], "verify.gauge.checkpoints", 1)

    model = build_model(cfg)
    initial = build_initial(cfg, model)
    dt = cfg.sim.dt
    n = cfg.n_steps
    seed = cfg.ensemble.master_seed
    stride = max(1, n // n_checks)

    # every seed is one row of each run; seed i is trajectory i
    lins = run_ensemble(model, initial, dt, n, seed, n_seeds, "linear", record_stride=stride)
    gaus = _run_rows(model, initial, dt, n, seed, 0, "gauge", lins.record, replay=True,
                     record_stride=stride)

    td = _pure_overlap(model.basis.weight, lins.states[:, 1:], gaus.states[:, 1:])[1]
    ln_c = lins.log_norm[:, -1]
    amp_max = float(np.abs(np.exp(gaus.log_amplitude[:, -1] - ln_c) - 1.0).max())
    ln_c_gap = float(np.abs(gaus.log_norm[:, -1] - ln_c).max())

    checks = [
        _check("gauge_vs_linear_max_distance", td.max(), None, 1e-2),
        _check("reconstructed_amplitude_identity", amp_max, None, 5e-3),
    ]
    header = ["t", "max_distance"]
    table = np.column_stack([lins.times[1:], td.max(axis=0)])
    return _report("gauge", checks, {
        "n_seeds": n_seeds,
        "max_ln_c_gap": ln_c_gap,
    }), (header, table)


SUITES = {
    "equivalence": suite_equivalence,
    "ensemble": suite_ensemble,
    "born": suite_born,
    "order": suite_order,
    "filtering": suite_filtering,
    "gauge": suite_gauge,
}


def run_suite(name: str, cfg: RunConfig):
    try:
        fn = SUITES[name]
    except KeyError:
        raise ConfigError([("--suite", f"unknown suite {name!r}; "
                            f"expected one of {sorted(SUITES)}")]) from None
    return fn(cfg)
