"""Verification suites behind the `verify` CLI command.

Each suite runs a self-contained numerical check of one advertised property
on the configured model and returns a machine-readable report:

  {"suite": name, "passed": bool,
   "checks": [{"name", "measured", "bound": [lo, hi], "pass"}, ...],
   "stats": {...}}

plus an optional (header, float table) series for a companion CSV. Bounds
use null for an open side. Per-suite knobs come from the config's "verify"
section; `config` declares each knob's default and check and checks them at
parse, and a suite checks here only what needs its model or its protocol.
Protocol constants that define a property (thresholds, checkpoint
counts) are fixed here on purpose, so a config cannot quietly weaken a suite.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .analysis import (
    _filtering_residuals,
    _pure_overlap,
    collapse_statistics,
    ensemble_vs_master,
    fidelity,
    strong_order_estimate,
)
from .config import RunConfig, _suite_knobs, build_initial, build_model
from .errors import ConfigError
from .linalg import StateVector, projector
from .models import build_qubit_model, named_observable
from .noise import _coarsen
from .solvers import (
    _ensemble_stream,
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


def _observable_knob(value, path: str, model):
    """Name and operator of an observable knob; None picks sigma_z or x."""
    if value is None:
        value = "sigma_z" if model.basis.grid is None else "x"
    try:
        return value, named_observable(model, value)
    except ValueError as exc:
        raise ConfigError([(path, str(exc))]) from None


def _gauge_replay(model, initial, mapped, record: np.ndarray):
    """The gauge replay of `record` on the steps, stride and trajectories of
    `mapped`, a record-driven map run on that record; the (N, n_snaps - 1)
    distances between their states after t = 0; and the largest amplitude
    identity gap |exp(ln c) / ||chi|| - 1| at the last step."""
    gauge = _run_rows(model, initial, mapped.dt, mapped.n_steps, mapped.master_seed,
                      mapped.first_index, "gauge", record, replay=True,
                      record_stride=mapped.record_stride)
    td = _pure_overlap(model.basis.weight, mapped.states[:, 1:], gauge.states[:, 1:])[1]
    amp = np.abs(np.exp(gauge.log_amplitude[:, -1] - mapped.log_norm[:, -1]) - 1.0).max()
    return gauge, td, float(amp)


def suite_equivalence(cfg: RunConfig):
    """One measurement record, three schemes: pathwise agreement at the run
    dt and at dt/2, the shrink factor between the two, the record-driven
    amplitude identity, and the closed-system limit.

    The record is produced by the nonlinear scheme at dt/2 driving fresh
    noise; the other schemes replay it, and the coarse runs replay the same
    record with adjacent increments merged. Comparing schemes on a shared
    record is what the pathwise equivalence asserts; feeding each scheme its
    own innovations would compare solutions of different records.

    The nonlinear and linear schemes are one record-driven map, whose replay
    of `fine`'s record gives `fine`'s bits; so one run per dt serves both
    names, and the distance, shrink and amplitude checks measure the gauge
    scheme's replay against that shared map, one distance per dt.
    """
    knobs = _suite_knobs(cfg, "equivalence")
    n_seeds = knobs["n_seeds"]

    model = build_model(cfg)
    initial = build_initial(cfg, model)
    dt = cfg.sim.dt
    n = cfg.n_steps
    seed = cfg.ensemble.master_seed
    stride = max(1, n // knobs["checkpoints"])

    # every seed is one row of each run; seed i is trajectory i
    fine = run_ensemble(model, initial, dt / 2.0, 2 * n, seed, n_seeds, record_stride=2 * stride)
    td_half = _gauge_replay(model, initial, fine, fine.record)[1]
    coarse_rec = _coarsen(fine.record, 2)
    coarse = _run_rows(model, initial, dt, n, seed, 0, "nonlinear", coarse_rec, replay=True,
                       record_stride=stride)
    _, td, amp_max = _gauge_replay(model, initial, coarse, coarse_rec)
    shrink = td.max() / td_half.max() if td_half.max() > 0 else math.inf

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
    table = np.column_stack([coarse.times[1:], td.max(axis=0), td_half.max(axis=0)])
    return _report("equivalence", checks,
                   {"n_seeds": n_seeds, "dt": dt}), (header, table)


def suite_ensemble(cfg: RunConfig):
    """Trajectory average against the averaged-equation solution, plus a
    closed-form decay self-check of the averaged integrator. The average
    folds each block of trajectories as it finishes, so the suite holds a
    few blocks whatever the ensemble size."""
    knobs = _suite_knobs(cfg, "ensemble")

    model = build_model(cfg)
    initial = build_initial(cfg, model)
    dt = cfg.sim.dt
    n = cfg.n_steps
    stride = max(1, n // knobs["checkpoints"])
    # the averaged equation first, so a model it refuses fails before any
    # trajectory is advanced; it stores the trajectories' snapshot times
    dtraj = solve_master(model, projector(initial), dt, n, store_stride=stride)
    blocks = _ensemble_stream(model, initial, dt, n, cfg.ensemble.master_seed,
                              cfg.ensemble.n_trajectories, scheme=cfg.sim.scheme,
                              record_stride=stride)
    rep = ensemble_vs_master(blocks, dtraj, times=dtraj.times[1:])

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
    knobs = _suite_knobs(cfg, "born")

    model = build_model(cfg)
    initial = build_initial(cfg, model)
    obs_name, obs = _observable_knob(knobs["observable"], "verify.born.observable", model)

    dt = cfg.sim.dt
    n = cfg.n_steps
    stride = max(1, n // 50)
    results = run_ensemble(model, initial, dt, n, cfg.ensemble.master_seed,
                           cfg.ensemble.n_trajectories, scheme=cfg.sim.scheme,
                           observables={obs_name: obs}, record_stride=stride, slim=True)
    stats = collapse_statistics(results, obs, threshold=knobs["threshold"])

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
    """Strong convergence slope on common-refinement paths, measured on a
    fixed benchmark model where the generic rate is visible (see
    _ORDER_CHANNEL). The nonlinear and linear schemes are one record-driven
    map, so one estimate is reported under both names."""
    knobs = _suite_knobs(cfg, "order")
    dts, n_seeds = knobs["dts"], knobs["n_seeds"]

    model = build_qubit_model((1.0, 0.0, 0.0), channel=_ORDER_CHANNEL,
                              lam=_ORDER_LAMBDA, hbar=cfg.constants_hbar)
    initial = StateVector(model.basis,
                          np.array([math.sqrt(0.7), math.sqrt(0.3)], dtype=complex))
    for dt in dts:
        if abs(round(_ORDER_T / dt) * dt - _ORDER_T) > 1e-9 * _ORDER_T:
            raise ConfigError([("verify.order.dts",
                                f"benchmark horizon {_ORDER_T} is not a multiple "
                                f"of dt={dt!r}")])

    rep = strong_order_estimate(model, initial, _ORDER_T, dts, cfg.ensemble.master_seed,
                                n_seeds, ref_refine=knobs["ref_refine"])

    checks = [
        _check("slope_nonlinear", rep.slope, 0.35, 0.65),
        _check("slope_linear", rep.slope, 0.35, 0.65),
    ]
    header = ["dt", "mean_error_nonlinear", "mean_error_linear"]
    table = np.column_stack([dts, rep.mean_errors, rep.mean_errors])
    return _report("order", checks, {
        "n_seeds": n_seeds,
        "slope_se_nonlinear": rep.slope_se,
        "slope_se_linear": rep.slope_se,
    }), (header, table)


def suite_filtering(cfg: RunConfig):
    """Scaling of the per-step residual of the posterior-expectation
    equation as dt shrinks.

    The per-dt figure pools squared residuals across seeds before the root;
    the residual distribution has heavy tails near expectation extremes, so
    small-sample averages of per-run rms values make the fitted slope noisy.
    """
    knobs = _suite_knobs(cfg, "filtering")
    dts, n_seeds = knobs["dts"], knobs["n_seeds"]
    quad = knobs["include_quadratic_correction"]

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
        noise = _noise_table(seed, 0, n_seeds, dt, n, model.n_channels)
        runs = _run_rows(model, initial, dt, n, seed, 0, "nonlinear", noise)
        res = _filtering_residuals(model, obs, runs.states, noise, dt, quad)
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
    knobs = _suite_knobs(cfg, "gauge")
    n_seeds = knobs["n_seeds"]

    model = build_model(cfg)
    initial = build_initial(cfg, model)
    dt = cfg.sim.dt
    n = cfg.n_steps
    seed = cfg.ensemble.master_seed
    stride = max(1, n // knobs["checkpoints"])

    # every seed is one row of each run; seed i is trajectory i
    lins = run_ensemble(model, initial, dt, n, seed, n_seeds, "linear", record_stride=stride)
    gaus, td, amp_max = _gauge_replay(model, initial, lins, lins.record)
    ln_c_gap = float(np.abs(gaus.log_norm[:, -1] - lins.log_norm[:, -1]).max())

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
