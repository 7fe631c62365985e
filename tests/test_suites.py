"""Report structure and knob validation for the verification suites."""

from __future__ import annotations

import numpy as np
import pytest

import qfilter as qf
from qfilter.config import SUITE_NAMES
from qfilter.errors import ConfigError


def _unwrap(run):
    if isinstance(run, Exception):
        raise run
    return run


def _cfg(verify=None, dt=1e-3, t=0.5):
    data = {
        "model": {"kind": "qubit", "h_field": [1.0, 0.0, 0.0], "channel": "sigma_z"},
        "constants": {"lambda": 1.0},
        "initial": {"amplitudes": [1.0, 0.0]},
        "sim": {"dt": dt, "t_final": t},
        "ensemble": {"n_trajectories": 2, "master_seed": 2026},
    }
    if verify:
        data["verify"] = verify
    return qf.parse_config_data(data)


def _assert_report_shape(report, suite, check_names):
    assert report["suite"] == suite
    assert isinstance(report["passed"], bool)
    assert [c["name"] for c in report["checks"]] == check_names
    for c in report["checks"]:
        assert set(c) == {"name", "measured", "bound", "pass"}
        assert len(c["bound"]) == 2
        assert isinstance(c["pass"], bool)
    assert report["passed"] == all(c["pass"] for c in report["checks"])


def _assert_series_shape(series, header, n_rows=None):
    got_header, table = series
    assert got_header == header
    assert isinstance(table, np.ndarray) and table.dtype == float, "series is a float table"
    assert table.ndim == 2 and table.shape[1] == len(header)
    if n_rows is not None:
        assert table.shape[0] == n_rows


def test_suite_registry():
    assert SUITE_NAMES == tuple(qf.SUITES)
    with pytest.raises(ConfigError, match="unknown suite"):
        qf.run_suite("nope", _cfg())


def test_equivalence_report_structure(equivalence_run):
    report, series = _unwrap(equivalence_run)
    _assert_report_shape(report, "equivalence", [
        "unitary_limit_fidelity",
        "pairwise_distance_max",
        "refinement_shrink_factor",
        "amplitude_identity_max",
    ])
    _assert_series_shape(series, ["t", "max_distance", "max_distance_half_dt"], 10)
    assert report["stats"]["n_seeds"] == 20


def test_ensemble_report_structure(ensemble_run):
    report, series = _unwrap(ensemble_run)
    _assert_report_shape(report, "ensemble", [
        "mean_vs_master_max_distance",
        "dephasing_decay_gap",
    ])
    _assert_series_shape(series, ["t", "trace_distance"], 10)
    assert report["stats"]["n_trajectories"] == 2000


def test_born_report_structure(born_run):
    report, series = _unwrap(born_run)
    _assert_report_shape(report, "born", [
        "top_outcome_frequency",
        "unresolved_fraction",
        "martingale_deviation_over_3se",
    ])
    _assert_series_shape(series, ["eigenvalue", "count", "frequency", "initial_weight"], 2)
    assert 0.0 <= report["stats"]["chi_square_p"] <= 1.0


def test_order_report_structure(order_run):
    report, series = _unwrap(order_run)
    _assert_report_shape(report, "order", ["slope_nonlinear", "slope_linear"])
    _assert_series_shape(series, ["dt", "mean_error_nonlinear", "mean_error_linear"], 4)
    errors = [float(row[1]) for row in series[1]]
    # dts are listed largest first; the coarsest error should clearly dominate
    assert errors[0] > 2.0 * errors[-1], f"errors {errors} do not decrease with dt"


def test_filtering_report_structure(filtering_run):
    report, series = _unwrap(filtering_run)
    _assert_report_shape(report, "filtering", ["residual_rms_slope"])
    _assert_series_shape(series, ["dt", "pooled_rms_residual"], 4)
    assert report["stats"]["include_quadratic_correction"] is True


def test_gauge_suite_passes_on_a_short_run():
    report, series = qf.run_suite("gauge", _cfg())
    _assert_report_shape(report, "gauge", [
        "gauge_vs_linear_max_distance",
        "reconstructed_amplitude_identity",
    ])
    _assert_series_shape(series, ["t", "max_distance"], 10)
    assert report["passed"], f"gauge suite failed: {report['checks']}"
    assert report["stats"]["max_ln_c_gap"] >= 0.0


def test_unknown_knob_is_rejected():
    with pytest.raises(ConfigError, match="unknown knob"):
        qf.run_suite("equivalence", _cfg({"equivalence": {"bogus": 1}}))


def test_integer_knob_bounds():
    with pytest.raises(ConfigError):
        qf.run_suite("equivalence", _cfg({"equivalence": {"n_seeds": 0}}))
    with pytest.raises(ConfigError):
        qf.run_suite("gauge", _cfg({"gauge": {"checkpoints": 0}}))
    with pytest.raises(ConfigError):
        qf.run_suite("order", _cfg({"order": {"n_seeds": 1}}))
    with pytest.raises(ConfigError):
        qf.run_suite("order", _cfg({"order": {"ref_refine": 1}}))


def test_born_knob_validation():
    with pytest.raises(ConfigError, match="threshold"):
        qf.run_suite("born", _cfg({"born": {"threshold": 1.5}}))
    # born and filtering resolve their observable knob the same way
    for suite in ("born", "filtering"):
        with pytest.raises(ConfigError, match=rf"verify\.{suite}\.observable: must be a name"):
            qf.run_suite(suite, _cfg({suite: {"observable": 42}}))
        with pytest.raises(ConfigError, match=rf"verify\.{suite}\.observable: unknown observable"):
            qf.run_suite(suite, _cfg({suite: {"observable": "x"}}))


def test_dts_knob_validation():
    with pytest.raises(ConfigError, match="four"):
        qf.run_suite("order", _cfg({"order": {"dts": [8e-3, 4e-3, 2e-3]}}))
    with pytest.raises(ConfigError, match="geometric"):
        qf.run_suite("order", _cfg({"order": {"dts": [8e-3, 4e-3, 2e-3, 1.5e-3]}}))
    with pytest.raises(ConfigError, match="horizon"):
        qf.run_suite("order", _cfg({"order": {"dts": [6e-3, 3e-3, 1.5e-3, 7.5e-4]}}))
    with pytest.raises(ConfigError, match="multiple"):
        qf.run_suite("filtering", _cfg(
            {"filtering": {"dts": [3e-3, 1.5e-3, 7.5e-4, 3.75e-4], "n_seeds": 1}}, t=1.0))


def test_filtering_quadratic_flag_must_be_boolean():
    with pytest.raises(ConfigError, match="boolean"):
        qf.run_suite("filtering", _cfg(
            {"filtering": {"include_quadratic_correction": "yes"}}))
