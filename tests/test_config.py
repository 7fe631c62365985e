"""Config parsing: schema defaults, validation messages, overrides, assembly."""

from __future__ import annotations

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfilter as qf
from qfilter.config import SUITE_NAMES


def _minimal(**sections) -> dict:
    data = {"model": {"kind": "qubit"}, "sim": {"dt": 1e-3, "t_final": 0.5}}
    data.update(sections)
    return data


def _grid_model(**over) -> dict:
    m = {"kind": "grid1d", "x_min": -5.0, "x_max": 5.0, "n_points": 64}
    m.update(over)
    return m


def _paths(err) -> list[str]:
    return [path for path, _ in err.value.problems]


def test_minimal_qubit_config_fills_every_default():
    cfg = qf.parse_config_data(_minimal())
    assert cfg.model.kind == "qubit"
    assert cfg.model.h_field == (1.0, 0.0, 0.0)
    assert cfg.model.channel == "sigma_z"
    assert cfg.constants_hbar == 1.0, f"hbar default {cfg.constants_hbar}"
    assert cfg.constants_lambda == 1.0, f"lambda default {cfg.constants_lambda}"
    assert cfg.initial.amplitudes == (1 + 0j, 0j)
    assert cfg.initial.gaussian is None
    assert cfg.sim.scheme == "nonlinear"
    assert cfg.sim.record_stride == 10
    assert [o.name for o in cfg.sim.observables] == ["sigma_z"]
    assert cfg.ensemble.n_trajectories == 1
    assert cfg.ensemble.master_seed == 0
    assert cfg.output.directory is None
    assert cfg.output.formats == ("csv",)
    assert cfg.verify == {}
    assert cfg.n_steps == 500, f"0.5 / 1e-3 should give 500 steps, got {cfg.n_steps}"


def test_minimal_grid_config_defaults_to_a_standing_packet():
    cfg = qf.parse_config_data(_minimal(model=_grid_model()))
    assert cfg.model.kind == "grid1d"
    assert cfg.model.potential == "free"
    assert cfg.model.mass == 1.0
    assert cfg.initial.amplitudes is None
    assert cfg.initial.gaussian == (0.0, 0.0, 1.0)
    assert [o.name for o in cfg.sim.observables] == ["x", "x2", "p"]


def test_top_level_must_be_an_object():
    with pytest.raises(qf.ConfigError, match="top level"):
        qf.parse_config_data([1, 2, 3])


def test_unknown_keys_are_reported_with_their_paths():
    data = _minimal(extra=1)
    data["model"]["frequency"] = 2.0
    data["sim"]["steps"] = 10
    with pytest.raises(qf.ConfigError) as err:
        qf.parse_config_data(data)
    paths = _paths(err)
    for expected in ("extra", "model.frequency", "sim.steps"):
        assert expected in paths, f"{expected} not flagged: {paths}"
    assert all(msg == "unknown key" for _, msg in err.value.problems)


def test_every_problem_is_collected_before_raising():
    data = _minimal(
        constants={"hbar": 0.0, "lambda": -1.0},
        ensemble={"n_trajectories": 0, "master_seed": 2**64},
    )
    data["sim"]["scheme"] = "heun"
    with pytest.raises(qf.ConfigError) as err:
        qf.parse_config_data(data)
    paths = _paths(err)
    for expected in ("constants.hbar", "constants.lambda", "sim.scheme",
                     "ensemble.n_trajectories", "ensemble.master_seed"):
        assert expected in paths, f"{expected} missing from {paths}"


def test_missing_required_sim_entries():
    with pytest.raises(qf.ConfigError, match="sim.dt: required"):
        qf.parse_config_data({"model": {"kind": "qubit"}, "sim": {"t_final": 1.0}})
    with pytest.raises(qf.ConfigError, match="sim.t_final: required"):
        qf.parse_config_data({"model": {"kind": "qubit"}, "sim": {"dt": 1e-3}})
    with pytest.raises(qf.ConfigError, match="sim: required section"):
        qf.parse_config_data({"model": {"kind": "qubit"}})


def test_horizon_must_sit_on_the_step_grid():
    data = _minimal()
    data["sim"]["t_final"] = 0.0015
    with pytest.raises(qf.ConfigError, match="integer multiple"):
        qf.parse_config_data(data)


def test_horizon_shorter_than_one_step_is_rejected():
    data = _minimal()
    data["sim"]["t_final"] = 5e-4
    with pytest.raises(qf.ConfigError, match="at least sim.dt"):
        qf.parse_config_data(data)


# t_final / dt overflows to inf, so the step count cannot be rounded
_OVERFLOWING_STEPS = [
    {"model": {"kind": "qubit"}, "sim": {"dt": 5e-324, "t_final": 1}},
    {"model": {"kind": "qubit"}, "sim": {"dt": 1e-300, "t_final": 1e308}},
]


@pytest.mark.parametrize("data", _OVERFLOWING_STEPS)
def test_overflowing_step_count_is_reported(data):
    with pytest.raises(qf.ConfigError) as err:
        qf.parse_config_data(data)
    assert err.value.problems == [("sim.t_final", "step count must be finite")]


def test_unconvertible_values_are_reported():
    huge = 10**400  # a valid JSON integer that no double holds
    with pytest.raises(qf.ConfigError) as err:
        qf.parse_config_data(_minimal(
            model={"kind": "qubit", "channel": ["sigma_z"], "h_field": huge},
            constants={"lambda": huge},
            sim={"dt": 1e-3, "t_final": 0.5,
                 "observables": [{"name": "a", "matrix": {"re": [[huge]]}}]}))
    assert set(_paths(err)) == {"model.h_field", "model.channel", "constants.lambda",
                                "sim.observables[0].matrix.re[0][0]"}


# numeric strings and non-finite values are not matrix entries
_NON_NUMERIC_MATRIX = _minimal(sim={"dt": 1e-3, "t_final": 0.5, "observables": [
    {"name": "a", "matrix": {"re": [["1", "nan"], ["0", "inf"]], "im": [[0, 0], [0, None]]}}]})


def test_inline_matrix_entries_must_be_numbers():
    with pytest.raises(qf.ConfigError) as err:
        qf.parse_config_data(_NON_NUMERIC_MATRIX)
    prefix = "sim.observables[0].matrix"
    assert _paths(err) == [f"{prefix}.re[0][0]", f"{prefix}.re[0][1]", f"{prefix}.re[1][0]",
                           f"{prefix}.re[1][1]", f"{prefix}.im[1][1]"]


def test_scheme_and_stride_validation():
    data = _minimal()
    data["sim"]["scheme"] = "rk4"
    with pytest.raises(qf.ConfigError, match="sim.scheme"):
        qf.parse_config_data(data)

    data = _minimal()
    data["sim"]["record_stride"] = 0
    with pytest.raises(qf.ConfigError, match="at least 1"):
        qf.parse_config_data(data)

    data = _minimal()
    data["sim"]["record_stride"] = 2.5
    with pytest.raises(qf.ConfigError, match="must be an integer"):
        qf.parse_config_data(data)


def test_booleans_do_not_pass_as_numbers():
    data = _minimal()
    data["sim"]["dt"] = True
    with pytest.raises(qf.ConfigError, match="sim.dt: must be a number"):
        qf.parse_config_data(data)
    data = _minimal(ensemble={"n_trajectories": True})
    with pytest.raises(qf.ConfigError, match="must be an integer"):
        qf.parse_config_data(data)


def test_amplitude_entries_accept_three_spellings():
    cfg = qf.parse_config_data(_minimal(initial={"amplitudes": [0.6, {"re": 0.0, "im": 0.8}]}))
    assert cfg.initial.amplitudes == (0.6 + 0j, 0.8j)
    cfg = qf.parse_config_data(_minimal(initial={"amplitudes": [[0.6, -0.2], 0.8]}))
    assert cfg.initial.amplitudes == (0.6 - 0.2j, 0.8 + 0j)


def test_malformed_amplitude_entry_names_its_index():
    data = _minimal(initial={"amplitudes": ["big", 1.0]})
    with pytest.raises(qf.ConfigError, match=r"initial.amplitudes\[0\]"):
        qf.parse_config_data(data)


def test_initial_section_rules():
    data = _minimal(initial={"amplitudes": [1, 0], "gaussian": {"x0": 0.0}})
    with pytest.raises(qf.ConfigError, match="not both"):
        qf.parse_config_data(data)

    data = _minimal(initial={"gaussian": {"x0": 0.0}})
    with pytest.raises(qf.ConfigError, match="only valid for grid models"):
        qf.parse_config_data(data)

    data = _minimal(model=_grid_model(), initial={"amplitudes": [1, 0]})
    with pytest.raises(qf.ConfigError, match="only valid for qubit models"):
        qf.parse_config_data(data)

    data = _minimal(initial={"amplitudes": [1, 0, 0]})
    with pytest.raises(qf.ConfigError, match="exactly two entries"):
        qf.parse_config_data(data)

    data = _minimal(initial={"amplitudes": [0, 0]})
    with pytest.raises(qf.ConfigError, match="zero vector"):
        qf.parse_config_data(data)

    data = _minimal(initial={})
    with pytest.raises(qf.ConfigError, match="needs amplitudes"):
        qf.parse_config_data(data)


def test_gaussian_parameter_validation():
    data = _minimal(model=_grid_model(), initial={"gaussian": {"x0": 0.0, "width": 2.0}})
    with pytest.raises(qf.ConfigError, match=r"must be \{x0, p0, sigma\}"):
        qf.parse_config_data(data)

    data = _minimal(model=_grid_model(), initial={"gaussian": {"sigma": -1.0}})
    with pytest.raises(qf.ConfigError, match="sigma: must be positive"):
        qf.parse_config_data(data)

    data = _minimal(model=_grid_model(), initial={"gaussian": {"x0": "left"}})
    with pytest.raises(qf.ConfigError, match="initial.gaussian.x0"):
        qf.parse_config_data(data)


def test_model_section_validation():
    with pytest.raises(qf.ConfigError, match="model: required section"):
        qf.parse_config_data({"sim": {"dt": 1e-3, "t_final": 0.1}})
    with pytest.raises(qf.ConfigError, match='"qubit" or "grid1d"'):
        qf.parse_config_data(_minimal(model={"kind": "spin_chain"}))
    with pytest.raises(qf.ConfigError, match="three numbers"):
        qf.parse_config_data(_minimal(model={"kind": "qubit", "h_field": [1.0, 2.0]}))
    with pytest.raises(qf.ConfigError, match="model.channel"):
        qf.parse_config_data(_minimal(model={"kind": "qubit", "channel": "sigma_w"}))


def test_scalar_h_field_means_an_x_axis_field():
    cfg = qf.parse_config_data(_minimal(model={"kind": "qubit", "h_field": 2.0}))
    assert cfg.model.h_field == (2.0, 0.0, 0.0)


def test_grid_model_validation():
    cases = [
        (_grid_model(x_max=-5.0), "must exceed model.x_min"),
        (_grid_model(n_points=4), "at least 8"),
        (_grid_model(potential="coulomb"), "model.potential"),
        (_grid_model(potential="harmonic", potential_params={"omega": -2.0}), "omega > 0"),
        (_grid_model(potential="barrier", potential_params={"width": 0.0}), "height and width"),
        (_grid_model(potential="table", potential_params={"values": [0.0, 1.0]}),
         "one number per grid point"),
        (_grid_model(potential_params={"omega": 1.0}), "takes no parameters"),
        (_grid_model(mass=0.0), "model.mass"),
    ]
    for model, fragment in cases:
        with pytest.raises(qf.ConfigError, match=fragment):
            qf.parse_config_data(_minimal(model=model))


def test_observable_list_accepts_names_and_inline_matrices():
    sx = {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    data = _minimal()
    data["sim"]["observables"] = ["sigma_z", {"name": "my_sx", "matrix": sx}]
    cfg = qf.parse_config_data(data)
    assert [o.name for o in cfg.sim.observables] == ["sigma_z", "my_sx"]
    assert cfg.sim.observables[0].matrix is None
    assert np.array_equal(cfg.sim.observables[1].matrix,
                          np.array([[0, 1], [1, 0]], dtype=complex))


def test_observable_entry_validation():
    cases = [
        ("sigma_z", "must be a list"),
        (["sigma_z", "sigma_z"], "duplicate observable name"),
        ([{"name": "op"}], "inline observables"),
        ([{"name": "bad name!", "matrix": {"re": [[0.0]], "im": [[0.0]]}}], "limited to"),
        ([17], "name or an inline matrix"),
        ([{"name": "op", "matrix": {"re": [[0.0, 1.0]], "im": [[0.0, 1.0]]}}], "square"),
        ([{"name": "op", "matrix": [[0.0, 1.0]]}], r"must be \{"),
    ]
    for raw, fragment in cases:
        data = _minimal()
        data["sim"]["observables"] = raw
        with pytest.raises(qf.ConfigError, match=fragment):
            qf.parse_config_data(data)


def test_output_section_validation():
    with pytest.raises(qf.ConfigError, match="nonempty list"):
        qf.parse_config_data(_minimal(output={"formats": []}))
    with pytest.raises(qf.ConfigError, match="output.formats"):
        qf.parse_config_data(_minimal(output={"formats": ["hdf5"]}))
    with pytest.raises(qf.ConfigError, match="string or null"):
        qf.parse_config_data(_minimal(output={"directory": 7}))


def test_csv_rides_along_with_binary_output():
    cfg = qf.parse_config_data(_minimal(output={"formats": ["bin"]}))
    assert cfg.output.formats == ("csv", "bin")


def test_verify_section_validation():
    with pytest.raises(qf.ConfigError, match="unknown suite"):
        qf.parse_config_data(_minimal(verify={"turbulence": {}}))
    with pytest.raises(qf.ConfigError, match="object of suite knobs"):
        qf.parse_config_data(_minimal(verify={"born": 3}))


def test_verify_knobs_are_deep_copied():
    knobs = {"gauge": {"n_seeds": 2}}
    cfg = qf.parse_config_data(_minimal(verify=knobs))
    knobs["gauge"]["n_seeds"] = 99
    assert cfg.verify == {"gauge": {"n_seeds": 2}}, f"verify aliased its input: {cfg.verify}"


def test_resolved_echo_reparses_to_the_same_config():
    data = _minimal(
        constants={"hbar": 2.0, "lambda": 0.5},
        initial={"amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
        ensemble={"n_trajectories": 4, "master_seed": 11},
        output={"directory": "runs/a", "formats": ["csv", "bin"]},
        verify={"born": {"n_trajectories": 10}},
    )
    data["model"] = {"kind": "qubit", "h_field": [0.0, 1.0, 0.0], "channel": "sigma_x"}
    data["sim"]["scheme"] = "gauge"
    cfg = qf.parse_config_data(data)
    echo = cfg.resolved()
    assert echo["sim"]["observables"] == ["sigma_z"]
    assert qf.parse_config_data(echo) == cfg
    json.dumps(echo)  # manifest payload must be serializable


def test_resolved_grid_echo_sorts_potential_params():
    m = _grid_model(potential="harmonic", potential_params={"omega": 2.0, "center": 0.5})
    cfg = qf.parse_config_data(_minimal(model=m))
    echo = cfg.resolved()
    assert list(echo["model"]["potential_params"]) == ["center", "omega"]
    assert echo["initial"] == {"gaussian": {"x0": 0.0, "p0": 0.0, "sigma": 1.0}}
    assert qf.parse_config_data(echo) == cfg


def test_overrides_parse_json_with_string_fallback():
    data = _minimal()
    out = qf.apply_overrides(data, ["sim.dt=1e-4", "model.channel=sigma_x",
                                    "verify.order.dts=[0.01, 0.005, 0.0025, 0.00125]"])
    assert out["sim"]["dt"] == 1e-4
    assert out["model"]["channel"] == "sigma_x"
    assert out["verify"]["order"]["dts"] == [0.01, 0.005, 0.0025, 0.00125]
    assert "verify" not in data, "override mutated its input"
    assert data["sim"]["dt"] == 1e-3


def test_override_failure_modes():
    with pytest.raises(qf.ConfigError, match="PATH=VALUE"):
        qf.apply_overrides({}, ["sim.dt"])
    with pytest.raises(qf.ConfigError, match="bad path"):
        qf.apply_overrides({}, [".dt=1"])
    with pytest.raises(qf.ConfigError, match="not an object"):
        qf.apply_overrides({"sim": {"dt": 1e-3}}, ["sim.dt.inner=1"])


def test_parse_config_reads_overrides_and_validates(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_minimal()), encoding="utf-8")
    cfg = qf.parse_config(path, overrides=["sim.t_final=1.0", "ensemble.master_seed=7"])
    assert cfg.sim.t_final == 1.0
    assert cfg.ensemble.master_seed == 7


def test_parse_config_reports_unreadable_or_invalid_files(tmp_path):
    with pytest.raises(qf.ConfigError, match="cannot read"):
        qf.parse_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(qf.ConfigError, match="invalid JSON"):
        qf.parse_config(bad)


def test_build_model_matches_the_direct_builders():
    data = _minimal(constants={"hbar": 2.0, "lambda": 0.25})
    data["model"] = {"kind": "qubit", "h_field": [0.0, 0.0, 1.0], "channel": "sigma_x"}
    cfg = qf.parse_config_data(data)
    model = qf.build_model(cfg)
    direct = qf.build_qubit_model((0.0, 0.0, 1.0), channel="sigma_x", lam=0.25, hbar=2.0)
    assert np.allclose(model.generator.matrix, direct.generator.matrix, atol=1e-15)
    assert model.hbar == 2.0
    assert np.array_equal(model.channels[0].matrix, direct.channels[0].matrix)


def test_build_model_assembles_grid_potentials():
    m = _grid_model(x_min=-4.0, x_max=4.0, potential="barrier",
                    potential_params={"height": 3.0, "width": 2.0, "center": 1.0})
    cfg = qf.parse_config_data(_minimal(model=m))
    model = qf.build_model(cfg)
    grid = qf.GridSpec(-4.0, 4.0, 64)
    pot = qf.GridPotential.barrier(grid, 3.0, 2.0, center=1.0)
    direct = qf.build_grid_model(grid, pot, lam=1.0, mass=1.0, hbar=1.0)
    assert np.allclose(model.hamiltonian.matrix, direct.hamiltonian.matrix, atol=1e-15)


def test_build_initial_normalizes_amplitudes():
    cfg = qf.parse_config_data(_minimal(initial={"amplitudes": [3.0, 4.0]}))
    model = qf.build_model(cfg)
    psi = qf.build_initial(cfg, model)
    assert np.allclose(psi.amplitudes, [0.6, 0.8], atol=1e-15), f"got {psi.amplitudes}"


def test_build_initial_rejects_length_mismatch():
    cfg = qf.parse_config_data(_minimal())
    model = qf.build_model(cfg)
    bad = dataclasses.replace(
        cfg, initial=qf.config.InitialConfig(amplitudes=(1 + 0j, 0j, 0j)))
    with pytest.raises(qf.ConfigError, match="expected 2 entries"):
        qf.build_initial(bad, model)


def test_build_initial_places_the_packet():
    m = _grid_model(x_min=-8.0, x_max=8.0, n_points=256)
    data = _minimal(model=m, initial={"gaussian": {"x0": 1.5, "p0": 0.0, "sigma": 0.8}})
    cfg = qf.parse_config_data(data)
    model = qf.build_model(cfg)
    psi = qf.build_initial(cfg, model)
    mean = qf.expectation(psi, qf.named_observable(model, "x")).real
    assert abs(mean - 1.5) < 1e-6, f"packet centred at {mean}, wanted 1.5"


def test_build_observables_resolves_names_and_matrices():
    sx = {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    data = _minimal()
    data["sim"]["observables"] = ["sigma_z", {"name": "custom", "matrix": sx}]
    cfg = qf.parse_config_data(data)
    model = qf.build_model(cfg)
    ops = qf.build_observables(cfg, model)
    assert set(ops) == {"sigma_z", "custom"}
    assert np.array_equal(ops["custom"].matrix, np.array([[0, 1], [1, 0]], dtype=complex))


def test_build_observables_error_paths():
    data = _minimal()
    data["sim"]["observables"] = ["x"]  # grid-only name on a qubit model
    cfg = qf.parse_config_data(data)
    with pytest.raises(qf.ConfigError, match="sim.observables.x"):
        qf.build_observables(cfg, qf.build_model(cfg))

    bad = {"re": [[0.0] * 3 for _ in range(3)], "im": [[0.0] * 3 for _ in range(3)]}
    data = _minimal()
    data["sim"]["observables"] = [{"name": "too_big", "matrix": bad}]
    cfg = qf.parse_config_data(data)
    with pytest.raises(qf.ConfigError, match="does not match"):
        qf.build_observables(cfg, qf.build_model(cfg))


_WORDS = ["qubit", "grid1d", "sigma_z", "sigma_x", "free", "harmonic", "barrier", "table",
          "nonlinear", "gauge", "csv", "bin", "x", "p", "re", "im", "x0", "sigma", "name",
          "matrix", "omega", "height", "width", "values", "amplitudes", "gaussian"]
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**1024)
            | st.floats() | st.sampled_from([5e-324, 1e-300, 1e308, 1e-3, 1.0])
            | st.sampled_from(_WORDS) | st.text(max_size=4))
_json_trees = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)
_SECTION_KEYS = {
    "model": ["kind", "h_field", "channel", "x_min", "x_max", "n_points", "potential",
              "potential_params", "mass"],
    "constants": ["hbar", "lambda"],
    "initial": ["amplitudes", "gaussian"],
    "sim": ["dt", "t_final", "scheme", "record_stride", "observables"],
    "ensemble": ["n_trajectories", "master_seed"],
    "output": ["directory", "formats"],
    "verify": list(SUITE_NAMES),
}
# schema keys with fuzzed values, so most draws get past the section checks
_fuzzed_configs = st.fixed_dictionaries({}, optional={
    sec: st.dictionaries(st.sampled_from(keys), _json_trees, max_size=len(keys)) | _json_trees
    for sec, keys in _SECTION_KEYS.items()}) | _json_trees


@settings(max_examples=300, deadline=None)
@given(_fuzzed_configs)
@example(_OVERFLOWING_STEPS[0])
@example(_OVERFLOWING_STEPS[1])
@example(_NON_NUMERIC_MATRIX)
def test_parser_returns_a_config_or_raises_config_error(data):
    try:
        cfg = qf.parse_config_data(data)
    except qf.ConfigError:
        return
    assert isinstance(cfg, qf.RunConfig)


_path_keys = st.sampled_from(["sim", "dt", "model", "a"])
_json_leaves = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                | st.text(max_size=5))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
_override_targets = st.recursive(
    _json_leaves, lambda inner: st.dictionaries(_path_keys, inner, max_size=3), max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(data=st.dictionaries(_path_keys, _override_targets, max_size=3),
       keys=st.lists(_path_keys, min_size=1, max_size=4), value=_json_values)
def test_override_sets_exactly_its_leaf(data, keys, value):
    before = copy.deepcopy(data)
    expected = copy.deepcopy(data)
    node, blocked = expected, None
    for k in keys[:-1]:
        if node.get(k) is None:
            node[k] = {}
        elif not isinstance(node[k], dict):
            blocked = k
            break
        node = node[k]
    else:
        node[keys[-1]] = value

    path = ".".join(keys)
    if blocked is not None:
        with pytest.raises(qf.ConfigError, match=f"{blocked} is not an object"):
            qf.apply_overrides(data, [f"{path}={json.dumps(value)}"])
    else:
        assert qf.apply_overrides(data, [f"{path}={json.dumps(value)}"]) == expected
    assert data == before, "override mutated its input"
