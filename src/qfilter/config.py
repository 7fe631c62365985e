"""Run configuration: JSON schema, validation, and model assembly.

A config is a JSON object of sections (unknown keys rejected):

  model      {"kind": "qubit", "h_field", "channel"}
           | {"kind": "grid1d", "x_min", "x_max", "n_points", "potential",
              "potential_params", "mass"}
  constants  {"hbar", "lambda"}
  initial    {"amplitudes": [entry, ...]}          (qubit; entry = num,
              [re, im], or {"re": num, "im": num})
           | {"gaussian": {"x0", "p0", "sigma"}}  (grid)
  sim        {"dt", "t_final", "scheme", "record_stride",
              "observables": [name | inline, ...]}
             inline = {"name": str, "matrix": {"re": [[...]], "im": [[...]]}}
  ensemble   {"n_trajectories", "master_seed"}
  output     {"directory", "formats"}
  verify     {suite_name: {knob: value, ...}, ...}

Each key is declared once, in the tables below, as (default, check): the
default fills a missing key, and the check returns a given value as it is
stored or says what is wrong with it. The parameters of each potential and
the knobs of each verification suite are declared the same way. One reader
applies a table: it rejects unknown keys, checks every given value and fills
the defaults. The record of each model kind and of `sim`, `ensemble` and
`output` is built from its table, one field per key, so a new key is one
entry; `RunConfig.resolved()` echoes the same keys. Only `model`,
`sim.dt` and `sim.t_final` are required. Code handles what a table cannot
say: the model kind, amplitudes or gaussian, observable lists and inline
matrices (with the model's default state and observables), and the rules
across keys (x_max > x_min, a table potential's length, t_final a multiple
of dt, csv always among the formats). Every suite's knobs are checked here,
whatever the command; the suites check only what needs their model or
protocol. All validation problems are collected and raised together with
dotted field paths. `--set` style overrides edit the raw JSON tree before
validation, values parsed as JSON with a plain-string fallback.
"""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import dataclass, make_dataclass

import numpy as np

from .analysis import _dt_ladder
from .errors import ConfigError, NormalizationError
from .linalg import GridSpec, Operator, StateVector
from .models import (
    PAULI,
    GridPotential,
    ModelSpec,
    build_grid_model,
    build_qubit_model,
    gaussian_packet,
    named_observable,
)
from .solvers import SCHEMES


def _is_num(v) -> bool:
    """A finite int or float that converts to a double (JSON ints are unbounded)."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


class _Invalid(Exception):
    """A value its declaration rejects; the message says why."""


def _rule(*rules, convert=None):
    """A check from (ok, message) pairs, tried in order; a value that passes
    them all is stored as `convert(value)`."""
    def check(v):
        for ok, msg in rules:
            if not ok(v):
                raise _Invalid(msg)
        return v if convert is None else convert(v)
    return check


def _number(*rules):
    return _rule((_is_num, "must be a number"), *rules, convert=float)


def _integer(*rules):
    return _rule((_is_int, "must be an integer"), *rules)


def _one_of(choices):
    return _rule((lambda v: isinstance(v, str) and v in choices,
                  f"must be one of {list(choices)}"))


def _at_least(n: int):
    """A suite's integer knob, with one message for its type and its range."""
    return _rule((lambda v: _is_int(v) and v >= n, f"must be an integer of at least {n}"))


def _dts(v):
    """`analysis._dt_ladder`, its ValueError as a rejected value."""
    try:
        return _dt_ladder(v)
    except ValueError as exc:
        raise _Invalid(str(exc)) from None


_POSITIVE = (lambda v: v > 0, "must be positive")
_NAME = _rule((lambda v: v is None or isinstance(v, str), "must be a name"))
_REQUIRED = object()
_BY_CODE = (None, None)  # a key its own parser reads

# The declarations: key -> (default, check). A _REQUIRED key has no default.
_SECTIONS = dict.fromkeys(
    ("model", "constants", "initial", "sim", "ensemble", "output", "verify"), _BY_CODE)
# potential -> (constructor, parameters, the one message for any problem with them)
_POTENTIALS = {
    "free": (GridPotential.free, {}, "free potential takes no parameters"),
    "harmonic": (GridPotential.harmonic,
                 {"omega": (1.0, _number(_POSITIVE)), "center": (0.0, _number())},
                 "harmonic needs omega > 0 (optional center)"),
    "barrier": (GridPotential.barrier,
                {"height": (0.0, _number()), "width": (1.0, _number(_POSITIVE)),
                 "center": (0.0, _number())},
                "barrier needs height and width > 0"),
    "table": (GridPotential.from_table,
              {"values": (_REQUIRED, _rule((lambda v: isinstance(v, list)
                                           and all(_is_num(x) for x in v),
                                           "must be a list of numbers")))},
              "table needs values with one number per grid point"),
}
_MODELS = {
    "qubit": {
        "kind": _BY_CODE,
        "h_field": ([1.0, 0.0, 0.0], _rule(
            (lambda v: _is_num(v) or isinstance(v, list) and len(v) == 3
             and all(_is_num(x) for x in v), "must be a number or a list of three numbers"),
            convert=lambda v: (float(v), 0.0, 0.0) if _is_num(v) else tuple(map(float, v)))),
        "channel": ("sigma_z", _one_of(PAULI)),
    },
    "grid1d": {
        "kind": _BY_CODE,
        "x_min": (-10.0, _number()),
        "x_max": (10.0, _number()),
        "n_points": (128, _integer((lambda v: v >= 8, "must be an integer of at least 8"))),
        "potential": ("free", _one_of(_POTENTIALS)),
        "potential_params": ({}, _rule((lambda v: isinstance(v, dict), "must be an object"),
                                       convert=dict)),
        "mass": (1.0, _number(_POSITIVE)),
    },
}
_CONSTANTS = {
    "hbar": (1.0, _number(_POSITIVE)),
    "lambda": (1.0, _number((lambda v: v >= 0, "must be nonnegative"))),
}
_GAUSSIAN = {"x0": (0.0, _number()), "p0": (0.0, _number()),
             "sigma": (1.0, _number(_POSITIVE))}
_SIM = {
    "dt": (_REQUIRED, _number(_POSITIVE)),
    "t_final": (_REQUIRED, _number()),
    "scheme": ("nonlinear", _one_of(SCHEMES)),
    "record_stride": (10, _integer((lambda v: v >= 1, "must be at least 1"))),
    "observables": _BY_CODE,
}
_ENSEMBLE = {
    "n_trajectories": (1, _integer((lambda v: v >= 1, "must be at least 1"))),
    "master_seed": (0, _integer((lambda v: 0 <= v < 2**64, "must lie in [0, 2^64)"))),
}
_FORMATS = ("csv", "bin")
_OUTPUT = {
    "directory": (None, _rule((lambda v: v is None or isinstance(v, str),
                               "must be a string or null"))),
    "formats": (["csv"], _rule(
        (lambda v: isinstance(v, list) and v and all(f in _FORMATS for f in v),
         f"must be a nonempty list drawn from {list(_FORMATS)}"), convert=tuple)),
}
# suite -> its knobs; an observable knob of None picks sigma_z or x
_KNOBS = {
    "equivalence": {"n_seeds": (20, _at_least(1)), "checkpoints": (10, _at_least(1))},
    "ensemble": {"checkpoints": (10, _at_least(1))},
    "born": {
        "observable": (None, _NAME),
        "threshold": (0.01, _rule((lambda v: _is_num(v) and 0 < v < 1, "must lie in (0, 1)"),
                                  convert=float)),
    },
    "order": {"dts": ([8e-3, 4e-3, 2e-3, 1e-3], _dts), "n_seeds": (32, _at_least(2)),
              "ref_refine": (64, _at_least(2))},
    "filtering": {
        "dts": ([1e-3, 5e-4, 2.5e-4, 1.25e-4], _dts),
        "n_seeds": (32, _at_least(1)),
        "observable": (None, _NAME),
        "include_quadratic_correction": (True, _rule((lambda v: isinstance(v, bool),
                                                      "must be a boolean"))),
    },
    "gauge": {"n_seeds": (5, _at_least(1)), "checkpoints": (10, _at_least(1))},
}
SUITE_NAMES = tuple(_KNOBS)


class _Collector:
    def __init__(self):
        self.problems: list[tuple[str, str]] = []

    def add(self, path: str, msg: str) -> None:
        self.problems.append((path, msg))

    def read(self, sec: dict, path: str, keys: dict, unknown: str = "unknown key") -> dict:
        """The values of `sec` under its declaration `keys`, defaults filled in.

        Unknown keys, missing required keys and rejected values are recorded.
        A rejected value reads as its default (None if required), so the rules
        across keys still run."""
        for k in sec:
            if k not in keys:
                self.add(f"{path}.{k}" if path else k, unknown)
        out = {}
        for k, (default, check) in keys.items():
            if check is None:
                continue
            out[k] = None if default is _REQUIRED else check(default)
            if k in sec:
                try:
                    out[k] = check(sec[k])
                except _Invalid as exc:
                    self.add(f"{path}.{k}", str(exc))
            elif default is _REQUIRED:
                self.add(f"{path}.{k}", "required")
        return out

    def raise_if_any(self) -> None:
        if self.problems:
            raise ConfigError(self.problems)


def _checked(sec: dict, path: str, keys: dict, unknown: str = "unknown key") -> dict:
    """`_Collector.read` of one section, raising its problems."""
    col = _Collector()
    out = col.read(sec, path, keys, unknown)
    col.raise_if_any()
    return out


def _section(data: dict, name: str, col: _Collector, required: bool = False) -> dict | None:
    """Section `name` of the config; a missing optional section is empty."""
    sec = data.get(name, None if required else {})
    if isinstance(sec, dict):
        return sec
    col.add(name, "required section missing or not an object" if required
            else "must be an object")
    return None


def _parse_complex(entry, path: str, col: _Collector) -> complex:
    if _is_num(entry):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(_is_num(v) for v in entry):
        return complex(entry[0], entry[1])
    if isinstance(entry, dict) and set(entry) <= {"re", "im"} and entry:
        re = entry.get("re", 0.0)
        im = entry.get("im", 0.0)
        if _is_num(re) and _is_num(im):
            return complex(re, im)
    col.add(path, "must be a number, [re, im], or {re, im}")
    return 0j


def _parse_matrix(obj, path: str, col: _Collector) -> np.ndarray | None:
    if not isinstance(obj, dict) or "re" not in obj or not set(obj) <= {"re", "im"}:
        col.add(path, 'must be {"re": [[...]], "im": [[...]]}')
        return None
    bad = [f"{path}.{key}[{i}][{j}]"
           for key, rows in obj.items() if isinstance(rows, list)
           for i, row in enumerate(rows) if isinstance(row, list)
           for j, v in enumerate(row) if not _is_num(v)]
    for p in bad:
        col.add(p, "must be a number")
    if bad:
        return None
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError, OverflowError):
        col.add(path, "entries must be rectangular numeric arrays")
        return None
    if re.ndim != 2 or re.shape[0] != re.shape[1] or im.shape != re.shape:
        col.add(path, "re and im must be equal-shape square matrices")
        return None
    return re + 1j * im


@dataclass(frozen=True)
class ObservableConfig:
    name: str
    matrix: np.ndarray | None = None  # None means resolve by name


@dataclass(frozen=True)
class InitialConfig:
    amplitudes: tuple[complex, ...] | None = None
    gaussian: tuple[float, float, float] | None = None  # (x0, p0, sigma)


# the records of the sections a table declares whole, one field per key
QubitModelConfig, GridModelConfig, SimConfig, EnsembleConfig, OutputConfig = (
    make_dataclass(name, list(table), frozen=True, namespace={"__module__": __name__})
    for name, table in (("QubitModelConfig", _MODELS["qubit"]),
                        ("GridModelConfig", _MODELS["grid1d"]), ("SimConfig", _SIM),
                        ("EnsembleConfig", _ENSEMBLE), ("OutputConfig", _OUTPUT)))


def _plain(v):
    """A stored value as JSON: tuples as lists, complex numbers as [re, im],
    objects with sorted keys, observables as a name or an inline matrix."""
    if isinstance(v, ObservableConfig):
        if v.matrix is None:
            return v.name
        return {"name": v.name, "matrix": {"re": v.matrix.real.tolist(),
                                           "im": v.matrix.imag.tolist()}}
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, dict):
        return dict(sorted(v.items()))
    return v


def _echo(obj, keys: dict, prefix: str = "") -> dict:
    return {k: _plain(getattr(obj, prefix + k)) for k in keys}


@dataclass(frozen=True)
class RunConfig:
    model: QubitModelConfig | GridModelConfig
    constants_hbar: float
    constants_lambda: float
    initial: InitialConfig
    sim: SimConfig
    ensemble: EnsembleConfig
    output: OutputConfig
    verify: dict

    @property
    def n_steps(self) -> int:
        return round(self.sim.t_final / self.sim.dt)

    def resolved(self) -> dict:
        """Canonical echo with every default materialized (manifest payload)."""
        init = self.initial
        return {
            "model": _echo(self.model, _MODELS[self.model.kind]),
            "constants": _echo(self, _CONSTANTS, "constants_"),
            "initial": {"amplitudes": _plain(init.amplitudes)} if init.amplitudes is not None
            else {"gaussian": dict(zip(_GAUSSIAN, init.gaussian))},
            "sim": _echo(self.sim, _SIM),
            "ensemble": _echo(self.ensemble, _ENSEMBLE),
            "output": _echo(self.output, _OUTPUT),
            "verify": self.verify,
        }


def _suite_knobs(cfg: RunConfig, suite: str) -> dict:
    """The knobs of `suite`: the config's, checked, over the declared defaults."""
    return _checked(cfg.verify.get(suite, {}), f"verify.{suite}", _KNOBS[suite], "unknown knob")


def _parse_model(data: dict, col: _Collector):
    sec = _section(data, "model", col, required=True)
    if sec is None:
        return None
    kind = sec.get("kind")
    if not (isinstance(kind, str) and kind in _MODELS):
        col.add("model.kind", 'must be "qubit" or "grid1d"')
        return None
    m = col.read(sec, "model", _MODELS[kind])
    if kind == "qubit":
        return QubitModelConfig(kind=kind, **m)
    if m["x_max"] <= m["x_min"]:
        col.add("model.x_max", "must exceed model.x_min")
    # any problem with the potential's parameters is one problem, with its message
    _, keys, msg = _POTENTIALS[m["potential"]]
    pcol = _Collector()
    params = pcol.read(m["potential_params"], "model.potential_params", keys)
    if pcol.problems or m["potential"] == "table" and len(params["values"]) != m["n_points"]:
        col.add("model.potential_params", msg)
    return GridModelConfig(kind=kind, **m)


def _parse_initial(data: dict, model, col: _Collector) -> InitialConfig | None:
    sec = data.get("initial")
    is_grid = isinstance(model, GridModelConfig)
    if sec is None:
        sec = {"gaussian": {}} if is_grid else {"amplitudes": [1.0, 0.0]}
    if not isinstance(sec, dict):
        col.add("initial", "must be an object")
        return None
    col.read(sec, "initial", {"amplitudes": _BY_CODE, "gaussian": _BY_CODE})
    if "amplitudes" in sec and "gaussian" in sec:
        col.add("initial", "give either amplitudes or gaussian, not both")
    if "gaussian" in sec:
        if not is_grid:
            col.add("initial.gaussian", "only valid for grid models")
        g = sec["gaussian"]
        if not isinstance(g, dict) or not set(g) <= set(_GAUSSIAN):
            col.add("initial.gaussian", "must be {x0, p0, sigma}")
            return None
        return InitialConfig(gaussian=tuple(col.read(g, "initial.gaussian", _GAUSSIAN).values()))
    if "amplitudes" in sec:
        if is_grid:
            col.add("initial.amplitudes", "only valid for qubit models")
        amps = sec["amplitudes"]
        if not isinstance(amps, list) or not amps:
            col.add("initial.amplitudes", "must be a nonempty list")
            return None
        parsed = tuple(_parse_complex(a, f"initial.amplitudes[{i}]", col)
                       for i, a in enumerate(amps))
        if not is_grid and len(parsed) != 2:
            col.add("initial.amplitudes", "qubit states need exactly two entries")
        elif max(abs(z) for z in parsed) == 0.0:
            col.add("initial.amplitudes", "must not be the zero vector")
        return InitialConfig(amplitudes=parsed)
    col.add("initial", "needs amplitudes (qubit) or gaussian (grid)")
    return None


def _parse_observables(sec: dict, model, col: _Collector) -> tuple[ObservableConfig, ...]:
    raw = sec.get("observables")
    if raw is None:
        if isinstance(model, GridModelConfig):
            return (ObservableConfig("x"), ObservableConfig("x2"), ObservableConfig("p"))
        return (ObservableConfig("sigma_z"),)
    if not isinstance(raw, list):
        col.add("sim.observables", "must be a list")
        return ()
    out: list[ObservableConfig] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        path = f"sim.observables[{i}]"
        if isinstance(entry, str):
            out.append(ObservableConfig(entry))
        elif isinstance(entry, dict):
            if set(entry) != {"name", "matrix"} or not isinstance(entry.get("name"), str):
                col.add(path, 'inline observables are {"name": str, "matrix": {re, im}}')
                continue
            if not re.fullmatch(r"[A-Za-z0-9_.+-]+", entry["name"]):
                col.add(f"{path}.name", "names are limited to [A-Za-z0-9_.+-]")
                continue
            mat = _parse_matrix(entry["matrix"], f"{path}.matrix", col)
            if mat is not None:
                out.append(ObservableConfig(entry["name"], mat))
        else:
            col.add(path, "must be a name or an inline matrix object")
            continue
        if out and out[-1].name in seen:
            col.add(path, f"duplicate observable name {out[-1].name!r}")
        elif out:
            seen.add(out[-1].name)
    return tuple(out)


def parse_config_data(data) -> RunConfig:
    """Validate a raw JSON tree; collects every problem before raising."""
    if not isinstance(data, dict):
        raise ConfigError([("", "top level must be a JSON object")])
    col = _Collector()
    col.read(data, "", _SECTIONS)
    model = _parse_model(data, col)
    constants = col.read(_section(data, "constants", col) or {}, "constants", _CONSTANTS)
    initial = _parse_initial(data, model, col)

    sim_sec = _section(data, "sim", col, required=True) or {}
    sim = col.read(sim_sec, "sim", _SIM)
    dt, t_final = sim["dt"], sim["t_final"]
    if dt is not None and t_final is not None:
        if t_final < dt:
            col.add("sim.t_final", "must be at least sim.dt")
        elif not math.isfinite(t_final / dt):
            col.add("sim.t_final", "step count must be finite")
        elif abs(round(t_final / dt) * dt - t_final) > 1e-9 * max(t_final, 1.0):
            col.add("sim.t_final", "must be an integer multiple of sim.dt")
    observables = _parse_observables(sim_sec, model, col)

    ensemble = col.read(_section(data, "ensemble", col) or {}, "ensemble", _ENSEMBLE)
    output = col.read(_section(data, "output", col) or {}, "output", _OUTPUT)
    if "csv" not in output["formats"]:
        output["formats"] = ("csv",) + output["formats"]

    verify = _section(data, "verify", col) or {}
    for suite, knobs in verify.items():
        if suite not in _KNOBS:
            col.add(f"verify.{suite}", f"unknown suite; expected one of {list(SUITE_NAMES)}")
        elif not isinstance(knobs, dict):
            col.add(f"verify.{suite}", "must be an object of suite knobs")
        else:
            col.read(knobs, f"verify.{suite}", _KNOBS[suite], "unknown knob")

    col.raise_if_any()
    return RunConfig(
        model=model,
        **{f"constants_{k}": v for k, v in constants.items()},
        initial=initial,
        sim=SimConfig(**sim, observables=observables),
        ensemble=EnsembleConfig(**ensemble),
        output=OutputConfig(**output),
        verify=copy.deepcopy(verify),
    )


def parse_config(path, overrides=()) -> RunConfig:
    """Load, override, and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([("config", f"cannot read {path}: {exc}")]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([("config", f"invalid JSON in {path}: {exc}")]) from None
    if overrides and isinstance(data, dict):
        data = apply_overrides(data, overrides)
    return parse_config_data(data)


def apply_overrides(data, assignments) -> dict:
    """Apply dotted-path assignments (`sim.dt=1e-4`) to a raw JSON tree.

    Values parse as JSON, falling back to the literal string, so both
    `--set sim.dt=1e-4` and `--set model.channel=sigma_x` work.
    """
    out = copy.deepcopy(data)
    problems = []
    for raw in assignments:
        if "=" not in raw:
            problems.append(("--set", f"expected PATH=VALUE, got {raw!r}"))
            continue
        path, text = raw.split("=", 1)
        keys = path.split(".")
        if not path or any(not k for k in keys):
            problems.append(("--set", f"bad path in {raw!r}"))
            continue
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        ok = True
        for k in keys[:-1]:
            nxt = node.get(k)
            if nxt is None:
                nxt = {}
                node[k] = nxt
            elif not isinstance(nxt, dict):
                problems.append((path, f"{k} is not an object"))
                ok = False
                break
            node = nxt
        if ok:
            node[keys[-1]] = value
    if problems:
        raise ConfigError(problems)
    return out


def build_model(cfg: RunConfig) -> ModelSpec:
    m = cfg.model
    if isinstance(m, QubitModelConfig):
        return build_qubit_model(m.h_field, channel=m.channel,
                                 lam=cfg.constants_lambda, hbar=cfg.constants_hbar)
    grid = GridSpec(m.x_min, m.x_max, m.n_points)
    make, keys, _ = _POTENTIALS[m.potential]
    params = _checked(m.potential_params, "model.potential_params", keys)
    if m.potential == "harmonic":
        params["mass"] = m.mass
    pot = make(grid, **params)
    return build_grid_model(grid, pot, lam=cfg.constants_lambda,
                            mass=m.mass, hbar=cfg.constants_hbar)


def build_initial(cfg: RunConfig, model: ModelSpec) -> StateVector:
    if cfg.initial.amplitudes is not None:
        amps = np.array(cfg.initial.amplitudes, dtype=complex)
        if amps.size != model.dim:
            raise ConfigError([("initial.amplitudes",
                                f"expected {model.dim} entries, got {amps.size}")])
        return StateVector(model.basis, amps).normalized()
    x0, p0, sigma = cfg.initial.gaussian
    try:
        return gaussian_packet(model.basis, x0=x0, p0=p0, sigma=sigma, hbar=model.hbar)
    except NormalizationError:
        raise ConfigError([("initial.gaussian",
                            "the packet has no finite weight on the grid")]) from None


def build_observables(cfg: RunConfig, model: ModelSpec) -> dict[str, Operator]:
    out: dict[str, Operator] = {}
    for o in cfg.sim.observables:
        if o.matrix is None:
            try:
                out[o.name] = named_observable(model, o.name)
            except ValueError as exc:
                raise ConfigError([(f"sim.observables.{o.name}", str(exc))]) from None
        else:
            if o.matrix.shape != (model.dim, model.dim):
                raise ConfigError([(f"sim.observables.{o.name}",
                                    f"matrix shape {o.matrix.shape} does not match "
                                    f"dimension {model.dim}")])
            out[o.name] = Operator(model.basis, o.matrix)
    return out
