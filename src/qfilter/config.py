"""Run configuration: JSON schema, validation, and model assembly.

Schema (JSON object, unknown keys rejected):

  model      {"kind": "qubit", "h_field": number | [hx, hy, hz],
              "channel": "sigma_x" | "sigma_y" | "sigma_z"}
           | {"kind": "grid1d", "x_min": num, "x_max": num, "n_points": int,
              "potential": "free" | "harmonic" | "barrier" | "table",
              "potential_params": {...}, "mass": num}
  constants  {"hbar": num > 0, "lambda": num >= 0}
  initial    {"amplitudes": [entry, ...]}          (qubit; entry = num,
              [re, im], or {"re": num, "im": num})
           | {"gaussian": {"x0": num, "p0": num, "sigma": num > 0}}  (grid)
  sim        {"dt": num > 0, "t_final": num, "scheme": str,
              "record_stride": int >= 1, "observables": [name | inline, ...]}
             inline = {"name": str, "matrix": {"re": [[...]], "im": [[...]]}}
  ensemble   {"n_trajectories": int >= 1, "master_seed": int}
  output     {"directory": str | null, "formats": ["csv" | "bin", ...]}
  verify     {suite_name: {knob: value, ...}, ...}

Only `model` and `sim.dt` / `sim.t_final` are required; everything else has
defaults (hbar 1, lambda 1, mass 1, scheme "nonlinear", record_stride 10,
qubit initial (1, 0), grid initial a unit gaussian, observables sigma_z on
qubits and x, x2, p on grids). All validation problems are collected and
raised together with dotted field paths. `--set` style overrides edit the
raw JSON tree before validation, values parsed as JSON with a plain-string
fallback.
"""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
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

_MAX_SEED = 2**64
SUITE_NAMES = ("equivalence", "ensemble", "born", "order", "filtering", "gauge")
_POTENTIALS = ("free", "harmonic", "barrier", "table")
_FORMATS = ("csv", "bin")


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


class _Collector:
    def __init__(self):
        self.problems: list[tuple[str, str]] = []

    def add(self, path: str, msg: str) -> None:
        self.problems.append((path, msg))

    def num(self, sec: dict, path: str, key: str, default):
        v = sec.get(key, default)
        if not _is_num(v):
            self.add(f"{path}.{key}", "must be a number")
            return default
        return float(v)

    def integer(self, sec: dict, path: str, key: str, default):
        v = sec.get(key, default)
        if not _is_int(v):
            self.add(f"{path}.{key}", "must be an integer")
            return default
        return v

    def check_keys(self, sec: dict, path: str, allowed) -> None:
        for k in sec:
            if k not in allowed:
                self.add(f"{path}.{k}" if path else k, "unknown key")

    def raise_if_any(self) -> None:
        if self.problems:
            raise ConfigError(self.problems)


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
class QubitModelConfig:
    h_field: tuple[float, float, float] = (1.0, 0.0, 0.0)
    channel: str = "sigma_z"
    kind: str = "qubit"


@dataclass(frozen=True)
class GridModelConfig:
    x_min: float
    x_max: float
    n_points: int
    potential: str = "free"
    potential_params: dict = field(default_factory=dict)
    mass: float = 1.0
    kind: str = "grid1d"


@dataclass(frozen=True)
class InitialConfig:
    amplitudes: tuple[complex, ...] | None = None
    gaussian: tuple[float, float, float] | None = None  # (x0, p0, sigma)


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_final: float
    scheme: str = "nonlinear"
    record_stride: int = 10
    observables: tuple[ObservableConfig, ...] = ()


@dataclass(frozen=True)
class EnsembleConfig:
    n_trajectories: int = 1
    master_seed: int = 0


@dataclass(frozen=True)
class OutputConfig:
    directory: str | None = None
    formats: tuple[str, ...] = ("csv",)


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
        m = self.model
        if isinstance(m, QubitModelConfig):
            model = {"kind": "qubit", "h_field": list(m.h_field), "channel": m.channel}
        else:
            model = {
                "kind": "grid1d", "x_min": m.x_min, "x_max": m.x_max,
                "n_points": m.n_points, "potential": m.potential,
                "potential_params": dict(sorted(m.potential_params.items())),
                "mass": m.mass,
            }
        if self.initial.amplitudes is not None:
            initial = {"amplitudes": [[z.real, z.imag] for z in self.initial.amplitudes]}
        else:
            x0, p0, sigma = self.initial.gaussian
            initial = {"gaussian": {"x0": x0, "p0": p0, "sigma": sigma}}
        obs = []
        for o in self.sim.observables:
            if o.matrix is None:
                obs.append(o.name)
            else:
                obs.append({"name": o.name, "matrix": {
                    "re": o.matrix.real.tolist(), "im": o.matrix.imag.tolist()}})
        return {
            "model": model,
            "constants": {"hbar": self.constants_hbar, "lambda": self.constants_lambda},
            "initial": initial,
            "sim": {
                "dt": self.sim.dt, "t_final": self.sim.t_final,
                "scheme": self.sim.scheme, "record_stride": self.sim.record_stride,
                "observables": obs,
            },
            "ensemble": {"n_trajectories": self.ensemble.n_trajectories,
                         "master_seed": self.ensemble.master_seed},
            "output": {"directory": self.output.directory,
                       "formats": list(self.output.formats)},
            "verify": self.verify,
        }


def _parse_model(data: dict, col: _Collector):
    sec = data.get("model")
    if not isinstance(sec, dict):
        col.add("model", "required section missing or not an object")
        return QubitModelConfig()
    kind = sec.get("kind")
    if kind == "qubit":
        col.check_keys(sec, "model", {"kind", "h_field", "channel"})
        h = sec.get("h_field", [1.0, 0.0, 0.0])
        if _is_num(h):
            h = [float(h), 0.0, 0.0]
        if not (isinstance(h, list) and len(h) == 3 and all(_is_num(v) for v in h)):
            col.add("model.h_field", "must be a number or a list of three numbers")
            h = [1.0, 0.0, 0.0]
        channel = sec.get("channel", "sigma_z")
        if not isinstance(channel, str) or channel not in PAULI:
            col.add("model.channel", f"must be one of {sorted(PAULI)}")
            channel = "sigma_z"
        return QubitModelConfig(h_field=tuple(float(v) for v in h), channel=channel)
    if kind == "grid1d":
        col.check_keys(sec, "model", {"kind", "x_min", "x_max", "n_points",
                                      "potential", "potential_params", "mass"})
        x_min = col.num(sec, "model", "x_min", -10.0)
        x_max = col.num(sec, "model", "x_max", 10.0)
        if x_max <= x_min:
            col.add("model.x_max", "must exceed model.x_min")
            x_min, x_max = -10.0, 10.0
        n_points = col.integer(sec, "model", "n_points", 128)
        if n_points < 8:
            col.add("model.n_points", "must be an integer of at least 8")
            n_points = 8
        potential = sec.get("potential", "free")
        if potential not in _POTENTIALS:
            col.add("model.potential", f"must be one of {list(_POTENTIALS)}")
            potential = "free"
        params = sec.get("potential_params", {})
        if not isinstance(params, dict):
            col.add("model.potential_params", "must be an object")
            params = {}
        if potential == "harmonic":
            bad = set(params) - {"omega", "center"}
            omega = params.get("omega", 1.0)
            if bad or not _is_num(omega) or omega <= 0:
                col.add("model.potential_params", "harmonic needs omega > 0 (optional center)")
        elif potential == "barrier":
            bad = set(params) - {"height", "width", "center"}
            if bad or not _is_num(params.get("height", 0.0)) \
                    or not _is_num(params.get("width", 1.0)) or params.get("width", 1.0) <= 0:
                col.add("model.potential_params", "barrier needs height and width > 0")
        elif potential == "table":
            vals = params.get("values")
            if set(params) - {"values"} or not isinstance(vals, list) \
                    or len(vals) != n_points or not all(_is_num(v) for v in vals):
                col.add("model.potential_params",
                        "table needs values with one number per grid point")
        elif params:
            col.add("model.potential_params", "free potential takes no parameters")
        mass = col.num(sec, "model", "mass", 1.0)
        if mass <= 0:
            col.add("model.mass", "must be positive")
            mass = 1.0
        return GridModelConfig(x_min=x_min, x_max=x_max, n_points=n_points,
                               potential=potential, potential_params=dict(params),
                               mass=mass)
    col.add("model.kind", 'must be "qubit" or "grid1d"')
    return QubitModelConfig()


def _parse_initial(data: dict, model, col: _Collector) -> InitialConfig:
    sec = data.get("initial")
    is_grid = isinstance(model, GridModelConfig)
    if sec is None:
        if is_grid:
            return InitialConfig(gaussian=(0.0, 0.0, 1.0))
        return InitialConfig(amplitudes=(1 + 0j, 0j))
    if not isinstance(sec, dict):
        col.add("initial", "must be an object")
        return InitialConfig(amplitudes=(1 + 0j, 0j))
    col.check_keys(sec, "initial", {"amplitudes", "gaussian"})
    if "amplitudes" in sec and "gaussian" in sec:
        col.add("initial", "give either amplitudes or gaussian, not both")
    if "gaussian" in sec:
        if not is_grid:
            col.add("initial.gaussian", "only valid for grid models")
        g = sec["gaussian"]
        if not isinstance(g, dict) or not set(g) <= {"x0", "p0", "sigma"}:
            col.add("initial.gaussian", "must be {x0, p0, sigma}")
            return InitialConfig(gaussian=(0.0, 0.0, 1.0))
        gc = _Collector()
        x0 = gc.num(g, "initial.gaussian", "x0", 0.0)
        p0 = gc.num(g, "initial.gaussian", "p0", 0.0)
        sigma = gc.num(g, "initial.gaussian", "sigma", 1.0)
        col.problems.extend(gc.problems)
        if sigma <= 0:
            col.add("initial.gaussian.sigma", "must be positive")
            sigma = 1.0
        return InitialConfig(gaussian=(x0, p0, sigma))
    if "amplitudes" in sec:
        if is_grid:
            col.add("initial.amplitudes", "only valid for qubit models")
        amps = sec["amplitudes"]
        if not isinstance(amps, list) or not amps:
            col.add("initial.amplitudes", "must be a nonempty list")
            return InitialConfig(amplitudes=(1 + 0j, 0j))
        parsed = tuple(_parse_complex(a, f"initial.amplitudes[{i}]", col)
                       for i, a in enumerate(amps))
        if not is_grid and len(parsed) != 2:
            col.add("initial.amplitudes", "qubit states need exactly two entries")
            parsed = (1 + 0j, 0j)
        if max(abs(z) for z in parsed) == 0.0:
            col.add("initial.amplitudes", "must not be the zero vector")
            parsed = (1 + 0j,) + (0j,) * (len(parsed) - 1)
        return InitialConfig(amplitudes=parsed)
    col.add("initial", "needs amplitudes (qubit) or gaussian (grid)")
    return InitialConfig(amplitudes=(1 + 0j, 0j)) if not is_grid \
        else InitialConfig(gaussian=(0.0, 0.0, 1.0))


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
    col.check_keys(data, "", {"model", "constants", "initial", "sim",
                              "ensemble", "output", "verify"})
    model = _parse_model(data, col)

    consts = data.get("constants", {})
    if not isinstance(consts, dict):
        col.add("constants", "must be an object")
        consts = {}
    col.check_keys(consts, "constants", {"hbar", "lambda"})
    hbar = col.num(consts, "constants", "hbar", 1.0)
    if hbar <= 0:
        col.add("constants.hbar", "must be positive")
        hbar = 1.0
    lam = col.num(consts, "constants", "lambda", 1.0)
    if lam < 0:
        col.add("constants.lambda", "must be nonnegative")
        lam = 1.0

    initial = _parse_initial(data, model, col)

    sim_sec = data.get("sim")
    if not isinstance(sim_sec, dict):
        col.add("sim", "required section missing or not an object")
        sim_sec = {}
    col.check_keys(sim_sec, "sim", {"dt", "t_final", "scheme", "record_stride",
                                    "observables"})
    if "dt" not in sim_sec:
        col.add("sim.dt", "required")
    if "t_final" not in sim_sec:
        col.add("sim.t_final", "required")
    dt = col.num(sim_sec, "sim", "dt", 1e-3)
    if dt <= 0:
        col.add("sim.dt", "must be positive")
        dt = 1e-3
    t_final = col.num(sim_sec, "sim", "t_final", dt)
    if t_final < dt:
        col.add("sim.t_final", "must be at least sim.dt")
        t_final = dt
    elif not math.isfinite(t_final / dt):
        col.add("sim.t_final", "step count must be finite")
    else:
        n = round(t_final / dt)
        if abs(n * dt - t_final) > 1e-9 * max(t_final, 1.0):
            col.add("sim.t_final", "must be an integer multiple of sim.dt")
    scheme = sim_sec.get("scheme", "nonlinear")
    if scheme not in SCHEMES:
        col.add("sim.scheme", f"must be one of {list(SCHEMES)}")
        scheme = "nonlinear"
    stride = col.integer(sim_sec, "sim", "record_stride", 10)
    if stride < 1:
        col.add("sim.record_stride", "must be at least 1")
        stride = 10
    observables = _parse_observables(sim_sec, model, col)

    ens = data.get("ensemble", {})
    if not isinstance(ens, dict):
        col.add("ensemble", "must be an object")
        ens = {}
    col.check_keys(ens, "ensemble", {"n_trajectories", "master_seed"})
    n_traj = col.integer(ens, "ensemble", "n_trajectories", 1)
    if n_traj < 1:
        col.add("ensemble.n_trajectories", "must be at least 1")
        n_traj = 1
    seed = col.integer(ens, "ensemble", "master_seed", 0)
    if not 0 <= seed < _MAX_SEED:
        col.add("ensemble.master_seed", "must lie in [0, 2^64)")
        seed = 0

    out_sec = data.get("output", {})
    if not isinstance(out_sec, dict):
        col.add("output", "must be an object")
        out_sec = {}
    col.check_keys(out_sec, "output", {"directory", "formats"})
    directory = out_sec.get("directory")
    if directory is not None and not isinstance(directory, str):
        col.add("output.directory", "must be a string or null")
        directory = None
    formats = out_sec.get("formats", ["csv"])
    if not isinstance(formats, list) or not formats \
            or any(f not in _FORMATS for f in formats):
        col.add("output.formats", f"must be a nonempty list drawn from {list(_FORMATS)}")
        formats = ["csv"]
    if "csv" not in formats:
        formats = ["csv"] + list(formats)

    verify = data.get("verify", {})
    if not isinstance(verify, dict):
        col.add("verify", "must be an object")
        verify = {}
    for k, v in verify.items():
        if k not in SUITE_NAMES:
            col.add(f"verify.{k}", f"unknown suite; expected one of {list(SUITE_NAMES)}")
        elif not isinstance(v, dict):
            col.add(f"verify.{k}", "must be an object of suite knobs")

    col.raise_if_any()
    return RunConfig(
        model=model,
        constants_hbar=hbar,
        constants_lambda=lam,
        initial=initial,
        sim=SimConfig(dt=dt, t_final=t_final, scheme=scheme,
                      record_stride=stride, observables=observables),
        ensemble=EnsembleConfig(n_trajectories=n_traj, master_seed=seed),
        output=OutputConfig(directory=directory, formats=tuple(formats)),
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
    if overrides:
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
    params = m.potential_params
    if m.potential == "harmonic":
        pot = GridPotential.harmonic(grid, params.get("omega", 1.0), mass=m.mass,
                                     center=params.get("center", 0.0))
    elif m.potential == "barrier":
        pot = GridPotential.barrier(grid, params.get("height", 0.0),
                                    params.get("width", 1.0),
                                    center=params.get("center", 0.0))
    elif m.potential == "table":
        pot = GridPotential.from_table(grid, params["values"])
    else:
        pot = GridPotential.free(grid)
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
    return gaussian_packet(model.basis, x0=x0, p0=p0, sigma=sigma, hbar=model.hbar)


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
