"""Run one qfilter CLI command in this fresh interpreter and record spans.

    python3 probe.py setup OUT.json CLI-ARGS...
    python3 probe.py trace OUT.json CLI-ARGS...

`setup` stops the command at its first integrator call, so the spans cover
the import of the package and the parse/build of config, model, initial
state and observables. `trace` runs the command to the end with one span
per call into each module's public functions. Spans are kept in memory and
written to OUT.json when the command ends. The exit code is the command's,
or 0 for a set-up probe that reached the integrator.

Spans are taken from outside the program: each public function is wrapped
at the name its calling module looks up. Calls made inside pool workers are
not seen.
"""

import time

T_START = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# (calling module, name it looks up). run_ensemble and solve_master also
# end a set-up probe.
BUILD = [
    ("qfilter.cli", "parse_config"),
    ("qfilter.cli", "build_model"),
    ("qfilter.cli", "build_initial"),
    ("qfilter.cli", "build_observables"),
    ("qfilter.suites", "build_model"),
    ("qfilter.suites", "build_initial"),
]
INTEGRATORS = [
    ("qfilter.cli", "run_ensemble"),
    ("qfilter.cli", "solve_master"),
    ("qfilter.suites", "run_ensemble"),
    ("qfilter.suites", "solve_master"),
]
LAYERS = [
    ("qfilter.cli", "run_suite"),
    ("qfilter.cli", "write_simulation"),
    ("qfilter.cli", "write_master"),
    ("qfilter.cli", "write_report"),
    ("qfilter.cli", "export_plot"),
    ("qfilter.suites", "ensemble_vs_master"),
    ("qfilter.analysis", "ensemble_average"),
    ("qfilter.output", "verify_artifacts"),
]


class ReachedIntegrator(Exception):
    """Raised by a set-up probe in place of the first integrator call."""


def _array_bytes(value) -> int:
    import numpy as np  # already loaded by qfilter; kept out of the import span

    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return sum(_array_bytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(v) for v in value)
    return sum(_array_bytes(getattr(value, a))
               for a in ("amplitudes", "increments", "cumulative") if hasattr(value, a))


def _results_bytes(results) -> int:
    """Bytes of the per-trajectory arrays, from their shapes; the model and
    the initial state are shared between trajectories and not counted."""
    fields = ("snapshot_steps", "times", "states", "expectations", "log_amplitude",
              "log_norm", "step_norms", "record", "noise")
    return sum(_array_bytes(getattr(r, f)) for r in results for f in fields)


def _attrs(name: str, args: dict, result) -> dict:
    """Counts recorded on a span, read from the call's arguments and result."""
    if name == "solvers.run_ensemble":
        from qfilter.solvers import resolve_workers

        return {"n_trajectories": args["n_trajectories"], "n_steps": args["n_steps"],
                "workers": resolve_workers(args.get("workers"), args["n_trajectories"]),
                "results_bytes": _results_bytes(result)}
    if name == "solvers.solve_master":
        model = args["model"]
        return {"dim": model.dim, "n_channels": model.n_channels, "n_steps": args["n_steps"]}
    if name == "analysis.ensemble_average":
        return {"n_trajectories": result.n_trajectories, "n_snapshots": len(result.times)}
    if name == "suites.run_suite":
        checks = result[0]["checks"]
        return {"checks": len(checks), "checks_passed": sum(bool(c["pass"]) for c in checks)}
    return {}


class Tracer:
    """Spans of wrapped calls in this process: name, start, end, parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def open(self, name: str, start: float) -> dict:
        span = {"name": name, "start": start, "end": None,
                "parent": self._open[-1] if self._open else None, "attrs": {}}
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._open.pop()

    def wrap(self, module: str, attr: str, stop: bool = False) -> None:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)
        name = f"{fn.__module__.removeprefix('qfilter.')}.{fn.__name__}"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, time.monotonic())
            if stop:
                self.close(span)
                raise ReachedIntegrator(span["start"])
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span["attrs"] = _attrs(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(mod, attr, traced)


def main(argv: list[str]) -> int:
    mode, out_path, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("setup", "trace"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    tracer = Tracer()
    span = tracer.open("package.import", time.monotonic())
    import qfilter.cli

    tracer.close(span)
    for module, attr in BUILD:
        tracer.wrap(module, attr)
    for module, attr in INTEGRATORS:
        tracer.wrap(module, attr, stop=(mode == "setup"))
    if mode == "trace":
        for module, attr in LAYERS:
            tracer.wrap(module, attr)
    reached = None
    try:
        code = qfilter.cli.main(cli_args)
    except ReachedIntegrator as exc:
        reached, code = exc.args[0], 0
    doc = {"mode": mode, "t_start": T_START, "t_end": time.monotonic(),
           "reached_integrator": reached, "exit_code": code, "spans": tracer.spans}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    if mode == "setup" and reached is None:
        print("set-up probe never reached an integrator", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
