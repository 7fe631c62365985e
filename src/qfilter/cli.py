"""Command line interface.

  qfilter simulate    --config PATH [--seed N] [--trajectories N]
                      [--set K=V ...] --out DIR
  qfilter master      --config PATH [--set K=V ...] --out DIR
  qfilter verify      --suite NAME --config PATH [--set K=V ...] --out DIR
  qfilter export-plot --in DIR --what WHAT --out FILE

Exit codes: 0 success, 2 validation or usage problem, 3 numerical failure,
4 verification suite failed. QFILTER_THREADS caps the worker processes
that integrate trajectories and those that write them. `master` writes
master.csv while it solves, a row per stored matrix, and keeps no history;
with a cap of 1 the rows are formatted in the solving process instead of a
forked writer.
"""

from __future__ import annotations

import argparse
import sys

from .config import SUITE_NAMES, build_initial, build_model, build_observables, parse_config
from .errors import (
    ArtifactMismatchError,
    BasisMismatchError,
    ConfigError,
    InstabilityError,
    NormalizationError,
    OracleSizeError,
    StepFailureError,
    UnsupportedConfigurationError,
)
from .linalg import projector
from .output import MasterExport, export_plot, write_master, write_report, write_simulation
from .solvers import run_ensemble, solve_master
from .suites import run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfilter",
        description="Simulate continuously observed quantum systems: "
                    "conditioned trajectories, their averaged dynamics, and "
                    "verification suites for the advertised equivalences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="PATH=VALUE", help="override a config field "
                       "(dotted path, JSON value), e.g. --set sim.dt=1e-4")
        p.add_argument("--out", required=True, help="output directory")

    sim = sub.add_parser("simulate", help="run conditioned trajectories")
    common(sim)
    sim.add_argument("--seed", type=int, help="override ensemble.master_seed")
    sim.add_argument("--trajectories", type=int,
                     help="override ensemble.n_trajectories")

    mas = sub.add_parser("master", help="integrate the averaged equation")
    common(mas)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, choices=SUITE_NAMES)
    common(ver)

    exp = sub.add_parser("export-plot", help="flatten a run into one CSV")
    exp.add_argument("--in", dest="run_dir", required=True,
                     help="simulation output directory")
    exp.add_argument("--what", required=True,
                     help="expectation:NAME | variance | record | norm")
    exp.add_argument("--out", required=True, help="output CSV file")
    return parser


def _cmd_simulate(args) -> int:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"ensemble.master_seed={args.seed}")
    if args.trajectories is not None:
        overrides.append(f"ensemble.n_trajectories={args.trajectories}")
    cfg = parse_config(args.config, overrides)
    model = build_model(cfg)
    initial = build_initial(cfg, model)
    observables = build_observables(cfg, model)
    results = run_ensemble(
        model, initial, cfg.sim.dt, cfg.n_steps,
        cfg.ensemble.master_seed, cfg.ensemble.n_trajectories,
        scheme=cfg.sim.scheme, observables=observables,
        record_stride=cfg.sim.record_stride,
    )
    out = write_simulation(args.out, cfg.resolved(), results, cfg.output.formats)
    print(f"wrote {len(results)} trajectories to {out}")
    return 0


def _cmd_master(args) -> int:
    cfg = parse_config(args.config, args.overrides)
    model = build_model(cfg)
    initial = build_initial(cfg, model)
    with MasterExport(args.out, model.basis) as export:
        dtraj = solve_master(model, projector(initial), cfg.sim.dt, cfg.n_steps,
                             store_stride=cfg.sim.record_stride, on_store=export.hook)
        out = write_master(args.out, cfg.resolved(), dtraj, export)
    print(f"wrote averaged dynamics ({dtraj.times.size} checkpoints) to {out}")
    return 0


def _cmd_verify(args) -> int:
    cfg = parse_config(args.config, args.overrides)
    report, series = run_suite(args.suite, cfg)
    out = write_report(args.out, cfg.resolved(), args.suite, report, series)
    for c in report["checks"]:
        verdict = "pass" if c["pass"] else "FAIL"
        print(f"{args.suite}: {c['name']} = {c['measured']:.6g} "
              f"(bound {c['bound']}) ... {verdict}")
    print(f"wrote report to {out}")
    return 0 if report["passed"] else 4


def _cmd_export_plot(args) -> int:
    export_plot(args.run_dir, args.what, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "simulate": _cmd_simulate,
        "master": _cmd_master,
        "verify": _cmd_verify,
        "export-plot": _cmd_export_plot,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, UnsupportedConfigurationError, OracleSizeError,
            ArtifactMismatchError, BasisMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StepFailureError, InstabilityError, NormalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
