#!/usr/bin/env python3
"""Byte comparison of the command line's artifacts between two source trees.

    python3 scripts/compare_artifacts.py A_SRC B_SRC

Runs a fixed list of CLI cases with PYTHONPATH set to each tree (a `src`
directory holding `qfilter`) and QFILTER_THREADS set to 1 and to 2:

  - the six verify suites at their `tests/conftest.py` configurations, the
    gauge suite at the equivalence one;
  - the three `perfbench/run.py` workloads at full size, seed 0;
  - `verify --suite gauge` on perfbench's VERIFY_GRID;
  - a 24-trajectory gauge `simulate` on VERIFY_GRID, written as csv and bin.

Every run starts in a fresh directory with relative paths. A case passes
when all its runs give the same exit codes and the same sha256 for every
file they leave. One line per case is printed, with the number of files and
the first 16 hex digits of a digest over their paths and sha256s; the exit
code is 0 only if every case passes. With A_SRC = B_SRC the tree runs once
per worker count, which checks that no artifact depends on the worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_MAIN = "import sys; from qfilter.cli import main; sys.exit(main())"
THREADS = ("1", "2")
SEED = 0


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cases() -> dict[str, tuple[dict, list[list[str]]]]:
    """case name -> (config, commands); a command names the config as
    `config.json` and writes under `out`."""
    sys.path.insert(0, str(ROOT / "src"))  # tests/conftest.py imports qfilter
    suites = _load("conftest", ROOT / "tests" / "conftest.py").SUITE_CONFIGS
    bench = _load("perfbench_run", ROOT / "perfbench" / "run.py")
    out = Path("out")

    def verify(suite: str) -> list[list[str]]:
        return [["verify", "--suite", suite, "--config", "config.json", "--out", "out/report"]]

    cases = {f"suite-{s}": (cfg, verify(s)) for s, cfg in suites.items()}
    cases["suite-gauge"] = (suites["equivalence"], verify("gauge"))
    for name, w in bench.WORKLOADS.items():
        cases[f"bench-{name}"] = (w.config, w.commands("config.json", out, SEED))
    cases["grid-verify-gauge"] = (bench.VERIFY_GRID, verify("gauge"))
    cases["grid-simulate-gauge"] = (bench.VERIFY_GRID, [[
        "simulate", "--config", "config.json", "--out", "out/sim",
        "--set", "ensemble.n_trajectories=24", "--set", 'output.formats=["csv","bin"]']])
    return cases


def _run(src: Path, threads: str, config: dict, commands: list[list[str]]):
    """(exit codes, {relative path: sha256}) of one case in a fresh directory."""
    env = dict(os.environ, PYTHONPATH=str(src), QFILTER_THREADS=threads)
    with tempfile.TemporaryDirectory(prefix="qfilter-compare-") as tmp:
        work = Path(tmp)
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        codes = tuple(subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], cwd=work,
                                     env=env, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL).returncode
                      for argv in commands)
        files = {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(work.rglob("*")) if p.is_file()}
    return codes, files


def _differences(ref, other) -> list[str]:
    (codes_a, files_a), (codes_b, files_b) = ref, other
    out = [] if codes_a == codes_b else [f"exit codes {codes_a} != {codes_b}"]
    out += [f"{p} differs" for p in sorted(set(files_a) | set(files_b))
            if files_a.get(p) != files_b.get(p)]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_src", type=Path)
    ap.add_argument("b_src", type=Path)
    args = ap.parse_args(argv)
    trees = dict.fromkeys(p.resolve() for p in (args.a_src, args.b_src))
    cases = _cases()
    failed = 0
    for name, (config, commands) in cases.items():
        runs = {(src, t): _run(src, t, config, commands) for src in trees for t in THREADS}
        ref = next(iter(runs.values()))
        problems = [f"{src} QFILTER_THREADS={t}: {d}" for (src, t), res in runs.items()
                    for d in _differences(ref, res)]
        digest = hashlib.sha256(json.dumps(ref[1], sort_keys=True).encode()).hexdigest()
        print(f"{name:28s} exit {ref[0]} {len(ref[1]):4d} files {digest[:16]} "
              f"{'FAIL' if problems else 'ok'}", flush=True)
        for p in problems:
            print(f"    {p}")
        failed += bool(problems)
    print(f"{failed} of {len(cases)} cases differ" if failed else "all cases agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
