"""Self-check of the benchmark at tiny size.

    python3 -m pytest perfbench/test_perfbench.py

Every metric named in BENCHMARK.json is printed for every workload with its
unit, spans nest, self times are non-negative, and the self times of a
traced command plus its cli self time add up to its wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5

sys.path.insert(0, str(HERE))
from run import self_times  # noqa: E402


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "1", "--seed", str(SEED), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result


def _assert_metrics(result: dict, specs: list[dict]) -> None:
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in specs}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit, name
        assert isinstance(result["metrics"][name]["value"], (int, float)), name


@pytest.fixture(scope="module")
def traced() -> dict:
    return _run(1)


def test_end_to_end_metrics_are_printed_with_units():
    result = _run(0)
    _assert_metrics(result, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        if name.endswith((".wall_s", ".setup_s", ".peak_rss_mb")):
            assert metric["value"] > 0, name


def test_per_layer_metrics_are_printed_with_units(traced):
    _assert_metrics(traced, SPEC["per_layer"])


def test_spans_nest_and_self_times_add_up(traced):
    for workload in SPEC["workloads"]:
        path = ROOT / ".perfbench" / "results" / f"{workload['name']}-seed{SEED}-trace1.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        commands = [c for r in record["reps"] if r["traced"] for c in r["commands"]]
        assert commands
        for command in commands:
            spans = command["spans"]
            assert spans[0]["name"] == "package.import"
            for i, span in enumerate(spans):
                assert span["start"] <= span["end"]
                siblings = [s for s in spans[:i] if s["parent"] == span["parent"]]
                assert all(s["end"] <= span["start"] for s in siblings)
                if span["parent"] is not None:
                    parent = spans[span["parent"]]
                    assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                    assert parent["run_id"] == span["run_id"]
            selfs = self_times(spans)
            assert min(selfs) >= 0.0
            top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
            cli_self = command["wall_s"] - top
            assert cli_self >= 0.0
            assert sum(selfs) + cli_self == pytest.approx(command["wall_s"], abs=1e-9)
