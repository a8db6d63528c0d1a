"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Two traced runs with one seed must report identical counts and ratios
(only times may differ), and every run must print exactly the metric
names and units recorded in BENCHMARK.json.  Each test starts the
benchmark as a separate process from the repository root.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
TIMES = {name for name, unit in tracing.metric_units().items() if unit == "s"}
TIMES.add("trace.overhead_ratio")


def run(workload, trace, seed=7, seconds=1):
    proc = subprocess.run(
        [sys.executable] + BENCHMARK["command"][1:]
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    return result


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_workload_names_match_the_generator():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


def test_per_layer_names_match_the_tracer():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.metric_units()


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_names_and_units(workload):
    result = run(workload, trace=0)
    assert units(result["metrics"]) == {m["name"]: m["unit"]
                                        for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = run(workload, trace=1), run(workload, trace=1)
    assert units(first["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    counts = {name: m["value"] for name, m in first["metrics"].items() if name not in TIMES}
    again = {name: m["value"] for name, m in second["metrics"].items() if name not in TIMES}
    assert counts == again
    assert first["metrics"]["cli.main.calls"]["value"] > 0
