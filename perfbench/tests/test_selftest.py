"""Self-test of the benchmark: traced runs of every workload, twice at one seed.

Run from the repository root (takes a few minutes):

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402
from layers import BUSY_ON, COUNTER_KEYS, PER_LAYER_METRICS  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=bench.WORKLOAD_NAMES)
def traced_twice(request):
    # seconds=0: one untraced and one traced pass per run
    return request.param, [bench.run(request.param, SEED, 0, trace=True)[0] for _ in range(2)]


def test_output_checks_pass_under_tracing(traced_twice):
    _, results = traced_twice
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2


def test_reports_every_per_layer_metric(traced_twice):
    _, results = traced_twice
    assert [name for name, _ in PER_LAYER_METRICS] == list(results[0]["metrics"])


def test_listed_layers_are_busy(traced_twice):
    workload, results = traced_twice
    metrics = results[0]["metrics"]
    idle = [
        f"{m}.{q}"
        for (m, q), busy_on in BUSY_ON.items()
        if workload in busy_on and metrics[f"{m}.{q}.calls"]["value"] <= 0
    ]
    assert idle == []


def test_call_counts_repeat(traced_twice):
    _, (a, b) = traced_twice
    keys = [k for k in a["metrics"] if k.endswith(".calls") or k in COUNTER_KEYS]
    assert {k: a["metrics"][k]["value"] for k in keys} == {
        k: b["metrics"][k]["value"] for k in keys
    }


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
