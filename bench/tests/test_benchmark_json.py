"""BENCHMARK.json describes exactly what the benchmark measures."""

import json
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WHY, WORKLOAD_NAMES, result_layer_metrics

DOC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_workloads_and_reasons():
    assert [(w["name"], w["why"]) for w in DOC["workloads"]] == [
        (name, WHY[name]) for name in WORKLOAD_NAMES
    ]


def test_end_to_end_metrics():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in DOC["end_to_end"]
    ] == [(name, *spec) for name, spec in END_TO_END.items()]


def test_per_layer_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in DOC["per_layer"]] == [
        (name, *PER_LAYER[name][:2]) for name in result_layer_metrics()
    ]
