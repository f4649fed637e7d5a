"""BENCHMARK.json and the benchmark's own metric tables agree."""

import json
from pathlib import Path

from perfbench import spec
from perfbench.workloads import WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _benchmark():
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def test_workloads_match():
    names = [w["name"] for w in _benchmark()["workloads"]]
    assert names == list(spec.WORKLOADS) == list(WORKLOADS)


def test_end_to_end_metrics_match():
    listed = {m["name"]: (m["unit"], m["better"])
              for m in _benchmark()["end_to_end"]}
    assert listed == {n: (u, b) for n, (u, b, _) in spec.END_TO_END.items()}


def test_per_layer_metrics_match():
    listed = [(m["name"], m["unit"], m["better"])
              for m in _benchmark()["per_layer"]]
    assert listed == [(n, u, b) for n, (u, b, _) in spec.PER_LAYER.items()]


def test_oltp_mix_fills_a_pass_exactly():
    counts = [round(share * spec.OLTP_WINDOW)
              for share in spec.OLTP_MIX.values()]
    assert sum(counts) == spec.OLTP_WINDOW
