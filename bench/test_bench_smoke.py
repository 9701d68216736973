"""Smoke test of the benchmark's own code, at reduced problem sizes.

Each workload runs through ``run.measure`` exactly as a benchmark run does, with
two worker processes: one untraced and one traced.  That exercises every
gate, the determinism comparison between the two, and the per-layer
metrics, which must include every one ``BENCHMARK.json`` declares.
"""
import json

import pytest

from bench import run
from bench.spec import WORKLOADS, operations
from bench.tracer import layer_metrics

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_passes_every_gate(workload):
    record = run.measure(workload, seed=3, seconds=0, trace=True, size="smoke")
    assert record["failures"] == []
    # two repeats of every gate, plus one determinism comparison
    assert record["attempted"] == 2 * len(operations(workload)) + 1
    assert {m["name"] for m in DECLARED["per_layer"]} <= set(record["metrics"])
    assert record["metrics"]["trace.spans"] > 0


def test_untraced_smoke_run_reports_end_to_end_metrics():
    record = run.measure("cell_nd", seed=3, seconds=0, trace=False, size="smoke")
    assert record["failures"] == []
    assert set(record["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(v > 0 for v in record["metrics"].values())


def test_self_time_subtracts_child_spans():
    # name, start, end, parent, run, info
    spans = [["experiments.run_experiment", 0.0, 10.0, -1, 0, None],
             ["simulate.multiscale", 1.0, 5.0, 0, 0, 100],
             ["rng.normals", 2.0, 3.0, 1, 0, 40],
             ["rng.normals", 3.5, 4.0, 1, 0, 40]]
    m = layer_metrics(spans, [])
    assert m["experiments.self_s"] == 6.0
    assert m["simulate.self_s"] == 2.5
    assert m["rng.self_s"] == m["rng.normals_s"] == 1.5
    assert m["rng.draws"] == 80
    assert m["simulate.ns_per_particle_step.multiscale"] == pytest.approx(4e7)
