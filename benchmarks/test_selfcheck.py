"""Self-checks of the benchmark: exact span counts, generator verdicts, references.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks``.
"""
from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import opmodel
import opmodel.cli  # noqa: F401  (the tracer wraps cli.run)
import run
from synth import Shape, SynthModel
from tracing import Tracer
from workloads import LsiCli, SynthQuery, check_synth_report, run_cli

SRC = Path(opmodel.__file__).resolve().parents[1]
BENCHMARK = json.loads((Path(__file__).resolve().parents[1]
                        / "BENCHMARK.json").read_text())


def traced(argv: list[str]) -> tuple[tuple, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        result = run_cli(argv)
    finally:
        tracer.uninstall()
    tracer.end_op()
    return result, tracer


def test_lsi_check_span_counts_match_roadmap_baseline():
    lsi = SRC / "opmodel" / "data" / "lsi.opm"
    result, tracer = traced(["check", str(lsi), "--functor", "P",
                             "--functor", "M", "--functor", "S"])
    assert result[0] == 0
    counts = Counter(tracer.names[i] for i in tracer.name)
    assert counts["presentation.elaborate"] == 30
    assert counts["portgraph.compose"] == 10
    assert counts["prob.compose_dist"] == 2
    assert counts["modes.compose_rel"] == 2
    assert counts["stoch.compose_kernel"] == 2
    assert not hasattr(opmodel.elaborate, "__wrapped__")


@pytest.mark.parametrize("seed", [1, 2])
def test_synthetic_model_passes_and_twin_fails_as_predicted(tmp_path, seed):
    model = SynthModel(Shape(depth=3), seed)
    for twin, text in ((False, model.text), (True, model.twin_text)):
        path = tmp_path / "model.opm"
        path.write_text(text)
        result = run_cli(["check", str(path), "--functor", "P", "--functor",
                          "M", "--functor", "S"])
        assert check_synth_report(model.check_verdict(twin), result) == ""


def test_generator_is_seeded():
    assert SynthModel(Shape(depth=2), 5).text == SynthModel(Shape(depth=2), 5).text
    assert SynthModel(Shape(depth=2), 5).text != SynthModel(Shape(depth=2), 6).text


def test_lsi_ops_match_hand_written_expectations(tmp_path):
    workload = LsiCli(3, tmp_path, SRC)
    workload.setup(opmodel)
    ops = workload.ops()
    for _ in range(len(workload.block)):
        op = next(ops)
        assert op.check(op.call()) == "", op.kind


def test_query_ops_match_generator_references(tmp_path):
    workload = SynthQuery(4, tmp_path, SRC, Shape(depth=3))
    workload.setup(opmodel)
    ops = workload.ops()
    kinds = set()
    for _ in range(60):
        op = next(ops)
        assert op.check(op.call()) == "", op.kind
        kinds.add(op.kind)
    assert kinds == {"diagnose", "leaf_probability", "can_cause",
                     "pipeline_check"}


def test_metric_names_match_benchmark_json():
    (_, tracer) = traced(["validate", str(SRC / "opmodel" / "data" / "lsi.opm")])
    layer = tracer.layer_metrics([1.0])
    layer["trace.overhead_ratio"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}
    phase = run.Phase()
    phase.durations, phase.scales = [0.1, 0.2], [1.0, 1.0]
    e2e = run.end_to_end(phase, [0.5])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
