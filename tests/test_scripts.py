"""The bench specs that scripts/record_digest.py and scripts/bench_snapshot.py
run: every one is built, as each script builds it, and none is run. The
snapshot's evaluate process runs once, at a tiny size."""

import importlib.util
from pathlib import Path

from sketchlearn.bench import ExperimentSpec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_digest_specs_build():
    script = load("record_digest")
    for kind, overrides in script.SPECS:
        assert script.spec_of(kind, overrides).kind == kind


def test_bench_snapshot_points_build():
    script = load("bench_snapshot")
    for fields, _ in script.POINTS.values():
        assert ExperimentSpec(**fields).kind == fields["kind"]


def test_bench_snapshot_evaluate_layers_run(monkeypatch):
    script = load("bench_snapshot")
    monkeypatch.setattr(script, "DESIGN_ROWS", 64)
    shape = script.measure_evaluate(rows=20, d=16, m=32, repeats=1)
    layers = shape["layers"]
    assert {"evaluate", "evaluate_mixed", "train", "featurize_mixed"} <= set(layers)
    for layer in layers.values():
        assert layer["repeats"] == 1 and 0.0 < layer["min_s"] <= layer["median_s"]
