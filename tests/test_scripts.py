"""The bench specs that scripts/record_digest.py and scripts/bench_snapshot.py
run: every one is built, as each script builds it, and none is run. Each
script's own reading of ``run_experiment``'s records runs on tiny synthetic
specs (the digest's with reduced sketches, under an error warning filter),
and the snapshot's store and evaluate processes once each at a tiny size."""

import importlib.util
import json
import warnings
from pathlib import Path

import sketchlearn.bench as bench
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


def test_bench_snapshot_store_layers_run(monkeypatch):
    script = load("bench_snapshot")
    monkeypatch.setattr(script, "CORE_SHAPE", (64, 128))
    monkeypatch.setattr(script, "CORE_P", (16,))
    shape = script.measure(64, 128, 1)
    assert (shape["rows"], shape["cols"]) == (64, 128)
    core = ("core_svd", "build_s", "build_w", "lift", "lift_stu", "lift_qr",
            "lift_xv", "pinv")
    assert set(shape["layers"]) == {
        "store_build", "store_fill", "sample_rows", "sample_cols_in_rows",
        "draw_samples_norm", "draw_samples_uniform", "updates", "refresh",
        "updates_plus_refresh", "update_then_read",
        *(f"{name}_p16" for name in core),
    }
    for layer in shape["layers"].values():
        assert layer["repeats"] == 1 and 0.0 < layer["min_s"] <= layer["median_s"]


TINY = dict(m=(20,), k=(3,), p=(6,), subsample=60)


def test_record_digest_lines_run(monkeypatch):
    script = load("record_digest")
    overrides = dict(TINY, strategies=("exact", "norm"))
    # K=8 above the planted rank 5: every sketch comes back reduced.
    reduced = dict(k=(8,), p=(40,), strategies=("norm", "uniform"), subsample=60)
    monkeypatch.setattr(script, "SPECS", (("compare-sampling", overrides),
                                          ("sweep-samples", reduced)))
    # The script runs each spec under its caller's warning filter.
    actions = []
    run = bench.run_experiment

    def run_noting_filter(spec):
        actions.append(warnings.filters[0][0])
        return run(spec)

    monkeypatch.setattr(bench, "run_experiment", run_noting_filter)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = [json.loads(line) for line in script.record_lines()]
    assert actions == ["error", "error"]
    # exact collapses the P list: one record per strategy and seed.
    assert len(rows) == 4 * len(script.SEEDS)
    specs = [overrides] * (2 * len(script.SEEDS)) + [reduced] * (2 * len(script.SEEDS))
    for row, spec in zip(rows, specs):
        assert row["error"] is None
        assert row["timed"] == list(script.TIMING_FIELDS)
        assert row["spec"] == {k: list(v) if isinstance(v, tuple) else v
                               for k, v in sorted(spec.items())}


def test_bench_snapshot_point_runs(monkeypatch):
    script = load("bench_snapshot")
    fields = dict(TINY, kind="compare-sampling", dataset="synthetic",
                  strategies=("norm",), seeds=(0,))
    monkeypatch.setattr(script, "POINTS", {"tiny_norm": (fields, 1)})
    point = script.measure_point("tiny_norm")
    assert point["point"] == "tiny_norm" and 0.0 <= point["accuracy"] <= 1.0
    assert set(point["stages"]) == set(script.STAGES)
    for stage in point["stages"].values():
        assert stage["repeats"] == 1 and 0.0 <= stage["min_s"] == stage["median_s"]
