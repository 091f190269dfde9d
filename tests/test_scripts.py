"""The bench specs that scripts/record_digest.py and scripts/bench_snapshot.py
run: every one is built, as each script builds it, and none is run."""

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
