"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload the benchmark can run; BENCHMARK.json lists the ones the
# gated runs use (lowrank-tall is left out of those, see the README).
WORKLOADS = ["elm-wide", "lowrank-tall", "stream-update"]
QUALITY_KEYS = ("accuracy.", "recon_err.")


def _run(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int, seed: int = 7):
    proc = _run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def _quality(detail: dict) -> dict:
    return {k: v for k, v in detail["quality"].items() if k.startswith(QUALITY_KEYS)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    _, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_gated_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(workload):
    _, result = tiny_run(workload, 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["elm-wide", "lowrank-tall"])
def test_traced_run_gives_the_untraced_quality(workload):
    untraced, _ = tiny_run(workload, 0)
    traced, _ = tiny_run(workload, 1)
    assert _quality(untraced) and _quality(traced) == _quality(untraced)


@pytest.mark.parametrize("workload", ["elm-wide", "lowrank-tall"])
def test_same_seed_gives_identical_quality(workload):
    first, _ = tiny_run(workload, 0)
    proc = _run(ROOT, workload, 7, 0)
    again = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    other, _ = tiny_run(workload, 0, seed=8)
    assert _quality(again) == _quality(first)
    assert _quality(other) != _quality(first)


def test_traced_run_writes_spans_and_layer_shares():
    detail, result = tiny_run("lowrank-tall", 1)
    spans = json.loads((ROOT / detail["spans_file"]).read_text())
    assert spans["fields"][:4] == ["name", "start", "end", "parent"]
    names = {s[0] for s in spans["spans"]}
    assert {"segtree.build", "modfkv.draw", "linalg.core_svd", "modfkv.lift"} <= names
    metrics = result["metrics"]
    assert metrics["segtree.build_mb"]["value"] > 0
    # The build fills the store through set_rows, so its whole time covers both.
    assert metrics["segtree.build_total_s"]["value"] >= (
        metrics["segtree.build_s"]["value"] + metrics["segtree.set_rows_s"]["value"]
    ) * 0.99
    assert metrics["linalg.core_svd_calls"]["value"] > 0
    assert 0 < sum(metrics[f"{layer}.share_pct"]["value"]
                   for layer in ("segtree", "modfkv", "linalg", "elm")) <= 100


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "elm-wide", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
