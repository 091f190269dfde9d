"""Command-line entry point for the benchmark harness."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import DATASETS, KINDS, STRATEGIES, ExperimentSpec, emit_report, run_experiment
from .datasets import DATA_DIR_ENV, resolve_data_dir
from .errors import SketchLearnError

_SPEC_FIELDS = {f.name for f in dataclasses.fields(ExperimentSpec)}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sketchlearn-bench",
        description=(
            "Run accuracy/timing sweeps of the sampled-SVD training pipeline. "
            "Flags override values from --config; unset values fall back to "
            "built-in defaults."
        ),
    )
    ap.add_argument("--config", help="JSON file with ExperimentSpec fields")
    ap.add_argument("--experiment", choices=KINDS, help="sweep kind")
    ap.add_argument("--dataset", choices=DATASETS)
    ap.add_argument(
        "--data-dir",
        help=f"directory holding dataset files (default ${DATA_DIR_ENV})",
    )
    ap.add_argument("--m", type=int, nargs="+", help="feature counts (nodes)")
    ap.add_argument("--k", type=int, nargs="+", help="truncation ranks")
    ap.add_argument("--p", type=int, nargs="+", help="sample counts")
    ap.add_argument(
        "--strategy", choices=STRATEGIES, nargs="+", help="factorization strategies"
    )
    ap.add_argument("--seeds", type=int, nargs="+", help="explicit seed list")
    ap.add_argument("--subsample", type=int, help="cap on training points")
    ap.add_argument("--lr", type=float, help="feature-optimization learning rate")
    ap.add_argument("--epochs", type=int, help="feature-optimization epochs")
    ap.add_argument("--batch-size", type=int, help="minibatch size (default full batch)")
    ap.add_argument("--jobs", type=int, default=1, help="parallel sweep points")
    ap.add_argument("--out", default="-", help="report path, - for stdout")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


_FLAG_TO_FIELD = {
    "experiment": "kind",
    "dataset": "dataset",
    "data_dir": "data_dir",
    "m": "m",
    "k": "k",
    "p": "p",
    "strategy": "strategies",
    "seeds": "seeds",
    "subsample": "subsample",
    "lr": "learning_rate",
    "epochs": "epochs",
    "batch_size": "batch_size",
}


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Merge config-file values and CLI flags into an ExperimentSpec."""
    merged: dict = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - _SPEC_FIELDS
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        merged.update(loaded)
    for flag, fld in _FLAG_TO_FIELD.items():
        value = getattr(args, flag)
        if value is not None:
            merged[fld] = value
    if "kind" not in merged:
        raise ValueError("an experiment kind is required (--experiment or config)")
    merged["data_dir"] = (
        str(resolve_data_dir(merged.get("data_dir")) or "") or None
    )
    return ExperimentSpec(**merged)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = build_spec(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(spec, jobs=max(1, args.jobs))
        emit_report(report, args.format, args.out)
    except (SketchLearnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [r for r in report.records if r.error is not None]
    for r in failed:
        print(
            f"point M={r.m} K={r.k} P={r.p} {r.strategy} seed={r.seed} "
            f"failed: {r.error}",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
