#!/usr/bin/env python3
"""Digest of the seeded bench records of every kind, timings left out.

Runs all six bench kinds on the synthetic dataset at small sizes, covering
successful points, failing points (``k > p``) and points whose full-batch
feature optimization diverges (M=200, K=10, 2000 points, 10 epochs at the
default learning rate). Each record is printed as one line of canonical
JSON: its non-timing fields, plus the names of the timing fields that are
set. The last line is the SHA-256 of those lines. Two source trees produce
the same seeded records exactly when they print the same digest:

    python3 scripts/record_digest.py --src ../parent/src
    python3 scripts/record_digest.py

``--src`` needs a tree whose ``run_experiment`` returns a list of records;
for an older tree, run that tree's own copy of this script.

Timing fields are wall-clock and differ run to run; whether each one is
set is part of the digest, since it records how far a point got.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMING_FIELDS = ("featurize_s", "tree_build_s", "factorize_s", "solve_s", "total_s")
ALL = ("exact", "norm", "uniform")
SEEDS = (0, 1, 2)

# (kind, spec overrides); every spec runs on the synthetic dataset.
SPECS = (
    ("sweep-nodes", dict(m=(20, 40), k=(4,), subsample=150)),
    ("sweep-rank", dict(k=(3, 5, 8), subsample=60)),
    ("sweep-samples", dict(k=(3, 5), p=(4, 10, 40), strategies=ALL, subsample=60)),
    ("compare-sampling",
     dict(m=(30, 60), k=(4, 8), p=(6, 16), strategies=ALL, subsample=200)),
    ("optimized-compare",
     dict(m=(30,), k=(4, 8), p=(6, 12), strategies=ALL, subsample=150, epochs=2)),
    ("optimized-compare", dict(m=(200,), k=(10,), p=(40,), strategies=ALL, epochs=10)),
    ("sampled-norms",
     dict(m=(30,), k=(4, 8), p=(6, 12), strategies=ALL, subsample=150, epochs=2)),
    ("sampled-norms", dict(m=(200,), k=(10,), p=(40,), strategies=ALL, epochs=10)),
)


def spec_of(kind: str, overrides: dict):
    from sketchlearn.bench import ExperimentSpec

    return ExperimentSpec(kind=kind, dataset="synthetic", seeds=SEEDS, **overrides)


def record_lines() -> list[str]:
    from sketchlearn.bench import run_experiment

    lines = []
    for kind, overrides in SPECS:
        spec = spec_of(kind, overrides)
        for rec in run_experiment(spec):
            row = asdict(rec)
            row["timed"] = [name for name in TIMING_FIELDS if row.pop(name) is not None]
            row["spec"] = {k: list(v) if isinstance(v, tuple) else v
                           for k, v in sorted(overrides.items())}
            lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory to import sketchlearn from (default: this checkout's src)")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    lines = record_lines()
    for line in lines:
        print(line)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"sha256 {digest}  ({len(lines)} records)")


if __name__ == "__main__":
    main()
