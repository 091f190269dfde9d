"""Experiment harness: parameter sweeps, per-stage timing, CSV/JSON reports.

Each sweep point owns RNG streams derived from its own parameters, so
reports are reproducible regardless of execution order.
A failing point is captured as an error record; sibling points still run.
``run_experiment`` returns the sorted list of its records, and
``emit_report`` writes that list as CSV or JSON.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from functools import partial
from itertools import product

import numpy as np

from . import datasets as dsets
from . import elm
from .errors import is_number
from .linalg import LowRankFactors, svd_dense, truncate, truncated_pinv
from .modfkv import STRATEGIES as SKETCH_STRATEGIES, SketchConfig, draw_samples, modfkv
from .segtree import SegTreeMatrix

KINDS = (
    "sweep-nodes",
    "sweep-rank",
    "sweep-samples",
    "compare-sampling",
    "optimized-compare",
    "sampled-norms",
)
DATASETS = ("mnist", "cifar10", "synthetic")
STRATEGIES = ("exact",) + SKETCH_STRATEGIES
OPTIMIZED_KINDS = ("optimized-compare", "sampled-norms")
# Kinds that, on the synthetic dataset, measure matrix reconstruction
# instead of classification; their accuracy column holds the relative
# Frobenius error of the factorization.
MATRIX_KINDS = ("sweep-rank", "sweep-samples")

CSV_COLUMNS = (
    "kind",
    "dataset",
    "M",
    "K",
    "P",
    "strategy",
    "seed",
    "accuracy",
    "featurize_s",
    "treeBuild_s",
    "factorize_s",
    "solve_s",
    "total_s",
)
# Record fields behind the CSV columns whose names differ from them.
_CSV_FIELDS = {"M": "m", "K": "k", "P": "p", "treeBuild_s": "tree_build_s"}

# Stream tags keeping the per-point substreams (features, sketch,
# re-sketch, data subsampling) statistically independent.
_TAG_FEAT, _TAG_SKETCH, _TAG_RESKETCH, _TAG_DATA = 101, 102, 104, 105

_SYNTH_MATRIX_COLS = 300
_SYNTH_MATRIX_RANK = 5
_SYNTH_BLOB_DIM = 64
_SYNTH_CLASSES = 10
_SYNTH_TEST_COUNT = 1000


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: the cross product of the parameter lists below."""

    kind: str
    dataset: str = "synthetic"
    m: tuple = (1000,)
    k: tuple = (10,)
    p: tuple = (100,)
    strategies: tuple = ("norm", "uniform")
    seeds: tuple = (0,)
    subsample: int | None = None
    learning_rate: float = elm.OptimizerConfig.learning_rate
    epochs: int = elm.OptimizerConfig.epochs
    data_dir: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        for name in ("m", "k", "p", "strategies", "seeds"):
            values = getattr(self, name)
            if isinstance(values, str) or not isinstance(values, Iterable):
                raise ValueError(f"parameter {name!r} must be a list, got {values!r}")
            values = tuple(values)
            if not values:
                raise ValueError(f"parameter list {name!r} is empty")
            low = 0 if name == "seeds" else 1
            if name == "strategies":
                bad = [v for v in values if v not in STRATEGIES]
                if bad:
                    raise ValueError(f"unknown strategies {bad}")
            elif not all(is_number(v) and v >= low for v in values):
                raise ValueError(f"{name} values must be integers >= {low}, got {values}")
            else:
                # Plain ints: numpy integers in a record do not write as JSON.
                values = tuple(int(v) for v in values)
            if len(set(values)) < len(values):
                raise ValueError(f"parameter list {name!r} repeats a value: {values}")
            object.__setattr__(self, name, values)
        if self.subsample is not None and not (is_number(self.subsample) and self.subsample >= 1):
            raise ValueError(f"subsample must be an integer >= 1, got {self.subsample!r}")
        if self.data_dir is not None and not isinstance(self.data_dir, str):
            raise ValueError(f"data_dir must be a string, got {self.data_dir!r}")
        data_dir = dsets.resolve_data_dir(self.data_dir)
        object.__setattr__(self, "data_dir", None if data_dir is None else str(data_dir))
        self.optimizer  # checks the optimizer fields

    @property
    def optimizer(self) -> elm.OptimizerConfig:
        return elm.OptimizerConfig(learning_rate=self.learning_rate, epochs=self.epochs)


@dataclass
class RunRecord:
    kind: str
    dataset: str
    m: int
    k: int
    p: int
    strategy: str
    seed: int
    accuracy: float | None = None
    featurize_s: float | None = None
    tree_build_s: float | None = None
    factorize_s: float | None = None
    solve_s: float | None = None
    total_s: float | None = None
    sampled_col_norms: list | None = None
    error: str | None = None


def _seed_int(parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _rng(parts) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def _load_classification(spec: ExperimentSpec):
    if spec.dataset == "synthetic":
        count = spec.subsample or 2000
        per_class = -(-(count + _SYNTH_TEST_COUNT) // _SYNTH_CLASSES)
        ds = dsets.synth_blobs(
            _SYNTH_BLOB_DIM, per_class, _SYNTH_CLASSES, _rng([_TAG_DATA, 0])
        )
        train = elm.Dataset(ds.inputs[:count], ds.labels[:count])
        test = elm.Dataset(
            ds.inputs[count : count + _SYNTH_TEST_COUNT],
            ds.labels[count : count + _SYNTH_TEST_COUNT],
        )
        return train, test
    loader = dsets.mnist_dataset if spec.dataset == "mnist" else dsets.cifar10_dataset
    train = loader(spec.data_dir, "train")
    test = loader(spec.data_dir, "test")
    if spec.subsample and spec.subsample < train.count:
        sel = _rng([_TAG_DATA, 1]).permutation(train.count)[: spec.subsample]
        train = elm.Dataset(train.inputs[sel], train.labels[sel])
    return train, test


def _factor_error(x: np.ndarray, factors) -> float:
    approx = (factors.u * factors.sigma) @ factors.v.T
    return float(np.linalg.norm(approx - x) / np.linalg.norm(x))


def _load_matrix(spec: ExperimentSpec) -> np.ndarray:
    rows = spec.subsample or 400
    return dsets.synth_lowrank(
        rows, _SYNTH_MATRIX_COLS, _SYNTH_MATRIX_RANK, 0.0, _rng([_TAG_DATA, 2])
    )


def _run_matrix_point(x: np.ndarray, rec: RunRecord) -> None:
    rec.featurize_s = rec.tree_build_s = 0.0
    t_all = time.perf_counter()
    tree = None
    if rec.strategy == "norm":
        t0 = time.perf_counter()
        tree = SegTreeMatrix(x)
        rec.tree_build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    factors = _factors(rec, x, tree, _TAG_SKETCH)
    rec.factorize_s = time.perf_counter() - t0
    rec.accuracy = _factor_error(x, factors)
    rec.solve_s = 0.0
    rec.total_s = time.perf_counter() - t_all


def _point_entropy(rec: RunRecord, tag: int) -> list:
    # A strategy's stream code is its index in STRATEGIES: exact 0, norm 1, uniform 2.
    return [rec.seed, rec.m, rec.k, rec.p, STRATEGIES.index(rec.strategy), tag]


def _sketch_config(rec: RunRecord, tag: int) -> SketchConfig:
    seed = _seed_int(_point_entropy(rec, tag))
    return SketchConfig(k=rec.k, p=rec.p, strategy=rec.strategy, seed=seed)


def _factors(rec: RunRecord, x: np.ndarray, tree, tag: int) -> LowRankFactors:
    """The harness's one factorization: exact is the SVD cut by
    ``linalg.truncate``; a sketch runs on ``tree`` if given."""
    if rec.strategy == "exact":
        return truncate(svd_dense(x), rec.k)
    return modfkv(x if tree is None else tree, _sketch_config(rec, tag))


def _run_pass(rec: RunRecord, fm, train: elm.Dataset, n_classes: int, tag: int):
    """One design -> factorize -> solve pass under sketch stream ``tag``.

    Adds each stage's time to ``rec``; a stage the pass does not reach
    keeps its field as it was (``None`` before the first pass).
    """
    dr = elm.build_design(fm, train, with_tree=rec.strategy == "norm")
    rec.featurize_s = (rec.featurize_s or 0.0) + dr.featurize_s
    rec.tree_build_s = (rec.tree_build_s or 0.0) + dr.tree_build_s
    t0 = time.perf_counter()
    pinv = truncated_pinv(_factors(rec, dr.design, dr.tree, tag), rec.k)
    rec.factorize_s = (rec.factorize_s or 0.0) + (time.perf_counter() - t0)
    t0 = time.perf_counter()
    model = elm.train(fm, train, pinv, n_classes)
    rec.solve_s = (rec.solve_s or 0.0) + (time.perf_counter() - t0)
    return model, dr


def _run_classification_point(
    opt: elm.OptimizerConfig,
    train: elm.Dataset,
    test: elm.Dataset,
    n_classes: int,
    rec: RunRecord,
) -> None:
    """One pass; the optimized kinds then optimize the features and run a
    second, re-sketched pass, whose stage times add to the first's."""
    t_all = time.perf_counter()

    fm = elm.init_features(train.dim, rec.m, _rng([rec.seed, rec.m, _TAG_FEAT]))
    model, dr = _run_pass(rec, fm, train, n_classes, _TAG_SKETCH)
    if rec.kind in OPTIMIZED_KINDS:
        del dr  # the first design and its store are not read again
        fm = elm.optimize_features(model, train, opt)
        model, dr = _run_pass(rec, fm, train, n_classes, _TAG_RESKETCH)

    if rec.kind == "sampled-norms" and rec.strategy != "exact":
        # The last (re-sketched) pass's draw, re-derived from its seed.
        cfg = _sketch_config(rec, _TAG_RESKETCH)
        source = dr.design if dr.tree is None else dr.tree
        draw = draw_samples(source, cfg, np.random.default_rng(cfg.seed))
        norms = np.linalg.norm(dr.design[:, draw.col_idx], axis=0)
        rec.sampled_col_norms = [float(v) for v in norms]

    rec.accuracy = elm.evaluate(model, test)
    rec.total_s = time.perf_counter() - t_all


def _points(spec: ExperimentSpec) -> list:
    if spec.kind in ("sweep-nodes", "sweep-rank"):
        strategies = ("exact",)
    else:
        strategies = spec.strategies
    points = []
    for m, k in product(spec.m, spec.k):
        for strat in strategies:
            plist = (0,) if strat == "exact" else spec.p
            for p, seed in product(plist, spec.seeds):
                points.append(
                    RunRecord(
                        kind=spec.kind,
                        dataset=spec.dataset,
                        m=m,
                        k=k,
                        p=p,
                        strategy=strat,
                        seed=seed,
                    )
                )
    return points


def run_experiment(spec: ExperimentSpec) -> list[RunRecord]:
    """Run every point of the sweep; never aborts on a single point failure.

    The data is made or loaded once, before the first point. Returns one
    record per point, sorted canonically by point parameters (``_points``
    lists strategy before ``p``, so the sort reorders them).
    """
    if spec.dataset == "synthetic" and spec.kind in MATRIX_KINDS:
        run_point = partial(_run_matrix_point, _load_matrix(spec))
    else:
        train, test = _load_classification(spec)
        n_classes = max(elm.infer_classes(train), elm.infer_classes(test))
        run_point = partial(
            _run_classification_point, spec.optimizer, train, test, n_classes
        )
    records = _points(spec)
    for rec in records:
        try:
            run_point(rec)
        except Exception as exc:  # recorded, sweep continues
            rec.error = f"{type(exc).__name__}: {exc}"
    records.sort(key=lambda r: (r.kind, r.dataset, r.m, r.k, r.p, r.strategy, r.seed))
    return records


def _csv_cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def emit_report(records: list[RunRecord], fmt: str, path) -> None:
    """Write the records as CSV (fixed column order) or JSON (records verbatim)."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        if fmt == "csv":
            writer = csv.writer(out)
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow(
                    _csv_cell(getattr(r, _CSV_FIELDS.get(col, col)))
                    for col in CSV_COLUMNS
                )
        else:
            json.dump([asdict(r) for r in records], out, indent=2)
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
