"""Random-feature classifier trained in closed form via a pseudo-inverse.

Features are phi_i(x) = relu(a_i . x + b_i) with a_i, b_i drawn uniform on
[0, 1]. The design matrix stacks one feature row per data point (D x M),
so the M x L output weights solve W = pinv(design) @ onehot (D x L). A
full-batch gradient loop over a_i, b_i with the output weights frozen, one
step per epoch on the whole dataset, sharpens the feature map; re-solving
the output weights afterwards completes the optimized pipeline. Each
step's iterate is a new ``FeatureMap``, checked finite as any map is.

Featurization is one GEMM per block of ``DEFAULT_BLOCK`` rows: the block is
copied beside a trailing ones column and multiplied by ``[a | b]``
(M x (d + 1)), so the offset is the product's last term. A BLAS that sums
the K axis in order ends each entry with fl(acc + b_i), the same number as
adding b after the product. OpenBLAS does so up to d + 1 = 384; wider
inputs (MNIST's d = 784) and some tiny shapes split or reorder the sum, and
there the fold can move the last bit.

Every dataset here has inputs in [0, 1], and a_i, b_i start >= 0, so every
pre-activation a_i . x + b_i is >= 0 and the ReLU clips nothing until the
optimizer moves a parameter below zero. The unoptimized design is thus
affine in the inputs, of rank at most d + 1. The ReLU pass is skipped
exactly when it cannot clip: when every weight, offset and input of the
block is >= 0.

Prediction uses the same predicate once over the whole batch: when it
holds, the scores [x | 1] @ [a | b]^T @ w come from the folded head
[a | b]^T @ w ((d + 1) x L), so ``evaluate`` costs O(M d L + n d L) and
forms no feature row. A mixed-sign map (after ``optimize_features``), a
negative input or a NaN sends the batch down the featurized path, which
costs O(n M (d + L)) in ``DEFAULT_BLOCK``-row blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import (
    DimensionMismatch,
    Diverged,
    EmptyMatrix,
    LabelOutOfRange,
    NonFinite,
    is_number,
)
from .linalg import LowRankFactors, apply_factors
from .segtree import SegTreeMatrix

# Rows featurized per block by build_design and predict_batch.
DEFAULT_BLOCK = 512


@dataclass(frozen=True)
class FeatureMap:
    """Random single-layer network: weights ``a`` (M x d), offsets ``b`` (M,).

    ``a`` and ``b`` are read-only views of one M x (d + 1) copy
    ``ab = [a | b]``, the matrix the featurization GEMM multiplies by;
    ``nonneg`` says whether every entry of it is >= 0.
    """

    a: np.ndarray
    b: np.ndarray
    ab: np.ndarray = field(init=False, repr=False, compare=False)
    nonneg: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.ndim != 2 or b.shape != (a.shape[0],):
            raise DimensionMismatch(
                f"need a (M, d) and b (M,), got {a.shape} and {b.shape}"
            )
        ab = np.column_stack((a, b))
        if not np.isfinite(ab).all():
            raise NonFinite("feature map parameters must be finite")
        # Read-only, so ``nonneg`` cannot go stale.
        ab.flags.writeable = False
        object.__setattr__(self, "ab", ab)
        object.__setattr__(self, "a", ab[:, :-1])
        object.__setattr__(self, "b", ab[:, -1])
        object.__setattr__(self, "nonneg", _nonneg(ab))

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Finite inputs, in [0, 1]^d here (one row per point), with integer labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels))
        if self.inputs.ndim != 2 or self.labels.shape != (self.inputs.shape[0],):
            raise DimensionMismatch(
                f"need inputs (D, d) and labels (D,), got "
                f"{self.inputs.shape} and {self.labels.shape}"
            )
        if self.inputs.shape[0] == 0:
            raise EmptyMatrix("dataset has no points")
        # A NaN input would make every loss NaN, which no divergence or
        # best-loss comparison trips.
        if not np.isfinite(self.inputs).all():
            raise NonFinite("dataset inputs must be finite")
        # Float, bool or string labels are rejected, never truncated to a class.
        if self.labels.dtype.kind not in "iu":
            raise TypeError(f"labels must be integers, got dtype {self.labels.dtype}")
        object.__setattr__(self, "labels", self.labels.astype(np.int64, copy=False))

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class ElmModel:
    """A feature map plus the M x L matrix of per-class output weights."""

    features: FeatureMap
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        if self.w.ndim != 2 or self.w.shape[0] != self.features.m:
            raise DimensionMismatch(
                f"need w (M, L) with M={self.features.m}, got {self.w.shape}"
            )
        if not np.isfinite(self.w).all():
            raise NonFinite("output weights must be finite")

    @property
    def n_classes(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    epochs: int = 50

    def __post_init__(self):
        if not (is_number(self.epochs) and self.epochs >= 0):
            raise ValueError(f"epochs must be an integer >= 0, got {self.epochs!r}")
        # A NaN rate would never trip the divergence check.
        lr = self.learning_rate
        if not (is_number(lr, Real) and 0.0 <= lr < np.inf):
            raise ValueError(f"learning_rate must be finite and >= 0, got {lr!r}")


def init_features(d: int, m: int, rng: np.random.Generator) -> FeatureMap:
    """Draw a_i, b_i i.i.d. uniform on [0, 1]."""
    if d < 1 or m < 1:
        raise ValueError(f"need d, m >= 1, got d={d}, m={m}")
    return FeatureMap(a=rng.random((m, d)), b=rng.random(m))


def _nonneg(arr) -> bool:
    """Whether every entry is >= 0 (true of an empty array, false with a NaN)."""
    return bool(arr.min(initial=0.0) >= 0.0)


def _features(fm: FeatureMap, xs, out=None) -> np.ndarray:
    """relu(xs @ a.T + b) for ``fm``'s ``a``, ``b``, in ``out`` if given.

    Each ``DEFAULT_BLOCK`` rows of ``xs`` are copied into one reused buffer
    whose last column is 1, and one GEMM by ``fm.ab`` writes their feature
    rows; the ReLU pass runs only on a block where a pre-activation can be
    negative.
    """
    n = len(xs)
    out = np.empty((n, fm.m)) if out is None else out
    xa = np.empty((min(n, DEFAULT_BLOCK), fm.input_dim + 1))
    xa[:, -1] = 1.0
    for start in range(0, n, DEFAULT_BLOCK):
        stop = min(start + DEFAULT_BLOCK, n)
        block = xa[: stop - start]
        block[:, :-1] = xs[start:stop]
        z = np.matmul(block, fm.ab.T, out=out[start:stop])
        if not (fm.nonneg and _nonneg(block)):
            np.maximum(z, 0.0, out=z)
    return out


def _batch(fm: FeatureMap, xs) -> np.ndarray:
    """``xs`` as a float64 (n, d) array for ``fm``'s input width d."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != fm.input_dim:
        raise DimensionMismatch(
            f"batch of width {fm.input_dim} required, got shape {xs.shape}"
        )
    return xs


def featurize_batch(
    fm: FeatureMap, xs, out: np.ndarray | None = None
) -> np.ndarray:
    """Feature rows for a batch: returns (len(xs), M), in ``out`` if given."""
    return _features(fm, _batch(fm, xs), out=out)


@dataclass(frozen=True)
class DesignResult:
    """Design matrix (one feature row per point) plus its sampling tree.

    ``design`` aliases the tree's storage when the tree is built, so the
    pair stays consistent without a second copy. Stage timings let callers
    report featurization and tree construction separately.
    """

    design: np.ndarray
    tree: SegTreeMatrix | None
    featurize_s: float
    tree_build_s: float


def build_design(fm: FeatureMap, ds: Dataset, with_tree: bool = True) -> DesignResult:
    """Featurize the dataset in one streaming pass.

    Feature rows are produced ``DEFAULT_BLOCK`` at a time and fed straight
    into the segment tree; the dense matrix is never rescanned to build the
    tree.
    """
    d = ds.count
    tree = SegTreeMatrix.zeros(d, fm.m) if with_tree else None
    design = tree.dense if with_tree else np.empty((d, fm.m))
    # With a tree the rows pass through one reused buffer into the store.
    phi = np.empty((min(DEFAULT_BLOCK, d), fm.m)) if with_tree else None
    feat_s = 0.0
    tree_s = 0.0
    for start in range(0, d, DEFAULT_BLOCK):
        stop = min(start + DEFAULT_BLOCK, d)
        t0 = time.perf_counter()
        out = phi[: stop - start] if with_tree else design[start:stop]
        rows = featurize_batch(fm, ds.inputs[start:stop], out=out)
        t1 = time.perf_counter()
        feat_s += t1 - t0
        if with_tree:
            tree.set_rows(start, rows)
            tree_s += time.perf_counter() - t1
    return DesignResult(design=design, tree=tree, featurize_s=feat_s, tree_build_s=tree_s)


def onehot(ds: Dataset, n_classes: int) -> np.ndarray:
    """D x L one-hot teacher matrix."""
    labels = ds.labels
    if labels.min() < 0 or labels.max() >= n_classes:
        raise LabelOutOfRange(
            f"labels must lie in [0, {n_classes}), "
            f"got range [{labels.min()}, {labels.max()}]"
        )
    y = np.zeros((ds.count, n_classes))
    y[np.arange(ds.count), labels] = 1.0
    return y


def infer_classes(ds: Dataset) -> int:
    return int(ds.labels.max()) + 1


def train(
    fm: FeatureMap,
    ds: Dataset,
    pinv: LowRankFactors,
    n_classes: int | None = None,
) -> ElmModel:
    """Solve the output weights: the pseudo-inverse applied to the one-hot matrix."""
    n_classes = infer_classes(ds) if n_classes is None else n_classes
    return ElmModel(features=fm, w=apply_factors(pinv, onehot(ds, n_classes)))


def predict_batch(model: ElmModel, xs) -> np.ndarray:
    """Argmax class score per row; ties resolve to the smallest label index.

    When the ReLU cannot clip (``fm.nonneg`` and every input >= 0), the
    map is affine and the scores are ``[x | 1] @ head`` with the folded
    head ``head = [a | b]^T @ w`` ((d + 1) x L): O(M d L) for the head and
    O(n d L) for the scores, with no feature row formed. Otherwise the rows
    are featurized ``DEFAULT_BLOCK`` at a time into one buffer and scored
    against ``w``: O(n M (d + L)).
    """
    fm = model.features
    xs = _batch(fm, xs)
    out = np.empty(len(xs), dtype=np.int64)
    if fm.nonneg and _nonneg(xs):
        head = fm.ab.T @ model.w
        out[:] = np.argmax(xs @ head[:-1] + head[-1], axis=1)
        return out
    phi = np.empty((min(DEFAULT_BLOCK, len(xs)), fm.m))
    for start in range(0, len(xs), DEFAULT_BLOCK):
        stop = min(start + DEFAULT_BLOCK, len(xs))
        rows = _features(fm, xs[start:stop], out=phi[: stop - start])
        out[start:stop] = np.argmax(rows @ model.w, axis=1)
    return out


def evaluate(model: ElmModel, ds: Dataset) -> float:
    """Fraction of points whose predicted label matches."""
    return float(np.mean(predict_batch(model, ds.inputs) == ds.labels))


def _residual(phi, w, y):
    """The residual ``r = y - phi @ w`` and the squared loss ``sum(r * r)``."""
    r = y - phi @ w
    return r, float((r * r).sum())


def squared_loss(model: ElmModel, ds: Dataset) -> float:
    """Sum over points and classes of (onehot - score)^2."""
    y = onehot(ds, model.n_classes)
    phi = featurize_batch(model.features, ds.inputs)
    return _residual(phi, model.w, y)[1]


def _loss_and_grads(fm: FeatureMap, w, xs, y):
    phi = _features(fm, xs)
    r, loss = _residual(phi, w, y)
    # dLoss/dz; the relu subgradient at exactly 0 is taken as 0, and
    # phi > 0 exactly where the preactivation is.
    g = -2.0 * (r @ w.T) * (phi > 0.0)
    return loss, g.T @ xs, g.sum(axis=0)


def optimize_features(
    model: ElmModel, ds: Dataset, opt: OptimizerConfig
) -> FeatureMap:
    """Gradient-descend a_i, b_i on the squared loss with ``model.w`` frozen.

    Each epoch takes one full-batch step: the loss and gradients over the
    whole dataset, then a step of ``opt.learning_rate`` along the negative
    gradient to a new map. Deterministic: no randomness enters. Returns the
    map with the lowest full-set loss seen, so the result is never worse
    than the starting map. E epochs featurize the full set E + 1 times:
    once per step, then once to score the last step's map; zero epochs
    return the starting map without featurizing. Raises :class:`Diverged`
    if a loss exceeds 10x the starting loss or is NaN, and
    :class:`NonFinite` if a step gives a parameter that is not finite.
    """
    fm = best = model.features
    if not opt.epochs:
        return fm
    w = model.w
    xs = ds.inputs
    y = onehot(ds, model.n_classes)
    lr = opt.learning_rate

    # Overflow ends in Diverged (loss) or NonFinite (parameters), not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        loss0, ga, gb = _loss_and_grads(fm, w, xs, y)
        best_loss = loss0
        for epoch in range(1, opt.epochs + 1):
            fm = FeatureMap(a=fm.a - lr * ga, b=fm.b - lr * gb)
            if epoch < opt.epochs:
                loss, ga, gb = _loss_and_grads(fm, w, xs, y)
            else:
                loss = _residual(_features(fm, xs), w, y)[1]
            if not loss <= 10.0 * loss0 and loss0 > 0.0:
                raise Diverged(
                    f"loss {loss:.3g} exceeded 10x initial {loss0:.3g} "
                    f"at epoch {epoch}"
                )
            if loss < best_loss:
                best_loss, best = loss, fm
    return best
