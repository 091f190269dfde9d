"""Random-feature classifier trained in closed form via a pseudo-inverse.

Features are phi_i(x) = relu(a_i . x + b_i) with a_i, b_i drawn uniform on
[0, 1]. The design matrix stacks one feature row per data point (D x M),
so the M x L output weights solve W = pinv(design) @ onehot (D x L). A
gradient loop over a_i, b_i with the output weights frozen sharpens the
feature map; re-solving the output weights afterwards completes the
optimized pipeline.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    Diverged,
    EmptyMatrix,
    LabelOutOfRange,
    NonFinite,
    TruncatedFile,
    is_number,
)
from .linalg import LowRankFactors, apply_factors
from .segtree import SegTreeMatrix

MODEL_MAGIC = b"ELM1"
# Rows featurized per block by build_design and predict_batch.
DEFAULT_BLOCK = 512


@dataclass(frozen=True)
class FeatureMap:
    """Random single-layer network: weights ``a`` (M x d), offsets ``b`` (M,)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if self.a.ndim != 2 or self.b.shape != (self.a.shape[0],):
            raise DimensionMismatch(
                f"need a (M, d) and b (M,), got {self.a.shape} and {self.b.shape}"
            )
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise NonFinite("feature map parameters must be finite")

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Inputs in [0, 1]^d (one row per point) with integer labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.inputs.ndim != 2 or self.labels.shape != (self.inputs.shape[0],):
            raise DimensionMismatch(
                f"need inputs (D, d) and labels (D,), got "
                f"{self.inputs.shape} and {self.labels.shape}"
            )
        if self.inputs.shape[0] == 0:
            raise EmptyMatrix("dataset has no points")

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
    batch_size: int | None = None  # None = full batch

    def __post_init__(self):
        size = self.batch_size
        if size is not None and not (is_number(size) and size >= 1):
            raise ValueError(f"batch_size must be an integer >= 1, got {size!r}")
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


def _features(a, b, xs, out=None) -> np.ndarray:
    """relu(xs @ a.T + b), one feature row per input row, in ``out`` if given."""
    z = np.matmul(xs, a.T, out=out)
    z += b
    return np.maximum(z, 0.0, out=z)


def featurize_batch(
    fm: FeatureMap, xs, out: np.ndarray | None = None
) -> np.ndarray:
    """Feature rows for a batch: returns (len(xs), M), in ``out`` if given."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != fm.input_dim:
        raise DimensionMismatch(
            f"batch of width {fm.input_dim} required, got shape {xs.shape}"
        )
    return _features(fm.a, fm.b, xs, out=out)


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
    feat_s = 0.0
    tree_s = 0.0
    for start in range(0, d, DEFAULT_BLOCK):
        stop = min(start + DEFAULT_BLOCK, d)
        t0 = time.perf_counter()
        # Without a tree the rows are computed in place in the design.
        out = None if with_tree else design[start:stop]
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

    Featurizes ``DEFAULT_BLOCK`` rows at a time into one buffer.
    """
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty(len(xs), dtype=np.int64)
    phi = np.empty((min(DEFAULT_BLOCK, len(xs)), model.features.m))
    for start in range(0, len(xs), DEFAULT_BLOCK):
        stop = min(start + DEFAULT_BLOCK, len(xs))
        rows = featurize_batch(model.features, xs[start:stop], out=phi[: stop - start])
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


def _loss_and_grads(a, b, w, xs, y):
    phi = _features(a, b, xs)
    r, loss = _residual(phi, w, y)
    # dLoss/dz; the relu subgradient at exactly 0 is taken as 0, and
    # phi > 0 exactly where the preactivation is.
    g = -2.0 * (r @ w.T) * (phi > 0.0)
    return loss, g.T @ xs, g.sum(axis=0)


def optimize_features(
    model: ElmModel,
    ds: Dataset,
    opt: OptimizerConfig,
    rng: np.random.Generator,
) -> FeatureMap:
    """Gradient-descend a_i, b_i on the squared loss with ``model.w`` frozen.

    Returns the parameters with the lowest full-set loss seen, so the
    result is never worse than the starting map. Raises :class:`Diverged`
    if the loss ever exceeds 10x its initial value.
    """
    a = model.features.a.copy()
    b = model.features.b.copy()
    w = model.w
    xs = ds.inputs
    y = onehot(ds, model.n_classes)
    d = ds.count
    batch = d if opt.batch_size is None else min(opt.batch_size, d)
    lr = opt.learning_rate

    def full_loss():
        return _residual(_features(a, b, xs), w, y)[1]

    loss0 = full_loss()
    best_loss, best_a, best_b = loss0, a.copy(), b.copy()

    def check_and_keep(loss, epoch):
        nonlocal best_loss, best_a, best_b
        if loss > 10.0 * loss0 and loss0 > 0.0:
            raise Diverged(
                f"loss {loss:.3g} exceeded 10x initial {loss0:.3g} "
                f"at epoch {epoch}"
            )
        if loss < best_loss:
            best_loss, best_a, best_b = loss, a.copy(), b.copy()

    for epoch in range(opt.epochs):
        if batch == d:
            loss, ga, gb = _loss_and_grads(a, b, w, xs, y)
            check_and_keep(loss, epoch)
            a -= lr * ga
            b -= lr * gb
        else:
            perm = rng.permutation(d)
            for start in range(0, d, batch):
                sel = perm[start : start + batch]
                _, ga, gb = _loss_and_grads(a, b, w, xs[sel], y[sel])
                a -= lr * ga
                b -= lr * gb
            check_and_keep(full_loss(), epoch)
    # A minibatch epoch ends by checking the full loss, so only the full
    # batch leaves its last step's parameters unevaluated.
    if batch == d and full_loss() < best_loss:
        best_a, best_b = a, b
    return FeatureMap(a=best_a, b=best_b)


def save_model(model: ElmModel, path) -> None:
    """Write magic "ELM1", u32 dims (d, M, L), then A, b, W as f64, all LE."""
    fm = model.features
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<III", fm.input_dim, fm.m, model.n_classes))
        fh.write(np.ascontiguousarray(fm.a, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(fm.b, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.w, dtype="<f8").tobytes())


def load_model(path) -> ElmModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MODEL_MAGIC:
        raise BadMagic(f"expected {MODEL_MAGIC!r} header, got {blob[:4]!r}")
    if len(blob) < 16:
        raise TruncatedFile("model file shorter than its header")
    d, m, n_classes = struct.unpack("<III", blob[4:16])
    need = 16 + 8 * (m * d + m + m * n_classes)
    if len(blob) != need:
        raise TruncatedFile(f"model file has {len(blob)} bytes, expected {need}")
    off = 16
    a = np.frombuffer(blob, dtype="<f8", count=m * d, offset=off).reshape(m, d)
    off += 8 * m * d
    b = np.frombuffer(blob, dtype="<f8", count=m, offset=off)
    off += 8 * m
    w = np.frombuffer(blob, dtype="<f8", count=m * n_classes, offset=off)
    return ElmModel(
        features=FeatureMap(a=a.copy(), b=b.copy()),
        w=w.reshape(m, n_classes).copy(),
    )
