"""Sampling-based randomized SVD over a segment-tree store, applied to
extreme-learning-machine training, with a benchmark harness comparing
norm-weighted sampling, uniform sampling, and the exact-SVD baseline."""

from . import errors
from .bench import ExperimentSpec, RunRecord, RunReport, emit_report, run_experiment
from .datasets import (
    RawImageSet,
    cifar10_dataset,
    load_cifar10,
    load_mnist,
    mnist_dataset,
    normalize,
    synth_blobs,
    synth_lowrank,
)
from .elm import (
    Dataset,
    DesignResult,
    ElmModel,
    FeatureMap,
    OptimizerConfig,
    build_design,
    evaluate,
    featurize_batch,
    init_features,
    load_model,
    onehot,
    optimize_features,
    predict_batch,
    save_model,
    squared_loss,
    train,
)
from .linalg import (
    LowRankFactors,
    apply_factors,
    svd_dense,
    truncated_pinv,
)
from .modfkv import (
    NORM_WEIGHTED,
    UNIFORM,
    SampleDraw,
    SketchConfig,
    build_s,
    build_w,
    draw_samples,
    modfkv,
    reconstruct,
)
from .segtree import SegTreeMatrix

__version__ = "0.1.0"

__all__ = [
    "ExperimentSpec",
    "RunRecord",
    "RunReport",
    "emit_report",
    "run_experiment",
    "RawImageSet",
    "cifar10_dataset",
    "load_cifar10",
    "load_mnist",
    "mnist_dataset",
    "normalize",
    "synth_blobs",
    "synth_lowrank",
    "Dataset",
    "DesignResult",
    "ElmModel",
    "FeatureMap",
    "OptimizerConfig",
    "build_design",
    "evaluate",
    "featurize_batch",
    "init_features",
    "load_model",
    "onehot",
    "optimize_features",
    "predict_batch",
    "save_model",
    "squared_loss",
    "train",
    "LowRankFactors",
    "apply_factors",
    "svd_dense",
    "truncated_pinv",
    "NORM_WEIGHTED",
    "UNIFORM",
    "SampleDraw",
    "SketchConfig",
    "build_s",
    "build_w",
    "draw_samples",
    "modfkv",
    "reconstruct",
    "SegTreeMatrix",
    "errors",
    "__version__",
]
