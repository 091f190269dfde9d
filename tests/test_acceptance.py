"""End-to-end acceptance criteria for the sampled-SVD learning pipeline.

Each test pins one numbered guarantee; the session summary prints a
PASS/FAIL/SKIP line per criterion (see conftest.py). Criteria 5, 7 and 8
evaluate accuracy bands on MNIST and skip cleanly when the dataset files
are not available under $SKETCHLEARN_DATA_DIR.
"""

import time

import numpy as np
import pytest

from sketchlearn.bench import ExperimentSpec, run_experiment
from sketchlearn.datasets import resolve_data_dir, synth_lowrank
from sketchlearn.elm import Dataset, ElmModel, FeatureMap, onehot
from sketchlearn.elm import _loss_and_grads
from sketchlearn.errors import DatasetMissing
from sketchlearn.linalg import svd_dense
from sketchlearn.modfkv import SketchConfig, build_s, draw_samples, modfkv
from sketchlearn.segtree import SegTreeMatrix

from oracles import (
    central_diff_grad,
    col_mixture_probs,
    row_sampling_probs,
    singular_values_via_gram,
    tv_distance,
)


def materialize(f):
    return (f.u * f.sigma) @ f.v.T


def rel_err(approx, target):
    return float(np.linalg.norm(approx - target) / np.linalg.norm(target))


def _data_dir_str():
    path = resolve_data_dir()
    return str(path) if path is not None else None


@pytest.fixture(scope="session")
def mnist_baseline_report():
    """Accuracy sweep shared by criteria 5 and 7 (unoptimized features)."""
    spec = ExperimentSpec(
        kind="compare-sampling",
        dataset="mnist",
        m=(1000,),
        k=(10,),
        p=(100,),
        strategies=("exact", "norm", "uniform"),
        seeds=(0, 1, 2, 3, 4),
        data_dir=_data_dir_str(),
    )
    try:
        records = run_experiment(spec)
    except DatasetMissing as exc:
        pytest.skip(f"MNIST files unavailable: {exc}")
    bad = [r.error for r in records if r.error]
    assert not bad, f"sweep points failed: {bad}"
    return records


@pytest.fixture(scope="session")
def mnist_optimized_report():
    """Feature-optimized sweep for criterion 8."""
    spec = ExperimentSpec(
        kind="optimized-compare",
        dataset="mnist",
        m=(1000,),
        k=(10,),
        p=(100,),
        strategies=("norm", "uniform"),
        seeds=(0, 1, 2, 3, 4),
        subsample=8000,
        epochs=30,
        learning_rate=1e-3,
        data_dir=_data_dir_str(),
    )
    try:
        records = run_experiment(spec)
    except DatasetMissing as exc:
        pytest.skip(f"MNIST files unavailable: {exc}")
    bad = [r.error for r in records if r.error]
    assert not bad, f"sweep points failed: {bad}"
    return records


def strategy_accuracies(records, strategy):
    return [r.accuracy for r in records if r.strategy == strategy]


def test_criterion_01_low_rank_recovery():
    """Sampled factorization recovers a planted rank-5 matrix.

    On a noiseless 100x200 rank-5 instance, the rank-5 truncation of the
    exact SVD reaches 1e-8 relative error and the K=5, P=50 norm-weighted
    sketch stays within 0.05 median relative error over 20 seeds, in
    under 10 seconds.
    """
    start = time.perf_counter()
    x = synth_lowrank(100, 200, 5, 0.0, np.random.default_rng(42))

    svd = svd_dense(x)
    oracle = (svd.u[:, :5] * svd.sigma[:5]) @ svd.v[:, :5].T
    assert rel_err(oracle, x) <= 1e-8

    tree = SegTreeMatrix(x)
    errs = [
        rel_err(materialize(modfkv(tree, SketchConfig(k=5, p=50, seed=s))), x)
        for s in range(20)
    ]
    assert float(np.median(errs)) <= 0.05
    assert time.perf_counter() - start < 10.0


def test_criterion_02_sketch_unbiasedness():
    """The rescaled row sketch is an unbiased Gram estimator.

    Averaged over 2000 independent draws at P=30, S^T S matches X^T X
    entrywise within 5% relative error on a fixed 12x18 matrix whose
    entries are bounded away from zero (so the relative comparison is
    well-posed), in under 5 seconds.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    x = 0.2 + 0.8 * rng.random((12, 18))
    tree = SegTreeMatrix(x)
    cfg = SketchConfig(k=1, p=30)

    acc = np.zeros((18, 18))
    for i in range(2000):
        d = draw_samples(tree, cfg, np.random.default_rng(1000 + i))
        s = build_s(tree, d)
        acc += s.T @ s
    mean = acc / 2000.0
    target = x.T @ x
    assert float(np.max(np.abs(mean - target) / np.abs(target))) <= 0.05
    assert time.perf_counter() - start < 5.0


def test_criterion_03_sampling_laws():
    """Tree sampling follows the squared-norm row and column laws.

    On a 64x64 standard normal matrix, 1e5 row draws match the
    rowNormSq/froSq law and 1e5 in-row column draws match the mixture law
    over the drawn rows, each within total variation 0.02, in under 5
    seconds.
    """
    start = time.perf_counter()
    x = np.random.default_rng(3).standard_normal((64, 64))
    tree = SegTreeMatrix(x)
    sampler = np.random.default_rng(4)
    draws = 100_000

    rows = tree.sample_rows(sampler, draws)
    row_freq = np.bincount(rows, minlength=64) / draws
    assert tv_distance(row_freq, row_sampling_probs(x)) <= 0.02

    cols = tree.sample_cols_in_rows(rows, sampler)
    col_freq = np.bincount(cols, minlength=64) / draws
    assert tv_distance(col_freq, col_mixture_probs(x, rows)) <= 0.02
    assert time.perf_counter() - start < 5.0


def test_criterion_04_exact_svd_correctness():
    """The exact SVD (LAPACK) is correct on small dense matrices.

    Over 50 random matrices up to 16x16 (every fifth made rank-deficient),
    factor orthonormality and reconstruction hold to 1e-8 relative and the
    singular values match an independent symmetric-eigendecomposition of
    A^T A to 1e-8, in under 5 seconds.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for trial in range(50):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 17))
        a = rng.standard_normal((m, n))
        if trial % 5 == 4 and n > 1:
            a[:, -1] = a[:, 0]
        res = svd_dense(a)
        r = min(m, n)
        assert np.linalg.norm(res.u.T @ res.u - np.eye(r)) <= 1e-8
        assert np.linalg.norm(res.v.T @ res.v - np.eye(r)) <= 1e-8
        recon = (res.u * res.sigma) @ res.v.T
        scale = max(np.linalg.norm(a), 1e-30)
        assert np.linalg.norm(recon - a) / scale <= 1e-8
        oracle = singular_values_via_gram(a)[:r]
        assert np.max(np.abs(res.sigma - oracle)) <= 1e-8 * max(1.0, oracle[0])
    assert time.perf_counter() - start < 5.0


def test_criterion_05_mnist_accuracy_bands(mnist_baseline_report):
    """MNIST accuracy at M=1000, K=10, P=100 lands in the expected bands.

    Means over 5 seeds: exact rank-10 solve 0.687 +/- 0.03, norm-weighted
    sketch 0.640 +/- 0.05, uniform sketch 0.646 +/- 0.05.
    """
    means = {
        s: float(np.mean(strategy_accuracies(mnist_baseline_report, s)))
        for s in ("exact", "norm", "uniform")
    }
    assert abs(means["exact"] - 0.687) <= 0.03, means
    assert abs(means["norm"] - 0.640) <= 0.05, means
    assert abs(means["uniform"] - 0.646) <= 0.05, means


def test_criterion_06_timing_ordering():
    """Sketched factorization beats the exact solve at M=10000 features.

    On a synthetic 2000-point classification run: exact factorize+solve
    takes at least twice as long as either sketch strategy's
    factorize+solve, and the uniform strategy's total (no sampling tree)
    is below the norm-weighted total (tree build included). Absolute
    seconds are machine-dependent and not asserted.
    """
    spec = ExperimentSpec(
        kind="compare-sampling",
        dataset="synthetic",
        m=(10_000,),
        k=(10,),
        p=(100,),
        strategies=("exact", "norm", "uniform"),
        seeds=(0,),
        subsample=2000,
    )
    records = run_experiment(spec)
    assert not [r.error for r in records if r.error]
    recs = {r.strategy: r for r in records}
    exact_cost = recs["exact"].factorize_s + recs["exact"].solve_s
    for strategy in ("norm", "uniform"):
        sketch_cost = recs[strategy].factorize_s + recs[strategy].solve_s
        assert exact_cost >= 2.0 * sketch_cost, (strategy, exact_cost, sketch_cost)
    assert recs["uniform"].total_s < recs["norm"].total_s


def test_criterion_07_sampling_strategy_ablation(mnist_baseline_report):
    """Without feature optimization the sampling law barely matters.

    On unoptimized MNIST features the mean accuracies of the norm-weighted
    and uniform strategies agree within 0.05 over 5 seeds.
    """
    norm_mean = float(np.mean(strategy_accuracies(mnist_baseline_report, "norm")))
    uniform_mean = float(
        np.mean(strategy_accuracies(mnist_baseline_report, "uniform"))
    )
    assert abs(norm_mean - uniform_mean) <= 0.05, (norm_mean, uniform_mean)


def test_criterion_08_optimized_features_trend(mnist_optimized_report):
    """After feature optimization, norm-weighted sampling pulls ahead.

    With gradient-optimized features at M=1000, P=100 on MNIST, the
    norm-weighted strategy beats the uniform strategy on a majority of
    the 5 seeds.
    """
    norm = {
        r.seed: r.accuracy
        for r in mnist_optimized_report
        if r.strategy == "norm"
    }
    uniform = {
        r.seed: r.accuracy
        for r in mnist_optimized_report
        if r.strategy == "uniform"
    }
    assert sorted(norm) == sorted(uniform)
    wins = sum(1 for seed in norm if norm[seed] > uniform[seed])
    assert wins > len(norm) // 2, (norm, uniform)


def test_criterion_09_gradient_check():
    """Analytic feature gradients agree with central finite differences.

    On 20 random small instances whose preactivations stay at least 1e-3
    from the relu kink, the analytic gradient of the squared loss with
    respect to the feature parameters matches a central-difference
    estimate to 1e-4 relative, in under 2 seconds.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(29)
    done = 0
    while done < 20:
        a0 = rng.standard_normal((4, 3))
        b0 = rng.standard_normal(4)
        ds = Dataset(inputs=rng.random((6, 3)), labels=rng.integers(0, 2, 6))
        if np.abs(ds.inputs @ a0.T + b0).min() <= 1e-3:
            continue
        done += 1
        model = ElmModel(
            features=FeatureMap(a=a0, b=b0), w=rng.standard_normal((4, 2))
        )
        y = onehot(ds, 2)
        _, ga, gb = _loss_and_grads(model.features, model.w, ds.inputs, y)

        def loss_of(theta):
            a = theta[: a0.size].reshape(a0.shape)
            b = theta[a0.size :]
            r = y - np.maximum(ds.inputs @ a.T + b, 0.0) @ model.w
            return float((r * r).sum())

        numeric = central_diff_grad(loss_of, np.concatenate([a0.ravel(), b0]))
        analytic = np.concatenate([ga.ravel(), gb])
        denom = np.linalg.norm(numeric) + 1e-12
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-4
    assert time.perf_counter() - start < 2.0


def test_criterion_10_sampled_column_norms():
    """Norm-weighted sampling prefers heavier columns than uniform.

    On optimized synthetic features (M=1000, P=600, 5 seeds), the mean
    squared-norm-sampled column norm strictly exceeds the uniform-sampled
    mean. Directional check only; the gap size is data-dependent.
    """
    spec = ExperimentSpec(
        kind="sampled-norms",
        dataset="synthetic",
        m=(1000,),
        k=(10,),
        p=(600,),
        strategies=("norm", "uniform"),
        seeds=(0, 1, 2, 3, 4),
        subsample=600,
        epochs=40,
        learning_rate=5e-3,
    )
    records = run_experiment(spec)
    assert not [r.error for r in records if r.error]
    pool = {"norm": [], "uniform": []}
    for rec in records:
        pool[rec.strategy].extend(rec.sampled_col_norms)
    norm_mean = float(np.mean(pool["norm"]))
    uniform_mean = float(np.mean(pool["uniform"]))
    assert norm_mean > uniform_mean, (norm_mean, uniform_mean)
