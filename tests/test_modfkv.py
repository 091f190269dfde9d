import tracemalloc
import warnings

import numpy as np
import pytest

from sketchlearn.errors import (
    EmptyMatrix,
    NonFinite,
    RankDeficientSketch,
    ZeroMatrix,
    ZeroProbability,
)
from sketchlearn.datasets import synth_lowrank
from sketchlearn.linalg import svd_dense
from sketchlearn.modfkv import (
    SampleDraw,
    SketchConfig,
    build_s,
    build_w,
    draw_samples,
    modfkv,
    reconstruct,
    usable_rank,
)
from sketchlearn.segtree import SegTreeMatrix

from oracles import col_mixture_probs


def materialize(f):
    return (f.u * f.sigma) @ f.v.T


def rel_err(approx, target):
    return np.linalg.norm(approx - target) / np.linalg.norm(target)


class TestConfig:
    def test_defaults(self):
        cfg = SketchConfig(k=3, p=10)
        assert cfg.strategy == "norm"
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0, p=5),
            dict(k=6, p=5),
            dict(k=2, p=5, strategy="leverage"),
            # A fractional rank would fail in the lift's slice; a bool is no rank.
            dict(k=2.5, p=20),
            dict(k=True, p=20),
            dict(k=2, p=20.5),
            dict(k=1, p=True),
            # The seed goes to default_rng: no fraction, no negative, no bool.
            dict(k=2, p=5, seed=1.5),
            dict(k=2, p=5, seed=-1),
            dict(k=2, p=5, seed=True),
            dict(k=2, p=5, seed="0"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SketchConfig(**kwargs)


class TestDrawSamples:
    def test_single_live_row(self):
        t = SegTreeMatrix(np.array([[3.0, 4.0], [0.0, 0.0]]))
        cfg = SketchConfig(k=1, p=200)
        d = draw_samples(t, cfg, np.random.default_rng(0))
        assert d.p == 200
        assert np.all(d.row_idx == 0)
        np.testing.assert_allclose(d.row_prob, 1.0)
        expected = np.where(d.col_idx == 1, 16.0 / 25.0, 9.0 / 25.0)
        np.testing.assert_allclose(d.col_prob, expected, rtol=1e-12)

    def test_uniform_probabilities(self):
        x = np.random.default_rng(1).standard_normal((10, 20))
        cfg = SketchConfig(k=2, p=50, strategy="uniform")
        d = draw_samples(x, cfg, np.random.default_rng(2))
        np.testing.assert_array_equal(d.row_prob, np.full(50, 0.1))
        np.testing.assert_array_equal(d.col_prob, np.full(50, 0.05))
        assert d.row_idx.max() < 10 and d.col_idx.max() < 20

    def test_column_probs_are_exact_mixture(self):
        x = np.random.default_rng(3).standard_normal((8, 8))
        t = SegTreeMatrix(x)
        d = draw_samples(t, SketchConfig(k=2, p=30), np.random.default_rng(4))
        g = col_mixture_probs(x, d.row_idx)
        np.testing.assert_allclose(d.col_prob, g[d.col_idx], rtol=1e-12)

    @pytest.mark.parametrize(
        "shape, p",
        [
            pytest.param((8, 8), 40, id="shape0"),
            pytest.param((50, 150), 40, id="shape1"),
            pytest.param((33, 1024), 40, id="shape2"),
            pytest.param((50, 150), 1, id="p1"),
            # Chunks of 5 rows, the last one 2 rows short.
            pytest.param((50, 150), 37, id="p37-short-last-chunk"),
            pytest.param((6, 300), 64, id="p-above-rows"),
        ],
    )
    def test_column_probs_bitwise_formula(self, shape, p):
        """col_prob is exactly mean_p X[i_p, j]^2 / rowNormSq(i_p), the
        formula evaluated on the draw's own indices, bit for bit."""
        rng = np.random.default_rng(27)
        x = rng.standard_normal(shape) * rng.lognormal(0.0, 1.0, (shape[0], 1))
        x[x < -1.0] = 0.0
        t = SegTreeMatrix(x)
        d = draw_samples(t, SketchConfig(k=1, p=p), np.random.default_rng(28))
        assert d.p == p
        r, c = d.row_idx, d.col_idx
        ns = t.row_norm_sq(r)
        expected = (x[np.ix_(r, c)] ** 2 / ns[:, None]).mean(axis=0)
        np.testing.assert_array_equal(d.col_prob, expected)
        np.testing.assert_array_equal(d.row_prob, ns / t.fro_norm_sq())

    def test_norm_draw_holds_one_core_block(self):
        """A P=256 norm draw on a 2048 x 4096 store allocates about one
        P x P block of floats at its peak: the gather its column law needs,
        with no P x P temporary beside it."""
        p = 256
        t = SegTreeMatrix(np.random.default_rng(29).standard_normal((2048, 4096)))
        cfg = SketchConfig(k=10, p=p)
        tracemalloc.start()
        try:
            d = draw_samples(t, cfg, np.random.default_rng(30))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.p == p
        assert peak <= 1.5 * 8 * p * p, peak / (8 * p * p)

    def test_constant_matrix_strategies_agree(self):
        x = np.full((16, 16), -0.5)
        t = SegTreeMatrix(x)
        dn = draw_samples(t, SketchConfig(k=2, p=40), np.random.default_rng(5))
        du = draw_samples(
            x, SketchConfig(k=2, p=40, strategy="uniform"), np.random.default_rng(5)
        )
        np.testing.assert_array_equal(dn.row_prob, np.full(40, 1.0 / 16.0))
        np.testing.assert_array_equal(dn.col_prob, np.full(40, 1.0 / 16.0))
        np.testing.assert_array_equal(du.row_prob, dn.row_prob)
        np.testing.assert_array_equal(du.col_prob, dn.col_prob)

    def test_deterministic_given_seed(self):
        t = SegTreeMatrix(np.random.default_rng(6).standard_normal((9, 7)))
        cfg = SketchConfig(k=2, p=25)
        d1 = draw_samples(t, cfg, np.random.default_rng(cfg.seed))
        d2 = draw_samples(t, cfg, np.random.default_rng(cfg.seed))
        np.testing.assert_array_equal(d1.row_idx, d2.row_idx)
        np.testing.assert_array_equal(d1.col_idx, d2.col_idx)
        np.testing.assert_array_equal(d1.col_prob, d2.col_prob)

    def test_norm_strategy_needs_tree(self):
        with pytest.raises(TypeError):
            draw_samples(
                np.ones((3, 3)), SketchConfig(k=1, p=2), np.random.default_rng(0)
            )

    def test_uniform_rejects_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            draw_samples(
                np.zeros((3, 3)),
                SketchConfig(k=1, p=2, strategy="uniform"),
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (5,)])
    def test_uniform_rejects_empty_or_1d(self, shape):
        # The store rejects the same shapes with the same error.
        x = np.ones(shape)
        with pytest.raises(EmptyMatrix, match="nonempty 2-D"):
            SegTreeMatrix(x)
        cfg = SketchConfig(k=1, p=2, strategy="uniform")
        with pytest.raises(EmptyMatrix, match="nonempty 2-D"):
            draw_samples(x, cfg, np.random.default_rng(0))
        with pytest.raises(EmptyMatrix, match="nonempty 2-D"):
            modfkv(x, cfg)

    def test_uniform_accepts_zero_first_row(self):
        # The zero-matrix check looks at the first row before scanning the
        # rest; one nonzero entry anywhere else must still let it draw.
        x = np.zeros((4, 5))
        x[3, 2] = -1.0
        cfg = SketchConfig(k=1, p=6, strategy="uniform")
        for source in (x, SegTreeMatrix(x)):
            d = draw_samples(source, cfg, np.random.default_rng(0))
            assert d.p == 6
            assert d.row_idx.max() < 4 and d.col_idx.max() < 5


def full_coverage_draw_identity(n):
    """Hand-built draw hitting every row/column of the identity once."""
    idx = np.arange(n)
    prob = np.full(n, 1.0 / n)
    return SampleDraw(row_idx=idx, row_prob=prob, col_idx=idx, col_prob=prob)


class TestBuildW:
    def test_one_by_one(self):
        x = np.array([[2.5]])
        d = SampleDraw(
            row_idx=np.array([0]),
            row_prob=np.array([1.0]),
            col_idx=np.array([0]),
            col_prob=np.array([1.0]),
        )
        np.testing.assert_array_equal(build_w(build_s(x, d), d), [[2.5]])

    def test_identity_full_coverage(self):
        t = SegTreeMatrix(np.eye(2))
        d = full_coverage_draw_identity(2)
        w = build_w(build_s(t, d), d)
        np.testing.assert_allclose(w, np.eye(2), atol=1e-15)

    def test_matches_scalar_recomputation(self):
        x = np.random.default_rng(7).standard_normal((6, 6))
        t = SegTreeMatrix(x)
        d = draw_samples(t, SketchConfig(k=2, p=10), np.random.default_rng(8))
        w = build_w(build_s(t, d), d)
        for p in range(10):
            for q in range(10):
                expected = x[d.row_idx[p], d.col_idx[q]] / (
                    10 * np.sqrt(d.row_prob[p] * d.col_prob[q])
                )
                assert w[p, q] == pytest.approx(expected, rel=1e-14)

    def test_zero_probability_rejected(self):
        d = SampleDraw(
            row_idx=np.array([0]),
            row_prob=np.array([0.0]),
            col_idx=np.array([0]),
            col_prob=np.array([1.0]),
        )
        with pytest.raises(ZeroProbability):
            build_w(np.eye(2), d)


class TestBuildS:
    def test_identity_full_coverage(self):
        t = SegTreeMatrix(np.eye(3))
        s = build_s(t, full_coverage_draw_identity(3))
        np.testing.assert_allclose(s, np.eye(3), atol=1e-15)

    def test_single_row_matrix_gram_is_exact(self):
        # With one live row every draw repeats it, and the 1/sqrt(P f)
        # rescaling makes S^T S equal X^T X identically, not just in mean.
        x = np.array([[3.0, 4.0]])
        t = SegTreeMatrix(np.vstack([x, np.zeros((1, 2))]))
        d = draw_samples(t, SketchConfig(k=1, p=7), np.random.default_rng(9))
        s = build_s(t, d)
        np.testing.assert_allclose(s.T @ s, x.T @ x, rtol=1e-12)

    def test_holds_one_row_sketch(self):
        """S at P=200 on a 512 x 4096 store allocates about one P x n array
        at its peak: the rows are gathered once and rescaled in place."""
        p, n = 200, 4096
        t = SegTreeMatrix(np.random.default_rng(31).standard_normal((512, n)))
        d = draw_samples(t, SketchConfig(k=10, p=p), np.random.default_rng(32))
        tracemalloc.start()
        try:
            s = build_s(t, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.shape == (p, n)
        assert peak <= 1.25 * 8 * p * n, peak / (8 * p * n)


class TestReconstruct:
    def test_identity_exact_coverage(self):
        t = SegTreeMatrix(np.eye(2))
        d = full_coverage_draw_identity(2)
        s = build_s(t, d)
        f = reconstruct(t, s, svd_dense(build_w(s, d)), 2)
        np.testing.assert_allclose(materialize(f), np.eye(2), atol=1e-12)

    def test_rank_one_closed_form(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal(4)
        v = rng.standard_normal(6)
        x = 5.0 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        t = SegTreeMatrix(x)
        d = draw_samples(t, SketchConfig(k=1, p=8), np.random.default_rng(11))
        s = build_s(t, d)
        f = reconstruct(t, s, svd_dense(build_w(s, d)), 1)
        assert f.sigma[0] == pytest.approx(5.0, rel=1e-6)
        assert rel_err(materialize(f), x) <= 1e-6

    def test_planted_rank3_accuracy(self):
        x = synth_lowrank(40, 60, 3, 0.0, np.random.default_rng(12))
        t = SegTreeMatrix(x)
        errs = [
            rel_err(materialize(modfkv(t, SketchConfig(k=3, p=30, seed=s))), x)
            for s in range(20)
        ]
        assert np.median(errs) <= 0.05

    def test_error_decreases_with_more_samples(self):
        x = synth_lowrank(40, 60, 5, 0.05, np.random.default_rng(15))
        sv = np.linalg.svd(x, full_matrices=False)
        xk = (sv[0][:, :5] * sv[1][:5]) @ sv[2][:5]
        t = SegTreeMatrix(x)
        medians = []
        for p in (10, 20, 40):
            errs = [
                rel_err(materialize(modfkv(t, SketchConfig(k=5, p=p, seed=s))), xk)
                for s in range(20)
            ]
            medians.append(np.median(errs))
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[2] < medians[0]

    def test_rank_deficient_request_reduced(self):
        # The lift keeps min(k, usable_rank) triplets, as truncated_pinv does,
        # and reports the cut by its reduced flag alone.
        x = np.outer(np.ones(4), np.arange(1.0, 5.0))
        t = SegTreeMatrix(x)
        d = draw_samples(t, SketchConfig(k=2, p=6), np.random.default_rng(16))
        s = build_s(t, d)
        w_svd = svd_dense(build_w(s, d))
        assert usable_rank(w_svd) == 1
        f = reconstruct(t, s, w_svd, 2)
        assert f.k == 1 and f.reduced
        assert rel_err(materialize(f), x) <= 1e-12
        with pytest.raises(RankDeficientSketch, match="no usable"):
            reconstruct(t, s, svd_dense(np.zeros((6, 6))), 2)
        with pytest.raises(ValueError, match="k must be >= 1"):
            reconstruct(t, s, w_svd, 0)
        # A bool is no rank and a float is never truncated to one.
        for k in (True, 2.0):
            with pytest.raises(ValueError, match="k must be >= 1 and an integer"):
                reconstruct(t, s, w_svd, k)
        f = reconstruct(t, s, w_svd, np.int64(1))
        assert f.sigma.size == 1 and not f.reduced

    def test_direction_in_null_space_rejected(self):
        # Column 1 of X is zero and the sketch's one row sits on it, so the
        # lifted direction is e_1 and X v = 0.
        t = SegTreeMatrix(np.array([[1.0, 0.0], [2.0, 0.0]]))
        s = np.array([[0.0, 3.0]])
        w_svd = svd_dense(np.array([[3.0]]))
        assert usable_rank(w_svd) == 1
        with pytest.raises(RankDeficientSketch, match="null space"):
            reconstruct(t, s, w_svd, 1)


class TestModfkv:
    def test_identity_with_full_coverage_seed(self):
        t = SegTreeMatrix(np.eye(4))
        hit = None
        for seed in range(2000):
            d = draw_samples(t, SketchConfig(k=4, p=4, seed=seed),
                             np.random.default_rng(seed))
            if len(set(d.row_idx)) == 4 and len(set(d.col_idx)) == 4:
                hit = seed
                break
        assert hit is not None, "no full-coverage seed in range"
        f = modfkv(t, SketchConfig(k=4, p=4, seed=hit))
        np.testing.assert_allclose(materialize(f), np.eye(4), atol=1e-9)

    def test_uniform_strategy_on_plain_array(self):
        x = synth_lowrank(40, 60, 3, 0.0, np.random.default_rng(17))
        errs = [
            rel_err(
                materialize(
                    modfkv(x, SketchConfig(k=3, p=30, strategy="uniform", seed=s))
                ),
                x,
            )
            for s in range(10)
        ]
        assert np.median(errs) <= 0.05

    def test_deterministic(self):
        x = synth_lowrank(20, 30, 2, 0.0, np.random.default_rng(18))
        t = SegTreeMatrix(x)
        cfg = SketchConfig(k=2, p=15, seed=3)
        f1, f2 = modfkv(t, cfg), modfkv(t, cfg)
        np.testing.assert_array_equal(f1.sigma, f2.sigma)
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.v, f2.v)

    def test_reduces_on_rank_deficit_without_warning(self):
        x = np.outer(np.arange(1.0, 6.0), np.ones(7))
        t = SegTreeMatrix(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = modfkv(t, SketchConfig(k=3, p=8, seed=0))
        assert f.k == 1
        assert f.reduced
        assert rel_err(materialize(f), x) <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_uniform_rejects_non_finite_entries(self, bad):
        # A store rejects these entries when it is filled; a dense array
        # reaches the lift, where the bad entry shows in X @ v. Most seeds
        # miss the bad row, so the core itself is finite.
        x = np.random.default_rng(22).random((50, 20))
        x[3, 4] = bad
        for seed in range(10):
            cfg = SketchConfig(k=2, p=10, strategy="uniform", seed=seed)
            with pytest.raises(NonFinite):
                modfkv(x, cfg)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrix):
            modfkv(SegTreeMatrix.zeros(3, 3), SketchConfig(k=1, p=2))

    def test_draw_rederived_from_seed(self):
        x = synth_lowrank(30, 40, 3, 0.0, np.random.default_rng(21))
        t = SegTreeMatrix(x)
        cfg = SketchConfig(k=3, p=12, seed=5)
        d = draw_samples(t, cfg, np.random.default_rng(cfg.seed))
        s = build_s(t, d)
        ref = reconstruct(t, s, svd_dense(build_w(s, d)), cfg.k)
        f = modfkv(t, cfg)
        np.testing.assert_array_equal(f.sigma, ref.sigma)
        np.testing.assert_array_equal(f.u, ref.u)
        np.testing.assert_array_equal(f.v, ref.v)
