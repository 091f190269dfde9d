import tracemalloc

import numpy as np
import pytest

from sketchlearn import elm
from sketchlearn.elm import (
    Dataset,
    ElmModel,
    FeatureMap,
    OptimizerConfig,
    build_design,
    evaluate,
    featurize_batch,
    infer_classes,
    init_features,
    load_model,
    onehot,
    optimize_features,
    predict_batch,
    save_model,
    squared_loss,
    train,
)
from sketchlearn.errors import (
    BadMagic,
    DimensionMismatch,
    Diverged,
    EmptyMatrix,
    LabelOutOfRange,
    NonFinite,
    TruncatedFile,
)
from sketchlearn.linalg import svd_dense, truncated_pinv
from sketchlearn.segtree import SegTreeMatrix

from oracles import central_diff_grad, pinv_apply_ridge


def toy_dataset(rng, d=3, count=10, n_classes=3):
    return Dataset(
        inputs=rng.random((count, d)),
        labels=rng.integers(0, n_classes, count),
    )


def exact_pinv(design):
    res = svd_dense(design)
    return truncated_pinv(res, min(design.shape))


class TestInitFeatures:
    def test_within_unit_interval(self):
        fm = init_features(5, 40, np.random.default_rng(0))
        assert fm.a.shape == (40, 5)
        assert fm.b.shape == (40,)
        assert np.all((fm.a >= 0.0) & (fm.a < 1.0))
        assert np.all((fm.b >= 0.0) & (fm.b < 1.0))

    def test_uniform_moments(self):
        fm = init_features(250, 400, np.random.default_rng(1))
        draws = fm.a.ravel()  # 100k i.i.d. U[0,1] samples
        assert abs(draws.mean() - 0.5) <= 0.005
        assert abs(draws.var() - 1.0 / 12.0) <= 0.002

    def test_deterministic(self):
        f1 = init_features(4, 7, np.random.default_rng(2))
        f2 = init_features(4, 7, np.random.default_rng(2))
        np.testing.assert_array_equal(f1.a, f2.a)
        np.testing.assert_array_equal(f1.b, f2.b)

    def test_validation(self):
        with pytest.raises(ValueError):
            init_features(0, 3, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            FeatureMap(a=np.ones((3, 2)), b=np.ones(2))
        with pytest.raises(NonFinite):
            FeatureMap(a=np.full((1, 1), np.nan), b=np.zeros(1))
        # The dataset and model dataclasses check their shapes the same way.
        mismatched = ((np.zeros((3, 2)), np.zeros(2)), (np.zeros(3), np.zeros(3)))
        for inputs, labels in mismatched:
            with pytest.raises(DimensionMismatch):
                Dataset(inputs=inputs, labels=labels)
        with pytest.raises(EmptyMatrix):
            Dataset(inputs=np.zeros((0, 2)), labels=np.zeros(0))
        fm = init_features(2, 3, np.random.default_rng(0))
        for w in (np.zeros((2, 4)), np.zeros(3)):
            with pytest.raises(DimensionMismatch):
                ElmModel(features=fm, w=w)
        with pytest.raises(NonFinite):
            ElmModel(features=fm, w=np.full((3, 2), np.nan))


class TestFeaturize:
    def test_hand_case(self):
        fm = FeatureMap(a=np.array([[1.0, 1.0]]), b=np.array([0.0]))
        assert featurize_batch(fm, np.array([[0.5, 0.5]]))[0, 0] == 1.0

    def test_zero_input_returns_offsets(self):
        fm = init_features(6, 9, np.random.default_rng(3))
        np.testing.assert_array_equal(featurize_batch(fm, np.zeros((1, 6)))[0], fm.b)

    def test_linear_in_the_init_regime(self):
        # Nonnegative weights, offsets, and inputs keep every unit active,
        # so the map reduces to the affine part exactly.
        fm = init_features(4, 12, np.random.default_rng(4))
        x = np.random.default_rng(5).random(4)
        np.testing.assert_array_equal(
            featurize_batch(fm, x[None, :])[0], fm.a @ x + fm.b
        )

    def test_clamps_negative_preactivation(self):
        fm = FeatureMap(a=np.array([[-1.0]]), b=np.array([0.2]))
        assert featurize_batch(fm, np.array([[0.9]]))[0, 0] == 0.0
        assert featurize_batch(fm, np.array([[0.1]]))[0, 0] == pytest.approx(0.1)

    def test_batch_matches_single(self):
        fm = init_features(5, 8, np.random.default_rng(6))
        xs = np.random.default_rng(7).random((10, 5))
        batch = featurize_batch(fm, xs)
        for i in range(10):
            # identical up to BLAS summation order
            single = featurize_batch(fm, xs[i][None, :])[0]
            np.testing.assert_allclose(batch[i], single, rtol=1e-12, atol=1e-14)

    def test_out_receives_the_rows(self):
        fm = init_features(5, 8, np.random.default_rng(6))
        xs = np.random.default_rng(7).random((10, 5))
        out = np.full((10, 8), np.nan)
        assert featurize_batch(fm, xs, out=out) is out
        np.testing.assert_array_equal(out, featurize_batch(fm, xs))

    def test_dimension_mismatch(self):
        fm = init_features(3, 4, np.random.default_rng(8))
        for xs in (np.zeros((1, 5)), np.zeros((2, 5)), np.zeros(3)):
            with pytest.raises(DimensionMismatch):
                featurize_batch(fm, xs)


class TestBuildDesign:
    def test_single_point(self):
        fm = init_features(3, 6, np.random.default_rng(9))
        ds = Dataset(inputs=np.random.default_rng(10).random((1, 3)),
                     labels=np.zeros(1, dtype=np.int64))
        res = build_design(fm, ds)
        np.testing.assert_array_equal(res.design, featurize_batch(fm, ds.inputs))

    def test_tree_consistency(self, monkeypatch):
        fm = init_features(4, 10, np.random.default_rng(11))
        ds = toy_dataset(np.random.default_rng(12), d=4, count=23)
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 5)
        res = build_design(fm, ds)
        assert res.design is res.tree.dense  # one shared buffer
        np.testing.assert_allclose(
            res.tree.fro_norm_sq(), np.sum(res.design**2), rtol=1e-12
        )
        # After that read, the tree filled in blocks is a fresh build.
        fresh = SegTreeMatrix(res.design)
        np.testing.assert_array_equal(res.tree._blocks, fresh._blocks)
        np.testing.assert_array_equal(res.tree._root_nodes, fresh._root_nodes)
        rows = res.tree.sample_rows(np.random.default_rng(17), 40)
        np.testing.assert_array_equal(
            rows, fresh.sample_rows(np.random.default_rng(17), 40)
        )
        np.testing.assert_array_equal(
            res.tree.sample_cols_in_rows(rows, np.random.default_rng(18)),
            fresh.sample_cols_in_rows(rows, np.random.default_rng(18)),
        )
        assert res.featurize_s >= 0.0 and res.tree_build_s >= 0.0

    def test_block_size_does_not_change_result(self, monkeypatch):
        fm = init_features(4, 10, np.random.default_rng(13))
        ds = toy_dataset(np.random.default_rng(14), d=4, count=17)
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 3)
        r1 = build_design(fm, ds)
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 512)
        r2 = build_design(fm, ds)
        np.testing.assert_array_equal(r1.design, r2.design)

    def test_duplicate_inputs_duplicate_rows(self):
        fm = init_features(3, 5, np.random.default_rng(15))
        x = np.random.default_rng(16).random(3)
        ds = Dataset(inputs=np.vstack([x, x]), labels=np.zeros(2, dtype=np.int64))
        res = build_design(fm, ds)
        np.testing.assert_array_equal(res.design[0], res.design[1])

    def test_without_tree(self, monkeypatch):
        fm = init_features(3, 5, np.random.default_rng(17))
        ds = toy_dataset(np.random.default_rng(18), count=6)
        res = build_design(fm, ds, with_tree=False)
        assert res.tree is None
        assert res.tree_build_s == 0.0
        np.testing.assert_array_equal(
            res.design, featurize_batch(fm, ds.inputs)
        )
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 4)
        with_tree = build_design(fm, ds)
        np.testing.assert_array_equal(
            build_design(fm, ds, with_tree=False).design, with_tree.design
        )


class TestOnehot:
    def test_hand_case(self):
        ds = Dataset(inputs=np.zeros((2, 1)), labels=np.array([0, 2]))
        np.testing.assert_array_equal(
            onehot(ds, 3), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        )

    def test_row_sums_and_counts(self):
        ds = toy_dataset(np.random.default_rng(19), count=50, n_classes=4)
        y = onehot(ds, 4)
        np.testing.assert_array_equal(y.sum(axis=1), np.ones(50))
        np.testing.assert_array_equal(
            y.sum(axis=0), np.bincount(ds.labels, minlength=4)
        )

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            onehot(Dataset(inputs=np.zeros((1, 1)), labels=np.array([3])), 3)
        with pytest.raises(LabelOutOfRange):
            onehot(Dataset(inputs=np.zeros((1, 1)), labels=np.array([-1])), 3)

    def test_infer_classes(self):
        ds = Dataset(inputs=np.zeros((3, 1)), labels=np.array([0, 4, 2]))
        assert infer_classes(ds) == 5


class TestTrain:
    def test_orthonormal_design_solves_exactly(self):
        # For orthogonal features the least-squares solution is phi^T y.
        rng = np.random.default_rng(20)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        labels = np.array([0, 1, 1, 0])
        ds = Dataset(inputs=rng.random((4, 2)), labels=labels)
        fm = init_features(2, 4, rng)  # carried in the model, unused in solve
        model = train(fm, ds, exact_pinv(q.copy()))
        y = onehot(ds, 2)
        np.testing.assert_allclose(model.w, q.T @ y, atol=1e-9)

    def test_matches_ridge_oracle(self):
        rng = np.random.default_rng(21)
        fm = init_features(3, 4, rng)
        ds = toy_dataset(rng, d=3, count=6, n_classes=2)
        design = build_design(fm, ds, with_tree=False).design
        model = train(fm, ds, exact_pinv(design))
        y = onehot(ds, 2)
        for l in range(2):
            np.testing.assert_allclose(
                model.w[:, l], pinv_apply_ridge(design, y[:, l]), atol=1e-6
            )

    def test_explicit_class_count(self):
        rng = np.random.default_rng(22)
        fm = init_features(2, 3, rng)
        ds = Dataset(inputs=rng.random((4, 2)), labels=np.array([0, 1, 0, 1]))
        design = build_design(fm, ds, with_tree=False).design
        model = train(fm, ds, exact_pinv(design), n_classes=5)
        assert model.n_classes == 5
        assert model.w.shape == (3, 5)


def identity_model(d):
    """Features equal to the input coordinates; the class scores of x are x."""
    fm = FeatureMap(a=np.eye(d), b=np.zeros(d))
    return ElmModel(features=fm, w=np.eye(d))


class TestPredict:
    def test_argmax_of_scores(self):
        model = identity_model(3)
        assert predict_batch(model, np.array([[0.1, 0.9, 0.3]]))[0] == 1

    def test_tie_takes_smallest_label(self):
        model = identity_model(2)
        assert predict_batch(model, np.array([[0.4, 0.4]]))[0] == 0

    def test_scores_match_manual_loop(self):
        rng = np.random.default_rng(23)
        fm = init_features(4, 6, rng)
        model = ElmModel(features=fm, w=rng.standard_normal((6, 3)))
        for _ in range(20):
            x = rng.random(4)
            phi = np.maximum(fm.a @ x + fm.b, 0.0)
            expected = [float(phi @ model.w[:, l]) for l in range(3)]
            assert predict_batch(model, x[None, :])[0] == np.argmax(expected)

    def test_batch_matches_single(self, monkeypatch):
        rng = np.random.default_rng(24)
        fm = init_features(3, 5, rng)
        model = ElmModel(features=fm, w=rng.standard_normal((5, 4)))
        xs = rng.random((30, 3))
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 7)
        batch = predict_batch(model, xs)
        np.testing.assert_array_equal(
            batch, [predict_batch(model, x[None, :])[0] for x in xs]
        )

    def test_batch_holds_one_feature_block(self, monkeypatch):
        """predict_batch featurizes into one DEFAULT_BLOCK x M buffer, so its
        peak stays near one block however many rows it is given."""
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 64)
        rng = np.random.default_rng(31)
        m = 400
        model = ElmModel(
            features=init_features(8, m, rng), w=rng.standard_normal((m, 10))
        )
        xs = rng.random((640, 8))
        tracemalloc.start()
        try:
            predict_batch(model, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * 64 * m
        assert peak < 2 * block, peak / block

    def test_invariant_under_common_rescale(self):
        rng = np.random.default_rng(25)
        fm = init_features(3, 5, rng)
        w = rng.standard_normal((5, 4))
        xs = rng.random((20, 3))
        p1 = predict_batch(ElmModel(features=fm, w=w), xs)
        p2 = predict_batch(ElmModel(features=fm, w=2.0 * w), xs)
        np.testing.assert_array_equal(p1, p2)

    def test_evaluate_counts_exact_matches(self):
        model = identity_model(2)
        inputs = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
        ds = Dataset(inputs=inputs, labels=np.array([0, 1, 1, 1]))
        assert evaluate(model, ds) == 0.75


class TestSquaredLoss:
    def test_zero_weights_loss_is_count(self):
        rng = np.random.default_rng(26)
        fm = init_features(3, 5, rng)
        model = ElmModel(features=fm, w=np.zeros((5, 4)))
        ds = toy_dataset(rng, d=3, count=11, n_classes=4)
        assert squared_loss(model, ds) == pytest.approx(11.0)

    def test_perfect_fit_is_zero(self):
        # phi(e_i / 2) = e_i for a = 2I, b = 0, so w = Y fits exactly.
        d = 4
        fm = FeatureMap(a=2.0 * np.eye(d), b=np.zeros(d))
        ds = Dataset(inputs=0.5 * np.eye(d), labels=np.arange(d))
        model = ElmModel(features=fm, w=onehot(ds, d))
        assert squared_loss(model, ds) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(27)
        fm = init_features(3, 4, rng)
        model = ElmModel(features=fm, w=rng.standard_normal((4, 3)))
        ds = toy_dataset(rng, d=3, count=6, n_classes=3)
        y = onehot(ds, 3)
        total = 0.0
        for i in range(6):
            s = featurize_batch(fm, ds.inputs[i][None, :])[0] @ model.w
            for l in range(3):
                total += (y[i, l] - s[l]) ** 2
        assert squared_loss(model, ds) == pytest.approx(total, rel=1e-9)


def far_from_kinks(rng, d=3, m=4, count=6, n_classes=2, margin=1e-3):
    """A model/dataset pair whose preactivations avoid the relu kink."""
    while True:
        fm = FeatureMap(
            a=rng.standard_normal((m, d)), b=rng.standard_normal(m)
        )
        ds = toy_dataset(rng, d=d, count=count, n_classes=n_classes)
        z = ds.inputs @ fm.a.T + fm.b
        if np.abs(z).min() > margin:
            w = rng.standard_normal((m, n_classes))
            return ElmModel(features=fm, w=w), ds


class TestOptimizeFeatures:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(28)
        fm = init_features(3, 5, rng)
        ds = toy_dataset(rng, count=8)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        out = optimize_features(
            model, ds, OptimizerConfig(learning_rate=0.0, epochs=3), rng
        )
        np.testing.assert_array_equal(out.a, fm.a)
        np.testing.assert_array_equal(out.b, fm.b)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_rejects_batch_size_below_one(self, batch_size):
        # range(0, d, batch) would fail for 0 and silently skip every
        # step for a negative size.
        with pytest.raises(ValueError, match="batch_size"):
            OptimizerConfig(batch_size=batch_size)

    @pytest.mark.parametrize(
        "field, value",
        [
            # range() would fail at run time for a non-integer size.
            ("batch_size", 1.5),
            # A negative count would silently run zero epochs.
            ("epochs", -2),
            ("epochs", 2.5),
            # A NaN loss never exceeds 10x the first one, so a NaN rate
            # would never raise Diverged; the others are not step sizes.
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", -1e-3),
            ("learning_rate", "0.1"),
            # JSON true is an int to Python, but no count or rate.
            ("batch_size", True),
            ("epochs", True),
            ("learning_rate", True),
        ],
    )
    def test_rejects_out_of_range_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(29)
        from sketchlearn.elm import _loss_and_grads

        for _ in range(5):
            model, ds = far_from_kinks(rng)
            y = onehot(ds, model.n_classes)
            a0, b0 = model.features.a, model.features.b
            _, ga, gb = _loss_and_grads(a0, b0, model.w, ds.inputs, y)

            def loss_of(theta):
                a = theta[: a0.size].reshape(a0.shape)
                b = theta[a0.size :]
                r = y - np.maximum(ds.inputs @ a.T + b, 0.0) @ model.w
                return float((r * r).sum())

            theta0 = np.concatenate([a0.ravel(), b0])
            num = central_diff_grad(loss_of, theta0, h=1e-6)
            ana = np.concatenate([ga.ravel(), gb])
            scale = np.linalg.norm(num) + 1e-12
            assert np.linalg.norm(ana - num) / scale <= 1e-4

    def test_gradient_is_zero_when_all_units_off(self):
        fm = FeatureMap(a=-np.ones((3, 2)), b=-0.5 * np.ones(3))
        ds = Dataset(
            inputs=np.random.default_rng(30).random((5, 2)),
            labels=np.array([0, 1, 0, 1, 0]),
        )
        model = ElmModel(features=fm, w=np.ones((3, 2)))
        out = optimize_features(
            model, ds, OptimizerConfig(learning_rate=0.1, epochs=5),
            np.random.default_rng(0),
        )
        np.testing.assert_array_equal(out.a, fm.a)
        np.testing.assert_array_equal(out.b, fm.b)

    def test_loss_never_worse_than_start(self):
        rng = np.random.default_rng(31)
        fm = init_features(3, 6, rng)
        ds = toy_dataset(rng, count=12)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        before = squared_loss(model, ds)
        for lr in (1e-3, 5e-2):
            out = optimize_features(
                model, ds, OptimizerConfig(learning_rate=lr, epochs=20),
                np.random.default_rng(0),
            )
            after = squared_loss(ElmModel(features=out, w=model.w), ds)
            assert after <= before + 1e-12

    def test_exact_solve_is_stationary_in_the_linear_regime(self):
        # With nonnegative weights and inputs every unit stays active, the
        # map is affine, and for M >= d+1 the least-squares residual is
        # orthogonal to everything a parameter step can change: the exact
        # solve leaves nothing for feature descent to improve.
        rng = np.random.default_rng(32)
        from sketchlearn.elm import _loss_and_grads

        fm = init_features(3, 6, rng)
        ds = toy_dataset(rng, count=12)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        y = onehot(ds, model.n_classes)
        _, ga, gb = _loss_and_grads(fm.a, fm.b, model.w, ds.inputs, y)
        assert np.linalg.norm(ga) <= 1e-9
        assert np.linalg.norm(gb) <= 1e-9

    def test_descends_with_small_steps(self):
        # An inexact output solve (as a sampled pseudo-inverse produces)
        # leaves a nonzero feature gradient that descent can exploit.
        rng = np.random.default_rng(32)
        fm = init_features(3, 6, rng)
        ds = toy_dataset(rng, count=12)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        model = ElmModel(features=fm, w=0.8 * model.w)
        before = squared_loss(model, ds)
        out = optimize_features(
            model, ds, OptimizerConfig(learning_rate=1e-3, epochs=30),
            np.random.default_rng(0),
        )
        after = squared_loss(ElmModel(features=out, w=model.w), ds)
        assert after < before

    def test_minibatch_deterministic_given_rng(self):
        rng = np.random.default_rng(33)
        fm = init_features(3, 5, rng)
        ds = toy_dataset(rng, count=10)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        opt = OptimizerConfig(learning_rate=1e-3, epochs=5, batch_size=4)
        o1 = optimize_features(model, ds, opt, np.random.default_rng(1))
        o2 = optimize_features(model, ds, opt, np.random.default_rng(1))
        np.testing.assert_array_equal(o1.a, o2.a)
        np.testing.assert_array_equal(o1.b, o2.b)

    @pytest.mark.parametrize("batch_size, closing", [(4, 0), (None, 1)])
    def test_full_set_featurized_once_per_epoch(self, monkeypatch, batch_size, closing):
        # One full-set loss at the start and one per epoch; only the full
        # batch, whose epochs check the loss before their step, evaluates
        # the last step's parameters once more at the end.
        rng = np.random.default_rng(33)
        fm = init_features(3, 5, rng)
        ds = toy_dataset(rng, count=10)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        full_set = []
        features = elm._features

        def counting(a, b, xs, out=None):
            full_set.append(len(xs) == ds.count)
            return features(a, b, xs, out=out)

        monkeypatch.setattr(elm, "_features", counting)
        epochs = 5
        opt = OptimizerConfig(learning_rate=1e-3, epochs=epochs, batch_size=batch_size)
        optimize_features(model, ds, opt, np.random.default_rng(3))
        assert sum(full_set) == epochs + 1 + closing

    def test_diverged_on_huge_step(self):
        rng = np.random.default_rng(34)
        fm = init_features(3, 5, rng)
        ds = toy_dataset(rng, count=10)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        with pytest.raises(Diverged):
            optimize_features(
                model, ds, OptimizerConfig(learning_rate=1e4, epochs=50),
                np.random.default_rng(0),
            )

    def test_retrain_after_optimize_is_deterministic(self):
        rng = np.random.default_rng(35)
        fm = init_features(3, 5, rng)
        ds = toy_dataset(rng, count=10)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        opt = OptimizerConfig(learning_rate=1e-3, epochs=5)
        fm1 = optimize_features(model, ds, opt, np.random.default_rng(2))
        fm2 = optimize_features(model, ds, opt, np.random.default_rng(2))
        m1 = train(fm1, ds, exact_pinv(build_design(fm1, ds).design))
        m2 = train(fm2, ds, exact_pinv(build_design(fm2, ds).design))
        np.testing.assert_array_equal(m1.w, m2.w)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(36)
        fm = init_features(4, 6, rng)
        model = ElmModel(features=fm, w=rng.standard_normal((6, 3)))
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.features.a, model.features.a)
        np.testing.assert_array_equal(back.features.b, model.features.b)
        np.testing.assert_array_equal(back.w, model.w)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_model(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(37)
        fm = init_features(2, 3, rng)
        model = ElmModel(features=fm, w=rng.standard_normal((3, 2)))
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(TruncatedFile):
            load_model(path)
        path.write_bytes(blob[:10])
        with pytest.raises(TruncatedFile):
            load_model(path)
        path.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(TruncatedFile):
            load_model(path)
