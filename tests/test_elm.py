import tracemalloc

import numpy as np
import pytest

from sketchlearn import elm
from sketchlearn.datasets import synth_blobs
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
    onehot,
    optimize_features,
    predict_batch,
    squared_loss,
    train,
)
from sketchlearn.errors import (
    DimensionMismatch,
    Diverged,
    EmptyMatrix,
    LabelOutOfRange,
    NonFinite,
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
        # Labels must be integers: none is truncated to a class.
        for labels in ([0.5, 1.7, 2.0, 3.9], [True, False, True, False],
                       ["1", "2", "0", "1"], [0.0, np.nan, 1.0, 2.0]):
            with pytest.raises(TypeError):
                Dataset(inputs=np.zeros((4, 2)), labels=labels)
        ds = Dataset(inputs=np.zeros((2, 2)), labels=np.array([1, 0], dtype=np.uint8))
        assert ds.labels.dtype == np.int64
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

    @pytest.mark.parametrize("negative", [None, "input", "offset"])
    def test_relu_skipped_only_when_nothing_is_negative(self, monkeypatch, negative):
        """The ReLU pass is skipped when every input, weight and offset is
        >= 0. One negative input, in one block of several, or one negative
        offset on an otherwise nonnegative map must bring the clamp back."""
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 5)
        rng = np.random.default_rng(41)
        fm = init_features(4, 9, rng)
        xs = rng.random((12, 4))
        if negative == "input":
            xs[7, 2] = -50.0
        elif negative == "offset":
            fm = FeatureMap(a=fm.a, b=np.where(np.arange(9) == 3, -10.0, fm.b))
        assert fm.nonneg == (negative != "offset")
        z = xs @ fm.a.T + fm.b
        assert (z < 0.0).any() == (negative is not None)
        np.testing.assert_array_equal(featurize_batch(fm, xs), np.maximum(z, 0.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_rows(self, sign):
        # Both the skipping (sign 1) and the clamping path.
        fm = FeatureMap(a=sign * np.ones((7, 3)), b=np.ones(7))
        assert fm.nonneg == (sign > 0)
        assert featurize_batch(fm, np.empty((0, 3))).shape == (0, 7)
        out = np.empty((0, 7))
        assert featurize_batch(fm, np.empty((0, 3)), out=out) is out

    def test_mnist_width_within_a_few_ulps(self):
        """At d = 784 the bias fold is not bitwise. OpenBLAS splits a sum of
        more than 384 terms into blocks, and it splits the folded 785-term
        sum elsewhere than the reference's 784-term one, so an entry can
        move by a few ulps (5 eps of its value at this shape). Some tiny
        shapes, such as 3 x 64 -> 7, reorder the sum too; at the shapes the
        other tests use the fold is bitwise."""
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(42)
        xs = rng.random((600, 784))
        fm = init_features(784, 300, rng)
        np.testing.assert_allclose(
            featurize_batch(fm, xs), xs @ fm.a.T + fm.b, rtol=16 * eps
        )
        # With mixed signs an entry can cancel to near 0, so its error is
        # bounded by the magnitudes of its terms instead.
        mixed = FeatureMap(a=rng.standard_normal((300, 784)), b=rng.standard_normal(300))
        ref = np.maximum(xs @ mixed.a.T + mixed.b, 0.0)
        terms = np.abs(xs) @ np.abs(mixed.a).T + np.abs(mixed.b)
        assert np.all(np.abs(featurize_batch(mixed, xs) - ref) <= 16 * eps * terms)

    def test_parameters_are_read_only_views_of_one_copy(self):
        rng = np.random.default_rng(43)
        a, b = rng.random((6, 3)), rng.random(6)
        fm = FeatureMap(a=a, b=b)
        np.testing.assert_array_equal(fm.ab, np.column_stack((a, b)))
        assert fm.a.base is fm.ab and fm.b.base is fm.ab
        a[0, 0] = -1.0  # the caller's array is not the map's
        assert fm.nonneg and fm.a[0, 0] >= 0.0
        for view in (fm.a, fm.b):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = -1.0


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

    def test_unoptimized_design_is_affine(self):
        """Inputs in [0, 1] and a, b in [0, 1) make every pre-activation
        >= 0, so the ReLU clips nothing before optimization: the design is
        affine in the inputs, of rank at most d + 1."""
        d = 8
        ds = synth_blobs(d, 30, 4, np.random.default_rng(19))
        fm = init_features(d, 40, np.random.default_rng(20))
        design = build_design(fm, ds).design
        np.testing.assert_array_equal(design, ds.inputs @ fm.a.T + fm.b)
        assert np.linalg.matrix_rank(design) <= d + 1

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


def mixed_map(d, m, rng):
    """A map with weights and offsets of both signs, so the ReLU clips."""
    return FeatureMap(a=rng.standard_normal((m, d)), b=rng.standard_normal(m))


def relu_oracle(model, xs):
    """Argmax of the class scores, every feature row formed and clamped."""
    fm = model.features
    return np.argmax(np.maximum(xs @ fm.a.T + fm.b, 0.0) @ model.w, axis=1)


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
        # A mixed-sign map, so every batch takes the blocked, featurized path.
        rng = np.random.default_rng(24)
        fm = mixed_map(3, 5, rng)
        model = ElmModel(features=fm, w=rng.standard_normal((5, 4)))
        xs = rng.random((30, 3))
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 7)
        batch = predict_batch(model, xs)
        np.testing.assert_array_equal(
            batch, [predict_batch(model, x[None, :])[0] for x in xs]
        )

    def test_batch_holds_one_feature_block(self, monkeypatch):
        """On the featurized path (a mixed-sign map) predict_batch featurizes
        into one DEFAULT_BLOCK x M buffer, so its peak stays near one block
        however many rows it is given."""
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 64)
        rng = np.random.default_rng(31)
        m = 400
        model = ElmModel(
            features=mixed_map(8, m, rng), w=rng.standard_normal((m, 10))
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

    def test_folded_head_matches_featurized_scores(self):
        # Nonnegative maps and inputs take the folded head.
        for seed in range(12):
            rng = np.random.default_rng([44, seed])
            d, m, n_classes = rng.integers(1, 9), rng.integers(1, 40), rng.integers(2, 7)
            model = ElmModel(features=init_features(d, m, rng),
                             w=rng.standard_normal((m, n_classes)))
            xs = rng.random((rng.integers(1, 60), d))
            np.testing.assert_array_equal(
                predict_batch(model, xs),
                np.argmax(featurize_batch(model.features, xs) @ model.w, axis=1),
            )

    @pytest.mark.parametrize("case", ["mixed map", "negative input"])
    def test_featurized_path_matches_relu_oracle(self, monkeypatch, case):
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 16)
        rng = np.random.default_rng(45)
        fm = mixed_map(5, 30, rng) if case == "mixed map" else init_features(5, 30, rng)
        model = ElmModel(features=fm, w=rng.standard_normal((30, 4)))
        xs = rng.random((50, 5))
        if case == "negative input":
            # One row of negative inputs, drawn until the clamp changes its
            # label: the affine head would score that row wrongly.
            z = xs[37] @ fm.a.T + fm.b
            while np.argmax(z @ model.w) == np.argmax(np.maximum(z, 0.0) @ model.w):
                xs[37] = -3.0 * rng.random(5)
                z = xs[37] @ fm.a.T + fm.b
        np.testing.assert_array_equal(predict_batch(model, xs), relu_oracle(model, xs))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_rows_and_shape_checks(self, sign):
        # Both paths: sign 1 folds the head, sign -1 featurizes.
        fm = FeatureMap(a=sign * np.ones((7, 3)), b=np.ones(7))
        model = ElmModel(features=fm, w=np.ones((7, 2)))
        empty = predict_batch(model, np.empty((0, 3)))
        assert empty.shape == (0,) and empty.dtype == np.int64
        for xs in (np.zeros((0, 4)), np.zeros((2, 4)), np.zeros(3), np.zeros((1, 1, 3))):
            with pytest.raises(DimensionMismatch):
                predict_batch(model, xs)

    def test_nan_input_keeps_its_prediction(self):
        """A NaN sends the batch down the featurized path. Its row's scores
        are all NaN, and argmax takes the first NaN: label 0. The other rows
        score as without it."""
        rng = np.random.default_rng(5)
        model = ElmModel(features=init_features(3, 6, rng),
                         w=rng.standard_normal((6, 4)))
        xs = rng.random((5, 3))
        xs[2, 1] = np.nan
        pred = predict_batch(model, xs)
        assert pred[2] == 0
        rest = [0, 1, 3, 4]
        np.testing.assert_array_equal(pred[rest], predict_batch(model, xs[rest]))

    def test_evaluate_featurizes_only_when_the_relu_can_clip(self, monkeypatch):
        """An unoptimized model is affine on [0, 1] inputs, so evaluate forms
        no feature row; a mixed-sign map featurizes every block."""
        monkeypatch.setattr(elm, "DEFAULT_BLOCK", 8)
        calls = []
        features = elm._features

        def counting(fm, xs, out=None):
            calls.append(len(xs))
            return features(fm, xs, out=out)

        monkeypatch.setattr(elm, "_features", counting)
        rng = np.random.default_rng(46)
        ds = toy_dataset(rng, d=4, count=20, n_classes=3)
        for fm, expected in ((init_features(4, 9, rng), []),
                             (mixed_map(4, 9, rng), [8, 8, 4])):
            calls.clear()
            evaluate(ElmModel(features=fm, w=rng.standard_normal((9, 3))), ds)
            assert calls == expected

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
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_rejected(self, bad):
        # A NaN input would make every loss NaN; the dataset rejects it
        # before anything is featurized.
        rng = np.random.default_rng(47)
        inputs = rng.random((20, 3))
        inputs[11, 1] = bad
        labels = rng.integers(0, 3, 20)
        fm = init_features(3, 5, rng)
        model = ElmModel(features=fm, w=rng.standard_normal((5, 3)))
        with pytest.raises(NonFinite):
            optimize_features(model, Dataset(inputs=inputs, labels=labels),
                              OptimizerConfig(learning_rate=1e-2, epochs=5))

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(28)
        fm = init_features(3, 5, rng)
        ds = toy_dataset(rng, count=8)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        out = optimize_features(model, ds, OptimizerConfig(learning_rate=0.0, epochs=3))
        np.testing.assert_array_equal(out.a, fm.a)
        np.testing.assert_array_equal(out.b, fm.b)

    @pytest.mark.parametrize(
        "field, value",
        [
            # A negative count would silently run zero epochs.
            ("epochs", -2),
            ("epochs", 2.5),
            # None of these is a step size; each is rejected before a run.
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", -1e-3),
            ("learning_rate", "0.1"),
            # JSON true is an int to Python, but no count or rate.
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
            _, ga, gb = _loss_and_grads(model.features, model.w, ds.inputs, y)

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
        out = optimize_features(model, ds, OptimizerConfig(learning_rate=0.1, epochs=5))
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
                model, ds, OptimizerConfig(learning_rate=lr, epochs=20)
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
        _, ga, gb = _loss_and_grads(fm, model.w, ds.inputs, y)
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
            model, ds, OptimizerConfig(learning_rate=1e-3, epochs=30)
        )
        after = squared_loss(ElmModel(features=out, w=model.w), ds)
        assert after < before

    def test_full_set_featurized_once_per_epoch(self, monkeypatch):
        # One full-set loss per epoch, the first being the starting loss;
        # the epochs check the loss before their step, so the last step's
        # map is scored once more at the end.
        rng = np.random.default_rng(33)
        fm = init_features(3, 5, rng)
        ds = toy_dataset(rng, count=10)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        full_set = []
        features = elm._features

        def counting(fm, xs, out=None):
            full_set.append(len(xs) == ds.count)
            return features(fm, xs, out=out)

        monkeypatch.setattr(elm, "_features", counting)
        epochs = 5
        opt = OptimizerConfig(learning_rate=1e-3, epochs=epochs)
        optimize_features(model, ds, opt)
        assert full_set == [True] * (epochs + 1)

    def test_inputs_are_not_copied(self):
        # Featurization copies one block of inputs at a time beside its ones
        # column; at MNIST's width a copy of the whole set would dominate.
        rng = np.random.default_rng(36)
        ds = toy_dataset(rng, d=784, count=4096, n_classes=10)
        model = ElmModel(features=init_features(784, 8, rng),
                         w=1e-3 * rng.standard_normal((8, 10)))
        tracemalloc.start()
        try:
            optimize_features(model, ds, OptimizerConfig(learning_rate=1e-6, epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.inputs.nbytes / 4, peak / ds.inputs.nbytes

    def test_diverged_on_huge_step(self):
        rng = np.random.default_rng(34)
        fm = init_features(3, 5, rng)
        ds = toy_dataset(rng, count=10)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        with pytest.raises(Diverged):
            optimize_features(model, ds, OptimizerConfig(learning_rate=1e4, epochs=50))

    @pytest.mark.parametrize(
        "epochs, lr, error",
        # A step to an infinite parameter, and a last step whose loss
        # overflows: neither may return the starting map as if optimized.
        [(3, 1e308, NonFinite), (1, 1e305, Diverged)],
    )
    def test_overflowing_step_raises(self, epochs, lr, error):
        rng = np.random.default_rng(0)
        fm = init_features(3, 5, rng)
        ds = Dataset(inputs=rng.random((10, 3)), labels=np.arange(10) % 2)
        model = ElmModel(features=fm, w=rng.standard_normal((5, 2)))
        with pytest.raises(error):
            optimize_features(model, ds, OptimizerConfig(learning_rate=lr, epochs=epochs))

    def test_retrain_after_optimize_is_deterministic(self):
        rng = np.random.default_rng(35)
        fm = init_features(3, 5, rng)
        ds = toy_dataset(rng, count=10)
        model = train(fm, ds, exact_pinv(build_design(fm, ds).design))
        opt = OptimizerConfig(learning_rate=1e-3, epochs=5)
        fm1 = optimize_features(model, ds, opt)
        fm2 = optimize_features(model, ds, opt)
        m1 = train(fm1, ds, exact_pinv(build_design(fm1, ds).design))
        m2 = train(fm2, ds, exact_pinv(build_design(fm2, ds).design))
        np.testing.assert_array_equal(m1.w, m2.w)
