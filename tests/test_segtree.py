import time
import tracemalloc

import numpy as np
import pytest

from sketchlearn.errors import (
    EmptyMatrix,
    IndexOutOfRange,
    NonFinite,
    ZeroMatrix,
    ZeroRow,
)
from sketchlearn.segtree import SegTreeMatrix

from oracles import col_mixture_probs, row_sampling_probs, tv_distance


class TopOfRange:
    """Stands in for a Generator: every uniform is the largest float below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def empirical(indices, size):
    return np.bincount(indices, minlength=size) / len(indices)


class TestBuild:
    def test_hand_example(self):
        t = SegTreeMatrix(np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert t.fro_norm_sq() == 25.0
        np.testing.assert_allclose(t.row_norm_sq(np.arange(2)), [25.0, 0.0])

    def test_identity(self):
        t = SegTreeMatrix(np.eye(2))
        assert t.fro_norm_sq() == 2.0
        assert t.row_norm_sq(0) == 1.0
        assert t.get(0, 1) == 0.0
        assert t.get(1, 1) == 1.0

    def test_non_power_of_two_shape(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 70))
        t = SegTreeMatrix(x)
        assert t.shape == (50, 70)
        np.testing.assert_allclose(
            t.fro_norm_sq(), np.sum(x * x), rtol=1e-12
        )
        np.testing.assert_allclose(
            t.row_norm_sq(np.arange(50)), np.sum(x * x, axis=1), rtol=1e-12
        )

    def test_to_dense_round_trip(self):
        x = np.random.default_rng(1).standard_normal((5, 9))
        t = SegTreeMatrix(x)
        np.testing.assert_array_equal(t.to_dense(), x)
        assert t.to_dense() is not t.dense  # defensive copy

    def test_zeros_constructor(self):
        t = SegTreeMatrix.zeros(3, 4)
        assert t.shape == (3, 4)
        assert t.fro_norm_sq() == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(EmptyMatrix):
            SegTreeMatrix(np.zeros((0, 2)))
        with pytest.raises(NonFinite):
            SegTreeMatrix(np.array([[np.inf, 1.0]]))


class TestUpdate:
    def test_single_update(self):
        t = SegTreeMatrix.zeros(2, 2)
        t.update(0, 0, 3.0)
        assert t.get(0, 0) == 3.0
        assert t.row_norm_sq(0) == 9.0
        assert t.fro_norm_sq() == 9.0

    def test_overwrite_semantics(self):
        t = SegTreeMatrix.zeros(2, 2)
        t.update(0, 1, 3.0)
        t.update(0, 1, 5.0)
        assert t.get(0, 1) == 5.0
        assert t.fro_norm_sq() == 25.0

    def test_updates_match_rebuild_exactly(self):
        # 21 columns: one ragged block. 150 columns: two full blocks and a
        # ragged one; the second block starts all zero, and zeros are
        # written as well as cleared.
        for cols, updates in ((21, 100), (150, 400)):
            rng = np.random.default_rng(2)
            x = rng.standard_normal((13, cols))
            x[:, 64:128] = 0.0
            t = SegTreeMatrix(x)
            for n in range(updates):
                i = int(rng.integers(13))
                j = int(rng.integers(cols))
                v = float(rng.standard_normal())
                if cols > 64 and n % 3 == 0:
                    v = 0.0
                x[i, j] = v
                t.update(i, j, v)
            fresh = SegTreeMatrix(x)
            # Block sums, row totals and parents are always recomputed from
            # their parts, so the internal arrays agree bitwise with a
            # from-scratch build.
            np.testing.assert_array_equal(t.to_dense(), fresh.to_dense())
            np.testing.assert_array_equal(t._blocks, fresh._blocks)
            assert t.fro_norm_sq() == fresh.fro_norm_sq()
            np.testing.assert_array_equal(
                t.row_norm_sq(np.arange(13)), fresh.row_norm_sq(np.arange(13))
            )
            r1 = t.sample_rows(np.random.default_rng(77), 200)
            r2 = fresh.sample_rows(np.random.default_rng(77), 200)
            np.testing.assert_array_equal(r1, r2)
            c1 = t.sample_cols_in_rows(r1, np.random.default_rng(78))
            c2 = fresh.sample_cols_in_rows(r2, np.random.default_rng(78))
            np.testing.assert_array_equal(c1, c2)

    def test_set_rows_block(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 6))
        t = SegTreeMatrix.zeros(8, 6)
        t.set_rows(0, x[:5])
        t.set_rows(5, x[5:])
        np.testing.assert_array_equal(t.to_dense(), x)
        np.testing.assert_allclose(t.fro_norm_sq(), np.sum(x * x), rtol=1e-12)

    def test_bounds_and_values(self):
        t = SegTreeMatrix(np.ones((2, 2)))
        with pytest.raises(IndexOutOfRange):
            t.update(2, 0, 1.0)
        with pytest.raises(IndexOutOfRange):
            t.update(0, -1, 1.0)
        with pytest.raises(IndexOutOfRange):
            t.get(0, 2)
        with pytest.raises(IndexOutOfRange):
            t.row_norm_sq(5)
        with pytest.raises(NonFinite):
            t.update(0, 0, np.nan)


class TestRowSampling:
    def test_deterministic_single_row(self):
        t = SegTreeMatrix(np.array([[3.0, 4.0], [0.0, 0.0]]))
        rows = t.sample_rows(np.random.default_rng(0), 1000)
        assert np.all(rows == 0)

    def test_identity_is_fair_coin(self):
        t = SegTreeMatrix(np.eye(2))
        rows = t.sample_rows(np.random.default_rng(1), 100_000)
        ones = int(np.sum(rows))
        # binomial(1e5, 0.5): 3-sigma band is about +/- 474
        assert abs(ones - 50_000) < 500

    def test_row_law_total_variation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((64, 32))
        t = SegTreeMatrix(x)
        rows = t.sample_rows(np.random.default_rng(5), 100_000)
        assert tv_distance(empirical(rows, 64), row_sampling_probs(x)) <= 0.02

    def test_scalar_matches_batch(self):
        t = SegTreeMatrix(np.random.default_rng(6).random((10, 4)) + 0.1)
        batch = t.sample_rows(np.random.default_rng(9), 1)
        single = t.sample_row(np.random.default_rng(9))
        assert single == batch[0]

    def test_empty_draw(self):
        t = SegTreeMatrix(np.eye(2))
        assert t.sample_rows(np.random.default_rng(0), 0).shape == (0,)

    def test_zero_matrix_rejected(self):
        t = SegTreeMatrix.zeros(3, 3)
        with pytest.raises(ZeroMatrix):
            t.sample_rows(np.random.default_rng(0), 1)


class TestColumnSampling:
    def test_deterministic_single_column(self):
        # A single nonzero entry at the end or start of a full block, or in
        # a ragged last block, beside all-zero blocks.
        cases = ((3, 1), (63, 62), (64, 0), (65, 64), (130, 63), (130, 129))
        for cols, hot in cases:
            row = np.zeros((1, cols))
            row[0, hot] = 5.0
            t = SegTreeMatrix(row)
            drawn = t.sample_cols_in_rows(
                np.zeros(100, dtype=np.int64), np.random.default_rng(0)
            )
            assert np.all(drawn == hot), (cols, hot)

    def test_two_entry_split(self):
        t = SegTreeMatrix(np.array([[1.0, 1.0]]))
        cols = t.sample_cols_in_rows(
            np.zeros(100_000, dtype=np.int64), np.random.default_rng(1)
        )
        assert abs(int(np.sum(cols)) - 50_000) < 500

    def test_in_row_law_total_variation(self):
        for cols in (128, 1, 63, 64, 65, 130):
            rng = np.random.default_rng(8)
            x = rng.standard_normal((1, cols))
            if cols != 128:
                # Zero entries, and a block of 64 that is all zero (the
                # ragged last block at 65 columns, a middle one at 130).
                x[0, 1::3] = 0.0
                x[0, 64:128] = 0.0
            t = SegTreeMatrix(x)
            drawn = t.sample_cols_in_rows(
                np.zeros(100_000, dtype=np.int64), np.random.default_rng(9)
            )
            law = x[0] ** 2 / np.sum(x[0] ** 2)
            assert tv_distance(empirical(drawn, cols), law) <= 0.02, cols
            assert np.all(x[0, drawn] != 0.0), cols

    @pytest.mark.parametrize("shape", [(13, 150), (7, 4096)])
    def test_matches_inverse_cdf_oracle(self, shape):
        """Seeded draws equal the inverse CDF over each row's squared entries."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal(shape)
        x[x < -1.0] = 0.0
        x[:, 64:128] = 0.0
        t = SegTreeMatrix(x)
        rows = t.sample_rows(np.random.default_rng(17), 5000)
        cols = t.sample_cols_in_rows(rows, np.random.default_rng(18))
        u = np.random.default_rng(18).random(rows.size) * t.row_norm_sq(rows)
        expected = [
            np.searchsorted(np.cumsum(x[r] ** 2), ur, "right")
            for r, ur in zip(rows, u)
        ]
        np.testing.assert_array_equal(cols, expected)

    def test_top_of_range_draws_last_entry_with_mass(self):
        """A uniform just below the row total, however the running sums
        round, lands on the row's last nonzero entry: never on a zero entry
        or past the end of the row."""
        rng = np.random.default_rng(19)
        for cols in (65, 104, 130):
            # Most of the mass in the last blocks, so that the block's own
            # running sum often ends below the u left for it; zero tails on
            # every other row.
            x = rng.standard_normal((2000, cols))
            x[:, :64] *= 1e-3
            x[1::2, cols - 3 :] = 0.0
            t = SegTreeMatrix(x)
            drawn = t.sample_cols_in_rows(np.arange(2000), TopOfRange())
            last = [np.flatnonzero(row)[-1] for row in x]
            np.testing.assert_array_equal(drawn, last)

    def test_mixture_law_total_variation(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((16, 16))
        t = SegTreeMatrix(x)
        sampler = np.random.default_rng(11)
        rows = t.sample_rows(sampler, 64)
        picks = sampler.integers(0, 64, 100_000)
        cols = t.sample_cols_in_rows(rows[picks], sampler)
        g = col_mixture_probs(x, rows)
        assert tv_distance(empirical(cols, 16), g) <= 0.02

    def test_scalar_matches_batch(self):
        t = SegTreeMatrix(np.random.default_rng(12).random((4, 10)) + 0.1)
        batch = t.sample_cols_in_rows(
            np.array([2], dtype=np.int64), np.random.default_rng(13)
        )
        single = t.sample_col_in_row(2, np.random.default_rng(13))
        assert single == batch[0]

    def test_zero_row_rejected(self):
        t = SegTreeMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ZeroRow):
            t.sample_col_in_row(1, np.random.default_rng(0))
        with pytest.raises(ZeroRow):
            t.sample_cols_in_rows(
                np.array([0, 1], dtype=np.int64), np.random.default_rng(0)
            )

    def test_row_index_validated(self):
        t = SegTreeMatrix(np.eye(2))
        with pytest.raises(IndexOutOfRange):
            t.sample_col_in_row(4, np.random.default_rng(0))


class TestStoreSize:
    def test_store_is_data_plus_block_sums(self):
        """Beside the entries, the store keeps 1/64 of the data and O(rows)."""
        rows, cols = 512, 4096
        x = np.random.default_rng(15).standard_normal((rows, cols))
        tracemalloc.start()
        try:
            t = SegTreeMatrix(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.fro_norm_sq() > 0.0
        assert peak <= 1.05 * x.nbytes + 64 * rows, peak / x.nbytes


class TestScaling:
    def test_sample_cost_grows_logarithmically(self):
        """Per-draw cost should scale like tree depth, not row count."""
        draws = 100_000
        times = {}
        for rows in (2**10, 2**20):
            x = np.full((rows, 2), 1.0)
            t = SegTreeMatrix(x)
            rng = np.random.default_rng(14)
            best = np.inf
            for _ in range(3):
                start = time.perf_counter()
                t.sample_rows(rng, draws)
                best = min(best, time.perf_counter() - start)
            times[rows] = best
        # 1024x more rows is only 2x more tree depth; allow generous slack.
        assert times[2**20] <= 4.0 * times[2**10] + 0.05
