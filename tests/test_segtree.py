import copy
import pickle
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


def scalar_descent(nodes, leaves, u):
    """One root-to-leaf walk over heap-ordered sums, a float at a time.

    The documented rule: go right iff u >= leftSum and the right subtree
    has mass. Returns the leaf and how often u >= leftSum was overruled by
    an empty right subtree.
    """
    k, overruled = 1, 0
    while k < leaves:
        left, right = nodes[2 * k], nodes[2 * k + 1]
        if u >= left and right > 0.0:
            k, u = 2 * k + 1, u - left
        else:
            overruled += u >= left
            k = 2 * k
    return k - leaves, overruled


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

    def test_dense_copy_round_trip(self):
        x = np.random.default_rng(1).standard_normal((5, 9))
        t = SegTreeMatrix(x)
        np.testing.assert_array_equal(t.dense.copy(), x)
        assert t.dense is not x  # the store owns its entries

    def test_zeros_constructor(self):
        t = SegTreeMatrix.zeros(3, 4)
        assert t.shape == (3, 4)
        assert t.fro_norm_sq() == 0.0
        assert SegTreeMatrix.zeros(np.int64(3), np.int64(4)).shape == (3, 4)

    @pytest.mark.parametrize(
        "rows, cols", [(3, 0.5), (True, 3), (3, 4.0), (np.float64(3), 4), ("3", 4)]
    )
    def test_zeros_rejects_non_integer_dimensions(self, rows, cols):
        with pytest.raises(TypeError, match="integers"):
            SegTreeMatrix.zeros(rows, cols)

    def test_rejects_bad_input(self):
        with pytest.raises(EmptyMatrix):
            SegTreeMatrix(np.zeros((0, 2)))
        for rows, cols in ((0, 5), (5, 0)):
            with pytest.raises(EmptyMatrix):
                SegTreeMatrix.zeros(rows, cols)
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
            # their parts, so after a read has refreshed the pending blocks
            # the internal arrays agree bitwise with a from-scratch build.
            np.testing.assert_array_equal(t.dense, fresh.dense)
            assert t.fro_norm_sq() == fresh.fro_norm_sq()
            np.testing.assert_array_equal(t._blocks, fresh._blocks)
            np.testing.assert_array_equal(t._root_nodes, fresh._root_nodes)
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
        # 150 columns: two full blocks and a ragged one.
        for cols in (6, 150):
            rng = np.random.default_rng(3)
            x = rng.standard_normal((8, cols))
            t = SegTreeMatrix.zeros(8, cols)
            t.set_rows(0, x[:5])
            t.set_rows(5, x[5:])
            np.testing.assert_array_equal(t.dense, x)
            np.testing.assert_allclose(t.fro_norm_sq(), np.sum(x * x), rtol=1e-12)
            # After that read, the store filled in blocks is a fresh build.
            fresh = SegTreeMatrix(x)
            np.testing.assert_array_equal(t._blocks, fresh._blocks)
            np.testing.assert_array_equal(t._root_nodes, fresh._root_nodes)
            r1 = t.sample_rows(np.random.default_rng(79), 50)
            np.testing.assert_array_equal(
                r1, fresh.sample_rows(np.random.default_rng(79), 50)
            )
            np.testing.assert_array_equal(
                t.sample_cols_in_rows(r1, np.random.default_rng(80)),
                fresh.sample_cols_in_rows(r1, np.random.default_rng(80)),
            )

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


class TestIndexValidation:
    """One index check at every reader and writer: a non-integer index, or
    an index array with other than one axis, is a TypeError and is never
    truncated or broadcast; an out-of-range one is IndexOutOfRange."""

    def calls(self, t, rng):
        return {
            "get": lambda i, j: t.get(i, j),
            "update": lambda i, j: t.update(i, j, 1.0),
            "row_norm_sq": lambda i, j: t.row_norm_sq(i),
            "sample_cols_in_rows": lambda i, j: t.sample_cols_in_rows(np.array([i]), rng),
            "sample_cols_in_rows (scalar)": lambda i, j: t.sample_cols_in_rows(i, rng),
            "set_rows": lambda i, j: t.set_rows(i, np.ones((1, 3))),
        }

    def test_each_method(self):
        t = SegTreeMatrix(np.ones((2, 3)))
        for name, call in self.calls(t, np.random.default_rng(0)).items():
            for i, j in (
                (1.7, 0), (1.0, 0), (np.float64(1.0), 0), (True, 0), (False, 0),
            ):
                with pytest.raises(TypeError):
                    call(i, j)
            for i, j in ((2, 0), (-1, 0)):
                with pytest.raises(IndexOutOfRange):
                    call(i, j)
            # An index array has one axis; a 2-D one is never broadcast.
            with pytest.raises(TypeError):
                call(np.array([[0, 1]]), 0)
            call(np.int64(1), np.int32(2))
            call(1, 2)
            if name in ("get", "update"):
                # One entry per call: an index array is rejected, not broadcast.
                with pytest.raises(TypeError):
                    call(np.array([1]), 0)
                for j in (2.5, True, np.array([1])):
                    with pytest.raises(TypeError):
                        call(0, j)
                for j in (3, -1):
                    with pytest.raises(IndexOutOfRange):
                        call(0, j)
        with pytest.raises(TypeError):
            t.row_norm_sq(np.array([0, 1.0]))
        with pytest.raises(TypeError):
            t.sample_cols_in_rows(np.array([True]), np.random.default_rng(0))
        with pytest.raises(IndexOutOfRange):
            t.row_norm_sq(np.array([0, 2]))
        assert t.row_norm_sq([]).shape == (0,)

    def test_rejected_update_changes_nothing(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((13, 150))
        t = SegTreeMatrix(x)
        # A pending update before the rejected ones.
        t.update(4, 70, 2.0)
        x[4, 70] = 2.0
        stale, stale_rows = t._stale.copy(), t._stale_rows.copy()
        bad = (
            (1.5, 0, 1.0, TypeError), (0, 2.5, 1.0, TypeError),
            (True, 0, 1.0, TypeError), (0, False, 1.0, TypeError),
            (13, 0, 1.0, IndexOutOfRange), (0, 150, 1.0, IndexOutOfRange),
            (3, 5, np.nan, NonFinite), (3, 5, 1e400, NonFinite),
            (3, 5, -np.inf, NonFinite),
        )
        for i, j, v, error in bad:
            # Rejected at the call, not at the next read.
            with pytest.raises(error):
                t.update(i, j, v)
        np.testing.assert_array_equal(t.dense, x)
        np.testing.assert_array_equal(t._stale, stale)
        np.testing.assert_array_equal(t._stale_rows, stale_rows)
        fresh = SegTreeMatrix(x)
        assert t.fro_norm_sq() == fresh.fro_norm_sq()
        np.testing.assert_array_equal(t._blocks, fresh._blocks)
        np.testing.assert_array_equal(t._root_nodes, fresh._root_nodes)


class TestCopy:
    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)),
    ], ids=["deepcopy", "pickle"])
    def test_copy_with_pending_updates(self, clone):
        """A copy reads as a fresh build, and its writes reach only its own
        entries: the original's dense and total do not move."""
        rng = np.random.default_rng(27)
        x = rng.standard_normal((13, 150))
        t = SegTreeMatrix(x)
        for _ in range(20):
            i, j = int(rng.integers(13)), int(rng.integers(150))
            x[i, j] = float(rng.standard_normal())
            t.update(i, j, x[i, j])
        c = clone(t)
        fresh = SegTreeMatrix(x)
        assert c.fro_norm_sq() == fresh.fro_norm_sq()
        np.testing.assert_array_equal(c.dense, x)
        np.testing.assert_array_equal(c._blocks, fresh._blocks)
        np.testing.assert_array_equal(c._root_nodes, fresh._root_nodes)
        before = t.dense.copy()
        c.update(3, 100, 1e3)
        assert c.get(3, 100) == 1e3
        np.testing.assert_array_equal(t.dense, before)
        assert t.fro_norm_sq() == fresh.fro_norm_sq()


class TestOverflow:
    """Entries whose squares overflow are NonFinite errors: at set_rows and
    update when the overflow is in their own sums, and at every read of the
    sampling state when it is in a row total or the Frobenius total."""

    BIG = 1e200  # finite, but its square is not

    def snapshot(self, t):
        return [a.copy() for a in (t.dense, t._blocks, t._root_nodes, t._stale, t._stale_rows)]

    def assert_unchanged(self, t, before):
        for a, b in zip(self.snapshot(t), before):
            np.testing.assert_array_equal(a, b)

    def reads(self, t):
        rng = np.random.default_rng(0)
        return (
            t.fro_norm_sq,
            lambda: t.row_norm_sq(0),
            lambda: t.sample_rows(rng, 4),
            lambda: t.sample_cols_in_rows(np.array([1]), rng),
        )

    def test_constructor_rejects_overflowing_squares(self):
        for x in ([[self.BIG, 1.0]], [[1.0], [-self.BIG]], [[np.nan, 1.0]]):
            with pytest.raises(NonFinite):
                SegTreeMatrix(x)

    def test_rejected_set_rows_changes_nothing(self):
        rng = np.random.default_rng(36)
        t = SegTreeMatrix(rng.standard_normal((6, 150)))
        t.update(2, 70, 4.0)  # pending
        t.set_rows(0, rng.standard_normal((2, 150)))  # a pending row write
        before = self.snapshot(t)
        # An entry square that overflows; NaN and Inf; two blocks with finite
        # sums (1e308 each) whose row total overflows.
        bad = [np.ones((2, 150)) for _ in range(4)]
        bad[0][1, 140] = self.BIG
        bad[1][0, 3] = np.nan
        bad[2][1, 149] = -np.inf
        bad[3][0, [0, 64]] = 1e154
        for block in bad:
            with pytest.raises(NonFinite):
                t.set_rows(3, block)
            self.assert_unchanged(t, before)
        for width in (149, 151):  # a block of the wrong width
            with pytest.raises(IndexOutOfRange):
                t.set_rows(3, np.ones((2, width)))
            self.assert_unchanged(t, before)
        x = t.dense.copy()
        fresh = SegTreeMatrix(x)
        assert t.fro_norm_sq() == fresh.fro_norm_sq()
        np.testing.assert_array_equal(t._root_nodes, fresh._root_nodes)

    def test_update_rejects_overflowing_square(self):
        t = SegTreeMatrix(np.ones((2, 3)))
        before = self.snapshot(t)
        for v in (self.BIG, -self.BIG, 1.5e154):
            with pytest.raises(NonFinite):
                t.update(0, 1, v)
        self.assert_unchanged(t, before)
        t.update(0, 1, 1e154)  # its square, 1e308, is finite
        assert t.row_norm_sq(0) == 1e308

    def test_reads_reject_an_overflowing_block_sum(self):
        """Each update is accepted, but two squares of 1e308 in one block sum
        to inf: every read raises, until an update brings the sum back."""
        t = SegTreeMatrix(np.ones((3, 70)))
        t.update(1, 0, 1e154)
        t.update(1, 5, 1e154)
        for read in self.reads(t):
            with pytest.raises(NonFinite):
                read()
        t.update(1, 5, 2.0)
        x = np.ones((3, 70))
        x[1, 0], x[1, 5] = 1e154, 2.0
        fresh = SegTreeMatrix(x)
        assert t.fro_norm_sq() == fresh.fro_norm_sq()
        np.testing.assert_array_equal(t._root_nodes, fresh._root_nodes)
        t.sample_rows(np.random.default_rng(1), 4)

    def test_reads_reject_an_overflowing_total(self):
        """Rows whose totals are finite but whose sum is not are accepted,
        and every read of the sampling state then raises."""
        t = SegTreeMatrix([[1e154, 0.0], [0.0, 1e154], [1.0, 1.0]])
        assert t.get(0, 0) == 1e154
        for read in self.reads(t):
            with pytest.raises(NonFinite):
                read()
        t.set_rows(1, [[0.0, 1.0]])
        assert t.fro_norm_sq() == 1e308


class TestInterleaving:
    """Seeded runs of update, set_rows and reads; after every read the store
    equals a fresh build of the same entries, and draws the same samples."""

    def check_equals_fresh(self, t, x, seed):
        fresh = SegTreeMatrix(x)
        read = seed % 4
        if read == 0:
            t.fro_norm_sq()
        elif read == 1:
            t.row_norm_sq(seed % t.rows)
        elif read == 2 and fresh.fro_norm_sq() > 0.0:
            t.sample_rows(np.random.default_rng(seed), 8)
        else:
            t.row_norm_sq(np.arange(t.rows))
        np.testing.assert_array_equal(t.dense, x)
        np.testing.assert_array_equal(t._blocks, fresh._blocks)
        np.testing.assert_array_equal(t._root_nodes, fresh._root_nodes)
        if fresh.fro_norm_sq() == 0.0:
            with pytest.raises(ZeroMatrix):
                t.sample_rows(np.random.default_rng(seed), 8)
            return
        rows = t.sample_rows(np.random.default_rng(seed), 64)
        np.testing.assert_array_equal(
            rows, fresh.sample_rows(np.random.default_rng(seed), 64)
        )
        np.testing.assert_array_equal(
            t.sample_cols_in_rows(rows, np.random.default_rng(seed + 1)),
            fresh.sample_cols_in_rows(rows, np.random.default_rng(seed + 1)),
        )

    def run(self, t, x, seed, steps=300):
        rng = np.random.default_rng(seed)
        rows, cols = x.shape
        for step in range(steps):
            op = rng.random()
            if op < 0.7:
                i, j = int(rng.integers(rows)), int(rng.integers(cols))
                v = 0.0 if rng.random() < 0.3 else float(rng.standard_normal())
                t.update(i, j, v)
                x[i, j] = v
            elif op < 0.8:
                # Pending updates, then set_rows over the same rows.
                start = int(rng.integers(rows))
                stop = int(rng.integers(start, rows)) + 1
                for _ in range(5):
                    t.update(int(rng.integers(start, stop)), int(rng.integers(cols)), 3.0)
                block = rng.standard_normal((stop - start, cols))
                t.set_rows(start, block)
                x[start:stop] = block
            elif op < 0.85:
                # Zero writes that clear a whole row.
                i = int(rng.integers(rows))
                for j in range(cols):
                    t.update(i, j, 0.0)
                x[i] = 0.0
                with pytest.raises(ZeroRow):
                    t.sample_cols_in_rows(np.array([i]), np.random.default_rng(step))
                self.check_equals_fresh(t, x, step)
            else:
                self.check_equals_fresh(t, x, step)
        self.check_equals_fresh(t, x, steps)

    @pytest.mark.parametrize("shape", [(13, 21), (13, 150), (5, 64), (1, 1)])
    def test_matches_fresh_build(self, shape):
        x = np.random.default_rng(21).standard_normal(shape)
        x[:, 64:128] = 0.0
        self.run(SegTreeMatrix(x), x, seed=22)

    def test_zeros_store_filled_by_updates(self):
        x = np.zeros((9, 130))
        t = SegTreeMatrix.zeros(9, 130)
        self.check_equals_fresh(t, x, 0)
        rng = np.random.default_rng(23)
        for _ in range(200):
            i, j = int(rng.integers(9)), int(rng.integers(130))
            v = float(rng.standard_normal())
            t.update(i, j, v)
            x[i, j] = v
        self.run(t, x, seed=24)


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

    @pytest.mark.parametrize("rows", [1, 5, 13, 100, 1000])
    def test_matches_scalar_descent(self, rows):
        """Seeded draws equal a scalar walk of the same root tree, zero rows
        and a row count that is not a power of two included."""
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, 3)) * rng.lognormal(0.0, 2.0, (rows, 1))
        x[rng.random(rows) < 0.3] = 0.0
        x[-1] = 1.0
        t = SegTreeMatrix(x)
        drawn = t.sample_rows(np.random.default_rng(31), 2000)
        u = np.random.default_rng(31).random(2000) * t.fro_norm_sq()
        expected = [scalar_descent(t._root_nodes, t._rpad, ui)[0] for ui in u]
        np.testing.assert_array_equal(drawn, expected)
        assert np.all(t.row_norm_sq(drawn) > 0.0)

    def test_top_of_range_skips_zero_right_subtree(self):
        """Rounding can leave u >= leftSum where the right subtree is empty.
        The walk goes left there, onto the last row with mass, not onto the
        zero row beside it. The squares of these entries are exact, and the
        row sums round so that this happens at the node over rows 2 and 3."""
        x = np.array([[2711424.0], [4.989662170410156], [4235572.0], [0.0]])
        t = SegTreeMatrix(x)
        u = np.nextafter(1.0, 0.0) * t.fro_norm_sq()
        row, overruled = scalar_descent(t._root_nodes, t._rpad, u)
        assert (row, overruled) == (2, 1)
        np.testing.assert_array_equal(t.sample_rows(TopOfRange(), 3), [2, 2, 2])

    def test_scalar_matches_batch(self):
        t = SegTreeMatrix(np.random.default_rng(6).random((10, 4)) + 0.1)
        batch = t.sample_rows(np.random.default_rng(9), 1)
        longer = t.sample_rows(np.random.default_rng(9), 5)
        assert batch.shape == (1,) and batch[0] == longer[0]

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

    def test_mixed_full_and_ragged_batch_matches_oracle(self):
        """One batch whose draws land in full blocks and in the ragged last
        block equals the inverse CDF over each row's squared entries."""
        rng = np.random.default_rng(32)
        x = rng.standard_normal((40, 150))
        x[x < -1.0] = 0.0
        x[:, 64:128] = 0.0
        # Rows whose mass sits mostly in the ragged block, the rest mostly
        # in the first block.
        x[::2, 128:] *= 30.0
        t = SegTreeMatrix(x)
        rows = np.repeat(np.arange(40), 50)
        cols = t.sample_cols_in_rows(rows, np.random.default_rng(33))
        assert np.any(cols < 64) and np.any(cols >= 128)
        assert not np.any((cols >= 64) & (cols < 128))
        u = np.random.default_rng(33).random(rows.size) * t.row_norm_sq(rows)
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
        single = t.sample_cols_in_rows(2, np.random.default_rng(13))
        assert single.shape == (1,) and single[0] == batch[0]

    def test_zero_row_rejected(self):
        t = SegTreeMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ZeroRow):
            t.sample_cols_in_rows(np.array([1]), np.random.default_rng(0))
        with pytest.raises(ZeroRow):
            t.sample_cols_in_rows(
                np.array([0, 1], dtype=np.int64), np.random.default_rng(0)
            )

    def test_row_index_validated(self):
        t = SegTreeMatrix(np.eye(2))
        with pytest.raises(IndexOutOfRange):
            t.sample_cols_in_rows(np.array([4]), np.random.default_rng(0))


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

    def test_row_draw_memory_per_draw(self):
        """A row draw keeps its uniform, its node index, the two child sums
        and two masks: about 34 bytes per draw, with no per-level copies."""
        t = SegTreeMatrix(np.random.default_rng(34).standard_normal((2048, 64)))
        n = 400_000
        tracemalloc.start()
        try:
            rows = t.sample_rows(np.random.default_rng(35), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (n,)
        assert peak <= 40 * n, peak / n

    def test_pending_updates_are_bounded_by_shape(self):
        """Updates with no read in between keep at most one flag per block
        and one per row, allocated with the store."""
        rows, cols, n = 512, 4096, 100_000
        t = SegTreeMatrix(np.random.default_rng(25).standard_normal((rows, cols)))
        rng = np.random.default_rng(26)
        ii = rng.integers(0, rows, n).tolist()
        jj = rng.integers(0, cols, n).tolist()
        vv = rng.standard_normal(n).tolist()
        tracemalloc.start()
        try:
            for i, j, v in zip(ii, jj, vv):
                t.update(i, j, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows * -(-cols // 64) + 4096, peak


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
