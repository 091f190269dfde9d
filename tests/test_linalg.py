import warnings

import numpy as np
import pytest

from sketchlearn.errors import (
    AllSingularValuesFiltered,
    DimensionMismatch,
    EmptyMatrix,
    NonFinite,
)
from sketchlearn.linalg import (
    LowRankFactors,
    apply_factors,
    svd_dense,
    truncated_pinv,
    usable_rank,
)

from oracles import eig_sym_jacobi, pinv_apply_ridge, singular_values_via_gram


def materialize(f):
    return (f.u * f.sigma) @ f.v.T


class TestOracleSelfCheck:
    def test_eig_jacobi_agrees_with_lapack(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((9, 9))
        s = a + a.T
        w, v = eig_sym_jacobi(s)
        w_ref = np.linalg.eigvalsh(s)[::-1]
        np.testing.assert_allclose(w, w_ref, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(9), atol=1e-10)
        np.testing.assert_allclose((v * w) @ v.T, s, atol=1e-9)


class TestSvdDense:
    def test_identity(self):
        res = svd_dense(np.eye(3))
        np.testing.assert_allclose(res.sigma, np.ones(3))
        np.testing.assert_allclose(np.abs(res.u), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.abs(res.v), np.eye(3), atol=1e-12)

    def test_diagonal_sorted(self):
        res = svd_dense(np.diag([3.0, 4.0]))
        np.testing.assert_allclose(res.sigma, [4.0, 3.0])
        # axis-aligned singular vectors, permuted to match the sort
        np.testing.assert_allclose(np.abs(res.u), [[0, 1], [1, 0]], atol=1e-12)
        np.testing.assert_allclose(np.abs(res.v), [[0, 1], [1, 0]], atol=1e-12)

    def test_sigma_matches_gram_eigen_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 5))
        res = svd_dense(a)
        np.testing.assert_allclose(
            res.sigma, singular_values_via_gram(a), rtol=1e-8
        )

    @pytest.mark.parametrize("shape", [(6, 6), (9, 4), (4, 9), (1, 5), (5, 1)])
    def test_reconstruction_and_orthonormality(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = rng.standard_normal(shape)
        res = svd_dense(a)
        r = min(shape)
        assert res.u.shape == (shape[0], r)
        assert res.v.shape == (shape[1], r)
        assert np.all(np.diff(res.sigma) <= 1e-12)
        assert np.all(res.sigma >= 0)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(r), atol=1e-8)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(r), atol=1e-8)
        rec = res.u @ np.diag(res.sigma) @ res.v.T
        assert np.linalg.norm(rec - a) <= 1e-8 * np.linalg.norm(a)

    def test_rank_deficient_keeps_orthonormal_basis(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 6))
        res = svd_dense(a)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(6), atol=1e-8)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(6), atol=1e-8)
        rec = res.u @ np.diag(res.sigma) @ res.v.T
        assert np.linalg.norm(rec - a) <= 1e-8 * np.linalg.norm(a)

    def test_large_rank_deficient_collapses_many_columns(self):
        # Rank 3 out of 60: 57 singular values must come out at roundoff
        # level while U keeps all 60 columns orthonormal.
        rng = np.random.default_rng(17)
        a = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 60))
        res = svd_dense(a)
        assert np.all(res.sigma >= 0)
        assert np.all(res.sigma[3:] <= 1e-8 * res.sigma[0])
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(60), atol=1e-8)
        rec = res.u @ np.diag(res.sigma) @ res.v.T
        assert np.linalg.norm(rec - a) <= 1e-8 * np.linalg.norm(a)

    @pytest.mark.parametrize("seed", range(4))
    def test_sketch_like_core_converges(self, seed):
        # A rank-5 core whose rows and columns are drawn with replacement,
        # as in a norm-sampled sketch, with 45 roundoff-level singular
        # values. Warnings are errors and underflow warns, so an SVD that
        # underflows or warns on such a core fails the test.
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((50, 5)) @ rng.standard_normal((5, 50))
        a = base[rng.integers(0, 50, 50)][:, rng.integers(0, 50, 50)]
        with warnings.catch_warnings(), np.errstate(under="warn"):
            warnings.simplefilter("error")
            res = svd_dense(a)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(50), atol=1e-8)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(50), atol=1e-8)
        assert np.all(res.sigma[5:] <= 1e-8 * res.sigma[0])
        rec = res.u @ np.diag(res.sigma) @ res.v.T
        assert np.linalg.norm(rec - a) <= 1e-8 * np.linalg.norm(a)

    def test_zero_matrix(self):
        res = svd_dense(np.zeros((4, 3)))
        np.testing.assert_allclose(res.sigma, np.zeros(3))
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(3), atol=1e-12)

    def test_deterministic(self):
        a = np.random.default_rng(0).standard_normal((6, 4))
        r1 = svd_dense(a)
        r2 = svd_dense(a)
        assert np.array_equal(r1.sigma, r2.sigma)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.v, r2.v)

    def test_lapack_and_jacobi_agree(self):
        # LAPACK's singular values against the two-sided Jacobi oracle.
        a = np.random.default_rng(11).standard_normal((10, 7))
        sl = svd_dense(a).sigma
        sj = singular_values_via_gram(a)
        np.testing.assert_allclose(sl, sj, rtol=1e-10, atol=1e-12)

    def test_default_handles_large_matrix(self):
        a = np.random.default_rng(1).standard_normal((200, 150))
        res = svd_dense(a)
        rec = res.u @ np.diag(res.sigma) @ res.v.T
        assert np.linalg.norm(rec - a) <= 1e-8 * np.linalg.norm(a)

    def test_default_is_lapack(self):
        a = np.random.default_rng(19).standard_normal((50, 50))
        res = svd_dense(a)
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
        assert np.array_equal(res.sigma, sigma)
        assert np.array_equal(res.u, u)
        assert np.array_equal(res.v, vt.T)

    def test_errors(self):
        with pytest.raises(EmptyMatrix):
            svd_dense(np.zeros((0, 3)))
        with pytest.raises(NonFinite):
            svd_dense(np.array([[1.0, np.nan]]))
        with pytest.raises(DimensionMismatch):
            svd_dense(np.zeros(4))


class TestTruncatedPinv:
    def test_identity_rank2(self):
        f = truncated_pinv(svd_dense(np.eye(3)), 2)
        assert f.k == 2
        np.testing.assert_allclose(f.sigma, [1.0, 1.0])
        assert not f.reduced

    def test_rcond_drops_tiny_value(self):
        src = LowRankFactors(
            sigma=np.array([4.0, 3.0, 1e-20]),
            u=np.eye(3),
            v=np.eye(3),
        )
        assert usable_rank(src) == 2
        f = truncated_pinv(src, 3)
        assert f.k == 2
        assert f.reduced
        np.testing.assert_allclose(f.sigma, [0.25, 1.0 / 3.0])

    def test_roles_swap(self):
        a = np.random.default_rng(5).standard_normal((6, 4))
        f = truncated_pinv(svd_dense(a), 4)
        assert f.u.shape == (4, 4)  # maps codomain R^6 back to domain R^4
        assert f.v.shape == (6, 4)

    def test_projection_matches_ridge_oracle(self):
        rng = np.random.default_rng(9)
        # Controlled spectrum keeps the oracle's tiny ridge term negligible.
        qu, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        qv, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = (qu * np.array([3.0, 2.0, 1.5, 1.0])) @ qv.T
        f = truncated_pinv(svd_dense(a), 4)
        for _ in range(5):
            y = rng.standard_normal(6)
            np.testing.assert_allclose(
                apply_factors(f, y), pinv_apply_ridge(a, y), atol=1e-6
            )

    @pytest.mark.parametrize("shape", [(5, 5), (16, 9), (7, 16)])
    def test_moore_penrose_identity(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape)
        f = truncated_pinv(svd_dense(a), min(shape))
        pinv = materialize(f)
        assert np.linalg.norm(a @ pinv @ a - a) <= 1e-6 * np.linalg.norm(a)

    def test_all_filtered(self):
        with pytest.raises(AllSingularValuesFiltered):
            truncated_pinv(svd_dense(np.zeros((3, 3))), 2)

    def test_validation(self):
        res = svd_dense(np.eye(2))
        with pytest.raises(ValueError):
            truncated_pinv(res, 0)

    @pytest.mark.parametrize("k", [True, 2.0])
    def test_rank_must_be_an_integer(self, k):
        """A bool is no rank and a float is never truncated to one."""
        res = svd_dense(np.eye(2))
        with pytest.raises(ValueError, match="rank must be >= 1 and an integer"):
            truncated_pinv(res, k)
        assert truncated_pinv(res, np.int64(2)).sigma.size == 2


class TestApplyFactors:
    def test_identity_factors(self):
        f = truncated_pinv(svd_dense(np.eye(4)), 4)
        y = np.arange(4.0)
        np.testing.assert_allclose(apply_factors(f, y), y, atol=1e-12)

    def test_rank_one_hand_case(self):
        f = LowRankFactors(
            sigma=np.array([2.0]),
            u=np.array([[1.0], [0.0], [0.0]]),
            v=np.array([[0.0], [1.0]]),
        )
        out = apply_factors(f, np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0])

    def test_matches_dense_materialization(self):
        rng = np.random.default_rng(13)
        f = LowRankFactors(
            sigma=rng.random(2) + 0.5,
            u=rng.standard_normal((5, 2)),
            v=rng.standard_normal((3, 2)),
        )
        y = rng.standard_normal(3)
        np.testing.assert_allclose(
            apply_factors(f, y), materialize(f) @ y, atol=1e-12
        )

    def test_exactly_linear(self):
        rng = np.random.default_rng(17)
        f = LowRankFactors(
            sigma=rng.random(3) + 0.5,
            u=rng.standard_normal((6, 3)),
            v=rng.standard_normal((4, 3)),
        )
        y1, y2 = rng.standard_normal(4), rng.standard_normal(4)
        lhs = apply_factors(f, 2.5 * y1 + y2)
        rhs = 2.5 * apply_factors(f, y1) + apply_factors(f, y2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        f = truncated_pinv(svd_dense(np.eye(3)), 2)
        with pytest.raises(DimensionMismatch):
            apply_factors(f, np.zeros(5))

    def test_matrix_matches_column_by_column(self):
        rng = np.random.default_rng(23)
        f = LowRankFactors(
            sigma=rng.random(3) + 0.5,
            u=rng.standard_normal((6, 3)),
            v=rng.standard_normal((4, 3)),
        )
        y = rng.standard_normal((4, 5))
        out = apply_factors(f, y)
        assert out.shape == (6, 5)
        for j in range(5):
            np.testing.assert_allclose(
                out[:, j], apply_factors(f, y[:, j]), rtol=1e-13, atol=1e-13
            )
        with pytest.raises(DimensionMismatch):
            apply_factors(f, np.zeros((5, 5)))
