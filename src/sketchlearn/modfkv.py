"""Randomized low-rank SVD from norm-weighted (or uniform) row/column samples.

Given a matrix X stored in a :class:`~sketchlearn.segtree.SegTreeMatrix`,
the sketch draws P rows with probability f_i = rowNormSq(i)/froSq and P
columns from the mixture law g_j = mean_p entrySq(i_p, j)/rowNormSq(i_p).
It gathers the sampled rows once, into the row sketch

    S[p, :] = X[i_p, :] / sqrt(P * f[i_p]),

and reads the P x P core off S's sampled columns, rescaled again:

    W[p, q] = S[p, j_q] / sqrt(P * g[j_q])
            = X[i_p, j_q] / (P * sqrt(f[i_p] * g[j_q])).

It takes W's exact SVD and lifts the top-K triplets back to the full
matrix through S. The lift uses W's left singular vectors: W W^T
concentrates around S S^T, so those vectors approximate the left singular
vectors of S and

    v_k = S^T u'_k / s_k,     u_k = X v_k / s_k

approximate the right/left singular vectors of X. The lifted basis is
re-orthonormalized before the final factors are formed (see
:func:`reconstruct`), which removes the basis skew that otherwise floors
the reconstruction error at O(1/sqrt(P)). The uniform strategy substitutes
the flat laws f = 1/m, g = 1/n into the same estimator, which keeps the
rescaling structure and needs no tree. Singular values at or below
``DEFAULT_RCOND`` times the largest count as unusable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    RankDeficientSketch,
    ZeroMatrix,
    ZeroProbability,
)
from .linalg import DEFAULT_RCOND, LowRankFactors, svd_dense
from .segtree import SegTreeMatrix

NORM_WEIGHTED = "norm"
UNIFORM = "uniform"
STRATEGIES = (NORM_WEIGHTED, UNIFORM)


@dataclass(frozen=True)
class SketchConfig:
    """Parameters of the sampled SVD.

    ``k`` is the target rank, ``p`` the number of row and column samples
    (duplicates allowed, so ``p`` may exceed the matrix dimensions).
    """

    k: int
    p: int
    strategy: str = NORM_WEIGHTED
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.p < self.k:
            raise ValueError(f"need k <= p, got k={self.k}, p={self.p}")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )


@dataclass(frozen=True)
class SampleDraw:
    """P sampled row/column indices with their sampling probabilities."""

    row_idx: np.ndarray
    row_prob: np.ndarray
    col_idx: np.ndarray
    col_prob: np.ndarray

    @property
    def p(self) -> int:
        return self.row_idx.shape[0]


def _dense_of(t) -> np.ndarray:
    return t.dense if isinstance(t, SegTreeMatrix) else np.asarray(t, dtype=np.float64)


def draw_samples(t, cfg: SketchConfig, rng: np.random.Generator) -> SampleDraw:
    """Draw P row and P column indices per the configured strategy.

    Norm-weighted sampling requires a SegTreeMatrix; uniform runs directly
    on a dense array as well. Column probabilities are always the exact
    mixture values over the sampled rows, not descent byproducts.
    """
    p = cfg.p
    if cfg.strategy == UNIFORM:
        x = _dense_of(t)
        # The first row settles it in O(n) for nearly every input; the
        # full scan runs only when that row is zero.
        if not (x[0].any() or x.any()):
            raise ZeroMatrix("cannot sketch an all-zero matrix")
        m, n = x.shape
        rows = rng.integers(0, m, size=p)
        cols = rng.integers(0, n, size=p)
        return SampleDraw(
            row_idx=rows,
            row_prob=np.full(p, 1.0 / m),
            col_idx=cols,
            col_prob=np.full(p, 1.0 / n),
        )
    if not isinstance(t, SegTreeMatrix):
        raise TypeError("norm-weighted sampling needs a SegTreeMatrix store")
    rows = t.sample_rows(rng, p)
    picks = rng.integers(0, p, size=p)
    cols = t.sample_cols_in_rows(rows[picks], rng)
    norm_sq = t.row_norm_sq(rows)
    row_prob = norm_sq / t.fro_norm_sq()
    sub = t.dense[np.ix_(rows, cols)]
    col_prob = (sub * sub / norm_sq[:, None]).mean(axis=0)
    return SampleDraw(row_idx=rows, row_prob=row_prob, col_idx=cols, col_prob=col_prob)


def _check_probs(d: SampleDraw) -> None:
    if np.any(d.row_prob <= 0.0) or np.any(d.col_prob <= 0.0):
        raise ZeroProbability("sample carries a zero probability; cannot rescale")


def build_s(t, d: SampleDraw) -> np.ndarray:
    """The P x n row sketch S[p, :] = X[i_p, :] / sqrt(P f_p); E[S^T S] = X^T X.

    This is the sketch's only gather of the sampled rows.
    """
    _check_probs(d)
    x = _dense_of(t)
    return x[d.row_idx] / np.sqrt(d.p * d.row_prob)[:, None]


def build_w(s: np.ndarray, d: SampleDraw) -> np.ndarray:
    """The P x P core W[p, q] = S[p, j_q] / sqrt(P g_q), read off the row sketch."""
    _check_probs(d)
    return s[:, d.col_idx] / np.sqrt(d.p * d.col_prob)


def reconstruct(
    t,
    s: np.ndarray,
    w_svd: LowRankFactors,
    k: int,
    reduced: bool = False,
) -> LowRankFactors:
    """Lift the top-``k`` triplets of the core SVD back to full-size factors.

    ``s`` is the row sketch of :func:`build_s` that the core was read off.
    The raw lifted directions v_i = S^T u'_i / s_i carry the column-sample
    noise of W as a skewed basis (their Gram matrix drifts from I like
    1/sqrt(P)), which dominates the reconstruction error long after the
    spanned subspace itself is accurate. The basis is therefore
    orthonormalized (QR, deterministic signs) and sigma_i, u_i recomputed
    as the norm and direction of X v_i.

    Requires ``k`` singular values above ``DEFAULT_RCOND * max``; use
    :func:`modfkv` for the warn-and-reduce behavior.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    usable = usable_rank(w_svd, DEFAULT_RCOND)
    if usable < k:
        raise RankDeficientSketch(
            f"sketch has {usable} usable singular values, need {k}"
        )
    v = (s.T @ w_svd.u[:, :k]) / w_svd.sigma[:k]
    v, r = np.linalg.qr(v)
    flip = np.sign(np.diag(r))
    flip[flip == 0.0] = 1.0
    v = v * flip
    xv = _dense_of(t) @ v
    sigma = np.linalg.norm(xv, axis=0)
    if np.any(sigma <= 0.0):
        raise RankDeficientSketch(
            "a lifted direction lies in the null space of the matrix"
        )
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    v = v[:, order]
    u = xv[:, order] / sigma
    return LowRankFactors(sigma=sigma, u=u, v=v, reduced=reduced)


def usable_rank(w_svd: LowRankFactors, rcond: float) -> int:
    """Count of singular values above the relative floor."""
    top = w_svd.sigma[0] if w_svd.sigma.size else 0.0
    return int(np.count_nonzero(w_svd.sigma > rcond * top))


def modfkv(t, cfg: SketchConfig) -> LowRankFactors:
    """Full sampled SVD: draw samples, gather S, read W off it, decompose, lift.

    Deterministic for a fixed ``cfg.seed``: the draw is the first use of
    ``np.random.default_rng(cfg.seed)``, so a caller that needs the sampled
    indices re-derives them as
    ``draw_samples(t, cfg, np.random.default_rng(cfg.seed))``. When the core
    yields fewer than ``cfg.k`` usable singular values the result is reduced
    to that rank with a warning (``reduced=True``); with none usable it
    raises :class:`RankDeficientSketch`.
    """
    rng = np.random.default_rng(cfg.seed)
    d = draw_samples(t, cfg, rng)
    s = build_s(t, d)
    w_svd = svd_dense(build_w(s, d))
    usable = usable_rank(w_svd, DEFAULT_RCOND)
    if usable == 0:
        raise RankDeficientSketch("core matrix has no usable singular values")
    k = cfg.k
    reduced = usable < k
    if reduced:
        warnings.warn(
            f"sketch rank {usable} below requested {k}; returning reduced factors",
            RuntimeWarning,
            stacklevel=2,
        )
        k = usable
    return reconstruct(t, s, w_svd, k, reduced=reduced)
