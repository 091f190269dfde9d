"""Randomized low-rank SVD from norm-weighted (or uniform) row/column samples.

Given a matrix X stored in a :class:`~sketchlearn.segtree.SegTreeMatrix`,
the sketch draws P rows with probability f_i = rowNormSq(i)/froSq and P
columns from the mixture law g_j = mean_p entrySq(i_p, j)/rowNormSq(i_p),
rescales the sampled submatrix into a P x P core

    W[p, q] = X[i_p, j_q] / (P * sqrt(f[i_p] * g[j_q])),

takes its exact SVD, and lifts the top-K triplets back to the full matrix
through the row sketch S[p, :] = X[i_p, :] / sqrt(P * f[i_p]). The lift
uses W's left singular vectors: W W^T concentrates around S S^T, so those
vectors approximate the left singular vectors of S and

    v_k = S^T u'_k / s_k,     u_k = X v_k / s_k

approximate the right/left singular vectors of X. By default the lifted
basis is re-orthonormalized before the final factors are formed (see
:func:`reconstruct`), which removes the basis skew that otherwise floors
the reconstruction error at O(1/sqrt(P)). The uniform strategy substitutes
the flat laws f = 1/m, g = 1/n into the same estimator, which keeps the
rescaling structure and needs no tree.
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
from .linalg import DEFAULT_RCOND, LowRankFactors, SvdResult, svd_dense
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
    rcond: float = DEFAULT_RCOND

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.p < self.k:
            raise ValueError(f"need k <= p, got k={self.k}, p={self.p}")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if not 0.0 <= self.rcond < 1.0:
            raise ValueError(f"rcond must lie in [0, 1), got {self.rcond}")


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
    row_prob = t.row_norm_sq(rows) / t.fro_norm_sq()
    sub = t.dense[np.ix_(rows, cols)]
    col_prob = (sub * sub / t.row_norm_sq(rows)[:, None]).mean(axis=0)
    return SampleDraw(row_idx=rows, row_prob=row_prob, col_idx=cols, col_prob=col_prob)


def _check_probs(d: SampleDraw) -> None:
    if np.any(d.row_prob <= 0.0) or np.any(d.col_prob <= 0.0):
        raise ZeroProbability("sample carries a zero probability; cannot rescale")


def build_w(t, d: SampleDraw) -> np.ndarray:
    """The P x P rescaled core W[p, q] = X[i_p, j_q] / (P sqrt(f_p g_q))."""
    _check_probs(d)
    x = _dense_of(t)
    sub = x[np.ix_(d.row_idx, d.col_idx)]
    return sub / (d.p * np.sqrt(d.row_prob[:, None] * d.col_prob[None, :]))


def build_s(t, d: SampleDraw) -> np.ndarray:
    """The P x n row sketch S[p, :] = X[i_p, :] / sqrt(P f_p); E[S^T S] = X^T X."""
    _check_probs(d)
    x = _dense_of(t)
    return x[d.row_idx] / np.sqrt(d.p * d.row_prob)[:, None]


def reconstruct(
    t,
    d: SampleDraw,
    w_svd: SvdResult,
    k: int,
    rcond: float = DEFAULT_RCOND,
    reduced: bool = False,
    orthonormalize: bool = True,
) -> LowRankFactors:
    """Lift the top-``k`` triplets of the core SVD back to full-size factors.

    The raw lifted directions v_i = S^T u'_i / s_i carry the column-sample
    noise of W as a skewed basis (their Gram matrix drifts from I like
    1/sqrt(P)), which dominates the reconstruction error long after the
    spanned subspace itself is accurate. By default the basis is therefore
    orthonormalized (QR, deterministic signs) and sigma_i, u_i recomputed
    as the norm and direction of X v_i; ``orthonormalize=False`` keeps the
    literal rescaled sum. Both modes agree on exact-coverage and rank-1
    inputs.

    Requires ``k`` singular values above ``rcond * max``; use
    :func:`modfkv` for the warn-and-reduce behavior.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    usable = usable_rank(w_svd, rcond)
    if usable < k:
        raise RankDeficientSketch(
            f"sketch has {usable} usable singular values, need {k}"
        )
    s = build_s(t, d)
    x = _dense_of(t)
    sigma = w_svd.sigma[:k].copy()
    v = (s.T @ w_svd.u[:, :k]) / sigma
    if not orthonormalize:
        u = (x @ v) / sigma
        return LowRankFactors(k=k, sigma=sigma, u=u, v=v, reduced=reduced)
    v, r = np.linalg.qr(v)
    flip = np.sign(np.diag(r))
    flip[flip == 0.0] = 1.0
    v = v * flip
    xv = x @ v
    sigma = np.linalg.norm(xv, axis=0)
    if np.any(sigma <= 0.0):
        raise RankDeficientSketch(
            "a lifted direction lies in the null space of the matrix"
        )
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    v = v[:, order]
    u = xv[:, order] / sigma
    return LowRankFactors(k=k, sigma=sigma, u=u, v=v, reduced=reduced)


def usable_rank(w_svd: SvdResult, rcond: float) -> int:
    """Count of singular values above the relative floor."""
    top = w_svd.sigma[0] if w_svd.sigma.size else 0.0
    return int(np.count_nonzero(w_svd.sigma > rcond * top))


def modfkv(t, cfg: SketchConfig) -> LowRankFactors:
    """Full sampled SVD: draw samples, build W, decompose, lift.

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
    w = build_w(t, d)
    w_svd = svd_dense(w)
    usable = usable_rank(w_svd, cfg.rcond)
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
    return reconstruct(t, d, w_svd, k, cfg.rcond, reduced=reduced)
