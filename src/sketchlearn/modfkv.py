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
rescaling structure and needs no tree. The lift keeps no more triplets
than the core's :func:`~sketchlearn.linalg.usable_rank`, the rank floor
the solve's pseudo-inverse cuts at too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyMatrix,
    NonFinite,
    RankDeficientSketch,
    ZeroMatrix,
    ZeroProbability,
    is_number,
)
from .linalg import LowRankFactors, svd_dense, usable_rank
from .segtree import SegTreeMatrix

NORM_WEIGHTED = "norm"
UNIFORM = "uniform"
STRATEGIES = (NORM_WEIGHTED, UNIFORM)


@dataclass(frozen=True)
class SketchConfig:
    """Parameters of the sampled SVD.

    ``k`` is the target rank, ``p`` the number of row and column samples
    (duplicates allowed, so ``p`` may exceed the matrix dimensions), and
    ``seed``, an integer >= 0, seeds the draw.
    """

    k: int
    p: int
    strategy: str = NORM_WEIGHTED
    seed: int = 0

    def __post_init__(self):
        if not (is_number(self.k) and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not is_number(self.p):
            raise ValueError(f"p must be an integer, got {self.p!r}")
        if self.p < self.k:
            raise ValueError(f"need k <= p, got k={self.k}, p={self.p}")
        if not (is_number(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
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
    mixture values over the sampled rows, not descent byproducts. A norm
    draw costs O(P log rows) for the row walks, O(64 P) for the in-row
    column draws, and one P x P gather of X[rows, cols], which becomes the
    column law in place. The gather is a flat-index ``take`` into that one
    array, P/8 rows at a time, so its index buffer is an eighth of a P x P
    block; no other P x P array is made.
    """
    p = cfg.p
    if cfg.strategy == UNIFORM:
        x = _dense_of(t)
        if x.ndim != 2 or x.size == 0:
            raise EmptyMatrix(f"need a nonempty 2-D matrix, got shape {x.shape}")
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
    # The draw's one P x P gather, turned into g in place. Its columns are
    # gathered in ascending order, which reads each row forward; every
    # column's mean runs over the rows in draw order, so g is unchanged.
    # A stable sort, as reconstruct's: the default one maps in more of
    # numpy's sort code, which added about 0.4 MB to a process's peak RSS.
    order = np.argsort(cols, kind="stable")
    cols_sorted = cols[order]
    # A flat-index take into the C-ordered store costs about half of the
    # np.ix_ fancy index. Its indices rows * cols + col are built P/8 rows
    # at a time in one reused buffer, so beside the P x P gather the draw
    # holds an eighth of a block, not a second whole one. Every index is in
    # range, and "clip" lets take write straight to out, as in _descend.
    sub = np.empty((p, p))
    chunk = -(-p // 8)
    base = rows * t.cols
    idx = np.empty((chunk, p), dtype=np.intp)
    for a in range(0, p, chunk):
        b = min(a + chunk, p)
        flat = idx[: b - a]
        flat[...] = cols_sorted
        flat += base[a:b, None]
        t.dense.take(flat, out=sub[a:b], mode="clip")
    sub *= sub
    sub /= norm_sq[:, None]
    col_prob = np.empty(p)
    col_prob[order] = sub.mean(axis=0)
    return SampleDraw(row_idx=rows, row_prob=row_prob, col_idx=cols, col_prob=col_prob)


def _check_probs(d: SampleDraw) -> None:
    if np.any(d.row_prob <= 0.0) or np.any(d.col_prob <= 0.0):
        raise ZeroProbability("sample carries a zero probability; cannot rescale")


def build_s(t, d: SampleDraw) -> np.ndarray:
    """The P x n row sketch S[p, :] = X[i_p, :] / sqrt(P f_p); E[S^T S] = X^T X.

    This is the sketch's only gather of the sampled rows. The rows are
    gathered once and rescaled in place, so S is the one P x n array made.
    """
    _check_probs(d)
    s = _dense_of(t).take(d.row_idx, axis=0)
    s /= np.sqrt(d.p * d.row_prob)[:, None]
    return s


def build_w(s: np.ndarray, d: SampleDraw) -> np.ndarray:
    """The P x P core W[p, q] = S[p, j_q] / sqrt(P g_q), read off the row sketch."""
    _check_probs(d)
    return s.take(d.col_idx, axis=1) / np.sqrt(d.p * d.col_prob)


def reconstruct(t, s: np.ndarray, w_svd: LowRankFactors, k: int) -> LowRankFactors:
    """Lift the top-``k`` triplets of the core SVD back to full-size factors.

    ``s`` is the row sketch of :func:`build_s` that the core was read off.
    The raw lifted directions v_i = S^T u'_i / s_i carry the column-sample
    noise of W as a skewed basis (their Gram matrix drifts from I like
    1/sqrt(P)), which dominates the reconstruction error long after the
    spanned subspace itself is accurate. The basis is therefore
    orthonormalized (QR) and sigma_i, u_i recomputed as the norm and
    direction of X v_i; u_i takes v_i's QR sign, so u_i v_i^T is unaffected.

    Keeps the top ``min(k, usable_rank(w_svd))`` triplets, as ``truncated_pinv``
    does, setting ``reduced`` when that is below ``k``; a core with no usable
    singular value raises :class:`RankDeficientSketch`.
    """
    if not (is_number(k) and k >= 1):
        raise ValueError(f"k must be >= 1 and an integer, got {k!r}")
    kept = min(k, usable_rank(w_svd))
    if kept == 0:
        raise RankDeficientSketch("core matrix has no usable singular values")
    v = (s.T @ w_svd.u[:, :kept]) / w_svd.sigma[:kept]
    v = np.linalg.qr(v)[0]
    xv = _dense_of(t) @ v
    sigma = np.linalg.norm(xv, axis=0)
    # A NaN or Inf anywhere in X reaches X @ v, so this O(k) check covers
    # the whole matrix; a store's entries are finite already.
    if not np.isfinite(sigma).all():
        raise NonFinite("matrix has NaN or Inf entries")
    if np.any(sigma <= 0.0):
        raise RankDeficientSketch(
            "a lifted direction lies in the null space of the matrix"
        )
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    v = v[:, order]
    u = xv[:, order] / sigma
    return LowRankFactors(sigma=sigma, u=u, v=v, reduced=kept < k)


def modfkv(t, cfg: SketchConfig) -> LowRankFactors:
    """Full sampled SVD: draw samples, gather S, read W off it, decompose, lift.

    Deterministic for a fixed ``cfg.seed``: the draw is the first use of
    ``np.random.default_rng(cfg.seed)``, so a caller that needs the sampled
    indices re-derives them as
    ``draw_samples(t, cfg, np.random.default_rng(cfg.seed))``. The lift makes
    the one rank cut (:func:`reconstruct`): fewer than ``cfg.k`` usable core
    values give that many triplets and ``reduced=True``, and none raises.
    """
    d = draw_samples(t, cfg, np.random.default_rng(cfg.seed))
    s = build_s(t, d)
    return reconstruct(t, s, svd_dense(build_w(s, d)), cfg.k)
