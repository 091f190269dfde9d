"""Dense SVD via LAPACK, plus truncated pseudo-inverse factors.

Matrices are plain 2-D float64 ``numpy.ndarray`` in row-major order. One
SVD path serves every input, the sketch's small core as well as the exact
baseline: LAPACK through ``numpy.linalg.svd``. Every factorization here, an
economy SVD, a sketch or a pseudo-inverse, is one type,
:class:`LowRankFactors`. One rank floor serves the sketch and the solve:
:func:`usable_rank` counts the singular values above ``DEFAULT_RCOND``
times the largest, and :func:`truncated_pinv` keeps no more than those.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllSingularValuesFiltered,
    DimensionMismatch,
    EmptyMatrix,
    NonFinite,
    is_number,
)

DEFAULT_RCOND = 1e-12


@dataclass(frozen=True)
class LowRankFactors:
    """Factorization ``U @ diag(sigma) @ V.T`` of rank ``k = sigma.size``.

    From :func:`svd_dense` it is the economy SVD: ``U`` is m x r and ``V``
    is n x r with orthonormal columns, r = min(m, n), and ``sigma`` is
    nonincreasing and nonnegative. Truncated and sketch-produced factors
    keep only strictly positive ``sigma``; sketch factors are only
    approximately orthonormal. ``reduced`` marks that the rcond floor
    dropped singular values below the requested rank.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    reduced: bool = field(default=False, compare=False)

    @property
    def k(self) -> int:
        return self.sigma.size


def _check_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise EmptyMatrix("matrix has no entries")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or Inf")
    return a


def svd_dense(a) -> LowRankFactors:
    """Economy singular value decomposition of a dense matrix.

    Parameters
    ----------
    a : array_like, shape (m, n)
        Matrix to decompose; entries must be finite.

    Returns
    -------
    LowRankFactors
        LAPACK's economy SVD (``numpy.linalg.svd``): singular values
        nonincreasing, singular vectors with orthonormal columns.
        Deterministic for fixed input on one BLAS build and thread count.
    """
    a = _check_matrix(a)
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return LowRankFactors(u=u, sigma=sigma, v=vt.T.copy())


def usable_rank(f: LowRankFactors) -> int:
    """Count of singular values above ``DEFAULT_RCOND`` times the largest."""
    top = f.sigma.max() if f.sigma.size else 0.0
    return int(np.count_nonzero(f.sigma > DEFAULT_RCOND * top))


def truncated_pinv(f: LowRankFactors, k: int) -> LowRankFactors:
    """Factors of the rank-``k`` truncated pseudo-inverse.

    Keeps the top ``k' = min(k, usable_rank(f))`` triplets and returns
    factors representing ``sum_i (1/sigma_i) v_i u_i^T``; the roles of U
    and V swap so the result maps the codomain back to the domain. Raises
    :class:`AllSingularValuesFiltered` when nothing survives the floor.
    """
    if not (is_number(k) and k >= 1):
        raise ValueError(f"rank must be >= 1 and an integer, got {k!r}")
    u, sigma, v = f.u, f.sigma, f.v
    kept = min(k, usable_rank(f))
    if kept == 0:
        raise AllSingularValuesFiltered(
            f"no singular values above rcond={DEFAULT_RCOND} floor"
        )
    return LowRankFactors(
        sigma=1.0 / sigma[:kept],
        u=v[:, :kept].copy(),
        v=u[:, :kept].copy(),
        reduced=kept < min(k, sigma.size),
    )


def apply_factors(f: LowRankFactors, y: np.ndarray) -> np.ndarray:
    """Evaluate ``U @ diag(sigma) @ V.T @ y`` without materializing the matrix.

    ``y`` is a vector of length n or an n x L matrix of column vectors; the
    result has the same number of axes.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or y.shape[0] != f.v.shape[0]:
        raise DimensionMismatch(
            f"first axis of length {f.v.shape[0]} required, got shape {y.shape}"
        )
    scale = f.sigma if y.ndim == 1 else f.sigma[:, None]
    return f.u @ (scale * (f.v.T @ y))
