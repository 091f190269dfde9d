"""Dense SVD via LAPACK, plus truncated pseudo-inverse factors.

Matrices are plain 2-D float64 ``numpy.ndarray`` in row-major order. One
SVD path serves every input, the sketch's small core as well as the exact
baseline: LAPACK through ``numpy.linalg.svd``. Every factorization here, an
economy SVD, a sketch or a pseudo-inverse, is one type,
:class:`LowRankFactors`. One rank floor serves the sketch and the solve:
:func:`usable_rank` counts the singular values above ``DEFAULT_RCOND``
times the largest, and :func:`truncate` keeps no more than those.
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
    cut below the requested rank: a cut of ``f`` to ``k`` sets it when
    ``f.reduced`` or fewer than ``min(k, f.k)`` triplets are kept.
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


def truncate(f: LowRankFactors, k: int) -> LowRankFactors:
    """The top ``min(k, usable_rank(f))`` triplets of ``f``, as views.

    ``reduced`` is ``f.reduced or kept < min(k, f.k)``. Raises
    :class:`AllSingularValuesFiltered` when no singular value is usable.
    """
    if not (is_number(k) and k >= 1):
        raise ValueError(f"rank must be >= 1 and an integer, got {k!r}")
    kept = min(k, usable_rank(f))
    if kept == 0:
        raise AllSingularValuesFiltered(
            f"no singular values above rcond={DEFAULT_RCOND} floor"
        )
    return LowRankFactors(u=f.u[:, :kept], sigma=f.sigma[:kept], v=f.v[:, :kept],
                          reduced=f.reduced or kept < min(k, f.k))


def truncated_pinv(f: LowRankFactors, k: int) -> LowRankFactors:
    """The rank-``k`` truncated pseudo-inverse ``sum_i (1/sigma_i) v_i u_i^T``
    over the triplets ``truncate(f, k)`` keeps, with its ``reduced``. U and V
    swap roles, so the result maps the codomain back to the domain.
    """
    t = truncate(f, k)
    return LowRankFactors(sigma=1.0 / t.sigma, u=t.v.copy(), v=t.u.copy(),
                          reduced=t.reduced)


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
