"""Dense SVD via LAPACK or one-sided Jacobi rotations, plus truncated
pseudo-inverse factors.

Matrices are plain 2-D float64 ``numpy.ndarray`` in row-major order. LAPACK
is the default for every input, the sketch's small core as well as the exact
baseline: the pure-Python Jacobi sweeps are slower at every size. Jacobi is
kept, selected explicitly, as the reference implementation. Every
factorization here, an economy SVD, a sketch or a pseudo-inverse, is one
type, :class:`LowRankFactors`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllSingularValuesFiltered,
    DimensionMismatch,
    EmptyMatrix,
    NonFinite,
)

# One-sided Jacobi: rotate while |a_p . a_q| > tol * ||a_p|| * ||a_q||
# and neither column is negligible (see _jacobi_tall).
JACOBI_TOL = 1e-12
MAX_SWEEPS = 60

DEFAULT_RCOND = 1e-12


@dataclass(frozen=True)
class LowRankFactors:
    """Factorization ``U @ diag(sigma) @ V.T`` of rank ``k = sigma.size``.

    From :func:`svd_dense` it is the economy SVD: ``U`` is m x r and ``V``
    is n x r with orthonormal columns, r = min(m, n), and ``sigma`` is
    nonincreasing and nonnegative. Truncated and sketch-produced factors
    keep only strictly positive ``sigma``; sketch factors are only
    approximately orthonormal. ``reduced`` marks that an rcond floor
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


def _complete_basis(u: np.ndarray, missing: np.ndarray) -> None:
    """Fill zero columns of ``u`` with unit vectors orthogonal to the rest.

    Candidates are standard basis vectors tried in index order, so the
    completion is deterministic. Mutates ``u`` in place.
    """
    m = u.shape[0]
    for j in np.flatnonzero(missing):
        best, best_norm = None, 0.0
        for cand in range(m):
            e = np.zeros(m)
            e[cand] = 1.0
            e -= u @ (u.T @ e)
            norm = np.linalg.norm(e)
            if norm > best_norm:
                best, best_norm = e, norm
            if norm > 0.5:
                break
        e = best / best_norm
        # Second projection pass keeps the column orthogonal when the best
        # residual was small.
        e -= u @ (u.T @ e)
        u[:, j] = e / np.linalg.norm(e)


def _jacobi_tall(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi on a tall matrix (rows >= cols); returns (U, sigma, V).

    Stopping rule: a pair (p, q) is rotated only while
    ``|a_p . a_q| > JACOBI_TOL * ||a_p|| * ||a_q||`` and neither column is
    negligible, that is ``||a||^2 <= (m * eps)^2 * ||A||_F^2`` (Drmač–Veselić
    2008, LAPACK ``dgesvj``). Negligible columns are treated as zero: they
    are not rotated, and their left singular vectors are filled by basis
    completion. Sweeps end after the first one that rotates nothing; if
    ``MAX_SWEEPS`` sweeps pass and the last still rotated, a
    ``RuntimeWarning`` reports the unconverged result.
    """
    # Column-major storage makes every column a contiguous view, so the
    # per-rotation axpy updates run at memcpy speed.
    b = np.array(b, dtype=np.float64, order="F")
    m, n = b.shape
    v = np.asfortranarray(np.eye(n))
    # Without the floor, roundoff-level columns of a rank-deficient input
    # keep rotating against each other until they underflow, where the
    # pair test can never hold and every sweep up to MAX_SWEEPS is spent.
    tiny = m * np.finfo(np.float64).eps * np.linalg.norm(b)
    floor = tiny * tiny

    for _ in range(MAX_SWEEPS):
        rotated = False
        # Squared column norms, refreshed once per sweep and maintained
        # through the exact rotation identities in between; the sweep that
        # declares convergence performs no rotations, so its test used
        # fresh values.
        norms = np.einsum("ij,ij->j", b, b)
        for p in range(n - 1):
            if norms[p] <= floor:
                continue
            bp = b[:, p]
            vp = v[:, p]
            for q in range(p + 1, n):
                aqq = norms[q]
                if aqq <= floor:
                    continue
                bq = b[:, q]
                apq = float(bp @ bq)
                app = norms[p]
                # sqrt before multiplying so tiny norms cannot underflow.
                if abs(apq) <= JACOBI_TOL * (math.sqrt(app) * math.sqrt(aqq)):
                    continue
                rotated = True
                # Angle zeroing the (p, q) Gram off-diagonal; atan2 keeps
                # this finite even when the entries are denormal.
                theta = 0.5 * math.atan2(2.0 * apq, aqq - app)
                c = math.cos(theta)
                s = math.sin(theta)
                new_p = c * bp - s * bq
                bq[:] = s * bp + c * bq
                bp[:] = new_p
                vq = v[:, q]
                new_vp = c * vp - s * vq
                vq[:] = s * vp + c * vq
                vp[:] = new_vp
                # Gram diagonal after the rotation (off-diagonal goes to 0);
                # clamped because cancellation can push a vanishing column's
                # norm a few ulps below zero.
                cc, ss, cs = c * c, s * s, 2.0 * c * s
                norms[p] = max(0.0, cc * app - cs * apq + ss * aqq)
                norms[q] = max(0.0, ss * app + cs * apq + cc * aqq)
                if norms[p] <= floor:
                    break
        if not rotated:
            break
    else:
        warnings.warn(
            f"one-sided Jacobi did not converge in {MAX_SWEEPS} sweeps",
            RuntimeWarning,
            stacklevel=3,
        )

    sigma = np.linalg.norm(b, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    b = b[:, order]
    v = v[:, order]

    # Columns at or below the negligible floor get basis-completed instead
    # of normalized; their sigma stays as computed (tiny or exactly 0).
    missing = sigma <= tiny
    u = np.zeros_like(b)
    keep = ~missing
    u[:, keep] = b[:, keep] / sigma[keep]
    if missing.any():
        _complete_basis(u, missing)
    return u, sigma, v


def svd_dense(a, method: str = "lapack") -> LowRankFactors:
    """Economy singular value decomposition of a dense matrix.

    Parameters
    ----------
    a : array_like, shape (m, n)
        Matrix to decompose; entries must be finite.
    method : {"lapack", "jacobi"}
        "lapack" (the default) calls ``numpy.linalg.svd``; "jacobi" runs
        one-sided rotation sweeps on the smaller side and is kept as the
        reference implementation.

    The Jacobi sweeps stop after the first sweep that rotates nothing. A
    pair of columns is rotated only while their inner product exceeds
    ``JACOBI_TOL`` times the product of their norms, and only while neither
    column is negligible: squared norm at or below
    ``(max(m, n) * eps)^2 * ||A||_F^2``. Negligible columns are
    treated as zero and their singular vectors are completed to an
    orthonormal basis. A ``RuntimeWarning`` is emitted if ``MAX_SWEEPS``
    sweeps end with the last one still rotating.

    Returns
    -------
    LowRankFactors
        Singular values sorted nonincreasing (stable on ties), singular
        vectors with orthonormal columns. Deterministic for fixed input.
    """
    a = _check_matrix(a)
    if method == "lapack":
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
        return LowRankFactors(u=u, sigma=sigma, v=vt.T.copy())
    if method != "jacobi":
        raise ValueError(f"unknown method {method!r}")
    if a.shape[0] >= a.shape[1]:
        u, sigma, v = _jacobi_tall(a)
    else:
        v, sigma, u = _jacobi_tall(a.T)
    return LowRankFactors(u=u, sigma=sigma, v=v)


def truncated_pinv(
    f: LowRankFactors, k: int, rcond: float = DEFAULT_RCOND
) -> LowRankFactors:
    """Factors of the rank-``k`` truncated pseudo-inverse.

    Keeps the top ``k' = min(k, #{sigma_i > rcond * max sigma})`` triplets
    and returns factors representing ``sum_i (1/sigma_i) v_i u_i^T``; the
    roles of U and V swap so the result maps the codomain back to the
    domain. Raises :class:`AllSingularValuesFiltered` when nothing survives
    the floor.
    """
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k}")
    if not 0.0 <= rcond < 1.0:
        raise ValueError(f"rcond must lie in [0, 1), got {rcond}")
    u, sigma, v = f.u, f.sigma, f.v
    cutoff = rcond * sigma.max() if sigma.size else 0.0
    usable = int(np.count_nonzero(sigma > cutoff))
    kept = min(k, usable)
    if kept == 0:
        raise AllSingularValuesFiltered(
            f"no singular values above rcond={rcond} floor"
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
