"""Independent brute-force references used by the test suite.

Nothing in here may call into sketchlearn: each oracle recomputes the
quantity under test by a different algorithm so agreement is evidence,
not tautology.
"""

from __future__ import annotations

import numpy as np


def eig_sym_jacobi(s, tol: float = 1e-14, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix via two-sided Jacobi rotations.

    Classical cyclic sweeps annihilating a[p, q] with the rotation angle
    theta = 0.5 * atan2(2*a[p,q], a[q,q] - a[p,p]). Returns eigenvalues in
    nonincreasing order and the matching eigenvector columns. Deliberately
    a different algorithm from the production SVD, which is LAPACK's.
    """
    a = np.array(s, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.abs(a).max(), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt((np.tril(a, -1) ** 2).sum())
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= tol * scale:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, sn = np.cos(theta), np.sin(theta)
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - sn * cq
                a[:, q] = sn * cp + c * cq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - sn * rq
                a[q, :] = sn * rp + c * rq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - sn * vq
                v[:, q] = sn * vp + c * vq
    w = np.diag(a).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def singular_values_via_gram(a):
    """Singular values of ``a`` from the eigenvalues of ``a.T @ a``."""
    w, _ = eig_sym_jacobi(np.asarray(a, dtype=np.float64).T @ a)
    return np.sqrt(np.clip(w, 0.0, None))


def pinv_apply_ridge(a, y, ridge: float = 1e-10):
    """``pinv(a) @ y`` through ridge-regularized normal equations.

    (a.T a + ridge I)^-1 a.T y converges to the Moore-Penrose solution as
    ridge -> 0; with well-scaled test matrices ridge=1e-10 keeps the gap
    far below the tolerances the tests assert.
    """
    a = np.asarray(a, dtype=np.float64)
    g = a.T @ a + ridge * np.eye(a.shape[1])
    return np.linalg.solve(g, a.T @ np.asarray(y, dtype=np.float64))


def tv_distance(empirical_counts, probs) -> float:
    """Total variation distance between empirical frequencies and ``probs``."""
    counts = np.asarray(empirical_counts, dtype=np.float64)
    freq = counts / counts.sum()
    return 0.5 * np.abs(freq - np.asarray(probs, dtype=np.float64)).sum()


def central_diff_grad(func, x, h: float = 1e-6):
    """Central finite-difference gradient of a scalar function, per coordinate."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = func(x)
        flat[i] = orig - h
        fm = func(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def row_sampling_probs(x):
    """Row law: squared row norms over the squared Frobenius norm."""
    x = np.asarray(x, dtype=np.float64)
    rn = (x * x).sum(axis=1)
    return rn / rn.sum()


def col_mixture_probs(x, sampled_rows):
    """Column law given sampled rows: mean over rows of within-row squares."""
    x = np.asarray(x, dtype=np.float64)
    sub = x[np.asarray(sampled_rows)]
    rn = (sub * sub).sum(axis=1, keepdims=True)
    return (sub * sub / rn).mean(axis=0)
