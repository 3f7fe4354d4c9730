"""Independent reference computations used to check the library numerics.

Nothing here may call into verseshift.linalg: the eigenvalue oracle bisects
the eigenvalue-counting function of the shifted matrix (negative pivots of
an LDL^T elimination, Sylvester's law of inertia). It handles repeated
roots and calls no numpy.linalg routine, so it is independent of the
``eigh``-based PCA under test.
"""

from __future__ import annotations

import numpy as np


def count_eigenvalues_below(matrix: np.ndarray, x: float) -> int:
    """Eigenvalues of a symmetric matrix strictly below x, by pivot signs."""
    a = np.array(matrix, dtype=np.float64)
    p = a.shape[0]
    a[np.diag_indices(p)] -= x
    negatives = 0
    for j in range(p):
        pivot = a[j, j]
        if pivot == 0.0:
            pivot = -1e-300  # x coincides with an eigenvalue; nudge past it
        if pivot < 0.0:
            negatives += 1
        if j + 1 < p:
            col = a[j + 1 :, j] / pivot
            a[j + 1 :, j + 1 :] -= np.outer(col, a[j, j + 1 :])
            a[j + 1 :, j] = 0.0
    return negatives


def eigenvalues_by_bisection(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending, by pure bisection."""
    a = np.asarray(matrix, dtype=np.float64)
    p = a.shape[0]
    radius = float(np.abs(a).sum(axis=1).max()) + 1.0  # Gershgorin bound
    eigs = []
    for i in range(p):  # i-th smallest
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count_eigenvalues_below(a, mid) >= i + 1:
                hi = mid
            else:
                lo = mid
        eigs.append(0.5 * (lo + hi))
    return np.array(eigs)[::-1]


def ols_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r_squared) via numpy polyfit, as a second opinion."""
    slope, intercept = np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)
    y = np.asarray(y, float)
    pred = slope * np.asarray(x, float) + intercept
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        return float(slope), float(intercept), 0.0
    return float(slope), float(intercept), 1.0 - float(((y - pred) ** 2).sum()) / sst
