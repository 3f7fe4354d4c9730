"""Dense kernels for the analyses: cosine similarity and PCA."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``a`` (of ``a`` itself for a single vector), in float64."""
    a = np.asarray(a, dtype=np.float64)
    return np.sqrt(np.einsum("...d,...d->...", a, a))


def rowwise_cosine(a: np.ndarray, b: np.ndarray, norm_a=None, norm_b=None) -> np.ndarray:
    """Cosine between matching rows of ``a`` and ``b``, the one cosine kernel.

    ``b`` is either shaped like ``a`` or a single vector compared against
    every row. ``norm_a`` and ``norm_b`` may pass in the :func:`row_norms`
    of an operand that is compared more than once; the result is the same
    bit for bit. Raises ValueError on zero-norm input rather than silently
    returning 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = row_norms(a) if norm_a is None else norm_a
    nb = row_norms(b) if norm_b is None else norm_b
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    return np.einsum("...d,...d->...", a, b) / (na * nb)


@dataclass
class PcaResult:
    """Principal axes of a data matrix.

    ``components`` holds one orthonormal axis per row; the entry of largest
    magnitude in each row is made positive so extreme lists are stable
    across runs. ``degenerate`` marks zero-variance input, where the axes
    are arbitrary and all ratios are zero.
    """

    mean: np.ndarray  # (p,)
    components: np.ndarray  # (q, p)
    explained_variance_ratio: np.ndarray  # (q,)
    eigenvalues: np.ndarray  # (q,)
    projections: np.ndarray  # (n, q)
    degenerate: bool = False


def pca(data: np.ndarray, n_components: int) -> PcaResult:
    """PCA of the rows of ``data`` via ``numpy.linalg.eigh`` of the covariance.

    Columns are mean-centered (never variance-scaled) and the covariance
    uses the n-1 divisor. Requires n >= 2 rows and
    1 <= n_components <= min(n - 1, p).
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("data must be a 2-d matrix")
    n, p = x.shape
    if n < 2:
        raise ValueError("PCA needs at least two rows")
    if not (1 <= n_components <= min(n - 1, p)):
        raise ValueError(
            f"n_components={n_components} out of range [1, {min(n - 1, p)}] for shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ValueError("data contains non-finite values")

    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1].T  # descending, axes as rows

    total = float(np.trace(cov))
    degenerate = total <= 0.0
    eigvals = np.maximum(eigvals, 0.0)  # clip tiny negative rounding
    comps = eigvecs[:n_components].copy()
    vals = eigvals[:n_components].copy()

    # sign convention: largest-magnitude entry of each axis is positive
    flip = comps[np.arange(n_components), np.abs(comps).argmax(axis=1)] < 0
    comps[flip] *= -1.0

    if degenerate:
        ratios = np.zeros(n_components)
    else:
        ratios = vals / total
    projections = centered @ comps.T
    return PcaResult(
        mean=mean,
        components=comps,
        explained_variance_ratio=ratios,
        eigenvalues=vals,
        projections=projections,
        degenerate=degenerate,
    )
