"""Convergence metrics of the normalized channel Gram matrix W.

All three metrics quantify how far a K x K sample W is from the identity:
entrywise (mean absolute deviation), spectrally (extreme eigenvalue ratio)
and structurally (diagonal dominance). Each gives one value per matrix of
a stack of shape (..., K, K), the same bits as for that matrix alone.
"""

from __future__ import annotations

import numpy as np

from .numerics import SINGULAR_RTOL, SingularMatrixError


def mad(E: np.ndarray) -> np.ndarray:
    """Mean absolute deviation: average entry magnitude over all K^2 entries.

    The diagonal is included; it carries the chi-square fluctuation of the
    per-user channel norms.
    """
    return np.mean(np.abs(E), axis=(-2, -1))


def lambda_ratio(W: np.ndarray) -> np.ndarray:
    """Largest-to-smallest eigenvalue ratio of a positive definite W."""
    lam = np.linalg.eigvalsh(W)  # ascending
    low, high = lam[..., 0], lam[..., -1]
    if np.any(low <= SINGULAR_RTOL * high):
        raise SingularMatrixError(
            f"smallest eigenvalue {np.min(low):.3e} is below tolerance; "
            "the sample needs at least as many rows as columns"
        )
    return high / low


def diagonal_dominance(W: np.ndarray) -> np.ndarray:
    """Trace divided by the sum of off-diagonal entry magnitudes.

    A nonzero W with no off-diagonal entries (K = 1), or with all of them
    exactly zero, gets +inf.
    """
    diag = np.diagonal(W, axis1=-2, axis2=-1)
    off_sum = np.abs(W).sum(axis=(-2, -1)) - np.abs(diag).sum(axis=-1)
    with np.errstate(divide="ignore"):
        return diag.real.sum(axis=-1) / off_sum
