"""Convergence metrics of the normalized channel Gram matrix W.

All three metrics quantify how far a K x K sample W is from the identity:
entrywise (mean absolute deviation), spectrally (extreme eigenvalue ratio)
and structurally (diagonal dominance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import SINGULAR_RTOL, SingularMatrixError


@dataclass(frozen=True)
class ConvergenceMetrics:
    mad: float
    lambda_ratio: float
    diagonal_dominance: float


def mad(E: np.ndarray) -> float:
    """Mean absolute deviation: average entry magnitude over all K^2 entries.

    The diagonal is included; it carries the chi-square fluctuation of the
    per-user channel norms.
    """
    return float(np.mean(np.abs(E)))


def lambda_ratio(W: np.ndarray) -> float:
    """Largest-to-smallest eigenvalue ratio of a positive definite W."""
    lam = np.linalg.eigvalsh(W)  # ascending
    if lam[0] <= SINGULAR_RTOL * lam[-1]:
        raise SingularMatrixError(
            f"smallest eigenvalue {lam[0]:.3e} is below tolerance; "
            "the sample needs at least as many rows as columns"
        )
    return float(lam[-1] / lam[0])


def diagonal_dominance(W: np.ndarray) -> float:
    """Trace divided by the sum of off-diagonal entry magnitudes.

    Returns +inf when there are no off-diagonal entries (K = 1) or they are
    all exactly zero, so degenerate sweep points do not abort a run.
    """
    diag = W.diagonal()
    off_sum = float(np.abs(W).sum() - np.abs(diag).sum())
    if off_sum == 0.0:
        return math.inf
    return float(diag.real.sum()) / off_sum


def convergence_metrics(W: np.ndarray) -> ConvergenceMetrics:
    """All three metrics of one Gram sample."""
    return ConvergenceMetrics(
        mad=mad(W - np.eye(W.shape[0])),
        lambda_ratio=lambda_ratio(W),
        diagonal_dominance=diagonal_dominance(W),
    )
