"""Reference computations for the tests.

The sweep harness draws either the Bartlett factor or the raw normals of
an M x K draw, never the complex M x K channel itself; sample_iid composes
the two steps of that draw, and serves the tests as the oracle the
harness's channels and Grams are checked against. correlation_eigenvalues
bisects the eigenvalues of one antenna count for a fixed 64 steps, the
oracle of the bits of the grouped bisection that stops early.
marchenko_pastur_edge_ratio is the large-system limit of the eigenvalue
ratio, against which the metrics' rate of convergence is measured.
"""

import numpy as np

from mimo_converge.channel import RngStream, row_scale, sample_normals, scale_normals


def sample_iid(M: int, K: int, rng: RngStream, row_power: np.ndarray | None = None) -> np.ndarray:
    """M x K matrix of independent circularly-symmetric complex normals.

    Entry (m, k) is CN(0, row_power[m]), or CN(0, 1) without row_power, so
    real and imaginary parts are each N(0, row_power[m] / 2). Bit-identical
    for identical (seed, stream).
    """
    parts = sample_normals(M, K, rng)
    return scale_normals(parts, row_scale(row_power), np.empty((M, K), dtype=np.complex128))


def correlation_eigenvalues(M: int, r: float) -> np.ndarray:
    """The M eigenvalues of R_ij = r**|i - j|, bisected for one M alone in a
    fixed 64 steps: channel.exp_correlation_eigenvalues for a single antenna
    count, without its early stop (see there for the method)."""
    if not (M >= 1 and 0.0 < r < 1.0):
        raise ValueError(f"need M >= 1 and 0 < r < 1, got M={M}, r={r}")
    edges = np.arange(M + 1) * (np.pi / (M + 1))
    lo, hi = edges[:-1], edges[1:]

    def excess(theta):
        """phi(theta) - k pi, with k pi as (M + 1) times the top edge of bracket
        k: there the excess is 2 arg(1 - r e^(-i theta)) >= 0 exactly."""
        one_minus_cos = (1 - r) + 2 * r * np.sin(theta / 2) ** 2  # 1 - r cos(theta), no cancellation
        return (M + 1) * (theta - edges[1:]) + 2 * np.arctan2(r * np.sin(theta), one_minus_cos)

    if not (np.all(excess(lo) < 0) and np.all(excess(hi) >= 0)):
        raise ArithmeticError(f"a root bracket does not change sign at M={M}, r={r}")
    for _ in range(64):  # a bracket no wider than pi/2 halves to a few ulps
        mid = 0.5 * (lo + hi)
        below = excess(mid) < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return (1 - r) * (1 + r) / ((1 - r) ** 2 + 4 * r * np.sin(0.25 * (lo + hi)) ** 2)


def marchenko_pastur_edge_ratio(alpha: float) -> float:
    """Limit of the largest-to-smallest eigenvalue ratio of W = H^H H / M for
    an iid M x K H as M, K grow with M / K = alpha > 1: the ratio of the
    edges (1 + alpha^-1/2)^2 and (1 - alpha^-1/2)^2 of the Marchenko-Pastur
    law (Marchenko & Pastur, Math. USSR-Sbornik 1(4), 1967; Bai &
    Silverstein, Spectral Analysis of Large Dimensional Random Matrices,
    Springer 2010)."""
    if not alpha > 1.0:
        raise ValueError(f"need alpha > 1, got {alpha}")
    root = alpha**-0.5
    return ((1 + root) / (1 - root)) ** 2
