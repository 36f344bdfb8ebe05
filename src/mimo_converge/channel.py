"""Correlated Rayleigh channel generation with deterministic link gains.

The downlink channel is an M x K complex matrix built in three steps:
an iid CN(0, 1) matrix, an optional transmit-side correlation coloring
for a uniform linear array, and per-user link-gain scaling of the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .numerics import psd_sqrt

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream, fully determined by (seed, stream).

    Each pair keys an independent 128-bit Philox generator, so trials can be
    assigned stream = trial index and distributed over any number of workers
    without coordination or loss of reproducibility.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be nonnegative")

    def generator(self) -> np.random.Generator:
        key = (self.seed & _MASK64) | ((self.stream & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class CorrelationSpec:
    """Exponential correlation profile of a uniform linear array.

    Antennas i and j at distance spacing*|i - j| have correlation
    rho ** (spacing*|i - j|); with the default spacing of 1.0, rho is the
    correlation between adjacent elements.
    """

    rho: float
    spacing: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")


@dataclass(frozen=True)
class ChannelSample:
    """One channel realization and its factors."""

    H_iid: np.ndarray
    H: np.ndarray
    G: np.ndarray
    beta: np.ndarray


def sample_iid(M: int, K: int, rng: RngStream) -> np.ndarray:
    """M x K matrix of iid circularly-symmetric CN(0, 1) entries.

    Real and imaginary parts are each N(0, 1/2), so every entry has unit
    average power. Bit-identical for identical (seed, stream).
    """
    if M < 1 or K < 1:
        raise ValueError(f"M and K must be positive, got M={M}, K={K}")
    parts = rng.generator().standard_normal((2, M, K))
    # Multiplying by the reciprocal gives the same bits as dividing the
    # complex matrix by sqrt(2); dividing the parts in place would not.
    parts *= 1.0 / np.sqrt(2.0)
    H = np.empty((M, K), dtype=np.complex128)
    H.real = parts[0]
    H.imag = parts[1]
    return H


def exp_correlation_matrix(M: int, spec: CorrelationSpec) -> np.ndarray:
    """M x M exponential correlation matrix of a uniform linear array.

    Real symmetric Toeplitz with unit diagonal; positive definite for
    rho < 1 (rho = 0 gives the identity).
    """
    if M < 1:
        raise ValueError(f"M must be positive, got {M}")
    first_row = spec.rho ** (spec.spacing * np.arange(M))
    return scipy.linalg.toeplitz(first_row)


def apply_correlation(R_sqrt: np.ndarray, H_iid: np.ndarray) -> np.ndarray:
    """Color an iid channel with a correlation square root: R_sqrt @ H_iid."""
    R_sqrt = np.asarray(R_sqrt)
    H_iid = np.asarray(H_iid)
    if R_sqrt.ndim != 2 or R_sqrt.shape[0] != R_sqrt.shape[1]:
        raise ValueError(f"R_sqrt must be square, got shape {R_sqrt.shape}")
    if H_iid.ndim != 2 or H_iid.shape[0] != R_sqrt.shape[1]:
        raise ValueError(
            f"dimension mismatch: R_sqrt is {R_sqrt.shape}, H_iid is {H_iid.shape}"
        )
    return R_sqrt @ H_iid


def apply_link_gains(H: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Scale column j of H by sqrt(beta_j)."""
    H = np.asarray(H)
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.shape[0] != H.shape[1]:
        raise ValueError(
            f"beta length {beta.shape} does not match column count {H.shape[1]}"
        )
    if not (beta > 0).all():
        raise ValueError("all link gains must be positive")
    return H * np.sqrt(beta)[np.newaxis, :]


@lru_cache(maxsize=16)
def _correlation_sqrt_cached(M: int, rho: float, spacing: float) -> np.ndarray:
    S = psd_sqrt(exp_correlation_matrix(M, CorrelationSpec(rho, spacing)))
    S.flags.writeable = False
    return S


def correlation_sqrt(M: int, spec: CorrelationSpec) -> np.ndarray:
    """Principal square root of the ULA correlation matrix.

    Cached per (M, rho, spacing) since it dominates the per-sweep-point setup
    cost; the returned array is read-only and shared across trials.
    """
    return _correlation_sqrt_cached(M, spec.rho, spec.spacing)


def sample_channel(
    M: int,
    K: int,
    beta: np.ndarray,
    rng: RngStream,
    correlation: CorrelationSpec | None = None,
) -> ChannelSample:
    """Draw one full channel realization.

    With correlation disabled (None or rho = 0) the colored channel is the
    iid draw itself, and with unit link gains the scaled channel is the
    colored one.
    """
    H_iid = sample_iid(M, K, rng)
    if correlation is None or correlation.rho == 0.0:
        H = H_iid
    else:
        H = apply_correlation(correlation_sqrt(M, correlation), H_iid)
    beta = np.asarray(beta, dtype=float)
    G = H if beta.shape == (K,) and (beta == 1.0).all() else apply_link_gains(H, beta)
    return ChannelSample(H_iid=H_iid, H=H, G=G, beta=beta)
