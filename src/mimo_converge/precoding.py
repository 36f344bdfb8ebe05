"""ZF and MF downlink precoders: per-realization SNR/SINR and their limits.

Both precoders are normalized to unit average transmit power via a constant
gamma computed from the channel Gram matrix. Zero forcing nulls inter-user
interference, so each user sees a common SNR; the matched filter keeps the
interference, so each user sees an individual SINR. All values are linear
scale; averaging in dB would change the statistic. The per-realization
functions take one K x K Gram or a stack of shape (..., K, K).
"""

from __future__ import annotations

import numpy as np

from .numerics import inverse_trace


def zf_snr_from_gram(gram: np.ndarray, rho_f: float, factor: np.ndarray | None = None) -> np.ndarray:
    """ZF per-user SNR rho_f / tr(gram^{-1}) given the K x K column Gram of G.

    The trace comes from LAPACK's triangular inverse of a triangular factor
    of the Gram (numerics.inverse_trace): G itself where G is upper
    triangular, as a gain-scaled Bartlett factor is, passed as factor,
    which the inverse may overwrite; else the Gram's Cholesky factor.
    """
    return rho_f / inverse_trace(gram, factor)


def zf_snr_limit(rho_f: float, alpha: float, mean_inv_beta: float) -> float:
    """Large-system ZF SNR: rho_f (alpha - 1) / mean inverse link gain, for
    alpha > 1 and a positive mean."""
    return rho_f * (alpha - 1.0) / mean_inv_beta


def mf_sinr_from_gram(gram: np.ndarray, rho_f: float) -> np.ndarray:
    """MF per-user SINR, shape (..., K), given the K x K column Gram of G.

    Signal power for user i is |gram_ii|^2 and the interference is
    sum_{k != i} |gram_ik|^2, both manifestly real and nonnegative. A
    random draw has a nonzero Gram, so the normalization gamma is positive.
    """
    K = gram.shape[-1]
    gamma = np.diagonal(gram, axis1=-2, axis2=-1).real.sum(axis=-1) / K
    c = (rho_f / (K * gamma))[..., np.newaxis]
    power = np.abs(gram) ** 2
    signal = np.diagonal(power, axis1=-2, axis2=-1)
    interference = power.sum(axis=-1) - signal
    return c * signal / (1.0 + c * interference)


def mf_sinr_limit(rho_f: float, alpha: float, beta_i: float, mean_beta: float) -> float:
    """Large-system MF SINR of a user with link gain beta_i > 0.

    rho_f * alpha * beta_i^2 / (mean_beta * (1 + rho_f * beta_i)); equal
    powers (beta_i = mean_beta = 1) reduce it to rho_f * alpha / (rho_f + 1).
    """
    return rho_f * alpha * beta_i**2 / (mean_beta * (1.0 + rho_f * beta_i))
