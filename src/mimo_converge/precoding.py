"""ZF and MF downlink precoders: per-realization SNR/SINR and their limits.

Both precoders are normalized to unit average transmit power via a constant
gamma computed from the channel Gram matrix. Zero forcing nulls inter-user
interference, so each user sees a common SNR; the matched filter keeps the
interference, so each user sees an individual SINR. All values are linear
scale; averaging in dB would change the statistic.
"""

from __future__ import annotations

import numpy as np

from .numerics import inverse_trace


def zf_snr_from_gram(gram: np.ndarray, rho_f: float) -> float:
    """ZF per-user SNR given the precomputed K x K column Gram of G."""
    return rho_f / inverse_trace(gram)


def zf_snr_limit(rho_f: float, alpha: float, mean_inv_beta: float) -> float:
    """Large-system ZF SNR: rho_f (alpha - 1) / mean inverse link gain."""
    if alpha <= 1:
        raise ValueError(f"ZF limit requires alpha > 1, got {alpha}")
    if mean_inv_beta <= 0:
        raise ValueError(f"mean_inv_beta must be positive, got {mean_inv_beta}")
    return rho_f * (alpha - 1.0) / mean_inv_beta


def mf_sinr_from_gram(gram: np.ndarray, rho_f: float) -> np.ndarray:
    """MF per-user SINR given the precomputed K x K column Gram of G.

    Signal power for user i is |gram_ii|^2 and the interference is
    sum_{k != i} |gram_ik|^2, both manifestly real and nonnegative.
    """
    K = gram.shape[0]
    gamma = float(gram.diagonal().real.sum()) / K
    if gamma <= 0.0:
        raise ValueError("G must be nonzero")
    c = rho_f / (K * gamma)
    power = np.abs(gram) ** 2
    signal = power.diagonal()
    interference = power.sum(axis=1) - signal
    return c * signal / (1.0 + c * interference)


def mf_sinr_limit(rho_f: float, alpha: float, beta_i: float, mean_beta: float) -> float:
    """Large-system MF SINR of a user with link gain beta_i.

    rho_f * alpha * beta_i^2 / (mean_beta * (1 + rho_f * beta_i)); equal
    powers (beta_i = mean_beta = 1) reduce it to rho_f * alpha / (rho_f + 1).
    """
    if beta_i <= 0 or mean_beta <= 0:
        raise ValueError("beta_i and mean_beta must be positive")
    return rho_f * alpha * beta_i**2 / (mean_beta * (1.0 + rho_f * beta_i))
