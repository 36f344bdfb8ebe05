"""The paper's headline as a rate: the channel metrics converge to their
large-system limits more slowly in M than the ZF/MF precoder properties.

One run at alpha = 10 over K = 8..128 (M = 80..1280) with all statistics
on. Each statistic's gap to its limit is fitted as a power of M by least
squares on log-log axes, and its rate is the negated slope:
- the metrics: the mean MAD (limit 0) and the distance of the mean
  eigenvalue ratio from the Marchenko-Pastur edge ratio, whose
  fluctuations shrink as M^-1/2 and the largest-eigenvalue edge as M^-2/3
  (Johnstone, Ann. Statist. 29(2), 2001);
- the precoders: the coefficient of variation std/mean of the ZF SNR and
  of the mean MF SINR, and the MF mean's relative gap to its limit, a bias
  of order 1/M.

On seeds 1 to 10 the largest metric rate was 0.60-0.65 and the smallest
precoder rate 0.93-1.01; the smallest precoder rate exceeded the largest
metric rate by 0.31-0.37. MARGIN was fixed from those seeds before the
test's own seed was first run.
"""

import numpy as np
import pytest

from mimo_converge.montecarlo import FIXED_ALPHA, Scenario, run_scenario

from oracles import marchenko_pastur_edge_ratio

ALPHA = 10.0
SWEEP = (8, 16, 32, 64, 128)
SEED = 2015
MARGIN = 0.2


def _rate(M: np.ndarray, gaps: list[float]) -> float:
    """Least-squares rate r of gaps ~ M^-r."""
    return -float(np.polyfit(np.log(M), np.log(gaps), 1)[0])


def test_metrics_converge_more_slowly_than_precoders():
    points = run_scenario(
        Scenario(mode=FIXED_ALPHA, alpha=ALPHA, sweep=SWEEP, trials=200, seed=SEED), workers=2
    ).points
    M = np.array([p.M for p in points], dtype=float)
    edge = marchenko_pastur_edge_ratio(ALPHA)
    gaps = {
        "mad": [p.stats["mad"].mean for p in points],
        "lambda_ratio": [abs(p.stats["lambda_ratio"].mean - edge) for p in points],
        "zf_cv": [p.stats["zf_snr"].std / p.stats["zf_snr"].mean for p in points],
        "mf_cv": [p.stats["mf_sinr_mean"].std / p.stats["mf_sinr_mean"].mean for p in points],
        "mf_rel_gap": [p.stats["mf_sinr_mean"].rel_gap for p in points],
    }
    rates = {name: _rate(M, g) for name, g in gaps.items()}
    metric = max(rates["mad"], rates["lambda_ratio"])
    precoder = min(rates["zf_cv"], rates["mf_cv"], rates["mf_rel_gap"])
    detail = ", ".join(f"{name} {rate:.3f}" for name, rate in rates.items())
    assert metric + MARGIN <= precoder, detail


def test_marchenko_pastur_edge_ratio():
    assert marchenko_pastur_edge_ratio(10.0) == pytest.approx(3.7054, abs=1e-4)
    assert marchenko_pastur_edge_ratio(4.0) == pytest.approx(9.0)  # ((1 + 1/2) / (1 - 1/2))^2
    with pytest.raises(ValueError):
        marchenko_pastur_edge_ratio(1.0)
