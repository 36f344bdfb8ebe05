"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. Monte Carlo targets use fixed seeds, so outcomes are
reproducible; tolerances leave several standard errors of margin.
"""

import time

import numpy as np
import pytest

from mimo_converge.channel import CorrelationSpec, RngStream
from mimo_converge.cli import main
from mimo_converge.montecarlo import FIXED_ALPHA, FIXED_K, Scenario, run_scenario
from mimo_converge.numerics import gram_normalized, inverse_trace
from mimo_converge.power import PowerProfile, limiting_moments, link_gains

from oracles import sample_iid

PROFILE = PowerProfile(beta_min=0.1, beta_max=1.0)
SEED = 20240901


def _check(num: int, description: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {description}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def unequal_k50_run():
    """Shared by criteria 3 and 4: unequal powers, K=50, M=500, ZF+MF."""
    scenario = Scenario(
        mode=FIXED_ALPHA, alpha=10.0, sweep=(50,), trials=1000, seed=SEED,
        profile=PROFILE, compute_metrics=False,
    )
    return run_scenario(scenario).points[0]


def test_criterion_01_zf_equal_power_limit():
    scenario = Scenario(
        mode=FIXED_ALPHA, alpha=10.0, sweep=(10,), trials=1000, seed=SEED,
        compute_metrics=False, compute_mf=False,
    )
    start = time.perf_counter()
    point = run_scenario(scenario).points[0]
    elapsed = time.perf_counter() - start
    mean = point.stats["zf_snr"].mean
    gap = abs(mean - 9.0) / 9.0
    _check(
        1, "ZF equal-power limit (K=10, M=100)",
        gap <= 0.05 and elapsed < 10.0,
        f"mean={mean:.4f} target=9.0 gap={100 * gap:.2f}% runtime={elapsed:.1f}s",
    )


def test_criterion_02_mf_equal_power_limit_and_convergence_order():
    scenario = Scenario(
        mode=FIXED_ALPHA, alpha=10.0, sweep=(10, 50), trials=1000, seed=SEED,
        compute_metrics=False, compute_zf=False,
    )
    start = time.perf_counter()
    points = run_scenario(scenario).points
    elapsed = time.perf_counter() - start
    gaps = {p.K: abs(p.stats["mf_sinr_mean"].mean - 5.0) / 5.0 for p in points}
    mean_50 = points[1].stats["mf_sinr_mean"].mean
    _check(
        2, "MF equal-power limit (K=50, M=500) and slower small-K convergence",
        gaps[50] <= 0.10 and gaps[10] > gaps[50] and elapsed < 60.0,
        f"mean(K=50)={mean_50:.4f} target=5.0 gap={100 * gaps[50]:.2f}%, "
        f"gap(K=10)={100 * gaps[10]:.2f}%, runtime={elapsed:.1f}s",
    )


def test_criterion_03_zf_unequal_power_limit(unequal_k50_run):
    # confirm the closed-form moment against the brute-force midpoint sum
    # before using it as the target
    K_oracle = 10**6
    oracle = float((1.0 / link_gains(K_oracle, PROFILE)).mean())
    _, mean_inv_beta = limiting_moments(PROFILE)
    assert mean_inv_beta == pytest.approx(oracle, rel=1e-6)

    target = 1.0 * (10.0 - 1.0) / mean_inv_beta
    mean = unequal_k50_run.stats["zf_snr"].mean
    gap = abs(mean - target) / target
    _check(
        3, "ZF unequal-power limit (K=50, M=500, beta 0.1..1)",
        gap <= 0.05,
        f"mean={mean:.4f} target={target:.4f} (mean_inv_beta={mean_inv_beta:.5f} "
        f"vs oracle {oracle:.5f}) gap={100 * gap:.2f}%",
    )


def test_criterion_04_mf_unequal_per_user_limits(unequal_k50_run):
    point = unequal_k50_run
    gaps = []
    for i in range(1, point.K + 1):
        s = point.stats[f"mf_sinr_user_{i:03d}"]
        assert s.limit is not None
        gaps.append(abs(s.mean - s.limit) / s.limit)
    worst = max(gaps)
    _check(
        4, "MF unequal-power per-user limits (K=50, M=500)",
        worst <= 0.10,
        f"worst per-user gap={100 * worst:.2f}% (median {100 * float(np.median(gaps)):.2f}%)",
    )


def test_criterion_05_inverse_wishart_trace_identity():
    M, K, trials = 40, 10, 10_000
    results = {}
    for label, beta in (("equal", np.ones(K)), ("unequal", link_gains(K, PROFILE))):
        expected = float((1.0 / beta).sum()) / (M - K)
        traces = np.empty(trials)
        for t in range(trials):
            G = sample_iid(M, K, RngStream(SEED + 1, t)) * np.sqrt(beta)
            traces[t] = inverse_trace(gram_normalized(G))
        results[label] = (traces.mean(), expected)
    ok = all(abs(m - e) / e <= 0.02 for m, e in results.values())
    detail = "; ".join(
        f"{label}: mean={m:.5f} expected={e:.5f} ({100 * abs(m - e) / e:.2f}%)"
        for label, (m, e) in results.items()
    )
    _check(5, "inverse-Wishart trace identity (K=10, M=40, 1e4 trials)", ok, detail)


def test_criterion_06_gram_entry_variance_law():
    M, K, trials = 64, 4, 100_000
    chunk = 25_000
    diag_vals, off_vals = [], []
    for c in range(trials // chunk):
        H = sample_iid(M, K * chunk, RngStream(SEED + 2, c)).reshape(M, chunk, K)
        W = np.einsum("mti,mtj->tij", H.conj(), H) / M
        diag_vals.append(np.einsum("tii->ti", W).real.ravel())
        iu, ju = np.triu_indices(K, k=1)
        off_vals.append(W[:, iu, ju].ravel())
    var_diag = float(np.var(np.concatenate(diag_vals), ddof=1))
    var_off = float(np.var(np.concatenate(off_vals), ddof=1))
    ok = abs(var_diag - 1 / M) / (1 / M) <= 0.10 and abs(var_off - 1 / M) / (1 / M) <= 0.10
    _check(
        6, "Gram entry variance law Var=1/M (M=64, 1e5 trials)",
        ok,
        f"diag var={var_diag:.6f}, off-diag var={var_off:.6f}, target={1 / M:.6f}",
    )


def test_criterion_07_figure_anchors():
    s50 = Scenario(
        mode=FIXED_K, K=50, sweep=(100, 500), trials=1000, seed=SEED + 3,
        compute_zf=False, compute_mf=False,
    )
    s10 = Scenario(
        mode=FIXED_K, K=10, sweep=(100,), trials=1000, seed=SEED + 3,
        compute_zf=False, compute_mf=False,
    )
    p100, p500 = run_scenario(s50).points
    p10 = run_scenario(s10).points[0]
    mad_500 = p500.stats["mad"].mean
    ratio_500 = p500.stats["lambda_ratio"].mean
    factor = p100.stats["lambda_ratio"].mean / p10.stats["lambda_ratio"].mean
    ok = mad_500 < 0.05 and 3.0 <= ratio_500 <= 5.0 and factor > 8.0
    _check(
        7, "figure anchors (MAD, lambda ratio, K=50 vs K=10 spread)",
        ok,
        f"MAD(K=50,M=500)={mad_500:.4f} (<0.05); lambda_ratio={ratio_500:.2f} (in [3,5]); "
        f"K50/K10 ratio at M=100 = {factor:.2f} (>8)",
    )


def test_criterion_08_diagonal_dominance_scaling():
    def fitted_slope(scenario):
        points = run_scenario(scenario).points
        sizes = [p.M for p in points]
        means = [p.stats["diagonal_dominance"].mean for p in points]
        return float(np.polyfit(np.log(sizes), np.log(means), 1)[0])

    slope_fixed_k = fitted_slope(
        Scenario(mode=FIXED_K, K=10, sweep=(64, 128, 256, 512, 1024, 2048, 4096),
                 trials=400, seed=SEED + 4, compute_zf=False, compute_mf=False)
    )
    slope_fixed_alpha = fitted_slope(
        Scenario(mode=FIXED_ALPHA, alpha=10.0, sweep=(8, 16, 32, 64, 128),
                 trials=400, seed=SEED + 4, compute_zf=False, compute_mf=False)
    )
    ok = abs(slope_fixed_k - 0.5) <= 0.1 and abs(slope_fixed_alpha + 0.5) <= 0.1
    _check(
        8, "diagonal-dominance scaling M^{+1/2} / M^{-1/2}",
        ok,
        f"fixed-K slope={slope_fixed_k:+.3f} (target +0.5); "
        f"fixed-alpha slope={slope_fixed_alpha:+.3f} (target -0.5)",
    )


def test_criterion_09_correlation_penalty_ordering():
    means = {}
    for rho in (0.0, 0.5, 0.9):
        scenario = Scenario(
            mode=FIXED_ALPHA, alpha=10.0, sweep=(10,), trials=1000, seed=SEED + 5,
            correlation=CorrelationSpec(rho) if rho else None, compute_metrics=False,
        )
        p = run_scenario(scenario).points[0]
        means[rho] = (p.stats["zf_snr"].mean, p.stats["mf_sinr_mean"].mean)
    zf = {rho: v[0] for rho, v in means.items()}
    mf = {rho: v[1] for rho, v in means.items()}
    ordering = zf[0.0] > zf[0.5] > zf[0.9] and mf[0.0] > mf[0.5] > mf[0.9]
    # the 15% proximity claim concerns the per-user SNR; the MF SINR penalty
    # at rho=0.5 is structurally ~25% here (interference grows with the
    # second moment of the correlation profile) and is reported for context
    zf_prox = abs(zf[0.5] - zf[0.0]) / zf[0.0]
    mf_prox = abs(mf[0.5] - mf[0.0]) / mf[0.0]
    _check(
        9, "correlation penalty ordering (K=10, M=100)",
        ordering and zf_prox <= 0.15,
        f"ZF iid/0.5/0.9 = {zf[0.0]:.3f}/{zf[0.5]:.3f}/{zf[0.9]:.3f} "
        f"(rho=0.5 within {100 * zf_prox:.1f}% of iid); "
        f"MF iid/0.5/0.9 = {mf[0.0]:.3f}/{mf[0.5]:.3f}/{mf[0.9]:.3f} "
        f"(rho=0.5 within {100 * mf_prox:.1f}%)",
    )


def test_criterion_10_preset_byte_determinism(tmp_path):
    mismatches = []
    for preset in ("fig4", "fig6"):
        blobs = []
        for run, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{preset}_{run}.csv"
            code = main(
                ["--preset", preset, "--trials", "3", "--seed", "42",
                 "--workers", workers, "--output", str(out)]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        if not (blobs[0] == blobs[1] == blobs[2]):
            mismatches.append(preset)
    _check(
        10, "preset byte determinism (same seed, 1 and 4 workers)",
        not mismatches,
        f"presets fig4, fig6 x 3 runs each; mismatches: {mismatches or 'none'}",
    )


def test_criterion_11_eta_invariance():
    reference = link_gains(64, PowerProfile(0.1, 1.0, eta=0.5))
    identical = all(
        np.array_equal(reference, link_gains(64, PowerProfile(0.1, 1.0, eta=eta)))
        for eta in (0.3, 0.5, 0.9)
    )
    _check(
        11, "eta-invariance of link gains",
        identical,
        "gains bit-identical for eta in {0.3, 0.5, 0.9} (K=64, beta 0.1..1)",
    )
