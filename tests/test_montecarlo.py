"""Sweep-harness tests: reproducibility, aggregation, validation, retry."""

import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimo_converge.montecarlo as mc
from mimo_converge.channel import (
    CorrelationSpec,
    RngStream,
    exp_correlation_eigenvalues,
    sample_gram_factor,
)
from mimo_converge.metrics import diagonal_dominance, lambda_ratio, mad
from mimo_converge.montecarlo import (
    FIXED_ALPHA,
    FIXED_K,
    ConfigError,
    Scenario,
    StatSummary,
    run_scenario,
    run_scenarios,
    sweep_points,
)
from mimo_converge.numerics import SingularMatrixError, gram_normalized, inverse_trace
from mimo_converge.power import PowerProfile, link_gains
from mimo_converge.precoding import mf_sinr_from_gram, zf_snr_from_gram
from mimo_converge.presets import build_preset

from oracles import sample_iid


def _scenario(**kw):
    base = dict(mode=FIXED_ALPHA, alpha=10.0, sweep=(10,), trials=50, seed=1)
    base.update(kw)
    return Scenario(**base)


_FIXED_K_BASE = dict(mode=FIXED_K, K=4, sweep=(16,), trials=3, seed=1)

# 0.999999 ** 1e-10 is 1 - 2**-53: R keeps one eigenvalue above the tolerance
_RANK_ONE = CorrelationSpec(0.999999, spacing=1e-10)


def _forbid_draws(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a trial ran before the configuration was rejected")

    for name in ("sample_normals", "sample_gram_factor"):
        monkeypatch.setattr(mc, name, no_draw)


class TestSweepPoints:
    def test_fixed_k_points(self):
        s = Scenario(mode=FIXED_K, K=10, sweep=(20, 40), trials=1, compute_zf=True)
        assert sweep_points(s) == [(20, 10), (40, 10)]

    def test_fixed_alpha_points(self):
        s = _scenario(sweep=(10, 20))
        assert sweep_points(s) == [(100, 10), (200, 20)]

    def test_non_integer_m_rejected(self):
        with pytest.raises(ConfigError, match="not an integer"):
            sweep_points(_scenario(alpha=2.5, sweep=(3,)))

    @pytest.mark.parametrize("alpha, sweep", [(1e-10, (1,)), (1e-12, (1, 2, 3))],
                             ids=["one-point", "every-point"])
    def test_fixed_alpha_m_rounding_to_zero_rejected(self, alpha, sweep):
        # MF alone has no M > K or M >= K check that would catch M = 0, and
        # the samplers take M >= 1 on trust
        s = _scenario(alpha=alpha, sweep=sweep, compute_zf=False, compute_metrics=False)
        with pytest.raises(ConfigError, match="rounds to M = 0"):
            sweep_points(s)

    def test_unsorted_sweep_rejected(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            sweep_points(_scenario(sweep=(20, 10)))

    def test_zf_needs_m_above_k(self):
        s = Scenario(mode=FIXED_K, K=10, sweep=(5, 10, 20), trials=1)
        with pytest.raises(ConfigError, match="M > K"):
            sweep_points(s)

    def test_metrics_need_m_at_least_k(self):
        s = Scenario(mode=FIXED_K, K=10, sweep=(5, 8), trials=1,
                     compute_zf=False, compute_mf=False)
        with pytest.raises(ConfigError, match=r"M >= K.*\(5, 10\), \(8, 10\)"):
            sweep_points(s)

    def test_metrics_need_two_users(self):
        s = Scenario(mode=FIXED_K, K=1, sweep=(4,), trials=1,
                     compute_zf=False, compute_mf=False)
        with pytest.raises(ConfigError, match=r"K >= 2.*\(4, 1\)"):
            sweep_points(s)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rho_f_rejected(self, value):
        with pytest.raises(ConfigError, match="rho_f"):
            sweep_points(_scenario(rho_f=value))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, value):
        with pytest.raises(ConfigError, match="alpha"):
            sweep_points(_scenario(alpha=value))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            sweep_points(_scenario(seed=seed))

    @pytest.mark.parametrize("field", [
        dict(K=4.5), dict(sweep=(16.7,)), dict(sweep=(8, 16.0)),
        dict(trials=3.5), dict(seed=1.5), dict(seed="7"),
    ])
    def test_non_integer_rejected(self, field):
        s = Scenario(**{**_FIXED_K_BASE, **field})
        with pytest.raises(ConfigError, match="must be integers"):
            sweep_points(s)

    @pytest.mark.parametrize("numpy_field, plain_field", [
        (dict(K=np.int64(4), sweep=(np.int32(16),)), dict(K=4, sweep=(16,))),
        (dict(trials=np.int16(3)), dict(trials=3)),
        (dict(seed=np.uint64(5)), dict(seed=5)),
    ])
    def test_numpy_integers_accepted(self, numpy_field, plain_field):
        numpy_run = run_scenario(Scenario(**{**_FIXED_K_BASE, **numpy_field}))
        assert numpy_run == run_scenario(Scenario(**{**_FIXED_K_BASE, **plain_field}))

    def test_mode_field_exclusivity(self):
        with pytest.raises(ConfigError):
            sweep_points(Scenario(mode=FIXED_K, K=4, alpha=2.0, sweep=(8,)))
        with pytest.raises(ConfigError):
            sweep_points(Scenario(mode=FIXED_ALPHA, alpha=2.0, K=4, sweep=(8,)))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError, match="no values"):
            run_scenario(Scenario(mode=FIXED_K, K=4, sweep=(), trials=3))

    def test_bad_mode_and_empty_stats(self):
        with pytest.raises(ConfigError, match="mode"):
            sweep_points(Scenario(mode="both", sweep=(2,), K=1))
        with pytest.raises(ConfigError, match="statistics"):
            sweep_points(
                _scenario(compute_metrics=False, compute_zf=False, compute_mf=False)
            )


class TestReproducibility:
    def test_single_trial_rerun_identical(self):
        s = _scenario(trials=1)
        assert run_scenario(s) == run_scenario(s)

    def test_worker_count_independence(self):
        s = _scenario(trials=40, correlation=CorrelationSpec(0.5))
        serial = run_scenario(s, workers=1)
        threaded = run_scenario(s, workers=4)
        assert serial == threaded  # exact float equality, not approx

    def test_seed_changes_results(self):
        a = run_scenario(_scenario(seed=1))
        b = run_scenario(_scenario(seed=2))
        assert a.points[0].stats["zf_snr"].mean != b.points[0].stats["zf_snr"].mean


class TestAggregation:
    def test_summary_relations(self):
        p = run_scenario(_scenario(trials=64)).points[0]
        s = p.stats["zf_snr"]
        assert s.trials == 64
        assert s.stderr == pytest.approx(s.std / 8.0)

    def test_stderr_shrinks_with_trials(self):
        small = run_scenario(_scenario(trials=200)).points[0].stats["zf_snr"].stderr
        large = run_scenario(_scenario(trials=800)).points[0].stats["zf_snr"].stderr
        assert small / large == pytest.approx(2.0, rel=0.20)

    @pytest.mark.parametrize("T", [1, 2, 3, 7, 8, 9, 10, 16, 60, 100, 129, 1000, 1001, 4097])
    def test_summaries_have_the_bits_of_one_reduction_per_statistic(self, T):
        # a point's statistics are summarised by one mean and one std call
        # over their stacked rows; 106 rows are fig7's at K = 100
        n = 106
        rng = np.random.default_rng(T)
        values = rng.standard_normal((T, n)) * np.logspace(-3, 3, n) + np.arange(n)
        limits = [None, 1.5, *range(n - 2)]
        alone = []
        for column, limit in zip(values.T, limits):
            column = column.copy()
            std = float(column.std(ddof=1)) if T > 1 else 0.0
            alone.append(StatSummary(float(column.mean()), std, std / math.sqrt(T), T, limit))
        assert [repr(s) for s in mc._summaries(values.T, limits)] == [repr(s) for s in alone]

    def test_single_trial_has_zero_spread(self):
        s = run_scenario(_scenario(trials=1)).points[0].stats["zf_snr"]
        assert s.std == 0.0 and s.stderr == 0.0

    def test_mf_user_mean_is_mean_of_users(self):
        p = run_scenario(_scenario(trials=30, sweep=(4,))).points[0]
        users = [p.stats[f"mf_sinr_user_{i:03d}"].mean for i in range(1, 5)]
        assert p.stats["mf_sinr_mean"].mean == pytest.approx(np.mean(users), rel=1e-12)

    def test_limits_attached_when_alpha_above_one(self):
        p = run_scenario(
            _scenario(trials=10, profile=PowerProfile(0.1, 1.0), sweep=(5,))
        ).points[0]
        assert p.stats["zf_snr"].limit is not None
        user_limits = [p.stats[f"mf_sinr_user_{i:03d}"].limit for i in range(1, 6)]
        assert p.stats["mf_sinr_mean"].limit == pytest.approx(np.mean(user_limits))
        assert p.stats["mad"].limit is None

    def test_no_limits_at_alpha_below_one(self):
        s = Scenario(
            mode=FIXED_K, K=8, sweep=(5,), trials=10, seed=1,
            compute_metrics=False, compute_zf=False, compute_mf=True,
        )
        p = run_scenario(s).points[0]
        assert set(p.stats) == {"mf_sinr_mean"} | {f"mf_sinr_user_{i:03d}" for i in range(1, 9)}
        assert all(v.limit is None for v in p.stats.values())


class TestConvergenceBehaviour:
    def test_lambda_ratio_decreases_toward_one(self):
        s = Scenario(
            mode=FIXED_K, K=10, sweep=(20, 100, 1000, 10_000), trials=40, seed=3,
            compute_zf=False, compute_mf=False,
        )
        means = [p.stats["lambda_ratio"].mean for p in run_scenario(s).points]
        assert all(a > b for a, b in zip(means, means[1:]))
        assert means[-1] < 1.2
        assert all(m > 1.0 for m in means)

    def test_zf_close_to_limit_already_at_k10(self):
        (p,) = run_scenario(_scenario(trials=400)).points
        assert p.stats["zf_snr"].rel_gap < 0.05

    def test_mf_converges_slower_than_zf(self):
        (p,) = run_scenario(_scenario(trials=400)).points
        assert p.stats["mf_sinr_mean"].rel_gap > p.stats["zf_snr"].rel_gap


class TestGramSource:
    def test_g_based_metrics_reflect_link_gains(self):
        # with unequal gains the Gram of G carries the gain spread in its
        # spectrum, so its eigenvalue ratio dwarfs the H-based one
        kw = dict(trials=30, profile=PowerProfile(0.1, 1.0), compute_zf=False, compute_mf=False)
        on_h = run_scenario(_scenario(gram_source="H", **kw)).points[0]
        on_g = run_scenario(_scenario(gram_source="G", **kw)).points[0]
        assert on_g.stats["lambda_ratio"].mean > 3 * on_h.stats["lambda_ratio"].mean

    def test_sources_identical_for_equal_power_iid(self):
        on_h = run_scenario(_scenario(gram_source="H", trials=20))
        on_g = run_scenario(_scenario(gram_source="G", trials=20))
        for name in ("mad", "lambda_ratio", "diagonal_dominance"):
            assert on_h.points[0].stats[name] == on_g.points[0].stats[name]

    def test_bad_source_rejected(self):
        with pytest.raises(ConfigError, match="gram_source"):
            sweep_points(_scenario(gram_source="W"))


class TestRelGap:
    def test_zero_gap_when_mean_equals_limit(self):
        stat = StatSummary(mean=9.0, std=0.1, stderr=0.01, trials=100, limit=9.0)
        assert stat.rel_gap == 0.0

    def test_gap_relative_to_limit_magnitude(self):
        stat = StatSummary(mean=-3.0, std=0.1, stderr=0.01, trials=100, limit=-4.0)
        assert stat.rel_gap == 0.25

    @pytest.mark.parametrize("mean, gap", [(3.0, np.inf), (-3.0, np.inf), (0.0, np.nan)])
    def test_zero_limit_gives_the_ieee_quotient(self, mean, gap):
        stat = StatSummary(mean=mean, std=0.0, stderr=0.0, trials=3, limit=0.0)
        np.testing.assert_equal(stat.rel_gap, gap)

    def test_statistics_without_limits_have_no_gap(self):
        (p,) = run_scenario(_scenario(compute_zf=False, compute_mf=False, trials=5)).points
        assert p.stats and all(s.rel_gap is None for s in p.stats.values())


class TestOneGramPerMatrix:
    @pytest.mark.parametrize("kw, grams", [
        (dict(), 1),
        (dict(profile=PowerProfile(0.1, 1.0)), 2),
        (dict(profile=PowerProfile(0.1, 1.0), compute_zf=False, compute_mf=False), 1),
        (dict(profile=PowerProfile(0.1, 1.0), gram_source="G"), 1),
    ], ids=["equal-powers", "profile-source-H", "metrics-only-source-H", "source-G"])
    def test_grams_per_trial(self, kw, grams, monkeypatch):
        # the precoders read the Gram of G; the metrics read it too, unless
        # they read H's and the gains make H differ from G. A call forms one
        # Gram per matrix of its stack.
        formed = 0

        def spy(A):
            nonlocal formed
            formed += A[..., 0, 0].size
            return gram_normalized(A)

        monkeypatch.setattr(mc, "gram_normalized", spy)
        run_scenario(_scenario(trials=7, **kw))
        assert formed == 7 * grams


class TestDrawChoice:
    @pytest.mark.parametrize("scenario, expected", [
        (Scenario(mode=FIXED_K, K=8, sweep=(4, 16), trials=2, seed=1,
                  compute_metrics=False, compute_zf=False),
         {("sample_normals", 4), ("sample_gram_factor", 16)}),
        (Scenario(mode=FIXED_K, K=4, sweep=(16,), trials=2, seed=1, correlation=CorrelationSpec(0.0)),
         {("sample_gram_factor", 16)}),
        (Scenario(mode=FIXED_K, K=4, sweep=(16,), trials=2, seed=1, correlation=CorrelationSpec(0.5)),
         {("sample_normals", 16)}),
    ], ids=["mf-only-M-below-K", "rho-zero", "correlated"])
    def test_bartlett_factor_only_without_correlation_and_M_at_least_K(
        self, scenario, expected, monkeypatch
    ):
        # an M < K Wishart is singular, and a correlated Gram has no
        # triangular factor of this law: both keep the M x K draw
        drawn = set()
        for name in ("sample_normals", "sample_gram_factor"):
            def spy(M, K, rng, _name=name, _draw=getattr(mc, name), **kw):
                drawn.add((_name, M))
                return _draw(M, K, rng, **kw)

            monkeypatch.setattr(mc, name, spy)
        run_scenario(scenario)
        assert drawn == expected

    def test_correlated_draw_scales_rows_by_the_eigenvalues_of_r(self, monkeypatch):
        # at equal powers the one Gram per trial is H's: H must be the
        # sample_iid draw of the trial's stream with R's eigenvalues as row powers
        channels = []

        def spy(A):
            channels.append(A.copy())
            return gram_normalized(A)

        monkeypatch.setattr(mc, "gram_normalized", spy)
        run_scenario(Scenario(mode=FIXED_K, K=4, sweep=(16,), trials=2, seed=1,
                              correlation=CorrelationSpec(0.8, spacing=1.5)))
        [expected] = exp_correlation_eigenvalues([16], 0.8**1.5)
        assert [H.tobytes() for H in channels] == [
            sample_iid(16, 4, RngStream(1, t), row_power=expected).tobytes() for t in range(2)
        ]


class TestDegenerateRetry:
    def test_clean_runs_report_zero(self):
        assert run_scenario(_scenario(trials=20)).points[0].degenerate_trials == 0


def _record_chunks(monkeypatch):
    """Record the stack size of every point the harness runs."""
    chunks = []
    original = mc._schedule

    def spy(*args):
        schedule = original(*args)
        chunks.append(schedule[1])
        return schedule

    monkeypatch.setattr(mc, "_schedule", spy)
    return chunks


def _gram_stack(M, K, trials, seed):
    beta = link_gains(K, PowerProfile(0.1, 1.0))
    return np.stack([
        gram_normalized(sample_iid(M, K, RngStream(seed, t)) * np.sqrt(beta))
        for t in range(trials)
    ])


STACKED_STATISTICS = {
    "mad": lambda W: mad(W - np.eye(W.shape[-1])),
    "lambda_ratio": lambda_ratio,
    "diagonal_dominance": diagonal_dominance,
    "inverse_trace": inverse_trace,
    "zf_snr": lambda W: zf_snr_from_gram(W, 2.0),
    "mf_sinr": lambda W: mf_sinr_from_gram(W, 2.0),
}


class TestStackedKernel:
    @pytest.mark.parametrize("K", [5, 20, 100, 256])
    @pytest.mark.parametrize("name", sorted(STACKED_STATISTICS))
    def test_stack_slice_bitwise_equals_single_matrix(self, name, K):
        stat = STACKED_STATISTICS[name]
        stack = _gram_stack(2 * K, K, trials=3, seed=K)
        stacked = stat(stack)
        for i in range(stack.shape[0]):
            assert stacked[i].tobytes() == stat(stack[i]).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("scenario", [
        Scenario(mode=FIXED_ALPHA, alpha=2.0, sweep=(5, 20, 50), trials=13, seed=3,
                 profile=PowerProfile(0.1, 1.0), compute_metrics=False),
        Scenario(mode=FIXED_K, K=8, sweep=(16, 64), trials=13, seed=4,
                 correlation=CorrelationSpec(0.9), profile=PowerProfile(0.2, 1.0),
                 gram_source="G", compute_zf=False, compute_mf=False),
    ], ids=["precoder", "correlated-metrics-G"])
    def test_results_independent_of_stack_size(self, scenario, workers, monkeypatch):
        stacked = run_scenario(scenario, workers=workers)
        monkeypatch.setattr(mc, "_STACK_BYTES", 1)  # one trial per stack
        chunks = _record_chunks(monkeypatch)
        assert run_scenario(scenario, workers=workers) == stacked
        assert set(chunks) == {1}

    @pytest.mark.parametrize("draw, correlation, retry_singular", [
        ("sample_gram_factor", None, False),
        ("sample_normals", CorrelationSpec(0.5), False),
        ("sample_gram_factor", None, True),
        ("sample_normals", CorrelationSpec(0.5), True),
    ], ids=["iid", "correlated", "iid-retry-singular", "correlated-retry-singular"])
    def test_singular_gram_inside_a_stack_is_retried_once(self, draw, correlation, retry_singular, monkeypatch):
        trials = 10
        singular = {2, trials + 2} if retry_singular else {2}
        draws = []
        original = getattr(mc, draw)

        def zero_column(M, K, rng, **kw):
            draws.append(rng.stream)
            H = original(M, K, rng, **kw)
            if rng.stream in singular:
                H[..., 1] = 0.0  # column 1 of the factor, or of both parts of the normals
            return H

        def replaced(M, K, rng, **kw):
            # the draw that the retry of trial 2 makes, in slot 2
            stream = trials + 2 if rng.stream == 2 else rng.stream
            return original(M, K, RngStream(rng.seed, stream), **kw)

        s = _scenario(trials=trials, correlation=correlation)
        monkeypatch.setattr(mc, draw, zero_column)
        if retry_singular:  # a trial still degenerate after its one retry fails the run
            with pytest.raises(SingularMatrixError):
                run_scenario(s)
            assert draws.count(2) == 2 and draws.count(trials + 2) == 1
            return
        retried = run_scenario(s).points[0]
        assert retried.degenerate_trials == 1
        assert retried.stats["zf_snr"].trials == trials
        assert draws.count(2) == 2 and draws.count(trials + 2) == 1
        monkeypatch.setattr(mc, draw, replaced)
        clean = run_scenario(s).points[0]
        assert clean.degenerate_trials == 0
        assert retried.stats == clean.stats

    def test_one_draw_alive_at_a_time(self):
        # one 16384 x 50 draw is M*K*16 bytes; a lone correlated scenario holds
        # two per worker, the normals and the channel H: no trial may hold a third
        M, K = 16384, 50
        s = Scenario(mode=FIXED_K, K=K, sweep=(M,), trials=6, seed=1,
                     correlation=CorrelationSpec(0.5), compute_zf=False, compute_mf=False)
        tracemalloc.start()
        try:
            run_scenario(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * M * K * 16

    def test_uncorrelated_trials_allocate_no_draw(self):
        # the Bartlett factor is K x K: a 16384 x 50 point never holds an
        # M x K array, which alone would take 12.5 MiB
        s = Scenario(mode=FIXED_K, K=50, sweep=(16384,), trials=6, seed=1,
                     compute_zf=False, compute_mf=False)
        tracemalloc.start()
        try:
            run_scenario(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


_CORR_GRID = dict(mode=FIXED_K, K=6, sweep=(4, 8, 24), trials=9, seed=5, compute_metrics=False)
_BARTLETT_GRID = dict(mode=FIXED_ALPHA, alpha=3.0, sweep=(2, 4, 8), trials=9, seed=7)
_METRICS_GRID = dict(mode=FIXED_ALPHA, alpha=3.0, sweep=(2, 4), trials=9, seed=6,
                     correlation=CorrelationSpec(0.6), profile=PowerProfile(0.2, 1.0))

# Runs whose scenarios share draws, or must not, and how many raw M x K
# draws (sample_normals calls) each makes: one per trial per group.
SHARED_RUNS = {
    "fig6": (build_preset("fig6", seed=3, trials=5), 5 * 5),
    "fig7": (build_preset("fig7", seed=3, trials=5), 5 * 5),
    # M = 4 < K draws the normals in both; the correlated one alone draws
    # them at M = 8 and 24, where the uncorrelated one takes the Bartlett factor
    "correlated-and-iid": ([
        Scenario(**_CORR_GRID, correlation=CorrelationSpec(0.7), compute_zf=False),
        Scenario(**_CORR_GRID, compute_zf=False),
    ], 3 * 9),
    "unequal-seeds": ([
        Scenario(**{**_CORR_GRID, "sweep": (8, 24)}, correlation=CorrelationSpec(0.7)),
        Scenario(**{**_CORR_GRID, "sweep": (8, 24), "seed": 4}, correlation=CorrelationSpec(0.7)),
    ], 2 * 2 * 9),
    "unequal-trials": ([
        Scenario(**{**_CORR_GRID, "sweep": (8, 24)}, correlation=CorrelationSpec(0.7)),
        Scenario(**{**_CORR_GRID, "sweep": (8, 24), "trials": 8}, correlation=CorrelationSpec(0.5)),
    ], 2 * 9 + 2 * 8),
    "metrics-gram-H-and-G": ([
        Scenario(**_METRICS_GRID, gram_source="H"),
        Scenario(**_METRICS_GRID, gram_source="G", compute_zf=False, compute_mf=False),
        Scenario(**{**_METRICS_GRID, "correlation": CorrelationSpec(0.9)}, gram_source="G"),
    ], 2 * 9),
    # a stack of Bartlett factors for each of the three: each scales its own
    # in place, and none sees another's gains
    "factor-stack-gains-scaled-in-place": ([
        Scenario(**_BARTLETT_GRID, profile=PowerProfile(0.2, 1.0)),
        Scenario(**_BARTLETT_GRID),
        Scenario(**_BARTLETT_GRID, profile=PowerProfile(0.5, 1.0), gram_source="G"),
    ], 0),
    "factor-stack-gains-scaled-aside": ([
        Scenario(**_BARTLETT_GRID, profile=PowerProfile(0.2, 1.0)),
        Scenario(**_BARTLETT_GRID, profile=PowerProfile(0.5, 1.0), gram_source="G"),
        Scenario(**_BARTLETT_GRID),
    ], 0),
}


# How many Bartlett factors (sample_gram_factor calls) each of those runs
# draws: one per trial per scenario, as no two scenarios share a stack.
FACTOR_DRAWS = {
    "fig6": 0,
    "fig7": 0,
    "correlated-and-iid": 2 * 9,  # the uncorrelated one at M = 8 and 24
    "unequal-seeds": 0,
    "unequal-trials": 0,
    "metrics-gram-H-and-G": 0,
    "factor-stack-gains-scaled-in-place": 3 * 3 * 9,
    "factor-stack-gains-scaled-aside": 3 * 3 * 9,
}


def _count_draws(monkeypatch, name):
    """Count the harness's calls of its draw function name, by stream."""
    streams = []
    original = getattr(mc, name)

    def spy(M, K, rng, out=None):
        streams.append(rng.stream)
        return original(M, K, rng, out=out)

    monkeypatch.setattr(mc, name, spy)
    return streams


def _count_normals(monkeypatch):
    """Count the raw M x K draws the harness makes."""
    return _count_draws(monkeypatch, "sample_normals")


class TestRunScenarios:
    @pytest.mark.parametrize("stack_bytes", [None, 1], ids=["stacked", "one-per-stack"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("run", sorted(SHARED_RUNS))
    def test_equals_separate_runs(self, run, workers, stack_bytes, monkeypatch):
        scenarios, _ = SHARED_RUNS[run]
        if stack_bytes is not None:
            monkeypatch.setattr(mc, "_STACK_BYTES", stack_bytes)
        chunks = _record_chunks(monkeypatch)
        separate = [run_scenario(s, workers=workers) for s in scenarios]
        assert run_scenarios(scenarios, workers=workers) == separate
        if stack_bytes is not None:  # no point of these runs goes to the pool
            assert set(chunks) == {1}

    @pytest.mark.parametrize("run", sorted(SHARED_RUNS))
    def test_one_raw_draw_per_trial_per_group(self, run, monkeypatch):
        scenarios, draws = SHARED_RUNS[run]
        streams = _count_normals(monkeypatch)
        run_scenarios(scenarios, workers=2)
        assert len(streams) == draws

    @pytest.mark.parametrize("run", sorted(SHARED_RUNS))
    def test_one_factor_draw_per_trial_per_scenario(self, run, monkeypatch):
        # a stack of Bartlett factors is scaled and inverted in place, so
        # each scenario draws its own, as many as it draws alone
        scenarios, _ = SHARED_RUNS[run]
        streams = _count_draws(monkeypatch, "sample_gram_factor")
        for s in scenarios:
            run_scenario(s, workers=2)
        assert len(streams) == FACTOR_DRAWS[run]
        streams.clear()
        run_scenarios(scenarios, workers=2)
        assert len(streams) == FACTOR_DRAWS[run]

    def test_retry_stays_with_its_scenario(self, monkeypatch):
        # a zero column in rho = 0.5's channel of trial 2 makes its Gram
        # singular; rho = 0.9 shares the draw, and must neither see the
        # degenerate trial nor pay for its retry
        trials = 10
        pair = [_scenario(trials=trials, correlation=CorrelationSpec(rho)) for rho in (0.5, 0.9)]
        singular_scale = mc.row_scale(exp_correlation_eigenvalues([100], 0.5)[0])
        local = threading.local()
        original_draw, original_scale = mc.sample_normals, mc.scale_normals

        def draw(M, K, rng, out=None):
            local.stream = rng.stream
            return original_draw(M, K, rng, out=out)

        def scale(parts, factor, out):
            H = original_scale(parts, factor, out)
            if local.stream == 2 and np.array_equal(factor, singular_scale):
                H[:, 1] = 0.0
            return H

        monkeypatch.setattr(mc, "sample_normals", draw)
        monkeypatch.setattr(mc, "scale_normals", scale)
        for workers in (1, 2):
            separate = [run_scenario(s, workers=workers) for s in pair]
            assert [r.points[0].degenerate_trials for r in separate] == [1, 0]
            streams = _count_normals(monkeypatch)
            assert run_scenarios(pair, workers=workers) == separate
            # trial 2 is drawn for the pair, once more when rho = 0.5 runs its
            # stack trial by trial, and its retry draws stream trials + 2
            assert set(streams) == {*range(trials), trials + 2}
            assert streams.count(2) == 2 and streams.count(trials + 2) == 1
            monkeypatch.setattr(mc, "sample_normals", draw)

    def test_no_more_streams_than_trials(self, monkeypatch):
        built = []

        def spy(*args):
            built.append(args)
            return RngStream(*args)

        monkeypatch.setattr(mc, "RngStream", spy)
        run_scenarios([_scenario(trials=2)], workers=1000)
        assert 1 <= len(built) <= 2

    @pytest.mark.parametrize("change, message", [
        (dict(alpha=0.5), "M > K"),  # M < K with ZF on
        (dict(sweep=(5,), correlation=_RANK_ONE), "fewer than K = 5 eigenvalues"),
        # alpha*K = 1e-10 rounds to M = 0, with only MF on, which no M check guards
        (dict(alpha=1e-10, sweep=(1,), compute_zf=False, compute_metrics=False, correlation=None),
         "M >= 1"),
        (dict(alpha=1e-10, sweep=(1,), compute_zf=False, compute_metrics=False), "M >= 1"),
    ], ids=["sweep-infeasible", "rank-deficient", "zero-M", "zero-M-correlated"])
    def test_infeasible_scenario_rejected_before_any_draw(self, change, message, monkeypatch):
        # the second scenario fails its plan only after the first is planned
        _forbid_draws(monkeypatch)
        ok = _scenario(trials=3, correlation=CorrelationSpec(0.5))
        with pytest.raises(ConfigError, match=message):
            run_scenarios([ok, dataclasses.replace(ok, **change)])

    @pytest.mark.parametrize("workers", [0, -3, 2.5])
    def test_invalid_workers_rejected_before_any_draw(self, workers, monkeypatch):
        _forbid_draws(monkeypatch)
        with pytest.raises(ConfigError, match="workers must be"):
            run_scenario(_scenario(trials=3), workers=workers)

    def test_shared_correlated_pair_holds_two_draws(self):
        # per worker: the shared normals and the channel H, one 16384 x 50
        # draw each; the Gram of H needs no conjugate copy of it
        M, K = 16384, 50
        pair = [Scenario(mode=FIXED_K, K=K, sweep=(M,), trials=6, seed=1,
                         correlation=CorrelationSpec(rho), compute_zf=False, compute_mf=False)
                for rho in (0.5, 0.9)]
        tracemalloc.start()
        try:
            run_scenarios(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * M * K * 16


_FIG5_POINTS = dict(mode=FIXED_ALPHA, alpha=10.0, trials=13, seed=8, profile=PowerProfile(0.1, 1.0),
                    compute_metrics=False)
# Points on both sides of the pool rule: Bartlett precoders at K = 5 and 100,
# Bartlett metrics at K = 16 and 64, and fig7's M x K normals at K = 10 and 50.
SCHEDULE_RUNS = {
    "bartlett-precoder": [Scenario(**_FIG5_POINTS, sweep=(5, 100))],
    "bartlett-metrics": [Scenario(mode=FIXED_ALPHA, alpha=2.0, sweep=(16, 64), trials=21, seed=9,
                                  profile=PowerProfile(0.2, 1.0))],
    "correlated-pair": [Scenario(**_FIG5_POINTS, sweep=(10, 50), correlation=CorrelationSpec(rho))
                        for rho in (0.5, 0.9)],
}


class _SpyPool(mc.ThreadPoolExecutor):
    """The harness's pool, counting the points it is handed."""

    maps = 0

    def map(self, *args, **kwargs):
        type(self).maps += 1
        return super().map(*args, **kwargs)


class TestSchedule:
    @pytest.mark.parametrize("K, T, workers, metrics, chunk", [
        # one worker: stacks within the 256 KiB byte cap, all trials at most
        (10, 1000, 1, True, 163), (50, 12, 1, True, 6), (50, 1000, 1, False, 6),
        (256, 1000, 1, True, 1), (5, 60, 1, False, 60),
        # pooled: every worker gets a stack
        (50, 60, 2, False, 6), (100, 60, 2, False, 1), (10, 60, 2, False, 30),
        # pooled metrics: more than 500 eigenvalues per eigvalsh call, past the cap
        (50, 1000, 2, True, 11), (64, 1000, 2, True, 8), (256, 1000, 3, True, 2),
        (8, 1000, 2, True, 256), (10, 60, 2, True, 51),
    ])
    def test_chunk_rule(self, K, T, workers, metrics, chunk):
        # 16384 x K normals are large enough to pool on every worker
        assert mc._schedule(16384, K, T, workers, False, metrics) == (workers, chunk)

    @pytest.mark.parametrize("K", [2, 8, 10, 50, 64, 100, 128, 256])
    def test_pooled_metrics_stacks_release_the_gil(self, K):
        workers, chunk = mc._schedule(16384, K, 1000, 2, False, True)
        assert workers == 2 and chunk * K > mc._EIGVALSH_NOGIL

    @given(
        st.integers(1, 20000), st.integers(1, 300), st.integers(1, 2000),
        st.integers(1, 8), st.booleans(), st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_schedule_is_a_fixed_point_that_feeds_every_worker(self, M, K, T, workers, bartlett, metrics):
        n, chunk = mc._schedule(M, K, T, workers, bartlett, metrics)
        assert 1 <= n <= workers and chunk >= 1
        assert -(-T // chunk) >= n  # each of the n workers gets a stack
        assert mc._schedule(M, K, T, n, bartlett, metrics) == (n, chunk)
        if n > 1 and metrics:
            assert chunk * K > mc._EIGVALSH_NOGIL

    @pytest.mark.parametrize("M, K, T, workers, bartlett, metrics, expected", [
        # Bartlett points: K^3 decides, from K = 32 with or without the metrics
        (50, 5, 60, 2, True, False, 1), (200, 20, 60, 2, True, False, 1),
        (310, 31, 60, 2, True, False, 1), (320, 32, 60, 2, True, False, 2),
        (500, 50, 60, 2, True, False, 2), (1000, 100, 60, 2, True, False, 2),
        (310, 31, 1000, 2, True, True, 1), (320, 32, 1000, 2, True, True, 2),
        (16384, 10, 1000, 2, True, True, 1),
        (64, 50, 1000, 2, True, True, 2), (640, 64, 1000, 2, True, True, 2),
        # M x K normals: M K^2 decides, from 146 x 15 (32 850 >= 32^3)
        (100, 10, 60, 2, False, False, 1), (145, 15, 60, 2, False, False, 1),
        (146, 15, 60, 2, False, False, 2), (150, 15, 60, 2, False, False, 2),
        (200, 20, 60, 2, False, False, 2), (500, 50, 60, 2, False, False, 2),
        (16384, 10, 60, 2, False, True, 2),
        # one worker, or one stack, runs alone
        (1000, 100, 60, 1, True, False, 1), (1000, 100, 1, 2, True, False, 1),
        (640, 64, 8, 2, True, True, 1),
        # no more workers than stacks
        (1000, 100, 2, 3, True, False, 2), (1000, 100, 60, 3, True, False, 3),
    ])
    def test_pool_rule(self, M, K, T, workers, bartlett, metrics, expected):
        assert mc._schedule(M, K, T, workers, bartlett, metrics)[0] == expected

    @pytest.mark.parametrize("K, maps", [(5, 0), (50, 1), (100, 1)])
    def test_small_bartlett_point_never_reaches_the_pool(self, K, maps, monkeypatch):
        monkeypatch.setattr(_SpyPool, "maps", 0)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", _SpyPool)
        run_scenario(Scenario(**{**_FIG5_POINTS, "trials": 60}, sweep=(K,)), workers=2)
        assert _SpyPool.maps == maps

    @pytest.mark.parametrize("run", sorted(SCHEDULE_RUNS))
    def test_bytes_independent_of_workers(self, run, monkeypatch):
        scenarios = SCHEDULE_RUNS[run]
        one = run_scenarios(scenarios, workers=1)
        monkeypatch.setattr(_SpyPool, "maps", 0)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", _SpyPool)
        for workers in (2, 3):
            assert run_scenarios(scenarios, workers=workers) == one
        assert _SpyPool.maps == 2  # the larger point of each run, at 2 and 3 workers
        monkeypatch.setattr(mc, "_STACK_BYTES", 1)
        assert run_scenarios(scenarios, workers=2) == one

    @pytest.mark.parametrize("workers", [1, 2])
    def test_degenerate_trial_in_a_factor_stack_retries_on_its_own_stream(self, workers, monkeypatch):
        # trial 7 of a K = 50 point sits inside a stack of six factors
        trials = 24
        s = Scenario(**{**_FIG5_POINTS, "trials": trials}, sweep=(50,))
        original = mc.sample_gram_factor
        draws = []

        def zero_column(M, K, rng, out=None):
            draws.append((rng.stream, 1 if out is None else out.base.shape[0]))
            R = original(M, K, rng, out=out)
            if rng.stream == 7:
                R[:, 1] = 0.0
            return R

        monkeypatch.setattr(mc, "sample_gram_factor", zero_column)
        retried = run_scenario(s, workers=workers).points[0]
        assert retried.degenerate_trials == 1
        assert (7, 6) in draws  # first drawn inside a stack of six
        assert [stream for stream, _ in draws].count(7) == 2
        assert (trials + 7, 1) in draws

        def replaced(M, K, rng, out=None):
            stream = trials + 7 if rng.stream == 7 else rng.stream
            return original(M, K, RngStream(rng.seed, stream), out=out)

        monkeypatch.setattr(mc, "sample_gram_factor", replaced)
        assert run_scenario(s, workers=workers).points[0].stats == retried.stats


class TestCorrelationRank:
    @pytest.mark.parametrize("stats", [dict(compute_mf=False, compute_metrics=False),
                                       dict(compute_zf=False, compute_mf=False)],
                             ids=["zf", "metrics"])
    def test_rank_deficient_correlation_rejected_before_any_draw(self, stats, monkeypatch):
        _forbid_draws(monkeypatch)
        s = _scenario(sweep=(5,), trials=3, correlation=_RANK_ONE, **stats)
        with pytest.raises(ConfigError, match="fewer than K = 5 eigenvalues"):
            run_scenario(s)

    def test_mf_alone_runs_on_a_rank_deficient_correlation(self):
        s = _scenario(sweep=(5,), trials=3, correlation=_RANK_ONE, compute_zf=False, compute_metrics=False)
        assert run_scenario(s).points[0].stats["mf_sinr_mean"].trials == 3

    @pytest.mark.parametrize("correlation", [None, CorrelationSpec(0.0), CorrelationSpec(0.0, spacing=0.5)],
                             ids=["none", "rho-zero", "rho-zero-spaced"])
    def test_no_bisection_at_r_zero(self, correlation, monkeypatch):
        # exp_correlation_eigenvalues takes 0 < r < 1 on trust: the plan
        # never calls it for an uncorrelated scenario
        def no_bisection(Ms, r):
            raise AssertionError(f"bisected at r = {r}")

        monkeypatch.setattr(mc, "exp_correlation_eigenvalues", no_bisection)
        s = _scenario(sweep=(5,), trials=2, correlation=correlation)
        assert run_scenario(s).points[0].stats["zf_snr"].trials == 2

    def test_eigenvalues_once_per_correlated_scenario(self, monkeypatch):
        # fig7's two rho values at five K each: one bisection per scenario for
        # all its M, also beside a copy of fig7 on other gains with the same r
        calls = []
        original = mc.exp_correlation_eigenvalues

        def spy(Ms, r):
            calls.append((list(Ms), r))
            return original(Ms, r)

        monkeypatch.setattr(mc, "exp_correlation_eigenvalues", spy)
        fig7 = build_preset("fig7", seed=3, trials=2)
        run_scenarios(fig7, workers=2)
        assert [(len(Ms), r) for Ms, r in calls] == [(5, s.correlation.r) for s in fig7]
        calls.clear()
        other_gains = [dataclasses.replace(s, profile=PowerProfile(0.5, 1.0)) for s in fig7]
        together = run_scenarios(fig7 + other_gains, workers=2)
        assert len(calls) == 4
        assert together == [run_scenario(s, workers=2) for s in fig7 + other_gains]
