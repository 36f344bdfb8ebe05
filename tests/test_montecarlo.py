"""Sweep-harness tests: reproducibility, aggregation, validation, retry."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

import mimo_converge.montecarlo as mc
from mimo_converge.channel import (
    CorrelationSpec,
    RngStream,
    exp_correlation_eigenvalues,
    sample_gram_factor,
    sample_iid,
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


def _scenario(**kw):
    base = dict(mode=FIXED_ALPHA, alpha=10.0, sweep=(10,), trials=50, seed=1)
    base.update(kw)
    return Scenario(**base)


_FIXED_K_BASE = dict(mode=FIXED_K, K=4, sweep=(16,), trials=3, seed=1)


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
        # they read H's and the gains make H differ from G
        calls = 0

        def spy(A, conj=None):
            nonlocal calls
            calls += 1
            return gram_normalized(A, conj)

        monkeypatch.setattr(mc, "gram_normalized", spy)
        run_scenario(_scenario(trials=7, **kw))
        assert calls == 7 * grams


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

        def spy(A, conj=None):
            channels.append(A.copy())
            return gram_normalized(A, conj)

        monkeypatch.setattr(mc, "gram_normalized", spy)
        run_scenario(Scenario(mode=FIXED_K, K=4, sweep=(16,), trials=2, seed=1,
                              correlation=CorrelationSpec(0.8, spacing=1.5)))
        expected = exp_correlation_eigenvalues(16, 0.8**1.5)
        assert [H.tobytes() for H in channels] == [
            sample_iid(16, 4, RngStream(1, t), row_power=expected).tobytes() for t in range(2)
        ]


class TestDegenerateRetry:
    def test_clean_runs_report_zero(self):
        assert run_scenario(_scenario(trials=20)).points[0].degenerate_trials == 0


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
        assert run_scenario(scenario, workers=workers) == stacked

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
        # two per worker, the channel H and the conjugate inside a Gram, whose
        # memory also takes the normals: no trial may hold a third
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
}


def _count_normals(monkeypatch):
    """Count the raw M x K draws the harness makes."""
    streams = []
    original = mc.sample_normals

    def spy(M, K, rng, out=None):
        streams.append(rng.stream)
        return original(M, K, rng, out=out)

    monkeypatch.setattr(mc, "sample_normals", spy)
    return streams


class TestRunScenarios:
    @pytest.mark.parametrize("stack_bytes", [None, 1], ids=["stacked", "one-per-stack"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("run", sorted(SHARED_RUNS))
    def test_equals_separate_runs(self, run, workers, stack_bytes, monkeypatch):
        scenarios, _ = SHARED_RUNS[run]
        if stack_bytes is not None:
            monkeypatch.setattr(mc, "_STACK_BYTES", stack_bytes)
        separate = [run_scenario(s, workers=workers) for s in scenarios]
        assert run_scenarios(scenarios, workers=workers) == separate

    @pytest.mark.parametrize("run", sorted(SHARED_RUNS))
    def test_one_raw_draw_per_trial_per_group(self, run, monkeypatch):
        scenarios, draws = SHARED_RUNS[run]
        streams = _count_normals(monkeypatch)
        run_scenarios(scenarios, workers=2)
        assert len(streams) == draws

    def test_retry_stays_with_its_scenario(self, monkeypatch):
        # a zero column in rho = 0.5's channel of trial 2 makes its Gram
        # singular; rho = 0.9 shares the draw, and must neither see the
        # degenerate trial nor pay for its retry
        trials = 10
        pair = [_scenario(trials=trials, correlation=CorrelationSpec(rho)) for rho in (0.5, 0.9)]
        singular_scale = mc.row_scale(exp_correlation_eigenvalues(100, 0.5))
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

    def test_infeasible_scenario_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a trial ran before the configuration was rejected")

        for name in ("sample_normals", "sample_gram_factor"):
            monkeypatch.setattr(mc, name, no_draw)
        ok = _scenario(trials=3, correlation=CorrelationSpec(0.5))
        infeasible = dataclasses.replace(ok, alpha=0.5)  # M < K with ZF on
        with pytest.raises(ConfigError, match="M > K"):
            run_scenarios([ok, infeasible])

    def test_shared_correlated_pair_holds_three_draws(self):
        # per worker: the shared normals, the channel H and the conjugate
        # inside a Gram, one 16384 x 50 draw each
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
        assert peak < 3.5 * M * K * 16
