"""CLI tests: flag/file/preset precedence, output schema, exit codes."""

import csv
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimo_converge
import mimo_converge.cli as cli
import mimo_converge.montecarlo as montecarlo
from mimo_converge.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    emit,
    main,
    parse_config,
)
from mimo_converge.montecarlo import (
    FIXED_ALPHA,
    FIXED_K,
    ConfigError,
    Scenario,
    StatSummary,
    SweepPoint,
    SweepResult,
    run_scenario,
)
from mimo_converge.numerics import SingularMatrixError
from mimo_converge.power import PowerProfile
from mimo_converge.presets import PRESETS, build_preset


class TestParseConfig:
    def test_preset_fig1(self):
        config = parse_config(["--preset", "fig1"])
        assert [s.K for s in config.scenarios] == [10, 50]
        for s in config.scenarios:
            assert s.mode == FIXED_K
            assert s.correlation is None and s.profile is None
            assert s.compute_metrics and not s.compute_zf and not s.compute_mf
            assert max(s.sweep) >= 10_000

    def test_preset_fig5_with_seed_override(self):
        config = parse_config(["--preset", "fig5", "--seed", "7"])
        (s,) = config.scenarios
        assert s.mode == FIXED_ALPHA and s.alpha == 10.0
        assert s.profile == PowerProfile(0.1, 1.0)
        assert s.compute_zf and s.compute_mf and not s.compute_metrics
        assert s.seed == 7

    def test_explicit_fixed_alpha(self):
        config = parse_config(["--mode", "fixed-alpha", "--alpha", "10", "--K", "10:100:10"])
        (s,) = config.scenarios
        assert s.sweep == tuple(range(10, 101, 10))
        assert s.alpha == 10.0 and s.K is None

    def test_explicit_fixed_k(self):
        config = parse_config(["--mode", "fixed-K", "--K", "10", "--M", "20,40,80"])
        (s,) = config.scenarios
        assert s.K == 10 and s.sweep == (20, 40, 80)

    def test_contradictory_flags_name_both_keys(self):
        with pytest.raises(ConfigError, match=r"--alpha .*fixed-K"):
            parse_config(["--mode", "fixed-K", "--K", "10", "--M", "20", "--alpha", "5"])
        with pytest.raises(ConfigError, match=r"--M .*fixed-alpha"):
            parse_config(["--mode", "fixed-alpha", "--alpha", "2", "--K", "4", "--M", "8"])

    def test_preset_rejects_scenario_flags(self):
        with pytest.raises(ConfigError, match="corr-rho"):
            parse_config(["--preset", "fig1", "--corr-rho", "0.5"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["--bogus", "1"])

    def test_spacing_needs_corr_rho(self):
        with pytest.raises(ConfigError, match="corr-rho"):
            parse_config(["--mode", "fixed-K", "--K", "2", "--M", "4", "--spacing", "2.0"])

    def test_beta_range_needs_both_ends(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config(["--mode", "fixed-K", "--K", "2", "--M", "4", "--beta-min", "0.1"])

    def test_stats_subset(self):
        config = parse_config(
            ["--mode", "fixed-K", "--K", "8", "--M", "4,6", "--stats", "mf"]
        )
        (s,) = config.scenarios
        assert s.compute_mf and not s.compute_zf and not s.compute_metrics

    def test_out_of_range_rho_is_config_error(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config(["--mode", "fixed-K", "--K", "2", "--M", "4", "--corr-rho", "1.5"])

    def test_gram_source_flag(self):
        config = parse_config(
            ["--mode", "fixed-K", "--K", "4", "--M", "8,16", "--gram-source", "G"]
        )
        assert config.scenarios[0].gram_source == "G"

    def test_preset_fidelity(self):
        expectations = {
            # name -> (modes, metrics-only?, rhos, unequal?)
            "fig1": ([FIXED_K, FIXED_K], True, [], False),
            "fig2": ([FIXED_ALPHA], True, [], False),
            "fig3": ([FIXED_K, FIXED_ALPHA], True, [], False),
            "fig4": ([FIXED_ALPHA], False, [], False),
            "fig5": ([FIXED_ALPHA], False, [], True),
            "fig6": ([FIXED_ALPHA, FIXED_ALPHA], False, [0.5, 0.9], False),
            "fig7": ([FIXED_ALPHA, FIXED_ALPHA], False, [0.5, 0.9], True),
        }
        for name, (modes, metrics_only, rhos, unequal) in expectations.items():
            scenarios = parse_config(["--preset", name]).scenarios
            assert [s.mode for s in scenarios] == modes, name
            for s in scenarios:
                assert s.compute_metrics == metrics_only, name
                assert s.compute_zf == s.compute_mf == (not metrics_only), name
                assert (s.profile is not None) == unequal, name
                assert s.rho_f == 1.0 and s.trials == 1000, name
            assert [s.correlation.rho for s in scenarios if s.correlation] == rhos, name

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API")
    def test_default_workers_is_cpu_affinity(self):
        cfg = parse_config(["--preset", "fig4"])
        assert cfg.workers == len(os.sched_getaffinity(0))

    def test_env_seed_is_lowest_priority(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        config = parse_config(["--preset", "fig4"])
        assert config.scenarios[0].seed == 777
        config = parse_config(["--preset", "fig4", "--seed", "9"])
        assert config.scenarios[0].seed == 9

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-seed")
        with pytest.raises(ConfigError, match=cli.SEED_ENV_VAR):
            parse_config(["--preset", "fig4"])


def _flag_text(value) -> str:
    """The flag text that parses to a preset table's value."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


_PRESET_TABLE_FLAGS = sorted({
    (name, key, _flag_text(value))
    for name, (tables, _) in PRESETS.items() for table in tables for key, value in table.items()
})


class TestPresetsAreFlags:
    """A preset is a list of option tables that go through the flags' own path."""

    @pytest.mark.parametrize("name, key, text", _PRESET_TABLE_FLAGS)
    def test_table_keys_are_refused_beside_the_preset(self, name, key, text):
        with pytest.raises(ConfigError, match=f"already determines {re.escape(key)};"):
            parse_config(["--preset", name, f"--{key}", text])

    @pytest.mark.parametrize("name, flags", [
        ("fig2", ["--mode", "fixed-alpha", "--alpha", "10", "--K", "8,16,32,64,128,256",
                  "--stats", "metrics"]),
        ("fig4", ["--mode", "fixed-alpha", "--alpha", "10", "--K", "5,10,20,50,100",
                  "--stats", "zf,mf"]),
        ("fig5", ["--mode", "fixed-alpha", "--alpha", "10", "--K", "5,10,20,50,100",
                  "--beta-min", "0.1", "--beta-max", "1", "--stats", "zf,mf"]),
    ])
    def test_preset_equals_spelled_out_flags(self, name, flags):
        spelled = parse_config([*flags, "--seed", "5", "--trials", "9"]).scenarios
        assert build_preset(name, seed=5, trials=9) == spelled


class TestConfigFile:
    def test_file_values_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "mode = fixed-alpha\n"
            "alpha = 10\n"
            "K = 10,20\n"
            "trials = 7\n"
        )
        config = parse_config(["--config", str(cfg)])
        (s,) = config.scenarios
        assert s.alpha == 10.0 and s.sweep == (10, 20) and s.trials == 7

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = fixed-alpha\nalpha = 10\nK = 10\nseed = 5\n")
        config = parse_config(["--config", str(cfg), "--seed", "6"])
        assert config.scenarios[0].seed == 6

    def test_file_overrides_preset_trials(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = fig4\ntrials = 11\n")
        config = parse_config(["--config", str(cfg)])
        assert config.preset == "fig4"
        assert config.scenarios[0].trials == 11

    def test_file_key_a_preset_sets_is_refused(self, tmp_path):
        # the preset's keys are refused from the file as from the flags,
        # whichever of the two names the preset
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = fig4\nalpha = 5\n")
        with pytest.raises(ConfigError, match="already determines alpha;"):
            parse_config(["--config", str(cfg)])
        assert main(["--config", str(cfg), "--output", str(tmp_path / "out.csv")]) == EXIT_CONFIG
        cfg.write_text("alpha = 5\n")
        with pytest.raises(ConfigError, match="already determines alpha;"):
            parse_config(["--config", str(cfg), "--preset", "fig4"])
        assert not (tmp_path / "out.csv").exists()

    def test_refusal_names_the_preset_as_given(self, tmp_path):
        # the file's key, not a flag that was never given; a flag overrides the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = fig4\nalpha = 5\n")
        with pytest.raises(ConfigError, match="^preset fig4 already determines alpha;"):
            parse_config(["--config", str(cfg)])
        with pytest.raises(ConfigError, match="^--preset fig5 already determines alpha;"):
            parse_config(["--config", str(cfg), "--preset", "fig5"])

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("modes = fixed-K\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(["--config", str(cfg)])

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = many\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(["--config", str(cfg)])

    def test_file_mode_and_format_validated(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = bogus\nalpha = 10\nK = 5\n")
        with pytest.raises(ConfigError, match="unknown mode"):
            parse_config(["--config", str(cfg)])
        cfg.write_text("mode = fixed-alpha\nalpha = 10\nK = 5\nformat = xml\n")
        with pytest.raises(ConfigError, match="unknown format"):
            parse_config(["--config", str(cfg)])

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = fig4\ntrials = 5\n# later\ntrials = 7\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:4: duplicate key 'trials', first set on line 2"):
            parse_config(["--config", str(cfg)])


_FIXED_K = ["--mode", "fixed-K", "--K", "4", "--M", "8,16"]

# key -> (value, the other flags that make a complete configuration)
_ONE_OF_EACH = {
    "preset": ("fig4", []),
    "mode": ("fixed-K", ["--K", "4", "--M", "8,16"]),
    "K": ("4", ["--mode", "fixed-K", "--M", "8,16"]),
    "M": ("8:24:8", ["--mode", "fixed-K", "--K", "4"]),
    "alpha": ("10", ["--mode", "fixed-alpha", "--K", "2,4"]),
    "rho-f": ("2.5", _FIXED_K),
    "corr-rho": ("0.5", _FIXED_K),
    "spacing": ("2", [*_FIXED_K, "--corr-rho", "0.5"]),
    "beta-min": ("0.2", [*_FIXED_K, "--beta-max", "0.8"]),
    "beta-max": ("0.8", [*_FIXED_K, "--beta-min", "0.2"]),
    "eta": ("0.3", [*_FIXED_K, "--beta-min", "0.2", "--beta-max", "0.8"]),
    "trials": ("7", _FIXED_K),
    "seed": ("9", _FIXED_K),
    "workers": (str((os.cpu_count() or 1) + 1), _FIXED_K),  # above the default
    "output": ("x.json", _FIXED_K),
    "format": ("json", _FIXED_K),
    "stats": ("zf,mf", _FIXED_K),
    "gram-source": ("G", _FIXED_K),
}


class TestOptionTable:
    """Flags and config-file lines are two spellings of the same options."""

    def test_every_option_has_a_case(self):
        assert list(_ONE_OF_EACH) == list(cli._OPTIONS)

    @pytest.mark.parametrize("key", list(_ONE_OF_EACH))
    def test_flag_and_file_line_agree(self, key, tmp_path):
        value, others = _ONE_OF_EACH[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        from_flag = parse_config([*others, f"--{key}", value])
        assert parse_config([*others, "--config", str(cfg)]) == from_flag
        try:
            without = parse_config(others)
        except ConfigError:
            without = None
        assert without != from_flag  # the value took effect

    @pytest.mark.parametrize("key, value", [("gram-source", "X"), ("format", "xml"), ("mode", "bogus")])
    def test_value_outside_choices_rejected(self, key, value, tmp_path):
        others = ["--K", "4", "--M", "8,16"] if key == "mode" else _FIXED_K
        with pytest.raises(ConfigError, match=key):
            parse_config([*others, f"--{key}", value])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"run\\.cfg:1: unknown {key} '{value}'"):
            parse_config([*others, "--config", str(cfg)])

    def test_bad_flag_value_names_the_option(self):
        with pytest.raises(ConfigError, match=r"bad value '1:x' for 'K'.*a:b:step"):
            parse_config(["--mode", "fixed-alpha", "--alpha", "2", "--K", "1:x"])

    def test_readme_flag_list_is_the_table(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        flags = readme.read_text().split("\nFlags:", 1)[1].split("\n\n", 1)[0]
        assert re.findall(r"`(--[\w-]+)`", flags) == [f"--{key}" for key in cli._OPTIONS] + ["--config"]


def _tiny_config(tmp_path, fmt="csv", **kw):
    argv = [
        "--mode", "fixed-alpha", "--alpha", "10", "--K", "5,10",
        "--trials", "4", "--seed", "3",
        "--format", fmt,
        "--output", str(tmp_path / f"out.{fmt}"),
    ]
    for key, value in kw.items():
        argv += [f"--{key}", str(value)]
    return parse_config(argv)


class TestEmit:
    def test_empty_sweep_writes_header_only(self, tmp_path):
        config = _tiny_config(tmp_path)
        results = [SweepResult(scenario=config.scenarios[0], points=[])]
        path = emit(results, config)
        assert path.read_text() == ",".join(cli.CSV_COLUMNS) + "\n"

    def test_fig4_rows_have_limits(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["--preset", "fig4", "--trials", "2", "--output", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        stats = {r["statistic"] for r in rows}
        assert {"zf_snr", "mf_sinr_mean"} <= stats
        for r in rows:
            if r["statistic"] in ("zf_snr", "mf_sinr_mean"):
                assert r["limit"] != ""
            assert r["trials"] == "2"

    def test_csv_has_at_least_ten_significant_digits(self, tmp_path):
        config = _tiny_config(tmp_path)
        results = [run_scenario(s) for s in config.scenarios]
        emit(results, config)
        with open(config.output, newline="") as fh:
            row = next(csv.DictReader(fh))
        mean = results[0].points[0].stats[row["statistic"]].mean
        assert row["mean"] == format(mean, ".12g")
        assert float(row["mean"]) == pytest.approx(mean, rel=1e-10)

    def test_json_roundtrip_is_exact(self, tmp_path):
        config = _tiny_config(tmp_path, fmt="json")
        results = [run_scenario(s) for s in config.scenarios]
        emit(results, config)
        with open(config.output) as fh:
            payload = json.load(fh)
        point = results[0].points[0]
        by_stat = {
            (r["M"], r["statistic"]): r
            for r in payload["rows"]
        }
        for name, summary in point.stats.items():
            row = by_stat[(point.M, name)]
            assert row["mean"] == summary.mean  # exact, json floats round-trip
            assert row["std"] == summary.std
            assert row["limit"] == summary.limit

    def test_non_finite_statistics_are_null_in_json_and_kept_in_csv(self, tmp_path):
        stats = {
            "mad": StatSummary(mean=float("nan"), std=float("inf"), stderr=-float("inf"), trials=3),
            "zf_snr": StatSummary(mean=1.5, std=0.25, stderr=0.125, trials=3, limit=float("inf")),
        }
        point = SweepPoint(M=50, K=5, alpha=10.0, stats=stats)

        def reject_constant(name):
            raise ValueError(f"invalid JSON constant {name}")

        config = _tiny_config(tmp_path, fmt="json")
        emit([SweepResult(scenario=config.scenarios[0], points=[point])], config)
        payload = json.loads(config.output.read_text(), parse_constant=reject_constant)
        rows = {r["statistic"]: r for r in payload["rows"]}
        assert rows["mad"]["mean"] is None
        assert rows["mad"]["std"] is None and rows["mad"]["stderr"] is None
        assert rows["zf_snr"]["limit"] is None
        assert rows["zf_snr"]["mean"] == 1.5 and rows["zf_snr"]["stderr"] == 0.125

        config = _tiny_config(tmp_path)
        emit([SweepResult(scenario=config.scenarios[0], points=[point])], config)
        with open(config.output, newline="") as fh:
            rows = {r["statistic"]: r for r in csv.DictReader(fh)}
        assert (rows["mad"]["mean"], rows["mad"]["std"], rows["mad"]["stderr"]) == ("nan", "inf", "-inf")
        assert rows["zf_snr"]["limit"] == "inf"

    def test_numpy_integer_seed_written_as_integer(self, tmp_path):
        seed = np.uint64(2**63 + 1)
        scenario = Scenario(mode=FIXED_K, K=2, sweep=(4,), trials=2, seed=seed)
        results = [run_scenario(scenario)]
        config = _tiny_config(tmp_path)
        emit(results, config)
        with open(config.output, newline="") as fh:
            assert {r["seed"] for r in csv.DictReader(fh)} == {"9223372036854775809"}
        config = _tiny_config(tmp_path, fmt="json")
        emit(results, config)
        seeds = {r["seed"] for r in json.loads(config.output.read_text())["rows"]}
        assert seeds == {2**63 + 1}

    def test_config_echoed_in_every_row(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["--preset", "fig5", "--trials", "2", "--seed", "8", "--output", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert r["seed"] == "8"
            assert r["rho_f"] == "1"
            assert r["beta_min"] == "0.1" and r["beta_max"] == "1"
            assert r["corr_rho"] == "0"
            assert r["degenerate_trials"] == "0"


def _no_trials(M, K, rng, out=None):
    raise AssertionError("a trial ran before the configuration was rejected")


def _forbid_trials(monkeypatch):
    # both draws, so an uncorrelated and a correlated trial each trip it
    for draw in ("sample_normals", "sample_gram_factor"):
        monkeypatch.setattr(f"mimo_converge.montecarlo.{draw}", _no_trials)


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            ["--mode", "fixed-alpha", "--alpha", "10", "--K", "5",
             "--trials", "3", "--output", str(out)]
        )
        assert code == EXIT_OK
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_config_error_exit(self, capsys):
        assert main(["--mode", "fixed-K", "--K", "10"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_io_error_exit(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "sub.csv"  # path through a regular file
        code = main(
            ["--mode", "fixed-alpha", "--alpha", "10", "--K", "5",
             "--trials", "2", "--output", str(out)]
        )
        assert code == EXIT_IO
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "K, M", [("10", "5,8"), ("1", "4")], ids=["M-below-K", "single-user"]
    )
    def test_infeasible_metrics_sweep_is_config_error(self, K, M, tmp_path, monkeypatch, capsys):
        _forbid_trials(monkeypatch)
        out = tmp_path / "r.json"
        code = main(["--mode", "fixed-K", "--K", K, "--M", M, "--stats", "metrics",
                     "--trials", "2", "--format", "json", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corr", [[], ["--corr-rho", "0.5"]], ids=["iid", "correlated"])
    def test_alpha_rounding_m_to_zero_is_config_error(self, corr, tmp_path, monkeypatch, capsys):
        # alpha*K = 1e-10 passes as the integer M = 0: reject it before the
        # first draw, and before R's eigenvalues are bisected for it
        _forbid_trials(monkeypatch)
        out = tmp_path / "r.csv"
        code = main(["--mode", "fixed-alpha", "--alpha", "1e-10", "--K", "1", "--stats", "mf", *corr,
                     "--trials", "2", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "M >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--spacing", "nan"), ("--spacing", "inf"),
        ("--alpha", "nan"), ("--alpha", "inf"),
        ("--rho-f", "nan"), ("--rho-f", "inf"),
        ("--beta-max", "inf"),
    ])
    def test_non_finite_flag_is_config_error(self, flag, value, tmp_path, monkeypatch, capsys):
        _forbid_trials(monkeypatch)
        if flag == "--alpha":
            argv = ["--mode", "fixed-alpha", "--K", "2,4"]
        else:
            argv = ["--mode", "fixed-K", "--K", "4", "--M", "8,16"]
        if flag == "--spacing":
            argv += ["--corr-rho", "0.5"]
        if flag == "--beta-max":
            argv += ["--beta-min", "0.5"]
        out = tmp_path / "r.csv"
        code = main([*argv, flag, value, "--trials", "2", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_adjacent_correlation_rounding_to_one_is_config_error(self, tmp_path, monkeypatch, capsys):
        # 0.5 ** 1e-300 rounds to 1.0, where R is singular: reject it before any trial
        _forbid_trials(monkeypatch)
        out = tmp_path / "r.csv"
        code = main(["--mode", "fixed-K", "--K", "4", "--M", "8", "--corr-rho", "0.5",
                     "--spacing", "1e-300", "--trials", "2", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stats, code", [("zf", EXIT_CONFIG), ("metrics", EXIT_CONFIG), ("mf", EXIT_OK)])
    def test_rank_deficient_correlation_is_config_error_before_any_trial(
        self, stats, code, tmp_path, monkeypatch, capsys
    ):
        # 0.999999 ** 1e-10 is 1 - 2**-53: R keeps one eigenvalue above the
        # tolerance, so every ZF or metrics Gram at K = 5 is singular; MF runs
        if code == EXIT_CONFIG:
            _forbid_trials(monkeypatch)
        out = tmp_path / "r.csv"
        argv = ["--mode", "fixed-alpha", "--alpha", "10", "--K", "5", "--stats", stats, "--corr-rho", "0.999999",
                "--spacing", "1e-10", "--trials", "3", "--output", str(out)]
        assert main(argv) == code
        if code == EXIT_CONFIG:
            assert "fewer than K = 5 eigenvalues" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert out.exists()

    @pytest.mark.parametrize("beta_min, beta_max", [("1e-320", "1"), ("1e-310", "1e-5")],
                             ids=["mean-gain-zero", "mean-inverse-gain-infinite"])
    def test_gain_range_with_overflowing_moments_is_config_error(
        self, beta_min, beta_max, tmp_path, monkeypatch, capsys
    ):
        # the MF limit needs a positive mean gain, the ZF limit a finite mean inverse gain
        _forbid_trials(monkeypatch)
        out = tmp_path / "r.csv"
        code = main(["--mode", "fixed-alpha", "--alpha", "10", "--K", "5", "--beta-min", beta_min,
                     "--beta-max", beta_max, "--stats", "mf", "--trials", "5", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "limiting moments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--stats", "mf", "--beta-min", "1e200", "--beta-max", "1e200"], "overflows"),
        (["--stats", "mf", "--rho-f", "1e308"], "limit of mf_sinr_mean is inf"),
        (["--stats", "zf", "--rho-f", "1e308"], "limit of zf_snr is inf"),
    ], ids=["mf-gain-squared-overflows", "mf-limit-inf", "zf-limit-inf"])
    def test_non_finite_limit_is_config_error(self, flags, message, tmp_path, monkeypatch, capsys):
        # every point's limits are computed before the first trial
        _forbid_trials(monkeypatch)
        out = tmp_path / "r.csv"
        code = main(["--mode", "fixed-alpha", "--alpha", "10", "--K", "5", *flags,
                     "--trials", "2", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_limit_prints_a_nan_gap(self, tmp_path, capsys):
        # rho_f = 5e-324 rounds the ZF SNR and its limit to 0: the gap is 0/0
        out = tmp_path / "r.csv"
        code = main(["--mode", "fixed-alpha", "--alpha", "10", "--K", "5", "--rho-f", "5e-324",
                     "--beta-min", "0.001", "--beta-max", "0.001", "--stats", "zf",
                     "--trials", "3", "--output", str(out)])
        assert code == EXIT_OK
        assert "zf_snr=0 (limit 0, gap nan%)" in capsys.readouterr().out

    def test_seed_beyond_64_bits_is_config_error(self, tmp_path, monkeypatch, capsys):
        # a Philox key holds 64 seed bits; 2**64 must not alias seed 0
        _forbid_trials(monkeypatch)
        out = tmp_path / "r.csv"
        code = main([*_FIXED_K, "--seed", str(2**64), "--trials", "2", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_workers_is_config_error(self, tmp_path, monkeypatch, capsys):
        # run_scenarios checks workers, before the first trial
        _forbid_trials(monkeypatch)
        out = tmp_path / "r.csv"
        code = main([*_FIXED_K, "--workers", "0", "--trials", "2", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "workers must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("output", ["", ".", "nodir/x.csv"], ids=["empty", "directory", "missing-parent"])
    def test_unwritable_output_fails_before_trials(self, output, tmp_path, monkeypatch, capsys):
        _forbid_trials(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code = main([*_FIXED_K, "--trials", "2", "--output", output])
        assert code == EXIT_IO
        assert f"I/O error: cannot write output file {Path(output)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_numerical_failure_exit(self, tmp_path, monkeypatch, capsys):
        def explode(scenarios, workers=1):
            raise SingularMatrixError("synthetic failure")

        monkeypatch.setattr(cli, "run_scenarios", explode)
        code = main(["--preset", "fig4", "--trials", "2", "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestModuleEntryPoint:
    def _run(self, *args):
        env = dict(os.environ)
        src = str(Path(mimo_converge.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "mimo_converge.cli", *args],
                              env=env, capture_output=True, text=True, timeout=300)

    def test_config_error_exits_2(self):
        done = self._run("--mode", "fixed-K", "--K", "4", "--M", "8",
                         "--seed", "18446744073709551616")
        assert done.returncode == EXIT_CONFIG
        assert "configuration error" in done.stderr

    def test_one_trial_run_writes_its_file(self, tmp_path):
        out = tmp_path / "one.csv"
        done = self._run("--mode", "fixed-K", "--K", "4", "--M", "8", "--trials", "1",
                         "--workers", "1", "--output", str(out))
        assert done.returncode == EXIT_OK, done.stderr
        header, *rows = out.read_text().splitlines()
        assert header == ",".join(cli.CSV_COLUMNS) and rows


class TestRunAllFiguresScript:
    def test_writes_one_csv_per_preset(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_all_figures.py"),
             "--trials", "1", "--workers", "1", "--outdir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [f"fig{i}.csv" for i in range(1, 8)]

    def test_done_lines_carry_each_csv_sha256(self, tmp_path, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_figures.py"
        spec = importlib.util.spec_from_file_location("run_all_figures", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--trials", "2", "--workers", "1", "--outdir", str(tmp_path)]) == EXIT_OK
        done = re.findall(r"=== (\w+) done in .* -> (.+) sha256 ([0-9a-f]{64})$", capsys.readouterr().out, re.M)
        assert [name for name, _, _ in done] == list(PRESETS)
        for _, out, digest in done:
            assert hashlib.sha256(Path(out).read_bytes()).hexdigest() == digest


class TestPoolCrossoverScript:
    def test_one_finite_ratio_per_point_and_the_pool_rule_back(self, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "pool_crossover.py"
        spec = importlib.util.spec_from_file_location("pool_crossover", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        pool_work = montecarlo._POOL_WORK
        assert script.main(["--trials", "2", "--repeats", "1"]) == 0
        assert montecarlo._POOL_WORK == pool_work
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        assert [(kind, int(K)) for kind, K, *_ in rows] == [
            (kind, K) for kind, (_, grid) in script.KINDS.items() for K in grid]
        assert all(np.isfinite(float(row[-1])) for row in rows)


class TestByteReproducibility:
    def test_same_seed_same_bytes_any_workers(self, tmp_path):
        paths = [tmp_path / f"run{i}.csv" for i in range(3)]
        for path, workers in zip(paths, ("1", "1", "4")):
            code = main(
                ["--preset", "fig4", "--trials", "3", "--seed", "42",
                 "--workers", workers, "--output", str(path)]
            )
            assert code == EXIT_OK
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


class TestNumpyOnly:
    def test_preset_runs_import_no_scipy(self, tmp_path):
        # numpy is the only numerical dependency: scipy.linalg would add its
        # import time and a second OpenBLAS to pin to every run
        code = (
            "import sys\n"
            "from mimo_converge.cli import main\n"
            "for preset in ('fig1', 'fig5', 'fig7'):\n"
            "    out = sys.argv[1] + '/' + preset + '.csv'\n"
            "    assert main(['--preset', preset, '--trials', '1', '--output', out]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not loaded, f'{len(loaded)} scipy modules loaded: {loaded[:3]} ...'\n"
        )
        env = dict(os.environ)
        src = str(Path(mimo_converge.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True, timeout=300)
