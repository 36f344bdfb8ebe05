"""Command-line front end: configuration, sweep execution, CSV/JSON output.

Precedence for every setting: command-line flag, then config-file value,
then preset value, then built-in default. The seed's built-in default can
additionally be supplied through the MIMO_CONVERGE_SEED environment
variable. Output files are byte-identical across runs with the same
configuration and seed, with any worker count and any host BLAS thread
count: the sweep pins the OpenBLAS bundled with numpy, the only BLAS the
simulator calls, to one thread, so --workers is the only parallelism. With
a BLAS that cannot be pinned, the bytes may depend on its thread count.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .channel import CorrelationSpec
from .montecarlo import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    FIXED_ALPHA,
    FIXED_K,
    ConfigError,
    Scenario,
    SweepResult,
    compare_to_limit,
    run_scenario,
)
from .numerics import SingularMatrixError
from .power import PowerProfile
from .presets import PRESETS, build_preset

SEED_ENV_VAR = "MIMO_CONVERGE_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

CSV_COLUMNS = [
    "M", "K", "alpha", "statistic", "mean", "std", "stderr", "trials",
    "limit", "seed", "rho_f", "corr_rho", "beta_min", "beta_max",
    "degenerate_trials",
]

# Keys a preset pins down; only seed, trials and run-level settings stay
# overridable next to --preset.
_SCENARIO_KEYS = (
    "mode", "K", "M", "alpha", "rho-f", "corr-rho", "spacing",
    "beta-min", "beta-max", "eta", "stats", "gram-source",
)


@dataclass
class RunConfig:
    scenarios: list[Scenario]
    output: Path
    fmt: str
    workers: int
    preset: str | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit so callers can map exit codes
        raise ConfigError(message)


def _parse_sweep(text: str) -> tuple[int, ...]:
    """Sweep grid: a single value, a comma list, or an inclusive a:b:step range."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError
            start, stop, step = parts
            if step < 1 or stop < start:
                raise ValueError
            return tuple(range(start, stop + 1, step))
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(
            f"cannot parse sweep {text!r}; use N, N1,N2,... or start:stop:step"
        ) from None


def _parse_stats(text: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    allowed = ("metrics", "zf", "mf")
    bad = [p for p in parts if p not in allowed]
    if bad or not parts:
        raise ConfigError(f"--stats takes a comma list from {allowed}, got {text!r}")
    return parts


_VALUE_PARSERS = {
    "preset": str,
    "mode": str,
    "K": _parse_sweep,
    "M": _parse_sweep,
    "alpha": float,
    "rho-f": float,
    "corr-rho": float,
    "spacing": float,
    "beta-min": float,
    "beta-max": float,
    "eta": float,
    "trials": int,
    "seed": int,
    "workers": int,
    "output": str,
    "format": str,
    "stats": _parse_stats,
    "gram-source": str,
}


def _build_argparser() -> _Parser:
    p = _Parser(prog="mimo-converge", description=__doc__.splitlines()[0])
    p.add_argument("--preset", choices=sorted(PRESETS), help="figure-reproduction preset")
    p.add_argument("--mode", choices=[FIXED_K, FIXED_ALPHA], help="sweep mode")
    p.add_argument("--K", help="fixed-K mode: one user count; fixed-alpha mode: K sweep (N, N1,N2,.. or a:b:step)")
    p.add_argument("--M", help="fixed-K mode: antenna-count sweep")
    p.add_argument("--alpha", type=float, help="fixed-alpha mode: antenna ratio M/K")
    p.add_argument("--rho-f", type=float, help="transmit SNR, linear scale (default 1.0)")
    p.add_argument("--corr-rho", type=float, help="ULA correlation decay constant (default: uncorrelated)")
    p.add_argument("--spacing", type=float, help="ULA inter-element distance unit (default 1.0)")
    p.add_argument("--beta-min", type=float, help="smallest link gain (with --beta-max; default: equal powers)")
    p.add_argument("--beta-max", type=float, help="largest link gain")
    p.add_argument("--eta", type=float, help="nominal gain-decay rate in (0,1); does not affect the gains")
    p.add_argument("--trials", type=int, help=f"trials per sweep point (default {DEFAULT_TRIALS})")
    p.add_argument("--seed", type=int, help=f"base RNG seed (default ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p.add_argument("--workers", type=int, help="worker threads, the only parallelism: BLAS runs single-threaded (default: CPUs this process may use)")
    p.add_argument("--output", help="output file path (default results.<format>)")
    p.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")
    p.add_argument("--stats", help="statistics to compute: comma list of metrics,zf,mf (default all)")
    p.add_argument("--gram-source", choices=["H", "G"], help="channel matrix the metrics Gram uses (default H)")
    p.add_argument("--config", help="flat key=value config file mirroring the flag names")
    return p


def _read_config_file(path: str) -> dict:
    """Parse 'key = value' lines; keys mirror flag names, unknown keys are rejected."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _VALUE_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            options[key] = _VALUE_PARSERS[key](value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None
    return options


def _flag_options(args: argparse.Namespace) -> dict:
    """Explicitly provided flags, keyed by flag spelling."""
    options = {}
    for key in _VALUE_PARSERS:
        value = getattr(args, key.replace("-", "_"))
        if value is None:
            continue
        if key in ("K", "M"):
            value = _parse_sweep(value)
        elif key == "stats":
            value = _parse_stats(value)
        options[key] = value
    return options


def _default_workers() -> int:
    """CPUs this process may run on; the machine's count where the platform
    reports no affinity set."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR}={raw!r} is not an integer seed") from None


def _manual_scenario(opt: dict, seed: int, trials: int) -> Scenario:
    mode = opt.get("mode")
    if mode is None:
        raise ConfigError("either --preset or --mode is required")
    if mode not in (FIXED_K, FIXED_ALPHA):
        raise ConfigError(f"unknown mode {mode!r}, expected {FIXED_K!r} or {FIXED_ALPHA!r}")

    if "corr-rho" in opt:
        correlation = CorrelationSpec(opt["corr-rho"], opt.get("spacing", 1.0))
    elif "spacing" in opt:
        raise ConfigError("--spacing only applies together with --corr-rho")
    else:
        correlation = None

    if ("beta-min" in opt) != ("beta-max" in opt):
        raise ConfigError("--beta-min and --beta-max must be given together")
    if "beta-min" in opt:
        profile = PowerProfile(opt["beta-min"], opt["beta-max"], opt.get("eta", 0.5))
    elif "eta" in opt:
        raise ConfigError("--eta only applies together with --beta-min/--beta-max")
    else:
        profile = None

    stats = opt.get("stats", ("metrics", "zf", "mf"))

    common = dict(
        correlation=correlation,
        profile=profile,
        rho_f=opt.get("rho-f", 1.0),
        trials=trials,
        seed=seed,
        compute_metrics="metrics" in stats,
        compute_zf="zf" in stats,
        compute_mf="mf" in stats,
        gram_source=opt.get("gram-source", "H"),
    )

    if mode == FIXED_K:
        if "alpha" in opt:
            raise ConfigError("--alpha contradicts --mode fixed-K (the --M sweep sets M)")
        if "K" not in opt or "M" not in opt:
            raise ConfigError("--mode fixed-K needs --K (one value) and --M (sweep)")
        if len(opt["K"]) != 1:
            raise ConfigError(f"--mode fixed-K takes a single --K, got {opt['K']}")
        return Scenario(mode=FIXED_K, K=opt["K"][0], sweep=opt["M"], **common)

    if "M" in opt:
        raise ConfigError("--M contradicts --mode fixed-alpha (M follows from --alpha and --K)")
    if "alpha" not in opt or "K" not in opt:
        raise ConfigError("--mode fixed-alpha needs --alpha and a --K sweep")
    return Scenario(mode=FIXED_ALPHA, alpha=opt["alpha"], sweep=opt["K"], **common)


def parse_config(argv=None, config_file: str | None = None) -> RunConfig:
    """Resolve flags, config file, preset and defaults into a RunConfig."""
    args = _build_argparser().parse_args(argv)
    flag_opt = _flag_options(args)
    file_path = args.config or config_file
    file_opt = _read_config_file(file_path) if file_path else {}
    opt = {**file_opt, **flag_opt}

    preset = opt.pop("preset", None)
    seed = opt.pop("seed", None)
    if seed is None:
        seed = _default_seed()
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    trials = opt.pop("trials", DEFAULT_TRIALS)
    workers = opt.pop("workers", None)
    if workers is None:
        workers = _default_workers()
    if workers < 1:
        raise ConfigError(f"workers must be positive, got {workers}")
    fmt = opt.pop("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r}, expected csv or json")
    output = Path(opt.pop("output", f"results.{fmt}"))

    try:
        if preset is not None:
            pinned = sorted(k for k in _SCENARIO_KEYS if k in opt)
            if pinned:
                raise ConfigError(
                    f"--preset {preset} already determines {', '.join(pinned)}; "
                    "only seed, trials and output settings may be overridden"
                )
            scenarios = build_preset(preset, seed=seed, trials=trials)
        else:
            scenarios = [_manual_scenario(opt, seed, trials)]
    except ConfigError:
        raise
    except ValueError as exc:  # dataclass validation (rho range, profile bounds, ...)
        raise ConfigError(str(exc)) from None

    return RunConfig(scenarios=scenarios, output=output, fmt=fmt, workers=workers, preset=preset)


def _rows(results: list[SweepResult]):
    """Long-format rows, one per (sweep point, statistic), config echoed."""
    for result in results:
        sc = result.scenario
        corr_rho = sc.correlation.rho if sc.correlation is not None else 0.0
        if sc.profile is not None:
            beta_min, beta_max = sc.profile.beta_min, sc.profile.beta_max
        else:
            beta_min = beta_max = 1.0
        for p in result.points:
            for name, s in p.stats.items():
                yield {
                    "M": p.M,
                    "K": p.K,
                    "alpha": p.alpha,
                    "statistic": name,
                    "mean": s.mean,
                    "std": s.std,
                    "stderr": s.stderr,
                    "trials": s.trials,
                    "limit": s.limit,
                    "seed": sc.seed,
                    "rho_f": sc.rho_f,
                    "corr_rho": corr_rho,
                    "beta_min": beta_min,
                    "beta_max": beta_max,
                    "degenerate_trials": p.degenerate_trials,
                }


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), ".12g")


def _json_value(value):
    # JSON has no NaN or infinity; a non-finite statistic is written as null.
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def emit(results: list[SweepResult], config: RunConfig) -> Path:
    """Write all sweep rows to the configured file; returns its path."""
    path = config.output
    rows = list(_rows(results))
    try:
        if config.fmt == "json":
            payload = {
                "preset": config.preset,
                "format": config.fmt,
                "rows": [{k: _json_value(v) for k, v in row.items()} for row in rows],
            }
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=1, allow_nan=False)
                fh.write("\n")
        else:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(CSV_COLUMNS)
                for row in rows:
                    writer.writerow([_fmt_cell(row[col]) for col in CSV_COLUMNS])
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc
    return path


def _print_summary(results: list[SweepResult]) -> None:
    for result in results:
        sc = result.scenario
        label = sc.mode + (f" K={sc.K}" if sc.K is not None else f" alpha={sc.alpha:g}")
        if sc.correlation is not None:
            label += f" rho={sc.correlation.rho:g}"
        if sc.profile is not None:
            label += f" beta={sc.profile.beta_min:g}..{sc.profile.beta_max:g}"
        gaps = {(g.M, g.K, g.statistic): g for g in compare_to_limit(result)}
        for p in result.points:
            parts = []
            for name in ("mad", "lambda_ratio", "diagonal_dominance", "zf_snr", "mf_sinr_mean"):
                if name not in p.stats:
                    continue
                s = p.stats[name]
                cell = f"{name}={s.mean:.4g}"
                gap = gaps.get((p.M, p.K, name))
                if gap is not None:
                    cell += f" (limit {gap.limit:.4g}, gap {100 * gap.rel_gap:.1f}%)"
                parts.append(cell)
            extra = f" degenerate={p.degenerate_trials}" if p.degenerate_trials else ""
            print(f"[{label}] M={p.M} K={p.K}: " + "; ".join(parts) + extra)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        results = [run_scenario(s, workers=config.workers) for s in config.scenarios]
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularMatrixError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        path = emit(results, config)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_summary(results)
    print(f"wrote {path}")
    return EXIT_OK


def console_main() -> None:
    raise SystemExit(main())
