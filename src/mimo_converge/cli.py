"""Command-line front end: configuration, sweep execution, CSV/JSON output.

Each setting is read from its command-line flag, else its config-file
value, else its built-in default. A preset, given by flag or in the file,
sets every other key itself: beside it only seed, trials, workers and the
output settings may be given, and any other key, from a flag or the file,
is a configuration error. The seed's built-in default can additionally be
supplied through the MIMO_CONVERGE_SEED environment variable. Output files
are byte-identical across runs with the same configuration and seed, with
any worker count and any host BLAS thread count: the sweep pins the
OpenBLAS bundled with numpy, the only BLAS the simulator calls, to one
thread, so --workers is the only parallelism. With a BLAS that cannot be
pinned, the bytes may depend on its thread count.

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
from typing import Callable, NamedTuple

from .montecarlo import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    FIXED_ALPHA,
    FIXED_K,
    ConfigError,
    Scenario,
    SweepResult,
    run_scenarios,
)
from .numerics import SingularMatrixError
from .presets import PRESETS, STATS, build_preset, scenario_from_options

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
    if ":" not in text:
        return tuple(int(p) for p in text.split(","))
    start, stop, step = (int(p) for p in text.split(":"))
    if step < 1 or stop < start:
        raise ValueError
    return tuple(range(start, stop + 1, step))


def _parse_stats(text: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts or any(p not in STATS for p in parts):
        raise ValueError
    return parts


class _Option(NamedTuple):
    parse: Callable[[str], object]
    choices: tuple[str, ...] | None
    help: str


# Every option, in --help order. A flag and a config-file line with the
# same key go through the same _parse_value.
_OPTIONS = {
    "preset": _Option(str, tuple(sorted(PRESETS)), "figure-reproduction preset"),
    "mode": _Option(str, (FIXED_K, FIXED_ALPHA), "sweep mode"),
    "K": _Option(_parse_sweep, None, "fixed-K mode: one user count; fixed-alpha mode: K sweep (N, N1,N2,.. or a:b:step)"),
    "M": _Option(_parse_sweep, None, "fixed-K mode: antenna-count sweep (N, N1,N2,.. or a:b:step)"),
    "alpha": _Option(float, None, "fixed-alpha mode: antenna ratio M/K"),
    "rho-f": _Option(float, None, "transmit SNR, linear scale (default 1.0)"),
    "corr-rho": _Option(float, None, "ULA correlation decay constant (default: uncorrelated)"),
    "spacing": _Option(float, None, "ULA inter-element distance unit (default 1.0)"),
    "beta-min": _Option(float, None, "smallest link gain (with --beta-max; default: equal powers)"),
    "beta-max": _Option(float, None, "largest link gain"),
    "eta": _Option(float, None, "nominal gain-decay rate in (0,1); does not affect the gains"),
    "trials": _Option(int, None, f"trials per sweep point (default {DEFAULT_TRIALS})"),
    "seed": _Option(int, None, f"base RNG seed (default ${SEED_ENV_VAR} or {DEFAULT_SEED})"),
    "workers": _Option(int, None, "worker threads, the only parallelism: BLAS runs single-threaded (default: CPUs this process may use)"),
    "output": _Option(str, None, "output file path (default results.<format>)"),
    "format": _Option(str, ("csv", "json"), "output format (default csv)"),
    "stats": _Option(_parse_stats, None, "statistics to compute: comma list of metrics,zf,mf (default all)"),
    "gram-source": _Option(str, ("H", "G"), "channel matrix the metrics Gram uses (default H)"),
}


def _parse_value(key: str, text: str):
    """Check a flag or config-file value against the option's choices, then parse it."""
    option = _OPTIONS[key]
    if option.choices is not None and text not in option.choices:
        raise ConfigError(f"unknown {key} {text!r}, expected one of {', '.join(option.choices)}")
    try:
        return option.parse(text)
    except ValueError:
        raise ConfigError(f"bad value {text!r} for {key!r}: {option.help}") from None


def _build_argparser() -> _Parser:
    p = _Parser(prog="mimo-converge", description=__doc__.splitlines()[0])
    for key, option in _OPTIONS.items():
        p.add_argument(f"--{key}", choices=option.choices, help=option.help)
    p.add_argument("--config", help="flat key=value config file mirroring the flag names")
    return p


def _read_config_file(path: str) -> dict:
    """Parse 'key = value' lines; keys mirror flag names, unknown and repeated keys are rejected."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    options, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}, first set on line {lines[key]}")
        try:
            options[key] = _parse_value(key, value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        lines[key] = lineno
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


def parse_config(argv=None) -> RunConfig:
    """Resolve flags, config file, preset and defaults into a RunConfig."""
    args = _build_argparser().parse_args(argv)
    file_opt = _read_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key.replace("-", "_")) for key in _OPTIONS}
    flag_opt = {key: _parse_value(key, text) for key, text in flags.items() if text is not None}
    opt = {**file_opt, **flag_opt}

    preset = opt.pop("preset", None)
    seed = opt.pop("seed", None)
    if seed is None:
        seed = _default_seed()
    trials = opt.pop("trials", DEFAULT_TRIALS)
    workers = opt.pop("workers", None)
    if workers is None:
        workers = _default_workers()
    fmt = opt.pop("format", "csv")
    output = Path(opt.pop("output", f"results.{fmt}"))

    try:
        if preset is not None:
            if opt:  # a preset sets every key not popped above
                raise ConfigError(
                    f"--preset {preset} already determines {', '.join(sorted(opt))}; "
                    "only seed, trials, workers and output settings may be given beside it"
                )
            scenarios = build_preset(preset, seed=seed, trials=trials)
        else:
            scenarios = [scenario_from_options(opt, seed, trials)]
    except ValueError as exc:  # ConfigError, or dataclass validation (rho range, profile bounds, ...)
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
                    "seed": int(sc.seed),  # a library Scenario may carry a numpy integer
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
        for p in result.points:
            parts = []
            for name in ("mad", "lambda_ratio", "diagonal_dominance", "zf_snr", "mf_sinr_mean"):
                if name not in p.stats:
                    continue
                s = p.stats[name]
                cell = f"{name}={s.mean:.4g}"
                if s.limit is not None:
                    cell += f" (limit {s.limit:.4g}, gap {100 * s.rel_gap:.1f}%)"
                parts.append(cell)
            extra = f" degenerate={p.degenerate_trials}" if p.degenerate_trials else ""
            print(f"[{label}] M={p.M} K={p.K}: " + "; ".join(parts) + extra)


def _check_output(path: Path) -> None:
    """Reject an output path that cannot become a file, before the first trial."""
    if path.is_dir():
        raise OSError(f"cannot write output file {path}: it is a directory")
    if not path.parent.is_dir():
        raise OSError(f"cannot write output file {path}: {path.parent} is not a directory")


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        _check_output(config.output)
        results = run_scenarios(config.scenarios, workers=config.workers)
        path = emit(results, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularMatrixError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_summary(results)
    print(f"wrote {path}")
    return EXIT_OK


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
