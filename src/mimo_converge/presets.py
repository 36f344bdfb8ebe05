"""Scenario construction from command-line options, and the figure presets.

scenario_from_options builds every Scenario the CLI makes, from flags, a
config file or a preset. A preset is a list of option tables keyed like
the flags, so `--preset fig5` and the flags it spells out build equal
Scenarios. The tables pin every parameter the figures leave unstated
(transmit SNR 1.0, link-gain range 0.1 to 1.0, log-spaced grids) and the
trial budget defaults to 1000, so a run is fully described by (preset,
seed, trials); all choices are echoed into the output rows.
"""

from __future__ import annotations

from .channel import CorrelationSpec
from .montecarlo import DEFAULT_SEED, DEFAULT_TRIALS, FIXED_ALPHA, FIXED_K, ConfigError, Scenario
from .power import PowerProfile

STATS = ("metrics", "zf", "mf")


def _given(opt: dict, **fields: str) -> dict:
    """Keyword arguments for the options the user set; the defaults stay with
    Scenario, CorrelationSpec and PowerProfile."""
    return {field: opt[key] for field, key in fields.items() if key in opt}


def scenario_from_options(opt: dict, seed: int, trials: int) -> Scenario:
    """The Scenario of one option table, keyed like the CLI flags."""
    mode = opt.get("mode")
    if mode is None:
        raise ConfigError("either --preset or --mode is required")

    if "corr-rho" in opt:
        correlation = CorrelationSpec(opt["corr-rho"], **_given(opt, spacing="spacing"))
    elif "spacing" in opt:
        raise ConfigError("--spacing only applies together with --corr-rho")
    else:
        correlation = None

    if ("beta-min" in opt) != ("beta-max" in opt):
        raise ConfigError("--beta-min and --beta-max must be given together")
    if "beta-min" in opt:
        profile = PowerProfile(opt["beta-min"], opt["beta-max"], **_given(opt, eta="eta"))
    elif "eta" in opt:
        raise ConfigError("--eta only applies together with --beta-min/--beta-max")
    else:
        profile = None

    common = dict(
        correlation=correlation,
        profile=profile,
        trials=trials,
        seed=seed,
        **_given(opt, rho_f="rho-f", gram_source="gram-source"),
    )
    if "stats" in opt:
        common.update({f"compute_{name}": name in opt["stats"] for name in STATS})

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


# Metrics sweeps: M doublings up to 16384 (fixed K) or K doublings at
# alpha = 10 (joint growth). Precoder sweeps cover K = 5..100 at alpha = 10.
_M_GRID = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
_PRECODER = {"mode": FIXED_ALPHA, "alpha": 10.0, "K": (5, 10, 20, 50, 100), "stats": ("zf", "mf")}
_UNEQUAL = {"beta-min": 0.1, "beta-max": 1.0}

PRESETS = {
    "fig1": (
        [{"mode": FIXED_K, "K": (k,), "M": _M_GRID, "stats": ("metrics",)} for k in (10, 50)],
        "eigenvalue-ratio vs M, iid channel, K fixed at 10 and 50",
    ),
    "fig2": (
        [{"mode": FIXED_ALPHA, "alpha": 10.0, "K": (8, 16, 32, 64, 128, 256), "stats": ("metrics",)}],
        "mean absolute deviation vs K, iid channel, alpha = 10",
    ),
    "fig3": (
        [
            {"mode": FIXED_K, "K": (10,), "M": _M_GRID[:7], "stats": ("metrics",)},
            {"mode": FIXED_ALPHA, "alpha": 10.0, "K": (8, 16, 32, 64, 128), "stats": ("metrics",)},
        ],
        "diagonal dominance vs system size, fixed K = 10 and fixed alpha = 10",
    ),
    "fig4": ([_PRECODER], "ZF SNR and MF SINR vs K, equal powers, alpha = 10"),
    "fig5": (
        [{**_PRECODER, **_UNEQUAL}],
        "ZF SNR and MF SINR vs K, unequal powers (0.1 to 1.0), alpha = 10",
    ),
    "fig6": (
        [{**_PRECODER, "corr-rho": rho} for rho in (0.5, 0.9)],
        "ZF SNR and MF SINR vs K under ULA correlation (rho 0.5 and 0.9), equal powers",
    ),
    "fig7": (
        [{**_PRECODER, "corr-rho": rho, **_UNEQUAL} for rho in (0.5, 0.9)],
        "ZF SNR and MF SINR vs K under ULA correlation (rho 0.5 and 0.9), unequal powers",
    ),
}


def build_preset(name: str, seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS) -> list[Scenario]:
    """Scenarios for a named preset; seed and trials stay overridable."""
    try:
        tables, _ = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}, expected one of {', '.join(sorted(PRESETS))}"
        ) from None
    return [scenario_from_options(table, seed, trials) for table in tables]
