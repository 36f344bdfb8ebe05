"""Monte Carlo study of massive MIMO convergence toward large-antenna limits."""

from .channel import CorrelationSpec, RngStream
from .montecarlo import (
    ConfigError,
    LimitGap,
    Scenario,
    StatSummary,
    SweepPoint,
    SweepResult,
    compare_to_limit,
    run_scenario,
)
from .numerics import SingularMatrixError
from .power import PowerProfile, limiting_moments, link_gains
from .presets import PRESETS, build_preset

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CorrelationSpec",
    "LimitGap",
    "PRESETS",
    "PowerProfile",
    "RngStream",
    "Scenario",
    "SingularMatrixError",
    "StatSummary",
    "SweepPoint",
    "SweepResult",
    "build_preset",
    "compare_to_limit",
    "limiting_moments",
    "link_gains",
    "run_scenario",
]
