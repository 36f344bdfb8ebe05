"""Monte Carlo study of massive MIMO convergence toward large-antenna limits."""

from .channel import CorrelationSpec
from .montecarlo import (
    ConfigError,
    Scenario,
    StatSummary,
    SweepPoint,
    SweepResult,
    run_scenario,
)
from .numerics import SingularMatrixError
from .power import PowerProfile, limiting_moments, link_gains
from .presets import PRESETS, build_preset

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CorrelationSpec",
    "PRESETS",
    "PowerProfile",
    "Scenario",
    "SingularMatrixError",
    "StatSummary",
    "SweepPoint",
    "SweepResult",
    "build_preset",
    "limiting_moments",
    "link_gains",
    "run_scenario",
]
