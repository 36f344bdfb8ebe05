"""Monte Carlo study of massive MIMO convergence toward large-antenna limits."""

from .channel import ChannelSample, CorrelationSpec, RngStream, sample_channel
from .metrics import ConvergenceMetrics, convergence_metrics
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
from .precoding import SystemParams
from .presets import PRESETS, build_preset

__version__ = "0.1.0"

__all__ = [
    "ChannelSample",
    "ConfigError",
    "ConvergenceMetrics",
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
    "SystemParams",
    "build_preset",
    "compare_to_limit",
    "convergence_metrics",
    "limiting_moments",
    "link_gains",
    "run_scenario",
    "sample_channel",
]
