"""Consumption-minimizing massive MIMO downlink precoding.

The package designs downlink precoders that minimize power-amplifier and
whole-base-station consumption under zero-forcing QoS constraints, provides
the asymptotic active-antenna-count optimization, and ships a seeded
Monte-Carlo harness reproducing the associated numerical experiments at
desk scale.
"""

from .asymptotic import (
    AsymptoticPlan,
    asymptotic_bs_power,
    asymptotic_pa_power,
    asymptotic_per_antenna_power,
    optimal_ma_plans,
    solve_quartic_ma,
    trace_term,
)
from .channel import (
    CellGeometry,
    ChannelRealization,
    FreqCorrelation,
    QosTargets,
    draw_los_channel,
    draw_rayleigh_channel,
    draw_user_distances,
    large_scale_fading,
    target_sinr,
)
from .config import ExperimentConfig, ScenarioConfig, load_config
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    EnergyMimoError,
    InfeasibleError,
    OracleSizeError,
    SingularChannelError,
)
from .model import (
    BsModel,
    PaModel,
    PowerReport,
    bs_consumed_power,
    estimate_flops,
    gain_metrics,
    pa_consumed_power,
    per_antenna_powers,
)
from .oracle import (
    OracleResult,
    grid_min_bs,
    mc_inverse_wishart_trace,
    solve_min_pa_bruteforce,
)
from .precoding import (
    FixedPointConfig,
    PrecoderSolution,
    los_allocation_precoders,
    min_pa_precoders,
    saturating_precoders,
    zf_precoders,
)

__all__ = [
    "AsymptoticPlan",
    "BsModel",
    "CellGeometry",
    "ChannelRealization",
    "ConfigError",
    "DimensionError",
    "DomainError",
    "EnergyMimoError",
    "ExperimentConfig",
    "FixedPointConfig",
    "FreqCorrelation",
    "InfeasibleError",
    "OracleResult",
    "OracleSizeError",
    "PaModel",
    "PowerReport",
    "PrecoderSolution",
    "QosTargets",
    "ScenarioConfig",
    "SingularChannelError",
    "asymptotic_bs_power",
    "asymptotic_pa_power",
    "asymptotic_per_antenna_power",
    "bs_consumed_power",
    "draw_los_channel",
    "draw_rayleigh_channel",
    "draw_user_distances",
    "estimate_flops",
    "gain_metrics",
    "grid_min_bs",
    "large_scale_fading",
    "load_config",
    "los_allocation_precoders",
    "mc_inverse_wishart_trace",
    "min_pa_precoders",
    "optimal_ma_plans",
    "pa_consumed_power",
    "per_antenna_powers",
    "saturating_precoders",
    "solve_min_pa_bruteforce",
    "solve_quartic_ma",
    "target_sinr",
    "trace_term",
    "zf_precoders",
]

__version__ = "0.1.0"
