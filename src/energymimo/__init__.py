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
    FreqCorrelation,
    draw_los_into,
    draw_rayleigh_into,
    draw_user_distances,
    large_scale_fading,
    target_sinr,
    zf_targets,
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
    solve_min_pa_bruteforce_block,
)
from .precoding import (
    FixedPointConfig,
    PrecoderSolution,
    los_allocation_precoders,
    solve_stack,
)

__all__ = [
    "AsymptoticPlan",
    "BsModel",
    "CellGeometry",
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
    "ScenarioConfig",
    "SingularChannelError",
    "asymptotic_bs_power",
    "asymptotic_pa_power",
    "asymptotic_per_antenna_power",
    "bs_consumed_power",
    "draw_los_into",
    "draw_rayleigh_into",
    "draw_user_distances",
    "estimate_flops",
    "gain_metrics",
    "grid_min_bs",
    "large_scale_fading",
    "load_config",
    "los_allocation_precoders",
    "mc_inverse_wishart_trace",
    "optimal_ma_plans",
    "pa_consumed_power",
    "per_antenna_powers",
    "solve_min_pa_bruteforce_block",
    "solve_stack",
    "solve_quartic_ma",
    "target_sinr",
    "trace_term",
    "zf_targets",
]

__version__ = "0.1.0"
