"""Flat key=value experiment configuration.

The config format is UTF-8 text, one ``key = value`` per line, ``#``
comments, keys mirroring the physical parameter names (powers in Watts,
noise in dBm, distances in meters). dB-to-linear conversion happens here
and nowhere else in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .channel import SINR_REF_COEFF, CellGeometry, FreqCorrelation, large_scale_fading
from .errors import ConfigError, DomainError
from .model import BsModel, PaModel
from .precoding import FixedPointConfig

KNOWN_PRECODERS = ("zf", "min_pa", "saturating")
AS1_PRECODERS = ("zf", "min_pa")  # solved without per-antenna caps
ASYM_MODES = ("k_sweep", "q_error", "ma_curve")


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and experiment parameters of one scenario."""

    m_antennas: int = 64
    k_users: int = 1
    subcarriers: int = 1
    channel: str = "rayleigh"
    freq_taps: int = 0  # 0 = independent subcarriers
    freq_decay: float = 1.0
    p_max_watts: float = 1.0
    eta_max: float = 0.22
    noise_dbm: float = -96.0
    p_fix_watts: float = 15.0
    circuit_watts: float = 0.7
    u_min_m: float = 35.0
    u_max_m: float = 250.0
    sinr_ref: float = SINR_REF_COEFF
    seed: int = 0

    @property
    def noise_power(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    def pa_model(self) -> PaModel:
        return PaModel(p_max=self.p_max_watts, eta_max=self.eta_max)

    def bs_model(self) -> BsModel:
        return BsModel(p_fix=self.p_fix_watts, circuit_per_antenna=self.circuit_watts)

    def geometry(self) -> CellGeometry:
        return CellGeometry(u_min=self.u_min_m, u_max=self.u_max_m)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario plus harness knobs for one CLI invocation."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    realizations: int = 200
    precoders: tuple[str, ...] = ("zf", "min_pa")
    discard_over_pmax: bool = True
    threads: int = 1
    out: str | None = None
    # Fixed-point iteration.
    epsilon: float = 1e-4
    max_iterations: int = 2000
    dead_antenna_floor: float = 1e-12
    # Convergence-command oracle.
    oracle: bool = True
    oracle_max_m: int = 8
    oracle_max_k: int = 4
    oracle_max_q: int = 8
    # Parsed and validated, but read by nothing: the oracle takes no random starts.
    oracle_starts: int = 8
    # Asymptotic-command sweep.
    asym_mode: str = "k_sweep"
    k_min: int = 1
    k_max: int = 40
    q_list: tuple[int, ...] = (4, 8, 16, 32, 64, 128)

    def fixed_point(self, record_history: bool = False) -> FixedPointConfig:
        return FixedPointConfig(
            tolerance=self.epsilon,
            max_iterations=self.max_iterations,
            dead_antenna_floor=self.dead_antenna_floor,
            record_history=record_history,
        )


_SCENARIO_FIELDS = {f.name: f.type for f in fields(ScenarioConfig)}


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# Parser of each config key, by the annotation of its config field.
_PARSERS = {
    "int": int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": str,
    "str | None": str,
    "tuple[str, ...]": lambda raw: tuple(part.strip() for part in raw.split(",") if part.strip()),
    "tuple[int, ...]": lambda raw: tuple(int(part) for part in raw.split(",") if part.strip()),
}
_KEY_PARSERS = {
    f.name: _PARSERS[f.type]
    for f in fields(ScenarioConfig) + fields(ExperimentConfig)
    if f.name != "scenario"
}


def parse_config_text(text: str) -> dict:
    """Parse config text into a key -> value dict, validating every key."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {raw_line.strip()!r}", line=lineno)
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        try:
            values[key] = _KEY_PARSERS[key](raw_value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line=lineno) from exc
    return values


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a file plus CLI overrides."""
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        values = parse_config_text(text)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    scenario_kwargs = {k: v for k, v in values.items() if k in _SCENARIO_FIELDS}
    other_kwargs = {k: v for k, v in values.items() if k not in _SCENARIO_FIELDS}
    cfg = ExperimentConfig(scenario=ScenarioConfig(**scenario_kwargs), **other_kwargs)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    sc = cfg.scenario
    if sc.channel not in ("rayleigh", "los"):
        raise ConfigError(f"channel must be rayleigh or los, got {sc.channel!r}")
    if cfg.asym_mode not in ASYM_MODES:
        raise ConfigError(f"asym_mode must be one of {ASYM_MODES}, got {cfg.asym_mode!r}")
    for name, count in (
        ("m_antennas", sc.m_antennas), ("k_users", sc.k_users), ("subcarriers", sc.subcarriers),
        ("realizations", cfg.realizations), ("threads", cfg.threads),
        ("oracle_starts", cfg.oracle_starts),
    ):
        if count < 1:
            raise ConfigError(f"{name} must be >= 1")
    for name, entries in (("precoders", cfg.precoders), ("q_list", cfg.q_list)):
        if not entries or len(set(entries)) < len(entries):
            raise ConfigError(f"{name} must be a non-empty list without repeats, got {entries}")
    if any(q < 1 for q in cfg.q_list):
        raise ConfigError(f"every q_list entry must be >= 1, got {cfg.q_list}")
    if sc.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {sc.seed}")
    if sc.freq_taps < 0:
        raise ConfigError("freq_taps must be >= 0")
    if not sc.sinr_ref > 0.0:
        raise ConfigError(f"sinr_ref must be positive, got {sc.sinr_ref}")
    # Each model checks its own fields; the message names the keys that feed it.
    for keys, build in (
        ("p_max_watts, eta_max", sc.pa_model),
        ("p_fix_watts, circuit_watts", sc.bs_model),
        ("u_min_m, u_max_m", sc.geometry),
        ("epsilon, max_iterations, dead_antenna_floor", cfg.fixed_point),
        (
            "freq_taps, freq_decay",
            lambda: FreqCorrelation(max(1, sc.freq_taps), sc.freq_decay),
        ),
    ):
        try:
            build()
        except DomainError as exc:
            raise ConfigError(f"{keys}: {exc}") from exc
    # The draws need a positive, finite noise power and far-edge fading.
    for key, quantity, compute in (
        ("noise_dbm", "noise power", lambda: sc.noise_power),
        ("u_max_m", "far-edge large-scale fading", lambda: large_scale_fading(sc.u_max_m)),
    ):
        try:
            value = compute()
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{key}: the {quantity} {value} is not positive and finite")
    for name in cfg.precoders:
        if name not in KNOWN_PRECODERS:
            raise ConfigError(f"unknown precoder {name!r}, expected one of {KNOWN_PRECODERS}")
    if "saturating" in cfg.precoders and (sc.k_users != 1 or sc.subcarriers != 1):
        raise ConfigError("the saturating precoder requires k_users=1 and subcarriers=1")
    if sc.m_antennas < sc.k_users:
        raise ConfigError("m_antennas must be >= k_users")
    if not 1 <= cfg.k_min <= cfg.k_max:
        raise ConfigError("need 1 <= k_min <= k_max")


def with_scenario(cfg: ExperimentConfig, **scenario_changes) -> ExperimentConfig:
    """Copy of ``cfg`` with some scenario fields replaced."""
    return replace(cfg, scenario=replace(cfg.scenario, **scenario_changes))
