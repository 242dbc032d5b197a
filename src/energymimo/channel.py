"""Scenario generation: user placement, fading, SINR targets, channel draws.

Randomness is always drawn from an explicit ``numpy.random.Generator`` so
experiments are bit-reproducible; there is no module-level RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

# 3GPP-style urban path loss, beta_dB = -35.3 - 37.6 log10(u).
PATHLOSS_INTERCEPT_DB = -35.3
PATHLOSS_SLOPE_DB = 37.6

# Reference coefficient mapping large-scale fading to the SINR target,
# gamma_dB = 5 log10(beta / SINR_REF_COEFF). Overridable per call.
SINR_REF_COEFF = 4.86e-14


@dataclass(frozen=True)
class CellGeometry:
    """Annular cell bounded by the minimum and maximum user distance."""

    u_min: float = 35.0
    u_max: float = 250.0

    def __post_init__(self):
        if not 0.0 < self.u_min < self.u_max:
            raise DomainError(
                f"need 0 < u_min < u_max, got u_min={self.u_min}, u_max={self.u_max}"
            )


@dataclass(frozen=True)
class QosTargets:
    """Per-user linear SINR targets plus the shared noise power.

    ``subcarriers`` is the Q over which each target is split: the effective
    per-subcarrier target of user k is gamma_k / Q.
    """

    gamma: np.ndarray
    noise_power: float
    subcarriers: int = 1

    def __post_init__(self):
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "gamma", gamma)
        if np.any(gamma <= 0.0):
            raise DomainError("all SINR targets must be positive")
        if self.noise_power <= 0.0:
            raise DomainError(f"noise power must be positive, got {self.noise_power}")
        if self.subcarriers < 1:
            raise DomainError(f"subcarriers must be >= 1, got {self.subcarriers}")

    @property
    def k_users(self) -> int:
        return self.gamma.shape[0]

    @property
    def noise_std(self) -> float:
        return float(np.sqrt(self.noise_power))

    @property
    def per_subcarrier_gamma(self) -> np.ndarray:
        return self.gamma / self.subcarriers


@dataclass(frozen=True)
class FreqCorrelation:
    """Exponential power-delay profile with ``taps`` taps.

    Tap l carries power proportional to exp(-decay * l); the taps are mapped
    to the Q subcarriers by a DFT, so taps=1 yields a frequency-flat channel
    and large tap counts approach independent subcarriers.
    """

    taps: int
    decay: float = 1.0

    def __post_init__(self):
        if self.taps < 1:
            raise DomainError(f"taps must be >= 1, got {self.taps}")
        if self.decay < 0.0:
            raise DomainError(f"decay must be >= 0, got {self.decay}")


@dataclass(frozen=True)
class ChannelRealization:
    """Q stacked K x M channel matrices plus the per-user large-scale gains."""

    per_subcarrier: np.ndarray
    large_scale: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.per_subcarrier)
        if h.ndim != 3:
            raise DimensionError(f"expected (Q, K, M) channel stack, got shape {h.shape}")
        beta = np.atleast_1d(np.asarray(self.large_scale, dtype=float))
        if beta.shape[0] != h.shape[1]:
            raise DimensionError("large_scale length must match the user count")
        object.__setattr__(self, "per_subcarrier", h)
        object.__setattr__(self, "large_scale", beta)

    @property
    def subcarriers(self) -> int:
        return self.per_subcarrier.shape[0]

    @property
    def k_users(self) -> int:
        return self.per_subcarrier.shape[1]

    @property
    def m_antennas(self) -> int:
        return self.per_subcarrier.shape[2]


def draw_user_distances(k_users: int, geometry: CellGeometry, rng: np.random.Generator) -> np.ndarray:
    """Distances of ``k_users`` users placed uniformly over the annulus.

    Inverse-CDF sampling of F(u) = (u^2 - u_min^2) / (u_max^2 - u_min^2):
    u = sqrt(u_min^2 + v (u_max^2 - u_min^2)) with v uniform on [0, 1).
    """
    if k_users < 1:
        raise DomainError(f"k_users must be >= 1, got {k_users}")
    v = rng.random(k_users)
    return np.sqrt(geometry.u_min**2 + v * (geometry.u_max**2 - geometry.u_min**2))


def large_scale_fading(u):
    """Linear large-scale fading coefficient at distance ``u`` meters."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0):
        raise DomainError("distances must be positive")
    beta_db = PATHLOSS_INTERCEPT_DB - PATHLOSS_SLOPE_DB * np.log10(u_arr)
    beta = 10.0 ** (beta_db / 10.0)
    return float(beta) if np.isscalar(u) or u_arr.ndim == 0 else beta


def target_sinr(beta, ref_coeff: float = SINR_REF_COEFF):
    """Linear SINR target derived from the large-scale fading coefficient."""
    beta_arr = np.asarray(beta, dtype=float)
    if np.any(beta_arr <= 0.0):
        raise DomainError("large-scale coefficients must be positive")
    if not ref_coeff > 0.0:
        raise DomainError(f"reference coefficient must be positive, got {ref_coeff}")
    gamma_db = 5.0 * np.log10(beta_arr / ref_coeff)
    gamma = 10.0 ** (gamma_db / 10.0)
    return float(gamma) if np.isscalar(beta) or beta_arr.ndim == 0 else gamma


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def draw_rayleigh_channel(
    m_antennas: int,
    k_users: int,
    subcarriers: int,
    beta,
    rng: np.random.Generator,
    correlation: FreqCorrelation | None = None,
) -> ChannelRealization:
    """Uncorrelated-in-space Rayleigh channel H_q = D_beta^(1/2) G_q.

    With ``correlation=None`` the Q subcarriers are drawn independently.
    Otherwise each (user, antenna) pair gets an L-tap exponential delay
    profile whose DFT produces correlated subcarriers with per-entry unit
    variance preserved.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape[0] != k_users:
        raise DimensionError(f"beta has length {beta.shape[0]}, expected {k_users}")
    if np.any(beta <= 0.0):
        raise DomainError("large-scale coefficients must be positive")
    shape = (subcarriers, k_users, m_antennas)
    if correlation is None:
        g = _complex_gaussian(rng, shape)
    else:
        taps = correlation.taps
        tap_power = np.exp(-correlation.decay * np.arange(taps))
        tap_power /= tap_power.sum()
        c = _complex_gaussian(rng, (taps, k_users, m_antennas))
        c *= np.sqrt(tap_power)[:, None, None]
        # DFT of the delay taps onto the Q subcarriers.
        phase = np.exp(
            -2j * np.pi * np.outer(np.arange(subcarriers), np.arange(taps)) / subcarriers
        )
        g = np.tensordot(phase, c, axes=(1, 0))
    h = np.sqrt(beta)[None, :, None] * g
    return ChannelRealization(per_subcarrier=h, large_scale=beta)


def draw_los_channel(
    m_antennas: int,
    k_users: int,
    subcarriers: int,
    rng: np.random.Generator,
    random_phases: bool = True,
) -> ChannelRealization:
    """Pure line-of-sight channel with unit-modulus entries.

    Phases are uniform on [0, 2pi) by default; ``random_phases=False`` gives
    the all-ones matrix for deterministic tests.
    """
    shape = (subcarriers, k_users, m_antennas)
    if random_phases:
        h = np.exp(2j * np.pi * rng.random(shape))
    else:
        h = np.ones(shape, dtype=complex)
    return ChannelRealization(per_subcarrier=h, large_scale=np.ones(k_users))
