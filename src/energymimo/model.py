"""Power-consumption models of the base station and its amplifiers.

Everything here works in linear Watts; dB conversions happen once, when
``config`` loads an experiment. All functions are pure and safe for
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

# An antenna counts as active above this power in every power report's
# ``m_active``. The fixed point prunes a dead antenna to an exact zero; the
# threshold only hides antennas still decaying when the iteration stops, about
# 3.5 per realization in (0, 1e-9] W on a narrowband M=64, K=4, Q=1 run.
ACTIVE_POWER_THRESHOLD = 1e-9  # W

FLOP_SYSTEMS = ("wideband", "narrowband", "asymptotic")
FLOP_SOLVERS = ("proposed", "conventional")


@dataclass(frozen=True)
class PaModel:
    """Square-root efficiency power amplifier.

    An amplifier radiating p <= p_max Watts runs at efficiency
    eta_max (p / p_max)^(1/2), so it consumes p / eta = alpha p^(1/2) with
    alpha = p_max^(1/2) / eta_max.

    Parameters
    ----------
    p_max : float
        Maximal operating power in Watts.
    eta_max : float
        Efficiency at ``p_max``.
    """

    p_max: float
    eta_max: float = 0.22

    def __post_init__(self):
        if self.p_max <= 0.0:
            raise DomainError(f"p_max must be positive, got {self.p_max}")
        if not np.isfinite(self.p_max):
            raise DomainError(f"p_max must be finite, got {self.p_max}")
        if not 0.0 < self.eta_max <= 1.0:
            raise DomainError(f"eta_max must be in (0, 1], got {self.eta_max}")
        with np.errstate(over="ignore"):
            alpha = self.alpha
        if not np.isfinite(alpha):
            raise DomainError(
                f"the consumption coefficient p_max^(1/2) / eta_max = {alpha} is not finite"
            )

    @property
    def alpha(self) -> float:
        """Consumption coefficient p_max^(1/2) / eta_max in W^(1/2)."""
        return np.sqrt(self.p_max) / self.eta_max


@dataclass(frozen=True)
class BsModel:
    """Static and per-antenna circuit consumption of the base station."""

    p_fix: float = 15.0
    circuit_per_antenna: float = 0.7

    def __post_init__(self):
        for name in ("p_fix", "circuit_per_antenna"):
            value = getattr(self, name)
            if value < 0.0:
                raise DomainError(f"{name} must be >= 0, got {value}")
            if not np.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PowerReport:
    """Full power accounting of one precoder solution, or of a stack of them.

    Every field is a scalar for one length-M power vector, and for a stack an
    array of its leading shape: (R,) for (R, M), (R, S) for (R, S, M).
    ``shares`` is the (amplifier, circuit, fixed) split of the total BS
    consumption; the entries sum to 1 whenever the total is positive.
    """

    p_tx: float
    p_pas: float
    p_bs: float
    m_active: int
    shares: tuple[float, float, float]


def _as_power_array(powers) -> np.ndarray:
    """A (..., M) array of per-antenna powers, the antennas on the last axis."""
    p = np.atleast_1d(np.asarray(powers, dtype=float))
    if np.any(p < 0.0):
        raise DomainError("antenna powers must be non-negative")
    return p


def _scalar_or_array(value):
    """A Python scalar for one power vector, the array itself for a stack."""
    return value.item() if np.ndim(value) == 0 else value


def per_antenna_powers(matrices: np.ndarray) -> np.ndarray:
    """Per-antenna transmit powers p_m = sum_{k,q} |w_{m,k,q}|^2 of (..., Q, M, K) precoders.

    A (Q, M, K) solution gives (M,) powers and an (R, Q, M, K) stack gives
    (R, M) powers, each row equal to its slice alone bit for bit.
    """
    if np.ndim(matrices) < 3:
        raise DimensionError(f"precoders must have shape (..., Q, M, K), got {np.shape(matrices)}")
    return np.sum(np.abs(matrices) ** 2, axis=(-3, -1))


def pa_consumed_power(powers, pa: PaModel):
    """Total amplifier consumption alpha * sum_m p_m^(1/2), per power vector."""
    p = _as_power_array(powers)
    return _scalar_or_array(pa.alpha * np.sum(np.sqrt(p), axis=-1))


def bs_consumed_power(powers, pa: PaModel, bs: BsModel) -> PowerReport:
    """Whole-BS power report of a length-M power vector or a (..., M) stack.

    Each stack row gets exactly the arithmetic its vector gets alone.
    """
    p = _as_power_array(powers)
    p_tx = np.sum(p, axis=-1)
    p_pas = pa.alpha * np.sum(np.sqrt(p), axis=-1)
    m_active = np.count_nonzero(p > ACTIVE_POWER_THRESHOLD, axis=-1)
    circuit = bs.circuit_per_antenna * m_active
    p_bs = p_pas + bs.p_fix + circuit
    positive = p_bs > 0.0
    total = np.where(positive, p_bs, 1.0)
    shares = tuple(
        _scalar_or_array(np.where(positive, part / total, 0.0))
        for part in (p_pas, circuit, bs.p_fix)
    )
    return PowerReport(
        p_tx=_scalar_or_array(p_tx),
        p_pas=_scalar_or_array(p_pas),
        p_bs=_scalar_or_array(p_bs),
        m_active=_scalar_or_array(m_active),
        shares=shares,
    )


def gain_metrics(reference: PowerReport, candidate: PowerReport):
    """Consumption ratios (reference / candidate) for the PAs and the BS.

    Scalars for one-vector reports, arrays for stacked ones, which broadcast:
    an (R, 1) reference divides each column of an (R, S) candidate.
    """
    if np.any(candidate.p_pas <= 0.0) or np.any(candidate.p_bs <= 0.0):
        raise ZeroDivisionError("candidate report has zero consumption")
    return reference.p_pas / candidate.p_pas, reference.p_bs / candidate.p_bs


def estimate_flops(
    system: str,
    solver: str,
    k_users: int,
    m_antennas: int,
    subcarriers: int = 1,
    iterations: int = 1,
) -> float:
    """Complex flop count of one precoder computation.

    The per-subcarrier base covers the weighted Gram build, its Cholesky
    solve and the final QoS scaling, as the paper's complexity table counts
    them. ``precoding`` inverts the Gram by LAPACK or, on instances with
    many subcarriers, by a Gauss-Jordan sweep of the same K^3 order; the
    count does not follow that choice. The proposed solver additionally
    pays the power-update bookkeeping on every one of its ``iterations``. The
    narrowband count is the wideband one at Q = 1; the asymptotic count is
    the conventional per-subcarrier form evaluated at whatever antenna count
    is passed in (the active subset for the proposed strategy).
    """
    if system not in FLOP_SYSTEMS:
        raise DomainError(f"unknown system {system!r}, expected one of {FLOP_SYSTEMS}")
    if solver not in FLOP_SOLVERS:
        raise DomainError(f"unknown solver {solver!r}, expected one of {FLOP_SOLVERS}")
    k, m, q, i = k_users, m_antennas, subcarriers, iterations
    if min(k, m, q, i) < 1:
        raise DomainError("all counts must be >= 1")
    if system == "narrowband":
        q = 1
    base = (k**3 * q) / 3.0 + 3.0 * k**2 * m * q + 2.0 * k * m * q + k * q
    if system == "asymptotic" or solver == "conventional":
        return base
    extra = k * q * m + k * m + q * m - 2 * m
    return i * (base + extra)
