"""Power-consumption models of the base station and its amplifiers.

Everything here works in linear Watts; dB conversions happen once, when
``config`` loads an experiment. All functions are pure and safe for
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

# Fixed-point iterates drive dead antennas to numerically tiny, not exactly
# zero, powers; anything below this floor counts as switched off.
DEFAULT_ACTIVE_POWER_THRESHOLD = 1e-9  # W

FLOP_SYSTEMS = ("wideband", "narrowband", "asymptotic")
FLOP_SOLVERS = ("proposed", "conventional")


@dataclass(frozen=True)
class PaModel:
    """Square-root efficiency power amplifier.

    Parameters
    ----------
    p_sat : float
        Saturation power in Watts.
    backoff : float
        Linear back-off ratio >= 1 keeping the operating point below
        saturation (10 corresponds to the usual 10 dB).
    eta_max : float
        Efficiency at the maximal operating power ``p_max = p_sat / backoff``.
    """

    p_sat: float
    backoff: float = 10.0
    eta_max: float = 0.22

    def __post_init__(self):
        if self.p_sat <= 0.0:
            raise DomainError(f"p_sat must be positive, got {self.p_sat}")
        if self.backoff < 1.0:
            raise DomainError(f"backoff must be >= 1, got {self.backoff}")
        if not 0.0 < self.eta_max <= 1.0:
            raise DomainError(f"eta_max must be in (0, 1], got {self.eta_max}")

    @classmethod
    def from_p_max(cls, p_max: float, eta_max: float = 0.22, backoff: float = 10.0) -> "PaModel":
        """Build the model from the maximal operating power instead of p_sat."""
        return cls(p_sat=p_max * backoff, backoff=backoff, eta_max=eta_max)

    @property
    def p_max(self) -> float:
        """Maximal operating power in Watts."""
        return self.p_sat / self.backoff

    @property
    def eta_sat(self) -> float:
        """Efficiency at saturation, derived from eta_max and the back-off."""
        return self.eta_max * np.sqrt(self.backoff)

    @property
    def alpha(self) -> float:
        """Consumption coefficient p_max^(1/2) / eta_max in W^(1/2)."""
        return np.sqrt(self.p_max) / self.eta_max


@dataclass(frozen=True)
class BsModel:
    """Static and per-antenna circuit consumption of the base station."""

    p_fix: float = 15.0
    circuit_per_antenna: float = 0.7
    active_power_threshold: float = DEFAULT_ACTIVE_POWER_THRESHOLD

    def __post_init__(self):
        if self.p_fix < 0.0:
            raise DomainError(f"p_fix must be >= 0, got {self.p_fix}")
        if self.circuit_per_antenna < 0.0:
            raise DomainError(f"circuit_per_antenna must be >= 0, got {self.circuit_per_antenna}")
        if self.active_power_threshold < 0.0:
            raise DomainError("active_power_threshold must be >= 0")


@dataclass(frozen=True)
class PowerReport:
    """Full power accounting of one precoder solution.

    ``shares`` is the (amplifier, circuit, fixed) split of the total BS
    consumption; the entries sum to 1 whenever the total is positive.
    """

    p_tx: float
    p_pas: float
    p_bs: float
    m_active: int
    shares: tuple[float, float, float]


def _as_power_array(powers) -> np.ndarray:
    p = np.atleast_1d(np.asarray(powers, dtype=float))
    if p.ndim != 1:
        raise DimensionError(f"powers must be one-dimensional, got shape {p.shape}")
    if np.any(p < 0.0):
        raise DomainError("antenna powers must be non-negative")
    return p


def per_antenna_powers(matrices, m_antennas: int | None = None) -> np.ndarray:
    """Per-antenna transmit powers of a stack of per-subcarrier precoders.

    ``matrices`` is either a (Q, M, K) complex array or a sequence of Q
    matrices of identical shape (M, K). Returns the length-M vector of
    p_m = sum_{k,q} |w_{m,k,q}|^2.
    """
    if isinstance(matrices, np.ndarray) and matrices.ndim == 3:
        stack = matrices
    else:
        mats = [np.atleast_2d(np.asarray(w)) for w in matrices]
        if not mats:
            raise DimensionError("need at least one precoding matrix")
        shape = mats[0].shape
        for q, w in enumerate(mats):
            if w.shape != shape:
                raise DimensionError(
                    f"subcarrier {q} has shape {w.shape}, expected {shape}"
                )
        stack = np.stack(mats)
    if m_antennas is not None and stack.shape[1] != m_antennas:
        raise DimensionError(
            f"precoders have {stack.shape[1]} antenna rows, expected {m_antennas}"
        )
    return np.sum(np.abs(stack) ** 2, axis=(0, 2))


def pa_consumed_power(powers, pa: PaModel) -> float:
    """Total amplifier consumption alpha * sum_m p_m^(1/2)."""
    p = _as_power_array(powers)
    return float(pa.alpha * np.sum(np.sqrt(p)))


def ideal_pa_consumed_power(powers, eta: float) -> float:
    """Consumption under a fixed-efficiency amplifier: p_tx / eta."""
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must be in (0, 1], got {eta}")
    p = _as_power_array(powers)
    return float(np.sum(p) / eta)


def pa_efficiency(p: float, pa: PaModel) -> float:
    """Instantaneous amplifier efficiency eta_sat * (p / p_sat)^(1/2)."""
    if not 0.0 < p <= pa.p_sat:
        raise DomainError(f"power must be in (0, p_sat={pa.p_sat}], got {p}")
    return float(pa.eta_sat * np.sqrt(p / pa.p_sat))


def bs_consumed_power(powers, pa: PaModel, bs: BsModel) -> PowerReport:
    """Assemble the whole-BS power report for a per-antenna power vector."""
    p = _as_power_array(powers)
    p_tx = float(np.sum(p))
    p_pas = float(pa.alpha * np.sum(np.sqrt(p)))
    m_active = int(np.count_nonzero(p > bs.active_power_threshold))
    circuit = bs.circuit_per_antenna * m_active
    p_bs = p_pas + bs.p_fix + circuit
    if p_bs > 0.0:
        shares = (p_pas / p_bs, circuit / p_bs, bs.p_fix / p_bs)
    else:
        shares = (0.0, 0.0, 0.0)
    return PowerReport(
        p_tx=p_tx,
        p_pas=p_pas,
        p_bs=p_bs,
        m_active=m_active,
        shares=shares,
    )


def gain_metrics(reference: PowerReport, candidate: PowerReport) -> tuple[float, float]:
    """Consumption ratios (reference / candidate) for the PAs and the BS."""
    if candidate.p_pas <= 0.0 or candidate.p_bs <= 0.0:
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
    solve and the final QoS scaling; the proposed solver additionally pays
    the power-update bookkeeping on every one of its ``iterations``. The
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
