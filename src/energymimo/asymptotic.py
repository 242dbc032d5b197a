"""Asymptotic wideband analysis and active-antenna-count optimization.

In the many-subcarrier limit the optimal power allocation becomes uniform,
so the whole design reduces to deterministic formulas in the large-scale
quantities. No instantaneous CSI enters this module: everything is a pure
function of (beta_k, gamma_k, noise power) through the single trace term
sum_k gamma_k sigma^2 / beta_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError
from .model import BsModel, PaModel

# Relative residual demanded of the quartic root.
QUARTIC_RTOL = 1e-12


@dataclass(frozen=True)
class AsymptoticPlan:
    """Outcome of the constrained active-antenna-count optimization.

    ``m_tilde`` is the unconstrained continuous optimum, ``m_hat`` the
    minimal count honoring the per-antenna power cap, ``m_dagger`` the final
    integer choice. The power fields are evaluated at ``m_dagger``.
    """

    m_tilde: float
    m_hat: int
    m_dagger: int
    p_bar: float
    p_pas_bar: float
    p_bs_bar: float
    feasible: bool


def trace_term(beta, gamma, noise_power: float) -> float:
    """tr(D_beta^(-1) D_gamma sigma^2) = sum_k gamma_k sigma^2 / beta_k."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if beta.shape != gamma.shape:
        raise DomainError("beta and gamma must have matching lengths")
    if np.any(beta <= 0.0) or np.any(gamma < 0.0) or noise_power <= 0.0:
        raise DomainError("beta and noise power must be positive, gamma non-negative")
    return float(np.sum(gamma * noise_power / beta))


def asymptotic_per_antenna_power(m_active: int, k_users: int, trace: float) -> float:
    """Deterministic per-antenna transmit power trace / (M_a (M_a - K))."""
    if m_active <= k_users:
        raise DomainError(
            f"zero forcing needs M_a > K, got M_a={m_active}, K={k_users}"
        )
    if trace < 0.0:
        raise DomainError("trace term must be non-negative")
    return trace / (m_active * (m_active - k_users))


def asymptotic_pa_power(m_active: int, k_users: int, trace: float, pa: PaModel) -> float:
    """Asymptotic PA consumption alpha (M_a/(M_a - K) * trace)^(1/2)."""
    if m_active <= k_users:
        raise DomainError(
            f"zero forcing needs M_a > K, got M_a={m_active}, K={k_users}"
        )
    return float(pa.alpha * math.sqrt(m_active / (m_active - k_users) * trace))


def asymptotic_bs_power(
    m_active: int, k_users: int, trace: float, pa: PaModel, bs: BsModel
) -> float:
    """Asymptotic BS consumption: PA term plus fixed and circuit power."""
    return (
        asymptotic_pa_power(m_active, k_users, trace, pa)
        + bs.p_fix
        + bs.circuit_per_antenna * m_active
    )


def solve_quartic_ma(k_users: int, t: float, circuit: float) -> float:
    """Unique root x > K of x (x - K)^3 = t K / (2 C).

    The left side is strictly increasing from 0 to infinity on (K, inf), so
    a safeguarded Newton iteration on a sign-changing bracket converges to
    the single admissible root.
    """
    if t <= 0.0 or circuit <= 0.0 or k_users < 1:
        raise DomainError("need t > 0, circuit > 0 and k_users >= 1")
    k = float(k_users)
    target = t * k / (2.0 * circuit)

    def f(x):
        return x * (x - k) ** 3 - target

    def fprime(x):
        return (x - k) ** 2 * (4.0 * x - k)

    lo = k
    hi = k + max(target**0.25, 1e-12)
    while f(hi) < 0.0:
        hi = k + 2.0 * (hi - k)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if fx > 0.0:
            hi = x
        else:
            lo = x
        step = fx / fprime(x)
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(f(x_new)) <= QUARTIC_RTOL * target:
            return float(x_new)
        x = x_new
    return float(x)


def min_ma_power_constraint(k_users: int, trace: float, p_max: float) -> int:
    """Minimal integer antenna count keeping the per-antenna power <= p_max."""
    if p_max <= 0.0:
        raise DomainError(f"p_max must be positive, got {p_max}")
    if trace < 0.0:
        raise DomainError("trace term must be non-negative")
    bound = 0.5 * (k_users + math.sqrt(k_users**2 + 4.0 * trace / p_max))
    return int(math.ceil(bound))


def feasibility_check(m_antennas: int, k_users: int, trace: float, p_max: float) -> bool:
    """Whether activating all M antennas satisfies the per-antenna cap."""
    if m_antennas <= k_users:
        raise InfeasibleError(
            f"zero forcing needs M > K, got M={m_antennas}, K={k_users}"
        )
    return asymptotic_per_antenna_power(m_antennas, k_users, trace) <= p_max


def _stationarity_t(k_users: int, trace: float, pa: PaModel, bs: BsModel) -> float:
    """Normal-form t-argument of the quartic stationarity condition.

    Zeroing the derivative of the continuous BS-power objective gives
    x^(1/2) (x - K)^(3/2) = alpha sqrt(trace) K / (2 C), i.e. the quartic
    x (x - K)^3 = (alpha sqrt(trace) K / (2 C))^2. Folding the square into
    the solver's t K / (2 C) normal form yields this argument.
    """
    return pa.alpha**2 * trace * k_users / (2.0 * bs.circuit_per_antenna)


def _round_by_objective(y: float, objective) -> int:
    """Ceil-floor operator: whichever neighbor minimizes ``objective``.

    Exact ties go to the smaller antenna count (fewer circuits).
    """
    floor_y = int(math.floor(y))
    ceil_y = int(math.ceil(y))
    if floor_y == ceil_y:
        return floor_y
    return floor_y if objective(floor_y) <= objective(ceil_y) else ceil_y


def optimal_ma_constrained(
    m_antennas: int,
    k_users: int,
    trace: float,
    pa: PaModel,
    bs: BsModel,
    p_max: float,
) -> AsymptoticPlan:
    """Active-antenna count minimizing BS power under per-antenna caps.

    Takes the larger of the unconstrained quartic optimum and the
    power-constraint lower bound, then applies the bound checks before the
    ceil-floor rounding. Raises :class:`InfeasibleError` carrying the
    minimal feasible M when even the full array violates the caps. With
    ``p_max = math.inf`` the bound is K and ``m_dagger`` is the uncapped
    optimum.
    """
    if m_antennas <= k_users:
        raise InfeasibleError(
            f"zero forcing needs M > K, got M={m_antennas}, K={k_users}"
        )
    m_hat = min_ma_power_constraint(k_users, trace, p_max)
    if not feasibility_check(m_antennas, k_users, trace, p_max):
        min_feasible = max(m_hat, k_users + 1)
        raise InfeasibleError(
            f"per-antenna power cap violated even with all {m_antennas} antennas; "
            f"need at least M={min_feasible}",
            min_feasible_m=min_feasible,
        )
    if trace == 0.0:
        m_tilde = float(k_users)  # degenerate limit of the quartic root
    else:
        m_tilde = solve_quartic_ma(
            k_users, _stationarity_t(k_users, trace, pa, bs), bs.circuit_per_antenna
        )
    y = max(m_tilde, float(m_hat))
    if y <= k_users + 1:
        m_dagger = k_users + 1
    elif y >= m_antennas:
        m_dagger = m_antennas
    else:
        m_dagger = _round_by_objective(
            y, lambda n: asymptotic_bs_power(n, k_users, trace, pa, bs)
        )
    return AsymptoticPlan(
        m_tilde=m_tilde,
        m_hat=m_hat,
        m_dagger=m_dagger,
        p_bar=asymptotic_per_antenna_power(m_dagger, k_users, trace),
        p_pas_bar=asymptotic_pa_power(m_dagger, k_users, trace, pa),
        p_bs_bar=asymptotic_bs_power(m_dagger, k_users, trace, pa, bs),
        feasible=True,
    )
