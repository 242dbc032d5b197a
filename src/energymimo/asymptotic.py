"""Asymptotic wideband analysis and active-antenna-count optimization.

In the many-subcarrier limit the optimal power allocation becomes uniform,
so the whole design reduces to deterministic formulas in the large-scale
quantities. No instantaneous CSI enters this module: everything is a pure
function of (beta_k, gamma_k, noise power) through the single trace term
sum_k gamma_k sigma^2 / beta_k.

The planner works on arrays: :func:`optimal_ma_plans` plans every (K, trace)
pair of two equal-shape arrays at once, and flags an infeasible pair rather
than raising. The power formulas and the quartic solver take scalars or
arrays alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import BsModel, PaModel

# Relative residual demanded of the quartic root, and the safeguarded-Newton
# steps allowed before a root that has neither met it nor been pinned between
# two adjacent doubles counts as not converged.
QUARTIC_RTOL = 1e-12
QUARTIC_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class AsymptoticPlan:
    """Outcome of the constrained active-antenna-count optimization.

    Every field is an array with one entry per (K, trace) pair. ``m_tilde``
    is the unconstrained continuous optimum, ``m_hat`` the minimal count
    honoring the per-antenna power cap, ``m_dagger`` the final integer
    choice. The power fields are evaluated at ``m_dagger``.
    """

    m_tilde: np.ndarray
    m_hat: np.ndarray
    m_dagger: np.ndarray
    p_bar: np.ndarray
    p_pas_bar: np.ndarray
    p_bs_bar: np.ndarray
    feasible: np.ndarray


def trace_term(beta, gamma, noise_power: float) -> float:
    """tr(D_beta^(-1) D_gamma sigma^2) = sum_k gamma_k sigma^2 / beta_k."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if beta.shape != gamma.shape:
        raise DomainError("beta and gamma must have matching lengths")
    if np.any(beta <= 0.0) or np.any(gamma < 0.0) or noise_power <= 0.0:
        raise DomainError("beta and noise power must be positive, gamma non-negative")
    return float(np.sum(gamma * noise_power / beta))


def _check_power_args(m_active, k_users, trace):
    if np.any(np.less_equal(m_active, k_users)):
        m_active, k_users = np.broadcast_arrays(m_active, k_users)
        i = int(np.argmax(m_active <= k_users))
        raise DomainError(
            f"zero forcing needs M_a > K, got M_a={m_active.flat[i]}, K={k_users.flat[i]}"
        )
    if np.any(np.less(trace, 0.0)):
        raise DomainError("trace term must be non-negative")


def asymptotic_per_antenna_power(m_active, k_users, trace):
    """Deterministic per-antenna transmit power trace / (M_a (M_a - K)).

    Arguments are scalars or broadcastable arrays, as for the other power
    formulas below.
    """
    _check_power_args(m_active, k_users, trace)
    return trace / (m_active * (m_active - k_users))


def asymptotic_pa_power(m_active, k_users, trace, pa: PaModel):
    """Asymptotic PA consumption alpha (M_a/(M_a - K) * trace)^(1/2)."""
    _check_power_args(m_active, k_users, trace)
    return pa.alpha * np.sqrt(m_active / (m_active - k_users) * trace)


def asymptotic_bs_power(m_active, k_users, trace, pa: PaModel, bs: BsModel):
    """Asymptotic BS consumption: PA term plus fixed and circuit power."""
    return (
        asymptotic_pa_power(m_active, k_users, trace, pa)
        + bs.p_fix
        + bs.circuit_per_antenna * m_active
    )


def solve_quartic_ma(k_users, t, circuit: float):
    """Unique root x > K of x (x - K)^3 = t K / (2 C), elementwise.

    The left side is strictly increasing from 0 to infinity on (K, inf), so
    a safeguarded Newton iteration on a sign-changing bracket converges to
    the single admissible root. ``k_users`` and ``t`` are scalars (the
    root is a float) or equal-shape arrays; each element keeps its own
    bracket and leaves the iteration once its residual is within
    ``QUARTIC_RTOL`` of its target, or once its bracket has closed to two
    adjacent doubles. The second test matters for roots close to K: there
    one ulp of x moves the residual by more than ``QUARTIC_RTOL`` of the
    target, so no double may meet the first, and the bracketed root is
    exact to one ulp. Raises :class:`DomainError` naming (K, t) of an
    element that has done neither after ``QUARTIC_MAX_ITERATIONS`` steps.
    """
    k_users, t = np.broadcast_arrays(np.asarray(k_users), np.asarray(t, dtype=float))
    if not np.all(t > 0.0) or circuit <= 0.0 or np.any(k_users < 1):
        raise DomainError("need t > 0, circuit > 0 and k_users >= 1")
    k = k_users.astype(float).ravel()
    target = t.ravel() * k / (2.0 * circuit)
    if not np.all(np.isfinite(target)):
        raise DomainError("the quartic target t K / (2 C) must be finite")

    # Products, not **: numpy's array power does not round like Python's. Near
    # the largest double a residual may overflow to inf, which the bracket
    # reads as above the root.
    @np.errstate(over="ignore")
    def f(x, k, target):
        d = x - k
        return x * (d * d * d) - target

    lo = k
    hi = k + np.maximum(np.sqrt(np.sqrt(target)), 1e-12)
    short = f(hi, k, target) < 0.0
    while short.any():
        hi = np.where(short, k + 2.0 * (hi - k), hi)
        short = f(hi, k, target) < 0.0
    x = 0.5 * (lo + hi)
    roots = np.empty_like(x)
    pending = np.arange(x.size)
    for _ in range(QUARTIC_MAX_ITERATIONS):
        fx = f(x, k, target)
        above = fx > 0.0
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        d = x - k
        x_new = x - fx / (d * d * (4.0 * x - k))
        x_new = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
        done = np.abs(f(x_new, k, target)) <= QUARTIC_RTOL * target
        done |= np.nextafter(lo, hi) >= hi
        roots[pending[done]] = x_new[done]
        left = ~done
        if not left.any():
            break
        pending, x, lo, hi, k, target = (
            a[left] for a in (pending, x_new, lo, hi, k, target)
        )
    else:
        i = pending[0]
        raise DomainError(
            f"quartic root not converged after {QUARTIC_MAX_ITERATIONS} iterations at "
            f"K={int(k_users.flat[i])}, t={float(t.flat[i])!r}"
        )
    return float(roots[0]) if k_users.ndim == 0 else roots.reshape(k_users.shape)


def min_ma_power_constraint(k_users, trace, p_max: float):
    """Minimal integer antenna count keeping the per-antenna power <= p_max.

    A cap so far below the trace that the count passes 2**62 gives 2**62,
    which the int64 cast keeps exact and no array reaches.
    """
    if p_max <= 0.0:
        raise DomainError(f"p_max must be positive, got {p_max}")
    if not np.all(np.greater_equal(trace, 0.0)):
        raise DomainError("trace term must be non-negative, not NaN")
    with np.errstate(over="ignore"):
        bound = 0.5 * (k_users + np.sqrt(k_users * k_users + 4.0 * trace / p_max))
    return np.ceil(np.minimum(bound, 2.0**62)).astype(np.int64)


def _stationarity_t(k_users, trace, pa: PaModel, bs: BsModel):
    """Normal-form t-argument of the quartic stationarity condition.

    Zeroing the derivative of the continuous BS-power objective gives
    x^(1/2) (x - K)^(3/2) = alpha sqrt(trace) K / (2 C), i.e. the quartic
    x (x - K)^3 = (alpha sqrt(trace) K / (2 C))^2. Folding the square into
    the solver's t K / (2 C) normal form yields this argument.
    """
    return pa.alpha**2 * trace * k_users / (2.0 * bs.circuit_per_antenna)


def _out_of_range_roots(k_users, trace, pa: PaModel, circuit: float):
    """Quartic roots whose target t K / (2 C) over- or underflowed on the way.

    The target (alpha K / (2 C))^2 trace comes again from logs. Past the
    largest double it takes the free-circuit limit, inf; below the smallest,
    the trace = 0 limit, K; in between it is solved as t K / (2 C) with
    C = 1/2 and t = target / K.
    """
    with np.errstate(over="ignore", under="ignore"):
        log_target = 2.0 * (np.log(pa.alpha) + np.log(k_users) - np.log(2.0 * circuit))
        t = np.exp(log_target + np.log(trace)) / k_users
    roots = np.where(t == np.inf, np.inf, k_users.astype(float))
    solve = (0.0 < t) & (t < np.inf)
    if solve.any():
        roots[solve] = solve_quartic_ma(k_users[solve], t[solve], 0.5)
    return roots


def optimal_ma_plans(
    m_antennas: int,
    k_users,
    trace,
    pa: PaModel,
    bs: BsModel,
    p_max: float,
) -> AsymptoticPlan:
    """BS-power-minimizing active-antenna counts for arrays of (K, trace).

    ``k_users`` and ``trace`` are equal-shape arrays; every field of the
    returned plan has their shape. Each pair takes the larger of the
    unconstrained quartic optimum and the power-constraint lower bound,
    clamps it to [K+1, M] and otherwise rounds it to whichever neighboring
    integer gives the lower BS power (exact ties go to the smaller count,
    fewer circuits). With ``circuit_per_antenna = 0`` there is no quartic:
    ``m_tilde`` is inf and ``m_dagger`` is M wherever trace > 0. So is
    ``m_tilde`` wherever the quartic's target is past the largest double;
    where it is below the smallest, ``m_tilde`` is K, as at trace = 0. Pairs
    with K >= M, or whose cap is violated even with all M antennas active,
    come back with ``feasible`` False, NaN in the float fields and 0 in
    ``m_dagger``; ``m_hat`` is always filled. With ``p_max = math.inf`` the
    bound is K and ``m_dagger`` is the uncapped optimum.
    """
    k_all = np.asarray(k_users, dtype=np.int64)
    trace_all = np.asarray(trace, dtype=float)
    m_hat = min_ma_power_constraint(k_all, trace_all, p_max)
    feasible = k_all < m_antennas
    feasible[feasible] = (
        asymptotic_per_antenna_power(m_antennas, k_all[feasible], trace_all[feasible]) <= p_max
    )
    k, trace = k_all[feasible], trace_all[feasible]

    m_tilde = k.astype(float)  # trace = 0: degenerate limit of the quartic root
    if bs.circuit_per_antenna == 0.0:
        # Free circuits: the BS power falls strictly with M_a, so the whole array wins.
        m_tilde[trace > 0.0] = np.inf
    else:
        circuit = bs.circuit_per_antenna
        with np.errstate(over="ignore", under="ignore"):
            t = _stationarity_t(k, trace, pa, bs)
            target = t * k / (2.0 * circuit)
        solve = (0.0 < target) & (target < np.inf)
        if solve.any():
            m_tilde[solve] = solve_quartic_ma(k[solve], t[solve], circuit)
        redo = (trace > 0.0) & ~solve
        if redo.any():
            m_tilde[redo] = _out_of_range_roots(k[redo], trace[redo], pa, circuit)
    y = np.maximum(m_tilde, m_hat[feasible])
    m_dagger = np.where(y <= k + 1, k + 1, m_antennas)
    inner = (y > k + 1) & (y < m_antennas)
    below, above = np.floor(y[inner]), np.ceil(y[inner])
    k_in, trace_in = k[inner], trace[inner]
    m_dagger[inner] = np.where(
        asymptotic_bs_power(below, k_in, trace_in, pa, bs)
        <= asymptotic_bs_power(above, k_in, trace_in, pa, bs),
        below,
        above,
    )

    def spread(values, fill):
        out = np.full(k_all.shape, fill, dtype=values.dtype)
        out[feasible] = values
        return out

    return AsymptoticPlan(
        m_tilde=spread(m_tilde, np.nan),
        m_hat=m_hat,
        m_dagger=spread(m_dagger, 0),
        p_bar=spread(asymptotic_per_antenna_power(m_dagger, k, trace), np.nan),
        p_pas_bar=spread(asymptotic_pa_power(m_dagger, k, trace, pa), np.nan),
        p_bs_bar=spread(asymptotic_bs_power(m_dagger, k, trace, pa, bs), np.nan),
        feasible=feasible,
    )

