"""Independent desk-scale solvers used as ground truth in tests.

Nothing here shares machinery with :mod:`precoding` or :mod:`asymptotic`:
the consumption minimizer is a null-space descent, the Wishart expectation a
Monte-Carlo estimate, the antenna-count optimum an exhaustive grid scan and
the quartic a closed-form resolvent-cubic solve. They may be orders of
magnitude slower than the main paths; that is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channel import ChannelRealization, QosTargets
from .errors import DomainError, InfeasibleError, OracleSizeError
from .model import PaModel

# Default desk-scale guard of the brute-force consumption minimizer.
ORACLE_MAX_M = 8
ORACLE_MAX_K = 4
ORACLE_MAX_Q = 8

# Smoothing continuation: relative levels multiplying the squared
# per-antenna amplitude scale of the instance.
_SMOOTHING_LEVELS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)


@dataclass(frozen=True)
class OracleResult:
    """Powers and objective found by an oracle, plus its certificate.

    ``certificate`` is (max ZF residual, final gradient norm); the gradient
    norm is zero for analytic and grid methods.
    """

    powers: np.ndarray
    objective: float
    certificate: tuple[float, float]


def _zf_base_and_nullspace(h, rhs_diag):
    """Pseudo-inverse feasible point and null-space bases, per subcarrier."""
    bases = []
    nulls = []
    k = h.shape[1]
    for hq in h:
        bases.append(np.linalg.pinv(hq) @ np.diag(rhs_diag))
        _, _, vh = np.linalg.svd(hq, full_matrices=True)
        nulls.append(vh[k:].conj().T)
    return np.stack(bases), np.stack(nulls)


def _objective_and_grad(z, w0, nulls, mu):
    """Smoothed objective sum_m (p_m + mu)^(1/2) and its real gradient."""
    q, m, k = w0.shape
    free = nulls.shape[2]
    zc = (z[: z.size // 2] + 1j * z[z.size // 2 :]).reshape(q, free, k)
    w = w0 + nulls @ zc
    powers = np.sum(np.abs(w) ** 2, axis=(0, 2))
    sqrt_terms = np.sqrt(powers + mu)
    value = float(np.sum(sqrt_terms))
    scaled = w / (2.0 * sqrt_terms)[None, :, None]
    grad_c = nulls.conj().transpose(0, 2, 1) @ scaled
    grad = np.concatenate([2.0 * grad_c.real.ravel(), 2.0 * grad_c.imag.ravel()])
    return value, grad


def solve_min_pa_bruteforce(
    channel: ChannelRealization,
    qos: QosTargets,
    pa: PaModel,
    starts: int = 8,
    rng: np.random.Generator | None = None,
    max_m: int = ORACLE_MAX_M,
    max_k: int = ORACLE_MAX_K,
    max_q: int = ORACLE_MAX_Q,
) -> OracleResult:
    """Globally minimize the PA consumption over all ZF-feasible precoders.

    Every feasible precoder is W_q = W_q^base + N_q Z_q with N_q spanning the
    null space of H_q, so the problem becomes the unconstrained minimization
    of the convex sum of row norms over the free variables Z_q. That is
    solved by multi-start quasi-Newton descent on a smoothed surrogate with
    the smoothing level driven to zero; convexity makes every converged
    start a certificate of the global optimum.
    """
    m, k, q = channel.m_antennas, channel.k_users, channel.subcarriers
    if m > max_m or k > max_k or q > max_q:
        raise OracleSizeError(
            f"instance (M={m}, K={k}, Q={q}) exceeds oracle guard "
            f"(M<={max_m}, K<={max_k}, Q<={max_q})"
        )
    if qos.k_users != k or qos.subcarriers != q:
        raise DomainError("QoS targets do not match the channel dimensions")
    rng = rng or np.random.default_rng(0)
    rhs_diag = np.sqrt(qos.per_subcarrier_gamma) * qos.noise_std
    w0, nulls = _zf_base_and_nullspace(channel.per_subcarrier, rhs_diag)
    free = m - k
    dim = 2 * q * free * k

    base_powers = np.sum(np.abs(w0) ** 2, axis=(0, 2))
    amp_scale = float(np.sqrt(base_powers.sum() / m))  # typical row amplitude
    best_value = np.inf
    best_z = None
    if free == 0 or dim == 0:
        best_z = np.zeros(0)
        best_value, _ = _objective_and_grad(best_z, w0, nulls, 0.0)
        starts = 0
    for start in range(starts):
        if start == 0:
            z = np.zeros(dim)
        else:
            z = rng.standard_normal(dim) * amp_scale
        for level in _SMOOTHING_LEVELS:
            mu = level * amp_scale**2
            res = minimize(
                _objective_and_grad,
                z,
                args=(w0, nulls, mu),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": 200 * max(dim, 1), "ftol": 1e-16, "gtol": 1e-12},
            )
            z = res.x
        value, _ = _objective_and_grad(z, w0, nulls, 0.0)
        if value < best_value:
            best_value = value
            best_z = z

    mu_final = _SMOOTHING_LEVELS[-1] * amp_scale**2
    _, grad = _objective_and_grad(best_z, w0, nulls, mu_final)
    if best_z.size:
        zc = (best_z[: best_z.size // 2] + 1j * best_z[best_z.size // 2 :]).reshape(
            q, free, k
        )
        w = w0 + nulls @ zc
    else:
        w = w0
    powers = np.sum(np.abs(w) ** 2, axis=(0, 2))
    residual = float(
        np.max(np.abs(channel.per_subcarrier @ w - np.diag(rhs_diag)[None, :, :]))
    )
    return OracleResult(
        powers=powers,
        objective=float(pa.alpha * np.sum(np.sqrt(powers))),
        certificate=(residual, float(np.linalg.norm(grad))),
    )


def analytic_single_user(h, qos: QosTargets, pa: PaModel) -> OracleResult:
    """Closed-form narrowband single-user optimum (strongest antenna)."""
    h = np.atleast_1d(np.asarray(h, dtype=complex))
    if qos.k_users != 1 or qos.subcarriers != 1:
        raise DomainError("analytic oracle covers the K=1, Q=1 case only")
    gains = np.abs(h)
    if not np.any(gains > 0.0):
        raise InfeasibleError("all-zero channel")
    m_hat = int(np.argmax(gains))
    powers = np.zeros(h.shape[0])
    powers[m_hat] = qos.noise_power * float(qos.gamma[0]) / gains[m_hat] ** 2
    return OracleResult(
        powers=powers,
        objective=float(pa.alpha * np.sqrt(powers[m_hat])),
        certificate=(0.0, 0.0),
    )


def mc_inverse_wishart_trace(
    m_antennas: int,
    k_users: int,
    beta,
    gamma,
    noise_power: float,
    draws: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of E[tr((H H^H)^(-1) D_gamma sigma^2)].

    Validates the inverse-Wishart expectation behind the asymptotic per
    antenna power: the estimate approaches trace_term / (M - K).
    """
    if m_antennas <= k_users:
        raise DomainError("need M > K for an invertible Gram matrix")
    if draws < 100:
        raise DomainError(f"draws must be >= 100, got {draws}")
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (k_users,))
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (k_users,))
    weights = gamma * noise_power
    total = 0.0
    done = 0
    batch = 512
    while done < draws:
        n = min(batch, draws - done)
        g = (
            rng.standard_normal((n, k_users, m_antennas))
            + 1j * rng.standard_normal((n, k_users, m_antennas))
        ) / np.sqrt(2.0)
        h = np.sqrt(beta)[None, :, None] * g
        gram = h @ h.conj().transpose(0, 2, 1)
        inv = np.linalg.inv(gram)
        diag = np.diagonal(inv, axis1=1, axis2=2).real
        total += float(np.sum(diag @ weights))
        done += n
    return total / draws


def grid_min_bs(
    m_antennas: int,
    k_users: int,
    trace: float,
    pa: PaModel,
    bs: BsModel,
    p_max: float,
) -> int:
    """Exhaustive integer argmin of the asymptotic BS power.

    Scans every admissible count in [max(K+1, power-constraint bound), M];
    ties go to the smaller count.
    """
    if m_antennas > 4096:
        raise OracleSizeError(f"grid oracle limited to M <= 4096, got {m_antennas}")
    lower_bound = math.ceil(0.5 * (k_users + math.sqrt(k_users**2 + 4.0 * trace / p_max)))
    lo = max(k_users + 1, lower_bound)
    if lo > m_antennas:
        raise InfeasibleError(
            f"no admissible antenna count in [{lo}, {m_antennas}]",
            min_feasible_m=lo,
        )
    counts = np.arange(lo, m_antennas + 1, dtype=float)
    values = (
        pa.alpha * np.sqrt(counts / (counts - k_users) * trace)
        + bs.p_fix
        + bs.circuit_per_antenna * counts
    )
    return int(counts[int(np.argmin(values))])


def _real_cubic_roots(b2: float, b1: float, b0: float) -> list[float]:
    """Real roots of the monic cubic t^3 + b2 t^2 + b1 t + b0 (Cardano)."""
    shift = b2 / 3.0
    p = b1 - b2**2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        root = np.cbrt(-q / 2.0 + s) + np.cbrt(-q / 2.0 - s)
        return [float(root) - shift]
    if disc == 0.0:
        u = np.cbrt(-q / 2.0)
        return [float(2.0 * u) - shift, float(-u) - shift]
    r = math.sqrt(-(p / 3.0) ** 3)
    phi = math.acos(max(-1.0, min(1.0, -q / (2.0 * r))))
    mag = 2.0 * math.sqrt(-p / 3.0)
    return [mag * math.cos((phi + 2.0 * math.pi * i) / 3.0) - shift for i in range(3)]


def quartic_real_roots(a3: float, a2: float, a1: float, a0: float) -> list[float]:
    """Real roots of the monic quartic via the resolvent-cubic method."""
    p = a2 - 3.0 * a3**2 / 8.0
    q = a1 - a3 * a2 / 2.0 + a3**3 / 8.0
    r = a0 - a3 * a1 / 4.0 + a3**2 * a2 / 16.0 - 3.0 * a3**4 / 256.0
    shift = a3 / 4.0
    roots: list[float] = []
    if q == 0.0:
        # Biquadratic case.
        disc = p**2 - 4.0 * r
        if disc >= 0.0:
            for y2 in ((-p + math.sqrt(disc)) / 2.0, (-p - math.sqrt(disc)) / 2.0):
                if y2 >= 0.0:
                    s = math.sqrt(y2)
                    roots.extend([s, -s])
    else:
        # Resolvent cubic 8 m^3 + 8 p m^2 + (2 p^2 - 8 r) m - q^2 = 0.
        candidates = [
            m for m in _real_cubic_roots(p, (p**2 - 4.0 * r) / 4.0, -(q**2) / 8.0) if m > 0.0
        ]
        if candidates:
            m_res = max(candidates)
            s2m = math.sqrt(2.0 * m_res)
            const = p / 2.0 + m_res
            offset = q / (2.0 * s2m)
            for sign in (+1.0, -1.0):
                # y^2 - sign*s2m*y + (const + sign*offset) = 0
                disc = 2.0 * m_res - 4.0 * (const + sign * offset)
                if disc >= 0.0:
                    half = math.sqrt(disc) / 2.0
                    roots.extend([sign * s2m / 2.0 + half, sign * s2m / 2.0 - half])
    return [root - shift for root in roots]


def solve_quartic_closed_form(k_users: int, t: float, circuit: float) -> float:
    """Closed-form counterpart of the quartic antenna-count solve.

    Expands x (x - K)^3 = t K / (2 C) to monic form and returns the unique
    real root exceeding K. Exists only as a cross-check of the Newton path.
    """
    if t <= 0.0 or circuit <= 0.0 or k_users < 1:
        raise DomainError("need t > 0, circuit > 0 and k_users >= 1")
    k = float(k_users)
    target = t * k / (2.0 * circuit)
    roots = quartic_real_roots(-3.0 * k, 3.0 * k**2, -(k**3), -target)
    admissible = [x for x in roots if x > k]
    if not admissible:
        raise DomainError("closed-form solve found no root above K")
    return max(admissible)
