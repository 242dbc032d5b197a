"""Independent desk-scale solvers used as ground truth in tests.

Nothing here shares machinery with :mod:`precoding` or :mod:`asymptotic`,
and nothing here needs more than numpy: the consumption minimizer is an
interior-point method on the dual second-order cone program, the Wishart
expectation a Monte-Carlo estimate, the antenna-count optimum an exhaustive
grid scan and the quartic a closed-form resolvent-cubic solve. They may be
orders of magnitude slower than the main paths; that is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, QosTargets
from .errors import DomainError, InfeasibleError, OracleSizeError
from .model import BsModel, PaModel

# Default desk-scale guard of the brute-force consumption minimizer.
ORACLE_MAX_M = 8
ORACLE_MAX_K = 4
ORACLE_MAX_Q = 8

# Interior-point schedule of the consumption minimizer. The barrier weight t
# grows by _BARRIER_GROWTH per centering; a centering ends once the squared
# Newton decrement is at most _CENTERING_TOL; the solve ends once the certified
# relative duality gap is at most GAP_TOL, or after _MAX_NEWTON_STEPS.
_BARRIER_GROWTH = 50.0
_CENTERING_TOL = 0.1
GAP_TOL = 1e-10
_MAX_NEWTON_STEPS = 300
# Armijo fraction of the backtracking line search, and the share of the
# largest feasible step it starts from.
_ARMIJO = 0.25
_BOUNDARY_SHARE = 0.99


@dataclass(frozen=True)
class OracleResult:
    """Powers and objective found by an oracle, plus its certificate.

    ``certificate`` is (max ZF residual, relative duality gap); the gap bounds
    how far ``objective`` can lie above the optimum,
    ``objective / (1 + gap) <= optimum <= objective``. It is zero for the
    analytic and grid methods.
    """

    powers: np.ndarray
    objective: float
    certificate: tuple[float, float]


def _row_norms(w):
    """||w_m|| of a (Q, M, K) stack, over subcarriers and users."""
    return np.sqrt((w.real**2 + w.imag**2).sum(axis=(0, 2)))


def _newton_step(h, h_adj, eye, g, slack, t):
    """Newton direction of the dual barrier -t Re tr(Lambda) - sum_m log s_m.

    Its Hessian acts on Lambda_q as S_q Lambda_q with S_q = H_q diag(2/s) H_q^H,
    plus one real rank-one term (4/s_m^2) Re<U_m, .> U_m per antenna, where
    U_m stacks h_qm g_qm^T over q. The M rank-one terms are folded in by the
    Woodbury identity, an M x M solve next to Q solves of size K. Returns the
    direction and the squared Newton decrement.
    """
    m = h.shape[2]
    weights = 2.0 / slack
    residual = t * eye - h @ (weights[:, None] * g)  # minus the gradient
    solved = np.linalg.solve((h * weights) @ h_adj, np.concatenate([h, residual], axis=2))
    projected = h_adj @ solved
    capacitance = (projected[..., :m] * (g.conj() @ g.transpose(0, 2, 1))).real.sum(axis=0)
    capacitance.flat[:: m + 1] += 0.25 * slack * slack
    coupling = (projected[..., m:] * g.conj()).real.sum(axis=(0, 2))
    z = np.linalg.solve(capacitance, coupling)
    step = solved[..., m:] - solved[..., :m] @ (z[:, None] * g)
    return step, float(np.vdot(residual, step).real)


def _step_length(g, g_step, slack, t, trace_step, decrement):
    """Backtracking step that keeps every ||g_m|| < 1 and decreases the barrier."""
    quad = (g_step.real**2 + g_step.imag**2).sum(axis=(0, 2))
    lin = (g.real * g_step.real + g.imag * g_step.imag).sum(axis=(0, 2))
    # Largest step with ||g_m + a d_m||^2 < 1: the positive root, in the form
    # that does not cancel.
    denom = lin + np.sqrt(lin * lin + quad * slack)
    roots = np.divide(slack, denom, out=np.full_like(slack, np.inf), where=denom > 0.0)
    alpha = min(1.0, _BOUNDARY_SHARE * float(roots.min()))
    while alpha > 1e-12:
        new_slack = slack - alpha * (2.0 * lin + alpha * quad)
        if np.all(new_slack > 0.0) and (
            t * alpha * trace_step + np.log(new_slack / slack).sum()
            >= _ARMIJO * alpha * decrement
        ):
            return alpha
        alpha *= 0.5
    return 0.0


def _recover_primal(h, pinv, eye, g, slack, t):
    """Primal precoder at a centered dual point, projected onto H W = I.

    On the central path w_m = c_m g_m with c_m = 2 / (t s_m), and
    sum_m c_m h_m g_m^T = I per subcarrier. On an active antenna s_m is tiny
    and 1 - ||g_m||^2 leaves it with a large relative rounding error, so c is
    moved by the least change, weighted by that error (c_m / s_m), that makes
    the sum equal I; the pseudo-inverse removes what is left.
    """
    m = h.shape[2]
    c = 2.0 / (t * slack)
    spread = c / slack
    columns = (h[:, :, None, :] * g.transpose(0, 2, 1)[:, None, :, :]).reshape(-1, m) * spread
    target = (eye - h @ (c[:, None] * g)).ravel()
    shift = np.linalg.lstsq(
        np.concatenate([columns.real, columns.imag]),
        np.concatenate([target.real, target.imag]),
        rcond=None,
    )[0]
    w = (c + spread * shift)[:, None] * g
    return w + pinv @ (eye - h @ w)


def solve_min_pa_bruteforce(
    channel: ChannelRealization,
    qos: QosTargets,
    pa: PaModel,
    max_m: int = ORACLE_MAX_M,
    max_k: int = ORACLE_MAX_K,
    max_q: int = ORACLE_MAX_Q,
) -> OracleResult:
    """Globally minimize the PA consumption over all ZF-feasible precoders.

    The problem min sum_m ||w_m|| subject to H_q W_q = D_q is a second-order
    cone program. Its dual is max sum_q Re tr(Lambda_q^H D_q) subject to
    ||g_m|| <= 1, where g_m stacks row m of H_q^H Lambda_q over q. A
    log-barrier Newton method follows the dual central path from the strictly
    feasible Lambda = 0, after normalizing the rows by D and the channel to
    unit RMS. Each centered point yields a primal precoder
    (:func:`_recover_primal`), and the solve stops once that precoder's
    objective and the dual value are within ``GAP_TOL`` of each other. The
    method is deterministic; the certified gap makes it ground truth. A gap
    above ``GAP_TOL`` in the certificate means the step limit ended the solve.
    """
    m, k, q = channel.m_antennas, channel.k_users, channel.subcarriers
    if m > max_m or k > max_k or q > max_q:
        raise OracleSizeError(
            f"instance (M={m}, K={k}, Q={q}) exceeds oracle guard "
            f"(M<={max_m}, K<={max_k}, Q<={max_q})"
        )
    if qos.k_users != k or qos.subcarriers != q:
        raise DomainError("QoS targets do not match the channel dimensions")
    rhs_diag = np.sqrt(qos.per_subcarrier_gamma) * qos.noise_std
    # Rows normalized by D, so that the constraint reads H_q W_q = I; in
    # these units W is `scale` times the precoder.
    h = channel.per_subcarrier / rhs_diag[:, None]
    scale = float(np.sqrt(np.mean(np.abs(h) ** 2)))
    h = h / scale
    h_adj = h.conj().transpose(0, 2, 1)
    eye = np.eye(k)
    pinv = np.linalg.pinv(h)
    if np.max(np.abs(h @ pinv - eye)) > 1e-6:
        raise InfeasibleError("the channel has rank below K: no zero-forcing precoder exists")

    # The first barrier weight puts the central path's gap bound M / t at
    # the pseudo-inverse precoder's objective.
    t = m / float(np.sum(_row_norms(pinv)))
    lam = np.zeros((q, k, k), dtype=complex)
    g = np.zeros((q, m, k), dtype=complex)
    slack = np.ones(m)
    steps = 0
    while True:
        decrement = np.inf
        while decrement > _CENTERING_TOL and steps < _MAX_NEWTON_STEPS:
            step, decrement = _newton_step(h, h_adj, eye, g, slack, t)
            trace_step = float(np.trace(step, axis1=1, axis2=2).real.sum())
            lam = lam + _step_length(g, h_adj @ step, slack, t, trace_step, decrement) * step
            g = h_adj @ lam
            norms = _row_norms(g)
            slack = 1.0 - norms * norms
            steps += 1
        dual = float(np.trace(lam, axis1=1, axis2=2).real.sum())
        out_of_steps = steps >= _MAX_NEWTON_STEPS
        # On the central path the gap is (2/t) sum_m ||g_m|| / (1 + ||g_m||);
        # the primal is recovered and certified once that reaches the target.
        if out_of_steps or 2.0 / t * float((norms / (1.0 + norms)).sum()) <= GAP_TOL * dual:
            w = _recover_primal(h, pinv, eye, g, slack, t)
            primal = float(_row_norms(w).sum())
            if out_of_steps or primal - dual <= GAP_TOL * dual:
                break
        t *= _BARRIER_GROWTH

    w = w / scale
    powers = np.sum(np.abs(w) ** 2, axis=(0, 2))
    residual = float(
        np.max(np.abs(channel.per_subcarrier @ w - np.diag(rhs_diag)[None, :, :]))
    )
    return OracleResult(
        powers=powers,
        objective=float(pa.alpha * np.sum(np.sqrt(powers))),
        certificate=(residual, (primal - dual) / dual),
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
        raise InfeasibleError(f"no admissible antenna count in [{lo}, {m_antennas}]")
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
