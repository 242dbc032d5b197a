"""Independent desk-scale solvers used as ground truth in tests.

Nothing here shares machinery with :mod:`precoding` or :mod:`asymptotic`,
and nothing here needs more than numpy: the consumption minimizer is an
interior-point method on the dual second-order cone program, the Wishart
expectation a Monte-Carlo estimate, the antenna-count optimum an exhaustive
grid scan and the quartic a closed-form resolvent-cubic solve. They may be
orders of magnitude slower than the main paths; that is the point.

The two consumption oracles, the cone program and the single-user closed
form, take a block of instances in the solvers' format, a (R, Q, K, M)
channel stack ``h`` and its (R, K) ZF targets ``d``, refused unless
:func:`channel.check_stack` passes them, and return one
:class:`OracleResult` whose fields carry the block axis; row r equals the
solve of instance r alone. Only that input check and format are shared; the
arithmetic is their own. Neither writes ``h`` or ``d``: the cone program
normalizes a copy. It follows the central paths of the block at once
(:func:`solve_min_pa_bruteforce_block`), in slices of bounded memory: one
Newton step of every unfinished instance per round, on stacked arrays, with
each instance's gap test, primal recovery and exit its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import check_stack
from .errors import DomainError, InfeasibleError, OracleSizeError
from .model import BsModel, PaModel

# Default desk-scale guard of the brute-force consumption minimizer.
ORACLE_MAX_M = 8
ORACLE_MAX_K = 4
ORACLE_MAX_Q = 8

# Bytes of the largest arrays of one stacked central-path run, the (Q, M,
# 2M + K) complex entries of a Newton step per instance. A block is solved
# in slices of as many instances as fit: the height reads the instance's
# (Q, K, M) alone, never the block's size, and every height gives the same
# bits. It is 28 instances at M=32, K=8, Q=1, where one call on 128
# instances peaked at 10.6 MB (tracemalloc) in one run and at 3.9 MB in
# slices of 32; and 455 at M=8, K=2, Q=1, where slices of 32 took 0.53
# against 0.37 ms per instance.
ORACLE_SLICE_BYTES = 1 << 20

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
    """Powers and objectives an oracle found for a block of R instances, certified.

    ``powers`` is (R, M); ``objective``, ``residual`` and ``gap`` have length
    R, row r for instance r. ``residual`` is the largest ZF residual
    max |H_q W_q - D_q| and ``gap`` the relative duality gap, which bounds
    how far ``objective`` can lie above the optimum,
    ``objective / (1 + gap) <= optimum <= objective``. Both are zero for the
    closed form.
    """

    powers: np.ndarray
    objective: np.ndarray
    residual: np.ndarray
    gap: np.ndarray


def _row_norms(w):
    """||w_m|| of a (..., Q, M, K) stack, over subcarriers and users."""
    return np.sqrt((w.real**2 + w.imag**2).sum(axis=(-3, -1)))


def _newton_steps(h, h_adj, eye, g, slack, t):
    """Newton directions of the dual barriers -t Re tr(Lambda) - sum_m log s_m.

    Each instance's Hessian acts on Lambda_q as S_q Lambda_q with
    S_q = H_q diag(2/s) H_q^H, plus one real rank-one term
    (4/s_m^2) Re<U_m, .> U_m per antenna, where U_m stacks h_qm g_qm^T over
    q. The M rank-one terms are folded in by the Woodbury identity, an
    M x M solve next to Q solves of size K. The instances are stacked on
    the first axis; returns their directions and squared Newton decrements.
    """
    m = h.shape[-1]
    weights = 2.0 / slack
    # minus the gradient
    residual = t[:, None, None, None] * eye - h @ (weights[:, None, :, None] * g)
    solved = np.linalg.solve(
        (h * weights[:, None, None, :]) @ h_adj, np.concatenate([h, residual], axis=-1)
    )
    projected = h_adj @ solved
    coupling = (projected[..., m:] * g.conj()).real.sum(axis=(1, 3))
    # In place: an (R, Q, M, M) product is the largest array of the step.
    capacitance = g.conj() @ g.swapaxes(-1, -2)
    capacitance *= projected[..., :m]
    capacitance = capacitance.real.sum(axis=1)
    capacitance.reshape(len(slack), -1)[:, :: m + 1] += 0.25 * slack * slack
    z = np.linalg.solve(capacitance, coupling[..., None])[..., 0]
    step = solved[..., m:] - solved[..., :m] @ (z[:, None, :, None] * g)
    decrement = np.array([np.vdot(r, s).real for r, s in zip(residual, step)])
    return step, decrement


def _step_lengths(g, g_step, slack, t, trace_step, decrement):
    """Backtracking steps that keep every ||g_m|| < 1 and decrease each barrier.

    One step length per stacked instance; each halves its own until its
    Armijo test holds, and is 0 once it falls to 1e-12 without passing.
    """
    quad = (g_step.real**2 + g_step.imag**2).sum(axis=(1, 3))
    lin = (g.real * g_step.real + g.imag * g_step.imag).sum(axis=(1, 3))
    # Largest step with ||g_m + a d_m||^2 < 1: the positive root, in the form
    # that does not cancel.
    denom = lin + np.sqrt(lin * lin + quad * slack)
    roots = np.divide(slack, denom, out=np.full_like(slack, np.inf), where=denom > 0.0)
    largest = _BOUNDARY_SHARE * roots.min(axis=1)
    # min(1, largest) that starts from 1 where largest is NaN, as min() does.
    alpha = np.where(largest < 1.0, largest, 1.0)
    passed = np.zeros(alpha.shape, dtype=bool)
    searching = alpha > 1e-12
    while searching.any():
        new_slack = slack - alpha[:, None] * (2.0 * lin + alpha[:, None] * quad)
        inside = (new_slack > 0.0).all(axis=1)
        # A row that leaves the cone fails on that alone and takes no logarithm.
        ratio = np.where(inside[:, None], new_slack / slack, 1.0)
        descent = t * alpha * trace_step + np.log(ratio).sum(axis=1)
        now = searching & inside & (descent >= _ARMIJO * alpha * decrement)
        passed |= now
        searching &= ~now
        alpha[searching] *= 0.5
        searching &= alpha > 1e-12
    return np.where(passed, alpha, 0.0)


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


def solve_min_pa_bruteforce_block(
    h,
    d,
    pa: PaModel,
    max_m: int = ORACLE_MAX_M,
    max_k: int = ORACLE_MAX_K,
    max_q: int = ORACLE_MAX_Q,
) -> OracleResult:
    """Globally minimize the PA consumption of each instance over all ZF-feasible precoders.

    The problem min sum_m ||w_m|| subject to H_q W_q = D_q is a second-order
    cone program. Its dual is max sum_q Re tr(Lambda_q^H D_q) subject to
    ||g_m|| <= 1, where g_m stacks row m of H_q^H Lambda_q over q. A
    log-barrier Newton method follows the dual central path from the strictly
    feasible Lambda = 0, after normalizing the rows by D and the channel to
    unit RMS. Each centered point yields a primal precoder
    (:func:`_recover_primal`), and the solve stops once that precoder's
    objective and the dual value are within ``GAP_TOL`` of each other. The
    method is deterministic; the certified gap makes it ground truth. A
    ``gap`` above ``GAP_TOL`` means the step limit ended that solve.

    ``h`` is the (R, Q, K, M) channel stack and ``d`` its (R, K) ZF
    targets; neither is written. Each round takes one Newton step of every
    instance still running, with its own barrier weight t, dual point,
    slack and step count; an instance that has centered runs its own gap
    test and primal recovery, then grows its t or leaves the stack. The
    runs take the stack in slices that fit in ``ORACLE_SLICE_BYTES``. Row
    r equals the block of instance r alone, bit for bit. The input checks
    refuse the block before anything is solved; a rank-deficient instance
    raises the message it raises alone.
    """
    h, d = check_stack(h, d)
    _, q, k, m = h.shape
    if m > max_m or k > max_k or q > max_q:
        raise OracleSizeError(
            f"instance (M={m}, K={k}, Q={q}) exceeds oracle guard "
            f"(M<={max_m}, K<={max_k}, Q<={max_q})"
        )
    # One copy of the stack, divided in place by D, so that the constraint reads
    # H_q W_q = I, then by each instance's RMS: W is `scale` times the precoder.
    channels = h
    h = np.array(h, dtype=np.result_type(h, d))
    h /= d[:, None, :, None]
    scales = np.array([np.sqrt(np.mean(np.abs(row) ** 2)) for row in h])
    h /= scales[:, None, None, None]
    eye = np.eye(k)
    pinv = np.linalg.pinv(h)
    if np.any(np.abs(h @ pinv - eye).max(axis=(1, 2, 3)) > 1e-6):
        raise InfeasibleError("the channel has rank below K: no zero-forcing precoder exists")

    n = len(h)
    powers, objective, residual, gap = np.empty((n, m)), np.empty(n), np.empty(n), np.empty(n)
    height = max(1, ORACLE_SLICE_BYTES // (16 * q * m * (2 * m + k)))
    for start in range(0, n, height):
        part = slice(start, start + height)
        for j, (w, primal, dual) in enumerate(_central_paths(h[part], pinv[part]), start):
            w = w / scales[j]
            powers[j] = np.sum(np.abs(w) ** 2, axis=(0, 2))
            objective[j] = pa.alpha * np.sum(np.sqrt(powers[j]))
            residual[j] = np.max(np.abs(channels[j] @ w - np.diag(d[j])[None, :, :]))
            gap[j] = (primal - dual) / dual
    return OracleResult(powers, objective, residual, gap)


def _central_paths(h, pinv):
    """(w, primal, dual) of each normalized instance of a (R, Q, K, M) stack ``h``.

    ``pinv`` holds the instances' pseudo-inverses; ``w`` is the certified
    precoder in normalized units, ``primal`` its objective and ``dual`` the
    dual value. Each round takes one Newton step of every instance still
    running; an instance leaves once it is certified or out of steps.
    """
    n, q, k, m = h.shape
    eye = np.eye(k)
    # The first barrier weight puts the central path's gap bound M / t at
    # the pseudo-inverse precoder's objective.
    t = np.array([m / float(np.sum(_row_norms(p))) for p in pinv])
    lam = np.zeros((n, q, k, k), dtype=complex)
    g = np.zeros((n, q, m, k), dtype=complex)
    slack = np.ones((n, m))
    steps = np.zeros(n, dtype=int)
    # The stack position of each instance still running.
    index = np.arange(n)
    found = [None] * n
    h_adj = h.conj().swapaxes(-1, -2)
    while index.size:
        step, decrement = _newton_steps(h, h_adj, eye, g, slack, t)
        trace_step = np.trace(step, axis1=2, axis2=3).real.sum(axis=1)
        alpha = _step_lengths(g, h_adj @ step, slack, t, trace_step, decrement)
        lam = lam + alpha[:, None, None, None] * step
        g = h_adj @ lam
        norms = _row_norms(g)
        slack = 1.0 - norms * norms
        steps += 1
        centered = np.flatnonzero(~(decrement > _CENTERING_TOL) | (steps >= _MAX_NEWTON_STEPS))
        if not centered.size:
            continue
        done = np.zeros(index.size, dtype=bool)
        for i in centered:
            dual = float(np.trace(lam[i], axis1=1, axis2=2).real.sum())
            out_of_steps = steps[i] >= _MAX_NEWTON_STEPS
            # On the central path the gap is (2/t) sum_m ||g_m|| / (1 + ||g_m||);
            # the primal is recovered and certified once that reaches the target.
            if out_of_steps or 2.0 / t[i] * float((norms[i] / (1.0 + norms[i])).sum()) <= (
                GAP_TOL * dual
            ):
                w = _recover_primal(h[i], pinv[i], eye, g[i], slack[i], t[i])
                primal = float(_row_norms(w).sum())
                if out_of_steps or primal - dual <= GAP_TOL * dual:
                    found[index[i]] = w, primal, dual
                    done[i] = True
                    continue
            t[i] *= _BARRIER_GROWTH
        if done.any():
            keep = ~done
            index, h, pinv, t, lam, g, slack, steps = (
                a[keep] for a in (index, h, pinv, t, lam, g, slack, steps)
            )
            h_adj = h.conj().swapaxes(-1, -2)
    return found


def analytic_single_user(h, d, pa: PaModel) -> OracleResult:
    """Closed-form optimum of each K=1, Q=1 instance: all power on the strongest antenna.

    ``h`` is the (R, 1, 1, M) channel stack and ``d`` its (R, 1) ZF targets;
    the power on the strongest antenna is (d / |h_m|)^2.
    """
    h, d = check_stack(h, d)
    if h.shape[1:3] != (1, 1):
        raise DomainError("analytic oracle covers the K=1, Q=1 case only")
    gains = np.abs(h[:, 0, 0])
    rows = np.arange(len(gains))
    strongest = np.argmax(gains, axis=1)
    peak = gains[rows, strongest]
    if not np.all(peak > 0.0):
        raise InfeasibleError("all-zero channel")
    powers = np.zeros(gains.shape)
    powers[rows, strongest] = d[:, 0] ** 2 / peak**2
    objective = pa.alpha * np.sqrt(powers[rows, strongest])
    return OracleResult(powers, objective, np.zeros(len(rows)), np.zeros(len(rows)))


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
