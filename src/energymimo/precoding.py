"""Downlink precoder solvers.

``zf_precoder`` is the conventional per-subcarrier zero-forcing solution
minimizing transmit power. ``min_pa_precoder`` minimizes the square-root PA
consumption under the same QoS constraints by iterating the fixed-point
power equations; the closed-form single-user and LOS special cases have
dedicated entry points.

Both iterative solvers run on one weighted zero-forcing kernel,
W_q = D_p^(1/2) H_q^H (H_q D_p^(1/2) H_q^H)^(-1) D_q, over all M antennas of
a stack of shape (R, Q, K, M) holding R realizations. Zero forcing is the
kernel at uniform power, which is also the fixed point's first iterate; an
antenna the fixed point switches off is a zero power and gets a zero row.
``zf_precoders`` and ``min_pa_precoders`` solve a list of instances at once,
and the one-instance entry points are R=1 views onto them. Each realization
gets exactly the arithmetic it would get alone, so stacking never changes a
result.

All Gram solves use a Hermitian (Cholesky) factorization followed by
forward/backward substitution on the K x K user-side matrix; the optimal
precoder is then assembled from the contiguous weighted channel adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, QosTargets
from .errors import DimensionError, DomainError, InfeasibleError, SingularChannelError
from .model import ACTIVE_POWER_THRESHOLD, per_antenna_powers

# Condition-number estimate beyond which the Gram solve is refused.
GRAM_CONDITION_LIMIT = 1e12

# Uniform start of the fixed point, in Watts. The first weighted-ZF iterate
# does not depend on the scale of a uniform start; at 1 W the kernel's
# weights are exactly one, so zero forcing runs on the unweighted channel.
INITIAL_POWER = 1.0

# Tolerance on max |[H_q W_q]_{k',k} - delta * (gamma_k/Q)^(1/2) sigma| that
# every returned solution is expected to satisfy.
ZF_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FixedPointConfig:
    """Knobs of the fixed-point power iteration.

    ``tolerance`` is the absolute stopping threshold on the largest
    per-antenna power change between iterations, in Watts. Antennas whose
    power falls below ``dead_antenna_floor`` are clamped to zero power; the
    Gram solves run over all M antennas, where a zero power gives a zero
    row.
    """

    tolerance: float = 1e-4
    max_iterations: int = 2000
    dead_antenna_floor: float = 1e-12
    record_history: bool = False

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise DomainError("tolerance must be positive")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if self.dead_antenna_floor < 0.0:
            raise DomainError("dead_antenna_floor must be >= 0")


@dataclass
class PrecoderSolution:
    """Per-subcarrier precoding matrices plus convergence diagnostics.

    ``powers`` always equals the per-antenna powers recomputed from
    ``matrices``; ``residual`` is the last max absolute inter-iteration power
    change (zero for closed-form solutions). ``history`` holds the power
    iterates when requested via :class:`FixedPointConfig`.
    """

    matrices: np.ndarray
    powers: np.ndarray
    iterations: int
    converged: bool
    residual: float
    active_set: np.ndarray
    history: list[np.ndarray] | None = None


def _finish_solution(matrices, iterations, converged, residual, history=None) -> PrecoderSolution:
    powers = per_antenna_powers(matrices)
    active = np.flatnonzero(powers > ACTIVE_POWER_THRESHOLD)
    return PrecoderSolution(
        matrices=matrices,
        powers=powers,
        iterations=iterations,
        converged=converged,
        residual=float(residual),
        active_set=active,
        history=history,
    )


def _check_instance(channel: ChannelRealization, qos: QosTargets, realization: int):
    if qos.k_users != channel.k_users:
        raise DimensionError(
            f"QoS targets cover {qos.k_users} users, channel has {channel.k_users}"
        )
    if qos.subcarriers != channel.subcarriers:
        raise DimensionError(
            f"QoS normalization assumes Q={qos.subcarriers}, channel has Q={channel.subcarriers}"
        )
    if channel.m_antennas < channel.k_users:
        raise SingularChannelError(
            f"zero forcing needs M >= K, got M={channel.m_antennas}, K={channel.k_users}",
            realization=realization,
        )


def _stacks(channels: list, qos_list: list):
    """Group a list of instances into stacks of equal channel shape and dtype.

    Yields ``(index, h, rhs)``: the list positions of the stack, the
    (R, Q, K, M) channel stack and the (R, 1, K, K) diagonal right-hand
    sides diag((gamma_k / Q)^(1/2) sigma), shared by all Q subcarriers.
    """
    if len(channels) != len(qos_list):
        raise DimensionError(f"{len(channels)} channels but {len(qos_list)} QoS targets")
    groups: dict[tuple, list[int]] = {}
    for i, (channel, qos) in enumerate(zip(channels, qos_list)):
        _check_instance(channel, qos, i)
        h = channel.per_subcarrier
        groups.setdefault((h.shape, h.dtype), []).append(i)
    for members in groups.values():
        h = np.stack([channels[i].per_subcarrier for i in members])
        k = h.shape[2]
        rhs = np.zeros((len(members), 1, k, k), dtype=complex)
        rhs[:, 0, np.arange(k), np.arange(k)] = [
            np.sqrt(qos_list[i].per_subcarrier_gamma) * qos_list[i].noise_std for i in members
        ]
        yield np.array(members), h, rhs


def _gram_solve(gram, rhs, index):
    """Solve G X = diag(rhs) for a (R, Q, K, K) stack of Gram matrices.

    A Cholesky factorization followed by two substitutions with
    ``np.linalg.solve``; every slice gets the LAPACK calls it would get
    alone. The condition guard is taken per realization, over its Q * K
    Cholesky diagonal. ``index`` names each realization in errors.
    """
    n, q, k, _ = gram.shape
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        bad = next(r for r in range(n) if not _positive_definite(gram[r]))
        raise SingularChannelError(
            "user-side Gram matrix is not positive definite", realization=int(index[bad])
        ) from exc
    # A successful Cholesky factorization has a positive diagonal.
    diag = abs(chol.diagonal(axis1=-2, axis2=-1)).reshape(n, q * k)
    cond_est = (diag.max(axis=1) / diag.min(axis=1)) ** 2
    refused = cond_est > GRAM_CONDITION_LIMIT
    if refused.any():
        bad = int(np.argmax(refused))
        raise SingularChannelError(
            f"Gram condition estimate {cond_est[bad]:.3e} exceeds {GRAM_CONDITION_LIMIT:.1e}",
            realization=int(index[bad]),
        )
    y = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.conj().swapaxes(-1, -2), y)


def _positive_definite(matrices) -> bool:
    try:
        np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        return False
    return True


def _weighted_zf(h, rhs, index, p):
    """W = D_p^(1/2) H^H (H D_p^(1/2) H^H)^(-1) diag(rhs) on a (R, Q, K, M) stack.

    ``p`` holds the (R, M) per-antenna powers. The product runs over all M
    antennas: one with p_m = 0 has a zero column in H D_p^(1/4) and gets a
    zero row in W, so a switched-off antenna needs no mask. Returns the
    (R, Q, M, K) precoders.
    """
    quarter = np.sqrt(np.sqrt(p))[:, None, None, :]
    b = h * quarter
    b_adj = np.ascontiguousarray(b.conj().swapaxes(-1, -2))
    return (b_adj @ _gram_solve(b @ b_adj, rhs, index)) * quarter.swapaxes(-1, -2)


def _fixed_point(h, rhs, index, cfg: FixedPointConfig) -> list[PrecoderSolution]:
    """Fixed-point power iteration on a (R, Q, K, M) stack.

    Each realization keeps its own powers, residual, iteration count and
    stopping test, and leaves the working set once it converges: its row
    goes from ``h``, ``rhs``, ``index`` and ``p`` together, so ``index``
    still names each remaining realization in errors. ``work`` holds the
    stack rows of the working set; a realization's final powers move to
    ``p_final`` as it leaves. A dead antenna is a zero power.
    """
    n, _, k, m = h.shape
    stack = h, rhs, index
    p = np.full((n, m), INITIAL_POWER)
    p_final = p.copy()
    iterations = np.full(n, cfg.max_iterations)
    converged = np.zeros(n, dtype=bool)
    residual = np.full(n, np.inf)
    history = [[row.copy()] for row in p] if cfg.record_history else None
    work = np.arange(n)

    for iteration in range(1, cfg.max_iterations + 1):
        p[p < cfg.dead_antenna_floor] = 0.0
        short = np.count_nonzero(p, axis=1) < k
        if short.any():
            raise SingularChannelError(
                "fewer active antennas than users; cannot hold the ZF constraint",
                realization=int(index[np.argmax(short)]),
            )
        p_new = (np.abs(_weighted_zf(h, rhs, index, p)) ** 2).sum(axis=(1, 3))
        step = abs(p_new - p).max(axis=1)
        p = p_new
        if history is not None:
            for r, row in zip(work, p_new):
                history[r].append(row.copy())
        done = step <= cfg.tolerance
        if iteration == cfg.max_iterations:
            done[:] = True
        elif not done.any():
            continue
        leaving = work[done]
        p_final[leaving] = p[done]
        residual[leaving] = step[done]
        converged[leaving] = step[done] <= cfg.tolerance
        iterations[leaving] = iteration
        keep = ~done
        work, h, rhs, index, p = work[keep], h[keep], rhs[keep], index[keep], p[keep]
        if not work.size:
            break

    # Substitute the final power diagonal back to obtain the precoders.
    matrices = _weighted_zf(*stack, p_final)
    return [
        _finish_solution(
            matrices[r], int(iterations[r]), bool(converged[r]), residual[r],
            history[r] if history is not None else None,
        )
        for r in range(n)
    ]


def zf_precoders(channels, qos_list) -> list[PrecoderSolution]:
    """Zero-forcing precoders for a list of instances, solved as stacks.

    Zero forcing is the weighted-ZF kernel at uniform power, the fixed
    point's first iterate. Instances of equal channel shape are solved
    together; the result for each equals :func:`zf_precoder` on that
    instance alone.
    """
    channels, qos_list = list(channels), list(qos_list)
    solutions = [None] * len(channels)
    for index, h, rhs in _stacks(channels, qos_list):
        uniform = np.full((h.shape[0], h.shape[3]), INITIAL_POWER)
        for i, w_i in zip(index, _weighted_zf(h, rhs, index, uniform)):
            solutions[i] = _finish_solution(w_i, iterations=0, converged=True, residual=0.0)
    return solutions


def min_pa_precoders(
    channels, qos_list, cfg: FixedPointConfig | None = None
) -> list[PrecoderSolution]:
    """Consumption-minimizing precoders for a list of instances, solved as stacks.

    Instances of equal channel shape iterate together; the result for each,
    history included, equals :func:`min_pa_precoder` on that instance alone.
    A :class:`SingularChannelError` names the list position of the
    offending instance in ``realization``.
    """
    cfg = cfg or FixedPointConfig()
    channels, qos_list = list(channels), list(qos_list)
    solutions = [None] * len(channels)
    for index, h, rhs in _stacks(channels, qos_list):
        for i, solution in zip(index, _fixed_point(h, rhs, index, cfg)):
            solutions[i] = solution
    return solutions


def zf_precoder(channel: ChannelRealization, qos: QosTargets) -> PrecoderSolution:
    """Per-subcarrier zero-forcing precoder minimizing total transmit power."""
    return zf_precoders([channel], [qos])[0]


def min_pa_precoder(
    channel: ChannelRealization,
    qos: QosTargets,
    cfg: FixedPointConfig | None = None,
) -> PrecoderSolution:
    """Precoder minimizing the square-root PA consumption under ZF QoS.

    Runs the fixed-point power iteration from a uniform initial allocation:
    each sweep recomputes the weighted ZF solution for the current power
    diagonal and reads back the per-antenna powers, until the largest power
    change drops below the tolerance or the iteration budget is exhausted
    (in which case the solution is returned with ``converged=False`` rather
    than damped). Antennas driven below the dead floor are clamped to zero
    power, which keeps them at zero: a dead antenna is a zero power in the
    weighted Gram, not a column that leaves it.
    """
    return min_pa_precoders([channel], [qos], cfg)[0]


def _check_scalar_targets(gamma: float, noise_std: float):
    if gamma <= 0.0:
        raise DomainError(f"SINR target must be positive, got {gamma}")
    if noise_std <= 0.0:
        raise DomainError(f"noise standard deviation must be positive, got {noise_std}")


def single_user_narrowband_precoder(h, gamma: float, noise_std: float) -> PrecoderSolution:
    """Closed-form single-user narrowband optimum: strongest antenna only.

    Puts all power on m_hat = argmax |h_m| (lowest index on ties), with the
    conjugate phase and the exact gain meeting the SINR target.
    """
    h = np.atleast_1d(np.asarray(h, dtype=complex))
    if h.ndim != 1:
        raise DimensionError(f"expected a length-M vector, got shape {h.shape}")
    _check_scalar_targets(gamma, noise_std)
    gains = np.abs(h)
    if not np.any(gains > 0.0):
        raise InfeasibleError("all-zero channel cannot meet any SINR target")
    m_hat = int(np.argmax(gains))
    w = np.zeros(h.shape[0], dtype=complex)
    w[m_hat] = noise_std * np.sqrt(gamma) * np.conj(h[m_hat]) / gains[m_hat] ** 2
    return _finish_solution(w[None, :, None], iterations=0, converged=True, residual=0.0)


def single_user_saturating_precoder(
    h, gamma: float, noise_std: float, p_max: float
) -> PrecoderSolution:
    """Single-user narrowband solution under binding per-antenna caps.

    Saturates antennas in order of decreasing channel gain until the QoS sum
    sum_m |h_m| p_m^(1/2) reaches noise_std * gamma^(1/2); the last recruited
    antenna gets the partial power closing the gap exactly.
    """
    h = np.atleast_1d(np.asarray(h, dtype=complex))
    if p_max <= 0.0:
        raise DomainError(f"p_max must be positive, got {p_max}")
    _check_scalar_targets(gamma, noise_std)
    gains = np.abs(h)
    target = noise_std * np.sqrt(gamma)
    order = np.argsort(-gains, kind="stable")
    order = order[gains[order] > 0.0]
    contrib = gains[order] * np.sqrt(p_max)
    cumulative = np.cumsum(contrib)
    total = cumulative[-1] if cumulative.size else 0.0
    if total < target:
        raise InfeasibleError(
            f"QoS unreachable even with all antennas saturated: "
            f"sum |h_m| p_max^(1/2) = {total:.6g} < target {target:.6g} "
            f"(deficit {target - total:.6g})",
            deficit=float(target - total),
        )
    last = int(np.searchsorted(cumulative, target))
    powers = np.zeros(h.shape[0])
    powers[order[:last]] = p_max
    already = cumulative[last - 1] if last > 0 else 0.0
    powers[order[last]] = ((target - already) / gains[order[last]]) ** 2
    w = np.zeros(h.shape[0], dtype=complex)
    hot = powers > 0.0
    w[hot] = np.sqrt(powers[hot]) * np.conj(h[hot]) / gains[hot]
    return _finish_solution(w[None, :, None], iterations=0, converged=True, residual=0.0)


def los_allocation_precoder(
    channel: ChannelRealization,
    gamma: float,
    noise_std: float,
    weights,
) -> PrecoderSolution:
    """Single-user LOS precoder realizing a chosen power split.

    Any nonnegative ``weights`` summing to one give an optimal solution:
    p_m^(1/2) = weights_m * noise_std * gamma^(1/2), so the PA consumption is
    invariant to the split. Phases are conjugate-matched per subcarrier.
    """
    if channel.k_users != 1:
        raise DimensionError("LOS allocation precoder is single-user only")
    _check_scalar_targets(gamma, noise_std)
    h = channel.per_subcarrier[:, 0, :]
    if not np.allclose(np.abs(h), 1.0, atol=1e-9):
        raise DomainError("channel entries are not unit modulus; not a LOS channel")
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if weights.shape[0] != channel.m_antennas:
        raise DimensionError("weights length must match the antenna count")
    if np.any(weights < 0.0):
        raise DomainError("weights must be non-negative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise DomainError(f"weights must sum to 1, got {weights.sum()!r}")
    q = channel.subcarriers
    sqrt_p = weights * noise_std * np.sqrt(gamma)
    # Per-subcarrier normalization keeps the QoS product exact even under
    # floating-point weight rounding.
    denom = np.abs(h) ** 2 @ sqrt_p
    scale = noise_std * np.sqrt(gamma / q)
    w = scale * sqrt_p[None, :] * np.conj(h) / denom[:, None]
    return _finish_solution(w[:, :, None], iterations=0, converged=True, residual=0.0)
