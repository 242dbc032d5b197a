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
``zf_precoders`` and ``min_pa_precoders`` solve a list of instances of one
channel shape at once and return one :class:`PrecoderSolution` whose fields
carry the block axis; the one-instance entry points return row 0 of an R=1
solve. Each realization gets exactly the arithmetic it would get alone, so
stacking never changes a result.

All Gram solves use a Hermitian (Cholesky) factorization followed by
forward/backward substitution on the K x K user-side matrix; the optimal
precoder is then assembled from the contiguous weighted channel adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, QosTargets
from .errors import DimensionError, DomainError, InfeasibleError, SingularChannelError
from .model import per_antenna_powers

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
        if not self.tolerance > 0.0:
            raise DomainError("tolerance must be positive")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if not self.dead_antenna_floor >= 0.0:
            raise DomainError("dead_antenna_floor must be >= 0")


@dataclass
class PrecoderSolution:
    """Per-subcarrier precoding matrices plus convergence diagnostics.

    One realization has (Q, M, K) ``matrices``, (M,) ``powers`` and scalar
    diagnostics; a block of R has (R, Q, M, K) ``matrices``, (R, M)
    ``powers`` and length-R ``iterations``, ``converged`` and ``residual``.
    ``powers`` always equals the per-antenna powers recomputed from
    ``matrices``; ``residual`` is the last max absolute inter-iteration power
    change (zero for closed-form solutions). ``history``, when requested via
    :class:`FixedPointConfig`, holds the power iterates as one
    (sum_r (iterations_r + 1), M) array, realization after realization: the
    uniform start, then one row per iteration.
    """

    matrices: np.ndarray
    powers: np.ndarray
    iterations: int | np.ndarray = 0
    converged: bool | np.ndarray = True
    residual: float | np.ndarray = 0.0
    history: np.ndarray | None = None


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


def _stack(channels, qos_list):
    """The (R, Q, K, M) channel stack of a list of instances and its right-hand sides.

    The instances must share one channel shape and dtype. The (R, 1, K, K)
    right-hand sides diag((gamma_k / Q)^(1/2) sigma) are shared by all Q
    subcarriers.
    """
    channels, qos_list = list(channels), list(qos_list)
    if len(channels) != len(qos_list):
        raise DimensionError(f"{len(channels)} channels but {len(qos_list)} QoS targets")
    if not channels:
        raise DimensionError("no instances to solve")
    first = channels[0].per_subcarrier
    for i, (channel, qos) in enumerate(zip(channels, qos_list)):
        _check_instance(channel, qos, i)
        h = channel.per_subcarrier
        if (h.shape, h.dtype) != (first.shape, first.dtype):
            raise DimensionError(
                f"instance {i} has a {h.dtype} channel of shape {h.shape}, instance 0 a "
                f"{first.dtype} one of shape {first.shape}; a stacked solve needs one of each"
            )
    h = np.stack([channel.per_subcarrier for channel in channels])
    k = h.shape[2]
    rhs = np.zeros((len(channels), 1, k, k), dtype=complex)
    rhs[:, 0, np.arange(k), np.arange(k)] = [
        np.sqrt(qos.per_subcarrier_gamma) * qos.noise_std for qos in qos_list
    ]
    return h, rhs


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


def _fixed_point(h, rhs, cfg: FixedPointConfig) -> PrecoderSolution:
    """Fixed-point power iteration on a (R, Q, K, M) stack.

    Each realization keeps its own powers, residual, iteration count and
    stopping test, and leaves the working set once it converges: its row
    goes from ``h``, ``rhs``, ``index`` and ``p`` together, so ``index``
    still names each remaining realization in errors. ``work`` holds the
    stack rows of the working set; a realization's final powers move to
    ``p_final`` as it leaves. A dead antenna is a zero power. The history
    records each iterate with the stack rows it covers and is sorted into
    realization order once, at the end.
    """
    n, _, k, m = h.shape
    index = np.arange(n)
    stack = h, rhs, index
    p = np.full((n, m), INITIAL_POWER)
    p_final = p.copy()
    iterations = np.full(n, cfg.max_iterations)
    converged = np.zeros(n, dtype=bool)
    residual = np.full(n, np.inf)
    work = index
    trail, trail_rows = ([p.copy()], [work]) if cfg.record_history else (None, None)

    for iteration in range(1, cfg.max_iterations + 1):
        p[p < cfg.dead_antenna_floor] = 0.0
        short = np.count_nonzero(p, axis=1) < k
        if short.any():
            raise SingularChannelError(
                "fewer active antennas than users; cannot hold the ZF constraint",
                realization=int(index[np.argmax(short)]),
            )
        p_new = per_antenna_powers(_weighted_zf(h, rhs, index, p))
        step = abs(p_new - p).max(axis=1)
        p = p_new
        if trail is not None:
            trail.append(p_new.copy())
            trail_rows.append(work)
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

    history = None
    if trail is not None:
        # A stable sort by realization keeps each realization's iterates in order.
        history = np.concatenate(trail)[np.argsort(np.concatenate(trail_rows), kind="stable")]
    # Substitute the final power diagonal back to obtain the precoders.
    matrices = _weighted_zf(*stack, p_final)
    return PrecoderSolution(
        matrices, per_antenna_powers(matrices), iterations, converged, residual, history
    )


def zf_precoders(channels, qos_list) -> PrecoderSolution:
    """Zero-forcing precoders for a list of instances of one channel shape.

    Zero forcing is the weighted-ZF kernel at uniform power, the fixed
    point's first iterate. Returns one stacked solution; row r equals
    :func:`zf_precoder` on instance r alone.
    """
    h, rhs = _stack(channels, qos_list)
    n, m = h.shape[0], h.shape[3]
    matrices = _weighted_zf(h, rhs, np.arange(n), np.full((n, m), INITIAL_POWER))
    return PrecoderSolution(
        matrices, per_antenna_powers(matrices),
        np.zeros(n, dtype=int), np.ones(n, dtype=bool), np.zeros(n),
    )


def min_pa_precoders(
    channels, qos_list, cfg: FixedPointConfig | None = None
) -> PrecoderSolution:
    """Consumption-minimizing precoders for a list of instances of one channel shape.

    The instances iterate together and the result is one stacked solution;
    row r, and realization r's history rows, equal :func:`min_pa_precoder`
    on instance r alone. A :class:`SingularChannelError` names the list
    position of the offending instance in ``realization``.
    """
    return _fixed_point(*_stack(channels, qos_list), cfg or FixedPointConfig())


def _row0(solution: PrecoderSolution) -> PrecoderSolution:
    """The one realization of an R=1 solve, with scalar diagnostics."""
    return PrecoderSolution(
        solution.matrices[0], solution.powers[0], int(solution.iterations[0]),
        bool(solution.converged[0]), float(solution.residual[0]), solution.history,
    )


def zf_precoder(channel: ChannelRealization, qos: QosTargets) -> PrecoderSolution:
    """Per-subcarrier zero-forcing precoder minimizing total transmit power."""
    return _row0(zf_precoders([channel], [qos]))


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
    return _row0(min_pa_precoders([channel], [qos], cfg))


def _check_scalar_targets(gamma: float, noise_std: float):
    if gamma <= 0.0:
        raise DomainError(f"SINR target must be positive, got {gamma}")
    if noise_std <= 0.0:
        raise DomainError(f"noise standard deviation must be positive, got {noise_std}")


def single_user_saturating_precoder(
    h, gamma: float, noise_std: float, p_max: float
) -> PrecoderSolution:
    """Single-user narrowband solution under binding per-antenna caps.

    Saturates antennas in order of decreasing channel gain until the QoS sum
    sum_m |h_m| p_m^(1/2) reaches noise_std * gamma^(1/2); the last recruited
    antenna gets the partial power closing the gap exactly. With
    ``p_max = inf`` this is the uncapped optimum: all power on the strongest
    antenna (the lowest index on ties), conjugate-phased to meet the target.
    """
    h = np.atleast_1d(np.asarray(h, dtype=complex))
    if h.ndim != 1:
        raise DimensionError(f"expected a length-M vector, got shape {h.shape}")
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
    w = w[None, :, None]
    return PrecoderSolution(w, per_antenna_powers(w))


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
    w = w[:, :, None]
    return PrecoderSolution(w, per_antenna_powers(w))
