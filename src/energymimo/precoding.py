"""Downlink precoder solvers.

:func:`solve_stack` runs the solvers named in ``SOLVERS``: ``zf``, the
conventional per-subcarrier zero-forcing solution minimizing transmit
power; ``min_pa``, which minimizes the square-root PA consumption under
the same QoS constraints by iterating the fixed-point power equations; and
``saturating``, the capped single-user narrowband fill in closed form. It
takes the package's one instance format, a (R, Q, K, M) channel stack ``h``
and its (R, K) ZF targets ``d`` (:func:`channel.zf_targets`), checked once
by :func:`channel.check_stack`, and returns, by name, one
:class:`PrecoderSolution` whose fields carry the block axis; row r equals
the solve of instance r alone, bit for bit. It can keep its large arrays
in a :class:`Workspace` that a thread reuses from block to block.
``los_allocation_precoders``, the closed-form single-user LOS power split,
takes and returns the same. It stays public because it is the only entry
point that gives the kernel's precoders at chosen powers, which the
paper's LOS split invariance (acceptance criterion 4) needs.

Both iterative solvers and the LOS split take their precoders from one
weighted zero-forcing kernel, W_q = D_p^(1/2) H_q^H G_q^(-1) D with
G_q = H_q D_p^(1/2) H_q^H, over all M antennas of a stack of shape
(R, Q, K, M) holding R realizations. The ZF targets D = diag(d) are
d_k = (gamma_k / Q)^(1/2) sigma, with Q the channel's own subcarrier count,
and the same on every subcarrier. Zero forcing is the kernel at uniform
power; an antenna the fixed point switches off is a zero power and gets a
zero row. Zero forcing and ``min_pa`` store their powers and assemble the
kernel's precoders only when a solution's ``matrices`` is read.

The fixed point itself needs only the powers, p_m <- p_m sum_q h_qm^H A_q
h_qm with A_q = G_q^(-1) D^2 G_q^(-1). It iterates that lifted map on
the K^2 distinct reals of each h_qm h_qm^H, packed once per solve, so an
iteration is two stacked real products and a K x K inverse per subcarrier.
Its first iterate is the map at the uniform start, and ``min_pa``'s
reported powers are one more sweep at its final powers. Zero forcing's
powers are that first iterate for at most ``ZF_MAP_MAX_USERS`` users,
computed once for a block that solves both, and the kernel's precoders
read back above: the packing holds K / 2 times the channel stack's bytes,
which a zero-forcing solve alone pays only where the map is the faster
path. The kernel and the map invert the Gram stack by one of two paths
chosen from the instance's own (Q, K). With at least
``SWEEP_MIN_SUBCARRIERS`` subcarriers and at most ``SWEEP_MAX_USERS``
users, one Gauss-Jordan sweep, :func:`_sweep_inverse`, runs over the whole
stack at once, with the stack axis last; its pivots, the squared Cholesky
diagonals, give the conditioning check, :func:`_refuse_bad_pivots`.
Otherwise a LAPACK Cholesky factorization checks the conditioning and
``np.linalg.inv`` inverts. Per-matrix LAPACK calls cost a fixed overhead
that the sweep pays once per stack, while the sweep's arithmetic grows as
K^3 in numpy temporaries: the sweep wins on many small matrices, LAPACK on
few or large ones. On the sweep path with at most
``STACK_LAST_MAP_MAX_USERS`` users the map keeps the Gram stack
stack-last from its build to A_q's packed reals, whole-stack products.
The kernel, and the map otherwise, invert through :func:`_guard_gram`,
which returns the inverse stack-first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .channel import check_stack
from .errors import (
    DimensionError, DomainError, EnergyMimoError, InfeasibleError, SingularChannelError,
)
from .model import per_antenna_powers

# Condition-number estimate beyond which the Gram solve is refused.
GRAM_CONDITION_LIMIT = 1e12

# Instances with at least this many subcarriers and at most this many users
# invert their Gram stacks by the Gauss-Jordan sweep, all others by LAPACK.
# The choice reads only the instance's (Q, K), never the stack height, so a
# row of a stack still equals its instance solved alone, bit for bit. On 2
# vCPUs at one realization the sweep took 0.8-1.0x the LAPACK time at Q = 32
# for K <= 12, 0.3-0.7x at Q = 256, and 0.8-1.3x at K = 16 for Q = 32-256.
# Where the lifted map then forms A_q, STACK_LAST_MAP_MAX_USERS decides.
SWEEP_MIN_SUBCARRIERS = 32
SWEEP_MAX_USERS = 12

# On the sweep path the lifted map forms the packed reals of
# A_q = G_q^(-1) D^2 G_q^(-1) as whole-stack products on the swept,
# stack-last inverse for instances with at most this many users, and above
# it by one matrix product per subcarrier on the inverse moved stack-first.
# The choice reads only the instance's K, so a row of a stack still equals
# its instance solved alone. On 2 vCPUs with one BLAS thread at M = 32, a
# map sweep with the whole-stack products took 0.54-1.01x the time of one
# with the matrix products at K <= 4 for Q = 32-256 (0.79x at K = 4,
# Q = 256), and at 1 and 8 realizations 0.90-1.36x at K = 5, 0.99-1.12x at
# K = 6, 1.03-1.08x at K = 7 and 1.00-1.18x at K = 8.
STACK_LAST_MAP_MAX_USERS = 4

# Uniform start of the fixed point, in Watts. The first weighted-ZF iterate
# does not depend on the scale of a uniform start; at 1 W the kernel's
# weights are exactly one, so zero forcing runs on the unweighted channel.
INITIAL_POWER = 1.0

# Zero forcing reads its powers from the lifted map at uniform power for
# instances with at most this many users, from the kernel's precoders above.
# The choice reads only the instance's K, so a row of a stack still equals
# its instance solved alone, and ``zf`` equals ``min_pa``'s first iterate
# wherever it takes the map. On 2 vCPUs with one BLAS thread, a zero-forcing
# solve alone by the map, packing included, took 0.3-1.0x the kernel's time
# at K <= 4 and Q >= 8, and 0.8-1.4x at Q = 1 (under 0.5 ms for 32
# realizations, where ``run``'s shared first iterate saves a kernel call);
# it took 1.0-1.4x at K = 5-6, 1.7-2.1x at K = 8, 2.9x at K = 16 and 5x at
# M = 256, K = 32, Q = 64.
ZF_MAP_MAX_USERS = 4

# The solvers that :func:`solve_stack` runs by name, and those of them that
# ignore ``p_max``.
SOLVERS = ("zf", "min_pa", "saturating")
AS1_PRECODERS = ("zf", "min_pa")

# Tolerance on max |[H_q W_q]_{k',k} - delta * (gamma_k/Q)^(1/2) sigma| that
# every returned solution is expected to satisfy.
ZF_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FixedPointConfig:
    """Knobs of the fixed-point power iteration.

    ``tolerance`` is the absolute stopping threshold on the largest
    per-antenna power change between iterations, in Watts. Antennas whose
    power falls below ``dead_antenna_floor`` are clamped to zero power; the
    lifted power map runs over all M antennas, where a zero power adds
    nothing to the Gram matrices and maps to zero again.
    """

    tolerance: float = 1e-4
    max_iterations: int = 2000
    dead_antenna_floor: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:
            raise DomainError("tolerance must be positive and finite")
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise DomainError("max_iterations must be an integer >= 1")
        if not self.dead_antenna_floor >= 0.0:
            raise DomainError("dead_antenna_floor must be >= 0")
        if not self.dead_antenna_floor < np.inf:
            raise DomainError("dead_antenna_floor must be finite")


@dataclass
class PrecoderSolution:
    """Per-antenna powers plus convergence diagnostics, and the precoders on request.

    Every solver returns a block of R: (R, M) ``powers`` and length-R
    ``iterations``, ``converged`` and ``residual``. ``residual`` is the last
    max absolute inter-iteration power change (zero for closed-form
    solutions, which take no iteration and count as converged). ``trace`` is
    one (sum_r iterations_r, 2) array, realization after realization: per
    iteration the residual and the iterate's squared distance to a
    reference (NaN without one). The closed forms have a (0, 2) trace.

    ``trace`` is sorted from the fixed point's per-iteration ``_trail``, and
    the (R, Q, M, K) precoders ``matrices`` are assembled from ``_kernel``
    (channel stack, ZF targets, kernel powers), each when first read. The
    closed forms hold their matrices from the start and derive ``powers``.
    A solution that :func:`solve_stack` solved in a :class:`Workspace` holds
    no kernel, because its channel stack is reused for the next block, and
    refuses to assemble ``matrices``.
    """

    powers: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual: np.ndarray
    _trail: list = field(default_factory=list, repr=False)
    _kernel: tuple | None = field(default=None, repr=False)

    @cached_property
    def trace(self) -> np.ndarray:
        """The (sum_r iterations_r, 2) trace, sorted once, on first read."""
        if not self._trail:
            return np.zeros((0, 2))
        # A stable sort by realization keeps each realization's iterations in order.
        covered, steps, dists = zip(*self._trail)
        order = np.argsort(np.concatenate(covered), kind="stable")
        trace = np.full((len(order), 2), np.nan)
        trace[:, 0] = np.concatenate(steps)[order]
        if dists[0] is not None:
            trace[:, 1] = np.concatenate(dists)[order]
        return trace

    @cached_property
    def matrices(self) -> np.ndarray:
        """The (R, Q, M, K) precoders, assembled once, on first read."""
        if self._kernel is None:
            raise EnergyMimoError(
                "this solution was solved in a reused workspace and keeps no channel; "
                "solve it with solve_stack without a workspace to read its precoders"
            )
        h, d, p = self._kernel
        return _weighted_zf(h, d, np.arange(len(p)), p)


class Workspace:
    """Arrays that one thread reuses for block after block of one command.

    ``take(name, shape, dtype)`` returns an array of that shape whose
    contents are undefined: the leading rows of the array held under
    ``name`` when that one has the same dtype and trailing shape and at
    least as many rows, and otherwise a new array, which is held under
    ``name`` from then on. What a caller takes stays its own only until the
    next ``take`` of that name, so a workspace serves one thread, and
    nothing that outlives a block may hold what the block took.
    """

    def __init__(self):
        self._held = {}

    def take(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        held = self._held.get(name)
        fits = held is not None and held.dtype == dtype and held.shape[1:] == shape[1:]
        if not fits or len(held) < shape[0]:
            held = self._held[name] = np.empty(shape, dtype)
        return held[:shape[0]]


def _take(workspace: Workspace | None, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """``workspace.take(name, shape, dtype)``, or a new array without a workspace."""
    return np.empty(shape, dtype) if workspace is None else workspace.take(name, shape, dtype)


def _guard_gram(gram, index):
    """The inverse of a (R, Q, K, K) Gram stack that is safely positive definite.

    Raises :class:`SingularChannelError` naming ``index[r]`` for the first
    realization r that is not positive definite or whose condition
    estimate, taken over its own Q * K squared Cholesky diagonals, is not
    at most ``GRAM_CONDITION_LIMIT``; a non-finite estimate, from a NaN or
    overflowed Gram, is refused too, with a message that says so.

    The path depends on the instance's (Q, K) alone. With Q at least
    ``SWEEP_MIN_SUBCARRIERS`` and K at most ``SWEEP_MAX_USERS``, the stack
    is copied stack-last, :func:`_sweep_inverse` inverts it in place and
    :func:`_refuse_bad_pivots` checks its pivots, the squared diagonals.
    Otherwise a failed ``np.linalg.cholesky`` means not positive definite,
    its factors serve only the check, and the return value is
    ``np.linalg.inv(gram)``. That check first squares the whole block's
    largest over smallest diagonal: at most the limit, it passes every
    realization, as :func:`_refuse_bad_pivots` says; else each realization's
    own estimate decides.
    """
    n, q, k, _ = gram.shape
    if q >= SWEEP_MIN_SUBCARRIERS and k <= SWEEP_MAX_USERS:
        a = np.empty((k, k, n * q), dtype=complex)
        a[...] = gram.reshape(n * q, k, k).transpose(1, 2, 0)
        _refuse_bad_pivots(_sweep_inverse(a), index)
        return np.ascontiguousarray(a.transpose(2, 0, 1)).reshape(n, q, k, k)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        bad = next(r for r in range(n) if not _positive_definite(gram[r]))
        raise SingularChannelError(
            "user-side Gram matrix is not positive definite", realization=int(index[bad])
        ) from exc
    # A successful Cholesky factorization of a finite Gram has a positive diagonal.
    diag = abs(chol.diagonal(axis1=-2, axis2=-1)).reshape(n, q * k)
    low, high = float(diag.min()), float(diag.max())
    ratio = high / low if low > 0.0 else np.inf
    if not ratio * ratio <= GRAM_CONDITION_LIMIT:
        _refuse_ill_conditioned((diag.max(axis=1) / diag.min(axis=1)) ** 2, index)
    return np.linalg.inv(gram)


def _refuse_bad_pivots(pivots, index):
    """Raise for the first realization whose (K, R * Q) sweep pivots are refused.

    A pivot at or below zero means not positive definite; else a realization's
    largest over smallest pivot is its condition estimate, checked by
    :func:`_refuse_ill_conditioned`.

    The whole block is tested first. When its smallest pivot is positive and
    its largest over its smallest is at most ``GRAM_CONDITION_LIMIT``, every
    realization passes: its own pivots lie between those two, and correctly
    rounded division is monotone in each operand, so its estimate is at most
    the block's. Otherwise, also on a NaN pivot, the check per realization
    decides, and a refusal names the same realization with the same message.
    """
    low, high = float(pivots.min()), float(pivots.max())
    if low > 0.0 and high / low <= GRAM_CONDITION_LIMIT:
        return
    pivots = pivots.reshape(len(pivots), len(index), -1)
    indefinite = np.any(pivots <= 0.0, axis=(0, 2))
    if indefinite.any():
        raise SingularChannelError(
            "user-side Gram matrix is not positive definite",
            realization=int(index[np.argmax(indefinite)]),
        )
    with np.errstate(invalid="ignore"):  # inf / inf from an overflowed Gram
        cond_est = pivots.max(axis=(0, 2)) / pivots.min(axis=(0, 2))
    _refuse_ill_conditioned(cond_est, index)


def _refuse_ill_conditioned(cond_est, index):
    """Raise for the first realization whose condition estimate is not at most the limit."""
    refused = ~(cond_est <= GRAM_CONDITION_LIMIT)
    if refused.any():
        bad = int(np.argmax(refused))
        reason = (
            f"Gram condition estimate {cond_est[bad]:.3e} exceeds {GRAM_CONDITION_LIMIT:.1e}"
            if np.isfinite(cond_est[bad])
            else "Gram condition estimate is not finite (NaN or overflowed Gram entries)"
        )
        raise SingularChannelError(reason, realization=int(index[bad]))


def _sweep_inverse(a):
    """Gauss-Jordan inverse, in place, of a (K, K, S) Hermitian stack; returns its (K, S) pivots.

    The stack axis is last, so each of the K steps is a few whole-array
    numpy calls and the per-matrix cost is the arithmetic alone; there is
    no pivoting. Each matrix's entries see the same operations whatever
    the stack height. For a Hermitian positive definite matrix pivot j is
    the j-th squared Cholesky diagonal, a positive real, and is taken as
    the real part. Any other matrix may divide by a zero, negative or NaN
    pivot, and its inverse is garbage: the caller must refuse it from the
    pivots (:func:`_refuse_bad_pivots`). Floating-point warnings are
    silenced so that such a matrix reaches the caller only as its pivots.
    :func:`_guard_gram` moves the inverse back stack-first; the lifted map
    at most ``STACK_LAST_MAP_MAX_USERS`` users forms A from it where it is.

    Step j scales the pivot row by 1 / pivot, a complex times a real, which
    numpy rounds as x (1 / b) and y (1 / b) for an entry x + iy. Dividing by
    the pivot instead would cast it to b + 0i and round (x + y 0) (1 / b) and
    (y - x 0) (1 / b): the same floats wherever x and y are finite, up to the
    sign of an exact zero. The rank-1 update is formed in one (K, K, S)
    scratch array: the eliminated column, copied across it, times the
    scaled row, the same complex products, in the same operand order, as
    the broadcast product of the column and the row.
    """
    k = len(a)
    pivots = np.empty((k, a.shape[-1]))
    update = np.empty_like(a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j, (pivot, row, column) in enumerate(zip(pivots, a, a.swapaxes(0, 1))):
            pivot[...] = row[j].real
            update[...] = column[:, None]
            update[j] = 0.0
            column[...] = 0.0
            row[j] = 1.0
            row *= 1.0 / pivot
            update *= row
            a -= update
    return pivots


def _positive_definite(matrices) -> bool:
    try:
        np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        return False
    return True


def _weighted_zf(h, d, index, p):
    """W = D_p^(1/2) H^H (H D_p^(1/2) H^H)^(-1) diag(d) on a (R, Q, K, M) stack.

    ``p`` holds the (R, M) per-antenna powers. The Gram G = (H sqrt(p)) H^H
    runs over all M antennas: one with p_m = 0 adds nothing to G and gets a
    zero row in W, so a switched-off antenna needs no mask. The inverse
    comes from :func:`_guard_gram`; scaling its columns by the (R, K) ZF
    targets ``d`` gives G^(-1) D. Returns the (R, Q, M, K) precoders.
    """
    root = np.sqrt(p)[:, None, None, :]
    h_adj = np.ascontiguousarray(h.conj().swapaxes(-1, -2))
    inverse = _guard_gram((h * root) @ h_adj, index)
    solved = inverse * d[:, None, None, :]
    return (h_adj @ solved) * root.swapaxes(-1, -2)


@lru_cache(maxsize=8)
def _packing(k):
    """Index maps between packed K^2 reals and the interleaved K x K complex entries.

    A packed row holds the K diagonal entries, then Re and then Im of the
    K (K - 1) / 2 entries (k, l) with k < l. ``gather`` picks a matrix's
    packed row out of its interleaved (re, im) floats. ``spread`` and
    ``sign`` rebuild a Hermitian matrix's interleaved floats from a packed
    row whose off-diagonal part is doubled: the diagonal's imaginary part
    is zero, and the lower triangle is the conjugate of the upper one.
    ``rows`` and ``cols`` index the upper triangle's entries in packed order.
    ``left`` and ``right`` index the flattened K x K entries: for term j of
    the diagonal's and then the upper triangle's K (K + 1) / 2 entries
    (k, l), row j of ``left`` picks entry (k, j) and row j of ``right``
    entry (j, l), so that A_kl = sum_j of their products.
    """
    rows, cols = np.triu_indices(k, 1)
    pairs = rows.size
    diagonal = np.arange(k) * (k + 1)
    upper, lower = rows * k + cols, cols * k + rows
    terms = np.arange(k)[:, None]
    left = np.concatenate([np.arange(k), rows]) * k + terms
    right = terms * k + np.concatenate([np.arange(k), cols])
    gather = np.concatenate([2 * diagonal, 2 * upper, 2 * upper + 1])
    spread = np.zeros(2 * k * k, dtype=int)
    sign = np.zeros(2 * k * k)
    spread[2 * diagonal], sign[2 * diagonal] = np.arange(k), 1.0
    re, im = k + np.arange(pairs), k + pairs + np.arange(pairs)
    spread[2 * upper], spread[2 * lower], sign[2 * upper], sign[2 * lower] = re, re, 0.5, 0.5
    spread[2 * upper + 1], spread[2 * lower + 1] = im, im
    sign[2 * upper + 1], sign[2 * lower + 1] = 0.5, -0.5
    for shared in (gather, spread, sign, rows, cols, left, right):
        shared.flags.writeable = False
    return gather, spread, sign, rows, cols, left, right


@lru_cache(maxsize=8)
def _stack_last_spread(k, stack):
    """The :func:`_packing` spread of a (S, K^2) packed Gram stack to a (K, K, S) complex one.

    Float f of the (K, K, S) stack's flattened floats is float ``sources[f]``
    of the flattened packed stack times ``signs[f]``: one gather in the
    stack-last order, where a ``spread`` along each packed row would leave
    the stack axis first.
    """
    spread, sign = _packing(k)[1:3]
    sources = spread.reshape(k * k, 1, 2) + (k * k) * np.arange(stack)[:, None]
    signs = np.broadcast_to(sign.reshape(k * k, 1, 2), sources.shape).ravel()
    sources = sources.ravel()
    for shared in (sources, signs):
        shared.flags.writeable = False
    return sources, signs


def _packed_products(h, workspace: Workspace | None = None):
    """The real (R, Q * K^2, M) packed products of each antenna's channel column.

    For subcarrier q and antenna m the K^2 reals of h_qm h_qm^H in the
    :func:`_packing` order, with the off-diagonal entries doubled, so that
    the Gram stack is this array times sqrt(p) and the power map is a
    packed K x K matrix times it. One (R, Q, M) complex scratch serves every
    pair of users. The products and the scratch are taken from
    ``workspace``, or are new arrays without one.
    """
    n, q, k, m = h.shape
    packed = _take(workspace, "packed", (n, q * k * k, m)).reshape(n, q, k * k, m)
    z = _take(workspace, "pair", (n, q, m), complex)
    rows, cols = _packing(k)[3:5]
    pairs = rows.size
    for a in range(k):
        np.conjugate(h[:, :, a], out=z)
        np.multiply(h[:, :, a], z, out=z)
        packed[:, :, a] = z.real
    for j, (a, b) in enumerate(zip(rows.tolist(), cols.tolist())):
        np.conjugate(h[:, :, b], out=z)
        np.multiply(h[:, :, a], z, out=z)
        np.multiply(z.real, 2.0, out=packed[:, :, k + j])
        np.multiply(z.imag, 2.0, out=packed[:, :, k + pairs + j])
    return packed.reshape(n, q * k * k, m)


def _power_map(packed, targets, p, index):
    """One sweep of the lifted power map on a working set of R realizations.

    ``packed`` holds the (R, Q * K^2, M) products of :func:`_packed_products`,
    ``targets`` the (R, 1, K, 1) squared ZF targets d_k^2 and ``p`` the
    (R, M) powers. Forms G_q = H_q D_p^(1/2) H_q^H as one product with
    sqrt(p), inverts it, refusing a realization by naming ``index[r]``,
    and returns the (R, M) powers p_m sum_q h_qm^H A_q h_qm with
    A_q = G_q^(-1) D^2 G_q^(-1), clipped at zero: the per-antenna powers of
    the weighted-ZF kernel at ``p``, up to rounding. A zero power maps to
    zero.

    With Q at least ``SWEEP_MIN_SUBCARRIERS`` and K at most
    ``STACK_LAST_MAP_MAX_USERS`` one (K, K, R * Q) array, stack axis last,
    holds the Gram stack, gathered float by float from the packed Gram and
    scaled by each float's sign (:func:`_stack_last_spread`), is inverted
    in place by :func:`_sweep_inverse` and guarded by
    :func:`_refuse_bad_pivots`. A's packed reals are then whole-stack
    products: the K terms G^(-1)_kj d_j^2 G^(-1)_jl of each of A's
    K (K + 1) / 2 distinct entries are gathered into one array, summed in
    order of j and moved into packed order by one transpose. d_j^2 scales
    the left factors' float view: numpy multiplies a complex x + iy by a
    real r as x r and y r, up to the sign of an exact zero, so the floats
    are those of the complex product. Otherwise :func:`_guard_gram` inverts
    the stack-first Gram stack, and A is one matrix product per
    subcarrier, gathered into packed order.
    """
    n = p.shape[0]
    k = targets.shape[-2]
    q = packed.shape[1] // (k * k)
    gather, spread, sign, _, _, left, right = _packing(k)
    packed_gram = (packed @ np.sqrt(p)[:, :, None]).reshape(n * q, k * k)
    if q >= SWEEP_MIN_SUBCARRIERS and k <= STACK_LAST_MAP_MAX_USERS:
        # Each float is the same product as in the stack-first spread below.
        a = np.empty((k, k, n * q), dtype=complex)
        floats = a.view(float).reshape(-1)
        sources, signs = _stack_last_spread(k, n * q)
        np.take(packed_gram.reshape(-1), sources, out=floats, mode="clip")
        floats *= signs
        _refuse_bad_pivots(_sweep_inverse(a), index)
        # Term j of A_kl = sum_j G^(-1)_kj d_j^2 G^(-1)_jl for the diagonal's
        # and then the upper triangle's entries (none above it at K = 1).
        inverse = a.reshape(k * k, n, q)
        terms = np.take(inverse, left.ravel(), axis=0).reshape(k, -1, n, q)
        scaled = terms.view(float)
        np.multiply(scaled, targets.reshape(n, k).T[:, None, :, None], out=scaled)
        terms *= np.take(inverse, right.ravel(), axis=0).reshape(terms.shape)
        total = terms[0]
        for term in terms[1:]:
            total += term
        pairs = k * (k - 1) // 2
        packed_a = np.empty((k * k, n, q))
        packed_a[:k + pairs] = total.real
        packed_a[k + pairs:] = total[k:].imag
        coefficients = packed_a.transpose(1, 2, 0).reshape(n, 1, q * k * k)
    else:
        gram = (np.take(packed_gram, spread, axis=-1) * sign).view(complex).reshape(n, q, k, k)
        inverse = _guard_gram(gram, index)
        lifted = (inverse @ (targets * inverse)).reshape(n, q, k * k).view(float)
        coefficients = np.take(lifted, gather, axis=-1).reshape(n, 1, q * k * k)
    p_new = p * (coefficients @ packed)[:, 0]
    return np.maximum(p_new, 0.0, out=p_new)


def _compact(array, rows):
    """``array[rows]`` for increasing ``rows``, moved down in place."""
    for i, r in enumerate(rows.tolist()):
        if i != r:
            array[i] = array[r]
    return array[:len(rows)]


def _fixed_point(
    h, d, packed, targets, cfg, first, reference, workspace: Workspace | None = None
) -> PrecoderSolution:
    """Fixed-point power iteration on a (R, Q, K, M) stack ``h`` with (R, K) ZF targets ``d``.

    ``packed`` and ``targets`` are the stack's packed products and (R, 1, K,
    1) squared targets, which the caller may share with zero forcing: the
    loop never writes them, and its first compaction takes a private copy,
    into ``workspace`` if given. Later compactions move that copy's rows down
    in place.
    ``first`` is the lifted map at the uniform start, which the caller
    computes once and may share with zero forcing; the loop takes a copy of
    it as the first iterate and never writes it. The loop iterates the
    lifted power map (:func:`_power_map`) on powers alone and never builds a
    (Q, K, M) array or a precoder.

    Each realization keeps its own powers, residual, iteration count and
    stopping test, and leaves the working set once it converges: its row
    goes from the packed products, the squared targets, ``index`` and ``p``
    together, so ``index`` holds the stack rows of the working set and
    names each remaining realization in errors. A realization's final
    powers move to ``p_final`` as it leaves. A dead antenna is a zero power
    and maps to zero. A realization left with fewer than K active antennas
    is refused at the next iteration; the rows are counted only when the
    working set holds more zero or NaN powers than at the last count, and
    after each compaction. The trail keeps each iteration's stack rows,
    step and distance to ``reference``, if given; the solution's ``trace``
    sorts it by realization when first read.

    The reported powers are one more map sweep over the whole block at
    ``p_final``: up to rounding, the powers of the precoders that the
    weighted-ZF kernel assembles at ``p_final``, which ``matrices`` does
    when read. That sweep's guard refuses a bad final Gram, naming the
    lowest refused realization. With a ``workspace`` the solution keeps no
    kernel, since ``h`` is the workspace's to reuse.
    """
    n, _, k, m = h.shape
    index = np.arange(n)
    shared, block_targets = packed, targets
    p = np.full((n, m), INITIAL_POWER)
    p_final = np.empty((n, m))
    iterations = np.full(n, cfg.max_iterations)
    converged = np.zeros(n, dtype=bool)
    residual = np.full(n, np.inf)
    trail = []  # each iteration's stack rows, steps and squared distances
    idle = 0  # p's entries that are not positive, when its rows were last counted

    for iteration in range(1, cfg.max_iterations + 1):
        p[p < cfg.dead_antenna_floor] = 0.0
        # A zero power maps to zero and NaN to NaN, so a row can only fall
        # short of K active antennas by gaining such an entry.
        now_idle = p.size - np.count_nonzero(p > 0.0)
        if now_idle > idle:
            short = np.count_nonzero(p, axis=1) < k
            if short.any():
                raise SingularChannelError(
                    "fewer active antennas than users; cannot hold the ZF constraint",
                    realization=int(index[np.argmax(short)]),
                )
            idle = now_idle
        if iteration == 1:
            p_new = first.copy()  # the next clamp writes into p
        else:
            p_new = _power_map(packed, targets, p, index)
        step = abs(p_new - p).max(axis=1)
        dist = None if reference is None else np.sum((p_new - reference[index]) ** 2, axis=1)
        trail.append((index, step, dist))
        p = p_new
        done = step <= cfg.tolerance
        if iteration == cfg.max_iterations:
            done[:] = True
        elif not done.any():
            continue
        leaving = index[done]
        p_final[leaving] = p[done]
        residual[leaving] = step[done]
        converged[leaving] = step[done] <= cfg.tolerance
        iterations[leaving] = iteration
        keep = ~done
        targets, index, p = targets[keep], index[keep], p[keep]
        if not index.size:
            break
        idle = 0  # so the kept rows are counted at their next idle entry
        rows = np.flatnonzero(keep)
        if packed is shared:
            # mode="clip" takes straight into the copy; "raise" would buffer.
            copy = _take(workspace, "compacted", packed.shape)[:len(rows)]
            packed = np.take(shared, rows, axis=0, out=copy, mode="clip")
        else:
            packed = _compact(packed, rows)
    del packed

    powers = _power_map(shared, block_targets, p_final, np.arange(n))
    kernel = None if workspace is not None else (h, d, p_final)
    return PrecoderSolution(powers, iterations, converged, residual, trail, kernel)


def _no_iteration(powers, kernel=None) -> PrecoderSolution:
    """The solution of a block of (R, M) ``powers`` that took no iteration."""
    n = len(powers)
    diagnostics = np.zeros(n, dtype=int), np.ones(n, dtype=bool), np.zeros(n)
    return PrecoderSolution(powers, *diagnostics, _kernel=kernel)


def _closed_form(matrices) -> PrecoderSolution:
    """The solution of a block of (R, Q, M, K) ``matrices`` that took no iteration."""
    solution = _no_iteration(per_antenna_powers(matrices))
    solution.matrices = matrices
    return solution


def solve_stack(
    names, h, d, fixed_point: FixedPointConfig | None = None, p_max: float = np.inf,
    reference=None, workspace: Workspace | None = None,
) -> dict[str, PrecoderSolution]:
    """Each named solver's stacked solution of one block of instances, by name.

    ``names`` is a non-empty sequence of names among ``SOLVERS``; anything
    else raises :class:`DomainError` before an instance is read. ``h`` is
    the (R, Q, K, M) channel stack and ``d`` its (R, K) ZF targets, which
    :func:`channel.check_stack` refuses unless they form a block. Each
    solution equals that solver's solve alone, bit for bit, whatever the
    order of ``names``, and its row r equals the solve of ``h[r:r + 1],
    d[r:r + 1]``. An error names the stack row of the offending instance in
    ``realization``; where several solvers would fail, ``zf`` raises first,
    then ``min_pa``, then ``saturating``. Neither ``h`` nor ``d`` is written.

    ``zf`` is the weighted-ZF kernel at uniform power, and its ``matrices``
    is that kernel, assembled when read. ``min_pa`` runs the fixed-point
    power iteration, configured by ``fixed_point`` (the defaults when
    None), from a uniform initial allocation: each sweep maps the current
    power diagonal to the per-antenna powers of its weighted ZF solution,
    through a lifted power map that never assembles that solution, until
    the largest power change drops below the tolerance or the iteration
    budget is exhausted (then the realization is returned with
    ``converged`` False rather than damped). Antennas driven below the dead
    floor are clamped to zero power, which keeps them at zero. Its trace
    measures each iterate against the (R, M) ``reference``, and its
    ``matrices`` is the kernel at the final powers, assembled when read.
    ``saturating`` takes K=1, Q=1 instances. In each, antennas saturate at
    ``p_max`` in order of decreasing channel gain until the QoS sum
    sum_m |h_m| p_m^(1/2) reaches the target d; the last recruited antenna
    gets the partial power closing the gap exactly. With ``p_max = inf``
    this is the uncapped optimum: all power on the strongest antenna (the
    lowest index on ties), conjugate-phased to meet the target. It raises
    :class:`InfeasibleError` for the first instance whose saturated sum
    falls short of its target.

    The channel products are packed once, for ``min_pa`` and for ``zf`` at
    most ``ZF_MAP_MAX_USERS`` users, and the lifted map at the uniform start
    is computed once: it is ``min_pa``'s first iterate and there zero
    forcing's powers. Above that user count zero forcing reads its powers
    back from the kernel's precoders, the same up to rounding. No precoder
    is kept until a solution's ``matrices`` is read.

    With a ``workspace``, the packed products, their scratch and the fixed
    point's compacted copy are taken from it, and no solution keeps a kernel:
    the next block on its thread overwrites those buffers, and the
    experiments' stack ``h`` with them, so reading ``matrices`` raises.
    Without one those arrays are new, and each solution keeps ``h`` and
    ``d`` to assemble its precoders when read. Either way the fields are new
    arrays and their bits are the same.
    """
    if isinstance(names, str) or not names or not set(names) <= set(SOLVERS):
        raise DomainError(f"names must be a non-empty sequence of {SOLVERS}, got {names!r}")
    if "saturating" in names and not p_max > 0.0:
        raise DomainError(f"p_max must be positive, got {p_max}")
    h, d = check_stack(h, d)
    n, _, k, m = h.shape
    if reference is not None and np.shape(reference) != (n, m):
        raise DimensionError(f"reference must have shape ({n}, {m}), got {np.shape(reference)}")
    index, uniform = np.arange(n), np.full((n, m), INITIAL_POWER)
    kernel = None if workspace is not None else (h, d, uniform)
    zf_by_map = "zf" in names and k <= ZF_MAP_MAX_USERS
    solved = {}
    if "zf" in names and not zf_by_map:
        zf_powers = per_antenna_powers(_weighted_zf(h, d, index, uniform))
        solved["zf"] = _no_iteration(zf_powers, kernel)
    if zf_by_map or "min_pa" in names:
        packed = _packed_products(h, workspace)
        targets = np.square(d)[:, None, :, None]
        first = _power_map(packed, targets, uniform, index)
        if zf_by_map:
            solved["zf"] = _no_iteration(first, kernel)
        if "min_pa" in names:
            solved["min_pa"] = _fixed_point(
                h, d, packed, targets, fixed_point or FixedPointConfig(), first, reference,
                workspace,
            )
    if "saturating" in names:
        solved["saturating"] = _saturating(h, d, p_max)
    return {name: solved[name] for name in names}


def _saturating(h, d, p_max: float) -> PrecoderSolution:
    """The saturating fill of a (R, 1, 1, M) stack ``h`` with (R, 1) ZF targets ``d``."""
    n, q, k, m = h.shape
    if (q, k) != (1, 1):
        raise DimensionError(f"the saturating precoder needs K=1 and Q=1, got K={k}, Q={q}")
    h, target = h[:, 0, 0], d[:, 0]
    gains = np.abs(h)
    order = np.argsort(-gains, axis=1, kind="stable")
    ranked = np.take_along_axis(gains, order, axis=1)
    # A zero-gain antenna adds an exact 0, not 0 * inf.
    contrib = np.multiply(ranked, np.sqrt(p_max), out=np.zeros((n, m)), where=ranked > 0.0)
    cumulative = np.cumsum(contrib, axis=1)
    total = cumulative[:, -1]
    short = total < target
    if short.any():
        r = int(np.argmax(short))
        raise InfeasibleError(
            f"QoS unreachable even with all antennas saturated: "
            f"sum |h_m| p_max^(1/2) = {total[r]:.6g} < target {target[r]:.6g} "
            f"(deficit {target[r] - total[r]:.6g})",
            realization=r,
        )
    rows = np.arange(n)
    last = np.argmax(cumulative >= target[:, None], axis=1)
    already = np.where(last > 0, cumulative[rows, last - 1], 0.0)
    ranked_powers = np.where(np.arange(m) < last[:, None], p_max, 0.0)
    ranked_powers[rows, last] = ((target - already) / ranked[rows, last]) ** 2
    powers = np.empty((n, m))
    np.put_along_axis(powers, order, ranked_powers, axis=1)
    w = np.zeros((n, m), dtype=complex)
    np.divide(np.sqrt(powers) * h.conj(), gains, out=w, where=powers > 0.0)
    return _closed_form(w[:, None, :, None])


def los_allocation_precoders(h, d, weights) -> PrecoderSolution:
    """Single-user LOS precoders realizing chosen power splits.

    ``h`` is a (R, Q, 1, M) stack of unit-modulus LOS channels and ``d`` its
    (R, 1) ZF targets. Row r of the (R, M) ``weights`` is nonnegative, sums
    to one and sets p_m^(1/2) = weights_m * sigma * gamma^(1/2) in instance
    r. Every such split is optimal, so the PA consumption is invariant to
    it. The precoders are the weighted-ZF kernel at powers ``weights**2``:
    at K=1 on a LOS channel that kernel is this split, conjugate-phased on
    each subcarrier.
    """
    h, d = check_stack(h, d)
    n, _, k, m = h.shape
    if k != 1:
        raise DimensionError("LOS allocation precoder is single-user only")
    if not np.allclose(np.abs(h), 1.0, atol=1e-9):
        raise DomainError("channel entries are not unit modulus; not a LOS channel")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n, m):
        raise DimensionError(f"weights must have shape (R, M) = ({n}, {m}), got {weights.shape}")
    if not np.all(weights >= 0.0):
        raise DomainError("weights must be non-negative")
    sums = weights.sum(axis=1)
    if not np.all(abs(sums - 1.0) <= 1e-9):
        raise DomainError(f"each row of weights must sum to 1, got {sums!r}")
    return _closed_form(_weighted_zf(h, d, np.arange(n), np.square(weights)))
