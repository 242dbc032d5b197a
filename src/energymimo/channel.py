"""Scenario generation: user placement, fading, SINR targets, channel draws.

An instance is a row of two arrays, the one format that the solvers and the
oracles take: a channel stack ``h`` of shape (R, Q, K, M), R realizations of
Q subcarriers of K x M matrices, and the (R, K) ZF targets ``d`` that
:func:`zf_targets` makes from SINR targets gamma and the noise power,
d_k = (gamma_k / Q)^(1/2) sigma, user k's target split evenly over the Q
subcarriers. :func:`check_stack` refuses a pair that is not such an
instance block. :func:`draw_rayleigh_into` and :func:`draw_los_into` write
one realization's channel into its (Q, K, M) row. The large-scale fading
beta scales the Rayleigh draw and is not kept with the channel.

Randomness is always drawn from an explicit ``numpy.random.Generator`` so
experiments are bit-reproducible; there is no module-level RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SingularChannelError

# 3GPP-style urban path loss, beta_dB = -35.3 - 37.6 log10(u).
PATHLOSS_INTERCEPT_DB = -35.3
PATHLOSS_SLOPE_DB = 37.6

# Reference coefficient mapping large-scale fading to the SINR target,
# gamma_dB = 5 log10(beta / SINR_REF_COEFF). Overridable per call.
SINR_REF_COEFF = 4.86e-14

# A draw fills its complex array through one float scratch of at most this
# many entries: 64 KiB, which the allocator reuses from its heap. The stream's
# numbers are taken in order, chunk after chunk, so the bits do not depend on
# the chunk size.
DRAW_CHUNK = 8192


@dataclass(frozen=True)
class CellGeometry:
    """Annular cell bounded by the minimum and maximum user distance."""

    u_min: float = 35.0
    u_max: float = 250.0

    def __post_init__(self):
        if not 0.0 < self.u_min < self.u_max:
            raise DomainError(
                f"need 0 < u_min < u_max, got u_min={self.u_min}, u_max={self.u_max}"
            )


@dataclass(frozen=True)
class FreqCorrelation:
    """Exponential power-delay profile with ``taps`` taps.

    Tap l carries power proportional to exp(-decay * l); the taps are mapped
    to the Q subcarriers by a DFT, so taps=1 yields a frequency-flat channel
    and large tap counts approach independent subcarriers.
    """

    taps: int
    decay: float = 1.0

    def __post_init__(self):
        if not isinstance(self.taps, (int, np.integer)) or self.taps < 1:
            raise DomainError(f"taps must be an integer >= 1, got {self.taps!r}")
        if self.decay < 0.0:
            raise DomainError(f"decay must be >= 0, got {self.decay}")
        if not np.isfinite(self.decay):
            raise DomainError(f"decay must be finite, got {self.decay}")


def draw_user_distances(k_users: int, geometry: CellGeometry, rng: np.random.Generator) -> np.ndarray:
    """Distances of ``k_users`` users placed uniformly over the annulus.

    Inverse-CDF sampling of F(u) = (u^2 - u_min^2) / (u_max^2 - u_min^2):
    u = sqrt(u_min^2 + v (u_max^2 - u_min^2)) with v uniform on [0, 1).
    """
    if k_users < 1:
        raise DomainError(f"k_users must be >= 1, got {k_users}")
    v = rng.random(k_users)
    return np.sqrt(geometry.u_min**2 + v * (geometry.u_max**2 - geometry.u_min**2))


def large_scale_fading(u):
    """Linear large-scale fading coefficient at distance ``u`` meters."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0):
        raise DomainError("distances must be positive")
    beta_db = PATHLOSS_INTERCEPT_DB - PATHLOSS_SLOPE_DB * np.log10(u_arr)
    beta = 10.0 ** (beta_db / 10.0)
    return float(beta) if np.isscalar(u) or u_arr.ndim == 0 else beta


def target_sinr(beta, ref_coeff: float = SINR_REF_COEFF):
    """Linear SINR target derived from the large-scale fading coefficient."""
    beta_arr = np.asarray(beta, dtype=float)
    if np.any(beta_arr <= 0.0):
        raise DomainError("large-scale coefficients must be positive")
    if not ref_coeff > 0.0:
        raise DomainError(f"reference coefficient must be positive, got {ref_coeff}")
    gamma_db = 5.0 * np.log10(beta_arr / ref_coeff)
    gamma = 10.0 ** (gamma_db / 10.0)
    return float(gamma) if np.isscalar(beta) or beta_arr.ndim == 0 else gamma


def zf_targets(gamma, noise_power: float, subcarriers: int) -> np.ndarray:
    """The ZF targets (gamma_k / Q)^(1/2) sigma of SINR targets ``gamma``, in its shape.

    ``gamma`` holds linear SINR targets, for one realization (K,) or a block
    (R, K); ``noise_power`` is sigma^2 and ``subcarriers`` is Q. Every
    target and the noise power must be positive and finite, and Q at least 1.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not ((gamma > 0.0) & (gamma < np.inf)).all():
        raise DomainError("all SINR targets must be positive and finite")
    if not 0.0 < noise_power < np.inf:
        raise DomainError(f"noise power must be positive and finite, got {noise_power}")
    if not subcarriers >= 1:
        raise DomainError(f"need at least one subcarrier, got {subcarriers}")
    return np.sqrt(gamma / subcarriers) * np.sqrt(noise_power)


def check_stack(h, d) -> tuple[np.ndarray, np.ndarray]:
    """``h`` and ``d`` as arrays, once they are a block of instances; raises otherwise.

    ``h`` must be a (R, Q, K, M) channel stack with no empty axis, M >= K
    and finite entries, and ``d`` its (R, K) ZF targets, each positive and
    finite. One vectorized pass; a non-finite channel entry is named by its
    stack row.
    """
    h, d = np.asarray(h), np.asarray(d)
    if h.ndim != 4 or not all(h.shape):
        raise DimensionError(
            f"expected a non-empty (R, Q, K, M) channel stack, got shape {h.shape}"
        )
    n, _, k, m = h.shape
    if d.shape != (n, k):
        raise DimensionError(f"ZF targets must have shape (R, K) = ({n}, {k}), got {d.shape}")
    if m < k:
        raise SingularChannelError(f"zero forcing needs M >= K, got M={m}, K={k}", realization=0)
    finite = np.isfinite(h)
    if not finite.all():
        row = int(np.argmin(finite.reshape(n, -1).all(axis=1)))
        raise DomainError(f"instance {row} has a non-finite channel entry")
    if not ((d > 0.0) & (d < np.inf)).all():
        raise DomainError("all ZF targets must be positive and finite")
    return h, d


def _chunks(out):
    """The flat view of the C-contiguous ``out`` and slices covering it, ``DRAW_CHUNK`` each."""
    if not out.flags.c_contiguous:
        raise DimensionError("a channel is drawn into a C-contiguous array")
    flat = out.reshape(-1)
    return flat, [slice(start, start + DRAW_CHUNK) for start in range(0, flat.size, DRAW_CHUNK)]


def _complex_gaussian(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the complex ``out`` with unit-variance circular complex Gaussians.

    The real parts are drawn first, then the imaginary, each chunk into one
    float scratch that is scaled into ``out``, with no complex temporary.
    The bits equal those of ``(rng.standard_normal(shape) + 1j *
    rng.standard_normal(shape)) / np.sqrt(2.0)``, where numpy divides a
    complex by a real as a multiply by its reciprocal.
    """
    flat, chunks = _chunks(out)
    part = np.empty(min(flat.size, DRAW_CHUNK))
    scale = 1.0 / np.sqrt(2.0)
    for dest in (flat.real, flat.imag):
        for chunk in chunks:
            target = dest[chunk]
            drawn = part[:target.size]
            rng.standard_normal(out=drawn)
            np.multiply(drawn, scale, out=target)
    return out


def draw_rayleigh_into(
    out: np.ndarray, beta, rng: np.random.Generator, correlation: FreqCorrelation | None = None
) -> np.ndarray:
    """Uncorrelated-in-space Rayleigh channel H_q = D_beta^(1/2) G_q, written into ``out``.

    ``out`` is a C-contiguous complex (Q, K, M) array, such as one row of a
    channel stack; ``beta`` holds the K large-scale fading coefficients.
    With ``correlation=None`` the Q subcarriers are drawn independently.
    Otherwise each (user, antenna) pair gets an L-tap exponential delay
    profile whose DFT produces correlated subcarriers with per-entry unit
    variance preserved. Returns ``out``.
    """
    subcarriers, k_users, m_antennas = out.shape
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape[0] != k_users:
        raise DimensionError(f"beta has length {beta.shape[0]}, expected {k_users}")
    if np.any(beta <= 0.0):
        raise DomainError("large-scale coefficients must be positive")
    if correlation is None:
        _complex_gaussian(rng, out)
    else:
        taps = correlation.taps
        tap_power = np.exp(-correlation.decay * np.arange(taps))
        tap_power /= tap_power.sum()
        c = _complex_gaussian(rng, np.empty((taps, k_users, m_antennas), dtype=complex))
        c *= np.sqrt(tap_power)[:, None, None]
        # DFT of the delay taps onto the Q subcarriers.
        phase = np.exp(
            -2j * np.pi * np.outer(np.arange(subcarriers), np.arange(taps)) / subcarriers
        )
        out[...] = np.tensordot(phase, c, axes=(1, 0))
    out *= np.sqrt(beta)[None, :, None]
    return out


def draw_los_into(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pure line-of-sight channel written into the C-contiguous complex (Q, K, M) ``out``.

    Unit-modulus entries with phases uniform on [0, 2pi). The uniforms are
    drawn chunk by chunk into one float scratch. Returns ``out``, with the
    bits of ``np.exp(2j * np.pi * rng.random(shape))``.
    """
    flat, chunks = _chunks(out)
    part = np.empty(min(flat.size, DRAW_CHUNK))
    for chunk in chunks:
        target = flat[chunk]
        drawn = part[:target.size]
        rng.random(out=drawn)
        np.multiply(2j * np.pi, drawn, out=target)
    return np.exp(out, out=out)
