import numpy as np
import pytest

from energymimo import BsModel, PaModel
from energymimo.channel import (
    CellGeometry,
    FreqCorrelation,
    draw_los_into,
    draw_rayleigh_into,
    draw_user_distances,
    large_scale_fading,
    target_sinr,
    zf_targets,
)

# Experiment-table defaults: p_max = 1 W, eta_max = 0.22, noise -96 dBm,
# p_fix = 15 W, circuit 0.7 W/antenna, cell 35..250 m.
NOISE_POWER = 10.0 ** (-12.6)


@pytest.fixture(scope="session")
def table_pa() -> PaModel:
    return PaModel(p_max=1.0, eta_max=0.22)


@pytest.fixture(scope="session")
def table_bs() -> BsModel:
    return BsModel(p_fix=15.0, circuit_per_antenna=0.7)


@pytest.fixture(scope="session")
def geometry() -> CellGeometry:
    return CellGeometry(u_min=35.0, u_max=250.0)


def draw_cell_beta(k_users, rng, geometry=CellGeometry()):
    """Large-scale fading of ``k_users`` users dropped in the cell: a draw's first step."""
    return np.atleast_1d(large_scale_fading(draw_user_distances(k_users, geometry, rng)))


def rayleigh(m_antennas, k_users, subcarriers, beta, rng, correlation=None):
    """A (Q, K, M) Rayleigh channel drawn on its own."""
    out = np.empty((subcarriers, k_users, m_antennas), dtype=complex)
    return draw_rayleigh_into(out, beta, rng, correlation)


def los(m_antennas, k_users, subcarriers, rng):
    """A (Q, K, M) unit-modulus LOS channel drawn on its own."""
    return draw_los_into(np.empty((subcarriers, k_users, m_antennas), dtype=complex), rng)


def stack(instances):
    """The (R, Q, K, M) stack and (R, K) targets of a list of one-instance ``(h, d)`` pairs."""
    hs, ds = zip(*instances)
    return np.concatenate(hs), np.concatenate(ds)


def draw_cell_instance(m_antennas, k_users, subcarriers, rng, geometry=CellGeometry()):
    """One experiment-scenario draw as a one-instance block ``(h, d)``.

    ``h`` is the (1, Q, K, M) Rayleigh channel stack and ``d`` its (1, K) ZF
    targets. The users come from :func:`draw_cell_beta` on ``rng``, so a
    fresh generator of the same seed gives the instance's beta again.
    """
    beta = draw_cell_beta(k_users, rng, geometry)
    gamma = np.atleast_1d(target_sinr(beta))
    d = zf_targets(gamma, NOISE_POWER, subcarriers)[None]
    return rayleigh(m_antennas, k_users, subcarriers, beta, rng)[None], d


def draw_realization(cfg, index, k_users=None, subcarriers=0):
    """(beta, gamma, h, d) of realization ``index`` of ``cfg``, drawn alone.

    The reference loops build their scenarios here, from the public
    ``channel`` functions, apart from the experiments' block draw. The
    realization draws on the stream seeded by seed + index: its users
    (``k_users``, the scenario's by default), then, with ``subcarriers``,
    its channel, as the one-instance block of a (1, Q, K, M) stack ``h``
    and its (1, K) ZF targets ``d``; ``h`` and ``d`` are None without
    subcarriers.
    """
    sc = cfg.scenario
    rng = np.random.default_rng(sc.seed + index)
    k_users = k_users or sc.k_users
    beta = large_scale_fading(draw_user_distances(k_users, sc.geometry(), rng))
    gamma = target_sinr(beta, sc.sinr_ref)
    if not subcarriers:
        return beta, gamma, None, None
    d = zf_targets(gamma, sc.noise_power, subcarriers)[None]
    if sc.channel == "los":
        h = los(sc.m_antennas, k_users, subcarriers, rng)
    else:
        correlation = FreqCorrelation(sc.freq_taps, sc.freq_decay) if sc.freq_taps else None
        h = rayleigh(sc.m_antennas, k_users, subcarriers, beta, rng, correlation)
    return beta, gamma, h[None], d
