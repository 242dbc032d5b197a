import numpy as np
import pytest

from energymimo import BsModel, PaModel, QosTargets
from energymimo.channel import (
    CellGeometry,
    FreqCorrelation,
    draw_los_channel,
    draw_rayleigh_channel,
    draw_user_distances,
    large_scale_fading,
    target_sinr,
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


def draw_cell_instance(m_antennas, k_users, subcarriers, rng, geometry=CellGeometry()):
    """One experiment-scenario draw: targets plus a Rayleigh channel.

    The users come from :func:`draw_cell_beta` on ``rng``, so a fresh
    generator of the same seed gives the instance's beta again.
    """
    beta = draw_cell_beta(k_users, rng, geometry)
    gamma = np.atleast_1d(target_sinr(beta))
    qos = QosTargets(gamma=gamma, noise_power=NOISE_POWER)
    channel = draw_rayleigh_channel(m_antennas, k_users, subcarriers, beta, rng)
    return channel, qos


def draw_realization(cfg, index, k_users=None, subcarriers=0):
    """(beta, gamma, channel, qos) of realization ``index`` of ``cfg``, drawn alone.

    The reference loops build their scenarios here, from the public
    ``channel`` functions, apart from the experiments' block draw. The
    realization draws on the stream seeded by seed + index: its users
    (``k_users``, the scenario's by default), then, with ``subcarriers``,
    its channel; ``channel`` and ``qos`` are None without subcarriers.
    """
    sc = cfg.scenario
    rng = np.random.default_rng(sc.seed + index)
    k_users = k_users or sc.k_users
    beta = large_scale_fading(draw_user_distances(k_users, sc.geometry(), rng))
    gamma = target_sinr(beta, sc.sinr_ref)
    if not subcarriers:
        return beta, gamma, None, None
    qos = QosTargets(gamma=gamma, noise_power=sc.noise_power)
    if sc.channel == "los":
        channel = draw_los_channel(sc.m_antennas, k_users, subcarriers, rng)
    else:
        correlation = FreqCorrelation(sc.freq_taps, sc.freq_decay) if sc.freq_taps else None
        channel = draw_rayleigh_channel(
            sc.m_antennas, k_users, subcarriers, beta, rng, correlation
        )
    return beta, gamma, channel, qos
