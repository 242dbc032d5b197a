import numpy as np
import pytest

from energymimo import BsModel, PaModel, QosTargets
from energymimo.channel import CellGeometry, draw_rayleigh_channel, draw_user_distances, large_scale_fading, target_sinr

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


def draw_cell_instance(m_antennas, k_users, subcarriers, rng, geometry=CellGeometry()):
    """One experiment-scenario draw: targets plus a Rayleigh channel."""
    u = draw_user_distances(k_users, geometry, rng)
    beta = np.atleast_1d(large_scale_fading(u))
    gamma = np.atleast_1d(target_sinr(beta))
    qos = QosTargets(gamma=gamma, noise_power=NOISE_POWER, subcarriers=subcarriers)
    channel = draw_rayleigh_channel(m_antennas, k_users, subcarriers, beta, rng)
    return channel, qos
