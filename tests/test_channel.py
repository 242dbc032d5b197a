import numpy as np
import pytest

from energymimo import QosTargets
from energymimo.channel import (
    CellGeometry,
    FreqCorrelation,
    draw_los_channel,
    draw_rayleigh_channel,
    draw_user_distances,
    large_scale_fading,
    target_sinr,
)
from energymimo.errors import DimensionError, DomainError


class _FixedRng:
    """Stub generator returning preset uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        assert n == len(self.values)
        return self.values


def test_distance_inverse_cdf_edges(geometry):
    lo = draw_user_distances(1, geometry, _FixedRng([0.0]))
    assert lo[0] == pytest.approx(35.0)
    hi = draw_user_distances(1, geometry, _FixedRng([1.0 - 1e-12]))
    assert hi[0] == pytest.approx(250.0, rel=1e-9)


def test_distance_inverse_cdf_median(geometry):
    # sqrt(35^2 + 0.5 (250^2 - 35^2)) = 178.50 m
    mid = draw_user_distances(1, geometry, _FixedRng([0.5]))
    assert mid[0] == pytest.approx(178.50, abs=5e-3)


def test_distance_distribution_ks(geometry):
    rng = np.random.default_rng(7)
    u = np.sort(draw_user_distances(10_000, geometry, rng))
    cdf = (u**2 - 35.0**2) / (250.0**2 - 35.0**2)
    empirical = np.arange(1, u.size + 1) / u.size
    ks = np.max(np.abs(empirical - cdf))
    assert ks < 0.02


def test_large_scale_fading_values():
    assert 10.0 * np.log10(large_scale_fading(1.0)) == pytest.approx(-35.3)
    assert 10.0 * np.log10(large_scale_fading(35.0)) == pytest.approx(-93.36, abs=5e-3)
    assert 10.0 * np.log10(large_scale_fading(250.0)) == pytest.approx(-125.46, abs=5e-3)
    with pytest.raises(DomainError):
        large_scale_fading(0.0)


def test_target_sinr_reference_point():
    assert target_sinr(4.86e-14) == pytest.approx(1.0)


def test_target_sinr_rejects_non_positive_reference():
    for ref_coeff in (0.0, -4.86e-14):
        with pytest.raises(DomainError, match="reference coefficient"):
            target_sinr(1e-10, ref_coeff)


def test_target_sinr_range_and_monotonicity():
    beta_near = large_scale_fading(35.0)
    beta_far = large_scale_fading(250.0)
    near_db = 10.0 * np.log10(target_sinr(beta_near))
    far_db = 10.0 * np.log10(target_sinr(beta_far))
    assert near_db == pytest.approx(19.89, abs=0.02)
    assert far_db == pytest.approx(3.84, abs=0.02)
    assert target_sinr(beta_near) > target_sinr(beta_far)


def test_rayleigh_unit_variance():
    rng = np.random.default_rng(11)
    ch = draw_rayleigh_channel(50, 2, 1000, np.ones(2), rng)
    var = np.mean(np.abs(ch.per_subcarrier) ** 2)
    assert var == pytest.approx(1.0, rel=0.02)


def test_rayleigh_scaling_by_beta():
    rng = np.random.default_rng(12)
    ch = draw_rayleigh_channel(1, 1, 10_000, [4.0], rng)
    assert np.mean(np.abs(ch.per_subcarrier) ** 2) == pytest.approx(4.0, rel=0.05)


def test_rayleigh_row_scaling_matches_beta():
    rng = np.random.default_rng(13)
    beta = np.array([0.5, 2.0, 8.0])
    ch = draw_rayleigh_channel(64, 3, 64, beta, rng)
    row_var = np.mean(np.abs(ch.per_subcarrier) ** 2, axis=(0, 2))
    assert row_var == pytest.approx(beta, rel=0.08)


def test_rayleigh_spatial_whiteness():
    rng = np.random.default_rng(14)
    ch = draw_rayleigh_channel(8, 1, 10_000, [1.0], rng)
    g = ch.per_subcarrier[:, 0, :]
    cov = g.conj().T @ g / g.shape[0]
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 0.05


def test_flat_profile_gives_identical_subcarriers():
    rng = np.random.default_rng(15)
    ch = draw_rayleigh_channel(4, 2, 16, np.ones(2), rng, FreqCorrelation(taps=1))
    assert np.allclose(ch.per_subcarrier, ch.per_subcarrier[0])


def test_correlated_profile_keeps_unit_variance_and_correlates():
    rng = np.random.default_rng(16)
    ch = draw_rayleigh_channel(16, 4, 64, np.ones(4), rng, FreqCorrelation(taps=4, decay=1.0))
    h = ch.per_subcarrier
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.05)
    adjacent = np.mean(h[:-1] * np.conj(h[1:])) / np.mean(np.abs(h) ** 2)
    assert abs(adjacent) > 0.8


def test_los_channel_unit_modulus():
    rng = np.random.default_rng(17)
    ch = draw_los_channel(4, 1, 3, rng)
    assert np.allclose(np.abs(ch.per_subcarrier), 1.0)
    assert np.sum(np.abs(ch.per_subcarrier[0, 0]) ** 2) == pytest.approx(4.0)


def test_los_channel_phase_zero_option():
    rng = np.random.default_rng(18)
    ch = draw_los_channel(3, 2, 2, rng, random_phases=False)
    assert np.allclose(ch.per_subcarrier, 1.0)


def test_qos_targets_validation():
    qos = QosTargets(gamma=[2.0, 4.0], noise_power=1e-12, subcarriers=4)
    assert qos.k_users == 2
    assert qos.per_subcarrier_gamma == pytest.approx([0.5, 1.0])
    assert qos.noise_std == pytest.approx(1e-6)
    with pytest.raises(DomainError):
        QosTargets(gamma=[0.0], noise_power=1.0)
    with pytest.raises(DomainError):
        QosTargets(gamma=[1.0], noise_power=0.0)
    with pytest.raises(DomainError):
        QosTargets(gamma=[1.0], noise_power=1.0, subcarriers=0)


def test_geometry_validation():
    with pytest.raises(DomainError):
        CellGeometry(u_min=250.0, u_max=35.0)


def test_rayleigh_beta_length_mismatch():
    rng = np.random.default_rng(19)
    with pytest.raises(DimensionError):
        draw_rayleigh_channel(4, 3, 2, np.ones(2), rng)
