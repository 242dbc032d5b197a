import numpy as np
import pytest

from energymimo import PaModel, channel, los_allocation_precoders, solve_stack
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
from energymimo.errors import DimensionError, DomainError, SingularChannelError
from energymimo.oracle import analytic_single_user, solve_min_pa_bruteforce_block
from energymimo.precoding import SOLVERS

from conftest import los, rayleigh


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
    h = rayleigh(50, 2, 1000, np.ones(2), rng)
    var = np.mean(np.abs(h) ** 2)
    assert var == pytest.approx(1.0, rel=0.02)


def test_rayleigh_scaling_by_beta():
    rng = np.random.default_rng(12)
    h = rayleigh(1, 1, 10_000, [4.0], rng)
    assert np.mean(np.abs(h) ** 2) == pytest.approx(4.0, rel=0.05)


def test_rayleigh_row_scaling_matches_beta():
    rng = np.random.default_rng(13)
    beta = np.array([0.5, 2.0, 8.0])
    h = rayleigh(64, 3, 64, beta, rng)
    row_var = np.mean(np.abs(h) ** 2, axis=(0, 2))
    assert row_var == pytest.approx(beta, rel=0.08)


def test_rayleigh_spatial_whiteness():
    rng = np.random.default_rng(14)
    g = rayleigh(8, 1, 10_000, [1.0], rng)[:, 0, :]
    cov = g.conj().T @ g / g.shape[0]
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 0.05


def test_flat_profile_gives_identical_subcarriers():
    rng = np.random.default_rng(15)
    h = rayleigh(4, 2, 16, np.ones(2), rng, FreqCorrelation(taps=1))
    assert np.allclose(h, h[0])


def test_correlated_profile_keeps_unit_variance_and_correlates():
    rng = np.random.default_rng(16)
    h = rayleigh(16, 4, 64, np.ones(4), rng, FreqCorrelation(taps=4, decay=1.0))
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.05)
    adjacent = np.mean(h[:-1] * np.conj(h[1:])) / np.mean(np.abs(h) ** 2)
    assert abs(adjacent) > 0.8


def test_los_channel_unit_modulus():
    rng = np.random.default_rng(17)
    h = los(4, 1, 3, rng)
    assert np.allclose(np.abs(h), 1.0)
    assert np.sum(np.abs(h[0, 0]) ** 2) == pytest.approx(4.0)


def test_zf_targets_split_gamma_over_the_subcarriers():
    d = zf_targets([2.0, 4.0], 1e-12, 1)
    assert d == pytest.approx([np.sqrt(2.0) * 1e-6, 2e-6])
    gamma = np.array([[2.0, 5.0], [3.0, 7.0]])
    assert np.array_equal(zf_targets(gamma, 0.5, 4), np.sqrt(gamma / 4) * np.sqrt(0.5))


@pytest.mark.parametrize(
    "gamma, noise_power",
    [
        ([0.0], 1.0),
        ([-1.0], 1.0),
        ([np.nan], 1.0),
        ([2.0, np.nan], 1.0),
        ([np.inf], 1.0),
        ([1.0], 0.0),
        ([1.0], -1.0),
        ([1.0], np.nan),
        ([1.0], np.inf),
    ],
)
def test_zf_targets_refuse_bad_gamma_or_noise(gamma, noise_power):
    # Refused before any square root is taken: a RuntimeWarning fails the test.
    with pytest.raises(DomainError, match="positive and finite"):
        zf_targets(gamma, noise_power, 4)


_ONES = np.ones((2, 1, 1, 3), dtype=complex)
_TARGETS = np.ones((2, 1))
_NOT_4D = "expected a non-empty (R, Q, K, M) channel stack, got shape "
_BAD_TARGETS = "all ZF targets must be positive and finite"


def _with(entry):
    """The stack of ones with ``entry`` in row 1."""
    h = _ONES.copy()
    h[1, 0, 0, 2] = entry
    return h


REFUSALS = [
    pytest.param(_ONES[0], _TARGETS, DimensionError, _NOT_4D + "(1, 1, 3)", id="3-D"),
    pytest.param(_ONES[:0], _TARGETS[:0], DimensionError, _NOT_4D + "(0, 1, 1, 3)", id="no-R"),
    pytest.param(
        np.ones((2, 0, 1, 3)), _TARGETS, DimensionError, _NOT_4D + "(2, 0, 1, 3)", id="no-Q"
    ),
    pytest.param(
        _ONES, _TARGETS[:1], DimensionError,
        "ZF targets must have shape (R, K) = (2, 1), got (1, 1)", id="d-rows",
    ),
    pytest.param(
        _ONES, _TARGETS[:, 0], DimensionError,
        "ZF targets must have shape (R, K) = (2, 1), got (2,)", id="d-1-D",
    ),
    pytest.param(
        np.ones((2, 1, 3, 2)), np.ones((2, 3)), SingularChannelError,
        "realization 0: zero forcing needs M >= K, got M=2, K=3", id="M<K",
    ),
    pytest.param(
        _with(np.nan), _TARGETS, DomainError, "instance 1 has a non-finite channel entry",
        id="h-nan",
    ),
    pytest.param(
        _with(complex(0.0, -np.inf)), _TARGETS, DomainError,
        "instance 1 has a non-finite channel entry", id="h-inf",
    ),
] + [
    pytest.param(_ONES, np.array([[1.0], [bad]]), DomainError, _BAD_TARGETS, id=f"d-{bad}")
    for bad in (0.0, -1.0, np.nan, np.inf)
]

PA = PaModel(p_max=1.0, eta_max=0.22)
ENTRY_POINTS = {
    "solve_stack": lambda h, d: solve_stack(SOLVERS, h, d),
    "cone_oracle": lambda h, d: solve_min_pa_bruteforce_block(h, d, PA),
    "analytic_oracle": lambda h, d: analytic_single_user(h, d, PA),
    "los_allocation": lambda h, d: los_allocation_precoders(h, d, np.ones((1, 1))),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("h, d, error, message", REFUSALS)
def test_every_entry_point_refuses_a_bad_block_alike(entry, h, d, error, message):
    # The solvers, both consumption oracles and the LOS split share one
    # input check, so each refuses a bad block with the same error and
    # message, before anything else reads it.
    with pytest.raises(error) as raised:
        ENTRY_POINTS[entry](h, d)
    assert type(raised.value) is error
    assert str(raised.value) == message
    if error is SingularChannelError:
        assert raised.value.realization == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"taps": 0},
        {"taps": 2.5},
        {"taps": 3, "decay": -1.0},
        {"taps": 3, "decay": float("nan")},
        {"taps": 3, "decay": float("inf")},
    ],
)
def test_freq_correlation_validation(kwargs):
    with pytest.raises(DomainError):
        FreqCorrelation(**kwargs)
    assert FreqCorrelation(taps=np.int64(3), decay=0.0).taps == 3


def test_geometry_validation():
    with pytest.raises(DomainError):
        CellGeometry(u_min=250.0, u_max=35.0)


def test_rayleigh_beta_length_mismatch():
    rng = np.random.default_rng(19)
    with pytest.raises(DimensionError):
        rayleigh(4, 3, 2, np.ones(2), rng)


def reference_rayleigh(m_antennas, k_users, subcarriers, beta, rng, correlation=None):
    """The Rayleigh draw written with complex temporaries, as one expression per step."""

    def gaussian(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    if correlation is None:
        g = gaussian((subcarriers, k_users, m_antennas))
    else:
        tap_power = np.exp(-correlation.decay * np.arange(correlation.taps))
        tap_power /= tap_power.sum()
        c = gaussian((correlation.taps, k_users, m_antennas))
        c *= np.sqrt(tap_power)[:, None, None]
        phase = np.exp(
            -2j * np.pi * np.outer(np.arange(subcarriers), np.arange(correlation.taps))
            / subcarriers
        )
        g = np.tensordot(phase, c, axes=(1, 0))
    return np.sqrt(beta)[None, :, None] * g


@pytest.mark.parametrize("correlation", [None, FreqCorrelation(3, 0.5), FreqCorrelation(8, 1.0)])
def test_rayleigh_draw_equals_the_complex_expression_bit_for_bit(correlation):
    # The draw scales float buffers into one complex array; its bits, and
    # what it leaves of the stream, are those of the complex expression.
    for seed in range(12):
        for m_antennas, k_users, subcarriers in ((32, 4, 256), (64, 4, 1), (5, 3, 7)):
            beta = np.random.default_rng(1000 + seed).uniform(1e-13, 1e-8, k_users)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            h = rayleigh(m_antennas, k_users, subcarriers, beta, rng, correlation)
            expected = reference_rayleigh(
                m_antennas, k_users, subcarriers, beta, ref_rng, correlation
            )
            assert h.dtype == expected.dtype and h.shape == expected.shape
            assert np.array_equal(h.view(np.uint64), expected.view(np.uint64))
            assert rng.random() == ref_rng.random()


@pytest.mark.parametrize(
    "correlation", [None, FreqCorrelation(3, 0.5)], ids=["independent", "freq_taps"]
)
@pytest.mark.parametrize("chunk", [7, channel.DRAW_CHUNK])
def test_draws_into_a_stack_equal_the_drawn_channels_bit_for_bit(monkeypatch, correlation, chunk):
    # Each row of a (R, Q, K, M) stack is drawn in place, in chunks of 7
    # entries or of the default; its bits, and what it leaves of the stream,
    # are those of the channel drawn on its own by the complex expression.
    m_antennas, k_users, subcarriers = 6, 3, 16
    beta = np.array([1e-9, 4e-10, 2e-11])
    stack = np.full((4, subcarriers, k_users, m_antennas), np.nan, dtype=complex)
    for r, row in enumerate(stack):
        rng, ref_rng = np.random.default_rng(r), np.random.default_rng(r)
        with monkeypatch.context() as patch:
            patch.setattr(channel, "DRAW_CHUNK", chunk)
            if r % 2:
                drawn = draw_los_into(row, rng)
            else:
                drawn = draw_rayleigh_into(row, beta, rng, correlation)
        if r % 2:
            expected = np.exp(2j * np.pi * ref_rng.random((subcarriers, k_users, m_antennas)))
        else:
            expected = reference_rayleigh(
                m_antennas, k_users, subcarriers, beta, ref_rng, correlation
            )
        assert drawn is row
        assert np.array_equal(stack[r].view(np.uint64), expected.view(np.uint64))
        assert rng.random() == ref_rng.random()
    # A strided target would be drawn into a copy, so it is refused.
    with pytest.raises(DimensionError, match="C-contiguous"):
        draw_rayleigh_into(stack[0, :, :, ::2], beta, np.random.default_rng(0))
