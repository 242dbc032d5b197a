"""Property tests: covariances, determinism and monotonicity invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energymimo import (
    FixedPointConfig,
    estimate_flops,
    pa_consumed_power,
    solve_quartic_ma,
    solve_stack,
    zf_targets,
)
from energymimo.precoding import los_allocation_precoders

from conftest import draw_cell_instance, los, rayleigh


def _instance(seed, m=6, k=2, q=2):
    """A (1, Q, K, M) unit-variance channel stack and its user's SINR targets."""
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((q, k, m)) + 1j * rng.standard_normal((q, k, m))) / np.sqrt(2)
    gamma = rng.uniform(1.0, 10.0, size=k)
    return h[None], gamma


@given(st.integers(0, 10_000), st.floats(0.1, 100.0))
@settings(max_examples=20, deadline=None)
def test_scale_covariance_of_fixed_point(seed, scale):
    """Scaling sigma_nu by c scales every precoding entry by c."""
    channel, gamma = _instance(seed)
    base = zf_targets(gamma, 1.0, 2)[None]
    scaled = zf_targets(gamma, scale**2, 2)[None]
    # tolerance and dead floor are absolute powers: scale them along
    cfg = FixedPointConfig(tolerance=1e-8, max_iterations=20_000)
    cfg_scaled = FixedPointConfig(
        tolerance=1e-8 * scale**2,
        max_iterations=20_000,
        dead_antenna_floor=1e-12 * scale**2,
    )
    a = solve_stack(("min_pa",), channel, base, cfg)["min_pa"]
    b = solve_stack(("min_pa",), channel, scaled, cfg_scaled)["min_pa"]
    np.testing.assert_allclose(b.matrices, scale * a.matrices, rtol=1e-7, atol=1e-12)
    np.testing.assert_allclose(b.powers, scale**2 * a.powers, rtol=1e-7, atol=1e-14)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_phase_covariance_of_powers(seed):
    """Unit-modulus row rotations of the channel leave all powers unchanged."""
    channel, gamma = _instance(seed)
    d = zf_targets(np.tile(gamma, (2, 1)), 1.0, 2)
    rng = np.random.default_rng(seed + 1)
    phases = np.exp(2j * np.pi * rng.random(channel.shape[2]))
    rotated = phases[None, None, :, None] * channel
    for name in ("zf", "min_pa"):
        a, b = solve_stack((name,), np.concatenate([channel, rotated]), d)[name].powers
        np.testing.assert_allclose(b, a, rtol=1e-9, atol=1e-14)


@given(
    st.integers(1, 32),
    st.floats(1e-3, 1e4),
    st.floats(1e-2, 1e2),
)
@settings(max_examples=100, deadline=None)
def test_quartic_residual_property(k, t, c):
    x = solve_quartic_ma(k, t, c)
    target = t * k / (2.0 * c)
    assert x > k
    assert abs(x * (x - k) ** 3 - target) <= 1e-9 * target


@given(
    st.integers(1, 8),
    st.integers(1, 64),
    st.integers(1, 128),
    st.integers(1, 50),
)
@settings(max_examples=60, deadline=None)
def test_flops_monotone_in_each_argument(k, m, q, i):
    for system in ("wideband", "narrowband", "asymptotic"):
        for solver in ("proposed", "conventional"):
            base = estimate_flops(system, solver, k, m, q, i)
            assert estimate_flops(system, solver, k + 1, m, q, i) >= base
            assert estimate_flops(system, solver, k, m + 1, q, i) >= base
            assert estimate_flops(system, solver, k, m, q + 1, i) >= base
            assert estimate_flops(system, solver, k, m, q, i + 1) >= base


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_los_consumption_invariant_to_weights(table_pa, seed):
    rng = np.random.default_rng(seed)
    channel = los(5, 1, 3, rng)[None]
    w = rng.random(5) + 1e-3
    w /= w.sum()
    sol = los_allocation_precoders(channel, zf_targets([[6.0]], 1.0, 3), w[None])
    assert pa_consumed_power(sol.powers[0], table_pa) == pytest.approx(
        table_pa.alpha * np.sqrt(6.0), rel=1e-12
    )


def test_channel_draw_determinism():
    a = rayleigh(8, 2, 4, np.ones(2), np.random.default_rng(123))
    b = rayleigh(8, 2, 4, np.ones(2), np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_solver_determinism_by_seed():
    rng1 = np.random.default_rng(77)
    rng2 = np.random.default_rng(77)
    s1 = solve_stack(("min_pa",), *draw_cell_instance(8, 2, 2, rng1))["min_pa"]
    s2 = solve_stack(("min_pa",), *draw_cell_instance(8, 2, 2, rng2))["min_pa"]
    assert np.array_equal(s1.powers, s2.powers)
    assert np.array_equal(s1.matrices, s2.matrices)
    assert np.array_equal(s1.iterations, s2.iterations)


def test_wideband_power_spread_shrinks_with_q():
    """Converged powers become more uniform as the subcarrier count grows."""
    cvs = {}
    for q in (4, 256):
        rng = np.random.default_rng(4242)
        powers = solve_stack(("min_pa",), *draw_cell_instance(32, 4, q, rng))["min_pa"].powers[0]
        cvs[q] = float(np.std(powers) / np.mean(powers))
    assert cvs[256] < cvs[4]
