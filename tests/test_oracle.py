import numpy as np
import pytest

from energymimo import (
    FixedPointConfig,
    QosTargets,
    min_pa_precoders,
    pa_consumed_power,
    single_user_saturating_precoder,
    zf_precoders,
)
from energymimo.channel import draw_los_channel
from energymimo.errors import DomainError, OracleSizeError
from energymimo.oracle import (
    analytic_single_user,
    mc_inverse_wishart_trace,
    solve_min_pa_bruteforce,
)

from conftest import draw_cell_instance


def test_bruteforce_matches_single_user_closed_form(table_pa):
    rng = np.random.default_rng(50)
    channel, qos = draw_cell_instance(5, 1, 1, rng)
    result = solve_min_pa_bruteforce(channel, qos, table_pa, starts=4, rng=rng)
    closed = single_user_saturating_precoder(
        channel.per_subcarrier[0, 0, :], float(qos.gamma[0]), qos.noise_std, np.inf
    )
    assert result.objective == pytest.approx(
        pa_consumed_power(closed.powers, table_pa), rel=1e-5
    )
    assert result.certificate[0] <= 1e-8


def test_bruteforce_los_objective(table_pa):
    rng = np.random.default_rng(51)
    channel = draw_los_channel(4, 1, 2, rng)
    qos = QosTargets(gamma=[5.0], noise_power=2.0, subcarriers=2)
    result = solve_min_pa_bruteforce(channel, qos, table_pa, starts=4, rng=rng)
    expected = table_pa.alpha * np.sqrt(2.0) * np.sqrt(5.0)
    assert result.objective == pytest.approx(expected, rel=1e-6)


def test_bruteforce_matches_fixed_point(table_pa):
    rng = np.random.default_rng(52)
    channel, qos = draw_cell_instance(4, 2, 2, rng)
    solution = min_pa_precoders(
        [channel], [qos], FixedPointConfig(tolerance=1e-11, max_iterations=50_000)
    )
    result = solve_min_pa_bruteforce(channel, qos, table_pa, starts=4, rng=rng)
    assert pa_consumed_power(solution.powers[0], table_pa) == pytest.approx(
        result.objective, rel=1e-3
    )


def test_bruteforce_never_beats_feasibility(table_pa):
    rng = np.random.default_rng(53)
    channel, qos = draw_cell_instance(6, 2, 2, rng)
    result = solve_min_pa_bruteforce(channel, qos, table_pa, starts=2, rng=rng)
    zf = zf_precoders([channel], [qos])
    assert result.objective <= pa_consumed_power(zf.powers[0], table_pa) + 1e-9


def test_bruteforce_size_guard(table_pa):
    rng = np.random.default_rng(54)
    channel, qos = draw_cell_instance(12, 2, 1, rng)
    with pytest.raises(OracleSizeError):
        solve_min_pa_bruteforce(channel, qos, table_pa)
    # explicit override admits the instance
    result = solve_min_pa_bruteforce(channel, qos, table_pa, starts=1, rng=rng, max_m=12)
    assert result.objective > 0.0


def test_bruteforce_deterministic_given_seed(table_pa):
    rng = np.random.default_rng(55)
    channel, qos = draw_cell_instance(4, 2, 2, rng)
    a = solve_min_pa_bruteforce(channel, qos, table_pa, starts=3, rng=np.random.default_rng(9))
    b = solve_min_pa_bruteforce(channel, qos, table_pa, starts=3, rng=np.random.default_rng(9))
    assert np.array_equal(a.powers, b.powers)
    assert a.objective == b.objective


def test_analytic_single_user_guard(table_pa):
    with pytest.raises(DomainError):
        analytic_single_user(
            np.ones(3), QosTargets(gamma=[1.0, 1.0], noise_power=1.0), table_pa
        )


def test_wishart_trace_scalar_gamma_expectation():
    # M=2, K=1, beta=gamma=sigma2=1: mean of 1/Gamma(2,1) = 1/(2-1) = 1.
    rng = np.random.default_rng(56)
    estimate = mc_inverse_wishart_trace(2, 1, [1.0], [1.0], 1.0, 40_000, rng)
    assert estimate == pytest.approx(1.0, rel=0.03)


def test_wishart_trace_identity_m16_k4():
    rng = np.random.default_rng(57)
    beta = np.array([0.5, 1.0, 2.0, 4.0])
    gamma = np.array([3.0, 5.0, 2.0, 8.0])
    estimate = mc_inverse_wishart_trace(16, 4, beta, gamma, 1.0, 10_000, rng)
    expected = float(np.sum(gamma / beta)) / (16 - 4)
    assert estimate == pytest.approx(expected, rel=0.02)


def test_wishart_trace_zero_gamma():
    rng = np.random.default_rng(58)
    assert mc_inverse_wishart_trace(4, 2, [1.0, 1.0], [0.0, 0.0], 1.0, 200, rng) == 0.0


def test_wishart_trace_guards():
    rng = np.random.default_rng(59)
    with pytest.raises(DomainError):
        mc_inverse_wishart_trace(2, 2, [1.0, 1.0], [1.0, 1.0], 1.0, 1000, rng)
    with pytest.raises(DomainError):
        mc_inverse_wishart_trace(4, 2, [1.0, 1.0], [1.0, 1.0], 1.0, 10, rng)
