import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from energymimo import (
    FixedPointConfig,
    QosTargets,
    pa_consumed_power,
    solve_block,
)
from energymimo.channel import ChannelRealization, draw_los_channel
from energymimo import oracle
from energymimo.errors import DimensionError, DomainError, InfeasibleError, OracleSizeError
from energymimo.oracle import (
    analytic_single_user,
    mc_inverse_wishart_trace,
    solve_min_pa_bruteforce_block,
)

from conftest import draw_cell_instance


def alone(channel, qos, pa, *limits):
    """The block of one instance."""
    return solve_min_pa_bruteforce_block([channel], [qos], pa, *limits)


def test_bruteforce_matches_single_user_closed_form(table_pa):
    rng = np.random.default_rng(50)
    channel, qos = draw_cell_instance(5, 1, 1, rng)
    result = alone(channel, qos, table_pa)
    closed = solve_block(("saturating",), [channel], [qos], p_max=np.inf)["saturating"]
    assert result.objective[0] == pytest.approx(
        pa_consumed_power(closed.powers[0], table_pa), rel=1e-5
    )
    assert result.residual[0] <= 1e-8


def test_bruteforce_los_objective(table_pa):
    rng = np.random.default_rng(51)
    channel = draw_los_channel(4, 1, 2, rng)
    qos = QosTargets(gamma=[5.0], noise_power=2.0)
    result = alone(channel, qos, table_pa)
    expected = table_pa.alpha * np.sqrt(2.0) * np.sqrt(5.0)
    assert result.objective[0] == pytest.approx(expected, rel=1e-6)


def test_bruteforce_matches_fixed_point(table_pa):
    rng = np.random.default_rng(52)
    channel, qos = draw_cell_instance(4, 2, 2, rng)
    solution = solve_block(
        ("min_pa",), [channel], [qos], FixedPointConfig(tolerance=1e-11, max_iterations=50_000)
    )["min_pa"]
    result = alone(channel, qos, table_pa)
    assert pa_consumed_power(solution.powers[0], table_pa) == pytest.approx(
        result.objective[0], rel=1e-3
    )


def test_bruteforce_never_beats_feasibility(table_pa):
    rng = np.random.default_rng(53)
    channel, qos = draw_cell_instance(6, 2, 2, rng)
    result = alone(channel, qos, table_pa)
    zf = solve_block(("zf",), [channel], [qos])["zf"]
    assert result.objective[0] <= pa_consumed_power(zf.powers[0], table_pa) + 1e-9


def test_bruteforce_size_guard(table_pa):
    rng = np.random.default_rng(54)
    channel, qos = draw_cell_instance(12, 2, 1, rng)
    with pytest.raises(OracleSizeError):
        alone(channel, qos, table_pa)
    # explicit override admits the instance
    result = solve_min_pa_bruteforce_block([channel], [qos], table_pa, max_m=12)
    assert result.objective[0] > 0.0


@pytest.mark.parametrize("subcarriers", [1, 2, 4, 8])
def test_bruteforce_certifies_its_optimum(table_pa, subcarriers):
    rng = np.random.default_rng(60 + subcarriers)
    for _ in range(3):
        channel, qos = draw_cell_instance(8, 4, subcarriers, rng)
        result = alone(channel, qos, table_pa)
        residual, gap = result.residual[0], result.gap[0]
        assert 0.0 <= gap <= 1e-8
        assert residual <= 1e-9 * qos.noise_std * np.sqrt(qos.gamma.max() / subcarriers)
        # weak duality: the dual bound lies below every feasible consumption
        bound = result.objective[0] / (1.0 + gap)
        zf = solve_block(("zf",), [channel], [qos])["zf"].powers[0]
        min_pa = solve_block(
            ("min_pa",), [channel], [qos], FixedPointConfig(tolerance=1e-11, max_iterations=50_000)
        )["min_pa"].powers[0]
        assert bound <= pa_consumed_power(zf, table_pa)
        assert bound <= pa_consumed_power(min_pa, table_pa)


def test_bruteforce_scales_with_the_channel(table_pa):
    rng = np.random.default_rng(65)
    channel, qos = draw_cell_instance(6, 3, 2, rng)
    scaled = ChannelRealization(3.7 * channel.per_subcarrier)
    base = alone(channel, qos, table_pa).powers[0]
    powers = alone(scaled, qos, table_pa).powers[0]
    np.testing.assert_allclose(powers, base / 3.7**2, rtol=1e-9, atol=1e-9 * base.max())


def test_bruteforce_square_channel_is_the_inverse(table_pa):
    rng = np.random.default_rng(66)
    channel, qos = draw_cell_instance(3, 3, 2, rng)
    targets = np.diag(np.sqrt(qos.gamma / channel.subcarriers) * qos.noise_std)
    inverse = np.linalg.pinv(channel.per_subcarrier) @ targets
    result = alone(channel, qos, table_pa)
    np.testing.assert_allclose(
        result.powers[0], np.sum(np.abs(inverse) ** 2, axis=(0, 2)), rtol=1e-10
    )


def test_bruteforce_single_user_uses_one_antenna(table_pa):
    rng = np.random.default_rng(67)
    for _ in range(5):
        channel, qos = draw_cell_instance(8, 1, 1, rng)
        powers = alone(channel, qos, table_pa).powers[0]
        strongest = int(np.argmax(np.abs(channel.per_subcarrier[0, 0])))
        assert np.all(np.delete(powers, strongest) <= 1e-12 * powers.sum())


def test_bruteforce_repeated_calls_bit_identical(table_pa):
    rng = np.random.default_rng(55)
    channel, qos = draw_cell_instance(4, 2, 2, rng)
    a = alone(channel, qos, table_pa)
    b = alone(channel, qos, table_pa)
    _assert_same_results(a, [b])


def test_bruteforce_rejects_rank_deficient_channel(table_pa):
    rng = np.random.default_rng(68)
    channel, qos = draw_cell_instance(5, 2, 1, rng)
    h = channel.per_subcarrier.copy()
    h[:, 1] = h[:, 0]
    with pytest.raises(InfeasibleError):
        alone(ChannelRealization(h), qos, table_pa)


def _assert_same_results(block, solos):
    """Row r of ``block`` equals the block of one ``solos[r]``, bit for bit."""
    fields = ("powers", "objective", "residual", "gap")
    assert [len(getattr(block, name)) for name in fields] == [len(solos)] * 4
    for r, solo in enumerate(solos):
        for name in fields:
            assert getattr(solo, name).shape[0] == 1
            assert np.array_equal(getattr(block, name)[r], getattr(solo, name)[0]), (r, name)


@pytest.mark.parametrize("subcarriers", [1, 2, 8])
@pytest.mark.parametrize("k_users", [1, 2, 3, 4])
def test_block_equals_its_solo_solves(table_pa, k_users, subcarriers):
    # Rayleigh and LOS instances alternate in one block of five, M = 2K.
    rng = np.random.default_rng(100 + 10 * k_users + subcarriers)
    m = 2 * k_users
    channels, qos_list = [], []
    for i in range(5):
        channel, qos = draw_cell_instance(m, k_users, subcarriers, rng)
        channels.append(draw_los_channel(m, k_users, subcarriers, rng) if i % 2 else channel)
        qos_list.append(qos)
    solos = [alone(c, q, table_pa) for c, q in zip(channels, qos_list)]
    block = solve_min_pa_bruteforce_block(channels, qos_list, table_pa)
    _assert_same_results(block, solos)


def test_block_instances_leave_at_different_steps(table_pa, monkeypatch):
    rng = np.random.default_rng(81)
    channels, qos_list = zip(*(draw_cell_instance(6, 2, 2, rng) for _ in range(4)))
    solos = [alone(c, q, table_pa) for c, q in zip(channels, qos_list)]
    heights = []  # the stack height of every Newton round
    newton_steps = oracle._newton_steps

    def spy(h, *args):
        heights.append(h.shape[0])
        return newton_steps(h, *args)

    monkeypatch.setattr(oracle, "_newton_steps", spy)
    block = solve_min_pa_bruteforce_block(list(channels), list(qos_list), table_pa)
    _assert_same_results(block, solos)
    # The stack shrinks at more than one round before the last instance ends.
    assert len(set(heights)) >= 3


def test_block_step_cap_stops_only_some_instances(table_pa, monkeypatch):
    # Alone these four need 35, 31, 41 and 35 Newton steps; a cap of 36
    # ends the third uncertified while the others certify first.
    monkeypatch.setattr(oracle, "_MAX_NEWTON_STEPS", 36)
    rng = np.random.default_rng(81)
    channels, qos_list = zip(*(draw_cell_instance(6, 2, 2, rng) for _ in range(4)))
    solos = [alone(c, q, table_pa) for c, q in zip(channels, qos_list)]
    block = solve_min_pa_bruteforce_block(list(channels), list(qos_list), table_pa)
    _assert_same_results(block, solos)
    certified = [bool(gap <= oracle.GAP_TOL) for gap in block.gap]
    assert certified == [True, True, False, True]


def test_block_refuses_oversize_before_any_solve(table_pa, monkeypatch):
    rng = np.random.default_rng(90)
    channels, qos_list = zip(*(draw_cell_instance(12, 2, 1, rng) for _ in range(3)))

    def no_solve(*args):
        raise AssertionError("the guard must refuse the block before any Newton step")

    monkeypatch.setattr(oracle, "_newton_steps", no_solve)
    monkeypatch.setattr(np.linalg, "pinv", no_solve)
    with pytest.raises(OracleSizeError, match=r"\(M=12, K=2, Q=1\) exceeds oracle guard"):
        solve_min_pa_bruteforce_block(list(channels), list(qos_list), table_pa)


def test_block_rank_deficient_instance_raises_its_solo_error(table_pa, monkeypatch):
    rng = np.random.default_rng(91)
    channels, qos_list = map(list, zip(*(draw_cell_instance(5, 2, 1, rng) for _ in range(4))))
    h = channels[2].per_subcarrier.copy()
    h[:, 1] = h[:, 0]
    channels[2] = ChannelRealization(h)
    with pytest.raises(InfeasibleError) as solo:
        alone(channels[2], qos_list[2], table_pa)
    with pytest.raises(InfeasibleError) as in_block:
        solve_min_pa_bruteforce_block(channels, qos_list, table_pa)
    assert str(in_block.value) == str(solo.value)
    assert in_block.value.realization is None

    # In slices of one, the third instance is refused before the first is solved.
    def no_solve(*args):
        raise AssertionError("the rank check must refuse the block before any Newton step")

    monkeypatch.setattr(oracle, "ORACLE_SLICE_BYTES", 1)
    monkeypatch.setattr(oracle, "_newton_steps", no_solve)
    with pytest.raises(InfeasibleError):
        solve_min_pa_bruteforce_block(channels, qos_list, table_pa)


def test_block_memory_grows_with_the_block_by_its_channel_copies_alone(table_pa, monkeypatch):
    # The stack is solved in slices that fit in ORACLE_SLICE_BYTES, 28
    # instances at M=32, K=8, Q=1, so one call on 128 instances peaks above
    # a call on 32 by the block's copies of its channels: the stack and the
    # pseudo-inverses, which the rank check needs before any Newton step.
    # One run over all 128 at once peaked 7.9 MB above, 20 channels' bytes
    # per extra instance; a list of rows and a rescaled list beside the
    # stack read about 3.6.
    rng = np.random.default_rng(93)
    channels, qos_list = zip(*(draw_cell_instance(32, 8, 1, rng) for _ in range(128)))

    def traced(n):
        gc.collect()
        tracemalloc.start()
        try:
            results = solve_min_pa_bruteforce_block(channels[:n], qos_list[:n], table_pa, 32, 8, 1)
            return tracemalloc.get_traced_memory()[1], results
        finally:
            tracemalloc.stop()

    small, _ = traced(32)
    large, sliced = traced(128)
    assert large - small <= 3 * 96 * channels[0].per_subcarrier.nbytes, (small, large)
    # Every slice height gives the same bits.
    monkeypatch.setattr(oracle, "ORACLE_SLICE_BYTES", 1 << 30)
    whole = solve_min_pa_bruteforce_block(channels, qos_list, table_pa, 32, 8, 1)
    for name in ("powers", "objective", "residual", "gap"):
        assert np.array_equal(getattr(sliced, name), getattr(whole, name)), name


def test_block_rejects_inconsistent_inputs(table_pa):
    rng = np.random.default_rng(92)
    channels, qos_list = map(list, zip(*(draw_cell_instance(5, 2, 1, rng) for _ in range(3))))
    with pytest.raises(DimensionError, match="QoS targets cover 3 users"):
        solve_min_pa_bruteforce_block(
            channels, qos_list[:2] + [QosTargets(gamma=[1.0, 2.0, 3.0], noise_power=1.0)],
            table_pa,
        )
    with pytest.raises(DimensionError):
        solve_min_pa_bruteforce_block([], [], table_pa)
    with pytest.raises(DimensionError):
        solve_min_pa_bruteforce_block(channels, qos_list[:2], table_pa)
    other, _ = draw_cell_instance(6, 2, 1, rng)
    with pytest.raises(DimensionError, match="share"):
        solve_min_pa_bruteforce_block(channels[:2] + [other], qos_list, table_pa)


def test_import_does_not_load_scipy():
    probe = "import sys, energymimo; print('scipy' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_analytic_single_user_guard(table_pa):
    qos = QosTargets(gamma=[4.0], noise_power=1.0)
    narrowband = ChannelRealization(np.ones((1, 1, 3), dtype=complex))
    with pytest.raises(DomainError, match="K=1, Q=1"):
        analytic_single_user(
            [ChannelRealization(np.ones((1, 2, 3)))],
            [QosTargets(gamma=[1.0, 1.0], noise_power=1.0)],
            table_pa,
        )
    with pytest.raises(DomainError, match="K=1, Q=1"):
        analytic_single_user([ChannelRealization(np.ones((2, 1, 3)))], [qos], table_pa)
    with pytest.raises(DimensionError, match="share"):
        analytic_single_user(
            [narrowband, ChannelRealization(np.ones((1, 1, 4)))], [qos, qos], table_pa
        )
    with pytest.raises(DimensionError):
        analytic_single_user([narrowband, narrowband], [qos], table_pa)
    with pytest.raises(DimensionError):
        analytic_single_user([], [], table_pa)
    with pytest.raises(InfeasibleError, match="^all-zero channel$"):
        analytic_single_user(
            [narrowband, ChannelRealization(np.zeros((1, 1, 3)))], [qos, qos], table_pa
        )


def test_analytic_block_rows_equal_the_closed_form(table_pa):
    rng = np.random.default_rng(94)
    channels, qos_list = map(list, zip(*(draw_cell_instance(6, 1, 1, rng) for _ in range(7))))
    # A tie between antennas 1 and 4 goes to the lower index.
    h = channels[3].per_subcarrier.copy()
    h[0, 0, 4] = h[0, 0, 1] = 1j * np.abs(h).max() * 2.0
    channels[3] = ChannelRealization(h)
    result = analytic_single_user(channels, qos_list, table_pa)
    assert result.powers.shape == (7, 6)
    for r, (channel, qos) in enumerate(zip(channels, qos_list)):
        gains = np.abs(channel.per_subcarrier[0, 0])
        strongest = int(np.argmax(gains))
        expected = np.zeros(6)
        expected[strongest] = qos.noise_power * qos.gamma[0] / gains[strongest] ** 2
        assert np.array_equal(result.powers[r], expected)
        assert result.objective[r] == table_pa.alpha * np.sqrt(expected[strongest])
        closed = solve_block(("saturating",), [channel], [qos])["saturating"]
        assert result.objective[r] == pytest.approx(
            pa_consumed_power(closed.powers[0], table_pa), rel=1e-12
        )
        solo = analytic_single_user([channel], [qos], table_pa)
        assert np.array_equal(solo.powers[0], result.powers[r])
    assert np.argmax(result.powers[3]) == 1
    assert np.array_equal(result.residual, np.zeros(7))
    assert np.array_equal(result.gap, np.zeros(7))


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
