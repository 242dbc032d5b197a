import numpy as np
import pytest

from energymimo import (
    ChannelRealization,
    FixedPointConfig,
    QosTargets,
    los_allocation_precoder,
    min_pa_precoders,
    pa_consumed_power,
    per_antenna_powers,
    single_user_saturating_precoder,
    zf_precoders,
)
from energymimo.channel import draw_los_channel
from energymimo.errors import DimensionError, DomainError, InfeasibleError, SingularChannelError
from energymimo.model import ACTIVE_POWER_THRESHOLD
from energymimo.precoding import GRAM_CONDITION_LIMIT, ZF_TOLERANCE

from conftest import draw_cell_instance


def narrowband_channel(h_rows):
    h = np.atleast_2d(np.asarray(h_rows, dtype=complex))
    return ChannelRealization(
        per_subcarrier=h[None, :, :], large_scale=np.ones(h.shape[0])
    )


def zf_residual(channel, qos, matrices):
    target = np.zeros((qos.k_users, qos.k_users), dtype=complex)
    np.fill_diagonal(target, np.sqrt(qos.per_subcarrier_gamma) * qos.noise_std)
    prods = channel.per_subcarrier @ matrices
    return float(np.max(np.abs(prods - target[None, :, :])))


def test_zf_scalar_case():
    qos = QosTargets(gamma=[4.0], noise_power=1.0)
    sol = zf_precoders([narrowband_channel([[1.0]])], [qos])
    assert sol.matrices.ravel() == pytest.approx([2.0 + 0.0j])
    assert sol.powers.sum() == pytest.approx(4.0)


def test_zf_two_antenna_pseudo_inverse():
    qos = QosTargets(gamma=[4.0], noise_power=1.0)
    sol = zf_precoders([narrowband_channel([[1.0, 1.0]])], [qos])
    assert sol.matrices.ravel() == pytest.approx([1.0, 1.0])
    assert sol.powers.sum() == pytest.approx(2.0)


def test_zf_residual_on_random_instances():
    rng = np.random.default_rng(21)
    instances = [draw_cell_instance(16, 4, 8, rng) for _ in range(5)]
    sol = zf_precoders(*zip(*instances))
    for r, (channel, qos) in enumerate(instances):
        assert zf_residual(channel, qos, sol.matrices[r]) <= 1e-9
    assert sol.powers == pytest.approx(per_antenna_powers(sol.matrices), rel=1e-10)


def test_zf_rejects_rank_deficient_channel():
    h = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    qos = QosTargets(gamma=[2.0, 2.0], noise_power=1.0)
    with pytest.raises(SingularChannelError):
        zf_precoders([narrowband_channel(h)], [qos])


def test_fixed_point_config_rejects_nan():
    for kwargs in ({"tolerance": float("nan")}, {"dead_antenna_floor": float("nan")}):
        with pytest.raises(DomainError):
            FixedPointConfig(**kwargs)


def test_zf_rejects_underdetermined():
    qos = QosTargets(gamma=[1.0, 1.0], noise_power=1.0)
    with pytest.raises(SingularChannelError):
        zf_precoders([narrowband_channel(np.ones((2, 1)))], [qos])


def test_min_pa_single_user_strongest_antenna():
    # h = [2, 1]: everything lands on the first antenna, p0 = gamma sigma^2 / 4.
    qos = QosTargets(gamma=[4.0], noise_power=1.0)
    cfg = FixedPointConfig(tolerance=1e-12, max_iterations=50_000)
    sol = min_pa_precoders([narrowband_channel([[2.0, 1.0]])], [qos], cfg)
    assert sol.converged[0]
    powers = sol.powers[0]
    assert powers[0] == pytest.approx(1.0, rel=1e-6)
    assert powers[1] <= 1e-9
    assert np.flatnonzero(powers > ACTIVE_POWER_THRESHOLD).tolist() == [0]


def test_min_pa_wideband_los_manifold():
    # For K=1 LOS the optimum satisfies sum_m sqrt(p_m) = sigma sqrt(gamma).
    rng = np.random.default_rng(22)
    channel = draw_los_channel(6, 1, 8, rng)
    qos = QosTargets(gamma=[9.0], noise_power=4.0, subcarriers=8)
    sol = min_pa_precoders([channel], [qos])
    assert sol.converged[0]
    assert np.sum(np.sqrt(sol.powers[0])) == pytest.approx(2.0 * 3.0, rel=1e-4)
    assert zf_residual(channel, qos, sol.matrices[0]) <= 1e-9


def test_min_pa_square_channel_matches_zf():
    # K = M: the ZF point is the only feasible one.
    rng = np.random.default_rng(23)
    channel, qos = draw_cell_instance(3, 3, 1, rng)
    zf = zf_precoders([channel], [qos])
    mp = min_pa_precoders([channel], [qos])
    assert mp.powers == pytest.approx(zf.powers, rel=1e-8)


def test_min_pa_never_worse_than_zf(table_pa):
    rng = np.random.default_rng(24)
    channels, targets = zip(*(draw_cell_instance(12, 3, 2, rng) for _ in range(5)))
    lhs = pa_consumed_power(min_pa_precoders(channels, targets).powers, table_pa)
    rhs = pa_consumed_power(zf_precoders(channels, targets).powers, table_pa)
    assert np.all(lhs <= rhs + 1e-4)


def test_min_pa_honors_iteration_budget():
    qos = QosTargets(gamma=[4.0], noise_power=1.0)
    cfg = FixedPointConfig(tolerance=1e-15, max_iterations=3)
    sol = min_pa_precoders([narrowband_channel([[2.0, 1.9]])], [qos], cfg)
    assert not sol.converged[0]
    assert sol.iterations[0] == 3
    assert sol.residual[0] > 1e-15


def test_min_pa_history_recording():
    qos = QosTargets(gamma=[4.0], noise_power=1.0)
    cfg = FixedPointConfig(record_history=True)
    sol = min_pa_precoders([narrowband_channel([[2.0, 1.0]])], [qos], cfg)
    assert sol.history.shape == (sol.iterations[0] + 1, 2)
    assert np.all(sol.history[0] == 1.0)  # uniform 1 W start
    deltas = np.max(np.abs(sol.history[-1] - sol.history[-2]))
    assert deltas == pytest.approx(sol.residual[0])


def test_min_pa_zf_residual_holds(table_pa):
    rng = np.random.default_rng(25)
    channel, qos = draw_cell_instance(8, 2, 4, rng)
    sol = min_pa_precoders([channel], [qos])
    assert zf_residual(channel, qos, sol.matrices[0]) <= 1e-9


def test_min_pa_narrowband_matches_stacked_core():
    # A K x M matrix is the Q=1 channel stack; its solve alone equals its row
    # in a larger stack.
    rng = np.random.default_rng(26)
    h = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    qos = QosTargets(gamma=[2.0, 3.0], noise_power=1.0)
    direct = min_pa_precoders([narrowband_channel(h)], [qos])
    stacked = min_pa_precoders([narrowband_channel(h.conj()), narrowband_channel(h)], [qos] * 2)
    assert np.array_equal(direct.powers[0], stacked.powers[1])
    with pytest.raises(DimensionError):
        min_pa_precoders(
            [narrowband_channel(h)], [QosTargets(gamma=[2.0, 3.0], noise_power=1.0, subcarriers=4)]
        )


def test_min_pa_narrowband_single_user_closed_form():
    rng = np.random.default_rng(27)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    qos = QosTargets(gamma=[6.0], noise_power=1.0)
    cfg = FixedPointConfig(tolerance=1e-12, max_iterations=50_000)
    iterated = min_pa_precoders([narrowband_channel(h[None, :])], [qos], cfg)
    closed = single_user_saturating_precoder(h, 6.0, 1.0, np.inf)
    assert iterated.powers[0] == pytest.approx(closed.powers, rel=1e-5, abs=1e-9)


def unit_instance(seed, subcarriers, m_antennas=6):
    rng = np.random.default_rng(seed)
    shape = (subcarriers, 2, m_antennas)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    channel = ChannelRealization(per_subcarrier=h, large_scale=np.ones(2))
    return channel, QosTargets(gamma=[2.0, 3.0], noise_power=1.0, subcarriers=subcarriers)


def history_rows(stacked, r):
    """Realization r's rows of a stacked history."""
    lengths = stacked.iterations + 1
    assert len(stacked.history) == lengths.sum()
    start = lengths[:r].sum()
    return stacked.history[start:start + lengths[r]]


def assert_same_row(stacked, r, alone):
    """Row r of a stacked solution equals the R=1 solve ``alone``, history included."""
    for name in ("matrices", "powers", "iterations", "converged", "residual"):
        assert np.array_equal(getattr(stacked, name)[r], getattr(alone, name)[0]), name
    if alone.history is not None:
        assert np.array_equal(history_rows(stacked, r), alone.history)


def groups_by_shape(instances):
    """The instances split into lists of equal channel shape, in first-seen order."""
    groups = {}
    for channel, qos in instances:
        groups.setdefault(channel.per_subcarrier.shape, []).append((channel, qos))
    return list(groups.values())


def test_stacked_min_pa_equals_one_at_a_time():
    # Narrowband instances that prune (seeds 40, 43, 48) and one that needs
    # ~1500 iterations (seed 42) share a stack; the Q=4 ones form another.
    cfg = FixedPointConfig(tolerance=1e-10, max_iterations=300, record_history=True)
    instances = [
        unit_instance(40, 1), unit_instance(44, 4), unit_instance(42, 1),
        unit_instance(43, 1), unit_instance(45, 4), unit_instance(48, 1),
    ]
    narrowband, wideband = groups_by_shape(instances)  # seeds 40, 42, 43, 48 | 44, 45
    stacks = [min_pa_precoders(*zip(*group), cfg) for group in (narrowband, wideband)]
    for group, stacked in zip((narrowband, wideband), stacks):
        assert stacked.matrices.shape[0] == len(group)
        for r, (channel, qos) in enumerate(group):
            alone = min_pa_precoders([channel], [qos], cfg)
            assert_same_row(stacked, r, alone)
            assert zf_residual(channel, qos, alone.matrices[0]) <= ZF_TOLERANCE
    narrow, wide = stacks
    assert not narrow.converged[1]
    assert narrow.iterations[1] == cfg.max_iterations
    fast = [0, 2, 3]
    assert narrow.converged[fast].all() and wide.converged.all()
    iterations = np.concatenate([narrow.iterations[fast], wide.iterations])
    assert np.all(iterations < cfg.max_iterations)
    assert len(set(iterations.tolist())) == len(iterations)
    pruned = narrow.powers[fast]
    assert np.all(np.count_nonzero(pruned == 0.0, axis=1) > 0)
    assert len(set(np.count_nonzero(pruned > ACTIVE_POWER_THRESHOLD, axis=1).tolist())) > 1


def reference_min_pa(channel, qos, cfg):
    """The fixed point as a plain one-realization loop on the active columns."""
    h = channel.per_subcarrier
    q, k, m = h.shape
    rhs = np.zeros((q, k, k), dtype=complex)
    rhs[:, np.arange(k), np.arange(k)] = np.sqrt(qos.per_subcarrier_gamma) * qos.noise_std

    def weighted_zf(active, p):
        quarter = np.sqrt(np.sqrt(p[active]))
        b = h[:, :, active] * quarter[None, None, :]
        chol = np.linalg.cholesky(b @ b.conj().transpose(0, 2, 1))
        x = np.linalg.solve(chol.conj().transpose(0, 2, 1), np.linalg.solve(chol, rhs))
        return (b.conj().transpose(0, 2, 1) @ x) * quarter[None, :, None]

    p = np.full(m, 1.0)
    active = np.ones(m, dtype=bool)
    for iterations in range(1, cfg.max_iterations + 1):
        dying = active & (p < cfg.dead_antenna_floor)
        p[dying] = 0.0
        active[dying] = False
        p_new = np.zeros(m)
        p_new[active] = np.sum(np.abs(weighted_zf(active, p)) ** 2, axis=(0, 2))
        residual = float(np.max(np.abs(p_new - p)))
        p = p_new
        if residual <= cfg.tolerance:
            break
    w = np.zeros((q, m, k), dtype=complex)
    w[:, active, :] = weighted_zf(active, p)
    return w, iterations, residual


def test_stacked_min_pa_equals_reference_loop():
    # The kernel runs over all M antennas, the loop over the active columns
    # only. For K >= 2 a dead antenna's zero column adds exact zeros to
    # zgemm's sequential sums, so the two agree to the bit. For K = 1 the
    # Gram is a BLAS dot whose multi-accumulator rounding moves with the zero
    # columns, by a few eps of the largest entry; the discrete outcome stays
    # equal. Runs cut off by the iteration budget are included.
    rng = np.random.default_rng(39)
    instances = [draw_cell_instance(12, 1, 8, rng) for _ in range(3)]
    instances += [draw_cell_instance(16, 3, 1, rng) for _ in range(3)]
    instances += [draw_cell_instance(10, 2, 4, rng) for _ in range(2)]
    eps = np.finfo(float).eps
    for cfg in (FixedPointConfig(), FixedPointConfig(max_iterations=40)):
        for group in groups_by_shape(instances):
            stacked = min_pa_precoders(*zip(*group), cfg)
            for r, (channel, qos) in enumerate(group):
                w, iterations, residual = reference_min_pa(channel, qos, cfg)
                powers = per_antenna_powers(w)
                assert stacked.iterations[r] == iterations
                assert stacked.converged[r] == (residual <= cfg.tolerance)
                assert np.array_equal(
                    stacked.powers[r] > ACTIVE_POWER_THRESHOLD, powers > ACTIVE_POWER_THRESHOLD
                )
                if channel.k_users > 1:
                    assert np.array_equal(stacked.matrices[r], w)
                    assert stacked.residual[r] == residual
                else:
                    assert np.abs(stacked.matrices[r] - w).max() <= 16 * eps * np.abs(w).max()
                    assert abs(stacked.residual[r] - residual) <= 16 * eps * powers.max()


def test_zf_is_the_fixed_points_first_iterate():
    # Zero forcing is the weighted-ZF kernel at the fixed point's uniform
    # start, so its powers are the first iterate, bit for bit, K=1 included.
    instances = [
        draw_cell_instance(12, 1, 8, np.random.default_rng(3)),
        draw_cell_instance(64, 1, 1, np.random.default_rng(4)),
        draw_cell_instance(16, 3, 1, np.random.default_rng(5)),
        draw_cell_instance(10, 2, 4, np.random.default_rng(6)),
        draw_cell_instance(12, 1, 8, np.random.default_rng(7)),
    ]
    cfg = FixedPointConfig(max_iterations=1, record_history=True)
    for group in groups_by_shape(instances):
        channels, targets = zip(*group)
        first = min_pa_precoders(channels, targets, cfg)
        # Each realization's history is its start and then its first iterate.
        assert np.array_equal(zf_precoders(channels, targets).powers, first.history[1::2])


def test_stacked_zf_equals_one_at_a_time():
    rng = np.random.default_rng(37)
    instances = [draw_cell_instance(8, 2, q, rng) for q in (1, 3, 1, 3, 1)]
    for group in groups_by_shape(instances):
        stacked = zf_precoders(*zip(*group))
        for r, (channel, qos) in enumerate(group):
            assert_same_row(stacked, r, zf_precoders([channel], [qos]))


def test_condition_guard_is_per_realization():
    # A weak, nearly collinear pair of users next to a strong, well-spread
    # pair: each passes the guard alone, a guard pooled over both would not.
    rng = np.random.default_rng(36)

    def gaussian(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    g = gaussian((1, 2, 8))
    g[0, 1] = g[0, 0] + 1e-4 * gaussian(8)
    weak = ChannelRealization(
        per_subcarrier=np.sqrt(1e-13) * g, large_scale=np.full(2, 1e-13)
    )
    strong = ChannelRealization(
        per_subcarrier=np.sqrt(1e-7) * gaussian((1, 2, 8)),
        large_scale=np.full(2, 1e-7),
    )
    pooled = np.concatenate([
        np.abs(np.diagonal(np.linalg.cholesky(h @ h.conj().transpose(0, 2, 1)), axis1=1, axis2=2))
        for h in (weak.per_subcarrier, strong.per_subcarrier)
    ], axis=None)
    assert (pooled.max() / pooled.min()) ** 2 > GRAM_CONDITION_LIMIT

    qos = QosTargets(gamma=[4.0, 6.0], noise_power=10.0 ** (-12.6))
    cfg = FixedPointConfig(max_iterations=50)
    channels = [weak, strong, weak]
    stacked = min_pa_precoders(channels, [qos] * 3, cfg)
    for r, channel in enumerate(channels):
        assert_same_row(stacked, r, min_pa_precoders([channel], [qos], cfg))
    stacked = zf_precoders(channels, [qos] * 3)
    for r, channel in enumerate(channels):
        assert_same_row(stacked, r, zf_precoders([channel], [qos]))


def test_stacked_errors_name_the_realization():
    rng = np.random.default_rng(38)
    good, qos = draw_cell_instance(4, 2, 1, rng)
    deficient = narrowband_channel(np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]]))
    for solve in (zf_precoders, min_pa_precoders):
        with pytest.raises(SingularChannelError) as err:
            solve([good, good, deficient, good], [qos] * 4)
        assert err.value.realization == 2
        assert str(err.value).startswith("realization 2: ")
    with pytest.raises(DimensionError):
        min_pa_precoders([good, good], [qos])


def test_stacked_solvers_need_one_channel_shape_and_dtype():
    rng = np.random.default_rng(38)
    narrow, qos = draw_cell_instance(6, 2, 1, rng)
    other_m, _ = draw_cell_instance(7, 2, 1, rng)
    wide, wide_qos = draw_cell_instance(6, 2, 3, rng)
    single = ChannelRealization(
        per_subcarrier=narrow.per_subcarrier.astype(np.complex64),
        large_scale=narrow.large_scale,
    )
    for solve in (zf_precoders, min_pa_precoders):
        for channels, targets in (
            ([narrow, other_m], [qos, qos]),
            ([narrow, wide], [qos, wide_qos]),
            ([narrow, single], [qos, qos]),
            ([], []),
        ):
            with pytest.raises(DimensionError):
                solve(channels, targets)


def test_error_names_the_realization_after_others_converge():
    # The two unit-noise instances reach their exact 1 W ZF powers at
    # iteration 1 and leave the working set; the faint one then loses every
    # antenna to the floor, and the error still names its list position.
    eye = narrowband_channel(np.eye(2))
    unit = QosTargets(gamma=[1.0, 1.0], noise_power=1.0)
    faint = QosTargets(gamma=[1.0, 1.0], noise_power=1e-6)
    cfg = FixedPointConfig(dead_antenna_floor=1e-3)
    with pytest.raises(SingularChannelError) as err:
        min_pa_precoders([eye, eye, eye], [unit, unit, faint], cfg)
    assert err.value.realization == 2


def test_single_user_narrowband_examples():
    # Without a cap the saturating precoder is the narrowband optimum.
    sol = single_user_saturating_precoder([1.0], 4.0, 1.0, np.inf)
    assert sol.matrices.ravel() == pytest.approx([2.0])
    sol2 = single_user_saturating_precoder([2.0, 1.0], 4.0, 1.0, np.inf)
    assert sol2.powers == pytest.approx([1.0, 0.0])
    tie = single_user_saturating_precoder([1.0, 1.0], 4.0, 1.0, np.inf)
    assert np.flatnonzero(tie.powers).tolist() == [0]
    # selecting the other tied antenna consumes exactly the same power
    manual = np.zeros(2, dtype=complex)
    manual[1] = 2.0
    assert np.sqrt(tie.powers.sum()) == pytest.approx(
        np.sqrt(per_antenna_powers(manual[None, :, None]).sum())
    )
    with pytest.raises(InfeasibleError):
        single_user_saturating_precoder([0.0, 0.0], 4.0, 1.0, np.inf)
    with pytest.raises(DimensionError):
        single_user_saturating_precoder(np.ones((2, 2)), 4.0, 1.0, np.inf)


def test_saturating_matches_unconstrained_when_slack():
    rng = np.random.default_rng(28)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    free = single_user_saturating_precoder(h, 2.0, 0.5, np.inf)
    capped = single_user_saturating_precoder(h, 2.0, 0.5, p_max=1e9)
    assert capped.powers == pytest.approx(free.powers)


def test_saturating_partial_fill():
    # target 1.5 with unit gains: one saturated antenna plus p = 0.25.
    sol = single_user_saturating_precoder([1.0, 1.0], gamma=2.25, noise_std=1.0, p_max=1.0)
    assert np.sort(sol.powers)[::-1] == pytest.approx([1.0, 0.25])
    assert np.max(sol.powers) <= 1.0


def test_saturating_boundary_uses_all_antennas():
    # sum |h| sqrt(p_max) equals the target exactly.
    sol = single_user_saturating_precoder([1.0, 2.0], gamma=9.0, noise_std=1.0, p_max=1.0)
    assert sol.powers == pytest.approx([1.0, 1.0])


def test_saturating_infeasible_reports_deficit():
    with pytest.raises(InfeasibleError) as err:
        single_user_saturating_precoder([1.0], gamma=9.0, noise_std=1.0, p_max=1.0)
    assert err.value.deficit == pytest.approx(2.0)


def test_saturating_meets_qos():
    rng = np.random.default_rng(29)
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    gamma, sigma = 4.0, 1.0  # several antennas needed, still feasible
    sol = single_user_saturating_precoder(h, gamma, sigma, p_max=1.0)
    achieved = abs(h @ sol.matrices[0, :, 0])
    assert achieved == pytest.approx(sigma * np.sqrt(gamma), rel=1e-12)
    assert np.max(sol.powers) <= 1.0 + 1e-15
    assert np.count_nonzero(sol.powers) > 1


def test_los_allocation_corner_and_uniform():
    rng = np.random.default_rng(30)
    channel = draw_los_channel(4, 1, 2, rng)
    gamma, sigma = 5.0, 2.0
    corner = np.zeros(4)
    corner[0] = 1.0
    sol = los_allocation_precoder(channel, gamma, sigma, corner)
    assert sol.powers[0] == pytest.approx(sigma**2 * gamma)
    assert sol.powers[1:] == pytest.approx(np.zeros(3))
    uniform = los_allocation_precoder(channel, gamma, sigma, np.full(4, 0.25))
    assert uniform.powers == pytest.approx(np.full(4, sigma**2 * gamma / 16.0))


def test_los_allocation_invariant_consumption(table_pa):
    rng = np.random.default_rng(31)
    channel = draw_los_channel(6, 1, 4, rng)
    gamma, sigma = 7.0, 1.5
    rng2 = np.random.default_rng(32)
    values = []
    for _ in range(4):
        w = rng2.random(6)
        w /= w.sum()
        sol = los_allocation_precoder(channel, gamma, sigma, w)
        values.append(pa_consumed_power(sol.powers, table_pa))
    expected = table_pa.alpha * sigma * np.sqrt(gamma)
    for v in values:
        assert v == pytest.approx(expected, rel=1e-12)


def test_los_allocation_rejects_bad_inputs():
    rng = np.random.default_rng(33)
    channel = draw_los_channel(3, 1, 2, rng)
    with pytest.raises(DomainError):
        los_allocation_precoder(channel, 2.0, 1.0, [0.5, 0.2, 0.2])
    with pytest.raises(DomainError):
        los_allocation_precoder(channel, 2.0, 1.0, [1.5, -0.25, -0.25])
    bad = ChannelRealization(
        per_subcarrier=np.full((1, 1, 3), 2.0 + 0j), large_scale=np.ones(1)
    )
    with pytest.raises(DomainError):
        los_allocation_precoder(bad, 2.0, 1.0, np.full(3, 1 / 3))


def test_los_allocation_meets_per_subcarrier_qos():
    rng = np.random.default_rng(34)
    channel = draw_los_channel(5, 1, 8, rng)
    gamma, sigma = 4.0, 1.0
    w = np.full(5, 0.2)
    sol = los_allocation_precoder(channel, gamma, sigma, w)
    prods = channel.per_subcarrier @ sol.matrices
    assert np.allclose(np.abs(prods), sigma * np.sqrt(gamma / 8.0), rtol=1e-12)


def test_qos_channel_mismatch_raises():
    rng = np.random.default_rng(35)
    channel, _ = draw_cell_instance(4, 2, 2, rng)
    with pytest.raises(DimensionError):
        zf_precoders([channel], [QosTargets(gamma=[1.0], noise_power=1.0, subcarriers=2)])
    with pytest.raises(DimensionError):
        zf_precoders([channel], [QosTargets(gamma=[1.0, 2.0], noise_power=1.0, subcarriers=8)])
