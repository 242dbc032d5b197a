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
    pa_consumed_power,
    solve_stack,
    zf_targets,
)
from energymimo import oracle
from energymimo.errors import DimensionError, DomainError, InfeasibleError, OracleSizeError
from energymimo.oracle import (
    analytic_single_user,
    mc_inverse_wishart_trace,
    solve_min_pa_bruteforce_block,
)
from energymimo.precoding import SOLVERS, Workspace

from conftest import draw_cell_instance, los, stack


def alone(h, d, pa, *limits):
    """The cone oracle on a one-instance block."""
    return solve_min_pa_bruteforce_block(h, d, pa, *limits)


def test_bruteforce_matches_single_user_closed_form(table_pa):
    rng = np.random.default_rng(50)
    h, d = draw_cell_instance(5, 1, 1, rng)
    result = alone(h, d, table_pa)
    closed = solve_stack(("saturating",), h, d, p_max=np.inf)["saturating"]
    assert result.objective[0] == pytest.approx(
        pa_consumed_power(closed.powers[0], table_pa), rel=1e-5
    )
    assert result.residual[0] <= 1e-8


def test_bruteforce_los_objective(table_pa):
    rng = np.random.default_rng(51)
    h = los(4, 1, 2, rng)[None]
    result = alone(h, zf_targets([[5.0]], 2.0, 2), table_pa)
    expected = table_pa.alpha * np.sqrt(2.0) * np.sqrt(5.0)
    assert result.objective[0] == pytest.approx(expected, rel=1e-6)


def test_bruteforce_matches_fixed_point(table_pa):
    rng = np.random.default_rng(52)
    h, d = draw_cell_instance(4, 2, 2, rng)
    solution = solve_stack(
        ("min_pa",), h, d, FixedPointConfig(tolerance=1e-11, max_iterations=50_000)
    )["min_pa"]
    result = alone(h, d, table_pa)
    assert pa_consumed_power(solution.powers[0], table_pa) == pytest.approx(
        result.objective[0], rel=1e-3
    )


def test_bruteforce_never_beats_feasibility(table_pa):
    rng = np.random.default_rng(53)
    h, d = draw_cell_instance(6, 2, 2, rng)
    result = alone(h, d, table_pa)
    zf = solve_stack(("zf",), h, d)["zf"]
    assert result.objective[0] <= pa_consumed_power(zf.powers[0], table_pa) + 1e-9


def test_bruteforce_size_guard(table_pa):
    rng = np.random.default_rng(54)
    h, d = draw_cell_instance(12, 2, 1, rng)
    with pytest.raises(OracleSizeError):
        alone(h, d, table_pa)
    # explicit override admits the instance
    result = solve_min_pa_bruteforce_block(h, d, table_pa, max_m=12)
    assert result.objective[0] > 0.0


@pytest.mark.parametrize("subcarriers", [1, 2, 4, 8])
def test_bruteforce_certifies_its_optimum(table_pa, subcarriers):
    rng = np.random.default_rng(60 + subcarriers)
    for _ in range(3):
        h, d = draw_cell_instance(8, 4, subcarriers, rng)
        result = alone(h, d, table_pa)
        residual, gap = result.residual[0], result.gap[0]
        assert 0.0 <= gap <= 1e-8
        assert residual <= 1e-9 * d.max()
        # weak duality: the dual bound lies below every feasible consumption
        bound = result.objective[0] / (1.0 + gap)
        zf = solve_stack(("zf",), h, d)["zf"].powers[0]
        min_pa = solve_stack(
            ("min_pa",), h, d, FixedPointConfig(tolerance=1e-11, max_iterations=50_000)
        )["min_pa"].powers[0]
        assert bound <= pa_consumed_power(zf, table_pa)
        assert bound <= pa_consumed_power(min_pa, table_pa)


def test_bruteforce_scales_with_the_channel(table_pa):
    rng = np.random.default_rng(65)
    h, d = draw_cell_instance(6, 3, 2, rng)
    base = alone(h, d, table_pa).powers[0]
    powers = alone(3.7 * h, d, table_pa).powers[0]
    np.testing.assert_allclose(powers, base / 3.7**2, rtol=1e-9, atol=1e-9 * base.max())


def test_bruteforce_square_channel_is_the_inverse(table_pa):
    rng = np.random.default_rng(66)
    h, d = draw_cell_instance(3, 3, 2, rng)
    inverse = np.linalg.pinv(h[0]) @ np.diag(d[0])
    result = alone(h, d, table_pa)
    np.testing.assert_allclose(
        result.powers[0], np.sum(np.abs(inverse) ** 2, axis=(0, 2)), rtol=1e-10
    )


def test_bruteforce_single_user_uses_one_antenna(table_pa):
    rng = np.random.default_rng(67)
    for _ in range(5):
        h, d = draw_cell_instance(8, 1, 1, rng)
        powers = alone(h, d, table_pa).powers[0]
        strongest = int(np.argmax(np.abs(h[0, 0, 0])))
        assert np.all(np.delete(powers, strongest) <= 1e-12 * powers.sum())


def test_bruteforce_repeated_calls_bit_identical(table_pa):
    rng = np.random.default_rng(55)
    h, d = draw_cell_instance(4, 2, 2, rng)
    a = alone(h, d, table_pa)
    b = alone(h, d, table_pa)
    _assert_same_results(a, [b])


def test_bruteforce_rejects_rank_deficient_channel(table_pa):
    rng = np.random.default_rng(68)
    h, d = draw_cell_instance(5, 2, 1, rng)
    h[0, :, 1] = h[0, :, 0]
    with pytest.raises(InfeasibleError):
        alone(h, d, table_pa)


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
    instances = []
    for i in range(5):
        h, d = draw_cell_instance(m, k_users, subcarriers, rng)
        instances.append((los(m, k_users, subcarriers, rng)[None] if i % 2 else h, d))
    solos = [alone(h, d, table_pa) for h, d in instances]
    block = solve_min_pa_bruteforce_block(*stack(instances), table_pa)
    _assert_same_results(block, solos)


def test_block_instances_leave_at_different_steps(table_pa, monkeypatch):
    rng = np.random.default_rng(81)
    instances = [draw_cell_instance(6, 2, 2, rng) for _ in range(4)]
    solos = [alone(h, d, table_pa) for h, d in instances]
    heights = []  # the stack height of every Newton round
    newton_steps = oracle._newton_steps

    def spy(h, *args):
        heights.append(h.shape[0])
        return newton_steps(h, *args)

    monkeypatch.setattr(oracle, "_newton_steps", spy)
    block = solve_min_pa_bruteforce_block(*stack(instances), table_pa)
    _assert_same_results(block, solos)
    # The stack shrinks at more than one round before the last instance ends.
    assert len(set(heights)) >= 3


def test_block_step_cap_stops_only_some_instances(table_pa, monkeypatch):
    # Alone these four need 35, 31, 41 and 35 Newton steps; a cap of 36
    # ends the third uncertified while the others certify first.
    monkeypatch.setattr(oracle, "_MAX_NEWTON_STEPS", 36)
    rng = np.random.default_rng(81)
    instances = [draw_cell_instance(6, 2, 2, rng) for _ in range(4)]
    solos = [alone(h, d, table_pa) for h, d in instances]
    block = solve_min_pa_bruteforce_block(*stack(instances), table_pa)
    _assert_same_results(block, solos)
    certified = [bool(gap <= oracle.GAP_TOL) for gap in block.gap]
    assert certified == [True, True, False, True]


def test_block_refuses_oversize_before_any_solve(table_pa, monkeypatch):
    rng = np.random.default_rng(90)
    h, d = stack([draw_cell_instance(12, 2, 1, rng) for _ in range(3)])

    def no_solve(*args):
        raise AssertionError("the guard must refuse the block before any Newton step")

    monkeypatch.setattr(oracle, "_newton_steps", no_solve)
    monkeypatch.setattr(np.linalg, "pinv", no_solve)
    with pytest.raises(OracleSizeError, match=r"\(M=12, K=2, Q=1\) exceeds oracle guard"):
        solve_min_pa_bruteforce_block(h, d, table_pa)


def test_block_rank_deficient_instance_raises_its_solo_error(table_pa, monkeypatch):
    rng = np.random.default_rng(91)
    h, d = stack([draw_cell_instance(5, 2, 1, rng) for _ in range(4)])
    h[2, :, 1] = h[2, :, 0]
    with pytest.raises(InfeasibleError) as solo:
        alone(h[2:3], d[2:3], table_pa)
    with pytest.raises(InfeasibleError) as in_block:
        solve_min_pa_bruteforce_block(h, d, table_pa)
    assert str(in_block.value) == str(solo.value)
    assert in_block.value.realization is None

    # In slices of one, the third instance is refused before the first is solved.
    def no_solve(*args):
        raise AssertionError("the rank check must refuse the block before any Newton step")

    monkeypatch.setattr(oracle, "ORACLE_SLICE_BYTES", 1)
    monkeypatch.setattr(oracle, "_newton_steps", no_solve)
    with pytest.raises(InfeasibleError):
        solve_min_pa_bruteforce_block(h, d, table_pa)


def test_block_memory_grows_with_the_block_by_its_channel_copies_alone(table_pa, monkeypatch):
    # The stack is solved in slices that fit in ORACLE_SLICE_BYTES, 28
    # instances at M=32, K=8, Q=1, so one call on 128 instances peaks above
    # a call on 32 by the block's copies of its channels: the stack and the
    # pseudo-inverses, which the rank check needs before any Newton step.
    # One run over all 128 at once peaked 7.9 MB above, 20 channels' bytes
    # per extra instance; a list of rows and a rescaled list beside the
    # stack read about 3.6.
    rng = np.random.default_rng(93)
    h, d = stack([draw_cell_instance(32, 8, 1, rng) for _ in range(128)])

    def traced(n):
        gc.collect()
        tracemalloc.start()
        try:
            results = solve_min_pa_bruteforce_block(h[:n], d[:n], table_pa, 32, 8, 1)
            return tracemalloc.get_traced_memory()[1], results
        finally:
            tracemalloc.stop()

    small, _ = traced(32)
    large, sliced = traced(128)
    assert large - small <= 3 * 96 * h[0].nbytes, (small, large)
    # Every slice height gives the same bits.
    monkeypatch.setattr(oracle, "ORACLE_SLICE_BYTES", 1 << 30)
    whole = solve_min_pa_bruteforce_block(h, d, table_pa, 32, 8, 1)
    for name in ("powers", "objective", "residual", "gap"):
        assert np.array_equal(getattr(sliced, name), getattr(whole, name)), name


def test_block_rejects_inconsistent_inputs(table_pa):
    # A stack holds one channel shape; targets of another shape than its
    # (R, K), and an empty stack, are refused.
    rng = np.random.default_rng(92)
    h, d = stack([draw_cell_instance(5, 2, 1, rng) for _ in range(3)])
    with pytest.raises(DimensionError, match=r"= \(3, 2\), got \(3, 3\)"):
        solve_min_pa_bruteforce_block(h, np.concatenate([d, d[:, :1]], axis=1), table_pa)
    with pytest.raises(DimensionError):
        solve_min_pa_bruteforce_block(h[:0], d[:0], table_pa)
    with pytest.raises(DimensionError):
        solve_min_pa_bruteforce_block(h, d[:2], table_pa)


def test_solvers_and_oracles_leave_their_inputs_unchanged(table_pa):
    # convergence runs the oracle first and then solve_stack on the same
    # workspace stack, so neither may write the caller's h or d: the cone
    # oracle normalizes a copy of the stack.
    rng = np.random.default_rng(96)
    wide = stack([draw_cell_instance(6, 2, 3, rng) for _ in range(3)])
    narrow = stack([draw_cell_instance(6, 1, 1, rng) for _ in range(3)])
    calls = [
        (wide, lambda h, d: solve_min_pa_bruteforce_block(h, d, table_pa)),
        (wide, lambda h, d: solve_stack(SOLVERS[:2], h, d)),
        (wide, lambda h, d: solve_stack(SOLVERS[:2], h, d, workspace=Workspace())),
        (narrow, lambda h, d: solve_min_pa_bruteforce_block(h, d, table_pa)),
        (narrow, lambda h, d: analytic_single_user(h, d, table_pa)),
        (narrow, lambda h, d: solve_stack(SOLVERS, h, d, p_max=1.0)),
    ]
    for (h, d), call in calls:
        before = h.copy(), d.copy()
        call(h, d)
        assert h.tobytes() == before[0].tobytes() and d.tobytes() == before[1].tobytes()


def test_import_does_not_load_scipy():
    probe = "import sys, energymimo; print('scipy' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_analytic_single_user_guard(table_pa):
    d = zf_targets([[4.0]], 1.0, 1)
    narrowband = np.ones((1, 1, 1, 3), dtype=complex)
    with pytest.raises(DomainError, match="K=1, Q=1"):
        analytic_single_user(np.ones((1, 1, 2, 3)), zf_targets([[1.0, 1.0]], 1.0, 1), table_pa)
    with pytest.raises(DomainError, match="K=1, Q=1"):
        analytic_single_user(np.ones((1, 2, 1, 3)), zf_targets([[4.0]], 1.0, 2), table_pa)
    with pytest.raises(DimensionError):
        analytic_single_user(narrowband.repeat(2, 0), d, table_pa)
    with pytest.raises(DimensionError):
        analytic_single_user(narrowband[:0], d[:0], table_pa)
    with pytest.raises(InfeasibleError, match="^all-zero channel$"):
        analytic_single_user(
            np.concatenate([narrowband, np.zeros((1, 1, 1, 3))]), d.repeat(2, 0), table_pa
        )


def test_analytic_block_rows_equal_the_closed_form(table_pa):
    rng = np.random.default_rng(94)
    h, d = stack([draw_cell_instance(6, 1, 1, rng) for _ in range(7)])
    # A tie between antennas 1 and 4 goes to the lower index.
    h[3, 0, 0, 4] = h[3, 0, 0, 1] = 1j * np.abs(h[3]).max() * 2.0
    result = analytic_single_user(h, d, table_pa)
    assert result.powers.shape == (7, 6)
    for r in range(7):
        gains = np.abs(h[r, 0, 0])
        strongest = int(np.argmax(gains))
        expected = np.zeros(6)
        expected[strongest] = d[r, 0] ** 2 / gains[strongest] ** 2
        assert np.array_equal(result.powers[r], expected)
        assert result.objective[r] == table_pa.alpha * np.sqrt(expected[strongest])
        closed = solve_stack(("saturating",), h[r:r + 1], d[r:r + 1])["saturating"]
        assert result.objective[r] == pytest.approx(
            pa_consumed_power(closed.powers[0], table_pa), rel=1e-12
        )
        solo = analytic_single_user(h[r:r + 1], d[r:r + 1], table_pa)
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
