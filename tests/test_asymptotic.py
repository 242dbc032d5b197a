import math

import numpy as np
import pytest

from energymimo import (
    asymptotic_bs_power,
    asymptotic_pa_power,
    asymptotic_per_antenna_power,
    feasibility_check,
    min_ma_power_constraint,
    optimal_ma_constrained,
    solve_quartic_ma,
    trace_term,
)
from energymimo.errors import DomainError, InfeasibleError
from energymimo.oracle import grid_min_bs, solve_quartic_closed_form


def test_trace_term_hand_value():
    assert trace_term([1.0, 2.0], [4.0, 4.0], 0.5) == pytest.approx(2.0 + 1.0)
    with pytest.raises(DomainError):
        trace_term([1.0], [1.0, 2.0], 1.0)


def test_per_antenna_power_values():
    assert asymptotic_per_antenna_power(64, 1, 1.0) == pytest.approx(1.0 / 4032.0)
    assert asymptotic_per_antenna_power(64, 1, 0.0) == 0.0
    assert asymptotic_per_antenna_power(10, 2, 6.0) == pytest.approx(
        2.0 * asymptotic_per_antenna_power(10, 2, 3.0)
    )
    with pytest.raises(DomainError):
        asymptotic_per_antenna_power(4, 4, 1.0)


def test_bs_power_degenerate_case(table_pa):
    from energymimo import BsModel

    bs = BsModel(p_fix=15.0, circuit_per_antenna=0.0)
    assert asymptotic_bs_power(8, 1, 0.0, table_pa, bs) == pytest.approx(15.0)


def test_bs_power_large_ma_asymptote(table_pa, table_bs):
    trace = 2.0
    value = asymptotic_bs_power(10_000, 4, trace, table_pa, table_bs)
    floor = table_pa.alpha * np.sqrt(trace) + table_bs.p_fix + table_bs.circuit_per_antenna * 10_000
    assert value == pytest.approx(floor, rel=1e-4)


def test_pa_power_strictly_decreasing_in_ma(table_pa):
    trace = 3.0
    values = [asymptotic_pa_power(m, 4, trace, table_pa) for m in range(5, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bs_power_convexity(table_pa, table_bs):
    # centered second differences of the continuous relaxation are positive
    trace = 5.0
    k = 12
    xs = np.linspace(k + 0.5, 200.0, 400)
    f = (
        table_pa.alpha * np.sqrt(xs / (xs - k) * trace)
        + table_bs.p_fix
        + table_bs.circuit_per_antenna * xs
    )
    second = f[2:] - 2 * f[1:-1] + f[:-2]
    assert np.all(second > 0.0)


def test_quartic_hand_root():
    # 4 (4-2)^3 = 32 = t K / (2 C) with t=32, K=2, C=1
    assert solve_quartic_ma(2, 32.0, 1.0) == pytest.approx(4.0, rel=1e-9)


def test_quartic_tiny_target_approaches_k():
    x = solve_quartic_ma(3, 1e-12, 1.0)
    assert 3.0 < x < 3.001


def test_quartic_residual_bound():
    rng = np.random.default_rng(40)
    for _ in range(50):
        k = int(rng.integers(1, 33))
        t = float(10.0 ** rng.uniform(-4, 5))
        c = float(10.0 ** rng.uniform(-3, 2))
        x = solve_quartic_ma(k, t, c)
        target = t * k / (2.0 * c)
        assert abs(x * (x - k) ** 3 - target) <= 1e-9 * target
        assert x > k


def test_quartic_closed_form_agrees():
    rng = np.random.default_rng(41)
    for _ in range(50):
        k = int(rng.integers(1, 65))
        t = float(10.0 ** rng.uniform(-3, 4))
        c = float(10.0 ** rng.uniform(-2, 2))
        newton = solve_quartic_ma(k, t, c)
        closed = solve_quartic_closed_form(k, t, c)
        assert newton == pytest.approx(closed, rel=1e-7)


def test_quartic_single_admissible_root():
    # exactly one real root above K for positive coefficients
    from energymimo.oracle import quartic_real_roots

    rng = np.random.default_rng(42)
    for _ in range(30):
        k = int(rng.integers(1, 17))
        target = float(10.0 ** rng.uniform(-3, 4))
        roots = quartic_real_roots(-3.0 * k, 3.0 * k**2, -(k**3), -target)
        above = [x for x in roots if x > k + 1e-9]
        assert len(above) == 1


def test_min_ma_power_constraint_hand_value():
    # ceil((4 + sqrt(16 + 8)) / 2) = 5
    assert min_ma_power_constraint(4, 2.0, 1.0) == 5
    assert min_ma_power_constraint(4, 0.0, 1.0) == 4


def test_min_ma_power_constraint_inverts_per_antenna_power():
    rng = np.random.default_rng(43)
    for _ in range(30):
        k = int(rng.integers(1, 17))
        trace = float(rng.uniform(0.01, 100.0))
        p_max = float(rng.uniform(0.05, 5.0))
        m_hat = min_ma_power_constraint(k, trace, p_max)
        if m_hat > k:
            assert asymptotic_per_antenna_power(m_hat, k, trace) <= p_max + 1e-12


def test_feasibility_check_examples():
    assert feasibility_check(8, 2, 0.0, 1.0)
    # M = K+1 with trace = p_max (K+1): equality boundary
    assert feasibility_check(5, 4, 1.0 * 5.0, 1.0)
    assert not feasibility_check(8, 2, 1e6, 1e-9)
    with pytest.raises(InfeasibleError):
        feasibility_check(4, 4, 1.0, 1.0)


def test_optimal_ma_uncapped_regimes(table_pa):
    from energymimo import BsModel

    # huge circuit cost: circuits power-limited regime -> K+1
    expensive = BsModel(p_fix=0.0, circuit_per_antenna=1e9)
    assert optimal_ma_constrained(64, 4, 1.0, table_pa, expensive, math.inf).m_dagger == 5
    # negligible circuit cost: PAs power-limited regime -> M
    cheap = BsModel(p_fix=0.0, circuit_per_antenna=1e-12)
    assert optimal_ma_constrained(64, 4, 1.0, table_pa, cheap, math.inf).m_dagger == 64


def test_optimal_ma_uncapped_interior_matches_grid(table_pa, table_bs):
    rng = np.random.default_rng(44)
    for _ in range(40):
        k = int(rng.integers(1, 13))
        m = int(rng.integers(k + 2, 129))
        trace = float(rng.uniform(0.05, 40.0))
        counts = np.arange(k + 1, m + 1)
        values = [asymptotic_bs_power(n, k, trace, table_pa, table_bs) for n in counts]
        expected = int(counts[int(np.argmin(values))])
        plan = optimal_ma_constrained(m, k, trace, table_pa, table_bs, math.inf)
        assert plan.m_dagger == expected


def test_optimal_ma_constrained_branches(table_pa, table_bs):
    # y <= K+1 -> use as few antennas as possible
    plan = optimal_ma_constrained(64, 2, 1e-6, table_pa, table_bs, p_max=1.0)
    assert plan.m_dagger == 3
    # y >= M -> use as many antennas as possible (power-constraint driven)
    plan2 = optimal_ma_constrained(16, 2, 220.0, table_pa, table_bs, p_max=1.0)
    assert plan2.m_hat >= 16
    assert plan2.m_dagger == 16
    assert plan2.feasible


def test_optimal_ma_constrained_infeasible_reports_minimum(table_pa, table_bs):
    with pytest.raises(InfeasibleError) as err:
        optimal_ma_constrained(8, 2, 1000.0, table_pa, table_bs, p_max=1.0)
    assert err.value.min_feasible_m == min_ma_power_constraint(2, 1000.0, 1.0)


def test_optimal_ma_constrained_fills_plan(table_pa, table_bs):
    plan = optimal_ma_constrained(64, 4, 4.5, table_pa, table_bs, p_max=1.0)
    assert 5 <= plan.m_dagger <= 64
    assert plan.p_bar == pytest.approx(
        asymptotic_per_antenna_power(plan.m_dagger, 4, 4.5)
    )
    assert plan.p_pas_bar == pytest.approx(
        asymptotic_pa_power(plan.m_dagger, 4, 4.5, table_pa)
    )
    assert plan.p_bs_bar == pytest.approx(
        asymptotic_bs_power(plan.m_dagger, 4, 4.5, table_pa, table_bs)
    )
    assert plan.p_bar <= 1.0


def test_grid_oracle_ties_and_edges(table_pa):
    from energymimo import BsModel

    # single-point range
    assert grid_min_bs(5, 4, 0.0, table_pa, BsModel(), p_max=1.0) == 5
    # zero circuit cost: PA term strictly decreasing -> M
    free_circuits = BsModel(p_fix=1.0, circuit_per_antenna=0.0)
    assert grid_min_bs(37, 3, 2.0, table_pa, free_circuits, p_max=1.0) == 37


def test_constrained_matches_grid_on_random_scenarios(table_pa, table_bs):
    rng = np.random.default_rng(45)
    checked = 0
    while checked < 40:
        k = int(rng.integers(1, 17))
        m = int(rng.integers(k + 2, 257))
        trace = float(rng.uniform(0.05, 60.0))
        p_max = float(rng.uniform(0.2, 4.0))
        if trace / (m * (m - k)) > p_max:
            continue
        plan = optimal_ma_constrained(m, k, trace, table_pa, table_bs, p_max)
        assert plan.m_dagger == grid_min_bs(m, k, trace, table_pa, table_bs, p_max)
        checked += 1
