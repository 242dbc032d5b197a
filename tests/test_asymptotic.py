import gc
import math
import tracemalloc

import numpy as np
import pytest

from energymimo import (
    asymptotic,
    asymptotic_bs_power,
    asymptotic_pa_power,
    asymptotic_per_antenna_power,
    experiments,
    optimal_ma_plans,
    solve_quartic_ma,
    trace_term,
)
from energymimo.asymptotic import min_ma_power_constraint
from energymimo.config import ExperimentConfig, with_scenario
from energymimo.errors import DomainError
from energymimo.experiments import (
    K_SWEEP_FIELDS,
    MA_CURVE_FIELDS,
    asymptotic_experiment,
)
from energymimo.model import BsModel, PaModel, pa_consumed_power
from energymimo.oracle import grid_min_bs, solve_quartic_closed_form
from energymimo.precoding import solve_stack

from conftest import draw_realization


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


def test_optimal_ma_uncapped_regimes(table_pa):
    from energymimo import BsModel

    # huge circuit cost: circuits power-limited regime -> K+1
    expensive = BsModel(p_fix=0.0, circuit_per_antenna=1e9)
    assert optimal_ma_plans(64, [4], [1.0], table_pa, expensive, math.inf).m_dagger[0] == 5
    # negligible circuit cost: PAs power-limited regime -> M
    cheap = BsModel(p_fix=0.0, circuit_per_antenna=1e-12)
    assert optimal_ma_plans(64, [4], [1.0], table_pa, cheap, math.inf).m_dagger[0] == 64


def test_optimal_ma_uncapped_interior_matches_grid(table_pa, table_bs):
    rng = np.random.default_rng(44)
    for _ in range(40):
        k = int(rng.integers(1, 13))
        m = int(rng.integers(k + 2, 129))
        trace = float(rng.uniform(0.05, 40.0))
        counts = np.arange(k + 1, m + 1)
        values = [asymptotic_bs_power(n, k, trace, table_pa, table_bs) for n in counts]
        expected = int(counts[int(np.argmin(values))])
        plan = optimal_ma_plans(m, [k], [trace], table_pa, table_bs, math.inf)
        assert plan.m_dagger[0] == expected


def test_optimal_ma_plans_branches(table_pa, table_bs):
    # y <= K+1 -> use as few antennas as possible
    plan = optimal_ma_plans(64, [2], [1e-6], table_pa, table_bs, p_max=1.0)
    assert plan.m_dagger[0] == 3
    # y >= M -> use as many antennas as possible (power-constraint driven)
    plan2 = optimal_ma_plans(16, [2], [220.0], table_pa, table_bs, p_max=1.0)
    assert plan2.m_hat[0] >= 16
    assert plan2.m_dagger[0] == 16
    assert plan2.feasible[0]


def test_optimal_ma_plans_fills_plan(table_pa, table_bs):
    plan = optimal_ma_plans(64, [4], [4.5], table_pa, table_bs, p_max=1.0)
    m_dagger = plan.m_dagger[0]
    assert 5 <= m_dagger <= 64
    assert plan.p_bar[0] == pytest.approx(
        asymptotic_per_antenna_power(m_dagger, 4, 4.5)
    )
    assert plan.p_pas_bar[0] == pytest.approx(
        asymptotic_pa_power(m_dagger, 4, 4.5, table_pa)
    )
    assert plan.p_bs_bar[0] == pytest.approx(
        asymptotic_bs_power(m_dagger, 4, 4.5, table_pa, table_bs)
    )
    assert plan.p_bar[0] <= 1.0


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
        plan = optimal_ma_plans(m, [k], [trace], table_pa, table_bs, p_max)
        assert plan.m_dagger[0] == grid_min_bs(m, k, trace, table_pa, table_bs, p_max)
        checked += 1


def test_free_circuits_plan_the_whole_array(table_pa):
    # With zero circuit power the BS power falls strictly with M_a: no quartic
    # to solve, the plan is the full array (trace = 0 keeps the K+1 tie rule).
    free = BsModel(p_fix=15.0, circuit_per_antenna=0.0)
    rng = np.random.default_rng(47)
    m = 48
    k = rng.integers(1, 12, size=60)
    trace = rng.uniform(0.05, 60.0, size=60)
    trace[:5] = 0.0
    plan = optimal_ma_plans(m, k, trace, table_pa, free, 2.0)
    assert plan.feasible.all()
    assert np.isinf(plan.m_tilde[5:]).all()
    for k_i, t_i, m_dagger in zip(k.tolist(), trace.tolist(), plan.m_dagger.tolist()):
        assert m_dagger == grid_min_bs(m, k_i, t_i, table_pa, free, 2.0)
    assert (plan.m_dagger[5:] == m).all()
    assert (plan.m_dagger[:5] == k[:5] + 1).all()


def test_array_quartic_equals_one_at_a_time():
    rng = np.random.default_rng(46)
    k = rng.integers(1, 65, size=(20, 30))
    t = 10.0 ** rng.uniform(-3, 4, size=(20, 30))
    roots = solve_quartic_ma(k, t, 0.7)
    assert roots.shape == (20, 30)
    expected = [solve_quartic_ma(int(a), float(b), 0.7) for a, b in zip(k.flat, t.flat)]
    assert np.array_equal(roots.ravel(), expected)


def test_quartic_root_pinned_between_adjacent_doubles_is_converged(monkeypatch):
    # Near K no double meets even a zero residual, but the bracket closes to
    # two adjacent doubles around the root: that root is exact to one ulp.
    monkeypatch.setattr(asymptotic, "QUARTIC_RTOL", 0.0)
    x = solve_quartic_ma(3, 1e-12, 1.0)
    target = 1.5e-12

    def f(v):
        return v * (v - 3.0) ** 3 - target

    below, above = math.nextafter(x, 0.0), math.nextafter(x, math.inf)
    assert f(below) < 0.0 < f(above)


def test_quartic_nonconvergence_raises_naming_the_instance(monkeypatch, table_pa, table_bs):
    monkeypatch.setattr(asymptotic, "QUARTIC_MAX_ITERATIONS", 2)
    with pytest.raises(DomainError, match=r"not converged after 2 iterations at K=2, t=32\.0"):
        solve_quartic_ma(2, 32.0, 1.0)
    with pytest.raises(DomainError, match="not converged"):
        optimal_ma_plans(64, np.array([1, 4]), np.array([2.0, 3.0]), table_pa, table_bs, 1.0)


def test_quartic_rejects_non_finite_targets():
    with pytest.raises(DomainError):
        solve_quartic_ma(2, math.inf, 1.0)
    with pytest.raises(DomainError):
        solve_quartic_ma([2, 3], [1.0, math.nan], 1.0)


def test_quartic_target_near_the_largest_double():
    # The bracket's residuals overflow to inf there; warnings are errors here.
    for target in (3e307, 5e307, 1.7e308):
        x = solve_quartic_ma(1, target, 0.5)
        scale = 1e77
        assert math.isclose(x / scale * ((x - 1.0) / scale) ** 3, target / scale**4, rel_tol=1e-11)


@pytest.mark.parametrize("p_max", [1e-300, 5e-324])
def test_tiny_caps_leave_m_hat_above_the_array(table_pa, table_bs, p_max):
    # The count bound passes every int64: it is clipped, not wrapped, and
    # the cast may not warn (warnings are errors here).
    plans = optimal_ma_plans(8, [1, 2], [1.0, 2.0], table_pa, table_bs, p_max)
    assert not plans.feasible.any()
    assert (plans.m_hat > 8).all()


def test_nan_trace_is_refused(table_pa, table_bs):
    with pytest.raises(DomainError, match="NaN"):
        min_ma_power_constraint(2, math.nan, 1.0)
    with pytest.raises(DomainError, match="NaN"):
        optimal_ma_plans(8, [1, 2], [1.0, math.nan], table_pa, table_bs, 1.0)


def test_planner_takes_the_limits_of_an_out_of_range_quartic_target(table_pa):
    # An overflowed target is the free-circuit limit: the whole array.
    tiny = BsModel(p_fix=15.0, circuit_per_antenna=1e-300)
    plans = optimal_ma_plans(8, [1, 2, 3], [1.4, 2.1, 2.2], table_pa, tiny, 1.0)
    assert np.isinf(plans.m_tilde).all() and plans.m_dagger.tolist() == [8, 8, 8]
    # An underflowed target is the trace = 0 limit: K, then K + 1 antennas.
    huge = BsModel(p_fix=0.0, circuit_per_antenna=1e300)
    plans = optimal_ma_plans(8, [1, 2, 3], [1e-300] * 3, table_pa, huge, 1.0)
    assert plans.m_tilde.tolist() == [1.0, 2.0, 3.0] and plans.m_dagger.tolist() == [2, 3, 4]


def test_planner_recomputes_a_target_that_overflows_on_the_way():
    # alpha^2 overflows at eta_max = 1e-160, yet with circuits this costly the
    # target is small: the plan is the grid's few antennas, not the whole array.
    pa = PaModel(p_max=1.0, eta_max=1e-160)
    bs = BsModel(p_fix=0.0, circuit_per_antenna=1e200)
    k, trace = [1, 2, 3], [1.4, 2.1, 2.2]
    plans = optimal_ma_plans(8, k, trace, pa, bs, 1.0)
    assert plans.m_dagger.tolist() == [grid_min_bs(8, a, b, pa, bs, 1.0) for a, b in zip(k, trace)]
    assert plans.m_dagger.tolist() == [2, 3, 4]


def test_array_planner_flags_infeasible_pairs_without_raising(table_pa, table_bs):
    k = np.array([2, 2, 8, 9, 4])
    trace = np.array([1.0, 1000.0, 1.0, 1.0, 0.0])
    plans = optimal_ma_plans(8, k, trace, table_pa, table_bs, 1.0)
    assert plans.feasible.tolist() == [True, False, False, False, True]
    assert plans.m_hat.tolist() == [
        min_ma_power_constraint(int(a), float(b), 1.0) for a, b in zip(k, trace)
    ]
    assert plans.m_dagger.tolist() == [
        reference_plan(8, 2, 1.0, table_pa, table_bs, 1.0)[2], 0, 0, 0, 5
    ]
    assert np.isnan(plans.p_bs_bar[1:4]).all() and np.isnan(plans.m_tilde[1:4]).all()
    assert plans.m_tilde[4] == 4.0
    # Equality boundary: at M = K+1 and trace = p_max (K+1) the cap holds exactly.
    assert optimal_ma_plans(5, [4], [5.0], table_pa, table_bs, 1.0).feasible.tolist() == [True]


def test_array_planner_equals_one_instance_view(table_pa, table_bs):
    rng = np.random.default_rng(47)
    k = rng.integers(1, 40, size=300)
    trace = rng.uniform(0.05, 60.0, size=300)
    plans = optimal_ma_plans(64, k, trace, table_pa, table_bs, 1.0)
    for i, (a, b) in enumerate(zip(k.tolist(), trace.tolist())):
        plan = reference_plan(64, a, b, table_pa, table_bs, 1.0)
        assert plans.feasible[i] == (plan is not None)
        if plan is None:
            continue
        assert math.isclose(plans.m_tilde[i], plan[0], rel_tol=1e-14)
        for name, value in zip(("m_hat", "m_dagger", "p_bar", "p_pas_bar", "p_bs_bar"), plan[1:]):
            assert getattr(plans, name)[i] == value, name


def scalar_bs_power(n, k, trace, pa, bs):
    return float(pa.alpha * math.sqrt(n / (n - k) * trace)) + bs.p_fix + bs.circuit_per_antenna * n


def reference_plan(m, k, trace, pa, bs, p_max):
    """The scalar planner: a Newton solve with Python float powers, then the
    ceil-floor rounding by objective; ``None`` when infeasible."""
    if m <= k:
        return None
    m_hat = int(math.ceil(0.5 * (k + math.sqrt(k**2 + 4.0 * trace / p_max))))
    if trace / (m * (m - k)) > p_max:
        return None

    def bs_power(n):
        return scalar_bs_power(n, k, trace, pa, bs)

    if trace == 0.0:
        m_tilde = float(k)
    else:
        t = pa.alpha**2 * trace * k / (2.0 * bs.circuit_per_antenna)
        target = t * k / (2.0 * bs.circuit_per_antenna)
        lo, hi = float(k), k + max(target**0.25, 1e-12)
        while hi * (hi - k) ** 3 - target < 0.0:
            hi = k + 2.0 * (hi - k)
        x = 0.5 * (lo + hi)
        for _ in range(200):
            fx = x * (x - k) ** 3 - target
            if fx > 0.0:
                hi = x
            else:
                lo = x
            x_new = x - fx / ((x - k) ** 2 * (4.0 * x - k))
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)
            x = x_new
            if abs(x * (x - k) ** 3 - target) <= 1e-12 * target:
                break
        m_tilde = float(x)
    y = max(m_tilde, float(m_hat))
    if y <= k + 1:
        m_dagger = k + 1
    elif y >= m:
        m_dagger = m
    else:
        low, high = math.floor(y), math.ceil(y)
        m_dagger = low if low == high or bs_power(low) <= bs_power(high) else high
    p_pas = float(pa.alpha * math.sqrt(m_dagger / (m_dagger - k) * trace))
    return m_tilde, m_hat, m_dagger, trace / (m_dagger * (m_dagger - k)), p_pas, bs_power(m_dagger)


def reference_k_sweep(cfg):
    """The k_sweep as one plan per (realization, K), in a plain loop."""
    sc = cfg.scenario
    pa, bs, m = sc.pa_model(), sc.bs_model(), sc.m_antennas
    rows = []
    for index in range(cfg.realizations):
        beta, gamma, _, _ = draw_realization(cfg, index, k_users=cfg.k_max)
        for k in range(cfg.k_min, cfg.k_max + 1):
            trace = trace_term(beta[:k], gamma[:k], sc.noise_power)
            row = dict.fromkeys(K_SWEEP_FIELDS)
            row.update({"k_users": k, "realization": index, "trace": trace, "feasible": 0})
            plan = reference_plan(m, k, trace, pa, bs, sc.p_max_watts)
            if plan is not None:
                p_bs_full = scalar_bs_power(m, k, trace, pa, bs)
                p_bs_minimal = scalar_bs_power(k + 1, k, trace, pa, bs)
                row.update(zip(K_SWEEP_FIELDS[3:9], plan))
                row.update({
                    "p_bs_full": p_bs_full,
                    "p_bs_minimal": p_bs_minimal,
                    "gain_vs_full": p_bs_full / plan[5],
                    "gain_vs_minimal": p_bs_minimal / plan[5],
                    "feasible": 1,
                })
            rows.append(row)
    return rows


def reference_k_sweep_summary(cfg, rows):
    """The k_sweep's mean gains at its lightest and heaviest load, from its rows."""
    summary = {"realizations": cfg.realizations, "k_range": (cfg.k_min, cfg.k_max)}
    for k in (cfg.k_min, cfg.k_max):
        gains = [row["gain_vs_full"] for row in rows if row["feasible"] and row["k_users"] == k]
        if gains:
            summary[f"mean_gain_vs_full[K={k}]"] = float(np.mean(gains))
    return summary


BENCH_SWEEP = (
    {"realizations": 100, "k_min": 1, "k_max": 40}, {"m_antennas": 64, "seed": 5101}
)


@pytest.mark.parametrize(
    "sweep, scenario, variant",
    [
        (*BENCH_SWEEP, {}),
        # Blocks of 7 realizations, the last one short.
        (*BENCH_SWEEP, {"plan_block": 280}),
        (*BENCH_SWEEP, {"threads": 2}),
        ({"realizations": 20, "k_min": 1, "k_max": 6}, {"m_antennas": 16, "p_max_watts": 1e-12}, {}),
        ({"realizations": 30, "k_min": 1, "k_max": 10}, {"m_antennas": 8, "seed": 9}, {}),
    ],
    ids=["bench_shape", "bench_shape_blocks_of_7", "bench_shape_threads_2", "all_infeasible",
         "k_max_above_m"],
)
def test_k_sweep_equals_reference_loop(monkeypatch, sweep, scenario, variant):
    if "plan_block" in variant:
        monkeypatch.setattr(experiments, "PLAN_BLOCK", variant["plan_block"])
    threads = variant.get("threads", 1)
    cfg = with_scenario(
        ExperimentConfig(asym_mode="k_sweep", threads=threads, **sweep), **scenario
    )
    result = asymptotic_experiment(cfg)
    expected = reference_k_sweep(cfg)
    assert result.fieldnames == K_SWEEP_FIELDS
    rows = result.rows
    assert len(rows) == len(expected)
    for cells, ref in zip(rows, expected):
        assert len(cells) == len(K_SWEEP_FIELDS)
        row = dict(zip(result.fieldnames, cells))
        for name in K_SWEEP_FIELDS:
            assert type(row[name]) is type(ref[name]), (name, row, ref)
            if name == "m_tilde" and ref[name] is not None:
                assert math.isclose(row[name], ref[name], rel_tol=1e-14), (row, ref)
            else:
                assert row[name] == ref[name], (name, row, ref)
    assert result.summary == reference_k_sweep_summary(cfg, expected)


def test_k_sweep_result_holds_at_most_200_bytes_per_row(monkeypatch):
    # A block's part keeps one array per field: 14 cells of 8 bytes and its
    # empty-cell masks per row, not a tuple of boxed cells. The bench-shaped
    # sweep's 100 realizations make one block of 4,000 rows here.
    monkeypatch.setattr(experiments, "PLAN_BLOCK", 4000)
    cfg = with_scenario(ExperimentConfig(asym_mode="k_sweep", **BENCH_SWEEP[0]), **BENCH_SWEEP[1])
    len(asymptotic_experiment(cfg))  # imports and first-call caches are not the part's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = asymptotic_experiment(cfg)
        part = next(result._parts)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(part) == 4000
    assert held / len(part) <= 200, held / len(part)

def reference_ma_curve(cfg):
    """The ma_curve rows and summary: one trace term per realization, one row per count."""
    sc = cfg.scenario
    pa, bs, k = sc.pa_model(), sc.bs_model(), sc.k_users
    trace = float(np.mean([
        trace_term(*draw_realization(cfg, index)[:2], sc.noise_power)
        for index in range(cfg.realizations)
    ]))
    curve = [
        (n, float(pa.alpha * math.sqrt(n / (n - k) * trace)), scalar_bs_power(n, k, trace, pa, bs))
        for n in range(k + 1, sc.m_antennas + 1)
    ]
    star = min(curve, key=lambda point: point[2])[0]
    rows = [(n, p_pas, p_bs, int(n == star)) for n, p_pas, p_bs in curve]
    return rows, {"trace": trace, "m_star": star, "realizations": cfg.realizations}


@pytest.mark.parametrize("realizations, plan_block", [(1, None), (50, 21), (500, None)])
def test_ma_curve_equals_reference_loop(monkeypatch, realizations, plan_block):
    if plan_block is not None:
        # Blocks of 7 realizations at K = 3, the last one short.
        monkeypatch.setattr(experiments, "PLAN_BLOCK", plan_block)
    cfg = with_scenario(
        ExperimentConfig(asym_mode="ma_curve", realizations=realizations),
        m_antennas=40, k_users=3, seed=17,
    )
    result = asymptotic_experiment(cfg)
    rows, summary = reference_ma_curve(cfg)
    assert result.fieldnames == MA_CURVE_FIELDS
    assert result.rows == rows
    assert [tuple(map(type, row)) for row in result.rows] == [tuple(map(type, row)) for row in rows]
    assert result.summary == summary
    assert type(result.summary["trace"]) is float and type(result.summary["m_star"]) is int


def reference_q_error(cfg):
    """The q_error rows, one ZF solve and one result tuple per realization."""
    sc = cfg.scenario
    pa = sc.pa_model()
    rows = []
    for q in cfg.q_list:
        results = []
        for index in range(cfg.realizations):
            beta, gamma, h, d = draw_realization(cfg, index, subcarriers=q)
            powers = solve_stack(("zf",), h, d)["zf"].powers[0]
            trace = trace_term(beta, gamma, sc.noise_power)
            results.append((
                pa_consumed_power(powers, pa),
                asymptotic_pa_power(sc.m_antennas, sc.k_users, trace, pa),
                bool(np.any(powers > sc.p_max_watts)),
            ))
        kept = [r for r in results if not (cfg.discard_over_pmax and r[2])]
        stats = (None,) * 4
        if kept:
            p_sim, p_asym, _ = (np.array(values) for values in zip(*kept))
            errors = np.abs(p_sim - p_asym)
            stats = (
                float(errors.mean()), float(errors.var()), float(p_sim.mean()), float(p_asym.mean())
            )
        rows.append((q, len(kept), len(results) - len(kept), *stats))
    return rows


@pytest.mark.parametrize(
    "p_max, discard",
    [(1.0, True), (0.03, True), (0.01, True), (0.03, False)],
    ids=["none_discarded", "some_discarded", "nearly_all_discarded", "discard_off"],
)
def test_q_error_equals_reference_loop(monkeypatch, p_max, discard):
    cfg = with_scenario(
        ExperimentConfig(
            asym_mode="q_error", realizations=20, q_list=(1, 2, 8), discard_over_pmax=discard
        ),
        m_antennas=16, k_users=3, seed=3, p_max_watts=p_max,
    )
    # Blocks of three realizations at Q = 8.
    monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", 3 * 8 * 3 * 16)
    rows = asymptotic_experiment(cfg).rows
    expected = reference_q_error(cfg)
    assert rows == expected
    assert [tuple(map(type, row)) for row in rows] == [tuple(map(type, row)) for row in expected]
