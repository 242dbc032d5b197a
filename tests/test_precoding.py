import gc
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from energymimo import (
    FixedPointConfig,
    los_allocation_precoders,
    pa_consumed_power,
    per_antenna_powers,
    zf_targets,
)
from energymimo.errors import (
    DimensionError, DomainError, EnergyMimoError, InfeasibleError, SingularChannelError,
)
from energymimo.model import ACTIVE_POWER_THRESHOLD
from energymimo.oracle import solve_min_pa_bruteforce_block
from energymimo.precoding import (
    GRAM_CONDITION_LIMIT,
    SOLVERS,
    STACK_LAST_MAP_MAX_USERS,
    ZF_MAP_MAX_USERS,
    ZF_TOLERANCE,
    Workspace,
    _fixed_point,
    _guard_gram,
    _packed_products,
    _packing,
    _power_map,
    _refuse_bad_pivots,
    _sweep_inverse,
    _weighted_zf,
    solve_stack,
)

from conftest import draw_cell_instance, los, rayleigh, stack


def narrowband(h_rows, gamma, noise_power):
    """The one-instance block of a K x M narrowband channel and its K SINR targets."""
    h = np.atleast_2d(np.asarray(h_rows, dtype=complex))
    return h[None, None], zf_targets(np.atleast_1d(gamma), noise_power, 1)[None]


def saturating(h, gamma, noise_std, p_max):
    """The saturating fill of one narrowband K=1 channel ``h``, as an R=1 stack."""
    block = narrowband(h, [gamma], noise_std**2)
    return solve_stack(("saturating",), *block, p_max=p_max)["saturating"]


def zf_residual(h, d, matrices):
    """max |H_q W_q - diag(d)| of one instance's (Q, K, M) channel and (K,) targets."""
    target = np.zeros((len(d), len(d)), dtype=complex)
    np.fill_diagonal(target, d)
    prods = h @ matrices
    return float(np.max(np.abs(prods - target[None, :, :])))


def test_zf_scalar_case():
    sol = solve_stack(("zf",), *narrowband([[1.0]], [4.0], 1.0))["zf"]
    assert sol.matrices.ravel() == pytest.approx([2.0 + 0.0j])
    assert sol.powers.sum() == pytest.approx(4.0)


def test_zf_two_antenna_pseudo_inverse():
    sol = solve_stack(("zf",), *narrowband([[1.0, 1.0]], [4.0], 1.0))["zf"]
    assert sol.matrices.ravel() == pytest.approx([1.0, 1.0])
    assert sol.powers.sum() == pytest.approx(2.0)


def test_zf_residual_on_random_instances():
    rng = np.random.default_rng(21)
    h, d = stack([draw_cell_instance(16, 4, 8, rng) for _ in range(5)])
    sol = solve_stack(("zf",), h, d)["zf"]
    for r in range(5):
        assert zf_residual(h[r], d[r], sol.matrices[r]) <= 1e-9
    assert sol.powers == pytest.approx(per_antenna_powers(sol.matrices), rel=1e-10)


def test_zf_rejects_rank_deficient_channel():
    h = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    with pytest.raises(SingularChannelError):
        solve_stack(("zf",), *narrowband(h, [2.0, 2.0], 1.0))


def test_fixed_point_config_rejects_nan():
    for kwargs in (
        {"tolerance": float("nan")},
        {"tolerance": float("inf")},
        {"max_iterations": 10.0},
        {"dead_antenna_floor": float("nan")},
        {"dead_antenna_floor": float("inf")},
        {"max_iterations": True},
    ):
        with pytest.raises(DomainError):
            FixedPointConfig(**kwargs)


def test_solve_stack_refuses_bad_names_before_checking(monkeypatch):
    # A bare string, no name or an unknown one is refused, with the solver
    # list, before any instance is checked; a bare "saturating" with an
    # invalid cap still gets the names error.
    h, d = draw_cell_instance(8, 2, 1, np.random.default_rng(41))

    def refuse(*args):
        raise AssertionError("checked the block")

    monkeypatch.setattr("energymimo.precoding.check_stack", refuse)
    for names in ("zf", "saturating", (), [], ("foo",), ("zf", "foo")):
        with pytest.raises(DomainError, match=re.escape(str(SOLVERS))):
            solve_stack(names, h, d, p_max=0.0)


def test_zf_rejects_underdetermined():
    with pytest.raises(SingularChannelError):
        solve_stack(("zf",), *narrowband(np.ones((2, 1)), [1.0, 1.0], 1.0))


def test_min_pa_single_user_strongest_antenna():
    # h = [2, 1]: everything lands on the first antenna, p0 = gamma sigma^2 / 4.
    cfg = FixedPointConfig(tolerance=1e-12, max_iterations=50_000)
    sol = solve_stack(("min_pa",), *narrowband([[2.0, 1.0]], [4.0], 1.0), cfg)["min_pa"]
    assert sol.converged[0]
    powers = sol.powers[0]
    assert powers[0] == pytest.approx(1.0, rel=1e-6)
    assert powers[1] <= 1e-9
    assert np.flatnonzero(powers > ACTIVE_POWER_THRESHOLD).tolist() == [0]


def test_min_pa_wideband_los_manifold():
    # For K=1 LOS the optimum satisfies sum_m sqrt(p_m) = sigma sqrt(gamma).
    rng = np.random.default_rng(22)
    h = los(6, 1, 8, rng)[None]
    d = zf_targets([[9.0]], 4.0, 8)
    sol = solve_stack(("min_pa",), h, d)["min_pa"]
    assert sol.converged[0]
    assert np.sum(np.sqrt(sol.powers[0])) == pytest.approx(2.0 * 3.0, rel=1e-4)
    assert zf_residual(h[0], d[0], sol.matrices[0]) <= 1e-9


def test_min_pa_square_channel_matches_zf():
    # K = M: the ZF point is the only feasible one.
    rng = np.random.default_rng(23)
    h, d = draw_cell_instance(3, 3, 1, rng)
    zf = solve_stack(("zf",), h, d)["zf"]
    mp = solve_stack(("min_pa",), h, d)["min_pa"]
    assert mp.powers == pytest.approx(zf.powers, rel=1e-8)


def test_min_pa_never_worse_than_zf(table_pa):
    rng = np.random.default_rng(24)
    h, d = stack([draw_cell_instance(12, 3, 2, rng) for _ in range(5)])
    lhs = pa_consumed_power(solve_stack(("min_pa",), h, d)["min_pa"].powers, table_pa)
    rhs = pa_consumed_power(solve_stack(("zf",), h, d)["zf"].powers, table_pa)
    assert np.all(lhs <= rhs + 1e-4)


def test_min_pa_honors_iteration_budget():
    cfg = FixedPointConfig(tolerance=1e-15, max_iterations=3)
    sol = solve_stack(("min_pa",), *narrowband([[2.0, 1.9]], [4.0], 1.0), cfg)["min_pa"]
    assert not sol.converged[0]
    assert sol.iterations[0] == 3
    assert sol.residual[0] > 1e-15


def unit_instance(seed, subcarriers, m_antennas=6):
    rng = np.random.default_rng(seed)
    shape = (subcarriers, 2, m_antennas)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    return h[None], zf_targets([2.0, 3.0], 1.0, subcarriers)[None]


def trace_rows(stacked, r):
    """Realization r's rows of a stacked trace."""
    assert len(stacked.trace) == stacked.iterations.sum()
    start = stacked.iterations[:r].sum()
    return stacked.trace[start:start + stacked.iterations[r]]


def iterate(h, d, cfg, i):
    """The fixed point's i-th (R, M) iterate: the powers its kernel holds after i iterations."""
    budget = replace(cfg, max_iterations=i)
    return solve_stack(("min_pa",), h, d, budget)["min_pa"]._kernel[2]


def test_min_pa_trace_recording():
    # Row i of a realization's trace is iteration i's step from the clamped
    # iterate i - 1 (the uniform 1 W start for i = 1) and the squared
    # distance of iterate i to the reference, bit for bit; its last step is
    # the residual. Seeds 40 and 43 prune antennas; 44 and 45 share a stack.
    cfg = FixedPointConfig(tolerance=1e-10, max_iterations=300)
    blocks = [
        ([narrowband([[2.0, 1.0]], [4.0], 1.0)], FixedPointConfig()),
        ([unit_instance(40, 1)], cfg),
        ([unit_instance(43, 1)], cfg),
        ([unit_instance(44, 4), unit_instance(45, 4)], cfg),
    ]
    rng = np.random.default_rng(5)
    clamps = 0
    for block, fixed_point in blocks:
        h, d = stack(block)
        reference = rng.uniform(0.0, 1.0, (len(block), h.shape[3]))
        sol = solve_stack(("min_pa",), h, d, fixed_point, reference=reference)["min_pa"]
        plain = solve_stack(("min_pa",), h, d, fixed_point)["min_pa"]
        assert np.isnan(plain.trace[:, 1]).all()
        for r in range(len(block)):
            rows = trace_rows(sol, r)
            assert rows[-1, 0] == sol.residual[r]
            previous = np.ones(h.shape[3])
            for i, (step, dist) in enumerate(rows, 1):
                current = iterate(h, d, fixed_point, i)[r]
                clamped = np.where(previous < fixed_point.dead_antenna_floor, 0.0, previous)
                clamps += np.any(clamped != previous)
                assert step == np.abs(current - clamped).max()
                assert dist == np.sum((current - reference[r]) ** 2)
                previous = current
    assert clamps > 0
    assert saturating([[2.0, 1.0]], 4.0, 1.0, np.inf).trace.shape == (0, 2)
    with pytest.raises(DimensionError, match=r"reference must have shape \(2, 6\), got \(6,\)"):
        solve_stack(("min_pa",), h, d, fixed_point, reference=reference[0])


def test_solve_sorts_the_trace_only_when_read():
    # One block of the CI saturating run (M=16, K=1, Q=1, p_max 0.05 W,
    # 2,048 realizations). Sorting the trail into the trace takes about 48
    # bytes per entry beside it; the block's solve peaked at 64 bytes per
    # entry while it sorted, and at 42 without.
    rng = np.random.default_rng(95)
    h, d = stack([draw_cell_instance(16, 1, 1, rng) for _ in range(2048)])
    gc.collect()
    tracemalloc.start()
    try:
        solution = solve_stack(("zf", "min_pa", "saturating"), h, d, p_max=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "trace" not in vars(solution["min_pa"])
    min_pa = solution["min_pa"]
    assert peak <= 3 * min_pa.trace.nbytes, (peak, min_pa.trace.nbytes)
    assert len(min_pa.trace) == min_pa.iterations.sum()


def test_min_pa_zf_residual_holds(table_pa):
    rng = np.random.default_rng(25)
    h, d = draw_cell_instance(8, 2, 4, rng)
    sol = solve_stack(("min_pa",), h, d)["min_pa"]
    assert zf_residual(h[0], d[0], sol.matrices[0]) <= 1e-9


def test_min_pa_narrowband_matches_stacked_core():
    # A K x M matrix is the Q=1 channel stack; its solve alone equals its row
    # in a larger stack.
    rng = np.random.default_rng(26)
    h = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    direct = solve_stack(("min_pa",), *narrowband(h, [2.0, 3.0], 1.0))["min_pa"]
    pair = [narrowband(h.conj(), [2.0, 3.0], 1.0), narrowband(h, [2.0, 3.0], 1.0)]
    stacked = solve_stack(("min_pa",), *stack(pair))["min_pa"]
    assert np.array_equal(direct.powers[0], stacked.powers[1])


def test_min_pa_narrowband_single_user_closed_form():
    rng = np.random.default_rng(27)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    block = narrowband(h[None, :], [6.0], 1.0)
    cfg = FixedPointConfig(tolerance=1e-12, max_iterations=50_000)
    iterated = solve_stack(("min_pa",), *block, cfg)["min_pa"]
    closed = solve_stack(("saturating",), *block)["saturating"]
    assert iterated.powers[0] == pytest.approx(closed.powers[0], rel=1e-5, abs=1e-9)


def assert_same_row(stacked, r, alone):
    """Row r of a stacked solution equals the R=1 solve ``alone``, trace included."""
    for name in ("matrices", "powers", "iterations", "converged", "residual"):
        assert np.array_equal(getattr(stacked, name)[r], getattr(alone, name)[0]), name
    assert np.array_equal(trace_rows(stacked, r), alone.trace, equal_nan=True)
    if alone.iterations[0]:
        assert alone.trace[-1, 0] == alone.residual[0]


def groups_by_shape(instances):
    """The instances split into lists of equal channel shape, in first-seen order."""
    groups = {}
    for h, d in instances:
        groups.setdefault(h.shape, []).append((h, d))
    return list(groups.values())


def test_stacked_min_pa_equals_one_at_a_time():
    # Narrowband instances that prune (seeds 40, 43, 48) and one that needs
    # ~1500 iterations (seed 42) share a stack; the Q=4 ones form another.
    # The Q=32 ones invert their Grams by the sweep, and leave its working
    # set one at a time, the last at the iteration budget.
    cfg = FixedPointConfig(tolerance=1e-10, max_iterations=300)
    instances = [
        unit_instance(40, 1), unit_instance(44, 4), unit_instance(42, 1),
        unit_instance(43, 1), unit_instance(45, 4), unit_instance(48, 1),
        unit_instance(46, 32), unit_instance(47, 32), unit_instance(48, 32),
    ]
    groups = groups_by_shape(instances)  # seeds 40, 42, 43, 48 | 44, 45 | 46, 47, 48
    rng = np.random.default_rng(49)
    references = [rng.uniform(0.0, 1.0, (len(group), 6)) for group in groups]
    stacks = [
        solve_stack(("min_pa",), *stack(group), cfg, reference=reference)["min_pa"]
        for group, reference in zip(groups, references)
    ]
    for group, stacked, reference in zip(groups, stacks, references):
        assert stacked.matrices.shape[0] == len(group)
        for r, (h, d) in enumerate(group):
            alone = solve_stack(("min_pa",), h, d, cfg, reference=reference[r:r + 1])["min_pa"]
            assert_same_row(stacked, r, alone)
            assert zf_residual(h[0], d[0], alone.matrices[0]) <= ZF_TOLERANCE
    narrow, wide, swept = stacks
    assert swept.converged.tolist() == [True, True, False]
    assert swept.iterations[0] < swept.iterations[1] < cfg.max_iterations
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


def reference_min_pa(h, d, cfg):
    """The fixed point as a plain one-realization loop on the active columns."""
    q, k, m = h.shape
    rhs = np.zeros((q, k, k), dtype=complex)
    rhs[:, np.arange(k), np.arange(k)] = d

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
    # The solver iterates the lifted power map over all M antennas, the
    # loop reads the powers back from precoders on the active columns only.
    # The two round differently, by a few eps of the largest entry, so the
    # matrices and residuals agree to 16 eps; the discrete outcome
    # (iterations, convergence, active set) stays equal. Runs cut off by the
    # iteration budget are included.
    rng = np.random.default_rng(39)
    instances = [draw_cell_instance(12, 1, 8, rng) for _ in range(3)]
    instances += [draw_cell_instance(16, 3, 1, rng) for _ in range(3)]
    instances += [draw_cell_instance(10, 2, 4, rng) for _ in range(2)]
    eps = np.finfo(float).eps
    for cfg in (FixedPointConfig(), FixedPointConfig(max_iterations=40)):
        for group in groups_by_shape(instances):
            h, d = stack(group)
            stacked = solve_stack(("min_pa",), h, d, cfg)["min_pa"]
            for r in range(len(group)):
                w, iterations, residual = reference_min_pa(h[r], d[r], cfg)
                powers = per_antenna_powers(w)
                assert stacked.iterations[r] == iterations
                assert stacked.converged[r] == (residual <= cfg.tolerance)
                assert np.array_equal(
                    stacked.powers[r] > ACTIVE_POWER_THRESHOLD, powers > ACTIVE_POWER_THRESHOLD
                )
                assert np.abs(stacked.matrices[r] - w).max() <= 16 * eps * np.abs(w).max()
                assert abs(stacked.residual[r] - residual) <= 16 * eps * powers.max()


def test_zf_is_the_fixed_points_first_iterate():
    # Up to ZF_MAP_MAX_USERS users, zero forcing's powers are the lifted
    # power map at the fixed point's uniform start, which is the fixed
    # point's first iterate, bit for bit, K=1 included. Above it they are
    # the kernel's powers read back, bit for bit, and the first iterate
    # reads the same up to rounding.
    instances = [
        draw_cell_instance(12, 1, 8, np.random.default_rng(3)),
        draw_cell_instance(64, 1, 1, np.random.default_rng(4)),
        draw_cell_instance(16, 3, 1, np.random.default_rng(5)),
        draw_cell_instance(10, 2, 4, np.random.default_rng(6)),
        draw_cell_instance(12, 1, 8, np.random.default_rng(7)),
        draw_cell_instance(24, 4, 32, np.random.default_rng(8)),
        draw_cell_instance(16, 5, 2, np.random.default_rng(9)),
        draw_cell_instance(16, 5, 2, np.random.default_rng(10)),
        draw_cell_instance(24, 8, 32, np.random.default_rng(11)),
    ]
    assert {h.shape[2] for h, _ in instances} >= {ZF_MAP_MAX_USERS, 5, 8}
    eps = np.finfo(float).eps
    for group in groups_by_shape(instances):
        h, d = stack(group)
        first = iterate(h, d, FixedPointConfig(), 1)
        zf = solve_stack(("zf",), h, d)["zf"].powers
        if h.shape[2] <= ZF_MAP_MAX_USERS:
            assert np.array_equal(zf, first)
            continue
        index = np.arange(len(h))
        readback = per_antenna_powers(_weighted_zf(h, d, index, np.ones((len(h), h.shape[3]))))
        assert np.array_equal(zf, readback)
        scale = zf.max(axis=1, keepdims=True)
        assert np.all(np.abs(zf - first) <= 16 * eps * scale)


def test_first_trace_row_measures_zero_forcing():
    # Up to ZF_MAP_MAX_USERS users the first iterate is zero forcing's
    # powers, so iteration 1's trace row is their step from the uniform 1 W
    # start and their squared distance to the reference, bit for bit.
    rng = np.random.default_rng(12)
    cfg = FixedPointConfig(max_iterations=1)
    for m, k, q in ((12, 1, 8), (64, 1, 1), (16, 3, 1), (10, 2, 4), (24, ZF_MAP_MAX_USERS, 32)):
        h, d = stack([draw_cell_instance(m, k, q, rng) for _ in range(3)])
        zf = solve_stack(("zf",), h, d)["zf"].powers
        reference = rng.uniform(0.0, zf.max(), (3, m))
        trace = solve_stack(("min_pa",), h, d, cfg, reference=reference)["min_pa"].trace
        assert trace.shape == (3, 2)
        for r in range(3):
            assert trace[r, 0] == np.abs(zf[r] - 1.0).max()
            assert trace[r, 1] == np.sum((zf[r] - reference[r]) ** 2)


def test_matrices_are_assembled_when_read():
    # Zero forcing and min_pa store their powers and assemble precoders
    # from the kernel on first read; those hold the ZF constraint and give
    # back the stored powers. The Q=32 stack takes the sweep.
    rng = np.random.default_rng(72)
    instances = [draw_cell_instance(16, 2, 32, rng) for _ in range(3)]
    instances += [draw_cell_instance(12, 3, 1, rng) for _ in range(3)]
    instances += [draw_cell_instance(8, 1, 4, rng) for _ in range(2)]
    cfg = FixedPointConfig(max_iterations=200)
    for group in groups_by_shape(instances):
        h, d = stack(group)
        for solution in (
            solve_stack(("zf",), h, d)["zf"],
            solve_stack(("min_pa",), h, d, cfg)["min_pa"],
        ):
            assert "matrices" not in vars(solution)
            matrices = solution.matrices
            assert solution.matrices is matrices
            for h_r, d_r, w in zip(h, d, matrices):
                assert zf_residual(h_r, d_r, w) <= ZF_TOLERANCE
            assert solution.powers == pytest.approx(per_antenna_powers(matrices), rel=1e-10)


def test_matrices_read_after_later_solves_equal_a_fresh_solve():
    # A solve without a workspace keeps the caller's stack, so a solution
    # assembles its precoders from its own channels even after later solves
    # on the same thread, with or without a workspace.
    rng = np.random.default_rng(83)
    first, second = (stack([draw_cell_instance(8, 2, 32, rng) for _ in range(3)]) for _ in range(2))
    names = ("zf", "min_pa")
    solved = solve_stack(names, *first)
    solve_stack(names, *second)
    solve_stack(names, *second, workspace=Workspace())
    fresh = solve_stack(names, *first)
    for name in names:
        assert np.array_equal(solved[name].matrices, fresh[name].matrices)


def test_workspace_solves_equal_fresh_solves_and_keep_no_kernel():
    # Blocks of one shape reuse the workspace's buffers, a shorter block
    # their leading rows; the Q=1 blocks leave the fixed point's working set
    # at different iterations, so they compact its copy of the packing. Each
    # field equals that of a solve without a workspace, and no solution can
    # read the reused stack.
    rng = np.random.default_rng(84)
    cfg = FixedPointConfig(max_iterations=300)
    workspace = Workspace()
    groups = [[draw_cell_instance(12, 3, 1, rng) for _ in range(n)] for n in (5, 5, 2)]
    groups += [[draw_cell_instance(8, 2, 32, rng) for _ in range(n)] for n in (3, 1)]
    for group in groups:
        h, d = stack(group)
        solved = solve_stack(SOLVERS[:2], h, d, cfg, workspace=workspace)
        alone = solve_stack(SOLVERS[:2], h, d, cfg)
        for name in SOLVERS[:2]:
            for field in ("powers", "iterations", "converged", "residual", "trace"):
                ours, theirs = getattr(solved[name], field), getattr(alone[name], field)
                assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
            with pytest.raises(EnergyMimoError, match="workspace"):
                solved[name].matrices
    assert solved["min_pa"].iterations.size == 1


def test_workspace_hands_out_the_leading_rows_of_what_it_holds():
    workspace = Workspace()
    held = workspace.take("a", (4, 3, 2))
    assert held.shape == (4, 3, 2) and held.dtype == float
    pointer = held.__array_interface__["data"][0]
    for shape in ((4, 3, 2), (1, 3, 2)):
        again = workspace.take("a", shape)
        assert again.shape == shape and again.__array_interface__["data"][0] == pointer
    # Another name, dtype, trailing shape or a longer block takes a new array.
    assert not np.shares_memory(workspace.take("b", (4, 3, 2)), held)
    for shape, dtype in (((4, 3, 2), complex), ((4, 2, 3), float), ((5, 3, 2), float)):
        taken = workspace.take("a", shape, dtype)
        assert taken.shape == shape and taken.dtype == dtype
        assert not np.shares_memory(taken, held)


def test_block_solve_shares_one_packing_in_any_order():
    # At M=16, K=2, Q=32 the realizations leave the fixed point's working
    # set at different iterations, so it compacts its copy of the packed
    # products that zero forcing shares; neither solver sees the other,
    # whatever the order of the names.
    rng = np.random.default_rng(73)
    h, d = stack([draw_cell_instance(16, 2, 32, rng) for _ in range(8)])
    cfg = FixedPointConfig()
    zf = solve_stack(("zf",), h, d)["zf"]
    reference = rng.uniform(0.0, zf.powers.max(), zf.powers.shape)
    # A floor just above the smallest ZF power clamps an antenna of the
    # first iterate to zero; zero forcing's powers must not see it.
    floor = np.sort(zf.powers, axis=1)[:, 1].min()
    pruning = FixedPointConfig(dead_antenna_floor=floor, max_iterations=5)
    for fixed_point in (cfg, pruning):
        min_pa = solve_stack(("min_pa",), h, d, fixed_point, reference=reference)["min_pa"]
        for names in (("zf", "min_pa"), ("min_pa", "zf")):
            solved = solve_stack(names, h, d, fixed_point, reference=reference)
            assert list(solved) == list(names)
            assert np.array_equal(solved["zf"].powers, zf.powers)
            for name in ("powers", "iterations", "converged", "residual", "trace"):
                assert np.array_equal(getattr(solved["min_pa"], name), getattr(min_pa, name))
    assert np.any(zf.powers < floor)
    iterations = solve_stack(("min_pa",), h, d, cfg)["min_pa"].iterations
    assert len(set(iterations.tolist())) > 2
    # The fixed point writes into neither shared array.
    packed, targets = _packed_products(h), squared_targets(d)
    before = packed.copy(), targets.copy()
    first = zf.powers.copy()
    _fixed_point(h, d, packed, targets, cfg, first, reference)
    assert np.array_equal(packed, before[0]) and np.array_equal(targets, before[1])
    assert np.array_equal(first, zf.powers)


def test_zf_alone_packs_only_up_to_the_map_users(monkeypatch):
    # Above ZF_MAP_MAX_USERS a zero-forcing solve alone reads the kernel
    # and packs no channel products; min_pa still packs, and on either side
    # each solver equals its solve alone in either order of the names.
    rng = np.random.default_rng(74)
    cfg = FixedPointConfig()
    blocks = {}
    for k in (ZF_MAP_MAX_USERS, ZF_MAP_MAX_USERS + 1):
        h, d = stack([draw_cell_instance(16, k, 32, rng) for _ in range(4)])
        zf = solve_stack(("zf",), h, d)["zf"]
        reference = rng.uniform(0.0, zf.powers.max(), zf.powers.shape)
        min_pa = solve_stack(("min_pa",), h, d, cfg, reference=reference)["min_pa"]
        for names in (("zf", "min_pa"), ("min_pa", "zf")):
            solved = solve_stack(names, h, d, cfg, reference=reference)
            assert np.array_equal(solved["zf"].powers, zf.powers)
            for name in ("powers", "iterations", "converged", "residual", "trace"):
                assert np.array_equal(getattr(solved["min_pa"], name), getattr(min_pa, name))
        blocks[k] = h, d, zf.powers

    def refuse(*args):
        raise AssertionError("packed the channel products")

    monkeypatch.setattr("energymimo.precoding._packed_products", refuse)
    h, d, zf_powers = blocks[ZF_MAP_MAX_USERS + 1]
    assert np.array_equal(solve_stack(("zf",), h, d)["zf"].powers, zf_powers)
    with pytest.raises(AssertionError, match="packed"):
        solve_stack(("min_pa",), h, d)
    with pytest.raises(AssertionError, match="packed"):
        solve_stack(("zf",), *blocks[ZF_MAP_MAX_USERS][:2])


def squared_targets(d):
    """The (R, 1, K, 1) squared ZF targets d_k^2 of a stack's (R, K) targets."""
    return np.square(d)[:, None, :, None]


def dead_antenna_powers(rng, realizations, m_antennas):
    """Powers with five dead antennas per realization, each realization its own set."""
    p = rng.uniform(0.5, 2.0, (realizations, m_antennas))
    for r in range(realizations):
        p[r, (r + 3 * np.arange(5)) % m_antennas] = 0.0
    return p


def gram_condition(h, p):
    """The largest condition number of the weighted Gram matrices of a stack."""
    b = h * np.sqrt(np.sqrt(p))[:, None, None, :]
    return np.linalg.cond(b @ b.conj().swapaxes(-1, -2)).max()


@pytest.mark.parametrize("subcarriers", [1, 4, 32])
@pytest.mark.parametrize("k_users", [1, 3, 5, 8])
def test_power_map_is_the_kernels_power_readback(k_users, subcarriers):
    # One sweep of the lifted map against the powers read back from the
    # weighted-ZF kernel's precoders. Both round by about eps times the
    # Gram condition number, so the 16 eps clause takes unit-variance
    # channels with 27 of 32 antennas alive (condition numbers near 10);
    # cell instances, whose users' path losses differ, get the same clause
    # scaled by their condition number.
    rng = np.random.default_rng(60 + 10 * k_users + subcarriers)
    eps = np.finfo(float).eps
    shape = (subcarriers, k_users, 32)
    unit = np.stack([
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        for _ in range(3)
    ])
    targets = np.stack([
        zf_targets(rng.uniform(1.0, 8.0, k_users), 1.0, subcarriers) for _ in range(3)
    ])
    cell = stack([draw_cell_instance(32, k_users, subcarriers, rng) for _ in range(3)])
    index = np.arange(3)
    for (h, d), scaled in (((unit, targets), False), (cell, True)):
        p = dead_antenna_powers(rng, 3, 32)
        packed, d2 = _packed_products(h), squared_targets(d)
        mapped = _power_map(packed, d2, p, index)
        readback = per_antenna_powers(_weighted_zf(h, d, index, p))
        bound = 16 * eps * (gram_condition(h, p) if scaled else 1.0)
        assert np.all(np.abs(mapped - readback) <= bound * readback.max(axis=1, keepdims=True))
        assert np.all(mapped[p == 0.0] == 0.0)
        assert np.all(mapped[p > 0.0] > 0.0)
        for r in index:
            alone = _power_map(packed[r:r + 1].copy(), d2[r:r + 1], p[r:r + 1], index[r:r + 1])
            assert np.array_equal(alone[0], mapped[r])


def stack_first_power_map(packed, targets, p):
    """The lifted map with A_q = G_q^(-1) D^2 G_q^(-1) formed stack-first.

    The Gram stack is spread from its packed reals, inverted by
    ``_guard_gram``, multiplied one subcarrier at a time and gathered into
    packed order, as every (Q, K) did before the sweep path formed A from
    the stack-last inverse.
    """
    n, k = len(p), targets.shape[-2]
    q = packed.shape[1] // (k * k)
    gather, spread, sign = _packing(k)[:3]
    packed_gram = (packed @ np.sqrt(p)[:, :, None]).reshape(n, q, k * k)
    gram = (np.take(packed_gram, spread, axis=-1) * sign).view(complex).reshape(n, q, k, k)
    inverse = _guard_gram(gram, np.arange(n))
    lifted = (inverse @ (targets * inverse)).reshape(n, q, k * k).view(float)
    coefficients = np.take(lifted, gather, axis=-1).reshape(n, 1, q * k * k)
    return np.maximum(p * (coefficients @ packed)[:, 0], 0.0)


@pytest.mark.parametrize("subcarriers", [32, 33, 256])
@pytest.mark.parametrize("k_users", [1, 2, 3, 4])
def test_stack_last_power_map_matches_the_stack_first_form(k_users, subcarriers):
    # The sweep path forms A from the stack-last inverse as whole-stack
    # products; the stack-first matrix products are the reference. Both
    # round by about eps times the Gram condition number in each of K
    # terms, so they must agree to 16 K eps times the condition estimate,
    # relative to each row's largest power; dead antennas stay exactly 0.
    assert k_users <= STACK_LAST_MAP_MAX_USERS
    rng = np.random.default_rng(80 + 10 * k_users + subcarriers)
    eps = np.finfo(float).eps
    h, d = stack([draw_cell_instance(32, k_users, subcarriers, rng) for _ in range(3)])
    p = dead_antenna_powers(rng, 3, 32)
    packed, d2 = _packed_products(h), squared_targets(d)
    mapped = _power_map(packed, d2, p, np.arange(3))
    reference = stack_first_power_map(packed, d2, p)
    bound = 16 * k_users * eps * gram_condition(h, p)
    assert np.all(np.abs(mapped - reference) <= bound * reference.max(axis=1, keepdims=True))
    assert np.all(mapped[p == 0.0] == 0.0)


def reference_sweep_inverse(a):
    """The Gauss-Jordan sweep with a division by the pivot and a broadcast temporary.

    ``_sweep_inverse`` scales the pivot row by the pivot's reciprocal and
    forms the rank-1 update in a scratch array; it must keep these bits.
    """
    k = len(a)
    pivots = np.empty((k, a.shape[-1]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(k):
            pivot = pivots[j]
            pivot[...] = a[j, j].real
            column = a[:, j].copy()
            column[j] = 0.0
            a[:, j] = 0.0
            a[j, j] = 1.0
            a[j] /= pivot
            a -= column[:, None] * a[j]
    return pivots


def reference_stack_last_power_map(packed, targets, p):
    """The stack-last lifted map as first written: powers, pivots and the swept Gram stack.

    The (K, K, R * Q) Gram stack is spread by fancy indexing, inverted by
    ``reference_sweep_inverse``, and A's packed reals are whole-stack
    products summed over an axis, concatenated and transposed.
    """
    n, k = len(p), targets.shape[-2]
    q = packed.shape[1] // (k * k)
    spread, sign, rows, cols = _packing(k)[1:5]
    packed_gram = (packed @ np.sqrt(p)[:, :, None]).reshape(n * q, k * k)
    a = np.empty((k, k, n * q), dtype=complex)
    floats = a.view(float).reshape(k * k, n * q, 2).transpose(0, 2, 1)
    np.multiply(packed_gram.T[spread.reshape(k * k, 2)], sign.reshape(k * k, 2, 1), out=floats)
    gram = a.copy()
    pivots = reference_sweep_inverse(a)
    inverse = a.reshape(k, k, n, q)
    scaled = inverse * targets.reshape(n, k).T[:, :, None]
    transposed = inverse.swapaxes(0, 1)
    lifted = [(scaled * transposed).sum(axis=1).real]
    if k > 1:
        upper = (scaled[rows] * transposed[cols]).sum(axis=1)
        lifted += [upper.real, upper.imag]
    coefficients = np.concatenate(lifted).transpose(1, 2, 0).reshape(n, 1, q * k * k)
    return np.maximum(p * (coefficients @ packed)[:, 0], 0.0), pivots, gram


@pytest.mark.parametrize("realizations", [1, 3])
@pytest.mark.parametrize("subcarriers", [32, 33, 256])
@pytest.mark.parametrize("k_users", [1, 2, 3, 4])
def test_stack_last_power_map_keeps_the_reference_bits(k_users, subcarriers, realizations):
    # The sweep path's map, its sweep's pivots and its inverse are the
    # reference's to the bit, dead antennas included.
    rng = np.random.default_rng(90 + 10 * k_users + subcarriers + realizations)
    instances = [draw_cell_instance(32, k_users, subcarriers, rng) for _ in range(realizations)]
    h, d = stack(instances)
    p = dead_antenna_powers(rng, realizations, 32)
    packed, d2 = _packed_products(h), squared_targets(d)
    reference, pivots, gram = reference_stack_last_power_map(packed, d2, p)
    assert np.array_equal(_power_map(packed, d2, p, np.arange(realizations)), reference)
    swept = gram.copy()
    assert np.array_equal(_sweep_inverse(swept), pivots)
    reference_sweep_inverse(gram)
    assert np.array_equal(swept, gram)


@pytest.mark.parametrize("k_users", [1, 2, 3, 4, 8])
def test_lapack_path_power_map_keeps_the_reference_bits(k_users):
    # At Q = 1 the map takes the LAPACK path, whose arithmetic is the
    # stack-first reference's.
    rng = np.random.default_rng(100 + k_users)
    h, d = stack([draw_cell_instance(32, k_users, 1, rng) for _ in range(3)])
    p = dead_antenna_powers(rng, 3, 32)
    packed, d2 = _packed_products(h), squared_targets(d)
    mapped = _power_map(packed, d2, p, np.arange(3))
    assert np.array_equal(mapped, stack_first_power_map(packed, d2, p))


def test_block_condition_check_at_the_exact_limit():
    # Each realization's largest over smallest is exactly GRAM_CONDITION_LIMIT,
    # the block's pooled one far above it: the block check must defer to
    # the per-realization one, which passes. One float above the limit in
    # realizations 1 and 2 refuses the lower one with the usual message.
    lows = 2.0 ** -np.arange(3.0)  # powers of two: every ratio below is exact
    above = np.nextafter(GRAM_CONDITION_LIMIT, np.inf)
    message = f"Gram condition estimate {above:.3e} exceeds {GRAM_CONDITION_LIMIT:.1e}"
    index = np.array([7, 8, 9])

    def sweep_pivots(highs):
        pivots = np.empty((3, 3, 32))  # (K, R, Q)
        pivots[:] = lows[:, None]
        pivots[1, :, 5] = highs
        return pivots.reshape(3, -1)

    at_limit = GRAM_CONDITION_LIMIT * lows
    assert at_limit.max() / lows.min() > GRAM_CONDITION_LIMIT
    _refuse_bad_pivots(sweep_pivots(at_limit), index)
    with pytest.raises(SingularChannelError) as err:
        _refuse_bad_pivots(sweep_pivots(np.where(lows < 1.0, above * lows, at_limit)), index)
    assert err.value.realization == 8
    assert err.value.reason == message

    # The LAPACK branch squares its ratio of Cholesky diagonals: diagonal
    # Grams whose diagonals are squares of exact ratio 10^6, one float above
    # that in realizations 1 and 2.
    def diagonal_grams(highs):
        gram = np.zeros((3, 1, 2, 2), dtype=complex)
        gram[:, 0, 0, 0] = lows ** 2
        gram[:, 0, 1, 1] = highs ** 2
        return gram

    root = np.sqrt(GRAM_CONDITION_LIMIT)
    assert root * root == GRAM_CONDITION_LIMIT
    inverse = _guard_gram(diagonal_grams(root * lows), index)
    assert np.allclose(inverse[:, 0, 0, 0], lows ** -2.0)
    highs = np.where(lows < 1.0, np.nextafter(root, np.inf) * lows, root * lows)
    squared = (highs[1] / lows[1]) ** 2
    assert squared > GRAM_CONDITION_LIMIT
    with pytest.raises(SingularChannelError) as err:
        _guard_gram(diagonal_grams(highs), index)
    assert err.value.realization == 8
    assert err.value.reason == (
        f"Gram condition estimate {squared:.3e} exceeds {GRAM_CONDITION_LIMIT:.1e}"
    )


def test_power_map_just_inside_the_condition_limit():
    # Two nearly collinear users, moved apart until the Gram condition
    # estimate sits just below GRAM_CONDITION_LIMIT, so the guard passes
    # it. Antenna 0 points along the Gram's strong eigenvector: its exact
    # power is tiny, and the map's cancellation-prone sum for it is rounding
    # of either sign. It must come out finite and nonnegative.
    def near_limit_channel(seed):
        rng = np.random.default_rng(seed)
        g = (rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))) / np.sqrt(2)

        def channel_with(delta):
            h = np.stack([g[0], g[0] + delta * g[1]])
            h[:, 0] = np.linalg.eigh(h[:, 1:] @ h[:, 1:].conj().T)[1][:, -1]
            return h[None]

        delta = 1e-3
        for _ in range(3):
            delta *= np.sqrt(condition_estimate(channel_with(delta)) / (0.8 * GRAM_CONDITION_LIMIT))
        return channel_with(delta)

    def condition_estimate(h):
        chol = np.linalg.cholesky(h @ h.conj().transpose(0, 2, 1))
        diag = np.abs(np.diagonal(chol, axis1=1, axis2=2))
        return (diag.max() / diag.min()) ** 2

    near_limit = [near_limit_channel(seed) for seed in range(61, 69)]
    for channel in near_limit:
        estimate = condition_estimate(channel)
        assert 0.5 * GRAM_CONDITION_LIMIT < estimate < GRAM_CONDITION_LIMIT
    eps = np.finfo(float).eps
    # Tiled over 32 subcarriers, the same Grams take the sweep.
    for subcarriers in (1, 32):
        h = np.stack([np.repeat(c, subcarriers, axis=0) for c in near_limit])
        d = zf_targets(np.full((len(h), 2), 4.0), 1.0, subcarriers)
        p = np.ones((len(h), 8))
        mapped = _power_map(_packed_products(h), squared_targets(d), p, np.arange(len(h)))
        assert np.all(np.isfinite(mapped)) and np.all(mapped >= 0.0)
        assert np.all(mapped[:, 1:] > 0.0)

        # The kernel inverts the same Grams: its ZF residual |HW - D| / |D| on
        # each subcarrier stays within rounding of the condition estimate.
        zf = solve_stack(("zf",), h, d)["zf"]
        for channel, w, targets in zip(h, zf.matrices, d):
            error = np.linalg.norm(channel @ w - np.diag(targets), axis=(1, 2))
            residual = error.max() / np.linalg.norm(targets)
            assert np.isfinite(residual)
            assert residual <= 16 * eps * condition_estimate(channel)


def test_stacked_zf_equals_one_at_a_time():
    rng = np.random.default_rng(37)
    # The Q=32 instances invert by the sweep.
    instances = [draw_cell_instance(8, 2, q, rng) for q in (1, 3, 32, 1, 3, 32, 1, 32)]
    for group in groups_by_shape(instances):
        stacked = solve_stack(("zf",), *stack(group))["zf"]
        for r, (h, d) in enumerate(group):
            assert_same_row(stacked, r, solve_stack(("zf",), h, d)["zf"])
    # The saturating closed form too, with the cap slack and with it binding
    # in every row (a third of the smallest uncapped peak power).
    instances = [draw_cell_instance(8, 1, 1, rng) for _ in range(5)]
    h, d = stack(instances)
    cap = solve_stack(("saturating",), h, d)["saturating"].powers.max(axis=1).min() / 3
    for p_max in (np.inf, cap):
        stacked = solve_stack(("saturating",), h, d, p_max=p_max)["saturating"]
        active = np.count_nonzero(stacked.powers, axis=1)
        assert np.all(active == 1) if p_max == np.inf else np.all(active > 1)
        for r, instance in enumerate(instances):
            alone = solve_stack(("saturating",), *instance, p_max=p_max)["saturating"]
            assert_same_row(stacked, r, alone)


def test_condition_guard_is_per_realization():
    # A weak, nearly collinear pair of users next to a strong, well-spread
    # pair: each passes the guard alone, a guard pooled over both would not.
    # At Q=32 the guard reads the sweep's pivots.
    rng = np.random.default_rng(36)

    def gaussian(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    for subcarriers in (1, 32):
        g = gaussian((subcarriers, 2, 8))
        g[:, 1] = g[:, 0] + 1e-4 * gaussian((subcarriers, 8))
        weak = np.sqrt(1e-13) * g
        strong = np.sqrt(1e-7) * gaussian((subcarriers, 2, 8))
        pooled = np.concatenate([
            np.abs(np.diagonal(np.linalg.cholesky(h @ h.conj().transpose(0, 2, 1)), axis1=1,
                               axis2=2))
            for h in (weak, strong)
        ], axis=None)
        assert (pooled.max() / pooled.min()) ** 2 > GRAM_CONDITION_LIMIT

        d = np.tile(zf_targets([4.0, 6.0], 10.0 ** (-12.6), subcarriers), (3, 1))
        cfg = FixedPointConfig(max_iterations=50)
        h = np.stack([weak, strong, weak])
        stacked = solve_stack(("min_pa",), h, d, cfg)["min_pa"]
        for r in range(3):
            alone = solve_stack(("min_pa",), h[r:r + 1], d[r:r + 1], cfg)["min_pa"]
            assert_same_row(stacked, r, alone)
        stacked = solve_stack(("zf",), h, d)["zf"]
        for r in range(3):
            assert_same_row(stacked, r, solve_stack(("zf",), h[r:r + 1], d[r:r + 1])["zf"])


def test_stacked_errors_name_the_realization():
    rng = np.random.default_rng(38)
    good, d = draw_cell_instance(4, 2, 1, rng)
    deficient = np.array([[[[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]]]])
    for name in ("zf", "min_pa"):
        with pytest.raises(SingularChannelError) as err:
            solve_stack((name,), np.concatenate([good, good, deficient, good]), d.repeat(4, 0))
        assert err.value.realization == 2
        assert str(err.value).startswith("realization 2: ")
    with pytest.raises(DimensionError):
        solve_stack(("min_pa",), np.concatenate([good, good]), d)
    # The saturating fill reports the first instance that falls short, with
    # the message its solve alone gives.
    one, one_d = draw_cell_instance(4, 1, 1, rng)
    weak, faint = (scale * one for scale in (1e-3, 1e-4))
    with pytest.raises(InfeasibleError) as alone:
        solve_stack(("saturating",), weak, one_d, p_max=1.0)
    with pytest.raises(InfeasibleError) as err:
        solve_stack(
            ("saturating",), np.concatenate([one, weak, faint, one]), one_d.repeat(4, 0), p_max=1.0
        )
    assert err.value.reason == alone.value.reason
    assert err.value.realization == 1
    assert str(err.value).startswith("realization 1: ")
    with pytest.raises(DimensionError):
        solve_stack(("saturating",), np.concatenate([one, one]), one_d)
    # At Q=32 the sweep finds the rank-deficient subcarrier of instance 2.
    wide, wide_d = draw_cell_instance(4, 2, 32, rng)
    deficient = wide.copy()
    deficient[0, 17, 1] = deficient[0, 17, 0]
    for name in ("zf", "min_pa"):
        with pytest.raises(SingularChannelError) as err:
            solve_stack((name,), np.concatenate([wide, wide, deficient, wide]), wide_d.repeat(4, 0))
        assert err.value.realization == 2
        assert str(err.value).startswith("realization 2: ")


def test_non_finite_channel_entry_names_the_instance():
    rng = np.random.default_rng(39)
    for k_users, subcarriers, names in (
        (2, 3, ("zf", "min_pa")),
        (1, 1, ("zf", "min_pa", "saturating")),
    ):
        good, d = stack([draw_cell_instance(6, k_users, subcarriers, rng) for _ in range(3)])
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            h = good.copy()
            h[1, -1, -1, 4] = bad
            for name in names:
                with pytest.raises(DomainError, match="instance 1 "):
                    solve_stack((name,), h, d)


def test_guard_refuses_an_overflowed_gram():
    # Finite channel entries near 1e160 overflow the Gram's products, which
    # come out NaN; the guard must refuse that realization, not pass it on.
    # At Q=32 the sweep's pivots must say the same.
    rng = np.random.default_rng(40)
    for subcarriers in (1, 32):
        good, d = draw_cell_instance(4, 2, subcarriers, rng)
        huge = 1e160 * good / good[0, 0, 0, 0]
        h = np.concatenate([good, huge, good])
        with np.errstate(over="ignore", invalid="ignore"):
            gram = h @ h.conj().swapaxes(-1, -2)
            assert not np.all(np.isfinite(gram[1]))
            with pytest.raises(SingularChannelError) as err:
                _guard_gram(gram, np.array([7, 8, 9]))
            assert err.value.realization == 8
            assert err.value.reason == (
                "Gram condition estimate is not finite (NaN or overflowed Gram entries)"
            )
            for name in ("zf", "min_pa"):
                with pytest.raises(SingularChannelError) as err:
                    solve_stack((name,), h, d.repeat(3, 0))
                assert err.value.realization == 1
                assert "estimate is not finite" in str(err.value)
    # A K=1 stack whose every Gram entry overflowed has only infinite pivots.
    with pytest.raises(SingularChannelError, match="estimate is not finite"):
        _guard_gram(np.full((1, 32, 1, 1), complex(np.inf, 0.0)), np.array([0]))


def test_sweep_inverse_matches_lapack():
    # Random Hermitian positive definite stacks with eigenvalues spread over
    # up to eight decades. The sweep and LAPACK both round by about eps
    # times the condition number, so the inverse, and the pivots' condition
    # estimate against the Cholesky one, must agree to 16 K eps times the
    # Cholesky estimate, relative to the largest entry and to the estimate.
    rng = np.random.default_rng(70)
    eps = np.finfo(float).eps
    for r, q, k in ((1, 32, 1), (3, 32, 2), (2, 40, 4), (2, 33, 7), (1, 64, 12), (2, 1, 3)):
        z = rng.standard_normal((r, q, k, k)) + 1j * rng.standard_normal((r, q, k, k))
        u = np.linalg.qr(z)[0]
        gram = (u * 10.0 ** rng.uniform(0, 8, (r, q, 1, k))) @ u.conj().swapaxes(-1, -2)
        swept = gram.reshape(r * q, k, k).transpose(1, 2, 0).copy()
        pivots = _sweep_inverse(swept).reshape(k, r, q)
        inverse = swept.transpose(2, 0, 1).reshape(r, q, k, k)
        reference = np.linalg.inv(gram)
        chol = np.abs(np.linalg.cholesky(gram).diagonal(axis1=-2, axis2=-1))
        estimate = (chol.max(axis=(1, 2)) / chol.min(axis=(1, 2))) ** 2
        bound = 16 * k * eps * estimate
        error = np.abs(inverse - reference).max(axis=(1, 2, 3))
        assert np.all(error <= bound * np.abs(reference).max(axis=(1, 2, 3)))
        swept = pivots.max(axis=(0, 2)) / pivots.min(axis=(0, 2))
        assert np.all(np.abs(swept - estimate) <= bound * estimate)


def test_stacked_solvers_need_one_channel_shape_and_dtype():
    # A stack holds one channel shape and dtype; what is left to refuse is
    # targets of another shape than the stack's (R, K), and an empty stack.
    rng = np.random.default_rng(38)
    for k_users, names in (
        (2, ("zf", "min_pa")),
        (1, ("zf", "min_pa", "saturating")),
    ):
        narrow, d = draw_cell_instance(6, k_users, 1, rng)
        wide, wide_d = draw_cell_instance(6, k_users, 3, rng)
        for name in names:
            for h, targets in (
                (np.concatenate([narrow, narrow]), d),
                (narrow, np.concatenate([d, wide_d])),
                (wide, wide_d[:, 1:]),
                (narrow[:0], d[:0]),
            ):
                with pytest.raises(DimensionError):
                    solve_stack((name,), h, targets)
    # The saturating fill takes K=1, Q=1 instances only.
    for k_users, subcarriers in ((2, 1), (1, 3)):
        h, d = draw_cell_instance(6, k_users, subcarriers, rng)
        with pytest.raises(DimensionError, match="K=1 and Q=1"):
            solve_stack(("saturating",), h.repeat(2, 0), d.repeat(2, 0))


def test_error_names_the_realization_after_others_converge():
    # The two unit-noise instances reach their exact 1 W ZF powers at
    # iteration 1 and leave the working set; the faint one then loses every
    # antenna to the floor, and the error still names its list position.
    unit = narrowband(np.eye(2), [1.0, 1.0], 1.0)
    faint = narrowband(np.eye(2), [1.0, 1.0], 1e-6)
    cfg = FixedPointConfig(dead_antenna_floor=1e-3)
    with pytest.raises(SingularChannelError) as err:
        solve_stack(("min_pa",), *stack([unit, unit, faint]), cfg)
    assert err.value.realization == 2


@pytest.mark.parametrize("zeroed, short, sweep", [
    ({1: {1: [0], 2: [1, 2, 3, 4]}, 2: {1: [0]}}, 1, 2),
    ({1: {1: [0], 2: [1, 2], 3: [3, 4]}, 2: {2: [0, 1, 2, 3], 3: [4]}}, 1, 3),
    ({1: {1: [0], 4: [1, 2, 3, 4]}, 2: {1: [0], 2: [1, 2], 3: [3, 4]}}, 2, 3),
])
def test_short_rows_are_refused_at_the_sweep_that_leaves_them_short(
    monkeypatch, zeroed, short, sweep
):
    # A scripted map on K = 2 users and M = 6 antennas, with the clamp off
    # (dead_antenna_floor = 0), so every zero comes from the map. Sweep 1
    # zeroes antennas 2-5 of realization 0, which then stays as it is, so it
    # converges and leaves after sweep 2, taking its zeros along. Sweep s
    # zeroes the antennas ``zeroed[r][s]`` of realization r = 1, 2, and
    # scales every other power by 1.5. The fixed point must refuse the
    # lowest realization left with fewer than K antennas, right after the
    # sweep that left it so.
    k, m = 2, 6
    zeroed = {0: {1: [2, 3, 4, 5]}, **zeroed}
    sweeps = []

    def scripted_map(packed, targets, p, index):
        sweeps.append(len(sweeps) + 1)
        p_new = p * 1.5
        for row, r in enumerate(index.tolist()):
            if r == 0:
                p_new[row] = p[row]
            p_new[row, zeroed[r].get(sweeps[-1], [])] = 0.0
        return p_new

    monkeypatch.setattr("energymimo.precoding._power_map", scripted_map)
    h = np.ones((3, 1, k, m), dtype=complex)
    packed, targets = np.zeros((3, k * k, m)), np.ones((3, 1, k, 1))
    cfg = FixedPointConfig(dead_antenna_floor=0.0, max_iterations=20)
    with pytest.raises(SingularChannelError) as err:
        _fixed_point(h, np.ones((3, k)), packed, targets, cfg, np.full((3, m), 2.0), None)
    assert err.value.realization == short
    assert err.value.reason == "fewer active antennas than users; cannot hold the ZF constraint"
    assert len(sweeps) == sweep


def test_single_user_narrowband_examples():
    # Without a cap the saturating precoder is the narrowband optimum.
    sol = saturating([1.0], 4.0, 1.0, np.inf)
    assert sol.matrices.ravel() == pytest.approx([2.0])
    sol2 = saturating([2.0, 1.0], 4.0, 1.0, np.inf)
    assert sol2.powers[0] == pytest.approx([1.0, 0.0])
    tie = saturating([1.0, 1.0], 4.0, 1.0, np.inf)
    assert np.flatnonzero(tie.powers[0]).tolist() == [0]
    # selecting the other tied antenna consumes exactly the same power
    manual = np.zeros(2, dtype=complex)
    manual[1] = 2.0
    assert np.sqrt(tie.powers.sum()) == pytest.approx(
        np.sqrt(per_antenna_powers(manual[None, :, None]).sum())
    )
    with pytest.raises(InfeasibleError):
        saturating([0.0, 0.0], 4.0, 1.0, np.inf)
    with pytest.raises(DimensionError):
        saturating(np.ones((2, 2)), 4.0, 1.0, np.inf)
    for p_max in (0.0, -1.0, np.nan):
        with pytest.raises(DomainError, match="p_max must be positive"):
            saturating([1.0, 1.0], 4.0, 1.0, p_max)


def test_saturating_matches_unconstrained_when_slack():
    rng = np.random.default_rng(28)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    free = saturating(h, 2.0, 0.5, np.inf)
    capped = saturating(h, 2.0, 0.5, p_max=1e9)
    assert capped.powers == pytest.approx(free.powers)


def test_saturating_partial_fill():
    # target 1.5 with unit gains: one saturated antenna plus p = 0.25.
    sol = saturating([1.0, 1.0], gamma=2.25, noise_std=1.0, p_max=1.0)
    assert np.sort(sol.powers[0])[::-1] == pytest.approx([1.0, 0.25])
    assert np.max(sol.powers) <= 1.0


def test_saturating_boundary_uses_all_antennas():
    # sum |h| sqrt(p_max) equals the target exactly.
    sol = saturating([1.0, 2.0], gamma=9.0, noise_std=1.0, p_max=1.0)
    assert sol.powers[0] == pytest.approx([1.0, 1.0])


def test_saturating_infeasible_reports_deficit():
    with pytest.raises(InfeasibleError, match=r"\(deficit 2\)"):
        saturating([1.0], gamma=9.0, noise_std=1.0, p_max=1.0)


def test_saturating_meets_qos():
    rng = np.random.default_rng(29)
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    gamma, sigma = 4.0, 1.0  # several antennas needed, still feasible
    sol = saturating(h, gamma, sigma, p_max=1.0)
    achieved = abs(h @ sol.matrices[0, 0, :, 0])
    assert achieved == pytest.approx(sigma * np.sqrt(gamma), rel=1e-12)
    assert np.max(sol.powers) <= 1.0 + 1e-15
    assert np.count_nonzero(sol.powers) > 1
    assert sol.converged.tolist() == [True]
    assert sol.iterations.tolist() == [0] and sol.residual.tolist() == [0.0]


def reference_saturating(h, target, p_max):
    """The saturating fill of one channel row as a loop over antennas by gain.

    Returns the (M,) precoder, or None when the saturated sum falls short.
    """
    gains = np.abs(h)
    powers = np.zeros(len(h))
    reached = 0.0
    for m in np.argsort(-gains, kind="stable"):
        if gains[m] == 0.0:  # so are the remaining ones
            return None
        if reached + gains[m] * np.sqrt(p_max) >= target:
            powers[m] = ((target - reached) / gains[m]) ** 2
            break
        powers[m] = p_max
        reached = reached + gains[m] * np.sqrt(p_max)
    else:
        return None
    w = np.zeros(len(h), dtype=complex)
    hot = powers > 0.0
    w[hot] = np.sqrt(powers[hot]) * np.conj(h[hot]) / gains[hot]
    return w


def test_saturating_equals_reference_loop():
    # Random stacks with zero gains, tied gains and caps from slack to
    # infeasible: every feasible stack equals the loop bit for bit, and an
    # infeasible one raises for its first short row.
    rng = np.random.default_rng(41)
    outcomes = set()
    for _ in range(300):
        r, m = rng.integers(1, 6), rng.integers(1, 20)
        h = rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m))
        h *= 10 ** rng.uniform(-3, 1)
        h[rng.random((r, m)) < 0.15] = 0.0
        if rng.random() < 0.3:
            h[:, 1::2] = h[:, ::2][:, :m // 2]
        p_max = (np.inf, 5.0, 1.0, 0.3)[rng.integers(4)]
        noise = 10 ** rng.uniform(-2, 0.5)
        d = zf_targets(10 ** rng.uniform(-2, 1.5, r), noise, 1)[:, None]
        channels = h[:, None, None, :]
        expected = [reference_saturating(row, target, p_max) for row, target in zip(h, d[:, 0])]
        short = [i for i, w in enumerate(expected) if w is None]
        if short:
            with pytest.raises(InfeasibleError) as err:
                solve_stack(("saturating",), channels, d, p_max=p_max)
            first = slice(short[0], short[0] + 1)
            with pytest.raises(InfeasibleError) as alone:
                solve_stack(("saturating",), channels[first], d[first], p_max=p_max)
            assert err.value.reason == alone.value.reason
            assert err.value.realization == short[0]
        else:
            solved = solve_stack(("saturating",), channels, d, p_max=p_max)
            matrices = solved["saturating"].matrices
            assert np.array_equal(matrices[:, 0, :, 0], np.stack(expected))
        outcomes.add(bool(short))
    assert outcomes == {False, True}


def test_los_allocation_corner_and_uniform():
    rng = np.random.default_rng(30)
    h = los(4, 1, 2, rng)[None]
    gamma, sigma = 5.0, 2.0
    d = zf_targets([[gamma]], sigma**2, 2)
    corner = np.zeros(4)
    corner[0] = 1.0
    sol = los_allocation_precoders(h.repeat(2, 0), d.repeat(2, 0), [corner, np.full(4, 0.25)])
    assert sol.powers[0, 0] == pytest.approx(sigma**2 * gamma)
    assert sol.powers[0, 1:] == pytest.approx(np.zeros(3))
    assert sol.powers[1] == pytest.approx(np.full(4, sigma**2 * gamma / 16.0))


def test_los_allocation_invariant_consumption(table_pa):
    rng = np.random.default_rng(31)
    h = los(6, 1, 4, rng)[None]
    gamma, sigma = 7.0, 1.5
    d = zf_targets([[gamma]], sigma**2, 4)
    rng2 = np.random.default_rng(32)
    w = rng2.random((4, 6))
    w /= w.sum(axis=1, keepdims=True)
    sol = los_allocation_precoders(h.repeat(4, 0), d.repeat(4, 0), w)
    values = pa_consumed_power(sol.powers, table_pa)
    expected = table_pa.alpha * sigma * np.sqrt(gamma)
    for v in values:
        assert v == pytest.approx(expected, rel=1e-12)
    for r in range(4):
        assert_same_row(sol, r, los_allocation_precoders(h, d, w[r:r + 1]))


def test_los_allocation_rejects_bad_inputs():
    rng = np.random.default_rng(33)
    h = los(3, 1, 2, rng)[None]
    d = zf_targets([[2.0]], 1.0, 2)
    for weights in ([0.5, 0.2, 0.2], [1.5, -0.25, -0.25], [np.nan, 0.5, 0.5]):
        with pytest.raises(DomainError):
            los_allocation_precoders(h, d, [weights])
    bad = np.full((1, 1, 1, 3), 2.0 + 0j)
    with pytest.raises(DomainError):
        los_allocation_precoders(bad, zf_targets([[2.0]], 1.0, 1), np.full((1, 3), 1 / 3))
    with pytest.raises(DimensionError):
        los_allocation_precoders(h, d, np.full(3, 1 / 3))
    two_users = los(3, 2, 2, rng)[None]
    with pytest.raises(DimensionError):
        los_allocation_precoders(
            two_users, zf_targets([[2.0, 2.0]], 1.0, 2), np.full((1, 3), 1 / 3)
        )


def test_los_allocation_meets_per_subcarrier_qos():
    rng = np.random.default_rng(34)
    h = los(5, 1, 8, rng)[None]
    gamma, sigma = 4.0, 1.0
    sol = los_allocation_precoders(h, zf_targets([[gamma]], sigma**2, 8), np.full((1, 5), 0.2))
    prods = h[0] @ sol.matrices[0]
    assert np.allclose(np.abs(prods), sigma * np.sqrt(gamma / 8.0), rtol=1e-12)


def test_one_qos_splits_over_each_channels_subcarriers(table_pa):
    # zf_targets splits each gamma_k over the Q subcarriers of the channel
    # it is made for, so one set of SINR targets serves a Q=1 and a Q=4
    # channel, each held to (gamma_k / Q)^(1/2) sigma.
    rng = np.random.default_rng(39)
    gamma, noise_power = [2.0, 5.0], 0.5
    cfg = FixedPointConfig(tolerance=1e-11, max_iterations=50_000)
    for subcarriers in (1, 4):
        h = rayleigh(6, 2, subcarriers, np.ones(2), rng)[None]
        d = zf_targets(gamma, noise_power, subcarriers)[None]
        min_pa = solve_stack(("min_pa",), h, d, cfg)["min_pa"]
        for solution in (solve_stack(("zf",), h, d)["zf"], min_pa):
            assert zf_residual(h[0], d[0], solution.matrices[0]) <= ZF_TOLERANCE
        # The oracle's residual is against the targets it is given; its
        # optimum matching the fixed point's shows that both hold them.
        oracle = solve_min_pa_bruteforce_block(h, d, table_pa)
        assert oracle.residual[0] <= 1e-9 * np.sqrt(noise_power) * np.sqrt(5.0 / subcarriers)
        expected = pa_consumed_power(min_pa.powers[0], table_pa)
        assert oracle.objective[0] == pytest.approx(expected, rel=1e-6)
