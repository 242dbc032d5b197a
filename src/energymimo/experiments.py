"""Monte-Carlo experiment engine behind the CLI commands.

Each realization draws its randomness from an independent stream seeded by
master seed + realization index, so results are identical regardless of how
the realizations are scheduled; rows are buffered and emitted in
realization order. Every Monte-Carlo command works on fixed-size blocks of
realizations: ``run``, ``convergence`` and ``asymptotic`` q_error draw a
block and solve it with one call to the stacked solvers, and ``asymptotic``
k_sweep plans a block through the array antenna-count planner. The thread
pool maps over those blocks, whose boundaries depend only on the scenario.

A command returns an :class:`ExperimentResult` whose rows are tuples of cells
in ``fieldnames`` order, ``None`` for an empty cell. Each block is accounted
as arrays (one entry per realization, or per iteration for ``convergence``)
and its rows are zipped from their ``.tolist()`` columns; summaries come from
``zip(*rows)`` columns or from arrays the command holds.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import oracle
from .asymptotic import (
    asymptotic_bs_power,
    asymptotic_pa_power,
    optimal_ma_plans,
    solve_quartic_ma,
    trace_term,
)
from .channel import (
    FreqCorrelation,
    QosTargets,
    draw_los_channel,
    draw_rayleigh_channel,
    draw_user_distances,
    large_scale_fading,
    target_sinr,
)
from .config import AS1_PRECODERS, ExperimentConfig
from .errors import (
    ConfigError, EnergyMimoError, InfeasibleError, OracleSizeError, SingularChannelError,
)
from .model import bs_consumed_power, gain_metrics, pa_consumed_power, per_antenna_powers
from .precoding import (
    FixedPointConfig,
    PrecoderSolution,
    min_pa_precoders,
    single_user_saturating_precoder,
    zf_precoders,
)

# Channel entries (Q * K * M per realization) stacked into one solver block.
# Block boundaries depend only on the scenario, never on the thread count, so
# the output does not either.
BLOCK_ELEMENTS = 32768
# (realization, K) pairs that ``asymptotic`` k_sweep plans and turns into rows
# at once; it bounds the arrays and column lists held beside the rows.
PLAN_BLOCK = 2048

RUN_FIELDS = (
    "seed", "realization", "solver", "p_tx", "p_pas", "p_bs",
    "m_active", "gain_pas", "gain_bs", "discarded",
)
CONVERGENCE_FIELDS = ("realization", "iteration", "residual", "dist_sq_oracle")
K_SWEEP_FIELDS = (
    "k_users", "realization", "trace", "m_tilde", "m_hat", "m_dagger",
    "p_bar", "p_pas_bar", "p_bs_dagger", "p_bs_full", "p_bs_minimal",
    "gain_vs_full", "gain_vs_minimal", "feasible",
)
Q_ERROR_FIELDS = (
    "subcarriers", "realizations", "discarded", "mean_abs_error",
    "var_abs_error", "mean_p_pas_sim", "mean_p_pas_asym",
)
MA_CURVE_FIELDS = ("m_active", "p_pas_bar", "p_bs_bar", "is_m_star")


@dataclass
class ExperimentResult:
    """Rows are tuples of cells in ``fieldnames`` order; ``None`` is an empty cell."""

    fieldnames: tuple[str, ...]
    rows: list[tuple]
    summary: dict


def _realization_rng(cfg: ExperimentConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(cfg.scenario.seed + index)


def _draw_users(cfg: ExperimentConfig, rng: np.random.Generator, k_users: int):
    """Large-scale fading and SINR targets of ``k_users`` users dropped in the cell."""
    sc = cfg.scenario
    beta = large_scale_fading(draw_user_distances(k_users, sc.geometry(), rng))
    return beta, target_sinr(beta, sc.sinr_ref)


def _draw_scenario(cfg: ExperimentConfig, rng: np.random.Generator, subcarriers: int):
    """One realization over ``subcarriers``: its channel and its QoS targets."""
    sc = cfg.scenario
    beta, gamma = _draw_users(cfg, rng, sc.k_users)
    qos = QosTargets(gamma=gamma, noise_power=sc.noise_power, subcarriers=subcarriers)
    if sc.channel == "los":
        channel = draw_los_channel(sc.m_antennas, sc.k_users, subcarriers, rng)
    else:
        correlation = FreqCorrelation(sc.freq_taps, sc.freq_decay) if sc.freq_taps > 0 else None
        channel = draw_rayleigh_channel(
            sc.m_antennas, sc.k_users, subcarriers, beta, rng, correlation
        )
    return channel, qos


def _draw_block(cfg: ExperimentConfig, block: range, subcarriers: int):
    """Channels and QoS targets of the realizations in ``block``, each on its own stream."""
    return zip(*(_draw_scenario(cfg, _realization_rng(cfg, index), subcarriers) for index in block))


@contextmanager
def _global_index(block: range):
    """Re-label a stacked solve's SingularChannelError with the realization index."""
    try:
        yield
    except SingularChannelError as exc:
        raise SingularChannelError(exc.reason, realization=block[exc.realization]) from exc


def _solve_block(name: str, channels, qos_list, cfg: ExperimentConfig) -> PrecoderSolution:
    """One solver's stacked solution of a block; its ``powers`` are (R, M)."""
    if name == "zf":
        return zf_precoders(channels, qos_list)
    if name == "min_pa":
        return min_pa_precoders(channels, qos_list, cfg.fixed_point())
    if name == "saturating":
        # The closed form takes one K=1, Q=1 instance at a time; its (1, M, 1)
        # precoders fill the block's rows.
        matrices = np.zeros((len(channels), 1, cfg.scenario.m_antennas, 1), dtype=complex)
        for w, channel, qos in zip(matrices, channels, qos_list):
            w[...] = single_user_saturating_precoder(
                channel.per_subcarrier[0, 0, :], float(qos.gamma[0]), qos.noise_std,
                cfg.scenario.p_max_watts,
            ).matrices
        return PrecoderSolution(matrices, per_antenna_powers(matrices))
    raise EnergyMimoError(f"unknown solver {name!r}")


def _map(cfg: ExperimentConfig, worker, blocks: list[range]) -> list:
    """The lists ``worker(block)`` returns, joined in block order."""
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(worker, blocks))
    else:
        parts = map(worker, blocks)
    return [item for part in parts for item in part]


def _blocks(count: int, size: int) -> list[range]:
    size = max(1, size)
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def _realization_blocks(cfg: ExperimentConfig, subcarriers: int) -> list[range]:
    sc = cfg.scenario
    return _blocks(cfg.realizations, BLOCK_ELEMENTS // (subcarriers * sc.k_users * sc.m_antennas))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-realization power reports and gains for the selected precoders."""
    pa = cfg.scenario.pa_model()
    bs = cfg.scenario.bs_model()
    p_max = cfg.scenario.p_max_watts

    def solve_block(block: range):
        channels, qos_list = _draw_block(cfg, block, cfg.scenario.subcarriers)
        # Every solve runs before the ZF result is dropped: freeing that buffer first
        # changes how glibc allocates the fixed point's temporaries, about 30% slower.
        with _global_index(block):
            solved = {name: _solve_block(name, channels, qos_list, cfg) for name in cfg.precoders}
        powers = {name: solution.powers for name, solution in solved.items()}
        discarded = np.zeros(len(block), dtype=int)
        for name in AS1_PRECODERS:
            if cfg.discard_over_pmax and name in powers:
                discarded |= np.any(powers[name] > p_max, axis=1)
        discarded = discarded.tolist()
        reports = {name: bs_consumed_power(stack, pa, bs) for name, stack in powers.items()}
        reference = reports.get("zf")
        no_gain = [None] * len(block)
        by_solver = []
        for name in cfg.precoders:
            report = reports[name]
            gains = (
                [gain.tolist() for gain in gain_metrics(reference, report)]
                if reference is not None else (no_gain, no_gain)
            )
            by_solver.append(zip(
                repeat(cfg.scenario.seed), block, repeat(name),
                report.p_tx.tolist(), report.p_pas.tolist(), report.p_bs.tolist(),
                report.m_active.tolist(), *gains, discarded,
            ))
        # One row per precoder for each realization, in ``cfg.precoders`` order.
        return [row for rows in zip(*by_solver) for row in rows]

    rows = _map(cfg, solve_block, _realization_blocks(cfg, cfg.scenario.subcarriers))
    column = dict(zip(RUN_FIELDS, zip(*rows)))
    solvers = len(cfg.precoders)
    discarded = column["discarded"][::solvers]
    summary = {"realizations": cfg.realizations, "discarded": sum(discarded)}
    if "zf" in cfg.precoders:
        for j, name in enumerate(cfg.precoders):
            for field in ("gain_pas", "gain_bs"):
                kept = [g for g, d in zip(column[field][j::solvers], discarded) if not d]
                if kept:
                    summary[f"mean_{field}[{name}]"] = float(np.mean(kept))
    return ExperimentResult(RUN_FIELDS, rows, summary)


def convergence_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-iteration residuals and squared distance to the oracle optimum."""
    sc = cfg.scenario
    pa = sc.pa_model()
    warned = [False]

    def oracle_powers(index: int, channel, qos):
        if sc.k_users == 1 and sc.subcarriers == 1:
            return oracle.analytic_single_user(channel.per_subcarrier[0, 0, :], qos, pa).powers
        return oracle.solve_min_pa_bruteforce(
            channel, qos, pa,
            starts=cfg.oracle_starts,
            rng=np.random.default_rng(sc.seed + 10_000 + index),
            max_m=cfg.oracle_max_m,
            max_k=cfg.oracle_max_k,
            max_q=cfg.oracle_max_q,
        ).powers

    def solve_block(block: range):
        channels, qos_list = _draw_block(cfg, block, sc.subcarriers)
        with _global_index(block):
            solution = min_pa_precoders(channels, qos_list, cfg.fixed_point(record_history=True))
        # The histories, realization after realization, as one (sum of lengths, M)
        # array; each holds the start and then one iterate per iteration.
        iterations, history = solution.iterations, solution.history
        first = np.cumsum(iterations + 1) - (iterations + 1)
        iteration = np.arange(len(history)) - np.repeat(first, iterations + 1)
        step = iteration > 0
        residual = np.abs(np.diff(history, axis=0)).max(axis=1)[step[1:]]
        optimum = None
        if cfg.oracle:
            try:
                optimum = np.array([oracle_powers(*args) for args in zip(block, channels, qos_list)])
            except OracleSizeError as exc:
                if not warned[0]:
                    warned[0] = True
                    print(f"warning: oracle skipped ({exc})", file=sys.stderr)
        dist, final_dist = repeat(None), np.zeros(0)
        if optimum is not None:
            dist_all = np.sum((history - np.repeat(optimum, iterations + 1, axis=0)) ** 2, axis=1)
            dist, final_dist = dist_all[step].tolist(), dist_all[first + iterations][iterations > 0]
        realization = np.repeat(np.arange(block.start, block.stop), iterations)
        rows = list(zip(realization.tolist(), iteration[step].tolist(), residual.tolist(), dist))
        return [(rows, iterations, solution.converged, final_dist)]

    parts = _map(cfg, solve_block, _realization_blocks(cfg, sc.subcarriers))
    rows = [row for block_rows, _, _, _ in parts for row in block_rows]
    iterations, converged, final_dists = (
        np.concatenate(columns) for columns in list(zip(*parts))[1:]
    )
    summary = {
        "mean_iterations": float(np.mean(iterations)),
        "converged": int(np.count_nonzero(converged)),
        "realizations": cfg.realizations,
    }
    if final_dists.size:
        summary["mean_final_dist_sq"] = float(np.mean(final_dists))
    return ExperimentResult(CONVERGENCE_FIELDS, rows, summary)


def asymptotic_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Asymptotic sweeps: antenna plans vs K, finite-Q error, or BS curve."""
    if cfg.asym_mode == "k_sweep":
        return _asymptotic_k_sweep(cfg)
    sc = cfg.scenario
    if sc.m_antennas <= sc.k_users:
        raise InfeasibleError(f"zero forcing needs M > K, got M={sc.m_antennas}, K={sc.k_users}")
    if cfg.asym_mode == "q_error":
        return _asymptotic_q_error(cfg)
    return _asymptotic_ma_curve(cfg)


def _asymptotic_k_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    sc = cfg.scenario
    pa = sc.pa_model()
    bs = sc.bs_model()
    m = sc.m_antennas
    loads = list(range(cfg.k_min, cfg.k_max + 1))

    def plan_block(block: range):
        traces = []
        for index in block:
            # One nested user drop per realization: user k's position is shared
            # by every K >= k, which keeps the sweep coupled across loads.
            beta, gamma = _draw_users(cfg, _realization_rng(cfg, index), cfg.k_max)
            terms = gamma * sc.noise_power / beta
            # Each prefix is summed on its own: np.sum adds pairwise, so a
            # running cumsum would change the last bits of the trace.
            traces.append([terms[:k].sum() for k in loads])
        k = np.tile(loads, len(block))
        trace = np.array(traces).ravel()
        plan = optimal_ma_plans(m, k, trace, pa, bs, sc.p_max_watts)
        feasible = plan.feasible
        p_bs_full = np.full(trace.shape, np.nan)
        p_bs_minimal = np.full(trace.shape, np.nan)
        p_bs_full[feasible] = asymptotic_bs_power(m, k[feasible], trace[feasible], pa, bs)
        p_bs_minimal[feasible] = asymptotic_bs_power(
            k[feasible] + 1, k[feasible], trace[feasible], pa, bs
        )
        columns = (
            plan.m_tilde, plan.m_hat, plan.m_dagger, plan.p_bar, plan.p_pas_bar,
            plan.p_bs_bar, p_bs_full, p_bs_minimal,
            p_bs_full / plan.p_bs_bar, p_bs_minimal / plan.p_bs_bar,
        )
        empty = (None,) * len(columns)
        realization = np.repeat(np.arange(block.start, block.stop), len(loads))
        return [
            (k_users, index, trace_k, *(cells if ok else empty), int(ok))
            for k_users, index, trace_k, ok, *cells in zip(
                k.tolist(), realization.tolist(), trace.tolist(), feasible.tolist(),
                *(column.tolist() for column in columns),
            )
        ]

    rows = _map(cfg, plan_block, _blocks(cfg.realizations, PLAN_BLOCK // len(loads)))
    summary = {"realizations": cfg.realizations, "k_range": (cfg.k_min, cfg.k_max)}
    column = dict(zip(K_SWEEP_FIELDS, zip(*rows)))
    for k in (cfg.k_min, cfg.k_max):
        gains = [
            gain
            for load, gain, ok in zip(column["k_users"], column["gain_vs_full"], column["feasible"])
            if ok and load == k
        ]
        if gains:
            summary[f"mean_gain_vs_full[K={k}]"] = float(np.mean(gains))
    return ExperimentResult(K_SWEEP_FIELDS, rows, summary)


def _asymptotic_q_error(cfg: ExperimentConfig) -> ExperimentResult:
    # The asymptotic-regime precoder is the per-subcarrier ZF, so the
    # finite-Q consumption is simulated with it; the consumption-minimizing
    # iteration keeps a small optimality gap below the asymptote that is not
    # what the deterministic formula models. The formula's inverse-Wishart
    # trace holds only for i.i.d. Rayleigh subcarriers.
    sc = cfg.scenario
    if sc.channel != "rayleigh" or sc.freq_taps > 0:
        raise ConfigError("q_error needs channel = rayleigh and freq_taps = 0")
    pa = sc.pa_model()
    rows = []
    summary = {"realizations": cfg.realizations, "q_list": cfg.q_list}
    for q in cfg.q_list:
        def solve_block(block: range, q=q):
            channels, qos_list = _draw_block(cfg, block, q)
            with _global_index(block):
                powers = zf_precoders(channels, qos_list).powers
            trace = np.array([
                trace_term(channel.large_scale, qos.gamma, sc.noise_power)
                for channel, qos in zip(channels, qos_list)
            ])
            return [(
                pa_consumed_power(powers, pa),
                asymptotic_pa_power(sc.m_antennas, sc.k_users, trace, pa),
                np.any(powers > sc.p_max_watts, axis=1),
            )]

        p_sim, p_asym, over_cap = (
            np.concatenate(columns)
            for columns in zip(*_map(cfg, solve_block, _realization_blocks(cfg, q)))
        )
        kept = ~(over_cap & cfg.discard_over_pmax)
        p_sim, p_asym = p_sim[kept], p_asym[kept]
        stats = (None,) * 4
        if kept.any():
            errors = np.abs(p_sim - p_asym)
            stats = (
                float(errors.mean()), float(errors.var()), float(p_sim.mean()), float(p_asym.mean())
            )
            summary[f"mean_abs_error[Q={q}]"] = stats[0]
        rows.append((q, len(p_sim), len(kept) - len(p_sim), *stats))
    return ExperimentResult(Q_ERROR_FIELDS, rows, summary)


def _asymptotic_ma_curve(cfg: ExperimentConfig) -> ExperimentResult:
    sc = cfg.scenario
    pa = sc.pa_model()
    bs = sc.bs_model()
    k = sc.k_users

    trace = float(np.mean([
        trace_term(*_draw_users(cfg, _realization_rng(cfg, index), k), sc.noise_power)
        for index in range(cfg.realizations)
    ]))
    counts = np.arange(k + 1, sc.m_antennas + 1)
    p_bs = asymptotic_bs_power(counts, k, trace, pa, bs)
    star = int(counts[np.argmin(p_bs)])  # the first minimum: ties go to fewer antennas
    rows = [
        (n, p_pas, value, int(n == star))
        for n, p_pas, value in zip(
            counts.tolist(), asymptotic_pa_power(counts, k, trace, pa).tolist(), p_bs.tolist()
        )
    ]
    summary = {"trace": trace, "m_star": star, "realizations": cfg.realizations}
    return ExperimentResult(MA_CURVE_FIELDS, rows, summary)


VALIDATION_FIELDS = ("check", "passed", "detail")


def validate_suite(cfg: ExperimentConfig) -> ExperimentResult:
    """Cross-check the main solvers against the independent oracles."""
    pa = cfg.scenario.pa_model()
    bs = cfg.scenario.bs_model()
    rng = np.random.default_rng(cfg.scenario.seed)
    rows = []

    # Fixed point vs null-space descent on small random instances of mixed
    # shapes, one solve each. The oracle draws its starts from the same stream,
    # so it runs right after each draw.
    fixed_point = FixedPointConfig(tolerance=1e-10, max_iterations=20000)
    worst_rel = 0.0
    instances = 12
    for _ in range(instances):
        m = int(rng.integers(4, 7))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, 5))
        beta = np.full(k, 1e-11)
        gamma = rng.uniform(2.0, 40.0, size=k)
        qos = QosTargets(gamma=gamma, noise_power=cfg.scenario.noise_power, subcarriers=q)
        channel = draw_rayleigh_channel(m, k, q, beta, rng)
        ref = oracle.solve_min_pa_bruteforce(channel, qos, pa, starts=4, rng=rng).objective
        powers = min_pa_precoders([channel], [qos], fixed_point).powers[0]
        worst_rel = max(worst_rel, abs(pa_consumed_power(powers, pa) - ref) / ref)
    rows.append((
        "bruteforce_equivalence", int(worst_rel <= 1e-3),
        f"worst relative objective gap {worst_rel:.3e} over {instances} instances",
    ))

    # Inverse-Wishart trace expectation.
    m, k = 16, 4
    beta = rng.uniform(0.5, 2.0, size=k)
    gamma = rng.uniform(2.0, 40.0, size=k)
    estimate = oracle.mc_inverse_wishart_trace(m, k, beta, gamma, 1.0, 10_000, rng)
    expected = trace_term(beta, gamma, 1.0) / (m - k)
    wishart_rel = abs(estimate - expected) / expected
    rows.append((
        "wishart_identity", int(wishart_rel <= 0.02),
        f"relative error {wishart_rel:.4f} at 1e4 draws",
    ))

    # Antenna-count optimum vs exhaustive grid. An infeasible plan has
    # m_dagger 0, so it matches only a grid that finds no admissible count.
    mismatches = 0
    for _ in range(100):
        k = int(rng.integers(1, 17))
        m = int(rng.integers(k + 2, 257))
        trace = float(rng.uniform(0.05, 50.0))
        p_max = float(rng.uniform(0.2, 5.0))
        plan = optimal_ma_plans(m, [k], [trace], pa, bs, p_max)
        try:
            grid = oracle.grid_min_bs(m, k, trace, pa, bs, p_max)
        except InfeasibleError:
            grid = 0
        mismatches += int(plan.m_dagger[0] != grid)
    rows.append((
        "grid_equivalence", int(mismatches == 0),
        f"{mismatches} mismatches over 100 random scenarios",
    ))

    # Newton quartic vs closed form.
    worst_quartic = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 65))
        t = float(10.0 ** rng.uniform(-3, 4))
        c = float(10.0 ** rng.uniform(-2, 2))
        newton = solve_quartic_ma(k, t, c)
        closed = oracle.solve_quartic_closed_form(k, t, c)
        worst_quartic = max(worst_quartic, abs(newton - closed) / closed)
    rows.append((
        "quartic_closed_form", int(worst_quartic <= 1e-6),
        f"worst relative root gap {worst_quartic:.3e} over 100 draws",
    ))

    summary = {"passed": all(passed for _, passed, _ in rows)}
    return ExperimentResult(VALIDATION_FIELDS, rows, summary)
