"""Monte-Carlo experiment engine behind the CLI commands.

Each realization draws its randomness from an independent stream seeded by
master seed + realization index, so results are identical regardless of how
the realization pool is scheduled; rows are buffered and emitted in
realization order. ``run`` solves its realizations in fixed-size blocks
through the stacked solvers; the pool maps over those blocks.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import oracle
from .asymptotic import (
    asymptotic_bs_power,
    asymptotic_pa_power,
    optimal_ma_constrained,
    solve_quartic_ma,
    trace_term,
)
from .channel import (
    ChannelRealization,
    FreqCorrelation,
    QosTargets,
    draw_los_channel,
    draw_rayleigh_channel,
    draw_user_distances,
    large_scale_fading,
    target_sinr,
)
from .config import AS1_PRECODERS, ExperimentConfig
from .errors import EnergyMimoError, InfeasibleError, OracleSizeError, SingularChannelError
from .model import bs_consumed_power, gain_metrics, pa_consumed_power
from .precoding import (
    FixedPointConfig,
    min_pa_precoder,
    min_pa_precoders,
    single_user_saturating_precoder,
    zf_precoder,
    zf_precoders,
)

# Channel entries (Q * K * M per realization) that ``run`` stacks into one
# solver block. Block boundaries depend only on the scenario, never on the
# thread count, so the output does not either.
BLOCK_ELEMENTS = 32768

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
    fieldnames: tuple[str, ...]
    rows: list[dict]
    summary: dict


def _realization_rng(cfg: ExperimentConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(cfg.scenario.seed + index)


def _draw_targets(cfg: ExperimentConfig, rng: np.random.Generator):
    sc = cfg.scenario
    u = draw_user_distances(sc.k_users, sc.geometry(), rng)
    beta = large_scale_fading(u)
    gamma = target_sinr(beta, sc.sinr_ref)
    qos = QosTargets(gamma=gamma, noise_power=sc.noise_power, subcarriers=sc.subcarriers)
    return np.atleast_1d(beta), qos


def _draw_channel(cfg: ExperimentConfig, beta, rng: np.random.Generator) -> ChannelRealization:
    sc = cfg.scenario
    if sc.channel == "los":
        return draw_los_channel(sc.m_antennas, sc.k_users, sc.subcarriers, rng)
    correlation = FreqCorrelation(sc.freq_taps, sc.freq_decay) if sc.freq_taps > 0 else None
    return draw_rayleigh_channel(
        sc.m_antennas, sc.k_users, sc.subcarriers, beta, rng, correlation
    )


def _solve_block(name: str, channels, qos_list, cfg: ExperimentConfig):
    if name == "zf":
        return zf_precoders(channels, qos_list)
    if name == "min_pa":
        return min_pa_precoders(channels, qos_list, cfg.fixed_point())
    if name == "saturating":
        return [
            single_user_saturating_precoder(
                channel.per_subcarrier[0, 0, :], float(qos.gamma[0]), qos.noise_std,
                cfg.scenario.p_max_watts,
            )
            for channel, qos in zip(channels, qos_list)
        ]
    raise EnergyMimoError(f"unknown solver {name!r}")


def _map(cfg: ExperimentConfig, worker, items):
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(worker, items))
    return [worker(item) for item in items]


def _map_realizations(cfg: ExperimentConfig, worker):
    return _map(cfg, worker, range(cfg.realizations))


def _realization_blocks(cfg: ExperimentConfig) -> list[range]:
    sc = cfg.scenario
    size = max(1, BLOCK_ELEMENTS // (sc.subcarriers * sc.k_users * sc.m_antennas))
    return [
        range(start, min(start + size, cfg.realizations))
        for start in range(0, cfg.realizations, size)
    ]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-realization power reports and gains for the selected precoders."""
    pa = cfg.scenario.pa_model()
    bs = cfg.scenario.bs_model()
    p_max = cfg.scenario.p_max_watts

    def report_rows(index: int, solutions: dict):
        reports = {name: bs_consumed_power(sol.powers, pa, bs) for name, sol in solutions.items()}
        discarded = False
        if cfg.discard_over_pmax:
            discarded = any(
                np.any(solutions[name].powers > p_max)
                for name in cfg.precoders
                if name in AS1_PRECODERS
            )
        reference = reports.get("zf")
        rows = []
        for name in cfg.precoders:
            report = reports[name]
            if reference is not None:
                gain_pas, gain_bs = gain_metrics(reference, report)
            else:
                gain_pas = gain_bs = None
            rows.append({
                "seed": cfg.scenario.seed,
                "realization": index,
                "solver": name,
                "p_tx": report.p_tx,
                "p_pas": report.p_pas,
                "p_bs": report.p_bs,
                "m_active": report.m_active,
                "gain_pas": gain_pas,
                "gain_bs": gain_bs,
                "discarded": int(discarded),
            })
        return rows

    def solve_block(block: range):
        channels, qos_list = [], []
        for index in block:
            rng = _realization_rng(cfg, index)
            beta, qos = _draw_targets(cfg, rng)
            channels.append(_draw_channel(cfg, beta, rng))
            qos_list.append(qos)
        try:
            solved = {name: _solve_block(name, channels, qos_list, cfg) for name in cfg.precoders}
        except SingularChannelError as exc:
            raise SingularChannelError(exc.reason, realization=block[exc.realization]) from exc
        return [
            row
            for j, index in enumerate(block)
            for row in report_rows(index, {name: sols[j] for name, sols in solved.items()})
        ]

    nested = _map(cfg, solve_block, _realization_blocks(cfg))
    rows = [row for group in nested for row in group]
    summary = {"realizations": cfg.realizations}
    kept = [r for r in rows if not r["discarded"]]
    summary["discarded"] = sum(
        1 for r in rows if r["discarded"] and r["solver"] == cfg.precoders[0]
    )
    for name in cfg.precoders:
        solver_rows = [r for r in kept if r["solver"] == name]
        if solver_rows and solver_rows[0]["gain_pas"] is not None:
            summary[f"mean_gain_pas[{name}]"] = float(
                np.mean([r["gain_pas"] for r in solver_rows])
            )
            summary[f"mean_gain_bs[{name}]"] = float(
                np.mean([r["gain_bs"] for r in solver_rows])
            )
    return ExperimentResult(RUN_FIELDS, rows, summary)


def convergence_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-iteration residuals and squared distance to the oracle optimum."""
    pa = cfg.scenario.pa_model()
    warned = [False]

    def worker(index: int):
        rng = _realization_rng(cfg, index)
        beta, qos = _draw_targets(cfg, rng)
        channel = _draw_channel(cfg, beta, rng)
        try:
            solution = min_pa_precoder(channel, qos, cfg.fixed_point(record_history=True))
        except SingularChannelError as exc:
            raise SingularChannelError(exc.reason, realization=index) from exc
        gt_powers = None
        if cfg.oracle:
            if cfg.scenario.k_users == 1 and cfg.scenario.subcarriers == 1:
                gt = oracle.analytic_single_user(channel.per_subcarrier[0, 0, :], qos, pa)
                gt_powers = gt.powers
            else:
                try:
                    gt = oracle.solve_min_pa_bruteforce(
                        channel, qos, pa,
                        starts=cfg.oracle_starts,
                        rng=np.random.default_rng(cfg.scenario.seed + 10_000 + index),
                        max_m=cfg.oracle_max_m,
                        max_k=cfg.oracle_max_k,
                        max_q=cfg.oracle_max_q,
                    )
                    gt_powers = gt.powers
                except OracleSizeError as exc:
                    if not warned[0]:
                        warned[0] = True
                        print(f"warning: oracle skipped ({exc})", file=sys.stderr)
        history = solution.history
        rows = []
        for i in range(1, len(history)):
            dist = (
                float(np.sum((history[i] - gt_powers) ** 2))
                if gt_powers is not None
                else None
            )
            rows.append({
                "realization": index,
                "iteration": i,
                "residual": float(np.max(np.abs(history[i] - history[i - 1]))),
                "dist_sq_oracle": dist,
            })
        final_dist = rows[-1]["dist_sq_oracle"] if rows else None
        return rows, solution.iterations, solution.converged, final_dist

    results = _map_realizations(cfg, worker)
    rows = [row for group, _, _, _ in results for row in group]
    iteration_counts = [n for _, n, _, _ in results]
    final_dists = [d for _, _, _, d in results if d is not None]
    summary = {
        "mean_iterations": float(np.mean(iteration_counts)),
        "converged": sum(1 for _, _, ok, _ in results if ok),
        "realizations": cfg.realizations,
    }
    if final_dists:
        summary["mean_final_dist_sq"] = float(np.mean(final_dists))
    return ExperimentResult(CONVERGENCE_FIELDS, rows, summary)


def asymptotic_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Asymptotic sweeps: antenna plans vs K, finite-Q error, or BS curve."""
    if cfg.asym_mode == "k_sweep":
        return _asymptotic_k_sweep(cfg)
    if cfg.asym_mode == "q_error":
        return _asymptotic_q_error(cfg)
    return _asymptotic_ma_curve(cfg)


def _asymptotic_k_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    sc = cfg.scenario
    pa = sc.pa_model()
    bs = sc.bs_model()
    geometry = sc.geometry()
    m = sc.m_antennas

    def worker(index: int):
        rng = _realization_rng(cfg, index)
        # One nested user drop per realization: user k's position is shared
        # by every K >= k, which keeps the sweep coupled across loads.
        u_all = draw_user_distances(cfg.k_max, geometry, rng)
        beta_all = np.atleast_1d(large_scale_fading(u_all))
        gamma_all = np.atleast_1d(target_sinr(beta_all, sc.sinr_ref))
        rows = []
        for k in range(cfg.k_min, cfg.k_max + 1):
            trace = trace_term(beta_all[:k], gamma_all[:k], sc.noise_power)
            row = {"k_users": k, "realization": index, "trace": trace}
            try:
                plan = optimal_ma_constrained(m, k, trace, pa, bs, sc.p_max_watts)
                p_bs_full = asymptotic_bs_power(m, k, trace, pa, bs)
                p_bs_minimal = asymptotic_bs_power(k + 1, k, trace, pa, bs)
                row.update({
                    "m_tilde": plan.m_tilde,
                    "m_hat": plan.m_hat,
                    "m_dagger": plan.m_dagger,
                    "p_bar": plan.p_bar,
                    "p_pas_bar": plan.p_pas_bar,
                    "p_bs_dagger": plan.p_bs_bar,
                    "p_bs_full": p_bs_full,
                    "p_bs_minimal": p_bs_minimal,
                    "gain_vs_full": p_bs_full / plan.p_bs_bar,
                    "gain_vs_minimal": p_bs_minimal / plan.p_bs_bar,
                    "feasible": 1,
                })
            except InfeasibleError:
                row.update({key: None for key in K_SWEEP_FIELDS if key not in row})
                row["feasible"] = 0
            rows.append(row)
        return rows

    nested = _map_realizations(cfg, worker)
    rows = [row for group in nested for row in group]
    summary = {"realizations": cfg.realizations, "k_range": (cfg.k_min, cfg.k_max)}
    feasible = [r for r in rows if r["feasible"]]
    for k in (cfg.k_min, cfg.k_max):
        k_rows = [r for r in feasible if r["k_users"] == k]
        if k_rows:
            summary[f"mean_gain_vs_full[K={k}]"] = float(
                np.mean([r["gain_vs_full"] for r in k_rows])
            )
    return ExperimentResult(K_SWEEP_FIELDS, rows, summary)


def _asymptotic_q_error(cfg: ExperimentConfig) -> ExperimentResult:
    # The asymptotic-regime precoder is the per-subcarrier ZF, so the
    # finite-Q consumption is simulated with it; the consumption-minimizing
    # iteration keeps a small optimality gap below the asymptote that is not
    # what the deterministic formula models.
    sc = cfg.scenario
    pa = sc.pa_model()
    rows = []
    summary = {"realizations": cfg.realizations, "q_list": cfg.q_list}
    for q in cfg.q_list:
        def worker(index: int, q=q):
            rng = _realization_rng(cfg, index)
            u = draw_user_distances(sc.k_users, sc.geometry(), rng)
            beta = np.atleast_1d(large_scale_fading(u))
            gamma = np.atleast_1d(target_sinr(beta, sc.sinr_ref))
            qos = QosTargets(gamma=gamma, noise_power=sc.noise_power, subcarriers=q)
            channel = draw_rayleigh_channel(sc.m_antennas, sc.k_users, q, beta, rng)
            solution = zf_precoder(channel, qos)
            over_cap = bool(np.any(solution.powers > sc.p_max_watts))
            p_sim = pa_consumed_power(solution.powers, pa)
            trace = trace_term(beta, gamma, sc.noise_power)
            p_asym = asymptotic_pa_power(sc.m_antennas, sc.k_users, trace, pa)
            return p_sim, p_asym, over_cap

        results = _map_realizations(cfg, worker)
        kept = [r for r in results if not (cfg.discard_over_pmax and r[2])]
        discarded = len(results) - len(kept)
        errors = np.array([abs(p_sim - p_asym) for p_sim, p_asym, _ in kept])
        rows.append({
            "subcarriers": q,
            "realizations": len(kept),
            "discarded": discarded,
            "mean_abs_error": float(errors.mean()) if kept else None,
            "var_abs_error": float(errors.var()) if kept else None,
            "mean_p_pas_sim": float(np.mean([r[0] for r in kept])) if kept else None,
            "mean_p_pas_asym": float(np.mean([r[1] for r in kept])) if kept else None,
        })
        if kept:
            summary[f"mean_abs_error[Q={q}]"] = float(errors.mean())
    return ExperimentResult(Q_ERROR_FIELDS, rows, summary)


def _asymptotic_ma_curve(cfg: ExperimentConfig) -> ExperimentResult:
    sc = cfg.scenario
    pa = sc.pa_model()
    bs = sc.bs_model()
    k = sc.k_users

    def worker(index: int):
        rng = _realization_rng(cfg, index)
        u = draw_user_distances(k, sc.geometry(), rng)
        beta = np.atleast_1d(large_scale_fading(u))
        gamma = np.atleast_1d(target_sinr(beta, sc.sinr_ref))
        return trace_term(beta, gamma, sc.noise_power)

    traces = _map_realizations(cfg, worker)
    trace = float(np.mean(traces))
    counts = list(range(k + 1, sc.m_antennas + 1))
    values = [asymptotic_bs_power(n, k, trace, pa, bs) for n in counts]
    star = counts[int(np.argmin(values))]
    rows = [
        {
            "m_active": n,
            "p_pas_bar": asymptotic_pa_power(n, k, trace, pa),
            "p_bs_bar": value,
            "is_m_star": int(n == star),
        }
        for n, value in zip(counts, values)
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

    # Fixed point vs null-space descent on small random instances.
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
        solution = min_pa_precoder(
            channel, qos, FixedPointConfig(tolerance=1e-10, max_iterations=20000)
        )
        objective = pa_consumed_power(solution.powers, pa)
        reference = oracle.solve_min_pa_bruteforce(channel, qos, pa, starts=4, rng=rng)
        worst_rel = max(worst_rel, abs(objective - reference.objective) / reference.objective)
    rows.append({
        "check": "bruteforce_equivalence",
        "passed": int(worst_rel <= 1e-3),
        "detail": f"worst relative objective gap {worst_rel:.3e} over {instances} instances",
    })

    # Inverse-Wishart trace expectation.
    m, k = 16, 4
    beta = rng.uniform(0.5, 2.0, size=k)
    gamma = rng.uniform(2.0, 40.0, size=k)
    estimate = oracle.mc_inverse_wishart_trace(m, k, beta, gamma, 1.0, 10_000, rng)
    expected = trace_term(beta, gamma, 1.0) / (m - k)
    wishart_rel = abs(estimate - expected) / expected
    rows.append({
        "check": "wishart_identity",
        "passed": int(wishart_rel <= 0.02),
        "detail": f"relative error {wishart_rel:.4f} at 1e4 draws",
    })

    # Antenna-count optimum vs exhaustive grid.
    mismatches = 0
    for _ in range(100):
        k = int(rng.integers(1, 17))
        m = int(rng.integers(k + 2, 257))
        trace = float(rng.uniform(0.05, 50.0))
        p_max = float(rng.uniform(0.2, 5.0))
        if trace / (m * (m - k)) > p_max:
            continue
        plan = optimal_ma_constrained(m, k, trace, pa, bs, p_max)
        if plan.m_dagger != oracle.grid_min_bs(m, k, trace, pa, bs, p_max):
            mismatches += 1
    rows.append({
        "check": "grid_equivalence",
        "passed": int(mismatches == 0),
        "detail": f"{mismatches} mismatches over 100 random scenarios",
    })

    # Newton quartic vs closed form.
    worst_quartic = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 65))
        t = float(10.0 ** rng.uniform(-3, 4))
        c = float(10.0 ** rng.uniform(-2, 2))
        newton = solve_quartic_ma(k, t, c)
        closed = oracle.solve_quartic_closed_form(k, t, c)
        worst_quartic = max(worst_quartic, abs(newton - closed) / closed)
    rows.append({
        "check": "quartic_closed_form",
        "passed": int(worst_quartic <= 1e-6),
        "detail": f"worst relative root gap {worst_quartic:.3e} over 100 draws",
    })

    summary = {"passed": all(r["passed"] for r in rows)}
    return ExperimentResult(VALIDATION_FIELDS, rows, summary)
