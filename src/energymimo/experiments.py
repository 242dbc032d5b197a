"""Monte-Carlo experiment engine behind the CLI commands.

Each realization draws its randomness from an independent stream seeded by
master seed + realization index: first its users, then, where the command
needs one, its channel. So results are identical regardless of how the
realizations are scheduled; the blocks' results are taken in realization
order. Every Monte-Carlo command works on fixed-size blocks of realizations
and draws each block once, with :func:`_draw_block`: ``run``,
``convergence`` and ``asymptotic`` q_error draw the block's channels into
one (R, Q, K, M) stack ``h`` beside its (R, K) ZF targets ``d`` and solve
it with one ``precoding.solve_stack`` call, ``convergence`` after handing
the same ``h, d`` to its oracle, and ``asymptotic`` k_sweep and ma_curve
sum the block's trace terms gamma_k sigma^2 / beta_k, one per
(realization, user). ``validate`` draws and solves on the same two arrays.
The thread pool maps
over those blocks, whose boundaries depend only on the scenario, and works
at most ``threads`` blocks ahead of the reader. Each thread keeps the
block's channel stack and the solver's large arrays in a workspace of its
own, reused from block to block and dropped when the command ends.

A command returns an :class:`ExperimentResult`: one column per field, a
numpy array or a list of strings, and a mask of its empty cells. Each block
is accounted as arrays, one entry per row; no command builds a tuple per
row. The CSV writer (``cli.write_csv``) takes the columns in slices of
``ROW_SLICE`` rows and formats them column by column in numpy: a float
there only where its rounding is provably that of ``"%.9g" % v``, and every
other cell in Python, cell by cell. ``run``, ``convergence`` and
``asymptotic`` k_sweep return a streamed result, which is read once:
nothing is solved until it is read, and then each block's rows are taken
as soon as every earlier block is done, and dropped once written; blocks
of fewer than ``ROW_SLICE`` rows are joined into one slice first. Each
block's worker returns its rows and the small per-realization arrays that
the summary reads, so the summary is complete once the last block is read.
The other modes hold their few rows as columns.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

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
    draw_los_into,
    draw_rayleigh_into,
    draw_user_distances,
    large_scale_fading,
    target_sinr,
    zf_targets,
)
from .config import ExperimentConfig
from .errors import (
    ConfigError, EnergyMimoError, InfeasibleError, OracleSizeError, RealizationError,
)
from .model import bs_consumed_power, gain_metrics, pa_consumed_power
from .precoding import AS1_PRECODERS, FixedPointConfig, Workspace, solve_stack

# Channel entries (Q * K * M per realization) stacked into one solver block.
# Block boundaries depend only on the scenario, never on the thread count, so
# the output does not either.
BLOCK_ELEMENTS = 32768
# (realization, K) pairs that ``asymptotic`` k_sweep plans at once; it bounds
# the working arrays of a block.
# ``ma_curve`` draws its users in stacks of as many (realization, user) cells.
PLAN_BLOCK = 2048
# Rows that ``ExperimentResult.row_slices`` hands out at once: the CSV writer
# formats one slice in numpy, and ``rows`` turns one into tuples, at a time.
# It bounds the writer's working arrays, about 0.7 MB for k_sweep's 14 fields.
ROW_SLICE = 512

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


class ExperimentResult:
    """A command's output, one column per field in ``fieldnames`` order.

    A column is a numpy array of ints or floats, or a list of cells that
    print as they are: strings, and the seed, which may not fit an int64.
    ``empty`` maps a field to a bool mask of the rows where it holds no
    value; the constructor also takes one bool for the whole column. What a
    column stores under its mask is never read.

    A result from :meth:`streamed` is computed as it is read, one part at a
    time, and is read once: :meth:`row_slices`, ``rows``, ``len()`` and
    ``summary`` each compute the parts not read yet and drop them; ``rows``
    collects their rows, ``len()`` and ``summary`` only count them. After
    that ``rows`` is empty, ``len()`` counts every row read and ``summary``
    is complete. A result built from columns can be read any number of times.
    """

    def __init__(self, fieldnames, columns, summary: dict, empty=None):
        self.fieldnames = tuple(fieldnames)
        self._summary = summary
        self._parts = None
        self._columns = tuple(
            column if isinstance(column, list) else np.asarray(column) for column in columns
        )
        self._length = len(self._columns[0])
        if len(self._columns) != len(self.fieldnames) or any(
            len(column) != self._length
            or not isinstance(column, list) and column.dtype.kind not in "iuf"
            for column in self._columns
        ):
            raise EnergyMimoError("need one int, float or list column per field, all one length")
        self._empty = {
            name: np.broadcast_to(np.asarray(mask, dtype=bool), (self._length,))
            for name, mask in (empty or {}).items()
        }
        unknown = self._empty.keys() - set(self.fieldnames)
        if unknown:
            raise EnergyMimoError(f"empty cells in unknown fields {sorted(unknown)}")

    @classmethod
    def streamed(cls, fieldnames, parts) -> ExperimentResult:
        """The rows of the results that the generator ``parts`` yields, one
        after another; the summary is the dict that ``parts`` returns."""
        result = cls(fieldnames, [[] for _ in fieldnames], {})
        result._parts = parts
        return result

    def _pending(self):
        """Each part not read yet, once; then keep the summary that they return."""
        if self._parts is not None:
            parts, self._parts = self._parts, None
            self._summary = yield from parts

    def __len__(self) -> int:
        for part in self._pending():
            self._length += len(part)
        return self._length

    @property
    def summary(self) -> dict:
        len(self)  # reads the parts not read yet
        return self._summary

    def row_slices(self):
        """(columns, empty) of each run of at most ``ROW_SLICE`` rows, in order.

        ``columns[j]`` holds field j's cells of the run: a slice of its array,
        or of its list. ``empty[j]`` is a bool mask of the run's empty cells in
        field j, or None when the field has none. The CSV writer formats each
        run column by column in numpy: a float only where its rounding is
        provably that of ``"%.9g" % v``, and any other cell by Python, cell by
        cell. A streamed result computes each part when its rows are reached
        and counts the rows as they are taken. Parts of fewer rows are joined
        until they hold ``ROW_SLICE`` rows, so that a run of small blocks is
        not formatted a few rows at a time.
        """
        yield from self._slices()
        held, rows = [], 0  # parts not handed out yet, and their rows: fewer than ROW_SLICE
        for part in self._pending():
            held.append(part)
            rows += len(part)
            if rows >= ROW_SLICE:
                yield from self._taken(held)
                held, rows = [], 0
        yield from self._taken(held)

    def _taken(self, parts):
        """``row_slices`` of ``parts`` joined into one, counted as they are taken."""
        if not parts:
            return
        joined = parts[0] if len(parts) == 1 else _joined(self.fieldnames, parts)
        for columns, empty in joined._slices():
            yield columns, empty
            self._length += len(columns[0])

    def _slices(self):
        """``row_slices`` of the columns held."""
        masks = [self._empty.get(name) for name in self.fieldnames]
        length = len(self._columns[0])
        for start in range(0, length, ROW_SLICE):
            stop = min(start + ROW_SLICE, length)
            yield (
                tuple(column[start:stop] for column in self._columns),
                tuple(None if mask is None else mask[start:stop] for mask in masks),
            )

    @property
    def rows(self) -> list[tuple]:
        """The cells as tuples of Python objects, ``None`` for an empty cell, built when read."""
        rows = []
        for columns, empty in self.row_slices():
            # A list slice is a copy, so it may take the None cells.
            cells = [column if isinstance(column, list) else column.tolist() for column in columns]
            for column, mask in zip(cells, empty):
                if mask is not None:
                    for i in np.flatnonzero(mask).tolist():
                        column[i] = None
            rows.extend(zip(*cells))
        return rows


def _joined(fieldnames, parts: list[ExperimentResult]) -> ExperimentResult:
    """The rows of ``parts``, one after another, as one result.

    The parts hold one kind of column per field, as the blocks of one
    command do, so joining them changes no cell.
    """
    columns = []
    for j, first in enumerate(parts[0]._columns):
        pieces = [part._columns[j] for part in parts]
        if isinstance(first, list):
            columns.append([cell for piece in pieces for cell in piece])
        else:
            columns.append(np.concatenate(pieces))
    empty = {
        name: np.concatenate([part._empty.get(name, np.zeros(len(part), bool)) for part in parts])
        for name in {name for part in parts for name in part._empty}
    }
    return ExperimentResult(fieldnames, columns, {}, empty)


def _realization_rng(cfg: ExperimentConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(cfg.scenario.seed + index)


def _draw_block(
    cfg: ExperimentConfig, block: range, k_users: int, subcarriers: int = 0,
    workspace: Workspace | None = None,
):
    """(terms, h, d) of the realizations in ``block``.

    Each realization drops its ``k_users`` users on its own stream; their
    distances are stacked to (R, ``k_users``) and turned into large-scale
    fading beta, SINR targets gamma and trace ``terms`` gamma sigma^2 /
    beta at once. With ``subcarriers``, each realization then draws its
    channel over that many subcarriers on the same stream, into its row of
    the (R, Q, K, M) stack ``h`` taken from ``workspace``, and ``d`` holds
    the (R, K) ZF targets. Otherwise ``h`` and ``d`` are None.
    """
    sc = cfg.scenario
    geometry = sc.geometry()
    rngs = [_realization_rng(cfg, index) for index in block]
    beta = large_scale_fading(np.array([
        draw_user_distances(k_users, geometry, rng) for rng in rngs
    ]))
    gamma = target_sinr(beta, sc.sinr_ref)
    terms = gamma * sc.noise_power / beta
    if not subcarriers:
        return terms, None, None
    h = workspace.take("channels", (len(block), subcarriers, k_users, sc.m_antennas), complex)
    if sc.channel == "los":
        for out, rng in zip(h, rngs):
            draw_los_into(out, rng)
    else:
        correlation = FreqCorrelation(sc.freq_taps, sc.freq_decay) if sc.freq_taps > 0 else None
        for out, gains, rng in zip(h, beta, rngs):
            draw_rayleigh_into(out, gains, rng, correlation)
    return terms, h, zf_targets(gamma, sc.noise_power, subcarriers)


@contextmanager
def _global_index(block: range):
    """Re-label a stacked solve's failed instance with its realization index."""
    try:
        yield
    except RealizationError as exc:
        raise type(exc)(exc.reason, realization=block[exc.realization]) from exc


def _map(cfg: ExperimentConfig, worker, blocks: list[range]):
    """What ``worker(block, workspace)`` returns for each block, in block order, as it is taken.

    Each thread that runs blocks has one :class:`Workspace`, which it hands
    to ``worker`` for every block it runs. The workspaces are dropped when
    the generator ends, so they last one command, and what ``worker``
    returns must hold nothing it took from its workspace.

    With ``cfg.threads`` > 1 a pool computes ahead, but at most
    ``cfg.threads`` blocks are running or done and not yet taken, so what is
    held does not grow with the block count. A failing block raises when its
    turn comes; the blocks after it are cancelled, or finished and dropped
    if already running.
    """
    if cfg.threads <= 1:
        workspace = Workspace()
        for block in blocks:
            yield worker(block, workspace)
        return
    local = threading.local()

    def run(block):
        if not hasattr(local, "workspace"):
            local.workspace = Workspace()
        return worker(block, local.workspace)

    pool = ThreadPoolExecutor(max_workers=cfg.threads)
    ahead = deque()
    try:
        for block in blocks:
            if len(ahead) == cfg.threads:
                yield ahead.popleft().result()
            ahead.append(pool.submit(run, block))
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _stream(cfg: ExperimentConfig, worker, blocks: list[range], summarize):
    """The parts of a streamed result, and then its summary.

    ``worker(block, workspace)`` returns ``(part, *inputs)``: the block's rows
    as an :class:`ExperimentResult` and what the summary reads of the block. Each
    part is yielded in block order and then dropped; the generator returns
    ``summarize(*inputs)``, where each input is the tuple of that input of
    every block, in block order.
    """
    inputs = []
    for part, *block_inputs in _map(cfg, worker, blocks):
        inputs.append(block_inputs)
        yield part
    return summarize(*zip(*inputs))


def _blocks(count: int, size: int) -> list[range]:
    size = max(1, size)
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def _realization_blocks(cfg: ExperimentConfig, subcarriers: int) -> list[range]:
    sc = cfg.scenario
    return _blocks(cfg.realizations, BLOCK_ELEMENTS // (subcarriers * sc.k_users * sc.m_antennas))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-realization power reports and gains for the selected precoders.

    Rows and summary come from each block's (R, S, M) power stack, S solvers
    in ``cfg.precoders`` order: each row field is an (R, S) field, raveled.
    """
    sc = cfg.scenario
    pa = sc.pa_model()
    bs = sc.bs_model()
    p_max = sc.p_max_watts
    solvers = len(cfg.precoders)
    uncapped_columns = [j for j, name in enumerate(cfg.precoders) if name in AS1_PRECODERS]
    zf_column = cfg.precoders.index("zf") if "zf" in cfg.precoders else None

    def report_block(block: range, workspace: Workspace):
        _, h, d = _draw_block(cfg, block, sc.k_users, sc.subcarriers, workspace)
        with _global_index(block):
            solved = solve_stack(
                cfg.precoders, h, d, cfg.fixed_point(), p_max, workspace=workspace
            )
        powers = np.stack([solved[name].powers for name in cfg.precoders], axis=1)
        report = bs_consumed_power(powers, pa, bs)
        discarded = cfg.discard_over_pmax & np.any(powers[:, uncapped_columns] > p_max, axis=(1, 2))
        gains = ()  # (gain_pas, gain_bs) against ZF's (R, 1) report, each (R, S)
        gain_pas = gain_bs = np.zeros(len(block) * solvers)  # empty cells without ZF
        if zf_column is not None:
            gains = gain_metrics(bs_consumed_power(powers[:, [zf_column]], pa, bs), report)
            gain_pas, gain_bs = gains
        part = ExperimentResult(
            RUN_FIELDS,
            (
                [sc.seed] * (len(block) * solvers),
                np.repeat(np.arange(block.start, block.stop), solvers),
                list(cfg.precoders) * len(block),
                *map(np.ravel, (report.p_tx, report.p_pas, report.p_bs, report.m_active)),
                np.ravel(gain_pas), np.ravel(gain_bs),
                np.repeat(discarded.astype(np.int64), solvers),
            ),
            {},
            empty=dict.fromkeys(("gain_pas", "gain_bs"), zf_column is None),
        )
        return part, discarded, gains

    def summarize(discarded, gains):
        summary = {
            "realizations": cfg.realizations,
            "discarded": sum(int(np.count_nonzero(flags)) for flags in discarded),
        }
        fields = ("gain_pas", "gain_bs") if zf_column is not None else ()
        for j, name in enumerate(cfg.precoders):
            for i, field in enumerate(fields):
                values = np.concatenate([
                    block_gains[i][~flags, j] for flags, block_gains in zip(discarded, gains)
                ])
                if values.size:
                    summary[f"mean_{field}[{name}]"] = float(np.mean(values))
        return summary

    blocks = _realization_blocks(cfg, cfg.scenario.subcarriers)
    return ExperimentResult.streamed(RUN_FIELDS, _stream(cfg, report_block, blocks, summarize))


def convergence_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-iteration residuals and squared distance to the oracle optimum."""
    sc = cfg.scenario
    pa = sc.pa_model()

    def oracle_block(h, d):
        if sc.k_users == 1 and sc.subcarriers == 1:
            return oracle.analytic_single_user(h, d, pa)
        return oracle.solve_min_pa_bruteforce_block(
            h, d, pa,
            max_m=cfg.oracle_max_m,
            max_k=cfg.oracle_max_k,
            max_q=cfg.oracle_max_q,
        )

    def report_block(block: range, workspace: Workspace):
        _, h, d = _draw_block(cfg, block, sc.k_users, sc.subcarriers, workspace)
        optimum = skipped = failure = None
        gaps = np.zeros(0)
        if cfg.oracle:
            try:
                found = oracle_block(h, d)
            except OracleSizeError as exc:
                skipped = str(exc)
            except Exception as exc:  # held: the fixed point's own error is raised first
                failure = exc
            else:
                optimum, gaps = found.powers, found.gap
        with _global_index(block):
            solution = solve_stack(
                ("min_pa",), h, d, cfg.fixed_point(), reference=optimum, workspace=workspace
            )["min_pa"]
        if failure is not None:
            raise failure
        iterations, trace = solution.iterations, solution.trace
        ends = np.cumsum(iterations)
        iteration = np.arange(1, len(trace) + 1) - np.repeat(ends - iterations, iterations)
        final_dist = trace[ends - 1, 1] if optimum is not None else np.zeros(0)
        realization = np.repeat(np.arange(block.start, block.stop), iterations)
        part = ExperimentResult(
            CONVERGENCE_FIELDS, (realization, iteration, trace[:, 0], trace[:, 1]), {},
            empty={"dist_sq_oracle": optimum is None},
        )
        return part, iterations, solution.converged, final_dist, skipped, gaps

    def summarize(iterations, converged, final_dists, skipped, gaps):
        reason = next(filter(None, skipped), None)
        if reason is not None:
            print(f"warning: oracle skipped ({reason})", file=sys.stderr)
        # A gap that is not within GAP_TOL (NaN included) means the step limit
        # ended that solve: its powers are not a certified optimum.
        gaps = np.concatenate(gaps)
        uncertified = gaps[~(gaps <= oracle.GAP_TOL)]
        if uncertified.size:
            print(
                f"warning: oracle uncertified on {uncertified.size} of {gaps.size} realizations "
                f"(worst relative gap {np.max(uncertified):.3g} > {oracle.GAP_TOL:g})",
                file=sys.stderr,
            )
        iterations, converged, final_dists = map(
            np.concatenate, (iterations, converged, final_dists)
        )
        summary = {
            "mean_iterations": float(np.mean(iterations)),
            "converged": int(np.count_nonzero(converged)),
            "realizations": cfg.realizations,
        }
        if final_dists.size:
            summary["mean_final_dist_sq"] = float(np.mean(final_dists))
        return summary

    blocks = _realization_blocks(cfg, sc.subcarriers)
    return ExperimentResult.streamed(
        CONVERGENCE_FIELDS, _stream(cfg, report_block, blocks, summarize)
    )


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

    def plan_block(block: range, _workspace):
        # One nested user drop per realization: user k's position is shared
        # by every K >= k, which keeps the sweep coupled across loads.
        terms = _draw_block(cfg, block, cfg.k_max)[0]
        # Each prefix is summed on its own: np.sum adds pairwise, so a
        # running cumsum would change the last bits of the trace.
        trace = np.stack([terms[:, :k].sum(axis=1) for k in loads], axis=1).ravel()
        k = np.tile(loads, len(block))
        plan = optimal_ma_plans(m, k, trace, pa, bs, sc.p_max_watts)
        feasible = plan.feasible
        p_bs_full = np.full(trace.shape, np.nan)
        p_bs_minimal = np.full(trace.shape, np.nan)
        p_bs_full[feasible] = asymptotic_bs_power(m, k[feasible], trace[feasible], pa, bs)
        p_bs_minimal[feasible] = asymptotic_bs_power(
            k[feasible] + 1, k[feasible], trace[feasible], pa, bs
        )
        gain_vs_full = p_bs_full / plan.p_bs_bar
        # An infeasible pair leaves every cell from m_tilde to gain_vs_minimal empty.
        part = ExperimentResult(
            K_SWEEP_FIELDS,
            (
                k, np.repeat(np.arange(block.start, block.stop), len(loads)), trace,
                plan.m_tilde, plan.m_hat, plan.m_dagger, plan.p_bar, plan.p_pas_bar,
                plan.p_bs_bar, p_bs_full, p_bs_minimal, gain_vs_full,
                p_bs_minimal / plan.p_bs_bar, feasible.astype(np.int64),
            ),
            {},
            empty=dict.fromkeys(K_SWEEP_FIELDS[3:-1], ~feasible),
        )
        # The gains at the lightest and the heaviest load, and where they
        # are feasible: (R, 2) each.
        ends = [0, -1]
        return (
            part,
            gain_vs_full.reshape(len(block), len(loads))[:, ends],
            feasible.reshape(len(block), len(loads))[:, ends],
        )

    def summarize(gains, feasible):
        summary = {"realizations": cfg.realizations, "k_range": (cfg.k_min, cfg.k_max)}
        for end, k in enumerate((cfg.k_min, cfg.k_max)):
            values = np.concatenate([
                block_gains[block_feasible[:, end], end]
                for block_gains, block_feasible in zip(gains, feasible)
            ])
            if values.size:
                summary[f"mean_gain_vs_full[K={k}]"] = float(np.mean(values))
        return summary

    blocks = _blocks(cfg.realizations, PLAN_BLOCK // len(loads))
    return ExperimentResult.streamed(K_SWEEP_FIELDS, _stream(cfg, plan_block, blocks, summarize))


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
    counts = np.zeros((len(cfg.q_list), 2), dtype=np.int64)  # kept, discarded
    # Mean and variance of the absolute error, mean simulated and asymptotic
    # consumption; empty where every realization was discarded.
    stats = np.zeros((len(cfg.q_list), 4))
    summary = {"realizations": cfg.realizations, "q_list": cfg.q_list}
    for row, q in enumerate(cfg.q_list):
        def report_block(block: range, workspace: Workspace, q=q):
            terms, h, d = _draw_block(cfg, block, sc.k_users, q, workspace)
            with _global_index(block):
                powers = solve_stack(("zf",), h, d, workspace=workspace)["zf"].powers
            return (
                pa_consumed_power(powers, pa),
                asymptotic_pa_power(sc.m_antennas, sc.k_users, terms.sum(axis=1), pa),
                np.any(powers > sc.p_max_watts, axis=1),
            )

        p_sim, p_asym, over_cap = map(
            np.concatenate, zip(*_map(cfg, report_block, _realization_blocks(cfg, q)))
        )
        kept = ~(over_cap & cfg.discard_over_pmax)
        p_sim, p_asym = p_sim[kept], p_asym[kept]
        counts[row] = len(p_sim), len(kept) - len(p_sim)
        if kept.any():
            errors = np.abs(p_sim - p_asym)
            stats[row] = errors.mean(), errors.var(), p_sim.mean(), p_asym.mean()
            summary[f"mean_abs_error[Q={q}]"] = float(stats[row, 0])
    return ExperimentResult(
        Q_ERROR_FIELDS, (cfg.q_list, *counts.T, *stats.T), summary,
        empty=dict.fromkeys(Q_ERROR_FIELDS[3:], counts[:, 0] == 0),
    )


def _asymptotic_ma_curve(cfg: ExperimentConfig) -> ExperimentResult:
    sc = cfg.scenario
    pa = sc.pa_model()
    bs = sc.bs_model()
    k = sc.k_users

    def trace_block(block: range, _workspace):
        return _draw_block(cfg, block, k)[0].sum(axis=1)

    traces = list(_map(cfg, trace_block, _blocks(cfg.realizations, PLAN_BLOCK // k)))
    trace = float(np.mean(np.concatenate(traces)))
    counts = np.arange(k + 1, sc.m_antennas + 1)
    p_bs = asymptotic_bs_power(counts, k, trace, pa, bs)
    star = int(counts[np.argmin(p_bs)])  # the first minimum: ties go to fewer antennas
    is_star = (counts == star).astype(np.int64)
    return ExperimentResult(
        MA_CURVE_FIELDS, (counts, asymptotic_pa_power(counts, k, trace, pa), p_bs, is_star),
        {"trace": trace, "m_star": star, "realizations": cfg.realizations},
    )


VALIDATION_FIELDS = ("check", "passed", "detail")


def validate_suite(cfg: ExperimentConfig) -> ExperimentResult:
    """Cross-check the main solvers against the independent oracles."""
    pa = cfg.scenario.pa_model()
    bs = cfg.scenario.bs_model()
    # Each check draws from its own child stream of the seed, so that what one
    # check draws does not shift the scenarios of the next.
    bruteforce_rng, wishart_rng, grid_rng, quartic_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(cfg.scenario.seed).spawn(4)
    )
    checks, passed, details = [], [], []

    def record(check: str, ok: bool, detail: str):
        checks.append(check)
        passed.append(int(ok))
        details.append(detail)

    # Fixed point vs the cone-program oracle on small random instances of
    # mixed shapes, one solve each.
    fixed_point = FixedPointConfig(tolerance=1e-10, max_iterations=20000)
    worst_rel = 0.0
    instances = 12
    for _ in range(instances):
        m = int(bruteforce_rng.integers(4, 7))
        k = int(bruteforce_rng.integers(1, 4))
        q = int(bruteforce_rng.integers(1, 5))
        gamma = bruteforce_rng.uniform(2.0, 40.0, size=(1, k))
        d = zf_targets(gamma, cfg.scenario.noise_power, q)
        h = np.empty((1, q, k, m), dtype=complex)
        draw_rayleigh_into(h[0], np.full(k, 1e-11), bruteforce_rng)
        ref = oracle.solve_min_pa_bruteforce_block(h, d, pa).objective[0]
        powers = solve_stack(("min_pa",), h, d, fixed_point)["min_pa"].powers[0]
        worst_rel = max(worst_rel, abs(pa_consumed_power(powers, pa) - ref) / ref)
    record(
        "bruteforce_equivalence", worst_rel <= 1e-3,
        f"worst relative objective gap {worst_rel:.3e} over {instances} instances",
    )

    # Inverse-Wishart trace expectation.
    m, k = 16, 4
    beta = wishart_rng.uniform(0.5, 2.0, size=k)
    gamma = wishart_rng.uniform(2.0, 40.0, size=k)
    estimate = oracle.mc_inverse_wishart_trace(m, k, beta, gamma, 1.0, 10_000, wishart_rng)
    expected = trace_term(beta, gamma, 1.0) / (m - k)
    wishart_rel = abs(estimate - expected) / expected
    record(
        "wishart_identity", wishart_rel <= 0.02,
        f"relative error {wishart_rel:.4f} at 1e4 draws",
    )

    # Antenna-count optimum vs exhaustive grid. An infeasible plan has
    # m_dagger 0, so it matches only a grid that finds no admissible count.
    mismatches = 0
    for _ in range(100):
        k = int(grid_rng.integers(1, 17))
        m = int(grid_rng.integers(k + 2, 257))
        trace = float(grid_rng.uniform(0.05, 50.0))
        p_max = float(grid_rng.uniform(0.2, 5.0))
        plan = optimal_ma_plans(m, [k], [trace], pa, bs, p_max)
        try:
            grid = oracle.grid_min_bs(m, k, trace, pa, bs, p_max)
        except InfeasibleError:
            grid = 0
        mismatches += int(plan.m_dagger[0] != grid)
    record(
        "grid_equivalence", mismatches == 0,
        f"{mismatches} mismatches over 100 random scenarios",
    )

    # Newton quartic vs closed form.
    worst_quartic = 0.0
    for _ in range(100):
        k = int(quartic_rng.integers(1, 65))
        t = float(10.0 ** quartic_rng.uniform(-3, 4))
        c = float(10.0 ** quartic_rng.uniform(-2, 2))
        newton = solve_quartic_ma(k, t, c)
        closed = oracle.solve_quartic_closed_form(k, t, c)
        worst_quartic = max(worst_quartic, abs(newton - closed) / closed)
    record(
        "quartic_closed_form", worst_quartic <= 1e-6,
        f"worst relative root gap {worst_quartic:.3e} over 100 draws",
    )

    return ExperimentResult(VALIDATION_FIELDS, (checks, passed, details), {"passed": all(passed)})
