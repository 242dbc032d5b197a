"""Span recorder that times calls into energymimo's layers from outside.

``Tracer.install()`` replaces, in memory, the public names that
``energymimo.experiments`` and ``energymimo.cli`` call with recording
wrappers; ``Tracer.uninstall()`` puts the originals back. No file of the
package changes. Each wrapper records one span (layer, name, start, end,
parent span, realization) plus counts read from the return value. Spans stay
in memory until the caller writes them out.

Realizations run one at a time (``threads = 1``) and each begins with one
``draw_user_distances`` call, so the realization identifier of a span is the
number of such calls made before it, minus one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from energymimo import cli, experiments, model, oracle, precoding
from energymimo.errors import InfeasibleError, OracleSizeError

# (module, attribute, layer). Only names that exist are wrapped, so the
# tracer keeps working when a later change removes one of them.
TRACED_NAMES = (
    (experiments, "draw_user_distances", "channel"),
    (experiments, "large_scale_fading", "channel"),
    (experiments, "target_sinr", "channel"),
    (experiments, "draw_rayleigh_channel", "channel"),
    (experiments, "draw_los_channel", "channel"),
    (experiments, "zf_precoder", "precoding"),
    (experiments, "min_pa_precoder", "precoding"),
    (experiments, "bs_consumed_power", "model"),
    (experiments, "gain_metrics", "model"),
    (experiments, "pa_consumed_power", "model"),
    (experiments, "optimal_ma_constrained", "asymptotic"),
    (experiments, "asymptotic_bs_power", "asymptotic"),
    (oracle, "solve_min_pa_bruteforce", "oracle"),
    (cli, "load_config", "config"),
    (cli, "run_experiment", "experiments"),
    (cli, "convergence_experiment", "experiments"),
    (cli, "asymptotic_experiment", "experiments"),
    (cli, "write_csv", "cli"),
)

# Span fields, stored as lists for a cheap append.
LAYER, NAME, START, END, PARENT, REALIZATION, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._realization = -1
        self._saved: list[tuple] = []
        # Time spent checking min_pa_precoder results, inside command spans;
        # it is neither program time nor tracing overhead.
        self.check_s = 0.0

    def install(self):
        for module, attr, layer in TRACED_NAMES:
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer, name, original):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counts = getattr(self, f"_counts_{name}", None)
        starts_realization = name == "draw_user_distances"

        def wrapper(*args, **kwargs):
            if starts_realization:
                tracer._realization += 1
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else None, tracer._realization, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[END] = clock()
                span[INFO] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if counts is not None:
                span[INFO] = counts(args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # Counts read from return values, one method per traced name.
    def _counts_min_pa_precoder(self, args, result):
        channel, qos = args[0], args[1]
        start = time.perf_counter()
        on_zf = zf_residual(channel, qos, result) <= precoding.ZF_TOLERANCE
        self.check_s += time.perf_counter() - start
        return (
            result.iterations, result.converged, len(result.active_set),
            channel.per_subcarrier.shape, on_zf,
        )

    def _counts_draw_rayleigh_channel(self, args, result):
        return result.per_subcarrier.nbytes

    _counts_draw_los_channel = _counts_draw_rayleigh_channel

    def _counts_solve_min_pa_bruteforce(self, args, result):
        return result.certificate[1]

    def _counts_write_csv(self, args, result):
        return len(args[1].rows)

    def to_records(self) -> list[dict]:
        keys = ("layer", "name", "start", "end", "parent", "realization", "info")
        return [dict(zip(keys, span)) for span in self.spans]


def zf_residual(channel, qos, solution) -> float:
    """max |H_q W_q - diag((gamma_k/Q)^(1/2) sigma)| over all subcarriers."""
    rhs = np.sqrt(qos.per_subcarrier_gamma) * qos.noise_std
    product = channel.per_subcarrier @ solution.matrices
    return float(np.max(np.abs(product - np.diag(rhs)[None, :, :])))


def _busy(spans, names) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] in names)


def _percentile(values, q) -> float:
    """Linear-interpolation percentile; 0 when the layer was not called."""
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, csv_bytes: int, realizations: int) -> dict:
    """Per-layer figures of one traced command, keyed by metric name."""
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def durations(name):
        return [s[END] - s[START] for s in by_name.get(name, ())]

    min_pa = [s for s in by_name.get("min_pa_precoder", ()) if isinstance(s[INFO], tuple)]
    iterations = [s[INFO][0] for s in min_pa]
    min_pa_s = sum(durations("min_pa_precoder"))
    flops = 0.0
    for span in min_pa:
        q, k, m = span[INFO][3]
        system = "narrowband" if q == 1 else "wideband"
        flops += model.estimate_flops(system, "proposed", k, m, q, span[INFO][0])
    oracle_spans = by_name.get("solve_min_pa_bruteforce", ())
    oracle_ok = [s for s in oracle_spans if not isinstance(s[INFO], str)]
    oracle_ms = [1e3 * (s[END] - s[START]) for s in oracle_ok]
    plans = by_name.get("optimal_ma_constrained", ())
    plan_s = _busy(spans, ("optimal_ma_constrained", "asymptotic_bs_power"))
    writes = by_name.get("write_csv", ())

    commands = [i for i, s in enumerate(spans) if s[LAYER] == "experiments"]
    child_time: dict[int, float] = {i: 0.0 for i in commands}
    for span in spans:
        if span[PARENT] in child_time:
            child_time[span[PARENT]] += span[END] - span[START]
    self_s = sum(spans[i][END] - spans[i][START] - child_time[i] for i in commands)
    self_s -= tracer.check_s

    channel_bytes = sum(s[INFO] for s in by_name.get("draw_rayleigh_channel", ()))
    channel_bytes += sum(s[INFO] for s in by_name.get("draw_los_channel", ()))

    return {
        "channel.draw_s": _busy(spans, (
            "draw_user_distances", "large_scale_fading", "target_sinr",
            "draw_rayleigh_channel", "draw_los_channel",
        )),
        "channel.bytes_computed": channel_bytes / realizations,
        "precoding.zf_s": sum(durations("zf_precoder")),
        "precoding.min_pa_s": min_pa_s,
        "precoding.min_pa_p50_ms": _percentile([1e3 * d for d in durations("min_pa_precoder")], 50),
        "precoding.min_pa_p95_ms": _percentile([1e3 * d for d in durations("min_pa_precoder")], 95),
        "precoding.iterations_mean": statistics.fmean(iterations) if iterations else 0.0,
        "precoding.iterations_p95": _percentile(iterations, 95),
        "precoding.us_per_iteration": 1e6 * min_pa_s / sum(iterations) if sum(iterations) else 0.0,
        "precoding.nonconverged": sum(1 for s in min_pa if not s[INFO][1]),
        "precoding.zf_violations": sum(1 for s in min_pa if not s[INFO][4]),
        "precoding.active_antennas_mean": (
            statistics.fmean(s[INFO][2] for s in min_pa) if min_pa else 0.0
        ),
        "precoding.gflops_computed": flops / min_pa_s / 1e9 if min_pa_s > 0.0 else 0.0,
        "model.report_s": _busy(spans, ("bs_consumed_power", "gain_metrics", "pa_consumed_power")),
        "oracle.solve_s": sum(s[END] - s[START] for s in oracle_spans),
        "oracle.solve_p50_ms": _percentile(oracle_ms, 50),
        "oracle.solve_max_ms": max(oracle_ms, default=0.0),
        "oracle.grad_norm_max": max((s[INFO] for s in oracle_ok), default=0.0),
        "oracle.skipped": sum(1 for s in oracle_spans if s[INFO] == OracleSizeError.__name__),
        "asymptotic.plan_s": plan_s,
        "asymptotic.plan_us": 1e6 * plan_s / len(plans) if plans else 0.0,
        "asymptotic.infeasible": sum(1 for s in plans if s[INFO] == InfeasibleError.__name__),
        "config.load_s": sum(durations("load_config")),
        "cli.csv_write_s": sum(durations("write_csv")),
        "cli.csv_rows": sum(s[INFO] for s in writes if isinstance(s[INFO], int)),
        "cli.csv_bytes": csv_bytes,
        "experiments.self_s": self_s,
    }
