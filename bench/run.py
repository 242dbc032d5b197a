"""energymimo benchmark: seeded CLI workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload narrowband --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn. With ``--trace 0`` the
benchmark reports the end-to-end metrics (warm CLI wall time, set-up time,
peak memory, solution quality); with ``--trace 1`` it times calls into each
layer of the package from outside and reports the per-layer metrics. Every
run checks the command's outputs, prints each metric by name with its unit,
writes the results with the machine facts to ``bench/out/`` and prints one
JSON object as its last line. See ``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Workload name -> CLI command. The configs live in bench/workloads/.
WORKLOADS = {
    "narrowband": "run",
    "wideband": "run",
    "oracle": "convergence",
    "asymptotic": "asymptotic",
}
# Fresh interpreters timed per run; set-up time is their median.
SETUP_PROBES = 3
# Each child process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quality": "score",
}
# Printed and recorded for every workload; the benchmark's gate uses the
# four above, which are defined on every workload.
REPORTED_UNITS = {
    "wall_s": "s",
    "setup_raw_s": "s",
    "pa_saving_pct": "%",
    "oracle_dist_sq": "W^2",
    "bs_saving_pct": "%",
    "failed_frac": "ratio",
}
LAYER_UNITS = {
    "channel.draw_s": "s",
    "channel.bytes_computed": "B",
    "precoding.zf_s": "s",
    "precoding.min_pa_s": "s",
    "precoding.min_pa_p50_ms": "ms",
    "precoding.min_pa_p95_ms": "ms",
    "precoding.iterations_mean": "count",
    "precoding.iterations_p95": "count",
    "precoding.us_per_iteration": "us",
    "precoding.nonconverged": "count",
    "precoding.active_antennas_mean": "count",
    "precoding.gflops_computed": "Gflop/s",
    "model.report_s": "s",
    "oracle.solve_s": "s",
    "oracle.solve_p50_ms": "ms",
    "oracle.solve_max_ms": "ms",
    "oracle.grad_norm_max": "1",
    "oracle.skipped": "count",
    "asymptotic.plan_s": "s",
    "asymptotic.plan_us": "us",
    "asymptotic.infeasible": "count",
    "config.load_s": "s",
    "cli.csv_write_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "B",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def master_seed(seed: int) -> int:
    """Master seed of the CLI config. Realization r draws from master + r, so
    neighbouring benchmark seeds are spread apart to keep their inputs
    disjoint."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def machine_facts() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else platform.processor()
    except OSError:
        cpu = platform.processor()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}".strip(),
        "threads_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": commit or "unknown (not a git checkout)",
        "limits": (
            "the benchmark does not pin CPU frequency, drop caches or isolate "
            "the load of other tenants of the machine"
        ),
    }


def _child(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workload.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(stdout: str) -> dict:
    """The CLI's ``key = value`` summary lines."""
    pairs = (line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    return {key.strip(): value.strip() for key, value in pairs}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from energymimo.config import load_config

    import calibration
    import checks

    command = WORKLOADS[name]
    config = BENCH / "workloads" / f"{name}.cfg"
    cfg = load_config(str(config), {"seed": master_seed(seed)})
    outdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    base = [
        "--command", command, "--config", str(config),
        "--seed", str(cfg.scenario.seed), "--realizations", str(cfg.realizations),
        "--outdir", str(outdir),
    ]

    setup_times = []
    setup_rescaled = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = _child(["setup", *base])
            if probe["code"] != 0:
                raise BenchError(f"set-up probe failed: {probe['code']}")
            setup_times.append(probe["setup_s"])
            setup_rescaled.append(
                probe["setup_s"] * calibration.REFERENCE_S / probe["calibration_s"]
            )
    measured = _child(["measure", *base, "--seconds", str(seconds), "--trace", str(int(trace))])
    reps = measured["reps"]

    # Runs of one chunk share a seed, so each must exit 0 and write the same
    # bytes, traced or not. The chunk's first CSV is checked in full and
    # the failures found there count once per run of the chunk.
    failed_count = 0
    problems = []
    values: list[float] = []
    chunks: dict[int, list[dict]] = {}
    for rep in reps:
        chunks.setdefault(rep["chunk"], []).append(rep)
    for chunk, runs in chunks.items():
        first = runs[0]
        if "csv" not in first:
            failed_count += cfg.realizations * len(runs)
            problems.append(f"chunk {chunk}: no CSV written (exit {first['code']!r})")
            continue
        good = [r for r in runs if r["code"] == 0 and r.get("sha256") == first["sha256"]]
        if len(good) < len(runs):
            failed_count += cfg.realizations * (len(runs) - len(good))
            problems.append(f"chunk {chunk}: a run failed or wrote different bytes")
        if command == "run":
            failed, chunk_values = checks.check_run(first["csv"], cfg, first["seed"])
        elif command == "convergence":
            failed, chunk_values = checks.check_convergence(
                first["csv"], cfg, _summary(first["stdout"])
            )
        else:
            failed, chunk_values = checks.check_k_sweep(first["csv"], cfg, first["seed"])
        values += chunk_values
        failed_count += len(failed) * len(good)
        if failed:
            problems.append(f"chunk {chunk}: output check failed for realizations {sorted(failed)[:10]}")
    for rep in reps:
        bad = rep.get("zf_violations", 0) + rep.get("nonconverged", 0)
        if bad:
            failed_count += bad
            problems.append(f"chunk {rep['chunk']}: {bad} traced min_pa solves off ZF or not converged")
    attempted = cfg.realizations * len(reps)
    for csv_file in outdir.glob("*.csv"):
        csv_file.unlink()

    figure = statistics.fmean(values) if values else math.nan
    reported = dict.fromkeys(REPORTED_UNITS, math.nan)
    if command == "convergence":
        reported["oracle_dist_sq"] = figure
        quality = -math.log10(figure) if figure > 0.0 else math.nan
    else:
        reported["pa_saving_pct" if command == "run" else "bs_saving_pct"] = figure
        quality = figure
    reported["failed_frac"] = failed_count / attempted
    untraced = [rep["wall_s"] for rep in reps if not rep["traced"]]
    reported["wall_s"] = statistics.median(untraced)
    reported["setup_raw_s"] = statistics.median(setup_times) if setup_times else math.nan
    # Each command is rescaled by the mean of the kernel times around it.
    cal = measured["calibration_s"]
    rescaled = [
        rep["wall_s"] * calibration.REFERENCE_S / (0.5 * (cal[i] + cal[i + 1]))
        for i, rep in enumerate(reps)
        if not rep["traced"]
    ]
    return {
        "workload": name,
        "command": command,
        "seed": seed,
        "master_seed": cfg.scenario.seed,
        "realizations": cfg.realizations,
        "chunks": len(chunks),
        "trace": int(trace),
        "correct": failed_count == 0 and not problems,
        "attempted": attempted,
        "failed": failed_count,
        "problems": problems,
        "end_to_end": {
            "wall_ref_s": statistics.median(rescaled),
            "setup_s": statistics.median(setup_rescaled) if setup_rescaled else math.nan,
            "peak_rss_mb": measured["peak_rss_mb"],
            "quality": quality,
        },
        "reported": reported,
        "layers": measured.get("layers", {}),
        "samples": {
            "wall_s": untraced,
            "traced_wall_s": [rep["wall_s"] for rep in reps if rep["traced"]],
            "setup_s": setup_times,
            "calibration_s": cal,
        },
        "spans": measured.get("spans"),
    }


def _number(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def print_report(result: dict):
    samples = result["samples"]
    print(
        f"workload = {result['workload']} ({result['command']}, seed {result['seed']}, "
        f"master seed {result['master_seed']}, {result['chunks']} chunks of "
        f"{result['realizations']} realizations)"
    )
    if result["trace"]:
        for name, unit in LAYER_UNITS.items():
            print(f"  {name} = {result['layers'].get(name, math.nan):.6g} {unit}")
    else:
        walls = samples["wall_s"]
        print(
            f"  wall_ref_s = {result['end_to_end']['wall_ref_s']:.6g} s (median of "
            f"{len(walls)} warm commands rescaled by the calibration kernel, median "
            f"{statistics.median(samples['calibration_s']):.6g} s)"
        )
        print(
            f"  setup_s = {result['end_to_end']['setup_s']:.6g} s "
            f"(median of {len(samples['setup_s'])} fresh interpreters, rescaled the same way)"
        )
        print(f"  peak_rss_mb = {result['end_to_end']['peak_rss_mb']:.6g} MB")
        print(f"  quality = {result['end_to_end']['quality']:.6g} score")
        for name, unit in REPORTED_UNITS.items():
            value = result["reported"][name]
            print(f"  {name} = {'n/a' if math.isnan(value) else f'{value:.6g}'} {unit}")
    print(f"  correct = {result['correct']} ({result['failed']} failed of {result['attempted']})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def final_line(result: dict) -> dict:
    units = LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    values = result["layers"] if result["trace"] else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": _number(values.get(name, math.nan)), "unit": unit}
            for name, unit in units.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="energymimo benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "energymimo" / "__init__.py").is_file():
        print(f"error: no energymimo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    facts = machine_facts()
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(result)
            path = OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
            path.write_text(json.dumps({"machine": facts, **result}, indent=2))
            results.append(result)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        line = final_line(results[0])
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{name}": metric
                for r in results
                for name, metric in final_line(r)["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
