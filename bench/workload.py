"""The process that runs one benchmark workload; started by ``run.py``.

Two modes:

``setup``    In a fresh interpreter, time ``import energymimo``, loading the
             config and one warm-up realization of the workload's command,
             then time the calibration kernel (its second call, once numpy
             has finished its own lazy set-up).
``measure``  After a one-realization warm-up, run the workload's CLI
             command over successive chunks of realizations for at least
             ``--seconds``. Chunk ``c`` uses master seed ``--seed + c * R``
             (R realizations per command), so chunks never share inputs.
             Without tracing, chunk 0 runs twice and then chunks 1, 2, ...
             once each. With ``--trace 1`` every chunk runs twice, untraced
             then traced, and the traced run also yields per-layer figures.
             A chunk's repeated runs must write identical CSVs. The
             calibration kernel runs before every command and after the
             last one.

Either mode prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import energymimo
    from energymimo import cli

    if Path(energymimo.__file__).resolve().parent != ROOT / "src" / "energymimo":
        raise SystemExit(f"energymimo imported from {energymimo.__file__}, not from {ROOT / 'src'}")
    return cli


def _argv(args, out: Path, seed: int, realizations: int | None = None) -> list[str]:
    argv = [args.command, "--config", args.config, "--seed", str(seed), "--out", str(out)]
    if realizations is not None:
        argv += ["--realizations", str(realizations)]
    return argv


def _call(cli, argv) -> tuple[int | str, str]:
    """Run ``cli.main(argv)``; return (exit code or error, captured stdout)."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    except Exception:  # a crash is a failed command, reported to the caller
        return traceback.format_exc(limit=3), stdout.getvalue()
    return code, stdout.getvalue()


def setup(args) -> dict:
    start = time.perf_counter()
    cli = _import_package()
    code, _ = _call(cli, _argv(args, args.outdir / "setup.csv", args.seed, realizations=1))
    setup_s = time.perf_counter() - start
    import calibration

    calibration.kernel()
    return {"setup_s": setup_s, "calibration_s": calibration.kernel(), "code": code}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure(args) -> dict:
    import calibration

    cli = _import_package()
    tracing = None
    if args.trace:
        import tracing  # imports energymimo's modules, so only after the path is set

    _call(cli, _argv(args, args.outdir / "warmup.csv", args.seed, realizations=1))
    calibration.kernel()

    reps = []
    calibration_s = []
    layer_runs = []
    last_tracer = None
    start = time.perf_counter()
    while True:
        index = len(reps)
        chunk = index // 2 if args.trace else max(0, index - 1)
        traced = bool(args.trace) and index % 2 == 1
        seed = args.seed + chunk * args.realizations
        out = args.outdir / f"rep{index}.csv"
        tracer = tracing.Tracer() if traced else None
        calibration_s.append(calibration.kernel())
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            code, stdout = _call(cli, _argv(args, out, seed))
            wall = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        rep = {
            "chunk": chunk, "seed": seed, "traced": traced,
            "wall_s": wall, "code": code, "stdout": stdout,
        }
        csv_bytes = out.stat().st_size if out.exists() else 0
        if out.exists():
            rep["sha256"] = _sha256(out)
            if reps and reps[-1]["chunk"] == chunk:
                out.unlink()  # the chunk's first CSV is kept for the output checks
            else:
                rep["csv"] = str(out)
        if tracer and code == 0:
            layers = tracing.layer_metrics(tracer, csv_bytes, args.realizations)
            rep["zf_violations"] = layers.pop("precoding.zf_violations")
            rep["nonconverged"] = layers["precoding.nonconverged"]
            rep["check_s"] = tracer.check_s
            layer_runs.append(layers)
            last_tracer = tracer
        reps.append(rep)
        complete = len(reps) >= 2 and (not args.trace or len(reps) % 2 == 0)
        if complete and time.perf_counter() - start >= args.seconds:
            break

    calibration_s.append(calibration.kernel())
    result = {
        "reps": reps,
        "calibration_s": calibration_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if layer_runs:
        layers = {
            name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]
        }
        untraced = [r["wall_s"] for r in reps if not r["traced"]]
        traced = [r["wall_s"] - r.get("check_s", 0.0) for r in reps if r["traced"]]
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["layers"] = layers
        spans_path = args.outdir / "spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for record in last_tracer.to_records():
                fh.write(json.dumps(record) + "\n")
        result["spans"] = str(spans_path)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--realizations", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", type=Path, required=True)
    args = parser.parse_args()
    result = setup(args) if args.mode == "setup" else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
