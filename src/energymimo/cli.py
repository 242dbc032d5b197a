"""Command-line harness: run, convergence, asymptotic, validate.

Exit codes: 0 success, 1 config or I/O error, 2 infeasible scenario,
3 validation failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError, InfeasibleError, SingularChannelError
from .experiments import (
    ExperimentResult,
    asymptotic_experiment,
    convergence_experiment,
    run_experiment,
    validate_suite,
)

DEFAULT_OUT = {
    "run": "energymimo_run.csv",
    "convergence": "energymimo_convergence.csv",
    "asymptotic": "energymimo_asymptotic.csv",
    "validate": None,
}


def _cell_template(kind: type) -> str:
    """The ``%`` conversion of a cell of type ``kind``: ``%.0s`` prints ``None`` as nothing."""
    if kind is type(None):
        return "%.0s"
    if issubclass(kind, float):
        return "%.9g"
    return "%s"


def _format_cell(value) -> str:
    return _cell_template(type(value)) % (value,)


def write_csv(path: str, result: ExperimentResult):
    """Comma-separated, CRLF-terminated, unquoted: no cell holds a comma or a newline.

    Each row is formatted by one ``%`` template, built once per row type
    signature and cached for the call; the lines are streamed to the file.
    """
    templates = {}

    def line(row: tuple) -> str:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_cell_template, kinds)) + "\r\n"
        return template % row

    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(result.fieldnames) + "\r\n")
            fh.writelines(map(line, result.rows))
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def _print_summary(summary: dict):
    for key, value in summary.items():
        print(f"{key} = {_format_cell(value)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energymimo",
        description="Consumption-minimizing massive MIMO precoder experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "per-realization power reports and gains"),
        ("convergence", "fixed-point residuals and distance to the oracle"),
        ("asymptotic", "asymptotic antenna-count sweeps and finite-Q errors"),
        ("validate", "cross-check solvers against the independent oracles"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a key=value config file")
        cmd.add_argument("--out", help="output CSV path")
        cmd.add_argument("--seed", type=int, help="override the master seed")
        cmd.add_argument("--realizations", type=int, help="override the realization count")
        cmd.add_argument("--threads", type=int, help="realization pool size")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {
            "seed": args.seed,
            "realizations": args.realizations,
            "threads": args.threads,
            "out": args.out,
        }
        cfg = load_config(args.config, overrides)
        if args.command == "run":
            result = run_experiment(cfg)
        elif args.command == "convergence":
            result = convergence_experiment(cfg)
        elif args.command == "asymptotic":
            result = asymptotic_experiment(cfg)
        else:
            result = validate_suite(cfg)
        out = cfg.out or DEFAULT_OUT[args.command]
        if out:
            write_csv(out, result)
            print(f"wrote {len(result.rows)} rows to {out}")
        if args.command == "validate":
            for check, passed, detail in result.rows:
                print(f"[{'PASS' if passed else 'FAIL'}] {check}: {detail}")
            if not result.summary["passed"]:
                return 3
        else:
            _print_summary(result.summary)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleError, SingularChannelError) as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
