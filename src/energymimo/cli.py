"""Command-line harness: run, convergence, asymptotic, validate.

Exit codes: 0 success, 1 config or I/O error, 2 infeasible scenario,
3 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import operator
import os
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


def _format_cell(value) -> str:
    return "%.9g" % value if isinstance(value, float) else str(value)


def _row_template(floats: tuple[bool, ...], shape: int) -> str:
    """The ``%`` template of a row whose empty fields are the set bits of ``shape``.

    A float field prints as ``%.9g``, any other as ``%s``; ``%.0s`` prints an
    empty cell as nothing.
    """
    kinds = ["%.9g" if floating else "%s" for floating in floats]
    return ",".join("%.0s" if shape >> j & 1 else kind for j, kind in enumerate(kinds)) + "\r\n"


def _new_file_beside(path: str) -> tuple[str, int]:
    """(name, descriptor) of a new file in the directory of ``path``.

    It is created with the permission bits that ``open(path, "w")`` gives a
    new file: 0o666 less the umask.
    """
    head, tail = os.path.split(path)
    while True:
        name = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            return name, os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def write_csv(path: str, result: ExperimentResult):
    """Comma-separated, CRLF-terminated, unquoted: no cell holds a comma or a newline.

    The rows come from ``result.row_slices()``, at most
    ``experiments.ROW_SLICE`` at a time; a streamed result computes its
    blocks as they are written, so a failing block raises here. Each row is
    formatted by one ``%`` template, in which a float column prints as
    ``%.9g`` and any other as ``%s``; a template is built once per row shape
    (which cells are empty) and cached for the call.

    The rows go to a new file beside ``path``, which is renamed onto
    ``path`` once every row is written. On any failure the new file is
    removed, so ``path`` keeps what it held, or stays absent.
    """
    templates = {}
    try:
        temporary, fd = _new_file_beside(path)
        try:
            with open(fd, "w", newline="", encoding="utf-8") as fh:
                fh.write(",".join(result.fieldnames) + "\r\n")
                for floats, shapes, rows in result.row_slices():
                    known = templates.setdefault(floats, {})
                    for shape in set(shapes).difference(known):
                        known[shape] = _row_template(floats, shape)
                    fh.writelines(map(operator.mod, map(known.__getitem__, shapes), rows))
            os.replace(temporary, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            raise
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
            print(f"wrote {len(result)} rows to {out}")
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
