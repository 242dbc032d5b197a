"""Command-line harness: run, convergence, asymptotic, validate.

Exit codes: 0 success, 1 config or I/O error, 2 infeasible scenario,
3 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

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


# CSV lines are formatted a slice of columns at a time, in numpy. Each cell of
# a row fills a slot of whole uint64 words, whose byte 0 holds the comma before
# the cell; a last word holds the row's CRLF. What a slot leaves over is NUL,
# and no cell holds a NUL, so deleting the NULs of the slice's words joins its
# cells, commas and line ends.
#
# A float cell is emitted here only where its rounding is provably that of
# "%.9g" % v: a finite cell in the fixed notation, 1e-4 <= |v| < 1e9 once
# rounded, whose mantissa scaled to nine digits lies clear of a .5 tie and of
# a carry into a tenth digit. Every other float cell, an int outside
# 0..9999 and a cell of a list column is formatted in Python, cell by cell.


# A float slot is three words, A, B and C. Byte 1 holds the sign, bytes 2-6
# the "0." and up to three zeros of a cell below 1, byte 7 the first digit;
# digit i, 1-8, sits at byte 7 + 2i, and the byte before it takes the decimal
# point when it falls there:
#     byte   0    1     2    3    4-6    7   8     9   10   ...  22    23
#           ","  "-"  "0"  "."  "000"  d0  "."   d1  "."  ...  "."   d8
# Stripping a trailing zero or the point is zeroing its byte. An int slot is
# a word, which holds 0-9999 from byte 1 on.
#
# The tables are built by broadcasting over each digit's axis, most
# significant first.
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
_IS_ZERO = _ASCII == ord("0")
# Four digits at bytes 1, 3, 5 and 7, for word B or C. Byte 0, the point's,
# holds their trailing zeros until the layout masks it.
_QUAD = (
    _ASCII[:, None, None, None] << 8 | _ASCII[:, None, None] << 24 | _ASCII[:, None] << 40
    | _ASCII << 56
    | _IS_ZERO * (1 + _IS_ZERO[:, None] * (1 + _IS_ZERO[:, None, None] * (
        1 + _IS_ZERO[:, None, None, None]
    ))).astype(np.uint64)
).ravel()
# 0-9999 from byte 1 on: 0-9, 10-99, 100-999 and 1000-9999.
_SMALL_INT = np.concatenate([
    _ASCII << 8,
    (_ASCII[1:, None] << 8 | _ASCII << 16).ravel(),
    (_ASCII[1:, None, None] << 8 | _ASCII[:, None] << 16 | _ASCII << 24).ravel(),
    (
        _ASCII[1:, None, None, None] << 8 | _ASCII[:, None, None] << 16 | _ASCII[:, None] << 24
        | _ASCII << 32
    ).ravel(),
])
_LEAD = _ASCII << 56  # d0 in word A


def _exponent_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(power, scale, layout_row), indexed by the top 12 bits b of a float v.

    |v| has the decimal exponent e of the bottom of its binade, or e + 1
    from ``power[b]`` up, when the binade holds that power of ten. Index 2b
    or 2b + 1 of ``scale`` and ``layout_row`` picks one; a negative v wraps
    round to their second half. ``scale`` is 10^(8 - e), exact, which
    scales the fixed notation's |v| to a nine-digit mantissa. ``layout_row``
    is the cell's row of the layout tables, less its trailing zeros (0-8):
    rows 10(e + 4) + 1-9 hold the exponent and the digits kept, and 130 more
    the sign.
    """
    low = (np.arange(2048) - 1023) * 78913 >> 18  # floor(e log10 2), exact for e = -1023..1024
    power = 10.0 ** np.clip(low + 1, -20, 20)  # past 1e20 no exponent is fixed
    exponent = (low[:, None] + [0, 1]).ravel()
    fixed = (exponent >= -4) & (exponent <= 8)
    scale = np.where(fixed, 10 ** np.clip(8 - exponent, 0, 12), np.nan)
    layout_row = np.where(fixed, 10 * exponent + 49, 49).astype(np.int16)
    return (
        np.concatenate([power, power]),
        np.concatenate([scale, scale]),
        np.concatenate([layout_row, layout_row + 130]),
    )


def _layout_words() -> tuple[np.ndarray, ...]:
    """The words A, B and C that each layout row sets, and the digit masks of B and C."""
    row = np.arange(260)[:, None]
    minus, x = row // 130 == 1, row % 130 // 10 - 4
    kept = np.maximum(np.maximum(row % 10, 1), x + 1)  # the integer digits stay
    byte = np.arange(24)
    slot_bytes = (
        ord("-") * ((byte == 1) & minus)
        + ord("0") * ((x < 0) & ((byte == 2) | (byte >= 4) & (byte < 3 - x)))
        + ord(".") * ((x < 0) & (byte == 3))
        + ord(".") * ((byte >= 8) & (byte % 2 == 0) & ((byte - 8) // 2 == x) & (kept > x + 1))
    )
    digit_bytes = 0xFF * ((byte % 2 == 1) & (byte >= 9) & ((byte - 7) // 2 < kept))
    # Little-endian words: byte j of a word is bits 8j-8j+7.
    slot_words, digit_words = (
        np.stack([slot_bytes, digit_bytes]).astype(np.uint8).view("<u8").astype(np.uint64)
    )
    return (*slot_words.T.copy(), *digit_words[:, 1:].T.copy())


_POWER, _SCALE, _LAYOUT_ROW = _exponent_tables()
_OR_A, _OR_B, _OR_C, _MASK_B, _MASK_C = _layout_words()
# The scaled mantissa is within a few ulps, far below this, of |v| 10^(8 - e).
_TIE_MARGIN = 1e-6
_COMMA = np.uint64(ord(","))
_CRLF = np.uint64(ord("\r") | ord("\n") << 8)


def _fixed_slots(values: np.ndarray, empty: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(slots, fast): the (n, F, 3) slot words of an (n, F) block of float cells.

    ``fast`` marks the cells whose slots hold ``"%.9g" % v``; the slots of
    the other cells, and of each cell that ``empty`` marks, hold no meaning.
    """
    magnitude = np.abs(values)
    binade = values.view(np.int64) >> 52
    index = binade + binade + (magnitude >= _POWER.take(binade))
    with np.errstate(invalid="ignore"):  # inf, nan
        scaled = magnitude * _SCALE.take(index)
        mantissa = np.rint(scaled)
        fast = np.abs(scaled - mantissa) < 0.5 - _TIE_MARGIN
    fast &= scaled >= 1e8
    fast &= mantissa < 1e9
    if empty is not None:
        fast &= ~empty
    # The nine digits: the lead one, then two groups of four.
    digits = np.where(fast, mantissa, 1e8).astype(np.int64)
    upper = digits // 10000
    lower = digits - upper * 10000
    lead = upper // 10000
    upper -= lead * 10000
    upper_quad, lower_quad = _QUAD.take(upper), _QUAD.take(lower)
    # The trailing zeros: the lower group's, and the upper's when it is all zeros.
    zeros = lower_quad & 0xFF
    zeros += (lower == 0) * (upper_quad & 0xFF)
    layout = _LAYOUT_ROW.take(index) - zeros.view(np.int64)
    slots = np.empty(values.shape + (3,), np.uint64)
    np.bitwise_or(_OR_A.take(layout), _LEAD.take(lead), out=slots[..., 0])
    np.bitwise_or(upper_quad & _MASK_B.take(layout), _OR_B.take(layout), out=slots[..., 1])
    np.bitwise_or(lower_quad & _MASK_C.take(layout), _OR_C.take(layout), out=slots[..., 2])
    return slots, fast


def _float_slots(values: np.ndarray, empty: np.ndarray | None) -> np.ndarray:
    """The (n, F, 3) slot words of an (n, F) block of float cells, empty where ``empty``."""
    slots, fast = _fixed_slots(values, empty)
    slow = ~fast
    if slow.any():
        slots[slow] = 0
        rows, fields = np.nonzero(slow if empty is None else slow & ~empty)
        texts = [b"%.9g" % value for value in values[rows, fields].tolist()]
        slots[rows, fields, 1:] = np.array(texts, dtype="S16").view(np.uint64).reshape(-1, 2)
    return slots


def _text_slots(slots: np.ndarray, rows, texts: list[bytes]):
    """Write ``texts`` into the (n, w) ``slots`` of ``rows``, from byte 1 on."""
    chars = 8 * slots.shape[1] - 1
    texts = np.array(texts, dtype=f"S{chars}").view(np.uint8).reshape(-1, chars)
    slots.view(np.uint8)[rows, 1:] = texts


def _slot_width(texts: list[bytes]) -> int:
    """Words of a slot that holds the comma and the longest of ``texts``."""
    return max(map(len, texts), default=0) // 8 + 1


def _int_slots(values: np.ndarray, empty) -> np.ndarray:
    index = values.astype(np.int64)  # a uint64 past the int64s wraps round to a negative
    words = _SMALL_INT.take(index, mode="clip")
    wide = index.view(np.uint64) >= 10000  # and so does a negative
    if empty is not None:
        np.putmask(words, empty, 0)
        wide &= ~empty
    rows = np.flatnonzero(wide)
    if not rows.size:
        return words[:, None]
    texts = [b"%d" % value for value in values[rows].tolist()]
    slots = np.zeros((len(values), _slot_width(texts)), np.uint64)
    slots[:, 0] = words
    _text_slots(slots, rows, texts)
    return slots


def _list_slots(cells: list, empty) -> np.ndarray:
    texts = [str(cell).encode() for cell in cells]
    if empty is not None:
        for i in np.flatnonzero(empty).tolist():
            texts[i] = b""
    slots = np.zeros((len(cells), _slot_width(texts)), np.uint64)
    _text_slots(slots, slice(None), texts)
    return slots


def _csv_lines(columns, empty) -> bytes:
    """The CSV lines of one of ``ExperimentResult.row_slices()``.

    The float columns are formatted as one block; the slots of every column
    and the CRLF words are then laid side by side, a comma is set in byte 0
    of each slot but the first, and the NULs are deleted.
    """
    rows = len(columns[0])
    floating = [
        j for j, column in enumerate(columns)
        if not isinstance(column, list) and column.dtype.kind == "f"
    ]
    slots = [None] * len(columns)
    if floating:
        empty_floats = None
        if any(empty[j] is not None for j in floating):
            empty_floats = np.zeros((rows, len(floating)), dtype=bool)
            for f, j in enumerate(floating):
                if empty[j] is not None:
                    empty_floats[:, f] = empty[j]
        block = np.stack([columns[j] for j in floating], axis=1, dtype=np.float64)
        float_slots = _float_slots(block, empty_floats)
        for f, j in enumerate(floating):
            slots[j] = float_slots[:, f]
    for j, column in enumerate(columns):
        if isinstance(column, list):
            slots[j] = _list_slots(column, empty[j])
        elif slots[j] is None:
            slots[j] = _int_slots(column, empty[j])
    starts = np.cumsum([slot.shape[1] for slot in slots])
    words = np.concatenate([*slots, np.full((rows, 1), _CRLF)], axis=1)
    words[:, starts[:-1]] |= _COMMA
    return words.tobytes().translate(None, b"\0")


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
    """Comma-separated, CRLF-terminated, unquoted: no cell holds a comma, a newline or a NUL.

    The rows come from ``result.row_slices()``, at most
    ``experiments.ROW_SLICE`` at a time; a streamed result computes its
    blocks as they are written, so a failing block raises here. Each slice
    is formatted a column at a time in numpy and written as one ``bytes``: a
    float prints as ``"%.9g" % v``, any other cell as ``str()``, an empty
    cell as nothing. A float is formatted in numpy only where its rounding
    is provably that of ``"%.9g" % v``: in the fixed notation and clear of a
    .5 tie. Other floats, ints outside 0-9999 and list cells are formatted
    in Python, cell by cell.

    The rows go to a new file beside ``path``, which is renamed onto
    ``path`` once every row is written. On any failure the new file is
    removed, so ``path`` keeps what it held, or stays absent.
    """
    try:
        temporary, fd = _new_file_beside(path)
        try:
            with open(fd, "wb") as fh:
                fh.write((",".join(result.fieldnames) + "\r\n").encode())
                for columns, empty in result.row_slices():
                    fh.write(_csv_lines(columns, empty))
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
