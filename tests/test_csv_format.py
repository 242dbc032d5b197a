"""The CSV writer's cells against Python's own formatting, cell by cell."""

import numpy as np
import pytest

from energymimo import cli


def _cells(column, empty=None) -> list[bytes]:
    """The cells that the CSV writer prints for one column, one line each."""
    return cli._csv_lines((column,), (empty,)).split(b"\r\n")[:-1]


def _percent_g(values) -> list[bytes]:
    return [b"%.9g" % value for value in np.asarray(values, dtype=float).tolist()]


def _fast_share(values) -> float:
    """The share of ``values`` that the numpy path formats, the rest being Python's."""
    block = np.asarray(values, dtype=float).reshape(-1, 1)
    return float(np.mean(cli._fixed_slots(block, None)[1]))


def _ties() -> np.ndarray:
    """Doubles whose tenth significant digit is an exact 5 and nothing follows it.

    In the fixed notation's decades 10^e, e = -4..8, such a tie is an odd
    multiple of 2^(e - 9): |v| 10^(8 - e) is then an odd multiple of 5^(8 - e) / 2.
    """
    ties = []
    for e in range(-4, 9):
        unit = 2.0 ** (e - 9)
        first, last = int(np.ceil(10.0 ** e / unit)) | 1, int(10.0 ** (e + 1) / unit)
        odd = first + 2 * np.unique(np.linspace(0, (last - first - 1) // 2, 200).astype(np.int64))
        ties.append(odd * unit)
    return np.concatenate(ties)


def _neighbours(values, steps=3) -> np.ndarray:
    """``values`` and their ``steps`` nearest doubles on either side."""
    out = [np.asarray(values, dtype=float)]
    up = down = out[0]
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_float_cells_equal_percent_g_on_random_doubles():
    rng = np.random.default_rng(34)
    # Random bits reach every exponent, NaNs and infinities; the log-uniform
    # half crowds the fixed notation, 1e-4 to 1e9, and its two edges.
    bits = rng.integers(0, 2**64, 500_000, dtype=np.uint64, endpoint=False).view(float)
    near = 10.0 ** rng.uniform(-6.0, 10.0, 500_000) * rng.choice([-1.0, 1.0], 500_000)
    for values in np.array_split(np.concatenate([bits, near]), 16):
        assert _cells(values) == _percent_g(values)
    assert 0.0 < _fast_share(bits) < 0.05
    assert 0.7 < _fast_share(near) < 1.0


ADVERSARIAL = {
    # Exact ties go to Python, which rounds them half to even.
    "ties": lambda: _ties(),
    "ties_and_carries_past_it": lambda: np.array([1000000005.0, 1000000015.0, 9.9999999995e-5]),
    "powers_of_ten": lambda: _neighbours(10.0 ** np.arange(-6, 11)),
    # Where the rounding carries into the notation's other side.
    "carries": lambda: _neighbours([
        999999999.5, 999999999.4999999, 999999999.0, 99999999.95, 9.9999999995e-5,
        9.999999995e-5, 9.99999999e-5, 0.0001, 0.00099999999995, 9.999999995, 1e9, 1e-4,
    ]),
    "zeros_infinities_nan": lambda: np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]),
    "subnormals": lambda: _neighbours([5e-324, 1e-310, np.finfo(float).tiny]),
    "trailing_zeros": lambda: np.array([
        0.5, 1.5, 10.0, 100.0, 1e8, 123456780.0, 12345678.0, 1.2, 0.00012, 0.001, 7.0, 120.5,
    ]),
}


@pytest.mark.parametrize("build", list(ADVERSARIAL.values()), ids=list(ADVERSARIAL))
def test_float_cells_equal_percent_g_on_adversarial_values(build):
    values = build()
    values = np.concatenate([values, -values])
    assert _cells(values) == _percent_g(values)


def test_exact_ties_and_non_fixed_cells_fall_back_to_python():
    assert _fast_share(_ties()) == 0.0
    assert _fast_share([0.0, -0.0, np.inf, np.nan, 5e-324, 1e-5, 1e9, 1e300]) == 0.0
    assert _fast_share([0.0001, 1.0, 123456789.0, -0.5]) == 1.0


def test_empty_float_cells_are_empty_whatever_they_hold():
    values = np.array([1.5, np.nan, 123456789.5, -0.0, 2.0])
    empty = np.array([False, True, True, True, False])
    assert _cells(values, empty) == [b"1.5", b"", b"", b"", b"2"]


INTS = [
    0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456, 1234567, 12345678,
    -1, -9999, -10000, np.iinfo(np.int64).min, np.iinfo(np.int64).max,
]


@pytest.mark.parametrize("column", [
    np.array(INTS, dtype=np.int64),
    np.array([0, 9999, 10000, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64),
    np.arange(10001, dtype=np.int64),
], ids=["int64", "uint64", "every_small_int"])
def test_int_cells_equal_str(column):
    assert _cells(column) == [b"%d" % value for value in column.tolist()]
    empty = np.arange(len(column)) % 3 == 1
    assert _cells(column, empty) == [
        b"" if gap else b"%d" % value for value, gap in zip(column.tolist(), empty)
    ]


def test_list_cells_print_as_str_in_utf_8():
    cells = ["zf", "", "min_pa", 2**70, "détail with spaces", "a" * 30]
    empty = np.array([False, False, True, False, False, False])
    assert _cells(cells, empty) == [b"zf", b"", b"", b"%d" % 2**70, "détail with spaces".encode(),
                                    b"a" * 30]


def test_lines_join_every_kind_of_column_in_order():
    columns = (
        np.array([3, 40000]), ["x", "yz"], np.array([0.25, -1e-7]),
        np.array([7, 8], dtype=np.uint64), np.array([np.nan, 12.5]),
    )
    empty = (None, None, np.array([False, True]), None, np.array([True, False]))
    assert cli._csv_lines(columns, empty) == b"3,x,0.25,7,\r\n40000,yz,,8,12.5\r\n"


def test_narrow_dtypes_print_as_their_python_values():
    columns = (
        np.array([1.1, -2.5, np.inf], dtype=np.float32), np.array([-3, 7, 127], dtype=np.int8),
        np.array([70000, 5, 0], dtype=np.uint32), np.array([0.1, 3.0, -1e-5], dtype=np.float16),
    )
    cells = zip(*(column.tolist() for column in columns))
    expected = [b"%.9g,%d,%d,%.9g\r\n" % row for row in cells]
    assert cli._csv_lines(columns, (None,) * 4) == b"".join(expected)
