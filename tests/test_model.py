import numpy as np
import pytest

from energymimo import (
    BsModel,
    PaModel,
    bs_consumed_power,
    estimate_flops,
    gain_metrics,
    pa_consumed_power,
    per_antenna_powers,
)
from energymimo.errors import DimensionError, DomainError


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p_max": 0.0},
        {"p_max": -1.0},
        {"p_max": 1.0, "eta_max": 0.0},
        {"p_max": 1.0, "eta_max": -0.2},
        {"p_max": 1.0, "eta_max": 1.5},
    ],
)
def test_pa_model_validation(kwargs):
    with pytest.raises(DomainError):
        PaModel(**kwargs)


def test_pa_model_derived_quantities():
    # alpha = p_max^(1/2) / eta_max, and at p_max the amplifier runs at eta_max.
    pa = PaModel(p_max=1.0, eta_max=0.22)
    assert pa.alpha == pytest.approx(1.0 / 0.22)
    assert pa_consumed_power([pa.p_max], pa) == pytest.approx(pa.p_max / pa.eta_max)
    # The edge eta_max = 1 of the valid domain builds.
    assert PaModel(p_max=4.0, eta_max=1.0).alpha == 2.0


def test_per_antenna_powers_scalar_case():
    assert per_antenna_powers(np.array([[[2.0]]])) == pytest.approx([4.0])


def test_per_antenna_powers_zero_case():
    powers = per_antenna_powers(np.zeros((3, 4, 2), dtype=complex))
    assert np.all(powers == 0.0)


def test_per_antenna_powers_sums_over_subcarriers():
    assert per_antenna_powers(np.ones((2, 1, 1))) == pytest.approx([2.0])


def test_per_antenna_powers_shape_mismatch():
    with pytest.raises(DimensionError):
        per_antenna_powers(np.ones((2, 1)))
    with pytest.raises(DimensionError):
        per_antenna_powers(np.ones(3))


@pytest.mark.parametrize("shape", [(5, 1, 64, 4), (3, 256, 32, 4), (4, 8, 16, 1), (2, 3, 5, 2)])
def test_per_antenna_powers_of_a_stack_equal_slice_calls(shape):
    rng = np.random.default_rng(sum(shape))
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w *= 10.0 ** rng.uniform(-8.0, 0.0, size=shape)
    stacked = per_antenna_powers(w)
    assert stacked.shape == (shape[0], shape[2])
    for r in range(shape[0]):
        assert np.array_equal(stacked[r], per_antenna_powers(w[r]))


def test_pa_consumed_power_table_values():
    pa = PaModel(p_max=1.0, eta_max=0.22)
    assert pa_consumed_power([1.0], pa) == pytest.approx(4.5455, abs=1e-4)
    assert pa_consumed_power([0.0, 0.0, 0.0], pa) == 0.0
    pa2 = PaModel(p_max=4.0, eta_max=1.0)  # alpha = 2
    assert pa_consumed_power([0.25, 0.25], pa2) == pytest.approx(2.0)


def test_pa_consumed_power_rejects_negative():
    pa = PaModel(p_max=1.0)
    with pytest.raises(DomainError):
        pa_consumed_power([-0.1], pa)


def test_bs_consumed_power_all_idle():
    pa = PaModel(p_max=1.0)
    bs = BsModel(p_fix=15.0, circuit_per_antenna=0.7)
    report = bs_consumed_power(np.zeros(8), pa, bs)
    assert report.p_bs == pytest.approx(15.0)
    assert report.m_active == 0
    assert report.shares == pytest.approx((0.0, 0.0, 1.0))


def test_bs_consumed_power_hand_case():
    pa = PaModel(p_max=1.0, eta_max=1.0)  # alpha = 1
    bs = BsModel(p_fix=0.0, circuit_per_antenna=2.0)
    report = bs_consumed_power([1.0], pa, bs)
    assert report.p_bs == pytest.approx(3.0)
    assert report.p_tx == pytest.approx(1.0)
    assert report.m_active == 1
    assert sum(report.shares) == pytest.approx(1.0, abs=1e-12)


def test_gain_metrics():
    pa = PaModel(p_max=1.0)
    bs = BsModel()
    report = bs_consumed_power([0.5, 0.5], pa, bs)
    assert gain_metrics(report, report) == pytest.approx((1.0, 1.0))
    half = bs_consumed_power([0.125, 0.125], pa, bs)
    gain_pas, _ = gain_metrics(report, half)
    assert gain_pas == pytest.approx(2.0)
    idle = bs_consumed_power([0.0], pa, BsModel(p_fix=0.0, circuit_per_antenna=0.0))
    with pytest.raises(ZeroDivisionError):
        gain_metrics(report, idle)
    # A stack with one idle row raises as well.
    free = BsModel(p_fix=0.0, circuit_per_antenna=0.0)
    stacked = bs_consumed_power([[0.5, 0.5], [0.0, 0.0]], pa, free)
    with pytest.raises(ZeroDivisionError):
        gain_metrics(stacked, stacked)


@pytest.mark.parametrize("m", [1, 7, 8, 64, 300])
def test_stacked_power_accounting_equals_one_row_calls(m):
    """An (R, M) stack gives length-R arrays that equal R one-row calls bit for bit."""
    rng = np.random.default_rng(m)
    pa = PaModel(p_max=1.0)
    bs = BsModel()
    powers = rng.uniform(0.0, 1e-3, size=(25, m)) ** 2
    powers[:, 1::3] = 0.0  # switched-off antennas
    powers[3] = 1e-12  # every antenna below the active threshold
    stacked = bs_consumed_power(powers, pa, bs)
    rows = [bs_consumed_power(row, pa, bs) for row in powers]
    for name in ("p_tx", "p_pas", "p_bs", "m_active"):
        column = getattr(stacked, name)
        assert column.shape == (len(powers),)
        cells = column.tolist()
        assert all(type(cell) is type(getattr(row, name)) for cell, row in zip(cells, rows))
        assert cells == [getattr(row, name) for row in rows], name
    for j in range(3):
        assert stacked.shares[j].tolist() == [row.shares[j] for row in rows]
    assert pa_consumed_power(powers, pa).tolist() == [pa_consumed_power(row, pa) for row in powers]
    gains = gain_metrics(stacked, bs_consumed_power(powers[::-1], pa, bs))
    assert [g.tolist() for g in gains] == [
        list(pair) for pair in zip(*(gain_metrics(a, b) for a, b in zip(rows, rows[::-1])))
    ]


def test_estimate_flops_conventional_hand_value():
    # (1/3) 4^3 128 + 3 * 16 * 32 * 128 + 2 * 4 * 32 * 128 + 4 * 128
    flops = estimate_flops("wideband", "conventional", 4, 32, 128)
    assert flops == pytest.approx(232618.6667, rel=1e-6)


def test_estimate_flops_unit_case():
    assert estimate_flops("wideband", "conventional", 1, 1, 1) == pytest.approx(19.0 / 3.0)


def test_estimate_flops_proposed_dominates():
    for k, m, q in [(1, 1, 1), (4, 32, 128), (8, 64, 16)]:
        conv = estimate_flops("wideband", "conventional", k, m, q)
        prop = estimate_flops("wideband", "proposed", k, m, q, iterations=1)
        assert prop >= conv


def test_estimate_flops_narrowband_ignores_q():
    assert estimate_flops("narrowband", "proposed", 4, 32, 128, 10) == estimate_flops(
        "narrowband", "proposed", 4, 32, 1, 10
    )


def test_estimate_flops_asymptotic_counts_active_antennas():
    small = estimate_flops("asymptotic", "proposed", 4, 8, 64)
    full = estimate_flops("asymptotic", "conventional", 4, 32, 64)
    assert small < full
    # no iteration factor in the asymptotic system
    assert estimate_flops("asymptotic", "proposed", 4, 8, 64, iterations=5) == small


def test_estimate_flops_validation():
    with pytest.raises(DomainError):
        estimate_flops("wideband", "fancy", 1, 1, 1)
    with pytest.raises(DomainError):
        estimate_flops("magic", "proposed", 1, 1, 1)
    with pytest.raises(DomainError):
        estimate_flops("wideband", "proposed", 0, 1, 1)


def test_pa_consumption_concavity_bound():
    # alpha * sqrt(p_tx) lower-bounds the consumption, tight for one antenna.
    pa = PaModel(p_max=1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.uniform(0.0, 2.0, size=6)
        total = pa_consumed_power(p, pa)
        assert total >= pa.alpha * np.sqrt(p.sum()) - 1e-12
    single = np.zeros(6)
    single[2] = 1.7
    assert pa_consumed_power(single, pa) == pytest.approx(pa.alpha * np.sqrt(1.7))


def test_pa_consumption_monotone_and_uniform():
    pa = PaModel(p_max=1.0)
    p = np.array([0.1, 0.2, 0.3])
    bumped = p.copy()
    bumped[1] += 0.05
    assert pa_consumed_power(bumped, pa) > pa_consumed_power(p, pa)
    uniform = np.full(7, 0.04)
    assert pa_consumed_power(uniform, pa) == pytest.approx(pa.alpha * 7 * 0.2)
