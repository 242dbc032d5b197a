"""Output checks and solution-quality figures read from a workload's CSV.

The checks hold for any correct solver, not only for today's algorithm, so
they survive algorithm changes. Each takes one CSV written by one command
and returns the set of realization indices that failed, plus the per-item
values that the benchmark averages into the workload's quality figure.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from energymimo import oracle
from energymimo.errors import InfeasibleError

# Criterion-5 bound on the squared distance to the oracle, in W^2.
ORACLE_DIST_SQ_BOUND = 1e-2
# Asymptotic rows whose antenna count is re-derived by the grid oracle.
GRID_SAMPLE = 200
# Two counts tie when their BS powers agree this closely; the CSV trace is
# rounded to nine significant digits, which can flip an exact tie.
GRID_TIE_RTOL = 1e-9


def _read(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _floats(row, names) -> list[float] | None:
    """The named cells as floats, or None when one is missing or NaN."""
    try:
        values = [float(row[name]) for name in names]
    except (KeyError, ValueError):
        return None
    return None if any(math.isnan(v) for v in values) else values


def check_run(path, cfg, seed: int) -> tuple[set[int], list[float]]:
    """Every realization has a zf and a min_pa row without NaNs, and the
    min_pa PA consumption does not exceed zf's: the fixed point starts at
    ZF and only descends. Values: the PA saving in % of each kept
    realization."""
    by_realization: dict[int, dict] = {}
    failed: set[int] = set()
    for row in _read(path):
        index = int(row["realization"])
        by_realization.setdefault(index, {})[row["solver"]] = row
        values = _floats(row, ("p_tx", "p_pas", "p_bs", "gain_pas", "gain_bs"))
        if values is None or row["seed"] != str(seed):
            failed.add(index)
    savings = []
    for index in range(cfg.realizations):
        rows = by_realization.get(index, {})
        if set(rows) != {"zf", "min_pa"} or index in failed:
            failed.add(index)
            continue
        zf, min_pa = float(rows["zf"]["p_pas"]), float(rows["min_pa"]["p_pas"])
        if not min_pa <= zf * (1.0 + 1e-9):
            failed.add(index)
        elif rows["zf"]["discarded"] == "0":
            savings.append(100.0 * (1.0 - min_pa / zf))
    failed |= set(by_realization) - set(range(cfg.realizations))
    return failed, savings


def check_convergence(path, cfg, summary: dict) -> tuple[set[int], list[float]]:
    """Every realization has rows without NaNs, every solve converged and
    the mean final squared distance to the oracle is below the bound.
    Value: that mean distance, in W^2."""
    seen: set[int] = set()
    failed: set[int] = set()
    for row in _read(path):
        index = int(row["realization"])
        seen.add(index)
        if _floats(row, ("residual", "dist_sq_oracle")) is None:
            failed.add(index)
    everything = set(range(cfg.realizations))
    failed |= everything - seen
    dist_sq = float(summary.get("mean_final_dist_sq", "nan"))
    converged = int(summary.get("converged", "0"))
    if converged != cfg.realizations or not dist_sq < ORACLE_DIST_SQ_BOUND:
        # The command reports counts, not which realization fell short.
        failed |= everything
    return failed, [dist_sq]


def check_k_sweep(path, cfg, seed: int) -> tuple[set[int], list[float]]:
    """Each (realization, K) row is present; a feasible row has
    K+1 <= m_dagger <= M, and on a sample drawn with ``seed`` the antenna
    count (or the infeasibility) matches the exhaustive grid oracle.
    Values: the BS saving in % of each feasible row over the full array."""
    sc = cfg.scenario
    pa, bs = sc.pa_model(), sc.bs_model()
    rows = _read(path)
    failed: set[int] = set()
    expected = {(r, k) for r in range(cfg.realizations) for k in range(cfg.k_min, cfg.k_max + 1)}
    present = {(int(row["realization"]), int(row["k_users"])) for row in rows}
    failed |= {r for r, _ in expected ^ present}
    savings = []
    for row in rows:
        k = int(row["k_users"])
        if row["feasible"] != "1":
            continue
        values = _floats(row, ("trace", "m_dagger", "p_bs_dagger", "gain_vs_full"))
        if values is None or not k + 1 <= int(row["m_dagger"]) <= sc.m_antennas:
            failed.add(int(row["realization"]))
            continue
        savings.append(100.0 * (1.0 - 1.0 / values[3]))

    def bs_power(n, k, trace):
        return (
            pa.alpha * math.sqrt(n / (n - k) * trace) + bs.p_fix + bs.circuit_per_antenna * n
        )

    rng = np.random.default_rng(seed)
    for i in rng.choice(len(rows), size=min(GRID_SAMPLE, len(rows)), replace=False):
        row = rows[i]
        k, trace = int(row["k_users"]), float(row["trace"])
        try:
            grid = oracle.grid_min_bs(sc.m_antennas, k, trace, pa, bs, sc.p_max_watts)
        except InfeasibleError:
            grid = None
        if row["feasible"] != "1":
            ok = grid is None
        elif grid is None:
            ok = False
        else:
            planned = int(row["m_dagger"])
            ok = planned == grid or math.isclose(
                bs_power(planned, k, trace), bs_power(grid, k, trace), rel_tol=GRID_TIE_RTOL
            )
        if not ok:
            failed.add(int(row["realization"]))
    return failed, savings
