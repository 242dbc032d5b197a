"""Streamed commands: bounded memory, the pool's window and the atomic CSV write."""

import gc
import os
import stat
import sys
import threading
import time
import tracemalloc

import pytest

from energymimo import experiments, precoding
from energymimo.cli import main, write_csv
from energymimo.config import ExperimentConfig, with_scenario
from energymimo.errors import SingularChannelError
from energymimo.experiments import (
    PLAN_BLOCK,
    VALIDATION_FIELDS,
    ExperimentResult,
    asymptotic_experiment,
    convergence_experiment,
    run_experiment,
)

# Q * K * M = 32768 channel entries: one realization per solver block.
WIDEBAND_CFG = "m_antennas = 32\nk_users = 4\nsubcarriers = 256\nrealizations = 3\nseed = 8\n"


def _write_peak(path, result) -> int:
    """The tracemalloc peak while ``result`` is written to ``path``, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        write_csv(str(path), result)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _k_sweep(realizations):
    return with_scenario(
        ExperimentConfig(asym_mode="k_sweep", realizations=realizations, k_min=1, k_max=10),
        m_antennas=64, seed=5101,
    )


def _zf_run(realizations):
    return with_scenario(
        ExperimentConfig(realizations=realizations, precoders=("zf",)),
        m_antennas=16, k_users=2, subcarriers=1, seed=5,
    )


def test_k_sweep_write_peak_does_not_grow_with_rows(tmp_path):
    # 4,000 and 40,000 rows of 14 cells, in blocks of 204 realizations. The
    # summary keeps two gains and two flags per realization; the rest is at
    # most two blocks' rows, whatever the row count. One block of rows is
    # PLAN_BLOCK rows of at most 200 bytes each.
    write_csv(str(tmp_path / "warm.csv"), asymptotic_experiment(_k_sweep(60)))
    small = _write_peak(tmp_path / "small.csv", asymptotic_experiment(_k_sweep(400)))
    result = asymptotic_experiment(_k_sweep(4000))
    large = _write_peak(tmp_path / "large.csv", result)
    assert len(result) == 40_000
    assert large - small < PLAN_BLOCK * 200, (small, large)


def test_run_write_peak_grows_by_the_summary_columns_alone(tmp_path):
    # 1,024 realizations per block at M=16, K=2, Q=1. Per realization the
    # summary keeps two gains (16 bytes) and a discard flag (1 byte), plus
    # the kept gains it averages (8 bytes).
    write_csv(str(tmp_path / "warm.csv"), run_experiment(_zf_run(50)))
    small = _write_peak(tmp_path / "small.csv", run_experiment(_zf_run(2000)))
    result = run_experiment(_zf_run(20_000))
    large = _write_peak(tmp_path / "large.csv", result)
    assert len(result) == 20_000
    assert large - small <= 40 * (20_000 - 2000), (small, large)


def _convergence(realizations):
    return with_scenario(
        ExperimentConfig(realizations=realizations, oracle=False),
        m_antennas=32, k_users=1, subcarriers=1, seed=3,
    )


def test_convergence_write_peak_grows_by_a_few_numbers_per_row(tmp_path):
    # At M=32, K=1, Q=1 one block holds all 1,024 realizations, about 117
    # iterations, and so CSV rows, each. The fixed point records two numbers
    # per iteration, and the block's rows are a few arrays of one number per
    # row: about 75 bytes per row. Keeping every iterate, an M-vector, took
    # about 800.
    write_csv(str(tmp_path / "warm.csv"), convergence_experiment(_convergence(8)))
    few = convergence_experiment(_convergence(64))
    small = _write_peak(tmp_path / "small.csv", few)
    result = convergence_experiment(_convergence(1024))
    large = _write_peak(tmp_path / "large.csv", result)
    assert len(result) > 100 * 1024
    assert large - small <= 160 * (len(result) - len(few)), (small, large)


def test_streamed_result_counts_what_was_written(tmp_path):
    result = asymptotic_experiment(_k_sweep(30))
    write_csv(str(tmp_path / "out.csv"), result)
    assert len(result) == 30 * 10
    assert result.rows == []
    assert result.summary["realizations"] == 30
    collected = asymptotic_experiment(_k_sweep(30))
    assert len(collected.rows) == 30 * 10
    assert collected.summary == result.summary
    assert collected.rows == []
    # Read first, the summary computes every block and drops its rows.
    written = run_experiment(_zf_run(30))
    write_csv(str(tmp_path / "run.csv"), written)
    summary_first = run_experiment(_zf_run(30))
    assert summary_first.summary == written.summary
    assert len(summary_first) == len(written) == 30
    assert summary_first.rows == []
    # A result built from columns reads the same each time.
    eager = ExperimentResult(
        VALIDATION_FIELDS, (["a", "b"], [1, 0], ["x", "y"]), {"passed": False}
    )
    assert eager.rows == eager.rows == [("a", 1, "x"), ("b", 0, "y")]
    assert len(eager) == 2


def test_small_blocks_are_joined_into_row_slices(monkeypatch):
    # One realization, one row, per block at Q = 256: the writer takes the
    # three blocks as one slice, and one row at a time when a slice is one row.
    cfg = with_scenario(
        ExperimentConfig(realizations=3, precoders=("min_pa",)),
        m_antennas=32, k_users=4, subcarriers=256, seed=8,
    )
    assert [len(columns[0]) for columns, _ in run_experiment(cfg).row_slices()] == [3]
    monkeypatch.setattr(experiments, "ROW_SLICE", 2)
    assert [len(columns[0]) for columns, _ in run_experiment(cfg).row_slices()] == [2, 1]
    # Parts that differ in which fields have empty cells join cell for cell.
    fields = ("n", "x", "s")

    def parts():
        yield ExperimentResult(
            fields, ([1, 2], [0.5, 1.5], ["a", "b"]), {}, empty={"x": [True, False]}
        )
        yield ExperimentResult(fields, ([3], [2.5], ["c"]), {})
        yield ExperimentResult(fields, ([4], [3.5], ["d"]), {}, empty={"s": True})
        return {"parts": 3}

    monkeypatch.setattr(experiments, "ROW_SLICE", 512)
    joined = ExperimentResult.streamed(fields, parts())
    assert joined.rows == [(1, None, "a"), (2, 1.5, "b"), (3, 2.5, "c"), (4, 3.5, None)]
    assert len(joined) == 4 and joined.summary == {"parts": 3}


def _failing_third_block(monkeypatch):
    """Make the draw of the block that starts at realization 2 fail."""
    real = experiments._draw_block

    def failing(cfg, block, *args):
        if block.start == 2:
            raise SingularChannelError("stub Gram failure", realization=2)
        return real(cfg, block, *args)

    monkeypatch.setattr(experiments, "_draw_block", failing)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_failed_command_leaves_the_output_path_as_it_was(tmp_path, monkeypatch, capsys, threads):
    _failing_third_block(monkeypatch)
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text(WIDEBAND_CFG)
    absent = tmp_path / "absent.csv"
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"earlier bytes\r\n")
    for out in (absent, kept):
        argv = ["run", "--config", str(cfgfile), "--out", str(out), "--threads", threads]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "infeasible scenario: realization 2: stub Gram failure" in err
    assert not absent.exists()
    assert kept.read_bytes() == b"earlier bytes\r\n"
    assert sorted(os.listdir(tmp_path)) == ["kept.csv", "wide.cfg"]


def test_written_csv_has_the_mode_of_a_plain_open(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("m_antennas = 8\nk_users = 2\nrealizations = 3\nseed = 11\n")
    umask = os.umask(0o022)
    try:
        with open(tmp_path / "plain.csv", "w"):
            pass
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "out.csv")]) == 0
    finally:
        os.umask(umask)
    mode = stat.S_IMODE(os.stat(tmp_path / "out.csv").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.csv").st_mode) == 0o644
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "out.csv", "plain.csv"]


def test_failed_validation_still_writes_its_csv(tmp_path, monkeypatch):
    failed = ExperimentResult(
        VALIDATION_FIELDS, (["stub"], [0], ["stub detail"]), {"passed": False}
    )
    monkeypatch.setattr("energymimo.cli.validate_suite", lambda cfg: failed)
    out = tmp_path / "validate.csv"
    assert main(["validate", "--out", str(out)]) == 3
    assert out.read_bytes() == b"check,passed,detail\r\nstub,0,stub detail\r\n"
    assert sorted(os.listdir(tmp_path)) == ["validate.csv"]


def test_pool_holds_at_most_threads_blocks_not_yet_written(tmp_path, monkeypatch):
    # Workers that finish at once and a writer that takes 5 ms per block:
    # without the window, the pool would finish every block early.
    cfgfile = tmp_path / "asym.cfg"
    cfgfile.write_text(
        "m_antennas = 16\nrealizations = 60\nseed = 7\nasym_mode = k_sweep\nk_min = 1\nk_max = 8\n"
    )
    monkeypatch.setattr(experiments, "PLAN_BLOCK", 3 * 8)  # 20 blocks of three
    real_map = experiments._map
    lock = threading.Lock()
    counts = {"finished": 0, "written": 0, "most_waiting": 0}

    def counting_map(cfg, worker, blocks):
        def counted(block, workspace):
            part = worker(block, workspace)
            with lock:
                counts["finished"] += 1
                waiting = counts["finished"] - counts["written"]
                counts["most_waiting"] = max(counts["most_waiting"], waiting)
            return part

        for part in real_map(cfg, counted, blocks):
            yield part
            # Resumed: the writer has taken every row of this block.
            time.sleep(0.005)
            with lock:
                counts["written"] += 1

    monkeypatch.setattr(experiments, "_map", counting_map)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in ("1", "3"):
            out = tmp_path / f"threads{threads}.csv"
            argv = ["asymptotic", "--config", str(cfgfile), "--out", str(out), "--threads", threads]
            assert main(argv) == 0
    finally:
        sys.setswitchinterval(interval)
    assert counts["finished"] == counts["written"] == 40
    assert counts["most_waiting"] == 3
    assert (tmp_path / "threads3.csv").read_bytes() == (tmp_path / "threads1.csv").read_bytes()


def _record_block_buffers(monkeypatch, on_solve=None):
    """Record (thread, stack pointer) of each block solve and (thread, packing pointer)."""
    seen = {"stack": [], "packed": []}
    real_solve, real_pack = experiments.solve_stack, precoding._packed_products

    def pointer(array):
        return threading.get_ident(), array.__array_interface__["data"][0]

    def solve(names, h, *args, **kwargs):
        seen["stack"].append(pointer(h))
        if on_solve is not None:
            on_solve()
        return real_solve(names, h, *args, **kwargs)

    def pack(h, workspace=None):
        packed = real_pack(h, workspace)
        seen["packed"].append(pointer(packed))
        return packed

    monkeypatch.setattr(experiments, "solve_stack", solve)
    monkeypatch.setattr(precoding, "_packed_products", pack)
    return seen


def test_run_keeps_one_stack_and_one_packing_for_all_its_blocks(tmp_path, monkeypatch):
    seen = _record_block_buffers(monkeypatch)
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text(WIDEBAND_CFG)  # three blocks of one realization
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 0
    for name in ("stack", "packed"):
        assert len(seen[name]) == 3
        assert len(set(seen[name])) == 1, name


def test_two_workers_never_share_a_block_buffer(tmp_path, monkeypatch):
    # The first two solves wait for each other, so two pool threads run
    # blocks. Each keeps one stack and one packing, and no two share one.
    barrier = threading.Barrier(2, timeout=30)
    lock = threading.Lock()
    solves = []

    def first_two_meet():
        with lock:
            solves.append(1)
            meet = len(solves) <= 2
        if meet:
            barrier.wait()

    seen = _record_block_buffers(monkeypatch, first_two_meet)
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text(WIDEBAND_CFG.replace("realizations = 3", "realizations = 6"))
    argv = ["run", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv"), "--threads", "2"]
    assert main(argv) == 0
    for name in ("stack", "packed"):
        assert len(seen[name]) == 6
        by_thread = {}
        for thread, address in seen[name]:
            by_thread.setdefault(thread, set()).add(address)
        assert len(by_thread) == 2, name
        assert all(len(addresses) == 1 for addresses in by_thread.values()), name
        assert len(set.union(*by_thread.values())) == 2, name


def test_more_workers_than_cores_write_the_bytes_of_one(tmp_path, monkeypatch):
    # Four workers on two realizations per block, switching every 10 us: a
    # buffer that two of them shared would mix their blocks' channels.
    cfgfile = tmp_path / "q32.cfg"
    cfgfile.write_text(
        "m_antennas = 16\nk_users = 2\nsubcarriers = 32\nrealizations = 24\nseed = 3\n"
    )
    monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", 2 * 32 * 2 * 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in ("1", "4"):
            out = tmp_path / f"threads{threads}.csv"
            argv = ["run", "--config", str(cfgfile), "--out", str(out), "--threads", threads]
            assert main(argv) == 0
    finally:
        sys.setswitchinterval(interval)
    assert (tmp_path / "threads4.csv").read_bytes() == (tmp_path / "threads1.csv").read_bytes()
