import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from energymimo import experiments, oracle
from energymimo.cli import main, write_csv
from energymimo.config import (
    ExperimentConfig,
    dbm_to_watts,
    load_config,
    parse_config_text,
    with_scenario,
)
from energymimo.errors import ConfigError, InfeasibleError, OracleSizeError, SingularChannelError
from energymimo.experiments import (
    PLAN_BLOCK,
    ExperimentResult,
    _blocks,
    _realization_blocks,
    asymptotic_experiment,
    convergence_experiment,
    run_experiment,
    validate_suite,
)
from energymimo.model import bs_consumed_power, gain_metrics
from energymimo.precoding import AS1_PRECODERS, solve_stack

from conftest import draw_realization

# Q * K * M = 32768 channel entries: one realization per solver block.
WIDEBAND_CFG = "m_antennas = 32\nk_users = 4\nsubcarriers = 256\nrealizations = 3\nseed = 8\n"


def test_dbm_conversion():
    assert dbm_to_watts(-96.0) == pytest.approx(10.0 ** (-12.6))
    assert dbm_to_watts(30.0) == pytest.approx(1.0)


def test_parse_config_text_roundtrip():
    text = """
    # experiment-table scenario
    m_antennas = 32
    k_users = 4
    p_max_watts = 1
    eta_max = 0.22
    noise_dbm = -96   # thermal noise
    precoders = zf, min_pa
    discard_over_pmax = true
    q_list = 4,16,64
    """
    values = parse_config_text(text)
    assert values["m_antennas"] == 32
    assert values["precoders"] == ("zf", "min_pa")
    assert values["discard_over_pmax"] is True
    assert values["q_list"] == (4, 16, 64)


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config_text("m_antennas = 32\nbogus_key = 1\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err2:
        parse_config_text("m_antennas thirty\n")
    assert err2.value.line == 1
    with pytest.raises(ConfigError) as err3:
        parse_config_text("k_users = four\n")
    assert err3.value.line == 1
    # Removed knobs are unknown keys now.
    for removed in (
        "regularization = 0", "initial_power = 1", "active_threshold_watts = 1e-9", "backoff = 10",
    ):
        with pytest.raises(ConfigError, match="unknown key") as err4:
            parse_config_text(f"m_antennas = 32\n{removed}\n")
        assert err4.value.line == 2


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("m_antennas = 16\nseed = 5\nrealizations = 7\n")
    cfg = load_config(str(path), {"seed": 9, "realizations": None})
    assert cfg.scenario.m_antennas == 16
    assert cfg.scenario.seed == 9  # override wins
    assert cfg.realizations == 7


def test_load_config_validation_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("precoders = zf, warp_drive\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("precoders = saturating\nk_users = 2\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))


def test_run_experiment_rows_and_discard_column():
    cfg = with_scenario(
        ExperimentConfig(realizations=5, precoders=("zf", "min_pa")),
        m_antennas=8, k_users=2, seed=3,
    )
    result = run_experiment(cfg)
    rows = [dict(zip(result.fieldnames, row)) for row in result.rows]
    assert len(rows) == 10  # one row per realization per solver
    assert set(result.fieldnames) >= {"solver", "p_pas", "gain_bs", "discarded"}
    zf_rows = [r for r in rows if r["solver"] == "zf"]
    assert all(r["gain_pas"] == pytest.approx(1.0) for r in zf_rows)


def test_discard_rule_triggers_on_as1_solvers_only():
    # a tiny cap: the uncapped solvers blow through it, every realization
    # is discarded; the saturating solver is not part of the trigger set
    cfg = with_scenario(
        ExperimentConfig(realizations=4, precoders=("zf", "min_pa")),
        m_antennas=8, k_users=1, seed=12, p_max_watts=1e-6,
    )
    result = run_experiment(cfg)
    assert all(dict(zip(result.fieldnames, r))["discarded"] == 1 for r in result.rows)
    assert result.summary["discarded"] == 4

    relaxed = with_scenario(cfg, p_max_watts=1e9)
    result2 = run_experiment(relaxed)
    assert all(dict(zip(result2.fieldnames, r))["discarded"] == 0 for r in result2.rows)


def test_saturating_solver_respects_cap():
    cfg = with_scenario(
        ExperimentConfig(realizations=4, precoders=("zf", "min_pa", "saturating")),
        m_antennas=8, k_users=1, seed=12,
    )
    result = run_experiment(cfg)
    rows = [dict(zip(result.fieldnames, row)) for row in result.rows]
    sat = [r for r in rows if r["solver"] == "saturating"]
    assert len(sat) == 4
    assert all(r["p_tx"] <= 8 * cfg.scenario.p_max_watts + 1e-9 for r in sat)


def reference_run(cfg):
    """``run`` rows and summary, one report and one gain pair per row at a time."""
    sc = cfg.scenario
    pa, bs = sc.pa_model(), sc.bs_model()
    rows = []
    discards = 0
    kept_gains = {name: ([], []) for name in cfg.precoders}  # gain_pas, gain_bs
    for index in range(cfg.realizations):
        _, _, h, d = draw_realization(cfg, index, subcarriers=sc.subcarriers)
        powers = {
            name: solve_stack((name,), h, d, cfg.fixed_point(), sc.p_max_watts)[name].powers[0]
            for name in cfg.precoders
        }
        reports = {name: bs_consumed_power(p, pa, bs) for name, p in powers.items()}
        discarded = int(cfg.discard_over_pmax and any(
            np.any(powers[name] > sc.p_max_watts) for name in cfg.precoders
            if name in AS1_PRECODERS
        ))
        discards += discarded
        reference = reports.get("zf")
        for name in cfg.precoders:
            report = reports[name]
            gains = gain_metrics(reference, report) if reference is not None else (None, None)
            rows.append((
                sc.seed, index, name, report.p_tx, report.p_pas, report.p_bs,
                report.m_active, *gains, discarded,
            ))
            if reference is not None and not discarded:
                for kept, gain in zip(kept_gains[name], gains):
                    kept.append(gain)
    summary = {"realizations": cfg.realizations, "discarded": discards}
    for name, gains in kept_gains.items():
        for field, kept in zip(("gain_pas", "gain_bs"), gains):
            if kept:
                summary[f"mean_{field}[{name}]"] = float(np.mean(kept))
    return rows, summary


def reference_convergence(cfg):
    """``convergence`` rows and summary, one iteration at a time."""
    sc = cfg.scenario
    pa = sc.pa_model()
    rows, iterations, final_dists = [], [], []
    converged = 0
    for index in range(cfg.realizations):
        _, _, h, d = draw_realization(cfg, index, subcarriers=sc.subcarriers)
        optimum = None
        if cfg.oracle and sc.k_users == 1 and sc.subcarriers == 1:
            optimum = oracle.analytic_single_user(h, d, pa).powers[0]
        elif cfg.oracle:
            try:
                optimum = oracle.solve_min_pa_bruteforce_block(
                    h, d, pa,
                    max_m=cfg.oracle_max_m, max_k=cfg.oracle_max_k, max_q=cfg.oracle_max_q,
                ).powers[0]
            except OracleSizeError:
                pass
        reference = None if optimum is None else optimum[None, :]
        solution = solve_stack(("min_pa",), h, d, cfg.fixed_point(), reference=reference)["min_pa"]
        trace = solution.trace
        assert len(trace) == solution.iterations[0]
        assert trace[-1, 0] == solution.residual[0]
        dist = None
        for i, (residual, dist_sq) in enumerate(trace.tolist(), 1):
            if optimum is not None:
                dist = dist_sq
            rows.append((index, i, residual, dist))
        if dist is not None:
            final_dists.append(dist)
        iterations.append(int(solution.iterations[0]))
        converged += bool(solution.converged[0])
    summary = {
        "mean_iterations": float(np.mean(iterations)),
        "converged": converged,
        "realizations": cfg.realizations,
    }
    if final_dists:
        summary["mean_final_dist_sq"] = float(np.mean(final_dists))
    return rows, summary


def assert_same_cells(rows, expected):
    """Equal rows whose cells also have equal types (1 == 1.0 == True otherwise)."""
    assert rows == expected
    assert [tuple(map(type, row)) for row in rows] == [tuple(map(type, row)) for row in expected]


@pytest.mark.parametrize(
    "precoders, scenario, discard_over_pmax",
    [
        (("zf", "min_pa", "saturating"), {"m_antennas": 8, "k_users": 1, "seed": 5}, True),
        (("min_pa",), {"m_antennas": 8, "k_users": 2, "subcarriers": 2, "seed": 6}, True),
        (("zf", "min_pa"), {"m_antennas": 16, "k_users": 2, "p_max_watts": 1e-6, "seed": 7}, True),
        (("zf", "min_pa"), {"m_antennas": 8, "k_users": 2, "subcarriers": 32, "seed": 8}, True),
        (("zf",), {"m_antennas": 16, "k_users": 3, "subcarriers": 4, "channel": "los",
                   "seed": 9}, True),
        (("zf", "min_pa"), {"m_antennas": 16, "k_users": 3, "subcarriers": 8, "freq_taps": 3,
                            "seed": 10}, True),
        (("min_pa", "saturating", "zf"), {"m_antennas": 8, "k_users": 1, "p_max_watts": 0.05,
                                          "seed": 11}, False),
        # Above ZF_MAP_MAX_USERS users zero forcing reads the kernel back.
        (("zf", "min_pa"), {"m_antennas": 12, "k_users": 6, "subcarriers": 2, "seed": 12}, True),
    ],
    ids=[
        "three_solvers", "min_pa_alone", "all_discarded", "swept_grams", "los", "freq_taps_3",
        "over_cap_kept_zf_last", "zf_kernel_readback",
    ],
)
def test_run_equals_reference_loop(monkeypatch, precoders, scenario, discard_over_pmax):
    cfg = with_scenario(
        ExperimentConfig(
            realizations=12, precoders=precoders, discard_over_pmax=discard_over_pmax
        ),
        **scenario,
    )
    sc = cfg.scenario
    # Blocks of five realizations, so the rows cross block boundaries.
    monkeypatch.setattr(
        experiments, "BLOCK_ELEMENTS", 5 * sc.subcarriers * sc.k_users * sc.m_antennas
    )
    result = run_experiment(cfg)
    rows, summary = reference_run(cfg)
    assert_same_cells(result.rows, rows)
    assert result.summary == summary
    assert list(map(type, result.summary.values())) == list(map(type, summary.values()))
    if "saturating" in precoders and discard_over_pmax:
        assert 0 < result.summary["discarded"] < cfg.realizations
    if sc.p_max_watts < 1e-3:
        assert result.summary["discarded"] == cfg.realizations
    if not discard_over_pmax:
        # Some realizations are over the cap, and every one of them is kept.
        assert result.summary["discarded"] == 0
        assert 0 < run_experiment(replace(cfg, discard_over_pmax=True)).summary["discarded"]


@pytest.mark.parametrize(
    "knobs, scenario, has_oracle",
    [
        ({}, {"m_antennas": 6, "k_users": 2, "subcarriers": 2}, True),
        ({"oracle": False}, {"m_antennas": 16, "k_users": 3, "subcarriers": 4}, False),
        ({}, {"m_antennas": 12, "k_users": 1}, True),
        ({}, {"m_antennas": 16, "k_users": 2}, False),
    ],
    ids=["oracle_on", "oracle_off", "analytic_oracle", "oracle_skipped"],
)
def test_convergence_equals_reference_loop(monkeypatch, knobs, scenario, has_oracle):
    cfg = with_scenario(ExperimentConfig(realizations=5, **knobs), seed=4, **scenario)
    sc = cfg.scenario
    monkeypatch.setattr(
        experiments, "BLOCK_ELEMENTS", 2 * sc.subcarriers * sc.k_users * sc.m_antennas
    )
    result = convergence_experiment(cfg)
    rows, summary = reference_convergence(cfg)
    assert_same_cells(result.rows, rows)
    assert result.summary == summary
    assert ("mean_final_dist_sq" in summary) == has_oracle


def test_cli_infeasible_scenario_exit_code(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "m_antennas = 4\nk_users = 1\nrealizations = 1\nseed = 0\n"
        "precoders = saturating\np_max_watts = 1e-9\n"
    )
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 2
    assert "infeasible scenario: realization 0: QoS unreachable" in capsys.readouterr().err
    # Realization 17 is the first whose saturated sum falls short. In blocks
    # of five it is the third member of the fourth block.
    cfgfile.write_text(
        "m_antennas = 8\nk_users = 1\nsubcarriers = 1\nrealizations = 20\nseed = 11\n"
        "precoders = zf, min_pa, saturating\np_max_watts = 0.05\n"
    )
    for block_elements in (experiments.BLOCK_ELEMENTS, 5 * 8):
        monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", block_elements)
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("infeasible scenario: realization 17: QoS unreachable"), err


def test_cli_run_writes_deterministic_csv(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "m_antennas = 8\nk_users = 2\nrealizations = 3\nseed = 11\n"
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfgfile), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "seed,realization,solver,p_tx,p_pas,p_bs,m_active,gain_pas,gain_bs,discarded"


def test_cli_seed_override_changes_output(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("m_antennas = 8\nk_users = 2\nrealizations = 3\nseed = 11\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfgfile), "--out", str(out2), "--seed", "12"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_cli_threads_do_not_change_bytes(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("m_antennas = 8\nk_users = 2\nrealizations = 6\nseed = 4\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfgfile), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["run", "--config", str(cfgfile), "--out", str(out2), "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_blocks_and_threads_do_not_change_bytes(tmp_path):
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text(WIDEBAND_CFG)
    blocks = _realization_blocks(load_config(str(cfgfile)), 256)
    assert blocks == [range(0, 1), range(1, 2), range(2, 3)]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfgfile), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["run", "--config", str(cfgfile), "--out", str(out2), "--threads", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# Q * K * M = 1024 channel entries: 32 realizations per solver block, which
# leave the fixed point's working set at different iterations.
Q32_CFG = "m_antennas = 16\nk_users = 2\nsubcarriers = 32\nrealizations = 40\nseed = 5\n"


def test_run_assembles_no_precoder(tmp_path, monkeypatch):
    import energymimo.precoding as precoding

    def no_precoders(*args):
        raise AssertionError("run assembled a precoder")

    monkeypatch.setattr(precoding, "_weighted_zf", no_precoders)
    cfgfile = tmp_path / "q32.cfg"
    cfgfile.write_text(Q32_CFG + "precoders = zf, min_pa\n")
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 0


def test_run_rows_do_not_depend_on_the_precoder_order():
    def reports(*precoders):
        cfg = with_scenario(
            ExperimentConfig(realizations=40, precoders=precoders),
            m_antennas=16, k_users=2, subcarriers=32, seed=5,
        )
        result = run_experiment(cfg)
        return {(row[1], row[2]): row[3:] for row in result.rows}, result.summary

    zf_first, zf_first_summary = reports("zf", "min_pa")
    min_pa_first, min_pa_first_summary = reports("min_pa", "zf")
    zf_only, _ = reports("zf")
    assert len(zf_first) == 80
    assert min_pa_first == zf_first
    assert min_pa_first_summary == zf_first_summary
    assert zf_only == {key: row for key, row in zf_first.items() if key[1] == "zf"}


def test_cli_singular_channel_exit_code(tmp_path, monkeypatch, capsys):
    import energymimo.experiments as exps

    real_block = exps.solve_stack
    calls = []

    # ``run`` solves each block's precoders with one ``solve_stack`` call.
    def failing_third_block(names, h, *args, **kwargs):
        calls.append(len(h))
        if len(calls) == 3:
            raise SingularChannelError("stub Gram failure", realization=0)
        return real_block(names, h, *args, **kwargs)

    monkeypatch.setattr(exps, "solve_stack", failing_third_block)
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text(WIDEBAND_CFG)
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 2
    assert calls == [1, 1, 1]
    assert "infeasible scenario: realization 2: stub Gram failure" in capsys.readouterr().err

    solves = []

    # ``convergence`` solves each block's fixed point with one ``solve_stack`` call.
    def failing_second_block(names, h, *args, **kwargs):
        solves.append((names, len(h)))
        if len(solves) == 2:
            raise SingularChannelError("stub Gram failure", realization=0)
        return real_block(names, h, *args, **kwargs)

    # Q * K * M = 16 entries per realization: one realization per block.
    monkeypatch.setattr(exps, "BLOCK_ELEMENTS", 16)
    monkeypatch.setattr(exps, "solve_stack", failing_second_block)
    conv = tmp_path / "conv.cfg"
    conv.write_text("m_antennas = 8\nk_users = 2\nrealizations = 3\nseed = 2\noracle = false\n")
    assert main(["convergence", "--config", str(conv), "--out", str(tmp_path / "c.csv")]) == 2
    assert solves == [(("min_pa",), 1)] * 2
    assert "infeasible scenario: realization 1: stub Gram failure" in capsys.readouterr().err


def test_cli_convergence_raises_the_fixed_points_error_before_the_oracles(
    tmp_path, monkeypatch, capsys
):
    # Each block's oracle runs first and hands its optimum to the fixed point;
    # an oracle failure is raised only once the fixed point has run.
    real = experiments.solve_stack
    solves = []

    def counted(names, h, *args, **kwargs):
        solves.append(len(h))
        return real(names, h, *args, **kwargs)

    def failing_oracle(*args, **kwargs):
        raise InfeasibleError("stub oracle failure")

    def failing_fixed_point(*args, **kwargs):
        raise SingularChannelError("stub Gram failure", realization=0)

    conv = tmp_path / "conv.cfg"
    conv.write_text("m_antennas = 6\nk_users = 2\nrealizations = 3\nseed = 2\n")
    argv = ["convergence", "--config", str(conv), "--out", str(tmp_path / "c.csv")]
    monkeypatch.setattr(oracle, "solve_min_pa_bruteforce_block", failing_oracle)
    monkeypatch.setattr(experiments, "solve_stack", counted)
    assert main(argv) == 2
    assert capsys.readouterr().err == "infeasible scenario: stub oracle failure\n"
    assert solves == [3]
    monkeypatch.setattr(experiments, "solve_stack", failing_fixed_point)
    assert main(argv) == 2
    assert capsys.readouterr().err == "infeasible scenario: realization 0: stub Gram failure\n"
    assert not (tmp_path / "c.csv").exists()


def test_cli_q_error_singular_channel_names_the_realization(tmp_path, monkeypatch, capsys):
    # Realization 3 gets two identical users, so its Gram matrix is singular.
    # It is the second member of the second block of two.
    import energymimo.experiments as exps

    real = exps.draw_rayleigh_into
    draws = []

    def repeated_user_in_fourth_draw(out, *args):
        real(out, *args)
        draws.append(1)
        if len(draws) == 4:
            out[:, 1, :] = out[:, 0, :]
        return out

    monkeypatch.setattr(exps, "BLOCK_ELEMENTS", 2 * 2 * 2 * 8)
    monkeypatch.setattr(exps, "draw_rayleigh_into", repeated_user_in_fourth_draw)
    cfgfile = tmp_path / "qerr.cfg"
    cfgfile.write_text(
        "m_antennas = 8\nk_users = 2\nrealizations = 4\nseed = 6\n"
        "asym_mode = q_error\nq_list = 2\n"
    )
    assert main(["asymptotic", "--config", str(cfgfile), "--out", str(tmp_path / "q.csv")]) == 2
    assert "infeasible scenario: realization 3: " in capsys.readouterr().err


CONVERGENCE_CFG = (
    "m_antennas = 8\nk_users = 2\nsubcarriers = 2\nrealizations = 4\nseed = 9\n"
    "oracle_starts = 2\n"
)
Q_ERROR_CFG = (
    "m_antennas = 8\nk_users = 2\nrealizations = 7\nseed = 9\n"
    "asym_mode = q_error\nq_list = 2,16\n"
)


@pytest.mark.parametrize(
    "command, text",
    [("convergence", CONVERGENCE_CFG), ("asymptotic", Q_ERROR_CFG)],
    ids=["convergence", "q_error"],
)
def test_cli_blocks_and_threads_do_not_change_bytes_of_other_commands(
    tmp_path, monkeypatch, command, text
):
    import energymimo.experiments as exps

    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(text)
    outputs = []
    for block_elements in (exps.BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(exps, "BLOCK_ELEMENTS", block_elements)
        for threads in ("1", "3"):
            out = tmp_path / f"{block_elements}-{threads}.csv"
            argv = [command, "--config", str(cfgfile), "--out", str(out), "--threads", threads]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
    # BLOCK_ELEMENTS = 1 puts each realization in a block of its own.
    cfg = load_config(str(cfgfile))
    assert len(_realization_blocks(cfg, 2)) == cfg.realizations
    assert all(output == outputs[0] for output in outputs)


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a config line\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("line", [
    "p_max_watts = 0",
    "u_min_m = 300",
    "eta_max = 2",
    "epsilon = 0",
    "max_iterations = 0",
    "k_users = 0",
    "subcarriers = 0",
    "q_list = 0,4",
    "sinr_ref = -1",
    "freq_taps = -1",
    "oracle_starts = 0",
    "oracle_max_m = 0",
    "oracle_max_k = 0",
    "oracle_max_q = 0",
    "circuit_watts = -1",
    "freq_taps = 2\nfreq_decay = -1",
    "freq_decay = -1",
    "precoders =",
    "precoders = zf, min_pa, zf",
    "q_list =",
    "q_list = 4,4",
    "noise_dbm = nan",
    "p_max_watts = inf",
    "p_fix_watts = nan",
    "circuit_watts = inf",
    "freq_taps = 3\nfreq_decay = inf",
    "u_max_m = inf",
    "sinr_ref = inf",
    "epsilon = nan",
    "dead_antenna_floor = nan",
    "seed = -5",
    "noise_dbm = 4000",
    "noise_dbm = -4000",
    "u_max_m = 1e300",
    "u_max_m = 1e100",
])
def test_cli_out_of_domain_value_is_config_error(tmp_path, capsys, line):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(f"m_antennas = 8\nrealizations = 2\n{line}\n")
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    # The message names the config key, not the model field it feeds.
    key = line.splitlines()[-1].split("=")[0].strip()
    assert key in err
    assert not out.exists()


def test_cli_sinr_ref_with_an_infinite_near_edge_target_is_config_error(tmp_path, capsys):
    # At sinr_ref = 5e-324 the target of a user at u_min_m overflows to inf,
    # at 1e-300 it is finite. Warnings are errors here, so neither may warn.
    cfgfile = tmp_path / "exp.cfg"
    out = tmp_path / "o.csv"
    for sinr_ref, code in (("5e-324", 1), ("1e-300", 0)):
        cfgfile.write_text(
            f"m_antennas = 8\nk_users = 2\nrealizations = 3\nsinr_ref = {sinr_ref}\n"
        )
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("config error: sinr_ref: ") and "Traceback" not in err
            assert not out.exists()
    assert out.exists()


def test_cli_negative_seed_flag_is_config_error(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(["run", "--realizations", "2", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "seed" in err
    assert not out.exists()


def test_cli_unwritable_output_is_config_error(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("m_antennas = 4\nk_users = 1\nrealizations = 1\n")
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["run", "--config", str(cfgfile), "--out", str(missing_dir)]) == 1


def test_cli_convergence_outputs_iteration_rows(tmp_path):
    cfgfile = tmp_path / "conv.cfg"
    cfgfile.write_text(
        "m_antennas = 8\nk_users = 1\nsubcarriers = 1\nrealizations = 2\nseed = 2\n"
    )
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "realization,iteration,residual,dist_sq_oracle"
    assert len(lines) > 3
    # distance column populated via the analytic single-user oracle
    assert lines[1].split(",")[3] != ""


def test_cli_asymptotic_k_sweep(tmp_path):
    cfgfile = tmp_path / "asym.cfg"
    cfgfile.write_text(
        "m_antennas = 16\nrealizations = 3\nseed = 6\nasym_mode = k_sweep\nk_min = 1\nk_max = 4\n"
    )
    out = tmp_path / "asym.csv"
    assert main(["asymptotic", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("k_users,realization,trace,m_tilde,m_hat,m_dagger")
    assert len(lines) == 1 + 3 * 4


def test_cli_asymptotic_k_sweep_threads_do_not_change_bytes(tmp_path):
    cfgfile = tmp_path / "asym.cfg"
    cfgfile.write_text(
        "m_antennas = 16\nrealizations = 600\nseed = 7\nasym_mode = k_sweep\nk_min = 1\nk_max = 8\n"
    )
    assert len(_blocks(600, PLAN_BLOCK // 8)) == 3
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["asymptotic", "--config", str(cfgfile), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["asymptotic", "--config", str(cfgfile), "--out", str(out2), "--threads", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_asymptotic_k_sweep_free_circuits(tmp_path):
    cfgfile = tmp_path / "asym.cfg"
    cfgfile.write_text(
        "m_antennas = 16\nrealizations = 3\nasym_mode = k_sweep\nk_min = 1\nk_max = 4\n"
        "circuit_watts = 0\n"
    )
    out = tmp_path / "asym.csv"
    assert main(["asymptotic", "--config", str(cfgfile), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 * 4
    assert all(row[3] == "inf" and row[5] == "16" for row in rows)  # m_tilde, m_dagger


@pytest.mark.parametrize("extreme", ["circuit_watts = 1e-300", "eta_max = 1e-160"])
def test_cli_k_sweep_takes_the_free_circuit_limit_of_an_overflowed_target(
    tmp_path, capsys, extreme
):
    # The quartic target t K / (2 C) overflows: each feasible row plans the
    # whole array, as at circuit_watts = 0, with no warning or traceback.
    base = "m_antennas = 8\nrealizations = 2\nasym_mode = k_sweep\nk_min = 1\nk_max = 3\n"
    plans = []
    for line in (extreme, "circuit_watts = 0"):
        cfgfile = tmp_path / "asym.cfg"
        cfgfile.write_text(f"{base}{line}\n")
        out = tmp_path / "asym.csv"
        assert main(["asymptotic", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        plans.append([(row[3], row[5], row[-1]) for row in rows])  # m_tilde, m_dagger, feasible
    assert plans[0] == plans[1]
    assert all(plan == ("inf", "8", "1") for plan in plans[0])


@pytest.mark.parametrize("command", ["run", "asymptotic"])
def test_cli_circuit_power_with_an_infinite_full_array_total_is_config_error(
    tmp_path, capsys, command
):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("m_antennas = 8\nrealizations = 2\ncircuit_watts = 1e308\n")
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: circuit_watts: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "asymptotic"])
def test_cli_pa_model_with_an_infinite_consumption_coefficient_is_config_error(
    tmp_path, capsys, command
):
    # alpha = p_max^(1/2) / eta_max overflows to inf at eta_max = 5e-324 and
    # at p_max_watts = 1e308 with eta_max = 1e-160; at eta_max = 1e-300 it
    # is finite. Warnings are errors here, so no case may warn.
    cfgfile = tmp_path / "exp.cfg"
    out = tmp_path / "o.csv"
    for pair, code in (
        ("eta_max = 5e-324", 1), ("p_max_watts = 1e308\neta_max = 1e-160", 1),
        ("eta_max = 1e-300", 0),
    ):
        cfgfile.write_text(f"m_antennas = 8\nk_users = 2\nrealizations = 2\nk_max = 3\n{pair}\n")
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("config error: p_max_watts, eta_max: ") and "not finite" in err
            assert not out.exists()
    assert out.exists()


def test_cli_asymptotic_infeasible_rows_flagged(tmp_path):
    # ridiculous cap: every row infeasible but the command still succeeds
    cfgfile = tmp_path / "asym.cfg"
    cfgfile.write_text(
        "m_antennas = 16\nrealizations = 2\nseed = 6\nasym_mode = k_sweep\n"
        "k_min = 1\nk_max = 2\np_max_watts = 1e-12\n"
    )
    out = tmp_path / "asym.csv"
    assert main(["asymptotic", "--config", str(cfgfile), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert all(row.endswith(",0") for row in rows)


def test_cli_asymptotic_q_error_mode(tmp_path):
    cfgfile = tmp_path / "qerr.cfg"
    cfgfile.write_text(
        "m_antennas = 8\nk_users = 2\nrealizations = 4\nseed = 6\n"
        "asym_mode = q_error\nq_list = 2,8\n"
    )
    out = tmp_path / "qerr.csv"
    assert main(["asymptotic", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("subcarriers,realizations,discarded,mean_abs_error")
    assert len(lines) == 3


def test_cli_asymptotic_ma_curve_mode(tmp_path):
    cfgfile = tmp_path / "curve.cfg"
    cfgfile.write_text(
        "m_antennas = 12\nk_users = 3\nrealizations = 5\nseed = 6\nasym_mode = ma_curve\n"
    )
    out = tmp_path / "curve.csv"
    assert main(["asymptotic", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m_active,p_pas_bar,p_bs_bar,is_m_star"
    assert len(lines) == 1 + (12 - 3)  # counts K+1 .. M
    assert sum(1 for  line in lines[1:] if line.endswith(",1")) == 1


@pytest.mark.parametrize("mode", ["q_error", "ma_curve"])
def test_cli_asymptotic_square_array_is_infeasible(tmp_path, capsys, mode):
    # M == K passes config validation, but zero forcing needs M > K.
    cfgfile = tmp_path / "square.cfg"
    cfgfile.write_text(
        f"m_antennas = 4\nk_users = 4\nrealizations = 2\nasym_mode = {mode}\nq_list = 2\n"
    )
    out = tmp_path / "square.csv"
    assert main(["asymptotic", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "zero forcing needs M > K" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["channel = los", "freq_taps = 3"])
def test_cli_q_error_needs_iid_rayleigh(tmp_path, capsys, scenario):
    # The inverse-Wishart reference holds only for i.i.d. Rayleigh channels.
    cfgfile = tmp_path / "qerr.cfg"
    cfgfile.write_text(
        f"m_antennas = 16\nk_users = 2\nrealizations = 2\nasym_mode = q_error\n"
        f"q_list = 2\n{scenario}\n"
    )
    out = tmp_path / "qerr.csv"
    assert main(["asymptotic", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert "q_error needs channel = rayleigh and freq_taps = 0" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_warns_when_oracle_guard_exceeded(tmp_path, monkeypatch, capsys):
    # K=2 at M=16 exceeds the default oracle guard: the command still runs,
    # warns once over four blocks of two realizations solved two at a time,
    # and leaves the distance column empty
    monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", 2 * 2 * 16)
    cfgfile = tmp_path / "conv.cfg"
    cfgfile.write_text(
        "m_antennas = 16\nk_users = 2\nsubcarriers = 1\nrealizations = 8\nseed = 2\n"
    )
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--config", str(cfgfile), "--out", str(out), "--threads", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        "warning: oracle skipped (instance (M=16, K=2, Q=1) exceeds oracle guard"
        " (M<=8, K<=4, Q<=8))\n"
    )
    lines = out.read_text().splitlines()
    assert all(line.endswith(",") for line in lines[1:])


def test_convergence_warns_once_about_uncertified_oracle_solves(tmp_path, monkeypatch, capsys):
    # Four realizations in two blocks of two, solved two at a time; alone
    # they need 35, 36, 43 and 29 Newton steps, so a cap of 37 leaves only
    # realization 2 uncertified. The warning counts it and names its gap.
    monkeypatch.setattr(experiments, "BLOCK_ELEMENTS", 2 * 2 * 2 * 6)
    cfgfile = tmp_path / "conv.cfg"
    cfgfile.write_text(
        "m_antennas = 6\nk_users = 2\nsubcarriers = 2\nrealizations = 4\nseed = 4\n"
    )
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--config", str(cfgfile), "--out", str(out), "--threads", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    certified = out.read_bytes()

    monkeypatch.setattr(oracle, "_MAX_NEWTON_STEPS", 37)
    cfg = load_config(str(cfgfile))
    sc = cfg.scenario
    gaps = []
    for index in range(cfg.realizations):
        _, _, h, d = draw_realization(cfg, index, subcarriers=sc.subcarriers)
        gaps.append(oracle.solve_min_pa_bruteforce_block(h, d, sc.pa_model()).gap[0])
    assert [gap > oracle.GAP_TOL for gap in gaps] == [False, False, True, False]
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        f"warning: oracle uncertified on 1 of 4 realizations "
        f"(worst relative gap {gaps[2]:.3g} > 1e-10)\n"
    )
    # Only realization 2's distances move.
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    before = [line.split(",") for line in certified.decode().splitlines()[1:]]
    assert [row[:3] for row in rows] == [row[:3] for row in before]
    assert {row[0] for row, old in zip(rows, before) if row[3] != old[3]} == {"2"}


def test_cli_validate_exit_codes(monkeypatch, capsys):
    import energymimo.cli as cli
    from energymimo.experiments import ExperimentResult, VALIDATION_FIELDS

    def fake_suite(cfg, passed):
        return ExperimentResult(
            VALIDATION_FIELDS, (["stub"], [int(passed)], ["stub"]), {"passed": passed}
        )

    monkeypatch.setattr(cli, "validate_suite", lambda cfg: fake_suite(cfg, True))
    assert main(["validate"]) == 0
    assert "[PASS] stub" in capsys.readouterr().out
    monkeypatch.setattr(cli, "validate_suite", lambda cfg: fake_suite(cfg, False))
    assert main(["validate"]) == 3
    assert "[FAIL] stub" in capsys.readouterr().out


def test_validate_suite_passes_and_detects_faults(monkeypatch):
    cfg = ExperimentConfig()
    result = validate_suite(cfg)
    assert result.summary["passed"]
    assert all(dict(zip(result.fieldnames, r))["passed"] for r in result.rows)

    # fault injection: a wrong consumption coefficient must fail the
    # PA-consumption cross-check
    import energymimo.experiments as exps

    real = exps.pa_consumed_power
    monkeypatch.setattr(exps, "pa_consumed_power", lambda p, pa: 1.5 * real(p, pa))
    broken = validate_suite(cfg)
    assert not broken.summary["passed"]
    rows = [dict(zip(broken.fieldnames, row)) for row in broken.rows]
    names = {r["check"]: r["passed"] for r in rows}
    assert not names["bruteforce_equivalence"]


def test_validate_grid_check_covers_infeasible_scenarios(monkeypatch):
    # At seed 13 the planner flags one of the 100 grid scenarios infeasible.
    # It passes because the grid finds no admissible count either; a grid
    # that always finds one makes it the only mismatch.
    cfg = with_scenario(ExperimentConfig(), seed=13)
    plans = []
    real_plans, real_grid = experiments.optimal_ma_plans, oracle.grid_min_bs

    def recording_plans(*args):
        plans.append(real_plans(*args))
        return plans[-1]

    def grid_without_infeasible(m, *args):
        try:
            return real_grid(m, *args)
        except InfeasibleError:
            return m

    monkeypatch.setattr(experiments, "optimal_ma_plans", recording_plans)
    rows = {check: (passed, detail) for check, passed, detail in validate_suite(cfg).rows}
    assert len(plans) == 100
    assert sum(not plan.feasible[0] for plan in plans) == 1
    assert rows["grid_equivalence"] == (1, "0 mismatches over 100 random scenarios")

    monkeypatch.setattr(oracle, "grid_min_bs", grid_without_infeasible)
    rows = {check: (passed, detail) for check, passed, detail in validate_suite(cfg).rows}
    assert rows["grid_equivalence"] == (0, "1 mismatches over 100 random scenarios")


def reference_csv(fieldnames, rows) -> bytes:
    """The CSV as ``csv.writer`` wrote it from dict rows, cell by cell."""

    def format_cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return str(int(value))
        if isinstance(value, float):
            return f"{value:.9g}"
        return str(value)

    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(fieldnames)
    for cells in rows:
        row = dict(zip(fieldnames, cells))
        writer.writerow([format_cell(row.get(name)) for name in fieldnames])
    return buffer.getvalue().encode("utf-8")


_FLOATS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 123456789.0, 0.1, 2.0 / 3.0,
    np.float64(-1.5e-12), np.float64(math.nan), np.float64(2.0 / 3.0),
    np.float64(123456789.5),
)
# A float subclass prints as a float and an int never does: np.float64(2/3)
# and 1234567890 read differently under str and %.9g.
_INTEGERS = tuple(
    (np.int64(-3), 1234567890, np.int64(2**40))[i % 3] for i in range(len(_FLOATS))
)
# The synthetic table as rows, None for an empty cell.
SYNTHETIC_ROWS = [(None, 7, "zf", value, integer) for value, integer in zip(_FLOATS, _INTEGERS)]
SYNTHETIC_ROWS.append(("min_pa", None, "", None, 0))


def _synthetic_result():
    """``SYNTHETIC_ROWS`` as columns: strings in lists, numbers in arrays."""
    n = len(_FLOATS)
    return ExperimentResult(
        ("a", "b", "c", "d", "e"),
        (
            [""] * n + ["min_pa"],
            np.array([7] * n + [0]),
            ["zf"] * n + [""],
            np.array([*_FLOATS, 0.0]),
            np.array([*_INTEGERS, 0]),
        ),
        {},
        empty={"a": np.arange(n + 1) < n, "b": np.arange(n + 1) == n, "d": np.arange(n + 1) == n},
    )


def _tiny(scenario, **changes):
    return with_scenario(ExperimentConfig(realizations=3, **changes), seed=4, **scenario)


# The results the CSV writer is checked on: every command, cells of every
# kind and empty ones.
RESULT_CASES = pytest.mark.parametrize("build, has_empty_cells", [
    (_synthetic_result, True),
    (lambda: run_experiment(_tiny({"m_antennas": 8, "k_users": 2}, precoders=("min_pa",))), True),
    (lambda: run_experiment(
        _tiny({"m_antennas": 8, "k_users": 1}, precoders=("zf", "min_pa", "saturating"))
    ), False),
    (lambda: convergence_experiment(_tiny({"m_antennas": 16, "k_users": 2})), True),
    (lambda: asymptotic_experiment(_tiny({"m_antennas": 8}, k_max=10)), True),
    (lambda: asymptotic_experiment(
        _tiny({"m_antennas": 8, "k_users": 2}, asym_mode="q_error", q_list=(2, 4))
    ), False),
    (lambda: asymptotic_experiment(
        _tiny({"m_antennas": 12, "k_users": 3}, asym_mode="ma_curve")
    ), False),
    (lambda: validate_suite(ExperimentConfig()), False),
], ids=[
    "synthetic", "run_min_pa", "run_three_solvers", "convergence_no_oracle",
    "k_sweep_infeasible", "q_error", "ma_curve", "validate",
])
# Slices of one and of seven rows split k_sweep's runs of infeasible rows
# (K = 8..10 at M = 8, ten rows per realization) and the three rows of each
# realization of a three-solver run.
ROW_SLICES = (experiments.ROW_SLICE, 1, 7)


@RESULT_CASES
def test_write_csv_equals_csv_module_reference(tmp_path, monkeypatch, build, has_empty_cells):
    result = build()
    rows = result.rows
    assert any(None in row for row in rows) == has_empty_cells
    expected = reference_csv(result.fieldnames, rows)
    if build is _synthetic_result:
        assert reference_csv(result.fieldnames, SYNTHETIC_ROWS) == expected
    out = tmp_path / "out.csv"
    for size in ROW_SLICES:
        monkeypatch.setattr(experiments, "ROW_SLICE", size)
        # A fresh result each time: a streamed one is read once.
        write_csv(str(out), build())
        assert out.read_bytes() == expected, size


# The type of each field's cells, None aside, as the commands have always
# given them; the synthetic table's numpy scalars read back as Python ones.
CELL_TYPES = {
    "a": str, "b": int, "c": str, "d": float, "e": int,
    "seed": int, "realization": int, "solver": str, "p_tx": float, "p_pas": float,
    "p_bs": float, "m_active": int, "gain_pas": float, "gain_bs": float, "discarded": int,
    "iteration": int, "residual": float, "dist_sq_oracle": float,
    "k_users": int, "trace": float, "m_tilde": float, "m_hat": int, "m_dagger": int,
    "p_bar": float, "p_pas_bar": float, "p_bs_dagger": float, "p_bs_full": float,
    "p_bs_minimal": float, "gain_vs_full": float, "gain_vs_minimal": float, "feasible": int,
    "subcarriers": int, "realizations": int, "mean_abs_error": float, "var_abs_error": float,
    "mean_p_pas_sim": float, "mean_p_pas_asym": float, "p_bs_bar": float, "is_m_star": int,
    "check": str, "passed": int, "detail": str,
}


@RESULT_CASES
def test_rows_view_matches_csv_and_cell_types(
    tmp_path, monkeypatch, capsys, build, has_empty_cells
):
    # The rows of one result of the build; the CLI writes a second one and
    # then counts what it wrote.
    rows = build().rows
    result = build()
    out = tmp_path / "out.csv"
    monkeypatch.setattr(experiments, "ROW_SLICE", 7)
    monkeypatch.setattr("energymimo.cli.run_experiment", lambda cfg: result)
    assert main(["run", "--out", str(out)]) == 0
    lines = out.read_bytes().count(b"\r\n") - 1
    assert len(rows) == lines == len(result)
    assert capsys.readouterr().out.splitlines()[0] == f"wrote {lines} rows to {out}"
    for row in rows:
        for name, cell in zip(result.fieldnames, row):
            assert cell is None or type(cell) is CELL_TYPES[name], (name, row)
    if build is _synthetic_result:
        for row, ref in zip(rows, SYNTHETIC_ROWS):
            for cell, cell_ref in zip(row, ref):
                if isinstance(cell_ref, np.generic):
                    cell_ref = cell_ref.item()
                assert type(cell) is type(cell_ref)
                assert cell == cell_ref or cell != cell and cell_ref != cell_ref
