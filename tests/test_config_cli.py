import pytest

from energymimo.cli import main
from energymimo.config import (
    ExperimentConfig,
    dbm_to_watts,
    load_config,
    parse_config_text,
    with_scenario,
)
from energymimo.errors import ConfigError, SingularChannelError
from energymimo.experiments import _realization_blocks, run_experiment, validate_suite

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
    assert len(result.rows) == 10  # one row per realization per solver
    assert set(result.fieldnames) >= {"solver", "p_pas", "gain_bs", "discarded"}
    zf_rows = [r for r in result.rows if r["solver"] == "zf"]
    assert all(r["gain_pas"] == pytest.approx(1.0) for r in zf_rows)


def test_discard_rule_triggers_on_as1_solvers_only():
    # a tiny cap: the uncapped solvers blow through it, every realization
    # is discarded; the saturating solver is not part of the trigger set
    cfg = with_scenario(
        ExperimentConfig(realizations=4, precoders=("zf", "min_pa")),
        m_antennas=8, k_users=1, seed=12, p_max_watts=1e-6,
    )
    result = run_experiment(cfg)
    assert all(r["discarded"] == 1 for r in result.rows)
    assert result.summary["discarded"] == 4

    relaxed = with_scenario(cfg, p_max_watts=1e9)
    result2 = run_experiment(relaxed)
    assert all(r["discarded"] == 0 for r in result2.rows)


def test_saturating_solver_respects_cap():
    cfg = with_scenario(
        ExperimentConfig(realizations=4, precoders=("zf", "min_pa", "saturating")),
        m_antennas=8, k_users=1, seed=12,
    )
    result = run_experiment(cfg)
    sat = [r for r in result.rows if r["solver"] == "saturating"]
    assert len(sat) == 4
    assert all(r["p_tx"] <= 8 * cfg.scenario.p_max_watts + 1e-9 for r in sat)


def test_cli_infeasible_scenario_exit_code(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "m_antennas = 4\nk_users = 1\nrealizations = 1\nseed = 0\n"
        "precoders = saturating\np_max_watts = 1e-9\n"
    )
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 2


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


def test_cli_threads_do_not_change_bytes(tmp_path, monkeypatch):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("m_antennas = 8\nk_users = 2\nrealizations = 6\nseed = 4\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfgfile), "--out", str(out1), "--threads", "1"]) == 0
    monkeypatch.setenv("ENERGYMIMO_THREADS", "4")
    assert main(["run", "--config", str(cfgfile), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_blocks_and_threads_do_not_change_bytes(tmp_path, monkeypatch):
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text(WIDEBAND_CFG)
    blocks = _realization_blocks(load_config(str(cfgfile)))
    assert blocks == [range(0, 1), range(1, 2), range(2, 3)]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfgfile), "--out", str(out1), "--threads", "1"]) == 0
    monkeypatch.setenv("ENERGYMIMO_THREADS", "3")
    assert main(["run", "--config", str(cfgfile), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_singular_channel_exit_code(tmp_path, monkeypatch, capsys):
    import energymimo.experiments as exps

    real = exps.min_pa_precoders
    calls = []

    def failing_third_block(channels, qos_list, cfg):
        calls.append(len(channels))
        if len(calls) == 3:
            raise SingularChannelError("stub Gram failure", realization=0)
        return real(channels, qos_list, cfg)

    monkeypatch.setattr(exps, "min_pa_precoders", failing_third_block)
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text(WIDEBAND_CFG)
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 2
    assert calls == [1, 1, 1]
    assert "infeasible scenario: realization 2: stub Gram failure" in capsys.readouterr().err

    solves = []

    def failing_second_solve(channel, qos, cfg):
        solves.append(1)
        if len(solves) == 2:
            raise SingularChannelError("stub Gram failure")
        return real([channel], [qos], cfg)[0]

    monkeypatch.setattr(exps, "min_pa_precoder", failing_second_solve)
    conv = tmp_path / "conv.cfg"
    conv.write_text("m_antennas = 8\nk_users = 2\nrealizations = 3\nseed = 2\noracle = false\n")
    assert main(["convergence", "--config", str(conv), "--out", str(tmp_path / "c.csv")]) == 2
    assert "infeasible scenario: realization 1: stub Gram failure" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a config line\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


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


def test_convergence_warns_when_oracle_guard_exceeded(tmp_path, capsys):
    # K=2 at M=16 exceeds the default oracle guard: the command still runs,
    # warns once, and leaves the distance column empty
    cfgfile = tmp_path / "conv.cfg"
    cfgfile.write_text(
        "m_antennas = 16\nk_users = 2\nsubcarriers = 1\nrealizations = 2\nseed = 2\n"
    )
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert "oracle skipped" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert all(line.endswith(",") for line in lines[1:])


def test_cli_validate_exit_codes(monkeypatch, capsys):
    import energymimo.cli as cli
    from energymimo.experiments import ExperimentResult, VALIDATION_FIELDS

    def fake_suite(cfg, passed):
        row = {"check": "stub", "passed": int(passed), "detail": "stub"}
        return ExperimentResult(VALIDATION_FIELDS, [row], {"passed": passed})

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
    assert all(r["passed"] for r in result.rows)

    # fault injection: a wrong consumption coefficient must fail the
    # PA-consumption cross-check
    import energymimo.experiments as exps

    real = exps.pa_consumed_power
    monkeypatch.setattr(exps, "pa_consumed_power", lambda p, pa: 1.5 * real(p, pa))
    broken = validate_suite(cfg)
    assert not broken.summary["passed"]
    names = {r["check"]: r["passed"] for r in broken.rows}
    assert not names["bruteforce_equivalence"]
