import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from riszf.channel import PhaseShifts
from riszf.cli import main as cli_main
from riszf.config import default_profile, write_config_file
from riszf.errors import ConfigError
from riszf.harness import (Scenario, csv_header, csv_text, manifest_path, reproduce,
                           resolve_phase, row_values, run_scenario, solve_antennas_for_snr,
                           write_rows_csv, write_scenario_outputs)
from riszf.rate import rate_lower_bound, required_antennas


@pytest.fixture(scope="module")
def small_config():
    return default_profile(K=3, M=16, N=16)


def test_scenario_validation(small_config):
    with pytest.raises(ConfigError):
        Scenario(config=small_config, phase_design="case7_bogus")
    with pytest.raises(ConfigError):
        Scenario(config=small_config, phase_design=PhaseShifts.identity(small_config.N))
    with pytest.raises(ConfigError):
        Scenario(config=small_config, sweep_axis="Q", sweep_values=(1, 2))
    with pytest.raises(ConfigError):
        Scenario(config=small_config, sweep_axis="N", sweep_values=(32, 16))
    with pytest.raises(ConfigError):
        Scenario(config=small_config, sweep_axis="N", sweep_values=(32, np.nan, 16))
    with pytest.raises(ConfigError):
        Scenario(config=small_config, trials=0)


def test_resolve_phase_cases(small_config):
    rng = np.random.default_rng(0)
    sc = Scenario(config=small_config)
    for design, check in [
        ("case4_identity", lambda p: np.all(p.v == 1.0)),
        ("case3_random", lambda p: np.all(np.abs(np.abs(p.v) - 1) < 1e-12)),
        ("case1_align_nearest", lambda p: True),
        ("case2_align_farthest", lambda p: True),
    ]:
        phase, iters = resolve_phase(small_config,
                                     Scenario(config=small_config, phase_design=design),
                                     rng)
        assert check(phase) and iters == 0


def test_resolve_phase_optimizer_beats_heuristics(small_config):
    rng = np.random.default_rng(1)
    sc = Scenario(config=small_config, phase_design="case5_maxsum")
    phase, iters = resolve_phase(small_config, sc, np.random.default_rng(1))
    assert iters > 0
    best_heuristic = max(
        rate_lower_bound(small_config, p).sum()
        for p in [PhaseShifts.identity(small_config.N),
                  PhaseShifts.random(small_config.N, np.random.default_rng(1))])
    assert rate_lower_bound(small_config, phase).sum() >= best_heuristic - 1e-9


def test_run_scenario_rows_and_monotone_lb(small_config):
    sc = Scenario(config=small_config, phase_design="case4_identity",
                  sweep_axis="N", sweep_values=(16, 32), trials=40, seed=2)
    rows = run_scenario(sc)
    assert [row.sweep_value for row in rows] == [16.0, 32.0]
    assert all(row.error == "" for row in rows)
    assert rows[0].sum_rate_lb <= rows[1].sum_rate_lb


def test_min_rate_design_converges_at_fig3b_point():
    # seed 0, N = 64: the fig3b case-6 point used to run both MMs to their caps
    sc = Scenario(config=default_profile(), phase_design="case6_maxmin",
                  sweep_axis="N", sweep_values=(64,), trials=20, seed=0)
    (row,) = run_scenario(sc)
    assert row.error == ""
    assert row.opt_iterations < 500


def test_run_scenario_infeasible_point_marked(small_config):
    sc = Scenario(config=small_config, phase_design="case4_identity",
                  sweep_axis="M", sweep_values=(2, 16), trials=10, seed=0)
    rows = run_scenario(sc)
    assert rows[0].error == "invalid_config"
    assert np.isnan(rows[0].sum_rate_mc)
    assert rows[1].error == ""
    # non-integral element counts and bit widths are invalid points too
    for axis, values in (("N", (16.5, 32)), ("bits", (0, 2))):
        sc = Scenario(config=small_config, phase_design="case4_identity",
                      sweep_axis=axis, sweep_values=values, trials=10, seed=0)
        rows = run_scenario(sc)
        assert rows[0].error == "invalid_config"
        assert rows[1].error == ""
    # a float64 phase cannot resolve more than 52 bits
    sc = Scenario(config=small_config, phase_design="case4_identity",
                  sweep_axis="bits", sweep_values=(1, 2000), trials=10, seed=0)
    rows = run_scenario(sc)
    assert rows[0].error == ""
    assert rows[1].error == "invalid_config"
    # an element count beyond physical memory is refused before any allocation
    sc = Scenario(config=small_config, phase_design="case4_identity",
                  sweep_axis="N", sweep_values=(16, 10**11), trials=10, seed=0)
    assert [row.error for row in run_scenario(sc)] == ["", "invalid_config"]


def test_run_scenario_bits_axis(small_config):
    sc = Scenario(config=small_config, phase_design="case1_align_nearest",
                  sweep_axis="bits", sweep_values=(1, 2, 8), trials=30, seed=4)
    rows = run_scenario(sc)
    assert all(row.error == "" for row in rows)
    # finer quantization cannot hurt the aligned user's bound
    assert rows[0].lower_bound[0] <= rows[2].lower_bound[0] + 1e-9


def test_run_scenario_rows_independent_of_workers(small_config):
    header = csv_header(small_config.K)
    # every point of the bits axis shares one config instance, and with it
    # the LoS and statistics stored on that instance
    for axis, values in (("N", (16, 24, 32, 40)), ("bits", (1, 2, 3, 8))):
        sc = Scenario(config=small_config, phase_design="case3_random",
                      sweep_axis=axis, sweep_values=values, trials=30, seed=3)
        texts = [csv_text(header, [row_values(row) for row in run_scenario(sc, max_workers=w)])
                 for w in (1, 4)]
        assert texts[0] == texts[1], axis


def test_csv_byte_identical_roundtrip(tmp_path, small_config):
    sc = Scenario(config=small_config, phase_design="case3_random",
                  sweep_axis="N", sweep_values=(16, 32), trials=25, seed=7)
    rows_a = run_scenario(sc)
    rows_b = run_scenario(sc, max_workers=1)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(rows_a, pa, small_config.K)
    write_rows_csv(rows_b, pb, small_config.K)
    assert pa.read_bytes() == pb.read_bytes()

    # full-precision round trip of every numeric field
    header = csv_header(small_config.K)
    lines = pa.read_text().strip().split("\n")
    assert lines[0].split(",") == header
    for row, line in zip(rows_a, lines[1:]):
        parsed = line.split(",")
        for name, value, text in zip(header, row_values(row), parsed):
            if name == "error":
                assert text == value
            elif name == "opt_iterations":
                assert int(text) == value
            else:
                assert float(text) == float(value)


def test_write_outputs_and_manifest(tmp_path, small_config):
    sc = Scenario(config=small_config, phase_design="case4_identity", trials=10, seed=3)
    rows = run_scenario(sc)
    out = tmp_path / "run.csv"
    paths = write_scenario_outputs(rows, sc, out)
    assert str(out) in paths
    sidecar = manifest_path(out)
    assert sidecar in paths
    manifest = json.loads(open(sidecar).read())
    assert manifest["schema_version"] == 1
    assert manifest["seed"] == 3 and manifest["trials"] == 10
    assert manifest["phase_design"] == "case4_identity"
    assert manifest["config"]["M"] == small_config.M
    # manifest carries enough to rebuild the config
    assert len(manifest["config"]["alpha"]) == small_config.K


def test_write_outputs_json(tmp_path, small_config):
    sc = Scenario(config=small_config, phase_design="case4_identity", trials=10, seed=3)
    rows = run_scenario(sc)
    out = tmp_path / "run.json"
    write_scenario_outputs(rows, sc, out, fmt="json")
    payload = json.loads(open(out).read())
    assert len(payload) == 1
    assert payload[0]["sum_rate_mc"] == pytest.approx(rows[0].sum_rate_mc)


def test_solve_antennas_matches_formula(small_config):
    cfg = default_profile()
    for n in (64, 256):
        solved = solve_antennas_for_snr(cfg, n, 10.0, cfg.K - 1)
        formula = required_antennas(cfg.replace(N=n, delta=0.0), n, 10.0, cfg.K - 1)
        assert solved == pytest.approx(formula, rel=0.05)


def test_reproduce_fig4a(tmp_path):
    paths = reproduce("fig4a", tmp_path)
    table = open(paths[0]).read().strip().split("\n")
    assert table[0].startswith("N,C0,user,m_solved,m_formula")
    rows = [line.split(",") for line in table[1:]]
    assert [int(float(r[0])) for r in rows] == [16, 32, 64, 128, 256]
    # trade-off product stays flat once the element count is past the knee
    products = [float(r[5]) for r in rows if float(r[0]) > 40]
    assert max(products) / min(products) < 1.05


def test_reproduce_fig4b(tmp_path):
    paths = reproduce("fig4b", tmp_path)
    table = open(paths[0]).read().strip().split("\n")
    rows = [line.split(",") for line in table[1:]]
    by_m = {}
    for r in rows:
        by_m.setdefault(int(r[1]), []).append((float(r[0]), float(r[3]), float(r[4])))
    for m, pts in by_m.items():
        gaps = [abs(lb - lim) / lim for _, lb, lim in pts]
        assert gaps[-1] < 0.02
        assert gaps[0] >= gaps[-1] - 1e-12


def test_reproduce_small_fig2a(tmp_path):
    cfg = default_profile(K=3, M=16, N=16)
    paths = reproduce("fig2a", tmp_path, config=cfg, trials=20, seed=1)
    names = {p.split("/")[-1] for p in paths}
    assert "fig2a_case1.csv" in names and "fig2a_case2.csv" in names
    assert any(p.endswith(".manifest.json") for p in paths)


def test_reproduce_runs_serially_and_matches_pooled_sweep(tmp_path, small_config,
                                                         monkeypatch):
    cases = ("case1_align_nearest", "case2_align_farthest", "case3_random",
             "case5_maxsum", "case6_maxmin")
    for case in cases:
        sc = Scenario(config=small_config, phase_design=case, sweep_axis="N",
                      sweep_values=(64, 128, 256), trials=20, seed=5)
        write_rows_csv(run_scenario(sc, max_workers=4), tmp_path / f"pooled_{case}.csv",
                       small_config.K)

    def no_pool(*args, **kwargs):
        raise AssertionError("reproduce started a thread pool")

    monkeypatch.setattr("riszf.harness.ThreadPoolExecutor", no_pool)
    reproduce("fig3b", tmp_path / "figs", config=small_config, trials=20, seed=5)
    for case in cases:
        figure_csv = tmp_path / "figs" / f"fig3b_{case.split('_')[0]}.csv"
        assert figure_csv.read_bytes() == (tmp_path / f"pooled_{case}.csv").read_bytes()


def test_reproduce_unknown_figure(tmp_path):
    with pytest.raises(ConfigError):
        reproduce("fig9z", tmp_path)


def test_fig3_case_orderings(tmp_path):
    # at the largest swept size: optimized sum beats aligned-to-nearest beats
    # aligned-to-farthest beats random; the fair design has the best minimum
    cfg = default_profile()
    paths = reproduce("fig3b", tmp_path, config=cfg, trials=200, seed=5)
    tables = {}
    header = csv_header(cfg.K)
    for p in paths:
        if p.endswith(".csv"):
            case = p.split("fig3b_")[-1].split(".csv")[0]
            last = open(p).read().strip().split("\n")[-1].split(",")
            tables[case] = dict(zip(header, last))
    sum_lb = {case: float(row["sum_rate_lb"]) for case, row in tables.items()}
    min_lb = {case: float(row["min_rate_lb"]) for case, row in tables.items()}
    assert sum_lb["case5"] >= sum_lb["case1"] - 1e-9
    assert sum_lb["case1"] >= sum_lb["case2"] - 1e-9
    assert sum_lb["case2"] >= sum_lb["case3"] - 1e-9
    assert all(min_lb["case6"] >= v - 1e-9 for v in min_lb.values())
    # Monte-Carlo columns agree with the deterministic ordering within noise
    sum_mc = {case: float(row["sum_rate_mc"]) for case, row in tables.items()}
    sum_se = {case: float(row["sum_rate_mc_se"]) for case, row in tables.items()}
    assert sum_mc["case5"] >= sum_mc["case3"] - 3 * (sum_se["case5"] + sum_se["case3"])


# --- CLI -------------------------------------------------------------------------

def test_cli_rate_to_file(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    write_config_file(default_profile(K=2, M=8, N=8), cfg_path)
    out = tmp_path / "rates.csv"
    code = cli_main(["--config", str(cfg_path), "--trials", "20", "--seed", "1",
                     "--out", str(out), "rate", "--case", "case4_identity"])
    assert code == 0
    assert out.exists() and (tmp_path / "rates.csv.manifest.json").exists()
    header = open(out).read().split("\n")[0]
    assert header.startswith("sweep_value,error,opt_iterations")


def test_cli_mse_stdout(capsys):
    code = cli_main(["--trials", "5", "mse"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["kappa"]) == 8
    assert all(0 < k < 1 for k in payload["kappa"])
    # one trial: a standard error of 0, strict JSON, no warning
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_main(["--trials", "1", "mse", "--validate"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["trials"] == 1
    assert payload["epsilon_empirical_se"] == [0.0] * 8


def test_cli_mse_validate_matches_epsilon(capsys):
    # the empirical error power of the M x K draws agrees with epsilon per user
    assert cli_main(["--seed", "0", "--trials", "2000", "mse", "--validate"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 2000
    gap = np.abs(np.array(payload["epsilon_empirical"]) - np.array(payload["epsilon"]))
    assert np.all(gap <= 4.0 * np.array(payload["epsilon_empirical_se"]))


def test_cli_optimize(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    write_config_file(default_profile(K=2, M=8, N=8), cfg_path)
    out = tmp_path / "opt.json"
    code = cli_main(["--config", str(cfg_path), "--trials", "10",
                     "--out", str(out), "optimize", "--objective", "sum",
                     "--max-iter", "40"])
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["objective"] == "sum"
    assert payload["curvature_doublings"] == 0
    assert len(payload["final_theta"]) == 8
    values = [step["value"] for step in payload["objective_trace"]]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_cli_sweep_stdout(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    write_config_file(default_profile(K=2, M=8, N=8), cfg_path)
    code = cli_main(["--config", str(cfg_path), "--trials", "10",
                     "sweep", "--axis", "N", "--values", "8,16"])
    assert code == 0
    stdout = capsys.readouterr().out
    lines = stdout.strip().split("\n")
    assert len(lines) == 3  # header + 2 rows
    # stdout carries the same bytes as the --out file
    out_csv = tmp_path / "sweep.csv"
    code = cli_main(["--config", str(cfg_path), "--trials", "10", "--out", str(out_csv),
                     "sweep", "--axis", "N", "--values", "8,16"])
    assert code == 0
    assert out_csv.read_bytes() == stdout.encode("utf-8")


def test_cli_reproduce(tmp_path):
    code = cli_main(["--out", str(tmp_path), "reproduce", "fig4b"])
    assert code == 0
    assert (tmp_path / "fig4b.csv").exists()


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("M = 4\n")  # missing nearly everything
    assert cli_main(["--config", str(bad), "rate"]) == 2
    assert cli_main(["bogus-command"]) == 2
    assert cli_main(["sweep", "--axis", "N", "--values", "16,8"]) == 2
    inf_alpha = tmp_path / "inf.cfg"
    write_config_file(default_profile(K=2, M=8, N=8), inf_alpha)
    inf_alpha.write_text(re.sub(r"(?m)^alpha = .*$", "alpha = inf, 1e-6", inf_alpha.read_text()))
    assert cli_main(["--config", str(inf_alpha), "rate"]) == 2
    bad_power = tmp_path / "power.cfg"
    write_config_file(default_profile(K=2, M=8, N=8), bad_power)
    bad_power.write_text(re.sub(r"(?m)^p_w = .*$", "p_dbm = abc", bad_power.read_text()))
    assert cli_main(["--config", str(bad_power), "rate"]) == 2
    assert cli_main(["sweep", "--axis", "N", "--values", "nan"]) == 2
    huge_n = tmp_path / "huge.cfg"
    write_config_file(default_profile(K=2, M=8, N=8), huge_n)
    huge_n.write_text(re.sub(r"(?m)^N = .*$", "N = 1" + "0" * 400, huge_n.read_text()))
    assert cli_main(["--config", str(huge_n), "rate"]) == 2
    huge_n.write_text(re.sub(r"(?m)^N = .*$", "N = 100000000000", huge_n.read_text()))
    assert cli_main(["--config", str(huge_n), "rate"]) == 2
    assert cli_main(["--trials", "5", "sweep", "--axis", "bits", "--values", "1,2000"]) == 0
    assert cli_main(["--trials", "0", "mse", "--validate"]) == 2
    assert cli_main(["--trials", "0", "optimize"]) == 2


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, riszf.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_help():
    assert cli_main(["--help"]) == 0
