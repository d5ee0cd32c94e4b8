import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import riszf.harness as harness_module
import riszf.rate as rate_module
from riszf.channel import PhaseShifts
from riszf.cli import main as cli_main
from riszf.config import default_profile, write_config_file
from riszf.errors import ConfigError, NumericalError
from riszf.estimation import compute_statistics
from riszf.harness import (_FIG_SWEEPS, PHASE_CASES, Scenario, _run_point,
                           check_memory, csv_header, csv_text, manifest_path, reproduce,
                           resolve_phase, resolve_phases, row_values, rows_text, run_scenario,
                           solve_antennas_for_snr, write_scenario_outputs)
from riszf.optimizer import build_problem, fractional_objective, mm_optimize
from riszf.rate import rate_lower_bound, required_antennas

from conftest import deadline


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
    with pytest.raises(ConfigError, match="seed"):
        Scenario(config=small_config, seed=-1)
    with pytest.raises(ConfigError, match="non-empty"):
        Scenario(config=small_config, sweep_axis="N", sweep_values=())
    # values with no axis used to run one NaN-valued point and record both values
    with pytest.raises(ConfigError, match="sweep_axis"):
        Scenario(config=small_config, sweep_values=(16, 32))


def test_resolve_phase_cases(small_config):
    rng = np.random.default_rng(0)
    sc = Scenario(config=small_config)
    for design, check in [
        ("case4_identity", lambda p: np.all(p.v == 1.0)),
        ("case3_random", lambda p: np.all(np.abs(np.abs(p.v) - 1) < 1e-12)),
        ("case1_align_nearest", lambda p: True),
        ("case2_align_farthest", lambda p: True),
    ]:
        phase, iters = resolve_phase(small_config, design, rng)
        assert check(phase) and iters == 0
    with pytest.raises(ConfigError, match="user_ris_dist"):
        resolve_phase(small_config.replace(user_ris_dist=None), "case1_align_nearest", rng)


def test_resolve_phase_optimizer_beats_heuristics(small_config):
    rng = np.random.default_rng(1)
    phase, iters = resolve_phase(small_config, "case5_maxsum", np.random.default_rng(1))
    assert iters > 0
    best_heuristic = max(
        rate_lower_bound(small_config, p).sum()
        for p in [PhaseShifts.identity(small_config.N),
                  PhaseShifts.random(small_config.N, np.random.default_rng(1))])
    assert rate_lower_bound(small_config, phase).sum() >= best_heuristic - 1e-9


@pytest.mark.parametrize("design, scored", [("case5_maxsum", 4), ("case6_maxmin", 5)])
def test_resolve_phase_scores_each_candidate_once(small_config, monkeypatch, design, scored):
    # the four heuristic candidates, and for case 6 the sum-rate solution
    # too, are each scored once, not once per objective that ranks them
    calls = []

    def spy(problem, v):
        calls.append(v)
        return fractional_objective(problem, v)

    monkeypatch.setattr("riszf.harness.fractional_objective", spy)
    resolve_phase(small_config, design, np.random.default_rng(3))
    assert len(calls) == scored


def test_run_scenario_rows_and_monotone_lb(small_config):
    sc = Scenario(config=small_config, phase_design="case4_identity",
                  sweep_axis="N", sweep_values=(16, 32), trials=40, seed=2)
    rows = run_scenario(sc)
    assert [row.sweep_value for row in rows] == [16.0, 32.0]
    assert all(row.error == "" for row in rows)
    assert rows[0].lower_bound.sum() <= rows[1].lower_bound.sum()


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
    assert np.all(np.isnan(rows[0].mc_rate))
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
    sc = Scenario(config=small_config, phase_design="case5_maxsum",
                  sweep_axis="N", sweep_values=(16, 10**11), trials=10, seed=0)
    assert [row.error for row in run_scenario(sc)] == ["", "invalid_config"]


def test_memory_estimate_knows_the_design():
    # only the check runs: nothing of size N is allocated
    cfg = default_profile()
    check_memory(cfg.replace(N=2**30), "case1_align_nearest")       # a 32768 x 32768 grid
    with pytest.raises(ConfigError, match="needs an estimated"):
        check_memory(cfg.replace(N=1_000_000_007), "case1_align_nearest")  # prime: 1 x N
    # an MM point holds G (K x N) and about 12 N-vectors, K + 12 in all, so at
    # K = 2 it needs more than twice the (2K + 1) 16 N bytes of a K x N pair
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    n = int(1.1 * have / (16 * 13))
    with pytest.raises(ConfigError, match="case6_maxmin"):
        check_memory(default_profile(K=2).replace(N=n), "case6_maxmin")


@pytest.mark.parametrize("k", [2, 8])
def test_memory_estimate_bounds_the_traced_peak(k):
    # 256 x 256 and the prime 65537 (a 1 x N grid, whose LoS factors are K x N)
    for n, design, quantized in itertools.product((2**16, 65537), PHASE_CASES, (False, True)):
        cfg = default_profile(K=k, N=n)
        sc = Scenario(config=cfg, phase_design=design, sweep_axis="bits",
                      sweep_values=(3,), trials=200, seed=0)
        tracemalloc.start()
        try:
            # a bits point quantizes the design's phase, resolved first
            base = resolve_phase(cfg, design, 0)[0] if quantized else None
            (row,) = _run_point([sc], cfg, 0, 3 if quantized else None, [base])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.error == ""
        assert peak <= check_memory(cfg, design, quantized), (n, design, quantized, peak)
    # a figure point holds its five designs' phases and rates at once
    designs = _FIG_SWEEPS["fig3b"][1]
    for n, quantized in itertools.product((2**16, 65537), (False, True)):
        cfg = default_profile(K=k, N=n)
        scenarios = [Scenario(config=cfg, phase_design=design, sweep_axis="bits",
                              sweep_values=(3,), trials=200, seed=0) for design in designs]
        tracemalloc.start()
        try:
            bases = ([phase for phase, _ in resolve_phases(cfg, designs, 0)] if quantized
                     else [None] * len(designs))
            rows = _run_point(scenarios, cfg, 0, 3 if quantized else None, bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row.error for row in rows] == [""] * len(designs)
        need = check_memory(cfg, designs, quantized, trials=200)
        assert peak <= need, (n, quantized, peak)


def test_mse_validate_refuses_draws_beyond_memory(tmp_path, capsys):
    # at M = 1e10 the M x K draws need terabytes: refused (exit 2) before any
    # of them is allocated, while the closed-form report still runs
    huge_m = tmp_path / "huge_m.cfg"
    write_config_file(default_profile().replace(M=10**10), huge_m)
    tracemalloc.start()
    try:
        assert cli_main(["--config", str(huge_m), "mse", "--validate"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24
    assert "M=10000000000" in capsys.readouterr().err
    assert cli_main(["--config", str(huge_m), "mse"]) == 0


@pytest.mark.parametrize("k, m, trials", [(2, 16384, 40), (8, 8192, 3)])
def test_memory_estimate_bounds_the_mse_draws(tmp_path, capsys, k, m, trials):
    cfg = default_profile(K=k, M=m)
    path = tmp_path / "m.cfg"
    write_config_file(cfg, path)
    tracemalloc.start()
    try:
        code = cli_main(["--config", str(path), "--trials", str(trials), "mse", "--validate"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= check_memory(cfg, "case4_identity", draws=trials), peak


@pytest.mark.parametrize("k", [2, 8])
def test_memory_estimate_bounds_the_traced_peak_of_many_trials(k):
    # at 2e5 trials the trials x K per-trial rates dominate a point's peak
    cfg = default_profile(K=k, N=64)
    trials = 200_000
    sc = Scenario(config=cfg, phase_design="case4_identity", trials=trials, seed=0)
    tracemalloc.start()
    try:
        (row,) = _run_point([sc], cfg, 0, None, [None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.error == ""
    assert check_memory(cfg, "case4_identity") < peak  # the trials charge is needed
    assert peak <= check_memory(cfg, "case4_identity", trials=trials), peak


def test_memory_estimate_bounds_the_mse_error_powers(tmp_path, capsys):
    # ``mse --validate`` keeps every trial's K error powers
    cfg = default_profile(K=8, M=16)
    trials = 200_000
    path = tmp_path / "m.cfg"
    write_config_file(cfg, path)
    tracemalloc.start()
    try:
        code = cli_main(["--config", str(path), "--trials", str(trials), "mse", "--validate"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert check_memory(cfg, "case4_identity", draws=trials) < peak
    assert peak <= check_memory(cfg, "case4_identity", draws=trials, trials=trials), peak


def test_trials_beyond_memory_are_refused_before_allocation(capsys):
    # 1e11 trials of K rates need terabytes: every command refuses them
    # before it allocates anything of that size
    trials = str(10**11)
    tracemalloc.start()
    try:
        for argv in (["rate"], ["sweep", "--axis", "N", "--values", "16,32"]):
            assert cli_main(["--trials", trials, "--format", "json", *argv]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert [row["error"] for row in rows] == ["invalid_config"] * len(rows), argv
        for argv in (["optimize"], ["mse", "--validate"]):
            assert cli_main(["--trials", trials, *argv]) == 2, argv
            assert f"{trials} trials" in capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24


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


@pytest.mark.parametrize("axis, values, designs", [
    ("N", (0, 16, 32), ("case1_align_nearest", "case3_random", "case5_maxsum")),
    ("bits", (1, 2, 3), ("case2_align_farthest", "case5_maxsum", "case6_maxmin")),
    (None, (), ("case3_random", "case4_identity", "case6_maxmin")),
])
def test_run_scenario_of_many_designs_matches_each_alone(small_config, axis, values, designs):
    header = csv_header(small_config.K)
    scenarios = [Scenario(config=small_config, phase_design=design, sweep_axis=axis,
                          sweep_values=values, trials=20, seed=6) for design in designs]
    rows = run_scenario(*scenarios)
    n = len(values) or 1
    assert len(rows) == n * len(scenarios)
    for j, sc in enumerate(scenarios):
        together = csv_text(header, [row_values(row) for row in rows[j * n:(j + 1) * n]])
        alone = csv_text(header, [row_values(row) for row in run_scenario(sc)])
        assert together == alone, sc.phase_design
    if axis == "N":
        assert {row.error for row in rows[::n]} == {"invalid_config"}  # N = 0


def test_a_failing_design_gets_its_own_row(small_config, monkeypatch):
    # the min-rate MM fails: case 6 alone gets numerical_failure, and every
    # other design's rows are those it gets when run alone
    designs = ("case1_align_nearest", "case3_random", "case5_maxsum", "case6_maxmin")
    scenarios = [Scenario(config=small_config, phase_design=design, sweep_axis="N",
                          sweep_values=(16, 32), trials=70, seed=2) for design in designs]
    optimize = mm_optimize

    def failing(config, objective="sum", **kwargs):
        if objective == "min":
            raise NumericalError("min objective: the designed phases are not finite")
        return optimize(config, objective, **kwargs)

    monkeypatch.setattr("riszf.harness.mm_optimize", failing)
    rows = run_scenario(*scenarios, max_workers=1)
    header = csv_header(small_config.K)
    for j, sc in enumerate(scenarios[:3]):
        together = csv_text(header, [row_values(row) for row in rows[2 * j:2 * j + 2]])
        alone = csv_text(header, [row_values(row) for row in run_scenario(sc, max_workers=1)])
        assert together == alone, sc.phase_design
    assert [row.error for row in rows[6:]] == ["numerical_failure"] * 2
    with pytest.raises(NumericalError):
        resolve_phase(small_config, "case6_maxmin", 0)


def test_designs_too_large_together_run_one_at_a_time(small_config, monkeypatch):
    # physical memory between the largest one-design charge and the charge of
    # the fig3b designs together: the point runs each design alone, and each
    # gets the row it gets when run alone
    designs = _FIG_SWEEPS["fig3b"][1]
    scenarios = [Scenario(config=small_config, phase_design=design, trials=50, seed=4)
                 for design in designs]
    header = csv_header(small_config.K)
    alone = [csv_text(header, [row_values(row) for row in run_scenario(sc)]) for sc in scenarios]
    one = max(check_memory(small_config, design, trials=50) for design in designs)
    together = check_memory(small_config, designs, trials=50)
    assert one < together
    sysconf = os.sysconf
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": (one + together) // 2}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name] if name in pages else sysconf(name))
    calls = []
    run_point = harness_module._run_point

    def counted(point_scenarios, *args):
        calls.append(len(point_scenarios))
        return run_point(point_scenarios, *args)

    monkeypatch.setattr(harness_module, "_run_point", counted)
    rows = run_scenario(*scenarios)
    assert calls == [5, 1, 1, 1, 1, 1]
    assert [csv_text(header, [row_values(row)]) for row in rows] == alone


def test_resolve_phases_equal_each_design_alone(small_config):
    # one point's designs share the heuristic phases, their scores and the
    # sum-rate MM, and still resolve bit for bit as each does alone
    designs = ("case3_random", "case5_maxsum", "case6_maxmin", "case1_align_nearest")
    shared = resolve_phases(small_config, designs, np.random.default_rng(4))
    for design, (phase, iters) in zip(designs, shared):
        alone, alone_iters = resolve_phase(small_config, design, np.random.default_rng(4))
        assert np.array_equal(phase.v, alone.v) and iters == alone_iters, design


def test_reproduce_fig3b_draws_once_per_n(tmp_path, small_config, monkeypatch):
    # per N: one Monte-Carlo draw and one phase-independent bound for the five
    # designs, one sum-rate and one min-rate MM, and five candidates scored
    counts = dict.fromkeys(("sample_gram", "mm_optimize", "fractional_objective",
                            "phase_independent_bound"), 0)
    for module, name in ((rate_module, "sample_gram"), (harness_module, "mm_optimize"),
                         (harness_module, "fractional_objective"),
                         (harness_module, "phase_independent_bound")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    reproduce("fig3b", tmp_path, config=small_config, trials=50, seed=1)
    assert counts == {"sample_gram": 3, "mm_optimize": 6, "fractional_objective": 15,
                      "phase_independent_bound": 3}


def test_run_scenario_refuses_a_mix_beyond_the_design(small_config):
    base = Scenario(config=small_config, phase_design="case1_align_nearest", sweep_axis="N",
                    sweep_values=(16, 32), trials=10, seed=0)
    mixes = [dict(config=small_config.replace()), dict(seed=1), dict(trials=11),
             dict(sweep_values=(16, 48)), dict(sweep_axis="M"),
             dict(sweep_axis=None, sweep_values=())]
    for change in mixes:
        other = dataclasses.replace(base, phase_design="case4_identity", **change)
        with pytest.raises(ConfigError, match="differ only in phase_design"):
            run_scenario(base, other)
    with pytest.raises(ConfigError):
        run_scenario()


def test_csv_byte_identical_roundtrip(tmp_path, small_config):
    sc = Scenario(config=small_config, phase_design="case3_random",
                  sweep_axis="N", sweep_values=(16, 32), trials=25, seed=7)
    rows_a = run_scenario(sc)
    rows_b = run_scenario(sc, max_workers=1)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_scenario_outputs(rows_a, sc, pa)
    write_scenario_outputs(rows_b, sc, pb)
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


def test_summary_columns_derive_from_per_user_columns(small_config):
    sc = Scenario(config=small_config, phase_design="case3_random",
                  sweep_axis="M", sweep_values=(2, 16), trials=20, seed=6)
    bad, good = run_scenario(sc)
    assert bad.error == "invalid_config" and good.error == ""
    header = csv_header(small_config.K)
    text = [dict(zip(header, line.split(",")))
            for line in rows_text([bad, good], small_config.K).strip().split("\n")[1:]]
    numeric = [name for name in header if name not in ("sweep_value", "error",
                                                       "opt_iterations")]
    assert all(text[0][name] == "nan" for name in numeric)
    row = {name: float(text[1][name]) for name in numeric}
    k = small_config.K
    mc = np.array([row[f"mc_rate_u{j}"] for j in range(1, k + 1)])
    se = np.array([row[f"mc_se_u{j}"] for j in range(1, k + 1)])
    lb = np.array([row[f"lower_bound_u{j}"] for j in range(1, k + 1)])
    assert row["sum_rate_mc"] == float(mc.sum())
    assert row["min_rate_mc"] == mc.min()
    assert row["min_rate_mc_se"] == se[np.argmin(mc)]
    assert row["sum_rate_lb"] == lb.sum()
    assert row["min_rate_lb"] == lb.min()


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
    assert payload[0]["sum_rate_mc"] == pytest.approx(rows[0].mc_rate.sum())


def test_solve_antennas_matches_formula(small_config):
    cfg = default_profile()
    for n in (64, 256):
        cfg_n = cfg.replace(N=n, delta=0.0)
        solved = solve_antennas_for_snr(cfg_n, 10.0, cfg.K - 1)
        formula = required_antennas(cfg_n, 10.0, cfg.K - 1)
        assert solved == pytest.approx(formula, rel=0.05)


def test_antenna_tradeoff_gap_falls_as_one_over_n_squared():
    # beyond fig4a's N <= 256: the closed form's relative excess over the
    # exact inversion, times N^2, measured 161.6, 176.2, 178.9, 179.1 and
    # 179.1 at N = 2^8, 2^12, 2^16, 2^20 and 2^24
    cfg = default_profile()
    user = cfg.K - 1
    for n in (2**8, 2**12, 2**16, 2**20, 2**24):
        cfg_n = cfg.replace(N=n, delta=0.0)
        formula = required_antennas(cfg_n, 10.0, user)
        gap = (solve_antennas_for_snr(cfg_n, 10.0, user) - formula) / formula
        assert 150.0 <= gap * n**2 <= 190.0
    assert gap < 1e-12


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
    # every element-count figure: fig3b covers the alignment, random and MM
    # designs over 3 N values, fig2b the identity and random designs over 4
    for figure, (n_values, cases) in _FIG_SWEEPS.items():
        for case in cases:
            sc = Scenario(config=small_config, phase_design=case, sweep_axis="N",
                          sweep_values=n_values, trials=20, seed=5)
            write_scenario_outputs(run_scenario(sc, max_workers=4), sc,
                                   tmp_path / f"pooled_{figure}_{case}.csv")

    def no_pool(*args, **kwargs):
        raise AssertionError("reproduce started a thread pool")

    monkeypatch.setattr("riszf.harness.ThreadPoolExecutor", no_pool)
    for figure, (_, cases) in _FIG_SWEEPS.items():
        reproduce(figure, tmp_path / "figs", config=small_config, trials=20, seed=5)
        for case in cases:
            figure_csv = tmp_path / "figs" / f"{figure}_{case.split('_')[0]}.csv"
            pooled_csv = tmp_path / f"pooled_{figure}_{case}.csv"
            assert figure_csv.read_bytes() == pooled_csv.read_bytes(), (figure, case)


def _count_builds(monkeypatch, build) -> list[int]:
    """N of every call of the once-per-config ``build`` that builds, not one that hits its cache.

    The counting wrapper replaces ``build`` in every riszf module that holds it.
    """
    key = f"_{build.__name__}"
    built = []

    def counting(config):
        if config.__dict__.get(key) is None:
            built.append(config.N)
        return build(config)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "riszf" and getattr(module, build.__name__, None) is build:
            monkeypatch.setattr(module, build.__name__, counting)
    return built


def test_reproduce_shares_one_config_per_n(tmp_path, small_config, monkeypatch):
    # every design's point at one N runs on one config instance, so the
    # statistics and the design problem are built once per N, not per design
    configs = {}

    def spy(scenarios, config, index, value, base_phases):
        configs.setdefault(value, []).extend((sc.phase_design, config) for sc in scenarios)
        return _run_point(scenarios, config, index, value, base_phases)

    monkeypatch.setattr("riszf.harness._run_point", spy)
    stats_built = _count_builds(monkeypatch, compute_statistics)
    problems_built = _count_builds(monkeypatch, build_problem)
    reproduce("fig3b", tmp_path, config=small_config, trials=5, seed=5)
    assert sorted(configs) == [64.0, 128.0, 256.0]
    for value, points in configs.items():
        assert [design for design, _ in points] == list(_FIG_SWEEPS["fig3b"][1])
        assert all(config is points[0][1] for _, config in points), value
        assert points[0][1].N == value
    assert stats_built == [64, 128, 256]
    assert problems_built == [64, 128, 256]


def test_reproduce_runs_its_designs_in_one_run_scenario_call(tmp_path, small_config,
                                                            monkeypatch):
    calls = []

    def spy(*scenarios, **kwargs):
        calls.append(([sc.phase_design for sc in scenarios], kwargs))
        return run_scenario(*scenarios, **kwargs)

    monkeypatch.setattr("riszf.harness.run_scenario", spy)
    reproduce("fig3b", tmp_path, config=small_config, trials=5, seed=5)
    assert calls == [(list(_FIG_SWEEPS["fig3b"][1]), {"max_workers": 1})]


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


def test_cli_optimize_min_at_huge_power_exits_3(tmp_path):
    # at p = 1e300 the min-rate step's guard used to loop forever; it is a
    # numerical failure, exit code 3
    cfg_path = tmp_path / "huge_p.cfg"
    write_config_file(default_profile().replace(p=1e300), cfg_path)
    with deadline(20), np.errstate(over="ignore", invalid="ignore"):
        code = cli_main(["--config", str(cfg_path), "--trials", "5", "optimize",
                         "--objective", "min", "--max-iter", "5"])
    assert code == 3


def test_cli_optimize_min_at_huge_power_prints_one_stderr_line(tmp_path, capfd):
    # the overflow behind that failure is reported once, as the failure, and
    # numpy prints no RuntimeWarning before it; a fresh interpreter shows
    # stderr as a console user sees it
    cfg_path = tmp_path / "huge_p.cfg"
    write_config_file(default_profile().replace(p=1e300), cfg_path)
    run = subprocess.run([sys.executable, "-m", "riszf.cli", "--config", str(cfg_path),
                          "--trials", "5", "optimize", "--objective", "min", "--max-iter", "5"],
                         env=_src_env(), stdout=subprocess.DEVNULL, timeout=20)
    assert run.returncode == 3
    assert capfd.readouterr().err == ("numerical failure: min-rate step: "
                                      "surrogate norms are not finite\n")


def test_cli_json_format_applies_to_stdout(capsys):
    code = cli_main(["--trials", "5", "--format", "json", "rate"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["error"] == "" and payload[0]["sum_rate_mc"] > 0


def test_cli_json_failed_row_is_strict_json(capsys):
    # a failed row's NaN values are written as null, which a strict parser accepts
    code = cli_main(["--trials", "5", "--format", "json",
                     "sweep", "--axis", "N", "--values", "16,16.5"])
    assert code == 0

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    good, bad = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert good["error"] == "" and good["sum_rate_mc"] > 0
    assert bad["error"] == "invalid_config"
    assert bad["sum_rate_mc"] is None and bad["mc_rate_u1"] is None


def test_cli_sweep_edge_powers_are_numerical_failures(capsys):
    # p = 1e-300 and 1e-200 underflow Lambda to 0; at p = 1e300 the ZF scale
    # is subnormal and the bounds overflow to inf
    code = cli_main(["--trials", "3", "sweep", "--axis", "p", "--values", "1e-300,1e-200,1e300"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [line.split(",")[1] for line in lines[1:]] == ["numerical_failure"] * 3


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
    assert cli_main(["--config", str(huge_n), "optimize"]) == 2
    huge_n.write_text(re.sub(r"(?m)^N = .*$", "N = 1000000007", huge_n.read_text()))
    assert cli_main(["--config", str(huge_n), "mse", "--validate"]) == 2  # K x N LoS factors
    assert cli_main(["sweep", "--axis", "N", "--values", "1,abc"]) == 2
    assert cli_main(["--trials", "5", "sweep", "--axis", "bits", "--values", "1,2000"]) == 0
    assert cli_main(["--trials", "0", "mse", "--validate"]) == 2
    assert cli_main(["--trials", "0", "optimize"]) == 2


def test_cli_negative_seed_exits_2(capsys):
    for argv in (["rate"], ["sweep", "--axis", "N", "--values", "8,16"],
                 ["optimize", "--max-iter", "2"]):
        assert cli_main(["--seed", "-1", "--trials", "5", *argv]) == 2, argv
        assert "Traceback" not in capsys.readouterr().err


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_loads_no_scipy():
    probe = ("import sys, riszf.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_help():
    assert cli_main(["--help"]) == 0
