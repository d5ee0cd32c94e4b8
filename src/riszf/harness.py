"""Scenario orchestration: phase-design cases, sweeps, and persistence.

A scenario couples a configuration with one phase-shift design and an
optional sweep axis.  Each sweep point is evaluated independently and emits
one :class:`ResultRow`; rows come back ordered by sweep value.  Only a
multi-point ``riszf sweep`` spreads its points over a thread pool; a single
point (``riszf rate``) and the figure sweeps of :func:`reproduce` run
serially.  CSV output is schema-versioned and byte-identical for
identical seeds; a ``.manifest.json`` sidecar records everything needed to
re-execute the run.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .channel import PhaseShifts
from .config import SystemConfig, default_profile
from .errors import ConfigError, NumericalError
from .optimizer import (align_phase, build_problem, fractional_objective, mm_optimize,
                        quantize_phase)
from .rate import (phase_independent_snr, power_scaling_limit, rate_lower_bound, rate_report,
                   required_antennas)

SCHEMA_VERSION = 1

PHASE_CASES = ("case1_align_nearest", "case2_align_farthest", "case3_random",
               "case4_identity", "case5_maxsum", "case6_maxmin")

SWEEP_AXES = ("N", "M", "p", "delta", "bits")


@dataclass(frozen=True)
class Scenario:
    """One experiment: a config, a phase design, and an optional sweep.

    ``phase_design`` is one of :data:`PHASE_CASES`.  The alignment cases
    take the nearest and farthest users from the config's ``user_ris_dist``
    metadata.
    """

    config: SystemConfig
    phase_design: str = "case4_identity"
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    trials: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.phase_design, str) or self.phase_design not in PHASE_CASES:
            raise ConfigError(f"unknown phase design {self.phase_design!r}; "
                              f"expected one of {PHASE_CASES}")
        if self.sweep_axis is not None:
            if self.sweep_axis not in SWEEP_AXES:
                raise ConfigError(f"unknown sweep axis {self.sweep_axis!r}; "
                                  f"expected one of {SWEEP_AXES}")
            values = tuple(float(v) for v in self.sweep_values)
            if not values:
                raise ConfigError("sweep_values must be non-empty when sweeping")
            if not np.all(np.isfinite(values)):
                raise ConfigError(f"sweep values must be finite, got {values}")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError("sweep values must be strictly increasing")
            object.__setattr__(self, "sweep_values", values)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")


@dataclass(frozen=True)
class ResultRow:
    """One evaluated sweep point.

    ``error`` is empty on success, otherwise an error code
    (``invalid_config`` or ``numerical_failure``) and every numeric field is
    NaN.  ``wall_time_s`` is measured but not serialized, so CSV output stays
    reproducible.
    """

    sweep_value: float
    error: str
    mc_rate: np.ndarray
    mc_se: np.ndarray
    lower_bound: np.ndarray
    floor_bound: np.ndarray
    ub: np.ndarray
    sum_rate_mc: float
    sum_rate_mc_se: float
    min_rate_mc: float
    min_rate_mc_se: float
    sum_rate_lb: float
    min_rate_lb: float
    opt_iterations: int
    wall_time_s: float = field(compare=False)


def _nan_row(sweep_value, error, k, wall_time) -> ResultRow:
    nan_vec = np.full(k, np.nan)
    return ResultRow(sweep_value=sweep_value, error=error,
                     mc_rate=nan_vec, mc_se=nan_vec, lower_bound=nan_vec,
                     floor_bound=nan_vec, ub=nan_vec,
                     sum_rate_mc=np.nan, sum_rate_mc_se=np.nan,
                     min_rate_mc=np.nan, min_rate_mc_se=np.nan,
                     sum_rate_lb=np.nan, min_rate_lb=np.nan,
                     opt_iterations=0, wall_time_s=wall_time)


def _alignment_indices(config: SystemConfig) -> tuple[int, int]:
    """(nearest, farthest) user by the config's ``user_ris_dist`` metadata."""
    if config.user_ris_dist is None:
        raise ConfigError("alignment cases need a config with user_ris_dist metadata")
    return int(np.argmin(config.user_ris_dist)), int(np.argmax(config.user_ris_dist))


def resolve_phase(config: SystemConfig, scenario: Scenario, rng) -> tuple[PhaseShifts, int]:
    """Turn a phase design into concrete phases; returns (phase, optimizer iters).

    The optimizer cases warm-start from the best of the four heuristic cases
    under their own objective; monotonicity of the optimizer then guarantees
    they never fall below that heuristic.  The min-rate case additionally
    seeds from the sum-rate solution, so its minimum rate dominates every
    other case of the same run.  Both run :func:`mm_optimize` with its
    default iteration cap and tolerance.
    """
    design = scenario.phase_design
    if design == "case4_identity":
        return PhaseShifts.identity(config.N), 0
    if design == "case3_random":
        return PhaseShifts.random(config.N, rng), 0
    nearest, farthest = _alignment_indices(config)
    if design == "case1_align_nearest":
        return align_phase(config, nearest), 0
    if design == "case2_align_farthest":
        return align_phase(config, farthest), 0

    candidates = [align_phase(config, nearest), align_phase(config, farthest),
                  PhaseShifts.random(config.N, rng), PhaseShifts.identity(config.N)]
    objective = "sum" if design == "case5_maxsum" else "min"

    # f_k = ln(1 + SNR_k) of the statistical-CSI lower bound, so these rank
    # candidates as the bound's sum and minimum rates do
    problem = build_problem(config)

    def sum_score(phase):
        return float(fractional_objective(problem, phase.v).sum())

    def min_score(phase):
        return float(fractional_objective(problem, phase.v).min())

    iterations = 0
    if objective == "min":
        sum_trace = mm_optimize(config, objective="sum",
                                init=max(candidates, key=sum_score), problem=problem)
        iterations += sum_trace.iterations
        candidates.append(sum_trace.final_v)

    score = sum_score if objective == "sum" else min_score
    trace = mm_optimize(config, objective=objective, init=max(candidates, key=score),
                        problem=problem)
    return trace.final_v, iterations + trace.iterations


def _apply_axis(config: SystemConfig, axis: str | None, value) -> SystemConfig:
    """The config at one sweep point; :class:`SystemConfig` checks the value and
    :meth:`SystemConfig.check_memory` that the point fits in memory."""
    if axis is not None and axis != "bits":
        config = config.replace(**{axis: value})
    config.check_memory()
    return config


def _point_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])


def _run_point(scenario: Scenario, index: int, value,
               base_phase: PhaseShifts | None) -> ResultRow:
    start = time.perf_counter()
    sweep_value = float(value) if value is not None else float("nan")
    k = scenario.config.K
    try:
        config = _apply_axis(scenario.config, scenario.sweep_axis, value)
        phase = None if base_phase is None else quantize_phase(base_phase, value)
    except ConfigError:
        return _nan_row(sweep_value, "invalid_config", k, time.perf_counter() - start)
    try:
        opt_iters = 0
        if phase is None:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=scenario.seed, spawn_key=(index, 1)))
            phase, opt_iters = resolve_phase(config, scenario, rng)
        report = rate_report(config, phase, scenario.trials, _point_seed(scenario.seed, index))
    except NumericalError:
        return _nan_row(sweep_value, "numerical_failure", k, time.perf_counter() - start)
    mc_rate, mc_se, lb = report.mc_rate, report.mc_std_error, report.lower_bound
    min_idx = int(np.argmin(mc_rate))
    return ResultRow(
        sweep_value=sweep_value, error="",
        mc_rate=mc_rate, mc_se=mc_se, lower_bound=lb, floor_bound=report.floor_bound,
        ub=report.ub, sum_rate_mc=float(mc_rate.sum()), sum_rate_mc_se=report.mc_sum_rate_se,
        min_rate_mc=float(mc_rate[min_idx]), min_rate_mc_se=float(mc_se[min_idx]),
        sum_rate_lb=float(lb.sum()), min_rate_lb=float(lb.min()),
        opt_iterations=opt_iters, wall_time_s=time.perf_counter() - start,
    )


def run_scenario(scenario: Scenario, max_workers: int | None = None) -> list[ResultRow]:
    """Evaluate every sweep point of a scenario; rows ordered by sweep value.

    Points are independent and, unless ``max_workers`` is 1, run on a
    thread pool of up to ``max_workers`` threads (default: min(4, points)).
    :func:`reproduce` passes 1: each of its points is a few ms of numpy work
    that holds the GIL, so threads there add only start-up and hand-offs.
    Per-point seeds derive from (scenario seed, point index), so results do
    not depend on worker count or completion order.
    """
    if scenario.sweep_axis is None:
        return [_run_point(scenario, 0, None, None)]
    base_phase = None
    if scenario.sweep_axis == "bits":
        rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed,
                                                           spawn_key=(0, 1)))
        base_phase, _ = resolve_phase(scenario.config, scenario, rng)
    points = list(enumerate(scenario.sweep_values))
    workers = max_workers or min(4, len(points))
    if workers <= 1 or len(points) == 1:
        return [_run_point(scenario, i, v, base_phase) for i, v in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_point, scenario, i, v, base_phase) for i, v in points]
        return [f.result() for f in futures]


# --- persistence ------------------------------------------------------------

def csv_header(k: int) -> list[str]:
    """Schema-v1 column names for K users."""
    cols = ["sweep_value", "error", "opt_iterations"]
    for j in range(1, k + 1):
        cols += [f"mc_rate_u{j}", f"mc_se_u{j}"]
    cols += [f"lower_bound_u{j}" for j in range(1, k + 1)]
    cols += [f"floor_u{j}" for j in range(1, k + 1)]
    cols += [f"ub_u{j}" for j in range(1, k + 1)]
    cols += ["sum_rate_mc", "sum_rate_mc_se", "min_rate_mc", "min_rate_mc_se",
             "sum_rate_lb", "min_rate_lb"]
    return cols


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def csv_text(header: list[str], rows: list[list]) -> str:
    """CSV text with full-precision (repr) floats, one line per row plus the header."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_table(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(header, rows))


def row_values(row: ResultRow) -> list:
    values = [row.sweep_value, row.error, row.opt_iterations]
    for j in range(row.mc_rate.size):
        values += [row.mc_rate[j], row.mc_se[j]]
    values += list(row.lower_bound) + list(row.floor_bound) + list(row.ub)
    values += [row.sum_rate_mc, row.sum_rate_mc_se, row.min_rate_mc,
               row.min_rate_mc_se, row.sum_rate_lb, row.min_rate_lb]
    return values


def write_rows_csv(rows: list[ResultRow], path, k: int) -> None:
    """Write rows as UTF-8 CSV with full-precision (repr) floats."""
    _write_table(path, csv_header(k), [row_values(row) for row in rows])


def write_rows_json(rows: list[ResultRow], path, k: int) -> None:
    header = csv_header(k)
    payload = [dict(zip(header, row_values(row))) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_manifest(path, scenario: Scenario, figure: str | None = None,
                   extra: dict | None = None) -> None:
    """Write the ``.manifest.json`` sidecar describing a run."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "figure": figure,
        "seed": scenario.seed,
        "trials": scenario.trials,
        "phase_design": scenario.phase_design,
        "sweep_axis": scenario.sweep_axis,
        "sweep_values": list(scenario.sweep_values),
        "config": scenario.config.to_dict(),
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def manifest_path(out_path) -> str:
    return f"{out_path}.manifest.json"


def write_scenario_outputs(rows, scenario: Scenario, out_path, fmt: str = "csv",
                           figure: str | None = None) -> list[str]:
    writer = write_rows_csv if fmt == "csv" else write_rows_json
    writer(rows, out_path, scenario.config.K)
    write_manifest(manifest_path(out_path), scenario, figure=figure)
    return [str(out_path), manifest_path(out_path)]


# --- antenna-count inversion (trade-off curves) ------------------------------

def solve_antennas_for_snr(config: SystemConfig, N: int, C0: float, k: int) -> float:
    """Antenna count at which the phase-independent bound reaches SNR C0.

    Inverts the exact bound for user k over a real-valued antenna count
    (delta forced to 0, N replaced).  The bound's SNR is per_antenna (m - K),
    linear in the antenna count m, so the inverse is K + C0 / per_antenna.
    Serves as the exact-bound counterpart of
    :func:`riszf.rate.required_antennas`.
    """
    cfg = config.replace(N=int(N), delta=0.0)
    snr_ref = float(phase_independent_snr(cfg)[0][k])
    per_antenna = snr_ref / (cfg.M - cfg.K)
    return cfg.K + C0 / per_antenna


# --- figure reproduction ------------------------------------------------------

FIGURE_IDS = ("fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b")

_FIG_N_SWEEP = {"fig2a": (50, 100, 200, 400), "fig2b": (50, 100, 200, 400),
                "fig3a": (64, 128, 256), "fig3b": (64, 128, 256)}
_FIG_CASES = {
    "fig2a": ("case1_align_nearest", "case2_align_farthest"),
    "fig2b": ("case2_align_farthest", "case3_random", "case4_identity"),
    "fig3a": ("case1_align_nearest", "case2_align_farthest", "case3_random",
              "case5_maxsum"),
    "fig3b": ("case1_align_nearest", "case2_align_farthest", "case3_random",
              "case5_maxsum", "case6_maxmin"),
}


def reproduce(figure_id: str, out_dir, config: SystemConfig | None = None,
              trials: int = 2000, seed: int = 0) -> list[str]:
    """Write the sweep data underlying one of the reference experiments.

    ``fig2*``/``fig3*`` sweep the element count under the named phase-design
    cases (one CSV per case); ``fig4a`` tabulates the antenna/element
    trade-off at delta = 0 against the closed-form prediction; ``fig4b``
    follows the power-scaling law p = 10/N toward its limit.  Each CSV gets
    a ``.manifest.json`` sidecar.  Default trial counts are desk-scale;
    raise ``trials`` for figure-faithful noise floors.
    """
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config is None:
        config = default_profile()
    written: list[str] = []

    if figure_id in _FIG_CASES:
        for case in _FIG_CASES[figure_id]:
            scenario = Scenario(config=config, phase_design=case, sweep_axis="N",
                                sweep_values=_FIG_N_SWEEP[figure_id],
                                trials=trials, seed=seed)
            rows = run_scenario(scenario, max_workers=1)
            path = out_dir / f"{figure_id}_{case.split('_')[0]}.csv"
            written += write_scenario_outputs(rows, scenario, path, figure=figure_id)
        return written

    if figure_id == "fig4a":
        c0 = 10.0
        user = (int(np.argmax(config.user_ris_dist))
                if config.user_ris_dist is not None else config.K - 1)
        header = ["N", "C0", "user", "m_solved", "m_formula", "tradeoff_product"]
        rows = []
        for n in (16, 32, 64, 128, 256):
            cfg_n = config.replace(N=n, delta=0.0)
            m_solved = solve_antennas_for_snr(config, n, c0, user)
            m_formula = required_antennas(cfg_n, n, c0, user)
            gain = n * config.alpha[user] * config.beta + config.gamma[user]
            rows.append([n, c0, user, m_solved, m_formula, (m_solved - config.K) * gain])
        path = out_dir / "fig4a.csv"
        _write_table(path, header, rows)
        scenario = Scenario(config=config, trials=trials, seed=seed)
        write_manifest(manifest_path(path), scenario, figure="fig4a",
                       extra={"C0": c0, "user": user, "columns": header})
        return [str(path), manifest_path(path)]

    # fig4b: power scaling p = 10/N at two antenna counts
    e_u = 10.0
    header = ["N", "M", "p_w", "rate_lb_avg", "rate_limit_avg", "rate_bound_avg"]
    rows = []
    for m in (32, 64):
        for n in (1000, 10_000, 100_000):
            cfg = config.replace(M=m, N=n, p=e_u / n)
            phase = PhaseShifts.identity(n)
            lb_avg = float(np.mean(rate_lower_bound(cfg, phase)))
            limit_snr, bound_snr = power_scaling_limit(cfg, phase, e_u)
            limit_avg = float(np.mean(cfg.tau_overhead * np.log2(1.0 + limit_snr)))
            bound_avg = float(np.mean(cfg.tau_overhead * np.log2(1.0 + bound_snr)))
            rows.append([n, m, e_u / n, lb_avg, limit_avg, bound_avg])
    path = out_dir / "fig4b.csv"
    _write_table(path, header, rows)
    scenario = Scenario(config=config, trials=trials, seed=seed)
    write_manifest(manifest_path(path), scenario, figure="fig4b",
                   extra={"E_u": e_u, "columns": header})
    return [str(path), manifest_path(path)]
