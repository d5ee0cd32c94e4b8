"""Scenario orchestration: phase-design cases, sweeps, and persistence.

A scenario couples a configuration with one phase-shift design and an
optional sweep axis.  :func:`run_scenario` is the one point loop: it takes
one scenario or several that differ only in their design, builds one config
per sweep point and evaluates every design's point on it, so the designs
share its per-config caches; each point emits one :class:`ResultRow`.
Only a multi-point ``riszf sweep`` spreads its points over a thread pool;
``riszf rate`` and the figure sweeps of :func:`reproduce` run serially.  A
row holds only the per-user arrays a point computes; :func:`_columns`, the
one list of the CSV columns, derives the sum and min columns from them, and
:func:`rows_text` renders every row, as CSV or JSON, for files and stdout.
CSV output is schema-versioned and byte-identical for identical seeds; a
``.manifest.json`` sidecar records everything needed to re-execute the run.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channel import PhaseShifts, decompose_grid
from .config import SystemConfig, default_profile
from .errors import ConfigError, NumericalError
from .optimizer import (align_phase, build_problem, fractional_objective, mm_optimize,
                        quantize_phase)
from .rate import (_DRAW_CHUNK, MonteCarloRate, _rates_from_snr, _substream, exact_rates_mc,
                   phase_independent_bound, phase_independent_snr, power_scaling_limit,
                   rate_lower_bound, required_antennas, upper_bound)

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
        if self.sweep_axis is None and len(self.sweep_values):
            raise ConfigError("sweep_values need a sweep_axis")
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ResultRow:
    """One evaluated sweep point: what the point computes, per user.

    ``error`` is empty on success, otherwise an error code
    (``invalid_config`` or ``numerical_failure``) and every numeric field is
    NaN.  A point whose rates, standard errors or bounds are not all finite
    is a ``numerical_failure``.  ``sum_rate_mc_se`` is the standard error of
    the per-trial sum rate, which the per-user standard errors do not give.
    The other sum and min columns of the CSV are derived from the per-user
    arrays by :func:`_columns`, and only there.
    """

    sweep_value: float
    error: str
    opt_iterations: int
    mc_rate: np.ndarray
    mc_se: np.ndarray
    sum_rate_mc_se: float
    lower_bound: np.ndarray
    floor_bound: np.ndarray
    ub: np.ndarray


def _nan_row(sweep_value, error, k) -> ResultRow:
    nan_vec = np.full(k, np.nan)
    return ResultRow(sweep_value, error, 0, nan_vec, nan_vec, np.nan, nan_vec, nan_vec, nan_vec)


def _heuristic_phase(config: SystemConfig, design: str, rng) -> PhaseShifts:
    """Phases of a heuristic design, cases 1-4 of :data:`PHASE_CASES`; alignment
    picks the nearest or farthest user by the config's ``user_ris_dist``."""
    if design == "case4_identity":
        return PhaseShifts.identity(config.N)
    if design == "case3_random":
        return PhaseShifts.random(config.N, rng)
    if config.user_ris_dist is None:
        raise ConfigError("alignment cases need a config with user_ris_dist metadata")
    nearest = design == "case1_align_nearest"
    return align_phase(config, int((np.argmin if nearest else np.argmax)(config.user_ris_dist)))


def resolve_phases(config: SystemConfig, designs, rng) -> list:
    """(phase, optimizer iters) of each design of :data:`PHASE_CASES`, sharing their work.

    Each heuristic phase (:func:`_heuristic_phase`, the random one from
    ``rng``) is built once.  The optimizer cases warm-start from the best of
    the four under their own objective, each scored once; monotonicity of
    the optimizer then guarantees they never fall below that heuristic.  The
    min-rate case also seeds from the sum-rate solution, case 5's own, run
    once for both, so its minimum rate dominates every other case of the
    same run.  Both run :func:`mm_optimize` with its default iteration cap
    and tolerance.  A design whose resolution raises :class:`NumericalError`
    gets that error in place of its pair; the others go on.
    """
    shared: dict = {}

    def once(key, build):
        # a build that raises is not stored: each design that needs it raises
        if key not in shared:
            shared[key] = build()
        return shared[key]

    def scored():
        # f_k = ln(1 + SNR_k) of the statistical-CSI lower bound, so these rank
        # candidates as the bound's sum and minimum rates do
        problem = build_problem(config)
        candidates = [resolve(case)[0] for case in PHASE_CASES[:4]]
        return problem, candidates, [fractional_objective(problem, ph.v) for ph in candidates]

    def best(candidates, values, reduce):
        return candidates[max(range(len(candidates)), key=lambda i: float(reduce(values[i])))]

    def max_sum():
        _, candidates, values = once("scored", scored)
        return mm_optimize(config, objective="sum", init=best(candidates, values, np.ndarray.sum))

    def resolve(design):
        if design in PHASE_CASES[:4]:
            return once(design, lambda: _heuristic_phase(config, design, rng)), 0
        sum_trace = once("max_sum", max_sum)
        if design == "case5_maxsum":
            return sum_trace.final_v, sum_trace.iterations
        problem, candidates, values = once("scored", scored)
        final = sum_trace.final_v
        trace = mm_optimize(config, objective="min", init=best(
            [*candidates, final], [*values, fractional_objective(problem, final.v)], np.ndarray.min))
        return trace.final_v, sum_trace.iterations + trace.iterations

    resolved = []
    for design in designs:
        try:
            resolved.append(resolve(design))
        except NumericalError as exc:
            resolved.append(exc)
    return resolved


def resolve_phase(config: SystemConfig, design: str, rng) -> tuple[PhaseShifts, int]:
    """Concrete phases for a design of :data:`PHASE_CASES`; returns (phase, optimizer iters).

    The one-design call of :func:`resolve_phases`.
    """
    (resolved,) = resolve_phases(config, [design], rng)
    if isinstance(resolved, NumericalError):
        raise resolved
    return resolved


def check_memory(config: SystemConfig, designs, quantized: bool = False,
                 draws: int = 0, trials: int = 0) -> int:
    """Estimated peak bytes of a point of ``designs``; :class:`ConfigError` if over physical memory.

    ``designs`` is one design of :data:`PHASE_CASES` or the several that
    share a point.  Counts 16-byte entries: 3 (K + 1)(L_x + L_y) for the
    per-axis LoS factors and their temporaries (a prime N has the 1 x N
    grid), and the N-vectors of the largest design at its peak: none for
    the separable alignment and identity phases, 3 for a random phase,
    K + 12 for the MM designs (G is K x N), 5 more on the ``bits`` axis, and
    one per further design for the phases the point holds at once.
    ``draws`` trials of M x K channel draws (:func:`riszf.rate.mc_draws`,
    ``riszf mse --validate``) add the M x K mean and, per trial of a chunk,
    5 M x K arrays: q, the pilot noise, the estimate, the error and the next
    draw under way.  ``trials`` kept results add K + 1 per trial and
    design: K float64 rates (or ``mse --validate`` error powers) with a
    temporary, and their sum with one.  1 MiB + 16 KiB K^2 covers the
    Monte-Carlo chunks of the K x K law.  Every sweep point, the ``bits``
    axis before it resolves its base phases, ``riszf optimize`` and ``riszf
    mse --validate`` call this before anything of size N, M or ``trials``
    is allocated.
    """
    designs = (designs,) if isinstance(designs, str) else tuple(designs)
    k = config.K
    lx, ly = decompose_grid(config.N)
    own = {"case3_random": 3, "case5_maxsum": k + 12, "case6_maxmin": k + 12}
    peak = max(own.get(design, 0) for design in designs)
    vectors = 5 * quantized + peak + len(designs) - 1
    mk_arrays = 1 + 5 * min(draws, _DRAW_CHUNK) if draws else 0
    need = (16 * (3 * (k + 1) * (lx + ly) + vectors * config.N + mk_arrays * config.M * k
                  + len(designs) * trials * (k + 1)) + 2**20 + 2**14 * k * k)
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # a platform without these
        return need
    if need > have:
        sizes = (f"N={config.N}" + (f", M={config.M}" if draws else "")
                 + (f", {trials} trials" if trials else ""))
        raise ConfigError(f"{sizes} under {', '.join(designs)} needs an estimated "
                          f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB "
                          f"of physical memory")
    return need


def _point_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])


def _design_row(config: SystemConfig, sweep_value: float, resolved, mc, floor_bound) -> ResultRow:
    """Row of one design of a point from its (phase, iters) and its MC result, else failed."""
    if isinstance(mc, MonteCarloRate):
        phase, opt_iters = resolved
        try:
            ub, lower_bound = upper_bound(config, phase)[0], rate_lower_bound(config, phase)
        except NumericalError:
            ub = lower_bound = np.nan
        # an overflow at an edge of scale (say 1/scale at p = 1e300) gives inf, not an error
        if all(np.all(np.isfinite(x)) for x in (mc.rates, mc.std_errors, mc.sum_rate_se,
                                                 lower_bound, floor_bound, ub)):
            return ResultRow(sweep_value=sweep_value, error="", opt_iterations=opt_iters,
                             mc_rate=mc.rates, mc_se=mc.std_errors,
                             sum_rate_mc_se=mc.sum_rate_se, lower_bound=lower_bound,
                             floor_bound=floor_bound, ub=ub)
    return _nan_row(sweep_value, "numerical_failure", config.K)


def _run_point(scenarios, config: SystemConfig | None, index: int, value,
               base_phases) -> list[ResultRow]:
    """Rows of the ``scenarios``' point ``index`` at ``value``, evaluated on ``config``.

    :func:`run_scenario` passes the point's one config (None when ``value``
    makes it invalid), so the designs share its per-config caches (LoS
    factors, statistics, design problem, ZF-law factors).  They also share
    one :func:`resolve_phases` (on the ``bits`` axis, the quantized
    ``base_phases`` instead), one :func:`riszf.rate.exact_rates_mc` over all
    their phases and one phase-independent bound.  A design whose phase,
    rates or bounds fail gets its own failed row; designs too large to hold
    at once run one at a time.
    """
    sweep_value = float(value) if value is not None else float("nan")

    def invalid():
        return [_nan_row(sweep_value, "invalid_config", scenarios[0].config.K)] * len(scenarios)

    if config is None:
        return invalid()
    first = scenarios[0]
    designs = [s.phase_design for s in scenarios]
    quantized = base_phases[0] is not None
    try:
        check_memory(config, designs, quantized, trials=first.trials)
    except ConfigError:
        if len(scenarios) == 1:
            return invalid()
        return [row for s, base in zip(scenarios, base_phases)
                for row in _run_point([s], config, index, value, [base])]
    if not quantized:
        resolved = resolve_phases(config, designs, _substream(first.seed, (index, 1)))
    else:
        try:
            # an invalid bit width is invalid for every design
            resolved = [(quantize_phase(base, value), 0) for base in base_phases]
        except ConfigError:
            return invalid()
    live = [j for j, r in enumerate(resolved) if not isinstance(r, NumericalError)]
    try:
        mcs = exact_rates_mc(config, [resolved[j][0] for j in live], first.trials,
                             _point_seed(first.seed, index))
        floor_bound, _ = phase_independent_bound(config)
    except NumericalError:
        mcs, floor_bound = [None] * len(live), None
    mc_of = dict(zip(live, mcs))
    return [_design_row(config, sweep_value, r, mc_of.get(j), floor_bound)
            for j, r in enumerate(resolved)]


def run_scenario(*scenarios: Scenario, max_workers: int | None = None) -> list[ResultRow]:
    """Evaluate every sweep point of one or more scenarios; rows grouped by scenario.

    The scenarios may differ only in ``phase_design``, else :class:`ConfigError`.
    Each point builds one config when it runs and evaluates every
    scenario's design on it in one shared point (:func:`_run_point`): one
    set of per-config caches, one phase resolution, one Monte-Carlo call
    over all the phases and one phase-independent bound.  The rows come in
    one list, each scenario's in sweep order, scenario after scenario.
    Unless ``max_workers`` is 1, points run on a thread pool of up to
    ``max_workers`` threads (default: min(4, points)).  Per-point seeds derive
    from (seed, point index), so no row depends on the workers or the other
    scenarios.
    """
    if len({(id(s.config), s.sweep_axis, s.sweep_values, s.trials, s.seed)
            for s in scenarios}) != 1:
        raise ConfigError("scenarios of one run may differ only in phase_design")
    first, axis = scenarios[0], scenarios[0].sweep_axis
    base_phases = [None] * len(scenarios)
    if axis == "bits":
        designs = [s.phase_design for s in scenarios]
        check_memory(first.config, designs)
        resolved = resolve_phases(first.config, designs, _substream(first.seed, (0, 1)))
        for r in resolved:
            if isinstance(r, NumericalError):
                raise r
        base_phases = [phase for phase, _ in resolved]

    def point(index, value):
        config = first.config
        if axis not in (None, "bits"):
            try:
                config = config.replace(**{axis: value})
            except ConfigError:
                config = None
        return _run_point(scenarios, config, index, value, base_phases)

    points = list(enumerate(first.sweep_values if axis else (None,)))
    workers = min(max_workers or 4, len(points))
    if workers <= 1:
        by_point = [point(i, v) for i, v in points]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            by_point = list(pool.map(point, *zip(*points)))
    return [rows[j] for j in range(len(scenarios)) for rows in by_point]


# --- persistence ------------------------------------------------------------

def _columns(row: ResultRow):
    """(name, value) of each schema-v1 column of one row, in order: the one list of the columns.

    The sum and min columns are formed here and nowhere else: the sums and
    minima of the row's per-user MC rates and lower bounds, and the MC
    standard error of the user with the smallest MC rate.
    """
    mc_rate, mc_se, lower_bound = row.mc_rate, row.mc_se, row.lower_bound
    yield from (("sweep_value", row.sweep_value), ("error", row.error),
                ("opt_iterations", row.opt_iterations))
    for j in range(mc_rate.size):
        yield from ((f"mc_rate_u{j + 1}", mc_rate[j]), (f"mc_se_u{j + 1}", mc_se[j]))
    for prefix, values in (("lower_bound", lower_bound), ("floor", row.floor_bound),
                           ("ub", row.ub)):
        yield from ((f"{prefix}_u{j}", value) for j, value in enumerate(values, 1))
    min_idx = int(np.argmin(mc_rate))
    yield from (("sum_rate_mc", float(mc_rate.sum())), ("sum_rate_mc_se", row.sum_rate_mc_se),
                ("min_rate_mc", mc_rate[min_idx]), ("min_rate_mc_se", mc_se[min_idx]),
                ("sum_rate_lb", lower_bound.sum()), ("min_rate_lb", lower_bound.min()))


def csv_header(k: int) -> list[str]:
    """Schema-v1 column names for K users."""
    return [name for name, _ in _columns(_nan_row(np.nan, "", k))]


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


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def row_values(row: ResultRow) -> list:
    """The schema-v1 values of one row, in :func:`csv_header` order."""
    return [value for _, value in _columns(row)]


def rows_text(rows: list[ResultRow], k: int, fmt: str = "csv") -> str:
    """Rows for K users as CSV text or, with ``fmt="json"``, as JSON objects (NaN as ``null``)."""
    header = csv_header(k)
    values = [row_values(row) for row in rows]
    if fmt == "csv":
        return csv_text(header, values)
    values = [[None if isinstance(x, float) and np.isnan(x) else x for x in v] for v in values]
    return json.dumps([dict(zip(header, v)) for v in values], indent=1) + "\n"


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
    _write_text(path, json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def manifest_path(out_path) -> str:
    return f"{out_path}.manifest.json"


def _write_outputs(path, text: str, scenario: Scenario, figure: str | None = None,
                   extra: dict | None = None) -> list[str]:
    """Write ``text`` to ``path``, then its manifest; returns both paths."""
    _write_text(path, text)
    write_manifest(manifest_path(path), scenario, figure=figure, extra=extra)
    return [str(path), manifest_path(path)]


def write_scenario_outputs(rows, scenario: Scenario, out_path, fmt: str = "csv",
                           figure: str | None = None) -> list[str]:
    return _write_outputs(out_path, rows_text(rows, scenario.config.K, fmt), scenario, figure)


# --- antenna-count inversion (trade-off curves) ------------------------------

def solve_antennas_for_snr(config: SystemConfig, C0: float, k: int) -> float:
    """Antenna count at which the phase-independent bound reaches SNR C0.

    Inverts the exact bound for user k with the config's N over a
    real-valued antenna count (delta forced to 0).  The bound's SNR is
    per_antenna (m - K), linear in the antenna count m, so the inverse is
    K + C0 / per_antenna.  Serves as the exact-bound counterpart of
    :func:`riszf.rate.required_antennas`.
    """
    cfg = config.replace(delta=0.0)
    snr_ref = float(phase_independent_snr(cfg)[0][k])
    per_antenna = snr_ref / (cfg.M - cfg.K)
    return cfg.K + C0 / per_antenna


# --- figure reproduction ------------------------------------------------------

#: (N values, phase designs) of each element-count figure.
_FIG_SWEEPS = {
    "fig2a": ((50, 100, 200, 400), ("case1_align_nearest", "case2_align_farthest")),
    "fig2b": ((50, 100, 200, 400), ("case2_align_farthest", "case3_random", "case4_identity")),
    "fig3a": ((64, 128, 256), ("case1_align_nearest", "case2_align_farthest", "case3_random",
                               "case5_maxsum")),
    "fig3b": ((64, 128, 256), ("case1_align_nearest", "case2_align_farthest", "case3_random",
                               "case5_maxsum", "case6_maxmin")),
}

FIGURE_IDS = (*_FIG_SWEEPS, "fig4a", "fig4b")


def reproduce(figure_id: str, out_dir, config: SystemConfig | None = None,
              trials: int = 2000, seed: int = 0) -> list[str]:
    """Write the sweep data underlying one of the reference experiments.

    ``fig2*``/``fig3*`` sweep the element count under the named phase-design
    cases (one CSV per case) in one serial :func:`run_scenario` call: the
    cases at each N share one config, with its LoS factors, statistics,
    design problem and ZF-law factors, and each CSV is byte-identical to
    ``run_scenario`` over that case alone.  ``fig4a`` tabulates the
    antenna/element trade-off at delta = 0 against the closed-form
    prediction; ``fig4b`` follows the power-scaling law p = 10/N toward its
    limit.  Each CSV gets a ``.manifest.json`` sidecar.  Default trial
    counts are desk-scale; raise ``trials`` for figure-faithful noise floors.
    """
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config is None:
        config = default_profile()
    written: list[str] = []

    if figure_id in _FIG_SWEEPS:
        n_values, cases = _FIG_SWEEPS[figure_id]
        scenarios = [Scenario(config=config, phase_design=case, sweep_axis="N",
                              sweep_values=n_values, trials=trials, seed=seed)
                     for case in cases]
        rows = run_scenario(*scenarios, max_workers=1)
        n = len(n_values)
        for j, scenario in enumerate(scenarios):
            path = out_dir / f"{figure_id}_{scenario.phase_design.split('_')[0]}.csv"
            written += write_scenario_outputs(rows[j * n:][:n], scenario, path, figure=figure_id)
        return written

    if figure_id == "fig4a":
        c0 = 10.0
        user = (int(np.argmax(config.user_ris_dist))
                if config.user_ris_dist is not None else config.K - 1)
        header = ["N", "C0", "user", "m_solved", "m_formula", "tradeoff_product"]
        rows = []
        for n in (16, 32, 64, 128, 256):
            cfg_n = config.replace(N=n, delta=0.0)
            m_solved = solve_antennas_for_snr(cfg_n, c0, user)
            m_formula = required_antennas(cfg_n, c0, user)
            gain = n * config.alpha[user] * config.beta + config.gamma[user]
            rows.append([n, c0, user, m_solved, m_formula, (m_solved - config.K) * gain])
        extra = {"C0": c0, "user": user}
    else:  # fig4b: power scaling p = 10/N at two antenna counts
        e_u = 10.0
        header = ["N", "M", "p_w", "rate_lb_avg", "rate_limit_avg", "rate_bound_avg"]
        rows = []
        for m in (32, 64):
            for n in (1000, 10_000, 100_000):
                cfg = config.replace(M=m, N=n, p=e_u / n)
                phase = PhaseShifts.identity(n)
                lb_avg = float(np.mean(rate_lower_bound(cfg, phase)))
                limit_snr, bound_snr = power_scaling_limit(cfg, phase, e_u)
                limit_avg = float(np.mean(_rates_from_snr(cfg, limit_snr)))
                bound_avg = float(np.mean(_rates_from_snr(cfg, bound_snr)))
                rows.append([n, m, e_u / n, lb_avg, limit_avg, bound_avg])
        extra = {"E_u": e_u}
    return _write_outputs(out_dir / f"{figure_id}.csv", csv_text(header, rows),
                          Scenario(config=config, trials=trials, seed=seed), figure_id,
                          {**extra, "columns": header})
