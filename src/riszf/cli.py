"""Command-line interface.

Subcommands: ``rate`` (one-shot rate report), ``mse`` (estimation
statistics), ``optimize`` (phase-shift design), ``sweep`` (parameter sweep),
``reproduce`` (reference-experiment data).  Exit codes: 0 success, 2 invalid
configuration or usage, 3 numerical failure.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from .channel import PhaseShifts, aggregated_mean
from .config import default_profile, parse_config_file
from .errors import ConfigError, NumericalError
from .estimation import compute_statistics, shrink_estimate
from .harness import (FIGURE_IDS, PHASE_CASES, SWEEP_AXES, Scenario, check_memory, reproduce,
                      rows_text, run_scenario, write_scenario_outputs)
from .optimizer import mm_optimize
from .rate import _mean_and_se, exact_rate_mc, mc_draws


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Flat key-value config file (default: bundled profile).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output file (figures: output directory). Prints to stdout if omitted.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.pass_context
def cli(ctx, config_path, seed, trials, out_path, fmt):
    """Uplink RIS-aided massive MIMO lab: rates, estimation MSE, phase design."""
    ctx.ensure_object(dict)
    ctx.obj["config"] = (parse_config_file(config_path) if config_path
                         else default_profile())
    ctx.obj["seed"] = seed
    ctx.obj["trials"] = trials
    ctx.obj["out"] = out_path
    ctx.obj["fmt"] = fmt


def _emit_rows(ctx, rows, scenario):
    out, fmt = ctx.obj["out"], ctx.obj["fmt"]
    if out is None:
        click.echo(rows_text(rows, scenario.config.K, fmt), nl=False)
        return
    for p in write_scenario_outputs(rows, scenario, out, fmt=fmt):
        click.echo(p)


def _emit_json(ctx, payload):
    text = json.dumps(payload, indent=1)
    if ctx.obj["out"] is None:
        click.echo(text)
    else:
        with open(ctx.obj["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        click.echo(ctx.obj["out"])


@cli.command()
@click.option("--case", type=click.Choice(PHASE_CASES), default="case4_identity",
              show_default=True, help="Phase-shift design.")
@click.pass_context
def rate(ctx, case):
    """Evaluate Monte-Carlo rate and closed-form bounds at one operating point."""
    scenario = Scenario(config=ctx.obj["config"], phase_design=case,
                        trials=ctx.obj["trials"], seed=ctx.obj["seed"])
    rows = run_scenario(scenario)
    _emit_rows(ctx, rows, scenario)


@cli.command()
@click.option("--validate/--no-validate", default=False,
              help="Also measure the empirical error power by Monte Carlo.")
@click.pass_context
def mse(ctx, validate):
    """Report per-user estimation statistics (shrinkage, error power)."""
    config = ctx.obj["config"]
    stats = compute_statistics(config)
    payload = {
        "kappa": stats.kappa.tolist(),
        "epsilon": stats.epsilon.tolist(),
        "mse_per_user": (config.M * stats.epsilon).tolist(),
    }
    if validate:
        trials = ctx.obj["trials"]
        check_memory(config, "case4_identity", draws=trials, trials=trials)
        mean = aggregated_mean(config, PhaseShifts.identity(config.N))
        err_power = np.concatenate([
            np.sum(np.abs(shrink_estimate(q, pilot_noise, mean, stats.kappa)[1]) ** 2, axis=1)
            for _, q, pilot_noise in mc_draws(config, mean, trials, ctx.obj["seed"])
        ]) / config.M
        epsilon, epsilon_se = _mean_and_se(err_power)
        payload["epsilon_empirical"] = epsilon.tolist()
        payload["epsilon_empirical_se"] = epsilon_se.tolist()
        payload["trials"] = trials
    _emit_json(ctx, payload)


@cli.command()
@click.option("--objective", type=click.Choice(["sum", "min"]), default="sum",
              show_default=True)
@click.option("--max-iter", type=int, default=500, show_default=True)
@click.option("--rel-tol", type=float, default=1e-6, show_default=True)
@click.pass_context
def optimize(ctx, objective, max_iter, rel_tol):
    """Design RIS phases for the sum-rate or min-rate objective."""
    config = ctx.obj["config"]
    check_memory(config, "case5_maxsum" if objective == "sum" else "case6_maxmin",
                 trials=ctx.obj["trials"])
    trace = mm_optimize(config, objective=objective, max_iter=max_iter, rel_tol=rel_tol)
    final = trace.final_v
    mc = exact_rate_mc(config, final, ctx.obj["trials"], ctx.obj["seed"])
    payload = {
        "objective": objective,
        "converged": trace.converged,
        "stop_rule": trace.stop_rule,
        "grad_norm": trace.grad_norm,
        "iterations": trace.iterations,
        "curvature_doublings": trace.curvature_doublings,
        "objective_trace": [{"iteration": i, "value": val, "backtracks": b}
                            for i, val, b in trace.iterates],
        "final_theta": final.theta.tolist(),
        "mc_rate": mc.rates.tolist(),
        "mc_rate_se": mc.std_errors.tolist(),
        "sum_rate": mc.sum_rate,
        "min_rate": float(mc.rates.min()),
    }
    _emit_json(ctx, payload)


@cli.command()
@click.option("--axis", type=click.Choice(SWEEP_AXES), required=True)
@click.option("--values", required=True,
              help="Comma-separated, strictly increasing sweep values.")
@click.option("--case", type=click.Choice(PHASE_CASES), default="case4_identity",
              show_default=True)
@click.pass_context
def sweep(ctx, axis, values, case):
    """Sweep one axis and emit one result row per point."""
    try:
        parsed = tuple(float(tok) for tok in values.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep values {values!r}") from exc
    scenario = Scenario(config=ctx.obj["config"], phase_design=case, sweep_axis=axis,
                        sweep_values=parsed, trials=ctx.obj["trials"],
                        seed=ctx.obj["seed"])
    rows = run_scenario(scenario)
    _emit_rows(ctx, rows, scenario)


@cli.command("reproduce")
@click.argument("figure_id", type=click.Choice(list(FIGURE_IDS)))
@click.pass_context
def reproduce_cmd(ctx, figure_id):
    """Write the sweep data underlying one reference experiment."""
    out_dir = ctx.obj["out"] or "."
    paths = reproduce(figure_id, out_dir, config=ctx.obj["config"],
                      trials=ctx.obj["trials"], seed=ctx.obj["seed"])
    for p in paths:
        click.echo(p)


def main(argv=None):
    """Entry point with the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False, obj={})
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 2
    except ConfigError as exc:
        click.echo(f"invalid config: {exc}", err=True)
        return 2
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
