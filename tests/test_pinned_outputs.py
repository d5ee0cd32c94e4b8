"""Pinned outputs: every figure of ``riszf reproduce`` at 50 trials, seeds 0 and 1.

``tests/data/pinned/seed<S>/`` holds the 16 CSVs that
``riszf --trials 50 --seed S reproduce <figure>`` writes for fig2a to fig4b
(manifests left out), and ``environment.json`` the numpy version, BLAS and
SIMD extensions they were made with.  Under that numpy and BLAS every file
must come back byte for byte.  Under another build the MM designs may round
to other iterates, so the test then checks only what holds across builds.
A change that means to change numbers regenerates the files with those
commands and says why.
"""

import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

from riszf.harness import _FIG_SWEEPS, FIGURE_IDS, reproduce

PINNED = Path(__file__).parent / "data" / "pinned"
CHECK_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
RTOL = 1e-12
Z_MAX = 4.0


def _check():
    # executed from source, so that no bytecode cache is written next to it
    module = types.ModuleType("perfbench_check")
    exec(compile(CHECK_PATH.read_text(encoding="utf-8"), str(CHECK_PATH), "exec"),
         module.__dict__)
    return module


def _environment() -> dict:
    """What makes the outputs bit-reproducible: numpy, its BLAS and the SIMD it found."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 prints its config only
        return {}
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            "simd": config["SIMD Extensions"]}


def _problems(check, name: str, rows: list[dict], pinned: list[dict]) -> list[str]:
    """Columns of one file that moved beyond what another numpy or BLAS build explains."""
    case = check.case_of(name)
    problems = []
    for i, (row, pin) in enumerate(zip(rows, pinned)):
        if name.startswith("fig4"):
            closed = list(pin)
        else:
            closed = [col for col in pin if col.startswith("floor_u")]
            if case in check.HEURISTIC:  # case 3's phase is seeded
                closed += [col for col in pin if col.startswith(("lower_bound_u", "ub_u"))]
                closed += ["sum_rate_lb", "min_rate_lb"]
        problems += [f"{name} row {i}: {col} {row[col]!r} != {pin[col]!r}" for col in closed
                     if not abs(row[col] - pin[col]) <= RTOL * abs(pin[col])]
        if case in check.FIXED_PHASE:
            for col in (col for col in pin if col.startswith("mc_rate_u")):
                se = f"mc_se_u{col[len('mc_rate_u'):]}"
                z = abs(row[col] - pin[col]) / math.sqrt(row[se] ** 2 + pin[se] ** 2)
                if not z <= Z_MAX:
                    problems.append(f"{name} row {i}: {col} |z| = {z:.2f}")
    return problems


@pytest.mark.parametrize("seed", [0, 1])
def test_reproduce_matches_the_pinned_outputs(tmp_path, seed):
    for figure in FIGURE_IDS:
        reproduce(figure, tmp_path, trials=50, seed=seed)
    pinned_dir = PINNED / f"seed{seed}"
    names = sorted(path.name for path in pinned_dir.glob("*.csv"))
    assert len(names) == 16
    assert sorted(path.name for path in tmp_path.glob("*.csv")) == names
    if _environment() == json.loads((PINNED / "environment.json").read_text(encoding="utf-8")):
        for name in names:
            assert (tmp_path / name).read_bytes() == (pinned_dir / name).read_bytes(), name

    check = _check()
    new, pinned = check.read_outputs(tmp_path), check.read_outputs(pinned_dir)
    problems = []
    for name in names:
        assert len(new[name]) == len(pinned[name]) and new[name][0].keys() == pinned[name][0].keys()
        problems += _problems(check, name, new[name], pinned[name])
    # the designed cases one sided, against the pin and the best heuristic of the
    # same figure, with floors and the bound chain, as the benchmark checks them
    for figure in _FIG_SWEEPS:
        of_figure = {name: new[name] for name in names if name.startswith(f"{figure}_")}
        problems += check.check_outputs(
            of_figure, {name: pinned[name] for name in of_figure})[1]
    assert not problems, problems
