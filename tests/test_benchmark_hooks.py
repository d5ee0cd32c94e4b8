"""The names and attributes that the benchmark's tracer (perfbench/tracer.py) reads.

The tracer looks functions up by name and sums attributes of their return
values, so a rename in the package breaks a traced run but no other test.
"""

import importlib
import inspect
import types
from pathlib import Path

import riszf
from riszf.channel import PhaseShifts
from riszf.harness import Scenario, run_scenario
from riszf.optimizer import build_problem, mm_optimize
from riszf.rate import exact_rate_mc

from conftest import toy_config

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    # executed from source, so that no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"),
         module.__dict__)
    return module


def test_traced_names_are_package_functions():
    tracer = _tracer()
    for qualified in tracer.TRACED:
        module_name, func_name = qualified.split(".")
        module = importlib.import_module(f"riszf.{module_name}")
        assert inspect.isfunction(getattr(module, func_name, None)), qualified


def test_traced_results_have_the_attributes_the_tracer_reads():
    tracer = _tracer()
    cfg = toy_config()
    problem = build_problem(cfg)
    attrs = tracer._result_attrs("optimizer.build_problem", problem)
    assert attrs["problem_bytes"] > 0
    for name in ("num_mat", "den_mats", "los_rows", "spectral_bounds"):
        assert getattr(problem, name).nbytes > 0, name
    attrs = tracer._result_attrs("optimizer.mm_optimize", mm_optimize(cfg, max_iter=3))
    assert attrs["iterations"] >= 1 and attrs["backtracks"] >= 0
    attrs = tracer._result_attrs("rate.exact_rate_mc",
                                 exact_rate_mc(cfg, PhaseShifts.identity(cfg.N), 4, 0))
    assert attrs == {"trials": 4, "singular_retries": 0}
    rows = run_scenario(Scenario(config=cfg, trials=4))
    assert tracer._result_attrs("harness.run_scenario", rows) == {"points": 1,
                                                                  "points_failed": 0}


def test_public_names_resolve():
    for name in riszf.__all__:
        assert hasattr(riszf, name), name
