"""Outside-in tracing of riszf's public functions, and per-layer aggregation.

:func:`install` wraps each function in :data:`TRACED` and rebinds the
wrapper under every ``riszf`` module attribute that held the original, so a
call through ``riszf.harness.exact_rate_mc`` is traced exactly like one
through ``riszf.rate.exact_rate_mc``.  No file of the package changes.

Each call becomes a span: name, start and end (``perf_counter``), thread CPU
time, thread id, parent span and attributes (``N``, ``M``, ``trials`` and
counts read from the return value).  Spans stay in memory and are written
as one JSON file by :meth:`Tracer.dump` when the run ends.  A span that
starts on a worker thread with no open span of its own names the open
``harness.run_scenario`` span as its parent.

:func:`layer_metrics` turns a span list into the per-layer metrics; it needs
neither numpy nor riszf, so run.py imports this module too.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

#: Traced functions as ``<module>.<function>`` below the ``riszf`` package.
TRACED = (
    "channel.build_los", "channel.sample_channels", "estimation.compute_statistics",
    "rate.exact_rate_mc", "rate.rate_lower_bound", "rate.phase_independent_bound",
    "rate.upper_bound", "optimizer.build_problem", "optimizer.mm_optimize",
    "optimizer.align_phase", "harness.run_scenario", "harness.resolve_phase",
    "harness.write_scenario_outputs", "cli.main",
)

SPAN_STATS = (("calls", "count", "lower"), ("wall_s", "s", "lower"),
              ("self_s", "s", "lower"), ("cpu_s", "s", "lower"), ("wait_s", "s", "lower"))

#: Metrics derived from return values: (name, unit, better).
DERIVED = (
    ("rate.mc_trial_ms", "ms", "lower"),
    ("rate.singular_retries", "count", "lower"),
    ("optimizer.mm_iterations", "count", "lower"),
    ("optimizer.mm_backtracks", "count", "lower"),
    ("optimizer.mm_iter_ms", "ms", "lower"),
    ("optimizer.mm_converged_frac", "ratio", "higher"),
    ("optimizer.problem_mb", "MB", "lower"),
    ("harness.points", "count", "higher"),
    ("harness.points_failed", "count", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, in print order."""
    specs = [(f"{fn}.{stat}", unit, better)
             for fn in TRACED for stat, unit, better in SPAN_STATS]
    return specs + list(DERIVED)


def _config_of(args, kwargs):
    """The SystemConfig a call works on, found in its arguments."""
    for value in (*args, *kwargs.values()):
        if hasattr(value, "config") and hasattr(value.config, "N"):
            return value.config
        if hasattr(value, "N") and hasattr(value, "M") and hasattr(value, "K"):
            return value
    return None


def _call_attrs(args, kwargs) -> dict:
    attrs = {}
    config = _config_of(args, kwargs)
    if config is not None:
        attrs["N"], attrs["M"] = int(config.N), int(config.M)
    for value in (*args, *kwargs.values()):
        trials = getattr(value, "trials", None)
        if isinstance(trials, int):
            attrs["trials"] = trials
    return attrs


def _result_attrs(name: str, result) -> dict:
    """Counts read from a traced function's return value."""
    if name == "rate.exact_rate_mc":
        return {"trials": int(result.trials), "singular_retries": int(result.singular_retries)}
    if name == "optimizer.mm_optimize":
        return {"iterations": int(result.iterations),
                "backtracks": int(sum(b for _, _, b in result.iterates)),
                "converged": bool(result.converged)}
    if name == "optimizer.build_problem":
        return {"problem_bytes": int(sum(a.nbytes for a in (
            result.num_mat, result.den_mats, result.los_rows, result.spectral_bounds)))}
    if name == "harness.run_scenario":
        return {"points": len(result), "points_failed": sum(1 for r in result if r.error)}
    return {}


class Tracer:
    """In-memory span recorder shared by all threads of one process."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._open_scenario: int | None = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else self._open_scenario
            outer_scenario = self._open_scenario
            if name == "harness.run_scenario":
                self._open_scenario = span_id
            attrs = _call_attrs(args, kwargs)
            stack.append(span_id)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                attrs.update(_result_attrs(name, result))
                return result
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                if name == "harness.run_scenario":
                    self._open_scenario = outer_scenario
                span = {"id": span_id, "parent": parent, "name": name,
                        "thread": threading.get_ident(),
                        "start": start - self.origin, "end": end - self.origin,
                        "cpu": cpu, "attrs": attrs}
                with self._lock:
                    self.spans.append(span)
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def install() -> Tracer:
    """Wrap every function in :data:`TRACED` in all loaded riszf modules."""
    import riszf.cli  # noqa: F401  (loads every module that holds a traced name)

    recorder = Tracer()
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "riszf" or key.startswith("riszf."))]
    for qualified in TRACED:
        module_name, func_name = qualified.split(".")
        original = getattr(sys.modules[f"riszf.{module_name}"], func_name)
        wrapper = recorder.wrap(qualified, original)
        for module in modules:
            if getattr(module, func_name, None) is original:
                setattr(module, func_name, wrapper)
    return recorder


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Aggregate spans into the values named by :func:`metric_specs`."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {f"{fn}.{stat}": 0.0 for fn in TRACED for stat, _, _ in SPAN_STATS}
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        name = span["name"]
        by_name.setdefault(name, []).append(span)
        wall = span["end"] - span["start"]
        out[f"{name}.calls"] += 1
        out[f"{name}.wall_s"] += wall
        out[f"{name}.self_s"] += wall - _covered(children.get(span["id"], []),
                                                 span["start"], span["end"])
        out[f"{name}.cpu_s"] += span["cpu"]
        out[f"{name}.wait_s"] += wall - span["cpu"]

    def total(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, []))

    def ratio(num, den):
        return num / den if den else 0.0

    mm_runs = by_name.get("optimizer.mm_optimize", [])
    out["rate.mc_trial_ms"] = ratio(1e3 * out["rate.exact_rate_mc.wall_s"],
                                    total("rate.exact_rate_mc", "trials"))
    out["rate.singular_retries"] = total("rate.exact_rate_mc", "singular_retries")
    out["optimizer.mm_iterations"] = total("optimizer.mm_optimize", "iterations")
    out["optimizer.mm_backtracks"] = total("optimizer.mm_optimize", "backtracks")
    out["optimizer.mm_iter_ms"] = ratio(1e3 * out["optimizer.mm_optimize.wall_s"],
                                        out["optimizer.mm_iterations"])
    out["optimizer.mm_converged_frac"] = ratio(
        sum(1 for s in mm_runs if s["attrs"].get("converged")), len(mm_runs))
    out["optimizer.problem_mb"] = max(
        (s["attrs"].get("problem_bytes", 0) for s in by_name.get("optimizer.build_problem", [])),
        default=0) / 1e6
    out["harness.points"] = total("harness.run_scenario", "points")
    out["harness.points_failed"] = total("harness.run_scenario", "points_failed")
    return out
