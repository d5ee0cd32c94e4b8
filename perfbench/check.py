"""Check a command's result rows against the reference recorded at seed 0.

Outputs are the CSV files the CLI writes; a reference maps each file name
to its rows (``{column: value}``).  The rules, per row:

* ``error`` is empty and the row's sweep value is the reference's.
* ``floor_*`` (phase independent) match to :data:`CLOSED_RTOL` relative,
  and the bound chain floor <= lower bound <= upper bound holds.
* For the fixed-phase cases (:data:`FIXED_PHASE`) every closed-form column
  matches to :data:`CLOSED_RTOL`, and each user's MC rate agrees with the
  reference within :data:`Z_MAX` combined standard errors.
* ``case5`` ``sum_rate_lb`` and ``case6`` ``min_rate_lb`` are checked one
  sided: at least the reference minus :data:`DESIGN_RTOL` of it, and at
  least the best heuristic case (1 to 4) of the same output at the same N.
  A better optimizer passes.

Only the standard library is used, so run.py never imports numpy.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

CLOSED_RTOL = 1e-12
Z_MAX = 6.0
#: The min-rate MM stops at a seed-dependent point: over seeds 0..259 the
#: case6 min_rate_lb of the reference code falls up to 10.0% below its
#: seed-0 value (N = 64), so allow 15%.  The heuristic floor stays exact.
DESIGN_RTOL = 0.15
CHAIN_RTOL = 1e-10
FIXED_PHASE = ("case1", "case2", "case4")
HEURISTIC = ("case1", "case2", "case3", "case4")
DESIGN_COLUMN = {"case5": "sum_rate_lb", "case6": "min_rate_lb"}


def read_outputs(out_dir) -> dict[str, list[dict]]:
    """Every CSV under ``out_dir``, as rows of floats (``error`` kept as text)."""
    files = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            files[path.name] = [
                {key: (value if key == "error" else float(value)) for key, value in row.items()}
                for row in csv.DictReader(fh)]
    return files


def case_of(file_name: str) -> str:
    """``fig3b_case5.csv`` -> ``case5``."""
    return Path(file_name).stem.rsplit("_", 1)[-1]


def _columns(row: dict, prefix: str) -> list[str]:
    return [key for key in row if key.startswith(prefix)]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_row(row: dict, ref: dict, case: str, best_heuristic: float | None) -> list[str]:
    """Problems found in one row; empty when it passes."""
    if row["error"]:
        return [f"error {row['error']!r}"]
    if row["sweep_value"] != ref["sweep_value"]:
        return [f"sweep value {row['sweep_value']} != {ref['sweep_value']}"]
    problems = []
    closed = _columns(ref, "floor_u")
    if case in FIXED_PHASE:
        closed += _columns(ref, "lower_bound_u") + _columns(ref, "ub_u")
        closed += ["sum_rate_lb", "min_rate_lb"]
    for col in closed:
        if not _rel(row[col], ref[col]) <= CLOSED_RTOL:
            problems.append(f"{col} {row[col]!r} != {ref[col]!r}")
    for user in range(1, len(_columns(ref, "floor_u")) + 1):
        floor, lb, ub = (row[f"{p}_u{user}"] for p in ("floor", "lower_bound", "ub"))
        if not (floor <= lb * (1 + CHAIN_RTOL) and lb <= ub * (1 + CHAIN_RTOL)):
            problems.append(f"user {user}: bound chain {floor} <= {lb} <= {ub} broken")
        if case in FIXED_PHASE:
            mc, se = row[f"mc_rate_u{user}"], row[f"mc_se_u{user}"]
            ref_mc, ref_se = ref[f"mc_rate_u{user}"], ref[f"mc_se_u{user}"]
            z = abs(mc - ref_mc) / math.sqrt(se**2 + ref_se**2) if se > 0 else math.inf
            if not z <= Z_MAX:
                problems.append(f"user {user}: MC rate {mc} vs {ref_mc}, |z| = {z:.2f}")
    col = DESIGN_COLUMN.get(case)
    if col is not None:
        if not row[col] >= ref[col] * (1 - DESIGN_RTOL):
            problems.append(f"{col} {row[col]} below reference {ref[col]}")
        if best_heuristic is not None and not row[col] >= best_heuristic * (1 - CHAIN_RTOL):
            problems.append(f"{col} {row[col]} below best heuristic {best_heuristic}")
    return problems


def check_outputs(files: dict[str, list[dict]],
                  reference: dict[str, list[dict]]) -> tuple[int, list[str]]:
    """(failed rows, problem lines) of one command's outputs.

    A reference row with no matching output row counts as failed.
    """
    failed, problems = 0, []
    for name, ref_rows in reference.items():
        rows = files.get(name, [])
        case = case_of(name)
        col = DESIGN_COLUMN.get(case)
        for i, ref in enumerate(ref_rows):
            if i >= len(rows):
                failed += 1
                problems.append(f"{name} row {i}: missing")
                continue
            best = None
            if col is not None:
                peers = [r[col] for other, other_rows in files.items()
                         if case_of(other) in HEURISTIC
                         for r in other_rows if r["sweep_value"] == ref["sweep_value"]]
                best = max(peers, default=None)
            row_problems = check_row(rows[i], ref, case, best)
            if row_problems:
                failed += 1
                problems += [f"{name} row {i}: {p}" for p in row_problems]
    return failed, problems
