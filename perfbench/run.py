"""riszf benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload mc_N400 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 1   # every workload, every metric
    python3 perfbench/run.py --record                              # rewrite the references
    python3 perfbench/selftest.py                                  # self-tests of this script

Each run starts one child process (``child.py --serve``) that puts ``src/``
on the path, imports ``riszf.cli`` once and then calls ``riszf.cli.main``
for each command it is sent.  One closed-loop caller sends one command at a
time until ``--seconds`` have passed (at least one command).  Timing inside
the child leaves interpreter start-up out of the command times; start-up
is ``setup_s``.  The child's BLAS thread variables are fixed
(:data:`BLAS_ENV`) so that both sides of a comparison run the same
configuration.

``--trace 0`` reports the end-to-end metrics: median wall time and CPU
time of a command, the peak RSS of the child after its first command (one
command in a fresh interpreter, as a CLI user runs it), and ``setup_s``,
the median time of :data:`SETUP_REPS` fresh interpreters that only
``import riszf.cli``.  ``--trace 1`` runs a second, traced child and sends
commands to the two in turn; it reports the per-layer metrics of
``tracer.py`` (medians over the traced commands), plus
``trace.overhead_s``, the traced minus the untraced median wall time.

Each command's CSV rows are checked against ``reference/<workload>.json``
(recorded at seed 0, see ``check.py``).  ``attempted`` and ``failed`` count
rows; a command that exits nonzero fails every row.  The last stdout line
is the JSON result; the full record, with the machine description, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 3
#: Every run ends within this many seconds; a command still running is killed.
RUN_LIMIT_S = 170.0
REFERENCE_SEED = 0

END_TO_END = (("wall_s", "s", "lower"), ("cpu_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"), ("setup_s", "s", "lower"))
PER_LAYER = [*tracer.metric_specs(), ("trace.overhead_s", "s", "lower")]


@dataclass(frozen=True)
class Workload:
    trials: int
    command: tuple[str, ...]
    #: File name for ``--out`` when the command writes one file, not a directory.
    out_file: str | None = None

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        out = out_dir / self.out_file if self.out_file else out_dir
        return ["--seed", str(seed), "--trials", str(self.trials), "--out", str(out),
                *self.command]


WORKLOADS = {
    "mc_N400": Workload(1000, ("sweep", "--axis", "N", "--values", "400",
                               "--case", "case2_align_farthest"), "sweep_case2.csv"),
    "design_fig3b": Workload(50, ("reproduce", "fig3b")),
    "mc_largeN": Workload(20, ("sweep", "--axis", "N", "--values", "4096,16384,65536",
                               "--case", "case1_align_nearest"), "sweep_case1.csv"),
}


@dataclass
class Sample:
    """One CLI command: its exit code, wall/CPU time and the child's peak RSS."""

    returncode: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    stderr: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


def child_env() -> dict[str, str]:
    return {**os.environ, **BLAS_ENV}


def import_time(timeout: float) -> float:
    """Wall time of a fresh interpreter that only imports ``riszf.cli``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(CHILD), "--import-only"], env=child_env(),
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   timeout=max(timeout, 1.0), check=True)
    return time.perf_counter() - start


class Child:
    """A ``child.py --serve`` process that runs one CLI command at a time.

    Use it as a context manager: leaving the block ends the process and
    waits for it, whatever the path out.
    """

    def __init__(self, trace: bool = False):
        self._stderr = tempfile.TemporaryFile(dir=WORK)
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), "--serve", *(["--trace"] if trace else [])],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True)

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, argv: list[str], timeout: float, spans_path: Path | None = None) -> Sample:
        """Run one command; the process is killed if it takes over ``timeout`` s."""
        mark = os.fstat(self._stderr.fileno()).st_size
        killer = threading.Timer(max(timeout, 1.0), self.proc.kill)
        killer.start()
        try:
            request = {"argv": argv, "spans": str(spans_path) if spans_path else None}
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            reply = self.proc.stdout.readline()
        except OSError:
            reply = ""
        finally:
            killer.cancel()
        sample = Sample(**json.loads(reply)) if reply else Sample(returncode=self.exit_code())
        self._stderr.seek(mark)
        sample.stderr = self._stderr.read().decode(errors="replace")
        return sample

    def exit_code(self) -> int:
        """The exit code of a child that stopped replying."""
        try:
            return self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()

    def alive(self) -> bool:
        return self.proc.poll() is None

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def load_reference(name: str) -> dict[str, list[dict]]:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["files"]


def run_command(child: Child, workload: Workload, seed: int, reference: dict,
                deadline: float, spans_path: Path | None = None) -> Sample:
    """One CLI command, its outputs checked against ``reference``."""
    out_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        sample = child.run(workload.argv(seed, out_dir), deadline - time.perf_counter(),
                           spans_path)
        sample.attempted = sum(len(rows) for rows in reference.values())
        if sample.returncode != 0:
            sample.failed = sample.attempted
            sample.problems = [f"exit code {sample.returncode}: {sample.stderr.strip()[-500:]}"]
        else:
            sample.failed, sample.problems = check.check_outputs(
                check.read_outputs(out_dir), reference)
        if spans_path and sample.returncode == 0:
            with open(spans_path, encoding="utf-8") as fh:
                sample.layers = tracer.layer_metrics(json.load(fh)["spans"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() or None


_PROBE = """
import json, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def environment(load_at_start: tuple[float, float, float]) -> dict:
    """Machine and library description recorded with every result."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=child_env(),
                           capture_output=True, text=True, timeout=60, check=False)
    libs = json.loads(probe.stdout) if probe.returncode == 0 else {"probe_error": probe.stderr}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": platform.python_version(), **libs,
            "child_blas_env": BLAS_ENV, "git_commit": _git_commit(),
            "loadavg_at_start": load_at_start}


def _median(values):
    return statistics.median(values) if values else 0.0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record (``result`` is the printed line)."""
    workload = WORKLOADS[name]
    reference = load_reference(name)
    load = os.getloadavg()
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    setup, samples, traced = [], [], []
    if not trace:
        setup = [import_time(deadline - time.perf_counter()) for _ in range(SETUP_REPS)]
    spans_path = WORK / f"spans-{name}-seed{seed}.json"
    with contextlib.ExitStack() as stack:
        plain = stack.enter_context(Child())
        tracing = stack.enter_context(Child(trace=True)) if trace else None
        begin = time.perf_counter()
        while not samples or time.perf_counter() - begin < seconds:
            samples.append(run_command(plain, workload, seed, reference, deadline))
            if tracing is not None:
                traced.append(run_command(tracing, workload, seed, reference, deadline,
                                          spans_path))
            if not plain.alive() or (tracing is not None and not tracing.alive()):
                break

    everything = samples + traced
    attempted = sum(s.attempted for s in everything)
    failed = sum(s.failed for s in everything)
    if trace:
        layers = [s.layers for s in traced if s.layers is not None]
        values = {key: _median([layer[key] for layer in layers])
                  for key, _, _ in tracer.metric_specs()}
        values["trace.overhead_s"] = (_median([s.wall_s for s in traced])
                                      - _median([s.wall_s for s in samples]))
        specs = PER_LAYER
    else:
        values = {"wall_s": _median([s.wall_s for s in samples]),
                  "cpu_s": _median([s.cpu_s for s in samples]),
                  "peak_rss_mb": samples[0].peak_rss_mb,
                  "setup_s": _median(setup)}
        specs = END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": values[key], "unit": unit} for key, unit, _ in specs}}
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(load), "commands": len(samples), "traced_commands": len(traced),
            "failed_frac": failed / attempted if attempted else 1.0,
            "walls_s": [s.wall_s for s in samples], "traced_walls_s": [s.wall_s for s in traced],
            "setup_walls_s": setup, "problems": [p for s in everything for p in s.problems][:100],
            "result": result}


def record_reference(name: str) -> Path:
    """Run ``name`` once at the reference seed and store its rows."""
    out_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        with Child() as child:
            sample = child.run(WORKLOADS[name].argv(REFERENCE_SEED, out_dir), RUN_LIMIT_S)
        if sample.returncode != 0:
            raise SystemExit(f"{name}: exit code {sample.returncode}\n{sample.stderr}")
        files = check.read_outputs(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    path = REFERENCE_DIR / f"{name}.json"
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": REFERENCE_SEED,
                   "argv": WORKLOADS[name].argv(REFERENCE_SEED, Path("OUT")),
                   "files": files}, fh, indent=1)
        fh.write("\n")
    return path


def _print_record(record: dict) -> None:
    name = record["workload"]
    print(f"# {name} seed={record['seed']} commands={record['commands']} "
          f"traced_commands={record['traced_commands']}")
    for key, metric in record["result"]["metrics"].items():
        print(f"{name}  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{name}  failed_frac = {record['failed_frac']:.6g} ratio")
    for problem in record["problems"][:20]:
        print(f"# problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference/<workload>.json at seed 0 and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riszf" / "cli.py").is_file():
        print(f"no riszf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload in (None, "all") else [args.workload]
    if args.record:
        for name in names:
            print(record_reference(name))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    records = []
    for name in names:
        record = run(name, args.seed, args.seconds, bool(args.trace))
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        _print_record(record)
        records.append(record)
    print("# environment " + json.dumps(records[0]["environment"]))
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
