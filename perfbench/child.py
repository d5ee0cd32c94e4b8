"""One benchmark child process: put ``src/`` on the path and run the riszf CLI.

    python3 perfbench/child.py --import-only
    python3 perfbench/child.py --serve [--trace]

``--import-only`` stops after ``import riszf.cli`` (the set-up measurement).

``--serve`` imports ``riszf.cli`` once, then runs one CLI command per line
read from stdin, a JSON object ``{"argv": [...], "spans": FILE or null}``,
calling ``riszf.cli.main`` in this process.  After each command it writes
one JSON line to the stdout it was started with::

    {"returncode": 0, "wall_s": ..., "cpu_s": ..., "peak_rss_mb": ...}

``cpu_s`` is the user plus system time of all threads during the command;
``peak_rss_mb`` is the process's maximum RSS so far.  What the CLI prints is
discarded; its stderr passes through.  It stops at end of input.  With
``--trace`` the public functions are traced (see ``tracer.py``) and each
command's spans are written to its ``spans`` file.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def serve(trace: bool) -> int:
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    sys.stdout = os.fdopen(devnull, "w", encoding="utf-8")
    import riszf.cli

    recorder = None
    if trace:
        import tracer
        recorder = tracer.install()
    for line in sys.stdin:
        request = json.loads(line)
        if recorder is not None:
            recorder.spans.clear()
        start, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = riszf.cli.main(request["argv"])
        except Exception:  # a crash, reported as the interpreter's exit code
            traceback.print_exc()
            code = 1
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        if recorder is not None and request.get("spans"):
            recorder.dump(request["spans"])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sys.stderr.flush()
        replies.write(json.dumps({"returncode": code, "wall_s": wall, "cpu_s": cpu,
                                  "peak_rss_mb": peak}) + "\n")
        replies.flush()
    return 0


def main(argv: list[str]) -> int:
    if argv == ["--import-only"]:
        import riszf.cli  # noqa: F401
        return 0
    if argv in (["--serve"], ["--serve", "--trace"]):
        return serve(trace="--trace" in argv)
    print("usage: child.py --import-only | --serve [--trace]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
