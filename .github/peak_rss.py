"""Run one riszf command, then check its peak RSS and the one row it writes.

Usage: python3 .github/peak_rss.py LIMIT_MB CSV COMMAND [ARG ...]

COMMAND must exit 0, its peak resident set size (``ru_maxrss`` of the
children) must stay below LIMIT_MB, and the CSV file it writes must hold
exactly one row, whose ``error`` column is empty.  Exits 1 otherwise.
"""

import csv
import resource
import subprocess
import sys


def main(limit_mb: str, csv_path: str, *command: str) -> int:
    subprocess.run(command, check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.0f} MB")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        errors = [row["error"] for row in csv.DictReader(fh)]
    print(f"row errors: {errors}")
    return 0 if peak < float(limit_mb) and errors == [""] else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
