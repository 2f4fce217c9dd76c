#!/usr/bin/env python3
"""Time the heavy CLI commands at fixed sizes and write a BENCH_*.json.

Each command runs five times in a fresh interpreter, with the package
imported from `<root>/src`, and the median is kept with its quartiles.
Per command it records the wall time of the whole process (interpreter
start included), the time of the child's `from shufflesc.cli import main`
(`import_s`: the package's set-up, compiling its source when no bytecode
is cached), the time of the `main(...)` call alone (`main_s`: parsing, the
work and the output, without the interpreter's start and imports), the
child's own peak RSS (VmHWM: `ru_maxrss` would carry the parent's resident
set across exec) and the sha256 of stdout.  The file also records the
Python version, the core count and the commit of each root.

With several roots (say a checkout of the parent commit and the working
tree) the runs alternate between them, in the given order on even runs
and reversed on odd ones, so a drift of the host's speed, and the cost of
going first, fall on both sides alike.

Example:
    python scripts/bench_sizes.py --root ../parent --root . > BENCH_33.json
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

COMMANDS = [
    ["--format", "json", "sc", "3", "3"],
    ["sc", "3", "4"],
    ["--force", "sc", "3", "5"],
    ["--force", "sc", "2", "8"],
    ["--force", "sc", "4", "4"],
    ["--force", "sc", "3", "6"],
    ["--force", "sc", "4", "5"],
    ["--format", "json", "reach", "3", "4"],
    ["--force", "reach", "4", "4"],
    ["--force", "conjecture", "4", "4"],
    ["--format", "json", "conjecture", "3", "4", "--depth-limit", "2"],
    ["--format", "json", "graded", "5", "3"],
    ["--format", "json", "graded", "6", "3"],
    ["graded", "6", "3"],
    ["graded", "6", "3", "--count"],
    ["succ", "7", "5", "2", "--oracle"],
    ["series", "64"],
    ["--format", "json", "series", "64"],
    ["matrix", "200"],
    ["matrix", "12", "--power", "400"],
]
RUNS = 5
CHILD_TAG = "@@child "
# run in the child: the CLI, then its own peak RSS in KiB, the seconds of
# the main call and the seconds of the import on stderr
CHILD = f"""
import sys, time
t0 = time.perf_counter()
from shufflesc.cli import main
import_s = time.perf_counter() - t0
t0 = time.perf_counter()
code = main(sys.argv[1:])
sys.stdout.flush()
main_s = time.perf_counter() - t0
with open("/proc/self/status") as status:
    hwm = next((l.split()[1] for l in status if l.startswith("VmHWM:")), "0")
print({CHILD_TAG!r} + hwm, main_s, import_s, file=sys.stderr)
sys.exit(code)
"""


def measure(argv, src):
    """Run `shufflesc argv` in a fresh interpreter importing from `src`;
    return its exit code, wall seconds, seconds of the import and of the
    main call, peak RSS in MiB and stdout sha256."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, env=env, timeout=3600
    )
    wall = time.perf_counter() - t0
    tags = [l for l in proc.stderr.decode().splitlines() if l.startswith(CHILD_TAG)]
    hwm, main_s, import_s = tags[-1][len(CHILD_TAG):].split() if tags else (0, 0, 0)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "import_s": float(import_s),
        "main_s": float(main_s),
        "peak_rss_mib": int(hwm) / 1024,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
    }


def commit_of(root):
    """HEAD of the checkout at `root`, with "-dirty" if it has changes."""
    proc = subprocess.run(
        ["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=40"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--root", action="append", type=Path,
                        help="checkout to measure; repeat for several (default: this one)")
    args = parser.parse_args()
    roots = args.root or [Path(__file__).resolve().parent.parent]

    runs = {(i, j): [] for i in range(len(roots)) for j in range(len(COMMANDS))}
    order = list(enumerate(roots))
    for run in range(RUNS):
        for j, argv in enumerate(COMMANDS):
            for i, root in order[::-1] if run % 2 else order:
                runs[i, j].append(measure(argv, root.resolve() / "src"))
                print(f"{' '.join(argv)} [{i}] {runs[i, j][-1]['wall_s']:.3f} s", file=sys.stderr)

    def quartiles(values, digits):
        q1, _, q3 = quantiles(values, n=4)
        return [round(q1, digits), round(q3, digits)]

    def summary(records):
        return {
            "exit": sorted({r["exit"] for r in records}),
            "wall_s": round(median(r["wall_s"] for r in records), 4),
            "wall_s_quartiles": quartiles([r["wall_s"] for r in records], 4),
            "import_s": round(median(r["import_s"] for r in records), 5),
            "import_s_quartiles": quartiles([r["import_s"] for r in records], 5),
            "main_s": round(median(r["main_s"] for r in records), 5),
            "main_s_quartiles": quartiles([r["main_s"] for r in records], 5),
            "peak_rss_mib": round(median(r["peak_rss_mib"] for r in records), 1),
            "stdout_sha256": sorted({r["stdout_sha256"] for r in records}),
            "wall_s_runs": [round(r["wall_s"], 4) for r in records],
            "import_s_runs": [round(r["import_s"], 5) for r in records],
            "main_s_runs": [round(r["main_s"], 5) for r in records],
        }

    report = {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cores": os.cpu_count(),
        "runs": RUNS,
        "sides": [
            {
                "commit": commit_of(root),
                "commands": {" ".join(argv): summary(runs[i, j]) for j, argv in enumerate(COMMANDS)},
            }
            for i, root in enumerate(roots)
        ],
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
