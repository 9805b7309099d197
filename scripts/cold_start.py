#!/usr/bin/env python3
"""Cold-start wall time of `torstab` calls, per call and source tree.

    python3 scripts/cold_start.py [--count N] [--src PATH ...]

Each case is one fresh interpreter that imports `torstab.cli` and makes one
`torstab.cli.main` call: none (the import alone), `validate` on a golden
problem, `validate` on a golden report, which as a problem is rejected with
its error list (exit 2), and `run` on one golden problem of each kind.
These are the calls whose loaded modules `tests/test_imports.py` pins.
Each `--src` is a directory holding a `torstab` package (default: this
checkout's `src/`); the golden problems are this checkout's.  The starts
of one round alternate over the cases and the trees, in reverse order on
every other round, so a slow spell of the machine falls on all of them
alike.  Each start is timed around a `subprocess.run` that waits for the
process without polling, under one BLAS thread and PYTHONHASHSEED=0.  Each
start must exit with its case's code.  For each case and tree the script
prints the first quartile, the median and the third quartile of N starts,
in ms.  Whether the interpreter writes bytecode (PYTHONDONTWRITEBYTECODE)
is inherited and printed: without it every start compiles the modules it
imports.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
CODE = "import sys, torstab.cli; sys.exit(torstab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0)"
# case: (command, golden file, exit code) or None for the import alone
CASES = {
    "import": None,
    "validate": ("validate", "stability-0.problem.json", 0),
    "rejected": ("validate", "stability-0.report.json", 2),
    "stability": ("run", "stability-0.problem.json", 0),
    "kempf-ness": ("run", "kempf-ness-0.problem.json", 0),
    "stratify": ("run", "stratify-0.problem.json", 0),
    "shb": ("run", "shb-0.problem.json", 0),
    "kuranishi": ("run", "kuranishi-0.problem.json", 0),
}


def call_argv(call) -> list[str]:
    if call is None:
        return []
    command, golden, _ = call
    return [command, "--input", str(GOLDEN / golden)]


def exit_code(call) -> int:
    return 0 if call is None else call[2]


def start_s(src: Path, call) -> float:
    """Wall time of one fresh interpreter making the call, which must exit
    with the case's code."""
    env = dict(os.environ, PYTHONPATH=str(src), **ENV)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CODE, *call_argv(call)], env=env,
                          stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    if proc.returncode != exit_code(call):
        raise SystemExit(f"{call_argv(call)} under {src} exited {proc.returncode}, "
                         f"not {exit_code(call)}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--count", type=int, default=11, help="starts per case and tree (>= 2)")
    ap.add_argument("--src", nargs="+", type=Path, default=[ROOT / "src"],
                    help="directories holding a torstab package")
    args = ap.parse_args(argv)
    if args.count < 2:
        ap.error("--count must be >= 2, for quartiles")
    for src in args.src:
        if not (src / "torstab" / "cli.py").is_file():
            ap.error(f"no torstab package under {src}")

    runs = [(case, src) for case in CASES for src in args.src]
    times: dict = {run: [] for run in runs}
    for i in range(args.count):
        for case, src in runs if i % 2 == 0 else reversed(runs):
            times[case, src].append(start_s(src, CASES[case]))

    bytecode = "no" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "yes"
    print(f"python {sys.version.split()[0]}, bytecode written: {bytecode}, "
          f"{args.count} starts per case and tree; q1 / median / q3 in ms")
    width = max(len(str(src)) for src in args.src)
    for case, src in runs:
        q1, med, q3 = (1e3 * q for q in statistics.quantiles(times[case, src], n=4,
                                                             method="inclusive"))
        print(f"{case:<11} {str(src):<{width}} {q1:7.1f} {med:7.1f} {q3:7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
