"""Benchmark of `torstab run` on three seeded workloads.

    python3 torbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a torstab checkout; the program is imported from its
`src/` directory.  The command generates the workload's documents from the
seed, starts one fresh single-threaded worker process (worker.py) that runs
them through `torstab.cli.main` in interleaved passes for S seconds, checks
every output independently (checks.py), and prints as its last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones (setup_s, docs_per_s,
doc_p50_ms, doc_p90_ms, peak_rss_mb); with --trace 1 the worker carries the
per-layer wrappers of tracer.py and the metrics are the per-layer ones.
Details of each run go to torbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import probe
from tracer import metric_units

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

MIN_PASSES = {0: 3, 1: 1}  # a timed document's cost is a median over >= 3 passes
SETUP_STARTS = 3  # before the worker, and as many again after it
SETUP_PROBES = 40  # probe runs next to each start, for its slowdown factor
WORKER_TIMEOUT_S = 150
SETUP_CODE = "import torstab.cli as c; c.problem_validator()"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def setup_starts(env: dict) -> list[tuple[float, float]]:
    """(wall time, median probe time next to it) of fresh interpreter starts
    that import torstab and build the problem-schema validator, as every
    torstab invocation does."""
    out = []
    for _ in range(SETUP_STARTS):
        probes = [probe.probe_s() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        out.append((time.perf_counter() - t0, statistics.median(probes)))
    return out


def setup_cost(starts) -> float:
    """Median start time at the probe's nominal speed."""
    return statistics.median(t * probe.NOMINAL_S / p for t, p in starts)


def write_documents(workload: str, seed: int, workdir: Path) -> list[dict]:
    entries = []
    for d in gen.GENERATORS[workload](seed):
        path = workdir / f"{d.name}.json"
        path.write_text(json.dumps(d.doc, sort_keys=True, indent=1))
        entries.append({"name": d.name, "path": str(path), "argv": list(d.argv),
                        "ladder": d.ladder})
    return entries


def run_worker(manifest: dict, workdir: Path, env: dict) -> dict:
    mpath, rpath = workdir / "manifest.json", workdir / "result.json"
    mpath.write_text(json.dumps(manifest))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(mpath), str(rpath)],
                   env=env, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(rpath.read_text())


def end_to_end(res: dict, setup_s: float) -> dict:
    cost = sorted(res["cost_s"].values())
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "docs_per_s": {"value": len(cost) / sum(cost), "unit": "1/s"},
        "doc_p50_ms": {"value": statistics.median(cost) * 1e3, "unit": "ms"},
        "doc_p90_ms": {"value": statistics.quantiles(cost, n=10)[-1] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "torstab" / "cli.py").is_file():
        print(f"torbench: no torstab sources under {SRC}; run from the root of "
              "a torstab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = worker_env()
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        docs = write_documents(args.workload, args.seed, workdir)
        starts = [] if args.trace else setup_starts(env)
        manifest = {"docs": docs, "seconds": args.seconds, "trace": bool(args.trace),
                    "min_passes": MIN_PASSES[args.trace]}
        res = run_worker(manifest, workdir, env)
        if not args.trace:
            # starts on both sides of the worker, so a slow spell of the
            # machine during one of them does not set the figure
            starts += setup_starts(env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in metric_units().items()}
    else:
        metrics = end_to_end(res, setup_cost(starts))
        res["setup_starts"] = starts
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    detail = dict(res, workload=args.workload, seed=args.seed, metrics=metrics)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    for u in res["unexpected"]:
        print(f"torbench: {u['doc']}: {'; '.join(u['errors'])}", file=sys.stderr)
    print(f"{args.workload}: {len(docs)} documents x {res['passes']} passes, "
          f"{res['attempted']} attempted, {res['failed']} failed "
          f"({len(res['unexpected'])} unexpected); passes took "
          f"{min(res['pass_s']):.3f}-{max(res['pass_s']):.3f} s")
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
