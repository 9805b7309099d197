"""One workload in one fresh process: run every document through the public
CLI entry `torstab.cli.main(["run", "--input", path, ...])` in interleaved
passes, then check the captured outputs.

    python3 worker.py MANIFEST RESULT

MANIFEST (written by run.py) lists the documents and the run settings;
RESULT receives the measurements as JSON.  Timed passes run with no
wrappers and time the probe before every document; with "trace" set,
tracer.Tracer is installed first, the probe is skipped and each pass yields
one per-layer tally.  Checks run after the last pass, outside every timed
region, once per distinct output.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time

import checks
import probe


def run_passes(docs, seconds: float, min_passes: int, tracer=None):
    """Interleaved passes while another pass of the last pass's length fits
    in `seconds` (at least `min_passes`).  Timed passes run the probe before
    every document.  Returns each document's time in every pass, the mean
    probe time of every pass, the distinct outputs of each document with
    their counts, pass wall times and, when tracing, per-pass tallies."""
    from torstab import cli

    times = [[] for _ in docs]
    outputs = [dict() for _ in docs]
    probe_means, pass_s, tallies = [], [], []
    start = time.perf_counter()
    while len(pass_s) < min_passes or (
            time.perf_counter() - start + pass_s[-1] <= seconds):
        if tracer is not None:
            tracer.reset()
        probes = []
        t_pass = time.perf_counter()
        for i, d in enumerate(docs):
            if tracer is None:
                probes.append(probe.probe_s())
            argv = ["run", "--input", d["path"], *d["argv"]]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                code = cli.main(argv)
                dt = time.perf_counter() - t0
            times[i].append(dt)
            key = (code, buf.getvalue())
            outputs[i][key] = outputs[i].get(key, 0) + 1
        pass_s.append(time.perf_counter() - t_pass)
        if probes:
            probe_means.append(statistics.fmean(probes))
        if tracer is not None:
            tallies.append((tracer.snapshot(), tracer.edge_list()))
    return times, probe_means, outputs, pass_s, tallies


def document_costs(times, probe_means) -> list[float]:
    """Each document's median over passes of its time at the probe's nominal
    speed: the time divided by the pass's slowdown factor."""
    factors = [m / probe.NOMINAL_S for m in probe_means]
    return [statistics.median(t / f for t, f in zip(ts, factors)) for ts in times]


def check_all(docs, outputs):
    """(attempted, failed, unexpected failures) over every run document."""
    attempted = failed = 0
    unexpected = []
    for d, outs in zip(docs, outputs):
        with open(d["path"]) as fh:
            doc = json.load(fh)
        for (code, text), n in outs.items():
            attempted += n
            errs = checks.check_output(doc, text, code, ladder=d["ladder"] is not None)
            if errs:
                failed += n
                if d["ladder"] is None:
                    unexpected.append({"doc": d["name"], "errors": errs})
    return attempted, failed, unexpected


def main(manifest_path: str, result_path: str) -> int:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    docs = manifest["docs"]
    tracer = None
    if manifest["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    times, probe_means, outputs, pass_s, tallies = run_passes(
        docs, manifest["seconds"], manifest["min_passes"], tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, unexpected = check_all(docs, outputs)
    result = {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "probe_mean_s": probe_means,
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "peak_rss_mb": peak_rss_mb,
        "times_s": {d["name"]: ts for d, ts in zip(docs, times)},
    }
    if probe_means:
        result["cost_s"] = {d["name"]: c
                            for d, c in zip(docs, document_costs(times, probe_means))}
    if tallies:
        first, edges = tallies[0]
        per_layer = dict(first)
        for name in first:
            if name.endswith(".self_ms"):
                per_layer[name] = statistics.median(t[0][name] for t in tallies)
        result["per_layer"] = per_layer
        result["edges"] = edges
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
