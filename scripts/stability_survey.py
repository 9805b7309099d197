#!/usr/bin/env python3
"""Random survey of the three stability routes: exact hull classification,
brute-force destabilizer scan, and Kempf-Ness minimization status.

Prints per-class counts, agreement, and timing.  Usage:

    python scripts/stability_survey.py --count 500 --seed 1 --rank-max 3
"""

import argparse
import time
from collections import Counter

import numpy as np

from torstab.kempf_ness import CONVERGED, KNProblem, kn_minimize
from torstab.stability import STABLE, classify, destabilizer_bruteforce
from torstab.torus_rep import RepVector, WeightLine


def random_rep(rng, rank_max, max_weights):
    rank = int(rng.integers(1, rank_max + 1))
    m = int(rng.integers(1, max_weights + 1))
    lines = tuple(
        WeightLine(f"l{i}", tuple(int(x) for x in rng.integers(-4, 5, size=rank)))
        for i in range(m)
    )
    amps = {ln.label: complex(rng.normal(), rng.normal()) for ln in lines}
    return RepVector(lines, amps)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rank-max", type=int, default=3)
    ap.add_argument("--max-weights", type=int, default=10)
    ap.add_argument("--box", type=int, default=50)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    counts = Counter()
    mismatches = 0
    t0 = time.monotonic()
    for _ in range(args.count):
        v = random_rep(rng, args.rank_max, args.max_weights)
        cls = classify(v)
        counts[cls.stability] += 1
        hull_stable = cls.stability == STABLE
        brute_stable = destabilizer_bruteforce(v, args.box) is None
        kn_stable = kn_minimize(KNProblem.from_vector(v), cls).status == CONVERGED
        if not (hull_stable == brute_stable == kn_stable):
            mismatches += 1
            print(f"MISMATCH: weights={sorted(v.effective_g_weights())}")
    dt = time.monotonic() - t0
    print(f"instances: {args.count}  time: {dt:.2f}s")
    for key in sorted(counts):
        print(f"  {key}: {counts[key]}")
    print(f"route disagreements: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
