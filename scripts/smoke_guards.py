#!/usr/bin/env python3
"""Check the final line of a traced torbench run against the smoke guards.

    python3 torbench/run.py --workload W --seed 1 --seconds 1 --trace 1 |
        tail -n 1 | python3 scripts/smoke_guards.py W

On every workload the outputs must check correct with no failed document.
The other guards bound a work counter per call on one workload each:
counter <= bound * per.  Prints each failed guard by name, with its
figures, and exits 1; exits 0 when every guard holds.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

# per workload: (name, counter, bound, per); each guard's reason is above it
GUARDS = {
    "stratify-ladder": [
        # the balanced start is the minimizer on a simplex
        ("newton_iterations", "kempf_ness.kn_minimize.iterations", 2, "kempf_ness.kn_minimize.calls"),
        # each stage's projection is classified by stratify itself
        ("classify_calls", "stability.classify.calls", Fraction(1, 4), "stratify.stratify.calls"),
        # a Smith form runs only for a nontrivial kernel
        ("smith_forms", "qexact.smith_normal_form.calls", Fraction(1, 10), "stratify.stratify.calls"),
        # each stage searches its face only among the entry LP's tight columns
        ("face_lps", "simplex.solve_lp.calls", Fraction(6, 5), "stratify.stratify.calls"),
    ],
    "stability-routes": [
        # Unstable needs no separating LP
        ("separating_lps", "simplex.solve_lp_mixed.calls", Fraction(1, 4), "stability.classify.calls"),
        # each LP is posed in its smallest standard form
        ("tableau_cells", "simplex.solve_lp.tableau_cells", 30, "simplex.solve_lp.calls"),
    ],
    "hodge-systems": [
        # the automorphism torus is one saturated kernel and one saturation
        # check, solved once per abelian document
        ("torus_smith_forms", "qexact.smith_normal_form.calls", 2,
         "shb_model.positive_slice_lines.calls"),
    ],
}


def failures(workload: str, record: dict) -> list[str]:
    """One line per guard of the workload that the record fails."""
    out = []
    if record["correct"] is not True:
        out.append(f"correct: {record['correct']}")
    if record["failed"] != 0:
        out.append(f"failed: {record['failed']} documents")
    metrics = record["metrics"]
    for name, counter, bound, per in GUARDS.get(workload, ()):
        a, b = (Fraction(metrics[k]["value"]) for k in (counter, per))
        if not a <= bound * b:
            out.append(f"{name}: {counter} = {a} > {bound} * {per} = {bound * b}")
    return out


def main(argv: list[str]) -> int:
    workload = argv[1]
    failed = failures(workload, json.loads(sys.stdin.read()))
    for line in failed:
        print(f"{workload}: guard failed: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
