import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "smoke_guards.py"

# each guard's counters at its limit: counter = bound * per
AT_LIMIT = {
    "stratify-ladder": {
        "kempf_ness.kn_minimize.iterations": 20, "kempf_ness.kn_minimize.calls": 10,
        "stratify.stratify.calls": 100, "stability.classify.calls": 25,
        "qexact.smith_normal_form.calls": 10, "simplex.solve_lp.calls": 120,
    },
    "stability-routes": {
        "stability.classify.calls": 100, "simplex.solve_lp_mixed.calls": 25,
        "simplex.solve_lp.calls": 10, "simplex.solve_lp.tableau_cells": 300,
    },
    "hodge-systems": {
        "qexact.smith_normal_form.calls": 40, "shb_model.positive_slice_lines.calls": 20,
    },
}
# the counter each guard bounds, by the name the script prints
BOUNDED = {
    "newton_iterations": ("stratify-ladder", "kempf_ness.kn_minimize.iterations"),
    "classify_calls": ("stratify-ladder", "stability.classify.calls"),
    "smith_forms": ("stratify-ladder", "qexact.smith_normal_form.calls"),
    "face_lps": ("stratify-ladder", "simplex.solve_lp.calls"),
    "separating_lps": ("stability-routes", "simplex.solve_lp_mixed.calls"),
    "tableau_cells": ("stability-routes", "simplex.solve_lp.tableau_cells"),
    "torus_smith_forms": ("hodge-systems", "qexact.smith_normal_form.calls"),
}


def guards(workload, counters, correct=True, failed=0):
    record = {"correct": correct, "failed": failed,
              "metrics": {k: {"value": v} for k, v in counters.items()}}
    proc = subprocess.run([sys.executable, str(SCRIPT), workload], input=json.dumps(record),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", sorted(AT_LIMIT))
def test_every_guard_holds_at_its_limit(workload):
    assert guards(workload, AT_LIMIT[workload]) == (0, "")


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_one_past_the_limit_fails_that_guard_alone(name):
    workload, counter = BOUNDED[name]
    counters = {**AT_LIMIT[workload], counter: AT_LIMIT[workload][counter] + 1}
    code, out = guards(workload, counters)
    assert code == 1
    assert [line.split(":")[2].strip() for line in out.splitlines()] == [name]


def test_an_incorrect_or_failed_run_fails_on_every_workload():
    for workload, counters in AT_LIMIT.items():
        code, out = guards(workload, counters, correct=False, failed=2)
        assert code == 1
        assert out.splitlines() == [f"{workload}: guard failed: correct: False",
                                    f"{workload}: guard failed: failed: 2 documents"]
