"""Golden-report gate: `torstab run` on a fixed corpus must keep its output.

`tests/golden/<kind>-<seed>.problem.json` is `torstab gen --kind <kind>
--seed <seed>` for all five kinds and seeds 0-9, and the matching
`.report.json` is what `torstab run --input <problem>` printed for it when
the corpus was recorded.  A few hand-written problems, EXTRA_CASES, named
`edge-<kind>-...` so that no glob for a kind's generated goldens picks them
up, pin behaviour the generator does not reach; their reports are recorded
the same way.  Reports are compared after parsing, so their
layout does not count: the recorded ones are indented, and a re-recorded one
is a single compact line.  Strings, ints, bools, nulls and the shape of the
JSON must match exactly; JSON floats must match to a relative 1e-9.  Floats
that are roundoff residuals (gradient norms, round-trip residuals near
1e-15) vary with the BLAS build, so floats also pass within an absolute
1e-12.

A change that alters golden output on purpose records why and re-records
the corpus with:

    for k in stability kempf-ness stratify shb kuranishi; do
      for s in 0 1 2 3 4 5 6 7 8 9; do
        p=tests/golden/$k-$s.problem.json
        torstab gen --kind $k --seed $s --out $p
        torstab run --input $p > tests/golden/$k-$s.report.json
      done
    done
"""

import contextlib
import copy
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torstab.cli import main, run_document, validate_document

GOLDEN = Path(__file__).parent / "golden"
KINDS = ("stability", "kempf-ness", "stratify", "shb", "kuranishi")
# an amplitude too large for a float (refused, exit 2); a rank-4 document
# whose box bound of 50 is scanned only to its witness bound 2; two
# Kempf-Ness minimizers, ln 4 / 4 next to a zero-weight line of norm 1e30,
# and ln(2e-12 / 3e18) / 10 for weights 3, -2 with norms 30 decades apart;
# and a two-stage stratification whose line e has amplitude 0, which every
# stage still lists among its rescaled amplitudes, as 0
EXTRA_CASES = ["edge-stability-int-overflow", "edge-stability-rank-4-box-50",
               "edge-kempf-ness-zero-weight-line", "edge-kempf-ness-spread-norms",
               "edge-stratify-zero-amplitude"]
# one refusal (exit 2) per check that a document reaches past the schema:
# rho on some lines only, a brute-force box over the point cap and one whose
# pairings overflow 64 bits, a dependent and an unsaturated subtorus, a
# chain whose first degree is negative, d1 d0 != 0, a bracket that is not
# symmetric, an input at grade 0, and the all-zero Kempf-Ness vector
EXTRA_CASES += ["edge-stability-mixed-rho", "edge-kempf-ness-mixed-rho",
                "edge-stability-box-cap", "edge-stability-box-overflow",
                "edge-stratify-dependent-subtorus", "edge-stratify-unsaturated-subtorus",
                "edge-shb-chain-degrees", "edge-kuranishi-d1d0-nonzero",
                "edge-kuranishi-asymmetric-bracket", "edge-kuranishi-grade-0-input",
                "edge-kempf-ness-zero-vector"]
CASES = [f"{kind}-{seed}" for kind in KINDS for seed in range(10)] + EXTRA_CASES


def mismatches(want, got, path="$"):
    """Where got differs from want: exact for everything but floats."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-12):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(want) is not type(got):
        return [f"{path}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{path}[{i}]")]
    return [] if want == got else [f"{path}: {got!r} != {want!r}"]


def test_golden_corpus_is_complete():
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert names == sorted(f"{c}.{part}.json" for c in CASES for part in ("problem", "report"))


@pytest.mark.parametrize("case", CASES)
def test_golden_report(case, capsys):
    want = json.loads((GOLDEN / f"{case}.report.json").read_text())
    code = main(["run", "--input", str(GOLDEN / f"{case}.problem.json")])
    got = json.loads(capsys.readouterr().out)
    assert code == (0 if want["status"] == "ok" else 2)
    assert mismatches(want, got) == []


def non_native(value, path="$"):
    """Where value holds anything whose exact type is not one that json
    decodes to, such as a tuple, a numpy scalar or a key that is not a str."""
    if type(value) is dict:
        keys = [f"{path}: key {k!r}" for k in value if type(k) is not str]
        return keys + [m for k, v in value.items() for m in non_native(v, f"{path}.{k}")]
    if type(value) is list:
        return [m for i, v in enumerate(value) for m in non_native(v, f"{path}[{i}]")]
    if type(value) in (str, int, float, bool, type(None)):
        return []
    return [f"{path}: {type(value).__name__}"]


def test_reports_hold_only_json_types():
    # the goldens compare parsed JSON, which cannot tell a tuple from a list
    # or a numpy float from a float; --format text and library callers can
    found = []
    for case in CASES:  # every golden problem validates
        doc = validate_document((GOLDEN / f"{case}.problem.json").read_text())
        report, _ = run_document(doc)
        found += [f"{case} {m}" for m in non_native(report)]
    assert found == []


def test_non_native_finds_each_foreign_type():
    import numpy as np

    report = {"a": [1, 2.5, "x", None, True, {"b": []}]}
    assert non_native(report) == []
    report = {"a": (1, 2), 1: "k", "b": [np.float64(1.0)], "c": Fraction(1, 2)}
    assert non_native(report) == ["$: key 1", "$.a: tuple", "$.b[0]: float64", "$.c: Fraction"]


def test_mismatches_is_exact_except_floats():
    assert mismatches({"a": [1, "x", None, True]}, {"a": [1, "x", None, True]}) == []
    assert mismatches({"a": 1}, {"a": 1.0}) != []
    assert mismatches({"a": 1}, {"a": 2}) != []
    assert mismatches({"a": True}, {"a": 1}) != []
    assert mismatches({"a": "1/2"}, {"a": "2/4"}) != []
    assert mismatches([1, 2], [1, 2, 3]) != []
    assert mismatches({"a": 1}, {"b": 1}) != []
    assert mismatches(1.0, 1.0 + 1e-12) == []
    assert mismatches(1.0, 1.0 + 1e-8) != []
    assert mismatches(1e-17, 3e-17) == []


# ---------------------------------------------------------------------------
# single-field mutations: whatever one field of a golden problem becomes,
# the document is run or refused (exit 0 or 2), never an internal error

DELETE = object()  # the mutation that drops the field
MUTANTS = [DELETE, None, True, False, 0, 1, -1, 2, 7, 2**31, 2**63, -(2**63),
           0.5, -2.5, 1e300, "", "a", [], [0], {}]


def field_paths(node, path=()):
    """The path of every key and list entry below node."""
    if isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (k,)
            yield from field_paths(v, path + (k,))


PROBLEMS = [json.loads((GOLDEN / f"{case}.problem.json").read_text()) for case in CASES]
MUTATIONS = st.sampled_from(PROBLEMS).flatmap(lambda doc: st.tuples(
    st.just(doc), st.sampled_from(list(field_paths(doc))), st.sampled_from(MUTANTS)))


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "doc.json"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(MUTATIONS)
def test_single_field_mutations_of_the_goldens_never_exit_1(mutant_path, mutation):
    doc, path, value = mutation
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    mutant_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--input", str(mutant_path)])
    assert code in (0, 2), (path, value, err.getvalue())
