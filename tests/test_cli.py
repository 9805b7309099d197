import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torstab.cli as cli
import torstab.stability as stability
from torstab.cli import (
    MAX_NESTING,
    _load_schema,
    generate_instance,
    main,
    render_text,
    run_document,
    validate_document,
)
from torstab.errors import InternalError, TorstabError, ValidationError
from torstab.graded_kuranishi import MAX_COMPLEX_DIM, MAX_COMPLEX_GRADES
from torstab.polytope import OUTSIDE

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


@lru_cache(maxsize=1)
def report_validator():
    """The tests' report oracle, report.schema.json."""
    from jsonschema import Draft202012Validator

    return Draft202012Validator(_load_schema("report.schema.json"))


def stability_doc():
    return {
        "schema_version": "1",
        "kind": "stability",
        "payload": {
            "rank": 1,
            "lines": [
                {"label": "a", "weight": [1]},
                {"label": "b", "weight": [-1]},
            ],
            "amplitudes": {"a": 1.0, "b": [0.0, 1.0]},
        },
    }


def stratify_doc():
    return {
        "schema_version": "1",
        "kind": "stratify",
        "payload": {
            "rank": 1,
            "lines": [
                {"label": "a", "weight": [1], "rho": 1},
                {"label": "b", "weight": [-1], "rho": 2},
            ],
            "amplitudes": {"a": 1.0, "b": 1.0},
        },
    }


def shb_doc():
    return {
        "schema_version": "1",
        "kind": "shb",
        "payload": {
            "genus": 2,
            "blocks": [
                {"ranks": [1], "degrees": [0], "tag": "L1"},
                {"ranks": [1], "degrees": [0], "tag": "L2"},
            ],
        },
    }


# ---------------------------------------------------------------------------
# validation


def test_validate_minimal_stability_spec():
    doc = validate_document(json.dumps(stability_doc()))
    assert doc["kind"] == "stability"


def test_validate_reports_parse_position():
    with pytest.raises(ValidationError) as exc:
        validate_document("{\n  broken\n}")
    assert "line 2" in exc.value.errors[0]


def test_validate_weight_dimension_mismatch_names_line():
    doc = stability_doc()
    doc["payload"]["lines"][1]["weight"] = [1, 2]
    with pytest.raises(ValidationError) as exc:
        validate_document(json.dumps(doc))
    assert any("'b'" in e and "rank" in e for e in exc.value.errors)


def test_validate_stratify_rho_zero_rejected():
    doc = stratify_doc()
    doc["payload"]["lines"][0]["rho"] = 0
    with pytest.raises(ValidationError) as exc:
        validate_document(json.dumps(doc))
    assert any("rho must be >= 1" in e for e in exc.value.errors)


def test_validate_collects_all_errors():
    doc = stratify_doc()
    doc["payload"]["lines"][0]["rho"] = 0
    doc["payload"]["lines"][1]["weight"] = [1, 2]
    doc["payload"]["amplitudes"]["zzz"] = 1.0
    with pytest.raises(ValidationError) as exc:
        validate_document(json.dumps(doc))
    assert len(exc.value.errors) >= 3


# ---------------------------------------------------------------------------
# run


def test_kinds_are_listed_once():
    # the schema's kinds are the dispatch table's, in order, and each names
    # a layer that writes its report
    assert _load_schema("problem.schema.json")["properties"]["kind"]["enum"] == list(cli.KINDS)
    for module in cli.KINDS.values():
        assert callable(importlib.import_module(f"torstab.{module}").report), module


def test_run_stability_report():
    report, code = run_document(stability_doc())
    assert code == 0
    assert report["status"] == "ok"
    assert report["report"]["class"] == "Stable"
    comb = report["report"]["certificate"]["combination"]
    assert comb == ["1/2", "1/2"]
    report_validator().validate(report)


def test_run_worked_stratification():
    report, code = run_document(stratify_doc())
    assert code == 0
    body = report["report"]
    assert body["x"] == [1]
    assert body["sigma"] == 2
    assert body["d_ladder"] == [3]
    assert body["verification"]["all_ok"]
    assert body["stages"][0]["c"] == "3/2"
    report_validator().validate(report)


def test_run_shb_report():
    report, code = run_document(shb_doc())
    assert code == 0
    body = report["report"]
    assert body["expected_dim_central_locus"] == 3
    dims = {tuple(map(tuple, e["parts"])): e["dim"] for e in body["partition_table"]}
    assert dims[((0,), (1,))] == 0
    assert dims[((0, 1),)] == 3
    assert body["cyclic_phi"]["stability"] == "Stable"
    report_validator().validate(report)


def test_run_kempf_ness_report():
    doc = stability_doc()
    doc["kind"] = "kempf-ness"
    report, code = run_document(doc)
    assert code == 0
    assert report["report"]["status"] == "Converged"
    assert abs(report["report"]["minimizer"][0]) < 1e-8


def test_run_kuranishi_generated():
    doc = {
        "schema_version": "1",
        "kind": "kuranishi",
        "payload": {"generator": {"seed": 5, "grades": [1, 2, 3], "max_dim": 4}},
    }
    report, code = run_document(doc)
    assert code == 0
    assert report["report"]["round_trip_residual"] < 1e-9
    assert report["report"]["greens_status"] in ("ok", "ill-conditioned")


def test_run_kuranishi_explicit_complex():
    doc = {
        "schema_version": "1",
        "kind": "kuranishi",
        "payload": {
            "grades": [1, 2],
            "dims": {"1": [0, 2, 0], "2": [0, 1, 1]},
            "d0": {},
            "d1": {"2": [[1.0]]},
            "bracket": [
                {"g1": 1, "g2": 1, "tensor": [[[0.0, 1.0], [1.0, 0.0]]]}
            ],
            "input": {"1": [1.0, 2.0], "2": [0.5]},
        },
    }
    report, code = run_document(doc)
    assert code == 0
    assert report["report"]["round_trip_residual"] < 1e-9


def test_run_rejection_not_stable():
    doc = stratify_doc()
    doc["payload"]["lines"][1]["weight"] = [2]  # both weights positive
    report, code = run_document(doc)
    assert code == 2
    assert report["status"] == "rejected"
    assert report["report"]["stability"] == "Unstable"
    assert report["report"]["destabilizing_cocharacter"] is not None


def rank_doc(rank, weights, amplitudes=None, subtorus=None):
    """A stratify document with lines l0, l1, ... of the given (weight,
    rho) pairs, amplitude 1 unless given."""
    labels = [f"l{i}" for i in range(len(weights))]
    payload = {
        "rank": rank,
        "lines": [{"label": lab, "weight": list(w), "rho": r}
                  for lab, (w, r) in zip(labels, weights)],
        "amplitudes": amplitudes or {lab: 1.0 for lab in labels},
    }
    if subtorus is not None:
        payload["subtorus"] = subtorus
    return {"schema_version": "1", "kind": "stratify", "payload": payload}


def test_integral_floats_in_integer_fields_read_as_ints():
    # the schema's integer type admits 1.0 for a weight entry or a rho; the
    # report is the int document's, byte for byte
    ints = rank_doc(2, [((1, 0), 1), ((-1, 0), 2), ((0, 1), 1), ((0, -1), 3)])
    floats = json.loads(json.dumps(ints))
    for ln in floats["payload"]["lines"]:
        ln["weight"] = [float(c) for c in ln["weight"]]
        ln["rho"] = float(ln["rho"])
    got, want = (run_document(validate_document(json.dumps(d))) for d in (floats, ints))
    assert got[1] == want[1] == 0
    assert json.dumps(got[0], sort_keys=True) == json.dumps(want[0], sort_keys=True)


GOLDEN = Path(__file__).resolve().parent / "golden"


def float_twin(value):
    """value with every int of magnitude at most 2**53 written as a float,
    which the schema's integer type admits."""
    if isinstance(value, dict):
        return {k: float_twin(v) for k, v in value.items()}
    if isinstance(value, list):
        return [float_twin(v) for v in value]
    if type(value) is int and abs(value) <= 2**53:
        return float(value)
    return value


def box_bound_doc():
    # a witness bound of 2, so that the scan reads box_bound itself
    doc = rank_doc(2, [((2, 1), None), ((-1, 0), None), ((0, -1), None)])
    for ln in doc["payload"]["lines"]:
        del ln["rho"]
    return {**doc, "kind": "stability", "options": {"box_bound": 2}}


FLOAT_TWIN_DOCS = {
    **{p.name.removesuffix(".problem.json"): p for p in sorted(GOLDEN.glob("*.problem.json"))},
    "stability-options-box-bound": box_bound_doc(),
    "stratify-subtorus": rank_doc(2, [((1, 0), 1), ((-1, 1), 2), ((0, 1), 1)],
                                  subtorus=[[1, 0]]),
}


@pytest.mark.parametrize("name", FLOAT_TWIN_DOCS)
def test_float_twin_gives_the_int_documents_report(name, tmp_path, capsys):
    doc = FLOAT_TWIN_DOCS[name]
    if isinstance(doc, Path):
        doc = json.loads(doc.read_text())
    texts = [json.dumps(doc), json.dumps(float_twin(doc))]
    assert texts[0] != texts[1]
    runs = []
    for text in texts:
        stability._box_points.cache_clear()  # a cached int box hides a float bound
        path = tmp_path / "doc.json"
        path.write_text(text)
        code = main(["run", "--input", str(path)])
        runs.append((code, capsys.readouterr()))
    (code, want), (twin_code, got) = runs
    assert (twin_code, got.out, got.err) == (code, want.out, want.err)


@pytest.mark.parametrize("doc, stability", [
    (rank_doc(1, [((1,), 1), ((2,), 1)]), "Unstable"),
    (rank_doc(1, [((1,), 1), ((-1,), 2)], {"l0": 1.0, "l1": 0.0}), "Unstable"),
    (rank_doc(1, [((1,), 1), ((0,), 1)]), "SemistableNotPolystable"),
    (rank_doc(2, [((1, 0), 1), ((-1, 0), 2)]), "PolystableNotStable"),
    (rank_doc(1, [((0,), 1), ((0,), 2)]), "PolystableNotStable"),
    (rank_doc(2, [((1, 1), 1), ((-1, 1), 2)], subtorus=[[0, 1]]), "Unstable"),
], ids=["unstable", "unstable-zero-amplitude", "semistable", "polystable",
        "all-weights-zero", "unstable-under-subtorus"])
def test_stratify_rejects_each_class_with_the_classification_of_u(doc, stability):
    # the body is what classify says of u restricted to G_0, however the
    # stratification itself would have failed on it
    from torstab.torus_rep import rep_from_payload
    from torstab.qexact import Lattice
    from torstab.stability import classify
    from torstab.torus_rep import Subtorus

    payload = doc["payload"]
    u = rep_from_payload(payload)
    rank, basis = payload["rank"], payload.get("subtorus")
    g0 = Subtorus(rank, Lattice(rank, tuple(map(tuple, basis)))) if basis else Subtorus.full(rank)
    cls = classify(u.restrict(g0))
    assert cls.stability == stability
    expected = {"reason": f"input vector is {stability}, not stable", "stability": stability}
    if cls.cocharacter is not None:
        expected["destabilizing_cocharacter"] = list(cls.cocharacter)
    report, code = run_document(doc)
    assert (code, report["status"], report["report"]) == (2, "rejected", expected)


def test_reports_never_serialize_fractions_as_floats():
    report, _ = run_document(stratify_doc())
    text = json.dumps(report)
    assert "1.5" not in text  # c = 3/2 must appear as "3/2"
    assert '"3/2"' in text


def test_run_deterministic_bytes():
    a, _ = run_document(stratify_doc())
    b, _ = run_document(stratify_doc())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_render_text_contains_key_fields():
    report, _ = run_document(stability_doc())
    text = render_text(report)
    assert "kind: stability" in text and "class: Stable" in text


# ---------------------------------------------------------------------------
# gen subcommand and the command-line entry point


def test_generate_instances_validate_and_rerun():
    for kind in ("stability", "kempf-ness", "stratify", "shb", "kuranishi"):
        docs = [generate_instance(kind, seed) for seed in (3, 4)]
        again = [generate_instance(kind, seed) for seed in (3, 4)]
        assert json.dumps(docs, sort_keys=True) == json.dumps(again, sort_keys=True)
        for doc in docs:
            validated = validate_document(json.dumps(doc))
            report, code = run_document(validated)
            assert code == 0, report


def test_main_run_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(stratify_doc()))
    assert main(["run", "--input", str(good)]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["report"]["sigma"] == 2

    bad = tmp_path / "bad.json"
    doc = stratify_doc()
    doc["payload"]["lines"][0]["rho"] = 0
    bad.write_text(json.dumps(doc))
    assert main(["run", "--input", str(bad)]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["validate", "--input", str(broken)]) == 2
    assert main(["validate", "--input", str(good)]) == 0


def test_main_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--kind", "stratify", "--seed", "9", "--out", str(out)]) == 0
    doc = validate_document(out.read_text())
    report, code = run_document(doc)
    assert code == 0
    assert report["report"]["verification"]["all_ok"]


def test_main_text_format(capsys, tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(stability_doc()))
    assert main(["run", "--input", str(p), "--format", "text"]) == 0
    assert "class: Stable" in capsys.readouterr().out


def test_main_batch_inputs_worst_exit_code(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(stability_doc()))
    bad = tmp_path / "bad.json"
    doc = stratify_doc()
    doc["payload"]["lines"][1]["weight"] = [2]  # not stable
    bad.write_text(json.dumps(doc))
    assert main(["run", "--input", str(good), str(bad)]) == 2
    out = capsys.readouterr().out
    # both reports stream out, one per document
    assert out.count('"schema_version"') == 2
    assert '"status": "ok"' in out and '"status": "rejected"' in out


def test_run_shb_with_conformal_table():
    doc = shb_doc()
    doc["payload"]["x"] = [1, -1]
    doc["payload"]["sigma"] = 2
    report, code = run_document(doc)
    assert code == 0
    degs = report["report"]["conformal_degrees"]
    assert degs["1.1|1.1"] == 0 and degs["2.1|2.1"] == 0
    assert degs["1.1|2.1"] == -degs["2.1|1.1"] != 0


def test_run_shb_with_repeated_blocks_gives_the_conformal_table():
    # the table reads only the index classes and x, a cocharacter of the
    # block-scalar torus that every system has
    abelian = shb_doc()
    abelian["payload"]["x"] = [1, -1]
    abelian["payload"]["sigma"] = 2
    repeated = json.loads(json.dumps(abelian))
    for blk in repeated["payload"]["blocks"]:
        blk["tag"] = "a"
    report, code = run_document(repeated)
    assert code == 0
    body = report["report"]
    assert not body["abelian"] and "positive_slice" not in body
    want, _ = run_document(abelian)
    assert body["conformal_degrees"] == want["report"]["conformal_degrees"]
    report_validator().validate(report)


def test_shb_sigma_without_x_is_refused(tmp_path, capsys):
    doc = shb_doc()
    doc["payload"]["sigma"] = 2
    with pytest.raises(ValidationError) as exc:
        validate_document(json.dumps(doc))
    assert exc.value.errors == ["sigma is given without x"]
    p = tmp_path / "sigma.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--input", str(p)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["report"] == {"validation_errors": ["sigma is given without x"]}


def rank4_doc(*weights):
    doc = stability_doc()
    doc["payload"]["rank"] = 4
    doc["payload"]["lines"] = [{"label": f"l{i}", "weight": w} for i, w in enumerate(weights)]
    doc["payload"]["amplitudes"] = {f"l{i}": 1.0 for i in range(len(weights))}
    return doc


def test_main_rejects_oversized_bruteforce_box(tmp_path, capsys):
    # the witness bound is 2500, so the scan at bound 50 would cover 101^4
    # points; refused before any grid is built
    doc = rank4_doc([50, 0, 0, 0], [-50, 0, 0, 0])
    p = tmp_path / "rank4.json"
    p.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main(["run", "--input", str(p), "--box-bound", "50"]) == 2
    assert time.perf_counter() - t0 < 5
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "rejected"
    assert str(101**4) in report["report"]["reason"]


def test_bruteforce_box_cap_counts_the_box_scanned():
    # witness bound 2: the scan at box bound 50 covers 5^4 points, not 101^4
    doc = rank4_doc([1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 1, 0],
                    [0, 0, -1, 1], [0, 0, 0, -1])
    report, code = run_document(doc, box_bound=50)
    assert code == 0
    assert report["report"]["class"] == "Stable"
    assert report["report"]["bruteforce_witness"] is None
    assert report["report"]["box_sound"] is True


def test_huge_box_bound_scanned_to_the_witness_bound_is_not_refused():
    # the scan reaches min(box_bound, witness bound), and only that bound can
    # overflow the 64-bit pairings: rank 2 with weights up to 100 at 2**60,
    # and rank 1 with a weight of 2**62 at 2, each scan to bound 100 and 1
    rank2 = stability_doc()
    rank2["payload"]["rank"] = 2
    rank2["payload"]["lines"] = [{"label": "a", "weight": [100, 1]},
                                 {"label": "b", "weight": [-1, 100]},
                                 {"label": "c", "weight": [-100, -100]}]
    rank2["payload"]["amplitudes"] = {"a": 1.0, "b": 1.0, "c": 1.0}
    rank1 = stability_doc()
    rank1["payload"]["lines"][0]["weight"] = [2**62]
    for doc, box_bound in ((rank2, 2**60), (rank1, 2)):
        report, code = run_document(doc, box_bound=box_bound)
        assert code == 0, report
        assert report["report"]["class"] == "Stable"
        assert report["report"]["bruteforce_witness"] is None
        assert report["report"]["box_sound"] is True


def test_rank1_scan_with_a_weight_beyond_int64_answers(tmp_path, capsys):
    # a rank-1 scan builds no array, so no 64-bit pairing can wrap
    doc = stability_doc()
    doc["payload"]["lines"][0]["weight"] = [2**63]
    p = tmp_path / "rank1.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--input", str(p), "--box-bound", "5"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["class"] == "Stable"
    assert report["bruteforce_witness"] is None
    assert report["box_sound"] is True


def test_run_stability_with_bruteforce_scan():
    report, code = run_document(stability_doc(), box_bound=5)
    assert code == 0
    assert report["report"]["bruteforce_witness"] is None
    unstable = stability_doc()
    unstable["payload"]["lines"][1]["weight"] = [2]
    report, code = run_document(unstable, box_bound=5)
    assert code == 0
    assert report["report"]["bruteforce_witness"] == [1]



# a broken internal invariant is a bug (exit 1), never a rejection (exit 2);
# the stubbed hull query calls 0 Outside with a separator that pairs 0 with
# every weight, which classify must not pass on as an unstable certificate


def unstable_doc():
    doc = stability_doc()
    doc["payload"]["lines"][1]["weight"] = [2]
    return doc


def test_internal_error_is_not_a_rejection(tmp_path, capsys, monkeypatch):
    assert not issubclass(InternalError, (TorstabError, ValueError))
    monkeypatch.setattr(stability, "locate",
                        lambda hull, q: (OUTSIDE, (0,) * hull.ambient_dim, ()))
    with pytest.raises(InternalError, match="no separating cocharacter"):
        run_document(unstable_doc())
    p = tmp_path / "unstable.json"
    p.write_text(json.dumps(unstable_doc()))
    assert main(["run", "--input", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: no separating cocharacter" in captured.err


def test_internal_error_survives_python_O():
    code = f"""
import torstab.stability as stability
from torstab.cli import run_document
from torstab.errors import InternalError
from torstab.polytope import OUTSIDE
stability.locate = lambda hull, q: (OUTSIDE, (0,) * hull.ambient_dim, ())
assert False, "asserts are on"
try:
    run_document({unstable_doc()!r})
except InternalError as exc:
    print("InternalError:", exc)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InternalError: no separating cocharacter")


# options.box_bound and options.emit_certificates act like their flags
def test_options_box_bound_runs_bruteforce_scan():
    doc = stability_doc()
    doc["options"] = {"box_bound": 5}
    report, code = run_document(doc)
    assert code == 0
    assert report["report"]["bruteforce_witness"] is None
    assert "certificate" in report["report"]


def test_options_emit_certificates_false_drops_certificate():
    doc = stability_doc()
    doc["options"] = {"box_bound": 5, "emit_certificates": False}
    validate_document(json.dumps(doc))
    report, code = run_document(doc)
    assert code == 0
    assert "certificate" not in report["report"]
    assert report["report"]["bruteforce_witness"] is None


def test_options_oversized_box_bound_rejected(tmp_path, capsys):
    doc = rank4_doc([50, 0, 0, 0], [-50, 0, 0, 0])
    doc["options"] = {"box_bound": 50}
    p = tmp_path / "rank4.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--input", str(p)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "rejected"
    assert str(101**4) in report["report"]["reason"]


def test_cli_import_leaves_out_scipy_linalg():
    # no library code imports scipy or jsonschema; numpy loads only with
    # the layers that use it, and each analysis layer only with a document
    # of its kind
    analysis = [f"torstab.{m}" for m in ("stability", "stratify", "shb_model", "polytope",
                                         "simplex", "qexact", "torus_rep", "kempf_ness",
                                         "graded_kuranishi")]
    code = ("import sys, torstab.cli; "
            f"print(any(m in sys.modules for m in {['scipy', 'numpy', 'jsonschema', *analysis]}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def kempf_ness_doc():
    doc = stability_doc()
    doc["kind"] = "kempf-ness"
    doc["payload"]["amplitudes"] = {"a": 2.0, "b": 1.0}
    return doc


def kempf_ness_three_line_doc():
    # three weights on a line are no simplex, so Newton leaves the balanced
    # start and tol decides where it stops (two weights would be solved
    # exactly at any tol)
    doc = kempf_ness_doc()
    doc["payload"]["lines"].append({"label": "c", "weight": [2]})
    doc["payload"]["amplitudes"] = {"a": 2.0, "b": 1.0, "c": 1.0}
    return doc


def unstable_box_doc():
    # the first witness of the box scan is (1, 3): outside bound 2, inside 5
    doc = stability_doc()
    doc["payload"] = {
        "rank": 2,
        "lines": [
            {"label": "a", "weight": [4, -1]},
            {"label": "b", "weight": [-3, 1]},
        ],
        "amplitudes": {"a": 1.0, "b": 1.0},
    }
    return doc


def kuranishi_generator_doc():
    # no input, so the seed draws it
    return {"schema_version": "1", "kind": "kuranishi",
            "payload": {"generator": {"seed": 5, "grades": [1, 2, 3], "max_dim": 4}}}


@pytest.mark.parametrize(
    "key, flag, option, make_doc",
    [
        ("tol", 1e-10, 10.0, kempf_ness_three_line_doc),
        ("emit_certificates", True, False, stability_doc),
        ("box_bound", 2, 5, unstable_box_doc),
        ("convention", "flipped", "default", shb_doc),
        ("seed", 1, 2, kuranishi_generator_doc),
    ],
)
def test_document_options_beat_flags(key, flag, option, make_doc):
    doc = make_doc()
    flag_only = run_document(doc, **{key: flag})
    doc["options"] = {key: option}
    validate_document(json.dumps(doc))
    both = run_document(doc, **{key: flag})
    option_only = run_document(doc)
    assert both == option_only
    assert both != flag_only


def norm2_nan_doc():
    doc = kempf_ness_doc()
    doc["payload"]["lines"][0]["norm2"] = float("nan")
    return json.dumps(doc)


def tol_nan_doc():
    doc = kempf_ness_doc()
    doc["options"] = {"tol": float("nan")}
    return json.dumps(doc)


def infinite_amplitude_doc():
    doc = kempf_ness_doc()
    doc["payload"]["amplitudes"]["a"] = float("inf")
    return json.dumps(doc)


def overflowing_amplitude_doc():
    return json.dumps(kempf_ness_doc()).replace("2.0", "1e400")


@pytest.mark.parametrize("make_text", [
    norm2_nan_doc, tol_nan_doc, infinite_amplitude_doc, overflowing_amplitude_doc,
])
def test_non_finite_numbers_are_parse_errors(make_text, tmp_path, capsys):
    # Python's json module reads NaN, Infinity and 1e400 as floats
    p = tmp_path / "doc.json"
    p.write_text(make_text())
    assert main(["run", "--input", str(p)]) == 2
    errors = json.loads(capsys.readouterr().out)["report"]["validation_errors"]
    assert len(errors) == 1 and errors[0].startswith("parse error")


def test_box_sound_reported_next_to_the_witness():
    report, _ = run_document(stability_doc(), box_bound=5)
    assert report["report"]["bruteforce_witness"] is None
    assert report["report"]["box_sound"] is True
    # the witness bound of (4, -1), (-3, 1) is 4: an empty 2-box proves nothing
    report, _ = run_document(unstable_box_doc(), box_bound=2)
    assert report["report"]["bruteforce_witness"] is None
    assert report["report"]["box_sound"] is False
    assert report["report"]["class"] != "Stable"
    report, _ = run_document(stability_doc())
    assert "box_sound" not in report["report"]


def test_numerical_failure_is_not_a_rejection(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError subclasses ValueError, which run_document once
    # caught as a rejection; it now catches TorstabError only
    import numpy as np

    import torstab.graded_kuranishi as graded_kuranishi

    def fail(cx):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(graded_kuranishi, "greens_operator", fail)
    doc = {
        "schema_version": "1",
        "kind": "kuranishi",
        "payload": {"generator": {"seed": 5, "grades": [1, 2, 3], "max_dim": 4}},
    }
    p = tmp_path / "kuranishi.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--input", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: SVD did not converge" in captured.err


# JSON output is JSON Lines: one compact, key-sorted line per document


def unstable_stratify_doc():
    doc = stratify_doc()
    doc["payload"]["lines"][1]["weight"] = [2]  # not stable: rejected by analysis
    return doc


def test_main_run_writes_one_line_per_document_in_input_order(tmp_path, capsys):
    invalid = stratify_doc()
    invalid["payload"]["lines"][0]["rho"] = 0  # fails validation
    paths = []
    for name, doc in (("ok", stability_doc()), ("rejected", unstable_stratify_doc()),
                      ("invalid", invalid)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths.append(str(p))
    singles = []
    for p in paths:
        main(["run", "--input", p])
        singles.append(json.loads(capsys.readouterr().out))
    assert main(["run", "--input", *paths]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert [json.loads(line) for line in lines] == singles
    assert [s["status"] for s in singles] == ["ok", "rejected", "rejected"]
    assert "validation_errors" in singles[2]["report"]


def test_undecodable_input_is_a_parse_error_and_the_batch_goes_on(tmp_path, capsys):
    # a label holding byte 0xff, which is not UTF-8
    raw = json.dumps(stability_doc()).encode().replace(b'"a"', b'"\xff"')
    bad = tmp_path / "latin.json"
    bad.write_bytes(raw)
    paths = []
    for name in ("first", "last"):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(stability_doc()))
        paths.append(str(p))
    assert main(["validate", "--input", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{bad}: parse error: 'utf-8' codec can't decode byte 0xff")
    assert captured.err == ""
    assert main(["run", "--input", paths[0], str(bad), paths[1]]) == 2
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["status"] for r in reports] == ["ok", "rejected", "ok"]
    [error] = reports[1]["report"]["validation_errors"]
    assert error.startswith("parse error: 'utf-8' codec can't decode byte 0xff")
    assert captured.err == ""


def test_unreadable_input_is_a_read_error_and_the_batch_goes_on(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(stability_doc()))
    missing = tmp_path / "missing.json"
    assert main(["validate", "--input", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{missing}: read error: [Errno 2]")
    assert captured.err == ""
    assert main(["run", "--input", str(good), str(missing), str(good)]) == 2
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["status"] for r in reports] == ["ok", "rejected", "ok"]
    [error] = reports[1]["report"]["validation_errors"]
    assert error.startswith("read error: [Errno 2] No such file or directory")
    assert captured.err == ""


@pytest.mark.parametrize("depth", [500, 100_000])
def test_deeply_nested_input_is_a_parse_error_and_the_batch_goes_on(depth, tmp_path, capsys):
    # at 500 levels the rejected document nests deeper than MAX_NESTING; at
    # 100 000 the parser itself recurses too deep
    doc = stability_doc()
    doc["payload"]["amplitudes"]["a"] = "nest"
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc).replace('"nest"', "[" * depth + "]" * depth))
    golden = str(GOLDEN / "stability-0.problem.json")
    assert main(["validate", "--input", str(deep), golden]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"{deep}: parse error: the document nests too deeply", f"{golden}: valid"]
    assert captured.err == ""
    assert main(["run", "--input", str(deep), golden]) == 2
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["status"] for r in reports] == ["rejected", "ok"]
    assert reports[0]["report"]["validation_errors"] == [
        "parse error: the document nests too deeply"]
    assert captured.err == ""


def under_frames(frames: int, f, *args):
    """f(*args), called under frames more stack frames."""
    return f(*args) if frames == 0 else under_frames(frames - 1, f, *args)


@pytest.mark.parametrize("depth", [250, 280])
def test_a_rejected_document_gets_one_answer_under_any_caller(depth):
    # the amplitude nests depth lists under the document, its payload and
    # its amplitudes; only past MAX_NESTING is the answer a parse error,
    # however deep the stack of the caller
    doc = stability_doc()
    doc["payload"]["amplitudes"]["a"] = "nest"
    text = json.dumps(doc).replace('"nest"', "[" * depth + "]" * depth)

    def answer(frames):
        with pytest.raises(ValidationError) as exc:
            under_frames(frames, validate_document, text)
        return exc.value.errors

    assert answer(0) == answer(200)
    too_deep = answer(0) == ["parse error: the document nests too deeply"]
    assert too_deep == (depth + 3 > MAX_NESTING)
    if not too_deep:
        value = "[" * depth + "]" * depth
        assert answer(0) == [
            f"payload/amplitudes/a: {value} is not valid under any of the given schemas"]


def test_dump_is_one_compact_sorted_line():
    from torstab.cli import _dump

    report = {"status": "rejected", "kind": "unknown",
              "report": {"reason": "line one\nline two\r\t — ü ∞", "b": [1.5, None]}}
    text = _dump(report)
    assert text == json.dumps(report, sort_keys=True) + "\n"
    assert text.count("\n") == 1 and text.isascii()
    assert json.loads(text) == report


def test_main_gen_out_is_one_line_that_run_accepts(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--kind", "shb", "--seed", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert main(["run", "--input", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_unwritable_gen_out_is_a_write_error(tmp_path, capsys):
    out = tmp_path / "missing" / "inst.json"
    assert main(["gen", "--kind", "shb", "--seed", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"write error: [Errno 2] No such file or directory: {str(out)!r}\n"


# the command parse reads argv as the top-level parser's parse_args does,
# in this interpreter, whose argparse words its messages in its own way: a
# well-formed argv through cli._read_argv, any other through argparse

VALID_ARGV = [
    ["run", "--input", "a.json", "b.json", "--format", "text", "--tol", "1e-8", "--seed", "3",
     "--convention", "flipped", "--emit-certificates", "false", "--box-bound", "5"],
    ["validate", "--input", "a.json", "b.json"],
    ["gen", "--kind", "kuranishi", "--seed", "4", "--out", "x.json"],
    ["run", "--inp", "a.json"],
    ["run", "--input", "a.json", "--box-bound", "2", "--box-bound", "7"],
]
INVALID_ARGV = [
    [],
    ["-h"],
    ["run", "-h"],
    ["check", "--input", "a.json"],
    ["run", "--input", "a.json", "--bogus"],
    ["validate", "extra", "--input", "a.json"],
    ["run", "--input", "a.json", "--format", "xml"],
    ["run", "--input", "a.json", "--tol", "abc"],
    ["run"],
    ["--input", "a.json", "run"],
]
# "--" ends the options; argparse's versions read what follows differently
DASHES_ARGV = [
    ["run", "--input", "a.json", "--", "b.json"],
    ["run", "--", "--input", "a.json"],
    ["validate", "--input", "a.json", "--"],
    ["--", "run", "--input", "a.json"],
]


def parsed(parse, argv):
    """The sorted vars() of parse(argv), each value by its repr (a nan
    equals itself only so), or the code it exits with, and what it
    printed to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = sorted((k, repr(v)) for k, v in vars(parse(argv)).items())
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def argv_id(argv):
    return " ".join(argv) or "<none>"


@pytest.mark.parametrize("argv", VALID_ARGV + INVALID_ARGV + DASHES_ARGV, ids=argv_id)
def test_command_parse_matches_argparse(argv):
    ours = parsed(cli._parse_args, argv)
    assert ours == parsed(cli._parser().parse_args, argv)
    if argv in VALID_ARGV:
        assert isinstance(ours[0], list)
    elif argv in INVALID_ARGV:
        assert ours[0] == (0 if "-h" in argv else 2)
    # the abbreviated --inp takes argparse's way
    assert (cli._read_argv(argv) is not None) == (argv in VALID_ARGV and "--inp" not in argv)


@pytest.mark.parametrize("argv", [VALID_ARGV[0], ["run", "--input", "a.json", "--bogus"]],
                         ids=argv_id)
def test_command_parse_reads_sys_argv(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["torstab", *argv])
    assert parsed(cli._parse_args, None) == parsed(cli._parser().parse_args, None)


# tokens an argv is drawn from: each command's flags in full, abbreviated
# and with "=value", values each flag accepts, values outside a flag's type
# or choices, and tokens that argparse reads in its own way
FLAG_TOKENS = sorted({tok for _, flags in cli.COMMANDS.values() for f in flags
                      for tok in (f[0], f[0][:5], f[0] + "=3", f[0] + "=a.json")})
ODD_TOKENS = ["run", "validate", "gen", "check", "", "-", "--", "-h", "--help", "-1", " 7", "1_0",
              "1.5", "nan", "xml", "--bogus"]
ACCEPTED = {int: ["3", "0", " 7", "1_0"], float: ["1e-8", "3", "nan", " 7"],
            None: ["a.json", "b.json", "", "x y"]}


def accepted(flag):
    return list(flag[3] or ACCEPTED[flag[2]])


@st.composite
def argvs(draw):
    """A command and groups of one of its flags and values it accepts
    (one, or one or two for --input); in about half of them, one or two
    tokens then replace a token or are put in, drawn from FLAG_TOKENS,
    ODD_TOKENS or the values of every flag."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(cli.COMMANDS[command][1]), max_size=5)):
        count = draw(st.integers(1, 2)) if flag[0] == "--input" else 1
        argv += [flag[0], *(draw(st.sampled_from(accepted(flag))) for _ in range(count))]
    every_value = [v for _, flags in cli.COMMANDS.values() for f in flags for v in accepted(f)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        token = draw(st.sampled_from(FLAG_TOKENS + ODD_TOKENS + every_value))
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [token]
    return argv


@settings(derandomize=True, max_examples=600, deadline=None)
@given(argvs())
def test_command_parse_matches_argparse_on_drawn_argv(argv):
    assert parsed(cli._parse_args, argv) == parsed(cli._parser().parse_args, argv)


def script_module(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_and_scripts_argv_take_the_direct_read(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "torbench"))
    gen = importlib.import_module("gen")
    forms = {("run", "--input", "doc.json", *d.argv)
             for make in gen.GENERATORS.values() for d in make(1)}
    assert ("run", "--input", "doc.json", "--box-bound", "50") in forms
    # scripts/corpus_digest.py runs the workloads' forms and writes with gen
    forms.add(("gen", "--kind", "stratify", "--seed", "7", "--out", "doc.json"))
    cold_start = script_module("cold_start")
    forms.update(tuple(cold_start.call_argv(call)) for call in cold_start.CASES.values() if call)
    for argv in map(list, forms):
        args = cli._read_argv(argv)
        assert args is not None, argv
        assert parsed(lambda _: args, argv) == parsed(cli._parser().parse_args, argv)


# a problem file is read as bytes and parsed by a reused decoder; the
# reference is the text-mode read and json.loads it replaced


def reference_read_document(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError([f"parse error: {exc}"]) from exc
    except OSError as exc:
        raise ValidationError([f"read error: {exc}"]) from exc
    return validate_document(text)


def reference_loads(text):
    return json.loads(text, parse_constant=cli._non_finite, parse_float=cli._finite_float)


def crlf_parse_error(newline: bytes) -> bytes:
    # the indented golden, its newlines replaced and a comma dropped on line 6
    lines = (GOLDEN / "stability-0.problem.json").read_bytes().split(b"\n")
    assert lines[5].endswith(b",")
    lines[5] = lines[5][:-1]
    return newline.join(lines)


def read_cases():
    golden = (GOLDEN / "stability-0.problem.json").read_bytes()
    label = json.dumps(stability_doc()).encode().replace(b'"a"', b'"a\r\nb"', 1)
    return {
        "bom": b"\xef\xbb\xbf" + golden,
        "bad-first-byte": b"\xff" + golden,
        "bad-byte-past-8k": b" " * 9000 + b"\xff" + golden,
        "truncated-at-eof": golden + b"\xe2\x82",
        "crlf": golden.replace(b"\n", b"\r\n"),
        "crlf-parse-error": crlf_parse_error(b"\r\n"),
        "cr-parse-error": crlf_parse_error(b"\r"),
        "crlf-in-string": label,
    }


@pytest.mark.parametrize("name", list(read_cases()))
def test_read_and_parse_match_text_mode_and_json_loads(name, tmp_path, capsys, monkeypatch):
    path = tmp_path / f"{name}.json"
    path.write_bytes(read_cases()[name])
    golden = str(GOLDEN / "stability-0.problem.json")

    def outputs():
        answers = []
        for argv in (["validate", "--input", str(path)],
                     ["run", "--input", golden, str(path), golden]):
            code = main(argv)
            answers.append((code, *capsys.readouterr()))
        return answers

    ours = outputs()
    monkeypatch.setattr(cli, "_read_document", reference_read_document)
    monkeypatch.setattr(cli, "_loads", reference_loads)
    assert ours == outputs()
    statuses = [json.loads(line)["status"] for line in ours[1][1].splitlines()]
    assert statuses == ["ok", "ok" if name == "crlf" else "rejected", "ok"]


# oversized kuranishi complexes are refused before any array is built


def kuranishi_doc(payload):
    return {"schema_version": "1", "kind": "kuranishi", "payload": payload}


@pytest.mark.parametrize("payload, reason", [
    ({"generator": {"seed": 0, "max_dim": 10**9}},
     f"complex dimension {10**9} exceeds the limit of {MAX_COMPLEX_DIM}"),
    ({"generator": {"seed": 0, "grades": list(range(1, 10_001))}},
     f"complex of 10000 grades exceeds the limit of {MAX_COMPLEX_GRADES}"),
    ({"grades": list(range(1, 10_001)), "dims": {}, "d0": {}, "d1": {}},
     f"complex of 10000 grades exceeds the limit of {MAX_COMPLEX_GRADES}"),
    ({"grades": [1], "dims": {"1": [0, MAX_COMPLEX_DIM + 1, 0]}, "d0": {}, "d1": {}},
     f"complex dimension {MAX_COMPLEX_DIM + 1} exceeds the limit of {MAX_COMPLEX_DIM}"),
])
def test_oversized_kuranishi_complex_is_rejected_up_front(payload, reason, tmp_path,
                                                          capsys, monkeypatch):
    import torstab.graded_kuranishi as graded_kuranishi

    def unreachable(*args, **kwargs):
        raise AssertionError("the complex was built")

    monkeypatch.setattr(graded_kuranishi, "random_graded_complex", unreachable)
    monkeypatch.setattr(graded_kuranishi, "GradedComplex", unreachable)
    p = tmp_path / "big.json"
    p.write_text(json.dumps(kuranishi_doc(payload)))
    t0 = time.perf_counter()
    assert main(["run", "--input", str(p)]) == 2
    assert time.perf_counter() - t0 < 1
    report = json.loads(capsys.readouterr().out)
    assert report == {"schema_version": "1", "kind": "kuranishi", "status": "rejected",
                      "report": {"reason": reason}}


@pytest.mark.parametrize("payload, reason", [
    ({"grades": [1, 2], "dims": {"1": [0, 2, 0]}, "d0": {}, "d1": {}},
     "dims has no entry for grade 2"),
    ({"grades": [1, 1], "dims": {"1": [0, 2, 0]}, "d0": {}, "d1": {}},
     "grades must be distinct, but 1 is given more than once"),
    ({"generator": {"seed": 0, "grades": [1, 1]}},
     "grades must be distinct, but 1 is given more than once"),
    ({"generator": {"seed": 0, "grades": [3, 1, 3, 1, 2]}},
     "grades must be distinct, but 1 is given more than once; "
     "grades must be distinct, but 3 is given more than once"),
    ({"grades": [1], "dims": {"1": [0, 2, 0]}, "d0": {}, "d1": {}, "input": {"7": [1, 2]}},
     "input grade 7 is not a grade of the complex [1]"),
    ({"generator": {"seed": 0, "grades": [1, 2]}, "input": {"x": [1]}},
     "input grade x is not a grade of the complex [1, 2]"),
    ({"grades": [1], "dims": {"1": [0, 2, 0]}, "d0": {}, "d1": {}, "input": {"1": [1, 2, 3]}},
     "input[1] must have shape 2 to match dims"),
    ({"grades": [1], "dims": {"1": [0, 2, 0]}, "d0": {}, "d1": {}, "input": {"1": 5}},
     "input[1] must have shape 2 to match dims"),
    ({"grades": [1], "dims": {"1": [2, 2, 0]}, "d0": {"1": [[1], [0, 1]]}, "d1": {}},
     "d0[1] must have shape 2 x 2 to match dims"),
    ({"grades": [1], "dims": {"1": [2, 2, 0]}, "d0": {"1": [[1, 0]]}, "d1": {}},
     "d0[1] must have shape 2 x 2 to match dims"),
    ({"grades": [1], "dims": {"1": [0, 2, 1]}, "d0": {}, "d1": {"1": [[1, 0], [0, 1]]}},
     "d1[1] must have shape 1 x 2 to match dims"),
    ({"grades": [1, 2], "dims": {"1": [0, 2, 0], "2": [0, 1, 1]}, "d0": {}, "d1": {},
      "bracket": [{"g1": 1, "g2": 1, "tensor": [[[1, 0], [0]]]}]},
     "bracket (1, 1) tensor must have shape 1 x 2 x 2 to match dims"),
    ({"grades": [1], "dims": {"1": [0, 2, 0]}, "d0": {}, "d1": {},
      "bracket": [{"g1": 1, "g2": 1, "tensor": []}]},
     "bracket grades (1, 1) leave the range"),
])
def test_malformed_kuranishi_complex_is_rejected_by_field(payload, reason, tmp_path,
                                                          capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(kuranishi_doc(payload)))
    assert main(["run", "--input", str(p)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report == {"schema_version": "1", "kind": "kuranishi", "status": "rejected",
                      "report": {"reason": reason}}


@pytest.mark.parametrize("payload", [
    {"grades": [1], "dims": {"1": [0, 2, 0]}, "d0": {"1": []}, "d1": {"1": []},
     "input": {"1": [1, 2]}},
    {"grades": [1], "dims": {"1": [0, 2, 0]}, "d0": {"1": [[], []]}, "d1": {}},
    {"grades": [1, 2], "dims": {"1": [0, 2, 0], "2": [0, 1, 0]}, "d0": {}, "d1": {},
     "bracket": [{"g1": 1, "g2": 1, "tensor": []}], "input": {"1": [1, [0, 1]]}},
])
def test_kuranishi_blocks_without_entries_may_be_empty_lists(payload):
    report, code = run_document(kuranishi_doc(payload))
    assert code == 0, report
    assert report["report"]["round_trip_residual"] < 1e-9


def test_largest_admitted_kuranishi_complex_runs():
    payload = {"generator": {"seed": 1, "grades": list(range(1, MAX_COMPLEX_GRADES + 1)),
                             "max_dim": MAX_COMPLEX_DIM}}
    report, code = run_document(kuranishi_doc(payload))
    assert code == 0, report
    assert report["report"]["round_trip_residual"] < 1e-9


# kuranishi entries must be numbers or [re, im] pairs, and every block key a grade

KURANISHI_LINE = {"grades": [1], "dims": {"1": [0, 2, 0]}, "d0": {}, "d1": {}}


@pytest.mark.parametrize("payload, reason", [
    (dict(KURANISHI_LINE, input={"1": [None, 2]}),
     "input[1][0] must be a number or a [re, im] pair of numbers"),
    (dict(KURANISHI_LINE, input={"1": ["1+2j", 2]}),
     "input[1][0] must be a number or a [re, im] pair of numbers"),
    (dict(KURANISHI_LINE, input={"1": [1, True]}),
     "input[1][1] must be a number or a [re, im] pair of numbers"),
    (dict(KURANISHI_LINE, input={"1": [1, [0, False]]}),
     "input[1][1] must be a number or a [re, im] pair of numbers"),
    (dict(KURANISHI_LINE, input={"1": [1, [0, 1, 2]]}),
     "input[1][1] must be a number or a [re, im] pair of numbers"),
    ({"grades": [1], "dims": {"1": [1, 2, 0]}, "d0": {"1": [[1], ["x"]]}, "d1": {}},
     "d0[1][1][0] must be a number or a [re, im] pair of numbers"),
    ({"grades": [1], "dims": {"1": [0, 2, 1]}, "d0": {}, "d1": {"1": [[0, {}]]}},
     "d1[1][0][1] must be a number or a [re, im] pair of numbers"),
    ({"grades": [1, 2], "dims": {"1": [0, 1, 0], "2": [0, 0, 1]}, "d0": {}, "d1": {},
      "bracket": [{"g1": 1, "g2": 1, "tensor": [[[None]]]}]},
     "bracket (1, 1) tensor[0][0][0] must be a number or a [re, im] pair of numbers"),
    ({"grades": [1], "dims": {"1": [0, 2, 0], "9": [1, 1, 1]}, "d0": {"5": [[1]]},
      "d1": {"x": 3}, "input": {"1": [1, 2]}},
     "dims grade 9 is not a grade of the complex [1]; "
     "d0 grade 5 is not a grade of the complex [1]; "
     "d1 grade x is not a grade of the complex [1]"),
    (dict(KURANISHI_LINE, d0={"01": []}), "d0 grade 01 is not a grade of the complex [1]"),
    (dict(KURANISHI_LINE, input={" 1": [1, 2]}), "input grade  1 is not a grade of the complex [1]"),
    (dict(KURANISHI_LINE, input={"1": [1, [10**400, 0]]}), "input[1][1] is too large for a float"),
])
def test_kuranishi_entries_and_keys_are_refused_by_field(payload, reason, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(kuranishi_doc(payload)))
    assert main(["run", "--input", str(p)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["report"] == {"reason": reason}


def test_kuranishi_overflow_is_refused_by_field(tmp_path, capsys):
    # the bracket square of an input of 1e200 through a tensor of 1e300
    # overflows: this once exited 1 (Infinity is not JSON) with numpy
    # warnings on stderr
    payload = {"grades": [1, 2], "dims": {"1": [0, 1, 0], "2": [0, 1, 1]}, "d0": {},
               "d1": {"2": [[1]]}, "bracket": [{"g1": 1, "g2": 1, "tensor": [[[1e300]]]}],
               "input": {"1": [1e200]}}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(kuranishi_doc(payload)))
    assert main(["run", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["report"] == {"reason": "; ".join(
        f"{field}: the Kuranishi maps overflow a float"
        for field in ("inverse", "round_trip_residual", "obstruction_norm"))}


def test_kuranishi_d1_beyond_a_squarable_float_runs(tmp_path, capsys):
    # d1 d1* = 1e400 once overflowed (exit 1 and numpy warnings); the
    # Green's operator decomposes the Laplacian of d1 / 1e200 instead
    payload = {"grades": [1], "dims": {"1": [0, 2, 1]}, "d0": {}, "d1": {"1": [[1e200, 1]]}}
    p = tmp_path / "d1.json"
    p.write_text(json.dumps(kuranishi_doc(payload)))
    assert main(["run", "--input", str(p)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)["report"]
    assert (report["greens_status"], report["greens_condition"]) == ("ok", 1.0)
    assert report["round_trip_residual"] == report["obstruction_norm"] == 0.0


@pytest.mark.parametrize("entry", [1.0, 1e200])
def test_kuranishi_nonzero_d1d0_is_refused_at_every_scale(entry):
    # d1 d0 = 1e400 once overflowed to inf, and inf > inf let it through
    payload = {"grades": [1], "dims": {"1": [1, 1, 1]}, "d0": {"1": [[entry]]},
               "d1": {"1": [[entry]]}}
    report, code = run_document(kuranishi_doc(payload))
    assert code == 2
    assert report["report"] == {"reason": "d1 d0 != 0 at grade 1"}


def test_kuranishi_tiny_d1_inverts_through_its_pseudoinverse():
    # Gamma = 1/|d1|^2 = 1e600 overflowed and the document was refused,
    # although the correction d1* Gamma = d1^+ = 1e300 is a float
    payload = {"grades": [1, 2], "dims": {"1": [0, 1, 0], "2": [0, 1, 1]}, "d0": {},
               "d1": {"2": [[1e-300]]}, "bracket": [{"g1": 1, "g2": 1, "tensor": [[[1]]]}],
               "input": {"1": [1]}}
    report, code = run_document(kuranishi_doc(payload))
    assert code == 0, report
    body = report["report"]
    assert body["inverse"]["1"] == [[1.0, 0.0]]
    (re, im), = body["inverse"]["2"]
    assert re == pytest.approx(-0.5e300, rel=1e-15) and im == 0.0
    assert body["round_trip_residual"] == body["obstruction_norm"] == 0.0


def test_kuranishi_tiny_d1d0_that_is_zero_runs():
    # d1 at 1e-100 keeps the Green's operator (1/|d1|^2) a float
    payload = {"grades": [1], "dims": {"1": [1, 2, 1]}, "d0": {"1": [[1e-200], [0]]},
               "d1": {"1": [[0, 1e-100]]}}
    report, code = run_document(kuranishi_doc(payload))
    assert code == 0, report


def overflowing_doc(kind, field):
    doc = stratify_doc() if kind == "stratify" else stability_doc()
    doc["kind"] = kind
    payload = doc["payload"]
    if field == "amplitude":
        payload["amplitudes"]["a"] = 10**400
    elif field == "imaginary part":
        payload["amplitudes"]["b"] = [0, -(10**400)]
    elif field == "weight":
        payload["lines"][0]["weight"] = [10**400]
    elif field == "tol":
        doc["options"] = {"tol": 10**400}
    else:
        payload["lines"][0]["norm2"] = 10**400
    return doc


@pytest.mark.parametrize("kind", ["stability", "kempf-ness", "stratify"])
@pytest.mark.parametrize("field, reason", [
    ("amplitude", "amplitude of line 'a' is too large for a float"),
    ("imaginary part", "amplitude of line 'b' is too large for a float"),
    ("norm2", "line 'a': norm2 is too large for a float"),
    ("weight", "line 'a': weight is too large for a float"),
    ("tol", "options.tol is too large for a float"),
])
def test_integers_too_large_for_a_float_are_refused_by_field(kind, field, reason, tmp_path,
                                                             capsys):
    # schema-valid: json reads the literal as an int, and only float() fails
    p = tmp_path / "big.json"
    p.write_text(json.dumps(overflowing_doc(kind, field)))
    if kind == "stability" and field == "weight":
        # stability reads weights exactly and never as floats
        assert main(["run", "--input", str(p)]) == 0
        assert capsys.readouterr().err == ""
        return
    assert main(["run", "--input", str(p), "--box-bound", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["report"] == {"reason": reason}


@pytest.mark.parametrize("kind", ["kempf-ness", "stratify"])
@pytest.mark.parametrize("weight, code", [(2**1023, 2), (2**53 + 1, 2), (-(2**60), 2), (2**53, 0)],
                         ids=["2**1023", "2**53+1", "-2**60", "2**53"])
def test_weights_a_float_cannot_hold_exactly_are_refused_by_field(kind, weight, code, tmp_path,
                                                                  capsys):
    # weight against -1: with 2**1023 this once gave Failure, an Infinity
    # gradient_norm and numpy overflow warnings on an exit-0 run
    doc = stratify_doc() if kind == "stratify" else stability_doc()
    doc["kind"] = kind
    doc["payload"]["lines"][0]["weight"] = [weight]
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--input", str(p)]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)["report"]
    if code == 2:
        assert report == {"reason": "line 'a': weight is too large for a float"}
    elif kind == "kempf-ness":
        assert report["status"] == "Converged"


@pytest.mark.parametrize("kind", ["kempf-ness", "stratify"])
@pytest.mark.parametrize("amplitude, want", [(1e-200, 100 * math.log(10)),
                                             (1e200, -100 * math.log(10))])
def test_squared_norms_beyond_the_float_range_converge(kind, amplitude, want, tmp_path, capsys):
    # |a|^2 = 1e-400 once exited 2 (squared norms must be positive) and
    # 1e400 exited 1 (a float overflow); the Newton runs on their logarithms,
    # to the minimizer ln(1 / |a|^2) / 4
    doc = stratify_doc() if kind == "stratify" else stability_doc()
    doc["kind"] = kind
    doc["payload"]["amplitudes"] = {"a": amplitude, "b": 1.0}
    p = tmp_path / "norms.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--input", str(p)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)["report"]
    result = report["stage_minimizers"][0] if kind == "stratify" else report
    assert result["status"] == "Converged"
    assert result["minimizer"][0] == pytest.approx(want, abs=1e-8)
    assert result["value"] == pytest.approx(2 * amplitude, rel=1e-12)


@pytest.mark.parametrize("kind", ["kempf-ness", "stratify"])
def test_a_functional_value_beyond_the_float_range_is_refused(kind, tmp_path, capsys):
    # both |a|^2 = 1e400: the minimum value 2e400 is no float
    doc = stratify_doc() if kind == "stratify" else stability_doc()
    doc["kind"] = kind
    doc["payload"]["amplitudes"] = {"a": 1e200, "b": 1e200}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["report"] == {
        "reason": "amplitudes and norm2: the Kempf-Ness functional overflows a float"
    }


def test_a_non_finite_report_float_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # Infinity and NaN are not JSON: _dump refuses to write them
    import torstab.stability as stability

    monkeypatch.setattr(stability, "report", lambda *args, **kwargs: {"value": math.inf})
    p = tmp_path / "stability.json"
    p.write_text(json.dumps(stability_doc()))
    assert main(["run", "--input", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Infinity" not in captured.err and "NaN" not in captured.err
    assert captured.err.startswith("internal error: ")


def test_a_cyclic_report_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # _dump skips the encoder's cycle check, so a cycle ends in RecursionError
    import torstab.stability as stability

    body: dict = {}
    body["self"] = body
    monkeypatch.setattr(stability, "report", lambda *args, **kwargs: body)
    p = tmp_path / "stability.json"
    p.write_text(json.dumps(stability_doc()))
    assert main(["run", "--input", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: maximum recursion depth exceeded")


_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.just(10**400),
    st.floats(-100, 100, allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(-3, 3) | st.booleans() | st.none(), max_size=3), st.just({}),
)


@st.composite
def kuranishi_payloads(draw):
    """Schema-valid explicit kuranishi payloads, mostly of the right shape,
    with entries and keys that are often not what the complex needs."""
    grades = draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3))
    keys = [str(g) for g in grades] + ["7", "x"]
    dims = {str(g): draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
            for g in grades if draw(st.integers(0, 9))}
    if draw(st.booleans()):
        dims[draw(st.sampled_from(keys))] = [1, 1, 1]

    def vector(n):
        return [draw(st.integers(-1, 1) if draw(st.integers(0, 5)) else _json_leaf)
                for _ in range(n)]

    def block(rows, cols):
        if draw(st.integers(0, 4)) == 0:
            return draw(_json_leaf)
        return [vector(cols) for _ in range(rows)]

    payload = {"grades": grades, "dims": dims, "d0": {}, "d1": {}}
    for name in ("d0", "d1"):
        for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
            n = dims.get(key, [1, 1, 1])
            payload[name][key] = block(n[1], n[0]) if name == "d0" else block(n[2], n[1])
    if draw(st.booleans()):
        payload["input"] = {key: vector(dims.get(key, [0, 1, 0])[1])
                            if draw(st.integers(0, 3)) else draw(_json_leaf)
                            for key in draw(st.lists(st.sampled_from(keys), max_size=2))}
    if draw(st.booleans()):
        g1, g2 = draw(st.sampled_from(grades)), draw(st.sampled_from(grades))
        payload["bracket"] = [{"g1": g1, "g2": g2,
                               "tensor": [block(1, 1) for _ in range(draw(st.integers(0, 2)))]}]
    return payload


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kuranishi_payloads())
def test_schema_valid_kuranishi_documents_never_exit_1(payload):
    doc = validate_document(json.dumps(kuranishi_doc(payload)))
    report, code = run_document(doc)
    assert code in (0, 2), report


# a refusal is a TorstabError raised where the input is judged; any other
# exception from the analysis is a bug in this library and exits 1


def rank0_stratify_doc():
    # no stage runs, so no kn_minimize reads tol
    return rank_doc(0, [((), 1)])


@pytest.mark.parametrize("argv, make_doc, reason", [
    (["--box-bound", "-1"], stability_doc, "box_bound must be >= 1"),
    (["--tol", "0"], kempf_ness_doc, "tol must be positive"),
    (["--tol", "0"], stratify_doc, "tol must be positive"),
    # judged once before dispatch: a tol no layer reads, a box_bound that
    # would have skipped the scan, and tols Newton would have run with
    (["--tol", "inf"], kempf_ness_three_line_doc, "tol must be finite"),
    (["--tol", "nan"], kempf_ness_three_line_doc, "tol must be finite"),
    (["--box-bound", "0"], stability_doc, "box_bound must be >= 1"),
    (["--tol", "0"], rank0_stratify_doc, "tol must be positive"),
    # numpy's default_rng takes no negative seed: judged like options.seed
    (["--seed", "-1"], kuranishi_generator_doc, "seed must be >= 0"),
])
def test_out_of_range_flags_are_refused(argv, make_doc, reason, tmp_path, capsys):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(make_doc()))
    assert main(["run", "--input", str(p), *argv]) == 2
    assert json.loads(capsys.readouterr().out)["report"] == {"reason": reason}


def test_negative_gen_seed_is_refused(capsys):
    assert main(["gen", "--kind", "stability", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: seed must be >= 0\n"


def test_document_seed_overrides_a_negative_seed_flag(tmp_path, capsys):
    # judged after the document's options are laid over the flags, as tol
    # and box_bound are
    doc = kuranishi_generator_doc()
    doc["options"] = {"seed": 2}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--input", str(p), "--seed", "-1"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["input_seed"] == 2


@pytest.mark.parametrize("error", [ValueError("boom"), KeyError("boom")])
def test_library_value_and_key_errors_are_not_rejections(error, tmp_path, capsys, monkeypatch):
    # StabilityResult.verify reads the saturated kernel of a Stable document
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(stability, "saturated_kernel", fail)
    p = tmp_path / "stable.json"
    p.write_text(json.dumps(stability_doc()))
    assert main(["run", "--input", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and "boom" in captured.err


def bracket_payload(dims, entries):
    payload = {"grades": sorted(map(int, dims)), "dims": dims, "d0": {}, "d1": {},
               "bracket": [{"g1": g1, "g2": g2, "tensor": [[[t]]]} for g1, g2, t in entries]}
    if "2" in dims:
        payload.update(d1={"2": [[1]]}, input={"1": [1]})
    return payload


# the last entry of a pair once won silently: with brackets 1 and 2 at
# (1, 1), the inverse at grade 2 was -1 or -0.5 by the order of the entries
@pytest.mark.parametrize("payload, reason", [
    (bracket_payload({"1": [0, 1, 0], "2": [0, 1, 1]}, [(1, 1, 1), (1, 1, 2)]), "(1, 1)"),
    (bracket_payload({"1": [0, 1, 0], "2": [0, 1, 1]}, [(1, 1, 2), (1, 1, 1)]), "(1, 1)"),
    (bracket_payload({"1": [0, 1, 0], "3": [0, 1, 1], "4": [0, 0, 1]},
                     [(1, 3, 1), (3, 1, 1)]), "(3, 1)"),
], ids=["1-then-2", "2-then-1", "both-orders"])
def test_kuranishi_bracket_pair_given_twice_is_refused(payload, reason):
    report, code = run_document(kuranishi_doc(payload))
    assert code == 2
    assert report["report"] == {"reason": f"bracket grades {reason} are given more than once"}


def test_stratify_tol_reaches_the_stage_minimizers(monkeypatch):
    import torstab.kempf_ness as kempf_ness

    seen = []
    minimize = kempf_ness.kn_minimize

    def spy(p, stability, tol=kempf_ness.DEFAULT_TOL):
        seen.append(tol)
        return minimize(p, stability, tol)

    monkeypatch.setattr(kempf_ness, "kn_minimize", spy)
    doc = stratify_doc()
    doc["options"] = {"tol": 0.25}
    report, code = run_document(doc, tol=1e-3)
    assert code == 0
    assert seen and set(seen) == {0.25}


@st.composite
def rep_payloads(draw, kind):
    """Schema-valid stability, kempf-ness or stratify payloads: ranks 0-3,
    rho on some lines only (on all of them for stratify), zero and missing
    amplitudes, weights too large for a float, and any subtorus."""
    rank = draw(st.integers(0, 3))
    graded = "all" if kind == "stratify" else draw(st.sampled_from(["none", "all", "some"]))
    rho = st.integers(1, 4) if kind == "stratify" else st.integers(-2, 4)
    amplitude = st.sampled_from([0, 0.0, 1, -2, 0.5, [0.0, 1.0], [1, -1]])
    lines = []
    for j in range(draw(st.integers(1, 5))):
        line = {"label": f"l{j}",
                "weight": draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))}
        if graded == "all" or graded == "some" and draw(st.booleans()):
            line["rho"] = draw(rho)
        if draw(st.integers(0, 4)) == 0:
            line["norm2"] = draw(st.sampled_from([0.25, 1, 3]))
        lines.append(line)
    if rank and draw(st.integers(0, 9)) == 9:
        # too large for a float, or for the 64-bit pairings of the box scan
        lines[0]["weight"][0] = draw(st.sampled_from([2**54, -2**62]))
    amps = {ln["label"]: draw(amplitude) for ln in lines if draw(st.integers(0, 5))}
    payload = {"rank": rank, "lines": lines, "amplitudes": amps}
    if kind == "stratify" and draw(st.booleans()):
        payload["subtorus"] = draw(st.lists(st.lists(st.integers(-2, 2), min_size=rank,
                                                     max_size=rank), max_size=rank + 1))
    return payload


@st.composite
def shb_payloads(draw):
    """Valid shb payloads: chains of any degrees summing to zero, repeated
    tags, and conformal data (sigma only with x)."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        degrees = [0] if len(ranks) == 1 else draw(
            st.lists(st.integers(-3, 3), min_size=len(ranks) - 1, max_size=len(ranks) - 1))
        block = {"ranks": ranks, "degrees": degrees + [-sum(degrees)] * (len(ranks) > 1)}
        if draw(st.integers(0, 4)):
            block["tag"] = draw(st.sampled_from("abcde"))
        blocks.append(block)
    payload = {"genus": draw(st.integers(2, 4)), "blocks": blocks}
    if draw(st.booleans()):
        payload["x"] = [draw(st.integers(-3, 3)) for _ in blocks]
        if draw(st.booleans()):
            payload["sigma"] = draw(st.integers(1, 3))
    return payload


_generator_payloads = st.fixed_dictionaries(
    {"seed": st.integers(0, 50)},
    optional={"grades": st.lists(st.integers(-1, 4), min_size=1, max_size=4),
              "max_dim": st.integers(1, 4)},
).map(lambda gen: {"generator": gen})

_options = st.fixed_dictionaries({}, optional={
    "tol": st.sampled_from([1e-12, 1e-6, 0.1]),
    "seed": st.integers(0, 5),
    "convention": st.sampled_from(["default", "flipped"]),
    "emit_certificates": st.booleans(),
    "sigma_multiple": st.integers(1, 3),
    "box_bound": st.sampled_from([1, 2, 3, 50]),
})


@st.composite
def schema_valid_documents(draw):
    kind = draw(st.sampled_from(["stability", "kempf-ness", "stratify", "shb", "kuranishi"]))
    if kind == "shb":
        payload = draw(shb_payloads())
    elif kind == "kuranishi":
        payload = draw(_generator_payloads | kuranishi_payloads())
    else:
        payload = draw(rep_payloads(kind))
    doc = {"schema_version": "1", "kind": kind, "payload": payload}
    options = draw(_options)
    if options:
        doc["options"] = options
    return doc


@settings(derandomize=True, max_examples=400, deadline=None)
@given(schema_valid_documents())
def test_schema_valid_documents_never_exit_1(doc):
    doc = validate_document(json.dumps(doc))
    report, code = run_document(doc)
    assert code in (0, 2), report
