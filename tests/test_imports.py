"""Import cost follows use.

`torstab.cli` imports each document kind's layer when a document of that
kind runs, so `import torstab.cli` and `torstab validate` load no analysis
layer and each kind loads only its own.  The exact layers and `torstab
validate`, on valid and on rejected documents, load neither numpy, scipy
nor jsonschema: numpy arrives with the float diagnostics (Kempf-Ness, the
Green's operator, the brute-force scan, `torstab gen`), and the library
imports neither scipy nor jsonschema, which only the tests and the
benchmark use.  Each check runs in a fresh interpreter, since this test
process has long loaded all three.
`tests/test_cli.py::test_cli_import_leaves_out_scipy_linalg` checks that
`import torstab.cli` alone loads none of them."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import torstab
from torstab.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
COLD_START = ROOT / "scripts" / "cold_start.py"
HEAVY = ("numpy", "scipy", "jsonschema")

# the package's exports, by defining module
EXPORTS = {
    "errors": ("NotStableError", "StratifyInternalError", "TorstabError",
               "ValidationError", "ZeroVectorError"),
    "graded_kuranishi": ("GradedComplex", "GreensOperator", "greens_operator",
                         "kuranishi_forward", "kuranishi_inverse_graded",
                         "obstruction", "random_graded_complex"),
    "kempf_ness": ("KNProblem", "KNResult", "kn_eval", "kn_minimize"),
    "polytope": ("PolytopeQ", "RayInterval", "hull_position", "minimal_face",
                 "ray_intersect", "solve_mixed_system"),
    "qexact": ("Lattice", "saturated_kernel", "smith_normal_form"),
    "shb_model": ("ConformalDegreeTable", "PartitionP", "SHBSpec", "StableBlock",
                  "automorphism_torus", "conformal_degree_table",
                  "cyclic_phi_weights", "expected_dim_central_locus",
                  "partition_dim", "partitions_with_order",
                  "positive_slice_lines", "slice_vector"),
    "stability": ("StabilityResult", "classify", "destabilizer_bruteforce"),
    "stratify": ("StratifyResult", "stage_kn_minimizers", "stratify",
                 "verify_decomposition"),
    "torus_rep": ("RepVector", "Subtorus", "WeightLine"),
}

# `torstab.cli.main(argv)` with its output swallowed; prints the exit code
# and which of HEAVY are loaded afterwards
RUN = """
import contextlib, io, json, sys
from torstab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in HEAVY if m in sys.modules)]))
"""


# `torstab.cli.main(argv)`, when argv is not empty, with its output
# swallowed; prints the exit code and the torstab submodules loaded
# afterwards
LAYERS = """
import contextlib, io, json, sys
import torstab.cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = torstab.cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m[len("torstab."):] for m in sys.modules
                               if m.startswith("torstab."))]))
"""

# the torstab submodules each call loads: the front end, then its kind's layer
CLI = ["cli", "errors"]
VALIDATE = CLI + ["schema_check", "schemas"]
STABILITY = VALIDATE + ["polytope", "qexact", "simplex", "stability", "torus_rep"]
KEMPF_NESS = STABILITY + ["kempf_ness"]
# by the calls scripts/cold_start.py times
LOADED = {
    "import": CLI,
    "validate": VALIDATE,
    "rejected": VALIDATE,
    "stability": STABILITY,
    "kempf-ness": KEMPF_NESS,
    "stratify": KEMPF_NESS + ["stratify"],
    "shb": STABILITY + ["shb_model"],
    "kuranishi": VALIDATE + ["graded_kuranishi", "qexact"],
}


def cold_start_script():
    spec = importlib.util.spec_from_file_location("cold_start", COLD_START)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", f"HEAVY = {HEAVY!r}\n{code}", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def main_in_fresh_interpreter(argv: list[str]):
    return tuple(json.loads(fresh(RUN, json.dumps(argv))))


def goldens(kind: str = "*") -> list[str]:
    paths = sorted(str(p) for p in GOLDEN.glob(f"{kind}-*.problem.json"))
    assert paths
    return paths


def test_validate_every_golden_loads_no_float_or_schema_library():
    assert main_in_fresh_interpreter(["validate", "--input", *goldens()]) == (0, [])


def test_run_shb_goldens_loads_no_float_or_schema_library():
    assert main_in_fresh_interpreter(["run", "--input", *goldens("shb")]) == (0, [])


def test_run_stability_goldens_without_box_loads_no_float_or_schema_library():
    paths = goldens("stability")
    assert not any("box_bound" in Path(p).read_text() for p in paths)
    assert main_in_fresh_interpreter(["run", "--input", *paths]) == (0, [])


def test_rank1_bruteforce_scan_loads_no_numpy(tmp_path):
    # a rank-1 scan reads its hit off the signs of the weights; a rank-2
    # one builds its grid in numpy
    doc = {"schema_version": "1", "kind": "stability",
           "payload": {"rank": 1, "lines": [{"label": "a", "weight": [2]},
                                            {"label": "b", "weight": [-1]}],
                       "amplitudes": {"a": 1.0, "b": 1.0}}}
    rank1 = tmp_path / "rank1.json"
    rank1.write_text(json.dumps(doc))
    doc["payload"] = {"rank": 2, "lines": [{"label": "a", "weight": [1, 0]},
                                           {"label": "b", "weight": [-1, 1]},
                                           {"label": "c", "weight": [0, -1]}],
                      "amplitudes": {"a": 1.0, "b": 1.0, "c": 1.0}}
    rank2 = tmp_path / "rank2.json"
    rank2.write_text(json.dumps(doc))
    for path, loaded in ((rank1, []), (rank2, ["numpy"])):
        argv = ["run", "--input", str(path), "--box-bound", "5"]
        assert main_in_fresh_interpreter(argv) == (0, loaded), path.name


def test_float_kinds_load_numpy_only():
    # the probe does see numpy when a document needs it
    for kind in ("kempf-ness", "stratify", "kuranishi"):
        path = goldens(kind)[0]
        assert main_in_fresh_interpreter(["run", "--input", path]) == (0, ["numpy"]), kind


@pytest.mark.parametrize("case", sorted(LOADED))
def test_each_call_loads_exactly_its_kinds_layers(case):
    script = cold_start_script()
    call = script.CASES[case]
    code = json.loads(fresh(LAYERS, json.dumps(script.call_argv(call))))
    assert code == [script.exit_code(call), sorted(LOADED[case])]


def test_cold_start_script_times_these_calls():
    assert list(cold_start_script().CASES) == list(LOADED)
    proc = subprocess.run([sys.executable, str(COLD_START), "--count", "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == list(LOADED)
    assert all(len(row.split()) == 5 for row in rows)


def test_export_list_is_pinned():
    assert sorted(torstab.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_every_export_imports_from_the_package():
    importlib.import_module("torstab.stratify")  # the submodule the function shares a name with
    for mod, names in EXPORTS.items():
        module = importlib.import_module(f"torstab.{mod}")
        for name in names:
            ns: dict = {}
            exec(f"from torstab import {name}", ns)
            assert ns[name] is getattr(module, name), f"{mod}.{name}"
    assert callable(torstab.stratify)
    assert not hasattr(torstab, "no_such_name")


def test_rejected_document_prints_jsonschema_error_list(tmp_path, capsys):
    doc = {"schema_version": "2", "kind": "stability", "extra": True,
           "payload": {"rank": 0, "lines": [{"label": "a", "weight": [1.5]}, {"weight": [1]}],
                       "amplitudes": {"a": "x"}}}
    p = tmp_path / "invalid.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(p)]) == 2
    assert capsys.readouterr().out.splitlines() == [f"{p}: {msg}" for msg in (
        "schema_version: '1' was expected",
        "payload/lines/1: 'label' is a required property",
        "payload/amplitudes/a: 'x' is not valid under any of the given schemas",
        "payload/lines/0/weight/0: 1.5 is not of type 'integer'",
        "<root>: Additional properties are not allowed ('extra' was unexpected)",
    )]
    # and in a fresh interpreter, where the rejection loads none of HEAVY
    assert main_in_fresh_interpreter(["validate", "--input", str(p)]) == (2, [])


# ---------------------------------------------------------------------------
# no test-only API in the library


def references(tree: ast.AST, strings: bool = False) -> tuple[Counter, Counter]:
    """(names, attributes) referenced in tree: bare and imported names, and
    attribute names, plus string constants (as both) when strings is set.
    An attribute of a module that the file binds by `import` (np.maximum)
    counts as a name: it can name a function, never a method."""
    modules = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Attribute):
            on_module = isinstance(node.value, ast.Name) and node.value.id in modules
            (names if on_module else attrs)[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
            attrs[node.value] += 1
    return names, attrs


def definitions(tree: ast.Module):
    """(qualified name, node, is a method) of every top-level function and
    class and of every method; dunders run without being named."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("__"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub, True


def only_tests_call(lib: list[ast.Module], outside: list[ast.Module]) -> list[str]:
    """What lib defines that neither lib itself nor outside calls.

    A function or class counts as called when its name occurs in lib
    outside its own definition, or anywhere in outside (whose tracer wraps
    functions by name); a method when its name occurs as an attribute of
    something other than a module.  Matching is by name, so a method that
    shares its name with another attribute passes."""
    names, attrs = Counter(), Counter()
    for tree, strings in [(t, False) for t in lib] + [(t, True) for t in outside]:
        n, a = references(tree, strings)
        names.update(n)
        attrs.update(a)
    either = names + attrs
    unused = []
    for tree in lib:
        for qualname, node, method in definitions(tree):
            own_names, own_attrs = references(node)
            seen, own = (attrs, own_attrs) if method else (either, own_names + own_attrs)
            if seen[node.name] <= own[node.name]:
                unused.append(qualname)
    return unused


def test_library_defines_nothing_that_only_tests_call():
    lib = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "torstab").rglob("*.py"))]
    outside = [ast.parse(p.read_text()) for d in ("scripts", "torbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert only_tests_call(lib, outside) == []


def test_a_module_attribute_does_not_call_a_method_of_its_name():
    poset = ast.parse("class PartitionPoset:\n    def maximum(self):\n        return 0\n")
    scan = ast.parse("def first_hit(a):\n    import numpy as np\n    return np.maximum(a, 0)\n")
    script = ast.parse("import torstab\ntorstab.first_hit(torstab.PartitionPoset())\n")
    assert only_tests_call([poset, scan], [script]) == ["PartitionPoset.maximum"]
    method = ast.parse("def top(p):\n    return p.maximum()\n")
    assert only_tests_call([poset, scan], [script, method]) == []


# ---------------------------------------------------------------------------
# the runtime dependencies pyproject.toml declares

RUNTIME = {"numpy"}


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level modules tree imports by absolute name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
    return out


def test_library_imports_only_the_standard_library_and_its_declared_dependencies():
    imported = set()
    for p in sorted((ROOT / "src" / "torstab").rglob("*.py")):
        imported |= imported_modules(ast.parse(p.read_text()))
    assert RUNTIME <= imported
    assert sorted(imported - sys.stdlib_module_names - RUNTIME - {"torstab"}) == []
