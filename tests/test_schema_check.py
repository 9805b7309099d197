"""The schema predicate and error writer, compiled together, agree with
jsonschema exactly.

`schema_check.compile_schema` returns the pair (accepts, errors).  accepts
must return True exactly when `Draft202012Validator.iter_errors` yields
nothing, and errors must write the list `torstab validate` wrote from
jsonschema: its errors sorted by `str`, each as `path: message`.  Both are
checked on the golden problems, on one- and two-field mutations of them,
and on every keyword the compiler knows, over values that sit on the edges
jsonschema draws (1.0 is an integer, a bool is no number, NaN passes
`minimum`).  The problem schema is compiled in one walk, each subschema
once.
"""

import copy
import json
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import torstab.cli as cli
import torstab.schema_check as schema_check
from torstab.errors import InternalError, ValidationError
from torstab.schema_check import compile_schema

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = cli._load_schema("problem.schema.json")
VALIDATOR = Draft202012Validator(SCHEMA)
DOCS = [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.problem.json"))]
VALUES = [math.nan, math.inf, -math.inf, 1.0, 0.5, 0.0, -1.0, 2, 1, 0, -1,
          True, False, None, "", "x", "stability", "1", [], {}, [1.0, 2.0],
          [1, 2, 3], {"zz": 1}]
# keys the schema knows somewhere, so an added key can be allowed or not
KEYS = ["zz", "rho", "norm2", "tag", "x", "sigma", "options", "subtorus", "input"]
OPTIONS = ["tol", "seed", "convention", "emit_certificates", "sigma_multiple",
           "box_bound", "zz"]


def node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from node_paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from node_paths(value, (*path, i))


def mutate(draw, doc):
    """doc with one field set to an edge value, deleted, or given an extra
    key, or with one option set."""
    op = draw(st.sampled_from(["set", "delete", "add key", "option"]))
    value = copy.deepcopy(draw(st.sampled_from(VALUES)))
    if op == "option" and isinstance(doc, dict):
        doc["options"] = {draw(st.sampled_from(OPTIONS)): value}
        return doc
    path = draw(st.sampled_from(list(node_paths(doc))))
    if not path:
        if op == "set" or not isinstance(doc, dict):
            return value
        return {**doc, draw(st.sampled_from(KEYS)): value}
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "set":
        parent[path[-1]] = value
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent[path[-1]], dict):
        parent[path[-1]][draw(st.sampled_from(KEYS))] = value
    return doc


@st.composite
def mutated_documents(draw):
    """A golden problem with one mutation."""
    return mutate(draw, copy.deepcopy(draw(st.sampled_from(DOCS))))


@st.composite
def twice_mutated_documents(draw):
    """A golden problem with two mutations, and half the time without its
    kind, so that every allOf branch judges its payload and the same
    message comes from several branches."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    if draw(st.booleans()):
        del doc["kind"]
    return mutate(draw, mutate(draw, doc))


def jsonschema_list(validator, instance) -> list[str]:
    """The error list as torstab validate wrote it from jsonschema."""
    return [f"{'/'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
            for err in sorted(validator.iter_errors(instance), key=str)]


def test_goldens_are_accepted():
    assert all(VALIDATOR.is_valid(d) for d in DOCS)
    assert all(cli.problem_validator()[0](d) for d in DOCS)
    assert all(cli.problem_validator()[1](d) == [] for d in DOCS)


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(mutated_documents())
def test_predicate_matches_jsonschema_on_mutations(doc):
    assert cli.problem_validator()[0](doc) == VALIDATOR.is_valid(doc)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.one_of(mutated_documents(), twice_mutated_documents()))
def test_error_list_matches_jsonschema_on_mutations(doc):
    assert cli.problem_validator()[1](doc) == jsonschema_list(VALIDATOR, doc)


def test_error_list_orders_equal_messages_as_jsonschema():
    # without a kind the stability, kempf-ness and stratify branches all
    # judge the amplitudes, so each wrong one gives an equal message per
    # branch; str orders them by branch (the schema path) before amplitude
    # (the instance path), not in the order the document lists them
    doc = {"schema_version": "1",
           "payload": {"rank": 1, "lines": [{"label": "a", "weight": [1]}],
                       "amplitudes": {"b": "x", "a": "x"}}}
    errors = cli.problem_validator()[1](doc)
    assert errors == jsonschema_list(VALIDATOR, doc)
    message = "'x' is not valid under any of the given schemas"
    assert [e for e in errors if message in e] == 3 * [
        f"payload/amplitudes/a: {message}", f"payload/amplitudes/b: {message}"]


KEYWORD_SCHEMAS = [
    {"type": "integer"},
    {"type": "number"},
    {"type": "boolean"},
    {"type": "null"},
    {"type": "string", "minLength": 1},
    {"type": "number", "exclusiveMinimum": 0},
    {"minimum": 1},
    {"exclusiveMinimum": 1},
    {"const": "1"},
    {"enum": ["stability", "x"]},
    {"minItems": 2, "maxItems": 2, "items": {"type": "number"}},
    {"type": "object", "required": ["zz"], "additionalProperties": False},
    {"properties": {"zz": {"type": "integer"}}, "additionalProperties": {"type": "array"}},
    {"oneOf": [{"type": "number"}, {"type": "integer"}]},
    {"allOf": [{"minimum": 0}, {"type": "integer"}]},
    {"if": {"const": "x"}, "then": False},
    {"then": False},
    {"$ref": "#/$defs/n", "$defs": {"n": {"type": "number", "minimum": 0}}},
    {"items": True, "additionalProperties": True},
    {"items": False},
    {"minItems": 3, "maxItems": 0, "minLength": 2},
    {"properties": {"zz": False}, "allOf": [False, True], "required": ["a", "zz"]},
    {"oneOf": [{"minimum": 0}, {"type": "integer"}, {"type": "number"}]},
    {"additionalProperties": False, "properties": {"a": True}},
    # equal messages ordered by the schema path, "then" being a step of it
    {"properties": {"b": {"type": "integer"}}, "if": True,
     "then": {"properties": {"a": {"type": "integer"}}}},
    # and by the pretty-printed subschema, "$ref" being no step of the path
    {"items": {"type": "integer"}, "$ref": "#/$defs/t",
     "$defs": {"t": {"items": {"type": "integer", "minimum": 0}}}},
    # typed nodes of the problem schema, whose object or array check tests
    # the type itself
    {"properties": {
        "payload": {"type": "object", "required": ["rank"], "additionalProperties": False,
                    "properties": {"rank": {"type": "integer"}}},
        "lines": {"type": "array", "minItems": 1, "items": {"type": "object"}},
        "weight": {"type": "array", "items": {"type": "integer"}},
        "amplitudes": {"type": "object", "additionalProperties": {"type": "number"}},
    }},
]
# with the same wrong value in several places, which gives equal messages;
# index 10 sorts before index 2; and values of the wrong type at the typed
# nodes above
KEYWORD_VALUES = [*VALUES, [1, "x"], {"zz": 1}, {"zz": 1.5, "a": []}, {"a": 1},
                  {"b": 1, "a": 2, "c": 3}, [0.5, 1, True, 2.0],
                  {"a": "x", "b": "x"}, ["x"] * 11,
                  {"payload": []}, {"lines": {}}, {"weight": "1"}, {"amplitudes": [1, 2]}]


@pytest.mark.parametrize("schema", KEYWORD_SCHEMAS, ids=json.dumps)
def test_each_keyword_matches_jsonschema(schema):
    ours, theirs = compile_schema(schema)[0], Draft202012Validator(schema)
    for value in KEYWORD_VALUES:
        assert ours(value) == theirs.is_valid(value), value


@pytest.mark.parametrize("schema", KEYWORD_SCHEMAS, ids=json.dumps)
def test_each_keyword_writes_jsonschema_messages(schema):
    ours, theirs = compile_schema(schema)[1], Draft202012Validator(schema)
    for value in KEYWORD_VALUES:
        assert ours(value) == jsonschema_list(theirs, value), value


@pytest.mark.parametrize("path, value", [
    (("payload",), []),
    (("payload", "lines"), {}),
    (("payload", "lines", 0, "weight"), "1"),
    (("payload", "amplitudes"), [1, 2]),
])
def test_wrong_types_at_typed_nodes_match_jsonschema(path, value):
    for doc in DOCS:
        if doc["kind"] != "stability":
            continue
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        assert not cli.problem_validator()[0](doc) and not VALIDATOR.is_valid(doc)
        assert cli.problem_validator()[1](doc) == jsonschema_list(VALIDATOR, doc)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "a"},
    {"properties": {"a": {"else": True}}},
    {"$ref": "other.json#/x"},
    {"$ref": "#/$defs/missing", "$defs": {}},
    {"enum": ["a", 1]},
    {"type": ["string", "null"]},
])
def test_unsupported_schema_raises(schema):
    with pytest.raises(InternalError):
        compile_schema(schema)


def test_valid_document_never_reaches_the_error_writer(monkeypatch):
    calls = []
    accepts, errors = cli.problem_validator()

    def counted(instance):
        calls.append(instance)
        return errors(instance)

    monkeypatch.setattr(cli, "problem_validator", lambda: (accepts, counted))
    for doc in DOCS:
        cli.validate_document(json.dumps(doc))
    assert calls == []
    with pytest.raises(ValidationError):
        cli.validate_document(json.dumps({"schema_version": "1"}))
    assert calls


def subschemas(schema):
    """schema and every subschema under it, by the keywords that hold
    subschemas."""
    yield schema
    if not isinstance(schema, dict):
        return
    for keyword in ("properties", "$defs"):
        for sub in schema.get(keyword, {}).values():
            yield from subschemas(sub)
    for keyword in ("oneOf", "allOf"):
        for sub in schema.get(keyword, ()):
            yield from subschemas(sub)
    for keyword in ("items", "additionalProperties", "if", "then"):
        if keyword in schema:
            yield from subschemas(schema[keyword])


def test_problem_schema_is_compiled_in_one_walk(monkeypatch):
    # every dict subschema of the problem schema is compiled once, whether
    # the document is accepted or its error list written.  Each of cli's
    # caches (problem_validator's among them) is cleared first, so that
    # nothing compiled before this test goes uncounted; the schema objects
    # are kept in seen, so their ids stay theirs
    seen = []
    known = schema_check._known

    def counted(schema):
        seen.append(schema)
        known(schema)

    caches = [f for f in vars(cli).values() if hasattr(f, "cache_clear")]
    assert cli.problem_validator in caches
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(schema_check, "_known", counted)
    try:
        cli.validate_document(json.dumps(DOCS[0]))
        with pytest.raises(ValidationError):
            cli.validate_document(json.dumps({"schema_version": "1"}))
    finally:
        for cached in caches:
            cached.cache_clear()
    root = seen[0]
    assert root == SCHEMA
    want = Counter(id(s) for s in subschemas(root) if isinstance(s, dict))
    assert len(want) > 1 and all(n == 1 for n in want.values())
    assert Counter(id(s) for s in seen) == want
