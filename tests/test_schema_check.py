"""The compiled schema predicate agrees with jsonschema exactly.

`schema_check.compile_schema` must return True exactly when
`Draft202012Validator.iter_errors` yields nothing: on the golden problems,
on single-field mutations of them, and on every keyword the compiler knows,
over values that sit on the edges jsonschema draws (1.0 is an integer, a
bool is no number, NaN passes `minimum`).
"""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import torstab.cli as cli
from torstab.errors import InternalError, ValidationError
from torstab.schema_check import compile_schema

GOLDEN = Path(__file__).parent / "golden"
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


@st.composite
def mutated_documents(draw):
    """A golden problem with one field set to an edge value, deleted, or
    given an extra key, or with one option set."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    op = draw(st.sampled_from(["set", "delete", "add key", "option"]))
    value = copy.deepcopy(draw(st.sampled_from(VALUES)))
    if op == "option":
        doc["options"] = {draw(st.sampled_from(OPTIONS)): value}
        return doc
    path = draw(st.sampled_from(list(node_paths(doc))))
    if not path:
        return value if op == "set" else {**doc, draw(st.sampled_from(KEYS)): value}
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


def test_goldens_are_accepted():
    assert all(cli.problem_validator().is_valid(d) for d in DOCS)
    assert all(cli._problem_accepts()(d) for d in DOCS)


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(mutated_documents())
def test_predicate_matches_jsonschema_on_mutations(doc):
    assert cli._problem_accepts()(doc) == cli.problem_validator().is_valid(doc)


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
]


@pytest.mark.parametrize("schema", KEYWORD_SCHEMAS, ids=json.dumps)
def test_each_keyword_matches_jsonschema(schema):
    ours, theirs = compile_schema(schema), Draft202012Validator(schema)
    for value in [*VALUES, [1, "x"], {"zz": 1}, {"zz": 1.5, "a": []}, {"a": 1}]:
        assert ours(value) == theirs.is_valid(value), value


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


def test_valid_document_never_reaches_jsonschema(monkeypatch):
    calls = []
    validator = type(cli.problem_validator())
    iter_errors = validator.iter_errors

    def counted(self, instance):
        calls.append(instance)
        return iter_errors(self, instance)

    monkeypatch.setattr(validator, "iter_errors", counted)
    for doc in DOCS:
        cli.validate_document(json.dumps(doc))
    assert calls == []
    with pytest.raises(ValidationError):
        cli.validate_document(json.dumps({"schema_version": "1"}))
    assert calls
