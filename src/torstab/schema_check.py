"""An exact validity predicate compiled from a JSON Schema (draft 2020-12).

``compile_schema(schema)`` returns ``accepts(instance) -> bool``, which is
True exactly when ``Draft202012Validator(schema).iter_errors(instance)``
yields nothing.  It has to be exact, not merely sound, because ``oneOf``
and ``if`` turn a wrong "invalid" into a wrong "valid" one level up.  So
it mirrors jsonschema: an integer is an int that is not a bool, or a float
with ``is_integer()``; a number is an int or a float and never a bool; a
keyword that does not apply to the instance's type is skipped; ``minimum``
fails only on ``x < m`` and ``exclusiveMinimum`` only on ``x <= m``.

Only the keywords ``problem.schema.json`` uses are known.  Any other
keyword, a ``$ref`` outside ``#/$defs/``, or a ``const``/``enum`` value
that is not a string raises ``InternalError`` at compile time, so a schema
edit fails loudly instead of being judged wrongly.
"""

from __future__ import annotations

from .errors import InternalError

_ANNOTATIONS = frozenset({"$schema", "$id", "title", "$defs"})
_OBJECT = ("required", "properties", "additionalProperties")
_ARRAY = ("items", "minItems", "maxItems")
_KEYWORDS = _ANNOTATIONS | {
    *_OBJECT, *_ARRAY, "type", "const", "enum", "minimum", "exclusiveMinimum",
    "minLength", "oneOf", "allOf", "if", "then", "$ref",
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": _is_integer,
    "number": _is_number,
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
}


def _strings(values, keyword: str) -> frozenset:
    if not all(isinstance(v, str) for v in values):
        raise InternalError(f"schema: only string values are supported in {keyword!r}")
    return frozenset(values)


def _conjunction(checks):
    if len(checks) == 1:
        return checks[0]

    def accepts(x):
        for check in checks:
            if not check(x):
                return False
        return True

    return accepts


def compile_schema(root: dict):
    """The predicate of ``root``; see the module docstring."""
    defs = root.get("$defs", {})
    compiled: dict[str, object] = {}

    def ref(target: str):
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise InternalError(f"schema: unsupported $ref {target!r}")
        if name not in compiled:
            compiled[name] = build(defs[name])
        return compiled[name]

    def build(schema):
        if isinstance(schema, bool):
            return lambda x: schema
        unknown = schema.keys() - _KEYWORDS
        if unknown:
            raise InternalError(f"schema: unsupported keywords {sorted(unknown)}")
        checks = []
        if "type" in schema:
            is_type = _TYPES.get(schema["type"]) if isinstance(schema["type"], str) else None
            if is_type is None:
                raise InternalError(f"schema: unsupported type {schema['type']!r}")
            checks.append(is_type)
        if "const" in schema:
            (const,) = _strings([schema["const"]], "const")
            checks.append(lambda x: isinstance(x, str) and x == const)
        if "enum" in schema:
            enum = _strings(schema["enum"], "enum")
            checks.append(lambda x: isinstance(x, str) and x in enum)
        if "minimum" in schema:
            low = schema["minimum"]
            checks.append(lambda x: not (_is_number(x) and x < low))
        if "exclusiveMinimum" in schema:
            low_ex = schema["exclusiveMinimum"]
            checks.append(lambda x: not (_is_number(x) and x <= low_ex))
        if "minLength" in schema:
            min_len = schema["minLength"]
            checks.append(lambda x: not (isinstance(x, str) and len(x) < min_len))
        if any(k in schema for k in _OBJECT):
            checks.append(_object(schema, build))
        if any(k in schema for k in _ARRAY):
            checks.append(_array(schema, build))
        if "oneOf" in schema:
            checks.append(_one_of([build(s) for s in schema["oneOf"]]))
        if "allOf" in schema:
            checks.append(_conjunction([build(s) for s in schema["allOf"]]))
        if "if" in schema:  # a "then" without "if" is ignored, as jsonschema does
            cond, then = build(schema["if"]), build(schema.get("then", True))
            checks.append(lambda x: not cond(x) or then(x))
        if "$ref" in schema:
            checks.append(ref(schema["$ref"]))
        return _conjunction(checks) if checks else (lambda x: True)

    return build(root)


def _object(schema: dict, build):
    required = tuple(schema.get("required", ()))
    props = {k: build(s) for k, s in schema.get("properties", {}).items()}
    extra = build(schema["additionalProperties"]) if "additionalProperties" in schema else None

    def accepts(x):
        if not isinstance(x, dict):
            return True
        for key in required:
            if key not in x:
                return False
        for key, value in x.items():
            check = props.get(key, extra)
            if check is not None and not check(value):
                return False
        return True

    return accepts


def _array(schema: dict, build):
    item = build(schema["items"]) if "items" in schema else None
    low = schema.get("minItems", 0)
    high = schema.get("maxItems")

    def accepts(x):
        if not isinstance(x, list):
            return True
        if len(x) < low or (high is not None and len(x) > high):
            return False
        return item is None or all(item(v) for v in x)

    return accepts


def _one_of(subs):
    def accepts(x):
        hits = 0
        for sub in subs:
            if sub(x):
                hits += 1
                if hits > 1:
                    return False
        return hits == 1

    return accepts
