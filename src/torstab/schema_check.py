"""An exact validity predicate and an error writer, compiled from a JSON
Schema (draft 2020-12).

``compile_schema(schema)`` returns ``accepts(instance) -> bool``, which is
True exactly when ``Draft202012Validator(schema).iter_errors(instance)``
yields nothing.  It has to be exact, not merely sound, because ``oneOf``
and ``if`` turn a wrong "invalid" into a wrong "valid" one level up.  So
it mirrors jsonschema: an integer is an int that is not a bool, or a float
with ``is_integer()``; a number is an int or a float and never a bool; a
keyword that does not apply to the instance's type is skipped; ``minimum``
fails only on ``x < m`` and ``exclusiveMinimum`` only on ``x <= m``.

``compile_errors(schema)`` returns ``errors(instance) -> list[str]``, the
list ``iter_errors`` yields, each error written as ``path: message`` (its
instance path joined by ``/``, or ``<root>``) in the order of
``sorted(..., key=str)``, with jsonschema 4.26's messages.  ``str`` of an
error is its message, the failed keyword, the schema path and the
pretty-printed subschema, then the instance path and the pretty-printed
instance.  The writer sorts on the message and, among equal messages only
(so only then loading ``pprint``), on the rest up to the instance: two
errors that agree that far are about the same value.  It keeps two of
jsonschema's ways: the error of a ``false`` subschema loses the path steps
that led to it, and ``items: false`` is one message about the extra items.
The writer only runs on a document the predicate rejects.

Only the keywords ``problem.schema.json`` uses are known.  Any other
keyword, a ``$ref`` outside ``#/$defs/``, or a ``const``/``enum`` value
that is not a string raises ``InternalError`` at compile time, in either
compiler, so a schema edit fails loudly instead of being judged wrongly.
"""

from __future__ import annotations

from collections import Counter

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
    if len(checks) == 2:
        first, second = checks
        return lambda x: first(x) and second(x)

    def accepts(x):
        for check in checks:
            if not check(x):
                return False
        return True

    return accepts


def _known(schema: dict) -> None:
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise InternalError(f"schema: unsupported keywords {sorted(unknown)}")


def _type_test(name):
    is_type = _TYPES.get(name) if isinstance(name, str) else None
    if is_type is None:
        raise InternalError(f"schema: unsupported type {name!r}")
    return is_type


def _resolver(root: dict, build):
    """ref(target): build of the ``$defs`` entry of root that target names,
    built once."""
    defs = root.get("$defs", {})
    built: dict[str, object] = {}

    def ref(target: str):
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise InternalError(f"schema: unsupported $ref {target!r}")
        if name not in built:
            built[name] = build(defs[name])
        return built[name]

    return ref


def _predicates(root: dict):
    """build(schema): the predicate of a subschema of root."""

    def build(schema):
        if isinstance(schema, bool):
            return lambda x: schema
        _known(schema)
        checks = []
        has_object = any(k in schema for k in _OBJECT)
        has_array = any(k in schema for k in _ARRAY)
        name = schema.get("type")
        if "type" in schema:
            is_type = _type_test(name)
            # the object or array check below tests its own type
            if not (name == "object" and has_object or name == "array" and has_array):
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
        if has_object:
            checks.append(_object(schema, build, name == "object"))
        if has_array:
            checks.append(_array(schema, build, name == "array"))
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

    ref = _resolver(root, build)
    return build


def compile_schema(root: dict):
    """The predicate of ``root``; see the module docstring."""
    return _predicates(root)(root)


def _object(schema: dict, build, typed: bool):
    """The check of the object keywords of schema; a value that is no object
    fails it when typed (the schema's type is object), and passes otherwise."""
    required = tuple(schema.get("required", ()))
    props = {k: build(s) for k, s in schema.get("properties", {}).items()}
    extra = build(schema["additionalProperties"]) if "additionalProperties" in schema else None

    def accepts(x):
        if not isinstance(x, dict):
            return not typed
        for key in required:
            if key not in x:
                return False
        for key, value in x.items():
            check = props.get(key, extra)
            if check is not None and not check(value):
                return False
        return True

    return accepts


def _array(schema: dict, build, typed: bool):
    """The check of the array keywords of schema, typed as in _object."""
    item = build(schema["items"]) if "items" in schema else None
    low = schema.get("minItems", 0)
    high = schema.get("maxItems")

    def accepts(x):
        if not isinstance(x, list):
            return not typed
        if len(x) < low or (high is not None and len(x) > high):
            return False
        return item is None or all(map(item, x))

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


def _short(limit: int) -> str:
    return "should be non-empty" if limit == 1 else "is too short"


def compile_errors(root: dict):
    """The error writer of ``root``; see the module docstring."""
    accepts = _predicates(root)

    def descend(schema, steps=()):
        """write(x, at, sp, out, key) of a subschema that the keyword at
        schema path sp reaches for the value at instance path at + key: its
        errors lie at schema path sp + steps.  jsonschema drops both steps
        for a false subschema, whose one error lies at at and sp."""
        write = build(schema)
        if schema is False:
            return lambda x, at, sp, out, key=(): write(x, at, sp, out)
        return lambda x, at, sp, out, key=(): write(x, at + key, sp + steps, out)

    def build(schema):
        """write(x, at, sp, out): append to out an error record (message,
        keyword, schema path, schema, instance path) for each error of x,
        which sits at instance path at and meets schema at schema path sp."""
        if schema is True:
            return lambda x, at, sp, out: None
        if schema is False:
            return lambda x, at, sp, out: out.append(
                (f"False schema does not allow {x!r}", None, sp, False, at))
        _known(schema)
        checks = []

        def single(keyword: str, message) -> None:
            """A check of keyword whose one error is message(x), if that is
            not None."""
            def check(x, at, sp, out):
                text = message(x)
                if text is not None:
                    out.append((text, keyword, (*sp, keyword), schema, at))

            checks.append(check)

        if "type" in schema:
            name, is_type = schema["type"], _type_test(schema["type"])
            single("type", lambda x: None if is_type(x) else f"{x!r} is not of type {name!r}")
        if "const" in schema:
            (const,) = _strings([schema["const"]], "const")
            single("const", lambda x: None if isinstance(x, str) and x == const
                   else f"{const!r} was expected")
        if "enum" in schema:
            values = schema["enum"]
            enum = _strings(values, "enum")
            single("enum", lambda x: None if isinstance(x, str) and x in enum
                   else f"{x!r} is not one of {values!r}")
        if "minimum" in schema:
            low = schema["minimum"]
            single("minimum", lambda x: f"{x!r} is less than the minimum of {low!r}"
                   if _is_number(x) and x < low else None)
        if "exclusiveMinimum" in schema:
            low_ex = schema["exclusiveMinimum"]
            single("exclusiveMinimum",
                   lambda x: f"{x!r} is less than or equal to the minimum of {low_ex!r}"
                   if _is_number(x) and x <= low_ex else None)
        if "minLength" in schema:
            min_len = schema["minLength"]
            single("minLength", lambda x: f"{x!r} {_short(min_len)}"
                   if isinstance(x, str) and len(x) < min_len else None)
        if "minItems" in schema:
            min_items = schema["minItems"]
            single("minItems", lambda x: f"{x!r} {_short(min_items)}"
                   if isinstance(x, list) and len(x) < min_items else None)
        if "maxItems" in schema:
            max_items = schema["maxItems"]
            long = "is expected to be empty" if max_items == 0 else "is too long"
            single("maxItems", lambda x: f"{x!r} {long}"
                   if isinstance(x, list) and len(x) > max_items else None)
        if "required" in schema:
            required = tuple(schema["required"])

            def missing(x, at, sp, out):
                if isinstance(x, dict):
                    for key in required:
                        if key not in x:
                            out.append((f"{key!r} is a required property", "required",
                                        (*sp, "required"), schema, at))

            checks.append(missing)
        props = schema.get("properties", {})
        if props:
            writes = {key: descend(sub, (key,)) for key, sub in props.items()}

            def properties(x, at, sp, out):
                if isinstance(x, dict):
                    for key, write in writes.items():
                        if key in x:
                            write(x[key], at, (*sp, "properties"), out, (key,))

            checks.append(properties)
        extra = schema.get("additionalProperties", True)
        if extra is False:
            def additional(x):
                extras = sorted(k for k in x if k not in props) if isinstance(x, dict) else ()
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    return (f"Additional properties are not allowed "
                            f"({', '.join(map(repr, extras))} {verb} unexpected)")
                return None

            single("additionalProperties", additional)
        elif extra is not True:
            write_extra = descend(extra)

            def each_extra(x, at, sp, out):
                if isinstance(x, dict):
                    for key, value in x.items():
                        if key not in props:
                            write_extra(value, at, (*sp, "additionalProperties"), out, (key,))

            checks.append(each_extra)
        items = schema.get("items", True)
        if items is False:
            single("items", lambda x: f"Expected at most 0 items but found {len(x)} extra: "
                   f"{x[0] if len(x) == 1 else x!r}" if isinstance(x, list) and x else None)
        elif items is not True:
            write_item = descend(items)

            def each_item(x, at, sp, out):
                if isinstance(x, list):
                    for i, value in enumerate(x):
                        write_item(value, at, (*sp, "items"), out, (i,))

            checks.append(each_item)
        if "oneOf" in schema:
            branches = [(sub, accepts(sub)) for sub in schema["oneOf"]]

            def one_of(x):
                valid = [sub for sub, sub_accepts in branches if sub_accepts(x)]
                if not valid:
                    return f"{x!r} is not valid under any of the given schemas"
                if len(valid) > 1:  # the first valid branch is named last
                    named = ", ".join(map(repr, [*valid[1:], valid[0]]))
                    return f"{x!r} is valid under each of {named}"
                return None

            single("oneOf", one_of)
        if "allOf" in schema:
            parts = [descend(sub, (i,)) for i, sub in enumerate(schema["allOf"])]

            def all_of(x, at, sp, out):
                for write in parts:
                    write(x, at, (*sp, "allOf"), out)

            checks.append(all_of)
        if "if" in schema:  # "if" is no step of the schema path, "then" is
            cond, then = accepts(schema["if"]), descend(schema.get("then", True), ("then",))
            checks.append(lambda x, at, sp, out: cond(x) and then(x, at, sp, out))
        if "$ref" in schema:  # nor is "$ref"
            checks.append(ref(schema["$ref"]))

        def write(x, at, sp, out):
            for check in checks:
                check(x, at, sp, out)

        return write

    ref = _resolver(root, build)
    write_root = build(root)

    def errors(instance) -> list[str]:
        out: list = []
        write_root(instance, (), (), out)
        tied = Counter(message for message, *_ in out)
        out.sort(key=lambda error: (error[0], _str_tail(error) if tied[error[0]] > 1 else ""))
        return [f"{'/'.join(map(str, at)) or '<root>'}: {message}" for message, *_, at in out]

    return errors


def _str_tail(error) -> str:
    """What str(error) writes after the message, up to the pretty-printed
    instance, as jsonschema 4.26 writes it (``exceptions.py``).  A message
    holds no character below a space, which repr escapes, so the message
    decides the order of str before this tail does."""
    from pprint import pformat

    _, keyword, schema_path, schema, at = error
    pretty = pformat(schema, width=72, sort_dicts=False).replace("\n", "\n    ")
    return (f"Failed validating {keyword!r} in {_index('schema', schema_path[:-1])}:\n"
            f"    {pretty}\n\nOn {_index('instance', at)}:\n")


def _index(container: str, steps) -> str:
    """A path as jsonschema's messages write it: instance['a'][0]."""
    return f"{container}[{']['.join(map(repr, steps))}]" if steps else container
