"""An exact validity predicate and an error writer, compiled together from
a JSON Schema (draft 2020-12).

``compile_schema(schema)`` returns the pair ``(accepts, errors)``.  It walks
the schema once, compiling each subschema into its own pair (a ``$defs``
entry once, however many ``$ref`` name it).  A leaf keyword such as
``minimum`` states its pass test once: the predicate runs it, and the
writer appends jsonschema's message only where it fails.  A structural
keyword joins the pairs of its subschemas; the object and array keywords
are one check each, which tests the node's type when the schema gives it,
and ``minItems``/``maxItems`` inside it, and one writer that mirrors it.

``accepts(instance) -> bool`` is True exactly when
``Draft202012Validator(schema).iter_errors(instance)`` yields nothing.  It
has to be exact, not merely sound, because ``oneOf`` and ``if`` turn a
wrong "invalid" into a wrong "valid" one level up.  So it mirrors
jsonschema: an integer is an int that is not a bool, or a float with
``is_integer()``; a number is an int or a float and never a bool; a
keyword that does not apply to the instance's type is skipped; ``minimum``
fails only on ``x < m`` and ``exclusiveMinimum`` only on ``x <= m``.

``errors(instance) -> list[str]`` is the list ``iter_errors`` yields, each
error written as ``path: message`` (its instance path joined by ``/``, or
``<root>``) in the order of ``sorted(..., key=str)``, with jsonschema
4.26's messages.  ``str`` of an error is its message, the failed keyword,
the schema path and the pretty-printed subschema, then the instance path
and the pretty-printed instance.  The writer sorts on the message and,
among equal messages only (so only then loading ``pprint``), on the rest
up to the instance: two errors that agree that far are about the same
value.  It keeps two of jsonschema's ways: the error of a ``false``
subschema loses the path steps that led to it, and ``items: false`` is one
message about the extra items.  The writer only runs on a document the
predicate rejects.

Only the keywords ``problem.schema.json`` uses are known.  Any other
keyword, a ``$ref`` outside ``#/$defs/``, or a ``const``/``enum`` value
that is not a string raises ``InternalError`` at compile time, so a schema
edit fails loudly instead of being judged wrongly.
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


def _short(limit: int) -> str:
    return "should be non-empty" if limit == 1 else "is too short"


def compile_schema(root: dict):
    """The pair (accepts, errors) of ``root``; see the module docstring."""
    defs = root.get("$defs", {})
    built: dict[str, tuple] = {}

    def ref(target: str):
        """The pair of the ``$defs`` entry of root that target names, built
        once."""
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise InternalError(f"schema: unsupported $ref {target!r}")
        if name not in built:
            built[name] = build(defs[name])
        return built[name]

    def descend(schema, steps=()):
        """The pair of a subschema that the keyword at schema path sp reaches
        for the value at instance path at + key, with its writer taking
        (x, at, sp, out, key): its errors lie at schema path sp + steps.
        jsonschema drops both steps for a false subschema, whose one error
        lies at at and sp."""
        accepts, write = build(schema)
        if schema is False:
            return accepts, lambda x, at, sp, out, key=(): write(x, at, sp, out)
        return accepts, lambda x, at, sp, out, key=(): write(x, at + key, sp + steps, out)

    def build(schema):
        """(accepts, write) of a subschema: accepts(x) is its predicate, and
        write(x, at, sp, out) appends to out an error record (message,
        keyword, schema path, schema, instance path) for each error of x,
        which sits at instance path at and meets schema at schema path sp."""
        if schema is True:
            return (lambda x: True), (lambda x, at, sp, out: None)
        if schema is False:
            return (lambda x: False), (lambda x, at, sp, out: out.append(
                (f"False schema does not allow {x!r}", None, sp, False, at)))
        _known(schema)
        checks, writes = [], []

        def add(accepts, write) -> None:
            checks.append(accepts)
            writes.append(write)

        def leaf(keyword: str, test, message):
            """Register keyword's writer, which appends message(x) where
            test(x), the keyword's pass test, fails; return test."""
            def write(x, at, sp, out):
                if not test(x):
                    out.append((message(x), keyword, (*sp, keyword), schema, at))

            writes.append(write)
            return test

        has_object = any(k in schema for k in _OBJECT)
        has_array = any(k in schema for k in _ARRAY)
        name = schema.get("type")
        if "type" in schema:
            is_type = leaf("type", _type_test(name), lambda x: f"{x!r} is not of type {name!r}")
            # the object or array check below tests its own type
            if not (name == "object" and has_object or name == "array" and has_array):
                checks.append(is_type)
        if "const" in schema:
            (const,) = _strings([schema["const"]], "const")
            checks.append(leaf("const", lambda x: isinstance(x, str) and x == const,
                               lambda x: f"{const!r} was expected"))
        if "enum" in schema:
            values = schema["enum"]
            enum = _strings(values, "enum")
            checks.append(leaf("enum", lambda x: isinstance(x, str) and x in enum,
                               lambda x: f"{x!r} is not one of {values!r}"))
        if "minimum" in schema:
            low = schema["minimum"]
            checks.append(leaf("minimum", lambda x: not (_is_number(x) and x < low),
                               lambda x: f"{x!r} is less than the minimum of {low!r}"))
        if "exclusiveMinimum" in schema:
            low_ex = schema["exclusiveMinimum"]
            checks.append(leaf(
                "exclusiveMinimum", lambda x: not (_is_number(x) and x <= low_ex),
                lambda x: f"{x!r} is less than or equal to the minimum of {low_ex!r}"))
        if "minLength" in schema:
            min_len = schema["minLength"]
            checks.append(leaf("minLength",
                               lambda x: not (isinstance(x, str) and len(x) < min_len),
                               lambda x: f"{x!r} {_short(min_len)}"))
        if has_object:
            add(*object_pair(schema, name))
        if has_array:
            add(*array_pair(schema, name))
        if "oneOf" in schema:
            branches = [(sub, build(sub)[0]) for sub in schema["oneOf"]]

            def one_of(x):
                hits = 0
                for _, sub_accepts in branches:
                    if sub_accepts(x):
                        hits += 1
                        if hits > 1:
                            return False
                return hits == 1

            def one_of_message(x):
                valid = [sub for sub, sub_accepts in branches if sub_accepts(x)]
                if not valid:
                    return f"{x!r} is not valid under any of the given schemas"
                named = ", ".join(map(repr, [*valid[1:], valid[0]]))  # the first named last
                return f"{x!r} is valid under each of {named}"

            checks.append(leaf("oneOf", one_of, one_of_message))
        if "allOf" in schema:
            parts = [descend(sub, (i,)) for i, sub in enumerate(schema["allOf"])]

            def all_of(x, at, sp, out):
                for _, write_part in parts:
                    write_part(x, at, (*sp, "allOf"), out)

            add(_conjunction([sub_accepts for sub_accepts, _ in parts]), all_of)
        if "if" in schema:  # a "then" without "if" is ignored, as jsonschema does
            cond = build(schema["if"])[0]
            # "if" is no step of the schema path, "then" is
            then, write_then = descend(schema.get("then", True), ("then",))
            add(lambda x: not cond(x) or then(x),
                lambda x, at, sp, out: cond(x) and write_then(x, at, sp, out))
        if "$ref" in schema:  # nor is "$ref"
            add(*ref(schema["$ref"]))

        def write(x, at, sp, out):
            for each in writes:
                each(x, at, sp, out)

        return (_conjunction(checks) if checks else (lambda x: True)), write

    def object_pair(schema: dict, name):
        """The pair of the object keywords of schema.  A value that is no
        object fails them when the schema's type is object, and passes
        otherwise."""
        typed = name == "object"
        required = tuple(schema.get("required", ()))
        props = {key: descend(sub, (key,)) for key, sub in schema.get("properties", {}).items()}
        extra = schema.get("additionalProperties", True)
        other, write_other = descend(extra) if "additionalProperties" in schema else (None, None)
        checks = {key: sub_accepts for key, (sub_accepts, _) in props.items()}

        def accepts(x):
            if not isinstance(x, dict):
                return not typed
            for key in required:
                if key not in x:
                    return False
            for key, value in x.items():
                check = checks.get(key, other)
                if check is not None and not check(value):
                    return False
            return True

        def write(x, at, sp, out):
            if not isinstance(x, dict):
                return
            for key in required:
                if key not in x:
                    out.append((f"{key!r} is a required property", "required",
                                (*sp, "required"), schema, at))
            extras = []
            for key, value in x.items():
                if key in props:
                    props[key][1](value, at, (*sp, "properties"), out, (key,))
                elif extra is False:
                    extras.append(key)
                elif write_other is not None:
                    write_other(value, at, (*sp, "additionalProperties"), out, (key,))
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                out.append((f"Additional properties are not allowed "
                            f"({', '.join(map(repr, sorted(extras)))} {verb} unexpected)",
                            "additionalProperties", (*sp, "additionalProperties"), schema, at))

        return accepts, write

    def array_pair(schema: dict, name):
        """The pair of the array keywords of schema, typed as in
        object_pair."""
        typed = name == "array"
        low = schema.get("minItems", 0)
        high = schema.get("maxItems")
        items = schema.get("items", True)
        item, write_item = descend(items) if "items" in schema else (None, None)

        def accepts(x):
            if not isinstance(x, list):
                return not typed
            if len(x) < low or (high is not None and len(x) > high):
                return False
            return item is None or all(map(item, x))

        def write(x, at, sp, out):
            if not isinstance(x, list):
                return
            if len(x) < low:
                out.append((f"{x!r} {_short(low)}", "minItems", (*sp, "minItems"), schema, at))
            if high is not None and len(x) > high:
                long = "is expected to be empty" if high == 0 else "is too long"
                out.append((f"{x!r} {long}", "maxItems", (*sp, "maxItems"), schema, at))
            if items is False and x:  # one error about the extra items
                extra = x[0] if len(x) == 1 else x
                out.append((f"Expected at most 0 items but found {len(x)} extra: {extra!r}",
                            "items", (*sp, "items"), schema, at))
            elif write_item is not None:
                for i, value in enumerate(x):
                    write_item(value, at, (*sp, "items"), out, (i,))

        return accepts, write

    accepts_root, write_root = build(root)

    def errors(instance) -> list[str]:
        out: list = []
        write_root(instance, (), (), out)
        tied = Counter(message for message, *_ in out)
        out.sort(key=lambda error: (error[0], _str_tail(error) if tied[error[0]] > 1 else ""))
        return [f"{'/'.join(map(str, at)) or '<root>'}: {message}" for message, *_, at in out]

    return accepts_root, errors


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
