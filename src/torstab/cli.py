"""Batch front-end: validate JSON problem specifications, dispatch to the
analysis modules, and emit machine- or human-readable reports.

Exit codes: 0 on success, 2 when a TorstabError refuses the input (a
ValidationError where the input is judged, or a precondition such as a
non-stable stratification input) or a file cannot be read or written, 1
for any other exception, which is a bug in this library.  Reports are deterministic: rerunning the same
specification reproduces them byte for byte, and exact rationals are
serialized as integers or "p/q" strings, never as floats.

JSON output is JSON Lines: ``run`` writes one compact, key-sorted line per
input document, in input order, and ``gen`` writes its instance as one such
line.  Pretty-print it with ``python -m json.tool --json-lines``.

The fixed cost of a document is kept small.  Each command's flags are
declared once, in COMMANDS.  A well-formed argv (a command, then flags
spelled out in full with their values) is read against that table
directly, and argparse, built from the same table, reads every other argv
and writes the help and the errors, so ``import torstab.cli`` and a
well-formed call load no argparse.  A file is read as bytes and decoded in
one step, and one JSON decoder and one encoder serve every document.

Each kind's analysis layer holds its runner, report(payload, options),
and KINDS maps the kind to that layer.  A call loads only the layers its
documents use: a layer is imported when the first document of its kind
runs (``stability`` the classifier with the exact polytope stack under
it, ``kempf-ness`` also the Kempf-Ness layer, ``stratify`` also the
stratification, ``shb`` the Hodge-bundle model, ``kuranishi`` the graded
Kuranishi maps), so ``import torstab.cli`` and ``validate`` load none of
them.  numpy is loaded only by the float layers (Kempf-Ness, the Green's
operator, the brute-force scan) and by ``gen``.  The problem schema is
judged, and a rejected document's error list written, by ``schema_check``,
so no call loads jsonschema.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from importlib import import_module, resources
from types import SimpleNamespace

from .errors import InternalError, NotStableError, TorstabError, ValidationError, fits

SCHEMA_VERSION = "1"


def _load_schema(name: str) -> dict:
    text = resources.files("torstab.schemas").joinpath(name).read_text()
    return json.loads(text)


@lru_cache(maxsize=1)
def problem_validator():
    """The pair (accepts, errors) compiled from the problem schema in one
    walk (``schema_check.compile_schema``): accepts(doc) is True exactly
    when jsonschema finds no error, and errors(doc) writes jsonschema's
    errors as sorted ``path: message`` lines.  validate_document calls
    errors only on a document accepts rejects."""
    from .schema_check import compile_schema

    return compile_schema(_load_schema("problem.schema.json"))


# ---------------------------------------------------------------------------
# serialization helpers


# json.dumps builds an encoder on every call that passes it settings; _dump
# reuses this one
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, check_circular=False)


def _dump(doc: dict) -> str:
    """One compact line with sorted keys, written by json's C encoder (which
    json uses only without ``indent``).  Strings escape every control
    character, so a report never spans two lines.  A non-finite float,
    which is not JSON, raises ValueError: an internal error, since each
    kind's report refuses such values by field.  A report is a tree built
    for its document, so the encoder keeps no record of the containers it
    is in; a cycle, which would be a bug, ends in RecursionError, also an
    internal error."""
    return _ENCODER.encode(doc) + "\n"


# ---------------------------------------------------------------------------
# validation


def _non_finite(token: str):
    raise ValidationError([f"parse error: {token} is not a finite number"])


def _finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):  # a literal such as 1e400 overflows to inf
        _non_finite(token)
    return x


_DECODER = json.JSONDecoder(parse_constant=_non_finite, parse_float=_finite_float)


def _loads(text: str):
    """json.loads(text) with the two hooks above, through one reused decoder
    (json.loads builds one per call that passes it hooks).  JSONDecoder.decode
    leaves out json.loads' refusal of a leading byte order mark, so it is
    made here, with json.loads' message."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _DECODER.decode(text)


# the deepest a rejected document may nest, in containers, for its error
# messages, which print the rejected values, to be written
MAX_NESTING = 256


def _nests_deeper(doc, limit: int) -> bool:
    """Whether doc nests more than limit containers deep, read level by
    level without recursion."""
    level = [doc]
    for _ in range(limit):  # after round i, level holds the values i containers deep
        level = [v for node in level if isinstance(node, (dict, list))
                 for v in (node.values() if isinstance(node, dict) else node)]
    return any(isinstance(node, (dict, list)) for node in level)


def validate_document(text: str) -> dict:
    """Parse and fully validate a problem document, collecting every schema
    and semantic violation instead of stopping at the first.

    Validity against the problem schema is judged by the predicate of
    problem_validator()'s pair; the pair's error writer runs only on a
    document the predicate rejects, to write the sorted list of messages.
    NaN, Infinity and overflowing literals, which Python's json module
    turns into floats, are parse errors, and so are nesting too deep for
    the parser and a rejected document nested more than MAX_NESTING deep."""
    try:
        doc = _loads(text)
        accepts, write_errors = problem_validator()
        accepted = accepts(doc)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except RecursionError as exc:
        raise ValidationError(["parse error: the document nests too deeply"]) from exc
    if not accepted:
        if _nests_deeper(doc, MAX_NESTING):
            raise ValidationError(["parse error: the document nests too deeply"])
        errors = write_errors(doc)
        if not errors:
            raise InternalError("the schema predicate rejects a document the error writer passes")
        raise ValidationError(errors)
    semantic = _semantic_errors(doc)
    if semantic:
        raise ValidationError(semantic)
    return doc


def _read_document(path: str) -> dict:
    """Read one problem file as UTF-8 and validate it.  A file that cannot
    be read is a read error and bytes that do not decode are a parse error,
    like any other bad input.  The bytes are read and decoded in one step,
    which is cheaper than a text-mode file, and the newlines are then
    translated as text mode translates them: CR LF and a lone CR become LF."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError([f"parse error: {exc}"]) from exc
    except OSError as exc:
        raise ValidationError([f"read error: {exc}"]) from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return validate_document(text)


def _semantic_errors(doc: dict) -> list[str]:
    kind = doc["kind"]
    payload = doc["payload"]
    errors: list[str] = []
    if kind in ("stability", "kempf-ness", "stratify"):
        rank = payload["rank"]
        labels = set()
        for ln in payload["lines"]:
            lab = ln["label"]
            if lab in labels:
                errors.append(f"line {lab!r}: duplicate label")
            labels.add(lab)
            if len(ln["weight"]) != rank:
                errors.append(
                    f"line {lab!r}: weight has {len(ln['weight'])} entries, expected rank {rank}"
                )
            if kind == "stratify":
                if "rho" not in ln:
                    errors.append(f"line {lab!r}: rho must be >= 1 (missing)")
                elif ln["rho"] < 1:
                    errors.append(f"line {lab!r}: rho must be >= 1")
        for lab in payload["amplitudes"]:
            if lab not in labels:
                errors.append(f"amplitude for unknown line {lab!r}")
        if kind == "stratify":
            for row in payload.get("subtorus", []):
                if len(row) != rank:
                    errors.append(f"subtorus basis vector {row} has wrong dimension")
    elif kind == "shb":
        for i, blk in enumerate(payload["blocks"]):
            if len(blk["ranks"]) != len(blk["degrees"]):
                errors.append(f"block {i}: ranks and degrees must have equal length")
            elif sum(blk["degrees"]) != 0:
                errors.append(f"block {i}: degrees must sum to zero")
        if "x" in payload and len(payload["x"]) != len(payload["blocks"]):
            errors.append("x must have one entry per block")
        if "sigma" in payload and "x" not in payload:
            errors.append("sigma is given without x")
    elif kind == "kuranishi":
        explicit = {"grades", "dims", "d0", "d1"}
        if "generator" in payload:
            if explicit & payload.keys():
                errors.append("give either a generator or explicit data, not both")
        elif not explicit <= payload.keys():
            missing = sorted(explicit - payload.keys())
            errors.append(f"explicit complex needs {', '.join(missing)}")
    return errors


# ---------------------------------------------------------------------------
# dispatch

# the kinds, in the schema's order, and the module whose
# report(payload, options) writes each kind's report body; the module is
# imported when the first document of its kind runs
KINDS = {
    "stability": "stability",
    "kempf-ness": "kempf_ness",
    "stratify": "stratify",
    "shb": "shb_model",
    "kuranishi": "graded_kuranishi",
}


def run_document(doc: dict, tol: float = 1e-10, convention: str | None = None,
                 emit_certificates: bool = True, box_bound: int | None = None,
                 seed: int | None = None):
    """Run a validated document through its kind's report (KINDS); returns
    (report_dict, exit_code).  report reads one settings mapping: the flags,
    under the document's options."""
    kind = doc["kind"]
    options = {
        "tol": tol,
        "convention": convention,
        "emit_certificates": emit_certificates,
        "box_bound": box_bound,
        "seed": 0 if seed is None else seed,
        "sigma_multiple": 1,
        **doc.get("options", {}),
    }
    if options["box_bound"] is not None:
        options["box_bound"] = int(options["box_bound"])
    try:
        options["tol"] = fits(float, options["tol"], "options.tol")
        _judge_flags(options["tol"], options["box_bound"], options["seed"])
        body = import_module(f".{KINDS[kind]}", __package__).report(doc["payload"], options)
        status, code = "ok", 0
    except TorstabError as exc:
        body = {"reason": str(exc)}
        if isinstance(exc, NotStableError) and exc.result is not None:
            body["stability"] = exc.result.stability
            if exc.result.cocharacter is not None:
                body["destabilizing_cocharacter"] = list(exc.result.cocharacter)
        status, code = "rejected", 2
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "status": status,
        "report": body,
    }, code


def _judge_flags(tol: float = 1e-10, box_bound: int | None = None, seed: int = 0):
    """Refuse tol, box_bound and seed outside the schema's bounds (0 < tol <
    inf, box_bound >= 1, seed >= 0), whether they come from options or from
    flags, before any kind runs or `gen` draws."""
    errors = []
    if not 0 < tol < math.inf:
        errors.append("tol must be positive" if tol <= 0 else "tol must be finite")
    if box_bound is not None and box_bound < 1:
        errors.append("box_bound must be >= 1")
    if seed < 0:
        errors.append("seed must be >= 0")
    if errors:
        raise ValidationError(errors)


# ---------------------------------------------------------------------------
# text rendering


def render_text(report: dict) -> str:
    lines = [f"kind: {report['kind']}", f"status: {report['status']}"]

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(report["report"], 1)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# instance generator


def generate_instance(kind: str, seed: int) -> dict:
    """A random problem instance of the given kind, drawn from seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    if kind in ("stability", "kempf-ness"):
        rank = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        lines = [
            {
                "label": f"l{j}",
                "weight": [int(w) for w in rng.integers(-4, 5, size=rank)],
            }
            for j in range(n)
        ]
        amps = {
            ln["label"]: [float(rng.normal()), float(rng.normal())] for ln in lines
        }
        payload = {"rank": rank, "lines": lines, "amplitudes": amps}
    elif kind == "stratify":
        from .stability import STABLE, classify
        from .torus_rep import rep_from_payload

        rank = int(rng.integers(1, 3))
        while True:
            n = int(rng.integers(rank + 1, 7))
            lines = [
                {
                    "label": f"l{j}",
                    "weight": [int(w) for w in rng.integers(-3, 4, size=rank)],
                    "rho": int(rng.integers(1, 5)),
                }
                for j in range(n)
            ]
            amps = {
                ln["label"]: [float(rng.normal()), float(rng.normal())]
                for ln in lines
            }
            payload = {"rank": rank, "lines": lines, "amplitudes": amps}
            v = rep_from_payload(payload)
            if classify(v).stability == STABLE:
                break
    elif kind == "shb":
        k = int(rng.integers(1, 4))
        blocks = []
        for j in range(k):
            r = int(rng.integers(1, 4))
            if r == 1:
                blocks.append({"ranks": [1], "degrees": [0], "tag": f"b{j}"})
            else:
                blocks.append(
                    {"ranks": [1, r - 1], "degrees": [1, -1], "tag": f"b{j}"}
                )
        payload = {"genus": int(rng.integers(2, 5)), "blocks": blocks}
    elif kind == "kuranishi":
        payload = {
            "generator": {
                "seed": int(seed),
                "grades": [1, 2, 3, 4],
                "max_dim": int(rng.integers(2, 6)),
            }
        }
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}


# ---------------------------------------------------------------------------
# entry point


# Each command's help and flags, read by both of the command parses below.
# A flag is (flag, dest, type, choices, default, help); type None keeps the
# string, a default of REQUIRED makes the flag required, and --input takes
# one or more values where every other flag takes one.
REQUIRED = object()
COMMANDS = {
    "run": ("validate and analyze problem files", (
        ("--input", "input", None, None, REQUIRED, "problem JSON files"),
        ("--format", "format", None, ("json", "text"), "json", None),
        ("--tol", "tol", float, None, 1e-10, None),
        ("--seed", "seed", int, None, 0, None),
        ("--convention", "convention", None, ("default", "flipped"), None, None),
        ("--emit-certificates", "emit_certificates", None, ("true", "false"), "true", None),
        ("--box-bound", "box_bound", int, None, None,
         "also run the brute-force destabilizer scan"),
    )),
    "validate": ("validate problem files only", (
        ("--input", "input", None, None, REQUIRED, None),
    )),
    "gen": ("emit one seeded random problem instance", (
        ("--kind", "kind", None, tuple(KINDS), REQUIRED, None),
        ("--seed", "seed", int, None, 0, None),
        ("--out", "out", None, None, None, "write the instance here"),
    )),
}
_FLAGS = {command: {f[0]: f for f in flags} for command, (_, flags) in COMMANDS.items()}


@lru_cache(maxsize=1)
def _parser():
    """The argparse parser of COMMANDS, built once; it reads every argv
    that _read_argv declines, and writes the help and the errors."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="torstab",
        description="stability, Kempf-Ness, stratification, Hodge-bundle "
        "combinatorics, and graded Kuranishi analysis on JSON problem files",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (about, flags) in COMMANDS.items():
        parser = sub.add_parser(command, help=about)
        for flag, dest, type_, choices, default, help_text in flags:
            required = default is REQUIRED
            parser.add_argument(flag, dest=dest, type=type_, choices=choices,
                                nargs="+" if flag == "--input" else None,
                                required=required, default=None if required else default,
                                help=help_text)
    return ap


def _read_argv(argv):
    """argv read against COMMANDS as argparse reads it, when it is well
    formed: a command, then flags spelled out in full, each followed by its
    values, none of which starts with "-".  Returns None for any argv it
    does not read completely: an abbreviated flag, --flag=value, -h, --, a
    value starting with "-", a value its type refuses or outside its
    choices, a missing required flag, or an unknown command or token."""
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    values = {}
    i, n = 1, len(argv)
    while i < n:
        flag = flags.get(argv[i])
        if flag is None:
            return None
        name, dest, type_, choices, _, _ = flag
        many = name == "--input"
        j = i + 1
        while j < n and argv[j][:1] != "-" and (many or j == i + 1):
            j += 1
        if j == i + 1:
            return None
        try:
            read = [v if type_ is None else type_(v) for v in argv[i + 1:j]]
        except ValueError:
            return None
        if choices is not None and read[0] not in choices:
            return None
        values[dest] = read if many else read[0]
        i = j
    args = {"command": argv[0]}
    for _, dest, _, _, default, _ in flags.values():
        args[dest] = values.get(dest, default)
        if args[dest] is REQUIRED:
            return None
    return SimpleNamespace(**args)


def _parse_args(argv):
    """What the top-level argparse parser's parse_args(argv) returns, or
    the help or error it writes and the exit it takes.  A well-formed argv
    is read by _read_argv, without argparse; any other goes to argparse."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.command == "validate":
            worst = 0
            for path in args.input:
                try:
                    _read_document(path)
                    print(f"{path}: valid")
                except ValidationError as exc:
                    worst = 2
                    for msg in exc.errors:
                        print(f"{path}: {msg}")
            return worst

        if args.command == "gen":
            try:
                _judge_flags(seed=args.seed)
            except ValidationError as exc:
                print(f"refused: {exc}", file=sys.stderr)
                return 2
            text = _dump(generate_instance(args.kind, args.seed))
            if args.out:
                try:
                    with open(args.out, "w") as fh:
                        fh.write(text)
                except OSError as exc:  # like an unreadable --input, not a bug
                    print(f"write error: {exc}", file=sys.stderr)
                    return 2
            else:
                sys.stdout.write(text)
            return 0

        # run
        worst = 0
        for path in args.input:
            try:
                doc = _read_document(path)
            except ValidationError as exc:
                report = {
                    "schema_version": SCHEMA_VERSION,
                    "kind": "unknown",
                    "status": "rejected",
                    "report": {"validation_errors": exc.errors},
                }
                code = 2
            else:
                report, code = run_document(
                    doc,
                    tol=args.tol,
                    convention=args.convention,
                    emit_certificates=args.emit_certificates == "true",
                    box_bound=args.box_bound,
                    seed=args.seed,
                )
            worst = max(worst, code)
            if args.format == "json":
                sys.stdout.write(_dump(report))
            else:
                sys.stdout.write(render_text(report))
        return worst
    except BrokenPipeError:
        return 1
    except Exception as exc:  # internal error: anything not handled above
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
