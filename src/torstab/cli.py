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

The fixed cost of a document is kept small: an argv that names a command
first is read by that command's parser directly, not through argparse's
subparser action; a file is read as bytes and decoded in one step; and one
JSON decoder and one encoder serve every document.

A call loads only the layers its documents use: each runner imports its
own analysis layer when it starts (``stability`` and ``kempf-ness`` the
classifier with the exact polytope stack under it, ``stratify`` also the
stratification, ``shb`` the Hodge-bundle model, ``kuranishi`` the graded
Kuranishi maps), so ``import torstab.cli`` and ``validate`` load none of
them.  numpy is loaded only by the float layers (Kempf-Ness, the Green's
operator, the brute-force scan) and by ``gen``.  The problem schema is
judged, and a rejected document's error list written, by ``schema_check``,
so no call loads jsonschema.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING

from .errors import InternalError, NotStableError, TorstabError, ValidationError

if TYPE_CHECKING:
    from .shb_model import SHBSpec
    from .torus_rep import RepVector

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


def _frac(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _cplx(z: complex):
    z = complex(z)
    return [z.real, z.imag]


# json.dumps builds an encoder on every call that passes it settings; _dump
# reuses this one
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, check_circular=False)


def _dump(doc: dict) -> str:
    """One compact line with sorted keys, written by json's C encoder (which
    json uses only without ``indent``).  Strings escape every control
    character, so a report never spans two lines.  A non-finite float,
    which is not JSON, raises ValueError: an internal error, since the
    runners refuse such values by field.  A report is a tree built for its
    document, so the encoder keeps no record of the containers it is in; a
    cycle, which would be a bug, ends in RecursionError, also an internal
    error."""
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
# payload -> domain objects


def _amp(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def _fits(convert, value, field: str):
    """convert(value), refusing an integer too large for a float by field."""
    try:
        return convert(value)
    except OverflowError:
        raise ValidationError([f"{field} is too large for a float"]) from None


def rep_from_payload(payload: dict) -> RepVector:
    from .torus_rep import RepVector, WeightLine

    # the schema's integers include integral floats such as 1.0; the exact
    # layers take ints
    lines = tuple(
        WeightLine(
            ln["label"],
            tuple(map(int, ln["weight"])),
            rho=None if ln.get("rho") is None else int(ln["rho"]),
            norm2=_fits(float, ln.get("norm2", 1.0), f"line {ln['label']!r}: norm2"),
        )
        for ln in payload["lines"]
    )
    amps = {lab: _fits(_amp, v, f"amplitude of line {lab!r}")
            for lab, v in payload["amplitudes"].items()}
    return RepVector(lines, amps)


# every integer of absolute value at most 2**53 is exactly a float
_FLOAT_EXACT = 2**53


def _float_weights(payload: dict) -> None:
    """Refuse, by line, a weight that the Kempf-Ness layer cannot read as a
    float exactly; the exact layers read weights as ints and need no such
    check."""
    for ln in payload["lines"]:
        if any(abs(c) > _FLOAT_EXACT for c in ln["weight"]):
            raise ValidationError([f"line {ln['label']!r}: weight is too large for a float"])


def _kn_floats(values) -> None:
    """Refuse a Kempf-Ness report whose numbers a float cannot hold: the
    amplitudes and norms are so large that the functional's value, or its
    gradient, overflows."""
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(["amplitudes and norm2: the Kempf-Ness functional overflows a float"])


def shb_from_payload(payload: dict) -> SHBSpec:
    from .shb_model import SHBSpec, StableBlock

    blocks = tuple(
        StableBlock(
            tuple(map(int, b["ranks"])), tuple(map(int, b["degrees"])), tag=b.get("tag", "")
        )
        for b in payload["blocks"]
    )
    return SHBSpec(int(payload["genus"]), blocks)


# ---------------------------------------------------------------------------
# runners


def run_document(doc: dict, tol: float = 1e-10, convention: str | None = None,
                 emit_certificates: bool = True, box_bound: int | None = None,
                 seed: int | None = None):
    """Dispatch a validated document; returns (report_dict, exit_code).  The
    runners read one settings mapping: the flags, under the document's options."""
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
    runner = {
        "stability": _run_stability,
        "kempf-ness": _run_kempf_ness,
        "stratify": _run_stratify,
        "shb": _run_shb,
        "kuranishi": _run_kuranishi,
    }[kind]
    try:
        options["tol"] = _fits(float, options["tol"], "options.tol")
        _judge_flags(options["tol"], options["box_bound"], options["seed"])
        body = runner(doc["payload"], options)
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


def _certificate_doc(res, emit: bool):
    if not emit:
        return {}
    cert: dict = {"weights": [list(w) for w in res.weights]}
    if res.combination is not None:
        cert["combination"] = [_frac(a) for a in res.combination]
    if res.flat_lattice is not None:
        cert["flat_lattice"] = [list(b) for b in res.flat_lattice.basis]
    if res.cocharacter is not None:
        cert["cocharacter"] = list(res.cocharacter)
    return {"certificate": cert}


def _run_stability(payload, options):
    from .stability import classify, destabilizer_bruteforce, witness_bound

    v = rep_from_payload(payload)
    res = classify(v)
    body = {"class": res.stability, "certificate_verified": res.verify()}
    body.update(_certificate_doc(res, options["emit_certificates"]))
    box_bound = options["box_bound"]
    if box_bound is not None:
        witness = destabilizer_bruteforce(v, box_bound)
        body["bruteforce_witness"] = None if witness is None else list(witness)
        body["box_sound"] = witness_bound(res.weights) <= box_bound
    return body


def _run_kempf_ness(payload, options):
    from .kempf_ness import KNProblem, kn_minimize
    from .stability import classify

    _float_weights(payload)
    v = rep_from_payload(payload)
    cls = classify(v)  # refuses the zero vector as a stability document does
    res = kn_minimize(KNProblem.from_vector(v), cls, tol=options["tol"])
    body = {"status": res.status}
    if res.minimizer is not None:
        body["minimizer"] = [float(c) for c in res.minimizer]
        body["gradient_norm"] = res.gradient_norm
    if res.value is not None:
        body["value"] = res.value
    _kn_floats([*body.get("minimizer", ()), body.get("gradient_norm", 0.0), res.value])
    if res.flat_space is not None:
        body["flat_space"] = [list(b) for b in res.flat_space.basis]
    if res.descent_ray is not None:
        body["descent_ray"] = list(res.descent_ray)
    body.update(_certificate_doc(cls, options["emit_certificates"]))
    return body


def _run_stratify(payload, options):
    from .stratify import stage_kn_minimizers, stratify, verify_decomposition
    from .torus_rep import Subtorus

    _float_weights(payload)
    v = rep_from_payload(payload)
    torus = None
    if "subtorus" in payload:
        from .qexact import Lattice

        rank = int(payload["rank"])
        torus = Subtorus(
            rank, Lattice(rank, tuple(tuple(map(int, r)) for r in payload["subtorus"]))
        )
    res = stratify(v, torus=torus, sigma_multiple=int(options["sigma_multiple"]))
    verification = verify_decomposition(res, v)
    stages = []
    for st in res.stages:
        stages.append(
            {
                "index": st.index,
                "torus_basis": [list(b) for b in st.torus.basis],
                "nu_labels": list(st.nu_labels),
                "s_labels": list(st.s_labels),
                "c": _frac(st.c),
                "x_stage": [_frac(c) for c in st.x_stage],
                "d": st.d,
            }
        )
    body = {
        "x": list(res.x),
        "sigma": res.sigma,
        "num_stages": res.num_stages,
        "d_ladder": list(res.d_ladder),
        "stages": stages,
        "residual_labels": list(res.residual_labels),
        "exponents": dict(sorted(res.exponents.items())),
        "tori_dims": [t.dim for t in res.tori],
        "verification": {
            "all_ok": verification.all_ok,
            "checks": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in verification.checks
            ],
        },
    }
    minimizers = []
    for kn, rescaled in stage_kn_minimizers(res, tol=options["tol"]):
        entry = {"status": kn.status}
        if kn.minimizer is not None:
            entry["minimizer"] = [float(c) for c in kn.minimizer]
        if kn.value is not None:
            entry["value"] = kn.value
        entry["rescaled_amplitudes"] = {k: _cplx(z) for k, z in sorted(rescaled.items())}
        _kn_floats([*entry.get("minimizer", ()), kn.value or 0.0,
                    *(c for z in entry["rescaled_amplitudes"].values() for c in z)])
        minimizers.append(entry)
    body["stage_minimizers"] = minimizers
    return body


def _run_shb(payload, options):
    from . import shb_model

    convention = options["convention"] or shb_model.DEFAULT
    shb = shb_from_payload(payload)
    block_ranks = shb.block_ranks()
    body: dict = {
        "total_rank": shb.total_rank,
        "genus": shb.genus,
        "abelian": shb.abelian,
        "block_ranks": list(block_ranks),
    }
    if shb.total_rank >= 2:
        body["expected_dim_central_locus"] = shb_model.expected_dim_central_locus(
            shb.total_rank, shb.genus
        )
    # the full central-locus dimension, read once: the one-part partition's
    full = shb_model.partition_dim(shb_model.PartitionP((tuple(range(shb.k)),)),
                                   block_ranks, shb.genus)
    table = []
    for p in shb_model.partitions_with_order(shb).partitions:
        dim = shb_model.partition_dim(p, block_ranks, shb.genus)
        table.append(
            {
                "parts": [list(part) for part in p.parts],
                "dim": dim,
                "proper": not p.is_trivial,
                "strictly_below_central": dim < full,
            }
        )
    body["partition_table"] = table
    if shb.abelian:
        torus = shb_model.automorphism_torus(shb)
        body["automorphism_torus"] = {
            "rank": torus.rank,
            "relation_character": list(torus.relation_character),
            "cocharacter_basis": [list(b) for b in torus.subtorus.basis],
        }
        body["positive_slice"] = [
            {"label": ln.label, "weight": list(ln.weight), "rho": ln.rho}
            for ln in shb_model.positive_slice_lines(shb, convention)
        ]
        if shb.k >= 2:
            cyc, verdict = shb_model.cyclic_phi_weights(shb, convention, torus)
            body["cyclic_phi"] = {
                "stability": verdict.stability,
                "restricted_weights": sorted(
                    [list(w) for w in cyc.effective_g_weights()]
                ),
            }
    if "x" in payload:
        # the table reads only the index classes and x, a cocharacter of the
        # block-scalar torus that every system has
        table_obj = shb_model.conformal_degree_table(
            shb, [int(c) for c in payload["x"]], int(payload.get("sigma", 1)), convention
        )
        body["conformal_degrees"] = {
            f"{cod[0]}.{cod[1]}|{dom[0]}.{dom[1]}": deg
            for (cod, dom), deg in sorted(table_obj.entries.items())
        }
    return body


def _run_kuranishi(payload, options):
    import numpy as np

    from .graded_kuranishi import (
        check_report_floats,
        complex_from_payload,
        greens_operator,
        gvec_norm,
        input_from_payload,
        kuranishi_forward,
        kuranishi_inverse_graded,
        obstruction,
    )

    # an overflow is refused by field below, so numpy must not warn about it
    with np.errstate(all="ignore"):
        cx = complex_from_payload(payload)
        greens = greens_operator(cx)
        body: dict = {
            "grades": list(cx.grades),
            "dims": {str(g): list(cx.dims[g]) for g in cx.grades},
            "greens_status": greens.status,
            "greens_condition": greens.condition,
        }
        if "input" in payload:
            x = input_from_payload(payload["input"], cx)
        else:
            seed = int(options["seed"])
            rng = np.random.default_rng(seed)
            x = {
                g: rng.normal(size=cx.n1(g)) + 1j * rng.normal(size=cx.n1(g))
                for g in cx.grades
                if g > 0
            }
            body["input_seed"] = seed
        u = kuranishi_inverse_graded(cx, x, greens)
        back = kuranishi_forward(cx, u, greens)
        diff = {g: back.get(g, 0) - x.get(g, 0) for g in set(back) | set(x)}
        denom = max(gvec_norm(x), 1e-30)
        body["round_trip_residual"] = gvec_norm(diff) / denom
        body["obstruction_norm"] = gvec_norm(obstruction(cx, x, greens))
    body["inverse"] = {
        str(g): [_cplx(z) for z in arr] for g, arr in sorted(u.items())
    }
    check_report_floats(body)
    return body


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


@lru_cache(maxsize=1)
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each command, built once."""
    ap = argparse.ArgumentParser(
        prog="torstab",
        description="stability, Kempf-Ness, stratification, Hodge-bundle "
        "combinatorics, and graded Kuranishi analysis on JSON problem files",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="validate and analyze problem files")
    runp.add_argument("--input", nargs="+", required=True, help="problem JSON files")
    runp.add_argument("--format", choices=["json", "text"], default="json")
    runp.add_argument("--tol", type=float, default=1e-10)
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--convention", choices=["default", "flipped"], default=None)
    runp.add_argument(
        "--emit-certificates", choices=["true", "false"], default="true"
    )
    runp.add_argument("--box-bound", type=int, default=None,
                      help="also run the brute-force destabilizer scan")

    valp = sub.add_parser("validate", help="validate problem files only")
    valp.add_argument("--input", nargs="+", required=True)

    genp = sub.add_parser("gen", help="emit one seeded random problem instance")
    genp.add_argument("--kind", required=True,
                      choices=["stability", "kempf-ness", "stratify", "shb", "kuranishi"])
    genp.add_argument("--seed", type=int, default=0)
    genp.add_argument("--out", default=None, help="write the instance here")
    return ap, {"run": runp, "validate": valp, "gen": genp}


def _parse_args(argv) -> argparse.Namespace:
    """The top-level parser's parse_args(argv): the same result, messages
    and exits.
    When argv names a command first, that command's parser reads the rest
    directly: argparse's way, through the subparser action, passes over the
    arguments twice.  Arguments the command does not know are refused by
    the top-level parser, as argparse refuses them; any other argv (none,
    -h, an unknown command) takes the full parse."""
    if argv is None:
        argv = sys.argv[1:]
    ap, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return ap.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        ap.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


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
