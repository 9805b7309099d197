#!/usr/bin/env python3
"""Compare two corpus dumps of `scripts/corpus_digest.py --dump` and check
that only floats moved.

    python3 scripts/corpus_diff.py PARENT.jsonl CHANGE.jsonl

Exits 1, naming the first differences, when the two dumps list different
documents, or a document's exit code, or any key, list length, string,
int, bool or null of its report differs (an int on one side and a float on
the other counts as a difference).  Otherwise exits 0 and prints, for every
field path whose floats moved, how many documents moved there and the
largest absolute and relative move; list positions are folded into `[]`.
The relative move of a and b is |a - b| / max(|a|, |b|).
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def walk(a, b, path: str, moves: dict, faults: list) -> None:
    """Record each float move of b against a as (abs, rel) under its field
    path in moves, keeping the largest, and every other difference in
    faults."""
    if type(a) is not type(b):
        faults.append(f"{path}: {a!r} became {b!r}")
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            faults.append(f"{path}: keys {sorted(a)} became {sorted(b)}")
        else:
            for key in a:
                walk(a[key], b[key], f"{path}.{key}" if path else key, moves, faults)
    elif isinstance(a, list):
        if len(a) != len(b):
            faults.append(f"{path}: length {len(a)} became {len(b)}")
        else:
            for x, y in zip(a, b):
                walk(x, y, f"{path}[]", moves, faults)
    elif isinstance(a, float):
        if a != b:
            diff = abs(a - b)
            worst = moves.setdefault(path, (0.0, 0.0))
            moves[path] = (max(worst[0], diff), max(worst[1], diff / max(abs(a), abs(b))))
    elif a != b:
        faults.append(f"{path}: {a!r} became {b!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: corpus_diff.py PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    parent, change = (load(path) for path in argv)
    if [name for name, _, _ in parent] != [name for name, _, _ in change]:
        print("the two dumps do not list the same documents in the same order")
        return 1
    faults: list[str] = []
    fields: dict[str, list] = {}  # path -> [documents, largest abs, largest rel]
    moved = 0
    for (name, code_a, report_a), (_, code_b, report_b) in zip(parent, change):
        if code_a != code_b:
            faults.append(f"{name}: exit {code_a} became {code_b}")
            continue
        moves: dict[str, tuple] = {}
        doc_faults: list[str] = []
        walk(report_a, report_b, "", moves, doc_faults)
        faults += [f"{name}: {fault}" for fault in doc_faults]
        moved += bool(moves)
        for path, (absolute, relative) in moves.items():
            entry = fields.setdefault(path, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], absolute)
            entry[2] = max(entry[2], relative)
    if faults:
        print(f"{len(faults)} differences other than float moves:")
        for fault in faults[:20]:
            print(f"  {fault}")
        return 1
    print(f"{len(parent)} documents with the same exit codes and structure; "
          f"floats moved in {moved}")
    for path, (docs, absolute, relative) in sorted(fields.items()):
        print(f"  {path}: {docs} documents, largest move {absolute:.2g} abs, {relative:.2g} rel")
    return 0


if __name__ == "__main__":
    sys.exit(main())
