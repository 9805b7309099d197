#!/usr/bin/env python3
"""One digest line per document of `torstab run` output on a fixed corpus,
to check that a change leaves the content of every report unchanged.

    python3 scripts/corpus_digest.py [--dump FILE] > digest.txt

Run it from the root of each of two checkouts and `diff` the two files.
With `--dump FILE` it also writes one JSON line `[name, exit, report]` per
document, the report parsed from standard output; `scripts/corpus_diff.py`
compares two such dumps field by field.
The program is imported from the checkout's `src/` and the documents come
from its `torbench/gen.py`, which is only read.  The corpus (1315
documents) is

- every document of the three benchmark workloads at seeds 1-3, written as
  the benchmark writes it and run with the arguments it is run with, and
- `torstab gen --kind K --seed S` for the five kinds and S = 0..49.

Each document goes through `torstab.cli.main(["run", "--input", ...])` in
this process, under the benchmark worker's environment (PYTHONHASHSEED=0,
one BLAS thread), and one line `sha256  exit  name` is printed for it:
the sha256 of the report's content, the exit code and the document's name.
The content is `json.dumps(json.loads(out), sort_keys=True)` of the
standard output, so two sides that lay the same report out differently
(whitespace, indentation) digest alike; every key, value, type and float
repr still counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
KINDS = ("stability", "kempf-ness", "stratify", "shb", "kuranishi")


def corpus(workdir: Path):
    """(name, path, extra argv) of every document, written under workdir."""
    import gen
    from torstab import cli

    for workload, make in gen.GENERATORS.items():
        for seed in (1, 2, 3):
            for d in make(seed):
                name = f"{workload}-{seed}/{d.name}"
                path = workdir / f"{workload}-{seed}-{d.name}.json"
                path.write_text(json.dumps(d.doc, sort_keys=True, indent=1))
                yield name, path, list(d.argv)
    for kind in KINDS:
        for seed in range(50):
            path = workdir / f"gen-{kind}-{seed}.json"
            cli.main(["gen", "--kind", kind, "--seed", str(seed), "--out", str(path)])
            yield f"gen/{kind}-{seed}", path, []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dump", help="also write [name, exit, report] JSON lines here")
    args = ap.parse_args()
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **ENV})
    sys.dont_write_bytecode = True  # leave no __pycache__ under torbench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "torbench")]
    from torstab import cli

    with tempfile.TemporaryDirectory() as tmp, open(args.dump or os.devnull, "w") as dump:
        for name, path, argv in corpus(Path(tmp)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["run", "--input", str(path), *argv])
            report = json.loads(buf.getvalue())
            content = json.dumps(report, sort_keys=True)
            digest = hashlib.sha256(content.encode()).hexdigest()
            print(f"{digest}  {code}  {name}")
            dump.write(json.dumps([name, code, report], sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
