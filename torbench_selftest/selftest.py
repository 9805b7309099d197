"""Self-test of the benchmark's output checkers.

    python3 torbench_selftest/selftest.py

Run from the root of a torstab checkout.  For each document kind it runs
one generated document through `torstab run`, requires the checker to accept
the real report, then alters one number in the report (an exponent, a
certificate entry, a partition count, an inverse entry that sets the
residual, a minimizer) and requires the checker to reject it.  Exits 1 if
any checker accepts a corrupted report or rejects a correct one.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "torbench")]

import checks  # noqa: E402
import gen  # noqa: E402
from torstab import cli  # noqa: E402


def run(doc: dict, argv=()) -> dict:
    work = ROOT / "torbench" / ".work"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["run", "--input", str(path), *argv])
    if code != 0:
        raise SystemExit(f"torstab run exited {code} on {doc['kind']}")
    return json.loads(buf.getvalue())


def first(docs, pred):
    return next(d for d in docs if pred(d))


def corrupt_stability(out):
    cert = out["report"]["certificate"]
    if "combination" in cert:
        cert["combination"][0] = "7/3"
    else:
        cert["cocharacter"][0] -= 5


def corrupt_stratify(out):
    exps = out["report"]["exponents"]
    exps[sorted(exps)[0]] += 1


def corrupt_shb(out):
    out["report"]["partition_table"].pop()


def corrupt_kuranishi(out):
    inv = out["report"]["inverse"]
    grade = sorted(inv)[-1]
    inv[grade][0][0] += 1e-6


def corrupt_kempf_ness(out):
    out["report"]["minimizer"] = [c + 0.05 for c in out["report"]["minimizer"]]


def cases():
    stab = gen.stability_routes(7)
    strat = gen.stratify_ladder(7)
    hodge = gen.hodge_systems(7)
    stable_kn = first(stab, lambda d: d.doc["kind"] == "kempf-ness" and d.ladder is None
                      and run(d.doc)["report"]["status"] == "Converged")
    yield "stability (combination entry)", first(
        stab, lambda d: d.doc["kind"] == "stability" and d.doc["payload"]["rank"] == 2
        and len(d.doc["payload"]["lines"]) >= 4), corrupt_stability
    yield "stability (cocharacter entry)", first(
        stab, lambda d: d.doc["kind"] == "stability"
        and run(d.doc, d.argv)["report"]["class"] == "Unstable"), corrupt_stability
    yield "kempf-ness (minimizer)", stable_kn, corrupt_kempf_ness
    yield "stratify (one exponent)", first(strat, lambda d: d.doc["payload"]["rank"] == 3), \
        corrupt_stratify
    yield "shb with distinct blocks (partition count)", first(
        hodge, lambda d: d.name.startswith("shb-5-5")), corrupt_shb
    yield "shb with repeated blocks (partition count)", first(
        hodge, lambda d: d.name.startswith("shb-6-3")), corrupt_shb
    yield "kuranishi (inverse entry)", first(
        hodge, lambda d: d.doc["kind"] == "kuranishi" and len(d.doc["payload"]["input"]) == 6), \
        corrupt_kuranishi


def main() -> int:
    bad = 0
    for label, d, corrupt in cases():
        out = run(d.doc, d.argv)
        text = json.dumps(out)
        ok = checks.check_output(d.doc, text, 0)
        broken = copy.deepcopy(out)
        corrupt(broken)
        rejected = checks.check_output(d.doc, json.dumps(broken), 0)
        good = not ok and bool(rejected)
        bad += not good
        print(f"{'PASS' if good else 'FAIL'} {label}: real report "
              f"{'accepted' if not ok else 'rejected ' + str(ok)}, corrupted report "
              f"{'rejected: ' + rejected[0] if rejected else 'accepted'}")
    ladder = next(d for d in gen.stability_routes(0) if d.ladder == 1.0)
    out = run(ladder.doc)
    for label, minimizer in (("real report", None), ("minimizer set to 0", [0.0])):
        if minimizer is not None:
            out["report"]["minimizer"] = minimizer
        errs = checks.check_output(ladder.doc, json.dumps(out), 0, ladder=True)
        good = bool(errs) == (minimizer is not None)
        bad += not good
        print(f"{'PASS' if good else 'FAIL'} Kempf-Ness ladder s=1, {label}: "
              f"{'accepted' if not errs else 'rejected: ' + errs[0]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
