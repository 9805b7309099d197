"""Seeded problem documents for the three benchmark workloads.

Every workload is a fixed grid of document shapes (rank, number of lines,
number of blocks, grades) repeated a fixed number of times; the seed only
draws the numbers inside each shape.  Keeping the shape mix fixed keeps the
cost of a workload nearly independent of the seed, which is what lets two
sets of runs with different seeds agree within the bounds.

A document is returned as ``Doc(name, doc, argv, ladder)``: the JSON
problem, the extra ``torstab run`` arguments it is run with, and, for the
Kempf-Ness scale ladder, the scale s it was built with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from floatgeom import STABLE, float_class

BOX_BOUND = 50
LADDER_SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)

STABILITY_VECTORS = 55   # ranks cycle 1-3 and line counts 1-10; each sent twice
STRATIFY_CYCLES = 19      # x (3 ranks x 2 line counts) stable graded vectors
KURANISHI_CYCLES = 16     # x (6 top grades) generator documents
# (number of blocks, number of distinct block kinds, documents); the twelve
# 5-block distinct documents hold the 90th percentile of the workload
SHB_SHAPES = (
    (2, 2, 2), (3, 3, 2), (4, 4, 2), (3, 1, 1), (4, 2, 1), (5, 2, 2), (5, 3, 2),
    (6, 2, 1), (6, 3, 1), (5, 5, 12), (6, 6, 2), (7, 2, 1), (7, 3, 1),
)


@dataclass(frozen=True)
class Doc:
    name: str
    doc: dict
    argv: tuple[str, ...]
    ladder: float | None = None


def _problem(kind: str, payload: dict, options: dict | None = None) -> dict:
    doc = {"schema_version": "1", "kind": kind, "payload": payload}
    if options:
        doc["options"] = options
    return doc


def _amp(rng) -> list[float]:
    return [float(rng.normal()), float(rng.normal())]


def _rep_payload(rng, rank: int, n: int, lo: int, hi: int, rho: bool,
                 distinct: bool = False) -> dict:
    if distinct:
        # n distinct weights: no two lines share one, so the weight count is
        # exactly n for every seed
        side = hi - lo + 1
        codes = rng.choice(side ** rank, size=n, replace=False)
        weights = [[int(c) // side ** a % side + lo for a in range(rank)] for c in codes]
    else:
        weights = [[int(w) for w in rng.integers(lo, hi + 1, size=rank)] for _ in range(n)]
    lines = []
    for j, w in enumerate(weights):
        ln = {"label": f"l{j}", "weight": w}
        if rho:
            ln["rho"] = int(rng.integers(1, 5))
        lines.append(ln)
    return {"rank": rank, "lines": lines, "amplitudes": {ln["label"]: _amp(rng) for ln in lines}}


def stability_routes(seed: int) -> list[Doc]:
    """Random torus-rep vectors (rank 1-3, 1-10 weights in [-4, 4]), each
    sent as a stability document with the brute-force scan and as a
    Kempf-Ness document, plus the Kempf-Ness scale ladder.  Rank-3 weights
    are distinct, so the scan's largest product, which sets the peak RSS,
    has the same size for every seed."""
    rng = np.random.default_rng([abs(seed), 1])
    docs = []
    for i in range(STABILITY_VECTORS):
        rank, n = 1 + i % 3, 1 + i % 10
        payload = _rep_payload(rng, rank, n, -4, 4, rho=False, distinct=rank == 3)
        docs.append(Doc(f"stability-{i:03d}", _problem("stability", payload),
                        ("--box-bound", str(BOX_BOUND))))
        docs.append(Doc(f"kempf-ness-{i:03d}", _problem("kempf-ness", payload), ()))
    for s in LADDER_SCALES:
        payload = {
            "rank": 1,
            "lines": [
                {"label": "a", "weight": [1], "norm2": 1.0 * s},
                {"label": "b", "weight": [-1], "norm2": 2.0 * s},
            ],
            "amplitudes": {"a": 1.0, "b": 1.0},
        }
        docs.append(Doc(f"kn-ladder-{s:g}", _problem("kempf-ness", payload), (), ladder=s))
    return docs


def stratify_ladder(seed: int) -> list[Doc]:
    """Stable graded vectors (rank 1-3, rank+1 or rank+2 lines, weights in
    [-3, 3], rho in 1-4), drawn until the weights are stable."""
    rng = np.random.default_rng([abs(seed), 2])
    docs = []
    for i in range(STRATIFY_CYCLES * 6):
        rank = 1 + i % 3
        n = rank + 1 + (i // 3) % 2
        while True:
            payload = _rep_payload(rng, rank, n, -3, 3, rho=True)
            weights = {tuple(ln["weight"]) for ln in payload["lines"]}
            if float_class(sorted(weights)) == STABLE:
                break
        docs.append(Doc(f"stratify-{i:03d}", _problem("stratify", payload), ()))
    return docs


def _block(rng, tag: str, length: int) -> dict:
    ranks = [int(r) for r in rng.integers(1, 3, size=length)]
    if length == 1:
        degrees = [0]
    else:
        inner = [int(d) for d in rng.integers(-2, 3, size=length - 2)]
        first = int(rng.integers(1, 4)) + max(0, -sum(inner))
        degrees = [first] + inner + [-(first + sum(inner))]
    return {"ranks": ranks, "degrees": degrees, "tag": tag}


def _shb_doc(rng, k: int, kinds: int, convention: str) -> dict:
    # Hodge chain lengths cycle 1, 2, 3, so the number of index classes
    # (which sizes the slice, the cyclic LP and the degree table) is fixed
    protos = [_block(rng, f"t{j}", 1 + j % 3) for j in range(kinds)]
    # kinds repeat round-robin, so the block multiplicities (which set the
    # size of the partition poset) are the same for every seed
    picks = [i % kinds for i in range(k)]
    rng.shuffle(picks)
    payload = {"genus": int(rng.integers(2, 5)), "blocks": [dict(protos[p]) for p in picks]}
    if kinds == k:
        payload["x"] = [int(v) for v in rng.integers(-2, 3, size=k)]
        payload["sigma"] = int(rng.integers(1, 4))
    return _problem("shb", payload, {"convention": convention})


def hodge_systems(seed: int) -> list[Doc]:
    """shb documents with 2-7 blocks (pairwise distinct with x/sigma, or with
    repeated blocks), both conventions, plus kuranishi generator documents
    with grades 1..g for g in 1-6 and an explicit seeded input."""
    from torstab.graded_kuranishi import random_graded_complex

    rng = np.random.default_rng([abs(seed), 3])
    docs = []
    for k, kinds, reps in SHB_SHAPES:
        for r in range(reps):
            conv = ("default", "flipped")[len(docs) % 2]
            docs.append(Doc(f"shb-{k}-{kinds}-{r}", _shb_doc(rng, k, kinds, conv), ()))
    for i in range(KURANISHI_CYCLES * 6):
        top = 1 + i % 6
        gen = {"seed": int(rng.integers(0, 2**31)), "grades": list(range(1, top + 1)),
               "max_dim": 2 + (i // 6) % 4}
        cx = random_graded_complex(np.random.default_rng(gen["seed"]),
                                   grades=tuple(gen["grades"]), max_dim=gen["max_dim"])
        x = {str(g): [_amp(rng) for _ in range(cx.n1(g))] for g in cx.grades}
        docs.append(Doc(f"kuranishi-{i:03d}",
                        _problem("kuranishi", {"generator": gen, "input": x}), ()))
    return docs


GENERATORS = {
    "stability-routes": stability_routes,
    "stratify-ladder": stratify_ladder,
    "hodge-systems": hodge_systems,
}
