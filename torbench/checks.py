"""Independent checks of `torstab run` reports.

Each checker recomputes what the report claims from the input document with
arithmetic of its own (exact fractions, numpy, scipy's HiGHS) and returns a
list of error strings, empty when the report passes.  Nothing here compares
against stored copies of earlier output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

import numpy as np

import floatgeom as fg

LADDER_X = math.log(2.0) / 4.0
LADDER_TOL = 1e-8
KN_GRAD_RTOL = 1e-7
KURANISHI_RTOL = 1e-9


def _dot(a, b):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def _nonzero(amp) -> bool:
    return any(v != 0 for v in (amp if isinstance(amp, list) else [amp]))


def _abs2(amp) -> float:
    return sum(float(v) ** 2 for v in (amp if isinstance(amp, list) else [amp]))


def _effective_lines(payload):
    amps = payload["amplitudes"]
    return [ln for ln in payload["lines"] if _nonzero(amps.get(ln["label"], 0))]


def _weights(payload) -> list[tuple[int, ...]]:
    return sorted({tuple(ln["weight"]) for ln in _effective_lines(payload)})


def _rank(vectors) -> int:
    return int(np.linalg.matrix_rank(np.asarray(vectors, dtype=float))) if vectors else 0


# ---------------------------------------------------------------------------
# stability


def check_certificate(cls: str, weights, cert: dict) -> list[str]:
    errs = []
    k = len(weights[0])
    if cert.get("weights") != [list(w) for w in weights]:
        errs.append("certificate weights differ from the input's effective weights")
        return errs
    if cls != fg.UNSTABLE:
        comb = [Fraction(a) for a in cert.get("combination") or []]
        if len(comb) != len(weights):
            return errs + ["combination missing or of wrong length"]
        if any(a < 0 for a in comb) or sum(comb) != 1:
            errs.append("combination is not a convex combination")
        if any(sum(a * w[i] for a, w in zip(comb, weights)) != 0 for i in range(k)):
            errs.append("combination does not sum the weights to 0")
        if cls in (fg.STABLE, fg.POLYSTABLE) and any(a == 0 for a in comb):
            errs.append("combination is not strictly positive")
    if cls == fg.UNSTABLE:
        x = cert.get("cocharacter")
        if x is None or any(_dot(w, x) < 1 for w in weights):
            errs.append("unstable cocharacter does not pair >= 1 with every weight")
    elif cls == fg.SEMISTABLE:
        x = cert.get("cocharacter")
        pair = [_dot(w, x) for w in weights] if x is not None else [-1]
        if min(pair) < 0 or max(pair) <= 0:
            errs.append("face cocharacter does not pair >= 0 everywhere and > 0 somewhere")
    elif cls == fg.POLYSTABLE:
        flat = cert.get("flat_lattice") or []
        if not flat or any(_dot(w, b) != 0 for w in weights for b in flat):
            errs.append("flat lattice missing or not orthogonal to the weights")
        elif _rank(flat) != k - _rank(weights):
            errs.append("flat lattice does not span the orthogonal complement")
    elif cls == fg.STABLE:
        if _rank(weights) != k:
            errs.append("stable verdict on weights that do not span")
    return errs


def check_stability(doc: dict, out: dict) -> list[str]:
    rep = out["report"]
    weights = _weights(doc["payload"])
    cls = rep.get("class")
    errs = check_certificate(cls, weights, rep.get("certificate", {}))
    expected = fg.float_class(weights)
    if cls != expected:
        errs.append(f"class {cls} but the float relint LP says {expected}")
    if "bruteforce_witness" in rep:
        wit = rep["bruteforce_witness"]
        if (wit is None) != (cls == fg.STABLE):
            errs.append("brute-force witness present exactly when not stable fails")
        elif wit is not None and (
            not any(wit)
            or any(abs(c) > 50 for c in wit)
            or any(_dot(w, wit) < 0 for w in weights)
        ):
            errs.append("brute-force witness is not a nonzero box point pairing >= 0")
    return errs


# ---------------------------------------------------------------------------
# Kempf-Ness


def kn_gradient(payload, x):
    """Own gradient of sum_w n_w exp(2<w, x>), with a scale for tolerances."""
    n_w: dict = {}
    for ln in _effective_lines(payload):
        w = tuple(ln["weight"])
        n_w[w] = n_w.get(w, 0.0) + ln.get("norm2", 1.0) * _abs2(payload["amplitudes"][ln["label"]])
    w = np.array(list(n_w), dtype=float)
    e = np.array(list(n_w.values())) * np.exp(2.0 * (w @ np.asarray(x, dtype=float)))
    grad = 2.0 * (e[:, None] * w).sum(axis=0)
    scale = 2.0 * float((e * np.linalg.norm(w, axis=1)).sum())
    return grad, scale


def check_kempf_ness(doc: dict, out: dict) -> list[str]:
    rep = out["report"]
    payload = doc["payload"]
    weights = _weights(payload)
    cls = fg.float_class(weights)
    expected = {fg.STABLE: "Converged", fg.POLYSTABLE: "FlatDirections"}.get(cls, "Diverging")
    status = rep.get("status")
    if status != expected:
        return [f"status {status} for a {cls} vector, expected {expected}"]
    if status == "Diverging":
        ray = rep.get("descent_ray")
        if not ray or not any(ray) or any(_dot(w, ray) > 0 for w in weights):
            return ["descent ray missing or pairing > 0 with a weight"]
        return []
    grad, scale = kn_gradient(payload, rep.get("minimizer"))
    if float(np.linalg.norm(grad)) > KN_GRAD_RTOL * scale:
        return [f"gradient {np.linalg.norm(grad):.3g} at the minimizer (scale {scale:.3g})"]
    return []


def check_ladder(out: dict) -> list[str]:
    """The scale ladder's closed form: x = ln 2 / 4, status Converged."""
    rep = out["report"]
    x = (rep.get("minimizer") or [float("nan")])[0]
    if rep.get("status") != "Converged" or not abs(x - LADDER_X) <= LADDER_TOL:
        return [f"status {rep.get('status')} at x = {x!r}, expected Converged at {LADDER_X!r}"]
    return []


# ---------------------------------------------------------------------------
# stratification


def check_stratify(doc: dict, out: dict) -> list[str]:
    rep = out["report"]
    payload = doc["payload"]
    errs = []
    x, sigma = rep["x"], rep["sigma"]
    if sigma < 1 or any(int(v) != v for v in x):
        return ["(x, sigma) is not an integral one-parameter subgroup"]
    lines = {ln["label"]: ln for ln in _effective_lines(payload)}
    exps = {lab: sigma * ln["rho"] + int(_dot(ln["weight"], x)) for lab, ln in lines.items()}
    if rep["exponents"] != exps:
        errs.append("reported exponents differ from sigma*rho + <w, x>")
    stages = rep["stages"]
    ladder = [st["d"] for st in stages]
    if rep["d_ladder"] != ladder or rep["num_stages"] != len(stages):
        errs.append("d_ladder or num_stages disagrees with the stages")
    if not all(a < b for a, b in zip([0] + ladder, ladder)):
        errs.append(f"ladder {ladder} is not strictly increasing and positive")
    prev = 0
    buckets = list(rep["residual_labels"])
    for st in stages:
        if Fraction(st["c"]) * sigma != st["d"]:
            errs.append(f"stage {st['index']}: c * sigma != d")
        if any(exps.get(lab) != st["d"] for lab in st["s_labels"]):
            errs.append(f"stage {st['index']}: an S-label is not at d = {st['d']}")
        if any(not exps.get(lab, 0) > prev for lab in st["nu_labels"]):
            errs.append(f"stage {st['index']}: a nu exponent is not above {prev}")
        buckets += st["nu_labels"] + st["s_labels"]
        prev = st["d"]
    if any(not exps.get(lab, 0) > prev for lab in rep["residual_labels"]):
        errs.append(f"a residual exponent is not above {prev}")
    if sorted(buckets) != sorted(lines):
        errs.append("effective labels are not split into exactly one bucket each")
    if len(stages) > payload["rank"] + 1:
        errs.append("more stages than rank + 1")
    if rep["verification"]["all_ok"] is not True:
        errs.append("verification.all_ok is not true")
    return errs


# ---------------------------------------------------------------------------
# systems of Hodge bundles


def _rgs(n: int):
    """Set partitions of range(n) as restricted growth strings."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield prefix
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))
    if n:
        yield from grow([0], 0)


def partition_classes(keys) -> set:
    """Partitions of the block multiset: set partitions of the indices up to
    swapping blocks with equal data, each as a sorted tuple of part keys."""
    out = set()
    for s in _rgs(len(keys)):
        parts: dict = {}
        for i, b in enumerate(s):
            parts.setdefault(b, []).append(keys[i])
        out.add(tuple(sorted(tuple(sorted(p)) for p in parts.values())))
    return out


def check_shb(doc: dict, out: dict) -> list[str]:
    rep = out["report"]
    payload = doc["payload"]
    blocks = payload["blocks"]
    g = payload["genus"]
    keys = [(tuple(b["ranks"]), tuple(b["degrees"]), b.get("tag", "")) for b in blocks]
    ranks = [sum(b["ranks"]) for b in blocks]
    total = sum(ranks)
    errs = []
    central = (total * total - 1) * (g - 1)
    if total >= 2 and rep.get("expected_dim_central_locus") != central:
        errs.append("expected_dim_central_locus is not (r^2-1)(g-1)")
    table = rep["partition_table"]
    expected = partition_classes(keys)
    if len(table) != len(expected):
        errs.append(f"{len(table)} partition rows, expected {len(expected)}")
    seen = set()
    for row in table:
        parts = row["parts"]
        if sorted(i for p in parts for i in p) != list(range(len(blocks))):
            errs.append(f"row {parts} is not a partition of the blocks")
            continue
        seen.add(tuple(sorted(tuple(sorted(keys[i] for i in p)) for p in parts)))
        dim = sum((sum(ranks[i] for i in p) ** 2 - 1) * (g - 1) for p in parts)
        if (row["dim"], row["proper"], row["strictly_below_central"]) != (
            dim, len(parts) > 1, dim < central
        ):
            errs.append(f"row {parts}: dim/proper/strict flags disagree")
    if seen != expected:
        errs.append("partition rows are not one per class of the block multiset")
    if "x" in payload and len(set(keys)) == len(keys):
        sign = -1 if doc.get("options", {}).get("convention") == "flipped" else 1
        x, sigma = payload["x"], payload.get("sigma", 1)
        want = {}
        for (p, bp), (q, bq) in product(enumerate(blocks, 1), repeat=2):
            for a, b in product(range(1, len(bp["ranks"]) + 1), range(1, len(bq["ranks"]) + 1)):
                # default convention: weight e_p - e_q, beta grade b - a
                want[f"{p}.{a}|{q}.{b}"] = sign * (2 * sigma * (b - a) + 2 * (x[p - 1] - x[q - 1]))
        if rep.get("conformal_degrees") != want:
            errs.append("conformal degrees differ from 2 sigma rho_beta + 2 <w, x>")
    return errs


# ---------------------------------------------------------------------------
# graded Kuranishi


def _pinv(m):
    u, s, vh = np.linalg.svd(m)
    keep = s > 1e-9 * (s[0] if s.size else 0.0)
    return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T


def _cvec(vals):
    return np.array([complex(*v) if isinstance(v, list) else complex(v) for v in vals])


def check_kuranishi(doc: dict, out: dict) -> list[str]:
    """Recompute kappa(u) = u + d1* Gamma(q(u)) from the reported inverse;
    the complex is rebuilt from the document's generator seed."""
    from torstab.graded_kuranishi import random_graded_complex

    rep = out["report"]
    payload = doc["payload"]
    gen = payload["generator"]
    cx = random_graded_complex(np.random.default_rng(gen["seed"]),
                               grades=tuple(gen["grades"]), max_dim=gen["max_dim"])
    if rep.get("greens_status") != "ok":
        return [f"greens_status {rep.get('greens_status')}"]
    u = {int(g): _cvec(v) for g, v in rep["inverse"].items()}
    x = {int(g): _cvec(v) for g, v in payload["input"].items()}
    if set(u) != set(x):
        return ["inverse grades differ from the input grades"]
    diff2 = 0.0
    for g in cx.grades:
        q = np.zeros(cx.n2(g), dtype=complex)
        for (a, b), t in cx.bracket.items():
            if a + b == g and t.size:
                q += 0.5 * np.einsum("kij,i,j->k", t, u[a], u[b])
        kappa = u[g].copy()
        if cx.n2(g):
            d1 = cx.d1[g]
            kappa += d1.conj().T @ (_pinv(d1 @ d1.conj().T) @ q)
        diff2 += float(np.linalg.norm(kappa - x[g]) ** 2)
    norm = math.sqrt(sum(float(np.linalg.norm(v) ** 2) for v in x.values()))
    if not math.sqrt(diff2) <= KURANISHI_RTOL * norm:
        return [f"kappa(inverse) misses the input by {math.sqrt(diff2) / norm:.3g} relative"]
    return []


CHECKERS = {
    "stability": check_stability,
    "kempf-ness": check_kempf_ness,
    "stratify": check_stratify,
    "shb": check_shb,
    "kuranishi": check_kuranishi,
}


def check_output(doc: dict, text: str, code: int, ladder: bool = False) -> list[str]:
    """Errors in one captured `torstab run` output of the given document."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if out.get("status") != "ok" or out.get("kind") != doc["kind"]:
        return [f"status {out.get('status')!r}: {out.get('report')}"]
    try:
        return check_ladder(out) if ladder else CHECKERS[doc["kind"]](doc, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]
