"""Finite-dimensional graded three-term complexes with a quadratic bracket:
Green's operator as a pseudoinverse, the quadratic correction map, its
grade-by-grade inverse on positively graded inputs, and the obstruction.

The complex is C0 -> C1 -> C2 with grade-preserving differentials d0, d1
(d1 d0 = 0) and a grade-additive symmetric bilinear bracket C1 x C1 -> C2,
all over complex coordinate spaces with the standard hermitian inner
products.  Writing q(u) = [u, u]/2, the forward map is

    kappa(u) = u + d1* Gamma(q(u)),

with Gamma the Moore-Penrose pseudoinverse of d1 d1* on C2.  Since the
bracket of positive grades lands in strictly higher grade, kappa restricted
to positively graded vectors is inverted exactly by the recursion that
copies the lowest grade and corrects each higher grade by the brackets of
the already-known lower ones.

Vectors at level one or two are plain dicts mapping a grade to a complex
array; missing grades mean zero.

The last section reads a ``kuranishi`` problem document's complex and input
and refuses, by field, what the maps cannot take; only that kind's runner
calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TorstabError, ValidationError
from .qexact import nullspace

GVec = dict  # grade -> complex ndarray

_RCOND = 1e-12

# Largest complex a problem document may ask for: grades, and each of n0, n1,
# n2 per grade (for a generator, its max_dim).  A bracket tensor holds up to
# MAX_COMPLEX_DIM^3 entries per pair of grades, so the caps keep a complex
# within a few MB; the benchmark and `torstab gen` use max_dim <= 5 and at
# most 6 grades.
MAX_COMPLEX_GRADES = 16
MAX_COMPLEX_DIM = 16


@dataclass(frozen=True)
class GradedComplex:
    grades: tuple[int, ...]
    dims: dict  # grade -> (n0, n1, n2)
    d0: dict  # grade -> (n1 x n0)
    d1: dict  # grade -> (n2 x n1)
    bracket: dict  # (g1, g2) -> (n2[g1+g2] x n1[g1] x n1[g2])

    def __post_init__(self):
        if any(g >= h for g, h in zip(self.grades, self.grades[1:])):
            raise ValueError("grades must be strictly increasing")
        for g in self.grades:
            n0, n1, n2 = self.dims[g]
            d0, d1 = self.d0[g], self.d1[g]
            if d0.shape != (n1, n0) or d1.shape != (n2, n1):
                raise ValueError(f"differential shape mismatch at grade {g}")
            if not d0.size or not d1.size:
                continue  # d1 d0 is an empty or all-zero matrix
            # d1 and d0 divided by their largest |entry| (twice that of half
            # the block, a float even where an entry's modulus is not), so
            # that d1 d0 neither overflows nor underflows at any scale
            h1, h0 = 0.5 * d1, 0.5 * d0
            s1, s0 = np.abs(h1).max(), np.abs(h0).max()
            if not (s1 and s0):
                continue  # d1 d0 is all zero
            if np.abs((h1 / s1) @ (h0 / s0)).max() > 1e-12:
                raise ValidationError([f"d1 d0 != 0 at grade {g}"])
        for (g1, g2), t in self.bracket.items():
            if g1 not in self.dims or g2 not in self.dims or g1 + g2 not in self.dims:
                raise ValueError(f"bracket grades ({g1}, {g2}) leave the range")
            partner = self.bracket.get((g2, g1))
            if partner is None:
                raise ValueError(f"bracket not symmetric at ({g1}, {g2})")
            if g1 > g2:
                continue  # checked as its partner, which must equal its transpose
            n2 = self.dims[g1 + g2][2]
            if t.shape != (n2, self.dims[g1][1], self.dims[g2][1]):
                raise ValueError(f"bracket tensor shape mismatch at ({g1}, {g2})")
            if not np.array_equal(t, np.transpose(partner, (0, 2, 1))):
                raise ValidationError([f"bracket not symmetric at ({g1}, {g2})"])

    def n1(self, g) -> int:
        return self.dims[g][1] if g in self.dims else 0

    def n2(self, g) -> int:
        return self.dims[g][2] if g in self.dims else 0

    def zero2(self) -> GVec:
        return {g: np.zeros(self.n2(g), dtype=complex) for g in self.grades}


def gvec_norm(a: GVec) -> float:
    return float(np.sqrt(sum(float(np.vdot(x, x).real) for x in a.values())))


def bracket_eval(cx: GradedComplex, u: GVec, v: GVec) -> GVec:
    out = cx.zero2()
    for (g1, g2), t in cx.bracket.items():
        x = u.get(g1)
        y = v.get(g2)
        if x is None or y is None or t.size == 0:
            continue
        out[g1 + g2] = out[g1 + g2] + np.einsum("kij,i,j->k", t, x, y)
    return out


def quadratic_part(cx: GradedComplex, u: GVec) -> GVec:
    """q(u) = [u, u]/2, the quadratic term fed to the forward map."""
    return {g: a / 2.0 for g, a in bracket_eval(cx, u, u).items()}


@dataclass(frozen=True)
class GreensOperator:
    # grade -> d1* Gamma = d1^+, the C2 -> C1 map of the Kuranishi maps
    d1_pinv: dict
    harmonic: dict  # grade -> projector onto harmonic C2
    status: str  # "ok" or "ill-conditioned"
    condition: float

    def project_harmonic(self, v: GVec) -> GVec:
        return {g: (self.harmonic[g] @ arr if arr.size else arr) for g, arr in v.items()}


def greens_operator(cx: GradedComplex) -> GreensOperator:
    """Pseudoinverse of the Laplacian d1 d1* per grade, with the harmonic
    projector, both read off one Hermitian eigendecomposition per grade.

    Each grade decomposes the Laplacian of a = d1/s, s the largest |entry|
    of d1, so the rank split, the condition, the status and the harmonic
    projector do not depend on the scale of d1.  s is taken as twice the
    largest |entry| of d1/2, which is a float even where the modulus of an
    entry is not.  The Kuranishi maps apply d1* Gamma = d1^+ = a* Gamma_a / s,
    Gamma_a that of a, so a tiny d1 does not overflow Gamma on the way to a
    d1^+ that is a float.  Gamma itself is not stored.

    An eigenvalue falling in the gray zone just above the rank cutoff makes
    the zero/nonzero split numerically ambiguous; that is reported as an
    ill-conditioned warning status rather than a failure.
    """
    pinv, harm = {}, {}
    worst = 1.0
    ambiguous = False
    for g in cx.grades:
        n2 = cx.n2(g)
        half = 0.5 * cx.d1[g]
        scale = np.abs(half).max(initial=0.0)
        if scale == 0:
            pinv[g] = np.zeros((cx.n1(g), n2), dtype=complex)
            harm[g] = np.eye(n2, dtype=complex)
            continue
        a = half / scale
        lam, v = np.linalg.eigh(a @ a.conj().T)
        mag = np.abs(lam)
        cutoff = _RCOND * mag.max()
        keep = mag > cutoff
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
        gamma_a = (v * inv) @ v.conj().T
        # halved before the division by the scale, so that it overflows only
        # where d1^+ itself does
        pinv[g] = a.conj().T @ gamma_a * 0.5 / scale
        v0 = v[:, ~keep]
        harm[g] = v0 @ v0.conj().T
        worst = max(worst, float(mag.max() / mag[keep].min()))
        ambiguous = ambiguous or bool(np.any(keep & (mag < 1e4 * cutoff)))
    status = "ill-conditioned" if ambiguous else "ok"
    return GreensOperator(pinv, harm, status, worst)


def kuranishi_forward(cx: GradedComplex, u: GVec, greens: GreensOperator) -> GVec:
    """kappa(u) = u + d1* Gamma(q(u))."""
    out = {g: np.array(arr, dtype=complex) for g, arr in u.items()}
    for g, arr in quadratic_part(cx, u).items():
        if g in cx.d1 and cx.d1[g].size:
            out[g] = out.get(g, np.zeros(cx.n1(g), dtype=complex)) + greens.d1_pinv[g] @ arr
    return out


def kuranishi_inverse_graded(cx: GradedComplex, x: GVec, greens: GreensOperator) -> GVec:
    """The unique positively graded u with kappa(u) = x, built grade by
    grade: the lowest grade is copied and grade j is corrected by the
    brackets of strictly lower grades, so the recursion always terminates
    and only ever reads input grades <= j to produce output grades <= j.
    """
    if any(np.any(np.asarray(arr) != 0) for g, arr in x.items() if g <= 0):
        raise ValidationError(["input must be supported in positive grades"])
    u: GVec = {}
    for g in sorted(gr for gr in cx.grades if gr > 0):
        target = x.get(g, np.zeros(cx.n1(g), dtype=complex)).astype(complex)
        if cx.d1[g].size:  # else the correction d1* Gamma q is zero
            terms = [
                np.einsum("kij,i,j->k", t, u[a], u[b])
                for (a, b), t in cx.bracket.items()
                if a + b == g and a in u and b in u and t.size
            ]
            if terms:
                target -= greens.d1_pinv[g] @ (0.5 * sum(terms))
        u[g] = target
    return u


def obstruction(cx: GradedComplex, x: GVec, greens: GreensOperator) -> GVec:
    """k(x) = (1/2) P [x, x], the harmonic projection of the bracket square."""
    return greens.project_harmonic(quadratic_part(cx, x))


# ---------------------------------------------------------------------------
# generators


def _int_matrix(rng, rows, cols, lo=-2, hi=3):
    return rng.integers(lo, hi, size=(rows, cols))


def _integer_kernel_matrix(m) -> np.ndarray:
    """int64 matrix whose columns span ker(m) exactly (m an int64 matrix)."""
    n_rows, n_cols = m.shape
    if n_rows == 0:
        return np.eye(n_cols, dtype=np.int64)
    return np.array(nullspace(m.tolist()), dtype=np.int64).reshape(-1, n_cols).T


def random_graded_complex(rng, grades=(1, 2, 3, 4), max_dim=5):
    """Random complex with exact integer structure constants.

    d0 is built inside ker(d1) so d1 d0 = 0 holds exactly.  The matrices
    stay int64 until the complex is built.
    """
    grades = tuple(sorted(grades))
    dims, d0, d1 = {}, {}, {}
    for g in grades:
        n1 = int(rng.integers(1, max_dim + 1))
        n2 = int(rng.integers(0, max(1, n1)))
        m = _int_matrix(rng, n2, n1)
        ker = _integer_kernel_matrix(m)
        n0 = int(rng.integers(0, ker.shape[1] + 1))
        mix = _int_matrix(rng, ker.shape[1], n0, lo=-1, hi=2) if n0 else np.zeros(
            (ker.shape[1], 0), dtype=np.int64
        )
        dims[g] = (n0, n1, n2)
        d1[g] = m.astype(complex)
        d0[g] = (ker @ mix).astype(complex)
    bracket = {}
    for a in grades:
        for b in grades:
            if a > b or (a + b) not in dims:
                continue
            n2 = dims[a + b][2]
            t = _int_matrix(rng, n2 * dims[a][1], dims[b][1]).reshape(
                n2, dims[a][1], dims[b][1]
            )
            t = np.where(rng.random(t.shape) < 0.6, t, 0)  # sparse brackets
            if a == b:
                t = t + np.transpose(t, (0, 2, 1))
                bracket[(a, a)] = t.astype(complex)
            else:
                t = t.astype(complex)
                bracket[(a, b)] = t
                bracket[(b, a)] = np.transpose(t, (0, 2, 1))
    return GradedComplex(grades, dims, d0, d1, bracket)


# ---------------------------------------------------------------------------
# kuranishi problem documents


def _check_complex_size(grades, dims=()) -> None:
    if len(grades) > MAX_COMPLEX_GRADES:
        raise TorstabError(
            f"complex of {len(grades)} grades exceeds the limit of {MAX_COMPLEX_GRADES}"
        )
    largest = max(dims, default=0)
    if largest > MAX_COMPLEX_DIM:
        raise TorstabError(
            f"complex dimension {largest} exceeds the limit of {MAX_COMPLEX_DIM}"
        )


def _distinct_grades(grades) -> tuple[int, ...]:
    grades = tuple(sorted(grades))
    repeated = sorted({g for g, h in zip(grades, grades[1:]) if g == h})
    if repeated:
        raise ValidationError(
            [f"grades must be distinct, but {g} is given more than once" for g in repeated]
        )
    return grades


# the types json gives a number as (a bool is neither)
_JSON_NUMBER = (int, float)


def _complex_array(field: str, value, shape: tuple[int, ...]):
    """value as a complex array of the given shape, naming the field when
    its lengths are not shape or an entry is neither a number nor a
    [re, im] pair of numbers (a bool is not a number), or is an integer
    too large for a float.  A block with no entries may also be given as
    []."""
    if value == [] and 0 in shape:
        return np.zeros(shape, dtype=complex)
    level = [value]
    for n in shape:
        if any(not isinstance(v, list) or len(v) != n for v in level):
            dims = " x ".join(map(str, shape))
            raise ValidationError([f"{field} must have shape {dims} to match dims"])
        level = [x for v in level for x in v]
    entries = []
    for pos, v in enumerate(level):
        re, im = v if type(v) is list and len(v) == 2 else (v, 0)
        if type(re) in _JSON_NUMBER and type(im) in _JSON_NUMBER:
            try:
                entries.append(complex(re, im))
                continue
            except OverflowError:
                problem = "is too large for a float"
        else:
            problem = "must be a number or a [re, im] pair of numbers"
        at = "".join(f"[{i}]" for i in np.unravel_index(pos, shape))
        raise ValidationError([f"{field}{at} {problem}"])
    return np.array(entries, dtype=complex).reshape(shape)


def complex_from_payload(payload: dict) -> GradedComplex:
    """The complex a kuranishi payload describes; oversized ones are refused
    before any array is built, and every array is checked against dims
    before numpy reads it."""
    if "generator" in payload:
        gen = payload["generator"]
        grades = tuple(map(int, gen.get("grades", (1, 2, 3, 4))))
        max_dim = int(gen.get("max_dim", 5))
        _check_complex_size(grades, [max_dim])
        grades = _distinct_grades(grades)
        rng = np.random.default_rng(int(gen["seed"]))
        return random_graded_complex(rng, grades=grades, max_dim=max_dim)
    grades = tuple(map(int, payload["grades"]))
    _check_complex_size(grades)
    grades = _distinct_grades(grades)
    missing = [g for g in grades if str(g) not in payload["dims"]]
    if missing:
        raise ValidationError([f"dims has no entry for grade {g}" for g in missing])
    keys = {str(g) for g in grades}
    stray = [f"{name} grade {key} is not a grade of the complex {list(grades)}"
             for name in ("dims", "d0", "d1") for key in payload[name] if key not in keys]
    if stray:
        raise ValidationError(stray)
    dims = {g: tuple(map(int, payload["dims"][str(g)])) for g in grades}
    _check_complex_size(grades, [n for dim in dims.values() for n in dim])

    def matrix(name, g, shape):
        rows = payload[name].get(str(g))
        if rows is None:
            return np.zeros(shape, dtype=complex)
        return _complex_array(f"{name}[{g}]", rows, shape)

    d0 = {g: matrix("d0", g, (dims[g][1], dims[g][0])) for g in grades}
    d1 = {g: matrix("d1", g, (dims[g][2], dims[g][1])) for g in grades}
    bracket = {}
    for ent in payload.get("bracket", []):
        g1, g2 = int(ent["g1"]), int(ent["g2"])
        if g1 not in dims or g2 not in dims or g1 + g2 not in dims:
            raise ValidationError([f"bracket grades ({g1}, {g2}) leave the range"])
        if (g1, g2) in bracket:  # either order of the pair
            raise ValidationError([f"bracket grades ({g1}, {g2}) are given more than once"])
        shape = (dims[g1 + g2][2], dims[g1][1], dims[g2][1])
        t = _complex_array(f"bracket ({g1}, {g2}) tensor", ent["tensor"], shape)
        bracket[(g1, g2)] = t
        bracket.setdefault((g2, g1), np.transpose(t, (0, 2, 1)))
    return GradedComplex(grades, dims, d0, d1, bracket)


def input_from_payload(vectors: dict, cx: GradedComplex) -> dict:
    """The kuranishi input by grade; a grade outside the complex, or a vector
    whose length is not n1 at its grade or whose entries are not numbers,
    is refused."""
    grade_of = {str(g): g for g in cx.grades}
    x = {}
    for key, vec in vectors.items():
        g = grade_of.get(key)
        if g is None:
            raise ValidationError(
                [f"input grade {key} is not a grade of the complex {list(cx.grades)}"]
            )
        x[g] = _complex_array(f"input[{key}]", vec, (cx.n1(g),))
    return x


def check_report_floats(body: dict) -> None:
    """Refuse, by field, a Kuranishi report whose numbers a float cannot
    hold: the entries of the complex or the input are so large, or d1 so
    small, that the maps overflow."""
    numbers = {
        "greens_condition": [body["greens_condition"]],
        "inverse": [c for vec in body["inverse"].values() for z in vec for c in z],
        "round_trip_residual": [body["round_trip_residual"]],
        "obstruction_norm": [body["obstruction_norm"]],
    }
    bad = [field for field, values in numbers.items() if not all(map(math.isfinite, values))]
    if bad:
        raise ValidationError([f"{field}: the Kuranishi maps overflow a float" for field in bad])
