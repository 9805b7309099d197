"""Stability of vectors in torus representations via the weight polytope.

A nonzero vector is stable iff 0 lies in the ambient-topology interior of
the convex hull of its effective weights, polystable iff 0 lies in the
relative interior, semistable iff 0 lies in the hull.  Each verdict comes
with an exactly re-verifiable certificate, and a brute-force scan over
integer cocharacters in a box provides an independent oracle.

Graded lines take part through their torus weight only; the grading circle
never enters a stability decision here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InternalError, ZeroVectorError
from .polytope import (
    INTERIOR,
    ON_PROPER_FACE,
    RELATIVE_INTERIOR_ONLY,
    PolytopeQ,
    face_support,
    locate,
    solve_mixed_system,
)
from .qexact import Lattice, clear_denominators, dot, saturated_kernel
from .simplex import OPTIMAL, solve_lp_mixed
from .torus_rep import RepVector

UNSTABLE = "Unstable"
SEMISTABLE_NOT_POLYSTABLE = "SemistableNotPolystable"
POLYSTABLE_NOT_STABLE = "PolystableNotStable"
STABLE = "Stable"

# Largest integer box destabilizer_bruteforce will materialise: the grid and
# the weight products cost tens of bytes per point, so this keeps a scan
# near 100 MB while admitting the rank-3 box at bound 50 (101^3 points).
MAX_BOX_POINTS = 2_000_000


@dataclass(frozen=True)
class StabilityResult:
    stability: str
    weights: tuple[tuple[int, ...], ...]
    # interior / relative-interior verdicts: positive convex combination of
    # the weights summing to zero
    combination: tuple[Fraction, ...] | None = None
    # flat directions for the polystable case
    flat_lattice: Lattice | None = None
    # destabilizing (all pairings >= 1) or face-supporting (pairings >= 0,
    # zero exactly on the face) integer cocharacter
    cocharacter: tuple[int, ...] | None = None

    def verify(self) -> bool:
        """Re-check the certificate exactly against the weights."""
        w = self.weights
        if self.combination is not None:
            if len(self.combination) != len(w):
                return False
            if sum(self.combination) != 1 or any(a < 0 for a in self.combination):
                return False
            k = len(w[0]) if w else 0
            point = [sum(a * g[i] for a, g in zip(self.combination, w)) for i in range(k)]
            if any(c != 0 for c in point):
                return False
            if self.stability in (STABLE, POLYSTABLE_NOT_STABLE) and any(
                a == 0 for a in self.combination
            ):
                return False
        if self.stability == STABLE:
            return saturated_kernel(w).rank == 0
        if self.stability == POLYSTABLE_NOT_STABLE:
            lat = self.flat_lattice
            return lat is not None and lat.rank > 0 and all(
                dot(wt, b) == 0 for wt in w for b in lat.basis
            )
        if self.stability == UNSTABLE:
            x = self.cocharacter
            return x is not None and all(dot(wt, x) >= 1 for wt in w)
        if self.stability == SEMISTABLE_NOT_POLYSTABLE:
            x = self.cocharacter
            return (
                x is not None
                and all(dot(wt, x) >= 0 for wt in w)
                and any(dot(wt, x) > 0 for wt in w)
            )
        return False


def _separating_cocharacter(weights) -> tuple[int, ...]:
    """Integer x with <w, x> >= 1 for every listed weight (0 outside hull)."""
    k = len(weights[0])
    ge = [(list(w) + [-1], 0) for w in weights]
    ge.append(([0] * k + [-1], -1))  # t <= 1
    res = solve_lp_mixed([], ge, [0] * k + [1])
    if res.status != OPTIMAL or res.value <= 0:
        raise InternalError(f"no separating cocharacter ({res.status}), "
                            "but 0 is outside the weight hull")
    t = res.x[k]
    x = [c / t for c in res.x[:k]]
    return clear_denominators(x)[1]


def _face_cocharacter(weights, face_idx) -> tuple[int, ...]:
    """Integer x vanishing on the face weights, >= 1 off the face."""
    k = len(weights[0])
    face = set(face_idx)
    eqs = [(weights[i], 0) for i in sorted(face)]
    stricts = [(weights[i], 0) for i in range(len(weights)) if i not in face]
    sol = solve_mixed_system(eqs, stricts, k)
    if sol is None:
        raise InternalError("no face cocharacter, but the face is a proper face")
    return clear_denominators(sol)[1]


def classify(v: RepVector) -> StabilityResult:
    """Classify a nonzero vector by the position of 0 in its effective
    weight hull, with an exact certificate attached."""
    if v.is_zero():
        raise ZeroVectorError("the zero vector has no stability class")
    weights = tuple(sorted(v.effective_g_weights()))
    k = len(weights[0])
    hull = PolytopeQ.from_points(weights, ambient_dim=k)
    origin = (0,) * k
    pos, combination = locate(hull, origin)
    if pos == INTERIOR:
        return StabilityResult(STABLE, weights, combination=combination)
    if pos == RELATIVE_INTERIOR_ONLY:
        return StabilityResult(
            POLYSTABLE_NOT_STABLE,
            weights,
            combination=combination,
            flat_lattice=saturated_kernel(weights),
        )
    if pos == ON_PROPER_FACE:
        face = face_support(hull, origin, combination)
        return StabilityResult(
            SEMISTABLE_NOT_POLYSTABLE,
            weights,
            combination=combination,
            cocharacter=_face_cocharacter(weights, face),
        )
    return StabilityResult(UNSTABLE, weights, cocharacter=_separating_cocharacter(weights))


@lru_cache(maxsize=8)
def _box_points(rank: int, bound: int) -> np.ndarray:
    """All integer points of [-B, B]^rank, each axis ordered by increasing
    magnitude with the positive value first (0, 1, -1, 2, -2, ...)."""
    axis = np.zeros(2 * bound + 1, dtype=np.int64)
    axis[1::2] = np.arange(1, bound + 1)
    axis[2::2] = -np.arange(1, bound + 1)
    grid = np.meshgrid(*([axis] * rank), indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, rank)


def destabilizer_bruteforce(v: RepVector, box_bound: int = 50):
    """Scan the integer box for a nonzero cocharacter x with <w, x> >= 0 for
    every effective weight, witnessing that v is not stable.

    Returns the first hit of a fixed deterministic scan (each coordinate
    ordered by increasing magnitude, positive before negative) or None when
    the box holds no witness.  Soundness of the box bound is a property of
    the weight scale, not of this function.
    """
    if box_bound < 1:
        raise ValueError("box_bound must be >= 1")
    if v.is_zero():
        raise ZeroVectorError("the zero vector has no stability class")
    weights = sorted(v.effective_g_weights())
    k = len(weights[0])
    if k == 0:
        return None
    points = (2 * box_bound + 1) ** k
    if points > MAX_BOX_POINTS:
        raise ValueError(
            f"brute-force box of {points} points (rank {k}, bound {box_bound}) "
            f"exceeds the limit of {MAX_BOX_POINTS}"
        )
    pts = _box_points(k, box_bound)
    w = np.array(weights, dtype=np.int64)
    ok = (pts @ w.T >= 0).all(axis=1)
    ok &= (pts != 0).any(axis=1)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    return tuple(int(c) for c in pts[hits[0]])
