"""Stability of vectors in torus representations via the weight polytope.

A nonzero vector is stable iff 0 lies in the ambient-topology interior of
the convex hull of its effective weights, polystable iff 0 lies in the
relative interior, semistable iff 0 lies in the hull.  Each verdict comes
with an exactly re-verifiable certificate, and a brute-force scan over
integer cocharacters in a box provides an independent oracle.

The verdict comes off one exact relint LP (polytope.locate); when it is
infeasible, its Farkas functional made primitive is the unstable certificate.

Graded lines take part through their torus weight only; the grading circle
never enters a stability decision here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import InternalError, ValidationError, ZeroVectorError
from .polytope import (
    INTERIOR,
    ON_PROPER_FACE,
    RELATIVE_INTERIOR_ONLY,
    PolytopeQ,
    face_combination,
    locate,
    solve_mixed_system,
)
from .qexact import Lattice, clear_denominators, dot, saturated_kernel
from .torus_rep import RepVector

if TYPE_CHECKING:
    import numpy as np

UNSTABLE = "Unstable"
SEMISTABLE_NOT_POLYSTABLE = "SemistableNotPolystable"
POLYSTABLE_NOT_STABLE = "PolystableNotStable"
STABLE = "Stable"

# Largest integer box destabilizer_bruteforce will scan, counted at the bound
# it scans, min(B, witness_bound).  The scan holds the (2B+1)^(k-1) grid of
# x_2..x_k and its pairings, never the whole box, so this caps the work of a
# scan rather than its memory; it admits the rank-3 box at bound 50 (101^3
# points).
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
    # destabilizing (all pairings >= 1: the primitive Farkas functional of
    # the relint LP) or face-supporting (pairings >= 0, zero exactly on the
    # face) integer cocharacter
    cocharacter: tuple[int, ...] | None = None

    def verify(self) -> bool:
        """Re-check the certificate exactly against the weights.

        A combination is checked in integers on its cleared numerators,
        (D, n) = clear_denominators(combination): sum n_i = D, every
        n_i >= 0 (> 0 for Stable and PolystableNotStable) and
        sum n_i w_i = 0.  Stable's empty saturated kernel is one rank test.
        A cocharacter or flat lattice of another dimension than the weights
        is rejected.
        """
        w = self.weights
        k = len(w[0]) if w else 0
        x, lat = self.cocharacter, self.flat_lattice
        if any(len(wt) != k for wt in w) or (x is not None and len(x) != k) or (
                lat is not None and lat.ambient_dim != k):
            return False
        if self.combination is not None:
            if len(self.combination) != len(w):
                return False
            den, nums = clear_denominators(self.combination)
            if sum(nums) != den or any(n < 0 for n in nums):
                return False
            if any(sum(n * g[i] for n, g in zip(nums, w)) for i in range(k)):
                return False
            if self.stability in (STABLE, POLYSTABLE_NOT_STABLE) and 0 in nums:
                return False
        if self.stability == STABLE:
            return saturated_kernel(w).rank == 0
        if self.stability == POLYSTABLE_NOT_STABLE:
            return lat is not None and lat.rank > 0 and all(
                dot(wt, b) == 0 for wt in w for b in lat.basis
            )
        if self.stability == UNSTABLE:
            return x is not None and all(dot(wt, x) >= 1 for wt in w)
        if self.stability == SEMISTABLE_NOT_POLYSTABLE:
            return (
                x is not None
                and all(dot(wt, x) >= 0 for wt in w)
                and any(dot(wt, x) > 0 for wt in w)
            )
        return False


def _face_cocharacter(weights, face_comb) -> tuple[int, ...]:
    """Integer x vanishing on the weights where face_comb is positive, the
    face, and >= 1 off it."""
    k = len(weights[0])
    eqs = [(w, 0) for w, a in zip(weights, face_comb) if a]
    stricts = [(w, 0) for w, a in zip(weights, face_comb) if not a]
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
    hull = PolytopeQ.from_points(weights)
    origin = (0,) * k
    pos, cert, tight = locate(hull, origin)
    if pos == INTERIOR:
        return StabilityResult(STABLE, weights, combination=cert)
    if pos == RELATIVE_INTERIOR_ONLY:
        return StabilityResult(
            POLYSTABLE_NOT_STABLE,
            weights,
            combination=cert,
            flat_lattice=saturated_kernel(weights),
        )
    if pos == ON_PROPER_FACE:
        face = face_combination(hull, origin, cert, tight)
        return StabilityResult(
            SEMISTABLE_NOT_POLYSTABLE,
            weights,
            combination=cert,
            cocharacter=_face_cocharacter(weights, face),
        )
    # the relint LP's Farkas functional pairs positively, in integers, with
    # every weight; made primitive, each pairing stays >= 1
    g = math.gcd(*cert) or 1
    x = tuple(c // g for c in cert)
    if not all(dot(w, x) >= 1 for w in weights):
        raise InternalError(f"no separating cocharacter {x}, but 0 is outside the hull")
    return StabilityResult(UNSTABLE, weights, cocharacter=x)


def witness_bound(weights) -> int:
    """A bound M >= 1 such that, if the cone {x : <w, x> >= 0 for every
    weight w} holds a nonzero integer point, it holds one with every
    |x_i| <= M.

    Such a point exists among the lineality vectors and extreme rays of the
    cone, and Cramer's rule on at most k-1 tight weights gives it with
    entries that are minors of the weight matrix of size at most k-1
    (Schrijver, Theory of Linear and Integer Programming, ch. 10).  M is the
    largest such |minor|: exact at rank <= 3, Hadamard's bound (the product
    of the k-1 largest nonzero row norms) above.
    """
    rows = list(weights)
    k = len(rows[0]) if rows else 0
    if k > 3:
        norms2 = sorted((sum(c * c for c in w) for w in rows), reverse=True)
        return max(1, math.isqrt(math.prod(n for n in norms2[: k - 1] if n)))
    minors = [abs(c) for w in rows for c in w] if k > 1 else []
    if k == 3:
        minors += [
            abs(a[i] * b[j] - a[j] * b[i])
            for a, b in combinations(rows, 2)
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
    return max([1] + minors)


def _axis(bound: int) -> np.ndarray:
    import numpy as np

    axis = np.zeros(2 * bound + 1, dtype=np.int64)
    axis[1::2] = np.arange(1, bound + 1)
    axis[2::2] = -np.arange(1, bound + 1)
    return axis


@lru_cache(maxsize=8)
def _box_points(rank: int, bound: int) -> np.ndarray:
    """All integer points of [-B, B]^rank in scan order: each axis ordered by
    increasing magnitude with the positive value first (0, 1, -1, 2, -2, ...),
    the first coordinate varying slowest."""
    import numpy as np

    if rank == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grid = np.meshgrid(*([_axis(bound)] * rank), indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, rank)


def _first_hit(weights, bound: int):
    """First nonzero x of [-bound, bound]^k in scan order with <w, x> >= 0
    for every weight w, or None.

    The box is the cached (k-1)-dimensional grid of x_2..x_k times the
    values c of x_1, and scan order is (scan rank of c, grid row).  The
    slice c = 0 is tested first: a hit there has the lowest rank.  Without
    one, if w_0 >= 0 for every weight, (1, 0, ..., 0) is the next point of
    the scan and a hit; if w_0 <= 0, (-1, 0, ..., 0) is the first hit,
    since a hit (1, y) would make (0, y) one.  Otherwise, on a grid row
    with pairings p, the witnesses c w_0 + p >= 0 form an interval
    [lo, hi] of c clipped to the box.  Off the origin row it excludes 0,
    which would be a hit in the slice c = 0, so the row's first witness in
    the order 0, 1, -1, 2, -2, ... is clip(0, lo, hi).
    """
    first = [w[0] for w in weights]
    axis_c = 1 if min(first) >= 0 else -1 if max(first) <= 0 else None
    if len(weights[0]) == 1:  # the grid is the origin alone
        return None if axis_c is None else (axis_c,)
    import numpy as np

    w = np.array(weights, dtype=np.int64)
    rest = _box_points(w.shape[1] - 1, bound)
    pairings = rest @ w[:, 1:].T
    ok = (pairings >= 0).all(axis=1)
    ok[0] = False  # rest[0] is the origin
    hits = np.flatnonzero(ok)
    if hits.size:
        return (0,) + tuple(int(t) for t in rest[hits[0]])
    if axis_c is not None:
        return (axis_c,) + (0,) * (w.shape[1] - 1)
    w0 = w[:, 0]
    pos, neg, zero = w0 > 0, w0 < 0, w0 == 0
    # c >= ceil(-p / w_0) where w_0 > 0, c <= floor(p / -w_0) where w_0 < 0
    lo = np.maximum(-(pairings[:, pos] // w0[pos]).min(axis=1), -bound)
    hi = np.minimum((pairings[:, neg] // -w0[neg]).min(axis=1), bound)
    ok = lo <= hi
    if zero.any():
        ok &= (pairings[:, zero] >= 0).all(axis=1)
    ok[0] = False  # the origin row's interval is {0}
    rows = np.flatnonzero(ok)
    if not rows.size:
        return None
    c = np.clip(0, lo[rows], hi[rows])
    # argmin keeps the first, so the lowest row, of the lowest scan rank
    i = int(np.argmin(np.where(c > 0, 2 * c - 1, -2 * c)))
    return (int(c[i]),) + tuple(int(t) for t in rest[rows[i]])


def destabilizer_bruteforce(v: RepVector, box_bound: int = 50):
    """Scan the integer box [-B, B]^k for a nonzero cocharacter x with
    <w, x> >= 0 for every effective weight, witnessing that v is not stable.

    Returns the first hit of a fixed deterministic scan (each coordinate
    ordered by increasing magnitude, positive before negative, the first
    coordinate varying slowest) or None when the box holds no witness.
    Only the part of the box within M = witness_bound(weights) is scanned,
    because the first hit always lies there.  When M <= B, None proves v
    stable.  A scanned box of more than MAX_BOX_POINTS points is refused.
    """
    if box_bound < 1:
        raise ValidationError(["box_bound must be >= 1"])
    if v.is_zero():
        raise ZeroVectorError("the zero vector has no stability class")
    weights = sorted(v.effective_g_weights())
    k = len(weights[0])
    if k == 0:
        return None
    bound = min(box_bound, witness_bound(weights))
    points = (2 * bound + 1) ** k
    if points > MAX_BOX_POINTS:
        raise ValidationError([
            f"brute-force box of {points} points (rank {k}, bound {bound}) "
            f"exceeds the limit of {MAX_BOX_POINTS}"
        ])
    largest = max(abs(c) for w in weights for c in w)
    # only a scan of rank >= 2 builds int64 arrays (_first_hit)
    if k > 1 and largest * k * bound >= 2**63:
        raise ValidationError([
            f"weights up to {largest} overflow the 64-bit pairings of the "
            f"brute-force scan at bound {bound}"
        ])
    # Why the first hit lies within M: if the cone meets x_1 = 0 beyond the
    # origin, the first hit lies in that slice, the cone of W without its
    # first column, whose minors are minors of W (induction on k).
    # Otherwise the cone is a line or x_1 has one sign on it, and either way
    # it is spanned by rays through integer points r with r_1 != 0 and
    # |r_i| <= M (Cramer).  The first slice x_1 = c holding a cone point has
    # |c| <= |r_1| for each r, so it is the hull of the points c r / r_1,
    # all within M.
    return _first_hit(weights, bound)
