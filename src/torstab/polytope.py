"""Convex polytopes over Q in V-representation, queried by exact LP.

Polytopes are stored as a finite generating set (not necessarily vertices;
duplicates are harmless).  Facts usually read off an H-representation --
membership, relative interior, minimal faces, axis slices -- are answered
on demand by the exact simplex, so no double-description step is needed.

locate and ray_entry also return their LP's tight columns (simplex), which
hold the minimal face of the point they place; face_combination searches
only those candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InternalError
from .qexact import QVec, dot, qvec, rational_rank, solve_affine, vsub
from .simplex import INFEASIBLE, OPTIMAL, solve_lp, solve_lp_mixed

# hull_position verdicts
INTERIOR = "Interior"
RELATIVE_INTERIOR_ONLY = "RelativeInteriorOnly"
ON_PROPER_FACE = "OnProperFace"
OUTSIDE = "Outside"


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class PolytopeQ:
    generators: tuple[QVec, ...]
    ambient_dim: int

    def __post_init__(self):
        if not self.generators:
            raise ValueError("polytope needs at least one generator")
        for g in self.generators:
            if len(g) != self.ambient_dim:
                raise DimensionMismatch("generator of wrong dimension")

    @staticmethod
    def from_points(points: Sequence[Sequence]) -> "PolytopeQ":
        gens = tuple(qvec(p) for p in points)
        return PolytopeQ(gens, len(gens[0]) if gens else 0)

    def dim(self) -> int:
        g0 = self.generators[0]
        return rational_rank([vsub(g, g0) for g in self.generators[1:]])


def _check_point(p: PolytopeQ, q: Sequence) -> QVec:
    q = qvec(q)
    if len(q) != p.ambient_dim:
        raise DimensionMismatch("query point of wrong dimension")
    return q


def _relint_lp(p: PolytopeQ, q: QVec):
    """max t s.t. q = sum_i (t + beta_i) g_i, sum_i (t + beta_i) = 1,
    beta >= 0, t >= 0.

    Substituting alpha_i = t + beta_i keeps the row count at dim+1
    regardless of the number of generators, and the sum row alone bounds t
    by 1/m.  Feasibility (with t = 0) is hull membership; optimum t* > 0 is
    relative-interior membership, since relint(conv G) is exactly the set of
    all-positive convex combinations.

    Returns (t*, alphas, tight beta columns), or (None, x, ()) when
    infeasible: the Farkas multipliers (x, mu) of the coordinate and sum
    rows have <g_i, x> + mu >= 0 on every beta column and <q, x> + mu < 0,
    so <g_i - q, x> > 0 on every generator.
    """
    gens = p.generators
    m = len(gens)
    d = p.ambient_dim
    sum_g = [sum(g[i] for g in gens) for i in range(d)]
    # variables: beta_1..beta_m, t
    rows = []
    rhs = []
    for i in range(d):
        rows.append([g[i] for g in gens] + [sum_g[i]])
        rhs.append(q[i])
    rows.append([1] * m + [m])
    rhs.append(1)
    obj = [0] * m + [1]
    res = solve_lp(rows, rhs, obj)
    if res.status == INFEASIBLE:
        return None, res.farkas[:d], ()
    t = res.x[m]
    return t, tuple(b + t for b in res.x[:m]), tuple(j for j in res.tight if j < m)


def locate(p: PolytopeQ, q: Sequence) -> tuple[str, tuple, tuple[int, ...]]:
    """(hull_position, convex_combination or separating x, candidates) of q
    from one LP, the candidates its tight beta columns, () when Outside.  On
    OnProperFace t* = 0, so every convex representation of q is optimal, and
    they hold minimal_face(p, q); inside, the combination is all positive."""
    q = _check_point(p, q)
    t, cert, tight = _relint_lp(p, q)
    if t is None:
        return OUTSIDE, cert, tight
    if t == 0:
        return ON_PROPER_FACE, cert, tight
    if p.dim() == p.ambient_dim:
        return INTERIOR, cert, tight
    return RELATIVE_INTERIOR_ONLY, cert, tight


def convex_combination(p: PolytopeQ, q: Sequence) -> tuple[Fraction, ...] | None:
    """Coefficients of a convex combination of the generators equal to q,
    or None when q is outside the hull.  The relint LP is reused so interior
    points get all-positive coefficients."""
    pos, cert, _ = locate(p, q)
    return None if pos == OUTSIDE else cert


def hull_position(p: PolytopeQ, q: Sequence) -> str:
    """Classify q against the hull: Interior / RelativeInteriorOnly /
    OnProperFace / Outside, decided by exact LP with no tolerances.

    Interior is meant in the ambient topology, so it additionally requires
    the hull to be full-dimensional; RelativeInteriorOnly flags points in
    the relative interior of a lower-dimensional hull.
    """
    return locate(p, q)[0]


def minimal_face(p: PolytopeQ, q: Sequence) -> tuple[int, ...]:
    """Indices of the generators on the unique face whose relative interior
    contains q."""
    pos, cert, tight = locate(p, q)
    if pos == OUTSIDE:
        raise ValueError("q lies outside the hull")
    return tuple(i for i, a in enumerate(face_combination(p, q, cert, tight)) if a > 0)


def face_combination(p: PolytopeQ, q: Sequence, combination: Sequence[Fraction],
                     candidates: Iterable[int]) -> tuple[Fraction, ...]:
    """A convex combination of the generators equal to q that is positive
    exactly on minimal_face(p, q), given any convex combination equal to q
    and candidates, indices of every face generator it leaves at 0 and
    maybe more (locate's or ray_entry's; range(m) searches them all).

    A generator is on the face iff some convex representation of q weights
    it, so each candidate off the face found so far, in increasing order,
    is settled by one LP maximizing its coefficient, and the supports of
    positive maximizers are merged.  A generator off the face has maximum 0
    and is never merged, so the result does not depend on the candidates.
    It is the mean of the given combination and the merged maximizers, all
    convex representations of q whose supports cover the face, or the given
    combination itself when none is merged.
    """
    q = _check_point(p, q)
    gens = p.generators
    m = len(gens)
    face = {i for i in range(m) if combination[i] > 0}
    found = [tuple(combination)]
    rows = [[g[i] for g in gens] for i in range(p.ambient_dim)] + [[1] * m]
    rhs = list(q) + [1]
    for i in sorted(candidates):
        if i in face:
            continue
        res = solve_lp(rows, rhs, [int(j == i) for j in range(m)])
        if res.status != OPTIMAL:
            raise InternalError(f"face LP is {res.status}, but q is in the hull")
        if res.value > 0:
            face.update(j for j in range(m) if res.x[j] > 0)
            found.append(res.x)
    if len(found) == 1:
        return found[0]
    return tuple(Fraction(sum(col), len(found)) for col in zip(*found))


@dataclass(frozen=True)
class RayInterval:
    lo: Fraction
    hi: Fraction
    lo_combination: tuple[Fraction, ...]
    hi_combination: tuple[Fraction, ...]


def _ray_lp(p: PolytopeQ, axis_complement_dims: Sequence[int], positive_coord: int):
    """Rows, right-hand side and rho objective of the LPs over the convex
    combinations whose point has the listed coordinates zero."""
    gens = p.generators
    m = len(gens)
    axis = list(axis_complement_dims)
    if positive_coord in axis or positive_coord >= p.ambient_dim:
        raise DimensionMismatch("bad coordinate split")
    rows = [[g[i] for g in gens] for i in axis] + [[1] * m]
    rhs = [0] * len(axis) + [1]
    return rows, rhs, [g[positive_coord] for g in gens]


def ray_entry(
    p: PolytopeQ,
    axis_complement_dims: Sequence[int],
    positive_coord: int,
) -> tuple[Fraction, tuple[Fraction, ...], tuple[int, ...]] | None:
    """(lo, combination, candidates) for the least rho with (0,...,0,rho) in
    the hull, where the listed coordinates are pinned to zero and
    positive_coord carries rho, or None when no hull point has them zero.

    One LP minimizes rho over that slice.  lo is not clamped, so it may be
    <= 0, and combination is a convex combination of the generators equal
    to the point at rho = lo.  Every convex representation of that point is
    optimal, so the LP's tight columns, the candidates, hold its minimal face.
    """
    rows, rhs, obj = _ray_lp(p, axis_complement_dims, positive_coord)
    bot = solve_lp(rows, rhs, [-x for x in obj])
    if bot.status != OPTIMAL:
        return None  # slice empty
    return -bot.value, tuple(bot.x), bot.tight


def ray_intersect(
    p: PolytopeQ,
    axis_complement_dims: Sequence[int],
    positive_coord: int,
) -> RayInterval | None:
    """Exact interval of rho > 0 with the point (0,...,0,rho) in the hull,
    where the listed coordinates are pinned to zero and positive_coord
    carries rho.  Returns None when the positive ray misses the hull.

    Both endpoints come with convex-combination certificates.  If the slice
    reaches rho <= 0 the closure endpoint max(lo, 0) is reported; with the
    stratification preconditions in force this does not occur.
    """
    entry = ray_entry(p, axis_complement_dims, positive_coord)
    if entry is None:
        return None
    lo, lo_comb, _ = entry
    rows, rhs, obj = _ray_lp(p, axis_complement_dims, positive_coord)
    top = solve_lp(rows, rhs, obj)
    if top.value <= 0:
        return None
    if lo < 0:
        # closure of the positive part; certificate left at the attained end
        lo = 0
    return RayInterval(lo, top.value, lo_comb, tuple(top.x))


def solve_mixed_system(
    equalities: Sequence[tuple[Sequence, object]],
    strict_inequalities: Sequence[tuple[Sequence, object]],
    nvars: int,
) -> QVec | None:
    """A rational point with <a,x> = b for all equalities and <g,x> > h for
    all strict inequalities, or None exactly when the system is infeasible.

    Deterministic selection: strict rows are shifted to <g,x> >= h + t and
    the slack t is maximized first (capped at 1, an epsilon made concrete);
    with t pinned, coordinates are fixed one at a time to their minimal
    absolute value, preferring the nonnegative sign.  The result is the
    same point on every run.  Every value chosen is an LP optimum, so the
    point does not depend on how the LPs are solved.

    The equalities are settled first by one exact elimination (Schrijver,
    Theory of Linear and Integer Programming, ch. 3): x = y + N z with z
    free.  LPs run over z only.  When N is empty there are none, and t is
    min(1, <g,y> - h) over the strict rows.  A coordinate whose row of N is
    zero is already fixed at y_i.  Any other coordinate is fixed by
    appending x_i = val to the equalities and eliminating again, which
    shrinks N by one; so at most 1 + 2 dim N LPs are solved.  Zero
    coordinates are the int 0 and all others are Fractions.
    """
    for a, _ in [*equalities, *strict_inequalities]:
        if len(a) != nvars:
            raise DimensionMismatch("constraint of wrong arity")
    rows, rhs = [a for a, _ in equalities], [b for _, b in equalities]
    sol = solve_affine(rows, rhs, nvars)
    if sol is None:
        return None
    y, basis = sol

    def over_z(t):
        # <g, y + N z> >= h + t  as  <g N, z> >= h + t - <g, y>
        return [([dot(g, v) for v in basis], h + t - dot(g, y))
                for g, h in strict_inequalities]

    if basis:
        k = len(basis)
        ge = [([*c, -1], h) for c, h in over_z(0)]
        ge += [([0] * k + [-1], -1), ([0] * k + [1], 0)]  # 0 <= t <= 1
        tstar = solve_lp_mixed(ge, [0] * k + [1])
    else:
        tstar = min([1, *(dot(g, y) - h for g, h in strict_inequalities)])
    if tstar is None or tstar <= 0:
        return None

    for i in range(nvars):
        row = [v[i] for v in basis]
        if not any(row):
            continue
        # achievable x_i values form an interval by convexity; pick the one
        # of minimal absolute value (0 whenever the interval straddles it);
        # the upper end is needed only when the lower one is not positive
        ge = over_z(tstar)
        neg_lo = solve_lp_mixed(ge, [-v for v in row])  # -min <row, z>
        if neg_lo is not None and y[i] - neg_lo > 0:
            val = y[i] - neg_lo
        else:
            hi = solve_lp_mixed(ge, row)
            val = y[i] + hi if hi is not None and y[i] + hi < 0 else 0
        rows.append([int(j == i) for j in range(nvars)])
        rhs.append(val)
        y, basis = solve_affine(rows, rhs, nvars)
    return tuple(Fraction(v) if v else 0 for v in y)

