"""Exact geometry tests.

The LP-based hull queries are checked against brute-force oracles that never
touch the simplex: Caratheodory membership by exhaustive enumeration of
affinely independent generator subsets, and relative-interior / face
detection by exhaustive supporting-hyperplane enumeration in affine
coordinates of the hull.
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torstab.polytope import (
    INTERIOR,
    ON_PROPER_FACE,
    OUTSIDE,
    RELATIVE_INTERIOR_ONLY,
    PolytopeQ,
    convex_combination,
    face_combination,
    hull_position,
    locate,
    minimal_face,
    ray_entry,
    ray_intersect,
    solve_mixed_system,
)
from torstab.qexact import (
    Lattice,
    _echelon,
    dot,
    nullspace,
    qvec,
    rational_rank,
    saturated_kernel,
    smith_normal_form,
    solve_affine,
    vsub,
)
from torstab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp, solve_lp_mixed

F = Fraction


# ---------------------------------------------------------------------------
# oracles (independent of the simplex)


def solve_linear(rows, rhs):
    """One rational solution of A x = b, or None if inconsistent."""
    sol = solve_affine(rows, rhs, len(rows[0]) if rows else 0)
    return None if sol is None else sol[0]


def oracle_member(gens, q):
    """q in conv(gens) iff q is a convex combination of some affinely
    independent subset (Caratheodory), each checked by an exact solve."""
    gens = [qvec(g) for g in gens]
    q = qvec(q)
    d = len(q)
    for size in range(1, d + 2):
        for sub in combinations(gens, size):
            diffs = [vsub(g, sub[0]) for g in sub[1:]]
            if diffs and rational_rank(diffs) != len(diffs):
                continue
            # barycentric solve: sum a_i g_i = q, sum a_i = 1
            rows = [[g[i] for g in sub] for i in range(d)] + [[F(1)] * size]
            rhs = list(q) + [F(1)]
            sol = solve_linear(rows, rhs)
            if sol is not None and all(a >= 0 for a in sol):
                return True
    return False


def _affine_coords(gens):
    """Basis of the affine hull directions plus a coordinate map."""
    g0 = gens[0]
    basis = []
    for g in gens[1:]:
        cand = basis + [vsub(g, g0)]
        if rational_rank(cand) == len(cand):
            basis.append(vsub(g, g0))

    def coords(p):
        if not basis:
            return ()
        cols = [[b[i] for b in basis] for i in range(len(g0))]
        sol = solve_linear(cols, list(vsub(p, g0)))
        assert sol is not None
        return sol

    return basis, coords


def oracle_supporting_hyperplanes(gens):
    """All supporting hyperplanes spanned by generator subsets, in affine
    coordinates; every facet appears among them."""
    gens = [qvec(g) for g in gens]
    basis, coords = _affine_coords(gens)
    dim = len(basis)
    pts = [coords(g) for g in gens]
    if dim == 0:
        return dim, pts, []
    planes = []
    for sub in combinations(range(len(pts)), dim):
        anchor = pts[sub[0]]
        diffs = [vsub(pts[i], anchor) for i in sub[1:]]
        normals = nullspace(diffs) if diffs else nullspace([[F(0)] * dim])
        if len(normals) != 1:
            continue
        n = normals[0]
        c = dot(n, anchor)
        vals = [dot(n, p) for p in pts]
        if all(v <= c for v in vals) or all(v >= c for v in vals):
            planes.append((n, c))
    return dim, pts, planes


def oracle_position(gens, q, ambient):
    if not oracle_member(gens, q):
        return OUTSIDE
    dim, pts, planes = oracle_supporting_hyperplanes(gens)
    _, coords = _affine_coords([qvec(g) for g in gens])
    qa = coords(qvec(q))
    on_boundary = any(dot(n, qa) == c for n, c in planes)
    if on_boundary:
        return ON_PROPER_FACE
    return INTERIOR if dim == ambient else RELATIVE_INTERIOR_ONLY


def oracle_minimal_face(gens, q):
    gens_q = [qvec(g) for g in gens]
    dim, pts, planes = oracle_supporting_hyperplanes(gens_q)
    _, coords = _affine_coords(gens_q)
    qa = coords(qvec(q))
    through = [(n, c) for n, c in planes if dot(n, qa) == c]
    return tuple(
        i for i, p in enumerate(pts) if all(dot(n, p) == c for n, c in through)
    )


# ---------------------------------------------------------------------------
# simplex core


def test_lp_basic_max():
    # max x + y st x + y <= 1 encoded with a slack variable
    res = solve_lp([[1, 1, 1]], [1], [1, 1, 0])
    assert res.status == OPTIMAL
    assert res.value == 1


def test_lp_infeasible():
    res = solve_lp([[1], [1]], [1, 2], [0])
    assert res.status == INFEASIBLE


def test_lp_unbounded():
    # max x st x - s = 0 (x, s >= 0): x grows without bound from (0, 0)
    res = solve_lp([[1, -1]], [0], [1, 0])
    assert res.status == UNBOUNDED
    assert res.x == (0, 0) and res.value is None


def test_lp_negative_rhs_rows():
    # -x = -3 with x >= 0
    res = solve_lp([[-1]], [-3], [0])
    assert res.status == OPTIMAL
    assert res.x[0] == 3


def test_lp_beale_cycling_example_terminates():
    # Beale (1955): on this degenerate LP the largest-reduced-cost rule,
    # with ratio ties to the first row, cycles and never returns; Bland's
    # rule must stop at the optimum
    a = [[1, 0, 0, F(1, 4), -60, F(-1, 25), 9],
         [0, 1, 0, F(1, 2), -90, F(-1, 50), 3],
         [0, 0, 1, 0, 0, 1, 0]]
    res = solve_lp(a, [0, 0, 1], [0, 0, 0, F(3, 4), -150, F(1, 50), -6])
    assert res.status == OPTIMAL
    assert res.value == F(1, 20)
    assert res.x == (F(3, 100), 0, 0, F(1, 25), 0, 1, 0)


def test_lp_klee_minty_cube_terminates():
    # the 5-dimensional Klee-Minty cube: max sum 2^(n-j) x_j subject to
    # sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i, with one slack per row; the
    # optimum is x_n = 5^n, every other x_j = 0
    n = 5
    a = [[2 ** (i - j + 1) if j < i else int(i == j) for j in range(1, n + 1)]
         + [int(i == k) for k in range(1, n + 1)] for i in range(1, n + 1)]
    c = [2 ** (n - j) for j in range(1, n + 1)] + [0] * n
    res = solve_lp(a, [5 ** i for i in range(1, n + 1)], c)
    assert res.status == OPTIMAL
    assert res.value == 5 ** n == 3125
    assert res.x[:n] == (0,) * (n - 1) + (5 ** n,)


def test_lp_deterministic():
    a = [[1, 2, 1, 0], [3, 1, 0, 1]]
    b = [4, 5]
    c = [2, 3, 0, 0]
    r1 = solve_lp(a, b, c)
    r2 = solve_lp(a, b, c)
    assert r1.x == r2.x and r1.value == r2.value


# ---------------------------------------------------------------------------
# simplex kernel against a Fraction-tableau reference


class _ReferenceTableau:
    """The rational simplex tableau the integer-preserving kernel replaced:
    Fraction entries, the objective row rebuilt on every iteration, the
    same Bland's rule.  Kept here only, as the oracle for the kernel."""

    def __init__(self, a, b, nvars):
        self.m = len(a)
        self.nvars = nvars
        self.ncols = nvars + self.m
        self.rows = []
        for i in range(self.m):
            coeffs = list(a[i]) if b[i] >= 0 else [-x for x in a[i]]
            row = coeffs + [F(0)] * self.m + [abs(b[i])]
            row[nvars + i] = F(1)
            self.rows.append(row)
        self.basis = [nvars + i for i in range(self.m)]

    def pivot(self, r, c):
        piv = self.rows[r][c]
        self.rows[r] = [x / piv for x in self.rows[r]]
        for i in range(self.m):
            if i != r and self.rows[i][c] != 0:
                f = self.rows[i][c]
                self.rows[i] = [x - f * y for x, y in zip(self.rows[i], self.rows[r])]
        self.basis[r] = c

    def reduced_costs(self, cost):
        z = [F(0)] * (self.ncols + 1)
        for i, bi in enumerate(self.basis):
            for j in range(self.ncols + 1):
                z[j] += cost[bi] * self.rows[i][j]
        return [cost[j] - z[j] for j in range(self.ncols)], z[self.ncols]

    def solution(self):
        x = [F(0)] * self.nvars
        for i, bi in enumerate(self.basis):
            if bi < self.nvars:
                x[bi] = self.rows[i][-1]
        return tuple(x)

    def ratio_row(self, c):
        best = None
        for i in range(self.m):
            a = self.rows[i][c]
            if a > 0:
                key = (self.rows[i][-1] / a, self.basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        return None if best is None else best[1]

    def optimize(self, cost, allowed):
        while True:
            red, _ = self.reduced_costs(cost)
            enter = next(
                (j for j in range(self.ncols) if allowed[j] and j not in self.basis and red[j] > 0),
                None,
            )
            if enter is None:
                return OPTIMAL
            leave = self.ratio_row(enter)
            if leave is None:
                return UNBOUNDED
            self.pivot(leave, enter)


def reference_solve_lp(a, b, c):
    a = [[F(x) for x in row] for row in a]
    b = [F(x) for x in b]
    c = [F(x) for x in c]
    nvars, m = len(c), len(a)
    t = _ReferenceTableau(a, b, nvars)
    phase1 = [F(0)] * nvars + [F(-1)] * m
    allowed = [True] * (nvars + m)
    assert t.optimize(phase1, allowed) == OPTIMAL
    if t.reduced_costs(phase1)[1] != 0:
        return INFEASIBLE, None, None
    for i in range(m):
        if t.basis[i] >= nvars and t.rows[i][-1] == 0:
            piv = next((j for j in range(nvars) if t.rows[i][j] != 0), None)
            if piv is not None:
                t.pivot(i, piv)
    allowed[nvars:] = [False] * m
    if t.optimize(list(c) + [F(0)] * m, allowed) == UNBOUNDED:
        return UNBOUNDED, t.solution(), None
    x = t.solution()
    return OPTIMAL, x, sum((ci * xi for ci, xi in zip(c, x)), F(0))


def lp_outcome(res):
    return res.status, res.x, res.value


_rational = st.builds(F, st.integers(-4, 4), st.integers(1, 5))


@st.composite
def small_lps(draw):
    """Small LPs with rational data, a mix of feasible right-hand sides
    (a x0 for a random x0 >= 0, often with zero entries) and arbitrary ones
    (often negative or zero), then duplicated and negated copies of rows,
    and costs that are often zero."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    a = [draw(st.lists(_rational, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        x0 = draw(st.lists(st.sampled_from((F(0), F(1), F(1, 2), F(3))), min_size=n, max_size=n))
        b = [sum((x * y for x, y in zip(row, x0)), F(0)) for row in a]
    else:
        b = draw(st.lists(_rational, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(a) - 1))
        sign = draw(st.sampled_from((1, -1)))
        a.append([sign * x for x in a[i]])
        b.append(sign * b[i])
    # zero costs leave the optimum to the vertex phase 1 reaches
    c = draw(st.lists(st.one_of(st.just(F(0)), _rational), min_size=n, max_size=n))
    return a, b, c


def farkas_holds(a, b, y):
    """y.a >= 0 on every column and y.b < 0, in Fraction arithmetic."""
    cols = range(len(a[0])) if a else range(0)
    return (all(sum((F(yi) * F(row[j]) for yi, row in zip(y, a)), F(0)) >= 0 for j in cols)
            and sum((F(yi) * F(bi) for yi, bi in zip(y, b)), F(0)) < 0)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(small_lps())
def test_lp_matches_fraction_tableau(lp):
    a, b, c = lp
    res = solve_lp(a, b, c)
    assert lp_outcome(res) == reference_solve_lp(a, b, c)
    # Farkas multipliers come with INFEASIBLE only, and certify it
    assert (res.farkas is not None) == (res.status == INFEASIBLE)
    assert res.farkas is None or farkas_holds(a, b, res.farkas)


def test_lp_common_scale_keeps_phase1_path():
    # rows with different denominators: scaling each row by its own lcm
    # would reweight the phase-1 objective and end at another vertex
    a = [[F(-4, 5), F(-1, 2), F(-2, 5), F(1, 2)], [0, -1, 0, 3], [2, F(-3, 2), -1, F(2, 5)]]
    b = [F(3, 5), 8, F(-13, 10)]
    c = [0, 0, 0, 0]
    assert lp_outcome(solve_lp(a, b, c)) == reference_solve_lp(a, b, c)


def test_lp_drive_out_on_negative_pivot():
    # the leftover artificial of row 0 is driven out on the entry -1 and
    # row 1 turns out redundant; then x = y grows without bound
    res = solve_lp([[-1, 1], [1, -1]], [0, 0], [1, 0])
    assert lp_outcome(res) == reference_solve_lp([[-1, 1], [1, -1]], [0, 0], [1, 0])
    assert res.status == UNBOUNDED
    assert res.x == (0, 0)


@st.composite
def infeasible_lps(draw):
    """LPs a x = b, x >= 0 made infeasible by one more row: for multipliers
    lam of any sign, the row p - lam.a with p >= 0 and right-hand side
    -lam.b - delta, delta > 0, so (lam, 1) is a Farkas certificate.  Data
    are ints or Fractions, right-hand sides are often negative (the rows
    the tableau negates), and copies of rows, negated or not, are redundant."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    entry = st.one_of(st.integers(-4, 4), _rational)
    a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(entry, min_size=m, max_size=m))
    lam = draw(st.lists(entry, min_size=m, max_size=m))
    p = draw(st.lists(st.sampled_from((0, 0, 1, F(1, 2), 3)), min_size=n, max_size=n))
    delta = draw(st.sampled_from((1, F(1, 3), 5)))
    a.append([pj - sum((li * row[j] for li, row in zip(lam, a)), 0) for j, pj in enumerate(p)])
    b.append(-sum((li * bi for li, bi in zip(lam, b)), 0) - delta)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(a) - 1))
        sign = draw(st.sampled_from((1, -1)))
        a.append([sign * x for x in a[i]])
        b.append(sign * b[i])
    order = draw(st.permutations(range(len(a))))
    c = draw(st.lists(entry, min_size=n, max_size=n))
    return [a[i] for i in order], [b[i] for i in order], c


@settings(derandomize=True, deadline=None, max_examples=400)
@given(infeasible_lps())
def test_lp_farkas_certificate_on_infeasible(lp):
    a, b, c = lp
    res = solve_lp(a, b, c)
    assert res.status == INFEASIBLE
    assert len(res.farkas) == len(a) and all(type(y) is int for y in res.farkas)
    assert farkas_holds(a, b, res.farkas)


def test_lp_farkas_sign_of_negated_row():
    # x1 + x2 = -1 is stored negated; its multiplier must be positive
    res = solve_lp([[1, 1]], [-1], [0, 0])
    assert res.status == INFEASIBLE and res.farkas[0] > 0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(d), _points(d), st.tuples(*([st.integers(-8, 8)] * d)).filter(any))))
def test_locate_outside_separates(data):
    # an independent check of the separator: <g - q, x> > 0 for every g
    dim, pts, q = data
    p = PolytopeQ.from_points(pts)
    pos, cert, _ = locate(p, q)
    assert pos == oracle_position(pts, q, dim)
    if pos == OUTSIDE:
        assert len(cert) == dim and all(type(c) is int for c in cert)
        assert all(sum(F(gi - qi) * c for gi, qi, c in zip(g, q, cert)) > 0 for g in pts)
        assert convex_combination(p, q) is None
    else:
        assert cert == convex_combination(p, q)


# ---------------------------------------------------------------------------
# hull_position


def test_hull_position_spec_examples():
    p = PolytopeQ.from_points([(1, 0), (-1, 1), (0, -1)])
    # barycentric solve puts weight 1/3 on each generator
    assert convex_combination(p, (0, 0)) is not None
    assert hull_position(p, (0, 0)) == INTERIOR

    seg = PolytopeQ.from_points([(1, 0), (-1, 0)])
    assert hull_position(seg, (0, 0)) == RELATIVE_INTERIOR_ONLY

    off = PolytopeQ.from_points([(1, 0), (2, 0)])
    assert hull_position(off, (0, 0)) == OUTSIDE


def test_hull_position_face_case():
    sq = PolytopeQ.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert hull_position(sq, (F(1, 2), 0)) == ON_PROPER_FACE
    assert hull_position(sq, (F(1, 2), F(1, 2))) == INTERIOR
    assert hull_position(sq, (0, 0)) == ON_PROPER_FACE


def test_hull_position_point_hull():
    pt = PolytopeQ.from_points([(2, 3)])
    assert hull_position(pt, (2, 3)) == RELATIVE_INTERIOR_ONLY
    assert hull_position(pt, (2, 4)) == OUTSIDE


def test_hull_position_dim_zero_ambient():
    pt = PolytopeQ.from_points([()])
    assert hull_position(pt, ()) == INTERIOR


def test_from_points_reads_the_dimension_off_the_points():
    assert PolytopeQ.from_points([(1, 2, 3), (0, 0, 0)]).ambient_dim == 3
    assert PolytopeQ.from_points([()]).ambient_dim == 0
    with pytest.raises(ValueError, match="at least one generator"):
        PolytopeQ.from_points([])
    with pytest.raises(ValueError, match="wrong dimension"):
        PolytopeQ.from_points([(1, 2), (1, 2, 3)])


small_coord = st.integers(min_value=-4, max_value=4)


def _points(dim, min_n=1, max_n=6):
    return st.lists(
        st.tuples(*([small_coord] * dim)), min_size=min_n, max_size=max_n
    )


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), _points(d), st.tuples(*([small_coord] * d)))))
def test_hull_position_matches_oracle(data):
    dim, pts, q = data
    p = PolytopeQ.from_points(pts)
    assert hull_position(p, q) == oracle_position(pts, q, dim)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), _points(d, min_n=2))))
def test_minimal_face_matches_oracle(data):
    _, pts = data
    p = PolytopeQ.from_points(pts)
    # query the barycenter, which always lies in the hull
    n = len(pts)
    q = tuple(sum(F(v) for v in col) / n for col in zip(*pts))
    assert minimal_face(p, q) == oracle_minimal_face(pts, q)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), _points(d, min_n=2),
                        st.lists(st.integers(0, 3), min_size=6, max_size=6))))
def test_face_combination_is_positive_exactly_on_minimal_face(data):
    dim, pts, weights = data
    weights = weights[: len(pts)]
    if not any(weights):
        weights[0] = 1
    # q from a combination that may leave out part of its minimal face
    total = sum(weights)
    given = tuple(F(w, total) for w in weights)
    q = tuple(sum(a * g[i] for a, g in zip(given, pts)) for i in range(dim))
    p = PolytopeQ.from_points(pts)
    comb = face_combination(p, q, given, range(len(pts)))
    assert sum(comb) == 1 and all(a >= 0 for a in comb)
    assert all(sum(a * g[i] for a, g in zip(comb, pts)) == q[i] for i in range(dim))
    face = tuple(i for i, a in enumerate(comb) if a > 0)
    assert face == oracle_minimal_face(pts, q) == minimal_face(p, q)


def _pooled_points(dim):
    # repeated generators, and small coordinates for degenerate optima
    pool = st.lists(st.tuples(*([st.integers(-2, 2)] * dim)), min_size=1, max_size=5)
    return pool.flatmap(lambda base: st.lists(st.sampled_from(base), min_size=2, max_size=8))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), _pooled_points(d),
                        st.lists(st.integers(0, 2), min_size=8, max_size=8))))
def test_pruned_candidates_give_the_unpruned_face_combination(data):
    # the tight columns of locate's and ray_entry's LPs against every index
    dim, pts, weights = data
    m = len(pts)
    p = PolytopeQ.from_points(pts)
    weights = weights[:m]
    if not any(weights):
        weights[-1] = 1
    q = tuple(F(sum(w * g[i] for w, g in zip(weights, pts)), sum(weights)) for i in range(dim))
    cases = [(r, *locate(p, r)) for r in (q, (0,) * dim)]
    entry = ray_entry(p, list(range(dim - 1)), dim - 1)
    if entry is not None:
        lo, comb, tight = entry
        cases.append(((0,) * (dim - 1) + (lo,), None, comb, tight))
    for point, pos, comb, tight in cases:
        if pos == OUTSIDE:
            assert tight == () and point == (0,) * dim
            continue
        pruned = face_combination(p, point, comb, tight)
        assert pruned == face_combination(p, point, comb, range(m))
        face = tuple(i for i, a in enumerate(pruned) if a > 0)
        assert face == oracle_minimal_face(pts, point)
        # off an interior point's all-positive combination, tight holds the face
        assert set(face) <= set(tight) or all(comb)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda rows: st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                 min_size=rows, max_size=rows),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n)))))
def test_tight_columns_hold_every_optimal_solution(data):
    # each coordinate's maximizer over the optimal set, with the optimal
    # value pinned as an equality row, is zero outside tight
    a, x0, c = data
    n = len(c)
    a = a + [[1] * n]  # bounds the LP
    b = [sum(r * x for r, x in zip(row, x0)) for row in a]
    res = solve_lp(a, b, c)
    assert res.status == OPTIMAL and res.tight == tuple(sorted(set(res.tight)))
    for j in range(n):
        top = solve_lp(a + [c], b + [res.value], [int(i == j) for i in range(n)])
        assert top.status == OPTIMAL
        assert all(top.x[i] == 0 for i in range(n) if i not in res.tight)


# ---------------------------------------------------------------------------
# minimal_face


def test_minimal_face_spec_examples():
    tri = PolytopeQ.from_points([(1, 0), (-1, 1), (0, -1)])
    assert minimal_face(tri, (0, 0)) == (0, 1, 2)

    seg = PolytopeQ.from_points([(1, 1), (-1, 2)])
    assert minimal_face(seg, (0, F(3, 2))) == (0, 1)
    assert minimal_face(seg, (1, 1)) == (0,)


def test_minimal_face_rejects_outside():
    seg = PolytopeQ.from_points([(1, 1), (-1, 2)])
    with pytest.raises(ValueError):
        minimal_face(seg, (5, 5))


def test_minimal_face_tightness_property():
    # members satisfy every supporting constraint tight at q; non-members
    # violate at least one (witnessed by a separating functional)
    pts = [(0, 0), (2, 0), (0, 2), (1, 0), (2, 2)]
    p = PolytopeQ.from_points(pts)
    q = (1, 0)
    face = minimal_face(p, q)
    assert face == (0, 1, 3)
    for i in range(len(pts)):
        if i in face:
            continue
        # functional tight on the face and strictly positive on generator i
        sol = solve_mixed_system(
            equalities=[(list(g) + [1], 0) for g in [pts[j] for j in face]]
            + [(list(q) + [1], 0)],
            strict_inequalities=[(list(pts[i]) + [1], 0)],
            nvars=3,
        )
        assert sol is not None
        cvec, gamma = sol[:2], sol[2]
        assert all(dot(cvec, pts[j]) + gamma == 0 for j in face)
        assert dot(cvec, pts[i]) + gamma > 0


# ---------------------------------------------------------------------------
# ray_intersect


def test_ray_intersect_spec_examples():
    p = PolytopeQ.from_points([(1, 1), (-1, 2)])
    iv = ray_intersect(p, [0], 1)
    assert (iv.lo, iv.hi) == (F(3, 2), F(3, 2))

    p2 = PolytopeQ.from_points([(1, 1), (-1, 1), (0, 2)])
    iv2 = ray_intersect(p2, [0], 1)
    assert (iv2.lo, iv2.hi) == (F(1), F(2))

    p3 = PolytopeQ.from_points([(1, 1), (2, 1)])
    assert ray_intersect(p3, [0], 1) is None


def test_ray_intersect_certificates():
    p = PolytopeQ.from_points([(1, 1), (-1, 1), (0, 2)])
    iv = ray_intersect(p, [0], 1)
    for combo, rho in ((iv.lo_combination, iv.lo), (iv.hi_combination, iv.hi)):
        assert sum(combo) == 1 and all(a >= 0 for a in combo)
        pt = [
            sum(a * g[i] for a, g in zip(combo, p.generators))
            for i in range(2)
        ]
        assert pt[0] == 0 and pt[1] == rho


@settings(max_examples=60, deadline=None)
@given(_points(2, min_n=2), st.integers(-8, 8), st.integers(1, 8))
def test_ray_intersect_vs_membership(pts, num, den):
    p = PolytopeQ.from_points(pts)
    iv = ray_intersect(p, [0], 1)
    rho = F(num, den)
    inside = oracle_member(pts, (0, rho))
    if iv is None:
        assert not inside or rho <= 0
    elif rho > 0:
        assert inside == (iv.lo <= rho <= iv.hi) or (rho == iv.lo == 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(st.just(d), _points(d, min_n=1))))
def test_ray_entry_is_the_lower_end_of_ray_intersect(data):
    dim, pts = data
    p = PolytopeQ.from_points(pts)
    axis = list(range(dim - 1))
    entry = ray_entry(p, axis, dim - 1)
    iv = ray_intersect(p, axis, dim - 1)
    if entry is None:
        assert iv is None and not any(
            oracle_member(pts, (0,) * (dim - 1) + (F(r, 2),)) for r in range(-8, 9))
        return
    lo, comb, _ = entry
    assert sum(comb) == 1 and all(a >= 0 for a in comb)
    point = [sum(a * g[i] for a, g in zip(comb, pts)) for i in range(dim)]
    assert point == [0] * (dim - 1) + [lo]
    if iv is not None and iv.lo > 0:
        assert (lo, comb) == (iv.lo, iv.lo_combination)
    elif lo > 0:
        raise AssertionError("ray_intersect missed a positive entry")


# ---------------------------------------------------------------------------
# solve_mixed_system


def test_solve_mixed_spec_examples():
    # 1 + x = 3/2 and 2 - x = 3/2
    sol = solve_mixed_system([((1,), F(1, 2)), ((-1,), F(-1, 2))], [], 1)
    assert sol == (F(1, 2),)

    assert solve_mixed_system([((1,), 0)], [((1,), 0)], 1) is None

    sol = solve_mixed_system([], [((1,), 0), ((-1,), -1)], 1)
    assert sol == (F(1, 2),)


def test_solve_mixed_no_constraints():
    assert solve_mixed_system([], [], 2) == (F(0), F(0))


def _count_lps(monkeypatch):
    """Record the right-hand side of every exact LP solved from here on.
    solve_lp_mixed solves the dual of its LP, whose right-hand side is the
    objective of the LP over free variables."""
    import torstab.simplex as simplex

    calls = []
    real = simplex.solve_lp

    def counting(a, b, c):
        calls.append(tuple(b))
        return real(a, b, c)

    monkeypatch.setattr(simplex, "solve_lp", counting)
    return calls


def test_solve_mixed_skips_upper_bound_above_zero(monkeypatch):
    # x_0 > 1 has a positive lower end, so its upper end is never solved
    # for: one LP for the slack t, one for x_0's lower end, and both ends of
    # x_1 (whose interval straddles 0); a fifth would be x_0's upper end
    calls = _count_lps(monkeypatch)
    stricts = [((1, 0), 1), ((0, 1), -1), ((0, -1), -1)]
    assert solve_mixed_system([], stricts, 2) == (2, 0)
    assert len(calls) == 4
    # with no equalities z = x: the x_0 LP minimizes (objective -x_0,
    # recorded as its dual's right-hand side)
    assert calls[1][0] == -1


def test_solve_mixed_determined_system_solves_no_lp(monkeypatch):
    calls = _count_lps(monkeypatch)
    eqs = [((1, 1), 3), ((1, -1), F(1, 2))]
    assert solve_mixed_system(eqs, [((1, 0), 1)], 2) == (F(7, 4), F(5, 4))
    assert solve_mixed_system(eqs, [((1, 0), 2)], 2) is None
    assert solve_mixed_system(eqs + [((2, 0), 1)], [], 2) is None
    sol = solve_mixed_system([((1, 0), 0), ((0, 1), 0)], [], 2)
    assert sol == (0, 0) and all(type(v) is int for v in sol)
    assert calls == []


def test_solve_mixed_deterministic():
    eqs = [((1, 1, 0), 2)]
    stricts = [((1, 0, 0), 0), ((0, 0, 1), -3)]
    a = solve_mixed_system(eqs, stricts, 3)
    b = solve_mixed_system(eqs, stricts, 3)
    assert a == b


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.tuples(small_coord, small_coord), st.integers(-3, 3)), max_size=3),
    st.lists(st.tuples(st.tuples(small_coord, small_coord), st.integers(-3, 3)), max_size=3),
)
def test_solve_mixed_satisfies_constraints(eqs, stricts):
    sol = solve_mixed_system(eqs, stricts, 2)
    if sol is not None:
        for a, b in eqs:
            assert dot(a, sol) == b
        for g, h in stricts:
            assert dot(g, sol) > h


def lp_only_solve_mixed(equalities, strict_inequalities, nvars):
    """Reference: the solver as it was before exact elimination, one LP for
    the slack t and then both ends of every coordinate over x and t, with
    each equality kept as a pair of >= rows."""

    def unit(i, sign):
        obj = [0] * (nvars + 1)
        obj[i] = sign
        return obj

    def pinned(i, val):
        # x_i = val (t when i = nvars) as two >= rows
        return [(unit(i, 1), val), (unit(i, -1), -val)]

    rows = [r for a, b in equalities
            for r in (([*a, 0], b), ([-v for v in a] + [0], -b))]
    rows += [([*g, -1], h) for g, h in strict_inequalities]
    rows.append(([0] * nvars + [-1], -1))  # t <= 1
    rows.append(([0] * nvars + [1], 0))    # t >= 0
    t = solve_lp_mixed(rows, unit(nvars, 1))
    if t is None or t <= 0:
        return None
    rows += pinned(nvars, t)
    fixed = []
    for i in range(nvars):
        neg_lo = solve_lp_mixed(rows, unit(i, -1))
        if neg_lo is not None and -neg_lo > 0:
            val = -neg_lo
        else:
            hi = solve_lp_mixed(rows, unit(i, 1))
            val = hi if hi is not None and hi < 0 else 0
        rows += pinned(i, val)
        fixed.append(val)
    return tuple(fixed)


small_fraction = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def mixed_systems(draw):
    """Equality sets that are consistent, inconsistent, redundant and rank
    deficient, with Fraction right-hand sides and 0-4 strict rows."""
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-3, 3)] * n)
    eqs = draw(st.lists(st.tuples(row, small_fraction), max_size=n))
    # derived rows: an integer combination of the rows drawn, keeping its
    # right-hand side (redundant) or shifting it (inconsistent unless the
    # combination's left-hand side is nonzero)
    for _ in range(draw(st.integers(0, 2)) if eqs else 0):
        coefs = draw(st.lists(st.integers(-2, 2), min_size=len(eqs), max_size=len(eqs)))
        lhs = tuple(sum(c * a[j] for c, (a, _) in zip(coefs, eqs)) for j in range(n))
        rhs = sum(c * b for c, (_, b) in zip(coefs, eqs)) + draw(st.sampled_from([0, 0, 1]))
        eqs.append((lhs, rhs))
    stricts = draw(st.lists(st.tuples(row, small_fraction), max_size=4))
    return eqs, stricts, n


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mixed_systems())
def test_solve_mixed_matches_lp_only_reference(system):
    eqs, stricts, n = system
    got = solve_mixed_system(eqs, stricts, n)
    want = lp_only_solve_mixed(eqs, stricts, n)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]


@st.composite
def free_lps(draw):
    """max c.z over free z with rows <g, z> >= h: 1-3 variables, 0-5 rows,
    int or Fraction entries, so optimal, infeasible and unbounded all occur."""
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.integers(-3, 3), small_fraction)
    ge = draw(st.lists(st.tuples(st.tuples(*[entry] * n), entry), max_size=5))
    return ge, draw(st.tuples(*[entry] * n))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(free_lps())
def test_solve_lp_mixed_matches_highs(lp):
    # HiGHS on the LP itself, free bounds, against the exact dual's value
    from scipy.optimize import linprog

    ge, c = lp
    n = len(c)
    got = solve_lp_mixed(ge, c)
    ref = linprog([-float(v) for v in c],
                  A_ub=[[-float(v) for v in g] for g, _ in ge] or None,
                  b_ub=[-float(h) for _, h in ge] or None,
                  bounds=[(None, None)] * n, method="highs")
    assert ref.status in (0, 2, 3)
    assert (got is None) == (ref.status != 0)
    if got is not None:
        assert type(got) is F
        assert abs(float(got) + ref.fun) <= 1e-9


# ---------------------------------------------------------------------------
# rational_rank


def fraction_rref(rows):
    """Reduced row echelon form by plain Fraction Gauss-Jordan elimination:
    the reference for qexact's fraction-free elimination and its
    read-offs."""
    m = [[F(x) for x in r] for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def fraction_rref_rank(vectors):
    return len(fraction_rref(vectors)[0])


@st.composite
def rank_matrices(draw):
    """Rows with Fraction entries, zero rows, and duplicated and scaled
    copies of earlier rows; possibly no rows at all."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-5, 5), small_fraction)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        kind = draw(st.sampled_from(["zero", "copy", "scaled", "sum"]))
        a = draw(st.sampled_from(rows))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "copy":
            rows.append(list(a))
        elif kind == "scaled":
            c = draw(st.sampled_from([F(-3, 2), -1, 2, F(1, 7)]))
            rows.append([c * x for x in a])
        else:
            b = draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(a, b)])
    pos = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in pos]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rank_matrices())
def test_rational_rank_matches_fraction_rref(rows):
    assert rational_rank(rows) == fraction_rref_rank(rows)


def fraction_rref_kernel(red, pivots, n):
    """One vector per free column f < n: 1 at f, minus the rref's column f
    at the pivots, times the lcm of its denominators."""
    basis = []
    for f in (f for f in range(n) if f not in pivots):
        v = [F(int(j == f)) for j in range(n)]
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        scale = math.lcm(*(x.denominator for x in v))
        basis.append(tuple(int(x * scale) for x in v))
    return basis


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rank_matrices().filter(lambda rows: rows and rows[0]))
def test_rref_matches_fraction_rref(rows):
    # each row is [a | b]: solve_affine is None exactly when the rref of
    # [A | b] has a pivot in the b column; otherwise x0 is the rref's last
    # column at the pivots and the kernel is the rref kernel, cleared
    n = len(rows[0]) - 1
    a, b = [r[:n] for r in rows], [r[n] for r in rows]
    red, pivots = fraction_rref(rows)
    got = solve_affine(a, b, n)
    if pivots and pivots[-1] == n:
        assert got is None
        return
    x0, basis = got
    want = [0] * n
    for row, c in zip(red, pivots):
        want[c] = row[n]
    assert list(x0) == want
    assert all(type(x) is (F if i in pivots else int) for i, x in enumerate(x0))
    assert basis == fraction_rref_kernel(red, pivots, n)
    assert all(type(x) is int for v in basis for x in v)
    assert all(dot(r, x0) == c for r, c in zip(a, b))
    assert all(dot(r, v) == 0 for r in a for v in basis)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rank_matrices().filter(bool))
def test_nullspace_is_the_fraction_rref_kernel_cleared(rows):
    got = nullspace(rows)
    assert got == fraction_rref_kernel(*fraction_rref(rows), len(rows[0]))
    assert all(type(x) is int for v in got for x in v)
    assert all(dot(r, v) == 0 for r in rows for v in got)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rank_matrices())
def test_echelon_pivots_equal_one_common_denominator(rows):
    # integer-preserving Gauss-Jordan keeps every row at D times its RREF
    # row, so the read-offs divide each pivot row by the same D
    m, pivots = _echelon(rows)
    assert len({row[c] for row, c in zip(m, pivots)}) <= 1
    assert all(type(x) is int for row in m for x in row)


def test_rational_rank_examples():
    assert rational_rank([]) == 0
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank([[F(1, 2), F(1, 3)], [3, 2]]) == 1
    assert rational_rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    assert rational_rank([[10**30, 1], [1, 0]]) == 2


# ---------------------------------------------------------------------------
# saturated_kernel / lattices


def contains(lattice: Lattice, x) -> bool:
    """Integer membership: x lies in the Z-span of the basis."""
    if not lattice.basis:
        return all(int(c) == 0 for c in x)
    cols = [[b[i] for b in lattice.basis] for i in range(lattice.ambient_dim)]
    sol = solve_linear(cols, [int(c) for c in x])
    return sol is not None and all(c.denominator == 1 for c in sol)


def lattice_equal(l1: Lattice, l2: Lattice) -> bool:
    return (
        l1.rank == l2.rank
        and all(contains(l1, b) for b in l2.basis)
        and all(contains(l2, b) for b in l1.basis)
    )


def test_saturated_kernel_spec_examples():
    k1 = saturated_kernel([(1, -1)])
    assert lattice_equal(k1, Lattice(2, ((1, 1),)))

    k2 = saturated_kernel([(1, 0), (0, 1)])
    assert k2.rank == 0

    k3 = saturated_kernel([(2, -2)])
    assert lattice_equal(k3, Lattice(2, ((1, 1),)))
    assert k3.is_saturated()
    # index 2 and index 2 in Z^2: a Smith invariant of 2
    assert not Lattice(2, ((2, -2),)).is_saturated()
    assert not Lattice(2, ((1, 1), (1, -1))).is_saturated()


def test_saturated_kernel_no_weights():
    k = saturated_kernel([], ambient_dim=3)
    assert k.rank == 3


def test_smith_normal_form_reconstructs():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, d, v = smith_normal_form(a)
    m, n = 3, 3
    prod = [
        [sum(u[i][k] * a[k][j] for k in range(m)) for j in range(n)]
        for i in range(m)
    ]
    prod = [
        [sum(prod[i][k] * v[k][j] for k in range(n)) for j in range(n)]
        for i in range(m)
    ]
    assert prod == d
    diag = [d[i][i] for i in range(3)]
    assert all(d[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    for x, y in zip(diag, diag[1:]):
        if x != 0 and y != 0:
            assert y % x == 0


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(st.tuples(*([small_coord] * k)), min_size=1, max_size=4)
    )
)
def test_saturated_kernel_properties(weights):
    k = len(weights[0])
    lat = saturated_kernel(weights)
    for b in lat.basis:
        for w in weights:
            assert dot(w, b) == 0
    assert lat.is_saturated()
    assert lat.rank == k - rational_rank(weights)
    # brute-force: every small integer kernel point lies in the lattice
    from itertools import product

    for x in product(range(-2, 3), repeat=k):
        if all(dot(w, x) == 0 for w in weights):
            assert contains(lat, x)


@st.composite
def kernel_weights(draw):
    """Integer weight rows of 1-4 columns, with zero, repeated and
    dependent rows mixed in, in any order."""
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*([small_coord] * k)), min_size=1, max_size=k + 1))
    for extra in draw(st.lists(st.sampled_from(["zero", "repeat", "combination"]), max_size=3)):
        if extra == "zero":
            rows.append((0,) * k)
        elif extra == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    return draw(st.permutations(rows))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kernel_weights())
def test_saturated_kernel_matches_smith_reference(weights):
    # reference: the columns of V at the zero invariants of U W V = D
    k = len(weights[0])
    _, d, v = smith_normal_form(weights)
    zero = [j for j in range(k) if j >= len(weights) or d[j][j] == 0]
    reference = tuple(tuple(v[i][j] for i in range(k)) for j in zero)
    lat = saturated_kernel(weights)
    assert lat.basis == reference
    # trivial exactly when the weights have full rank
    assert (lat.rank == 0) == (rational_rank(weights) == k)
