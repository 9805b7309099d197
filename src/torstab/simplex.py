"""Exact simplex for small dense LPs on an integer-preserving tableau.

Standard form: maximize c.x subject to A x = b, x >= 0, with rational data
(ints, Fractions, or anything Fraction accepts).  Two phases with Bland's
rule (smallest eligible index enters; ratio ties break to the smallest
basic variable index), so the method is deterministic and never cycles.
Intended for the tiny instances produced by polytope and stratification
queries; no attempt is made at sparse or revised variants.

Integer tableau.  ``solve_lp`` multiplies every entry of A and b by one
common positive integer (the lcm of all their denominators) and c by the
lcm of its own, then runs on Python ints only.  Each tableau row holds D
times the corresponding row of the rational simplex tableau, where D > 0 is
the absolute value of the determinant of the current basis of the scaled
matrix [A | I]; by Cramer's rule every entry is an integer.  A pivot on the
entry p = row_r[c] keeps row r and replaces every other row, the objective
row included, by (p * row - row[c] * row_r) // D, a division that is exact
by Sylvester's identity (the fraction-free elimination of Edmonds 1967 and
Bareiss 1968); then D := p.  That step is qexact._eliminate, the one
elimination step of the exact layer, which qexact's echelon form also runs.
The objective row holds D times the reduced costs and, in its
right-hand-side column, -D times the objective value.  It is set once at
the start of each phase and updated by every pivot.
Fractions are built only where the solution and the value are read off.

An optimal LP also reports ``tight``, the columns j < nvars with obj[j] == 0
at the phase-2 optimum.  Every feasible x has c.x = value + sum_j r_j x_j,
r the reduced costs, all <= 0 there, so a column outside ``tight`` is 0 in
every optimal solution (complementary slackness, Schrijver ch. 7).

An infeasible LP returns Farkas multipliers y, y.a >= 0 and y.b < 0 (Schrijver
ch. 7): the phase-1 objective row holds D * (-1 - pi_i) over the artificials,
pi the duals, so y_i = s_i * (-obj[nvars + i] - D), s_i = -1 on negated rows.

Free variables.  An LP over free z, max c.z s.t. G z >= h, is solved as its
dual, max h.y s.t. -G^T y = c, y >= 0, which is already the standard form
(Schrijver ch. 7), so the tableau has one row per free variable and one
column per inequality, with no x+/x- split and no surplus columns.  Only the
optimal value carries over: by strong duality the two LPs are both optimal,
with values that are negatives of each other, or neither is.  A dual that is
infeasible leaves the primal infeasible or unbounded, and a dual that is
unbounded leaves it infeasible, so solve_lp_mixed reports both as None; its
callers treat an infeasible and an unbounded primal alike.

Entering columns need a positive reduced cost and leaving rows a positive
entry, and ratios are compared by cross-multiplying, so D > 0 keeps every
sign test equal to the rational one.  The one pivot Bland's rule does not
choose, driving a leftover zero-level artificial out of the basis, may sit
on a negative entry; that row is negated first, which keeps D > 0 and
leaves the rational tableau after the pivot unchanged.

Why one common scale and not one per row: the phase-1 objective is
-(sum of artificials).  Multiplying all of A and b by the same L multiplies
every artificial variable by L and the phase-1 objective by L, which
changes no sign and no ratio comparison, so the pivots are those of the
rational tableau on the unscaled data.  Scaling row i by its own L_i would
weight artificial i by L_i in that objective and could change the column
Bland's rule picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError
from .qexact import _eliminate, clear_denominators

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


@dataclass
class LPResult:
    status: str
    x: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    # if infeasible: integer y, one per row of a, with y.a >= 0, y.b < 0
    farkas: tuple[int, ...] | None = None
    # if optimal: the columns of zero reduced cost, a superset of the
    # support of every optimal solution
    tight: tuple[int, ...] | None = None


class _Tableau:
    def __init__(self, a, b, nvars):
        # a, b are ints; the artificial column block holds D * B^{-1}
        self.m = len(a)
        self.nvars = nvars
        self.rows = []
        self.signs = [-1 if x < 0 else 1 for x in b]  # -1: row negated
        for i in range(self.m):
            row = list(a[i]) if b[i] >= 0 else [-x for x in a[i]]
            row += [0] * self.m
            row.append(abs(b[i]))
            row[nvars + i] = 1
            self.rows.append(row)
        self.basis = [nvars + i for i in range(self.m)]
        self.det = 1
        self.obj = None

    def set_objective(self, cost):
        """Objective row for integer costs over all columns:
        D * c_j - sum_i c_{B(i)} * row_i[j], and -D * value last."""
        z = [self.det * x for x in cost] + [0]
        for bi, row in zip(self.basis, self.rows):
            cb = cost[bi]
            if cb:
                z = [x - cb * y for x, y in zip(z, row)]
        self.obj = z

    def pivot(self, r, c):
        rows, d = self.rows, self.det
        prow = rows[r]
        p = prow[c]
        for i in range(self.m):
            if i != r:
                rows[i] = _eliminate(rows[i], prow, p, d, c)
        self.obj = _eliminate(self.obj, prow, p, d, c)
        self.basis[r] = c
        self.det = p

    def solution(self):
        x = [_ZERO] * self.nvars
        for i, bi in enumerate(self.basis):
            if bi < self.nvars:
                x[bi] = Fraction(self.rows[i][-1], self.det)
        return tuple(x)

    def _ratio_row(self, c):
        # min (rhs_i / a_i, basis_i) over a_i > 0; D cancels from the ratio
        best = None
        for i, row in enumerate(self.rows):
            a = row[c]
            if a > 0:
                if best is None:
                    best, ba, brhs = i, a, row[-1]
                    continue
                lhs, rhs = row[-1] * ba, brhs * a
                if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                    best, ba, brhs = i, a, row[-1]
        return best

    def optimize(self, ncols):
        """Run simplex iterations (maximization) with Bland's rule over the
        first ncols columns.  Basic columns have reduced cost exactly 0."""
        while True:
            obj = self.obj
            enter = next((j for j in range(ncols) if obj[j] > 0), None)
            if enter is None:
                return OPTIMAL
            leave = self._ratio_row(enter)
            if leave is None:
                return UNBOUNDED
            self.pivot(leave, enter)


def solve_lp(a: Sequence[Sequence], b: Sequence, c: Sequence) -> LPResult:
    """Maximize c.x subject to a x = b, x >= 0 (all rationals, exact)."""
    nvars = len(c)
    for row in a:
        if len(row) != nvars:
            raise ValueError("constraint row of wrong length")
    m = len(a)
    _, flat = clear_denominators([x for row in a for x in row] + list(b))
    t = _Tableau([flat[i * nvars:(i + 1) * nvars] for i in range(m)],
                 flat[m * nvars:], nvars)
    cscale, cint = clear_denominators(c)

    # phase 1: maximize -(sum of artificials)
    t.set_objective([0] * nvars + [-1] * m)
    if t.optimize(nvars + m) != OPTIMAL:
        raise InternalError("phase 1 unbounded, but its objective is at most 0")
    if t.obj[-1] != 0:
        y = (s * (-t.obj[nvars + i] - t.det) for i, s in enumerate(t.signs))
        return LPResult(INFEASIBLE, farkas=tuple(y))

    # drive leftover artificials out of the basis (or drop redundant rows)
    for i in range(m):
        row = t.rows[i]
        if t.basis[i] >= nvars and row[-1] == 0:
            piv = next((j for j in range(nvars) if row[j] != 0), None)
            if piv is not None:
                if row[piv] < 0:
                    t.rows[i] = [-x for x in row]
                t.pivot(i, piv)

    # phase 2: artificials barred from entering
    t.set_objective(list(cint) + [0] * m)
    if t.optimize(nvars) == UNBOUNDED:
        return LPResult(UNBOUNDED, x=t.solution())
    return LPResult(OPTIMAL, x=t.solution(),
                    value=Fraction(-t.obj[-1], t.det * cscale),
                    tight=tuple(j for j in range(nvars) if t.obj[j] == 0))


def solve_lp_mixed(ge: Sequence[tuple[Sequence, object]], c: Sequence) -> Fraction | None:
    """max c.z over free z with the rows <g, z> >= h of ge, solved as its
    dual max h.y s.t. -G^T y = c, y >= 0; None unless both are optimal."""
    a = [[-g[j] for g, _ in ge] for j in range(len(c))]
    dual = solve_lp(a, list(c), [h for _, h in ge])
    return -dual.value if dual.status == OPTIMAL else None
