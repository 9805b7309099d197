"""Exact rational/integer linear algebra: integer and rational vectors,
fraction-free Gauss-Jordan elimination, Smith normal form, and saturated
kernel lattices.

Everything here is exact; no floating point enters any computation.
One elimination step, _eliminate (the integer-preserving pivot of Bareiss
1968), serves the whole exact layer: _echelon runs it for rational_rank,
solve_affine and nullspace, and the simplex tableau (simplex.py) pivots
with it.  solve_affine and nullspace share one read-off of the echelon
rows, _kernel, so every kernel basis is integer.  _echelon also decides
full rank for saturated_kernel, which runs a Smith normal form only when
the kernel is nontrivial.
Integer data stays int up to the first division: sums, products and
differences are computed on the values given, clear_denominators returns
int input as it is, and a Fraction is built only where the exact layer
divides (solve_affine's particular solution and the simplex read-off of
solution and value) or where input is neither int nor Fraction (qvec).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ValidationError

QVec = tuple[int | Fraction, ...]
IVec = tuple[int, ...]


def qvec(xs: Iterable) -> QVec:
    """Exact entries: ints and Fractions as they are, anything else through
    Fraction."""
    return tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs)


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def vsub(a: Sequence, b: Sequence) -> QVec:
    return tuple(x - y for x, y in zip(a, b))


def clear_denominators(v: Iterable) -> tuple[int, IVec]:
    """(m, m * v) for the least positive integer m making every entry of v
    an integer (the lcm of the denominators).  No gcd is divided out, so
    m * v need not be primitive.  All-int input is returned as it is, as
    (1, tuple(v)); other entries are read as qvec reads them."""
    v = tuple(v)
    if all(type(x) is int for x in v):
        return 1, v
    fr = qvec(v)
    m = lcm(*(x.denominator for x in fr))
    return m, tuple(x.numerator * (m // x.denominator) for x in fr)


def _eliminate(row, prow, p, d, c):
    """row after the pivot on prow[c] = p, old denominator d (exact)."""
    f = row[c]
    if f == 0:
        return row if p == d else [p * x // d for x in row]
    return [(p * x - f * y) // d for x, y in zip(row, prow)]


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced echelon form on ints: (pivot rows, pivot
    columns), where pivot row i is zero in every pivot column but its own.

    Rows are scaled to integers by clear_denominators and reduced by
    integer-preserving Gauss-Jordan elimination (Bareiss 1968), the pivot
    step of the simplex tableau: every row holds D times its row of the
    rational elimination, D = 1 at the start and the last pivot after, so
    every pivot entry equals D.  Dividing a pivot row by D gives its row of
    the RREF.
    """
    m = [list(clear_denominators(r)[1]) for r in rows]
    pivots = []
    d = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        m = [row if i == r else _eliminate(row, prow, p, d, c) for i, row in enumerate(m)]
        d = p
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m[:len(pivots)], pivots


def rational_rank(vectors: Sequence[Sequence]) -> int:
    """Rank over Q: the number of pivots of _echelon."""
    return len(_echelon(vectors)[1])


def _kernel(m: list[list[int]], pivots: list[int], n: int) -> list[IVec]:
    """Integer kernel basis of the first n columns of _echelon's rows m, one
    vector per free column f: the RREF kernel vector with 1 at f and 0 at
    the other free columns, times the least positive integer that clears
    its denominators (as clear_denominators would).  The entry at pivot
    column c of row i is -row_i[f] / D, so the least such integer is
    |D| / gcd(D, row_1[f], row_2[f], ...)."""
    d = m[0][pivots[0]] if m else 1
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        scale = abs(d) // gcd(d, *(row[f] for row in m))
        v = [0] * n
        v[f] = scale
        for row, c in zip(m, pivots):
            v[c] = -row[f] * scale // d
        basis.append(tuple(v))
    return basis


def solve_affine(rows: Sequence[Sequence], rhs: Sequence, n: int) -> tuple[QVec, list[IVec]] | None:
    """All rational solutions of A x = b (A given by rows of length n) as
    (x0, kernel basis): the solutions are x0 + sum_j z_j N_j over rational
    z.  Both are read off one _echelon of [A | b]; None if A x = b is
    inconsistent.  x0 is zero off the pivot columns and row_i[n] / D at
    pivot column c_i; the kernel basis is nullspace's integer basis."""
    m, pivots = _echelon([[*r, b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        return None
    x0 = [0] * n
    for row, c in zip(m, pivots):
        x0[c] = Fraction(row[n], row[c])
    return tuple(x0), _kernel(m, pivots, n)


def nullspace(rows: Sequence[Sequence]) -> list[IVec]:
    """Integer basis of {x : A x = 0} (A given by rows), read off the
    fraction-free echelon rows in ints (_kernel)."""
    if not rows:
        raise ValueError("need at least one row to know the dimension")
    return _kernel(*_echelon(rows), len(rows[0]))


def smith_normal_form(a: Sequence[Sequence[int]]):
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U @ a @ V = D, U and V unimodular, D diagonal with
    d_1 | d_2 | ... >= 0.
    """
    d = [list(map(int, row)) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        d[dst] = [x + f * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in d:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(m, n):
        # move a nonzero pivot of minimal absolute value to (t, t)
        cand = [(abs(d[i][j]), i, j) for i in range(t, m) for j in range(t, n)
                if d[i][j] != 0]
        if not cand:
            break
        _, pi, pj = min(cand)
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    add_row(t, i, -(d[i][t] // d[t][t]))
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    add_col(t, j, -(d[t][j] // d[t][t]))
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility d_t | d[i][j] for the trailing block
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


@dataclass(frozen=True)
class Lattice:
    """A saturated sublattice of Z^n, given by an independent integer basis.

    Saturated means the sublattice equals the intersection of its rational
    span with Z^n, so the quotient is torsion-free and the corresponding
    subtorus is well defined.
    """

    ambient_dim: int
    basis: tuple[IVec, ...]

    def __post_init__(self):
        for b in self.basis:
            if len(b) != self.ambient_dim:
                raise ValueError("basis vector of wrong dimension")
        if self.basis and rational_rank(self.basis) != len(self.basis):
            raise ValidationError(["basis is linearly dependent"])

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_saturated(self) -> bool:
        if not self.basis:
            return True
        # saturated iff every Smith invariant of the (independent) basis is 1
        _, d, _ = smith_normal_form(self.basis)
        return all(d[i][i] == 1 for i in range(self.rank))


def saturated_kernel(weights: Sequence[Sequence[int]], ambient_dim: int | None = None) -> Lattice:
    """Basis of the saturated integer lattice {x : <w, x> = 0 for all w}.

    When the weights have full rank (one _echelon, rational_rank) the kernel
    is trivial and no Smith form runs.  Otherwise it is computed from the
    Smith normal form U W V = D: the kernel of W is spanned by the columns
    of V at indices where D has a zero diagonal entry; those columns form a
    saturated basis since V is unimodular.
    """
    rows = []
    for w in weights:
        m, iw = clear_denominators(w)
        if m != 1:
            raise ValueError("expected integer vector")
        rows.append(iw)
    if not rows:
        if ambient_dim is None:
            raise ValueError("ambient_dim required when no weights are given")
        basis = tuple(tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim))
        return Lattice(ambient_dim, basis)
    n = len(rows[0])
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("ambient_dim inconsistent with weight dimension")
    if len(rows) >= n and rational_rank(rows) == n:
        return Lattice(n, ())
    _, d, v = smith_normal_form(rows)
    nonzero = sum(1 for i in range(min(len(rows), n)) if d[i][i] != 0)
    basis = tuple(tuple(v[i][j] for i in range(n)) for j in range(nonzero, n))
    return Lattice(n, basis)
