"""The Kempf-Ness functional for torus representations and its minimization.

l(x) = sum_w |v_w|^2 exp(2<w, x>) over the effective weights, a smooth
convex sum of exponentials.  Attainment of the infimum matches the hull
criterion: given the exact classification of the weights, a damped
Newton method is run only when it says a minimizer exists, from the point
that the certificate's positive combination balances; non-attainment
is certified by its exact separating functional, never diagnosed
numerically.  Flat directions (the saturated kernel of the effective
weights) are quotiented out before iterating.  Newton runs on log l, with
the squared norms held as their logarithms, so no norm and no exponential
overflows, and nothing it does changes when every norm is scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul

import numpy as np

from .errors import ValidationError
from .qexact import Lattice, dot, rational_rank
from .stability import POLYSTABLE_NOT_STABLE, STABLE, StabilityResult
from .torus_rep import RepVector, _exp, log_sum_exp

CONVERGED = "Converged"
DIVERGING = "Diverging"
FLAT_DIRECTIONS = "FlatDirections"
FAILURE = "Failure"

DEFAULT_TOL = 1e-10
MAX_ITER = 500
# The most one Newton step may change the log of any term of l relative to
# another.  A near-singular hessian (one term dominating by e^100, say)
# sizes the full step far beyond the minimizer; it is cut to this length
# before the line search.
MAX_LOG_STEP = 40.0
# A term of F is live at a point when its share of F exceeds e^LIVE_LOG_SHARE
# of the largest term's; below that its float contribution to F's gradient
# and hessian cannot steer Newton.
LIVE_LOG_SHARE = math.log(1e-8)


@dataclass(frozen=True, kw_only=True)
class KNProblem:
    """Torus Kempf-Ness problem: weights with the logarithms of their
    positive squared norms, which is all the functional reads.  A norm that
    a float cannot hold (from_vector sums them in log space) still has a
    logarithm that is a float."""

    weights: tuple[tuple[int, ...], ...]
    log_norms2: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("need at least one effective weight")
        if len(self.weights) != len(self.log_norms2):
            raise ValueError("weights and norms differ in length")
        if not all(map(math.isfinite, self.log_norms2)):
            raise ValueError("log squared norms must be finite")

    @staticmethod
    def from_vector(v: RepVector) -> "KNProblem":
        by_weight = v.log_norm2_by_weight()
        if not by_weight:
            raise ValueError("zero vector")
        ws = tuple(sorted(by_weight))
        return KNProblem(weights=ws, log_norms2=tuple(by_weight[w] for w in ws))

    @property
    def rank(self) -> int:
        return len(self.weights[0])


def kn_eval(p: KNProblem, x):
    """Value, gradient and hessian of the functional at a real point x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.rank,):
        raise ValueError("point of wrong dimension")
    w = np.array(p.weights, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(np.array(p.log_norms2) + 2.0 * (w @ x))
        value = float(e.sum())
        grad = 2.0 * (e @ w)
        hess = 4.0 * ((w.T * e) @ w)
    return value, grad, hess


@dataclass
class KNResult:
    status: str
    minimizer: np.ndarray | None = None
    value: float | None = None
    gradient_norm: float | None = None
    flat_space: Lattice | None = None
    descent_ray: tuple[int, ...] | None = None
    iterations: int = 0


def _flat_complement(flat: Lattice, rank: int) -> list[list[float]]:
    """Orthonormal basis of the real orthogonal complement of the flat
    lattice span, as the rows of the rank x (rank - flat.rank) matrix B."""
    if flat.rank == 0:
        return [[float(i == j) for j in range(rank)] for i in range(rank)]
    d = np.array(flat.basis, dtype=float)
    _, _, vt = np.linalg.svd(d, full_matrices=True)
    return vt[flat.rank:].T.tolist()


def kn_minimize(
    p: KNProblem,
    stability: StabilityResult,
    tol: float = DEFAULT_TOL,
) -> KNResult:
    """Minimize the torus Kempf-Ness functional, given the classification
    of its weights (classify of any vector with these effective weights).

    Converged with a unique minimizer iff the underlying vector is stable;
    FlatDirections with the kernel lattice iff polystable but not stable;
    Diverging with an exact descent ray otherwise.  Nonconvergence inside
    the iteration cap is reported as an explicit Failure status, and so is
    a stop where the live terms (share of F above 1e-8 of the largest) span
    less than all nonzero weights.

    Newton runs on F(z) = log sum_i n_i e^{<2 B^T w_i, z>} over the nonzero
    weights w_i, in coordinates z of the orthonormal complement B of the
    flat lattice: the same minimizer x = B z as p at any scale of the norms
    (a zero weight only adds a constant).  It starts at the balanced point
    of the classification's combination lambda (_balanced_start), which is
    the minimizer itself when the weights form a simplex.  tol bounds F's
    Newton decrement at the last step, lambda^2 = g^T H^-1 g < tol^2, which
    does not depend on the scale of the norms or the choice of coordinates
    (Boyd & Vandenberghe, Convex Optimization, 9.5.1); that last step is
    taken too.  value and gradient_norm are p's own.
    """
    if not 0 < tol < math.inf:
        raise ValidationError(["tol must be positive" if tol <= 0 else "tol must be finite"])
    if stability.weights != tuple(sorted(set(p.weights))):
        raise ValueError("the classification is of other weights")
    if stability.stability not in (STABLE, POLYSTABLE_NOT_STABLE):
        ray = tuple(-c for c in stability.cocharacter)
        level = [c for w, c in zip(p.weights, p.log_norms2) if dot(w, ray) == 0]
        limit = _exp(log_sum_exp(level)) if level else 0
        return KNResult(DIVERGING, value=limit, descent_ray=ray)

    # Stable certifies that the flat lattice is trivial
    flat = stability.flat_lattice or Lattice(p.rank, ())
    basis = _flat_complement(flat, p.rank)
    cols = list(zip(*basis))
    terms = [(w, c) for w, c in zip(p.weights, p.log_norms2) if any(w)]
    top = max((c for _, c in terms), default=0.0)
    rows = [[2.0 * sum(map(mul, w, col)) for col in cols] for w, _ in terms]
    shifts = [c - top for _, c in terms]
    if rows:
        start = None
        if stability.combination is not None:
            share = dict(zip(stability.weights, stability.combination))
            start = _balanced_start(rows, shifts, [share[w] for w, _ in terms])
        z, it, converged = _newton(rows, shifts, tol, start or [0.0] * len(cols))
        converged = converged and _resolved(rows, shifts, z, [w for w, _ in terms])
    else:
        z, it, converged = [], 0, True

    status = CONVERGED if stability.stability == STABLE else FLAT_DIRECTIONS
    x = [sum(map(mul, b, z), 0.0) for b in basis]
    e = [_exp(c + 2.0 * sum(map(mul, w, x))) for w, c in zip(p.weights, p.log_norms2)]
    grad = [2.0 * sum(map(mul, e, col)) for col in zip(*p.weights)]
    return KNResult(
        status if converged else FAILURE,
        minimizer=np.array(x, dtype=float),
        value=sum(e),
        gradient_norm=math.hypot(*grad),
        flat_space=flat if status == FLAT_DIRECTIONS and converged else None,
        iterations=it,
    )


def _resolved(rows, shifts, z, weights) -> bool:
    """False when the live terms of F at z span less than all its weights:
    the directions they leave flat are moved only by terms whose shares
    are below round-off, so Newton's stop there says nothing about them."""
    t = [c + sum(map(mul, a, z)) for a, c in zip(rows, shifts)]
    top = max(t)
    live = [w for w, ti in zip(weights, t) if ti - top > LIVE_LOG_SHARE]
    # every term live, the usual case, needs no rank
    return len(live) == len(weights) or rational_rank(live) == rational_rank(weights)


def _balanced_start(rows, shifts, combination):
    """Least-squares solution z, with mu a free scalar, of
    <rows_i, z> - mu = log lambda_i - shifts_i, for the positive combination
    lambda of the classification (sum_i lambda_i rows_i = 0).  Where the
    system holds, the shares of F's terms are proportional to lambda, so F's
    gradient vanishes: when the rows form a simplex (k + 1 affinely
    independent rows in k dimensions) the system is square and the start is
    the minimizer.  Solved by the normal equations; None when a coefficient
    is not positive or the normal equations are numerically singular."""
    if not all(a > 0 for a in combination):
        return None
    # log(num) - log(den) on the ints: a tiny Fraction does not underflow
    targets = [math.log(a.numerator) - math.log(a.denominator) - c
               for a, c in zip(combination, shifts)]
    cols = [[a[j] for a in rows] for j in range(len(rows[0]))]
    cols.append([-1.0] * len(rows))
    lower = [sum(map(mul, ci, cj)) for i, ci in enumerate(cols) for cj in cols[: i + 1]]
    solution = _cholesky_solve(lower, [sum(map(mul, c, targets)) for c in cols])
    return solution[:-1] if solution else None


def _newton(rows, shifts, tol, start):
    """Damped Newton from z = start on F(z) = log sum_i e^{shifts_i + <rows_i, z>}:
    (z, iterations, converged).  Plain floats throughout, on lists built
    once: one log-sum-exp per trial point, and F's gradient and hessian at
    an accepted point from the terms e_i it leaves, as the mean and the
    covariance of the rows under the shares e_i / sum e."""
    k = len(rows[0])
    cols = [[a[j] for a in rows] for j in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(i + 1)]
    products = [[a[i] * a[j] for a in rows] for i, j in pairs]
    # F's rounding error grows with the terms' exponents: a step whose
    # decrease doubles cannot resolve below that is accepted
    shift_size = max(map(abs, shifts))
    row_size = max(sum(map(abs, a)) for a in rows)

    def log_sum(z):
        t = [c + sum(map(mul, a, z)) for a, c in zip(rows, shifts)]
        m = max(t)
        e = [math.exp(ti - m) for ti in t]
        return m + math.log(sum(e)), e

    z = list(start)
    f, e = log_sum(z)
    for it in range(1, MAX_ITER + 1):
        total = sum(e)
        g = [sum(map(mul, e, col)) / total for col in cols]
        hess = [sum(map(mul, e, col)) / total - g[i] * g[j] for col, (i, j) in zip(products, pairs)]
        newton = _cholesky_solve(hess, [-gi for gi in g])
        # a numerically singular hessian (the shares of all terms but one
        # underflow) leaves F linear along -g: go as far as a step may
        step = newton or [-gi for gi in g]
        decrement2 = -sum(map(mul, g, step))
        slack = 1e-15 * (1.0 + shift_size + row_size * max(map(abs, z)))
        if decrement2 < tol * tol:
            cand = list(map(add, z, step))
            if log_sum(cand)[0] <= f + slack:
                z = cand
            return z, it, True
        longest = max(abs(sum(map(mul, a, step))) for a in rows)
        alpha = MAX_LOG_STEP / longest if longest > MAX_LOG_STEP or not newton else 1.0
        for _ in range(60):
            cand = [zi + alpha * si for zi, si in zip(z, step)]
            fc, ec = log_sum(cand)
            if fc <= f - 1e-4 * alpha * decrement2 + slack:
                z, f, e = cand, fc, ec
                break
            alpha *= 0.5
        else:
            return z, it, False
    return z, MAX_ITER, False


def _cholesky_solve(lower, rhs):
    """x with H x = rhs, for the symmetric H given by its lower triangle,
    row by row; None unless H is numerically positive definite and x finite."""
    entries = iter(lower)
    chol: list[list[float]] = []
    x: list[float] = []
    for b in rhs:
        # row i of the factor L, then entry i of the solution y of L y = rhs
        row: list[float] = []
        for lj in chol:
            row.append((next(entries) - sum(map(mul, row, lj))) / lj[-1])
        d = next(entries) - sum(map(mul, row, row))
        if not d > 0:
            return None
        row.append(math.sqrt(d))
        x.append((b - sum(map(mul, row, x))) / row[-1])
        chol.append(row)
    # L^T x = y, from the last row up
    for i in range(len(x) - 1, -1, -1):
        row = chol[i]
        xi = x[i] = x[i] / row[i]
        x[:i] = [xm - xi * lm for xm, lm in zip(x[:i], row)]
    return x if all(map(math.isfinite, x)) else None
