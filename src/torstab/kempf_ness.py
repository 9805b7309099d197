"""The Kempf-Ness functional for torus representations and its minimization,
plus the matrix-conjugation variant.

Torus case: l(x) = sum_w |v_w|^2 exp(2<w, x>) over the effective weights, a
smooth convex sum of exponentials.  Attainment of the infimum matches the
hull criterion: given the exact classification of the weights, a damped
Newton method is run only when it says a minimizer exists; non-attainment
is certified by its exact separating functional, never diagnosed
numerically.  Flat directions (the saturated kernel of the effective
weights) are quotiented out before iterating.

Conjugation case: l(g) = ||exp(g) phi exp(-g)||_F^2 over traceless hermitian
g; evaluation and first variation only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qexact import Lattice
from .stability import POLYSTABLE_NOT_STABLE, STABLE, StabilityResult
from .torus_rep import RepVector

CONVERGED = "Converged"
DIVERGING = "Diverging"
FLAT_DIRECTIONS = "FlatDirections"
FAILURE = "Failure"

DEFAULT_TOL = 1e-10
MAX_ITER = 500


@dataclass(frozen=True)
class KNProblem:
    """Torus Kempf-Ness problem: weights with positive squared norms."""

    weights: tuple[tuple[int, ...], ...]
    norms2: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("need at least one effective weight")
        if len(self.weights) != len(self.norms2):
            raise ValueError("weights and norms differ in length")
        if any(n <= 0 for n in self.norms2):
            raise ValueError("squared norms must be positive")

    @staticmethod
    def from_vector(v: RepVector) -> "KNProblem":
        by_weight = v.norm2_by_weight()
        if not by_weight:
            raise ValueError("zero vector")
        ws = tuple(sorted(by_weight))
        return KNProblem(ws, tuple(by_weight[w] for w in ws))

    @property
    def rank(self) -> int:
        return len(self.weights[0])


def kn_eval(p: KNProblem, x):
    """Value, gradient and hessian of the functional at a real point x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.rank,):
        raise ValueError("point of wrong dimension")
    w = np.array(p.weights, dtype=float)
    n2 = np.array(p.norms2)
    with np.errstate(over="ignore"):
        e = n2 * np.exp(2.0 * (w @ x))
    value = float(e.sum())
    grad = 2.0 * (e[:, None] * w).sum(axis=0)
    hess = 4.0 * np.einsum("i,ij,ik->jk", e, w, w)
    return value, grad, hess


@dataclass
class KNResult:
    status: str
    minimizer: np.ndarray | None = None
    value: float | None = None
    gradient_norm: float | None = None
    flat_space: Lattice | None = None
    descent_ray: tuple[int, ...] | None = None
    stability: StabilityResult | None = None
    iterations: int = 0


def _flat_complement(flat: Lattice, rank: int) -> np.ndarray:
    """Orthonormal basis (columns) of the real orthogonal complement of the
    flat lattice span."""
    if flat.rank == 0:
        return np.eye(rank)
    d = np.array(flat.basis, dtype=float)
    _, s, vt = np.linalg.svd(d, full_matrices=True)
    return vt[flat.rank:].T


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
    the iteration cap is reported as an explicit Failure status.

    Newton runs on p with norms2 divided by their sum (same minimizer, any
    input scale), so tol bounds that normalized gradient; one more Newton
    step follows the tol test.  value and gradient_norm are p's own.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if stability.weights != tuple(sorted(set(p.weights))):
        raise ValueError("the classification is of other weights")
    if stability.stability not in (STABLE, POLYSTABLE_NOT_STABLE):
        ray = tuple(-c for c in stability.cocharacter)
        limit = sum(
            n for w, n in zip(p.weights, p.norms2)
            if sum(a * b for a, b in zip(w, ray)) == 0
        )
        return KNResult(DIVERGING, value=limit, descent_ray=ray, stability=stability)

    # Stable certifies that the flat lattice is trivial
    flat = stability.flat_lattice or Lattice(p.rank, ())
    basis = _flat_complement(flat, p.rank)
    total = sum(p.norms2)
    unit = KNProblem(p.weights, tuple(n / total for n in p.norms2))
    w, n2 = np.array(unit.weights, dtype=float), np.array(unit.norms2)

    def unit_value(z):
        # kn_eval(unit, basis @ z)[0] without the gradient and hessian
        with np.errstate(over="ignore"):
            return float((n2 * np.exp(2.0 * (w @ (basis @ z)))).sum())

    status = CONVERGED if stability.stability == STABLE else FLAT_DIRECTIONS
    z = np.zeros(basis.shape[1])
    it = 0
    for it in range(1, MAX_ITER + 1):
        value, grad, hess = kn_eval(unit, basis @ z)
        g = basis.T @ grad
        try:
            step = -np.linalg.solve(basis.T @ hess @ basis, g)
        except np.linalg.LinAlgError:
            step = -g
        if not np.all(np.isfinite(step)) or float(step @ g) >= 0:
            step = -g
        # Armijo backtracking on the convex objective; the epsilon slack
        # keeps full Newton steps acceptable once the per-step decrease
        # falls below what doubles can resolve
        slack = 4e-16 * abs(value)
        if float(np.linalg.norm(g)) < tol:
            # convergence is quadratic, so one more step takes the gradient
            # down to roundoff
            cand = z + step
            if unit_value(cand) <= value + slack:
                z = cand
            break
        alpha, ok = 1.0, False
        for _ in range(60):
            cand = z + alpha * step
            vnew = unit_value(cand)
            if np.isfinite(vnew) and vnew <= value + 1e-4 * alpha * float(step @ g) + slack:
                z, ok = cand, True
                break
            alpha *= 0.5
        if not ok:
            status = FAILURE
            break
    else:
        status = FAILURE

    x = basis @ z
    value, grad, _ = kn_eval(p, x)
    return KNResult(
        status,
        minimizer=x,
        value=value,
        gradient_norm=float(np.linalg.norm(grad)),
        flat_space=flat if status == FLAT_DIRECTIONS else None,
        stability=stability,
        iterations=it,
    )


def moment_map(p: KNProblem, x) -> np.ndarray:
    """Torus moment map sum |v_w|^2 e^{2<w,x>} w; half the gradient."""
    _, grad, _ = kn_eval(p, x)
    return grad / 2.0


# ---------------------------------------------------------------------------
# matrix-conjugation representation


def _check_phi(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError("phi must be square")
    return phi


# The hermitian and traceless tests are relative to the largest entry, so a
# matrix is judged the same at every scale.
def _check_hermitian(a: np.ndarray, what: str):
    if np.abs(a - a.conj().T).max(initial=0.0) > 1e-10 * np.abs(a).max(initial=0.0):
        raise ValueError(f"{what} must be hermitian")


def _check_traceless(a: np.ndarray, what: str):
    if abs(np.trace(a)) > 1e-10 * np.abs(a).max(initial=0.0):
        raise ValueError(f"{what} must be traceless")


def _check_direction(v, n) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (n, n):
        raise ValueError("direction of wrong shape")
    _check_hermitian(v, "direction")
    _check_traceless(v, "direction")
    return v


def moment_map_conjugation(phi) -> np.ndarray:
    """[phi, phi*]: traceless hermitian, zero exactly when phi is normal."""
    phi = _check_phi(phi)
    return phi @ phi.conj().T - phi.conj().T @ phi


def kn_conjugation_eval(phi, g):
    """Value and gradient of ||e^g phi e^-g||^2 at a traceless hermitian g.

    The gradient is returned as the traceless hermitian matrix M with
    directional derivative Re tr(M v) along any traceless hermitian v; at
    g = 0 it reduces to 2 [phi, phi*].  Raises FloatingPointError when the
    value or the gradient overflows.
    """
    # imported here: scipy.linalg is about half of every torstab start-up
    from scipy.linalg import expm, expm_frechet

    phi = _check_phi(phi)
    n = phi.shape[0]
    g = np.asarray(g, dtype=complex)
    if g.shape != (n, n):
        raise ValueError("dimension mismatch between phi and g")
    _check_hermitian(g, "g")
    with np.errstate(over="ignore", invalid="ignore"):
        eg = expm(g)
        eg_inv = expm(-g)
        conj = eg @ phi @ eg_inv
        value = float(np.real(np.trace(conj @ conj.conj().T)))

        # first variation: D_g l(v) = Re tr(W v_g) with v_g the derivative of
        # exp(2(g+tv)); transposing the exponential's Frechet map (self-adjoint
        # for hermitian 2g) turns the pairing into an explicit gradient matrix
        e2g = eg @ eg
        e2g_inv = eg_inv @ eg_inv
        w = (phi @ e2g_inv @ phi.conj().T @ e2g - e2g_inv @ phi.conj().T @ e2g @ phi) @ e2g_inv
    _check_finite(value, w)
    _, lw = expm_frechet(2.0 * g, w.conj().T)
    m = 2.0 * lw.conj().T
    m = (m + m.conj().T) / 2.0
    m = m - np.trace(m) / n * np.eye(n)
    _check_finite(m)
    return value, m


def _check_finite(*arrays):
    """Overflow is a numerical failure, not bad input: FloatingPointError
    (an ArithmeticError) rather than scipy's ValueError on infs."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise FloatingPointError("the conjugation functional overflows at this g")


def conjugation_gradient_pairing(phi, g, v) -> float:
    """Directional derivative of the conjugation functional at g along the
    traceless hermitian direction v."""
    phi = _check_phi(phi)
    v = _check_direction(v, phi.shape[0])
    _, m = kn_conjugation_eval(phi, g)
    return float(np.real(np.trace(m @ v)))


def standard_hermitian_directions(n: int) -> tuple[np.ndarray, ...]:
    """Real basis of the traceless hermitian n x n matrices."""
    out = []
    for i in range(n - 1):
        d = np.zeros((n, n), dtype=complex)
        d[i, i], d[i + 1, i + 1] = 1.0, -1.0
        out.append(d)
    for i in range(n):
        for j in range(i + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[i, j] = s[j, i] = 1.0
            out.append(s)
            a = np.zeros((n, n), dtype=complex)
            a[i, j], a[j, i] = 1j, -1j
            out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class ConjugationProblem:
    """Matrix-conjugation Kempf-Ness problem: a square traceless phi and a
    basis of traceless hermitian directions (defaults to the standard one).
    Scope is evaluation and first variation; no minimization is attempted."""

    phi: np.ndarray
    directions: tuple

    @staticmethod
    def make(phi, directions=None) -> "ConjugationProblem":
        phi = _check_phi(phi)
        n = phi.shape[0]
        _check_traceless(phi, "phi")
        dirs = tuple(directions) if directions is not None else standard_hermitian_directions(n)
        dirs = tuple(_check_direction(v, n) for v in dirs)
        return ConjugationProblem(phi, dirs)

    def gradient_coefficients(self, g) -> np.ndarray:
        _, m = kn_conjugation_eval(self.phi, g)
        return np.array([float(np.real(np.trace(m @ v))) for v in self.directions])
