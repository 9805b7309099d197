"""Floating-point stability classification, independent of torstab's exact
simplex: the relative-interior LP is solved by scipy's HiGHS and the hull
dimension by a numpy rank.

Weights here are small integers, so a positive optimum t* of the relint LP
is a rational with a small denominator (well above 1e-6) and a zero optimum
comes back within solver tolerance of 0; MARGIN separates the two.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

MARGIN = 1e-7

UNSTABLE = "Unstable"
SEMISTABLE = "SemistableNotPolystable"
POLYSTABLE = "PolystableNotStable"
STABLE = "Stable"


def relint_margin(weights) -> float | None:
    """max t with sum a_i w_i = 0, sum a_i = 1, a_i >= t, t <= 1; None when
    0 is outside the hull."""
    w = np.asarray(weights, dtype=float)
    m, k = w.shape
    # variables a_1..a_m, t; minimise -t
    a_eq = np.zeros((k + 1, m + 1))
    a_eq[:k, :m] = w.T
    a_eq[k, :m] = 1.0
    b_eq = np.zeros(k + 1)
    b_eq[k] = 1.0
    a_ub = np.hstack([-np.eye(m), np.ones((m, 1))])  # t - a_i <= 0
    bounds = [(0, None)] * m + [(None, 1.0)]
    c = np.zeros(m + 1)
    c[m] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.x[m])


def float_class(weights) -> str:
    """Stability class of a vector whose effective weights are given."""
    t = relint_margin(weights)
    if t is None or t < -MARGIN:
        return UNSTABLE
    if t <= MARGIN:
        return SEMISTABLE
    k = len(weights[0])
    if np.linalg.matrix_rank(np.asarray(weights, dtype=float)) == k:
        return STABLE
    return POLYSTABLE
