import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torstab.errors import ValidationError
from torstab.kempf_ness import (
    CONVERGED,
    DIVERGING,
    FLAT_DIRECTIONS,
    KNProblem,
    _newton,
    kn_eval,
    kn_minimize,
)
from torstab.stability import classify
from torstab.torus_rep import RepVector, WeightLine


def problem(weights, norms2=None):
    ws = [tuple(w) for w in weights]
    if norms2 is None:
        norms2 = [1.0] * len(ws)
    return KNProblem(weights=tuple(ws), log_norms2=tuple(math.log(n) for n in norms2))


def classified(p):
    """classify of a vector whose effective weights are p's."""
    lines = tuple(WeightLine(f"w{i}", w) for i, w in enumerate(p.weights))
    return classify(RepVector(lines, {ln.label: 1.0 for ln in lines}))


# ---------------------------------------------------------------------------
# finite-difference oracles


def fd_gradient(p, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (kn_eval(p, x + e)[0] - kn_eval(p, x - e)[0]) / (2 * h)
    return g


def fd_hessian(p, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    n = len(x)
    hess = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        hess[:, i] = (fd_gradient(p, x + e) - fd_gradient(p, x - e)) / (2 * h)
    return hess


def moment_map(p, x):
    """Torus moment map sum |v_w|^2 e^{2<w,x>} w; half the gradient."""
    return kn_eval(p, x)[1] / 2


# ---------------------------------------------------------------------------
# kn_eval


def test_kn_eval_spec_examples():
    p = problem([(1,), (-1,)])
    value, grad, hess = kn_eval(p, [0.0])
    assert value == pytest.approx(2.0)
    assert grad[0] == pytest.approx(0.0)
    assert hess[0, 0] == pytest.approx(8.0)

    p2 = problem([(1,), (-1,)], norms2=[4.0, 1.0])
    x = -math.log(2) / 2
    value, grad, _ = kn_eval(p2, [x])
    assert value == pytest.approx(4.0, abs=1e-12)
    assert grad[0] == pytest.approx(0.0, abs=1e-12)


def test_kn_eval_weight_zero_constant():
    p = problem([(0, 0)])
    for x in ([0.0, 0.0], [3.0, -2.0]):
        value, grad, _ = kn_eval(p, x)
        assert value == pytest.approx(1.0)
        assert np.allclose(grad, 0.0)


def test_kn_eval_hessian_psd():
    rng = np.random.default_rng(0)
    p = problem([(1, 2), (-1, 0), (0, -3)], norms2=[1.0, 2.0, 0.5])
    for _ in range(20):
        x = rng.normal(size=2)
        _, _, hess = kn_eval(p, x)
        assert np.linalg.eigvalsh(hess).min() >= -1e-9


def test_kn_eval_matches_finite_differences():
    rng = np.random.default_rng(1)
    p = problem([(1, 2), (-1, 0), (0, -3), (2, -1)], norms2=[1.0, 2.0, 0.5, 1.5])
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=2)
        _, grad, hess = kn_eval(p, x)
        gref = fd_gradient(p, x)
        href = fd_hessian(p, x)
        assert np.linalg.norm(grad - gref) < 1e-6 * max(1.0, np.linalg.norm(gref))
        assert np.linalg.norm(hess - href) < 1e-5 * max(1.0, np.linalg.norm(href))


# ---------------------------------------------------------------------------
# kn_minimize


def test_kn_minimize_closed_form():
    p = problem([(1,), (-1,)], norms2=[4.0, 1.0])
    res = kn_minimize(p, classified(p))
    assert res.status == CONVERGED
    assert res.minimizer[0] == pytest.approx(-math.log(2) / 2, abs=1e-8)
    assert res.value == pytest.approx(4.0, abs=1e-8)


def test_kn_minimize_symmetric():
    p = problem([(1,), (-1,)])
    res = kn_minimize(p, classified(p))
    assert res.status == CONVERGED
    assert res.minimizer[0] == pytest.approx(0.0, abs=1e-9)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_kn_minimize_diverging_with_ray():
    p = problem([(1,), (2,)])
    res = kn_minimize(p, classified(p))
    assert res.status == DIVERGING
    ray = np.array(res.descent_ray, dtype=float)
    # the functional strictly decreases along the certified ray
    vals = [kn_eval(problem([(1,), (2,)]), t * ray)[0] for t in (0.0, 1.0, 2.0, 5.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_kn_minimize_flat_directions():
    p = problem([(1, 0), (-1, 0)])
    res = kn_minimize(p, classified(p))
    assert res.status == FLAT_DIRECTIONS
    assert res.flat_space is not None and res.flat_space.rank == 1
    # value is invariant along the flat lattice
    d = np.array(res.flat_space.basis[0], dtype=float)
    v0 = kn_eval(p, res.minimizer)[0]
    for t in np.linspace(-2, 2, 10):
        vt = kn_eval(p, res.minimizer + t * d)[0]
        assert abs(vt - v0) <= 1e-10 * max(1.0, v0)


def test_kn_minimize_moment_map_small_at_minimizer():
    p = problem([(1, 1), (-1, 0), (0, -1)], norms2=[1.0, 2.0, 3.0])
    res = kn_minimize(p, classified(p))
    assert res.status == CONVERGED
    assert np.linalg.norm(moment_map(p, res.minimizer)) < 1e-9


def test_kn_minimize_rejects_bad_tol():
    p = problem([(1,), (-1,)])
    cls = classified(p)
    with pytest.raises(ValueError):
        kn_minimize(p, cls, tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_kn_minimize_rejects_tol_that_is_not_finite(tol):
    # inf would stop Newton after one step, nan would never stop it
    p = problem([(1,), (-1,), (2,)])
    with pytest.raises(ValidationError, match="tol must be finite"):
        kn_minimize(p, classified(p), tol=tol)


def test_kn_minimize_rejects_classification_of_other_weights():
    p = problem([(1,), (-1,)])
    other = classified(problem([(1,), (-2,)]))
    with pytest.raises(ValueError, match="other weights"):
        kn_minimize(p, other)


@pytest.mark.parametrize("scale", [1e-30, 1e-12, 1e-6, 1.0, 1e6, 1e12, 1e30])
def test_kn_minimize_scale_invariant(scale):
    # minimize s e^{2x} + 2s e^{-2x}: x = ln 2 / 4 at every scale s
    p = problem([(1,), (-1,)], norms2=[scale, 2 * scale])
    res = kn_minimize(p, classified(p))
    assert res.status == CONVERGED
    assert res.minimizer[0] == pytest.approx(math.log(2) / 4, abs=1e-12)
    # value and gradient are reported at the input scale
    assert res.value == pytest.approx(2 * math.sqrt(2) * scale, rel=1e-12)
    assert res.gradient_norm < 1e-12 * scale


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    w_a=st.integers(1, 6),
    w_b=st.integers(-6, -1),
    exp_a=st.floats(0, 40),
    exp_b=st.floats(0, 40),
    zero_line=st.none() | st.floats(0, 30),
)
def test_kn_minimize_spread_norms_rank_1(w_a, w_b, exp_a, exp_b, zero_line):
    # n_a e^{2 w_a x} + n_b e^{2 w_b x} (+ a constant) is least where
    # w_a n_a e^{2 w_a x} = -w_b n_b e^{2 w_b x}, however far apart the norms
    n_a, n_b = 10.0**exp_a, 10.0**exp_b
    weights, norms2 = [(w_a,), (w_b,)], [n_a, n_b]
    if zero_line is not None:
        weights.append((0,))
        norms2.append(10.0**zero_line)
    p = problem(weights, norms2)
    res = kn_minimize(p, classified(p))
    assert res.status == CONVERGED
    want = math.log(-w_b * n_b / (w_a * n_a)) / (2 * (w_a - w_b))
    assert abs(res.minimizer[0] - want) <= 1e-8


@pytest.mark.parametrize("amplitude, want", [(1e-200, 230.25850929940458),
                                             (1e200, -230.25850929940458)])
def test_kn_minimize_norms_beyond_the_float_range(amplitude, want):
    # |a|^2 = 1e-400 or 1e400 is no float, but its logarithm is
    lines = (WeightLine("a", (1,)), WeightLine("b", (-1,)))
    v = RepVector(lines, {"a": amplitude, "b": 1.0})
    p = KNProblem.from_vector(v)
    assert p.log_norms2 == pytest.approx((0.0, 2 * math.log(amplitude)))  # weights -1, 1
    res = kn_minimize(p, classify(v))
    assert res.status == CONVERGED
    assert res.minimizer[0] == pytest.approx(want, abs=1e-8)
    # value 2 sqrt(n_a n_b) = 2 |a|, a float
    assert res.value == pytest.approx(2 * amplitude, rel=1e-12)


def test_kn_problem_sums_the_norms_of_one_weight_in_log_space():
    lines = (WeightLine("a", (1,), norm2=2.0), WeightLine("b", (1,)), WeightLine("c", (-1,)))
    p = KNProblem.from_vector(RepVector(lines, {"a": 3.0, "b": 1e-200 + 4j, "c": 1.0}))
    assert p.weights == ((-1,), (1,))
    assert p.log_norms2 == pytest.approx((0.0, math.log(2.0 * 9.0 + 16.0)), rel=1e-15)
    with pytest.raises(ValueError, match="must be finite"):
        KNProblem(weights=((1,),), log_norms2=(math.inf,))


weight2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(weight2, min_size=1, max_size=6, unique=True))
def test_kn_minimize_status_matches_classify(ws):
    lines = tuple(WeightLine(f"l{i}", w) for i, w in enumerate(ws))
    v = RepVector(lines, {ln.label: 1.0 for ln in lines})
    cls = classify(v)
    res = kn_minimize(KNProblem.from_vector(v), cls)
    expected = {
        "Stable": CONVERGED,
        "PolystableNotStable": FLAT_DIRECTIONS,
        "SemistableNotPolystable": DIVERGING,
        "Unstable": DIVERGING,
    }[cls.stability]
    assert res.status == expected


# ---------------------------------------------------------------------------
# the balanced start


def int_det(m):
    """Exact determinant of a small integer matrix, by cofactors."""
    if not m:
        return 1
    return sum((-1) ** j * a * int_det([r[:j] + r[j + 1:] for r in m[1:]]) for j, a in enumerate(m[0]))


def zero_start_newton(p, tol=1e-10):
    """kn_minimize's Newton on a stable p, started at z = 0: (x, iterations,
    converged).  Stable leaves no flat directions, so z is x itself."""
    terms = [(w, c) for w, c in zip(p.weights, p.log_norms2) if any(w)]
    top = max(c for _, c in terms)
    rows = [[2.0 * a for a in w] for w, _ in terms]
    return _newton(rows, [c - top for _, c in terms], tol, [0.0] * p.rank)


def log_norms(draw, m, decades):
    spread = st.floats(-decades, decades, allow_nan=False)
    return tuple(draw(spread) * math.log(10) for _ in range(m))


@st.composite
def simplicial_problems(draw):
    """k + 1 weights of rank k = 1..3 whose simplex has 0 inside: k independent
    weights and minus a positive integer combination of them, with norms
    over +-40 decades."""
    k = draw(st.integers(1, 3))
    entry = st.integers(-4, 4)
    base = [tuple(draw(entry) for _ in range(k)) for _ in range(k)]
    assume(int_det([list(w) for w in base]) != 0)
    coef = [draw(st.integers(1, 3)) for _ in range(k)]
    last = tuple(-sum(c * w[i] for c, w in zip(coef, base)) for i in range(k))
    weights = tuple(base) + (last,)
    assume(len(set(weights)) == k + 1)
    return KNProblem(weights=weights, log_norms2=log_norms(draw, k + 1, 40))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(simplicial_problems())
def test_kn_minimize_solves_a_simplex_in_one_step(p):
    # the minimizer is the balanced point n_i e^{2<w_i, x>} = s lambda_i, with
    # lambda the kernel of the weights: x solves [2 w_i | -1] (x, mu) =
    # log lambda_i - log n_i
    k = p.rank
    cols = [[w[i] for w in p.weights] for i in range(k)]
    kernel = [(-1) ** j * int_det([c[:j] + c[j + 1:] for c in cols]) for j in range(k + 1)]
    lam = [a / sum(kernel) for a in kernel]
    assert all(a > 0 for a in lam)
    a = np.array([[2.0 * c for c in w] + [-1.0] for w in p.weights])
    b = np.array([math.log(li) - c for li, c in zip(lam, p.log_norms2)])
    want = np.linalg.solve(a, b)[:k]
    res = kn_minimize(p, classified(p))
    assert (res.status, res.iterations) == (CONVERGED, 1)
    assert np.abs(res.minimizer - want).max() <= 1e-9


@pytest.mark.parametrize("weights, norms2", [
    ([(1, 1), (-1, -1)], [3.0, 1e-20]),
    ([(1, 1, 0), (-2, 0, 2), (0, -1, -1)], [1e30, 2.0, 1e-5]),
])
def test_kn_minimize_solves_a_simplex_across_flat_directions_in_one_step(weights, norms2):
    p = problem(weights, norms2)
    res = kn_minimize(p, classified(p))
    assert (res.status, res.iterations) == (FLAT_DIRECTIONS, 1)
    assert np.linalg.norm(moment_map(p, res.minimizer)) <= 1e-9 * res.value


@st.composite
def stable_non_simplicial_problems(draw):
    """Stable problems of rank 1..3 with more than k + 1 nonzero weights,
    norms within +-3 decades."""
    k = draw(st.integers(1, 3))
    weight = st.tuples(*[st.integers(-4, 4)] * k)
    weights = tuple(draw(st.lists(weight, min_size=k + 2, max_size=k + 5, unique=True)))
    assume(sum(map(any, weights)) > k + 1)
    p = KNProblem(weights=weights, log_norms2=log_norms(draw, len(weights), 3))
    cls = classified(p)
    assume(cls.stability == "Stable")
    return p, cls


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stable_non_simplicial_problems())
def test_kn_minimize_from_the_balanced_start_finds_the_zero_start_minimizer(case):
    p, cls = case
    res = kn_minimize(p, cls)
    z, _, converged = zero_start_newton(p)
    assert res.status == CONVERGED and converged
    assert np.abs(res.minimizer - np.array(z)).max() <= 1e-9


def test_kn_minimize_from_the_balanced_start_takes_fewer_iterations_in_all():
    # only a start off a simplex: a problem may take a few more iterations
    # than from z = 0, but the sum over many falls
    rng = np.random.default_rng(18)
    start = zero = count = 0
    while count < 300:
        k = int(rng.integers(1, 4))
        weights = tuple({tuple(map(int, rng.integers(-4, 5, size=k))) for _ in range(k + 4)})
        p = KNProblem(weights=weights, log_norms2=tuple(rng.uniform(-3, 3, len(weights)) * math.log(10)))
        cls = classified(p)
        if cls.stability != "Stable" or sum(map(any, weights)) <= k + 1:
            continue
        start += kn_minimize(p, cls).iterations
        zero += zero_start_newton(p)[1]
        count += 1
    assert start < 0.95 * zero


def test_kn_minimize_without_a_combination_starts_at_zero():
    p = problem([(1, 0), (0, 1), (-1, -1), (2, -1)], norms2=[1e10, 3.0, 1e-10, 7.0])
    cls = dataclasses.replace(classified(p), combination=None)
    res = kn_minimize(p, cls)
    z, it, _ = zero_start_newton(p)
    assert res.status == CONVERGED
    assert res.iterations == it > 1
    assert res.minimizer.tolist() == z


@pytest.mark.parametrize("n_d", [4e-30, 4e-60, 4e-10])
def test_kn_minimize_does_not_report_converged_where_live_terms_leave_a_direction_flat(n_d):
    # with delta = x1 - x2 and t = (x1 + x2) / 2 the problem separates: the
    # minimizer has e^{4 delta} = 2 and e^{16 t} = n_d / 3e-30.  Only c and d
    # move t, and at the stop their shares of F are below 1e-8, so F's float
    # gradient cannot see t: Newton stopped off the minimizer
    p = problem([(1, -1), (-1, 1), (3, 3), (-1, -1)], norms2=[1.0, 2.0, 1e-30, n_d])
    res = kn_minimize(p, classified(p))
    assert res.status != CONVERGED
