import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torstab.graded_kuranishi import (
    GradedComplex,
    _integer_kernel_matrix,
    greens_operator,
    gvec_norm,
    kuranishi_forward,
    kuranishi_inverse_graded,
    obstruction,
    quadratic_part,
    random_graded_complex,
)
from torstab.qexact import rational_rank


def random_positive_vector(rng, cx):
    return {
        g: rng.normal(size=cx.n1(g)) + 1j * rng.normal(size=cx.n1(g))
        for g in cx.grades
        if g > 0
    }


def circle_action(t, a):
    """The grading circle action: grade-j parts pick up t^j."""
    return {g: (t ** g) * arr for g, arr in a.items()}


def rel_residual(a, b):
    diff = {g: a.get(g, 0) - b.get(g, 0) for g in set(a) | set(b)}
    denom = max(gvec_norm(a), gvec_norm(b), 1e-30)
    return gvec_norm(diff) / denom


def gamma(gr):
    """grade -> Gamma, the pseudoinverse of d1 d1* on C2, as (d1^+)* d1^+."""
    return {g: p.conj().T @ p for g, p in gr.d1_pinv.items()}


# ---------------------------------------------------------------------------
# slice fixtures: complexes and vectors under which the curvature of a slice
# vector equals the obstruction of its image


def gvec_add(a, b):
    out = dict(a)
    for g, arr in b.items():
        out[g] = out.get(g, 0) + arr
    return out


def d1_apply(cx, u):
    out = cx.zero2()
    for g, arr in u.items():
        if g in cx.d1 and cx.d1[g].size:
            out[g] = out[g] + cx.d1[g] @ arr
    return out


def curvature(cx, u):
    """d1 u + q(u); vanishes on the deformation space the slice models."""
    return gvec_add(d1_apply(cx, u), quadratic_part(cx, u))


def satisfies_slice_conditions(cx, u, tol=1e-9):
    """Model slice conditions under which curvature(u) = obstruction(kappa(u))
    holds: kappa(u) is d1-closed and q(u), q(kappa(u)) share their harmonic
    part."""
    greens = greens_operator(cx)
    x = kuranishi_forward(cx, u, greens)
    closed = gvec_norm(d1_apply(cx, x))
    qu = greens.project_harmonic(quadratic_part(cx, u))
    qx = greens.project_harmonic(quadratic_part(cx, x))
    drift = gvec_norm({g: qu[g] - qx[g] for g in qu})
    scale = max(1.0, gvec_norm(u))
    return closed <= tol * scale and drift <= tol * scale * scale


def nilpotent_chain_complex(grades=(1, 2, 3)):
    """Deterministic triangular model: one line per grade at each level,
    shift differentials, and a bracket stacking grades additively."""
    dims = {g: (1, 2, 1) for g in grades}
    d0 = {g: np.array([[1.0], [0.0]], dtype=complex) for g in grades}
    d1 = {g: np.array([[0.0, 1.0]], dtype=complex) for g in grades}
    bracket = {}
    for a in grades:
        for b in grades:
            if (a + b) in dims:
                t = np.zeros((1, 2, 2), dtype=complex)
                t[0, 0, 0] = 1.0
                bracket[(a, b)] = t
    return GradedComplex(grades, dims, d0, d1, bracket)


def random_slice_instance(rng, grades=(1, 2, 3, 4), max_dim=5):
    """(complex, u, x) satisfying the model slice conditions: every d1 above
    the lowest grade has full row rank, which confines harmonic C2 to the
    lowest grade, and x is a d1-closed positive vector, so
    curvature(kappa^{-1}(x)) and the obstruction both vanish."""
    while True:
        cx = random_graded_complex(rng, grades, max_dim)
        d1 = {g: cx.d1[g].real.astype(np.int64) for g in cx.grades}
        if any(rational_rank(d1[g].tolist()) != cx.n2(g) for g in cx.grades[1:]):
            continue
        x = {}
        for g in cx.grades:
            ker = _integer_kernel_matrix(d1[g]).astype(complex)
            coeff = rng.normal(size=ker.shape[1]) + 1j * rng.normal(size=ker.shape[1])
            x[g] = ker @ coeff
        if any(np.any(arr != 0) for arr in x.values()):
            return cx, kuranishi_inverse_graded(cx, x, greens_operator(cx)), x


# ---------------------------------------------------------------------------
# construction and validation


def test_complex_validation_rejects_bad_d1d0():
    dims = {1: (1, 1, 1)}
    d0 = {1: np.array([[1.0]], dtype=complex)}
    d1 = {1: np.array([[1.0]], dtype=complex)}
    with pytest.raises(ValueError, match="d1 d0"):
        GradedComplex((1,), dims, d0, d1, {})


def test_complex_validation_rejects_bad_d1d0_at_tiny_scale():
    dims = {1: (1, 1, 1)}
    d0 = {1: np.array([[1e-8]], dtype=complex)}
    d1 = {1: np.array([[1e-8]], dtype=complex)}
    with pytest.raises(ValueError, match="d1 d0"):
        GradedComplex((1,), dims, d0, d1, {})


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_complex_validation_rejects_bad_d1d0_beyond_the_float_range(scale):
    # d1 d0 = 1e400 overflows and 1e-400 underflows, but d1 d0 is not 0
    dims = {1: (1, 1, 1)}
    d0 = {1: np.array([[scale]], dtype=complex)}
    d1 = {1: np.array([[scale]], dtype=complex)}
    with pytest.raises(ValueError, match="d1 d0"):
        GradedComplex((1,), dims, d0, d1, {})


def test_complex_validation_accepts_tiny_d1d0_that_is_exactly_zero():
    dims = {1: (1, 2, 1)}
    d0 = {1: np.array([[1e-200], [0.0]], dtype=complex)}
    d1 = {1: np.array([[0.0, 3e-200]], dtype=complex)}
    GradedComplex((1,), dims, d0, d1, {})


@pytest.mark.parametrize("s0, s1", [(1e-12, 1e-12), (1e-12, 1e12), (1e12, 1e-12), (1e12, 1e12)])
def test_complex_validation_accepts_any_scale(s0, s1):
    cx = random_graded_complex(np.random.default_rng(7), (1, 2, 3), max_dim=4)
    d0 = {g: s0 * cx.d0[g] for g in cx.grades}
    d1 = {g: s1 * cx.d1[g] for g in cx.grades}
    GradedComplex(cx.grades, cx.dims, d0, d1, cx.bracket)


@pytest.mark.parametrize("grades", [(1, 1), (2, 1), (1, 2, 2)])
def test_complex_validation_requires_strictly_increasing_grades(grades):
    dims = {g: (0, 2, 0) for g in grades}
    d0 = {g: np.zeros((2, 0)) for g in grades}
    d1 = {g: np.zeros((0, 2)) for g in grades}
    with pytest.raises(ValueError, match="strictly increasing"):
        GradedComplex(grades, dims, d0, d1, {})


def test_complex_validation_rejects_asymmetric_bracket():
    dims = {1: (0, 2, 0), 2: (0, 1, 2)}
    d0 = {1: np.zeros((2, 0)), 2: np.zeros((1, 0))}
    d1 = {1: np.zeros((0, 2)), 2: np.zeros((2, 1))}
    t = np.zeros((2, 2, 2), dtype=complex)
    t[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        GradedComplex((1, 2), dims, d0, d1, {(1, 1): t})


def test_an_empty_bracket_tensor_must_match_its_partners_shape():
    dims = {1: (0, 2, 0), 2: (0, 1, 0), 3: (0, 1, 0)}
    zero = {g: np.zeros((n2, n1)) for g, (_, n1, n2) in dims.items()}
    d0 = {g: np.zeros((n1, 0)) for g, (_, n1, _) in dims.items()}
    t = np.zeros((0, 2, 1), dtype=complex)
    GradedComplex((1, 2, 3), dims, d0, zero, {(1, 2): t, (2, 1): np.zeros((0, 1, 2))})
    with pytest.raises(ValueError, match="symmetric"):
        GradedComplex((1, 2, 3), dims, d0, zero, {(1, 2): t, (2, 1): np.zeros((0, 2, 1))})


def test_zero_size_draws_leave_the_generators_stream_unchanged():
    # random_graded_complex skips the draws of an empty block, which keeps
    # every seed's complex as long as a zero-size draw consumes nothing
    rng = np.random.default_rng(7)
    assert rng.integers(-2, 3, size=(0, 4)).shape == (0, 4)
    assert rng.integers(-2, 3, size=(3, 0)).shape == (3, 0)
    assert rng.random((0, 2, 3)).shape == (0, 2, 3)
    fresh = np.random.default_rng(7)
    assert np.array_equal(rng.integers(-2, 3, size=(4, 5)), fresh.integers(-2, 3, size=(4, 5)))
    assert np.array_equal(rng.random((2, 3)), fresh.random((2, 3)))


def test_random_complexes_validate():
    rng = np.random.default_rng(0)
    for _ in range(30):
        cx = random_graded_complex(rng)
        for g in cx.grades:
            prod = cx.d1[g] @ cx.d0[g]
            assert not prod.size or np.abs(prod).max() == 0


# ---------------------------------------------------------------------------
# Green's operator


def test_greens_zero_differential():
    dims = {1: (0, 3, 2)}
    cx = GradedComplex(
        (1,), dims, {1: np.zeros((3, 0))}, {1: np.zeros((2, 3))}, {}
    )
    gr = greens_operator(cx)
    assert np.allclose(gamma(gr)[1], 0)
    assert np.allclose(gr.harmonic[1], np.eye(2))


def test_greens_full_rank_is_inverse():
    rng = np.random.default_rng(1)
    d1 = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]], dtype=complex)
    dims = {1: (0, 3, 2)}
    cx = GradedComplex((1,), dims, {1: np.zeros((3, 0))}, {1: d1}, {})
    gr = greens_operator(cx)
    lap = d1 @ d1.conj().T
    assert np.allclose(gamma(gr)[1], np.linalg.inv(lap))
    assert np.allclose(gr.harmonic[1], 0)


def test_greens_flags_ambiguous_rank():
    # a singular value just above the pseudoinverse cutoff makes the
    # harmonic split numerically ambiguous
    d1 = np.array([[1.0, 0.0], [0.0, 3e-5]], dtype=complex)
    dims = {1: (0, 2, 2)}
    cx = GradedComplex((1,), dims, {1: np.zeros((2, 0))}, {1: d1}, {})
    assert greens_operator(cx).status == "ill-conditioned"
    ok = GradedComplex(
        (1,), dims, {1: np.zeros((2, 0))},
        {1: np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)}, {},
    )
    assert greens_operator(ok).status == "ok"


def test_greens_identity_random():
    rng = np.random.default_rng(2)
    for _ in range(25):
        cx = random_graded_complex(rng)
        gr = greens_operator(cx)
        for g in cx.grades:
            lap = cx.d1[g] @ cx.d1[g].conj().T
            n2 = cx.n2(g)
            if n2 == 0:
                continue
            ident = gamma(gr)[g] @ lap + gr.harmonic[g]
            assert np.abs(ident - np.eye(n2)).max() < 1e-9


@pytest.mark.parametrize("scale", [1e-160, 1e-100, 1.0, 1e100, 1e160, 6.5e307 * (1 + 1j)])
def test_greens_does_not_depend_on_the_scale_of_d1(scale):
    # the Laplacian of d1 itself underflowed below 1e-160 (all of C2 read
    # as harmonic) and overflowed above 1e154; the last scale puts entries
    # whose modulus is no float next to ones that are
    cx = random_graded_complex(np.random.default_rng(0), (1, 2, 3, 4), 5)
    ref = greens_operator(cx)
    with np.errstate(all="ignore"):  # Gamma itself is beyond the float range
        scaled = GradedComplex(
            cx.grades, cx.dims, cx.d0, {g: scale * cx.d1[g] for g in cx.grades}, cx.bracket
        )
        gr = greens_operator(scaled)
    assert gr.status == ref.status
    assert gr.condition == pytest.approx(ref.condition, rel=1e-12, abs=0)
    for g in cx.grades:
        assert np.abs(gr.harmonic[g] - ref.harmonic[g]).max(initial=0.0) <= 1e-12


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 5))
def test_greens_matches_numpy_pinv_and_svd(seed, top_grade, max_dim):
    # numpy's pinv and svd of the Laplacian are the reference for the
    # operator's one eigendecomposition per grade
    cx = random_graded_complex(np.random.default_rng(seed), range(1, top_grade + 1), max_dim)
    gr = greens_operator(cx)
    worst, ambiguous = 1.0, False
    for g in cx.grades:
        lap = cx.d1[g] @ cx.d1[g].conj().T
        pinv = np.linalg.pinv(lap, rcond=1e-12, hermitian=True)
        largest = np.abs(pinv).max(initial=0.0)
        assert np.abs(gamma(gr)[g] - pinv).max(initial=0.0) <= 1e-12 * largest
        # a projector's entries are at most 1, and where it is zero the
        # reference is round-off, so the harmonic part is compared absolutely
        harmonic = np.eye(cx.n2(g)) - lap @ pinv
        assert np.abs(gr.harmonic[g] - harmonic).max(initial=0.0) <= 1e-12
        s = np.linalg.svd(lap, compute_uv=False)
        if s.size and s[0] > 0:
            cutoff = 1e-12 * s[0]
            worst = max(worst, s[0] / s[s > cutoff][-1])
            ambiguous = ambiguous or bool(np.any((s > cutoff) & (s < 1e4 * cutoff)))
    assert gr.condition == pytest.approx(worst, rel=1e-12, abs=0)
    assert gr.status == ("ill-conditioned" if ambiguous else "ok")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 5))
def test_greens_d1_pinv_is_d1_star_gamma(seed, top_grade, max_dim):
    # the Kuranishi maps apply d1* Gamma as one matrix, d1^+
    cx = random_graded_complex(np.random.default_rng(seed), range(1, top_grade + 1), max_dim)
    gr = greens_operator(cx)
    for g in cx.grades:
        d1 = cx.d1[g]
        ref = d1.conj().T @ np.linalg.pinv(d1 @ d1.conj().T, rcond=1e-12, hermitian=True)
        assert gr.d1_pinv[g].shape == (cx.n1(g), cx.n2(g))
        assert np.abs(gr.d1_pinv[g] - ref).max(initial=0.0) <= 1e-12 * max(
            1.0, np.abs(ref).max(initial=0.0))


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_greens_d1_pinv_scales_inversely_with_d1(scale):
    # Gamma overflows below |d1| = 1e-154, d1^+ only where it is no float
    cx = random_graded_complex(np.random.default_rng(0), (1, 2, 3, 4), 5)
    ref = greens_operator(cx)
    with np.errstate(all="ignore"):
        scaled = GradedComplex(
            cx.grades, cx.dims, cx.d0, {g: scale * cx.d1[g] for g in cx.grades}, cx.bracket
        )
        gr = greens_operator(scaled)
    for g in cx.grades:
        assert np.all(np.isfinite(gr.d1_pinv[g]))
        assert np.abs(gr.d1_pinv[g] * scale - ref.d1_pinv[g]).max(initial=0.0) <= 1e-12 * max(
            1.0, np.abs(ref.d1_pinv[g]).max(initial=0.0))


# ---------------------------------------------------------------------------
# forward map


def test_forward_identity_for_zero_bracket():
    dims = {1: (0, 2, 1), 2: (0, 2, 1)}
    cx = GradedComplex(
        (1, 2),
        dims,
        {1: np.zeros((2, 0)), 2: np.zeros((2, 0))},
        {1: np.zeros((1, 2)), 2: np.zeros((1, 2))},
        {},
    )
    u = {1: np.array([1.0, 2.0j]), 2: np.array([0.5, -1.0])}
    out = kuranishi_forward(cx, u, greens_operator(cx))
    assert rel_residual(out, u) < 1e-15


def test_forward_kills_harmonic_bracket():
    # Gamma annihilates the harmonic part, so a harmonic bracket square
    # leaves the input unchanged
    rng = np.random.default_rng(3)
    for _ in range(20):
        cx = random_graded_complex(rng)
        gr = greens_operator(cx)
        u = random_positive_vector(rng, cx)
        q = quadratic_part(cx, u)
        harmonic_only = gr.project_harmonic(q)
        if rel_residual(q, harmonic_only) < 1e-12:
            out = kuranishi_forward(cx, u, gr)
            assert rel_residual(out, u) < 1e-9


@pytest.mark.parametrize("t", [2.0, 0.5, 1j])
def test_forward_equivariance(t):
    rng = np.random.default_rng(4)
    for _ in range(20):
        cx = random_graded_complex(rng)
        gr = greens_operator(cx)
        u = random_positive_vector(rng, cx)
        left = kuranishi_forward(cx, circle_action(t, u), gr)
        right = circle_action(t, kuranishi_forward(cx, u, gr))
        assert rel_residual(left, right) < 1e-9


# ---------------------------------------------------------------------------
# graded inverse


def test_inverse_identity_for_zero_bracket():
    dims = {1: (0, 2, 1)}
    cx = GradedComplex((1,), dims, {1: np.zeros((2, 0))}, {1: np.zeros((1, 2))}, {})
    x = {1: np.array([1.0, -2.0])}
    assert rel_residual(kuranishi_inverse_graded(cx, x, greens_operator(cx)), x) < 1e-15


def test_inverse_lowest_grade_copied_exactly():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cx = random_graded_complex(rng)
        x = random_positive_vector(rng, cx)
        u = kuranishi_inverse_graded(cx, x, greens_operator(cx))
        g0 = min(g for g in cx.grades if g > 0)
        assert np.array_equal(u[g0], x[g0])


def test_round_trip_many_random_complexes():
    rng = np.random.default_rng(6)
    for _ in range(100):
        cx = random_graded_complex(rng)
        gr = greens_operator(cx)
        x = random_positive_vector(rng, cx)
        u = kuranishi_inverse_graded(cx, x, gr)
        back = kuranishi_forward(cx, u, gr)
        assert rel_residual(back, x) < 1e-9


@pytest.mark.parametrize("t", [2.0, 0.5, 1j])
def test_inverse_equivariance(t):
    rng = np.random.default_rng(7)
    for _ in range(20):
        cx = random_graded_complex(rng)
        gr = greens_operator(cx)
        x = random_positive_vector(rng, cx)
        left = kuranishi_inverse_graded(cx, circle_action(t, x), gr)
        right = circle_action(t, kuranishi_inverse_graded(cx, x, gr))
        assert rel_residual(left, right) < 1e-9


def test_inverse_locality_under_truncation():
    rng = np.random.default_rng(8)
    for _ in range(20):
        cx = random_graded_complex(rng)
        gr = greens_operator(cx)
        x = random_positive_vector(rng, cx)
        full = kuranishi_inverse_graded(cx, x, gr)
        for j in cx.grades:
            low = {g: a for g, a in x.items() if g <= j}
            trunc = kuranishi_inverse_graded(cx, low, gr)
            assert rel_residual({g: a for g, a in trunc.items() if g <= j},
                                {g: a for g, a in full.items() if g <= j}) < 1e-12


def test_inverse_rejects_nonpositive_support():
    dims = {0: (0, 1, 0), 1: (0, 1, 0)}
    cx = GradedComplex(
        (0, 1), dims,
        {0: np.zeros((1, 0)), 1: np.zeros((1, 0))},
        {0: np.zeros((0, 1)), 1: np.zeros((0, 1))},
        {},
    )
    gr = greens_operator(cx)
    for x in ({0: np.array([1.0]), 1: np.array([1.0])}, {0: np.array([1.0])}):
        with pytest.raises(ValueError, match="positive grades"):
            kuranishi_inverse_graded(cx, x, gr)
    # a zero part at a nonpositive grade is positive support
    u = kuranishi_inverse_graded(cx, {0: np.array([0.0]), 1: np.array([1.0])}, gr)
    assert list(u) == [1] and np.array_equal(u[1], [1.0])


def test_slice_vector_positivity_flag():
    # the three cases of the former SliceVector.is_positive, checked as the
    # positivity gate of kuranishi_inverse_graded
    dims = {g: (0, 1, 0) for g in (0, 1, 2)}
    cx = GradedComplex(
        (0, 1, 2), dims,
        {g: np.zeros((1, 0)) for g in dims},
        {g: np.zeros((0, 1)) for g in dims},
        {},
    )
    gr = greens_operator(cx)
    u = kuranishi_inverse_graded(cx, {1: np.array([1.0])}, gr)
    assert np.array_equal(u[1], [1.0]) and np.array_equal(u[2], [0.0])
    u = kuranishi_inverse_graded(cx, {0: np.array([0.0]), 2: np.array([1.0])}, gr)
    assert 0 not in u and np.array_equal(u[2], [1.0])
    with pytest.raises(ValueError, match="positive grades"):
        kuranishi_inverse_graded(cx, {0: np.array([1.0])}, gr)


# ---------------------------------------------------------------------------
# obstruction and the curvature identity


def test_obstruction_zero_bracket():
    dims = {1: (0, 2, 2)}
    cx = GradedComplex((1,), dims, {1: np.zeros((2, 0))}, {1: np.zeros((2, 2))}, {})
    x = {1: np.array([1.0, 1.0])}
    assert gvec_norm(obstruction(cx, x, greens_operator(cx))) == 0.0


def test_obstruction_orthogonal_bracket():
    rng = np.random.default_rng(9)
    for _ in range(20):
        cx = random_graded_complex(rng)
        gr = greens_operator(cx)
        x = random_positive_vector(rng, cx)
        k = obstruction(cx, x, gr)
        q = quadratic_part(cx, x)
        if gvec_norm(gr.project_harmonic(q)) < 1e-14:
            assert gvec_norm(k) < 1e-12


def test_curvature_identity_on_slice_instances():
    rng = np.random.default_rng(10)
    for _ in range(40):
        cx, u, x = random_slice_instance(rng)
        assert satisfies_slice_conditions(cx, u)
        scale = max(1.0, gvec_norm(u)) ** 2
        k = obstruction(cx, x, greens_operator(cx))
        cur = curvature(cx, u)
        diff = {g: cur.get(g, 0) - k.get(g, 0) for g in set(cur) | set(k)}
        assert gvec_norm(diff) < 1e-9 * scale


def test_greens_d1_identity_everywhere():
    # d1 kappa(u) = d1 u + (I - P) q(u): the operator identity behind the
    # curvature/obstruction match, valid with no slice hypotheses at all
    rng = np.random.default_rng(11)
    for _ in range(30):
        cx = random_graded_complex(rng)
        gr = greens_operator(cx)
        u = random_positive_vector(rng, cx)
        left = d1_apply(cx, kuranishi_forward(cx, u, gr))
        q = quadratic_part(cx, u)
        pq = gr.project_harmonic(q)
        right = gvec_add(d1_apply(cx, u), {g: q[g] - pq[g] for g in q})
        assert rel_residual(left, right) < 1e-9


def test_nilpotent_chain_model_round_trip():
    cx = nilpotent_chain_complex()
    x = {1: np.array([1.0, 2.0]), 2: np.array([0.0, 1.0]), 3: np.array([3.0, -1.0])}
    gr = greens_operator(cx)
    u = kuranishi_inverse_graded(cx, x, gr)
    assert rel_residual(kuranishi_forward(cx, u, gr), x) < 1e-12

