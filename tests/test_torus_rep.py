import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torstab.qexact import Lattice, dot
from torstab.torus_rep import RepVector, Subtorus, WeightLine


def rep(*lines, amps):
    return RepVector(tuple(lines), dict(amps))


# the part of a vector that a subtorus fixes: the reference the stratify
# tests hold verify_decomposition's bookkeeping to


def project_labels(v: RepVector, labels) -> RepVector:
    keep = frozenset(labels)
    amps = {
        ln.label: (v.amplitude(ln.label) if ln.label in keep else 0.0)
        for ln in v.lines
    }
    return RepVector(v.lines, amps)


def fixed_part(v: RepVector, h: Subtorus) -> RepVector:
    """Components whose torus weight vanishes on the subtorus; the
    grading circle is excluded from the fixing condition."""
    if h.parent_rank != v.rank:
        raise ValueError("subtorus of wrong rank")
    return project_labels(
        v, (ln.label for ln in v.lines if not any(h.restrict(ln.weight)))
    )


def test_effective_weights_drops_zero_components():
    v = rep(
        WeightLine("a", (1, 0)),
        WeightLine("b", (0, 1)),
        amps={"a": 1.0, "b": 0.0},
    )
    assert v.effective_g_weights() == frozenset({(1, 0)})


def test_effective_weights_zero_vector():
    v = rep(WeightLine("a", (1,)), amps={"a": 0.0})
    assert v.effective_g_weights() == frozenset()
    assert v.is_zero()


def test_effective_weights_set_semantics():
    v = rep(
        WeightLine("a", (2,)),
        WeightLine("b", (2,)),
        amps={"a": 1.0, "b": 0.0},
    )
    assert v.effective_g_weights() == frozenset({(2,)})


def test_project_examples():
    v = rep(
        WeightLine("a", (1, 0)),
        WeightLine("b", (0, 1)),
        amps={"a": 1.0, "b": 2.0},
    )
    assert project_labels(v, ["a", "b"]).amplitudes == v.amplitudes
    assert project_labels(v, []).is_zero()
    picked = project_labels(v, ["b"])
    assert picked.amplitude("a") == 0 and picked.amplitude("b") == 2.0


def test_fixed_part_examples():
    v = rep(
        WeightLine("a", (0, 0)),
        WeightLine("b", (1, -1)),
        amps={"a": 1.0, "b": 1.0},
    )
    whole = fixed_part(v, Subtorus.full(2))
    assert whole.amplitude("a") == 1.0 and whole.amplitude("b") == 0.0
    trivial = fixed_part(v, Subtorus(2, Lattice(2, ())))
    assert trivial.amplitudes == v.amplitudes


def test_fixed_part_graded_excludes_rho():
    v = rep(
        WeightLine("a", (1,), rho=1),
        WeightLine("b", (0,), rho=1),
        amps={"a": 1.0, "b": 1.0},
    )
    fixed = fixed_part(v, Subtorus.full(1))
    assert fixed.amplitude("a") == 0.0 and fixed.amplitude("b") == 1.0


def test_restrict_examples():
    v = rep(WeightLine("a", (2, -2), rho=3), amps={"a": 1.0})
    ident = v.restrict(Subtorus.full(2))
    assert ident.lines[0].weight == (2, -2) and ident.lines[0].rho == 3
    trivial = v.restrict(Subtorus(2, Lattice(2, ())))
    assert trivial.lines[0].weight == ()
    # pairing of (2,-2) against the basis vector (1,1) vanishes
    sub = v.restrict(Subtorus.kernel_of([(1, -1)], rank=2))
    assert sub.lines[0].weight == (0,)


def test_one_ps_exponents_examples():
    v = rep(WeightLine("a", (1,), rho=1), amps={"a": 1.0})
    assert v.one_ps_exponents((1,), 2) == {"a": 3}
    w = rep(WeightLine("a", (-1,), rho=2), amps={"a": 1.0})
    assert w.one_ps_exponents((1,), 2) == {"a": 3}
    u = rep(
        WeightLine("a", (3,), rho=2),
        WeightLine("b", (-1,), rho=5),
        amps={"a": 1.0, "b": 1.0},
    )
    assert u.one_ps_exponents((0,), 1) == {"a": 2, "b": 5}


def test_integer_data_stays_int():
    # exponents and restricted weights are serialized, so they must be ints
    # even when x arrives as integral Fractions
    v = rep(WeightLine("a", (3, -1), rho=2), amps={"a": 1.0})
    exps = v.one_ps_exponents((Fraction(2), Fraction(-4, 2)), 1)
    assert exps == {"a": 10} and type(exps["a"]) is int
    sub = v.restrict(Subtorus.kernel_of([(1, 1)], rank=2))
    assert all(type(c) is int for c in sub.lines[0].weight)


def test_one_ps_exponents_rejects_nonintegral():
    v = rep(WeightLine("a", (1,), rho=1), amps={"a": 1.0})
    with pytest.raises(ValueError):
        v.one_ps_exponents((Fraction(1, 2),), 2)


def test_rep_validation():
    with pytest.raises(ValueError):
        rep(WeightLine("a", (1,)), amps={"zzz": 1.0})
    with pytest.raises(ValueError):
        rep(WeightLine("a", (1,)), WeightLine("a", (2,)), amps={})
    with pytest.raises(ValueError):
        WeightLine("a", (1,), norm2=0.0)


@pytest.mark.parametrize("weight, rho", [((1,), 1.0), ((1.0,), 1), ((1, 0.5), None)])
def test_weight_line_refuses_non_integer_weight_or_rho(weight, rho):
    # a float weight or rho would reach the exact layers and come out of
    # stratify as float exponents
    with pytest.raises(ValueError, match="line 'a'"):
        WeightLine("a", weight, rho=rho)


weights2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
amp = st.sampled_from([0.0, 1.0, -2.0, 0.5 + 1.5j])


@st.composite
def rep_vectors(draw):
    n = draw(st.integers(1, 6))
    lines = tuple(
        WeightLine(f"l{i}", draw(weights2), rho=draw(st.integers(1, 4)))
        for i in range(n)
    )
    amps = {ln.label: draw(amp) for ln in lines}
    return RepVector(lines, amps)


labels = st.sets(st.sampled_from([f"l{i}" for i in range(6)]), max_size=6)


@settings(max_examples=80, deadline=None)
@given(rep_vectors(), labels, labels)
def test_project_intersection_identity(v, s1, s2):
    a = project_labels(project_labels(v, s1), s2)
    b = project_labels(v, s1 & s2)
    assert a.amplitudes == b.amplitudes


@settings(max_examples=80, deadline=None)
@given(rep_vectors(), labels)
def test_project_idempotent_and_support(v, s):
    p = project_labels(v, s)
    assert project_labels(p, s).amplitudes == p.amplitudes
    assert {ln.label for ln in p.effective_lines()} <= s


@settings(max_examples=80, deadline=None)
@given(rep_vectors(), st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       st.integers(1, 3), st.integers(1, 3))
def test_one_ps_exponents_additive(v, x1, x2, s1, s2):
    e1 = v.one_ps_exponents(x1, s1)
    e2 = v.one_ps_exponents(x2, s2)
    x12 = tuple(a + b for a, b in zip(x1, x2))
    e12 = v.one_ps_exponents(x12, s1 + s2)
    assert e12 == {k: e1[k] + e2[k] for k in e1}


@settings(max_examples=50, deadline=None)
@given(rep_vectors())
def test_fixed_part_pairs_to_zero(v):
    h = Subtorus.kernel_of([(1, 1)], rank=2)
    fixed = fixed_part(v, h)
    for ln in fixed.effective_lines():
        assert all(dot(ln.weight, b) == 0 for b in h.basis)


@st.composite
def kernel_subtori(draw):
    rank = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * rank)
    chars = draw(st.lists(vec, min_size=1, max_size=3))
    return Subtorus.kernel_of(chars, rank), chars


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kernel_subtori(), st.data())
def test_restrict_and_lift_are_adjoint(case, data):
    # <w, h.lift(z)> = <h.restrict(w), z>: restriction is the transpose of
    # the lift, and it kills exactly the characters that cut h out
    h, chars = case
    w = data.draw(st.tuples(*[st.integers(-5, 5)] * h.parent_rank))
    z = data.draw(st.tuples(*[st.integers(-5, 5)] * h.dim))
    lifted = h.lift(z)
    assert len(lifted) == h.parent_rank and len(h.restrict(w)) == h.dim
    assert dot(w, lifted) == dot(h.restrict(w), z)
    for c in chars:
        assert not any(h.restrict(c))


@pytest.mark.parametrize(
    "amplitude, weight",
    [(1e-300, 1000), (1e-300 * (0.6 + 0.8j), 1000), (1e300, -1000), (-1e300j, -1000)],
)
def test_rescale_beyond_the_range_of_exp(amplitude, weight):
    # s = <w, x> = +-1030: e^s is no float, but a e^s = |a| e^s (about
    # 1e+-147) is, and keeps the phase of a
    v = RepVector((WeightLine("a", (weight,)),), {"a": amplitude})
    got = v.rescale((1.03,)).amplitude("a")
    log_r = math.log(abs(amplitude)) + weight * 1.03
    assert abs(log_r) > 300 and math.isfinite(abs(got)) and got != 0
    assert math.log(abs(got)) == pytest.approx(log_r, rel=1e-13)
    assert cmath.phase(got) == pytest.approx(cmath.phase(amplitude), abs=1e-15)
