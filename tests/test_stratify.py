import dataclasses
import importlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torstab.kempf_ness as kempf_ness
import torstab.polytope as polytope
from torstab.errors import NotStableError, ZeroVectorError
from torstab.kempf_ness import CONVERGED, FLAT_DIRECTIONS
from torstab.qexact import Lattice, dot
from torstab.stability import POLYSTABLE_NOT_STABLE, STABLE, classify
from torstab.stratify import stage_kn_minimizers, stratify, verify_decomposition
from torstab.torus_rep import RepVector, Subtorus, WeightLine

from test_torus_rep import fixed_part, project_labels


def graded(spec, amps=None):
    """spec: list of (label, weight tuple, rho)."""
    lines = tuple(WeightLine(lab, tuple(w), rho=r) for lab, w, r in spec)
    if amps is None:
        amps = {ln.label: 1.0 for ln in lines}
    return RepVector(lines, amps)


def two_line_example():
    return graded([("a", (1,), 1), ("b", (-1,), 2)])


def three_line_example():
    return graded([("z", (0,), 1), ("a", (1,), 1), ("b", (-1,), 3)])


# ---------------------------------------------------------------------------
# worked examples (hand-computed, cross-checked by one_ps_exponents)


def test_worked_example_rank1():
    res = stratify(two_line_example())
    assert res.num_stages == 1
    st = res.stages[0]
    assert st.c == Fraction(3, 2)
    assert st.x_stage == (Fraction(1, 2),)
    assert res.sigma == 2
    assert res.x == (1,)
    assert st.d == 3
    assert res.residual_labels == ()
    assert res.exponents == {"a": 3, "b": 3}
    # exponents re-derived from the one-parameter subgroup itself
    assert two_line_example().one_ps_exponents(res.x, res.sigma) == res.exponents


def test_worked_example_three_lines():
    res = stratify(three_line_example())
    assert res.num_stages == 1
    st = res.stages[0]
    assert st.c == Fraction(2)
    assert res.sigma == 1
    assert res.x == (1,)
    assert st.d == 2
    assert st.nu_labels == ("z",)
    assert res.exponents["z"] == 1  # nu exponent sits below d_0 = 2
    assert res.exponents["a"] == 2 and res.exponents["b"] == 2
    assert res.residual_labels == ()


def test_trivial_torus_degenerate():
    u = graded([("a", (), 2), ("b", (), 3)])
    res = stratify(u)
    assert res.num_stages == 0
    assert res.x == ()
    assert res.sigma == 1
    assert res.residual_labels == ("a", "b")
    assert res.exponents == {"a": 2, "b": 3}


def test_trivial_subtorus_of_positive_rank():
    u = graded([("a", (1,), 2), ("b", (2,), 3)])
    res = stratify(u, torus=Subtorus(1, Lattice(1, ())))
    assert res.num_stages == 0
    assert res.x == (0,)
    assert res.exponents == {"a": 2, "b": 3}


# ---------------------------------------------------------------------------
# preconditions and failure reporting


def test_rejects_zero_vector():
    u = graded([("a", (1,), 1)], amps={"a": 0.0})
    with pytest.raises(ZeroVectorError):
        stratify(u)


def test_rejects_unstable_with_certificate():
    u = graded([("a", (1,), 1), ("b", (2,), 1)])
    with pytest.raises(NotStableError) as exc:
        stratify(u)
    assert exc.value.result is not None
    assert exc.value.result.verify()


def test_rejects_rho_below_one():
    u = graded([("a", (1,), 0), ("b", (-1,), 1)])
    with pytest.raises(ValueError, match="rho"):
        stratify(u)


def test_rejects_ungraded():
    u = RepVector((WeightLine("a", (1,)),), {"a": 1.0})
    with pytest.raises(ValueError):
        stratify(u)


# ---------------------------------------------------------------------------
# verification and determinism


def test_verify_decomposition_passes_on_worked_example():
    u = two_line_example()
    rep = verify_decomposition(stratify(u), u)
    assert rep.all_ok, _failed(rep)


def test_verify_decomposition_catches_tampering():
    u = two_line_example()
    res = stratify(u)
    bad_stage = res.stages[0].__class__(
        **{**res.stages[0].__dict__, "d": res.stages[0].d - 1}
    )
    tampered = res.__class__(**{**res.__dict__, "stages": (bad_stage,)})
    rep = verify_decomposition(tampered, u)
    assert not rep.all_ok
    assert any("projection-exponent" in name for name in _failed(rep))


def _result_fingerprint(res):
    return json.dumps(
        {
            "x": res.x,
            "sigma": res.sigma,
            "stages": [
                {
                    "c": str(st.c),
                    "x": [str(v) for v in st.x_stage],
                    "nu": st.nu_labels,
                    "s": st.s_labels,
                    "d": st.d,
                }
                for st in res.stages
            ],
            "residual": res.residual_labels,
            "exponents": res.exponents,
        },
        sort_keys=True,
    )


def test_stratify_deterministic():
    u = graded(
        [("a", (1, 0), 1), ("b", (-1, 0), 2), ("c", (0, 1), 1),
         ("d", (0, -1), 3), ("e", (1, 1), 2)]
    )
    assert _result_fingerprint(stratify(u)) == _result_fingerprint(stratify(u))


def test_equal_dim_stop_gives_zero_residual():
    res = stratify(two_line_example())
    st = res.stages[-1]
    assert st.dim_hull == st.dim_projected_hull
    assert res.residual_labels == ()


def test_sigma_multiple_option():
    res = stratify(two_line_example(), sigma_multiple=3)
    assert res.sigma == 6
    assert res.x == (3,)
    assert res.stages[0].d == 9
    with pytest.raises(ValueError, match="sigma_multiple"):
        stratify(two_line_example(), sigma_multiple=0)


def test_two_stage_chain_hand_checked():
    # four axis lines in rank 2: the rho-axis slice of the first hull is
    # [1, 3/2], so S_0 = the first weight pair at c_0 = 1; the slack rule
    # pins x_0 = (0, 1/2) inside the strict window (0, 1); after shearing,
    # the second pair sits level at c_1 = 3/2, so sigma = 2 and d = (2, 3)
    u = graded(
        [
            ("l0", (1, 0), 1),
            ("l1", (-1, 0), 1),
            ("l2", (0, 1), 1),
            ("l3", (0, -1), 2),
        ]
    )
    res = stratify(u)
    assert res.num_stages == 2
    assert res.sigma == 2
    assert res.x == (0, 1)
    assert res.d_ladder == (2, 3)
    s0, s1 = res.stages
    assert s0.c == 1 and s0.s_labels == ("l0", "l1") and s0.nu_labels == ()
    assert s0.x_stage == (Fraction(0), Fraction(1, 2))
    assert s1.c == Fraction(3, 2) and s1.s_labels == ("l2", "l3")
    assert s1.x_stage == (Fraction(0), Fraction(0))
    assert [t.dim for t in res.tori] == [2, 1, 0]
    # the intermediate torus is the second coordinate axis
    assert s1.torus.basis in (((0, 1),), ((0, -1),))
    assert res.exponents == {"l0": 2, "l1": 2, "l2": 3, "l3": 3}
    assert res.residual_labels == ()
    assert verify_decomposition(res, u).all_ok


# ---------------------------------------------------------------------------
# randomized postconditions


def random_stable_graded(rng, rank, n_lines):
    """Rejection-sample a G-stable graded vector with rho in [1, 4]."""
    while True:
        lines = []
        for i in range(n_lines):
            w = tuple(int(rng.integers(-3, 4)) for _ in range(rank))
            lines.append(WeightLine(f"l{i}", w, rho=int(rng.integers(1, 5))))
        labels = {ln.label for ln in lines}
        if len({(ln.weight, ln.rho) for ln in lines}) < len(lines):
            continue
        amps = {ln.label: complex(rng.normal(), rng.normal()) for ln in lines}
        v = RepVector(tuple(lines), amps)
        if classify(v.restrict(Subtorus.full(rank))).stability == STABLE:
            return v


@pytest.mark.parametrize("rank", [1, 2])
def test_random_inputs_pass_verification(rank):
    rng = np.random.default_rng(7 + rank)
    for _ in range(25):
        u = random_stable_graded(rng, rank, int(rng.integers(rank + 1, 7)))
        res = stratify(u)
        rep = verify_decomposition(res, u)
        assert rep.all_ok, (u, _failed(rep))
        assert res.num_stages <= rank + 1


def test_stage_kn_minimizers_worked_example():
    u = graded([("a", (1,), 1), ("b", (-1,), 2)],
               amps={"a": 2.0, "b": 1.0})
    res = stratify(u)
    [(kn, rescaled)] = stage_kn_minimizers(res)
    # closed form: minimize 4 e^{2x} + e^{-2x}
    assert kn.status == CONVERGED
    assert kn.minimizer[0] == pytest.approx(-np.log(2) / 2, abs=1e-8)
    assert set(rescaled) == {"a", "b"}


def test_stage_kn_minimizers_symmetric_zero():
    res = stratify(two_line_example())
    [(kn, _)] = stage_kn_minimizers(res)
    assert kn.status == CONVERGED
    assert abs(kn.minimizer[0]) < 1e-9


def test_stage_kn_minimizers_flat_stage():
    # two weight-zero-sum pairs on orthogonal axes: stage projections can be
    # polystable-not-stable under the stage torus
    u = graded(
        [("a", (1, 0), 1), ("b", (-1, 0), 1), ("c", (0, 1), 1), ("d", (0, -1), 2)]
    )
    res = stratify(u)
    outs = stage_kn_minimizers(res)
    assert all(kn.status in (CONVERGED, FLAT_DIRECTIONS) for kn, _ in outs)


# ---------------------------------------------------------------------------
# each stage's classification is decided once and reused


def two_stage_example():
    return graded(
        [("l0", (1, 0), 1), ("l1", (-1, 0), 1), ("l2", (0, 1), 1), ("l3", (0, -1), 2)]
    )


def test_stage_classification_decided_once(monkeypatch):
    classify_calls, relint_calls, lp_calls = [], [], []
    relint = polytope._relint_lp
    solve_lp = polytope.solve_lp

    def counted_classify(v):
        classify_calls.append(v)
        return classify(v)

    def counted_relint(p, q):
        relint_calls.append(q)
        return relint(p, q)

    # the package re-exports the function stratify under the module's name
    stratify_mod = importlib.import_module("torstab.stratify")
    for module in (stratify_mod, kempf_ness):
        if hasattr(module, "classify"):
            monkeypatch.setattr(module, "classify", counted_classify)
    monkeypatch.setattr(polytope, "_relint_lp", counted_relint)
    monkeypatch.setattr(
        polytope, "solve_lp", lambda *a: lp_calls.append(a) or solve_lp(*a))

    u = two_stage_example()
    res = stratify(u)
    assert verify_decomposition(res, u).all_ok
    outs = stage_kn_minimizers(res)
    assert res.num_stages == 2
    assert [kn.status for kn, _ in outs] == [FLAT_DIRECTIONS, CONVERGED]
    # the input is classified once; each stage reads its classification off
    # its face certificate, so no relint LP runs after the input's
    assert (len(classify_calls), len(relint_calls)) == (1, 1)
    # the input's relint LP, then per stage one ray LP and the face LPs
    assert len(lp_calls) == 4
    assert [st.projection.stability for st in res.stages] == [
        POLYSTABLE_NOT_STABLE, STABLE]


def _with_stage(res, i, **changes):
    stages = list(res.stages)
    stages[i] = dataclasses.replace(stages[i], **changes)
    return dataclasses.replace(res, stages=tuple(stages))


def _failed(rep):
    return [name for name, ok, _ in rep.checks if not ok]


def test_verify_rejects_certificate_of_other_weights():
    u = two_stage_example()
    res = stratify(u)
    s0, s1 = res.stages
    swapped = _with_stage(res, 0, projection=s1.projection)
    assert _failed(verify_decomposition(swapped, u)) == ["stage0-polystable"]


def three_weight_line():
    # one stage, whose face weights -1, 1, 2 sum to 0 also with a negative
    # coefficient
    return graded([("a", (-1,), 1), ("b", (1,), 1), ("c", (2,), 1)])


F = Fraction


@pytest.mark.parametrize("make_u, i, weights, combination", [
    (two_stage_example, 1, ((-1,), (1,)), (F(1), F(0))),
    (two_stage_example, 1, ((-1,), (1,)), (F(1, 4), F(1, 4))),
    (three_weight_line, 0, ((-1,), (1,), (2,)), (F(3, 8), F(7, 8), F(-1, 4))),
    (two_stage_example, 1, ((-1,), (1,)), (F(1, 3), F(2, 3))),
], ids=["zero-coefficient", "sum-half", "negative-coefficient", "nonzero-point"])
def test_verify_rejects_forged_combination(make_u, i, weights, combination):
    u = make_u()
    res = stratify(u)
    proj = res.stages[i].projection
    assert proj.stability == STABLE and proj.weights == weights
    forged = dataclasses.replace(proj, combination=combination)
    tampered = _with_stage(res, i, projection=forged)
    assert _failed(verify_decomposition(tampered, u)) == [f"stage{i}-polystable"]


def test_verify_rejects_a_face_label_among_nu():
    # a2 shares a's point, so S_0 keeps its weights without a2; a2 in nu_0
    # has the stage's exponent, above 0, but G_0 moves it
    u = graded([("a", (1,), 1), ("a2", (1,), 1), ("b", (-1,), 2)])
    res = stratify(u)
    s0 = res.stages[0]
    assert s0.s_labels == ("a", "a2", "b") and s0.nu_labels == ()
    tampered = _with_stage(res, 0, s_labels=("a", "b"), nu_labels=("a2",))
    assert _failed(verify_decomposition(tampered, u)) == ["stage0-nu-fixed"]


def test_verify_rejects_a_next_torus_that_moves_the_projection():
    u = two_stage_example()
    res = stratify(u)
    assert res.stages[0].s_labels == ("l0", "l1")
    # the first coordinate axis moves l0 and l1, of weights (1, 0), (-1, 0)
    axis = Subtorus.kernel_of([(0, 1)], 2)
    tampered = dataclasses.replace(res, tori=(res.tori[0], axis, *res.tori[2:]))
    assert _failed(verify_decomposition(tampered, u)) == ["stage0-projection-fixed-by-next"]


def test_verify_fails_a_label_that_is_not_effective():
    # z0 has amplitude 0, so it has no exponent: naming it in a bucket
    # fails the bucket's bound and the exact sum instead of raising
    u = graded([("z0", (0,), 1), ("a", (1,), 1), ("b", (-1,), 2)],
               {"z0": 0.0, "a": 1.0, "b": 1.0})
    res = stratify(u)
    tampered = _with_stage(res, 0, nu_labels=("z0",))
    report = verify_decomposition(tampered, u)
    assert _failed(report) == ["stage0-nu-bound", "exact-sum-decomposition"]
    details = {name: detail for name, _, detail in report.checks}
    assert "not effective in u: ['z0']" in details["stage0-nu-bound"]


@st.composite
def stable_graded_under_subtorus(draw):
    """A graded vector of rank 1-3 with rho in [1, 4] and, half the time, a
    subtorus cut out by random characters; kept when stable under that
    torus.  Its weights come in opposite pairs, so 0 is a positive
    combination of them and pairs crossing the rho-axis low give
    lower-dimensional faces and more stages, plus a few free weights."""
    rank = draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    pairs = draw(st.lists(st.tuples(*[coord] * rank), min_size=rank, max_size=rank + 1))
    weights = [w for v in pairs for w in (v, tuple(-c for c in v))]
    weights += draw(st.lists(st.tuples(*[coord] * rank), max_size=2))
    rhos = draw(st.lists(st.integers(1, 4), min_size=len(weights), max_size=len(weights)))
    u = graded([(f"l{i}", w, r) for i, (w, r) in enumerate(zip(weights, rhos))])
    torus = None
    if draw(st.booleans()):
        chars = draw(st.lists(st.tuples(*[coord] * rank), max_size=rank - 1))
        torus = Subtorus.kernel_of(chars, rank)
    assume(classify(u.restrict(torus or Subtorus.full(rank))).stability == STABLE)
    return u, torus


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stable_graded_under_subtorus())
def test_stage_projection_matches_classify(case):
    u, torus = case
    res = stratify(u, torus=torus)
    for stage in res.stages:
        proj = project_labels(u, stage.s_labels).restrict(stage.torus)
        expected = classify(proj)
        got = stage.projection
        assert (got.stability, got.weights, got.flat_lattice) == (
            expected.stability, expected.weights, expected.flat_lattice)
        assert got.verify()
    assert verify_decomposition(res, u).all_ok


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stable_graded_under_subtorus(), st.integers(1, 3))
def test_sigma_and_x_clear_the_summed_cocharacter(case, multiple):
    # Fraction reference: sigma is the multiple times the least positive
    # integer clearing the summed x_stage and every line's rho + <w, sum>
    u, torus = case
    res = stratify(u, torus=torus, sigma_multiple=multiple)
    total = [Fraction(0)] * u.rank
    for stage in res.stages:
        total = [a + b for a, b in zip(total, stage.x_stage)]
    sheared = [ln.rho + sum(w * t for w, t in zip(ln.weight, total))
               for ln in u.effective_lines()]
    least = math.lcm(*(Fraction(v).denominator for v in [*total, *sheared]))
    assert res.sigma == multiple * least
    assert res.x == tuple(res.sigma * t for t in total)
    assert all(type(c) is int for c in (res.sigma, *res.x))


# ---------------------------------------------------------------------------
# the stability precondition, read off stage 0 when its face weights span


def test_stable_input_is_classified_only_when_stage_0_does_not_span(monkeypatch):
    calls = []
    # the package re-exports the function stratify under the module's name
    stratify_mod = importlib.import_module("torstab.stratify")
    monkeypatch.setattr(stratify_mod, "classify", lambda v: calls.append(v) or classify(v))
    assert stratify(two_line_example()).num_stages == 1
    assert len(calls) == 0
    assert stratify(two_stage_example()).num_stages == 2
    assert len(calls) == 1
    with pytest.raises(NotStableError):
        stratify(graded([("a", (1,), 1), ("b", (2,), 1)]))
    assert len(calls) == 2


@st.composite
def graded_under_subtorus(draw):
    """A graded vector of rank 1-3 with rho in [1, 4], weights in [-3, 3]^k,
    half the time closed under negation, and some amplitudes 0; and, half
    the time, a subtorus cut out by random characters, of any dimension.
    Stable or not."""
    rank = draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    weights = draw(st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=4))
    if draw(st.booleans()):
        weights += [tuple(-c for c in w) for w in weights]
    n = len(weights)
    rhos = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    amps = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5]), min_size=n, max_size=n))
    assume(any(amps))
    u = graded(
        [(f"l{i}", w, r) for i, (w, r) in enumerate(zip(weights, rhos))],
        {f"l{i}": a for i, a in enumerate(amps)},
    )
    torus = None
    if draw(st.booleans()):
        chars = draw(st.lists(st.tuples(*[coord] * rank), max_size=rank))
        torus = Subtorus.kernel_of(chars, rank)
    return u, torus


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graded_under_subtorus())
def test_stratify_rejects_exactly_what_classify_rejects(case):
    u, torus = case
    expected = classify(u.restrict(torus or Subtorus.full(u.rank)))
    try:
        res = stratify(u, torus=torus)
    except NotStableError as exc:
        assert expected.stability != STABLE
        assert exc.result == expected
        assert str(exc) == f"input vector is {expected.stability}, not stable"
    else:
        assert expected.stability == STABLE
        assert verify_decomposition(res, u).all_ok


def _stage_points(u, res, i):
    """Stage i's points (G_i-part, sheared rho), recomputed from u."""
    stage = res.stages[i]
    done = set(stage.nu_labels)
    shift = (0,) * u.rank
    for prev in res.stages[:i]:
        done |= set(prev.nu_labels) | set(prev.s_labels)
        shift = tuple(a + b for a, b in zip(shift, prev.x_stage))
    return sorted({
        tuple(dot(ln.weight, b) for b in stage.torus.basis) + (ln.rho + dot(ln.weight, shift),)
        for ln in u.effective_lines()
        if ln.label not in done
    })


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stable_graded_under_subtorus())
def test_stage_hull_dimensions_match_polytope_dim(case):
    u, torus = case
    res = stratify(u, torus=torus)
    for i, stage in enumerate(res.stages):
        pts = _stage_points(u, res, i)
        projected = [p[:-1] for p in pts]
        assert stage.dim_hull == polytope.PolytopeQ.from_points(pts).dim()
        assert stage.dim_projected_hull == polytope.PolytopeQ.from_points(projected).dim()


# ---------------------------------------------------------------------------
# the stage bookkeeping against RepVector's projections and restrictions


def reference_labels(u, res):
    """Each stage's nu and face labels, re-derived through project_labels
    and fixed_part: nu_n is the G_n-fixed part of what is left, and S_n the
    rest whose sheared rho is c_n under x_0 + ... + x_n."""
    left = {ln.label for ln in u.effective_lines()}
    shift = (0,) * u.rank
    out = []
    for stage in res.stages:
        u_n = project_labels(u, left)
        nu = tuple(sorted(ln.label for ln in fixed_part(u_n, stage.torus).effective_lines()))
        shift = tuple(a + b for a, b in zip(shift, stage.x_stage))
        face = tuple(sorted(
            ln.label for ln in project_labels(u_n, left - set(nu)).effective_lines()
            if ln.rho + dot(ln.weight, shift) == stage.c
        ))
        out.append((nu, face))
        left -= set(nu) | set(face)
    return out


def reference_stage_checks(res, u):
    """verify_decomposition's per-stage checks as RepVector computes them."""
    out = {}
    for i, stage in enumerate(res.stages):
        nu_vec = project_labels(u, stage.nu_labels)
        out[f"stage{i}-nu-fixed"] = (
            fixed_part(nu_vec, stage.torus).amplitudes == nu_vec.amplitudes)
        proj = project_labels(u, stage.s_labels)
        out[f"stage{i}-projection-fixed-by-next"] = (
            fixed_part(proj, res.tori[i + 1]).amplitudes == proj.amplitudes)
        weights = tuple(sorted(proj.restrict(stage.torus).effective_g_weights()))
        pcls = stage.projection
        out[f"stage{i}-polystable"] = (
            pcls.weights == weights and pcls.verify()
            and pcls.stability in (STABLE, POLYSTABLE_NOT_STABLE))
    return out


@st.composite
def stable_graded_with_zeros(draw):
    """stable_graded_under_subtorus, plus zero-amplitude lines of any
    weight, and some of its own lines set to 0 while u stays stable."""
    u, torus = draw(stable_graded_under_subtorus())
    coord = st.integers(-3, 3)
    extra = draw(st.lists(st.tuples(st.tuples(*[coord] * u.rank), st.integers(1, 4)),
                          max_size=3))
    lines = u.lines + tuple(WeightLine(f"z{i}", w, rho=r) for i, (w, r) in enumerate(extra))
    amps = dict(u.amplitudes)
    for ln in u.lines:
        if draw(st.integers(0, 4)) == 0:
            amps[ln.label] = 0.0
    v = RepVector(lines, amps)
    assume(not v.is_zero())
    assume(classify(v.restrict(torus or Subtorus.full(u.rank))).stability == STABLE)
    return v, torus


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stable_graded_with_zeros(), st.integers(0, 2))
def test_stage_bookkeeping_matches_repvector_reference(case, tamper):
    u, torus = case
    res = stratify(u, torus=torus)
    assert [(s.nu_labels, s.s_labels) for s in res.stages] == reference_labels(u, res)
    for (kn, rescaled), stage in zip(stage_kn_minimizers(res), res.stages):
        proj = project_labels(u, stage.s_labels).restrict(stage.torus)
        want = {}
        if kn.minimizer is not None:
            want = proj.rescale(kn.minimizer).amplitudes
        assert rescaled == want
    # the checks also agree on a result tampered with: a face label listed
    # in nu_0, or G_0 as every next torus
    if res.stages and tamper == 1:
        s0 = res.stages[0]
        res = _with_stage(res, 0, s_labels=s0.s_labels[1:],
                          nu_labels=s0.nu_labels + s0.s_labels[:1])
    elif tamper == 2:
        res = dataclasses.replace(res, tori=(res.tori[0],) * len(res.tori))
    rep = verify_decomposition(res, u)
    expected = reference_stage_checks(res, u)
    assert {name: ok for name, ok, _ in rep.checks if name in expected} == expected
