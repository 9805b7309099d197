import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torstab import polytope
from torstab.errors import ZeroVectorError
from torstab.qexact import Lattice, saturated_kernel
from torstab.stability import (
    POLYSTABLE_NOT_STABLE,
    SEMISTABLE_NOT_POLYSTABLE,
    STABLE,
    UNSTABLE,
    StabilityResult,
    _box_points,
    _first_hit,
    classify,
    destabilizer_bruteforce,
    witness_bound,
)
from torstab.torus_rep import RepVector, WeightLine


def vec(weights, amps=None):
    lines = tuple(WeightLine(f"l{i}", tuple(w)) for i, w in enumerate(weights))
    if amps is None:
        amps = {ln.label: 1.0 for ln in lines}
    else:
        amps = {f"l{i}": a for i, a in enumerate(amps)}
    return RepVector(lines, amps)


def test_classify_spec_examples():
    assert classify(vec([(1,), (-1,)])).stability == STABLE
    assert classify(vec([(1, 0), (-1, 0)])).stability == POLYSTABLE_NOT_STABLE
    assert classify(vec([(1,)])).stability == UNSTABLE


def test_classify_semistable_case():
    r = classify(vec([(0, 1), (0, -1), (1, 0)]))
    assert r.stability == SEMISTABLE_NOT_POLYSTABLE
    assert r.verify()


@pytest.mark.parametrize(
    "weights, expected",
    [
        ([(1, 0), (-1, 1), (0, -1)], STABLE),
        ([(1, 0), (-1, 0)], POLYSTABLE_NOT_STABLE),
        ([(0, 1), (0, -1), (1, 0)], SEMISTABLE_NOT_POLYSTABLE),
        ([(1, 0), (2, 1)], UNSTABLE),
    ],
)
def test_classify_solves_relint_lp_once(monkeypatch, weights, expected):
    calls = []
    relint = polytope._relint_lp

    def counted(p, q):
        calls.append(q)
        return relint(p, q)

    monkeypatch.setattr(polytope, "_relint_lp", counted)
    r = classify(vec(weights))
    assert r.stability == expected and r.verify()
    assert len(calls) == 1


def test_classify_zero_vector_rejected():
    with pytest.raises(ZeroVectorError):
        classify(vec([(1,)], amps=[0.0]))


def test_classify_certificates_verify():
    for weights in [
        [(1,), (-1,)],
        [(1, 0), (-1, 0)],
        [(1,)],
        [(0, 1), (0, -1), (1, 0)],
        [(1, 1), (-1, 1), (0, -2)],
        [(2, 3), (5, 1)],
    ]:
        assert classify(vec(weights)).verify()


def test_classify_rank_zero_torus():
    assert classify(vec([()])).stability == STABLE


def test_destabilizer_spec_examples():
    assert destabilizer_bruteforce(vec([(1,), (-1,)]), 5) is None
    assert destabilizer_bruteforce(vec([(1,), (2,)]), 1) == (1,)
    assert destabilizer_bruteforce(vec([(1, 0), (-1, 0)]), 1) == (0, 1)


def test_destabilizer_scan_order():
    # every x with x1 >= 0 works; magnitude-then-positive scan hits (0,1)
    v = vec([(1, 0)])
    assert destabilizer_bruteforce(v, 1) == (0, 1)


def test_stable_implies_empty_kernel():
    r = classify(vec([(1, 0), (-1, 1), (0, -1)]))
    assert r.stability == STABLE
    assert saturated_kernel(r.weights).rank == 0


weight_sets = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8, unique=True
)


@settings(max_examples=100, deadline=None)
@given(weight_sets)
def test_classify_agrees_with_bruteforce(ws):
    v = vec(ws)
    stable = classify(v).stability == STABLE
    witness = destabilizer_bruteforce(v, 50)
    assert stable == (witness is None)
    if witness is not None:
        assert all(sum(a * b for a, b in zip(w, witness)) >= 0 for w in ws)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(
    st.tuples(*([st.integers(-5, 5)] * k)), min_size=1, max_size=7, unique=True)))
def test_unstable_cocharacter_is_primitive_and_separates(ws):
    # independent checks of the unstable certificate (the relint LP's
    # Farkas functional): primitive, pairing >= 1 with every weight, and
    # Unstable exactly when HiGHS finds no convex combination equal to 0
    from scipy.optimize import linprog

    r = classify(vec(ws))
    k = len(ws[0])
    lp = linprog(np.zeros(len(ws)), A_eq=np.vstack([np.array(ws, dtype=float).T, np.ones(len(ws))]),
                 b_eq=[0.0] * k + [1.0], bounds=(0, None), method="highs")
    assert lp.status in (0, 2)
    assert (r.stability == UNSTABLE) == (lp.status == 2)
    if r.stability == UNSTABLE:
        x = r.cocharacter
        assert math.gcd(*x) == 1
        assert all(sum(a * b for a, b in zip(w, x)) >= 1 for w in ws)
        assert r.verify()


@settings(max_examples=60, deadline=None)
@given(weight_sets, st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
def test_classify_invariant_under_torus_rescaling(ws, x):
    v = vec(ws)
    assert classify(v).stability == classify(v.rescale(x)).stability


@settings(max_examples=100, deadline=None)
@given(weight_sets)
def test_certificates_always_verify(ws):
    assert classify(vec(ws)).verify()


def test_verify_rejects_certificate_of_wrong_dimension():
    # a cocharacter or flat lattice of another rank than the weights is a
    # rejected certificate, not an error
    assert not StabilityResult(UNSTABLE, ((1, 2), (1, -5)), cocharacter=(1,)).verify()
    assert not StabilityResult(
        SEMISTABLE_NOT_POLYSTABLE, ((1, 0), (0, 0)), cocharacter=(1, 0, 0)).verify()
    polystable = classify(vec([(1, 0), (-1, 0)]))
    assert polystable.stability == POLYSTABLE_NOT_STABLE and polystable.verify()
    wide = Lattice(3, ((0, 1, 0),))
    assert not dataclasses.replace(polystable, flat_lattice=wide).verify()
    assert not StabilityResult(UNSTABLE, ((1, 2), (1,)), cocharacter=(1, 0)).verify()


@pytest.mark.parametrize(
    "weights, refused",
    [([(2**62, 1), (-(2**62), 1), (0, -1)], True), ([(2**63,), (-1,)], False)],
    ids=["wrap", "int64"],
)
def test_bruteforce_refuses_pairings_beyond_int64(weights, refused):
    # both are stable.  At rank 2, 64-bit pairings would wrap and report
    # (2, 0), so the scan is refused; a rank-1 scan builds no array, so
    # nothing wraps and it answers
    if refused:
        with pytest.raises(ValueError, match="overflow"):
            destabilizer_bruteforce(vec(weights), 5)
    else:
        assert destabilizer_bruteforce(vec(weights), 5) is None


def test_bruteforce_guards_the_bound_it_scans():
    # the pairings are bounded at the bound scanned, min(B, witness bound):
    # 1 at rank 1, and 100 at rank 2 with weights up to 100, however large B is
    assert destabilizer_bruteforce(vec([(2**63 - 1,), (-1,)]), 5) is None
    assert destabilizer_bruteforce(vec([(2**63 - 1,), (1,)]), 5) == (1,)
    assert destabilizer_bruteforce(vec([(1,), (2**70,)]), 5) == (1,)
    v = vec([(100, 1), (-1, 100), (-100, -100)])
    assert destabilizer_bruteforce(v, 2**60) == full_scan(v, 100)
    # rank 2 at B = 1 scans to 1, and largest * k * 1 meets 2**63 at 2**62
    fits = vec([(2**62 - 1, 0), (-1, 1), (0, -1)])
    assert destabilizer_bruteforce(fits, 1) == full_scan(fits, 1)
    with pytest.raises(ValueError, match="overflow .* at bound 1$"):
        destabilizer_bruteforce(vec([(2**62, 0), (-1, 1), (0, -1)]), 1)


def test_bruteforce_rejects_bad_box():
    with pytest.raises(ValueError):
        destabilizer_bruteforce(vec([(1,)]), 0)


def full_scan(v, box_bound):
    """Reference scan: every point of [-B, B]^k in scan order, tested at
    once; the first nonzero x with <w, x> >= 0 for every weight."""
    weights = sorted(v.effective_g_weights())
    k = len(weights[0])
    axis = sorted(range(-box_bound, box_bound + 1), key=lambda c: (abs(c), -c))
    grid = np.meshgrid(*([np.array(axis, dtype=np.int64)] * k), indexing="ij")
    pts = np.stack(grid, axis=-1).reshape(-1, k)
    ok = (pts @ np.array(weights, dtype=np.int64).T >= 0).all(axis=1)
    ok &= (pts != 0).any(axis=1)
    hits = np.flatnonzero(ok)
    return None if hits.size == 0 else tuple(int(c) for c in pts[hits[0]])


@st.composite
def ranked_weight_sets(draw, ranks=(1, 2, 3), lo=-4, hi=4):
    k = draw(st.sampled_from(ranks))
    coords = st.tuples(*[st.integers(lo, hi)] * k)
    return draw(st.lists(coords, min_size=1, max_size=8, unique=True))


@pytest.mark.parametrize("bound", [1, 2, 5, 50])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(ws=ranked_weight_sets())
def test_bruteforce_matches_full_scan(ws, bound):
    v = vec(ws)
    assert destabilizer_bruteforce(v, bound) == full_scan(v, bound)


@st.composite
def first_column_cases(draw):
    """Weight sets whose first column is as drawn, half zero, or of one
    sign, the cases where a grid row's interval of x_1 is open on one side
    or the origin row is the hit."""
    ws = draw(ranked_weight_sets())
    first = draw(st.sampled_from(["drawn", "half zero", "nonnegative", "nonpositive"]))
    if first == "half zero":
        ws = [(0, *w[1:]) if i % 2 else w for i, w in enumerate(ws)]
    elif first != "drawn":
        sign = 1 if first == "nonnegative" else -1
        ws = [(sign * abs(w[0]), *w[1:]) for w in ws]
    return sorted(set(ws))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(first_column_cases(), st.integers(1, 6))
def test_first_hit_matches_full_scan(ws, bound):
    assert _first_hit(ws, bound) == full_scan(vec(ws), bound)


@pytest.mark.parametrize("weights, hit", [
    ([(1,), (2,)], (1,)),
    ([(-3,), (-1,)], (-1,)),
    ([(0,)], (1,)),
    ([(-1,), (0,)], (-1,)),
    ([(-1,), (1,)], None),
    ([(1, 0), (1, 1)], (0, 1)),
    ([(1, 1), (1, -1)], (1, 0)),
    ([(-1, 1), (-1, -1)], (-1, 0)),
    ([(0, 1), (-1, -1)], (-1, 0)),
    ([(1, -1), (-1, 2)], (1, 1)),
])
def test_first_hit_on_the_single_row_grid_and_the_origin_row(weights, hit):
    # rank 1: the grid is the origin alone; at rank 2 the origin row gives
    # (1, 0) when no first entry is negative, else (-1, 0) when none is
    # positive, unless the slice x_1 = 0 holds a hit
    assert _first_hit(weights, 3) == hit == full_scan(vec(weights), 3)


@st.composite
def stable_rank_3_sets(draw):
    """Distinct rank-3 weights spanning R^3 with a zero sum: 0 is interior
    to their hull, so the scan proves the box empty."""
    ws = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=3, max_size=7,
                       unique=True))
    ws.append(tuple(-sum(c) for c in zip(*ws)))
    assume(len(set(ws)) == len(ws) and np.linalg.matrix_rank(np.array(ws)) == 3)
    return sorted(ws)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(stable_rank_3_sets(), st.integers(16, 32))
def test_first_hit_matches_full_scan_on_stable_rank_3_boxes(ws, bound):
    # without its last weight the set is often not stable and hits far out
    assert classify(vec(ws)).stability == STABLE
    assert _first_hit(ws, bound) is None is full_scan(vec(ws), bound)
    assert _first_hit(ws[:-1], bound) == full_scan(vec(ws[:-1]), bound)


# the rank-3 stable weight sets of the seed-1 stability-routes benchmark
# workload, whose witness bounds are 16 to 32
ROUTES_RANK_3_STABLE = [
    [(-2, 1, -2), (1, 1, -3), (1, 2, 4), (2, -1, -2), (2, -1, 0), (3, -2, 4)],
    [(-4, -3, -4), (-4, 4, -4), (-3, -4, 4), (0, -4, -2), (3, -3, 1), (3, -2, -2), (3, 2, 0),
     (3, 3, 2), (3, 3, 3)],
    [(-4, 3, 4), (-3, -2, 3), (-1, -2, -1), (0, -3, -3), (2, 4, 4), (3, -4, -3), (3, 2, 4),
     (4, 4, 1)],
    [(-4, 3, 2), (-1, -3, -1), (-1, 0, 2), (-1, 4, 3), (2, -4, 2), (2, 1, 3), (4, -2, -4)],
    [(-4, -4, -3), (-4, 4, -1), (-1, -4, 3), (-1, 3, 0), (0, -2, 3), (1, -4, 2), (2, -4, 2),
     (3, -2, -3), (3, 0, -4), (4, 0, -1)],
    [(-4, 2, 4), (-2, -1, 2), (-2, 2, 4), (-1, -4, 1), (1, -3, 2), (1, 4, -2)],
    [(-4, -4, 3), (-4, -3, 2), (-4, -2, -2), (-1, 0, -1), (0, 1, -3), (2, 0, 0), (2, 0, 2),
     (3, 4, 0), (4, -2, -4)],
    [(-3, 1, 2), (1, -4, 4), (2, -1, -2), (3, 2, 4), (3, 4, 0)],
]


@pytest.mark.parametrize("ws", ROUTES_RANK_3_STABLE)
def test_first_hit_matches_full_scan_on_the_routes_stable_sets(ws):
    bound = witness_bound(ws)
    assert 16 <= bound <= 32 and classify(vec(ws)).stability == STABLE
    assert _first_hit(ws, bound) is None is full_scan(vec(ws), bound)
    for i in range(len(ws)):
        rest = ws[:i] + ws[i + 1:]
        assert _first_hit(rest, bound) == full_scan(vec(rest), bound)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ranked_weight_sets())
def test_witness_bound_box_holds_a_witness(ws):
    # a vector that is not stable has a witness inside the bound's box
    v = vec(ws)
    if classify(v).stability != STABLE:
        assert full_scan(v, witness_bound(ws)) is not None


def test_witness_bound_examples():
    assert witness_bound([(5,), (-3,)]) == 1
    assert witness_bound([(5, -7), (1, 0)]) == 7
    # 2x2 minor 3*3 - (-2)*2 = 13 beats every entry
    assert witness_bound([(3, 2, 0), (-2, 3, 0)]) == 13
    # rank 4: isqrt of the product of the three largest squared norms
    assert witness_bound([(1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)]) == 2
    assert witness_bound([()]) == 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-4, 4)] * 4), min_size=1, max_size=8, unique=True))
def test_witness_bound_dominates_minors_at_rank_4(ws):
    w = np.array(ws, dtype=float)
    largest = 0.0
    for size in (1, 2, 3):
        for rows in itertools.combinations(range(len(ws)), size):
            for cols in itertools.combinations(range(4), size):
                largest = max(largest, abs(np.linalg.det(w[np.ix_(rows, cols)])))
    assert witness_bound(ws) >= round(largest)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.one_of(ranked_weight_sets(), ranked_weight_sets(ranks=(4,), lo=-1, hi=1)),
    st.sampled_from([1, 2, 5, 8, 50]),
)
def test_sound_box_decides_stability(ws, bound):
    # box_sound: a witness exists in the box exactly when v is not stable
    v = vec(ws)
    if len(ws[0]) == 4:
        bound = min(bound, 8)
    if witness_bound(ws) <= bound:
        stable = classify(v).stability == STABLE
        assert (destabilizer_bruteforce(v, bound) is None) == stable


@pytest.mark.parametrize(
    "weights, witness",
    [
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], None),
        # witness bound 60 > 50: the whole 50-box is scanned
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (60, 0, 1)], None),
        ([(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (-60, 0, 0)], (-1, 0, 0)),
    ],
    ids=["stable", "stable-whole-box", "witness-whole-box"],
)
def test_bruteforce_memory_at_rank_3(weights, witness):
    if witness is None:
        assert classify(vec(weights)).stability == STABLE
    _box_points.cache_clear()
    tracemalloc.start()
    try:
        assert destabilizer_bruteforce(vec(weights), 50) == witness
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
