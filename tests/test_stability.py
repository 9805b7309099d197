import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torstab import polytope
from torstab.errors import ZeroVectorError
from torstab.qexact import saturated_kernel
from torstab.stability import (
    POLYSTABLE_NOT_STABLE,
    SEMISTABLE_NOT_POLYSTABLE,
    STABLE,
    UNSTABLE,
    classify,
    destabilizer_bruteforce,
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


@settings(max_examples=60, deadline=None)
@given(weight_sets, st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
def test_classify_invariant_under_torus_rescaling(ws, x):
    v = vec(ws)
    assert classify(v).stability == classify(v.rescale(x)).stability


@settings(max_examples=100, deadline=None)
@given(weight_sets)
def test_certificates_always_verify(ws):
    assert classify(vec(ws)).verify()


def test_bruteforce_rejects_bad_box():
    with pytest.raises(ValueError):
        destabilizer_bruteforce(vec([(1,)]), 0)
