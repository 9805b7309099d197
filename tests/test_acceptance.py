"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line; any failure is a hard test failure.

Budgets are wall-clock on the test machine.  All randomness is seeded.
"""

import math
import time
from itertools import product

import numpy as np

from torstab.graded_kuranishi import (
    GradedComplex,
    greens_operator,
    gvec_norm,
    kuranishi_forward,
    kuranishi_inverse_graded,
    random_graded_complex,
)
from torstab.kempf_ness import (
    CONVERGED,
    KNProblem,
    kn_eval,
    kn_minimize,
)
from torstab.shb_model import (
    CONVENTIONS,
    PartitionP,
    SHBSpec,
    StableBlock,
    automorphism_torus,
    conformal_degree_table,
    cyclic_phi_weights,
    expected_dim_central_locus,
    partition_dim,
    slice_vector,
    _rg_partitions,
)
from torstab.stability import STABLE, classify, destabilizer_bruteforce
from torstab.stratify import stratify, verify_decomposition
from torstab.torus_rep import RepVector, Subtorus, WeightLine


def _report(n, name, detail=""):
    print(f"ACCEPTANCE {n} ({name}): PASS {detail}")


def _circle_action(t, a):
    """The grading circle action: grade-j parts pick up t^j."""
    return {g: (t ** g) * arr for g, arr in a.items()}


def _random_rep(rng):
    rank = int(rng.integers(1, 4))
    m = int(rng.integers(1, 11))
    lines, seen = [], set()
    for i in range(m):
        w = tuple(int(x) for x in rng.integers(-4, 5, size=rank))
        seen.add(w)
        lines.append(WeightLine(f"l{i}", w))
    amps = {ln.label: complex(rng.normal(), rng.normal()) for ln in lines}
    return RepVector(tuple(lines), amps)


def test_criterion_1_stability_triequivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20240501)
    disagreements = 0
    for _ in range(500):
        v = _random_rep(rng)
        cls = classify(v)
        stable_hull = cls.stability == STABLE
        stable_brute = destabilizer_bruteforce(v, 50) is None
        stable_kn = kn_minimize(KNProblem.from_vector(v), cls).status == CONVERGED
        if not (stable_hull == stable_brute == stable_kn):
            disagreements += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, "stability tri-equivalence", f"500 instances in {elapsed:.1f}s")


def test_criterion_2_closed_form_kempf_ness():
    lines = (WeightLine("a", (1,)), WeightLine("b", (-1,)))
    cls = classify(RepVector(lines, {"a": 1.0, "b": 1.0}))
    res = kn_minimize(KNProblem(weights=((1,), (-1,)), log_norms2=(math.log(4.0), 0.0)), cls)
    assert res.status == CONVERGED
    assert abs(res.minimizer[0] - (-math.log(2) / 2)) < 1e-8
    assert abs(res.value - 4.0) < 1e-8
    _report(2, "closed-form Kempf-Ness minimum")


def test_criterion_3_worked_stratifications():
    u1 = RepVector(
        (WeightLine("a", (1,), rho=1), WeightLine("b", (-1,), rho=2)),
        {"a": 1.0, "b": 1.0},
    )
    r1 = stratify(u1)
    assert (tuple(r1.x), r1.sigma, r1.num_stages) == ((1,), 2, 1)
    assert r1.d_ladder == (3,)
    assert r1.residual_labels == ()

    u2 = RepVector(
        (
            WeightLine("z", (0,), rho=1),
            WeightLine("a", (1,), rho=1),
            WeightLine("b", (-1,), rho=3),
        ),
        {"z": 1.0, "a": 1.0, "b": 1.0},
    )
    r2 = stratify(u2)
    assert r2.stages[0].c == 2
    assert (tuple(r2.x), r2.sigma) == ((1,), 1)
    assert r2.d_ladder == (2,)
    assert r2.exponents["z"] == 1
    _report(3, "worked stratification examples")


def _random_stable_graded(rng):
    rank = int(rng.integers(1, 3))
    while True:
        m = int(rng.integers(rank + 1, 8))
        lines = []
        for i in range(m):
            w = tuple(int(x) for x in rng.integers(-3, 4, size=rank))
            lines.append(WeightLine(f"l{i}", w, rho=int(rng.integers(1, 5))))
        if len({(ln.weight, ln.rho) for ln in lines}) < len(lines):
            continue
        amps = {ln.label: complex(rng.normal(), rng.normal()) for ln in lines}
        v = RepVector(tuple(lines), amps)
        if classify(v.restrict(Subtorus.full(rank))).stability == STABLE:
            return v


def test_criterion_4_stratification_postconditions():
    start = time.monotonic()
    rng = np.random.default_rng(20240502)
    for _ in range(200):
        u = _random_stable_graded(rng)
        res = stratify(u)
        rep = verify_decomposition(res, u)
        assert rep.all_ok, rep.checks
        assert res.num_stages <= u.rank + 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(4, "stratification postconditions", f"200 instances in {elapsed:.1f}s")


def test_criterion_5_dimension_formulas():
    for r, g in product((2, 3, 4), (2, 3)):
        assert expected_dim_central_locus(r, g) == (r * r - 1) * (g - 1)

    def rank_multisets(total_max):
        out = []

        def rec(rest, min_part, acc):
            if acc:
                out.append(tuple(acc))
            for p in range(min_part, rest + 1):
                rec(rest - p, p, acc + [p])

        rec(total_max, 1, [])
        return [m for m in out if sum(m) <= total_max and len(m) >= 2]

    checked = 0
    for ranks in rank_multisets(8):
        k = len(ranks)
        for parts in _rg_partitions(range(k)):
            p = PartitionP(tuple(map(tuple, parts)))
            if p.is_trivial:
                continue
            for g in (2, 3, 4):
                dim = partition_dim(p, ranks, g)
                assert dim < expected_dim_central_locus(sum(ranks), g), (ranks, parts, g)
                checked += 1
    # every proper set partition: Bell(k) - 1 of them, at each genus
    bell = (1, 1, 2, 5, 15, 52, 203, 877, 4140)
    assert checked == 3 * sum(bell[len(r)] - 1 for r in rank_multisets(8))
    _report(5, "dimension formulas", f"{checked} proper partitions")


def _block_of_rank(r, tag):
    if r == 1:
        return StableBlock((1,), (0,), tag=tag)
    return StableBlock((1, r - 1), (1, -1), tag=tag)


def test_criterion_6_cyclic_phi_stability():
    checked = 0
    for k in range(2, 6):
        for ranks in product((1, 2, 3), repeat=k):
            shb = SHBSpec(2, tuple(_block_of_rank(r, f"b{i}") for i, r in enumerate(ranks)))
            _, verdict = cyclic_phi_weights(shb)
            assert verdict.stability == STABLE, ranks
            checked += 1
    _report(6, "cyclic Higgs-direction stability", f"{checked} rank patterns")


def test_criterion_7_kuranishi_round_trip():
    start = time.monotonic()
    rng = np.random.default_rng(20240503)
    for _ in range(100):
        cx = random_graded_complex(rng, grades=(1, 2, 3, 4), max_dim=5)
        assert sum(cx.n1(g) + cx.n2(g) + cx.dims[g][0] for g in cx.grades) <= 60
        x = {
            g: rng.normal(size=cx.n1(g)) + 1j * rng.normal(size=cx.n1(g))
            for g in cx.grades
        }
        gr = greens_operator(cx)
        u = kuranishi_inverse_graded(cx, x, gr)
        back = kuranishi_forward(cx, u, gr)
        num = gvec_norm({g: back[g] - x[g] for g in x})
        assert num < 1e-9 * max(1.0, gvec_norm(x))
        for t in (2.0, 0.5, 1j):
            left = kuranishi_inverse_graded(cx, _circle_action(t, x), gr)
            right = _circle_action(t, u)
            err = gvec_norm({g: left[g] - right[g] for g in x})
            assert err < 1e-9 * max(1.0, gvec_norm(right))
    # trivial bracket: the identity holds exactly
    dims = {1: (0, 3, 2)}
    cx0 = GradedComplex(
        (1,), dims, {1: np.zeros((3, 0))}, {1: np.zeros((2, 3))}, {}
    )
    x0 = {1: np.array([1.0, -2.0, 3.0j])}
    gr0 = greens_operator(cx0)
    assert np.array_equal(kuranishi_inverse_graded(cx0, x0, gr0)[1], x0[1])
    assert np.array_equal(kuranishi_forward(cx0, x0, gr0)[1], x0[1])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(7, "graded Kuranishi round trip", f"100 complexes in {elapsed:.1f}s")


def _shb_cases():
    return [
        SHBSpec(2, (StableBlock((1,), (0,), "L1"), StableBlock((1,), (0,), "L2"))),
        SHBSpec(
            2,
            (
                StableBlock((1,), (0,), "L1"),
                StableBlock((1,), (0,), "L2"),
                StableBlock((1, 1), (1, -1)),
            ),
        ),
        SHBSpec(3, (StableBlock((1, 1), (2, -2), "A"), StableBlock((2,), (0,), "B"))),
        SHBSpec(
            2,
            (
                StableBlock((1, 2), (1, -1), "A"),
                StableBlock((1,), (0,), "B"),
                StableBlock((1,), (0,), "C"),
            ),
        ),
    ]


def test_criterion_8_conformal_degree_bridge():
    paired = 0
    for shb in _shb_cases():
        torus = automorphism_torus(shb)
        for conv in CONVENTIONS:
            cyc, verdict = cyclic_phi_weights(shb, conv)
            assert verdict.stability == STABLE
            u = slice_vector(shb, {lab: 1.0 for lab in cyc.amplitudes}, conv)
            res = stratify(u, torus=torus.subtorus)
            table = conformal_degree_table(shb, res.x, res.sigma, conv)
            for lab, e in res.exponents.items():
                deg = table.degree_of_label(lab)
                if lab.startswith("phi"):
                    assert deg == 2 * e - 2 * res.sigma
                else:
                    assert deg == 2 * e
            removed = set()
            for st in res.stages:
                removed.update(st.nu_labels)
                for lab in res.exponents:
                    if lab in removed:
                        continue
                    deg = table.degree_of_label(lab)
                    if lab.startswith("phi"):
                        assert deg >= 2 * st.d - 2 * res.sigma
                    else:
                        assert deg >= 2 * st.d
                removed.update(st.s_labels)
            paired += 1
    _report(8, "conformal-degree bridge", f"{paired} stratification/table pairs")


def test_criterion_9_kn_calculus():
    rng = np.random.default_rng(20240504)
    p = KNProblem(
        weights=((1, 2), (-1, 0), (0, -3), (2, -1), (-2, 2)),
        log_norms2=tuple(map(math.log, (1.0, 2.0, 0.5, 1.5, 1.0))),
    )
    h = 1e-6
    for _ in range(100):
        x = rng.uniform(-1.2, 1.2, size=2)
        value, grad, hess = kn_eval(p, x)
        fd_grad = np.zeros(2)
        fd_hess = np.zeros((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd_grad[i] = (kn_eval(p, x + e)[0] - kn_eval(p, x - e)[0]) / (2 * h)
            fd_hess[:, i] = (kn_eval(p, x + e)[1] - kn_eval(p, x - e)[1]) / (2 * h)
        assert np.linalg.norm(grad - fd_grad) < 1e-6 * max(1.0, np.linalg.norm(fd_grad))
        assert np.linalg.norm(hess - fd_hess) < 1e-5 * max(1.0, np.linalg.norm(fd_hess))
    _report(9, "Kempf-Ness calculus vs finite differences")
