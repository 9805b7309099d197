#!/usr/bin/env python3
"""End-to-end demo: stratify the worked rank-1 examples, then run the full
Hodge-bundle pipeline (automorphism torus, positive slice, cyclic stable
vector, stratification, conformal degree table) on a three-block system.

    python scripts/stratify_demo.py

Exits 1 when a bridge identity fails; the check is explicit, so it also
runs under python -O.
"""

import sys

from torstab.shb_model import (
    SHBSpec,
    StableBlock,
    automorphism_torus,
    conformal_degree_table,
    cyclic_phi_weights,
    expected_dim_central_locus,
    slice_vector,
)
from torstab.stratify import stratify, verify_decomposition
from torstab.torus_rep import RepVector, WeightLine


def show(result):
    print(f"  x = {list(result.x)}, sigma = {result.sigma}, stages = {result.num_stages}")
    for st in result.stages:
        print(
            f"  stage {st.index}: c = {st.c}, d = {st.d}, "
            f"S = {list(st.s_labels)}, nu = {list(st.nu_labels)}"
        )
    print(f"  residual: {list(result.residual_labels)}")
    print(f"  exponents: {result.exponents}")


def main():
    print("== worked example: two lines, weights +1/-1, rho 1/2")
    u = RepVector(
        (WeightLine("a", (1,), rho=1), WeightLine("b", (-1,), rho=2)),
        {"a": 1.0, "b": 1.0},
    )
    res = stratify(u)
    show(res)
    print(f"  verification all-ok: {verify_decomposition(res, u).all_ok}")

    print("== worked example: three lines with a fixed component")
    u3 = RepVector(
        (
            WeightLine("z", (0,), rho=1),
            WeightLine("a", (1,), rho=1),
            WeightLine("b", (-1,), rho=3),
        ),
        {"z": 1.0, "a": 1.0, "b": 1.0},
    )
    show(stratify(u3))

    print("== Hodge-bundle system: two line blocks plus a rank-2 chain")
    shb = SHBSpec(
        2,
        (
            StableBlock((1,), (0,), tag="L1"),
            StableBlock((1,), (0,), tag="L2"),
            StableBlock((1, 1), (1, -1)),
        ),
    )
    print(f"  total rank {shb.total_rank}, expected central-locus dim "
          f"{expected_dim_central_locus(shb.total_rank, shb.genus)}")
    torus = automorphism_torus(shb)
    print(f"  automorphism torus rank {torus.rank}, relation {torus.relation_character}")
    cyc, verdict = cyclic_phi_weights(shb)
    print(f"  cyclic Higgs vector: {verdict.stability}")
    u = slice_vector(shb, {lab: 1.0 for lab in cyc.amplitudes})
    res = stratify(u, torus=torus.subtorus)
    show(res)
    table = conformal_degree_table(shb, res.x, res.sigma)
    degs = {lab: table.degree_of_label(lab) for lab in res.exponents}
    print(f"  conformal degrees of effective classes: {degs}")
    wrong = []
    for lab, e in res.exponents.items():
        expected = 2 * e - 2 * res.sigma if lab.startswith("phi") else 2 * e
        if degs[lab] != expected:
            wrong.append(f"{lab}: degree {degs[lab]}, expected {expected}")
    if wrong:
        print("  bridge identities FAIL: " + "; ".join(wrong))
        return 1
    print("  bridge identities hold exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
