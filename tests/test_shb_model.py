import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torstab.shb_model as shb_model
from torstab.cli import run_document
from torstab.errors import TorstabError
from torstab.qexact import dot
from torstab.shb_model import (
    CONVENTIONS,
    DEFAULT,
    MAX_PARTITION_BLOCKS,
    PartitionP,
    SHBSpec,
    StableBlock,
    _merges,
    _pattern_poset,
    automorphism_torus,
    class_label,
    conformal_degree_table,
    cyclic_phi_weights,
    expected_dim_central_locus,
    partition_dim,
    partitions_with_order,
    positive_slice_lines,
    slice_vector,
)
from torstab.stability import STABLE
from torstab.stratify import stratify, verify_decomposition


def line_block(tag):
    return StableBlock((1,), (0,), tag=tag)


def two_line_shb(g=2):
    return SHBSpec(g, (line_block("L1"), line_block("L2")))


def hitchin_rank2(g=2):
    # K^{1/2} + K^{-1/2} with the tautological Higgs map
    return SHBSpec(g, (StableBlock((1, 1), (g - 1, 1 - g)),))


def index_classes(shb):
    """All Hom-index classes ((cod block, cod hodge), (dom block, dom hodge)),
    cod block outermost, then dom block, cod hodge and dom hodge."""
    return [((p, a), (q, b))
            for p, bp in enumerate(shb.blocks, start=1)
            for q, bq in enumerate(shb.blocks, start=1)
            for a in range(1, bp.hodge_length + 1)
            for b in range(1, bq.hodge_length + 1)]


def class_weight_data(cod, dom, k, convention):
    """(ambient torus weight, beta circle weight) of an index class: the
    convention's rule written out class by class, as the reference for the
    library's class table."""
    (p, a), (q, b) = cod, dom
    w = [0] * k
    if convention == DEFAULT:
        w[p - 1] += 1
        w[q - 1] -= 1
        rho_beta = b - a
    else:
        w[q - 1] += 1
        w[p - 1] -= 1
        rho_beta = a - b
    return tuple(w), rho_beta


def reference_classes(shb, conv):
    """(cod, dom, torus weight, beta weight) per index class, each weight
    from class_weight_data."""
    return [(cod, dom, *class_weight_data(cod, dom, shb.k, conv))
            for cod, dom in index_classes(shb)]


# a legal degree vector per Hodge length
CHAIN_DEGREES = {1: (0,), 2: (1, -1), 3: (2, 0, -2)}


# ---------------------------------------------------------------------------
# block/spec invariants


def test_block_invariants():
    with pytest.raises(ValueError):
        StableBlock((1, 1), (0, 0))  # chain needs strict first/last degrees
    with pytest.raises(ValueError):
        StableBlock((1,), (1,))  # single block must have degree zero
    with pytest.raises(ValueError):
        StableBlock((1, 1), (1, 0))  # degrees must sum to zero
    with pytest.raises(ValueError):
        StableBlock((0,), (0,))
    blk = StableBlock((2, 1), (1, -1))
    assert blk.rank == 3 and blk.hodge_length == 2


def test_abelian_flag_is_data_distinctness():
    assert two_line_shb().abelian
    same = SHBSpec(2, (line_block("L"), line_block("L")))
    assert not same.abelian


# ---------------------------------------------------------------------------
# automorphism torus


def test_automorphism_torus_examples():
    t = automorphism_torus(two_line_shb())
    assert t.rank == 1
    assert t.relation_character == (1, 1)
    assert all(dot((1, 1), b) == 0 for b in t.subtorus.basis)
    assert t.subtorus.restrict((1, -1)) in ((2,), (-2,))

    shb3 = SHBSpec(
        2, (line_block("a"), line_block("b"), StableBlock((1, 1), (1, -1)))
    )
    t3 = automorphism_torus(shb3)
    assert t3.rank == 2
    assert t3.relation_character == (1, 1, 2)
    assert all(dot((1, 1, 2), b) == 0 for b in t3.subtorus.basis)

    single = SHBSpec(2, (StableBlock((1, 1), (1, -1)),))
    assert automorphism_torus(single).rank == 0


def test_automorphism_torus_rejects_nonabelian():
    with pytest.raises(TorstabError):
        automorphism_torus(SHBSpec(2, (line_block("x"), line_block("x"))))


# ---------------------------------------------------------------------------
# positive slice


def test_positive_slice_two_line_blocks():
    shb = two_line_shb()
    lines = positive_slice_lines(shb)
    labels = {ln.label for ln in lines}
    assert labels == {
        "phi[1.1|1.1]", "phi[1.1|2.1]", "phi[2.1|1.1]", "phi[2.1|2.1]",
    }
    assert all(ln.rho == 1 for ln in lines)
    t = automorphism_torus(shb)
    restricted = {
        ln.label: t.subtorus.restrict(ln.weight) for ln in lines
    }
    off = sorted(v[0] for k, v in restricted.items() if "1.1|2.1" in k or "2.1|1.1" in k)
    assert off == [-2, 2]
    assert restricted["phi[1.1|1.1]"] == (0,)


def test_positive_slice_single_block_trivial_torus():
    shb = SHBSpec(2, (StableBlock((1, 1), (1, -1)),))
    lines = positive_slice_lines(shb)
    assert all(ln.weight == (0,) for ln in lines)
    assert all(ln.rho >= 1 for ln in lines)


def test_positive_slice_hitchin_sanity():
    # the quadratic-differential direction (last summand into the first)
    # must land in the positive slice with circle weight 2
    lines = {ln.label: ln for ln in positive_slice_lines(hitchin_rank2())}
    assert lines["phi[1.1|1.2]"].rho == 2
    # the Higgs-parallel direction is circle-fixed, hence absent
    assert "phi[1.2|1.1]" not in lines
    # diagonal phi classes are present at rho = 1
    assert lines["phi[1.1|1.1]"].rho == 1


def test_positive_slice_no_nonpositive_rho():
    for conv in CONVENTIONS:
        shb = SHBSpec(
            3, (StableBlock((1, 2), (2, -2), tag="A"), line_block("B"))
        )
        for ln in positive_slice_lines(shb, conv):
            assert ln.rho >= 1


def test_slice_vector_rejects_unknown_label():
    with pytest.raises(KeyError):
        slice_vector(two_line_shb(), {"nope": 1.0})


# ---------------------------------------------------------------------------
# dimension formulas


def test_expected_dim_paper_values():
    assert expected_dim_central_locus(2, 2) == 3
    assert expected_dim_central_locus(3, 2) == 8
    assert expected_dim_central_locus(2, 3) == 6


def test_partition_dim_examples():
    p = PartitionP(((0,), (1,)))
    assert partition_dim(p, (1, 1), 2) == 0

    triv = PartitionP(((0, 1),))
    assert partition_dim(triv, (1, 1), 2) == 3 == expected_dim_central_locus(2, 2)

    p3 = PartitionP(((0, 1), (2,)))
    assert partition_dim(p3, (1, 1, 1), 2) == 3
    assert partition_dim(PartitionP(((0, 1, 2),)), (1, 1, 1), 2) == 8


@st.composite
def partition_table_systems(draw):
    """One rank-1 block, or 2-5 blocks that repeat or are pairwise distinct."""
    shape = draw(st.sampled_from(["one rank-1 block", "repeated", "distinct"]))
    if shape == "one rank-1 block":
        return SHBSpec(draw(st.integers(2, 4)), (line_block("a"),))
    k = draw(st.integers(2, 5))
    if shape == "repeated":
        kinds = draw(st.integers(1, k - 1))
        picks = draw(st.permutations([i % kinds for i in range(k)]))
        blocks = tuple(KINDS[p] for p in picks)
    else:
        blocks = tuple(draw(st.permutations(KINDS))[:k])
    return SHBSpec(draw(st.integers(2, 4)), blocks)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(partition_table_systems())
def test_partition_table_is_strictly_below_central_off_the_one_part_row(shb):
    payload = {"genus": shb.genus,
               "blocks": [{"ranks": list(b.ranks), "degrees": list(b.degrees), "tag": b.tag}
                          for b in shb.blocks]}
    report, code = run_document({"schema_version": "1", "kind": "shb", "payload": payload})
    assert code == 0
    rows = report["report"]["partition_table"]
    assert [row["parts"] for row in rows] == [
        [list(part) for part in p.parts] for p in partitions_with_order(shb).partitions]
    for row in rows:
        assert row["strictly_below_central"] == (len(row["parts"]) > 1)
        parts = PartitionP(tuple(map(tuple, row["parts"])))
        assert row["dim"] == partition_dim(parts, shb.block_ranks(), shb.genus)


def test_partitions_counts_and_order():
    two = partitions_with_order(two_line_shb())
    assert len(two.partitions) == 2
    assert [p.is_trivial for p in two.partitions].count(True) == 1

    shb3 = SHBSpec(
        2,
        (line_block("a"), line_block("b"), StableBlock((1, 1), (1, -1))),
    )
    three = partitions_with_order(shb3)
    assert len(three.partitions) == 5
    # the one trivial partition is above every other
    (top,) = [i for i, p in enumerate(three.partitions) if p.is_trivial]
    assert {(top, i) for i in range(5) if i != top} <= three.order

    one = partitions_with_order(SHBSpec(2, (line_block("a"),)))
    assert len(one.partitions) == 1


def test_partitions_dedupe_identical_blocks():
    # three identical blocks: partitions up to symmetry = integer partitions of 3
    shb = SHBSpec(2, (line_block("x"),) * 3)
    poset = partitions_with_order(shb)
    assert len(poset.partitions) == 3  # {3}, {2,1}, {1,1,1}


def test_partitions_distinct_blocks_bell_numbers():
    # pairwise-distinct blocks: no deduplication, so the count is Bell(k),
    # up to the documented cap
    bell = (1, 2, 5, 15, 52, 203, 877, 4140)
    for k, count in enumerate(bell, start=1):
        shb = SHBSpec(2, tuple(line_block(f"b{i}") for i in range(k)))
        assert len(partitions_with_order(shb).partitions) == count


def refines(finer, coarser):
    return all(
        any(set(p) <= set(cp) for cp in coarser.parts) for p in finer.parts
    )


def eager_order(shb, parts):
    """Strict-coarsening pairs between the deduplicated partitions, by a
    double loop over the raw set partitions of each class."""

    def signature(p):
        keys = [(b.ranks, b.degrees, b.tag) for b in shb.blocks]
        return tuple(sorted(tuple(sorted(keys[i] for i in part)) for part in p.parts))

    classes = {}
    for raw in set_partitions(list(range(shb.k))):
        # set_partitions sorts the items of each part, not the parts
        p = PartitionP(tuple(sorted(map(tuple, raw))))
        classes.setdefault(signature(p), []).append(p)
    order = set()
    for ia, pa in enumerate(parts):
        for ib, pb in enumerate(parts):
            if ia != ib and any(
                refines(pb, cand) and pb != cand for cand in classes[signature(pa)]
            ):
                order.add((ia, ib))
    return frozenset(order)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


@pytest.mark.parametrize(
    "blocks",
    [
        (line_block("x"), line_block("x"), StableBlock((1, 1), (1, -1)), line_block("x")),
        tuple(line_block(f"b{i}") for i in range(4)),
    ],
    ids=["repeated", "distinct"],
)
def test_partitions_lazy_order_matches_eager(blocks):
    shb = SHBSpec(2, blocks)
    poset = partitions_with_order(shb)
    assert "order" not in vars(poset)
    assert poset.order == eager_order(shb, poset.partitions)


def stirling2(n, j):
    if n == j:
        return 1
    if j == 0 or j > n:
        return 0
    return j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)


def test_partitions_distinct_blocks_order_size():
    # with distinct blocks a partition into j parts has Bell(j) - 1 strict
    # coarsenings, one per set partition of its parts that merges two
    def bell(j):
        return sum(stirling2(j, i) for i in range(j + 1))

    for n in range(1, 9):
        shb = SHBSpec(2, tuple(line_block(f"b{i}") for i in range(n)))
        expected = sum(stirling2(n, j) * (bell(j) - 1) for j in range(1, n + 1))
        assert len(partitions_with_order(shb).order) == expected
    assert expected == 163_754


def test_partitions_cap():
    shb = SHBSpec(2, tuple(line_block(f"b{i}") for i in range(9)))
    with pytest.raises(TorstabError):
        partitions_with_order(shb)


def rgs_set_partitions(n):
    """All set partitions of range(n) in restricted-growth order: those of
    range(n - 1) in that order, each followed by n - 1 placed in each of its
    parts in turn and then in a part of its own."""
    if n == 0:
        yield []
        return
    for smaller in rgs_set_partitions(n - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [n - 1]] + smaller[i + 1:]
        yield smaller + [[n - 1]]


@pytest.mark.parametrize("n", range(7))
def test_merges_are_the_set_partitions_that_merge_parts(n):
    # every set partition of n parts with fewer than n parts, listed once;
    # the order of the list is free, since PartitionPoset.order is a set
    want = {tuple(map(tuple, m)) for m in rgs_set_partitions(n) if len(m) < n}
    got = _merges(n)
    assert len(got) == len(set(got)) and set(got) == want


def bell_first_hits(shb):
    """The reference classes: every one of the Bell(k) set partitions in
    restricted-growth order, keeping the first of each class."""
    keys = [(b.ranks, b.degrees, b.tag) for b in shb.blocks]
    reps = {}
    for parts in rgs_set_partitions(shb.k):
        signature = tuple(sorted(tuple(sorted(keys[i] for i in part)) for part in parts))
        reps.setdefault(signature, PartitionP(tuple(map(tuple, parts))))
    return tuple(reps.values())


KINDS = (line_block("a"), line_block("b"), StableBlock((1, 1), (1, -1)),
         StableBlock((2, 1), (2, -2)), StableBlock((1, 1, 1), (1, 0, -1)), line_block("c"),
         StableBlock((1,), (0,)), StableBlock((2, 2), (1, -1)))


@st.composite
def block_multisets(draw):
    k = draw(st.integers(1, MAX_PARTITION_BLOCKS))
    kinds = draw(st.integers(1, k))
    picks = [i % kinds for i in range(k)]
    return SHBSpec(2, tuple(KINDS[p] for p in draw(st.permutations(picks))))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(block_multisets())
def test_partition_classes_are_the_first_set_partition_of_each_class(shb):
    assert partitions_with_order(shb).partitions == bell_first_hits(shb)


def count_partitions_built(monkeypatch) -> list:
    """The PartitionP objects built from here on, in order."""
    built = []
    post_init = PartitionP.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PartitionP, "__post_init__", counting)
    return built


def test_partition_classes_are_built_once_each(monkeypatch):
    _pattern_poset.cache_clear()
    built = count_partitions_built(monkeypatch)
    shb = SHBSpec(2, tuple(KINDS[i % 2] for i in (0, 1, 1, 0, 0, 1, 0)))
    poset = partitions_with_order(shb)
    assert len(poset.partitions) == 57
    assert built == list(poset.partitions)


def test_a_shared_pattern_builds_no_partition_again(monkeypatch):
    # the same multiplicities in the same places, with other ranks, degrees,
    # tags and genus: one data-id pattern, so one poset
    first = SHBSpec(2, (KINDS[0], KINDS[1], KINDS[1], KINDS[0], KINDS[2]))
    second = SHBSpec(4, (KINDS[3], KINDS[4], KINDS[4], KINDS[3], KINDS[7]))
    _pattern_poset.cache_clear()
    poset = partitions_with_order(first)
    built = count_partitions_built(monkeypatch)
    again = partitions_with_order(second)
    assert built == []
    assert again.partitions == poset.partitions and again.ids == poset.ids
    assert again.partitions == bell_first_hits(second)


def test_shb_report_is_the_same_from_a_cold_and_a_warm_cache():
    blocks = [{"ranks": [1] * n, "degrees": list(CHAIN_DEGREES[n]), "tag": f"t{i}"}
              for i, n in enumerate((1, 2, 3, 1, 2))]
    doc = {"schema_version": "1", "kind": "shb",
           "payload": {"genus": 3, "blocks": blocks, "x": [1, 0, -2, 2, -1], "sigma": 2}}
    _pattern_poset.cache_clear()
    cold = run_document(doc)
    assert _pattern_poset.cache_info().currsize == 1
    warm = run_document(doc)
    assert cold[1] == 0 and json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)


def test_the_partition_cache_is_bounded():
    maxsize = _pattern_poset.cache_info().maxsize
    assert maxsize == shb_model.PARTITION_CACHE_SIZE
    # every data-id pattern of 1-6 blocks: Bell(1) + ... + Bell(6) = 278
    patterns = [pattern for n in range(1, 7) for pattern in rgs_set_partitions(n)]
    assert len(patterns) > maxsize
    _pattern_poset.cache_clear()
    for pattern in patterns:
        ids = {i: j for j, part in enumerate(pattern) for i in part}
        partitions_with_order(SHBSpec(2, tuple(KINDS[ids[i]] for i in sorted(ids))))
    assert _pattern_poset.cache_info().currsize == maxsize


def test_shb_run_solves_the_automorphism_torus_once(monkeypatch):
    calls = []
    solve = shb_model.automorphism_torus

    def counting(shb):
        calls.append(shb)
        return solve(shb)

    monkeypatch.setattr(shb_model, "automorphism_torus", counting)
    payload = {"genus": 2, "blocks": [{"ranks": [1], "degrees": [0], "tag": t}
                                      for t in ("a", "b", "c")], "x": [1, 0, -1]}
    report, code = run_document({"schema_version": "1", "kind": "shb", "payload": payload})
    assert code == 0
    assert "cyclic_phi" in report["report"] and "automorphism_torus" in report["report"]
    assert len(calls) == 1


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_conformal_degrees_pair_the_class_weight_with_x(conv):
    shb = SHBSpec(2, (line_block("a"), StableBlock((1, 1), (1, -1)),
                      StableBlock((1, 1, 1), (1, 0, -1))))
    x, sigma = (2, -1, 3), 2
    table = conformal_degree_table(shb, x, sigma, conv)
    for cod, dom, w, rho_beta in reference_classes(shb, conv):
        assert table.degree(cod, dom) == 2 * sigma * rho_beta + 2 * dot(w, x)


@st.composite
def distinct_block_systems(draw):
    k = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    blocks = tuple(StableBlock((1,) * n, CHAIN_DEGREES[n], tag=f"b{i}")
                   for i, n in enumerate(lengths))
    x = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    return SHBSpec(2, blocks), x, draw(st.integers(1, 3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(distinct_block_systems(), st.sampled_from(CONVENTIONS))
def test_slice_and_degree_table_match_the_class_by_class_weights(system, conv):
    shb, x, sigma = system
    ref = reference_classes(shb, conv)
    lines = [(ln.label, ln.weight, ln.rho) for ln in positive_slice_lines(shb, conv)]
    want = []
    for cod, dom, w, rho_beta in ref:
        if rho_beta >= 1:
            want.append((class_label("beta", cod, dom), w, rho_beta))
        if rho_beta >= 0:
            want.append((class_label("phi", cod, dom), w, rho_beta + 1))
    assert lines == want
    table = conformal_degree_table(shb, x, sigma, conv)
    assert list(table.entries.items()) == [
        ((cod, dom), 2 * sigma * rho_beta + 2 * dot(w, x)) for cod, dom, w, rho_beta in ref]


# ---------------------------------------------------------------------------
# cyclic Higgs construction


def test_cyclic_phi_spec_examples():
    v, verdict = cyclic_phi_weights(two_line_shb())
    assert verdict.stability == STABLE
    assert sorted(w[0] for w in v.effective_g_weights()) == [-2, 2]

    shb3 = SHBSpec(2, (line_block("a"), line_block("b"), line_block("c")))
    v3, verdict3 = cyclic_phi_weights(shb3)
    assert verdict3.stability == STABLE
    ws = list(v3.effective_g_weights())
    assert len(ws) == 3
    total = tuple(sum(col) for col in zip(*ws))
    assert all(c == 0 for c in total)

    mixed = SHBSpec(2, (line_block("a"), StableBlock((1, 1), (1, -1))))
    _, vm = cyclic_phi_weights(mixed)
    assert vm.stability == STABLE


@st.composite
def abelian_systems(draw):
    lengths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=6))
    return SHBSpec(2, tuple(StableBlock((1,) * n, CHAIN_DEGREES[n], tag=f"b{i}")
                            for i, n in enumerate(lengths)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(abelian_systems(), st.sampled_from(CONVENTIONS))
def test_cyclic_lines_are_positive_slice_lines(shb, conv):
    # each cyclic line is the slice's line of its label, restricted to the
    # automorphism torus
    torus = automorphism_torus(shb)
    slice_lines = {ln.label: ln for ln in positive_slice_lines(shb, conv)}
    cyc, _ = cyclic_phi_weights(shb, conv, torus)
    assert len(cyc.lines) == shb.k
    for ln in cyc.lines:
        want = slice_lines[ln.label]
        assert ln.rho == want.rho
        assert ln.weight == torus.subtorus.restrict(want.weight)


def test_cyclic_phi_requires_two_blocks():
    with pytest.raises(TorstabError):
        cyclic_phi_weights(SHBSpec(2, (line_block("a"),)))


def _blocks_of_rank(r, tag):
    """All stable block shapes of a given total rank (ranks only; degrees
    picked minimally legal)."""
    out = [StableBlock((r,), (0,), tag=tag)]
    if r >= 2:
        out.append(
            StableBlock((1, r - 1), (1, -1), tag=tag)
        )
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cyclic_phi_stable_exhaustive_rank_patterns(k):
    for ranks in product([1, 2, 3], repeat=k):
        blocks = tuple(
            StableBlock((r,), (0,), tag=f"b{i}") if r == 1
            else StableBlock((1, r - 1), (1, -1), tag=f"b{i}")
            for i, r in enumerate(ranks)
        )
        shb = SHBSpec(2, blocks)
        for conv in CONVENTIONS:
            _, verdict = cyclic_phi_weights(shb, conv)
            assert verdict.stability == STABLE, (ranks, conv)


# ---------------------------------------------------------------------------
# conformal degree table


def test_conformal_table_diagonal_zero():
    shb = hitchin_rank2()
    for conv in CONVENTIONS:
        table = conformal_degree_table(shb, (5,), 3, conv)
        for (cod, dom), deg in table.entries.items():
            if cod == dom:
                assert deg == 0


def test_conformal_table_x_zero():
    shb = hitchin_rank2()
    table = conformal_degree_table(shb, (0,), 2)
    # with the characters dropped, degree is twice sigma times the grade
    for (cod, dom), deg in table.entries.items():
        (_, a), (_, b) = cod, dom
        assert deg == 2 * 2 * (b - a)


def test_conformal_table_composition_telescopes():
    shb = SHBSpec(2, (StableBlock((1, 1), (1, -1), tag="A"), line_block("B")))
    for conv in CONVENTIONS:
        table = conformal_degree_table(shb, (2, -1), 2, conv)
        idx = index_classes(shb)
        pairs = {(cod, dom) for cod, dom in idx}
        for (c1, d1) in idx:
            for (c2, d2) in idx:
                if d1 == c2 and (c1, d2) in pairs:
                    assert (
                        table.degree(c1, d1) + table.degree(c2, d2)
                        == table.degree(c1, d2)
                    )


def test_conformal_table_rejects_nonintegral_x():
    shb = two_line_shb()
    with pytest.raises(ValueError, match="integral"):
        conformal_degree_table(shb, (0.5, -0.5), 1)
    with pytest.raises(ValueError):
        conformal_degree_table(shb, (1, -1), 0)


def test_conformal_table_label_roundtrip():
    shb = two_line_shb()
    table = conformal_degree_table(shb, (1, -1), 2)
    lab = class_label("phi", (1, 1), (2, 1))
    assert table.degree_of_label(lab) == table.degree((1, 1), (2, 1))


# ---------------------------------------------------------------------------
# bridge to stratification: degrees are twice the exponents


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_bridge_identities_on_cyclic_vector(conv):
    shb = SHBSpec(
        2, (line_block("a"), line_block("b"), StableBlock((1, 1), (1, -1)))
    )
    torus = automorphism_torus(shb)
    cyc, verdict = cyclic_phi_weights(shb, conv)
    assert verdict.stability == STABLE
    amps = {lab: 1.0 for lab in cyc.amplitudes}
    u = slice_vector(shb, amps, conv)
    res = stratify(u, torus=torus.subtorus)
    assert verify_decomposition(res, u).all_ok
    table = conformal_degree_table(shb, res.x, res.sigma, conv)
    for lab, e in res.exponents.items():
        deg = table.degree_of_label(lab)
        if lab.startswith("phi"):
            assert deg == 2 * e - 2 * res.sigma
        else:
            assert deg == 2 * e

    # filtration bounds: components of u - phi_j have beta-degree >= 2 d_j
    # and phi-degree >= 2 d_j - 2 sigma
    removed = set()
    for j, st in enumerate(res.stages):
        removed.update(st.nu_labels)
        rest = [
            lab for lab in res.exponents
            if lab not in removed
        ]
        d_j = st.d
        for lab in rest:
            deg = table.degree_of_label(lab)
            if lab.startswith("phi"):
                assert deg >= 2 * d_j - 2 * res.sigma
            else:
                assert deg >= 2 * d_j
        removed.update(st.s_labels)
