"""Symbolic combinatorics of polystable systems of Hodge bundles.

A system is a list of stable blocks, each a chain of Hodge summands with
ranks and degrees.  Everything here is index bookkeeping: automorphism
tori and their relation character, the graded weight lines of the positive
deformation slice, partition lattices with dimension counts, the cyclic
Higgs-direction stability construction, and the integer degree table
governing metric rescaling exponents.

Grading sign convention.  A Hom-component mapping the Hodge summand at
index b of block j into the summand at index a of block i carries, in the
default convention, circle weight b - a on bundle-direction (beta) classes
and b - a + 1 on Higgs-direction (phi) classes, and torus weight e_i - e_j;
so Higgs-parallel deformations are circle-fixed and quadratic-differential
directions land in the positive slice.  The "flipped" convention negates
both, matching the opposite reading of the index pair.  All identities in
the test suite run under both.  The class table (_class_table) is the one
encoding of the convention; the cyclic Higgs lines' weights and rho do
not depend on it.

What is built once.  positive_slice_lines and conformal_degree_table each
read one class table per call, built with each block pair's torus weight
computed once and the convention checked once.  The partition poset
depends only on the blocks' data-id pattern (which blocks share data, not
the data itself nor the genus), so it is built once per pattern and kept
in a least-recently-used cache of PARTITION_CACHE_SIZE = 32 patterns;
every system of five distinct blocks shares one.  A full cache of the 32
largest 8-block posets holds about 20 MB, and about 340 MB once every
one's order has been read (CPython 3.11, measured by tracemalloc).
Nothing keyed on a document's own content (its class table, Hodge lengths
or ranks) is cached: that would make a repeated document cheaper than a
new one without making new input any faster.  An shb run reads the full
central-locus dimension once, as partition_dim of the one-part partition,
and compares each class's partition_dim against it.

The last section reads an ``shb`` document (shb_from_payload) and writes
its report (report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .errors import TorstabError, ValidationError
from .stability import classify
from .torus_rep import RepVector, Subtorus, WeightLine

DEFAULT = "default"
FLIPPED = "flipped"
CONVENTIONS = (DEFAULT, FLIPPED)

MAX_PARTITION_BLOCKS = 8
# data-id patterns whose partition posets are kept (_pattern_poset)
PARTITION_CACHE_SIZE = 32


@dataclass(frozen=True)
class StableBlock:
    """One stable summand: Hodge chain lengths, per-summand ranks, degrees.

    Degree-zero SL-block: degrees sum to zero, the first degree is positive
    and the last negative unless the chain has length one.  The tag is an
    opaque identity marker: blocks with equal discrete data but different
    tags stand for non-isomorphic summands (e.g. two distinct degree-zero
    line bundles), which is the user's assertion to make.
    """

    ranks: tuple[int, ...]
    degrees: tuple[int, ...]
    tag: str = ""

    def __post_init__(self):
        if len(self.ranks) != len(self.degrees) or not self.ranks:
            raise ValueError("ranks and degrees must be nonempty and aligned")
        if any(r < 1 for r in self.ranks):
            raise ValueError("summand ranks must be >= 1")
        if sum(self.degrees) != 0:
            raise ValueError("block degrees must sum to zero")
        ell = len(self.ranks)
        if ell == 1:
            if self.degrees[0] != 0:
                raise ValueError("length-one block must have degree zero")
        else:
            if self.degrees[0] <= 0 or self.degrees[-1] >= 0:
                raise ValidationError(
                    ["first degree must be positive and last negative for a chain"]
                )

    @property
    def hodge_length(self) -> int:
        return len(self.ranks)

    @property
    def rank(self) -> int:
        return sum(self.ranks)


@dataclass(frozen=True)
class SHBSpec:
    genus: int
    blocks: tuple[StableBlock, ...]

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be >= 2")
        if not self.blocks:
            raise ValueError("need at least one block")

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def total_rank(self) -> int:
        return sum(b.rank for b in self.blocks)

    @property
    def abelian(self) -> bool:
        """Pairwise distinct block data, the model-level proxy for pairwise
        non-isomorphic stable summands."""
        return len(set(self.blocks)) == self.k

    def block_ranks(self) -> tuple[int, ...]:
        return tuple(b.rank for b in self.blocks)


@dataclass(frozen=True)
class AutomorphismTorus:
    """Scalar automorphisms (xi_1, ..., xi_k) subject to prod xi_i^{r_i} = 1,
    presented as a saturated subtorus of the ambient coordinate torus."""

    relation_character: tuple[int, ...]
    subtorus: Subtorus

    @property
    def rank(self) -> int:
        return self.subtorus.dim


def automorphism_torus(shb: SHBSpec) -> AutomorphismTorus:
    if not shb.abelian:
        raise TorstabError("automorphism torus needs pairwise distinct blocks")
    ranks = shb.block_ranks()
    sub = Subtorus.kernel_of([ranks], rank=shb.k)
    return AutomorphismTorus(ranks, sub)


def _check_convention(convention: str):
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")


def class_label(kind: str, cod: tuple[int, int], dom: tuple[int, int]) -> str:
    return f"{kind}[{cod[0]}.{cod[1]}|{dom[0]}.{dom[1]}]"


def _class_table(shb: SHBSpec, convention: str) -> list:
    """(cod, dom, torus weight, beta weight) of every Hom-index class, cod =
    (cod block, cod hodge) and dom = (dom block, dom hodge), ordered by cod
    block, dom block, cod hodge, dom hodge: the one place that applies the
    convention's sign, each block pair's torus weight built once."""
    _check_convention(convention)
    sign = 1 if convention == DEFAULT else -1
    lengths = [b.hodge_length for b in shb.blocks]
    table = []
    for p, lp in enumerate(lengths, start=1):
        for q, lq in enumerate(lengths, start=1):
            w = [0] * shb.k
            w[p - 1] += sign
            w[q - 1] -= sign
            w = tuple(w)
            for a in range(1, lp + 1):
                for b in range(1, lq + 1):
                    table.append(((p, a), (q, b), w, sign * (b - a)))
    return table


def positive_slice_lines(shb: SHBSpec, convention: str = DEFAULT) -> tuple[WeightLine, ...]:
    """Weight lines of the positively graded deformation slice: one line per
    admissible index class, beta classes with rho = beta grade and phi
    classes shifted by one, keeping only rho >= 1."""
    if not shb.abelian:
        raise TorstabError("positive slice needs pairwise distinct blocks")
    lines = []
    for cod, dom, w, rho_beta in _class_table(shb, convention):
        if rho_beta >= 1:
            lines.append(WeightLine(class_label("beta", cod, dom), w, rho=rho_beta))
        if rho_beta + 1 >= 1:
            lines.append(WeightLine(class_label("phi", cod, dom), w, rho=rho_beta + 1))
    return tuple(lines)


def slice_vector(
    shb: SHBSpec,
    amplitudes: Mapping[str, complex],
    convention: str = DEFAULT,
) -> RepVector:
    """A vector of the positive slice with the given amplitudes (absent
    labels are zero)."""
    lines = positive_slice_lines(shb, convention)
    known = {ln.label for ln in lines}
    for lab in amplitudes:
        if lab not in known:
            raise KeyError(f"{lab!r} is not a positive-slice class")
    amps = {ln.label: complex(amplitudes.get(ln.label, 0.0)) for ln in lines}
    return RepVector(lines, amps)


# ---------------------------------------------------------------------------
# dimensions and partitions


def expected_dim_central_locus(r: int, g: int) -> int:
    """Dimension of the central locus (r^2 - 1)(g - 1), half the moduli
    dimension for rank r and genus g."""
    if r < 2 or g < 2:
        raise ValueError("need r >= 2 and g >= 2")
    return (r * r - 1) * (g - 1)


@dataclass(frozen=True)
class PartitionP:
    """Partition of the block index set {0, ..., k-1} into sorted parts."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = [i for part in self.parts for i in part]
        if not self.parts or any(not p for p in self.parts):
            raise ValueError("parts must be nonempty")
        if sorted(seen) != list(range(len(seen))):
            raise ValueError("parts must partition a full index range")

    @property
    def is_trivial(self) -> bool:
        return len(self.parts) == 1


def partition_dim(partition: PartitionP, block_ranks: Sequence[int], g: int) -> int:
    """Sum over parts of (r_part^2 - 1)(g - 1) with r_part the total rank."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    total = 0
    for part in partition.parts:
        r = sum(block_ranks[i] for i in part)
        total += (r * r - 1) * (g - 1)
    return total


def _rg_partitions(ids) -> list:
    """The set partitions of range(len(ids)), one per state, in
    restricted-growth order (item i joins one of the parts opened before it,
    or opens a new one): parts[j] holds the items of part j.  The state of
    a partition, or of a prefix of one, is the sorted multiset of its parts'
    sorted ids, and only the first partition of each state is kept, so
    distinct ids keep every set partition.

    The partitions are built directly, not by filtering all Bell(k) of
    them: prefixes are extended one item at a time in lexicographic order,
    and a prefix is pruned when an earlier one of the same length has the
    same state.  Both prefixes reach the same states, and every completion
    of the earlier one comes first, so no state loses its first partition.
    """
    # the surviving prefixes of each length, as (parts, id_parts) keyed by
    # state, id_parts[j] the sorted ids of parts[j].  A level lists its
    # prefixes in lexicographic order, and so does the next one, built from
    # them in turn; the first prefix to reach a state is kept.
    prefixes = [((), ())]
    for i, x in enumerate(ids):
        level: dict = {}
        for parts, id_parts in prefixes:
            for j, (part, id_part) in enumerate(zip(parts, id_parts)):
                child = id_parts[:j] + (tuple(sorted(id_part + (x,))),) + id_parts[j + 1:]
                state = tuple(sorted(child))
                if state not in level:
                    level[state] = (parts[:j] + (part + (i,),) + parts[j + 1:], child)
            child = id_parts + ((x,),)
            state = tuple(sorted(child))
            if state not in level:
                level[state] = (parts + ((i,),), child)
        prefixes = level.values()
    return [parts for parts, _ in prefixes]


@lru_cache(maxsize=None)
def _merges(n: int) -> tuple:
    """The set partitions of n parts that merge at least two of them: the
    classes of n distinct ids with fewer than n parts."""
    if n < 2:
        return ()
    return tuple(p.parts for p in _pattern_poset(tuple(range(n))).partitions
                 if len(p.parts) < n)


def _signature(id_parts) -> tuple:
    """A partition's poset element: the sorted multiset of its parts' sorted
    multisets of block-data ids."""
    return tuple(sorted(tuple(sorted(part)) for part in id_parts))


@dataclass(frozen=True)
class PartitionPoset:
    partitions: tuple[PartitionP, ...]
    # ids[i]: class of block i's data; partitions with the same multiset of
    # part id-multisets are one element of the poset
    ids: tuple[int, ...] = field(repr=False, compare=False)

    def _id_parts(self, p: PartitionP) -> list:
        return [[self.ids[i] for i in part] for part in p.parts]

    @cached_property
    def _index(self) -> dict:
        return {_signature(self._id_parts(p)): i for i, p in enumerate(self.partitions)}

    @cached_property
    def order(self) -> frozenset:
        """Pairs (i, j) with partitions[i] > partitions[j] (strict
        coarsening), built on first read: each strict coarsening of
        partitions[j] merges its parts along a set partition of them."""
        order = set()
        for ib, pb in enumerate(self.partitions):
            id_parts = self._id_parts(pb)
            for merge in _merges(len(id_parts)):
                coarser = ([c for j in group for c in id_parts[j]] for group in merge)
                order.add((self._index[_signature(coarser)], ib))
        return frozenset(order)


@lru_cache(maxsize=PARTITION_CACHE_SIZE)
def _pattern_poset(ids: tuple) -> PartitionPoset:
    """The poset of a data-id pattern: ids[i] is the first-occurrence index
    of block i's data, so every system with the same block multiplicities
    in the same places shares it, whatever the blocks' data and the genus."""
    return PartitionPoset(tuple(PartitionP(parts) for parts in _rg_partitions(ids)), ids)


def partitions_with_order(shb: SHBSpec) -> PartitionPoset:
    """All partitions of the block multiset, ordered by strict coarsening
    (P > P' when P' refines P); the order is computed only when read.

    Partitions identifying the same multiset of block-data multisets are one
    class, listed once by its first set partition in restricted-growth
    order, in that order (_rg_partitions on the blocks' data ids).  At full
    length a partition's state is its class.  The poset depends only on the
    data-id pattern, and is built once per pattern (_pattern_poset)."""
    k = shb.k
    if k > MAX_PARTITION_BLOCKS:
        raise TorstabError(f"partition enumeration capped at {MAX_PARTITION_BLOCKS} blocks")
    data_ids: dict = {}
    ids = tuple(data_ids.setdefault(b, len(data_ids)) for b in shb.blocks)
    return _pattern_poset(ids)


# ---------------------------------------------------------------------------
# cyclic Higgs direction


def cyclic_phi_weights(shb: SHBSpec, convention: str = DEFAULT,
                       torus: AutomorphismTorus | None = None):
    """Unit-amplitude vector on the cyclic Higgs classes, last Hodge summand
    of each block mapping into the first summand of the next block, with its
    stability verdict under the relation torus.  A caller that holds
    automorphism_torus(shb) passes it as torus instead of solving it again."""
    if not shb.abelian:
        raise TorstabError("cyclic construction needs pairwise distinct blocks")
    if shb.k < 2:
        raise TorstabError("cyclic construction needs at least two blocks")
    _check_convention(convention)
    if torus is None:
        torus = automorphism_torus(shb)
    lines = []
    for i, blk in enumerate(shb.blocks, start=1):
        j = i % shb.k + 1
        # the map from the last summand of block i into the first summand of
        # block j has torus weight e_j - e_i and rho the length of block i
        # under either convention, which orders only the label's two slots
        src, dst = (i, blk.hodge_length), (j, 1)
        slots = (dst, src) if convention == DEFAULT else (src, dst)
        w = [0] * shb.k
        w[j - 1], w[i - 1] = 1, -1
        lines.append(WeightLine(class_label("phi", *slots), tuple(w), rho=blk.hodge_length))
    ambient = RepVector(tuple(lines), {ln.label: 1.0 for ln in lines})
    restricted = ambient.restrict(torus.subtorus)
    verdict = classify(restricted)
    return restricted, verdict


# ---------------------------------------------------------------------------
# conformal-limit degree table


@dataclass(frozen=True)
class ConformalDegreeTable:
    """Integer metric-rescaling degree per index class under a one-parameter
    subgroup (x, sigma): twice the beta-grade exponent, so diagonal classes
    sit at zero and composition of classes adds degrees."""

    x: tuple[int, ...]
    sigma: int
    convention: str
    entries: dict

    def degree(self, cod, dom) -> int:
        return self.entries[(cod, dom)]

    def degree_of_label(self, label: str) -> int:
        kind, rest = label.split("[", 1)
        cod_s, dom_s = rest.rstrip("]").split("|")
        cod = tuple(int(v) for v in cod_s.split("."))
        dom = tuple(int(v) for v in dom_s.split("."))
        return self.degree(cod, dom)


def conformal_degree_table(
    shb: SHBSpec,
    x: Sequence[int],
    sigma: int,
    convention: str = DEFAULT,
) -> ConformalDegreeTable:
    if sigma < 1:
        raise ValueError("sigma must be a positive integer")
    if any(int(v) != v for v in x):
        raise ValueError("x must be an integral cocharacter")
    xs = tuple(int(v) for v in x)
    if len(xs) != shb.k:
        raise ValueError("x must be an ambient cocharacter, one entry per block")
    entries = {}
    for cod, dom, w, rho_beta in _class_table(shb, convention):
        # w is supported on the two blocks of the class (and zero when they
        # coincide), so <w, x> needs only those entries
        p, q = cod[0] - 1, dom[0] - 1
        entries[(cod, dom)] = 2 * sigma * rho_beta + 2 * (w[p] * xs[p] + w[q] * xs[q])
    return ConformalDegreeTable(xs, sigma, convention, entries)


# ---------------------------------------------------------------------------
# shb problem documents


def shb_from_payload(payload: dict) -> SHBSpec:
    blocks = tuple(
        StableBlock(
            tuple(map(int, b["ranks"])), tuple(map(int, b["degrees"])), tag=b.get("tag", "")
        )
        for b in payload["blocks"]
    )
    return SHBSpec(int(payload["genus"]), blocks)


def report(payload: dict, options: dict) -> dict:
    """The body of an ``shb`` report."""
    convention = options["convention"] or DEFAULT
    shb = shb_from_payload(payload)
    block_ranks = shb.block_ranks()
    body: dict = {
        "total_rank": shb.total_rank,
        "genus": shb.genus,
        "abelian": shb.abelian,
        "block_ranks": list(block_ranks),
    }
    if shb.total_rank >= 2:
        body["expected_dim_central_locus"] = expected_dim_central_locus(
            shb.total_rank, shb.genus
        )
    # the full central-locus dimension, read once: the one-part partition's
    full = partition_dim(PartitionP((tuple(range(shb.k)),)), block_ranks, shb.genus)
    table = []
    for p in partitions_with_order(shb).partitions:
        dim = partition_dim(p, block_ranks, shb.genus)
        table.append(
            {
                "parts": [list(part) for part in p.parts],
                "dim": dim,
                "proper": not p.is_trivial,
                "strictly_below_central": dim < full,
            }
        )
    body["partition_table"] = table
    if shb.abelian:
        torus = automorphism_torus(shb)
        body["automorphism_torus"] = {
            "rank": torus.rank,
            "relation_character": list(torus.relation_character),
            "cocharacter_basis": [list(b) for b in torus.subtorus.basis],
        }
        body["positive_slice"] = [
            {"label": ln.label, "weight": list(ln.weight), "rho": ln.rho}
            for ln in positive_slice_lines(shb, convention)
        ]
        if shb.k >= 2:
            cyc, verdict = cyclic_phi_weights(shb, convention, torus)
            body["cyclic_phi"] = {
                "stability": verdict.stability,
                "restricted_weights": sorted(
                    [list(w) for w in cyc.effective_g_weights()]
                ),
            }
    if "x" in payload:
        # the table reads only the index classes and x, a cocharacter of the
        # block-scalar torus that every system has
        table_obj = conformal_degree_table(
            shb, [int(c) for c in payload["x"]], int(payload.get("sigma", 1)), convention
        )
        body["conformal_degrees"] = {
            f"{cod[0]}.{cod[1]}|{dom[0]}.{dom[1]}": deg
            for (cod, dom), deg in sorted(table_obj.entries.items())
        }
    return body
