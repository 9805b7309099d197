"""Complex-torus representations as weight-labeled coordinate lines.

A representation is a list of lines, each carrying an integer weight for the
torus (plus an optional positive integer rho-weight for a distinguished
C^*-factor in graded settings) and a positive squared-norm scale.  A vector
assigns a complex amplitude to each line.  All weight arithmetic is exact;
amplitudes are ordinary complex floats and only their being literally zero
or not ever influences a combinatorial decision.

Subtorus owns the map to its parent torus, and every restriction or lift in
the library goes through it: restrict pairs a character with the cocharacter
basis, and lift sums the basis vectors into a cocharacter of the parent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import ValidationError, fits
from .qexact import Lattice, clear_denominators, dot, saturated_kernel


@dataclass(frozen=True)
class Subtorus:
    """Subtorus of (C^x)^parent_rank given by a saturated cocharacter lattice."""

    parent_rank: int
    lattice: Lattice

    def __post_init__(self):
        if self.lattice.ambient_dim != self.parent_rank:
            raise ValueError("lattice dimension must match the parent rank")
        if not self.lattice.is_saturated():
            raise ValidationError(["cocharacter lattice must be saturated"])

    @staticmethod
    @lru_cache(maxsize=8)
    def full(rank: int) -> "Subtorus":
        # built once per rank: the instance is frozen, and building one
        # checks saturation by a Smith normal form
        basis = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        return Subtorus(rank, Lattice(rank, basis))

    @staticmethod
    def kernel_of(characters: Sequence[Sequence[int]], rank: int) -> "Subtorus":
        return Subtorus(rank, saturated_kernel(characters, ambient_dim=rank))

    @property
    def dim(self) -> int:
        return self.lattice.rank

    @property
    def basis(self):
        return self.lattice.basis

    def restrict(self, weight: Sequence[int]) -> tuple[int, ...]:
        """A character's pairings with the cocharacter basis: its weight
        under this subtorus."""
        return tuple(dot(weight, b) for b in self.lattice.basis)

    def lift(self, coords: Sequence) -> tuple:
        """The cocharacter sum_j c_j b_j of the parent torus whose
        coordinates in the basis b are c."""
        return tuple(sum(c * b[i] for c, b in zip(coords, self.lattice.basis))
                     for i in range(self.parent_rank))


def log_sum_exp(values: Sequence[float]) -> float:
    """log sum e^v, shifted by the largest v so that no term overflows."""
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def _exp(v: float) -> float:
    """e^v, or inf where that overflows a float."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _log_abs(a: complex) -> float:
    r = abs(a)
    if r == math.inf:  # both parts near the float limit: halve, exactly
        return math.log(abs(a / 2)) + math.log(2.0)
    return math.log(r)


@dataclass(frozen=True)
class WeightLine:
    """One coordinate line: a label, a torus weight, an optional rho-weight
    for the grading circle, and a positive squared-norm scale."""

    label: str
    weight: tuple[int, ...]
    rho: int | None = None
    norm2: float = 1.0

    def __post_init__(self):
        if self.norm2 <= 0:
            raise ValueError("squared-norm scale must be positive")
        # the exact layers compute in ints; a float here would leak out
        rho = () if self.rho is None else (self.rho,)
        if not all(isinstance(v, int) for v in (*self.weight, *rho)):
            raise ValueError(f"line {self.label!r}: weight and rho must be integers")

    @property
    def graded(self) -> bool:
        return self.rho is not None


@dataclass(frozen=True)
class RepVector:
    """A vector in a torus representation: lines plus complex amplitudes."""

    lines: tuple[WeightLine, ...]
    amplitudes: Mapping[str, complex]

    def __post_init__(self):
        labels = [ln.label for ln in self.lines]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate line labels")
        known = set(labels)
        for lab, amp in self.amplitudes.items():
            if lab not in known:
                raise ValueError(f"amplitude for unknown line {lab!r}")
            if not (math.isfinite(amp.real if isinstance(amp, complex) else amp)
                    and math.isfinite(amp.imag if isinstance(amp, complex) else 0.0)):
                raise ValueError(f"non-finite amplitude on line {lab!r}")
        ranks = {len(ln.weight) for ln in self.lines}
        if len(ranks) > 1:
            raise ValueError("inconsistent weight dimensions")
        gradings = {ln.graded for ln in self.lines}
        if len(gradings) > 1:
            raise ValidationError(["cannot mix graded and ungraded lines"])

    @property
    def rank(self) -> int:
        return len(self.lines[0].weight) if self.lines else 0

    @property
    def graded(self) -> bool:
        return bool(self.lines) and self.lines[0].graded

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes.get(label, 0.0))

    def is_zero(self) -> bool:
        return all(self.amplitude(ln.label) == 0 for ln in self.lines)

    def effective_lines(self) -> tuple[WeightLine, ...]:
        return tuple(ln for ln in self.lines if self.amplitude(ln.label) != 0)

    def effective_g_weights(self) -> frozenset[tuple[int, ...]]:
        """Distinct torus weights (rho dropped) carrying a nonzero amplitude."""
        return frozenset(ln.weight for ln in self.effective_lines())

    def restrict(self, h: Subtorus) -> "RepVector":
        """Replace each weight by its pairing vector against the subtorus
        cocharacter basis; rho comes through unchanged."""
        if h.parent_rank != self.rank:
            raise ValueError("subtorus of wrong rank")
        lines = tuple(
            WeightLine(ln.label, h.restrict(ln.weight), ln.rho, ln.norm2)
            for ln in self.lines
        )
        return RepVector(lines, dict(self.amplitudes))

    def one_ps_exponents(self, x: Sequence[int], sigma: int) -> dict[str, int]:
        """Exponent rho*sigma + <weight, x> of t on each effective component
        under the one-parameter subgroup (x, sigma)."""
        if sigma < 1:
            raise ValueError("sigma must be a positive integer")
        scale, xs = clear_denominators(x)
        if scale != 1:
            raise ValueError("x must be an integral cocharacter")
        out = {}
        for ln in self.effective_lines():
            if ln.rho is None:
                raise ValueError("one-parameter exponents need a graded line")
            out[ln.label] = ln.rho * sigma + dot(ln.weight, xs)
        return out

    def log_norm2_by_weight(self) -> dict[tuple[int, ...], float]:
        """Log of the aggregate squared norm sum |amplitude|^2 * scale per
        torus weight, summed in log space: the norm itself may under- or
        overflow a float where its logarithm does not."""
        acc: dict[tuple[int, ...], list[float]] = {}
        for ln in self.effective_lines():
            log_a2 = 2.0 * _log_abs(self.amplitude(ln.label))
            acc.setdefault(ln.weight, []).append(math.log(ln.norm2) + log_a2)
        return {w: log_sum_exp(ls) for w, ls in acc.items()}

    def rescale(self, x: Sequence[float]) -> "RepVector":
        """Amplitude rescaling by the torus element exp(x): each component of
        weight w is multiplied by e^{<w, x>}.  Weights never change."""
        amps = {}
        for ln in self.lines:
            a = self.amplitude(ln.label)
            if a != 0:
                s = sum(wi * xi for wi, xi in zip(ln.weight, x))
                if abs(s) < 700:
                    a = a * math.exp(s)
                else:  # e^s alone leaves the float range, a e^s need not
                    a = cmath.rect(_exp(_log_abs(a) + s), cmath.phase(a))
            amps[ln.label] = a
        return RepVector(self.lines, amps)


def _amp(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


# every integer of absolute value at most 2**53 is exactly a float
_FLOAT_EXACT = 2**53


def _float_weights(payload: dict) -> None:
    """Refuse, by line, a weight that the Kempf-Ness layer cannot read as a
    float exactly; the exact layers read weights as ints and need no such
    check.  A kempf-ness or stratify report makes it first, before the
    vector is built."""
    for ln in payload["lines"]:
        if any(abs(c) > _FLOAT_EXACT for c in ln["weight"]):
            raise ValidationError([f"line {ln['label']!r}: weight is too large for a float"])


def rep_from_payload(payload: dict) -> RepVector:
    """The vector a payload describes; a squared norm or an amplitude too
    large for a float is refused by its line."""
    # the schema's integers include integral floats such as 1.0; the exact
    # layers take ints
    lines = tuple(
        WeightLine(
            ln["label"],
            tuple(map(int, ln["weight"])),
            rho=None if ln.get("rho") is None else int(ln["rho"]),
            norm2=fits(float, ln.get("norm2", 1.0), f"line {ln['label']!r}: norm2"),
        )
        for ln in payload["lines"]
    )
    amps = {lab: fits(_amp, v, f"amplitude of line {lab!r}")
            for lab, v in payload["amplitudes"].items()}
    return RepVector(lines, amps)
