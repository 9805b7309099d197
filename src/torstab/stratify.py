"""Iterative stratification of a stable vector in a graded torus
representation.

Input: a vector u in a representation of G x C^* whose lines carry a torus
weight l and a circle weight rho >= 1, with u stable for the G-action.  The
iteration peels u apart: at stage n it removes the G_n-fixed components
(nu_n), shears the remaining weights by the accumulated rational
cocharacters, intersects the weight polytope with the positive rho-axis to
get c_n, reads off the face F_n through (0, c_n), projects u onto the face
weights S_n, solves an exact linear system for the next rational
cocharacter x_n, and passes to the stabilizer torus G_{n+1} of the
projection.  Tori strictly decrease, so the loop stops after at most dim G
stages.  A final integer sigma clears all denominators, producing a genuine
one-parameter subgroup (x, sigma) under which every projected piece scales
with a single integer exponent d_i = c_i * sigma and the strict ladder
0 < d_0 < ... < d_{k-1} holds.  sigma, x and the exponent check are
computed in integers over one common denominator D of the summed
cocharacter: with x_n summed to X / D and each line's sheared rho
rho + <w, X / D> = q / D, sigma = m D and x = m X, m = sigma_multiple.

Each exact fact is decided once: c_n, a convex combination certifying it
and the LP's tight columns, which hold F_n, come from one LP, and face LPs
on those candidates alone give a combination positive exactly on F_n.
That combination puts 0 in the relative interior of the projection's
restricted weights, so each stage's classification is read off the face
certificate rather than decided again: Stable when the weights span,
PolystableNotStable with their saturated kernel as flat lattice otherwise.
verify_decomposition re-checks it against weights recomputed from u, and
stage_kn_minimizers passes it to the minimizer.  Stage 0's certificate
also settles the precondition: when its face weights span, 0 is interior
to their hull and so to the hull of all of u's weights, which is u Stable
under G_0.  classify runs only when they do not span or stage 0 breaks
down, and rejects u when it is not Stable.  Both hull dimensions of a
stage come off one elimination.

Each stage pairs every remaining line's weight with G_n's basis once, on
u's own lines: nu_n is the lines whose restricted weight vanishes, and the
stage's points are built from the same restricted weights.
verify_decomposition stays independent of them: it re-derives every
restricted weight it tests from u's lines.  stage_kn_minimizers restricts
only each stage's lines S_n.

The combinatorial output depends only on which amplitudes are nonzero;
per-stage Kempf-Ness minimizers (the metric updates) are computed
separately by stage_kn_minimizers and never feed back into the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InternalError, NotStableError, StratifyInternalError, ZeroVectorError
from .polytope import PolytopeQ, face_combination, ray_entry, solve_mixed_system
from .qexact import (
    Lattice, QVec, _echelon, clear_denominators, dot, saturated_kernel, vsub,
)
from .stability import POLYSTABLE_NOT_STABLE, STABLE, StabilityResult, classify
from .torus_rep import RepVector, Subtorus

if TYPE_CHECKING:
    from .kempf_ness import KNResult


@dataclass(frozen=True)
class Stage:
    index: int
    torus: Subtorus
    nu_labels: tuple[str, ...]
    s_labels: tuple[str, ...]
    c: Fraction
    x_stage: QVec
    d: int
    dim_hull: int
    dim_projected_hull: int
    # classification of P_Sn(u) under G_n, read off the face certificate
    # and reused by verification and the stage minimizers
    projection: StabilityResult


@dataclass(frozen=True)
class StratifyResult:
    u: RepVector
    tori: tuple[Subtorus, ...]
    stages: tuple[Stage, ...]
    x: tuple[int, ...]
    sigma: int
    residual_labels: tuple[str, ...]
    exponents: dict  # label -> integer exponent under (x, sigma)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def d_ladder(self) -> tuple[int, ...]:
        return tuple(s.d for s in self.stages)


def _require_graded_positive(u: RepVector):
    if u.is_zero():
        raise ZeroVectorError("cannot stratify the zero vector")
    if not u.graded:
        raise ValueError("stratification needs graded lines (rho present)")
    for ln in u.effective_lines():
        if ln.rho < 1:
            raise ValueError(f"line {ln.label!r} has rho < 1; not in the positive slice")


def _require_stable(u: RepVector, g0: Subtorus):
    """Raise NotStableError, with classify's certificate attached, unless u
    is Stable under g0."""
    cls = classify(u.restrict(g0))
    if cls.stability != STABLE:
        raise NotStableError(f"input vector is {cls.stability}, not stable", cls)


def stratify(
    u: RepVector,
    torus: Subtorus | None = None,
    sigma_multiple: int = 1,
) -> StratifyResult:
    """Run the full iteration on a G-stable vector of the positive slice;
    sigma is sigma_multiple times the least denominator-clearing sigma.

    Raises NotStableError when u fails the stability precondition (with the
    classification certificate attached) and StratifyInternalError if any
    internal invariant breaks, which signals an invalid input.
    """
    if sigma_multiple < 1:
        raise ValueError("sigma_multiple must be a positive integer")
    _require_graded_positive(u)
    k = u.rank
    g0 = torus if torus is not None else Subtorus.full(k)
    # the precondition is read off stage 0 (module docstring); under a G_0 of
    # dimension 0 no stage runs, and every nonzero vector is Stable: its
    # weights all lie at 0, the interior of R^0
    tori = [g0]
    stages: list[dict] = []
    x_prev: QVec = (0,) * k
    lines = {ln.label: ln for ln in u.effective_lines()}
    left = sorted(lines)  # labels in no bucket yet

    try:
        while tori[-1].dim > 0:
            n = len(stages)
            gn = tori[-1]
            # each line's restricted weight, computed once per stage: nu_n is
            # where it vanishes, and the stage's points are built from it
            restricted = {lab: gn.restrict(lines[lab].weight) for lab in left}
            nu_labels = tuple(lab for lab in left if not any(restricted[lab]))
            active = [lab for lab in left if any(restricted[lab])]
            if not active:
                raise StratifyInternalError(
                    f"EmptyResidual: no weights left at stage {n} with dim G_n > 0"
                )
            # sheared, projected points; one polytope generator per distinct point
            pts: dict[tuple, list] = {}
            for lab in active:
                ln = lines[lab]
                point = restricted[lab] + (ln.rho + dot(ln.weight, x_prev),)
                pts.setdefault(point, []).append(lab)
            gens = sorted(pts)
            hull = PolytopeQ.from_points(gens)
            entry = ray_entry(hull, list(range(gn.dim)), gn.dim)
            if entry is None:
                raise StratifyInternalError(f"RayEmpty: the rho-axis misses C_{n}")
            c_n, entry_combination, candidates = entry
            c_prev = stages[-1]["c"] if stages else 0
            if not c_prev < c_n:
                raise StratifyInternalError(
                    f"NonIncreasingC: c_{n} = {c_n} is not above c_{n - 1} = {c_prev}"
                )
            axis_point = (0,) * gn.dim + (c_n,)
            face_comb = face_combination(hull, axis_point, entry_combination, candidates)
            face_pts = [g for g, a in zip(gens, face_comb) if a > 0]
            if len(face_pts) < 2:
                raise StratifyInternalError(f"VertexFace: F_{n} degenerates to a vertex")
            s_labels = tuple(sorted(lab for p in face_pts for lab in pts[p]))

            # exact system for x_n inside the span of G_n, in basis coordinates
            eqs, stricts = [], []
            for p in face_pts:
                eqs.append((p[: gn.dim], c_n - p[gn.dim]))
            for p in gens:
                if p not in face_pts:
                    stricts.append((p[: gn.dim], c_n - p[gn.dim]))
            y = solve_mixed_system(eqs, stricts, gn.dim)
            if y is None:
                raise StratifyInternalError(f"NoCocharacter: stage {n} system infeasible")
            x_n = gn.lift(y)
            x_prev = tuple(a + b for a, b in zip(x_prev, x_n))

            # face_comb weights the restricted face points to 0 with every
            # coefficient positive, so 0 is in the relative interior of their
            # hull: P_Sn(u) is polystable under G_n, and stable iff they span
            weight_comb: dict[tuple, Fraction] = {}
            for p, a in zip(gens, face_comb):
                if a > 0:
                    weight_comb[p[: gn.dim]] = weight_comb.get(p[: gn.dim], 0) + a
            restricted = sorted(weight_comb)
            ker = saturated_kernel(restricted, ambient_dim=gn.dim)
            projection = StabilityResult(
                POLYSTABLE_NOT_STABLE if ker.rank else STABLE,
                tuple(restricted),
                combination=tuple(weight_comb[w] for w in restricted),
                flat_lattice=ker if ker.rank else None,
            )
            # a saturated kernel lifted through a saturated basis is saturated
            g_next = Subtorus(k, Lattice(k, tuple(map(gn.lift, ker.basis))))
            if not g_next.dim < gn.dim:
                raise StratifyInternalError(
                    f"NonDecreasingTorus: stabilizer did not shrink at stage {n}"
                )

            # both hull dimensions from one elimination of the differences
            # g - gens[0], rho last: pivots are taken left to right, so those
            # before the rho column count the rank of the G-parts alone
            pivots = _echelon([vsub(g, gens[0]) for g in gens[1:]])[1]
            dim_hull = len(pivots)
            dim_proj = sum(c < gn.dim for c in pivots)
            stages.append(
                dict(
                    index=n,
                    torus=gn,
                    nu_labels=nu_labels,
                    s_labels=s_labels,
                    c=c_n,
                    x_stage=x_n,
                    dim_hull=dim_hull,
                    dim_projected_hull=dim_proj,
                    projection=projection,
                )
            )
            if n == 0 and ker.rank:
                _require_stable(u, g0)  # stage 0's face weights do not span
            left = [lab for lab in active if lab not in s_labels]
            tori.append(g_next)
    except StratifyInternalError:
        # stage 0 broke down: say first whether u itself is at fault
        if not stages:
            _require_stable(u, g0)
        raise

    residual = tuple(left)

    # over one common denominator: x_prev = X / D and q = qn / D.  D is the
    # lcm of x_prev's denominators, so gcd(D, X) = 1 and the least sigma
    # making sigma * x_prev (and so every sigma * q) integral is D itself
    den, xn = clear_denominators(x_prev)
    qn = {lab: ln.rho * den + dot(ln.weight, xn) for lab, ln in lines.items()}
    sigma = den * sigma_multiple
    x = tuple(c * sigma_multiple for c in xn)

    exponents = u.one_ps_exponents(x, sigma)
    for lab in sorted(lines):
        if exponents[lab] * den != sigma * qn[lab]:
            raise InternalError(f"exponent of {lab} is {exponents[lab]}, "
                                f"not sigma * q = {sigma * qn[lab]}/{den}")

    final_stages = tuple(
        Stage(d=sigma * s["c"].numerator // s["c"].denominator, **s) for s in stages
    )
    return StratifyResult(
        u=u,
        tori=tuple(tori),
        stages=final_stages,
        x=x,
        sigma=sigma,
        residual_labels=residual,
        exponents=exponents,
    )


# ---------------------------------------------------------------------------
# verification


@dataclass
class CheckReport:
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _exponents(labels, exps: dict) -> tuple[list[int], str]:
    """The exponents of the labels, and a note naming those that have none:
    a label of a line that is not effective in u fails its check."""
    absent = [lab for lab in labels if lab not in exps]
    note = f"; not effective in u: {absent}" if absent else ""
    return [exps[lab] for lab in labels if lab in exps], note


def verify_decomposition(result: StratifyResult, u: RepVector) -> CheckReport:
    """Recompute every exponent independently and check all the bounds, the
    fixedness conditions, per-stage polystability, and the exact sum."""
    rep = CheckReport()
    effective = u.effective_lines()
    exps = u.one_ps_exponents(result.x, result.sigma)
    ladder = result.d_ladder
    rep.add(
        "ladder-strictly-increasing",
        all(a < b for a, b in zip((0,) + ladder, ladder)),
        f"d = {ladder}",
    )
    rep.add("sigma-positive", result.sigma >= 1, f"sigma = {result.sigma}")

    prev_d = 0
    for i, st in enumerate(result.stages):
        s_exp, absent = _exponents(st.s_labels, exps)
        rep.add(
            f"stage{i}-projection-exponent",
            not absent and all(e == st.d for e in s_exp),
            f"expected {st.d}, got {sorted(set(s_exp))}{absent}",
        )
        nu_exp, absent = _exponents(st.nu_labels, exps)
        rep.add(
            f"stage{i}-nu-bound",
            not absent and all(e > prev_d for e in nu_exp),
            f"need > {prev_d}, got {sorted(nu_exp)}{absent}",
        )
        # re-derived from u's lines, never from the stage's own weights
        nu = [ln.weight for ln in effective if ln.label in st.nu_labels]
        rep.add(
            f"stage{i}-nu-fixed",
            not any(any(st.torus.restrict(w)) for w in nu),
            "nu_i must be fixed by G_i",
        )
        face = [ln.weight for ln in effective if ln.label in st.s_labels]
        next_torus = result.tori[i + 1]
        rep.add(
            f"stage{i}-projection-fixed-by-next",
            not any(any(next_torus.restrict(w)) for w in face),
            "P_Si(u) must be fixed by G_{i+1}",
        )
        pcls = st.projection
        weights = tuple(sorted({st.torus.restrict(w) for w in face}))
        rep.add(
            f"stage{i}-polystable",
            pcls.weights == weights
            and pcls.verify()
            and pcls.stability in (STABLE, POLYSTABLE_NOT_STABLE),
            pcls.stability,
        )
        prev_d = st.d

    res_exp, absent = _exponents(result.residual_labels, exps)
    rep.add(
        "residual-bound",
        not absent and all(e > prev_d for e in res_exp),
        f"need > {prev_d}, got {sorted(res_exp)}{absent}",
    )
    rep.add(
        "all-exponents-positive",
        all(e > 0 for e in exps.values()),
        str(sorted(exps.values())[:5]),
    )

    buckets = list(result.residual_labels)
    for st in result.stages:
        buckets.extend(st.nu_labels)
        buckets.extend(st.s_labels)
    eff = sorted(ln.label for ln in effective)
    rep.add(
        "exact-sum-decomposition",
        sorted(buckets) == eff,
        "every effective component in exactly one bucket",
    )
    rep.add(
        "termination-bound",
        result.num_stages <= result.tori[0].dim + 1,
        f"{result.num_stages} stages for dim G = {result.tori[0].dim}",
    )
    rep.add(
        "tori-strictly-decreasing",
        all(a.dim > b.dim for a, b in zip(result.tori, result.tori[1:])),
        str([t.dim for t in result.tori]),
    )
    for i, st in enumerate(result.stages):
        if st.dim_hull == st.dim_projected_hull:
            rep.add(
                f"stage{i}-equal-dim-stop",
                i == result.num_stages - 1 and not result.residual_labels,
                "equal-dimension case must stop with zero residual",
            )
    return rep


def stage_kn_minimizers(result: StratifyResult,
                        tol: float = 1e-10) -> list[tuple[KNResult, dict]]:
    """Per-stage Kempf-Ness minimizers of P_Si(u) under G_i, run to kn_minimize's
    tol, together with the rescaled amplitudes of the minimizing metric.
    Diagnostic only: the combinatorial stratification never depends on these
    numbers, and only they load numpy."""
    from .kempf_ness import KNProblem, kn_minimize

    u = result.u
    out = []
    for st in result.stages:
        # only the stage's lines are restricted; every other line of u keeps
        # amplitude 0 in the rescaled vector
        face = tuple(ln for ln in u.lines if ln.label in st.s_labels)
        proj = RepVector(face, {ln.label: u.amplitude(ln.label) for ln in face})
        proj = proj.restrict(st.torus)
        res = kn_minimize(KNProblem.from_vector(proj), st.projection, tol=tol)
        rescaled = {}
        if res.minimizer is not None:
            rescaled = dict.fromkeys((ln.label for ln in u.lines), 0j)
            rescaled.update(proj.rescale(res.minimizer).amplitudes)
        out.append((res, rescaled))
    return out
