"""Juncture orbits and their certified limit leaves.

A juncture's conjugacy class is pushed around by the substitution rule;
the axes of its conjugates form a geodesic family whose convergent chains
(fixed conjugator, advancing iterate) are extrapolated to limit leaves.
Each accepted chain carries a Cauchy certificate: the tail of successive
endpoint gaps, which must sink below tolerance while decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NotHyperbolicError, ValidationError
from .group import (
    DEFAULT_MAX_LETTERS,
    DEFAULT_MAX_WORDS,
    Word,
    apply_automorphism,
    enumerate_ball,
    evaluate_word,
)
from .hyperbolic import (
    ANGLE_TOL,
    TRACE_TOL,
    TWO_PI,
    Geodesic,
    IdealPoint,
    Isometry,
    angular_gap,
    axis,
    boundary_action,
    classify_isometry,
    geodesic_intersection,
    geodesic_relation,
    to_disk,
    translation_length,
)

# Gaps below this are at the resolution floor of double-precision angles;
# a tail stuck there still counts as decreasing.
GAP_FLOOR = 1e-13

DEFAULT_TOL = 1e-6
DEFAULT_HORIZON = 12
DEFAULT_BALL = 3
DEFAULT_GROWTH_RATIO = 1.5
DEFAULT_ESCAPE_HORIZON = 20


@dataclass(frozen=True)
class JunctureSpec:
    """One juncture component: an end label, a sign, and a conjugacy class."""

    end: str
    sign: str
    word: Word

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValidationError(f"juncture sign must be '+' or '-', "
                                  f"got {self.sign!r}")
        if self.word.is_identity():
            raise ValidationError("juncture word must be nonempty")


@dataclass(frozen=True)
class Provenance:
    juncture: str
    sign: str
    conjugator: Word
    iterate: int
    # Evaluated conjugator, kept so chain limits can be transported from
    # the base chain equivariantly (equal endpoints stay equal in floats).
    conjugator_isometry: Isometry | None = None

    def chain_key(self):
        return (self.juncture, self.sign, self.conjugator.letters)


class _AngleSetDedup:
    """Tolerance deduplication of unordered angle pairs via grid cells."""

    def __init__(self, tol: float):
        self.tol = tol
        self.q = max(tol, 1e-12) * 2.0
        self.cells: dict[tuple[int, int], list[tuple[float, float]]] = {}

    def _indices(self, t: float):
        base = round(t / self.q)
        yield base
        if t < self.tol:
            yield round((t + TWO_PI) / self.q)
        if TWO_PI - t < self.tol:
            yield round((t - TWO_PI) / self.q)

    def contains(self, u: float, v: float) -> bool:
        for iu in self._indices(u):
            for iv in self._indices(v):
                for du in (-1, 0, 1):
                    for dv in (-1, 0, 1):
                        for (su, sv) in self.cells.get((iu + du, iv + dv), ()):
                            if (angular_gap(su, u) < self.tol
                                    and angular_gap(sv, v) < self.tol):
                                return True
        return False

    def add(self, u: float, v: float) -> None:
        cell = (round(u / self.q), round(v / self.q))
        self.cells.setdefault(cell, []).append((u, v))

    def check_and_add(self, geo: Geodesic) -> bool:
        """True (and record it) when the geodesic is new."""
        u, v = geo.sorted_angles()
        if self.contains(u, v):
            return False
        self.add(u, v)
        return True


@dataclass
class GeodesicFamily:
    """Deduplicated geodesics with the provenance of each entry."""

    entries: list[tuple[Geodesic, Provenance]] = field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def geodesics(self):
        return [g for g, _ in self.entries]

    @classmethod
    def merge(cls, families,
              angle_tol: float = ANGLE_TOL) -> "GeodesicFamily":
        merged = cls()
        dedup = _AngleSetDedup(angle_tol)
        for fam in families:
            for geo, prov in fam.entries:
                if dedup.check_and_add(geo):
                    merged.entries.append((geo, prov))
        return merged

    def signs(self):
        return {prov.sign for _, prov in self.entries}


def _iterate_axis(scene, juncture: JunctureSpec, n: int,
                  max_letters: int, trace_tol: float) -> Geodesic:
    """Axis of the n-th substitution image of the juncture word.

    Evaluates the cyclically reduced core and transports its axis by the
    stripped conjugator; evaluating the full word directly would cancel
    the trace catastrophically once the conjugator grows.
    """
    word_n = apply_automorphism(scene.automorphism, juncture.word, n,
                                max_letters=max_letters)
    conj, core = word_n.cyclic_decomposition()
    core_m = evaluate_word(scene.group, core)
    kind = classify_isometry(core_m, trace_tol)
    if kind != "hyperbolic":
        raise NotHyperbolicError(
            f"iterate {n} of juncture {juncture.end!r} evaluates to a "
            f"{kind} isometry"
        )
    base = axis(core_m, trace_tol)
    if conj.is_identity():
        return base
    conj_m = evaluate_word(scene.group, conj)
    return Geodesic(boundary_action(conj_m, base.a),
                    boundary_action(conj_m, base.b))


def juncture_orbit(scene, juncture: JunctureSpec, n_range=None,
                   ball_k: int = DEFAULT_BALL,
                   max_letters: int = DEFAULT_MAX_LETTERS,
                   max_words: int = DEFAULT_MAX_WORDS,
                   angle_tol: float = ANGLE_TOL,
                   trace_tol: float = TRACE_TOL) -> GeodesicFamily:
    """Axes of the conjugated juncture iterates.

    For every iterate n in ``n_range`` and every conjugator g in the
    radius-``ball_k`` ball, the axis of g * phi^n(w) * g^-1 enters the
    family (computed equivariantly as the g-image of the axis of
    phi^n(w)).  Entries are deduplicated keeping first occurrence, with
    the identity conjugator enumerated first so its chain stays intact.
    """
    if n_range is None:
        n_range = range(-DEFAULT_HORIZON, DEFAULT_HORIZON + 1)
    # Insert along the chain's convergence direction (ascending for
    # negative junctures, descending for positive ones) so that when the
    # tail clusters below the angle tolerance, deduplication keeps the
    # earliest cluster member and the surviving tail stays geometric.
    iterates = sorted(set(int(n) for n in n_range),
                      reverse=(juncture.sign == "+"))
    ball = enumerate_ball(scene.group, ball_k, max_words=max_words)
    family = GeodesicFamily()
    dedup = _AngleSetDedup(angle_tol)
    axes: dict[int, Geodesic] = {}
    for n in iterates:
        axes[n] = _iterate_axis(scene, juncture, n, max_letters, trace_tol)
    for g_word, g_iso in ball:
        for n in iterates:
            base = axes[n]
            geo = base if g_word.is_identity() else Geodesic(
                boundary_action(g_iso, base.a),
                boundary_action(g_iso, base.b),
            )
            if dedup.check_and_add(geo):
                family.entries.append((geo, Provenance(
                    juncture=juncture.end,
                    sign=juncture.sign,
                    conjugator=g_word,
                    iterate=n,
                    conjugator_isometry=g_iso,
                )))
    return family


@dataclass
class EscapeRow:
    iterate: int
    word_length: int
    length: float


@dataclass
class EscapeReport:
    juncture: str
    sign: str
    verdict: str                 # 'escaping' | 'non-escaping' | 'inconclusive'
    rows: list[EscapeRow]
    growth_ratio: float
    horizon: int


def escape_test(scene, juncture: JunctureSpec,
                horizon: int = DEFAULT_ESCAPE_HORIZON,
                growth_ratio: float = DEFAULT_GROWTH_RATIO,
                max_letters: int = DEFAULT_MAX_LETTERS,
                trace_tol: float = TRACE_TOL) -> EscapeReport:
    """Translation-length dichotomy along the juncture's growth direction.

    Bounded lengths over the horizon read as escaping; growth past the
    ratio with a monotone tail reads as non-escaping; anything else is
    inconclusive.
    """
    if horizon < 3:
        raise ValidationError("escape horizon must be at least 3")
    direction = 1 if juncture.sign == "-" else -1
    rows = []
    for step in range(horizon + 1):
        n = direction * step
        word_n = apply_automorphism(scene.automorphism, juncture.word, n,
                                    max_letters=max_letters)
        # Translation length only depends on the conjugacy class; the
        # cyclic core keeps the evaluation numerically sane.
        _, core = word_n.cyclic_decomposition()
        m = evaluate_word(scene.group, core)
        if classify_isometry(m, trace_tol) != "hyperbolic":
            raise NotHyperbolicError(
                f"iterate {n} of juncture {juncture.end!r} is not hyperbolic"
            )
        rows.append(EscapeRow(iterate=n, word_length=len(word_n),
                              length=translation_length(m, trace_tol)))
    lengths = [r.length for r in rows]
    base = lengths[0]
    if all(ell <= growth_ratio * base for ell in lengths):
        verdict = "escaping"
    else:
        tail = lengths[-(max(2, horizon // 2) + 1):]
        grew = lengths[-1] / base > growth_ratio
        monotone = all(b >= a for a, b in zip(tail, tail[1:]))
        verdict = "non-escaping" if (grew and monotone) else "inconclusive"
    return EscapeReport(juncture=juncture.end, sign=juncture.sign,
                        verdict=verdict, rows=rows,
                        growth_ratio=growth_ratio, horizon=horizon)


@dataclass
class ChainCertificate:
    juncture: str
    sign: str
    conjugator: Word
    iterates: tuple[int, ...]
    gaps: tuple[float, ...]      # successive endpoint gaps, oldest first


@dataclass
class SkippedChain:
    juncture: str
    sign: str
    conjugator: Word
    reason: str


@dataclass
class LaminationApprox:
    """Certified limit leaves of one sign of lamination."""

    sign: str                    # sign of the lamination, not the junctures
    leaves: list[Geodesic]
    certificates: list[ChainCertificate]
    skipped: list[SkippedChain]


def _aitken_angle(thetas) -> float:
    """Delta-squared extrapolation of an angle sequence near its limit."""
    t0, t1, t2 = thetas[-3], thetas[-2], thetas[-1]
    d1 = (t1 - t0 + math.pi) % TWO_PI - math.pi
    d2 = (t2 - t1 + math.pi) % TWO_PI - math.pi
    denom = d1 - d2
    if abs(denom) < 1e-15 or abs(d2) >= abs(d1):
        return t2 % TWO_PI
    correction = d2 * d2 / denom
    if abs(correction) > abs(d2):
        return t2 % TWO_PI
    return (t2 + correction) % TWO_PI


def _chain_gap(g1: Geodesic, g2: Geodesic) -> float:
    return max(angular_gap(g1.a.theta, g2.a.theta),
               angular_gap(g1.b.theta, g2.b.theta))


def extract_limit_leaves(family: GeodesicFamily,
                         tol: float = DEFAULT_TOL,
                         angle_tol: float = ANGLE_TOL) -> LaminationApprox:
    """Extrapolate each convergent provenance chain to a limit geodesic.

    A chain is accepted when its last gaps sink below ``tol`` while
    decreasing (stalls below the floating-point floor are tolerated).
    Constant chains are excluded: their limit is the juncture axis
    itself, and the lamination is the closure minus the family.
    """
    signs = family.signs()
    if len(signs) > 1:
        raise ValidationError("family mixes juncture signs; extract per sign")
    juncture_sign = signs.pop() if signs else "-"
    lam_sign = "+" if juncture_sign == "-" else "-"

    chains: dict[tuple, list[tuple[int, Geodesic]]] = {}
    chain_meta: dict[tuple, Provenance] = {}
    for geo, prov in family.entries:
        chains.setdefault(prov.chain_key(), []).append((prov.iterate, geo))
        chain_meta.setdefault(prov.chain_key(), prov)

    leaves: list[Geodesic] = []
    certificates: list[ChainCertificate] = []
    skipped: list[SkippedChain] = []
    leaf_set = _AngleSetDedup(angle_tol)
    base_limits: dict[tuple, Geodesic] = {}

    for key, items in chains.items():
        prov = chain_meta[key]
        reverse = prov.sign == "+"
        items.sort(key=lambda item: item[0], reverse=reverse)
        if len(items) == 1:
            # Deduplication collapsed the whole chain, either because the
            # substitution fixes this axis (then the limit is the family
            # member itself, which the lamination excludes by definition)
            # or because an earlier chain already carries these axes.
            skipped.append(SkippedChain(prov.juncture, prov.sign,
                                        prov.conjugator,
                                        "chain collapsed to a single axis; "
                                        "its limit is a family member"))
            continue
        if len(items) < 4:
            skipped.append(SkippedChain(prov.juncture, prov.sign,
                                        prov.conjugator,
                                        "fewer than 4 distinct iterates"))
            continue
        geos = [geo for _, geo in items]
        gaps = [_chain_gap(g1, g2) for g1, g2 in zip(geos, geos[1:])]
        tail = gaps[-4:] if len(gaps) >= 4 else gaps
        if tail[-1] >= tol:
            skipped.append(SkippedChain(prov.juncture, prov.sign,
                                        prov.conjugator,
                                        f"last gap {tail[-1]:.3e} above "
                                        f"tolerance {tol:.1e}"))
            continue
        decreasing = all(b < a or b < GAP_FLOOR
                         for a, b in zip(tail, tail[1:]))
        if not decreasing:
            skipped.append(SkippedChain(prov.juncture, prov.sign,
                                        prov.conjugator,
                                        "endpoint gaps not decreasing"))
            continue
        base = base_limits.get((prov.juncture, prov.sign))
        if prov.conjugator.is_identity() or base is None \
                or prov.conjugator_isometry is None:
            theta_a = _aitken_angle([g.a.theta for g in geos])
            theta_b = _aitken_angle([g.b.theta for g in geos])
            if angular_gap(theta_a, theta_b) < angle_tol:
                skipped.append(SkippedChain(prov.juncture, prov.sign,
                                            prov.conjugator,
                                            "chain collapses toward a "
                                            "single boundary point"))
                continue
            limit = Geodesic(IdealPoint(theta_a), IdealPoint(theta_b))
            if prov.conjugator.is_identity():
                base_limits[(prov.juncture, prov.sign)] = limit
        else:
            # Transport the base chain's limit: the conjugated chain
            # converges to exactly this geodesic, and computing it as a
            # single Mobius image keeps endpoints that are shared between
            # leaves equal at float resolution.
            limit = Geodesic(
                boundary_action(prov.conjugator_isometry, base.a),
                boundary_action(prov.conjugator_isometry, base.b),
            )
        if not leaf_set.check_and_add(limit):
            continue
        leaves.append(limit)
        certificates.append(ChainCertificate(
            juncture=prov.juncture,
            sign=prov.sign,
            conjugator=prov.conjugator,
            iterates=tuple(n for n, _ in items),
            gaps=tuple(gaps[-8:]),
        ))
    return LaminationApprox(sign=lam_sign, leaves=leaves,
                            certificates=certificates, skipped=skipped)


@dataclass
class CrossingViolation:
    index_a: int
    index_b: int
    leaf_a: Geodesic
    leaf_b: Geodesic


def crossing_audit(lam: LaminationApprox,
                   tol: float | None = None) -> list[CrossingViolation]:
    """Pairs of leaves of one lamination that transversely cross."""
    violations = []
    leaves = lam.leaves
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            if geodesic_relation(leaves[i], leaves[j], tol) == "cross":
                violations.append(CrossingViolation(i, j, leaves[i],
                                                    leaves[j]))
    return violations


@dataclass
class IntersectionRecord:
    plus_index: int
    minus_index: int
    x: float                     # disk coordinates
    y: float


@dataclass
class MeagerInvariantSet:
    """Transverse meeting points of the two laminations."""

    points: list[IntersectionRecord]
    uncovered_plus: list[int]    # leaves meeting nothing on the other side
    uncovered_minus: list[int]


def _coverage(uncovered: list[int], total: int) -> float:
    """Share of a family's leaves that meet the other family."""
    return 1.0 - len(uncovered) / total if total else 0.0


def transversal_intersections(lam_plus: LaminationApprox,
                              lam_minus: LaminationApprox,
                              tol: float | None = None) -> MeagerInvariantSet:
    """All cross pairs between the two leaf families with their points.

    Two distinct geodesics meet at most once, so each pair contributes at
    most one record.  Leaves meeting nothing opposite are flagged.
    """
    points: list[IntersectionRecord] = []
    met_plus = set()
    met_minus = set()
    for i, gp in enumerate(lam_plus.leaves):
        for j, gm in enumerate(lam_minus.leaves):
            if geodesic_relation(gp, gm, tol) != "cross":
                continue
            met_plus.add(i)
            met_minus.add(j)
            p = geodesic_intersection(gp, gm, tol)
            x, y = to_disk(p)
            points.append(IntersectionRecord(plus_index=i, minus_index=j,
                                             x=x, y=y))
    uncovered_plus = [i for i in range(len(lam_plus.leaves))
                      if i not in met_plus]
    uncovered_minus = [j for j in range(len(lam_minus.leaves))
                       if j not in met_minus]
    return MeagerInvariantSet(points=points, uncovered_plus=uncovered_plus,
                              uncovered_minus=uncovered_minus)


@dataclass
class AxiomParams:
    """Everything one lamination run reads, tolerances included."""

    horizon: int = DEFAULT_HORIZON
    ball: int = DEFAULT_BALL
    tol: float = DEFAULT_TOL
    max_letters: int = DEFAULT_MAX_LETTERS
    max_words: int = DEFAULT_MAX_WORDS
    angle_tol: float = ANGLE_TOL
    trace_tol: float = TRACE_TOL


@dataclass
class LaminationRun:
    """Juncture families of a scene and the two laminations they yield."""

    families: list[tuple[JunctureSpec, GeodesicFamily]]  # scene order
    # None without junctures of the opposite sign, or without extraction.
    plus: LaminationApprox | None = None
    minus: LaminationApprox | None = None


def laminate(scene, params: AxiomParams,
             extract: bool = True) -> LaminationRun:
    """Juncture orbits in scene order, then the limit leaves of each sign
    (negative junctures give the plus lamination).  ``extract=False``
    builds the families only."""
    n_range = range(-params.horizon, params.horizon + 1)
    run = LaminationRun([
        (j, juncture_orbit(scene, j, n_range, params.ball,
                           max_letters=params.max_letters,
                           max_words=params.max_words,
                           angle_tol=params.angle_tol,
                           trace_tol=params.trace_tol))
        for j in scene.junctures
    ])
    if not extract:
        return run
    for juncture_sign, attr in (("-", "plus"), ("+", "minus")):
        families = [fam for j, fam in run.families if j.sign == juncture_sign]
        if families:
            merged = GeodesicFamily.merge(families, params.angle_tol)
            setattr(run, attr, extract_limit_leaves(
                merged, tol=params.tol, angle_tol=params.angle_tol))
    return run


@dataclass
class AxiomStatus:
    status: str                  # 'pass' | 'fail' | 'flag' | 'not-checked'
    detail: str
    data: dict = field(default_factory=dict)


@dataclass
class AxiomReport:
    caveat: str
    endperiodic_like: bool
    axioms: dict[str, AxiomStatus]
    lamination_plus: LaminationApprox
    lamination_minus: LaminationApprox
    intersections: MeagerInvariantSet


def axiom_report(scene, params: AxiomParams | None = None) -> AxiomReport:
    """Run orbits, extraction, audits and intersections for both signs.

    Everything here is finite-horizon evidence, never proof; the report
    says so via its caveat field.
    """
    params = params or AxiomParams()
    run = laminate(scene, params)
    lam_plus = run.plus or LaminationApprox("+", [], [], [])
    lam_minus = run.minus or LaminationApprox("-", [], [], [])

    axioms: dict[str, AxiomStatus] = {}
    endperiodic_like = bool(lam_plus.leaves) and bool(lam_minus.leaves)

    if not endperiodic_like:
        detail = ("no limit leaves emerged at this horizon; the scene does "
                  "not look endperiodic")
        for name in ("I", "II", "III", "IV", "V", "VI"):
            axioms[name] = AxiomStatus("not-checked", detail)
        return AxiomReport(
            caveat="finite-approximation evidence only",
            endperiodic_like=False,
            axioms=axioms,
            lamination_plus=lam_plus,
            lamination_minus=lam_minus,
            intersections=MeagerInvariantSet([], [], []),
        )

    violations_plus = crossing_audit(lam_plus, params.angle_tol)
    violations_minus = crossing_audit(lam_minus, params.angle_tol)
    ok = not violations_plus and not violations_minus
    axioms["I"] = AxiomStatus(
        "pass" if ok else "fail",
        "no transverse crossings inside either leaf family" if ok else
        f"{len(violations_plus)} crossings in the plus family, "
        f"{len(violations_minus)} in the minus family",
        data={
            "violations_plus": [(v.index_a, v.index_b)
                                for v in violations_plus],
            "violations_minus": [(v.index_a, v.index_b)
                                 for v in violations_minus],
        },
    )

    axioms["II"] = AxiomStatus(
        "not-checked",
        "strong closedness has no finite-horizon certificate",
    )

    meager = transversal_intersections(lam_plus, lam_minus, params.angle_tol)
    cov_plus = _coverage(meager.uncovered_plus, len(lam_plus.leaves))
    cov_minus = _coverage(meager.uncovered_minus, len(lam_minus.leaves))
    full = not meager.uncovered_plus and not meager.uncovered_minus
    axioms["III"] = AxiomStatus(
        "pass" if full else "flag",
        f"coverage {cov_plus:.3f} (plus side), {cov_minus:.3f} (minus "
        f"side); single-point meetings are automatic for geodesics",
        data={
            "coverage_plus": cov_plus,
            "coverage_minus": cov_minus,
            "uncovered_plus": meager.uncovered_plus,
            "uncovered_minus": meager.uncovered_minus,
            "points": len(meager.points),
        },
    )

    axioms["IV"] = AxiomStatus(
        "not-checked",
        "end behaviour of leaves is a statement about the quotient "
        "surface, outside this approximation",
    )

    axioms["V"] = AxiomStatus(
        "pass",
        "the verified substitution rule models a lamination-preserving "
        "map on the boundary circle",
    )

    # VI(1) transversality in single points is automatic for geodesic
    # carriers; VI(2), accumulation of the juncture families on the
    # leaves, is witnessed by the certified Cauchy chains.
    accepted = len(lam_plus.certificates) + len(lam_minus.certificates)
    skipped = len(lam_plus.skipped) + len(lam_minus.skipped)
    vi_ok = accepted > 0
    axioms["VI"] = AxiomStatus(
        "pass" if vi_ok else "flag",
        f"single-point crossings hold by geodesic carriers; accumulation "
        f"witnessed by {accepted} certified chains ({skipped} skipped)",
        data={"accepted_chains": accepted, "skipped_chains": skipped},
    )

    return AxiomReport(
        caveat="finite-approximation evidence only",
        endperiodic_like=True,
        axioms=axioms,
        lamination_plus=lam_plus,
        lamination_minus=lam_minus,
        intersections=meager,
    )
