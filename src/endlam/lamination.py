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
from itertools import compress

import numpy as np

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
    ANGLE_TOL_FLOOR,
    TRACE_TOL,
    TWO_PI,
    Geodesic,
    Isometry,
    angular_gap,
    angular_gaps,
    axis,
    boundary_action,
    boundary_images,
    classify_isometry,
    first_distinct,
    geodesic_intersection,
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
class ChainProvenance:
    """Where one chain of a family comes from: a juncture component and a
    conjugator (fixed along the chain while the iterate advances)."""

    juncture: JunctureSpec
    conjugator: Word
    # Evaluated conjugator, kept so chain limits can be transported from
    # the base chain equivariantly (equal endpoints stay equal in floats).
    conjugator_isometry: Isometry | None = field(default=None, kw_only=True)

    def chain_key(self):
        # Nothing in endlam reads this: the benchmark tracer
        # (perfbench/spans.py) counts a family's chains as the distinct
        # keys of its entries.
        return (self.juncture, self.conjugator.letters)


@dataclass(frozen=True)
class Provenance(ChainProvenance):
    """One entry's chain and iterate, as ``GeodesicFamily.entries`` gives
    them."""

    iterate: int


@dataclass(eq=False)
class GeodesicFamily:
    """Deduplicated geodesics held as arrays, one element per entry.

    Entry i has endpoint angles ``ta[i]``, ``tb[i]`` and is iterate
    ``iterate[i]`` of chain ``chains[chain[i]]``.  Chains are numbered in
    the order their first entries appear.
    ``angle_tol`` is the tolerance the entries were deduplicated at, or
    None when that is not known.  ``entries`` and ``geodesics()`` build
    (checked) objects from the arrays on demand.
    """

    ta: np.ndarray = field(default_factory=lambda: np.empty(0))
    tb: np.ndarray = field(default_factory=lambda: np.empty(0))
    chain: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    iterate: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    chains: list[ChainProvenance] = field(default_factory=list)
    angle_tol: float | None = None

    def __len__(self):
        return len(self.ta)

    @property
    def entries(self) -> list[tuple[Geodesic, Provenance]]:
        return [(Geodesic.from_angles(a, b), Provenance(**vars(c), iterate=n))
                for a, b, c, n in zip(self.ta.tolist(), self.tb.tolist(),
                                      map(self.chains.__getitem__,
                                          self.chain.tolist()),
                                      self.iterate.tolist())]

    def geodesics(self) -> list[Geodesic]:
        return [Geodesic.from_angles(a, b)
                for a, b in zip(self.ta.tolist(), self.tb.tolist())]

    @classmethod
    def merge(cls, families,
              angle_tol: float = ANGLE_TOL) -> "GeodesicFamily":
        """The entries of ``families`` in order, kept by
        :func:`first_distinct` at ``angle_tol``.  Chains of different
        families stay apart; a chain left without entries is dropped and
        the rest are numbered by their first kept entries.  A lone family
        already deduplicated at ``angle_tol`` (as ``juncture_orbit`` leaves
        it) is returned unchanged: ``first_distinct`` keeps every pair of
        its own output."""
        families = list(families)
        if len(families) == 1 and families[0].angle_tol == angle_tol:
            return families[0]
        if not families:
            return cls(angle_tol=angle_tol)
        ta, tb, chain, iterate = (
            np.concatenate([getattr(fam, name) for fam in families])
            for name in ("ta", "tb", "chain", "iterate"))
        offsets = np.cumsum([0] + [len(fam.chains) for fam in families])
        chain += np.repeat(offsets[:-1], [len(fam) for fam in families])
        chains = [c for fam in families for c in fam.chains]
        keep = first_distinct(np.minimum(ta, tb), np.maximum(ta, tb),
                              angle_tol)
        chain = chain[keep]
        ids, first = np.unique(chain, return_index=True)
        used = ids[np.argsort(first)]
        renumber = np.zeros(len(chains), dtype=np.int64)
        renumber[used] = np.arange(len(used))
        return cls(ta[keep], tb[keep], renumber[chain], iterate[keep],
                   [chains[c] for c in used.tolist()], angle_tol)


def _iterate_cores(scene, juncture: JunctureSpec, iterates,
                   max_letters: int, trace_tol: float):
    """Yield ``(n, phi^n(w), g, core isometry)`` for each n in ``iterates``,
    in the given order, where phi^n(w) = g * core * g^-1 with the core
    cyclically reduced and hyperbolic.

    Each word is one substitution step from its neighbour toward n = 0,
    so every step is taken once.  Only the core is evaluated: the full
    word would cancel its trace catastrophically once g grows.
    """
    words = {0: juncture.word}
    for n in iterates:
        step = 1 if n > 0 else -1
        start = n
        while start not in words:
            start -= step
        for m in range(start, n, step):
            words[m + step] = apply_automorphism(
                scene.automorphism, words[m], step, max_letters=max_letters)
        conj, core = words[n].cyclic_decomposition()
        core_m = evaluate_word(scene.group, core)
        kind = classify_isometry(core_m, trace_tol)
        if kind != "hyperbolic":
            raise NotHyperbolicError(
                f"iterate {n} of juncture {juncture.end!r} evaluates to a "
                f"{kind} isometry"
            )
        yield n, words[n], conj, core_m


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
    the identity conjugator enumerated first so its chain stays intact,
    and kept as arrays: no per-entry object is built.
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
    axes: list[Geodesic] = []
    for n, _, conj, core_m in _iterate_cores(scene, juncture, iterates,
                                             max_letters, trace_tol):
        base = axis(core_m, trace_tol)
        if not conj.is_identity():
            conj_m = evaluate_word(scene.group, conj)
            base = Geodesic(boundary_action(conj_m, base.a),
                            boundary_action(conj_m, base.b))
        axes.append(base)
    # Endpoint angles of every candidate, g-major and iterate-minor; the
    # identity, first in the ball, keeps the axes' own angles.
    mats = [[getattr(g, x) for _, g in ball] for x in "abcd"]
    ends = []
    for x in "ab":
        points = [getattr(base, x) for base in axes]
        t = boundary_images(*mats, points)
        t[0] = [p.theta for p in points]
        ends.append(t.ravel())
    ta, tb = ends
    if (angular_gaps(ta, tb) < ANGLE_TOL).any():
        raise ValidationError("geodesic endpoints coincide")
    keep = first_distinct(np.minimum(ta, tb), np.maximum(ta, tb), angle_tol)
    kept = np.flatnonzero(keep)
    used, chain = np.unique(kept // len(axes), return_inverse=True)
    return GeodesicFamily(
        ta[keep], tb[keep], chain, np.array(iterates)[kept % len(axes)],
        [ChainProvenance(juncture, word, conjugator_isometry=g_m)
         for word, g_m in map(ball.__getitem__, used.tolist())], angle_tol)


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
    if not growth_ratio > 1:
        raise ValidationError(
            f"escape growth ratio must exceed 1, got {growth_ratio:g}")
    direction = 1 if juncture.sign == "-" else -1
    iterates = [direction * step for step in range(horizon + 1)]
    # Translation length depends only on the conjugacy class, so the core
    # alone gives it.
    rows = [EscapeRow(iterate=n, word_length=len(word_n),
                      length=translation_length(core_m, trace_tol))
            for n, word_n, _, core_m in _iterate_cores(
                scene, juncture, iterates, max_letters, trace_tol)]
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

    leaves: list[Geodesic]
    certificates: list[ChainCertificate]
    skipped: list[SkippedChain]
    # Axiom I audit of the leaves; None until laminate() runs it.
    crossing_violations: list[CrossingViolation] | None = None


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


def extract_limit_leaves(family: GeodesicFamily,
                         tol: float = DEFAULT_TOL,
                         angle_tol: float = ANGLE_TOL) -> LaminationApprox:
    """Extrapolate each convergent provenance chain to a limit geodesic.

    A chain is accepted when its last gaps sink below ``tol`` while
    decreasing (stalls below the floating-point floor are tolerated).
    Constant chains are excluded: their limit is the juncture axis
    itself, and the lamination is the closure minus the family.
    """
    signs = {c.juncture.sign for c in family.chains}
    if len(signs) > 1:
        raise ValidationError("family mixes juncture signs; extract per sign")

    # Entries by chain in first-appearance order, and along each chain by
    # iterate in its convergence direction (descending for "+" junctures).
    order = np.lexsort((-family.iterate if signs == {"+"}
                        else family.iterate, family.chain))
    chain, ta, tb = family.chain[order], family.ta[order], family.tb[order]
    steps = np.maximum(angular_gaps(ta[:-1], ta[1:]),
                       angular_gaps(tb[:-1], tb[1:])).tolist()
    starts = np.flatnonzero(np.diff(chain, prepend=-1)).tolist()
    chain, ta, tb = chain.tolist(), ta.tolist(), tb.tolist()
    iterates = family.iterate[order].tolist()

    leaves: list[Geodesic] = []
    certificates: list[ChainCertificate] = []
    skipped: list[SkippedChain] = []
    base_limits: dict[JunctureSpec, Geodesic] = {}

    for start, end in zip(starts, starts[1:] + [len(chain)]):
        prov = family.chains[chain[start]]
        count = end - start
        gaps = steps[start:end - 1]
        tail = gaps[-4:]
        base = base_limits.get(prov.juncture)
        transported = not (prov.conjugator.is_identity() or base is None
                           or prov.conjugator_isometry is None)
        ends = None
        if not transported and count >= 4:
            ends = (_aitken_angle(ta[end - 3:end]),
                    _aitken_angle(tb[end - 3:end]))
        reason = None
        if count == 1:
            # Deduplication collapsed the whole chain, either because the
            # substitution fixes this axis (then the limit is the family
            # member itself, which the lamination excludes by definition)
            # or because an earlier chain already carries these axes.
            reason = ("chain collapsed to a single axis; its limit is a "
                      "family member")
        elif count < 4:
            reason = "fewer than 4 distinct iterates"
        elif tail[-1] >= tol:
            reason = (f"last gap {tail[-1]:.3e} above tolerance "
                      f"{tol:.1e}")
        elif not all(b < a or b < GAP_FLOOR for a, b in zip(tail, tail[1:])):
            reason = "endpoint gaps not decreasing"
        elif ends and angular_gap(*ends) < angle_tol:
            reason = "chain collapses toward a single boundary point"
        if reason is not None:
            skipped.append(SkippedChain(
                prov.juncture.end, prov.juncture.sign, prov.conjugator,
                reason))
            continue
        if transported:
            # Transport the base chain's limit: the conjugated chain
            # converges to exactly this geodesic, and computing it as a
            # single Mobius image keeps endpoints that are shared between
            # leaves equal at float resolution.
            limit = Geodesic(
                boundary_action(prov.conjugator_isometry, base.a),
                boundary_action(prov.conjugator_isometry, base.b),
            )
        else:
            limit = Geodesic.from_angles(*ends)
            if prov.conjugator.is_identity():
                base_limits[prov.juncture] = limit
        leaves.append(limit)
        certificates.append(ChainCertificate(
            juncture=prov.juncture.end,
            sign=prov.juncture.sign,
            conjugator=prov.conjugator,
            iterates=tuple(iterates[start:end]),
            gaps=tuple(gaps[-8:]),
        ))
    u, v = np.array([g.sorted_angles() for g in leaves]).reshape(-1, 2).T
    keep = first_distinct(u, v, angle_tol).tolist()
    return LaminationApprox(leaves=list(compress(leaves, keep)),
                            certificates=list(compress(certificates, keep)),
                            skipped=skipped)


@dataclass
class CrossingViolation:
    index_a: int
    index_b: int
    leaf_a: Geodesic
    leaf_b: Geodesic


_MASK_ROWS = 64  # mask rows per block: float temporaries stay under ~1 MB


def _crossing_mask(leaves_p: list[Geodesic], leaves_q: list[Geodesic],
                   tol: float) -> np.ndarray:
    """True where leaf i of ``leaves_p`` crosses leaf j of ``leaves_q``.

    Only the float steps of ``geodesic_relation`` (subtraction, ``abs``,
    ``%``, comparisons), so each pair gets the scalar verdict bit for bit.
    """
    p, q = (np.array([(g.a.theta, g.b.theta) for g in leaves]).reshape(-1, 2)
            for leaves in (leaves_p, leaves_q))
    a2, b2 = q.T
    mask = np.empty((len(p), len(q)), dtype=bool)
    for start in range(0, len(p), _MASK_ROWS):
        block = p[start:start + _MASK_ROWS]
        a1, b1 = block[:, :1], block[:, 1:]
        beta = (b1 - a1) % TWO_PI
        crossing = ((a2 - a1) % TWO_PI < beta) != ((b2 - a1) % TWO_PI < beta)
        for u in (a1, b1):
            for v in (a2, b2):
                crossing &= angular_gaps(u, v) >= tol
        mask[start:start + _MASK_ROWS] = crossing
    return mask


def crossing_audit(lam: LaminationApprox,
                   tol: float = ANGLE_TOL) -> list[CrossingViolation]:
    """Pairs of leaves of one lamination that transversely cross, read
    row-major off the crossing mask (``geodesic_relation`` per pair is
    the scalar reference)."""
    leaves = lam.leaves
    mask = np.triu(_crossing_mask(leaves, leaves, tol), 1)
    return [CrossingViolation(i, j, leaves[i], leaves[j])
            for i, j in np.argwhere(mask).tolist()]


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
                              tol: float = ANGLE_TOL) -> MeagerInvariantSet:
    """All cross pairs between the two leaf families with their points.

    The crossing mask picks the pairs (row-major), and only those reach
    the scalar ``geodesic_intersection``.  Two distinct geodesics meet at
    most once, so each pair contributes at most one record.  Leaves
    meeting nothing opposite are flagged.
    """
    mask = _crossing_mask(lam_plus.leaves, lam_minus.leaves, tol)
    points = [IntersectionRecord(i, j, *to_disk(geodesic_intersection(
                  lam_plus.leaves[i], lam_minus.leaves[j], tol)))
              for i, j in np.argwhere(mask).tolist()]
    return MeagerInvariantSet(
        points=points,
        uncovered_plus=np.flatnonzero(~mask.any(axis=1)).tolist(),
        uncovered_minus=np.flatnonzero(~mask.any(axis=0)).tolist())


@dataclass
class AxiomParams:
    """Everything one lamination run reads, tolerances included.  The CLI
    also checks the flags of ``limit-set`` and ``escape`` through it."""

    horizon: int = DEFAULT_HORIZON
    ball: int = DEFAULT_BALL
    tol: float = DEFAULT_TOL
    max_letters: int = DEFAULT_MAX_LETTERS
    max_words: int = DEFAULT_MAX_WORDS
    angle_tol: float = ANGLE_TOL
    trace_tol: float = TRACE_TOL

    def __post_init__(self):
        if self.horizon < 0:
            raise ValidationError(
                f"horizon must be nonnegative, got {self.horizon}")
        for what, value in (("chain tolerance", self.tol),
                            ("angle tolerance", self.angle_tol),
                            ("trace tolerance", self.trace_tol)):
            if not value > 0:
                raise ValidationError(
                    f"{what} must be positive, got {value:g}")
        if self.angle_tol < ANGLE_TOL_FLOOR:
            raise ValidationError(
                f"angle tolerance must be at least {ANGLE_TOL_FLOOR:g}, "
                f"got {self.angle_tol:g}")
        for what, value in (("letter budget", self.max_letters),
                            ("word budget", self.max_words)):
            if value < 1:
                raise ValidationError(
                    f"{what} must be at least 1, got {value}")


@dataclass
class LaminationRun:
    """Juncture families of a scene, the audited laminations they yield
    and where the two laminations meet."""

    families: list[tuple[JunctureSpec, GeodesicFamily]]  # scene order
    # Keyed by lamination sign, "+" first; a sign is absent without
    # junctures of the opposite sign, and both are without extraction.
    laminations: dict[str, LaminationApprox] = field(default_factory=dict)
    intersections: MeagerInvariantSet | None = None  # needs both signs


def laminate(scene, params: AxiomParams,
             extract: bool = True) -> LaminationRun:
    """Juncture orbits in scene order, the limit leaves of each sign
    (negative junctures give the plus lamination), their crossing audits
    and the transverse intersections of the two.  ``extract=False``
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
    lams = run.laminations
    for lam_sign, juncture_sign in (("+", "-"), ("-", "+")):
        families = [fam for j, fam in run.families if j.sign == juncture_sign]
        if families:
            merged = GeodesicFamily.merge(families, params.angle_tol)
            lams[lam_sign] = extract_limit_leaves(
                merged, tol=params.tol, angle_tol=params.angle_tol)
    for lam in lams.values():
        lam.crossing_violations = crossing_audit(lam, params.angle_tol)
    if len(lams) == 2:
        run.intersections = transversal_intersections(
            lams["+"], lams["-"], params.angle_tol)
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
    run: LaminationRun


def axiom_report(scene, params: AxiomParams | None = None) -> AxiomReport:
    """Grade one audited lamination run against the axioms.

    Everything here is finite-horizon evidence, never proof; the report
    says so via its caveat field.
    """
    run = laminate(scene, params or AxiomParams())
    lams = run.laminations
    report = AxiomReport(
        caveat="finite-approximation evidence only",
        endperiodic_like=len(lams) == 2 and all(
            lam.leaves for lam in lams.values()),
        axioms={},
        run=run,
    )
    axioms = report.axioms

    if not report.endperiodic_like:
        detail = ("no limit leaves emerged at this horizon; the scene does "
                  "not look endperiodic")
        for name in ("I", "II", "III", "IV", "V", "VI"):
            axioms[name] = AxiomStatus("not-checked", detail)
        return report

    lam_plus, lam_minus = lams["+"], lams["-"]
    violations_plus = lam_plus.crossing_violations
    violations_minus = lam_minus.crossing_violations
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

    meager = run.intersections
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

    return report
