"""Juncture orbits and their certified limit leaves.

A juncture's conjugacy class is pushed around by the substitution rule;
the axes of its conjugates form a geodesic family whose convergent chains
(fixed conjugator, advancing iterate) are extrapolated to limit leaves.
A chain is one-sided: a juncture of sign - accumulates on the plus
lamination as n -> +oo and one of sign + on the minus lamination as
n -> -oo, so a run reads the iterates n = 0..h, or 0..-h, of each
juncture, in that order.  Each accepted chain carries a Cauchy
certificate: the tail of successive endpoint gaps, which must sink below
tolerance while decreasing and contracting; a gap at the floating-point
floor is exempt from both tests.
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
    IdealPoint,
    Isometry,
    angular_gap,
    angular_gaps,
    axis,
    boundary_action,
    boundary_images,
    classify_isometry,
    first_distinct,
    geodesic_intersections,
    translation_length,
)

# Gaps below this are at the resolution floor of double-precision angles;
# a tail gap stuck there passes both the decrease and the contraction test.
GAP_FLOOR = 1e-13
# Each tail gap at or above GAP_FLOOR is at most this times the one before
# it.  A chain that alternates between two limits has gaps near a constant
# that still decrease; certified chains on the shipped scene contract at
# 0.171 or faster.
CONTRACTION_RATIO = 0.5

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
    the order their first entries appear.  ``entries`` builds (checked)
    objects from the arrays on demand.
    """

    ta: np.ndarray = field(default_factory=lambda: np.empty(0))
    tb: np.ndarray = field(default_factory=lambda: np.empty(0))
    chain: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    iterate: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    chains: list[ChainProvenance] = field(default_factory=list)

    def __len__(self):
        return len(self.ta)

    @property
    def entries(self) -> list[tuple[Geodesic, Provenance]]:
        return [(Geodesic.from_angles(a, b), Provenance(**vars(c), iterate=n))
                for a, b, c, n in zip(self.ta.tolist(), self.tb.tolist(),
                                      map(self.chains.__getitem__,
                                          self.chain.tolist()),
                                      self.iterate.tolist())]

    @classmethod
    def merge(cls, families,
              angle_tol: float = ANGLE_TOL) -> "GeodesicFamily":
        """The entries of ``families`` in order, kept by
        :func:`first_distinct` at ``angle_tol``.  Chains of different
        families stay apart; a chain left without entries is dropped and
        the rest are numbered by their first kept entries.  The result is
        a new family, also for a lone one."""
        families = list(families)
        if not families:
            return cls()
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
                   [chains[c] for c in used.tolist()])


def _iterate_cores(scene, juncture: JunctureSpec, iterates,
                   max_letters: int, trace_tol: float):
    """Yield ``(n, phi^n(w), g, core isometry)`` for each n in ``iterates``,
    in the given order, where phi^n(w) = g * core * g^-1 with the core
    cyclically reduced and hyperbolic.

    Each word is one substitution step from its neighbour toward n = 0,
    so every step is taken once.  Only the core is evaluated: the full
    word would cancel its trace catastrophically once g grows.  The
    prefix products of the last core are kept, and a core is evaluated by
    composing only its letters past the prefix it shares with the last
    one: the same ``compose`` calls in the same order as ``evaluate_word``,
    so the product is equal bit for bit and an overflow raises at the
    same letter.
    """
    letter_isometry = scene.group.letter_isometry
    words = {0: juncture.word}
    last, products = (), [Isometry.identity()]
    for n in iterates:
        step = 1 if n > 0 else -1
        start = n
        while start not in words:
            start -= step
        for m in range(start, n, step):
            words[m + step] = apply_automorphism(
                scene.automorphism, words[m], step, max_letters=max_letters)
        conj, core = words[n].cyclic_decomposition()
        letters = core.letters
        shared = next((i for i, (x, y) in enumerate(zip(last, letters))
                       if x != y), min(len(last), len(letters)))
        del products[shared + 1:]
        for x in letters[shared:]:
            products.append(products[-1].compose(letter_isometry(x)))
        last, core_m = letters, products[-1]
        kind = classify_isometry(core_m, trace_tol)
        if kind != "hyperbolic":
            raise NotHyperbolicError(
                f"iterate {n} of juncture {juncture.end!r} evaluates to a "
                f"{kind} isometry"
            )
        yield n, words[n], conj, core_m


class _OrbitTable:
    """The orbit work of one lamination run that its junctures share: the
    ball, and per juncture word the ball images of its iterates' axes.

    Each piece is built on first use and kept for the table's life, keyed
    by everything it is built from.  ``reads`` names the iterates the run
    will read of each juncture, so that a word's images are built once,
    over the union of what its junctures read, sorted in the convergence
    direction of the first juncture on it; a word the table was not told
    of is built over the iterates first asked for.  A juncture gets its
    columns of the build by index, equal bit for bit to a build of its
    own, since the images are computed element by element.
    """

    def __init__(self, scene, reads=()):
        self.scene = scene
        self._balls = {}
        self._images = {}
        unions = {}
        for juncture, iterates in reads:
            sign, union = unions.setdefault(juncture.word,
                                            (juncture.sign, set()))
            union.update(iterates)
        self._orders = {word: sorted(union, reverse=(sign == "+"))
                        for word, (sign, union) in unions.items()}

    def ball(self, ball_k: int, max_words: int):
        key = ball_k, max_words
        if key not in self._balls:
            self._balls[key] = enumerate_ball(self.scene.group, ball_k,
                                              max_words=max_words)
        return self._balls[key]

    def images(self, juncture: JunctureSpec, iterates: list[int],
               ball_k: int, max_letters: int, max_words: int,
               trace_tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Angles of the g-images of the endpoints a and b of the axis of
        each phi^n(w), a row per ball element g and a column per iterate n
        in the order of ``iterates``; the identity, first in the ball,
        keeps the axes' own angles."""
        order = self._orders.get(juncture.word, iterates)
        key = (juncture.word, tuple(order), ball_k, max_letters, max_words,
               trace_tol)
        if key not in self._images:
            self._images[key] = self._build(
                juncture, order, self.ball(ball_k, max_words), max_letters,
                trace_tol)
        column = {n: i for i, n in enumerate(order)}
        columns = [column[n] for n in iterates]
        return tuple(t[:, columns] for t in self._images[key])

    def _build(self, juncture, iterates, ball, max_letters, trace_tol):
        scene = self.scene
        axes: list[Geodesic] = []
        for n, _, conj, core_m in _iterate_cores(scene, juncture, iterates,
                                                 max_letters, trace_tol):
            base = axis(core_m, trace_tol)
            if not conj.is_identity():
                conj_m = evaluate_word(scene.group, conj)
                base = Geodesic(boundary_action(conj_m, base.a),
                                boundary_action(conj_m, base.b))
            axes.append(base)
        mats = [[getattr(g, x) for _, g in ball] for x in "abcd"]
        ends = []
        for x in "ab":
            points = [getattr(base, x) for base in axes]
            t = boundary_images(*mats, points)
            t[0] = [p.theta for p in points]
            ends.append(t)
        return tuple(ends)


def juncture_orbit(scene, juncture: JunctureSpec, n_range=None,
                   ball_k: int = DEFAULT_BALL,
                   max_letters: int = DEFAULT_MAX_LETTERS,
                   max_words: int = DEFAULT_MAX_WORDS,
                   angle_tol: float = ANGLE_TOL,
                   trace_tol: float = TRACE_TOL, *,
                   table: _OrbitTable | None = None) -> GeodesicFamily:
    """Axes of the conjugated juncture iterates.

    For every iterate n in ``n_range`` and every conjugator g in the
    radius-``ball_k`` ball, the axis of g * phi^n(w) * g^-1 enters the
    family (computed equivariantly as the g-image of the axis of
    phi^n(w)).  Entries are deduplicated keeping first occurrence, with
    the identity conjugator enumerated first so its chain stays intact,
    and kept as arrays: no per-entry object is built.  ``laminate``
    passes the converging side of the juncture, n = 0..h or 0..-h;
    ``render`` draws -h..h.  The ball and the images come from ``table``,
    the run's shared ``_OrbitTable``, whose columns for these iterates are
    what the call would build alone; without one the call builds its own.
    """
    if n_range is None:
        n_range = range(-DEFAULT_HORIZON, DEFAULT_HORIZON + 1)
    if table is None:
        table = _OrbitTable(scene)
    # Insert along the chain's convergence direction (ascending for
    # negative junctures, descending for positive ones) so that when the
    # tail clusters below the angle tolerance, deduplication keeps the
    # earliest cluster member and the surviving tail stays geometric.
    iterates = sorted(set(int(n) for n in n_range),
                      reverse=(juncture.sign == "+"))
    ball = table.ball(ball_k, max_words)
    # Endpoint angles of every candidate, g-major and iterate-minor.
    ta, tb = (t.ravel() for t in table.images(
        juncture, iterates, ball_k, max_letters, max_words, trace_tol))
    if (angular_gaps(ta, tb) < ANGLE_TOL).any():
        raise ValidationError("geodesic endpoints coincide")
    keep = first_distinct(np.minimum(ta, tb), np.maximum(ta, tb), angle_tol)
    kept = np.flatnonzero(keep)
    used, chain = np.unique(kept // len(iterates), return_inverse=True)
    return GeodesicFamily(
        ta[keep], tb[keep], chain, np.array(iterates)[kept % len(iterates)],
        [ChainProvenance(juncture, word, conjugator_isometry=g_m)
         for word, g_m in map(ball.__getitem__, used.tolist())])


def _converging_iterates(juncture: JunctureSpec, horizon: int) -> list[int]:
    """n = 0..horizon for a juncture of sign -, 0..-horizon for one of
    sign +, in that order: the side on which its iterates accumulate on a
    lamination (the plus one and the minus one respectively)."""
    direction = 1 if juncture.sign == "-" else -1
    return [direction * step for step in range(horizon + 1)]


def _require_finite(what: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value:g}")


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
    _require_finite("escape growth ratio", growth_ratio)
    iterates = _converging_iterates(juncture, horizon)
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


_SINGLE, _FEW, _LAST_GAP, _NOT_DECREASING, _NOT_CONTRACTING, _COLLAPSES = (
    range(1, 7))
# Skip reasons by verdict, but for _LAST_GAP's, which names the gap.
_REASONS = {
    # Deduplication collapsed the whole chain, either because the
    # substitution fixes this axis (then the limit is the family member
    # itself, which the lamination excludes by definition) or because an
    # earlier chain already carries these axes.
    _SINGLE: "chain collapsed to a single axis; its limit is a family member",
    _FEW: "fewer than 4 distinct iterates",
    _NOT_DECREASING: "endpoint gaps not decreasing",
    _NOT_CONTRACTING: "endpoint gaps not contracting",
    # Decided on the Aitken limit of a chain that passed the others.
    _COLLAPSES: "chain collapses toward a single boundary point",
}


def _chain_verdicts(steps: np.ndarray, counts: np.ndarray,
                    ends: np.ndarray, tol: float) -> np.ndarray:
    """Each chain's verdict from its entry count and its tail, the last
    four gaps (three on a chain of four entries): the first test it fails,
    in the order of the verdict numbers, or 0.  Chain i's gaps are
    ``steps[ends[i] - counts[i]:ends[i] - 1]``."""
    verdict = np.where(counts == 1, _SINGLE,
                       np.where(counts < 4, _FEW, 0))
    long = np.flatnonzero(counts >= 4)
    last = ends[long] - 2
    # Tail pairs (gap k - 1, gap k) for k = last, last - 1 and, on chains
    # of five entries or more, last - 2; a missing pair passes both tests.
    back = np.arange(3)[:, None]
    k = last - back
    missing = back > counts[long] - 3
    a, b = steps[k - 1], steps[k]
    floor = b < GAP_FLOOR
    decreasing = ((b < a) | floor | missing).all(axis=0)
    contracting = ((b <= CONTRACTION_RATIO * a) | floor | missing).all(axis=0)
    verdict[long] = np.select(
        [steps[last] >= tol, ~decreasing, ~contracting],
        [_LAST_GAP, _NOT_DECREASING, _NOT_CONTRACTING], 0)
    return verdict


def extract_limit_leaves(family: GeodesicFamily,
                         tol: float = DEFAULT_TOL,
                         angle_tol: float = ANGLE_TOL) -> LaminationApprox:
    """Extrapolate each convergent provenance chain to a limit geodesic.

    A chain is accepted when its last gaps sink below ``tol`` while
    contracting by ``CONTRACTION_RATIO`` or faster (stalls below the
    floating-point floor are tolerated), and its limit's endpoints lie at
    least ``angle_tol`` apart.
    Constant chains are excluded: their limit is the juncture axis
    itself, and the lamination is the closure minus the family.

    Three passes over the entry arrays sorted by chain: every chain's
    tests at once (``_chain_verdicts``); the limits of the chains they
    pass, by one Aitken step per endpoint where no base limit is known,
    else as the base limit's image under the chain's conjugator, one
    ``boundary_images`` call per base (``boundary_action`` bit for bit);
    the records, with the leaves built in chain order, so that the first
    chain whose endpoints coincide raises.
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
                       angular_gaps(tb[:-1], tb[1:]))
    starts = np.flatnonzero(np.diff(chain, prepend=-1))
    ends = np.append(starts[1:], len(chain))[:len(starts)]
    verdicts = _chain_verdicts(steps, ends - starts, ends, tol)
    provs = [family.chains[c] for c in chain[starts].tolist()]
    starts, ends = starts.tolist(), ends.tolist()

    # A conjugated chain converges to exactly the image of its base
    # chain's limit, and computing it as a single Mobius image keeps
    # endpoints that are shared between leaves equal at float resolution.
    limits = np.zeros((len(provs), 2))
    bases: dict[JunctureSpec, int] = {}         # juncture -> base chain
    transported: dict[int, list[int]] = {}      # base chain -> its images
    for i in np.flatnonzero(verdicts == 0).tolist():
        prov, end = provs[i], ends[i]
        if (prov.conjugator.is_identity() or prov.juncture not in bases
                or prov.conjugator_isometry is None):
            limits[i] = ends_ab = (_aitken_angle(ta[end - 3:end].tolist()),
                                   _aitken_angle(tb[end - 3:end].tolist()))
            if angular_gap(*ends_ab) < angle_tol:
                verdicts[i] = _COLLAPSES
            elif prov.conjugator.is_identity():
                bases[prov.juncture] = i
        else:
            transported.setdefault(bases[prov.juncture], []).append(i)
    for base, images in transported.items():
        isometries = [provs[i].conjugator_isometry for i in images]
        limits[images] = boundary_images(
            *([getattr(g, x) for g in isometries] for x in "abcd"),
            list(map(IdealPoint, limits[base].tolist())))

    rows = limits[verdicts == 0]
    leaves = [Geodesic.from_angles(a, b) for a, b in rows.tolist()]
    certificates, skipped = [], []
    steps, iterates = steps.tolist(), family.iterate[order].tolist()
    for prov, start, end, verdict in zip(provs, starts, ends,
                                         verdicts.tolist()):
        j = prov.juncture
        if not verdict:
            certificates.append(ChainCertificate(
                j.end, j.sign, prov.conjugator, tuple(iterates[start:end]),
                tuple(steps[max(start, end - 9):end - 1])))
        else:
            skipped.append(SkippedChain(
                j.end, j.sign, prov.conjugator,
                f"last gap {steps[end - 2]:.3e} above tolerance {tol:.1e}"
                if verdict == _LAST_GAP else _REASONS[verdict]))
    # The leaves' own angles: IdealPoint takes an Aitken limit of 2 pi to 0.
    u, v = np.sort(rows % TWO_PI, axis=1).T
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


def _endpoint_angles(leaves: list[Geodesic]) -> np.ndarray:
    return np.array([(g.a.theta, g.b.theta) for g in leaves],
                    dtype=float).reshape(-1, 2)


def _crossing_pairs(p: np.ndarray, q: np.ndarray, tol: float,
                    upper: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), row-major, where chord i of ``p`` crosses chord j of ``q``
    (rows of endpoint angles); ``upper`` keeps only j > i, and each block
    then evaluates only the columns past its first row.

    ``geodesic_relation`` per pair is the scalar reference, and each pair
    gets its verdict bit for bit.  The mask blocks hold the interleave test
    only; the four ``angular_gaps >= tol`` tests, which clear shared
    endpoints, run on the interleaved pairs alone.
    """
    a2, b2 = q.T
    found = [(np.empty(0, dtype=np.int64),) * 2]
    for start in range(0, len(p), _MASK_ROWS):
        block = p[start:start + _MASK_ROWS]
        first = start + 1 if upper else 0
        a1, b1 = block[:, :1], block[:, 1:]
        beta = (b1 - a1) % TWO_PI
        i, j = np.nonzero(((a2[first:] - a1) % TWO_PI < beta)
                          != ((b2[first:] - a1) % TWO_PI < beta))
        if upper:  # block column j is leaf first + j: keep leaf j > leaf i
            i, j = i[j >= i], j[j >= i]
        found.append((start + i, first + j))
    i, j = map(np.concatenate, zip(*found))
    keep = np.ones(len(i), dtype=bool)
    for u in p[i].T:
        for v in q[j].T:
            keep &= angular_gaps(u, v) >= tol
    return i[keep], j[keep]


def crossing_audit(lam: LaminationApprox,
                   tol: float = ANGLE_TOL) -> list[CrossingViolation]:
    """Pairs of leaves of one lamination that transversely cross, i < j
    in row-major order, as ``geodesic_relation`` would read each pair;
    only the columns j > i of each mask block are evaluated."""
    leaves = lam.leaves
    ends = _endpoint_angles(leaves)
    i, j = _crossing_pairs(ends, ends, tol, upper=True)
    return [CrossingViolation(a, b, leaves[a], leaves[b])
            for a, b in zip(i.tolist(), j.tolist())]


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

    The crossing pairs come row-major from ``_crossing_pairs`` and their
    points from one ``geodesic_intersections`` call, which equals the
    scalar ``geodesic_intersection`` and ``to_disk`` per pair, errors
    included.  Two distinct geodesics meet at most once, so each pair
    contributes at most one record.  Leaves meeting nothing opposite are
    flagged.
    """
    plus, minus = (_endpoint_angles(lam.leaves)
                   for lam in (lam_plus, lam_minus))
    i, j = _crossing_pairs(plus, minus, tol)
    x, y = geodesic_intersections(plus, minus, i, j)
    return MeagerInvariantSet(
        points=list(map(IntersectionRecord, i.tolist(), j.tolist(),
                        x.tolist(), y.tolist())),
        uncovered_plus=np.flatnonzero(
            np.bincount(i, minlength=len(plus)) == 0).tolist(),
        uncovered_minus=np.flatnonzero(
            np.bincount(j, minlength=len(minus)) == 0).tolist())


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
            _require_finite(what, value)
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


def laminate(scene, params: AxiomParams) -> LaminationRun:
    """Juncture orbits in scene order, the limit leaves of each sign
    (negative junctures give the plus lamination), their crossing audits
    and the transverse intersections of the two.  Each juncture's family
    holds its converging side only, n = 0..h or 0..-h, and the junctures
    share one ``_OrbitTable``: the ball once, and each word's images once,
    over the union of its junctures' sides."""
    return _laminate(scene, params)[1]


def _laminate(scene, params: AxiomParams, extract: bool = True,
              layers: bool = False):
    """``(layers, run)``: ``laminate``'s run and, with ``layers``, each
    juncture's -h..h family, the juncture layers ``render`` draws, from
    the run's table, which then builds each word over -h..h once.  Without
    ``extract`` the run holds the families only; with ``layers`` too, it is
    empty, for the layers are all ``render`` needs then."""
    h = params.horizon
    drawn = [(j, range(-h, h + 1)) for j in scene.junctures] if layers else []
    sides = ([(j, _converging_iterates(j, h)) for j in scene.junctures]
             if extract or not layers else [])
    table = _OrbitTable(scene, drawn + sides)

    def orbits(reads):
        return [(j, juncture_orbit(scene, j, n_range, params.ball,
                                   max_letters=params.max_letters,
                                   max_words=params.max_words,
                                   angle_tol=params.angle_tol,
                                   trace_tol=params.trace_tol, table=table))
                for j, n_range in reads]

    drawn = orbits(drawn)
    run = LaminationRun(orbits(sides))
    if not extract:
        return drawn, run
    lams = run.laminations
    for lam_sign, juncture_sign in (("+", "-"), ("-", "+")):
        families = [fam for j, fam in run.families if j.sign == juncture_sign]
        if families:
            # A lone family needs no merge: juncture_orbit deduplicated it
            # at params.angle_tol, and first_distinct keeps its own output.
            family = (families[0] if len(families) == 1
                      else GeodesicFamily.merge(families, params.angle_tol))
            lams[lam_sign] = extract_limit_leaves(
                family, tol=params.tol, angle_tol=params.angle_tol)
    for lam in lams.values():
        lam.crossing_violations = crossing_audit(lam, params.angle_tol)
    if len(lams) == 2:
        run.intersections = transversal_intersections(
            lams["+"], lams["-"], params.angle_tol)
    return drawn, run


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
