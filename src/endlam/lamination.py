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

import numpy as np

from .errors import NotHyperbolicError, ValidationError
from .group import (
    DEFAULT_MAX_LETTERS,
    DEFAULT_MAX_WORDS,
    Ball,
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
    conjugator (fixed along the chain while the iterate advances).  A
    family holds its chains as integer rows; these records are built only
    by its ``chains`` and ``entries`` views."""

    juncture: JunctureSpec
    conjugator: Word

    def chain_key(self):
        # Nothing in endlam reads this: the benchmark tracer
        # (perfbench/spans.py) counts a family's chains as the distinct
        # keys of its entries.
        return (self.juncture, self.conjugator.letters)


@dataclass(eq=False)
class GeodesicFamily:
    """Deduplicated geodesics held as arrays, one element per entry.

    Entry i has endpoint angles ``ta[i]``, ``tb[i]`` and is iterate
    ``iterate[i]`` of chain ``chain[i]``.  Chain c is of juncture
    ``junctures[juncture[c]]``, and its conjugator is word ``conj[c]`` of
    ``ball`` (0 is the identity), whose isometry has the entries a, b, c,
    d of row ``g[c]``.  No object is held per chain: ``chains`` builds
    each chain's ``ChainProvenance``, and ``entries`` each entry's
    (checked) ``Geodesic`` with its chain's record.

    The rows keep a contract, which ``extract_limit_leaves`` reads in
    place: the entries are grouped by chain; the chains are numbered
    0, 1, ... in row order; each chain's iterates run in its convergence
    direction, ascending for sign - and descending for +; and the
    junctures are distinct.  ``juncture_orbit`` builds its families so,
    and ``merge`` keeps the contract of families that keep it.
    """

    ta: np.ndarray = field(default_factory=lambda: np.empty(0))
    tb: np.ndarray = field(default_factory=lambda: np.empty(0))
    chain: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    iterate: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    junctures: tuple[JunctureSpec, ...] = ()
    juncture: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    conj: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    g: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    ball: Ball | None = None

    def __len__(self):
        return len(self.ta)

    @property
    def chains(self) -> list[ChainProvenance]:
        if not len(self.conj):
            return []
        return [ChainProvenance(self.junctures[j], word) for j, word in zip(
            self.juncture.tolist(), self.ball.words(self.conj.tolist()))]

    @property
    def entries(self) -> list[tuple[Geodesic, ChainProvenance]]:
        chains = self.chains
        return [(Geodesic.from_angles(a, b), chains[c])
                for a, b, c in zip(self.ta.tolist(), self.tb.tolist(),
                                   self.chain.tolist())]

    @classmethod
    def merge(cls, families,
              angle_tol: float = ANGLE_TOL) -> "GeodesicFamily":
        """The entries of ``families`` in order, kept by
        :func:`first_distinct` at ``angle_tol``.  Chains of different
        families stay apart; a chain left without entries is dropped and
        the rest are numbered by their first kept entries.  Equal
        junctures become one, and the conjugators are read from the
        largest ball, whose first rows are every smaller ball of the
        group.  The result is a new family, also for a lone one."""
        families = list(families)
        if not families:
            return cls()
        ta, tb, chain, iterate = (
            np.concatenate([getattr(fam, name) for fam in families])
            for name in ("ta", "tb", "chain", "iterate"))
        offsets = np.cumsum([0] + [len(fam.conj) for fam in families])
        chain += np.repeat(offsets[:-1], [len(fam) for fam in families])
        junctures = []
        for fam in families:
            for j in fam.junctures:
                if j not in junctures:
                    junctures.append(j)
        juncture = np.concatenate([
            np.array([junctures.index(j) for j in fam.junctures],
                     dtype=np.int64)[fam.juncture] for fam in families])
        conj, g = (np.concatenate([getattr(fam, name) for fam in families])
                   for name in ("conj", "g"))
        ball = max((fam.ball for fam in families if fam.ball is not None),
                   key=len, default=None)
        keep = first_distinct(np.minimum(ta, tb), np.maximum(ta, tb),
                              angle_tol)
        chain = chain[keep]
        ids, first = np.unique(chain, return_index=True)
        used = ids[np.argsort(first)]
        renumber = np.zeros(len(conj), dtype=np.int64)
        renumber[used] = np.arange(len(used))
        return cls(ta[keep], tb[keep], renumber[chain], iterate[keep],
                   tuple(junctures), juncture[used], conj[used], g[used],
                   ball)


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

    The table is built from the run's parameters and told every read up
    front: ``reads`` names the iterates the run will read of each
    juncture.  A word's images are built once, on the demand of its first
    juncture, over the union of what its junctures read, sorted in the
    convergence direction of the first juncture on it; the ball is
    enumerated by the first build.  A juncture gets its columns of the
    build by index, equal bit for bit to a build of its own, since the
    images are computed element by element.
    """

    def __init__(self, scene, reads, ball_k: int, max_letters: int,
                 max_words: int, trace_tol: float):
        self.scene = scene
        self.ball_k, self.max_words = ball_k, max_words
        self.max_letters, self.trace_tol = max_letters, trace_tol
        self.ball = None
        self._images = {}
        unions = {}
        for juncture, iterates in reads:
            sign, union = unions.setdefault(juncture.word,
                                            (juncture.sign, set()))
            union.update(iterates)
        self._orders = {word: sorted(union, reverse=(sign == "+"))
                        for word, (sign, union) in unions.items()}

    def images(self, juncture: JunctureSpec,
               iterates: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Angles of the g-images of the endpoints a and b of the axis of
        each phi^n(w), a row per ball element g and a column per iterate n
        in the order of ``iterates``; the identity, first in the ball,
        keeps the axes' own angles."""
        order = self._orders[juncture.word]
        if juncture.word not in self._images:
            self._images[juncture.word] = self._build(juncture, order)
        column = {n: i for i, n in enumerate(order)}
        columns = [column[n] for n in iterates]
        return tuple(t[:, columns] for t in self._images[juncture.word])

    def _build(self, juncture, iterates):
        scene = self.scene
        if self.ball is None:
            self.ball = enumerate_ball(scene.group, self.ball_k,
                                       max_words=self.max_words)
        axes: list[Geodesic] = []
        for n, _, conj, core_m in _iterate_cores(
                scene, juncture, iterates, self.max_letters, self.trace_tol):
            base = axis(core_m, self.trace_tol)
            if not conj.is_identity():
                conj_m = evaluate_word(scene.group, conj)
                base = Geodesic(boundary_action(conj_m, base.a),
                                boundary_action(conj_m, base.b))
            axes.append(base)
        ends = []
        for x in "ab":
            points = [getattr(base, x) for base in axes]
            t = boundary_images(*self.ball.g.T, points)
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
    the run's ``_OrbitTable``, built from the same parameters and told
    this read; without one the call builds a table of its own.
    """
    if n_range is None:
        n_range = range(-DEFAULT_HORIZON, DEFAULT_HORIZON + 1)
    # Insert along the chain's convergence direction (ascending for
    # negative junctures, descending for positive ones) so that when the
    # tail clusters below the angle tolerance, deduplication keeps the
    # earliest cluster member and the surviving tail stays geometric.
    iterates = sorted(set(int(n) for n in n_range),
                      reverse=(juncture.sign == "+"))
    if table is None:
        table = _OrbitTable(scene, [(juncture, iterates)], ball_k,
                            max_letters, max_words, trace_tol)
    # Endpoint angles of every candidate, g-major and iterate-minor.
    ta, tb = (t.ravel() for t in table.images(juncture, iterates))
    if (angular_gaps(ta, tb) < ANGLE_TOL).any():
        raise ValidationError("geodesic endpoints coincide")
    keep = first_distinct(np.minimum(ta, tb), np.maximum(ta, tb), angle_tol)
    kept = np.flatnonzero(keep)
    # Rows are g-major, so each chain's rows are one ascending run.
    g = kept // len(iterates)
    new = np.ones(len(g), dtype=bool)
    new[1:] = g[1:] != g[:-1]
    used, chain = g[new], np.cumsum(new) - 1
    return GeodesicFamily(
        ta[keep], tb[keep], chain, np.array(iterates)[kept % len(iterates)],
        (juncture,), np.zeros(len(used), dtype=np.int64), used,
        table.ball.g[used], table.ball)


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


@dataclass(eq=False)
class CertificateTable:
    """The Cauchy certificates of a lamination's leaves, one row per leaf
    in leaf order, read from the arrays of the family they came from.

    Row i is a chain of juncture ``junctures[juncture[i]]`` whose
    conjugator is word ``conj[i]`` of ``ball``; it holds the iterates
    ``iterate[start[i]:end[i]]`` and ends in the successive endpoint gaps
    ``gaps[gap_start[i]:gap_end[i]]`` (at most eight, oldest first).  The
    ``--json`` writer spells each conjugator from the ball once."""

    junctures: tuple[JunctureSpec, ...]
    juncture: np.ndarray
    conj: np.ndarray
    start: np.ndarray
    end: np.ndarray
    gap_start: np.ndarray
    gap_end: np.ndarray
    iterate: np.ndarray
    gaps: np.ndarray
    ball: Ball | None               # None for an empty family's table

    # The keys of a certificate in the --json report.
    FIELDS = ("juncture", "sign", "conjugator", "iterates", "gaps")

    def __len__(self):
        return len(self.juncture)


@dataclass
class SkippedChain:
    juncture: str
    sign: str
    conjugator: Word
    reason: str


# Leaves (endpoint angles in [0, 2*pi)), crossing violations and
# intersection points are record arrays, whose field names are the keys
# of the --json reports.  Contiguous leaves read as an (n, 2) float array.
# The results that hold them compare by identity (eq=False): an array
# comparison has no single truth value.
LEAF = np.dtype([("a_angle", float), ("b_angle", float)])
VIOLATION = np.dtype([("index_a", np.int64), ("index_b", np.int64),
                      ("leaf_a", LEAF), ("leaf_b", LEAF)])
POINT = np.dtype([("plus_index", np.int64), ("minus_index", np.int64),
                  ("x", float), ("y", float)])


@dataclass(eq=False)
class LaminationApprox:
    """Certified limit leaves of one sign of lamination."""

    leaves: np.ndarray                # LEAF rows
    certificates: CertificateTable
    skipped: list[SkippedChain]
    # Axiom I audit of the leaves; None until laminate() runs it.
    crossing_violations: np.ndarray | None = None     # VIOLATION rows


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
    verdict[long] = np.where(
        steps[last] >= tol, _LAST_GAP,
        np.where(decreasing, np.where(contracting, 0, _NOT_CONTRACTING),
                 _NOT_DECREASING))
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

    Three passes over the entry arrays, read in place by the row
    contract of ``GeodesicFamily``: every chain's tests at once
    (``_chain_verdicts``); the limits of the chains they pass, by one
    Aitken step per endpoint for the identity chains (ball row 0) and
    for each chain that no identity chain of its juncture before it
    gives a base limit, else as the last such base limit's image under
    the chain's conjugator, one ``boundary_images`` call per base
    (``boundary_action`` bit for bit), the chains told apart by their
    juncture index and ball row; the leaves as ``LEAF`` rows, after a
    check that raises, as ``Geodesic`` would, when a leaf's endpoints
    coincide, and their certificates as one ``CertificateTable``.
    """
    junctures, juncture, conj = family.junctures, family.juncture, family.conj
    if len({junctures[j].sign for j in set(juncture.tolist())}) > 1:
        raise ValidationError("family mixes juncture signs; extract per sign")

    ta, tb = family.ta, family.tb
    steps = np.maximum(angular_gaps(ta[:-1], ta[1:]),
                       angular_gaps(tb[:-1], tb[1:]))
    edge = np.ones(len(family), dtype=bool)
    edge[1:] = family.chain[1:] != family.chain[:-1]
    starts = np.flatnonzero(edge)
    ends = np.append(starts[1:], len(family))[:len(starts)]
    verdicts = _chain_verdicts(steps, ends - starts, ends, tol)

    # A conjugated chain converges to exactly the image of its base
    # chain's limit, and computing it as a single Mobius image keeps
    # endpoints that are shared between leaves equal at float resolution.
    limits = np.zeros((len(starts), 2))

    def own_limits(chains):
        """Set each chain's Aitken limit, skip a chain whose limit
        collapses, and return the others in order."""
        kept = []
        for i, end in zip(chains.tolist(), ends[chains].tolist()):
            limits[i] = ends_ab = (_aitken_angle(ta[end - 3:end].tolist()),
                                   _aitken_angle(tb[end - 3:end].tolist()))
            if angular_gap(*ends_ab) < angle_tol:
                verdicts[i] = _COLLAPSES
            else:
                kept.append(i)
        return kept

    passed = np.flatnonzero(verdicts == 0)
    identity = conj[passed] == 0
    # The bases are the identity chains that passed and did not collapse.
    # Every other chain that passed takes the last base of its juncture
    # before it, or, with none, its own limit: one search of the bases'
    # keys juncture * n + chain, sorted after a key -1 that stands for none.
    bases = own_limits(passed[identity])
    others = passed[~identity]
    n = len(starts)
    keys = np.array([-1] + sorted(j * n + b for j, b in zip(
        juncture[bases].tolist(), bases)))
    row = juncture[others] * n
    base_of = keys[np.searchsorted(keys, row + others) - 1] - row
    own = base_of < 0
    own_limits(others[own])
    for base in set(base_of[~own].tolist()):
        images = others[base_of == base]
        limits[images] = boundary_images(
            *family.g[images].T, list(map(IdealPoint, limits[base].tolist())))

    # The leaves' own angles, as IdealPoint reduces them (an Aitken limit
    # of 2 pi is 0), checked as Geodesic checks them.
    certified = np.flatnonzero(verdicts == 0)
    rows = limits[certified] % TWO_PI
    if (angular_gaps(rows[:, 0], rows[:, 1]) < ANGLE_TOL).any():
        raise ValidationError("geodesic endpoints coincide")
    skipped = []
    skips = np.flatnonzero(verdicts)
    if len(skips):      # an empty family has no ball
        for j, word, verdict, end in zip(
                juncture[skips].tolist(),
                family.ball.words(conj[skips].tolist()),
                verdicts[skips].tolist(), ends[skips].tolist()):
            skipped.append(SkippedChain(
                junctures[j].end, junctures[j].sign, word,
                f"last gap {float(steps[end - 2]):.3e} above tolerance "
                f"{tol:.1e}" if verdict == _LAST_GAP else _REASONS[verdict]))
    keep = first_distinct(*np.sort(rows, axis=1).T, angle_tol)
    cert = certified[keep]
    first, last = starts[cert], ends[cert]
    return LaminationApprox(
        leaves=rows[keep].view(LEAF)[:, 0],
        certificates=CertificateTable(
            junctures, juncture[cert], conj[cert], first, last,
            np.maximum(first, last - 9), last - 1, family.iterate, steps,
            family.ball),
        skipped=skipped)


def _interleaved(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), i < j row-major, where the sorted ends of chords i and j
    (rows of endpoint angles) interleave: the candidates of
    ``_crossing_pairs``, from one sweep.

    Each chord is the interval (lo, hi) of its sorted angles, and the 2n
    ends go through one stable sort, opens before closes at equal angles.
    The open chords are kept in opening order.  When a chord closes, it is
    found by scanning back from the end, and every chord after it, opened
    later and still open, interleaves with it.  The work is O(n log n + k)
    for k interleaved pairs: a laminar family closes each chord at the top.
    """
    n = len(rows)
    lo, hi = np.sort(rows, axis=1).T
    stack, first, later = [], [], []
    for e in np.argsort(np.concatenate((lo, hi)), kind="stable").tolist():
        if e < n:                       # chord e opens
            stack.append(e)
            continue
        at = len(stack) - 1             # chord e - n closes
        while stack[at] != e - n:
            at -= 1
        first += [e - n] * (len(stack) - 1 - at)
        later += stack[at + 1:]
        del stack[at]
    first, later = (np.array(x, dtype=np.int64) for x in (first, later))
    i, j = np.minimum(first, later), np.maximum(first, later)
    order = np.lexsort((j, i))
    return i[order], j[order]


def _crossing_pairs(p: np.ndarray, q: np.ndarray | None,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), row-major, where chord i of ``p`` crosses chord j of ``q``
    (rows of endpoint angles); for ``q`` None, where chords i < j of ``p``
    cross.  The candidates are the ``_interleaved`` pairs of ``p``, or of
    ``p`` and ``q`` swept together with one chord of each kept.

    ``geodesic_relation`` per pair is the scalar reference, and each
    candidate gets its verdict bit for bit: the modular interleave test,
    then the four ``angular_gaps >= tol`` tests, which clear shared
    endpoints.  No pair the verdict accepts is missed: its four cross-chord
    gaps are at least tol (at least ``ANGLE_TOL_FLOOR`` = 1e-12 in a run),
    far above the ~1e-15 rounding of a modular difference, so the sorted
    order of its ends agrees with the modular test.  Ties and ulp-close
    ends can add or drop only pairs with a gap below tol, which the verdict
    rejects anyway.
    """
    if q is None:
        i, j = _interleaved(p)
        q = p
    else:
        i, j = _interleaved(np.concatenate((p, q)))
        across = (i < len(p)) & (j >= len(p))
        i, j = i[across], j[across] - len(p)
    a1, b1 = p[i].T
    a2, b2 = q[j].T
    beta = (b1 - a1) % TWO_PI
    keep = ((a2 - a1) % TWO_PI < beta) != ((b2 - a1) % TWO_PI < beta)
    for u in (a1, b1):
        for v in (a2, b2):
            keep &= angular_gaps(u, v) >= tol
    return i[keep], j[keep]


def crossing_audit(lam: LaminationApprox,
                   tol: float = ANGLE_TOL) -> np.ndarray:
    """Pairs of leaves of one lamination that transversely cross, i < j
    in row-major order, as ``geodesic_relation`` would read each pair;
    ``_crossing_pairs`` sweeps the leaves' endpoints once."""
    leaves = lam.leaves
    ends = np.ascontiguousarray(leaves).view(float).reshape(-1, 2)
    i, j = _crossing_pairs(ends, None, tol)
    violations = np.empty(len(i), VIOLATION)
    violations["index_a"], violations["index_b"] = i, j
    violations["leaf_a"], violations["leaf_b"] = leaves[i], leaves[j]
    return violations


@dataclass(eq=False)
class MeagerInvariantSet:
    """Transverse meeting points of the two laminations."""

    points: np.ndarray           # POINT rows, x and y in disk coordinates
    uncovered_plus: list[int]    # leaves meeting nothing on the other side
    uncovered_minus: list[int]


def _coverage(uncovered: list[int], total: int) -> float:
    """Share of a family's leaves that meet the other family."""
    return 1.0 - len(uncovered) / total if total else 0.0


def transversal_intersections(lam_plus: LaminationApprox,
                              lam_minus: LaminationApprox,
                              tol: float = ANGLE_TOL) -> MeagerInvariantSet:
    """All cross pairs between the two leaf families with their points.

    The crossing pairs come row-major from ``_crossing_pairs``, one sweep
    over the endpoints of both families, and their points from one
    ``geodesic_intersections`` call, which equals the scalar
    ``geodesic_intersection`` and ``to_disk`` per pair, errors included.
    Two distinct geodesics meet at most once, so each pair contributes at
    most one point.  Leaves meeting nothing opposite are flagged.
    """
    plus, minus = (np.ascontiguousarray(lam.leaves).view(float).reshape(-1, 2)
                   for lam in (lam_plus, lam_minus))
    i, j = _crossing_pairs(plus, minus, tol)
    points = np.empty(len(i), POINT)
    points["plus_index"], points["minus_index"] = i, j
    points["x"], points["y"] = geodesic_intersections(plus, minus, i, j)
    return MeagerInvariantSet(
        points=points,
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
        if self.ball < 0:
            raise ValidationError("ball radius must be nonnegative")
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
        # No two angles lie more than pi apart, so from pi on every ideal
        # point would equal every other.
        if self.angle_tol >= math.pi:
            raise ValidationError(
                f"angle tolerance must be below pi, got {self.angle_tol:g}")
        for what, value in (("letter budget", self.max_letters),
                            ("word budget", self.max_words)):
            if value < 1:
                raise ValidationError(
                    f"{what} must be at least 1, got {value}")


@dataclass(eq=False)
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
    table = _OrbitTable(scene, drawn + sides, params.ball,
                        params.max_letters, params.max_words,
                        params.trace_tol)

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
            len(lam.leaves) for lam in lams.values()),
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
    ok = not len(violations_plus) and not len(violations_minus)
    axioms["I"] = AxiomStatus(
        "pass" if ok else "fail",
        "no transverse crossings inside either leaf family" if ok else
        f"{len(violations_plus)} crossings in the plus family, "
        f"{len(violations_minus)} in the minus family",
        data={f"violations_{side}": v[["index_a", "index_b"]].tolist()
              for side, v in (("plus", violations_plus),
                              ("minus", violations_minus))},
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
