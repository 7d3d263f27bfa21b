import dataclasses
import json
import math
from fractions import Fraction
from itertools import compress
from types import SimpleNamespace

import numpy as np
import pytest

from endlam.errors import BudgetExceededError, ValidationError
from endlam.group import (
    DEFAULT_MAX_LETTERS,
    DEFAULT_MAX_WORDS,
    FreeAutomorphism,
    FuchsianGroup,
    LimitSetSample,
    Word,
    _check_ball,
    _letter_order,
    enumerate_ball,
)
from endlam.hyperbolic import (
    ANGLE_TOL,
    ANGLE_TOL_FLOOR,
    TRACE_TOL,
    TWO_PI,
    Geodesic,
    Isometry,
    angular_gap,
    angular_gaps,
    apply_isometry,
    axis,
    boundary_action,
    classify_isometry,
    first_distinct,
    to_disk,
)
from endlam.lamination import (
    CONTRACTION_RATIO,
    GAP_FLOOR,
    LEAF,
    CertificateTable,
    ChainProvenance,
    GeodesicFamily,
    JunctureSpec,
    LaminationApprox,
    SkippedChain,
    _aitken_angle,
)
from endlam.markov import PERRON_TOL, PerronData
from endlam.render import ANTIPODAL_DOT
from endlam.scene import scene_path

TORUS_A = [[4, 0], [0, 0.25]]
TORUS_B = [[2, 1], [1, 1]]


def make_scene(gen_a, gen_b, forward, inverse, junctures):
    group = FuchsianGroup(("a", "b"), (Isometry.from_matrix(gen_a),
                                       Isometry.from_matrix(gen_b)))
    phi = FreeAutomorphism(
        forward=tuple(Word.parse(w, group.names) for w in forward),
        inverse=tuple(Word.parse(w, group.names) for w in inverse),
    )
    return SimpleNamespace(
        group=group,
        automorphism=phi,
        junctures=[JunctureSpec(end=e, sign=s, word=group.word(w))
                   for e, s, w in junctures],
    )


def one_holed_torus_scene(x, y, z, k):
    """The scene of the group with trace triple (tr a, tr b, tr ab) =
    (x, y, z), a = diag(m, 1/m) and b = [[p, 1], [p s - 1, s]], under the
    twist power a -> a b^k, b -> b, with junctures e- and e+ on a.  Its
    base leaves are known in closed form (``one_holed_torus_leaf``)."""
    m = (x + math.sqrt(x * x - 4)) / 2
    p = (z - y / m) / (m - 1 / m)
    s = y - p
    return make_scene(
        [[m, 0], [0, 1 / m]], [[p, 1], [p * s - 1, s]],
        forward=(" ".join(["a"] + ["b"] * k), "b"),
        inverse=(" ".join(["a"] + ["b^-1"] * k), "b"),
        junctures=[("e-", "-", "a"), ("e+", "+", "a")],
    )


def one_holed_torus_leaf(scene, sign):
    """The base leaf of lamination ``sign`` of ``one_holed_torus_scene``:
    phi^n(a) = a b^(kn), so Lambda+ is (b^-inf, a b^+inf) and Lambda- is
    (b^+inf, a b^-inf), each from the fixed points of b by the quadratic
    formula and a's boundary map t -> m^2 t."""
    (m, _), _ = scene.group.letter_isometry(1).matrix
    (p, _), (c, s) = scene.group.letter_isometry(2).matrix
    # b fixes the roots of c t^2 + (s - p) t - 1; its boundary derivative
    # 1 / (c t + s)^2 is below 1 at the attracting one.
    roots = [((p - s) + r * math.sqrt((p + s) ** 2 - 4)) / (2 * c)
             for r in (1, -1)]
    repelling, attracting = sorted(roots, key=lambda t: abs(c * t + s))
    if sign == "-":
        repelling, attracting = attracting, repelling
    return Geodesic.from_boundary(repelling, m * m * attracting)


@pytest.fixture
def torus_scene():
    """Two-generator purely hyperbolic scene with the shift substitution."""
    return make_scene(
        TORUS_A, TORUS_B,
        forward=("a b", "b"),
        inverse=("a b^-1", "b"),
        junctures=[("e-", "-", "a"), ("e+", "+", "a")],
    )


@pytest.fixture
def inner_scene():
    """Conjugation by b; every juncture class keeps its length."""
    return make_scene(
        TORUS_A, TORUS_B,
        forward=("b a b^-1", "b"),
        inverse=("b^-1 a b", "b"),
        junctures=[("e-", "-", "a"), ("e+", "+", "b")],
    )


@pytest.fixture
def identity_scene():
    return make_scene(
        TORUS_A, TORUS_B,
        forward=("a", "b"),
        inverse=("a", "b"),
        junctures=[("e-", "-", "a"), ("e+", "+", "b")],
    )


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def frac_matmul(m1, m2):
    return [
        [m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
         m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]],
        [m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
         m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]],
    ]


def exact_word_matrix(letters, mats):
    """Exact rational product; mats maps letter -> Fraction matrix."""
    m = frac_matrix([[1, 0], [0, 1]])
    for letter in letters:
        m = frac_matmul(m, mats[letter])
    return m


def frac_inverse(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [[m[1][1] / det, -m[0][1] / det],
            [-m[1][0] / det, m[0][0] / det]]


def quadratic_axis_oracle(m):
    """Boundary fixed points (repelling, attracting) via the quadratic
    formula on a scale-normalized copy of an exact matrix."""
    scale = max(abs(x) for row in m for x in row)
    a, b = float(m[0][0] / scale), float(m[0][1] / scale)
    c, d = float(m[1][0] / scale), float(m[1][1] / scale)
    if c == 0:
        t = b / (d - a)
        return (t, math.inf) if abs(a) > abs(d) else (math.inf, t)
    disc = (d - a) ** 2 + 4 * b * c
    sq = math.sqrt(disc)
    t1 = ((a - d) + sq) / (2 * c)
    t2 = ((a - d) - sq) / (2 * c)
    if abs(c * t1 + d) > abs(c * t2 + d):
        return (t2, t1)
    return (t1, t2)


def exact_translation_length(m):
    """2*arccosh(|tr|/2) from an exact unit-determinant matrix."""
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det == 1
    return 2.0 * math.acosh(abs(float(tr)) / 2.0)


class SequentialAngleSet:
    """Reference for ``hyperbolic.first_distinct``: angle pairs offered one
    at a time, each kept when no kept pair lies within ``tol`` in both
    coordinates, the kept pairs found through grid cells 2 * tol wide."""

    def __init__(self, tol: float):
        self.tol = tol
        self.q = max(tol, ANGLE_TOL_FLOOR) * 2.0
        self.cells: dict[tuple[int, int], list[tuple[float, float]]] = {}

    def _indices(self, t: float):
        base = round(t / self.q)
        yield base
        if t < self.tol:
            yield round((t + TWO_PI) / self.q)
        if TWO_PI - t < self.tol:
            yield round((t - TWO_PI) / self.q)

    def add(self, u: float, v: float) -> bool:
        """True (and keep the pair) when no kept pair is within tol."""
        for iu in self._indices(u):
            for iv in self._indices(v):
                for du in (-1, 0, 1):
                    for dv in (-1, 0, 1):
                        for (su, sv) in self.cells.get((iu + du, iv + dv), ()):
                            if (angular_gap(su, u) < self.tol
                                    and angular_gap(sv, v) < self.tol):
                                return False
        cell = (round(u / self.q), round(v / self.q))
        self.cells.setdefault(cell, []).append((u, v))
        return True


def sequential_first_distinct(u, v, tol):
    """Keep-mask of the pairs (u[i], v[i]) offered to one
    :class:`SequentialAngleSet` in order."""
    kept = SequentialAngleSet(tol)
    return [kept.add(a, b) for a, b in zip(u, v)]


def sorted_first_distinct(geodesics, tol):
    """:func:`sequential_first_distinct` over the geodesics' sorted
    endpoint angles."""
    pairs = [sorted((g.a.theta, g.b.theta)) for g in geodesics]
    return sequential_first_distinct([u for u, _ in pairs],
                                     [v for _, v in pairs], tol)


def leaf_array(geodesics):
    """The ``LEAF`` rows of ``geodesics``, as a lamination holds them."""
    return np.array([(g.a.theta, g.b.theta) for g in geodesics], dtype=LEAF)


def leaf_geodesics(leaves):
    """A ``Geodesic`` per ``LEAF`` row, for the scalar references."""
    return [Geodesic.from_angles(a, b) for a, b in leaves.tolist()]


def reference_crossing_pairs(p, q, tol, upper=False):
    """(i, j), row-major, where chord i of ``p`` crosses chord j of ``q``,
    from the 64-row mask blocks that the endpoint sweep replaced: each
    block holds the interleave test for all its pairs, the four gap tests
    run on the interleaved pairs alone, and ``upper`` keeps only j > i,
    evaluating each block's columns past its first row."""
    a2, b2 = q.T
    found = [(np.empty(0, dtype=np.int64),) * 2]
    for start in range(0, len(p), 64):
        block = p[start:start + 64]
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


def reference_ball(group, k, max_words=DEFAULT_MAX_WORDS):
    """``group.enumerate_ball`` as the scalar loop it was: a (Word,
    Isometry) pair per element in the ball's order, each isometry its
    parent's composed with its last letter's by ``Isometry.compose``, and
    each word reduced again as a ``Word``."""
    _check_ball(group.rank, k, max_words)
    letter_order = _letter_order(group.rank)
    out = [(Word.identity(), Isometry.identity())]
    frontier = [((), Isometry.identity())]
    for _ in range(k):
        nxt = []
        for letters, m in frontier:
            for letter in letter_order:
                if letters and letters[-1] == -letter:
                    continue
                nxt.append((letters + (letter,),
                            m.compose(group.letter_isometry(letter))))
        frontier = nxt
        out.extend((Word(letters), m) for letters, m in frontier)
    return out


def torus_ball(k):
    """The radius-k ``Ball`` of the group of ``TORUS_A`` and ``TORUS_B``:
    the word rows of the hand-built families of ``family_of``."""
    return enumerate_ball(FuchsianGroup(("a", "b"), (
        Isometry.from_matrix(TORUS_A), Isometry.from_matrix(TORUS_B))), k)


def entry(geodesic, juncture, letters, n, isometry=None):
    """One family entry as the object loops below read it: (Geodesic,
    ChainProvenance, iterate, conjugator isometry), the isometry the
    identity's unless given."""
    return (geodesic, ChainProvenance(juncture, Word(letters)), n,
            isometry or Isometry.identity())


def entries_of(family):
    """The entries of ``family`` as ``entry`` gives them, the isometry
    read off the chain's row of ``family.g``."""
    return [(geo, chain, n, Isometry._raw(*family.g[c].tolist()))
            for (geo, chain), c, n in zip(family.entries,
                                          family.chain.tolist(),
                                          family.iterate.tolist())]


def family_of(entries):
    """A GeodesicFamily holding the entries (``entry``) in order; a
    chain's juncture, conjugator and isometry are its first entry's, and
    its conjugator's row is the word's in ``torus_ball`` of the longest
    conjugator's length."""
    ball = torus_ball(max((len(prov.conjugator) for _, prov, _, _ in entries),
                          default=0))
    rows = {w.letters: i
            for i, w in enumerate(ball.words(range(len(ball))))}
    junctures, numbers, chain, juncture, conj, g = [], {}, [], [], [], []
    for _, prov, _, m in entries:
        if prov.chain_key() not in numbers:
            numbers[prov.chain_key()] = len(numbers)
            if prov.juncture not in junctures:
                junctures.append(prov.juncture)
            juncture.append(junctures.index(prov.juncture))
            conj.append(rows[prov.conjugator.letters])
            g.append((m.a, m.b, m.c, m.d))
        chain.append(numbers[prov.chain_key()])
    ta, tb = np.array([(geo.a.theta, geo.b.theta)
                       for geo, *_ in entries]).reshape(-1, 2).T
    return GeodesicFamily(
        ta, tb, np.array(chain, dtype=np.int64),
        np.array([n for _, _, n, _ in entries], dtype=np.int64),
        tuple(junctures), np.array(juncture, dtype=np.int64),
        np.array(conj, dtype=np.int64),
        np.array(g, dtype=float).reshape(-1, 4), ball)


@dataclasses.dataclass
class ChainCertificate:
    """One certified chain as a record: the rows of ``CertificateTable``
    before they were a table, and the records of ``reference_extract``."""

    juncture: str
    sign: str
    conjugator: Word
    iterates: tuple[int, ...]
    gaps: tuple[float, ...]      # successive endpoint gaps, oldest first


def certificates_of(table):
    """The rows of a ``CertificateTable`` as ``ChainCertificate`` records,
    each conjugator its ball's ``Word``."""
    if not len(table):
        return []
    iterate, gaps = table.iterate.tolist(), table.gaps.tolist()
    return [ChainCertificate(table.junctures[j].end, table.junctures[j].sign,
                             word, tuple(iterate[a:b]), tuple(gaps[c0:c1]))
            for j, word, a, b, c0, c1 in zip(
                table.juncture.tolist(), table.ball.words(table.conj.tolist()),
                *(x.tolist() for x in (table.start, table.end,
                                       table.gap_start, table.gap_end)))]


def reference_substitute(phi, word, n, max_letters=DEFAULT_MAX_LETTERS):
    """``apply_automorphism`` as a per-letter loop: each letter's image,
    its rule word or that word inverted, pushed one letter at a time onto
    a reduction stack, the budget checked after each image, and each
    step's result reduced again as a ``Word``."""
    word = Word(tuple(word))
    rules = phi.forward if n >= 0 else phi.inverse
    for _ in range(abs(n)):
        out = []
        for letter in word.letters:
            rule = rules[abs(letter) - 1].letters
            image = rule if letter > 0 else [-x for x in reversed(rule)]
            for x in image:
                if out and out[-1] == -x:
                    out.pop()
                else:
                    out.append(x)
            if len(out) > max_letters:
                raise BudgetExceededError(
                    f"substitution exceeded {max_letters} letters")
        word = Word(tuple(out))
    return word


def reference_merge(families, angle_tol=ANGLE_TOL):
    """Entries of the families concatenated and offered in order to one
    sequential angle set: the merge before families were arrays.  Each
    entry names its juncture and conjugator, so families of distinct
    junctures keep their chains apart."""
    entries = [e for fam in families for e in entries_of(fam)]
    keep = sorted_first_distinct([geo for geo, *_ in entries], angle_tol)
    return [e for e, kept in zip(entries, keep) if kept]


def reference_extract(entries, tol, angle_tol=ANGLE_TOL):
    """The object-based chain loop of ``extract_limit_leaves`` before
    families were arrays, over the entries of ``entry``.  A chain is a run
    of entries of one chain key, so the chains of one key in two merged
    families stay apart, as the family rows keep them."""
    chains, chain_meta, runs, last = {}, {}, 0, None
    for geo, prov, n, m in entries:
        if prov.chain_key() != last:
            runs, last = runs + 1, prov.chain_key()
        chains.setdefault((runs, last), []).append((n, geo))
        chain_meta.setdefault((runs, last), (prov, m))
    leaves, certificates, skipped, base_limits = [], [], [], {}
    for key, items in chains.items():
        prov, m = chain_meta[key]
        items.sort(key=lambda item: item[0],
                   reverse=prov.juncture.sign == "+")
        geos = [geo for _, geo in items]
        gaps = [max(angular_gap(g1.a.theta, g2.a.theta),
                    angular_gap(g1.b.theta, g2.b.theta))
                for g1, g2 in zip(geos, geos[1:])]
        tail = gaps[-4:]
        base = base_limits.get(prov.juncture)
        transported = not (prov.conjugator.is_identity() or base is None)
        ends = None
        if not transported and len(items) >= 4:
            ends = (_aitken_angle([g.a.theta for g in geos[-3:]]),
                    _aitken_angle([g.b.theta for g in geos[-3:]]))
        reason = None
        if len(items) == 1:
            reason = ("chain collapsed to a single axis; its limit is a "
                      "family member")
        elif len(items) < 4:
            reason = "fewer than 4 distinct iterates"
        elif tail[-1] >= tol:
            reason = f"last gap {tail[-1]:.3e} above tolerance {tol:.1e}"
        elif not all(b < a or b < GAP_FLOOR for a, b in zip(tail, tail[1:])):
            reason = "endpoint gaps not decreasing"
        elif not all(b <= CONTRACTION_RATIO * a or b < GAP_FLOOR
                     for a, b in zip(tail, tail[1:])):
            reason = "endpoint gaps not contracting"
        elif ends and angular_gap(*ends) < angle_tol:
            reason = "chain collapses toward a single boundary point"
        if reason is not None:
            skipped.append(SkippedChain(prov.juncture.end, prov.juncture.sign,
                                        prov.conjugator, reason))
            continue
        if transported:
            limit = Geodesic(boundary_action(m, base.a),
                             boundary_action(m, base.b))
        else:
            limit = Geodesic.from_angles(*ends)
            if prov.conjugator.is_identity():
                base_limits[prov.juncture] = limit
        leaves.append(limit)
        certificates.append(ChainCertificate(
            prov.juncture.end, prov.juncture.sign, prov.conjugator,
            tuple(n for n, _ in items), tuple(gaps[-8:])))
    keep = sorted_first_distinct(leaves, angle_tol)
    return LaminationApprox(
        leaf_array(g for g, k in zip(leaves, keep) if k),
        [c for c, k in zip(certificates, keep) if k], skipped)


def reference_limit_set_sample(group, base, k, max_words=DEFAULT_MAX_WORDS,
                               angle_tol=ANGLE_TOL, trace_tol=TRACE_TOL):
    """``group.limit_set_sample`` as a loop over ``reference_ball``: one
    orbit point, classification and axis per ball element, as it ran
    before the ball's products, orbit points and axes were arrays."""
    if k < 0:
        raise ValidationError("sample depth must be nonnegative")
    ball = reference_ball(group, k, max_words)
    orbit = []
    ends: list[float] = []
    for _, m in ball:
        orbit.append(to_disk(apply_isometry(m, base)))
        if classify_isometry(m, trace_tol) == "hyperbolic":
            g = axis(m, trace_tol)
            ends.extend((g.a.theta, g.b.theta))
    keep = first_distinct(ends, ends, angle_tol).tolist()
    return LimitSetSample(orbit=orbit,
                          fixed_point_angles=list(compress(ends, keep)),
                          words=len(ball))


def reference_power_iteration(M, tol=PERRON_TOL, maxiter=10 ** 5):
    """The (M + I) power iteration from uniform over the whole matrix, as
    ``markov.perron`` ran every matrix before it read the class graph; its
    support is the states the last iterate holds weight on."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    v = np.full(n, 1.0 / n)
    kappa = 0.0
    residual = math.inf
    iterations = 0
    for iterations in range(1, maxiter + 1):
        z = M @ v + v
        v = z / z.sum()
        image = M @ v
        kappa = image.sum()
        residual = float(np.max(np.abs(image - kappa * v)))
        if residual <= tol:
            return PerronData(kappa=float(kappa), vector=v,
                              residual=residual, converged=True,
                              iterations=iterations, support=v > 0)
    return PerronData(kappa=float(kappa), vector=v, residual=residual,
                      converged=False, iterations=iterations, support=v > 0)


def reference_admissible_words(A, m) -> list[tuple[int, ...]]:
    """The admissible words of length m, 1-based, from the depth-first
    walk ``markov.admissible_words`` ran before it built its words level
    by level: every admissible prefix is visited, those that die before
    length m too, smallest symbol first, so the words come out sorted."""
    # successors[i]: the symbols j with A[i, j] nonzero, for 1-based i.
    successors = [()] + [tuple(j + 1 for j, a in enumerate(row) if a)
                         for row in np.asarray(A).tolist()]
    words: list[tuple[int, ...]] = []
    # todo[k] runs over the choices for prefix[k].  A loop rather than
    # recursion, so that m may exceed Python's recursion limit.
    prefix: list[int] = []
    todo = [iter(range(1, len(successors)))]
    while todo:
        for j in todo[-1]:
            prefix.append(j)
            if len(prefix) < m:
                todo.append(iter(successors[j]))
                break
            words.append(tuple(prefix))
            prefix.pop()
        else:
            todo.pop()
            if prefix:
                prefix.pop()
    return words


def reference_word_lines(words, n) -> str:
    """The ``--list-words`` text of a table of n symbols, one symbol's
    ``str`` at a time, parted by a space once n has two digits."""
    sep = " " if n > 9 else ""
    return "".join("  " + sep.join(str(s) for s in word) + "\n"
                   for word in words)


def reference_violations(counts):
    """``verify_markov``'s violations from a walk over every entry."""
    return [(i + 1, j + 1, int(c))
            for (i, j), c in np.ndenumerate(counts) if c > 1]


def reference_jsonable(obj, names):
    """Reference for the ``--json`` writer: the payload as JSON values,
    converted node by node; ``json.dumps`` of this tree with ``indent=2``
    is the text the writer must build in one walk."""
    if isinstance(obj, Word):
        return obj.format(names)
    if isinstance(obj, CertificateTable):
        return reference_jsonable(certificates_of(obj), names)
    if isinstance(obj, (np.ndarray, np.generic)):
        fields = obj.dtype.names
        if not fields:
            return obj.tolist()
        # A named row is a dict, an array of them a list.
        if obj.ndim == 0:
            return {f: reference_jsonable(obj[f], names) for f in fields}
        return [reference_jsonable(row, names) for row in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: reference_jsonable(getattr(obj, f.name), names)
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v, names) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(x, names) for x in obj]
    return obj


def reference_json_text(payload, names) -> str:
    """What ``--json`` must write for ``payload``."""
    return json.dumps(reference_jsonable(payload, names), indent=2) + "\n"


def _mul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def _geodesic_path(ta, tb, canvas):
    """The path element of one geodesic with endpoint angles ta, tb, one
    scalar step at a time: what ``render._Canvas.geodesics`` writes for
    its row."""
    cx, cy, scale = canvas.cx, canvas.cy, canvas.scale
    ux, uy = math.cos(ta), math.sin(ta)
    vx, vy = math.cos(tb), math.sin(tb)
    x1, y1 = cx + scale * ux, cy - scale * uy
    x2, y2 = cx + scale * vx, cy - scale * vy
    dot = ux * vx + uy * vy
    if 1.0 + dot <= ANTIPODAL_DOT:
        return '<path d="M %.9f %.9f L %.9f %.9f"/>' % (
            x1 + 0.0, y1 + 0.0, x2 + 0.0, y2 + 0.0)
    ccx = (ux + vx) / (1.0 + dot)
    ccy = (uy + vy) / (1.0 + dot)
    r = math.sqrt(max(ccx * ccx + ccy * ccy - 1.0, 0.0))
    alpha_u = math.atan2(uy - ccy, ux - ccx)
    alpha_v = math.atan2(vy - ccy, vx - ccx)
    delta = (alpha_v - alpha_u + math.pi) % TWO_PI - math.pi
    alpha_m = alpha_u + delta / 2.0
    xm = cx + scale * (ccx + r * math.cos(alpha_m))
    ym = cy - scale * (ccy + r * math.sin(alpha_m))
    sweep = 1 if delta < 0 else 0
    r_canvas = r * scale + 0.0
    return ('<path d="M %.9f %.9f A %.9f %.9f 0 0 %d %.9f %.9f '
            'A %.9f %.9f 0 0 %d %.9f %.9f"/>' % (
                x1 + 0.0, y1 + 0.0, r_canvas, r_canvas, sweep, xm + 0.0,
                ym + 0.0, r_canvas, r_canvas, sweep, x2 + 0.0, y2 + 0.0))


def schottky_conjugate_data(conjugator):
    """The scene file data of schottky_ab with every generator g replaced
    by h g h^-1, where h = K(theta) A(t) N(x) for ``conjugator`` =
    (theta, t, x), drawn like the benchmark's conjugates; the scene itself
    for None."""
    raw = json.loads(scene_path("schottky_ab.json").read_text())
    if conjugator:
        theta, t, x = conjugator
        c, s, e = math.cos(theta / 2), math.sin(theta / 2), math.exp(t / 2)
        h = _mul([[c, s], [-s, c]],
                 _mul([[e, 0.0], [0.0, 1 / e]], [[1.0, x], [0.0, 1.0]]))
        h_inv = [[h[1][1], -h[0][1]], [-h[1][0], h[0][0]]]
        for gen, m in raw["group"].items():
            raw["group"][gen] = _mul(h, _mul(m, h_inv))
    return raw
