import dataclasses
import json
import math
from fractions import Fraction
from itertools import compress
from types import SimpleNamespace

import numpy as np
import pytest

from endlam.errors import ValidationError
from endlam.group import (
    DEFAULT_MAX_WORDS,
    FreeAutomorphism,
    FuchsianGroup,
    LimitSetSample,
    Word,
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
    ChainCertificate,
    ChainProvenance,
    GeodesicFamily,
    JunctureSpec,
    LaminationApprox,
    SkippedChain,
    _aitken_angle,
)
from endlam.markov import PERRON_TOL, PerronData
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
    pairs = [g.sorted_angles() for g in geodesics]
    return sequential_first_distinct([u for u, _ in pairs],
                                     [v for _, v in pairs], tol)


def family_of(entries):
    """A GeodesicFamily holding the (Geodesic, Provenance) pairs in order;
    a chain's record is its first entry's."""
    numbers, chains, chain = {}, [], []
    for _, prov in entries:
        if prov.chain_key() not in numbers:
            numbers[prov.chain_key()] = len(chains)
            chains.append(ChainProvenance(
                prov.juncture, prov.conjugator,
                conjugator_isometry=prov.conjugator_isometry))
        chain.append(numbers[prov.chain_key()])
    ta, tb = np.array([(g.a.theta, g.b.theta)
                       for g, _ in entries]).reshape(-1, 2).T
    return GeodesicFamily(ta, tb, np.array(chain, dtype=np.int64),
                          np.array([p.iterate for _, p in entries],
                                   dtype=np.int64), chains)


def reference_merge(families, angle_tol=ANGLE_TOL):
    """Entries of the families concatenated and offered in order to one
    sequential angle set: the merge before families were arrays.  Each
    entry names its juncture and conjugator, so families of distinct
    junctures keep their chains apart."""
    entries = [entry for fam in families for entry in fam.entries]
    keep = sorted_first_distinct([g for g, _ in entries], angle_tol)
    return [entry for entry, kept in zip(entries, keep) if kept]


def reference_extract(entries, tol, angle_tol=ANGLE_TOL):
    """The object-based chain loop of ``extract_limit_leaves`` before
    families were arrays, over (Geodesic, Provenance) pairs."""
    chains, chain_meta = {}, {}
    for geo, prov in entries:
        chains.setdefault(prov.chain_key(), []).append((prov.iterate, geo))
        chain_meta.setdefault(prov.chain_key(), prov)
    leaves, certificates, skipped, base_limits = [], [], [], {}
    for key, items in chains.items():
        prov = chain_meta[key]
        items.sort(key=lambda item: item[0],
                   reverse=prov.juncture.sign == "+")
        geos = [geo for _, geo in items]
        gaps = [max(angular_gap(g1.a.theta, g2.a.theta),
                    angular_gap(g1.b.theta, g2.b.theta))
                for g1, g2 in zip(geos, geos[1:])]
        tail = gaps[-4:]
        base = base_limits.get(prov.juncture)
        transported = not (prov.conjugator.is_identity() or base is None
                           or prov.conjugator_isometry is None)
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
            limit = Geodesic(
                boundary_action(prov.conjugator_isometry, base.a),
                boundary_action(prov.conjugator_isometry, base.b))
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
        [g for g, k in zip(leaves, keep) if k],
        [c for c, k in zip(certificates, keep) if k], skipped)


def reference_limit_set_sample(group, base, k, max_words=DEFAULT_MAX_WORDS,
                               angle_tol=ANGLE_TOL, trace_tol=TRACE_TOL):
    """``group.limit_set_sample`` as a loop over ``enumerate_ball``: one
    orbit point, classification and axis per ball element, as it ran
    before the ball's products, orbit points and axes were arrays."""
    if k < 0:
        raise ValidationError("sample depth must be nonnegative")
    ball = enumerate_ball(group, k, max_words)
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


def reference_jsonable(obj, names):
    """Reference for the ``--json`` writer: the payload as JSON values,
    converted node by node; ``json.dumps`` of this tree with ``indent=2``
    is the text the writer must build in one walk."""
    if isinstance(obj, Word):
        return obj.format(names)
    if isinstance(obj, Geodesic):
        return {"a_angle": obj.a.theta, "b_angle": obj.b.theta}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
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
