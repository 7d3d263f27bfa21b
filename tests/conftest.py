import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from endlam.group import FreeAutomorphism, FuchsianGroup, Word
from endlam.hyperbolic import ANGLE_TOL_FLOOR, TWO_PI, Isometry, angular_gap
from endlam.lamination import JunctureSpec

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
