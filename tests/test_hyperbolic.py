import math
import random
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from endlam import hyperbolic, lamination
from endlam.errors import (
    NoIntersectionError,
    NotHyperbolicError,
    NumericDegeneracyError,
    ValidationError,
)
from endlam.group import FuchsianGroup, limit_set_sample
from endlam.hyperbolic import (
    ANGLE_TOL,
    AXIS_FAILURES,
    ORBIT_FAILURES,
    TWO_PI,
    Geodesic,
    HPoint,
    IdealPoint,
    INF,
    Isometry,
    angular_gap,
    apply_isometry,
    axis,
    axis_angles,
    ball_products,
    boundary_action,
    boundary_images,
    classify_isometry,
    failure,
    first_distinct,
    geodesic_intersection,
    geodesic_intersections,
    geodesic_relation,
    hyperbolic_distance,
    is_hyperbolic,
    orbit_points,
    same_ideal_point,
    to_disk,
    translation_length,
)
from endlam.lamination import juncture_orbit
from endlam.scene import load_scene, scene_path

from conftest import (
    reference_ball,
    reference_carrier_meet,
    reference_orbit_point,
    sequential_first_distinct,
)


def iso(rows):
    return Isometry.from_matrix(rows)


def random_isometry(rng):
    while True:
        a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
        if a * d - b * c > 1e-3:
            return Isometry(a, b, c, d)


def random_hyperbolic(rng):
    while True:
        m = random_isometry(rng)
        if classify_isometry(m) == "hyperbolic":
            return m


class TestClassify:
    def test_identity(self):
        assert classify_isometry(iso([[1, 0], [0, 1]])) == "identity"
        assert classify_isometry(iso([[-1, 0], [0, -1]])) == "identity"

    def test_hyperbolic(self):
        assert classify_isometry(iso([[2, 0], [0, 0.5]])) == "hyperbolic"

    def test_parabolic(self):
        assert classify_isometry(iso([[1, 1], [0, 1]])) == "parabolic"

    def test_elliptic(self):
        assert classify_isometry(iso([[0, 1], [-1, 0]])) == "elliptic"

    def test_rejects_negative_determinant(self):
        with pytest.raises(ValidationError):
            Isometry(1, 0, 0, -1)


class TestApply:
    def test_translation(self):
        p = apply_isometry(iso([[1, 1], [0, 1]]), HPoint(0, 1))
        assert abs(p.x - 1) < 1e-12 and abs(p.y - 1) < 1e-12

    def test_dilation(self):
        p = apply_isometry(iso([[2, 0], [0, 0.5]]), HPoint(0, 1))
        assert abs(p.x) < 1e-12 and abs(p.y - 4) < 1e-12

    def test_rotation_fixes_i(self):
        p = apply_isometry(iso([[0, 1], [-1, 0]]), HPoint(0, 1))
        assert abs(p.x) < 1e-12 and abs(p.y - 1) < 1e-12

    def test_boundary_point_rejected(self):
        with pytest.raises(ValidationError):
            HPoint(0, 1e-13)

    def test_degenerate_denominator(self):
        from endlam.errors import NumericDegeneracyError
        m = iso([[1000, 0], [0.001, 0.001]])
        with pytest.raises(NumericDegeneracyError):
            apply_isometry(m, HPoint(-1, 2e-12))


class TestDistance:
    def test_coincident(self):
        assert hyperbolic_distance(HPoint(0, 1), HPoint(0, 1)) == 0.0

    def test_vertical_segment(self):
        # Arclength oracle along x = 0: integral of dy/y from 1 to e^2 is 2.
        d = hyperbolic_distance(HPoint(0, 1), HPoint(0, math.exp(2)))
        assert abs(d - 2.0) < 1e-12

    def test_isometry_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_hyperbolic(rng)
            p = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5))
            q = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5))
            d0 = hyperbolic_distance(p, q)
            d1 = hyperbolic_distance(apply_isometry(m, p),
                                     apply_isometry(m, q))
            assert abs(d0 - d1) <= 1e-9

    def test_composition_consistency(self):
        rng = random.Random(11)
        for _ in range(50):
            m1 = random_isometry(rng)
            m2 = random_isometry(rng)
            p = HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3))
            lhs = apply_isometry(m1.compose(m2), p)
            rhs = apply_isometry(m1, apply_isometry(m2, p))
            assert abs(lhs.x - rhs.x) <= 1e-9
            assert abs(lhs.y - rhs.y) <= 1e-9


class TestAxis:
    def test_diagonal(self):
        g = axis(iso([[2, 0], [0, 0.5]]))
        assert abs(g.a.boundary) < 1e-12
        assert g.b.boundary == INF  # attracting fixed point of z -> 4z

    def test_quadratic_formula_oracle(self):
        # Fixed points of [[2,1],[1,1]] solve t^2 - t - 1 = 0.
        g = axis(iso([[2, 1], [1, 1]]))
        golden = (1 + math.sqrt(5)) / 2
        other = (1 - math.sqrt(5)) / 2
        # derivative 1/(c t + d)^2 contracts at t = golden
        assert abs(g.b.boundary - golden) < 1e-12
        assert abs(g.a.boundary - other) < 1e-12

    def test_conjugation_equivariance(self):
        rng = random.Random(13)
        for _ in range(50):
            m = random_hyperbolic(rng)
            g = random_isometry(rng)
            lhs = axis(g.compose(m).compose(g.inverse()))
            ax = axis(m)
            rhs = Geodesic(boundary_action(g, ax.a), boundary_action(g, ax.b))
            assert angular_gap(lhs.a.theta, rhs.a.theta) < ANGLE_TOL
            assert angular_gap(lhs.b.theta, rhs.b.theta) < ANGLE_TOL

    def test_axis_endpoints_fixed(self):
        rng = random.Random(17)
        for _ in range(50):
            m = random_hyperbolic(rng)
            g = axis(m)
            for e in (g.a, g.b):
                assert same_ideal_point(boundary_action(m, e), e)

    def test_not_hyperbolic(self):
        with pytest.raises(NotHyperbolicError):
            axis(iso([[1, 1], [0, 1]]))


class TestTranslationLength:
    def test_dilation_by_four(self):
        # z -> 4z moves i to 4i, i.e. distance ln 4 = 2 ln 2 along its axis.
        ell = translation_length(iso([[2, 0], [0, 0.5]]))
        assert abs(ell - 2 * math.log(2)) < 1e-12

    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0, 10.0])
    def test_diagonal_family(self, lam):
        ell = translation_length(iso([[lam, 0], [0, 1 / lam]]))
        assert abs(ell - 2 * math.log(lam)) < 1e-12

    def test_conjugation_invariance(self):
        rng = random.Random(19)
        for _ in range(30):
            m = random_hyperbolic(rng)
            g = random_isometry(rng)
            conj = g.compose(m).compose(g.inverse())
            assert abs(translation_length(m)
                       - translation_length(conj)) <= 1e-9

    def test_power_additivity(self):
        rng = random.Random(23)
        for _ in range(10):
            m = random_hyperbolic(rng)
            ell = translation_length(m)
            mk = Isometry.identity()
            for n in range(1, 9):
                mk = mk.compose(m)
                assert abs(translation_length(mk) - n * ell) <= 1e-6

    def test_errors_on_elliptic(self):
        with pytest.raises(NotHyperbolicError):
            translation_length(iso([[0, 1], [-1, 0]]))


def geo_deg(d1, d2):
    return Geodesic.from_angles(math.radians(d1), math.radians(d2))


class TestRelation:
    def test_cross(self):
        assert geodesic_relation(geo_deg(0, 180), geo_deg(90, 270)) == "cross"

    def test_disjoint(self):
        assert geodesic_relation(geo_deg(0, 90), geo_deg(180, 270)) == "disjoint"

    def test_share_endpoint(self):
        assert geodesic_relation(geo_deg(0, 180),
                                 geo_deg(180, 300)) == "share_endpoint"

    def test_equal_either_orientation(self):
        assert geodesic_relation(geo_deg(10, 200), geo_deg(200, 10)) == "equal"

    def test_conjugation_invariance(self):
        rng = random.Random(29)
        for _ in range(40):
            g1 = axis(random_hyperbolic(rng))
            g2 = axis(random_hyperbolic(rng))
            g = random_isometry(rng)
            moved1 = Geodesic(boundary_action(g, g1.a), boundary_action(g, g1.b))
            moved2 = Geodesic(boundary_action(g, g2.a), boundary_action(g, g2.b))
            assert geodesic_relation(moved1, moved2) == geodesic_relation(g1, g2)

    def test_degenerate_geodesic_rejected(self):
        with pytest.raises(ValidationError):
            Geodesic.from_boundary(1.0, 1.0)


class TestIntersection:
    def test_vertical_and_unit_semicircle(self):
        p = geodesic_intersection(Geodesic.from_boundary(0, INF),
                                  Geodesic.from_boundary(-1, 1))
        assert abs(p.x) < 1e-12 and abs(p.y - 1) < 1e-12

    def test_two_semicircles(self):
        # Elimination oracle: carriers x^2 + y^2 = 4 and (x-1)^2 + y^2 = 4
        # meet at x = 1/2, y = sqrt(15)/2.
        g1 = Geodesic.from_boundary(-2, 2)
        g2 = Geodesic.from_boundary(-1, 3)
        p = geodesic_intersection(g1, g2)
        assert abs(p.x - 0.5) < 1e-12
        assert abs(p.y - math.sqrt(15) / 2) < 1e-12
        r1 = abs(p.x ** 2 + p.y ** 2 - 4)
        r2 = abs((p.x - 1) ** 2 + p.y ** 2 - 4)
        assert r1 < 1e-9 and r2 < 1e-9

    def test_equivariance(self):
        rng = random.Random(31)
        done = 0
        while done < 30:
            g1 = axis(random_hyperbolic(rng))
            g2 = axis(random_hyperbolic(rng))
            if geodesic_relation(g1, g2) != "cross":
                continue
            m = random_hyperbolic(rng)
            lhs = apply_isometry(m, geodesic_intersection(g1, g2))
            h1 = Geodesic(boundary_action(m, g1.a), boundary_action(m, g1.b))
            h2 = Geodesic(boundary_action(m, g2.a), boundary_action(m, g2.b))
            rhs = geodesic_intersection(h1, h2)
            assert abs(lhs.x - rhs.x) <= 1e-9
            assert abs(lhs.y - rhs.y) <= 1e-9
            done += 1

    def test_no_intersection_error(self):
        with pytest.raises(NoIntersectionError):
            geodesic_intersection(geo_deg(0, 90), geo_deg(180, 270))


class TestBoundaryAction:
    def test_parabolic_fixes_infinity(self):
        q = boundary_action(iso([[1, 1], [0, 1]]), IdealPoint.infinity())
        assert q.boundary == INF

    def test_dilation_on_one(self):
        q = boundary_action(iso([[2, 0], [0, 0.5]]),
                            IdealPoint.from_boundary(1))
        assert abs(q.boundary - 4) < 1e-9

    def test_pole_goes_to_infinity(self):
        q = boundary_action(iso([[2, 1], [1, 1]]),
                            IdealPoint.from_boundary(-1))
        assert same_ideal_point(q, IdealPoint.infinity())


class TestToDisk:
    def test_i_maps_to_origin(self):
        x, y = to_disk(HPoint(0, 1))
        assert abs(x) < 1e-12 and abs(y) < 1e-12

    def test_boundary_zero(self):
        # Cayley formula oracle: (0 - i)/(0 + i) = -1, the angle-pi point.
        theta = to_disk(IdealPoint.from_boundary(0))
        assert abs(theta - math.pi) < 1e-12

    def test_boundary_one_maps_to_minus_i(self):
        # (1 - i)/(1 + i) = -i, the angle 270 degrees point.
        theta = to_disk(IdealPoint.from_boundary(1))
        assert abs(theta - 1.5 * math.pi) < 1e-12

    def test_interior_stays_inside(self):
        rng = random.Random(37)
        for _ in range(1000):
            p = HPoint(rng.uniform(-50, 50), rng.uniform(1e-3, 50))
            x, y = to_disk(p)
            assert x * x + y * y < 1.0

    def test_geodesic_maps_to_angle_pair(self):
        g = Geodesic.from_boundary(0, INF)
        ta, tb = to_disk(g)
        assert abs(ta - math.pi) < 1e-12 and abs(tb) < 1e-12


def bits(values):
    """Bit patterns of floats, so -0.0 and 0.0 differ."""
    return [float(x).hex() for x in values]


class TestBoundaryImages:
    """``boundary_images`` against ``boundary_action`` per isometry."""

    # Angle 0 is the point at infinity; 1e-300 lies at t = -2e300.
    POINTS = [IdealPoint(t) for t in (0.0, 1e-300, 0.1, 1.0, math.pi, 2.5,
                                      3.9, 5.5, math.nextafter(TWO_PI, 0))]

    @staticmethod
    def images(isometries, p):
        a, b, c, d = ([getattr(m, x) for m in isometries] for x in "abcd")
        return bits(boundary_images(a, b, c, d, [p]).ravel())

    @staticmethod
    def reference(isometries, p):
        return bits(boundary_action(m, p).theta for m in isometries)

    @pytest.mark.parametrize("k", range(len(POINTS)))
    def test_random_isometries(self, k):
        rng = random.Random(k)
        ms = []
        for _ in range(300):
            a, b, c = (rng.uniform(-9, 9) for _ in range(3))
            if abs(a) > 1e-3:
                ms.append(Isometry(a, b, c, (1.0 + b * c) / a))
        p = self.POINTS[k]
        assert self.images(ms, p) == self.reference(ms, p)

    @pytest.mark.parametrize("k", range(len(POINTS)))
    def test_diagonal_powers_and_overflow(self, k):
        # diag(4, 1/4)^n has c == 0; from n of about 256 on, the image of a
        # finite point overflows to a non-finite value.
        ms = [Isometry(4.0 ** n, 0.0, 0.0, 4.0 ** -n) for n in range(0, 491, 7)]
        ms += [m.inverse() for m in ms]
        # a / c overflows to +inf and, after canonicalising, to -inf.
        ms += [Isometry._raw(1e300, 1.0, 1e-300, 1.0),
               Isometry._raw(-1e300, 0.0, 1e-300, 0.0)]
        p = self.POINTS[k]
        assert self.images(ms, p) == self.reference(ms, p)

    def test_all_points_at_once(self):
        # One call maps every point; the point at infinity takes its own
        # branch in its column only.
        rng = random.Random(7)
        ms = [Isometry(4.0 ** n, 0.0, 0.0, 4.0 ** -n) for n in (0, 3, 300)]
        for _ in range(20):
            a, b, c = (rng.uniform(-9, 9) for _ in range(3))
            ms.append(Isometry(a, b, c, (1.0 + b * c) / a))
        a, b, c, d = ([getattr(m, x) for m in ms] for x in "abcd")
        got = boundary_images(a, b, c, d, self.POINTS)
        assert got.shape == (len(ms), len(self.POINTS))
        assert [bits(column) for column in got.T] == [
            self.reference(ms, p) for p in self.POINTS]

    @pytest.mark.parametrize("t", [0.0, -0.0, INF, 1e16, -1e16, 1e308,
                                   -1e308, 1e-300, -1e-300])
    def test_boundary_angles_reduce_like_ideal_points(self, t):
        # At t = 1e16, atan2 is -2e-16, and adding 2 pi rounds to 2 pi,
        # which the second reduction takes to 0.0.
        with np.errstate(all="ignore"):
            got = hyperbolic._boundary_angles(np.array([t, t]))
        assert bits(got) == bits([IdealPoint.from_boundary(t).theta] * 2)

    @pytest.mark.parametrize("k", range(2, len(POINTS)))
    def test_zero_denominator(self, k):
        # [[0, 1], [-1, t]] sends t to infinity: c t + d is exactly 0.
        p = self.POINTS[k]
        t = p.boundary
        ms = [Isometry(0.0, 1.0, -1.0, t), Isometry(0.0, -2.0, 0.5, -0.5 * t)]
        assert [m.c * t + m.d for m in ms] == [0.0, 0.0]
        assert self.images(ms, p) == self.reference(ms, p) == bits([0.0, 0.0])


def point_outcome(func):
    """Bits of a disk point as a list, or the type and message of the
    error as a tuple."""
    try:
        x, y = func()
    except Exception as exc:
        return type(exc), str(exc)
    return bits([x, y])


class TestGeodesicIntersections:
    """``geodesic_intersections`` against ``to_disk`` of the scalar carrier
    meet, ``conftest.reference_carrier_meet``, per pair of raw endpoint
    angles, and ``geodesic_intersection`` against it per crossing pair."""

    # Angle 0 (and 2*pi) is the point at infinity (a vertical carrier);
    # endpoints a hair from it give huge carriers that graze or overflow.
    ANGLES = [0.0, TWO_PI, 1e-300, 1e-13, 3e-13, 1e-9,
              math.nextafter(TWO_PI, 0), TWO_PI - 1e-13, TWO_PI - 1e-9,
              math.pi, math.nextafter(math.pi, 0)]
    # Offsets from an endpoint already drawn: repeated and ulp-close
    # endpoints give concentric, grazing and tiny carriers.
    NEAR = [0.0, 1e-13, -3e-13, 2e-12, -1e-11]
    FAILURES = {"degenerate geodesic at infinity",
                "parallel vertical carriers", "concentric carriers",
                "carriers graze tangentially",
                "half-plane coordinates must be finite", "y = "}

    @classmethod
    def raw_pairs(cls, seed, count):
        """Pairs of endpoint-angle pairs in [0, 2*pi], unchecked: ends may
        coincide, both lie at infinity, and the two need not cross."""
        rng = random.Random(seed)
        pairs = []
        for _ in range(count):
            ends = []
            for _ in range(4):
                x = rng.random()
                if x < 0.4:
                    ends.append(rng.choice(cls.ANGLES))
                elif x < 0.7 or not ends:
                    ends.append(rng.uniform(0.0, TWO_PI))
                else:
                    ends.append(min(TWO_PI, max(0.0, rng.choice(ends)
                                                + rng.choice(cls.NEAR))))
            pairs.append((tuple(ends[:2]), tuple(ends[2:])))
        return pairs

    @classmethod
    def crossing_pairs(cls, seed, count):
        rng = random.Random(seed)
        pairs = []
        while len(pairs) < count:
            ends = [rng.choice(cls.ANGLES) if rng.random() < 0.6
                    else rng.uniform(0.0, TWO_PI) for _ in range(4)]
            try:
                g1, g2 = (Geodesic.from_angles(*ends[:2]),
                          Geodesic.from_angles(*ends[2:]))
            except ValidationError:
                continue
            if geodesic_relation(g1, g2) == "cross":
                pairs.append((g1, g2))
        return pairs

    @staticmethod
    def reference(ends1, ends2):
        return point_outcome(
            lambda: to_disk(reference_carrier_meet(ends1, ends2)))

    @classmethod
    def failures_reached(cls, outcomes):
        return {o[1][:4] if o[1].startswith("y = ") else o[1]
                for o in outcomes if isinstance(o, tuple)}

    def test_each_pair_alone(self):
        outcomes = []
        for ends1, ends2 in self.raw_pairs(3, 2000):
            got = point_outcome(lambda: (
                float(t[0]) for t in geodesic_intersections(
                    [ends1], [ends2], [0], [0])))
            assert got == self.reference(ends1, ends2)
            outcomes.append(got)
        # Points, and every failure row.
        assert self.failures_reached(outcomes) == self.FAILURES
        assert sum(isinstance(o, list) for o in outcomes) > 200

    def test_one_pair_form(self):
        outcomes = []
        for g1, g2 in self.crossing_pairs(3, 1500):
            got = point_outcome(lambda: to_disk(geodesic_intersection(g1,
                                                                      g2)))
            assert got == self.reference(to_disk(g1), to_disk(g2))
            outcomes.append(got)
        # Points, and both failures crossing pairs reach.
        assert self.failures_reached(outcomes) == {
            "carriers graze tangentially",
            "half-plane coordinates must be finite"}
        assert sum(isinstance(o, list) for o in outcomes) > 500

    def test_pairs_at_once(self):
        pairs = [(e1, e2) for e1, e2 in self.raw_pairs(5, 6000)
                 if isinstance(self.reference(e1, e2), list)]
        # The first family in reverse order, so that i and j differ.
        first = [e1 for e1, _ in reversed(pairs)]
        second = [e2 for _, e2 in pairs]
        k = np.arange(len(pairs))
        x, y = geodesic_intersections(first, second, k[::-1], k)
        assert [bits(p) for p in zip(x, y)] == [
            self.reference(e1, e2) for e1, e2 in pairs]
        assert geodesic_intersections(first, second, [], [])[0].size == 0
        assert geodesic_intersections([], [], [], [])[0].size == 0

    def test_first_degenerate_pair_raises(self):
        pairs = self.raw_pairs(7, 400)
        outcomes = [self.reference(e1, e2) for e1, e2 in pairs]
        assert self.failures_reached(outcomes) == self.FAILURES
        for last in range(len(pairs)):
            ref = next((o for o in outcomes[:last + 1]
                        if isinstance(o, tuple)), None)
            if ref is None:
                continue
            with pytest.raises(ref[0]) as info:
                geodesic_intersections(
                    [e1 for e1, _ in pairs[:last + 1]],
                    [e2 for _, e2 in pairs[:last + 1]],
                    range(last + 1), range(last + 1))
            assert str(info.value) == ref[1]


def outcome_bits(func):
    """Bits of the floats a call returns, or the type and message of the
    error it raised as a tuple."""
    try:
        return bits(func())
    except Exception as exc:
        return type(exc), str(exc)


def entries(isometries):
    """The four entry arrays a, b, c, d of a list of isometries."""
    return tuple(np.array([getattr(m, x) for m in isometries], dtype=float)
                 for x in "abcd")


# Matrix entries for the array kernels: ordinary values, signed zeros,
# repeats (so that c == 0 and d == a come up), the renormalisation cap and
# magnitudes whose products overflow or underflow.
ENTRY = st.one_of(
    st.floats(-20.0, 20.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 0.5, 16.0, -16.0,
                     1e-15, 1e-200, -1e-200, 1e200, -1e200, 1e300]))
RAW = st.builds(Isometry._raw, ENTRY, ENTRY, ENTRY, ENTRY)


class TestBallProducts:
    """``ball_products`` against the chained ``Isometry.compose`` of
    ``reference_ball``."""

    @staticmethod
    def chained(letters, k):
        """reference_ball's words and isometries over arbitrary letters,
        the one at 2i - 2 standing for +i and the one at 2i - 1 for -i."""
        group = SimpleNamespace(
            rank=len(letters) // 2,
            letter_isometry=lambda x: letters[2 * abs(x) - 2 + (x < 0)])
        return [(w.letters, bits((m.a, m.b, m.c, m.d)))
                for w, m in reference_ball(group, k)]

    @staticmethod
    def arrays(letters, k):
        """Each word spelt from its parent's letters, the letter at index
        2i - 2 as +i and at 2i - 1 as -i, with its product's bits."""
        parent, letter, g = ball_products(letters, k)
        words = [()]
        for p, x in zip(parent[1:].tolist(), letter[1:].tolist()):
            words.append(words[p] + (x // 2 + 1 if x % 2 == 0
                                     else -(x // 2 + 1),))
        return list(zip(words, map(bits, g)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(RAW, RAW, st.booleans()), min_size=1,
                    max_size=2), st.integers(0, 4))
    # Entries past 1e154 overflow in a product; a singular letter has a
    # product of determinant 0 under the cap.
    @example([(Isometry._raw(1e200, 0.0, 0.0, 1e-200),
               Isometry._raw(1.0, 0.0, 0.0, 1.0), True)], 2)
    @example([(Isometry._raw(1.0, 1.0, 1.0, 1.0),
               Isometry._raw(1.0, 0.0, 0.0, 1.0), False)], 1)
    def test_matches_chained_compose(self, gens, k):
        # A generator's partner is its inverse or an arbitrary matrix:
        # words only skip the partner of their last letter.
        letters = [m for g, h, inv in gens for m in (g, g.inverse() if inv
                                                     else h)]
        ref = outcome_bits(lambda: self.chained(letters, k))
        got = outcome_bits(lambda: self.arrays(letters, k))
        assert got == ref

    def test_both_raises_come_through(self):
        overflow = [Isometry._raw(1e200, 0.0, 0.0, 1e-200)]
        overflow.append(overflow[0].inverse())
        with pytest.raises(NumericDegeneracyError,
                           match="^isometry product overflowed$"):
            ball_products(overflow, 2)
        singular = [Isometry._raw(1.0, 1.0, 1.0, 1.0)] * 2
        with pytest.raises(NumericDegeneracyError,
                           match=r"^product determinant collapsed to 0\.0$"):
            ball_products(singular, 1)


def failure_outcome(table, code, **fields):
    """The type and message of the error of a kernel's failure code."""
    exc = failure(table, code, **fields)
    return type(exc), str(exc)


class TestOrbitPoints:
    """``orbit_points`` against ``conftest.reference_orbit_point``, which is
    ``to_disk(apply_isometry(g, p))`` but for one named exception."""

    BASES = [HPoint(0.0, 1.0), HPoint(-0.0, 1.0), HPoint(0.3, 1.2),
             HPoint(-1.7, 0.4), HPoint(0.0, 2e-12), HPoint(1e308, 1.0),
             HPoint(0.0, 1e300), HPoint(-1e8, 1e-8), HPoint(0.0, 1e-11),
             HPoint(1e8, 1e8), HPoint(1e308, 1e308)]

    @staticmethod
    def check(isometries, p):
        """Each isometry's array point, or the row its failure code names,
        against the reference outcome."""
        x, y, fail = orbit_points(*entries(isometries), p)
        got = [failure_outcome(ORBIT_FAILURES, code, x=p.x, y=p.y) if code
               else bits(point) for point, code in zip(zip(x, y),
                                                       fail.tolist())]
        ref = [outcome_bits(lambda: reference_orbit_point(m, p))
               for m in isometries]
        assert got == ref
        return ref

    @pytest.mark.parametrize("p", BASES, ids=repr)
    def test_ball_of_schottky_ab(self, p):
        group = FuchsianGroup("ab", (iso([[4, 0], [0, 0.25]]),
                                     iso([[2, 1], [1, 1]])))
        self.check([m for _, m in reference_ball(group, 5)], p)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(RAW, min_size=1, max_size=20),
           st.one_of(st.sampled_from(BASES),
                     st.builds(HPoint, st.floats(-1e3, 1e3),
                               st.floats(1e-11, 1e3))))
    @example([Isometry._raw(1.0, 0.0, 1e-3, 1e-15)], HPoint(0.0, 2e-12))
    @example([Isometry._raw(3.0, 0.0, 1.3e300, 1.0 / 3.0)], HPoint(1e8, 1e8))
    def test_arbitrary_matrices(self, isometries, p):
        self.check(isometries, p)

    def test_both_errors_come_through(self):
        # The second image lies at y = 1e-12 exactly, which HPoint refuses.
        ref = self.check([Isometry._raw(1.0, 0.0, 1e-3, 1e-15),
                          Isometry._raw(1e-200, 0.0, 0.0, 1.0),
                          Isometry._raw(0.5, 0.0, 0.0, 1.0),
                          Isometry._raw(1.0, 0.0, 0.0, 1.0)],
                         HPoint(0.0, 2e-12))
        collapsed = (NumericDegeneracyError,
                     "image of (0.0, 2e-12) collapsed onto the boundary")
        assert ref[:3] == [
            (NumericDegeneracyError, "denominator c*z + d collapsed"),
            collapsed, collapsed]
        assert isinstance(ref[3], list)

    def test_past_float_range(self):
        # |c*z + d| = 1.8e308 would overflow abs(), not the parts; the
        # image, about 2.3e-300 * (1 + 0i), lies on the boundary.
        m, p = Isometry._raw(3.0, 0.0, 1.3e300, 1.0 / 3.0), HPoint(1e8, 1e8)
        collapsed = (NumericDegeneracyError,
                     "image of (100000000.0, 100000000.0) collapsed onto the "
                     "boundary")
        with pytest.raises(NumericDegeneracyError) as raised:
            apply_isometry(m, p)
        assert str(raised.value) == collapsed[1]
        assert self.check([m], p) == [collapsed]
        # (z - i)/(z + i) is nan + nan*i at z = 1e308 + 1e308i.
        assert self.check([Isometry.identity()], HPoint(1e308, 1e308)) == [(
            NumericDegeneracyError,
            "image of (1e+308, 1e+308) has no finite disk point")]


class TestAxisAngles:
    """``is_hyperbolic`` and ``axis_angles`` against ``classify_isometry``
    and ``to_disk(axis(g))``, errors included."""

    @staticmethod
    def check(isometries, trace_tol=1e-9):
        hyp = is_hyperbolic(*entries(isometries), trace_tol)
        assert hyp.tolist() == [classify_isometry(m, trace_tol) == "hyperbolic"
                                for m in isometries]
        chosen = [m for m, h in zip(isometries, hyp) if h]
        ends, fail = axis_angles(*entries(chosen))
        got = [failure_outcome(AXIS_FAILURES, code) if code else bits(row)
               for row, code in zip(ends, fail.tolist())]
        ref = [outcome_bits(lambda: to_disk(axis(m, trace_tol)))
               for m in chosen]
        assert got == ref
        return ref

    def test_random_hyperbolic(self):
        rng = random.Random(11)
        ms = [random_hyperbolic(rng) for _ in range(500)]
        ms += [Isometry(4.0 ** n, 0.0, 0.0, 4.0 ** -n) for n in range(1, 60)]
        ms += [m.inverse() for m in ms]
        assert all(isinstance(r, list) for r in self.check(ms))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(RAW, min_size=1, max_size=20),
           st.sampled_from([1e-12, 1e-9, 1e-3, 0.5]))
    def test_arbitrary_matrices(self, isometries, trace_tol):
        self.check(isometries, trace_tol)

    def test_every_error_comes_through(self):
        # c == 0 with d == a (b / 0.0 is +inf or -inf in numpy), a
        # negative discriminant, a discriminant that overflows to nan
        # (inf - inf), which passes the test for <= 0 to nan endpoints, and
        # fixed points 0 and 1e-10, whose angles lie 2e-10 apart.
        ref = self.check([Isometry._raw(3.0, 1.0, 0.0, 3.0),
                          Isometry._raw(3.0, -1.0, 0.0, 3.0),
                          Isometry._raw(3.0, 1.0, -10.0, 3.0),
                          Isometry._raw(1e200, 1e200, -1e200, 1.0),
                          Isometry(0.5, 0.0, -1.5e10, 2.0)])
        assert ref == [
            (ZeroDivisionError, "float division by zero"),
            (ZeroDivisionError, "float division by zero"),
            (NotHyperbolicError, "no real axis: discriminant <= 0"),
            (ValidationError, "ideal point angle must be finite"),
            (ValidationError, "geodesic endpoints coincide")]

    def test_near_identity_is_not_hyperbolic(self):
        # Its trace exceeds 2 + trace_tol, but classify_isometry calls it
        # the identity first.
        m = Isometry._raw(1.0 + 5e-13, 0.0, 0.0, 1.0 + 5e-13)
        assert classify_isometry(m, 1e-13) == "identity"
        assert self.check([m], 1e-13) == []


def test_no_array_path_calls_a_scalar_twin(monkeypatch):
    # Every scalar form an array kernel once handed an element to raises
    # here; the array paths still give their pinned errors.
    schottky = FuchsianGroup("ab", (iso([[4, 0], [0, 0.25]]),
                                    iso([[2, 1], [1, 1]])))
    huge = FuchsianGroup("ab", (iso([[3, 0], [1.3e300, 1.0 / 3.0]]),
                                iso([[2, 1], [1, 1]])))
    flat_axis = FuchsianGroup("a", (Isometry(0.5, 0.0, -1.5e10, 2.0),))

    def twin(*args, **kwargs):
        raise AssertionError("an array path called a scalar twin")

    monkeypatch.setattr(Isometry, "compose", twin)
    for name in ("apply_isometry", "classify_isometry", "axis",
                 "geodesic_intersection", "geodesic_relation"):
        monkeypatch.setattr(hyperbolic, name, twin)
        # Also where group would look a name up, had it imported it.
        monkeypatch.setattr(f"endlam.group.{name}", twin, raising=False)
    overflow = [Isometry._raw(1e200, 0.0, 0.0, 1e-200)]
    overflow.append(overflow[0].inverse())
    singular = [Isometry._raw(1.0, 1.0, 1.0, 1.0)] * 2
    for call, error, message in [
            (lambda: ball_products(overflow, 2), NumericDegeneracyError,
             "isometry product overflowed"),
            (lambda: ball_products(singular, 1), NumericDegeneracyError,
             "product determinant collapsed to 0.0"),
            (lambda: limit_set_sample(schottky, HPoint(0.0, 2e-12), 1),
             NumericDegeneracyError,
             "image of (0.0, 2e-12) collapsed onto the boundary"),
            (lambda: limit_set_sample(huge, HPoint(1e8, 1e8), 1),
             NumericDegeneracyError,
             "image of (100000000.0, 100000000.0) collapsed onto the "
             "boundary"),
            (lambda: limit_set_sample(schottky, HPoint(1e308, 1e308), 0),
             NumericDegeneracyError,
             "image of (1e+308, 1e+308) has no finite disk point"),
            (lambda: limit_set_sample(flat_axis, HPoint(0.0, 1e-10), 1),
             ValidationError, "geodesic endpoints coincide"),
            (lambda: geodesic_intersections([(0.0, 1.0)], [(TWO_PI, 2.0)],
                                            [0], [0]),
             NoIntersectionError, "parallel vertical carriers"),
            (lambda: geodesic_intersections([(1.0, 2.0)], [(2.0, 1.0)],
                                            [0], [0]),
             NumericDegeneracyError, "concentric carriers")]:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    assert limit_set_sample(schottky, HPoint(0.0, 1.0), 3).words == 53


class TestAngleSet:
    """Verdicts of the tolerant angle set, :func:`first_distinct`."""

    def test_keeps_new_pairs_only(self):
        u = [1.0, 1.0, 1.0 + 5e-4, 1.0]
        v = [2.0, 2.0, 2.0 - 5e-4, 2.0 + 2e-3]   # one coordinate apart is new
        for _ in each_kernel():
            assert first_distinct(u, v, 1e-3).tolist() == [True, False,
                                                            False, True]

    @pytest.mark.parametrize("shift, new", [(0.999e-3, False),
                                            (1.001e-3, True)])
    def test_tolerance_boundary(self, shift, new):
        u = [1.0, 1.0 + shift, 1.0]
        v = [2.0, 2.0, 2.0 - shift]
        for _ in each_kernel():
            assert first_distinct(u, v, 1e-3).tolist() == [True, new, new]

    @pytest.mark.parametrize("first, second", [(1e-4, TWO_PI - 1e-4),
                                               (TWO_PI - 1e-4, 1e-4),
                                               (0.0, TWO_PI - 9e-4)])
    def test_pairs_wrap_at_zero(self, first, second):
        u = [first, second, 3.0, 3.0]
        v = [3.0, 3.0, first, second]
        for _ in each_kernel():
            assert first_distinct(u, v, 1e-3).tolist() == [True, False,
                                                            True, False]

    @pytest.mark.parametrize("first, second, new", [
        (TWO_PI - 2e-4, 3e-4, False),
        (3e-4, TWO_PI - 2e-4, False),
        (TWO_PI - 6e-4, 6e-4, True),
        (6e-4, TWO_PI - 6e-4, True),
    ])
    def test_points_wrap_like_same_ideal_point(self, first, second, new):
        t = [first, second]
        for _ in each_kernel():
            assert first_distinct(t, t, 1e-3).tolist() == [True, new]
        assert new is not same_ideal_point(IdealPoint(first),
                                           IdealPoint(second), 1e-3)

    def test_order_decides_a_chain(self):
        # Steps of 0.6 tol: the 2nd item is within tol of the 1st, the 3rd
        # only of the 2nd, which is not kept.  Reversed, the 3rd comes
        # first and the 1st is kept again.
        tol = 1e-3
        u = [1.0, 1.0 + 0.6 * tol, 1.0 + 1.2 * tol]
        for _ in each_kernel():
            assert first_distinct(u, u, tol).tolist() == [True, False, True]
            assert first_distinct(u[::-1], u[::-1], tol).tolist() == [
                True, False, True]
            assert first_distinct(u[1:], u[1:], tol).tolist() == [True,
                                                                  False]

    def test_repeat_of_a_dropped_pair_is_dropped(self):
        tol = 1e-3
        u = [1.0, 1.0 + 0.6 * tol, 1.0 + 1.2 * tol, 1.0 + 0.6 * tol]
        for _ in each_kernel():
            assert first_distinct(u, u, tol).tolist() == [True, False, True,
                                                          False]

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single(self, n):
        for _ in each_kernel():
            assert first_distinct([2.0] * n, [3.0] * n, 1e-9).tolist() == (
                [True] * n)

    def test_many_blocks(self):
        # A long chain across every block boundary; a budget of 0 ends a
        # block at its first row with a candidate among the block's rows,
        # often after one row.
        rng = random.Random(11)
        tol = 1e-3
        u = [1.0 + 0.6 * tol * k for k in range(60)]
        u += [rng.choice(u) + rng.uniform(-2, 2) * tol for _ in range(200)]
        v = [rng.choice((t, 2.0)) for t in u]
        assert_blocks_match_sequential(u, v, tol)

    def test_crowded_cell(self):
        # Hundreds of distinct pairs inside one grid cell (cells are
        # centred on multiples of 2 * tol): each row meets every other,
        # so the budget cuts the blocks, and the rows that neither a kept
        # row nor an alone row settles are decided one by one.
        rng = random.Random(12)
        tol = 1e-3
        u = [1.0 + rng.uniform(-0.99, 0.99) * tol for _ in range(400)]
        v = [2.0 + rng.uniform(-0.99, 0.99) * tol for _ in range(400)]
        assert_blocks_match_sequential(u, v, tol)

    def test_long_chain(self):
        # Steps of 0.6 tol: every other row is kept, each decided only
        # after the one before it, across many blocks.
        tol = 1e-3
        u = [1.0 + 0.6 * tol * k for k in range(500)]
        expected = sequential_first_distinct(u, [2.0] * 500, tol)
        assert expected == [k % 2 == 0 for k in range(500)]
        assert_blocks_match_sequential(u, [2.0] * 500, tol)
        assert_blocks_match_sequential(u, u, tol)

    def test_tight_cell_across_blocks(self):
        # A tail converging inside one cell (cells are centred on multiples
        # of 2 * tol) from row 5 to row 34: blocks of 1, 3 and 16 rows cut
        # it, and the row kept before a cut drops the rest after it.
        tol = 1e-3
        u = [0.3, 1.5, 2.5, 3.5, 4.5]
        u += [1.0 + 0.9 * tol * 0.7 ** k for k in range(30)]
        v = [2.0] * 5 + [2.0 - 0.3 * tol * 0.7 ** k for k in range(30)]
        assert sequential_first_distinct(u, v, tol) == [True] * 6 + [False] * 29
        assert_blocks_match_sequential(u, v, tol)

    def test_tight_cell_first_row_blocked_from_next_cell(self):
        # The kept row at 1.0018 lies one cell up and within tol of the
        # tight cell's first row, 1.0009, but not of its second, 1.0001:
        # the second is kept and drops the third.  Rows before the cell
        # put the cell's rows in one block or across blocks.
        tol = 1e-3
        for lead in ([], [0.5], [0.5, 0.7, 0.9]):
            u = lead + [1.0018, 1.0009, 1.0001, 1.00015]
            v = [2.0] * len(u)
            assert sequential_first_distinct(u, v, tol)[-4:] == [
                True, False, True, False]
            assert_blocks_match_sequential(u, v, tol)

    def test_spread_of_exactly_tol_is_not_tight(self):
        # 1 and 1 + tol share a cell (512.5 rounds to even) and are not
        # within tol of each other: both are kept, and the row between
        # them is dropped.
        tol = 2.0 ** -10
        u = [1.0, 1.0 + tol, 1.0 + tol / 2]
        v = [2.0] * 3
        assert sequential_first_distinct(u, v, tol) == [True, True, False]
        assert_blocks_match_sequential(u, v, tol)
        assert_blocks_match_sequential(v, u, tol)

    @pytest.mark.parametrize("tol", [1e-3, 1.25e-3, 1e-9])
    def test_tails_at_the_seam(self, tol):
        # Tails converging on 0 from both sides of the seam, in u, in v
        # and in both, interleaved: the cells near 0 and near 2 pi wrap
        # into one another.
        steps = [0.9 * tol * 0.6 ** k for k in range(12)]
        u, v = [], []
        for d in steps:
            for a, b in ((d, 3.0), (TWO_PI - d, 3.0), (3.0, d),
                         (3.0, TWO_PI - 0.5 * d), (d, TWO_PI - d)):
                u.append(a)
                v.append(b)
        assert_blocks_match_sequential(u, v, tol)

    def test_cells_that_share_a_key(self):
        # At tol 1e-12 a turn holds more than 2**32 cells, so keys
        # overflow: the first row's cell and the third's share a key, and
        # the third lies across the seam in v from the second, one cell
        # after its own.  The third row looks up that cell itself.
        tol = 1e-12
        q = 2 * tol
        wrap = round(TWO_PI / q)
        step = -(-(1 << 64) // wrap)
        shift = step * wrap - (1 << 64)
        u = [(1000 + step) * q, 1000 * q, 1000 * q]
        v = [(wrap - 1 - shift) * q, TWO_PI - 0.3 * tol, TWO_PI - 0.9 * tol]
        _, _, keys, _ = hyperbolic._grid(np.array(u), np.array(v), tol)
        assert keys[0] == keys[2] != keys[1]
        assert sequential_first_distinct(u, v, tol) == [True, True, False]
        assert_blocks_match_sequential(u, v, tol)

    def test_pair_tests_on_a_deep_orbit(self):
        # The candidates of the schottky_ab orbit at horizon 20, ball 5
        # that reach the gap test, and those within tol.  Before tight
        # cells these were 102,352 and 38,688, with exact repeats
        # removed first.
        (u, v, tol), = orbit_calls()
        counts = [0, 0]
        close_pairs = hyperbolic._close_pairs

        def counted(u, v, tol, rows, i, lo, n):
            counts[0] += int(n.sum())
            i, j = close_pairs(u, v, tol, rows, i, lo, n)
            counts[1] += len(i)
            return i, j

        with mock.patch.object(hyperbolic, "_close_pairs", counted):
            assert first_distinct(u, v, tol).sum() == 7702
        # Two blocks; 34,678 and 10,179 in 2,048-row blocks.
        assert counts == [34885, 10234]

    def test_peak_memory_on_a_deep_orbit(self):
        # The candidates of the schottky_ab orbit at horizon 20, ball 5:
        # the blocks keep the temporaries near the size of the input (the
        # default blocks peak at about 2.0 MB, one block for all 19,885
        # rows at about 2.5 MB).
        scene = load_scene(scene_path("schottky_ab.json"))
        calls = []

        def record(*args):
            calls.append(args)
            return first_distinct(*args)

        with mock.patch.object(lamination, "first_distinct", record):
            juncture_orbit(scene, scene.junctures[0], range(-20, 21), 5)
        (u, v, tol), = calls
        assert len(u) == 19885
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert first_distinct(u, v, tol).sum() == 7702
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < DEDUP_PEAK_MB * 1e6

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_rows_around_the_dense_cut(self, extra):
        # One row short of the cut takes the n x n mask, the cut and one
        # past it the grid: rows at 0 and 2 pi, tails converging on 0 from
        # both sides of the seam in u and in v, chains and repeats.
        rng = random.Random(13 + extra)
        tol = 1e-3
        n = hyperbolic._DENSE_ROWS + extra
        u, v = [0.0, TWO_PI, 0.0, TWO_PI], [1.0, 1.0, TWO_PI, 0.0]
        for k in range(n):
            d = 0.9 * tol * 0.6 ** (k % 15)
            pair = rng.choice((
                (d, 2.0), (TWO_PI - d, 2.0), (2.0, d), (2.0, TWO_PI - d),
                (d, TWO_PI - d), (1.0 + 0.6 * tol * k, 3.0),
                (rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))))
            u.append(pair[0])
            v.append(pair[1])
        u, v = u[:n], v[:n]
        expected = sequential_first_distinct(u, v, tol)
        assert 10 < sum(expected) < n - 10
        assert first_distinct(u, v, tol).tolist() == expected
        assert_blocks_match_sequential(u, v, tol)

    def test_desk_scale_orbit_in_blocks(self):
        # The - juncture's 0..20 orbit of schottky_ab at ball 7: the
        # default blocks keep what one block keeps, within the tracemalloc
        # peak they had when each block still passed over every run and
        # row (10.6 MB; about 8 MB since).
        scene = load_scene(scene_path("schottky_ab.json"))
        juncture = next(j for j in scene.junctures if j.sign == "-")
        calls = []

        def record(*args):
            calls.append(args)
            return first_distinct(*args)

        with mock.patch.object(lamination, "first_distinct", record):
            juncture_orbit(scene, juncture, range(0, 21), 7)
        (u, v, tol), = calls
        assert len(u) == 91833
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            keep = first_distinct(u, v, tol)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert keep.sum() == 26996
        assert peak < 10.6e6
        with mock.patch.multiple(hyperbolic, _DEDUP_ROWS=len(u),
                                 _DEDUP_PAIRS=1 << 62):
            assert first_distinct(u, v, tol).tolist() == keep.tolist()

    @pytest.mark.parametrize("n_range, ball, rows, blocks", [
        # An orbit call of a lam-deep job, the -h..h orbit at ball 5, and
        # the one-sided orbit at ball 7.
        (range(0, 21), 5, 10185, 1),
        (range(-20, 21), 5, 19885, 2),
        (range(0, 21), 7, 91833, 6)])
    def test_blocks_of_schottky_orbits(self, n_range, ball, rows, blocks):
        # The - juncture's orbits of schottky_ab: the row cap, derived
        # from the pair budget, decides them in this many blocks (5, 10
        # and 45 at 2,048 rows), and 2,048-row blocks and one block keep
        # the same rows.
        (u, v, tol), = orbit_calls(n_range, ball)
        assert len(u) == rows
        decide, sizes = hyperbolic._decide, []

        def counted(blocked, *args):
            sizes.append(len(blocked))
            return decide(blocked, *args)

        with mock.patch.object(hyperbolic, "_decide", counted):
            keep = first_distinct(u, v, tol).tolist()
        assert len(sizes) == blocks and sum(sizes) == rows
        for shape in ((2048, hyperbolic._DEDUP_PAIRS), (rows, 1 << 62)):
            with mock.patch.multiple(hyperbolic, _DEDUP_ROWS=shape[0],
                                     _DEDUP_PAIRS=shape[1]):
                assert first_distinct(u, v, tol).tolist() == keep, shape


def orbit_calls(n_range=range(-20, 21), ball=5):
    """The first_distinct calls of the schottky_ab orbit of its -
    juncture over ``n_range`` at radius ``ball``: one.  By default the
    orbit at horizon 20, ball 5, with 19,885 candidates."""
    scene = load_scene(scene_path("schottky_ab.json"))
    calls = []

    def record(*args):
        calls.append(args)
        return first_distinct(*args)

    with mock.patch.object(lamination, "first_distinct", record):
        juncture_orbit(scene, scene.junctures[0], n_range, ball)
    return calls


# Tracemalloc peak allowed to first_distinct on the deep orbit's
# 19,885 candidates (about 2.0 MB).
DEDUP_PEAK_MB = 5

# Block shapes (rows, pair budget) that take every path of first_distinct:
# one-row blocks, blocks cut by the budget, kept rows of earlier blocks,
# the row cap before it was derived from the budget, and the defaults.
BLOCK_SHAPES = ((1, 0), (3, 0), (3, 2), (16, 0), (16, 40),
                (2048, 300), (hyperbolic._DEDUP_ROWS, 300),
                (hyperbolic._DEDUP_ROWS, hyperbolic._DEDUP_PAIRS))


# A cut past every input here: the n x n mask decides each input whole.
ALL_DENSE = 1000


def each_kernel():
    """Selects each kernel of first_distinct in turn: the n x n mask of
    small inputs, then the grid of cells in default blocks."""
    for cut in (ALL_DENSE, 0):
        with mock.patch.object(hyperbolic, "_DENSE_ROWS", cut):
            yield cut


def assert_blocks_match_sequential(u, v, tol, shapes=BLOCK_SHAPES):
    """The dense kernel, and the grid in blocks of every shape, keep what
    the sequential angle set keeps."""
    expected = sequential_first_distinct(u, v, tol)
    with mock.patch.object(hyperbolic, "_DENSE_ROWS", ALL_DENSE):
        assert first_distinct(u, v, tol).tolist() == expected, "dense"
    for rows, pairs in shapes:
        with mock.patch.multiple(hyperbolic, _DENSE_ROWS=0, _DEDUP_ROWS=rows,
                                 _DEDUP_PAIRS=pairs):
            assert first_distinct(u, v, tol).tolist() == expected, (
                rows, pairs)


def greedy_first_distinct(u, v, tol):
    """The verdict by definition: no kept pair within tol, by brute force."""
    kept, out = [], []
    for a, b in zip(u, v):
        out.append(not any(angular_gap(a, x) < tol and angular_gap(b, y) < tol
                           for x, y in kept))
        if out[-1]:
            kept.append((a, b))
    return out


TOLERANCES = (1e-12, 1e-9, 1e-3, 1e-1)
# Angles anywhere, and on either side of the tolerance from the seam.
ANGLES = {tol: st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.sampled_from((0.0, 0.5 * tol, 0.999 * tol, 1.001 * tol,
                     TWO_PI - 0.5 * tol, TWO_PI - 0.999 * tol,
                     math.nextafter(TWO_PI, 0))))
    for tol in TOLERANCES}
KINDS = st.sampled_from(("new", "point", "repeat", "offset", "chain",
                         "tail"))
STEPS = {"chain": st.sampled_from((0.6, -0.6, 0.0)),
         "offset": st.sampled_from((0.999, -0.999, 1.001, -1.001, 0.0)),
         "tail": st.sampled_from((0.5, 0.25, 0.1))}


@st.composite
def angle_pairs(draw):
    """A tolerance and pairs that repeat, chain, straddle the tolerance
    and the 0/2 pi seam, converge on an earlier pair, and include points
    (t, t)."""
    tol = draw(st.sampled_from(TOLERANCES))
    angle = ANGLES[tol]
    pairs = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(KINDS)
        if kind == "new" or not pairs:
            pair = (draw(angle), draw(angle))
        elif kind == "point":
            t = draw(angle)
            pair = (t, t)
        elif kind == "tail":
            # The last pair moved toward an earlier one by a fixed ratio,
            # the long way round never: a run of these steps shrinks
            # geometrically below tol.
            anchor = pairs[draw(st.integers(0, len(pairs) - 1))]
            ratio = draw(STEPS["tail"])
            pair = tuple(
                (x + ((y - x + math.pi) % TWO_PI - math.pi) * ratio)
                % TWO_PI for x, y in zip(anchor, pairs[-1]))
        else:
            base = pairs[-1] if kind == "chain" else pairs[
                draw(st.integers(0, len(pairs) - 1))]
            pair = base if kind == "repeat" else tuple(
                (t + tol * draw(STEPS[kind])) % TWO_PI for t in base)
        pairs.append(pair)
    return tol, [u for u, _ in pairs], [v for _, v in pairs]


class TestFirstDistinct:
    @settings(max_examples=400, deadline=None)
    @given(angle_pairs())
    def test_matches_sequential_angle_set(self, case):
        tol, u, v = case
        assert sequential_first_distinct(u, v, tol) == greedy_first_distinct(
            u, v, tol)
        assert_blocks_match_sequential(u, v, tol, (
            (4, 0), (4, 6), (hyperbolic._DEDUP_ROWS, 6),
            (hyperbolic._DEDUP_ROWS, hyperbolic._DEDUP_PAIRS)))

    @settings(max_examples=400, deadline=None)
    @given(angle_pairs())
    def test_keeps_all_of_its_own_output(self, case):
        # Each kept pair is clear of every earlier kept pair, so a second
        # pass at the same tol keeps them all: why laminate extracts a
        # lone family, already deduplicated, without a merge.
        tol, u, v = case
        for cut in each_kernel():
            keep = first_distinct(u, v, tol)
            assert first_distinct(np.asarray(u, dtype=float)[keep],
                                  np.asarray(v, dtype=float)[keep],
                                  tol).all(), cut
