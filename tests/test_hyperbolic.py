import math
import random

import pytest

from endlam.errors import (
    NoIntersectionError,
    NotHyperbolicError,
    ValidationError,
)
from endlam.hyperbolic import (
    ANGLE_TOL,
    TWO_PI,
    AngleSet,
    Geodesic,
    HPoint,
    IdealPoint,
    INF,
    Isometry,
    angular_gap,
    apply_isometry,
    axis,
    boundary_action,
    classify_isometry,
    geodesic_intersection,
    geodesic_relation,
    hyperbolic_distance,
    same_ideal_point,
    to_disk,
    translation_length,
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


class TestAngleSet:
    def test_keeps_new_pairs_only(self):
        kept = AngleSet(1e-3)
        assert kept.add(1.0, 2.0)
        assert not kept.add(1.0, 2.0)
        assert not kept.add(1.0 + 5e-4, 2.0 - 5e-4)
        assert kept.add(1.0, 2.0 + 2e-3)   # one coordinate apart is new

    @pytest.mark.parametrize("shift, new", [(0.999e-3, False),
                                            (1.001e-3, True)])
    def test_tolerance_boundary(self, shift, new):
        kept = AngleSet(1e-3)
        assert kept.add(1.0, 2.0)
        assert kept.add(1.0 + shift, 2.0) is new
        assert kept.add(1.0, 2.0 - shift) is new

    @pytest.mark.parametrize("first, second", [(1e-4, TWO_PI - 1e-4),
                                               (TWO_PI - 1e-4, 1e-4),
                                               (0.0, TWO_PI - 9e-4)])
    def test_pairs_wrap_at_zero(self, first, second):
        kept = AngleSet(1e-3)
        assert kept.add(first, 3.0)
        assert not kept.add(second, 3.0)
        assert kept.add(3.0, first)
        assert not kept.add(3.0, second)

    @pytest.mark.parametrize("first, second, new", [
        (TWO_PI - 2e-4, 3e-4, False),
        (3e-4, TWO_PI - 2e-4, False),
        (TWO_PI - 6e-4, 6e-4, True),
        (6e-4, TWO_PI - 6e-4, True),
    ])
    def test_points_wrap_like_same_ideal_point(self, first, second, new):
        kept = AngleSet(1e-3)
        assert kept.add(first, first)
        assert kept.add(second, second) is new
        assert new is not same_ideal_point(IdealPoint(first),
                                           IdealPoint(second), 1e-3)
