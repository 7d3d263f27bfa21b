import math

import pytest

from endlam.errors import ValidationError
from endlam.group import FuchsianGroup, Word
from endlam.hyperbolic import (
    Geodesic,
    INF,
    Isometry,
    angle_from_boundary,
    angular_gap,
    boundary_action,
    geodesic_relation,
)
from endlam.lamination import (
    AxiomParams,
    GeodesicFamily,
    JunctureSpec,
    LaminationApprox,
    axiom_report,
    crossing_audit,
    escape_test,
    extract_limit_leaves,
    juncture_orbit,
    laminate,
    transversal_intersections,
)

from conftest import (
    TORUS_A,
    TORUS_B,
    exact_translation_length,
    exact_word_matrix,
    frac_inverse,
    frac_matrix,
    make_scene,
    quadratic_axis_oracle,
)


def torus_letter_matrices():
    A = frac_matrix(TORUS_A)
    B = frac_matrix(TORUS_B)
    return {1: A, -1: frac_inverse(A), 2: B, -2: frac_inverse(B)}


class TestJunctureSpec:
    def test_sign_validated(self):
        with pytest.raises(ValidationError):
            JunctureSpec("e", "x", Word((1,)))

    def test_word_nonempty(self):
        with pytest.raises(ValidationError):
            JunctureSpec("e", "-", Word(()))


class TestJunctureOrbit:
    def test_identity_automorphism_single_axis(self, identity_scene):
        fam = juncture_orbit(identity_scene, identity_scene.junctures[0],
                             n_range=range(0, 6), ball_k=0)
        assert len(fam) == 1

    def test_shift_orbit_four_axes(self, torus_scene):
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             n_range=range(0, 4), ball_k=0)
        assert len(fam) == 4

    def test_monotone_in_ball_and_range(self, torus_scene):
        j = torus_scene.junctures[0]
        sizes_k = [len(juncture_orbit(torus_scene, j, range(0, 4), k))
                   for k in (0, 1, 2)]
        assert sizes_k[0] <= sizes_k[1] <= sizes_k[2]
        sizes_n = [len(juncture_orbit(torus_scene, j, range(0, w), 1))
                   for w in (2, 4, 6)]
        assert sizes_n[0] <= sizes_n[1] <= sizes_n[2]

    def test_provenance_tracks_iterate(self, torus_scene):
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             n_range=range(0, 4), ball_k=0)
        assert sorted(p.iterate for _, p in fam.entries) == [0, 1, 2, 3]


class TestEscape:
    def test_inner_automorphism_escaping(self, inner_scene):
        for j in inner_scene.junctures:
            assert escape_test(inner_scene, j).verdict == "escaping"

    def test_shift_scene_non_escaping(self, torus_scene):
        report = escape_test(torus_scene, torus_scene.junctures[0],
                             horizon=20)
        assert report.verdict == "non-escaping"
        lengths = [r.length for r in report.rows]
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_lengths_match_exact_oracle(self, torus_scene):
        # a b^n evaluated in exact rational arithmetic.
        mats = torus_letter_matrices()
        report = escape_test(torus_scene, torus_scene.junctures[0],
                             horizon=20)
        for row in report.rows:
            exact = exact_translation_length(
                exact_word_matrix((1,) + (2,) * row.iterate, mats)
            )
            assert abs(row.length - exact) <= 1e-9

    def test_alternating_is_inconclusive(self):
        # Swapping a and b makes lengths alternate between two values.
        scene = make_scene(
            [[2, 0], [0, 0.5]], [[8, 0.5], [0.5, 0.25]],
            forward=("b", "a"), inverse=("b", "a"),
            junctures=[("e-", "-", "a")],
        )
        report = escape_test(scene, scene.junctures[0], horizon=3)
        assert report.verdict == "inconclusive"

    def test_verdict_stable_under_longer_horizon(self, torus_scene,
                                                 inner_scene):
        for scene, expected in ((torus_scene, "non-escaping"),
                                (inner_scene, "escaping")):
            verdicts = {escape_test(scene, scene.junctures[0], h).verdict
                        for h in (5, 10, 20)}
            assert verdicts == {expected}

    def test_horizon_validated(self, torus_scene):
        with pytest.raises(ValidationError):
            escape_test(torus_scene, torus_scene.junctures[0], horizon=2)


class TestExtract:
    def test_constant_chain_yields_no_leaves(self, identity_scene):
        fam = juncture_orbit(identity_scene, identity_scene.junctures[0],
                             n_range=range(0, 8), ball_k=0)
        lam = extract_limit_leaves(fam)
        assert lam.leaves == []
        assert any("family member" in s.reason for s in lam.skipped)

    def test_chain_limit_matches_quadratic_oracle(self, torus_scene):
        # Independent oracle: exact powers a b^50, then the quadratic
        # formula on a scale-normalized copy.
        mats = torus_letter_matrices()
        rep50, att50 = quadratic_axis_oracle(
            exact_word_matrix((1,) + (2,) * 50, mats)
        )
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             n_range=range(-12, 13), ball_k=0)
        lam = extract_limit_leaves(fam)
        assert len(lam.leaves) == 1
        leaf = lam.leaves[0]
        assert angular_gap(leaf.a.theta, angle_from_boundary(rep50)) < 1e-6
        assert angular_gap(leaf.b.theta, angle_from_boundary(att50)) < 1e-6

    def test_limit_is_fixed_points_of_b_and_image(self, torus_scene):
        # The limit should be (repelling(b), a * attracting(b)).
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             n_range=range(-12, 13), ball_k=0)
        leaf = extract_limit_leaves(fam).leaves[0]
        golden = (1 + math.sqrt(5)) / 2
        assert abs(leaf.a.boundary - (1 - math.sqrt(5)) / 2) < 1e-6
        assert abs(leaf.b.boundary - 16 * golden) < 1e-4  # large coordinate

    def test_leaves_never_in_family(self, torus_scene):
        # At deeper horizons the family provably accumulates within any
        # tolerance of the leaves, so the disjointness check is run at a
        # horizon where the gap still dominates the angle tolerance.
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             n_range=range(-8, 9), ball_k=2)
        lam = extract_limit_leaves(fam)
        assert lam.leaves
        for leaf in lam.leaves:
            for geo, _ in fam.entries:
                assert geodesic_relation(leaf, geo) != "equal"

    def test_certificate_tails_strictly_decreasing(self, torus_scene):
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             n_range=range(-12, 13), ball_k=2)
        lam = extract_limit_leaves(fam)
        assert lam.certificates
        for cert in lam.certificates:
            tail = cert.gaps[-4:]
            assert all(b < a or b < 1e-13 for a, b in zip(tail, tail[1:]))

    def test_equivariance_under_scene_conjugation(self, torus_scene):
        g = Isometry.from_matrix([[1, 1], [0.5, 1]])
        conj = make_scene(
            TORUS_A, TORUS_B,
            forward=("a b", "b"), inverse=("a b^-1", "b"),
            junctures=[("e-", "-", "a")],
        )
        moved = [g.compose(m).compose(g.inverse())
                 for m in conj.group.generators]
        conj.group = FuchsianGroup(("a", "b"), tuple(moved))
        base_lam = extract_limit_leaves(
            juncture_orbit(torus_scene, torus_scene.junctures[0],
                           range(-10, 11), 1)
        )
        conj_lam = extract_limit_leaves(
            juncture_orbit(conj, conj.junctures[0], range(-10, 11), 1)
        )
        assert len(base_lam.leaves) == len(conj_lam.leaves)
        for leaf in base_lam.leaves:
            image = Geodesic(boundary_action(g, leaf.a),
                             boundary_action(g, leaf.b))
            assert any(
                angular_gap(image.a.theta, other.a.theta) < 1e-6
                and angular_gap(image.b.theta, other.b.theta) < 1e-6
                for other in conj_lam.leaves
            )

    def test_mixed_sign_family_rejected(self, torus_scene):
        minus = juncture_orbit(torus_scene, torus_scene.junctures[0],
                               range(0, 5), 0)
        plus = juncture_orbit(
            torus_scene,
            JunctureSpec("e+", "+", torus_scene.group.word("b a")),
            range(0, 5), 0,
        )
        merged = GeodesicFamily.merge([minus, plus])
        with pytest.raises(ValidationError):
            extract_limit_leaves(merged)


class TestCrossingAudit:
    def test_disjoint_pair_clean(self):
        lam = LaminationApprox(
            "+",
            [Geodesic.from_boundary(0, 1), Geodesic.from_boundary(2, 3)],
            [], [],
        )
        assert crossing_audit(lam) == []

    def test_injected_crossing_reported(self):
        lam = LaminationApprox(
            "+",
            [Geodesic.from_boundary(0, 2), Geodesic.from_boundary(1, 3)],
            [], [],
        )
        violations = crossing_audit(lam)
        assert len(violations) == 1
        assert (violations[0].index_a, violations[0].index_b) == (0, 1)

    def test_torus_scene_extraction_clean(self, torus_scene):
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             n_range=range(-12, 13), ball_k=3)
        lam = extract_limit_leaves(fam)
        assert len(lam.leaves) > 10
        assert crossing_audit(lam) == []

    def test_single_crossing_against_opposite_junctures(self, torus_scene):
        # A leaf and a juncture axis are geodesics, so they meet at most
        # once; every crossing pair yields exactly one intersection point.
        from endlam.hyperbolic import geodesic_intersection
        minus_fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                                   range(-10, 11), 1)
        plus_fam = juncture_orbit(torus_scene, torus_scene.junctures[1],
                                  range(-10, 11), 1)
        lam = extract_limit_leaves(minus_fam)
        for leaf in lam.leaves:
            for geo, _ in plus_fam.entries:
                rel = geodesic_relation(leaf, geo)
                if rel == "cross":
                    geodesic_intersection(leaf, geo)  # unique, no error


class TestIntersections:
    def test_symmetric_crossing_at_origin(self):
        lam_p = LaminationApprox("+", [Geodesic.from_boundary(0, INF)],
                                 [], [])
        lam_m = LaminationApprox("-", [Geodesic.from_boundary(-1, 1)],
                                 [], [])
        meager = transversal_intersections(lam_p, lam_m)
        assert len(meager.points) == 1
        rec = meager.points[0]
        assert math.hypot(rec.x, rec.y) < 1e-9  # i maps to the disk origin

    def test_disjoint_families_flagged(self):
        lam_p = LaminationApprox("+", [Geodesic.from_boundary(0, 1)], [], [])
        lam_m = LaminationApprox("-", [Geodesic.from_boundary(2, 3)], [], [])
        meager = transversal_intersections(lam_p, lam_m)
        assert meager.points == []
        assert meager.uncovered_plus == [0]
        assert meager.uncovered_minus == [0]

    def test_at_most_one_point_per_pair(self, torus_scene):
        fams = {j.sign: juncture_orbit(torus_scene, j, range(-10, 11), 1)
                for j in torus_scene.junctures}
        lam_p = extract_limit_leaves(fams["-"])
        lam_m = extract_limit_leaves(fams["+"])
        meager = transversal_intersections(lam_p, lam_m)
        pairs = [(r.plus_index, r.minus_index) for r in meager.points]
        assert len(pairs) == len(set(pairs))


class TestLaminate:
    def test_matches_orbit_then_extract(self, torus_scene):
        run = laminate(torus_scene, AxiomParams(horizon=10, ball=1))
        assert [j for j, _ in run.families] == torus_scene.junctures
        direct = {j.sign: extract_limit_leaves(
            juncture_orbit(torus_scene, j, range(-10, 11), 1))
            for j in torus_scene.junctures}
        assert run.plus.sign == "+" and run.minus.sign == "-"
        assert run.plus.leaves == direct["-"].leaves
        assert run.minus.leaves == direct["+"].leaves

    def test_no_opposite_junctures_gives_none(self):
        scene = make_scene(TORUS_A, TORUS_B, forward=("a b", "b"),
                           inverse=("a b^-1", "b"),
                           junctures=[("e-", "-", "a")])
        run = laminate(scene, AxiomParams(horizon=8, ball=1))
        assert run.plus.leaves
        assert run.minus is None

    def test_extract_false_builds_families_only(self, torus_scene):
        run = laminate(torus_scene, AxiomParams(horizon=6, ball=1),
                       extract=False)
        assert len(run.families) == 2
        assert all(len(fam) for _, fam in run.families)
        assert run.plus is None and run.minus is None

    def test_angle_tol_reaches_orbit_dedup(self, torus_scene):
        sizes = [sum(len(fam) for _, fam in laminate(
            torus_scene, AxiomParams(horizon=10, ball=1, angle_tol=tol),
            extract=False).families) for tol in (1e-9, 1e-2)]
        assert sizes[1] < sizes[0]


class TestAxiomReport:
    def test_identity_not_endperiodic(self, identity_scene):
        report = axiom_report(identity_scene, AxiomParams(horizon=5, ball=1))
        assert not report.endperiodic_like
        assert report.axioms["I"].status == "not-checked"

    def test_torus_scene_passes(self, torus_scene):
        report = axiom_report(torus_scene, AxiomParams(horizon=10, ball=2))
        assert report.endperiodic_like
        assert report.axioms["I"].status == "pass"
        assert report.axioms["III"].data["coverage_plus"] > 0
        assert report.caveat == "finite-approximation evidence only"

    def test_indiscrete_scene_fails_axiom_one(self):
        # Conjugating the dilation by a quarter turn gives an elliptic
        # commutator; the leaf family genuinely self-crosses.
        c = math.sqrt(0.5)
        r = Isometry.from_matrix([[c, c], [-c, c]])
        a = Isometry.from_matrix([[2, 0], [0, 0.5]])
        b = r.compose(a).compose(r.inverse())
        scene = make_scene(
            [[2, 0], [0, 0.5]],
            [[b.a, b.b], [b.c, b.d]],
            forward=("a b", "b"), inverse=("a b^-1", "b"),
            junctures=[("e-", "-", "a"), ("e+", "+", "a")],
        )
        report = axiom_report(scene, AxiomParams(horizon=12, ball=3))
        assert report.axioms["I"].status == "fail"
        assert (report.axioms["I"].data["violations_plus"]
                or report.axioms["I"].data["violations_minus"])
