import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from endlam.errors import (
    BudgetExceededError,
    NotHyperbolicError,
    ValidationError,
)
from endlam.group import (
    DEFAULT_MAX_LETTERS,
    FuchsianGroup,
    Word,
    enumerate_ball,
    evaluate_word,
)
from endlam.hyperbolic import (
    ANGLE_TOL,
    ANGLE_TOL_FLOOR,
    TWO_PI,
    Geodesic,
    INF,
    Isometry,
    TRACE_TOL,
    angle_from_boundary,
    angular_gap,
    axis,
    boundary_action,
    geodesic_intersection,
    geodesic_relation,
    to_disk,
)
from endlam import lamination
from endlam.lamination import (
    DEFAULT_TOL,
    AxiomParams,
    CrossingViolation,
    GeodesicFamily,
    IntersectionRecord,
    JunctureSpec,
    LaminationApprox,
    MeagerInvariantSet,
    Provenance,
    _iterate_cores,
    axiom_report,
    crossing_audit,
    escape_test,
    extract_limit_leaves,
    juncture_orbit,
    laminate,
    transversal_intersections,
)
from endlam.scene import load_scene, parse_scene, scene_path

from conftest import (
    TORUS_A,
    TORUS_B,
    exact_translation_length,
    exact_word_matrix,
    family_of,
    frac_inverse,
    frac_matrix,
    make_scene,
    quadratic_axis_oracle,
    reference_extract,
    reference_merge,
    schottky_conjugate_data,
    SequentialAngleSet,
)


# The juncture of hand-built chains.
E_MINUS = JunctureSpec("e-", "-", Word((1,)))


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

    def test_sparse_iterates_match_single_ones(self, torus_scene):
        # Iterates are stepped from their neighbours toward 0; a sparse,
        # unordered range must give each axis as computed on its own.
        j = torus_scene.junctures[0]
        fam = juncture_orbit(torus_scene, j, (9, -5, 3), ball_k=0)
        assert sorted(p.iterate for _, p in fam.entries) == [-5, 3, 9]
        for geo, prov in fam.entries:
            alone = juncture_orbit(torus_scene, j, [prov.iterate], ball_k=0)
            assert alone.geodesics() == [geo]

    def test_non_hyperbolic_iterate_named(self):
        # trace(a b) = 2 * 0.25 + 0.5 * 3 = 2: the first iterate of a is
        # parabolic.  The orbit and the escape test report it alike.
        scene = make_scene([[2, 0], [0, 0.5]], [[0.25, 0.5], [-0.5, 3]],
                           forward=("a b", "b"), inverse=("a b^-1", "b"),
                           junctures=[("e-", "-", "a")])
        j = scene.junctures[0]
        message = ("iterate 1 of juncture 'e-' evaluates to a parabolic "
                   "isometry")
        with pytest.raises(NotHyperbolicError, match=message):
            juncture_orbit(scene, j, range(0, 3), 0)
        with pytest.raises(NotHyperbolicError, match=message):
            escape_test(scene, j, horizon=3)

    def test_letter_budget_enforced(self, torus_scene):
        # a b^n has n + 1 letters, so horizon 12 needs 13.
        with pytest.raises(BudgetExceededError):
            juncture_orbit(torus_scene, torus_scene.junctures[0],
                           range(-12, 13), 0, max_letters=5)


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

    @pytest.mark.parametrize("ratio", [1.0, 0.5, -2.0, math.nan])
    def test_growth_ratio_must_exceed_one(self, inner_scene, ratio):
        # With a ratio <= 1 bounded lengths would read as non-escaping.
        with pytest.raises(ValidationError):
            escape_test(inner_scene, inner_scene.junctures[0],
                        growth_ratio=ratio)

    def test_letter_budget_enforced(self, torus_scene):
        with pytest.raises(BudgetExceededError):
            escape_test(torus_scene, torus_scene.junctures[0], horizon=20,
                        max_letters=5)


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

    def test_each_skip_reason(self):
        # One hand-built chain per reason, in the order the verdict tests
        # them; every chain has a distinct conjugator.
        def chain(letters, pairs):
            return [(Geodesic.from_angles(a, b),
                     Provenance(E_MINUS, Word(letters), n))
                    for n, (a, b) in enumerate(pairs)]

        def steps(gaps):
            thetas = [1.0]
            for gap in gaps:
                thetas.append(thetas[-1] + gap)
            return [(t, 3.0) for t in thetas]

        # Endpoints 2 +- 2^-n: both sides converge on angle 2.
        pinch = [(2.0 - 0.5 ** n, 2.0 + 0.5 ** n) for n in range(22)]
        fam = family_of(
            chain((), [(1.0, 3.0)])
            + chain((1,), steps([0.1, 0.1]))
            + chain((2,), steps([0.1] * 4))
            + chain((1, 1), steps([4e-7, 3e-7, 2e-7, 3e-7]))
            + chain((2, 2), pinch)
        )
        lam = extract_limit_leaves(fam, tol=1e-6)
        assert lam.leaves == [] and lam.certificates == []
        assert [(s.conjugator.letters, s.reason) for s in lam.skipped] == [
            ((), "chain collapsed to a single axis; its limit is a family "
                 "member"),
            ((1,), "fewer than 4 distinct iterates"),
            ((2,), "last gap 1.000e-01 above tolerance 1.0e-06"),
            ((1, 1), "endpoint gaps not decreasing"),
            ((2, 2), "chain collapses toward a single boundary point"),
        ]

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
            [Geodesic.from_boundary(0, 1), Geodesic.from_boundary(2, 3)],
            [], [],
        )
        assert crossing_audit(lam) == []

    def test_injected_crossing_reported(self):
        lam = LaminationApprox(
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
        lam_p = LaminationApprox([Geodesic.from_boundary(0, INF)], [], [])
        lam_m = LaminationApprox([Geodesic.from_boundary(-1, 1)], [], [])
        meager = transversal_intersections(lam_p, lam_m)
        assert len(meager.points) == 1
        rec = meager.points[0]
        assert math.hypot(rec.x, rec.y) < 1e-9  # i maps to the disk origin

    def test_disjoint_families_flagged(self):
        lam_p = LaminationApprox([Geodesic.from_boundary(0, 1)], [], [])
        lam_m = LaminationApprox([Geodesic.from_boundary(2, 3)], [], [])
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


def reference_audit(leaves, tol):
    """The per-pair scalar loop that the crossing mask replaces."""
    return [CrossingViolation(i, j, leaves[i], leaves[j])
            for i in range(len(leaves)) for j in range(i + 1, len(leaves))
            if geodesic_relation(leaves[i], leaves[j], tol) == "cross"]


def reference_intersections(plus, minus, tol):
    points, met_plus, met_minus = [], set(), set()
    for i, gp in enumerate(plus):
        for j, gm in enumerate(minus):
            if geodesic_relation(gp, gm, tol) == "cross":
                met_plus.add(i)
                met_minus.add(j)
                x, y = to_disk(geodesic_intersection(gp, gm, tol))
                points.append(IntersectionRecord(i, j, x, y))
    return MeagerInvariantSet(
        points,
        [i for i in range(len(plus)) if i not in met_plus],
        [j for j in range(len(minus)) if j not in met_minus])


def schottky_conjugate(conjugator):
    """schottky_ab conjugated as ``schottky_conjugate_data`` draws it."""
    return parse_scene(json.dumps(schottky_conjugate_data(conjugator)))


def outcome(func, *args):
    """A call's result, or the type of the error it raised."""
    try:
        return func(*args)
    except Exception as exc:  # a degenerate pair must fail alike
        return type(exc)


# Endpoint offsets in units of the tolerance: shared, inside, on either
# side of the boundary, and well outside.
NUDGES = (0.0, 0.5, -0.5, 0.999, -0.999, 1.001, -1.001, 2.0, -2.0)


@st.composite
def chord_case(draw):
    """A tolerance and two chord families whose endpoints cluster within a
    few tolerances of shared anchors, the wrap-around at 0 = 2 pi too."""
    tol = draw(st.sampled_from((1e-12, 1e-9, 1e-3)))
    anchors = draw(st.lists(
        st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                  st.sampled_from((0.0, TWO_PI, math.nextafter(TWO_PI, 0),
                                   0.5 * tol, TWO_PI - 0.5 * tol))),
        min_size=1, max_size=5))

    def family():
        leaves = []
        for _ in range(draw(st.integers(0, 6))):
            ends = [draw(st.sampled_from(anchors))
                    + tol * draw(st.sampled_from(NUDGES)) for _ in "ab"]
            try:
                leaves.append(Geodesic.from_angles(*ends))
            except ValidationError:   # endpoints coincide: no leaf
                pass
        return leaves

    return tol, family(), family()


class TestCrossingMask:
    """``crossing_audit`` and ``transversal_intersections`` against the
    scalar ``geodesic_relation`` loops they replace."""

    @settings(max_examples=400, deadline=None)
    @given(chord_case())
    def test_random_families_match_scalar_loops(self, case):
        tol, plus, minus = case
        for leaves in (plus, minus):
            assert crossing_audit(LaminationApprox(leaves, [], []),
                                  tol) == reference_audit(leaves, tol)
        assert outcome(transversal_intersections,
                       LaminationApprox(plus, [], []),
                       LaminationApprox(minus, [], []),
                       tol) == outcome(reference_intersections,
                                       plus, minus, tol)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-3])
    def test_small_families(self, n, tol):
        # Every chord ends at 2 or within 1.001 tol of it: (1.5, 2) shares
        # that endpoint with (0, 2) exactly, (1, 2 + 0.999 tol) within the
        # tolerance, and (1, 2 + 1.001 tol) misses it and crosses (0, 2).
        plus = [Geodesic.from_angles(0.0, 2.0),
                Geodesic.from_angles(1.0, 2.0 + 0.999 * tol)][:n]
        minus = [Geodesic.from_angles(1.5, 2.0),
                 Geodesic.from_angles(1.0, 2.0 + 1.001 * tol)][:n]
        for leaves in (plus, minus, plus + minus):
            assert crossing_audit(LaminationApprox(leaves, [], []),
                                  tol) == reference_audit(leaves, tol)
        meager = transversal_intersections(
            LaminationApprox(plus, [], []), LaminationApprox(minus, [], []),
            tol)
        assert meager == reference_intersections(plus, minus, tol)
        assert len(meager.points) == (n == 2)

    @pytest.mark.parametrize("conjugator, horizon, ball", [
        (None, 16, 4), ((3.3, -0.3, 0.8), 14, 3)])
    def test_real_scene_matches_scalar_loops(self, conjugator, horizon,
                                             ball):
        # The conjugate replaces every generator g of schottky_ab by
        # h g h^-1 with h = K(theta) A(t) N(x), drawn like the benchmark's
        # conjugates.  Its Möbius images spread shared endpoints past the
        # angle tolerance: 30 crossing violations in Λ−.
        run = laminate(schottky_conjugate(conjugator),
                       AxiomParams(horizon=horizon, ball=ball))
        lams = run.laminations
        violations = 0
        for lam in lams.values():
            assert lam.crossing_violations == reference_audit(
                lam.leaves, ANGLE_TOL)
            violations += len(lam.crossing_violations)
        assert run.intersections == reference_intersections(
            lams["+"].leaves, lams["-"].leaves, ANGLE_TOL)
        assert run.intersections.points
        assert (violations > 0) == bool(conjugator)


def reference_orbit(scene, juncture, n_range, ball_k):
    """The scalar loop that ``juncture_orbit`` replaces: each candidate
    axis is mapped one ``boundary_action`` at a time and offered to a
    sequential angle set.  Entries as (angle bits, conjugator letters,
    conjugator matrix, iterate)."""
    iterates = sorted(set(n_range), reverse=juncture.sign == "+")
    ball = enumerate_ball(scene.group, ball_k)
    axes = {}
    for n, _, conj, core_m in _iterate_cores(
            scene, juncture, iterates, DEFAULT_MAX_LETTERS, TRACE_TOL):
        base = axis(core_m)
        if not conj.is_identity():
            conj_m = evaluate_word(scene.group, conj)
            base = Geodesic(boundary_action(conj_m, base.a),
                            boundary_action(conj_m, base.b))
        axes[n] = base
    dedup = SequentialAngleSet(ANGLE_TOL)
    entries = []
    for g_word, g_iso in ball:
        for n in iterates:
            base = axes[n]
            geo = base if g_word.is_identity() else Geodesic(
                boundary_action(g_iso, base.a), boundary_action(g_iso, base.b))
            if dedup.add(*geo.sorted_angles()):
                entries.append((geo.a.theta.hex(), geo.b.theta.hex(),
                                g_word.letters, g_iso.matrix, n))
    return entries


def orbit_entries(family):
    return [(geo.a.theta.hex(), geo.b.theta.hex(), prov.conjugator.letters,
             prov.conjugator_isometry.matrix, prov.iterate)
            for geo, prov in family.entries]


class TestOrbitArrays:
    """``juncture_orbit`` against the scalar loop it replaces, on the
    shipped scenes and a benchmark-style conjugate."""

    # Kept entries per juncture out of (ball size) x (iterates) candidates;
    # golden's orbit is almost all repeats.
    @pytest.mark.parametrize("scene, horizon, ball, kept", [
        ("schottky_ab", 16, 4, 2857), ((3.3, -0.3, 0.8), 14, 3, 1026),
        ("golden", 14, 3, 27)])
    def test_entries_match_scalar_loop(self, scene, horizon, ball, kept,
                                       monkeypatch):
        scene = (load_scene(scene_path(f"{scene}.json"))
                 if isinstance(scene, str) else schottky_conjugate(scene))
        balls = []
        monkeypatch.setattr(lamination, "enumerate_ball",
                            lambda *a, **k: balls.append(
                                enumerate_ball(*a, **k)) or balls[-1])
        n_range = range(-horizon, horizon + 1)
        for juncture in scene.junctures:
            family = juncture_orbit(scene, juncture, n_range, ball)
            assert orbit_entries(family) == reference_orbit(
                scene, juncture, n_range, ball)
            assert len(family) == kept
            # Each conjugator is the ball's own isometry, not a copy.
            own = dict((g.letters, m) for g, m in balls[-1])
            assert all(prov.conjugator_isometry is own[prov.conjugator.letters]
                       for _, prov in family.entries)

    def test_every_candidate_is_validated(self, torus_scene, monkeypatch):
        # Ball row 1 maps the axis to (1, 1 + 2e-9) and every later row to
        # (1, 1 + 5e-10), whose endpoints coincide.  At angle_tol 1e-3
        # those repeat row 1, and the orbit is refused all the same.
        calls = []

        def images(a, b, c, d, points):
            calls.append(points)
            out = np.full((len(a), len(points)), 1.0)
            if len(calls) == 2:
                out[1], out[2:] = 1.0 + 2e-9, 1.0 + 5e-10
            return out

        monkeypatch.setattr(lamination, "boundary_images", images)
        with pytest.raises(ValidationError,
                           match="geodesic endpoints coincide"):
            juncture_orbit(torus_scene, torus_scene.junctures[0], [0], 1,
                           angle_tol=1e-3)

    def test_collapsed_axis_still_refused(self):
        # inner_b's conjugator squeezes a transported axis below the angle
        # tolerance: a numeric collapse, reported as before.
        scene = load_scene(scene_path("inner_b.json"))
        minus, plus = scene.junctures
        for orbit in (juncture_orbit, reference_orbit):
            with pytest.raises(ValidationError,
                               match="geodesic endpoints coincide"):
                orbit(scene, minus, range(-12, 13), 3)
        assert orbit_entries(juncture_orbit(
            scene, plus, range(-12, 13), 3)) == reference_orbit(
                scene, plus, range(-12, 13), 3)


def entry_bits(entries):
    return [(geo.a.theta.hex(), geo.b.theta.hex(), prov.chain_key(),
             prov.iterate, prov.conjugator_isometry.matrix)
            for geo, prov in entries]


def assert_same_extraction(lam, ref):
    """Equal leaves (angle bits), certificates and skipped chains, in the
    same order, holding Python scalars only."""
    assert [(g.a.theta.hex(), g.b.theta.hex()) for g in lam.leaves] == [
        (g.a.theta.hex(), g.b.theta.hex()) for g in ref.leaves]
    assert lam.certificates == ref.certificates
    assert [[x.hex() for x in c.gaps] for c in lam.certificates] == [
        [x.hex() for x in c.gaps] for c in ref.certificates]
    for cert in lam.certificates:
        assert {type(n) for n in cert.iterates} == {int}
        assert {type(x) for x in cert.gaps} <= {float}
    assert lam.skipped == ref.skipped


def three_juncture_families(scene):
    """Orbits of three distinct minus junctures of the torus scene: a at
    iterates -10..0; a b = phi(a) at -1..9, which are a's iterates 0..10,
    so its iterate -1 repeats a's iterate 0; and b^-1 a b, whose chain
    with conjugator g repeats the chain g b^-1 of the other two and loses
    every entry when g b^-1 lies in the ball."""
    def orbit(end, word, n_range):
        return juncture_orbit(scene, JunctureSpec(end, "-", scene.group.word(
            word)), n_range, 2)

    return [orbit("e-", "a", range(-10, 1)),
            orbit("f-", "a b", range(-1, 10)),
            orbit("g-", "b^-1 a b", range(-10, 11))]


class TestExtractArrays:
    """``merge`` and ``extract_limit_leaves`` on array families against
    the object-based loops they replace (``tests/conftest.py``)."""

    @pytest.mark.parametrize("scene, horizon, ball", [
        ("schottky_ab", 16, 4), ((3.3, -0.3, 0.8), 14, 3),
        ("golden", 14, 3)])
    def test_matches_object_loop(self, scene, horizon, ball):
        scene = (load_scene(scene_path(f"{scene}.json"))
                 if isinstance(scene, str) else schottky_conjugate(scene))
        run = laminate(scene, AxiomParams(horizon=horizon, ball=ball))
        for lam_sign, juncture_sign in (("+", "-"), ("-", "+")):
            families = [fam for j, fam in run.families
                        if j.sign == juncture_sign]
            if not families:
                assert lam_sign not in run.laminations
                continue
            assert_same_extraction(run.laminations[lam_sign],
                                   reference_extract(
                                       reference_merge(families),
                                       DEFAULT_TOL))

    def test_merged_family_matches_object_loop(self, torus_scene):
        families = three_juncture_families(torus_scene)
        merged = GeodesicFamily.merge(families)
        assert len(merged.chains) < sum(len(f.chains) for f in families)
        # The chains left are the families' own records.
        records = [c for fam in families for c in fam.chains]
        assert all(any(c is r for r in records) for c in merged.chains)
        lam = extract_limit_leaves(merged)
        assert lam.leaves and lam.skipped
        assert_same_extraction(lam, reference_extract(
            reference_merge(families), DEFAULT_TOL))

    @pytest.mark.parametrize("count", [2, 3])
    def test_tracer_chain_count_is_exact(self, torus_scene, count):
        # perfbench/spans.py counts a family's chains as the distinct
        # chain keys of its entries.
        merged = GeodesicFamily.merge(
            three_juncture_families(torus_scene)[:count])
        assert len({p.chain_key() for _, p in merged.entries}) == len(
            merged.chains)

    def test_pieces_of_one_orbit_stay_apart(self, torus_scene):
        # Two iterate ranges of one juncture are two families: the merge
        # keeps every chain of each, with its own entries.
        j = torus_scene.junctures[0]
        families = [juncture_orbit(torus_scene, j, n_range, 1)
                    for n_range in (range(-6, 1), range(1, 7))]
        merged = GeodesicFamily.merge(families)
        assert len(merged) == sum(len(f) for f in families)
        assert merged.chains == families[0].chains + families[1].chains
        offset = len(families[0].chains)
        assert merged.chain.tolist() == families[0].chain.tolist() + [
            offset + c for c in families[1].chain.tolist()]

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("angle_tol", [ANGLE_TOL, 1e-3])
    def test_merge_matches_concatenated_dedup(self, torus_scene, count,
                                              angle_tol):
        families = three_juncture_families(torus_scene)[:count]
        merged = GeodesicFamily.merge(families, angle_tol)
        assert entry_bits(merged.entries) == entry_bits(
            reference_merge(families, angle_tol))

    def test_merge_orders_chains_by_first_kept_entry(self):
        # Chain (1,)'s first entry repeats chain ()'s and is dropped, so
        # chain (2,) appears before it; extraction visits them so too.
        def entry(letters, n, a):
            return (Geodesic.from_angles(a, a + 1.0),
                    Provenance(E_MINUS, Word(letters), n))

        families = [family_of([entry((), 0, 1.0)]),
                    family_of([entry((1,), 0, 1.0), entry((2,), 0, 2.0),
                               entry((1,), 1, 3.0)])]
        merged = GeodesicFamily.merge(families)
        assert [c.conjugator.letters for c in merged.chains] == [
            (), (2,), (1,)]
        assert_same_extraction(extract_limit_leaves(merged),
                               reference_extract(reference_merge(families),
                                                 DEFAULT_TOL))

    def test_lone_family_returned_unchanged(self, torus_scene):
        family = three_juncture_families(torus_scene)[0]
        assert GeodesicFamily.merge([family]) is family
        assert entry_bits(family.entries) == entry_bits(
            reference_merge([family]))

    def test_lone_family_at_another_tol_deduplicated(self, torus_scene):
        family = three_juncture_families(torus_scene)[0]
        merged = GeodesicFamily.merge([family], 1e-2)
        assert merged.angle_tol == 1e-2
        assert len(merged) < len(family)
        assert entry_bits(merged.entries) == entry_bits(
            reference_merge([family], 1e-2))

    def test_lone_family_of_unknown_tol_deduplicated(self):
        pairs = [(Geodesic.from_angles(a, 3.0),
                  Provenance(E_MINUS, Word(()), n))
                 for n, a in enumerate([1.0, 2.0, 1.0 + 1e-10])]
        family = family_of(pairs)
        assert family.angle_tol is None
        merged = GeodesicFamily.merge([family])
        assert [p.iterate for _, p in merged.entries] == [0, 1]

    def test_empty_family(self):
        for family in (GeodesicFamily(), GeodesicFamily.merge([])):
            assert len(family) == 0 and family.entries == []
            lam = extract_limit_leaves(family)
            assert (lam.leaves, lam.certificates, lam.skipped) == ([], [], [])

    def test_objects_keep_the_endpoint_check(self):
        family = family_of([(Geodesic.from_angles(1.0, 2.0),
                             Provenance(E_MINUS, Word(()), 0))])
        family.tb[0] = 1.0
        for build in (lambda: family.entries, family.geodesics):
            with pytest.raises(ValidationError,
                               match="geodesic endpoints coincide"):
                build()


class TestLaminate:
    def test_matches_orbit_then_extract(self, torus_scene):
        run = laminate(torus_scene, AxiomParams(horizon=10, ball=1))
        assert [j for j, _ in run.families] == torus_scene.junctures
        direct = {j.sign: extract_limit_leaves(
            juncture_orbit(torus_scene, j, range(-10, 11), 1))
            for j in torus_scene.junctures}
        assert list(run.laminations) == ["+", "-"]
        assert run.laminations["+"].leaves == direct["-"].leaves
        assert run.laminations["-"].leaves == direct["+"].leaves

    def test_audits_and_intersections_belong_to_the_run(self, torus_scene):
        run = laminate(torus_scene, AxiomParams(horizon=10, ball=1))
        lams = run.laminations
        for lam in lams.values():
            assert lam.leaves
            assert lam.crossing_violations == crossing_audit(lam)
        assert run.intersections == transversal_intersections(
            lams["+"], lams["-"])
        assert run.intersections.points

    def test_extraction_alone_leaves_the_audit_unset(self, torus_scene):
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             range(-6, 7), 1)
        assert extract_limit_leaves(fam).crossing_violations is None

    def test_no_opposite_junctures_gives_none(self):
        scene = make_scene(TORUS_A, TORUS_B, forward=("a b", "b"),
                           inverse=("a b^-1", "b"),
                           junctures=[("e-", "-", "a")])
        run = laminate(scene, AxiomParams(horizon=8, ball=1))
        assert list(run.laminations) == ["+"]
        assert run.laminations["+"].leaves
        assert run.laminations["+"].crossing_violations == []
        assert run.intersections is None

    def test_extract_false_builds_families_only(self, torus_scene):
        run = laminate(torus_scene, AxiomParams(horizon=6, ball=1),
                       extract=False)
        assert len(run.families) == 2
        assert all(len(fam) for _, fam in run.families)
        assert run.laminations == {}
        assert run.intersections is None

    @pytest.mark.parametrize("word, leaves, skipped, points", [
        ("a b a", 53, 18, 128), ("b a b^-1 a", 80, 5, 181)])
    def test_end_label_does_not_change_the_lamination(self, word, leaves,
                                                      skipped, points):
        # A second minus component of schottky_ab gives one plus
        # lamination whether or not it shares the first one's end label.
        runs = []
        for label in ("e-", "f-"):
            raw = schottky_conjugate_data(None)
            raw["junctures"].append({"end": label, "sign": "-",
                                     "word": word})
            runs.append(laminate(parse_scene(json.dumps(raw)),
                                 AxiomParams()))
        for run in runs:
            lam = run.laminations["+"]
            assert (len(lam.leaves), len(lam.certificates), len(lam.skipped),
                    len(run.intersections.points)) == (
                leaves, leaves, skipped, points)
        shared, own = (run.laminations["+"] for run in runs)
        assert [g.sorted_angles() for g in shared.leaves] == [
            g.sorted_angles() for g in own.leaves]
        assert [(c.conjugator, c.iterates) for c in shared.certificates] == [
            (c.conjugator, c.iterates) for c in own.certificates]

    def test_angle_tol_reaches_orbit_dedup(self, torus_scene):
        sizes = [sum(len(fam) for _, fam in laminate(
            torus_scene, AxiomParams(horizon=10, ball=1, angle_tol=tol),
            extract=False).families) for tol in (1e-9, 1e-2)]
        assert sizes[1] < sizes[0]


class TestAxiomParams:
    @pytest.mark.parametrize("fields", [
        {"horizon": -1}, {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan},
        {"angle_tol": 0.0}, {"angle_tol": -1.0}, {"angle_tol": math.nan},
        {"trace_tol": 0.0}, {"trace_tol": -1.0}, {"trace_tol": math.nan},
        {"max_letters": 0}, {"max_letters": -1},
        {"max_words": 0}, {"max_words": -1},
        {"angle_tol": 1e-13}, {"angle_tol": 1e-300},
    ])
    def test_out_of_range_rejected(self, fields):
        with pytest.raises(ValidationError):
            AxiomParams(**fields)

    def test_zero_horizon_allowed(self):
        assert AxiomParams(horizon=0).horizon == 0

    def test_smallest_budgets_allowed(self):
        params = AxiomParams(max_letters=1, max_words=1)
        assert (params.max_letters, params.max_words) == (1, 1)

    def test_angle_tol_floor_allowed(self):
        assert AxiomParams(angle_tol=ANGLE_TOL_FLOOR).angle_tol == 1e-12

    def test_angle_tol_below_floor_named(self):
        with pytest.raises(ValidationError, match="angle tolerance must be "
                           "at least 1e-12, got 1e-13"):
            AxiomParams(angle_tol=1e-13)


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
