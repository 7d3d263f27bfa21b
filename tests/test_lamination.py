import dataclasses
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from endlam.cli import run_command
from endlam.errors import (
    BudgetExceededError,
    NotHyperbolicError,
    NumericDegeneracyError,
    ValidationError,
)
from endlam.group import (
    DEFAULT_MAX_LETTERS,
    FuchsianGroup,
    Word,
    apply_automorphism,
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
    one_holed_torus_leaf,
    one_holed_torus_scene,
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
        for n, a, b in zip(fam.iterate.tolist(), fam.ta.tolist(),
                           fam.tb.tolist()):
            alone = juncture_orbit(torus_scene, j, [n], ball_k=0)
            assert (alone.ta.tolist(), alone.tb.tolist()) == ([a], [b])

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

    @pytest.mark.parametrize("ratio", [1.0, 0.5, -2.0, math.nan, math.inf])
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
            + chain((1, 2), steps([4e-7, 3e-7, 2e-7, 1e-7]))
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
            ((1, 2), "endpoint gaps not contracting"),
            ((2, 2), "chain collapses toward a single boundary point"),
        ]

    def test_alternating_chain_with_a_dropped_iterate_refused(self):
        # Iterates alternate between angles 1 and 1.5, each side closing
        # in at 2^-n: the gaps stay near 0.5 and decrease.  Iterate 9 is
        # missing, so the last gap joins iterates 8 and 10 and is below
        # tol; only the contraction test tells this chain from a leaf.
        error = [1e-6 * 0.5 ** n for n in range(11)]
        pairs = [(1.0 - error[n] if n % 2 == 0 else 1.5 + error[n], 3.0)
                 for n in range(11) if n != 9]
        fam = family_of([(Geodesic.from_angles(*pair),
                          Provenance(E_MINUS, Word((1,)), n))
                         for n, pair in zip([*range(9), 10], pairs)])
        lam = extract_limit_leaves(fam, tol=1e-6)
        gaps = [abs(a[0] - b[0]) for a, b in zip(pairs, pairs[1:])][-4:]
        assert gaps[-1] < 1e-6 and gaps == sorted(gaps, reverse=True)
        assert lam.leaves == [] and lam.certificates == []
        assert [s.reason for s in lam.skipped] == [
            "endpoint gaps not contracting"]

    def test_alternating_scene_certifies_no_leaf(self):
        # The end of a has period 2 under a -> c, b -> b, c -> a b, but
        # the scene declares period 1.  Its Λ+ chains of b^-1 a^-1, c a^-1
        # and c^-1 c^-1 alternate between two leaves and lose an iterate
        # near the end to deduplication.
        run = laminate(alternating_scene(), AxiomParams(horizon=20, ball=2))
        plus = run.laminations["+"]
        assert plus.leaves == [] and len(plus.skipped) == 37
        assert sorted(s.conjugator.letters for s in plus.skipped
                      if s.reason == "endpoint gaps not contracting") == [
            (-3, -3), (-2, -1), (3, -1)]

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


def alternating_scene():
    """Rank 3: a = diag(4, 1/4), b = [[2, 1], [1, 1]], c = R diag(5, 1/5) R^T
    with R the rotation by pi/5, under a -> c, b -> b, c -> a b, with
    junctures of a of both signs declared of period 1."""
    cos, sin = math.cos(math.pi / 5), math.sin(math.pi / 5)
    c = [[5 * cos * cos + 0.2 * sin * sin, (5 - 0.2) * cos * sin],
         [(5 - 0.2) * cos * sin, 5 * sin * sin + 0.2 * cos * cos]]
    return parse_scene(json.dumps({
        "metadata": {"name": "alternating"},
        "group": {"a": [[4, 0], [0, 0.25]], "b": [[2, 1], [1, 1]], "c": c},
        "automorphism": {
            "forward": {"a": "c", "b": "b", "c": "a b"},
            "inverse": {"a": "c b^-1", "b": "b", "c": "a"}},
        "junctures": [
            {"end": "e-", "sign": "-", "word": "a", "period": 1},
            {"end": "e+", "sign": "+", "word": "a", "period": 1}],
    }))


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
    """A call's result, or the type and message of the error it raised."""
    try:
        return func(*args)
    except Exception as exc:  # a degenerate pair must fail alike
        return type(exc), str(exc)


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


@st.composite
def block_case(draw):
    """A tolerance and two families of 65-200 chords, more than one mask
    block, around a few anchors (0, 2 pi and the float below 2 pi among
    them), so that shared endpoints fall on either side of block edges and
    of the i < j cut."""
    tol = draw(st.sampled_from((1e-12, 1e-9, 1e-3)))
    # At least one anchor away from 0, so that chords exist at any tol.
    anchors = [0.0, TWO_PI, math.nextafter(TWO_PI, 0)] + draw(st.lists(
        st.floats(0.5, TWO_PI - 0.5), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def family(size):
        leaves = []
        while len(leaves) < size:
            try:
                leaves.append(Geodesic.from_angles(*(
                    rng.choice(anchors) + tol * rng.choice(NUDGES)
                    for _ in "ab")))
            except ValidationError:   # endpoints coincide: no leaf
                pass
        return leaves

    return (tol, family(draw(st.integers(65, 200))),
            family(draw(st.integers(65, 200))))


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

    @settings(max_examples=40, deadline=None)
    @given(block_case())
    def test_families_past_one_block_match_scalar_loops(self, case):
        tol, plus, minus = case
        assert len(plus) > lamination._MASK_ROWS
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

    def test_deep_run_points_match_scalar_loop(self):
        # The benchmark's lam-deep depth: 485 leaves a side, 1272 points.
        run = laminate(load_scene(scene_path("schottky_ab.json")),
                       AxiomParams(horizon=20, ball=5))
        assert run.intersections == reference_intersections(
            run.laminations["+"].leaves, run.laminations["-"].leaves,
            ANGLE_TOL)
        assert len(run.intersections.points) == 1272


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


def family_bits(family):
    """Every array of a family, angles as hex, and its chains with their
    conjugator matrices as hex."""
    return ([x.hex() for x in family.ta.tolist()],
            [x.hex() for x in family.tb.tolist()],
            family.chain.tolist(), family.iterate.tolist(),
            [(c.juncture, c.conjugator.letters,
              [x.hex() for row in c.conjugator_isometry.matrix for x in row])
             for c in family.chains])


def two_minus_labels_scene():
    """schottky_ab with a second minus juncture on a, under its own end
    label: two junctures of one sign on one word."""
    raw = schottky_conjugate_data(None)
    raw["junctures"].insert(1, {"end": "f-", "sign": "-", "word": "a"})
    return parse_scene(json.dumps(raw))


# Scenes with (horizon, ball) and the number of distinct juncture words;
# inner_b's two junctures ride different words, golden has one juncture.
SHARING_CASES = [
    ("schottky_ab", 12, 3, 1), ((3.3, -0.3, 0.8), 10, 2, 1),
    ("inner_b", 6, 2, 2), ("golden", 14, 3, 1), ("two labels", 9, 2, 1)]


def sharing_scene(scene):
    if scene == "two labels":
        return two_minus_labels_scene()
    if isinstance(scene, str):
        return load_scene(scene_path(f"{scene}.json"))
    return schottky_conjugate(scene)


def converging_side(juncture, horizon):
    """n = 0..h for a minus juncture, 0..-h for a plus one."""
    return (range(horizon + 1) if juncture.sign == "-"
            else range(0, -horizon - 1, -1))


class TestOrbitTable:
    """``laminate`` shares one ball and each juncture word's images between
    its junctures; each family is what ``juncture_orbit`` builds alone over
    the juncture's converging side."""

    @pytest.mark.parametrize("scene, horizon, ball, words", SHARING_CASES)
    def test_run_families_equal_lone_orbits(self, scene, horizon, ball,
                                            words):
        scene = sharing_scene(scene)
        params = AxiomParams(horizon=horizon, ball=ball)
        run = laminate(scene, params)
        assert [j for j, _ in run.families] == scene.junctures
        for juncture, family in run.families:
            alone = juncture_orbit(scene, juncture,
                                   converging_side(juncture, horizon), ball)
            assert family_bits(family) == family_bits(alone)

    @pytest.mark.parametrize("scene, horizon, ball, words", SHARING_CASES)
    def test_render_layers_and_families_from_one_table(
            self, scene, horizon, ball, words, monkeypatch):
        # render draws every juncture over -h..h and extracts from the
        # converging sides: one ball and one build per word serve both.
        scene = sharing_scene(scene)
        calls = {"ball": 0, "build": 0}

        def counted(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lamination, "enumerate_ball",
                            counted("ball", enumerate_ball))
        monkeypatch.setattr(lamination._OrbitTable, "_build", counted(
            "build", lamination._OrbitTable._build))
        layers, run = lamination._laminate(
            scene, AxiomParams(horizon=horizon, ball=ball), layers=True)
        assert calls == {"ball": 1, "build": words}
        assert [j for j, _ in layers] == scene.junctures
        for (juncture, drawn), (_, family) in zip(layers, run.families):
            assert family_bits(drawn) == family_bits(juncture_orbit(
                scene, juncture, range(-horizon, horizon + 1), ball))
            assert family_bits(family) == family_bits(juncture_orbit(
                scene, juncture, converging_side(juncture, horizon), ball))

    @pytest.mark.parametrize("scene, horizon, ball, words", SHARING_CASES)
    def test_ball_once_images_once_per_word(self, scene, horizon, ball,
                                            words, monkeypatch):
        scene = sharing_scene(scene)
        calls = {"ball": 0, "images": 0}

        def counted(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lamination, "enumerate_ball",
                            counted("ball", enumerate_ball))
        monkeypatch.setattr(lamination, "boundary_images", counted(
            "images", lamination.boundary_images))
        lamination._laminate(scene, AxiomParams(horizon=horizon, ball=ball),
                             extract=False)[1]
        assert calls == {"ball": 1, "images": 2 * words}

    def test_no_junctures_no_ball(self, monkeypatch):
        # The ball is built on the first juncture's demand, so a scene
        # without junctures meets no word budget.
        scene = make_scene(TORUS_A, TORUS_B, forward=("a b", "b"),
                           inverse=("a b^-1", "b"), junctures=[])
        monkeypatch.setattr(lamination, "enumerate_ball", None)
        run = laminate(scene, AxiomParams(ball=9, max_words=1))
        assert run.families == [] and run.laminations == {}

    @pytest.mark.parametrize("order, message", [
        ((0, 1), "iterate -6 of juncture 'e-'"),
        ((1, 0), "iterate 6 of juncture 'e+'")])
    def test_first_juncture_names_the_failing_iterate(self, order, message,
                                                      monkeypatch):
        # Cores a b^n with |n| >= 3 read as parabolic.  The shared iterates
        # are evaluated in the scene's first juncture's order (ascending
        # for e-, descending for e+), so its first failing iterate is the
        # one named, as when each juncture built its own.
        scene = load_scene(scene_path("schottky_ab.json"))
        scene = dataclasses.replace(
            scene, junctures=[scene.junctures[i] for i in order])
        bad = {evaluate_word(scene.group, Word((1,) + (s,) * k)).matrix
               for s in (2, -2) for k in range(3, 7)}
        real = lamination.classify_isometry
        monkeypatch.setattr(
            lamination, "classify_isometry",
            lambda m, tol: "parabolic" if m.matrix in bad else real(m, tol))
        message = re.escape(f"{message} evaluates to a parabolic isometry")
        with pytest.raises(NotHyperbolicError, match=f"^{message}$"):
            juncture_orbit(scene, scene.junctures[0], range(-6, 7), 1)
        with pytest.raises(NotHyperbolicError, match=f"^{message}$"):
            laminate(scene, AxiomParams(horizon=6, ball=1))

    def test_laminate_evaluates_only_the_side_it_reads(self, monkeypatch):
        # With e- alone the run reads iterates 0..6, so the cores a b^-k
        # (k = 3..6) of its iterates -3..-6 are never evaluated.
        scene = load_scene(scene_path("schottky_ab.json"))
        scene = dataclasses.replace(scene, junctures=scene.junctures[:1])
        bad = {evaluate_word(scene.group, Word((1,) + (-2,) * k)).matrix
               for k in range(3, 7)}
        real = lamination.classify_isometry
        monkeypatch.setattr(
            lamination, "classify_isometry",
            lambda m, tol: "parabolic" if m.matrix in bad else real(m, tol))
        run = laminate(scene, AxiomParams(horizon=6, ball=1))
        ((_, family),) = run.families
        assert set(family.iterate.tolist()) == set(range(7))
        assert list(run.laminations) == ["+"]
        with pytest.raises(NotHyperbolicError,
                           match="^iterate -6 of juncture 'e-' "):
            juncture_orbit(scene, scene.junctures[0], range(-6, 7), 1)


def fibonacci_scene():
    """schottky_ab's generators under a -> a b, b -> a: the cores grow
    like the Fibonacci numbers until their products overflow."""
    raw = schottky_conjugate_data(None)
    raw["automorphism"] = {"forward": {"a": "a b", "b": "a"},
                           "inverse": {"a": "b", "b": "b^-1 a"}}
    return raw


def matrix_bits(m):
    return [x.hex() for row in m.matrix for x in row]


class TestCorePrefixes:
    """``_iterate_cores`` composes each core past the prefix it shares with
    the last one; every product is ``evaluate_word``'s bit for bit."""

    @staticmethod
    def orders(horizon):
        ascending = list(range(-horizon, horizon + 1))
        return [ascending, ascending[::-1],
                [n for step in range(horizon + 1) for n in (step, -step)]]

    @pytest.mark.parametrize("scene", [
        "schottky_ab", "golden", "inner_b", (3.3, -0.3, 0.8),
        (-2.1, 0.7, -0.4)])
    def test_products_equal_evaluate_word(self, scene):
        scene = sharing_scene(scene)
        for juncture in scene.junctures:
            for iterates in self.orders(16):
                cores = list(_iterate_cores(scene, juncture, iterates,
                                            DEFAULT_MAX_LETTERS, TRACE_TOL))
                assert [n for n, *_ in cores] == iterates
                for n, word, conj, core_m in cores:
                    core = Word(word.letters[len(conj):len(word) - len(conj)])
                    assert conj * core * conj.inverse() == word
                    assert matrix_bits(core_m) == matrix_bits(
                        evaluate_word(scene.group, core))

    def test_inner_cores_do_not_extend(self):
        # inner_b conjugates a by b^n: the core of every iterate is a.
        scene = load_scene(scene_path("inner_b.json"))
        cores = {word.letters[len(conj):len(word) - len(conj)]
                 for _, word, conj, _ in _iterate_cores(
                     scene, scene.junctures[0], range(-6, 7),
                     DEFAULT_MAX_LETTERS, TRACE_TOL)}
        assert cores == {(1,)}

    # Cores of iterates -14..13 evaluate; those of 14 and of -15 overflow.
    @pytest.mark.parametrize("iterates, failing", [
        (range(-14, 21), 14), (range(13, -21, -1), -15), (range(21), 14),
        (range(0, -21, -1), -15)])
    def test_fibonacci_overflow_at_the_same_iterate(self, iterates, failing):
        scene = parse_scene(json.dumps(fibonacci_scene()))
        seen = []
        with pytest.raises(NumericDegeneracyError,
                           match="^isometry product overflowed$"):
            for n, word, conj, core_m in _iterate_cores(
                    scene, scene.junctures[0], iterates, DEFAULT_MAX_LETTERS,
                    TRACE_TOL):
                core = word.letters[len(conj):len(word) - len(conj)]
                assert matrix_bits(core_m) == matrix_bits(
                    evaluate_word(scene.group, core))
                seen.append(n)
        assert seen == list(iterates[:iterates.index(failing)])
        core = apply_automorphism(scene.automorphism, scene.junctures[0].word,
                                  failing).cyclic_decomposition()[1]
        with pytest.raises(NumericDegeneracyError,
                           match="^isometry product overflowed$"):
            evaluate_word(scene.group, core)

    @pytest.mark.parametrize("argv", [
        ["escape", "--horizon", "14"],
        ["laminate", "--horizon", "14", "--ball", "1"]])
    def test_fibonacci_overflow_flagged(self, argv, tmp_path, capsys):
        path = tmp_path / "fibonacci.json"
        path.write_text(json.dumps(fibonacci_scene()))
        code = run_command(argv[:1] + [str(path)] + argv[1:])
        assert (code, capsys.readouterr()) == (
            2, ("", "flagged: isometry product overflowed\n"))


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

    @pytest.mark.parametrize("conjugator, angle_tol, counts", [
        # conj-2 of the benchmark's seed-2 lam-deep pass: the third
        # (theta, t, x) that random.Random("lam-deep:2") draws.
        ((2.4827842567176184, 0.2992838854969826, 0.2186851639812788),
         ANGLE_TOL, {"+": (485, 0, 131), "-": (485, 0, 161)}),
        # The b^-4 chain of Λ− stalls at its float noise and is skipped as
        # not contracting.
        (None, 1e-12, {"+": (485, 0, 8), "-": (484, 1, 0)}),
    ])
    def test_deep_run_matches_object_loop(self, conjugator, angle_tol,
                                          counts):
        run = laminate(schottky_conjugate(conjugator),
                       AxiomParams(horizon=20, ball=5, angle_tol=angle_tol))
        for lam_sign, juncture_sign in (("+", "-"), ("-", "+")):
            lam = run.laminations[lam_sign]
            assert_same_extraction(lam, reference_extract(
                reference_merge([fam for j, fam in run.families
                                 if j.sign == juncture_sign], angle_tol),
                DEFAULT_TOL, angle_tol))
            assert (len(lam.leaves), len(lam.skipped),
                    len(lam.crossing_violations)) == counts[lam_sign]
        if angle_tol == 1e-12:
            (skip,) = run.laminations["-"].skipped
            assert (skip.conjugator.letters, skip.reason) == (
                (-2,) * 4, "endpoint gaps not contracting")

    def test_tail_pairs_stay_inside_their_chain(self):
        # A chain of four entries has three gaps, so two tail pairs.  The
        # step before its first entry in the sorted arrays, here the last
        # chain's 1e-12 wrapped round, is no gap of it.
        def chain(letters, ta, gaps):
            thetas = [ta]
            for gap in gaps:
                thetas.append(thetas[-1] + gap)
            return [(Geodesic.from_angles(t, ta + 2.0),
                     Provenance(E_MINUS, Word(letters), n))
                    for n, t in enumerate(thetas)]

        entries = (chain((), 1.0, [1e-7, 1e-8, 1e-9])
                   + chain((1,), 2.0, [1e-8, 1e-9, 1e-10, 1e-11, 1e-12]))
        lam = extract_limit_leaves(family_of(entries))
        assert_same_extraction(lam, reference_extract(entries, DEFAULT_TOL))
        assert [c.conjugator.letters for c in lam.certificates] == [(), (1,)]

    def test_collapsed_leaf_refused_at_its_chain(self):
        # E_MINUS's base chain converges to the chord (1, 2).  Conjugator
        # a maps t to 1e10 t, which pushes both ends of that chord within
        # 4e-10 of angle 0: the leaf a transports has coinciding endpoints,
        # while b's is a leaf.  The base chain of a second juncture
        # converges to ends 5e-10 apart, above angle_tol, so it is not
        # skipped as collapsing, but too close for a Geodesic.
        iso = {(1,): Isometry(1e5, 0.0, 0.0, 1e-5),
               (2,): Isometry(2.0, 0.0, 0.0, 0.5)}

        def chain(juncture, letters, ta, tb):
            return [(Geodesic.from_angles(ta + 0.1 ** n, tb + 2 * 0.1 ** n),
                     Provenance(juncture, Word(letters), n,
                                conjugator_isometry=iso.get(letters)))
                    for n in range(1, 9)]

        base = chain(E_MINUS, (), 1.0, 2.0)
        squeezed = chain(E_MINUS, (1,), 3.0, 4.0)
        fine = chain(E_MINUS, (2,), 3.0, 4.0)
        narrow = chain(JunctureSpec("f-", "-", Word((2,))), (), 5.0,
                       5.0 + 5e-10)
        lam = extract_limit_leaves(family_of(base + fine), angle_tol=1e-12)
        assert_same_extraction(lam, reference_extract(base + fine,
                                                      DEFAULT_TOL, 1e-12))
        assert [c.conjugator.letters for c in lam.certificates] == [(), (2,)]
        # The first chain in chain order that fails raises, transported or
        # not.
        for entries in (base + squeezed + fine, base + fine + squeezed,
                        base + squeezed + narrow, base + narrow + squeezed,
                        base + fine + narrow):
            ref = outcome(reference_extract, entries, DEFAULT_TOL, 1e-12)
            assert ref == (ValidationError, "geodesic endpoints coincide")
            assert outcome(extract_limit_leaves, family_of(entries),
                           DEFAULT_TOL, 1e-12) == ref

    def test_collapsed_base_chain_transports_nothing(self):
        # E_MINUS's base chain pinches onto angle 2 and is skipped as
        # collapsing, so no base limit is known: chains (1,) and (2,),
        # whose conjugators carry isometries, each take their own Aitken
        # step.  A transport from the pinched limit would raise.  The
        # skipped chains stay in chain order around it.
        iso = {(1,): Isometry(2.0, 0.0, 0.0, 0.5),
               (2,): Isometry(4.0, 0.0, 0.0, 0.25)}

        def chain(letters, pairs):
            return [(Geodesic.from_angles(a, b),
                     Provenance(E_MINUS, Word(letters), n,
                                conjugator_isometry=iso.get(letters)))
                    for n, (a, b) in enumerate(pairs)]

        def near(ta, tb):
            return [(ta + 0.1 ** n, tb + 2 * 0.1 ** n) for n in range(1, 9)]

        entries = (chain((1, 1), [(5.0, 6.0), (5.5, 6.0)])
                   + chain((), [(2.0 - 0.5 ** n, 2.0 + 0.5 ** n)
                                for n in range(22)])
                   + chain((1,), near(3.0, 4.0))
                   + chain((2,), near(0.5, 1.5))
                   + chain((2, 2), [(t, 3.0) for t in (1.0, 1.1, 1.2, 1.3)]))
        lam = extract_limit_leaves(family_of(entries))
        assert_same_extraction(lam, reference_extract(entries, DEFAULT_TOL))
        assert [c.conjugator.letters for c in lam.certificates] == [
            (1,), (2,)]
        assert [(s.conjugator.letters, s.reason) for s in lam.skipped] == [
            ((1, 1), "fewer than 4 distinct iterates"),
            ((), "chain collapses toward a single boundary point"),
            ((2, 2), "last gap 1.000e-01 above tolerance 1.0e-06")]

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
        # A new family, equal to the lone one: first_distinct keeps every
        # pair of its own output.
        family = three_juncture_families(torus_scene)[0]
        merged = GeodesicFamily.merge([family])
        assert merged is not family
        assert family_bits(merged) == family_bits(family)
        assert entry_bits(family.entries) == entry_bits(
            reference_merge([family]))

    def test_lone_family_at_another_tol_deduplicated(self, torus_scene):
        family = three_juncture_families(torus_scene)[0]
        merged = GeodesicFamily.merge([family], 1e-2)
        assert len(merged) < len(family)
        assert entry_bits(merged.entries) == entry_bits(
            reference_merge([family], 1e-2))

    def test_lone_family_of_unknown_tol_deduplicated(self):
        pairs = [(Geodesic.from_angles(a, 3.0),
                  Provenance(E_MINUS, Word(()), n))
                 for n, a in enumerate([1.0, 2.0, 1.0 + 1e-10])]
        merged = GeodesicFamily.merge([family_of(pairs)])
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
        with pytest.raises(ValidationError,
                           match="geodesic endpoints coincide"):
            family.entries


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

    def test_one_sided_chains_keep_every_leaf_at_ball_6(self):
        # On -h..h families each sign's chain of a^6 kept iterates across
        # n = 0 (-20 and -2..3 for the plus lamination) and was skipped:
        # 1456 leaves and 1 skipped per sign.
        run = laminate(load_scene(scene_path("schottky_ab.json")),
                       AxiomParams(horizon=20, ball=6))
        for lam in run.laminations.values():
            assert (len(lam.leaves), len(lam.certificates), len(lam.skipped),
                    len(lam.crossing_violations)) == (1457, 1457, 0, 0)

    @pytest.mark.parametrize("conjugator", [
        None, (2.4827842567176184, 0.2992838854969826, 0.2186851639812788)])
    def test_certificates_stay_on_the_converging_side(self, conjugator):
        run = laminate(schottky_conjugate(conjugator),
                       AxiomParams(horizon=12, ball=3))
        for sign, direction in (("+", 1), ("-", -1)):
            certificates = run.laminations[sign].certificates
            assert certificates
            for cert in certificates:
                steps = [direction * n for n in cert.iterates]
                assert steps[0] >= 0 and steps == sorted(set(steps))

    def test_lone_family_extracted_as_built(self, torus_scene, monkeypatch):
        # Each sign has one juncture here, whose family goes to extraction
        # as juncture_orbit built it, without a merge.
        extracted = []
        extract = lamination.extract_limit_leaves
        monkeypatch.setattr(lamination, "extract_limit_leaves",
                            lambda family, **kw: extracted.append(family)
                            or extract(family, **kw))
        run = laminate(torus_scene, AxiomParams(horizon=10, ball=1))
        (_, minus), (_, plus) = run.families
        assert len(extracted) == 2
        assert extracted[0] is minus and extracted[1] is plus

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
        run = lamination._laminate(torus_scene,
                                   AxiomParams(horizon=6, ball=1),
                                   extract=False)[1]
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
        sizes = [sum(len(fam) for _, fam in lamination._laminate(
            torus_scene, AxiomParams(horizon=10, ball=1, angle_tol=tol),
            extract=False)[1].families) for tol in (1e-9, 1e-2)]
        assert sizes[1] < sizes[0]


# Trace triples (tr a, tr b, tr ab) of one-holed-torus groups, kappa < -2;
# the first is schottky_ab's.
_TORUS_TRIPLES = [(4.25, 3, 8.25), (3, 3, 5.5), (5, 2.5, 6), (3.5, 4.5, 12),
                  (10, 3, 25)]
# Plus / minus leaves certified at (12, 4) where the closed form gives the
# 161 of the radius-4 ball: chains that converge below angle_tol within a
# few iterates are lost without a flag.
_TORUS_LOSSES = {
    ((4.25, 3, 8.25), 1): "160 / 160", ((4.25, 3, 8.25), 2): "160 / 160",
    ((4.25, 3, 8.25), 3): "91 / 102", ((3, 3, 5.5), 1): "160 / 160",
    ((3, 3, 5.5), 3): "103 / 118", ((5, 2.5, 6), 1): "152 / 152",
    ((5, 2.5, 6), 3): "153 / 153", ((3.5, 4.5, 12), 2): "82 / 89",
    ((3.5, 4.5, 12), 3): "34 / 33", ((10, 3, 25), 1): "161 / 158",
    ((10, 3, 25), 2): "136 / 141", ((10, 3, 25), 3): "67 / 95",
}
_TORUS_CASES = [pytest.param(t, k, id="{},{},{}-k{}".format(*t, k))
                for t in _TORUS_TRIPLES for k in (1, 2, 3)]


def _torus_run(triple, k):
    scene = one_holed_torus_scene(*triple, k)
    return scene, laminate(scene, AxiomParams(horizon=12, ball=4))


class TestOneHoledTorus:
    """Twist powers a -> a b^k on one-holed-torus groups, whose leaves are
    known in closed form: the images g L of one base leaf per sign over
    the ball, all distinct (no g != 1 fixes L)."""

    def test_builder_gives_the_shipped_group(self):
        scene = one_holed_torus_scene(4.25, 3, 8.25, 1)
        shipped = load_scene(scene_path("schottky_ab.json"))
        assert [g.matrix for g in scene.group.generators] == [
            g.matrix for g in shipped.group.generators]
        assert scene.automorphism == shipped.automorphism

    @pytest.mark.parametrize("triple, k", _TORUS_CASES)
    def test_leaves_are_images_of_the_closed_form(self, triple, k):
        scene, run = _torus_run(triple, k)
        ball = [m for _, m in enumerate_ball(scene.group, 4)]
        for sign in ("+", "-"):
            lam = run.laminations[sign]
            base = one_holed_torus_leaf(scene, sign)
            identity, = [leaf for leaf, cert in zip(lam.leaves,
                                                    lam.certificates)
                         if cert.conjugator == Word.identity()]
            assert angular_gap(identity.a.theta, base.a.theta) < 1e-12
            assert angular_gap(identity.b.theta, base.b.theta) < 1e-12
            images = [(boundary_action(m, base.a).theta,
                       boundary_action(m, base.b).theta) for m in ball]
            for leaf in lam.leaves:
                assert min(max(angular_gap(leaf.a.theta, ta),
                               angular_gap(leaf.b.theta, tb))
                           for ta, tb in images) < 1e-8
            assert lam.crossing_violations == []

    @pytest.mark.parametrize("triple, k", [
        pytest.param(*case.values, id=case.id, marks=[pytest.mark.xfail(
            strict=True,
            reason=f"{_TORUS_LOSSES[case.values]} leaves certified")]
            if case.values in _TORUS_LOSSES else [])
        for case in _TORUS_CASES])
    def test_one_leaf_per_ball_word(self, triple, k):
        _, run = _torus_run(triple, k)
        assert [len(lam.leaves) for lam in run.laminations.values()] == [
            161, 161]

    @pytest.mark.xfail(strict=True, reason=(
        "0 / 30 crossing violations: every pair shares an exact endpoint "
        "the float leaves miss by up to 1.2e-7"))
    def test_shared_endpoints_are_no_crossings(self):
        # kappa = -8.06; all 53 / 53 chains are certified.
        run = laminate(one_holed_torus_scene(3, 3.5, 4.75, 1),
                       AxiomParams(horizon=12, ball=3))
        assert [lam.crossing_violations
                for lam in run.laminations.values()] == [[], []]


class TestAxiomParams:
    @pytest.mark.parametrize("fields", [
        {"horizon": -1}, {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan},
        {"angle_tol": 0.0}, {"angle_tol": -1.0}, {"angle_tol": math.nan},
        {"trace_tol": 0.0}, {"trace_tol": -1.0}, {"trace_tol": math.nan},
        {"max_letters": 0}, {"max_letters": -1},
        {"max_words": 0}, {"max_words": -1},
        {"angle_tol": 1e-13}, {"angle_tol": 1e-300},
        {"tol": math.inf}, {"angle_tol": math.inf}, {"trace_tol": math.inf},
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
