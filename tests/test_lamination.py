import dataclasses
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from endlam import cli
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
    angular_gaps,
    axis,
    boundary_action,
    geodesic_relation,
    to_disk,
)
from endlam import lamination
from endlam.lamination import (
    DEFAULT_TOL,
    AxiomParams,
    GeodesicFamily,
    JunctureSpec,
    POINT,
    LaminationApprox,
    MeagerInvariantSet,
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
    certificates_of,
    entries_of,
    entry,
    exact_word_matrix,
    family_of,
    frac_inverse,
    leaf_array,
    leaf_geodesics,
    frac_matrix,
    make_scene,
    one_holed_torus_leaf,
    one_holed_torus_scene,
    quadratic_axis_oracle,
    reference_crossing_pairs,
    reference_extract,
    reference_ball,
    reference_carrier_meet,
    reference_jsonable,
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
        assert sorted(fam.iterate.tolist()) == [0, 1, 2, 3]

    def test_sparse_iterates_match_single_ones(self, torus_scene):
        # Iterates are stepped from their neighbours toward 0; a sparse,
        # unordered range must give each axis as computed on its own.
        j = torus_scene.junctures[0]
        fam = juncture_orbit(torus_scene, j, (9, -5, 3), ball_k=0)
        assert sorted(fam.iterate.tolist()) == [-5, 3, 9]
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


def reference_period(scene, juncture, horizon):
    """The least n >= 1 for which a plain rotation scan over the cyclic
    core of phi^(+-n)(w), on the juncture's converging side, finds w's
    core; None when no n up to ``horizon`` does."""
    step = 1 if juncture.sign == "-" else -1
    core = juncture.word.cyclic_decomposition()[1].letters
    for n in range(1, horizon + 1):
        image = apply_automorphism(scene.automorphism, juncture.word,
                                   step * n).cyclic_decomposition()[1].letters
        if any(image[i:] + image[:i] == core
               for i in range(max(1, len(image)))):
            return n
    return None


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

    def test_swap_is_periodic(self):
        # Swapping a and b moves the class of a to that of b and back.
        scene = make_scene(
            [[2, 0], [0, 0.5]], [[8, 0.5], [0.5, 0.25]],
            forward=("b", "a"), inverse=("b", "a"),
            junctures=[("e-", "-", "a")],
        )
        for horizon in (3, 4, 20):
            report = escape_test(scene, scene.junctures[0], horizon)
            assert (report.verdict, report.period) == ("escaping", 2)
            assert reference_period(scene, scene.junctures[0], horizon) == 2

    def test_rotated_core_is_the_same_class(self, inner_scene):
        # Conjugation by b sends a b to b a b^-1 b = b a: a rotation of
        # a b, not a b itself.
        juncture = JunctureSpec("e-", "-", inner_scene.group.word("a b"))
        report = escape_test(inner_scene, juncture, horizon=3)
        assert (report.verdict, report.period) == ("escaping", 1)
        assert reference_period(inner_scene, juncture, 3) == 1

    @pytest.mark.parametrize("word, horizon, verdict", [
        # Cyclic lengths 6, 5, 4, 3: they fall, and nothing repeats.
        ("a b^-1 b^-1 b^-1 b^-1 b^-1", 3, "inconclusive"),
        # ... 1 at n = 5, then 2, ..., 16 at n = 20, rising over the tail.
        ("a b^-1 b^-1 b^-1 b^-1 b^-1", 20, "non-escaping"),
        ("a b b b b b b b b b b", 3, "non-escaping"),
    ])
    def test_cyclic_lengths_decide_growth(self, torus_scene, word, horizon,
                                          verdict):
        juncture = JunctureSpec("e-", "-", torus_scene.group.word(word))
        report = escape_test(torus_scene, juncture, horizon)
        assert (report.verdict, report.period) == (verdict, None)
        assert reference_period(torus_scene, juncture, horizon) is None

    @pytest.mark.parametrize("name", ["schottky_ab", "golden", "inner_b"])
    @pytest.mark.parametrize("horizon", [3, 6, 12, 20])
    def test_shipped_verdicts(self, name, horizon):
        scene = load_scene(scene_path(f"{name}.json"))
        for juncture in scene.junctures:
            report = escape_test(scene, juncture, horizon)
            period = reference_period(scene, juncture, horizon)
            assert report.period == period
            assert (report.verdict, period) == (
                ("non-escaping", None) if name == "schottky_ab"
                else ("escaping", 1))

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

    def test_letter_budget_enforced(self, torus_scene):
        with pytest.raises(BudgetExceededError):
            escape_test(torus_scene, torus_scene.junctures[0], horizon=20,
                        max_letters=5)


class TestExtract:
    def test_constant_chain_yields_no_leaves(self, identity_scene):
        fam = juncture_orbit(identity_scene, identity_scene.junctures[0],
                             n_range=range(0, 8), ball_k=0)
        lam = extract_limit_leaves(fam)
        assert len(lam.leaves) == 0
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
        leaf, = leaf_geodesics(lam.leaves)
        assert angular_gap(leaf.a.theta, angle_from_boundary(rep50)) < 1e-6
        assert angular_gap(leaf.b.theta, angle_from_boundary(att50)) < 1e-6

    def test_limit_is_fixed_points_of_b_and_image(self, torus_scene):
        # The limit should be (repelling(b), a * attracting(b)).
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             n_range=range(-12, 13), ball_k=0)
        leaf = leaf_geodesics(extract_limit_leaves(fam).leaves)[0]
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
        assert len(lam.leaves)
        for leaf in leaf_geodesics(lam.leaves):
            for geo, _ in fam.entries:
                assert geodesic_relation(leaf, geo) != "equal"

    def test_certificate_tails_strictly_decreasing(self, torus_scene):
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             n_range=range(-12, 13), ball_k=2)
        lam = extract_limit_leaves(fam)
        assert len(lam.certificates)
        for cert in certificates_of(lam.certificates):
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
        for leaf in leaf_geodesics(base_lam.leaves):
            image = Geodesic(boundary_action(g, leaf.a),
                             boundary_action(g, leaf.b))
            assert any(
                angular_gap(image.a.theta, a) < 1e-6
                and angular_gap(image.b.theta, b) < 1e-6
                for a, b in conj_lam.leaves.tolist()
            )

    def test_each_skip_reason(self):
        # One hand-built chain per reason, in the order the verdict tests
        # them; every chain has a distinct conjugator.
        def chain(letters, pairs):
            return [entry(Geodesic.from_angles(a, b), E_MINUS, letters, n)
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
        assert len(lam.leaves) == 0 and len(lam.certificates) == 0
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
        fam = family_of([entry(Geodesic.from_angles(*pair), E_MINUS, (1,), n)
                         for n, pair in zip([*range(9), 10], pairs)])
        lam = extract_limit_leaves(fam, tol=1e-6)
        gaps = [abs(a[0] - b[0]) for a, b in zip(pairs, pairs[1:])][-4:]
        assert gaps[-1] < 1e-6 and gaps == sorted(gaps, reverse=True)
        assert len(lam.leaves) == 0 and len(lam.certificates) == 0
        assert [s.reason for s in lam.skipped] == [
            "endpoint gaps not contracting"]

    def test_alternating_scene_certifies_no_leaf(self):
        # The end of a has period 2 under a -> c, b -> b, c -> a b, but
        # the scene declares period 1.  Its Λ+ chains of b^-1 a^-1, c a^-1
        # and c^-1 c^-1 alternate between two leaves and lose an iterate
        # near the end to deduplication.
        run = laminate(alternating_scene(), AxiomParams(horizon=20, ball=2))
        plus = run.laminations["+"]
        assert len(plus.leaves) == 0 and len(plus.skipped) == 37
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
        assert audit([Geodesic.from_boundary(0, 1),
                      Geodesic.from_boundary(2, 3)]) == []

    def test_injected_crossing_reported(self):
        lam = LaminationApprox(
            leaf_array([Geodesic.from_boundary(0, 2),
                        Geodesic.from_boundary(1, 3)]),
            [], [],
        )
        violations = crossing_audit(lam)
        assert violations.dtype == lamination.VIOLATION
        assert violations[["index_a", "index_b"]].tolist() == [(0, 1)]
        assert violations[0]["leaf_b"] == lam.leaves[1]
        # Strided leaf rows are read as contiguous ones are.
        strided = np.repeat(lam.leaves, 2)[::2]
        assert crossing_audit(LaminationApprox(
            strided, [], [])).tolist() == violations.tolist()

    def test_torus_scene_extraction_clean(self, torus_scene):
        fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                             n_range=range(-12, 13), ball_k=3)
        lam = extract_limit_leaves(fam)
        assert len(lam.leaves) > 10
        assert crossing_audit(lam).tolist() == []

    def test_single_crossing_against_opposite_junctures(self, torus_scene):
        # A leaf and a juncture axis are geodesics, so they meet at most
        # once; every crossing pair yields exactly one intersection point.
        from endlam.hyperbolic import geodesic_intersection
        minus_fam = juncture_orbit(torus_scene, torus_scene.junctures[0],
                                   range(-10, 11), 1)
        plus_fam = juncture_orbit(torus_scene, torus_scene.junctures[1],
                                  range(-10, 11), 1)
        lam = extract_limit_leaves(minus_fam)
        for leaf in leaf_geodesics(lam.leaves):
            for geo, _ in plus_fam.entries:
                rel = geodesic_relation(leaf, geo)
                if rel == "cross":
                    geodesic_intersection(leaf, geo)  # unique, no error


class TestIntersections:
    def test_symmetric_crossing_at_origin(self):
        lam_p = LaminationApprox(
            leaf_array([Geodesic.from_boundary(0, INF)]), [], [])
        lam_m = LaminationApprox(
            leaf_array([Geodesic.from_boundary(-1, 1)]), [], [])
        meager = transversal_intersections(lam_p, lam_m)
        assert meager.points.dtype == lamination.POINT
        assert len(meager.points) == 1
        rec = meager.points[0]
        # i maps to the disk origin
        assert math.hypot(rec["x"], rec["y"]) < 1e-9

    def test_disjoint_families_flagged(self):
        assert meet([Geodesic.from_boundary(0, 1)],
                    [Geodesic.from_boundary(2, 3)]) == ([], [0], [0])

    def test_at_most_one_point_per_pair(self, torus_scene):
        fams = {j.sign: juncture_orbit(torus_scene, j, range(-10, 11), 1)
                for j in torus_scene.junctures}
        lam_p = extract_limit_leaves(fams["-"])
        lam_m = extract_limit_leaves(fams["+"])
        meager = transversal_intersections(lam_p, lam_m)
        pairs = meager.points[["plus_index", "minus_index"]].tolist()
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
    """The per-pair scalar loop that the crossing mask replaces, over
    geodesics: a violation as the tuple of its ``VIOLATION`` row."""
    def angles(g):
        return g.a.theta, g.b.theta

    return [(i, j, angles(leaves[i]), angles(leaves[j]))
            for i in range(len(leaves)) for j in range(i + 1, len(leaves))
            if geodesic_relation(leaves[i], leaves[j], tol) == "cross"]


def reference_intersections(plus, minus, tol):
    """The per-pair scalar loop of ``transversal_intersections`` over
    geodesics, as ``meager_rows`` gives its result."""
    points, met_plus, met_minus = [], set(), set()
    for i, gp in enumerate(plus):
        for j, gm in enumerate(minus):
            if geodesic_relation(gp, gm, tol) == "cross":
                met_plus.add(i)
                met_minus.add(j)
                x, y = to_disk(reference_carrier_meet(to_disk(gp),
                                                      to_disk(gm)))
                points.append((i, j, x, y))
    return (points,
            [i for i in range(len(plus)) if i not in met_plus],
            [j for j in range(len(minus)) if j not in met_minus])


def meager_rows(meager):
    """The points of a ``MeagerInvariantSet`` as tuples of its ``POINT``
    rows, then its uncovered leaves on either side."""
    return (meager.points.tolist(), meager.uncovered_plus,
            meager.uncovered_minus)


def audit(leaves, tol=ANGLE_TOL):
    """``crossing_audit`` of a lamination of the geodesics ``leaves``, a
    violation as the tuple of its row."""
    return crossing_audit(LaminationApprox(leaf_array(leaves), [], []),
                          tol).tolist()


def meet(plus, minus, tol=ANGLE_TOL):
    """``meager_rows`` of the ``transversal_intersections`` of laminations
    of the geodesics ``plus`` and ``minus``."""
    return meager_rows(transversal_intersections(
        LaminationApprox(leaf_array(plus), [], []),
        LaminationApprox(leaf_array(minus), [], []), tol))


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
    scalar ``geodesic_relation`` loops and the mask blocks they replace,
    and the corners of the endpoint sweep that proposes their pairs."""

    @settings(max_examples=400, deadline=None)
    @given(chord_case())
    def test_random_families_match_scalar_loops(self, case):
        tol, plus, minus = case
        for leaves in (plus, minus):
            assert audit(leaves, tol) == reference_audit(leaves, tol)
        assert outcome(meet, plus, minus, tol) == outcome(
            reference_intersections, plus, minus, tol)

    @settings(max_examples=40, deadline=None)
    @given(block_case())
    def test_families_past_one_block_match_scalar_loops(self, case):
        tol, plus, minus = case
        assert len(plus) > 64
        for leaves in (plus, minus):
            assert audit(leaves, tol) == reference_audit(leaves, tol)
        assert outcome(meet, plus, minus, tol) == outcome(
            reference_intersections, plus, minus, tol)

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
            assert audit(leaves, tol) == reference_audit(leaves, tol)
        points, *_ = meager = meet(plus, minus, tol)
        assert meager == reference_intersections(plus, minus, tol)
        assert len(points) == (n == 2)

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
            assert lam.crossing_violations.tolist() == reference_audit(
                leaf_geodesics(lam.leaves), ANGLE_TOL)
            violations += len(lam.crossing_violations)
        assert meager_rows(run.intersections) == reference_intersections(
            leaf_geodesics(lams["+"].leaves),
            leaf_geodesics(lams["-"].leaves), ANGLE_TOL)
        assert len(run.intersections.points)
        assert (violations > 0) == bool(conjugator)

    def test_deep_run_points_match_scalar_loop(self):
        # The benchmark's lam-deep depth: 485 leaves a side, 1272 points.
        run = laminate(load_scene(scene_path("schottky_ab.json")),
                       AxiomParams(horizon=20, ball=5))
        assert meager_rows(run.intersections) == reference_intersections(
            *(leaf_geodesics(lam.leaves) for lam in run.laminations.values()),
            ANGLE_TOL)
        assert len(run.intersections.points) == 1272

    def test_nested_family_has_no_candidates(self):
        # 1000 chords around pi, each inside the next, in shuffled order:
        # every chord closes at the top of the open list.
        rng = random.Random(0)
        width = [0.001 * (k + 1) for k in range(1000)]
        rng.shuffle(width)
        ends = np.array([(math.pi + w, math.pi - w) for w in width])
        i, j = lamination._interleaved(ends)
        assert len(i) == len(j) == 0
        leaves = [Geodesic.from_angles(*row) for row in ends.tolist()]
        assert audit(leaves) == []

    def test_mutually_crossing_family_gives_every_pair(self):
        # 300 diameters: any two cross, so all 300 * 299 / 2 pairs are
        # candidates and violations, row-major.
        rng = random.Random(1)
        angles = [math.pi * (k + 0.5) / 300 for k in range(300)]
        rng.shuffle(angles)
        ends = np.array([(t + math.pi, t) if k % 2 else (t, t + math.pi)
                         for k, t in enumerate(angles)])
        pairs = [(i, j) for i in range(300) for j in range(i + 1, 300)]
        assert len(pairs) == 44850
        i, j = lamination._interleaved(ends)
        assert list(zip(i.tolist(), j.tolist())) == pairs
        leaves = [Geodesic.from_angles(*row) for row in ends.tolist()]
        violations = audit(leaves)
        assert violations == reference_audit(leaves, ANGLE_TOL)
        assert [v[:2] for v in violations] == pairs

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_shared_and_wrapping_endpoints_match_scalar_loops(self, swap,
                                                              reverse):
        # Chords sharing an exact endpoint (one at 0.0, one at the float
        # below 2 pi), each written both ways round and listed both ways,
        # beside chords that cross them.
        top = math.nextafter(TWO_PI, 0)
        rows = [(0.0, 2.0), (2.0, 4.0), (1.0, top), (0.0, 3.0), (top, 5.0),
                (3.0, 5.5), (2.0, 0.0), (0.5, 4.5), (top, 0.5)]
        rows = [(b, a) if swap else (a, b) for a, b in rows]
        leaves = [Geodesic.from_angles(*row) for row in rows]
        leaves = leaves[::-1] if reverse else leaves
        plus, minus = leaves[:5], leaves[4:]
        for tol in (1e-12, ANGLE_TOL, 1e-3):
            violations = audit(leaves, tol)
            assert violations == reference_audit(leaves, tol)
            assert len(violations) > 0
            assert outcome(meet, plus, minus, tol) == outcome(
                reference_intersections, plus, minus, tol)

    @settings(max_examples=400, deadline=None)
    @given(chord_case())
    def test_every_crossing_pair_is_a_candidate(self, case):
        tol, plus, minus = case
        leaves = plus + minus
        i, j = lamination._interleaved(
            np.array([(g.a.theta, g.b.theta) for g in leaves]).reshape(-1, 2))
        candidates = set(zip(i.tolist(), j.tolist()))
        for a in range(len(leaves)):
            for b in range(a + 1, len(leaves)):
                if geodesic_relation(leaves[a], leaves[b], tol) == "cross":
                    assert (a, b) in candidates

    @pytest.mark.parametrize("conjugator, ball, angle_tol, violations", [
        (None, 6, ANGLE_TOL, 0),
        (None, 5, 1e-10, 137),
        (None, 5, 1e-12, 8),
        ((3.3, -0.3, 0.8), 5, ANGLE_TOL, 152)])
    def test_deep_runs_match_mask_reference(self, monkeypatch, conjugator,
                                            ball, angle_tol, violations):
        # Scales where the scalar loops are too slow: the sweep against
        # the mask blocks it replaced, at horizon 20.
        run = laminate(schottky_conjugate(conjugator),
                       AxiomParams(horizon=20, ball=ball,
                                   angle_tol=angle_tol))
        lams = run.laminations

        def mask_pairs(p, q, tol):
            if q is None:
                return reference_crossing_pairs(p, p, tol, upper=True)
            return reference_crossing_pairs(p, q, tol)

        monkeypatch.setattr(lamination, "_crossing_pairs", mask_pairs)
        for lam in lams.values():
            assert lam.crossing_violations.tolist() == crossing_audit(
                lam, angle_tol).tolist()
        assert meager_rows(run.intersections) == meager_rows(
            transversal_intersections(lams["+"], lams["-"], angle_tol))
        assert len(run.intersections.points)
        assert sum(len(lam.crossing_violations)
                   for lam in lams.values()) == violations


def reference_orbit(scene, juncture, n_range, ball_k):
    """The scalar loop that ``juncture_orbit`` replaces: each candidate
    axis is mapped one ``boundary_action`` at a time and offered to a
    sequential angle set.  Entries as (angle bits, conjugator letters,
    conjugator matrix, iterate)."""
    iterates = sorted(set(n_range), reverse=juncture.sign == "+")
    ball = reference_ball(scene.group, ball_k)
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
            if dedup.add(*sorted((geo.a.theta, geo.b.theta))):
                entries.append((geo.a.theta.hex(), geo.b.theta.hex(),
                                g_word.letters, g_iso.matrix, n))
    return entries


def orbit_entries(family):
    return [(geo.a.theta.hex(), geo.b.theta.hex(), prov.conjugator.letters,
             m.matrix, n) for geo, prov, n, m in entries_of(family)]


class TestOrbitArrays:
    """``juncture_orbit`` against the scalar loop it replaces, on the
    shipped scenes and a benchmark-style conjugate."""

    # Kept entries per juncture out of (ball size) x (iterates) candidates;
    # golden's orbit is almost all repeats.
    @pytest.mark.parametrize("scene, horizon, ball, kept", [
        ("schottky_ab", 16, 4, 2857), ((3.3, -0.3, 0.8), 14, 3, 1026),
        ("golden", 14, 3, 27)])
    def test_entries_match_scalar_loop(self, scene, horizon, ball, kept):
        scene = (load_scene(scene_path(f"{scene}.json"))
                 if isinstance(scene, str) else schottky_conjugate(scene))
        n_range = range(-horizon, horizon + 1)
        for juncture in scene.junctures:
            family = juncture_orbit(scene, juncture, n_range, ball)
            assert orbit_entries(family) == reference_orbit(
                scene, juncture, n_range, ball)
            assert len(family) == kept

    @pytest.mark.parametrize("scene, horizon, ball", [
        ("schottky_ab", 16, 4), ((3.3, -0.3, 0.8), 14, 3), ("inner_b", 6, 2),
        ("two labels", 9, 2)])
    def test_chain_rows_are_conjugator_matrices(self, scene, horizon, ball):
        # Each chain's row of g is its conjugator's evaluate_word, bit for
        # bit, in every family a run builds and in the merge of two.
        two = scene == "two labels"
        scene = sharing_scene(scene)
        run = laminate(scene, AxiomParams(horizon=horizon, ball=ball))
        families = [family for _, family in run.families]
        minus = [fam for j, fam in run.families if j.sign == "-"]
        assert len(minus) == 1 + two
        families.append(GeodesicFamily.merge(minus))
        for family in families:
            assert len(family.g) == len(family.chains)
            assert [[x.hex() for x in row] for row in family.g.tolist()] == [
                matrix_bits(evaluate_word(scene.group, c.conjugator))
                for c in family.chains]

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
    """Every array of a family, floats as hex, and its chains."""
    return ([x.hex() for x in family.ta.tolist()],
            [x.hex() for x in family.tb.tolist()],
            family.chain.tolist(), family.iterate.tolist(),
            [(c.juncture, c.conjugator.letters) for c in family.chains],
            [x.hex() for x in family.g.ravel().tolist()])


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


def assert_row_contract(family):
    """The rows of ``family`` are grouped by chain, the chains numbered
    0, 1, ... in row order, and each chain's iterates strictly rise for a
    juncture of sign - and strictly fall for one of sign +."""
    starts = np.flatnonzero(np.diff(family.chain, prepend=-1))
    assert family.chain[starts].tolist() == list(range(len(family.chains)))
    for prov, rows in zip(family.chains,
                          np.split(family.iterate, starts[1:])):
        steps = np.diff(rows)
        assert ((steps > 0) if prov.juncture.sign == "-"
                else (steps < 0)).all()


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
    def test_families_keep_the_row_contract(self, scene, horizon, ball,
                                            words):
        scene = sharing_scene(scene)
        rng = random.Random(horizon)
        n_range = [*range(-horizon, horizon + 1),
                   *rng.sample(range(-horizon, horizon + 1), 3)]
        rng.shuffle(n_range)
        for juncture in scene.junctures:
            assert_row_contract(juncture_orbit(scene, juncture, n_range,
                                               ball))

    def test_merge_keeps_the_row_contract(self):
        scene = two_minus_labels_scene()
        minus = [j for j in scene.junctures if j.sign == "-"]
        assert len(minus) == 2
        assert_row_contract(GeodesicFamily.merge(
            juncture_orbit(scene, j, range(10), 2) for j in minus))

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

    @pytest.mark.parametrize("order, error, message", [
        ((0, 1), ValidationError, "geodesic endpoints coincide"),
        ((1, 0), NotHyperbolicError,
         "iterate 0 of juncture 'e+' evaluates to a parabolic isometry")])
    def test_words_are_built_in_juncture_order(self, order, error, message,
                                               monkeypatch):
        # inner_b's e- (word a) fails the endpoint check at (11, 1), and
        # e+ (word b) fails its build once b reads as parabolic.  A word is
        # built inside the orbit of its first juncture, so the failure
        # reported is that of the scene's first juncture.
        scene = load_scene(scene_path("inner_b.json"))
        scene = dataclasses.replace(
            scene, junctures=[scene.junctures[i] for i in order])
        b = scene.group.letter_isometry(2).matrix
        real = lamination.classify_isometry
        monkeypatch.setattr(
            lamination, "classify_isometry",
            lambda m, tol: "parabolic" if m.matrix == b else real(m, tol))
        with pytest.raises(ValidationError) as raised:
            laminate(scene, AxiomParams(horizon=11, ball=1))
        assert raised.type is error
        assert str(raised.value) == message

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
    return [(geo.a.theta.hex(), geo.b.theta.hex(), prov.chain_key(), n,
             m.matrix) for geo, prov, n, m in entries]


def assert_same_extraction(lam, ref):
    """Equal leaves (angle bits), certificates and skipped chains, in the
    same order.  The certificate table's rows hold Python scalars, equal
    field by field to the reference's records, gaps bit for bit; and the
    ``--json`` writer spells each row's conjugator as ``Word.format``
    does."""
    assert leaf_bits(lam) == leaf_bits(ref)
    records = certificates_of(lam.certificates)
    assert records == ref.certificates
    assert [[x.hex() for x in c.gaps] for c in records] == [
        [x.hex() for x in c.gaps] for c in ref.certificates]
    for cert in records:
        assert {type(n) for n in cert.iterates} == {int}
        assert {type(x) for x in cert.gaps} <= {float}
    names = ("a", "b", "c")
    assert cli._ReportText(names).text(lam.certificates) == json.dumps(
        reference_jsonable(ref.certificates, names), indent=2)
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
            # Conjugator a moves the base limit by t -> 4t.
            a = Isometry(2.0, 0.0, 0.0, 0.5) if letters else None
            return [entry(Geodesic.from_angles(t, ta + 2.0), E_MINUS, letters,
                          n, a) for n, t in enumerate(thetas)]

        entries = (chain((), 1.0, [1e-7, 1e-8, 1e-9])
                   + chain((1,), 2.0, [1e-8, 1e-9, 1e-10, 1e-11, 1e-12]))
        lam = extract_limit_leaves(family_of(entries))
        assert_same_extraction(lam, reference_extract(entries, DEFAULT_TOL))
        assert [c.conjugator.letters
                for c in certificates_of(lam.certificates)] == [(), (1,)]

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
            return [entry(Geodesic.from_angles(ta + 0.1 ** n,
                                               tb + 2 * 0.1 ** n),
                          juncture, letters, n, iso.get(letters))
                    for n in range(1, 9)]

        base = chain(E_MINUS, (), 1.0, 2.0)
        squeezed = chain(E_MINUS, (1,), 3.0, 4.0)
        fine = chain(E_MINUS, (2,), 3.0, 4.0)
        narrow = chain(JunctureSpec("f-", "-", Word((2,))), (), 5.0,
                       5.0 + 5e-10)
        lam = extract_limit_leaves(family_of(base + fine), angle_tol=1e-12)
        assert_same_extraction(lam, reference_extract(base + fine,
                                                      DEFAULT_TOL, 1e-12))
        assert [c.conjugator.letters
                for c in certificates_of(lam.certificates)] == [(), (2,)]
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
            return [entry(Geodesic.from_angles(a, b), E_MINUS, letters, n,
                          iso.get(letters))
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
        assert [c.conjugator.letters
                for c in certificates_of(lam.certificates)] == [
            (1,), (2,)]
        assert [(s.conjugator.letters, s.reason) for s in lam.skipped] == [
            ((1, 1), "fewer than 4 distinct iterates"),
            ((), "chain collapses toward a single boundary point"),
            ((2, 2), "last gap 1.000e-01 above tolerance 1.0e-06")]

    def test_merged_family_matches_object_loop(self, torus_scene):
        families = three_juncture_families(torus_scene)
        merged = GeodesicFamily.merge(families)
        assert len(merged.chains) < sum(len(f.chains) for f in families)
        # The chains left are the families' own chains.
        records = [c for fam in families for c in fam.chains]
        assert all(c in records for c in merged.chains)
        lam = extract_limit_leaves(merged)
        assert len(lam.leaves) and lam.skipped
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

    @pytest.mark.parametrize("pieces, identities", [
        # The first piece's identity chain is skipped (its last gap is
        # above tol); the second's is certified and is the base of its
        # conjugated chains.
        ((range(0, 8), range(8, 16)), 2),
        # The second piece's identity entries repeat the first's and are
        # dropped; its chains (1,) and (2,) collapse to single axes.
        ((range(0, 12), range(14, 20)), 1),
        # The second piece, iterates before the first, skips every chain.
        ((range(0, 16), range(-4, 0)), 2),
    ])
    def test_pieces_of_one_orbit_match_object_loop(self, torus_scene,
                                                   pieces, identities):
        # The merged family holds the juncture once, and its chains stay
        # apart by piece.
        j = torus_scene.junctures[0]
        families = [juncture_orbit(torus_scene, j, n_range, 1)
                    for n_range in pieces]
        merged = GeodesicFamily.merge(families)
        assert merged.junctures == (j,)
        assert merged.conj.tolist().count(0) == identities
        assert_same_extraction(extract_limit_leaves(merged), reference_extract(
            reference_merge(families), DEFAULT_TOL))

    def test_conjugated_chains_take_the_last_base(self):
        # Two families of E_MINUS, each an identity chain and chain (1,),
        # merged: both identity chains are certified, and each chain (1,)
        # is the image under a of the identity limit before it.
        a = Isometry(2.0, 0.0, 0.0, 0.5)

        def chain(letters, ta, tb):
            return [entry(Geodesic.from_angles(ta + 0.1 ** n,
                                               tb + 2 * 0.1 ** n),
                          E_MINUS, letters, n, a if letters else None)
                    for n in range(1, 9)]

        families = [family_of(chain((), 1.0, 2.0) + chain((1,), 3.0, 4.0)),
                    family_of(chain((), 5.0, 5.5) + chain((1,), 0.5, 1.0))]
        merged = GeodesicFamily.merge(families)
        lam = extract_limit_leaves(merged)
        assert_same_extraction(lam, reference_extract(
            reference_merge(families), DEFAULT_TOL))
        first, image, second, second_image = leaf_geodesics(lam.leaves)
        for base, moved in ((first, image), (second, second_image)):
            assert (moved.a.theta, moved.b.theta) == (
                boundary_action(a, base.a).theta,
                boundary_action(a, base.b).theta)

    def test_skipped_identity_chain_gives_no_base(self):
        # E_MINUS's identity chain has three iterates and is skipped, so
        # its chains (1,) and (2,) each take their own Aitken step.  The
        # identity chain of juncture f- is certified, and its chain (1,)
        # is that limit's image under a, not an Aitken limit.
        f_minus = JunctureSpec("f-", "-", Word((2,)))
        a = Isometry(2.0, 0.0, 0.0, 0.5)

        def chain(juncture, letters, ta, tb, count=8):
            return [entry(Geodesic.from_angles(ta + 0.1 ** n,
                                               tb + 2 * 0.1 ** n),
                          juncture, letters, n, a if letters else None)
                    for n in range(1, count + 1)]

        entries = (chain(E_MINUS, (), 1.0, 2.0, count=3)
                   + chain(E_MINUS, (1,), 3.0, 4.0)
                   + chain(E_MINUS, (2,), 0.5, 1.5)
                   + chain(f_minus, (), 5.0, 5.5)
                   + chain(f_minus, (1,), 3.5, 4.5))
        lam = extract_limit_leaves(family_of(entries))
        assert_same_extraction(lam, reference_extract(entries, DEFAULT_TOL))
        records = certificates_of(lam.certificates)
        assert [(c.juncture, c.conjugator.letters) for c in records] == [
            ("e-", (1,)), ("e-", (2,)), ("f-", ()), ("f-", (1,))]
        (base,) = leaf_geodesics(lam.leaves[2:3])
        assert lam.leaves[3].tolist() == (boundary_action(a, base.a).theta,
                                          boundary_action(a, base.b).theta)
        assert [(s.juncture, s.conjugator.letters, s.reason)
                for s in lam.skipped] == [
            ("e-", (), "fewer than 4 distinct iterates")]

    def test_bases_by_juncture_and_position(self):
        # Four families of two junctures merged, their chains in this
        # order: e- (1,) with no base before it takes its own Aitken
        # step; f- () is f-'s first base, of f- (1,) and of the f- (2,)
        # after it; e- () is e-'s first base; a second e- () collapses
        # and is no base, so the e- (1,) after it still takes the first;
        # a third e- () is the last base of e- (2,).
        f_minus = JunctureSpec("f-", "-", Word((2,)))
        iso = {(1,): Isometry(2.0, 0.0, 0.0, 0.5),
               (2,): Isometry(4.0, 0.0, 0.0, 0.25)}

        def chain(juncture, letters, ta, tb):
            return [entry(Geodesic.from_angles(ta + 0.1 ** n,
                                               tb + 2 * 0.1 ** n),
                          juncture, letters, n, iso.get(letters))
                    for n in range(1, 9)]

        pinched = [entry(Geodesic.from_angles(2.0 - 0.5 ** n, 2.0 + 0.5 ** n),
                         E_MINUS, (), n) for n in range(22)]
        families = [
            family_of(chain(E_MINUS, (1,), 3.0, 4.0)
                      + chain(f_minus, (), 5.0, 5.5)
                      + chain(f_minus, (1,), 3.5, 4.5)),
            family_of(chain(E_MINUS, (), 1.0, 2.0)
                      + chain(f_minus, (2,), 0.5, 1.5)),
            family_of(pinched + chain(E_MINUS, (1,), 0.3, 0.6)),
            family_of(chain(E_MINUS, (), 4.2, 4.8)
                      + chain(E_MINUS, (2,), 2.5, 3.2))]
        merged = GeodesicFamily.merge(families)
        assert merged.conj.tolist().count(0) == 4
        lam = extract_limit_leaves(merged)
        assert_same_extraction(lam, reference_extract(
            reference_merge(families), DEFAULT_TOL))
        records = certificates_of(lam.certificates)
        assert [(c.juncture, c.conjugator.letters) for c in records] == [
            ("e-", (1,)), ("f-", ()), ("f-", (1,)), ("e-", ()), ("f-", (2,)),
            ("e-", (1,)), ("e-", ()), ("e-", (2,))]
        assert [(s.conjugator.letters, s.reason) for s in lam.skipped] == [
            ((), "chain collapses toward a single boundary point")]
        leaves = leaf_geodesics(lam.leaves)
        for base, moved, letters in ((1, 2, (1,)), (1, 4, (2,)),
                                     (3, 5, (1,)), (6, 7, (2,))):
            m = iso[letters]
            assert (leaves[moved].a.theta, leaves[moved].b.theta) == (
                boundary_action(m, leaves[base].a).theta,
                boundary_action(m, leaves[base].b).theta)

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("angle_tol", [ANGLE_TOL, 1e-3])
    def test_merge_matches_concatenated_dedup(self, torus_scene, count,
                                              angle_tol):
        families = three_juncture_families(torus_scene)[:count]
        merged = GeodesicFamily.merge(families, angle_tol)
        assert entry_bits(entries_of(merged)) == entry_bits(
            reference_merge(families, angle_tol))

    def test_merge_orders_chains_by_first_kept_entry(self):
        # Chain (1,)'s first entry repeats chain ()'s and is dropped, so
        # chain (2,) appears before it; extraction visits them so too.
        def chord(letters, n, a):
            return entry(Geodesic.from_angles(a, a + 1.0), E_MINUS, letters,
                         n)

        families = [family_of([chord((), 0, 1.0)]),
                    family_of([chord((1,), 0, 1.0), chord((2,), 0, 2.0),
                               chord((1,), 1, 3.0)])]
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
        assert entry_bits(entries_of(family)) == entry_bits(
            reference_merge([family]))

    def test_lone_family_at_another_tol_deduplicated(self, torus_scene):
        family = three_juncture_families(torus_scene)[0]
        merged = GeodesicFamily.merge([family], 1e-2)
        assert len(merged) < len(family)
        assert entry_bits(entries_of(merged)) == entry_bits(
            reference_merge([family], 1e-2))

    def test_lone_family_of_unknown_tol_deduplicated(self):
        entries = [entry(Geodesic.from_angles(a, 3.0), E_MINUS, (), n)
                   for n, a in enumerate([1.0, 2.0, 1.0 + 1e-10])]
        merged = GeodesicFamily.merge([family_of(entries)])
        assert merged.iterate.tolist() == [0, 1]

    def test_empty_family(self):
        for family in (GeodesicFamily(), GeodesicFamily.merge([])):
            assert len(family) == 0 and family.entries == []
            lam = extract_limit_leaves(family)
            assert (len(lam.leaves), len(lam.certificates),
                    lam.skipped) == (0, 0, [])

    def test_objects_keep_the_endpoint_check(self):
        family = family_of([entry(Geodesic.from_angles(1.0, 2.0), E_MINUS,
                                  (), 0)])
        family.tb[0] = 1.0
        with pytest.raises(ValidationError,
                           match="geodesic endpoints coincide"):
            family.entries


class TestLaminate:
    def test_no_isometry_per_ball_element(self, monkeypatch):
        # The ball is arrays and each chain's conjugator a row of g, so
        # the isometries a run builds (core products and the conjugators
        # of the iterates) do not grow with the ball.
        scene = load_scene(scene_path("schottky_ab.json"))
        built = []
        init, raw = Isometry.__init__, Isometry._raw.__func__

        def counted_init(self, *args):
            built.append(None)
            init(self, *args)

        def counted_raw(cls, *args):
            built.append(None)
            return raw(cls, *args)

        monkeypatch.setattr(Isometry, "__init__", counted_init)
        monkeypatch.setattr(Isometry, "_raw", classmethod(counted_raw))
        counts = []
        for ball in (1, 5):
            built.clear()
            run = laminate(scene, AxiomParams(horizon=20, ball=ball))
            counts.append(len(built))
        assert len(run.laminations["+"].leaves) == 485
        assert counts[0] == counts[1] > 0
        built.clear()
        enumerate_ball(scene.group, 8)
        assert built == []

    def test_no_object_per_chain(self, monkeypatch):
        # A chain is a ball row and the certificates one table, and the
        # writer spells conjugators from the ball: the Words and chain
        # records a run and its --json text build (juncture iterates and
        # cores) do not grow with the ball.
        scene = load_scene(scene_path("schottky_ab.json"))
        built = []
        init, reduced = Word.__init__, Word._reduced.__func__
        record = lamination.ChainProvenance.__init__

        def counted_init(self, *args, **kwargs):
            built.append("Word")
            init(self, *args, **kwargs)

        def counted_reduced(cls, *args):
            built.append("Word")
            return reduced(cls, *args)

        def counted_record(self, *args, **kwargs):
            built.append("ChainProvenance")
            record(self, *args, **kwargs)

        monkeypatch.setattr(Word, "__init__", counted_init)
        monkeypatch.setattr(Word, "_reduced", classmethod(counted_reduced))
        monkeypatch.setattr(lamination.ChainProvenance, "__init__",
                            counted_record)
        counts = []
        for ball in (1, 5):
            built.clear()
            run = laminate(scene, AxiomParams(horizon=20, ball=ball))
            cli._ReportText(scene.group.names).text(run.laminations)
            counts.append((built.count("Word"),
                           built.count("ChainProvenance")))
        assert len(run.laminations["+"].leaves) == 485
        assert counts[0] == counts[1] and counts[0][0] > 0
        assert counts[1][1] == 0

    def test_matches_orbit_then_extract(self, torus_scene):
        run = laminate(torus_scene, AxiomParams(horizon=10, ball=1))
        assert [j for j, _ in run.families] == torus_scene.junctures
        direct = {j.sign: extract_limit_leaves(
            juncture_orbit(torus_scene, j, range(-10, 11), 1))
            for j in torus_scene.junctures}
        assert list(run.laminations) == ["+", "-"]
        assert leaf_bits(run.laminations["+"]) == leaf_bits(direct["-"])
        assert leaf_bits(run.laminations["-"]) == leaf_bits(direct["+"])

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
            certificates = certificates_of(run.laminations[sign].certificates)
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
            assert len(lam.leaves)
            assert lam.crossing_violations.tolist() == crossing_audit(
                lam).tolist()
        assert meager_rows(run.intersections) == meager_rows(
            transversal_intersections(lams["+"], lams["-"]))
        assert len(run.intersections.points)

    def test_results_holding_arrays_compare_by_identity(self):
        # Generated __eq__ would compare the record arrays and raise, on
        # these 8 points as on two sets with none.
        params = AxiomParams(horizon=10, ball=1)
        scene = load_scene(scene_path("schottky_ab.json"))
        run, again = laminate(scene, params), laminate(scene, params)
        lams = run.laminations
        meager = transversal_intersections(lams["+"], lams["-"])
        assert len(meager.points) == 8
        assert meager_rows(meager) == meager_rows(run.intersections)
        empty = [MeagerInvariantSet(np.empty(0, POINT), [], [])
                 for _ in range(2)]
        for x, y in [(run.intersections, meager), (empty[0], empty[1]),
                     (lams["+"], again.laminations["+"]), (run, again)]:
            assert x != y and not x == y
            assert x == x and y == y

    def test_no_geodesic_per_leaf_violation_or_point(self, tmp_path,
                                                     monkeypatch):
        # Leaves, violations and points are record arrays from extraction
        # to --json: the only Geodesics are the per-iterate axes the orbit
        # table builds, as many at ball 3 (53 leaves a side) as at ball 5
        # (485 leaves a side, 1272 points).
        built = []
        check = Geodesic.__post_init__
        monkeypatch.setattr(Geodesic, "__post_init__",
                            lambda g: built.append(g) or check(g))
        counts = []
        for ball in ("3", "5"):
            built.clear()
            assert run_command([
                "laminate", str(scene_path("schottky_ab.json")), "--horizon",
                "20", "--ball", ball, "--json",
                str(tmp_path / f"ball_{ball}.json")]) == 0
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

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
        assert len(run.laminations["+"].leaves)
        assert run.laminations["+"].crossing_violations.tolist() == []
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
        assert [sorted(row) for row in shared.leaves.tolist()] == [
            sorted(row) for row in own.leaves.tolist()]
        assert [(c.conjugator, c.iterates)
                for c in certificates_of(shared.certificates)] == [
            (c.conjugator, c.iterates)
            for c in certificates_of(own.certificates)]

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
        ball = [m for _, m in reference_ball(scene.group, 4)]
        for sign in ("+", "-"):
            lam = run.laminations[sign]
            base = one_holed_torus_leaf(scene, sign)
            identity, = [leaf for leaf, cert in zip(
                             lam.leaves.tolist(),
                             certificates_of(lam.certificates))
                         if cert.conjugator == Word.identity()]
            assert angular_gap(identity[0], base.a.theta) < 1e-12
            assert angular_gap(identity[1], base.b.theta) < 1e-12
            images = [(boundary_action(m, base.a).theta,
                       boundary_action(m, base.b).theta) for m in ball]
            for a, b in lam.leaves.tolist():
                assert min(max(angular_gap(a, ta), angular_gap(b, tb))
                           for ta, tb in images) < 1e-8
            assert lam.crossing_violations.tolist() == []

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
        assert [lam.crossing_violations.tolist()
                for lam in run.laminations.values()] == [[], []]


SHIFT_JUNCTURES = [("e-", "-", "a"), ("e+", "+", "a")]
# The rules of phi^2 for the shift phi: a -> a b.
SQUARE = {"forward": ("a b b", "b"), "inverse": ("a b^-1 b^-1", "b")}


def shift_scene(forward=("a b", "b"), inverse=("a b^-1", "b"),
                junctures=SHIFT_JUNCTURES, gen_b=TORUS_B):
    """schottky_ab's group (TORUS_A, TORUS_B), or a re-marked copy, under
    the given rules; by default schottky_ab itself."""
    return make_scene(TORUS_A, gen_b, forward=forward, inverse=inverse,
                      junctures=junctures)


def leaf_bits(lam):
    return [(a.hex(), b.hex()) for a, b in lam.leaves.tolist()]


def near_every_leaf(lam, other, tol=1e-7):
    """Whether each leaf of ``lam`` lies within ``tol``, at both ends, of
    some leaf of ``other``."""
    p, q = (x.leaves.tolist() for x in (lam, other))
    p, q = np.array(p)[:, None, :], np.array(q)[None, :, :]
    gaps = np.maximum(angular_gaps(p[..., 0], q[..., 0]),
                      angular_gaps(p[..., 1], q[..., 1]))
    return bool((gaps.min(axis=1) < tol).all())


class TestInvariance:
    """The laminations are invariants of the map: phi^-1 exchanges them,
    phi^2 has the same ones, and re-marking the group leaves the leaves
    on the circle where they are.  Checked on schottky_ab's shift
    a -> a b."""

    @pytest.mark.parametrize("horizon, ball, leaves", [(12, 3, 53),
                                                        (20, 5, 485)])
    def test_inverse_with_flipped_signs_exchanges_the_laminations(
            self, horizon, ball, leaves):
        params = AxiomParams(horizon=horizon, ball=ball)
        run = laminate(shift_scene(), params)
        flipped = laminate(shift_scene(
            forward=("a b^-1", "b"), inverse=("a b", "b"),
            junctures=[(e, "+" if s == "-" else "-", w)
                       for e, s, w in SHIFT_JUNCTURES]), params)
        assert list(run.laminations) == list(flipped.laminations) == [
            "+", "-"]
        for sign, other in (("+", "-"), ("-", "+")):
            assert len(run.laminations[sign].leaves) == leaves
            assert leaf_bits(flipped.laminations[sign]) == leaf_bits(
                run.laminations[other])
        for lam in [*run.laminations.values(),
                    *flipped.laminations.values()]:
            assert lam.crossing_violations.tolist() == []

    def test_remarking_keeps_the_leaves(self):
        # psi: a -> a, b -> b a.  The re-marked scene has generators a and
        # b a, and the automorphism psi^-1 phi psi.
        remarked = shift_scene(
            forward=("a b a^-1", "b b a^-1"), inverse=("a a b^-1", "b a b^-1"),
            gen_b=[[8, 0.25], [4, 0.25]])
        reference = laminate(shift_scene(), AxiomParams(horizon=20, ball=6))
        for horizon in (12, 20):
            run = laminate(remarked, AxiomParams(horizon=horizon, ball=3))
            assert list(run.laminations) == ["+", "-"]
            for sign, lam in run.laminations.items():
                assert len(lam.leaves) == 53
                assert lam.skipped == []
                assert lam.crossing_violations.tolist() == []
                assert set(leaf_bits(lam)) <= set(leaf_bits(
                    reference.laminations[sign]))

    def test_square_has_the_same_leaves_at_ball_3(self):
        square = laminate(shift_scene(**SQUARE),
                          AxiomParams(horizon=10, ball=3))
        run = laminate(shift_scene(), AxiomParams(horizon=20, ball=3))
        for sign in ("+", "-"):
            lam, other = square.laminations[sign], run.laminations[sign]
            assert len(lam.leaves) == len(other.leaves) == 53
            assert near_every_leaf(lam, other)
            assert near_every_leaf(other, lam)

    @pytest.fixture(scope="class")
    def ball_5_runs(self):
        square = laminate(shift_scene(**SQUARE),
                          AxiomParams(horizon=10, ball=5))
        return square, laminate(shift_scene(),
                                AxiomParams(horizon=20, ball=5))

    def test_square_leaves_are_leaves_at_ball_5(self, ball_5_runs):
        square, run = ball_5_runs
        assert [len(lam.leaves) for lam in square.laminations.values()] == [
            457, 454]
        for sign in ("+", "-"):
            assert near_every_leaf(square.laminations[sign],
                                   run.laminations[sign])

    @pytest.mark.xfail(strict=True, reason=(
        "fast chains are lost: phi^2 at (10, 5) certifies 457 / 454 "
        "leaves, with 28 / 31 chains skipped as fewer than 4 distinct "
        "iterates"))
    def test_square_keeps_every_leaf_at_ball_5(self, ball_5_runs):
        square, _ = ball_5_runs
        assert [len(lam.leaves) for lam in square.laminations.values()] == [
            485, 485]


class TestAxiomParams:
    @pytest.mark.parametrize("fields", [
        {"horizon": -1}, {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan},
        {"angle_tol": 0.0}, {"angle_tol": -1.0}, {"angle_tol": math.nan},
        {"trace_tol": 0.0}, {"trace_tol": -1.0}, {"trace_tol": math.nan},
        {"max_letters": 0}, {"max_letters": -1},
        {"max_words": 0}, {"max_words": -1},
        {"angle_tol": 1e-13}, {"angle_tol": 1e-300},
        {"tol": math.inf}, {"angle_tol": math.inf}, {"trace_tol": math.inf},
        {"ball": -1},
    ])
    def test_out_of_range_rejected(self, fields):
        with pytest.raises(ValidationError):
            AxiomParams(**fields)

    def test_zero_horizon_allowed(self):
        assert AxiomParams(horizon=0).horizon == 0

    def test_negative_ball_named(self):
        # Refused with the params, not only once a ball is enumerated.
        with pytest.raises(ValidationError,
                           match="^ball radius must be nonnegative$"):
            AxiomParams(ball=-3)

    @pytest.mark.parametrize("argv", [
        ["laminate"], ["axioms"], ["render", "--out", "z.svg"]])
    def test_negative_ball_refused_without_junctures(self, argv, tmp_path,
                                                     capsys):
        # No juncture means no ball is built, so the parameters alone
        # can refuse --ball -1.
        raw = schottky_conjugate_data(None)
        raw["junctures"] = []
        scene = tmp_path / "no_junctures.json"
        scene.write_text(json.dumps(raw))
        argv = argv[:1] + [str(scene), "--ball", "-1"] + [
            str(tmp_path / a) if a.endswith(".svg") else a for a in argv[1:]]
        assert run_command(argv) == 1
        assert capsys.readouterr() == (
            "", "error: ball radius must be nonnegative\n")
        assert list(tmp_path.iterdir()) == [scene]

    def test_smallest_budgets_allowed(self):
        params = AxiomParams(max_letters=1, max_words=1)
        assert (params.max_letters, params.max_words) == (1, 1)

    def test_angle_tol_floor_allowed(self):
        assert AxiomParams(angle_tol=ANGLE_TOL_FLOOR).angle_tol == 1e-12

    def test_angle_tol_below_floor_named(self):
        with pytest.raises(ValidationError, match="angle tolerance must be "
                           "at least 1e-12, got 1e-13"):
            AxiomParams(angle_tol=1e-13)

    @pytest.mark.parametrize("tol", [math.pi, 4.0, 1e300])
    def test_angle_tol_of_pi_or_more_named(self, tol):
        # No angular gap exceeds pi: every ideal point would equal every
        # other, and every chain would read as collapsed.
        with pytest.raises(ValidationError, match=re.escape(
                f"angle tolerance must be below pi, got {tol:g}")):
            AxiomParams(angle_tol=tol)

    def test_angle_tol_below_pi_allowed(self):
        tol = math.nextafter(math.pi, 0)
        assert AxiomParams(angle_tol=tol).angle_tol == tol


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
