import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from endlam.errors import BudgetExceededError, NotHyperbolicError, ValidationError
from endlam.group import (
    FreeAutomorphism,
    FuchsianGroup,
    Word,
    _distinct_angles,
    apply_automorphism,
    ball_size,
    enumerate_ball,
    evaluate_word,
    free_reduce,
    limit_set_sample,
    verify_automorphism,
)
from endlam.hyperbolic import (
    TWO_PI,
    HPoint,
    Isometry,
    axis,
    classify_isometry,
    first_distinct,
    same_ideal_point,
)
from endlam.scene import load_scene, parse_scene, scene_path

from conftest import (
    reference_ball,
    reference_limit_set_sample,
    reference_substitute,
    schottky_conjugate_data,
)


def two_generator_group():
    a = Isometry.from_matrix([[4, 0], [0, 0.25]])
    b = Isometry.from_matrix([[2, 1], [1, 1]])
    return FuchsianGroup(("a", "b"), (a, b))


def shift_automorphism():
    # a -> a b, b -> b;  inverse  a -> a b^-1, b -> b
    return FreeAutomorphism(
        forward=(Word((1, 2)), Word((2,))),
        inverse=(Word((1, -2)), Word((2,))),
    )


def entries_close(m1, m2, tol=1e-9):
    """Every entry of m1 within tol of the same entry of m2."""
    return all(abs(x - y) <= tol for x, y in zip(
        (m1.a, m1.b, m1.c, m1.d), (m2.a, m2.b, m2.c, m2.d)))


letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)


class TestFreeReduce:
    def test_cancellation(self):
        assert free_reduce([1, -1, 2]).letters == (2,)

    def test_empty(self):
        assert free_reduce([]).letters == ()

    def test_inner_cancellation(self):
        assert free_reduce([1, 2, -2, 1]).letters == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            Word((0,))

    @given(st.lists(letters, max_size=40))
    def test_idempotent_and_nonincreasing(self, raw):
        once = free_reduce(raw)
        assert len(once) <= len(raw)
        assert free_reduce(once.letters).letters == once.letters

    @given(st.lists(letters, max_size=20))
    def test_word_times_inverse_is_identity(self, raw):
        w = Word(tuple(raw))
        assert (w * w.inverse()).is_identity()


class TestParseFormat:
    def test_parse(self):
        w = Word.parse("a b^-1 a", ("a", "b"))
        assert w.letters == (1, -2, 1)

    def test_roundtrip(self):
        w = Word((1, -2, 2, 1))  # reduces to (1, 1)
        assert w.format(("a", "b")) == "a a"

    def test_unknown_generator(self):
        with pytest.raises(ValidationError):
            Word.parse("a c", ("a", "b"))


class TestGroup:
    def test_generators_must_be_hyperbolic(self):
        rot = Isometry.from_matrix([[0, 1], [-1, 0]])
        with pytest.raises(NotHyperbolicError, match="generator b"):
            FuchsianGroup(("a", "b"),
                          (Isometry.from_matrix([[2, 0], [0, 0.5]]), rot))

    def test_empty_word_evaluates_to_identity(self):
        G = two_generator_group()
        m = evaluate_word(G, Word.identity())
        assert entries_close(m, Isometry.identity())

    def test_single_letter(self):
        G = two_generator_group()
        m = evaluate_word(G, Word((1,)))
        assert entries_close(m, G.generators[0])

    def test_inverse_law(self):
        G = two_generator_group()
        rng = random.Random(3)
        for _ in range(25):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 20))]
            w = Word(tuple(raw))
            m = evaluate_word(G, w * w.inverse())
            assert entries_close(m, Isometry.identity(), tol=1e-9)

    def test_homomorphism(self):
        G = two_generator_group()
        rng = random.Random(5)
        for _ in range(25):
            u = Word(tuple(rng.choice([1, -1, 2, -2])
                           for _ in range(rng.randint(0, 12))))
            v = Word(tuple(rng.choice([1, -1, 2, -2])
                           for _ in range(rng.randint(0, 12))))
            lhs = evaluate_word(G, u * v)
            rhs = evaluate_word(G, u).compose(evaluate_word(G, v))
            scale = max(1.0, abs(rhs.a), abs(rhs.b), abs(rhs.c), abs(rhs.d))
            assert all(
                abs(x - y) <= 1e-9 * scale
                for x, y in zip(
                    (lhs.a, lhs.b, lhs.c, lhs.d),
                    (rhs.a, rhs.b, rhs.c, rhs.d),
                )
            )


@st.composite
def substitutions(draw):
    """Forward and inverse rules of rank 1 to 3, arbitrary reduced words
    (not always an automorphism), a word of up to 12 letters, a step count
    and a letter budget: None for the default, or small enough to trip."""
    rank = draw(st.integers(1, 3))
    letters = st.lists(st.integers(-rank, rank).filter(bool), max_size=12)
    rules = st.lists(letters.map(lambda xs: Word(tuple(xs[:4]))),
                     min_size=rank, max_size=rank).map(tuple)
    return (draw(rules), draw(rules), Word(tuple(draw(letters))),
            draw(st.integers(-4, 4)),
            draw(st.one_of(st.none(), st.integers(0, 40))))


def outcome(call):
    """The letters ``call`` returns, or the type and text of what it
    raises."""
    try:
        return call().letters
    except BudgetExceededError as exc:
        return type(exc), str(exc)


class TestReducedWord:
    @given(st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=16),
           st.data())
    def test_equals_and_hashes_as_a_reduced_word(self, raw, data):
        w = Word(tuple(raw))
        assert Word._reduced(w.letters) == w
        assert hash(Word._reduced(w.letters)) == hash(w)
        i = data.draw(st.integers(0, len(w)))
        j = data.draw(st.integers(i, len(w)))
        part = Word._reduced(w.letters[i:j])
        assert part == Word(w.letters[i:j])
        assert hash(part) == hash(Word(w.letters[i:j]))

    @given(st.lists(st.sampled_from((1, -1, 2, -2)), max_size=16))
    def test_cyclic_decomposition(self, raw):
        w = Word(tuple(raw))
        g, core = w.cyclic_decomposition()
        assert g == Word(g.letters) and core == Word(core.letters)
        assert g * core * g.inverse() == w
        assert w.inverse() == Word(tuple(-x for x in reversed(w.letters)))


class TestAutomorphism:
    def test_single_substitution(self):
        phi = shift_automorphism()
        assert apply_automorphism(phi, Word((1,)), 1).letters == (1, 2)

    def test_third_power(self):
        # By hand: a -> ab -> ab b -> ab b b.
        phi = shift_automorphism()
        assert apply_automorphism(phi, Word((1,)), 3).letters == (1, 2, 2, 2)

    def test_zero_power(self):
        phi = shift_automorphism()
        w = Word((2, 1, -2))
        assert apply_automorphism(phi, w, 0).letters == w.letters

    def test_negative_power(self):
        phi = shift_automorphism()
        assert apply_automorphism(phi, Word((1,)), -2).letters == (1, -2, -2)

    def test_power_additivity(self):
        phi = shift_automorphism()
        rng = random.Random(9)
        for _ in range(20):
            w = Word(tuple(rng.choice([1, -1, 2, -2])
                           for _ in range(rng.randint(1, 6))))
            m, n = rng.randint(-4, 4), rng.randint(-4, 4)
            stepped = apply_automorphism(phi, apply_automorphism(phi, w, m), n)
            direct = apply_automorphism(phi, w, m + n)
            assert stepped.letters == direct.letters

    def test_budget(self):
        # a -> a a doubles the length each pass.
        phi = FreeAutomorphism(forward=(Word((1, 1)),), inverse=(Word((1,)),))
        with pytest.raises(BudgetExceededError):
            apply_automorphism(phi, Word((1,)), 40, max_letters=10 ** 4)

    @settings(max_examples=300)
    @given(substitutions())
    # a -> a b, b -> b^-1 a^-1 b: the image of b cancels two letters, all
    # of a's image, and a b goes to b.
    @example(((Word((1, 2)), Word((-2, -1, 2))), (Word((1,)), Word((2,))),
              Word((1, 2)), 1, None))
    # a -> a b, b -> b^-1 a a: a b goes to a a a, past a budget of 2 that
    # a's image meets and b's passes by one letter after a cancellation.
    @example(((Word((1, 2)), Word((-2, 1, 1))), (Word((1,)), Word((2,))),
              Word((1, 2)), 1, 2))
    def test_matches_the_per_letter_loop(self, case):
        forward, inverse, word, n, budget = case
        phi = FreeAutomorphism(forward, inverse)
        kwargs = {} if budget is None else {"max_letters": budget}
        assert outcome(lambda: apply_automorphism(phi, word, n, **kwargs)) \
            == outcome(lambda: reference_substitute(phi, word, n, **kwargs))

    def test_verify_ok(self):
        assert verify_automorphism(shift_automorphism()).ok

    def test_verify_identity(self):
        assert verify_automorphism(FreeAutomorphism.identity(3)).ok

    def test_verify_catches_wrong_inverse(self):
        phi = FreeAutomorphism(
            forward=(Word((1, 2)), Word((2,))),
            inverse=(Word((1,)), Word((2,))),  # wrong at generator a
        )
        report = verify_automorphism(phi)
        assert not report.ok
        assert any(gen == 1 for _, gen, _ in report.failures)


class TestEnumerateBall:
    def test_radius_zero(self):
        G = two_generator_group()
        ball = enumerate_ball(G, 0)
        assert len(ball) == 1 and ball.words([0])[0].is_identity()
        assert (ball.parent.tolist(), ball.letter.tolist(),
                ball.g.tolist()) == ([-1], [0], [[1.0, 0.0, 0.0, 1.0]])

    def test_radius_one(self):
        G = two_generator_group()
        assert len(enumerate_ball(G, 1)) == 5

    def test_radius_two(self):
        G = two_generator_group()
        assert len(enumerate_ball(G, 2)) == 17

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_counts_match_closed_form(self, k):
        G = two_generator_group()
        assert len(enumerate_ball(G, k)) == ball_size(2, k)

    def test_all_words_reduced_and_distinct(self):
        G = two_generator_group()
        ball = enumerate_ball(G, 3)
        words = ball.words(range(len(ball)))
        seen = {w.letters for w in words}
        assert len(seen) == len(ball)
        assert all(Word(w.letters) == w for w in words)

    def test_budget_error_names_bound(self):
        G = two_generator_group()
        with pytest.raises(BudgetExceededError, match="100"):
            enumerate_ball(G, 12, max_words=100)

    def test_deterministic_order(self):
        G = two_generator_group()
        first, second = ([w.letters for w in ball.words(range(len(ball)))]
                         for ball in (enumerate_ball(G, 3),
                                      enumerate_ball(G, 3)))
        assert first == second
        assert first[:5] == [(), (1,), (-1,), (2,), (-2,)]

    def test_larger_ball_extends_smaller(self):
        # Row i is one word in every ball of the group that holds it, so
        # families over different radii share their conjugator rows.
        G = two_generator_group()
        small, large = enumerate_ball(G, 2), enumerate_ball(G, 4)
        assert small.words(range(len(small))) == large.words(
            range(len(small)))
        assert large.spellings(G.names, len(small)) == small.spellings(
            G.names, len(small))

    @pytest.mark.parametrize("rank, k, size", [
        (1, 0, 1), (1, 7, 15), (2, 3, 53), (3, 4, 1 + 6 * (5 ** 4 - 1) // 4),
        (2, 200, 1 + 2 * (3 ** 200 - 1))])
    def test_closed_form_is_the_sum(self, rank, k, size):
        assert ball_size(rank, k) == size == 1 + sum(
            2 * rank * (2 * rank - 1) ** (n - 1) for n in range(1, k + 1))

    @pytest.mark.parametrize("k, max_words, size", [
        (3, 53, None), (3, 52, "53"), (12, 100, "1062881"),
        (20, 10 ** 6, "6973568801"), (20000, 10 ** 6, "more than 1000000"),
        (10 ** 6, 10 ** 6, "more than 1000000"),
        (10 ** 12, 2, "more than 2")])
    def test_budget_at_any_radius(self, k, max_words, size):
        # The size is printed whole while the interpreter converts it to
        # text; past that, the radius alone decides.
        G = two_generator_group()
        if size is None:
            enumerate_ball(G, k, max_words=max_words)
            return
        with pytest.raises(BudgetExceededError) as err:
            enumerate_ball(G, k, max_words=max_words)
        assert str(err.value) == (
            f"ball of radius {k} holds {size} words, over the budget of "
            f"{max_words}")


class TestLimitSetSample:
    def test_depth_zero_orbit_is_base(self):
        G = two_generator_group()
        sample = limit_set_sample(G, HPoint(0, 1), 0)
        assert len(sample.orbit) == 1
        x, y = sample.orbit[0]
        assert math.hypot(x, y) < 1e-12

    def test_rotated_schottky_pair_fixed_points(self):
        # Conjugating the dilation by a quarter turn about i moves its
        # axis endpoints {0, inf} to {1, -1}; all four show up at k = 1.
        c = math.sqrt(0.5)
        a = Isometry.from_matrix([[2, 0], [0, 0.5]])
        r = Isometry.from_matrix([[c, c], [-c, c]])
        b = r.compose(a).compose(r.inverse())
        G = FuchsianGroup(("a", "b"), (a, b))
        sample = limit_set_sample(G, HPoint(0, 1), 1)
        angles = sorted(sample.fixed_point_angles)
        expected = sorted([
            math.atan2(-2 * t, t * t - 1) % (2 * math.pi) if t is not None
            else 0.0
            for t in (0.0, None, 1.0, -1.0)  # None stands for infinity
        ])
        assert len(angles) == 4
        for got, want in zip(angles, expected):
            assert abs(got - want) < 1e-9

    @staticmethod
    def _fixed_points_by_scan(group, k, angle_tol):
        """The pairwise scan limit_set_sample once ran, as the reference."""
        fixed = []
        for _, m in reference_ball(group, k):
            if classify_isometry(m) == "hyperbolic":
                g = axis(m)
                for p in (g.a, g.b):
                    if not any(same_ideal_point(p, q, angle_tol)
                               for q in fixed):
                        fixed.append(p)
        return fixed

    @pytest.mark.parametrize("angle_tol", [1e-9, 1e-3, 1e-1])
    @pytest.mark.parametrize("turn", [0.0, 0.3])
    def test_fixed_points_match_pairwise_scan(self, angle_tol, turn):
        # The shipped pair has the point at infinity (angle 0) as a fixed
        # point, so fixed points straddle the 0/2*pi seam; a rotated
        # conjugate moves the seam elsewhere in the limit set.
        group = load_scene(scene_path("schottky_ab.json")).group
        if turn:
            r = Isometry.from_matrix([[math.cos(turn), math.sin(turn)],
                                      [-math.sin(turn), math.cos(turn)]])
            group = FuchsianGroup(group.names, [
                r.compose(m).compose(r.inverse())
                for m in group.generators])
        sample = limit_set_sample(group, HPoint(0, 1), 5,
                                  angle_tol=angle_tol)
        expected = self._fixed_points_by_scan(group, 5, angle_tol)
        assert sample.fixed_point_angles.tolist() == [
            p.theta for p in expected]

    def test_min_gap_decreases_with_depth(self):
        G = two_generator_group()
        base = HPoint(0, 1)
        gaps = [limit_set_sample(G, base, k).min_boundary_gap()
                for k in range(1, 7)]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


@st.composite
def _angle_lists(draw):
    """Angles in [0, 2*pi] drawn around a few centres, 0 and 2*pi - ulp
    among them, on either side of the seam: exact repeats, angles a few
    ulps apart and angles up to 1e-3 apart; long enough at times to take
    first_distinct's grid."""
    top = math.nextafter(TWO_PI, 0.0)
    centres = draw(st.lists(st.one_of(
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.sampled_from([0.0, top])), min_size=1, max_size=6))
    n = draw(st.integers(0, 150))
    which = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 5)))
    ulps = draw(hnp.arrays(np.int64, n, elements=st.integers(-4, 4)))
    offsets = draw(hnp.arrays(float, n, elements=st.sampled_from(
        [0.0, 0.0, 0.0, 1e-12, -1e-9, 1e-6, -1e-4, 1e-3])))
    angles = []
    for i, k, d in zip(which.tolist(), ulps.tolist(), offsets.tolist()):
        t = centres[i % len(centres)] + d
        angles.append(min(max(t + k * math.ulp(t), 0.0), top))
    return angles


class TestDistinctAngles:
    """Exact repeats leave before first_distinct, which keeps the mask of
    every other row: the kept angles are first_distinct's over all rows."""

    @settings(max_examples=300, deadline=None)
    @given(angles=_angle_lists(),
           tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 1e-1]))
    @example(angles=[1.0, 1.0 + 2e-3, 1.0 + 1e-3, 1.0, 1.0 + 2e-3],
             tol=1.5e-3)
    @example(angles=[0.0, 6.283185307179585, 0.0, 3.0, 3.0], tol=1e-12)
    def test_kept_angles_of_first_distinct_over_every_row(self, angles,
                                                          tol):
        ends = np.array(angles, dtype=float)
        got = _distinct_angles(ends, tol)
        want = ends[first_distinct(ends, ends, tol)]
        assert [t.hex() for t in got.tolist()] == [
            t.hex() for t in want.tolist()]

    def test_word_and_inverse_share_an_axis(self):
        # On schottky_ab at depth 6, 2,912 axis endpoints hold 1,344 bit
        # patterns, of which 1,324 are told apart.
        group = load_scene(scene_path("schottky_ab.json")).group
        sample = limit_set_sample(group, HPoint(0.3, 1.1), 6)
        ref = reference_limit_set_sample(group, HPoint(0.3, 1.1), 6)
        assert len(sample.fixed_point_angles) == 1324
        assert sample.fixed_point_angles.tobytes() == \
            ref.fixed_point_angles.tobytes()


def shipped_and_conjugate_groups():
    """(id, group) of the three shipped scenes and of four schottky_ab
    conjugates drawn as the benchmark draws them (K(theta) A(t) N(x), the
    seeds' theta, t and x uniform as there)."""
    out = [(name, load_scene(scene_path(f"{name}.json")).group)
           for name in ("schottky_ab", "golden", "inner_b")]
    for seed in range(4):
        rng = random.Random(seed)
        conjugator = (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0),
                      rng.uniform(-1.0, 1.0))
        out.append((f"conj-{seed}", parse_scene(json.dumps(
            schottky_conjugate_data(conjugator))).group))
    return out


GROUPS = shipped_and_conjugate_groups()


def sample_bits(func):
    """Every float of a limit-set sample as its bits (so -0.0 and 0.0
    differ), or the type and message of the error the call raised."""
    try:
        sample = func()
    except Exception as exc:
        return type(exc), str(exc)
    return ([(x.hex(), y.hex()) for x, y in sample.orbit.tolist()],
            [t.hex() for t in sample.fixed_point_angles.tolist()],
            sample.words,
            sample.min_boundary_gap().hex())


def both_samples(group, base, k, **kwargs):
    """Bits of limit_set_sample and of the per-word reference loop."""
    return (sample_bits(lambda: limit_set_sample(group, base, k, **kwargs)),
            sample_bits(lambda: reference_limit_set_sample(group, base, k,
                                                           **kwargs)))


class TestLimitSetArrays:
    """The array ball, orbit and axes of ``limit_set_sample`` against the
    per-word loop (``conftest.reference_limit_set_sample``), bit for bit,
    errors included."""

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("name, group", GROUPS, ids=[g[0] for g in GROUPS])
    def test_ball_products_match_chained_compose(self, name, group, k):
        ball = enumerate_ball(group, k)
        ref = reference_ball(group, k)
        assert [x.hex() for x in ball.g.ravel().tolist()] == [
            x.hex() for _, m in ref for x in (m.a, m.b, m.c, m.d)]
        assert ball.words(range(len(ball))) == [w for w, _ in ref]
        assert ball.spellings(group.names, len(ball)) == [
            w.format(group.names) for w, _ in ref]

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("name, group", GROUPS, ids=[g[0] for g in GROUPS])
    def test_samples_match_reference(self, name, group, k):
        rng = random.Random(k)
        bases = [HPoint(-0.0 if k % 2 else 0.0, 1.0),
                 HPoint(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 3.0))]
        for base in bases:
            for angle_tol in (1e-12, 1e-9, 1e-3, 1e-1):
                got, ref = both_samples(group, base, k, angle_tol=angle_tol)
                assert isinstance(ref, tuple) and len(ref) == 4
                assert got == ref

    @pytest.mark.parametrize("base", [
        (1e308, 1.0), (-1e308, 1.0), (0.0, 1e300), (1e300, 1e300),
        (0.0, 2e-12), (0.0, 1e-11), (5.0, 1e-9), (-1e8, 1e-8)])
    @pytest.mark.parametrize("name, group", GROUPS[:4],
                             ids=[g[0] for g in GROUPS[:4]])
    def test_breakdowns_match_reference(self, name, group, base):
        for k in (0, 1, 3, 6):
            got, ref = both_samples(group, HPoint(*base), k)
            assert got == ref

    def test_depth_and_budget_errors_match(self):
        # The radius-3 ball holds 53 words.
        for k, max_words in ((-1, 10), (12, 100), (3, 52), (3, 53)):
            got, ref = both_samples(GROUPS[0][1], HPoint(0.0, 1.0), k,
                                    max_words=max_words)
            assert got == ref

    # Hyperbolic generators: schottky_ab's pair, one whose fixed points 0
    # and 1e-10 give an axis with coinciding endpoints, dilations whose
    # powers throw orbits onto the boundary, and one of trace 2 + 2.5e-9,
    # hyperbolic or parabolic as the trace tolerance says.
    GENERATORS = [[[4.0, 0.0], [0.0, 0.25]], [[2.0, 1.0], [1.0, 1.0]],
                  [[0.5, 0.0], [-1.5e10, 2.0]], [[1e3, 0.0], [0.0, 1e-3]],
                  [[1e6, 1.0], [0.0, 1e-6]], [[1.0 + 5e-5, 1.0],
                                              [0.0, 1.0 / (1.0 + 5e-5)]]]

    def test_groups_whose_axes_or_orbits_break(self):
        # Every one- and two-generator group of the list, at bases that
        # its orbits do or do not throw onto the boundary first.
        seen = set()
        cases = [[m] for m in self.GENERATORS] + [
            [m1, m2] for m1 in self.GENERATORS for m2 in self.GENERATORS]
        for n, gens in enumerate(cases):
            group = FuchsianGroup("ab"[:len(gens)],
                                  [Isometry.from_matrix(m) for m in gens])
            for base in ((0.0, 1.0), (0.3, 1.2), (0.0, 1e-10), (0.0, 2e-12),
                         (1e8, 1e-8), (-1e308, 1.0)):
                trace_tol = (1e-12, 1e-9, 1e-3)[n % 3]
                got, ref = both_samples(group, HPoint(*base), 3,
                                        trace_tol=trace_tol)
                assert got == ref
                seen.add(ref[1].split(" of ")[0] if len(ref) == 2 else "ok")
        assert seen == {"ok", "image", "geodesic endpoints coincide"}
