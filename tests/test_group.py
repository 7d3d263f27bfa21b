import math
import random

import pytest
from hypothesis import given, strategies as st

from endlam.errors import BudgetExceededError, NotHyperbolicError, ValidationError
from endlam.group import (
    FreeAutomorphism,
    FuchsianGroup,
    Word,
    apply_automorphism,
    ball_size,
    enumerate_ball,
    evaluate_word,
    free_reduce,
    limit_set_sample,
    verify_automorphism,
)
from endlam.hyperbolic import (
    HPoint,
    Isometry,
    axis,
    classify_isometry,
    same_ideal_point,
)
from endlam.scene import load_scene, scene_path


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
        assert m.approx_eq(Isometry.identity())

    def test_single_letter(self):
        G = two_generator_group()
        m = evaluate_word(G, Word((1,)))
        assert m.approx_eq(G.generators[0])

    def test_inverse_law(self):
        G = two_generator_group()
        rng = random.Random(3)
        for _ in range(25):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 20))]
            w = Word(tuple(raw))
            m = evaluate_word(G, w * w.inverse())
            assert m.approx_eq(Isometry.identity(), tol=1e-9)

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
            scale = max(1.0, rhs.max_entry())
            assert all(
                abs(x - y) <= 1e-9 * scale
                for x, y in zip(
                    (lhs.a, lhs.b, lhs.c, lhs.d),
                    (rhs.a, rhs.b, rhs.c, rhs.d),
                )
            )


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
        assert len(ball) == 1 and ball[0][0].is_identity()

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
        seen = {w.letters for w, _ in ball}
        assert len(seen) == len(ball)

    def test_budget_error_names_bound(self):
        G = two_generator_group()
        with pytest.raises(BudgetExceededError, match="100"):
            enumerate_ball(G, 12, max_words=100)

    def test_deterministic_order(self):
        G = two_generator_group()
        first = [w.letters for w, _ in enumerate_ball(G, 3)]
        second = [w.letters for w, _ in enumerate_ball(G, 3)]
        assert first == second
        assert first[:5] == [(), (1,), (-1,), (2,), (-2,)]


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
        angles = sorted(p.theta for p in sample.fixed_points)
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
        for _, m in enumerate_ball(group, k):
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
        assert sample.fixed_points == expected

    def test_min_gap_decreases_with_depth(self):
        G = two_generator_group()
        base = HPoint(0, 1)
        gaps = [limit_set_sample(G, base, k).min_boundary_gap()
                for k in range(1, 7)]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
