import itertools
import math
import random
from decimal import Decimal, getcontext

import numpy as np
import pytest

from endlam import markov
from endlam.errors import ConvergenceError, ValidationError
from endlam.markov import (
    CrossingTable,
    PerronData,
    admissible_words,
    build_matrix_A,
    build_matrix_B,
    coding_consistency,
    count_admissible,
    entropy,
    invariant_measures,
    is_admissible,
    perron,
    shift,
    verify_markov,
)

GOLDEN = np.array([[1, 1], [1, 0]])
PHI = (1 + math.sqrt(5)) / 2  # root of x^2 - x - 1, the kappa oracle


def golden_table():
    return CrossingTable.from_triples(
        ["R1", "R2"], [[1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 2, 0]]
    )


def brute_force_count(A, m):
    """Independent oracle: test all n^m sequences against A."""
    n = len(A)
    total = 0
    for seq in itertools.product(range(1, n + 1), repeat=m):
        if all(A[i - 1][j - 1] for i, j in zip(seq, seq[1:])):
            total += 1
    return total


def decimal_perron(M, iterations=2000):
    """50-digit power-iteration rerun used as the eigenvalue oracle."""
    getcontext().prec = 50
    n = len(M)
    rows = [[Decimal(int(x)) for x in row] for row in M]
    v = [Decimal(1) / Decimal(n)] * n
    kappa = Decimal(0)
    for _ in range(iterations):
        z = [sum(rows[i][j] * v[j] for j in range(n)) + v[i]
             for i in range(n)]
        s = sum(z)
        v = [x / s for x in z]
        kappa = sum(sum(rows[i][j] * v[j] for j in range(n))
                    for i in range(n))
    return float(kappa)


def strongly_connected(M):
    """Reachability oracle: every state reaches every other."""
    n = len(M)
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if M[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            return False
    return True


class TestVerify:
    def test_golden_pattern_ok(self):
        assert verify_markov(golden_table()).ok

    def test_multiplicity_violation(self):
        table = CrossingTable.from_triples(
            ["R1", "R2"], [[1, 1, 2], [1, 2, 1], [2, 1, 1]]
        )
        check = verify_markov(table)
        assert not check.ok
        assert check.violations == [(1, 1, 2)]

    def test_empty_family_vacuous(self):
        check = verify_markov(CrossingTable((), np.zeros((0, 0), int)))
        assert check.ok

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            CrossingTable.from_triples(["R1"], [[1, 1, -1]])

    def test_repeated_pair_rejected(self):
        with pytest.raises(ValidationError, match=r"row 2 repeats the pair "
                           r"\(1, 2\) of row 0"):
            CrossingTable.from_triples(
                ["R1", "R2"], [[1, 2, 1], [2, 1, 1], [1, 2, 0]])


class TestBuildMatrices:
    def test_golden_A(self):
        assert build_matrix_A(golden_table()).tolist() == [[1, 1], [1, 0]]

    def test_zero_table(self):
        table = CrossingTable(["R1", "R2"], np.zeros((2, 2), int))
        assert build_matrix_A(table).tolist() == [[0, 0], [0, 0]]

    def test_full_table(self):
        table = CrossingTable(["1", "2", "3"], np.ones((3, 3), int))
        assert build_matrix_A(table).tolist() == [[1] * 3] * 3

    def test_refuses_unverified(self):
        table = CrossingTable.from_triples(["R1"], [[1, 1, 3]])
        with pytest.raises(ValidationError, match="not Markov"):
            build_matrix_A(table)

    def test_B_transcription(self):
        table = CrossingTable.from_triples(
            ["Q1", "Q2"], [[1, 1, 2], [1, 2, 1], [2, 1, 1], [2, 2, 0]]
        )
        assert build_matrix_B(table).tolist() == [[2, 1], [1, 0]]

    def test_B_equals_A_for_verified(self):
        table = golden_table()
        assert (build_matrix_B(table) == build_matrix_A(table)).all()


class TestAdmissibleWords:
    def test_golden_length_three(self):
        result = admissible_words(GOLDEN, 3)
        assert result.count == 5
        assert sorted(result.words) == [
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)
        ]

    def test_length_one(self):
        assert admissible_words(GOLDEN, 1).count == 2

    def test_identity_matrix_constant_words(self):
        assert admissible_words(np.eye(2, dtype=int), 4).count == 2

    def test_counts_match_brute_force(self):
        for m in range(1, 11):
            assert count_admissible(GOLDEN, m) == brute_force_count(
                GOLDEN.tolist(), m
            )

    def test_counts_match_matrix_power_exactly(self):
        rng = np.random.default_rng(12)
        seeded = rng.integers(0, 2, size=(12, 12))
        cases = [(GOLDEN, range(2, 15)), (seeded, (2, 3, 7, 16, 30))]
        for A, lengths in cases:
            for m in lengths:
                power = np.linalg.matrix_power(A.astype(object), m - 1)
                assert count_admissible(A, m) == int(power.sum())

    def test_budget_returns_count_only(self):
        result = admissible_words(np.ones((3, 3), int), 8, max_list=10)
        assert result.words is None
        assert result.count == 3 ** 8

    def test_random_matrices_match_brute_force(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(1, 3)
            A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            for m in range(1, 6):
                assert count_admissible(np.array(A), m) == brute_force_count(A, m)


class TestShift:
    def test_basic(self):
        assert shift((1, 2, 1)) == (2, 1)

    def test_iterated(self):
        w = (1, 2, 1, 1, 2)
        for _ in range(4):
            w = shift(w)
        assert len(w) == 1

    def test_too_short(self):
        with pytest.raises(ValidationError):
            shift((1,))

    def test_preserves_admissibility(self):
        words = admissible_words(GOLDEN, 5).words
        for w in words:
            assert is_admissible(GOLDEN, shift(w))


class TestPerron:
    def test_golden_mean(self):
        data = perron(GOLDEN)
        assert data.converged
        assert abs(data.kappa - PHI) < 1e-12
        # eigenvector proportional to (phi, 1)
        assert abs(data.vector[0] / data.vector[1] - PHI) < 1e-9

    def test_identity(self):
        data = perron(np.eye(3, dtype=int))
        assert abs(data.kappa - 1) < 1e-12
        assert np.allclose(data.vector, 1 / 3)

    def test_reducible_keeps_zero_entries(self):
        data = perron(np.array([[2, 0], [0, 1]]))
        assert abs(data.kappa - 2) < 1e-10
        assert data.vector[0] > 0.99
        assert data.vector[1] < 1e-9

    def test_periodic_pattern_converges(self):
        data = perron(np.array([[0, 2], [1, 0]]))
        assert data.converged
        assert abs(data.kappa - math.sqrt(2)) < 1e-10

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            perron(np.zeros((2, 2), int))

    def test_against_fifty_digit_oracle(self):
        rng = random.Random(43)
        for _ in range(5):
            M = [[rng.randint(0, 4) for _ in range(4)] for _ in range(4)]
            if not any(any(row) for row in M):
                continue
            got = perron(np.array(M)).kappa
            want = decimal_perron(M)
            assert abs(got - want) < 1e-10

    def test_monotone_in_entries(self):
        rng = random.Random(47)
        for _ in range(20):
            M = [[rng.randint(0, 4) for _ in range(4)] for _ in range(4)]
            if not any(any(row) for row in M):
                continue
            k0 = perron(np.array(M)).kappa
            i, j = rng.randrange(4), rng.randrange(4)
            M[i][j] += rng.randint(1, 3)
            k1 = perron(np.array(M)).kappa
            assert k1 >= k0 - 1e-9


class TestEntropy:
    def test_golden(self):
        assert abs(entropy(GOLDEN) - math.log(PHI)) < 1e-12

    def test_permutation_zero(self):
        P = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert abs(entropy(P)) < 1e-12

    def test_block_diagonal_max(self):
        M = np.zeros((4, 4), dtype=int)
        M[:2, :2] = GOLDEN
        M[2:, 2:] = np.eye(2, dtype=int)
        assert abs(entropy(M) - math.log(PHI)) < 1e-9

    def test_power_scaling(self):
        # Counting k-step transitions multiplies the growth rate by k.
        base = entropy(GOLDEN)
        Ak = np.eye(2, dtype=int)
        for k in range(1, 5):
            Ak = Ak @ GOLDEN
            assert abs(entropy(Ak) - k * base) < 1e-6


    def test_method_matches_function(self):
        assert perron(GOLDEN).entropy() == entropy(GOLDEN)

    @pytest.mark.parametrize("converged, kappa, message", [
        (False, 1.5, "power iteration stalled at residual 3.000e-04"),
        (True, 0.0, "dominant eigenvalue collapsed to zero"),
        (True, -1e-3, "dominant eigenvalue collapsed to zero"),
    ])
    def test_breakdown_raises(self, converged, kappa, message):
        data = PerronData(kappa=kappa, vector=np.array([0.5, 0.5]),
                          residual=3e-4, converged=converged, iterations=7)
        with pytest.raises(ConvergenceError) as info:
            data.entropy()
        assert str(info.value) == message


class TestInvariantMeasures:
    def test_symmetric_matrix_equal_measures(self):
        B = np.array([[1, 2], [2, 1]])
        result = invariant_measures(B)
        assert np.allclose(result.mu_plus, result.mu_minus, atol=1e-10)

    def test_golden_measures(self):
        result = invariant_measures(GOLDEN)
        assert abs(result.kappa_plus - PHI) < 1e-10
        assert abs(result.kappa_minus - PHI) < 1e-10
        assert abs(result.mu_plus[0] / result.mu_plus[1] - PHI) < 1e-8
        assert abs(result.mu_minus[0] / result.mu_minus[1] - PHI) < 1e-8

    def test_reducible_flagged(self):
        result = invariant_measures(np.array([[2, 0], [0, 1]]))
        assert not result.full_support_plus
        assert abs(result.kappa - 2) < 1e-9

    def test_residuals_small_for_desk_sizes(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(2, 8)
            B = np.array([[rng.randint(0, 10) for _ in range(n)]
                          for _ in range(n)])
            if not B.any():
                continue
            result = invariant_measures(B)
            assert result.residual_plus <= 1e-9
            assert result.residual_minus <= 1e-9
            assert abs(result.kappa_plus - result.kappa_minus) <= 1e-9

    def test_zero_vector_entries_imply_reducible(self):
        # Support detection only; defective sparse draws converge slowly,
        # so the iteration budget is capped and residuals are not asserted.
        rng = random.Random(59)
        checked = 0
        for _ in range(50):
            n = rng.randint(2, 6)
            B = np.array([[rng.randint(0, 3) if rng.random() < 0.5 else 0
                           for _ in range(n)] for _ in range(n)])
            if not B.any():
                continue
            result = invariant_measures(B, maxiter=3000)
            if not result.full_support_plus:
                checked += 1
                assert not strongly_connected(B.tolist())
        assert checked > 0


class TestCoding:
    def test_golden_depth_five(self):
        # Brute force gives 13 admissible depth-5 words (Fibonacci growth).
        report = coding_consistency(GOLDEN, 5)
        assert report.count_matrix == 13
        assert report.count_enumerated == 13
        assert report.counts_match
        assert report.ok
        assert brute_force_count(GOLDEN.tolist(), 5) == 13

    def test_zero_row_flagged(self):
        A = np.array([[1, 1], [0, 0]])
        report = coding_consistency(A, 3)
        assert report.dead_end_symbols == [2]
        assert report.blocked_words == [(1, 1, 2)]
        assert not report.ok

    def test_permutation_any_depth(self):
        P = np.array([[0, 1], [1, 0]])
        for depth in (2, 4, 7):
            report = coding_consistency(P, depth)
            assert report.count_matrix == 2
            assert report.ok
            assert not report.dead_end_symbols

    def test_depth_validation(self):
        with pytest.raises(ValidationError):
            coding_consistency(GOLDEN, 1)

    def test_given_listing_is_not_enumerated_again(self, monkeypatch):
        expected = coding_consistency(GOLDEN, 5)
        listing = admissible_words(GOLDEN, 5)

        def enumerate_again(*args, **kwargs):
            raise AssertionError("listing enumerated twice")

        monkeypatch.setattr(markov, "admissible_words", enumerate_again)
        assert coding_consistency(GOLDEN, 5, listing=listing) == expected
