import itertools
import math
import random
import time
import tracemalloc
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from endlam import cli, markov
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
    perron,
    verify_markov,
)

from conftest import (
    frac_matrix,
    reference_admissible_words,
    reference_power_iteration,
    reference_violations,
    reference_word_lines,
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


def word_rows(words):
    """The rows of a word listing as tuples of ints."""
    return list(map(tuple, words.tolist()))


def layered_table():
    """50 symbols: 8 layers of 6, each symbol followed by every symbol of
    the next layer, the last layer by nothing; symbols 49 and 50 follow
    themselves."""
    A = np.zeros((50, 50), dtype=np.int64)
    for layer in range(7):
        A[6 * layer:6 * layer + 6, 6 * layer + 6:6 * layer + 12] = 1
    A[48, 48] = A[49, 49] = 1
    return A


def decimal_perron(M, iterations=2000):
    """50-digit power-iteration rerun used as the eigenvalue oracle; it
    stops early once the vector holds still to 40 digits."""
    getcontext().prec = 50
    n = len(M)
    rows = [[Decimal(int(x)) for x in row] for row in M]
    v = [Decimal(1) / Decimal(n)] * n
    kappa = Decimal(0)
    for _ in range(iterations):
        z = [sum(rows[i][j] * v[j] for j in range(n)) + v[i]
             for i in range(n)]
        s = sum(z)
        previous, v = v, [x / s for x in z]
        kappa = sum(sum(rows[i][j] * v[j] for j in range(n))
                    for i in range(n))
        if max(abs(x - y) for x, y in zip(v, previous)) <= Decimal(10) ** -40:
            break
    return float(kappa)


def reachable(M, start):
    """States a path of M's graph leads to from ``start``, itself too."""
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for j in range(len(M)):
            if M[i][j] and j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def strongly_connected(M):
    """Reachability oracle: every state reaches every other."""
    return all(len(reachable(M, start)) == len(M) for start in range(len(M)))


def class_oracle(M):
    """(rho, Perron index, support) of M from its classes, by reachability
    and 50-digit arithmetic: each class's radius is ``decimal_perron`` of
    its block, the basic classes are those of radius rho, the index is the
    most basic classes one path passes, and the support is every state
    that reaches a basic class no other basic class reaches."""
    n = len(M)
    reach = [reachable(M, i) for i in range(n)]
    classes = []
    for i in range(n):
        if not any(i in c for c in classes):
            classes.append([j for j in sorted(reach[i]) if i in reach[j]])
    radius = [decimal_perron([[M[i][j] for j in c] for i in c])
              for c in classes]
    rho = max(radius)
    basic = [c for c, r in zip(classes, radius)
             if abs(r - rho) <= 1e-12 * max(1.0, rho)]

    def below(c):  # the basic classes c reaches, itself excluded
        return [d for d in basic if d is not c and d[0] in reach[c[0]]]

    def chain(c):
        return 1 + max((chain(d) for d in below(c)), default=0)

    top = [c for c in basic if not any(c in below(d) for d in basic)]
    support = [any(c[0] in reach[i] for c in top) for i in range(n)]
    return rho, max(chain(c) for c in basic), support


def seeded_draws(count=80, seed=61):
    """Count tables, n uniform in 2..8, drawn like acceptance criterion 4
    but at densities 0.3, 0.5 and 0.7, so that defective roots come up
    often; each with its 0/1 pattern and both transposes."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        n = rng.randint(2, 8)
        density = rng.choice((0.3, 0.5, 0.7))
        table = [[rng.randint(0, 10) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(n)]
        if not any(any(row) for row in table):
            table[0][0] = 1
        pattern = [[1 if x else 0 for x in row] for row in table]
        for M in (table, pattern):
            draws += [M, [list(col) for col in zip(*M)]]
    return [(M, class_oracle(M)) for M in draws]


@pytest.fixture(scope="module")
def draws():
    return seeded_draws()


def assert_exact_eigenpair(M, data):
    """M v = kappa v in exact rational arithmetic on the float values."""
    v = [Fraction(x) for x in data.vector]
    kappa = Fraction(data.kappa)
    assert [sum(a * b for a, b in zip(row, v))
            for row in frac_matrix(M)] == [kappa * x for x in v]


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

    def test_count_beyond_int64_rejected(self):
        with pytest.raises(ValidationError, match=r"crossing count at "
                           r"\(1, 2\) is above 2\^63 - 1"):
            CrossingTable.from_triples(["R1", "R2"], [[1, 2, 2 ** 63]])
        with pytest.raises(ValidationError, match=r"0\.\.2\^63 - 1"):
            CrossingTable(["R1"], [[10 ** 20]])

    def test_largest_int64_count_accepted(self):
        top = 2 ** 63 - 1
        table = CrossingTable.from_triples(["R1", "R2"], [[1, 2, top]])
        assert table.counts.tolist() == [[0, top], [0, 0]]
        assert CrossingTable(["R1"], [[top]]).counts.tolist() == [[top]]
        assert verify_markov(table).violations == [(1, 2, top)]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_violations_match_the_walk_over_every_entry(self, entries):
        n = len(entries)
        counts = np.array(entries, dtype=np.int64).reshape(n, n)
        check = verify_markov(CrossingTable(range(n), counts))
        assert check.violations == reference_violations(counts)
        assert all(type(x) is int for row in check.violations for x in row)
        assert check.ok == (counts <= 1).all()

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
        assert word_rows(result.words) == [
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

    def test_counts_mix_unit_and_weighted_columns(self):
        # Columns 1 and 3 hold only 0s and 1s, column 2 the weights 2 and
        # 3, column 4 a 1 beside a 4; the pattern A > 0 has unit columns
        # only.  Each count is the exact sum of the matrix power.
        A = np.array([[1, 2, 0, 1], [0, 3, 1, 0], [1, 0, 1, 4],
                      [1, 0, 0, 0]])
        for M in (A, A > 0):
            for m in range(1, 16):
                power = np.linalg.matrix_power(M.astype(object), m - 1)
                assert count_admissible(M, m) == int(power.sum())

    def test_budget_returns_count_only(self):
        # 3^12 words exceed markov.LIST_BUDGET.
        result = admissible_words(np.ones((3, 3), int), 12)
        assert result.words is None
        assert result.count == 3 ** 12

    def test_random_matrices_match_brute_force(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(1, 3)
            A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            for m in range(1, 6):
                assert count_admissible(np.array(A), m) == brute_force_count(A, m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        min_size=n, max_size=n)), st.integers(1, 25))
    def test_count_is_the_exact_matrix_power_sum(self, rows, m):
        A = np.array(rows, dtype=np.int64)
        power = np.linalg.matrix_power(A.astype(object), m - 1)
        assert count_admissible(A, m) == int(power.sum())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        min_size=n, max_size=n)), st.integers(1, 6))
    @example([[2]], 2)
    def test_listing_is_every_admissible_word_in_order(self, rows, m):
        A = np.array(rows, dtype=np.int64)
        n = len(rows)
        expected = [word for word in itertools.product(range(1, n + 1),
                                                       repeat=m)
                    if all(A[i - 1, j - 1] for i, j in zip(word, word[1:]))]
        result = admissible_words(A, m)
        assert result.words.shape == (len(expected), m)
        assert word_rows(result.words) == expected
        assert result.count == len(expected)

    def test_listing_longer_than_the_recursion_limit(self):
        result = admissible_words(np.eye(2, dtype=int), 1500)
        assert word_rows(result.words) == [(1,) * 1500, (2,) * 1500]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.sampled_from((0, 0, 1, 2, 3)), min_size=n,
                          max_size=n), min_size=n, max_size=n),
        st.sets(st.integers(0, n - 1)), st.sets(st.integers(0, n - 1)))),
        st.booleans(), st.integers(1, 8))
    @example(([[1 if (j - i) % 12 < 3 else 0 for j in range(12)]
               for i in range(12)], set(), set()), True, 3)
    def test_listing_matches_the_depth_first_walk(self, table, binary, m):
        # Count and 0/1 tables, some rows and columns zeroed: the rows,
        # their order, the count and the --list-words text are the walk's.
        entries, zero_rows, zero_columns = table
        A = np.array(entries, dtype=np.int64)
        A[sorted(zero_rows)] = 0
        A[:, sorted(zero_columns)] = 0
        if binary:
            A = (A > 0).astype(np.int64)
        result = admissible_words(A, m)
        if result.count > markov.LIST_BUDGET:
            assert result.words is None
            return
        expected = reference_admissible_words(A, m)
        assert result.count == len(expected)
        assert result.words.shape == (len(expected), m)
        assert word_rows(result.words) == expected
        assert cli._word_lines(result.words, len(A)) == \
            reference_word_lines(expected, len(A))

    @pytest.mark.parametrize("n, dtype", [
        (2, np.uint8), (255, np.uint8), (256, np.uint16)])
    def test_listing_in_the_smallest_type_of_its_symbols(self, n, dtype):
        # Each symbol goes to itself and the next, round the cycle: the
        # widest symbol fits the listing's type, and the rows and their
        # text are the walk's.
        A = np.eye(n, dtype=np.int64) + np.roll(np.eye(n, dtype=np.int64),
                                                1, axis=1)
        result = admissible_words(A, 3)
        assert result.words.dtype == dtype
        expected = reference_admissible_words(A, 3)
        assert word_rows(result.words) == expected
        assert cli._word_lines(result.words, n) == \
            reference_word_lines(expected, n)

    def test_prefixes_that_die_early_are_not_walked(self):
        # 1,679,616 length-8 prefixes through the layers die before length
        # 20; the two self-loops give the only words.
        A = layered_table()
        expected = [(49,) * 20, (50,) * 20]
        start = time.process_time()
        assert reference_admissible_words(A, 20) == expected
        walk = time.process_time() - start
        levels = math.inf
        for _ in range(5):
            start = time.process_time()
            result = admissible_words(A, 20)
            levels = min(levels, time.process_time() - start)
            assert word_rows(result.words) == expected
        assert levels * 100 < walk

    def test_golden_listing_at_the_budget_in_less_memory(self):
        # 75,025 words of length 23.  The depth-first walk's tuples and
        # their text peaked at 25.6 MB under tracemalloc (Python 3.11); the
        # array and its text must not take more.
        tracemalloc.start()
        try:
            words = admissible_words(GOLDEN, 23).words
            text = cli._word_lines(words, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert words.shape == (75025, 23)
        assert len(text) == 75025 * 26
        assert peak <= 25.6e6


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


# Three basic classes {1, 2} -> {3, 4} -> {5, 6} of radius 2 on one chain,
# fed by the source state 0: x_0 = (2 * 1/2 + 2 * 1/2) / 2 = 1.
THREE_CHAIN = [
    [0, 2, 2, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0],
    [0, 1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 1, 1, 1, 0],
    [0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 1, 1],
]


class TestPerronByClasses:
    """Defective roots (Perron index > 1) built from the class graph."""

    @pytest.mark.parametrize("M, kappa, vector", [
        ([[1, 1], [0, 1]], 1, [1, 0]),
        ([[2, 1, 0], [0, 2, 0], [0, 0, 1]], 2, [1, 0, 0]),
        (THREE_CHAIN, 2, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4),
                          0, 0, 0, 0]),
        # Two basic classes that both reach a third.
        ([[1, 0, 1], [0, 1, 1], [0, 0, 1]], 1,
         [Fraction(1, 2), Fraction(1, 2), 0]),
        # The transpose of the last, as the mu- side reads it.
        ([[1, 0, 0], [0, 1, 0], [1, 1, 1]], 1, [0, 0, 1]),
        # A class below rho upstream of the basic ones.
        ([[0, 1, 0], [0, 1, 1], [0, 0, 1]], 1,
         [Fraction(1, 2), Fraction(1, 2), 0]),
    ])
    def test_exact_eigenpair(self, M, kappa, vector):
        data = perron(np.array(M))
        assert data.converged
        assert data.residual == 0.0
        assert data.kappa == kappa
        assert [Fraction(x) for x in data.vector] == vector
        assert_exact_eigenpair(M, data)
        assert data.support.tolist() == [x > 0 for x in vector]

    def test_transposed_chain_gives_mu_minus(self):
        result = invariant_measures(np.array(THREE_CHAIN))
        assert result.converged
        assert result.kappa_plus == result.kappa_minus == 2
        assert result.mu_plus.tolist() == [0.5, 0.25, 0.25, 0, 0, 0, 0]
        assert result.mu_minus.tolist() == [0, 0, 0, 0, 0, 0.5, 0.5]
        assert_exact_eigenpair(np.array(THREE_CHAIN).T.tolist(),
                               perron(np.array(THREE_CHAIN).T))
        assert not result.full_support_plus
        assert not result.full_support_minus

    @pytest.mark.parametrize("M, vector", [
        ([[0, 1], [0, 0]], [1, 0]),
        ([[0, 1, 1], [0, 0, 1], [0, 0, 0]], [1, 0, 0]),
        ([[0, 0, 1], [0, 0, 1], [0, 0, 0]], [0.5, 0.5, 0]),
    ])
    def test_nilpotent_collapses_at_once(self, M, vector):
        data = perron(np.array(M))
        assert (data.kappa, data.residual, data.converged) == (0.0, 0.0, True)
        assert data.vector.tolist() == vector
        with pytest.raises(ConvergenceError,
                           match="dominant eigenvalue collapsed to zero"):
            data.entropy()

    @pytest.mark.parametrize("M, vector", [
        ([[1 + 1e-12, 1], [0, 1]], [1, 0]),
        ([[1, 1], [0, 1 + 1e-12]], [1, 0]),
        ([[1, 1, 0], [0, 1 + 1e-12, 1], [0, 0, 1]], [1, 0, 0]),
    ])
    def test_near_tie_is_one_radius(self, M, vector):
        # Class radii within RADIUS_RTOL of rho are read as rho, so each
        # of these is a defective root built from its top class.
        data = perron(np.array(M))
        assert (data.residual, data.converged) == (0.0, True)
        assert data.vector.tolist() == vector

    def test_draws_hold_both_cases(self, draws):
        indices = [index for _, (_, index, _) in draws]
        assert sum(index > 1 for index in indices) >= 10
        assert sum(index == 1 for index in indices) >= 100

    def test_draws_converge_to_the_oracle(self, draws):
        for M, (rho, _, support) in draws:
            data = perron(np.array(M))
            assert data.converged, M
            assert data.residual <= markov.PERRON_TOL * max(1.0, data.kappa)
            assert abs(data.kappa - rho) <= 1e-14 * rho
            assert data.support.tolist() == support

    def test_support_against_the_old_threshold(self, draws):
        # Full support used to be read as (vector > 1e-12).all().  On these
        # draws the two rules differ only where a state outside the support
        # (it reaches no basic class) still held a residue above 1e-12
        # when the iteration stopped.
        misjudged = []
        for M, (_, index, support) in draws:
            if index > 1:
                continue
            vector = reference_power_iteration(M).vector
            if bool((vector > 1e-12).all()) != all(support):
                assert not all(support)
                assert vector[~np.array(support)].max() < 1e-11
                misjudged.append(M)
        assert misjudged == [
            [[0, 9, 0, 0], [2, 0, 3, 1], [0, 0, 5, 0], [7, 1, 0, 0]],
            [[0, 1, 0, 0], [1, 0, 1, 1], [0, 0, 1, 0], [1, 1, 0, 0]],
            [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0], [1, 0, 0, 0]],
            [[0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 0], [1, 0, 1, 0, 1, 1],
             [0, 1, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]],
        ]


def weighted_cycle(n):
    """The n-cycle with one edge of weight 2: one periodic class of
    period n and root 2^(1/n)."""
    M = np.roll(np.eye(n, dtype=int), 1, axis=1)
    M[0, 1] = 2
    return M


class TestPerronDefects:
    """Tables on which the (M + I) power iteration crawled or stopped
    with kappa off; the class eigenpairs answer each at once."""

    @pytest.mark.parametrize("M, kappa", [
        # An index-1 root with a close subdominant class.
        ([[1, 1], [0, 1.001]], 1.001),
        ([[1, 1], [0, 1 + 1e-6]], 1 + 1e-6),
    ] + [(weighted_cycle(n), 2 ** (1 / n)) for n in (50, 100, 200)],
        ids=["gap-1e-3", "gap-1e-6", "cycle-50", "cycle-100", "cycle-200"])
    def test_exact_root(self, M, kappa):
        data = perron(np.array(M))
        assert data.converged
        assert abs(data.kappa - kappa) <= 1e-14 * kappa

    def test_converged_kappa_is_the_root(self):
        # The iteration stopped here at residual 9.7e-13 with kappa still
        # 1.2e-12 (relative) above the root.
        M = [[3, 0, 0, 0, 0, 1, 0], [0, 2, 2, 3, 0, 3, 3],
             [1, 3, 1, 0, 2, 0, 1], [0, 0, 0, 0, 1, 2, 2],
             [2, 1, 0, 0, 0, 1, 3], [0, 0, 0, 1, 0, 0, 0],
             [1, 0, 0, 1, 0, 1, 3]]
        data, want = perron(np.array(M)), decimal_perron(M)
        assert data.converged
        assert abs(data.kappa - want) <= 1e-14 * want

    @pytest.mark.parametrize("M", [
        [[10 ** 6, 3, 0], [5, 7, 1], [2, 0, 9]],
        # Residual 1.5e-11 at kappa 1e5: rounding, relative to kappa.
        [[100000, 3], [5, 7]],
    ])
    def test_large_root_converges(self, M):
        assert perron(np.array(M)).converged


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
        (False, 1.5, "eigenpair residual 3.000e-04 above tolerance "
                     "1.500e-12"),
        (True, 0.0, "dominant eigenvalue collapsed to zero"),
        (True, -1e-3, "dominant eigenvalue collapsed to zero"),
    ])
    def test_breakdown_raises(self, converged, kappa, message):
        data = PerronData(kappa=kappa, vector=np.array([0.5, 0.5]),
                          residual=3e-4, converged=converged, iterations=0,
                          support=np.array([True, True]))
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
        # Sparse draws, defective roots among them, at the default budget.
        rng = random.Random(59)
        checked = 0
        for _ in range(50):
            n = rng.randint(2, 6)
            B = np.array([[rng.randint(0, 3) if rng.random() < 0.5 else 0
                           for _ in range(n)] for _ in range(n)])
            if not B.any():
                continue
            result = invariant_measures(B)
            assert result.converged
            assert result.residual_plus <= markov.PERRON_TOL
            assert result.residual_minus <= markov.PERRON_TOL
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

    def test_count_mismatch_is_reported(self, monkeypatch):
        # The enumerated count is the number of rows the walk built, so a
        # matrix count one too high is a reported mismatch, not a crash.
        true_count = markov.count_admissible
        monkeypatch.setattr(markov, "count_admissible",
                            lambda A, m: true_count(A, m) + 1)
        report = coding_consistency(GOLDEN, 5)
        assert report.count_matrix == 14
        assert report.count_enumerated == 13
        assert report.counts_match is False
        assert report.ok is False

    def test_given_listing_is_not_enumerated_again(self, monkeypatch):
        expected = coding_consistency(GOLDEN, 5)
        listing = admissible_words(GOLDEN, 5)

        def enumerate_again(*args, **kwargs):
            raise AssertionError("listing enumerated twice")

        monkeypatch.setattr(markov, "admissible_words", enumerate_again)
        assert coding_consistency(GOLDEN, 5, listing=listing) == expected
