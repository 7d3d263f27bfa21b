"""Incidence matrices, subshift counting, entropy, and invariant measures.

A verified rectangle family has every nonzero crossing count equal to one
and is summarized by a 0/1 transition matrix A; the raw count matrix B of
a pre-verified family drives the projectively invariant weight vectors via
its dominant nonnegative eigenpair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError

PERRON_TOL = 1e-12
PERRON_MAXITER = 10 ** 5
SUPPORT_TOL = 1e-12
# Most admissible words a listing holds; past it only the count is kept.
LIST_BUDGET = 10 ** 5


class CrossingTable:
    """Component counts of image-rectangle against rectangle, per ordered pair.
    """

    def __init__(self, rect_ids, counts):
        self.rect_ids = tuple(rect_ids)
        n = len(self.rect_ids)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (n, n):
            raise ValidationError(
                f"crossing table is {counts.shape}, expected ({n}, {n})"
            )
        if (counts < 0).any():
            raise ValidationError("crossing counts must be nonnegative")
        self.counts = counts

    @classmethod
    def from_triples(cls, rect_ids, triples) -> "CrossingTable":
        """Build from 1-based (i, j, count) rows, one row per pair at
        most; missing pairs default to zero."""
        n = len(rect_ids)
        counts = np.zeros((n, n), dtype=np.int64)
        rows = {}
        for row, (i, j, count) in enumerate(triples):
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(
                    f"crossing pair ({i}, {j}) outside 1..{n}"
                )
            if count < 0:
                raise ValidationError(
                    f"crossing count at ({i}, {j}) is negative"
                )
            first = rows.setdefault((i, j), row)
            if first != row:
                raise ValidationError(
                    f"row {row} repeats the pair ({i}, {j}) of row {first}"
                )
            counts[i - 1, j - 1] = count
        return cls(rect_ids, counts)

    @property
    def size(self) -> int:
        return len(self.rect_ids)


@dataclass
class MarkovCheck:
    ok: bool
    violations: list[tuple[int, int, int]] = field(default_factory=list)
    # (i, j, count) with 1-based indices, listed when count > 1


def verify_markov(table: CrossingTable) -> MarkovCheck:
    """Every positive crossing count must be exactly one."""
    violations = [
        (i + 1, j + 1, int(c))
        for (i, j), c in np.ndenumerate(table.counts)
        if c > 1
    ]
    return MarkovCheck(ok=not violations, violations=violations)


def build_matrix_A(table: CrossingTable) -> np.ndarray:
    """0/1 transition matrix of a verified family."""
    check = verify_markov(table)
    if not check.ok:
        raise ValidationError(
            f"crossing table is not Markov, offending counts: "
            f"{check.violations}"
        )
    return (table.counts > 0).astype(np.int64)


def build_matrix_B(table: CrossingTable) -> np.ndarray:
    """Raw component-count matrix; multiplicities allowed."""
    return table.counts.copy()


def _as_count_matrix(M) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("expected a square matrix")
    if (M < 0).any():
        raise ValidationError("matrix entries must be nonnegative")
    return M


def count_admissible(A, m: int) -> int:
    """Number of admissible length-m symbol words: sum of A^(m-1)."""
    A = _as_count_matrix(A)
    if m < 1:
        raise ValidationError("word length must be >= 1")
    # 1^T A^(m-1) 1 as m-1 vector-matrix products over Python integers,
    # which never overflow.
    rows = [[int(x) for x in row] for row in A]
    n = len(rows)
    v = [1] * n
    for _ in range(m - 1):
        v = [sum(v[k] * rows[k][j] for k in range(n)) for j in range(n)]
    return sum(v)


@dataclass
class AdmissibleWords:
    count: int
    words: list[tuple[int, ...]] | None  # None when over the list budget


def admissible_words(A, m: int,
                     max_list: int = LIST_BUDGET) -> AdmissibleWords:
    """Count admissible words of length m; list them under the budget.

    Symbols are 1-based; a word (i_0, ..., i_{m-1}) is admissible when
    A[i_k, i_{k+1}] is nonzero for every consecutive pair.
    """
    A = _as_count_matrix(A)
    count = count_admissible(A, m)
    if count > max_list:
        return AdmissibleWords(count=count, words=None)
    n = A.shape[0]
    words: list[tuple[int, ...]] = []

    def extend(prefix):
        if len(prefix) == m:
            words.append(tuple(prefix))
            return
        last = prefix[-1]
        for j in range(1, n + 1):
            if A[last - 1, j - 1]:
                prefix.append(j)
                extend(prefix)
                prefix.pop()

    for i in range(1, n + 1):
        extend([i])
    return AdmissibleWords(count=count, words=words)


def is_admissible(A, word) -> bool:
    A = _as_count_matrix(A)
    return all(A[i - 1, j - 1] for i, j in zip(word, word[1:]))


def shift(word):
    """Drop the leading symbol; admissibility of the suffix is automatic."""
    if len(word) < 2:
        raise ValidationError("cannot shift a word of length < 2")
    return tuple(word[1:])


@dataclass
class PerronData:
    kappa: float
    vector: np.ndarray  # nonnegative, normalized to sum 1
    residual: float     # max |M y - kappa y|
    converged: bool
    iterations: int

    def entropy(self) -> float:
        """log of the dominant eigenvalue; zero for permutation matrices."""
        if not self.converged:
            raise ConvergenceError(
                f"power iteration stalled at residual {self.residual:.3e}"
            )
        if self.kappa <= 0.0:
            raise ConvergenceError("dominant eigenvalue collapsed to zero")
        return math.log(self.kappa)


def perron(M, tol: float = PERRON_TOL,
           maxiter: int = PERRON_MAXITER) -> PerronData:
    """Dominant nonnegative eigenpair by power iteration from uniform.

    Iterates (M + I) so periodic transition patterns converge too; the
    shift leaves eigenvectors alone and is subtracted from the reported
    eigenvalue.  Reducible matrices simply converge to a vector that may
    have zero entries.
    """
    M = np.asarray(_as_count_matrix(M), dtype=float)
    n = M.shape[0]
    if not M.any():
        raise ValidationError("all-zero matrix has no dominant eigenpair")
    v = np.full(n, 1.0 / n)
    kappa = 0.0
    residual = math.inf
    iterations = 0
    for iterations in range(1, maxiter + 1):
        z = M @ v + v
        v = z / z.sum()
        image = M @ v
        kappa = image.sum()  # Rayleigh-style ratio, since v sums to 1
        residual = float(np.max(np.abs(image - kappa * v)))
        if residual <= tol:
            return PerronData(kappa=float(kappa), vector=v,
                              residual=residual, converged=True,
                              iterations=iterations)
    return PerronData(kappa=float(kappa), vector=v, residual=residual,
                      converged=False, iterations=iterations)


def entropy(A, tol: float = PERRON_TOL, maxiter: int = PERRON_MAXITER) -> float:
    """log of the dominant eigenvalue; zero for permutation matrices."""
    return perron(A, tol=tol, maxiter=maxiter).entropy()


@dataclass
class InvariantMeasures:
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    kappa: float
    kappa_plus: float
    kappa_minus: float
    residual_plus: float
    residual_minus: float
    full_support_plus: bool
    full_support_minus: bool
    converged: bool


def invariant_measures(B, tol: float = PERRON_TOL,
                       maxiter: int = PERRON_MAXITER) -> InvariantMeasures:
    """Weight vectors from B and its transpose, sharing the eigenvalue.

    The transpose run produces the left eigenvector of B, i.e. the weights
    of the reversed-time family.  Zero entries are reported through the
    full-support flags instead of being an error.
    """
    B = _as_count_matrix(B)
    plus = perron(B, tol=tol, maxiter=maxiter)
    minus = perron(np.asarray(B).T, tol=tol, maxiter=maxiter)
    return InvariantMeasures(
        mu_plus=plus.vector,
        mu_minus=minus.vector,
        kappa=plus.kappa,
        kappa_plus=plus.kappa,
        kappa_minus=minus.kappa,
        residual_plus=plus.residual,
        residual_minus=minus.residual,
        full_support_plus=bool((plus.vector > SUPPORT_TOL).all()),
        full_support_minus=bool((minus.vector > SUPPORT_TOL).all()),
        converged=plus.converged and minus.converged,
    )


@dataclass
class CodingReport:
    depth: int
    count_matrix: int               # sum of A^(depth-1)
    count_enumerated: int | None    # None when enumeration was skipped
    counts_match: bool | None
    dead_end_symbols: list[int]     # 1-based symbols whose row is zero
    blocked_words: list[tuple[int, ...]]  # admissible words with no extension
    ok: bool


def coding_consistency(A, depth: int, max_list: int = LIST_BUDGET,
                       listing: AdmissibleWords | None = None) -> CodingReport:
    """Finite-depth consistency of the symbol coding.

    Checks that enumeration agrees with the matrix-power count and that a
    word extends one step further exactly when its last symbol has an
    outgoing transition; symbols with all-zero rows are coding defects.
    A caller that already holds the length-``depth`` listing passes it as
    ``listing`` and the words are not enumerated again.
    """
    A = _as_count_matrix(A)
    if depth < 2:
        raise ValidationError("coding depth must be >= 2")
    n = A.shape[0]
    dead_ends = [i + 1 for i in range(n) if not A[i].any()]
    if listing is None:
        listing = admissible_words(A, depth, max_list=max_list)
    count_matrix = listing.count
    blocked: list[tuple[int, ...]] = []
    count_enum: int | None = None
    match: bool | None = None
    if listing.words is not None:
        count_enum = len(listing.words)
        match = count_enum == count_matrix
        for word in listing.words:
            extends = bool(A[word[-1] - 1].any())
            if not extends:
                blocked.append(word)
    ok = (match is not False) and not dead_ends
    return CodingReport(
        depth=depth,
        count_matrix=count_matrix,
        count_enumerated=count_enum,
        counts_match=match,
        dead_end_symbols=dead_ends,
        blocked_words=blocked,
        ok=ok,
    )
