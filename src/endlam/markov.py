"""Incidence matrices, subshift counting, entropy, and invariant measures.

A verified rectangle family has every nonzero crossing count equal to one
and is summarized by a 0/1 transition matrix A; the raw count matrix B of
a pre-verified family drives the projectively invariant weight vectors via
its dominant nonnegative eigenpair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import ConvergenceError, ValidationError

PERRON_TOL = 1e-12
# Class spectral radii this close, relative to rho, are one radius.
RADIUS_RTOL = 1e-9
# Most admissible words a listing holds; past it only the count is kept.
LIST_BUDGET = 10 ** 5
# Tables hold their counts as int64, so no count may exceed this.
COUNT_MAX = 2 ** 63 - 1


class CrossingTable:
    """Component counts of image-rectangle against rectangle, per ordered pair.
    """

    def __init__(self, rect_ids, counts):
        self.rect_ids = tuple(rect_ids)
        n = len(self.rect_ids)
        try:
            counts = np.asarray(counts, dtype=np.int64)
        except OverflowError:
            raise ValidationError(
                "crossing counts must lie in 0..2^63 - 1") from None
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
            if count > COUNT_MAX:
                raise ValidationError(
                    f"crossing count at ({i}, {j}) is above 2^63 - 1"
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
    over = table.counts > 1
    i, j = np.nonzero(over)                 # row-major, as over's mask
    violations = list(zip((i + 1).tolist(), (j + 1).tolist(),
                          table.counts[over].tolist()))
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
    # which never overflow; each column sums over its nonzero entries only,
    # and a column whose nonzero entries are all 1 adds them without
    # multiplying (weights None).
    columns = []
    for column in A.T.tolist():
        rows = [k for k, a in enumerate(column) if a]
        weights = [int(column[k]) for k in rows]
        columns.append((rows, None if set(weights) <= {1} else weights))
    v = [1] * len(columns)
    for _ in range(m - 1):
        get = v.__getitem__
        v = [sum(map(get, rows)) if weights is None
             else sum(map(mul, map(get, rows), weights))
             for rows, weights in columns]
    return sum(v)


@dataclass
class AdmissibleWords:
    """The number of admissible words of one length and, within the list
    budget, the words: one array of the smallest unsigned integer type
    that holds the symbol count (uint8 up to 255 symbols), one row per
    word, 1-based symbols, rows in lexicographic order."""

    count: int
    words: np.ndarray | None  # None when the count is over the list budget


def admissible_words(A, m: int) -> AdmissibleWords:
    """Count admissible words of length m; list them under the budget.

    Symbols are 1-based; a word (i_0, ..., i_{m-1}) is admissible when
    A[i_k, i_{k+1}] is nonzero for every consecutive pair.  The count is
    over A's nonzero pattern, so each word counts once, whatever the
    entries.

    The words are built one symbol a level, every prefix's children in
    symbol order, so each level stays sorted.  A prefix is only extended
    by symbols that can still go the remaining steps: reach[k], the
    symbols that start a path of k steps, is P^k 1 > 0, which stops
    changing once two steps agree (within n steps), so the successors cut
    to each reach[k] are built once.  No level is then larger than the
    listing, and the rows are read back along the parent indices into an
    array sized by the last level.
    """
    A = _as_count_matrix(A)
    P = A > 0
    count = count_admissible(P, m)
    if count > LIST_BUDGET:
        return AdmissibleWords(count=count, words=None)
    reach = [np.ones(P.shape[0], dtype=bool)]
    while len(reach) < m:
        step = P @ reach[-1]
        if (step == reach[-1]).all():
            break
        reach.append(step)
    # successors[k]: P cut to reach[k] as CSR, the successors of symbol i
    # in symbol order being to[start[i]:start[i + 1]]; past the last
    # reach every k has the same successors.
    successors = []
    for alive in reach[:m - 1]:
        pattern = P & alive
        start = np.concatenate(([0], np.cumsum(pattern.sum(axis=1))))
        successors.append((np.nonzero(pattern)[1], start))
    # levels[c]: the parent row of each prefix at column c, and its last
    # symbol.
    last = np.flatnonzero(reach[-1])
    levels = [(None, last)]
    for steps in range(m - 2, -1, -1):
        to, start = successors[min(steps, len(successors) - 1)]
        first = start[last]
        degree = start[last + 1] - first
        parent = np.repeat(np.arange(len(last)), degree)
        # Child k of the level sits at to[first[parent] + its rank].
        offset = first - (np.cumsum(degree) - degree)
        last = to[offset[parent] + np.arange(len(parent))]
        levels.append((parent, last))
    # Filled a column at a time, each contiguous, and returned as rows of
    # the smallest unsigned type that holds every symbol.
    columns = np.empty((m, len(last)), dtype=np.min_scalar_type(P.shape[0]))
    rows = slice(None)      # level row of each word: at the last, all
    for column in range(m - 1, -1, -1):
        parent, last = levels[column]
        columns[column] = last[rows]
        if parent is not None:
            rows = parent[rows]
    columns += 1
    return AdmissibleWords(count=count, words=columns.T)


@dataclass
class PerronData:
    kappa: float
    vector: np.ndarray  # nonnegative, normalized to sum 1
    residual: float     # max |M y - kappa y|
    converged: bool     # residual <= PERRON_TOL * max(1, kappa)
    iterations: int     # always 0; only perfbench's tracer reads it
    # States that reach a basic class the vector is built on, read off the
    # class graph.
    support: np.ndarray

    def entropy(self) -> float:
        """log of the dominant eigenvalue; zero for permutation matrices."""
        if not self.converged:
            raise ConvergenceError(
                f"eigenpair residual {self.residual:.3e} above tolerance "
                f"{PERRON_TOL * max(1.0, self.kappa):.3e}"
            )
        if self.kappa <= 0.0:
            raise ConvergenceError("dominant eigenvalue collapsed to zero")
        return math.log(self.kappa)


def _reach(M: np.ndarray) -> np.ndarray:
    """reach[i, j]: a path of M's graph leads from state i to state j;
    every state reaches itself."""
    n = M.shape[0]
    reach = M > 0
    reach.flat[::n + 1] = True
    # k squarings cover every path of up to 2^k steps.
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    return reach


def _block_eigenpair(block: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and vector (sum 1) of an irreducible nonnegative block.

    Its spectral radius is the eigenvalue of largest real part, periodic
    blocks included, and is simple, so its eigenvector is one complex
    multiple of a positive vector: the moduli are that vector.
    """
    values, vectors = np.linalg.eig(block)
    top = values.real.argmax()
    x = np.abs(vectors[:, top])
    return float(values[top].real), x / x.sum()


def perron(M) -> PerronData:
    """Dominant nonnegative eigenpair, decided from M's class graph.

    M is split into its classes (Frobenius normal form, Lind-Marcus 4.4);
    an irreducible M is one class.  Each class's root and nonnegative
    vector come from one ``numpy.linalg.eig`` of its block, and the classes
    whose root is rho are the basic ones.  For every basic class C that no
    other basic class reaches, C's vector is back-substituted as
    x_K = (kappa_C I - M_KK)^-1 M_K. x over the classes K upstream of C,
    which are not basic, so x_K >= 0 (Rothblum's index theorem covers the
    defective roots).  The vectors are summed and normalized; kappa,
    residual and verdict are taken on the whole of M.  A nilpotent M gets
    kappa 0 and a vector on its source states.
    """
    M = np.asarray(_as_count_matrix(M), dtype=float)
    n = M.shape[0]
    if not M.any():
        raise ValidationError("all-zero matrix has no dominant eigenpair")
    reach = _reach(M)
    # Classes successor first: a class reaches more states than any class
    # it reaches.
    owner = (reach & reach.T).argmax(axis=1)
    reps = sorted(set(owner.tolist()), key=lambda r: (reach[r].sum(), r))
    classes = [np.flatnonzero(owner == r) for r in reps]
    # The Perron root of an irreducible block is a simple eigenvalue, so
    # LAPACK's error on it lies far inside RADIUS_RTOL.
    pairs = [_block_eigenpair(M[np.ix_(states, states)])
             for states in classes]
    rho = max(root for root, _ in pairs)
    basic = [k for k, (root, _) in enumerate(pairs)
             if rho - root <= RADIUS_RTOL * max(1.0, rho)]
    top = [c for c in basic
           if not any(reach[reps[k], reps[c]] for k in basic if k != c)]
    support = reach[:, [reps[c] for c in top]].any(axis=1)
    v = np.zeros(n)
    for c in top:
        root, vector = pairs[c]
        x = np.zeros(n)
        x[classes[c]] = vector
        for k in range(c + 1, len(classes)):
            if reach[reps[k], reps[c]]:
                states = classes[k]
                x[states] = np.linalg.solve(
                    root * np.eye(len(states)) - M[np.ix_(states, states)],
                    M[states] @ x)
        v += x
    v /= v.sum()
    image = M @ v
    kappa = image.sum()  # Rayleigh-style ratio, since v sums to 1
    residual = float(np.max(np.abs(image - kappa * v)))
    return PerronData(kappa=float(kappa), vector=v, residual=residual,
                      converged=residual <= PERRON_TOL * max(1.0, kappa),
                      iterations=0, support=support)


def entropy(A) -> float:
    """log of the dominant eigenvalue; zero for permutation matrices."""
    return perron(A).entropy()


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


def invariant_measures(B) -> InvariantMeasures:
    """Weight vectors from B and its transpose, sharing the eigenvalue.

    The transpose run produces the left eigenvector of B, i.e. the weights
    of the reversed-time family.  Zero entries are reported through the
    full-support flags instead of being an error.
    """
    B = _as_count_matrix(B)
    plus = perron(B)
    minus = perron(np.asarray(B).T)
    return InvariantMeasures(
        mu_plus=plus.vector,
        mu_minus=minus.vector,
        kappa=plus.kappa,
        kappa_plus=plus.kappa,
        kappa_minus=minus.kappa,
        residual_plus=plus.residual,
        residual_minus=minus.residual,
        full_support_plus=bool(plus.support.all()),
        full_support_minus=bool(minus.support.all()),
        converged=plus.converged and minus.converged,
    )


@dataclass
class CodingReport:
    depth: int
    count_matrix: int               # sum of P^(depth-1), P = (A > 0)
    count_enumerated: int | None    # None when enumeration was skipped
    counts_match: bool | None
    dead_end_symbols: list[int]     # 1-based symbols whose row is zero
    blocked_words: list[tuple[int, ...]]  # admissible words with no extension
    ok: bool


def coding_consistency(A, depth: int,
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
    dead_ends = (np.flatnonzero(~A.any(axis=1)) + 1).tolist()
    if listing is None:
        listing = admissible_words(A, depth)
    count_matrix = listing.count
    blocked: list[tuple[int, ...]] = []
    count_enum: int | None = None
    match: bool | None = None
    if listing.words is not None:
        count_enum = len(listing.words)
        match = count_enum == count_matrix
        ends = np.isin(listing.words[:, -1], dead_ends)
        blocked = list(map(tuple, listing.words[ends].tolist()))
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
