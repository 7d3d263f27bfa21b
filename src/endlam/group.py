"""Free-group combinatorics over a set of hyperbolic generators.

Words are tuples of nonzero signed integers: letter +i is the i-th
generator (1-based), -i its inverse.  Words are stored freely reduced.
A substitution rule on the generators, supplied together with a verified
inverse rule, encodes the surface map on the fundamental group.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceededError,
    NotHyperbolicError,
    ValidationError,
)
from .hyperbolic import (
    ANGLE_TOL,
    TRACE_TOL,
    HPoint,
    Isometry,
    apply_isometry,
    axis,
    axis_angles,
    ball_products,
    classify_isometry,
    first_distinct,
    is_hyperbolic,
    orbit_points,
)

DEFAULT_MAX_LETTERS = 10 ** 6
DEFAULT_MAX_WORDS = 10 ** 6


def _reduce_letters(letters) -> tuple[int, ...]:
    stack: list[int] = []
    for letter in letters:
        letter = int(letter)
        if letter == 0:
            raise ValidationError("letter 0 is not a generator index")
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """Freely reduced word; reduction happens on construction."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce_letters(self.letters))

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def _reduced(cls, letters: tuple[int, ...]) -> "Word":
        """The word of ``letters``, a tuple of ints already freely reduced,
        built without a second reduction pass."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    @classmethod
    def parse(cls, text: str, names) -> "Word":
        """Parse whitespace-separated tokens ``name`` or ``name^-1``."""
        index = {name: i + 1 for i, name in enumerate(names)}
        letters = []
        for token in text.split():
            if token.endswith("^-1"):
                name, sign = token[:-3], -1
            else:
                name, sign = token, 1
            if name not in index:
                raise ValidationError(f"unknown generator {name!r}")
            letters.append(sign * index[name])
        return cls(tuple(letters))

    def format(self, names) -> str:
        parts = []
        for letter in self.letters:
            name = names[abs(letter) - 1]
            parts.append(name if letter > 0 else name + "^-1")
        return " ".join(parts)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word._reduced(tuple(-x for x in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def max_index(self) -> int:
        return max(map(abs, self.letters), default=0)

    def cyclic_decomposition(self) -> tuple["Word", "Word"]:
        """Split as (g, core) with self = g * core * g^-1, core cyclically
        reduced.  Evaluating the core keeps matrix entries small where the
        full word would suffer catastrophic trace cancellation."""
        letters = self.letters
        i, j = 0, len(letters)
        while j - i >= 2 and letters[i] == -letters[j - 1]:
            i += 1
            j -= 1
        # A subword of a reduced word is reduced.
        return Word._reduced(letters[:i]), Word._reduced(letters[i:j])


def free_reduce(word) -> Word:
    """Freely reduce a Word or raw letter sequence; idempotent."""
    if isinstance(word, Word):
        return word
    return Word(tuple(word))


class FuchsianGroup:
    """Named hyperbolic generators; discreteness is the caller's obligation."""

    def __init__(self, names, generators):
        names = tuple(names)
        generators = tuple(generators)
        if len(names) != len(generators):
            raise ValidationError("generator names and matrices mismatch")
        if len(set(names)) != len(names):
            raise ValidationError("duplicate generator name")
        if not generators:
            raise ValidationError("a group needs at least one generator")
        for name, m in zip(names, generators):
            kind = classify_isometry(m)
            if kind != "hyperbolic":
                raise NotHyperbolicError(
                    f"generator {name} is not hyperbolic ({kind})"
                )
        self.names = names
        self.generators = generators
        self._inverses = tuple(m.inverse() for m in generators)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def letter_isometry(self, letter: int) -> Isometry:
        index = abs(letter) - 1
        if not 0 <= index < self.rank:
            raise ValidationError(f"letter {letter} exceeds rank {self.rank}")
        return self.generators[index] if letter > 0 else self._inverses[index]

    def word(self, text: str) -> Word:
        return Word.parse(text, self.names)


def evaluate_word(group: FuchsianGroup, word) -> Isometry:
    """Ordered product of generator matrices; empty word is the identity."""
    word = free_reduce(word)
    result = Isometry.identity()
    for letter in word:
        result = result.compose(group.letter_isometry(letter))
    return result


@dataclass(frozen=True)
class FreeAutomorphism:
    """Forward and inverse substitution rules, one word per generator.

    The image of every signed letter under each rule, as a tuple of
    letters, is built once on construction; ``apply_automorphism`` reads
    those tables."""

    forward: tuple[Word, ...]
    inverse: tuple[Word, ...]

    def __post_init__(self):
        if len(self.forward) != len(self.inverse):
            raise ValidationError("forward/inverse rule counts differ")
        rank = len(self.forward)
        for rule in self.forward + self.inverse:
            if rule.max_index() > rank:
                raise ValidationError(
                    f"substitution uses generator index {rule.max_index()} "
                    f"beyond rank {rank}"
                )
        for name, rules in (("_forward_images", self.forward),
                            ("_inverse_images", self.inverse)):
            images = {}
            for i, rule in enumerate(rules, 1):
                images[i], images[-i] = rule.letters, rule.inverse().letters
            object.__setattr__(self, name, images)

    @property
    def rank(self) -> int:
        return len(self.forward)

    @classmethod
    def identity(cls, rank: int) -> "FreeAutomorphism":
        rules = tuple(Word((i + 1,)) for i in range(rank))
        return cls(rules, rules)

    def _substitute_once(self, word: Word, images, max_letters: int) -> Word:
        out: list[int] = []
        for letter in word.letters:
            image = images[letter]
            # The image is reduced, so only its head can cancel, against
            # the tail of the letters so far: the stack reduction of
            # pushing its letters one at a time.
            k = 0
            while out and k < len(image) and out[-1] == -image[k]:
                out.pop()
                k += 1
            out.extend(image[k:])
            if len(out) > max_letters:
                raise BudgetExceededError(
                    f"substitution exceeded {max_letters} letters"
                )
        return Word._reduced(tuple(out))


def apply_automorphism(phi: FreeAutomorphism, word, n: int,
                       max_letters: int = DEFAULT_MAX_LETTERS) -> Word:
    """n-fold substitution; negative n applies the inverse rule.  The
    letter budget is checked after each letter's image."""
    word = free_reduce(word)
    images = phi._forward_images if n >= 0 else phi._inverse_images
    for _ in range(abs(int(n))):
        word = phi._substitute_once(word, images, max_letters)
    return word


@dataclass
class AutomorphismReport:
    ok: bool
    failures: list[tuple[str, int, Word]] = field(default_factory=list)
    # each failure is (direction, generator index 1-based, reduced round-trip)


def verify_automorphism(phi: FreeAutomorphism) -> AutomorphismReport:
    """Check that both round-trips reduce every generator to itself."""
    report = AutomorphismReport(ok=True)
    for i in range(phi.rank):
        gen = Word((i + 1,))
        fwd_back = apply_automorphism(phi, apply_automorphism(phi, gen, 1), -1)
        if fwd_back.letters != gen.letters:
            report.ok = False
            report.failures.append(("inverse(forward(x))", i + 1, fwd_back))
        back_fwd = apply_automorphism(phi, apply_automorphism(phi, gen, -1), 1)
        if back_fwd.letters != gen.letters:
            report.ok = False
            report.failures.append(("forward(inverse(x))", i + 1, back_fwd))
    return report


def ball_size(rank: int, k: int) -> int:
    """Closed form of 1 + sum over lengths of 2r*(2r-1)^(len-1)."""
    if rank == 1:
        return 1 + 2 * k
    return 1 + rank * ((2 * rank - 1) ** k - 1) // (rank - 1)


def _letter_order(rank: int) -> list[int]:
    """a < a^-1 < b < b^-1 < ...: each letter's partner is its neighbour."""
    return [letter for i in range(1, rank + 1) for letter in (i, -i)]


def _check_ball(rank: int, k: int, max_words: int) -> None:
    if k < 0:
        raise ValidationError("ball radius must be nonnegative")
    # Past rank 1 the ball holds at least 2^k words, so from the budget's
    # bit length on a radius is over it; its size, a power that takes
    # seconds at radius 30,000, is then made only if str() can print it.
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    long = rank > 1 and k * math.log10(2 * rank - 1) >= limit - 2
    if not (long and k >= max_words.bit_length()):
        size = ball_size(rank, k)
        if size <= max_words:
            return
    raise BudgetExceededError(
        f"ball of radius {k} holds "
        f"{f'more than {max_words}' if long else size} words, over the "
        f"budget of {max_words}")


@dataclass(eq=False)
class Ball:
    """The freely reduced words of length <= k by length, then in the
    letter order a < a^-1 < b < b^-1 < ...: word i is word ``parent[i]``
    followed by the signed letter ``letter[i]`` (-1 and 0 for the identity,
    first), and row ``g[i]`` holds the entries a, b, c, d of its isometry.
    A ball of radius k is the first rows of every larger ball of its
    group.  A ``Word`` is built only for the rows ``words`` is asked for;
    ``spellings`` writes words out without building any."""

    parent: np.ndarray
    letter: np.ndarray
    g: np.ndarray

    def __len__(self) -> int:
        return len(self.parent)

    def words(self, rows) -> list[Word]:
        """Words ``rows`` (ints), each read up its parents."""
        parent, letter = self.parent.tolist(), self.letter.tolist()
        words = []
        for i in rows:
            letters = []
            while i > 0:
                letters.append(letter[i])
                i = parent[i]
            words.append(Word._reduced(tuple(reversed(letters))))
        return words

    def spellings(self, names, count: int) -> list[str]:
        """``Word.format(names)`` of words 0 .. count - 1, in one pass: each
        word's text is its parent's, then its last letter's token."""
        tokens = {}
        for i, name in enumerate(names, 1):
            tokens[i], tokens[-i] = name, name + "^-1"
        texts = [""]
        for p, x in zip(self.parent[1:count].tolist(),
                        self.letter[1:count].tolist()):
            texts.append(f"{texts[p]} {tokens[x]}" if p else tokens[x])
        return texts[:count]


def enumerate_ball(group: FuchsianGroup, k: int,
                   max_words: int = DEFAULT_MAX_WORDS) -> Ball:
    """All freely reduced words of length <= k with their isometries from
    ``hyperbolic.ball_products``, each ``evaluate_word``'s bit for bit."""
    _check_ball(group.rank, k, max_words)
    order = _letter_order(group.rank)
    parent, letter, g = ball_products(
        [group.letter_isometry(x) for x in order], k)
    return Ball(parent, np.array([0, *order])[letter + 1], g)


@dataclass
class LimitSetSample:
    """Orbit points (disk coordinates) plus the disk angles, in [0, 2*pi),
    of boundary fixed points."""

    orbit: list[tuple[float, float]]
    fixed_point_angles: list[float]
    words: int

    def min_boundary_gap(self) -> float:
        """Smallest 1 - |p| over the sampled orbit."""
        return min(1.0 - math.hypot(x, y) for x, y in self.orbit)


def limit_set_sample(group: FuchsianGroup, base: HPoint, k: int,
                     max_words: int = DEFAULT_MAX_WORDS,
                     angle_tol: float = ANGLE_TOL,
                     trace_tol: float = TRACE_TOL) -> LimitSetSample:
    """Orbit of ``base`` under the radius-k ball, with the axis endpoints
    of every hyperbolic ball element (a dense subset of the limit set).
    Endpoints closer than ``angle_tol`` count once.

    The orbit points and axis endpoints of ``enumerate_ball``'s isometries
    m are arrays (``orbit_points``, ``is_hyperbolic``, ``axis_angles``), bit
    for bit ``to_disk(apply_isometry(m, base))`` and ``axis(m)``.  A numeric
    breakdown raises what those raise at the first element that fails."""
    if k < 0:
        raise ValidationError("sample depth must be nonnegative")
    ball = enumerate_ball(group, k, max_words)
    a, b, c, d = ball.g.T
    x, y, fine = orbit_points(a, b, c, d, base)
    hyperbolic = is_hyperbolic(a, b, c, d, trace_tol)
    ends, ok = axis_angles(a[hyperbolic], b[hyperbolic], c[hyperbolic],
                           d[hyperbolic])
    fine[hyperbolic] &= ok
    # The scalar calls for each element the arrays do not vouch for, in
    # ball order: the first that fails raises, and one that passes has its
    # array values already, as the steps are the same.
    for i in np.flatnonzero(~fine).tolist():
        m = Isometry._raw(*ball.g[i].tolist())
        apply_isometry(m, base)
        if classify_isometry(m, trace_tol) == "hyperbolic":
            axis(m, trace_tol)
    ends = ends.ravel()
    keep = first_distinct(ends, ends, angle_tol)
    return LimitSetSample(
        orbit=list(zip(x.tolist(), y.tolist())),
        fixed_point_angles=ends[keep].tolist(),
        words=len(ball))
