"""Exact-formula kernel for the hyperbolic plane.

Points live in the upper half-plane, isometries are real 2x2 matrices of
unit determinant acting by Mobius transformations, and ideal boundary
points are kept in a canonical form: the angle of their image on the unit
circle under the Cayley map z -> (z - i)/(z + i).

All operations are pure functions of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoIntersectionError,
    NotHyperbolicError,
    NumericDegeneracyError,
    ValidationError,
)

TWO_PI = 2.0 * math.pi

# Ideal points closer than this (as disk angles, radians) are the same point.
ANGLE_TOL = 1e-9
# Half-width of the |trace| = 2 band classified as parabolic.
TRACE_TOL = 1e-9
# Both are fixed.  Value validity uses them as they stand (a Geodesic needs
# distinct endpoints, a scene's generators must be hyperbolic); a run's
# comparisons take their own tolerances as arguments, defaulting to these.
# The smallest angle tolerance a run may take: below it, endpoints that
# leaves share stop comparing equal through float noise.
ANGLE_TOL_FLOOR = 1e-12

INF = math.inf

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_product(x: float, y: float) -> tuple[float, float]:
    """Error-free product: x*y == p + e exactly."""
    p = x * y
    xh = _SPLIT * x
    xh = xh - (xh - x)
    xl = x - xh
    yh = _SPLIT * y
    yh = yh - (yh - y)
    yl = y - yh
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, e


def _det(a: float, b: float, c: float, d: float) -> float:
    """a*d - b*c with compensated products, immune to cancellation."""
    p1, e1 = _two_product(a, d)
    p2, e2 = _two_product(b, c)
    return (p1 - p2) + (e1 - e2)


# Beyond this entry magnitude the determinant of the *stored* matrix is
# dominated by entry rounding (error ~ |m|^2 * eps), so dividing by it would
# inject more error than the drift it corrects.  Products larger than this
# are left unnormalized; their determinant stays within ~n*eps of 1.
_RENORM_CAP = 16.0


class Isometry:
    """Orientation-preserving isometry of the half-plane, det normalized to 1.

    The sign ambiguity of SL(2,R) -> PSL(2,R) is resolved by flipping signs
    so the first nonzero entry (scanning a, b, c, d) is positive.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        a, b, c, d = float(a), float(b), float(c), float(d)
        for v in (a, b, c, d):
            if not math.isfinite(v):
                raise ValidationError("matrix entries must be finite")
        det = _det(a, b, c, d)
        if not det > 0.0:
            raise ValidationError(
                f"matrix determinant must be positive, got {det!r}"
            )
        s = math.sqrt(det)
        self.a = a / s
        self.b = b / s
        self.c = c / s
        self.d = d / s
        self._canonicalize()

    @classmethod
    def _raw(cls, a: float, b: float, c: float, d: float) -> "Isometry":
        m = object.__new__(cls)
        m.a, m.b, m.c, m.d = a, b, c, d
        m._canonicalize()
        return m

    def _canonicalize(self) -> None:
        for v in (self.a, self.b, self.c, self.d):
            if v != 0.0:
                if v < 0.0:
                    self.a, self.b = -self.a, -self.b
                    self.c, self.d = -self.c, -self.d
                return

    @classmethod
    def identity(cls) -> "Isometry":
        return cls._raw(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_matrix(cls, rows) -> "Isometry":
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    @property
    def matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.a, self.b), (self.c, self.d))

    def trace(self) -> float:
        return self.a + self.d

    def inverse(self) -> "Isometry":
        return Isometry._raw(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other, i.e. the matrix product self @ other."""
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        if not (math.isfinite(a) and math.isfinite(b)
                and math.isfinite(c) and math.isfinite(d)):
            raise NumericDegeneracyError("isometry product overflowed")
        if max(abs(a), abs(b), abs(c), abs(d)) <= _RENORM_CAP:
            det = _det(a, b, c, d)
            if not det > 0.0:
                raise NumericDegeneracyError(
                    f"product determinant collapsed to {det!r}"
                )
            s = math.sqrt(det)
            return Isometry._raw(a / s, b / s, c / s, d / s)
        return Isometry._raw(a, b, c, d)

    def __repr__(self) -> str:
        return (f"Isometry([[{self.a:.12g}, {self.b:.12g}], "
                f"[{self.c:.12g}, {self.d:.12g}]])")


@dataclass(frozen=True)
class HPoint:
    """Point of the upper half-plane; y must stay strictly positive."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError("half-plane coordinates must be finite")
        if self.y <= 1e-12:
            raise ValidationError(
                f"y = {self.y!r} is on (or below) the boundary"
            )

    def as_complex(self) -> complex:
        return complex(self.x, self.y)


def angle_from_boundary(t: float) -> float:
    """Disk angle of a boundary point of the half-plane (t may be INF)."""
    if t == INF:
        return 0.0
    # (t - i)/(t + i) = ((t^2 - 1) - 2ti) / (t^2 + 1)
    return math.atan2(-2.0 * t, t * t - 1.0) % TWO_PI


def boundary_from_angle(theta: float) -> float:
    """Inverse Cayley map on the boundary; angle 0 is the point at infinity."""
    theta = theta % TWO_PI
    s = math.sin(theta / 2.0)
    if s == 0.0:
        return INF
    return -math.cos(theta / 2.0) / s


def angular_gap(t1: float, t2: float) -> float:
    """Distance between two angles mod 2*pi."""
    d = abs(t1 - t2) % TWO_PI
    return min(d, TWO_PI - d)


def angular_gaps(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """:func:`angular_gap` elementwise, with the same float steps."""
    d = np.abs(t1 - t2) % TWO_PI
    return np.minimum(d, TWO_PI - d)


@dataclass(frozen=True)
class IdealPoint:
    """Boundary point, canonically the disk angle in [0, 2*pi)."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValidationError("ideal point angle must be finite")
        object.__setattr__(self, "theta", self.theta % TWO_PI)

    @classmethod
    def from_boundary(cls, t: float) -> "IdealPoint":
        return cls(angle_from_boundary(t))

    @classmethod
    def infinity(cls) -> "IdealPoint":
        return cls(0.0)

    @property
    def boundary(self) -> float:
        """Half-plane coordinate; INF for the point at infinity."""
        return boundary_from_angle(self.theta)


def same_ideal_point(p: IdealPoint, q: IdealPoint,
                     tol: float = ANGLE_TOL) -> bool:
    return angular_gap(p.theta, q.theta) < tol


# Fewer rows than _DENSE_ROWS test every pair in one n x n mask, which
# then costs less than the grid's fixed passes.  On the first rows of
# lam-shallow and lam-deep calls the two cross between 96 and 112 rows,
# where the mask's cost doubles.
_DENSE_ROWS = 100

# A block decides up to _DEDUP_ROWS rows.  Each row meets the kept pairs
# of earlier blocks in its nine cells, at most four to a cell for tol at or
# above ANGLE_TOL_FLOOR, and, unless one of those is within tol, earlier
# rows of the block in the same cells.  The block ends before these
# in-block candidates would pass _DEDUP_PAIRS (its first row has none).
# The row cap is derived from that one budget: a block's kept-row
# candidates, at most 36 * _DEDUP_ROWS, stay within 2.25 budgets, so its
# index temporaries hold under 3.25 * _DEDUP_PAIRS entries, a few MB,
# whatever the input; the rest grows with the input, a few words per row
# and per cell.  A smaller cap splits a lam-deep orbit call (10,185 rows)
# into blocks that each pay the loop's fixed passes; no cap at all raises
# the peak by a quarter or more at ball 7.
_DEDUP_PAIRS = 1 << 18
_DEDUP_ROWS = _DEDUP_PAIRS // 16

def _grid(u, v, tol):
    """Cell of each pair in a grid of cells 2 * tol wide that wraps around
    the circle, as its two coordinates and its key, and the cells per turn.

    A pair within tol of another lies in one of the nine cells around that
    one's.  Two cells share a key only where it overflows, which needs
    more than 2**32 cells per turn."""
    q = 2.0 * max(tol, ANGLE_TOL_FLOOR)
    wrap = max(1, round(TWO_PI / q))
    a, b = (np.rint(t / q).astype(np.int64) % wrap for t in (u, v))
    return a, b, a * wrap + b, wrap


def _cells_after(keys, a, b, wrap):
    """For each cell (a[n], b[n]) and each of the four cells after it,
    (a, b + 1), (a + 1, b - 1), (a + 1, b) and (a + 1, b + 1) around the
    circle, that has a key in the sorted distinct ``keys``, the index n
    and that key's index.  With the four before it, which find it in
    turn, these are the eight cells around a cell."""
    up, right, left = a + 1, b + 1, b - 1
    up[up == wrap] = 0
    right[right == wrap] = 0
    left[left < 0] = wrap - 1
    a, up = a * wrap, up * wrap
    query = np.concatenate((a + right, up + left, up + b, up + right))
    at = np.searchsorted(keys, query)
    np.minimum(at, len(keys) - 1, out=at)
    found = np.flatnonzero(keys[at] == query)
    return found % len(a), at[found]


def _ranges(lo, counts):
    """The ranges lo[k]:lo[k] + counts[k], one after another."""
    return np.arange(counts.sum()) - np.repeat(
        np.cumsum(counts) - counts - lo, counts)


def _close_pairs(u, v, tol, rows, i, lo, counts):
    """(i, j) for each row i and j < i one of ``rows[lo:lo + count]``, the
    two pairs within ``tol`` in both coordinates; i ascending when the
    given i are.  The gaps are ``angular_gaps`` without its ``%``: on
    angles in [0, 2*pi] a difference is at most 2*pi, where the ``%``
    changes nothing but 2*pi itself, to 0, and both give a gap of 0."""
    i, j = np.repeat(i, counts), rows[_ranges(lo, counts)]
    earlier = j < i
    i, j = i[earlier], j[earlier]
    du, dv = np.abs(u[i] - u[j]), np.abs(v[i] - v[j])
    close = (np.minimum(du, TWO_PI - du) < tol) & (
        np.minimum(dv, TWO_PI - dv) < tol)
    return i[close], j[close]


def _cell_runs(u, v, tol):
    """The rows by grid cell and within a cell in order, a run per cell:
    a run starts at each position k where edge[k] is set (edge[n] closes
    the last), and run[k] is the run at position k.  Also the runs that
    each run t meets besides itself, nbr[ptr[t]:ptr[t + 1]].

    A run meets the runs in the eight cells around its own, each pair
    found from the cell before.  A run's cell is its first row's; where
    keys can overflow, a row in another cell of the run looks up the
    cells after its own too."""
    n = len(u)
    a, b, keys, wrap = _grid(u, v, tol)
    order = np.argsort(keys)
    keys = keys[order]
    edge = np.ones(n + 1, dtype=bool)
    edge[1:-1] = keys[1:] != keys[:-1]
    edges = np.flatnonzero(edge)
    starts = edges[:-1]
    run = np.cumsum(edge[:-1])
    run -= 1
    # The rows of a run in order: sorted as run * n + row.
    order += run * n
    order.sort()
    order -= run * n
    cells = keys[starts]
    x, y = _cells_after(cells, a[order[starts]], b[order[starts]], wrap)
    if wrap > 1 << 32:
        a = a[order]
        stray = np.flatnonzero(a[starts][run] != a)
        z, w = _cells_after(cells, a[stray], b[order[stray]], wrap)
        x, y = np.concatenate((x, run[stray[z]])), np.concatenate((y, w))
    meets = np.concatenate((x, y))
    ptr = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(np.bincount(meets, minlength=len(starts)), out=ptr[1:])
    return order, edge, run, ptr, np.concatenate((y, x))[np.argsort(meets)]


def _tight_runs(u, v, tol, order, edge, run):
    """Whether each run is tight: of one row, or of angles that span less
    than tol in both coordinates."""
    several = np.flatnonzero(~(edge[:-1] & edge[1:]))
    head = edge[several]
    rows = order[several]
    at = np.flatnonzero(head)
    tight = np.ones(run[-1] + 1, dtype=bool)
    close_u, close_v = (
        np.maximum.reduceat(t, at) - np.minimum.reduceat(t, at) < tol
        for t in (u[rows], v[rows]))
    tight[run[several[head]]] = close_u & close_v
    return tight


def _decide(blocked, i, j, chain=None, first=None):
    """Keep-mask of m rows taken in order, none of them ``blocked``
    kept, given the pairs (i, j), j < i, that are within tol.  A ``chain``
    row, where given, is a row of a tight run, whose pairs are not given:
    it is kept only when no earlier row of its run is, the first of them
    here at ``first``.

    A row with no earlier conflict is kept, one in conflict with such a
    row is not, and the others are decided in order."""
    m = len(blocked)
    alone = ~blocked
    alone[i] = False
    beaten = blocked.copy()
    if chain is not None:
        rest = chain & (first != np.arange(m))
        alone[rest] = False
        beaten[rest & alone[first]] = True
    beaten[i[alone[j]]] = True
    open_rows = np.flatnonzero(~alone & ~beaten)
    if not len(open_rows):
        return alone
    pending = ~alone[i] & ~beaten[i]
    i, j = i[pending], j[pending]
    # A chain's flag, past the m rows at its first row's offset, tells its
    # later rows that one of its rows is kept; a row outside a chain sets
    # the last flag, which none reads.
    flag = np.full(len(open_rows), 2 * m)
    if chain is not None:
        link = chain[open_rows]
        flag[link] = first[open_rows[link]] + m
        i = np.concatenate((i, open_rows[link]))
        j = np.concatenate((j, flag[link]))
    by_row = np.argsort(i, kind="stable")
    i, j = i[by_row], j[by_row].tolist()
    ends = np.searchsorted(i, [open_rows, open_rows + 1]).tolist()
    keep = bytearray(alone) + bytearray(m + 1)
    for row, lo_j, hi_j, f in zip(open_rows.tolist(), *ends, flag.tolist()):
        if not any(map(keep.__getitem__, j[lo_j:hi_j])):
            keep[row] = keep[f] = True
    return np.frombuffer(keep, dtype=bool, count=m)


def first_distinct(u, v, tol: float) -> np.ndarray:
    """Keep-mask of the angle pairs ``(u[i], v[i])``, angles in [0, 2*pi],
    taken in order: a pair is kept when no earlier kept pair lies within
    ``tol`` of it in both coordinates (``angular_gap``).  A geodesic
    enters as its two endpoint angles in ascending order, a boundary point
    t as (t, t), which tests it like :func:`same_ideal_point`.

    Fewer than ``_DENSE_ROWS`` rows test every pair in one mask.  Larger
    inputs are sorted once by grid cell, a run of rows per cell, and
    each cell finds the runs in the eight cells around it.  A run whose
    angles span less than ``tol`` in both coordinates is tight: any two of
    its rows are within ``tol``, so it keeps at most one of them, none
    when an earlier block kept one, else the first that no kept row of
    the cells around it blocks.  A dropped row blocks nothing, so the
    rows of a tight run are never tested against each other, only against
    the runs around it; the other runs, a seam cell's with angles near 0
    and near 2*pi among them, also test their own rows pair by pair.
    Both kernels then decide the rows in order with :func:`_decide`.

    Rows are decided a block at a time, each against the block's own rows
    and the kept rows of earlier blocks.  A block holds at most
    ``_DEDUP_ROWS`` = ``_DEDUP_PAIRS // 16`` rows and ends before its
    candidates among its own rows would pass ``_DEDUP_PAIRS``; its
    candidates among the kept rows of earlier blocks, at most 36 a row,
    stay within 2.25 times ``_DEDUP_PAIRS``, so its temporaries hold under
    3.25 times ``_DEDUP_PAIRS`` entries whatever the input.  A block's
    passes touch only the runs that hold its rows, the
    runs those meet and their kept rows, so its cost follows its own
    size and not the input's."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    n = len(u)
    if n < _DENSE_ROWS:
        du, dv = np.abs(u[:, None] - u), np.abs(v[:, None] - v)
        i, j = np.nonzero((np.minimum(du, TWO_PI - du) < tol)
                          & (np.minimum(dv, TWO_PI - dv) < tol))
        earlier = j < i
        return _decide(np.zeros(n, dtype=bool), i[earlier], j[earlier])
    if not n:
        return np.zeros(0, dtype=bool)
    order, edge, run, ptr, nbr = _cell_runs(u, v, tol)
    tight = _tight_runs(u, v, tol, order, edge, run)
    edges = np.flatnonzero(edge)
    starts = edges[:-1]
    lengths = edges[1:] - starts
    run_of = np.empty(n, dtype=np.int64)
    run_of[order] = run
    # Per run: its rows in earlier blocks, order[starts[t]:starts[t] +
    # done[t]]; its kept rows among them, kept_rows[starts[t]:starts[t] +
    # held[t]]; and, in a block of several, its rows in the block, which
    # count holds while the block finds its candidates.
    done, held, count = (np.zeros(len(starts), dtype=np.int64)
                         for _ in range(3))
    kept_rows = np.empty(n, dtype=np.int64)
    kept = np.zeros(n, dtype=bool)
    s = 0
    while s < n:
        e = min(n, s + _DEDUP_ROWS)
        r = run_of[s:e]
        chain = tight[r]
        # A row of a tight run holding a kept row is not kept, and meets
        # no row.
        blocked = chain & (held[r] > 0)
        whole = not s and e == n
        if not whole:
            np.add.at(count, r[~blocked], 1)
        # Each block row i meets the runs y that its run meets, as
        # candidates their block rows order[start:start + size].
        degree = ptr[r + 1] - ptr[r]
        degree[blocked] = 0
        loose = np.flatnonzero(~chain)
        i = np.concatenate((np.repeat(np.arange(s, e), degree), s + loose))
        y = np.concatenate((nbr[_ranges(ptr[r], degree)], r[loose]))
        if whole:
            start, size = starts[y], lengths[y]
        else:
            start, size = starts[y] + done[y], count[y]
            count[r] = 0
        if s:
            # A row near a kept one is not kept.
            hit, _ = _close_pairs(u, v, tol, kept_rows, i, starts[y], held[y])
            blocked[hit - s] = True
            size[blocked[i - s]] = 0
        # The others meet the earlier rows of the block among the first
        # i - s block rows of a run.  The block ends before these
        # candidates pass _DEDUP_PAIRS; its first row has none.
        np.minimum(size, i - s, out=size)
        if size.sum() > _DEDUP_PAIRS:
            e = s + int(np.searchsorted(
                np.cumsum(np.bincount(i - s, size, e - s)), _DEDUP_PAIRS,
                "right"))
            inside = i < e
            i, start, size = i[inside], start[inside], size[inside]
            blocked, r, chain = blocked[:e - s], r[:e - s], chain[:e - s]
        i, j = _close_pairs(u, v, tol, order, i, start, size)
        i, j = i - s, j - s
        if s:
            i, j = i[~blocked[j]], j[~blocked[j]]
        # The block rows of a tight run without a kept row form a chain
        # from its first one.
        kept[s:e] = _decide(blocked, i, j, chain,
                            order[starts[r] + done[r]] - s)
        if e < n:
            if not s:
                position = np.empty(n, dtype=np.int64)
                position[order] = np.arange(n)
            np.add.at(done, r, 1)
            # The block's kept rows, filed under their runs.
            at = np.sort(position[s:e][kept[s:e]])
            t = run[at]
            kept_rows[starts[t] + held[t] + np.arange(len(t))
                      - np.searchsorted(t, t)] = order[at]
            np.add.at(held, t, 1)
        s = e
    return kept


@dataclass(frozen=True)
class Geodesic:
    """Complete geodesic named by its two distinct ideal endpoints.

    When produced by :func:`axis` the order is (repelling, attracting).
    """

    a: IdealPoint
    b: IdealPoint

    def __post_init__(self):
        if same_ideal_point(self.a, self.b):
            raise ValidationError("geodesic endpoints coincide")

    @classmethod
    def from_boundary(cls, u: float, v: float) -> "Geodesic":
        return cls(IdealPoint.from_boundary(u), IdealPoint.from_boundary(v))

    @classmethod
    def from_angles(cls, ta: float, tb: float) -> "Geodesic":
        return cls(IdealPoint(ta), IdealPoint(tb))


def classify_isometry(m: Isometry, trace_tol: float = TRACE_TOL) -> str:
    """One of 'identity', 'elliptic', 'parabolic', 'hyperbolic'.

    The identity gets its own class so degenerate generators can be
    rejected explicitly instead of being lumped with rotations.
    """
    if (abs(m.a - 1.0) <= 1e-12 and abs(m.d - 1.0) <= 1e-12
            and abs(m.b) <= 1e-12 and abs(m.c) <= 1e-12):
        return "identity"
    t = abs(m.trace())
    if t < 2.0 - trace_tol:
        return "elliptic"
    if t <= 2.0 + trace_tol:
        return "parabolic"
    return "hyperbolic"


def apply_isometry(m: Isometry, p: HPoint) -> HPoint:
    """Mobius action (a*z + b)/(c*z + d) on the half-plane."""
    z = p.as_complex()
    den = m.c * z + m.d
    if abs(den) < 1e-14:
        raise NumericDegeneracyError("denominator c*z + d collapsed")
    w = (m.a * z + m.b) / den
    try:
        return HPoint(w.real, w.imag)
    except ValidationError as exc:
        raise NumericDegeneracyError(
            f"image of ({p.x}, {p.y}) collapsed onto the boundary"
        ) from exc


def hyperbolic_distance(p: HPoint, q: HPoint) -> float:
    """arccosh(1 + |p - q|^2 / (2 * p.y * q.y))."""
    dx = p.x - q.x
    dy = p.y - q.y
    arg = 1.0 + (dx * dx + dy * dy) / (2.0 * p.y * q.y)
    return math.acosh(max(1.0, arg))


def _fixed_points(m: Isometry) -> tuple[float, float]:
    """Boundary fixed points of a hyperbolic m as (repelling, attracting)."""
    a, b, c, d = m.a, m.b, m.c, m.d
    if c == 0.0:
        # t = b/(d - a) and the point at infinity; attracting where the
        # derivative of the boundary map is < 1 in modulus.
        t = b / (d - a)
        return (t, INF) if abs(a) > abs(d) else (INF, t)
    disc = (d - a) * (d - a) + 4.0 * b * c
    if disc <= 0.0:
        raise NotHyperbolicError("no real axis: discriminant <= 0")
    sq = math.sqrt(disc)
    # Larger-magnitude root first to dodge cancellation, partner via Vieta.
    if a - d >= 0.0:
        t1 = ((a - d) + sq) / (2.0 * c)
    else:
        t1 = ((a - d) - sq) / (2.0 * c)
    if t1 != 0.0:
        t2 = (-b / c) / t1
    else:
        t2 = ((a - d) - sq) / (2.0 * c) if a - d >= 0.0 \
            else ((a - d) + sq) / (2.0 * c)
    # |c*t + d| > 1 means the boundary derivative 1/(c*t+d)^2 contracts.
    if abs(c * t1 + d) > abs(c * t2 + d):
        return (t2, t1)
    return (t1, t2)


def axis(m: Isometry, trace_tol: float = TRACE_TOL) -> Geodesic:
    """Invariant geodesic of a hyperbolic isometry, repelling -> attracting."""
    kind = classify_isometry(m, trace_tol)
    if kind != "hyperbolic":
        raise NotHyperbolicError(f"axis undefined for {kind} isometry")
    rep, att = _fixed_points(m)
    return Geodesic(IdealPoint.from_boundary(rep),
                    IdealPoint.from_boundary(att))


def translation_length(m: Isometry, trace_tol: float = TRACE_TOL) -> float:
    """2 * arccosh(|trace| / 2) along the axis."""
    kind = classify_isometry(m, trace_tol)
    if kind != "hyperbolic":
        raise NotHyperbolicError(
            f"translation length undefined for {kind} isometry"
        )
    return 2.0 * math.acosh(abs(m.trace()) / 2.0)


def boundary_action(m: Isometry, p: IdealPoint) -> IdealPoint:
    """Mobius action on boundary points, in canonical angle form."""
    t = p.boundary
    if t == INF:
        if m.c == 0.0:
            return IdealPoint.infinity()
        return IdealPoint.from_boundary(m.a / m.c)
    den = m.c * t + m.d
    if den == 0.0:
        return IdealPoint.infinity()
    image = (m.a * t + m.b) / den
    if not math.isfinite(image):
        return IdealPoint.infinity()
    return IdealPoint.from_boundary(image)


def _boundary_angles(t):
    """``IdealPoint.from_boundary(t).theta`` per element of the array t,
    bit for bit: 0.0 at +INF, elsewhere libm's atan2 element by element,
    reduced as ``angle_from_boundary`` and ``IdealPoint`` reduce it.
    numpy's SIMD arctan2 differs from libm's in the last bit on some inputs
    (21,716 of 500,000 images of random boundary points under the radius-5
    ball of schottky_ab, AVX-512 Xeon, numpy 2.4), which would move output
    bytes.  Call it under ``np.errstate(all="ignore")``.

    atan2 lies in [-pi, pi], where the two ``% TWO_PI`` add 2*pi to a
    negative angle, turn -0.0 into 0.0 and, where the sum rounds to 2*pi,
    the second one turns that into 0.0; so do the steps here."""
    y, x = -2.0 * t, t * t - 1.0
    theta = np.fromiter(map(math.atan2, y.ravel().tolist(),
                            x.ravel().tolist()), float, t.size)
    theta = theta.reshape(t.shape)
    theta = np.where(theta < 0.0, theta + TWO_PI, theta + 0.0)
    theta[(theta == TWO_PI) | (t == INF)] = 0.0
    return theta


def _complex_quotient(ar, ai, br, bi):
    """(ar + ai*i) / (br + bi*i) on arrays by CPython's complex division
    (Smith's method), written out so that every rounding step is the same.
    Where both parts of the divisor are zero CPython raises; here the
    quotient is not finite.  Call it under ``np.errstate(all="ignore")``."""
    wide = np.abs(br) >= np.abs(bi)
    ratio = np.where(wide, bi / br, br / bi)
    denom = np.where(wide, br + bi * ratio, br * ratio + bi)
    return (np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom)


def boundary_images(a, b, c, d, points) -> np.ndarray:
    """Angles of g(p), a row per isometry g with entries a, b, c, d and a
    column per ideal point p: ``boundary_action(g, p).theta`` bit for bit,
    in every branch."""
    t = np.array([p.boundary for p in points], dtype=float)
    a, b, c, d = (np.asarray(x, dtype=float)[:, None] for x in (a, b, c, d))
    with np.errstate(all="ignore"):
        image = (a * t + b) / (c * t + d)
        image[~np.isfinite(image)] = INF
        image = np.where(t == INF, np.where(c == 0.0, INF, a / c), image)
        return _boundary_angles(image)


def ball_products(letters, k: int):
    """``(parent, letter, g)`` of the words of length <= k in ``letters``
    (isometries x1, x1^-1, x2, x2^-1, ..., so a letter never follows its
    partner), length by length, each word's children in letter order:
    word i is word ``parent[i]`` then ``letters[letter[i]]`` (both -1 for
    the empty word, first), and row ``g[i]`` holds its product's a, b, c, d.
    Each product is the chained ``Isometry.compose`` from the identity,
    bit for bit: products, Dekker determinant, the ``_RENORM_CAP`` test,
    square-root normalisation and sign canonicalisation.  A product that
    overflows or whose determinant collapses raises what ``compose``
    raises, for the first such word."""
    # Each matrix [[a, b], [c, d]] is a column of these (2, 2, n) arrays.
    mats = np.array([(m.a, m.b, m.c, m.d) for m in letters],
                    dtype=float).T.reshape(2, 2, -1)
    n = len(letters)
    # The letters that may follow each letter: all but its partner.
    follow = np.array([[x for x in range(n) if x != i ^ 1] for i in range(n)])
    front = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])
    weights = np.array([[[8.0], [4.0]], [[2.0], [1.0]]])
    last = np.array([-1])  # letter index of each word's last letter
    start = 0              # where the level of ``front`` starts
    levels, parents, lasts = [front], [last], [last]
    parent, letter = np.zeros(n, dtype=np.int64), np.arange(n)  # length 1
    with np.errstate(all="ignore"):
        for length in range(k):
            if length:
                parent = np.repeat(np.arange(len(last)), n - 1)
                letter = follow[last].ravel()
            m1, m2 = np.take(front, parent, 2), np.take(mats, letter, 2)
            # Row i, column j: m1[i, 0] * m2[0, j] + m1[i, 1] * m2[1, j].
            g = m1[:, :1] * m2[:1] + m1[:, 1:] * m2[1:]
            big = np.abs(g).max(axis=(0, 1))
            small = big <= _RENORM_CAP
            # _det(a, b, c, d), its two products a*d and b*c at once, from
            # one Dekker split of all four entries: _two_product's steps.
            high = _SPLIT * g
            high = high - (high - g)
            low = g - high
            x, xh, xl = g[0], high[0], low[0]
            y, yh, yl = g[1, ::-1], high[1, ::-1], low[1, ::-1]
            p = x * y
            e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
            det = (p[0] - p[1]) + (e[0] - e[1])
            # A small product needs det > 0, any other finite entries: the
            # largest |entry| is not finite where an entry is not.
            ok = np.where(small, det > 0.0, big < np.inf)
            if not ok.all():
                bad = ok.argmin()
                Isometry._raw(*m1[..., bad].ravel().tolist()).compose(
                    letters[letter[bad]])
                raise NumericDegeneracyError(
                    f"product {bad}: the scalar product is fine, the array "
                    "one is not")
            # x / 1.0 is x: the products left unnormalised stay as they are.
            g = g / np.sqrt(np.where(small, det, 1.0))
            # 8 sign(a) + 4 sign(b) + 2 sign(c) + sign(d) has the sign of
            # the first nonzero entry.
            flip = (weights * np.sign(g)).sum(axis=(0, 1)) < 0.0
            front = np.where(flip, -g, g)
            parents.append(parent + start)
            start += len(last)
            last = letter
            levels.append(front)
            lasts.append(last)
    return (np.concatenate(parents), np.concatenate(lasts),
            np.concatenate(levels, axis=2).reshape(4, -1).T)


def orbit_points(a, b, c, d, p: HPoint):
    """Disk coordinates (x, y) of g(p), one per isometry g with entries a,
    b, c, d: ``to_disk(apply_isometry(g, p))`` bit for bit, with CPython's
    complex steps written out; and a mask of the isometries for which
    ``apply_isometry`` surely does not raise.  Elsewhere the scalar path
    decides: it raises, or gives these coordinates."""
    x, y = p.x, p.y
    with np.errstate(all="ignore"):
        # CPython 3.11 computes f*z + g, floats f and g, as complex(f, 0.0)
        # * z + complex(g, 0.0).  With x and y finite and y > 0, the terms
        # this adds are +0.0 and change nothing but an imaginary -0.0.
        nr, ni = a * x + b, a * y + 0.0
        dr, di = c * x + d, c * y + 0.0
        wr, wi = _complex_quotient(nr, ni, dr, di)
        # abs(c*z + d) is the hypot of its parts: no smaller than the
        # larger part, and finite (no OverflowError) while that is at most
        # 1e307.
        big = np.maximum(np.abs(dr), np.abs(di))
        fine = ((big >= 1e-14) & (big <= 1e307) & np.isfinite(wr)
                & np.isfinite(wi) & (wi > 1e-12))
        return (*_complex_quotient(wr - 0.0, wi - 1.0, wr + 0.0, wi + 1.0),
                fine)


def is_hyperbolic(a, b, c, d, trace_tol: float = TRACE_TOL) -> np.ndarray:
    """``classify_isometry(g, trace_tol) == "hyperbolic"`` per isometry g
    with finite entries a, b, c, d."""
    identity = ((np.abs(a - 1.0) <= 1e-12) & (np.abs(d - 1.0) <= 1e-12)
                & (np.abs(b) <= 1e-12) & (np.abs(c) <= 1e-12))
    t = np.abs(a + d)
    return ~identity & ~(t < 2.0 - trace_tol) & ~(t <= 2.0 + trace_tol)


def axis_angles(a, b, c, d):
    """Endpoint angles, one (repelling, attracting) row per hyperbolic
    isometry with entries a, b, c, d: ``to_disk(axis(g))`` bit for bit,
    through the branches of ``_fixed_points`` and libm's atan2; and a mask
    of the isometries whose ``axis`` does not raise."""
    with np.errstate(all="ignore"):
        flat = c == 0.0
        amd = a - d
        disc = (d - a) * (d - a) + 4.0 * b * c
        sq = np.sqrt(disc)
        up = amd >= 0.0
        t1 = np.where(up, amd + sq, amd - sq) / (2.0 * c)
        t2 = np.where(t1 != 0.0, (-b / c) / t1,
                      np.where(up, amd - sq, amd + sq) / (2.0 * c))
        swap = np.abs(c * t1 + d) > np.abs(c * t2 + d)
        t = b / (d - a)
        out = np.abs(a) > np.abs(d)
        rep = np.where(flat, np.where(out, t, INF), np.where(swap, t2, t1))
        att = np.where(flat, np.where(out, INF, t), np.where(swap, t1, t2))
        ends = _boundary_angles(np.stack([rep, att], axis=1))
        # _fixed_points divides by d - a when c == 0 and refuses disc <= 0;
        # IdealPoint refuses a non-finite angle and Geodesic endpoints
        # closer than ANGLE_TOL.
        fine = (np.where(flat, d - a != 0.0, disc > 0.0)
                & np.isfinite(ends).all(axis=1)
                & (angular_gaps(ends[:, 0], ends[:, 1]) >= ANGLE_TOL))
    return ends, fine


def geodesic_intersections(first, second, i, j):
    """Disk coordinates (x, y) of the points where geodesic ``i[k]`` of
    ``first`` crosses geodesic ``j[k]`` of ``second``, for pairs that
    cross; ``first`` and ``second`` hold one row of endpoint angles per
    geodesic.  Bit for bit ``to_disk(geodesic_intersection(...))`` of the
    ``Geodesic.from_angles`` of the rows.  Carriers are computed once per
    geodesic.  A degenerate pair raises what the scalar path raises, for
    the first such k."""
    first, second = (np.asarray(ends, dtype=float).reshape(-1, 2)
                     for ends in (first, second))
    # boundary_from_angle per endpoint, with libm's sin and cos (see
    # _boundary_angles on numpy's SIMD transcendentals).
    half = np.concatenate([first, second]) % TWO_PI / 2.0
    values = half.ravel().tolist()
    s, c = (np.fromiter(map(f, values), float, half.size).reshape(half.shape)
            for f in (math.sin, math.cos))
    with np.errstate(all="ignore"):
        u, v = np.where(s == 0.0, INF, -c / s).T
        # _carrier: a line at the finite end, or a circle.  No geodesic has
        # both ends at infinity: they would coincide.
        at_u = u == INF
        line = at_u | (v == INF)
        x0 = np.where(at_u, v, u)
        cx, r = (u + v) / 2.0, np.abs(u - v) / 2.0
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        k = len(first) + j
        line1, line2 = line[i], line[k]
        cx1, cx2, r1, r2 = cx[i], cx[k], r[i], r[k]
        # One line: x at the line, (cx, r) of the circle.
        x_line = np.where(line1, x0[i], x0[k])
        cx_line = np.where(line1, cx2, cx1)
        r_line = np.where(line1, r2, r1)
        y2_line = r_line * r_line - (x_line - cx_line) * (x_line - cx_line)
        # Two circles.
        x_circ = ((r1 * r1 - r2 * r2 + cx2 * cx2 - cx1 * cx1)
                  / (2.0 * (cx2 - cx1)))
        y2_circ = r1 * r1 - (x_circ - cx1) * (x_circ - cx1)
        one_line = line1 != line2
        x = np.where(one_line, x_line, x_circ)
        y2 = np.where(one_line, y2_line, y2_circ)
        y = np.sqrt(y2)
        # A pair fails this test exactly when the scalar path raises on
        # it: parallel, concentric and grazing carriers leave x or y
        # non-finite or y at most 1e-12, and HPoint refuses the rest.  The
        # first such pair goes through the scalar path, which raises.
        fine = np.isfinite(x) & np.isfinite(y) & (y > 1e-12)
        if not fine.all():
            bad = fine.argmin()
            _carrier_meet(Geodesic.from_angles(*first[i[bad]].tolist()),
                          Geodesic.from_angles(*second[j[bad]].tolist()))
            raise NumericDegeneracyError(
                f"pair {bad}: the scalar carriers meet, the array ones "
                "do not")
        # to_disk: (z - i)/(z + i).
        return _complex_quotient(x - 0.0, y - 1.0, x + 0.0, y + 1.0)


def geodesic_relation(g1: Geodesic, g2: Geodesic,
                      tol: float = ANGLE_TOL) -> str:
    """'equal', 'share_endpoint', 'cross', or 'disjoint'.

    Crossing means the endpoint pairs strictly interleave on the circle.
    """
    a1, b1 = g1.a.theta, g1.b.theta
    a2, b2 = g2.a.theta, g2.b.theta
    matches = 0
    for u in (a1, b1):
        for v in (a2, b2):
            if angular_gap(u, v) < tol:
                matches += 1
    if matches >= 2:
        return "equal"
    if matches == 1:
        return "share_endpoint"
    beta = (b1 - a1) % TWO_PI
    x = (a2 - a1) % TWO_PI
    y = (b2 - a1) % TWO_PI
    return "cross" if (x < beta) != (y < beta) else "disjoint"


def _carrier(g: Geodesic):
    """Half-plane carrier: ('line', x0) or ('circle', center, radius)."""
    u = g.a.boundary
    v = g.b.boundary
    if u == INF and v == INF:
        raise NumericDegeneracyError("degenerate geodesic at infinity")
    if u == INF:
        return ("line", v)
    if v == INF:
        return ("line", u)
    return ("circle", (u + v) / 2.0, abs(u - v) / 2.0)


def geodesic_intersection(g1: Geodesic, g2: Geodesic,
                          tol: float = ANGLE_TOL) -> HPoint:
    """Unique crossing point of two transverse geodesics."""
    if geodesic_relation(g1, g2, tol) != "cross":
        raise NoIntersectionError("geodesics do not cross")
    return _carrier_meet(g1, g2)


def _carrier_meet(g1: Geodesic, g2: Geodesic) -> HPoint:
    """Where the carriers of two crossing geodesics meet."""
    c1 = _carrier(g1)
    c2 = _carrier(g2)
    if c1[0] == "line" and c2[0] == "line":
        raise NoIntersectionError("parallel vertical carriers")
    if c1[0] == "line" or c2[0] == "line":
        line, circ = (c1, c2) if c1[0] == "line" else (c2, c1)
        x = line[1]
        _, cx, r = circ
        y2 = r * r - (x - cx) * (x - cx)
        if y2 <= 0.0:
            raise NumericDegeneracyError("carriers graze tangentially")
        return HPoint(x, math.sqrt(y2))
    _, cx1, r1 = c1
    _, cx2, r2 = c2
    if cx1 == cx2:
        raise NumericDegeneracyError("concentric carriers")
    x = (r1 * r1 - r2 * r2 + cx2 * cx2 - cx1 * cx1) / (2.0 * (cx2 - cx1))
    y2 = r1 * r1 - (x - cx1) * (x - cx1)
    if y2 <= 0.0:
        raise NumericDegeneracyError("carriers graze tangentially")
    return HPoint(x, math.sqrt(y2))


def to_disk(obj):
    """Cayley transport z -> (z - i)/(z + i) into the unit-disk picture.

    HPoint -> (x, y) inside the disk, IdealPoint -> angle, and
    Geodesic -> (angle, angle).
    """
    if isinstance(obj, HPoint):
        z = obj.as_complex()
        w = (z - 1j) / (z + 1j)
        return (w.real, w.imag)
    if isinstance(obj, IdealPoint):
        return obj.theta
    if isinstance(obj, Geodesic):
        return (obj.a.theta, obj.b.theta)
    raise ValidationError(f"cannot map {type(obj).__name__} to the disk")
