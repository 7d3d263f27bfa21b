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
# Determinant agreement required of a freshly normalized matrix.
DET_TOL = 1e-12

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

    def max_entry(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def approx_eq(self, other: "Isometry", tol: float = 1e-9) -> bool:
        return (abs(self.a - other.a) <= tol and abs(self.b - other.b) <= tol
                and abs(self.c - other.c) <= tol
                and abs(self.d - other.d) <= tol)

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

    def close_to(self, other: "IdealPoint", tol: float = ANGLE_TOL) -> bool:
        return angular_gap(self.theta, other.theta) < tol


def same_ideal_point(p: IdealPoint, q: IdealPoint,
                     tol: float = ANGLE_TOL) -> bool:
    return angular_gap(p.theta, q.theta) < tol


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

    def angles(self) -> tuple[float, float]:
        return (self.a.theta, self.b.theta)

    def sorted_angles(self) -> tuple[float, float]:
        ta, tb = self.a.theta, self.b.theta
        return (ta, tb) if ta <= tb else (tb, ta)

    def reversed(self) -> "Geodesic":
        return Geodesic(self.b, self.a)


def classify_isometry(m: Isometry, trace_tol: float | None = None) -> str:
    """One of 'identity', 'elliptic', 'parabolic', 'hyperbolic'.

    The identity gets its own class so degenerate generators can be
    rejected explicitly instead of being lumped with rotations.
    """
    tol = TRACE_TOL if trace_tol is None else trace_tol
    if (abs(m.a - 1.0) <= 1e-12 and abs(m.d - 1.0) <= 1e-12
            and abs(m.b) <= 1e-12 and abs(m.c) <= 1e-12):
        return "identity"
    t = abs(m.trace())
    if t < 2.0 - tol:
        return "elliptic"
    if t <= 2.0 + tol:
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


def axis(m: Isometry, trace_tol: float | None = None) -> Geodesic:
    """Invariant geodesic of a hyperbolic isometry, repelling -> attracting."""
    kind = classify_isometry(m, trace_tol)
    if kind != "hyperbolic":
        raise NotHyperbolicError(f"axis undefined for {kind} isometry")
    rep, att = _fixed_points(m)
    return Geodesic(IdealPoint.from_boundary(rep),
                    IdealPoint.from_boundary(att))


def translation_length(m: Isometry, trace_tol: float | None = None) -> float:
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


def geodesic_relation(g1: Geodesic, g2: Geodesic,
                      tol: float | None = None) -> str:
    """'equal', 'share_endpoint', 'cross', or 'disjoint'.

    Crossing means the endpoint pairs strictly interleave on the circle.
    """
    eps = ANGLE_TOL if tol is None else tol
    a1, b1 = g1.a.theta, g1.b.theta
    a2, b2 = g2.a.theta, g2.b.theta
    matches = 0
    for u in (a1, b1):
        for v in (a2, b2):
            if angular_gap(u, v) < eps:
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
                          tol: float | None = None) -> HPoint:
    """Unique crossing point of two transverse geodesics."""
    if geodesic_relation(g1, g2, tol) != "cross":
        raise NoIntersectionError("geodesics do not cross")
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
