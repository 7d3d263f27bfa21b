"""Disk pictures as SVG: geodesic arcs orthogonal to the unit circle.

A geodesic with boundary angles u, v is drawn as the arc of the circle
through both points that meets the unit circle at right angles; its
Euclidean center is (u + v)/(1 + u.v) (unit vectors, real dot product),
so |C|^2 - r^2 = 1.  Output is deterministic: fixed element order and
nine-decimal coordinates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import ValidationError
from .group import LimitSetSample
from .hyperbolic import TWO_PI, Geodesic
from .lamination import GeodesicFamily, LaminationApprox

# Endpoint pairs this close to antipodal are drawn as straight chords:
# the orthogonal circle's radius would exceed ~1e3, where nine-decimal
# coordinate quantization can no longer certify orthogonality (and the
# sagitta is far below one pixel anyway).
ANTIPODAL_DOT = 1e-6

# The fixed style: every canvas draws the boundary circle, and layers take
# the palette's colours in turn.
MARGIN = 10.0
STROKE_WIDTH = 1.5
BOUNDARY_WIDTH = 1.0
POINT_RADIUS = 2.5
BOUNDARY_POINT_RADIUS = 3.5
BOUNDARY_COLOR = "#222222"
PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400",
           "#16a085", "#7f8c8d")


def check_size(size: int) -> None:
    """A canvas must leave a disk to draw inside its margins."""
    if size <= 2 * MARGIN:
        raise ValidationError(
            f"canvas size must exceed {2 * MARGIN:g}, twice the margin; "
            f"got {size}")


@dataclass
class _Layer:
    label: str
    # The endpoint angles (ta, tb) of each geodesic.
    ends: list[tuple[float, float]] = field(default_factory=list)
    points: list[tuple[float, float]] = field(default_factory=list)
    boundary_angles: list[float] = field(default_factory=list)


def _coerce_layer(label, payload) -> _Layer:
    layer = _Layer(label=label)
    if isinstance(payload, GeodesicFamily):
        layer.ends = list(zip(payload.ta.tolist(), payload.tb.tolist()))
    elif isinstance(payload, LaminationApprox):
        layer.ends = payload.leaves.tolist()     # (a_angle, b_angle) rows
    elif isinstance(payload, LimitSetSample):
        layer.points = list(payload.orbit)
        layer.boundary_angles = payload.fixed_point_angles
    elif isinstance(payload, (list, tuple)):
        for item in payload:
            if isinstance(item, Geodesic):
                layer.ends.append((item.a.theta, item.b.theta))
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                layer.points.append((float(item[0]), float(item[1])))
            else:
                raise ValidationError(
                    f"cannot render item of type {type(item).__name__}"
                )
    else:
        raise ValidationError(
            f"cannot render family of type {type(payload).__name__}"
        )
    return layer


def _fmt(value: float) -> str:
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.9f}"


# One template per element kind.  Each coordinate goes in as ``x + 0.0``,
# which turns -0.0 into 0.0 and leaves every other float as it is, so
# "%.9f" writes what _fmt writes.
_POINT = '<circle cx="%%.9f" cy="%%.9f" r="%s"/>' % _fmt(POINT_RADIUS)
_BOUNDARY_POINT = ('<circle cx="%%.9f" cy="%%.9f" r="%s"/>'
                   % _fmt(BOUNDARY_POINT_RADIUS))
_CHORD = '<path d="M %.9f %.9f L %.9f %.9f"/>'
_ARC = ('<path d="M %.9f %.9f A %.9f %.9f 0 0 %d %.9f %.9f '
        'A %.9f %.9f 0 0 %d %.9f %.9f"/>')


class _Canvas:
    def __init__(self, size: int):
        self.cx = size / 2.0
        self.cy = size / 2.0
        self.scale = size / 2.0 - MARGIN

    def point(self, x: float, y: float) -> tuple[float, float]:
        return (self.cx + self.scale * x, self.cy - self.scale * y)

    def points(self, points) -> list[str]:
        """The orbit point elements of disk points ``(x, y)``."""
        cx, cy, scale = self.cx, self.cy, self.scale
        return [_POINT % (cx + scale * x + 0.0, cy - scale * y + 0.0)
                for x, y in points]

    def boundary_points(self, angles) -> list[str]:
        """The boundary point elements of disk angles."""
        cx, cy, scale = self.cx, self.cy, self.scale
        return [_BOUNDARY_POINT % (cx + scale * math.cos(t) + 0.0,
                                   cy - scale * math.sin(t) + 0.0)
                for t in angles]


def _geodesic_path(ta: float, tb: float, canvas: _Canvas) -> str:
    ux, uy = math.cos(ta), math.sin(ta)
    vx, vy = math.cos(tb), math.sin(tb)
    x1, y1 = canvas.point(ux, uy)
    x2, y2 = canvas.point(vx, vy)
    dot = ux * vx + uy * vy
    if 1.0 + dot <= ANTIPODAL_DOT:
        return _CHORD % (x1 + 0.0, y1 + 0.0, x2 + 0.0, y2 + 0.0)
    cx = (ux + vx) / (1.0 + dot)
    cy = (uy + vy) / (1.0 + dot)
    # Rounding can take |C|^2 just below 1 for endpoints a hair apart.
    r = math.sqrt(max(cx * cx + cy * cy - 1.0, 0.0))
    # Central angle from u to v; the minor arc is the one inside the disk.
    # Emit it as two half-arcs split at its deepest point, keeping every
    # segment's central angle below pi/2 so the coordinates re-determine
    # the center in a well-conditioned way.
    alpha_u = math.atan2(uy - cy, ux - cx)
    alpha_v = math.atan2(vy - cy, vx - cx)
    delta = (alpha_v - alpha_u + math.pi) % TWO_PI - math.pi
    alpha_m = alpha_u + delta / 2.0
    xm, ym = canvas.point(cx + r * math.cos(alpha_m),
                          cy + r * math.sin(alpha_m))
    sweep = 1 if delta < 0 else 0  # canvas y points down
    r_canvas = r * canvas.scale + 0.0
    return _ARC % (x1 + 0.0, y1 + 0.0, r_canvas, r_canvas, sweep,
                   xm + 0.0, ym + 0.0, r_canvas, r_canvas, sweep,
                   x2 + 0.0, y2 + 0.0)


def _attribute(text: str) -> str:
    """``text`` as the value of a double-quoted XML attribute: ``&``, ``<``
    and ``"`` escaped, every other character as it is."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace('"', "&quot;"))


def numbered_labels(labels) -> list[str]:
    """The labels told apart: a label used once as it is, a label that
    several items share with ``-1``, ``-2``, ... in their order.  These
    are the SVG group ids of layers and the juncture names ``escape``
    prints."""
    counts, seen = Counter(labels), Counter()
    ids = []
    for label in labels:
        if counts[label] > 1:
            seen[label] += 1
            label = f"{label}-{seen[label]}"
        ids.append(label)
    return ids


def render_svg(families, size: int = 1000) -> str:
    """Render labeled families of geodesics and points over the unit disk
    on a ``size`` x ``size`` canvas.

    ``families`` is a sequence of (label, payload) pairs; a payload may be
    a GeodesicFamily, a LaminationApprox, a LimitSetSample, or a plain
    list of Geodesic/point entries.  A geodesic is drawn from its endpoint
    angles: a family's ``ta``/``tb`` rows, a lamination's ``LEAF`` rows,
    a Geodesic's thetas.
    """
    check_size(size)
    canvas = _Canvas(size)
    layers = [_coerce_layer(label, payload) for label, payload in families]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{_fmt(canvas.cx)}" cy="{_fmt(canvas.cy)}" '
        f'r="{_fmt(canvas.scale)}" fill="none" '
        f'stroke="{BOUNDARY_COLOR}" '
        f'stroke-width="{_fmt(BOUNDARY_WIDTH)}"/>',
    ]
    ids = map(_attribute, numbered_labels([layer.label for layer in layers]))
    for idx, (layer, gid) in enumerate(zip(layers, ids)):
        color = PALETTE[idx % len(PALETTE)]
        lines.append(f'<g id="{gid}" stroke="{color}" fill="none" '
                     f'stroke-width="{_fmt(STROKE_WIDTH)}">')
        lines += [_geodesic_path(ta, tb, canvas) for ta, tb in layer.ends]
        lines.append('</g>')
        if layer.points or layer.boundary_angles:
            lines.append(f'<g id="{gid}-points" fill="{color}" '
                         f'stroke="none">')
            lines += canvas.points(layer.points)
            lines += canvas.boundary_points(layer.boundary_angles)
            lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
