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

import numpy as np

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
    # The endpoint angles (ta, tb) of each geodesic, one row each.
    ends: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    # Disk points, (x, y) rows, and boundary angles.
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    boundary_angles: np.ndarray = field(default_factory=lambda: np.empty(0))


def _coerce_layer(label, payload) -> _Layer:
    layer = _Layer(label=label)
    if isinstance(payload, GeodesicFamily):
        layer.ends = np.column_stack((payload.ta, payload.tb))
    elif isinstance(payload, LaminationApprox):
        layer.ends = np.column_stack((payload.leaves["a_angle"],
                                      payload.leaves["b_angle"]))
    elif isinstance(payload, LimitSetSample):
        layer.points = payload.orbit
        layer.boundary_angles = payload.fixed_point_angles
    elif isinstance(payload, (list, tuple)):
        ends, points = [], []
        for item in payload:
            if isinstance(item, Geodesic):
                ends.append((item.a.theta, item.b.theta))
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                points.append((float(item[0]), float(item[1])))
            else:
                raise ValidationError(
                    f"cannot render item of type {type(item).__name__}"
                )
        layer.ends = np.array(ends, dtype=float).reshape(-1, 2)
        layer.points = np.array(points, dtype=float).reshape(-1, 2)
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
# "%.9f" writes what _fmt writes.  A path takes its endpoints ("x y") and
# its radius as ready-made text.
_POINT = '<circle cx="%%.9f" cy="%%.9f" r="%s"/>' % _fmt(POINT_RADIUS)
_BOUNDARY_POINT = ('<circle cx="%%.9f" cy="%%.9f" r="%s"/>'
                   % _fmt(BOUNDARY_POINT_RADIUS))
_CHORD = '<path d="M %s L %s"/>'
_ARC = '<path d="M %s A %s %s 0 0 %d %.9f %.9f A %s %s 0 0 %d %s"/>'


def _libm(func, *args: np.ndarray) -> np.ndarray:
    """``func`` of the math module on the flat arrays ``args`` element by
    element: numpy's SIMD cos, sin and arctan2 differ from libm's in the
    last bit on some CPUs, which would move output bytes."""
    return np.fromiter(map(func, *(x.tolist() for x in args)), float,
                       len(args[0]))


class _Canvas:
    """The canvas coordinates of a ``size`` x ``size`` picture and the
    elements drawn on it, computed for a whole layer at once.  A point
    layer's elements come out as one text, an element to a line, from one
    ``%`` call over its template; a layer's paths as a list."""

    def __init__(self, size: int):
        self.cx = size / 2.0
        self.cy = size / 2.0
        self.scale = size / 2.0 - MARGIN
        # Canvas coordinates of disk points, (x, y) rows of (2, n) arrays,
        # are offset + factor * (x, y): cy - scale * y is cy + (-scale) * y
        # exactly.
        self.offset = np.array([[self.cx], [self.cy]])
        self.factor = np.array([[self.scale], [-self.scale]])

    def _circles(self, template, xy) -> str:
        """``template`` at the canvas point of each disk point, the (x, y)
        rows of the (2, n) array ``xy``, one element to a line.  Python's
        float arithmetic overflows to inf silently, so numpy's does here
        too."""
        with np.errstate(over="ignore"):
            xy = self.offset + self.factor * xy + 0.0
        return ("\n".join([template] * xy.shape[1])
                % tuple(xy.T.ravel().tolist()))

    def points(self, points) -> str:
        """The orbit point elements of disk points, an (n, 2) array or a
        sequence of ``(x, y)``."""
        return self._circles(
            _POINT, np.asarray(points, dtype=float).reshape(-1, 2).T)

    def boundary_points(self, angles) -> str:
        """The boundary point elements of disk angles."""
        angles = np.asarray(angles, dtype=float)
        return self._circles(_BOUNDARY_POINT, np.array(
            (_libm(math.cos, angles), _libm(math.sin, angles))))

    def geodesics(self, ends: np.ndarray) -> list[str]:
        """The path element of each geodesic, a row of endpoint angles
        (ta, tb), computed for all rows at once in the steps of the one-arc
        computation, bit for bit (the scalar reference is in
        ``tests/conftest.py``).

        A geodesic with boundary points u, v is the arc of the circle of
        center C = (u + v)/(1 + u.v) and radius r = sqrt(|C|^2 - 1)
        (rounding can take |C|^2 just below 1 for endpoints a hair apart,
        so r is clamped at 0), or the chord uv for nearly antipodal points.
        The minor arc, the one inside the disk, goes out as two half-arcs
        split at its deepest point, so that each segment's central angle
        stays below pi/2 and the coordinates re-determine the center in a
        well-conditioned way.  Each distinct endpoint angle's canvas
        coordinates, and each radius, are formatted once."""
        if not len(ends):
            return []
        offset, factor = self.offset, self.factor
        # The distinct endpoint angles, told apart by their bits, and each
        # row's two indices among them.
        bits, at = np.unique(
            np.ascontiguousarray(ends, dtype=float).view(np.int64),
            return_inverse=True)
        angles, at = bits.view(float), at.reshape(-1, 2)
        # Points and vectors are (x, y) rows of (2, n) arrays.
        unit = np.array((_libm(math.cos, angles), _libm(math.sin, angles)))
        texts = ["%.9f %.9f" % xy
                 for xy in zip(*(offset + factor * unit + 0.0).tolist())]
        pairs = unit[:, at]
        u, v = pairs[..., 0], pairs[..., 1]
        uv = u * v
        one_dot = 1.0 + (uv[0] + uv[1])
        with np.errstate(all="ignore"):
            center = (u + v) / one_dot
            square = center * center
            # r2 is never -0.0 (x - 1.0 is +0.0 at x = 1.0), so this is
            # max(r2, 0.0) as Python takes it, NaN included.
            r = np.sqrt(np.maximum(square[0] + square[1] - 1.0, 0.0))
            du, dv = u - center, v - center
            alpha_u = _libm(math.atan2, du[1], du[0])
            delta = (_libm(math.atan2, dv[1], dv[0]) - alpha_u
                     + math.pi) % TWO_PI - math.pi
            alpha_m = alpha_u + delta / 2.0
            deep = center + r * np.array((_libm(math.cos, alpha_m),
                                          _libm(math.sin, alpha_m)))
            xm, ym = (offset + factor * deep + 0.0).tolist()
            radii = ["%.9f" % x for x in (r * self.scale + 0.0).tolist()]
        # The sweep flag is 1 where delta < 0: canvas y points down.
        return [_CHORD % (texts[a], texts[b]) if flat else
                _ARC % (texts[a], radius, radius, cw, x, y, radius, radius,
                        cw, texts[b])
                for a, b, flat, radius, cw, x, y in zip(
                    *at.T.tolist(), (one_dot <= ANTIPODAL_DOT).tolist(),
                    radii, (delta < 0.0).tolist(), xm, ym)]


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
    # Every layer's paths from one pass over all their rows.
    paths = canvas.geodesics(np.concatenate(
        [layer.ends for layer in layers] or [np.empty((0, 2))]))
    end = 0
    for idx, (layer, gid) in enumerate(zip(layers, ids)):
        color = PALETTE[idx % len(PALETTE)]
        lines.append(f'<g id="{gid}" stroke="{color}" fill="none" '
                     f'stroke-width="{_fmt(STROKE_WIDTH)}">')
        start, end = end, end + len(layer.ends)
        lines += paths[start:end]
        lines.append('</g>')
        if len(layer.points) or len(layer.boundary_angles):
            lines.append(f'<g id="{gid}-points" fill="{color}" '
                         f'stroke="none">')
            lines += filter(None, (
                canvas.points(layer.points),
                canvas.boundary_points(layer.boundary_angles)))
            lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
