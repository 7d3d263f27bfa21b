import math
import re

import pytest

from endlam.errors import ValidationError
from endlam.hyperbolic import Geodesic
from endlam.lamination import juncture_orbit
from endlam.render import MARGIN, render_svg
from endlam.scene import load_scene, scene_path

ARC_PATH_RE = re.compile(
    r'<path d="M (?P<x1>[-\d.]+) (?P<y1>[-\d.]+) '
    r'A (?P<r>[-\d.]+) [-\d.]+ 0 (?P<la>[01]) (?P<sw>[01]) '
    r'(?P<xm>[-\d.]+) (?P<ym>[-\d.]+) '
    r'A (?P<r2>[-\d.]+) [-\d.]+ 0 (?P<la2>[01]) (?P<sw2>[01]) '
    r'(?P<x2>[-\d.]+) (?P<y2>[-\d.]+)"/>'
)
LINE_RE = re.compile(
    r'<path d="M (?P<x1>[-\d.]+) (?P<y1>[-\d.]+) '
    r'L (?P<x2>[-\d.]+) (?P<y2>[-\d.]+)"/>'
)


def to_disk_coords(px, py, size):
    cx = cy = size / 2.0
    scale = size / 2.0 - MARGIN
    return ((px - cx) / scale, (cy - py) / scale)


def parse_arcs(svg, size=1000):
    """Recover (P1, P2, r, sweep) per arc segment, in disk coordinates.

    Geodesic paths carry two arc segments split at the deepest point;
    both are checked independently.
    """
    out = []
    scale = size / 2.0 - MARGIN
    for m in ARC_PATH_RE.finditer(svg):
        p1 = to_disk_coords(float(m["x1"]), float(m["y1"]), size)
        pm = to_disk_coords(float(m["xm"]), float(m["ym"]), size)
        p2 = to_disk_coords(float(m["x2"]), float(m["y2"]), size)
        out.append((p1, pm, float(m["r"]) / scale, int(m["sw"])))
        out.append((pm, p2, float(m["r2"]) / scale, int(m["sw2"])))
    return out


def orthogonal_center(p1, p2, r):
    """Candidate circle center with |C| > 1 from endpoints and radius."""
    mx, my = (p1[0] + p2[0]) / 2.0, (p1[1] + p2[1]) / 2.0
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    d = math.hypot(dx, dy)
    h2 = r * r - (d / 2.0) ** 2
    assert h2 >= -1e-12
    h = math.sqrt(max(0.0, h2))
    nx, ny = -dy / d, dx / d
    candidates = [(mx + h * nx, my + h * ny), (mx - h * nx, my - h * ny)]
    return max(candidates, key=lambda c: math.hypot(*c))


def svg_spec_center(p1, p2, r, large, sweep):
    """Center as an SVG renderer would compute it (spec section F.6.5),
    for circular arcs in a y-down coordinate system."""
    vx, vy = (p1[0] - p2[0]) / 2.0, (p1[1] - p2[1]) / 2.0
    norm2 = vx * vx + vy * vy
    k2 = (r * r - norm2) / norm2
    k = math.sqrt(max(0.0, k2))
    sign = 1.0 if large != sweep else -1.0
    cxp = sign * k * vy
    cyp = sign * k * -vx
    return (cxp + (p1[0] + p2[0]) / 2.0, cyp + (p1[1] + p2[1]) / 2.0)


def shipped_layers(name, horizon=4, ball=1):
    scene = load_scene(scene_path(name))
    layers = []
    for j in scene.junctures:
        fam = juncture_orbit(scene, j, range(-horizon, horizon + 1), ball)
        layers.append((f"junctures-{j.end}", fam))
    return layers


class TestGeodesicArcs:
    def test_diameter_for_antipodal(self):
        svg = render_svg([("g", [Geodesic.from_angles(0.0, math.pi)])])
        assert LINE_RE.search(svg)
        assert "A " not in svg

    def test_quarter_arc_orthogonal(self):
        # Orthogonal-circle oracle: for angles 0 and 90 degrees the center
        # is (u + v)/(1 + 0) = (1, 1) and r = 1, so |C|^2 - r^2 = 1.
        svg = render_svg([("g", [Geodesic.from_angles(0.0, math.pi / 2)])])
        arcs = parse_arcs(svg)
        assert len(arcs) == 2  # split at the deepest point
        for p1, p2, r, _ in arcs:
            c = orthogonal_center(p1, p2, r)
            assert abs(c[0] - 1) < 1e-9 and abs(c[1] - 1) < 1e-9
            assert abs(r - 1) < 1e-9

    def test_size_scales_the_canvas(self):
        svg = render_svg([("g", [Geodesic.from_angles(0.0, math.pi / 2)])],
                         size=400)
        assert 'width="400" height="400" viewBox="0 0 400 400"' in svg
        assert 'r="190.000000000"' in svg  # boundary circle
        for p1, p2, r, _ in parse_arcs(svg, size=400):
            c = orthogonal_center(p1, p2, r)
            assert abs(c[0] - 1) < 1e-9 and abs(c[1] - 1) < 1e-9

    def test_every_shipped_arc_orthogonal(self):
        for name in ("schottky_ab.json", "golden.json", "inner_b.json"):
            svg = render_svg(shipped_layers(name))
            arcs = parse_arcs(svg)
            assert arcs
            for p1, p2, r, _ in arcs:
                c = orthogonal_center(p1, p2, r)
                residual = abs(c[0] ** 2 + c[1] ** 2 - r * r - 1.0)
                assert residual < 1e-9

    def test_endpoints_a_hair_apart(self):
        # Rounding puts the center of this arc a hair inside the unit
        # circle; its radius is drawn as 0 instead of failing the render.
        t = 0.16974793006237798
        svg = render_svg([("g", [Geodesic.from_angles(
            t, t + 2.978913782209841e-09)])])
        assert [r for _, _, r, _ in parse_arcs(svg)] == [0.0, 0.0]

    def test_drawn_arc_stays_inside_disk(self):
        svg = render_svg(shipped_layers("schottky_ab.json"))
        for p1, p2, r, sweep in parse_arcs(svg):
            c = svg_spec_center(p1, p2, r, 0, sweep)
            mx, my = (p1[0] + p2[0]) / 2.0, (p1[1] + p2[1]) / 2.0
            ux, uy = mx - c[0], my - c[1]
            n = math.hypot(ux, uy)
            mid = (c[0] + r * ux / n, c[1] + r * uy / n)
            assert math.hypot(*mid) < 1.0


class TestDeterminism:
    def test_byte_identical_across_runs(self):
        layers = shipped_layers("schottky_ab.json")
        assert render_svg(layers) == render_svg(layers)

    def test_empty_input_boundary_only(self):
        svg = render_svg([])
        assert svg.count("<circle") == 1
        assert "<path" not in svg

    def test_two_families_two_groups(self):
        svg = render_svg([
            ("first", [Geodesic.from_angles(0.1, 1.0)]),
            ("second", [Geodesic.from_angles(2.0, 3.0)]),
        ])
        assert '<g id="first"' in svg
        assert '<g id="second"' in svg
        colors = re.findall(r'<g id="[^"]+" stroke="(#\w+)"', svg)
        assert colors[0] != colors[1]

    def test_bad_style_rejected(self):
        # The disk needs more than the two margins (2 * 10 pixels).
        for size in (-5, 0, 20):
            with pytest.raises(ValidationError):
                render_svg([], size=size)
        assert render_svg([], size=21).startswith("<?xml")


class TestGolden:
    @pytest.mark.parametrize("name", ["schottky_ab", "golden", "inner_b"])
    def test_matches_golden_file(self, name):
        import pathlib
        golden = pathlib.Path(__file__).parent / "golden" / f"{name}.svg"
        svg = render_svg(shipped_layers(f"{name}.json"))
        assert svg.encode() == golden.read_bytes()
