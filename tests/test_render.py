import json
import math
import re
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from endlam import hyperbolic
from endlam.errors import SceneError, ValidationError
from endlam.group import LimitSetSample, Word
from endlam.hyperbolic import TWO_PI, Geodesic
from endlam.lamination import (
    GeodesicFamily,
    JunctureSpec,
    juncture_orbit,
)
from endlam.render import (
    ANTIPODAL_DOT,
    BOUNDARY_POINT_RADIUS,
    MARGIN,
    POINT_RADIUS,
    _Canvas,
    _fmt,
    numbered_labels,
    render_svg,
)
from endlam.scene import load_scene, parse_scene, scene_path

from conftest import (
    _geodesic_path,
    reference_boundary_point_elements,
    reference_point_elements,
    torus_ball,
)

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


class TestFamilyLayers:
    """A family is drawn from its angle arrays, with no Geodesic built."""

    def test_no_endpoint_check(self, monkeypatch):
        [(_, family)] = shipped_layers("golden.json")
        calls = []
        check = hyperbolic.same_ideal_point
        monkeypatch.setattr(hyperbolic, "same_ideal_point",
                            lambda *args: calls.append(args) or check(*args))
        svg = render_svg([("j", family)])
        assert calls == []
        assert svg.count("<path") == len(family) > 0

    def test_same_bytes_as_listed_geodesics(self):
        # Angles at both ends of [0, 2 pi), which IdealPoint keeps as they
        # are, on arcs and on a diameter.
        top = math.nextafter(TWO_PI, 0.0)
        pairs = [(0.0, 1.0), (3.0, top), (top, math.pi), (0.0, math.pi),
                 (2.0, 0.5)]
        ta, tb = np.array(pairs).T
        family = GeodesicFamily(
            ta, tb, np.zeros(len(pairs), dtype=np.int64),
            np.arange(len(pairs)),
            junctures=(JunctureSpec("e-", "-", Word((1,))),),
            juncture=np.zeros(1, dtype=np.int64),
            conj=np.zeros(1, dtype=np.int64),
            g=np.array([[1.0, 0.0, 0.0, 1.0]]), ball=torus_ball(0))
        listed = [Geodesic.from_angles(a, b) for a, b in pairs]
        assert [(g.a.theta, g.b.theta) for g in listed] == pairs
        svg = render_svg([("j", family)])
        assert svg == render_svg([("j", listed)])
        assert LINE_RE.search(svg) and ARC_PATH_RE.search(svg)


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


def reference_elements(geodesics, points, angles, size):
    """The path and circle elements of one layer, each coordinate written
    by its own ``_fmt`` call, as ``render_svg`` wrote them before its
    element kinds had templates."""
    cx = cy = size / 2.0
    scale = size / 2.0 - MARGIN

    def point(x, y):
        return (cx + scale * x, cy - scale * y)

    out = []
    for geo in geodesics:
        ta, tb = geo.a.theta, geo.b.theta
        ux, uy = math.cos(ta), math.sin(ta)
        vx, vy = math.cos(tb), math.sin(tb)
        x1, y1 = point(ux, uy)
        x2, y2 = point(vx, vy)
        dot = ux * vx + uy * vy
        if 1.0 + dot <= ANTIPODAL_DOT:
            out.append(f'<path d="M {_fmt(x1)} {_fmt(y1)} '
                       f'L {_fmt(x2)} {_fmt(y2)}"/>')
            continue
        ox = (ux + vx) / (1.0 + dot)
        oy = (uy + vy) / (1.0 + dot)
        r = math.sqrt(max(ox * ox + oy * oy - 1.0, 0.0))
        alpha_u = math.atan2(uy - oy, ux - ox)
        alpha_v = math.atan2(vy - oy, vx - ox)
        delta = (alpha_v - alpha_u + math.pi) % TWO_PI - math.pi
        alpha_m = alpha_u + delta / 2.0
        xm, ym = point(ox + r * math.cos(alpha_m), oy + r * math.sin(alpha_m))
        sweep = 1 if delta < 0 else 0
        arc = f'A {_fmt(r * scale)} {_fmt(r * scale)} 0 0 {sweep} '
        out.append(f'<path d="M {_fmt(x1)} {_fmt(y1)} '
                   f'{arc}{_fmt(xm)} {_fmt(ym)} '
                   f'{arc}{_fmt(x2)} {_fmt(y2)}"/>')
    for x, y in points:
        px, py = point(x, y)
        out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                   f'r="{_fmt(POINT_RADIUS)}"/>')
    for theta in angles:
        px, py = point(math.cos(theta), math.sin(theta))
        out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                   f'r="{_fmt(BOUNDARY_POINT_RADIUS)}"/>')
    return out


_sizes = st.one_of(st.sampled_from([21, 1000]), st.integers(21, 4000))
# Inputs whose canvas coordinates or radius land on or next to 0, and
# large ones.
_edge_floats = st.sampled_from([-0.0, 0.0, 1e-12, -1e-12, 1e6, -1e15, 1e300])
_angles = st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), _edge_floats)


@st.composite
def _geodesics_to_draw(draw):
    """Geodesics with generic endpoints, endpoints a hair apart and
    endpoints on either side of the chord threshold."""
    a = draw(st.floats(0.0, TWO_PI, exclude_max=True))
    b = draw(st.one_of(
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.floats(2e-9, 1e-6).map(lambda d: a + d),
        st.floats(-3e-3, 3e-3).map(lambda d: a + math.pi + d)))
    try:
        return Geodesic.from_angles(a, b)
    except ValidationError:
        return Geodesic.from_angles(a, a + 1.0)


@st.composite
def _points_to_draw(draw, size):
    """Disk points, some placed so that a canvas coordinate is -0.0, 0.0
    or +-1e-12 away from it."""
    scale = size / 2.0 - MARGIN
    near_edge = st.sampled_from([-0.0, 0.0, 1e-12, -1e-12]).map(
        lambda t: (t - size / 2.0) / scale)
    coordinate = st.one_of(st.floats(), _edge_floats, near_edge)
    return (draw(coordinate), draw(coordinate.map(lambda c: -c)))


class TestElementTemplates:
    """Every element kind's template against per-value ``_fmt``."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), size=_sizes,
           geodesics=st.lists(_geodesics_to_draw(), max_size=6),
           angles=st.lists(_angles, max_size=6))
    @example(data=None, size=21, geodesics=[
        Geodesic.from_angles(0.0, math.pi - 1e-3),
        Geodesic.from_angles(1.0, 1.0 + 2.978913782209841e-09)],
        angles=[-0.0, 1e-12, -1e-12, math.pi / 2])
    def test_elements_as_fmt_writes_them(self, data, size, geodesics,
                                         angles):
        # At size 21 the first two points land on 0.0 and -0.0...01.
        points = ([(-21.0, 21.0), (-21.000000000002, 21.000000000002),
                   (1e-12, -1e-12), (-0.0, 1e300)]
                  if data is None else
                  data.draw(st.lists(_points_to_draw(size), max_size=6)))
        svg = render_svg([("g", geodesics), ("s", LimitSetSample(
            orbit=np.array(points, dtype=float).reshape(-1, 2),
            fixed_point_angles=np.array(angles, dtype=float), words=0))],
            size)
        drawn = [line for line in svg.splitlines()[3:]
                 if line.startswith(("<path", "<circle"))]
        assert drawn == (reference_elements(geodesics, [], [], size)
                         + reference_elements([], points, angles, size))


class TestPointLayers:
    """``_Canvas.points`` and ``boundary_points`` write a layer's circles
    from arrays, byte for byte the per-element templates of
    ``tests/conftest.py``."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), size=_sizes, angles=st.lists(_angles,
                                                        max_size=8))
    @example(data=None, size=21, angles=[-0.0, 1e-12, math.pi / 2])
    def test_bytes_of_per_element_templates(self, data, size, angles):
        # At size 21 the first two points land on 0.0 and -0.0...01.
        points = ([(-21.0, 21.0), (-21.000000000002, 21.000000000002),
                   (-0.0, -0.0), (1e-12, -1e-12)]
                  if data is None else
                  data.draw(st.lists(_points_to_draw(size), max_size=8)))
        canvas = _Canvas(size)
        want = "\n".join(reference_point_elements(points, canvas))
        assert canvas.points(points) == want
        assert canvas.points(np.array(points, dtype=float).reshape(-1, 2)) \
            == want
        want = "\n".join(reference_boundary_point_elements(angles, canvas))
        assert canvas.boundary_points(angles) == want
        assert canvas.boundary_points(np.array(angles, dtype=float)) == want

    def test_overflow_to_inf_without_warning(self):
        # Python's float arithmetic overflows silently; a numpy warning
        # would fail the run.
        canvas = _Canvas(1000)
        points = [(1e308, -1e308), (-1.7e308, 1.7e308), (math.inf, math.nan)]
        text = canvas.points(np.array(points))
        assert text == "\n".join(reference_point_elements(points, canvas))
        assert text.count("inf") == 5

    def test_empty_layers(self):
        canvas = _Canvas(1000)
        for empty in ([], np.empty((0, 2)), np.empty(0)):
            assert canvas.points(empty) == ""
            assert canvas.boundary_points(np.ravel(empty)) == ""
        # A layer of points alone, or of boundary points alone, has no
        # empty line in its group.
        for sample in (
                LimitSetSample(np.array([[0.5, 0.0]]), np.empty(0), 1),
                LimitSetSample(np.empty((0, 2)), np.array([1.0]), 1)):
            lines = render_svg([("s", sample)], 1000).splitlines()
            assert lines[5:] == [
                '<g id="s-points" fill="#c0392b" stroke="none">',
                lines[6], "</g>", "</svg>"]
            assert lines[6].startswith("<circle")
        assert "s-points" not in render_svg([("s", LimitSetSample(
            np.empty((0, 2)), np.empty(0), 0))], 1000)


_TOP = math.nextafter(TWO_PI, 0.0)


@st.composite
def _arc_rows(draw):
    """Endpoint angle rows of one layer, unchecked as a family's arrays
    are: generic ends; ends a few ulps apart, where |C|^2 rounds to 1 or
    below it and r is clamped at 0; ends on either side of the chord
    threshold 1 + u.v <= ANTIPODAL_DOT; the angles 0 and 2 pi - ulp; and
    ends that earlier rows already hold."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        held = [t for row in rows for t in row]
        a = draw(st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                           st.sampled_from([0.0, _TOP, *held])))
        b = draw(st.one_of(
            st.floats(0.0, TWO_PI, exclude_max=True),
            st.sampled_from([0.0, _TOP, *held]),
            st.integers(1, 8).map(
                lambda k: a + k * math.ulp(max(a, 1.0))),
            st.floats(-2e-3, 2e-3).map(
                lambda d: (a + math.pi + d) % TWO_PI)))
        rows.append((a, b))
    return rows


class TestArrayArcs:
    """``_Canvas.geodesics`` draws a layer's arcs as arrays, equal byte for
    byte to the one-arc steps of ``tests/conftest.py::_geodesic_path``."""

    @settings(max_examples=300, deadline=None)
    @given(rows=_arc_rows(), size=_sizes)
    @example(rows=[], size=1000)
    @example(rows=[(0.0, math.pi), (0.0, _TOP), (_TOP, math.pi - 1e-4),
                   (1.0, math.nextafter(1.0, 2.0)), (0.0, math.pi)],
             size=1000)
    def test_bytes_of_one_arc_steps(self, rows, size):
        canvas = _Canvas(size)
        ends = np.array(rows, dtype=float).reshape(-1, 2)
        assert canvas.geodesics(ends) == [
            _geodesic_path(a, b, canvas) for a, b in rows]

    def test_cases_reach_every_branch(self):
        # Nearly antipodal ends draw a chord, ends one ulp apart an arc of
        # radius 0.
        canvas = _Canvas(1000)
        a = 1.0
        for b, kind in ((a + math.pi, LINE_RE),
                        (math.nextafter(a, 2.0), ARC_PATH_RE),
                        (2.0, ARC_PATH_RE)):
            (path,) = canvas.geodesics(np.array([(a, b)]))
            assert kind.fullmatch(path)
        (tiny,) = canvas.geodesics(np.array([(a, math.nextafter(a, 2.0))]))
        assert ARC_PATH_RE.fullmatch(tiny)["r"] == _fmt(0.0)


# End labels from any characters, with XML's special and refused ones, the
# C0 controls and DEL among them, drawn often.
_END_LABELS = st.lists(st.text(st.one_of(
    st.characters(codec="utf-8"),
    st.sampled_from('&<>"\'\x00\x01\t\n\r\x1f\x7f\x85\u2028\ufffe\uffff')),
    max_size=5), min_size=1, max_size=4)


class TestEndLabelIds:
    @settings(max_examples=300, deadline=None)
    @given(_END_LABELS)
    def test_accepted_labels_read_back_from_the_svg(self, ends):
        # Every end label a scene may hold names its juncture group, the
        # numbered label reading back from a well-formed SVG; a scene with
        # any other label is refused, naming that label's path.
        doc = json.loads(scene_path("schottky_ab.json").read_text())
        doc["junctures"] = [{"end": end, "sign": "-", "word": "a"}
                            for end in ends]
        try:
            scene = parse_scene(json.dumps(doc))
        except SceneError as exc:
            k = next(k for k, end in enumerate(ends)
                     if re.search("[\x00-\x1f\x7f\ufffe\uffff]", end))
            assert str(exc).startswith(f"field junctures[{k}].end holds U+")
            return
        labels = [f"junctures-{j.end}" for j in scene.junctures]
        svg = render_svg([(label, []) for label in labels], size=21)
        root = ElementTree.fromstring(svg.encode("utf-8"))
        ids = [g.get("id") for g in root.iter("{http://www.w3.org/2000/svg}g")]
        assert ids == numbered_labels(labels)
