"""Per-job oracles of the endlam benchmark, independent of the code under test.

Each check reads a job's exit code, printed report and output files, and
returns ``None`` when the job is right or the name of the first cause of
failure.  The references come from exact ``Fraction`` arithmetic on the
scene's own matrix entries, from ``numpy.linalg.eigvals``, from exact
integer vector-matrix products, from closed forms, or from the pinned leaf
and point counts of the shipped ``schottky_ab.json`` that conjugation must
preserve.  Nothing here imports endlam.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# Failure causes the seed is known to show.  A run whose failures all lie
# here is still correct; any other cause marks the run incorrect.
KNOWN_CAUSES = ("endpoints-coincide", "perron-nonconverged", "leaf-count",
                "axiom-i-fail")

# (plus leaves, minus leaves, intersection points) of the shipped
# schottky_ab.json per (horizon, ball), as the seed prints them.
# Conjugating the generators moves every geodesic by one isometry, so a
# conjugate must print the same numbers.
SCHOTTKY_COUNTS = {
    (8, 1): (2, 2, 1), (8, 2): (11, 10, 6), (8, 3): (42, 37, 39),
    (9, 1): (4, 4, 3), (9, 2): (14, 14, 17), (9, 3): (47, 46, 71),
    (10, 1): (5, 5, 8), (10, 2): (16, 16, 27), (10, 3): (50, 50, 97),
    (11, 1): (5, 5, 8), (11, 2): (17, 17, 36), (11, 3): (52, 52, 115),
    (12, 1): (5, 5, 8), (12, 2): (17, 17, 36), (12, 3): (53, 53, 128),
    (13, 1): (5, 5, 8), (13, 2): (17, 17, 36), (13, 3): (53, 53, 128),
    (14, 1): (5, 5, 8), (14, 2): (17, 17, 36), (14, 3): (53, 53, 128),
    (20, 5): (485, 485, 1272),
}

# The escape verdict each scene family must get: a b^n grows linearly in
# n, while identity and inner substitutions keep every length.
ESCAPE_VERDICT = {"schottky": "non-escaping", "golden": "escaping",
                  "inner_b": "escaping"}

CHAIN_LEAF_TOL = 1e-6
ANGLE_TOL = 1e-9
REL_TOL = 1e-8


# -- exact 2x2 arithmetic over Fractions ---------------------------------

def _fmat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _fmul(x, y):
    return [[x[0][0] * y[0][0] + x[0][1] * y[1][0],
             x[0][0] * y[0][1] + x[0][1] * y[1][1]],
            [x[1][0] * y[0][0] + x[1][1] * y[1][0],
             x[1][0] * y[0][1] + x[1][1] * y[1][1]]]


def _fadj(m):
    """Adjugate: the inverse up to the positive factor det(m)."""
    return [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]


def _letter_mats(scene: dict):
    mats = {}
    for i, rows in enumerate(scene["group"].values(), start=1):
        mats[i] = _fmat(rows)
        mats[-i] = _fadj(mats[i])
    return mats


def _word_matrix(word, mats):
    m = _fmat([[1, 0], [0, 1]])
    for letter in word:
        m = _fmul(m, mats[letter])
    return m


def _parse_word(text: str, names) -> tuple:
    index = {name: i + 1 for i, name in enumerate(names)}
    letters = []
    for token in text.split():
        if token.endswith("^-1"):
            letters.append(-index[token[:-3]])
        else:
            letters.append(index[token])
    return _reduce(letters)


def _reduce(letters) -> tuple:
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _substitute(word, rules, n: int) -> tuple:
    """n-fold substitution; rules[(i, +1)] / rules[(i, -1)] are the
    forward / inverse images of generator i."""
    direction = 1 if n >= 0 else -1
    for _ in range(abs(n)):
        out = []
        for x in word:
            image = rules[(abs(x), direction)]
            if x < 0:
                image = tuple(-y for y in reversed(image))
            out.extend(image)
        word = _reduce(out)
    return word


def _rules(scene: dict):
    names = tuple(scene["group"])
    rules = {}
    for i, name in enumerate(names, start=1):
        rules[(i, 1)] = _parse_word(scene["automorphism"]["forward"][name],
                                    names)
        rules[(i, -1)] = _parse_word(scene["automorphism"]["inverse"][name],
                                     names)
    return names, rules


def translation_length(m) -> float:
    """2 arccosh(|tr| / (2 sqrt(det))) from exact entries."""
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return 2.0 * math.acosh(math.sqrt(float(tr * tr / det)) / 2.0)


def boundary_angle(t: float) -> float:
    """Disk angle of a half-plane boundary point under z -> (z-i)/(z+i)."""
    if math.isinf(t):
        return 0.0
    return math.atan2(-2.0 * t, t * t - 1.0) % TWO_PI


def fixed_point_angles(m) -> tuple[float, float]:
    """Disk angles of the two boundary fixed points of a hyperbolic m,
    from a scale-normalized float copy of the exact matrix."""
    scale = max(abs(x) for row in m for x in row)
    a, b = float(m[0][0] / scale), float(m[0][1] / scale)
    c, d = float(m[1][0] / scale), float(m[1][1] / scale)
    if c == 0.0:
        return boundary_angle(b / (d - a)), 0.0
    sq = math.sqrt((d - a) ** 2 + 4.0 * b * c)
    t1 = ((a - d) + math.copysign(sq, a - d)) / (2.0 * c)
    t2 = (-b / c) / t1 if t1 != 0.0 else ((a - d) - sq) / (2.0 * c)
    return boundary_angle(t1), boundary_angle(t2)


def angular_gap(u: float, v: float) -> float:
    d = abs(u - v) % TWO_PI
    return min(d, TWO_PI - d)


def pair_distance(p, q) -> float:
    """Distance between two unordered endpoint pairs."""
    return min(max(angular_gap(p[0], q[0]), angular_gap(p[1], q[1])),
               max(angular_gap(p[0], q[1]), angular_gap(p[1], q[0])))


# -- free-group combinatorics ------------------------------------------

def ball_words(rank: int, k: int):
    """Reduced words of length <= k, parents before children."""
    out, frontier = [()], [()]
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    for _ in range(k):
        frontier = [w + (x,) for w in frontier for x in letters
                    if not (w and w[-1] == -x)]
        out.extend(frontier)
    return out


def root_class(word) -> tuple:
    """Maximal cyclic subgroup of a nontrivial reduced word, as a key:
    w = u p^k u^-1 with p primitive and cyclically reduced gives the
    smaller of u p u^-1 and its inverse."""
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == -word[j - 1]:
        i, j = i + 1, j - 1
    u, core = word[:i], word[i:j]
    n = len(core)
    period = next(p for p in range(1, n + 1)
                  if n % p == 0 and core[:p] * (n // p) == core)
    root = u + core[:period] + tuple(-x for x in reversed(u))
    return min(root, tuple(-x for x in reversed(root)))


def admissible_count(table, m: int) -> int:
    """1^T A^(m-1) 1 by vector-matrix products over Python ints."""
    n = len(table)
    v = [1] * n
    for _ in range(m - 1):
        v = [sum(v[i] for i in range(n) if table[i][j]) for j in range(n)]
    return sum(v)


def markov_table(scene: dict):
    n = len(scene["markov"]["rects"])
    table = [[0] * n for _ in range(n)]
    for row in scene["markov"]["crossings"]:
        table[row[0] - 1][row[1] - 1] = row[2]
    return table


def spectral_radius(table) -> float:
    return float(max(abs(np.linalg.eigvals(np.array(table, dtype=float)))))


def _close(x: float, ref: float, rel: float = REL_TOL) -> bool:
    return abs(x - ref) <= rel * max(1.0, abs(ref))


# -- SVG -------------------------------------------------------------

def _svg_disk(path):
    """(root, to_unit) where to_unit maps canvas to unit-disk coordinates."""
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    boundary = next(c for c in root.iter(ns + "circle")
                    if c.get("fill") == "none")
    cx, cy = float(boundary.get("cx")), float(boundary.get("cy"))
    radius = float(boundary.get("r"))

    def to_unit(x, y):
        return ((float(x) - cx) / radius, (cy - float(y)) / radius)

    return root, ns, radius, to_unit


def check_svg_arcs(path) -> tuple[bool, int]:
    """Every path is an arc orthogonal to the boundary circle with both
    ends on it, or a near-diameter chord.  Returns (ok, path count)."""
    root, ns, radius, to_unit = _svg_disk(path)
    count = 0
    for node in root.iter(ns + "path"):
        count += 1
        tok = node.get("d").split()
        p1 = to_unit(tok[1], tok[2])
        p2 = to_unit(tok[-2], tok[-1])
        for p in (p1, p2):
            if abs(math.hypot(*p) - 1.0) > 1e-7:
                return False, count
        if tok[3] == "L":
            if 1.0 + p1[0] * p2[0] + p1[1] * p2[1] > 1.01e-6:
                return False, count
            continue
        r = float(tok[4]) / radius
        pm = to_unit(tok[9], tok[10])
        # Centers of the two radius-r circles through p1 and p2; an arc
        # orthogonal to the unit circle has its center outside the disk.
        mx, my = (p1[0] + p2[0]) / 2.0, (p1[1] + p2[1]) / 2.0
        dx, dy = p2[0] - p1[0], p2[1] - p1[1]
        half = math.hypot(dx, dy) / 2.0
        h = math.sqrt(max(r * r - half * half, 0.0))
        nx, ny = -dy / (2.0 * half), dx / (2.0 * half)
        c = max(((mx + h * nx, my + h * ny), (mx - h * nx, my - h * ny)),
                key=lambda q: q[0] ** 2 + q[1] ** 2)
        if abs(c[0] ** 2 + c[1] ** 2 - r * r - 1.0) > 1e-6 * (1.0 + r * r):
            return False, count
        if abs(math.hypot(pm[0] - c[0], pm[1] - c[1]) - r) > 1e-6 * (1 + r):
            return False, count
    return True, count


def check_svg_points(path, orbit: int, boundary: int) -> bool:
    """Orbit dots lie inside the disk and boundary dots on its circle."""
    root, ns, radius, to_unit = _svg_disk(path)
    inside = on_circle = 0
    for node in root.iter(ns + "circle"):
        if node.get("fill") == "none":
            continue
        rho = math.hypot(*to_unit(node.get("cx"), node.get("cy")))
        if abs(rho - 1.0) <= 1e-7:
            on_circle += 1
        elif rho < 1.0:
            inside += 1
        else:
            return False
    return inside + on_circle == orbit + boundary and on_circle >= boundary


# -- the oracle --------------------------------------------------------

class Oracle:
    """Checks jobs of one run; caches references per scene file."""

    def __init__(self, inputs_dir: Path):
        self.inputs = Path(inputs_dir)
        self._scenes = {}
        self._chain = {}
        self._lengths = {}
        self._limit_bounds = {}
        self.limit_counts = {}

    def scene(self, name: str) -> dict:
        if name not in self._scenes:
            self._scenes[name] = json.loads(
                (self.inputs / name).read_text(encoding="utf-8"))
        return self._scenes[name]

    def check(self, job, rc, stdout: str, stderr: str):
        """None when the job is right, else the name of its failure cause."""
        if rc != 0:
            if rc == 1 and "geodesic endpoints coincide" in stderr:
                return "endpoints-coincide"
            if rc == 2 and job["kind"] in ("markov entropy",
                                           "markov measure"):
                return "perron-nonconverged"
            return f"exit-{rc}"
        kind = job["kind"].replace("markov ", "markov-").replace("-", "_")
        try:
            return getattr(self, f"_{kind}")(job, stdout)
        except (OSError, ValueError, LookupError, TypeError, StopIteration,
                ET.ParseError):
            return "unreadable-output"

    @staticmethod
    def _opt(job, flag):
        return job["argv"][job["argv"].index(flag) + 1]

    # lamination ----------------------------------------------------

    def _chain_leaves(self, scene_name: str):
        """Exact limits of the identity chains: axis(a b^50) for the plus
        lamination, axis(a b^-50) for the minus one."""
        if scene_name not in self._chain:
            mats = _letter_mats(self.scene(scene_name))
            self._chain[scene_name] = {
                "+": fixed_point_angles(_word_matrix((1,) + (2,) * 50, mats)),
                "-": fixed_point_angles(_word_matrix((1,) + (-2,) * 50,
                                                     mats)),
            }
        return self._chain[scene_name]

    def _laminate(self, job, stdout):
        report = json.loads(Path(self._opt(job, "--json"))
                            .read_text(encoding="utf-8"))
        lams = report["laminations"]
        points = len(report.get("intersections", {}).get("points", []))
        if job["family"] != "schottky":
            # Identity and inner substitutions leave no convergent chain
            # that is not a family member, so no leaf may appear.
            if any(lam["leaves"] for lam in lams.values()) or points:
                return "no-leaves"
            return None
        expect = job["expect"]
        counts = (len(lams["+"]["leaves"]), len(lams["-"]["leaves"]), points)
        if counts != SCHOTTKY_COUNTS[(expect["horizon"], expect["ball"])]:
            return "leaf-count"
        if lams["+"]["crossing_violations"] or \
                lams["-"]["crossing_violations"]:
            return "axiom-i-fail"
        exact = self._chain_leaves(job["scene"])
        for sign, lam in lams.items():
            ids = [i for i, cert in enumerate(lam["certificates"])
                   if cert["conjugator"] == ""]
            if len(ids) > 1:
                return "chain-leaf"
            if not ids:
                # Short horizons leave the identity chain above tolerance;
                # the pinned counts already say how many leaves to expect.
                continue
            leaf = lam["leaves"][ids[0]]
            if pair_distance((leaf["a_angle"], leaf["b_angle"]),
                             exact[sign]) > CHAIN_LEAF_TOL:
                return "chain-leaf"
        if "--out" in job["argv"]:
            ok, paths = check_svg_arcs(self._opt(job, "--out"))
            if not ok or paths != counts[0] + counts[1]:
                return "svg"
        return None

    def _axioms(self, job, stdout):
        status = {}
        chains = None
        for line in stdout.splitlines():
            if line.startswith("axiom "):
                name, _, rest = line[6:].partition(": ")
                status[name] = rest.split(" - ")[0]
                if name == "VI" and "witnessed by " in rest:
                    chains = int(rest.split("witnessed by ")[1].split()[0])
        if len(status) != 6:
            return "axioms-report"
        if job["family"] != "schottky":
            ok = set(status.values()) == {"not-checked"} and \
                "not endperiodic-like" in stdout
            return None if ok else "no-leaves"
        expect = SCHOTTKY_COUNTS[(job["expect"]["horizon"],
                                  job["expect"]["ball"])]
        if chains != expect[0] + expect[1]:
            return "leaf-count"
        if status["I"] != "pass":
            return "axiom-i-fail"
        return None

    def _render(self, job, stdout):
        ok, paths = check_svg_arcs(self._opt(job, "--out"))
        return None if ok and paths else "svg"

    def _escape_lengths(self, scene_name: str, horizon: int):
        """Exact (word length, translation length) rows per juncture."""
        key = (scene_name, horizon)
        if key not in self._lengths:
            scene = self.scene(scene_name)
            names, rules = _rules(scene)
            mats = _letter_mats(scene)
            rows = {}
            for junc in scene["junctures"]:
                step = 1 if junc["sign"] == "-" else -1
                word = _parse_word(junc["word"], names)
                table = []
                for i in range(horizon + 1):
                    w = _substitute(word, rules, step * i)
                    table.append((step * i, len(w),
                                  translation_length(_word_matrix(w, mats))))
                rows[junc["end"]] = table
            self._lengths[key] = rows
        return self._lengths[key]

    def _escape(self, job, stdout):
        report = json.loads(Path(self._opt(job, "--json"))
                            .read_text(encoding="utf-8"))
        exact = self._escape_lengths(job["scene"],
                                     int(self._opt(job, "--horizon")))
        if len(report["reports"]) != len(exact):
            return "escape"
        for rep in report["reports"]:
            ref = exact[rep["juncture"]]
            got = [(r["iterate"], r["word_length"], r["length"])
                   for r in rep["rows"]]
            if len(got) != len(ref) or any(
                    g[:2] != e[:2] or not _close(g[2], e[2], 1e-7)
                    for g, e in zip(got, ref)):
                return "escape"
            if rep["verdict"] != ESCAPE_VERDICT[job["family"]]:
                return "escape"
        return None

    # limit set -------------------------------------------------------

    def _fixed_point_bounds(self, scene_name: str, depth: int):
        """(lowest, highest) number of boundary fixed points a sample may
        report: distinct maximal cyclic subgroups give the highest, and
        merging points closer than the angle tolerance the lowest."""
        key = (scene_name, depth)
        if key not in self._limit_bounds:
            scene = self.scene(scene_name)
            mats = _letter_mats(scene)
            words = ball_words(len(scene["group"]), depth)
            matrices = {(): _fmat([[1, 0], [0, 1]])}
            roots, angles = set(), []
            for w in words[1:]:
                matrices[w] = _fmul(matrices[w[:-1]], mats[w[-1]])
                roots.add(root_class(w))
                angles.extend(fixed_point_angles(matrices[w]))
            angles.sort()
            clusters = 1 + sum(1 for u, v in zip(angles, angles[1:])
                               if v - u >= ANGLE_TOL * 1.001)
            if angles[0] + TWO_PI - angles[-1] < ANGLE_TOL * 1.001:
                clusters -= 1
            self._limit_bounds[key] = (clusters, 2 * len(roots), len(words))
        return self._limit_bounds[key]

    def _limit_set(self, job, stdout):
        report = json.loads(Path(self._opt(job, "--json"))
                            .read_text(encoding="utf-8"))
        low, high, words = self._fixed_point_bounds(
            job["scene"], int(self._opt(job, "--depth")))
        fixed = len(report["fixed_point_angles"])
        if report["words"] != words or len(report["orbit"]) != words:
            return "limit-set"
        if any(math.hypot(x, y) >= 1.0 for x, y in report["orbit"]):
            return "limit-set"
        if not low <= fixed <= high:
            return "limit-set"
        # The fixed points do not depend on the base point.
        if self.limit_counts.setdefault(job["scene"], fixed) != fixed:
            return "limit-set"
        if not check_svg_points(self._opt(job, "--out"), words, fixed):
            return "svg"
        return None

    # markov ----------------------------------------------------------

    def _markov_entropy(self, job, stdout):
        report = json.loads(Path(self._opt(job, "--json"))
                            .read_text(encoding="utf-8"))
        table = markov_table(self.scene(job["scene"]))
        rho = spectral_radius([[1 if x else 0 for x in row]
                               for row in table])
        if not (_close(math.exp(report["entropy"]), rho)
                and _close(report["kappa"], rho)):
            return "entropy-value"
        return None

    def _markov_measure(self, job, stdout):
        report = json.loads(Path(self._opt(job, "--json"))
                            .read_text(encoding="utf-8"))
        rho = spectral_radius(markov_table(self.scene(job["scene"])))
        if not (report["converged"] and _close(report["kappa_plus"], rho)
                and _close(report["kappa_minus"], rho)):
            return "measure-value"
        return None

    def _markov_words(self, job, stdout):
        table = markov_table(self.scene(job["scene"]))
        m = int(self._opt(job, "-m"))
        lines = stdout.splitlines()
        head = f"admissible words of length {m}: "
        counts = [int(line[len(head):]) for line in lines
                  if line.startswith(head)]
        exact = admissible_count(table, m)
        if counts != [exact]:
            return "word-count"
        if "--list-words" in job["argv"]:
            words = [line.strip() for line in lines if line.startswith("  ")]
            ok = len(words) == exact == len(set(words)) and all(
                len(w) == m and all(table[int(x) - 1][int(y) - 1]
                                    for x, y in zip(w, w[1:]))
                for w in words)
            if not ok:
                return "word-count"
        return None
