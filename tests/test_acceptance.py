"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import endlam
from endlam.hyperbolic import (
    ANGLE_TOL,
    HPoint,
    Isometry,
    angle_from_boundary,
    angular_gap,
    apply_isometry,
    axis,
    boundary_action,
    classify_isometry,
    hyperbolic_distance,
    same_ideal_point,
)
from endlam.lamination import (
    crossing_audit,
    escape_test,
    extract_limit_leaves,
    juncture_orbit,
)
from endlam.markov import (
    count_admissible,
    entropy,
    invariant_measures,
    perron,
)
from endlam.render import render_svg
from endlam.scene import load_scene, scene_path

from conftest import (
    certificates_of,
    exact_translation_length,
    exact_word_matrix,
    frac_inverse,
    frac_matrix,
    quadratic_axis_oracle,
)
from test_render import orthogonal_center, parse_arcs, shipped_layers


def _passed(number, detail):
    print(f"[acceptance] criterion {number}: PASS ({detail})")


def _random_isometry(rng):
    while True:
        a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
        if a * d - b * c > 1e-3:
            return Isometry(a, b, c, d)


def _random_hyperbolic(rng):
    while True:
        m = _random_isometry(rng)
        if classify_isometry(m) == "hyperbolic":
            return m


def test_criterion_1_kernel_invariance():
    rng = random.Random(20260808)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10 ** 4):
        m = _random_isometry(rng)
        p = HPoint(rng.uniform(-4, 4), rng.uniform(0.05, 8))
        q = HPoint(rng.uniform(-4, 4), rng.uniform(0.05, 8))
        gap = abs(hyperbolic_distance(p, q)
                  - hyperbolic_distance(apply_isometry(m, p),
                                        apply_isometry(m, q)))
        worst = max(worst, gap)
        assert gap <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(1, f"10^4 samples, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_axis_correctness():
    rng = random.Random(97)
    start = time.perf_counter()
    for _ in range(10 ** 3):
        m = _random_hyperbolic(rng)
        g = axis(m)
        for endpoint in (g.a, g.b):
            assert same_ideal_point(boundary_action(m, endpoint), endpoint,
                                    ANGLE_TOL)
        conj = _random_isometry(rng)
        lhs = axis(conj.compose(m).compose(conj.inverse()))
        assert angular_gap(lhs.a.theta,
                           boundary_action(conj, g.a).theta) < ANGLE_TOL
        assert angular_gap(lhs.b.theta,
                           boundary_action(conj, g.b).theta) < ANGLE_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _passed(2, f"10^3 hyperbolic matrices, {elapsed:.2f}s")


def test_criterion_3_golden_mean_suite():
    start = time.perf_counter()
    A = np.array([[1, 1], [1, 0]])
    golden = (1 + math.sqrt(5)) / 2
    assert abs(entropy(A) - math.log(golden)) <= 1e-9
    assert perron(A).residual <= 1e-12

    def brute_force(m):
        total = 0
        for seq in itertools.product((1, 2), repeat=m):
            if all(A[i - 1, j - 1] for i, j in zip(seq, seq[1:])):
                total += 1
        return total

    for m in range(1, 15):
        matrix_count = count_admissible(A, m)
        if m >= 2:
            power = np.linalg.matrix_power(A.astype(object), m - 1)
            assert matrix_count == int(power.sum())
        if m <= 10:
            assert matrix_count == brute_force(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(3, f"entropy, residual and counts to m=14, {elapsed:.2f}s")


def _strongly_connected(M):
    n = len(M)
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if M[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            return False
    return True


def test_criterion_4_measure_duality():
    rng = random.Random(4242)
    start = time.perf_counter()
    flagged = 0
    for _ in range(100):
        n = rng.randint(2, 8)
        B = np.array([
            [rng.randint(0, 10) if rng.random() < 0.7 else 0
             for _ in range(n)]
            for _ in range(n)
        ])
        if not B.any():
            B[0, 0] = 1
        result = invariant_measures(B)
        assert abs(result.kappa_plus - result.kappa_minus) <= 1e-9
        assert result.residual_plus <= 1e-9
        assert result.residual_minus <= 1e-9
        if not (result.full_support_plus and result.full_support_minus):
            flagged += 1
            assert not _strongly_connected(B.tolist())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(4, f"100 matrices, {flagged} flagged not-full-support, "
               f"{elapsed:.2f}s")


def test_criterion_5_lamination_convergence():
    scene = load_scene(scene_path("schottky_ab.json"))
    start = time.perf_counter()

    # Independent endpoint oracle: exact rational powers of a b^n at
    # n = 50, then the quadratic formula on a scale-normalized copy.
    mats = {
        1: frac_matrix([[4, 0], [0, "0.25"]]),
        2: frac_matrix([[2, 1], [1, 1]]),
    }
    mats[-1] = frac_inverse(mats[1])
    mats[-2] = frac_inverse(mats[2])
    rep, att = quadratic_axis_oracle(
        exact_word_matrix((1,) + (2,) * 50, mats)
    )
    oracle_a = angle_from_boundary(rep)
    oracle_b = angle_from_boundary(att)

    horizon, ball = 24, 3
    lams = {}
    for j in scene.junctures:
        fam = juncture_orbit(scene, j, range(-horizon, horizon + 1), ball)
        lams[j.sign] = extract_limit_leaves(fam)

    lam_plus = lams["-"]
    chain_leaf = None
    for leaf, cert in zip(lam_plus.leaves,
                          certificates_of(lam_plus.certificates)):
        if cert.conjugator.is_identity() and cert.juncture == "e-":
            chain_leaf = leaf
            break
    assert chain_leaf is not None
    assert angular_gap(chain_leaf["a_angle"], oracle_a) <= 1e-6
    assert angular_gap(chain_leaf["b_angle"], oracle_b) <= 1e-6

    for lam in lams.values():
        assert len(crossing_audit(lam)) == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(5, f"chain leaf within 1e-6 of the n=50 oracle, audits empty, "
               f"{elapsed:.2f}s")


def test_criterion_6_escape_dichotomy():
    start = time.perf_counter()
    inner = load_scene(scene_path("inner_b.json"))
    for j in inner.junctures:
        assert escape_test(inner, j).verdict == "escaping"

    shift_scene = load_scene(scene_path("schottky_ab.json"))
    juncture = shift_scene.junctures[0]
    report = escape_test(shift_scene, juncture, horizon=20)
    assert report.verdict == "non-escaping"
    lengths = [row.length for row in report.rows]
    assert all(b > a for a, b in zip(lengths, lengths[1:]))

    mats = {
        1: frac_matrix([[4, 0], [0, "0.25"]]),
        2: frac_matrix([[2, 1], [1, 1]]),
    }
    mats[-1] = frac_inverse(mats[1])
    mats[-2] = frac_inverse(mats[2])
    for row in report.rows:
        exact = exact_translation_length(
            exact_word_matrix((1,) + (2,) * row.iterate, mats)
        )
        assert abs(row.length - exact) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _passed(6, f"escaping/non-escaping split and exact lengths, "
               f"{elapsed:.2f}s")


def test_criterion_7_rendering_orthogonality():
    start = time.perf_counter()
    worst = 0.0
    for name in ("schottky_ab", "golden", "inner_b"):
        svg = render_svg(shipped_layers(f"{name}.json"))
        golden_file = Path(__file__).parent / "golden" / f"{name}.svg"
        assert svg.encode() == golden_file.read_bytes()
        for p1, p2, r, _ in parse_arcs(svg):
            c = orthogonal_center(p1, p2, r)
            residual = abs(c[0] ** 2 + c[1] ** 2 - r * r - 1.0)
            worst = max(worst, residual)
            assert residual <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(7, f"worst orthogonality residual {worst:.2e}, golden files "
               f"byte-identical, {elapsed:.2f}s")


def test_criterion_8_cli_contract(tmp_path):
    for name in ("schottky_ab.json", "golden.json"):
        shutil.copy(scene_path(name), tmp_path / name)

    # The child runs from tmp_path, where a relative PYTHONPATH (such as
    # "src") resolves to nothing; put the directory holding the endlam that
    # this test imported first, so the child runs the tree under test.
    env = dict(os.environ)
    package_root = str(Path(endlam.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "endlam", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300,
        )

    result = run("limit-set", "schottky_ab.json", "--depth", "6",
                 "--out", "limits.svg")
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "limits.svg").exists()

    result = run("markov", "verify", "golden.json")
    assert result.returncode == 0, result.stderr
    assert "Markov family: OK" in result.stdout

    result = run("laminate", "missing.json")
    assert result.returncode == 1
    assert "not found" in result.stderr

    _passed(8, "three documented invocations, exit codes 0/0/1")
