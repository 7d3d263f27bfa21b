import json
import shutil

import pytest

from endlam import hyperbolic, lamination
from endlam.cli import run_command
from endlam.scene import load_scene, scene_path


@pytest.fixture
def schottky(tmp_path):
    dst = tmp_path / "schottky_ab.json"
    shutil.copy(scene_path("schottky_ab.json"), dst)
    return dst


@pytest.fixture
def golden(tmp_path):
    dst = tmp_path / "golden.json"
    shutil.copy(scene_path("golden.json"), dst)
    return dst


@pytest.fixture
def inner(tmp_path):
    dst = tmp_path / "inner_b.json"
    shutil.copy(scene_path("inner_b.json"), dst)
    return dst


class TestExitCodes:
    def test_unknown_subcommand_usage(self, capsys):
        assert run_command(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand(self, capsys):
        assert run_command([]) == 1

    def test_missing_scene_file(self, tmp_path, capsys):
        code = run_command(["laminate", str(tmp_path / "missing.json")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_scene_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"group": {}}')
        assert run_command(["laminate", str(bad)]) == 1

    def test_budget_exceeded_flagged(self, schottky, capsys):
        code = run_command(["limit-set", str(schottky), "--depth", "9",
                            "--max-words", "100"])
        assert code == 2
        assert "flagged" in capsys.readouterr().err

    def test_numeric_breakdown_flagged(self, schottky, capsys):
        code = run_command(["limit-set", str(schottky), "--base=0,2e-12",
                            "--depth", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("flagged: ")
        assert "collapsed onto the boundary" in err

    def test_markov_without_block(self, schottky, capsys):
        assert run_command(["markov", "verify", str(schottky)]) == 1
        assert "no markov block" in capsys.readouterr().err


class TestLimitSet:
    def test_writes_svg_and_json(self, schottky, tmp_path, capsys):
        out = tmp_path / "limits.svg"
        report = tmp_path / "report.json"
        code = run_command(["limit-set", str(schottky), "--depth", "4",
                            "--out", str(out), "--json", str(report)])
        assert code == 0
        assert out.exists() and report.exists()
        data = json.loads(report.read_text())
        assert data["words"] == 161
        assert len(data["orbit"]) == 161
        assert data["min_boundary_gap"] > 0

    def test_output_quoted_in_stdout(self, schottky, tmp_path, capsys):
        out = tmp_path / "limits.svg"
        run_command(["limit-set", str(schottky), "--depth", "3",
                     "--out", str(out)])
        assert str(out) in capsys.readouterr().out


class TestLaminate:
    def test_reports_leaves(self, schottky, tmp_path, capsys):
        report = tmp_path / "lam.json"
        code = run_command(["laminate", str(schottky), "--horizon", "10",
                            "--ball", "1", "--json", str(report)])
        assert code == 0
        text = capsys.readouterr().out
        assert "lamination +" in text and "lamination -" in text
        data = json.loads(report.read_text())
        assert data["laminations"]["+"]["leaves"]
        assert data["laminations"]["+"]["crossing_violations"] == []
        assert data["intersections"]["points"]

    def test_svg_deterministic(self, schottky, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for out in (a, b):
            assert run_command(["laminate", str(schottky), "--horizon", "8",
                                "--ball", "1", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEscape:
    def test_non_escaping_scene(self, schottky, capsys):
        assert run_command(["escape", str(schottky)]) == 0
        out = capsys.readouterr().out
        assert out.count("non-escaping") == 2

    def test_escaping_scene(self, inner, capsys):
        assert run_command(["escape", str(inner)]) == 0
        out = capsys.readouterr().out
        assert out.count(": escaping") == 2

    def test_json_report_mirrors_rows(self, inner, tmp_path):
        report = tmp_path / "escape.json"
        run_command(["escape", str(inner), "--horizon", "6",
                     "--json", str(report)])
        data = json.loads(report.read_text())
        assert len(data["reports"]) == 2
        assert len(data["reports"][0]["rows"]) == 7
        assert data["reports"][0]["verdict"] == "escaping"

    def test_inconclusive_exits_two(self, tmp_path, capsys):
        scene = {
            "metadata": {"name": "swap", "description": ""},
            "group": {"a": [[2, 0], [0, 0.5]],
                      "b": [[8, 0.5], [0.5, 0.25]]},
            "automorphism": {"forward": {"a": "b", "b": "a"},
                             "inverse": {"a": "b", "b": "a"}},
            "junctures": [
                {"end": "e-", "sign": "-", "word": "a", "period": 1}
            ],
        }
        path = tmp_path / "swap.json"
        path.write_text(json.dumps(scene))
        assert run_command(["escape", str(path), "--horizon", "3"]) == 2


class TestAxioms:
    def test_report_lines(self, schottky, tmp_path, capsys):
        report = tmp_path / "axioms.json"
        code = run_command(["axioms", str(schottky), "--horizon", "10",
                            "--ball", "1", "--json", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("I", "II", "III", "IV", "V", "VI"):
            assert f"axiom {name}:" in out
        data = json.loads(report.read_text())
        assert data["axioms"]["I"]["status"] == "pass"
        assert data["caveat"] == "finite-approximation evidence only"


class TestMarkov:
    def test_verify_ok(self, golden, capsys):
        assert run_command(["markov", "verify", str(golden)]) == 0
        assert "Markov family: OK" in capsys.readouterr().out

    def test_verify_violations(self, golden, tmp_path, capsys):
        doc = json.loads(golden.read_text())
        doc["markov"]["crossings"][0] = [1, 1, 2]
        bad = tmp_path / "bad_markov.json"
        bad.write_text(json.dumps(doc))
        assert run_command(["markov", "verify", str(bad)]) == 0
        assert "VIOLATIONS" in capsys.readouterr().out

    def test_entropy_golden_mean(self, golden, tmp_path, capsys):
        report = tmp_path / "entropy.json"
        assert run_command(["markov", "entropy", str(golden),
                            "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        import math
        assert abs(data["entropy"] - math.log((1 + math.sqrt(5)) / 2)) < 1e-9
        assert data["residual"] <= 1e-12

    def test_measure(self, golden, capsys):
        assert run_command(["markov", "measure", str(golden)]) == 0
        out = capsys.readouterr().out
        assert "projective constant" in out

    def test_words(self, golden, capsys):
        assert run_command(["markov", "words", str(golden), "-m", "3",
                            "--list-words"]) == 0
        out = capsys.readouterr().out
        assert "admissible words of length 3: 5" in out
        assert "121" in out


class TestRender:
    def test_render_writes_file(self, schottky, tmp_path):
        out = tmp_path / "scene.svg"
        assert run_command(["render", str(schottky), "--out",
                            str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert "<path" in text

    def test_render_with_leaves(self, schottky, tmp_path):
        out = tmp_path / "leaves.svg"
        assert run_command(["render", str(schottky), "--out", str(out),
                            "--leaves", "--horizon", "8"]) == 0
        assert 'id="lamination-+"' in out.read_text()


class TestRunTolerances:
    """--angle-tol/--trace-tol reach their own run and only that run."""

    def test_angle_tol_does_not_outlive_its_run(self, schottky, capsys):
        assert run_command(["laminate", str(schottky),
                            "--angle-tol", "1e-2"]) == 0
        capsys.readouterr()
        assert run_command(["laminate", str(schottky)]) == 0
        assert "transverse intersection points: 128" in \
            capsys.readouterr().out
        assert hyperbolic.ANGLE_TOL == 1e-9

    def test_angle_tol_reaches_limit_set_dedup(self, schottky, tmp_path):
        counts = []
        for extra in ([], ["--angle-tol", "1e-1"]):
            report = tmp_path / "limits.json"
            assert run_command(["limit-set", str(schottky), "--depth", "4",
                                "--json", str(report)] + extra) == 0
            counts.append(len(json.loads(report.read_text())
                              ["fixed_point_angles"]))
        assert counts[1] < counts[0]


class TestUnreadFlags:
    @pytest.mark.parametrize("argv", [
        ["markov", "entropy", "golden.json", "--horizon", "3"],
        ["markov", "words", "golden.json", "--max-words", "9"],
        ["escape", "schottky_ab.json", "--ball", "2"],
        ["escape", "schottky_ab.json", "--angle-tol", "1e-3"],
        ["limit-set", "schottky_ab.json", "--tol", "1e-3"],
        ["limit-set", "schottky_ab.json", "--max-letters", "9"],
        ["render", "schottky_ab.json", "--out", "x.svg", "--json", "x.json"],
    ])
    def test_exits_one_with_usage(self, argv, golden, schottky, tmp_path,
                                  capsys):
        argv = [str(tmp_path / a) if a.endswith((".json", ".svg")) else a
                for a in argv]
        assert run_command(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"usage: endlam {argv[0]} ")
        assert not (tmp_path / "x.svg").exists()


class TestOnePipeline:
    def _count_calls(self, monkeypatch, name):
        calls = []
        original = getattr(lamination, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(lamination, name, counting)
        return calls

    def test_render_leaves_orbits_each_juncture_once(self, schottky,
                                                      tmp_path, monkeypatch):
        orbits = self._count_calls(monkeypatch, "juncture_orbit")
        extractions = self._count_calls(monkeypatch, "extract_limit_leaves")
        assert run_command(["render", str(schottky), "--out",
                            str(tmp_path / "leaves.svg"), "--leaves"]) == 0
        assert len(orbits) == len(load_scene(schottky).junctures)
        assert len(extractions) == 2

    def test_render_without_leaves_skips_extraction(self, schottky,
                                                     tmp_path, monkeypatch):
        extractions = self._count_calls(monkeypatch, "extract_limit_leaves")
        assert run_command(["render", str(schottky), "--out",
                            str(tmp_path / "scene.svg")]) == 0
        assert extractions == []
