import contextlib
import io
import json
import re
import shutil
import tempfile
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from endlam import cli, hyperbolic, lamination, markov
from endlam.cli import run_command
from endlam.errors import NumericDegeneracyError
from endlam.group import Word
from endlam.hyperbolic import Geodesic
from endlam.markov import PerronData
from endlam.scene import load_scene, scene_path

from conftest import reference_json_text, schottky_conjugate_data


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

    @pytest.mark.parametrize("command", ["laminate", "escape"])
    def test_letter_budget_flagged(self, command, schottky, capsys):
        code = run_command([command, str(schottky), "--max-letters", "5"])
        assert code == 2
        assert capsys.readouterr().err == \
            "flagged: substitution exceeded 5 letters\n"

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


class TestJson:
    def test_numpy_scalars_written_as_python_values(self, tmp_path, capsys):
        # A stray numpy scalar in a report writes the bytes of the Python
        # value instead of failing the run with exit 3.
        for name, row in (("numpy", lamination.EscapeRow(
                np.int64(-3), np.int64(7), np.float64(0.1))),
                          ("python", lamination.EscapeRow(-3, 7, 0.1))):
            cli._write_json(tmp_path / f"{name}.json", {"rows": [row]})
        assert ((tmp_path / "numpy.json").read_bytes()
                == (tmp_path / "python.json").read_bytes())
        assert json.loads((tmp_path / "numpy.json").read_text()) == {
            "rows": [{"iterate": -3, "word_length": 7, "length": 0.1}]}



# Reports drawn for the writer: every kind of value ``--json`` is handed.
_ints = st.one_of(st.integers(-10, 10), st.integers(-2 ** 80, 2 ** 80))
_floats = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 0.1, 1e300]))
_python_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats,
                            st.text(max_size=8),
                            st.sampled_from(['"', "\\", "\n\t\x00\x1f",
                                             "\u00e9\u03bb\U0001d11e"]))
_numpy_scalars = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                           _floats.map(np.float64),
                           st.booleans().map(np.bool_))
_numbers = st.one_of(_ints, _floats, _numpy_scalars)
_arrays = hnp.arrays(st.sampled_from([np.int64, np.float64, np.bool_]),
                     hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                      max_side=4))
_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6).map(
    lambda letters: Word(tuple(letters)))
_geodesics = st.builds(lambda a, gap: Geodesic.from_angles(a, a + gap),
                       st.floats(0.0, 6.28), st.floats(0.01, 6.2))
_records = st.one_of(
    st.builds(lamination.EscapeRow, _numbers, _numbers, _numbers),
    st.builds(lamination.IntersectionRecord, _numbers, _numbers, _numbers,
              _numbers),
    st.builds(lamination.ChainCertificate, st.text(max_size=3),
              st.sampled_from(["+", "-"]), _words,
              st.lists(_numbers, max_size=5).map(tuple),
              st.lists(_numbers, max_size=5).map(tuple)),
    st.builds(lamination.CrossingViolation, _numbers, _numbers, _geodesics,
              _geodesics),
)
_reports = st.recursive(
    st.one_of(_python_scalars, _numpy_scalars, _arrays, _words, _geodesics,
              _records),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-3, 3)),
                        inner, max_size=4)),
    max_leaves=30)


def _written(payload, names):
    """The bytes ``cli._write_json`` writes for ``payload``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            cli._write_json(path, payload, names)
        return path.read_bytes()


class TestJsonText:
    """The one-walk ``--json`` writer against ``json.dumps`` of the
    reference conversion (``tests/conftest.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(report=_reports,
           names=st.sampled_from([None, (), ("a", "b"), ("x\u00e9", "y")]))
    def test_bytes_of_json_dumps(self, report, names):
        assert _written(report, names) == \
            reference_json_text(report, names).encode()

    def test_colliding_keys_keep_the_last_value(self):
        report = {1: "int", "1": "str", True: ["a", {2: None}]}
        assert _written(report, None) == reference_json_text(report).encode()

    def test_unknown_type_refused(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _written({"x": [object()]}, None)


def _conjugate_file(tmp_path):
    path = tmp_path / "conjugate.json"
    path.write_text(json.dumps(schottky_conjugate_data((3.3, -0.3, 0.8))))
    return path


class TestEveryJsonCommand:
    """Each ``--json`` command writes the reference encoding of the payload
    it hands to ``_write_json``."""

    @pytest.mark.parametrize("argv, scene", [
        (["laminate", "{}", "--horizon", "20", "--ball", "5"], "schottky"),
        (["laminate", "{}", "--horizon", "20", "--ball", "5"], "conjugate"),
        (["axioms", "{}"], "schottky"),
        (["axioms", "{}"], "golden"),
        (["limit-set", "{}", "--depth", "6"], "schottky"),
        (["escape", "{}", "--horizon", "20"], "schottky"),
        (["markov", "verify", "{}"], "golden"),
        (["markov", "entropy", "{}"], "golden"),
        (["markov", "measure", "{}"], "golden"),
        (["markov", "words", "{}", "-m", "5", "--list-words"], "golden"),
    ])
    def test_written_bytes(self, argv, scene, schottky, golden, tmp_path,
                           monkeypatch, capsys):
        scenes = {"schottky": schottky, "golden": golden,
                  "conjugate": _conjugate_file(tmp_path)}
        calls = []
        original = cli._write_json

        def recording(path, payload, names=None):
            calls.append((path, payload, names))
            original(path, payload, names)

        monkeypatch.setattr(cli, "_write_json", recording)
        report = tmp_path / "report.json"
        argv = [a.format(scenes[scene]) for a in argv]
        assert run_command(argv + ["--json", str(report)]) == 0
        [(path, payload, names)] = calls
        assert Path(path) == report
        assert report.read_bytes() == \
            reference_json_text(payload, names).encode()
        if argv[0] == "axioms" and scene == "golden":
            assert payload["intersections"] is None


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["laminate", "{scene}", "--horizon", "4", "--ball", "1",
         "--json", "{path}"],
        ["limit-set", "{scene}", "--depth", "2", "--out", "{path}"],
        ["render", "{scene}", "--out", "{path}"],
    ])
    def test_validation_error(self, argv, golden, tmp_path, capsys):
        path = tmp_path / "missing" / "x.out"
        code = run_command([a.format(scene=golden, path=path) for a in argv])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: No such file or directory\n")
        assert not path.parent.exists()

    def test_checked_before_the_run(self, golden, tmp_path, capsys):
        # The SVG path is fine, but nothing is printed or written while
        # the report path cannot be written.
        svg, path = tmp_path / "ok.svg", tmp_path / "missing" / "x.json"
        code = run_command(["laminate", str(golden), "--horizon", "4",
                            "--ball", "1", "--out", str(svg),
                            "--json", str(path)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: No such file or directory\n")
        assert list(tmp_path.iterdir()) == [golden]

    @pytest.mark.parametrize("flag", ["--out", "--json"])
    def test_directory_refused(self, flag, golden, tmp_path, capsys):
        code = run_command(["limit-set", str(golden), "--depth", "2",
                            flag, str(tmp_path)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("json_name", ["same.out", "sub/../same.out"])
    def test_out_and_json_on_one_file_refused(self, json_name, golden,
                                              tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        out = tmp_path / "same.out"
        code = run_command(["laminate", str(golden), "--horizon", "4",
                            "--ball", "1", "--out", str(out),
                            "--json", str(tmp_path / json_name)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: --out and --json name the same file: {out}\n")
        assert not out.exists()

    def test_parent_that_is_a_file_refused(self, golden, tmp_path, capsys):
        path = golden / "x.svg"
        code = run_command(["render", str(golden), "--out", str(path)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: Not a directory\n")

    def test_write_failure_still_reported(self, golden, tmp_path,
                                          monkeypatch, capsys):
        # A path that passes the check but fails on writing (here, the
        # directory vanishes during the run) is still a validation error.
        path = tmp_path / "gone" / "x.svg"
        path.parent.mkdir()
        monkeypatch.setattr(cli, "render_svg",
                            lambda *a: path.parent.rmdir() or "<svg/>")
        code = run_command(["render", str(golden), "--out", str(path)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: No such file or directory\n")


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

    def test_breakdown_in_the_run_prints_nothing(self, schottky, tmp_path,
                                                 monkeypatch, capsys):
        def degenerate(*args, **kwargs):
            raise NumericDegeneracyError("carriers graze tangentially")

        monkeypatch.setattr(lamination, "transversal_intersections",
                            degenerate)
        report = tmp_path / "report.json"
        assert run_command(["laminate", str(schottky), "--horizon", "8",
                            "--ball", "1", "--json", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "flagged: carriers graze tangentially\n"
        assert not report.exists()

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

    def test_shared_end_label_gets_numbered_rows(self, tmp_path, capsys):
        # As the SVG group ids: the two e- rows are numbered in scene
        # order, the lone e+ keeps its label, and --json keeps the label.
        raw = schottky_conjugate_data(None)
        raw["junctures"].append({"end": "e-", "sign": "-", "word": "a b a"})
        scene, report = tmp_path / "shared.json", tmp_path / "escape.json"
        scene.write_text(json.dumps(raw))
        assert run_command(["escape", str(scene), "--json",
                            str(report)]) == 0
        rows = [line.split(":")[0] for line in
                capsys.readouterr().out.splitlines()
                if line.startswith("juncture ")]
        assert rows == ["juncture e--1 (sign -)", "juncture e+ (sign +)",
                        "juncture e--2 (sign -)"]
        data = json.loads(report.read_text())
        assert [r["juncture"] for r in data["reports"]] == ["e-", "e+", "e-"]

    def test_growth_ratio_at_most_one_rejected(self, inner, capsys):
        assert run_command(["escape", str(inner),
                            "--growth-ratio", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: escape growth ratio must exceed 1, got 0.5\n"

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
        assert len(data["intersections"]["points"]) == \
            data["axioms"]["III"]["data"]["points"]

    def test_one_sided_scene_has_no_intersections(self, golden, tmp_path):
        report = tmp_path / "axioms.json"
        assert run_command(["axioms", str(golden), "--horizon", "6",
                            "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["leaves_minus"] == []
        assert data["intersections"] is None


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

    @pytest.mark.parametrize("sub", ["verify", "entropy"])
    def test_repeated_crossing_pair_refused(self, sub, golden, capsys):
        doc = json.loads(golden.read_text())
        doc["markov"]["crossings"].append([1, 2, 0])
        golden.write_text(json.dumps(doc))
        assert run_command(["markov", sub, str(golden)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {golden}: markov.crossings: row 4 repeats the "
                f"pair (1, 2) of row 1\n")

    def test_entropy_golden_mean(self, golden, tmp_path, capsys):
        report = tmp_path / "entropy.json"
        assert run_command(["markov", "entropy", str(golden),
                            "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        with localcontext() as context:
            context.prec = 50
            log_phi = ((1 + Decimal(5).sqrt()) / 2).ln()
        assert f"entropy: {log_phi:.12f}" in (
            capsys.readouterr().out.splitlines())
        assert data["residual"] <= 1e-12

    def test_entropy_not_converged_flagged(self, golden, tmp_path,
                                           monkeypatch, capsys):
        stalled = PerronData(kappa=1.00002, vector=np.array([1.0, 0.0]),
                             residual=4e-10, converged=False, iterations=0,
                             support=np.array([True, False]))
        monkeypatch.setattr(cli, "perron", lambda A: stalled)
        report = tmp_path / "entropy.json"
        assert run_command(["markov", "entropy", str(golden),
                            "--json", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("flagged: eigenpair residual 4.000e-10 above "
                       "tolerance 1.000e-12\n")
        assert not report.exists()

    def test_entropy_of_nilpotent_table_collapses(self, golden, capsys):
        # [[0, 1], [0, 0]]: the class graph gives kappa 0 at once, where
        # the power iteration ran out its 10^5 steps.
        doc = json.loads(golden.read_text())
        doc["markov"]["crossings"] = [[1, 2, 1]]
        golden.write_text(json.dumps(doc))
        assert run_command(["markov", "entropy", str(golden)]) == 2
        assert capsys.readouterr() == (
            "", "flagged: dominant eigenvalue collapsed to zero\n")

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

    def test_listing_spells_two_digit_symbols(self, golden, capsys):
        # 12 symbols, each followed by itself, the next and the one after:
        # symbols 10-12 are two digits, as str() wrote them one by one.
        n = 12
        doc = json.loads(golden.read_text())
        doc["markov"] = {
            "rects": [f"R{i}" for i in range(1, n + 1)],
            "crossings": [[i, (i + d - 1) % n + 1, 1]
                          for i in range(1, n + 1) for d in range(3)]}
        golden.write_text(json.dumps(doc))
        assert run_command(["markov", "words", str(golden), "-m", "3",
                            "--list-words"]) == 0
        A = markov.build_matrix_A(load_scene(golden).markov)
        words = markov.admissible_words(A, 3).words
        assert capsys.readouterr().out == (
            "admissible words of length 3: 108\n"
            + "".join("  " + "".join(str(s) for s in word) + "\n"
                      for word in words))
        assert ("  101112\n" in "".join(
            "  " + "".join(str(s) for s in word) + "\n" for word in words))

    def test_listing_over_budget_flagged(self, golden, tmp_path, capsys):
        report = tmp_path / "words.json"
        assert run_command(["markov", "words", str(golden), "-m", "30",
                            "--list-words", "--json", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("flagged: 2178309 admissible words of length 30 "
                       "exceed the listing budget of 100000\n")
        assert not report.exists()

    def test_count_over_budget_without_listing(self, golden, capsys):
        assert run_command(["markov", "words", str(golden), "-m", "30"]) == 0
        assert capsys.readouterr().out == \
            "admissible words of length 30: 2178309\n"

    @pytest.mark.parametrize("length, calls", [(1, 2), (2, 1), (5, 1),
                                               (20, 1), (30, 1)])
    def test_one_enumeration_per_run(self, length, calls, golden,
                                     monkeypatch):
        lengths = []
        original = markov.admissible_words

        def counting(A, m, *args, **kwargs):
            lengths.append(m)
            return original(A, m, *args, **kwargs)

        monkeypatch.setattr(cli, "admissible_words", counting)
        monkeypatch.setattr(markov, "admissible_words", counting)
        assert run_command(["markov", "words", str(golden), "-m",
                            str(length)]) == 0
        # Length 1 has no coding check of its own; that one runs at 2.
        assert lengths == [length, 2][:calls]


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

    def test_shared_end_label_gets_numbered_group_ids(self, tmp_path):
        # A second minus component labelled e- as well: its juncture group
        # and the first one's are numbered, the lone e+ keeps its label.
        raw = schottky_conjugate_data(None)
        raw["junctures"].append({"end": "e-", "sign": "-", "word": "a b a"})
        scene, out = tmp_path / "shared.json", tmp_path / "shared.svg"
        scene.write_text(json.dumps(raw))
        assert run_command(["render", str(scene), "--out", str(out)]) == 0
        ids = re.findall(r'<g id="([^"]+)"', out.read_text())
        assert ids == ["junctures-e--1", "junctures-e+", "junctures-e--2"]


class TestRunRanges:
    @pytest.mark.parametrize("command", ["laminate", "axioms", "render"])
    @pytest.mark.parametrize("flag, value", [("--horizon", "-2"),
                                             ("--tol", "-1"),
                                             ("--tol", "0")])
    def test_rejected(self, command, flag, value, schottky, tmp_path,
                      capsys):
        argv = [command, str(schottky), flag, value]
        if command == "render":
            argv += ["--out", str(tmp_path / "x.svg")]
        assert run_command(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value)
        for command, flags in (
            ("laminate", ("--angle-tol", "--trace-tol", "--max-letters",
                          "--max-words")),
            ("axioms", ("--angle-tol", "--trace-tol", "--max-letters",
                        "--max-words")),
            ("render", ("--angle-tol", "--trace-tol", "--max-letters",
                        "--max-words")),
            ("limit-set", ("--angle-tol", "--trace-tol", "--max-words")),
            ("escape", ("--trace-tol", "--max-letters")),
        )
        for flag in flags
        for value in {"--angle-tol": ("0", "-1", "1e-13", "1e-300"),
                      "--trace-tol": ("0", "-1")}.get(flag, ("0",))
    ])
    def test_tolerance_and_budget_rejected(self, command, flag, value,
                                           schottky, tmp_path, capsys):
        argv = [command, str(schottky), flag, value]
        if command == "render":
            argv += ["--out", str(tmp_path / "x.svg")]
        if command == "limit-set":
            argv += ["--depth", "3"]
        assert run_command(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert not (tmp_path / "x.svg").exists()

    def test_escape_negative_horizon_rejected(self, schottky, capsys):
        assert run_command(["escape", str(schottky), "--horizon", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: horizon must be nonnegative, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["render", "schottky_ab.json", "--out", "x.svg", "--size", "0"],
        ["render", "schottky_ab.json", "--out", "x.svg", "--size", "20"],
        ["laminate", "schottky_ab.json", "--out", "x.svg", "--size", "7"],
        ["limit-set", "schottky_ab.json", "--depth", "2", "--size", "-5",
         "--out", "x.svg"],
    ])
    def test_size_without_a_disk_rejected(self, argv, schottky, tmp_path,
                                          capsys):
        argv = [str(tmp_path / a) if a.endswith((".json", ".svg")) else a
                for a in argv]
        assert run_command(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: endlam {argv[0]} ")
        assert "argument --size: canvas size must exceed 20" in err
        assert not (tmp_path / "x.svg").exists()

    def test_smallest_size_accepted(self, schottky, tmp_path):
        out = tmp_path / "x.svg"
        assert run_command(["render", str(schottky), "--out", str(out),
                            "--size", "21"]) == 0
        assert 'width="21"' in out.read_text()


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

    def test_angle_tol_floor_keeps_shared_endpoints(self, schottky,
                                                    capsys):
        assert run_command(["laminate", str(schottky),
                            "--angle-tol", "1e-12"]) == 0
        out = capsys.readouterr().out
        assert out.count(" 0 crossing violations") == 2
        assert "transverse intersection points: 128" in out

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
        ["markov", "entropy", "golden.json", "-m", "3"],
        ["markov", "verify", "golden.json", "--list-words"],
        ["markov", "measure", "golden.json", "--list-words"],
    ])
    def test_exits_one_with_usage(self, argv, golden, schottky, tmp_path,
                                  capsys):
        argv = [str(tmp_path / a) if a.endswith((".json", ".svg")) else a
                for a in argv]
        command = argv[:2] if argv[0] == "markov" else argv[:1]
        assert run_command(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"usage: endlam {' '.join(command)} ")
        assert not (tmp_path / "x.svg").exists()

    def test_usage_text_ignores_the_terminal_width(self, golden,
                                                   monkeypatch, capsys):
        errs = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert run_command(["laminate", str(golden), "--depth", "3"]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert max(map(len, errs[0].splitlines()[:-1])) <= 78


class TestParserPath:
    """A run builds the parsers on the path its argv names; where a name is
    missing or unknown it builds every parser of that level, whose usage
    lists them all."""

    @pytest.mark.parametrize("argv, built", [
        (["markov", "entropy", "G"], 3),
        (["markov", "words", "G", "-m", "x"], 3),
        (["laminate", "S"], 2),
        (["render", "-h"], 2),
        (["markov", "ent", "G"], 6),
        (["markov"], 6),
        (["frobnicate"], 11),
        (["-h"], 11),
        ([], 11),
    ])
    def test_parsers_built(self, argv, built, monkeypatch, capsys):
        count = []
        original = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            count.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        run_command(argv)
        assert len(count) == built


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

    @pytest.mark.parametrize("command", ["laminate", "axioms"])
    @pytest.mark.parametrize("scene, audits, meets", [("schottky", 2, 1),
                                                      ("golden", 1, 0)])
    def test_one_audit_per_sign_and_one_intersection(
            self, command, scene, audits, meets, request, monkeypatch):
        path = request.getfixturevalue(scene)
        audit_calls = self._count_calls(monkeypatch, "crossing_audit")
        meet_calls = self._count_calls(monkeypatch,
                                       "transversal_intersections")
        assert run_command([command, str(path), "--horizon", "10",
                            "--ball", "1"]) == 0
        assert len(audit_calls) == audits
        assert len(meet_calls) == meets

    def test_render_without_leaves_skips_extraction(self, schottky,
                                                     tmp_path, monkeypatch):
        extractions = self._count_calls(monkeypatch, "extract_limit_leaves")
        assert run_command(["render", str(schottky), "--out",
                            str(tmp_path / "scene.svg")]) == 0
        assert extractions == []
