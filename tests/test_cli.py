import contextlib
import io
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from decimal import Decimal, localcontext
from itertools import chain
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from endlam import cli, hyperbolic, lamination, markov
from endlam.cli import run_command
from endlam.errors import NumericDegeneracyError
from endlam.group import Ball, Word
from endlam.lamination import JunctureSpec
from endlam.markov import PerronData
from endlam.scene import load_scene, scene_path

from conftest import (
    ChainCertificate,
    certificates_of,
    reference_json_text,
    reference_jsonable,
    schottky_conjugate_data,
    torus_ball,
)
from test_cli_golden import COMMANDS, USAGE


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

    @pytest.mark.parametrize("json_out", [False, True])
    def test_lone_surrogate_in_scene_name_is_a_scene_error(
            self, json_out, tmp_path, capsys):
        raw = schottky_conjugate_data(None)
        raw["metadata"]["name"] = "\ud800x"
        scene = tmp_path / "surrogate.json"
        scene.write_text(json.dumps(raw))
        argv = ["laminate", str(scene)]
        if json_out:
            argv += ["--json", str(tmp_path / "report.json")]
        assert run_command(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {scene}: field metadata.name holds a lone "
                       f"surrogate, not UTF-8 text\n")
        assert not (tmp_path / "report.json").exists()

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

    @pytest.mark.parametrize("command", ["laminate", "axioms", "render"])
    def test_word_budget_flagged(self, command, schottky, tmp_path, capsys):
        svg = tmp_path / "x.svg"
        code = run_command([command, str(schottky), "--ball", "3",
                            "--max-words", "52"]
                           + ["--out", str(svg)] * (command == "render"))
        assert code == 2
        assert not svg.exists()
        assert capsys.readouterr().err == (
            "flagged: ball of radius 3 holds 53 words, over the budget of "
            "52\n")

    @pytest.mark.parametrize("argv", [
        ["laminate", "--ball", "20000"], ["axioms", "--ball", "20000"],
        ["render", "--ball", "20000", "--out", "x.svg"],
        ["laminate", "--ball", "1000000"],
        ["limit-set", "--depth", "1000000"]])
    def test_radius_far_over_budget_flagged(self, argv, schottky):
        # The budget is decided without the ball's exact size: at radius
        # 20,000 it has more digits than the interpreter converts to text,
        # and its power takes seconds from radius 30,000 on.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(cli.__file__).resolve().parent.parent),
            env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "endlam", argv[0], str(schottky),
             *argv[1:]], cwd=schottky.parent, env=env, capture_output=True,
            text=True, timeout=10)
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", f"flagged: ball of radius {argv[2]} holds more than "
            "1000000 words, over the budget of 1000000\n")
        assert not (schottky.parent / "x.svg").exists()

    def test_numeric_breakdown_flagged(self, schottky, capsys):
        for base, depth, point in (("0,2e-12", "1", "(0.0, 2e-12)"),
                                   ("1e308,1", "6", "(1e+308, 1.0)"),
                                   ("0,1e300", "6", "(0.0, 1e+300)")):
            code = run_command(["limit-set", str(schottky), f"--base={base}",
                                "--depth", depth])
            assert code == 2
            assert capsys.readouterr() == (
                "", f"flagged: image of {point} collapsed onto the "
                "boundary\n")

    def test_denominator_past_float_range_flagged(self, tmp_path, capsys):
        # At the base point, a's denominator c*z + d has finite parts near
        # 1.3e308 whose abs() overflows; the image, about 2.3e-300, lies on
        # the boundary.
        scene = tmp_path / "huge.json"
        scene.write_text(json.dumps({
            "group": {"a": [[3, 0], [1.3e300, 0.3333333333333333]],
                      "b": [[2, 1], [1, 1]]},
            "automorphism": {"forward": {"a": "a b", "b": "b"},
                             "inverse": {"a": "a b^-1", "b": "b"}},
            "junctures": [{"end": "e-", "sign": "-", "word": "a"}]}))
        code = run_command(["limit-set", str(scene), "--base=1e8,1e8",
                            "--depth", "1"])
        assert (code, capsys.readouterr()) == (2, (
            "", "flagged: image of (100000000.0, 100000000.0) collapsed "
            "onto the boundary\n"))

    def test_disk_point_past_float_range_flagged(self, schottky, tmp_path,
                                                 capsys):
        # (z - i)/(z + i) at z = 1e308 + 1e308i is nan + nan*i.
        report = tmp_path / "report.json"
        code = run_command(["limit-set", str(schottky), "--base=1e308,1e308",
                            "--depth", "0", "--json", str(report)])
        assert (code, capsys.readouterr()) == (2, (
            "", "flagged: image of (1e+308, 1e+308) has no finite disk "
            "point\n"))
        assert not report.exists()

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
            cli._write_json(tmp_path / f"{name}.json", {"rows": [row]},
                            _NAMES)
        assert ((tmp_path / "numpy.json").read_bytes()
                == (tmp_path / "python.json").read_bytes())
        assert json.loads((tmp_path / "numpy.json").read_text()) == {
            "rows": [{"iterate": -3, "word_length": 7, "length": 0.1}]}



# Reports drawn for the writer: every kind of value ``--json`` is handed.
# Words are spelled through generator names; a group has at least one.
_NAMES = ("a", "b")
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
# Arrays with named fields, int and float ones and one with named fields
# of its own, of zero rows or more, and their named rows.  A % in a field
# name must not reach the writer's row template as a placeholder.
_record_dtypes = st.sampled_from([
    lamination.LEAF, lamination.POINT, lamination.VIOLATION,
    np.dtype([("n", np.int64)]),
    np.dtype([("%s", np.float64), ('"', np.int64), ("\u00e9", np.bool_)])])
_record_arrays = _record_dtypes.flatmap(
    lambda dtype: hnp.arrays(dtype, st.integers(0, 4)))
_named_rows = _record_dtypes.flatmap(
    lambda dtype: hnp.arrays(dtype, 1)).map(lambda rows: rows[0])
_records = st.one_of(
    st.builds(lamination.EscapeRow, _numbers, _numbers, _numbers),
    st.builds(ChainCertificate, st.text(max_size=3),
              st.sampled_from(["+", "-"]), _words,
              st.lists(_numbers, max_size=5).map(tuple),
              st.lists(_numbers, max_size=5).map(tuple)),
    # A dataclass field that holds one named row.
    st.builds(lamination.EscapeRow, _named_rows, _numbers, _numbers),
)
# Lists of flat rows of one kind, some with an odd member at either end,
# which makes the writer walk the list.  It encodes a list of flat lists
# or tuples in one call, and splits a column with an empty member at the
# separators instead; it walks a list of dicts or of named rows.
_row_scalars = st.one_of(
    st.none(), st.booleans(), _ints, _floats, st.text(max_size=6),
    st.sampled_from(["],", "},", "[", "{", "\n", "],\n    [", "},\n{",
                     "\u00e9\u03bb\U0001d11e"]))
_row_keys = st.one_of(st.text(max_size=3), st.sampled_from(["],", "{", "\n"]))
_row_kinds = [
    st.lists(_row_scalars, min_size=1, max_size=4).map(tuple),
    st.lists(_row_scalars, min_size=1, max_size=4),
    st.dictionaries(_row_keys, _row_scalars, min_size=1, max_size=3),
    _named_rows,
    st.builds(lamination.EscapeRow, _row_scalars, _row_scalars,
              _row_scalars),
    # Str-keyed dicts that may be empty, lists mixed with tuples, and Words,
    # which the writer spells through the names.
    st.dictionaries(_row_keys, _row_scalars, max_size=3),
    st.one_of(st.lists(_row_scalars, max_size=4),
              st.lists(_row_scalars, max_size=4).map(tuple)),
    _words,
]
_odd_rows = st.one_of(
    st.sampled_from([(), [], {}]),
    # Keys that str() spells other than json does, or that collide.
    st.dictionaries(st.one_of(st.integers(-3, 3), st.booleans(), st.none(),
                              st.sampled_from(["1", "True", "None"])),
                    _row_scalars, min_size=1, max_size=3),
    st.lists(_numpy_scalars, min_size=1, max_size=2).map(tuple),
    st.builds(lamination.EscapeRow, _numpy_scalars, _ints, _floats),
    st.lists(st.lists(_row_scalars, max_size=2), min_size=1, max_size=2),
    _python_scalars, _words, *_row_kinds)
_row_lists = st.one_of(*[
    st.tuples(st.lists(kind, max_size=6),
              st.lists(_odd_rows, max_size=1), st.booleans()).map(
        lambda t: t[1] + t[0] if t[2] else t[0] + t[1])
    for kind in _row_kinds])
# Lists of one dataclass type whose every field column is all scalars, all
# Words or all flat lists or tuples of scalars, which the writer writes
# column by column, some with an odd member at either end,
# which makes it walk the list.  Strings that look like the separators it
# splits encoded columns at, or like % templates, go in the string fields.
_record_text = st.one_of(st.text(max_size=4), st.sampled_from(
    ["],\n      [", "},\n      {", "],", "[", "\n", "%s", "%", "\u00e9"]))
_record_seqs = st.one_of(
    st.just(()), st.lists(_row_scalars, min_size=1, max_size=1),
    st.lists(_row_scalars, min_size=2, max_size=24).map(tuple))
_record_kinds = [
    st.builds(ChainCertificate, _record_text, _record_text,
              _words, _record_seqs, _record_seqs),
    st.builds(lamination.SkippedChain, _record_text, _record_text, _words,
              _record_text),
    st.builds(lamination.EscapeRow, _row_scalars, _row_scalars,
              _row_scalars),
]
_odd_records = st.one_of(
    # A numpy scalar, a list that is not flat, a list for a Word and a
    # named row in a column of their own.
    st.builds(ChainCertificate, _record_text, _record_text,
              _words, st.lists(_numpy_scalars, min_size=1, max_size=2),
              _record_seqs),
    st.builds(ChainCertificate, _record_text, _record_text,
              _words, st.lists(st.lists(_row_scalars, max_size=2),
                               min_size=1, max_size=2), _record_seqs),
    st.builds(lamination.SkippedChain, _record_text, _record_text,
              st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3),
              _record_text),
    st.builds(lamination.EscapeRow, _row_scalars, _named_rows,
              _row_scalars),
    _python_scalars, _named_rows, _words, *_record_kinds)
_record_lists = st.one_of(*[
    st.tuples(st.lists(kind, min_size=1, max_size=6),
              st.lists(_odd_records, max_size=1), st.booleans()).map(
        lambda t: t[1] + t[0] if t[2] else t[0] + t[1])
    for kind in _record_kinds])
_reports = st.recursive(
    st.one_of(_python_scalars, _numpy_scalars, _arrays, _words,
              _record_arrays, _records, _row_lists, _record_lists),
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
           names=st.sampled_from([_NAMES, ("x\u00e9", "y")]))
    def test_bytes_of_json_dumps(self, report, names):
        assert _written(report, names) == \
            reference_json_text(report, names).encode()

    @settings(max_examples=300, deadline=None)
    @given(rows=_row_lists, depth=st.integers(0, 2))
    @example(rows=[{"a": 1}, {True: 2, None: 3}], depth=0)
    @example(rows=[{1: "int", "1": "str"}], depth=1)
    @example(rows=[(1, 2), ()], depth=0)
    @example(rows=[[np.float64(0.5)], [1.5]], depth=2)
    def test_row_lists(self, rows, depth):
        report = rows
        for _ in range(depth):
            report = {"rows": [report, "x"]}
        assert _written(report, _NAMES) == \
            reference_json_text(report, _NAMES).encode()

    def test_row_list_in_one_encoder_call(self, monkeypatch):
        calls = []
        encode = json.JSONEncoder.encode
        monkeypatch.setattr(json.JSONEncoder, "encode",
                            lambda self, o: calls.append(o) or encode(self, o))
        rows = [(0.1 * i, -0.0, "],\n      [") for i in range(40)]
        for report, count in (({"orbit": rows}, 1),
                              ({"orbit": rows + [(np.float64(1.0),)]}, 40)):
            expected = reference_json_text(report, _NAMES).encode()
            calls.clear()
            assert _written(report, _NAMES) == expected
            assert len(calls) == count

    _MATRIX_VALUES = {
        np.float64: [math.nan, math.inf, -0.0, -math.inf, 0.1, 1e300, 0.0,
                     -2.5, 5e-324, 1.0],
        np.int64: [-2 ** 63, 2 ** 63 - 1, 0, -1, 7, 10 ** 12, 3, -5, 1, 2],
        np.bool_: [True, False, False, True, True, False, True, False,
                   False, True]}

    @pytest.mark.parametrize("depth", range(4))
    @pytest.mark.parametrize("dtype", list(_MATRIX_VALUES))
    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (2, 5), (0, 2),
                                       (2, 0)])
    def test_two_dimensional_arrays(self, shape, dtype, depth):
        count = shape[0] * shape[1]
        matrix = np.array(self._MATRIX_VALUES[dtype][:count],
                          dtype=dtype).reshape(shape)
        report, expected = matrix, matrix.tolist()
        for _ in range(depth):
            report = {"rows": [report, "x"]}
            expected = {"rows": [expected, "x"]}
        assert _written(report, _NAMES) == \
            (json.dumps(expected, indent=2) + "\n").encode()

    def test_two_dimensional_array_in_one_encoder_call(self, monkeypatch):
        calls = []
        encode = json.JSONEncoder.encode
        monkeypatch.setattr(json.JSONEncoder, "encode",
                            lambda self, o: calls.append(o) or encode(self, o))
        orbit = np.random.default_rng(0).normal(size=(1457, 2))
        orbit[0] = -0.0, math.nan
        for report, count in ((orbit, 1), (orbit > 0.0, 1),
                              (np.arange(2914).reshape(-1, 2), 1),
                              ({"orbit": orbit, "angles": orbit[:, 0]}, 2),
                              (orbit[:0], 0)):
            expected = reference_json_text(report, _NAMES).encode()
            calls.clear()
            assert _written(report, _NAMES) == expected
            assert len(calls) == count

    @settings(max_examples=300, deadline=None)
    @given(records=_record_lists, depth=st.integers(0, 2),
           names=st.just(_NAMES))
    @example(records=[ChainCertificate(
        "],\n      [", "%s", Word((1, -2)), (), (0.5,))], depth=1,
        names=_NAMES)
    @example(records=[lamination.SkippedChain("e-", "-", Word((1,)), "r"),
                      lamination.SkippedChain("e-", "-", [1, -2], "r")],
             depth=0, names=_NAMES)
    def test_record_lists(self, records, depth, names):
        report = records
        for _ in range(depth):
            report = {"rows": [report, "x"]}
        assert _written(report, names) == \
            reference_json_text(report, names).encode()

    def test_record_list_in_one_encoder_call_per_field(self, monkeypatch):
        calls = []
        encode = json.JSONEncoder.encode
        monkeypatch.setattr(json.JSONEncoder, "encode",
                            lambda self, o: calls.append(o) or encode(self, o))
        certificates = [ChainCertificate(
            "e-", "-", Word((1, 2, -1)[:i % 4]), tuple(range(1 + i % 20)),
            tuple(0.5 ** k for k in range(1 + i % 8))) for i in range(970)]
        odd = ChainCertificate("e-", "-", Word(()),
                                          (np.int64(1),), ())
        # Walked member by member, each non-empty list is one call: the
        # iterates and the gaps.
        walk = 2 * 970
        for report, count in (({"certificates": certificates}, 5),
                              ({"certificates": certificates + [odd]}, walk),
                              ({"certificates": [odd] + certificates}, walk)):
            expected = reference_json_text(report, _NAMES).encode()
            calls.clear()
            assert _written(report, _NAMES) == expected
            assert len(calls) == count

    def test_certificate_tables_sharing_a_ball(self, monkeypatch):
        # Two tables of one run's ball, the second reading rows the first
        # does not, with repeated iterates lists and juncture texts that
        # look like the separators: the bytes of json.dumps, and the
        # ball's words spelled once.
        ball = torus_ball(3)
        spelled = []
        spellings = Ball.spellings
        monkeypatch.setattr(Ball, "spellings", lambda self, *args: (
            spelled.append(args), spellings(self, *args))[1])
        e, f = (JunctureSpec(end, sign, Word((1,))) for end, sign in (
            ("],\n      [", "-"), ("%s\u00e9", "+")))
        iterate = np.array([0, 1, 2, 3, 0, 1, 2, 3, 4, 0, 1, 2, 3])
        gaps = 0.5 ** np.arange(13.0)

        def table(juncture, conj, start, end):
            start, end = np.array(start), np.array(end)
            return lamination.CertificateTable(
                (e, f), np.array(juncture), np.array(conj), start, end,
                np.maximum(start, end - 3), end - 1, iterate, gaps, ball)

        report = {"laminations": {
            "+": table([0, 1, 0, 1], [0, 3, 7, 0], [0, 4, 9, 0],
                       [4, 9, 13, 4]),
            "-": table([1, 1, 0], [len(ball) - 1, 12, 3], [9, 0, 9],
                       [13, 4, 13])}}
        expected = {"laminations": {
            sign: reference_jsonable(certificates_of(t), _NAMES)
            for sign, t in report["laminations"].items()}}
        assert _written(report, _NAMES) == (
            json.dumps(expected, indent=2) + "\n").encode()
        assert spelled == [(_NAMES, len(ball))]

    _LEAF_ROW = {"a_angle": 0.5, "b_angle": -0.0}

    @pytest.mark.parametrize("report, dicts", [
        (np.array([(3, -1, 0.1, float("nan"))], lamination.POINT),
         [{"plus_index": 3, "minus_index": -1, "x": 0.1, "y": float("nan")}]),
        (np.empty(0, lamination.POINT), []),
        ({"leaves": np.array([(0.5, -0.0), (1.0, 2.0)], lamination.LEAF)},
         {"leaves": [_LEAF_ROW, {"a_angle": 1.0, "b_angle": 2.0}]}),
        (np.array([(0, 1, (0.5, -0.0), (1.0, 2.0))], lamination.VIOLATION),
         [{"index_a": 0, "index_b": 1, "leaf_a": _LEAF_ROW,
           "leaf_b": {"a_angle": 1.0, "b_angle": 2.0}}]),
        ([lamination.EscapeRow(
            np.array([(0.5, -0.0)], lamination.LEAF)[0], 7, 0.1)],
         [{"iterate": _LEAF_ROW, "word_length": 7, "length": 0.1}]),
    ])
    def test_record_arrays_are_lists_of_dicts(self, report, dicts):
        assert _written(report, _NAMES) == \
            (json.dumps(dicts, indent=2) + "\n").encode()

    def test_record_array_in_one_encoder_call_per_field(self, monkeypatch):
        calls = []
        encode = json.JSONEncoder.encode
        monkeypatch.setattr(json.JSONEncoder, "encode",
                            lambda self, o: calls.append(o) or encode(self, o))
        rng = np.random.default_rng(0)
        points = np.zeros(1272, lamination.POINT)
        points["plus_index"] = np.arange(1272) // 3
        points["x"], points["y"] = rng.normal(size=(2, 1272))
        violations = np.zeros(152, lamination.VIOLATION)
        violations["leaf_b"]["b_angle"] = rng.uniform(0, 6, 152)
        # The leaves of a violation are a field with two fields of its own.
        for report, count in ((points, 4), (violations, 6),
                              ({"points": points, "none": points[:0]}, 4)):
            expected = reference_json_text(report, _NAMES).encode()
            calls.clear()
            assert _written(report, _NAMES) == expected
            assert len(calls) == count

    def test_colliding_keys_keep_the_last_value(self):
        report = {1: "int", "1": "str", True: ["a", {2: None}]}
        assert _written(report, _NAMES) == \
            reference_json_text(report, _NAMES).encode()

    def test_unknown_type_refused(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _written({"x": [object()]}, _NAMES)


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

        def recording(path, payload, names):
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

    @pytest.mark.parametrize("argv", [
        ["render", "--out"], ["laminate", "--json"], ["laminate", "--out"],
        ["limit-set", "--out"], ["limit-set", "--json"],
        ["escape", "--json"], ["axioms", "--json"],
        ["markov", "verify", "--json"], ["markov", "entropy", "--json"],
        ["markov", "measure", "--json"], ["markov", "words", "--json"]])
    def test_empty_path_refused(self, argv, golden, capsys):
        *command, flag = argv
        code = run_command([*command, str(golden), flag, ""])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: {flag} needs a file path, got ''\n")

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

    @pytest.mark.parametrize("link", ["symlink", "dangling symlink",
                                      "hard link"])
    def test_links_to_one_file_refused(self, link, golden, tmp_path, capsys):
        out, other = tmp_path / "same.out", tmp_path / "other.json"
        if link == "dangling symlink":
            other.symlink_to(out)
        else:
            out.write_text("kept\n")
            (other.symlink_to if link == "symlink" else other.hardlink_to)(
                out)
        code = run_command(["laminate", str(golden), "--horizon", "4",
                            "--ball", "1", "--out", str(out),
                            "--json", str(other)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: --out and --json name the same file: {out}\n")
        if link == "dangling symlink":
            assert not out.exists()
        else:
            assert out.read_text() == "kept\n"

    def test_existing_files_compared_without_resolving(self, golden,
                                                       tmp_path, monkeypatch):
        # Two existing files take two stats; only a missing one needs the
        # resolved paths.
        out, json_path = tmp_path / "x.svg", tmp_path / "x.json"
        out.write_text("")
        json_path.write_text("")
        monkeypatch.setattr(Path, "resolve", None)
        assert run_command(["laminate", str(golden), "--horizon", "4",
                            "--ball", "1", "--out", str(out),
                            "--json", str(json_path)]) == 0
        assert "<svg" in out.read_text()
        assert json.loads(json_path.read_text())

    @pytest.mark.parametrize("flag, name", [
        ("--json", "golden.json"), ("--out", "sub/../golden.json"),
        ("--json", "link.json")])
    def test_scene_file_refused(self, flag, name, golden, tmp_path, capsys):
        # Written over, the scene would be a report the next run refuses.
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(golden)
        path = tmp_path / name
        code = run_command(["laminate", str(golden), "--horizon", "4",
                            "--ball", "1", flag, str(path)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: {flag} names the scene file: {path}\n")
        assert golden.read_bytes() == scene_path("golden.json").read_bytes()

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

    def _refused_before_the_run(self, golden, path, capsys):
        code = run_command(["limit-set", str(golden), "--depth", "2",
                            "--json", str(path)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: Permission denied\n")
        assert path.read_text() == "kept\n"

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root's access() and open() ignore the mode")
    def test_read_only_file_refused(self, golden, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("kept\n")
        path.chmod(0o444)
        self._refused_before_the_run(golden, path, capsys)
        assert stat.S_IMODE(path.stat().st_mode) == 0o444

    def test_file_denied_by_access_refused(self, golden, tmp_path,
                                           monkeypatch, capsys):
        path = tmp_path / "x.json"
        path.write_text("kept\n")
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: (
            os.fspath(p) != str(path) and access(p, mode)))
        self._refused_before_the_run(golden, path, capsys)


class TestWrite:
    """``cli._write`` rewrites an existing file in place: the same file
    holds exactly the new bytes, whatever links lead to it."""

    def _write(self, path, text, capsys):
        cli._write(path, text)
        assert capsys.readouterr() == (f"wrote {path}\n", "")

    def test_shorter_text_over_a_longer_file(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("a much longer earlier report\n")
        inode = path.stat().st_ino
        self._write(path, "short\n", capsys)
        assert path.read_bytes() == b"short\n"
        assert path.stat().st_ino == inode

    def test_utf8_bytes(self, tmp_path, capsys):
        path = tmp_path / "x.svg"
        self._write(path, "λ\n", capsys)
        assert path.read_bytes() == "λ\n".encode("utf-8")

    def test_symbolic_link_followed(self, tmp_path, capsys):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("earlier text\n")
        link.symlink_to(target)
        self._write(link, "new\n", capsys)
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == b"new\n"

    def test_hard_links_share_the_new_bytes(self, tmp_path, capsys):
        path, other = tmp_path / "x.json", tmp_path / "y.json"
        path.write_text("earlier text\n")
        other.hardlink_to(path)
        self._write(path, "new\n", capsys)
        assert path.read_bytes() == other.read_bytes() == b"new\n"
        assert path.stat().st_nlink == 2

    def test_new_file_mode(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        umask = os.umask(0o027)
        try:
            self._write(path, "new\n", capsys)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027

    def test_existing_mode_kept(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("earlier text\n")
        path.chmod(0o600)
        self._write(path, "new\n", capsys)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_device_written_without_truncating(self, capsys):
        # /dev/null cannot be cut to a length.
        self._write(os.devnull, "x", capsys)


# Runs each job of argv[1], a JSON list of argument lists, with stdout
# discarded, and prints their exit codes and the numpy.ma modules loaded.
_GUARD_CHILD = """
import contextlib, io, json, sys
from endlam.cli import run_command
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(run_command(argv))
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[:2] == ["numpy", "ma"])]))
"""


class TestNoMaskedArrays:
    def test_benchmark_command_forms_leave_numpy_ma_unloaded(self, tmp_path):
        # Importing numpy.ma costs a job about 1.6 MB of peak RSS; a bare
        # np.unique imports it, the return_index and return_inverse forms
        # do not.  One job of each command form the benchmark runs, in a
        # fresh interpreter.
        schottky, golden = (str(scene_path(f"{name}.json"))
                            for name in ("schottky_ab", "golden"))
        out = {suffix: str(tmp_path / f"out.{suffix}")
               for suffix in ("json", "svg")}
        jobs = [
            ["limit-set", schottky, "--depth", "6", "--base=0.3,1.1",
             "--out", out["svg"], "--json", out["json"]],
            ["laminate", schottky, "--horizon", "20", "--ball", "5",
             "--json", out["json"], "--out", out["svg"]],
            ["axioms", schottky, "--horizon", "8", "--ball", "2"],
            ["render", golden, "--out", out["svg"], "--leaves"],
            ["escape", golden, "--horizon", "20", "--json", out["json"]],
            ["markov", "entropy", golden, "--json", out["json"]],
            ["markov", "measure", golden, "--json", out["json"]],
            ["markov", "words", golden, "-m", "20", "--list-words"]]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(cli.__file__).resolve().parent.parent),
            env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _GUARD_CHILD, json.dumps(jobs)],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [[0] * len(jobs), []]


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

    def test_ball_spelled_once_per_report(self, schottky, tmp_path,
                                          monkeypatch):
        # The certificates of both signs read the run's one ball, whose
        # words are spelled once for the report.
        spelled = []
        spellings = Ball.spellings
        monkeypatch.setattr(Ball, "spellings", lambda self, *args: (
            spelled.append(len(self)), spellings(self, *args))[1])
        report = tmp_path / "lam.json"
        assert run_command(["laminate", str(schottky), "--horizon", "12",
                            "--ball", "3", "--json", str(report)]) == 0
        certificates = json.loads(report.read_text())["laminations"]
        assert certificates["+"]["certificates"]
        assert certificates["-"]["certificates"]
        assert spelled == [53]

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
        assert [r["period"] for r in data["reports"]] == [1, 1]

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

    def test_growth_ratio_is_a_usage_error(self, capsys):
        assert run_command(["escape", "S", "--growth-ratio", "1.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: endlam escape")

    @staticmethod
    def run_on_word(word, horizon, tmp_path, capsys):
        """Run escape on schottky_ab with the one juncture e- on ``word``:
        the exit code, the juncture's stdout line and its --json report."""
        raw = schottky_conjugate_data(None)
        raw["junctures"] = [{"end": "e-", "sign": "-", "word": word}]
        scene, report = tmp_path / "scene.json", tmp_path / "escape.json"
        scene.write_text(json.dumps(raw))
        code = run_command(["escape", str(scene), "--horizon", str(horizon),
                            "--json", str(report)])
        line, = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("juncture ")]
        data, = json.loads(report.read_text())["reports"]
        return code, line, data

    def test_inconclusive_exits_two(self, tmp_path, capsys):
        # The cyclic lengths of a b^-5 fall, 6, 5, 4, 3, and the class
        # does not repeat.
        code, line, data = self.run_on_word("a b^-1 b^-1 b^-1 b^-1 b^-1", 3,
                                            tmp_path, capsys)
        assert code == 2
        assert line.startswith("juncture e- (sign -): inconclusive;")
        assert (data["verdict"], data["period"]) == ("inconclusive", None)

    @pytest.mark.parametrize("word, horizon", [
        # Cyclic lengths 6, 5, ..., 1 at n = 5, then 2, ..., 16 at n = 20.
        ("a b^-1 b^-1 b^-1 b^-1 b^-1", 20),
        # 11, 12, 13, 14.
        ("a b b b b b b b b b b", 3),
    ])
    def test_growing_cyclic_lengths_non_escaping(self, word, horizon,
                                                 tmp_path, capsys):
        code, line, data = self.run_on_word(word, horizon, tmp_path, capsys)
        assert code == 0
        assert line.startswith("juncture e- (sign -): non-escaping;")
        assert (data["verdict"], data["period"]) == ("non-escaping", None)


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

    @pytest.mark.parametrize("sub", ["verify", "entropy", "measure",
                                     "words"])
    def test_count_beyond_int64_refused(self, sub, golden, capsys):
        doc = json.loads(golden.read_text())
        doc["markov"]["crossings"][2] = [2, 1, 10 ** 20]
        golden.write_text(json.dumps(doc))
        assert run_command(["markov", sub, str(golden)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {golden}: markov.crossings: crossing count at "
                f"(2, 1) is above 2^63 - 1\n")

    def test_largest_int64_count_accepted(self, golden, capsys):
        doc = json.loads(golden.read_text())
        doc["markov"]["crossings"][2] = [2, 1, 2 ** 63 - 1]
        golden.write_text(json.dumps(doc))
        assert run_command(["markov", "verify", str(golden)]) == 0
        assert capsys.readouterr().out == (
            "Markov family: VIOLATIONS\n"
            "  h(R2) crosses R1 in 9223372036854775807 components\n")

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
        # symbols 10-12 are two digits, as str() wrote them one by one,
        # and every symbol is parted from the next by a space.
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
        text = "".join("  " + " ".join(str(s) for s in word) + "\n"
                       for word in words)
        assert capsys.readouterr().out == (
            "admissible words of length 3: 108\n" + text)
        assert "  10 11 12\n" in text and "  1 1 1\n" in text

    def test_listing_tells_words_of_two_digit_symbols_apart(self, golden,
                                                             capsys):
        # 12 symbols, with only 1 -> 11 and 11 -> 1: the words (1, 11) and
        # (11, 1) would both print as 111 without a separator.
        doc = json.loads(golden.read_text())
        doc["markov"] = {"rects": [f"R{i}" for i in range(1, 13)],
                         "crossings": [[1, 11, 1], [11, 1, 1]]}
        golden.write_text(json.dumps(doc))
        assert run_command(["markov", "words", str(golden), "-m", "2",
                            "--list-words"]) == 0
        assert capsys.readouterr().out == (
            "admissible words of length 2: 2\n  1 11\n  11 1\n"
            "dead-end symbols: [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]\n")

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

    @pytest.mark.parametrize("flags", [["-m", "20600"],
                                       ["-m", "21000", "--list-words"],
                                       ["-m", "21000", "--json"]])
    def test_count_over_the_digit_limit_flagged(self, flags, golden,
                                                tmp_path, capsys):
        # Fibonacci counts: more than 4,300 digits from length 20,576 on.
        report = tmp_path / "words.json"
        argv = ["markov", "words", str(golden), *flags]
        if argv[-1] == "--json":
            argv.append(str(report))
        assert run_command(argv) == 2
        length = flags[1]
        assert capsys.readouterr() == ("", (
            f"flagged: the number of admissible words of length {length} "
            f"has more than {sys.get_int_max_str_digits()} digits, the "
            f"interpreter's limit for integer text\n"))
        assert not report.exists()

    def test_count_under_the_digit_limit_printed(self, golden, capsys):
        assert run_command(["markov", "words", str(golden), "-m",
                            "20000"]) == 0
        count = markov.count_admissible(np.array([[1, 1], [1, 0]]), 20000)
        assert len(str(count)) == 4180
        assert capsys.readouterr().out == (
            f"admissible words of length 20000: {count}\n")

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

    def test_markup_in_end_label_is_escaped(self, tmp_path):
        # An end label may be any JSON string; in the group id it is
        # attribute text, so the SVG parses and the id reads back.
        raw = schottky_conjugate_data(None)
        raw["junctures"][0]["end"] = 'e"<&-'
        scene, out = tmp_path / "markup.json", tmp_path / "markup.svg"
        scene.write_text(json.dumps(raw))
        assert run_command(["render", str(scene), "--out", str(out),
                            "--horizon", "8", "--ball", "1"]) == 0
        root = ElementTree.parse(out).getroot()
        ids = [g.get("id") for g in root.iter("{http://www.w3.org/2000/svg}g")]
        assert 'junctures-e"<&-' in ids

    @pytest.mark.parametrize("command", ["render", "escape"])
    def test_control_character_in_end_label_is_a_scene_error(
            self, command, tmp_path, capsys):
        # No SVG id or report line could show it: the scene is refused.
        raw = schottky_conjugate_data(None)
        raw["junctures"][1]["end"] = "e\u0001"
        scene, out = tmp_path / "control.json", tmp_path / "control.svg"
        scene.write_text(json.dumps(raw))
        argv = [command, str(scene)]
        if command == "render":
            argv += ["--out", str(out)]
        assert run_command(argv) == 1
        assert "field junctures[1].end holds U+0001" in capsys.readouterr().err
        assert not out.exists()


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
        for value in {"--angle-tol": ("0", "-1", "1e-13", "1e-300",
                                      "3.141592653589793", "1e300"),
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

    @pytest.mark.parametrize("command, flag, what", [
        ("laminate", "--tol", "chain tolerance"),
        ("laminate", "--angle-tol", "angle tolerance"),
        ("laminate", "--trace-tol", "trace tolerance"),
    ])
    def test_infinite_value_rejected(self, command, flag, what, schottky,
                                     capsys):
        # Infinite tolerances cut every orbit to one entry, blamed a
        # parabolic isometry or dropped the last-gap bound.
        assert run_command([command, str(schottky), flag, "inf"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {what} must be finite, got inf\n"

    @pytest.mark.parametrize("command", ["laminate", "axioms", "limit-set"])
    def test_angle_tol_of_pi_or_more_rejected(self, command, schottky,
                                              capsys):
        # Every angular gap is at most pi: such a tolerance made every
        # ideal point equal and every chain read as collapsed, exit 0.
        assert run_command([command, str(schottky), "--angle-tol",
                            "1e300"]) == 1
        assert capsys.readouterr() == (
            "", "error: angle tolerance must be below pi, got 1e+300\n")

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


# Each command's path of names: the markov subcommands under markov.
PATHS = [*([name] for name in cli._COMMANDS if name != "markov"),
         *(["markov", name] for name in cli._MARKOV_COMMANDS)]
# Token groups in any order: flags of every command with good and bad
# values, abbreviations, help, "--" and bare positionals.
FLAG_TOKENS = [
    ["S"], ["T"], ["--"], ["-h"], ["--he"], ["-"], ["-5"], ["--frob"],
    ["--horizon", "3"], ["--hor", "3"], ["--horizon=x"], ["--ball", "1"],
    ["--tol", "1e-6"], ["--angle-tol", "1e-9"], ["--trace-tol", "1e-9"],
    ["--max-letters", "100"], ["--max-words", "10"], ["--json", "r.json"],
    ["--out", "x.svg"], ["--size", "3"], ["--size", "500"],
    ["--depth", "2"], ["--base", "0,2"], ["--growth-ratio", "1.5"],
    ["--verbose"], ["--leaves"], ["-m", "7"], ["-m", "x"], ["-m7"],
    ["--length=4"], ["--list-words"], ["--list"],
]


# Flags other than the first run's, on each lone path test_parsers_built
# runs; the scene files need not exist, since the parse comes first.
OTHER_FLAGS = {
    ("markov", "entropy"): ["G", "--json", "r.json"],
    ("markov", "words"): ["G", "-m", "3", "--list-words"],
    ("laminate",): ["S", "--horizon", "3", "--ball", "1", "--size", "500"],
    ("render",): ["S", "--out", "x.svg", "--leaves"],
}


class TestParserPath:
    """A run whose argv names a command uses that command's parser alone,
    built at the path's first run in the process and reused after; where
    a name is missing or unknown it builds the whole tree, whose usage
    lists the names of that level."""

    @pytest.mark.parametrize("argv, built", [
        (["markov", "entropy", "G"], 1),
        (["markov", "words", "G", "-m", "x"], 1),
        (["laminate", "S"], 1),
        (["render", "-h"], 1),
        (["markov", "ent", "G"], 11),
        (["markov"], 11),
        (["frobnicate"], 11),
        (["-h"], 11),
        ([], 11),
    ])
    def test_parsers_built(self, argv, built, monkeypatch, tmp_path, capsys):
        """``built`` parsers at the first run.  A lone path builds none
        after that, with the same flags or others, while another path
        builds its own one; a tree path builds all eleven every run.  The
        cache is cleared here alone, so that every other test runs on
        shared parsers, as the benchmark's passes do."""
        monkeypatch.chdir(tmp_path)
        cli._path_parser.cache_clear()
        count = []
        original = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            count.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)

        def built_by(argv):
            before = len(count)
            run_command(argv)
            return len(count) - before

        assert built_by(argv) == built
        if built == 11:
            assert [built_by(argv), built_by(argv)] == [11, 11]
            return
        path = tuple(argv[:2] if argv[0] == "markov" else argv[:1])
        assert built_by(argv) == 0
        assert built_by([*path, *OTHER_FLAGS[path]]) == 0
        assert built_by([*path, "-h"]) == 0
        other = ["axioms", "S"] if path[0] == "markov" else [
            "markov", "verify", "G"]
        assert [built_by(other), built_by(other)] == [1, 0]
        assert built_by(argv) == 0

    @staticmethod
    def _parsed(parser, argv):
        """What ``parser`` makes of ``argv``: its namespace (the ``parser``
        default by its prog) and leftovers, or its exit code and what it
        printed."""
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                args, extras = parser.parse_known_args(argv)
        except SystemExit as exc:
            return exc.code, stdout.getvalue(), stderr.getvalue()
        fields = vars(args)
        fields["parser"] = fields["parser"].prog
        return fields, extras

    def _assert_as_in_tree(self, argv):
        parser, rest = cli._lone_parser(argv)
        assert self._parsed(parser, rest) == self._parsed(cli.build_parser(),
                                                          argv)

    def test_every_path_is_built_alone(self):
        assert [cli._lone_parser(path)[0].prog for path in PATHS] == [
            "endlam " + " ".join(path) for path in PATHS]

    @pytest.mark.parametrize("command", [
        *COMMANDS,
        *(line for line in USAGE if cli._lone_parser(line.split()))])
    def test_golden_lines_parse_as_in_tree(self, command):
        self._assert_as_in_tree(command.split())

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(PATHS),
           st.lists(st.sampled_from(FLAG_TOKENS), max_size=6))
    def test_drawn_flags_parse_as_in_tree(self, path, tokens):
        """Each path's parser is built once and reused across all the
        examples, so this also checks that no parse leaves anything on
        the parser that a later parse sees."""
        self._assert_as_in_tree([*path, *chain.from_iterable(tokens)])


class TestReusedParsers:
    """A run on a reused parser prints, exits and writes what a run of the
    same argv does on a freshly built one, after runs on its path that
    set other flags and that end in usage errors."""

    @pytest.mark.parametrize("before, argv", [
        ([["laminate", "golden.json", "--horizon", "3", "--ball", "1",
           "--tol", "1e-3", "--json", "A.json", "--out", "S.svg"],
          ["laminate", "golden.json", "--size", "5"],
          ["laminate", "golden.json", "--horizon", "-1"]],
         ["laminate", "golden.json", "--json", "B.json"]),
        ([["markov", "words", "golden.json", "-m", "3", "--list-words"],
          ["markov", "words", "golden.json", "-m", "x"]],
         ["markov", "words", "golden.json"]),
        ([["render", "golden.json", "--out", "A.svg", "--leaves"],
          ["render", "golden.json", "--out", "A.svg", "--size", "5"]],
         ["render", "golden.json", "--out", "B.svg"]),
    ], ids=["laminate", "markov-words", "render"])
    def test_runs_leak_nothing(self, before, argv, golden, monkeypatch,
                               capsys):
        monkeypatch.chdir(golden.parent)
        output = Path(argv[-1]) if argv[-2] in ("--json", "--out") else None

        def run(argv):
            if output:
                output.unlink(missing_ok=True)
            code = run_command(argv)
            return (code, *capsys.readouterr(),
                    output.read_bytes() if output else None)

        cli._path_parser.cache_clear()
        codes = [run_command(line) for line in before]
        capsys.readouterr()
        assert codes == [0, *[1] * (len(before) - 1)]
        reused = run(argv)
        assert cli._path_parser.cache_info().misses == 1
        cli._path_parser.cache_clear()
        assert reused == run(argv)
        assert reused[0] == 0


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
        # The -h..h layers and the one-sided families of schottky_ab's two
        # junctures read one word: one ball and one image build serve all.
        balls = self._count_calls(monkeypatch, "enumerate_ball")
        builds = []
        build = lamination._OrbitTable._build
        monkeypatch.setattr(lamination._OrbitTable, "_build",
                            lambda *args: builds.append(args) or build(*args))
        extractions = self._count_calls(monkeypatch, "extract_limit_leaves")
        assert run_command(["render", str(schottky), "--out",
                            str(tmp_path / "leaves.svg"), "--leaves"]) == 0
        assert len({j.word for j in load_scene(schottky).junctures}) == 1
        assert len(balls) == 1
        assert len(builds) == 1
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
