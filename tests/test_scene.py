import json

import pytest

from endlam.errors import SceneError
from endlam.scene import load_scene, parse_scene, scene_path

MINIMAL = {
    "metadata": {"name": "mini", "description": ""},
    "group": {
        "a": [[4, 0], [0, 0.25]],
        "b": [[2, 1], [1, 1]],
    },
    "automorphism": {
        "forward": {"a": "a b", "b": "b"},
        "inverse": {"a": "a b^-1", "b": "b"},
    },
    "junctures": [
        {"end": "e-", "sign": "-", "word": "a", "period": 1},
    ],
}


def scene_text(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


class TestParse:
    def test_shipped_schottky(self):
        scene = load_scene(scene_path("schottky_ab.json"))
        assert len(scene.group.generators) == 2
        assert scene.automorphism.rank == 2
        assert len(scene.junctures) == 2
        assert scene.markov is None

    def test_shipped_golden(self):
        scene = load_scene(scene_path("golden.json"))
        assert scene.markov is not None
        assert scene.markov.rect_ids == ("R1", "R2")
        assert scene.markov.counts.tolist() == [[1, 1], [1, 0]]

    def test_shipped_inner(self):
        scene = load_scene(scene_path("inner_b.json"))
        assert [j.sign for j in scene.junctures] == ["-", "+"]

    def test_missing_inverse_block(self):
        doc = json.loads(scene_text())
        del doc["automorphism"]["inverse"]
        with pytest.raises(SceneError, match="automorphism.inverse"):
            parse_scene(json.dumps(doc))

    def test_non_hyperbolic_generator(self):
        doc = json.loads(scene_text())
        doc["group"]["b"] = [[1, 1], [0, 1]]  # trace 2
        with pytest.raises(SceneError, match="generator b is not hyperbolic"):
            parse_scene(json.dumps(doc))

    def test_wrong_inverse_names_generator(self):
        doc = json.loads(scene_text())
        doc["automorphism"]["inverse"]["a"] = "a"
        with pytest.raises(SceneError, match="round-trip fails at generator"):
            parse_scene(json.dumps(doc))

    def test_duplicate_generator_name(self):
        text = scene_text().replace(
            '"group": {"a"', '"group": {"b"', 1
        )
        with pytest.raises(SceneError, match="duplicate"):
            parse_scene(text)

    def test_invalid_json_reports_line(self):
        with pytest.raises(SceneError, match="line"):
            parse_scene("{\n  \"group\": oops\n}")

    def test_nonfinite_entry_rejected(self):
        text = scene_text().replace("[[4, 0]", "[[Infinity, 0]")
        with pytest.raises(SceneError, match="non-finite"):
            parse_scene(text)

    def test_bad_word_names_path(self):
        doc = json.loads(scene_text())
        doc["junctures"][0]["word"] = "c"
        with pytest.raises(SceneError, match=r"junctures\[0\].word"):
            parse_scene(json.dumps(doc))

    def test_unknown_file(self, tmp_path):
        with pytest.raises(SceneError, match="not found"):
            load_scene(tmp_path / "missing.json")

    def test_markov_row_shape_checked(self):
        doc = json.loads(scene_text())
        doc["markov"] = {"rects": ["R1"], "crossings": [[1, 1]]}
        with pytest.raises(SceneError, match="crossings"):
            parse_scene(json.dumps(doc))

    def test_markov_orientation_tags(self):
        doc = json.loads(scene_text())
        doc["markov"] = {"rects": ["R1", "R2"],
                         "crossings": [[1, 2, 1, "+"], [2, 1, 1]]}
        with pytest.raises(SceneError, match=r"markov.crossings\[0\]"):
            parse_scene(json.dumps(doc))

    @pytest.mark.parametrize("row", [[1, 2, 1.5], [1, "2", 1],
                                     [1.0, 2, 1], [True, 2, 1]])
    def test_markov_row_entries_must_be_integers(self, row):
        doc = json.loads(scene_text())
        doc["markov"] = {"rects": ["R1", "R2"], "crossings": [[2, 1, 1], row]}
        with pytest.raises(SceneError, match=r"markov.crossings\[1\]"):
            parse_scene(json.dumps(doc))

    def test_markov_rect_object_rejected(self):
        doc = json.loads(scene_text())
        doc["markov"] = {"rects": ["R1", {"id": "R2", "degeneracy": "full"}],
                         "crossings": [[1, 2, 1]]}
        with pytest.raises(SceneError, match=r"markov.rects\[1\]"):
            parse_scene(json.dumps(doc))

    @pytest.mark.parametrize("name", [["x", 1], 7, None, True])
    def test_metadata_name_must_be_string(self, name):
        doc = json.loads(scene_text())
        doc["metadata"]["name"] = name
        with pytest.raises(SceneError, match="metadata.name"):
            parse_scene(json.dumps(doc))

    def test_metadata_name_may_be_omitted(self):
        doc = json.loads(scene_text())
        del doc["metadata"]["name"]
        assert parse_scene(json.dumps(doc)).name == ""

    @pytest.mark.parametrize("period", [2, "2", 1.0, True, 0],
                             ids=["2", "string", "float", "bool", "0"])
    def test_juncture_period_other_than_one_rejected(self, period):
        doc = json.loads(scene_text())
        doc["junctures"][0]["period"] = period
        with pytest.raises(SceneError, match=r"junctures\[0\].period"):
            parse_scene(json.dumps(doc))

    def test_juncture_period_may_be_omitted(self):
        doc = json.loads(scene_text())
        del doc["junctures"][0]["period"]
        assert len(parse_scene(json.dumps(doc)).junctures) == 1
