"""Scene files: JSON in, validated objects out.

The format is hand-writable and diff-friendly:

    {
      "metadata": {"name": "...", "description": "..."},
      "group": {"a": [[4, 0], [0, 0.25]], "b": [[2, 1], [1, 1]]},
      "automorphism": {"forward": {"a": "a b", "b": "b"},
                       "inverse": {"a": "a b^-1", "b": "b"}},
      "junctures": [{"end": "e-", "sign": "-", "word": "a", "period": 1}],
      "markov": {"rects": ["R1", "R2"], "crossings": [[1, 1, 1], ...]}
    }

Words are whitespace-separated generator names, each optionally carrying
the suffix ``^-1``.  A juncture's ``period`` may be omitted; when given it
must be 1, since chains step by one iterate.  Rectangles are distinct id
strings and crossing rows are exactly three integers, 1-based [i, j, count],
one row per pair at most.  ``metadata.name``, when given, is a string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import NotHyperbolicError, SceneError, ValidationError
from .group import FreeAutomorphism, FuchsianGroup, Word, verify_automorphism
from .hyperbolic import Isometry
from .lamination import JunctureSpec
from .markov import CrossingTable


@dataclass
class Scene:
    name: str
    group: FuchsianGroup
    automorphism: FreeAutomorphism
    junctures: list[JunctureSpec]
    markov: CrossingTable | None = None


def _reject_duplicates(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise SceneError(f"duplicate name {key!r}")
        seen.add(key)
        out[key] = value
    return out


def _reject_nonfinite(token):
    raise SceneError(f"non-finite number {token!r} in scene")


def _expect(mapping, key, path, kind=None):
    if key not in mapping:
        raise SceneError(f"missing field {path}")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise SceneError(f"field {path} has the wrong type")
    return value


def _parse_matrix(value, path):
    if (not isinstance(value, list) or len(value) != 2
            or any(not isinstance(row, list) or len(row) != 2
                   for row in value)):
        raise SceneError(f"field {path} must be a 2x2 matrix")
    for row in value:
        for entry in row:
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise SceneError(f"field {path} has a non-numeric entry")
    return value


def _parse_word(text, names, path) -> Word:
    if not isinstance(text, str):
        raise SceneError(f"field {path} must be a word string")
    try:
        return Word.parse(text, names)
    except ValidationError as exc:
        raise SceneError(f"field {path}: {exc}") from exc


def parse_scene(text: str) -> Scene:
    """Validate UTF-8 JSON scene text into a Scene."""
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates,
                         parse_constant=_reject_nonfinite)
    except json.JSONDecodeError as exc:
        raise SceneError(f"invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise SceneError("scene must be a JSON object")

    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SceneError("field metadata must be an object")
    name = (_expect(metadata, "name", "metadata.name", str)
            if "name" in metadata else "")

    group_block = _expect(raw, "group", "group", dict)
    if not group_block:
        raise SceneError("field group must name at least one generator")
    names = tuple(group_block.keys())
    generators = []
    for gen_name in names:
        rows = _parse_matrix(group_block[gen_name], f"group.{gen_name}")
        try:
            generators.append(Isometry.from_matrix(rows))
        except ValidationError as exc:
            raise SceneError(f"group.{gen_name}: {exc}") from exc
    try:
        group = FuchsianGroup(names, generators)
    except NotHyperbolicError as exc:
        raise SceneError(str(exc)) from exc

    auto_block = _expect(raw, "automorphism", "automorphism", dict)
    forward_block = _expect(auto_block, "forward", "automorphism.forward",
                            dict)
    inverse_block = _expect(auto_block, "inverse", "automorphism.inverse",
                            dict)
    forward = []
    inverse = []
    for gen_name in names:
        forward.append(_parse_word(
            _expect(forward_block, gen_name,
                    f"automorphism.forward.{gen_name}"),
            names, f"automorphism.forward.{gen_name}"))
        inverse.append(_parse_word(
            _expect(inverse_block, gen_name,
                    f"automorphism.inverse.{gen_name}"),
            names, f"automorphism.inverse.{gen_name}"))
    automorphism = FreeAutomorphism(tuple(forward), tuple(inverse))
    report = verify_automorphism(automorphism)
    if not report.ok:
        failing = sorted({names[gen - 1] for _, gen, _ in report.failures})
        raise SceneError(
            f"automorphism round-trip fails at generator"
            f"{'s' if len(failing) > 1 else ''} {', '.join(failing)}"
        )

    junctures = []
    junc_block = _expect(raw, "junctures", "junctures", list)
    for idx, item in enumerate(junc_block):
        path = f"junctures[{idx}]"
        if not isinstance(item, dict):
            raise SceneError(f"field {path} must be an object")
        word = _parse_word(_expect(item, "word", f"{path}.word"),
                           names, f"{path}.word")
        period = item.get("period", 1)
        if type(period) is not int or period != 1:
            raise SceneError(f"field {path}.period must be 1")
        try:
            junctures.append(JunctureSpec(
                end=_expect(item, "end", f"{path}.end", str),
                sign=_expect(item, "sign", f"{path}.sign", str),
                word=word,
            ))
        except ValidationError as exc:
            raise SceneError(f"{path}: {exc}") from exc

    markov = None
    if "markov" in raw:
        markov_block = raw["markov"]
        if not isinstance(markov_block, dict):
            raise SceneError("field markov must be an object")
        ids = _expect(markov_block, "rects", "markov.rects", list)
        for idx, item in enumerate(ids):
            if not isinstance(item, str):
                raise SceneError(f"field markov.rects[{idx}] must be an id "
                                 f"string")
        if len(set(ids)) != len(ids):
            raise SceneError("markov.rects: duplicate rectangle id")
        crossings = _expect(markov_block, "crossings", "markov.crossings",
                            list)
        for idx, row in enumerate(crossings):
            if (not isinstance(row, list) or len(row) != 3
                    or any(type(x) is not int for x in row)):
                raise SceneError(
                    f"markov.crossings[{idx}] must be integers [i, j, count]"
                )
        try:
            markov = CrossingTable.from_triples(ids, crossings)
        except ValidationError as exc:
            raise SceneError(f"markov.crossings: {exc}") from exc

    return Scene(name=name, group=group,
                 automorphism=automorphism, junctures=junctures,
                 markov=markov)


def load_scene(path) -> Scene:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SceneError(f"scene file not found: {path}") from None
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc
    try:
        return parse_scene(text)
    except SceneError as exc:
        raise SceneError(f"{path}: {exc}") from exc


def scene_path(name: str) -> Path:
    """Path of a scene shipped with the package."""
    return Path(__file__).resolve().parent / "scenes" / name
