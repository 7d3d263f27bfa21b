"""Byte-level pins of the README command lines and of the usage texts.

Every command line of the README's usage block is pinned verbatim: for
each, ``golden/cli_outputs.json`` holds the exit code, stdout, stderr and
the sha256 of every file it writes (``--json``/``--out``).  For the help
requests and usage errors of ``USAGE``, ``golden/cli_usage.json`` holds
the exit code, stdout and stderr.

Regenerate both only when an output change is intended, from the repo
root: ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from endlam.cli import run_command
from endlam.scene import scene_path

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"
USAGE_GOLDEN = Path(__file__).parent / "golden" / "cli_usage.json"

COMMANDS = (
    "limit-set schottky_ab.json --depth 6 --out limits.svg",
    "laminate schottky_ab.json --horizon 12 --ball 3 --tol 1e-6 "
    "--json report.json",
    "laminate golden.json --json golden_report.json",
    "escape schottky_ab.json --horizon 20 --growth-ratio 1.5",
    "axioms schottky_ab.json --horizon 12 --ball 3",
    "markov verify golden.json",
    "markov entropy golden.json",
    "markov measure golden.json",
    "markov words golden.json -m 5 --list-words",
    "render schottky_ab.json --out scene.svg --leaves",
)

# Help and usage errors: no command, an unknown or misspelled one, a flag
# before the command, each parser's help and a flag it does not read.  The
# scene "S" does not exist; every run but the abbreviation's stops in
# argument parsing, before a scene is loaded.
USAGE = (
    "",
    "-h",
    "--help",
    "-h laminate",
    "frobnicate",
    "lam S",
    "--x laminate S",
    "markov",
    "markov -h",
    "markov frob S",
    "markov ent S",
    "markov entropy",
    "limit-set -h",
    "laminate -h",
    "escape -h",
    "axioms -h",
    "markov verify -h",
    "markov entropy -h",
    "markov measure -h",
    "markov words -h",
    "render -h",
    "limit-set S --horizon 3",
    "laminate S --depth 3",
    "escape S --ball 1",
    "axioms S --out x.svg",
    "markov verify S --horizon 3",
    "markov entropy S --horizon 3",
    "markov measure S -m 3",
    "markov words S --horizon 3",
    "render S --out x.svg --json r.json",
    "escape golden.json --hor 3",
    "laminate S --horizon x",
    "markov words S -m x",
    "laminate S --size 3",
    "render S",
)


def run(command: str, workdir: Path) -> dict:
    """Run one command in ``workdir``, which gets copies of the shipped
    scenes, and return its exit code and printed text."""
    argv = command.split()
    for name in ("schottky_ab.json", "golden.json"):
        shutil.copy(scene_path(name), workdir / name)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = run_command(argv)
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def record(command: str, workdir: Path) -> dict:
    """``run`` plus the sha256 of every file the command writes."""
    argv = command.split()
    written = [argv[i + 1] for i, flag in enumerate(argv)
               if flag in ("--json", "--out")]
    return {**run(command, workdir),
            "files": {name: hashlib.sha256(
                (workdir / name).read_bytes()).hexdigest()
                for name in written}}


@pytest.mark.parametrize("command", COMMANDS)
def test_matches_golden(command, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[command]
    assert record(command, tmp_path) == expected


@pytest.mark.parametrize("command", USAGE)
def test_usage_matches_golden(command, tmp_path):
    expected = json.loads(USAGE_GOLDEN.read_text(encoding="utf-8"))[command]
    assert run(command, tmp_path) == expected


def test_readme_lists_these_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Command line")[1].split("```sh\n")[1]
    lines = block.split("```")[0].splitlines()
    assert tuple(" ".join(line.removeprefix("endlam ").split())
                 for line in lines) == COMMANDS


def _regenerate() -> None:
    for path, commands, describe in ((GOLDEN, COMMANDS, record),
                                     (USAGE_GOLDEN, USAGE, run)):
        table = {}
        for command in commands:
            with tempfile.TemporaryDirectory() as tmp:
                table[command] = describe(command, Path(tmp))
        path.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
