"""Byte-level pins of the README command lines.

Every command line of the README's usage block is pinned verbatim: for
each, ``golden/cli_outputs.json`` holds the exit code, stdout, stderr and
the sha256 of every file it writes (``--json``/``--out``).

Regenerate only when an output change is intended, from the repo root:
``PYTHONPATH=src python tests/test_cli_golden.py``.
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


def record(command: str, workdir: Path) -> dict:
    """Run one command in ``workdir`` (holding copies of the shipped
    scenes) and describe everything it produced."""
    argv = command.split()
    for name in ("schottky_ab.json", "golden.json"):
        shutil.copy(scene_path(name), workdir / name)
    written = [argv[i + 1] for i, flag in enumerate(argv)
               if flag in ("--json", "--out")]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = run_command(argv)
    finally:
        os.chdir(cwd)
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "files": {name: hashlib.sha256(
            (workdir / name).read_bytes()).hexdigest() for name in written},
    }


@pytest.mark.parametrize("command", COMMANDS)
def test_matches_golden(command, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[command]
    assert record(command, tmp_path) == expected


def test_readme_lists_these_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Command line")[1].split("```sh\n")[1]
    lines = block.split("```")[0].splitlines()
    assert tuple(" ".join(line.removeprefix("endlam ").split())
                 for line in lines) == COMMANDS


def _regenerate() -> None:
    table = {}
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            table[command] = record(command, Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
