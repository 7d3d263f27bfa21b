"""Byte-level pins of every benchmark job.

Seeds 1-3 of each workload are generated with ``perfbench/inputs.py``
into a temporary directory, and each job runs in-process through
``run_command``, in job order.  ``golden/bench_jobs.json`` holds one
sha256 per job over its exit code (or the type of what it raised), its
stdout and stderr with the work directory replaced by ``<work>``, and
the bytes of each file its ``--out``/``--json`` flags name (absent files
as null).

Regenerate only when an output change is intended, from the repo root:
``PYTHONPATH=src python tests/test_bench_golden.py``, which prints the
key, index and argv of every job whose digest changed.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from endlam.cli import run_command

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "bench_jobs.json"
SCENES = ROOT / "src" / "endlam" / "scenes"
SEEDS = (1, 2, 3)


def _load_inputs():
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()
CASES = [(w, s) for w in inputs.WORKLOADS for s in SEEDS]


def job_digest(job, work: Path) -> str:
    argv = job["argv"]
    written = [argv[i + 1] for i, flag in enumerate(argv)
               if flag in ("--json", "--out")]
    for name in written:
        Path(name).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = run_command(argv)
        except Exception as exc:  # the benchmark counts a raise as a failure
            code = f"raised-{type(exc).__name__}"
    texts = [json.dumps([code, stdout.getvalue(), stderr.getvalue()])]
    texts += [Path(name).read_text(encoding="utf-8")
              if Path(name).exists() else None for name in written]
    return hashlib.sha256(json.dumps(texts).replace(
        str(work), "<work>").encode()).hexdigest()


def digests(workload: str, seed: int, work: Path) -> list[tuple[str, str]]:
    """(argv, digest) of each job in job order, the argv joined by spaces
    with the work directory shown as ``<work>``."""
    jobs = inputs.generate(workload, seed, SCENES, work)
    return [(" ".join(job["argv"]).replace(str(work), "<work>"),
             job_digest(job, work)) for job in jobs]


@pytest.mark.parametrize("workload, seed", CASES)
def test_jobs_match_golden(workload, seed, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[
        f"{workload}/{seed}"]
    got = digests(workload, seed, tmp_path)
    assert len(got) == len(expected)
    moved = [f"job {i}: {argv}" for i, ((argv, digest), pinned)
             in enumerate(zip(got, expected)) if digest != pinned]
    assert not moved, "digests moved:\n" + "\n".join(moved)


def _regenerate() -> None:
    """Rewrite the golden file, printing each job whose digest changed:
    its ``workload/seed`` key, its index and its argv."""
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))
    table = {}
    for workload, seed in CASES:
        key = f"{workload}/{seed}"
        with tempfile.TemporaryDirectory() as tmp:
            jobs = digests(workload, seed, Path(tmp))
        table[key] = [digest for _, digest in jobs]
        pinned = old.get(key, [])
        for i, (argv, digest) in enumerate(jobs):
            if i >= len(pinned) or pinned[i] != digest:
                print(f"changed {key} job {i}: {argv}", file=sys.stderr)
        if len(pinned) > len(jobs):
            print(f"removed {key} jobs {len(jobs)}-{len(pinned) - 1}",
                  file=sys.stderr)
    for key in [key for key in old if key not in table]:
        print(f"removed {key}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {sum(map(len, table.values()))} jobs",
          file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
