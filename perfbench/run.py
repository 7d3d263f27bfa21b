"""Benchmark of the endlam command line, run from the root of a checkout.

    python3 perfbench/run.py --workload lam-deep --seed 1 --seconds 15 --trace 0

Each job is one README command, run in-process through
``endlam.cli.run_command`` on scene files generated from ``--seed``, and
checked against an independent oracle (``oracles.py``).  One client runs
the jobs in a closed loop: each starts when the previous one has ended.
The run makes a fixed number of whole passes over the seeded job list,
about ``--seconds`` at nominal machine speed (``inputs.passes``), so that
what it attempts and what fails repeat exactly for a seed.  Job times are CPU seconds rescaled to a
nominal machine speed by ``calibrate.py``; the README says why.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes, then one more pass with every layer wrapped
(``spans.py``), and prints the per-layer metrics; its counts repeat
exactly for a seed.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 1 before printing a result.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import inputs
import oracles
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PAIRS = 7
# One set-up as a user's process pays it: start the interpreter, import
# endlam, and read every input scene the workload uses.
SETUP_CODE = """
import pathlib, sys
sys.path.insert(0, sys.argv[1])
import endlam, endlam.cli
for path in sorted(pathlib.Path(sys.argv[2]).glob("*.json")):
    endlam.load_scene(path)
"""
# A fixed reference set-up of the same kind that uses nothing of endlam:
# start the interpreter, import what endlam.cli imports from outside the
# package, and parse a little JSON.  Its CPU seconds on an Intel Xeon VM
# at 2.1 GHz with CPython 3.11 (median of 84 runs):
REFERENCE_CODE = """
import argparse, dataclasses, json, math, pathlib, numpy
doc = json.dumps({"group": {"a": [[2.0, 1.0], [1.0, 1.0]]},
                  "crossings": [[i, j, i * j % 11]
                                for i in range(40) for j in range(40)]})
for _ in range(60):
    json.loads(doc)
"""
REFERENCE_NOMINAL = 0.29


def import_endlam():
    """endlam.cli from this checkout's src/, or exit 1."""
    package = SRC / "endlam"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no endlam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import endlam.cli

    if Path(endlam.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported endlam from {endlam.cli.__file__}, "
                 f"not from {package}")
    return endlam.cli


def child_cpu(code: str, *args: str) -> float:
    """CPU seconds of one fresh interpreter running ``code``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed: {proc.stderr.strip()}")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime
            - before.ru_utime - before.ru_stime)


def measure_setup(inputs_dir: Path) -> float:
    """Median over SETUP_PAIRS of one set-up's CPU time over that of the
    reference set-up run right after it, in nominal seconds.  Start-up is
    import- and memory-bound work that calibrate.py's samples do not
    track; a reference of the same kind, timed next to it, does."""
    ratios = []
    for _ in range(SETUP_PAIRS):
        own = child_cpu(SETUP_CODE, str(SRC), str(inputs_dir))
        ratios.append(own / child_cpu(REFERENCE_CODE))
    return statistics.median(ratios) * REFERENCE_NOMINAL


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_job(run_command, job, sampler, tracer=None):
    """(exit code or 'raised-<type>', CPU seconds, speed factor or None,
    stdout, stderr) of one job."""
    out, err = io.StringIO(), io.StringIO()
    ratios = sampler.gap()
    sampler.reset()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            sampler.running():
        start, wall = cpu_seconds(), time.perf_counter()
        try:
            if tracer is None:
                rc = run_command(job["argv"])
            else:
                rc = tracer.run(job["id"], run_command, job["argv"])
        except Exception as exc:  # a raise is a failed job, not a crash
            rc = f"raised-{type(exc).__name__}"
        elapsed = cpu_seconds() - start - sampler.spent
        wall = time.perf_counter() - wall - sampler.spent
    # A single-threaded job's CPU time cannot exceed its wall time; when
    # the CPU clock says otherwise it has stepped, and wall time stands in.
    if not 0.0 <= elapsed <= wall + 1e-3:
        elapsed = wall
    ratios += sampler.ratios + sampler.gap()
    return (rc, elapsed, calibrate.factor(ratios), out.getvalue(),
            err.getvalue())


class Tally:
    """Job times and failure causes of a run.

    ``cpu`` holds each job's CPU seconds as measured and ``times`` the same
    rescaled to nominal machine speed (calibrate.py).
    """

    def __init__(self, sampled_work):
        self.cpu = []
        self.times = []
        self.scales = []
        self.causes = collections.Counter()
        self.sampler = calibrate.Sampler(sampled_work)

    def add(self, oracle, job, result):
        rc, elapsed, factor, out, err = result
        if factor is None:  # no valid speed sample: keep the last speed
            factor = self.scales[-1] if self.scales else 1.0
        self.cpu.append(elapsed)
        self.times.append(elapsed * factor)
        self.scales.append(factor)
        cause = rc if isinstance(rc, str) else oracle.check(job, rc, out, err)
        if cause is not None:
            self.causes[cause] += 1

    @property
    def failed(self):
        return sum(self.causes.values())


def run_passes(run_command, jobs, oracle, passes, sampled_work):
    """``passes`` whole passes over ``jobs``.  Also returns the peak RSS
    after the first pass: later passes repeat its jobs, and the heap they
    leave behind would make the peak depend on the run's length."""
    tally = Tally(sampled_work)
    for done in range(passes):
        for job in jobs:
            tally.add(oracle, job, run_job(run_command, job, tally.sampler))
        if done == 0:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally, rss_mb


def traced_pass(run_command, jobs, oracle, tally):
    """One pass with every layer wrapped; returns the tracer and each
    job's speed factor."""
    tracer = spans.Tracer()
    factors = {}
    tracer.install()
    try:
        for job in jobs:
            tally.add(oracle, job,
                      run_job(run_command, job, tally.sampler, tracer))
            factors[job["id"]] = tally.scales[-1]
    finally:
        tracer.uninstall()
    return tracer, factors


def summary(workload, seed, tally, passes, jobs, metrics):
    n = len(tally.times)
    lines = [f"workload {workload}, seed {seed}: {n} jobs in {passes} "
             f"passes of {len(jobs)}, {sum(tally.cpu):.2f} CPU s in jobs, "
             f"speed factor median {statistics.median(tally.scales):.3f}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    if n >= 100:
        p90 = statistics.quantiles(tally.times, n=10)[-1]
        lines.append(f"  {'job_s.p90':<14} {p90:.6g} s"
                     f" ({n - int(0.9 * n)} jobs beyond it)")
    else:
        lines.append(f"  {'job_s.p90':<14} not reported: {n} jobs leave "
                     f"fewer than ten beyond p90")
    lines.append(f"  {'failed_frac':<14} {tally.failed / n:.6g} "
                 f"({tally.failed}/{n})")
    for cause, count in sorted(tally.causes.items()):
        known = "known" if cause in oracles.KNOWN_CAUSES else "NEW"
        lines.append(f"    {cause:<22} {count:5d} ({count / n:.4f}, {known})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_endlam()
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        jobs = inputs.generate(args.workload, args.seed,
                               SRC / "endlam" / "scenes", work)
        setup_s = measure_setup(work / "inputs")
        oracle = oracles.Oracle(work / "inputs")
        passes = inputs.passes(args.workload, args.seconds)
        tally, rss_mb = run_passes(cli.run_command, jobs, oracle, passes,
                                   inputs.SAMPLED_WORK[args.workload])
        untraced = list(tally.times)
        metrics = {
            "jobs_per_s": {"value": len(untraced) / sum(untraced),
                           "unit": "1/s"},
            "job_s.p50": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print(summary(args.workload, args.seed, tally, passes, jobs, metrics))
        if args.trace:
            tracer, factors = traced_pass(cli.run_command, jobs, oracle,
                                          tally)
            traced = tally.times[len(untraced):]
            overhead = statistics.median(traced) - statistics.median(untraced)
            metrics = spans.layer_metrics(tracer, overhead, factors)
            tracer.write(WORK / f"spans-{args.workload}-s{args.seed}.jsonl")
            print(f"traced pass: {len(traced)} jobs, {len(tracer.spans)} "
                  f"spans, overhead {overhead:+.6f} s on job_s.p50")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = set(tally.causes) <= set(oracles.KNOWN_CAUSES)
    print(json.dumps({"correct": correct, "attempted": len(tally.times),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
