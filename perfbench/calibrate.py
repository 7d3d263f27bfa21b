"""Machine-speed reference for the endlam benchmark.

The shared machines this benchmark runs on change speed by up to a factor
of two, for stretches from a fraction of a second to minutes, and CPU time
changes with them.  So the benchmark samples the speed while it measures.
A ``Sampler`` times small fixed pieces of the kind of interpreter work
endlam does every ``INTERVAL`` CPU seconds of the process, and three times
on either side of each job: an arithmetic-bound loop (``_loop``), or that
loop in turn with call-bound set-up work (``_calls``), whichever tracks
the workload's jobs.  The benchmark rescales each job's CPU time by the
mean ratio of nominal to measured time over those samples:

    seconds = (cpu seconds - sampling seconds) * mean(nominal / measured)

Samples are spaced evenly in the process's CPU time, so the mean weighs
each stretch of a long job by how long it lasted; a job too short for the
timer to fire gets the samples around it.  Each piece is timed with the
sampling thread's own CPU clock, so nothing the program leaves running in
other threads can slow it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import signal
import time

# Thread CPU times of ``_loop()`` and ``_calls()`` on an Intel Xeon VM at
# 2.1 GHz with CPython 3.11, at the faster of the two speeds that machine
# switches between.
LOOP_NOMINAL = 0.00015
CALLS_NOMINAL = 0.00045
INTERVAL = 0.02
GAP_SAMPLES = 3


def _loop() -> int:
    """Arithmetic-bound work: float Mobius maps, atan2, tuples, a dict."""
    table = {}
    a, b, c, d = 2.0, 1.0, 1.0, 1.0
    for i in range(500):
        t = (i % 97) * 0.013 - 0.6
        den = c * t + d
        w = (a * t + b) / den if den else math.inf
        table[i % 257] = (math.atan2(-2.0 * w, w * w - 1.0), w)
    return len(table)


def _calls() -> int:
    """Call-bound work, like a short job's set-up: build and run an
    argument parser, dump a little JSON."""
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b"):
        p = sub.add_parser(name)
        p.add_argument("path")
        p.add_argument("--n", type=int, default=1)
    args = parser.parse_args(["b", "file", "--n", "3"])
    return len(json.dumps({"k": [1.5, 2.5, list(range(20))], "p": args.path},
                          indent=1))


# What a Sampler times inside a job, in turn; the first piece also runs
# between jobs.  The geometry workloads' jobs are arithmetic-bound and
# track ``_loop`` best.  The symbolic jobs are short or spend their time
# in calls on small numpy arrays, and track the two kinds together best
# (measured: spread of repeated runs 2% against 8% with ``_loop`` alone).
SAMPLED_WORK = {
    "arithmetic": ((_loop, LOOP_NOMINAL),),
    "mixed": ((_calls, CALLS_NOMINAL), (_loop, LOOP_NOMINAL)),
}


def _timed(work, nominal) -> tuple[float | None, float]:
    """(nominal / measured, CPU seconds spent) for one timed run of
    ``work``.  An untimed run first brings it back into the caches that
    the interrupted code has filled.  The ratio is None when the reading
    cannot be a speed: a thread moved between virtual CPUs can see its
    CPU clock stall or step back."""
    start = time.thread_time()
    work()
    mid = time.thread_time()
    work()
    end = time.thread_time()
    measured = end - mid
    if not nominal / 4.0 < measured < nominal * 50.0:
        return None, max(end - start, 0.0)
    return nominal / measured, end - start


# Run each piece once now: whatever it imports on first use must not be
# imported from inside the signal handler, which can interrupt the import
# system halfway through taking a module lock.
_loop()
_calls()


class Sampler:
    """Speed samples taken while code runs in the main thread.

    ``with sampler.running():`` arms a CPU-time interval timer whose signal
    takes a sample; ``ratios`` collects the samples and ``spent`` the CPU
    seconds they took, which the caller subtracts from what it timed.
    """

    def __init__(self, kind="mixed"):
        self.pieces = SAMPLED_WORK[kind]
        self.ratios = []
        self.spent = 0.0

    def reset(self):
        self.ratios = []
        self.spent = 0.0

    def gap(self):
        """Samples taken between jobs, outside any timed region."""
        ratios = (_timed(*self.pieces[0])[0] for _ in range(GAP_SAMPLES))
        return [r for r in ratios if r is not None]

    def _tick(self, signum, frame):
        work = self.pieces[len(self.ratios) % len(self.pieces)]
        ratio, spent = _timed(*work)
        if ratio is not None:
            self.ratios.append(ratio)
        self.spent += spent

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)


def factor(ratios) -> float | None:
    return sum(ratios) / len(ratios) if ratios else None
