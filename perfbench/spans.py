"""Spans and counts at endlam's layer boundaries, recorded from outside.

``Tracer.install()`` wraps the public functions named in ``SPANNED`` and
``COUNTED`` under every name an endlam module binds them to (for example
``crossing_audit`` is reached both as ``endlam.cli.crossing_audit`` and as
``endlam.lamination.crossing_audit``) and ``uninstall()`` puts the
originals back.  Spans stay in memory as (job, name, start, end, parent)
and are written out once, at the end of the run.

Hyperbolic-kernel calls only get counted: each takes about a microsecond,
so a span around it would mostly time the span.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time

SPANNED = {
    "lamination": ("crossing_audit", "transversal_intersections",
                   "juncture_orbit", "extract_limit_leaves", "axiom_report",
                   "escape_test", "GeodesicFamily.merge"),
    "group": ("limit_set_sample", "enumerate_ball", "apply_automorphism",
              "evaluate_word"),
    "markov": ("perron", "invariant_measures", "count_admissible",
               "admissible_words", "coding_consistency"),
    "render": ("render_svg",),
    "scene": ("load_scene",),
}
COUNTED = {
    "hyperbolic": ("geodesic_relation", "boundary_action", "same_ideal_point",
                   "axis", "geodesic_intersection"),
}
ROOT = "cli.run_command"


def _ball_size(rank: int, k: int) -> int:
    return 1 + sum(2 * rank * (2 * rank - 1) ** (n - 1)
                   for n in range(1, k + 1))


def _arg(func, args, kwargs, name):
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Work counts taken from a call's arguments and result, per span name.
def _orbit_counts(func, args, kwargs, result):
    scene = _arg(func, args, kwargs, "scene")
    n_range = _arg(func, args, kwargs, "n_range")
    iterates = len(set(n_range)) if n_range is not None else 25
    tried = _ball_size(scene.group.rank,
                       _arg(func, args, kwargs, "ball_k")) * iterates
    return {"entries": len(result), "tried": tried}


def _extract_counts(func, args, kwargs, result):
    family = _arg(func, args, kwargs, "family")
    chains = len({prov.chain_key() for _, prov in family.entries})
    return {"leaves": len(result.leaves),
            "certified": len(result.certificates), "chains": chains}


def _audit_counts(func, args, kwargs, result):
    n = len(_arg(func, args, kwargs, "lam").leaves)
    return {"pairs": n * (n - 1) // 2, "violations": len(result)}


def _meet_counts(func, args, kwargs, result):
    plus = _arg(func, args, kwargs, "lam_plus").leaves
    minus = _arg(func, args, kwargs, "lam_minus").leaves
    return {"pairs": len(plus) * len(minus), "points": len(result.points)}


COUNT_HOOKS = {
    "lamination.juncture_orbit": _orbit_counts,
    "lamination.extract_limit_leaves": _extract_counts,
    "lamination.crossing_audit": _audit_counts,
    "lamination.transversal_intersections": _meet_counts,
    "group.enumerate_ball": lambda f, a, k, r: {"words": len(r)},
    "group.apply_automorphism": lambda f, a, k, r: {"letters": len(r)},
    "markov.perron": lambda f, a, k, r: {
        "iterations": r.iterations, "nonconverged": int(not r.converged)},
    "render.render_svg": lambda f, a, k, r: {"bytes": len(r.encode())},
}


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans = []          # [job, name, start, end, parent index]
        self.counts = {}         # (name, counter) -> run total
        self.job = None
        self._stack = []
        self._patches = []

    # recording -------------------------------------------------------

    def _bump(self, name, key, value=1):
        self.counts[(name, key)] = self.counts.get((name, key), 0) + value

    def span(self, name, func, hook=None):
        spans, stack, clock = self.spans, self._stack, time.thread_time

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([self.job, name, clock(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            self._bump(name, "calls")
            if hook is not None:
                for key, value in hook(func, args, kwargs, result).items():
                    self._bump(name, key, value)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def counter(self, name, func):
        key = (name, "calls")
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def run(self, job_id, func, *args):
        """Call ``func`` as the root span of job ``job_id``."""
        self.job = job_id
        try:
            return self.span(ROOT, func)(*args)
        finally:
            self.job = None

    # installing ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "endlam" or name.startswith("endlam.")]
        for layer, names in list(SPANNED.items()) + list(COUNTED.items()):
            module = sys.modules[f"endlam.{layer}"]
            for attr in names:
                name = f"{layer}.{attr.split('.')[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = classmethod(self.span(name, original.__func__))
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = (self.counter(name, original) if layer in COUNTED
                           else self.span(name, original,
                                          COUNT_HOOKS.get(name)))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # reporting -------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus the part of it that
        its child spans cover."""
        children = {}
        for i, (_, _, start, end, parent) in enumerate(self.spans):
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for i, (_, _, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def per_job(self, selfs, factors):
        """{job: {name: [total time, total self time]}}, each job's times
        multiplied by its factor."""
        table = {}
        for (job, name, start, end, _), own in zip(self.spans, selfs):
            entry = table.setdefault(job, {}).setdefault(name, [0.0, 0.0])
            entry[0] += (end - start) * factors[job]
            entry[1] += own * factors[job]
        return table

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for job, name, start, end, parent in self.spans:
                fh.write(json.dumps({"job": job, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _median_over_jobs(table, name, which):
    values = [entry[name][which] for entry in table.values() if name in entry]
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float, factors):
    """The per-layer metrics of BENCHMARK.json from one traced pass;
    ``factors`` rescales each job's times to nominal machine speed."""
    table = tracer.per_job(tracer.self_times(), factors)
    c = tracer.counts

    def count(name, key="calls"):
        return c.get((name, key), 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer, attrs in SPANNED.items():
        for attr in attrs:
            name = f"{layer}.{attr.split('.')[-1]}"
            put(f"{name}.s", _median_over_jobs(table, name, 0), "s/job")
    put("group.limit_set_sample.self_s",
        _median_over_jobs(table, "group.limit_set_sample", 1), "s/job")
    put("cli.self_s", _median_over_jobs(table, ROOT, 1), "s/job")

    for name, key in (("lamination.crossing_audit", "pairs"),
                      ("lamination.crossing_audit", "violations"),
                      ("lamination.transversal_intersections", "pairs"),
                      ("lamination.transversal_intersections", "points"),
                      ("lamination.juncture_orbit", "entries"),
                      ("lamination.extract_limit_leaves", "leaves"),
                      ("group.enumerate_ball", "words"),
                      ("group.apply_automorphism", "calls"),
                      ("group.apply_automorphism", "letters"),
                      ("group.evaluate_word", "calls"),
                      ("markov.perron", "calls"),
                      ("markov.perron", "iterations"),
                      ("markov.perron", "nonconverged"),
                      ("render.render_svg", "bytes"),
                      ("scene.load_scene", "calls")):
        put(f"{name}.{key}", count(name, key), "count")
    for attr in COUNTED["hyperbolic"]:
        put(f"hyperbolic.{attr}.calls", count(f"hyperbolic.{attr}"), "count")
    put("lamination.juncture_orbit.kept_ratio",
        ratio(count("lamination.juncture_orbit", "entries"),
              count("lamination.juncture_orbit", "tried")), "ratio")
    put("lamination.extract_limit_leaves.certified_ratio",
        ratio(count("lamination.extract_limit_leaves", "certified"),
              count("lamination.extract_limit_leaves", "chains")), "ratio")
    put("trace.overhead_s", overhead_s, "s")
    return out
