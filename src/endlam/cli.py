"""Command-line surface.

Exit codes: 0 success, 1 validation problem (bad usage, bad scene, bad
flags), 2 budget, convergence or numeric-breakdown flags, 3 internal
error.  Human-readable reports go to stdout; ``--json PATH`` additionally
writes the structured report, field for field: the bytes
``json.dumps(report, indent=2)`` writes plus a newline, so non-ASCII text
is written as ASCII escapes, floats as Python's ``repr``, and NaN and
infinities as ``NaN``, ``Infinity`` and ``-Infinity``.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    EndlamError,
    NumericDegeneracyError,
    ValidationError,
)
from .group import Word, limit_set_sample
from .hyperbolic import Geodesic, HPoint
from .lamination import (
    DEFAULT_ESCAPE_HORIZON,
    DEFAULT_GROWTH_RATIO,
    AxiomParams,
    axiom_report,
    escape_test,
    laminate,
)
# Not called here; perfbench's tracer test checks this binding.
from .lamination import crossing_audit  # noqa: F401
from .markov import (
    LIST_BUDGET,
    admissible_words,
    build_matrix_A,
    build_matrix_B,
    coding_consistency,
    invariant_measures,
    perron,
    verify_markov,
)
from .render import check_size, render_svg
from .scene import Scene, load_scene

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_FLAGGED = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# How json.dumps spells each type it writes as it is; exact types only, so
# that a subclass (np.float64 is one of float) takes the converting path.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_SCALAR_TYPES = frozenset(_SCALAR_TEXT)


class _ReportText:
    """The text of ``json.dumps(report, indent=2)``, where the report is
    the payload with its result objects replaced by JSON values, built in
    one walk over the payload.

    A ``Word`` becomes its spelling in ``names`` (its letters without
    names), a ``Geodesic`` its ``a_angle``/``b_angle``, numpy values their
    ``tolist()``, a dataclass the dict of its fields, dict keys ``str(k)``
    and tuples lists; the types are tried in that order.  A list or dict
    whose members are all scalars goes to json's C encoder in one call.
    """

    def __init__(self, names=None):
        self.names = names
        self._fields = {}   # type -> its dataclass field names, or None
        self._flat = {}     # depth -> encoder of flat containers there

    def text(self, obj, depth=0) -> str:
        """``obj`` as JSON whose members are indented to ``depth + 1``."""
        kind = type(obj)
        scalar = _SCALAR_TEXT.get(kind)
        if scalar is not None:
            return scalar(obj)
        if isinstance(obj, Word):
            return self.text(obj.format(self.names) if self.names
                             else list(obj.letters), depth)
        if isinstance(obj, Geodesic):
            return self._mapping({"a_angle": obj.a.theta,
                                  "b_angle": obj.b.theta}, depth)
        if isinstance(obj, (np.ndarray, np.generic)):
            return self.text(obj.tolist(), depth)
        if kind not in self._fields:
            self._fields[kind] = (
                tuple(f.name for f in dataclasses.fields(kind))
                if dataclasses.is_dataclass(kind) else None)
        if self._fields[kind] is not None:
            return self._mapping({name: getattr(obj, name)
                                  for name in self._fields[kind]}, depth)
        if isinstance(obj, dict):
            if not all(type(k) is str for k in obj):
                obj = {str(k): v for k, v in obj.items()}
            return self._mapping(obj, depth)
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            if _SCALAR_TYPES.issuperset(map(type, obj)):
                return self._flat_text(obj, depth)
            pad = "\n" + "  " * (depth + 1)
            return ("[" + pad
                    + ("," + pad).join([self.text(x, depth + 1) for x in obj])
                    + "\n" + "  " * depth + "]")
        raise TypeError(f"Object of type {kind.__name__} "
                        f"is not JSON serializable")

    def _mapping(self, obj: dict, depth) -> str:
        """``obj`` has str keys only."""
        if not obj:
            return "{}"
        if _SCALAR_TYPES.issuperset(map(type, obj.values())):
            return self._flat_text(obj, depth)
        pad = "\n" + "  " * (depth + 1)
        return ("{" + pad
                + ("," + pad).join([encode_basestring_ascii(k) + ": "
                                    + self.text(v, depth + 1)
                                    for k, v in obj.items()])
                + "\n" + "  " * depth + "}")

    def _flat_text(self, obj, depth) -> str:
        # Without indent json's C encoder writes each member after the item
        # separator, so "," plus the line break and indent of the members
        # gives the indent=2 layout once the brackets get theirs.
        encoder = self._flat.get(depth)
        if encoder is None:
            encoder = self._flat[depth] = json.JSONEncoder(
                separators=(",\n" + "  " * (depth + 1), ": "))
        text = encoder.encode(obj)
        return (text[0] + "\n" + "  " * (depth + 1) + text[1:-1]
                + "\n" + "  " * depth + text[-1])


def _write(path, text) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc
    print(f"wrote {path}")


def _check_output(path) -> None:
    """Refuse, before the run, a path ``_write`` cannot write: its parent
    must be a writable directory, and it must not be a directory itself."""
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    elif not os.access(target.parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise ValidationError(f"cannot write {path}: {os.strerror(code)}")


def _write_json(path, payload, names=None) -> None:
    _write(path, _ReportText(names).text(payload) + "\n")


# Help text of the flag of each AxiomParams field, in help order.  A flag
# takes its default and its type from the field's default.
_PARAM_HELP = {
    "tol": "convergence tolerance for chain extraction",
    "horizon": "iterate range half-width",
    "ball": "conjugator ball radius",
    "angle_tol": "ideal-point equality tolerance (radians)",
    "trace_tol": "isometry classification tolerance",
    "max_letters": "substitution length budget",
    "max_words": "enumeration size budget",
}
_PARAM_DEFAULTS = AxiomParams()


def _add_flags(parser, names, **defaults):
    """Register the flags in ``names``: AxiomParams fields and "json"."""
    for name, text in _PARAM_HELP.items():
        if name in names:
            default = getattr(_PARAM_DEFAULTS, name)
            parser.add_argument("--" + name.replace("_", "-"),
                                type=type(default), default=default,
                                help=text)
    if "json" in names:
        parser.add_argument("--json", dest="json_path", metavar="PATH",
                            default=None,
                            help="write the structured report here")
    parser.set_defaults(**defaults)


class _SizeAction(argparse.Action):
    """Checks ``--size`` while parsing, so that a canvas with no room to
    draw is a usage error before the command prints anything."""

    def __call__(self, parser, namespace, value, option_string=None):
        try:
            check_size(value)
        except ValidationError as exc:
            parser.error(f"argument {option_string}: {exc}")
        setattr(namespace, self.dest, value)


def _axiom_params(args) -> AxiomParams:
    """The run parameters of the flags ``args`` holds; the fields of flags
    its command does not take keep their defaults."""
    return AxiomParams(**{name: getattr(args, name) for name in _PARAM_HELP
                          if hasattr(args, name)})


def _require_markov(scene: Scene):
    if scene.markov is None:
        raise ValidationError("scene has no markov block")
    return scene.markov


def _parse_base(text) -> HPoint:
    try:
        x_str, y_str = text.split(",")
        return HPoint(float(x_str), float(y_str))
    except (ValueError, TypeError) as exc:
        raise ValidationError(
            f"--base must be 'x,y' with y > 0, got {text!r}"
        ) from exc


def cmd_limit_set(args) -> int:
    scene = load_scene(args.scene)
    params = _axiom_params(args)
    sample = limit_set_sample(scene.group, _parse_base(args.base),
                              args.depth, max_words=params.max_words,
                              angle_tol=params.angle_tol,
                              trace_tol=params.trace_tol)
    print(f"scene: {scene.name}")
    print(f"words sampled: {sample.words}")
    print(f"orbit points: {len(sample.orbit)}")
    print(f"boundary fixed points: {len(sample.fixed_points)}")
    print(f"min boundary gap: {sample.min_boundary_gap():.6e}")
    if args.out:
        _write(args.out, render_svg([("limit-set", sample)], args.size))
    if args.json_path:
        _write_json(args.json_path, {
            "scene": scene.name,
            "depth": args.depth,
            "words": sample.words,
            "orbit": sample.orbit,
            "fixed_point_angles": [p.theta for p in sample.fixed_points],
            "min_boundary_gap": sample.min_boundary_gap(),
        }, scene.group.names)
    return EXIT_OK


def _leaf_layers(run):
    return [(f"lamination-{sign}", lam)
            for sign, lam in run.laminations.items()]


def _run_header(scene, params) -> None:
    print(f"scene: {scene.name} (horizon {params.horizon}, "
          f"ball {params.ball}, tol {params.tol:g})")


def cmd_laminate(args) -> int:
    scene = load_scene(args.scene)
    params = _axiom_params(args)
    run = laminate(scene, params)
    report = {"scene": scene.name, "horizon": params.horizon,
              "ball": params.ball, "tol": params.tol,
              "laminations": run.laminations}
    _run_header(scene, params)
    for sign in ("+", "-"):
        lam = run.laminations.get(sign)
        if lam is None:
            print(f"lamination {sign}: no junctures of the opposite sign")
            continue
        print(f"lamination {sign}: {len(lam.leaves)} leaves, "
              f"{len(lam.certificates)} certified chains, "
              f"{len(lam.skipped)} skipped, "
              f"{len(lam.crossing_violations)} crossing violations")
        for s in lam.skipped[:5]:
            print(f"  skipped chain [{s.conjugator.format(scene.group.names) or '1'}]: "
                  f"{s.reason}")
    if run.intersections is not None:
        print(f"transverse intersection points: "
              f"{len(run.intersections.points)}")
        report["intersections"] = run.intersections
    if args.out:
        _write(args.out, render_svg(_leaf_layers(run), args.size))
    if args.json_path:
        _write_json(args.json_path, report, scene.group.names)
    return EXIT_OK


def cmd_escape(args) -> int:
    scene = load_scene(args.scene)
    params = _axiom_params(args)
    reports = [escape_test(scene, j, horizon=params.horizon,
                           growth_ratio=args.growth_ratio,
                           max_letters=params.max_letters,
                           trace_tol=params.trace_tol)
               for j in scene.junctures]
    print(f"scene: {scene.name} (horizon {params.horizon}, "
          f"growth ratio {args.growth_ratio:g})")
    for rep in reports:
        first, last = rep.rows[0].length, rep.rows[-1].length
        print(f"juncture {rep.juncture} (sign {rep.sign}): {rep.verdict}; "
              f"length {first:.6f} -> {last:.6f}")
        if args.verbose:
            for row in rep.rows:
                print(f"  n={row.iterate:+d} letters={row.word_length:4d} "
                      f"length={row.length:.9f}")
    if args.json_path:
        _write_json(args.json_path, {"scene": scene.name,
                                     "reports": reports},
                    scene.group.names)
    if any(rep.verdict == "inconclusive" for rep in reports):
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_axioms(args) -> int:
    scene = load_scene(args.scene)
    params = _axiom_params(args)
    report = axiom_report(scene, params)
    _run_header(scene, params)
    print(f"caveat: {report.caveat}")
    if not report.endperiodic_like:
        print("flag: scene is not endperiodic-like at this horizon")
    for name, status in report.axioms.items():
        print(f"axiom {name}: {status.status} - {status.detail}")
    if args.json_path:
        lams = report.run.laminations
        payload = {
            "scene": scene.name,
            "caveat": report.caveat,
            "endperiodic_like": report.endperiodic_like,
            "axioms": report.axioms,
            "leaves_plus": lams["+"].leaves if "+" in lams else [],
            "leaves_minus": lams["-"].leaves if "-" in lams else [],
            "intersections": report.run.intersections,
        }
        _write_json(args.json_path, payload, scene.group.names)
    return EXIT_OK


def cmd_markov(args) -> int:
    scene = load_scene(args.scene)
    table = _require_markov(scene)
    names = scene.group.names
    if args.markov_cmd == "verify":
        check = verify_markov(table)
        if check.ok:
            print("Markov family: OK")
        else:
            print("Markov family: VIOLATIONS")
            for i, j, count in check.violations:
                print(f"  h(R{i}) crosses R{j} in {count} components")
        if args.json_path:
            _write_json(args.json_path, check, names)
        return EXIT_OK
    if args.markov_cmd == "entropy":
        A = build_matrix_A(table)
        data = perron(A)
        value = data.entropy()
        print(f"transition matrix A: {A.tolist()}")
        print(f"dominant eigenvalue: {data.kappa:.12f}")
        print(f"entropy: {value:.12f}")
        if args.json_path:
            _write_json(args.json_path, {
                "A": A, "kappa": data.kappa, "entropy": value,
                "residual": data.residual,
            })
        return EXIT_OK
    if args.markov_cmd == "measure":
        B = build_matrix_B(table)
        result = invariant_measures(B)
        print(f"count matrix B: {B.tolist()}")
        print(f"projective constant: {result.kappa:.12f}")
        print(f"mu+ weights: {[f'{x:.9f}' for x in result.mu_plus]}")
        print(f"mu- weights: {[f'{x:.9f}' for x in result.mu_minus]}")
        if not result.full_support_plus or not result.full_support_minus:
            print("flag: not full support (reducible count matrix)")
        if args.json_path:
            _write_json(args.json_path, result)
        return EXIT_OK if result.converged else EXIT_FLAGGED
    if args.markov_cmd == "words":
        A = build_matrix_A(table)
        listing = admissible_words(A, args.length)
        if args.list_words and listing.words is None:
            raise BudgetExceededError(
                f"{listing.count} admissible words of length {args.length} "
                f"exceed the listing budget of {LIST_BUDGET}")
        # The coding check runs at length 2 at least; it reuses the
        # listing when that has its length.
        coding = coding_consistency(
            A, max(2, args.length),
            listing=listing if args.length >= 2 else None)
        print(f"admissible words of length {args.length}: {listing.count}")
        if args.list_words:
            for word in listing.words:
                print("  " + "".join(str(s) for s in word))
        if coding.dead_end_symbols:
            print(f"dead-end symbols: {coding.dead_end_symbols}")
        if args.json_path:
            _write_json(args.json_path, {
                "count": listing.count,
                "words": listing.words,
                "coding": coding,
            })
        return EXIT_OK
    raise ValidationError(f"unknown markov subcommand {args.markov_cmd!r}")


def cmd_render(args) -> int:
    scene = load_scene(args.scene)
    run = laminate(scene, _axiom_params(args), extract=args.leaves)
    layers = [(f"junctures-{j.end}", fam) for j, fam in run.families]
    _write(args.out, render_svg(layers + _leaf_layers(run), args.size))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="endlam",
                     description="Desk-scale lamination approximations for "
                                 "endperiodic surface maps")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("limit-set", parents=[], help="sample the orbit and "
                       "boundary fixed points")
    p.add_argument("scene")
    p.add_argument("--depth", type=int, default=6,
                   help="word-length radius of the sample")
    p.add_argument("--base", default="0,1",
                   help="half-plane base point as 'x,y'")
    p.add_argument("--out", default=None, help="write an SVG here")
    p.add_argument("--size", type=int, default=1000, action=_SizeAction,
                   help="canvas size")
    _add_flags(p, ("angle_tol", "trace_tol", "max_words", "json"))
    p.set_defaults(func=cmd_limit_set)

    p = sub.add_parser("laminate", help="extract certified limit leaves")
    p.add_argument("scene")
    p.add_argument("--out", default=None, help="write an SVG here")
    p.add_argument("--size", type=int, default=1000, action=_SizeAction)
    _add_flags(p, (*_PARAM_HELP, "json"))
    p.set_defaults(func=cmd_laminate)

    p = sub.add_parser("escape", help="translation-length escape dichotomy")
    p.add_argument("scene")
    p.add_argument("--growth-ratio", type=float,
                   default=DEFAULT_GROWTH_RATIO)
    p.add_argument("--verbose", action="store_true",
                   help="print the full length table")
    _add_flags(p, ("horizon", "trace_tol", "max_letters", "json"),
               horizon=DEFAULT_ESCAPE_HORIZON)
    p.set_defaults(func=cmd_escape)

    p = sub.add_parser("axioms", help="finite-scale diagnostic report")
    p.add_argument("scene")
    _add_flags(p, (*_PARAM_HELP, "json"))
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("markov", help="crossing-family checks and spectra")
    p.add_argument("markov_cmd",
                   choices=("verify", "entropy", "measure", "words"))
    p.add_argument("scene")
    p.add_argument("-m", "--length", type=int, default=5,
                   help="word length for the words subcommand")
    p.add_argument("--list-words", action="store_true")
    _add_flags(p, ("json",))
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("render", help="draw juncture orbits (and leaves)")
    p.add_argument("scene")
    p.add_argument("--out", required=True)
    p.add_argument("--leaves", action="store_true",
                   help="also extract and draw limit leaves")
    p.add_argument("--size", type=int, default=1000, action=_SizeAction)
    _add_flags(p, _PARAM_HELP, horizon=4, ball=1)
    p.set_defaults(func=cmd_render)

    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # The subcommand's parser reports them, so that its usage line
            # shows the flags the subcommand does take.
            getattr(args, "parser", parser).error(
                f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    try:
        for path in (getattr(args, "out", None),
                     getattr(args, "json_path", None)):
            if path:
                _check_output(path)
        return args.func(args)
    except (BudgetExceededError, ConvergenceError,
            NumericDegeneracyError) as exc:
        print(f"flagged: {exc}", file=sys.stderr)
        return EXIT_FLAGGED
    except EndlamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
