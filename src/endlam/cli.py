"""Command-line surface.

Exit codes: 0 success, 1 validation problem (bad usage, bad scene, bad
flags), 2 budget, convergence or numeric-breakdown flags, 3 internal
error.  Human-readable reports go to stdout; ``--json PATH`` additionally
writes the structured report, field for field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
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
from .hyperbolic import Geodesic, HPoint, IdealPoint, Isometry
from .lamination import (
    DEFAULT_ESCAPE_HORIZON,
    DEFAULT_GROWTH_RATIO,
    AxiomParams,
    axiom_report,
    crossing_audit,
    escape_test,
    laminate,
    transversal_intersections,
)
from .markov import (
    admissible_words,
    build_matrix_A,
    build_matrix_B,
    coding_consistency,
    invariant_measures,
    perron,
    verify_markov,
)
from .render import RenderStyle, render_svg
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


def _jsonable(obj, names=None):
    if isinstance(obj, Word):
        return obj.format(names) if names else list(obj.letters)
    if isinstance(obj, IdealPoint):
        return obj.theta
    if isinstance(obj, Geodesic):
        return {"a_angle": obj.a.theta, "b_angle": obj.b.theta}
    if isinstance(obj, Isometry):
        return [list(row) for row in obj.matrix]
    if isinstance(obj, HPoint):
        return {"x": obj.x, "y": obj.y}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name), names)
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, names) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(x, names) for x in obj]
    return obj


def _write_json(path, payload, names=None):
    Path(path).write_text(
        json.dumps(_jsonable(payload, names), indent=2) + "\n",
        encoding="utf-8",
    )


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


def _axiom_params(args) -> AxiomParams:
    return AxiomParams(**{name: getattr(args, name) for name in _PARAM_HELP})


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
    sample = limit_set_sample(scene.group, _parse_base(args.base),
                              args.depth, max_words=args.max_words,
                              angle_tol=args.angle_tol,
                              trace_tol=args.trace_tol)
    print(f"scene: {scene.name}")
    print(f"words sampled: {sample.words}")
    print(f"orbit points: {len(sample.orbit)}")
    print(f"boundary fixed points: {len(sample.fixed_points)}")
    print(f"min boundary gap: {sample.min_boundary_gap():.6e}")
    if args.out:
        svg = render_svg([("limit-set", sample)], _style(args))
        Path(args.out).write_text(svg, encoding="utf-8")
        print(f"wrote {args.out}")
    if args.json_path:
        _write_json(args.json_path, {
            "scene": scene.name,
            "depth": args.depth,
            "words": sample.words,
            "orbit": sample.orbit,
            "fixed_point_angles": [p.theta for p in sample.fixed_points],
            "min_boundary_gap": sample.min_boundary_gap(),
        }, scene.group.names)
        print(f"wrote {args.json_path}")
    return EXIT_OK


def _leaf_layers(run):
    return [(f"lamination-{sign}", lam)
            for sign, lam in (("+", run.plus), ("-", run.minus))
            if lam is not None]


def cmd_laminate(args) -> int:
    scene = load_scene(args.scene)
    params = _axiom_params(args)
    run = laminate(scene, params)
    report = {"scene": scene.name, "horizon": params.horizon,
              "ball": params.ball, "tol": params.tol, "laminations": {}}
    print(f"scene: {scene.name} (horizon {params.horizon}, "
          f"ball {params.ball}, tol {params.tol:g})")
    for sign, lam in (("+", run.plus), ("-", run.minus)):
        if lam is None:
            print(f"lamination {sign}: no junctures of the opposite sign")
            continue
        audit = crossing_audit(lam, params.angle_tol)
        print(f"lamination {sign}: {len(lam.leaves)} leaves, "
              f"{len(lam.certificates)} certified chains, "
              f"{len(lam.skipped)} skipped, {len(audit)} crossing "
              f"violations")
        for s in lam.skipped[:5]:
            print(f"  skipped chain [{s.conjugator.format(scene.group.names) or '1'}]: "
                  f"{s.reason}")
        report["laminations"][sign] = {
            "leaves": _jsonable(lam.leaves),
            "certificates": _jsonable(lam.certificates, scene.group.names),
            "skipped": _jsonable(lam.skipped, scene.group.names),
            "crossing_violations": _jsonable(audit),
        }
    if run.plus is not None and run.minus is not None:
        meager = transversal_intersections(run.plus, run.minus,
                                           params.angle_tol)
        print(f"transverse intersection points: {len(meager.points)}")
        report["intersections"] = _jsonable(meager)
    if args.out:
        svg = render_svg(_leaf_layers(run), _style(args))
        Path(args.out).write_text(svg, encoding="utf-8")
        print(f"wrote {args.out}")
    if args.json_path:
        _write_json(args.json_path, report, scene.group.names)
        print(f"wrote {args.json_path}")
    return EXIT_OK


def cmd_escape(args) -> int:
    scene = load_scene(args.scene)
    reports = [escape_test(scene, j, horizon=args.horizon,
                           growth_ratio=args.growth_ratio,
                           max_letters=args.max_letters,
                           trace_tol=args.trace_tol)
               for j in scene.junctures]
    print(f"scene: {scene.name} (horizon {args.horizon}, "
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
        print(f"wrote {args.json_path}")
    if any(rep.verdict == "inconclusive" for rep in reports):
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_axioms(args) -> int:
    scene = load_scene(args.scene)
    params = _axiom_params(args)
    report = axiom_report(scene, params)
    print(f"scene: {scene.name} (horizon {params.horizon}, "
          f"ball {params.ball}, tol {params.tol:g})")
    print(f"caveat: {report.caveat}")
    if not report.endperiodic_like:
        print("flag: scene is not endperiodic-like at this horizon")
    for name in ("I", "II", "III", "IV", "V", "VI"):
        status = report.axioms[name]
        print(f"axiom {name}: {status.status} - {status.detail}")
    if args.json_path:
        payload = {
            "scene": scene.name,
            "caveat": report.caveat,
            "endperiodic_like": report.endperiodic_like,
            "axioms": {k: _jsonable(v, scene.group.names)
                       for k, v in report.axioms.items()},
            "leaves_plus": _jsonable(report.lamination_plus.leaves),
            "leaves_minus": _jsonable(report.lamination_minus.leaves),
            "intersections": _jsonable(report.intersections),
        }
        _write_json(args.json_path, payload, scene.group.names)
        print(f"wrote {args.json_path}")
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
            print(f"wrote {args.json_path}")
        return EXIT_OK
    if args.markov_cmd == "entropy":
        A = build_matrix_A(table)
        data = perron(A)
        if not data.converged:
            print(f"power iteration did not converge "
                  f"(residual {data.residual:.3e})")
            return EXIT_FLAGGED
        value = math.log(data.kappa)
        print(f"transition matrix A: {A.tolist()}")
        print(f"dominant eigenvalue: {data.kappa:.12f}")
        print(f"entropy: {value:.12f}")
        if args.json_path:
            _write_json(args.json_path, {
                "A": A, "kappa": data.kappa, "entropy": value,
                "residual": data.residual,
            })
            print(f"wrote {args.json_path}")
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
            print(f"wrote {args.json_path}")
        return EXIT_OK if result.converged else EXIT_FLAGGED
    if args.markov_cmd == "words":
        A = build_matrix_A(table)
        listing = admissible_words(A, args.length)
        coding = coding_consistency(A, max(2, args.length))
        print(f"admissible words of length {args.length}: {listing.count}")
        if listing.words is not None and args.list_words:
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
            print(f"wrote {args.json_path}")
        return EXIT_OK
    raise ValidationError(f"unknown markov subcommand {args.markov_cmd!r}")


def _style(args) -> RenderStyle:
    return RenderStyle(size=args.size) if args.size else RenderStyle()


def cmd_render(args) -> int:
    scene = load_scene(args.scene)
    run = laminate(scene, _axiom_params(args), extract=args.leaves)
    layers = [(f"junctures-{j.end}", fam) for j, fam in run.families]
    svg = render_svg(layers + _leaf_layers(run), _style(args))
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
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
    p.add_argument("--size", type=int, default=None, help="canvas size")
    _add_flags(p, ("angle_tol", "trace_tol", "max_words", "json"))
    p.set_defaults(func=cmd_limit_set)

    p = sub.add_parser("laminate", help="extract certified limit leaves")
    p.add_argument("scene")
    p.add_argument("--out", default=None, help="write an SVG here")
    p.add_argument("--size", type=int, default=None)
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
    p.add_argument("--size", type=int, default=None)
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
