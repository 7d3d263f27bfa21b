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
from itertools import chain
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
    _laminate,
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
from .render import check_size, numbered_labels, render_svg
from .scene import Scene, load_scene

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_FLAGGED = 2
EXIT_INTERNAL = 3


class _Formatter(argparse.HelpFormatter):
    """Usage and help text wrapped at 78 columns, whatever the terminal:
    the width argparse takes when stdout is not one."""

    def __init__(self, prog):
        super().__init__(prog, width=78)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_Formatter, **kwargs)

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
_SEQUENCE_TYPES = frozenset((list, tuple))


class _ReportText:
    """The text of ``json.dumps(report, indent=2)``, where the report is
    the payload with its result objects replaced by JSON values, built in
    one walk over the payload.

    A ``Word`` becomes its spelling in the generator ``names``, a
    ``Geodesic`` its ``a_angle``/``b_angle``, numpy values their
    ``tolist()``, a dataclass the dict of its fields, dict keys ``str(k)``
    and tuples lists; the types are tried in that order.  A column is a
    list of scalars, of ``Word``s, of flat lists or tuples of scalars, of
    str-keyed dicts of scalars or of ``Geodesic``s (``_column``), and goes
    to json's C encoder in one call, whose text is split into its
    members' texts at the separators (``_column_texts``).  A list of
    records, members of one dataclass type whose every field is a column,
    is written column by column, each record's text from one template.
    Any other list, and every dict, is walked member by member.
    """

    def __init__(self, names):
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
            return self.text(obj.format(self.names), depth)
        if isinstance(obj, Geodesic):
            return self._mapping({"a_angle": obj.a.theta,
                                  "b_angle": obj.b.theta}, depth)
        if isinstance(obj, (np.ndarray, np.generic)):
            return self.text(obj.tolist(), depth)
        names = self._field_names(kind)
        if names is not None:
            return self._mapping({name: getattr(obj, name)
                                  for name in names}, depth)
        if isinstance(obj, dict):
            if not all(type(k) is str for k in obj):
                obj = {str(k): v for k, v in obj.items()}
            return self._mapping(obj, depth)
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            column = self._column(obj)
            if column is None:
                return (self._records_text(obj, depth)
                        or _lines("[", (self.text(x, depth + 1) for x in obj),
                                  depth, "]"))
            return _lines("[", self._column_texts(*column, depth + 1), depth,
                          "]")
        raise TypeError(f"Object of type {kind.__name__} "
                        f"is not JSON serializable")

    def _field_names(self, kind):
        """The field names of the dataclass ``kind``, or None."""
        if kind not in self._fields:
            self._fields[kind] = (
                tuple(f.name for f in dataclasses.fields(kind))
                if dataclasses.is_dataclass(kind) else None)
        return self._fields[kind]

    def _records_text(self, obj, depth):
        """The list ``obj`` of one dataclass type written column by column
        (see the class docstring), or None when it is not."""
        kind = type(obj[0])
        names = self._field_names(kind)
        if (not names or issubclass(kind, (Word, Geodesic))
                or not {kind}.issuperset(map(type, obj))):
            return None
        columns = []
        for name in names:
            column = self._column([getattr(x, name) for x in obj])
            if column is None:
                return None
            columns.append(column)
        # Field names are identifiers, so the template holds no other %.
        row = _lines("{", [encode_basestring_ascii(name) + ": %s"
                           for name in names], depth + 1, "}")
        texts = [self._column_texts(*column, depth + 2) for column in columns]
        return _lines("[", (row % values for values in zip(*texts)), depth,
                      "]")

    def _column(self, values):
        """``values`` as one encoder call takes them and the brackets of
        the containers among them (None for scalars), when they are all
        scalars, all ``Word``s, all flat lists or tuples of scalars, all
        str-keyed dicts of scalars or all ``Geodesic``s; else None."""
        kinds = set(map(type, values))
        if kinds == {Word}:
            return [w.format(self.names) for w in values], None
        if kinds == {Geodesic}:
            values, kinds = [{"a_angle": g.a.theta, "b_angle": g.b.theta}
                             for g in values], {dict}
        if _SCALAR_TYPES.issuperset(kinds):
            return values, None
        if kinds == {dict}:
            if not {str}.issuperset(map(type, chain.from_iterable(values))):
                return None
            members, brackets = map(dict.values, values), "{}"
        elif _SEQUENCE_TYPES.issuperset(kinds):
            members, brackets = values, "[]"
        else:
            return None
        if _SCALAR_TYPES.issuperset(map(type, chain.from_iterable(members))):
            return values, brackets
        return None

    def _column_texts(self, values, brackets, depth):
        """The JSON text at ``depth`` of each of ``values``, from one encoder
        call and one split; ``brackets`` are those of the containers among
        them, None for scalars."""
        encoder = self._flat_encoder(depth)
        text = encoder.encode(values)
        if brackets is None:
            # No encoded scalar holds a raw newline, so the item
            # separators are the only places to split.
            return text[1:-1].split(encoder.item_separator)
        # Between two containers the encoder writes the closing bracket,
        # the item separator and the opening bracket, which no scalar text
        # holds; inside one it writes the members at depth + 1 already.
        opening, closing = brackets
        head = opening + "\n" + "  " * (depth + 1)
        outer = "\n" + "  " * depth + closing
        return [f"{head}{members}{outer}" if members else brackets
                for members in text[2:-2].split(
                    closing + encoder.item_separator + opening)]

    def _mapping(self, obj: dict, depth) -> str:
        """``obj`` has str keys only."""
        if not obj:
            return "{}"
        return _lines("{", (encode_basestring_ascii(k) + ": "
                            + self.text(v, depth + 1)
                            for k, v in obj.items()), depth, "}")

    def _flat_encoder(self, depth):
        """The encoder whose item separator is "," and the line break and
        indent of members at ``depth + 1``."""
        encoder = self._flat.get(depth)
        if encoder is None:
            encoder = self._flat[depth] = json.JSONEncoder(
                separators=(",\n" + "  " * (depth + 1), ": "))
        return encoder


def _lines(opening, members, depth, closing) -> str:
    """The texts ``members`` yields, one to a line at ``depth + 1`` between
    the brackets, the closing one on a line at ``depth``.  A generator
    leaves no list of the members alive beside the text."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(members)
    return "".join((opening, pad, body, "\n", "  " * depth, closing))


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


def _same_file(first, second) -> bool:
    """Whether two paths name one file: two stats when both exist, which
    also see hard links, else the two resolved paths, which also see two
    spellings of a file not yet written."""
    try:
        return os.path.samefile(first, second)
    except OSError:
        return Path(first).resolve() == Path(second).resolve()


def _write_json(path, payload, names) -> None:
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


# A command takes the loaded scene, the run's AxiomParams and the parsed
# flags, computes and prints its report, and returns its exit code, its
# SVG layers (None without --out) and its --json report (None without
# --json); run_command writes both files.
def cmd_limit_set(scene, params, args):
    sample = limit_set_sample(scene.group, _parse_base(args.base),
                              args.depth, max_words=params.max_words,
                              angle_tol=params.angle_tol,
                              trace_tol=params.trace_tol)
    print(f"scene: {scene.name}")
    print(f"words sampled: {sample.words}")
    print(f"orbit points: {len(sample.orbit)}")
    print(f"boundary fixed points: {len(sample.fixed_point_angles)}")
    gap = sample.min_boundary_gap()
    print(f"min boundary gap: {gap:.6e}")
    return EXIT_OK, [("limit-set", sample)], {
        "scene": scene.name,
        "depth": args.depth,
        "words": sample.words,
        "orbit": sample.orbit,
        "fixed_point_angles": sample.fixed_point_angles,
        "min_boundary_gap": gap,
    }


def _leaf_layers(run):
    return [(f"lamination-{sign}", lam)
            for sign, lam in run.laminations.items()]


def _run_header(scene, params) -> None:
    print(f"scene: {scene.name} (horizon {params.horizon}, "
          f"ball {params.ball}, tol {params.tol:g})")


def cmd_laminate(scene, params, args):
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
    return EXIT_OK, _leaf_layers(run), report


def cmd_escape(scene, params, args):
    reports = [escape_test(scene, j, horizon=params.horizon,
                           growth_ratio=args.growth_ratio,
                           max_letters=params.max_letters,
                           trace_tol=params.trace_tol)
               for j in scene.junctures]
    print(f"scene: {scene.name} (horizon {params.horizon}, "
          f"growth ratio {args.growth_ratio:g})")
    labels = numbered_labels([rep.juncture for rep in reports])
    for rep, label in zip(reports, labels):
        first, last = rep.rows[0].length, rep.rows[-1].length
        print(f"juncture {label} (sign {rep.sign}): {rep.verdict}; "
              f"length {first:.6f} -> {last:.6f}")
        if args.verbose:
            for row in rep.rows:
                print(f"  n={row.iterate:+d} letters={row.word_length:4d} "
                      f"length={row.length:.9f}")
    code = (EXIT_FLAGGED if any(rep.verdict == "inconclusive"
                                for rep in reports) else EXIT_OK)
    return code, None, {"scene": scene.name, "reports": reports}


def cmd_axioms(scene, params, args):
    report = axiom_report(scene, params)
    _run_header(scene, params)
    print(f"caveat: {report.caveat}")
    if not report.endperiodic_like:
        print("flag: scene is not endperiodic-like at this horizon")
    for name, status in report.axioms.items():
        print(f"axiom {name}: {status.status} - {status.detail}")
    lams = report.run.laminations
    return EXIT_OK, None, {
        "scene": scene.name,
        "caveat": report.caveat,
        "endperiodic_like": report.endperiodic_like,
        "axioms": report.axioms,
        "leaves_plus": lams["+"].leaves if "+" in lams else [],
        "leaves_minus": lams["-"].leaves if "-" in lams else [],
        "intersections": report.run.intersections,
    }


def cmd_markov_verify(scene, params, args):
    check = verify_markov(_require_markov(scene))
    if check.ok:
        print("Markov family: OK")
    else:
        print("Markov family: VIOLATIONS")
        for i, j, count in check.violations:
            print(f"  h(R{i}) crosses R{j} in {count} components")
    return EXIT_OK, None, check


def cmd_markov_entropy(scene, params, args):
    A = build_matrix_A(_require_markov(scene))
    data = perron(A)
    value = data.entropy()
    print(f"transition matrix A: {A.tolist()}")
    print(f"dominant eigenvalue: {data.kappa:.12f}")
    print(f"entropy: {value:.12f}")
    return EXIT_OK, None, {"A": A, "kappa": data.kappa, "entropy": value,
                           "residual": data.residual}


def cmd_markov_measure(scene, params, args):
    B = build_matrix_B(_require_markov(scene))
    result = invariant_measures(B)
    print(f"count matrix B: {B.tolist()}")
    print(f"projective constant: {result.kappa:.12f}")
    print(f"mu+ weights: {[f'{x:.9f}' for x in result.mu_plus]}")
    print(f"mu- weights: {[f'{x:.9f}' for x in result.mu_minus]}")
    if not result.full_support_plus or not result.full_support_minus:
        print("flag: not full support (reducible count matrix)")
    return EXIT_OK if result.converged else EXIT_FLAGGED, None, result


def cmd_markov_words(scene, params, args):
    A = build_matrix_A(_require_markov(scene))
    listing = admissible_words(A, args.length)
    if args.list_words and listing.words is None:
        raise BudgetExceededError(
            f"{listing.count} admissible words of length {args.length} "
            f"exceed the listing budget of {LIST_BUDGET}")
    # The coding check runs at length 2 at least; it reuses the listing
    # when that has its length.
    coding = coding_consistency(
        A, max(2, args.length),
        listing=listing if args.length >= 2 else None)
    print(f"admissible words of length {args.length}: {listing.count}")
    if args.list_words:
        symbols = [str(i) for i in range(A.shape[0] + 1)]
        sys.stdout.write("".join(["  " + "".join([symbols[s] for s in word])
                                  + "\n" for word in listing.words]))
    if coding.dead_end_symbols:
        print(f"dead-end symbols: {coding.dead_end_symbols}")
    return EXIT_OK, None, {"count": listing.count, "words": listing.words,
                           "coding": coding}


def cmd_render(scene, params, args):
    drawn, run = _laminate(scene, params, extract=args.leaves, layers=True)
    layers = [(f"junctures-{j.end}", fam) for j, fam in drawn]
    return EXIT_OK, layers + _leaf_layers(run), None


def _command(sub, name, func, text):
    """A subcommand parser taking a scene, run by ``func``; ``text`` is its
    help line."""
    p = sub.add_parser(name, help=text)
    p.add_argument("scene")
    p.set_defaults(func=func, parser=p)
    return p


def _chosen(registry, argv):
    """The registration functions of the parsers ``argv`` may need: the one
    ``argv[0]`` names, or all of them in registry order."""
    if argv and argv[0] in registry:
        return [registry[argv[0]]]
    return list(registry.values())


# Each function registers one subcommand's parser on ``sub``; ``rest`` is
# the argv after its name, which only markov reads.
def _add_limit_set(sub, rest):
    p = _command(sub, "limit-set", cmd_limit_set,
                 "sample the orbit and boundary fixed points")
    p.add_argument("--depth", type=int, default=6,
                   help="word-length radius of the sample")
    p.add_argument("--base", default="0,1",
                   help="half-plane base point as 'x,y'")
    p.add_argument("--out", default=None, help="write an SVG here")
    p.add_argument("--size", type=int, default=1000, action=_SizeAction,
                   help="canvas size")
    _add_flags(p, ("angle_tol", "trace_tol", "max_words", "json"))


def _add_laminate(sub, rest):
    p = _command(sub, "laminate", cmd_laminate,
                 "extract certified limit leaves")
    p.add_argument("--out", default=None, help="write an SVG here")
    p.add_argument("--size", type=int, default=1000, action=_SizeAction)
    _add_flags(p, (*_PARAM_HELP, "json"))


def _add_escape(sub, rest):
    p = _command(sub, "escape", cmd_escape,
                 "translation-length escape dichotomy")
    p.add_argument("--growth-ratio", type=float,
                   default=DEFAULT_GROWTH_RATIO)
    p.add_argument("--verbose", action="store_true",
                   help="print the full length table")
    _add_flags(p, ("horizon", "trace_tol", "max_letters", "json"),
               horizon=DEFAULT_ESCAPE_HORIZON)


def _add_axioms(sub, rest):
    p = _command(sub, "axioms", cmd_axioms, "finite-scale diagnostic report")
    _add_flags(p, (*_PARAM_HELP, "json"))


def _markov_json_only(name, func, text):
    """Registers a markov subcommand whose one flag is --json."""
    return lambda markov: _add_flags(_command(markov, name, func, text),
                                     ("json",))


def _add_markov_words(markov):
    p = _command(markov, "words", cmd_markov_words, "count admissible words")
    p.add_argument("-m", "--length", type=int, default=5,
                   help="word length")
    p.add_argument("--list-words", action="store_true",
                   help="print the words")
    _add_flags(p, ("json",))


_MARKOV_COMMANDS = {
    "verify": _markov_json_only("verify", cmd_markov_verify,
                                "check the crossing family"),
    "entropy": _markov_json_only("entropy", cmd_markov_entropy,
                                 "entropy of the transition matrix"),
    "measure": _markov_json_only("measure", cmd_markov_measure,
                                 "invariant measures of the count matrix"),
    "words": _add_markov_words,
}


def _add_markov(sub, rest):
    p = sub.add_parser("markov", help="crossing-family checks and spectra")
    markov = p.add_subparsers(dest="markov_cmd", required=True, prog=p.prog)
    for add in _chosen(_MARKOV_COMMANDS, rest):
        add(markov)


def _add_render(sub, rest):
    p = _command(sub, "render", cmd_render,
                 "draw juncture orbits (and leaves)")
    p.add_argument("--out", required=True)
    p.add_argument("--leaves", action="store_true",
                   help="also extract and draw limit leaves")
    p.add_argument("--size", type=int, default=1000, action=_SizeAction)
    _add_flags(p, _PARAM_HELP, horizon=4, ball=1)


# In the order of the top-level usage and help.
_COMMANDS = {
    "limit-set": _add_limit_set,
    "laminate": _add_laminate,
    "escape": _add_escape,
    "axioms": _add_axioms,
    "markov": _add_markov,
    "render": _add_render,
}


def build_parser(argv=()) -> _Parser:
    """The parser of the command line ``argv``, holding only the path that
    ``argv`` names.

    When ``argv[0]`` is a command only its parser is registered, and under
    ``markov`` only that of the subcommand ``argv[1]`` names.  argparse hands
    every argument after a command's name to that command's parser, and a
    parser prints its list of subcommands only when the name is missing or
    unknown.  So every other argv gets all the parsers of its level: no
    command, ``-h``, a flag or an unknown name in the command's place (the
    full tree), and ``markov`` alone, ``markov -h`` or an unknown markov
    subcommand (all four markov subcommands).
    """
    parser = _Parser(prog="endlam",
                     description="Desk-scale lamination approximations for "
                                 "endperiodic surface maps")
    # Each prog is given so that argparse does not format a usage line to
    # find it.
    sub = parser.add_subparsers(dest="command", prog=parser.prog)
    for add in _chosen(_COMMANDS, argv):
        add(sub, argv[1:])
    return parser


def run_command(argv) -> int:
    parser = build_parser(argv)
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
    out = getattr(args, "out", None)
    json_path = getattr(args, "json_path", None)
    try:
        for flag, path in (("--out", out), ("--json", json_path)):
            if path:
                _check_output(path)
                # Two stats, far cheaper than resolving both paths; it
                # raises for a missing file, which is no scene to lose.
                try:
                    scene_file = os.path.samefile(path, args.scene)
                except OSError:
                    scene_file = False
                if scene_file:
                    raise ValidationError(
                        f"{flag} names the scene file: {path}")
        if out and json_path and _same_file(out, json_path):
            raise ValidationError(
                f"--out and --json name the same file: {out}")
        scene = load_scene(args.scene)
        code, layers, report = args.func(scene, _axiom_params(args), args)
        if out:
            _write(out, render_svg(layers, args.size))
        if json_path:
            _write_json(json_path, report, scene.group.names)
        return code
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
