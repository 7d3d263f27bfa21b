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
import stat
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
from .hyperbolic import HPoint
from .lamination import (
    DEFAULT_ESCAPE_HORIZON,
    DEFAULT_GROWTH_RATIO,
    AxiomParams,
    CertificateTable,
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
    ``CertificateTable`` the list of its rows' records, a numpy
    array with named fields the list of its rows, a named row or a
    dataclass the dict of its fields, other numpy values their
    ``tolist()``, dict keys ``str(k)`` and tuples lists.  A column is a
    list of scalars, of ``Word``s or of flat lists or tuples of scalars
    (``_column``), and goes to json's C encoder in one call, whose text is
    split into its members' texts at the separators (``_column_texts``).
    A list of records, an array with named fields or members of one
    dataclass type whose every field is a column, is written column by
    column, each record's text from one template; a non-empty 2-D array
    of bools or numbers from one encoder call over all its scalars and
    one template of its rows.  Any other list, and every dict, is walked
    member by member.
    """

    def __init__(self, names):
        self.names = names
        self._fields = {}   # type -> its dataclass field names, or None
        self._flat = {}     # depth -> encoder of flat containers there
        self._ball = self._words = None   # the last ball, its words' texts

    def text(self, obj, depth=0) -> str:
        """``obj`` as JSON whose members are indented to ``depth + 1``."""
        kind = type(obj)
        scalar = _SCALAR_TEXT.get(kind)
        if scalar is not None:
            return scalar(obj)
        if isinstance(obj, Word):
            return self.text(obj.format(self.names), depth)
        if kind is CertificateTable:
            return self._certificates_text(obj, depth)
        if isinstance(obj, (np.ndarray, np.generic)):
            names = obj.dtype.names
            if not names:
                if obj.ndim == 2 and obj.size and obj.dtype.kind in "biuf":
                    return self._matrix_text(obj, depth)
                return self.text(obj.tolist(), depth)
            if obj.ndim == 0:           # a named row
                return self._row_texts(obj.reshape(1), depth)[0]
            if obj.ndim > 1 or not len(obj):
                return self.text(list(obj), depth)
            return _lines("[", self._row_texts(obj, depth + 1), depth, "]")
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
        if not names or not {kind}.issuperset(map(type, obj)):
            return None
        columns = []
        for name in names:
            column = self._column([getattr(x, name) for x in obj])
            if column is None:
                return None
            columns.append(column)
        texts = [self._column_texts(*column, depth + 2) for column in columns]
        return _lines("[", _rows(names, texts, depth + 1), depth, "]")

    def _certificates_text(self, table, depth):
        """The ``CertificateTable`` as the list of its rows' records,
        written column by column.  Each distinct value is written once and
        its text indexed per row: a juncture's end and sign, an iterates
        list, and a conjugator, whose texts come from one spelling of the
        whole ball per report (a report's tables share their run's ball).
        The gaps are slices of the family's list."""
        if not len(table):
            return "[]"
        ends, signs = zip(*[(j.end, j.sign) for j in table.junctures])
        juncture, conj = table.juncture.tolist(), table.conj.tolist()
        iterate, gaps = table.iterate.tolist(), table.gaps.tolist()
        distinct = {}       # iterates -> their index, in order of first row
        which = [distinct.setdefault(tuple(iterate[a:b]), len(distinct))
                 for a, b in zip(table.start.tolist(), table.end.tolist())]
        item = depth + 2
        indexed = [
            (self._column_texts(ends, False, item), juncture),
            (self._column_texts(signs, False, item), juncture),
            (self._ball_texts(table.ball), conj),
            (self._column_texts(list(distinct), True, item), which)]
        texts = [[values[k] for k in rows] for values, rows in indexed]
        texts.append(self._column_texts(
            [gaps[a:b] for a, b in zip(table.gap_start.tolist(),
                                       table.gap_end.tolist())], True, item))
        return _lines("[", _rows(table.FIELDS, texts, depth + 1), depth, "]")

    def _matrix_text(self, matrix, depth):
        """The non-empty 2-D array ``matrix`` of bools or numbers as its
        list of rows: its scalars' texts from one encoder call and one
        split, put in one template of all its rows."""
        texts = self._column_texts(matrix.ravel().tolist(), False, depth)
        row = _lines("[", ["%s"] * matrix.shape[1], depth + 1, "]")
        return _lines("[", [row] * len(matrix), depth, "]") % tuple(texts)

    def _ball_texts(self, ball):
        """The JSON text of each word of ``ball``, spelled once per report
        and ball; a scalar's text does not depend on its depth."""
        if self._ball is not ball:
            self._ball = ball
            self._words = self._column_texts(
                ball.spellings(self.names, len(ball)), False, 0)
        return self._words

    def _row_texts(self, records, depth):
        """The JSON text at ``depth`` of each row of the one-dimensional
        array ``records``, whose named fields hold scalars, flat arrays of
        scalars or named fields of their own, written the same way."""
        names = records.dtype.names
        texts = [self._row_texts(field, depth + 1) if field.dtype.names
                 else self._column_texts(*self._column(field.tolist()),
                                         depth + 1)
                 for field in map(records.__getitem__, names)]
        return _rows(names, texts, depth)

    def _column(self, values):
        """``values`` as one encoder call takes them and whether they are
        lists, when they are all scalars, all ``Word``s or all flat lists
        or tuples of scalars; else None."""
        kinds = set(map(type, values))
        if kinds == {Word}:
            return [w.format(self.names) for w in values], False
        if _SCALAR_TYPES.issuperset(kinds):
            return values, False
        if _SEQUENCE_TYPES.issuperset(kinds) and _SCALAR_TYPES.issuperset(
                map(type, chain.from_iterable(values))):
            return values, True
        return None

    def _column_texts(self, values, lists, depth):
        """The JSON text at ``depth`` of each of ``values``, from one encoder
        call and one split; ``lists`` says whether they are flat lists or
        tuples of scalars rather than scalars."""
        encoder = self._flat_encoder(depth)
        text = encoder.encode(values)
        if not lists:
            # No encoded scalar holds a raw newline, so the item
            # separators are the only places to split.
            return text[1:-1].split(encoder.item_separator)
        # Between two lists the encoder writes "]", the item separator and
        # "[", which no scalar text holds; inside one it writes the members
        # at depth + 1 already.
        head, outer = "[\n" + "  " * (depth + 1), "\n" + "  " * depth + "]"
        return [f"{head}{members}{outer}" if members else "[]"
                for members in text[2:-2].split(
                    "]" + encoder.item_separator + "[")]

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


def _rows(names, texts, depth) -> list[str]:
    """The JSON text at ``depth`` of each record whose field ``names[k]``
    has the text ``texts[k][row]``, from one template."""
    # A % in a field name is doubled, so the template holds no other %.
    row = _lines("{", [encode_basestring_ascii(name).replace("%", "%%")
                       + ": %s" for name in names], depth, "}")
    return [row % values for values in zip(*texts)]


def _lines(opening, members, depth, closing) -> str:
    """The texts ``members`` yields, one to a line at ``depth + 1`` between
    the brackets, the closing one on a line at ``depth``.  A generator
    leaves no list of the members alive beside the text."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(members)
    return "".join((opening, pad, body, "\n", "  " * depth, closing))


def _write(path, text) -> None:
    """Write ``text`` as UTF-8 to ``path``, in place: an existing file
    keeps its inode, links and mode, and is cut to the new length only
    after the new bytes are in, and only when it is a regular file (a
    device or FIFO cannot be cut).  Truncating first would make the file
    system free the old blocks and allocate new ones on every rewrite.
    A new file gets the mode ``open(path, "w")`` gives.  Nothing is
    fsynced."""
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc
    print(f"wrote {path}")


def _check_output(path) -> None:
    """Refuse, before the run, a path ``_write`` cannot write: its parent
    must be a writable directory, and it must not be a directory itself
    nor an existing file this process may not write."""
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    elif not os.access(target.parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    elif not os.access(target, os.W_OK) and target.exists():
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


def _word_lines(words: np.ndarray, n: int) -> str:
    """The ``--list-words`` text: per word, two spaces, the ``str`` of
    each symbol and a newline; past nine symbols the symbols are parted
    by one space, so that no two words print alike.  Each symbol's text
    fills a row of one byte table, padded to the widest with a NUL, which
    is dropped after."""
    width = len(str(n))
    sep = " " if width > 1 else ""
    cell = width + len(sep)
    digits = np.frombuffer("".join([sep + str(i).ljust(width, "\0")
                                    for i in range(n + 1)]).encode(),
                           dtype=np.uint8).reshape(n + 1, cell)
    count, m = words.shape
    lead = 2 - len(sep)
    lines = np.empty((count, m * cell + lead + 1), dtype=np.uint8)
    lines[:, :lead] = ord(" ")
    lines[:, lead:-1] = digits[words].reshape(count, m * cell)
    lines[:, -1] = ord("\n")
    return lines.tobytes().replace(b"\0", b"").decode("ascii")


def cmd_markov_words(scene, params, args):
    A = build_matrix_A(_require_markov(scene))
    listing = admissible_words(A, args.length)
    try:
        count = str(listing.count)
    except ValueError:
        # Over the digits the interpreter converts to text, which the
        # report, the listing budget's message and --json all need.
        raise BudgetExceededError(
            f"the number of admissible words of length {args.length} has "
            f"more than {sys.get_int_max_str_digits()} digits, the "
            f"interpreter's limit for integer text") from None
    if args.list_words and listing.words is None:
        raise BudgetExceededError(
            f"{count} admissible words of length {args.length} "
            f"exceed the listing budget of {LIST_BUDGET}")
    # The coding check runs at length 2 at least; it reuses the listing
    # when that has its length.
    coding = coding_consistency(
        A, max(2, args.length),
        listing=listing if args.length >= 2 else None)
    print(f"admissible words of length {args.length}: {count}")
    if args.list_words:
        sys.stdout.write(_word_lines(listing.words, A.shape[0]))
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


# Each function registers one subcommand's parser on ``sub``: a subparsers
# action of the tree, or a _Lone that builds that parser alone.
def _add_limit_set(sub):
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


def _add_laminate(sub):
    p = _command(sub, "laminate", cmd_laminate,
                 "extract certified limit leaves")
    p.add_argument("--out", default=None, help="write an SVG here")
    p.add_argument("--size", type=int, default=1000, action=_SizeAction)
    _add_flags(p, (*_PARAM_HELP, "json"))


def _add_escape(sub):
    p = _command(sub, "escape", cmd_escape,
                 "translation-length escape dichotomy")
    p.add_argument("--growth-ratio", type=float,
                   default=DEFAULT_GROWTH_RATIO)
    p.add_argument("--verbose", action="store_true",
                   help="print the full length table")
    _add_flags(p, ("horizon", "trace_tol", "max_letters", "json"),
               horizon=DEFAULT_ESCAPE_HORIZON)


def _add_axioms(sub):
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


def _add_markov(sub):
    p = sub.add_parser("markov", help="crossing-family checks and spectra")
    markov = p.add_subparsers(dest="markov_cmd", required=True, prog=p.prog)
    for add in _MARKOV_COMMANDS.values():
        add(markov)


def _add_render(sub):
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

_PROG = "endlam"


def build_parser() -> _Parser:
    """The parser tree of every command.  ``run_command`` builds it only
    for what ``_lone_parser`` does not take, help requests and usage errors:
    no command, ``-h``, a flag or an unknown name in the command's place,
    and ``markov`` alone, ``markov -h`` or an unknown markov subcommand."""
    parser = _Parser(prog=_PROG,
                     description="Desk-scale lamination approximations for "
                                 "endperiodic surface maps")
    # Each prog is given so that argparse does not format a usage line to
    # find it.
    sub = parser.add_subparsers(dest="command", prog=parser.prog)
    for add in _COMMANDS.values():
        add(sub)
    return parser


class _Lone:
    """Stands in for a subparsers action whose registration function adds
    one parser: that parser is built alone, with the prog the tree gives
    it and the defaults the parsers above it would set on the way down."""

    def __init__(self, prog, **defaults):
        self.prog = prog
        self.defaults = defaults

    def add_parser(self, name, help=None):
        self.parser = _Parser(prog=f"{self.prog} {name}")
        self.parser.set_defaults(**self.defaults)
        return self.parser


def _lone_parser(argv):
    """(parser, the argv it parses) when ``argv`` names a command, and
    under ``markov`` a markov subcommand: that command's parser alone,
    which parses what follows the names as it would in ``build_parser``'s
    tree; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    name = argv[0]
    if name != "markov":
        lone = _Lone(_PROG, command=name)
        _COMMANDS[name](lone)
        return lone.parser, argv[1:]
    if len(argv) < 2 or argv[1] not in _MARKOV_COMMANDS:
        return None
    lone = _Lone(f"{_PROG} {name}", command=name, markov_cmd=argv[1])
    _MARKOV_COMMANDS[argv[1]](lone)
    return lone.parser, argv[2:]


def run_command(argv) -> int:
    lone = _lone_parser(argv)
    parser, rest = lone or (build_parser(), argv)
    try:
        args, extras = parser.parse_known_args(rest)
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
            if path == "":
                raise ValidationError(f"{flag} needs a file path, got ''")
            if path is not None:
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
