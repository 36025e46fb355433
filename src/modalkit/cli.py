"""Command-line front end.

Every verb is a thin adapter over the library: a generator that yields its
output text, which ``run`` writes to stdout.  Output is byte-deterministic
for a fixed input, help text included: argparse formats it at one fixed
width, whatever the terminal.  Exit codes: 0 success, 2 usage error, 1
domain error (the error class name goes to stderr).

A verb pays only for what it uses.  This module runs ``pitch`` and
``errors`` on import and holds the other layers as the lazily executed
modules that ``modalkit/__init__.py`` registers; a layer runs when a verb
first reads an attribute of it, so ``braid`` never runs ``modes``, ``graph``
or ``approximate``.  ``run`` builds the sub-parser of the verb that its first
argument names, and all nine only when that argument names none, as for
``--help`` or a typo.

Output is never styled, so setting MODAL_NO_COLOR changes nothing; the
variable is honored by construction.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import sys

from .errors import ModalkitError, ParseError
from .pitch import ChordQuality, _integer, parse_note, parse_pcs, pc_name

# The other layers, unexecuted until a verb reads them.  They are looked up in
# sys.modules: the package attribute ``approximate`` is the function, and
# reading it would run its layer.
approximate_mod, braid_mod, graph_mod, leading_mod, modes_mod = (
    sys.modules[f"{__package__}.{layer}"]
    for layer in ("approximate", "braid", "graph", "leading", "modes")
)

ROMAN = ("I", "II", "III", "IV", "V", "VI", "VII")


def _lookup(convert, problem: str):
    """An argparse type: ``convert``, with a failure made a usage error
    that states the problem and names the token."""

    def adapter(token: str):
        try:
            return convert(token)
        except (KeyError, ParseError):
            raise argparse.ArgumentTypeError(f"{problem} {token!r}")

    return adapter


def _table(rows: list[dict[str, str]], fmt: str) -> str:
    """The rows as plain columns, CSV or JSON; an empty table is no text."""
    if not rows:
        return ""
    keys = list(rows[0])
    # json and csv are imported only here, so the other verbs start faster
    if fmt == "json":
        import json

        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue()
    widths = {k: max(len(k), *(len(r[k]) for r in rows)) for k in keys}
    return "".join("  ".join(row[k].ljust(widths[k]) for k in keys).rstrip() + "\n" for row in rows)


def _cmd_modes(args):
    rows = [
        {
            "degree": ROMAN[i],
            "name": mode.name,
            "pitch_classes": " ".join(str(d) for d in mode.degrees),
            "notes": " ".join(pc_name(d) for d in mode.degrees),
        }
        for i, mode in enumerate(modes_mod.standard_modes(args.scale, args.root))
    ]
    yield _table(rows, args.format)


def _cmd_harmonize(args):
    degrees = [args.degree] if args.degree else list(range(1, 8))
    rows = [
        {
            "degree": ROMAN[d - 1],
            "quality": modes_mod.harmonize(args.scale, d).symbol,
        }
        for d in degrees
    ]
    yield _table(rows, args.format)


def _cmd_decompose(args):
    degrees = sorted(set(args.notes), key=lambda n: (n - args.root) % 12)
    scale = modes_mod.ModalScale(args.root, tuple(degrees))
    mode = modes_mod.decompose(scale)
    triad = mode.tension_triad()
    yield f"scale:   {' '.join(str(d) for d in scale.degrees)}\n"
    yield (
        f"base:    {pc_name(args.root)}{mode.base_quality().symbol}"
        f"  {' '.join(str(n) for n in mode.base.notes)}\n"
    )
    yield (
        f"tension: {triad.symbol() if triad else '(no triad)'}"
        f"  {' '.join(str(n) for n in mode.tension.notes)}\n"
    )


def _cmd_graph(args):
    g = graph_mod.build_graph(args.quality)
    if args.dot:
        yield graph_mod.emit_dot(g, args.root)
    else:
        # the vertices come ordered by degree, then by semitone
        for degree in range(1, 8):
            names = " ".join(v.name for v in g.vertices if v.degree == degree)
            yield f"{ROMAN[degree - 1]}: {names}\n"
        yield (
            f"vertices={len(g.vertices)} edges={len(g.edges)} "
            f"chi={graph_mod.euler_characteristic(g)} tau={graph_mod.tcm(args.quality)}\n"
        )


def _cmd_tcm(args):
    qualities = list(ChordQuality) if args.all else [args.quality]
    rows = []
    for q in qualities:
        g = graph_mod.build_graph(q)
        rows.append(
            {
                "quality": q.symbol,
                "chi": str(graph_mod.euler_characteristic(g)),
                "tau": str(graph_mod.tcm(q)),
                "admissible": str(len(graph_mod.enumerate_admissible(g))),
            }
        )
    yield _table(rows, args.format)


def _path_rows(paths) -> list[dict[str, str]]:
    return [
        {
            "name": p.name,
            "kind": "special" if p.is_special else "standard",
            "labels": " ".join(p.label_names()),
        }
        for p in paths
    ]


def _cmd_admissible(args):
    paths = graph_mod.enumerate_admissible(graph_mod.build_graph(args.quality))
    yield _table(_path_rows(paths), args.format)


def _cmd_special(args):
    paths = graph_mod.special_modes(args.quality)
    yield _table(_path_rows(paths), args.format)
    if args.paper_compat:
        published = graph_mod.PUBLISHED_SPECIALS.get(args.quality, ())
        computed = {p.label_names() for p in paths}
        yield "\npublished degree lists:\n"
        for name, labels in published:
            marker = "agrees" if labels in computed else "DIFFERS from computation"
            yield f"  {name}: {' '.join(labels)}  [{marker}]\n"


def _cmd_braid(args):
    with open(args.file, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        position = len(data[:exc.start].decode("utf-8"))
        raise ParseError(f"{args.file} is not UTF-8 text; bad byte", position) from None
    del data  # only the text is read from here on
    # decoded whole, so a file that is not UTF-8 prints nothing; then read one line
    # at a time, so a bad line fails after the lines before it were yielded, and
    # run drops the block it has not written yet
    entries = leading_mod._entries(text)
    first = next(entries)  # a file with no chords is a ParseError before any output
    yield f"strands={leading_mod.STRANDS}\n"
    # each move's tokens and rows were checked once, as one word, when its walk was derived
    walk = leading_mod._WALKS.__getitem__
    base, _ = braid_mod._DRAWINGS[leading_mod.STRANDS]  # the row of plain strands
    for a, b, moves in leading_mod._transition_moves(itertools.chain((first,), entries)):
        walks = list(map(walk, moves))  # (letters, tokens, rows) per move
        line = f"{a} -> {b}: {' '.join([tokens for _, tokens, _ in walks])}\n"
        yield "".join([line, base, *[rows for _, _, rows in walks]]) if args.ascii else line


def _cmd_approx(args):
    ranked = approximate_mod.approximate(set(args.target), args.quality, args.root)
    rows = [
        {
            "rank": str(i + 1),
            "name": a.candidate.name,
            "kind": "special" if a.candidate.is_special else "standard",
            "shared": str(a.shared),
            "dropped": " ".join(str(n) for n in sorted(a.dropped)) or "-",
            "added": " ".join(str(n) for n in sorted(a.added)) or "-",
        }
        for i, a in enumerate(ranked)
    ]
    yield _table(rows, args.format)


_QUALITY = _lookup(ChordQuality.from_symbol, "unknown chord quality")
# the label is looked up when an argument is read, so building a parser runs no modes
_SCALE = _lookup(lambda label: modes_mod.ScaleType.from_label(label), "unknown scale")
_NOTE = _lookup(parse_note, "unknown note name")
_PCS = _lookup(parse_pcs, "bad pitch-class list")
_INTEGER = _lookup(_integer, "bad integer")


def _add_format(p):
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")


def _modes_arguments(p):
    p.add_argument("--scale", type=_SCALE, required=True)
    p.add_argument("--root", type=_NOTE, required=True)
    _add_format(p)


def _harmonize_arguments(p):
    p.add_argument("--scale", type=_SCALE, required=True)
    p.add_argument("--degree", type=_INTEGER, choices=range(1, 8))
    _add_format(p)


def _decompose_arguments(p):
    p.add_argument("--notes", type=_PCS, required=True)
    p.add_argument("--root", type=_INTEGER, choices=range(0, 12), required=True)


def _graph_arguments(p):
    p.add_argument("--quality", type=_QUALITY, required=True)
    p.add_argument("--root", type=_NOTE)
    p.add_argument("--dot", action="store_true")


def _tcm_arguments(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--quality", type=_QUALITY)
    group.add_argument("--all", action="store_true")
    _add_format(p)


def _admissible_arguments(p):
    p.add_argument("--quality", type=_QUALITY, required=True)
    _add_format(p)


def _special_arguments(p):
    p.add_argument("--quality", type=_QUALITY, required=True)
    p.add_argument("--paper-compat", action="store_true")
    _add_format(p)


def _braid_arguments(p):
    p.add_argument("--file", required=True)
    p.add_argument("--ascii", action="store_true")


def _approx_arguments(p):
    p.add_argument("--target", type=_PCS, required=True)
    p.add_argument("--quality", type=_QUALITY, required=True)
    p.add_argument("--root", type=_NOTE, required=True)
    _add_format(p)


# Per verb, in the order help lists them: its help line, the function that adds
# its arguments to its sub-parser, and its command.
_VERBS = {
    "modes": ("list the seven modes of a parent scale", _modes_arguments, _cmd_modes),
    "harmonize": ("seventh-chord quality per scale degree", _harmonize_arguments, _cmd_harmonize),
    "decompose": ("split a scale into base chord + tension chord", _decompose_arguments,
                  _cmd_decompose),
    "graph": ("show or export a base-chord graph", _graph_arguments, _cmd_graph),
    "tcm": ("topological complexity per quality", _tcm_arguments, _cmd_tcm),
    "admissible": ("all admissible modes on a quality", _admissible_arguments, _cmd_admissible),
    "special": ("special (non-standard) admissible modes", _special_arguments, _cmd_special),
    "braid": ("braid words for a progression file", _braid_arguments, _cmd_braid),
    "approx": ("approximate a scale by admissible modes", _approx_arguments, _cmd_approx),
}

# Help and usage text at one width, the one argparse picks when stdout is no
# terminal; argparse would otherwise read the terminal width (COLUMNS) on each call.
HELP_WIDTH = 78


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser with the sub-parser of ``verb`` alone when it names a verb, else all nine.

    Either way the usage line is the same: it lists every verb.
    """
    # no option is read from a prefix of its name, such as --form for --format
    parser_class = functools.partial(
        argparse.ArgumentParser, allow_abbrev=False,
        formatter_class=functools.partial(argparse.HelpFormatter, width=HELP_WIDTH),
    )
    parser = parser_class(
        prog="modalkit",
        description="Modal scales, base-chord graphs, braid words and voice leadings.",
    )
    verbs = [verb] if verb in _VERBS else list(_VERBS)
    sub = parser.add_subparsers(
        dest="verb", required=True, parser_class=parser_class,
        # the usage shows every verb, as argparse spells the choices when all are added
        metavar=None if len(verbs) > 1 else "{" + ",".join(_VERBS) + "}",
    )
    for name in verbs:
        help_line, add_arguments, command = _VERBS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=command)
    return parser


def run(argv: list[str], out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser(argv[0] if argv else None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args, extra = parser.parse_known_args(argv)
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(map(repr, extra))}")
            if args.verb == "graph" and args.root is not None and not args.dot:
                parser.error("--root needs --dot")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # one write per pipe buffer (64 KB): a reader sharing the CPU wakes per write
        block = io.StringIO()
        for text in args.func(args):
            block.write(text)
            if block.tell() >= 1 << 16:
                out.write(block.getvalue())
                block = io.StringIO()
        out.write(block.getvalue())
    except (ModalkitError, OSError) as exc:
        err.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
