"""Command-line front end.

Every verb is a thin adapter over the library: a generator that yields its
output text, which ``run`` writes to stdout.  Output is byte-deterministic
for a fixed input, help text included: argparse formats it at one fixed
width, whatever the terminal.  Exit codes: 0 success, 2 usage error, 1
domain error (the error class name goes to stderr).

Each verb's options are declared once, in ``_VERBS``, and argv is read two
ways.  First ``_read`` takes a well-formed argv straight from that table: a
verb, then each of its options at most once, by its whole name, every value
converted and every required option given.  It builds the args itself, so a
well-formed run imports no ``argparse``, nor the ``gettext`` and ``locale``
that argparse loads.  Any other argv, as for ``--help``, a typo or a usage
error, falls back to argparse: ``build_parser`` builds the whole parser from
the same table, only for help and errors, and it prints the help or the
error and exits as it always has.

A verb pays only for what it uses.  This module runs ``pitch`` and
``errors`` on import and holds the other layers as the lazily executed
modules that ``modalkit/__init__.py`` registers; a layer runs when a verb
first reads an attribute of it, so ``braid`` never runs ``modes``, ``graph``
or ``approximate``.

Output is never styled, so setting MODAL_NO_COLOR changes nothing; the
variable is honored by construction.
"""

from __future__ import annotations

import functools
import io
import sys
import types

from .errors import ModalkitError, ParseError
from .pitch import ChordQuality, _integer, _Table, parse_note, parse_pcs, pc_name

# The other layers, unexecuted until a verb reads them.  They are looked up in
# sys.modules: the package attribute ``approximate`` is the function, and
# reading it would run its layer.
approximate_mod, braid_mod, graph_mod, leading_mod, modes_mod = (
    sys.modules[f"{__package__}.{layer}"]
    for layer in ("approximate", "braid", "graph", "leading", "modes")
)

ROMAN = ("I", "II", "III", "IV", "V", "VI", "VII")


def _lookup(convert, problem: str):
    """The converter that ``_read`` and argparse call: ``convert``, with a failure
    made an argparse usage error that states the problem and names the token;
    argparse is imported only then."""

    def adapter(token: str):
        try:
            return convert(token)
        except (KeyError, ParseError):
            import argparse

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
        # a byte-order mark, as Windows editors save one, is no part of the text
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec reports the offset into the bytes it decoded, after any mark
        position = len(exc.object[:exc.start].decode("utf-8"))
        raise ParseError(f"{args.file} is not UTF-8 text; bad byte", position) from None
    del data  # only the text is read from here on
    # each move's tokens and rows, read by one lookup per move; both come from its
    # walk, checked once, as one word, when the walk was derived
    walks = leading_mod._WALKS
    tokens = _Table(lambda move: walks[move][1]).__getitem__
    rows = _Table(lambda move: walks[move][2]).__getitem__
    base, _ = braid_mod._DRAWINGS[leading_mod.STRANDS]  # the row of plain strands
    # decoded whole, so a file that is not UTF-8 prints nothing; then read one line
    # at a time, so a bad line fails after the full blocks before it were yielded,
    # and the unfinished block is dropped.  The header waits in that block, so a
    # file with no chords, a ParseError once it is read, prints nothing either
    parts = [f"strands={leading_mod.STRANDS}\n"]
    size = len(parts[0])
    for a, b, moves in leading_mod._transition_moves(leading_mod._entries(text)):
        piece = f"{a} -> {b}: {' '.join(map(tokens, moves))}\n"
        if args.ascii:
            piece = "".join([piece, base, *map(rows, moves)])
        parts.append(piece)
        size += len(piece)
        # a block of at least 64 K, one write per pipe buffer: a reader sharing the
        # CPU wakes per write
        if size >= 1 << 16:
            yield "".join(parts)
            parts, size = [], 0
    yield "".join(parts)


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

# An option is (name, converter, choices, default).  Its value is read by the
# converter, or kept as text when there is none, and must then be one of the
# choices, when there are any.  A default of _REQUIRED marks an option that must
# be given, and a default of False a flag, which takes no value.
_REQUIRED = "required"
_FORMAT = ("--format", None, ("plain", "csv", "json"), "plain")

# Per verb, in the order help lists them: its help line, its command, its
# options in the same order, and the pair of options of which it takes exactly one.
_VERBS = {
    "modes": ("list the seven modes of a parent scale", _cmd_modes, (
        ("--scale", _SCALE, None, _REQUIRED),
        ("--root", _NOTE, None, _REQUIRED),
        _FORMAT,
    ), ()),
    "harmonize": ("seventh-chord quality per scale degree", _cmd_harmonize, (
        ("--scale", _SCALE, None, _REQUIRED),
        ("--degree", _INTEGER, range(1, 8), None),
        _FORMAT,
    ), ()),
    "decompose": ("split a scale into base chord + tension chord", _cmd_decompose, (
        ("--notes", _PCS, None, _REQUIRED),
        ("--root", _INTEGER, range(0, 12), _REQUIRED),
    ), ()),
    "graph": ("show or export a base-chord graph", _cmd_graph, (
        ("--quality", _QUALITY, None, _REQUIRED),
        ("--root", _NOTE, None, None),
        ("--dot", None, None, False),
    ), ()),
    "tcm": ("topological complexity per quality", _cmd_tcm, (
        ("--quality", _QUALITY, None, None),
        ("--all", None, None, False),
        _FORMAT,
    ), ("--quality", "--all")),
    "admissible": ("all admissible modes on a quality", _cmd_admissible, (
        ("--quality", _QUALITY, None, _REQUIRED),
        _FORMAT,
    ), ()),
    "special": ("special (non-standard) admissible modes", _cmd_special, (
        ("--quality", _QUALITY, None, _REQUIRED),
        ("--paper-compat", None, None, False),
        _FORMAT,
    ), ()),
    "braid": ("braid words for a progression file", _cmd_braid, (
        ("--file", None, None, _REQUIRED),
        ("--ascii", None, None, False),
    ), ()),
    "approx": ("approximate a scale by admissible modes", _cmd_approx, (
        ("--target", _PCS, None, _REQUIRED),
        ("--quality", _QUALITY, None, _REQUIRED),
        ("--root", _NOTE, None, _REQUIRED),
        _FORMAT,
    ), ()),
}


def _root_without_dot(args) -> bool:
    """Whether graph has a --root without --dot: the root names the notes of DOT output alone."""
    return args.verb == "graph" and args.root is not None and not args.dot


def _read(argv: list[str]):
    """The args of a well-formed argv, with the fields argparse gives them, or None.

    Well-formed is strict: a verb, then each of its options at most once, by
    its whole name, as ``--name value``, ``--name=value`` or a bare flag; no
    value after a space starts with ``-`` (``--quality=-7b5`` is taken); every
    value converts and is one of its choices; every required option is
    given, exactly one of the verb's pair, and graph's --root only with --dot.
    Anything else, help included, is None, and argparse reads it.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    _, command, options, one_of = _VERBS[argv[0]]
    table = {option[0]: option for option in options}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, equals, value = token.partition("=")
        if name not in table or name in given:
            return None
        _, convert, choices, default = table[name]
        if default is False:
            if equals:  # a flag takes no value
                return None
            given[name] = True
            continue
        if not equals:
            value = next(tokens, "-")  # a missing value is refused as one starting with -
            if value.startswith("-"):
                return None
        if convert is not None:
            try:
                value = convert(value)
            except Exception:  # argparse states the problem
                return None
        if choices is not None and value not in choices:
            return None
        given[name] = value
    if any(default is _REQUIRED and name not in given for name, _, _, default in options):
        return None
    if one_of and sum(name in given for name in one_of) != 1:
        return None
    args = types.SimpleNamespace(verb=argv[0], func=command)
    for name, _, _, default in options:
        setattr(args, name[2:].replace("-", "_"), given.get(name, default))
    return None if _root_without_dot(args) else args


# Help and usage text at one width, the one argparse picks when stdout is no
# terminal; argparse would otherwise read the terminal width (COLUMNS) on each call.
HELP_WIDTH = 78


def build_parser():
    """The argparse parser, with a sub-parser for each of the nine verbs."""
    import argparse

    # no option is read from a prefix of its name, such as --form for --format
    parser_class = functools.partial(
        argparse.ArgumentParser, allow_abbrev=False,
        formatter_class=functools.partial(argparse.HelpFormatter, width=HELP_WIDTH),
    )
    parser = parser_class(
        prog="modalkit",
        description="Modal scales, base-chord graphs, braid words and voice leadings.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=parser_class)
    for name, (help_line, command, options, one_of) in _VERBS.items():
        p = sub.add_parser(name, help=help_line)
        group = p.add_mutually_exclusive_group(required=True) if one_of else p
        for option, convert, choices, default in options:
            holder = group if option in one_of else p
            if default is False:
                holder.add_argument(option, action="store_true")
            elif default is _REQUIRED:
                holder.add_argument(option, type=convert, choices=choices, required=True)
            else:
                holder.add_argument(option, type=convert, choices=choices, default=default)
        p.set_defaults(func=command)
    return parser


def _parse(argv: list[str], out, err):
    """argparse's reading of argv; it writes help or a usage error to out or err and
    raises SystemExit for them."""
    import contextlib

    parser = build_parser()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        args, extra = parser.parse_known_args(argv)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(map(repr, extra))}")
        if _root_without_dot(args):
            parser.error("--root needs --dot")
    return args


def run(argv: list[str], out=None, err=None) -> int:
    """Run the verb that argv names and return its exit code: 0 on success or after
    help, 2 on a usage error, and 1 on a domain error or a failed read or write,
    whose ``ErrorClass: message`` line goes to ``err``.

    ``out`` and ``err`` (stdout and stderr when None) need only ``write``.  Each
    text the verb yields is written to ``out`` as it comes.
    """
    out = out or sys.stdout
    err = err or sys.stderr
    args = _read(argv)
    if args is None:
        try:
            args = _parse(argv, out, err)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        for text in args.func(args):
            out.write(text)
    except (ModalkitError, OSError) as exc:
        err.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
