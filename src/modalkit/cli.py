"""Command-line front end.

Every verb is a thin adapter over the library: a generator that yields its
output text, which ``run`` writes to stdout; ``leading`` writes the braid
verb's text, in blocks cut by its one 64 K rule.  Output is byte-deterministic
for a fixed input, help text included: argparse formats it at one fixed width.
Exit codes: 0 success, 2 usage error, 1 domain error or a failed write or
flush to stdout, a closed stdout included.  The error class name goes to
stderr; a stderr that is closed, or whose reader has gone, drops it.

``main``, which the console script and ``python -m modalkit.cli`` run, ends
the process by ``os._exit`` once the ``atexit`` callbacks have run and stdout
and stderr are flushed, so no short run pays for the interpreter's teardown.
Under a profiler, tracer or debugger it exits by ``sys.exit``, so that the
tool's report prints.  In-process callers use ``run``, which returns.

Each verb's options are declared once, in ``_VERBS``.  ``_read`` takes a
well-formed argv straight from that table (a verb, then each of its options
at most once, by its whole name, every value converted and every required
option given) with no ``argparse``, nor the ``gettext`` and ``locale`` it
loads.  Any other argv, as for ``--help``, a typo or a usage error, falls back
to the parser that ``build_parser`` builds from the same table.  argparse
prints into a string, which ``run`` writes as a verb's output, so help into a
closed pipe or a closed stdout fails as a verb does: exit 1 with one line.

A verb pays only for what it uses.  This module runs ``pitch`` and
``errors`` on import and holds the other layers as the lazily executed
modules that ``modalkit/__init__.py`` registers; a layer runs when a verb
first reads an attribute of it, so ``braid`` never runs ``modes``, ``graph``
or ``approximate``.

Output is never styled, so setting MODAL_NO_COLOR changes nothing; the
variable is honored by construction.
"""

from __future__ import annotations

import atexit
import functools
import io
import os
import sys
import types

from .errors import ModalkitError, ParseError
from .pitch import ChordQuality, _integer, parse_note, parse_pcs, pc_name

# The other layers, unexecuted until a verb reads them.  They are looked up in
# sys.modules: the package attribute ``approximate`` is the function, and
# reading it would run its layer.
approximate_mod, graph_mod, leading_mod, modes_mod = (
    sys.modules[f"{__package__}.{layer}"]
    for layer in ("approximate", "graph", "leading", "modes")
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
    # decoded whole, so a file that is not UTF-8 prints nothing
    yield from leading_mod._braid_blocks(text, args.ascii)


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
            else:  # a required option's default is never used: an argv without it is an error
                holder.add_argument(option, type=convert, choices=choices, default=default,
                                    required=default is _REQUIRED)
        p.set_defaults(func=command)
    return parser


def _parse(argv: list[str]):
    """argparse's reading of argv: the args, or for help or a usage error the pair
    (exit code, the text argparse printed into a string for ``run`` to write)."""
    import contextlib

    parser = build_parser()
    printed = io.StringIO()  # help, which argparse prints to stdout, and usage errors
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        try:
            args, extra = parser.parse_known_args(argv)
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(map(repr, extra))}")
            if _root_without_dot(args):
                parser.error("--root needs --dot")
        except SystemExit as exc:
            return int(exc.code or 0), printed.getvalue()
    return args


def run(argv: list[str], out=None, err=None) -> int:
    """Run the verb that argv names and return its exit code: 0 on success or after
    help, 2 on a usage error, and 1 on a domain error or a failed read or write,
    whose ``ErrorClass: message`` line goes to ``err``.

    ``out`` and ``err`` (stdout and stderr when None) need only ``write``.  Each
    text the verb yields, and help, is written to ``out`` as it comes; a usage
    error's text goes to ``err``.  A write to a stdout that is None even so, as
    for a process started with it closed, fails as ``OSError: [Errno 9] Bad file
    descriptor``; ``_say`` drops the error's text on a stderr that cannot take it.
    """
    out = out or sys.stdout
    err = err or sys.stderr
    args = _read(argv) or _parse(argv)
    if isinstance(args, tuple):  # what argparse printed: help, code 0, or a usage error
        code, text = args
        texts, problem = ([], text) if code else ([text], "")
    else:
        code, texts, problem = 0, args.func(args), ""
    try:
        for text in texts:
            if out is None:
                import errno

                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            out.write(text)
    except (ModalkitError, OSError) as exc:
        code, problem = 1, f"{type(exc).__name__}: {exc}\n"
    _say(err, problem)
    return code


def _say(err, text: str) -> None:
    """Write ``text``, if any, to ``err``; a stderr that is None or fails drops it."""
    if text and err is not None:
        try:
            err.write(text)
        except OSError:
            pass


def _watched() -> bool:
    """Whether a profiler, tracer or debugger watches this run, and so reports as the
    interpreter ends: one set by ``sys.setprofile`` or ``sys.settrace``, or, from
    Python 3.12, one that ``sys.monitoring`` names, as cProfile registers there."""
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.getprofile() is not None or sys.gettrace() is not None
        or monitoring is not None and any(
            monitoring.get_tool(tool) is not None
            for tool in (monitoring.DEBUGGER_ID, monitoring.PROFILER_ID)
        )
    )


def _flushed(code: int) -> int:
    """Flush stdout and stderr and return ``code``, or 1 when stdout's flush fails, as
    into a pipe whose reader has gone; its ``ErrorClass: message`` line goes to stderr
    unless ``run`` has reported an error.  A failed flush, stderr's too, drains into
    devnull, so the interpreter's flush at exit, which sys.exit reaches, cannot fail."""
    out, err = sys.stdout, sys.stderr  # None for a stream the process started without
    for stream in (out, err):
        try:
            if stream is not None:
                stream.flush()
        except OSError as exc:
            if stream is out:
                if not code:  # else run has reported its error
                    _say(err, f"{type(exc).__name__}: {exc}\n")
                code = 1
            try:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
            except (OSError, ValueError):  # a stream with no file descriptor
                pass
    return code


def main() -> None:
    """Run the verb that the command line names and end the process with ``_flushed``'s
    code: by ``os._exit`` once the ``atexit`` callbacks have run, without the
    interpreter's teardown, or by ``sys.exit`` under a profiler, tracer or debugger,
    so that its report prints.  ``main`` never returns; in-process callers use ``run``."""
    code = run(sys.argv[1:])
    if _watched():
        sys.exit(_flushed(code))
    atexit._run_exitfuncs()  # as the interpreter runs them, before it flushes the streams
    os._exit(_flushed(code))


if __name__ == "__main__":
    main()
