"""Command-line front end.

Every verb is a thin adapter over the library: a generator that yields its
output text, which ``run`` writes to stdout.  Output is byte-deterministic
for a fixed input.  Exit codes: 0 success, 2 usage error, 1 domain error
(the error class name goes to stderr).

Output is never styled, so setting MODAL_NO_COLOR changes nothing; the
variable is honored by construction.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys

from . import braid as braid_mod
from . import graph as graph_mod
from . import leading as leading_mod
from . import modes as modes_mod
from .approximate import approximate
from .errors import ModalkitError, ParseError
from .pitch import ChordQuality, _integer, parse_note, parse_pcs, pc_name

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
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
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
    # parsed whole before the first yield, so a ParseError prints nothing on stdout
    progression = leading_mod.parse_progression(text)
    yield f"strands={leading_mod.STRANDS}\n"
    words = map(leading_mod.braid_of_leading, progression.leadings())
    for (a, _, _), (b, _, _), word in zip(progression.chords, progression.chords[1:], words):
        yield f"{a} -> {b}: {braid_mod.serialize_word(word)}\n"
        if args.ascii:
            yield braid_mod.render_ascii(word)


def _cmd_approx(args):
    ranked = approximate(set(args.target), args.quality, args.root)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalkit",
        description="Modal scales, base-chord graphs, braid words and voice leadings.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    quality = _lookup(ChordQuality.from_symbol, "unknown chord quality")
    scale = _lookup(modes_mod.ScaleType.from_label, "unknown scale")
    note = _lookup(parse_note, "unknown note name")
    pcs = _lookup(parse_pcs, "bad pitch-class list")
    integer = _lookup(_integer, "bad integer")

    def add_format(p):
        p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p = sub.add_parser("modes", help="list the seven modes of a parent scale")
    p.add_argument("--scale", type=scale, required=True)
    p.add_argument("--root", type=note, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_modes)

    p = sub.add_parser("harmonize", help="seventh-chord quality per scale degree")
    p.add_argument("--scale", type=scale, required=True)
    p.add_argument("--degree", type=integer, choices=range(1, 8))
    add_format(p)
    p.set_defaults(func=_cmd_harmonize)

    p = sub.add_parser("decompose", help="split a scale into base chord + tension chord")
    p.add_argument("--notes", type=pcs, required=True)
    p.add_argument("--root", type=integer, choices=range(0, 12), required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("graph", help="show or export a base-chord graph")
    p.add_argument("--quality", type=quality, required=True)
    p.add_argument("--root", type=note)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("tcm", help="topological complexity per quality")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--quality", type=quality)
    group.add_argument("--all", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_tcm)

    p = sub.add_parser("admissible", help="all admissible modes on a quality")
    p.add_argument("--quality", type=quality, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("special", help="special (non-standard) admissible modes")
    p.add_argument("--quality", type=quality, required=True)
    p.add_argument("--paper-compat", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("braid", help="braid words for a progression file")
    p.add_argument("--file", required=True)
    p.add_argument("--ascii", action="store_true")
    p.set_defaults(func=_cmd_braid)

    p = sub.add_parser("approx", help="approximate a scale by admissible modes")
    p.add_argument("--target", type=pcs, required=True)
    p.add_argument("--quality", type=quality, required=True)
    p.add_argument("--root", type=note, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_approx)

    return parser


def run(argv: list[str], out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
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
