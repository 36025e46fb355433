"""Every CLI answer in the finite input space, against the independent oracle.

``bench/oracle.py`` derives the whole theory without importing modalkit, and
its ``cli_stdout`` gives the exact stdout of every verb but ``braid``.  The
theory is finite, so every input of those verbs runs here, with roots spelled
on flats and on sharps.  ``approx`` alone has too many (4,096 targets per
quality and root), so each quality and root spelling runs with one seeded
target and format, and hypothesis draws more targets.  ``braid`` reads files of
any length, so seeded songs from ``bench/inputs.py`` and hand-made files run
here, and ``check_braid_stdout`` checks each word it prints.  Long files that
cross the parser's and the output's 64 K blocks check the streamed verb against
the library's progression words, and a bad line deep in such a file against
the error contract.  The verb makes as many calls per chord on a song as on
that song ten times over, so its work grows linearly with the file.
"""

import io
import itertools
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import modalkit
from modalkit import leading
from modalkit.braid import BraidWord, render_ascii, serialize_word
from modalkit.cli import run
from modalkit.leading import STRANDS, braids_of_progression, parse_progression
from modalkit.pitch import _Table

from bench_modules import inputs, oracle

FORMATS = ("plain", "csv", "json")
SPELLINGS = [(pc, note) for notes in (inputs.FLAT_ROOTS, inputs.SHARP_ROOTS)
             for pc, note in enumerate(notes)]
QUALITIES = list(oracle.QUALITIES)


def command(verb, params, *argv):
    """A command with its params; ``format`` in params adds ``--format`` unless plain."""
    fmt = params.get("format", "plain")
    argv = [verb, *argv, *(["--format", fmt] if fmt != "plain" else [])]
    return inputs.CliCommand(verb, params, argv)


def decompose(scale, degree, root, rng):
    notes = [(root + offset) % 12 for offset in oracle.MODES[scale, degree][1]]
    rng.shuffle(notes)
    return command("decompose", dict(scale=scale, degree=degree, root=root),
                   "--notes", ",".join(map(str, notes)), "--root", str(root))


def approx(quality, root, note, rng):
    target = sorted(rng.sample(range(12), rng.randint(1, 12)))
    return command("approx", dict(target=target, quality=quality, root=root,
                                  format=rng.choice(FORMATS)),
                   "--target", ",".join(map(str, target)), f"--quality={quality}", "--root", note)


RNG = random.Random(11)  # the note order of each decompose command
APPROX_RNG = random.Random(20)  # the target and format of each approx command
COMMANDS = {
    "modes": [
        command("modes", dict(scale=scale, root=root, format=fmt), "--scale", scale, "--root", note)
        for scale, (root, note), fmt in product(oracle.SCALES, SPELLINGS, FORMATS)
    ],
    "harmonize": [
        command("harmonize", dict(scale=scale, degree=degree, format=fmt), "--scale", scale,
                *(["--degree", str(degree)] if degree else []))
        for scale, degree, fmt in product(oracle.SCALES, [None, *range(1, 8)], FORMATS)
    ],
    "decompose": [
        decompose(scale, degree, root, RNG)
        for scale, degree, root in product(oracle.SCALES, range(1, 8), range(12))
    ],
    "graph": [
        command("graph", dict(quality=q, dot=dot), f"--quality={q}", *(["--dot"] if dot else []))
        for q, dot in product(QUALITIES, (False, True))
    ] + [
        command("graph", dict(quality=q, dot=True, root=root), f"--quality={q}", "--dot",
                "--root", note)
        for q, (root, note) in product(QUALITIES, SPELLINGS)
    ],
    "tcm": [
        command("tcm", dict(all=True, format=fmt), "--all") for fmt in FORMATS
    ] + [
        command("tcm", dict(quality=q, format=fmt), f"--quality={q}")
        for q, fmt in product(QUALITIES, FORMATS)
    ],
    "admissible": [
        command("admissible", dict(quality=q, format=fmt), f"--quality={q}")
        for q, fmt in product(QUALITIES, FORMATS)
    ],
    "special": [
        command("special", dict(quality=q, paper_compat=paper, format=fmt), f"--quality={q}",
                *(["--paper-compat"] if paper else []))
        for q, paper, fmt in product(QUALITIES, (False, True), FORMATS)
    ],
    "approx": [
        approx(q, root, note, APPROX_RNG) for q, (root, note) in product(QUALITIES, SPELLINGS)
    ],
}


def mismatches(commands):
    """The argv of each command whose exit, stdout or stderr is not the oracle's answer."""
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        code = run(cmd.argv, out=out, err=err)
        if (code, out.getvalue(), err.getvalue()) != (0, oracle.cli_stdout(cmd), ""):
            yield cmd.argv


def test_every_input_is_enumerated():
    # 24 spellings: 12 roots on flats, 12 on sharps; 21 standard modes on 12 roots
    counts = {verb: len(commands) for verb, commands in COMMANDS.items()}
    assert counts == {"modes": 216, "harmonize": 72, "decompose": 252, "graph": 182,
                      "tcm": 24, "admissible": 21, "special": 42, "approx": 168}
    assert set(inputs.VERBS) - set(COMMANDS) == {"braid"}


@pytest.mark.parametrize("verb", list(COMMANDS))
def test_every_answer_is_the_oracles(verb):
    assert list(mismatches(COMMANDS[verb])) == []


@given(
    st.lists(st.integers(0, 11), min_size=1, max_size=14),
    st.sampled_from(QUALITIES),
    st.sampled_from(SPELLINGS),
    st.sampled_from(FORMATS),
)
@example([11, 0, 2, 3, 5, 6, 8, 9], "7", (11, "B"), "plain")  # the octatonic on B
@example(list(range(12)), "-7b5", (1, "C#"), "json")
@example([6], "o7", (6, "Gb"), "csv")
def test_approx_answers_are_the_oracles(target, quality, spelling, fmt):
    root, note = spelling
    cmd = command("approx", dict(target=target, quality=quality, root=root, format=fmt),
                  "--target", ",".join(map(str, target)), f"--quality={quality}", "--root", note)
    assert list(mismatches([cmd])) == []


def symbol(label):
    """A chord-symbol line's chord as the oracle takes it: (label, root, notes)."""
    spelled = {note: pc for notes in (inputs.FLAT_ROOTS, inputs.SHARP_ROOTS)
               for pc, note in enumerate(notes)}
    name = label[:2] if label[:2] in spelled else label[:1]
    root = spelled[name]
    return label, root, tuple((root + i) % 12 for i in inputs.SHARP_TOKENS[label[len(name):]])


def listed(label, *notes):
    """A ``name: pc,...`` line's chord: its root is the first pitch class written."""
    return label, notes[0], notes


# Hand-made files: (text, chords as the oracle takes them).
HAND_MADE = {
    "repeated-pitch-classes": (
        "a: 0,0,4\nb: 7,7,7\nc: 2,2,11,11\nd: 5,5\ne: 0,4,4,7\n",
        [listed("a", 0, 0, 4), listed("b", 7, 7, 7), listed("c", 2, 2, 11, 11),
         listed("d", 5, 5), listed("e", 0, 4, 4, 7)],
    ),
    "padding-both-ways": (
        "x: 4,7\nCmaj7\ny: 9,2\nB13b9\nz: 11\nC6/9\nw: 6,1,10\n",
        [listed("x", 4, 7), symbol("Cmaj7"), listed("y", 9, 2), symbol("B13b9"),
         listed("z", 11), symbol("C6/9"), listed("w", 6, 1, 10)],
    ),
    "one-chord": ("Cmaj7\n", [symbol("Cmaj7")]),
    "crlf-comments-blanks-sharps": (
        "# a song\r\n\r\nF#o7\r\n  C#-7  # tonic\r\n\r\nq: 11,3 # two\r\n\t# C7\r\n"
        "Dbmaj7#5\r\nA#-9",
        [symbol("F#o7"), symbol("C#-7"), listed("q", 11, 3), symbol("Dbmaj7#5"), symbol("A#-9")],
    ),
}
SEEDED = {f"song-{n}-{'sharp' if sharp else 'flat'}": inputs.song(random.Random(n), n, sharp)
          for n, sharp in ((2, False), (17, True), (40, False), (64, True))}
BRAID_FILES = {**{key: (s.text, s.chords) for key, s in SEEDED.items()}, **HAND_MADE}


@pytest.mark.parametrize("ascii_", [False, True], ids=["plain", "ascii"])
@pytest.mark.parametrize("key", list(BRAID_FILES))
def test_braid_answers_are_the_oracles(key, ascii_, tmp_path):
    text, chords = BRAID_FILES[key]
    path = tmp_path / "song.prog"
    path.write_bytes(text.encode())
    out, err = io.StringIO(), io.StringIO()
    code = run(["braid", "--file", str(path), *(["--ascii"] if ascii_ else [])], out=out, err=err)
    assert (code, err.getvalue()) == (0, "")
    oracle.check_braid_stdout(out.getvalue(), chords, ascii_)


@pytest.mark.parametrize(
    "data",
    [b"", b"# only a comment\n\n", b"Cmaj7\nCxx\n", b"x: 0,12\n", b"G7\r\nx:\r\n",
     b"Cmaj7\n\xff\n", b"Hm7"],
    ids=["empty", "comments-only", "bad-quality", "out-of-range", "crlf-empty-list",
         "not-utf8", "bad-root"],
)
def test_malformed_braid_files_print_one_parse_error(data, tmp_path):
    path = tmp_path / "song.prog"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    assert run(["braid", "--file", str(path)], out=out, err=err) == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("ParseError: ") and err.getvalue().count("\n") == 1


def long_song(seed: int, chords: int) -> str:
    """A seeded song with CRLF and LF ends, comments and blank lines, and no last newline."""
    rng = random.Random(seed)
    lines = []
    for line in inputs.song(rng, chords, rng.random() < 0.5).text.splitlines():
        if rng.random() < 0.3:
            line += "  # a comment that pads the line, so lines cross the parser's blocks"
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# between chords", "  \t"]))
        lines.append(line + ("\r" if rng.random() < 0.5 else ""))
    return "\n".join(lines)


def library_stdout(text: str, ascii_: bool) -> str:
    """The braid verb's stdout, built from the library's kept progression words."""
    p = parse_progression(text)
    words = braids_of_progression(p)
    return f"strands={STRANDS}\n" + "".join(
        f"{a} -> {b}: {serialize_word(w)}\n" + (render_ascii(w) if ascii_ else "")
        for (a, _, _), (b, _, _), w in zip(p.chords, p.chords[1:], words))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("ascii_", [False, True], ids=["plain", "ascii"])
def test_braid_verb_streams_the_library_words(seed, ascii_, tmp_path):
    text = long_song(seed, 5_000)
    assert len(text) > 2 * leading._BLOCK and not text.endswith("\n")
    path = tmp_path / "song.prog"
    path.write_bytes(text.encode())
    out, err = io.StringIO(), io.StringIO()
    argv = ["braid", "--file", str(path), *(["--ascii"] if ascii_ else [])]
    assert (run(argv, out=out, err=err), err.getvalue()) == (0, "")
    assert out.getvalue() == library_stdout(text, ascii_)
    assert len(out.getvalue()) > 2 << 16  # written in several blocks


@pytest.mark.parametrize("ascii_", [False, True], ids=["plain", "ascii"])
def test_the_braid_verb_checks_each_move_once(ascii_, monkeypatch, tmp_path):
    # a walk is checked as one word when it is derived; the verb then writes its
    # kept tokens and rows, so the checks are bounded by the 12 * 11 moves, not
    # by the file's length
    text = long_song(1, 5_000)
    expected = library_stdout(text, ascii_)
    path = tmp_path / "song.prog"
    path.write_bytes(text.encode())
    checked, check = [], BraidWord.__post_init__
    monkeypatch.setattr(BraidWord, "__post_init__", lambda w: checked.append(w) or check(w))
    monkeypatch.setattr(leading, "_WALKS", _Table(leading._walk))  # cold
    out = io.StringIO()
    assert run(["braid", "--file", str(path), *(["--ascii"] if ascii_ else [])], out=out) == 0
    assert out.getvalue() == expected
    assert 0 < len(checked) == len(leading._WALKS) <= 12 * 11


@pytest.mark.parametrize("ascii_", [False, True], ids=["plain", "ascii"])
def test_a_bad_line_after_a_block_of_output_ends_after_whole_lines(ascii_, tmp_path):
    # the lines before a bad one are read and printed as they stream; run writes
    # each full 64 KB block, drops the unfinished one and prints the one error line
    good = long_song(3, 5_000)
    path = tmp_path / "song.prog"
    path.write_bytes(f"{good}\nCxx\nG7\n".encode())
    out, err = io.StringIO(), io.StringIO()
    argv = ["braid", "--file", str(path), *(["--ascii"] if ascii_ else [])]
    assert run(argv, out=out, err=err) == 1
    lineno, position = good.count("\n") + 2, len(good) + 2
    assert err.getvalue() == (f"ParseError: unknown chord quality 'xx' on line {lineno}"
                              f" (at position {position})\n")
    printed = out.getvalue()
    assert len(printed) >= 1 << 16 and printed.endswith("\n")
    assert library_stdout(good, ascii_).startswith(printed)


class Recording(io.StringIO):
    """An out that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("ascii_", [False, True], ids=["plain", "ascii"])
def test_the_braid_verb_writes_blocks_of_64_k(ascii_, tmp_path):
    # one write per block of at least 64 K characters, and the rest in one last write
    text = long_song(4, 5_000)
    path = tmp_path / "song.prog"
    path.write_bytes(text.encode())
    out = Recording()
    assert run(["braid", "--file", str(path), *(["--ascii"] if ascii_ else [])], out=out) == 0
    assert out.getvalue() == library_stdout(text, ascii_)
    assert len(out.sizes) > 2
    assert all(size >= 1 << 16 for size in out.sizes[:-1])


@pytest.mark.parametrize("ascii_", [False, True], ids=["plain", "ascii"])
def test_the_braid_verb_cuts_its_blocks_by_the_library_block_size(ascii_, monkeypatch, tmp_path):
    # leading._BLOCK is the verb's one block size: patched smaller, every write but the
    # last holds whole lines and at least that many characters, and far fewer than 64 K
    text = long_song(5, 2_000)
    path = tmp_path / "song.prog"
    path.write_bytes(text.encode())
    monkeypatch.setattr(leading, "_BLOCK", 1_024)
    out = Recording()
    assert run(["braid", "--file", str(path), *(["--ascii"] if ascii_ else [])], out=out) == 0
    assert out.getvalue() == library_stdout(text, ascii_)
    writes = out.getvalue()
    ends = list(itertools.accumulate(out.sizes))
    assert len(out.sizes) > 2
    assert all(1_024 <= size < 1 << 15 for size in out.sizes[:-1])
    assert all(writes[end - 1] == "\n" for end in ends[:-1])


def calls_per_chord(path, chords, ascii_):
    """The Python and C calls of one braid verb run on ``path``, per chord."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    argv = ["braid", "--file", str(path), *(["--ascii"] if ascii_ else [])]
    sys.setprofile(count)
    try:
        code = run(argv, out=io.StringIO())
    finally:
        sys.setprofile(None)
    assert code == 0
    return calls / chords


@pytest.mark.parametrize("ascii_", [False, True], ids=["plain", "ascii"])
def test_the_braid_verb_makes_the_same_calls_per_chord_at_any_length(ascii_, tmp_path):
    # counted, not timed, so the check holds on any machine: work per transition whose
    # calls grow with the file shows as more calls per chord.  The long file is the
    # short one ten times, so both hold the same mix of chords and moves
    text = inputs.song(random.Random(1), 2_000, False).text
    per_chord = []
    for copies in (1, 10):
        path = tmp_path / f"{copies}.prog"
        path.write_text(text * copies, encoding="utf-8")
        assert run(["braid", "--file", str(path), "--ascii"], out=io.StringIO()) == 0  # warm
        per_chord.append(calls_per_chord(path, 2_000 * copies, ascii_))
    short, long = per_chord
    assert abs(long / short - 1) < 0.02, per_chord


DETERMINISM = """
import json, sys
from modalkit.cli import run
for argv in json.loads(sys.argv[1]):
    assert run(argv) == 0, argv
"""


def test_output_bytes_do_not_depend_on_the_hash_seed():
    peru = Path(__file__).resolve().parent / "data" / "peru.prog"
    commands = [["braid", "--file", str(peru), "--ascii"]] + [
        argv for q in QUALITIES for argv in (
            ["special", f"--quality={q}", "--paper-compat"],
            ["graph", f"--quality={q}", "--dot"],
            ["graph", f"--quality={q}", "--dot", "--root", "F#"],
            ["approx", "--target", "11,0,2,3,5,6,8,9", f"--quality={q}", "--root", "B"],
        )
    ]
    out = io.StringIO()
    assert all(run(argv, out=out) == 0 for argv in commands)
    src = Path(modalkit.__file__).resolve().parents[1]
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", DETERMINISM, json.dumps(commands)],
                              capture_output=True, env=env, check=True)
        assert proc.stdout == out.getvalue().encode(), f"PYTHONHASHSEED={seed}"
