"""Every CLI answer in the finite input space, against the independent oracle.

``bench/oracle.py`` derives the whole theory without importing modalkit, and
its ``cli_stdout`` gives the exact stdout of every verb but ``braid``.  The
theory is finite, so every input of those verbs runs here, with roots spelled
on flats and on sharps.  ``approx`` alone has too many (4,096 targets per
quality and root), so hypothesis draws its targets.
"""

import importlib.util
import io
import random
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modalkit.cli import run

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    """A module of bench/, loaded by its path; inputs.py imports oracle by name."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load("oracle")
inputs = load("inputs")

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


RNG = random.Random(11)  # the note order of each decompose command
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
                      "tcm": 24, "admissible": 21, "special": 42}


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
