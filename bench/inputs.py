"""Seeded inputs for the four workloads.

The same seed always gives the same inputs; the program under test only ever
sees the generated text, files and arguments.

Spelling rule for progressions (songs, the cli_short song files and the long
files): a fixed minority of files is sharp-spelled, the rest never contain a
``#``.  Sharp-spelled files write black-key roots as C#, D#, F#, G#, A# and may
use the ``maj7#5`` quality; each holds at least one ``#``.  Which size strata
are sharp-spelled is fixed (SHARP_SONG_LENGTHS, LONG_CASES), so the seed
changes chord content and order but never the size mix of the files that parse.

Each workload's inputs come as passes with the same size mix.  A run goes
over all of them in rounds; a traced run repeats the first pass only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracle import ADMISSIBLE_BY_NAME, MODES, QUALITIES, SCALES

FLAT_ROOTS = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")
SHARP_ROOTS = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

# Chord-symbol quality tokens and the semitones above the root they sound.
TOKENS = {
    "maj7": (0, 4, 7, 11),
    "-maj7": (0, 3, 7, 11),
    "-7b5": (0, 3, 6, 10),
    "-9": (0, 3, 7, 10, 2),
    "-7": (0, 3, 7, 10),
    "13b9": (0, 4, 7, 10, 1, 9),
    "o7": (0, 3, 6, 9),
    "7": (0, 4, 7, 10),
    "6/9": (0, 4, 7, 9, 2),
}
SHARP_TOKENS = dict(TOKENS, **{"maj7#5": (0, 4, 8, 11)})

PC_LIST_SHARE = 0.2  # lines written as `name: pc,pc,...`

# songs: one pass is 16 songs of 16, 32, ..., 256 chords; two are sharp-spelled.
# The two lie symmetrically about the mean and the median length, so the timed
# median and mean size stay put once they parse.
SONG_LENGTHS = tuple(16 * k for k in range(1, 17))
SHARP_SONG_LENGTHS = (96, 176)
SONG_PASSES = 8

# cli_braid_long: one pass is eight files as (chords, --ascii, sharp-spelled).
# The six flat-spelled ones are (10^4, 1.5x10^4, 2x10^4 chords) x (plain, --ascii).
# The two sharp-spelled ones repeat the middle size of each kind.  The plain
# twin runs faster, and the --ascii twin slower, than both middle files of the
# six (plain 2x10^4 and --ascii 10^4), so once the twins parse the timed median
# stays.  So does the mean time, because time is linear in size and each twin
# has the mean size of its kind.  The largest output (2x10^4 chords, --ascii)
# is flat-spelled, so peak RSS stays too.
LONG_CASES = tuple((n, a, False) for a in (False, True) for n in (10_000, 15_000, 20_000)) + (
    (15_000, False, True), (15_000, True, True))

CATALOG_PASSES = 5  # each pass asks about all 33 admissible modes once
CLI_PASSES = 2


@dataclass
class Song:
    text: str
    chords: list  # (label, root pc, notes as written) per chord line
    sharp: bool

    @property
    def size(self) -> int:
        return len(self.chords)


def song(rng: random.Random, n: int, sharp: bool) -> Song:
    roots = SHARP_ROOTS if sharp else FLAT_ROOTS
    tokens = list((SHARP_TOKENS if sharp else TOKENS).items())
    forced = rng.randrange(n) if sharp else -1  # a black-key root, so a '#' is written
    lines, chords = [], []
    for i in range(n):
        if i != forced and rng.random() < PC_LIST_SHARE:
            values = rng.sample(range(12), rng.randint(3, 5))
            label = f"v{i}"
            lines.append(f"{label}: " + ",".join(map(str, values)))
            chords.append((label, values[0], tuple(values)))
        else:
            r = rng.choice((1, 3, 6, 8, 10)) if i == forced else rng.randrange(12)
            token, intervals = rng.choice(tokens)
            label = roots[r] + token
            lines.append(label)
            chords.append((label, r, tuple((r + k) % 12 for k in intervals)))
        if rng.random() < 0.05:
            lines.append("")
    return Song("\n".join(lines) + "\n", chords, sharp)


def songs(seed: int) -> list[list[Song]]:
    """SONG_PASSES passes; each holds every length of SONG_LENGTHS once, shuffled."""
    rng = random.Random(f"songs/{seed}")
    passes = []
    for _ in range(SONG_PASSES):
        lengths = list(SONG_LENGTHS)
        rng.shuffle(lengths)
        passes.append([song(rng, n, n in SHARP_SONG_LENGTHS) for n in lengths])
    return passes


@dataclass
class CatalogQuery:
    scale: str
    degree: int
    root: int
    quality: str
    target: frozenset
    approx_root: int
    name: str
    dot_root: int | None


def catalog(seed: int) -> list[list[CatalogQuery]]:
    rng = random.Random(f"catalog/{seed}")
    names = sorted(ADMISSIBLE_BY_NAME)
    passes = []
    for _ in range(CATALOG_PASSES):
        order = names[:]
        rng.shuffle(order)
        passes.append([
            CatalogQuery(
                scale=rng.choice(list(SCALES)),
                degree=rng.randint(1, 7),
                root=rng.randrange(12),
                quality=rng.choice(list(QUALITIES)),
                target=frozenset(rng.sample(range(12), rng.randint(5, 9))),
                approx_root=rng.randrange(12),
                name=name,
                dot_root=rng.choice((None, rng.randrange(12))),
            )
            for name in order
        ])
    return passes


@dataclass
class CliCommand:
    verb: str
    params: dict
    argv: list = field(default_factory=list)
    song: Song | None = None  # braid only: the progression, written to `file`
    file: str | None = None
    ascii: bool = False


def _fmt(rng, params, argv):
    fmt = rng.choice(("plain", "plain", "csv", "json"))
    if fmt != "plain":
        params["format"] = fmt
        argv += ["--format", fmt]


def _note(rng, pc):
    return rng.choice((FLAT_ROOTS, SHARP_ROOTS))[pc]


def cli_command(rng: random.Random, verb: str) -> CliCommand:
    """A random command for any verb but braid."""
    p: dict = {}
    argv = [verb]
    if verb == "modes":
        p.update(scale=rng.choice(list(SCALES)), root=rng.randrange(12))
        argv += ["--scale", p["scale"], "--root", _note(rng, p["root"])]
        _fmt(rng, p, argv)
    elif verb == "harmonize":
        p["scale"] = rng.choice(list(SCALES))
        argv += ["--scale", p["scale"]]
        if rng.random() < 0.5:
            p["degree"] = rng.randint(1, 7)
            argv += ["--degree", str(p["degree"])]
        _fmt(rng, p, argv)
    elif verb == "decompose":
        p.update(scale=rng.choice(list(SCALES)), degree=rng.randint(1, 7), root=rng.randrange(12))
        notes = [(p["root"] + o) % 12 for o in MODES[p["scale"], p["degree"]][1]]
        rng.shuffle(notes)
        argv += ["--notes", ",".join(map(str, notes)), "--root", str(p["root"])]
    elif verb == "graph":
        p["quality"] = rng.choice(list(QUALITIES))
        argv += [f"--quality={p['quality']}"]
        if rng.random() < 0.5:
            p["dot"] = True
            argv += ["--dot"]
            if rng.random() < 0.5:
                p["root"] = rng.randrange(12)
                argv += ["--root", _note(rng, p["root"])]
    elif verb == "tcm":
        if rng.random() < 0.5:
            p["all"] = True
            argv += ["--all"]
        else:
            p["quality"] = rng.choice(list(QUALITIES))
            argv += [f"--quality={p['quality']}"]
        _fmt(rng, p, argv)
    elif verb in ("admissible", "special"):
        p["quality"] = rng.choice(list(QUALITIES))
        argv += [f"--quality={p['quality']}"]
        if verb == "special" and rng.random() < 0.5:
            p["paper_compat"] = True
            argv += ["--paper-compat"]
        _fmt(rng, p, argv)
    elif verb == "approx":
        p.update(
            target=sorted(rng.sample(range(12), rng.randint(5, 9))),
            quality=rng.choice(list(QUALITIES)),
            root=rng.randrange(12),
        )
        argv += ["--target", ",".join(map(str, p["target"])),
                 f"--quality={p['quality']}", "--root", _note(rng, p["root"])]
        _fmt(rng, p, argv)
    return CliCommand(verb, p, argv)


def braid_command(s: Song, song_file: str, ascii_: bool) -> CliCommand:
    argv = ["braid", "--file", song_file] + (["--ascii"] if ascii_ else [])
    return CliCommand("braid", {}, argv, s, song_file, ascii_)


VERBS = ("modes", "harmonize", "decompose", "graph", "tcm", "admissible",
         "special", "braid", "approx")


def cli_short(seed: int, song_path) -> list[list[CliCommand]]:
    """CLI_PASSES passes of 18 commands, two per verb, in shuffled order.

    The braid commands read flat-spelled songs of 16-48 chords; song_path(i)
    names the file the i-th song is written to.
    """
    rng = random.Random(f"cli_short/{seed}")
    passes, k = [], 0
    for _ in range(CLI_PASSES):
        cmds = []
        for verb in VERBS:
            for _ in range(2):
                if verb == "braid":
                    s = song(rng, rng.choice((16, 32, 48)), False)
                    cmds.append(braid_command(s, song_path(k), rng.random() < 0.5))
                    k += 1
                else:
                    cmds.append(cli_command(rng, verb))
        rng.shuffle(cmds)
        passes.append(cmds)
    return passes


def cli_braid_long(seed: int, song_path) -> list[list[CliCommand]]:
    """One pass: a braid command per LONG_CASES entry, reading song_path(i)."""
    rng = random.Random(f"cli_braid_long/{seed}")
    return [[
        braid_command(song(rng, n, sharp), song_path(k), a)
        for k, (n, a, sharp) in enumerate(LONG_CASES)
    ]]
