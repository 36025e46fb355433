"""Independent reference answers for every output the benchmark checks.

Nothing here imports modalkit.  The finite theory (21 modes, seven base-chord
graphs, 33 admissible modes, 12 special modes) is derived from the three
parent-scale step patterns and the frozen name tables below, then asserted
against the published counts at import time.  Braid words are checked through
a permutation/writhe computation of our own and through the voice moves that
the chord notes imply.
"""

from __future__ import annotations

import json
from itertools import product

STRANDS = 12

SCALES = {
    "major": (0, 2, 4, 5, 7, 9, 11),
    "melodic-minor": (0, 2, 3, 5, 7, 9, 11),
    "harmonic-minor": (0, 2, 3, 5, 7, 8, 11),
}

MODE_NAMES = {
    "major": ("ionian", "dorian", "phrygian", "lydian", "mixolydian", "eolian", "locrian"),
    "melodic-minor": (
        "hypoionian", "dorian b2", "lydian augmented", "lydian dominant",
        "mixolydian b6", "locrian #2", "superlocrian",
    ),
    "harmonic-minor": (
        "hypoionian b6", "locrian #6", "ionian augmented", "dorian #4",
        "phrygian dominant", "lydian #2", "ultralocrian",
    ),
}

# Seventh-chord qualities in the order of the complexity table.
QUALITIES = {
    "o7": (0, 3, 6, 9),
    "maj7#5": (0, 4, 8, 11),
    "-maj7": (0, 3, 7, 11),
    "maj7": (0, 4, 7, 11),
    "7": (0, 4, 7, 10),
    "-7": (0, 3, 7, 10),
    "-7b5": (0, 3, 6, 10),
}
QUALITY_BY_INTERVALS = {v: k for k, v in QUALITIES.items()}

TRIADS = {(0, 4, 7): "", (0, 3, 7): "-", (0, 3, 6): "-b5", (0, 4, 8): "#5"}

PC_NAMES = ("C", "Db", "D", "Eb", "E", "F", "F#", "G", "Ab", "A", "Bb", "B")
ROMAN = ("I", "II", "III", "IV", "V", "VI", "VII")

LABEL_NAMES = {
    (1, 0): "I",
    (2, 1): "mII", (2, 2): "MII", (2, 3): "aII",
    (3, 3): "mIII", (3, 4): "MIII",
    (4, 4): "dIV", (4, 5): "PIV", (4, 6): "aIV",
    (5, 6): "dV", (5, 7): "PV", (5, 8): "aV",
    (6, 8): "mVI", (6, 9): "MVI",
    (7, 9): "dVII", (7, 10): "mVII", (7, 11): "MVII",
}

SPECIAL_NAMES = {
    (0, 3, 4, 5, 7, 9, 11): "ionian #2",
    (0, 1, 4, 5, 7, 9, 10): "mixolydian b2",
    (0, 1, 4, 6, 7, 9, 10): "mixolydian b2 #4",
    (0, 2, 4, 6, 7, 8, 10): "mixolydian #4 b6",
    (0, 1, 4, 6, 7, 8, 10): "mixolydian b2 #4 b6",
    (0, 2, 3, 6, 7, 8, 10): "eolian #4",
    (0, 1, 3, 6, 7, 8, 10): "phrygian #4",
    (0, 1, 3, 6, 7, 9, 10): "dorian b2 #4",
    (0, 2, 3, 5, 6, 9, 10): "locrian #2 #6",
    (0, 2, 3, 4, 6, 8, 10): "superlocrian #2",
    (0, 1, 3, 4, 6, 9, 10): "superlocrian #6",
    (0, 2, 3, 4, 6, 9, 10): "superlocrian #2 #6",
}

# Degree lists printed in the source classification (the --paper-compat view).
PUBLISHED_SPECIALS = {
    "maj7": (("ionian #2", "I aII MIII PIV PV MVI MVII"),),
    "7": (
        ("mixolydian b2", "I mII MIII PIV PV MVI mVII"),
        ("mixolydian b2 #4", "I mII MIII aIV PV MVI mVII"),
        ("mixolydian #4 b6", "I MII MIII aIV PV mVI mVII"),
        ("mixolydian b2 #4 b6", "I mII MIII aIV PV mVI mVII"),
    ),
    "-7": (
        ("eolian b2", "I mII mIII PIV PV mVI mVII"),
        ("eolian #4", "I MII mIII aIV PV mVI mVII"),
        ("phrygian #4", "I mII mIII aIV PV mVI mVII"),
    ),
    "-7b5": (
        ("locrian #2 #6", "I mII mIII PIV dV mVI mVII"),
        ("superlocrian #2", "I MII mIII dIV dV mVI mVII"),
        ("superlocrian #6", "I mII mIII dIV dV MVI mVII"),
        ("superlocrian #2 #6", "I MII mIII dIV dV MVI mVII"),
    ),
}


def _rotation(pattern, i):
    return tuple((pattern[(i + j) % 7] - pattern[i]) % 12 for j in range(7))


def _stack(offsets):
    return QUALITY_BY_INTERVALS[(offsets[0], offsets[2], offsets[4], offsets[6])]


# (scale, degree 1..7) -> (name, offsets, base quality symbol)
MODES = {
    (s, d + 1): (MODE_NAMES[s][d], _rotation(p, d), _stack(_rotation(p, d)))
    for s, p in SCALES.items()
    for d in range(7)
}
HARMONIZATION = {s: tuple(MODES[s, d][2] for d in range(1, 8)) for s in SCALES}


class Graph:
    """The reference base-chord graph of one quality."""

    def __init__(self, q):
        self.quality = q
        self.patterns = {}
        for (_s, _d), (name, offs, qual) in MODES.items():
            if qual == q:
                self.patterns.setdefault(offs, name)
        self.choices = [sorted({offs[d] for offs in self.patterns}) for d in range(7)]
        self.vertices = [(d + 1, s) for d in range(7) for s in self.choices[d]]
        self.edges = [
            ((d + 1, a), (d + 2, b))
            for d in range(6)
            for a in self.choices[d]
            for b in self.choices[d + 1]
        ]
        self.chi = len(self.vertices) - len(self.edges)
        self.tau = 1 - self.chi
        # (offsets, is_special, name), flatter choice first at each degree
        self.admissible = []
        for offs in product(*self.choices):
            if offs in self.patterns:
                self.admissible.append((offs, False, self.patterns[offs]))
            else:
                self.admissible.append((offs, True, SPECIAL_NAMES[offs]))
        self.specials = [a for a in self.admissible if a[1]]

    def labels(self, offs):
        return " ".join(LABEL_NAMES[d + 1, s] for d, s in enumerate(offs))


GRAPHS = {q: Graph(q) for q in QUALITIES}
ADMISSIBLE_BY_NAME = {
    name: (q, offs, special)
    for q, g in GRAPHS.items()
    for offs, special, name in g.admissible
}

# The published facts the derivation above must reproduce.
assert len(MODES) == 21
assert {q: (g.chi, g.tau) for q, g in GRAPHS.items()} == {
    "o7": (1, 0), "maj7#5": (0, 1), "-maj7": (0, 1), "maj7": (-1, 2),
    "7": (-2, 3), "-7": (-2, 3), "-7b5": (-2, 3),
}
assert sum(len(g.admissible) for g in GRAPHS.values()) == 33 == len(ADMISSIBLE_BY_NAME)
assert sum(len(g.specials) for g in GRAPHS.values()) == 12


class Mismatch(Exception):
    """An output of the program differs from the reference."""


def expect(condition, what):
    if not condition:
        raise Mismatch(what)


# ---------------------------------------------------------------- braids


def moves(a_notes, a_root, b_notes, b_root):
    """Strand moves (source slot, target slot) a voice leading must realize.

    Pad the smaller chord with its root, pair sorted with sorted, and keep
    one move per source and per target slot: the one with the smallest
    displacement, ascending motion winning ties.
    """
    src, tgt = list(a_notes), list(b_notes)
    while len(src) < len(tgt):
        src.append(a_root)
    while len(tgt) < len(src):
        tgt.append(b_root)

    def badness(m):
        d = m[1] - m[0]
        return (abs(d), d < 0)

    by_src = {}
    for s, t in zip(sorted(src), sorted(tgt)):
        m = (s + 1, t + 1)
        if m[0] not in by_src or badness(m) < badness(by_src[m[0]]):
            by_src[m[0]] = m
    by_tgt = {}
    for m in by_src.values():
        if m[1] not in by_tgt or badness(m) < badness(by_tgt[m[1]]):
            by_tgt[m[1]] = m
    return sorted(by_tgt.values())


def permutation(letters, strands=STRANDS):
    """1-based images of the start positions after the letters act."""
    at = list(range(strands + 1))  # at[slot] = strand in that slot
    for i, _sign in letters:
        at[i], at[i + 1] = at[i + 1], at[i]
    image = [0] * strands
    for slot in range(1, strands + 1):
        image[at[slot] - 1] = slot
    return tuple(image)


def compose(first, second):
    return tuple(second[p - 1] for p in first)


def check_transition(letters, a, b):
    """Letters of one transition word against chords a and b (notes, root)."""
    ms = moves(a[0], a[1], b[0], b[1])
    perm = permutation(letters)
    for s, t in ms:
        expect(perm[s - 1] == t, f"voice at slot {s} ends at {perm[s - 1]}, not {t}")
    expect(len(letters) == sum(abs(t - s) for s, t in ms), "word length")
    expect(sum(sign for _i, sign in letters) == sum(t - s for s, t in ms), "writhe")
    expect(all(1 <= i < STRANDS and sign in (1, -1) for i, sign in letters), "letter range")


def serialize(letters):
    return " ".join(f"s{i}" if s > 0 else f"s{i}^-1" for i, s in letters)


def parse_tokens(text):
    letters = []
    for token in text.split():
        inverse = token.endswith("^-1")
        letters.append((int(token[1:-3] if inverse else token[1:]), -1 if inverse else 1))
    return tuple(letters)


def free_reduce(letters):
    stack = []
    for i, s in letters:
        if stack and stack[-1] == (i, -s):
            stack.pop()
        else:
            stack.append((i, s))
    return tuple(stack)


def _rows(i, sign, strands=STRANDS):
    """The three rows a letter draws (see modalkit's render_ascii docstring)."""

    def bars():
        row = [" "] * (2 * strands - 1)
        for c in range(strands):
            if c + 1 not in (i, i + 1):
                row[2 * c] = "|"
        return row

    top, mid, bottom = bars(), bars(), bars()
    top[2 * (i - 1)], top[2 * i] = "\\", "/"
    mid[2 * i - 1] = "/" if sign > 0 else "\\"
    bottom[2 * (i - 1)], bottom[2 * i] = "/", "\\"
    return ["".join(r) for r in (top, mid, bottom)]


ROWS = {(i, s): _rows(i, s) for i in range(1, STRANDS) for s in (1, -1)}
BASE_ROW = "|" + " |" * (STRANDS - 1)


def ascii_art(letters):
    lines = [BASE_ROW]
    for letter in letters:
        lines.extend(ROWS[letter])
    return lines


def check_song_op(song, out):
    """Every output of one song pipeline op (see workloads.songs_op)."""
    prog, words, sers, joined, inv, reduced, back = out
    chords = song.chords
    expect(len(prog.chords) == len(chords), "chord count")
    for (label, root, chord), (e_label, e_root, e_notes) in zip(prog.chords, chords):
        expect(label == e_label and root == e_root, f"label or root of {e_label}")
        expect(chord.notes == tuple(sorted(e_notes)), f"notes of {e_label}")
    expect(len(words) == len(chords) - 1, "transition count")
    perm, writhe, letters = tuple(range(1, STRANDS + 1)), 0, []
    for k, w in enumerate(words):
        a, b = chords[k], chords[k + 1]
        expect(w.strands == STRANDS, "strand count")
        check_transition(w.letters, (a[2], a[1]), (b[2], b[1]))
        expect(sers[k] == serialize(w.letters), "serialized word")
        expect(back[k] == w, "parse_word(serialize_word(w)) != w")
        perm = compose(perm, permutation(w.letters))
        writhe += sum(s for _i, s in w.letters)
        letters.extend(w.letters)
    expect(joined.letters == tuple(letters), "joined word is not the concatenation")
    expect(tuple(inv.permutation) == perm and inv.writhe == writhe, "joined invariants")
    expect(reduced.letters == free_reduce(joined.letters), "free reduction")
    return len(letters)


def check_braid_stdout(text, chords, ascii_):
    """`modalkit braid` output for a file with the given chords."""
    lines = text.split("\n")
    expect(lines[0] == f"strands={STRANDS}" and lines[-1] == "", "braid header/trailer")
    row, letters_out = 1, 0
    for k in range(len(chords) - 1):
        a, b = chords[k], chords[k + 1]
        head = f"{a[0]} -> {b[0]}: "
        line = lines[row]
        expect(line.startswith(head), f"transition line {row}")
        letters = parse_tokens(line[len(head):])
        check_transition(letters, (a[2], a[1]), (b[2], b[1]))
        expect(line[len(head):] == serialize(letters), "word spelling")
        row += 1
        letters_out += len(letters)
        if ascii_:
            art = ascii_art(letters)
            expect(lines[row:row + len(art)] == art, f"ascii art of transition {k}")
            row += len(art)
    expect(row == len(lines) - 1, "trailing output")
    return letters_out


# --------------------------------------------------------------- catalog


def note_name(degree, semitones, root):
    letters = "CDEFGAB"
    letter = letters[(letters.index(PC_NAMES[root][0]) + degree - 1) % 7]
    natural = ({"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}[letter] - root) % 12
    acc = semitones - natural
    acc = acc - 12 if acc > 6 else acc + 12 if acc < -6 else acc
    return letter + ("#" * acc if acc >= 0 else "b" * -acc)


def dot_text(q, root=None):
    g = GRAPHS[q]

    def node(v):
        return LABEL_NAMES[v] if root is None else note_name(v[0], v[1], root)

    lines = [f'digraph "{q}" {{', "  rankdir=LR;"]
    lines += [f'  "{node(v)}";' for v in g.vertices]
    lines += [f'  "{node(a)}" -> "{node(b)}";' for a, b in g.edges]
    return "\n".join(lines + ["}"]) + "\n"


def approx_rows(target, q, root):
    """(name, is_special, shared, dropped, added) in ranking order."""
    target = {t % 12 for t in target}
    rows = []
    for offs, special, name in GRAPHS[q].admissible:
        notes = {(root + o) % 12 for o in offs}
        rows.append((name, special, len(target & notes),
                     sorted(target - notes), sorted(notes - target)))
    rows.sort(key=lambda r: (-r[2], len(r[4]), r[0]))
    return rows


def parent_degrees(scale, root, degree):
    """Degrees of the mode on `degree` (1..7) of the parent scale built on root."""
    p = SCALES[scale]
    return tuple((root + p[(degree - 1 + j) % 7]) % 12 for j in range(7))


def _path(p):
    return tuple(label.semitones for label in p.labels), p.is_special, p.name


def check_catalog_op(query, out):
    (mode, dec, rec, harm, graph, tau, adm, spec, ranked, found, dot) = out
    name, _offs, qual = MODES[query.scale, query.degree]
    degrees = parent_degrees(query.scale, query.root, query.degree)
    expect(mode.degrees == degrees and mode.name == name, "standard mode")
    expect(dec.base.notes == tuple(sorted(degrees[0::2])), "decomposed base")
    expect(dec.tension.notes == tuple(sorted(degrees[1::2])), "decomposed tension")
    expect(dec.base_quality().symbol == qual, "base quality")
    expect(rec.degrees == degrees and rec.name == name, "recompose")
    expect(tuple(h.symbol for h in harm) == HARMONIZATION[query.scale], "harmonization")
    g = GRAPHS[query.quality]
    expect(graph.quality.symbol == query.quality, "graph quality")
    expect([(v.degree, v.semitones) for v in graph.vertices] == g.vertices, "vertices")
    expect(len(graph.edges) == len(g.edges), "edges")
    expect(tau == g.tau, "tcm")
    expect([_path(p) for p in adm] == g.admissible, "admissible modes")
    expect([_path(p) for p in spec] == g.specials, "special modes")
    got = [
        (a.candidate.name, a.candidate.is_special, a.shared,
         sorted(a.dropped), sorted(a.added))
        for a in ranked
    ]
    expect(got == approx_rows(query.target, query.quality, query.approx_root), "approximate")
    fq, foffs, fspecial = ADMISSIBLE_BY_NAME[query.name]
    expect(found is not None and found[0].symbol == fq, "find_mode_by_name quality")
    expect(_path(found[1]) == (foffs, fspecial, query.name), "find_mode_by_name path")
    expect(dot == dot_text(query.quality, query.dot_root), "emit_dot")


# ------------------------------------------------------------------- CLI


def _table(rows, fmt):
    if not rows:
        return ""
    keys = list(rows[0])
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        return "".join(",".join(r) + "\n" for r in [keys] + [list(r.values()) for r in rows])
    widths = {k: max(len(k), *(len(r[k]) for r in rows)) for k in keys}
    return "".join(
        "  ".join(r[k].ljust(widths[k]) for k in keys).rstrip() + "\n" for r in rows
    )


def _path_rows(q, paths):
    g = GRAPHS[q]
    return [
        {"name": name, "kind": "special" if sp else "standard", "labels": g.labels(offs)}
        for offs, sp, name in paths
    ]


def cli_stdout(cmd):
    """Exact expected stdout of one `modalkit` command (see inputs.CliCommand)."""
    a = cmd.params
    verb, fmt = cmd.verb, a.get("format", "plain")
    if verb == "modes":
        rows = []
        for d in range(1, 8):
            name = MODE_NAMES[a["scale"]][d - 1]
            degs = parent_degrees(a["scale"], a["root"], d)
            rows.append({
                "degree": ROMAN[d - 1], "name": name,
                "pitch_classes": " ".join(map(str, degs)),
                "notes": " ".join(PC_NAMES[n] for n in degs),
            })
        return _table(rows, fmt)
    if verb == "harmonize":
        degrees = [a["degree"]] if a.get("degree") else range(1, 8)
        rows = [{"degree": ROMAN[d - 1], "quality": HARMONIZATION[a["scale"]][d - 1]}
                for d in degrees]
        return _table(rows, fmt)
    if verb == "decompose":
        _name, offs, qual = MODES[a["scale"], a["degree"]]
        r = a["root"]
        degs = [(r + o) % 12 for o in offs]
        second = degs[1]
        triad = TRIADS[tuple(sorted((n - second) % 12 for n in degs[1::2]))]
        return (
            f"scale:   {' '.join(map(str, degs))}\n"
            f"base:    {PC_NAMES[r]}{qual}  {' '.join(map(str, sorted(degs[0::2])))}\n"
            f"tension: {PC_NAMES[second]}{triad}  {' '.join(map(str, sorted(degs[1::2])))}\n"
        )
    if verb == "graph":
        q = a["quality"]
        if a.get("dot"):
            return dot_text(q, a.get("root"))
        g = GRAPHS[q]
        lines = [
            f"{ROMAN[d]}: " + " ".join(LABEL_NAMES[d + 1, s] for s in g.choices[d])
            for d in range(7)
        ]
        lines.append(f"vertices={len(g.vertices)} edges={len(g.edges)} chi={g.chi} tau={g.tau}")
        return "\n".join(lines) + "\n"
    if verb == "tcm":
        qs = list(QUALITIES) if a.get("all") else [a["quality"]]
        rows = [{"quality": q, "chi": str(GRAPHS[q].chi), "tau": str(GRAPHS[q].tau),
                 "admissible": str(len(GRAPHS[q].admissible))} for q in qs]
        return _table(rows, fmt)
    if verb == "admissible":
        return _table(_path_rows(a["quality"], GRAPHS[a["quality"]].admissible), fmt)
    if verb == "special":
        q = a["quality"]
        text = _table(_path_rows(q, GRAPHS[q].specials), fmt)
        if a.get("paper_compat"):
            computed = {GRAPHS[q].labels(offs) for offs, _s, _n in GRAPHS[q].specials}
            text += "\npublished degree lists:\n"
            for name, labels in PUBLISHED_SPECIALS.get(q, ()):
                marker = "agrees" if labels in computed else "DIFFERS from computation"
                text += f"  {name}: {labels}  [{marker}]\n"
        return text
    if verb == "approx":
        rows = [
            {"rank": str(i + 1), "name": name, "kind": "special" if sp else "standard",
             "shared": str(shared), "dropped": " ".join(map(str, dropped)) or "-",
             "added": " ".join(map(str, added)) or "-"}
            for i, (name, sp, shared, dropped, added)
            in enumerate(approx_rows(a["target"], a["quality"], a["root"]))
        ]
        return _table(rows, fmt)
    raise ValueError(f"no reference for verb {verb!r}")
