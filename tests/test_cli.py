"""Command-line interface: golden outputs, formats and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import modalkit
from modalkit.cli import run
from modalkit.pitch import ChordQuality

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def cli_command(argv):
    src = Path(modalkit.__file__).resolve().parents[1]
    return [sys.executable, "-m", "modalkit.cli", *argv], dict(os.environ, PYTHONPATH=str(src))


def run_subprocess(argv):
    command, env = cli_command(argv)
    return subprocess.run(command, capture_output=True, text=True, env=env)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["modes", "--scale", "major", "--root", "C"], "modes_major_c.txt"),
        (["tcm", "--all"], "tcm_all.txt"),
        (["special", "--quality", "7"], "special_dom7.txt"),
        (["graph", "--quality", "o7", "--dot"], "graph_dim7.dot"),
    ],
)
def test_golden_outputs(argv, golden):
    code, out, err = capture(argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


def test_modes_json_format():
    code, out, _ = capture(["modes", "--scale", "melodic-minor", "--root", "C", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 7
    assert rows[4]["name"] == "mixolydian b6"


def test_tcm_csv_format():
    code, out, _ = capture(["tcm", "--all", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quality,chi,tau,admissible"
    assert lines[1] == "o7,1,0,1"
    assert lines[-1] == "-7b5,-2,3,8"


TABLES = [
    ["modes", "--scale", "major", "--root", "C"],
    ["harmonize", "--scale", "major"],
    ["tcm", "--all"],
    *([verb, f"--quality={q.symbol}"] for verb in ("admissible", "special") for q in ChordQuality),
    *(["approx", "--target", "11,0,2,3,5,6,8,9", f"--quality={q.symbol}", "--root", "B"]
      for q in ChordQuality),
]


@pytest.mark.parametrize("argv", TABLES, ids=" ".join)
def test_table_formats_agree(argv):
    printed = {}
    for fmt in ("plain", "csv", "json"):
        code, out, err = capture([*argv, "--format", fmt])
        assert (code, err) == (0, "")
        printed[fmt] = out
    if not printed["plain"]:
        # an empty table, such as the specials of o7, prints nothing in any format
        assert printed == {"plain": "", "csv": "", "json": ""}
        return
    rows = json.loads(printed["json"])
    assert rows == list(csv.DictReader(io.StringIO(printed["csv"])))
    assert len(printed["plain"].splitlines()) == len(rows)


def test_harmonize_single_degree():
    code, out, _ = capture(["harmonize", "--scale", "harmonic-minor", "--degree", "7"])
    assert code == 0
    assert out.split() == ["VII", "o7"]


def test_decompose_verb():
    code, out, _ = capture(["decompose", "--notes", "5,7,9,11,0,2,4", "--root", "5"])
    assert code == 0
    assert "base:    Fmaj7" in out
    assert "tension: G" in out


def test_decompose_special_mode_without_tension_triad():
    # mixolydian b2 #4 on B, the mode that approx ranks first for the octatonic
    code, out, err = capture(["decompose", "--notes", "11,0,3,5,6,8,9", "--root", "11"])
    assert (code, err) == (0, "")
    assert out == (
        "scale:   11 0 3 5 6 8 9\n"
        "base:    B7  3 6 9 11\n"
        "tension: (no triad)  0 5 8\n"
    )
    code, out, _ = capture(["approx", "--target", "11,0,2,3,5,6,8,9", "--quality", "7", "--root", "B"])
    assert code == 0
    assert out.splitlines()[0].split()[:5] == ["1", "mixolydian", "b2", "#4", "special"]


def test_graph_summary_lists_tau():
    code, out, _ = capture(["graph", "--quality", "7"])
    assert code == 0
    assert "vertices=10 edges=12 chi=-2 tau=3" in out


def test_admissible_counts():
    code, out, _ = capture(["admissible", "--quality", "maj7"])
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_special_needs_equals_for_dashed_quality():
    # "-7b5" starts with a dash, so the --quality=-7b5 form is required
    code, out, _ = capture(["special", "--quality=-7b5"])
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_special_paper_compat_markers():
    code, out, _ = capture(["special", "--quality=-7b5", "--paper-compat"])
    assert code == 0
    assert "[agrees]" in out
    assert "[DIFFERS from computation]" in out


def test_braid_verb_on_fixture():
    code, out, _ = capture(["braid", "--file", str(DATA / "peru.prog")])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "strands=12"
    assert len(lines) == 4
    assert lines[1].startswith("F-9 -> D-9: ")


def test_braid_ascii_rendering():
    code, out, _ = capture(["braid", "--file", str(DATA / "peru.prog"), "--ascii"])
    assert code == 0
    assert "|" in out and "/" in out


def test_approx_verb():
    code, out, _ = capture(
        ["approx", "--target", "11,0,2,3,5,6,8,9", "--quality", "7", "--root", "B"]
    )
    assert code == 0
    first = out.splitlines()[0].split()
    assert first[:4] == ["1", "mixolydian", "b2", "#4"]


def test_usage_error_exit_code():
    code, out, err = capture(["modes", "--scale", "bogus", "--root", "C"])
    assert code == 2
    assert out == "" and err.rstrip("\n").endswith("unknown scale 'bogus'")
    code, _, _ = capture([])
    assert code == 2
    for argv, flag in (
        (["decompose", "--notes", "0,2,4,5,7,9,11"], "--root"),
        (["harmonize", "--scale", "major"], "--degree"),
    ):
        for token in ("1_0", "+3", "\u0663"):
            code, out, err = capture([*argv, f"{flag}={token}"])
            assert code == 2 and out == ""
            assert err.splitlines()[-1].endswith(f"argument {flag}: bad integer {token!r}")


@pytest.mark.parametrize(
    "argv",
    [
        ["modes", "--scale", "major", "--root", "H"],
        ["graph", "--quality", "7", "--root", "H"],
        ["approx", "--target", "0,2,4", "--quality", "7", "--root", "H"],
    ],
    ids=["modes", "graph", "approx"],
)
def test_bad_root_is_a_usage_error(argv):
    assert capture(argv)[0] == 2
    proc = run_subprocess(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith("unknown note name 'H'")


def test_domain_error_exit_code():
    code, _, err = capture(["decompose", "--notes", "0,1,2,3,4,5,6", "--root", "0"])
    assert code == 1
    assert err.startswith("NotAMode:")
    code, _, err = capture(["braid", "--file", "/no/such/file"])
    assert code == 1
    assert "FileNotFoundError" in err


@pytest.mark.parametrize(
    "content, detail",
    [
        (b"", "no chords"),
        (b"# nothing but a comment\n\n", "no chords"),
        (b"Cmaj7\n\xff\xfeG7\n", "not UTF-8 text; bad byte (at position 6)"),
        # the position counts characters, so the two-byte e-acute counts once
        (b"Cmaj7\n\xc3\xa9\n\xff\n", "not UTF-8 text; bad byte (at position 8)"),
    ],
    ids=["empty", "comment-only", "not-utf8", "not-utf8-after-multibyte"],
)
def test_braid_bad_file_is_one_line_parse_error(tmp_path, content, detail):
    path = tmp_path / "bad.prog"
    path.write_bytes(content)
    proc = run_subprocess(["braid", "--file", str(path)])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ParseError:")
    assert detail in lines[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, flag",
    [(["decompose", "--root", "0"], "--notes"), (["approx", "--quality", "7", "--root", "B"], "--target")],
    ids=["decompose", "approx"],
)
@pytest.mark.parametrize("token", ["", " , ", "x", "0,x", "12", "-1", "0,-1", "0,1_1"])
def test_bad_pitch_class_list_is_a_usage_error(argv, flag, token):
    code, out, err = capture([*argv, f"{flag}={token}"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(f"argument {flag}: bad pitch-class list {token!r}")


def test_closed_stdout_ends_in_one_line(tmp_path):
    path = tmp_path / "long.prog"
    path.write_text("\n".join(["Cmaj7", "A-7", "D-9", "G13b9", "F#o7"] * 400) + "\n")
    command, env = cli_command(["braid", "--file", str(path), "--ascii"])
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert first == b"strands=12\n"
    assert proc.returncode in (0, 1)
    assert len(err.splitlines()) <= 1
    assert "Traceback" not in err


class _Discard:
    """A stdout that keeps nothing it is given."""

    def write(self, text):
        pass


def test_braid_memory_per_chord_is_small(tmp_path):
    # tracemalloc counts allocations, not time, so the figure is deterministic.
    # The parsed chords cost about 250 bytes each; holding every transition's
    # leading and word as well costs about 1 KB per chord.
    def peak(chords):
        path = tmp_path / f"{chords}.prog"
        path.write_text("\n".join(["Cmaj7", "A-7", "D-9", "G13b9", "F#o7"] * (chords // 5)) + "\n")
        tracemalloc.start()
        try:
            assert run(["braid", "--file", str(path)], out=_Discard()) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5)  # first-call caches are not a per-chord cost
    assert (peak(20_000) - peak(5_000)) / 15_000 < 500
