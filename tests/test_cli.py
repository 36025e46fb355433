"""Command-line interface: golden outputs, formats and exit codes."""

import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import modalkit
from modalkit import cli, leading
from modalkit.cli import run
from modalkit.pitch import ChordQuality

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

# The UTF-8 byte-order mark.
BOM = b"\xef\xbb\xbf"

# More digits than int() converts by default (4,300).
HUGE = "0" * 5000


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
        (["braid", "--file", str(DATA / "peru.prog")], "braid_peru.txt"),
        (["braid", "--file", str(DATA / "peru.prog"), "--ascii"], "braid_peru_ascii.txt"),
        (["approx", "--target", "11,0,2,3,5,6,8,9", "--quality", "7", "--root", "B"],
         "approx_peru.txt"),
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


ROOTS = ("C", "Db", "D", "Eb", "E", "F", "F#", "G", "Ab", "A", "Bb", "B")
SCALES = ("major", "melodic-minor", "harmonic-minor")
# Every table verb on every scale, degree, quality and root, and approx on three targets.
TABLE_SWEEP = [
    *(["modes", "--scale", s, "--root", root] for s in SCALES for root in ROOTS),
    *(["harmonize", "--scale", s, *degree] for s in SCALES
      for degree in [[], *(["--degree", str(d)] for d in range(1, 8))]),
    ["tcm", "--all"],
    *([verb, f"--quality={q.symbol}"] for verb in ("tcm", "admissible", "special")
      for q in ChordQuality),
    *(["approx", "--target", target, f"--quality={q.symbol}", "--root", root]
      for target in ("0", "11,0,2,3,5,6,8,9", ",".join(map(str, range(12))))
      for q in ChordQuality for root in ROOTS),
]


def test_csv_fields_need_no_quoting():
    # so the CSV writer joins each row's fields with commas: no field holds a comma, a
    # quote or a line break, and none is empty, so csv.DictWriter writes the same bytes
    fields = 0
    for argv in TABLE_SWEEP:
        code, out, err = capture([*argv, "--format", "json"])
        assert (code, err) == (0, ""), argv
        rows = json.loads(out) if out else []
        for value in (value for row in rows for value in row.values()):
            assert value and not {",", '"', "\r", "\n"} & set(value), (argv, value)
            fields += 1
        written = io.StringIO()
        if rows:
            writer = csv.DictWriter(written, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert capture([*argv, "--format", "csv"]) == (0, written.getvalue(), ""), argv
    assert (len(TABLE_SWEEP), fields) == (334, 8_411)


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


def test_graph_root_needs_dot():
    code, out, err = capture(["graph", "--quality", "7", "--root", "F#"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "modalkit: error: --root needs --dot"
    code, out, _ = capture(["graph", "--root", "F#", "--quality", "7", "--dot"])
    assert code == 0 and '"F#" -> ' in out


def test_unrecognized_arguments_are_quoted():
    code, out, err = capture(["tcm", "--all", "a\nb", "--bogus"])
    assert code == 2 and out == ""
    assert err.endswith("\nmodalkit: error: unrecognized arguments: 'a\\nb' '--bogus'\n")


PREFIXES = [
    (["tcm", "--al"], "modalkit tcm: error: one of the arguments --quality --all is required"),
    (["tcm", "--all", "--form", "json"], "modalkit: error: unrecognized arguments: '--form' 'json'"),
    (["special", "--quality", "7", "--paper"], "modalkit: error: unrecognized arguments: '--paper'"),
    (["modes", "--scale", "major", "--ro", "C"],
     "modalkit modes: error: the following arguments are required: --root"),
    (["tcm", "--=a\nb"], "modalkit tcm: error: one of the arguments --quality --all is required"),
]


@pytest.mark.parametrize("argv, last", PREFIXES, ids=[repr(" ".join(argv)) for argv, _ in PREFIXES])
def test_option_prefixes_are_usage_errors(argv, last):
    # an option is read only by its whole name, so no prefix is expanded to one
    code, out, err = capture(argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == last


# Run in a fresh interpreter: the modules named here that this process has
# already loaded must not be among those that importing modalkit.cli adds, and
# then a well-formed run of every verb, each argv given as its tab-joined tokens.
# .github/workflows/tests.yml runs the same check on the installed package.
STARTUP_CHECK = (
    "import io, sys; before = set(sys.modules); import modalkit.cli\n"
    "print(*sorted(set(sys.modules) - before))\n"
    "for argv in sys.argv[1:]:\n"
    "    assert modalkit.cli.run(argv.split('\\t'), out=io.StringIO()) == 0, argv\n"
    "print(*sorted(set(sys.modules) - before))"
)
# One well-formed argv per verb, with every form of option that the reader takes.
WELL_FORMED = [
    ["modes", "--scale", "major", "--root", "C"],
    ["harmonize", "--scale", "major", "--degree", "2", "--format", "csv"],
    ["decompose", "--notes", "0,2,4,5,7,9,11", "--root", "0"],
    ["graph", "--quality", "o7", "--dot", "--root=Bb"],
    ["tcm", "--quality=-7b5", "--format=json"],
    ["admissible", "--quality", "7"],
    ["special", "--quality", "7", "--paper-compat"],
    ["braid", "--file", str(DATA / "peru.prog"), "--ascii"],
    ["approx", "--target", "0,2,4", "--quality", "7", "--root", "C"],
]


def test_cli_start_up_imports_only_what_every_verb_needs():
    command, env = cli_command([])
    imported, ran = subprocess.run(
        [sys.executable, "-c", STARTUP_CHECK, *map("\t".join, WELL_FORMED)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    # numbers, fractions and decimal too: an integer is what operator.index reads
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "csv", "numbers",
                "fractions", "decimal"} & set(imported.split())
    # bench/workloads.py:library() reads every layer from sys.modules after `import modalkit`
    layers = ("pitch", "modes", "graph", "approximate", "leading", "braid", "errors", "cli")
    assert {f"modalkit.{layer}" for layer in layers} <= set(imported.split())
    # a well-formed argv is read without argparse, which imports gettext and locale,
    # and the CSV format is written without csv
    assert [verb for verb, *_ in WELL_FORMED] == list(cli._VERBS)
    assert not {"argparse", "gettext", "locale", "csv"} & set(ran.split())
    # and argparse still prints the help
    proc = run_subprocess(["--help"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: modalkit [-h]")


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
        for token in ("1_0", "+3", "\u0663", HUGE):
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
        # the position counts into the text after a byte-order mark, where a second mark
        # is a character
        (BOM + b"Cmaj7\n\xff\xfeG7\n", "not UTF-8 text; bad byte (at position 6)"),
        (BOM + BOM + b"C\xff\n", "not UTF-8 text; bad byte (at position 2)"),
        (BOM, "no chords"),
    ],
    ids=["empty", "comment-only", "not-utf8", "not-utf8-after-multibyte", "not-utf8-after-a-mark",
         "not-utf8-after-two-marks", "a-mark-alone"],
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


@pytest.mark.parametrize("flags", [[], ["--ascii"]], ids=["plain", "ascii"])
def test_braid_reads_a_file_with_a_byte_order_mark_as_one_without(flags, tmp_path):
    # Windows editors save UTF-8 with a byte-order mark, which is no part of the text
    path = tmp_path / "marked.prog"
    path.write_bytes(BOM + (DATA / "peru.prog").read_bytes())
    code, out, err = capture(["braid", "--file", str(path), *flags])
    assert (code, err) == (0, "")
    assert out == capture(["braid", "--file", str(DATA / "peru.prog"), *flags])[1]


@pytest.mark.parametrize(
    "argv, flag",
    [(["decompose", "--root", "0"], "--notes"), (["approx", "--quality", "7", "--root", "B"], "--target")],
    ids=["decompose", "approx"],
)
@pytest.mark.parametrize(
    "token",
    ["", " , ", "x", "0,x", "12", "-1", "0,-1", "0,1_1", pytest.param(HUGE, id="5000-digits")],
)
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


# A program that ends in main, as the console script does.
MAIN = "from modalkit.cli import main\nmain()\n"
BROKEN_PIPE = "BrokenPipeError: [Errno 32] Broken pipe\n"


def buffered_env():
    """The environment of a spawned CLI whose stdout is block-buffered, as in a shell."""
    _, env = cli_command([])
    env.pop("PYTHONUNBUFFERED", None)
    return env


def spawn_on_a_closed_pipe(args, env, stderr_too=False):
    """Run python with args, its stdout a pipe whose reader has gone; (exit code, stderr),
    or with ``stderr_too`` its stderr such a pipe as well and the exit code alone."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, *args], stdout=write,
                              stderr=write if stderr_too else subprocess.PIPE, env=env)
    finally:
        os.close(write)
    return proc.returncode if stderr_too else (proc.returncode, proc.stderr.decode())


LAUNCHES = pytest.mark.parametrize(
    "launch", [["-m", "modalkit.cli"], ["-c", MAIN]], ids=["module", "main"]
)
# a verb's output, and help, which argparse prints into the text that run writes
OUTPUTS = (["tcm", "--all"], ["--help"])


# with stderr dead too, the error line is dropped and the code kept
BOTH_DEAD = ((["tcm", "--all"], 1), (["--help"], 1), (["braid", "--file", "/nonexistent"], 1),
             (["tcm", "--bogus"], 2))


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@LAUNCHES
def test_a_closed_pipe_on_stdout_is_exit_1_and_one_line(launch, unbuffered):
    # buffered, the text is written only when main flushes stdout, after run returned 0
    env = buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in OUTPUTS:
        assert spawn_on_a_closed_pipe([*launch, *argv], env) == (1, BROKEN_PIPE), argv
    for argv, code in BOTH_DEAD:
        assert spawn_on_a_closed_pipe([*launch, *argv], env, stderr_too=True) == code, argv


class _BrokenPipe:
    """A stream on a pipe whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("argv", [["tcm", "--all"], ["--help"], ["braid", "--help"]])
def test_help_fails_on_a_broken_stdout_as_a_verb_does(argv):
    err = io.StringIO()
    assert run(argv, out=_BrokenPipe(), err=err) == 1
    assert err.getvalue() == BROKEN_PIPE


@pytest.mark.parametrize(
    "argv, code",
    [(["tcm", "--bogus"], 2), (["braid", "--file", str(DATA / "missing.prog")], 1)],
    ids=["usage-error", "domain-error"],
)
def test_a_broken_stderr_drops_the_error_and_keeps_the_code(argv, code):
    out = io.StringIO()
    assert run(argv, out=out, err=_BrokenPipe()) == code
    assert out.getvalue() == ""


def spawn_without(fd, args):
    """Run python with args, started with ``fd`` closed, as a shell's ``>&-`` or ``2>&-``
    leaves it; (exit code, the other of stdout and stderr)."""
    _, env = cli_command([])
    proc = subprocess.run(["sh", "-c", f'exec "$@" {fd}>&-', "sh", sys.executable, *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr if fd == 1 else proc.stdout


@pytest.mark.parametrize("argv", OUTPUTS, ids=["tcm", "help"])
@LAUNCHES
def test_a_closed_stdout_is_exit_1_and_one_line(launch, argv):
    # Python starts with sys.stdout None, and run's first write fails
    assert spawn_without(1, [*launch, *argv]) == (1, "OSError: [Errno 9] Bad file descriptor\n")


@LAUNCHES
def test_a_usage_error_with_stderr_closed_is_exit_2(launch):
    # the usage text is dropped, and nothing goes to stdout in its place
    assert spawn_without(2, [*launch, "tcm", "--bogus"]) == (2, "")


def test_under_a_profiler_or_tracer_a_closed_pipe_on_stdout_is_one_line():
    env = buffered_env()
    # a tracer, as coverage or a debugger sets, lets main's sys.exit end the process
    traced = "import sys\nsys.settrace(lambda *args: None)\n" + MAIN
    assert spawn_on_a_closed_pipe(["-c", traced, "tcm", "--all"], env) == (1, BROKEN_PIPE)
    # cProfile writes its report to the same pipe, and its exit code is its own
    profiled = ["-m", "cProfile", "-m", "modalkit.cli", "tcm", "--all"]
    assert spawn_on_a_closed_pipe(profiled, env)[1] == BROKEN_PIPE


def test_main_runs_the_atexit_callbacks_and_flushes_what_they_write():
    program = (
        "import atexit, sys\n"
        "atexit.register(lambda: sys.stdout.write('stdout at exit'))\n"
        "atexit.register(lambda: sys.stderr.write('stderr at exit\\n'))\n"
    ) + MAIN
    proc = subprocess.run([sys.executable, "-c", program, "tcm", "--all"], capture_output=True,
                          text=True, env=buffered_env())
    assert (proc.returncode, proc.stderr) == (0, "stderr at exit\n")
    assert proc.stdout == (GOLDEN / "tcm_all.txt").read_text() + "stdout at exit"


@pytest.mark.parametrize(
    "tool, report",
    [(["-m", "cProfile", "-m"], "function calls"),
     (["-m", "trace", "--listfuncs", "--module"], "functions called:")],
    ids=["cProfile", "trace"],
)
def test_a_profiler_or_tracer_still_prints_its_report(tool, report):
    proc = subprocess.run([sys.executable, *tool, "modalkit.cli", "tcm", "--all"],
                          capture_output=True, text=True, env=buffered_env())
    golden = (GOLDEN / "tcm_all.txt").read_text()
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(golden)
    assert report in proc.stdout[len(golden):]


class _Discard:
    """A stdout that keeps nothing it is given."""

    def write(self, text):
        pass


def test_braid_memory_per_chord_is_small(tmp_path):
    # tracemalloc counts allocations, not time, so the figure is deterministic.
    # The verb streams its file, so what grows with it is the decoded text,
    # about the file's own bytes per chord.  Holding the parsed chords as well
    # costs about 150 bytes per chord.  Both sizes exceed one parser block.
    def peak(chords):
        path = tmp_path / f"{chords}.prog"
        path.write_text("\n".join(["Cmaj7", "A-7", "D-9", "G13b9", "F#o7"] * (chords // 5)) + "\n")
        tracemalloc.start()
        try:
            assert run(["braid", "--file", str(path)], out=_Discard()) == 0
            return tracemalloc.get_traced_memory()[1], path.stat().st_size
        finally:
            tracemalloc.stop()

    peak(5)  # first-call caches are not a per-chord cost
    (small, small_bytes), (large, large_bytes) = peak(14_000), peak(28_000)
    assert small_bytes > leading._BLOCK
    file_bytes_per_chord = (large_bytes - small_bytes) / 14_000
    assert (large - small) / 14_000 < 2 * file_bytes_per_chord


# The error contract under fuzzing.  No drawn token holds a NUL: execve cannot
# pass one in argv, and open() rejects one in a path with a ValueError of its own.

FILE, MISSING = "<file>", "<missing>"
# Valid and invalid values: notes, qualities, scales, integers, pitch-class lists, formats.
NOTES = (["C", "F#", "Bb", "E#", "Cb"], ["H", "\u266f", "C\u266f", "c"])
QUALITIES = ([q.symbol for q in ChordQuality], ["maj9", "\u00f87"])
SCALES = (["major", "melodic-minor", "harmonic-minor"], ["dorian", "Major"])
DEGREES = (["1", "4", "7"], ["0", "8", "-1", "1_0", "+3", "\u0663"])
ROOTS = (["0", "5", "11"], ["12", "-1", "1_0", "+3", "\u0663"])
PCS = (["0,4,7", "0,2,4,5,7,9,11", "11,0,2,3,5,6,8,9", "0,1,2,3,4,5,6", "0,0,4"], ["0,x", " , ", "12"])
FORMATS = (["plain", "csv", "json"], ["xml"])
# Each verb's options and the values each is tried with; None marks a switch.
OPTIONS = {
    "modes": {"--scale": SCALES, "--root": NOTES, "--format": FORMATS},
    "harmonize": {"--scale": SCALES, "--degree": DEGREES, "--format": FORMATS},
    "decompose": {"--notes": PCS, "--root": ROOTS},
    "graph": {"--quality": QUALITIES, "--root": NOTES, "--dot": None},
    "tcm": {"--quality": QUALITIES, "--all": None, "--format": FORMATS},
    "admissible": {"--quality": QUALITIES, "--format": FORMATS},
    "special": {"--quality": QUALITIES, "--paper-compat": None, "--format": FORMATS},
    # --file only ever names the file that the test writes, or one that is missing
    "braid": {"--file": ([FILE, MISSING], None), "--ascii": None},
    "approx": {"--target": PCS, "--quality": QUALITIES, "--root": NOTES, "--format": FORMATS},
}
DIGIT_RUNS = st.integers(4290, 4310).map(lambda n: "1" * n)
ODD_VALUES = st.one_of(
    st.sampled_from(["", " ", "\t", "\n"]),
    DIGIT_RUNS,
    # junk without "/", so that it never names a path
    st.text(st.characters(blacklist_characters="\x00/"), max_size=4),
    # option-like junk, such as '--=a\nb'
    st.text(st.sampled_from("-=a\n"), max_size=5),
)
FLAGS = sorted({flag for options in OPTIONS.values() for flag in options} - {"--file"} | {"-h"})
STRAY = st.one_of(st.sampled_from(FLAGS + NOTES[0] + ROOTS[0]), ODD_VALUES)


def option(flag, values, odd):
    """One option as argv tokens: a switch, ``flag value`` or ``flag=value``.

    When odd, the option may be absent and its value invalid or junk; the
    value of --file never is.
    """
    if values is None:
        return st.sampled_from([[], [flag]])
    good, bad = values
    value = st.sampled_from(good)
    if odd and flag != "--file":
        value = st.one_of(value, st.sampled_from(bad), ODD_VALUES)
    forms = [value.map(lambda v: [flag, v]), value.map(lambda v: [f"{flag}={v}"])]
    return st.one_of(st.just([]), *forms) if odd else st.one_of(*forms)


def verb_argv(verb, options, odd):
    parts = [option(f, v, odd) for f, v in options.items()]
    if odd:
        parts.append(st.lists(STRAY, max_size=1))
    return st.tuples(*parts).map(lambda parts: [verb, *(token for part in parts for token in part)])


# Each verb comes once with valid values only, so that exit 0 and exit 1 are
# reached, and once with absent options, invalid or junk values and a stray token.
ARGV = st.one_of(
    *(verb_argv(verb, options, odd=False) for verb, options in OPTIONS.items()),
    *(verb_argv(verb, options, odd=True) for verb, options in [*OPTIONS.items(), ("junk", {})]),
)
GOOD_LINES = st.sampled_from(["Cmaj7", "F#o7", "G13b9", "Cb-7", "x: 0,4,7", "x: 0,0,4", "# c", ""])
BAD_LINES = st.one_of(st.sampled_from(["Hm7", "C", "x: 0,"]), DIGIT_RUNS.map("x: 0,{}".format))
CONTENT = st.one_of(
    st.binary(max_size=64),
    st.lists(GOOD_LINES, max_size=6).map("\n".join).map(str.encode),
    st.lists(st.one_of(GOOD_LINES, BAD_LINES), max_size=6).map("\n".join).map(str.encode),
)


@given(ARGV, CONTENT)
@example(["braid", "--file", FILE], f"x: 0,{HUGE}".encode())
@example(["decompose", "--notes", "0,2,4,5,7,9,11", "--root", HUGE], b"")
@example(["harmonize", "--scale", "major", f"--degree={HUGE}"], b"")
@example(["approx", "--target", f"0,{HUGE}", "--quality", "7", "--root", "B"], b"")
@example(["tcm", "--all", "a\nb"], b"")
@example(["graph", "--quality", "7", "--root", "F#"], b"")
@example(["tcm", "--=a\nb"], b"")
def test_every_argv_ends_in_exit_0_1_or_2(argv, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "song.prog")
        path.write_bytes(content)
        missing = str(Path(tmp, "missing.prog"))
        code, _, err = capture([t.replace(FILE, str(path)).replace(MISSING, missing) for t in argv])
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    elif code == 1:
        assert re.fullmatch(r"[A-Z]\w*: [^\n]+\n", err)
    else:
        # the usage, then the error on one last line
        assert re.search(r"(\A|\n)modalkit( \w+)?: error: [^\n]+\n\Z", err)
        assert "adapter" not in err  # the usage error names no internal function


# The reader against argparse.  An argv that cli._read takes, argparse reads to
# the same fields, with nothing left over; run gives any other to argparse.


def read_as_argparse_does(argv):
    """Whether cli._read takes argv; argparse must read an argv it takes the same."""
    args = cli._read(argv)
    if args is not None:
        parsed, extra = cli.build_parser().parse_known_args(argv)
        assert extra == [] and vars(parsed) == vars(args)
    return args is not None


READS = [
    # a value that starts with a dash is taken after "=" alone
    (["special", "--quality=-7b5"], True),
    (["special", "--quality", "-7b5"], False),
    (["decompose", "--notes", "0,4,7", "--root", "-1"], False),
    (["graph", "--quality", "7", "--root", "-1", "--dot"], False),
    (["braid", "--file="], True),
    (["braid", "--file", ""], True),
    (["braid", "--file", "a=b", "--ascii"], True),
    (["braid", "--file"], False),
    # a flag takes no value
    (["graph", "--quality", "7", "--dot=1"], False),
    (["graph", "--quality", "7", "--dot="], False),
    # an option comes once, by its whole name
    (["tcm", "--all", "--all"], False),
    (["modes", "--scale", "major", "--root", "C", "--root=D"], False),
    (["tcm", "--all", "--form", "json"], False),
    (["tcm", "--all", "--format=json=x"], False),
    (["tcm", "--all", "--"], False),
    (["tcm", "--", "--all"], False),
    (["modes", "--scale", "major", "-h", "--root", "C"], False),
    (["tcm", "--all", "extra"], False),
    # tcm takes exactly one of --quality and --all
    (["tcm", "--quality", "7", "--all"], False),
    (["tcm", "--format", "json"], False),
    (["tcm", "--quality", "7"], True),
    # graph's --root comes with --dot
    (["graph", "--quality", "7", "--root", "C"], False),
    (["graph", "--root", "C", "--quality", "7", "--dot"], True),
    (["harmonize", "--scale", "major", "--degree", "8"], False),
    (["harmonize", "--scale", "major", "--degree=7"], True),
    (["modes", "--scale", "major"], False),
    (["modes", "--scale", "major", "--root", "H"], False),
    (["--help"], False),
    ([], False),
    (["tmc", "--all"], False),
]


@pytest.mark.parametrize("argv, read", READS, ids=[repr(" ".join(argv)) for argv, _ in READS])
def test_the_reader_takes_only_what_argparse_reads_the_same(argv, read):
    assert read_as_argparse_does(argv) is read


@given(ARGV)
@example(["tcm", "--quality=-7b5", "--format=csv"])
@example(["special", "--format", "json", "--paper-compat", "--quality", "maj7"])
def test_the_reader_agrees_with_argparse_on_fuzzed_argv(argv):
    read_as_argparse_does(argv)


def test_huge_integers_print_no_traceback(tmp_path):
    path = tmp_path / "huge.prog"
    path.write_text(f"x: 0,{HUGE}\n")
    for argv, code, last in (
        (["braid", "--file", str(path)], 1,
         f"ParseError: bad pitch class {HUGE!r} on line 1 (at position 5)"),
        (["decompose", "--notes", "0,2,4,5,7,9,11", "--root", HUGE], 2,
         f"argument --root: bad integer {HUGE!r}"),
    ):
        proc = run_subprocess(argv)
        assert proc.returncode == code and "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].endswith(last)
