"""Worker process: set up one workload, then measure it.

Run by bench/run.py, never by hand:

    python bench/workloads.py --workload W --seed N --seconds S --trace 0|1
                              --role setup|measure --work DIR

The worker prints JSON lines.  The first, ``{"ready": t}``, comes when set-up
is done (imports, input generation, warm-up) and gives the moment on the
system-wide monotonic clock, so the parent can time set-up from spawn to ready.
With ``--role setup`` the worker then exits.  With ``--role measure`` it goes
on to run whole rounds over all its inputs until the next round would end
after ``--seconds``, and prints its raw record last.  Each input's latency is
the median of its checked runs, at the reference speed of speed.py.  A traced run repeats the
first pass only, so the exact counts it reports are the same for a given seed
however many rounds fit.

catalog and songs call the library in this process; cli_short and
cli_braid_long spawn ``python -m modalkit.cli`` once per op, serially.  Only
ops whose outputs pass the independent checks in oracle.py are timed; every op
is counted in attempted, and every op that raised, exited non-zero or printed
a wrong answer in failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import inputs
import oracle
import speed
from spans import Tracer, read

BENCH = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 60
SPAWN_CHUNKS = 3  # speed.py chunks on each side of a spawn; this process has just been idle
WARMUP_OPS = 3


class Record:
    """What one measured phase saw; times are at the reference speed."""

    def __init__(self):
        self.runs_ms: dict[int, list[float]] = {}  # input -> its runs that passed their checks
        self.sizes: dict[int, int] = {}  # input -> chords (0 when not a progression)
        self.attempted = 0
        self.checked = 0
        self.failed = 0
        self.unexpected = 0  # failures not explained by the known '#' misparse
        self.all_ms = 0.0  # every attempted run, for the tracing overhead
        self.raw_ms = 0.0  # the same, as measured
        self.letters = 0  # braid letters in checked outputs
        self.output_bytes = 0  # stdout bytes of checked CLI runs
        self.examples: list[str] = []

    def add(self, key, raw_ms, factor, error, size=0, letters=0, expected_failure=False):
        ms = raw_ms * factor
        self.attempted += 1
        self.all_ms += ms
        self.raw_ms += raw_ms
        if error is None:
            self.checked += 1
            self.runs_ms.setdefault(key, []).append(ms)
            self.sizes[key] = size
            self.letters += letters
            return
        self.failed += 1
        if not expected_failure:
            self.unexpected += 1
        if len(self.examples) < 3:
            self.examples.append(error)

    def summary(self):
        """The counts, and per timed input its latency (median run) and size."""
        keys = sorted(self.runs_ms)
        out = {k: v for k, v in vars(self).items() if k != "runs_ms"}
        return dict(out, latency_ms=[median(self.runs_ms[k]) for k in keys],
                    sizes=[self.sizes[k] for k in keys])


def run_rounds(items, run_one, seconds):
    """Run run_one(index, item) over all items, in whole rounds, until the
    next round would end after `seconds`; the number of rounds run."""
    measured = 0.0
    rounds = 0
    while True:
        t = time.perf_counter()
        for key, item in enumerate(items):
            run_one(key, item)
        rounds += 1
        took = time.perf_counter() - t
        measured += took
        if measured + took > seconds:
            return rounds


def untraced(workload, seconds, rusage_who):
    plain = Record()
    rounds = run_rounds([item for p in workload.passes for item in p],
                        lambda key, item: workload.call(key, item, plain), seconds)
    return {"record": plain.summary(), "rounds": rounds,
            "peak_rss_kb": resource.getrusage(rusage_who).ru_maxrss}


# ------------------------------------------------------------ in-process


def library():
    import modalkit  # noqa: F401  (the package import is part of set-up)

    return {name: sys.modules[f"modalkit.{name}"]
            for name in ("modes", "graph", "approximate", "leading", "braid")}


def catalog_op(lib, q):
    """One composed theory question; module attributes are looked up per call."""
    modes, graph = lib["modes"], lib["graph"]
    scale = modes.ScaleType.from_label(q.scale)
    quality = graph.ChordQuality.from_symbol(q.quality)
    mode = modes.standard_modes(scale, q.root)[q.degree - 1]
    dec = modes.decompose(mode)
    rec = modes.recompose(dec.base, dec.tension, mode.root)
    harm = [modes.harmonize(scale, d) for d in range(1, 8)]
    g = graph.build_graph(quality)
    tau = graph.tcm(quality)
    adm = graph.enumerate_admissible(g)
    spec = graph.special_modes(quality)
    ranked = lib["approximate"].approximate(q.target, quality, q.approx_root)
    found = graph.find_mode_by_name(q.name)
    dot = graph.emit_dot(g, q.dot_root)
    return mode, dec, rec, harm, g, tau, adm, spec, ranked, found, dot


def songs_op(lib, song):
    """Progression text to checked braid words, the README pipeline."""
    leading, braid = lib["leading"], lib["braid"]
    prog = leading.parse_progression(song.text)
    words = leading.braids_of_progression(prog)
    sers = [braid.serialize_word(w) for w in words]
    joined = leading.braid_of_progression(prog)
    inv = braid.invariants(joined)
    reduced = braid.free_reduce(joined)
    back = [braid.parse_word(s, oracle.STRANDS) for s in sers]
    return prog, words, sers, joined, inv, reduced, back


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"[:200]


def _check_catalog(query, out):
    oracle.check_catalog_op(query, out)
    return 0, 0


def _check_song(song, out):
    return oracle.check_song_op(song, out), song.size


# workload: (input generator, op, check returning (braid letters, chords))
IN_PROCESS = {
    "catalog": (inputs.catalog, catalog_op, _check_catalog),
    "songs": (inputs.songs, songs_op, _check_song),
}


class InProcess:
    def __init__(self, name, seed, work):
        self.name = name
        self.work = work
        self.lib = library()
        make, self.op, self.check = IN_PROCESS[name]
        self.passes = make(seed)
        for item in self.passes[0][:WARMUP_OPS]:
            self.call(0, item, Record())

    def call(self, key, item, record, run=lambda fn, *a: fn(*a)):
        before = speed.chunk_ms()
        t0 = time.perf_counter()
        try:
            out, error = run(self.op, self.lib, item), None
        except Exception as exc:  # the op's failure is a result, not a harness error
            out, error = None, _describe(exc)
        ms = (time.perf_counter() - t0) * 1e3
        factor = speed.factor(before, speed.chunk_ms())
        letters = size = 0
        if error is None:
            try:
                letters, size = self.check(item, out)
            except Exception as exc:  # a wrong or malformed output
                error = _describe(exc)
        record.add(key, ms, factor, error, size, letters,
                   expected_failure=getattr(item, "sharp", False))  # the known '#' misparse

    def measure(self, seconds, trace):
        if not trace:
            return untraced(self, seconds, resource.RUSAGE_SELF)
        plain = Record()
        tracer = Tracer()
        tracer.install()
        traced = Record()

        def both(key, item):
            # untraced, then traced, op by op, so both see the same machine
            tracer.disable()
            self.call(key, item, plain)
            tracer.enable()
            self.call(key, item, traced, tracer.run_op)

        rounds = run_rounds(self.passes[0], both, seconds)
        tracer.disable()
        spans_file = Path(self.work) / f"spans-{self.name}.tsv"
        tracer.write(spans_file)
        layers, counters = read(spans_file)
        return {"record": plain.summary(), "traced": traced.summary(), "rounds": rounds,
                "layers": layers, "counters": counters}


# ------------------------------------------------------------------- CLI


def spawn(argv):
    """Run argv to completion; (wall ms, its factor to the reference speed, completed process).

    The child inherits PYTHONPATH=src from the environment bench/run.py gives
    this worker.
    """
    before = speed.chunk_ms(SPAWN_CHUNKS)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, timeout=CLI_TIMEOUT_S)
    ms = (time.perf_counter() - t0) * 1e3
    return ms, speed.factor(before, speed.chunk_ms(SPAWN_CHUNKS)), proc


class Cli:
    def __init__(self, name, seed, work):
        self.name = name
        self.work = Path(work)
        make = inputs.cli_short if name == "cli_short" else inputs.cli_braid_long
        self.passes = make(seed, lambda k: str(self.work / f"{name}-{k}.prog"))
        for p in self.passes:
            for cmd in p:
                if cmd.song is not None:
                    Path(cmd.file).write_text(cmd.song.text)
        warm = inputs.CliCommand("tcm", {"all": True}, ["tcm", "--all"])
        self.call(0, warm, Record())

    def argv(self, cmd, spans_file=None):
        if spans_file is None:
            return [sys.executable, "-m", "modalkit.cli", *cmd.argv]
        return [sys.executable, str(BENCH / "traced_cli.py"), str(spans_file), *cmd.argv]

    def call(self, key, cmd, record, spans_file=None):
        ms, factor, proc = spawn(self.argv(cmd, spans_file))
        expected = cmd.song is not None and cmd.song.sharp
        size = cmd.song.size if cmd.song is not None else 0
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            record.add(key, ms, factor, f"exit {proc.returncode}: {err[-1] if err else ''}"[:200],
                       expected_failure=expected)
            return
        try:
            text = proc.stdout.decode("utf-8")
            if cmd.verb == "braid":
                letters = oracle.check_braid_stdout(text, cmd.song.chords, cmd.ascii)
            else:
                oracle.expect(text == oracle.cli_stdout(cmd), f"stdout of {' '.join(cmd.argv)}")
                letters = 0
        except Exception as exc:  # a wrong or malformed output
            record.add(key, ms, factor, _describe(exc), expected_failure=expected)
            return
        record.output_bytes += len(proc.stdout)
        record.add(key, ms, factor, None, size, letters)

    def measure(self, seconds, trace):
        if not trace:
            return untraced(self, seconds, resource.RUSAGE_CHILDREN)
        plain = Record()
        traced = Record()
        probes = {"pass": [], "import": []}
        layers: dict[str, list[int]] = {}
        counters: dict[str, int] = {}

        def one(key, cmd):
            for probe, code in (("pass", "pass"), ("import", "import modalkit.cli")):
                ms, factor, _proc = spawn([sys.executable, "-c", code])
                probes[probe].append(ms * factor)
            self.call(key, cmd, plain)
            spans_file = self.work / f"spans-{self.name}-{traced.attempted}.tsv"
            self.call(key, cmd, traced, spans_file)
            times, counts = read(spans_file)
            for name, value in times.items():
                entry = layers.setdefault(name, [0, 0, 0])
                for i, v in enumerate(value):
                    entry[i] += v
            for name, value in counts.items():
                counters[name] = counters.get(name, 0) + value

        rounds = run_rounds(self.passes[0], one, seconds)
        return {"record": plain.summary(), "traced": traced.summary(), "rounds": rounds,
                "layers": layers, "counters": counters,
                "probe_ms": {k: median(v) for k, v in probes.items()}}


WORKLOADS = {"catalog": InProcess, "songs": InProcess, "cli_short": Cli, "cli_braid_long": Cli}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run then kills and reaps a running CLI child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workload = WORKLOADS[args.workload](args.workload, args.seed, args.work)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.role == "measure":
        print(json.dumps(workload.measure(args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
