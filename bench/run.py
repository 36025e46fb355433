"""modalkit benchmark: one workload, one seed, every metric with its unit.

    python3 bench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is used from ``src/`` as it is
(nothing is installed).  See bench/README.md for the workloads, the metrics
and what each layer metric is expected to move.

With ``--trace 0`` the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` the metrics are the per-layer ones,
taken from a separate run with spans around every layer.  Latencies are per
input: the median of its checked runs.  Every time is scaled to the reference
speed of bench/speed.py; the provenance line gives the factor.  The lines
above the last give the same numbers for people, plus the failure share,
chords per second and the provenance of the run.  The exit code is non-zero only when the
harness itself fails; wrong outputs are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench-work"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
DEADLINE_S = 170
SETUP_RUNS = 5  # set-up-only workers timed before the measuring worker, and again after it
SETUP_CHUNKS = 5  # speed.py chunks timed before and after each set-up, for its factor

# Percentile reported as op_ms_tail: the highest with at least ten timed inputs
# beyond it (catalog 165 inputs, songs 112 of 128 at the seed, cli_short 36).
# cli_braid_long times only 6 of its 8 inputs at the seed, too few for ten
# beyond the median, so its tail is the median.
TAIL = {"catalog": 93, "songs": 90, "cli_short": 70, "cli_braid_long": 50}

WORKLOADS = tuple(TAIL)


def quantile(values, q):
    """Linear-interpolated q-quantile (0..1) of a non-empty list."""
    v = sorted(values)
    x = (len(v) - 1) * q
    lo = int(x)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (x - lo)


class Deadline(Exception):
    pass


def _alarm(_signum, _frame):
    raise Deadline


def worker_argv(args, role):
    return [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role, "--work", str(WORK / args.workload)]


def run_worker(args, role):
    """Run one worker to the end; (seconds from its spawn to ready, its later JSON lines).

    The set-up time is at the reference speed, from chunks timed just before
    the spawn and just after the worker ends.
    """
    before = speed.chunk_ms(SETUP_CHUNKS)
    t0 = time.monotonic()
    proc = subprocess.Popen(worker_argv(args, role), cwd=ROOT, env=ENV, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.terminate()  # the worker stops and waits for its own child on SIGTERM
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    factor = speed.factor(before, speed.chunk_ms(SETUP_CHUNKS))
    lines = [json.loads(line) for line in out.splitlines()]
    return (lines[0]["ready"] - t0) * factor, lines[1:]


def measure(args):
    """(the measuring worker's raw record, the set-up times seen).

    Set-up-only workers run before and after the measuring one, never at the
    same time as it, so their samples lie a run's length apart and no timed
    op competes with them.
    """
    setups = [run_worker(args, "setup")[0] for _ in range(SETUP_RUNS)]
    ready, (result,) = run_worker(args, "measure")
    setups.append(ready)
    setups += [run_worker(args, "setup")[0] for _ in range(SETUP_RUNS)]
    return result, setups


def growth(record):
    """Time per chord on the longest quarter of inputs over the shortest quarter."""
    pairs = sorted(zip(record["sizes"], record["latency_ms"]))
    if not pairs or pairs[0][0] == 0:
        return 0.0
    k = max(1, len(pairs) // 4)
    short, long_ = pairs[:k], pairs[-k:]

    def per_chord(group):
        return sum(ms for _n, ms in group) / sum(n for n, _ms in group)

    return per_chord(long_) / per_chord(short)


def chords_per_s(record):
    return 1e3 * sum(record["sizes"]) / sum(record["latency_ms"])


def end_to_end(workload, setups, result):
    lat = result["record"]["latency_ms"]
    return {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (1e3 * len(lat) / sum(lat), "op/s"),
        "op_ms_p50": (median(lat), "ms"),
        "op_ms_tail": (quantile(lat, TAIL[workload] / 100), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(result):
    rec, traced = result["record"], result["traced"]
    layers, counters = result["layers"], result["counters"]
    ops = traced["attempted"]

    def calls(*names):
        return sum(layers.get(n, (0, 0, 0))[0] for n in names) / ops

    def self_ms(*names, prefix=None):
        chosen = [n for n in layers if n.startswith(prefix)] if prefix else names
        return sum(layers.get(n, (0, 0, 0))[1] for n in chosen) / ops / 1e6

    def total_ms(*names):
        return sum(layers.get(n, (0, 0, 0))[2] for n in names) / ops / 1e6

    parse = ("pitch.parse_chord_symbol", "pitch.parse_note")
    probe = result.get("probe_ms", {})
    lat = rec["latency_ms"]
    metrics = {
        "pitch.parse.calls": (calls(*parse), "calls/op"),
        "pitch.parse.self_ms": (self_ms(*parse), "ms/op"),
        "modes.self_ms": (self_ms(prefix="modes."), "ms/op"),
        "modes.standard_modes_per_op": (calls("modes.standard_modes"), "calls/op"),
        "graph.self_ms": (self_ms(prefix="graph."), "ms/op"),
        "graph.build_graph_per_op": (calls("graph.build_graph"), "calls/op"),
        "approximate.self_ms": (self_ms(prefix="approximate."), "ms/op"),
        "leading.parse_progression.self_ms": (self_ms("leading.parse_progression"), "ms/op"),
        "leading.voice_leading.self_ms": (self_ms("leading.voice_leading"), "ms/op"),
        "leading.braid_of_leading.self_ms": (self_ms("leading.braid_of_leading"), "ms/op"),
        "leading.join.self_ms": (self_ms("leading.braid_of_progression"), "ms/op"),
        "braid.concatenate.self_ms": (self_ms("braid.concatenate"), "ms/op"),
        "braid.validated_letters_per_letter": (
            counters.get("braid.validated_letters", 0) / traced["letters"]
            if traced["letters"] else 0.0, "letters/letter"),
        "braid.invariants.self_ms": (self_ms("braid.invariants"), "ms/op"),
        "braid.serialize.self_ms": (self_ms("braid.serialize_word"), "ms/op"),
        "braid.parse_word.self_ms": (self_ms("braid.parse_word"), "ms/op"),
        "braid.render_ascii.self_ms": (self_ms("braid.render_ascii"), "ms/op"),
        "startup.interpreter_ms": (probe.get("pass", 0.0), "ms"),
        "startup.import_ms": (probe.get("import", 0.0) - probe.get("pass", 0.0), "ms"),
        "cli.argparse_ms": (total_ms("cli.build_parser", "cli.parse_args"), "ms/op"),
        "cli.compute_ms": (sum(lat) / len(lat) - probe["import"] if probe else 0.0, "ms/op"),
        "cli.output_bytes": (rec["output_bytes"] / rec["checked"], "bytes/op"),
        "pipeline.chords_per_s": (chords_per_s(rec), "chord/s"),
        "pipeline.us_per_chord_growth": (growth(rec), "ratio"),
        "trace.overhead_share": (traced["all_ms"] / rec["all_ms"] - 1, "ratio"),
        "failed_share": (rec["failed"] / rec["attempted"], "ratio"),
    }
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "modalkit" / "cli.py").is_file():
        sys.exit(f"bench: no modalkit sources under {ROOT / 'src'}")
    # Everything runs serially, so one CPU is enough.  On one CPU the speed.py
    # chunks share the core with the code they scale: the CPUs of a shared
    # host slow down independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Compile the package's bytecode once so no timed set-up pays for it.
    subprocess.run([sys.executable, "-c", "import modalkit.cli"], cwd=ROOT, env=ENV,
                   check=True, timeout=60)
    if args.trace:
        _ready, (result,) = run_worker(args, "measure")
        setups = []
    else:
        result, setups = measure(args)
    signal.alarm(0)
    rec = result["record"]
    if not rec["latency_ms"]:
        sys.exit(f"bench: no op passed its checks; first failures: {rec['examples']}")
    metrics = end_to_end(args.workload, setups, result) if not args.trace else per_layer(result)

    lat = rec["latency_ms"]
    tail_q = quantile(lat, TAIL[args.workload] / 100)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "rounds": result["rounds"],
        "reference_speed_factor": rec["all_ms"] / rec["raw_ms"],
        "ops_attempted": rec["attempted"], "ops_checked": rec["checked"],
        "inputs_timed": len(lat), "chords_timed": sum(rec["sizes"]),
        "letters": rec["letters"],
        "output_bytes": rec["output_bytes"],
        "tail_percentile": TAIL[args.workload],
        "tail_inputs_beyond": sum(1 for x in lat if x > tail_q),
        "setup_samples": len(setups),
        "failure_examples": rec["examples"],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:38} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'chords_per_s':38} {chords_per_s(rec):14.6g} chord/s")
        print(f"{'failed_share':38} {rec['failed'] / rec['attempted']:14.6g} ratio")
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": rec["unexpected"] == 0 and result.get("traced", rec)["unexpected"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
