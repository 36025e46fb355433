"""Spans around the public functions of every modalkit layer, installed from outside.

A span is (name, start, end, parent span).  Spans are kept in flat arrays
while the traced code runs and written out as TSV at the end; read() derives
self times from such a file.  Self time is a span's duration minus the time
its child spans cover.

Wrappers replace the function object in every modalkit module that holds it,
because ``from .modes import standard_modes`` copies the binding into the
importing module (``graph.standard_modes``, the approximate module's
``build_graph`` and so on).  ``modalkit.approximate`` is the function that the
package re-exports, so modules are looked up in ``sys.modules``.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("pitch", "modes", "graph", "approximate", "leading", "braid", "cli")

# Tiny arithmetic helpers called from inner loops: their time stays with the caller.
UNTRACED = {"pitch.pc", "pitch.pc_name", "leading.arc_distance", "cli.main", "cli.run"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.nid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span called name."""
        nid = self._id(name)
        stack = self.stack
        nids, starts, ends, parents = self.nid, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            sid = len(nids)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def run_op(self, fn, *args):
        """Call fn(*args) as one op, under a root span named "op"."""
        return self.span("op", fn)(*args)

    def install(self):
        """Wrap every public function of every layer, in every module that binds it."""
        modules = {name: importlib.import_module(f"modalkit.{name}") for name in LAYERS}
        modules["modalkit"] = sys.modules["modalkit"]
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[fn] = self.span(name, fn)
        self.patches = [
            (mod, attr, value, wrappers[value])
            for mod in modules.values()
            for attr, value in vars(mod).items()
            if isinstance(value, types.FunctionType) and value in wrappers
        ]
        word = modules["braid"].BraidWord
        self.patches.append((word, "__post_init__", word.__post_init__,
                             self._counting(word.__post_init__)))
        self.enable()

    def enable(self):
        for owner, attr, _original, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original, _wrapper in self.patches:
            setattr(owner, attr, original)

    def _counting(self, check):
        """BraidWord validation that counts the letters it validates."""
        counters = self.counters

        def counted(word):
            counters["braid.validated_letters"] += len(word.letters)
            return check(word)

        return counted

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"#counters\t{json.dumps(self.counters)}\n")
            f.write("name\tstart_ns\tend_ns\tparent\n")
            for sid, nid in enumerate(self.nid):
                f.write(f"{self.names[nid]}\t{self.start[sid]}\t{self.end[sid]}"
                        f"\t{self.parent[sid]}\n")


def read(path):
    """({name: [calls, self ns, total ns]}, counters) of a file written by Tracer.write."""
    names, durations, parents = [], [], []
    with open(path, encoding="utf-8") as f:
        counters = json.loads(next(f).split("\t", 1)[1])
        next(f)
        for line in f:
            name, start, end, parent = line.split("\t")
            names.append(name)
            durations.append(int(end) - int(start))
            parents.append(int(parent))
    child = [0] * len(names)
    for duration, parent in zip(durations, parents):
        if parent >= 0:
            child[parent] += duration
    times: dict[str, list[int]] = {}
    for name, duration, covered in zip(names, durations, child):
        entry = times.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += duration - covered
        entry[2] += duration
    return times, counters
