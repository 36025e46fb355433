"""The benchmark's modules, loaded by their paths for the tests that check against them.

The modules of ``bench/`` import each other by name, so each is registered in
``sys.modules`` under that name, and a module is loaded after those it imports.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    """A module of bench/, loaded by its path."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load("oracle")
inputs = load("inputs")  # imports oracle
