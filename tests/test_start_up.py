"""Start-up: ``import modalkit`` runs no layer, and a verb runs only the layers it uses.

Each check that reads ``sys.modules`` runs in a fresh interpreter.  A layer
that has not run yet is the module type of ``importlib.util.LazyLoader``, so
``type(module) is not types.ModuleType`` tells it apart without running it.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modalkit
from modalkit import cli

SRC = Path(modalkit.__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
LAYERS = ("approximate", "braid", "errors", "graph", "leading", "modes", "pitch")

UNEXECUTED = (
    "sorted(n.removeprefix('modalkit.') for n, m in sys.modules.items()"
    " if n.startswith('modalkit.') and type(m) is not types.ModuleType)"
)


def python(code, *args, env=None):
    """stdout of ``python -c code args`` on the package under test."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_registers_every_layer_and_runs_none():
    # bench/workloads.py:library() reads the layers from sys.modules after `import modalkit`
    out = python(f"import sys, types, modalkit; print(*{UNEXECUTED})")
    assert out.split() == list(LAYERS)


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["modes", "--scale", "major", "--root", "C"], "approximate braid graph leading"),
        (["harmonize", "--scale", "major"], "approximate braid graph leading"),
        (["decompose", "--notes", "0,2,4,5,7,9,11", "--root", "0"],
         "approximate braid graph leading"),
        (["graph", "--quality", "7"], "approximate braid leading"),
        (["tcm", "--all"], "approximate braid leading"),
        (["admissible", "--quality", "7"], "approximate braid leading"),
        (["special", "--quality", "7"], "approximate braid leading"),
        (["approx", "--target", "0,2,4", "--quality", "7", "--root", "C"], "braid leading"),
        (["braid", "--file", str(DATA / "peru.prog")], "approximate graph modes"),
        (["--help"], "approximate braid graph leading modes"),
        (["modes", "--scale", "nope", "--root", "C"], "approximate braid graph leading"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_a_verb_runs_only_the_layers_it_uses(argv, unused):
    out = python(
        "import io, sys, types\nfrom modalkit.cli import run\n"
        "code = run(sys.argv[1:], out=io.StringIO(), err=io.StringIO())\n"
        f"print(code, *{UNEXECUTED})",
        *argv,
    )
    code, *left = out.split()
    assert code == ("2" if "nope" in argv else "0")
    assert left == unused.split()


def test_no_verb_imports_re_on_a_clean_interpreter():
    # python -S: no site, which may import re itself; braid and leading read their
    # tokens and comments with str methods
    code = (
        "import io, sys\nfrom modalkit.cli import run\n"
        "for flags in ([], ['--ascii']):\n"
        f"    assert run(['braid', '--file', {str(DATA / 'peru.prog')!r}, *flags],"
        " out=io.StringIO()) == 0\n"
        "print('re' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize(
    "statements, ran",
    [
        ("import modalkit\nimport modalkit.braid", True),  # reads the layer's __spec__
        ("import modalkit.braid", False),  # the package's import registers it, unexecuted
        ("from modalkit import braid", False),
    ],
    ids=["import-after-the-package", "import-first", "from-import"],
)
def test_which_import_statement_runs_a_layer(statements, ran):
    out = python(f"import sys, types\n{statements}\n"
                 "print(type(sys.modules['modalkit.braid']) is types.ModuleType)")
    assert out == f"{ran}\n"


def test_the_public_names_are_the_layers_objects():
    out = python(
        "import pickle, sys, types\n"
        "import modalkit\n"
        "layers = {n: m for n, m in sys.modules.items() if n.startswith('modalkit.')}\n"
        "names = {}\n"
        "exec('from modalkit import *', names)\n"
        "for name in modalkit.__all__:\n"
        "    value = names[name]\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        assert value is layers['modalkit.' + name], name\n"
        "    else:  # a function, a class or PitchClass, which is int\n"
        "        assert any(getattr(m, name, None) is value for m in layers.values()), name\n"
        "        assert pickle.loads(pickle.dumps(value)) is value, name\n"
        "assert modalkit.approximate is layers['modalkit.approximate'].approximate\n"
        "chord = modalkit.Chord([0, 4, 7])\n"
        "assert pickle.loads(pickle.dumps(chord)) == chord\n"
        "assert set(modalkit.__all__) <= set(dir(modalkit))\n"
        "print(len(modalkit.__all__), modalkit.__version__)\n"
    )
    assert out.split() == [str(len(modalkit.__all__)), modalkit.__version__]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        modalkit.nope  # noqa: B018


@pytest.mark.parametrize("argv", [["--help"], ["modes", "--help"], ["braid", "-h"]])
def test_help_does_not_depend_on_the_terminal_width(argv):
    code = "from modalkit.cli import main; main()"
    env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
    outputs = {python(code, *argv, env=dict(env, **columns)) for columns in
               ({}, {"COLUMNS": "40"}, {"COLUMNS": "200"})}
    assert len(outputs) == 1
    # the width argparse picks when stdout is no terminal, so the bytes are as they were
    assert max(len(line) for line in outputs.pop().splitlines()
               if not line.strip().startswith("{")) <= cli.HELP_WIDTH


def test_run_builds_the_parser_only_for_an_argv_the_reader_refuses(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    for argv, names in (
        # well-formed: read without argparse
        (["tcm", "--all"], []),
        (["braid", "--file", str(DATA / "peru.prog")], []),
        # refused by the reader: argparse reads it with all nine sub-parsers
        (["tcm", "--all", "--all"], list(cli._VERBS)),
        (["braid", "--file", str(DATA / "peru.prog"), "-h"], list(cli._VERBS)),
        (["--help"], list(cli._VERBS)),
        (["tmc", "--all"], list(cli._VERBS)),
        ([], list(cli._VERBS)),
    ):
        built.clear()
        cli.run(argv)
        assert built == names, argv
    capsys.readouterr()


def test_the_usage_line_names_every_verb():
    usage = cli.build_parser().format_usage()
    assert "{modes,harmonize,decompose,graph,tcm,admissible,special,braid,approx}" in usage
